//! The one barrier of the crate: a centralized count/generation
//! rendezvous (see *Rust Atomics and Locks* ch. 9 for the memory-ordering
//! reasoning) that spins, then yields, for a fixed budget and then parks
//! on a condition variable. Algorithm 4 executes three of these per time step, and the
//! worker team ([`crate::team`]) meets at one at the start and at the end
//! of every `run`, with its helpers parked there between runs.
//!
//! Most phase waits are short, and the spin catches them; the yields let
//! a sibling that shares the core run. A wait that outlasts the budget (an
//! idle team between runs, a long straggler) parks in the kernel.
//!
//! The barrier supports **poisoning**: a worker that panics marks the
//! barrier dead before unwinding, and every sibling blocked (or about to
//! block) in `wait_checked`, spinning or parked, returns
//! [`BarrierPoisoned`] instead of waiting forever on a rendezvous that can
//! no longer complete. A poisoned barrier stays poisoned.

use crate::sync_shim::{lock, spin_wait, wait, yield_wait, AtomicUsize, Condvar, Mutex, Ordering};

/// The poison flag: the top bit of [`Barrier`]'s `state` word, whose other
/// bits count generations.
const POISONED: usize = 1 << (usize::BITS - 1);

/// Probes a waiter makes before it parks. After each of the first
/// [`SPIN_HINTS`] it issues a `spin_loop` hint, after each later one it
/// yields its core, so a sibling that shares the core (more threads than
/// cores, or another process on the machine) can run. Waits shorter than
/// the budget behave as before parking existed; longer ones (an idle team
/// between runs) park. Under the loom model a single hint, so the
/// explorer reaches the park path.
#[cfg(not(loom))]
const SPIN_BUDGET: u32 = 1 << 14;
#[cfg(loom)]
const SPIN_BUDGET: u32 = 1;

/// Probes that end in a `spin_loop` hint rather than a yield.
const SPIN_HINTS: u32 = 64;

/// A sibling thread panicked: the rendezvous can never complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "barrier poisoned: a participating thread panicked")
    }
}

impl std::error::Error for BarrierPoisoned {}

/// Spin-then-park barrier for a fixed set of `n` threads.
///
/// Correctness: each arriving thread increments `count` with `AcqRel`; the
/// RMW chain makes every earlier thread's writes visible to the last
/// arriver, which publishes them to the waiters through the `Release`
/// increment of the generation in `state` that each waiter
/// `Acquire`-loads. Thus all writes before the barrier happen-before all
/// reads after it, for every thread pair. The generation and the poison
/// flag share the one `state` word, so a single load sees both.
///
/// Parking: a waiter that exhausts its spin budget takes `park`,
/// registers in `sleepers`, re-checks `state`, and waits on `cv`. The last
/// arriver bumps the generation and then reads `sleepers`; all four
/// accesses are `SeqCst`, so either the waiter's re-check sees the new
/// generation or the releaser sees the waiter registered. In the second
/// case the releaser takes `park` before it notifies, which it can only do
/// once the waiter is inside `wait`, so the notify cannot fall between the
/// waiter's re-check and its wait. Poisoning always takes `park` before it
/// notifies.
pub struct Barrier {
    n: usize,
    count: AtomicUsize,
    /// The generation count, plus [`POISONED`] once a participant has
    /// panicked. Checked on entry, inside the spin loop and before every
    /// park, so a panicking sibling releases every waiter.
    state: AtomicUsize,
    /// Waiters that have registered to park (a few may already be awake
    /// again, which costs the releaser one needless notify).
    sleepers: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
}

impl Barrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one thread");
        Self {
            n,
            count: AtomicUsize::new(0),
            state: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn n_threads(&self) -> usize {
        self.n
    }

    /// Marks the barrier permanently dead, releasing all current and
    /// future waiters with [`BarrierPoisoned`]. Called by a panicking
    /// worker *before* it unwinds past its barrier discipline.
    pub fn poison(&self) {
        self.state.fetch_or(POISONED, Ordering::SeqCst);
        self.wake();
    }

    /// True once any participant has poisoned the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.state.load(Ordering::Acquire) & POISONED != 0
    }

    /// Wakes every parked waiter. Taking `park` first orders this notify
    /// after any waiter's re-check under the lock (see the type docs).
    fn wake(&self) {
        drop(lock(&self.park));
        self.cv.notify_all();
    }

    /// Blocks until all `n` threads have called `wait_checked` for the
    /// current generation: spinning, then yielding, for a fixed budget,
    /// then parked.
    /// Returns `Ok(true)` on exactly one thread per generation (the
    /// "leader", the last arriver).
    ///
    /// A poisoned barrier returns `Err(BarrierPoisoned)`: on entry, from
    /// the spin loop and from the park, so no thread is left waiting on a
    /// rendezvous a dead sibling can never join.
    pub fn wait_checked(&self) -> Result<bool, BarrierPoisoned> {
        let gen = self.state.load(Ordering::Acquire);
        if gen & POISONED != 0 {
            return Err(BarrierPoisoned);
        }
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.state.fetch_add(1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) != 0 {
                self.wake();
            }
            return Ok(true);
        }
        // What a waiter sees in `state`: `None` while the rendezvous is
        // still open.
        let released = |state: usize| match state {
            s if s & POISONED != 0 => Some(Err(BarrierPoisoned)),
            s if s != gen => Some(Ok(false)),
            _ => None,
        };
        for i in 0..SPIN_BUDGET {
            // One load is the last visible operation before the spin hint,
            // so that (under the loom model, where every atomic access is
            // a scheduling point) a release or a poison landing anywhere
            // before the hint still wakes this waiter.
            if let Some(r) = released(self.state.load(Ordering::Acquire)) {
                return r;
            }
            if i < SPIN_HINTS {
                spin_wait();
            } else {
                yield_wait();
            }
        }
        let mut guard = lock(&self.park);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let r = loop {
            if let Some(r) = released(self.state.load(Ordering::SeqCst)) {
                break r;
            }
            guard = wait(&self.cv, guard);
        };
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        r
    }

    /// [`Barrier::wait_checked`] plus the time this thread spent inside
    /// the wait — the telemetry probe for the paper's
    /// three-barriers-per-step overhead. The timing is per-caller: the
    /// last arriver (the leader) measures ~0, the first arriver measures
    /// the full straggler gap.
    pub fn wait_timed_checked(&self) -> Result<(bool, std::time::Duration), BarrierPoisoned> {
        let t0 = std::time::Instant::now();
        let leader = self.wait_checked()?;
        Ok((leader, t0.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Spins until `b` has `k` parked waiters.
    fn until_parked(b: &Barrier, k: usize) {
        while b.sleepers.load(Ordering::SeqCst) < k {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn single_thread_is_always_leader() {
        let b = Barrier::new(1);
        for _ in 0..5 {
            assert_eq!(b.wait_checked(), Ok(true));
        }
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let b = Barrier::new(4);
        let leaders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if b.wait_checked().unwrap() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn barrier_publishes_writes() {
        // Each round, every thread writes its slot before the barrier and
        // checks everyone's slot after it — any missed synchronisation
        // shows up as a stale read.
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let b = Barrier::new(THREADS);
        // Plain (non-atomic would be UB here) relaxed atomics as the data;
        // the *ordering* must come from the barrier alone.
        let slots: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let slots = &slots;
                let b = &b;
                s.spawn(move || {
                    for round in 1..=ROUNDS as u64 {
                        slots[t].store(round, Ordering::Relaxed);
                        b.wait_checked().unwrap();
                        for (i, slot) in slots.iter().enumerate() {
                            let v = slot.load(Ordering::Relaxed);
                            assert!(v >= round, "thread {t} saw stale slot {i}: {v} < {round}");
                        }
                        b.wait_checked().unwrap(); // end-of-round barrier before next write
                    }
                });
            }
        });
    }

    /// Two waiters exhaust the spin budget and park; the late third
    /// arriver releases them, and each generation still has one leader,
    /// the last arriver.
    #[test]
    fn wait_past_the_spin_budget_returns_the_right_leader() {
        let b = Barrier::new(3);
        for _ in 0..3 {
            std::thread::scope(|s| {
                let early: Vec<_> = (0..2).map(|_| s.spawn(|| b.wait_checked())).collect();
                until_parked(&b, 2);
                assert_eq!(b.wait_checked(), Ok(true), "the late arriver leads");
                for h in early {
                    assert_eq!(h.join().unwrap(), Ok(false));
                }
            });
        }
        assert_eq!(b.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_timed_reports_leader_and_duration() {
        use std::time::Instant;
        let b = Barrier::new(2);
        // Each thread records the instant it arrives and returns it with
        // its leader flag and measured wait. Whichever thread arrives
        // first, its wait covers the gap to the other's arrival.
        let arrive = || {
            let at = Instant::now();
            let (leader, waited) = b.wait_timed_checked().unwrap();
            (leader, waited, at)
        };
        let (a, c) = std::thread::scope(|s| {
            let other = s.spawn(arrive);
            // Usually makes the spawned thread the first arriver; the
            // assertions hold for either order.
            std::thread::sleep(Duration::from_millis(5));
            let mine = arrive();
            (mine, other.join().unwrap())
        });
        assert!(a.0 != c.0, "exactly one leader: {a:?}, {c:?}");
        let ((_, waited, first_at), (_, _, leader_at)) = if a.0 { (c, a) } else { (a, c) };
        let gap = leader_at.saturating_duration_since(first_at);
        assert!(
            waited >= gap,
            "the first arriver waited {waited:?}, less than the {gap:?} between arrivals"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        Barrier::new(0);
    }

    /// Poison right after the waiter arrives: it is on the spin path (or,
    /// on a slow machine, already parked) and returns the error either way.
    #[test]
    fn poison_releases_spinning_waiter() {
        let b = Barrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait_checked());
            while b.count.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            b.poison();
            assert_eq!(waiter.join().unwrap(), Err(BarrierPoisoned));
        });
        // The barrier stays dead for all future arrivals.
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
        assert!(b.is_poisoned());
    }

    /// Poison once the waiter has parked: the notify reaches it.
    #[test]
    fn poison_releases_parked_waiter() {
        let b = Barrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait_checked());
            until_parked(&b, 1);
            b.poison();
            assert_eq!(waiter.join().unwrap(), Err(BarrierPoisoned));
        });
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
    }

    #[test]
    fn poisoned_barrier_is_an_error_not_a_hang() {
        let b = Barrier::new(3);
        b.poison();
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
        assert!(b.wait_timed_checked().is_err());
    }
}
