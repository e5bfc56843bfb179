//! The kept worker team behind every parallel solver: the paper's fixed
//! Pthreads team (Algorithm 4), standing in for an OpenMP runtime.
//!
//! A team of `n` workers is the caller's thread (worker 0) plus `n − 1`
//! helpers, spawned when the solver is built and joined when it drops, so
//! a 1-worker team starts no thread and no `run` spawns one.
//! [`Team::run`] hands one closure to every worker; the workers meet at
//! one [`Barrier`] before and after it, and between runs the helpers wait
//! parked at that barrier's start rendezvous.
//!
//! A panic in the closure is caught on its worker. Once every worker has
//! finished, `run` re-raises the first one on the caller, and the team
//! stays usable. Items are handed to workers by index through [`Slots`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::barrier::Barrier;
use crate::solver::SolverError;
use crate::sync_shim::{lock, JoinHandle, Mutex};

/// The closure of the current run, lifetime-erased (see [`Team::run`]).
type Job = &'static (dyn Fn(usize) + Sync);

/// A caught panic payload.
type Panic = Box<dyn std::any::Any + Send>;

struct Shared {
    /// The start and end rendezvous of every run. Poisoned only to send
    /// the helpers home: on drop, or when a build fails part-way.
    barrier: Barrier,
    /// The closure of the run in progress; `None` between runs.
    job: Mutex<Option<Job>>,
    /// The first panic caught in the run in progress.
    panic: Mutex<Option<Panic>>,
}

impl Shared {
    /// Runs `job(t)`, keeping its panic (the first one of the run wins).
    fn call(&self, job: Job, t: usize) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(t))) {
            lock(&self.panic).get_or_insert(p);
        }
    }

    /// Helper `t`'s life: wait parked for a run, do its share, report at
    /// the end rendezvous; leave when the start rendezvous is poisoned.
    fn serve(&self, t: usize) {
        while self.barrier.wait_checked().is_ok() {
            let job = *lock(&self.job);
            if let Some(job) = job {
                self.call(job, t);
            }
            // Poisoned only by a drop or a failed build, and neither
            // happens while a run is in progress.
            let _ = self.barrier.wait_checked();
        }
    }
}

/// Starts a helper thread named `name` running `f` (a logical loom thread
/// under the model, which ignores the name). The crate's only thread
/// spawn outside tests.
fn spawn<F>(name: String, f: F) -> std::io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    #[cfg(loom)]
    {
        let _ = name;
        Ok(loom::thread::spawn(f))
    }
    #[cfg(not(loom))]
    std::thread::Builder::new().name(name).spawn(f)
}

/// A fixed team of `n` workers: the caller plus `n − 1` kept helpers.
pub struct Team {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Team {
    /// Spawns the `n − 1` helpers, named `{name}-{t}`. Fails with
    /// `InvalidInput` when `n` is 0, and when the OS refuses a thread; the
    /// helpers already started are then joined.
    pub fn new(n: usize, name: &str) -> std::io::Result<Self> {
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a team needs at least one worker",
            ));
        }
        let shared = Arc::new(Shared {
            barrier: Barrier::new(n),
            job: Mutex::new(None),
            panic: Mutex::new(None),
        });
        let mut team = Self {
            shared,
            helpers: Vec::with_capacity(n - 1),
        };
        for t in 1..n {
            let shared = Arc::clone(&team.shared);
            // On failure `team` drops here, which sends the helpers
            // already started home and joins them.
            team.helpers
                .push(spawn(format!("{name}-{t}"), move || shared.serve(t))?);
        }
        Ok(team)
    }

    /// [`Team::new`] for the solvers' `try_*` builders: zero workers is
    /// [`SolverError::ZeroThreads`], a refused thread
    /// [`SolverError::TeamStart`].
    pub fn try_start(n: usize, name: &str) -> Result<Self, SolverError> {
        if n == 0 {
            return Err(SolverError::ZeroThreads);
        }
        Self::new(n, name).map_err(|e| SolverError::TeamStart {
            threads: n,
            detail: e.to_string(),
        })
    }

    /// [`Team::new`] for the solvers' panicking builders.
    pub fn start(n: usize, name: &str) -> Self {
        Self::try_start(n, name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of workers, the caller included.
    pub fn n_workers(&self) -> usize {
        self.shared.barrier.n_threads()
    }

    /// Runs `f(t)` on every worker `t` (`f(0)` on the caller) and returns
    /// once all of them have returned. A panic in `f` is re-raised here,
    /// after every worker has finished; the team stays usable. `&mut self`
    /// keeps a second caller from joining the rendezvous of a run.
    pub fn run<F: Fn(usize) + Sync>(&mut self, f: F) {
        let f: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: only the lifetime is erased. This is the team's only run
        // in progress (`&mut self`). The helpers read `job` only between
        // the start and the end rendezvous below, and `run`
        // passes the end rendezvous only after every helper has returned
        // from `f` — `Shared::call` catches an unwinding `f` first, and the
        // barrier cannot be poisoned while a run is in progress — and
        // clears `job` before it returns. So no worker touches `f` or
        // anything it borrows after `run` returns, including when it
        // returns by re-raising a panic.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Job>(f) };
        let shared = &self.shared;
        *lock(&shared.job) = Some(job);
        let _ = shared.barrier.wait_checked();
        shared.call(job, 0);
        let _ = shared.barrier.wait_checked();
        *lock(&shared.job) = None;
        if let Some(p) = lock(&shared.panic).take() {
            resume_unwind(p);
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        // No run is in progress (`run` borrows the team mutably), so every helper
        // is at, or on its way to, the start rendezvous; the poison sends
        // it home.
        self.shared.barrier.poison();
        for h in self.helpers.drain(..) {
            // A helper catches every panic of its closure, so it cannot
            // die with one.
            let _ = h.join();
        }
    }
}

/// One item per index, for the workers of a run to take by index: each is
/// taken at most once, whichever worker takes it.
pub struct Slots<T>(Vec<Mutex<Option<T>>>);

impl<T> Slots<T> {
    /// Slots holding `items`, in order.
    pub fn new(items: impl IntoIterator<Item = T>) -> Self {
        Self(items.into_iter().map(|x| Mutex::new(Some(x))).collect())
    }

    /// `n` empty slots, for the workers to [`Slots::put`] results into.
    pub fn empty(n: usize) -> Self {
        Self((0..n).map(|_| Mutex::new(None)).collect())
    }

    /// Takes item `i`; `None` once taken or when `i` is out of range.
    pub fn take(&self, i: usize) -> Option<T> {
        self.0.get(i).and_then(|m| lock(m).take())
    }

    /// Stores `value` in slot `i` (which must be in range).
    pub fn put(&self, i: usize, value: T) {
        if let Some(m) = self.0.get(i) {
            *lock(m) = Some(value);
        }
    }

    /// The slots' contents, in order.
    pub fn into_vec(self) -> Vec<Option<T>> {
        self.0.into_iter().map(into_inner).collect()
    }
}

/// A mutex's contents, ignoring poisoning as [`lock`] does.
fn into_inner<T>(m: Mutex<Option<T>>) -> Option<T> {
    lock(&m).take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_work_that_borrows_the_callers_stack() {
        let mut team = Team::new(4, "team-test").unwrap();
        let mut data = vec![0usize; 64];
        let chunks = Slots::new(data.chunks_mut(16));
        team.run(|t| {
            for v in chunks.take(t).unwrap() {
                *v += t + 1;
            }
        });
        drop(chunks);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 16 + 1);
        }
    }

    #[test]
    fn every_worker_runs_once_per_run_and_the_team_is_reused() {
        let mut team = Team::new(3, "team-reuse").unwrap();
        assert_eq!(team.n_workers(), 3);
        for round in 1..=50 {
            let seen: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            team.run(|t| {
                seen[t].fetch_add(round, Ordering::Relaxed);
            });
            for s in &seen {
                assert_eq!(s.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn one_worker_team_runs_on_the_caller() {
        let mut team = Team::new(1, "team-solo").unwrap();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        team.run(|t| {
            assert_eq!(t, 0);
            *lock(&ran_on) = Some(std::thread::current().id());
        });
        assert_eq!(into_inner(ran_on), Some(caller));
    }

    /// A panicking worker does not cut the others short: `run` re-raises
    /// only after every worker finished, and the next run works.
    #[test]
    fn panic_surfaces_after_every_worker_finishes() {
        let mut team = Team::new(3, "team-panic").unwrap();
        let done = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            team.run(|t| {
                if t == 1 {
                    panic!("boom");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = outcome.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(
            done.load(Ordering::SeqCst),
            2,
            "the siblings finished first"
        );
        let after = AtomicUsize::new(0);
        team.run(|_| {
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 3, "the team still runs");
    }

    /// Drop joins every helper: each helper holds a clone of the shared
    /// state, so the count returns to one only once all have exited.
    #[test]
    fn drop_joins_every_helper() {
        let mut team = Team::new(4, "team-drop").unwrap();
        team.run(|_| ());
        let shared = Arc::clone(&team.shared);
        assert_eq!(Arc::strong_count(&shared), 5);
        drop(team);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn zero_workers_is_an_invalid_input_error() {
        let err = Team::new(0, "team-zero").err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn try_start_reports_zero_workers_as_zero_threads() {
        let err = Team::try_start(0, "team-zero").err().expect("must fail");
        assert_eq!(err, SolverError::ZeroThreads);
    }

    #[test]
    fn slots_hand_out_each_item_once() {
        let slots = Slots::new([10, 20]);
        assert_eq!(slots.take(1), Some(20));
        assert_eq!(slots.take(1), None);
        assert_eq!(slots.take(5), None);
        let out: Slots<u8> = Slots::empty(2);
        out.put(0, 7);
        assert_eq!(out.into_vec(), vec![Some(7), None]);
    }
}
