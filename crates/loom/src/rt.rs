//! The execution runtime behind [`model`]: a cooperative scheduler that
//! serialises logical threads (exactly one holds the *token* and runs at a
//! time, handing it over at every visible operation), explores schedules by
//! depth-first search over the choice of which thread steps next, and
//! maintains vector clocks for happens-before race detection.
//!
//! Protocol invariant: only the token holder ever enters the decision
//! section of [`Execution::pick_and_grant`], so the recorded decision
//! sequence is deterministic and replayable. A spawned thread first parks
//! in [`initial_arrival`] until it is granted a step; its code up to the
//! first visible operation runs under that grant.
//!
//! Bounds: schedules are explored exhaustively up to a preemption budget
//! (`LOOM_MAX_PREEMPTIONS`, default 2) — CHESS-style preemption bounding,
//! which keeps the state space polynomial while catching almost all real
//! interleaving bugs.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel panic payload used to unwind logical threads when an execution
/// aborts (because another thread failed); swallowed by thread wrappers.
pub(crate) struct AbortToken;

/// True if a caught panic payload is the runtime's abort sentinel.
pub(crate) fn is_abort(p: &Box<dyn Any + Send>) -> bool {
    p.is::<AbortToken>()
}

/// A vector clock: `clock.0[t]` = how much of thread `t`'s history is
/// known to happen-before the clock's owner.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// This clock's view of thread `t`.
    pub fn component(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// True if the epoch `(t, c)` happens-before (or is) this clock.
    pub fn covers_epoch(&self, t: usize, c: u32) -> bool {
        self.component(t) >= c
    }

    /// Pointwise maximum (`self ⊔ other`).
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }

    fn bump(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Status {
    /// Can take a step when scheduled.
    Runnable,
    /// In a spin/yield loop: not eligible until some write (atomic store,
    /// cell write, or mutex unlock) happens after `seen_writes`.
    SpinParked {
        seen_writes: u64,
    },
    /// Waiting for a mutex; woken (made Runnable) by its unlock.
    MutexBlocked {
        mutex: usize,
    },
    /// Waiting on a condition variable; woken only by a notify.
    CondvarBlocked {
        cv: usize,
    },
    /// Waiting for a thread to finish.
    JoinBlocked {
        target: usize,
    },
    Finished,
}

struct ThreadState {
    status: Status,
    /// Final clock, recorded at exit, joined into joiners.
    final_clock: Option<VClock>,
    /// `write_count` when the thread last entered the scheduler — i.e. at
    /// the end of its previous exclusive window. A spin park must compare
    /// against this, not the current count: writes that landed while the
    /// thread was waiting to be granted its spin step would otherwise be
    /// missed, turning a productive re-check into a false deadlock.
    entered_writes: u64,
}

/// One scheduling decision: which thread stepped, out of which candidates.
struct Decision {
    /// Thread ids eligible at this point, in exploration order.
    allowed: Vec<usize>,
    chosen_idx: usize,
}

struct Inner {
    threads: Vec<ThreadState>,
    clocks: Vec<VClock>,
    current: usize,
    /// Forced choices replayed from a previous execution (DFS prefix).
    script: Vec<usize>,
    script_pos: usize,
    decisions: Vec<Decision>,
    preemptions: u32,
    max_preemptions: u32,
    steps: u64,
    max_steps: u64,
    /// Bumped on every write-like operation; spin-parked threads become
    /// eligible again when it advances past their snapshot.
    write_count: u64,
    /// Monotonic ids for mutexes and condition variables within this
    /// execution.
    next_sync_id: usize,
    aborted: bool,
    failure: Option<Box<dyn Any + Send>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    /// Logical threads not yet finished.
    live: usize,
}

/// Shared state of one execution.
pub(crate) struct Execution {
    inner: Mutex<Inner>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The execution and logical-thread id of the calling OS thread. Panics
/// outside `loom::model`.
fn context() -> (Arc<Execution>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("loom primitives may only be used inside loom::model")
    })
}

pub(crate) fn set_context(exec: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = exec);
}

impl Execution {
    fn new(script: Vec<usize>, max_preemptions: u32, max_steps: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                threads: vec![ThreadState {
                    status: Status::Runnable,
                    final_clock: None,
                    entered_writes: 0,
                }],
                clocks: vec![{
                    let mut c = VClock::default();
                    c.bump(0);
                    c
                }],
                current: 0,
                script,
                script_pos: 0,
                decisions: Vec::new(),
                preemptions: 0,
                max_preemptions,
                steps: 0,
                max_steps,
                write_count: 0,
                next_sync_id: 0,
                aborted: false,
                failure: None,
                os_handles: Vec::new(),
                live: 1,
            }),
            cv: Condvar::new(),
        }
    }

    /// Poison-proof lock: an aborting execution unwinds logical threads
    /// while they hold this mutex, and the cleanup paths still need it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn abort_check(&self, inner: &Inner) {
        if inner.aborted {
            std::panic::panic_any(AbortToken);
        }
    }

    /// Re-evaluates which threads can step right now (waking spin-parked
    /// threads whose snapshot is stale) and returns their ids in order.
    fn runnable(inner: &mut Inner) -> Vec<usize> {
        let writes = inner.write_count;
        for t in inner.threads.iter_mut() {
            if let Status::SpinParked { seen_writes } = t.status {
                if writes > seen_writes {
                    t.status = Status::Runnable;
                }
            }
        }
        inner
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// The decision section: picks the next thread to step (replaying the
    /// script, else the first allowed candidate), records the decision,
    /// and grants the token. Caller must be the token holder. Returns
    /// false when no thread is runnable.
    fn pick_and_grant(&self, inner: &mut Inner) -> bool {
        let runnable = Self::runnable(inner);
        if runnable.is_empty() {
            return false;
        }
        // Exploration order: the non-preempting continuation first, then
        // the other candidates. Switching away from a still-runnable
        // current thread is a preemption; choices beyond the budget are
        // not offered to the DFS.
        let current_runnable = runnable.contains(&inner.current);
        let default = if current_runnable {
            inner.current
        } else {
            runnable[0]
        };
        let mut allowed = vec![default];
        if !current_runnable || inner.preemptions < inner.max_preemptions {
            allowed.extend(runnable.iter().copied().filter(|&t| t != default));
        }
        let chosen = if inner.script_pos < inner.script.len() {
            let c = inner.script[inner.script_pos];
            inner.script_pos += 1;
            assert!(allowed.contains(&c), "loom-lite: schedule replay diverged");
            c
        } else {
            allowed[0]
        };
        let chosen_idx = allowed.iter().position(|&t| t == chosen).unwrap_or(0);
        inner.decisions.push(Decision {
            allowed,
            chosen_idx,
        });
        if chosen != inner.current && current_runnable {
            inner.preemptions += 1;
        }
        inner.current = chosen;
        // Each granted step gets a fresh epoch on the stepping thread.
        inner.clocks[chosen].bump(chosen);
        true
    }

    /// Called by the token holder `me` at a yield point: either to take
    /// its next step, or after marking itself blocked. Picks the next
    /// thread to run and waits until `me` is scheduled and runnable again.
    fn advance(self: &Arc<Self>, me: usize) {
        let mut inner = self.lock();
        self.abort_check(&inner);
        inner.threads[me].entered_writes = inner.write_count;
        inner.steps += 1;
        if inner.steps > inner.max_steps {
            drop(inner);
            self.fail_with_message(
                "loom-lite: execution exceeded the step bound (livelock or unbounded loop?)",
            );
        }
        if !self.pick_and_grant(&mut inner) {
            // `me` just blocked and nobody else can run: deadlock.
            drop(inner);
            self.fail_with_message("loom-lite: deadlock — no runnable thread");
        }
        self.cv.notify_all();
        while !(inner.current == me && inner.threads[me].status == Status::Runnable) {
            self.abort_check(&inner);
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        self.abort_check(&inner);
    }

    /// Records a failure (test panic, detected race, limit overrun), wakes
    /// everyone, and unwinds the calling thread.
    fn fail(self: &Arc<Self>, payload: Box<dyn Any + Send>) -> ! {
        report_failure(self, payload);
        std::panic::panic_any(AbortToken);
    }

    fn fail_with_message(self: &Arc<Self>, msg: &str) -> ! {
        self.fail(Box::new(msg.to_string()))
    }
}

/// Records a failure without unwinding (safe to call while panicking).
pub(crate) fn report_failure(exec: &Arc<Execution>, payload: Box<dyn Any + Send>) {
    let mut inner = exec.lock();
    if inner.failure.is_none() {
        inner.failure = Some(payload);
    }
    inner.aborted = true;
    drop(inner);
    exec.cv.notify_all();
}

/// Handle used by the primitives: one visible operation of the calling
/// logical thread. Constructing it schedules; the holder then runs
/// exclusively until its next visible operation.
pub(crate) struct Op {
    pub exec: Arc<Execution>,
    pub tid: usize,
}

impl Op {
    /// Enters a visible operation: schedules, then returns with the token
    /// held (exclusive access until the next visible operation).
    pub fn start() -> Op {
        let (exec, tid) = context();
        exec.advance(tid);
        Op { exec, tid }
    }

    pub fn thread_clock(&self) -> VClock {
        self.exec.lock().clocks[self.tid].clone()
    }

    pub fn join_thread_clock(&self, other: &VClock) {
        self.exec.lock().clocks[self.tid].join(other);
    }

    pub fn note_write(&self) {
        self.exec.lock().write_count += 1;
    }

    pub fn fail(&self, msg: String) -> ! {
        self.exec.fail(Box::new(msg))
    }

    /// Parks the calling thread until any write happens (models a spin
    /// iteration without letting the DFS schedule busy loops forever).
    pub fn spin_park(&self) {
        {
            let mut inner = self.exec.lock();
            // Park against the snapshot taken when this spin op entered
            // the scheduler (see `ThreadState::entered_writes`): any write
            // since the loop's last probe makes a re-check worthwhile.
            let seen = inner.threads[self.tid].entered_writes;
            inner.threads[self.tid].status = Status::SpinParked { seen_writes: seen };
        }
        self.exec.advance(self.tid);
    }

    /// Blocks on a mutex until its unlock (the caller then retries).
    pub fn mutex_block(&self, mutex: usize) {
        {
            let mut inner = self.exec.lock();
            inner.threads[self.tid].status = Status::MutexBlocked { mutex };
        }
        self.exec.advance(self.tid);
    }

    /// Wakes every thread blocked on `mutex`; they re-attempt the lock.
    pub fn mutex_unblock(&self, mutex: usize) {
        let mut inner = self.exec.lock();
        for t in inner.threads.iter_mut() {
            if t.status == (Status::MutexBlocked { mutex }) {
                t.status = Status::Runnable;
            }
        }
        inner.write_count += 1;
        drop(inner);
        self.exec.cv.notify_all();
    }

    /// Blocks on condition variable `cv` until a notify wakes it.
    pub fn condvar_block(&self, cv: usize) {
        {
            let mut inner = self.exec.lock();
            inner.threads[self.tid].status = Status::CondvarBlocked { cv };
        }
        self.exec.advance(self.tid);
    }

    /// Wakes the first (`all == false`) or every thread blocked on `cv`.
    pub fn condvar_notify(&self, cv: usize, all: bool) {
        let mut inner = self.exec.lock();
        for t in inner.threads.iter_mut() {
            if t.status == (Status::CondvarBlocked { cv }) {
                t.status = Status::Runnable;
                if !all {
                    break;
                }
            }
        }
        inner.write_count += 1;
        drop(inner);
        self.exec.cv.notify_all();
    }

    /// A fresh id for a mutex or condition variable.
    pub fn new_sync_id(&self) -> usize {
        let mut inner = self.exec.lock();
        inner.next_sync_id += 1;
        inner.next_sync_id - 1
    }

    /// Blocks until `target` finishes, then joins its final clock.
    pub fn join_on(&self, target: usize) {
        loop {
            {
                let mut inner = self.exec.lock();
                if inner.threads[target].status == Status::Finished {
                    let fc = inner.threads[target]
                        .final_clock
                        .clone()
                        .unwrap_or_default();
                    inner.clocks[self.tid].join(&fc);
                    return;
                }
                inner.threads[self.tid].status = Status::JoinBlocked { target };
            }
            self.exec.advance(self.tid);
        }
    }
}

/// Registers a new logical thread; returns its id. Called by
/// `loom::thread::spawn` while the parent holds the token; the child
/// inherits the parent's clock (the spawn edge).
pub(crate) fn register_thread(exec: &Arc<Execution>, parent: usize) -> usize {
    let mut inner = exec.lock();
    let tid = inner.threads.len();
    let entered_writes = inner.write_count;
    inner.threads.push(ThreadState {
        status: Status::Runnable,
        final_clock: None,
        entered_writes,
    });
    let mut clock = inner.clocks[parent].clone();
    clock.bump(tid);
    inner.clocks.push(clock);
    inner.live += 1;
    tid
}

pub(crate) fn store_os_handle(exec: &Arc<Execution>, h: std::thread::JoinHandle<()>) {
    exec.lock().os_handles.push(h);
}

/// First thing a spawned logical thread does: park until granted a step.
/// Keeps the invariant that only the token holder enters the scheduler's
/// decision section, so decision order stays deterministic.
pub(crate) fn initial_arrival(exec: &Arc<Execution>, tid: usize) {
    let mut inner = exec.lock();
    while inner.current != tid {
        exec.abort_check(&inner);
        inner = exec.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
    }
    exec.abort_check(&inner);
}

/// Marks the calling logical thread finished and hands the token on.
pub(crate) fn finish_thread(exec: &Arc<Execution>, tid: usize) {
    let mut inner = exec.lock();
    let clock = inner.clocks[tid].clone();
    inner.threads[tid].status = Status::Finished;
    inner.threads[tid].final_clock = Some(clock);
    inner.live -= 1;
    for t in inner.threads.iter_mut() {
        if t.status == (Status::JoinBlocked { target: tid }) {
            t.status = Status::Runnable;
        }
    }
    if inner.aborted {
        drop(inner);
        exec.cv.notify_all();
        return;
    }
    // Hand the token on through the ordinary decision section (so the
    // choice of successor is explored too), or detect completion/deadlock.
    if exec.pick_and_grant(&mut inner) {
        drop(inner);
        exec.cv.notify_all();
    } else if inner.live > 0 {
        drop(inner);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            exec.fail_with_message("loom-lite: deadlock — all remaining threads blocked");
        }));
    } else {
        drop(inner);
        exec.cv.notify_all();
    }
}

fn run_one(
    f: Arc<dyn Fn() + Send + Sync>,
    script: Vec<usize>,
    max_preemptions: u32,
    max_steps: u64,
) -> (Arc<Execution>, Option<Box<dyn Any + Send>>) {
    let exec = Arc::new(Execution::new(script, max_preemptions, max_steps));
    let exec_root = Arc::clone(&exec);
    let root = std::thread::Builder::new()
        .name("loom-0".into())
        .spawn(move || {
            set_context(Some((Arc::clone(&exec_root), 0)));
            let outcome = catch_unwind(AssertUnwindSafe(|| f()));
            if let Err(p) = outcome {
                if !is_abort(&p) {
                    report_failure(&exec_root, p);
                }
            }
            finish_thread(&exec_root, 0);
            set_context(None);
        })
        .expect("failed to spawn loom root thread");
    let _ = root.join();
    // Join OS threads of logical threads the test did not join itself.
    loop {
        let handle = exec.lock().os_handles.pop();
        match handle {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let failure = exec.lock().failure.take();
    (exec, failure)
}

/// Explores interleavings of `f` until exhaustion (within the preemption
/// bound) or failure; panics with the first failure found, printing the
/// failing thread-choice trace to stderr.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let max_preemptions: u32 = std::env::var("LOOM_MAX_PREEMPTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let max_executions: u64 = std::env::var("LOOM_MAX_BRANCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500_000);
    let max_steps: u64 = 200_000;

    let mut script: Vec<usize> = Vec::new();
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        assert!(
            executions <= max_executions,
            "loom-lite: exceeded {max_executions} executions — reduce the model size"
        );
        let (exec, failure) = run_one(Arc::clone(&f), script.clone(), max_preemptions, max_steps);
        let inner = exec.lock();
        if let Some(p) = failure {
            let trace: Vec<usize> = inner
                .decisions
                .iter()
                .map(|d| d.allowed[d.chosen_idx])
                .collect();
            drop(inner);
            eprintln!(
                "loom-lite: failing schedule found on execution {executions}; \
                 thread choices: {trace:?}"
            );
            if let Some(msg) = p.downcast_ref::<String>() {
                panic!("{msg}");
            }
            std::panic::resume_unwind(p);
        }
        // Depth-first: branch from the deepest decision that still has an
        // unexplored alternative.
        let mut next: Option<Vec<usize>> = None;
        for d in (0..inner.decisions.len()).rev() {
            let dec = &inner.decisions[d];
            if dec.chosen_idx + 1 < dec.allowed.len() {
                let mut s: Vec<usize> = inner.decisions[..d]
                    .iter()
                    .map(|x| x.allowed[x.chosen_idx])
                    .collect();
                s.push(dec.allowed[dec.chosen_idx + 1]);
                next = Some(s);
                break;
            }
        }
        drop(inner);
        match next {
            Some(s) => script = s,
            None => break,
        }
    }
}
