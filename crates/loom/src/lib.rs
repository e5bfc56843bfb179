//! Minimal offline stand-in for the [loom](https://docs.rs/loom) model
//! checker, API-compatible with the subset used by this workspace.
//!
//! `loom::model(f)` runs `f` many times, exploring the possible thread
//! interleavings of the `loom::` primitives it uses. Exploration is
//! depth-first over "which thread takes the next step", bounded by a
//! preemption budget (`LOOM_MAX_PREEMPTIONS`, default 2 — the CHESS
//! observation: almost all concurrency bugs manifest within two
//! preemptions).
//!
//! Differences from real loom, by design:
//!
//! - Atomics are explored under **sequential consistency**; weaker
//!   orderings are not given their full set of allowed load results.
//!   Instead, orderings feed a **vector-clock happens-before analysis**:
//!   an `Acquire` load joins the clock released by the matching `Release`
//!   store, relaxed operations do not, and every [`cell::UnsafeCell`]
//!   access is checked against those clocks. A missing
//!   `Release`/`Acquire` pair is therefore still caught — reported as a
//!   data race on the cell the synchronisation was supposed to publish —
//!   rather than by simulating the stale load itself.
//! - Spin loops must call [`hint::spin_loop`] (or `thread::yield_now`),
//!   which parks the thread until some other thread performs a write;
//!   this makes busy-wait loops finite for the explorer.
//!
//! Failures (assertion panics, detected races, deadlocks, livelocks)
//! abort the run and re-panic with the failing thread-choice trace
//! printed to stderr.

mod rt;

pub use rt::model;

pub mod sync {
    pub use std::sync::Arc;

    use super::rt::{Op, VClock};

    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use super::super::rt::{Op, VClock};
        use std::cell::UnsafeCell;

        /// Whether an ordering has acquire semantics on a load (or the
        /// load half of an RMW).
        fn acquires(o: Ordering) -> bool {
            matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
        }

        /// Whether an ordering has release semantics on a store (or the
        /// store half of an RMW).
        fn releases(o: Ordering) -> bool {
            matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
        }

        struct State<T> {
            value: T,
            /// Clock released by the last release-store, joined into
            /// acquire-loads. RMWs join into it (preserving release
            /// sequences); relaxed plain stores clear it.
            release: VClock,
        }

        /// A model-checked atomic scalar. The value lives behind the
        /// scheduler token, so every access is serialized and explored.
        pub struct Atomic<T> {
            state: UnsafeCell<State<T>>,
        }

        // SAFETY: all accesses to `state` go through `Op::start()`, which
        // blocks until the calling thread holds the execution's scheduler
        // token; exactly one thread holds it at a time, so the raw
        // accesses in `with_state` are mutually exclusive.
        unsafe impl<T: Send> Sync for Atomic<T> {}
        // SAFETY: `State<T>` owns its contents; sending the wrapper moves
        // them wholesale, exactly as for a plain `T: Send`.
        unsafe impl<T: Send> Send for Atomic<T> {}

        impl<T: Copy + PartialEq> Atomic<T> {
            pub fn new(value: T) -> Self {
                Self {
                    state: UnsafeCell::new(State {
                        value,
                        release: VClock::default(),
                    }),
                }
            }

            /// Runs `f` on the state while holding the scheduler token.
            fn with_state<R>(&self, f: impl FnOnce(&Op, &mut State<T>) -> R) -> R {
                let op = Op::start();
                // SAFETY: the token acquired by `Op::start` serializes all
                // threads of the execution; no other reference to `state`
                // exists while it is held.
                let state = unsafe { &mut *self.state.get() };
                f(&op, state)
            }

            pub fn load(&self, order: Ordering) -> T {
                self.with_state(|op, s| {
                    if acquires(order) {
                        op.join_thread_clock(&s.release);
                    }
                    s.value
                })
            }

            pub fn store(&self, value: T, order: Ordering) {
                self.with_state(|op, s| {
                    s.release = if releases(order) {
                        op.thread_clock()
                    } else {
                        VClock::default()
                    };
                    s.value = value;
                    op.note_write();
                })
            }

            fn rmw(&self, order: Ordering, f: impl FnOnce(T) -> T) -> T {
                self.with_state(|op, s| {
                    if acquires(order) {
                        op.join_thread_clock(&s.release);
                    }
                    let prev = s.value;
                    s.value = f(prev);
                    if releases(order) {
                        let clock = op.thread_clock();
                        s.release.join(&clock);
                    }
                    // A relaxed RMW continues the release sequence: the
                    // existing release clock stays as-is.
                    op.note_write();
                    prev
                })
            }

            pub fn swap(&self, value: T, order: Ordering) -> T {
                self.rmw(order, |_| value)
            }

            pub fn compare_exchange(
                &self,
                current: T,
                new: T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<T, T> {
                self.with_state(|op, s| {
                    if s.value == current {
                        if acquires(success) {
                            op.join_thread_clock(&s.release);
                        }
                        s.value = new;
                        if releases(success) {
                            let clock = op.thread_clock();
                            s.release.join(&clock);
                        }
                        op.note_write();
                        Ok(current)
                    } else {
                        if acquires(failure) {
                            op.join_thread_clock(&s.release);
                        }
                        Err(s.value)
                    }
                })
            }

            pub fn compare_exchange_weak(
                &self,
                current: T,
                new: T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<T, T> {
                // Deterministic stand-in: never fails spuriously. The
                // schedule explorer still exercises the retry loop via
                // genuine interference from other threads.
                self.compare_exchange(current, new, success, failure)
            }
        }

        macro_rules! int_atomic {
            ($name:ident, $ty:ty) => {
                pub struct $name(Atomic<$ty>);

                impl $name {
                    pub fn new(v: $ty) -> Self {
                        Self(Atomic::new(v))
                    }

                    pub fn load(&self, order: Ordering) -> $ty {
                        self.0.load(order)
                    }

                    pub fn store(&self, v: $ty, order: Ordering) {
                        self.0.store(v, order)
                    }

                    pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                        self.0.swap(v, order)
                    }

                    pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                        self.0.rmw(order, |p| p.wrapping_add(v))
                    }

                    pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                        self.0.rmw(order, |p| p.wrapping_sub(v))
                    }

                    pub fn fetch_or(&self, v: $ty, order: Ordering) -> $ty {
                        self.0.rmw(order, |p| p | v)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.0.compare_exchange(current, new, success, failure)
                    }

                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.0.compare_exchange_weak(current, new, success, failure)
                    }
                }
            };
        }

        int_atomic!(AtomicUsize, usize);
        int_atomic!(AtomicU64, u64);
        int_atomic!(AtomicU32, u32);

        pub struct AtomicBool(Atomic<bool>);

        impl AtomicBool {
            pub fn new(v: bool) -> Self {
                Self(Atomic::new(v))
            }

            pub fn load(&self, order: Ordering) -> bool {
                self.0.load(order)
            }

            pub fn store(&self, v: bool, order: Ordering) {
                self.0.store(v, order)
            }

            pub fn swap(&self, v: bool, order: Ordering) -> bool {
                self.0.swap(v, order)
            }
        }
    }

    struct MutexState {
        locked: bool,
        /// Clock of the last unlock; joined by the next lock.
        clock: VClock,
        id: Option<usize>,
    }

    /// A model-checked mutex. Contention is explored; lock/unlock form
    /// happens-before edges like `std::sync::Mutex`.
    pub struct Mutex<T> {
        state: std::cell::UnsafeCell<MutexState>,
        data: std::cell::UnsafeCell<T>,
    }

    // SAFETY: `state` is only touched while holding the scheduler token
    // (one thread at a time), and `data` only between a successful lock
    // and the guard's drop, which the model serializes per mutex.
    unsafe impl<T: Send> Sync for Mutex<T> {}
    // SAFETY: moving the mutex moves its owned contents, as for `T: Send`.
    unsafe impl<T: Send> Send for Mutex<T> {}

    impl<T> Mutex<T> {
        pub fn new(data: T) -> Self {
            Self {
                state: std::cell::UnsafeCell::new(MutexState {
                    locked: false,
                    clock: VClock::default(),
                    id: None,
                }),
                data: std::cell::UnsafeCell::new(data),
            }
        }

        /// Locks the mutex, blocking while another thread holds it. Never
        /// poisoned; the `LockResult` matches `std::sync::Mutex::lock`.
        pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
            loop {
                let op = Op::start();
                // SAFETY: serialized by the scheduler token held via `op`.
                let state = unsafe { &mut *self.state.get() };
                let id = *state.id.get_or_insert_with(|| op.new_sync_id());
                if !state.locked {
                    state.locked = true;
                    op.join_thread_clock(&state.clock);
                    return Ok(MutexGuard { mutex: self });
                }
                op.mutex_block(id);
            }
        }

        /// The unlock half of a guard drop, run by the token holder `op`:
        /// publishes the holder's clock to the next locker and wakes the
        /// threads blocked on the mutex.
        fn unlock(&self, op: &Op) {
            // SAFETY: serialized by the scheduler token held via `op`.
            let state = unsafe { &mut *self.state.get() };
            state.locked = false;
            state.clock = op.thread_clock();
            if let Some(id) = state.id {
                op.mutex_unblock(id);
            }
        }
    }

    pub struct MutexGuard<'a, T> {
        mutex: &'a Mutex<T>,
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // SAFETY: the guard proves the lock is held, so this is the
            // only live access path to `data`.
            unsafe { &*self.mutex.data.get() }
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as for `deref`; `&mut self` makes it unique.
            unsafe { &mut *self.mutex.data.get() }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // Unwinding (e.g. execution abort): skip the model step —
                // a panic inside drop would abort the whole process.
                return;
            }
            let op = Op::start();
            self.mutex.unlock(&op);
        }
    }

    /// A model-checked condition variable. `wait` releases the mutex and
    /// blocks in one step; only `notify_one`/`notify_all` make the waiter
    /// runnable again (there are no spurious wakeups), so a notification
    /// that lands before the wait is lost, and the scheduler reports the
    /// stranded waiter as a deadlock.
    pub struct Condvar {
        id: std::cell::UnsafeCell<Option<usize>>,
    }

    // SAFETY: `id` is only touched while holding the scheduler token.
    unsafe impl Sync for Condvar {}
    // SAFETY: the condvar owns nothing but its id.
    unsafe impl Send for Condvar {}

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Condvar {
        pub fn new() -> Self {
            Self {
                id: std::cell::UnsafeCell::new(None),
            }
        }

        fn id(&self, op: &Op) -> usize {
            // SAFETY: serialized by the scheduler token held via `op`.
            let id = unsafe { &mut *self.id.get() };
            *id.get_or_insert_with(|| op.new_sync_id())
        }

        /// Releases `guard`'s mutex, blocks until notified, then relocks.
        pub fn wait<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
        ) -> std::sync::LockResult<MutexGuard<'a, T>> {
            let mutex = guard.mutex;
            // The unlock happens below, in the same step as the block.
            std::mem::forget(guard);
            let op = Op::start();
            let id = self.id(&op);
            mutex.unlock(&op);
            op.condvar_block(id);
            mutex.lock()
        }

        /// Wakes one thread blocked in `wait`, if any.
        pub fn notify_one(&self) {
            let op = Op::start();
            let id = self.id(&op);
            op.condvar_notify(id, false);
        }

        /// Wakes every thread blocked in `wait`.
        pub fn notify_all(&self) {
            let op = Op::start();
            let id = self.id(&op);
            op.condvar_notify(id, true);
        }
    }
}

pub mod cell {
    use super::rt::{Op, VClock};

    struct Access {
        /// `(thread, clock component)` epoch of the last write.
        write: Option<(usize, u32)>,
        /// Epochs of reads since the last write, one slot per thread.
        reads: Vec<(usize, u32)>,
    }

    /// A model-checked `UnsafeCell`: every access is recorded and checked
    /// for happens-before races against prior accesses (FastTrack-style:
    /// last-write epoch plus a read set).
    pub struct UnsafeCell<T> {
        access: std::cell::UnsafeCell<Access>,
        data: std::cell::UnsafeCell<T>,
    }

    // SAFETY: `access` is only touched while holding the scheduler token;
    // `data` is handed out as a raw pointer and the race detector reports
    // any pair of unsynchronized conflicting accesses, enforcing the
    // discipline the caller's `unsafe` code claims.
    unsafe impl<T: Send> Sync for UnsafeCell<T> {}
    // SAFETY: moving the cell moves its owned contents, as for `T: Send`.
    unsafe impl<T: Send> Send for UnsafeCell<T> {}

    impl<T> UnsafeCell<T> {
        pub fn new(data: T) -> Self {
            Self {
                access: std::cell::UnsafeCell::new(Access {
                    write: None,
                    reads: Vec::new(),
                }),
                data: std::cell::UnsafeCell::new(data),
            }
        }

        pub fn into_inner(self) -> T {
            self.data.into_inner()
        }

        fn check(&self, op: &Op, is_write: bool) {
            // SAFETY: serialized by the scheduler token held via `op`.
            let access = unsafe { &mut *self.access.get() };
            let clock: VClock = op.thread_clock();
            if let Some((t, c)) = access.write {
                if t != op.tid && !clock.covers_epoch(t, c) {
                    op.fail(format!(
                        "data race: thread {} {} an UnsafeCell last written by thread {t} \
                         without a happens-before edge in between",
                        op.tid,
                        if is_write { "writes" } else { "reads" },
                    ));
                }
            }
            if is_write {
                for &(t, c) in access.reads.iter() {
                    if t != op.tid && !clock.covers_epoch(t, c) {
                        op.fail(format!(
                            "data race: thread {} writes an UnsafeCell concurrently read \
                             by thread {t}",
                            op.tid,
                        ));
                    }
                }
                access.write = Some((op.tid, clock.component(op.tid)));
                access.reads.clear();
                op.note_write();
            } else {
                let epoch = (op.tid, clock.component(op.tid));
                match access.reads.iter_mut().find(|(t, _)| *t == op.tid) {
                    Some(slot) => slot.1 = epoch.1,
                    None => access.reads.push(epoch),
                }
            }
        }

        /// Immutable (read) access to the cell contents.
        pub fn with<F, R>(&self, f: F) -> R
        where
            F: FnOnce(*const T) -> R,
        {
            let op = Op::start();
            self.check(&op, false);
            f(self.data.get())
        }

        /// Mutable (write) access to the cell contents.
        pub fn with_mut<F, R>(&self, f: F) -> R
        where
            F: FnOnce(*mut T) -> R,
        {
            let op = Op::start();
            self.check(&op, true);
            f(self.data.get())
        }
    }
}

pub mod thread {
    use super::rt;
    use std::sync::{Arc, Mutex};

    /// Handle to a model-checked spawned thread.
    pub struct JoinHandle<T> {
        tid: usize,
        result: Arc<Mutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
            let op = rt::Op::start();
            op.join_on(self.tid);
            match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(v) => Ok(v),
                None => Err(Box::new("loom thread terminated without a value")),
            }
        }
    }

    /// Spawns a logical thread under the model (backed by a real OS
    /// thread, serialized by the scheduler).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let op = rt::Op::start();
        let exec = Arc::clone(&op.exec);
        let tid = rt::register_thread(&exec, op.tid);
        let result = Arc::new(Mutex::new(None));
        let result2 = Arc::clone(&result);
        let exec2 = Arc::clone(&exec);
        let handle = std::thread::Builder::new()
            .name(format!("loom-{tid}"))
            .spawn(move || {
                rt::set_context(Some((Arc::clone(&exec2), tid)));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    rt::initial_arrival(&exec2, tid);
                    f()
                }));
                match outcome {
                    Ok(v) => *result2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v),
                    Err(p) => {
                        if !rt::is_abort(&p) {
                            rt::report_failure(&exec2, p);
                        }
                    }
                }
                rt::finish_thread(&exec2, tid);
                rt::set_context(None);
            })
            .expect("failed to spawn loom thread");
        rt::store_os_handle(&exec, handle);
        JoinHandle { tid, result }
    }

    /// Models a polite spin: parks until another thread writes.
    pub fn yield_now() {
        let op = rt::Op::start();
        op.spin_park();
    }
}

pub mod hint {
    /// Models one spin-loop iteration: parks the thread until some other
    /// thread performs a write, keeping busy-wait loops finite.
    pub fn spin_loop() {
        let op = super::rt::Op::start();
        op.spin_park();
    }
}
