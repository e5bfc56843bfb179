//! Falsifiability tests for the model checker itself: each known-buggy
//! pattern must be *caught* (the test expects the reported failure), and
//! each correct pattern must pass exhaustively. These run in the ordinary
//! test suite — no `--cfg loom` needed, since the checker is a library.

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

#[test]
fn atomic_counter_is_race_free() {
    loom::model(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        c.fetch_add(1, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(c.load(Ordering::Relaxed), 2);
    });
}

#[test]
#[should_panic(expected = "data race")]
fn detects_concurrent_plain_writes() {
    loom::model(|| {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let cell2 = Arc::clone(&cell);
        let h = thread::spawn(move || {
            // SAFETY: deliberately racy — the checker must reject it.
            cell2.with_mut(|p| unsafe { *p = 1 });
        });
        // SAFETY: deliberately racy — the checker must reject it.
        cell.with_mut(|p| unsafe { *p = 2 });
        h.join().unwrap();
    });
}

#[test]
#[should_panic(expected = "data race")]
fn detects_relaxed_publication() {
    // The classic broken publish: data write + Relaxed flag store gives
    // the reader no happens-before edge to the data.
    loom::model(|| {
        let data = Arc::new(UnsafeCell::new(0u64));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn(move || {
            // SAFETY: would be sound only with Release/Acquire ordering;
            // the checker must catch the Relaxed version.
            d2.with_mut(|p| unsafe { *p = 42 });
            f2.store(1, Ordering::Relaxed);
        });
        while flag.load(Ordering::Acquire) == 0 {
            loom::hint::spin_loop();
        }
        // SAFETY: racy — no edge from the writer (see above).
        let v = data.with(|p| unsafe { *p });
        assert_eq!(v, 42);
        h.join().unwrap();
    });
}

#[test]
fn release_acquire_publication_is_clean() {
    loom::model(|| {
        let data = Arc::new(UnsafeCell::new(0u64));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn(move || {
            // SAFETY: published to the reader by the Release store below,
            // which the reader Acquire-loads before reading.
            d2.with_mut(|p| unsafe { *p = 42 });
            f2.store(1, Ordering::Release);
        });
        while flag.load(Ordering::Acquire) == 0 {
            loom::hint::spin_loop();
        }
        // SAFETY: the Acquire load of `flag == 1` ordered this read after
        // the writer's Release store.
        let v = data.with(|p| unsafe { *p });
        assert_eq!(v, 42);
        h.join().unwrap();
    });
}

#[test]
fn mutex_protects_plain_data() {
    loom::model(|| {
        let m = Arc::new(Mutex::new(()));
        let cell = Arc::new(UnsafeCell::new(0u64));
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&cell));
        let h = thread::spawn(move || {
            let _g = m2.lock().unwrap();
            // SAFETY: the mutex serialises both read-modify-writes.
            c2.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = m.lock().unwrap();
            // SAFETY: the mutex serialises both read-modify-writes.
            cell.with_mut(|p| unsafe { *p += 1 });
        }
        h.join().unwrap();
        let _g = m.lock().unwrap();
        // SAFETY: lock held; the final value is published by the unlocks.
        let v = cell.with(|p| unsafe { *p });
        assert_eq!(v, 2, "an interleaving lost an increment");
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn detects_self_deadlock() {
    loom::model(|| {
        let m = Mutex::new(());
        let _g1 = m.lock().unwrap();
        let _g2 = m.lock().unwrap(); // non-reentrant: blocks forever
    });
}

/// A flag set under the lock and a notify, against a waiter that checks
/// the flag under the lock before each wait: every schedule completes.
#[test]
fn condvar_handshake_under_the_lock_completes() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            *pair2.0.lock().unwrap() = true;
            pair2.1.notify_all();
        });
        let mut ready = pair.0.lock().unwrap();
        while !*ready {
            ready = pair.1.wait(ready).unwrap();
        }
        drop(ready);
        h.join().unwrap();
    });
}

/// The lost wakeup: the notifier sets the flag and notifies without the
/// lock, so the notify can land between the waiter's check and its wait.
/// The waiter is then blocked for good, which the scheduler reports.
#[test]
#[should_panic(expected = "deadlock")]
fn detects_lost_wakeup() {
    loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let (flag2, pair2) = (Arc::clone(&flag), Arc::clone(&pair));
        let h = thread::spawn(move || {
            flag2.store(1, Ordering::SeqCst);
            pair2.1.notify_all();
        });
        let mut g = pair.0.lock().unwrap();
        while flag.load(Ordering::SeqCst) == 0 {
            g = pair.1.wait(g).unwrap();
        }
        drop(g);
        h.join().unwrap();
    });
}

#[test]
fn join_publishes_child_writes() {
    loom::model(|| {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let h = thread::spawn(move || {
            // SAFETY: published to the parent by the join edge.
            c2.with_mut(|p| unsafe { *p = 7 });
        });
        h.join().unwrap();
        // SAFETY: join happened-before this read.
        let v = cell.with(|p| unsafe { *p });
        assert_eq!(v, 7);
    });
}

#[test]
fn compare_exchange_loop_never_loses_updates() {
    // A CAS-retry increment from two threads.
    loom::model(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&a);
        let bump = |a: &AtomicUsize| {
            let mut cur = a.load(Ordering::Relaxed);
            loop {
                match a.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        };
        let h = thread::spawn(move || bump(&a2));
        bump(&a);
        h.join().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), 2);
    });
}
