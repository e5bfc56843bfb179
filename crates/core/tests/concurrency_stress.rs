//! Std-thread stress tests for the concurrency primitives. These complement the loom tests
//! (`tests/loom.rs`): loom proves small interleavings exhaustively, these
//! hammer the real primitives at scale.

use lbm_ib::barrier::Barrier;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A one-thread barrier must be trivially reusable: its sole participant
/// is the leader of every generation.
#[test]
fn barrier_single_thread_reuse_many_generations() {
    let b = Barrier::new(1);
    for generation in 0..100 {
        assert_eq!(
            b.wait_checked(),
            Ok(true),
            "thread-count-1 barrier not leader in generation {generation}"
        );
    }
}

/// Leader-flag uniqueness per generation (not just in total): across many
/// reused generations, each generation elects exactly one leader. A
/// sense-reversal bug that let two threads claim leadership in one
/// generation while skipping another would keep the total right but fail
/// the per-generation counts.
#[test]
fn barrier_leader_unique_per_generation_stress() {
    const THREADS: usize = 8;
    const GENERATIONS: usize = 48;
    let barrier = Barrier::new(THREADS);
    let leaders: Vec<AtomicUsize> = (0..GENERATIONS).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (barrier, leaders) = (&barrier, &leaders);
            scope.spawn(move || {
                for counter in leaders {
                    if barrier.wait_checked().unwrap() {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    // Second wait: leaders of generation g must not outrun
                    // slow waiters into generation g+1's election.
                    barrier.wait_checked().unwrap();
                }
            });
        }
    });

    for (generation, counter) in leaders.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "generation {generation} elected a wrong number of leaders"
        );
    }
}

/// The park path at scale: one straggler per generation (a different
/// thread each time) sleeps well past the spin budget, so the others
/// park, and every generation must still release all of them and elect
/// exactly one leader.
#[test]
fn barrier_releases_parked_waiters_every_generation() {
    const THREADS: usize = 4;
    const GENERATIONS: usize = 12;
    let barrier = Barrier::new(THREADS);
    let leaders: Vec<AtomicUsize> = (0..GENERATIONS).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (barrier, leaders) = (&barrier, &leaders);
            scope.spawn(move || {
                for (generation, counter) in leaders.iter().enumerate() {
                    if generation % THREADS == t {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    if barrier.wait_checked().unwrap() {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for (generation, counter) in leaders.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "generation {generation}"
        );
    }
}
