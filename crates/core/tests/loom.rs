//! Exhaustive interleaving tests for the solvers' concurrency primitives
//! (the barrier, including its park path, and the worker team),
//! model-checked with the in-tree loom stand-in. Under the model the
//! barrier spins once before it parks, so every wait below explores both
//! paths.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lbm-ib --test loom --release
//! ```
//!
//! Under ordinary builds this file compiles to an empty test crate.
#![cfg(loom)]

use lbm_ib::barrier::{Barrier, BarrierPoisoned};
use lbm_ib::sharedgrid::SharedSlice;
use lbm_ib::team::Team;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// The barrier must publish every pre-barrier write to every post-barrier
/// reader. If `Barrier::wait_checked` lost its Release/Acquire pairing (e.g.
/// relaxed generation counter), loom would report the slot read as a data
/// race — the test is falsifiable, not just a smoke check.
#[test]
fn barrier_publishes_writes_and_elects_one_leader() {
    loom::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let slots = Arc::new(SharedSlice::from_vec(vec![0u64; 2]));
        let leaders = Arc::new(AtomicUsize::new(0));

        let participate =
            |t: usize, barrier: &Barrier, slots: &SharedSlice<u64>, leaders: &AtomicUsize| {
                // SAFETY: slot `t` is written only by participant `t` before
                // the barrier; nobody reads it until after the barrier.
                unsafe { slots.set(t, (t + 1) as u64) };
                if barrier.wait_checked().unwrap() {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
                for i in 0..2 {
                    // SAFETY: writes stopped at the barrier; the barrier's
                    // happens-before edge is exactly what's being verified.
                    let v = unsafe { slots.get(i) };
                    assert_eq!(v, (i + 1) as u64, "stale read of slot {i}");
                }
            };

        let (b2, s2, l2) = (
            Arc::clone(&barrier),
            Arc::clone(&slots),
            Arc::clone(&leaders),
        );
        let h = thread::spawn(move || participate(1, &b2, &s2, &l2));
        participate(0, &barrier, &slots, &leaders);
        h.join().unwrap();
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            1,
            "exactly one leader per generation"
        );
    });
}

/// Sense-reversal reuse: the same barrier instance must work for several
/// consecutive generations, electing exactly one leader each time and
/// publishing each round's writes before the next round reads them.
#[test]
fn barrier_generations_reuse() {
    loom::model(|| {
        const ROUNDS: u64 = 2;
        let barrier = Arc::new(Barrier::new(2));
        let slots = Arc::new(SharedSlice::from_vec(vec![0u64; 2]));
        let leaders = Arc::new(AtomicUsize::new(0));

        let participate =
            |t: usize, barrier: &Barrier, slots: &SharedSlice<u64>, leaders: &AtomicUsize| {
                for round in 1..=ROUNDS {
                    // SAFETY: participant `t` is the only writer of slot `t`,
                    // and the end-of-round barrier separates these writes from
                    // the previous round's reads.
                    unsafe { slots.set(t, round) };
                    if barrier.wait_checked().unwrap() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                    for i in 0..2 {
                        // SAFETY: reads are separated from writes by the
                        // barriers on both sides of the round.
                        let v = unsafe { slots.get(i) };
                        assert_eq!(v, round, "slot {i} stale in round {round}");
                    }
                    barrier.wait_checked().unwrap(); // end-of-round barrier
                }
            };

        let (b2, s2, l2) = (
            Arc::clone(&barrier),
            Arc::clone(&slots),
            Arc::clone(&leaders),
        );
        let h = thread::spawn(move || participate(1, &b2, &s2, &l2));
        participate(0, &barrier, &slots, &leaders);
        h.join().unwrap();
        // Only the mid-round wait counts leaders: one per round.
        assert_eq!(
            leaders.load(Ordering::Relaxed) as u64,
            ROUNDS,
            "one leader per round"
        );
    });
}

/// A single-thread barrier is always its own leader and trivially
/// reusable.
#[test]
fn barrier_single_thread_reuse() {
    loom::model(|| {
        let b = Barrier::new(1);
        for _ in 0..3 {
            assert_eq!(b.wait_checked(), Ok(true));
        }
    });
}

/// The park race: the waiter spins once, then decides to park while the
/// last arriver bumps the generation and reads the sleeper count. In every
/// interleaving either the waiter's re-check under the lock sees the new
/// generation or the releaser's notify reaches it; a lost wakeup would
/// leave the waiter blocked, which the model reports as a deadlock.
#[test]
fn waiter_parking_while_the_last_arriver_releases() {
    loom::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let h = thread::spawn(move || b2.wait_checked());
        let mine = barrier.wait_checked().unwrap();
        let theirs = h.join().unwrap().unwrap();
        assert!(mine != theirs, "exactly one leader");
    });
}

/// Poison while the waiter is parked (or still spinning, or not yet
/// arrived): it returns the error in every interleaving, and nobody is
/// left blocked.
#[test]
fn poison_releases_a_parked_waiter() {
    loom::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let h = thread::spawn(move || b2.wait_checked());
        barrier.poison();
        assert_eq!(h.join().unwrap(), Err(BarrierPoisoned));
        assert_eq!(barrier.wait_checked(), Err(BarrierPoisoned));
    });
}

/// One team dispatched twice, then dropped: each run's closure runs once
/// on each worker, its writes reach the caller when `run` returns, the
/// second run sees the first run's writes, and the drop sends the parked
/// helper home (a helper left waiting would be reported as a deadlock).
#[test]
fn team_dispatched_twice() {
    loom::model(|| {
        let mut team = Team::new(2, "loom-team").unwrap();
        let slots = SharedSlice::from_vec(vec![0u64; 2]);
        for round in 1..=2u64 {
            team.run(|t| {
                // SAFETY: worker `t` is the only accessor of slot `t`
                // during the run; the previous run's write to it, and the
                // caller's reads of it, are ordered by the team's start
                // and end rendezvous.
                unsafe {
                    assert_eq!(slots.get(t), round - 1, "worker {t} missed round {round}");
                    slots.set(t, round);
                }
            });
            for t in 0..2 {
                // SAFETY: the run has returned; no worker touches the slots.
                assert_eq!(unsafe { slots.get(t) }, round);
            }
        }
        drop(team);
    });
}

/// Miniature Algorithm 4: two worker threads, each owning one fiber and
/// one cube, through two time steps of the cube solver's phase structure
/// and its moment-force protocol.
///
/// Loop 1: each thread reads *both* fibers' positions (bending needs the
/// neighbours) and writes its own fiber's stencil slot.
/// Loop 2: a thread whose cube is marked reads the cube's force, the
/// moment force its collision uses, and reseeds it with the body force;
/// an unmarked cube's force is the body force already. Both cubes start
/// marked and holding a loaded state's force, as after `from_state`.
/// Loop 3 (after barrier 1): each thread clears its own cube's mark, reads
/// *both* stencil slots and, for each stencil that reaches its cube, marks
/// the cube and adds the contribution, in fiber order, into its own
/// cube's force only — no location has two writers, so no locks. Kernel 7
/// then runs on a marked cube only: it reads the force without reseeding
/// it and writes the cube's velocity.
/// Loop 4 (after barrier 2): each thread reads the velocities of the
/// cubes the stencils reach — the neighbour reads that make barrier 2
/// load-bearing — and moves its own fiber.
/// Barrier 3 ends the step; it orders the fiber moves before the next
/// step's position reads.
///
/// Step 1's stencils reach both cubes, step 2's only cube 0. So in step 2
/// loop 2 reads step 1's spread force on both cubes; cube 1 then stays
/// unmarked, its kernel 7 is skipped and nobody reads its velocity. After
/// the join the force field holds what the last moments used, which is
/// what the gather stores. Each stencil slot is rewritten after the other
/// thread read it in step 1. Loom verifies that the barriers order all of
/// it; drop any barrier and this test reports a race.
#[test]
fn algorithm4_phase_sequence_two_cubes() {
    const BODY: f64 = 10.0;
    const LOADED: f64 = 7.0;
    let reaches = |step: usize, cube: usize| step == 1 || cube == 0;
    loom::model(move || {
        let stencil = Arc::new(SharedSlice::from_vec(vec![0.0f64; 2]));
        let force = Arc::new(SharedSlice::from_vec(vec![[LOADED; 3]; 2]));
        let marks = Arc::new(SharedSlice::from_vec(vec![true; 2]));
        let vel = Arc::new(SharedSlice::from_vec(vec![0.0f64; 2]));
        let pos = Arc::new(SharedSlice::from_vec(vec![0.0f64; 2]));
        let barrier = Arc::new(Barrier::new(2));

        let worker = move |t: usize,
                           stencil: &SharedSlice<f64>,
                           force: &SharedSlice<[f64; 3]>,
                           marks: &SharedSlice<bool>,
                           vel: &SharedSlice<f64>,
                           pos: &SharedSlice<f64>,
                           barrier: &Barrier| {
            // Where each fiber sits at the start of the step, and the
            // force the previous step's loop 3 left in my cube.
            let mut moved = 0.0;
            let mut moment_force = [LOADED; 3];
            for step in 1..=2 {
                let s = step as f64;
                // Loop 1: read both positions, write my stencil slot.
                for fiber in 0..2 {
                    // SAFETY: positions were last written in the previous
                    // loop 4, before barrier 3; this phase only reads them.
                    let p = unsafe { pos.get(fiber) };
                    assert_eq!(p, moved, "step {step}: fiber {fiber} position");
                }
                // SAFETY: slot t is written only by fiber t's owner (this
                // thread); the other thread's step-1 read of it happened
                // before barrier 2.
                unsafe { stencil.set(t, s * (t + 1) as f64) };
                // Loop 2: on a marked cube, read the moment force and
                // reseed it.
                // SAFETY: only cube t's owner (this thread) touches
                // marks[t] and force[t], in loops 2 and 3.
                unsafe {
                    if marks.get(t) {
                        assert_eq!(force.get(t), moment_force, "step {step}: cube {t}");
                        force.set(t, [BODY; 3]);
                    } else {
                        assert_eq!(force.get(t), [BODY; 3], "step {step}: unmarked cube {t}");
                    }
                }
                barrier.wait_checked().unwrap();
                // Loop 3: mark and spread every reaching fiber's
                // contribution, in fiber order, into my own cube.
                // SAFETY: as above — exclusive owner access.
                unsafe { marks.set(t, false) };
                for fiber in 0..2 {
                    // SAFETY: the stencil writes happened before barrier 1;
                    // this phase only reads them.
                    let c = unsafe { stencil.get(fiber) };
                    if reaches(step, t) {
                        // SAFETY: cube t's mark and force; sole writer.
                        unsafe {
                            marks.set(t, true);
                            force.add(t, [c; 3]);
                        }
                    }
                }
                // Kernel 7 on a marked cube: read the force, keep it, update
                // the velocity.
                // SAFETY: exclusive owner access, as above.
                unsafe {
                    if marks.get(t) {
                        moment_force = force.get(t);
                        assert_eq!(moment_force, [BODY + 3.0 * s; 3], "step {step}: cube {t}");
                        vel.set(t, 0.5 * moment_force[0]);
                    } else {
                        moment_force = [BODY; 3];
                    }
                }
                barrier.wait_checked().unwrap();
                // Loop 4: read the velocities of the cubes the stencils
                // reach (neighbour access), move my fiber.
                for c in (0..2).filter(|&c| reaches(step, c)) {
                    // SAFETY: all vel writes happened before barrier 2;
                    // this phase only reads.
                    let v = unsafe { vel.get(c) };
                    assert_eq!(v, 0.5 * (BODY + 3.0 * s), "cube {c} velocity");
                }
                moved += 0.5 * (BODY + 3.0 * s);
                // SAFETY: pos[t] is my fiber's; nobody reads positions in
                // this phase.
                unsafe { pos.set(t, moved) };
                barrier.wait_checked().unwrap();
            }
        };

        let (s2, f2, m2, v2, p2, b2) = (
            Arc::clone(&stencil),
            Arc::clone(&force),
            Arc::clone(&marks),
            Arc::clone(&vel),
            Arc::clone(&pos),
            Arc::clone(&barrier),
        );
        let h = thread::spawn(move || worker(1, &s2, &f2, &m2, &v2, &p2, &b2));
        worker(0, &stencil, &force, &marks, &vel, &pos, &barrier);
        h.join().unwrap();
        // The gather after the join: step 2's spread on the marked cube,
        // the reseeded body force on the other.
        // SAFETY: the team has joined; this thread is the only accessor.
        unsafe {
            assert_eq!([force.get(0), force.get(1)], [[BODY + 6.0; 3], [BODY; 3]]);
            assert_eq!([marks.get(0), marks.get(1)], [true, false]);
        }
    });
}

/// Fused collide–stream across a shared cube face: two workers each
/// collide their own cube's population in registers and push one result
/// into the *other* cube's `f_new` slot — the cross-face write the fused
/// plan performs with no locks. Safety rests on push-streaming
/// injectivity: each `(destination node, direction)` slot has exactly one
/// writer grid-wide, so the writes are per-location exclusive, and the
/// post-sweep barrier publishes them to the kernel-7 readers. Loom
/// verifies both halves of that argument: distinct slots race-free during
/// the sweep, barrier edge before the read-back.
#[test]
fn fused_push_across_cube_face_is_race_free() {
    loom::model(|| {
        // f_new slots: index c = (cube c, incoming direction from the
        // other cube). Each is written by exactly one worker — the one
        // that owns the *source* cube.
        let f = Arc::new(SharedSlice::from_vec(vec![1.0f64, 2.0]));
        let f_new = Arc::new(SharedSlice::from_vec(vec![0.0f64; 2]));
        let barrier = Arc::new(Barrier::new(2));

        let worker =
            |t: usize, f: &SharedSlice<f64>, f_new: &SharedSlice<f64>, barrier: &Barrier| {
                // Collide in registers: read own cube's pre-collision value
                // (exclusive — nobody writes f during the fused sweep).
                // SAFETY: f is read-only in this phase.
                let reg = unsafe { f.get(t) } * 0.5;
                // Push across the face into the neighbour cube's slot.
                // SAFETY: slot `1 - t` has this worker as its unique writer
                // (push injectivity); no reads until after the barrier.
                unsafe { f_new.set(1 - t, reg) };
                barrier.wait_checked().unwrap();
                // Kernel 7 reads everything after the barrier.
                for c in 0..2 {
                    // SAFETY: writes stopped at the barrier.
                    let v = unsafe { f_new.get(c) };
                    let expect = if c == 0 { 1.0 } else { 0.5 };
                    assert_eq!(v, expect, "slot {c} not published to kernel 7");
                }
            };

        let (f2, n2, b2) = (Arc::clone(&f), Arc::clone(&f_new), Arc::clone(&barrier));
        let h = thread::spawn(move || worker(1, &f2, &n2, &b2));
        worker(0, &f, &f_new, &barrier);
        h.join().unwrap();
    });
}

/// The cube solver's buffer swap: two workers, two cubes, two steps, and
/// no kernel-9 copy. Step `s` reads `cur` and pushes into `nxt`, where
/// `(cur, nxt)` is `(a, b)` in step 1 and `(b, a)` in step 2. Each worker
/// collides its own cube's `cur` slot in registers, pushes the result
/// across the face into the other cube's `nxt` slot, and after barrier 1
/// reads its own `nxt` slot (kernel 7).
///
/// In step 2 each worker pushes into the slot of `a` that the other
/// worker read in step 1. Only barriers 1 and 3 stand between
/// those accesses — the model leaves barrier 2 out — and loom checks that
/// they order every pair.
#[test]
fn buffer_swap_without_copy_is_race_free() {
    loom::model(|| {
        let a = Arc::new(SharedSlice::from_vec(vec![1.0f64, 2.0]));
        let b = Arc::new(SharedSlice::from_vec(vec![0.0f64; 2]));
        let barrier = Arc::new(Barrier::new(2));

        let worker = |t: usize, a: &SharedSlice<f64>, b: &SharedSlice<f64>, barrier: &Barrier| {
            // What kernel 7 sees per step: half the *other* cube's value.
            let expect = [[1.0, 0.5], [0.25, 0.5]];
            for (step, seen) in expect.iter().enumerate() {
                let (cur, nxt) = if step % 2 == 0 { (a, b) } else { (b, a) };
                // Loop 2: collide my cube in registers, push across the
                // face.
                // SAFETY: cur[t] is my cube's slot, read-only this
                // phase; nxt[1 - t] has me as its unique writer this
                // step (push injectivity). The other worker last read
                // nxt[1 - t] (as its `cur`) one step earlier, before
                // that step's barriers 1 and 3.
                let v = unsafe {
                    let v = cur.get(t) * 0.5;
                    nxt.set(1 - t, v);
                    v
                };
                assert!(v > 0.0);
                // Barrier 1.
                barrier.wait_checked().unwrap();
                // Loop 3: kernel 7 reads my own cube's streamed slot.
                // SAFETY: written by the other worker before barrier 1.
                let got = unsafe { nxt.get(t) };
                assert_eq!(got, seen[t], "step {}: cube {t} missed its push", step + 1);
                // Barrier 3.
                barrier.wait_checked().unwrap();
            }
        };

        let (a2, b2, bar2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
        let h = thread::spawn(move || worker(1, &a2, &b2, &bar2));
        worker(0, &a, &b, &barrier);
        h.join().unwrap();
    });
}

/// Falsifiability check for the harness itself: the same slot written by
/// two threads with *no* synchronisation must be reported as a race.
#[test]
#[should_panic(expected = "data race")]
fn unsynchronized_slot_writes_are_reported() {
    loom::model(|| {
        let s = Arc::new(SharedSlice::from_vec(vec![0.0f64; 1]));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || {
            // SAFETY: deliberately violated — loom must reject this.
            unsafe { s2.set(0, 1.0) };
        });
        // SAFETY: deliberately violated — loom must reject this.
        unsafe { s.set(0, 2.0) };
        h.join().unwrap();
    });
}
