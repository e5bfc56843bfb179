//! Deterministic fault injection for chaos-testing the recovery paths.
//!
//! Compiled out by default: without the `faultinject` feature every hook
//! in this module is an empty `#[inline]` function the optimizer deletes,
//! so the hot loops pay nothing. With the feature on, tests `arm` a
//! [`FaultPlan`] describing exactly where a failure fires — a worker
//! panic at a (thread, step, phase) triple, a NaN poisoning the fluid
//! state, a torn or bit-flipped checkpoint write, a dropped or delayed
//! halo message — and the solvers trip over it reproducibly.
//!
//! Failpoints are process-global; `arm` holds a static lock for the
//! lifetime of the returned `Armed` guard so concurrent chaos tests
//! serialize instead of interfering.

use std::path::Path;
use std::time::Duration;

/// Fire a panic inside a parallel worker at one exact point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanicAt {
    /// Worker thread index (cube solver tid).
    pub thread: usize,
    /// Absolute simulation step (the solver's global step counter).
    pub step: u64,
    /// Phase name as used by the cube worker loop, e.g. `"velocity-update"`.
    pub phase: &'static str,
}

/// Damage applied to the checkpoint temp file after its fsync, modelling
/// a torn physical write that the atomic-rename protocol must survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointFault {
    /// Chop this many bytes off the end of the file.
    TruncateTail(u64),
    /// XOR `mask` into the byte at `offset_from_end` bytes before EOF.
    FlipBit { offset_from_end: u64, mask: u8 },
}

/// Misbehaviour on the distributed prototype's message fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloFault {
    /// Rank `from` silently drops its outgoing halo messages. Neighbours
    /// configured with a `halo_timeout` surface `SolverError::HaloTimeout`
    /// instead of hanging.
    DropSend { from: usize },
    /// Rank `from` sleeps before each halo send.
    DelaySend { from: usize, delay: Duration },
}

/// Everything a chaos test wants to go wrong, in one armed plan.
///
/// Failpoints model *transient* faults by default: the panic, NaN and
/// dropped-halo triggers are consumed the first time they fire, so a
/// supervisor that rolls back and replays the same steps sails past the
/// fault on the retry (the checkpoint fault was always one-shot). Set
/// [`FaultPlan::sticky`] to keep a trigger armed across retries and model
/// a *persistent* fault — the case the degradation ladder exists for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub panic_at: Option<PanicAt>,
    /// Overwrite `u[0][0]` with NaN at the end of this sequential-solver
    /// step (absolute step counter), so the watchdog path is exercised.
    pub nan_at_step: Option<u64>,
    /// One-shot: consumed by the first checkpoint save after arming.
    pub checkpoint: Option<CheckpointFault>,
    pub halo: Option<HaloFault>,
    /// Keep the panic/NaN/halo-drop triggers armed after they fire
    /// (persistent fault) instead of consuming them (transient fault).
    pub sticky: bool,
}

#[cfg(feature = "faultinject")]
mod imp {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static ARM_LOCK: Mutex<()> = Mutex::new(());

    /// Keeps the armed plan alive; disarms (and releases the global test
    /// serialization lock) on drop.
    pub struct Armed {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            *lock(&PLAN) = None;
        }
    }

    /// Locks ignoring poisoning: chaos tests panic on purpose, and a
    /// poisoned failpoint store must not cascade into later tests.
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn arm(plan: FaultPlan) -> Armed {
        let serial = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *lock(&PLAN) = Some(plan);
        Armed { _serial: serial }
    }

    fn plan() -> Option<FaultPlan> {
        *lock(&PLAN)
    }

    pub fn maybe_panic(thread: usize, step: u64, phase: &'static str) {
        // Match and (unless sticky) consume under one lock so exactly one
        // worker fires; the lock is released before the panic unwinds.
        let fire = {
            let mut guard = lock(&PLAN);
            match guard.as_mut() {
                Some(plan) => match plan.panic_at {
                    Some(p) if p.thread == thread && p.step == step && p.phase == phase => {
                        if !plan.sticky {
                            plan.panic_at = None;
                        }
                        true
                    }
                    _ => false,
                },
                None => false,
            }
        };
        if fire {
            panic!("fault injected: thread {thread} panics at step {step} in {phase}");
        }
    }

    /// True when a NaN should be injected at the end of `step`; consumes
    /// the trigger unless the plan is sticky.
    pub fn take_nan_at(step: u64) -> bool {
        let mut guard = lock(&PLAN);
        match guard.as_mut() {
            Some(plan) if plan.nan_at_step == Some(step) => {
                if !plan.sticky {
                    plan.nan_at_step = None;
                }
                true
            }
            _ => false,
        }
    }

    pub fn corrupt_checkpoint_file(path: &Path) -> std::io::Result<()> {
        let fault = match lock(&PLAN).as_mut().and_then(|p| p.checkpoint.take()) {
            Some(f) => f,
            None => return Ok(()),
        };
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        match fault {
            CheckpointFault::TruncateTail(n) => file.set_len(len.saturating_sub(n))?,
            CheckpointFault::FlipBit {
                offset_from_end,
                mask,
            } => {
                use std::io::{Read, Seek, SeekFrom, Write};
                let pos = len.saturating_sub(offset_from_end.max(1));
                let mut file = file;
                file.seek(SeekFrom::Start(pos))?;
                let mut b = [0u8; 1];
                file.read_exact(&mut b)?;
                b[0] ^= mask;
                file.seek(SeekFrom::Start(pos))?;
                file.write_all(&b)?;
                file.sync_all()?;
            }
        }
        Ok(())
    }

    /// True when rank `from` should drop its outgoing halo messages this
    /// step; consumes the trigger unless the plan is sticky.
    pub fn drop_halo_send(from: usize) -> bool {
        let mut guard = lock(&PLAN);
        match guard.as_mut() {
            Some(plan) => match plan.halo {
                Some(HaloFault::DropSend { from: f }) if f == from => {
                    if !plan.sticky {
                        plan.halo = None;
                    }
                    true
                }
                _ => false,
            },
            None => false,
        }
    }

    pub fn halo_send_delay(from: usize) -> Option<Duration> {
        match plan().and_then(|p| p.halo) {
            Some(HaloFault::DelaySend { from: f, delay }) if f == from => Some(delay),
            _ => None,
        }
    }
}

#[cfg(feature = "faultinject")]
pub use imp::{arm, Armed};

#[cfg(feature = "faultinject")]
pub(crate) use imp::{
    corrupt_checkpoint_file, drop_halo_send, halo_send_delay, maybe_panic, take_nan_at,
};

// ---------------------------------------------------------------------------
// Feature off: every hook is an empty inline function, deleted by the
// optimizer — zero cost on the hot paths.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "faultinject"))]
mod stubs {
    use super::*;

    #[inline(always)]
    pub(crate) fn maybe_panic(_thread: usize, _step: u64, _phase: &'static str) {}

    #[inline(always)]
    pub(crate) fn take_nan_at(_step: u64) -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn corrupt_checkpoint_file(_path: &Path) -> std::io::Result<()> {
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn drop_halo_send(_from: usize) -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn halo_send_delay(_from: usize) -> Option<Duration> {
        None
    }
}

#[cfg(not(feature = "faultinject"))]
pub(crate) use stubs::*;
