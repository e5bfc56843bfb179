//! Phase-ownership race auditor for the cube-centric solver.
//!
//! Algorithm 4's safety argument is a *discipline*, not a type: each
//! location is written by at most one thread per phase (or all its writers
//! hold the owning thread's lock), no location is read and written by
//! different threads within a phase, and phases are separated by barriers.
//! The `unsafe` accessors of [`crate::sharedgrid::SharedSlice`] assert this
//! discipline in comments; this module *checks* it.
//!
//! With the `racecheck` feature enabled, every `SharedSlice` access records
//! `(array, index, thread, phase, read|write, lock-held)` into a lock-free
//! append-only log. After a run, [`audit`] replays the log and reports
//! every pair of accesses that violates the discipline. With the feature
//! off, this module does not exist and the accessors compile to the same
//! code as before — zero overhead.
//!
//! The tracker is *phase-local*: it deliberately ignores cross-phase
//! conflicts, because the barrier between phases provides the
//! happens-before edge that makes them safe. It is therefore a checker for
//! the ownership discipline, not a general happens-before race detector
//! (that is what the loom model and ThreadSanitizer are for).
//!
//! Usage (see `crates/core/tests/racecheck.rs`):
//!
//! ```text
//! racecheck::begin();
//! /* run the solver */
//! racecheck::audit().assert_clean();
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Identifies one tracked array (a `SharedSlice` allocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(u32);

/// Read or write, from the accessor's point of view (`add` is a write).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

// Record layout (one u64):
//   [0..28)  index        (up to 268M elements per array)
//   [28..44) phase        (up to 65k phases; 3 per time step)
//   [44..56) array        (up to 4096 tracked arrays per process)
//   [56..62) thread       (up to 62 tracked worker threads)
//   [62]     kind         (0 = read, 1 = write)
//   [63]     lock-held
const INDEX_BITS: u32 = 28;
const PHASE_BITS: u32 = 16;
const ARRAY_BITS: u32 = 12;
const THREAD_BITS: u32 = 6;
const KIND_SHIFT: u32 = 62;
const LOCK_SHIFT: u32 = 63;

/// Sentinel for threads that never called [`set_thread`]; their accesses
/// (setup, teardown, the coordinating main thread) are not recorded.
const UNTRACKED: u64 = (1 << THREAD_BITS) - 1;

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(UNTRACKED) };
    static PHASE: Cell<u64> = const { Cell::new(0) };
    static LOCK_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Registers the calling thread as tracked worker `tid`.
pub fn set_thread(tid: usize) {
    assert!(
        (tid as u64) < UNTRACKED,
        "racecheck supports at most 62 tracked threads"
    );
    THREAD.with(|t| t.set(tid as u64));
}

/// Marks the calling thread untracked again: a team worker that is the
/// caller's own thread calls this when its share of a run is done, so the
/// caller's later accesses count as setup and teardown.
pub fn clear_thread() {
    THREAD.with(|t| t.set(UNTRACKED));
}

/// Sets the calling thread's current phase. Workers advance this after
/// every barrier, so all threads agree on the phase number of each region.
pub fn set_phase(phase: u64) {
    PHASE.with(|p| p.set(phase & ((1 << PHASE_BITS) - 1)));
}

/// Marks the calling thread as holding an owner lock until the returned
/// scope is dropped; accesses made inside are exempt from the
/// single-writer rule (they are serialised by the lock instead).
pub fn lock_scope() -> LockScope {
    LOCK_DEPTH.with(|d| d.set(d.get() + 1));
    LockScope
}

/// RAII token from [`lock_scope`].
pub struct LockScope;

impl Drop for LockScope {
    fn drop(&mut self) {
        LOCK_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

struct Registry {
    names: Vec<String>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

/// The name registry, locked. A holder that panicked (a failing test)
/// cannot have torn it — every update is one push or one assignment — so
/// the lock's poisoning is ignored rather than cascaded into every later
/// test of the process.
fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| Mutex::new(Registry { names: Vec::new() }))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl TrackId {
    /// Allocates a fresh id. Arrays beyond the id space are registered but
    /// not recorded (see `record`).
    pub fn register() -> TrackId {
        let mut reg = registry();
        let id = reg.names.len() as u32;
        reg.names.push(format!("array{id}"));
        TrackId(id)
    }

    /// Attaches a human-readable name for audit reports.
    pub fn set_name(self, name: &str) {
        let mut reg = registry();
        if let Some(slot) = reg.names.get_mut(self.0 as usize) {
            *slot = name.to_string();
        }
    }
}

fn array_name(id: u32) -> String {
    let reg = registry();
    reg.names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("array{id}"))
}

struct Log {
    slots: Box<[AtomicU64]>,
    cursor: AtomicUsize,
    dropped: AtomicUsize,
}

static LOG: OnceLock<Log> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

fn log() -> &'static Log {
    LOG.get_or_init(|| {
        let capacity = std::env::var("RACECHECK_LOG_CAPACITY")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1 << 22);
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, || AtomicU64::new(0));
        Log {
            slots: v.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    })
}

/// Clears the log and starts recording. Not reentrant: callers (tests)
/// must serialise begin/audit pairs.
pub fn begin() {
    let l = log();
    l.cursor.store(0, Ordering::Relaxed);
    l.dropped.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Appends one access record; called by the `SharedSlice` accessors.
#[inline]
pub fn record(track: TrackId, index: usize, kind: AccessKind) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let thread = THREAD.with(|t| t.get());
    if thread == UNTRACKED {
        return;
    }
    if (track.0 as u64) >= (1 << ARRAY_BITS) || (index as u64) >= (1 << INDEX_BITS) {
        log().dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let phase = PHASE.with(|p| p.get());
    let locked = LOCK_DEPTH.with(|d| d.get()) > 0;
    let packed = (index as u64)
        | (phase << INDEX_BITS)
        | ((track.0 as u64) << (INDEX_BITS + PHASE_BITS))
        | (thread << (INDEX_BITS + PHASE_BITS + ARRAY_BITS))
        | (((kind == AccessKind::Write) as u64) << KIND_SHIFT)
        | ((locked as u64) << LOCK_SHIFT);
    let l = log();
    let i = l.cursor.fetch_add(1, Ordering::Relaxed);
    if i < l.slots.len() {
        l.slots[i].store(packed, Ordering::Release);
    } else {
        l.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records an access to every element of a range (bulk borrows such as
/// `as_slice_unchecked`, which make the whole array readable for a phase).
pub fn record_range(track: TrackId, range: std::ops::Range<usize>, kind: AccessKind) {
    for i in range {
        record(track, i, kind);
    }
}

/// One discipline violation found by [`audit`].
pub struct Violation {
    pub phase: u64,
    pub array: String,
    pub index: usize,
    /// Human-readable description of the conflicting accesses.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {}: {}[{}]: {}",
            self.phase, self.array, self.index, self.detail
        )
    }
}

/// Result of an [`audit`] pass.
pub struct Report {
    pub violations: Vec<Violation>,
    /// Records examined.
    pub records: usize,
    /// Records lost to log overflow (a full log makes the audit
    /// incomplete, not wrong — surviving records are still checked).
    pub dropped: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a formatted listing if any violation was found.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let mut msg = format!(
                "racecheck: {} phase-ownership violation(s) in {} records:\n",
                self.violations.len(),
                self.records
            );
            for v in self.violations.iter().take(20) {
                msg.push_str(&format!("  {v}\n"));
            }
            if self.violations.len() > 20 {
                msg.push_str(&format!("  ... and {} more\n", self.violations.len() - 20));
            }
            panic!("{msg}");
        }
    }
}

// Per-(location, thread) access summary bits.
const WROTE_UNLOCKED: u8 = 1;
const WROTE_LOCKED: u8 = 2;
const READ_UNLOCKED: u8 = 4;
const READ_LOCKED: u8 = 8;

/// True if thread `a`'s accesses conflict with thread `b`'s at the same
/// location in the same phase. A write races with any other access unless
/// *both* sides held the owner lock.
fn conflicts(a: u8, b: u8) -> bool {
    let unlocked = |f: u8| f & (WROTE_UNLOCKED | READ_UNLOCKED) != 0;
    if a & WROTE_UNLOCKED != 0 && b != 0 {
        return true;
    }
    if b & WROTE_UNLOCKED != 0 && a != 0 {
        return true;
    }
    if a & WROTE_LOCKED != 0 && unlocked(b) {
        return true;
    }
    if b & WROTE_LOCKED != 0 && unlocked(a) {
        return true;
    }
    false
}

fn describe(flags: u8) -> &'static str {
    match (
        flags & (WROTE_UNLOCKED | WROTE_LOCKED) != 0,
        flags & WROTE_UNLOCKED != 0,
    ) {
        (true, true) => "writes without the owner lock",
        (true, false) => "writes under the owner lock",
        (false, _) => "reads",
    }
}

/// Stops recording, replays the log, and checks every (phase, array,
/// index) group against the ownership discipline.
pub fn audit() -> Report {
    ENABLED.store(false, Ordering::SeqCst);
    let l = log();
    let n = l.cursor.load(Ordering::Relaxed).min(l.slots.len());
    let dropped = l.dropped.load(Ordering::Relaxed);

    // (phase, array, index) -> thread -> summary flags.
    let mut groups: HashMap<u64, HashMap<u8, u8>> = HashMap::new();
    for slot in &l.slots[..n] {
        let rec = slot.load(Ordering::Acquire);
        let thread = ((rec >> (INDEX_BITS + PHASE_BITS + ARRAY_BITS)) & (UNTRACKED)) as u8;
        let key = rec & ((1 << (INDEX_BITS + PHASE_BITS + ARRAY_BITS)) - 1);
        let write = rec >> KIND_SHIFT & 1 == 1;
        let locked = rec >> LOCK_SHIFT & 1 == 1;
        let flag = match (write, locked) {
            (true, false) => WROTE_UNLOCKED,
            (true, true) => WROTE_LOCKED,
            (false, false) => READ_UNLOCKED,
            (false, true) => READ_LOCKED,
        };
        *groups.entry(key).or_default().entry(thread).or_insert(0) |= flag;
    }

    let mut violations = Vec::new();
    for (key, threads) in &groups {
        if threads.len() < 2 {
            continue;
        }
        let summary: Vec<(u8, u8)> = {
            let mut v: Vec<_> = threads.iter().map(|(&t, &f)| (t, f)).collect();
            v.sort_unstable();
            v
        };
        let mut racy = false;
        'pairs: for (i, &(_, fa)) in summary.iter().enumerate() {
            for &(_, fb) in &summary[i + 1..] {
                if conflicts(fa, fb) {
                    racy = true;
                    break 'pairs;
                }
            }
        }
        if racy {
            let index = (key & ((1 << INDEX_BITS) - 1)) as usize;
            let phase = (key >> INDEX_BITS) & ((1 << PHASE_BITS) - 1);
            let array_id = ((key >> (INDEX_BITS + PHASE_BITS)) & ((1 << ARRAY_BITS) - 1)) as u32;
            let detail = summary
                .iter()
                .map(|&(t, f)| format!("thread {t} {}", describe(f)))
                .collect::<Vec<_>>()
                .join("; ");
            violations.push(Violation {
                phase,
                array: array_name(array_id),
                index,
                detail,
            });
        }
    }
    violations.sort_by(|a, b| (a.phase, &a.array, a.index).cmp(&(b.phase, &b.array, b.index)));
    Report {
        violations,
        records: n,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_table_is_symmetric_and_correct() {
        // Two unlocked writers: race.
        assert!(conflicts(WROTE_UNLOCKED, WROTE_UNLOCKED));
        // Unlocked writer vs reader: race.
        assert!(conflicts(WROTE_UNLOCKED, READ_UNLOCKED));
        assert!(conflicts(READ_UNLOCKED, WROTE_UNLOCKED));
        // Unlocked writer vs locked anything: still a race (the lock only
        // helps if everyone takes it).
        assert!(conflicts(WROTE_UNLOCKED, WROTE_LOCKED));
        assert!(conflicts(WROTE_UNLOCKED, READ_LOCKED));
        // Two locked writers: serialised, clean.
        assert!(!conflicts(WROTE_LOCKED, WROTE_LOCKED));
        assert!(!conflicts(WROTE_LOCKED, READ_LOCKED));
        // Locked writer vs unlocked reader: race.
        assert!(conflicts(WROTE_LOCKED, READ_UNLOCKED));
        // Readers never race with readers.
        assert!(!conflicts(READ_UNLOCKED, READ_UNLOCKED));
        assert!(!conflicts(READ_UNLOCKED, READ_LOCKED));
    }
}
