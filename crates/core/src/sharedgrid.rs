//! Shared-memory views for the cube-centric solver: the cube-blocked fluid
//! grid and the fiber arrays, wrapped so that a fixed team of worker
//! threads can access them through raw (unchecked-aliasing) cells.
//!
//! # Safety model
//!
//! Rust's borrow checker cannot express Algorithm 4's ownership discipline
//! ("each cube is written only by its owner thread, with phases separated
//! by barriers"), so this module provides `unsafe` indexed access and the
//! *solver* upholds the discipline:
//!
//! * a location is written by at most one thread per phase;
//! * no location is read and written concurrently within a phase;
//! * phases are separated by barriers, which provide the happens-before
//!   edges.
//!
//! Spreading (kernel 4) fits the same rule without locks: each fiber
//! owner writes its nodes' delta stencils, and after the next barrier each
//! cube owner reads every stencil and adds only the contributions that land
//! in its own cubes' force slots.
//!
//! Each accessor documents which rule makes it sound at its call site.
//! With the `racecheck` feature enabled, every accessor additionally
//! records its access into the `racecheck` module's shadow log so the
//! discipline can be audited after a run.

use ib::spread::add_force;
#[cfg(loom)]
use loom::cell::UnsafeCell;
#[cfg(not(loom))]
use std::cell::UnsafeCell;

/// A `Sync` slice of `T` with unchecked interior mutability.
///
/// `T` is constrained to `Copy` values (the solver stores `f64`, `[f64; 3]`,
/// delta stencils and per-cube marks); per-location data-race freedom is
/// the caller's obligation.
pub struct SharedSlice<T> {
    cells: Box<[UnsafeCell<T>]>,
    #[cfg(feature = "racecheck")]
    track: crate::racecheck::TrackId,
}

// SAFETY: access is raw and the solver guarantees per-location exclusion;
// the type itself adds no thread affinity.
unsafe impl<T: Send> Sync for SharedSlice<T> {}
// SAFETY: the slice owns its cells outright; moving it across threads
// moves the `T`s wholesale, exactly as for `Vec<T>: Send`.
unsafe impl<T: Send> Send for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    /// Takes ownership of a vector.
    #[cfg(not(loom))]
    pub fn from_vec(v: Vec<T>) -> Self {
        let boxed: Box<[T]> = v.into_boxed_slice();
        let len = boxed.len();
        let ptr = Box::into_raw(boxed) as *mut UnsafeCell<T>;
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // allocation's size, alignment, and element layout are unchanged;
        // `ptr` came from `Box::into_raw` of that same allocation.
        let cells = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) };
        Self {
            cells,
            #[cfg(feature = "racecheck")]
            track: crate::racecheck::TrackId::register(),
        }
    }

    /// Takes ownership of a vector (loom build: element-wise wrap, since
    /// the model-checked cell is not layout-compatible with `T`).
    #[cfg(loom)]
    pub fn from_vec(v: Vec<T>) -> Self {
        Self {
            cells: v.into_iter().map(UnsafeCell::new).collect(),
            #[cfg(feature = "racecheck")]
            track: crate::racecheck::TrackId::register(),
        }
    }

    /// Releases the storage back into a vector.
    #[cfg(not(loom))]
    pub fn into_vec(self) -> Vec<T> {
        let len = self.cells.len();
        let ptr = Box::into_raw(self.cells) as *mut T;
        // SAFETY: inverse of `from_vec`: same allocation, same layout
        // (`UnsafeCell<T>` is `repr(transparent)` over `T`), and `self` is
        // consumed so no cell access can outlive the transfer.
        unsafe { Vec::from_raw_parts(ptr, len, len) }
    }

    /// Releases the storage back into a vector (loom build).
    #[cfg(loom)]
    pub fn into_vec(self) -> Vec<T> {
        self.cells
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }

    /// Length of the slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// No thread may be concurrently writing element `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.cells.len());
        #[cfg(feature = "racecheck")]
        crate::racecheck::record(self.track, i, crate::racecheck::AccessKind::Read);
        #[cfg(not(loom))]
        // SAFETY: `i` is in bounds (callers index within `len`, checked in
        // debug builds); the caller guarantees no concurrent writer, so the
        // plain read does not race.
        return unsafe { *self.cells.get_unchecked(i).get() };
        #[cfg(loom)]
        // SAFETY: loom validates the no-concurrent-writer claim; the raw
        // pointer is valid for the closure's duration.
        return self.cells[i].with(|p| unsafe { *p });
    }

    /// Writes element `i`.
    ///
    /// # Safety
    /// No other thread may be concurrently reading or writing element `i`.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.cells.len());
        #[cfg(feature = "racecheck")]
        crate::racecheck::record(self.track, i, crate::racecheck::AccessKind::Write);
        #[cfg(not(loom))]
        // SAFETY: `i` is in bounds; the caller guarantees exclusive access
        // to this element for the duration of the write.
        unsafe {
            *self.cells.get_unchecked(i).get() = v;
        }
        #[cfg(loom)]
        // SAFETY: loom validates the exclusivity claim; the raw pointer is
        // valid for the closure's duration.
        self.cells[i].with_mut(|p| unsafe { *p = v })
    }

    /// Exclusive safe view (requires `&mut`, i.e. no other users).
    #[cfg(not(loom))]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.cells.len();
        let ptr = self.cells.as_mut_ptr() as *mut T;
        // SAFETY: `&mut self` guarantees exclusivity, and `UnsafeCell<T>`
        // has the same layout as `T` (`repr(transparent)`).
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }

    /// Borrows the storage as a plain slice for a read-only phase.
    ///
    /// # Safety
    /// No thread may write any element for the lifetime of the returned
    /// slice (e.g. fiber positions during loop 1 of Algorithm 4).
    #[cfg(not(loom))]
    #[inline]
    pub unsafe fn as_slice_unchecked(&self) -> &[T] {
        // The borrow makes every element readable for the phase; record it
        // as a whole-array read.
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_range(
            self.track,
            0..self.cells.len(),
            crate::racecheck::AccessKind::Read,
        );
        // SAFETY: the caller guarantees the slice is read-only for the
        // returned lifetime, and `UnsafeCell<T>` has the same layout as `T`.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr() as *const T, self.cells.len()) }
    }

    /// Loom builds cannot hand out an untracked borrow of tracked cells;
    /// the solvers that use this path never run under the model.
    ///
    /// # Safety
    /// Never returns (the loom tests use [`SharedSlice::get`] instead).
    #[cfg(loom)]
    pub unsafe fn as_slice_unchecked(&self) -> &[T] {
        unimplemented!("as_slice_unchecked has no loom model; use get()")
    }

    /// Loom counterpart of the exclusive view; see `as_slice_unchecked`.
    #[cfg(loom)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        unimplemented!("as_mut_slice has no loom model; use get()/set()")
    }

    /// Names this array in racecheck audit reports.
    #[cfg(feature = "racecheck")]
    pub fn name_for_racecheck(&self, name: &str) {
        self.track.set_name(name);
    }
}

impl SharedSlice<[f64; 3]> {
    /// Adds `v` to element `i` component by component (non-atomic
    /// read-modify-write).
    ///
    /// # Safety
    /// The caller must be the only thread able to touch element `i` in
    /// this phase.
    #[inline]
    pub unsafe fn add(&self, i: usize, v: [f64; 3]) {
        debug_assert!(i < self.cells.len());
        #[cfg(feature = "racecheck")]
        crate::racecheck::record(self.track, i, crate::racecheck::AccessKind::Write);
        #[cfg(not(loom))]
        // SAFETY: `i` is in bounds; the caller is the sole accessor this
        // phase, so the read-modify-write is exclusive.
        add_force(unsafe { &mut *self.cells.get_unchecked(i).get() }, v);
        #[cfg(loom)]
        // SAFETY: loom validates the exclusivity claim; the raw pointer is
        // valid for the closure's duration.
        self.cells[i].with_mut(|p| add_force(unsafe { &mut *p }, v))
    }
}

/// The cube-blocked fluid state as shared slices, plus the cube geometry.
/// Built from (and torn back down into) a [`lbm::cube_grid::CubeFluidGrid`].
pub struct SharedCubeGrid {
    pub cdims: lbm::cube_grid::CubeDims,
    pub f: SharedSlice<f64>,
    pub f_new: SharedSlice<f64>,
    pub rho: SharedSlice<f64>,
    pub u: SharedSlice<[f64; 3]>,
    pub ueq: SharedSlice<[f64; 3]>,
    pub force: SharedSlice<[f64; 3]>,
}

impl SharedCubeGrid {
    /// Wraps a cube grid for shared access.
    pub fn new(grid: lbm::cube_grid::CubeFluidGrid) -> Self {
        let s = Self {
            cdims: grid.cdims,
            f: SharedSlice::from_vec(grid.f),
            f_new: SharedSlice::from_vec(grid.f_new),
            rho: SharedSlice::from_vec(grid.rho),
            u: SharedSlice::from_vec(grid.u),
            ueq: SharedSlice::from_vec(grid.ueq),
            force: SharedSlice::from_vec(grid.force),
        };
        #[cfg(feature = "racecheck")]
        {
            s.f.name_for_racecheck("f");
            s.f_new.name_for_racecheck("f_new");
            s.rho.name_for_racecheck("rho");
            s.u.name_for_racecheck("u");
            s.ueq.name_for_racecheck("ueq");
            s.force.name_for_racecheck("force");
        }
        s
    }

    /// Unwraps back into the owned cube grid.
    pub fn into_inner(self) -> lbm::cube_grid::CubeFluidGrid {
        lbm::cube_grid::CubeFluidGrid {
            cdims: self.cdims,
            f: self.f.into_vec(),
            f_new: self.f_new.into_vec(),
            rho: self.rho.into_vec(),
            u: self.u.into_vec(),
            ueq: self.ueq.into_vec(),
            force: self.force.into_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::cube_grid::{CubeDims, CubeFluidGrid};
    use lbm::grid::Dims;

    #[test]
    fn from_into_vec_round_trip() {
        let s = SharedSlice::from_vec(vec![[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        // SAFETY: single-threaded test, no concurrent access.
        unsafe {
            assert_eq!(s.get(1), [2.0, 0.0, 0.0]);
            s.set(1, [5.0, 0.0, 0.0]);
            s.add(2, [0.5, -1.0, 0.0]);
        }
        assert_eq!(
            s.into_vec(),
            vec![[1.0, 0.0, 0.0], [5.0, 0.0, 0.0], [3.5, -1.0, 0.0]]
        );
    }

    #[test]
    fn as_mut_slice_gives_safe_access() {
        let mut s = SharedSlice::from_vec(vec![0u64; 4]);
        s.as_mut_slice()[2] = 9;
        assert_eq!(s.into_vec(), vec![0, 0, 9, 0]);
    }

    #[test]
    fn vec3_storage_works() {
        let s = SharedSlice::from_vec(vec![[1.0f64, 2.0, 3.0]; 2]);
        // SAFETY: single-threaded test, no concurrent access.
        unsafe {
            let mut v = s.get(0);
            v[1] += 1.0;
            s.set(0, v);
            assert_eq!(s.get(0), [1.0, 3.0, 3.0]);
        }
    }

    #[test]
    fn shared_grid_round_trip_preserves_data() {
        let cdims = CubeDims::new(Dims::new(4, 4, 4), 2);
        let mut g = CubeFluidGrid::new(cdims);
        for (i, v) in g.f.iter_mut().enumerate() {
            *v = i as f64;
        }
        g.rho[7] = 3.25;
        let shared = SharedCubeGrid::new(g);
        // SAFETY: single-threaded test, no concurrent access.
        unsafe {
            assert_eq!(shared.rho.get(7), 3.25);
            assert_eq!(shared.f.get(10), 10.0);
            shared.u.set(0, [-1.0, 0.0, 0.0]);
            shared.force.add(2, [0.5, -0.25, 2.0]);
            shared.force.add(2, [0.5, 0.0, 0.0]);
        }
        let back = shared.into_inner();
        assert_eq!(back.rho[7], 3.25);
        assert_eq!(back.u[0], [-1.0, 0.0, 0.0]);
        assert_eq!(back.force[2], [1.0, -0.25, 2.0]);
        assert_eq!(back.f[10], 10.0);
    }

    #[test]
    fn concurrent_disjoint_writes_are_visible_after_join() {
        let s = SharedSlice::from_vec(vec![0.0f64; 8]);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    // Each thread owns two disjoint slots.
                    for i in [t, t + 4] {
                        // SAFETY: slot sets {t, t+4} are disjoint across
                        // threads, so each element has a single writer.
                        unsafe { s.set(i, (i + 1) as f64) };
                    }
                });
            }
        });
        let v = s.into_vec();
        assert_eq!(v, (1..=8).map(|i| i as f64).collect::<Vec<_>>());
    }
}
