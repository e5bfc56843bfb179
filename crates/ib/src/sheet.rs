//! The flexible structure of the paper: a 2D sheet made of an array of
//! fibers, each fiber a list of fiber nodes (Figure 4). Node storage is
//! fiber-major and contiguous, so the per-fiber loops of Algorithms 3 and 4
//! walk sequential memory.

/// A fiber sheet: `num_fibers` fibers of `nodes_per_fiber` Lagrangian nodes.
///
/// Node `(fiber, node)` lives at flat index `fiber * nodes_per_fiber + node`.
/// Positions are in lattice units (fluid grid spacing h = 1). The three
/// force arrays mirror the paper's kernels 1–3, which compute bending and
/// stretching separately before summing them into the elastic force.
///
/// The default sheet has no nodes. `clone_from` reuses the target's
/// buffers.
#[derive(Debug, Default)]
pub struct FiberSheet {
    pub num_fibers: usize,
    pub nodes_per_fiber: usize,
    /// Rest spacing between consecutive nodes along a fiber.
    pub ds_node: f64,
    /// Rest spacing between adjacent fibers (across the sheet).
    pub ds_fiber: f64,
    /// Bending stiffness coefficient k_b.
    pub k_bend: f64,
    /// Stretching stiffness coefficient k_s.
    pub k_stretch: f64,
    /// Node positions.
    pub pos: Vec<[f64; 3]>,
    /// Kernel 1 output: bending force per node.
    pub bending: Vec<[f64; 3]>,
    /// Kernel 2 output: stretching force per node.
    pub stretching: Vec<[f64; 3]>,
    /// Kernel 3 output: total elastic force per node (what gets spread).
    pub elastic: Vec<[f64; 3]>,
}

impl Clone for FiberSheet {
    fn clone(&self) -> Self {
        let mut out = Self::default();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.num_fibers = src.num_fibers;
        self.nodes_per_fiber = src.nodes_per_fiber;
        self.ds_node = src.ds_node;
        self.ds_fiber = src.ds_fiber;
        self.k_bend = src.k_bend;
        self.k_stretch = src.k_stretch;
        self.pos.clone_from(&src.pos);
        self.bending.clone_from(&src.bending);
        self.stretching.clone_from(&src.stretching);
        self.elastic.clone_from(&src.elastic);
    }
}

impl FiberSheet {
    /// Total node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.num_fibers * self.nodes_per_fiber
    }

    /// Flat index of node `node` on fiber `fiber`.
    #[inline]
    pub fn idx(&self, fiber: usize, node: usize) -> usize {
        debug_assert!(fiber < self.num_fibers && node < self.nodes_per_fiber);
        fiber * self.nodes_per_fiber + node
    }

    /// Lagrangian area element `Δs₁ Δs₂` used when spreading force.
    #[inline]
    pub fn area_element(&self) -> f64 {
        self.ds_node * self.ds_fiber
    }

    /// Builds a flat rectangular sheet. `origin` is the position of node
    /// (0, 0); `fiber_dir` advances along each fiber (scaled by `ds_node`
    /// per node) and `sheet_dir` advances from fiber to fiber (scaled by
    /// `ds_fiber`). Both direction vectors should be unit length.
    #[allow(clippy::too_many_arguments)]
    pub fn flat(
        num_fibers: usize,
        nodes_per_fiber: usize,
        origin: [f64; 3],
        fiber_dir: [f64; 3],
        sheet_dir: [f64; 3],
        ds_node: f64,
        ds_fiber: f64,
        k_bend: f64,
        k_stretch: f64,
    ) -> Self {
        assert!(
            num_fibers >= 1 && nodes_per_fiber >= 1,
            "sheet must have nodes"
        );
        assert!(
            ds_node > 0.0 && ds_fiber > 0.0,
            "rest spacings must be positive"
        );
        let n = num_fibers * nodes_per_fiber;
        let mut pos = Vec::with_capacity(n);
        for f in 0..num_fibers {
            for m in 0..nodes_per_fiber {
                let a = m as f64 * ds_node;
                let b = f as f64 * ds_fiber;
                pos.push([
                    origin[0] + a * fiber_dir[0] + b * sheet_dir[0],
                    origin[1] + a * fiber_dir[1] + b * sheet_dir[1],
                    origin[2] + a * fiber_dir[2] + b * sheet_dir[2],
                ]);
            }
        }
        Self {
            num_fibers,
            nodes_per_fiber,
            ds_node,
            ds_fiber,
            k_bend,
            k_stretch,
            pos,
            bending: vec![[0.0; 3]; n],
            stretching: vec![[0.0; 3]; n],
            elastic: vec![[0.0; 3]; n],
        }
    }

    /// The paper's benchmark structure: a square sheet of `n × n` fiber
    /// nodes (e.g. 52×52 for Table I, 104×104 for Figure 8) spanning a
    /// square of physical side `extent`, placed perpendicular to the x axis
    /// (fibers run along y, the sheet stacks along z), centred at `center`.
    pub fn paper_sheet(
        n: usize,
        extent: f64,
        center: [f64; 3],
        k_bend: f64,
        k_stretch: f64,
    ) -> Self {
        assert!(n >= 2, "paper sheet needs at least 2x2 nodes");
        let ds = extent / (n - 1) as f64;
        let origin = [
            center[0],
            center[1] - extent / 2.0,
            center[2] - extent / 2.0,
        ];
        Self::flat(
            n,
            n,
            origin,
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            ds,
            ds,
            k_bend,
            k_stretch,
        )
    }

    /// Geometric centroid of all fiber nodes.
    pub fn centroid(&self) -> [f64; 3] {
        let mut c = [0.0; 3];
        for p in &self.pos {
            for a in 0..3 {
                c[a] += p[a];
            }
        }
        let n = self.n() as f64;
        [c[0] / n, c[1] / n, c[2] / n]
    }

    /// Axis-aligned bounding box `(min, max)` of the sheet.
    pub fn bounding_box(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &self.pos {
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        (lo, hi)
    }

    /// Sum of the elastic forces over all nodes — zero for a free sheet
    /// (internal forces are action–reaction pairs), used as a diagnostic.
    pub fn total_elastic_force(&self) -> [f64; 3] {
        let mut t = [0.0; 3];
        for f in &self.elastic {
            for a in 0..3 {
                t[a] += f[a];
            }
        }
        t
    }

    /// True if any node position or force is non-finite.
    pub fn has_nan(&self) -> bool {
        self.pos
            .iter()
            .chain(&self.elastic)
            .any(|v| v.iter().any(|c| !c.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_sheet_geometry() {
        let s = FiberSheet::flat(
            8,
            5,
            [1.0, 2.0, 3.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            0.5,
            0.25,
            1e-3,
            1e-1,
        );
        assert_eq!(s.n(), 40);
        // Figure 4: 8 fibers, each with 5 fiber nodes.
        assert_eq!(s.num_fibers, 8);
        assert_eq!(s.nodes_per_fiber, 5);
        // Node (0,0) at origin; last node of first fiber 4*ds_node along y.
        assert_eq!(s.pos[s.idx(0, 0)], [1.0, 2.0, 3.0]);
        assert_eq!(s.pos[s.idx(0, 4)], [1.0, 4.0, 3.0]);
        // Last fiber offset 7*ds_fiber along z.
        assert_eq!(s.pos[s.idx(7, 0)], [1.0, 2.0, 4.75]);
    }

    #[test]
    fn paper_sheet_is_centred_and_square() {
        let s = FiberSheet::paper_sheet(52, 20.0, [30.0, 32.0, 32.0], 1e-3, 1e-1);
        assert_eq!(s.n(), 52 * 52);
        let c = s.centroid();
        for (a, want) in c.iter().zip([30.0, 32.0, 32.0]) {
            assert!((a - want).abs() < 1e-9, "centroid {c:?}");
        }
        let (lo, hi) = s.bounding_box();
        assert!((hi[1] - lo[1] - 20.0).abs() < 1e-9);
        assert!((hi[2] - lo[2] - 20.0).abs() < 1e-9);
        assert!((hi[0] - lo[0]).abs() < 1e-12, "sheet is initially planar");
    }

    #[test]
    fn idx_is_fiber_major() {
        let s = FiberSheet::paper_sheet(4, 3.0, [0.0; 3], 1.0, 1.0);
        assert_eq!(s.idx(0, 0), 0);
        assert_eq!(s.idx(0, 3), 3);
        assert_eq!(s.idx(1, 0), 4);
        assert_eq!(s.idx(3, 3), 15);
    }

    #[test]
    fn bounding_box_tracks_motion() {
        let mut s = FiberSheet::paper_sheet(4, 3.0, [5.0, 5.0, 5.0], 1.0, 1.0);
        s.pos[0][0] = -2.0;
        let (lo, _) = s.bounding_box();
        assert_eq!(lo[0], -2.0);
    }

    #[test]
    fn has_nan_detects_poison() {
        let mut s = FiberSheet::paper_sheet(3, 2.0, [0.0; 3], 1.0, 1.0);
        assert!(!s.has_nan());
        s.pos[4][1] = f64::NAN;
        assert!(s.has_nan());
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn degenerate_paper_sheet_rejected() {
        FiberSheet::paper_sheet(1, 2.0, [0.0; 3], 1.0, 1.0);
    }
}
