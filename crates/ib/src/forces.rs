//! Elastic force kernels 1–3 of the paper: bending, stretching, and their
//! sum. Forces are the negative gradients of discrete elastic energies, so
//! the invariants *zero force at rest* and *zero net internal force* hold
//! exactly, and every node's force depends only on the positions of its
//! neighbours — 2 on each side along the fiber and across the sheet for
//! bending (the paper's "8 neighbor fiber nodes"), 1 on each side for
//! stretching (the paper's four neighbours).
//!
//! All per-node functions are pure gathers (read neighbour positions, write
//! the node's own force), which is what lets the parallel solvers run them
//! without any synchronisation.

use std::ops::Range;

use crate::sheet::FiberSheet;

/// The geometric/material parameters of a sheet, copyable into hot loops
/// and worker threads without borrowing the whole sheet.
#[derive(Clone, Copy, Debug)]
pub struct SheetTopology {
    pub num_fibers: usize,
    pub nodes_per_fiber: usize,
    pub ds_node: f64,
    pub ds_fiber: f64,
    pub k_bend: f64,
    pub k_stretch: f64,
}

impl FiberSheet {
    /// Extracts the topology descriptor used by the force kernels.
    pub fn topology(&self) -> SheetTopology {
        SheetTopology {
            num_fibers: self.num_fibers,
            nodes_per_fiber: self.nodes_per_fiber,
            ds_node: self.ds_node,
            ds_fiber: self.ds_fiber,
            k_bend: self.k_bend,
            k_stretch: self.k_stretch,
        }
    }
}

#[inline]
fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

#[inline]
fn axpy(acc: &mut [f64; 3], s: f64, v: [f64; 3]) {
    acc[0] += s * v[0];
    acc[1] += s * v[1];
    acc[2] += s * v[2];
}

#[inline]
fn norm(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// Discrete curvature vector at interior index `m` of a 1D chain accessed
/// through `at`: `C_m = X_{m+1} − 2 X_m + X_{m−1}`; zero at the free ends.
#[inline]
fn curvature<F: Fn(usize) -> [f64; 3]>(at: &F, m: i64, len: usize) -> [f64; 3] {
    if m < 1 || m as usize >= len - 1 {
        return [0.0; 3];
    }
    let m = m as usize;
    let a = at(m - 1);
    let b = at(m);
    let c = at(m + 1);
    [
        a[0] - 2.0 * b[0] + c[0],
        a[1] - 2.0 * b[1] + c[1],
        a[2] - 2.0 * b[2] + c[2],
    ]
}

/// Bending force on element `m` of a chain of length `len`:
/// the negative gradient of `E_b = (k/2) Σ |C_i|²`, i.e.
/// `F_m = −k (C_{m−1} − 2 C_m + C_{m+1})` with out-of-range `C` zero —
/// the classic (1, −4, 6, −4, 1) stencil in the interior with free-end
/// boundary handling built in.
#[inline]
fn chain_bending_force<F: Fn(usize) -> [f64; 3]>(at: &F, m: usize, len: usize, k: f64) -> [f64; 3] {
    if len < 3 {
        return [0.0; 3];
    }
    let mi = m as i64;
    let cm1 = curvature(at, mi - 1, len);
    let c0 = curvature(at, mi, len);
    let cp1 = curvature(at, mi + 1, len);
    let mut f = [0.0; 3];
    axpy(&mut f, -k, cm1);
    axpy(&mut f, 2.0 * k, c0);
    axpy(&mut f, -k, cp1);
    f
}

/// Stretching force on element `m` of a chain: Hookean segments of rest
/// length `ds`, `E_s = (k/2) Σ (|d_i| − ds)²/ds`. The gather form sums over
/// the (at most two) incident segments:
/// `F_m = Σ_j k (|X_j − X_m| − ds)/ds · unit(X_j − X_m)`.
#[inline]
fn chain_stretching_force<F: Fn(usize) -> [f64; 3]>(
    at: &F,
    m: usize,
    len: usize,
    ds: f64,
    k: f64,
) -> [f64; 3] {
    let mut f = [0.0; 3];
    let xm = at(m);
    if m + 1 < len {
        let d = sub(at(m + 1), xm);
        let l = norm(d);
        if l > 0.0 {
            axpy(&mut f, k * (l - ds) / (ds * l), d);
        }
    }
    if m >= 1 {
        let d = sub(at(m - 1), xm);
        let l = norm(d);
        if l > 0.0 {
            axpy(&mut f, k * (l - ds) / (ds * l), d);
        }
    }
    f
}

/// Bending force on node `(fiber, node)`: chain stencils along the fiber
/// and across the sheet (the two 1D directions of the 2D surface).
#[inline]
pub fn bending_at(topo: &SheetTopology, pos: &[[f64; 3]], fiber: usize, node: usize) -> [f64; 3] {
    let nn = topo.nodes_per_fiber;
    let along = |m: usize| pos[fiber * nn + m];
    let across = |f: usize| pos[f * nn + node];
    // Scale stiffness by the rest spacing so the discrete energy
    // approximates k/2 ∫ |X_ss|² ds: k_eff = k / ds³.
    let ka = topo.k_bend / (topo.ds_node * topo.ds_node * topo.ds_node);
    let kb = topo.k_bend / (topo.ds_fiber * topo.ds_fiber * topo.ds_fiber);
    let mut f = chain_bending_force(&along, node, nn, ka);
    let g = chain_bending_force(&across, fiber, topo.num_fibers, kb);
    axpy(&mut f, 1.0, g);
    f
}

/// Stretching force on node `(fiber, node)`: Hookean links to the left and
/// right neighbours along the fiber and to the neighbouring fibers.
#[inline]
pub fn stretching_at(
    topo: &SheetTopology,
    pos: &[[f64; 3]],
    fiber: usize,
    node: usize,
) -> [f64; 3] {
    let nn = topo.nodes_per_fiber;
    let along = |m: usize| pos[fiber * nn + m];
    let across = |f: usize| pos[f * nn + node];
    let mut f = chain_stretching_force(&along, node, nn, topo.ds_node, topo.k_stretch);
    let g = chain_stretching_force(
        &across,
        fiber,
        topo.num_fibers,
        topo.ds_fiber,
        topo.k_stretch,
    );
    axpy(&mut f, 1.0, g);
    f
}

/// Kernel 1 over the fibers `fibers`: fills `out`, which holds exactly
/// those fibers' nodes (node `(fiber, node)` at
/// `(fiber − fibers.start) · nodes_per_fiber + node`). Reads only `pos`,
/// so disjoint fiber ranges can run in parallel.
pub fn bending_forces(
    topo: &SheetTopology,
    pos: &[[f64; 3]],
    fibers: Range<usize>,
    out: &mut [[f64; 3]],
) {
    let nn = topo.nodes_per_fiber;
    for (i, fiber) in fibers.enumerate() {
        for node in 0..nn {
            out[i * nn + node] = bending_at(topo, pos, fiber, node);
        }
    }
}

/// Kernel 2 over the fibers `fibers`, laid out as in [`bending_forces`].
pub fn stretching_forces(
    topo: &SheetTopology,
    pos: &[[f64; 3]],
    fibers: Range<usize>,
    out: &mut [[f64; 3]],
) {
    let nn = topo.nodes_per_fiber;
    for (i, fiber) in fibers.enumerate() {
        for node in 0..nn {
            out[i * nn + node] = stretching_at(topo, pos, fiber, node);
        }
    }
}

/// Kernel 3 over a node range: `out[i] = bending[i] + stretching[i]`, all
/// three slices covering the same nodes.
pub fn elastic_forces(bending: &[[f64; 3]], stretching: &[[f64; 3]], out: &mut [[f64; 3]]) {
    for ((e, b), s) in out.iter_mut().zip(bending).zip(stretching) {
        for a in 0..3 {
            e[a] = b[a] + s[a];
        }
    }
}

/// Kernel 1, `compute_bending_force_in_fibers`: fills `sheet.bending`.
pub fn compute_bending_force(sheet: &mut FiberSheet) {
    let topo = sheet.topology();
    bending_forces(&topo, &sheet.pos, 0..topo.num_fibers, &mut sheet.bending);
}

/// Kernel 2, `compute_stretching_force_in_fibers`: fills `sheet.stretching`.
pub fn compute_stretching_force(sheet: &mut FiberSheet) {
    let topo = sheet.topology();
    stretching_forces(&topo, &sheet.pos, 0..topo.num_fibers, &mut sheet.stretching);
}

/// Kernel 3, `compute_elastic_force_in_fibers`: elastic = bending + stretching.
pub fn compute_elastic_force(sheet: &mut FiberSheet) {
    elastic_forces(&sheet.bending, &sheet.stretching, &mut sheet.elastic);
}

/// Total bending energy (for the finite-difference gradient tests).
pub fn bending_energy(topo: &SheetTopology, pos: &[[f64; 3]]) -> f64 {
    let nn = topo.nodes_per_fiber;
    let ka = topo.k_bend / (topo.ds_node * topo.ds_node * topo.ds_node);
    let kb = topo.k_bend / (topo.ds_fiber * topo.ds_fiber * topo.ds_fiber);
    let mut e = 0.0;
    for fiber in 0..topo.num_fibers {
        let at = |m: usize| pos[fiber * nn + m];
        for m in 1..nn.saturating_sub(1) {
            let c = curvature(&at, m as i64, nn);
            e += 0.5 * ka * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]);
        }
    }
    for node in 0..nn {
        let at = |f: usize| pos[f * nn + node];
        for f in 1..topo.num_fibers.saturating_sub(1) {
            let c = curvature(&at, f as i64, topo.num_fibers);
            e += 0.5 * kb * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]);
        }
    }
    e
}

/// Total stretching energy (for the finite-difference gradient tests).
pub fn stretching_energy(topo: &SheetTopology, pos: &[[f64; 3]]) -> f64 {
    let nn = topo.nodes_per_fiber;
    let mut e = 0.0;
    for fiber in 0..topo.num_fibers {
        for m in 0..nn - 1 {
            let d = sub(pos[fiber * nn + m + 1], pos[fiber * nn + m]);
            let s = norm(d) - topo.ds_node;
            e += 0.5 * topo.k_stretch * s * s / topo.ds_node;
        }
    }
    for node in 0..nn {
        for f in 0..topo.num_fibers - 1 {
            let d = sub(pos[(f + 1) * nn + node], pos[f * nn + node]);
            let s = norm(d) - topo.ds_fiber;
            e += 0.5 * topo.k_stretch * s * s / topo.ds_fiber;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_sheet() -> FiberSheet {
        FiberSheet::paper_sheet(6, 2.5, [8.0, 8.0, 8.0], 1e-3, 0.5)
    }

    #[test]
    fn rest_configuration_has_zero_forces() {
        let mut s = test_sheet();
        compute_bending_force(&mut s);
        compute_stretching_force(&mut s);
        compute_elastic_force(&mut s);
        for i in 0..s.n() {
            for a in 0..3 {
                assert!(s.bending[i][a].abs() < 1e-12, "bending node {i} axis {a}");
                assert!(
                    s.stretching[i][a].abs() < 1e-12,
                    "stretching node {i} axis {a}"
                );
                assert!(s.elastic[i][a].abs() < 1e-12, "elastic node {i} axis {a}");
            }
        }
    }

    #[test]
    fn rigid_translation_keeps_zero_forces() {
        let mut s = test_sheet();
        for p in s.pos.iter_mut() {
            p[0] += 3.7;
            p[1] -= 1.2;
            p[2] += 0.4;
        }
        compute_bending_force(&mut s);
        compute_stretching_force(&mut s);
        for i in 0..s.n() {
            for a in 0..3 {
                assert!(s.bending[i][a].abs() < 1e-12);
                assert!(s.stretching[i][a].abs() < 1e-12);
            }
        }
    }

    fn perturb(s: &mut FiberSheet, seed: u64, amp: f64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for p in s.pos.iter_mut() {
            for c in p.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c += ((state >> 33) as f64 / 2f64.powi(31) - 1.0) * amp;
            }
        }
    }

    #[test]
    fn internal_forces_sum_to_zero() {
        let mut s = test_sheet();
        perturb(&mut s, 7, 0.2);
        compute_bending_force(&mut s);
        compute_stretching_force(&mut s);
        compute_elastic_force(&mut s);
        let total = s.total_elastic_force();
        // Translation invariance of the energies ⇒ net internal force is 0.
        let scale: f64 = s.elastic.iter().map(|f| norm(*f)).sum();
        assert!(scale > 1e-6, "perturbation should generate forces");
        for a in 0..3 {
            assert!(
                total[a].abs() < 1e-10 * scale.max(1.0),
                "axis {a}: {}",
                total[a]
            );
        }
    }

    #[test]
    fn stretched_segment_pulls_back() {
        // A single fiber of two nodes (no cross-fiber links); stretch along y.
        let mut s = FiberSheet::flat(
            1,
            2,
            [0.0; 3],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            1.0,
            1.0,
            0.0,
            2.0,
        );
        let i1 = s.idx(0, 1);
        s.pos[i1][1] += 0.5; // stretch segment to 1.5 (rest 1.0)
        compute_stretching_force(&mut s);
        // Node 1 is pulled back toward node 0 (−y); node 0 pulled toward +y.
        assert!(s.stretching[i1][1] < 0.0);
        assert!(s.stretching[s.idx(0, 0)][1] > 0.0);
        // Expected magnitude along the fiber: k (l − ds)/ds = 2*0.5 = 1.
        assert!((s.stretching[i1][1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn bent_chain_straightens() {
        // A single fiber of 3 nodes with the middle node displaced: bending
        // force pushes the middle node back and the ends the other way.
        let mut s = FiberSheet::flat(
            1,
            3,
            [0.0; 3],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            1.0,
            1.0,
            0.5,
            0.0,
        );
        s.pos[1][0] += 0.1; // bow out along x
        compute_bending_force(&mut s);
        assert!(
            s.bending[1][0] < 0.0,
            "middle node pushed back: {:?}",
            s.bending[1]
        );
        assert!(s.bending[0][0] > 0.0);
        assert!(s.bending[2][0] > 0.0);
        let sum: f64 = (0..3).map(|i| s.bending[i][0]).sum();
        assert!(sum.abs() < 1e-14);
    }

    #[test]
    fn interior_bending_stencil_is_1_4_6_4_1() {
        // For a 1-fiber chain, displacing one node and reading the force at
        // distance 0..2 recovers the classic pentadiagonal stencil.
        let nn = 9;
        let mut s = FiberSheet::flat(
            1,
            nn,
            [0.0; 3],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            1.0,
            1.0,
            1.0,
            0.0,
        );
        let mid = 4;
        s.pos[mid][0] += 1e-3;
        compute_bending_force(&mut s);
        let f = |i: usize| s.bending[i][0] / 1e-3;
        assert!((f(mid) + 6.0).abs() < 1e-9, "centre: {}", f(mid));
        assert!((f(mid - 1) - 4.0).abs() < 1e-9);
        assert!((f(mid + 1) - 4.0).abs() < 1e-9);
        assert!((f(mid - 2) + 1.0).abs() < 1e-9);
        assert!((f(mid + 2) + 1.0).abs() < 1e-9);
        assert!(f(mid - 3).abs() < 1e-9, "beyond the 8-neighbour stencil");
    }

    #[test]
    fn forces_are_negative_energy_gradients() {
        // Central finite differences of the energies must match the
        // analytic forces at a random non-degenerate configuration.
        let mut s = test_sheet();
        perturb(&mut s, 42, 0.15);
        let topo = s.topology();
        compute_bending_force(&mut s);
        compute_stretching_force(&mut s);
        let h = 1e-6;
        for &(fiber, node) in &[(0usize, 0usize), (2, 3), (5, 5), (3, 0)] {
            let i = s.idx(fiber, node);
            for a in 0..3 {
                let mut pp = s.pos.clone();
                pp[i][a] += h;
                let mut pm = s.pos.clone();
                pm[i][a] -= h;
                let fd_bend =
                    -(bending_energy(&topo, &pp) - bending_energy(&topo, &pm)) / (2.0 * h);
                let fd_str =
                    -(stretching_energy(&topo, &pp) - stretching_energy(&topo, &pm)) / (2.0 * h);
                assert!(
                    (fd_bend - s.bending[i][a]).abs() < 1e-5 * (1.0 + fd_bend.abs()),
                    "bending ({fiber},{node}) axis {a}: fd {fd_bend} vs {}",
                    s.bending[i][a]
                );
                assert!(
                    (fd_str - s.stretching[i][a]).abs() < 1e-5 * (1.0 + fd_str.abs()),
                    "stretching ({fiber},{node}) axis {a}: fd {fd_str} vs {}",
                    s.stretching[i][a]
                );
            }
        }
    }

    #[test]
    fn elastic_is_sum_of_parts() {
        let mut s = test_sheet();
        perturb(&mut s, 3, 0.1);
        compute_bending_force(&mut s);
        compute_stretching_force(&mut s);
        compute_elastic_force(&mut s);
        for i in 0..s.n() {
            for a in 0..3 {
                assert_eq!(s.elastic[i][a], s.bending[i][a] + s.stretching[i][a]);
            }
        }
    }

    #[test]
    fn tiny_sheets_do_not_panic() {
        // 1x1, 1x2, 2x1 sheets have no bending stencils and few segments.
        for (nf, nn) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            let mut s = FiberSheet::flat(
                nf,
                nn,
                [0.0; 3],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                1.0,
                1.0,
                1.0,
                1.0,
            );
            compute_bending_force(&mut s);
            compute_stretching_force(&mut s);
            compute_elastic_force(&mut s);
            for i in 0..s.n() {
                for a in 0..3 {
                    assert!(s.elastic[i][a].abs() < 1e-14, "({nf},{nn}) node {i}");
                }
            }
        }
    }

    proptest! {
        /// Net internal force vanishes for random perturbations (gather and
        /// scatter formulations agree via Newton's third law).
        #[test]
        fn prop_zero_net_force(seed in 0u64..500, amp in 0.0f64..0.3) {
            let mut s = test_sheet();
            perturb(&mut s, seed, amp);
            compute_bending_force(&mut s);
            compute_stretching_force(&mut s);
            compute_elastic_force(&mut s);
            let total = s.total_elastic_force();
            let scale: f64 = s.elastic.iter().map(|f| norm(*f)).sum::<f64>().max(1.0);
            for a in 0..3 {
                prop_assert!(total[a].abs() < 1e-9 * scale, "axis {}: {}", a, total[a]);
            }
        }
    }
}
