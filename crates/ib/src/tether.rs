//! Tether (target-point) forces: stiff springs pinning selected fiber nodes
//! to fixed anchor positions. This is how the Figure 1 experiment fastens
//! the plate "in the middle region" while the rest of the structure flaps
//! freely in the flow.

use crate::sheet::FiberSheet;

/// One tethered node: a spring of the given stiffness between the node and
/// a fixed anchor point.
#[derive(Clone, Copy, Debug)]
pub struct Tether {
    /// Flat node index into the sheet.
    pub node: usize,
    /// Anchor position (lattice units).
    pub anchor: [f64; 3],
    /// Spring stiffness.
    pub stiffness: f64,
}

/// A set of tethers applied to a sheet each time step. `clone_from`
/// reuses the target's buffer.
#[derive(Debug, Default)]
pub struct TetherSet {
    pub tethers: Vec<Tether>,
}

impl Clone for TetherSet {
    fn clone(&self) -> Self {
        Self {
            tethers: self.tethers.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.tethers.clone_from(&src.tethers);
    }
}

impl TetherSet {
    /// No tethers (a free structure, as in the Figure 7/8 experiment).
    pub fn none() -> Self {
        Self::default()
    }

    /// Pins every node within `radius` (in node units, Euclidean over the
    /// fiber/node index plane) of the sheet's index-space centre at its
    /// *current* position — Figure 1's plate fastened in the middle region.
    pub fn center_region(sheet: &FiberSheet, radius: f64, stiffness: f64) -> Self {
        let cf = (sheet.num_fibers as f64 - 1.0) / 2.0;
        let cn = (sheet.nodes_per_fiber as f64 - 1.0) / 2.0;
        let mut tethers = Vec::new();
        for fiber in 0..sheet.num_fibers {
            for node in 0..sheet.nodes_per_fiber {
                let df = fiber as f64 - cf;
                let dn = node as f64 - cn;
                if (df * df + dn * dn).sqrt() <= radius {
                    let idx = sheet.idx(fiber, node);
                    tethers.push(Tether {
                        node: idx,
                        anchor: sheet.pos[idx],
                        stiffness,
                    });
                }
            }
        }
        Self { tethers }
    }

    /// Pins the leading edge (node 0 of every fiber) at its current
    /// position — a flag anchored at its pole.
    pub fn leading_edge(sheet: &FiberSheet, stiffness: f64) -> Self {
        let tethers = (0..sheet.num_fibers)
            .map(|fiber| {
                let idx = sheet.idx(fiber, 0);
                Tether {
                    node: idx,
                    anchor: sheet.pos[idx],
                    stiffness,
                }
            })
            .collect();
        Self { tethers }
    }

    /// Adds the tether forces `−k (X − X₀)` into the sheet's elastic force
    /// (run after kernel 3, before spreading).
    pub fn apply(&self, sheet: &mut FiberSheet) {
        for t in &self.tethers {
            let p = sheet.pos[t.node];
            for a in 0..3 {
                sheet.elastic[t.node][a] -= t.stiffness * (p[a] - t.anchor[a]);
            }
        }
    }

    /// Number of tethered nodes.
    pub fn len(&self) -> usize {
        self.tethers.len()
    }

    /// True if no nodes are tethered.
    pub fn is_empty(&self) -> bool {
        self.tethers.is_empty()
    }

    /// Largest distance of any tethered node from its anchor (diagnostic:
    /// how much the "fastened" region is slipping).
    pub fn max_excursion(&self, sheet: &FiberSheet) -> f64 {
        self.tethers
            .iter()
            .map(|t| {
                let p = sheet.pos[t.node];
                let d = [p[0] - t.anchor[0], p[1] - t.anchor[1], p[2] - t.anchor[2]];
                (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet() -> FiberSheet {
        FiberSheet::paper_sheet(9, 4.0, [10.0, 10.0, 10.0], 1e-3, 0.5)
    }

    #[test]
    fn center_region_pins_middle_only() {
        let s = sheet();
        let t = TetherSet::center_region(&s, 1.5, 10.0);
        assert!(!t.is_empty());
        assert!(t.len() < s.n(), "only the middle region is pinned");
        // The exact centre node (4,4) of the 9x9 sheet must be pinned.
        let centre = s.idx(4, 4);
        assert!(t.tethers.iter().any(|th| th.node == centre));
        // A corner must not be pinned.
        assert!(!t.tethers.iter().any(|th| th.node == s.idx(0, 0)));
    }

    #[test]
    fn leading_edge_pins_one_node_per_fiber() {
        let s = sheet();
        let t = TetherSet::leading_edge(&s, 5.0);
        assert_eq!(t.len(), s.num_fibers);
        for (fiber, th) in t.tethers.iter().enumerate() {
            assert_eq!(th.node, s.idx(fiber, 0));
        }
    }

    #[test]
    fn apply_is_zero_at_anchor_and_restoring_away() {
        let mut s = sheet();
        let t = TetherSet::center_region(&s, 1.0, 3.0);
        s.elastic.iter_mut().for_each(|f| *f = [0.0; 3]);
        t.apply(&mut s);
        assert!(s.elastic.iter().all(|f| f.iter().all(|c| c.abs() < 1e-15)));

        // Displace the centre node: the force must point back to the anchor.
        let centre = s.idx(4, 4);
        s.pos[centre][0] += 0.2;
        s.elastic.iter_mut().for_each(|f| *f = [0.0; 3]);
        t.apply(&mut s);
        assert!((s.elastic[centre][0] + 3.0 * 0.2).abs() < 1e-14);
        assert_eq!(s.elastic[centre][1], 0.0);
        assert!((t.max_excursion(&s) - 0.2).abs() < 1e-14);
    }

    #[test]
    fn apply_accumulates_into_existing_elastic_force() {
        let mut s = sheet();
        let t = TetherSet::leading_edge(&s, 2.0);
        let node = t.tethers[0].node;
        s.elastic[node] = [1.0, 1.0, 1.0];
        s.pos[node][2] += 0.5;
        t.apply(&mut s);
        assert_eq!(s.elastic[node][0], 1.0);
        assert!((s.elastic[node][2] - (1.0 - 2.0 * 0.5)).abs() < 1e-14);
    }

    #[test]
    fn none_is_empty() {
        assert!(TetherSet::none().is_empty());
        assert_eq!(TetherSet::none().max_excursion(&sheet()), 0.0);
    }
}
