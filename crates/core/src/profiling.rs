//! The kernel slots every solver times into. The timings themselves live
//! in [`crate::telemetry::ThreadTelemetry`]; Table I (the paper's gprof
//! breakdown) is [`crate::telemetry::RunTelemetry::table`] and Table II's
//! load imbalance (the paper's OmpP figure) is
//! [`crate::telemetry::RunTelemetry::barrier_wait_share`].

/// The nine computational kernels of Section III-B in Algorithm 1 order,
/// plus the fused collide–stream sweep that replaces kernels 5+6 under
/// [`crate::config::KernelPlan::Fused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    BendingForce,
    StretchingForce,
    ElasticForce,
    SpreadForce,
    Collision,
    Stream,
    UpdateVelocity,
    MoveFibers,
    /// Kernel 9. The cube solver swaps its buffers instead of copying, so
    /// there this slot stays at 0 s (as do kernels 5 and 6, which it runs
    /// only as the fused sweep).
    CopyDistributions,
    FusedCollideStream,
}

impl KernelId {
    /// Number of kernel slots (profiling array size).
    pub const COUNT: usize = 10;

    /// All kernels, the Algorithm 1 nine first, then the fused sweep.
    pub const ALL: [KernelId; KernelId::COUNT] = [
        KernelId::BendingForce,
        KernelId::StretchingForce,
        KernelId::ElasticForce,
        KernelId::SpreadForce,
        KernelId::Collision,
        KernelId::Stream,
        KernelId::UpdateVelocity,
        KernelId::MoveFibers,
        KernelId::CopyDistributions,
        KernelId::FusedCollideStream,
    ];

    /// Index 0..[`KernelId::COUNT`] (position in [`KernelId::ALL`], which
    /// follows declaration order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's kernel number (1-based, Algorithm 1); the fused sweep
    /// reports as 10 (it stands in for kernels 5 and 6).
    pub fn paper_number(self) -> usize {
        self.index() + 1
    }

    /// The function name used in the paper.
    pub fn paper_name(self) -> &'static str {
        match self {
            KernelId::BendingForce => "compute_bending_force_in_fibers",
            KernelId::StretchingForce => "compute_stretching_force_in_fibers",
            KernelId::ElasticForce => "compute_elastic_force_in_fibers",
            KernelId::SpreadForce => "spread_force_from_fibers_to_fluid",
            KernelId::Collision => "compute_fluid_collision",
            KernelId::Stream => "stream_fluid_velocity_distribution",
            KernelId::UpdateVelocity => "update_fluid_velocity",
            KernelId::MoveFibers => "move_fibers",
            KernelId::CopyDistributions => "copy_fluid_velocity_distribution",
            KernelId::FusedCollideStream => "fused_collide_stream (kernels 5+6)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ids_cover_paper_numbers() {
        for (i, k) in KernelId::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(k.paper_number(), i + 1);
        }
        assert_eq!(KernelId::Collision.paper_number(), 5);
        assert_eq!(KernelId::CopyDistributions.paper_number(), 9);
        assert_eq!(KernelId::Collision.paper_name(), "compute_fluid_collision");
        assert_eq!(KernelId::COUNT, KernelId::ALL.len());
        assert_eq!(KernelId::FusedCollideStream.index(), 9);
    }
}
