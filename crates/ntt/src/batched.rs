//! Batched NTT execution — the paper's §7 extension direction.
//!
//! ZKP wants the *latency* of one big NTT (all SMs on one transform);
//! homomorphic encryption wants *throughput* over many small independent
//! NTTs ("NTT batching"). §7 observes that GZKP's small-group task
//! granularity makes it suitable for the batched regime; this module
//! prices that: `B` independent transforms are fused into one kernel per
//! iteration-batch, multiplying the grid size and keeping the device
//! saturated where a lone small NTT would leave most SMs idle.

use crate::gpu::GzkpNtt;
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::kernel::{simulate_kernel, KernelSpec, StageReport};

/// A throughput-oriented wrapper around [`GzkpNtt`] that executes many
/// independent same-size transforms as fused kernels.
#[derive(Debug, Clone)]
pub struct BatchedNtt {
    /// The underlying GZKP engine (device, backend, B/G configuration).
    pub engine: GzkpNtt,
}

impl BatchedNtt {
    /// Wraps an engine.
    pub fn new(engine: GzkpNtt) -> Self {
        Self { engine }
    }

    /// Fused-execution cost for `count` transforms of size `2^log_n`:
    /// the per-iteration-batch kernels of the single-NTT plan with their
    /// grids replicated `count`×, so one launch covers every transform.
    pub fn cost<F: PrimeField>(&self, log_n: u32, count: usize) -> StageReport {
        let dev = &self.engine.device;
        let mut out = StageReport::new(format!("ntt-batched-{count}x2^{log_n}"));
        for spec in self.kernel_specs::<F>(log_n) {
            let mut big = spec.clone();
            big.blocks = spec
                .blocks
                .iter()
                .cycle()
                .take(spec.blocks.len() * count.max(1))
                .copied()
                .collect();
            out.kernels.push(simulate_kernel(dev, &big));
        }
        out
    }

    /// The uniform per-batch kernel specs of a single transform (used by
    /// [`Self::cost`] to build the fused grids).
    fn kernel_specs<F: PrimeField>(&self, log_n: u32) -> Vec<KernelSpec> {
        // GzkpNtt's stage() is private; regenerate equivalent specs from
        // its public configuration. This mirrors gpu::GzkpNtt::stage and is
        // kept in sync by the `fused_consistent_with_single` test below.
        crate::gpu::gzkp_kernel_specs::<F>(&self.engine, log_n)
    }

    /// Transforms per second at the fused-execution rate.
    pub fn throughput_per_sec<F: PrimeField>(&self, log_n: u32, count: usize) -> f64 {
        let t_ns = self.cost::<F>(log_n, count).total_ns();
        count as f64 / (t_ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuNttEngine;
    use gzkp_ff::fields::Fr254;
    use gzkp_gpu_sim::v100;

    #[test]
    fn fused_consistent_with_single() {
        // count = 1 must cost (nearly) the same as the plain engine.
        let e = GzkpNtt::auto::<Fr254>(v100());
        let single = GpuNttEngine::<Fr254>::cost(&e, 16).total_ns();
        let fused = BatchedNtt::new(e).cost::<Fr254>(16, 1).total_ns();
        let ratio = fused / single;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batching_improves_small_ntt_throughput() {
        // §7: small NTTs underutilize the GPU; fusing 64 of them must be
        // far cheaper than 64 sequential launches.
        let e = GzkpNtt::auto::<Fr254>(v100());
        let single = GpuNttEngine::<Fr254>::cost(&e, 12).total_ns();
        let b = BatchedNtt::new(e);
        let fused64 = b.cost::<Fr254>(12, 64).total_ns();
        assert!(
            fused64 < 64.0 * single * 0.5,
            "fused {fused64} vs 64x single {}",
            64.0 * single
        );
        // Throughput grows with batch size until saturation.
        let t1 = b.throughput_per_sec::<Fr254>(12, 1);
        let t64 = b.throughput_per_sec::<Fr254>(12, 64);
        assert!(t64 > 4.0 * t1, "t1 {t1} vs t64 {t64}");
    }
}
