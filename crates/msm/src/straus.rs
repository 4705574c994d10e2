//! The Straus-algorithm GPU engine ("MINA" — gpu-groth16-prover-like).
//!
//! Straus precomputes, for every point, the full digit table
//! `d·Pᵢ (1 ≤ d < 2^k)`; the main loop then interleaves `k` doublings of
//! the accumulator with one table lookup + addition per point per window.
//! The precomputation is the scheme's Achilles heel the paper calls out
//! (§4.1): "the amount of pre-computation grows too fast with large N, even
//! with a small k" — at 753-bit and `2²²` points, the table alone exceeds
//! the V100's 32 GB (the "-" entries of Table 7 and the steep curve of
//! Figure 9).

use crate::engine::{CurveCost, MsmEngine, MsmRun};
use crate::scalars::ScalarVec;
use gzkp_curves::{batch_to_affine, Affine, CurveParams, Projective};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::device::{Backend, DeviceConfig};
use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec, StageReport};

/// Latency penalty on the main-loop accumulation: each GPU thread owns a
/// private accumulator updated by a *dependent* chain of PADDs (lookup →
/// add → next lookup), which cannot pipeline the way Pippenger's
/// independent bucket merges can. Calibration anchor: Table 7's MINA row
/// at 2²² (≈28 s) vs. the raw operation count.
pub(crate) const SERIAL_CHAIN_PENALTY: f64 = 5.0;

/// The MINA-like Straus MSM engine.
#[derive(Debug, Clone)]
pub struct StrausMsm {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Finite-field backend.
    pub backend: Backend,
    /// Digit width of the precomputed tables (MINA-class provers keep this
    /// small precisely because the table is per-point).
    pub window: u32,
}

impl StrausMsm {
    /// Stock configuration (k = 5, integer backend).
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: Backend::Integer,
            window: 5,
        }
    }

    fn table_entries(&self) -> u64 {
        (1u64 << self.window) - 1
    }

    fn stage<C: CurveParams>(&self, n: usize, windows: usize) -> StageReport {
        let cost = CurveCost::of::<C>();
        let dev = &self.device;
        let k = self.window;
        let mut stage = StageReport::new("msm-straus");
        stage.add_fixed("host-sync+transfer", crate::gzkp::MSM_HOST_OVERHEAD_NS);

        // Precompute kernel: (2^k − 1) additions per point (chained).
        let pre_blocks = (n.div_ceil(256)).max(1);
        let pre_per_block = BlockCost {
            mac_ops: (256.0) * self.table_entries() as f64 * cost.padd_mixed(),
            dram_sectors: (256 * self.table_entries() * cost.affine_bytes()) / dev.sector_bytes,
            shared_bytes: 0,
        };
        stage.run(
            dev,
            &KernelSpec::uniform(
                format!("straus.precompute(k={k})"),
                256,
                0,
                self.backend,
                cost.speedup_limbs(),
                pre_blocks,
                pre_per_block,
            ),
        );

        // Main loop: chunks of points accumulate across all windows; the
        // table lookups are data-dependent gathers (poorly coalesced) and
        // the per-thread accumulator chains serialize (see
        // [`SERIAL_CHAIN_PENALTY`]).
        let chunk = (n / (2 * dev.num_sms as usize)).clamp(256, 4096);
        let blocks_n = n.div_ceil(chunk);
        let per_block = BlockCost {
            mac_ops: (windows as f64 * (chunk as f64 * cost.padd() + k as f64 * cost.pdbl())
                + chunk as f64 * cost.padd())
                * SERIAL_CHAIN_PENALTY,
            // Random table gathers: one sector per coordinate word group.
            dram_sectors: windows as u64 * chunk as u64 * cost.affine_bytes() / dev.sector_bytes
                * 4, // ×4 gather amplification
            shared_bytes: 0,
        };
        stage.run(
            dev,
            &KernelSpec::uniform(
                format!("straus.main(k={k},w={windows})"),
                256,
                0,
                self.backend,
                cost.speedup_limbs(),
                blocks_n,
                per_block,
            ),
        );
        stage
    }
}

impl<C: CurveParams> MsmEngine<C> for StrausMsm {
    fn name(&self) -> String {
        "MINA(Straus)".into()
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        assert_eq!(points.len(), scalars.len());
        let n = points.len();
        let k = self.window;
        let windows = scalars.num_windows(k);

        // Functional Straus: per-point digit tables, then the interleaved
        // double-and-add over windows from the top.
        let tables: Vec<Vec<Affine<C>>> = points
            .iter()
            .map(|p| {
                let mut row = Vec::with_capacity(self.table_entries() as usize);
                let mut acc = p.to_projective();
                for _ in 0..self.table_entries() {
                    row.push(acc);
                    acc = acc.add_mixed(p);
                }
                batch_to_affine(&row)
            })
            .collect();

        let mut acc = Projective::<C>::identity();
        for t in (0..windows).rev() {
            for _ in 0..k {
                acc = acc.double();
            }
            for (i, table) in tables.iter().enumerate() {
                let d = scalars.window(i, t, k);
                if d != 0 {
                    acc = acc.add_mixed(&table[(d - 1) as usize]);
                }
            }
        }
        let report = self.stage::<C>(n, windows);
        MsmRun {
            result: acc,
            report,
            stats: Default::default(),
        }
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        // Straus does not skip empty windows (the accumulator doublings are
        // unconditional), so the plan only depends on n and window count —
        // exactly why it handles sparse workloads poorly.
        self.stage::<C>(scalars.len(), scalars.num_windows(self.window))
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        self.stage::<C>(n, bits.div_ceil(self.window) as usize)
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        let cost = CurveCost::of::<C>();
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS as u64;
        // Input points + scalars + the per-point digit tables.
        n as u64 * (cost.affine_bytes() + bits.div_ceil(64) * 8)
            + n as u64 * self.table_entries() * cost.affine_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive_msm;
    use gzkp_curves::bn254::{Fr, G1Config};
    use gzkp_curves::random_points;
    use gzkp_ff::Field;
    use gzkp_gpu_sim::device::v100;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 40;
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let run = StrausMsm::new(v100()).msm(&pts, &sv);
        assert_eq!(run.result, naive_msm(&pts, &sv));
    }

    #[test]
    fn memory_explodes_with_scale() {
        // The Table 7 OOM behaviour: 753-bit Straus exceeds 32 GB at 2^24.
        let e = StrausMsm::new(v100());
        let m_t753 = MsmEngine::<gzkp_curves::t753::G1Config>::memory_bytes(&e, 1 << 24);
        assert!(m_t753 > v100().global_mem_bytes);
        let m_small = MsmEngine::<gzkp_curves::t753::G1Config>::memory_bytes(&e, 1 << 18);
        assert!(m_small < v100().global_mem_bytes);
    }

    #[test]
    fn plan_ignores_sparsity() {
        let n = 256;
        let dense: Vec<Fr> = {
            let mut rng = StdRng::seed_from_u64(32);
            (0..n).map(|_| Fr::random(&mut rng)).collect()
        };
        let sparse = vec![Fr::one(); n];
        let e = StrausMsm::new(v100());
        let td = MsmEngine::<G1Config>::plan(&e, &ScalarVec::from_field(&dense)).total_ns();
        let ts = MsmEngine::<G1Config>::plan(&e, &ScalarVec::from_field(&sparse)).total_ns();
        assert!((td - ts).abs() / td < 1e-9);
    }
}
