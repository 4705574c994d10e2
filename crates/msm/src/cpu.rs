//! CPU Pippenger — the paper's "Best-CPU" MSM baseline (libsnark/bellman
//! class): window-serial, bucket accumulation with mixed additions, running
//! -sum reduction, optionally window-parallel across cores.

use crate::batch_affine::{accumulate_batch_affine, BatchAffineStats};
use crate::engine::{bucket_reduce, bucket_reduce_range, CurveCost, MsmEngine, MsmRun, MsmStats};
use crate::scalars::{default_window_size, ScalarVec};
use gzkp_curves::{Affine, CurveParams, Projective};
use gzkp_gpu_sim::device::{cpu_xeon, Backend, DeviceConfig};
use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec, StageReport};

/// CPU Pippenger engine.
#[derive(Debug, Clone)]
pub struct CpuMsm {
    /// Window size `k`; `None` selects `default_window_size(n)` per call.
    pub window: Option<u32>,
    /// Use all cores (window-parallel), as libsnark's multicore prover does.
    pub parallel: bool,
    /// Batch-affine bucket accumulation (Montgomery-batched inversions);
    /// `false` keeps the classic mixed Jacobian additions.
    pub batch_affine: bool,
    /// Host model used by the cost reports.
    pub device: DeviceConfig,
}

impl Default for CpuMsm {
    fn default() -> Self {
        Self {
            window: None,
            parallel: true,
            batch_affine: true,
            device: cpu_xeon(),
        }
    }
}

impl CpuMsm {
    /// Single-threaded variant with classic mixed additions (reference
    /// in tests and the pre-optimization baseline).
    pub fn serial() -> Self {
        Self {
            parallel: false,
            batch_affine: false,
            ..Self::default()
        }
    }

    fn k_for(&self, n: usize) -> u32 {
        self.window.unwrap_or_else(|| default_window_size(n))
    }

    /// One window's bucket accumulation + reduction.
    fn window_sum<C: CurveParams>(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        t: usize,
        k: u32,
    ) -> (Projective<C>, BatchAffineStats) {
        let mut stats = BatchAffineStats::default();
        if self.batch_affine {
            let mut buckets = vec![Affine::<C>::identity(); (1usize << k) - 1];
            let entries: Vec<(u32, u32)> = (0..points.len())
                .filter_map(|i| {
                    let d = scalars.window(i, t, k);
                    (d != 0).then(|| ((d - 1) as u32, i as u32))
                })
                .collect();
            accumulate_batch_affine(&mut buckets, points, &entries, &mut stats);
            return (bucket_reduce_range(&buckets, 0), stats);
        }
        let mut buckets = vec![Projective::<C>::identity(); (1usize << k) - 1];
        for (i, p) in points.iter().enumerate() {
            let d = scalars.window(i, t, k);
            if d != 0 {
                buckets[(d - 1) as usize] = buckets[(d - 1) as usize].add_mixed(p);
            }
        }
        (bucket_reduce(&buckets), stats)
    }

    fn stage<C: CurveParams>(&self, n: usize, nonzero_per_window: &[u64]) -> StageReport {
        let cost = CurveCost::of::<C>();
        let k = self.k_for(n);
        let mut stage = StageReport::new("cpu-pippenger");
        // One "block" per window per core-chunk; each window does its
        // bucket pass plus a 2·2^k reduction.
        let blocks: Vec<BlockCost> = nonzero_per_window
            .iter()
            .map(|&nz| BlockCost {
                mac_ops: nz as f64 * cost.padd_mixed() + 2.0 * (1u64 << k) as f64 * cost.padd(),
                dram_sectors: (nz * cost.affine_bytes()) / self.device.sector_bytes,
                shared_bytes: 0,
            })
            .collect();
        let mut spec = KernelSpec {
            name: format!("pippenger(k={k})"),
            threads_per_block: 1,
            shared_mem_per_block: 0,
            backend: Backend::Integer,
            limbs: cost.speedup_limbs(),
            blocks,
        };
        if !self.parallel {
            // Serial: merge every window into one block on one core.
            let total = spec
                .blocks
                .iter()
                .fold(BlockCost::default(), |a, b| a.merge(b));
            spec.blocks = vec![total];
        }
        stage.run(&self.device, &spec);
        stage
    }
}

impl<C: CurveParams> MsmEngine<C> for CpuMsm {
    fn name(&self) -> String {
        if self.parallel {
            "Best-CPU".into()
        } else {
            "CPU-serial".into()
        }
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        assert_eq!(points.len(), scalars.len());
        let n = points.len();
        let k = self.k_for(n);
        let windows = scalars.num_windows(k);
        let window_sum = |t| self.window_sum(points, scalars, t, k);
        let window_sums: Vec<(Projective<C>, BatchAffineStats)> = if self.parallel {
            rayon::map(0..windows, window_sum)
        } else {
            (0..windows).map(window_sum).collect()
        };
        let mut stats = MsmStats::default();
        for (_, s) in &window_sums {
            stats.batch_padds += s.padds;
            stats.batch_inversions += s.inversions;
        }
        // Window reduction: fold from the top, k doublings per step.
        let mut acc = Projective::<C>::identity();
        for (w, _) in window_sums.iter().rev() {
            for _ in 0..k {
                acc = acc.double();
            }
            acc = acc.add(w);
        }
        let report = <Self as MsmEngine<C>>::plan(self, scalars);
        MsmRun {
            result: acc,
            report,
            stats,
        }
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        let k = self.k_for(scalars.len());
        let loads = crate::scalars::window_loads(scalars, k);
        self.stage::<C>(scalars.len(), &loads)
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        let k = self.k_for(n);
        // Dense uniform digits: a (2^k − 1)/2^k fraction is non-zero.
        let bits = <C::Scalar as gzkp_ff::PrimeField>::MODULUS_BITS;
        let windows = bits.div_ceil(k) as usize;
        let nz = (n as f64 * (1.0 - 1.0 / (1u64 << k) as f64)) as u64;
        self.stage::<C>(n, &vec![nz; windows])
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        let cost = CurveCost::of::<C>();
        let k = self.k_for(n);
        n as u64 * (cost.affine_bytes() + 8 * 4)
            + (1u64 << k) * cost.jacobian_bytes() * rayon::current_num_threads() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive_msm;
    use gzkp_curves::bn254::{Fr, G1Config};
    use gzkp_curves::random_points;
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100;
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let expect = naive_msm(&pts, &sv);
        let serial = CpuMsm::serial().msm(&pts, &sv);
        assert_eq!(serial.result, expect);
        let parallel = CpuMsm::default().msm(&pts, &sv);
        assert_eq!(parallel.result, expect);
    }

    #[test]
    fn handles_zero_and_one_scalars() {
        let mut rng = StdRng::seed_from_u64(12);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let mut scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[3] = Fr::one();
        scalars[7] = Fr::zero();
        let sv = ScalarVec::from_field(&scalars);
        assert_eq!(CpuMsm::serial().msm(&pts, &sv).result, naive_msm(&pts, &sv));
    }

    #[test]
    fn all_zero_scalars_give_identity() {
        let mut rng = StdRng::seed_from_u64(13);
        let pts = random_points::<G1Config, _>(4, &mut rng);
        let sv = ScalarVec::from_field(&[Fr::zero(); 4]);
        assert!(CpuMsm::serial().msm(&pts, &sv).result.is_identity());
    }

    #[test]
    fn window_size_invariance() {
        let mut rng = StdRng::seed_from_u64(14);
        let pts = random_points::<G1Config, _>(32, &mut rng);
        let scalars: Vec<Fr> = (0..32).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let expect = naive_msm(&pts, &sv);
        for k in [1u32, 3, 8, 13, 16] {
            let e = CpuMsm {
                window: Some(k),
                parallel: false,
                ..CpuMsm::default()
            };
            assert_eq!(e.msm(&pts, &sv).result, expect, "k={k}");
        }
    }

    #[test]
    fn works_on_g2() {
        use gzkp_curves::bn254::G2Config;
        let mut rng = StdRng::seed_from_u64(15);
        let pts = random_points::<G2Config, _>(16, &mut rng);
        let scalars: Vec<Fr> = (0..16).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        assert_eq!(CpuMsm::serial().msm(&pts, &sv).result, naive_msm(&pts, &sv));
    }
}
