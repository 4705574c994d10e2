//! The window-parallel sub-MSM GPU baseline ("BG" — bellperson-like, §2.3).
//!
//! Figure 3's decomposition: the MSM splits horizontally into sub-MSMs of
//! `chunk` points; each sub-MSM maps to a GPU block where *different
//! windows are processed by different threads*, each thread owning a
//! private `2^k` bucket array in global memory. Every thread then reduces
//! its own buckets with the running-sum trick; partial window sums are
//! combined, and the final window-reduction runs on the CPU.
//!
//! Weaknesses the paper exploits (emergent in the cost model):
//!
//! * every window thread walks the whole chunk, so points are effectively
//!   read `⌈l/k⌉` times, and bucket updates are read-modify-write traffic
//!   against global memory;
//! * dependent global-memory bucket updates serialize: consecutive adds to
//!   the same bucket cannot pipeline. `BUCKET_RMW_PENALTY` prices this
//!   (calibrated so the Fig. 10 "BG → GZKP-no-LB = 3.25×" step holds);
//! * the per-thread bucket reduction (`2·2^k` PADDs per window thread per
//!   sub-MSM) is paid *unconditionally* — with sparse real-world scalars
//!   whole windows are empty yet still pay it, which is why bellperson
//!   cannot exploit sparsity (§4.2);
//! * no cross-window consolidation: each sub-MSM re-merges the same
//!   digits.

use crate::engine::{bucket_reduce, CurveCost, MsmEngine, MsmRun};
use crate::scalars::{default_window_size, window_loads, ScalarVec};
use gzkp_curves::{Affine, CurveParams, Projective};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::device::{Backend, DeviceConfig};
use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec, StageReport};

/// Serialization penalty on dependent global-memory bucket updates
/// (read-modify-write chains that the hardware cannot coalesce or
/// pipeline). Calibration anchor: Figure 10's BG → GZKP-no-LB = 3.25×.
pub(crate) const BUCKET_RMW_PENALTY: f64 = 1.3;

/// The bellperson-like GPU MSM baseline.
#[derive(Debug, Clone)]
pub struct SubMsmPippenger {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Finite-field backend (Integer = stock; FpLib = "w. lib" ablations).
    pub backend: Backend,
    /// Window size; `None` = a bellperson-ish default (smaller than
    /// optimal, to bound the per-thread global bucket arrays).
    pub window: Option<u32>,
    /// Points per sub-MSM; `None` sizes sub-MSMs so the grid gives ~2
    /// blocks per SM.
    pub chunk: Option<usize>,
}

impl SubMsmPippenger {
    /// Stock configuration.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: Backend::Integer,
            window: None,
            chunk: None,
        }
    }

    fn k_for(&self, n: usize) -> u32 {
        // bellperson keeps windows below optimal so each window thread's
        // global bucket array stays bounded.
        self.window
            .unwrap_or_else(|| (default_window_size(n).saturating_sub(1)).clamp(4, 10))
    }

    fn chunk_for(&self, n: usize) -> usize {
        self.chunk
            .unwrap_or_else(|| n.div_ceil((self.device.num_sms as usize * 2).max(1)).max(1))
    }

    /// Cost stage. `unit_loads[sub][t]` = non-zero digits of window `t`
    /// within sub-MSM `sub`.
    fn stage<C: CurveParams>(
        &self,
        n: usize,
        k: u32,
        windows: usize,
        unit_loads: &[Vec<u64>],
    ) -> StageReport {
        let cost = CurveCost::of::<C>();
        let dev = &self.device;
        let mut stage = StageReport::new("msm-submsm");
        stage.add_fixed("host-sync+transfer", crate::gzkp::MSM_HOST_OVERHEAD_NS);
        let buckets = (1u64 << k) - 1;
        let chunk = self.chunk_for(n) as u64;
        let blocks: Vec<BlockCost> = unit_loads
            .iter()
            .map(|loads| {
                let nz: u64 = loads.iter().sum();
                BlockCost {
                    // Accumulation with serialized global-bucket RMW, plus
                    // the unconditional per-window bucket reductions.
                    mac_ops: nz as f64 * cost.padd_mixed() * BUCKET_RMW_PENALTY
                        + windows as f64 * 2.0 * buckets as f64 * cost.padd(),
                    // Each window thread streams the chunk's points and
                    // scalars, and RMWs its buckets in global memory.
                    dram_sectors: (windows as u64 * chunk * cost.affine_bytes()
                        + nz * 2 * cost.jacobian_bytes()
                        + chunk * 8 * 4)
                        / dev.sector_bytes,
                    shared_bytes: 0,
                }
            })
            .collect();
        stage.run(
            dev,
            &KernelSpec {
                name: format!("submsm(k={k},w={windows})"),
                // One thread per window inside the block (Figure 3).
                threads_per_block: (windows as u32).max(dev.warp_size),
                shared_mem_per_block: 0, // buckets live in global memory
                backend: self.backend,
                limbs: cost.speedup_limbs(),
                blocks,
            },
        );
        // Host-side window reduction: windows·k doublings + adds, serial.
        let host_ns = (windows as f64) * (k as f64 * cost.pdbl() + cost.padd()) * 2.5;
        stage.add_fixed("window-reduction(host)", host_ns);
        stage
    }

    fn dense_unit_loads(&self, n: usize, k: u32, windows: usize) -> Vec<Vec<u64>> {
        let chunk = self.chunk_for(n);
        let subs = n.div_ceil(chunk);
        let nz = ((chunk as f64) * (1.0 - 1.0 / (1u64 << k) as f64)) as u64;
        vec![vec![nz; windows]; subs]
    }
}

impl<C: CurveParams> MsmEngine<C> for SubMsmPippenger {
    fn name(&self) -> String {
        match self.backend {
            Backend::Integer => "BG".into(),
            Backend::FpLib => "BG w. lib".into(),
        }
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        assert_eq!(points.len(), scalars.len());
        let n = points.len();
        let k = self.k_for(n);
        let windows = scalars.num_windows(k);
        let chunk = self.chunk_for(n);

        // Functional: per-(sub-MSM, window) bucket accumulation — exactly
        // the Figure 3 work decomposition.
        let mut unit_loads = Vec::new();
        let mut window_sums = vec![Projective::<C>::identity(); windows];
        for lo in (0..n).step_by(chunk) {
            let hi = (lo + chunk).min(n);
            let mut loads = vec![0u64; windows];
            for (t, load) in loads.iter_mut().enumerate() {
                let mut buckets = vec![Projective::<C>::identity(); (1usize << k) - 1];
                for (i, point) in points.iter().enumerate().take(hi).skip(lo) {
                    let d = scalars.window(i, t, k);
                    if d != 0 {
                        buckets[(d - 1) as usize] = buckets[(d - 1) as usize].add_mixed(point);
                        *load += 1;
                    }
                }
                window_sums[t] = window_sums[t].add(&bucket_reduce(&buckets));
            }
            unit_loads.push(loads);
        }
        // Host window reduction.
        let mut acc = Projective::<C>::identity();
        for w in window_sums.iter().rev() {
            for _ in 0..k {
                acc = acc.double();
            }
            acc = acc.add(w);
        }
        let report = self.stage::<C>(n, k, windows, &unit_loads);
        MsmRun {
            result: acc,
            report,
            stats: Default::default(),
        }
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        let n = scalars.len();
        let k = self.k_for(n);
        let windows = scalars.num_windows(k);
        let chunk = self.chunk_for(n);
        let subs = n.div_ceil(chunk);
        // Split each window's load evenly across sub-MSMs (digits are
        // homogeneous across the index range for our workloads).
        let loads = window_loads(scalars, k);
        let unit_loads: Vec<Vec<u64>> = (0..subs)
            .map(|_| loads.iter().map(|&l| l / subs as u64).collect())
            .collect();
        self.stage::<C>(n, k, windows, &unit_loads)
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        let k = self.k_for(n);
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        let windows = bits.div_ceil(k) as usize;
        let unit_loads = self.dense_unit_loads(n, k, windows);
        self.stage::<C>(n, k, windows, &unit_loads)
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        let cost = CurveCost::of::<C>();
        let k = self.k_for(n);
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        let windows = bits.div_ceil(k) as u64;
        let subs = n.div_ceil(self.chunk_for(n)) as u64;
        // Inputs + per-(sub, window) bucket arrays + window partials.
        n as u64 * (cost.affine_bytes() + (bits as u64).div_ceil(64) * 8)
            + windows * subs * ((1u64 << k) - 1) * cost.jacobian_bytes()
            + windows * cost.jacobian_bytes()
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
        let mut rng = StdRng::seed_from_u64(21);
        let n = 200;
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let run = SubMsmPippenger::new(v100()).msm(&pts, &sv);
        assert_eq!(run.result, naive_msm(&pts, &sv));
    }

    #[test]
    fn chunking_invariance() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 65;
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let expect = naive_msm(&pts, &sv);
        for chunk in [1usize, 7, 64, 65, 1000] {
            let mut e = SubMsmPippenger::new(v100());
            e.chunk = Some(chunk);
            assert_eq!(e.msm(&pts, &sv).result, expect, "chunk={chunk}");
        }
    }

    #[test]
    fn sparse_scalars_leave_reduction_cost() {
        // With 0/1 scalars only window 0 has accumulation work, but the
        // per-window bucket reductions are unconditional: the sparse plan
        // must stay a large fraction of the dense plan — bellperson cannot
        // exploit sparsity (§4.2).
        let n = 1 << 12;
        let scalars: Vec<Fr> = vec![Fr::one(); n];
        let sv = ScalarVec::from_field(&scalars);
        let e = SubMsmPippenger::new(v100());
        let sparse_t = MsmEngine::<G1Config>::plan(&e, &sv).total_ns();
        let dense_t = MsmEngine::<G1Config>::plan_dense(&e, n).total_ns();
        assert!(sparse_t < dense_t);
        assert!(
            sparse_t > dense_t * 0.25,
            "sparse {sparse_t} vs dense {dense_t}: reduction cost must remain"
        );
    }
}
