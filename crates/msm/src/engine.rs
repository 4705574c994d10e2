//! The common MSM engine interface and shared cost-model helpers.

use crate::scalars::ScalarVec;
use gzkp_curves::{Affine, CurveParams, Projective};
use gzkp_ff::Field;
use gzkp_gpu_sim::device::{field_add_macs, field_mul_macs};
use gzkp_gpu_sim::kernel::StageReport;
use gzkp_telemetry::{emit_stage, TelemetrySink};

/// Result of a functional MSM run: the inner product and the simulated
/// execution report.
#[derive(Debug)]
pub struct MsmRun<C: CurveParams> {
    /// `Σ sᵢ ⊗ Pᵢ`.
    pub result: Projective<C>,
    /// Simulated time breakdown.
    pub report: StageReport,
    /// Work counters from the run (zero for engines without batch-affine
    /// accumulation).
    pub stats: MsmStats,
}

/// Aggregate work counters an engine collects while running, surfaced
/// through telemetry by [`MsmEngine::emit_msm_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsmStats {
    /// Affine PADDs performed through Montgomery-batched rounds.
    pub batch_padds: u64,
    /// Field inversions actually executed by the batch accumulator.
    pub batch_inversions: u64,
    /// Bucket-range shards the task was split into by the memory plan
    /// (0 for engines without a sharded path, 1 for a whole-task run).
    pub shards: u64,
}

impl MsmStats {
    /// Field inversions amortized away by batching (each batched PADD
    /// would otherwise need its own inversion).
    pub(crate) fn inversions_saved(&self) -> u64 {
        self.batch_padds.saturating_sub(self.batch_inversions)
    }
}

/// A multi-scalar-multiplication engine.
///
/// Every engine computes the same inner product (cross-validated in tests);
/// they differ in algorithm and execution structure, which the cost model
/// prices per DESIGN.md.
pub trait MsmEngine<C: CurveParams>: Send + Sync {
    /// Engine label for reports ("BG", "MINA", "GZKP", …).
    fn name(&self) -> String;

    /// Functional MSM plus simulated cost.
    ///
    /// # Panics
    ///
    /// Panics if `points.len() != scalars.len()`.
    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C>;

    /// Cost model driven by the actual scalar digits (captures sparsity and
    /// load imbalance) without touching any points.
    fn plan(&self, scalars: &ScalarVec) -> StageReport;

    /// Cost model for dense uniform scalars at scale `n` (the Tables 7/8
    /// microbenchmark sweeps, where running 2²⁶ functionally is pointless).
    fn plan_dense(&self, n: usize) -> StageReport;

    /// Device-memory footprint at scale `n` in bytes (Figure 9). Includes
    /// input points/scalars plus all engine-private structures.
    fn memory_bytes(&self, n: usize) -> u64;

    /// Whether the engine fits in device memory at scale `n` (Table 7's
    /// "-" rows are MINA exceeding V100 memory).
    fn fits_in_memory(&self, n: usize, device_mem: u64) -> bool {
        self.memory_bytes(n) <= device_mem
    }

    /// Emits the telemetry for a finished [`Self::msm`] run: per-kernel
    /// reports, rolled-up MAC/DRAM counters, and the engine's peak
    /// simulated device memory. Engines with richer internal state
    /// (e.g. [`crate::GzkpMsm`]'s bucket loads) override this to add
    /// PADD/PDBL counts and occupancy histograms.
    ///
    /// Split from [`Self::msm_traced`] so an engine that wraps another
    /// (`gzkp_runtime::CrossDeviceMsm`) can emit the inner engine's
    /// telemetry for its own run.
    fn emit_msm_telemetry(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        run: &MsmRun<C>,
        sink: &dyn TelemetrySink,
    ) {
        let _ = scalars;
        if sink.enabled() {
            emit_stage(sink, &run.report);
            sink.value(
                gzkp_telemetry::names::PEAK_DEVICE_BYTES,
                self.memory_bytes(points.len()) as f64,
            );
        }
    }

    /// [`Self::msm`] plus [`Self::emit_msm_telemetry`]. With a disabled
    /// sink (`gzkp_telemetry::NoopSink`) this is one branch on top of
    /// `msm`.
    fn msm_traced(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        sink: &dyn TelemetrySink,
    ) -> MsmRun<C> {
        let run = self.msm(points, scalars);
        self.emit_msm_telemetry(points, scalars, &run, sink);
        run
    }
}

/// Per-curve arithmetic pricing, extension-degree aware.
#[derive(Debug, Clone, Copy)]
pub struct CurveCost {
    /// 64-bit limbs of the prime subfield.
    pub base_limbs: usize,
    /// Extension degree of the coordinate field (1 = G1, 2 = G2).
    pub ext_degree: usize,
}

impl CurveCost {
    /// Pricing for curve `C`.
    pub fn of<C: CurveParams>() -> Self {
        Self {
            base_limbs: <C::Base as Field>::base_limbs(),
            ext_degree: <C::Base as Field>::extension_degree(),
        }
    }

    /// MACs per coordinate-field multiplication (Karatsuba for Fp2: 3 muls).
    pub(crate) fn field_mul(&self) -> f64 {
        let base = field_mul_macs(self.base_limbs);
        match self.ext_degree {
            1 => base,
            2 => 3.0 * base + 5.0 * field_add_macs(self.base_limbs),
            d => (d * d) as f64 * base, // generic (unused in practice)
        }
    }

    /// MACs per coordinate-field addition.
    pub(crate) fn field_add(&self) -> f64 {
        self.ext_degree as f64 * field_add_macs(self.base_limbs)
    }

    /// Field multiplications per full Jacobian PADD (11M + 5S).
    pub(crate) const PADD_MULS: f64 = 16.0;

    /// Field multiplications per mixed (Jacobian + affine) addition
    /// (7M + 4S).
    pub(crate) const PADD_MIXED_MULS: f64 = 11.0;

    /// Field multiplications per batch-affine addition once Montgomery's
    /// trick has amortized its inversion: the slope, `λ²` and `y₃` (3M)
    /// plus three for its share of the batched inversion.
    pub(crate) const BATCH_AFFINE_ADD_MULS: f64 = 6.0;

    /// MACs per full Jacobian PADD.
    pub(crate) fn padd(&self) -> f64 {
        Self::PADD_MULS * self.field_mul() + 7.0 * self.field_add()
    }

    /// MACs per mixed (Jacobian + affine) addition.
    pub(crate) fn padd_mixed(&self) -> f64 {
        Self::PADD_MIXED_MULS * self.field_mul() + 7.0 * self.field_add()
    }

    /// MACs per Jacobian doubling (2M + 5S ≈ 7 muls).
    pub(crate) fn pdbl(&self) -> f64 {
        7.0 * self.field_mul() + 11.0 * self.field_add()
    }

    /// Bytes of one affine point.
    pub fn affine_bytes(&self) -> u64 {
        (2 * self.ext_degree * self.base_limbs * 8) as u64
    }

    /// Bytes of one Jacobian point.
    pub fn jacobian_bytes(&self) -> u64 {
        (3 * self.ext_degree * self.base_limbs * 8) as u64
    }

    /// Equivalent "limbs" key for the backend-speedup table (an Fq2 element
    /// behaves like a wider integer for throughput purposes).
    pub(crate) fn speedup_limbs(&self) -> usize {
        self.base_limbs
    }
}

/// Ground-truth oracle: the definitionally correct `Σ sᵢ ⊗ Pᵢ` by plain
/// double-and-add per element. O(N·l) PADDs — tests only.
pub fn naive_msm<C: CurveParams>(points: &[Affine<C>], scalars: &ScalarVec) -> Projective<C> {
    assert_eq!(points.len(), scalars.len());
    let mut acc = Projective::<C>::identity();
    for (i, p) in points.iter().enumerate() {
        acc = acc.add(&p.to_projective().mul_limbs(scalars.scalar_limbs(i)));
    }
    acc
}

/// The running-sum ("bucket reduction") identity over Jacobian bucket
/// sums: given `B_1..B_m`, computes `Σ j·B_j` with `2(m−1)` PADDs instead
/// of `m` PMULs — the classic path of [`crate::CpuMsm::serial`], the
/// oracle, and of the sub-MSM baseline.
pub(crate) fn bucket_reduce<C: CurveParams>(buckets: &[Projective<C>]) -> Projective<C> {
    let mut running = Projective::<C>::identity();
    let mut total = Projective::<C>::identity();
    for b in buckets.iter().rev() {
        running = running.add(b);
        total = total.add(&running);
    }
    total
}

/// Bucket reduction of a *shifted* slice of affine bucket sums: given
/// the sums of buckets `lo+1..lo+len` (so `buckets[i]` holds bucket
/// `lo+1+i`), computes `Σ_j (lo+1+i)·B_{lo+1+i}` via the identity
/// `Σ (lo+i)·Bᵢ = lo·ΣBᵢ + Σ i·Bᵢ` — the running sum over the slice,
/// one mixed PADD per bucket (it ends as the slice total `ΣBᵢ`), the
/// total one full PADD per bucket, plus one `lo`-weighted PMUL of the
/// running sum. This is what lets a bucket task reduce locally and hand
/// back an exact partial.
pub(crate) fn bucket_reduce_range<C: CurveParams>(buckets: &[Affine<C>], lo: u64) -> Projective<C> {
    let mut running = Projective::<C>::identity();
    let mut total = Projective::<C>::identity();
    for b in buckets.iter().rev() {
        running = running.add_mixed(b);
        total = total.add(&running);
    }
    if lo == 0 {
        return total;
    }
    total.add(&running.mul_u64(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::{Fr, G1Config};
    use gzkp_curves::random_points;
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bucket_reduce_matches_definition() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = random_points::<G1Config, _>(5, &mut rng);
        let buckets: Vec<Projective<G1Config>> = pts.iter().map(|p| p.to_projective()).collect();
        let reduced = bucket_reduce(&buckets);
        let mut expect = Projective::<G1Config>::identity();
        for (j, b) in buckets.iter().enumerate() {
            expect = expect.add(&b.mul_u64(j as u64 + 1));
        }
        assert_eq!(reduced, expect);
    }

    #[test]
    fn bucket_range_partials_recompose() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pts = random_points::<G1Config, _>(9, &mut rng);
        pts[6] = Affine::identity();
        let buckets: Vec<Projective<G1Config>> = pts.iter().map(|p| p.to_projective()).collect();
        let whole = bucket_reduce(&buckets);
        for splits in [vec![0usize, 9], vec![0, 4, 9], vec![0, 1, 2, 5, 9]] {
            let mut acc = Projective::<G1Config>::identity();
            for w in splits.windows(2) {
                acc = acc.add(&bucket_reduce_range(&pts[w[0]..w[1]], w[0] as u64));
            }
            assert_eq!(acc, whole, "splits {splits:?}");
        }
    }

    #[test]
    fn naive_msm_linear_in_scalars() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = random_points::<G1Config, _>(4, &mut rng);
        let s1: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let doubled: Vec<Fr> = s1.iter().map(|s| *s + *s).collect();
        let r1 = naive_msm(&pts, &crate::scalars::ScalarVec::from_field(&s1));
        let r2 = naive_msm(&pts, &crate::scalars::ScalarVec::from_field(&doubled));
        assert_eq!(r1.double(), r2);
    }

    #[test]
    fn curve_cost_g2_heavier_than_g1() {
        let g1 = CurveCost::of::<G1Config>();
        let g2 = CurveCost::of::<gzkp_curves::bn254::G2Config>();
        assert!(g2.padd() > 2.0 * g1.padd());
        assert_eq!(g2.affine_bytes(), 2 * g1.affine_bytes());
    }
}
