//! Layer boundaries timed from outside: wrappers over the public
//! [`GpuNttEngine`] / [`MsmEngine`] traits that record one leaf span per
//! call. Untraced ops are handed the bare engines, so these wrappers are
//! not on the path the end-to-end numbers are measured on.

use crate::trace::Tracer;
use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::StageReport;
use gzkp_msm::{MsmEngine, MsmRun, ScalarVec};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{Direction, Radix2Domain};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Records an `ntt` span per transform; the span's work is the
/// transform's butterfly count, `n/2 · log n`.
pub struct TracedNtt<'a, F: PrimeField> {
    /// The engine doing the work.
    pub inner: &'a dyn GpuNttEngine<F>,
    /// Where spans go.
    pub tracer: &'a Tracer,
}

impl<F: PrimeField> GpuNttEngine<F> for TracedNtt<'_, F> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport {
        let start = Instant::now();
        let report = self.inner.transform(domain, data, dir);
        let butterflies = (domain.size / 2) as u64 * u64::from(domain.log_n);
        self.tracer.leaf("ntt", start, Instant::now(), butterflies);
        report
    }
    fn cost(&self, log_n: u32) -> StageReport {
        self.inner.cost(log_n)
    }
}

/// Records one span per MSM (work = points) and sums the exact
/// batch-affine counters of [`MsmRun::stats`].
pub struct TracedMsm<'a, C: CurveParams> {
    /// The engine doing the work.
    pub inner: &'a dyn MsmEngine<C>,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Span name: `msm.g1` or `msm.g2`.
    pub span: &'static str,
    /// Σ `stats.batch_padds` over traced calls.
    pub batch_padds: AtomicU64,
    /// Σ `stats.batch_inversions` over traced calls.
    pub batch_inversions: AtomicU64,
}

impl<'a, C: CurveParams> TracedMsm<'a, C> {
    /// Wraps `inner`, naming its spans `span`.
    pub fn new(inner: &'a dyn MsmEngine<C>, tracer: &'a Tracer, span: &'static str) -> Self {
        Self {
            inner,
            tracer,
            span,
            batch_padds: AtomicU64::new(0),
            batch_inversions: AtomicU64::new(0),
        }
    }
}

impl<C: CurveParams> MsmEngine<C> for TracedMsm<'_, C> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        let start = Instant::now();
        let run = self.inner.msm(points, scalars);
        self.tracer
            .leaf(self.span, start, Instant::now(), points.len() as u64);
        // Statistics only: they publish no other data.
        self.batch_padds
            .fetch_add(run.stats.batch_padds, Ordering::Relaxed);
        self.batch_inversions
            .fetch_add(run.stats.batch_inversions, Ordering::Relaxed);
        run
    }
    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        self.inner.plan(scalars)
    }
    fn plan_dense(&self, n: usize) -> StageReport {
        self.inner.plan_dense(n)
    }
    fn memory_bytes(&self, n: usize) -> u64 {
        self.inner.memory_bytes(n)
    }
}
