//! # gzkp-telemetry — structured prover observability
//!
//! One vocabulary ([`names`]) for two kinds of record:
//!
//! * **Traces, after a run.** Engines and the prover report into a
//!   [`TelemetrySink`]; the default [`NoopSink`] costs one `enabled()`
//!   branch per stage. A [`TraceRecorder`] builds the span tree
//!   (`prove → poly → ntt[i]`, `prove → msm → {a, b_g1, b_g2, h, l}`) with
//!   per-span kernels, counters, max-kept gauges and histograms, and
//!   finishes into a versioned [`Trace`] (`gzkp-trace.json`).
//!   [`diff`] compares two traces for `zkprof diff`; [`flame`] exports
//!   folded stacks.
//! * **Metrics, while a service runs.** [`metrics`] holds the lock-free
//!   series and the [`MetricsSnapshot`] read from them, [`slo`] judges a
//!   snapshot against an [`SloPolicy`], and [`export`] renders it
//!   (Prometheus text, the periodic file exporter, `zkserve top`).
//!
//! Spans measure *simulated* nanoseconds from the cost model, not wall
//! clock, so no tracing framework is needed: a recorder is a tree
//! builder behind a mutex.

#![warn(missing_docs)]

pub mod diff;
pub mod export;
pub mod flame;
pub mod metrics;
pub mod names;
pub mod slo;
pub mod trace;

pub use diff::{diff_traces, Delta, DeltaKind, TraceDiff};
pub use export::{render_top, SnapshotExporter};
pub use flame::folded_stacks;
pub use metrics::{
    Counter, Gauge, HistogramSample, LatencyHistogram, MetricsRegistry, MetricsSnapshot,
};
pub use slo::{ClusterSloRow, SloAlert, SloPolicy, SloReport};
pub use trace::{
    render_timeline, render_trace, Histogram, Trace, TraceError, TraceNode, SCHEMA_VERSION,
};

use gzkp_gpu_sim::kernel::{KernelReport, StageReport};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Sink trait + no-op default
// ---------------------------------------------------------------------------

/// Receiver of telemetry events from engines and the prover.
///
/// All methods have no-op defaults; implementors override what they
/// consume. Instrumented call sites must guard non-trivial event
/// preparation with [`TelemetrySink::enabled`] so disabled sinks cost a
/// single predictable branch.
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink records anything. Call sites skip event
    /// construction when `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a nested span; subsequent events attach to it until the
    /// matching [`TelemetrySink::span_end`].
    fn span_start(&self, _name: &str) {}

    /// Closes the innermost span (the name is advisory, for debugging).
    fn span_end(&self, _name: &str) {}

    /// Adds `delta` to the named counter of the current span.
    fn counter(&self, _name: &str, _delta: f64) {}

    /// Records a gauge on the current span; repeated reports keep the max
    /// (used for peaks, e.g. simulated device memory).
    fn value(&self, _name: &str, _v: f64) {}

    /// Attaches a named histogram (`(bucket_label, count)` pairs) to the
    /// current span.
    fn histogram(&self, _name: &str, _buckets: &[(u64, u64)]) {}

    /// Attaches one simulated kernel execution to the current span.
    fn kernel(&self, _report: &KernelReport) {}

    /// Adds `ns` of directly-measured time to the current span. Spans
    /// normally derive their time from the kernels they record; this hook
    /// is for spans that measure something with no kernel behind it —
    /// e.g. the proving service's wall-clock `queue_wait`.
    fn span_time(&self, _ns: f64) {}
}

/// The zero-cost default sink: records nothing, reports `enabled() ==
/// false` so call sites skip event preparation entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// RAII guard that closes a span on drop, keeping start/end balanced even
/// on early returns.
pub struct SpanGuard<'a> {
    sink: &'a dyn TelemetrySink,
    name: &'a str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.sink.span_end(self.name);
    }
}

/// Opens a span and returns the guard that closes it.
pub fn span<'a>(sink: &'a dyn TelemetrySink, name: &'a str) -> SpanGuard<'a> {
    sink.span_start(name);
    SpanGuard { sink, name }
}

// ---------------------------------------------------------------------------
// Shared emit helpers
// ---------------------------------------------------------------------------

/// Feeds one simulated stage into the sink: every kernel report, plus the
/// rolled-up [`names::MAC_OPS`] and [`names::DRAM_SECTORS`].
pub fn emit_stage(sink: &dyn TelemetrySink, stage: &StageReport) {
    let mut macs = 0.0;
    let mut sectors = 0u64;
    for k in &stage.kernels {
        sink.kernel(k);
        macs += k.mac_ops;
        sectors += k.dram_sectors;
    }
    sink.counter(names::MAC_OPS, macs);
    sink.counter(names::DRAM_SECTORS, sectors as f64);
}

/// JSON bytes of one simulated stage report: the form in which stage
/// reports ride inside proof checkpoints.
pub fn stage_report_to_json(stage: &StageReport) -> Vec<u8> {
    serde_json::to_string(stage)
        .expect("report serializes")
        .into_bytes()
}

/// Inverse of [`stage_report_to_json`] for untrusted bytes. Accepts only
/// the exact text the encoder writes, so a decoded report always
/// re-encodes to its input.
///
/// # Errors
///
/// Describes why `bytes` is not a canonical report; `which` names the
/// report in the message.
pub fn stage_report_from_json(bytes: &[u8], which: &str) -> Result<StageReport, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{which} report is not UTF-8"))?;
    let report: StageReport =
        serde_json::from_str(text).map_err(|e| format!("{which} report: {e:?}"))?;
    if stage_report_to_json(&report) != bytes {
        return Err(format!("{which} report is not in canonical form"));
    }
    Ok(report)
}

/// Log2 bucket of `v`: `b` with `v ∈ [2^b, 2^{b+1})`, zero in bucket 0
/// and `u64::MAX` in bucket 63. The one bucket rule of
/// [`log2_histogram`] and of every [`LatencyHistogram`].
pub(crate) fn log2_bucket(v: u64) -> usize {
    v.checked_ilog2().unwrap_or(0) as usize
}

/// Builds a power-of-two histogram of `values`: bucket label `b` counts
/// values in `[2^b, 2^{b+1})`; label 0 additionally counts zeros.
pub fn log2_histogram(values: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut counts = [0u64; 64];
    for v in values {
        counts[log2_bucket(v)] += 1;
    }
    (0..).zip(counts).filter(|&(_, c)| c > 0).collect()
}

// ---------------------------------------------------------------------------
// The recording sink
// ---------------------------------------------------------------------------

/// A [`TelemetrySink`] that builds the span tree of one prover run and
/// produces a [`Trace`].
///
/// Interior mutability (a `std::sync::Mutex`) keeps the sink usable
/// through `&dyn TelemetrySink`; events are tree edits, so contention is
/// negligible next to the work being traced.
pub struct TraceRecorder {
    inner: Mutex<RecorderState>,
    device: String,
}

struct RecorderState {
    root: TraceNode,
    /// Child-index path from the root to the currently open span.
    path: Vec<usize>,
}

impl TraceRecorder {
    /// Fresh recorder; `device` labels the trace (e.g. `"V100"`).
    pub fn new(device: impl Into<String>) -> Self {
        Self {
            inner: Mutex::new(RecorderState {
                root: TraceNode::new("root"),
                path: Vec::new(),
            }),
            device: device.into(),
        }
    }

    fn with_current<R>(&self, f: impl FnOnce(&mut TraceNode) -> R) -> R {
        let mut st = self.inner.lock().unwrap();
        let st = &mut *st;
        let mut node = &mut st.root;
        for &i in &st.path {
            node = &mut node.children[i];
        }
        f(node)
    }

    /// Consumes the recorder into a versioned [`Trace`], filling every
    /// span's `time_ns` from its kernels and children (plus any time the
    /// span recorded directly via [`TelemetrySink::span_time`]).
    pub fn finish(self) -> Trace {
        let mut st = self.inner.into_inner().unwrap();
        fn fixup(node: &mut TraceNode) -> f64 {
            let own: f64 = node.kernels.iter().map(|k| k.time_ns).sum();
            let children: f64 = node.children.iter_mut().map(fixup).sum();
            node.time_ns += own + children;
            node.time_ns
        }
        fixup(&mut st.root);
        Trace {
            schema_version: SCHEMA_VERSION,
            tool: "gzkp".to_string(),
            device: self.device,
            root: st.root,
        }
    }
}

impl TelemetrySink for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str) {
        let mut st = self.inner.lock().unwrap();
        let st = &mut *st;
        let mut node = &mut st.root;
        for &i in &st.path {
            node = &mut node.children[i];
        }
        node.children.push(TraceNode::new(name));
        let idx = node.children.len() - 1;
        st.path.push(idx);
    }

    fn span_end(&self, _name: &str) {
        let mut st = self.inner.lock().unwrap();
        st.path.pop();
    }

    fn counter(&self, name: &str, delta: f64) {
        self.with_current(|n| {
            if let Some(c) = n.counters.iter_mut().find(|(k, _)| k == name) {
                c.1 += delta;
            } else {
                n.counters.push((name.to_string(), delta));
            }
        });
    }

    fn value(&self, name: &str, v: f64) {
        self.with_current(|n| {
            if let Some(c) = n.values.iter_mut().find(|(k, _)| k == name) {
                c.1 = c.1.max(v);
            } else {
                n.values.push((name.to_string(), v));
            }
        });
    }

    fn histogram(&self, name: &str, buckets: &[(u64, u64)]) {
        self.with_current(|n| {
            n.histograms.push(trace::Histogram {
                name: name.to_string(),
                buckets: buckets.to_vec(),
            });
        });
    }

    fn kernel(&self, report: &KernelReport) {
        self.with_current(|n| n.kernels.push(report.clone()));
    }

    fn span_time(&self, ns: f64) {
        self.with_current(|n| n.time_ns += ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_gpu_sim::device::{v100, Backend};
    use gzkp_gpu_sim::kernel::{simulate_kernel, BlockCost, KernelSpec};

    fn sample_kernel(name: &str) -> KernelReport {
        let dev = v100();
        let spec = KernelSpec::uniform(
            name,
            256,
            0,
            Backend::Integer,
            4,
            80,
            BlockCost {
                mac_ops: 1e5,
                dram_sectors: 64,
                shared_bytes: 0,
            },
        );
        simulate_kernel(&dev, &spec)
    }

    #[test]
    fn recorder_builds_span_tree() {
        let rec = TraceRecorder::new("V100");
        {
            let _prove = span(&rec, "prove");
            {
                let _poly = span(&rec, "poly");
                for i in 0..3 {
                    let name = format!("ntt[{i}]");
                    let _ntt = span(&rec, &name);
                    rec.kernel(&sample_kernel("butterfly.0"));
                    rec.counter(names::MAC_OPS, 1e5 * 80.0);
                }
            }
            {
                let _msm = span(&rec, "msm");
                let _a = span(&rec, "a");
                rec.kernel(&sample_kernel("gzkp.point-merge"));
                rec.value(names::PEAK_DEVICE_BYTES, 1e9);
                rec.value(names::PEAK_DEVICE_BYTES, 5e8); // max is kept
                rec.histogram("bucket_occupancy", &[(0, 10), (3, 5)]);
            }
        }
        let trace = rec.finish();
        let poly = trace.find(&["prove", "poly"]).unwrap();
        assert_eq!(poly.children.len(), 3);
        assert!(poly.time_ns > 0.0);
        let ntt1 = trace.find(&["prove", "poly", "ntt[1]"]).unwrap();
        assert_eq!(ntt1.counter(names::MAC_OPS), Some(8e6));
        let a = trace.find(&["prove", "msm", "a"]).unwrap();
        assert_eq!(a.value(names::PEAK_DEVICE_BYTES), Some(1e9));
        assert_eq!(a.histograms.len(), 1);
        // Parent time aggregates children.
        let prove = trace.find(&["prove"]).unwrap();
        assert!((prove.time_ns - (poly.time_ns + a.time_ns)).abs() < 1e-6);
    }

    #[test]
    fn counters_accumulate_and_values_max() {
        let rec = TraceRecorder::new("d");
        rec.counter("x", 1.0);
        rec.counter("x", 2.5);
        rec.value("peak", 3.0);
        rec.value("peak", 2.0);
        let t = rec.finish();
        assert_eq!(t.root.counter("x"), Some(3.5));
        assert_eq!(t.root.value("peak"), Some(3.0));
    }

    #[test]
    fn emit_stage_rolls_up() {
        let rec = TraceRecorder::new("d");
        let mut stage = gzkp_gpu_sim::kernel::StageReport::new("s");
        stage.kernels.push(sample_kernel("k1"));
        stage.kernels.push(sample_kernel("k2"));
        emit_stage(&rec, &stage);
        let t = rec.finish();
        assert_eq!(t.root.kernels.len(), 2);
        assert_eq!(t.root.counter(names::MAC_OPS), Some(2.0 * 80.0 * 1e5));
        assert_eq!(t.root.counter(names::DRAM_SECTORS), Some(2.0 * 80.0 * 64.0));
    }

    #[test]
    fn log2_histogram_buckets() {
        let h = log2_histogram([0u64, 1, 1, 2, 3, 8, 9, 1024].into_iter());
        // zeros+ones land in bucket 0; 2..3 in bucket 1; 8..9 in 3; 1024 in 10.
        assert_eq!(h, vec![(0, 3), (1, 2), (3, 2), (10, 1)]);
    }

    #[test]
    fn log2_histogram_edge_cases_are_total() {
        // Empty input: an empty (not panicking) histogram.
        assert_eq!(log2_histogram(std::iter::empty()), vec![]);
        // Single sample: exactly one bucket with count 1.
        assert_eq!(log2_histogram([7u64].into_iter()), vec![(2, 1)]);
        assert_eq!(log2_histogram([0u64].into_iter()), vec![(0, 1)]);
        // u64::MAX has zero leading zeros and must land in bucket 63
        // without shifting out of range.
        assert_eq!(log2_histogram([u64::MAX].into_iter()), vec![(63, 1)]);
        assert_eq!(
            log2_histogram([0, 1, u64::MAX, u64::MAX].into_iter()),
            vec![(0, 2), (63, 2)]
        );
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        // And all events are accepted without effect.
        NoopSink.span_start("x");
        NoopSink.counter("c", 1.0);
        NoopSink.span_end("x");
    }
}
