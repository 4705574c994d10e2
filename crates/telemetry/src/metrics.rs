//! Live metrics: a lock-free registry, periodic snapshots (JSON +
//! Prometheus text exposition), SLO tracking with burn-rate alerts, and
//! the `zkserve top` dashboard rendering.
//!
//! The existing [`crate::TraceRecorder`] answers "where did the time go"
//! *after* a run; this module answers "how is the fleet doing *right
//! now*" while it runs. Design points:
//!
//! * **Registration is locked, recording is not.** Creating a series
//!   takes a registry mutex once; the returned handle ([`Counter`],
//!   [`Gauge`], [`LatencyHistogram`]) is an `Arc` around plain atomics,
//!   so the hot path is `fetch_add`/`store` with relaxed ordering — no
//!   lock, no allocation, no syscall. Re-registering an existing
//!   `(name, label)` returns a handle to the *same* cells, which is what
//!   makes totals exact when many workers record into one series.
//! * **Histograms are fixed 64-bucket log2.** Bucket `b` counts values in
//!   `[2^b, 2^{b+1})` (zeros fold into bucket 0, `u64::MAX` lands in
//!   bucket 63), plus exact `count` and `sum` cells. Percentile
//!   extraction walks the cumulative counts and reports the bucket's
//!   upper bound — a ≤2× overestimate by construction, never an invented
//!   value, and total on every edge case (empty → `None`).
//! * **Snapshots are plain serde structs.** [`MetricsSnapshot`] is the
//!   wire form: versioned, JSON round-trippable, convertible to the
//!   Prometheus text exposition format, and the input the
//!   [`SloTracker`] and dashboards evaluate — so a snapshot written by a
//!   run and one scraped live are the same thing.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::names;

/// Version of the snapshot wire format. [`MetricsSnapshot::from_json`]
/// rejects mismatches the same way traces do.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Fixed bucket count of every latency histogram: one bucket per power
/// of two across the full `u64` range.
const BUCKETS: usize = 64;

/// Log2 bucket index of a value: `v ∈ [2^b, 2^{b+1})`, zeros in bucket 0,
/// `u64::MAX` in bucket 63. Total on all of `u64`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `b` — the value percentile extraction
/// reports for samples in the bucket. Saturates at `u64::MAX` for the
/// top bucket.
fn bucket_upper(b: u64) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Lock-free monotonic counter handle. Cheap to clone; clones share the
/// same cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free `f64` gauge handle (value stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared cells of one latency histogram: 64 log2 buckets plus exact
/// count and sum.
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Lock-free latency histogram handle. `record` is three relaxed atomic
/// adds; percentiles come from snapshots, not the handle.
#[derive(Clone)]
pub struct LatencyHistogram(Arc<HistogramCells>);

impl LatencyHistogram {
    /// Records one sample (nanoseconds by convention; any `u64` works).
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Identity of one series: a name from [`crate::names`] plus an optional
/// `(key, value)` label (`("device", "dev0")`, `("stage", "msm")`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    label: Option<(String, String)>,
}

#[derive(Default)]
struct RegistryState {
    counters: Vec<(MetricKey, Arc<AtomicU64>)>,
    gauges: Vec<(MetricKey, Arc<AtomicU64>)>,
    histograms: Vec<(MetricKey, Arc<HistogramCells>)>,
}

/// The live metrics registry: series registration (locked, rare) and
/// snapshotting on one side, lock-free handles on the other.
pub struct MetricsRegistry {
    state: Mutex<RegistryState>,
    start: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Empty registry; uptime counts from here.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(RegistryState::default()),
            start: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-attaches to) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_key(MetricKey {
            name: name.to_string(),
            label: None,
        })
    }

    /// Registers (or re-attaches to) a labeled counter, e.g.
    /// `("device", "dev0")`.
    pub fn counter_with(&self, name: &str, label_key: &str, label_value: &str) -> Counter {
        self.counter_key(MetricKey {
            name: name.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
        })
    }

    fn counter_key(&self, key: MetricKey) -> Counter {
        let mut st = self.lock();
        if let Some((_, cell)) = st.counters.iter().find(|(k, _)| *k == key) {
            return Counter(cell.clone());
        }
        let cell = Arc::new(AtomicU64::new(0));
        st.counters.push((key, cell.clone()));
        Counter(cell)
    }

    /// Registers (or re-attaches to) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_key(MetricKey {
            name: name.to_string(),
            label: None,
        })
    }

    /// Registers (or re-attaches to) a labeled gauge.
    pub fn gauge_with(&self, name: &str, label_key: &str, label_value: &str) -> Gauge {
        self.gauge_key(MetricKey {
            name: name.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
        })
    }

    fn gauge_key(&self, key: MetricKey) -> Gauge {
        let mut st = self.lock();
        if let Some((_, cell)) = st.gauges.iter().find(|(k, _)| *k == key) {
            return Gauge(cell.clone());
        }
        let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
        st.gauges.push((key, cell.clone()));
        Gauge(cell)
    }

    /// Registers (or re-attaches to) an unlabeled latency histogram.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        self.histogram_key(MetricKey {
            name: name.to_string(),
            label: None,
        })
    }

    /// Registers (or re-attaches to) a labeled latency histogram, e.g.
    /// `("stage", "msm")`.
    pub fn histogram_with(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> LatencyHistogram {
        self.histogram_key(MetricKey {
            name: name.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
        })
    }

    fn histogram_key(&self, key: MetricKey) -> LatencyHistogram {
        let mut st = self.lock();
        if let Some((_, cell)) = st.histograms.iter().find(|(k, _)| *k == key) {
            return LatencyHistogram(cell.clone());
        }
        let cell = Arc::new(HistogramCells::new());
        st.histograms.push((key, cell.clone()));
        LatencyHistogram(cell)
    }

    /// Nanoseconds since the registry was created.
    pub fn uptime_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Samples every series into a serializable [`MetricsSnapshot`],
    /// sorted by `(name, label)` so output is deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with(None)
    }

    /// [`MetricsRegistry::snapshot`] with an SLO evaluation attached.
    pub fn snapshot_with(&self, tracker: Option<&SloTracker>) -> MetricsSnapshot {
        let st = self.lock();
        let mut counters: Vec<CounterSample> = st
            .counters
            .iter()
            .map(|(k, cell)| CounterSample {
                name: k.name.clone(),
                label: k.label.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut gauges: Vec<GaugeSample> = st
            .gauges
            .iter()
            .map(|(k, cell)| GaugeSample {
                name: k.name.clone(),
                label: k.label.clone(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut histograms: Vec<HistogramSample> = st
            .histograms
            .iter()
            .map(|(k, cell)| HistogramSample {
                name: k.name.clone(),
                label: k.label.clone(),
                count: cell.count.load(Ordering::Relaxed),
                sum: cell.sum.load(Ordering::Relaxed),
                buckets: cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(b, c)| {
                        let c = c.load(Ordering::Relaxed);
                        (c > 0).then_some((b as u64, c))
                    })
                    .collect(),
            })
            .collect();
        histograms.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        drop(st);
        let mut snap = MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            uptime_ns: self.uptime_ns(),
            counters,
            gauges,
            histograms,
            slo: None,
        };
        if let Some(tracker) = tracker {
            snap.slo = Some(tracker.evaluate(&snap));
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &st.counters.len())
            .field("gauges", &st.gauges.len())
            .field("histograms", &st.histograms.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Snapshot (wire form)
// ---------------------------------------------------------------------------

/// One counter series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Series name (see [`crate::names`]).
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// Sampled value.
    pub value: u64,
}

/// One gauge series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Series name.
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// Sampled value.
    pub value: f64,
}

/// One histogram series in a snapshot: sparse log2 buckets plus exact
/// count and sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Series name.
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// Exact sample count.
    pub count: u64,
    /// Exact sample sum (wrapping on overflow).
    pub sum: u64,
    /// Sparse `(log2_bucket, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSample {
    /// The value at quantile `q ∈ [0, 1]`, reported as the containing
    /// log2 bucket's upper bound (≤2× overestimate, never an invented
    /// value). Total on edge cases: empty histograms return `None`, a
    /// single sample answers every quantile, out-of-range or NaN `q`
    /// clamps to the nearest valid rank, and samples of `u64::MAX`
    /// report `u64::MAX`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(b, c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Some(bucket_upper(b));
            }
        }
        // Bucket counts should cover `count`; if a racing snapshot left
        // them short, answer with the top recorded bucket.
        self.buckets.last().map(|&(b, _)| bucket_upper(b))
    }

    /// Median (see [`HistogramSample::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Exact mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A point-in-time sample of every series in a [`MetricsRegistry`] —
/// the JSON wire form, the Prometheus exposition source, and the input
/// to SLO evaluation and dashboards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wire-format version; see [`METRICS_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Nanoseconds the registry had been alive when sampled.
    pub uptime_ns: u64,
    /// Counter series, sorted by `(name, label)`.
    pub counters: Vec<CounterSample>,
    /// Gauge series, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// Histogram series, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
    /// SLO evaluation attached by the exporter, when configured.
    pub slo: Option<SloReport>,
}

impl MetricsSnapshot {
    /// Value of an unlabeled counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label.is_none())
            .map(|c| c.value)
    }

    /// Sum of a counter over all its labels (and the unlabeled series).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of a labeled counter.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.label
                        .as_ref()
                        .is_some_and(|(k, v)| k == key && v == value)
            })
            .map(|c| c.value)
    }

    /// Value of an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label.is_none())
            .map(|g| g.value)
    }

    /// Value of a labeled gauge.
    pub fn gauge_labeled(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && g.label
                        .as_ref()
                        .is_some_and(|(k, v)| k == key && v == value)
            })
            .map(|g| g.value)
    }

    /// An unlabeled histogram series.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label.is_none())
    }

    /// A labeled histogram series.
    pub fn histogram_labeled(
        &self,
        name: &str,
        key: &str,
        value: &str,
    ) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| {
            h.name == name
                && h.label
                    .as_ref()
                    .is_some_and(|(k, v)| k == key && v == value)
        })
    }

    /// Distinct values of `label_key` across all series, sorted —
    /// e.g. the device set of a fleet snapshot.
    pub fn label_values(&self, label_key: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |label: &Option<(String, String)>| {
            if let Some((k, v)) = label {
                if k == label_key && !out.contains(v) {
                    out.push(v.clone());
                }
            }
        };
        self.counters.iter().for_each(|c| push(&c.label));
        self.gauges.iter().for_each(|g| push(&g.label));
        self.histograms.iter().for_each(|h| push(&h.label));
        out.sort();
        out
    }

    /// Pretty JSON wire form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses and version-checks a snapshot.
    ///
    /// # Errors
    ///
    /// A description of the parse failure or version mismatch.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let found = value
            .get("schema_version")
            .and_then(|v| v.as_u64())
            .ok_or("missing schema_version")?;
        if found != METRICS_SCHEMA_VERSION as u64 {
            return Err(format!(
                "metrics schema version {found} is not supported (expected {METRICS_SCHEMA_VERSION})"
            ));
        }
        serde::from_value(value).map_err(|e| e.0)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `gzkp_`-prefixed underscored names, one `# TYPE` line per metric,
    /// cumulative `le` buckets with `+Inf`, `_sum` and `_count` for
    /// histograms.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE gzkp_uptime_ns gauge");
        let _ = writeln!(out, "gzkp_uptime_ns {}", self.uptime_ns);
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}");
            if line != last_type_line {
                let _ = writeln!(out, "{line}");
                last_type_line = line;
            }
        };
        for c in &self.counters {
            let name = prom_name(&c.name);
            type_line(&mut out, &name, "counter");
            let _ = writeln!(out, "{name}{} {}", prom_labels(&c.label, None), c.value);
        }
        for g in &self.gauges {
            let name = prom_name(&g.name);
            type_line(&mut out, &name, "gauge");
            let _ = writeln!(
                out,
                "{name}{} {}",
                prom_labels(&g.label, None),
                prom_f64(g.value)
            );
        }
        for h in &self.histograms {
            let name = prom_name(&h.name);
            type_line(&mut out, &name, "histogram");
            let mut cum = 0u64;
            for &(b, c) in &h.buckets {
                cum = cum.saturating_add(c);
                let le = if b >= 63 {
                    "+Inf".to_string()
                } else {
                    bucket_upper(b).to_string()
                };
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    prom_labels(&h.label, Some(&le))
                );
            }
            if h.buckets.last().map(|&(b, _)| b < 63).unwrap_or(true) {
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    prom_labels(&h.label, Some("+Inf"))
                );
            }
            let _ = writeln!(out, "{name}_sum{} {}", prom_labels(&h.label, None), h.sum);
            let _ = writeln!(
                out,
                "{name}_count{} {}",
                prom_labels(&h.label, None),
                h.count
            );
        }
        out
    }
}

/// `service.queue_wait_ns` → `gzkp_service_queue_wait_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("gzkp_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a label set: the series label plus an optional `le` bound.
fn prom_labels(label: &Option<(String, String)>, le: Option<&str>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some((k, v)) = label {
        parts.push(format!("{k}=\"{v}\""));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Prometheus float formatting: integral values print bare, others with
/// enough precision to round-trip.
fn prom_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// SLO tracking
// ---------------------------------------------------------------------------

/// Thresholds the [`SloTracker`] evaluates a snapshot against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Max fraction of resolved jobs that may miss their deadline.
    pub max_deadline_miss_rate: f64,
    /// Max acceptable queue-wait p99 (wall-clock nanoseconds).
    pub max_queue_wait_p99_ns: u64,
    /// Max fraction of a device's timeline it may spend quarantined.
    pub max_quarantine_frac: f64,
    /// Min compute utilization expected of a device that ran at least
    /// one stage; `0.0` disables the check.
    pub min_device_util: f64,
    /// Max jobs a cluster run may lose (admitted but neither resolved
    /// nor still queued/in-flight anywhere). Only evaluated when the
    /// snapshot carries cluster counters; the default budget is zero —
    /// a host kill must never lose work.
    pub max_cluster_lost_jobs: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            max_deadline_miss_rate: 0.01,
            max_queue_wait_p99_ns: 5_000_000_000,
            max_quarantine_frac: 0.25,
            min_device_util: 0.0,
            max_cluster_lost_jobs: 0,
        }
    }
}

/// One fired alert: which SLO, what was observed, the threshold, and the
/// burn rate (how many times over budget the observation is; `inf` when
/// the budget is zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAlert {
    /// SLO identifier (`"deadline_miss_rate"`,
    /// `"quarantine_frac[dev1]"`, …).
    pub slo: String,
    /// Observed value.
    pub observed: f64,
    /// Policy threshold it breached.
    pub threshold: f64,
    /// `observed / threshold` (for lower-bound SLOs,
    /// `threshold / observed`); `inf` when the denominator is zero.
    pub burn_rate: f64,
}

/// Per-device row of an SLO report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSloRow {
    /// Device label (`"dev0"`).
    pub device: String,
    /// Stages the device executed.
    pub stages: u64,
    /// Compute-engine utilization (`busy_ns / elapsed_ns`, 0 when idle).
    pub busy_frac: f64,
    /// Fraction of the device's timeline spent quarantined.
    pub quarantine_frac: f64,
    /// Times the device's circuit breaker tripped.
    pub quarantines: u64,
}

/// Cluster-level section of an SLO report, present when the snapshot
/// carries cluster counters (`cluster.admitted` et al.).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSloRow {
    /// Jobs admitted past the cluster front door.
    pub admitted: u64,
    /// Jobs that produced a proof.
    pub completed: u64,
    /// Jobs that failed permanently (including deadline misses).
    pub failed: u64,
    /// Checkpointed resumes after host kills.
    pub resumes: u64,
    /// Chaos host kills fired.
    pub host_kills: u64,
    /// Jobs unaccounted for: admitted minus resolved minus still
    /// queued/in-flight. Non-zero at rest means a kill lost work.
    pub lost: u64,
    /// Hosts currently up.
    pub hosts_up: u64,
}

/// The SLO evaluation of one snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Jobs with a terminal outcome (completed + missed + cancelled +
    /// failed + drained).
    pub resolved: u64,
    /// Jobs that missed their deadline.
    pub deadline_missed: u64,
    /// `deadline_missed / resolved` (0 when nothing resolved).
    pub deadline_miss_rate: f64,
    /// Queue-wait p99 in wall-clock nanoseconds (`None` before any job
    /// was scheduled).
    pub queue_wait_p99_ns: Option<u64>,
    /// Per-device utilization/quarantine rows, sorted by device.
    pub devices: Vec<DeviceSloRow>,
    /// Cluster accounting, when the snapshot has cluster counters.
    pub cluster: Option<ClusterSloRow>,
    /// Fired alerts, in evaluation order.
    pub alerts: Vec<SloAlert>,
    /// `alerts.is_empty()` — the one-bit summary CI gates on.
    pub healthy: bool,
}

impl SloReport {
    /// One-line-per-fact text form for CLI output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo: {}  resolved {}  deadline-miss-rate {:.4}  queue-wait p99 {}",
            if self.healthy { "OK" } else { "ALERT" },
            self.resolved,
            self.deadline_miss_rate,
            match self.queue_wait_p99_ns {
                Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
                None => "n/a".to_string(),
            }
        );
        if let Some(c) = &self.cluster {
            let _ = writeln!(
                out,
                "slo: cluster admitted {}  completed {}  failed {}  resumes {}  \
                 host-kills {}  lost {}  hosts-up {}",
                c.admitted, c.completed, c.failed, c.resumes, c.host_kills, c.lost, c.hosts_up
            );
        }
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "slo: ALERT {}  observed {:.4}  threshold {:.4}  burn {:.2}x",
                a.slo, a.observed, a.threshold, a.burn_rate
            );
        }
        out
    }
}

/// Evaluates snapshots against an [`SloPolicy`].
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    /// The thresholds applied on every evaluation.
    pub policy: SloPolicy,
}

/// `observed / threshold`, `inf` when over a zero budget, 0 otherwise.
fn burn_rate(observed: f64, threshold: f64) -> f64 {
    if threshold > 0.0 {
        observed / threshold
    } else if observed > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

impl SloTracker {
    /// Tracker with the given thresholds.
    pub fn new(policy: SloPolicy) -> Self {
        Self { policy }
    }

    /// Computes the SLO report for one snapshot (live or deserialized —
    /// CI re-evaluates written snapshots with this same code path).
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> SloReport {
        let completed = snap.counter(names::SERVICE_COMPLETED).unwrap_or(0);
        let missed = snap.counter(names::SERVICE_DEADLINE_MISSED).unwrap_or(0);
        let cancelled = snap.counter(names::SERVICE_CANCELLED).unwrap_or(0);
        let failed = snap.counter(names::SERVICE_FAILED).unwrap_or(0);
        let drained = snap.counter(names::SERVICE_DRAINED).unwrap_or(0);
        let resolved = completed + missed + cancelled + failed + drained;
        let miss_rate = if resolved > 0 {
            missed as f64 / resolved as f64
        } else {
            0.0
        };
        let queue_p99 = snap
            .histogram(names::SERVICE_QUEUE_WAIT_NS)
            .and_then(|h| h.p99());

        let mut alerts = Vec::new();
        if miss_rate > self.policy.max_deadline_miss_rate {
            alerts.push(SloAlert {
                slo: "deadline_miss_rate".to_string(),
                observed: miss_rate,
                threshold: self.policy.max_deadline_miss_rate,
                burn_rate: burn_rate(miss_rate, self.policy.max_deadline_miss_rate),
            });
        }
        if let Some(p99) = queue_p99 {
            if p99 > self.policy.max_queue_wait_p99_ns {
                alerts.push(SloAlert {
                    slo: "queue_wait_p99_ns".to_string(),
                    observed: p99 as f64,
                    threshold: self.policy.max_queue_wait_p99_ns as f64,
                    burn_rate: burn_rate(p99 as f64, self.policy.max_queue_wait_p99_ns as f64),
                });
            }
        }

        let mut devices = Vec::new();
        for dev in snap.label_values("device") {
            let stages = snap
                .counter_labeled(names::DEVICE_STAGES, "device", &dev)
                .unwrap_or(0);
            let busy = snap
                .gauge_labeled(names::DEVICE_BUSY_NS, "device", &dev)
                .unwrap_or(0.0);
            let elapsed = snap
                .gauge_labeled(names::DEVICE_ELAPSED_NS, "device", &dev)
                .unwrap_or(0.0);
            let quarantine_ns = snap
                .gauge_labeled(names::DEVICE_QUARANTINE_NS, "device", &dev)
                .unwrap_or(0.0);
            let quarantines = snap
                .counter_labeled(names::QUARANTINE_EVENTS, "device", &dev)
                .unwrap_or(0);
            let busy_frac = if elapsed > 0.0 { busy / elapsed } else { 0.0 };
            let quarantine_frac = if elapsed > 0.0 {
                quarantine_ns / elapsed
            } else {
                0.0
            };
            if quarantine_frac > self.policy.max_quarantine_frac {
                alerts.push(SloAlert {
                    slo: format!("quarantine_frac[{dev}]"),
                    observed: quarantine_frac,
                    threshold: self.policy.max_quarantine_frac,
                    burn_rate: burn_rate(quarantine_frac, self.policy.max_quarantine_frac),
                });
            }
            if self.policy.min_device_util > 0.0
                && stages > 0
                && busy_frac < self.policy.min_device_util
            {
                alerts.push(SloAlert {
                    slo: format!("device_util[{dev}]"),
                    observed: busy_frac,
                    threshold: self.policy.min_device_util,
                    burn_rate: burn_rate(self.policy.min_device_util, busy_frac),
                });
            }
            devices.push(DeviceSloRow {
                device: dev,
                stages,
                busy_frac,
                quarantine_frac,
                quarantines,
            });
        }

        let cluster = self.evaluate_cluster(snap, &mut alerts);

        SloReport {
            resolved,
            deadline_missed: missed,
            deadline_miss_rate: miss_rate,
            queue_wait_p99_ns: queue_p99,
            devices,
            cluster,
            healthy: alerts.is_empty(),
            alerts,
        }
    }

    /// Cluster lost-job accounting: a job the front door admitted must
    /// be resolved (completed or failed) or still held somewhere (the
    /// fair queue or a host's in-flight set). Anything else was lost to
    /// a kill — the one failure mode checkpointed resume exists to
    /// prevent — and burns the (default zero) budget.
    fn evaluate_cluster(
        &self,
        snap: &MetricsSnapshot,
        alerts: &mut Vec<SloAlert>,
    ) -> Option<ClusterSloRow> {
        let admitted = snap.counter(names::CLUSTER_ADMITTED)?;
        let completed = snap.counter(names::CLUSTER_COMPLETED).unwrap_or(0);
        let failed = snap.counter(names::CLUSTER_FAILED).unwrap_or(0);
        let queued = snap.gauge(names::CLUSTER_QUEUE_DEPTH).unwrap_or(0.0) as u64;
        let inflight: u64 = snap
            .label_values(names::LABEL_HOST)
            .iter()
            .map(|h| {
                snap.gauge_labeled(names::HOST_INFLIGHT, names::LABEL_HOST, h)
                    .unwrap_or(0.0) as u64
            })
            .sum();
        let lost = admitted.saturating_sub(completed + failed + queued + inflight);
        if lost > self.policy.max_cluster_lost_jobs {
            alerts.push(SloAlert {
                slo: "cluster_lost_jobs".to_string(),
                observed: lost as f64,
                threshold: self.policy.max_cluster_lost_jobs as f64,
                burn_rate: burn_rate(lost as f64, self.policy.max_cluster_lost_jobs as f64),
            });
        }
        Some(ClusterSloRow {
            admitted,
            completed,
            failed,
            resumes: snap.counter(names::CLUSTER_RESUMES).unwrap_or(0),
            host_kills: snap.counter(names::CLUSTER_HOST_KILLS).unwrap_or(0),
            lost,
            hosts_up: snap.gauge(names::CLUSTER_HOSTS_UP).unwrap_or(0.0) as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// Periodic exporter
// ---------------------------------------------------------------------------

/// Background thread that periodically snapshots a registry to disk —
/// JSON always, Prometheus text alongside when a path is given — and
/// writes one final snapshot on [`SnapshotExporter::stop`] (or drop).
/// `zkserve top` follows the JSON file; a scrape target would read the
/// `.prom` file.
pub struct SnapshotExporter {
    shared: Arc<ExporterShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct ExporterShared {
    registry: Arc<MetricsRegistry>,
    tracker: Option<SloTracker>,
    json_path: std::path::PathBuf,
    prom_path: Option<std::path::PathBuf>,
    stop: Mutex<bool>,
    cv: Condvar,
}

impl ExporterShared {
    fn write_once(&self) -> std::io::Result<MetricsSnapshot> {
        let snap = self.registry.snapshot_with(self.tracker.as_ref());
        std::fs::write(&self.json_path, snap.to_json())?;
        if let Some(prom) = &self.prom_path {
            std::fs::write(prom, snap.to_prometheus())?;
        }
        Ok(snap)
    }
}

impl SnapshotExporter {
    /// Starts the exporter thread. `interval` is the export period; the
    /// first snapshot is written after one interval, and a final one at
    /// stop time regardless of phase.
    pub fn start(
        registry: Arc<MetricsRegistry>,
        tracker: Option<SloTracker>,
        json_path: impl Into<std::path::PathBuf>,
        prom_path: Option<std::path::PathBuf>,
        interval: Duration,
    ) -> Self {
        let shared = Arc::new(ExporterShared {
            registry,
            tracker,
            json_path: json_path.into(),
            prom_path,
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("gzkp-metrics-exporter".to_string())
            .spawn(move || {
                let mut stopped = thread_shared
                    .stop
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    let (guard, timeout) = thread_shared
                        .cv
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        let _ = thread_shared.write_once();
                    }
                }
            })
            .expect("spawn metrics exporter");
        Self {
            shared,
            handle: Some(handle),
        }
    }

    /// Stops the thread and writes the final snapshot, returning it.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of the final write.
    pub fn stop(mut self) -> std::io::Result<MetricsSnapshot> {
        self.shutdown();
        self.shared.write_once()
    }

    fn shutdown(&mut self) {
        *self
            .shared
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SnapshotExporter {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
            let _ = self.shared.write_once();
        }
    }
}

// ---------------------------------------------------------------------------
// `zkserve top` dashboard rendering
// ---------------------------------------------------------------------------

/// Renders one frame of the `zkserve top` dashboard from a snapshot:
/// job-flow header, stage-latency percentiles, SLO status, and one
/// utilization lane per device.
pub fn render_top(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    const BAR: usize = 24;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gzkp top — uptime {:8.2} s   queue depth {:>4}",
        snap.uptime_ns as f64 / 1e9,
        snap.gauge(names::SERVICE_QUEUE_DEPTH).unwrap_or(0.0) as u64,
    );
    let _ = writeln!(
        out,
        "jobs: accepted {:>5}  completed {:>5}  missed {:>3}  failed {:>3}  \
         rejected {:>3}  retries {:>3}",
        snap.counter(names::SERVICE_ACCEPTED).unwrap_or(0),
        snap.counter(names::SERVICE_COMPLETED).unwrap_or(0),
        snap.counter(names::SERVICE_DEADLINE_MISSED).unwrap_or(0),
        snap.counter(names::SERVICE_FAILED).unwrap_or(0),
        snap.counter(names::SERVICE_REJECTED).unwrap_or(0),
        snap.counter(names::SERVICE_RETRIES).unwrap_or(0),
    );
    let ms = |v: Option<u64>| match v {
        Some(ns) => format!("{:9.3}", ns as f64 / 1e6),
        None => format!("{:>9}", "-"),
    };
    let mut latency_rows: Vec<(String, &HistogramSample)> = Vec::new();
    if let Some(h) = snap.histogram(names::SERVICE_QUEUE_WAIT_NS) {
        latency_rows.push(("queue_wait".to_string(), h));
    }
    for h in &snap.histograms {
        if h.name == names::STAGE_LATENCY_NS {
            if let Some((_, stage)) = &h.label {
                latency_rows.push((format!("stage {stage}"), h));
            }
        }
    }
    if let Some(h) = snap.histogram(names::SERVICE_JOB_LATENCY_NS) {
        latency_rows.push(("job e2e".to_string(), h));
    }
    if !latency_rows.is_empty() {
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>9} {:>7}",
            "latency (ms)", "p50", "p95", "p99", "count"
        );
        for (label, h) in latency_rows {
            let _ = writeln!(
                out,
                "  {label:<12} {} {} {} {:>7}",
                ms(h.p50()),
                ms(h.p95()),
                ms(h.p99()),
                h.count
            );
        }
    }
    if let Some(hosts_up) = snap.gauge(names::CLUSTER_HOSTS_UP) {
        let _ = writeln!(
            out,
            "cluster: hosts up {:>2}  admitted {:>5}  completed {:>5}  failed {:>3}  \
             resumes {:>3}  kills {:>3}  shed {:>3}",
            hosts_up as u64,
            snap.counter(names::CLUSTER_ADMITTED).unwrap_or(0),
            snap.counter(names::CLUSTER_COMPLETED).unwrap_or(0),
            snap.counter(names::CLUSTER_FAILED).unwrap_or(0),
            snap.counter(names::CLUSTER_RESUMES).unwrap_or(0),
            snap.counter(names::CLUSTER_HOST_KILLS).unwrap_or(0),
            snap.counter(names::CLUSTER_REJECTED_RATE).unwrap_or(0)
                + snap.counter(names::CLUSTER_REJECTED_SATURATED).unwrap_or(0),
        );
        let mut hosts = snap.label_values(names::LABEL_HOST);
        hosts.sort();
        if !hosts.is_empty() {
            let _ = writeln!(
                out,
                "{:<6} {:<8} {:>8} {:>9}",
                "host", "state", "inflight", "completed"
            );
            for h in &hosts {
                let state = match snap
                    .gauge_labeled(names::HOST_STATE, names::LABEL_HOST, h)
                    .unwrap_or(3.0) as u64
                {
                    0 => "warming",
                    1 => "up",
                    _ => "dead",
                };
                let _ = writeln!(
                    out,
                    "{:<6} {:<8} {:>8} {:>9}",
                    h,
                    state,
                    snap.gauge_labeled(names::HOST_INFLIGHT, names::LABEL_HOST, h)
                        .unwrap_or(0.0) as u64,
                    snap.counter_labeled(names::HOST_COMPLETED, names::LABEL_HOST, h)
                        .unwrap_or(0),
                );
            }
        }
    }
    match &snap.slo {
        Some(slo) => {
            let _ = write!(out, "{}", slo.render());
            if !slo.devices.is_empty() {
                let _ = writeln!(
                    out,
                    "{:<6} {:>6} {:<w$} {:>6} {:>5} {:>5}",
                    "device",
                    "stages",
                    "utilization",
                    "util",
                    "quar%",
                    "trips",
                    w = BAR + 2
                );
                for d in &slo.devices {
                    let filled = ((d.busy_frac * BAR as f64).round() as usize).min(BAR);
                    let bar: String = "#".repeat(filled) + &" ".repeat(BAR - filled);
                    let _ = writeln!(
                        out,
                        "{:<6} {:>6} [{bar}] {:>5.0}% {:>5.1} {:>5}",
                        d.device,
                        d.stages,
                        d.busy_frac * 100.0,
                        d.quarantine_frac * 100.0,
                        d.quarantines
                    );
                }
            }
        }
        None => {
            let _ = writeln!(out, "slo: (no tracker attached)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_total() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(10), 2047);
        assert_eq!(bucket_upper(63), u64::MAX);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // Re-registration attaches to the same cell.
        reg.counter("c").add(6);
        assert_eq!(c.get(), 10);
        let g = reg.gauge("g");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        // Labeled series are distinct from unlabeled ones.
        reg.counter_with("c", "device", "dev0").add(100);
        assert_eq!(c.get(), 10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(10));
        assert_eq!(snap.counter_labeled("c", "device", "dev0"), Some(100));
        assert_eq!(snap.counter_total("c"), 110);
        assert_eq!(snap.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_percentiles_are_total_on_edges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        // Empty: every quantile is None.
        let empty = reg.snapshot();
        let hs = empty.histogram("h").unwrap();
        assert_eq!(hs.quantile(0.0), None);
        assert_eq!(hs.p50(), None);
        assert_eq!(hs.p99(), None);
        assert_eq!(hs.mean(), None);
        // Single sample answers every quantile with its bucket bound.
        h.record(100);
        let one = reg.snapshot();
        let hs = one.histogram("h").unwrap();
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum, 100);
        let bound = bucket_upper(bucket_of(100) as u64);
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(hs.quantile(q), Some(bound), "q={q}");
        }
        assert_eq!(hs.mean(), Some(100.0));
        // u64::MAX lands in the top bucket and reports u64::MAX.
        h.record(u64::MAX);
        h.record(0);
        let snap = reg.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.quantile(1.0), Some(u64::MAX));
        assert_eq!(hs.quantile(0.0), Some(1), "rank clamps to the zero sample");
    }

    #[test]
    fn histogram_percentiles_order() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        let (p50, p95, p99) = (hs.p50().unwrap(), hs.p95().unwrap(), hs.p99().unwrap());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The bucket upper bound over-estimates by at most 2x.
        assert!((500_000..=1_048_575).contains(&p50), "{p50}");
        assert!(p99 >= 990_000, "{p99}");
        assert_eq!(hs.sum, (1..=1000u64).map(|i| i * 1000).sum::<u64>());
    }

    #[test]
    fn concurrent_recording_totals_exact() {
        // N threads hammer shared counter/histogram handles; the
        // snapshot must account for every single event.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                // Half the threads re-register (exercising the dedup
                // path under contention), half clone idiomatically.
                let c = reg.counter("ops");
                let h = reg.histogram_with("lat", "stage", "msm");
                for i in 0..PER_THREAD {
                    c.add(1);
                    h.record(t * PER_THREAD + i + 1);
                }
            }));
        }
        for th in handles {
            th.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops"), Some(THREADS * PER_THREAD));
        let h = snap.histogram_labeled("lat", "stage", "msm").unwrap();
        assert_eq!(h.count, THREADS * PER_THREAD);
        let expect_sum: u64 = (1..=THREADS * PER_THREAD).sum();
        assert_eq!(h.sum, expect_sum);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_ACCEPTED).add(12);
        reg.counter_with(names::DEVICE_STAGES, "device", "dev0")
            .add(7);
        reg.gauge(names::SERVICE_QUEUE_DEPTH).set(3.0);
        let h = reg.histogram(names::SERVICE_QUEUE_WAIT_NS);
        h.record(1500);
        h.record(0);
        h.record(u64::MAX);
        let snap = reg.snapshot_with(Some(&SloTracker::default()));
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Version check fires before field decoding.
        let future = json.replacen(
            &format!("\"schema_version\": {METRICS_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        assert_ne!(future, json);
        assert!(MetricsSnapshot::from_json(&future)
            .unwrap_err()
            .contains("999"));
        assert!(MetricsSnapshot::from_json("{").is_err());
    }

    #[test]
    fn prometheus_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_ACCEPTED).add(12);
        reg.counter_with(names::DEVICE_STAGES, "device", "dev0")
            .add(7);
        reg.gauge(names::SERVICE_QUEUE_DEPTH).set(3.0);
        let h = reg.histogram_with(names::STAGE_LATENCY_NS, "stage", "msm");
        h.record(3); // bucket 1, le 3
        h.record(3);
        h.record(1000); // bucket 9, le 1023
        let mut snap = reg.snapshot();
        snap.uptime_ns = 5_000_000; // pin the only nondeterministic field
        let expected = "\
# TYPE gzkp_uptime_ns gauge
gzkp_uptime_ns 5000000
# TYPE gzkp_device_stages counter
gzkp_device_stages{device=\"dev0\"} 7
# TYPE gzkp_service_accepted counter
gzkp_service_accepted 12
# TYPE gzkp_service_queue_depth gauge
gzkp_service_queue_depth 3
# TYPE gzkp_stage_latency_ns histogram
gzkp_stage_latency_ns_bucket{stage=\"msm\",le=\"3\"} 2
gzkp_stage_latency_ns_bucket{stage=\"msm\",le=\"1023\"} 3
gzkp_stage_latency_ns_bucket{stage=\"msm\",le=\"+Inf\"} 3
gzkp_stage_latency_ns_sum{stage=\"msm\"} 1006
gzkp_stage_latency_ns_count{stage=\"msm\"} 3
";
        assert_eq!(snap.to_prometheus(), expected);
    }

    #[test]
    fn prometheus_top_bucket_is_inf() {
        let reg = MetricsRegistry::new();
        reg.histogram("h").record(u64::MAX);
        let text = reg.snapshot().to_prometheus();
        // The 2^63.. bucket renders as +Inf, and is not duplicated.
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1, "{text}");
    }

    #[test]
    fn slo_tracker_clean_run_is_healthy() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_COMPLETED).add(10);
        reg.histogram(names::SERVICE_QUEUE_WAIT_NS)
            .record(1_000_000);
        reg.counter_with(names::DEVICE_STAGES, "device", "dev0")
            .add(10);
        reg.gauge_with(names::DEVICE_BUSY_NS, "device", "dev0")
            .set(8e6);
        reg.gauge_with(names::DEVICE_ELAPSED_NS, "device", "dev0")
            .set(1e7);
        let report = SloTracker::default().evaluate(&reg.snapshot());
        assert!(report.healthy, "{report:?}");
        assert_eq!(report.resolved, 10);
        assert_eq!(report.deadline_miss_rate, 0.0);
        assert_eq!(report.devices.len(), 1);
        assert!((report.devices[0].busy_frac - 0.8).abs() < 1e-9);
        assert!(report.render().contains("slo: OK"));
    }

    #[test]
    fn slo_tracker_fires_burn_rate_alerts() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_COMPLETED).add(5);
        reg.counter(names::SERVICE_DEADLINE_MISSED).add(5);
        reg.gauge_with(names::DEVICE_ELAPSED_NS, "device", "dev1")
            .set(1e9);
        reg.gauge_with(names::DEVICE_QUARANTINE_NS, "device", "dev1")
            .set(5e8);
        let tracker = SloTracker::new(SloPolicy {
            max_deadline_miss_rate: 0.1,
            max_quarantine_frac: 0.25,
            ..SloPolicy::default()
        });
        let report = tracker.evaluate(&reg.snapshot());
        assert!(!report.healthy);
        assert_eq!(report.alerts.len(), 2, "{report:?}");
        let miss = &report.alerts[0];
        assert_eq!(miss.slo, "deadline_miss_rate");
        assert!((miss.observed - 0.5).abs() < 1e-9);
        assert!((miss.burn_rate - 5.0).abs() < 1e-9);
        let quar = &report.alerts[1];
        assert_eq!(quar.slo, "quarantine_frac[dev1]");
        assert!((quar.burn_rate - 2.0).abs() < 1e-9);
        assert!(report.render().contains("burn 5.00x"));
        // Zero-budget SLOs burn at infinity.
        let strict = SloTracker::new(SloPolicy {
            max_deadline_miss_rate: 0.0,
            ..SloPolicy::default()
        });
        let report = strict.evaluate(&reg.snapshot());
        assert!(report.alerts[0].burn_rate.is_infinite());
    }

    #[test]
    fn slo_evaluation_works_on_deserialized_snapshots() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_COMPLETED).add(4);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        let report = SloTracker::default().evaluate(&back);
        assert_eq!(report.resolved, 4);
        assert!(report.healthy);
    }

    #[test]
    fn exporter_writes_periodic_and_final_snapshots() {
        let dir = std::env::temp_dir().join("gzkp-metrics-exporter-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("metrics.json");
        let prom = dir.join("metrics.prom");
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&prom).ok();
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter(names::SERVICE_ACCEPTED);
        let exporter = SnapshotExporter::start(
            reg.clone(),
            Some(SloTracker::default()),
            &json,
            Some(prom.clone()),
            Duration::from_millis(5),
        );
        c.add(42);
        // Wait for at least one periodic export.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !json.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let final_snap = exporter.stop().unwrap();
        assert_eq!(final_snap.counter(names::SERVICE_ACCEPTED), Some(42));
        assert!(final_snap.slo.is_some(), "exporter attaches SLO");
        let from_disk =
            MetricsSnapshot::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(from_disk.counter(names::SERVICE_ACCEPTED), Some(42));
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_text.contains("gzkp_service_accepted 42"));
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&prom).ok();
    }

    #[test]
    fn render_top_shows_queue_latency_and_devices() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_ACCEPTED).add(9);
        reg.counter(names::SERVICE_COMPLETED).add(7);
        reg.gauge(names::SERVICE_QUEUE_DEPTH).set(2.0);
        reg.histogram(names::SERVICE_QUEUE_WAIT_NS)
            .record(2_000_000);
        reg.histogram_with(names::STAGE_LATENCY_NS, "stage", "poly")
            .record(5_000_000);
        reg.histogram_with(names::STAGE_LATENCY_NS, "stage", "msm")
            .record(9_000_000);
        reg.counter_with(names::DEVICE_STAGES, "device", "dev0")
            .add(7);
        reg.gauge_with(names::DEVICE_BUSY_NS, "device", "dev0")
            .set(5e8);
        reg.gauge_with(names::DEVICE_ELAPSED_NS, "device", "dev0")
            .set(1e9);
        let snap = reg.snapshot_with(Some(&SloTracker::default()));
        let text = render_top(&snap);
        assert!(text.contains("queue depth    2"), "{text}");
        assert!(text.contains("accepted     9"), "{text}");
        assert!(text.contains("stage poly"), "{text}");
        assert!(text.contains("stage msm"), "{text}");
        assert!(text.contains("slo: OK"), "{text}");
        assert!(text.contains("dev0"), "{text}");
        assert!(text.contains('#'), "utilization bar renders: {text}");
        // Without a tracker the dashboard says so instead of panicking.
        let bare = render_top(&reg.snapshot());
        assert!(bare.contains("no tracker"), "{bare}");
    }
}
