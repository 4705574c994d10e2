//! Live metrics: lock-free handles over one series table, and the
//! [`MetricsSnapshot`] every reader of that table works from. Where
//! [`crate::TraceRecorder`] answers "where did the time go" after a run,
//! this module answers "how is the service doing" while it runs.
//!
//! * **Registration is locked, recording is not.** A series is created
//!   once under the registry mutex; its handle ([`Counter`], [`Gauge`],
//!   [`LatencyHistogram`]) wraps plain atomics, so recording is a relaxed
//!   `fetch_add`/`store`. Registering an existing `(name, label)` again
//!   returns the same cells, which keeps totals exact across workers.
//! * **Histograms are 64 log2 buckets** ([`crate::log2_histogram`]'s
//!   rule) plus exact `count` and `sum`. A quantile reports its bucket's
//!   upper bound: at most 2× high, never an invented value, `None` when
//!   the histogram is empty.
//! * **A snapshot is plain serde data**, versioned and sorted by
//!   `(name, label)`. A run writes it; [`crate::slo`] judges it and
//!   [`crate::export`] renders it, live or read back from disk alike.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::log2_bucket;

/// Version of the snapshot wire format. [`MetricsSnapshot::from_json`]
/// rejects any other, the same way traces do. Version 1 snapshots also
/// carried an SLO report; version 2 leaves judging to the reader.
pub(crate) const METRICS_SCHEMA_VERSION: u32 = 2;

/// Inclusive upper bound of log2 bucket `b` — the value a quantile in
/// the bucket reports. Saturates at `u64::MAX` from the top bucket on.
pub(crate) fn bucket_upper(b: u64) -> u64 {
    u64::MAX >> 63u64.saturating_sub(b)
}

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
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
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
        self.0.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
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

/// Identity of one series: a name from [`crate::names`] plus an optional
/// `(key, value)` label (`("device", "dev0")`, `("stage", "msm")`).
type SeriesKey = (String, Option<(String, String)>);

/// The series of one kind, sorted by key — the order snapshots list.
type Table<T> = Vec<(SeriesKey, Arc<T>)>;

#[derive(Default)]
struct Tables {
    counters: Table<AtomicU64>,
    gauges: Table<AtomicU64>,
    histograms: Table<HistogramCells>,
}

/// The live metrics registry: series registration (locked, rare) and
/// snapshotting on one side, lock-free handles on the other.
pub struct MetricsRegistry {
    tables: Mutex<Tables>,
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
            tables: Mutex::new(Tables::default()),
            start: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cells of series `(name, label)` in the table `pick` selects,
    /// created zeroed on first use: every registration goes through here.
    fn cells<T: Default>(
        &self,
        pick: fn(&mut Tables) -> &mut Table<T>,
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Arc<T> {
        let key = (name.into(), label.map(|(k, v)| (k.into(), v.into())));
        let mut tables = self.lock();
        let table = pick(&mut tables);
        match table.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => table[i].1.clone(),
            Err(i) => {
                let cells = Arc::new(T::default());
                table.insert(i, (key, cells.clone()));
                cells
            }
        }
    }

    /// Registers (or re-attaches to) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.cells(|t| &mut t.counters, name, None))
    }

    /// Registers (or re-attaches to) a labeled counter, e.g.
    /// `("device", "dev0")`.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Counter {
        Counter(self.cells(|t| &mut t.counters, name, Some((key, value))))
    }

    /// Registers (or re-attaches to) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.cells(|t| &mut t.gauges, name, None))
    }

    /// Registers (or re-attaches to) a labeled gauge.
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Gauge {
        Gauge(self.cells(|t| &mut t.gauges, name, Some((key, value))))
    }

    /// Registers (or re-attaches to) an unlabeled latency histogram.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        LatencyHistogram(self.cells(|t| &mut t.histograms, name, None))
    }

    /// Registers (or re-attaches to) a labeled latency histogram, e.g.
    /// `("stage", "msm")`.
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> LatencyHistogram {
        LatencyHistogram(self.cells(|t| &mut t.histograms, name, Some((key, value))))
    }

    /// Nanoseconds since the registry was created.
    pub(crate) fn uptime_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Samples every series into a serializable [`MetricsSnapshot`],
    /// sorted by `(name, label)` as the tables are.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let t = self.lock();
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            uptime_ns: self.uptime_ns(),
            counters: sample(&t.counters, |name, label, cell| CounterSample {
                name,
                label,
                value: load(cell),
            }),
            gauges: sample(&t.gauges, |name, label, cell| GaugeSample {
                name,
                label,
                value: f64::from_bits(load(cell)),
            }),
            histograms: sample(&t.histograms, |name, label, cells| HistogramSample {
                name,
                label,
                count: load(&cells.count),
                sum: load(&cells.sum),
                buckets: (0..)
                    .zip(&cells.buckets)
                    .map(|(b, c)| (b, load(c)))
                    .filter(|&(_, c)| c > 0)
                    .collect(),
            }),
        }
    }
}

/// Reads every series of `table`, in table order, through `read`.
fn sample<T, S>(
    table: &Table<T>,
    read: impl Fn(String, Option<(String, String)>, &T) -> S,
) -> Vec<S> {
    table
        .iter()
        .map(|((name, label), cells)| read(name.clone(), label.clone(), cells))
        .collect()
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &t.counters.len())
            .field("gauges", &t.gauges.len())
            .field("histograms", &t.histograms.len())
            .finish()
    }
}

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
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
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

    /// Median (see `HistogramSample::quantile`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub(crate) fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub(crate) fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// A series of a snapshot, as lookups see it.
trait Sample {
    fn key(&self) -> (&str, &Option<(String, String)>);
}

macro_rules! impl_sample {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn key(&self) -> (&str, &Option<(String, String)>) {
                (&self.name, &self.label)
            }
        }
    )*};
}
impl_sample!(CounterSample, GaugeSample, HistogramSample);

/// The series of `list` named `name` with exactly `label` (`None`: the
/// unlabeled series) — the one lookup behind every finder below.
fn find<'a, S: Sample>(list: &'a [S], name: &str, label: Option<(&str, &str)>) -> Option<&'a S> {
    list.iter().find(|s| {
        let (n, l) = s.key();
        n == name && l.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
    })
}

/// A point-in-time sample of every series in a [`MetricsRegistry`] —
/// the JSON wire form, the Prometheus exposition source, and the input
/// to SLO evaluation and dashboards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wire-format version; see `METRICS_SCHEMA_VERSION`.
    pub schema_version: u32,
    /// Nanoseconds the registry had been alive when sampled.
    pub uptime_ns: u64,
    /// Counter series, sorted by `(name, label)`.
    pub counters: Vec<CounterSample>,
    /// Gauge series, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// Histogram series, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Value of an unlabeled counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name, None).map(|c| c.value)
    }

    /// Value of a labeled counter.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> Option<u64> {
        find(&self.counters, name, Some((key, value))).map(|c| c.value)
    }

    /// Sum of a counter over all its labels (and the unlabeled series).
    pub fn counter_total(&self, name: &str) -> u64 {
        let series = self.counters.iter().filter(|c| c.name == name);
        series.map(|c| c.value).sum()
    }

    /// Value of an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        find(&self.gauges, name, None).map(|g| g.value)
    }

    /// Value of a labeled gauge.
    pub(crate) fn gauge_labeled(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        find(&self.gauges, name, Some((key, value))).map(|g| g.value)
    }

    /// An unlabeled histogram series.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        find(&self.histograms, name, None)
    }

    /// Distinct values of `label_key` across all series, sorted —
    /// e.g. the device set of a fleet snapshot.
    pub fn label_values(&self, label_key: &str) -> Vec<String> {
        let labels = (self.counters.iter().map(Sample::key))
            .chain(self.gauges.iter().map(Sample::key))
            .chain(self.histograms.iter().map(Sample::key))
            .filter_map(|(_, label)| label.as_ref());
        let mut out: Vec<String> = labels
            .filter(|(k, _)| k == label_key)
            .map(|(_, v)| v.clone())
            .collect();
        out.sort();
        out.dedup();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, SloPolicy};

    #[test]
    fn bucket_math_is_total() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(u64::MAX), 63);
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
        // Single sample answers every quantile with its bucket bound.
        h.record(100);
        let one = reg.snapshot();
        let hs = one.histogram("h").unwrap();
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum, 100);
        let bound = bucket_upper(log2_bucket(100) as u64);
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(hs.quantile(q), Some(bound), "q={q}");
        }
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
        let h = find(&snap.histograms, "lat", Some(("stage", "msm"))).unwrap();
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
        let snap = reg.snapshot();
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
        let report = SloPolicy::default().evaluate(&reg.snapshot());
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
        let policy = SloPolicy {
            max_deadline_miss_rate: 0.1,
            max_quarantine_frac: 0.25,
            ..SloPolicy::default()
        };
        let report = policy.evaluate(&reg.snapshot());
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
        let strict = SloPolicy {
            max_deadline_miss_rate: 0.0,
            ..SloPolicy::default()
        };
        let report = strict.evaluate(&reg.snapshot());
        assert!(report.alerts[0].burn_rate.is_infinite());
    }

    #[test]
    fn slo_evaluation_works_on_deserialized_snapshots() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_COMPLETED).add(4);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        let report = SloPolicy::default().evaluate(&back);
        assert_eq!(report.resolved, 4);
        assert!(report.healthy);
    }
}
