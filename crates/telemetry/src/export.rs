//! What a snapshot is rendered into: the Prometheus text exposition
//! (`MetricsSnapshot::to_prometheus`), the exporter thread that keeps
//! the JSON and `.prom` files of a run current ([`SnapshotExporter`]),
//! and one frame of the `zkserve top` dashboard ([`render_top`]), whose
//! SLO lines are [`SloPolicy::default`]'s verdict on that frame.

use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::metrics::{bucket_upper, HistogramSample, MetricsRegistry, MetricsSnapshot};
use crate::names;
use crate::slo::SloPolicy;

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// `gzkp_`-prefixed underscored names, one `# TYPE` line per metric,
    /// cumulative `le` buckets with `+Inf`, `_sum` and `_count` for
    /// histograms.
    pub(crate) fn to_prometheus(&self) -> String {
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
            let value = prom_f64(g.value);
            let _ = writeln!(out, "{name}{} {value}", prom_labels(&g.label, None));
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
                let labels = prom_labels(&h.label, Some(&le));
                let _ = writeln!(out, "{name}_bucket{labels} {cum}");
            }
            if h.buckets.last().is_none_or(|&(b, _)| b < 63) {
                let labels = prom_labels(&h.label, Some("+Inf"));
                let _ = writeln!(out, "{name}_bucket{labels} {cum}");
            }
            let labels = prom_labels(&h.label, None);
            let _ = writeln!(out, "{name}_sum{labels} {}", h.sum);
            let _ = writeln!(out, "{name}_count{labels} {}", h.count);
        }
        out
    }
}

/// `service.queue_wait_ns` → `gzkp_service_queue_wait_ns`.
fn prom_name(name: &str) -> String {
    let body = name
        .chars()
        .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '_' });
    "gzkp_".chars().chain(body).collect()
}

/// Renders a label set: the series label plus an optional `le` bound.
fn prom_labels(label: &Option<(String, String)>, le: Option<&str>) -> String {
    let series = label.iter().map(|(k, v)| format!("{k}=\"{v}\""));
    let parts: Vec<String> = series.chain(le.map(|le| format!("le=\"{le}\""))).collect();
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
    json_path: std::path::PathBuf,
    prom_path: Option<std::path::PathBuf>,
    stop: Mutex<bool>,
    cv: Condvar,
}

impl ExporterShared {
    fn write_once(&self) -> std::io::Result<MetricsSnapshot> {
        let snap = self.registry.snapshot();
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
        json_path: impl Into<std::path::PathBuf>,
        prom_path: Option<std::path::PathBuf>,
        interval: Duration,
    ) -> Self {
        let shared = Arc::new(ExporterShared {
            registry,
            json_path: json_path.into(),
            prom_path,
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("gzkp-metrics-exporter".to_string())
            .spawn(move || {
                let lock = thread_shared.stop.lock();
                let mut stopped = lock.unwrap_or_else(PoisonError::into_inner);
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

/// Renders one frame of the `zkserve top` dashboard from a snapshot:
/// job-flow header, stage-latency percentiles, cluster hosts, the
/// [`SloPolicy::default`] verdict, and one utilization lane per device.
pub fn render_top(snap: &MetricsSnapshot) -> String {
    const BAR: usize = 24;
    let count = |name: &str| snap.counter(name).unwrap_or(0);
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
        count(names::SERVICE_ACCEPTED),
        count(names::SERVICE_COMPLETED),
        count(names::SERVICE_DEADLINE_MISSED),
        count(names::SERVICE_FAILED),
        count(names::SERVICE_REJECTED),
        count(names::SERVICE_RETRIES),
    );
    let ms = |v: Option<u64>| match v {
        Some(ns) => format!("{:9.3}", ns as f64 / 1e6),
        None => format!("{:>9}", "-"),
    };
    let mut latency_rows: Vec<(String, &HistogramSample)> = Vec::new();
    if let Some(h) = snap.histogram(names::SERVICE_QUEUE_WAIT_NS) {
        latency_rows.push(("queue_wait".to_string(), h));
    }
    for h in snap
        .histograms
        .iter()
        .filter(|h| h.name == names::STAGE_LATENCY_NS)
    {
        if let Some((_, stage)) = &h.label {
            latency_rows.push((format!("stage {stage}"), h));
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
            let (p50, p95, p99) = (ms(h.p50()), ms(h.p95()), ms(h.p99()));
            let _ = writeln!(out, "  {label:<12} {p50} {p95} {p99} {:>7}", h.count);
        }
    }
    if let Some(hosts_up) = snap.gauge(names::CLUSTER_HOSTS_UP) {
        let _ = writeln!(
            out,
            "cluster: hosts up {:>2}  admitted {:>5}  completed {:>5}  failed {:>3}  \
             resumes {:>3}  kills {:>3}  shed {:>3}",
            hosts_up as u64,
            count(names::CLUSTER_ADMITTED),
            count(names::CLUSTER_COMPLETED),
            count(names::CLUSTER_FAILED),
            count(names::CLUSTER_RESUMES),
            count(names::CLUSTER_HOST_KILLS),
            count(names::CLUSTER_REJECTED_RATE) + count(names::CLUSTER_REJECTED_SATURATED),
        );
        let hosts = snap.label_values(names::LABEL_HOST);
        if !hosts.is_empty() {
            let _ = writeln!(
                out,
                "{:<6} {:<8} {:>8} {:>9}",
                "host", "state", "inflight", "completed"
            );
            for h in &hosts {
                let gauge = |name| snap.gauge_labeled(name, names::LABEL_HOST, h);
                let state = match gauge(names::HOST_STATE).unwrap_or(3.0) as u64 {
                    0 => "warming",
                    1 => "up",
                    _ => "dead",
                };
                let _ = writeln!(
                    out,
                    "{:<6} {:<8} {:>8} {:>9}",
                    h,
                    state,
                    gauge(names::HOST_INFLIGHT).unwrap_or(0.0) as u64,
                    snap.counter_labeled(names::HOST_COMPLETED, names::LABEL_HOST, h)
                        .unwrap_or(0),
                );
            }
        }
    }
    let slo = SloPolicy::default().evaluate(snap);
    out.push_str(&slo.render());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
        let from_disk =
            MetricsSnapshot::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(from_disk.counter(names::SERVICE_ACCEPTED), Some(42));
        let slo = |snap: &MetricsSnapshot| SloPolicy::default().evaluate(snap);
        assert_eq!(
            slo(&from_disk),
            slo(&final_snap),
            "read back, the SLO verdict holds"
        );
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
        let snap = reg.snapshot();
        let text = render_top(&snap);
        assert!(text.contains("queue depth    2"), "{text}");
        assert!(text.contains("accepted     9"), "{text}");
        assert!(text.contains("stage poly"), "{text}");
        assert!(text.contains("stage msm"), "{text}");
        assert!(text.contains("slo: OK"), "{text}");
        assert!(text.contains("dev0"), "{text}");
        assert!(text.contains('#'), "utilization bar renders: {text}");
    }

    /// A whole frame over every section — service, latency, cluster,
    /// hosts, the default policy's alerts, devices — with uptime pinned.
    #[test]
    fn render_top_frame_is_pinned() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SERVICE_ACCEPTED).add(9);
        reg.counter(names::SERVICE_COMPLETED).add(6);
        reg.counter(names::SERVICE_DEADLINE_MISSED).add(1);
        reg.counter(names::SERVICE_RETRIES).add(2);
        reg.gauge(names::SERVICE_QUEUE_DEPTH).set(2.0);
        reg.histogram(names::SERVICE_QUEUE_WAIT_NS)
            .record(2_000_000);
        reg.histogram(names::SERVICE_JOB_LATENCY_NS)
            .record(40_000_000);
        for (stage, ns) in [("poly", 5_000_000), ("msm", 9_000_000)] {
            reg.histogram_with(names::STAGE_LATENCY_NS, "stage", stage)
                .record(ns);
        }
        for (dev, busy, quarantine) in [("dev0", 5e8, 0.0), ("dev1", 2e8, 4e8)] {
            reg.counter_with(names::DEVICE_STAGES, "device", dev).add(7);
            reg.gauge_with(names::DEVICE_BUSY_NS, "device", dev)
                .set(busy);
            reg.gauge_with(names::DEVICE_ELAPSED_NS, "device", dev)
                .set(1e9);
            reg.gauge_with(names::DEVICE_QUARANTINE_NS, "device", dev)
                .set(quarantine);
        }
        reg.counter_with(names::QUARANTINE_EVENTS, "device", "dev1")
            .add(1);
        reg.gauge(names::CLUSTER_HOSTS_UP).set(1.0);
        reg.counter(names::CLUSTER_ADMITTED).add(8);
        reg.counter(names::CLUSTER_COMPLETED).add(6);
        reg.counter(names::CLUSTER_RESUMES).add(1);
        reg.counter(names::CLUSTER_HOST_KILLS).add(1);
        reg.counter(names::CLUSTER_REJECTED_RATE).add(3);
        for (host, state, inflight) in [("h0", 1.0, 1.0), ("h1", 3.0, 0.0)] {
            reg.gauge_with(names::HOST_STATE, names::LABEL_HOST, host)
                .set(state);
            reg.gauge_with(names::HOST_INFLIGHT, names::LABEL_HOST, host)
                .set(inflight);
            reg.counter_with(names::HOST_COMPLETED, names::LABEL_HOST, host)
                .add(3);
        }
        let mut snap = reg.snapshot();
        snap.uptime_ns = 5_000_000_000;
        let expected = "\
gzkp top — uptime     5.00 s   queue depth    2
jobs: accepted     9  completed     6  missed   1  failed   0  rejected   0  retries   2
latency (ms)         p50       p95       p99   count
  queue_wait       2.097     2.097     2.097       1
  stage msm       16.777    16.777    16.777       1
  stage poly       8.389     8.389     8.389       1
  job e2e         67.109    67.109    67.109       1
cluster: hosts up  1  admitted     8  completed     6  failed   0  resumes   1  kills   1  shed   3
host   state    inflight completed
h0     up              1         3
h1     dead            0         3
slo: ALERT  resolved 7  deadline-miss-rate 0.1429  queue-wait p99 2.097 ms
slo: cluster admitted 8  completed 6  failed 0  resumes 1  host-kills 1  lost 1  hosts-up 1
slo: ALERT deadline_miss_rate  observed 0.1429  threshold 0.0100  burn 14.29x
slo: ALERT quarantine_frac[dev1]  observed 0.4000  threshold 0.2500  burn 1.60x
slo: ALERT cluster_lost_jobs  observed 1.0000  threshold 0.0000  burn infx
device stages utilization                  util quar% trips
dev0        7 [############            ]    50%   0.0     0
dev1        7 [#####                   ]    20%  40.0     1
";
        assert_eq!(render_top(&snap), expected);
    }
}
