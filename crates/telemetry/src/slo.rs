//! Service-level objectives, judged where a snapshot is read.
//!
//! An [`SloPolicy`] holds the thresholds; [`SloPolicy::evaluate`] turns
//! one [`MetricsSnapshot`] — live, or read back from a file a run wrote —
//! into an [`SloReport`]: the deadline-miss rate, the queue-wait p99, one
//! row per device, the cluster's lost-job accounting, and one
//! [`SloAlert`] per breached threshold with its burn rate. `zkprof slo`,
//! zkserve's final `slo:` lines and [`crate::render_top`] all call it, so
//! a CI gate and a dashboard never disagree about the same snapshot.

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::names;

/// Thresholds [`SloPolicy::evaluate`] judges a snapshot against. Every
/// one is an upper bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Max fraction of resolved jobs that may miss their deadline.
    pub max_deadline_miss_rate: f64,
    /// Max acceptable queue-wait p99 (wall-clock nanoseconds).
    pub max_queue_wait_p99_ns: u64,
    /// Max fraction of a device's timeline it may spend quarantined.
    pub max_quarantine_frac: f64,
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
    /// `observed / threshold`; `inf` when the threshold is zero.
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

/// Fires `slo` into `alerts` when `observed` exceeds `threshold`.
fn check(alerts: &mut Vec<SloAlert>, slo: impl Into<String>, observed: f64, threshold: f64) {
    if observed <= threshold {
        return;
    }
    let burn_rate = if threshold > 0.0 {
        observed / threshold
    } else if observed > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    alerts.push(SloAlert {
        slo: slo.into(),
        observed,
        threshold,
        burn_rate,
    });
}

impl SloPolicy {
    /// Judges one snapshot (live or deserialized — CI re-evaluates
    /// written snapshots with this same code path).
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> SloReport {
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        let missed = count(names::SERVICE_DEADLINE_MISSED);
        let others = [
            names::SERVICE_COMPLETED,
            names::SERVICE_CANCELLED,
            names::SERVICE_FAILED,
            names::SERVICE_DRAINED,
        ];
        let resolved = missed + others.map(count).iter().sum::<u64>();
        let miss_rate = if resolved > 0 {
            missed as f64 / resolved as f64
        } else {
            0.0
        };
        let queue_p99 = snap
            .histogram(names::SERVICE_QUEUE_WAIT_NS)
            .and_then(|h| h.p99());

        let mut alerts = Vec::new();
        let max_miss_rate = self.max_deadline_miss_rate;
        check(&mut alerts, "deadline_miss_rate", miss_rate, max_miss_rate);
        if let Some(p99) = queue_p99 {
            let max = self.max_queue_wait_p99_ns as f64;
            check(&mut alerts, "queue_wait_p99_ns", p99 as f64, max);
        }

        let mut devices = Vec::new();
        for dev in snap.label_values("device") {
            let counter = |name| snap.counter_labeled(name, "device", &dev).unwrap_or(0);
            let gauge = |name| snap.gauge_labeled(name, "device", &dev).unwrap_or(0.0);
            let elapsed = gauge(names::DEVICE_ELAPSED_NS);
            let frac = |ns: f64| if elapsed > 0.0 { ns / elapsed } else { 0.0 };
            let row = DeviceSloRow {
                device: dev.clone(),
                stages: counter(names::DEVICE_STAGES),
                busy_frac: frac(gauge(names::DEVICE_BUSY_NS)),
                quarantine_frac: frac(gauge(names::DEVICE_QUARANTINE_NS)),
                quarantines: counter(names::QUARANTINE_EVENTS),
            };
            let (slo, max) = (format!("quarantine_frac[{dev}]"), self.max_quarantine_frac);
            check(&mut alerts, slo, row.quarantine_frac, max);
            devices.push(row);
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
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0) as u64;
        let completed = count(names::CLUSTER_COMPLETED);
        let failed = count(names::CLUSTER_FAILED);
        let inflight: u64 = snap
            .label_values(names::LABEL_HOST)
            .iter()
            .map(|h| {
                snap.gauge_labeled(names::HOST_INFLIGHT, names::LABEL_HOST, h)
                    .unwrap_or(0.0) as u64
            })
            .sum();
        let held = completed + failed + gauge(names::CLUSTER_QUEUE_DEPTH) + inflight;
        let lost = admitted.saturating_sub(held);
        let max = self.max_cluster_lost_jobs as f64;
        check(alerts, "cluster_lost_jobs", lost as f64, max);
        Some(ClusterSloRow {
            admitted,
            completed,
            failed,
            resumes: count(names::CLUSTER_RESUMES),
            host_kills: count(names::CLUSTER_HOST_KILLS),
            lost,
            hosts_up: gauge(names::CLUSTER_HOSTS_UP),
        })
    }
}
