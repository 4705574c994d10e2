//! The fleet runtime: per-device command streams, the one placement rule
//! ([`FleetRuntime::pin`]), shard accounting, utilization snapshots and
//! the `runtime→dev{n}→{h2d,kernel,d2h}` telemetry trace.
//!
//! Each device gets three streams on its [`DeviceTimeline`]: an upload
//! stream, an execute stream and a download stream. A stage recorded via
//! [`FleetRuntime::record_stage`] issues its H2D copy on the upload
//! stream, makes the execute stream wait on the copy's event, runs the
//! kernel, and drains the result on the download stream — so the *next*
//! stage's upload overlaps this stage's kernel exactly like the CUDA
//! double-buffered producer/consumer pipeline the simulator models.

use crate::health::{DeviceHealth, HealthPolicy};
use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_gpu_sim::stream::{DeviceTimeline, EngineKind, Event, StreamId};
use gzkp_gpu_sim::transfer::{d2d_time_ns, link_kind, HostMem, LinkKind};
use gzkp_telemetry::metrics::{Counter, Gauge, MetricsRegistry};
use gzkp_telemetry::names;
use gzkp_telemetry::trace::{Trace, TraceNode};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What happened to a device, for the fault/quarantine history shown in
/// the `zkserve` fleet table and as `!` markers in `zkprof render
/// --timeline` health lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEventKind {
    /// A retryable stage failure (kernel fault, transfer timeout).
    SoftFault,
    /// A device-gone failure (hang) — trips the breaker immediately.
    HardFault,
    /// The circuit breaker tripped; the device stopped taking placements.
    Quarantined,
    /// A probation probe succeeded; the device is healthy again.
    Recovered,
}

impl HealthEventKind {
    /// Short label used in tables and timeline health-lane spans.
    pub fn label(self) -> &'static str {
        match self {
            HealthEventKind::SoftFault => "soft-fault",
            HealthEventKind::HardFault => "hard-fault",
            HealthEventKind::Quarantined => "quarantined",
            HealthEventKind::Recovered => "recovered",
        }
    }
}

/// One entry in a device's fault/quarantine history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEvent {
    /// What happened.
    pub kind: HealthEventKind,
    /// Position on the device's *simulated* timeline when it happened —
    /// the marker coordinate for `zkprof render --timeline`.
    pub sim_ns: f64,
}

/// Lock-free per-device metric handles in the fleet's registry. All
/// series carry a `device="dev{n}"` label.
struct DeviceCells {
    stages: Counter,
    shards: Counter,
    h2d_bytes: Counter,
    d2h_bytes: Counter,
    p2p_bytes: Counter,
    busy_ns: Gauge,
    elapsed_ns: Gauge,
    quarantine_ns: Gauge,
    quarantines: Counter,
}

impl DeviceCells {
    fn new(registry: &MetricsRegistry, index: usize) -> Self {
        let dev = format!("dev{index}");
        let counter = |name| registry.counter_with(name, "device", &dev);
        let gauge = |name| registry.gauge_with(name, "device", &dev);
        DeviceCells {
            stages: counter(names::DEVICE_STAGES),
            shards: counter(names::RUNTIME_SHARDS),
            h2d_bytes: counter(names::RUNTIME_H2D_BYTES),
            d2h_bytes: counter(names::RUNTIME_D2H_BYTES),
            p2p_bytes: counter(names::RUNTIME_P2P_BYTES),
            busy_ns: gauge(names::DEVICE_BUSY_NS),
            elapsed_ns: gauge(names::DEVICE_ELAPSED_NS),
            quarantine_ns: gauge(names::DEVICE_QUARANTINE_NS),
            quarantines: counter(names::QUARANTINE_EVENTS),
        }
    }
}

/// Relative sustained throughput of a device: SM count times per-SM MAC
/// rate. Only ratios matter — it weights the least-loaded placement so a
/// V100 absorbs ~4x the jobs of a 1080 Ti before the fleet looks balanced.
pub(crate) fn throughput_weight(config: &DeviceConfig) -> f64 {
    f64::from(config.num_sms) * config.mac64_per_ns_per_sm
}

/// The one placement key, for domains and devices alike, over
/// `(index, pinned, weight)` candidates in index order: idle first, then
/// the lowest `(pinned + 1) / weight` — how long until it would get to
/// one more job — then the first.
fn least_loaded(candidates: impl Iterator<Item = (usize, u64, f64)>) -> Option<usize> {
    let load = |pinned: u64, weight: f64| (pinned + 1) as f64 / weight;
    candidates
        .min_by(|&(_, a, wa), &(_, b, wb)| {
            (a > 0)
                .cmp(&(b > 0))
                .then(load(a, wa).total_cmp(&load(b, wb)))
        })
        .map(|(index, _, _)| index)
}

/// Safety factor of [`FleetRuntime::place_for_deadline`]'s urgency test:
/// a job is urgent when its slack is less than its modeled remaining
/// cost times this margin (queueing, retries and host overhead are not
/// in the model, so cutting it to 1.0 would declare urgency only after
/// the deadline is already at risk).
pub(crate) const URGENCY_MARGIN: f64 = 2.0;

/// The four streams a device schedules stages onto.
struct Lanes {
    timeline: DeviceTimeline,
    upload: StreamId,
    execute: StreamId,
    download: StreamId,
    p2p: StreamId,
    /// Ops issued on `timeline`; those beyond its bounded log were dropped.
    issued: u64,
}

impl Lanes {
    /// Ops issued here that the timeline's bounded log no longer holds.
    fn ops_dropped(&self) -> u64 {
        self.issued - self.timeline.ops().len() as u64
    }
}

/// One device's runtime state: its timeline plus placement counters.
struct DeviceRuntime {
    config: DeviceConfig,
    lanes: Mutex<Lanes>,
    /// Unresolved jobs pinned here (the placement load).
    pinned: AtomicU64,
    /// Placements on this device: pins, re-pins and deadline grants.
    jobs: AtomicU64,
    /// Circuit-breaker state (see [`crate::health`]).
    health: Mutex<DeviceHealth>,
    /// Fault/quarantine history, in record order.
    events: Mutex<Vec<HealthEvent>>,
    /// The device's counters (shards, quarantines, bytes) and live gauges.
    cells: DeviceCells,
}

impl DeviceRuntime {
    fn new(config: DeviceConfig, policy: HealthPolicy, cells: DeviceCells) -> Self {
        let mut timeline = DeviceTimeline::new(config.clone());
        let upload = timeline.stream();
        let execute = timeline.stream();
        let download = timeline.stream();
        let p2p = timeline.stream();
        DeviceRuntime {
            config,
            lanes: Mutex::new(Lanes {
                timeline,
                upload,
                execute,
                download,
                p2p,
                issued: 0,
            }),
            pinned: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            health: Mutex::new(DeviceHealth::new(policy)),
            events: Mutex::new(Vec::new()),
            cells,
        }
    }
}

/// One failure domain: a run of consecutive devices that live and die
/// together (one simulated host of a cluster). A plain service's fleet is
/// a single domain.
struct Domain {
    /// Summed [`throughput_weight`] of the domain's devices.
    weight: f64,
    /// Unresolved jobs pinned here.
    pinned: AtomicU64,
    /// Whether new pins may land here (cleared while a domain is warming,
    /// retired or dead).
    schedulable: AtomicBool,
    /// Raised once the domain is killed; tasks running here poll it at
    /// their step boundaries.
    interrupt: Arc<AtomicBool>,
}

/// Where [`FleetRuntime::pin`] placed a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The failure domain.
    pub domain: usize,
    /// The device inside it; `None` is the host CPU fallback.
    pub device: Option<usize>,
}

/// What [`FleetRuntime::pin`] steers away from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Avoid {
    /// Nothing: a new job.
    Nothing,
    /// A killed domain the job leaves.
    Domain(usize),
    /// Inside the job's domain, which it keeps: the device it just failed
    /// on, or its unavailable pin.
    Device(Pin),
}

/// Utilization snapshot of one device, against the fleet makespan.
#[derive(Debug, Clone)]
pub struct DeviceUtilization {
    /// Device index (`dev{index}` in spans).
    pub index: usize,
    /// Device model name.
    pub name: String,
    /// Placements on this device: pins, re-pins and deadline grants.
    pub jobs: u64,
    /// Bucket-range MSM shards executed here.
    pub shards: u64,
    /// Times this device entered quarantine.
    pub quarantines: u64,
    /// Bytes uploaded.
    pub h2d_bytes: u64,
    /// Bytes downloaded.
    pub d2h_bytes: u64,
    /// Bytes moved device↔device through this device's P2P port
    /// (each transfer shows on both endpoints; fleet totals are counted
    /// once, see [`FleetRuntime::p2p_bytes`]).
    pub p2p_bytes: u64,
    /// Upload-engine busy time.
    pub h2d_ns: f64,
    /// Compute-engine busy time.
    pub kernel_ns: f64,
    /// Download-engine busy time.
    pub d2h_ns: f64,
    /// P2P-engine busy time.
    pub p2p_ns: f64,
    /// This device's own makespan.
    pub elapsed_ns: f64,
    /// Compute busy time over the *fleet* makespan — the number an
    /// operator reads to spot a starved or oversubscribed device.
    pub busy_frac: f64,
    /// Wall-clock nanoseconds this device has spent quarantined.
    pub quarantine_ns: u64,
    /// Fault/quarantine history, in record order (empty on clean runs).
    pub history: Vec<HealthEvent>,
}

/// Fleet-wide utilization: the makespan plus one row per device.
#[derive(Debug, Clone)]
pub struct FleetUtilization {
    /// Completion time of the last operation on any device.
    pub elapsed_ns: f64,
    /// Per-device rows, in device order.
    pub devices: Vec<DeviceUtilization>,
}

impl FleetUtilization {
    /// Text table for `zkserve` reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>6} {:>5} {:>10} {:>9} {:>12} {:>7}",
            "device", "jobs", "shards", "quar", "h2d MB", "p2p MB", "kernel ms", "util"
        );
        for d in &self.devices {
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>6} {:>5} {:>10.1} {:>9.1} {:>12.3} {:>6.1}%",
                format!("dev{} {}", d.index, d.name),
                d.jobs,
                d.shards,
                d.quarantines,
                d.h2d_bytes as f64 / (1024.0 * 1024.0),
                d.p2p_bytes as f64 / (1024.0 * 1024.0),
                d.kernel_ns / 1e6,
                d.busy_frac * 100.0,
            );
            if !d.history.is_empty() {
                let events: Vec<String> = d
                    .history
                    .iter()
                    .map(|e| format!("{}@{:.1}ms", e.kind.label(), e.sim_ns / 1e6))
                    .collect();
                let _ = writeln!(out, "{:<18} history: {}", "", events.join(" "));
            }
        }
        let _ = writeln!(out, "fleet makespan {:.3} ms", self.elapsed_ns / 1e6);
        out
    }
}

/// A fleet of simulated devices with per-device command streams.
///
/// Thread-safe: placement counters are atomics and each device's timeline
/// sits behind its own mutex, so service workers pinned to different
/// devices never contend.
///
/// Every per-device count (shards, quarantines, stage bytes) is
/// one `device="dev{n}"` counter in the registry the fleet was built
/// with — the caller's through [`FleetRuntime::with_domains`], a
/// private one through [`FleetRuntime::new`] — and
/// [`FleetRuntime::utilization`] reads those same counters back.
///
/// Devices are grouped into failure domains of equal size. A job is
/// *pinned* to a domain and a device inside it by the one placement
/// function, [`FleetRuntime::pin`].
pub struct FleetRuntime {
    devices: Vec<DeviceRuntime>,
    domains: Vec<Domain>,
    /// Devices per domain.
    domain_size: usize,
    p2p_transfers: AtomicU64,
}

impl FleetRuntime {
    /// Builds a fleet over `configs` (one timeline per device), counting
    /// into a private registry.
    ///
    /// # Panics
    ///
    /// Panics on an empty config list — a fleet without devices cannot
    /// place anything.
    pub fn new(configs: Vec<DeviceConfig>) -> Self {
        Self::with_domains(configs, 1, HealthPolicy::default(), &MetricsRegistry::new())
    }

    /// Builds a fleet of `domains` equal failure domains (consecutive
    /// runs of `configs`, all schedulable) with an explicit
    /// circuit-breaker policy, whose per-device series
    /// (`device="dev{n}"` labels) live in `registry`.
    ///
    /// # Panics
    ///
    /// Panics on an empty config list, or when `domains` does not divide
    /// it into equal non-empty runs.
    pub fn with_domains(
        configs: Vec<DeviceConfig>,
        domains: usize,
        policy: HealthPolicy,
        registry: &MetricsRegistry,
    ) -> Self {
        assert!(!configs.is_empty(), "fleet needs at least one device");
        assert!(
            domains > 0 && configs.len().is_multiple_of(domains),
            "{} devices do not split into {domains} equal domains",
            configs.len()
        );
        let domain_size = configs.len() / domains;
        let domains = configs
            .chunks(domain_size)
            .map(|run| Domain {
                weight: run.iter().map(throughput_weight).sum(),
                pinned: AtomicU64::new(0),
                schedulable: AtomicBool::new(true),
                interrupt: Arc::new(AtomicBool::new(false)),
            })
            .collect();
        FleetRuntime {
            devices: configs
                .into_iter()
                .enumerate()
                .map(|(i, c)| DeviceRuntime::new(c, policy, DeviceCells::new(registry, i)))
                .collect(),
            domains,
            domain_size,
            p2p_transfers: AtomicU64::new(0),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet has no devices (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The configuration of device `dev`.
    pub fn config(&self, dev: usize) -> &DeviceConfig {
        &self.devices[dev].config
    }

    /// Number of failure domains.
    pub fn domains(&self) -> usize {
        self.domains.len()
    }

    /// The failure domain device `dev` belongs to.
    pub fn domain_of(&self, dev: usize) -> usize {
        dev / self.domain_size
    }

    /// The devices of failure domain `domain`.
    pub fn domain_devices(&self, domain: usize) -> Range<usize> {
        domain * self.domain_size..(domain + 1) * self.domain_size
    }

    /// The one placement function: a domain — the job's own for
    /// [`Avoid::Device`], else the least-loaded schedulable one — then an
    /// available device inside it, both by one key: idle (no unresolved
    /// pins) first, then `(pinned + 1)` over `throughput_weight` (summed
    /// over a domain), then the lowest index. A device to avoid is taken
    /// only when no other is available; with none available the job is
    /// pinned to the host CPU. Counts the pin and one placement on its
    /// device; pair it with [`Self::unpin`]. `None`: no domain can take it.
    /// Concurrent calls may race for one idle device, so a caller that
    /// needs a repeatable schedule serializes them (the service pins under
    /// its queue lock).
    pub fn pin(&self, avoid: Avoid) -> Option<Pin> {
        let open_domain = |dead: Option<usize>| {
            least_loaded(
                self.domains
                    .iter()
                    .enumerate()
                    .filter(|&(i, d)| Some(i) != dead && d.schedulable.load(Ordering::Relaxed))
                    .map(|(i, d)| (i, d.pinned.load(Ordering::Relaxed), d.weight)),
            )
        };
        let (domain, steer_off) = match avoid {
            Avoid::Nothing => (open_domain(None)?, None),
            Avoid::Domain(dead) => (open_domain(Some(dead))?, None),
            Avoid::Device(pin) => (pin.domain, pin.device),
        };
        let available = || self.domain_devices(domain).filter(|&d| self.available(d));
        let weighed = |d| (d, self.device_pinned(d), throughput_weight(self.config(d)));
        let device = least_loaded(available().filter(|&d| Some(d) != steer_off).map(weighed))
            .or_else(|| available().find(|&d| Some(d) == steer_off));
        self.domains[domain].pinned.fetch_add(1, Ordering::Relaxed);
        if let Some(dev) = device {
            self.devices[dev].pinned.fetch_add(1, Ordering::Relaxed);
            self.devices[dev].jobs.fetch_add(1, Ordering::Relaxed);
        }
        Some(Pin { domain, device })
    }

    /// Releases `pin` (its job resolved or was pinned elsewhere).
    pub fn unpin(&self, pin: Pin) {
        self.domains[pin.domain]
            .pinned
            .fetch_sub(1, Ordering::Relaxed);
        if let Some(dev) = pin.device {
            self.devices[dev].pinned.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Unresolved jobs pinned to `domain`.
    pub fn pinned(&self, domain: usize) -> u64 {
        self.domains[domain].pinned.load(Ordering::Relaxed)
    }

    /// Unresolved jobs pinned to device `dev`.
    pub fn device_pinned(&self, dev: usize) -> u64 {
        self.devices[dev].pinned.load(Ordering::Relaxed)
    }

    /// Opens or closes `domain` to new pins; jobs already pinned there
    /// stay. A dead domain stays closed.
    pub fn set_schedulable(&self, domain: usize, schedulable: bool) {
        let d = &self.domains[domain];
        let alive = !d.interrupt.load(Ordering::Relaxed);
        d.schedulable.store(schedulable && alive, Ordering::Relaxed);
    }

    /// Whether `domain` takes new pins.
    pub fn schedulable(&self, domain: usize) -> bool {
        self.domains[domain].schedulable.load(Ordering::Relaxed)
    }

    /// Kills `domain` for good: closes it to pins and raises its
    /// interrupt flag.
    pub fn kill_domain(&self, domain: usize) {
        let d = &self.domains[domain];
        d.schedulable.store(false, Ordering::Relaxed);
        d.interrupt.store(true, Ordering::Relaxed);
    }

    /// Whether `domain` was killed.
    pub fn is_dead(&self, domain: usize) -> bool {
        self.domains[domain].interrupt.load(Ordering::Relaxed)
    }

    /// The interrupt flag of `domain`, for the tasks pinned there.
    pub fn interrupt(&self, domain: usize) -> &Arc<AtomicBool> {
        &self.domains[domain].interrupt
    }

    /// Counts `count` bucket-range MSM shards executed on device `dev`.
    pub fn record_shards(&self, dev: usize, count: u64) {
        self.devices[dev].cells.shards.add(count);
    }

    /// Simulated elapsed time on `dev`'s timeline right now.
    fn elapsed_sim_ns(&self, dev: usize) -> f64 {
        self.devices[dev]
            .lanes
            .lock()
            .expect("fleet lanes mutex")
            .timeline
            .elapsed_ns()
    }

    fn push_event(&self, dev: usize, kind: HealthEventKind, sim_ns: f64) {
        self.devices[dev]
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(HealthEvent { kind, sim_ns });
    }

    /// Refreshes `dev`'s quarantine-time gauge from its breaker state.
    fn refresh_quarantine_gauge(&self, dev: usize, now: Instant) {
        self.devices[dev]
            .cells
            .quarantine_ns
            .set(self.health(dev).quarantined_ns(now) as f64);
    }

    fn health(&self, dev: usize) -> std::sync::MutexGuard<'_, DeviceHealth> {
        // A panic between lock and unlock cannot corrupt the breaker
        // state (all updates are single assignments), so recover rather
        // than propagate the poison to every other worker.
        self.devices[dev]
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a successful stage on `dev`: closes its circuit breaker.
    /// Returns `true` when this success recovered a degraded device (the
    /// event is added to the device's history).
    pub fn record_success(&self, dev: usize) -> bool {
        let now = Instant::now();
        let recovered = self.health(dev).on_success(now);
        if recovered {
            self.push_event(dev, HealthEventKind::Recovered, self.elapsed_sim_ns(dev));
        }
        self.refresh_quarantine_gauge(dev, now);
        recovered
    }

    /// Records a failed stage on `dev`. `hard` marks device-gone faults
    /// (hangs) that trip the breaker immediately. Returns `true` when the
    /// failure newly quarantined the device.
    pub fn record_failure(&self, dev: usize, hard: bool) -> bool {
        let now = Instant::now();
        let newly = self.health(dev).on_failure(now, hard);
        let sim_ns = self.elapsed_sim_ns(dev);
        self.push_event(
            dev,
            if hard {
                HealthEventKind::HardFault
            } else {
                HealthEventKind::SoftFault
            },
            sim_ns,
        );
        if newly {
            self.push_event(dev, HealthEventKind::Quarantined, sim_ns);
            self.devices[dev].cells.quarantines.inc();
        }
        self.refresh_quarantine_gauge(dev, now);
        newly
    }

    /// Whether `dev` currently accepts placements (healthy, or due for
    /// its probation probe).
    pub fn available(&self, dev: usize) -> bool {
        self.health(dev).available(Instant::now())
    }

    /// Times `dev` has entered quarantine.
    pub(crate) fn quarantine_count(&self, dev: usize) -> u64 {
        self.devices[dev].cells.quarantines.get()
    }

    /// Total quarantine entries across the fleet.
    pub fn quarantine_events(&self) -> u64 {
        (0..self.devices.len())
            .map(|d| self.quarantine_count(d))
            .sum()
    }

    /// Deadline-aware device claim. `remaining_cost_ns` is the job's
    /// modeled remaining work (simulated nanoseconds on one device);
    /// `slack_ns` is the wall-clock budget left before its deadline. A
    /// job whose slack is tighter than `remaining_cost_ns ×`
    /// `URGENCY_MARGIN` is *urgent* and claims every available device
    /// of its `domain` — fastest first — so a near-deadline large proof
    /// can take the whole domain and split its MSMs across it. Grants
    /// never cross domains: a merge between two would model a P2P link
    /// between hosts.
    ///
    /// Every returned device counts one placement; a grant holds no pin,
    /// so there is nothing to release. Returns an empty list when the job
    /// is not urgent or the whole domain is quarantined.
    pub fn place_for_deadline(
        &self,
        domain: usize,
        remaining_cost_ns: f64,
        slack_ns: f64,
    ) -> Vec<usize> {
        let urgent = slack_ns < remaining_cost_ns * URGENCY_MARGIN;
        if !urgent {
            return Vec::new();
        }
        let mut avail: Vec<usize> = self
            .domain_devices(domain)
            .filter(|&d| self.available(d))
            .collect();
        avail.sort_by(|&a, &b| {
            throughput_weight(&self.devices[b].config)
                .total_cmp(&throughput_weight(&self.devices[a].config))
                .then(a.cmp(&b))
        });
        for &dev in &avail {
            self.devices[dev].jobs.fetch_add(1, Ordering::Relaxed);
        }
        avail
    }

    /// Total device↔device bytes the fleet has routed (each transfer
    /// counted once, at its source device, regardless of link class).
    pub fn p2p_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.cells.p2p_bytes.get()).sum()
    }

    /// Total device↔device transfers the fleet has routed.
    pub fn p2p_transfers(&self) -> u64 {
        self.p2p_transfers.load(Ordering::Relaxed)
    }

    /// Schedules a device→device partial-sum transfer: `bytes` leave
    /// `src` no earlier than `after_ns` (the completion of the kernel
    /// that produced them), cross the link, and land on `dst`, whose
    /// execute stream is then ordered after the arrival — so a merge
    /// kernel recorded on `dst` right after this call starts when the
    /// partial is actually resident. NVLink pairs copy directly over
    /// their P2P engines; mixed links pay the host-staged D2H + H2D
    /// round-trip (see [`gzkp_gpu_sim::d2d_time_ns`]). The op shows on
    /// both endpoints' `p2p` lanes. Returns the simulated arrival time.
    pub fn record_p2p(
        &self,
        src: usize,
        dst: usize,
        label: &str,
        bytes: u64,
        after_ns: f64,
    ) -> f64 {
        assert_ne!(src, dst, "P2P transfer needs two distinct devices");
        let link = link_kind(&self.devices[src].config, &self.devices[dst].config);
        let dur = d2d_time_ns(&self.devices[src].config, &self.devices[dst].config, bytes);
        let name = format!(
            "{label}.{}",
            match link {
                LinkKind::NvlinkP2p => "p2p",
                LinkKind::HostStaged => "p2p-staged",
            }
        );
        // Lock both devices' lanes in index order so concurrent merges
        // between overlapping device pairs cannot deadlock.
        let (lo, hi) = (src.min(dst), src.max(dst));
        let guard_lo = self.devices[lo].lanes.lock().expect("fleet lanes mutex");
        let guard_hi = self.devices[hi].lanes.lock().expect("fleet lanes mutex");
        let (mut src_lanes, mut dst_lanes) = if src == lo {
            (guard_lo, guard_hi)
        } else {
            (guard_hi, guard_lo)
        };
        let sp = src_lanes.p2p;
        src_lanes.timeline.wait(sp, Event::at(after_ns));
        let sent = src_lanes.timeline.d2d(sp, &name, bytes, dur);
        src_lanes.issued += 1;
        // Mirror on the destination port, aligned to the send: both ends'
        // engines must be free, so the arrival is the later completion.
        let dp = dst_lanes.p2p;
        dst_lanes.timeline.wait(dp, Event::at(sent.at_ns() - dur));
        let received = dst_lanes.timeline.d2d(dp, &name, bytes, dur);
        dst_lanes.issued += 1;
        let arrival = sent.at_ns().max(received.at_ns());
        let ex = dst_lanes.execute;
        dst_lanes.timeline.wait(ex, Event::at(arrival));
        drop(src_lanes);
        drop(dst_lanes);
        self.p2p_transfers.fetch_add(1, Ordering::Relaxed);
        self.devices[src].cells.p2p_bytes.add(bytes);
        arrival
    }

    /// Schedules one proof stage on device `dev`: upload `h2d_bytes` of
    /// pinned host memory, run `kernel_ns` of compute ordered after the
    /// upload, download `d2h_bytes` ordered after the kernel. Returns the
    /// simulated completion time. Because uploads go on a dedicated
    /// stream, the next stage's H2D overlaps this stage's kernel.
    pub fn record_stage(
        &self,
        dev: usize,
        label: &str,
        h2d_bytes: u64,
        kernel_ns: f64,
        d2h_bytes: u64,
    ) -> f64 {
        let mut lanes = self.devices[dev].lanes.lock().expect("fleet lanes mutex");
        let Lanes {
            ref mut timeline,
            upload,
            execute,
            download,
            ref mut issued,
            ..
        } = *lanes;
        let mut last = 0.0f64;
        if h2d_bytes > 0 {
            let ev = timeline.h2d(upload, &format!("{label}.h2d"), h2d_bytes, HostMem::Pinned);
            timeline.wait(execute, ev);
            last = ev.at_ns();
            *issued += 1;
        }
        if kernel_ns > 0.0 {
            let ev = timeline.kernel_ns(execute, &format!("{label}.kernel"), kernel_ns);
            last = ev.at_ns();
            *issued += 1;
        }
        if d2h_bytes > 0 {
            // Drain on the download stream so the execute stream is free
            // for the next kernel the moment this one retires.
            let ev = timeline.kernel_ns(execute, &format!("{label}.sync"), 0.0);
            timeline.wait(download, ev);
            let ev = timeline.d2h(
                download,
                &format!("{label}.d2h"),
                d2h_bytes,
                HostMem::Pinned,
            );
            last = ev.at_ns();
            // The zero-length sync kernel and the download.
            *issued += 2;
        }
        let c = &self.devices[dev].cells;
        c.stages.inc();
        c.h2d_bytes.add(h2d_bytes);
        c.d2h_bytes.add(d2h_bytes);
        c.busy_ns.set(lanes.timeline.busy_ns(EngineKind::Compute));
        c.elapsed_ns.set(lanes.timeline.elapsed_ns());
        last
    }

    /// Utilization snapshot: per-device engine busy times and counters
    /// against the fleet makespan.
    pub fn utilization(&self) -> FleetUtilization {
        let now = Instant::now();
        let mut rows = Vec::with_capacity(self.devices.len());
        for (index, d) in self.devices.iter().enumerate() {
            let lanes = d.lanes.lock().expect("fleet lanes mutex");
            let row = DeviceUtilization {
                index,
                name: d.config.name.to_string(),
                jobs: d.jobs.load(Ordering::Relaxed),
                shards: d.cells.shards.get(),
                quarantines: self.quarantine_count(index),
                h2d_bytes: lanes.timeline.h2d_bytes(),
                d2h_bytes: lanes.timeline.d2h_bytes(),
                p2p_bytes: lanes.timeline.p2p_bytes(),
                h2d_ns: lanes.timeline.busy_ns(EngineKind::H2d),
                kernel_ns: lanes.timeline.busy_ns(EngineKind::Compute),
                d2h_ns: lanes.timeline.busy_ns(EngineKind::D2h),
                p2p_ns: lanes.timeline.busy_ns(EngineKind::P2p),
                elapsed_ns: lanes.timeline.elapsed_ns(),
                busy_frac: 0.0,
                quarantine_ns: self.health(index).quarantined_ns(now),
                history: d
                    .events
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            };
            // A snapshot is also a good moment to bring the live gauges
            // up to date for devices that stopped recording stages.
            d.cells.busy_ns.set(row.kernel_ns);
            d.cells.elapsed_ns.set(row.elapsed_ns);
            d.cells.quarantine_ns.set(row.quarantine_ns as f64);
            rows.push(row);
        }
        let elapsed_ns = rows.iter().fold(0.0f64, |m, r| m.max(r.elapsed_ns));
        for r in &mut rows {
            r.busy_frac = if elapsed_ns > 0.0 {
                r.kernel_ns / elapsed_ns
            } else {
                0.0
            };
        }
        FleetUtilization {
            elapsed_ns,
            devices: rows,
        }
    }

    /// The fleet's telemetry trace: a `runtime` span whose `dev{n}`
    /// children carry one lane span per engine (`h2d`, `kernel`, `d2h`),
    /// each lane holding its scheduled operations as child spans stamped
    /// with a [`names::SPAN_START_NS`] gauge — what `zkprof render
    /// --timeline` aligns into per-device ASCII rows.
    pub fn trace(&self) -> Trace {
        let util = self.utilization();
        let mut runtime = TraceNode::new(names::SPAN_RUNTIME);
        runtime.time_ns = util.elapsed_ns;
        let mut total_h2d = 0u64;
        let mut total_d2h = 0u64;
        let mut total_shards = 0u64;
        let mut total_quarantines = 0u64;
        let mut total_dropped = 0u64;
        for (d, row) in self.devices.iter().zip(&util.devices) {
            total_h2d += row.h2d_bytes;
            total_d2h += row.d2h_bytes;
            total_shards += row.shards;
            total_quarantines += row.quarantines;
            let mut node = TraceNode::new(format!("dev{}", row.index));
            node.time_ns = row.elapsed_ns;
            node.counters
                .push(("runtime.jobs".to_string(), row.jobs as f64));
            node.counters
                .push((names::RUNTIME_SHARDS.to_string(), row.shards as f64));
            if row.quarantines > 0 {
                node.counters
                    .push((names::QUARANTINE_EVENTS.to_string(), row.quarantines as f64));
            }
            node.counters
                .push((names::RUNTIME_H2D_BYTES.to_string(), row.h2d_bytes as f64));
            node.counters
                .push((names::RUNTIME_D2H_BYTES.to_string(), row.d2h_bytes as f64));
            if row.p2p_bytes > 0 {
                node.counters
                    .push((names::RUNTIME_P2P_BYTES.to_string(), row.p2p_bytes as f64));
            }
            let lanes = d.lanes.lock().expect("fleet lanes mutex");
            // Only a log that overflowed its bound reports what it dropped,
            // so every shorter run's trace is unchanged.
            let dropped = lanes.ops_dropped();
            if dropped > 0 {
                node.counters
                    .push((names::RUNTIME_OPS_DROPPED.to_string(), dropped as f64));
                total_dropped += dropped;
            }
            for engine in [
                EngineKind::H2d,
                EngineKind::Compute,
                EngineKind::D2h,
                EngineKind::P2p,
            ] {
                // The P2P lane appears only when the device actually
                // routed D2D traffic, so clean single-device traces stay
                // byte-identical to pre-P2P ones.
                if engine == EngineKind::P2p
                    && !lanes.timeline.ops().iter().any(|o| o.engine == engine)
                {
                    continue;
                }
                let mut lane = TraceNode::new(engine.label());
                lane.time_ns = lanes.timeline.busy_ns(engine);
                for op in lanes.timeline.ops().iter().filter(|o| o.engine == engine) {
                    let mut span = TraceNode::new(op.name.clone());
                    span.time_ns = op.end_ns - op.start_ns;
                    span.values
                        .push((names::SPAN_START_NS.to_string(), op.start_ns));
                    if op.bytes > 0 {
                        span.counters.push(("bytes".to_string(), op.bytes as f64));
                    }
                    lane.children.push(span);
                }
                node.children.push(lane);
            }
            // Fault/quarantine markers ride in a fourth `health` lane —
            // only when events exist, so clean-run traces stay
            // byte-identical to pre-observability ones.
            let events = d.events.lock().unwrap_or_else(PoisonError::into_inner);
            if !events.is_empty() {
                let mut lane = TraceNode::new(names::SPAN_HEALTH);
                for e in events.iter() {
                    let mut span = TraceNode::new(e.kind.label());
                    span.values
                        .push((names::SPAN_START_NS.to_string(), e.sim_ns));
                    lane.children.push(span);
                }
                node.children.push(lane);
            }
            drop(events);
            runtime.children.push(node);
        }
        runtime
            .counters
            .push((names::RUNTIME_H2D_BYTES.to_string(), total_h2d as f64));
        runtime
            .counters
            .push((names::RUNTIME_D2H_BYTES.to_string(), total_d2h as f64));
        runtime
            .counters
            .push((names::RUNTIME_SHARDS.to_string(), total_shards as f64));
        if total_quarantines > 0 {
            runtime.counters.push((
                names::QUARANTINE_EVENTS.to_string(),
                total_quarantines as f64,
            ));
        }
        if total_dropped > 0 {
            runtime
                .counters
                .push((names::RUNTIME_OPS_DROPPED.to_string(), total_dropped as f64));
        }
        let p2p_transfers = self.p2p_transfers();
        if p2p_transfers > 0 {
            runtime.counters.push((
                names::RUNTIME_P2P_BYTES.to_string(),
                self.p2p_bytes() as f64,
            ));
            runtime.counters.push((
                names::RUNTIME_P2P_TRANSFERS.to_string(),
                p2p_transfers as f64,
            ));
        }
        let mut root = TraceNode::new("root");
        root.time_ns = runtime.time_ns;
        root.children.push(runtime);
        Trace::new(
            "gzkp",
            crate::spec::fleet_label(
                &self
                    .devices
                    .iter()
                    .map(|d| d.config.clone())
                    .collect::<Vec<_>>(),
            ),
            root,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_devices;
    use gzkp_gpu_sim::device::{gtx1080ti, v100};
    use gzkp_gpu_sim::transfer::transfer_time_ns;

    /// Pins `n` new jobs and returns each one's device.
    fn pin_devices(fleet: &FleetRuntime, n: usize) -> Vec<Option<usize>> {
        (0..n)
            .map(|_| {
                fleet
                    .pin(Avoid::Nothing)
                    .expect("a schedulable domain")
                    .device
            })
            .collect()
    }

    #[test]
    fn pin_goes_idle_first_then_throughput_weighted() {
        // V100 weight 800, 1080 Ti 196. Idle first: the second job takes
        // the idle 1080 Ti although the busy V100 is less loaded. Under
        // backlog the V100 absorbs pins until (k + 1) / 800 passes the
        // 1080 Ti's 2 / 196, at k = 8.
        let fleet = FleetRuntime::new(vec![v100(), gtx1080ti()]);
        let picks = pin_devices(&fleet, 10);
        let want: Vec<Option<usize>> = [0, 1, 0, 0, 0, 0, 0, 0, 0, 1].map(Some).into();
        assert_eq!(picks, want);
        assert_eq!((fleet.device_pinned(0), fleet.device_pinned(1)), (8, 2));
        // A device whose jobs resolved is idle again and goes first.
        for _ in 0..2 {
            fleet.unpin(Pin {
                domain: 0,
                device: Some(1),
            });
        }
        assert_eq!(pin_devices(&fleet, 1), [Some(1)]);
        assert_eq!(fleet.pinned(0), 9);
        let util = fleet.utilization();
        assert_eq!((util.devices[0].jobs, util.devices[1].jobs), (8, 3));
    }

    #[test]
    fn pin_avoids_the_failed_device_unless_it_is_the_only_one() {
        let fleet = FleetRuntime::new(vec![v100(), v100()]);
        let off_dev0 = Avoid::Device(Pin {
            domain: 0,
            device: Some(0),
        });
        // Both devices are idle; the avoided one loses.
        let pin = fleet.pin(off_dev0).unwrap();
        assert_eq!(
            pin,
            Pin {
                domain: 0,
                device: Some(1)
            }
        );
        fleet.unpin(pin);
        // With device 1 quarantined, device 0 is the only one left.
        assert!(fleet.record_failure(1, true));
        assert_eq!(fleet.pin(off_dev0).unwrap().device, Some(0));
        // Re-placing an unavailable pin steers off it the same way.
        let off_dev1 = Avoid::Device(Pin {
            domain: 0,
            device: Some(1),
        });
        assert_eq!(fleet.pin(off_dev1).unwrap().device, Some(0));
    }

    #[test]
    fn stage_uploads_pipeline_under_kernels() {
        let fleet = FleetRuntime::new(vec![v100()]);
        let bytes = 64u64 << 20;
        let copy_t = transfer_time_ns(fleet.config(0), bytes, HostMem::Pinned);
        let kernel_t = copy_t * 3.0;
        let n = 6;
        let mut done = 0.0;
        for i in 0..n {
            done = fleet.record_stage(0, &format!("proof{i}"), bytes, kernel_t, 0);
        }
        let serial = (copy_t + kernel_t) * f64::from(n);
        // Only the first upload is exposed; the rest hide under compute.
        assert!((done - (copy_t + kernel_t * f64::from(n))).abs() < 1e-3);
        assert!(done < serial * 0.8);
    }

    #[test]
    fn downloads_do_not_block_the_next_kernel() {
        let fleet = FleetRuntime::new(vec![v100()]);
        let big = 256u64 << 20;
        let d2h_t = transfer_time_ns(fleet.config(0), big, HostMem::Pinned);
        let kernel_t = 50_000.0;
        fleet.record_stage(0, "a", 0, kernel_t, big);
        let done = fleet.record_stage(0, "b", 0, kernel_t, 0);
        // Kernel b starts right after kernel a even though a's (huge)
        // download is still in flight on the download stream.
        assert!(d2h_t > kernel_t);
        assert!((done - 2.0 * kernel_t).abs() < 1e-6);
    }

    #[test]
    fn utilization_rolls_up_engines() {
        let registry = MetricsRegistry::new();
        let fleet = FleetRuntime::with_domains(
            parse_devices("2").unwrap(),
            1,
            HealthPolicy::default(),
            &registry,
        );
        let pin = fleet.pin(Avoid::Nothing).unwrap();
        fleet.record_stage(0, "p", 1 << 20, 2.0e6, 4096);
        fleet.unpin(pin);
        fleet.record_shards(0, 3);
        let util = fleet.utilization();
        assert_eq!(util.devices.len(), 2);
        let d0 = &util.devices[0];
        assert_eq!((d0.jobs, d0.shards), (1, 3));
        assert_eq!(d0.h2d_bytes, 1 << 20);
        assert_eq!(d0.d2h_bytes, 4096);
        assert!(d0.kernel_ns > 0.0 && d0.busy_frac > 0.0 && d0.busy_frac <= 1.0);
        assert_eq!(util.devices[1].jobs, 0);
        assert!((util.elapsed_ns - d0.elapsed_ns).abs() < 1e-9);
        // The rows are reads of the registry's per-device counters.
        let snap = registry.snapshot();
        for d in &util.devices {
            let dev = format!("dev{}", d.index);
            let count = |name| snap.counter_labeled(name, "device", &dev);
            assert_eq!(count(names::RUNTIME_SHARDS), Some(d.shards));
        }
        let table = util.render();
        assert!(table.contains("dev0 V100"));
        assert!(table.contains("util"));
    }

    #[test]
    fn p2p_transfer_orders_destination_after_source_kernel() {
        let fleet = FleetRuntime::new(vec![v100(), v100()]);
        // dev1 computes a partial; its bytes cross to dev0; a merge
        // kernel on dev0 must start only after arrival.
        let done1 = fleet.record_stage(1, "job0.msm.shard1", 1 << 20, 2.0e6, 0);
        let bytes = 4096u64;
        let arrival = fleet.record_p2p(1, 0, "job0.msm.merge1", bytes, done1);
        let dur = gzkp_gpu_sim::d2d_time_ns(fleet.config(1), fleet.config(0), bytes);
        assert!((arrival - (done1 + dur)).abs() < 1e-6);
        let merged = fleet.record_stage(0, "job0.msm.merge1", 0, 10_000.0, 0);
        assert!((merged - (arrival + 10_000.0)).abs() < 1e-6);
        assert_eq!(fleet.p2p_bytes(), bytes);
        assert_eq!(fleet.p2p_transfers(), 1);
        // Both endpoints show the transfer on their P2P port.
        let util = fleet.utilization();
        assert_eq!(util.devices[0].p2p_bytes, bytes);
        assert_eq!(util.devices[1].p2p_bytes, bytes);
        assert!(util.devices[0].p2p_ns > 0.0);
        // The trace grows a p2p lane on both devices, NVLink-named, and
        // fleet-level counters count the transfer once.
        let trace = fleet.trace();
        for dev in ["dev0", "dev1"] {
            let lane = trace.find(&["runtime", dev, "p2p"]).expect("p2p lane");
            assert_eq!(lane.children.len(), 1);
            assert!(lane.children[0].name.ends_with(".p2p"));
        }
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(
            runtime.counter(names::RUNTIME_P2P_BYTES),
            Some(bytes as f64)
        );
        assert_eq!(runtime.counter(names::RUNTIME_P2P_TRANSFERS), Some(1.0));
    }

    #[test]
    fn pcie_pair_routes_host_staged() {
        let fleet = FleetRuntime::new(vec![gtx1080ti(), gtx1080ti()]);
        fleet.record_p2p(0, 1, "job0.msm.merge0", 4096, 0.0);
        let trace = fleet.trace();
        let lane = trace.find(&["runtime", "dev0", "p2p"]).unwrap();
        assert!(lane.children[0].name.ends_with(".p2p-staged"));
    }

    #[test]
    fn clean_trace_has_no_p2p_lane_or_counters() {
        let fleet = FleetRuntime::new(vec![v100(), v100()]);
        fleet.record_stage(0, "p", 1024, 1.0e6, 0);
        let trace = fleet.trace();
        assert!(trace.find(&["runtime", "dev0", "p2p"]).is_none());
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(runtime.counter(names::RUNTIME_P2P_BYTES), None);
        assert_eq!(runtime.counter(names::RUNTIME_P2P_TRANSFERS), None);
    }

    #[test]
    fn calm_deadline_claims_nothing_urgent_takes_fleet() {
        let fleet = FleetRuntime::new(vec![v100(), gtx1080ti(), v100()]);
        // Slack covering cost × margin claims (and counts) no device.
        assert!(fleet.place_for_deadline(0, 1.0e9, 2.0e9).is_empty());
        assert!(fleet.utilization().devices.iter().all(|d| d.jobs == 0));
        // Slack under cost × margin: claim every available device,
        // fastest first, each counted once and none left pinned.
        let urgent = fleet.place_for_deadline(0, 1.0e9, 1.5e9);
        assert_eq!(urgent, vec![0, 2, 1], "V100s first, then the 1080 Ti");
        assert!(fleet.utilization().devices.iter().all(|d| d.jobs == 1));
        assert!((0..3).all(|d| fleet.device_pinned(d) == 0));
        // Quarantined devices are skipped.
        assert!(fleet.record_failure(0, true));
        assert_eq!(fleet.place_for_deadline(0, 1.0e9, 0.5e9), vec![2, 1]);
    }

    /// Pins one new job and returns its domain.
    fn domain_of_pin(fleet: &FleetRuntime) -> Option<usize> {
        fleet.pin(Avoid::Nothing).map(|pin| pin.domain)
    }

    fn four_v100s_in(domains: usize) -> FleetRuntime {
        FleetRuntime::with_domains(
            vec![v100(); 4],
            domains,
            HealthPolicy::default(),
            &MetricsRegistry::new(),
        )
    }

    #[test]
    fn domain_pins_go_least_loaded_with_lowest_index_on_ties() {
        let fleet = FleetRuntime::with_domains(
            vec![v100(); 3],
            3,
            HealthPolicy::default(),
            &MetricsRegistry::new(),
        );
        let pins: Vec<Option<usize>> = (0..4).map(|_| domain_of_pin(&fleet)).collect();
        assert_eq!(pins, [Some(0), Some(1), Some(2), Some(0)]);
        fleet.unpin(Pin {
            domain: 1,
            device: Some(1),
        });
        fleet.unpin(Pin {
            domain: 2,
            device: Some(2),
        });
        assert_eq!(
            domain_of_pin(&fleet),
            Some(1),
            "ties go to the lowest index"
        );
        assert_eq!(
            (fleet.pinned(0), fleet.pinned(1), fleet.pinned(2)),
            (2, 1, 0)
        );
        assert_eq!(fleet.domain_of(2), 2);
    }

    #[test]
    fn unschedulable_and_dead_domains_take_no_pins() {
        let fleet = four_v100s_in(2);
        fleet.set_schedulable(0, false);
        assert!(!fleet.schedulable(0) && fleet.schedulable(1));
        assert_eq!(domain_of_pin(&fleet), Some(1));
        assert_eq!(
            domain_of_pin(&fleet),
            Some(1),
            "a closed domain stays empty"
        );
        fleet.set_schedulable(0, true);
        assert_eq!(domain_of_pin(&fleet), Some(0));
        fleet.kill_domain(1);
        assert!(fleet.is_dead(1) && fleet.interrupt(1).load(Ordering::Relaxed));
        fleet.set_schedulable(1, true);
        assert!(!fleet.schedulable(1), "a dead domain never reopens");
        assert_eq!(domain_of_pin(&fleet), Some(0));
        fleet.kill_domain(0);
        assert_eq!(domain_of_pin(&fleet), None);
    }

    #[test]
    fn resume_pin_avoids_the_domain_it_left() {
        let fleet = four_v100s_in(2);
        for _ in 0..5 {
            fleet.pin(Avoid::Domain(0));
        }
        assert_eq!(fleet.pinned(1), 5, "the job just left domain 0");
        assert_eq!(domain_of_pin(&fleet), Some(0));
        // ...unless no other domain exists: then there is nowhere to go.
        assert_eq!(four_v100s_in(1).pin(Avoid::Domain(0)), None);
    }

    #[test]
    fn pins_and_deadline_grants_stay_inside_the_domain() {
        let fleet = four_v100s_in(2);
        assert_eq!(fleet.domain_devices(1), 2..4);
        let pins: Vec<Pin> = (0..4).map(|_| fleet.pin(Avoid::Nothing).unwrap()).collect();
        let placed: Vec<(usize, Option<usize>)> =
            pins.iter().map(|p| (p.domain, p.device)).collect();
        assert_eq!(
            placed,
            [(0, Some(0)), (1, Some(2)), (0, Some(1)), (1, Some(3))]
        );
        let off_dev2 = Avoid::Device(Pin {
            domain: 1,
            device: Some(2),
        });
        assert_eq!(fleet.pin(off_dev2).unwrap().device, Some(3));
        assert_eq!(fleet.place_for_deadline(1, 1.0e9, 0.5e9), vec![2, 3]);
        assert_eq!(fleet.place_for_deadline(0, 1.0e9, 0.5e9), vec![0, 1]);
    }

    #[test]
    fn whole_domain_quarantine_pins_the_cpu_fallback() {
        let fleet = four_v100s_in(2);
        assert!(fleet.record_failure(2, true) && fleet.record_failure(3, true));
        // The domain is still chosen by its pins; inside it, no device.
        let pins: Vec<Pin> = (0..2).map(|_| fleet.pin(Avoid::Nothing).unwrap()).collect();
        assert_eq!(
            pins,
            [
                Pin {
                    domain: 0,
                    device: Some(0)
                },
                Pin {
                    domain: 1,
                    device: None
                }
            ]
        );
        let off_dev2 = Avoid::Device(Pin {
            domain: 1,
            device: Some(2),
        });
        assert_eq!(fleet.pin(off_dev2).unwrap().device, None);
        assert_eq!(fleet.pinned(1), 2);
        for pin in pins {
            fleet.unpin(pin);
        }
        assert_eq!((fleet.pinned(0), fleet.device_pinned(0)), (0, 0));
    }

    #[test]
    fn quarantined_devices_take_no_pins_and_surface_in_reports() {
        use crate::health::HealthPolicy;
        use std::time::Duration;
        let policy = HealthPolicy {
            quarantine_after: 2,
            probation: Duration::from_secs(60),
            max_probation: Duration::from_secs(60),
        };
        let fleet = FleetRuntime::with_domains(
            vec![v100(), v100(), v100()],
            1,
            policy,
            &MetricsRegistry::new(),
        );
        // A hang hard-quarantines immediately; soft failures need two.
        assert!(fleet.record_failure(1, true));
        assert!(!fleet.available(1));
        assert!(!fleet.record_failure(0, false));
        assert!(fleet.available(0), "one soft failure keeps it placeable");
        assert_eq!(pin_devices(&fleet, 3), [Some(0), Some(2), Some(0)]);
        assert!(fleet.record_failure(0, false));
        assert_eq!(pin_devices(&fleet, 2), [Some(2), Some(2)]);
        assert_eq!(fleet.device_pinned(1), 0);
        assert_eq!(fleet.quarantine_events(), 2);
        let util = fleet.utilization();
        assert_eq!(util.devices[0].quarantines, 1);
        assert!(util.render().contains("quar"));
        let trace = fleet.trace();
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(runtime.counter(names::QUARANTINE_EVENTS), Some(2.0));
    }

    #[test]
    fn healthy_fleet_trace_omits_quarantine_counter() {
        let fleet = FleetRuntime::new(vec![v100()]);
        fleet.record_stage(0, "p", 1024, 1.0e6, 0);
        let trace = fleet.trace();
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(runtime.counter(names::QUARANTINE_EVENTS), None);
    }

    #[test]
    fn trace_exposes_device_lanes_with_start_gauges() {
        let fleet = FleetRuntime::new(vec![v100(), v100()]);
        fleet.record_stage(0, "proof0.msm", 8 << 20, 1.5e6, 1024);
        fleet.record_stage(1, "proof1.msm", 8 << 20, 1.5e6, 1024);
        fleet.record_shards(1, 2);
        let trace = fleet.trace();
        for dev in ["dev0", "dev1"] {
            for lane in ["h2d", "kernel", "d2h"] {
                let node = trace
                    .find(&["runtime", dev, lane])
                    .unwrap_or_else(|| panic!("missing runtime→{dev}→{lane}"));
                assert!(!node.children.is_empty(), "{dev}/{lane} has no ops");
                for op in &node.children {
                    assert!(op.value(names::SPAN_START_NS).is_some());
                }
            }
        }
        let up = trace.find(&["runtime", "dev0", "h2d"]).unwrap();
        assert_eq!(up.children[0].counter("bytes"), Some((8 << 20) as f64));
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(
            runtime.counter(names::RUNTIME_H2D_BYTES),
            Some(2.0 * (8 << 20) as f64)
        );
        assert_eq!(runtime.counter(names::RUNTIME_SHARDS), Some(2.0));
        assert_eq!(trace.device, "2xV100");
        // Round-trips through the on-disk schema unchanged.
        let back = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn op_log_is_bounded_and_totals_cover_dropped_ops() {
        let fleet = FleetRuntime::new(vec![v100()]);
        let (h2d, kernel, d2h) = (4096u64, 1.0e6, 512u64);
        let stages = 3000u32;
        for i in 0..stages {
            fleet.record_stage(0, &format!("job{i}.msm"), h2d, kernel, d2h);
        }
        // Uploads hide under the previous kernel and downloads drain on
        // their own stream, so compute is back to back after the first
        // upload; the last download ends the makespan.
        let config = fleet.config(0);
        let copy_up = transfer_time_ns(config, h2d, HostMem::Pinned);
        let copy_down = transfer_time_ns(config, d2h, HostMem::Pinned);
        let n = f64::from(stages);
        let util = fleet.utilization();
        let d = &util.devices[0];
        assert!((d.kernel_ns - kernel * n).abs() < 1e-3 * n);
        assert!((d.h2d_ns - copy_up * n).abs() < 1e-3 * n);
        assert!((d.d2h_ns - copy_down * n).abs() < 1e-3 * n);
        assert!((d.elapsed_ns - (copy_up + kernel * n + copy_down)).abs() < 1e-3 * n);
        assert_eq!(d.h2d_bytes, h2d * u64::from(stages));
        // An engine that never ran keeps the empty sum's sign.
        assert!(d.p2p_ns == 0.0 && d.p2p_ns.is_sign_negative());

        // Four ops a stage (upload, kernel, sync, download); the log keeps
        // the newest 4096 and the trace counts the rest.
        let issued = 4 * u64::from(stages);
        let trace = fleet.trace();
        let dev = trace.find(&["runtime", "dev0"]).unwrap();
        let kept: usize = dev.children.iter().map(|lane| lane.children.len()).sum();
        assert_eq!(kept, 4096);
        let dropped = (issued - 4096) as f64;
        assert_eq!(dev.counter(names::RUNTIME_OPS_DROPPED), Some(dropped));
        let runtime = trace.find(&["runtime"]).unwrap();
        assert_eq!(runtime.counter(names::RUNTIME_OPS_DROPPED), Some(dropped));
        // The newest ops survive: the last stage's download closes the log.
        let d2h_lane = trace.find(&["runtime", "dev0", "d2h"]).unwrap();
        assert_eq!(
            d2h_lane.children.last().unwrap().name,
            format!("job{}.msm.d2h", stages - 1)
        );
        // A short run reports nothing dropped.
        let short = FleetRuntime::new(vec![v100()]);
        short.record_stage(0, "p", h2d, kernel, d2h);
        let runtime = short.trace();
        assert_eq!(
            runtime
                .find(&["runtime"])
                .unwrap()
                .counter(names::RUNTIME_OPS_DROPPED),
            None
        );
    }
}
