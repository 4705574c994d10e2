//! The cluster itself: its policy — the admission-controlled front door,
//! the autoscaler and the host-kill roll — in front of one
//! [`ProvingService`] whose fleet holds one failure domain per host,
//! driven by an explicit [`Cluster::pump`] tick so tests and the chaos
//! replay own the event loop.

use crate::autoscale::{AutoscalePolicy, Autoscaler};
use crate::frontdoor::{AdmissionError, FrontDoor, TenantSpec, TenantStats};
use gzkp_gpu_sim::FaultSummary;
use gzkp_runtime::FleetUtilization;
use gzkp_service::{
    JobError, JobHandle, JobOptions, ProofTask, ProvingService, ServiceConfig, ServiceStats,
};
use gzkp_telemetry::{names, Counter, Gauge, LatencyHistogram, MetricsRegistry, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest [`Cluster::drain`] waits for a resolution before it pumps
/// again, so chaos and the autoscaler keep ticking while proofs run.
const DRAIN_TICK: Duration = Duration::from_millis(1);

/// Chaos host kills per run. A kill is only rolled while at least two
/// hosts are up, so moved work always has somewhere to resume.
const MAX_CHAOS_KILLS: u64 = 1;

/// Host lifecycle, read from the host's failure domain in the service's
/// fleet (dead, schedulable) and the cluster's warm-up clock; never
/// stored. Numeric values double as the `host.state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Started but still paying its warm-up cost; takes no work.
    Warming,
    /// Accepting and executing work.
    Up,
    /// Gone — killed by chaos, retired by the autoscaler, or stopped at
    /// the end of the run.
    Dead,
}

impl HostState {
    /// Gauge encoding (0 warming, 1 up, 3 dead).
    pub fn as_gauge(self) -> f64 {
        match self {
            HostState::Warming => 0.0,
            HostState::Up => 1.0,
            HostState::Dead => 3.0,
        }
    }
}

/// Final accounting of one host, reported by [`ClusterOutcome::hosts`].
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host id — its failure domain in the fleet.
    pub id: usize,
    /// Whether the host was killed (its domain is dead in the fleet), as
    /// opposed to retired or stopped at the end of the run.
    pub killed: bool,
    /// Jobs that resolved successfully on this host (its
    /// `host.completed{host=hN}` counter).
    pub completed: u64,
    /// Jobs that resolved with an error on this host, plus the ones its
    /// death moved elsewhere (its `host.failed{host=hN}` counter).
    pub failed: u64,
}

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// One host: a [`ServiceConfig`] read as one failure domain
    /// ([`ProvingService::start_in_domains`]), as a plain service reads
    /// it. The cluster itself reads `queue_capacity` (work is released
    /// while fewer jobs than that are open per up host),
    /// `default_deadline` (resolved at admission), `chaos` (host kills
    /// rolled once per pump tick per up host, one per run) and `metrics`
    /// (its own counters, gauges and `host=hN` series go there too;
    /// [`Cluster::stats`] reads them back).
    pub service: ServiceConfig,
    /// Hosts started up-front (already warm).
    pub hosts: usize,
    /// Front-door tenants (fair-share weights + rate limits).
    pub tenants: Vec<TenantSpec>,
    /// Cluster-wide bound on jobs pending in the front door.
    pub pending_capacity: usize,
    /// Queue-depth autoscaling; `None` keeps the host count fixed.
    pub autoscale: Option<AutoscalePolicy>,
}

impl Default for ClusterConfig {
    /// Two hosts of one V100 each, a queue of 8 and a 256 MiB table store
    /// per host, no default deadline, one `default` tenant.
    fn default() -> Self {
        Self {
            service: ServiceConfig {
                queue_capacity: 8,
                workers: 1,
                prep_cache_bytes: 256 << 20,
                default_deadline: None,
                ..ServiceConfig::default()
            },
            hosts: 2,
            tenants: vec![TenantSpec::new("default", 1.0)],
            pending_capacity: 256,
            autoscale: None,
        }
    }
}

/// Lifetime counters of one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Jobs admitted past the front door.
    pub admitted: u64,
    /// Submissions refused by a tenant rate limit.
    pub rejected_rate_limited: u64,
    /// Submissions refused by the cluster-wide pending bound.
    pub rejected_saturated: u64,
    /// Jobs that produced a proof.
    pub completed: u64,
    /// Jobs that failed permanently.
    pub failed: u64,
    /// Jobs dropped at a deadline.
    pub deadline_missed: u64,
    /// Checkpointed resumes after host kills.
    pub resumes: u64,
    /// Host kills that happened.
    pub host_kills: u64,
    /// Hosts the autoscaler started beyond the initial set.
    pub hosts_started: u64,
    /// Hosts the autoscaler retired.
    pub hosts_retired: u64,
}

/// Final record of one cluster job.
#[derive(Debug)]
pub struct ClusterResult {
    /// Cluster-assigned job id (returned by [`Cluster::submit`]).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The proof bytes, or why there are none.
    pub outcome: Result<Vec<u8>, String>,
    /// Checkpointed resumes this job went through.
    pub resumes: u32,
    /// Admission-to-resolution latency.
    pub latency: Duration,
    /// The job's service trace, when it was submitted with
    /// [`JobOptions::trace`].
    pub trace: Option<Trace>,
}

/// Everything [`Cluster::drain`] hands back.
pub struct ClusterOutcome {
    /// Per-job records, in resolution order.
    pub results: Vec<ClusterResult>,
    /// Lifetime counters.
    pub stats: ClusterStats,
    /// Per-tenant admission counters.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Per-host accounting, in host-id order.
    pub hosts: Vec<HostReport>,
    /// Per-device utilization of the cluster's fleet. Hosts run in
    /// parallel in the setting being modeled, so its `elapsed_ns` — the
    /// maximum over devices, hence over hosts — is the cluster-simulated
    /// makespan.
    pub fleet: FleetUtilization,
    /// The same fleet's `runtime→dev{n}→…` telemetry trace (every host's
    /// devices, host `h` owning `dev{h·d}..dev{h·d+d-1}` for `d` devices a
    /// host), for `zkprof render --timeline`.
    pub fleet_trace: Trace,
    /// Jobs still claimed anywhere after the drain — must be zero; a
    /// non-zero value means a kill or retirement leaked a claim.
    pub leaked_claims: usize,
    /// Chaos accounting — stage faults, dead-device hits and host kills
    /// — when a fault plan was configured.
    pub chaos: Option<FaultSummary>,
    /// The cluster's service counters at shutdown: how faults were
    /// absorbed (retries, verify rejects, quarantines, CPU fallbacks).
    pub service: ServiceStats,
}

impl ClusterOutcome {
    /// Completed-proof count per tenant, for fair-share analysis.
    pub fn completed_by_tenant(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for r in &self.results {
            if r.outcome.is_ok() {
                *map.entry(r.tenant.clone()).or_insert(0u64) += 1;
            }
        }
        map
    }
}

/// The cluster's one set of handles, in the registry it always holds
/// (the template's [`ServiceConfig::metrics`] or a private one): one
/// counter per [`ClusterStats`] field, which [`Cluster::stats`] reads
/// back.
struct ClusterMetrics {
    admitted: Counter,
    rejected_rate: Counter,
    rejected_saturated: Counter,
    completed: Counter,
    failed: Counter,
    deadline_missed: Counter,
    resumes: Counter,
    host_kills: Counter,
    hosts_started: Counter,
    hosts_retired: Counter,
    queue_depth: Gauge,
    hosts_up: Gauge,
    latency: LatencyHistogram,
    /// Where hosts started later (autoscaling) register their series.
    registry: Arc<MetricsRegistry>,
}

impl ClusterMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            admitted: registry.counter(names::CLUSTER_ADMITTED),
            rejected_rate: registry.counter(names::CLUSTER_REJECTED_RATE),
            rejected_saturated: registry.counter(names::CLUSTER_REJECTED_SATURATED),
            completed: registry.counter(names::CLUSTER_COMPLETED),
            failed: registry.counter(names::CLUSTER_FAILED),
            deadline_missed: registry.counter(names::CLUSTER_DEADLINE_MISSED),
            resumes: registry.counter(names::CLUSTER_RESUMES),
            host_kills: registry.counter(names::CLUSTER_HOST_KILLS),
            hosts_started: registry.counter(names::CLUSTER_HOSTS_STARTED),
            hosts_retired: registry.counter(names::CLUSTER_HOSTS_RETIRED),
            queue_depth: registry.gauge(names::CLUSTER_QUEUE_DEPTH),
            hosts_up: registry.gauge(names::CLUSTER_HOSTS_UP),
            latency: registry.histogram(names::CLUSTER_JOB_LATENCY_NS),
            registry,
        }
    }

    fn stats(&self) -> ClusterStats {
        ClusterStats {
            admitted: self.admitted.get(),
            rejected_rate_limited: self.rejected_rate.get(),
            rejected_saturated: self.rejected_saturated.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            deadline_missed: self.deadline_missed.get(),
            resumes: self.resumes.get(),
            host_kills: self.host_kills.get(),
            hosts_started: self.hosts_started.get(),
            hosts_retired: self.hosts_retired.get(),
        }
    }
}

/// One started host — a failure domain of the service's fleet, which
/// holds whether it is dead or takes work — with its warm-up clock and
/// its `host=hN` series in the cluster's registry.
struct Host {
    /// When a host the autoscaler started takes work; `None` once warm.
    warm_until: Option<Instant>,
    completed: Counter,
    failed: Counter,
    inflight: Gauge,
    state_gauge: Gauge,
}

impl Host {
    fn start(id: usize, warm_until: Option<Instant>, metrics: &MetricsRegistry) -> Self {
        let label = format!("h{id}");
        Self {
            warm_until,
            completed: metrics.counter_with(names::HOST_COMPLETED, names::LABEL_HOST, &label),
            failed: metrics.counter_with(names::HOST_FAILED, names::LABEL_HOST, &label),
            inflight: metrics.gauge_with(names::HOST_INFLIGHT, names::LABEL_HOST, &label),
            state_gauge: metrics.gauge_with(names::HOST_STATE, names::LABEL_HOST, &label),
        }
    }
}

/// A job admitted by the front door and not yet released to the service.
struct Admitted {
    id: u64,
    task: Box<dyn ProofTask>,
    opts: JobOptions,
    admitted_at: Instant,
}

/// A job released to the service and not yet harvested.
struct OpenJob {
    tenant: String,
    admitted_at: Instant,
    handle: JobHandle,
    /// The host the pump last saw the job pinned to.
    host: usize,
    /// Moves off a killed host counted so far.
    resumes: u32,
}

/// The multi-host proving cluster. Submission is non-blocking; progress
/// is made by [`Cluster::pump`] ticks (or by [`Cluster::drain`], which
/// pumps to completion).
pub struct Cluster {
    cfg: ClusterConfig,
    door: FrontDoor<Admitted>,
    /// The one service; its fleet has one failure domain per host that
    /// can ever run, [`ClusterConfig::hosts`] of them started.
    service: ProvingService,
    /// Started hosts, indexed by domain (domains start in index order).
    hosts: Vec<Host>,
    open: BTreeMap<u64, OpenJob>,
    autoscaler: Option<Autoscaler>,
    metrics: ClusterMetrics,
    tick: u64,
    next_job: u64,
    results: Vec<ClusterResult>,
}

impl Cluster {
    /// Starts the cluster's service over `max(hosts, autoscale.max_hosts)`
    /// failure domains, each one [`ClusterConfig::service`], `cfg.hosts`
    /// of them warm immediately (warm-up cost applies only to autoscaler
    /// additions; the rest take no work until started), and opens the
    /// front door.
    pub fn start(cfg: ClusterConfig) -> Self {
        let registry = cfg.service.metrics.clone().unwrap_or_default();
        let started = cfg.hosts.max(1);
        let domains = started.max(cfg.autoscale.map_or(0, |a| a.max_hosts));
        let service = ProvingService::start_in_domains(
            ServiceConfig {
                metrics: Some(registry.clone()),
                ..cfg.service.clone()
            },
            domains,
        );
        for domain in started..domains {
            service.fleet().set_schedulable(domain, false);
        }
        let metrics = ClusterMetrics::new(registry);
        Self {
            door: FrontDoor::new(&cfg.tenants, cfg.pending_capacity),
            service,
            hosts: (0..started)
                .map(|id| Host::start(id, None, &metrics.registry))
                .collect(),
            open: BTreeMap::new(),
            autoscaler: cfg.autoscale.map(Autoscaler::new),
            metrics,
            cfg,
            tick: 0,
            next_job: 0,
            results: Vec::new(),
        }
    }

    /// Submits one job for `tenant`. Runs the full admission pipeline;
    /// on success the job is queued fairly and released to the service
    /// by a later pump. `opts` are the service's: the deadline — the
    /// job's own or the template's `default_deadline` — is measured from
    /// admission here (the time spent in the front door counts against
    /// it, and a job moved off a killed host keeps its running deadline),
    /// and `trace` records the job's service trace.
    ///
    /// # Errors
    ///
    /// Typed backpressure — see [`AdmissionError`].
    pub fn submit(
        &mut self,
        tenant: &str,
        task: Box<dyn ProofTask>,
        opts: JobOptions,
    ) -> Result<u64, AdmissionError> {
        self.submit_at(tenant, task, opts, Instant::now())
    }

    /// [`Cluster::submit`] with an explicit admission clock (testing
    /// rate limits deterministically).
    ///
    /// # Errors
    ///
    /// Typed backpressure — see [`AdmissionError`].
    pub fn submit_at(
        &mut self,
        tenant: &str,
        task: Box<dyn ProofTask>,
        opts: JobOptions,
        now: Instant,
    ) -> Result<u64, AdmissionError> {
        let id = self.next_job;
        let job = Admitted {
            id,
            task,
            opts,
            admitted_at: now,
        };
        if let Err(e) = self.door.admit_at(tenant, job, now) {
            match &e {
                AdmissionError::RateLimited { .. } => self.metrics.rejected_rate.inc(),
                AdmissionError::Saturated { .. } => self.metrics.rejected_saturated.inc(),
                _ => {}
            }
            return Err(e);
        }
        self.next_job += 1;
        self.metrics.admitted.inc();
        Ok(id)
    }

    /// One scheduling tick: promote warm hosts, roll chaos, autoscale,
    /// release admitted work to the service, count moves off killed
    /// hosts, harvest finished work. Returns the number of jobs resolved
    /// this tick.
    pub fn pump(&mut self) -> usize {
        let now = Instant::now();
        self.tick += 1;
        for (id, host) in self.hosts.iter_mut().enumerate() {
            if host.warm_until.is_some_and(|t| now >= t) {
                host.warm_until = None;
                self.service.fleet().set_schedulable(id, true);
            }
        }
        self.roll_chaos();
        self.autoscale(now);
        self.release(now);
        self.count_moves();
        let resolved = self.harvest();

        self.metrics.queue_depth.set(self.door.depth() as f64);
        self.metrics.hosts_up.set(self.up_hosts() as f64);
        self.publish_host_gauges();
        resolved
    }

    /// Host `id`'s state: its domain's in the fleet, or warming.
    fn state(&self, id: usize) -> HostState {
        let fleet = self.service.fleet();
        if fleet.is_dead(id) {
            HostState::Dead
        } else if self.hosts[id].warm_until.is_some() {
            HostState::Warming
        } else if fleet.schedulable(id) {
            HostState::Up
        } else {
            HostState::Dead
        }
    }

    fn hosts_in(&self, state: HostState) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&id| self.state(id) == state)
            .collect()
    }

    fn up_hosts(&self) -> usize {
        self.hosts_in(HostState::Up).len()
    }

    /// Publishes each host's state and its open jobs — released and not
    /// yet harvested, so a job is always either open on a host or counted
    /// resolved.
    fn publish_host_gauges(&self) {
        let mut open = vec![0u32; self.hosts.len()];
        for job in self.open.values() {
            if let Some(n) = open.get_mut(job.handle.domain()) {
                *n += 1;
            }
        }
        for (id, (host, n)) in self.hosts.iter().zip(open).enumerate() {
            host.inflight.set(f64::from(n));
            host.state_gauge.set(self.state(id).as_gauge());
        }
    }

    fn roll_chaos(&mut self) {
        let Some(injector) = self.service.fault_injector() else {
            return;
        };
        let up = self.hosts_in(HostState::Up);
        if self.metrics.host_kills.get() >= MAX_CHAOS_KILLS || up.len() < 2 {
            return;
        }
        let victim = up
            .into_iter()
            .find(|&id| injector.roll_host_kill(id, self.tick));
        if let Some(id) = victim {
            self.kill_host(id);
        }
    }

    /// Kills host `id` (chaos or explicit): its domain takes no more work
    /// and its interrupt flag rises, so the jobs there move to the
    /// survivors and resume from their persisted checkpoints (see
    /// [`ProvingService::kill_domain`]). Killing an unknown or already
    /// dead host does nothing and is not counted.
    pub fn kill_host(&mut self, id: usize) {
        if id >= self.hosts.len() || self.state(id) == HostState::Dead {
            return;
        }
        self.metrics.host_kills.inc();
        self.service.kill_domain(id);
    }

    fn autoscale(&mut self, now: Instant) {
        let active: Vec<usize> = (0..self.hosts.len())
            .filter(|&id| self.state(id) != HostState::Dead)
            .collect();
        let demand = self.door.depth() + self.open.len();
        let Some(autoscaler) = &mut self.autoscaler else {
            return;
        };
        let target = autoscaler.target(now, demand, active.len());
        let warm_until = Some(now + autoscaler.policy().warmup);
        let fleet = self.service.fleet().clone();
        if target > active.len() {
            // Start spare domains, lowest first: never started, or retired.
            let spare: Vec<usize> = (0..fleet.domains())
                .filter(|&d| d >= self.hosts.len() || !(fleet.is_dead(d) || active.contains(&d)))
                .take(target - active.len())
                .collect();
            for d in spare {
                match self.hosts.get_mut(d) {
                    Some(host) => host.warm_until = warm_until,
                    None => self
                        .hosts
                        .push(Host::start(d, warm_until, &self.metrics.registry)),
                }
                self.metrics.hosts_started.inc();
            }
        } else if target < active.len() {
            // Retire idle hosts, newest first (their stores are coldest).
            let idle = active.iter().rev().filter(|&&d| fleet.pinned(d) == 0);
            for &d in idle.take(active.len() - target) {
                self.hosts[d].warm_until = None;
                fleet.set_schedulable(d, false);
                self.metrics.hosts_retired.inc();
            }
        }
    }

    /// Releases admitted jobs from the front door into the service while
    /// fewer are open than the up hosts hold (the template's
    /// `queue_capacity` each). The service pins each to its least-loaded
    /// up host, which keeps every host within its capacity.
    fn release(&mut self, now: Instant) {
        let ServiceConfig {
            queue_capacity,
            default_deadline,
            ..
        } = self.cfg.service;
        let capacity = self.up_hosts() * queue_capacity.max(1);
        while self.open.len() < capacity {
            let Some((tenant, job)) = self.door.pop() else {
                break;
            };
            let waited = now.saturating_duration_since(job.admitted_at);
            let deadline = job.opts.deadline.or(default_deadline);
            let opts = JobOptions {
                deadline: deadline.map(|d| d.saturating_sub(waited)),
                ..job.opts
            };
            match self.service.submit(job.task, opts) {
                Ok(handle) => {
                    let open = OpenJob {
                        tenant,
                        admitted_at: job.admitted_at,
                        host: handle.domain(),
                        handle,
                        resumes: 0,
                    };
                    self.open.insert(job.id, open);
                }
                Err(e) => {
                    let outcome = Err(e.to_string());
                    self.record(job.id, tenant, job.admitted_at, outcome, 0, None);
                }
            }
        }
    }

    /// Counts every move off a killed host the service made since the
    /// last tick, when the tick sees it: one cluster resume and a failure
    /// on the host the job left. (A job moved twice between two ticks
    /// shows as one move, off the first host.)
    fn count_moves(&mut self) {
        for job in self.open.values_mut() {
            let host = job.handle.domain();
            if host != job.host {
                self.metrics.resumes.inc();
                self.hosts[job.host].failed.inc();
                job.host = host;
                job.resumes += 1;
            }
        }
    }

    /// Collects every released job the service has resolved and counts
    /// its outcome on the host it resolved on.
    fn harvest(&mut self) -> usize {
        let (done, open): (BTreeMap<u64, OpenJob>, _) = std::mem::take(&mut self.open)
            .into_iter()
            .partition(|(_, job)| job.handle.is_finished());
        self.open = open;
        let resolved = done.len();
        for (id, job) in done {
            let result = job.handle.wait();
            let host = &self.hosts[result.domain];
            match &result.outcome {
                Ok(_) => host.completed.inc(),
                Err(_) => host.failed.inc(),
            }
            let outcome = result.outcome.map(|o| o.proof).map_err(|e| {
                if e == JobError::DeadlineMissed {
                    self.metrics.deadline_missed.inc();
                }
                e.to_string()
            });
            let (tenant, at) = (job.tenant, job.admitted_at);
            self.record(id, tenant, at, outcome, job.resumes, result.trace);
        }
        resolved
    }

    fn record(
        &mut self,
        id: u64,
        tenant: String,
        admitted_at: Instant,
        outcome: Result<Vec<u8>, String>,
        resumes: u32,
        trace: Option<Trace>,
    ) {
        let latency = admitted_at.elapsed();
        if outcome.is_ok() {
            self.metrics.completed.inc();
            self.metrics.latency.record(latency.as_nanos() as u64);
        } else {
            self.metrics.failed.inc();
        }
        self.results.push(ClusterResult {
            id,
            tenant,
            outcome,
            resumes,
            latency,
            trace,
        });
    }

    /// Running counters so far, read from the cluster's registry.
    pub fn stats(&self) -> ClusterStats {
        self.metrics.stats()
    }

    /// Host a released, unresolved job is pinned to right now.
    pub fn job_host(&self, job_id: u64) -> Option<usize> {
        self.open.get(&job_id).map(|job| job.handle.domain())
    }

    /// Jobs admitted but not yet resolved.
    pub fn open_jobs(&self) -> usize {
        self.door.depth() + self.open.len()
    }

    /// Pumps until every admitted job resolves — between ticks it waits
    /// for the service's next resolution, one tick at most — bounded by
    /// `timeout` wall clock (leftovers are cancelled and fail as drain
    /// timeouts), then stops intake, shuts the service down, and reports.
    pub fn drain(mut self, timeout: Duration) -> ClusterOutcome {
        let deadline = Instant::now() + timeout;
        self.door.stop();
        let mut resolutions = 0;
        loop {
            self.pump();
            if self.open_jobs() == 0 {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                while let Some((tenant, job)) = self.door.pop() {
                    let timed_out = Err("cluster drain timeout".to_string());
                    self.record(job.id, tenant, job.admitted_at, timed_out, 0, None);
                }
                for (id, job) in std::mem::take(&mut self.open) {
                    job.handle.cancel();
                    let timed_out = Err("cluster drain timeout".to_string());
                    let (tenant, at) = (job.tenant, job.admitted_at);
                    self.record(id, tenant, at, timed_out, job.resumes, None);
                }
                break;
            }
            resolutions = self
                .service
                .wait_for_resolution(resolutions, remaining.min(DRAIN_TICK));
        }
        // Final gauge sync so a snapshot taken after the drain shows every
        // host stopped and empty, not the last mid-run states.
        self.metrics.hosts_up.set(0.0);
        self.metrics.queue_depth.set(0.0);
        for host in &self.hosts {
            host.inflight.set(0.0);
            host.state_gauge.set(HostState::Dead.as_gauge());
        }
        let fleet = self.service.fleet().clone();
        let injector = self.service.fault_injector().cloned();
        // Shutdown waits out jobs cancelled at a timeout; the claims
        // anything still holds afterwards are leaks.
        let service = self.service.shutdown();
        let pinned: u64 = (0..fleet.domains()).map(|d| fleet.pinned(d)).sum();
        let leaked_claims = self.open.len() + self.door.depth() + pinned as usize;
        let tenants = self.door.tenant_stats();
        ClusterOutcome {
            results: std::mem::take(&mut self.results),
            stats: self.metrics.stats(),
            tenants,
            hosts: self
                .hosts
                .iter()
                .enumerate()
                .map(|(id, h)| HostReport {
                    id,
                    killed: fleet.is_dead(id),
                    completed: h.completed.get(),
                    failed: h.failed.get(),
                })
                .collect(),
            fleet: fleet.utilization(),
            fleet_trace: fleet.trace(),
            leaked_claims,
            chaos: injector.map(|i| i.summary()),
            service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_service::TaskOutput;
    use gzkp_telemetry::TelemetrySink;

    /// A job that proves nothing.
    struct Nop;

    impl ProofTask for Nop {
        fn key_id(&self) -> u64 {
            0
        }
        fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
            Ok(())
        }
        fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
            Ok(TaskOutput {
                proof: vec![7],
                report: None,
            })
        }
    }

    #[test]
    fn a_traced_job_carries_its_service_trace() {
        let mut cluster = Cluster::start(ClusterConfig::default());
        let traced = JobOptions {
            trace: true,
            ..JobOptions::default()
        };
        let a = cluster.submit("default", Box::new(Nop), traced).unwrap();
        let b = cluster
            .submit("default", Box::new(Nop), JobOptions::default())
            .unwrap();
        let outcome = cluster.drain(Duration::from_secs(30));
        let trace = |id| &outcome.results.iter().find(|r| r.id == id).unwrap().trace;
        let service = trace(a).as_ref().expect("trace requested");
        assert!(service.find(&["service", "execute"]).is_some());
        assert!(trace(b).is_none());
    }
}
