//! The cluster itself: admission-controlled intake, cross-host
//! placement, checkpointed failure recovery, and queue-depth
//! autoscaling, driven by an explicit [`Cluster::pump`] tick so tests
//! and the chaos replay own the event loop.

use crate::autoscale::{AutoscalePolicy, Autoscaler};
use crate::frontdoor::{AdmissionError, FrontDoor, TenantSpec, TenantStats};
use crate::host::{HostConfig, HostReport, HostState, SimHost};
use crate::scheduler::{pick_host, urgency_key, HostView};
use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_gpu_sim::{FaultInjector, FaultPlan, FaultSummary};
use gzkp_msm::PreprocessStore;
use gzkp_runtime::HealthPolicy;
use gzkp_service::{CheckpointSlot, JobError, JobOptions, Priority, ProofTask, SubmitError};
use gzkp_telemetry::{names, Counter, Gauge, LatencyHistogram, MetricsRegistry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything a [`TaskFactory`] gets to build (or resume) one proof task
/// for a particular host: the host's primary device and preprocessing
/// cache, the job's checkpoint slot and latest checkpoint bytes, and the
/// host's interrupt flag.
pub struct TaskBuild {
    /// Primary device of the chosen host.
    pub device: DeviceConfig,
    /// The host service's shared preprocessing cache.
    pub store: Option<Arc<PreprocessStore>>,
    /// Latest checkpoint bytes, when the job already made progress on
    /// another host; `None` starts fresh.
    pub checkpoint: Option<Vec<u8>>,
    /// The job's checkpoint slot — the task persists into it at every
    /// stage boundary.
    pub slot: CheckpointSlot,
    /// The chosen host's kill flag; the task aborts between MSM steps
    /// when it rises.
    pub interrupt: Arc<AtomicBool>,
}

/// Builds a proof task for one placement of a job. Called once per
/// dispatch — including re-dispatches after a host kill, where
/// [`TaskBuild::checkpoint`] carries the progress to resume from.
pub type TaskFactory = Arc<dyn Fn(TaskBuild) -> Result<Box<dyn ProofTask>, String> + Send + Sync>;

/// A [`TaskFactory`] over an explicit circuit/key pair under any
/// [`ProofSystem`](gzkp_proof_system::ProofSystem) backend: builds
/// checkpoint-persisting [`gzkp_service::SystemTask`]s, resuming from
/// checkpoint bytes when present. `vk` arms verify-before-return.
pub fn system_factory<S: gzkp_proof_system::ProofSystem>(
    circuit: Arc<S::Circuit>,
    pk: Arc<S::ProvingKey>,
    vk: Option<Arc<S::VerifyingKey>>,
    seed: u64,
) -> TaskFactory {
    Arc::new(move |build: TaskBuild| {
        let mut task = gzkp_service::SystemTask::<S>::persisting(
            circuit.clone(),
            pk.clone(),
            build.device,
            build.store,
            seed,
            build.slot,
            build.interrupt,
        );
        if let Some(bytes) = &build.checkpoint {
            task = task.resume(bytes)?;
        }
        if let Some(vk) = &vk {
            task = task.with_verifying_key(vk.clone());
        }
        Ok(Box::new(task) as Box<dyn ProofTask>)
    })
}

/// A [`TaskFactory`] over request `index` of a prepared replay workload
/// (see [`gzkp_service::PreparedWorkload::checkpoint_task`]).
pub fn workload_factory(
    workload: Arc<gzkp_service::PreparedWorkload>,
    index: usize,
    verify: bool,
) -> TaskFactory {
    Arc::new(move |build: TaskBuild| {
        workload.checkpoint_task(
            index,
            &build.device,
            build.store.clone(),
            build.slot.clone(),
            build.interrupt.clone(),
            build.checkpoint.as_deref(),
            verify,
        )
    })
}

/// Per-job submission options at the cluster level.
#[derive(Debug, Clone, Copy)]
pub struct ClusterJobOptions {
    /// Scheduling class inside each host's service.
    pub priority: Priority,
    /// End-to-end deadline from admission. A job re-dispatched after a
    /// host kill carries its *remaining* deadline, not a fresh one.
    pub deadline: Option<Duration>,
}

impl Default for ClusterJobOptions {
    fn default() -> Self {
        Self {
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Hosts started up-front (already warm).
    pub hosts: usize,
    /// Per-host sizing.
    pub host: HostConfig,
    /// Front-door tenants (fair-share weights + rate limits).
    pub tenants: Vec<TenantSpec>,
    /// Cluster-wide bound on jobs pending in the front door.
    pub pending_capacity: usize,
    /// Queue-depth autoscaling; `None` keeps the host count fixed.
    pub autoscale: Option<AutoscalePolicy>,
    /// Chaos: `rates.host_kill` is rolled once per pump tick per live
    /// host (stage-level rates are ignored at this layer — host services
    /// run fault-free; the cluster's failure unit is the host).
    pub chaos: Option<FaultPlan>,
    /// Upper bound on chaos host kills per run (a kill is only rolled
    /// while at least two hosts are up, so work always has somewhere to
    /// resume).
    pub max_kills: u64,
    /// Resume attempts per job before it fails permanently.
    pub max_resumes: u32,
    /// Host-level circuit-breaker policy (quarantine after repeated
    /// failures, doubling probation).
    pub health: HealthPolicy,
    /// The registry the cluster counts into: one counter per
    /// [`ClusterStats`] field, the queue/host gauges, the job-latency
    /// histogram and each host's `host=hN` series. [`Cluster::stats`]
    /// reads it back. `None` gives the cluster a private registry; host
    /// services always count into their own. A registry passed here
    /// belongs to this one cluster.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            hosts: 2,
            host: HostConfig::default(),
            tenants: vec![TenantSpec::new("default", 1.0)],
            pending_capacity: 256,
            autoscale: None,
            chaos: None,
            max_kills: 1,
            max_resumes: 3,
            health: HealthPolicy::default(),
            metrics: None,
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
    /// Chaos host kills fired.
    pub host_kills: u64,
    /// Hosts the autoscaler started beyond the initial set.
    pub hosts_started: u64,
    /// Hosts the autoscaler retired.
    pub hosts_retired: u64,
    /// Times the host circuit breaker quarantined a host.
    pub host_quarantines: u64,
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
    /// Cluster-simulated makespan: hosts run in parallel in the setting
    /// being modeled, so this is the *maximum* over hosts of each host
    /// fleet's simulated completion time.
    pub makespan_ns: f64,
    /// Jobs still claimed anywhere after the drain — must be zero; a
    /// non-zero value means a kill or retirement leaked a claim.
    pub leaked_claims: usize,
    /// Chaos accounting, when a fault plan was configured.
    pub chaos: Option<FaultSummary>,
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

    /// JSON summary (`zkserve --cluster` emits this next to its tables).
    pub fn report_json(&self) -> String {
        serde_json::to_string_pretty(&ClusterReportJson {
            completed: self.stats.completed,
            failed: self.stats.failed,
            resumes: self.stats.resumes,
            host_kills: self.stats.host_kills,
            leaked_claims: self.leaked_claims as u64,
            makespan_ms: self.makespan_ns / 1e6,
            completed_by_tenant: self.completed_by_tenant(),
        })
        .expect("report serializes")
    }
}

/// Serialized form of the cluster summary. The per-tenant map exercises
/// the vendored serde stub's `BTreeMap` support.
#[derive(Debug, serde::Serialize, serde::Deserialize, PartialEq)]
pub struct ClusterReportJson {
    /// Jobs that produced a proof.
    pub completed: u64,
    /// Jobs that failed permanently.
    pub failed: u64,
    /// Checkpointed resumes after host kills.
    pub resumes: u64,
    /// Chaos host kills fired.
    pub host_kills: u64,
    /// Claims leaked after drain (must be 0).
    pub leaked_claims: u64,
    /// Cluster-simulated makespan in milliseconds.
    pub makespan_ms: f64,
    /// Completed proofs per tenant.
    pub completed_by_tenant: BTreeMap<String, u64>,
}

/// The cluster's one set of handles, in the registry it always holds
/// (the caller's [`ClusterConfig::metrics`] or a private one): one
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
    host_quarantines: Counter,
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
            host_quarantines: registry.counter(names::CLUSTER_HOST_QUARANTINES),
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
            host_quarantines: self.host_quarantines.get(),
        }
    }
}

struct Job {
    tenant: String,
    factory: TaskFactory,
    opts: ClusterJobOptions,
    admitted_at: Instant,
    slot: CheckpointSlot,
    resumes: u32,
    avoid: Option<usize>,
    host: Option<usize>,
}

/// The multi-host proving cluster. Submission is non-blocking; progress
/// is made by [`Cluster::pump`] ticks (or by [`Cluster::drain`], which
/// pumps to completion).
pub struct Cluster {
    cfg: ClusterConfig,
    door: FrontDoor<u64>,
    jobs: HashMap<u64, Job>,
    /// Jobs popped from the door (or recovered from a dead host) still
    /// waiting for a placement.
    ready: VecDeque<u64>,
    hosts: Vec<SimHost>,
    autoscaler: Option<Autoscaler>,
    injector: Option<FaultInjector>,
    metrics: ClusterMetrics,
    tick: u64,
    next_job: u64,
    results: Vec<ClusterResult>,
    /// `(tenant, job)` in completion order, for fairness analysis.
    completion_log: Vec<(String, u64)>,
}

impl Cluster {
    /// Starts `cfg.hosts` hosts (warm immediately — warm-up cost applies
    /// only to autoscaler additions) and opens the front door.
    pub fn start(cfg: ClusterConfig) -> Self {
        let now = Instant::now();
        let metrics = ClusterMetrics::new(cfg.metrics.clone().unwrap_or_default());
        let hosts: Vec<SimHost> = (0..cfg.hosts.max(1))
            .map(|id| {
                let mut h = SimHost::start(id, &cfg.host, cfg.health, now, &metrics.registry);
                h.promote_if_warm(now);
                h
            })
            .collect();
        Self {
            door: FrontDoor::new(&cfg.tenants, cfg.pending_capacity),
            jobs: HashMap::new(),
            ready: VecDeque::new(),
            hosts,
            autoscaler: cfg.autoscale.map(Autoscaler::new),
            injector: cfg.chaos.clone().map(FaultInjector::new),
            metrics,
            cfg,
            tick: 0,
            next_job: 0,
            results: Vec::new(),
            completion_log: Vec::new(),
        }
    }

    /// Submits one job for `tenant`. Runs the full admission pipeline;
    /// on success the job id is queued fairly and will be placed by a
    /// later pump.
    ///
    /// # Errors
    ///
    /// Typed backpressure — see [`AdmissionError`].
    pub fn submit(
        &mut self,
        tenant: &str,
        factory: TaskFactory,
        opts: ClusterJobOptions,
    ) -> Result<u64, AdmissionError> {
        self.submit_at(tenant, factory, opts, Instant::now())
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
        factory: TaskFactory,
        opts: ClusterJobOptions,
        now: Instant,
    ) -> Result<u64, AdmissionError> {
        let id = self.next_job;
        match self.door.admit_at(tenant, id, now) {
            Ok(()) => {}
            Err(e) => {
                match &e {
                    AdmissionError::RateLimited { .. } => self.metrics.rejected_rate.inc(),
                    AdmissionError::Saturated { .. } => self.metrics.rejected_saturated.inc(),
                    _ => {}
                }
                return Err(e);
            }
        }
        self.next_job += 1;
        self.metrics.admitted.inc();
        self.jobs.insert(
            id,
            Job {
                tenant: tenant.to_string(),
                factory,
                opts,
                admitted_at: now,
                slot: Arc::new(Mutex::new(None)),
                resumes: 0,
                avoid: None,
                host: None,
            },
        );
        Ok(id)
    }

    /// One scheduling tick: promote warming hosts, roll chaos, autoscale,
    /// place ready work, harvest finished work. Returns the number of
    /// jobs resolved this tick.
    pub fn pump(&mut self) -> usize {
        let now = Instant::now();
        self.tick += 1;

        for host in &mut self.hosts {
            host.promote_if_warm(now);
        }
        self.roll_chaos();
        self.autoscale(now);
        self.dispatch_ready(now);
        let resolved = self.harvest(now);

        self.metrics
            .queue_depth
            .set((self.door.depth() + self.ready.len()) as f64);
        self.metrics.hosts_up.set(self.up_hosts() as f64);
        for host in &self.hosts {
            host.publish_gauges();
        }
        resolved
    }

    fn up_hosts(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.state() == HostState::Up)
            .count()
    }

    fn roll_chaos(&mut self) {
        let Some(injector) = &self.injector else {
            return;
        };
        if self.metrics.host_kills.get() >= self.cfg.max_kills || self.up_hosts() < 2 {
            return;
        }
        let candidates: Vec<usize> = self
            .hosts
            .iter()
            .filter(|h| h.state() == HostState::Up)
            .map(|h| h.id())
            .collect();
        for id in candidates {
            if injector.roll_host_kill(id, self.tick) {
                self.kill_host(id);
                // One kill per tick keeps at least one survivor for the
                // resumed work even at aggressive rates.
                break;
            }
        }
    }

    /// Kills host `id` (chaos or explicit): interrupted jobs persist
    /// their checkpoints and are re-queued — front of the line, with
    /// anti-affinity for the dead host — on the next pump.
    pub fn kill_host(&mut self, id: usize) {
        self.metrics.host_kills.inc();
        let Some(host) = self.hosts.iter_mut().find(|h| h.id() == id) else {
            return;
        };
        if host.state() == HostState::Dead {
            return;
        }
        let now = Instant::now();
        let harvested = host.kill();
        for (job_id, result) in harvested {
            match result.outcome {
                // The proof beat the interrupt; count it normally.
                Ok(output) => self.finish_job(job_id, Ok(output.proof), now),
                Err(_) => self.requeue_after_kill(job_id, id, now),
            }
        }
    }

    fn requeue_after_kill(&mut self, job_id: u64, dead_host: usize, now: Instant) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        job.resumes += 1;
        job.avoid = Some(dead_host);
        job.host = None;
        if job.resumes > self.cfg.max_resumes {
            let resumes = job.resumes;
            self.finish_job(job_id, Err(format!("gave up after {resumes} resumes")), now);
            return;
        }
        self.metrics.resumes.inc();
        // Resumes go to the front: they hold partial work and their
        // deadline clocks are already running.
        self.ready.push_front(job_id);
    }

    fn autoscale(&mut self, now: Instant) {
        let Some(autoscaler) = &mut self.autoscaler else {
            return;
        };
        let inflight: usize = self.hosts.iter().map(|h| h.inflight()).sum();
        let demand = self.door.depth() + self.ready.len() + inflight;
        let active = self
            .hosts
            .iter()
            .filter(|h| matches!(h.state(), HostState::Warming | HostState::Up))
            .count();
        let target = autoscaler.target(now, demand, active);
        let warmup = autoscaler.policy().warmup;
        if target > active {
            for _ in active..target {
                let id = self.hosts.len();
                self.hosts.push(SimHost::start(
                    id,
                    &self.cfg.host,
                    self.cfg.health,
                    now + warmup,
                    &self.metrics.registry,
                ));
                self.metrics.hosts_started.inc();
            }
        } else if target < active {
            // Retire idle hosts, newest first (their caches are coldest).
            let mut to_drop = active - target;
            for host in self.hosts.iter_mut().rev() {
                if to_drop == 0 {
                    break;
                }
                if matches!(host.state(), HostState::Warming | HostState::Up)
                    && host.inflight() == 0
                {
                    host.begin_drain();
                    to_drop -= 1;
                }
            }
        }
        // Finish draining hosts that have gone idle.
        for host in &mut self.hosts {
            if host.state() == HostState::Draining && host.inflight() == 0 {
                let leftovers = host.retire();
                debug_assert!(leftovers.is_empty());
                self.metrics.hosts_retired.inc();
            }
        }
    }

    fn dispatch_ready(&mut self, now: Instant) {
        // Most-urgent-first among already-released jobs (deadline slack;
        // resumes pushed to the front keep their head start on ties).
        let mut ready: Vec<u64> = self.ready.drain(..).collect();
        ready.sort_by_key(|id| {
            let slack = self.jobs.get(id).and_then(|j| {
                j.opts.deadline.map(|d| {
                    (d.as_secs_f64() - now.saturating_duration_since(j.admitted_at).as_secs_f64())
                        * 1e9
                })
            });
            urgency_key(slack)
        });
        let mut leftover = VecDeque::new();
        for id in ready {
            if !self.try_dispatch(id, now) {
                leftover.push_back(id);
            }
        }
        self.ready = leftover;

        // Then pull from the fair-share queue while capacity remains.
        while self.has_free_capacity(now) {
            let Some((_tenant, id)) = self.door.pop() else {
                break;
            };
            if !self.try_dispatch(id, now) {
                self.ready.push_back(id);
                break;
            }
        }
    }

    fn has_free_capacity(&mut self, now: Instant) -> bool {
        self.hosts.iter_mut().any(|h| {
            let v = h.view(now);
            v.state == HostState::Up && v.available && v.inflight < v.capacity
        })
    }

    fn try_dispatch(&mut self, job_id: u64, now: Instant) -> bool {
        let Some(job) = self.jobs.get(&job_id) else {
            return true; // already resolved; drop the stale queue entry
        };
        // Expired deadline: resolve without burning a host slot.
        let remaining = job
            .opts
            .deadline
            .map(|d| d.saturating_sub(now.saturating_duration_since(job.admitted_at)));
        if remaining == Some(Duration::ZERO) {
            self.metrics.deadline_missed.inc();
            self.finish_job(job_id, Err(JobError::DeadlineMissed.to_string()), now);
            return true;
        }
        let avoid = job.avoid;
        let views: Vec<HostView> = self.hosts.iter_mut().map(|h| h.view(now)).collect();
        let Some(host_id) = pick_host(&views, avoid) else {
            return false;
        };
        let host = self
            .hosts
            .iter_mut()
            .find(|h| h.id() == host_id)
            .expect("picked host exists");
        let job = self.jobs.get_mut(&job_id).expect("checked above");
        let checkpoint = job
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let build = TaskBuild {
            device: host.primary_device(),
            store: host.store(),
            checkpoint,
            slot: job.slot.clone(),
            interrupt: host.interrupt_flag(),
        };
        let task = match (job.factory)(build) {
            Ok(task) => task,
            Err(e) => {
                self.finish_job(job_id, Err(format!("task build failed: {e}")), now);
                return true;
            }
        };
        let opts = JobOptions {
            priority: job.opts.priority,
            deadline: remaining,
            trace: false,
        };
        match host.submit(job_id, task, opts) {
            Ok(()) => {
                self.jobs.get_mut(&job_id).expect("still present").host = Some(host_id);
                true
            }
            Err(SubmitError::QueueFull { .. }) | Err(SubmitError::ShuttingDown) => false,
        }
    }

    fn harvest(&mut self, now: Instant) -> usize {
        let mut resolved = 0;
        let polled: Vec<(usize, Vec<(u64, gzkp_service::JobResult)>)> = self
            .hosts
            .iter_mut()
            .map(|h| (h.id(), h.poll_finished()))
            .collect();
        for (host_id, results) in polled {
            for (job_id, result) in results {
                resolved += 1;
                match result.outcome {
                    Ok(output) => {
                        if let Some(host) = self.hosts.iter_mut().find(|h| h.id() == host_id) {
                            host.record_outcome(now, true);
                        }
                        self.finish_job(job_id, Ok(output.proof), now);
                    }
                    Err(e) => {
                        if let Some(host) = self.hosts.iter_mut().find(|h| h.id() == host_id) {
                            if host.record_outcome(now, false) {
                                self.metrics.host_quarantines.inc();
                            }
                        }
                        if matches!(e, JobError::DeadlineMissed) {
                            self.metrics.deadline_missed.inc();
                        }
                        self.finish_job(job_id, Err(e.to_string()), now);
                    }
                }
            }
        }
        resolved
    }

    fn finish_job(&mut self, job_id: u64, outcome: Result<Vec<u8>, String>, now: Instant) {
        let Some(job) = self.jobs.remove(&job_id) else {
            return;
        };
        let latency = now.saturating_duration_since(job.admitted_at);
        if outcome.is_ok() {
            self.metrics.completed.inc();
            self.metrics.latency.record(latency.as_nanos() as u64);
            self.completion_log.push((job.tenant.clone(), job_id));
        } else {
            self.metrics.failed.inc();
        }
        self.results.push(ClusterResult {
            id: job_id,
            tenant: job.tenant,
            outcome,
            resumes: job.resumes,
            latency,
        });
    }

    /// Running counters so far, read from the cluster's registry.
    pub fn stats(&self) -> ClusterStats {
        self.metrics.stats()
    }

    /// `(tenant, job)` pairs in completion order — what the fair-share
    /// property test ratios over.
    pub fn completions(&self) -> &[(String, u64)] {
        &self.completion_log
    }

    /// Latest checkpoint bytes of an unresolved job, if any were
    /// persisted (tests peek at this to decide when to kill a host).
    pub fn job_checkpoint(&self, job_id: u64) -> Option<Vec<u8>> {
        self.jobs
            .get(&job_id)?
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Host a job is currently placed on.
    pub fn job_host(&self, job_id: u64) -> Option<usize> {
        self.jobs.get(&job_id).and_then(|j| j.host)
    }

    /// Jobs admitted but not yet resolved.
    pub fn open_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Pumps until every admitted job resolves (bounded by `timeout`
    /// wall clock; leftovers fail as drain timeouts), stops intake,
    /// retires every host, and reports.
    pub fn drain(mut self, timeout: Duration) -> ClusterOutcome {
        let deadline = Instant::now() + timeout;
        self.door.stop();
        while self.open_jobs() > 0 {
            self.pump();
            if self.open_jobs() == 0 {
                break;
            }
            if Instant::now() > deadline {
                let now = Instant::now();
                let stuck: Vec<u64> = self.jobs.keys().copied().collect();
                for id in stuck {
                    self.finish_job(id, Err("cluster drain timeout".to_string()), now);
                }
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Claims held anywhere after every job resolved are leaks.
        let leaked_claims = self.jobs.len()
            + self.ready.len()
            + self.door.depth()
            + self.hosts.iter().map(|h| h.inflight()).sum::<usize>();
        for host in &mut self.hosts {
            let leftovers = host.retire();
            debug_assert!(
                leftovers.is_empty(),
                "claims must be harvested before retire"
            );
        }
        // Final gauge sync so a snapshot taken after the drain shows the
        // terminal host states, not the last mid-run ones.
        self.metrics.hosts_up.set(0.0);
        self.metrics.queue_depth.set(0.0);
        for host in &self.hosts {
            host.publish_gauges();
        }
        let makespan_ns = self
            .hosts
            .iter()
            .filter_map(|h| h.report().utilization.map(|u| u.elapsed_ns))
            .fold(0.0f64, f64::max);
        let tenants = self
            .door
            .tenant_names()
            .into_iter()
            .filter_map(|name| self.door.tenant_stats(&name).map(|s| (name, s)))
            .collect();
        ClusterOutcome {
            results: std::mem::take(&mut self.results),
            stats: self.stats(),
            tenants,
            hosts: self.hosts.iter().map(|h| h.report()).collect(),
            makespan_ns,
            leaked_claims,
            chaos: self.injector.as_ref().map(|i| i.summary()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips_through_vendored_serde() {
        let mut by_tenant = BTreeMap::new();
        by_tenant.insert("batch".to_string(), 5u64);
        by_tenant.insert("zcash".to_string(), 15u64);
        let report = ClusterReportJson {
            completed: 20,
            failed: 1,
            resumes: 2,
            host_kills: 1,
            leaked_claims: 0,
            makespan_ms: 12.5,
            completed_by_tenant: by_tenant,
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        assert!(text.contains("\"zcash\": 15"), "{text}");
        let back: ClusterReportJson = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}
