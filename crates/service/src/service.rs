//! The scheduler: bounded intake, whole-job workers, deadlines, and
//! graceful shutdown.

use crate::job::{JobError, JobHandle, JobResult, JobShared, ProofTask, StageProfile, TaskOutput};
use crate::{JobOptions, Priority, ServiceConfig, SubmitError};
use gzkp_gpu_sim::{FaultInjector, FaultKind, TraceContext};
use gzkp_msm::PreprocessStore;
use gzkp_runtime::{Avoid, FleetRuntime, FleetUtilization, Pin};
use gzkp_telemetry::{
    names, Counter, Gauge, LatencyHistogram, MetricsRegistry, NoopSink, TelemetrySink, Trace,
    TraceRecorder,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One scheduled unit moving through the service.
struct Job {
    id: u64,
    seq: u64,
    task: Box<dyn ProofTask>,
    priority: Priority,
    key: u64,
    deadline: Option<Instant>,
    submitted: Instant,
    queue_wait: Duration,
    shared: Arc<JobShared>,
    recorder: Option<TraceRecorder>,
    /// Whether the job has reached a worker at least once (queue wait
    /// measured, `service`/`execute` spans opened; resolution closes
    /// them).
    started: bool,
    /// Where the job is pinned ([`FleetRuntime::pin`]).
    pin: Pin,
    /// Cross-device MSM: the devices its MSM stage was granted, primary
    /// first; empty otherwise.
    grant: Vec<usize>,
    /// Whether POLY ran and its artifacts await the MSM stage: an MSM
    /// stage knocked out before it started keeps them across the retry.
    poly_done: bool,
    /// Verification votes cast for this job (each verify-before-return
    /// check of a produced proof is one vote).
    verify_votes: u32,
    /// Fault-draw index: advances on every injected fault, verify reject
    /// and move off a killed domain (never on dead-device hits), so the
    /// injected sequence per job is a pure function of the chaos seed.
    attempt: u32,
    /// Moves off killed domains. `attempt` less these is what the job
    /// spent of its retry budget: a killed domain stays dead, so moves
    /// are bounded by the domain count already.
    moves: u32,
    /// Stage re-executions performed for this job.
    retries: u32,
    /// Injected faults this job absorbed.
    faults: u32,
    /// Verify-before-return rejections for this job.
    verify_rejects: u32,
    /// Retry backoff: the job is not schedulable before this instant.
    not_before: Option<Instant>,
    /// The device the job's last stage failed on; the worker that next
    /// takes the job re-pins it off that device when any other one is
    /// available.
    avoid_device: Option<usize>,
}

impl Job {
    /// The cooperative checkpoint at dequeue and at each stage boundary:
    /// why the job must stop here, if it must.
    fn stop_reason(&self, now: Instant) -> Option<JobError> {
        if self.shared.is_cancelled() {
            Some(JobError::Cancelled)
        } else if self.deadline.is_some_and(|d| now >= d) {
            Some(JobError::DeadlineMissed)
        } else {
            None
        }
    }

    fn ready(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }

    fn domain(&self) -> usize {
        self.pin.domain
    }

    /// The device the job's current stage runs on: a cross-device grant's
    /// primary, else its pin's.
    fn device(&self) -> Option<usize> {
        self.grant.first().copied().or(self.pin.device)
    }
}

struct Queue {
    /// Jobs waiting for a worker: new ones and ones parked for a retry.
    pending: Vec<Job>,
    /// Accepted jobs not yet resolved (queued + executing).
    open: usize,
    accepting: bool,
    seq: u64,
    next_id: u64,
    /// Jobs resolved so far, for [`ProvingService::wait_for_resolution`].
    resolved: u64,
}

/// The service's one set of counter, gauge and histogram handles,
/// resolved once at start in the registry it always holds (the caller's
/// [`ServiceConfig::metrics`] or a private one), so the hot path never
/// touches the registry's name table. [`ProvingService::stats`] reads
/// these same cells back.
struct ServiceMetrics {
    accepted: Counter,
    rejected: Counter,
    completed: Counter,
    /// Completions split by proof system (`system=groth16` /
    /// `system=plonk`), for mixed-backend dashboards.
    completed_groth16: Counter,
    completed_plonk: Counter,
    deadline_missed: Counter,
    cancelled: Counter,
    drained: Counter,
    failed: Counter,
    retries: Counter,
    faults_injected: Counter,
    verify_rejects: Counter,
    verify_votes: Counter,
    cpu_fallbacks: Counter,
    queue_depth: Gauge,
    queue_wait: LatencyHistogram,
    job_latency: LatencyHistogram,
    stage_poly: LatencyHistogram,
    stage_msm: LatencyHistogram,
}

impl ServiceMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        let stage = |label| reg.histogram_with(names::STAGE_LATENCY_NS, "stage", label);
        ServiceMetrics {
            accepted: reg.counter(names::SERVICE_ACCEPTED),
            rejected: reg.counter(names::SERVICE_REJECTED),
            completed: reg.counter(names::SERVICE_COMPLETED),
            completed_groth16: reg.counter_with(
                names::SERVICE_COMPLETED_BY_SYSTEM,
                names::LABEL_SYSTEM,
                names::SYSTEM_GROTH16,
            ),
            completed_plonk: reg.counter_with(
                names::SERVICE_COMPLETED_BY_SYSTEM,
                names::LABEL_SYSTEM,
                names::SYSTEM_PLONK,
            ),
            deadline_missed: reg.counter(names::SERVICE_DEADLINE_MISSED),
            cancelled: reg.counter(names::SERVICE_CANCELLED),
            drained: reg.counter(names::SERVICE_DRAINED),
            failed: reg.counter(names::SERVICE_FAILED),
            retries: reg.counter(names::SERVICE_RETRIES),
            faults_injected: reg.counter(names::FAULT_INJECTED),
            verify_rejects: reg.counter(names::VERIFY_REJECTS),
            verify_votes: reg.counter(names::VERIFY_VOTES),
            cpu_fallbacks: reg.counter(names::SERVICE_CPU_FALLBACKS),
            queue_depth: reg.gauge(names::SERVICE_QUEUE_DEPTH),
            queue_wait: reg.histogram(names::SERVICE_QUEUE_WAIT_NS),
            job_latency: reg.histogram(names::SERVICE_JOB_LATENCY_NS),
            stage_poly: stage(names::SPAN_POLY),
            stage_msm: stage(names::SPAN_MSM),
        }
    }
}

/// Snapshot of the service's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub accepted: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Jobs that produced a proof.
    pub completed: u64,
    /// Jobs dropped at a deadline checkpoint.
    pub deadline_missed: u64,
    /// Jobs dropped by [`JobHandle::cancel`].
    pub cancelled: u64,
    /// Jobs returned as [`JobError::Drained`]: shutdown arrived while
    /// they were parked for a retry backoff.
    pub drained: u64,
    /// Jobs whose stage errored or panicked (including jobs that
    /// exhausted their retry budget).
    pub failed: u64,
    /// Stage re-executions performed recovering from faults.
    pub retries: u64,
    /// Faults the chaos injector fired (dead-device hits not included).
    pub faults_injected: u64,
    /// Proofs the verify-before-return guard rejected.
    pub verify_rejects: u64,
    /// Verification votes cast by the guard (one per produced proof it
    /// checked; a rejected proof triggers re-execution until a run's
    /// proof verifies or [`VERIFY_VOTE_RUNS`] runs have all been
    /// rejected).
    pub verify_votes: u64,
    /// Devices quarantined by the fleet's circuit breaker.
    pub quarantines: u64,
    /// Stage executions degraded to the host CPU path because no fleet
    /// device was available.
    pub cpu_fallbacks: u64,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<Queue>,
    /// Signaled to every worker when work may be schedulable (or on
    /// shutdown); each checks whether it serves the work.
    work_cv: Condvar,
    /// Signaled on every resolution (drain and resolution waiters).
    idle_cv: Condvar,
    /// One checkpoint-table store per failure domain.
    stores: Vec<Arc<PreprocessStore>>,
    /// The device fleet: per-device timelines, placement and health.
    fleet: Arc<FleetRuntime>,
    /// Chaos mode: the deterministic fault oracle rolled before every
    /// stage execution.
    injector: Option<Arc<FaultInjector>>,
    metrics: ServiceMetrics,
}

/// Error-correcting re-execution: a proof the verify-before-return guard
/// rejects is re-proven (from POLY, with fresh placement) until one run's
/// proof verifies; only when this many runs have *all* been rejected does
/// the job fail. Each verification is counted in `verify.votes`.
pub const VERIFY_VOTE_RUNS: u32 = 3;

/// Publishes the live queue depth. Queue lock held by the caller, so the
/// gauge is always a value the queue actually had.
fn gauge_queue_depth(inner: &Inner, q: &Queue) {
    inner.metrics.queue_depth.set(q.pending.len() as f64);
}

/// Binds `job`'s task to its pinned domain's store and interrupt flag
/// ([`ProofTask::bind_domain`]).
fn bind_domain(inner: &Inner, job: &mut Job) -> Result<(), String> {
    let domain = job.domain();
    job.shared.set_domain(domain);
    job.task
        .bind_domain(&inner.stores[domain], inner.fleet.interrupt(domain))
}

/// The running service: worker threads plus the shared state they
/// schedule from. See the crate docs for the architecture.
pub struct ProvingService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ProvingService {
    /// Starts the service on its device fleet — [`ServiceConfig::devices`],
    /// or [`ServiceConfig::workers`] V100s (at least one) when that list
    /// is empty — with one worker thread pinned per device.
    pub fn start(cfg: ServiceConfig) -> Self {
        Self::start_in_domains(cfg, 1)
    }

    /// [`ProvingService::start`] with `cfg` read as one failure domain —
    /// one simulated host of a cluster — and `domains` copies of it
    /// running: each domain gets its own [`ServiceConfig::devices`] (or
    /// [`ServiceConfig::workers`] V100s) and its own table store of
    /// [`ServiceConfig::prep_cache_bytes`], and the queue holds `domains ×`
    /// [`ServiceConfig::queue_capacity`] jobs. For one domain this is
    /// exactly [`ProvingService::start`]. A job is pinned to a domain and
    /// a device inside it when it is submitted ([`FleetRuntime::pin`])
    /// and runs on that domain's devices only; see
    /// [`ProvingService::kill_domain`] for what a lost domain does to it.
    pub fn start_in_domains(cfg: ServiceConfig, domains: usize) -> Self {
        let registry = cfg.metrics.clone().unwrap_or_default();
        let host = match cfg.devices.as_slice() {
            [] => vec![gzkp_gpu_sim::v100(); cfg.workers.max(1)],
            listed => listed.to_vec(),
        };
        let devices = (0..domains).flat_map(|_| host.clone()).collect();
        let cfg = ServiceConfig {
            queue_capacity: domains * cfg.queue_capacity,
            ..cfg
        };
        let fleet = Arc::new(FleetRuntime::with_domains(
            devices, domains, cfg.health, &registry,
        ));
        let injector = cfg
            .chaos
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let inner = Arc::new(Inner {
            stores: (0..domains)
                .map(|_| Arc::new(PreprocessStore::new(cfg.prep_cache_bytes)))
                .collect(),
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                open: 0,
                accepting: true,
                seq: 0,
                next_id: 0,
                resolved: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            fleet,
            injector,
            metrics: ServiceMetrics::new(&registry),
            cfg,
        });
        let workers = (0..inner.fleet.len())
            .map(|dev| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("gzkp-service-{dev}"))
                    .spawn(move || worker_loop(&inner, dev))
                    .expect("spawn service worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The device fleet the service runs on.
    pub fn fleet(&self) -> &Arc<FleetRuntime> {
        &self.inner.fleet
    }

    /// The chaos fault injector, when [`ServiceConfig::chaos`] is set —
    /// its event log is the reproducible fault trace of the run.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.inner.injector.as_ref()
    }

    /// Per-device utilization snapshot of the fleet.
    pub fn fleet_utilization(&self) -> FleetUtilization {
        self.inner.fleet.utilization()
    }

    /// The fleet's `runtime→dev{n}→{h2d,kernel,d2h}` telemetry trace.
    pub fn fleet_trace(&self) -> Trace {
        self.inner.fleet.trace()
    }

    /// The shared checkpoint-table store (domain 0's); wire it into each
    /// job's MSM engines (e.g. [`crate::SystemTask::new`]) so proving
    /// keys are preprocessed once service-wide.
    pub fn store(&self) -> Arc<PreprocessStore> {
        self.inner.stores[0].clone()
    }

    /// Submits a job, applying backpressure: if the queue holds
    /// [`ServiceConfig::queue_capacity`] jobs — or no failure domain is
    /// schedulable — the submission is rejected immediately rather than
    /// buffered. An accepted job is pinned — in this thread, under the
    /// queue lock — to a domain and a device inside it
    /// ([`FleetRuntime::pin`]), and its task bound to the domain
    /// ([`ProofTask::bind_domain`]); a task that cannot bind resolves as
    /// [`JobError::Failed`].
    pub fn submit(
        &self,
        task: Box<dyn ProofTask>,
        opts: JobOptions,
    ) -> Result<JobHandle, SubmitError> {
        let key = task.key_id();
        let mut q = self.inner.queue.lock().unwrap();
        if !q.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        let capacity = self.inner.cfg.queue_capacity;
        let pinned = (q.pending.len() < capacity)
            .then(|| self.inner.fleet.pin(Avoid::Nothing))
            .flatten();
        let Some(pin) = pinned else {
            self.inner.metrics.rejected.inc();
            return Err(SubmitError::QueueFull { capacity });
        };
        let now = Instant::now();
        let id = q.next_id;
        q.next_id += 1;
        let seq = q.seq;
        q.seq += 1;
        let shared = Arc::new(JobShared::new(pin.domain));
        let mut job = Job {
            id,
            seq,
            task,
            priority: opts.priority,
            key,
            deadline: opts
                .deadline
                .or(self.inner.cfg.default_deadline)
                .map(|d| now + d),
            submitted: now,
            queue_wait: Duration::ZERO,
            shared: shared.clone(),
            recorder: opts.trace.then(|| TraceRecorder::new(names::SPAN_SERVICE)),
            started: false,
            pin,
            grant: Vec::new(),
            poly_done: false,
            verify_votes: 0,
            attempt: 0,
            moves: 0,
            retries: 0,
            faults: 0,
            verify_rejects: 0,
            not_before: None,
            avoid_device: None,
        };
        q.open += 1;
        self.inner.metrics.accepted.inc();
        match bind_domain(&self.inner, &mut job) {
            Ok(()) => {
                q.pending.push(job);
                gauge_queue_depth(&self.inner, &q);
                drop(q);
                self.inner.work_cv.notify_all();
            }
            Err(e) => resolve_locked(&self.inner, &mut q, job, Err(JobError::Failed(e))),
        }
        Ok(JobHandle { id, shared })
    }

    /// Kills failure domain `domain` for good — a host lost mid-run. It
    /// takes no new pins and its interrupt flag rises. A job queued there
    /// moves now; a job running there moves when its task stops at the
    /// next step boundary; a proof that beats the interrupt resolves
    /// where it ran. A move re-pins the job ([`FleetRuntime::pin`]) to
    /// another schedulable domain without backoff, keeps the job's place
    /// in the queue order, and rebinds its task there (a persisting task
    /// continues from its checkpoint bytes). A move spends none of
    /// [`ServiceConfig::retry`]'s budget, which counts only the job's
    /// injected faults and verify rejects.
    pub fn kill_domain(&self, domain: usize) {
        self.inner.fleet.kill_domain(domain);
        let mut q = self.inner.queue.lock().unwrap();
        let (stranded, kept) = std::mem::take(&mut q.pending)
            .into_iter()
            .partition::<Vec<Job>, _>(|job| job.domain() == domain);
        q.pending = kept;
        for job in stranded {
            retry_or_fail_locked(&self.inner, &mut q, job, "domain killed", false);
        }
    }

    /// Blocks until every accepted job has resolved. Intake stays open;
    /// jobs submitted concurrently extend the wait.
    pub fn drain(&self) {
        let mut q = self.inner.queue.lock().unwrap();
        while q.open > 0 {
            q = self.inner.idle_cv.wait(q).unwrap();
        }
    }

    /// Blocks until the service has resolved more than `seen` jobs in
    /// total, or for at most `timeout`, and returns the total so far —
    /// pass it back as `seen` to wait for the next resolution.
    pub fn wait_for_resolution(&self, seen: u64, timeout: Duration) -> u64 {
        let q = self.inner.queue.lock().unwrap();
        let (q, _) = self
            .inner
            .idle_cv
            .wait_timeout_while(q, timeout, |q| q.resolved <= seen)
            .unwrap();
        q.resolved
    }

    /// Lifetime counters, read from the service's registry handles.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.inner.metrics;
        ServiceStats {
            accepted: m.accepted.get(),
            rejected: m.rejected.get(),
            completed: m.completed.get(),
            deadline_missed: m.deadline_missed.get(),
            cancelled: m.cancelled.get(),
            drained: m.drained.get(),
            failed: m.failed.get(),
            retries: m.retries.get(),
            faults_injected: m.faults_injected.get(),
            verify_rejects: m.verify_rejects.get(),
            verify_votes: m.verify_votes.get(),
            quarantines: self.inner.fleet.quarantine_events(),
            cpu_fallbacks: m.cpu_fallbacks.get(),
        }
    }

    /// Graceful shutdown: stops intake, lets every accepted job run to
    /// resolution (including deadline/cancel drops), and joins the
    /// workers.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.inner.queue.lock().unwrap().accepting = false;
        self.inner.work_cv.notify_all();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

impl Drop for ProvingService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(inner: &Inner, own: usize) {
    // The worker of device `own` takes the best ready job it serves, binds
    // the job's engines to its pinned device (or the host CPU) and runs it
    // to its next outcome.
    let mut last_key = None;
    while let Some(mut job) = next_job(inner, own, last_key) {
        last_key = Some(job.key);
        match job.pin.device {
            Some(dev) => job.task.bind_device(inner.fleet.config(dev)),
            None => {
                job.task.bind_device(&gzkp_gpu_sim::cpu_xeon());
                inner.metrics.cpu_fallbacks.inc();
            }
        }
        run_job(inner, job);
    }
}

/// Blocks until a job the worker of device `own` serves is ready and
/// takes the best one: the jobs pinned to its device and to the host CPU
/// of its domain, and — while its own device is unavailable — every job
/// of its domain. `None` once intake is closed and every accepted job has
/// resolved.
fn next_job(inner: &Inner, own: usize, last_key: Option<u64>) -> Option<Job> {
    let fleet = &inner.fleet;
    let domain = fleet.domain_of(own);
    let mut guard = inner.queue.lock().unwrap();
    loop {
        let q = &mut *guard;
        sweep(inner, q);
        let helping = !fleet.available(own);
        let serves =
            |j: &Job| j.domain() == domain && (helping || j.pin.device.is_none_or(|d| d == own));
        if let Some(mut job) = pick(&mut q.pending, last_key, serves) {
            repin_if_stale(fleet, &mut job);
            return Some(job);
        }
        if !q.accepting && q.open == 0 {
            return None;
        }
        // Jobs parked for a retry backoff bound the wait: wake when the
        // earliest becomes schedulable again.
        let next_ready = q
            .pending
            .iter()
            .filter(|j| serves(j))
            .filter_map(|j| j.not_before)
            .min();
        let cv = &inner.work_cv;
        guard = match next_ready {
            Some(t) => {
                let timeout = t.saturating_duration_since(Instant::now());
                cv.wait_timeout(guard, timeout).unwrap().0
            }
            None => cv.wait(guard).unwrap(),
        };
    }
}

/// Re-pins a job a worker just took (queue lock held) inside its domain
/// when its pin no longer holds: the host CPU fallback, an unavailable
/// device, or the device the job just failed on. With no device available
/// it stays on the host CPU path, which cannot be quarantined.
fn repin_if_stale(fleet: &FleetRuntime, job: &mut Job) {
    let device = job.pin.device;
    if device.is_some_and(|d| fleet.available(d) && job.avoid_device != Some(d)) {
        return;
    }
    let avoid = Avoid::Device(Pin {
        domain: job.domain(),
        device: job.avoid_device.or(device),
    });
    if let Some(pin) = fleet.pin(avoid) {
        fleet.unpin(job.pin);
        job.pin = pin;
    }
}

/// Cross-device escalation of a job's MSM stage. In a domain of more than
/// one device, a job with a deadline whose slack is under
/// [`gzkp_runtime::URGENCY_MARGIN`]× its modeled MSM cost claims the
/// devices of its domain [`FleetRuntime::place_for_deadline`] grants and
/// binds its MSM engines across them ([`ProofTask::bind_fleet`]). Any
/// other job — calm, without a deadline, granted a single device, or
/// unable to split its MSMs — runs on its pinned device.
fn escalate(fleet: &Arc<FleetRuntime>, job: &mut Job) {
    let domain = job.domain();
    let Some(deadline) = job
        .deadline
        .filter(|_| fleet.domain_devices(domain).len() > 1)
    else {
        return;
    };
    let slack = deadline
        .saturating_duration_since(Instant::now())
        .as_nanos() as f64;
    let devices = fleet.place_for_deadline(domain, job.task.msm_cost_estimate_ns(), slack);
    if devices.len() > 1 && job.task.bind_fleet(fleet, &devices, job.id) {
        job.grant = devices;
    }
}

/// Resolves every queued job whose deadline passed or that was cancelled,
/// without running it. Called with the queue lock held on each dequeue.
fn sweep(inner: &Inner, q: &mut Queue) {
    let now = Instant::now();
    for job in std::mem::take(&mut q.pending) {
        // Shutdown must not wait out retry backoffs (a job parked behind
        // a quarantined device could hold the drain for a whole probation
        // window): return it explicitly.
        let stop = job
            .stop_reason(now)
            .or_else(|| (!q.accepting && !job.ready(now)).then_some(JobError::Drained));
        match stop {
            Some(reason) => resolve_locked(inner, q, job, Err(reason)),
            None => q.pending.push(job),
        }
    }
}

/// Takes the best ready job the worker `serves`: strongest priority
/// first, then jobs sharing the worker's last proving key (its checkpoint
/// tables are hot in the store), then FIFO order.
fn pick(list: &mut Vec<Job>, last_key: Option<u64>, serves: impl Fn(&Job) -> bool) -> Option<Job> {
    let now = Instant::now();
    let (idx, _) = list
        .iter()
        .enumerate()
        .filter(|(_, j)| j.ready(now) && serves(j))
        .min_by_key(|(_, j)| (j.priority, Some(j.key) != last_key, j.seq))?;
    Some(list.remove(idx))
}

/// The job's propagated trace context for one stage execution:
/// job id → stage → current device binding.
fn stage_ctx(job: &Job, stage: &'static str) -> TraceContext {
    TraceContext::new(job.id, stage).on_device(job.device())
}

/// Records a finished stage's transfer/compute profile on the placed
/// job's device timeline.
fn record_stage(inner: &Inner, job: &Job, stage: &'static str, p: StageProfile) {
    let ctx = stage_ctx(job, stage);
    inner
        .fleet
        .record_stage_ctx(&ctx, p.h2d_bytes, p.kernel_ns, p.d2h_bytes);
}

/// Rolls the chaos oracle for one stage execution. Returns the injected
/// fault, distinguishing dead-device hits (placement events that neither
/// consume a draw nor advance the job's attempt index) from drawn faults.
fn roll_fault(
    inner: &Inner,
    job: &mut Job,
    stage: &'static str,
    corruptible: bool,
) -> Option<FaultKind> {
    let inj = inner.injector.as_deref()?;
    let dead_hit = job.device().is_some_and(|d| inj.is_dead(d));
    let kind = inj.roll_ctx(&stage_ctx(job, stage), job.attempt, corruptible)?;
    if !dead_hit {
        job.attempt += 1;
        job.faults += 1;
        inner.metrics.faults_injected.inc();
    }
    Some(kind)
}

/// Handles a recoverable stage failure (injected fault or verify
/// reject): updates device health, parks the job for an exponential
/// backoff, and requeues it. A job whose POLY artifacts survived
/// (`poly_done`) re-runs only its MSM stage; any other restarts from
/// POLY. A job whose domain was killed instead moves, without backoff or
/// a device-health mark, to another schedulable domain
/// ([`FleetRuntime::pin`]), where its task is rebound
/// ([`ProofTask::bind_domain`]). Jobs that exhausted the retry budget
/// resolve as [`JobError::Failed`].
fn retry_or_fail(inner: &Inner, job: Job, reason: &str, hard: bool) {
    let mut q = inner.queue.lock().unwrap();
    retry_or_fail_locked(inner, &mut q, job, reason, hard);
}

/// [`retry_or_fail`] with the queue lock held, so every re-pin runs under
/// it.
fn retry_or_fail_locked(inner: &Inner, q: &mut Queue, mut job: Job, reason: &str, hard: bool) {
    let fleet = &inner.fleet;
    let moving = fleet.is_dead(job.domain());
    let ran_on = job.device();
    job.grant.clear();
    if let Some(dev) = ran_on.filter(|_| !moving) {
        fleet.record_failure(dev, hard);
        job.avoid_device = Some(dev);
    }
    job.attempt += u32::from(moving);
    job.moves += u32::from(moving);
    if job.attempt - job.moves > inner.cfg.retry.max_retries {
        return resolve_locked(
            inner,
            q,
            job,
            Err(JobError::Failed(format!(
                "{reason} (retry budget of {} exhausted)",
                inner.cfg.retry.max_retries
            ))),
        );
    }
    job.retries += 1;
    inner.metrics.retries.inc();
    if let Some(rec) = &job.recorder {
        rec.span_start(names::SPAN_RETRY);
        rec.span_end(names::SPAN_RETRY);
    }
    if moving {
        let Some(pin) = fleet.pin(Avoid::Domain(job.domain())) else {
            let reason = format!("{reason}: no live domain to move to");
            return resolve_locked(inner, q, job, Err(JobError::Failed(reason)));
        };
        fleet.unpin(job.pin);
        job.pin = pin;
        job.avoid_device = None;
        if let Err(e) = bind_domain(inner, &mut job) {
            return resolve_locked(inner, q, job, Err(JobError::Failed(e)));
        }
    } else {
        let policy = &inner.cfg.retry;
        let exp = job.retries.saturating_sub(1).min(16);
        let delay = policy
            .backoff
            .saturating_mul(1u32 << exp)
            .min(policy.max_backoff);
        job.not_before = Some(Instant::now() + delay);
    }
    q.pending.push(job);
    gauge_queue_depth(inner, q);
    inner.work_cv.notify_all();
}

/// A stage returned an error. In a live domain that is the job's
/// outcome; in a killed one it is the interrupt, and the job moves.
fn stage_failed(inner: &Inner, job: Job, msg: String) {
    if inner.fleet.is_dead(job.domain()) {
        retry_or_fail(inner, job, &msg, false);
    } else {
        resolve(inner, job, Err(JobError::Failed(msg)));
    }
}

/// Runs a placed job on the placement the worker gave it: its POLY stage
/// (unless an earlier run of the job already did it), then its MSM stage.
fn run_job(inner: &Inner, mut job: Job) {
    if !job.started {
        // First time on a worker: the queue wait ends here. Retries
        // re-enter without reopening the service spans.
        job.started = true;
        job.queue_wait = job.submitted.elapsed();
        let wait_ns = job.queue_wait.as_nanos() as u64;
        inner.metrics.queue_wait.record(wait_ns);
        if let Some(rec) = &job.recorder {
            rec.span_start(names::SPAN_SERVICE);
            rec.span_start(names::SPAN_QUEUE_WAIT);
            rec.span_time(job.queue_wait.as_nanos() as f64);
            rec.span_end(names::SPAN_QUEUE_WAIT);
            rec.span_start(names::SPAN_EXECUTE);
        }
    }
    if !job.poly_done {
        match run_poly(inner, job) {
            Some(next) => job = next,
            None => return,
        }
    }
    run_msm(inner, job);
}

/// The POLY stage. Hands the job back for its MSM stage, or `None` when
/// it was resolved or requeued instead.
fn run_poly(inner: &Inner, mut job: Job) -> Option<Job> {
    if let Some(reason) = job.stop_reason(Instant::now()) {
        resolve(inner, job, Err(reason));
        return None;
    }
    if let Some(kind) = roll_fault(inner, &mut job, names::SPAN_POLY, false) {
        let hard = kind == FaultKind::DeviceHang;
        retry_or_fail(inner, job, &format!("poly {kind}"), hard);
        return None;
    }
    match run_stage(&mut job, &inner.metrics.stage_poly, |task, sink| {
        task.poly(sink)
    }) {
        Ok(()) => {
            if let Some(dev) = job.device() {
                record_stage(inner, &job, names::SPAN_POLY, job.task.poly_profile());
                inner.fleet.record_success(dev);
            }
            job.poly_done = true;
            Some(job)
        }
        Err(msg) => {
            stage_failed(inner, job, msg);
            None
        }
    }
}

/// Runs one stage body with the job's trace sink under `catch_unwind`
/// (a panic becomes its message) and records its wall time in `latency`.
fn run_stage<T>(
    job: &mut Job,
    latency: &LatencyHistogram,
    body: impl FnOnce(&mut dyn ProofTask, &dyn TelemetrySink) -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let sink: &dyn TelemetrySink = match &job.recorder {
        Some(rec) => rec,
        None => &NoopSink,
    };
    let task = &mut *job.task;
    let outcome = catch_unwind(AssertUnwindSafe(|| body(task, sink)));
    latency.record(start.elapsed().as_nanos() as u64);
    outcome.unwrap_or_else(|panic| Err(panic_message(&*panic)))
}

fn run_msm(inner: &Inner, mut job: Job) {
    if let Some(reason) = job.stop_reason(Instant::now()) {
        return resolve(inner, job, Err(reason));
    }
    escalate(&inner.fleet, &mut job);
    // The MSM stage is the corruptible one: its output is the serialized
    // proof, which the verify-before-return guard can actually check.
    let corruption = match roll_fault(inner, &mut job, names::SPAN_MSM, true) {
        Some(FaultKind::SilentCorruption) => true,
        Some(kind) => {
            let hard = kind == FaultKind::DeviceHang;
            // The fault hit before the stage consumed the POLY artifacts:
            // the retry re-runs only the MSM.
            return retry_or_fail(inner, job, &format!("msm {kind}"), hard);
        }
        None => false,
    };
    match run_stage(&mut job, &inner.metrics.stage_msm, |task, sink| {
        task.msm(sink)
    }) {
        Ok(mut output) => {
            if corruption {
                // A silently flipped limb: the stage "succeeded" and
                // nothing downstream notices without verification.
                let mid = output.proof.len() / 2;
                if let Some(byte) = output.proof.get_mut(mid) {
                    *byte ^= 0x40;
                }
            }
            // Cross-device MSMs record their own per-device/P2P schedule
            // directly onto the fleet timelines while the stage runs;
            // re-recording the aggregate profile here would double-count.
            if let Some(dev) = job.pin.device.filter(|_| job.grant.is_empty()) {
                let p = job.task.msm_profile(&output);
                record_stage(inner, &job, names::SPAN_MSM, p);
                if p.shards > 0 {
                    inner.fleet.record_shards(dev, p.shards);
                }
            }
            let verdict = job.task.verify_output(&output);
            if verdict.is_some() {
                // Every verification of a produced proof is one vote.
                job.verify_votes += 1;
                inner.metrics.verify_votes.inc();
            }
            if verdict == Some(false) {
                job.verify_rejects += 1;
                inner.metrics.verify_rejects.inc();
                if !corruption {
                    // Genuine (non-injected) corruption still advances the
                    // fault-draw index; injected corruption already did at
                    // roll time.
                    job.attempt += 1;
                }
                if job.verify_rejects >= VERIFY_VOTE_RUNS {
                    if let Some(dev) = job.device() {
                        inner.fleet.record_failure(dev, false);
                    }
                    return resolve(
                        inner,
                        job,
                        Err(JobError::Failed(format!(
                            "proof failed verification in {VERIFY_VOTE_RUNS}-run vote"
                        ))),
                    );
                }
                // The artifacts were consumed producing the bad proof:
                // a full re-execution from POLY casts the next vote.
                job.poly_done = false;
                return retry_or_fail(inner, job, "verify reject", false);
            }
            if let Some(dev) = job.device() {
                inner.fleet.record_success(dev);
            }
            resolve(inner, job, Ok(output));
        }
        Err(msg) => stage_failed(inner, job, msg),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("stage panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("stage panicked: {s}")
    } else {
        "stage panicked".to_string()
    }
}

fn resolve(inner: &Inner, job: Job, outcome: Result<TaskOutput, JobError>) {
    let mut q = inner.queue.lock().unwrap();
    resolve_locked(inner, &mut q, job, outcome);
}

/// Finalizes a job: closes its trace, bumps the stats, publishes the
/// result, and releases its pin and `open` slot. Queue lock held.
fn resolve_locked(
    inner: &Inner,
    q: &mut Queue,
    mut job: Job,
    outcome: Result<TaskOutput, JobError>,
) {
    let m = &inner.metrics;
    // The outcome's counter, and its name in the per-job trace (drained
    // and failed jobs carry none there).
    let (counter, traced) = match &outcome {
        Ok(_) => (&m.completed, Some(names::SERVICE_COMPLETED)),
        Err(JobError::DeadlineMissed) => (&m.deadline_missed, Some(names::SERVICE_DEADLINE_MISSED)),
        Err(JobError::Cancelled) => (&m.cancelled, Some(names::SERVICE_CANCELLED)),
        Err(JobError::Drained) => (&m.drained, None),
        Err(JobError::Failed(_)) => (&m.failed, None),
    };
    counter.inc();
    if outcome.is_ok() {
        let by_system = match job.task.system() {
            names::SYSTEM_PLONK => &m.completed_plonk,
            _ => &m.completed_groth16,
        };
        by_system.inc();
    }
    m.job_latency
        .record(job.submitted.elapsed().as_nanos() as u64);
    gauge_queue_depth(inner, q);

    let domain = job.domain();
    inner.fleet.unpin(job.pin);

    let trace = job.recorder.take().map(|rec| {
        if job.started {
            rec.span_end(names::SPAN_EXECUTE);
            rec.span_end(names::SPAN_SERVICE);
        }
        rec.counter(names::SERVICE_ACCEPTED, 1.0);
        rec.counter(
            names::SERVICE_QUEUE_WAIT_NS,
            job.queue_wait.as_nanos() as f64,
        );
        // Recovery counters only when work actually happened, so
        // fault-free traces stay identical to pre-chaos ones (and the
        // strict `zkprof diff` gate sees a clean baseline).
        if job.faults > 0 {
            rec.counter(names::FAULT_INJECTED, f64::from(job.faults));
        }
        if job.retries > 0 {
            rec.counter(names::SERVICE_RETRIES, f64::from(job.retries));
        }
        if job.verify_rejects > 0 {
            rec.counter(names::VERIFY_REJECTS, f64::from(job.verify_rejects));
            // Votes only when voting engaged (a reject happened), so
            // clean verified traces stay byte-identical.
            rec.counter(names::VERIFY_VOTES, f64::from(job.verify_votes));
        }
        if let Some(name) = traced {
            rec.counter(name, 1.0);
        }
        rec.finish()
    });

    job.shared.resolve(JobResult {
        id: job.id,
        outcome,
        queue_wait: job.queue_wait,
        latency: job.submitted.elapsed(),
        trace,
        domain,
    });
    q.open -= 1;
    q.resolved += 1;
    inner.idle_cv.notify_all();
    if q.open == 0 {
        // Exiting workers wait on work_cv for the open == 0 condition.
        inner.work_cv.notify_all();
    }
}
