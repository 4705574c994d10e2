//! A simulated proving host: one [`ProvingService`] (with its own device
//! fleet, worker pool, and preprocessing cache) plus the lifecycle and
//! failure machinery the cluster needs around it — warm-up, draining,
//! and abrupt kills that interrupt in-flight checkpointing tasks.

use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_runtime::{DeviceHealth, FleetUtilization, HealthPolicy};
use gzkp_service::{
    JobHandle, JobOptions, JobResult, ProofTask, ProvingService, RetryPolicy, ServiceConfig,
    ServiceStats, SubmitError,
};
use gzkp_telemetry::{names, Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host lifecycle. Numeric values double as the `host.state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Started but still paying its warm-up cost; takes no work.
    Warming,
    /// Accepting and executing work.
    Up,
    /// Scale-down target: finishes in-flight work, takes nothing new.
    Draining,
    /// Gone — killed by chaos or retired by the autoscaler.
    Dead,
}

impl HostState {
    /// Gauge encoding (0 warming, 1 up, 2 draining, 3 dead).
    pub fn as_gauge(self) -> f64 {
        match self {
            HostState::Warming => 0.0,
            HostState::Up => 1.0,
            HostState::Draining => 2.0,
            HostState::Dead => 3.0,
        }
    }
}

/// Per-host sizing, shared by every host the cluster starts.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The host's simulated device fleet (non-empty; one service worker
    /// pinned per device).
    pub devices: Vec<DeviceConfig>,
    /// Host-local job bound: the cluster never over-commits a host past
    /// this many unresolved jobs.
    pub queue_capacity: usize,
    /// Byte budget of the host's preprocessing-table cache.
    pub prep_cache_bytes: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            devices: vec![gzkp_gpu_sim::v100()],
            queue_capacity: 8,
            prep_cache_bytes: 256 << 20,
        }
    }
}

/// Final accounting of one host, reported by
/// [`crate::ClusterOutcome::hosts`].
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host id.
    pub id: usize,
    /// State at the end of the run.
    pub state: HostState,
    /// Whether chaos killed this host (as opposed to retiring).
    pub killed: bool,
    /// Jobs that resolved successfully on this host (its
    /// `host.completed{host=hN}` counter).
    pub completed: u64,
    /// Jobs that resolved with an error on this host, including the
    /// interrupted ones later resumed elsewhere (its
    /// `host.failed{host=hN}` counter).
    pub failed: u64,
    /// Per-device utilization of the host's fleet, captured at stop.
    pub utilization: Option<FleetUtilization>,
    /// The host service's lifetime counters, captured at stop.
    pub stats: Option<ServiceStats>,
}

/// One simulated host.
pub struct SimHost {
    id: usize,
    state: HostState,
    warm_until: Instant,
    service: Option<ProvingService>,
    /// The interrupt flag every checkpointing task dispatched here
    /// shares; [`SimHost::kill`] raises it.
    kill_flag: Arc<AtomicBool>,
    inflight: HashMap<u64, JobHandle>,
    /// Host-level circuit breaker — the device-quarantine policy
    /// reapplied one level up: repeated job failures quarantine the whole
    /// host from placement until its probation window passes.
    health: DeviceHealth,
    killed: bool,
    /// This host's `host=hN` series in the cluster's registry: every
    /// result the host hands back is counted in `completed` or `failed`.
    completed: Counter,
    failed: Counter,
    inflight_gauge: Gauge,
    state_gauge: Gauge,
    utilization: Option<FleetUtilization>,
    final_stats: Option<ServiceStats>,
    queue_capacity: usize,
    primary_device: DeviceConfig,
}

impl SimHost {
    /// Starts a host: its proving service boots immediately, but the
    /// host stays [`HostState::Warming`] (unschedulable) until
    /// `warm_until`. Host services run with retries disabled — the
    /// cluster layer owns failure handling via checkpointed resume, and
    /// a host-local retry of an interrupted task could only stall the
    /// kill path. The host's `host=hN` series live in `metrics` (the
    /// cluster's registry); its service counts into a private one.
    pub fn start(
        id: usize,
        cfg: &HostConfig,
        health: HealthPolicy,
        warm_until: Instant,
        metrics: &MetricsRegistry,
    ) -> Self {
        assert!(!cfg.devices.is_empty(), "a host needs at least one device");
        let label = format!("h{id}");
        let counter = |name| metrics.counter_with(name, names::LABEL_HOST, &label);
        let gauge = |name| metrics.gauge_with(name, names::LABEL_HOST, &label);
        let service = ProvingService::start(ServiceConfig {
            queue_capacity: cfg.queue_capacity.max(1),
            prep_cache_bytes: cfg.prep_cache_bytes,
            default_deadline: None,
            devices: cfg.devices.clone(),
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        Self {
            id,
            state: HostState::Warming,
            warm_until,
            service: Some(service),
            kill_flag: Arc::new(AtomicBool::new(false)),
            inflight: HashMap::new(),
            health: DeviceHealth::new(health),
            killed: false,
            completed: counter(names::HOST_COMPLETED),
            failed: counter(names::HOST_FAILED),
            inflight_gauge: gauge(names::HOST_INFLIGHT),
            state_gauge: gauge(names::HOST_STATE),
            utilization: None,
            final_stats: None,
            queue_capacity: cfg.queue_capacity.max(1),
            primary_device: cfg.devices[0].clone(),
        }
    }

    /// Host id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> HostState {
        self.state
    }

    /// Unresolved jobs dispatched here.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The interrupt flag to hand to tasks built for this host.
    pub fn interrupt_flag(&self) -> Arc<AtomicBool> {
        self.kill_flag.clone()
    }

    /// The host's shared preprocessing cache, for task construction.
    /// `None` once the host is stopped.
    pub fn store(&self) -> Option<Arc<gzkp_msm::PreprocessStore>> {
        self.service.as_ref().map(|s| s.store())
    }

    /// Primary device of the host's fleet (tasks are built against it;
    /// the host service re-places stages across its own fleet).
    pub fn primary_device(&self) -> DeviceConfig {
        self.primary_device.clone()
    }

    /// Promotes a warming host whose warm-up window has passed.
    pub fn promote_if_warm(&mut self, now: Instant) -> bool {
        if self.state == HostState::Warming && now >= self.warm_until {
            self.state = HostState::Up;
            return true;
        }
        false
    }

    /// Marks the host a scale-down target; it finishes in-flight work
    /// but the scheduler stops placing on it.
    pub fn begin_drain(&mut self) {
        if self.state == HostState::Up || self.state == HostState::Warming {
            self.state = HostState::Draining;
        }
    }

    /// Scheduler view of this host, with the circuit-breaker verdict
    /// folded in.
    pub fn view(&mut self, now: Instant) -> crate::scheduler::HostView {
        crate::scheduler::HostView {
            id: self.id,
            state: self.state,
            available: self.health.available(now),
            inflight: self.inflight.len(),
            capacity: self.queue_capacity,
        }
    }

    /// Records a job outcome in the host-level circuit breaker.
    /// Returns `true` when the failure newly quarantined the host.
    pub fn record_outcome(&mut self, now: Instant, ok: bool) -> bool {
        if ok {
            self.health.on_success(now);
            false
        } else {
            self.health.on_failure(now, false)
        }
    }

    /// Publishes the host's `host.inflight` and `host.state` gauges.
    pub(crate) fn publish_gauges(&self) {
        self.inflight_gauge.set(self.inflight.len() as f64);
        self.state_gauge.set(self.state.as_gauge());
    }

    /// Submits a built task under cluster job id `job_id`.
    ///
    /// # Errors
    ///
    /// Propagates the service's typed backpressure; the cluster re-queues
    /// the job rather than dropping it.
    pub fn submit(
        &mut self,
        job_id: u64,
        task: Box<dyn ProofTask>,
        opts: JobOptions,
    ) -> Result<(), SubmitError> {
        let service = self.service.as_ref().ok_or(SubmitError::ShuttingDown)?;
        let handle = service.submit(task, opts)?;
        self.inflight.insert(job_id, handle);
        Ok(())
    }

    /// Harvests every job that has resolved since the last poll.
    pub fn poll_finished(&mut self) -> Vec<(u64, JobResult)> {
        self.take(JobHandle::is_finished)
    }

    /// Waits out and hands back the results of the in-flight jobs `pick`
    /// selects, counting each in `host.completed` or `host.failed` — the
    /// one place a host's results leave it, on the harvest, kill and
    /// retire paths alike.
    fn take(&mut self, pick: fn(&JobHandle) -> bool) -> Vec<(u64, JobResult)> {
        let ids: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, h)| pick(h))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| {
                let result = self.inflight.remove(&id).expect("id from this map").wait();
                match result.outcome {
                    Ok(_) => self.completed.inc(),
                    Err(_) => self.failed.inc(),
                }
                (id, result)
            })
            .collect()
    }

    /// Kills the host: raises the interrupt flag (checkpointing tasks
    /// persist their progress and fail fast at the next step boundary),
    /// shuts the service down, and returns every in-flight job's final
    /// result so the cluster can route the interrupted ones to survivors.
    pub fn kill(&mut self) -> Vec<(u64, JobResult)> {
        self.kill_flag.store(true, Ordering::Relaxed);
        self.killed = true;
        self.stop();
        self.take(|_| true)
    }

    /// Graceful retirement (scale-down or end of run): waits for
    /// in-flight work, then stops the service. Returns any results that
    /// resolved during the final drain.
    pub fn retire(&mut self) -> Vec<(u64, JobResult)> {
        self.stop();
        self.take(|_| true)
    }

    fn stop(&mut self) {
        if let Some(service) = self.service.take() {
            self.utilization = Some(service.fleet_utilization());
            self.final_stats = Some(service.shutdown());
        }
        self.state = HostState::Dead;
    }

    /// Final accounting row.
    pub fn report(&self) -> HostReport {
        HostReport {
            id: self.id,
            state: self.state,
            killed: self.killed,
            completed: self.completed.get(),
            failed: self.failed.get(),
            utilization: self.utilization.clone(),
            stats: self.final_stats,
        }
    }
}
