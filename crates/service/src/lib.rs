//! # gzkp-service — the multi-proof proving service
//!
//! Everything below this crate proves one statement at a time; a proving
//! deployment (the paper's target setting: Zcash/Filecoin-class provers,
//! §5.1) faces a *stream* of heterogeneous requests. This crate adds the
//! serving layer:
//!
//! * a **bounded request queue** with backpressure — [`ProvingService::submit`]
//!   rejects with [`SubmitError::QueueFull`] instead of buffering without
//!   limit;
//! * **one queue of whole jobs, placed at submit**: [`ProvingService::submit`]
//!   pins each job to a device ([`gzkp_runtime::FleetRuntime::pin`]: idle
//!   first, then least loaded by throughput weight, else the host CPU),
//!   whose worker runs its POLY stage (the backend's NTTs) and then its
//!   MSM stage, back to back — a schedule set by the submission order.
//!   Proofs overlap across workers, and one proof's MSMs fan out over
//!   every core on their own;
//! * **failure domains**: [`ProvingService::start_in_domains`] runs
//!   several copies of one configured fleet (a cluster's hosts), each
//!   with its own preprocessing store. The pin picks the least-loaded
//!   schedulable domain first, and the job runs there only;
//!   [`ProvingService::kill_domain`] moves the jobs of a lost domain to
//!   another one. A plain service is one domain;
//! * **priority classes and per-job deadlines** with cooperative
//!   cancellation: expiry and [`JobHandle::cancel`] are honored at
//!   dequeue and between stages, never by killing a thread mid-kernel;
//!   a job whose deadline nears its modeled MSM cost runs that stage
//!   across several devices of its (multi-device) domain;
//! * a **per-(curve, proving-key) preprocessing cache** — the service owns
//!   a byte-budgeted LRU [`gzkp_msm::PreprocessStore`] shared by every
//!   job's MSM engines, so checkpoint tables (Algorithm 1) are built once
//!   per key instead of once per proof;
//! * **graceful drain and shutdown**: [`ProvingService::drain`] waits for
//!   in-flight work, [`ProvingService::shutdown`] stops intake, drains,
//!   and joins the workers.
//!
//! Jobs are type-erased [`ProofTask`]s, so one queue serves proofs over
//! different curves and proof systems; [`SystemTask`] is the one
//! implementation, generic over the backend
//! ([`gzkp_proof_system::ProofSystem`]): its MSM stage steps the
//! backend's checkpoint to completion, and a task built with
//! [`SystemTask::persisting`] also writes that checkpoint out between
//! steps so the job can continue in another domain when its own dies.
//! Per-job telemetry (opt-in via [`JobOptions::trace`]) wraps the prover's
//! span tree in `service → {queue_wait, execute}` spans with the
//! `service.*` counters.
//!
//! ## Example
//!
//! ```
//! use gzkp_service::{JobOptions, ProvingService, ServiceConfig, SystemTask};
//! use gzkp_curves::bn254::{Bn254, Fr};
//! use gzkp_groth16::{setup, verify, proof_from_bytes, Groth16System};
//! use gzkp_gpu_sim::v100;
//! use gzkp_workloads::synthetic::synthetic_circuit;
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let cs = Arc::new(synthetic_circuit::<Fr, _>(64, &mut rng));
//! let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
//! let (pk, inputs) = (Arc::new(pk), cs.input_assignment.clone());
//!
//! let service = ProvingService::start(ServiceConfig::default());
//! let task = SystemTask::<Groth16System<Bn254>>::new(cs, pk, v100(), Some(service.store()), 7);
//! let handle = service.submit(Box::new(task), JobOptions::default()).unwrap();
//! let result = handle.wait();
//! let proof = proof_from_bytes::<Bn254>(&result.outcome.unwrap().proof).unwrap();
//! assert!(verify::<Bn254>(&vk, &proof, &inputs));
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod replay;
pub mod service;

pub use job::{
    CheckpointSlot, JobError, JobHandle, JobResult, ProofTask, StageProfile, SystemTask, TaskOutput,
};
pub use replay::{prepare, run_sequential, run_service, PreparedWorkload, ReplayOutcome};
pub use service::{ProvingService, ServiceStats};

use std::time::Duration;

/// Scheduling class of a job. Within the queue, all [`Priority::High`]
/// work is picked before any [`Priority::Normal`] work, and so on;
/// key-affinity and FIFO order break ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: always scheduled first.
    High,
    /// The default class.
    Normal,
    /// Batch/backfill work: runs when nothing else is queued.
    Low,
}

/// Per-job submission options.
#[derive(Debug, Clone, Copy)]
pub struct JobOptions {
    /// Scheduling class.
    pub priority: Priority,
    /// Deadline measured from submission; `None` uses
    /// [`ServiceConfig::default_deadline`]. A job whose deadline passes
    /// before it finishes its last stage resolves as
    /// [`JobError::DeadlineMissed`] at the next cooperative check.
    pub deadline: Option<Duration>,
    /// Record a per-job [`gzkp_telemetry::Trace`] (span tree + `service.*`
    /// counters) into [`JobResult::trace`].
    pub trace: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        Self {
            priority: Priority::Normal,
            deadline: None,
            trace: false,
        }
    }
}

/// Why [`ProvingService::submit`] refused a job. Backpressure is the
/// caller's signal to slow down or shed load — the queue never buffers
/// beyond its configured capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry later or shed the request.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// [`ProvingService::shutdown`] (or drop) already stopped intake.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "proof queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "proving service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Stage-retry policy: how often and how patiently the service re-runs a
/// stage that an injected fault (or a verify reject) knocked out.
///
/// Retries apply only to *recoverable* failures — chaos-injected faults
/// and verify-before-return rejects. A stage returning a real error or
/// panicking still fails the job immediately: retrying a deterministic
/// bug burns fleet time without changing the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Recoverable failures allowed per job (across both stages) before
    /// the job resolves as [`JobError::Failed`]. A move off a killed
    /// domain is not one.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Upper bound on the doubling backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// Proving-service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum jobs waiting in the queue per failure domain — not yet
    /// taken by a worker, or parked for a retry; submissions beyond it
    /// get [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Size of the default fleet when [`ServiceConfig::devices`] is
    /// empty: that many V100s, one worker thread each.
    pub workers: usize,
    /// Byte budget of each failure domain's checkpoint-table store
    /// ([`gzkp_msm::PreprocessStore`]).
    pub prep_cache_bytes: u64,
    /// Deadline applied to jobs that don't set their own.
    pub default_deadline: Option<Duration>,
    /// The simulated device fleet the service runs on: one worker per
    /// device, each job pinned at submit to a device
    /// ([`gzkp_runtime::FleetRuntime::pin`]) whose worker runs it, stage
    /// transfers pipelined on each device's command streams, and
    /// per-device utilization available through
    /// [`ProvingService::fleet_utilization`]. In a failure domain of more
    /// than one device, a job with a deadline whose slack is under
    /// `gzkp_runtime::URGENCY_MARGIN`× its modeled MSM cost claims
    /// several devices of its domain for its MSM stage
    /// ([`gzkp_runtime::FleetRuntime::place_for_deadline`]) and runs each
    /// MSM as bucket-range shards across them; proof bytes are identical
    /// either way. Empty (the default) means [`ServiceConfig::workers`]
    /// V100s.
    pub devices: Vec<gzkp_gpu_sim::device::DeviceConfig>,
    /// Chaos mode: a seeded [`gzkp_gpu_sim::FaultPlan`] injected into
    /// every stage execution. `None` (the default) runs fault-free.
    pub chaos: Option<gzkp_gpu_sim::FaultPlan>,
    /// Stage-retry policy for injected faults and verify rejects.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy of the device fleet.
    pub health: gzkp_runtime::HealthPolicy,
    /// The registry the service counts into: its counters, queue-depth
    /// gauge and latency histograms, plus the fleet's per-device series.
    /// Every event is counted once, there, and
    /// [`ProvingService::stats`] reads it back. `None` (the default)
    /// gives the service a private registry. A registry passed here
    /// belongs to this one service: two services sharing it would sum
    /// into each other's stats.
    pub metrics: Option<std::sync::Arc<gzkp_telemetry::MetricsRegistry>>,
}

impl Default for ServiceConfig {
    /// Defaults: queue of 64, a 256 MiB table store, a 60 s deadline, and
    /// one worker per two available cores (each proof's NTTs and MSMs fan
    /// out over the cores themselves; on a single-core host extra workers
    /// only interleave proofs against each other).
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            queue_capacity: 64,
            workers: (cores / 2).max(1),
            prep_cache_bytes: gzkp_msm::PreprocessStore::DEFAULT_BUDGET_BYTES,
            default_deadline: Some(Duration::from_secs(60)),
            devices: Vec::new(),
            chaos: None,
            retry: RetryPolicy::default(),
            health: gzkp_runtime::HealthPolicy::default(),
            metrics: None,
        }
    }
}
