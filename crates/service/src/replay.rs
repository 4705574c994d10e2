//! Workload replay: turn a [`RequestWorkload`] file into circuits and
//! keys once, then run the request stream either as a sequential
//! prove-in-a-loop baseline or through the [`ProvingService`] — the
//! comparison `zkserve --compare` reports.
//!
//! Request classes carry a proof system (`groth16` or `plonk`) as well as
//! a curve; mixed streams flow through the same service front door, with
//! PLONK circuits migrated from the synthetic R1CS by
//! [`gzkp_plonk::PlonkCircuit::from_r1cs`].

use crate::service::ServiceStats;
use crate::{
    CheckpointSlot, JobError, JobOptions, Priority, ProofTask, ProvingService, ServiceConfig,
    SystemTask,
};
use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{CoordField, CurveParams};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_gpu_sim::FaultSummary;
use gzkp_groth16::Groth16System;
use gzkp_msm::{GzkpMsm, PreprocessStore};
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_plonk::{PlonkCircuit, PlonkSystem};
use gzkp_proof_system::{Engines, ProofSystem};
use gzkp_telemetry::NoopSink;
use gzkp_workloads::requests::{
    RequestCurve, RequestPriority, RequestSpec, RequestSystem, RequestWorkload,
};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared circuit + keys of one request class under one backend.
struct Keyed<S: ProofSystem> {
    circuit: Arc<S::Circuit>,
    pk: Arc<S::ProvingKey>,
    vk: Arc<S::VerifyingKey>,
}

/// What replay needs of a request class, whatever its curve and proof
/// system: the one step from the type-erased request stream to the
/// generic task code. Implemented once, for every [`Keyed<S>`].
trait RequestClass: Send + Sync {
    /// A service task for one request of the class. With `persist` it
    /// writes its checkpoint there and takes its store from the failure
    /// domain it is pinned to ([`SystemTask::persisting`]).
    fn task(
        &self,
        device: &DeviceConfig,
        store: Option<Arc<PreprocessStore>>,
        seed: u64,
        persist: Option<CheckpointSlot>,
        verify: bool,
    ) -> Box<dyn ProofTask>;

    /// One request proved directly on the given engines, no service.
    fn prove_direct(&self, ntt: &GzkpNtt, msm_g1: &GzkpMsm, msm_g2: &GzkpMsm, seed: u64)
        -> Vec<u8>;
}

impl<S: ProofSystem> RequestClass for Keyed<S> {
    fn task(
        &self,
        device: &DeviceConfig,
        store: Option<Arc<PreprocessStore>>,
        seed: u64,
        persist: Option<CheckpointSlot>,
        verify: bool,
    ) -> Box<dyn ProofTask> {
        let (circuit, pk, device) = (self.circuit.clone(), self.pk.clone(), device.clone());
        let mut task = match persist {
            Some(slot) => SystemTask::<S>::persisting(circuit, pk, device, seed, slot),
            None => SystemTask::new(circuit, pk, device, store, seed),
        };
        if verify {
            task = task.with_verifying_key(self.vk.clone());
        }
        Box::new(task)
    }

    fn prove_direct(
        &self,
        ntt: &GzkpNtt,
        msm_g1: &GzkpMsm,
        msm_g2: &GzkpMsm,
        seed: u64,
    ) -> Vec<u8> {
        let engines = Engines::<S::Pairing> {
            ntt,
            msm_g1,
            msm_g2,
        };
        let poly = S::prove_poly(&self.circuit, &self.pk, ntt, &NoopSink).expect("poly");
        let (proof, _) = S::prove_msm(&self.pk, &engines, poly, seed, &NoopSink).expect("prove");
        proof
    }
}

/// One concrete proof request of the prepared stream.
struct PreparedRequest {
    class: Arc<dyn RequestClass>,
    priority: Priority,
    deadline: Option<Duration>,
    seed: u64,
}

/// A workload with circuits synthesized and keys set up, ready to replay.
/// Requests are interleaved round-robin across the workload's classes, so
/// consecutive submissions alternate proving keys (and, in mixed
/// workloads, proof systems).
pub struct PreparedWorkload {
    requests: Vec<PreparedRequest>,
}

impl PreparedWorkload {
    /// Number of proof requests in arrival order.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Submission options of request `index` (its priority/deadline from
    /// the workload spec).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn request_options(&self, index: usize) -> JobOptions {
        let req = &self.requests[index];
        JobOptions {
            priority: req.priority,
            deadline: req.deadline,
            trace: false,
        }
    }

    /// Builds a checkpoint-persisting task for request `index` — what a
    /// cluster submits, so the job survives the loss of its host: the
    /// task persists its checkpoint into a slot of its own and takes its
    /// table store and interrupt flag from the failure domain it is
    /// pinned to. `verify` arms verify-before-return against the
    /// request's verifying key.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn checkpoint_task(
        &self,
        index: usize,
        device: &DeviceConfig,
        verify: bool,
    ) -> Box<dyn ProofTask> {
        let req = &self.requests[index];
        req.class.task(
            device,
            None,
            req.seed,
            Some(CheckpointSlot::default()),
            verify,
        )
    }

    /// Proves request `index` directly (no service, fresh engines on
    /// `device`) — the byte-identity ground truth cluster tests and the
    /// `--compare` paths check against.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn prove_direct(&self, index: usize, device: &DeviceConfig) -> Vec<u8> {
        let ntt = GzkpNtt::auto::<gzkp_ff::fields::Fr254>(device.clone());
        let msm_g1 = GzkpMsm::new(device.clone());
        let msm_g2 = GzkpMsm::new(device.clone());
        let req = &self.requests[index];
        req.class.prove_direct(&ntt, &msm_g1, &msm_g2, req.seed)
    }
}

fn to_priority(p: RequestPriority) -> Priority {
    match p {
        RequestPriority::High => Priority::High,
        RequestPriority::Normal => Priority::Normal,
        RequestPriority::Low => Priority::Low,
    }
}

/// Synthesizes one class's circuit over curve family `P` and runs the
/// trusted setup of its proof system. PLONK classes reuse the synthetic
/// R1CS generator and migrate the circuit with
/// [`PlonkCircuit::from_r1cs`], so both backends prove the same relation.
fn prepare_class<P: PairingConfig>(spec: &RequestSpec, rng: &mut StdRng) -> Arc<dyn RequestClass>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    let cs = synthetic_circuit::<P::Fr, _>(spec.constraints, rng);
    match spec.system {
        RequestSystem::Groth16 => {
            let (pk, vk) = gzkp_groth16::setup::<P, _>(&cs, rng).expect("setup");
            Arc::new(Keyed::<Groth16System<P>> {
                circuit: Arc::new(cs),
                pk: Arc::new(pk),
                vk: Arc::new(vk),
            })
        }
        RequestSystem::Plonk => {
            let circuit = PlonkCircuit::from_r1cs(&cs);
            let (pk, vk) = gzkp_plonk::setup::<P, _>(&circuit, rng).expect("plonk setup");
            Arc::new(Keyed::<PlonkSystem<P>> {
                circuit: Arc::new(circuit),
                pk: Arc::new(pk),
                vk: Arc::new(vk),
            })
        }
    }
}

/// Synthesizes each class's circuit and runs its trusted setup (once per
/// class), then expands the per-class counts into the round-robin arrival
/// order. Deterministic in `workload.seed`.
pub fn prepare(workload: &RequestWorkload) -> PreparedWorkload {
    let mut rng = StdRng::seed_from_u64(workload.seed);
    let classes: Vec<(Arc<dyn RequestClass>, &RequestSpec)> = workload
        .requests
        .iter()
        .map(|spec| {
            let class = match spec.curve {
                RequestCurve::Bn254 => prepare_class::<Bn254>(spec, &mut rng),
                RequestCurve::Bls12_381 => prepare_class::<Bls12_381>(spec, &mut rng),
            };
            (class, spec)
        })
        .collect();

    // Round-robin interleave: one request from each class per round.
    let mut requests = Vec::with_capacity(workload.total_requests());
    let max_count = workload.requests.iter().map(|r| r.count).max().unwrap_or(0);
    for round in 0..max_count {
        for (prepared, spec) in &classes {
            if round < spec.count {
                requests.push(PreparedRequest {
                    class: prepared.clone(),
                    priority: to_priority(spec.priority),
                    deadline: spec.deadline_ms.map(Duration::from_millis),
                    seed: workload.seed.wrapping_add(requests.len() as u64),
                });
            }
        }
    }
    PreparedWorkload { requests }
}

/// Result of replaying a workload one way.
pub struct ReplayOutcome {
    /// Wall clock from first submission to last resolution.
    pub total: Duration,
    /// Proofs produced, in arrival order (`None` where the request was
    /// rejected, dropped, or failed). Byte-exact across replay modes with
    /// the same prepared workload.
    pub proofs: Vec<Option<Vec<u8>>>,
    /// Per-request latency (submission of the *batch* to that request's
    /// resolution) in milliseconds, for completed requests.
    pub latencies_ms: Vec<f64>,
    /// Requests rejected at submit (queue full).
    pub rejected: usize,
    /// Requests dropped at a deadline checkpoint.
    pub deadline_missed: usize,
    /// Requests cancelled or failed.
    pub failed: usize,
    /// Per-device utilization of the service's fleet; `None` for the
    /// sequential baseline.
    pub fleet: Option<gzkp_runtime::FleetUtilization>,
    /// The fleet's `runtime→dev{n}→…` telemetry trace, alongside
    /// [`ReplayOutcome::fleet`].
    pub fleet_trace: Option<gzkp_telemetry::Trace>,
    /// The service's lifetime counters (retries, verify rejects,
    /// quarantines, …); `None` for the sequential baseline.
    pub stats: Option<ServiceStats>,
    /// Aggregate injected-fault counts when the run was a chaos replay.
    pub chaos: Option<FaultSummary>,
}

impl ReplayOutcome {
    /// Completed proofs per wall-clock second.
    pub fn throughput_per_s(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.latencies_ms.len() as f64 / secs
        }
    }

    /// The `p`-th latency percentile (nearest-rank) in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// The baseline: prove every request in arrival order on stock engines
/// (the process-wide default table store), one at a time. Deadlines and
/// priorities are ignored — this is the prove-in-a-loop a deployment
/// without a serving layer would run.
pub fn run_sequential(workload: &PreparedWorkload, device: &DeviceConfig) -> ReplayOutcome {
    let ntt = GzkpNtt::auto::<gzkp_ff::fields::Fr254>(device.clone());
    let msm_g1 = GzkpMsm::new(device.clone());
    let msm_g2 = GzkpMsm::new(device.clone());
    let start = Instant::now();
    let mut proofs = Vec::with_capacity(workload.requests.len());
    let mut latencies_ms = Vec::with_capacity(workload.requests.len());
    for req in &workload.requests {
        let proof = req.class.prove_direct(&ntt, &msm_g1, &msm_g2, req.seed);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        proofs.push(Some(proof));
    }
    ReplayOutcome {
        total: start.elapsed(),
        proofs,
        latencies_ms,
        rejected: 0,
        deadline_missed: 0,
        failed: 0,
        fleet: None,
        fleet_trace: None,
        stats: None,
        chaos: None,
    }
}

/// Replays the workload through a [`ProvingService`] with the given
/// configuration: submit everything up front (honoring per-request
/// priorities/deadlines), drain, and collect.
pub fn run_service(
    workload: &PreparedWorkload,
    cfg: ServiceConfig,
    device: &DeviceConfig,
) -> ReplayOutcome {
    // Chaos replays corrupt proofs silently; the verify-before-return
    // guard is what catches them, so chaos implies verification.
    let verify = cfg.chaos.is_some();
    let service = ProvingService::start(cfg);
    let store = service.store();
    let start = Instant::now();
    let handles: Vec<Option<crate::JobHandle>> = workload
        .requests
        .iter()
        .map(|req| {
            let task = req
                .class
                .task(device, Some(store.clone()), req.seed, None, verify);
            let opts = JobOptions {
                priority: req.priority,
                deadline: req.deadline,
                trace: false,
            };
            service.submit(task, opts).ok()
        })
        .collect();
    service.drain();
    let total = start.elapsed();

    let mut proofs = Vec::with_capacity(handles.len());
    let mut latencies_ms = Vec::new();
    let (mut rejected, mut missed, mut failed) = (0, 0, 0);
    for handle in handles {
        let Some(handle) = handle else {
            rejected += 1;
            proofs.push(None);
            continue;
        };
        let result = handle.wait();
        match result.outcome {
            Ok(output) => {
                latencies_ms.push(result.latency.as_secs_f64() * 1e3);
                proofs.push(Some(output.proof));
            }
            Err(JobError::DeadlineMissed) => {
                missed += 1;
                proofs.push(None);
            }
            Err(_) => {
                failed += 1;
                proofs.push(None);
            }
        }
    }
    let fleet = Some(service.fleet_utilization());
    let fleet_trace = Some(service.fleet_trace());
    let chaos = service.fault_injector().map(|inj| inj.summary());
    let stats = service.shutdown();
    ReplayOutcome {
        total,
        proofs,
        latencies_ms,
        rejected,
        deadline_missed: missed,
        failed,
        fleet,
        fleet_trace,
        stats: Some(stats),
        chaos,
    }
}
