//! Job-side types: the type-erased [`ProofTask`] the queue schedules, the
//! backend-generic [`SystemTask`] implementation (which also carries the
//! checkpoint persistence a job needs to survive its failure domain), and
//! the [`JobHandle`] callers hold.

use gzkp_curves::pairing::PairingConfig;
use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_msm::{GzkpMsm, MsmEngine, PreprocessStore};
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_proof_system::{run_msm_steps, Engines, MsmSteps, ProofSystem, ProveReport};
use gzkp_runtime::{CrossDeviceMsm, FleetRuntime};
use gzkp_telemetry::{TelemetrySink, Trace};
use std::any::TypeId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A proof request the service can schedule, split along the prover's two
/// stages so the scheduler can check deadlines, roll faults and retry at
/// the boundary between them.
///
/// Implementations own everything their stages need (circuit, key,
/// engines); the service only moves the box between its queue and worker
/// threads. The type erasure is what lets one queue serve jobs over
/// different curves.
pub trait ProofTask: Send {
    /// Stable identity of the proving key this job uses; the scheduler's
    /// key-affinity preference groups jobs by it to keep checkpoint
    /// tables hot in the shared store.
    fn key_id(&self) -> u64;

    /// Stage 1 — POLY: witness reduction and the backend's NTT batch.
    /// Must leave the task ready for [`ProofTask::msm`].
    fn poly(&mut self, sink: &dyn TelemetrySink) -> Result<(), String>;

    /// Stage 2 — the backend's multi-scalar-multiplication steps,
    /// producing the serialized proof.
    fn msm(&mut self, sink: &dyn TelemetrySink) -> Result<TaskOutput, String>;

    /// Wire label of the proof system producing this job's proof
    /// (`"groth16"`, `"plonk"`), for per-backend service telemetry.
    fn system(&self) -> &'static str {
        "groth16"
    }

    /// Rebinds the task's engines to `device` before its next stage runs.
    /// Each placement of the job — its first, and each retry's — may pick
    /// a different device of a heterogeneous fleet; every engine must
    /// produce the identical functional result on any device (only
    /// simulated cost changes).
    /// Tasks without device-specific state ignore the call. Must also
    /// drop any cross-device binding from an earlier
    /// [`ProofTask::bind_fleet`].
    fn bind_device(&mut self, device: &DeviceConfig) {
        let _ = device;
    }

    /// Binds the task's MSM stage to several fleet devices at once
    /// (`devices[0]` is the primary; partial sums merge toward it over
    /// the P2P path and the task's MSM engines record directly onto
    /// `fleet`'s timelines). Returns `false` — the default — when the
    /// task cannot split its MSMs, in which case the scheduler falls
    /// back to single-device placement.
    fn bind_fleet(&mut self, fleet: &Arc<FleetRuntime>, devices: &[usize], job_id: u64) -> bool {
        let _ = (fleet, devices, job_id);
        false
    }

    /// Pins the task to a failure domain of the fleet: once at
    /// submission, and again each time the job moves off a killed domain.
    /// `store` and `interrupt` are that domain's table store and kill
    /// flag. A task that persists its checkpoint takes both, drops
    /// whatever progress it holds in memory and continues from its
    /// persisted bytes; other tasks ignore the call (the default).
    ///
    /// # Errors
    ///
    /// Fails when the persisted bytes do not decode.
    fn bind_domain(
        &mut self,
        store: &Arc<PreprocessStore>,
        interrupt: &Arc<AtomicBool>,
    ) -> Result<(), String> {
        let _ = (store, interrupt);
        Ok(())
    }

    /// Modeled simulated cost of the task's MSM stage on its current
    /// device, for deadline-urgency placement. Zero (the default) opts
    /// the task out of cross-device escalation.
    fn msm_cost_estimate_ns(&self) -> f64 {
        0.0
    }

    /// Transfer/compute profile of the POLY stage that just ran, for the
    /// fleet runtime's per-device command streams. Valid after a
    /// successful [`ProofTask::poly`]. The zero default is for tasks that
    /// don't model device transfers.
    fn poly_profile(&self) -> StageProfile {
        StageProfile::default()
    }

    /// Transfer/compute profile of the finished MSM stage (`output` is
    /// what [`ProofTask::msm`] returned). Zero default as above.
    fn msm_profile(&self, output: &TaskOutput) -> StageProfile {
        let _ = output;
        StageProfile::default()
    }

    /// Verify-before-return guard: checks the finished proof before the
    /// service publishes it. `Some(false)` marks the output corrupt — the
    /// scheduler re-executes the job from POLY as one retry, like an
    /// injected fault, and surfaces [`JobError::Failed`] once the retry
    /// budget is spent. `None` (the default) means the task cannot
    /// self-verify and the output is returned as-is.
    fn verify_output(&self, output: &TaskOutput) -> Option<bool> {
        let _ = output;
        None
    }
}

/// Simulated transfer/compute footprint of one scheduled stage, consumed
/// by the fleet runtime to build the device's H2D → kernel → D2H command
/// sequence (uploads of the next stage pipeline under this one's kernels).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageProfile {
    /// Host→device bytes the stage uploads before compute.
    pub h2d_bytes: u64,
    /// Simulated kernel time of the stage.
    pub kernel_ns: f64,
    /// Device→host bytes the stage downloads after compute.
    pub d2h_bytes: u64,
    /// Bucket-range shards the memory plan split the stage's MSMs
    /// into (0 when every MSM ran whole).
    pub shards: u64,
}

/// What a completed task hands back.
#[derive(Debug, Clone)]
pub struct TaskOutput {
    /// The proof in the backend's serialized encoding (curve- and
    /// system-generic so the type-erased queue can carry it).
    pub proof: Vec<u8>,
    /// The prover's simulated-time stage report, when the task produces
    /// one.
    pub report: Option<ProveReport>,
}

/// Shared cell holding a job's latest serialized checkpoint. A persisting
/// [`SystemTask`] overwrites it at every stage and step boundary and
/// clears it when the proof completes, so `Some(bytes)` always means
/// mid-proof.
pub type CheckpointSlot = Arc<Mutex<Option<Vec<u8>>>>;

/// Stores `bytes` into `slot`, surviving a poisoned lock (a worker that
/// panicked mid-store left consistent `Option` state either way).
fn store_slot(slot: &CheckpointSlot, bytes: Option<Vec<u8>>) {
    *slot.lock().unwrap_or_else(PoisonError::into_inner) = bytes;
}

/// The standard [`ProofTask`]: one proof under any [`ProofSystem`]
/// backend, using the GZKP NTT and MSM engines.
///
/// POLY opens the backend's checkpoint and the MSM stage steps it to
/// completion ([`run_msm_steps`]) — exactly what the backend's direct
/// prover does, so a task with seed `s` produces bytes identical to the
/// direct prover with the same seed. A task built with
/// [`SystemTask::persisting`] additionally writes the checkpoint to a
/// [`CheckpointSlot`] after POLY and before every MSM step, and fails
/// fast there when its domain's interrupt flag is up — what lets a job
/// survive a killed host: pinned to its next domain
/// ([`ProofTask::bind_domain`]), the task decodes the slot's bytes (the
/// blinding seed rides inside them) and the proof still comes out
/// byte-identical.
pub struct SystemTask<S: ProofSystem> {
    circuit: Arc<S::Circuit>,
    pk: Arc<S::ProvingKey>,
    /// Verify-before-return: when present, the finished proof is checked
    /// against this key (public inputs from the circuit) before the
    /// service publishes it.
    vk: Option<Arc<S::VerifyingKey>>,
    ntt: GzkpNtt,
    msm_g1: GzkpMsm,
    msm_g2: GzkpMsm,
    /// Cross-device MSM engines, present while the job is fleet-bound
    /// ([`ProofTask::bind_fleet`]); cleared by any single-device rebind.
    cross_g1: Option<CrossDeviceMsm>,
    cross_g2: Option<CrossDeviceMsm>,
    seed: u64,
    /// The MSM stage's state: opened by POLY (or decoded from the slot
    /// by [`ProofTask::bind_domain`]), consumed by the MSM stage.
    ckpt: Option<S::Checkpoint>,
    /// Scalar bytes the MSM stage will upload; captured when the
    /// checkpoint is opened because the MSM stage consumes it.
    msm_h2d_bytes: u64,
    /// Where the checkpoint is persisted, and the flag (its domain's)
    /// that aborts the task at the next boundary once it is.
    persist: Option<(CheckpointSlot, Arc<AtomicBool>)>,
}

impl<S: ProofSystem> SystemTask<S> {
    /// Builds a task proving `circuit` under `pk` on the given simulated
    /// device. `store` wires the MSM engines to the service's shared
    /// checkpoint-table cache (pass [`crate::ProvingService::store`]);
    /// `None` leaves them on the process-wide default store — either way
    /// the entries are tagged with the backend's cache tag so Groth16 and
    /// PLONK preprocessing of the same points never alias. `seed` feeds
    /// the blinding-factor rng.
    pub fn new(
        circuit: Arc<S::Circuit>,
        pk: Arc<S::ProvingKey>,
        device: DeviceConfig,
        store: Option<Arc<PreprocessStore>>,
        seed: u64,
    ) -> Self {
        let tag = S::KIND.cache_tag();
        let mut msm_g1 = GzkpMsm::new(device.clone()).with_system_tag(tag);
        let mut msm_g2 = GzkpMsm::new(device.clone()).with_system_tag(tag);
        if let Some(store) = store {
            msm_g1 = msm_g1.with_store(store.clone());
            msm_g2 = msm_g2.with_store(store);
        }
        Self {
            circuit,
            pk,
            vk: None,
            ntt: GzkpNtt::auto::<<S::Pairing as PairingConfig>::Fr>(device),
            msm_g1,
            msm_g2,
            cross_g1: None,
            cross_g2: None,
            seed,
            ckpt: None,
            msm_h2d_bytes: 0,
            persist: None,
        }
    }

    /// [`SystemTask::new`] for a job that may have to move hosts: `slot`
    /// receives the serialized checkpoint at every stage and step
    /// boundary. The task's table store and interrupt flag are those of
    /// the failure domain it is pinned to ([`ProofTask::bind_domain`]);
    /// a raised flag aborts the task at the next boundary. When `slot`
    /// already holds bytes, binding the task resumes from them.
    pub fn persisting(
        circuit: Arc<S::Circuit>,
        pk: Arc<S::ProvingKey>,
        device: DeviceConfig,
        seed: u64,
        slot: CheckpointSlot,
    ) -> Self {
        let mut task = Self::new(circuit, pk, device, None, seed);
        task.persist = Some((slot, Arc::new(AtomicBool::new(false))));
        task
    }

    /// Enables the verify-before-return guard: the finished proof is
    /// checked against `vk` (with the task's public inputs) before the
    /// service returns it, catching silent corruption between the MSM
    /// kernels and the response buffer.
    pub fn with_verifying_key(mut self, vk: Arc<S::VerifyingKey>) -> Self {
        self.vk = Some(vk);
        self
    }
}

impl<S: ProofSystem> ProofTask for SystemTask<S> {
    fn key_id(&self) -> u64 {
        let mut h = DefaultHasher::new();
        TypeId::of::<S>().hash(&mut h);
        (Arc::as_ptr(&self.pk) as usize).hash(&mut h);
        h.finish()
    }

    fn poly(&mut self, sink: &dyn TelemetrySink) -> Result<(), String> {
        if self.ckpt.is_some() {
            // Resumed past POLY already; nothing to recompute.
            return Ok(());
        }
        if let Some((_, interrupt)) = &self.persist {
            if interrupt.load(Ordering::Relaxed) {
                return Err("interrupted before poly stage".to_string());
            }
        }
        let artifacts = S::prove_poly(&self.circuit, &self.pk, &self.ntt, sink)
            .map_err(|e| format!("poly stage failed: {e}"))?;
        let ckpt = S::checkpoint_from_poly(self.seed, artifacts);
        self.msm_h2d_bytes = ckpt.scalar_bytes();
        if let Some((slot, _)) = &self.persist {
            store_slot(slot, Some(S::checkpoint_to_bytes(&ckpt)));
        }
        self.ckpt = Some(ckpt);
        Ok(())
    }

    fn msm(&mut self, sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        let mut ckpt = self
            .ckpt
            .take()
            .ok_or_else(|| "msm stage scheduled before poly stage".to_string())?;
        let engines = Engines::<S::Pairing> {
            ntt: &self.ntt,
            msm_g1: self.cross_g1.as_ref().map_or(
                &self.msm_g1 as &dyn MsmEngine<<S::Pairing as PairingConfig>::G1>,
                |c| c,
            ),
            msm_g2: self.cross_g2.as_ref().map_or(
                &self.msm_g2 as &dyn MsmEngine<<S::Pairing as PairingConfig>::G2>,
                |c| c,
            ),
        };
        let persist = self.persist.as_ref();
        let stepped = run_msm_steps(&mut ckpt, &self.pk, &engines, sink, |ckpt, step| {
            let Some((slot, interrupt)) = persist else {
                return Ok(());
            };
            store_slot(slot, Some(S::checkpoint_to_bytes(ckpt)));
            if interrupt.load(Ordering::Relaxed) {
                return Err(format!(
                    "host killed mid-proof: interrupted before msm step {step} ({}/{} done)",
                    ckpt.steps_done(),
                    S::Checkpoint::STEPS
                ));
            }
            Ok(())
        });
        if let Err(e) = stepped {
            // Put the checkpoint back so a retry in the same domain also
            // continues instead of restarting.
            self.ckpt = Some(ckpt);
            return Err(e);
        }
        let (proof, report) = S::checkpoint_finish(ckpt, &self.pk)?;
        if let Some((slot, _)) = persist {
            store_slot(slot, None);
        }
        Ok(TaskOutput {
            proof,
            report: Some(report),
        })
    }

    fn system(&self) -> &'static str {
        S::KIND.as_str()
    }

    fn bind_device(&mut self, device: &DeviceConfig) {
        // Engines carry device-tuned parameters (NTT radix from shared
        // memory, MSM windows from the cost tables), so rebuild them; the
        // functional results are exact group/field elements either way,
        // which keeps proofs byte-identical across placements.
        self.ntt = self
            .ntt
            .rebind::<<S::Pairing as PairingConfig>::Fr>(device.clone());
        self.msm_g1.device = device.clone();
        self.msm_g2.device = device.clone();
        self.cross_g1 = None;
        self.cross_g2 = None;
    }

    fn bind_domain(
        &mut self,
        store: &Arc<PreprocessStore>,
        interrupt: &Arc<AtomicBool>,
    ) -> Result<(), String> {
        let Some((slot, flag)) = &mut self.persist else {
            return Ok(());
        };
        *flag = interrupt.clone();
        let bytes = slot.lock().unwrap_or_else(PoisonError::into_inner).clone();
        self.msm_g1.store = Some(store.clone());
        self.msm_g2.store = Some(store.clone());
        // In-memory progress belongs to the placement the job left; what
        // survived it is the persisted bytes. Continuing from them keeps
        // the proof byte-identical: the POLY stage becomes a no-op, the
        // MSM stage picks up at the first incomplete step, and the
        // blinding seed comes from the checkpoint.
        self.ckpt = None;
        if let Some(bytes) = bytes {
            let ckpt = S::checkpoint_from_bytes(&bytes)?;
            self.seed = ckpt.seed();
            self.msm_h2d_bytes = ckpt.scalar_bytes();
            self.ckpt = Some(ckpt);
        }
        Ok(())
    }

    fn bind_fleet(&mut self, fleet: &Arc<FleetRuntime>, devices: &[usize], job_id: u64) -> bool {
        if devices.is_empty() {
            return false;
        }
        // The single-device engines stay the bit-identity reference: the
        // cross engines freeze their window/checkpoint parameters and use
        // the claimed devices only for kernel pricing and transfers.
        self.msm_g1.device = fleet.config(devices[0]).clone();
        self.msm_g2.device = fleet.config(devices[0]).clone();
        self.ntt = self
            .ntt
            .rebind::<<S::Pairing as PairingConfig>::Fr>(fleet.config(devices[0]).clone());
        self.cross_g1 = Some(CrossDeviceMsm::new(
            self.msm_g1.clone(),
            fleet.clone(),
            devices.to_vec(),
            format!("job{job_id}.msm_g1"),
        ));
        self.cross_g2 = Some(CrossDeviceMsm::new(
            self.msm_g2.clone(),
            fleet.clone(),
            devices.to_vec(),
            format!("job{job_id}.msm_g2"),
        ));
        true
    }

    fn msm_cost_estimate_ns(&self) -> f64 {
        let mut total = 0.0;
        for n in S::g1_msm_sizes(&self.pk) {
            total += MsmEngine::<<S::Pairing as PairingConfig>::G1>::plan_dense(&self.msm_g1, n)
                .total_ns();
        }
        for n in S::g2_msm_sizes(&self.pk) {
            total += MsmEngine::<<S::Pairing as PairingConfig>::G2>::plan_dense(&self.msm_g2, n)
                .total_ns();
        }
        total
    }

    fn poly_profile(&self) -> StageProfile {
        use gzkp_ff::PrimeField;
        let fr_bytes = (<S::Pairing as PairingConfig>::Fr::NUM_LIMBS * 8) as u64;
        StageProfile {
            h2d_bytes: S::witness_elems(&self.circuit) as u64 * fr_bytes,
            kernel_ns: self
                .ckpt
                .as_ref()
                .map_or(0.0, |c| c.poly_report().total_ns()),
            d2h_bytes: S::poly_d2h_elems(&self.pk) as u64 * fr_bytes,
            shards: 0,
        }
    }

    fn msm_profile(&self, output: &TaskOutput) -> StageProfile {
        let mut shards = 0u64;
        for n in S::g1_msm_sizes(&self.pk) {
            let s = self
                .msm_g1
                .shard_plan::<<S::Pairing as PairingConfig>::G1>(n);
            if s > 1 {
                shards += s as u64;
            }
        }
        for n in S::g2_msm_sizes(&self.pk) {
            let s = self
                .msm_g2
                .shard_plan::<<S::Pairing as PairingConfig>::G2>(n);
            if s > 1 {
                shards += s as u64;
            }
        }
        StageProfile {
            h2d_bytes: self.msm_h2d_bytes,
            kernel_ns: output.report.as_ref().map_or(0.0, |r| r.msm.total_ns()),
            d2h_bytes: output.proof.len() as u64,
            shards,
        }
    }

    fn verify_output(&self, output: &TaskOutput) -> Option<bool> {
        self.vk
            .as_ref()
            .map(|vk| S::verify_bytes(vk, &self.circuit, &output.proof))
    }
}

/// Why a job did not produce a proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The deadline passed before the job finished; it was dropped at a
    /// cooperative checkpoint (dequeue or stage boundary).
    DeadlineMissed,
    /// [`JobHandle::cancel`] was honored before completion.
    Cancelled,
    /// Shutdown arrived while the job was parked for a retry backoff (its
    /// device quarantined or its stage awaiting re-execution); the job is
    /// returned instead of silently dropped or waited out.
    Drained,
    /// A stage returned an error or panicked.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineMissed => write!(f, "deadline missed"),
            JobError::Cancelled => write!(f, "cancelled"),
            JobError::Drained => write!(f, "drained at shutdown before retry"),
            JobError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Final record of one job.
#[derive(Debug)]
pub struct JobResult {
    /// Service-assigned job id.
    pub id: u64,
    /// The proof (and report) or the reason there is none.
    pub outcome: Result<TaskOutput, JobError>,
    /// Wall-clock time from submission to first being scheduled. Zero if
    /// the job never reached a worker.
    pub queue_wait: Duration,
    /// Wall-clock time from submission to resolution.
    pub latency: Duration,
    /// Per-job telemetry, when [`crate::JobOptions::trace`] was set.
    pub trace: Option<Trace>,
    /// The failure domain the job resolved in (always 0 on a service with
    /// one domain).
    pub domain: usize,
}

pub(crate) struct JobShared {
    result: Mutex<Option<JobResult>>,
    done: Condvar,
    cancelled: AtomicBool,
    /// The failure domain the job is pinned to.
    domain: AtomicUsize,
}

impl JobShared {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            result: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            domain: AtomicUsize::new(domain),
        }
    }

    pub(crate) fn domain(&self) -> usize {
        self.domain.load(Ordering::Relaxed)
    }

    pub(crate) fn set_domain(&self, domain: usize) {
        self.domain.store(domain, Ordering::Relaxed);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn resolve(&self, result: JobResult) {
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }
}

/// Caller-side handle to a submitted job.
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    /// The failure domain the job is pinned to right now.
    pub fn domain(&self) -> usize {
        self.shared.domain()
    }

    /// Requests cooperative cancellation: the job is dropped at its next
    /// checkpoint (dequeue or stage boundary) and resolves as
    /// [`JobError::Cancelled`]. A job already past its last checkpoint
    /// completes normally.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the job has resolved (a [`JobHandle::wait`] would not
    /// block).
    pub fn is_finished(&self) -> bool {
        self.shared.result.lock().unwrap().is_some()
    }

    /// Blocks until the job resolves and returns its result.
    pub fn wait(self) -> JobResult {
        let mut slot = self.shared.result.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.done.wait(slot).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_gpu_sim::v100;
    use gzkp_groth16::proof_to_bytes;
    use gzkp_groth16::prove::{prove, ProverEngines};
    use gzkp_groth16::r1cs::{ConstraintSystem, LinearCombination};
    use gzkp_groth16::setup::setup;
    use gzkp_groth16::Groth16System;
    use gzkp_plonk::PlonkSystem;
    use gzkp_telemetry::{NoopSink, TraceRecorder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn factor_cs() -> ConstraintSystem<Fr> {
        use gzkp_ff::Field;
        let mut cs = ConstraintSystem::<Fr>::new();
        let n = cs.alloc_input(Fr::from_u64(35));
        let p = cs.alloc(Fr::from_u64(5));
        let q = cs.alloc(Fr::from_u64(7));
        cs.enforce(
            LinearCombination::from_var(p),
            LinearCombination::from_var(q),
            LinearCombination::from_var(n),
        );
        cs
    }

    #[test]
    fn interrupt_persists_and_resume_matches_direct_prove() {
        let cs = Arc::new(factor_cs());
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (pk, vk) = (Arc::new(pk), Arc::new(vk));

        // Ground truth: the direct prover with the same seed.
        let ntt = GzkpNtt::auto::<Fr>(v100());
        let msm_g1 = GzkpMsm::new(v100());
        let msm_g2 = GzkpMsm::new(v100());
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (expected, _) = prove(&cs, &pk, &engines, &mut StdRng::seed_from_u64(42)).unwrap();
        let expected = proof_to_bytes(&expected);

        // Run on "host 0", interrupt immediately at the MSM stage.
        let slot: CheckpointSlot = Arc::new(Mutex::new(None));
        let interrupt = Arc::new(AtomicBool::new(false));
        let store = Arc::new(PreprocessStore::new(64 << 20));
        let mut task = SystemTask::<Groth16System<Bn254>>::persisting(
            cs.clone(),
            pk.clone(),
            v100(),
            42,
            slot.clone(),
        );
        task.bind_domain(&store, &interrupt).unwrap();
        task.poly(&NoopSink).unwrap();
        interrupt.store(true, Ordering::Relaxed);
        let err = task.msm(&NoopSink).expect_err("interrupt must abort");
        assert!(err.contains("host killed"), "{err}");

        // Bound on "host 1", a task over the slot bytes finishes the
        // proof; its own seed argument is overridden by the checkpoint's.
        let bytes = slot.lock().unwrap().clone().expect("checkpoint persisted");
        let slot2: CheckpointSlot = Arc::new(Mutex::new(Some(bytes)));
        let mut resumed = SystemTask::<Groth16System<Bn254>>::persisting(
            cs.clone(),
            pk.clone(),
            v100(),
            0,
            slot2.clone(),
        )
        .with_verifying_key(vk);
        resumed
            .bind_domain(&store, &Arc::new(AtomicBool::new(false)))
            .unwrap();
        resumed.poly(&NoopSink).unwrap();
        let out = resumed.msm(&NoopSink).unwrap();
        assert_eq!(out.proof, expected);
        assert_eq!(resumed.verify_output(&out), Some(true));
        assert!(
            slot2.lock().unwrap().is_none(),
            "slot must clear on completion"
        );
    }

    #[test]
    fn plonk_interrupt_persists_and_resume_matches_direct_prove() {
        use gzkp_ff::Field;
        use gzkp_plonk::{prove_bytes, setup as plonk_setup, PlonkCircuit, PlonkGate};

        // x² = 9 with public x² exposed.
        let mut circuit = PlonkCircuit::new(&[Fr::from_u64(9)]);
        let x = circuit.alloc(Fr::from_u64(3));
        circuit.push_gate(PlonkGate {
            q_m: Fr::one(),
            q_o: -Fr::one(),
            a: x,
            b: x,
            c: 1, // the public variable
            ..PlonkGate::empty()
        });
        let circuit = Arc::new(circuit);
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, vk) = plonk_setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (pk, vk) = (Arc::new(pk), Arc::new(vk));

        let ntt = GzkpNtt::auto::<Fr>(v100());
        let msm_g1 = GzkpMsm::new(v100());
        let msm_g2 = GzkpMsm::new(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (expected, _) = prove_bytes(&circuit, &pk, &engines, 42, &NoopSink).unwrap();

        let slot: CheckpointSlot = Arc::new(Mutex::new(None));
        let interrupt = Arc::new(AtomicBool::new(false));
        let store = Arc::new(PreprocessStore::new(64 << 20));
        let mut task = SystemTask::<PlonkSystem<Bn254>>::persisting(
            circuit.clone(),
            pk.clone(),
            v100(),
            42,
            slot.clone(),
        );
        task.bind_domain(&store, &interrupt).unwrap();
        task.poly(&NoopSink).unwrap();
        interrupt.store(true, Ordering::Relaxed);
        let err = task.msm(&NoopSink).expect_err("interrupt must abort");
        assert!(err.contains("host killed"), "{err}");
        assert!(err.contains("0/4 done"), "{err}");
        assert_eq!(task.system(), "plonk");

        // The task itself moves: rebinding drops its in-memory state and
        // continues from the slot bytes.
        task = task.with_verifying_key(vk);
        task.bind_domain(&store, &Arc::new(AtomicBool::new(false)))
            .unwrap();
        let mut resumed = task;
        resumed.poly(&NoopSink).unwrap();
        let out = resumed.msm(&NoopSink).unwrap();
        assert_eq!(out.proof, expected);
        assert_eq!(resumed.verify_output(&out), Some(true));
        assert!(slot.lock().unwrap().is_none());
    }

    #[test]
    fn bind_domain_rejects_garbage_slot_bytes() {
        let cs = Arc::new(factor_cs());
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut StdRng::seed_from_u64(4)).unwrap();
        let slot: CheckpointSlot = Arc::new(Mutex::new(Some(vec![0xA5; 64])));
        let mut task =
            SystemTask::<Groth16System<Bn254>>::persisting(cs, Arc::new(pk), v100(), 1, slot);
        let store = Arc::new(PreprocessStore::new(1 << 20));
        assert!(task
            .bind_domain(&store, &Arc::new(AtomicBool::new(false)))
            .is_err());
    }

    #[test]
    fn persisting_task_emits_the_plain_tasks_spans_and_profiles() {
        let cs = Arc::new(factor_cs());
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut StdRng::seed_from_u64(3)).unwrap();
        let pk = Arc::new(pk);
        let run = |mut task: SystemTask<Groth16System<Bn254>>| {
            let rec = TraceRecorder::new("V100");
            task.poly(&rec).unwrap();
            let poly_profile = task.poly_profile();
            let out = task.msm(&rec).unwrap();
            (
                rec.finish(),
                poly_profile,
                task.msm_profile(&out),
                out.proof,
            )
        };
        let plain = run(SystemTask::new(cs.clone(), pk.clone(), v100(), None, 9));
        let persisting = run(SystemTask::persisting(
            cs.clone(),
            pk.clone(),
            v100(),
            9,
            Arc::new(Mutex::new(None)),
        ));
        let steps: Vec<&str> = plain
            .0
            .find(&["msm"])
            .expect("steps run under one msm span")
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(steps, gzkp_telemetry::names::GROTH16_MSM_STAGES);
        assert_eq!(plain.0.root, persisting.0.root);
        assert_eq!((plain.1, plain.2), (persisting.1, persisting.2));
        assert_eq!(plain.3, persisting.3);
    }
}
