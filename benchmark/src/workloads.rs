//! The four workloads: how each is set up from a seed and what one op is.
//!
//! Three are single-client closed loops ([`Prover`] over Groth16 and
//! PLONK, [`NttRoundTrip`]); `service_mixed` ([`ServiceMixed`]) drives the
//! proving service with two closed-loop clients. All inputs come from the
//! seed; the program under test receives only the generated inputs.

use crate::engines::{TracedMsm, TracedNtt};
use crate::trace::Tracer;
use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{CoordField, CurveParams};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ff::fields::Fr254;
use gzkp_ff::Field;
use gzkp_gpu_sim::device::DeviceConfig;
use gzkp_gpu_sim::v100;
use gzkp_groth16::Groth16System;
use gzkp_msm::{GzkpMsm, PreprocessStore};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{CpuNtt, Direction, GzkpNtt, Radix2Domain};
use gzkp_plonk::{PlonkCircuit, PlonkSystem};
use gzkp_proof_system::{Engines, ProofSystem, ProveReport};
use gzkp_service::{
    JobOptions, ProofTask, ProvingService, ServiceConfig, ServiceStats, StageProfile, SystemTask,
    TaskOutput,
};
use gzkp_telemetry::{NoopSink, TelemetrySink, TraceRecorder};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Problem sizes (log2). [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::SMOKE`] keeps the crate's own smoke test to seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Constraints of the `groth16_warm` circuit.
    pub groth16: u32,
    /// R1CS constraints lowered to PLONK for `plonk_warm` (the PLONK
    /// domain is four times that).
    pub plonk: u32,
    /// Length of the `ntt_2p18` vector.
    pub ntt: u32,
    /// `service_mixed` classes: Groth16/BN254, Groth16/BLS12-381,
    /// PLONK/BN254.
    pub service: [u32; 3],
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        groth16: 12,
        plonk: 10,
        ntt: 18,
        service: [10, 10, 8],
    };
    /// Tiny circuits for the smoke test.
    pub const SMOKE: Sizes = Sizes {
        groth16: 6,
        plonk: 5,
        ntt: 10,
        service: [5, 5, 4],
    };
}

/// Byte budget of the checkpoint-table store: `ServiceConfig::default()`'s.
const STORE_BYTES: u64 = 256 << 20;

/// How one op is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The public prover entry point on the bare engines, telemetry off:
    /// what the end-to-end numbers are measured on.
    Plain,
    /// The same stages called one by one with benchmark spans around
    /// them and around every engine call.
    Traced,
    /// [`Mode::Plain`] with a live `gzkp_telemetry::TraceRecorder` sink.
    Sink,
}

/// What one op produced.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// Host wall-clock of the op.
    pub ms: f64,
    /// The op's output; every op of a run must reproduce the first.
    pub bytes: Vec<u8>,
    /// Simulated-device POLY and MSM time of the op, ms (clock: sim).
    pub sim_ms: [f64; 2],
    /// Exact batch-affine PADDs / inversions (traced ops only).
    pub batch: [u64; 2],
}

/// A workload driven by one closed-loop client.
pub trait SingleClient {
    /// Runs one op.
    ///
    /// # Errors
    ///
    /// Returns the prover's error, or a description of a wrong result.
    fn op(&mut self, mode: Mode, tracer: &Tracer) -> Result<OpOut, String>;
    /// Checks an op's output (outside the timed region).
    fn verify(&self, bytes: &[u8]) -> bool;
    /// The checkpoint-table store, where the workload has one.
    fn store(&self) -> Option<&PreprocessStore> {
        None
    }
    /// The modes a traced run cycles through.
    fn modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced]
    }
    /// Size in bytes, encode ms and decode ms of the proof system's
    /// checkpoint after POLY, where the workload has a proof system.
    ///
    /// # Errors
    ///
    /// The POLY stage's or the decoder's own.
    fn checkpoint_codec(&self) -> Result<Option<[f64; 3]>, String> {
        Ok(None)
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Circuit synthesis (`gzkp-workloads`).
    pub synth_s: f64,
    /// Groth16 key generation.
    pub groth16_keygen_s: f64,
    /// PLONK key generation (SRS, selectors, permutation).
    pub plonk_keygen_s: f64,
}

impl SetupTimes {
    fn add(&mut self, other: &SetupTimes) {
        self.synth_s += other.synth_s;
        self.groth16_keygen_s += other.groth16_keygen_s;
        self.plonk_keygen_s += other.plonk_keygen_s;
    }
}

// ---------------------------------------------------------------------------
// Proof systems
// ---------------------------------------------------------------------------

/// Circuit and keys of one proving class.
pub struct Keys<S: ProofSystem> {
    /// The satisfied circuit.
    pub circuit: Arc<S::Circuit>,
    /// Its proving key.
    pub pk: Arc<S::ProvingKey>,
    /// Its verifying key.
    pub vk: Arc<S::VerifyingKey>,
}

/// What the benchmark needs from a proof system beyond [`ProofSystem`]:
/// how to make its inputs, its public prover entry point, and its MSM
/// stage with the system's own steps as spans.
pub trait BenchSystem: ProofSystem + Sized {
    /// Synthesizes a `2^log_constraints` synthetic circuit and its keys.
    fn build(log_constraints: u32, rng: &mut StdRng) -> (Keys<Self>, SetupTimes);

    /// The system's monolithic prover (`gzkp_groth16::prove_with_telemetry`
    /// / `gzkp_plonk::prove_bytes`), returning serialized proof bytes.
    ///
    /// # Errors
    ///
    /// The prover's own.
    fn prove_direct(
        keys: &Keys<Self>,
        engines: &Engines<'_, Self::Pairing>,
        seed: u64,
        sink: &dyn TelemetrySink,
    ) -> Result<(Vec<u8>, ProveReport), String>;

    /// Everything after POLY, as the monolithic prover does it, with a
    /// span around each step.
    ///
    /// # Errors
    ///
    /// The prover's own.
    fn msm_stage_traced(
        keys: &Keys<Self>,
        engines: &Engines<'_, Self::Pairing>,
        poly: Self::PolyArtifacts,
        seed: u64,
        tracer: &Tracer,
    ) -> Result<(Vec<u8>, ProveReport), String>;
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

impl<P: PairingConfig> BenchSystem for Groth16System<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    fn build(log_constraints: u32, rng: &mut StdRng) -> (Keys<Self>, SetupTimes) {
        let (cs, synth_s) = timed(|| synthetic_circuit::<P::Fr, _>(1 << log_constraints, rng));
        let (keys, groth16_keygen_s) = timed(|| gzkp_groth16::setup::<P, _>(&cs, rng));
        let (pk, vk) = keys.expect("synthetic circuit fits the NTT domain");
        let keys = Keys {
            circuit: Arc::new(cs),
            pk: Arc::new(pk),
            vk: Arc::new(vk),
        };
        let times = SetupTimes {
            synth_s,
            groth16_keygen_s,
            plonk_keygen_s: 0.0,
        };
        (keys, times)
    }

    fn prove_direct(
        keys: &Keys<Self>,
        engines: &Engines<'_, P>,
        seed: u64,
        sink: &dyn TelemetrySink,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (proof, report) =
            gzkp_groth16::prove_with_telemetry(&keys.circuit, &keys.pk, engines, &mut rng, sink)
                .map_err(|e| format!("{e:?}"))?;
        Ok((gzkp_groth16::proof_to_bytes(&proof), report))
    }

    fn msm_stage_traced(
        keys: &Keys<Self>,
        engines: &Engines<'_, P>,
        poly: Self::PolyArtifacts,
        seed: u64,
        tracer: &Tracer,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        // Five concurrent MSMs, then blinding and assembly: the latter is
        // the stage's self time.
        let _stage = tracer.enter("msm_stage");
        Self::prove_msm(&keys.pk, engines, poly, seed, &NoopSink)
    }
}

/// Span names of the four PLONK commit steps, in step order.
pub const PLONK_STEPS: [&str; 4] = ["step.wires", "step.perm_z", "step.quotient", "step.open"];

impl<P: PairingConfig> BenchSystem for PlonkSystem<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    fn build(log_constraints: u32, rng: &mut StdRng) -> (Keys<Self>, SetupTimes) {
        let (circuit, synth_s) = timed(|| {
            PlonkCircuit::from_r1cs(&synthetic_circuit::<P::Fr, _>(1 << log_constraints, rng))
        });
        let (keys, plonk_keygen_s) = timed(|| gzkp_plonk::setup::<P, _>(&circuit, rng));
        let (pk, vk) = keys.expect("synthetic circuit fits the NTT domain");
        let keys = Keys {
            circuit: Arc::new(circuit),
            pk: Arc::new(pk),
            vk: Arc::new(vk),
        };
        let times = SetupTimes {
            synth_s,
            groth16_keygen_s: 0.0,
            plonk_keygen_s,
        };
        (keys, times)
    }

    fn prove_direct(
        keys: &Keys<Self>,
        engines: &Engines<'_, P>,
        seed: u64,
        sink: &dyn TelemetrySink,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        gzkp_plonk::prove_bytes(&keys.circuit, &keys.pk, engines, seed, sink)
    }

    fn msm_stage_traced(
        keys: &Keys<Self>,
        engines: &Engines<'_, P>,
        poly: Self::PolyArtifacts,
        seed: u64,
        tracer: &Tracer,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        // `gzkp_plonk::prove` drives this same state machine.
        let mut ckpt = Self::checkpoint_from_poly(seed, poly);
        while let Some(step) = Self::checkpoint_next_step(&ckpt) {
            let _step = tracer.enter(PLONK_STEPS[step]);
            Self::checkpoint_run_step(&mut ckpt, &keys.pk, engines, step, &NoopSink)?;
        }
        let _finish = tracer.enter("finish");
        Self::checkpoint_finish(ckpt, &keys.pk)
    }
}

// ---------------------------------------------------------------------------
// groth16_warm / plonk_warm
// ---------------------------------------------------------------------------

/// One proving key, proved again and again with warm checkpoint tables.
pub struct Prover<S: BenchSystem> {
    /// Circuit and keys.
    pub keys: Keys<S>,
    ntt: GzkpNtt,
    msm_g1: GzkpMsm,
    msm_g2: GzkpMsm,
    store: Arc<PreprocessStore>,
    seed: u64,
}

impl<S: BenchSystem> Prover<S> {
    /// Synthesizes the circuit, generates keys and builds the engines, all
    /// from `seed`. The engines share a fresh table store, so nothing
    /// survives from an earlier set-up in the same process.
    pub fn setup(log_constraints: u32, seed: u64) -> (Self, SetupTimes) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (keys, times) = S::build(log_constraints, &mut rng);
        let store = Arc::new(PreprocessStore::new(STORE_BYTES));
        let msm = || {
            GzkpMsm::new(v100())
                .with_system_tag(S::KIND.cache_tag())
                .with_store(store.clone())
        };
        let prover = Self {
            keys,
            ntt: GzkpNtt::auto::<<S::Pairing as PairingConfig>::Fr>(v100()),
            msm_g1: msm(),
            msm_g2: msm(),
            store: store.clone(),
            seed,
        };
        (prover, times)
    }
}

impl<S: BenchSystem> SingleClient for Prover<S> {
    fn op(&mut self, mode: Mode, tracer: &Tracer) -> Result<OpOut, String> {
        let start = Instant::now();
        let (bytes, report, batch) = if mode == Mode::Traced {
            let ntt = TracedNtt {
                inner: &self.ntt,
                tracer,
            };
            let g1 = TracedMsm::new(&self.msm_g1, tracer, "msm.g1");
            let g2 = TracedMsm::new(&self.msm_g2, tracer, "msm.g2");
            let engines = Engines::<S::Pairing> {
                ntt: &ntt,
                msm_g1: &g1,
                msm_g2: &g2,
            };
            let _op = tracer.enter("op");
            let poly = {
                let _poly = tracer.enter("poly");
                S::prove_poly(&self.keys.circuit, &self.keys.pk, engines.ntt, &NoopSink)?
            };
            let (bytes, report) =
                S::msm_stage_traced(&self.keys, &engines, poly, self.seed, tracer)?;
            let batch = [
                g1.batch_padds.load(Ordering::Relaxed) + g2.batch_padds.load(Ordering::Relaxed),
                g1.batch_inversions.load(Ordering::Relaxed)
                    + g2.batch_inversions.load(Ordering::Relaxed),
            ];
            (bytes, report, batch)
        } else {
            let engines = Engines::<S::Pairing> {
                ntt: &self.ntt,
                msm_g1: &self.msm_g1,
                msm_g2: &self.msm_g2,
            };
            let (bytes, report) = if mode == Mode::Sink {
                let recorder = TraceRecorder::new("V100");
                S::prove_direct(&self.keys, &engines, self.seed, &recorder)?
            } else {
                S::prove_direct(&self.keys, &engines, self.seed, &NoopSink)?
            };
            (bytes, report, [0, 0])
        };
        Ok(OpOut {
            ms: start.elapsed().as_secs_f64() * 1e3,
            bytes,
            sim_ms: [report.poly_ms(), report.msm_ms()],
            batch,
        })
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        S::verify_bytes(&self.keys.vk, &self.keys.circuit, bytes)
    }

    fn store(&self) -> Option<&PreprocessStore> {
        Some(&self.store)
    }

    fn modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced, Mode::Sink]
    }

    fn checkpoint_codec(&self) -> Result<Option<[f64; 3]>, String> {
        let poly = S::prove_poly(&self.keys.circuit, &self.keys.pk, &self.ntt, &NoopSink)?;
        let checkpoint = S::checkpoint_from_poly(self.seed, poly);
        let (bytes, encode_s) = timed(|| S::checkpoint_to_bytes(&checkpoint));
        let (decoded, decode_s) = timed(|| S::checkpoint_from_bytes(&bytes));
        decoded?;
        Ok(Some([bytes.len() as f64, encode_s * 1e3, decode_s * 1e3]))
    }
}

/// `groth16_warm`'s prover.
pub type Groth16Warm = Prover<Groth16System<Bn254>>;
/// `plonk_warm`'s prover.
pub type PlonkWarm = Prover<PlonkSystem<Bn254>>;

// ---------------------------------------------------------------------------
// ntt_2p18
// ---------------------------------------------------------------------------

/// Forward then inverse NTT over a random vector; the round trip must
/// return the input.
pub struct NttRoundTrip {
    engine: GzkpNtt,
    domain: Radix2Domain<Fr254>,
    input: Vec<Fr254>,
    work: Vec<Fr254>,
}

impl NttRoundTrip {
    /// Draws the `2^log_n` input from `seed` and checks the engine's
    /// forward transform against the reference CPU NTT once.
    ///
    /// # Errors
    ///
    /// Fails when the engine and the reference disagree.
    pub fn setup(log_n: u32, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = Radix2Domain::<Fr254>::new(1 << log_n)
            .ok_or_else(|| format!("2^{log_n} exceeds Fr254's two-adicity"))?;
        let input: Vec<Fr254> = (0..domain.size).map(|_| Fr254::random(&mut rng)).collect();
        let engine = GzkpNtt::auto::<Fr254>(v100());
        let mut got = input.clone();
        engine.transform(&domain, &mut got, Direction::Forward);
        let mut want = input.clone();
        CpuNtt::reference().transform(&domain, &mut want, Direction::Forward);
        if got != want {
            return Err("forward NTT differs from the reference CPU NTT".into());
        }
        Ok(Self {
            engine,
            domain,
            work: input.clone(),
            input,
        })
    }
}

impl SingleClient for NttRoundTrip {
    fn op(&mut self, mode: Mode, tracer: &Tracer) -> Result<OpOut, String> {
        let traced = TracedNtt {
            inner: &self.engine,
            tracer,
        };
        let engine: &dyn GpuNttEngine<Fr254> = if mode == Mode::Traced {
            &traced
        } else {
            &self.engine
        };
        let start = Instant::now();
        let sim_ms = {
            let _op = tracer.enter("op");
            let fwd = engine.transform(&self.domain, &mut self.work, Direction::Forward);
            let inv = engine.transform(&self.domain, &mut self.work, Direction::Inverse);
            fwd.total_ms() + inv.total_ms()
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if self.work != self.input {
            self.work.clone_from(&self.input);
            return Err("NTT round trip did not return its input".into());
        }
        Ok(OpOut {
            ms,
            sim_ms: [sim_ms, 0.0],
            ..OpOut::default()
        })
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        // The round trip is checked op by op; there is no proof.
        bytes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------------

/// Concurrent closed-loop clients of `service_mixed`.
pub const SERVICE_CLIENTS: usize = 2;

/// Start and end of a task's two stages, as the worker ran them.
type StageTimes = Arc<Mutex<[Option<(Instant, Instant)>; 2]>>;

/// A [`ProofTask`] that notes when its stages ran and otherwise defers to
/// the task it wraps. Only traced requests are wrapped.
struct TimedTask {
    inner: Box<dyn ProofTask>,
    times: StageTimes,
}

impl TimedTask {
    fn note(&self, stage: usize, start: Instant) {
        self.times
            .lock()
            .expect("a worker panicked while noting a stage time")[stage] =
            Some((start, Instant::now()));
    }
}

impl ProofTask for TimedTask {
    fn key_id(&self) -> u64 {
        self.inner.key_id()
    }
    fn poly(&mut self, sink: &dyn TelemetrySink) -> Result<(), String> {
        let start = Instant::now();
        let out = self.inner.poly(sink);
        self.note(0, start);
        out
    }
    fn msm(&mut self, sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        let start = Instant::now();
        let out = self.inner.msm(sink);
        self.note(1, start);
        out
    }
    fn system(&self) -> &'static str {
        self.inner.system()
    }
    fn bind_device(&mut self, device: &DeviceConfig) {
        self.inner.bind_device(device);
    }
    fn msm_cost_estimate_ns(&self) -> f64 {
        self.inner.msm_cost_estimate_ns()
    }
    fn poly_profile(&self) -> StageProfile {
        self.inner.poly_profile()
    }
    fn msm_profile(&self, output: &TaskOutput) -> StageProfile {
        self.inner.msm_profile(output)
    }
    fn verify_output(&self, output: &TaskOutput) -> Option<bool> {
        self.inner.verify_output(output)
    }
}

type MakeTask = Box<dyn Fn() -> Box<dyn ProofTask> + Send + Sync>;
type VerifyBytes = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// One request class: a proof system, a curve and a circuit size.
struct Class {
    make_task: MakeTask,
    verify: VerifyBytes,
    /// The class's proof for the run's seed and its simulated POLY and
    /// MSM ms; every request must repeat both.
    reference: Vec<u8>,
    reference_sim_ms: [f64; 2],
}

impl Class {
    fn build<S: BenchSystem>(
        log_constraints: u32,
        seed: u64,
        store: Arc<PreprocessStore>,
    ) -> (Self, SetupTimes) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (keys, times) = S::build(log_constraints, &mut rng);
        let Keys { circuit, pk, vk } = keys;
        let task_circuit = circuit.clone();
        let class = Class {
            make_task: Box::new(move || {
                Box::new(SystemTask::<S>::new(
                    task_circuit.clone(),
                    pk.clone(),
                    v100(),
                    Some(store.clone()),
                    seed,
                ))
            }),
            verify: Box::new(move |bytes| S::verify_bytes(&vk, &circuit, bytes)),
            reference: Vec::new(),
            reference_sim_ms: [0.0; 2],
        };
        (class, times)
    }
}

/// One resolved request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Class index (round-robin over the three classes).
    pub class: usize,
    /// Whether the request was traced.
    pub traced: bool,
    /// Latency from just before `submit` to `wait` returning, ms.
    pub ms: f64,
    /// Completion time since the window opened, s.
    pub done_at_s: f64,
    /// The service's own queue-wait figure, ms.
    pub queue_wait_ms: f64,
    /// POLY + MSM stage time on the workers, ms (traced requests only).
    pub execute_ms: f64,
    /// Why the request counts as failed, if it does.
    pub error: Option<String>,
}

/// Simulated POLY and MSM ms of a finished task.
fn sim_ms(output: &TaskOutput) -> [f64; 2] {
    output
        .report
        .as_ref()
        .map_or([0.0; 2], |r| [r.poly_ms(), r.msm_ms()])
}

/// The proving service with its three warm request classes.
pub struct ServiceMixed {
    service: ProvingService,
    classes: Vec<Class>,
}

impl ServiceMixed {
    /// Starts the service, builds the three classes from `seed`, and
    /// proves each once through the service so its tables are resident.
    ///
    /// # Errors
    ///
    /// Fails when a warm-up request fails or its proof does not verify.
    pub fn setup(sizes: [u32; 3], seed: u64) -> Result<(Self, SetupTimes), String> {
        let service = ProvingService::start(ServiceConfig {
            workers: 2,
            default_deadline: None,
            ..ServiceConfig::default()
        });
        let mut times = SetupTimes::default();
        let mut classes = Vec::new();
        let built = [
            Class::build::<Groth16System<Bn254>>(sizes[0], seed, service.store()),
            Class::build::<Groth16System<Bls12_381>>(sizes[1], seed + 1, service.store()),
            Class::build::<PlonkSystem<Bn254>>(sizes[2], seed + 2, service.store()),
        ];
        for (mut class, class_times) in built {
            times.add(&class_times);
            let output = service
                .submit((class.make_task)(), JobOptions::default())
                .map_err(|e| e.to_string())?
                .wait()
                .outcome
                .map_err(|e| e.to_string())?;
            if !(class.verify)(&output.proof) {
                return Err(format!(
                    "warm-up proof of class {} does not verify",
                    classes.len()
                ));
            }
            class.reference_sim_ms = sim_ms(&output);
            class.reference = output.proof;
            classes.push(class);
        }
        Ok((Self { service, classes }, times))
    }

    /// Simulated POLY and MSM ms of one request of each class, summed.
    pub fn reference_sim_ms(&self) -> [f64; 2] {
        self.classes.iter().fold([0.0; 2], |sum, c| {
            [
                sum[0] + c.reference_sim_ms[0],
                sum[1] + c.reference_sim_ms[1],
            ]
        })
    }

    /// Digest input for cross-run identity: the three reference proofs.
    pub fn reference_bytes(&self) -> Vec<u8> {
        self.classes
            .iter()
            .flat_map(|c| c.reference.clone())
            .collect()
    }

    /// The service's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// The service's checkpoint-table store.
    pub fn store(&self) -> Arc<PreprocessStore> {
        self.service.store()
    }

    /// Runs the closed loop: [`SERVICE_CLIENTS`] threads each submit a
    /// request and wait for it, classes round-robin, until `window` is
    /// used up. Request `i` is traced when `trace_every` divides `i + 1`
    /// (0 = never). Traced requests leave `request → {queue_wait, poly,
    /// msm_stage}` spans in `tracer`.
    pub fn run(&self, window: Window, trace_every: usize, tracer: &Tracer) -> Vec<Request> {
        let next = AtomicUsize::new(0);
        let opened = Instant::now();
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..SERVICE_CLIENTS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if !window.admits(i, opened) {
                        break;
                    }
                    let traced = trace_every > 0 && (i + 1).is_multiple_of(trace_every);
                    let request = self.request(i, traced, opened, tracer);
                    done.lock()
                        .expect("a client panicked while filing a request")
                        .push(request);
                });
            }
        });
        let mut requests = done
            .into_inner()
            .expect("a client panicked while filing a request");
        requests.sort_by(|a, b| a.done_at_s.total_cmp(&b.done_at_s));
        requests
    }

    /// Request number `index` of a window: its class is `index` modulo
    /// the class count, its op id in the trace `index + 1`.
    fn request(&self, index: usize, traced: bool, opened: Instant, tracer: &Tracer) -> Request {
        let class_index = index % self.classes.len();
        let class = &self.classes[class_index];
        let times: StageTimes = Arc::default();
        let mut task = (class.make_task)();
        if traced {
            task = Box::new(TimedTask {
                inner: task,
                times: times.clone(),
            });
        }
        let start = Instant::now();
        let result = self
            .service
            .submit(task, JobOptions::default())
            .map(|handle| handle.wait());
        let end = Instant::now();
        let mut request = Request {
            class: class_index,
            traced,
            ms: (end - start).as_secs_f64() * 1e3,
            done_at_s: (end - opened).as_secs_f64(),
            queue_wait_ms: 0.0,
            execute_ms: 0.0,
            error: None,
        };
        let job = match result {
            Ok(job) => job,
            Err(refused) => {
                request.error = Some(refused.to_string());
                return request;
            }
        };
        request.queue_wait_ms = job.queue_wait.as_secs_f64() * 1e3;
        match &job.outcome {
            Ok(output) if output.proof != class.reference => {
                request.error = Some("proof differs from the class's first proof".into());
            }
            Ok(output)
                if sim_ms(output).map(f64::to_bits) != class.reference_sim_ms.map(f64::to_bits) =>
            {
                request.error = Some("simulated times differ from the class's first proof".into());
            }
            Ok(_) => {}
            Err(e) => request.error = Some(e.to_string()),
        }
        if traced {
            let op = index as u64 + 1;
            let root = tracer.record(None, op, "request", start, end);
            tracer.record(Some(root), op, "queue_wait", start, start + job.queue_wait);
            let stages = *times
                .lock()
                .expect("a worker panicked while noting a stage time");
            for (name, stage) in ["poly", "msm_stage"].into_iter().zip(stages) {
                if let Some((from, to)) = stage {
                    tracer.record(Some(root), op, name, from, to);
                    request.execute_ms += (to - from).as_secs_f64() * 1e3;
                }
            }
        }
        request
    }
}

/// How long a measuring window stays open.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Until this much wall-clock has passed (the driver's `--seconds`).
    Seconds(f64),
    /// For exactly this many ops (tests; fixed work).
    Ops(usize),
}

impl Window {
    /// Whether op number `index` (from 0) may still start.
    pub fn admits(&self, index: usize, opened: Instant) -> bool {
        match *self {
            // At least one op, so a result always has a sample.
            Window::Seconds(s) => index == 0 || opened.elapsed() < Duration::from_secs_f64(s),
            Window::Ops(n) => index < n,
        }
    }
}
