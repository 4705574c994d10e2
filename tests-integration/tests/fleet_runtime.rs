//! Fleet-mode service behavior: per-device worker pinning, whole-job
//! placement and its accounting, proof bit-identity across heterogeneous
//! devices, fleet telemetry, and the shared preprocess store under
//! concurrent eviction pressure.

use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_gpu_sim::{gtx1080ti, v100};
use gzkp_groth16::{
    proof_from_bytes, proof_to_bytes, prove, setup, verify, Groth16System, ProverEngines,
};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_runtime::parse_devices;
use gzkp_service::{
    JobOptions, ProofTask, ProvingService, ServiceConfig, StageProfile, SystemTask, TaskOutput,
};
use gzkp_telemetry::{names, MetricsRegistry, TelemetrySink};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// A latch a test can wait on / open.
#[derive(Default)]
struct Latch {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.state.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        while !*st {
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// Task whose POLY stage blocks until released and that records which
/// device the scheduler bound it to — pins one fleet worker so placement
/// can be observed deterministically.
struct PinProbe {
    started: Arc<Latch>,
    release: Arc<Latch>,
    bound: Arc<Mutex<Vec<&'static str>>>,
}

impl ProofTask for PinProbe {
    fn key_id(&self) -> u64 {
        0
    }
    fn bind_device(&mut self, device: &gzkp_gpu_sim::DeviceConfig) {
        self.bound.lock().unwrap().push(device.name);
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        self.started.open();
        self.release.wait();
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        Ok(TaskOutput {
            proof: Vec::new(),
            report: None,
        })
    }
}

/// Trivial instantly-completing task; the payload tags the proof bytes.
/// Both stages report a small device profile, so each leaves
/// `job{id}.{poly,msm}.*` ops on its device's lanes.
struct NopTask(u64);

const NOP_PROFILE: StageProfile = StageProfile {
    h2d_bytes: 1024,
    kernel_ns: 1000.0,
    d2h_bytes: 64,
    shards: 0,
};

impl ProofTask for NopTask {
    fn key_id(&self) -> u64 {
        self.0
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        Ok(TaskOutput {
            proof: self.0.to_le_bytes().to_vec(),
            report: None,
        })
    }
    fn poly_profile(&self) -> StageProfile {
        NOP_PROFILE
    }
    fn msm_profile(&self, _output: &TaskOutput) -> StageProfile {
        NOP_PROFILE
    }
}

/// A [`NopTask`] with a modeled MSM cost, so a job with a deadline makes
/// the scheduler weigh cross-device escalation of its MSM stage.
struct CostedTask(NopTask);

impl ProofTask for CostedTask {
    fn key_id(&self) -> u64 {
        self.0.key_id()
    }
    fn poly(&mut self, sink: &dyn TelemetrySink) -> Result<(), String> {
        self.0.poly(sink)
    }
    fn msm(&mut self, sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        self.0.msm(sink)
    }
    fn msm_cost_estimate_ns(&self) -> f64 {
        1.0e6
    }
}

/// Direct prover bytes for the fleet service to match (always computed on
/// stock V100 engines — proofs must not depend on the device that ran
/// them).
fn direct_proof<P: PairingConfig>(
    cs: &gzkp_groth16::ConstraintSystem<P::Fr>,
    pk: &gzkp_groth16::ProvingKey<P>,
    seed: u64,
) -> Vec<u8>
where
    <P::G1 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
    <P::G2 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
{
    let ntt = GzkpNtt::auto::<P::Fr>(v100());
    let msm_g1 = GzkpMsm::new(v100());
    let msm_g2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<P> {
        ntt: &ntt,
        msm_g1: &msm_g1,
        msm_g2: &msm_g2,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (proof, _) = prove(cs, pk, &engines, &mut rng).unwrap();
    proof_to_bytes(&proof)
}

#[test]
fn fleet_pins_one_worker_per_device() {
    // Two blocking probes on a heterogeneous fleet: each must land on a
    // different worker, and the workers must bind them to the two distinct
    // devices.
    let service = ProvingService::start(ServiceConfig {
        devices: vec![v100(), gtx1080ti()],
        ..ServiceConfig::default()
    });
    let bound = Arc::new(Mutex::new(Vec::new()));
    let mut gates = Vec::new();
    for _ in 0..2 {
        let started = Arc::new(Latch::default());
        let release = Arc::new(Latch::default());
        let handle = service
            .submit(
                Box::new(PinProbe {
                    started: started.clone(),
                    release: release.clone(),
                    bound: bound.clone(),
                }),
                JobOptions::default(),
            )
            .unwrap();
        gates.push((started, release, handle));
    }
    for (started, _, _) in &gates {
        started.wait();
    }
    // Both probes are now in their POLY stage simultaneously, so both
    // pinned workers are live and each bound its own device.
    {
        let mut names = bound.lock().unwrap().clone();
        names.sort_unstable();
        assert_eq!(names, vec!["GTX1080Ti", "V100"]);
    }
    for (_, release, handle) in gates {
        release.open();
        assert!(handle.wait().outcome.is_ok());
    }
    let util = service.fleet_utilization();
    assert_eq!(util.devices.len(), 2);
    for dev in &util.devices {
        assert!(dev.jobs >= 1, "device {} saw no jobs", dev.name);
    }
    service.shutdown();
}

#[test]
fn fleet_proofs_bit_identical_across_heterogeneous_devices() {
    // Proofs scheduled onto whichever device the fleet picks (V100 or
    // 1080 Ti) must be byte-identical to the
    // direct single-V100 prover: every engine computes exact group
    // elements, so placement can never change proof bytes.
    let mut rng = StdRng::seed_from_u64(21);
    let cs_bn = Arc::new(synthetic_circuit::<<Bn254 as PairingConfig>::Fr, _>(
        96, &mut rng,
    ));
    let (pk_bn, vk_bn) = setup::<Bn254, _>(&cs_bn, &mut rng).unwrap();
    let pk_bn = Arc::new(pk_bn);
    let cs_bls = Arc::new(synthetic_circuit::<<Bls12_381 as PairingConfig>::Fr, _>(
        80, &mut rng,
    ));
    let (pk_bls, _) = setup::<Bls12_381, _>(&cs_bls, &mut rng).unwrap();
    let pk_bls = Arc::new(pk_bls);

    let service = ProvingService::start(ServiceConfig {
        devices: vec![v100(), gtx1080ti()],
        ..ServiceConfig::default()
    });
    let store = service.store();
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for seed in 0..6u64 {
        expected.push(direct_proof::<Bn254>(&cs_bn, &pk_bn, 100 + seed));
        let task = SystemTask::<Groth16System<Bn254>>::new(
            cs_bn.clone(),
            pk_bn.clone(),
            v100(),
            Some(store.clone()),
            100 + seed,
        );
        handles.push(
            service
                .submit(Box::new(task), JobOptions::default())
                .unwrap(),
        );
    }
    for seed in 0..3u64 {
        expected.push(direct_proof::<Bls12_381>(&cs_bls, &pk_bls, 200 + seed));
        let task = SystemTask::<Groth16System<Bls12_381>>::new(
            cs_bls.clone(),
            pk_bls.clone(),
            v100(),
            Some(store.clone()),
            200 + seed,
        );
        handles.push(
            service
                .submit(Box::new(task), JobOptions::default())
                .unwrap(),
        );
    }
    service.drain();

    for (i, (handle, want)) in handles.into_iter().zip(&expected).enumerate() {
        let output = handle.wait().outcome.unwrap();
        assert_eq!(&output.proof, want, "proof {i} differs from direct prover");
        if i == 0 {
            let proof = proof_from_bytes::<Bn254>(&output.proof).unwrap();
            assert!(verify::<Bn254>(&vk_bn, &proof, &cs_bn.input_assignment));
        }
    }

    // Fleet telemetry: per-device lanes under `runtime → dev{n}`, with
    // rolled-up transfer counters on the runtime node.
    let util = service.fleet_utilization();
    assert!(util.devices.iter().map(|d| d.jobs).sum::<u64>() >= 9);
    assert!(util.devices.iter().any(|d| d.h2d_bytes > 0));
    assert!(util.elapsed_ns > 0.0);
    let trace = service.fleet_trace();
    for lane in ["h2d", "kernel", "d2h"] {
        for dev in ["dev0", "dev1"] {
            assert!(
                trace.find(&["runtime", dev, lane]).is_some(),
                "missing runtime→{dev}→{lane} lane"
            );
        }
    }
    let runtime = trace.find(&["runtime"]).unwrap();
    assert!(runtime.counter(names::RUNTIME_H2D_BYTES).unwrap_or(0.0) > 0.0);
    service.shutdown();
}

#[test]
fn fleet_runs_each_job_whole_on_one_device() {
    // One queue of whole jobs: the worker that takes a job runs its POLY
    // and its MSM on the one device it placed the job on, so every job's
    // ops sit on a single device's lanes and the fleet counts exactly two
    // stages per job.
    let registry = Arc::new(MetricsRegistry::new());
    let service = ProvingService::start(ServiceConfig {
        queue_capacity: 64,
        devices: parse_devices("2").expect("spec"),
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    });
    let jobs = 48u64;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            service
                .submit(Box::new(NopTask(i)), JobOptions::default())
                .unwrap()
        })
        .collect();
    service.drain();
    for (i, h) in handles.into_iter().enumerate() {
        let output = h.wait().outcome.unwrap();
        assert_eq!(output.proof, (i as u64).to_le_bytes());
    }
    let snapshot = registry.snapshot();
    let stages: u64 = ["dev0", "dev1"]
        .iter()
        .filter_map(|d| snapshot.counter_labeled(names::DEVICE_STAGES, "device", d))
        .sum();
    assert_eq!(stages, 2 * jobs);

    // job id → stage → the devices whose lanes carry its ops.
    let mut seen: BTreeMap<u64, BTreeMap<String, Vec<&str>>> = BTreeMap::new();
    let trace = service.fleet_trace();
    for dev in ["dev0", "dev1"] {
        let node = trace.find(&["runtime", dev]).expect("device node");
        for op in node.children.iter().flat_map(|lane| &lane.children) {
            let mut parts = op.name.split('.');
            let id = parts.next().and_then(|j| j.strip_prefix("job"));
            let id: u64 = id
                .and_then(|j| j.parse().ok())
                .expect("job{id}.{stage}.{op}");
            let stage = parts.next().expect("stage").to_string();
            let devices = seen.entry(id).or_default().entry(stage).or_default();
            if !devices.contains(&dev) {
                devices.push(dev);
            }
        }
    }
    assert_eq!(seen.len() as u64, jobs, "every job left ops on the fleet");
    for (id, stages) in &seen {
        let stage_names: Vec<&str> = stages.keys().map(String::as_str).collect();
        assert_eq!(stage_names, ["msm", "poly"], "job{id}");
        let poly = &stages["poly"];
        assert_eq!(poly.len(), 1, "job{id}'s POLY spans devices {poly:?}");
        assert_eq!(
            poly, &stages["msm"],
            "job{id} changed device between stages"
        );
    }
    service.shutdown();
}

#[test]
fn calm_deadline_jobs_count_one_placement_each() {
    // Fault-free jobs with 60 s deadlines on two devices: the MSM stage
    // weighs escalation against a 1 ms modeled cost, finds the job calm,
    // and claims nothing — each job is one placement, not one per stage.
    let service = ProvingService::start(ServiceConfig {
        devices: parse_devices("2").expect("spec"),
        default_deadline: Some(std::time::Duration::from_secs(60)),
        ..ServiceConfig::default()
    });
    let jobs = 24u64;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            service
                .submit(Box::new(CostedTask(NopTask(i))), JobOptions::default())
                .unwrap()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let output = h.wait().outcome.unwrap();
        assert_eq!(output.proof, (i as u64).to_le_bytes());
    }
    let util = service.fleet_utilization();
    assert_eq!(util.devices.iter().map(|d| d.jobs).sum::<u64>(), jobs);
    service.shutdown();
}

#[test]
fn preprocess_store_eviction_under_concurrent_provers() {
    // Parallel provers sharing a store whose byte budget can't hold even
    // one table set: every insert evicts someone else's tables mid-run.
    // The service must neither deadlock nor serve stale tables — every
    // proof stays byte-identical to the direct prover.
    let mut rng = StdRng::seed_from_u64(31);
    let mut classes = Vec::new();
    for constraints in [64usize, 96, 128] {
        let cs = Arc::new(synthetic_circuit::<<Bn254 as PairingConfig>::Fr, _>(
            constraints,
            &mut rng,
        ));
        let (pk, _) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        classes.push((cs, Arc::new(pk)));
    }

    let service = ProvingService::start(ServiceConfig {
        workers: 4,
        prep_cache_bytes: 1,
        ..ServiceConfig::default()
    });
    let store = service.store();
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for seed in 0..4u64 {
        for (cs, pk) in &classes {
            expected.push(direct_proof::<Bn254>(cs, pk, 300 + seed));
            let task = SystemTask::<Groth16System<Bn254>>::new(
                cs.clone(),
                pk.clone(),
                v100(),
                Some(store.clone()),
                300 + seed,
            );
            handles.push(
                service
                    .submit(Box::new(task), JobOptions::default())
                    .unwrap(),
            );
        }
    }
    service.drain();
    for (i, (handle, want)) in handles.into_iter().zip(&expected).enumerate() {
        let output = handle.wait().outcome.unwrap();
        assert_eq!(&output.proof, want, "proof {i} differs under eviction");
    }
    assert!(
        store.evictions() > 0,
        "a 1-byte budget must evict between proving keys"
    );
    assert!(store.misses() > 0);
    service.shutdown();
}
