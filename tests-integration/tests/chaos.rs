//! Chaos suite: the fault-tolerant fleet under seeded fault injection.
//!
//! The contract under test (ISSUE 5's acceptance bar): with per-stage
//! fault rates up to 20% and one permanently dead device, every
//! submitted job either completes or is *explicitly* rejected — none is
//! lost — and every returned proof is byte-identical to a fault-free
//! run. The injector is seeded, so the same plan replays the same fault
//! trace twice.

use gzkp_gpu_sim::{v100, FaultPlan, FaultRates};
use gzkp_runtime::HealthPolicy;
use gzkp_service::{
    prepare, run_sequential, run_service, JobOptions, ProofTask, ProvingService, RetryPolicy,
    ServiceConfig, TaskOutput,
};
use gzkp_telemetry::TelemetrySink;
use gzkp_workloads::requests::{
    RequestCurve, RequestPriority, RequestSpec, RequestSystem, RequestWorkload,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The paper-shaped mixed stream, shrunk to suite-friendly circuits.
fn small_workload() -> RequestWorkload {
    RequestWorkload {
        seed: 42,
        requests: vec![
            RequestSpec {
                curve: RequestCurve::Bn254,
                system: RequestSystem::Groth16,
                constraints: 64,
                count: 3,
                priority: RequestPriority::Normal,
                deadline_ms: None,
            },
            RequestSpec {
                curve: RequestCurve::Bls12_381,
                system: RequestSystem::Groth16,
                constraints: 64,
                count: 2,
                priority: RequestPriority::High,
                deadline_ms: None,
            },
        ],
    }
}

/// Issue 5's headline scenario: two devices, device 1 permanently dead,
/// per-kind rates up to 20%.
fn chaos_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        devices: gzkp_runtime::parse_devices("2").unwrap(),
        chaos: Some(FaultPlan {
            seed,
            rates: FaultRates {
                kernel: 0.2,
                transfer: 0.1,
                hang: 0.02,
                corrupt: 0.1,
                host_kill: 0.0,
            },
            device_scale: Vec::new(),
            dead: vec![1],
        }),
        retry: RetryPolicy {
            max_retries: 24,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        },
        // Long probation: the dead device stays benched once the breaker
        // trips instead of cycling through probes mid-test.
        health: HealthPolicy {
            quarantine_after: 3,
            probation: Duration::from_secs(60),
            max_probation: Duration::from_secs(60),
        },
        default_deadline: None,
        ..ServiceConfig::default()
    }
}

#[test]
fn chaos_fleet_loses_no_jobs_and_keeps_proofs_byte_identical() {
    let workload = small_workload();
    let device = v100();
    let prepared = prepare(&workload);
    let baseline = run_sequential(&prepared, &device);

    for seed in [5u64, 17, 93] {
        let outcome = run_service(&prepared, chaos_cfg(seed), &device);
        let chaos = outcome.chaos.expect("chaos replay records a summary");
        let stats = outcome.stats.expect("service replay records stats");

        // Zero lost jobs: every request is accounted for explicitly.
        let completed = outcome.proofs.iter().flatten().count();
        assert_eq!(
            completed + outcome.rejected + outcome.deadline_missed + outcome.failed,
            prepared.len(),
            "seed {seed}: a job vanished without an explicit outcome"
        );
        assert_eq!(
            completed,
            prepared.len(),
            "seed {seed}: at these rates the retry budget must absorb every fault \
             (failed {} rejected {})",
            outcome.failed,
            outcome.rejected
        );

        // Recovery happened (the seeds are chosen to actually fault) and
        // never changed a proof: byte-identical to the fault-free run.
        assert!(chaos.injected() > 0, "seed {seed}: no fault injected");
        assert!(stats.retries > 0, "seed {seed}: no stage was retried");
        assert!(
            chaos.dead_hits > 0 && stats.quarantines > 0,
            "seed {seed}: the dead device was never hit ({}) or never \
             quarantined ({})",
            chaos.dead_hits,
            stats.quarantines
        );
        for (i, (got, want)) in outcome.proofs.iter().zip(&baseline.proofs).enumerate() {
            assert_eq!(
                got.as_ref(),
                want.as_ref(),
                "seed {seed}: request {i} diverged from the fault-free proof"
            );
        }
    }
}

/// Trivial instantly-completing task: chaos decisions don't depend on
/// what a stage computes, so the replayability of the fault trace can be
/// checked without paying for real proofs.
struct NopTask(u64);

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
}

/// One chaos run over trivial tasks: the injector's sorted event log and
/// per-kind counts. Dead-device hits and retry totals are placement
/// events (racy across thread interleavings) and deliberately excluded.
fn fault_trace(seed: u64) -> (Vec<gzkp_gpu_sim::FaultEvent>, [u64; 4]) {
    let service = ProvingService::start(ServiceConfig {
        chaos: Some(FaultPlan {
            seed,
            rates: FaultRates::uniform(0.2),
            dead: vec![1],
            ..FaultPlan::default()
        }),
        devices: gzkp_runtime::parse_devices("2").unwrap(),
        retry: RetryPolicy {
            max_retries: 64,
            backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
        },
        default_deadline: None,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = (0..24)
        .map(|i| {
            service
                .submit(Box::new(NopTask(i)), JobOptions::default())
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().outcome.expect("every nop job completes");
    }
    let inj = service.fault_injector().expect("chaos is configured");
    let events = inj.events();
    let s = inj.summary();
    service.shutdown();
    (events, [s.kernel, s.transfer, s.hang, s.corrupt])
}

#[test]
fn same_seed_replays_the_same_fault_trace() {
    for seed in [3u64, 71] {
        let (events_a, counts_a) = fault_trace(seed);
        let (events_b, counts_b) = fault_trace(seed);
        assert!(!events_a.is_empty(), "seed {seed}: no fault drawn");
        assert_eq!(events_a, events_b, "seed {seed}: fault log not replayable");
        assert_eq!(counts_a, counts_b, "seed {seed}: per-kind counts diverged");
    }
    let (events_a, _) = fault_trace(3);
    let (events_c, _) = fault_trace(4);
    assert_ne!(events_a, events_c, "different seeds must draw differently");
}

/// Counts how often each of its stages ran; the proof is its payload.
struct CountingTask {
    payload: u64,
    polys: Arc<AtomicU32>,
    msms: Arc<AtomicU32>,
}

impl ProofTask for CountingTask {
    fn key_id(&self) -> u64 {
        self.payload
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        self.polys.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        self.msms.fetch_add(1, Ordering::Relaxed);
        Ok(TaskOutput {
            proof: self.payload.to_le_bytes().to_vec(),
            report: None,
        })
    }
}

#[test]
fn msm_fault_retry_keeps_the_poly_artifacts() {
    // Seed 32 at a 50 % kernel-fault rate draws, for job 0: a clean POLY
    // roll (attempt 0), a faulted first MSM roll (attempt 0), and a clean
    // second MSM roll (attempt 1). Draws are pure hashes of (seed, job,
    // stage, attempt), so this holds on every run; the probe checks it.
    let plan = FaultPlan {
        seed: 32,
        rates: FaultRates {
            kernel: 0.5,
            ..FaultRates::default()
        },
        device_scale: Vec::new(),
        dead: Vec::new(),
    };
    let probe = gzkp_gpu_sim::FaultInjector::new(plan.clone());
    let kernel = Some(gzkp_gpu_sim::FaultKind::KernelFault);
    assert_eq!(probe.roll(Some(0), 0, "poly", 0, false), None);
    assert_eq!(probe.roll(Some(0), 0, "msm", 0, true), kernel);
    assert_eq!(probe.roll(Some(0), 0, "msm", 1, true), None);
    let service = ProvingService::start(ServiceConfig {
        devices: gzkp_runtime::parse_devices("1").unwrap(),
        chaos: Some(plan),
        retry: RetryPolicy {
            max_retries: 4,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        },
        default_deadline: None,
        ..ServiceConfig::default()
    });
    let (polys, msms) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let task = CountingTask {
        payload: 7,
        polys: polys.clone(),
        msms: msms.clone(),
    };
    let output = service
        .submit(Box::new(task), JobOptions::default())
        .unwrap()
        .wait()
        .outcome
        .expect("the retried MSM completes the job");
    assert_eq!(output.proof, 7u64.to_le_bytes());
    // The fault hit before the MSM body ran: POLY ran once, MSM once.
    assert_eq!(
        polys.load(Ordering::Relaxed),
        1,
        "the MSM retry re-ran POLY"
    );
    assert_eq!(msms.load(Ordering::Relaxed), 1);
    let events = service.fault_injector().unwrap().events();
    assert_eq!(
        events,
        [gzkp_gpu_sim::FaultEvent {
            job: 0,
            stage: "msm".to_string(),
            attempt: 0,
            kind: gzkp_gpu_sim::FaultKind::KernelFault,
        }]
    );
    let stats = service.shutdown();
    assert_eq!((stats.faults_injected, stats.retries), (1, 1));
}

#[test]
fn dead_fleet_degrades_to_cpu_and_still_proves() {
    let workload = RequestWorkload {
        seed: 7,
        requests: vec![RequestSpec {
            curve: RequestCurve::Bn254,
            system: RequestSystem::Groth16,
            constraints: 64,
            count: 2,
            priority: RequestPriority::Normal,
            deadline_ms: None,
        }],
    };
    let device = v100();
    let prepared = prepare(&workload);
    let baseline = run_sequential(&prepared, &device);

    // The whole (single-device) fleet is dead: no fault rates at all, the
    // only failure mode is the dead device itself.
    let cfg = ServiceConfig {
        devices: gzkp_runtime::parse_devices("1").unwrap(),
        chaos: Some(FaultPlan {
            seed: 1,
            rates: FaultRates::default(),
            device_scale: Vec::new(),
            dead: vec![0],
        }),
        health: HealthPolicy {
            quarantine_after: 1,
            probation: Duration::from_secs(60),
            max_probation: Duration::from_secs(60),
        },
        default_deadline: None,
        ..ServiceConfig::default()
    };
    let outcome = run_service(&prepared, cfg, &device);
    let chaos = outcome.chaos.unwrap();
    let stats = outcome.stats.unwrap();

    assert_eq!(outcome.proofs.iter().flatten().count(), prepared.len());
    assert!(chaos.dead_hits > 0, "first placement must hit the dead GPU");
    assert!(
        stats.quarantines > 0,
        "the dead device must trip the breaker"
    );
    assert!(
        stats.cpu_fallbacks > 0,
        "with the fleet gone, stages must degrade to the host CPU path"
    );
    for (got, want) in outcome.proofs.iter().zip(&baseline.proofs) {
        assert_eq!(got, want, "CPU-fallback proofs must stay byte-identical");
    }
}

/// A splittable-MSM task for the cross-device chaos scenario: when the
/// scheduler grants it several devices it binds a
/// [`gzkp_runtime::CrossDeviceMsm`] over them; its "proof" is the
/// compressed MSM result, so byte-identity directly certifies the
/// partial-bucket merge. The huge cost estimate makes every job urgent
/// under the default deadline, forcing the cross-device path.
struct CrossMsmTask {
    id: u64,
    pts: Vec<gzkp_curves::Affine<gzkp_curves::bn254::G1Config>>,
    sv: gzkp_msm::ScalarVec,
    reference: gzkp_msm::GzkpMsm,
    cross: Option<gzkp_runtime::CrossDeviceMsm>,
}

impl ProofTask for CrossMsmTask {
    fn key_id(&self) -> u64 {
        self.id
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        use gzkp_msm::MsmEngine;
        let run = match &self.cross {
            Some(engine) => engine.msm(&self.pts, &self.sv),
            None => self.reference.msm(&self.pts, &self.sv),
        };
        Ok(TaskOutput {
            proof: gzkp_curves::compress(&run.result.to_affine()),
            report: None,
        })
    }
    fn bind_device(&mut self, _device: &gzkp_gpu_sim::DeviceConfig) {
        self.cross = None;
    }
    fn bind_fleet(
        &mut self,
        fleet: &std::sync::Arc<gzkp_runtime::FleetRuntime>,
        devices: &[usize],
        job_id: u64,
    ) -> bool {
        self.cross = Some(gzkp_runtime::CrossDeviceMsm::new(
            self.reference.clone(),
            fleet.clone(),
            devices.to_vec(),
            format!("job{job_id}.msm"),
        ));
        true
    }
    fn msm_cost_estimate_ns(&self) -> f64 {
        1e12
    }
}

/// ISSUE 7's chaos bar: device 0 — the cross-device *primary* on first
/// placement — is permanently dead, killing each job's first
/// cross-device MSM attempt while the claimed device set is held. Every
/// job must still complete (the dead primary quarantines, the survivors
/// re-run the sharded MSM), every proof must match the single-device
/// bytes, and no device claim may leak.
#[test]
fn dead_device_mid_cross_msm_loses_no_jobs() {
    use gzkp_ff::Field;
    use gzkp_msm::MsmEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(11);
    let pts = gzkp_curves::random_points::<gzkp_curves::bn254::G1Config, _>(96, &mut rng);
    let scalars: Vec<gzkp_curves::bn254::Fr> = (0..96)
        .map(|_| gzkp_curves::bn254::Fr::random(&mut rng))
        .collect();
    let sv = gzkp_msm::ScalarVec::from_field(&scalars);
    let reference = gzkp_msm::GzkpMsm::new(v100());
    let expect = gzkp_curves::compress(&reference.msm(&pts, &sv).result.to_affine());

    let service = ProvingService::start(ServiceConfig {
        devices: vec![v100(); 3],
        chaos: Some(FaultPlan {
            seed: 23,
            rates: FaultRates {
                kernel: 0.1,
                transfer: 0.05,
                hang: 0.0,
                corrupt: 0.0,
                host_kill: 0.0,
            },
            device_scale: Vec::new(),
            dead: vec![0],
        }),
        retry: RetryPolicy {
            max_retries: 24,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        },
        health: HealthPolicy {
            quarantine_after: 2,
            probation: Duration::from_secs(60),
            max_probation: Duration::from_secs(60),
        },
        ..ServiceConfig::default()
    });

    let handles: Vec<_> = (0..12)
        .map(|i| {
            service
                .submit(
                    Box::new(CrossMsmTask {
                        id: i,
                        pts: pts.clone(),
                        sv: sv.clone(),
                        reference: reference.clone(),
                        cross: None,
                    }),
                    JobOptions::default(),
                )
                .unwrap()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h
            .wait()
            .outcome
            .unwrap_or_else(|e| panic!("job {i} was lost to the dead device: {e:?}"));
        assert_eq!(
            out.proof, expect,
            "job {i}: cross-device proof bytes diverged under chaos"
        );
    }

    let inj = service.fault_injector().expect("chaos is configured");
    assert!(
        inj.summary().dead_hits > 0,
        "the dead primary was never hit mid-cross-MSM"
    );
    let stats = service.stats();
    assert!(
        stats.quarantines > 0,
        "the dead device must trip the breaker"
    );
    let fleet = service.fleet().clone();
    assert!(
        fleet.p2p_transfers() > 0,
        "no partial-sum merge crossed the P2P path — the cross-device path never ran"
    );
    // Every pin was released on both the fault and the success paths:
    // nothing stays pinned to a device after the jobs resolve.
    for d in 0..3 {
        assert_eq!(
            fleet.device_pinned(d),
            0,
            "device {d} leaked a placement claim"
        );
    }
    service.shutdown();
}
