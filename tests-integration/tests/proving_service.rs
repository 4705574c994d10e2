//! Proving-service behavior: backpressure, deadlines, cancellation,
//! graceful shutdown, per-job traces, and bit-exact equivalence with the
//! direct prover on both pairing curves.

use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_gpu_sim::{v100, FaultPlan, FaultRates};
use gzkp_groth16::{
    proof_from_bytes, proof_to_bytes, prove, setup, verify, Groth16System, ProveReport,
    ProverEngines,
};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_runtime::HealthPolicy;
use gzkp_service::{
    JobError, JobOptions, Priority, ProofTask, ProvingService, RetryPolicy, ServiceConfig,
    StageProfile, SubmitError, SystemTask, TaskOutput,
};
use gzkp_telemetry::{names, MetricsRegistry, TelemetrySink};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A latch a test can wait on / open.
#[derive(Default)]
struct Latch {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        while !*st {
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// The release latch of gated tasks, opened when the test drops it.
/// Declared after the service, it drops first, so a test that panics with
/// the gate held frees the worker its service's `Drop` joins: the test
/// fails instead of hanging.
#[derive(Default)]
struct Release(Arc<Latch>);

impl Release {
    fn latch(&self) -> Arc<Latch> {
        self.0.clone()
    }

    fn open(&self) {
        self.0.open();
    }
}

impl Drop for Release {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Task whose POLY stage blocks until released — pins a worker so queue
/// behavior can be observed deterministically.
struct GateTask {
    started: Arc<Latch>,
    release: Arc<Latch>,
}

impl ProofTask for GateTask {
    fn key_id(&self) -> u64 {
        0
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

fn one_worker(queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity,
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// Failure domains at submission: a closed domain takes no pin while
/// another one has room, and takes work once it opens.
#[test]
fn unschedulable_domain_gets_no_pin_until_it_opens() {
    let service = ProvingService::start_in_domains(
        ServiceConfig {
            devices: vec![v100()],
            ..ServiceConfig::default()
        },
        2,
    );
    service.fleet().set_schedulable(1, false);
    let started = Arc::new(Latch::default());
    let release = Release::default();
    let gated: Vec<_> = (0..2)
        .map(|_| {
            let task = GateTask {
                started: started.clone(),
                release: release.latch(),
            };
            service
                .submit(Box::new(task), JobOptions::default())
                .unwrap()
        })
        .collect();
    assert!(gated.iter().all(|h| h.domain() == 0), "domain 1 is closed");
    assert_eq!(service.fleet().pinned(1), 0);
    started.wait();

    service.fleet().set_schedulable(1, true);
    let opened = service
        .submit(Box::new(NopTask(7)), JobOptions::default())
        .unwrap();
    assert_eq!(opened.domain(), 1, "the open, idle domain is least loaded");
    let result = opened.wait();
    assert_eq!(result.domain, 1);
    assert_eq!(result.outcome.unwrap().proof, 7u64.to_le_bytes());
    release.open();
    for handle in gated {
        assert_eq!(handle.wait().domain, 0);
    }
    let util = service.fleet_utilization();
    assert_eq!((util.devices[0].jobs, util.devices[1].jobs), (2, 1));
    service.shutdown();
}

/// A move off a killed domain is not a failure of the job: with a retry
/// budget of one, a job moved twice — its domain killed, then the one it
/// moved to — still completes on the third.
#[test]
fn moves_off_killed_domains_spend_no_retry_budget() {
    let service = ProvingService::start_in_domains(
        ServiceConfig {
            devices: vec![v100()],
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        },
        3,
    );
    // A gated job on every domain's one worker: the job under test waits
    // in the queue wherever it is pinned.
    let release = Release::default();
    let gates: Vec<_> = (0..3)
        .map(|_| {
            let started = Arc::new(Latch::default());
            let task = GateTask {
                started: started.clone(),
                release: release.latch(),
            };
            let gate = service.submit(Box::new(task), JobOptions::default());
            let gate = gate.unwrap();
            started.wait();
            gate
        })
        .collect();
    let mut gate_domains: Vec<usize> = gates.iter().map(|g| g.domain()).collect();
    gate_domains.sort();

    let job = service
        .submit(Box::new(NopTask(7)), JobOptions::default())
        .unwrap();
    let first = job.domain();
    service.kill_domain(first);
    let second = job.domain();
    service.kill_domain(second);
    release.open();
    let result = job.wait();
    for gate in gates {
        gate.wait();
    }
    service.shutdown();
    assert_eq!(gate_domains, [0, 1, 2], "one gate per domain");
    assert_eq!(result.outcome.unwrap().proof, 7u64.to_le_bytes());
    assert!(first != second && ![first, second].contains(&result.domain));
}

#[test]
fn backpressure_rejects_when_queue_full() {
    let service = ProvingService::start(one_worker(2));
    let started = Arc::new(Latch::default());
    let release = Release::default();
    let gate = service
        .submit(
            Box::new(GateTask {
                started: started.clone(),
                release: release.latch(),
            }),
            JobOptions::default(),
        )
        .unwrap();
    // Once the gate occupies the worker, the queue holds waiting jobs only.
    started.wait();
    let a = service
        .submit(Box::new(NopTask(1)), JobOptions::default())
        .unwrap();
    let b = service
        .submit(Box::new(NopTask(2)), JobOptions::default())
        .unwrap();
    let err = service
        .submit(Box::new(NopTask(3)), JobOptions::default())
        .unwrap_err();
    assert_eq!(err, SubmitError::QueueFull { capacity: 2 });

    release.open();
    for h in [gate, a, b] {
        assert!(h.wait().outcome.is_ok());
    }
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn deadline_expiry_drops_queued_job() {
    let service = ProvingService::start(one_worker(8));
    let started = Arc::new(Latch::default());
    let release = Release::default();
    let gate = service
        .submit(
            Box::new(GateTask {
                started: started.clone(),
                release: release.latch(),
            }),
            JobOptions::default(),
        )
        .unwrap();
    started.wait();
    let doomed = service
        .submit(
            Box::new(NopTask(1)),
            JobOptions {
                deadline: Some(Duration::from_millis(1)),
                ..JobOptions::default()
            },
        )
        .unwrap();
    // Let the deadline pass while the only worker is pinned, then release.
    std::thread::sleep(Duration::from_millis(30));
    release.open();
    assert_eq!(doomed.wait().outcome.unwrap_err(), JobError::DeadlineMissed);
    assert!(gate.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn cancellation_drops_queued_job() {
    let service = ProvingService::start(one_worker(8));
    let started = Arc::new(Latch::default());
    let release = Release::default();
    let gate = service
        .submit(
            Box::new(GateTask {
                started: started.clone(),
                release: release.latch(),
            }),
            JobOptions::default(),
        )
        .unwrap();
    started.wait();
    let cancelled = service
        .submit(Box::new(NopTask(1)), JobOptions::default())
        .unwrap();
    cancelled.cancel();
    release.open();
    assert_eq!(cancelled.wait().outcome.unwrap_err(), JobError::Cancelled);
    assert!(gate.wait().outcome.is_ok());
    assert_eq!(service.shutdown().cancelled, 1);
}

#[test]
fn priorities_order_the_queue() {
    let service = ProvingService::start(one_worker(8));
    let started = Arc::new(Latch::default());
    let release = Release::default();
    let gate = service
        .submit(
            Box::new(GateTask {
                started: started.clone(),
                release: release.latch(),
            }),
            JobOptions::default(),
        )
        .unwrap();
    started.wait();
    // Submit low before high; high must still finish first.
    let low = service
        .submit(
            Box::new(NopTask(1)),
            JobOptions {
                priority: Priority::Low,
                ..JobOptions::default()
            },
        )
        .unwrap();
    let high = service
        .submit(
            Box::new(NopTask(2)),
            JobOptions {
                priority: Priority::High,
                ..JobOptions::default()
            },
        )
        .unwrap();
    release.open();
    assert!(gate.wait().outcome.is_ok());
    let high_result = high.wait();
    let low_result = low.wait();
    assert!(high_result.outcome.is_ok() && low_result.outcome.is_ok());
    assert!(
        high_result.queue_wait <= low_result.queue_wait,
        "high ({:?}) should be scheduled before low ({:?})",
        high_result.queue_wait,
        low_result.queue_wait
    );
    service.shutdown();
}

#[test]
fn failing_task_resolves_as_failed() {
    struct FailTask;
    impl ProofTask for FailTask {
        fn key_id(&self) -> u64 {
            0
        }
        fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
            Err("no witness".into())
        }
        fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
            unreachable!("poly failed")
        }
    }
    struct PanicTask;
    impl ProofTask for PanicTask {
        fn key_id(&self) -> u64 {
            0
        }
        fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
            panic!("boom")
        }
        fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
            unreachable!("poly panicked")
        }
    }
    let service = ProvingService::start(one_worker(8));
    let failed = service
        .submit(Box::new(FailTask), JobOptions::default())
        .unwrap();
    let panicked = service
        .submit(Box::new(PanicTask), JobOptions::default())
        .unwrap();
    assert_eq!(
        failed.wait().outcome.unwrap_err(),
        JobError::Failed("no witness".into())
    );
    assert_eq!(
        panicked.wait().outcome.unwrap_err(),
        JobError::Failed("stage panicked: boom".into())
    );
    // A panicking stage must not poison the workers.
    let ok = service
        .submit(Box::new(NopTask(7)), JobOptions::default())
        .unwrap();
    assert!(ok.wait().outcome.is_ok());
    assert_eq!(service.shutdown().failed, 2);
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let service = ProvingService::start(ServiceConfig {
        queue_capacity: 64,
        workers: 2,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = (0..16)
        .map(|i| {
            service
                .submit(Box::new(NopTask(i)), JobOptions::default())
                .unwrap()
        })
        .collect();
    // Shutdown with most jobs still queued: every one must resolve.
    let stats = service.shutdown();
    assert_eq!(stats.completed, 16);
    for (i, h) in handles.into_iter().enumerate() {
        let result = h.wait();
        assert_eq!(result.outcome.unwrap().proof, (i as u64).to_le_bytes());
    }
}

#[test]
fn parked_retry_is_drained_at_shutdown() {
    // Every stage execution faults, so the job can only ever sit parked
    // in a retry backoff; shutdown must return it instead of waiting the
    // backoff out (or dropping it silently).
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        chaos: Some(FaultPlan {
            rates: FaultRates {
                kernel: 1.0,
                ..FaultRates::default()
            },
            ..FaultPlan::default()
        }),
        retry: RetryPolicy {
            max_retries: 1000,
            backoff: Duration::from_millis(300),
            max_backoff: Duration::from_millis(300),
        },
        ..ServiceConfig::default()
    });
    let handle = service
        .submit(Box::new(NopTask(1)), JobOptions::default())
        .unwrap();
    // Let the job fault and park for its 300 ms backoff.
    std::thread::sleep(Duration::from_millis(50));
    let stats = service.shutdown();
    assert_eq!(handle.wait().outcome.unwrap_err(), JobError::Drained);
    assert_eq!(stats.drained, 1);
    assert!(stats.faults_injected >= 1);
    assert_eq!(stats.completed + stats.failed, 0);
}

#[test]
fn backpressure_still_applies_with_a_quarantined_device() {
    // Two-device fleet with device 1 benched: capacity accounting must
    // not change — both workers keep running (on device 0), and the
    // bounded queue still rejects the overflow submission.
    let service = ProvingService::start(ServiceConfig {
        queue_capacity: 2,
        devices: gzkp_runtime::parse_devices("2").unwrap(),
        health: HealthPolicy {
            probation: Duration::from_secs(60),
            ..HealthPolicy::default()
        },
        ..ServiceConfig::default()
    });
    assert!(service.fleet().record_failure(1, true));

    let gates: Vec<_> = (0..2)
        .map(|_| {
            let started = Arc::new(Latch::default());
            let release = Release::default();
            let handle = service
                .submit(
                    Box::new(GateTask {
                        started: started.clone(),
                        release: release.latch(),
                    }),
                    JobOptions::default(),
                )
                .unwrap();
            started.wait();
            (handle, release)
        })
        .collect();
    let a = service
        .submit(Box::new(NopTask(1)), JobOptions::default())
        .unwrap();
    let b = service
        .submit(Box::new(NopTask(2)), JobOptions::default())
        .unwrap();
    let err = service
        .submit(Box::new(NopTask(3)), JobOptions::default())
        .unwrap_err();
    assert_eq!(err, SubmitError::QueueFull { capacity: 2 });

    for (handle, release) in gates {
        release.open();
        assert!(handle.wait().outcome.is_ok());
    }
    assert!(a.wait().outcome.is_ok() && b.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.quarantines, 1);
}

/// Task whose proof fails verification the first `rejects` times the
/// guard checks it.
struct RejectingTask {
    rejects: u32,
    checks: AtomicU32,
}

impl ProofTask for RejectingTask {
    fn key_id(&self) -> u64 {
        0
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        Ok(TaskOutput {
            proof: vec![0xAB; 8],
            report: None,
        })
    }
    fn verify_output(&self, _output: &TaskOutput) -> Option<bool> {
        Some(self.checks.fetch_add(1, Ordering::Relaxed) >= self.rejects)
    }
}

#[test]
fn verify_reject_recovers_with_one_reexecution() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        retry: RetryPolicy {
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let handle = service
        .submit(
            Box::new(RejectingTask {
                rejects: 1,
                checks: AtomicU32::new(0),
            }),
            JobOptions::default(),
        )
        .unwrap();
    assert!(handle.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.verify_rejects, 1);
    // Two votes cast: the rejected first run and the passing second.
    assert_eq!(stats.verify_votes, 2);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn verify_rejects_spend_the_retry_budget_like_faults() {
    // Three rejects, then a proof that verifies: the rejects are three
    // retries out of the default budget of 8, with no cap of their own.
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        retry: RetryPolicy {
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let handle = service
        .submit(
            Box::new(RejectingTask {
                rejects: 3,
                checks: AtomicU32::new(0),
            }),
            JobOptions::default(),
        )
        .unwrap();
    assert!(handle.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.verify_rejects, 3);
    assert_eq!(stats.verify_votes, 4);
    assert_eq!(stats.retries, 3);
    assert_eq!(stats.completed, 1);
}

#[test]
fn verify_reject_fails_only_after_all_votes_reject() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let handle = service
        .submit(
            Box::new(RejectingTask {
                rejects: u32::MAX,
                checks: AtomicU32::new(0),
            }),
            JobOptions::default(),
        )
        .unwrap();
    assert_eq!(
        handle.wait().outcome.unwrap_err(),
        JobError::Failed("verify reject (retry budget of 2 exhausted)".into())
    );
    let stats = service.shutdown();
    // The first run and both retries were produced, verified, and
    // rejected.
    assert_eq!(stats.verify_rejects, 3);
    assert_eq!(stats.verify_votes, 3);
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.failed, 1);
}

#[test]
fn retry_lands_on_a_different_device() {
    // Device 0 always faults, device 1 never does — but device 1 starts
    // quarantined, so the first placement must pick device 0, fault, and
    // the retry (after device 1's window expires) must migrate there.
    let service = ProvingService::start(ServiceConfig {
        devices: gzkp_runtime::parse_devices("2").unwrap(),
        chaos: Some(FaultPlan {
            rates: FaultRates {
                kernel: 1.0,
                ..FaultRates::default()
            },
            device_scale: vec![1.0, 0.0],
            ..FaultPlan::default()
        }),
        retry: RetryPolicy {
            max_retries: 4,
            backoff: Duration::from_millis(300),
            max_backoff: Duration::from_millis(300),
        },
        health: HealthPolicy {
            probation: Duration::from_millis(150),
            ..HealthPolicy::default()
        },
        ..ServiceConfig::default()
    });
    assert!(service.fleet().record_failure(1, true));
    let handle = service
        .submit(Box::new(NopTask(9)), JobOptions::default())
        .unwrap();
    assert!(handle.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.faults_injected, 1, "exactly one fault on device 0");
    assert_eq!(stats.retries, 1, "one migration to the clean device");
    assert_eq!(stats.cpu_fallbacks, 0, "device 1 came back in time");
}

/// A job of one of three cost classes (its proving key) whose stages
/// report a device profile, so each leaves `job{id}.{poly,msm}.*` ops on
/// its device's lanes. Its POLY waits for `go`, so a whole batch is
/// submitted before any of it runs past its first pick.
struct ProfiledTask {
    class: u64,
    go: Arc<Latch>,
}

impl ProfiledTask {
    fn profile(&self) -> StageProfile {
        StageProfile {
            h2d_bytes: 4096 << self.class,
            kernel_ns: 1.0e5 * (self.class + 1) as f64,
            d2h_bytes: 64,
            shards: 0,
        }
    }
}

impl ProofTask for ProfiledTask {
    fn key_id(&self) -> u64 {
        self.class
    }
    fn poly(&mut self, _sink: &dyn TelemetrySink) -> Result<(), String> {
        self.go.wait();
        Ok(())
    }
    fn msm(&mut self, _sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        Ok(TaskOutput {
            proof: self.class.to_le_bytes().to_vec(),
            report: None,
        })
    }
    fn poly_profile(&self) -> StageProfile {
        self.profile()
    }
    fn msm_profile(&self, _output: &TaskOutput) -> StageProfile {
        self.profile()
    }
}

/// Placement is decided at submit, so a fault-free fleet schedule is a
/// function of the submission order: 12 jobs of three interleaved cost
/// classes split 6 / 6 over two V100s, and each device runs its jobs in
/// the same order on every repetition, whichever worker wakes first.
#[test]
fn fleet_schedule_repeats_exactly() {
    let kernel_lanes = || {
        let service = ProvingService::start(ServiceConfig {
            devices: vec![v100(); 2],
            default_deadline: None,
            ..ServiceConfig::default()
        });
        let go = Arc::new(Latch::default());
        let handles: Vec<_> = (0..12u64)
            .map(|i| {
                let task = ProfiledTask {
                    class: i % 3,
                    go: go.clone(),
                };
                service
                    .submit(Box::new(task), JobOptions::default())
                    .unwrap()
            })
            .collect();
        go.open();
        for handle in handles {
            assert!(handle.wait().outcome.is_ok());
        }
        let util = service.fleet_utilization();
        assert_eq!((util.devices[0].jobs, util.devices[1].jobs), (6, 6));
        let trace = service.fleet_trace();
        service.shutdown();
        ["dev0", "dev1"].map(|dev| {
            let lane = trace
                .find(&["runtime", dev, "kernel"])
                .expect("kernel lane");
            lane.children
                .iter()
                .map(|op| op.name.clone())
                .collect::<Vec<_>>()
        })
    };
    let first = kernel_lanes();
    for rep in 1..20 {
        assert_eq!(
            kernel_lanes(),
            first,
            "repetition {rep} ran a different schedule"
        );
    }
}

/// Direct prover bytes and simulated stage report for the service to
/// match.
fn direct_proof<P: PairingConfig>(
    cs: &gzkp_groth16::ConstraintSystem<P::Fr>,
    pk: &gzkp_groth16::ProvingKey<P>,
    seed: u64,
) -> (Vec<u8>, ProveReport)
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
    let (proof, report) = prove(cs, pk, &engines, &mut rng).unwrap();
    (proof_to_bytes(&proof), report)
}

fn assert_service_matches_direct<P: PairingConfig>(setup_seed: u64, blind_seed: u64)
where
    <P::G1 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
    <P::G2 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    let mut rng = StdRng::seed_from_u64(setup_seed);
    let cs = Arc::new(synthetic_circuit::<P::Fr, _>(96, &mut rng));
    let (pk, vk) = setup::<P, _>(&cs, &mut rng).unwrap();
    let pk = Arc::new(pk);
    let (expected, _) = direct_proof::<P>(&cs, &pk, blind_seed);

    let service = ProvingService::start(ServiceConfig::default());
    let task = SystemTask::<Groth16System<P>>::new(
        cs.clone(),
        pk.clone(),
        v100(),
        Some(service.store()),
        blind_seed,
    );
    let result = service
        .submit(
            Box::new(task),
            JobOptions {
                trace: true,
                ..JobOptions::default()
            },
        )
        .unwrap()
        .wait();
    let output = result.outcome.unwrap();
    assert_eq!(
        output.proof, expected,
        "service proof must be bit-identical"
    );
    let proof = proof_from_bytes::<P>(&output.proof).unwrap();
    assert!(verify::<P>(&vk, &proof, &cs.input_assignment));
    assert!(output.report.is_some());

    // The per-job trace wraps the prover's span tree in service spans.
    let trace = result.trace.expect("trace requested");
    for path in [
        &["service"][..],
        &["service", "queue_wait"][..],
        &["service", "execute", "poly"][..],
        &["service", "execute", "msm", "b_g2"][..],
    ] {
        assert!(trace.find(path).is_some(), "missing span {path:?}");
    }
    assert_eq!(trace.root.counter(names::SERVICE_COMPLETED), Some(1.0));
    service.shutdown();
}

#[test]
fn service_proof_is_bit_identical_bn254() {
    assert_service_matches_direct::<Bn254>(11, 1234);
}

#[test]
fn service_proof_is_bit_identical_bls12_381() {
    assert_service_matches_direct::<Bls12_381>(12, 5678);
}

#[test]
fn default_fleet_is_workers_v100s_priced_like_the_direct_prover() {
    // No `devices`: the service runs on `workers` V100s, one pinned worker
    // each. Binding a task to its V100 changes neither the proof bytes nor
    // the simulated POLY / MSM times the direct prover reports.
    let mut rng = StdRng::seed_from_u64(13);
    let cs = Arc::new(synthetic_circuit::<<Bn254 as PairingConfig>::Fr, _>(
        64, &mut rng,
    ));
    let (pk, _) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
    let pk = Arc::new(pk);
    let registry = Arc::new(MetricsRegistry::new());
    let service = ProvingService::start(ServiceConfig {
        workers: 2,
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    });
    let seeds = [21u64, 22];
    let handles: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let task = SystemTask::<Groth16System<Bn254>>::new(
                cs.clone(),
                pk.clone(),
                v100(),
                Some(service.store()),
                seed,
            );
            service
                .submit(Box::new(task), JobOptions::default())
                .unwrap()
        })
        .collect();
    for (handle, seed) in handles.into_iter().zip(seeds) {
        let output = handle.wait().outcome.unwrap();
        let (proof, want) = direct_proof::<Bn254>(&cs, &pk, seed);
        assert_eq!(output.proof, proof, "seed {seed}: proof bytes moved");
        let got = output.report.expect("a SystemTask reports its stages");
        for (stage, got, want) in [
            ("poly", got.poly.total_ns(), want.poly.total_ns()),
            ("msm", got.msm.total_ns(), want.msm.total_ns()),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "seed {seed}: simulated {stage} ns moved ({got} vs {want})"
            );
        }
    }

    let util = service.fleet_utilization();
    let devices: Vec<&str> = util.devices.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(devices, ["V100", "V100"]);
    assert!(util.devices.iter().map(|d| d.jobs).sum::<u64>() >= seeds.len() as u64);
    assert_eq!(
        registry.snapshot().counter_total(names::DEVICE_STAGES),
        2 * seeds.len() as u64,
        "two stages per job across the fleet"
    );
    service.shutdown();
}
