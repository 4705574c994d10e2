//! Cluster suite: one proving service over host-sized failure domains,
//! with checkpointed resume, an admission-control front door and an
//! autoscaler.
//!
//! The contract under test: killing a host mid-proof loses zero jobs —
//! interrupted work resumes from its persisted checkpoint on a surviving
//! host and the final proofs are byte-identical to uninterrupted runs —
//! and the front door's weighted fair queuing and per-tenant rate limits
//! hold under saturation without starving anyone.

use gzkp_cluster::{AdmissionError, AutoscalePolicy, Cluster, ClusterConfig, TenantSpec};
use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_gpu_sim::{v100, DeviceConfig, FaultPlan};
use gzkp_groth16::{
    proof_to_bytes,
    prove::{prove, ProverEngines},
    setup, ConstraintSystem, Groth16System, MsmSteps, ProofCheckpoint, ProvingKey, VerifyingKey,
};
use gzkp_msm::{GzkpMsm, PreprocessStore};
use gzkp_ntt::GzkpNtt;
use gzkp_runtime::FleetRuntime;
use gzkp_service::{
    CheckpointSlot, JobError, JobOptions, ProofTask, RetryPolicy, ServiceConfig, StageProfile,
    SystemTask, TaskOutput,
};
use gzkp_telemetry::{names, MetricsRegistry, TelemetrySink};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Keyed = (
    Arc<ConstraintSystem<Fr>>,
    Arc<ProvingKey<Bn254>>,
    Arc<VerifyingKey<Bn254>>,
);

fn keyed_circuit(constraints: usize, seed: u64) -> Keyed {
    let mut rng = StdRng::seed_from_u64(seed);
    let cs = synthetic_circuit::<Fr, _>(constraints, &mut rng);
    let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");
    (Arc::new(cs), Arc::new(pk), Arc::new(vk))
}

/// Ground truth: the proof an uninterrupted single-host run produces for
/// this circuit and blinding seed.
fn direct_proof(cs: &ConstraintSystem<Fr>, pk: &ProvingKey<Bn254>, seed: u64) -> Vec<u8> {
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm_g1 = GzkpMsm::new(v100());
    let msm_g2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm_g1,
        msm_g2: &msm_g2,
    };
    let (proof, _) = prove(cs, pk, &engines, &mut StdRng::seed_from_u64(seed)).expect("prove");
    proof_to_bytes(&proof)
}

/// A checkpoint-persisting task over `keyed` and the slot it persists
/// into (the test's window on its progress).
fn persisting(
    keyed: &Keyed,
    seed: u64,
    verify: bool,
) -> (SystemTask<Groth16System<Bn254>>, CheckpointSlot) {
    let (cs, pk, vk) = keyed;
    let slot = CheckpointSlot::default();
    let mut task = SystemTask::persisting(cs.clone(), pk.clone(), v100(), seed, slot.clone());
    if verify {
        task = task.with_verifying_key(vk.clone());
    }
    (task, slot)
}

fn task(keyed: &Keyed, seed: u64) -> Box<dyn ProofTask> {
    Box::new(persisting(keyed, seed, false).0)
}

/// The headline scenario: two hosts, several jobs in flight, one host
/// killed once a job on it has a persisted mid-proof checkpoint. Every
/// job must still complete, every proof byte-identical to the
/// uninterrupted ground truth, and no claim may leak.
#[test]
fn host_kill_mid_proof_loses_no_jobs_and_proofs_are_byte_identical() {
    let keyed = keyed_circuit(192, 11);
    let jobs = 6usize;
    let expected: Vec<Vec<u8>> = (0..jobs)
        .map(|i| direct_proof(&keyed.0, &keyed.1, 100 + i as u64))
        .collect();

    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        service: ServiceConfig {
            queue_capacity: 2,
            ..ClusterConfig::default().service
        },
        tenants: vec![TenantSpec::new("zcash", 1.0)],
        ..ClusterConfig::default()
    });
    let (ids, slots): (Vec<u64>, Vec<CheckpointSlot>) = (0..jobs)
        .map(|i| {
            let (task, slot) = persisting(&keyed, 100 + i as u64, true);
            let id = cluster
                .submit("zcash", Box::new(task), JobOptions::default())
                .expect("admitted");
            (id, slot)
        })
        .unzip();

    // Pump until some open job has persisted a checkpoint (POLY done, or
    // partway through the MSMs), then kill the host it runs on. The slot
    // is cleared on completion, so Some(bytes) means mid-proof.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed_host = None;
    while killed_host.is_none() {
        assert!(Instant::now() < deadline, "no checkpoint observed in 60s");
        cluster.pump();
        for (&id, slot) in ids.iter().zip(&slots) {
            let bytes = slot.lock().unwrap().clone();
            let (Some(bytes), Some(host)) = (bytes, cluster.job_host(id)) else {
                continue;
            };
            let ckpt =
                ProofCheckpoint::<Bn254>::from_bytes(&bytes).expect("persisted checkpoint decodes");
            assert!(ckpt.steps_done() <= 5);
            cluster.kill_host(host);
            killed_host = Some(host);
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let killed_host = killed_host.unwrap();

    let outcome = cluster.drain(Duration::from_secs(120));

    assert_eq!(outcome.stats.host_kills, 1);
    assert_eq!(outcome.leaked_claims, 0, "kill leaked a host claim");
    assert_eq!(outcome.results.len(), jobs);
    assert!(
        outcome.stats.resumes >= 1,
        "the killed host had in-flight checkpointed work"
    );
    for (i, &id) in ids.iter().enumerate() {
        let result = outcome
            .results
            .iter()
            .find(|r| r.id == id)
            .expect("every admitted job resolves");
        let proof = result
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("job {id} lost to the kill: {e}"));
        assert_eq!(
            proof, &expected[i],
            "job {id} resumed to a different proof than the uninterrupted run"
        );
    }
    let dead = outcome
        .hosts
        .iter()
        .find(|h| h.id == killed_host)
        .expect("host report");
    assert!(dead.killed, "killed host not marked killed in its report");
    // Every interrupted job failed on the dead host, then resumed.
    let host_failed: u64 = outcome.hosts.iter().map(|h| h.failed).sum();
    assert_eq!(host_failed, outcome.stats.resumes);
}

/// A proof that beats a host kill is counted once, and everywhere: in
/// the cluster's stats, in the killed host's report and in its
/// `host.completed{host=hN}` series.
#[test]
fn proof_that_beats_a_host_kill_counts_on_its_host() {
    let keyed = keyed_circuit(128, 13);
    let registry = Arc::new(MetricsRegistry::new());
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        tenants: vec![TenantSpec::new("zcash", 1.0)],
        service: ServiceConfig {
            metrics: Some(registry.clone()),
            ..ClusterConfig::default().service
        },
        ..ClusterConfig::default()
    });
    let (task, slot) = persisting(&keyed, 7, true);
    let id = cluster
        .submit("zcash", Box::new(task), JobOptions::default())
        .expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cluster.job_host(id).is_none() {
        assert!(Instant::now() < deadline, "job never placed");
        cluster.pump();
    }
    // The slot fills after POLY and clears once the proof is done; with
    // no further pump the finished job stays unharvested.
    let mut persisted = false;
    loop {
        assert!(Instant::now() < deadline, "proof never finished");
        match slot.lock().unwrap().is_some() {
            true => persisted = true,
            false if persisted => break,
            false => {}
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    cluster.kill_host(cluster.job_host(id).expect("still placed"));
    let outcome = cluster.drain(Duration::from_secs(60));

    assert_eq!(outcome.stats.completed, 1);
    assert_eq!(outcome.stats.resumes, 0, "the proof beat the interrupt");
    let host_completed: u64 = outcome.hosts.iter().map(|h| h.completed).sum();
    assert_eq!(host_completed, outcome.stats.completed);
    assert_eq!(
        registry.snapshot().counter_total(names::HOST_COMPLETED),
        outcome.stats.completed
    );
}

/// Only a kill that happens counts: a second kill of the same host and a
/// kill of an unknown host leave `host_kills` (and so the chaos budget)
/// alone.
#[test]
fn only_kills_that_happen_are_counted() {
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        ..ClusterConfig::default()
    });
    cluster.kill_host(0);
    cluster.kill_host(0);
    cluster.kill_host(7);
    assert_eq!(cluster.stats().host_kills, 1);
    let outcome = cluster.drain(Duration::from_secs(10));
    assert_eq!(outcome.stats.host_kills, 1);
    assert!(outcome.hosts[0].killed && !outcome.hosts[1].killed);
}

/// Fair share through the full stack: one single-device host, two
/// tenants at 3:1 weights, both backlogged. The early completions must
/// split close to 3:1.
#[test]
fn weighted_tenants_complete_in_fair_ratio_under_saturation() {
    let keyed = keyed_circuit(64, 5);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        service: ServiceConfig {
            queue_capacity: 1,
            ..ClusterConfig::default().service
        },
        tenants: vec![TenantSpec::new("heavy", 3.0), TenantSpec::new("light", 1.0)],
        pending_capacity: 128,
        ..ClusterConfig::default()
    });
    for i in 0..24u64 {
        for tenant in ["heavy", "light"] {
            cluster
                .submit(tenant, task(&keyed, i), JobOptions::default())
                .expect("admitted");
        }
    }
    let outcome = cluster.drain(Duration::from_secs(180));
    assert_eq!(outcome.stats.failed, 0);
    assert_eq!(outcome.leaked_claims, 0);

    // All 48 eventually finish; fairness shows in the completion order.
    // In the first 32 completions a 3:1 release ratio puts ~24 heavy
    // jobs (but heavy runs dry at 24, so allow the tail to wobble).
    let heavy_early = outcome
        .results
        .iter()
        .take(32)
        .filter(|r| r.tenant == "heavy")
        .count();
    assert!(
        (22..=24).contains(&heavy_early),
        "expected ~24 heavy completions in the first 32, got {heavy_early}"
    );
    let by_tenant = outcome.completed_by_tenant();
    assert_eq!(by_tenant["heavy"], 24);
    assert_eq!(by_tenant["light"], 24);
}

/// A rate-limited tenant sees typed `RateLimited` backpressure with a
/// retry hint, and its limit never starves the unlimited tenant.
#[test]
fn rate_limited_tenant_gets_typed_backpressure_without_starving_others() {
    let keyed = keyed_circuit(64, 7);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        tenants: vec![
            TenantSpec::new("metered", 1.0).with_rate(1.0, 2.0),
            TenantSpec::new("unmetered", 1.0),
        ],
        ..ClusterConfig::default()
    });

    // A fixed admission clock makes the bucket deterministic: exactly
    // `burst` metered submissions pass, the rest are rejected with a
    // positive retry hint.
    let now = Instant::now();
    let mut metered_ok = 0u32;
    let mut rejected = 0u32;
    for i in 0..6u64 {
        match cluster.submit_at("metered", task(&keyed, i), JobOptions::default(), now) {
            Ok(_) => metered_ok += 1,
            Err(AdmissionError::RateLimited {
                tenant,
                retry_after,
            }) => {
                assert_eq!(tenant, "metered");
                assert!(retry_after > Duration::ZERO);
                rejected += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert_eq!(metered_ok, 2, "token bucket admits exactly the burst");
    assert_eq!(rejected, 4);

    for i in 0..8u64 {
        cluster
            .submit_at(
                "unmetered",
                task(&keyed, 50 + i),
                JobOptions::default(),
                now,
            )
            .expect("unlimited tenant is never rate limited");
    }

    let outcome = cluster.drain(Duration::from_secs(120));
    let by_tenant = outcome.completed_by_tenant();
    assert_eq!(by_tenant["unmetered"], 8, "metered tenant starved others");
    assert_eq!(by_tenant["metered"], 2);
    assert_eq!(outcome.stats.rejected_rate_limited, 4);
    assert_eq!(outcome.leaked_claims, 0);
    let metered = &outcome.tenants["metered"];
    assert_eq!(metered.admitted, 2);
    assert_eq!(metered.rate_limited, 4);
}

/// The cluster's chaos plan is its service's: stage faults fire (and
/// are retried) inside a cluster run as in a plain one, counted in the
/// one fault summary, and every proof still verifies byte-identical. So
/// is its retry budget: at twice the fault rate, where job 0 draws nine
/// faults and the default budget of 8 loses it, a raised `max_retries`
/// carries every job through. (At seed 5 and rate 0.2 no budget would:
/// job 0 draws three injected corruptions before its first clean MSM,
/// and the verify vote fails it after `VERIFY_VOTE_RUNS` rejects.)
#[test]
fn cluster_chaos_injects_stage_faults_and_proofs_survive() {
    let keyed = keyed_circuit(64, 31);
    let default_budget = RetryPolicy::default().max_retries;
    for (fault_seed, rate, max_retries) in [(5, 0.1, default_budget), (63, 0.2, 64)] {
        let mut cluster = Cluster::start(ClusterConfig {
            hosts: 2,
            service: ServiceConfig {
                chaos: Some(FaultPlan::uniform(fault_seed, rate)),
                retry: RetryPolicy {
                    max_retries,
                    ..RetryPolicy::default()
                },
                ..ClusterConfig::default().service
            },
            ..ClusterConfig::default()
        });
        let ids: Vec<u64> = (0..4u64)
            .map(|seed| {
                let task = Box::new(persisting(&keyed, seed, true).0);
                cluster
                    .submit("default", task, JobOptions::default())
                    .unwrap()
            })
            .collect();
        let outcome = cluster.drain(Duration::from_secs(120));

        let chaos = outcome.chaos.expect("a fault plan was configured");
        assert!(
            chaos.injected() > 0,
            "seed {fault_seed}: no stage fault fired"
        );
        assert_eq!(chaos.host_kill, 0, "no host-kill rate was set");
        for (seed, id) in ids.iter().enumerate() {
            let result = outcome.results.iter().find(|r| r.id == *id).unwrap();
            assert_eq!(
                result
                    .outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("seed {fault_seed}: job {id}: {e}")),
                &direct_proof(&keyed.0, &keyed.1, seed as u64)
            );
        }
        assert_eq!(outcome.leaked_claims, 0);
    }
}

/// The template's `default_deadline` counts from admission, as a job's
/// own deadline does: a job without one, admitted longer ago than the
/// default allows, misses it; a job with its own generous deadline
/// admitted at the same instant completes.
#[test]
fn default_deadline_counts_from_admission() {
    let keyed = keyed_circuit(64, 37);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        service: ServiceConfig {
            default_deadline: Some(Duration::from_millis(100)),
            ..ClusterConfig::default().service
        },
        ..ClusterConfig::default()
    });
    let admitted = Instant::now() - Duration::from_secs(1);
    let generous = JobOptions {
        deadline: Some(Duration::from_secs(60)),
        ..JobOptions::default()
    };
    let late = cluster
        .submit_at("default", task(&keyed, 1), JobOptions::default(), admitted)
        .unwrap();
    let kept = cluster
        .submit_at("default", task(&keyed, 2), generous, admitted)
        .unwrap();
    let outcome = cluster.drain(Duration::from_secs(60));

    let result = |id| &outcome.results.iter().find(|r| r.id == id).unwrap().outcome;
    assert_eq!(result(late), &Err(JobError::DeadlineMissed.to_string()));
    assert_eq!(
        result(kept).as_ref().expect("its own deadline holds"),
        &direct_proof(&keyed.0, &keyed.1, 2)
    );
    assert_eq!(outcome.stats.deadline_missed, 1);
    assert_eq!((outcome.stats.completed, outcome.stats.failed), (1, 1));
    assert_eq!(outcome.leaked_claims, 0);
}

/// Unknown tenants and front-door saturation are typed too, end to end.
#[test]
fn unknown_tenant_and_saturation_are_typed_at_the_cluster_api() {
    let keyed = keyed_circuit(64, 3);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        tenants: vec![TenantSpec::new("only", 1.0)],
        pending_capacity: 2,
        ..ClusterConfig::default()
    });
    assert!(matches!(
        cluster.submit("ghost", task(&keyed, 1), JobOptions::default()),
        Err(AdmissionError::UnknownTenant(t)) if t == "ghost"
    ));
    for _ in 0..2 {
        cluster
            .submit("only", task(&keyed, 1), JobOptions::default())
            .expect("under capacity");
    }
    assert!(matches!(
        cluster.submit("only", task(&keyed, 1), JobOptions::default()),
        Err(AdmissionError::Saturated {
            pending: 2,
            capacity: 2
        })
    ));
    let outcome = cluster.drain(Duration::from_secs(60));
    assert_eq!(outcome.stats.rejected_saturated, 1);
    assert_eq!(outcome.stats.completed, 2);
    assert_eq!(outcome.leaked_claims, 0);
}

/// The autoscaler end to end: one host and a backlog four times what it
/// is sized for. The cluster starts hosts (which warm up before taking
/// work), every proof stays byte-identical, nothing leaks, and the
/// scaling counters are reads of the registry.
#[test]
fn autoscaler_grows_the_cluster_under_backlog() {
    let keyed = keyed_circuit(64, 17);
    let registry = Arc::new(MetricsRegistry::new());
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        autoscale: Some(AutoscalePolicy {
            min_hosts: 1,
            max_hosts: 3,
            jobs_per_host: 2.0,
            ..AutoscalePolicy::default()
        }),
        service: ServiceConfig {
            metrics: Some(registry.clone()),
            ..ClusterConfig::default().service
        },
        ..ClusterConfig::default()
    });
    let ids: Vec<u64> = (0..8u64)
        .map(|seed| {
            cluster
                .submit("default", task(&keyed, seed), JobOptions::default())
                .expect("admitted")
        })
        .collect();
    let outcome = cluster.drain(Duration::from_secs(120));

    let stats = outcome.stats;
    assert!(
        stats.hosts_started >= 1,
        "a backlog of 8 at 2 per host scales up"
    );
    assert_eq!(outcome.leaked_claims, 0);
    assert_eq!(stats.completed, 8);
    for (seed, id) in ids.iter().enumerate() {
        let result = outcome
            .results
            .iter()
            .find(|r| r.id == *id)
            .expect("resolved");
        assert_eq!(
            result.outcome.as_ref().expect("proved"),
            &direct_proof(&keyed.0, &keyed.1, seed as u64)
        );
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::CLUSTER_HOSTS_STARTED),
        Some(stats.hosts_started)
    );
    assert_eq!(
        snap.counter(names::CLUSTER_HOSTS_RETIRED),
        Some(stats.hosts_retired)
    );
    assert!(outcome.hosts.len() as u64 > 1 && outcome.hosts.len() <= 3);
}

/// A test's hold on a task: the task reports in on the sender, then
/// waits on the receiver until the test lets it continue.
type Gate = (Sender<()>, Receiver<()>);

fn pass(gate: &mut Option<Gate>) {
    if let Some((reached, resume)) = gate.take() {
        reached.send(()).expect("test is waiting");
        resume.recv().expect("test lets the job continue");
    }
}

/// A persisting task made urgent (a huge modeled MSM cost, so any
/// deadline is tight) and, optionally, gated after its first POLY stage
/// and before its second MSM stage (the first after a move).
struct UrgentTask {
    inner: SystemTask<Groth16System<Bn254>>,
    gate: Option<Gate>,
    resumed_gate: Option<Gate>,
    msm_runs: u32,
}

impl UrgentTask {
    fn new(inner: SystemTask<Groth16System<Bn254>>, gate: Option<Gate>) -> Self {
        Self {
            inner,
            gate,
            resumed_gate: None,
            msm_runs: 0,
        }
    }
}

impl ProofTask for UrgentTask {
    fn key_id(&self) -> u64 {
        self.inner.key_id()
    }
    fn poly(&mut self, sink: &dyn TelemetrySink) -> Result<(), String> {
        self.inner.poly(sink)?;
        pass(&mut self.gate);
        Ok(())
    }
    fn msm(&mut self, sink: &dyn TelemetrySink) -> Result<TaskOutput, String> {
        self.msm_runs += 1;
        if self.msm_runs == 2 {
            pass(&mut self.resumed_gate);
        }
        self.inner.msm(sink)
    }
    fn bind_device(&mut self, device: &DeviceConfig) {
        self.inner.bind_device(device);
    }
    fn bind_fleet(&mut self, fleet: &Arc<FleetRuntime>, devices: &[usize], job_id: u64) -> bool {
        self.inner.bind_fleet(fleet, devices, job_id)
    }
    fn bind_domain(
        &mut self,
        store: &Arc<PreprocessStore>,
        interrupt: &Arc<AtomicBool>,
    ) -> Result<(), String> {
        self.inner.bind_domain(store, interrupt)
    }
    fn msm_cost_estimate_ns(&self) -> f64 {
        1e15
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

fn two_hosts_of_two_v100s() -> Cluster {
    Cluster::start(ClusterConfig {
        hosts: 2,
        service: ServiceConfig {
            devices: vec![v100(); 2],
            ..ClusterConfig::default().service
        },
        ..ClusterConfig::default()
    })
}

const URGENT: JobOptions = JobOptions {
    priority: gzkp_service::Priority::Normal,
    deadline: Some(Duration::from_secs(60)),
    trace: false,
};

/// Multi-device hosts: an urgent job claims every device of its host for
/// its MSMs — and only those; a merge between hosts would model a P2P
/// link that does not exist.
#[test]
fn urgent_cross_device_grant_stays_inside_one_host() {
    let keyed = keyed_circuit(128, 19);
    let mut cluster = two_hosts_of_two_v100s();
    let task = UrgentTask::new(persisting(&keyed, 5, true).0, None);
    let id = cluster.submit("default", Box::new(task), URGENT).unwrap();
    let outcome = cluster.drain(Duration::from_secs(60));

    let result = outcome.results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(
        result.outcome.as_ref().expect("proved"),
        &direct_proof(&keyed.0, &keyed.1, 5)
    );
    let jobs: Vec<u64> = outcome.fleet.devices.iter().map(|d| d.jobs).collect();
    assert!(
        jobs[0] > 0 && jobs[1] > 0,
        "host 0's two devices granted: {jobs:?}"
    );
    assert_eq!(
        &jobs[2..],
        &[0, 0],
        "no grant crosses into host 1: {jobs:?}"
    );
}

/// Killing a multi-device host mid-proof moves the job to the other host,
/// where it resumes from its checkpoint — across that host's devices —
/// and still proves the uninterrupted bytes.
#[test]
fn killing_a_multi_device_host_mid_proof_resumes_on_the_other() {
    let keyed = keyed_circuit(128, 23);
    let mut cluster = two_hosts_of_two_v100s();
    let (reached_tx, reached) = channel();
    let (resume, resume_rx) = channel();
    let task = UrgentTask::new(persisting(&keyed, 9, true).0, Some((reached_tx, resume_rx)));
    let id = cluster.submit("default", Box::new(task), URGENT).unwrap();
    cluster.pump();
    reached
        .recv_timeout(Duration::from_secs(60))
        .expect("POLY ran and persisted its checkpoint");
    let host = cluster.job_host(id).expect("placed");
    cluster.kill_host(host);
    resume.send(()).unwrap();
    let outcome = cluster.drain(Duration::from_secs(60));

    let result = outcome.results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(
        result.outcome.as_ref().expect("resumed and proved"),
        &direct_proof(&keyed.0, &keyed.1, 9)
    );
    assert_eq!((result.resumes, outcome.stats.resumes), (1, 1));
    let survivor = 1 - host;
    assert_eq!(outcome.hosts[host].failed, 1);
    assert_eq!(outcome.hosts[survivor].completed, 1);
    let devices = &outcome.fleet.devices[2 * survivor..2 * survivor + 2];
    assert!(
        devices.iter().all(|d| d.jobs > 0),
        "the resumed MSMs ran across the survivor's devices"
    );
    assert_eq!(outcome.leaked_claims, 0);
}

/// A move off a killed host counts when the cluster sees it, not when the
/// moved job resolves: while the job still runs on the survivor, the dead
/// host's `host.failed` series and the cluster's resumes already show it.
#[test]
fn a_move_off_a_killed_host_counts_while_the_job_still_runs() {
    let keyed = keyed_circuit(64, 29);
    let registry = Arc::new(MetricsRegistry::new());
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        service: ServiceConfig {
            metrics: Some(registry.clone()),
            ..ClusterConfig::default().service
        },
        ..ClusterConfig::default()
    });
    let (poly_tx, poly_reached) = channel();
    let (poly_resume, poly_rx) = channel();
    let (moved_tx, moved) = channel();
    let (release, moved_rx) = channel();
    let mut task = UrgentTask::new(persisting(&keyed, 3, true).0, Some((poly_tx, poly_rx)));
    task.resumed_gate = Some((moved_tx, moved_rx));
    let id = cluster
        .submit("default", Box::new(task), JobOptions::default())
        .unwrap();
    cluster.pump();
    poly_reached
        .recv_timeout(Duration::from_secs(60))
        .expect("POLY ran and persisted its checkpoint");
    let host = cluster.job_host(id).expect("placed");
    cluster.kill_host(host);
    poly_resume.send(()).unwrap();
    moved
        .recv_timeout(Duration::from_secs(60))
        .expect("the job moved and reached its MSM stage on the survivor");
    cluster.pump();

    let survivor = 1 - host;
    assert_eq!(cluster.job_host(id), Some(survivor), "the job still runs");
    assert_eq!(cluster.stats().resumes, 1);
    let failed_on = |h: usize| {
        let label = format!("h{h}");
        registry
            .snapshot()
            .counter_labeled(names::HOST_FAILED, names::LABEL_HOST, &label)
    };
    assert_eq!(failed_on(host), Some(1), "the dead host counts the move");
    assert_eq!(failed_on(survivor), Some(0));

    release.send(()).unwrap();
    let outcome = cluster.drain(Duration::from_secs(60));
    let result = outcome.results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(
        result.outcome.as_ref().expect("resumed and proved"),
        &direct_proof(&keyed.0, &keyed.1, 3)
    );
    assert_eq!((result.resumes, outcome.stats.resumes), (1, 1));
    assert_eq!(outcome.hosts[host].failed, 1, "counted once");
    assert_eq!(outcome.hosts[survivor].completed, 1);
    assert_eq!(outcome.leaked_claims, 0);
}
