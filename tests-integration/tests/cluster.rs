//! Cluster suite: multi-host sharding with checkpointed resume and an
//! admission-control front door.
//!
//! The contract under test (ISSUE 8's acceptance bar): killing a host
//! mid-proof loses zero jobs — interrupted work resumes from its
//! persisted checkpoint on a surviving host and the final proofs are
//! byte-identical to uninterrupted runs — and the front door's
//! weighted fair queuing and per-tenant rate limits hold under
//! saturation without starving anyone.

use gzkp_cluster::{
    system_factory, AdmissionError, Cluster, ClusterConfig, ClusterJobOptions, HostConfig,
    TenantSpec,
};
use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_gpu_sim::v100;
use gzkp_groth16::{
    proof_to_bytes,
    prove::{prove, ProverEngines},
    setup, ConstraintSystem, Groth16System, MsmSteps, ProofCheckpoint, ProvingKey, VerifyingKey,
};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::GzkpNtt;
use gzkp_telemetry::{names, MetricsRegistry};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// ISSUE 8's headline scenario: two hosts, several jobs in flight, one
/// host killed once a job on it has a persisted mid-proof checkpoint.
/// Every job must still complete, every proof byte-identical to the
/// uninterrupted ground truth, and no host claim may leak.
#[test]
fn host_kill_mid_proof_loses_no_jobs_and_proofs_are_byte_identical() {
    let (cs, pk, vk) = keyed_circuit(192, 11);
    let jobs = 6usize;
    let expected: Vec<Vec<u8>> = (0..jobs)
        .map(|i| direct_proof(&cs, &pk, 100 + i as u64))
        .collect();

    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        host: HostConfig {
            queue_capacity: 2,
            ..HostConfig::default()
        },
        tenants: vec![TenantSpec::new("zcash", 1.0)],
        ..ClusterConfig::default()
    });
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            cluster
                .submit(
                    "zcash",
                    system_factory::<Groth16System<Bn254>>(
                        cs.clone(),
                        pk.clone(),
                        Some(vk.clone()),
                        100 + i as u64,
                    ),
                    ClusterJobOptions::default(),
                )
                .expect("admitted")
        })
        .collect();

    // Pump until some open job has persisted a checkpoint (POLY done, or
    // partway through the MSMs), then kill the host it runs on. The slot
    // is cleared on completion, so Some(bytes) means mid-proof.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed_host = None;
    while killed_host.is_none() {
        assert!(Instant::now() < deadline, "no checkpoint observed in 60s");
        cluster.pump();
        for &id in &ids {
            let (Some(bytes), Some(host)) = (cluster.job_checkpoint(id), cluster.job_host(id))
            else {
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
    let (cs, pk, vk) = keyed_circuit(128, 13);
    let registry = Arc::new(MetricsRegistry::new());
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 2,
        tenants: vec![TenantSpec::new("zcash", 1.0)],
        metrics: Some(registry.clone()),
        ..ClusterConfig::default()
    });
    let id = cluster
        .submit(
            "zcash",
            system_factory::<Groth16System<Bn254>>(cs, pk, Some(vk), 7),
            ClusterJobOptions::default(),
        )
        .expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cluster.job_host(id).is_none() {
        assert!(Instant::now() < deadline, "job never placed");
        cluster.pump();
    }
    // The slot fills after POLY and clears once the proof is done; with
    // no further pump the finished job stays unharvested on its host.
    let mut persisted = false;
    loop {
        assert!(Instant::now() < deadline, "proof never finished");
        match cluster.job_checkpoint(id) {
            Some(_) => persisted = true,
            None if persisted => break,
            None => {}
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

/// Fair share through the full stack: one single-device host, two
/// tenants at 3:1 weights, both backlogged. The early completions must
/// split close to 3:1.
#[test]
fn weighted_tenants_complete_in_fair_ratio_under_saturation() {
    let (cs, pk, _vk) = keyed_circuit(64, 5);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        host: HostConfig {
            queue_capacity: 1,
            ..HostConfig::default()
        },
        tenants: vec![TenantSpec::new("heavy", 3.0), TenantSpec::new("light", 1.0)],
        pending_capacity: 128,
        ..ClusterConfig::default()
    });
    for i in 0..24u64 {
        for tenant in ["heavy", "light"] {
            cluster
                .submit(
                    tenant,
                    system_factory::<Groth16System<Bn254>>(cs.clone(), pk.clone(), None, i),
                    ClusterJobOptions::default(),
                )
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
    let (cs, pk, _vk) = keyed_circuit(64, 7);
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
        match cluster.submit_at(
            "metered",
            system_factory::<Groth16System<Bn254>>(cs.clone(), pk.clone(), None, i),
            ClusterJobOptions::default(),
            now,
        ) {
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
                system_factory::<Groth16System<Bn254>>(cs.clone(), pk.clone(), None, 50 + i),
                ClusterJobOptions::default(),
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

/// Unknown tenants and front-door saturation are typed too, end to end.
#[test]
fn unknown_tenant_and_saturation_are_typed_at_the_cluster_api() {
    let (cs, pk, _vk) = keyed_circuit(64, 3);
    let mut cluster = Cluster::start(ClusterConfig {
        hosts: 1,
        tenants: vec![TenantSpec::new("only", 1.0)],
        pending_capacity: 2,
        ..ClusterConfig::default()
    });
    let factory = || system_factory::<Groth16System<Bn254>>(cs.clone(), pk.clone(), None, 1);
    assert!(matches!(
        cluster.submit("ghost", factory(), ClusterJobOptions::default()),
        Err(AdmissionError::UnknownTenant(t)) if t == "ghost"
    ));
    for _ in 0..2 {
        cluster
            .submit("only", factory(), ClusterJobOptions::default())
            .expect("under capacity");
    }
    assert!(matches!(
        cluster.submit("only", factory(), ClusterJobOptions::default()),
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
