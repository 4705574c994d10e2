//! Live-observability integration: the metrics registry the service
//! publishes into must agree with the per-job traces and lifetime stats,
//! metrics must never perturb proof bytes, and the flame export must
//! cover a real prover trace.

use gzkp_cluster::{Cluster, ClusterConfig, ClusterOutcome};
use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_gpu_sim::{v100, FaultPlan, FaultRates};
use gzkp_groth16::{setup, Groth16System};
use gzkp_runtime::FleetUtilization;
use gzkp_service::{
    prepare, run_sequential, run_service, JobOptions, ProvingService, RetryPolicy, ServiceConfig,
    ServiceStats, SystemTask,
};
use gzkp_telemetry::{folded_stacks, names, MetricsRegistry, MetricsSnapshot, Trace};
use gzkp_workloads::requests::{
    RequestCurve, RequestPriority, RequestSpec, RequestSystem, RequestWorkload,
};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Runs `jobs` traced proofs through a metrics-armed service and returns
/// the final snapshot, the per-job traces, and the lifetime stats.
fn run_traced_jobs(jobs: usize) -> (MetricsSnapshot, Vec<Trace>, ServiceStats) {
    let mut rng = StdRng::seed_from_u64(17);
    let cs = Arc::new(synthetic_circuit::<Fr, _>(64, &mut rng));
    let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
    let pk = Arc::new(pk);

    let registry = Arc::new(MetricsRegistry::new());
    let cfg = ServiceConfig {
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    };
    let service = ProvingService::start(cfg);
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let task = SystemTask::<Groth16System<Bn254>>::new(
                cs.clone(),
                pk.clone(),
                v100(),
                Some(service.store()),
                i as u64,
            );
            service
                .submit(
                    Box::new(task),
                    JobOptions {
                        trace: true,
                        ..JobOptions::default()
                    },
                )
                .unwrap()
        })
        .collect();
    let traces: Vec<Trace> = handles
        .into_iter()
        .map(|h| {
            let result = h.wait();
            result.outcome.expect("job completes");
            result.trace.expect("trace requested")
        })
        .collect();
    let stats = service.shutdown();
    (registry.snapshot(), traces, stats)
}

/// The trace half of the observability contract; the counter half —
/// snapshot counters equal to the stats — is structural now and checked
/// for every layer by `every_layer_counts_each_event_once_in_its_registry`.
#[test]
fn metrics_snapshot_is_consistent_with_job_traces_and_stats() {
    let jobs = 4;
    let (snapshot, traces, stats) = run_traced_jobs(jobs);
    assert_eq!(stats.completed, jobs as u64);

    // Every job recorded exactly one queue wait and one end-to-end
    // latency, and the registry's queue-wait total is the exact sum of
    // the waits each per-job trace carries (both sides record the same
    // `Duration::as_nanos` value).
    let queue_wait = snapshot
        .histogram(names::SERVICE_QUEUE_WAIT_NS)
        .expect("queue-wait histogram registered");
    assert_eq!(queue_wait.count, jobs as u64);
    let traced_wait: u64 = traces
        .iter()
        .map(|t| {
            t.root
                .counter(names::SERVICE_QUEUE_WAIT_NS)
                .expect("trace carries queue wait") as u64
        })
        .sum();
    assert_eq!(queue_wait.sum, traced_wait);
    let latency = snapshot
        .histogram(names::SERVICE_JOB_LATENCY_NS)
        .expect("job-latency histogram registered");
    assert_eq!(latency.count, jobs as u64);
    assert!(latency.sum >= queue_wait.sum, "latency includes queue wait");

    // Both stages recorded one wall-time sample per job.
    for stage in [names::SPAN_POLY, names::SPAN_MSM] {
        let label = Some(("stage".to_string(), stage.to_string()));
        let h = (snapshot.histograms.iter())
            .find(|h| h.name == names::STAGE_LATENCY_NS && h.label == label)
            .unwrap_or_else(|| panic!("stage histogram for {stage}"));
        assert_eq!(h.count, jobs as u64, "one {stage} sample per job");
    }

    // The queue drained, and each trace still carries the service spans
    // the snapshot summarizes.
    assert_eq!(snapshot.gauge(names::SERVICE_QUEUE_DEPTH), Some(0.0));
    for trace in &traces {
        assert!(trace.find(&["service", "queue_wait"]).is_some());
        assert!(trace.find(&["service", "execute", "poly"]).is_some());
        assert!(trace.find(&["service", "execute", "msm"]).is_some());
    }

    // The snapshot survives its own JSON round trip byte-exactly.
    let restored = MetricsSnapshot::from_json(&snapshot.to_json()).expect("round trip");
    assert_eq!(restored.to_json(), snapshot.to_json());
}

fn tiny_workload() -> RequestWorkload {
    RequestWorkload {
        seed: 9,
        requests: vec![RequestSpec {
            curve: RequestCurve::Bn254,
            system: RequestSystem::Groth16,
            constraints: 64,
            count: 3,
            priority: RequestPriority::Normal,
            deadline_ms: None,
        }],
    }
}

#[test]
fn proofs_are_byte_identical_with_metrics_on_and_off() {
    let device = v100();
    let prepared = prepare(&tiny_workload());
    let fleet_cfg = || ServiceConfig {
        devices: gzkp_runtime::parse_devices("2").unwrap(),
        ..ServiceConfig::default()
    };

    let plain = run_service(&prepared, fleet_cfg(), &device);

    let registry = Arc::new(MetricsRegistry::new());
    let mut cfg = fleet_cfg();
    cfg.metrics = Some(registry.clone());
    let observed = run_service(&prepared, cfg, &device);

    assert_eq!(
        plain.proofs, observed.proofs,
        "metrics must not perturb proof bytes"
    );
    // Nor does the service: same bytes as proving in a loop, and the
    // default queue and deadline absorb the whole stream either way.
    assert_eq!(run_sequential(&prepared, &device).proofs, plain.proofs);
    for outcome in [&plain, &observed] {
        let dropped = outcome.rejected + outcome.deadline_missed + outcome.failed;
        assert_eq!(dropped, 0, "rejected, missed or failed requests");
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter(names::SERVICE_COMPLETED), Some(3));
    // The fleet registered per-device series for every device.
    let devices = snapshot.label_values("device");
    assert_eq!(devices, vec!["dev0".to_string(), "dev1".to_string()]);
    let staged: u64 = devices
        .iter()
        .filter_map(|d| snapshot.counter_labeled(names::DEVICE_STAGES, "device", d))
        .sum();
    assert_eq!(staged, 6, "two stages per job across the fleet");
}

/// One counted field of a layer's report: its value, the registry
/// series it reads (summed over labels — zero when absent, like a
/// fault-free fleet's quarantines — unless `label` pins one), and
/// whether it is a pure function of the run's seeds. Placement races —
/// dead-device hits and the retries, quarantines and CPU fallbacks they
/// cause — are not.
struct Row {
    field: String,
    value: u64,
    series: &'static str,
    label: Option<(&'static str, String)>,
    seeded: bool,
}

fn row(field: &str, value: u64, series: &'static str, seeded: bool) -> Row {
    Row {
        field: field.to_string(),
        value,
        series,
        label: None,
        seeded,
    }
}

fn service_rows(s: &ServiceStats, racy: bool) -> Vec<Row> {
    vec![
        row("accepted", s.accepted, names::SERVICE_ACCEPTED, true),
        row("rejected", s.rejected, names::SERVICE_REJECTED, true),
        row("completed", s.completed, names::SERVICE_COMPLETED, true),
        row(
            "deadline_missed",
            s.deadline_missed,
            names::SERVICE_DEADLINE_MISSED,
            true,
        ),
        row("cancelled", s.cancelled, names::SERVICE_CANCELLED, true),
        row("drained", s.drained, names::SERVICE_DRAINED, true),
        row("failed", s.failed, names::SERVICE_FAILED, true),
        row("retries", s.retries, names::SERVICE_RETRIES, !racy),
        row(
            "faults_injected",
            s.faults_injected,
            names::FAULT_INJECTED,
            true,
        ),
        row(
            "verify_rejects",
            s.verify_rejects,
            names::VERIFY_REJECTS,
            true,
        ),
        row("verify_votes", s.verify_votes, names::VERIFY_VOTES, true),
        row(
            "quarantines",
            s.quarantines,
            names::QUARANTINE_EVENTS,
            !racy,
        ),
        row(
            "cpu_fallbacks",
            s.cpu_fallbacks,
            names::SERVICE_CPU_FALLBACKS,
            !racy,
        ),
    ]
}

fn device_rows(fleet: &FleetUtilization) -> Vec<Row> {
    let mut rows = Vec::new();
    for d in &fleet.devices {
        let dev = format!("dev{}", d.index);
        rows.push(Row {
            field: format!("{dev}.shards"),
            label: Some(("device", dev.clone())),
            ..row("shards", d.shards, names::RUNTIME_SHARDS, false)
        });
    }
    rows
}

fn cluster_rows(o: &ClusterOutcome) -> Vec<Row> {
    let s = &o.stats;
    let mut rows = vec![
        row("admitted", s.admitted, names::CLUSTER_ADMITTED, true),
        row(
            "rejected_rate_limited",
            s.rejected_rate_limited,
            names::CLUSTER_REJECTED_RATE,
            true,
        ),
        row(
            "rejected_saturated",
            s.rejected_saturated,
            names::CLUSTER_REJECTED_SATURATED,
            true,
        ),
        row("completed", s.completed, names::CLUSTER_COMPLETED, true),
        row("failed", s.failed, names::CLUSTER_FAILED, true),
        row(
            "deadline_missed",
            s.deadline_missed,
            names::CLUSTER_DEADLINE_MISSED,
            true,
        ),
        row("resumes", s.resumes, names::CLUSTER_RESUMES, true),
        row("host_kills", s.host_kills, names::CLUSTER_HOST_KILLS, true),
        row(
            "hosts_started",
            s.hosts_started,
            names::CLUSTER_HOSTS_STARTED,
            true,
        ),
        row(
            "hosts_retired",
            s.hosts_retired,
            names::CLUSTER_HOSTS_RETIRED,
            true,
        ),
    ];
    // Quarantine is counted per device of the cluster's one fleet.
    for d in &o.fleet.devices {
        let dev = format!("dev{}", d.index);
        rows.push(Row {
            field: format!("{dev}.quarantines"),
            label: Some(("device", dev.clone())),
            ..row("quarantines", d.quarantines, names::QUARANTINE_EVENTS, true)
        });
    }
    for h in &o.hosts {
        let host = format!("h{}", h.id);
        for (field, value, series) in [
            ("completed", h.completed, names::HOST_COMPLETED),
            ("failed", h.failed, names::HOST_FAILED),
        ] {
            rows.push(Row {
                field: format!("{host}.{field}"),
                label: Some((names::LABEL_HOST, host.clone())),
                ..row(field, value, series, true)
            });
        }
    }
    rows
}

/// Runs one layer twice — counting into a private registry, then into
/// the caller's — and checks every row: seeded rows agree across the two
/// runs, and every row of the second run is exactly its registry series.
/// Returns the second run's rows by field name.
fn check_layer(
    layer: &str,
    run: impl Fn(Option<Arc<MetricsRegistry>>) -> Vec<Row>,
) -> BTreeMap<String, u64> {
    let private = run(None);
    let registry = Arc::new(MetricsRegistry::new());
    let external = run(Some(registry.clone()));
    let snapshot = registry.snapshot();
    assert_eq!(private.len(), external.len(), "{layer}: row sets differ");
    for (p, e) in private.iter().zip(&external) {
        assert_eq!(p.field, e.field, "{layer}: row order differs");
        if e.seeded {
            assert_eq!(
                p.value, e.value,
                "{layer}: {} differs between a private and an external registry",
                e.field
            );
        }
        let counted = match &e.label {
            Some((key, value)) => snapshot.counter_labeled(e.series, key, value),
            None => Some(snapshot.counter_total(e.series)),
        };
        assert_eq!(
            counted,
            Some(e.value),
            "{layer}: {} is not a read of `{}`",
            e.field,
            e.series
        );
    }
    external.into_iter().map(|r| (r.field, r.value)).collect()
}

#[test]
fn every_layer_counts_each_event_once_in_its_registry() {
    let device = v100();

    // The service on its default fleet (`workers` V100s), fault-free.
    let prepared = prepare(&tiny_workload());
    let plain = check_layer("service", |metrics| {
        let cfg = ServiceConfig {
            metrics,
            ..ServiceConfig::default()
        };
        let outcome = run_service(&prepared, cfg, &device);
        let mut rows = service_rows(&outcome.stats.unwrap(), false);
        rows.extend(device_rows(&outcome.fleet.unwrap()));
        rows
    });
    assert_eq!(plain["completed"], prepared.len() as u64);
    assert_eq!(plain["accepted"], prepared.len() as u64);
    assert_eq!(plain["failed"] + plain["deadline_missed"], 0);

    // A two-device fleet under `--chaos`-style faults with one dead
    // device: retries, faults and verification votes all move.
    let chaos = check_layer("fleet service", |metrics| {
        let cfg = ServiceConfig {
            devices: gzkp_runtime::parse_devices("2").unwrap(),
            chaos: Some(FaultPlan {
                seed: 5,
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
            default_deadline: None,
            metrics,
            ..ServiceConfig::default()
        };
        let outcome = run_service(&prepared, cfg, &device);
        let mut rows = service_rows(&outcome.stats.unwrap(), true);
        rows.extend(device_rows(&outcome.fleet.unwrap()));
        rows
    });
    assert_eq!(chaos["completed"], prepared.len() as u64);
    for field in ["retries", "faults_injected", "verify_votes"] {
        assert!(chaos[field] > 0, "the chaos run never moved {field}");
    }

    // A two-host cluster with one host killed right after dispatch: the
    // interrupted job fails on the dead host and resumes on the other.
    // The kill is the run's only fault, so the move is one resume and no
    // retry.
    let mut rng = StdRng::seed_from_u64(23);
    let cs = Arc::new(synthetic_circuit::<Fr, _>(64, &mut rng));
    let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
    let (pk, vk) = (Arc::new(pk), Arc::new(vk));
    let cluster = check_layer("cluster", |metrics| {
        let mut cluster = Cluster::start(ClusterConfig {
            hosts: 2,
            service: ServiceConfig {
                metrics,
                ..ClusterConfig::default().service
            },
            ..ClusterConfig::default()
        });
        let ids: Vec<u64> = (0..2)
            .map(|seed| {
                let task = SystemTask::<Groth16System<Bn254>>::persisting(
                    cs.clone(),
                    pk.clone(),
                    v100(),
                    seed,
                    Default::default(),
                )
                .with_verifying_key(vk.clone());
                cluster
                    .submit("default", Box::new(task), JobOptions::default())
                    .unwrap()
            })
            .collect();
        cluster.pump();
        let host = cluster
            .job_host(ids[0])
            .expect("dispatched on the first pump");
        cluster.kill_host(host);
        let outcome = cluster.drain(Duration::from_secs(120));
        let mut rows = cluster_rows(&outcome);
        let s = &outcome.service;
        rows.push(row(
            "service.retries",
            s.retries,
            names::SERVICE_RETRIES,
            true,
        ));
        rows.push(row(
            "service.faults_injected",
            s.faults_injected,
            names::FAULT_INJECTED,
            true,
        ));
        rows
    });
    assert_eq!(cluster["completed"], 2);
    assert_eq!(cluster["resumes"], 1);
    assert_eq!(cluster["h0.failed"] + cluster["h1.failed"], 1);
    assert_eq!(
        (
            cluster["service.retries"],
            cluster["service.faults_injected"]
        ),
        (0, 0),
        "a move is a resume, not a retry"
    );
}

#[test]
fn flame_export_covers_the_prover_trace() {
    let (_, traces, _) = run_traced_jobs(1);
    let trace = &traces[0];
    let folded = folded_stacks(trace);
    assert!(!folded.is_empty());

    let mut total = 0u64;
    let mut saw_prover_stack = false;
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` lines");
        assert!(
            !stack.is_empty() && stack.split(';').all(|f| !f.is_empty()),
            "well-formed stack: {line}"
        );
        total += count.parse::<u64>().expect("integer self-time");
        if stack.starts_with("service;execute;msm") {
            saw_prover_stack = true;
        }
    }
    assert!(
        saw_prover_stack,
        "prover frames reachable from service root:\n{folded}"
    );

    // Self times sum back to the root span's total (each stack rounds
    // independently, so allow one nanosecond of slack per line).
    let root_ns = trace.find(&["service"]).expect("service span").time_ns;
    let lines = folded.lines().count() as f64;
    assert!(
        (total as f64 - root_ns).abs() <= lines.max(1.0),
        "folded self times ({total}) must sum to the service span ({root_ns})"
    );
}
