//! Live-observability integration: the metrics registry the service
//! publishes into must agree with the per-job traces and lifetime stats,
//! metrics must never perturb proof bytes, and the flame export must
//! cover a real prover trace.

use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_gpu_sim::v100;
use gzkp_groth16::{setup, Groth16System};
use gzkp_service::{
    prepare, run_sequential, run_service, JobOptions, ProvingService, ServiceConfig, SystemTask,
};
use gzkp_telemetry::{counters, folded_stacks, MetricsRegistry, MetricsSnapshot, Trace};
use gzkp_workloads::requests::{
    RequestCurve, RequestPriority, RequestSpec, RequestSystem, RequestWorkload,
};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs `jobs` traced proofs through a metrics-armed service and returns
/// the final snapshot, the per-job traces, and the lifetime stats.
fn run_traced_jobs(jobs: usize) -> (MetricsSnapshot, Vec<Trace>, gzkp_service::ServiceStats) {
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

#[test]
fn metrics_snapshot_is_consistent_with_job_traces_and_stats() {
    let jobs = 4;
    let (snapshot, traces, stats) = run_traced_jobs(jobs);

    // Counters agree with the service's own lifetime stats.
    assert_eq!(
        snapshot.counter(counters::SERVICE_ACCEPTED),
        Some(stats.accepted)
    );
    assert_eq!(
        snapshot.counter(counters::SERVICE_COMPLETED),
        Some(stats.completed)
    );
    assert_eq!(stats.completed, jobs as u64);
    assert_eq!(snapshot.counter_total(counters::SERVICE_FAILED), 0);
    assert_eq!(snapshot.counter_total(counters::SERVICE_DEADLINE_MISSED), 0);

    // Every job recorded exactly one queue wait and one end-to-end
    // latency, and the registry's queue-wait total is the exact sum of
    // the waits each per-job trace carries (both sides record the same
    // `Duration::as_nanos` value).
    let queue_wait = snapshot
        .histogram(counters::SERVICE_QUEUE_WAIT_NS)
        .expect("queue-wait histogram registered");
    assert_eq!(queue_wait.count, jobs as u64);
    let traced_wait: u64 = traces
        .iter()
        .map(|t| {
            t.root
                .counter(counters::SERVICE_QUEUE_WAIT_NS)
                .expect("trace carries queue wait") as u64
        })
        .sum();
    assert_eq!(queue_wait.sum, traced_wait);
    let latency = snapshot
        .histogram(counters::SERVICE_JOB_LATENCY_NS)
        .expect("job-latency histogram registered");
    assert_eq!(latency.count, jobs as u64);
    assert!(latency.sum >= queue_wait.sum, "latency includes queue wait");

    // Both stages recorded one wall-time sample per job.
    for stage in [counters::SPAN_POLY, counters::SPAN_MSM] {
        let h = snapshot
            .histogram_labeled(counters::STAGE_LATENCY_NS, "stage", stage)
            .unwrap_or_else(|| panic!("stage histogram for {stage}"));
        assert_eq!(h.count, jobs as u64, "one {stage} sample per job");
    }

    // The queue drained, and each trace still carries the service spans
    // the snapshot summarizes.
    assert_eq!(snapshot.gauge(counters::SERVICE_QUEUE_DEPTH), Some(0.0));
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
    let prepared = prepare(&tiny_workload(), &device);
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
    assert_eq!(snapshot.counter(counters::SERVICE_COMPLETED), Some(3));
    // Fleet mode registered per-device series for every device.
    let devices = snapshot.label_values("device");
    assert_eq!(devices, vec!["dev0".to_string(), "dev1".to_string()]);
    let staged: u64 = devices
        .iter()
        .filter_map(|d| snapshot.counter_labeled(counters::DEVICE_STAGES, "device", d))
        .sum();
    assert_eq!(staged, 6, "two stages per job across the fleet");
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
