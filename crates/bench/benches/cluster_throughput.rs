//! Cluster-scale throughput benchmark: the same request stream replayed
//! through `gzkp_cluster::Cluster` at 1, 2, 4, and 8 simulated hosts —
//! the scaling number ISSUE 8's CI regression gate diffs.
//!
//! As with `fleet_throughput`, the gated number is *simulated*: hosts
//! run in parallel in the deployment being modeled, so the cluster
//! makespan is the maximum over the fleet's devices (hence over hosts)
//! of their simulated completion times. Host wall-clock cannot express that parallelism
//! (every simulated host burns the same CPU cores), and the simulated
//! number is machine-independent. With equal-cost jobs and least-loaded
//! placement the makespan must scale near-linearly in host count — the
//! run asserts ≥1.5x at 2 hosts, ≥2.6x at 4, and ≥4.0x at 8 — and every
//! cluster proof must be byte-identical to the sequential baseline's:
//! sharding jobs across hosts may move work, never change it.
//!
//! Modes: `GZKP_BENCH_SMOKE=1` replays 16 jobs; the default and
//! `GZKP_BENCH_FULL=1` scale the job count up.

use gzkp_bench::{speedup, Recorder};
use gzkp_cluster::{Cluster, ClusterConfig};
use gzkp_gpu_sim::device::v100;
use gzkp_service::{prepare, run_sequential, JobOptions, PreparedWorkload};
use gzkp_workloads::requests::{
    RequestCurve, RequestPriority, RequestSpec, RequestSystem, RequestWorkload,
};
use std::sync::Arc;
use std::time::Duration;

/// Equal-cost BN254 jobs, so least-loaded placement balances perfectly
/// and the scaling number measures the cluster layer, not job skew.
fn cluster_workload(count: usize) -> RequestWorkload {
    RequestWorkload {
        seed: 42,
        requests: vec![RequestSpec {
            curve: RequestCurve::Bn254,
            system: RequestSystem::Groth16,
            constraints: 256,
            count,
            priority: RequestPriority::Normal,
            deadline_ms: None,
        }],
    }
}

/// Replays every prepared request through an `hosts`-host cluster and
/// returns (simulated makespan ns, proofs in request order).
fn run_cluster(prepared: &Arc<PreparedWorkload>, hosts: usize) -> (f64, Vec<Vec<u8>>) {
    let mut cluster = Cluster::start(ClusterConfig {
        hosts,
        pending_capacity: prepared.len().max(256),
        ..ClusterConfig::default()
    });
    let ids: Vec<u64> = (0..prepared.len())
        .map(|i| {
            cluster
                .submit(
                    "default",
                    prepared.checkpoint_task(i, &v100(), false),
                    JobOptions::default(),
                )
                .expect("admitted")
        })
        .collect();
    let outcome = cluster.drain(Duration::from_secs(600));
    assert_eq!(outcome.stats.failed, 0, "{hosts}-host cluster failed jobs");
    assert_eq!(
        outcome.leaked_claims, 0,
        "{hosts}-host cluster leaked claims"
    );
    let proofs = ids
        .iter()
        .map(|id| {
            outcome
                .results
                .iter()
                .find(|r| r.id == *id)
                .expect("every job resolves")
                .outcome
                .clone()
                .expect("job completed")
        })
        .collect();
    (outcome.fleet.elapsed_ns, proofs)
}

fn main() {
    let smoke = std::env::var("GZKP_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let jobs = if smoke {
        16
    } else if gzkp_bench::full_mode() {
        64
    } else {
        32
    };

    // One thread per prove: a host worker is a device-sized slot.
    std::env::set_var("GZKP_THREADS", "1");

    let device = v100();
    let workload = cluster_workload(jobs);
    let prepared = Arc::new(prepare(&workload));

    let mut rec = Recorder::new("cluster_throughput");

    // --- Baseline: prove every request in arrival order. ---
    let sequential = run_sequential(&prepared, &device);

    // --- The cluster at 1/2/4/8 hosts. ---
    let host_counts = [1usize, 2, 4, 8];
    let mut makespans = Vec::new();
    for &hosts in &host_counts {
        let (makespan_ns, proofs) = run_cluster(&prepared, hosts);
        for (i, (cluster_proof, baseline)) in proofs.iter().zip(&sequential.proofs).enumerate() {
            assert_eq!(
                Some(cluster_proof),
                baseline.as_ref(),
                "request {i}: {hosts}-host cluster proof diverged from sequential baseline"
            );
        }
        makespans.push(makespan_ns);
    }
    std::env::remove_var("GZKP_THREADS");

    rec.row(
        "sim-makespan",
        "ms",
        host_counts
            .iter()
            .zip(&makespans)
            .map(|(h, ns)| (format!("{h}-host"), ns / 1e6))
            .collect(),
    );

    let sim_rate = |elapsed_ns: f64| jobs as f64 / (elapsed_ns / 1e9);
    let floors = [1.0, 1.5, 2.6, 4.0];
    for ((&hosts, &makespan), &floor) in host_counts.iter().zip(&makespans).zip(&floors) {
        let scaling = speedup(makespans[0], makespan);
        println!(
            "cluster scaling (simulated): {hosts} host(s) {:.1} proofs/s ({scaling:.2}x vs 1 host)",
            sim_rate(makespan)
        );
        assert!(
            scaling >= floor,
            "{hosts} hosts must give >={floor:.1}x simulated throughput over 1 (got {scaling:.2}x)"
        );
    }

    // Machine-independent gate rows: fraction of the 1-host simulated
    // makespan each wider cluster needs (lower is better; a rise is a
    // regression in cluster-level scaling).
    rec.row(
        "gate",
        "ratio",
        host_counts[1..]
            .iter()
            .zip(&makespans[1..])
            .map(|(h, ns)| (format!("{h}host-vs-1host"), ns / makespans[0]))
            .collect(),
    );
    rec.finish();
}
