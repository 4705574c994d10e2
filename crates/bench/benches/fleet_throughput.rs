//! Device-fleet throughput benchmark: the single-curve request stream of
//! `RequestWorkload::fleet_example()` replayed through the proving
//! service at one versus two simulated V100s — the scaling number the CI
//! regression gate diffs.
//!
//! Every recorded row is on the simulated clock. The scaling number the
//! gate diffs is the fleet's *simulated* makespan — the completion time
//! of the last command-stream operation across all device timelines —
//! which is the number the paper reports and is machine-independent.
//! Host wall-clock is not recorded here (that clock is `benchmark/`'s),
//! and it could not express device parallelism anyway: every simulated
//! "device" burns the same host cores, so a one-core CI runner would
//! show 2 devices as *slower* than 1. Going from one to two V100s must
//! scale the simulated throughput with device count (the run asserts
//! ≥1.3x), and both fleets must produce proofs byte-identical to the
//! sequential baseline — placement may move work, never change it.
//!
//! Modes: `GZKP_BENCH_SMOKE=1` replays the example workload once; the
//! default and `GZKP_BENCH_FULL=1` scale up the per-class counts.

use gzkp_bench::{speedup, Recorder};
use gzkp_gpu_sim::device::v100;
use gzkp_runtime::parse_devices;
use gzkp_service::{prepare, run_sequential, run_service, ReplayOutcome, ServiceConfig};
use gzkp_workloads::requests::RequestWorkload;

fn scaled_fleet_workload(count_scale: usize) -> RequestWorkload {
    let mut workload = RequestWorkload::fleet_example();
    for spec in &mut workload.requests {
        spec.count *= count_scale;
    }
    workload
}

fn fleet_cfg(spec: &str) -> ServiceConfig {
    ServiceConfig {
        devices: parse_devices(spec).expect("device spec"),
        // All-up-front submission: disable deadlines so queue depth never
        // converts into spurious misses on a slow runner.
        default_deadline: None,
        ..ServiceConfig::default()
    }
}

fn assert_clean(label: &str, outcome: &ReplayOutcome) {
    assert_eq!(outcome.rejected, 0, "{label}: rejected requests");
    assert_eq!(outcome.deadline_missed, 0, "{label}: deadline misses");
    assert_eq!(outcome.failed, 0, "{label}: failed requests");
}

fn main() {
    let smoke = std::env::var("GZKP_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let count_scale = if smoke {
        1
    } else if gzkp_bench::full_mode() {
        4
    } else {
        2
    };

    // One thread per prove: a worker is a device-sized execution slot.
    std::env::set_var("GZKP_THREADS", "1");

    let device = v100();
    let workload = scaled_fleet_workload(count_scale);
    let prepared = prepare(&workload);

    let mut rec = Recorder::new("fleet_throughput");

    // --- Baseline: prove every request in arrival order. ---
    let sequential = run_sequential(&prepared, &device);

    // --- The service on one and two simulated V100s. ---
    let one = run_service(&prepared, fleet_cfg("1"), &device);
    let two = run_service(&prepared, fleet_cfg("2"), &device);
    std::env::remove_var("GZKP_THREADS");

    assert_clean("fleet-1xv100", &one);
    assert_clean("fleet-2xv100", &two);
    assert_eq!(
        sequential.proofs, one.proofs,
        "1-device fleet proofs diverged from the sequential baseline"
    );
    assert_eq!(
        sequential.proofs, two.proofs,
        "2-device fleet proofs diverged from the sequential baseline"
    );

    // Per-device placement of the 2-device run, for the record.
    let one_util = one.fleet.as_ref().expect("a service replay");
    let util = two.fleet.as_ref().expect("a service replay");
    print!("{}", util.render());
    rec.row(
        "fleet-2xv100-devices",
        "count",
        vec![
            ("dev0-jobs".into(), util.devices[0].jobs as f64),
            ("dev1-jobs".into(), util.devices[1].jobs as f64),
        ],
    );

    // Simulated makespans: the device-timeline completion times the
    // scaling claim is about.
    rec.row(
        "sim-makespan",
        "ms",
        vec![
            ("1xv100".into(), one_util.elapsed_ns / 1e6),
            ("2xv100".into(), util.elapsed_ns / 1e6),
        ],
    );

    let scaling = speedup(one_util.elapsed_ns, util.elapsed_ns);
    let sim_rate = |elapsed_ns: f64| prepared.len() as f64 / (elapsed_ns / 1e9);
    println!(
        "fleet scaling (simulated): 1xV100 {:.1}/s -> 2xV100 {:.1}/s ({scaling:.2}x, {} proofs)",
        sim_rate(one_util.elapsed_ns),
        sim_rate(util.elapsed_ns),
        prepared.len()
    );
    assert!(
        scaling >= 1.3,
        "2 devices must give >=1.3x simulated service throughput over 1 (got {scaling:.2}x)"
    );

    // Machine-independent gate row: fraction of the 1-device simulated
    // makespan the 2-device fleet needs (lower is better; a rise is a
    // regression).
    rec.row(
        "gate",
        "ratio",
        vec![("2dev-vs-1dev".into(), util.elapsed_ns / one_util.elapsed_ns)],
    );
    rec.finish();
}
