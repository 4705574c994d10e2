//! Every workload, untraced and traced, at two ops on tiny circuits: the
//! checks pass and each run emits exactly the metrics `BENCHMARK.json`
//! lists for it.

use gzkp_benchmark::run::{run, Args};
use gzkp_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use gzkp_benchmark::workloads::{Sizes, Window};

// One test function: the workloads set `GZKP_THREADS` for the process,
// so they must not run on parallel test threads.
#[test]
fn every_workload_runs_and_checks_out() {
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for traced in [false, true] {
            let outcome = run(&Args {
                workload,
                seed: 7,
                window: Window::Ops(2),
                traced,
                sizes: Sizes::SMOKE,
            })
            .unwrap_or_else(|e| panic!("{workload} (traced {traced}) failed to set up: {e}"));
            assert!(
                outcome.correct(),
                "{workload} (traced {traced}): {:?}",
                outcome.errors
            );
            assert!(outcome.attempted >= 2, "{workload}: too few ops");

            let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|(n, u, _)| (n, u)).collect();
            assert_eq!(emitted, table, "{workload} (traced {traced})");
            if traced {
                assert!(outcome.trace.is_some_and(|t| !t.roots().is_empty()));
                assert!(outcome.metrics.get("bench.op_ms_p50_untraced") > 0.0);
                assert!(outcome.metrics.get("bench.unattributed_frac") <= 0.10);
                assert!(outcome.metrics.get("gpu-sim.sim_proof_ms") > 0.0);
            } else {
                for (name, _, value) in outcome.metrics.iter() {
                    assert!(value > 0.0, "{workload}: {name} is {value}");
                }
            }
            let digest = outcome
                .conditions
                .iter()
                .find(|(key, _)| key == "output_digest")
                .map(|(_, value)| value.clone());
            digests.push(digest.expect("every run records its output digest"));
        }
        // Same seed, same bytes and simulated times, traced or not.
        assert_eq!(digests[0], digests[1], "{workload}");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let args = Args {
        workload: "cold_keys",
        seed: 1,
        window: Window::Ops(1),
        traced: false,
        sizes: Sizes::SMOKE,
    };
    assert!(run(&args).is_err());
}
