//! Cross-device single-proof benchmark: ONE large proof's MSM stage
//! executed across 1/2/4 simulated V100s through the real runtime path —
//! [`gzkp_runtime::CrossDeviceMsm`] sharding each MSM into bucket ranges,
//! streaming per-device uploads/kernels, and merging partial sums over
//! the NVLink P2P path.
//!
//! This is the complement of `fleet_throughput`: that bench scales a
//! *stream* of proofs across devices (inter-proof parallelism); this one
//! scales a *single* proof (intra-proof parallelism), which is what a
//! near-deadline request needs. The scaling number the CI gate diffs is
//! the fleet's simulated MSM-stage makespan — host wall-clock cannot
//! express device parallelism because the simulated devices share the
//! host's cores (see `fleet_throughput`'s header for the full argument).
//!
//! Invariants asserted every run:
//! * proofs at 1, 2, and 4 devices are byte-identical to the plain
//!   single-device prover's (placement never changes bytes);
//! * 2 V100s give >= 1.6x the simulated single-device MSM makespan;
//! * the P2P path actually carried the partial-sum merges.

use gzkp_bench::{speedup, Recorder};
use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_gpu_sim::device::v100;
use gzkp_groth16::prove::{prove_msm, prove_poly, ProverEngines};
use gzkp_groth16::{proof_to_bytes, setup};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_runtime::{CrossDeviceMsm, FleetRuntime};
use gzkp_telemetry::NoopSink;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Proves the prepared circuit once with its five MSMs spread over
/// `devs` simulated V100s; returns the proof bytes and the fleet (whose
/// timelines hold the MSM-stage schedule).
fn prove_across(
    cs: &gzkp_groth16::r1cs::ConstraintSystem<Fr>,
    pk: &gzkp_groth16::ProvingKey<Bn254>,
    devs: usize,
) -> (Vec<u8>, Arc<FleetRuntime>) {
    let fleet = Arc::new(FleetRuntime::new(vec![v100(); devs]));
    let reference = GzkpMsm::new(v100());
    let msm_g1 = CrossDeviceMsm::new(
        reference.clone(),
        fleet.clone(),
        (0..devs).collect(),
        "proof.msm_g1",
    );
    let msm_g2 = CrossDeviceMsm::new(
        reference,
        fleet.clone(),
        (0..devs).collect(),
        "proof.msm_g2",
    );
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm_g1,
        msm_g2: &msm_g2,
    };
    let poly = prove_poly::<Bn254>(cs, pk, &ntt, &NoopSink).expect("poly stage");
    let mut rng = StdRng::seed_from_u64(9);
    let (proof, _report) = prove_msm::<Bn254, _>(pk, &engines, poly, &mut rng, &NoopSink);
    (proof_to_bytes(&proof), fleet)
}

fn main() {
    let smoke = std::env::var("GZKP_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let log_n = if smoke {
        11
    } else if gzkp_bench::full_mode() {
        14
    } else {
        12
    };

    // Deterministic simulated schedule: the five MSMs issue their
    // device/P2P operations in one fixed order.
    std::env::set_var("GZKP_THREADS", "1");

    let mut rng = StdRng::seed_from_u64(4);
    let cs = synthetic_circuit::<Fr, _>(1 << log_n, &mut rng);
    let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");

    // Byte-identity reference: the plain single-device prover.
    let single_msm = GzkpMsm::new(v100());
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &single_msm,
        msm_g2: &single_msm,
    };
    let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).expect("poly stage");
    let mut prng = StdRng::seed_from_u64(9);
    let (reference, _) = prove_msm::<Bn254, _>(&pk, &engines, poly, &mut prng, &NoopSink);
    let reference_bytes = proof_to_bytes(&reference);

    let mut rec = Recorder::new("fleet_single_proof");
    let mut makespans = Vec::new();
    for devs in [1usize, 2, 4] {
        let (bytes, fleet) = prove_across(&cs, &pk, devs);
        assert_eq!(
            bytes, reference_bytes,
            "{devs}-device proof bytes diverged from the single-device prover"
        );
        let util = fleet.utilization();
        if devs > 1 {
            assert!(
                fleet.p2p_transfers() > 0,
                "{devs}-device run must merge partials over P2P"
            );
            // The timeline the acceptance test asks for: the P2P lane renders
            // populated (`^` cells) alongside the bucket kernels.
            let timeline = gzkp_telemetry::render_timeline(&fleet.trace())
                .expect("fleet trace renders as a timeline");
            assert!(
                timeline.contains('^'),
                "{devs}-device timeline must show a populated p2p lane:\n{timeline}"
            );
        }
        print!("{}", util.render());
        rec.row(
            format!("msm-{devs}xv100"),
            "ms",
            vec![
                ("sim-makespan".into(), util.elapsed_ns / 1e6),
                ("p2p-MB".into(), fleet.p2p_bytes() as f64 / (1 << 20) as f64),
                ("p2p-transfers".into(), fleet.p2p_transfers() as f64),
            ],
        );
        makespans.push(util.elapsed_ns);
    }
    std::env::remove_var("GZKP_THREADS");

    let x2 = speedup(makespans[0], makespans[1]);
    let x4 = speedup(makespans[0], makespans[2]);
    println!(
        "single-proof MSM scaling (simulated, 2^{log_n} constraints): \
         2xV100 {x2:.2}x, 4xV100 {x4:.2}x"
    );
    rec.row(
        "scaling",
        "x",
        vec![("2xv100".into(), x2), ("4xv100".into(), x4)],
    );
    assert!(
        x2 >= 1.6,
        "2 V100s must give >=1.6x on a single large proof's MSM stage (got {x2:.2}x)"
    );

    // Machine-independent gate row: fraction of the single-device
    // simulated makespan the 2-device run needs (lower is better).
    rec.row(
        "gate",
        "ratio",
        vec![("2dev-vs-1dev".into(), makespans[1] / makespans[0])],
    );
    rec.finish();
}
