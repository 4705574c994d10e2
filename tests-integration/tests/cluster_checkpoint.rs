//! Proptest satellite for ISSUE 8: proof-checkpoint round-trips across
//! hosts.
//!
//! For random circuits, blinding seeds, interrupt points (after the POLY
//! stage or between any two MSM steps) and kernel thread caps
//! (`GZKP_THREADS` ∈ {1, 4}), serializing the mid-proof checkpoint,
//! decoding it on a "fresh host" (newly constructed engines), and
//! finishing there must yield a proof byte-identical to the
//! uninterrupted single-host run. Covers both supported curves.

use gzkp_gpu_sim::v100;
use gzkp_groth16::prove::{prove, prove_poly, ProverEngines};
use gzkp_groth16::{proof_to_bytes, setup, MsmSteps, ProofCheckpoint, MSM_STEPS};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::GzkpNtt;
use gzkp_telemetry::NoopSink;
use gzkp_workloads::synthetic::synthetic_circuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// `GZKP_THREADS` is process-global and re-read per parallel call;
/// serialize the cases that set it so the two curves' proptests cannot
/// race each other's caps.
static ENV_LOCK: Mutex<()> = Mutex::new(());

macro_rules! round_trip_case {
    ($curve:ty, $fr:ty, $constraints:expr, $seed:expr, $interrupt:expr, $threads:expr) => {{
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("GZKP_THREADS", $threads.to_string());

        let mut rng = StdRng::seed_from_u64($seed);
        let cs = synthetic_circuit::<$fr, _>($constraints, &mut rng);
        let (pk, _vk) = setup::<$curve, _>(&cs, &mut rng).expect("setup");
        let blind_seed = $seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);

        // Host A: uninterrupted ground truth, then the interrupted run.
        let ntt_a = GzkpNtt::auto::<$fr>(v100());
        let (g1_a, g2_a) = (GzkpMsm::new(v100()), GzkpMsm::new(v100()));
        let engines_a = ProverEngines::<$curve> {
            ntt: &ntt_a,
            msm_g1: &g1_a,
            msm_g2: &g2_a,
        };
        let (expected, _) = prove(&cs, &pk, &engines_a, &mut StdRng::seed_from_u64(blind_seed))
            .expect("uninterrupted prove");
        let expected = proof_to_bytes(&expected);

        let poly = prove_poly::<$curve>(&cs, &pk, &ntt_a, &NoopSink).expect("poly stage");
        let mut ckpt = ProofCheckpoint::<$curve>::from_poly(blind_seed, poly);
        for step in 0..$interrupt {
            ckpt.run_step(&pk, &engines_a, step, &NoopSink)
                .expect("msm step before interrupt");
        }
        let bytes = ckpt.to_bytes();
        std::env::remove_var("GZKP_THREADS");

        // Host B: decode the wire bytes on fresh engines and finish.
        let resumed = ProofCheckpoint::<$curve>::from_bytes(&bytes).expect("checkpoint decodes");
        prop_assert_eq!(resumed.steps_done(), $interrupt);
        prop_assert_eq!(resumed.seed, blind_seed);
        let mut resumed = resumed;
        let ntt_b = GzkpNtt::auto::<$fr>(v100());
        let (g1_b, g2_b) = (GzkpMsm::new(v100()), GzkpMsm::new(v100()));
        let engines_b = ProverEngines::<$curve> {
            ntt: &ntt_b,
            msm_g1: &g1_b,
            msm_g2: &g2_b,
        };
        while let Some(step) = resumed.next_step() {
            resumed
                .run_step(&pk, &engines_b, step, &NoopSink)
                .expect("resumed msm step");
        }
        let (proof, _) = resumed
            .finish(&pk, &mut StdRng::seed_from_u64(blind_seed))
            .expect("finish on host B");
        prop_assert_eq!(
            proof_to_bytes(&proof),
            expected,
            "resume after {} msm steps with {} threads diverged",
            $interrupt,
            $threads
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bn254_checkpoint_round_trip_is_byte_identical(
        constraints in 32usize..128,
        seed in any::<u64>(),
        interrupt in 0usize..=MSM_STEPS,
        threads_sel in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_sel];
        round_trip_case!(
            gzkp_curves::bn254::Bn254,
            gzkp_curves::bn254::Fr,
            constraints, seed, interrupt, threads
        );
    }

    #[test]
    fn bls12_381_checkpoint_round_trip_is_byte_identical(
        constraints in 32usize..96,
        seed in any::<u64>(),
        interrupt in 0usize..=MSM_STEPS,
        threads_sel in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_sel];
        round_trip_case!(
            gzkp_curves::bls12_381::Bls12_381,
            gzkp_curves::bls12_381::Fr,
            constraints, seed, interrupt, threads
        );
    }
}
