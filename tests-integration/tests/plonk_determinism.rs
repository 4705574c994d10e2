//! PLONK proof determinism through the shared engines: the proof bytes
//! must be identical at every worker-thread count AND at every device
//! count — a single-device [`GzkpMsm`] and a [`CrossDeviceMsm`] sharding
//! the commitment MSMs across a 2- or 4-device fleet must emit the same
//! transcript bit for bit, because the Fiat–Shamir challenges hash the
//! commitments and any divergence would cascade into a different proof.
//!
//! Everything lives in ONE test function: the thread count is driven by
//! the `GZKP_THREADS` env override, and env mutation must stay
//! sequential within the test binary (see `parallel_determinism.rs`).

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{bls12_381, bn254};
use gzkp_gpu_sim::v100;
use gzkp_msm::{CpuMsm, GzkpMsm};
use gzkp_ntt::GzkpNtt;
use gzkp_plonk::{prove_bytes, setup, verify_bytes, PlonkCircuit};
use gzkp_proof_system::Engines;
use gzkp_runtime::{CrossDeviceMsm, FleetRuntime};
use gzkp_telemetry::NoopSink;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Proves the same circuit once per (thread count, device count) cell and
/// asserts every run reproduces the single-thread single-device bytes.
fn check_curve<P>(constraints: usize)
where
    P: PairingConfig,
    <P::G1 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
    <P::G2 as gzkp_curves::CurveParams>::Base: gzkp_curves::CoordField,
    <P::Fq12C as gzkp_ff::ext::Fp12Config>::Fp6C: gzkp_ff::ext::Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: gzkp_ff::ext::Fp2Config,
{
    let mut rng = StdRng::seed_from_u64(11);
    let cs = synthetic_circuit::<P::Fr, _>(constraints, &mut rng);
    let circuit = PlonkCircuit::from_r1cs(&cs);
    let (pk, vk) = setup::<P, _>(&circuit, &mut rng).expect("setup");

    let ntt = GzkpNtt::auto::<P::Fr>(v100());
    let local = GzkpMsm::new(v100());

    std::env::set_var("GZKP_THREADS", "1");
    let engines = Engines::<P> {
        ntt: &ntt,
        msm_g1: &local,
        msm_g2: &local,
    };
    let (reference, _) = prove_bytes(&circuit, &pk, &engines, 42, &NoopSink).expect("prove");
    assert!(
        verify_bytes(&vk, circuit.public_inputs(), &reference),
        "reference proof does not verify"
    );
    // The serial oracle (window-serial mixed additions on one thread, no
    // `p_index`, no batch-affine reducer) must commit to the same
    // transcript.
    let serial = CpuMsm::serial();
    let oracle = Engines::<P> {
        ntt: &ntt,
        msm_g1: &serial,
        msm_g2: &serial,
    };
    let (bytes, _) = prove_bytes(&circuit, &pk, &oracle, 42, &NoopSink).expect("prove");
    assert!(
        bytes == reference,
        "PLONK proof on the serial oracle diverged"
    );

    for threads in ["1", "2", "3", "4", "8"] {
        std::env::set_var("GZKP_THREADS", threads);
        // The prover's own index shares are cut per thread count; the
        // fleet's shards per device count, at three thread counts.
        let devices: &[usize] = match threads {
            "3" | "8" => &[1],
            _ => &[1, 2, 4],
        };
        for &devs in devices {
            let fleet;
            let cross;
            let engines = if devs == 1 {
                Engines::<P> {
                    ntt: &ntt,
                    msm_g1: &local,
                    msm_g2: &local,
                }
            } else {
                fleet = Arc::new(FleetRuntime::new(vec![v100(); devs]));
                cross = CrossDeviceMsm::new(
                    local.clone(),
                    fleet.clone(),
                    (0..devs).collect(),
                    "plonk.determinism",
                );
                Engines::<P> {
                    ntt: &ntt,
                    msm_g1: &cross,
                    msm_g2: &cross,
                }
            };
            let (got, _) = prove_bytes(&circuit, &pk, &engines, 42, &NoopSink).expect("prove");
            assert!(
                got == reference,
                "PLONK proof diverged at GZKP_THREADS={threads} devices={devs}"
            );
        }
    }
    std::env::remove_var("GZKP_THREADS");
}

#[test]
fn plonk_proof_is_bit_identical_across_threads_and_devices() {
    check_curve::<bn254::Bn254>(1 << 5);
    check_curve::<bls12_381::Bls12_381>(1 << 4);
}
