//! Parallel-prover determinism: the prover on the production engines
//! (thread pool, batch-affine range-major fold, cached checkpoint tables)
//! produces *bit-identical* proofs at every thread count to a prover on
//! the serial oracle `CpuMsm::serial()` — window-serial Pippenger with
//! mixed Jacobian additions on one thread: no `p_index`, no batch-affine
//! reducer, no table store.
//!
//! Everything lives in ONE test function: the thread count is driven by
//! the `GZKP_THREADS` env override, and env mutation must stay
//! sequential within the test binary.

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{bls12_381, bn254, random_points, t753};
use gzkp_ff::fields::Fr753;
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_groth16::{prove, setup, ConstraintSystem, Proof, ProverEngines, ProvingKey};
use gzkp_msm::{CpuMsm, GzkpMsm, MsmEngine, ScalarVec};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{CpuNtt, Direction, GzkpNtt, Radix2Domain};
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one proof on the given MSM engines. The rng seed is fixed and
/// the blinding factors are drawn after the MSM stage, so equal proofs
/// mean equal MSM/NTT outputs bit for bit.
fn proof_with<P: PairingConfig>(
    cs: &ConstraintSystem<P::Fr>,
    pk: &ProvingKey<P>,
    msm_g1: &dyn MsmEngine<P::G1>,
    msm_g2: &dyn MsmEngine<P::G2>,
) -> Proof<P> {
    let ntt = GzkpNtt::auto::<P::Fr>(v100());
    let engines = ProverEngines::<P> {
        ntt: &ntt,
        msm_g1,
        msm_g2,
    };
    let mut rng = StdRng::seed_from_u64(99);
    prove(cs, pk, &engines, &mut rng).expect("prove").0
}

/// Serial-vs-parallel prover check for one pairing curve across worker
/// counts 1, 2, and 4 (via the `GZKP_THREADS` override).
fn check_curve<P: PairingConfig>(constraints: usize) {
    let mut rng = StdRng::seed_from_u64(5);
    let cs = synthetic_circuit::<P::Fr, _>(constraints, &mut rng);
    let (pk, _vk) = setup::<P, _>(&cs, &mut rng).expect("setup");

    std::env::set_var("GZKP_THREADS", "1");
    let reference = proof_with::<P>(&cs, &pk, &CpuMsm::serial(), &CpuMsm::serial());
    for threads in ["1", "2", "4"] {
        std::env::set_var("GZKP_THREADS", threads);
        let gzkp = GzkpMsm::new(v100());
        let got = proof_with::<P>(&cs, &pk, &gzkp, &gzkp);
        assert!(
            got == reference,
            "parallel proof diverged at GZKP_THREADS={threads}"
        );
    }
    std::env::remove_var("GZKP_THREADS");
}

/// MSM + NTT determinism on the pairing-less 753-bit curve. The NTT runs
/// at 2^12 — the smallest size the engine spreads over threads, its last
/// batch a single block — and is held to the serial CPU reference.
fn check_t753() {
    let mut rng = StdRng::seed_from_u64(17);
    let pts = random_points::<t753::G1Config, _>(257, &mut rng);
    let scalars: Vec<Fr753> = (0..257).map(|_| Fr753::random(&mut rng)).collect();
    let sv = ScalarVec::from_field(&scalars);
    let domain = Radix2Domain::<Fr753>::new(1 << 12).expect("domain");
    let coeffs: Vec<Fr753> = (0..domain.size).map(|_| Fr753::random(&mut rng)).collect();

    std::env::set_var("GZKP_THREADS", "1");
    let msm_ref = CpuMsm::serial().msm(&pts, &sv).result;
    let mut ntt_ref = coeffs.clone();
    CpuNtt::reference().transform(&domain, &mut ntt_ref, Direction::Forward);

    for threads in ["1", "2", "4"] {
        std::env::set_var("GZKP_THREADS", threads);
        let got = GzkpMsm::new(v100()).msm(&pts, &sv).result;
        assert_eq!(
            got.to_affine(),
            msm_ref.to_affine(),
            "t753 MSM diverged at GZKP_THREADS={threads}"
        );
        let engine = GzkpNtt::auto::<Fr753>(v100());
        let mut data = coeffs.clone();
        engine.transform(&domain, &mut data, Direction::Forward);
        assert!(
            data == ntt_ref,
            "t753 NTT diverged at GZKP_THREADS={threads}"
        );
        engine.transform(&domain, &mut data, Direction::Inverse);
        assert!(
            data == coeffs,
            "t753 inverse NTT diverged at GZKP_THREADS={threads}"
        );
    }
    std::env::remove_var("GZKP_THREADS");
}

#[test]
fn parallel_prover_is_bit_identical_to_serial() {
    check_curve::<bn254::Bn254>(1 << 6);
    check_curve::<bls12_381::Bls12_381>(1 << 5);
    check_t753();
}
