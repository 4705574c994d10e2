//! End-to-end Groth16 integration: every engine combination must produce
//! proofs that verify, on both pairing curves.

use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_ff::ext::{Fp12Config, Fp6Config};
use gzkp_ff::Field;
use gzkp_gpu_sim::{gtx1080ti, v100};
use gzkp_groth16::gadgets::{mimc_constants, MerkleMembership};
use gzkp_groth16::r1cs::{Circuit, ConstraintSystem, LinearCombination};
use gzkp_groth16::{prove, setup, verify, ProverEngines};
use gzkp_msm::{CpuMsm, GzkpMsm, MsmEngine, StrausMsm, SubMsmPippenger};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{BaselineGpuNtt, GzkpNtt};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small multiplication circuit over a generic pairing config.
fn mul_circuit<P: PairingConfig>(product: u64, a: u64, b: u64) -> ConstraintSystem<P::Fr> {
    let mut cs = ConstraintSystem::<P::Fr>::new();
    let out = cs.alloc_input(P::Fr::from_u64(product));
    let x = cs.alloc(P::Fr::from_u64(a));
    let y = cs.alloc(P::Fr::from_u64(b));
    cs.enforce(
        LinearCombination::from_var(x),
        LinearCombination::from_var(y),
        LinearCombination::from_var(out),
    );
    cs
}

fn roundtrip_with_engines<P: PairingConfig>(
    ntt: &dyn GpuNttEngine<P::Fr>,
    msm_g1: &dyn MsmEngine<P::G1>,
    msm_g2: &dyn MsmEngine<P::G2>,
    seed: u64,
) where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let cs = mul_circuit::<P>(221, 13, 17);
    let (pk, vk) = setup::<P, _>(&cs, &mut rng).unwrap();
    let engines = ProverEngines::<P> {
        ntt,
        msm_g1,
        msm_g2,
    };
    let (proof, report) = prove(&cs, &pk, &engines, &mut rng).unwrap();
    assert!(report.total_ms() > 0.0);
    assert!(verify::<P>(&vk, &proof, &[P::Fr::from_u64(221)]));
    assert!(!verify::<P>(&vk, &proof, &[P::Fr::from_u64(222)]));
    // Tampered proof components must fail.
    let mut bad = proof.clone();
    bad.a = bad.a.neg();
    assert!(!verify::<P>(&vk, &bad, &[P::Fr::from_u64(221)]));
}

#[test]
fn bn254_all_msm_engines() {
    let ntt = GzkpNtt::auto::<gzkp_curves::bn254::Fr>(v100());
    let gzkp1 = GzkpMsm::new(v100());
    let gzkp2 = GzkpMsm::new(v100());
    roundtrip_with_engines::<Bn254>(&ntt, &gzkp1, &gzkp2, 1);

    let cpu1 = CpuMsm::serial();
    let cpu2 = CpuMsm::serial();
    roundtrip_with_engines::<Bn254>(&ntt, &cpu1, &cpu2, 2);

    let bg1 = SubMsmPippenger::new(v100());
    let bg2 = SubMsmPippenger::new(v100());
    roundtrip_with_engines::<Bn254>(&ntt, &bg1, &bg2, 3);

    let st1 = StrausMsm::new(v100());
    let st2 = StrausMsm::new(v100());
    roundtrip_with_engines::<Bn254>(&ntt, &st1, &st2, 4);
}

#[test]
fn bn254_all_ntt_engines() {
    let msm1 = GzkpMsm::new(v100());
    let msm2 = GzkpMsm::new(v100());
    let baseline = BaselineGpuNtt::new(v100());
    roundtrip_with_engines::<Bn254>(&baseline, &msm1, &msm2, 5);
    let no_shuffle = GzkpNtt::no_internal_shuffle::<gzkp_curves::bn254::Fr>(v100());
    roundtrip_with_engines::<Bn254>(&no_shuffle, &msm1, &msm2, 6);
    let ti = GzkpNtt::auto::<gzkp_curves::bn254::Fr>(gtx1080ti());
    roundtrip_with_engines::<Bn254>(&ti, &msm1, &msm2, 7);
}

#[test]
fn bls12_381_roundtrip() {
    let ntt = GzkpNtt::auto::<gzkp_curves::bls12_381::Fr>(v100());
    let msm1 = GzkpMsm::new(v100());
    let msm2 = GzkpMsm::new(v100());
    roundtrip_with_engines::<Bls12_381>(&ntt, &msm1, &msm2, 8);
}

#[test]
fn merkle_membership_proof_bn254() {
    let mut rng = StdRng::seed_from_u64(77);
    type Fr = gzkp_curves::bn254::Fr;
    let constants = mimc_constants::<Fr>();
    let leaf = Fr::random(&mut rng);
    let path: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
    let directions = vec![true, false, false, true];
    let root = MerkleMembership::compute_root(leaf, &path, &directions, &constants);
    let circuit = MerkleMembership {
        leaf,
        path,
        directions,
        root,
    };
    let mut cs = ConstraintSystem::new();
    circuit.synthesize(&mut cs).unwrap();

    let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm1 = GzkpMsm::new(v100());
    let msm2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm1,
        msm_g2: &msm2,
    };
    let (proof, _) = prove(&cs, &pk, &engines, &mut rng).unwrap();
    assert!(verify::<Bn254>(&vk, &proof, &[root]));
    assert!(!verify::<Bn254>(&vk, &proof, &[root + Fr::one()]));
}

#[test]
fn unsatisfied_circuit_cannot_prove() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut cs = mul_circuit::<Bn254>(221, 13, 18); // 13*18 != 221
    let cs2 = mul_circuit::<Bn254>(221, 13, 17);
    let (pk, _) = setup::<Bn254, _>(&cs2, &mut rng).unwrap();
    let ntt = GzkpNtt::auto::<gzkp_curves::bn254::Fr>(v100());
    let msm1 = GzkpMsm::new(v100());
    let msm2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm1,
        msm_g2: &msm2,
    };
    assert!(prove(&cs, &pk, &engines, &mut rng).is_err());
    let _ = &mut cs;
}
