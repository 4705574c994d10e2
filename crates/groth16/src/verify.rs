//! Groth16 verification: the pairing check
//! `e(A, B) = e(α, β) · e(Σ xᵢ·ICᵢ, γ) · e(C, δ)`,
//! evaluated as one multi-Miller loop with a single final exponentiation.

use crate::prove::Proof;
use crate::setup::VerifyingKey;
use gzkp_curves::pairing::{multi_pairing, PairingConfig};

use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ff::Field;

/// Verifies a proof against public inputs.
///
/// Returns `true` iff the pairing equation holds. Runs in milliseconds
/// regardless of circuit size (the succinctness property of §2.1).
pub fn verify<P: PairingConfig>(
    vk: &VerifyingKey<P>,
    proof: &Proof<P>,
    public_inputs: &[<P as PairingConfig>::Fr],
) -> bool
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    if public_inputs.len() + 1 != vk.ic.len() {
        return false;
    }
    // Accumulate the public-input commitment Σ xᵢ·ICᵢ (IC₀ has weight 1).
    let mut acc = vk.ic[0].to_projective();
    for (x, ic) in public_inputs.iter().zip(&vk.ic[1..]) {
        acc = acc.add(&ic.mul(x));
    }
    let acc = acc.to_affine();

    // e(A, B) · e(−α, β) · e(−acc, γ) · e(−C, δ) == 1
    let result = multi_pairing::<P>(&[
        (proof.a, proof.b),
        (vk.alpha_g1.neg(), vk.beta_g2),
        (acc.neg(), vk.gamma_g2),
        (proof.c.neg(), vk.delta_g2),
    ]);
    result == gzkp_curves::pairing::Gt::<P>::one()
}

/// Verifies a serialized proof (the wire format of
/// [`crate::batch::proof_to_bytes`]) against public inputs.
///
/// This is the verify-before-return guard of the proving service: the
/// proof bytes about to be handed to a client are checked as-is, so a
/// silently corrupted limb anywhere between the kernel and the response
/// buffer fails here instead of at the client. Malformed bytes (wrong
/// length, non-canonical coordinates, point off the curve) return
/// `false` rather than panicking.
pub(crate) fn verify_proof_bytes<P: PairingConfig>(
    vk: &VerifyingKey<P>,
    proof_bytes: &[u8],
    public_inputs: &[<P as PairingConfig>::Fr],
) -> bool
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
    <P::G1 as gzkp_curves::CurveParams>::Base: gzkp_curves::serialize::CoordField,
    <P::G2 as gzkp_curves::CurveParams>::Base: gzkp_curves::serialize::CoordField,
{
    match crate::batch::proof_from_bytes::<P>(proof_bytes) {
        Some(proof) => verify(vk, &proof, public_inputs),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::{ConstraintSystem, LinearCombination};
    use crate::{proof_to_bytes, prove, setup, ProverEngines};
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_gpu_sim::v100;
    use gzkp_msm::GzkpMsm;
    use gzkp_ntt::GzkpNtt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_single_bit_flip_of_a_proof_is_rejected() {
        // Knowledge of the factors of 35.
        let mut cs = ConstraintSystem::<Fr>::new();
        let n = cs.alloc_input(Fr::from_u64(35));
        let p = cs.alloc(Fr::from_u64(5));
        let q = cs.alloc(Fr::from_u64(7));
        cs.enforce(
            LinearCombination::from_var(p),
            LinearCombination::from_var(q),
            LinearCombination::from_var(n),
        );
        let mut rng = StdRng::seed_from_u64(17);
        let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let ntt = GzkpNtt::auto::<Fr>(v100());
        let (msm_g1, msm_g2) = (GzkpMsm::new(v100()), GzkpMsm::new(v100()));
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (proof, _) = prove(&cs, &pk, &engines, &mut rng).unwrap();
        let bytes = proof_to_bytes(&proof);
        let inputs = [Fr::from_u64(35)];
        // A ‖ B ‖ C: 33 + 65 + 33 bytes, a flag byte before each x.
        assert_eq!(bytes.len(), 131);
        assert!(verify_proof_bytes(&vk, &bytes, &inputs));
        // One flip per byte, the bit walking through every position: each
        // lands in a flag, an x limb or past the modulus, and each either
        // fails to decode or decodes to a point the equation rejects.
        for (i, bit) in (0..bytes.len()).map(|i| (i, i % 8)) {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            assert!(
                !verify_proof_bytes(&vk, &bad, &inputs),
                "bit {bit} of byte {i} flipped still verifies"
            );
        }
    }
}
