//! The compressed proof wire format: `A ‖ B ‖ C`, what the service's
//! jobs return and `verify_proof_bytes` reads.

use crate::prove::Proof;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::serialize::{compress, decompress, CoordField};
use gzkp_curves::CurveParams;

/// Compressed proof encoding: `A ‖ B ‖ C`, each point x-coordinate plus a
/// flag byte (see [`gzkp_curves::serialize`]). Under 1 KB on every curve.
pub fn proof_to_bytes<P: PairingConfig>(proof: &Proof<P>) -> Vec<u8>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    let mut out = compress(&proof.a);
    out.extend(compress(&proof.b));
    out.extend(compress(&proof.c));
    out
}

/// Decodes a compressed proof; `None` on any malformed component.
pub fn proof_from_bytes<P: PairingConfig>(bytes: &[u8]) -> Option<Proof<P>>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    let g1_len = 1 + <P::G1 as CurveParams>::Base::encoded_len();
    let g2_len = 1 + <P::G2 as CurveParams>::Base::encoded_len();
    if bytes.len() != 2 * g1_len + g2_len {
        return None;
    }
    let a = decompress::<P::G1>(&bytes[..g1_len])?;
    let b = decompress::<P::G2>(&bytes[g1_len..g1_len + g2_len])?;
    let c = decompress::<P::G1>(&bytes[g1_len + g2_len..])?;
    Some(Proof { a, b, c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::{ConstraintSystem, LinearCombination};
    use crate::setup::VerifyingKey;
    use crate::{prove, setup, verify, ProverEngines};
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_ff::Field;
    use gzkp_gpu_sim::v100;
    use gzkp_msm::GzkpMsm;
    use gzkp_ntt::GzkpNtt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type ProofBatch = Vec<(Proof<Bn254>, Vec<Fr>)>;

    fn make_proofs(n: usize, seed: u64) -> (VerifyingKey<Bn254>, ProofBatch) {
        let mut rng = StdRng::seed_from_u64(seed);
        // One circuit (x·y = out), different statements per proof.
        let ntt = GzkpNtt::auto::<Fr>(v100());
        let msm1 = GzkpMsm::new(v100());
        let msm2 = GzkpMsm::new(v100());
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm1,
            msm_g2: &msm2,
        };
        // Setup once with a template circuit (the key depends on structure,
        // not the assignment).
        let template = circuit(3, 4);
        let (pk, vk) = setup::<Bn254, _>(&template, &mut rng).unwrap();
        let mut out = Vec::new();
        for i in 0..n {
            let (a, b) = (3 + i as u64, 5 + i as u64);
            let cs = circuit(a, b);
            let (proof, _) = prove(&cs, &pk, &engines, &mut rng).unwrap();
            out.push((proof, vec![Fr::from_u64(a * b)]));
        }
        (vk, out)
    }

    fn circuit(a: u64, b: u64) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_input(Fr::from_u64(a * b));
        let x = cs.alloc(Fr::from_u64(a));
        let y = cs.alloc(Fr::from_u64(b));
        cs.enforce(
            LinearCombination::from_var(x),
            LinearCombination::from_var(y),
            LinearCombination::from_var(out),
        );
        cs
    }

    #[test]
    fn proof_bytes_roundtrip_under_1kb() {
        let (vk, items) = make_proofs(1, 7);
        let (proof, inputs) = &items[0];
        let bytes = proof_to_bytes::<Bn254>(proof);
        assert!(bytes.len() < 1024, "proof is {} bytes", bytes.len());
        let back = proof_from_bytes::<Bn254>(&bytes).unwrap();
        assert_eq!(&back, proof);
        assert!(verify::<Bn254>(&vk, &back, inputs));
        // Truncated input fails cleanly.
        assert!(proof_from_bytes::<Bn254>(&bytes[..bytes.len() - 1]).is_none());
    }
}
