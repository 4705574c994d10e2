//! T753 — the synthetic 753-bit curve standing in for MNT4753.
//!
//! The exact MNT4753 parameters are not available in this offline
//! environment (DESIGN.md §2). For everything the paper measures on
//! MNT4753 — NTT over a 753-bit scalar field, PADD/PMUL and MSM over a
//! 753-bit base field — only the *limb count* (12×u64) and scalar bit
//! length matter, not the specific curve. T753 therefore uses the
//! deterministically generated 753-bit primes from `tools/genparams` and
//! curves chosen by the point-first construction (`b = y₀² − x₀³`), which
//! guarantees a base point without needing square roots.
//!
//! **T753 is a performance stand-in, not a cryptographically sound group**:
//! its group order is unknown (no pairing, no subgroup checks). The Groth16
//! pipeline on T753 exercises proving cost only; end-to-end verified proofs
//! use BN254/BLS12-381.

use crate::group::CurveParams;
use gzkp_ff::ext::{Fp2, Fp2Config};
use gzkp_ff::fields::{Fq753, Fr753};
use gzkp_ff::Field;

/// The base field (753-bit).
pub type Fq = Fq753;
/// The scalar field (753-bit, 2-adicity 30).
pub type Fr = Fr753;

/// G1 curve parameters: `y² = x³ + 3` with base point `(1, 2)`
/// (on-curve by construction: `4 = 1 + 3`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G1Config;
impl CurveParams for G1Config {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "T753.G1";
    fn coeff_a() -> Fq {
        Fq::zero()
    }
    fn coeff_b() -> Fq {
        Fq::from_u64(3)
    }
    fn generator() -> (Fq, Fq) {
        (Fq::from_u64(1), Fq::from_u64(2))
    }
}

/// `Fq2 = Fq[u]/(u² + 1)` (−1 is a non-residue: q ≡ 3 mod 4 by
/// construction in `genparams`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq2Config;
impl Fp2Config for Fq2Config {
    type Fp = Fq;
}
/// The quadratic extension of the T753 base field.
pub type Fq2 = Fp2<Fq2Config>;

/// G2-cost stand-in: a curve over `Fq2` so that the Groth16 b-query MSM on
/// T753 pays realistic extension-field PADD costs.
///
/// `y² = x³ + (5+2u)` with base point `(1+u, 2+u)`:
/// `(2+u)² = 3+4u`, `(1+u)³ = −2+2u`, and `3+4u − (−2+2u) = 5+2u`. ∎
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G2Config;
impl CurveParams for G2Config {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "T753.G2";
    fn coeff_a() -> Fq2 {
        Fq2::zero()
    }
    fn coeff_b() -> Fq2 {
        Fq2::new(Fq::from_u64(5), Fq::from_u64(2))
    }
    fn generator() -> (Fq2, Fq2) {
        (
            Fq2::new(Fq::one(), Fq::one()),
            Fq2::new(Fq::from_u64(2), Fq::one()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Affine, Projective};
    use gzkp_ff::PrimeField;
    use rand::SeedableRng;
    use rand::{rngs::StdRng, Rng};

    type G1Affine = Affine<G1Config>;
    type G1Projective = Projective<G1Config>;
    type G2Affine = Affine<G2Config>;
    type G2Projective = Projective<G2Config>;

    #[test]
    fn generators_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G2Affine::generator().is_on_curve());
    }

    #[test]
    fn group_law_consistency_g1() {
        // T753's group order is unknown (performance stand-in), so scalar
        // identities must be over the integers, not mod r: use u64 scalars
        // where a + b cannot wrap the group order's multiple structure.
        let g = G1Projective::generator();
        let mut rng = StdRng::seed_from_u64(12);
        let a: u32 = rng.gen();
        let b: u32 = rng.gen();
        assert_eq!(
            g.mul_u64(a as u64 + b as u64),
            g.mul_u64(a as u64).add(&g.mul_u64(b as u64))
        );
    }

    #[test]
    fn group_law_consistency_g2() {
        let g = G2Projective::generator();
        let five_g = g.mul_u64(5);
        assert_eq!(five_g, g.double().double().add(&g));
        assert!(five_g.to_affine().is_on_curve());
    }

    #[test]
    fn scalar_bitwidth_is_753() {
        assert_eq!(Fr::MODULUS_BITS, 753);
        assert_eq!(Fq::MODULUS_BITS, 753);
        assert_eq!(Fr::NUM_LIMBS, 12);
    }
}
