//! ALT-BN128 (BN254): the 254-bit pairing-friendly curve of Ethereum's
//! precompiles and libsnark's default backend.
//!
//! * `G1: y² = x³ + 3` over `Fq`, generator `(1, 2)`, cofactor 1.
//! * `G2: y² = x³ + 3/(9+u)` over `Fq2 = Fq[u]/(u²+1)` (D-type sextic twist).
//! * Optimal ate pairing with loop count `6x+2`, `x = 4965661367192848881`.

use crate::glv::{Glv, ScalarSplit};
use crate::group::{Affine, CurveParams, Projective};
use crate::pairing::{self, frobenius_coeffs, PairingConfig};
use gzkp_ff::ext::{Fp12, Fp12Config, Fp2, Fp2Config, Fp6Config};
use gzkp_ff::fields::{Fq254, Fr254};
use gzkp_ff::{Field, PrimeField};
use std::sync::OnceLock;

/// BN curve parameter `x` (the "BN parameter", not a coordinate).
pub(crate) const BN_X: u64 = 4965661367192848881;

/// The base field `Fq` of BN254.
pub type Fq = Fq254;
/// The scalar field `Fr` of BN254.
pub type Fr = Fr254;

/// `Fq2 = Fq[u]/(u² + 1)` configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq2Config;
impl Fp2Config for Fq2Config {
    type Fp = Fq;
}
/// The quadratic extension `Fq2`.
pub type Fq2 = Fp2<Fq2Config>;

/// The sextic tower `Fq2[v]/(v³ − (9+u))`'s configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq6Config;

fn xi() -> Fq2 {
    Fq2::new(Fq::from_u64(9), Fq::one())
}

static FP6_C1: OnceLock<Vec<Fq2>> = OnceLock::new();
static FP12_C1: OnceLock<Vec<Fq2>> = OnceLock::new();

impl Fp6Config for Fq6Config {
    type Fp2C = Fq2Config;
    fn nonresidue() -> Fq2 {
        xi()
    }
    fn frobenius_c1(power: usize) -> Fq2 {
        FP6_C1.get_or_init(|| frobenius_coeffs(xi(), 3, 6))[power % 6]
    }
    fn frobenius_c2(power: usize) -> Fq2 {
        let c1 = Self::frobenius_c1(power);
        c1.square()
    }
}
/// The `Fq12` configuration: the sextic tower extended by `w`, `w² = v`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq12Config;
impl Fp12Config for Fq12Config {
    type Fp6C = Fq6Config;
    fn frobenius_c1(power: usize) -> Fq2 {
        FP12_C1.get_or_init(|| frobenius_coeffs(xi(), 6, 12))[power % 12]
    }
}
/// The full tower `Fq12`; the pairing target group lives here.
pub type Fq12 = Fp12<Fq12Config>;

/// G1 curve parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G1Config;
impl CurveParams for G1Config {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "BN254.G1";
    fn coeff_a() -> Fq {
        Fq::zero()
    }
    fn coeff_b() -> Fq {
        Fq::from_u64(3)
    }
    fn generator() -> (Fq, Fq) {
        (Fq::from_u64(1), Fq::from_u64(2))
    }
    fn glv() -> Option<&'static Glv<Self>> {
        static GLV: OnceLock<Glv<G1Config>> = OnceLock::new();
        Some(GLV.get_or_init(|| Glv::derive(fr_split())))
    }
}

/// The GLV split of `Fr`, one for G1 and G2.
fn fr_split() -> &'static ScalarSplit {
    static SPLIT: OnceLock<ScalarSplit> = OnceLock::new();
    SPLIT.get_or_init(ScalarSplit::new::<Fr>)
}
/// Affine G1 point.
pub type G1Affine = Affine<G1Config>;
/// Jacobian G1 point.
pub type G1Projective = Projective<G1Config>;

/// G2 curve parameters (on the sextic twist).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G2Config;

fn fq_from_dec(s: &str) -> Fq {
    let b = gzkp_ff::BigInt::<4>::from_decimal(s);
    Fq::from_limbs(&b.0).expect("constant below modulus")
}

impl CurveParams for G2Config {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "BN254.G2";
    fn coeff_a() -> Fq2 {
        Fq2::zero()
    }
    fn coeff_b() -> Fq2 {
        // b2 = 3 / (9 + u)
        static B2: OnceLock<Fq2> = OnceLock::new();
        *B2.get_or_init(|| Fq2::from_u64(3) * xi().inverse().expect("xi nonzero"))
    }
    fn generator() -> (Fq2, Fq2) {
        // The standard generator (EIP-197 encoding).
        let x = Fq2::new(
            fq_from_dec(
                "10857046999023057135944570762232829481370756359578518086990519993285655852781",
            ),
            fq_from_dec(
                "11559732032986387107991004021392285783925812861821192530917403151452391805634",
            ),
        );
        let y = Fq2::new(
            fq_from_dec(
                "8495653923123431417604973247489272438418190587263600148770280649306958101930",
            ),
            fq_from_dec(
                "4082367875863433681332203403145435568316851327593401208105741076214120093531",
            ),
        );
        (x, y)
    }
    fn glv() -> Option<&'static Glv<Self>> {
        static GLV: OnceLock<Glv<G2Config>> = OnceLock::new();
        Some(GLV.get_or_init(|| Glv::derive(fr_split())))
    }
}
/// Affine G2 point.
pub type G2Affine = Affine<G2Config>;

/// The BN254 pairing engine.
#[derive(Debug, Clone, Copy)]
pub struct Bn254;

impl PairingConfig for Bn254 {
    type Fr = Fr;
    type G1 = G1Config;
    type G2 = G2Config;
    type Fq2C = Fq2Config;
    type Fq12C = Fq12Config;
    fn loop_count() -> Vec<u64> {
        // 6x + 2 (positive, > 2^64).
        let v = 6u128 * BN_X as u128 + 2;
        vec![v as u64, (v >> 64) as u64]
    }
    const LOOP_NEG: bool = false;
    const BN_FINAL_STEPS: bool = true;
    const TWIST_IS_D: bool = true;
    fn hard_exponent() -> &'static [u64] {
        static EXPONENT: OnceLock<Vec<u64>> = OnceLock::new();
        EXPONENT.get_or_init(pairing::hard_part_exponent::<Self>)
    }
}

/// Computes the optimal ate pairing `e(P, Q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    pairing::pairing::<Bn254>(p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    type G2Projective = Projective<G2Config>;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generators_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G2Affine::generator().is_on_curve());
    }

    #[test]
    fn generators_in_r_torsion() {
        // r * G == infinity on both groups.
        let r = Fr::characteristic();
        assert!(G1Projective::generator().mul_limbs(&r).is_identity());
        assert!(G2Projective::generator().mul_limbs(&r).is_identity());
    }

    #[test]
    fn g1_small_multiples_consistent() {
        let g = G1Projective::generator();
        let two_g = g.double();
        let three_g = two_g.add(&g);
        assert_eq!(g.mul_u64(2), two_g);
        assert_eq!(g.mul_u64(3), three_g);
        assert_eq!(three_g.sub(&g), two_g);
        assert!(three_g.to_affine().is_on_curve());
    }

    #[test]
    fn mixed_add_matches_full_add() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = G1Projective::generator();
        let a = g.mul(&Fr::random(&mut rng));
        let b = g.mul(&Fr::random(&mut rng));
        assert_eq!(a.add(&b), a.add_mixed(&b.to_affine()));
    }

    #[test]
    fn pairing_non_degenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fq12::one());
        assert!(!e.is_zero());
        // e has order dividing r.
        assert_eq!(e.pow(&Fr::characteristic()), Fq12::one());
    }

    #[test]
    fn pairing_bilinear() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let e = pairing(&p, &q);
        let p2 = p.mul(&Fr::from_u64(2)).to_affine();
        let q3 = Projective::<G2Config>::generator()
            .mul(&Fr::from_u64(3))
            .to_affine();
        assert_eq!(pairing(&p2, &q), e.square());
        assert_eq!(pairing(&p, &q3), e.square() * e);
        assert_eq!(pairing(&p2, &q3), e.pow(&[6]));
    }

    #[test]
    fn pairing_with_identity_is_one() {
        assert_eq!(
            pairing(&G1Affine::identity(), &G2Affine::generator()),
            Fq12::one()
        );
        assert_eq!(
            pairing(&G1Affine::generator(), &G2Affine::identity()),
            Fq12::one()
        );
    }

    #[test]
    fn frobenius_consistency() {
        // frobenius_map(1) must equal pow(q) on Fq12.
        let mut rng = StdRng::seed_from_u64(3);
        let f = Fq12::random(&mut rng);
        let q = Fq::characteristic();
        assert_eq!(f.frobenius_map(1), f.pow(&q));
        assert_eq!(f.frobenius_map(2), f.pow(&q).pow(&q));
        assert_eq!(f.frobenius_map(6), f.conjugate());
    }

    #[test]
    fn fq2_arithmetic_sanity() {
        // (9 + u)(9 - u) = 81 - u² = 82.
        let a = Fq2::new(Fq::from_u64(9), Fq::one());
        let b = Fq2::new(Fq::from_u64(9), -Fq::one());
        assert_eq!(a * b, Fq2::from_u64(82));
        let inv = a.inverse().unwrap();
        assert_eq!(a * inv, Fq2::one());
    }
}
