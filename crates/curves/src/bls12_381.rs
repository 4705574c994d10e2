//! BLS12-381: the 381-bit pairing-friendly curve of Zcash Sapling,
//! bellman and bellperson (paper Tables 3, 4, and the 381-bit columns of
//! Tables 5–8).
//!
//! * `G1: y² = x³ + 4` over `Fq`.
//! * `G2: y² = x³ + 4(1+u)` over `Fq2 = Fq[u]/(u²+1)` (M-type sextic twist).
//! * Ate pairing with loop count `|x|`, `x = -0xd201000000010000`.

use crate::glv::{Glv, ScalarSplit};
use crate::group::{Affine, CurveParams};
use crate::pairing::{self, frobenius_coeffs, PairingConfig};
use gzkp_ff::ext::{Fp12, Fp12Config, Fp2, Fp2Config, Fp6Config};
use gzkp_ff::fields::{Fq381, Fr381};
use gzkp_ff::{BigInt, Field, PrimeField};
use std::sync::OnceLock;

/// Magnitude of the (negative) BLS parameter `x`.
pub(crate) const BLS_X: u64 = 0xd201000000010000;

/// The base field `Fq` of BLS12-381.
pub type Fq = Fq381;
/// The scalar field `Fr` of BLS12-381.
pub type Fr = Fr381;

/// `Fq2 = Fq[u]/(u² + 1)` configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq2Config;
impl Fp2Config for Fq2Config {
    type Fp = Fq;
}
/// The quadratic extension `Fq2`.
pub type Fq2 = Fp2<Fq2Config>;

/// The sextic tower `Fq2[v]/(v³ − (1+u))`'s configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fq6Config;

fn xi() -> Fq2 {
    Fq2::new(Fq::one(), Fq::one())
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
        Self::frobenius_c1(power).square()
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
/// The full tower `Fq12`.
pub type Fq12 = Fp12<Fq12Config>;

fn fq_from_hex(s: &str) -> Fq {
    let b = BigInt::<6>::from_hex(s);
    Fq::from_limbs(&b.0).expect("constant below modulus")
}

/// G1 curve parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G1Config;
impl CurveParams for G1Config {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "BLS12-381.G1";
    fn coeff_a() -> Fq {
        Fq::zero()
    }
    fn coeff_b() -> Fq {
        Fq::from_u64(4)
    }
    fn generator() -> (Fq, Fq) {
        (
            fq_from_hex("0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
            fq_from_hex("0x08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
        )
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

/// G2 curve parameters (on the sextic twist).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct G2Config;
impl CurveParams for G2Config {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "BLS12-381.G2";
    fn coeff_a() -> Fq2 {
        Fq2::zero()
    }
    fn coeff_b() -> Fq2 {
        // b' = 4(1 + u)
        Fq2::new(Fq::from_u64(4), Fq::from_u64(4))
    }
    fn generator() -> (Fq2, Fq2) {
        let x = Fq2::new(
            fq_from_hex("0x024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"),
            fq_from_hex("0x13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"),
        );
        let y = Fq2::new(
            fq_from_hex("0x0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"),
            fq_from_hex("0x0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"),
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

/// The BLS12-381 pairing engine.
#[derive(Debug, Clone, Copy)]
pub struct Bls12_381;

impl PairingConfig for Bls12_381 {
    type Fr = Fr;
    type G1 = G1Config;
    type G2 = G2Config;
    type Fq2C = Fq2Config;
    type Fq12C = Fq12Config;
    fn loop_count() -> Vec<u64> {
        vec![BLS_X]
    }
    const LOOP_NEG: bool = true;
    const BN_FINAL_STEPS: bool = false;
    const TWIST_IS_D: bool = false;
    fn hard_exponent() -> &'static [u64] {
        static EXPONENT: OnceLock<Vec<u64>> = OnceLock::new();
        EXPONENT.get_or_init(pairing::hard_part_exponent::<Self>)
    }
}

/// Computes the ate pairing `e(P, Q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    pairing::pairing::<Bls12_381>(p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Projective;

    type G1Projective = Projective<G1Config>;
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
        let r = Fr::characteristic();
        assert!(G1Projective::generator().mul_limbs(&r).is_identity());
        assert!(G2Projective::generator().mul_limbs(&r).is_identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g.mul(&a).add(&g.mul(&b)), g.mul(&(a + b)));
    }

    #[test]
    fn pairing_non_degenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fq12::one());
        assert_eq!(e.pow(&Fr::characteristic()), Fq12::one());
    }

    #[test]
    fn pairing_bilinear() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let e = pairing(&p, &q);
        let p2 = p.mul(&Fr::from_u64(2)).to_affine();
        let q2 = Projective::<G2Config>::generator()
            .mul(&Fr::from_u64(2))
            .to_affine();
        assert_eq!(pairing(&p2, &q), e.square());
        assert_eq!(pairing(&p, &q2), e.square());
        assert_eq!(pairing(&p2, &q2), e.pow(&[4]));
    }

    #[test]
    fn batch_normalization_matches_individual() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = G1Projective::generator();
        let pts: Vec<_> = (0..9).map(|_| g.mul(&Fr::random(&mut rng))).collect();
        let batch = crate::group::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
            assert!(a.is_on_curve());
        }
    }

    #[test]
    fn random_points_are_on_curve() {
        let mut rng = StdRng::seed_from_u64(21);
        let pts = crate::group::random_points::<G1Config, _>(50, &mut rng);
        assert_eq!(pts.len(), 50);
        assert!(pts.iter().all(|p| p.is_on_curve() && !p.is_identity()));
    }
}
