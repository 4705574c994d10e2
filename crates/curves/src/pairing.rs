//! Generic pairing machinery for BN- and BLS-family curves.
//!
//! Pairings only appear in the Groth16 *verifier* ("a few milliseconds" in
//! the paper, §2.1) — never in the benchmarked prover hot paths — so this
//! implementation optimizes for obviousness over speed:
//!
//! * G2 points are *untwisted* into `E(Fq12)` explicitly (`ψ`), so a single
//!   affine Miller loop over `Fq12` covers both D-type (BN254) and M-type
//!   (BLS12-381) twists;
//! * the Frobenius-adjusted additions of the BN optimal-ate loop are plain
//!   coordinate-wise Frobenius maps on `E(Fq12)` points;
//! * the final exponentiation uses Frobenius for the easy part and a
//!   directly computed `(q⁴ − q² + 1)/r` exponent (via [`gzkp_ff::dynmont`])
//!   for the hard part — no family-specific addition chains to get wrong.
//!
//! Correctness is established by bilinearity/non-degeneracy tests in the
//! per-curve modules and by end-to-end Groth16 proof verification.

use crate::group::{Affine, CurveParams};
use gzkp_ff::ext::{Fp12, Fp12Config, Fp2, Fp2Config, Fp6, Fp6Config};
use gzkp_ff::{dynmont, Field, PrimeField};

/// Everything the generic pairing needs to know about a curve family.
pub trait PairingConfig: 'static + Copy + Send + Sync {
    /// The shared scalar field of G1 and G2.
    type Fr: PrimeField;
    /// G1 parameters (over `Fq`).
    type G1: CurveParams<Scalar = Self::Fr>;
    /// G2 parameters (over `Fq2`).
    type G2: CurveParams<Base = Fp2<Self::Fq2C>, Scalar = Self::Fr>;
    /// The quadratic extension config with `Fp = Fq`.
    type Fq2C: Fp2Config<Fp = <Self::G1 as CurveParams>::Base>;
    /// The degree-12 tower config.
    type Fq12C: Fp12Config;

    /// Magnitude of the Miller loop count (little-endian limbs):
    /// `|6x+2|` for BN curves, `|x|` for BLS curves.
    fn loop_count() -> Vec<u64>;
    /// Whether the loop count is negative (BLS12-381: yes).
    const LOOP_NEG: bool;
    /// Whether the BN-style final Frobenius additions are required.
    const BN_FINAL_STEPS: bool;
    /// D-type twist (`ψ(x,y) = (w²x, w³y)`) vs M-type (`(x/w², y/w³)`).
    const TWIST_IS_D: bool;
    /// The final exponentiation's hard-part exponent `(q⁴ − q² + 1)/r`,
    /// computed once per curve by `hard_part_exponent`.
    fn hard_exponent() -> &'static [u64];
}

/// Target-group element type for a pairing config.
pub type Gt<P> = Fp12<<P as PairingConfig>::Fq12C>;

/// An affine point on `E(Fq12)`; infinity never occurs inside the Miller
/// loop for valid inputs (handled before entering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EFq12<C: Fp12Config> {
    x: Fp12<C>,
    y: Fp12<C>,
}

impl<C: Fp12Config> EFq12<C> {
    fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
        }
    }

    fn frobenius(&self, power: usize) -> Self {
        Self {
            x: self.x.frobenius_map(power),
            y: self.y.frobenius_map(power),
        }
    }

    /// Affine point doubling; returns `None` at infinity (y == 0).
    fn double(&self) -> Option<Self> {
        let two_y = self.y.double();
        let inv = two_y.inverse()?;
        let lambda = (self.x.square().double() + self.x.square()) * inv; // 3x²/(2y)
        let x3 = lambda.square() - self.x.double();
        let y3 = lambda * (self.x - x3) - self.y;
        Some(Self { x: x3, y: y3 })
    }

    /// Affine addition; returns `None` when the sum is infinity.
    fn add(&self, other: &Self) -> Option<Self> {
        if self.x == other.x {
            if self.y == other.y {
                return self.double();
            }
            return None;
        }
        let inv = (other.x - self.x).inverse().expect("x1 != x2");
        let lambda = (other.y - self.y) * inv;
        let x3 = lambda.square() - self.x - other.x;
        let y3 = lambda * (self.x - x3) - self.y;
        Some(Self { x: x3, y: y3 })
    }
}

/// Evaluates the line through `t` and `r` (tangent when `t == r`) at `p`.
fn line_eval<C: Fp12Config>(t: &EFq12<C>, r: &EFq12<C>, p: &EFq12<C>) -> Fp12<C> {
    if t.x == r.x && t.y != r.y {
        // Vertical line.
        return p.x - t.x;
    }
    let lambda = if t == r {
        let three_x2 = t.x.square().double() + t.x.square();
        three_x2 * t.y.double().inverse().expect("tangent at 2-torsion")
    } else {
        (r.y - t.y) * (r.x - t.x).inverse().expect("distinct x")
    };
    (p.y - t.y) - lambda * (p.x - t.x)
}

/// Embeds an `Fq` element into `Fq12` (c0 of c0 of c0).
fn embed_fq<P: PairingConfig>(v: <P::G1 as CurveParams>::Base) -> Gt<P>
where
    P::Fq12C: Fp12Config,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    let fq2 = Fp2::<P::Fq2C>::new(v, <P::G1 as CurveParams>::Base::zero());
    embed_fq2::<P>(fq2)
}

/// Embeds an `Fq2` element into `Fq12`.
fn embed_fq2<P: PairingConfig>(v: Fp2<P::Fq2C>) -> Gt<P>
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    Fp12::new(Fp6::new(v, Fp2::zero(), Fp2::zero()), Fp6::zero())
}

/// The generator `w` of `Fq12` over its sextic sub-tower.
fn omega<C: Fp12Config>() -> Fp12<C> {
    Fp12::new(Fp6::zero(), Fp6::one())
}

/// Untwists a G2 point into `E(Fq12)`.
fn untwist<P: PairingConfig>(q: &Affine<P::G2>) -> EFq12<P::Fq12C>
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    let w = omega::<P::Fq12C>();
    let w2 = w.square();
    let w3 = w2 * w;
    let x = embed_fq2::<P>(q.x);
    let y = embed_fq2::<P>(q.y);
    if P::TWIST_IS_D {
        EFq12 {
            x: x * w2,
            y: y * w3,
        }
    } else {
        EFq12 {
            x: x * w2.inverse().expect("w invertible"),
            y: y * w3.inverse().expect("w invertible"),
        }
    }
}

/// Computes the Miller loop `f_{c,Q}(P)` (with BN final steps if configured).
///
/// Returns `Gt::one()` when either input is the identity.
pub(crate) fn miller_loop<P: PairingConfig>(p: &Affine<P::G1>, q: &Affine<P::G2>) -> Gt<P>
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    if p.is_identity() || q.is_identity() {
        return Gt::<P>::one();
    }
    let pe = EFq12 {
        x: embed_fq::<P>(p.x),
        y: embed_fq::<P>(p.y),
    };
    let qe = untwist::<P>(q);

    let c = P::loop_count();
    let bits = dynmont::num_bits(&c);
    let mut f = Gt::<P>::one();
    let mut t = qe;
    for i in (0..bits - 1).rev() {
        f = f.square() * line_eval(&t, &t, &pe);
        t = t.double().expect("no 2-torsion hit in Miller loop");
        if (c[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
            f *= line_eval(&t, &qe, &pe);
            t = t.add(&qe).expect("no cancellation in Miller loop");
        }
    }
    if P::LOOP_NEG {
        // f_{-c} ~ conj(f_c) up to factors killed by the final exponentiation.
        f = f.conjugate();
        t = t.neg();
    }
    if P::BN_FINAL_STEPS {
        // Optimal ate for BN curves: two Frobenius-twisted additions.
        let q1 = qe.frobenius(1);
        let q2 = qe.frobenius(2).neg();
        f *= line_eval(&t, &q1, &pe);
        t = t.add(&q1).expect("BN final step 1");
        f *= line_eval(&t, &q2, &pe);
        let _ = t.add(&q2); // final T unused
    }
    f
}

/// The final exponentiation `f^((q^12 - 1)/r)`.
pub(crate) fn final_exponentiation<P: PairingConfig>(f: &Gt<P>) -> Gt<P> {
    // Easy part: f^((q^6 - 1)(q^2 + 1)).
    let f_inv = f.inverse().expect("Miller output nonzero");
    let f1 = f.conjugate() * f_inv; // f^(q^6 - 1)
    let f2 = f1.frobenius_map(2) * f1; // ^(q^2 + 1)

    // Hard part: f^((q^4 - q^2 + 1)/r).
    f2.pow(P::hard_exponent())
}

/// `q⁴ − q² + 1`, the numerator of the hard part's exponent.
fn hard_part_numerator<P: PairingConfig>() -> Vec<u64> {
    let q = <<P::G1 as CurveParams>::Base as Field>::characteristic();
    let q2 = dynmont::mul(&q, &q);
    let q4 = dynmont::mul(&q2, &q2);
    dynmont::add(&dynmont::sub(&q4, &q2), &[1])
}

/// The hard part's exponent `(q⁴ − q² + 1)/r` with dynamic bigints: a
/// constant of the curve, which its [`PairingConfig::hard_exponent`]
/// keeps after the first call.
///
/// # Panics
///
/// Panics if `r` does not divide `q⁴ − q² + 1`.
pub(crate) fn hard_part_exponent<P: PairingConfig>() -> Vec<u64> {
    let (e, rem) = dynmont::div_rem(&hard_part_numerator::<P>(), &P::Fr::characteristic());
    assert!(dynmont::is_zero(&rem), "r must divide q^4 - q^2 + 1");
    e
}

/// Full pairing `e(P, Q)`.
pub fn pairing<P: PairingConfig>(p: &Affine<P::G1>, q: &Affine<P::G2>) -> Gt<P>
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    final_exponentiation::<P>(&miller_loop::<P>(p, q))
}

/// One `(G1, G2)` input of a product-of-pairings.
pub(crate) type PairingPair<P> = (
    Affine<<P as PairingConfig>::G1>,
    Affine<<P as PairingConfig>::G2>,
);

/// Product of pairings `∏ e(Pᵢ, Qᵢ)` with a single final exponentiation —
/// the shape the Groth16 verification equation uses.
pub fn multi_pairing<P: PairingConfig>(pairs: &[PairingPair<P>]) -> Gt<P>
where
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
{
    let mut f = Gt::<P>::one();
    for (p, q) in pairs {
        f *= miller_loop::<P>(p, q);
    }
    final_exponentiation::<P>(&f)
}

/// Derives the Frobenius coefficient table `ξ^((q^i − 1)/divisor)` for
/// `i = 0..count`, used by the `Fp6`/`Fp12` configs of concrete curves.
///
/// # Panics
///
/// Panics if `divisor` does not divide `q^i − 1` (i.e. the tower is
/// misconfigured).
pub(crate) fn frobenius_coeffs<C: Fp2Config>(
    xi: Fp2<C>,
    divisor: u64,
    count: usize,
) -> Vec<Fp2<C>> {
    let q = C::Fp::characteristic();
    let mut out = Vec::with_capacity(count);
    let mut qi = vec![1u64]; // q^0
    for _ in 0..count {
        let num = dynmont::sub(&qi, &[1]);
        let (e, rem) = dynmont::div_rem(&num, &[divisor]);
        assert!(dynmont::is_zero(&rem), "divisor must divide q^i - 1");
        out.push(xi.pow(&e));
        qi = dynmont::mul(&qi, &q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kept exponent times `r` is `q⁴ − q² + 1` on both curves.
    fn check<P: PairingConfig>() {
        let product = dynmont::mul(P::hard_exponent(), &P::Fr::characteristic());
        assert_eq!(product, hard_part_numerator::<P>());
    }

    #[test]
    fn r_divides_the_hard_part() {
        check::<crate::bn254::Bn254>();
        check::<crate::bls12_381::Bls12_381>();
    }
}
