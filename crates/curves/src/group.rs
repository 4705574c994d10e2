//! Short-Weierstrass elliptic-curve groups: affine and Jacobian points,
//! PADD/PMUL, batch normalization.
//!
//! The paper's MSM stage (§2.3, §4) is built entirely from the two basic
//! operations this module provides: point addition (PADD, which includes
//! doubling) and scalar point multiplication (PMUL). Everything is generic
//! over a [`CurveParams`] marker so the same MSM/Groth16 code serves G1 of
//! all three curve families and G2 of the pairing curves.

use crate::glv::Glv;
use core::fmt;
use core::marker::PhantomData;
use gzkp_ff::{Field, PrimeField};
use rand::Rng;

/// Static description of a short-Weierstrass curve `y² = x³ + a·x + b` over
/// a base field, with a designated scalar field for PMUL.
pub trait CurveParams:
    'static + Copy + Clone + Default + PartialEq + Eq + Send + Sync + fmt::Debug + core::hash::Hash
{
    /// Field the coordinates live in (`Fq` for G1, `Fq2` for G2).
    type Base: Field;
    /// Scalar field (the group order `r` for prime-order groups).
    type Scalar: PrimeField;
    /// Curve name for diagnostics, e.g. `"BN254.G1"`.
    const NAME: &'static str;
    /// The `a` coefficient (zero for all curves in this workspace).
    fn coeff_a() -> Self::Base;
    /// The `b` coefficient.
    fn coeff_b() -> Self::Base;
    /// A fixed base point.
    fn generator() -> (Self::Base, Self::Base);
    /// The GLV endomorphism, for a curve that has one. `None`, the
    /// default, keeps scalars whole (T753, whose group order is unknown).
    fn glv() -> Option<&'static Glv<Self>> {
        None
    }
}

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine<C: CurveParams> {
    /// x-coordinate (meaningless when `infinity` is set).
    pub x: C::Base,
    /// y-coordinate (meaningless when `infinity` is set).
    pub y: C::Base,
    /// Marker for the identity element.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` representing
/// the affine point `(X/Z², Y/Z³)`; `Z = 0` encodes infinity.
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    /// Jacobian X.
    pub x: C::Base,
    /// Jacobian Y.
    pub y: C::Base,
    /// Jacobian Z (zero at infinity).
    pub z: C::Base,
    #[doc(hidden)]
    pub _marker: PhantomData<C>,
}

impl<C: CurveParams> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}(inf)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> fmt::Debug for Projective<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_affine())
    }
}

impl<C: CurveParams> Default for Affine<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> Default for Projective<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
        }
    }

    /// Constructs a point from coordinates **without** an on-curve check.
    pub fn new_unchecked(x: C::Base, y: C::Base) -> Self {
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// Constructs a point, returning `None` if not on the curve.
    pub fn new(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Self::new_unchecked(x, y);
        p.is_on_curve().then_some(p)
    }

    /// The curve's fixed base point.
    pub fn generator() -> Self {
        let (x, y) = C::generator();
        Self::new_unchecked(x, y)
    }

    /// Whether the point satisfies the curve equation.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square() * self.x + C::coeff_a() * self.x + C::coeff_b();
        lhs == rhs
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Negation (reflect across the x-axis).
    pub fn neg(&self) -> Self {
        if self.infinity {
            *self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
                _marker: PhantomData,
            }
        }
    }

    /// Scalar multiplication (PMUL). Delegates to the Jacobian ladder.
    pub fn mul(&self, scalar: &C::Scalar) -> Projective<C> {
        self.to_projective().mul(scalar)
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1, Y1, Z1) == (X2, Y2, Z2)  iff  X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³.
        if self.is_identity() {
            return other.is_identity();
        }
        if other.is_identity() {
            return false;
        }
        let z1sq = self.z.square();
        let z2sq = other.z.square();
        self.x * z2sq == other.x * z1sq && self.y * (z2sq * other.z) == other.y * (z1sq * self.z)
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Projective<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _marker: PhantomData,
        }
    }

    /// The curve's fixed base point.
    pub fn generator() -> Self {
        Affine::<C>::generator().to_projective()
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`dbl-2007-bl`, valid for any `a`).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let xx = self.x.square();
        let yy = self.y.square();
        let yyyy = yy.square();
        let zz = self.z.square();
        // S = 2*((X+YY)^2 - XX - YYYY)
        let s = ((self.x + yy).square() - xx - yyyy).double();
        // M = 3*XX + a*ZZ^2
        let a = C::coeff_a();
        let m = if a.is_zero() {
            xx.double() + xx
        } else {
            xx.double() + xx + a * zz.square()
        };
        let t = m.square() - s.double();
        let x3 = t;
        let y3 = m * (s - t) - yyyy.double().double().double(); // 8*YYYY
        let z3 = (self.y + self.z).square() - yy - zz;
        Self {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Point addition (`add-2007-bl`), PADD in the paper's notation.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Mixed addition with an affine point (`madd-2007-bl`), the workhorse
    /// of bucket accumulation in MSM.
    pub fn add_mixed(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * z1z1 * self.z;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
            _marker: PhantomData,
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Scalar multiplication (PMUL) by a full-width scalar, binary
    /// double-and-add over the canonical representation.
    pub fn mul(&self, scalar: &C::Scalar) -> Self {
        let limbs = scalar.to_limbs();
        self.mul_limbs(&limbs)
    }

    /// Scalar multiplication by a little-endian limb slice.
    pub fn mul_limbs(&self, limbs: &[u64]) -> Self {
        let mut acc = Self::identity();
        let bits = 64 * limbs.len();
        let mut started = false;
        for i in (0..bits).rev() {
            if started {
                acc = acc.double();
            }
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
                started = true;
            }
        }
        acc
    }

    /// Scalar multiplication by a `u64` (used by window-weight preprocessing
    /// and tests).
    pub fn mul_u64(&self, scalar: u64) -> Self {
        self.mul_limbs(&[scalar])
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let zinv = self.z.inverse().expect("nonzero z");
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }
}

/// Batch-normalizes a slice of Jacobian points to affine with a single
/// inversion (Montgomery's trick), as GPU MSM implementations do when
/// writing bucket results back to global memory.
pub fn batch_to_affine<C: CurveParams>(points: &[Projective<C>]) -> Vec<Affine<C>> {
    let mut zs: Vec<C::Base> = points.iter().map(|p| p.z).collect();
    gzkp_ff::batch_inverse(&mut zs);
    points
        .iter()
        .zip(zs)
        .map(|(p, zinv)| {
            if p.is_identity() {
                Affine::identity()
            } else {
                let zinv2 = zinv.square();
                Affine {
                    x: p.x * zinv2,
                    y: p.y * zinv2 * zinv,
                    infinity: false,
                }
            }
        })
        .collect()
}

/// Batch point addition in affine coordinates: computes `ps[j] + qs[j]`
/// for every pair with a **single field inversion** (Montgomery's trick
/// over all chord/tangent denominators), the accumulation scheme of
/// production MSM implementations (cf. bellperson): an affine addition
/// costs ~6 field multiplications against ~14 for the mixed Jacobian
/// formula, once the per-addition inversion is amortized away.
///
/// Exact group arithmetic throughout — identity operands, doubling
/// (`p == q`), cancellation (`p == −q`), and 2-torsion doubling
/// (`y == 0`) all take their special-case paths — so results are
/// bit-identical to the projective formulas normalized to affine.
///
/// Returns the affine sums and the number of amortized additions (the
/// non-trivial ones that each would have needed its own inversion).
///
/// # Panics
///
/// Panics if `ps` and `qs` have different lengths.
pub fn batch_add_affine_pairs<C: CurveParams>(
    ps: &[Affine<C>],
    qs: &[Affine<C>],
) -> (Vec<Affine<C>>, usize) {
    assert_eq!(ps.len(), qs.len(), "pair slices must match");
    let mut dens: Vec<C::Base> = ps
        .iter()
        .zip(qs)
        .map(|(p, q)| affine_add_denominator(p, q))
        .collect();
    let amortized = gzkp_ff::batch_inverse_count(&mut dens);
    let out = ps
        .iter()
        .zip(qs)
        .zip(&dens)
        .map(|((p, q), dinv)| affine_add_with_inverse(p, q, dinv))
        .collect();
    (out, amortized)
}

/// The slope denominator of the affine addition `p + q`: `x₂ − x₁` for a
/// chord, `2y` for a tangent, and zero for a trivial pair that needs no
/// inversion (an identity operand, `p = −q`, or a 2-torsion double) —
/// which is what batched inversion skips. Non-trivial denominators are
/// never zero. Pair with [`affine_add_with_inverse`].
#[inline]
pub fn affine_add_denominator<C: CurveParams>(p: &Affine<C>, q: &Affine<C>) -> C::Base {
    if p.infinity || q.infinity {
        C::Base::zero()
    } else if p.x == q.x {
        if p.y == q.y && !p.y.is_zero() {
            p.y.double() // tangent: 2y
        } else {
            C::Base::zero() // p = −q, or 2-torsion double → ∞
        }
    } else {
        q.x - p.x // chord: x₂ − x₁
    }
}

/// `p + q` in affine coordinates given `dinv`, the inverse of
/// [`affine_add_denominator`]`(p, q)` (ignored for trivial pairs).
#[inline]
pub fn affine_add_with_inverse<C: CurveParams>(
    p: &Affine<C>,
    q: &Affine<C>,
    dinv: &C::Base,
) -> Affine<C> {
    if p.infinity {
        return *q;
    }
    if q.infinity {
        return *p;
    }
    if p.x == q.x && (p.y != q.y || p.y.is_zero()) {
        return Affine::identity();
    }
    let lambda = if p.x == q.x {
        // Tangent slope (3x² + a) / 2y.
        let xx = p.x.square();
        let a = C::coeff_a();
        let num = if a.is_zero() {
            xx.double() + xx
        } else {
            xx.double() + xx + a
        };
        num * *dinv
    } else {
        (q.y - p.y) * *dinv
    };
    let x3 = lambda.square() - p.x - q.x;
    let y3 = lambda * (p.x - x3) - p.y;
    Affine::new_unchecked(x3, y3)
}

/// Generates `n` pseudo-random curve points cheaply: a random-scalar base
/// point plus an arithmetic walk (one PADD per point, normalized in bulk).
///
/// MSM benchmarks need millions of points; deriving each one by full PMUL
/// would dominate setup time without changing any measured behaviour —
/// PADD/PMUL cost is independent of the point values.
pub fn random_points<C: CurveParams, R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Affine<C>> {
    if n == 0 {
        return Vec::new();
    }
    let g = Projective::<C>::generator();
    let base = g.mul(&C::Scalar::random(rng));
    let step = g.mul(&C::Scalar::random(rng));
    let mut acc = base;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(acc);
        acc = acc.add(&step);
    }
    batch_to_affine(&out)
}

/// Serialization helpers: affine points serialize as `(x limbs, y limbs,
/// infinity)` through the base field's serde impls.
impl<C: CurveParams> serde::Serialize for Affine<C>
where
    C::Base: serde::Serialize,
{
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (self.x, self.y, self.infinity).serialize(s)
    }
}

impl<'de, C: CurveParams> serde::Deserialize<'de> for Affine<C>
where
    C::Base: serde::Deserialize<'de>,
{
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (x, y, infinity) = <(C::Base, C::Base, bool)>::deserialize(d)?;
        let p = Affine { x, y, infinity };
        if !p.is_on_curve() {
            return Err(serde::de::Error::custom("point not on curve"));
        }
        Ok(p)
    }
}
