//! Extension-field towers: quadratic `Fp2`, cubic `Fp6`, quadratic `Fp12`.
//!
//! These are the towers used by pairing-friendly curves (BN254 and
//! BLS12-381 both use `Fp12 = Fp6[w]/(w²−v)`, `Fp6 = Fp2[v]/(v³−ξ)`).
//! The quadratic level is fixed at `Fp2 = Fp[u]/(u²+1)`: every tower here
//! has `q ≡ 3 (mod 4)`, so −1 is a non-residue and `u² = −1` turns the
//! reduction into a subtraction (Karatsuba `mul` in three base products,
//! complex `square` in two). The configuration traits carry the cubic
//! non-residue and Frobenius coefficients; the curve crates provide them
//! (computed lazily from the modulus, not hardcoded).

use crate::traits::{Field, PrimeField};
use core::fmt;
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// Configuration of a quadratic extension `Fp2 = Fp[u] / (u² + 1)`; the
/// base field must have −1 as a non-residue (`p ≡ 3 mod 4`).
pub trait Fp2Config:
    'static + Copy + Clone + Default + PartialEq + Eq + Send + Sync + fmt::Debug + core::hash::Hash
{
    /// The base prime field.
    type Fp: PrimeField;
}

/// An element `c0 + c1·u` of a quadratic extension field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp2<C: Fp2Config> {
    /// Constant coefficient.
    pub c0: C::Fp,
    /// Coefficient of `u`.
    pub c1: C::Fp,
    #[doc(hidden)]
    pub _marker: PhantomData<C>,
}

impl<C: Fp2Config> Fp2<C> {
    /// Builds an element from its two coefficients.
    pub fn new(c0: C::Fp, c1: C::Fp) -> Self {
        Self {
            c0,
            c1,
            _marker: PhantomData,
        }
    }

    /// Conjugation `c0 − c1·u`, which is the `p`-power Frobenius on `Fp2`.
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// `p^power`-Frobenius: conjugates when `power` is odd.
    pub fn frobenius_map(&self, power: usize) -> Self {
        if power % 2 == 1 {
            self.conjugate()
        } else {
            *self
        }
    }

    /// Norm map to the base field: `c0² + c1²`.
    pub fn norm(&self) -> C::Fp {
        self.c0.square() + self.c1.square()
    }
}

impl<C: Fp2Config> Fp2<C>
where
    C::Fp: crate::traits::PrimeField,
{
    /// Square root via the complex method; `None` for non-squares.
    pub fn sqrt(&self) -> Option<Self> {
        use crate::traits::PrimeField;
        if self.is_zero() {
            return Some(*self);
        }
        if self.c1.is_zero() {
            // sqrt(a): in Fp if a is a QR, else sqrt(-a)*u (since (cu)\u{b2} = -c\u{b2}).
            return match self.c0.sqrt() {
                Some(r) => Some(Self::new(r, C::Fp::zero())),
                None => (-self.c0).sqrt().map(|r| Self::new(C::Fp::zero(), r)),
            };
        }
        // (x + yu)\u{b2} = (x\u{b2} - y\u{b2}) + 2xy*u: solve with the norm
        // m = sqrt(a\u{b2} + b\u{b2}), which must be a QR in Fp.
        let m = (self.c0.square() + self.c1.square()).sqrt()?;
        let two_inv = C::Fp::from_u64(2).inverse().expect("char != 2");
        let mut x2 = (self.c0 + m) * two_inv;
        let x = match x2.sqrt() {
            Some(x) if !x.is_zero() => x,
            _ => {
                x2 = (self.c0 - m) * two_inv;
                x2.sqrt()?
            }
        };
        if x.is_zero() {
            return None;
        }
        let y = self.c1 * two_inv * x.inverse().expect("x nonzero");
        let cand = Self::new(x, y);
        (cand.square() == *self).then_some(cand)
    }
}

impl<C: Fp2Config> fmt::Display for Fp2<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}*u)", self.c0, self.c1)
    }
}

impl<C: Fp2Config> Add for Fp2<C> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1)
    }
}
impl<'a, C: Fp2Config> Add<&'a Fp2<C>> for Fp2<C> {
    type Output = Self;
    fn add(self, o: &'a Self) -> Self {
        self + *o
    }
}
impl<C: Fp2Config> Sub for Fp2<C> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1)
    }
}
impl<'a, C: Fp2Config> Sub<&'a Fp2<C>> for Fp2<C> {
    type Output = Self;
    fn sub(self, o: &'a Self) -> Self {
        self - *o
    }
}
impl<C: Fp2Config> Mul for Fp2<C> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        // Karatsuba: 3 base-field muls; u² = −1 folds v1 in by subtraction.
        let v0 = self.c0 * o.c0;
        let v1 = self.c1 * o.c1;
        let c0 = v0 - v1;
        let c1 = (self.c0 + self.c1) * (o.c0 + o.c1) - v0 - v1;
        Self::new(c0, c1)
    }
}
impl<'a, C: Fp2Config> Mul<&'a Fp2<C>> for Fp2<C> {
    type Output = Self;
    fn mul(self, o: &'a Self) -> Self {
        self * *o
    }
}
impl<C: Fp2Config> Neg for Fp2<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
impl<C: Fp2Config> AddAssign for Fp2<C> {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}
impl<C: Fp2Config> SubAssign for Fp2<C> {
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}
impl<C: Fp2Config> MulAssign for Fp2<C> {
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}
impl<C: Fp2Config> Sum for Fp2<C> {
    fn sum<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::zero(), |a, b| a + b)
    }
}
impl<C: Fp2Config> Product for Fp2<C> {
    fn product<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::one(), |a, b| a * b)
    }
}

impl<C: Fp2Config> Field for Fp2<C> {
    fn zero() -> Self {
        Self::new(C::Fp::zero(), C::Fp::zero())
    }
    fn one() -> Self {
        Self::new(C::Fp::one(), C::Fp::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn square(&self) -> Self {
        // Complex squaring, 2 base-field muls: (a + bu)² = (a+b)(a−b) + 2ab·u.
        let (a, b) = (self.c0, self.c1);
        Self::new((a + b) * (a - b), (a * b).double())
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }
    fn inverse(&self) -> Option<Self> {
        let norm = self.norm();
        norm.inverse()
            .map(|ninv| Self::new(self.c0 * ninv, -(self.c1 * ninv)))
    }
    /// Montgomery's trick over the base-field norms: `v⁻¹ = v̄ · N(v)⁻¹`,
    /// so the prefix products and the one inversion are base-field
    /// operations — two squarings and five base products per entry
    /// against the nine of three `Fp2` products. A non-zero `v` has a
    /// non-zero norm (−1 is a non-residue). Slot `j` of `prod` holds the
    /// `j`-th inverted entry's norm and the product of the norms before
    /// it.
    fn batch_invert(values: &mut [Self], prod: &mut Vec<Self>) -> usize {
        prod.clear();
        let mut acc = C::Fp::one();
        for v in values.iter().filter(|v| !v.is_zero()) {
            let norm = v.norm();
            prod.push(Self::new(acc, norm));
            acc *= norm;
        }
        let inverted = prod.len();
        let mut inv = acc.inverse().expect("a product of non-zero norms");
        for v in values.iter_mut().rev().filter(|v| !v.is_zero()) {
            let slot = prod.pop().expect("one slot per non-zero entry");
            let ninv = inv * slot.c0;
            inv *= slot.c1;
            *v = Self::new(v.c0 * ninv, -(v.c1 * ninv));
        }
        inverted
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(C::Fp::random(rng), C::Fp::random(rng))
    }
    fn from_u64(x: u64) -> Self {
        Self::new(C::Fp::from_u64(x), C::Fp::zero())
    }
    fn characteristic() -> Vec<u64> {
        C::Fp::characteristic()
    }
    fn extension_degree() -> usize {
        2
    }
}

/// Configuration of a cubic extension `Fp6 = Fp2[v] / (v³ − ξ)`.
pub trait Fp6Config:
    'static + Copy + Clone + Default + PartialEq + Eq + Send + Sync + fmt::Debug + core::hash::Hash
{
    /// The quadratic sub-tower.
    type Fp2C: Fp2Config;
    /// The cubic non-residue ξ ∈ Fp2.
    fn nonresidue() -> Fp2<Self::Fp2C>;
    /// `ξ^((p^i − 1)/3)` for `i` in `0..6`.
    fn frobenius_c1(power: usize) -> Fp2<Self::Fp2C>;
    /// `ξ^((2·p^i − 2)/3)` for `i` in `0..6`.
    fn frobenius_c2(power: usize) -> Fp2<Self::Fp2C>;
}

/// An element `c0 + c1·v + c2·v²` of a cubic extension over `Fp2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp6<C: Fp6Config> {
    /// Constant coefficient.
    pub c0: Fp2<C::Fp2C>,
    /// Coefficient of `v`.
    pub c1: Fp2<C::Fp2C>,
    /// Coefficient of `v²`.
    pub c2: Fp2<C::Fp2C>,
    #[doc(hidden)]
    pub _marker: PhantomData<C>,
}

impl<C: Fp6Config> Fp6<C> {
    /// Builds an element from its three coefficients.
    pub fn new(c0: Fp2<C::Fp2C>, c1: Fp2<C::Fp2C>, c2: Fp2<C::Fp2C>) -> Self {
        Self {
            c0,
            c1,
            c2,
            _marker: PhantomData,
        }
    }

    /// Multiplication by `v`: `(c0,c1,c2) ↦ (ξ·c2, c0, c1)`.
    pub(crate) fn mul_by_nonresidue(&self) -> Self {
        Self::new(C::nonresidue() * self.c2, self.c0, self.c1)
    }

    /// `p^power`-Frobenius endomorphism.
    pub fn frobenius_map(&self, power: usize) -> Self {
        Self::new(
            self.c0.frobenius_map(power),
            self.c1.frobenius_map(power) * C::frobenius_c1(power % 6),
            self.c2.frobenius_map(power) * C::frobenius_c2(power % 6),
        )
    }
}

impl<C: Fp6Config> fmt::Display for Fp6<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}*v + {}*v^2)", self.c0, self.c1, self.c2)
    }
}

impl<C: Fp6Config> Add for Fp6<C> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
    }
}
impl<'a, C: Fp6Config> Add<&'a Fp6<C>> for Fp6<C> {
    type Output = Self;
    fn add(self, o: &'a Self) -> Self {
        self + *o
    }
}
impl<C: Fp6Config> Sub for Fp6<C> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)
    }
}
impl<'a, C: Fp6Config> Sub<&'a Fp6<C>> for Fp6<C> {
    type Output = Self;
    fn sub(self, o: &'a Self) -> Self {
        self - *o
    }
}
impl<C: Fp6Config> Mul for Fp6<C> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        // Toom-style interpolation (6 Fp2 muls), standard v³ = ξ folding.
        let v0 = self.c0 * o.c0;
        let v1 = self.c1 * o.c1;
        let v2 = self.c2 * o.c2;
        let xi = C::nonresidue();
        let c0 = v0 + xi * ((self.c1 + self.c2) * (o.c1 + o.c2) - v1 - v2);
        let c1 = (self.c0 + self.c1) * (o.c0 + o.c1) - v0 - v1 + xi * v2;
        let c2 = (self.c0 + self.c2) * (o.c0 + o.c2) - v0 - v2 + v1;
        Self::new(c0, c1, c2)
    }
}
impl<'a, C: Fp6Config> Mul<&'a Fp6<C>> for Fp6<C> {
    type Output = Self;
    fn mul(self, o: &'a Self) -> Self {
        self * *o
    }
}
impl<C: Fp6Config> Neg for Fp6<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1, -self.c2)
    }
}
impl<C: Fp6Config> AddAssign for Fp6<C> {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}
impl<C: Fp6Config> SubAssign for Fp6<C> {
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}
impl<C: Fp6Config> MulAssign for Fp6<C> {
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}
impl<C: Fp6Config> Sum for Fp6<C> {
    fn sum<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::zero(), |a, b| a + b)
    }
}
impl<C: Fp6Config> Product for Fp6<C> {
    fn product<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::one(), |a, b| a * b)
    }
}

impl<C: Fp6Config> Field for Fp6<C> {
    fn zero() -> Self {
        Self::new(Fp2::zero(), Fp2::zero(), Fp2::zero())
    }
    fn one() -> Self {
        Self::new(Fp2::one(), Fp2::zero(), Fp2::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }
    fn square(&self) -> Self {
        *self * *self
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double(), self.c2.double())
    }
    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion via the adjoint.
        let xi = C::nonresidue();
        let a = self.c0.square() - xi * (self.c1 * self.c2);
        let b = xi * self.c2.square() - self.c0 * self.c1;
        let c = self.c1.square() - self.c0 * self.c2;
        let t = xi * (self.c2 * b + self.c1 * c) + self.c0 * a;
        t.inverse()
            .map(|tinv| Self::new(a * tinv, b * tinv, c * tinv))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fp2::random(rng), Fp2::random(rng), Fp2::random(rng))
    }
    fn from_u64(x: u64) -> Self {
        Self::new(Fp2::from_u64(x), Fp2::zero(), Fp2::zero())
    }
    fn characteristic() -> Vec<u64> {
        Fp2::<C::Fp2C>::characteristic()
    }
    fn extension_degree() -> usize {
        6
    }
}

/// Configuration of the top quadratic extension `Fp12 = Fp6[w] / (w² − v)`.
pub trait Fp12Config:
    'static + Copy + Clone + Default + PartialEq + Eq + Send + Sync + fmt::Debug + core::hash::Hash
{
    /// The cubic sub-tower.
    type Fp6C: Fp6Config;
    /// `ξ^((p^i − 1)/6)` for `i` in `0..12`.
    fn frobenius_c1(power: usize) -> Fp2<<Self::Fp6C as Fp6Config>::Fp2C>;
}

/// An element `c0 + c1·w` of the 12th-degree tower (the pairing target group
/// lives in its cyclotomic subgroup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp12<C: Fp12Config> {
    /// Constant coefficient.
    pub c0: Fp6<C::Fp6C>,
    /// Coefficient of `w`.
    pub c1: Fp6<C::Fp6C>,
    #[doc(hidden)]
    pub _marker: PhantomData<C>,
}

impl<C: Fp12Config> Fp12<C> {
    /// Builds an element from its two `Fp6` coefficients.
    pub fn new(c0: Fp6<C::Fp6C>, c1: Fp6<C::Fp6C>) -> Self {
        Self {
            c0,
            c1,
            _marker: PhantomData,
        }
    }

    /// Conjugation `c0 − c1·w` — the `p⁶`-Frobenius, and the inverse on the
    /// cyclotomic subgroup (unitary elements).
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// `p^power`-Frobenius endomorphism.
    pub fn frobenius_map(&self, power: usize) -> Self {
        let c0 = self.c0.frobenius_map(power);
        let c1 = self.c1.frobenius_map(power);
        let coeff = C::frobenius_c1(power % 12);
        Self::new(c0, Fp6::new(c1.c0 * coeff, c1.c1 * coeff, c1.c2 * coeff))
    }
}

impl<C: Fp12Config> fmt::Display for Fp12<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}*w)", self.c0, self.c1)
    }
}

impl<C: Fp12Config> Add for Fp12<C> {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1)
    }
}
impl<'a, C: Fp12Config> Add<&'a Fp12<C>> for Fp12<C> {
    type Output = Self;
    fn add(self, o: &'a Self) -> Self {
        self + *o
    }
}
impl<C: Fp12Config> Sub for Fp12<C> {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1)
    }
}
impl<'a, C: Fp12Config> Sub<&'a Fp12<C>> for Fp12<C> {
    type Output = Self;
    fn sub(self, o: &'a Self) -> Self {
        self - *o
    }
}
impl<C: Fp12Config> Mul for Fp12<C> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        // Karatsuba with w² = v.
        let v0 = self.c0 * o.c0;
        let v1 = self.c1 * o.c1;
        let c0 = v0 + v1.mul_by_nonresidue();
        let c1 = (self.c0 + self.c1) * (o.c0 + o.c1) - v0 - v1;
        Self::new(c0, c1)
    }
}
impl<'a, C: Fp12Config> Mul<&'a Fp12<C>> for Fp12<C> {
    type Output = Self;
    fn mul(self, o: &'a Self) -> Self {
        self * *o
    }
}
impl<C: Fp12Config> Neg for Fp12<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
impl<C: Fp12Config> AddAssign for Fp12<C> {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}
impl<C: Fp12Config> SubAssign for Fp12<C> {
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}
impl<C: Fp12Config> MulAssign for Fp12<C> {
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}
impl<C: Fp12Config> Sum for Fp12<C> {
    fn sum<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::zero(), |a, b| a + b)
    }
}
impl<C: Fp12Config> Product for Fp12<C> {
    fn product<I: Iterator<Item = Self>>(it: I) -> Self {
        it.fold(Self::one(), |a, b| a * b)
    }
}

impl<C: Fp12Config> Field for Fp12<C> {
    fn zero() -> Self {
        Self::new(Fp6::zero(), Fp6::zero())
    }
    fn one() -> Self {
        Self::new(Fp6::one(), Fp6::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn square(&self) -> Self {
        // Complex squaring with w² = v.
        let v0 = self.c0 * self.c1;
        let c0 = (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_nonresidue())
            - v0
            - v0.mul_by_nonresidue();
        let c1 = v0.double();
        Self::new(c0, c1)
    }
    fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }
    fn inverse(&self) -> Option<Self> {
        let t = self.c0.square() - self.c1.square().mul_by_nonresidue();
        t.inverse()
            .map(|tinv| Self::new(self.c0 * tinv, -(self.c1 * tinv)))
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fp6::random(rng), Fp6::random(rng))
    }
    fn from_u64(x: u64) -> Self {
        Self::new(Fp6::from_u64(x), Fp6::zero())
    }
    fn characteristic() -> Vec<u64> {
        Fp6::<C::Fp6C>::characteristic()
    }
    fn extension_degree() -> usize {
        12
    }
}
