//! Core field traits shared by the whole workspace.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// An element of a finite field (prime field or extension tower).
///
/// The trait deliberately stays small: it is what the NTT, MSM, curve and
/// Groth16 layers need, nothing more. All implementors are plain-old-data
/// (`Copy`) and thread-safe.
pub trait Field:
    'static
    + Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + for<'a> Add<&'a Self, Output = Self>
    + for<'a> Sub<&'a Self, Output = Self>
    + for<'a> Mul<&'a Self, Output = Self>
    + Sum<Self>
    + Product<Self>
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool;

    /// Whether this element is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// `self * self`.
    fn square(&self) -> Self;

    /// `self + self`.
    fn double(&self) -> Self;

    /// Multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Exponentiation by a little-endian u64-limb exponent.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        let mut found_one = false;
        for i in (0..64 * exp.len()).rev() {
            if found_one {
                res = res.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                res *= *self;
                found_one = true;
            }
        }
        res
    }

    /// Uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// Embeds a small integer.
    fn from_u64(x: u64) -> Self;

    /// Characteristic of the field as little-endian limbs.
    fn characteristic() -> Vec<u64>;

    /// Extension degree over the prime subfield (1 for `Fp`, 2 for `Fp2`, …).
    /// Cost models use this to price extension-field arithmetic.
    fn extension_degree() -> usize {
        1
    }

    /// 64-bit limbs of one prime-subfield element (cost-model keying).
    fn base_limbs() -> usize {
        Self::characteristic().len()
    }

    /// The batched inversion behind [`batch_inverse_scratch`]: inverts
    /// every non-zero entry of `values` in place, leaves zeros untouched
    /// and returns how many entries it inverted. The default is
    /// Montgomery's trick in this field ([`montgomery_batch_inverse`]); a
    /// tower with a cheaper route overrides it (`Fp2` batches its
    /// base-field norms). `prod` is scratch, left empty.
    fn batch_invert(values: &mut [Self], prod: &mut Vec<Self>) -> usize {
        montgomery_batch_inverse(values, prod)
    }
}

/// A prime field `F_p`, with the extra structure the NTT/MSM/Groth16 stack
/// relies on: a canonical integer representation, two-adic roots of unity,
/// and square roots.
pub trait PrimeField: Field + PartialOrd + Ord {
    /// Number of 64-bit limbs in the canonical representation.
    const NUM_LIMBS: usize;

    /// Bits in the modulus (254 for ALT-BN128 Fr, 255 BLS12-381 Fr, 753 for T753 Fq).
    const MODULUS_BITS: u32;

    /// Largest `s` with `2^s | p - 1`; the field supports NTTs up to size `2^s`.
    const TWO_ADICITY: u32;

    /// Canonical little-endian limb representation (out of Montgomery form).
    fn to_limbs(&self) -> Vec<u64>;

    /// Builds an element from little-endian limbs; `None` if `>= p`.
    fn from_limbs(limbs: &[u64]) -> Option<Self>;

    /// A generator of the `2^TWO_ADICITY` roots of unity.
    fn two_adic_root_of_unity() -> Self;

    /// Returns a primitive `n`-th root of unity for power-of-two `n`,
    /// or `None` when `n` exceeds `2^TWO_ADICITY`.
    fn root_of_unity(n: u64) -> Option<Self> {
        if !n.is_power_of_two() {
            return None;
        }
        let log_n = n.trailing_zeros();
        if log_n > Self::TWO_ADICITY {
            return None;
        }
        let mut omega = Self::two_adic_root_of_unity();
        for _ in log_n..Self::TWO_ADICITY {
            omega = omega.square();
        }
        Some(omega)
    }

    /// A fixed multiplicative generator (quadratic non-residue).
    fn multiplicative_generator() -> Self;

    /// Square root via Tonelli–Shanks, if one exists.
    fn sqrt(&self) -> Option<Self>;

    /// Whether `4p < 2^(64·NUM_LIMBS)`, so the NTT may keep its values in
    /// `[0, 4p)` between butterfly levels and reduce them once, as they
    /// leave the transform (Harvey, "Faster arithmetic for number-theoretic
    /// transforms", 2014). Derived from the modulus; the default `false`
    /// is the strict butterfly on canonical values.
    const LAZY_BUTTERFLY: bool = false;

    /// The radix-2 butterfly `(x, y) ← (x + w·y, x − w·y)` for a canonical
    /// twiddle `w`. Under [`PrimeField::LAZY_BUTTERFLY`] inputs and outputs
    /// are in `[0, 4p)` and equal the strict butterfly's modulo `p`;
    /// otherwise (the default) they are canonical.
    #[inline]
    fn butterfly(x: &mut Self, y: &mut Self, w: &Self) {
        let t = *y * *w;
        *y = *x - t;
        *x += t;
    }

    /// [`PrimeField::butterfly`] by `w = ω⁰ = 1`: no multiplication.
    #[inline]
    fn butterfly_by_one(x: &mut Self, y: &mut Self) {
        let t = *y;
        *y = *x - t;
        *x += t;
    }

    /// Makes a butterfly output canonical: `[0, 4p)` → `[0, p)` under
    /// [`PrimeField::LAZY_BUTTERFLY`], nothing otherwise.
    #[inline]
    fn reduce_lazy(&mut self) {}

    /// Whether the canonical representation is larger than `(p-1)/2`.
    fn is_odd_repr(&self) -> bool {
        self.to_limbs()[0] & 1 == 1
    }
}

/// Batch inversion via Montgomery's trick: inverts all non-zero entries in
/// place using a single field inversion and `3(n-1)` multiplications.
/// Zero entries are left untouched.
///
/// # Examples
///
/// ```
/// # use gzkp_ff::{Field, batch_inverse};
/// # use gzkp_ff::fields::Fr254;
/// let mut v = vec![Fr254::from_u64(2), Fr254::zero(), Fr254::from_u64(8)];
/// batch_inverse(&mut v);
/// assert_eq!(v[0] * Fr254::from_u64(2), Fr254::one());
/// assert!(v[1].is_zero());
/// ```
pub fn batch_inverse<F: Field>(values: &mut [F]) {
    batch_inverse_count(values);
}

/// [`batch_inverse`] that also reports how many non-zero entries were
/// inverted — i.e. how many individual field inversions Montgomery's
/// trick amortized into the single one performed here. The MSM's
/// batch-affine accumulator feeds the count into its savings telemetry.
pub fn batch_inverse_count<F: Field>(values: &mut [F]) -> usize {
    batch_inverse_scratch(values, &mut Vec::with_capacity(values.len()))
}

/// [`batch_inverse_count`] with a caller-owned scratch buffer, so a loop
/// of batched inversions (the MSM's in-place bucket reducer runs one per
/// round) allocates nothing. `prod` is cleared first and left empty. The
/// work is the field's own [`Field::batch_invert`].
pub fn batch_inverse_scratch<F: Field>(values: &mut [F], prod: &mut Vec<F>) -> usize {
    F::batch_invert(values, prod)
}

/// Montgomery's trick: the prefix products of the non-zero entries, one
/// field inversion of their product, and `3(n − 1)` multiplications back.
/// The default [`Field::batch_invert`]; `prod` holds the prefix products.
pub fn montgomery_batch_inverse<F: Field>(values: &mut [F], prod: &mut Vec<F>) -> usize {
    // Prefix products of the non-zero entries.
    prod.clear();
    let mut acc = F::one();
    for v in values.iter() {
        if !v.is_zero() {
            prod.push(acc);
            acc *= *v;
        }
    }
    let inverted = prod.len();
    let mut inv = match acc.inverse() {
        Some(i) => i,
        None => return 0, // all zero
    };
    for v in values.iter_mut().rev() {
        if v.is_zero() {
            continue;
        }
        let p = prod.pop().expect("prefix product stack in sync");
        let new_v = inv * p;
        inv *= *v;
        *v = new_v;
    }
    inverted
}
