//! Static Montgomery-form prime fields `Fp<P, N>`.
//!
//! A field is declared by implementing [`FpParams`] with just the modulus, a
//! small multiplicative generator (quadratic non-residue) and the 2-adicity.
//! All Montgomery constants (`R`, `R²`, `-p⁻¹ mod 2⁶⁴`) are derived at
//! compile time by `const fn`; the two-adic root of unity is derived lazily
//! at first use and cached.
//!
//! The multiplication kernel is the CIOS (Coarsely Integrated Operand
//! Scanning) Montgomery multiplication the paper's finite-field library is
//! built around (§4.3), specialized per limb count by monomorphization, in
//! its "no-carry" form (Botrel and El Housni, "Faster big-integer modular
//! multiplication for most moduli", as in gnark-crypto): no word above the
//! limbs is carried from round to round. That needs a modulus with spare
//! top bits — `a + p < 2^(64N)` for every left operand `a`, so `5p <
//! 2^(64N)` on a field whose NTT hands the product values up to `4p` and
//! `2p < 2^(64N)` on the others — and a field without them fails to build
//! at its first multiplication rather than multiply wrongly:
//!
//! ```compile_fail
//! use gzkp_ff::bigint::BigInt;
//! use gzkp_ff::{Field, Fp, FpParams};
//!
//! /// 2²⁵⁶ − 189: a prime with no spare bit.
//! #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
//! struct Full256;
//! impl FpParams<4> for Full256 {
//!     const MODULUS: BigInt<4> = BigInt([u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX]);
//!     const TWO_ADICITY: u32 = 1;
//!     const GENERATOR: u64 = 2;
//!     const NAME: &'static str = "Full256";
//! }
//! let two = Fp::<Full256, 4>::one().double();
//! let _ = two * two;
//! ```

use crate::bigint::{adc, mac, BigInt};
use crate::traits::{Field, PrimeField};
use core::fmt;
use core::hash::{Hash, Hasher};
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// Compile-time parameters of a prime field with `N` 64-bit limbs.
///
/// Only the modulus and two small seeds are supplied; everything else is
/// derived. Implementors are zero-sized marker types.
pub trait FpParams<const N: usize>:
    'static
    + Copy
    + Clone
    + Default
    + PartialEq
    + Eq
    + Send
    + Sync
    + core::fmt::Debug
    + core::hash::Hash
{
    /// The prime modulus.
    const MODULUS: BigInt<N>;
    /// Largest `s` such that `2^s` divides `MODULUS - 1`.
    const TWO_ADICITY: u32;
    /// A small multiplicative generator of the field (must be a quadratic
    /// non-residue); verified by `Fp::<Self, N>::self_check()` in tests.
    const GENERATOR: u64;
    /// Human-readable field name for diagnostics.
    const NAME: &'static str;
}

/// `-p^{-1} mod 2^64` for CIOS reduction.
pub(crate) const fn mont_inv<const N: usize>(modulus: &BigInt<N>) -> u64 {
    // Newton iteration doubles correct low bits each step; p0 is odd.
    let p0 = modulus.0[0];
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(inv).wrapping_mul(p0);
        i += 1;
    }
    inv.wrapping_neg()
}

/// `2^(64·N·pow) mod p` computed by repeated doubling (const-friendly).
pub(crate) const fn compute_r<const N: usize>(modulus: &BigInt<N>, pow: usize) -> BigInt<N> {
    // Start from 1 and double 64*N*pow times, reducing mod p.
    let mut acc = BigInt::<N>::ONE;
    // Reduce the initial 1 is unnecessary (p > 1).
    let total = 64 * N * pow;
    let mut i = 0;
    while i < total {
        let (doubled, carry) = acc.const_double();
        acc = doubled;
        // If we overflowed 2^(64N) or acc >= p, subtract p.
        if carry != 0 || acc.const_cmp(modulus) >= 0 {
            let (r, _) = acc.const_sub(modulus);
            acc = r;
        }
        i += 1;
    }
    acc
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use gzkp_ff::{Field, PrimeField};
/// use gzkp_ff::fields::Fr254;
/// let a = Fr254::from_u64(3);
/// let b = a.inverse().unwrap();
/// assert_eq!(a * b, Fr254::one());
/// ```
pub struct Fp<P, const N: usize>(pub BigInt<N>, pub PhantomData<P>);

impl<P: FpParams<N>, const N: usize> Fp<P, N> {
    /// `R = 2^(64N) mod p` — the Montgomery form of one.
    pub const R: BigInt<N> = compute_r::<N>(&P::MODULUS, 1);
    /// `R² mod p` — used to convert into Montgomery form.
    pub const R2: BigInt<N> = compute_r::<N>(&P::MODULUS, 2);
    /// `-p^{-1} mod 2^64`.
    pub const INV: u64 = mont_inv::<N>(&P::MODULUS);

    /// The zero element.
    pub const ZERO: Self = Self(BigInt::ZERO, PhantomData);
    /// The one element (Montgomery form of 1).
    pub const ONE: Self = Self(Self::R, PhantomData);

    /// Montgomery multiplication: computes `a * b * R^{-1} mod p` as the
    /// CIOS core plus one conditional subtraction of `p`.
    #[inline]
    fn mont_mul(a: &BigInt<N>, b: &BigInt<N>) -> BigInt<N> {
        Self::reduce(Self::cios(a, b), 0)
    }

    /// Whether the modulus leaves [`Self::cios`] its spare bits: `a + p <
    /// 2^(64N)` for the largest left operand `a` it is handed — `4p − 1`
    /// on a [`Self::LAZY`] field, `p − 1` otherwise.
    const fn no_carry_fits() -> bool {
        let (p2, c2) = P::MODULUS.const_double();
        if !Self::LAZY {
            return c2 == 0;
        }
        let (p4, c4) = p2.const_double();
        let (_, c5) = p4.const_add(&P::MODULUS);
        c2 | c4 | c5 == 0
    }

    /// The no-carry CIOS (Coarsely Integrated Operand Scanning) Montgomery
    /// product with no final subtraction: `(a·b + m·p) / R` for the `m < R`
    /// that makes the division exact. A round maps `t < a + p` to `(t +
    /// a·bᵢ + mᵢ·p) / 2⁶⁴ < a + p`, so while `a + p < R` the value fits the
    /// limbs: the carry chains of `a·bᵢ` and `mᵢ·p` meet in the top limb
    /// without overflowing it, and no word above the limbs is kept. For
    /// `a·b < R·p` the value is below `2p`.
    #[inline(always)]
    fn cios(a: &BigInt<N>, b: &BigInt<N>) -> BigInt<N> {
        const {
            assert!(
                Self::no_carry_fits(),
                "the no-carry product needs 5p < 2^(64N) on a field with two \
                 spare bits and 2p < 2^(64N) on the others"
            )
        };
        let m = &P::MODULUS.0;
        let mut t = [0u64; N];
        for &bi in &b.0 {
            let (t0, mut carry_ab) = mac(t[0], a.0[0], bi, 0);
            let k = t0.wrapping_mul(Self::INV);
            let (_, mut carry_mp) = mac(t0, k, m[0], 0);
            for j in 1..N {
                let (tj, hi) = mac(t[j], a.0[j], bi, carry_ab);
                carry_ab = hi;
                (t[j - 1], carry_mp) = mac(tj, k, m[j], carry_mp);
            }
            t[N - 1] = carry_ab + carry_mp;
        }
        BigInt(t)
    }

    /// Reduces the output of the CIOS or SOS core, `carry·2^(64N) + v <
    /// 2p`. A branch, not a mask: a Montgomery product needs the
    /// subtraction rarely (about `p / 4R` of the time), so it is predicted.
    #[inline]
    fn reduce(mut v: BigInt<N>, carry: u64) -> BigInt<N> {
        if carry != 0 || v.const_cmp(&P::MODULUS) >= 0 {
            let (r, _) = v.const_sub(&P::MODULUS);
            v = r;
        }
        v
    }

    /// `4p < 2^(64N)`: the top limb leaves two bits spare, so the NTT's
    /// values in `[0, 4p)` fit the limbs (Harvey's lazy butterfly).
    const LAZY: bool = P::MODULUS.0[N - 1] >> 62 == 0;

    /// `2p`; only read when [`Self::LAZY`] holds, so it does not overflow.
    const TWO_P: BigInt<N> = P::MODULUS.const_double().0;

    /// `v − m` if `carry·2^(64N) + v ≥ m`, else `v`: one subtraction, kept
    /// or dropped by a mask of its borrow and `carry` (the bit above the
    /// limbs, so a modulus with no spare bit is served too). Branch-free,
    /// because in a butterfly or a sum the condition is a coin flip that a
    /// branch would mispredict half the time.
    #[inline(always)]
    fn sub_if_ge(v: BigInt<N>, carry: u64, m: &BigInt<N>) -> BigInt<N> {
        let (mut d, borrow) = v.const_sub(m);
        let keep_v = (borrow & !carry).wrapping_neg();
        for (di, vi) in d.0.iter_mut().zip(v.0) {
            *di ^= (*di ^ vi) & keep_v;
        }
        d
    }

    /// `p` if `bit` is 1, zero if it is 0, by a mask: `Sub` adds it back
    /// after a borrow without branching on what is a coin flip.
    #[inline(always)]
    fn modulus_if(bit: u64) -> BigInt<N> {
        let mut p = P::MODULUS;
        for limb in p.0.iter_mut() {
            *limb &= bit.wrapping_neg();
        }
        p
    }

    /// The lazy butterfly's tail: `x ∈ [0, 2p)` and `q ∈ [0, 2p)` give
    /// `(x + q, x + 2p − q)`, both in `[0, 4p)`. No sum overflows the limbs
    /// because `4p < 2^(64N)`.
    #[inline(always)]
    fn lazy_pair(x: BigInt<N>, q: BigInt<N>) -> (Self, Self) {
        let (sum, _) = x.const_add(&q);
        let (x2p, _) = x.const_add(&Self::TWO_P);
        let (diff, _) = x2p.const_sub(&q);
        (Self(sum, PhantomData), Self(diff, PhantomData))
    }

    /// Montgomery squaring `a² · R^{-1} mod p` by SOS (Separated Operand
    /// Scanning): the `N(N−1)/2` cross products once, doubled, plus the `N`
    /// diagonal squares, then `N` reduction rounds as in [`Self::cios`] —
    /// `N(N+1)/2` word products for the square against `N²` in
    /// [`Self::mont_mul`]. The simulated clock prices a squaring as a
    /// multiplication; only the host pays less.
    #[inline]
    fn mont_square(a: &BigInt<N>) -> BigInt<N> {
        let a = &a.0;
        // a² as 2N limbs: limb k is w[k / N][k % N].
        let mut w = [[0u64; N]; 2];
        for i in 0..N - 1 {
            let mut carry = 0u64;
            for j in i + 1..N {
                let k = i + j;
                (w[k / N][k % N], carry) = mac(w[k / N][k % N], a[i], a[j], carry);
            }
            w[1][i] = carry;
        }
        let (mut shifted, mut carry) = (0u64, 0u64);
        for (i, &ai) in a.iter().enumerate() {
            let (k0, k1) = (2 * i, 2 * i + 1);
            let (x0, x1) = (w[k0 / N][k0 % N], w[k1 / N][k1 % N]);
            let (lo, hi) = mac((x0 << 1) | shifted, ai, ai, carry);
            w[k0 / N][k0 % N] = lo;
            (w[k1 / N][k1 % N], carry) = adc((x1 << 1) | (x0 >> 63), hi, 0);
            shifted = x1 >> 63;
        }
        let [mut t, high] = w;
        let m = &P::MODULUS.0;
        let mut top = 0u64;
        for &hi_limb in &high {
            let k = t[0].wrapping_mul(Self::INV);
            let (_, mut carry) = mac(t[0], k, m[0], 0);
            for j in 1..N {
                (t[j - 1], carry) = mac(t[j], k, m[j], carry);
            }
            (t[N - 1], top) = adc(hi_limb, carry, top);
        }
        Self::reduce(BigInt(t), top)
    }

    /// Verifies derived constants and parameter sanity. Called from tests of
    /// every concrete field.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (wrong 2-adicity, generator
    /// is a quadratic residue, modulus even, ...).
    #[cfg(test)]
    pub(crate) fn self_check() {
        assert!(!P::MODULUS.is_even(), "{}: modulus must be odd", P::NAME);
        // 2-adicity: 2^TWO_ADICITY divides p-1, 2^(TWO_ADICITY+1) does not.
        let (pm1, _) = P::MODULUS.const_sub(&BigInt::ONE);
        let mut t = pm1;
        for _ in 0..P::TWO_ADICITY {
            assert!(t.is_even(), "{}: 2-adicity overstated", P::NAME);
            t.div2();
        }
        assert!(!t.is_even(), "{}: 2-adicity understated", P::NAME);
        // Generator must be a non-residue: g^((p-1)/2) == -1.
        let mut half = pm1;
        half.div2();
        let g = Self::from_u64(P::GENERATOR);
        let legendre = g.pow(&half.0);
        assert_eq!(
            legendre,
            -Self::ONE,
            "{}: GENERATOR {} is a quadratic residue",
            P::NAME,
            P::GENERATOR
        );
        // Root of unity has exact order 2^TWO_ADICITY.
        let root = Self::two_adic_root_of_unity();
        let mut w = root;
        for _ in 0..P::TWO_ADICITY - 1 {
            w = w.square();
        }
        assert_ne!(w, Self::ONE, "{}: root order too small", P::NAME);
        assert_eq!(w.square(), Self::ONE, "{}: root order too large", P::NAME);
    }
}

// --- manual trait impls (avoid bounds-on-derive problems with PhantomData) ---

impl<P: FpParams<N>, const N: usize> Copy for Fp<P, N> {}
impl<P: FpParams<N>, const N: usize> Clone for Fp<P, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FpParams<N>, const N: usize> PartialEq for Fp<P, N> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: FpParams<N>, const N: usize> Eq for Fp<P, N> {}
impl<P: FpParams<N>, const N: usize> Hash for Fp<P, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0 .0.hash(state);
    }
}
impl<P: FpParams<N>, const N: usize> Default for Fp<P, N> {
    fn default() -> Self {
        Self::ZERO
    }
}
impl<P: FpParams<N>, const N: usize> PartialOrd for Fp<P, N> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: FpParams<N>, const N: usize> Ord for Fp<P, N> {
    /// Compares by canonical (non-Montgomery) integer representation.
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        let a = Self::mont_mul(&self.0, &BigInt::ONE);
        let b = Self::mont_mul(&other.0, &BigInt::ONE);
        a.cmp(&b)
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Debug for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let canon = Self::mont_mul(&self.0, &BigInt::ONE);
        write!(f, "{}({})", P::NAME, canon.to_hex())
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Display for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let canon = Self::mont_mul(&self.0, &BigInt::ONE);
        write!(f, "{}", canon.to_hex())
    }
}

impl<P: FpParams<N>, const N: usize> Add for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let (sum, carry) = self.0.const_add(&rhs.0);
        Self(Self::sub_if_ge(sum, carry, &P::MODULUS), PhantomData)
    }
}
impl<'a, P: FpParams<N>, const N: usize> Add<&'a Fp<P, N>> for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: &'a Self) -> Self {
        self + *rhs
    }
}
impl<P: FpParams<N>, const N: usize> Sub for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (diff, borrow) = self.0.const_sub(&rhs.0);
        Self(diff.const_add(&Self::modulus_if(borrow)).0, PhantomData)
    }
}
impl<'a, P: FpParams<N>, const N: usize> Sub<&'a Fp<P, N>> for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: &'a Self) -> Self {
        self - *rhs
    }
}
impl<P: FpParams<N>, const N: usize> Mul for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(Self::mont_mul(&self.0, &rhs.0), PhantomData)
    }
}
impl<'a, P: FpParams<N>, const N: usize> Mul<&'a Fp<P, N>> for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: &'a Self) -> Self {
        self * *rhs
    }
}
impl<P: FpParams<N>, const N: usize> Neg for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0.is_zero() {
            self
        } else {
            let (r, _) = P::MODULUS.const_sub(&self.0);
            Self(r, PhantomData)
        }
    }
}
impl<P: FpParams<N>, const N: usize> AddAssign for Fp<P, N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<P: FpParams<N>, const N: usize> SubAssign for Fp<P, N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<P: FpParams<N>, const N: usize> MulAssign for Fp<P, N> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<P: FpParams<N>, const N: usize> Sum for Fp<P, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl<P: FpParams<N>, const N: usize> Product for Fp<P, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<P: FpParams<N>, const N: usize> Field for Fp<P, N> {
    fn zero() -> Self {
        Self::ZERO
    }
    fn one() -> Self {
        Self::ONE
    }
    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
    #[inline]
    fn square(&self) -> Self {
        Self(Self::mont_square(&self.0), PhantomData)
    }
    #[inline]
    fn double(&self) -> Self {
        let (d, carry) = self.0.const_double();
        Self(Self::sub_if_ge(d, carry, &P::MODULUS), PhantomData)
    }

    /// Binary extended-Euclid inversion in the Montgomery domain
    /// (Guajardo–Kumar–Paar–Pelzl variant): for input `aR` produces `a⁻¹R`.
    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let one = BigInt::<N>::ONE;
        let mut u = self.0;
        let mut v = P::MODULUS;
        let mut b = Self(Self::R2, PhantomData); // tracks u's cofactor
        let mut c = Self::ZERO; // tracks v's cofactor
        while u != one && v != one {
            while u.is_even() {
                u.div2();
                if b.0.is_even() {
                    b.0.div2();
                } else {
                    let carry = b.0.add_with_carry(&P::MODULUS);
                    b.0.div2_with_top_bit(carry);
                }
            }
            while v.is_even() {
                v.div2();
                if c.0.is_even() {
                    c.0.div2();
                } else {
                    let carry = c.0.add_with_carry(&P::MODULUS);
                    c.0.div2_with_top_bit(carry);
                }
            }
            if u.const_cmp(&v) >= 0 {
                u.sub_with_borrow(&v);
                b -= c;
            } else {
                v.sub_with_borrow(&u);
                c -= b;
            }
        }
        Some(if u == one { b } else { c })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on the canonical range, then convert to
        // Montgomery form by multiplying with R².
        loop {
            let mut limbs = [0u64; N];
            for l in limbs.iter_mut() {
                *l = rng.gen();
            }
            // Mask the top limb down to the modulus bit length to make the
            // accept probability at least 1/2.
            let top_bits = P::MODULUS.num_bits() as usize - 64 * (N - 1);
            if top_bits < 64 {
                limbs[N - 1] &= (1u64 << top_bits) - 1;
            }
            let candidate = BigInt(limbs);
            if candidate.const_cmp(&P::MODULUS) < 0 {
                return Self(Self::mont_mul(&candidate, &Self::R2), PhantomData);
            }
        }
    }

    fn from_u64(x: u64) -> Self {
        Self(Self::mont_mul(&BigInt::from_u64(x), &Self::R2), PhantomData)
    }

    fn characteristic() -> Vec<u64> {
        P::MODULUS.0.to_vec()
    }
}

impl<P: FpParams<N>, const N: usize> PrimeField for Fp<P, N> {
    const NUM_LIMBS: usize = N;
    const MODULUS_BITS: u32 = P::MODULUS.num_bits();
    const TWO_ADICITY: u32 = P::TWO_ADICITY;

    const LAZY_BUTTERFLY: bool = Self::LAZY;

    /// Harvey's butterfly when [`PrimeField::LAZY_BUTTERFLY`]: `x ← x − 2p if x ≥ 2p`,
    /// `q ← w·y` by the CIOS core alone (`y < 4p`, `w < p` and `4p < R`
    /// give `q < 2p`), then `(x + q, x + 2p − q)`.
    #[inline]
    fn butterfly(x: &mut Self, y: &mut Self, w: &Self) {
        if !Self::LAZY {
            let t = *y * *w;
            *y = *x - t;
            *x += t;
            return;
        }
        let q = Self::cios(&y.0, &w.0);
        (*x, *y) = Self::lazy_pair(Self::sub_if_ge(x.0, 0, &Self::TWO_P), q);
    }

    #[inline]
    fn butterfly_by_one(x: &mut Self, y: &mut Self) {
        if !Self::LAZY {
            let t = *y;
            *y = *x - t;
            *x += t;
            return;
        }
        let q = Self::sub_if_ge(y.0, 0, &Self::TWO_P);
        (*x, *y) = Self::lazy_pair(Self::sub_if_ge(x.0, 0, &Self::TWO_P), q);
    }

    #[inline]
    fn reduce_lazy(&mut self) {
        if Self::LAZY {
            self.0 = Self::sub_if_ge(Self::sub_if_ge(self.0, 0, &Self::TWO_P), 0, &P::MODULUS);
        }
    }

    fn to_limbs(&self) -> Vec<u64> {
        Self::mont_mul(&self.0, &BigInt::ONE).0.to_vec()
    }

    fn from_limbs(limbs: &[u64]) -> Option<Self> {
        if limbs.len() > N && limbs[N..].iter().any(|&l| l != 0) {
            return None;
        }
        let mut arr = [0u64; N];
        arr[..limbs.len().min(N)].copy_from_slice(&limbs[..limbs.len().min(N)]);
        let v = BigInt(arr);
        if v.const_cmp(&P::MODULUS) >= 0 {
            return None;
        }
        Some(Self(Self::mont_mul(&v, &Self::R2), PhantomData))
    }

    fn two_adic_root_of_unity() -> Self {
        // g^((p-1)/2^s); cached per concrete field via a type-keyed map is
        // overkill — the pow is ~MODULUS_BITS squarings, and every transform
        // reads its twiddles from `gzkp_ntt`'s process-wide store, built once
        // per (field, size).
        let (pm1, _) = P::MODULUS.const_sub(&BigInt::ONE);
        let mut exp = pm1;
        for _ in 0..P::TWO_ADICITY {
            exp.div2();
        }
        Self::from_u64(P::GENERATOR).pow(&exp.0)
    }

    fn multiplicative_generator() -> Self {
        Self::from_u64(P::GENERATOR)
    }

    /// Tonelli–Shanks square root.
    fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        // Legendre symbol check: a^((p-1)/2) must be 1.
        let (pm1, _) = P::MODULUS.const_sub(&BigInt::ONE);
        let mut half = pm1;
        half.div2();
        if self.pow(&half.0) != Self::ONE {
            return None;
        }
        // Write p - 1 = q * 2^s with q odd.
        let mut q = pm1;
        for _ in 0..P::TWO_ADICITY {
            q.div2();
        }
        let mut z = Self::two_adic_root_of_unity();
        let mut m = P::TWO_ADICITY;
        let mut t = self.pow(&q.0);
        // r = a^((q+1)/2)
        let (q1, _) = q.const_add(&BigInt::ONE);
        let mut q1h = q1;
        q1h.div2();
        let mut r = self.pow(&q1h.0);
        while t != Self::ONE {
            // Find least i with t^(2^i) = 1.
            let mut i = 0u32;
            let mut t2 = t;
            while t2 != Self::ONE {
                t2 = t2.square();
                i += 1;
                if i == m {
                    return None;
                }
            }
            let mut b = z;
            for _ in 0..(m - i - 1) {
                b = b.square();
            }
            m = i;
            z = b.square();
            t *= z;
            r *= b;
        }
        debug_assert_eq!(r.square(), *self);
        Some(r)
    }
}

// --- serde: canonical little-endian limb encoding ---

impl<P: FpParams<N>, const N: usize> serde::Serialize for Fp<P, N> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_limbs().serialize(serializer)
    }
}

impl<'de, P: FpParams<N>, const N: usize> serde::Deserialize<'de> for Fp<P, N> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let limbs = Vec::<u64>::deserialize(deserializer)?;
        Self::from_limbs(&limbs)
            .ok_or_else(|| serde::de::Error::custom("field element out of range"))
    }
}
