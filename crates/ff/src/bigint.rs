//! Fixed-width little-endian big integers backed by `[u64; N]`.
//!
//! These are the raw limb containers underneath the Montgomery prime fields
//! in [`crate::fp`]. All arithmetic here is plain integer arithmetic (no
//! modular reduction); everything is `const fn`-friendly where the field
//! parameter derivation needs it.

use core::cmp::Ordering;
use core::fmt;

/// A fixed-width little-endian unsigned big integer with `N` 64-bit limbs.
///
/// Limb 0 is the least significant. `BigInt<4>` holds 256 bits, `BigInt<6>`
/// 384 bits, `BigInt<12>` 768 bits, which cover the paper's 256-, 381- and
/// 753-bit fields respectively.
///
/// # Examples
///
/// ```
/// use gzkp_ff::bigint::BigInt;
/// let a = BigInt::<4>::from_u64(7);
/// let b = BigInt::<4>::from_u64(5);
/// assert!(a > b);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct BigInt<const N: usize>(pub [u64; N]);

impl<const N: usize> Default for BigInt<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

/// `(a + b + carry)` returning `(low, high)` where `high` is the new carry.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `(a - b - borrow)` returning `(low, borrow_out)` with `borrow_out` in {0,1}.
#[inline(always)]
pub(crate) const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a + b * c + carry` returning `(low, high)`. The multiply-accumulate core
/// of CIOS Montgomery multiplication.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

impl<const N: usize> BigInt<N> {
    /// The zero value.
    pub const ZERO: Self = Self([0u64; N]);

    /// The one value.
    pub const ONE: Self = {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        Self(limbs)
    };

    /// Creates a big integer from a single `u64`.
    pub const fn from_u64(x: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = x;
        Self(limbs)
    }

    /// Creates a big integer from a little-endian limb array.
    pub const fn new(limbs: [u64; N]) -> Self {
        Self(limbs)
    }

    /// Returns true if every limb is zero.
    pub const fn is_zero(&self) -> bool {
        let mut i = 0;
        while i < N {
            if self.0[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Returns true if the integer is even.
    pub const fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Constant-friendly comparison: -1, 0, 1 as i8.
    pub(crate) const fn const_cmp(&self, other: &Self) -> i8 {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] < other.0[i] {
                return -1;
            }
            if self.0[i] > other.0[i] {
                return 1;
            }
        }
        0
    }

    /// In-place addition; returns the carry out (0 or 1).
    pub const fn const_add(mut self, other: &Self) -> (Self, u64) {
        let mut carry = 0;
        let mut i = 0;
        while i < N {
            let (lo, c) = adc(self.0[i], other.0[i], carry);
            self.0[i] = lo;
            carry = c;
            i += 1;
        }
        (self, carry)
    }

    /// In-place subtraction; returns the borrow out (0 or 1).
    pub const fn const_sub(mut self, other: &Self) -> (Self, u64) {
        let mut borrow = 0;
        let mut i = 0;
        while i < N {
            let (lo, b) = sbb(self.0[i], other.0[i], borrow);
            self.0[i] = lo;
            borrow = b;
            i += 1;
        }
        (self, borrow)
    }

    /// Doubles the integer, returning the carry-out bit.
    pub(crate) const fn const_double(mut self) -> (Self, u64) {
        let mut carry = 0;
        let mut i = 0;
        while i < N {
            let next = self.0[i] >> 63;
            self.0[i] = (self.0[i] << 1) | carry;
            carry = next;
            i += 1;
        }
        (self, carry)
    }

    /// Adds `other` in place, returning the carry out.
    pub(crate) fn add_with_carry(&mut self, other: &Self) -> u64 {
        let (r, c) = self.const_add(other);
        *self = r;
        c
    }

    /// Subtracts `other` in place, returning the borrow out.
    pub fn sub_with_borrow(&mut self, other: &Self) -> u64 {
        let (r, b) = self.const_sub(other);
        *self = r;
        b
    }

    /// Halves the integer (logical shift right by one bit).
    pub fn div2(&mut self) {
        let mut carry = 0u64;
        for i in (0..N).rev() {
            let next = self.0[i] & 1;
            self.0[i] = (self.0[i] >> 1) | (carry << 63);
            carry = next;
        }
    }

    /// Halves the integer with an incoming top bit (used after an addition
    /// that overflowed into a carry).
    pub(crate) fn div2_with_top_bit(&mut self, top: u64) {
        self.div2();
        if top != 0 {
            self.0[N - 1] |= 1u64 << 63;
        }
    }

    /// Number of significant bits (position of the highest set bit + 1).
    pub const fn num_bits(&self) -> u32 {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Parses a hexadecimal string (optionally `0x`-prefixed, big-endian
    /// digits as conventionally written).
    ///
    /// # Panics
    ///
    /// Panics on invalid hex digits or if the value does not fit in `N` limbs.
    pub fn from_hex(s: &str) -> Self {
        let s = s.trim().trim_start_matches("0x").trim_start_matches("0X");
        let mut limbs = [0u64; N];
        let digits: Vec<u8> = s
            .bytes()
            .filter(|b| !b.is_ascii_whitespace() && *b != b'_')
            .map(|b| match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => panic!("invalid hex digit {}", b as char),
            })
            .collect();
        assert!(
            digits.len() <= N * 16,
            "hex literal too long for BigInt<{N}>"
        );
        for (i, d) in digits.iter().rev().enumerate() {
            limbs[i / 16] |= (*d as u64) << (4 * (i % 16));
        }
        Self(limbs)
    }

    /// Parses a decimal string.
    ///
    /// # Panics
    ///
    /// Panics on non-digit characters or overflow of `N` limbs.
    pub fn from_decimal(s: &str) -> Self {
        let mut acc = Self::ZERO;
        for b in s.trim().bytes() {
            assert!(b.is_ascii_digit(), "invalid decimal digit {}", b as char);
            // acc = acc * 10 + digit
            let mut carry = 0u64;
            for limb in acc.0.iter_mut() {
                let t = (*limb as u128) * 10 + carry as u128;
                *limb = t as u64;
                carry = (t >> 64) as u64;
            }
            assert_eq!(carry, 0, "decimal literal too long for BigInt<{N}>");
            let (r, c) = acc.const_add(&Self::from_u64((b - b'0') as u64));
            assert_eq!(c, 0, "decimal literal too long for BigInt<{N}>");
            acc = r;
        }
        acc
    }

    /// Formats as a `0x`-prefixed big-endian hex string without leading zeros.
    pub(crate) fn to_hex(self) -> String {
        let mut s = String::from("0x");
        let mut started = false;
        for limb in self.0.iter().rev() {
            if started {
                s.push_str(&format!("{limb:016x}"));
            } else if *limb != 0 {
                s.push_str(&format!("{limb:x}"));
                started = true;
            }
        }
        if !started {
            s.push('0');
        }
        s
    }

    /// Widening full multiplication into `lo` and `hi` halves.
    pub fn widening_mul(&self, other: &Self) -> (Self, Self) {
        let mut t = vec![0u64; 2 * N];
        for i in 0..N {
            let mut carry = 0u64;
            for j in 0..N {
                let (lo, hi) = mac(t[i + j], self.0[i], other.0[j], carry);
                t[i + j] = lo;
                carry = hi;
            }
            t[i + N] = carry;
        }
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        lo.copy_from_slice(&t[..N]);
        hi.copy_from_slice(&t[N..]);
        (Self(lo), Self(hi))
    }
}

impl<const N: usize> Ord for BigInt<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.const_cmp(other) {
            -1 => Ordering::Less,
            0 => Ordering::Equal,
            _ => Ordering::Greater,
        }
    }
}

impl<const N: usize> PartialOrd for BigInt<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> fmt::Debug for BigInt<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self.to_hex())
    }
}

impl<const N: usize> fmt::Display for BigInt<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl<const N: usize> fmt::LowerHex for BigInt<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex().trim_start_matches("0x"))
    }
}

impl<const N: usize> From<u64> for BigInt<N> {
    fn from(x: u64) -> Self {
        Self::from_u64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type B4 = BigInt<4>;

    #[test]
    fn zero_one_roundtrip() {
        assert!(B4::ZERO.is_zero());
        assert!(!B4::ONE.is_zero());
        assert!(B4::ZERO.is_even());
        assert!(!B4::ONE.is_even());
        assert_eq!(B4::from_u64(42).0[0], 42);
    }

    #[test]
    fn add_sub_inverse() {
        let a = B4::from_hex("0xffffffffffffffffffffffffffffffff");
        let b = B4::from_u64(12345);
        let (sum, c) = a.const_add(&b);
        assert_eq!(c, 0);
        let (back, borrow) = sum.const_sub(&b);
        assert_eq!(borrow, 0);
        assert_eq!(back, a);
    }

    #[test]
    fn add_carries_out() {
        let max = B4::new([u64::MAX; 4]);
        let (r, c) = max.const_add(&B4::ONE);
        assert_eq!(c, 1);
        assert!(r.is_zero());
    }

    #[test]
    fn sub_borrows() {
        let (r, b) = B4::ZERO.const_sub(&B4::ONE);
        assert_eq!(b, 1);
        assert_eq!(r, B4::new([u64::MAX; 4]));
    }

    #[test]
    fn hex_roundtrip() {
        let a = B4::from_hex("0x1a0111ea397fe69a4b1ba7b6434bacd7");
        assert_eq!(a.to_hex(), "0x1a0111ea397fe69a4b1ba7b6434bacd7");
        assert_eq!(B4::ZERO.to_hex(), "0x0");
    }

    #[test]
    fn decimal_parse() {
        let a = B4::from_decimal(
            "21888242871839275222246405745257275088548364400416034343698204186575808495617",
        );
        assert_eq!(
            a.to_hex(),
            "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001"
        );
    }

    #[test]
    fn bit_access() {
        let a = B4::from_u64(0b1011);
        assert_eq!(a.num_bits(), 4);
        assert_eq!(B4::new([0, 0, 1, 0]).num_bits(), 129);
    }

    #[test]
    fn double_and_div2() {
        let mut a = B4::from_hex("0x8000000000000000000000000000000000000001");
        let orig = a;
        let (doubled, top) = a.const_double();
        assert_eq!(top, 0);
        a = doubled;
        a.div2();
        assert_eq!(a, orig);
    }

    #[test]
    fn widening_mul_small() {
        let a = B4::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo.0, [1, u64::MAX - 1, 0, 0]);
        assert!(hi.is_zero());
    }

    #[test]
    fn ordering() {
        let a = B4::from_u64(5);
        let b = B4::from_hex("0x100000000000000000");
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
