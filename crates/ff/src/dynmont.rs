//! Dynamic-width big-integer arithmetic with runtime moduli.
//!
//! The static fields in [`crate::fp`] need their modulus at compile time.
//! Two places in the system cannot provide that:
//!
//! 1. the offline parameter generator (`tools/genparams`) searching for the
//!    753-bit `T753` primes, which needs Miller–Rabin over candidate moduli;
//! 2. the pairing final exponentiation, whose hard-part exponent
//!    `(p⁴ − p² + 1) / r` is a ~762-bit integer computed at runtime.
//!
//! Numbers here are little-endian `Vec<u64>` with no required normalization
//! (trailing zero limbs are fine). A [`MontCtx`] provides fast modular
//! multiplication and exponentiation for any odd modulus.

use crate::bigint::{adc, mac, sbb};

/// Removes trailing zero limbs (keeps at least one limb).
pub fn normalize(v: &mut Vec<u64>) {
    while v.len() > 1 && *v.last().unwrap() == 0 {
        v.pop();
    }
}

/// Compares two little-endian limb slices as integers.
pub fn cmp_slices(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    let n = a.len().max(b.len());
    for i in (0..n).rev() {
        let ai = a.get(i).copied().unwrap_or(0);
        let bi = b.get(i).copied().unwrap_or(0);
        match ai.cmp(&bi) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// Returns `a + b`.
pub fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len().max(b.len());
    let mut out = Vec::with_capacity(n + 1);
    let mut carry = 0;
    for i in 0..n {
        let (lo, c) = adc(
            a.get(i).copied().unwrap_or(0),
            b.get(i).copied().unwrap_or(0),
            carry,
        );
        out.push(lo);
        carry = c;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Returns `a - b`.
///
/// # Panics
///
/// Panics if `b > a`.
pub fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    assert!(
        cmp_slices(a, b) != core::cmp::Ordering::Less,
        "dynmont::sub underflow"
    );
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0;
    for (i, &ai) in a.iter().enumerate() {
        let (lo, bo) = sbb(ai, b.get(i).copied().unwrap_or(0), borrow);
        out.push(lo);
        borrow = bo;
    }
    debug_assert_eq!(borrow, 0);
    normalize(&mut out);
    out
}

/// Returns `a * b` (schoolbook).
pub fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = mac(out[i + j], ai, bj, carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
    normalize(&mut out);
    out
}

/// Returns true if the value is zero.
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Number of significant bits.
pub fn num_bits(a: &[u64]) -> u32 {
    for i in (0..a.len()).rev() {
        if a[i] != 0 {
            return i as u32 * 64 + 64 - a[i].leading_zeros();
        }
    }
    0
}

/// Shifts left by `bits`.
pub fn shl(a: &[u64], bits: u32) -> Vec<u64> {
    let limb_shift = (bits / 64) as usize;
    let bit_shift = bits % 64;
    let mut out = vec![0u64; a.len() + limb_shift + 1];
    for (i, &limb) in a.iter().enumerate() {
        out[i + limb_shift] |= limb << bit_shift;
        if bit_shift != 0 {
            out[i + limb_shift + 1] |= limb >> (64 - bit_shift);
        }
    }
    normalize(&mut out);
    out
}

/// Shifts right by `bits`.
pub fn shr(a: &[u64], bits: u32) -> Vec<u64> {
    let limb_shift = (bits / 64) as usize;
    let bit_shift = bits % 64;
    if limb_shift >= a.len() {
        return vec![0];
    }
    let mut out = vec![0u64; a.len() - limb_shift];
    for i in 0..out.len() {
        out[i] = a[i + limb_shift] >> bit_shift;
        if bit_shift != 0 && i + limb_shift + 1 < a.len() {
            out[i] |= a[i + limb_shift + 1] << (64 - bit_shift);
        }
    }
    normalize(&mut out);
    out
}

/// Computes `(a / d, a % d)` by binary long division.
///
/// This is a simple shift-and-subtract division: O(bits · limbs). It is only
/// used on one-off computations (pairing exponent derivation, parameter
/// generation), never on hot paths.
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn div_rem(a: &[u64], d: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!is_zero(d), "division by zero");
    let abits = num_bits(a);
    let dbits = num_bits(d);
    if abits < dbits {
        let mut r = a.to_vec();
        normalize(&mut r);
        return (vec![0], r);
    }
    let mut rem = a.to_vec();
    normalize(&mut rem);
    let shift = abits - dbits;
    let mut quot = vec![0u64; (shift as usize / 64) + 1];
    let mut dd = shl(d, shift);
    for i in (0..=shift).rev() {
        if cmp_slices(&rem, &dd) != core::cmp::Ordering::Less {
            rem = sub(&rem, &dd);
            quot[i as usize / 64] |= 1u64 << (i % 64);
        }
        dd = shr(&dd, 1);
    }
    normalize(&mut quot);
    normalize(&mut rem);
    (quot, rem)
}

/// Reduces `a mod m`.
pub fn rem(a: &[u64], m: &[u64]) -> Vec<u64> {
    div_rem(a, m).1
}

/// A Montgomery multiplication context for an arbitrary odd modulus.
///
/// # Examples
///
/// ```
/// use gzkp_ff::dynmont::MontCtx;
/// let ctx = MontCtx::new(&[101]);
/// // 7^10 mod 101 == 65
/// assert_eq!(ctx.modpow(&[7], &[10]), vec![65]);
/// ```
#[derive(Debug, Clone)]
pub struct MontCtx {
    modulus: Vec<u64>,
    /// -m^{-1} mod 2^64
    inv: u64,
    /// R^2 mod m where R = 2^{64·len}
    r2: Vec<u64>,
    /// R mod m (Montgomery form of one)
    r1: Vec<u64>,
}

impl MontCtx {
    /// Builds a context for the given odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even or zero.
    pub fn new(modulus: &[u64]) -> Self {
        let mut modulus = modulus.to_vec();
        normalize(&mut modulus);
        assert!(!is_zero(&modulus), "modulus must be nonzero");
        assert!(modulus[0] & 1 == 1, "modulus must be odd");
        let n = modulus.len();
        // inv = -modulus^{-1} mod 2^64 via Newton iteration.
        let mut inv = 1u64;
        for _ in 0..63 {
            inv = inv.wrapping_mul(inv).wrapping_mul(modulus[0]);
        }
        inv = inv.wrapping_neg();
        // R mod m and R^2 mod m by long division.
        let mut r_raw = vec![0u64; n + 1];
        r_raw[n] = 1;
        let r1 = rem(&r_raw, &modulus);
        let mut r2_raw = vec![0u64; 2 * n + 1];
        r2_raw[2 * n] = 1;
        let r2 = rem(&r2_raw, &modulus);
        Self {
            modulus,
            inv,
            r2,
            r1,
        }
    }

    fn limbs(&self) -> usize {
        self.modulus.len()
    }

    fn pad(&self, a: &[u64]) -> Vec<u64> {
        let mut v = a.to_vec();
        v.resize(self.limbs(), 0);
        v
    }

    /// CIOS Montgomery multiplication of two padded, reduced operands.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = self.limbs();
        let m = &self.modulus;
        let mut t = vec![0u64; n + 2];
        for &bi in b.iter().take(n) {
            let mut carry = 0u64;
            for j in 0..n {
                let (lo, hi) = mac(t[j], a[j], bi, carry);
                t[j] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t[n], carry, 0);
            t[n] = lo;
            t[n + 1] = hi;
            let k = t[0].wrapping_mul(self.inv);
            let (_, mut carry) = mac(t[0], k, m[0], 0);
            for j in 1..n {
                let (lo, hi) = mac(t[j], k, m[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t[n], carry, 0);
            t[n - 1] = lo;
            t[n] = t[n + 1] + hi;
        }
        let mut out = t[..n].to_vec();
        if t[n] != 0 || cmp_slices(&out, m) != core::cmp::Ordering::Less {
            // subtract modulus once (t[n] can be at most 1)
            let mut borrow = 0;
            for j in 0..n {
                let (lo, bo) = sbb(out[j], m[j], borrow);
                out[j] = lo;
                borrow = bo;
            }
        }
        out
    }

    /// Converts to Montgomery form.
    pub(crate) fn to_mont(&self, a: &[u64]) -> Vec<u64> {
        let a = rem(a, &self.modulus);
        self.mont_mul(&self.pad(&a), &self.pad(&self.r2))
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &[u64]) -> Vec<u64> {
        let mut one = vec![0u64; self.limbs()];
        one[0] = 1;
        let mut out = self.mont_mul(&self.pad(a), &one);
        normalize(&mut out);
        out
    }

    /// Modular multiplication of plain (non-Montgomery) values.
    pub(crate) fn mulmod(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod m` of plain values.
    pub fn modpow(&self, base: &[u64], exp: &[u64]) -> Vec<u64> {
        let base_m = self.to_mont(base);
        let mut acc = self.pad(&self.r1); // 1 in Montgomery form
        let bits = num_bits(exp);
        for i in (0..bits).rev() {
            acc = self.mont_mul(&acc, &acc);
            if (exp[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        self.from_mont(&acc)
    }
}

/// Deterministic Miller–Rabin primality test.
///
/// Uses the first `rounds` small-prime bases plus a few pseudo-random bases
/// derived from the candidate itself, which is ample for the one-shot
/// parameter generation this crate performs (we are generating benchmark
/// parameters, not defending against adversarially chosen composites).
pub fn is_probable_prime(n: &[u64], rounds: usize) -> bool {
    let mut n = n.to_vec();
    normalize(&mut n);
    if is_zero(&n) {
        return false;
    }
    if n.len() == 1 {
        if n[0] < 2 {
            return false;
        }
        for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if n[0] == p {
                return true;
            }
            if n[0].is_multiple_of(p) {
                return false;
            }
        }
    }
    if n[0] & 1 == 0 {
        return false;
    }
    // Trial division by small primes.
    for p in [
        3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113,
    ] {
        let r = rem(&n, &[p]);
        if is_zero(&r) {
            return cmp_slices(&n, &[p]) == core::cmp::Ordering::Equal;
        }
    }

    // Write n - 1 = d * 2^s.
    let n_minus_1 = sub(&n, &[1]);
    let mut d = n_minus_1.clone();
    let mut s = 0u32;
    while d[0] & 1 == 0 {
        d = shr(&d, 1);
        s += 1;
    }
    let ctx = MontCtx::new(&n);
    let bases: Vec<u64> = {
        let small = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
        ];
        let mut v: Vec<u64> = small.iter().copied().take(rounds).collect();
        // Derive extra bases from the candidate when more rounds requested.
        let mut seed = n[0] ^ 0x9e3779b97f4a7c15;
        while v.len() < rounds {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((seed >> 16) | 3);
        }
        v
    };
    'witness: for &a in &bases {
        if cmp_slices(&[a], &n_minus_1) != core::cmp::Ordering::Less {
            continue;
        }
        let mut x = ctx.modpow(&[a], &d);
        if cmp_slices(&x, &[1]) == core::cmp::Ordering::Equal
            || cmp_slices(&x, &n_minus_1) == core::cmp::Ordering::Equal
        {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = ctx.mulmod(&x, &x);
            if cmp_slices(&x, &n_minus_1) == core::cmp::Ordering::Equal {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![u64::MAX, u64::MAX, 5];
        let b = vec![1, 2, 3];
        let s = add(&a, &b);
        assert_eq!(sub(&s, &b), vec![u64::MAX, u64::MAX, 5]);
    }

    #[test]
    fn mul_matches_u128() {
        let a = vec![0xdeadbeefcafebabe];
        let b = vec![0x123456789abcdef];
        let p = mul(&a, &b);
        let expect = (0xdeadbeefcafebabe_u128) * (0x123456789abcdef_u128);
        assert_eq!(p[0], expect as u64);
        assert_eq!(p.get(1).copied().unwrap_or(0), (expect >> 64) as u64);
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = div_rem(&[1000], &[7]);
        assert_eq!(q, vec![142]);
        assert_eq!(r, vec![6]);
    }

    #[test]
    fn div_rem_multiword() {
        // a = q*d + r with q, d multiword; reconstruct and compare.
        let d = vec![0x1234567890abcdef, 0xfedcba0987654321];
        let q = vec![0xaaaaaaaaaaaaaaaa, 0x5555];
        let r = vec![42];
        let a = add(&mul(&q, &d), &r);
        let (q2, r2) = div_rem(&a, &d);
        assert_eq!(q2, q);
        assert_eq!(r2, r);
    }

    #[test]
    fn shifts() {
        let a = vec![0x8000000000000001];
        assert_eq!(shl(&a, 1), vec![2, 1]);
        assert_eq!(shr(&shl(&a, 65), 65), vec![0x8000000000000001]);
    }

    #[test]
    fn mont_mul_small_modulus() {
        let ctx = MontCtx::new(&[97]);
        assert_eq!(ctx.mulmod(&[13], &[29]), vec![13 * 29 % 97]);
        assert_eq!(ctx.modpow(&[3], &[96]), vec![1]); // Fermat
    }

    #[test]
    fn modpow_big_modulus() {
        // BN254 r: check Fermat's little theorem a^(r-1) = 1 mod r.
        let r = crate::bigint::BigInt::<4>::from_hex(
            "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001",
        );
        let ctx = MontCtx::new(&r.0);
        let r_minus_1 = sub(&r.0, &[1]);
        assert_eq!(ctx.modpow(&[5], &r_minus_1), vec![1]);
    }

    #[test]
    fn primality_small() {
        assert!(is_probable_prime(&[2], 8));
        assert!(is_probable_prime(&[3], 8));
        assert!(!is_probable_prime(&[1], 8));
        assert!(!is_probable_prime(&[0], 8));
        assert!(is_probable_prime(&[65537], 8));
        assert!(!is_probable_prime(&[65536], 8));
        assert!(!is_probable_prime(&[561], 8)); // Carmichael
        assert!(is_probable_prime(&[0xffffffffffffffc5], 8)); // largest 64-bit prime
    }

    #[test]
    fn primality_known_curve_moduli() {
        let bn_r = crate::bigint::BigInt::<4>::from_hex(
            "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001",
        );
        assert!(is_probable_prime(&bn_r.0, 12));
        let bls_q = crate::bigint::BigInt::<6>::from_hex(
            "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        );
        assert!(is_probable_prime(&bls_q.0, 12));
    }

    #[test]
    fn mont_roundtrip_multiword() {
        let m = vec![0xffffffffffffffc5, 0xdeadbeef, 1]; // odd, 3 limbs
        let m = if m[0] & 1 == 1 { m } else { add(&m, &[1]) };
        let ctx = MontCtx::new(&m);
        let a = vec![123456789, 987654321];
        let am = ctx.to_mont(&a);
        assert_eq!(ctx.from_mont(&am), a);
    }
}
