//! The carrying CIOS Montgomery product: the reference the no-carry core
//! of `Fp` is checked against, and the product of a modulus with no spare
//! bit, which `Fp` does not multiply.

use gzkp_ff::bigint::{adc, mac, BigInt};
use gzkp_ff::{Fp, FpParams};

/// CIOS with the two words above the limbs carried through every round:
/// `(a·b + m·p) / R` for the `m < R` that makes the division exact, as
/// `N` limbs and the carry above them. For `a·b < R·p` the value is below
/// `2p`, whatever the modulus.
pub fn cios<P: FpParams<N>, const N: usize>(a: &BigInt<N>, b: &BigInt<N>) -> (BigInt<N>, u64) {
    let m = &P::MODULUS.0;
    let mut t = [0u64; N];
    let mut t_n = 0u64;
    for &bi in &b.0 {
        let mut carry = 0u64;
        for (tj, &aj) in t.iter_mut().zip(a.0.iter()) {
            (*tj, carry) = mac(*tj, aj, bi, carry);
        }
        let (lo, t_n1) = adc(t_n, carry, 0);
        t_n = lo;

        let k = t[0].wrapping_mul(Fp::<P, N>::INV);
        let (_, mut carry) = mac(t[0], k, m[0], 0);
        for j in 1..N {
            (t[j - 1], carry) = mac(t[j], k, m[j], carry);
        }
        let (lo, hi) = adc(t_n, carry, 0);
        t[N - 1] = lo;
        t_n = t_n1 + hi;
    }
    (BigInt(t), t_n)
}

/// `a·b·R⁻¹ mod p` for `a·b < R·p`: [`cios`] and one subtraction of `p`.
pub fn mont_mul<P: FpParams<N>, const N: usize>(a: &BigInt<N>, b: &BigInt<N>) -> BigInt<N> {
    let (t, carry) = cios::<P, N>(a, b);
    if carry != 0 || t >= P::MODULUS {
        t.const_sub(&P::MODULUS).0
    } else {
        t
    }
}
