//! The NTT's lazy butterfly hooks (`PrimeField::{butterfly,
//! butterfly_by_one, reduce_lazy}`) at the edges of their representation.
//!
//! A lazy field's butterfly takes and returns Montgomery limbs anywhere in
//! `[0, 4p)`; after `reduce_lazy` it must equal the strict butterfly on the
//! canonical values. Inputs are the edges 0, p−1, p, 2p−1, 2p, 4p−1 and
//! seeded random limbs below 4p. A field without two spare top bits
//! (Fr381) is not lazy, and its hooks are the strict butterfly itself.

use gzkp_ff::bigint::BigInt;
use gzkp_ff::fields::{Fr254, Fr381, Fr753};
use gzkp_ff::{Field, Fp, FpParams, PrimeField};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

/// `v mod p` for limbs `v < 4p`.
fn canonical<P: FpParams<N>, const N: usize>(mut v: BigInt<N>) -> Fp<P, N> {
    while v >= P::MODULUS {
        v = v.const_sub(&P::MODULUS).0;
    }
    Fp(v, PhantomData)
}

/// `k·p + d` for small `k` and `d ∈ {−1, 0}`, as limbs.
fn edge<P: FpParams<N>, const N: usize>(k: u64, minus_one: bool) -> BigInt<N> {
    let mut v = BigInt::<N>::ZERO;
    for _ in 0..k {
        v = v.const_add(&P::MODULUS).0;
    }
    if minus_one {
        v = v.const_sub(&BigInt::ONE).0;
    }
    v
}

/// The edges of `[0, 4p)` below `bound`, then seeded random limbs below it.
fn inputs<P: FpParams<N>, const N: usize>(bound: &BigInt<N>, seed: u64) -> Vec<BigInt<N>> {
    let edges = [
        (0, false),
        (1, true),
        (1, false),
        (2, true),
        (2, false),
        (4, true),
    ];
    let mut out: Vec<BigInt<N>> = edges
        .iter()
        .map(|&(k, m)| edge::<P, N>(k, m))
        .filter(|v| v < bound)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = bound.num_bits() as usize;
    while out.len() < 24 {
        let mut limbs = [0u64; N];
        for (i, l) in limbs.iter_mut().enumerate() {
            let keep = bits.saturating_sub(64 * i).min(64);
            *l = if keep == 64 {
                rng.gen()
            } else {
                rng.gen::<u64>() & ((1u64 << keep) - 1)
            };
        }
        let v = BigInt(limbs);
        if v < *bound {
            out.push(v);
        }
    }
    out
}

/// The strict butterfly on canonical values.
fn strict<F: PrimeField>(x: F, y: F, w: F) -> (F, F) {
    let t = y * w;
    (x + t, x - t)
}

/// Every pair of inputs in the field's butterfly range — `[0, 4p)` when
/// lazy, `[0, p)` otherwise — against the strict butterfly by a random
/// canonical twiddle and by one; outputs must stay in that range.
fn check<P: FpParams<N>, const N: usize>(seed: u64) {
    let bound = if Fp::<P, N>::LAZY_BUTTERFLY {
        edge::<P, N>(4, false)
    } else {
        P::MODULUS
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let values = inputs::<P, N>(&bound, seed);
    for &xv in &values {
        for &yv in &values {
            let (xc, yc) = (canonical::<P, N>(xv), canonical::<P, N>(yv));
            let w = Fp::<P, N>::random(&mut rng);
            for (by_one, w) in [(false, w), (true, Fp::<P, N>::one())] {
                let (mut x, mut y) = (Fp(xv, PhantomData), Fp(yv, PhantomData));
                if by_one {
                    Fp::<P, N>::butterfly_by_one(&mut x, &mut y);
                } else {
                    Fp::<P, N>::butterfly(&mut x, &mut y, &w);
                }
                for v in [x, y] {
                    assert!(v.0 < bound, "{}: output out of range", P::NAME);
                }
                x.reduce_lazy();
                y.reduce_lazy();
                assert_eq!(
                    (x, y),
                    strict(xc, yc, w),
                    "{}: x = {xv:?}, y = {yv:?}, by one: {by_one}",
                    P::NAME
                );
            }
        }
    }
}

#[test]
fn lazy_fields_are_the_ones_with_two_spare_bits() {
    const {
        assert!(Fr254::LAZY_BUTTERFLY, "254 bits in 256");
        assert!(Fr753::LAZY_BUTTERFLY, "753 bits in 768");
        assert!(!Fr381::LAZY_BUTTERFLY, "255 bits in 256: 4p ≥ 2^256");
    }
}

#[test]
fn lazy_butterfly_matches_strict_on_fr254() {
    check::<gzkp_ff::fields::Fr254Params, 4>(254);
}

#[test]
fn lazy_butterfly_matches_strict_on_fr753() {
    check::<gzkp_ff::fields::Fr753Params, 12>(753);
}

#[test]
fn fr381_hooks_are_the_strict_butterfly() {
    use gzkp_ff::fields::Fr381Params as P;
    check::<P, 4>(381);
    for v in inputs::<P, 4>(&P::MODULUS, 381) {
        let mut x: Fr381 = Fp(v, PhantomData);
        x.reduce_lazy();
        assert_eq!(x.0, v, "reduce_lazy is the identity");
    }
}
