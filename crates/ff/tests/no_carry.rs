//! The no-carry CIOS product against the carrying one, on all six fields.
//!
//! `Fp`'s Montgomery core carries no word above the limbs, which is exact
//! while `a + p < 2^(64N)` for its left operand `a`. Each field is checked
//! over the left operands it is handed — `[0, 4p)` on a field with a lazy
//! butterfly (the butterfly's `y`, the inverse transform's scaled values),
//! `[0, p)` on the others — and right operands in `[0, p)`: the edges 0, 1,
//! `p − 1` (and `4p − 1` on the left of a lazy field), then 10 000 seeded
//! pairs. The reduced product is read through `*`; the core before its
//! subtraction through the lazy butterfly, whose `x + w·y` at `x = 0` is
//! the core's value itself. Fr381 has no lazy butterfly, and its core has
//! no reader but the reduced product.

mod oracle;

use gzkp_ff::bigint::BigInt;
use gzkp_ff::fields::{
    Fq254Params, Fq381Params, Fq753Params, Fr254Params, Fr381Params, Fr753Params,
};
use gzkp_ff::{Field, Fp, FpParams, PrimeField};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

const PAIRS: usize = 10_000;

/// `k·p`, as limbs.
fn times_p<P: FpParams<N>, const N: usize>(k: u64) -> BigInt<N> {
    (0..k).fold(BigInt::ZERO, |v, _| v.const_add(&P::MODULUS).0)
}

/// Uniform limbs below `bound`, by rejection on its bit length.
fn below<const N: usize>(bound: &BigInt<N>, rng: &mut StdRng) -> BigInt<N> {
    let bits = bound.num_bits() as usize;
    loop {
        let mut limbs = [0u64; N];
        for (i, l) in limbs.iter_mut().enumerate() {
            let keep = bits.saturating_sub(64 * i).min(64);
            *l = match keep {
                0 => 0,
                64 => rng.gen(),
                keep => rng.gen::<u64>() & ((1u64 << keep) - 1),
            };
        }
        let v = BigInt(limbs);
        if v < *bound {
            return v;
        }
    }
}

fn check<P: FpParams<N>, const N: usize>(seed: u64) {
    let lazy = Fp::<P, N>::LAZY_BUTTERFLY;
    let p = P::MODULUS;
    let left_bound = if lazy { times_p::<P, N>(4) } else { p };
    let one = BigInt::<N>::ONE;
    let pm1 = p.const_sub(&one).0;
    let rights = [BigInt::ZERO, one, pm1];
    let mut lefts = rights.to_vec();
    if lazy {
        lefts.push(left_bound.const_sub(&one).0);
    }
    let mut pairs: Vec<(BigInt<N>, BigInt<N>)> = lefts
        .iter()
        .flat_map(|&a| rights.iter().map(move |&b| (a, b)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pairs.extend((0..PAIRS).map(|_| (below(&left_bound, &mut rng), below(&p, &mut rng))));

    for (a, b) in pairs {
        let (x, y) = (Fp::<P, N>(a, PhantomData), Fp::<P, N>(b, PhantomData));
        let product = (x * y).0;
        assert_eq!(
            product,
            oracle::mont_mul::<P, N>(&a, &b),
            "{}: {a:?} · {b:?}",
            P::NAME
        );
        assert!(product < p, "{}: product not canonical", P::NAME);
        if lazy {
            let (core, carry) = oracle::cios::<P, N>(&a, &b);
            assert_eq!(carry, 0, "{}: the oracle's core carried", P::NAME);
            let (mut sum, mut diff) = (Fp::<P, N>::zero(), x);
            Fp::<P, N>::butterfly(&mut sum, &mut diff, &y);
            assert_eq!(sum.0, core, "{}: core of {a:?} · {b:?}", P::NAME);
            let two_p = times_p::<P, N>(2);
            assert_eq!(diff.0, two_p.const_sub(&core).0, "{}", P::NAME);
        }
    }
}

#[test]
fn no_carry_product_matches_the_carrying_oracle() {
    check::<Fr254Params, 4>(1);
    check::<Fq254Params, 4>(2);
    check::<Fr381Params, 4>(3);
    check::<Fq381Params, 6>(4);
    check::<Fr753Params, 12>(5);
    check::<Fq753Params, 12>(6);
}
