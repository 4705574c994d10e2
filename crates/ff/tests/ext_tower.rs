//! Field and tower arithmetic at the edges.
//!
//! * `Fp2 = Fp[u]/(u² + 1)` on the BN254, BLS12-381 and T753 base fields:
//!   `mul`, `square`, `inverse` and `norm` against a schoolbook reference
//!   built only from base-field `+`, `−`, `*` and `inverse`, and the
//!   batched inversion through the norm against Montgomery's trick in
//!   `Fp2`.
//! * `square` on every prime field against the carrying CIOS product
//!   (`oracle`), at 0, 1, p−1, p−2, `R mod p` and seeded values.
//! * `Add`, `Sub` and `double` where the sum carries or crosses `p` and
//!   where the difference borrows, against a limb-level reference.
//! * −1 is a quadratic non-residue mod each curve's base field `q`, which
//!   is what lets the tower fix `u² = −1`.
//!
//! `Full256` is a modulus with no spare bit (2²⁵⁶ − 189), so the carry
//! above the limbs reaches the masks of `Add`/`double` and the top of the
//! SOS reduction. `Fp` does not multiply it (its no-carry product needs a
//! spare bit and fails to build without one), so the edges are built
//! without a product and Full256's products are the oracle's.

mod oracle;

use gzkp_ff::bigint::BigInt;
use gzkp_ff::ext::{Fp2, Fp2Config};
use gzkp_ff::fields::{
    Fq254, Fq254Params, Fq381, Fq381Params, Fq753, Fq753Params, Fr254Params, Fr381Params,
    Fr753Params,
};
use gzkp_ff::{Field, Fp, FpParams, PrimeField};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

/// The largest 256-bit prime, 2²⁵⁶ − 189 (≡ 3 mod 4, 2 a non-residue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Full256Params;
impl FpParams<4> for Full256Params {
    const MODULUS: BigInt<4> = BigInt([u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX]);
    const TWO_ADICITY: u32 = 1;
    const GENERATOR: u64 = 2;
    const NAME: &'static str = "Full256";
}
type Full256 = Fp<Full256Params, 4>;

macro_rules! tower {
    ($name:ident, $fp:ty) => {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
        struct $name;
        impl Fp2Config for $name {
            type Fp = $fp;
        }
    };
}
tower!(Bn254Tower, Fq254);
tower!(Bls381Tower, Fq381);
tower!(T753Tower, Fq753);

/// `p − d` as limbs.
fn p_minus<P: FpParams<N>, const N: usize>(d: u64) -> BigInt<N> {
    P::MODULUS.const_sub(&BigInt::from_u64(d)).0
}

/// An element from its raw Montgomery limbs.
fn raw<P: FpParams<N>, const N: usize>(v: BigInt<N>) -> Fp<P, N> {
    Fp(v, PhantomData)
}

/// `(p−1)/2` as limbs.
fn half<P: FpParams<N>, const N: usize>() -> BigInt<N> {
    let mut h = p_minus::<P, N>(1);
    h.div2();
    h
}

/// Uniform raw limbs below `p`: a uniform element, drawn with no product.
fn random_raw<P: FpParams<N>, const N: usize>(rng: &mut StdRng) -> Fp<P, N> {
    let top = P::MODULUS.num_bits() as usize - 64 * (N - 1);
    loop {
        let mut limbs: [u64; N] = std::array::from_fn(|_| rng.gen());
        if top < 64 {
            limbs[N - 1] &= (1u64 << top) - 1;
        }
        if BigInt(limbs) < P::MODULUS {
            return raw(BigInt(limbs));
        }
    }
}

/// `a·b` by the carrying oracle.
fn oracle_mul<P: FpParams<N>, const N: usize>(a: Fp<P, N>, b: Fp<P, N>) -> Fp<P, N> {
    raw(oracle::mont_mul::<P, N>(&a.0, &b.0))
}

/// Edge elements: 0, 1, −1, 2, limbs p−1, p−2, `R mod p`, `R² mod p`, the
/// two halves whose sum is `p` or `p + 1`, then seeded values.
fn edges<P: FpParams<N>, const N: usize>(seed: u64, random: usize) -> Vec<Fp<P, N>> {
    let h = half::<P, N>();
    let mut v = vec![
        Fp::<P, N>::zero(),
        Fp::one(),
        -Fp::one(),
        Fp::one().double(),
        raw(p_minus::<P, N>(1)),
        raw(p_minus::<P, N>(2)),
        raw(Fp::<P, N>::R),
        raw(Fp::<P, N>::R2),
        raw(h),
        raw(h.const_add(&BigInt::ONE).0),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    v.extend((0..random).map(|_| random_raw(&mut rng)));
    v
}

/// `(x + y) mod p` on canonical limbs, the carry above the limbs included.
fn ref_add<P: FpParams<N>, const N: usize>(x: BigInt<N>, y: BigInt<N>) -> BigInt<N> {
    let (s, carry) = x.const_add(&y);
    if carry == 1 || s >= P::MODULUS {
        s.const_sub(&P::MODULUS).0
    } else {
        s
    }
}

/// `(x − y) mod p` on canonical limbs.
fn ref_sub<P: FpParams<N>, const N: usize>(x: BigInt<N>, y: BigInt<N>) -> BigInt<N> {
    let (d, borrow) = x.const_sub(&y);
    if borrow == 1 {
        d.const_add(&P::MODULUS).0
    } else {
        d
    }
}

fn check_add_sub<P: FpParams<N>, const N: usize>(seed: u64) {
    let p = P::MODULUS;
    let values = edges::<P, N>(seed, 8);
    for a in &values {
        let x = a.0;
        assert!(x < p, "{}: edge not canonical", P::NAME);
        assert_eq!(a.double().0, ref_add::<P, N>(x, x), "{}", P::NAME);
        // `b` runs over `a` itself too: `a − a` and `a + a`.
        for b in &values {
            let y = b.0;
            assert_eq!((*a + *b).0, ref_add::<P, N>(x, y), "{}: add", P::NAME);
            assert_eq!((*a - *b).0, ref_sub::<P, N>(x, y), "{}: sub", P::NAME);
        }
    }
    // The named edges, on raw limbs (compared as limbs: Full256 has no
    // `Debug`, which converts out of Montgomery form by a product).
    let (one, pm1, pm2) = (BigInt::<N>::ONE, p_minus::<P, N>(1), p_minus::<P, N>(2));
    let h = half::<P, N>();
    let h1 = h.const_add(&one).0;
    for (got, want, what) in [
        (raw::<P, N>(h) + raw(h1), BigInt::ZERO, "a + b = p"),
        (raw(one) + raw(pm1), BigInt::ZERO, "1 + (p−1)"),
        (raw(pm1) + raw(pm1), pm2, "(p−1) + (p−1)"),
        (raw(pm1).double(), pm2, "2(p−1)"),
        (raw(h1).double(), one, "2·(p+1)/2"),
        (Fp::zero() - raw(pm1), one, "0 − (p−1)"),
        (raw(h) - raw(h1), pm1, "h − (h+1)"),
    ] {
        assert_eq!(got.0, want, "{}: {what}", P::NAME);
    }
}

fn check_square<P: FpParams<N>, const N: usize>(seed: u64) {
    for a in edges::<P, N>(seed, 64) {
        let sq = a.square();
        assert_eq!(sq.0, oracle_mul(a, a).0, "{}: square of {:?}", P::NAME, a.0);
        assert!(sq.0 < P::MODULUS, "{}: square not canonical", P::NAME);
    }
}

#[test]
fn add_sub_double_at_the_edges() {
    check_add_sub::<Fr254Params, 4>(1);
    check_add_sub::<Fq254Params, 4>(2);
    check_add_sub::<Fr381Params, 4>(3);
    check_add_sub::<Fq381Params, 6>(4);
    check_add_sub::<Fr753Params, 12>(5);
    check_add_sub::<Fq753Params, 12>(6);
    check_add_sub::<Full256Params, 4>(7);
}

#[test]
fn square_matches_mul() {
    check_square::<Fr254Params, 4>(11);
    check_square::<Fq254Params, 4>(12);
    check_square::<Fr381Params, 4>(13);
    check_square::<Fq381Params, 6>(14);
    check_square::<Fr753Params, 12>(15);
    check_square::<Fq753Params, 12>(16);
    check_square::<Full256Params, 4>(17);
}

/// `base^exp` by square-and-multiply through the carrying oracle.
fn oracle_pow<P: FpParams<N>, const N: usize>(base: Fp<P, N>, exp: &BigInt<N>) -> Fp<P, N> {
    let mut acc = Fp::<P, N>::one();
    for i in (0..exp.num_bits() as usize).rev() {
        acc = oracle_mul(acc, acc);
        if exp.0[i / 64] >> (i % 64) & 1 == 1 {
            acc = oracle_mul(acc, base);
        }
    }
    acc
}

/// `Fp::self_check` with its products taken by the oracle: the modulus is
/// odd, `TWO_ADICITY` is exact, `GENERATOR` is a non-residue and its
/// `(p−1)/2^s`-th power has order exactly `2^s`.
fn oracle_self_check<P: FpParams<N>, const N: usize>() {
    assert!(!P::MODULUS.is_even(), "{}: modulus must be odd", P::NAME);
    let mut t = p_minus::<P, N>(1);
    for _ in 0..P::TWO_ADICITY {
        assert!(t.is_even(), "{}: 2-adicity overstated", P::NAME);
        t.div2();
    }
    assert!(!t.is_even(), "{}: 2-adicity understated", P::NAME);
    let g = BigInt::from_u64(P::GENERATOR);
    let g: Fp<P, N> = raw(oracle::mont_mul::<P, N>(&g, &Fp::<P, N>::R2));
    let legendre = oracle_pow(g, &half::<P, N>());
    assert_eq!(
        legendre.0,
        (-Fp::<P, N>::one()).0,
        "{}: GENERATOR is a residue",
        P::NAME
    );
    let mut w = oracle_pow(g, &t);
    for _ in 1..P::TWO_ADICITY {
        w = oracle_mul(w, w);
    }
    let one = Fp::<P, N>::one().0;
    assert_ne!(w.0, one, "{}: root order too small", P::NAME);
    assert_eq!(oracle_mul(w, w).0, one, "{}: root order too large", P::NAME);
}

#[test]
fn full_width_modulus_is_a_field() {
    oracle_self_check::<Full256Params, 4>();
    let mut rng = StdRng::seed_from_u64(18);
    let mul = oracle_mul::<Full256Params, 4>;
    for _ in 0..32 {
        let (a, b): (Full256, Full256) = (random_raw(&mut rng), random_raw(&mut rng));
        assert_eq!(mul(a + b, a - b).0, (a.square() - b.square()).0);
        let expanded = a.square() + mul(a, b).double() + b.square();
        assert_eq!((a + b).square().0, expanded.0);
        assert_eq!(mul(a, a.inverse().expect("nonzero")).0, Full256::one().0);
    }
}

/// Schoolbook `Fp2` product with `u² = −1`: four base multiplications.
fn ref_mul<C: Fp2Config>(a: &Fp2<C>, b: &Fp2<C>) -> (C::Fp, C::Fp) {
    (a.c0 * b.c0 - a.c1 * b.c1, a.c0 * b.c1 + a.c1 * b.c0)
}

fn check_tower<C, P, const N: usize>(seed: u64)
where
    P: FpParams<N>,
    C: Fp2Config<Fp = Fp<P, N>>,
{
    let coeffs = edges::<P, N>(seed, 2);
    let mut values: Vec<Fp2<C>> = Vec::new();
    for &c0 in &coeffs {
        for &c1 in &coeffs {
            values.push(Fp2::new(c0, c1));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed + 100);
    values.extend((0..16).map(|_| Fp2::random(&mut rng)));
    for a in &values {
        let norm = a.c0 * a.c0 + a.c1 * a.c1;
        assert_eq!(a.norm(), norm, "{}: norm of {a}", P::NAME);
        let sq = a.square();
        assert_eq!((sq.c0, sq.c1), ref_mul(a, a), "{}: square of {a}", P::NAME);
        match a.inverse() {
            None => assert!(a.is_zero(), "{}: no inverse for {a}", P::NAME),
            Some(inv) => {
                let n_inv = norm
                    .inverse()
                    .expect("the norm of a nonzero element is nonzero");
                assert_eq!(
                    (inv.c0, inv.c1),
                    (a.c0 * n_inv, -(a.c1 * n_inv)),
                    "{}",
                    P::NAME
                );
                assert_eq!(ref_mul(a, &inv), (Fp::one(), Fp::zero()), "{}", P::NAME);
            }
        }
        for b in &values {
            let ab = *a * *b;
            assert_eq!((ab.c0, ab.c1), ref_mul(a, b), "{}: {a} · {b}", P::NAME);
        }
    }
}

#[test]
fn fp2_matches_schoolbook_on_every_tower() {
    check_tower::<Bn254Tower, _, 4>(21);
    check_tower::<Bls381Tower, _, 6>(22);
    check_tower::<T753Tower, _, 12>(23);
}

/// `Fp2`'s batched inversion through the norm against Montgomery's trick
/// in `Fp2` itself: the same inverses, the same count, zeros left in
/// place — with zeros at both ends, in runs and alone, and on the empty
/// and the all-zero batch.
fn check_batch_inverse<C: Fp2Config>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let zero = Fp2::<C>::zero();
    let mut mixed: Vec<Fp2<C>> = (0..40).map(|_| Fp2::random(&mut rng)).collect();
    for i in [0, 1, 2, 17, 39] {
        mixed[i] = zero;
    }
    // Zero in one coefficient only is not a zero entry.
    mixed[5].c0 = C::Fp::zero();
    mixed[6].c1 = C::Fp::zero();
    for values in [mixed, Vec::new(), vec![zero; 3], vec![Fp2::one()]] {
        let (mut by_norm, mut generic) = (values.clone(), values.clone());
        let mut prod = Vec::new();
        let count = gzkp_ff::batch_inverse_scratch(&mut by_norm, &mut prod);
        assert!(prod.is_empty());
        let expect = gzkp_ff::traits::montgomery_batch_inverse(&mut generic, &mut prod);
        assert_eq!((count, &by_norm), (expect, &generic));
        assert_eq!(count, values.iter().filter(|v| !v.is_zero()).count());
        for (v, inv) in values.iter().zip(&by_norm) {
            assert_eq!(*inv, v.inverse().unwrap_or(zero));
        }
    }
}

#[test]
fn fp2_batch_inverse_through_the_norm_matches_the_generic_path() {
    check_batch_inverse::<Bn254Tower>(24);
    check_batch_inverse::<Bls381Tower>(25);
    check_batch_inverse::<T753Tower>(26);
}

/// `x^((q−1)/2) = −1` for `x = −1`, i.e. `q ≡ 3 (mod 4)`.
fn minus_one_is_a_non_residue<P: FpParams<N>, const N: usize>() {
    let m1 = -Fp::<P, N>::one();
    assert_eq!(m1.pow(&half::<P, N>().0), m1, "{}: −1 is a square", P::NAME);
    assert_eq!(P::MODULUS.0[0] & 3, 3, "{}: q ≢ 3 (mod 4)", P::NAME);
    assert!(m1.sqrt().is_none(), "{}", P::NAME);
}

#[test]
fn minus_one_is_a_non_residue_mod_every_curve_q() {
    minus_one_is_a_non_residue::<Fq254Params, 4>();
    minus_one_is_a_non_residue::<Fq381Params, 6>();
    minus_one_is_a_non_residue::<Fq753Params, 12>();
}
