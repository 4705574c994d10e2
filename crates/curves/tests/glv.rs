//! The GLV data of BN254 and BLS12-381, derived in-tree, against their
//! definitions: the split `s ≡ s₁ + λ·s₂ (mod r)` with both halves inside
//! the stated bound (and `(s, 0)` below it), and `φ(x, y) = (β·x, y)`
//! acting as λ on G1 and G2. Both tests print the eigenvalue they found.

use gzkp_curves::glv::cube_root_of_unity;
use gzkp_curves::{bls12_381, bn254, t753, Affine, CurveParams, Projective, ScalarSplit};
use gzkp_ff::{Field, PrimeField};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn split_of<C: CurveParams>() -> &'static ScalarSplit {
    C::glv()
        .expect("a j = 0 pairing curve has a GLV split")
        .split()
}

fn signed<F: PrimeField>((neg, mag): (bool, u128)) -> F {
    let v = F::from_limbs(&[mag as u64, (mag >> 64) as u64]).expect("half below r");
    if neg {
        -v
    } else {
        v
    }
}

/// Splits `s` and checks the congruence and the bound.
fn check_split<F: PrimeField>(split: &ScalarSplit, s: &[u64]) {
    let halves = split.split(s);
    let lambda = F::from_limbs(split.lambda()).expect("λ below r");
    // Σ limbᵢ·2^{64i} mod r: any limbs, canonical or not.
    let radix = F::from_u64(1 << 32).square();
    let whole = s
        .iter()
        .rev()
        .fold(F::zero(), |acc, &l| acc * radix + F::from_u64(l));
    assert_eq!(
        signed::<F>(halves[0]) + lambda * signed::<F>(halves[1]),
        whole,
        "s₁ + λ·s₂ ≢ s for {s:x?}"
    );
    for (_, mag) in halves {
        assert!(
            mag >> split.bound() == 0,
            "half {mag:#x} of {s:x?} exceeds 2^{}",
            split.bound()
        );
    }
}

fn edge_cases<F: PrimeField>(split: &ScalarSplit) {
    let limbs = |v: F| v.to_limbs();
    let lambda = F::from_limbs(split.lambda()).expect("λ below r");
    println!(
        "{} bits: λ = {:x?}, |s₁|, |s₂| < 2^{}",
        F::MODULUS_BITS,
        split.lambda(),
        split.bound()
    );
    assert_eq!(lambda.square() + lambda + F::one(), F::zero());
    let mut half_r = F::characteristic();
    for i in 0..half_r.len() {
        let next = half_r.get(i + 1).copied().unwrap_or(0);
        half_r[i] = half_r[i] >> 1 | next << 63;
    }
    let mut pow_bound = vec![0u64; F::NUM_LIMBS];
    pow_bound[split.bound() as usize / 64] = 1 << (split.bound() % 64);
    let below = (1u128 << split.bound()) - 1;
    for s in [
        limbs(F::zero()),
        limbs(F::one()),
        limbs(F::from_u64(2)),
        limbs(-F::one()),
        limbs(-F::from_u64(2)),
        limbs(lambda),
        limbs(lambda + F::one()),
        half_r,
        pow_bound,
        vec![below as u64, (below >> 64) as u64],
    ] {
        check_split::<F>(split, &s);
    }
    let whole = |v: u128| [(false, v), (false, 0)];
    assert_eq!(split.split(&limbs(F::zero())), whole(0));
    assert_eq!(split.split(&limbs(F::one())), whole(1));
    assert_eq!(split.split(&limbs(F::from_u64(2))), whole(2));
    assert_eq!(
        split.split(&[below as u64, (below >> 64) as u64]),
        whole(below)
    );
    assert_eq!(split.split(&limbs(-F::one())), [(true, 1), (false, 0)]);
    assert_eq!(
        split.split(&limbs(-F::from_u64(2))),
        [(true, 2), (false, 0)]
    );
}

#[test]
fn glv_split_edge_scalars() {
    edge_cases::<bn254::Fr>(split_of::<bn254::G1Config>());
    edge_cases::<bls12_381::Fr>(split_of::<bls12_381::G1Config>());
    // One split per scalar field: G1 and G2 recode a vector identically.
    assert!(std::ptr::eq(
        split_of::<bn254::G1Config>(),
        split_of::<bn254::G2Config>()
    ));
    assert!(std::ptr::eq(
        split_of::<bls12_381::G1Config>(),
        split_of::<bls12_381::G2Config>()
    ));
    assert!(t753::G1Config::glv().is_none() && t753::G2Config::glv().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn glv_split_recombines_within_its_bound(seed in any::<u64>(), lo in any::<u64>(), hi in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let small = u128::from(hi) << 64 | u128::from(lo);
        let split = split_of::<bn254::G1Config>();
        check_split::<bn254::Fr>(split, &bn254::Fr::random(&mut rng).to_limbs());
        // Limbs of the field's width but not reduced below r (a decoded
        // checkpoint may carry them): the bound covers every such value.
        check_split::<bn254::Fr>(split, &[lo, hi, seed, hi ^ seed]);
        let below = small >> (128 - split.bound());
        let s = [below as u64, (below >> 64) as u64];
        prop_assert_eq!(split.split(&s), [(false, below), (false, 0)]);

        let split = split_of::<bls12_381::G1Config>();
        check_split::<bls12_381::Fr>(split, &bls12_381::Fr::random(&mut rng).to_limbs());
        let below = small >> (128 - split.bound());
        let s = [below as u64, (below >> 64) as u64];
        prop_assert_eq!(split.split(&s), [(false, below), (false, 0)]);
    }
}

/// `φ = [λ]` on `C`, with `β³ = 1 ≠ β`; returns the eigenvalue of the
/// canonical `β₀ = g^{(q−1)/3}` on the group: `"λ"` or `"λ²"`.
fn eigenvalue<C: CurveParams>(seed: u64) -> &'static str {
    let glv = C::glv().expect("a j = 0 pairing curve has a GLV endomorphism");
    let g = Affine::<C>::generator();
    // β as `φ` applies it: `φ(g) = (β·x, y)`.
    let beta = glv.phi(&g).x * g.x.inverse().expect("the generator's x is not zero");
    assert!(beta != C::Base::one(), "{}", C::NAME);
    assert_eq!(beta.square() * beta, C::Base::one(), "{}", C::NAME);
    let lambda = glv.split().lambda();
    let p = Projective::<C>::generator()
        .mul(&C::Scalar::random(&mut StdRng::seed_from_u64(seed)))
        .to_affine();
    for q in [g, p] {
        assert_eq!(
            glv.phi(&q).to_projective(),
            q.to_projective().mul_limbs(lambda),
            "{}: φ ≠ λ",
            C::NAME
        );
    }
    // Which root of λ² + λ + 1 the canonical β₀ acts as.
    let beta0 = cube_root_of_unity::<C::Base>();
    let phi0 = Affine::<C>::new_unchecked(g.x * beta0, g.y).to_projective();
    let lambda = C::Scalar::from_limbs(lambda).expect("λ below r");
    let found = if phi0 == g.mul(&lambda) {
        assert!(beta == beta0);
        "λ"
    } else {
        assert_eq!(phi0, g.mul(&lambda.square()), "{}: φ₀ is neither", C::NAME);
        assert!(beta == beta0.square());
        "λ²"
    };
    println!("{}: φ(x, y) = (β₀·x, y) acts as {found}", C::NAME);
    found
}

#[test]
fn glv_endomorphism_is_lambda_on_every_group() {
    let found = [
        eigenvalue::<bn254::G1Config>(1),
        eigenvalue::<bn254::G2Config>(2),
        eigenvalue::<bls12_381::G1Config>(3),
        eigenvalue::<bls12_381::G2Config>(4),
    ];
    println!("eigenvalues of β₀ (BN254 G1/G2, BLS12-381 G1/G2): {found:?}");
}
