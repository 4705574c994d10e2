//! Property-based tests of the curve substrate: group laws, coordinate
//! systems, serialization, and tower-field structure — on all three curve
//! families.

use gzkp_curves::group::{batch_to_affine, random_points, Projective};
use gzkp_curves::serialize::{compress, decompress};
use gzkp_curves::{bls12_381, bn254, t753, CurveParams};
use gzkp_ff::ext::Fp2;
use gzkp_ff::Field;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rand_point<C: CurveParams>(seed: u64) -> Projective<C> {
    let mut rng = StdRng::seed_from_u64(seed);
    Projective::<C>::generator().mul(&C::Scalar::random(&mut rng))
}

fn group_laws_for<C: CurveParams>(seed: u64) {
    let p = rand_point::<C>(seed);
    let q = rand_point::<C>(seed ^ 0xdead);
    let r = rand_point::<C>(seed ^ 0xbeef);
    // Abelian group axioms.
    assert_eq!(p.add(&q), q.add(&p), "{} commutativity", C::NAME);
    assert_eq!(
        p.add(&q).add(&r),
        p.add(&q.add(&r)),
        "{} associativity",
        C::NAME
    );
    assert_eq!(p.add(&Projective::identity()), p, "{} identity", C::NAME);
    assert!(p.add(&p.neg()).is_identity(), "{} inverse", C::NAME);
    assert_eq!(p.double(), p.add(&p), "{} doubling", C::NAME);
    // Mixed addition agrees with full addition.
    assert_eq!(p.add(&q), p.add_mixed(&q.to_affine()), "{} mixed", C::NAME);
    // Affine roundtrip.
    assert_eq!(
        p.to_affine().to_projective(),
        p,
        "{} affine roundtrip",
        C::NAME
    );
    assert!(p.to_affine().is_on_curve(), "{} on-curve", C::NAME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn group_laws_all_curves(seed in any::<u64>()) {
        group_laws_for::<bn254::G1Config>(seed);
        group_laws_for::<bn254::G2Config>(seed);
        group_laws_for::<bls12_381::G1Config>(seed);
        group_laws_for::<bls12_381::G2Config>(seed);
        group_laws_for::<t753::G1Config>(seed);
        group_laws_for::<t753::G2Config>(seed);
    }

    #[test]
    fn scalar_mul_homomorphism(seed in any::<u64>()) {
        // (a·b)·G == a·(b·G) on prime-order groups.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = bn254::Fr::random(&mut rng);
        let b = bn254::Fr::random(&mut rng);
        let g = Projective::<bn254::G1Config>::generator();
        prop_assert_eq!(g.mul(&(a * b)), g.mul(&a).mul(&b));
    }

    #[test]
    fn compression_roundtrip_random(seed in any::<u64>()) {
        let p = rand_point::<bls12_381::G1Config>(seed).to_affine();
        prop_assert_eq!(decompress::<bls12_381::G1Config>(&compress(&p)).unwrap(), p);
        let q = rand_point::<bls12_381::G2Config>(seed).to_affine();
        prop_assert_eq!(decompress::<bls12_381::G2Config>(&compress(&q)).unwrap(), q);
    }

    #[test]
    fn fp2_field_axioms(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: bn254::Fq2 = Fp2::random(&mut rng);
        let b: bn254::Fq2 = Fp2::random(&mut rng);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a.square(), a * a);
        prop_assert_eq!(a.conjugate().conjugate(), a);
        // Norm is multiplicative.
        prop_assert_eq!((a * b).norm(), a.norm() * b.norm());
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fp2::one());
        }
    }

    #[test]
    fn fq12_cyclotomic_structure(seed in any::<u64>()) {
        // After the final exponentiation's easy part, conj(f) == f^{-1}.
        let mut rng = StdRng::seed_from_u64(seed);
        let f: bn254::Fq12 = Field::random(&mut rng);
        prop_assume!(!f.is_zero());
        let f1 = f.conjugate() * f.inverse().unwrap(); // f^(q^6 − 1)
        let g = f1.frobenius_map(2) * f1; // ^(q^2 + 1): in cyclotomic subgroup
        prop_assert_eq!(g.conjugate(), g.inverse().unwrap());
    }
}

#[test]
fn batch_affine_pairs_match_projective_addition() {
    use gzkp_curves::group::{batch_add_affine_pairs, Affine};
    fn check<C: CurveParams>() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts = random_points::<C, _>(16, &mut rng);
        let mut ps: Vec<Affine<C>> = Vec::new();
        let mut qs: Vec<Affine<C>> = Vec::new();
        // Generic pairs.
        for i in 0..8 {
            ps.push(pts[i]);
            qs.push(pts[i + 8]);
        }
        // Special cases: doubling, cancellation, identity on either side.
        ps.push(pts[0]);
        qs.push(pts[0]);
        ps.push(pts[1]);
        qs.push(pts[1].to_projective().neg().to_affine());
        ps.push(Affine::identity());
        qs.push(pts[2]);
        ps.push(pts[3]);
        qs.push(Affine::identity());
        ps.push(Affine::identity());
        qs.push(Affine::identity());
        let (sums, amortized) = batch_add_affine_pairs(&ps, &qs);
        for ((p, q), s) in ps.iter().zip(&qs).zip(&sums) {
            let expect = p.to_projective().add_mixed(q).to_affine();
            assert_eq!(*s, expect, "{} batch-affine pair", C::NAME);
        }
        // 8 generic chords + 1 tangent needed an inversion each; the
        // cancellation and identity pairs are trivial.
        assert_eq!(amortized, 9, "{} amortized count", C::NAME);
    }
    check::<bn254::G1Config>();
    check::<bn254::G2Config>();
    check::<bls12_381::G1Config>();
    check::<t753::G1Config>();
}

#[test]
fn batch_normalize_handles_identity_mix() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut pts: Vec<Projective<bn254::G1Config>> =
        random_points::<bn254::G1Config, _>(6, &mut rng)
            .iter()
            .map(|p| p.to_projective())
            .collect();
    pts.insert(2, Projective::identity());
    pts.push(Projective::identity());
    let affines = batch_to_affine(&pts);
    for (p, a) in pts.iter().zip(&affines) {
        assert_eq!(p.to_affine(), *a);
    }
    assert!(affines[2].is_identity());
}

#[test]
fn pairing_products_match_multi_pairing() {
    use gzkp_curves::{multi_pairing, PairingConfig};
    type P = bn254::Bn254;
    let mut rng = StdRng::seed_from_u64(6);
    let a = rand_point::<<P as PairingConfig>::G1>(1).to_affine();
    let b = rand_point::<<P as PairingConfig>::G2>(2).to_affine();
    let c = rand_point::<<P as PairingConfig>::G1>(3).to_affine();
    let d = rand_point::<<P as PairingConfig>::G2>(4).to_affine();
    let single = bn254::pairing(&a, &b) * bn254::pairing(&c, &d);
    let multi = multi_pairing::<P>(&[(a, b), (c, d)]);
    assert_eq!(single, multi);
    let _ = &mut rng;
}
