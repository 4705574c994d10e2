//! The fold's edge cases against the serial oracle, byte for byte: the
//! signed first round of the bucket reducer (tangents and cancellations
//! decided on the signed `y`s, a negated point carried alone), the affine
//! bucket finish (`s₁ + φ(s₂)` in one batch-affine round, with either
//! segment empty) and the gather's identity columns, on BN254 G1/G2 and
//! BLS12-381 G1/G2, at `M = 1` and on the streamed passes of `M = 2`.
//! Every case pins the host window, and the ones built for one bucket
//! check through the `p_index` that the bucket holds what the case needs.
//!
//! CI runs this at `GZKP_THREADS` 1 and 4.

use gzkp_curves::{bls12_381, bn254, compress, random_points, Affine, CoordField, CurveParams};
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::v100;
use gzkp_msm::{CpuMsm, GzkpMsm, MsmEngine, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The host window every case folds at (both windows pinned).
const K: u32 = 4;

/// Asserts that the fold at `M = 1` and `M = 2` gives the serial oracle's
/// compressed bytes.
fn agree<C: CurveParams>(case: &str, points: &[Affine<C>], scalars: &[C::Scalar])
where
    C::Base: CoordField,
{
    let scalars = ScalarVec::from_field(scalars);
    let expect = compress(&CpuMsm::serial().msm(points, &scalars).result.to_affine());
    for m in [1, 2] {
        let engine = GzkpMsm {
            window: Some(K),
            checkpoint_interval: Some(m),
            ..GzkpMsm::new(v100())
        };
        let run = engine.msm(points, &scalars);
        assert_eq!(
            compress(&run.result.to_affine()),
            expect,
            "{} {case} M={m}",
            C::NAME
        );
    }
}

/// The `(point, window, negated)` entries of bucket `digit`'s `s₁`
/// segment (`phi` false) or `s₂` segment (`phi` true).
fn segment<C: CurveParams>(
    scalars: &[C::Scalar],
    digit: usize,
    phi: bool,
) -> Vec<(usize, usize, bool)> {
    let index = ScalarVec::from_field(scalars).p_index::<C>(K);
    index
        .segment(2 * (digit - 1) + usize::from(phi))
        .map(|e| (e.point, e.window, e.neg))
        .collect()
}

fn small<C: CurveParams>(v: u64) -> C::Scalar {
    C::Scalar::from_u64(v)
}

fn lambda<C: CurveParams>() -> C::Scalar {
    let split = C::glv().expect("a j = 0 curve has a GLV split").split();
    C::Scalar::from_limbs(split.lambda()).expect("λ below r")
}

fn check_curve<C: CurveParams>(seed: u64)
where
    C::Base: CoordField,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let p = random_points::<C, _>(4, &mut rng);
    let d = 3u64;

    // P and −P from two windows: point 1 is 2^K·P₀, so digit d of point 0
    // at window 1 reads 2^K·P₀ from level 1 and −d at window 0 of point 1
    // reads the same coordinates, negated. The bucket's first pair cancels.
    let shifted = p[0].to_projective().mul_u64(1 << K).to_affine();
    let across = [small::<C>(d << K), -small::<C>(d)];
    assert_eq!(
        segment::<C>(&across, d as usize, false),
        [(0, 1, false), (1, 0, true)]
    );
    agree("cancel across windows", &[p[0], shifted], &across);
    // … and with more entries after the cancelled pair.
    let mut tail = across.to_vec();
    tail.extend([small::<C>(d), small::<C>(d << K)]);
    agree(
        "cancel across windows, then more",
        &[p[0], shifted, p[1], p[2]],
        &tail,
    );

    // The same stored point twice with equal signs: a tangent.
    let twice = [small::<C>(d), small::<C>(d)];
    assert_eq!(
        segment::<C>(&twice, d as usize, false),
        [(0, 0, false), (1, 0, false)]
    );
    agree("tangent, equal signs", &[p[0], p[0]], &twice);
    agree(
        "tangent, both negated",
        &[p[0], p[0]],
        &[-twice[0], -twice[1]],
    );
    // With opposite signs: a cancel to the identity.
    let opposite = [small::<C>(d), -small::<C>(d)];
    assert_eq!(
        segment::<C>(&opposite, d as usize, false),
        [(0, 0, false), (1, 0, true)]
    );
    agree("cancel, opposite signs", &[p[0], p[0]], &opposite);
    // Opposite signs over stored points that are each other's negation:
    // a tangent whose stored y's differ.
    agree("tangent over P and −P", &[p[0], p[0].neg()], &opposite);

    // A negated odd carried entry: three in the bucket, the last one
    // negated, and a lone negated entry in another bucket.
    let odd = [
        small::<C>(d),
        small::<C>(d),
        -small::<C>(d),
        -small::<C>(d + 2),
    ];
    assert_eq!(
        segment::<C>(&odd, d as usize, false),
        [(0, 0, false), (1, 0, false), (2, 0, true)]
    );
    assert_eq!(segment::<C>(&odd, d as usize + 2, false), [(3, 0, true)]);
    agree("negated odd carried entry", &p, &odd);

    // Buckets with an empty s₁ or s₂ segment: d·λ is all s₂ digits, and
    // bucket d + 1 gets only s₁ digits, so the finish round adds nothing
    // there; bucket d + 2 gets both.
    let lambda = lambda::<C>();
    let halves = [
        small::<C>(d) * lambda,
        small::<C>(d + 1),
        small::<C>(d + 2),
        small::<C>(d + 2) * lambda,
    ];
    assert!(segment::<C>(&halves, d as usize, false).is_empty());
    assert_eq!(segment::<C>(&halves, d as usize, true), [(0, 0, false)]);
    assert_eq!(
        segment::<C>(&halves, d as usize + 1, false),
        [(1, 0, false)]
    );
    assert!(segment::<C>(&halves, d as usize + 1, true).is_empty());
    assert_eq!(
        segment::<C>(&halves, d as usize + 2, false),
        [(2, 0, false)]
    );
    assert_eq!(segment::<C>(&halves, d as usize + 2, true), [(3, 0, false)]);
    agree("empty s₁ or s₂ segment", &p, &halves);
    // φ(s₂) = s₁ in one bucket — point 1 is φ⁻¹(P₀) = (β²x, y) — so
    // the finish round's pair is a tangent, and with it negated a cancel.
    let glv = C::glv().expect("a j = 0 curve has a GLV split");
    let unphi = glv.phi(&glv.phi(&p[0]));
    let both = [small::<C>(d), small::<C>(d) * lambda];
    agree("finish tangent", &[p[0], unphi], &both);
    agree("finish cancel", &[p[0], unphi.neg()], &both);

    // Identity key columns (`i % 8 < 3`) under dense and 0/1 scalars, and
    // a dense vector on the streamed passes of M = 2 (`agree` runs both).
    let n = 64;
    let mut points = random_points::<C, _>(n, &mut rng);
    for (i, q) in points.iter_mut().enumerate() {
        if i % 8 < 3 {
            *q = Affine::identity();
        }
    }
    let scalars: Vec<C::Scalar> = (0..n)
        .map(|i| match i % 3 {
            0 => small::<C>((i % 2) as u64),
            _ => C::Scalar::random(&mut rng),
        })
        .collect();
    agree("identity key columns", &points, &scalars);
    let dense = random_points::<C, _>(n, &mut rng);
    let scalars: Vec<C::Scalar> = (0..n).map(|_| C::Scalar::random(&mut rng)).collect();
    agree("dense, streamed passes", &dense, &scalars);
}

#[test]
fn bn254_g1_fold_edges() {
    check_curve::<bn254::G1Config>(91);
}

#[test]
fn bn254_g2_fold_edges() {
    check_curve::<bn254::G2Config>(92);
}

#[test]
fn bls12_381_g1_fold_edges() {
    check_curve::<bls12_381::G1Config>(93);
}

#[test]
fn bls12_381_g2_fold_edges() {
    check_curve::<bls12_381::G2Config>(94);
}
