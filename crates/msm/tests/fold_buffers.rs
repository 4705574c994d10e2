//! Fold buffers are written before they are read: each worker of the fold
//! reuses its task buffers across the tasks and passes of an MSM, and one
//! engine's store serves the MSMs that follow. Back-to-back MSMs through
//! one engine — a hot bucket, another curve, a small vector, a dense one,
//! a streamed shape — must each give a fresh engine's result and stats and
//! `naive_msm`'s sum, so nothing stale is read.
//!
//! CI runs this at `GZKP_THREADS` 1 and 4.

use gzkp_curves::{bn254, random_points, Affine, CurveParams};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_msm::{naive_msm, GzkpMsm, MsmEngine, PreprocessStore, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn agree<C: CurveParams>(
    case: &str,
    engine: &GzkpMsm,
    points: &[Affine<C>],
    scalars: &[C::Scalar],
) {
    let vector = ScalarVec::from_field(scalars);
    let run = engine.msm(points, &vector);
    // The same engine on a store of its own, and a vector of its own so
    // that it builds its own `p_index`.
    let fresh = GzkpMsm {
        store: Some(Arc::new(PreprocessStore::new(64 << 20))),
        ..engine.clone()
    };
    let expect = fresh.msm(points, &ScalarVec::from_field(scalars));
    assert_eq!(run.result, expect.result, "{case}: against a fresh engine");
    assert_eq!(run.stats, expect.stats, "{case}: stats");
    assert_eq!(
        run.result,
        naive_msm(points, &vector),
        "{case}: against naive_msm"
    );
}

fn dense<F: Field>(n: usize, rng: &mut StdRng) -> Vec<F> {
    (0..n).map(|_| F::random(rng)).collect()
}

#[test]
fn back_to_back_msms_match_a_fresh_engine() {
    use bn254::{G1Config, G2Config};
    let mut rng = StdRng::seed_from_u64(7);
    let engine = GzkpMsm::new(v100()).with_store(Arc::new(PreprocessStore::new(64 << 20)));

    // Mostly 0 and 1, with every fifth scalar random: one hot bucket.
    let n = 6447;
    let points = random_points::<G1Config, _>(n, &mut rng);
    let sparse: Vec<bn254::Fr> = (0..n)
        .map(|i| match i % 5 {
            0 => bn254::Fr::random(&mut rng),
            i => bn254::Fr::from_u64(i as u64 % 2),
        })
        .collect();
    agree("0/1-heavy G1", &engine, &points, &sparse);

    let g2 = random_points::<G2Config, _>(300, &mut rng);
    agree("G2", &engine, &g2, &dense(300, &mut rng));

    agree("17-point G1", &engine, &points[..17], &dense(17, &mut rng));

    let n = 1 << 11;
    agree("dense 2^11 G1", &engine, &points[..n], &dense(n, &mut rng));

    let streamed = GzkpMsm {
        checkpoint_interval: Some(2),
        ..engine.clone()
    };
    agree("M = 2 G1", &streamed, &points[..n], &dense(n, &mut rng));
}
