//! A store hit is checked against content. The store finds a point
//! vector's tables by its address and length, so a key vector mutated in
//! place — at any index — still finds its old entry; the hit must notice
//! that level 0 no longer holds the requested points, rebuild, and give
//! the MSM of the new points.

use gzkp_curves::bn254::{Fr, G1Config};
use gzkp_curves::{compress, random_points};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_msm::{CpuMsm, GzkpMsm, MsmEngine, PreprocessStore, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn a_key_vector_mutated_in_place_is_not_served_stale_tables() {
    let mut rng = StdRng::seed_from_u64(71);
    let n = 200;
    let mut points = random_points::<G1Config, _>(n, &mut rng);
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let scalars = ScalarVec::from_field(&scalars);
    let store = Arc::new(PreprocessStore::new(PreprocessStore::DEFAULT_BUDGET_BYTES));
    let engine = GzkpMsm::new(v100()).with_store(store.clone());
    let oracle =
        |points: &[_]| compress(&CpuMsm::serial().msm(points, &scalars).result.to_affine());

    let first = engine.msm(&points, &scalars).result;
    assert_eq!(compress(&first.to_affine()), oracle(&points));
    // Same address, same length, same points at 0, n/2 and n − 1.
    let before = points.as_ptr();
    points[1] = random_points::<G1Config, _>(1, &mut rng)[0];
    assert_eq!(points.as_ptr(), before);
    let second = engine.msm(&points, &scalars).result;
    assert_eq!(
        compress(&second.to_affine()),
        oracle(&points),
        "the MSM after the mutation must use the new points"
    );
    assert_eq!(store.misses(), 2, "the stale entry is a miss");
    assert_eq!(store.len(), 1, "the rebuilt tables replace the stale entry");
    // The replacement serves the mutated vector from now on.
    engine.msm(&points, &scalars);
    assert_eq!((store.hits(), store.misses()), (1, 2));
}
