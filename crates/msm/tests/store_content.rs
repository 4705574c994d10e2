//! A store hit is checked against content. The store finds a point
//! vector's tables by its address, and serves a prefix of a stored vector
//! from the longer entry, so a key vector mutated in place — at any index
//! — still finds its old entry; the hit must notice that level 0 no longer
//! holds the requested points or their identity pattern, rebuild, and give
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

/// `(engine, store)` with the host window pinned to `k`, so a vector and
/// its prefixes share one table shape.
fn pinned(k: u32) -> (GzkpMsm, Arc<PreprocessStore>) {
    let store = Arc::new(PreprocessStore::new(PreprocessStore::DEFAULT_BUDGET_BYTES));
    let mut engine = GzkpMsm::new(v100()).with_store(store.clone());
    engine.window = Some(k);
    (engine, store)
}

fn prefix_fixture(seed: u64, n: usize) -> (Vec<gzkp_curves::Affine<G1Config>>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = random_points::<G1Config, _>(n, &mut rng);
    let scalars = (0..n).map(|_| Fr::random(&mut rng)).collect();
    (points, scalars)
}

fn oracle_of(points: &[gzkp_curves::Affine<G1Config>], scalars: &[Fr]) -> Vec<u8> {
    let scalars = ScalarVec::from_field(scalars);
    compress(&CpuMsm::serial().msm(points, &scalars).result.to_affine())
}

#[test]
fn a_prefix_of_a_stored_vector_is_a_hit() {
    // A KZG commitment to fewer coefficients than the SRS holds reads the
    // SRS's tables; a longer request replaces the shorter entry.
    let (points, scalars) = prefix_fixture(72, 120);
    let (engine, store) = pinned(6);
    for len in [120, 117, 120, 1] {
        let got = engine.msm(&points[..len], &ScalarVec::from_field(&scalars[..len]));
        assert_eq!(
            compress(&got.result.to_affine()),
            oracle_of(&points[..len], &scalars[..len]),
            "prefix of {len}"
        );
    }
    assert_eq!((store.hits(), store.misses(), store.len()), (3, 1, 1));

    let (shorter_first, store) = pinned(6);
    shorter_first.msm(&points[..117], &ScalarVec::from_field(&scalars[..117]));
    shorter_first.msm(&points, &ScalarVec::from_field(&scalars));
    let bytes = store.bytes_used();
    shorter_first.msm(&points[..117], &ScalarVec::from_field(&scalars[..117]));
    assert_eq!((store.hits(), store.misses(), store.len()), (1, 2, 1));
    assert_eq!(
        store.bytes_used(),
        bytes,
        "the longer entry replaced the shorter"
    );
}

#[test]
fn a_prefix_mutated_in_place_misses_and_replaces_the_entry() {
    let (mut points, scalars) = prefix_fixture(73, 120);
    let (engine, store) = pinned(6);
    engine.msm(&points, &ScalarVec::from_field(&scalars));
    points[100] = random_points::<G1Config, _>(1, &mut StdRng::seed_from_u64(74))[0];
    let got = engine.msm(&points[..110], &ScalarVec::from_field(&scalars[..110]));
    assert_eq!(
        compress(&got.result.to_affine()),
        oracle_of(&points[..110], &scalars[..110]),
        "the prefix MSM after the mutation must use the new points"
    );
    assert_eq!((store.hits(), store.misses(), store.len()), (0, 2, 1));
    // A prefix that stops before the mutated point is served by the
    // replacement.
    engine.msm(&points[..50], &ScalarVec::from_field(&scalars[..50]));
    assert_eq!((store.hits(), store.misses()), (1, 2));
}

#[test]
fn a_prefix_of_another_shape_misses() {
    let (points, scalars) = prefix_fixture(75, 120);
    let (engine, store) = pinned(6);
    engine.msm(&points, &ScalarVec::from_field(&scalars));
    let mut other = engine.clone();
    other.window = Some(7);
    let got = other.msm(&points[..117], &ScalarVec::from_field(&scalars[..117]));
    assert_eq!(
        compress(&got.result.to_affine()),
        oracle_of(&points[..117], &scalars[..117])
    );
    assert_eq!((store.hits(), store.misses(), store.len()), (0, 2, 2));
}

#[test]
fn a_vector_whose_identity_pattern_moved_misses() {
    // The tables store only the non-identity points, in order. Moving an
    // unused column one place — `[P, O]` becomes `[O, P]` at the same
    // address — leaves that stored list the same; the hit must still
    // compare the identity pattern, rebuild, and give the new MSM.
    let (mut points, scalars) = prefix_fixture(76, 120);
    points[40] = gzkp_curves::Affine::identity();
    let (engine, store) = pinned(6);
    engine.msm(&points, &ScalarVec::from_field(&scalars));
    let bytes = store.bytes_used();
    points.swap(39, 40);
    let got = engine.msm(&points, &ScalarVec::from_field(&scalars));
    assert_eq!(
        compress(&got.result.to_affine()),
        oracle_of(&points, &scalars),
        "the MSM after the move must read the new pattern"
    );
    assert_eq!((store.hits(), store.misses(), store.len()), (0, 2, 1));
    assert_eq!(store.bytes_used(), bytes, "the same points are stored");
    engine.msm(&points, &ScalarVec::from_field(&scalars));
    assert_eq!((store.hits(), store.misses()), (1, 2));
}
