//! Golden exact counts of the host fold. On a host whose timings move by
//! 25 % between runs, exact counts are the gate that resolves a small
//! algorithmic change: one extra addition per bucket task, a window one
//! off, a table level more. Each shape pins the derived host window, the
//! fold's batch-affine additions and inversions, and the checkpoint-table
//! bytes the store charges, for a seeded small MSM with the window left
//! to the engine. A change that moves any of them must update this file
//! and say why.
//!
//! The counts are the same at every thread count (bucket tasks are cut
//! from the load profile alone); CI runs this at `GZKP_THREADS` 1 and 4.

use gzkp_curves::{bls12_381, bn254, compress, random_points, CoordField, CurveParams};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_msm::{host_window_size, CpuMsm, GzkpMsm, MsmEngine, PreprocessStore, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// `(host window, batch padds, batch inversions, table bytes)`.
type Golden = (u32, u64, u64, u64);

/// Runs one seeded MSM of `n` points through a fresh store: dense scalars,
/// or a 0/1-heavy vector (two in three scalars 0 or 1) when `sparse`.
fn counts<C: CurveParams>(n: usize, seed: u64, sparse: bool) -> Golden
where
    C::Base: CoordField,
{
    counts_unused::<C>(n, seed, sparse, 0)
}

/// [`counts`] over a key vector whose columns `i` with `i % 8 < unused`
/// are unused — the identity, as in a Groth16 `a_query` or `b_g2`.
fn counts_unused<C: CurveParams>(n: usize, seed: u64, sparse: bool, unused: usize) -> Golden
where
    C::Base: CoordField,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = random_points::<C, _>(n, &mut rng);
    for (i, p) in points.iter_mut().enumerate() {
        if i % 8 < unused {
            *p = gzkp_curves::Affine::identity();
        }
    }
    let scalars: Vec<C::Scalar> = (0..n)
        .map(|i| match i % 3 {
            0 | 1 if sparse => C::Scalar::from_u64((i % 2) as u64),
            _ => C::Scalar::random(&mut rng),
        })
        .collect();
    let scalars = ScalarVec::from_field(&scalars);
    let store = Arc::new(PreprocessStore::new(PreprocessStore::DEFAULT_BUDGET_BYTES));
    let run = GzkpMsm::new(v100())
        .with_store(store.clone())
        .msm(&points, &scalars);
    assert_eq!(
        compress(&run.result.to_affine()),
        compress(&CpuMsm::serial().msm(&points, &scalars).result.to_affine()),
        "{} n={n} sparse={sparse}",
        C::NAME
    );
    (
        host_window_size::<C>(n),
        run.stats.batch_padds,
        run.stats.batch_inversions,
        store.bytes_used(),
    )
}

#[test]
fn bn254_g1_fold_counts() {
    type C = bn254::G1Config;
    assert_eq!(
        counts::<C>(512, 81, false),
        (10, 12776, 25, 425984),
        "dense"
    );
    assert_eq!(
        counts::<C>(512, 82, true),
        (10, 4070, 24, 425984),
        "0/1-heavy"
    );
}

#[test]
fn bn254_g2_fold_counts() {
    type C = bn254::G2Config;
    assert_eq!(counts::<C>(256, 83, false), (8, 8028, 28, 524288), "dense");
    assert_eq!(
        counts::<C>(256, 84, true),
        (8, 2661, 26, 524288),
        "0/1-heavy"
    );
}

#[test]
fn bls12_381_g1_fold_counts() {
    type C = bls12_381::G1Config;
    assert_eq!(counts::<C>(256, 85, false), (8, 8037, 28, 393216), "dense");
    assert_eq!(
        counts::<C>(256, 86, true),
        (8, 2670, 26, 393216),
        "0/1-heavy"
    );
}

#[test]
fn groth16_like_key_with_unused_columns() {
    // Three in eight columns unused (a 2¹² key's `a_query` leaves 2 349 of
    // 6 447): the tables charge the five stored points per eight at each
    // level, 64 / 128 bytes per G1 / G2 point — 13 and 16 levels.
    let g1 = counts_unused::<bn254::G1Config>(512, 87, true, 3);
    assert_eq!(g1.3, 13 * 320 * 64);
    assert_eq!(g1, (10, 2375, 22, 266240), "G1");
    let g2 = counts_unused::<bn254::G2Config>(256, 88, true, 3);
    assert_eq!(g2.3, 16 * 160 * 128);
    assert_eq!(g2, (8, 1623, 24, 327680), "G2");
}

#[test]
fn host_window_is_the_derived_minimum() {
    // The benchmark shapes (2¹² keys) fold at k = 12 on both BN254
    // groups, where the simulated Algorithm-1 window is 9.
    for n in [4095, 4098, 6447] {
        assert_eq!(host_window_size::<bn254::G1Config>(n), 12, "n={n}");
        assert_eq!(host_window_size::<bn254::G2Config>(n), 12, "n={n}");
    }
}
