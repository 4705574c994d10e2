//! The range-major `p_index` fold is one function behind `GzkpMsm::msm`,
//! `msm_sharded` and `ShardTask::partial`, and its bucket tasks are cut
//! from the load profile alone. So for every fold configuration — each
//! checkpoint interval `M`, each shard count, each frozen partial, at a
//! pinned window and at the derived one (the host window differing from
//! the simulated one) — the
//! compressed result **and the `MsmStats`** must be the same at every
//! thread count, and every configuration must agree with the serial
//! mixed-addition oracle (`CpuMsm::serial()`: window-serial Pippenger on
//! one thread — no `p_index`, no batch-affine reducer, its running sum
//! over Jacobian buckets; it shares nothing with the fold but the group
//! law). Checked on BN254 G1, G2,
//! BLS12-381 G1 — whose recoded `p_index` holds negated and φ entries
//! (GLV halves in signed digits) — and the 753-bit curve, whose recoding
//! is signed digits over the unsplit scalar; over scalars with a hot
//! bucket, `r − 1`, `r − 2` and λ among them, and points with duplicates
//! and identities.
//!
//! Everything lives in ONE test function: the thread count is driven by
//! the `GZKP_THREADS` env override, and env mutation must stay
//! sequential within the test binary (see `parallel_determinism.rs`).

use gzkp_curves::{
    bls12_381, bn254, compress, random_points, t753, Affine, CoordField, CurveParams,
};
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::v100;
use gzkp_msm::{
    default_window_size, host_window_size, CpuMsm, GzkpMsm, MsmEngine, MsmStats, ScalarVec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every fold configuration's `(label, compressed result, stats)`, at a
/// pinned window (both windows `k`) or a derived one (`None`: the host
/// folds at `host_window_size`, the clock prices `default_window_size`).
fn fold_outputs<C: CurveParams>(
    points: &[Affine<C>],
    scalars: &ScalarVec,
    window: Option<u32>,
) -> Vec<(String, Vec<u8>, MsmStats)>
where
    C::Base: CoordField,
{
    let bytes = |p: &gzkp_curves::Projective<C>| compress(&p.to_affine());
    let mut out = Vec::new();
    let intervals: &[u32] = if window.is_some() {
        &[1, 2, 5]
    } else {
        &[1, 3]
    };
    for &m in intervals {
        let engine = GzkpMsm {
            window,
            checkpoint_interval: Some(m),
            ..GzkpMsm::new(v100())
        };
        let run = engine.msm(points, scalars);
        out.push((format!("msm M={m}"), bytes(&run.result), run.stats));
    }
    let engine = GzkpMsm {
        window,
        ..GzkpMsm::new(v100())
    };
    for shards in [1usize, 2, 7] {
        let run = engine.msm_sharded(points, scalars, shards);
        assert_eq!(run.stats.shards, shards as u64);
        out.push((format!("sharded x{shards}"), bytes(&run.result), run.stats));
    }
    let task = engine.shard_task::<C>(points, scalars, 3);
    if window.is_none() {
        assert_eq!(task.host_window(), host_window_size::<C>(points.len()));
        assert_eq!(task.window(), default_window_size(points.len()));
        assert_ne!(task.host_window(), task.window(), "{}", C::NAME);
    }
    let partials: Vec<_> = (0..task.num_ranges())
        .map(|i| task.partial(scalars, i))
        .collect();
    for (i, (partial, stats)) in partials.iter().enumerate() {
        out.push((format!("partial {i}/3"), bytes(partial), *stats));
    }
    let merged = task.merge(&partials.iter().map(|p| p.0).collect::<Vec<_>>());
    out.push(("merged x3".into(), bytes(&merged), MsmStats::default()));
    out
}

fn check_curve<C: CurveParams>(n: usize, window: u32, seed: u64, several_tasks: bool)
where
    C::Base: CoordField,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = random_points::<C, _>(n, &mut rng);
    // Duplicates meet in a bucket as a tangent; identities add nothing.
    for i in (0..n).step_by(7) {
        points[i] = points[(i + 1) % n];
    }
    points[n / 2] = Affine::identity();
    // A 0/1-heavy vector: bucket 1 is hot, as in a real witness. Every
    // ninth scalar is r − 1, r − 2 or λ: negated halves and a φ digit.
    let lambda = C::glv().map(|g| C::Scalar::from_limbs(g.split().lambda()).expect("λ below r"));
    let scalars: Vec<C::Scalar> = (0..n)
        .map(|i| match i % 3 {
            2 => C::Scalar::from_u64((i % 2) as u64),
            _ if i % 9 == 0 => match i / 9 % 3 {
                0 => -C::Scalar::one(),
                1 => -C::Scalar::from_u64(2),
                _ => lambda.unwrap_or_else(|| C::Scalar::random(&mut rng)),
            },
            _ => C::Scalar::random(&mut rng),
        })
        .collect();
    let scalars = ScalarVec::from_field(&scalars);
    let index = scalars.p_index::<C>(window);
    let entries: Vec<_> = (0..1 << window).flat_map(|j| index.segment(j)).collect();
    assert!(
        entries.iter().any(|e| e.neg),
        "{} has negated entries",
        C::NAME
    );
    // φ entries are a bucket's s₂ digits, the odd segments.
    assert_eq!(
        (0..1 << window).any(|j| j % 2 == 1 && index.segment(j).next().is_some()),
        lambda.is_some(),
        "{} has φ entries exactly when it has a split",
        C::NAME
    );

    std::env::set_var("GZKP_THREADS", "1");
    let reference = CpuMsm {
        window: Some(window),
        ..CpuMsm::serial()
    };
    let expect = compress(&reference.msm(&points, &scalars).result.to_affine());
    for pinned in [Some(window), None] {
        std::env::set_var("GZKP_THREADS", "1");
        let baseline = fold_outputs::<C>(&points, &scalars, pinned);
        for (label, bytes, stats) in &baseline {
            if !label.starts_with("partial") {
                assert_eq!(bytes, &expect, "{} {label} {pinned:?} vs oracle", C::NAME);
                assert!(label.starts_with("merged") || stats.batch_padds > 0);
            }
        }
        // The entry budget really cut this MSM into several bucket tasks:
        // a single one needs at most ⌈log₂(longest bucket)⌉ + 1 inversions.
        let one_task = (n * scalars.num_windows(window)).ilog2() as u64 + 2;
        assert!(pinned.is_none() || !several_tasks || baseline[0].2.batch_inversions > one_task);

        for threads in ["2", "3", "8"] {
            std::env::set_var("GZKP_THREADS", threads);
            // A fresh scalar vector, so the p_index is rebuilt here too.
            let got = fold_outputs::<C>(&points, &scalars.clone(), pinned);
            assert_eq!(
                got,
                baseline,
                "{} {pinned:?} at GZKP_THREADS={threads}",
                C::NAME
            );
        }
    }
    std::env::remove_var("GZKP_THREADS");
}

#[test]
fn fold_is_identical_across_threads_intervals_shards_and_partials() {
    check_curve::<bn254::G1Config>(1000, 5, 61, true);
    check_curve::<bn254::G2Config>(120, 4, 62, false);
    check_curve::<bls12_381::G1Config>(200, 5, 64, false);
    check_curve::<t753::G1Config>(40, 4, 63, false);
}
