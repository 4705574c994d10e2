//! Property test of the in-place batch-affine segment reducer against
//! serial mixed addition, over inputs built to hit every branch of the
//! affine addition: a small point pool makes duplicate operands (tangent
//! branch) and `P + (−P)` cancellations to infinity frequent, identity
//! sources are mixed in, and accumulators arrive pre-seeded.

use gzkp_curves::bn254::{G1Config, G2Config};
use gzkp_curves::{random_points, Affine, CurveParams, Projective};
use gzkp_msm::{accumulate_batch_affine, reduce_segments, BatchAffineStats, ReduceScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Four random points, their negations, and the identity.
fn pool<C: CurveParams>(rng: &mut StdRng) -> Vec<Affine<C>> {
    let mut pool = random_points::<C, _>(4, rng);
    let negated: Vec<Affine<C>> = pool
        .iter()
        .map(|p| p.to_projective().neg().to_affine())
        .collect();
    pool.extend(negated);
    pool.push(Affine::identity());
    pool
}

fn serial_sum<C: CurveParams>(seed: &Affine<C>, points: &[Affine<C>]) -> Affine<C> {
    let sum = points
        .iter()
        .fold(seed.to_projective(), |acc: Projective<C>, p| {
            acc.add_mixed(p)
        });
    sum.to_affine()
}

fn check<C: CurveParams>(seed: u64, nb: usize, max_len: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = pool::<C>(&mut rng);
    let segments: Vec<Vec<usize>> = (0..nb)
        .map(|_| {
            let len = rng.gen_range(0..max_len + 1);
            (0..len).map(|_| rng.gen_range(0..pool.len())).collect()
        })
        .collect();

    // The reducer on the CSR layout, scratch reused from a first call.
    let mut offsets = vec![0usize];
    let mut flat: Vec<Affine<C>> = Vec::new();
    for seg in &segments {
        flat.extend(seg.iter().map(|&i| pool[i]));
        offsets.push(flat.len());
    }
    let mut scratch = ReduceScratch::default();
    let mut stats = BatchAffineStats::default();
    let mut sums = vec![pool[0]; nb];
    reduce_segments(
        &mut flat.clone(),
        &offsets,
        &mut sums,
        &mut scratch,
        &mut stats,
    );
    let mut again = vec![pool[1]; nb];
    let mut stats_again = BatchAffineStats::default();
    reduce_segments(
        &mut flat,
        &offsets,
        &mut again,
        &mut scratch,
        &mut stats_again,
    );
    let identity = Affine::<C>::identity();
    for (b, seg) in segments.iter().enumerate() {
        let points: Vec<Affine<C>> = seg.iter().map(|&i| pool[i]).collect();
        prop_assert_eq!(sums[b], serial_sum(&identity, &points), "segment {}", b);
    }
    prop_assert_eq!(&sums, &again);
    prop_assert_eq!(stats, stats_again);
    let longest = segments.iter().map(Vec::len).max().unwrap_or(0) as u64;
    prop_assert!(stats.inversions <= longest.next_power_of_two().ilog2() as u64 + 1);
    prop_assert!(stats.inversions <= stats.padds);

    // The same entries through the accumulator, onto pre-seeded buckets.
    let mut buckets: Vec<Affine<C>> = (0..nb)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    let expect: Vec<Affine<C>> = segments
        .iter()
        .zip(&buckets)
        .map(|(seg, acc)| serial_sum(acc, &seg.iter().map(|&i| pool[i]).collect::<Vec<_>>()))
        .collect();
    let entries: Vec<(u32, u32)> = segments
        .iter()
        .enumerate()
        .flat_map(|(b, seg)| seg.iter().map(move |&i| (b as u32, i as u32)))
        .collect();
    accumulate_batch_affine(
        &mut buckets,
        &pool,
        &entries,
        &mut BatchAffineStats::default(),
    );
    prop_assert_eq!(buckets, expect);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reducer_matches_serial_mixed_addition(seed in any::<u64>(), nb in 1usize..10, max_len in 0usize..24) {
        check::<G1Config>(seed, nb, max_len)?;
        check::<G2Config>(seed, nb, max_len)?;
    }
}
