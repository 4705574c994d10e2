//! Property test of the in-place batch-affine segment reducer against
//! serial mixed addition, over inputs built to hit every branch of the
//! signed affine addition: a small pool of stored points — one of them
//! stored again negated — with a random sign per entry makes tangents
//! (`A + A`, `A + −(−A)`) and cancellations to the identity (`A − A`,
//! `A + (−A)`) frequent, and lone signed points test the carried
//! negation. The accumulator is checked on the same entries, with
//! identity sources mixed in and accumulators pre-seeded.

use gzkp_curves::bn254::{G1Config, G2Config};
use gzkp_curves::{random_points, Affine, CurveParams, Projective};
use gzkp_msm::{accumulate_batch_affine, reduce_segments, BatchAffineStats, ReduceScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Four random points and the first one negated.
fn pool<C: CurveParams>(rng: &mut StdRng) -> Vec<Affine<C>> {
    let mut pool = random_points::<C, _>(4, rng);
    pool.push(pool[0].neg());
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
    // Each entry: a pool index and whether its summand is negated.
    let segments: Vec<Vec<(usize, bool)>> = (0..nb)
        .map(|_| {
            let len = rng.gen_range(0..max_len + 1);
            (0..len)
                .map(|_| (rng.gen_range(0..pool.len()), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    let summand = |&(i, neg): &(usize, bool)| if neg { pool[i].neg() } else { pool[i] };

    // The reducer on the CSR layout, scratch reused from a first call.
    let mut offsets = vec![0usize];
    let (mut flat, mut neg) = (Vec::new(), Vec::new());
    for seg in &segments {
        flat.extend(seg.iter().map(|&(i, _)| [pool[i].x, pool[i].y]));
        neg.extend(seg.iter().map(|&(_, n)| n));
        offsets.push(flat.len());
    }
    let mut scratch = ReduceScratch::default();
    let mut stats = BatchAffineStats::default();
    let mut sums = vec![pool[0]; nb];
    reduce_segments(
        &mut flat.clone(),
        &neg,
        &offsets,
        &mut sums,
        &mut scratch,
        &mut stats,
    );
    let mut again = vec![pool[1]; nb];
    let mut stats_again = BatchAffineStats::default();
    reduce_segments(
        &mut flat,
        &neg,
        &offsets,
        &mut again,
        &mut scratch,
        &mut stats_again,
    );
    let identity = Affine::<C>::identity();
    for (b, seg) in segments.iter().enumerate() {
        let points: Vec<Affine<C>> = seg.iter().map(summand).collect();
        prop_assert_eq!(sums[b], serial_sum(&identity, &points), "segment {}", b);
    }
    prop_assert_eq!(&sums, &again);
    prop_assert_eq!(stats, stats_again);
    let longest = segments.iter().map(Vec::len).max().unwrap_or(0) as u64;
    prop_assert!(stats.inversions <= longest.next_power_of_two().ilog2() as u64 + 1);
    prop_assert!(stats.inversions <= stats.padds);

    // The same summands through the accumulator, with identity sources
    // among them, onto pre-seeded buckets.
    let mut sources: Vec<Affine<C>> = pool.iter().map(|p| p.neg()).collect();
    sources.extend(&pool);
    sources.push(identity);
    let mut buckets: Vec<Affine<C>> = (0..nb)
        .map(|_| sources[rng.gen_range(0..sources.len())])
        .collect();
    let np = pool.len();
    let entries: Vec<(u32, u32)> = segments
        .iter()
        .enumerate()
        .flat_map(|(b, seg)| {
            seg.iter()
                .map(move |&(i, neg)| (b as u32, (i + np * usize::from(!neg)) as u32))
        })
        .chain((0..nb as u32).map(|b| (b, sources.len() as u32 - 1)))
        .collect();
    let expect: Vec<Affine<C>> = segments
        .iter()
        .zip(&buckets)
        .map(|(seg, acc)| serial_sum(acc, &seg.iter().map(summand).collect::<Vec<_>>()))
        .collect();
    accumulate_batch_affine(
        &mut buckets,
        &sources,
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

#[test]
fn lone_points_resolve_their_signs() {
    // No segment has a pair: the signed round still runs and negates each
    // lone point whose sign is set, and an empty segment is the identity.
    let mut rng = StdRng::seed_from_u64(90);
    let points = random_points::<G1Config, _>(2, &mut rng);
    let mut flat: Vec<[<G1Config as CurveParams>::Base; 2]> =
        points.iter().map(|p| [p.x, p.y]).collect();
    let mut sums = vec![Affine::identity(); 3];
    let mut stats = BatchAffineStats::default();
    reduce_segments(
        &mut flat,
        &[true, false],
        &[0, 1, 1, 2],
        &mut sums,
        &mut ReduceScratch::default(),
        &mut stats,
    );
    assert_eq!(sums, [points[0].neg(), Affine::identity(), points[1]]);
    assert_eq!(stats, BatchAffineStats::default());
}
