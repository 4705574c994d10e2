//! Batch-affine bucket accumulation.
//!
//! Pippenger's bucket phase spends almost all of its PADDs folding the
//! points that share a bucket digit into that bucket's accumulator.
//! Production MSM implementations (bellperson, cuZK) do those additions
//! in *affine* coordinates — ~6 field muls per PADD instead of ~14 for
//! mixed Jacobian — by amortizing the chord/tangent inversion over many
//! independent additions with Montgomery's trick.
//!
//! [`reduce_segments`] is the one reducer every engine shares. Its input
//! is a CSR buffer: the pending points of every bucket of a task laid out
//! contiguously, one segment per bucket. Each round adds the points of
//! every segment pairwise **in place** — pair `j` of a segment lands in
//! its slot `j`, an odd last point is carried behind the sums — and
//! batches the denominators of *all* pairs of *all* segments into one
//! field inversion, so a task costs `⌈log₂(max bucket load)⌉` inversions
//! rather than one per addition, and no allocation after the scratch's
//! first growth. Every intermediate is an exact affine point and the
//! schedule is a pure function of the segment lengths, so the sums do
//! not depend on thread count or on which task a bucket fell into.

use gzkp_curves::group::{affine_add_denominator, affine_add_with_inverse, Affine};
use gzkp_curves::CurveParams;

/// Work counters for one batch-affine accumulation, feeding the
/// `msm.batch_inversions` / `msm.batch_inv_saved` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAffineStats {
    /// Non-trivial affine additions performed (each would have cost one
    /// field inversion without batching).
    pub padds: u64,
    /// Field inversions actually performed (one per reduction round).
    pub inversions: u64,
}

impl BatchAffineStats {
    /// Inversions amortized away by Montgomery batching.
    pub fn saved(&self) -> u64 {
        self.padds.saturating_sub(self.inversions)
    }

    /// Accumulates another task's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.padds += other.padds;
        self.inversions += other.inversions;
    }
}

/// Buffers [`reduce_segments`] reuses from call to call: the live length
/// of every segment, one slope denominator per pair of the current
/// round, and the prefix products of their batched inversion.
pub struct ReduceScratch<C: CurveParams> {
    lens: Vec<usize>,
    dens: Vec<C::Base>,
    prods: Vec<C::Base>,
}

impl<C: CurveParams> Default for ReduceScratch<C> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<C: CurveParams> ReduceScratch<C> {
    /// Scratch that reduces up to `points` points without growing.
    pub fn with_capacity(points: usize) -> Self {
        Self {
            lens: Vec::new(),
            dens: Vec::with_capacity(points / 2),
            prods: Vec::with_capacity(points / 2),
        }
    }
}

/// Sums every segment `flat[offsets[b]..offsets[b + 1]]` into `sums[b]`
/// (the identity for an empty segment), overwriting `flat` as it goes.
///
/// # Panics
///
/// Panics if `offsets` is not `sums.len() + 1` ascending positions
/// inside `flat`.
pub fn reduce_segments<C: CurveParams>(
    flat: &mut [Affine<C>],
    offsets: &[usize],
    sums: &mut [Affine<C>],
    scratch: &mut ReduceScratch<C>,
    stats: &mut BatchAffineStats,
) {
    assert_eq!(offsets.len(), sums.len() + 1, "one segment per sum");
    let ReduceScratch { lens, dens, prods } = scratch;
    lens.clear();
    lens.extend(offsets.windows(2).map(|w| w[1] - w[0]));
    loop {
        dens.clear();
        for (&start, &len) in offsets.iter().zip(lens.iter()) {
            for pair in flat[start..start + len].chunks_exact(2) {
                dens.push(affine_add_denominator(&pair[0], &pair[1]));
            }
        }
        if dens.is_empty() {
            break;
        }
        let amortized = gzkp_ff::batch_inverse_scratch(dens, prods) as u64;
        stats.padds += amortized;
        stats.inversions += u64::from(amortized > 0);
        let mut dinv = dens.iter();
        for (&start, len) in offsets.iter().zip(lens.iter_mut()) {
            let seg = &mut flat[start..start + *len];
            for (j, dinv) in (0..*len / 2).zip(&mut dinv) {
                seg[j] = affine_add_with_inverse(&seg[2 * j], &seg[2 * j + 1], dinv);
            }
            if *len % 2 == 1 {
                seg[*len / 2] = seg[*len - 1];
            }
            *len = len.div_ceil(2);
        }
    }
    for ((sum, &start), &len) in sums.iter_mut().zip(offsets).zip(lens.iter()) {
        *sum = match len {
            1 if !flat[start].infinity => flat[start],
            _ => Affine::identity(),
        };
    }
}

/// Folds `entries` — `(local bucket index, source point index)` pairs —
/// into `buckets`: a counting sort into the CSR layout, then
/// [`reduce_segments`].
///
/// A non-identity accumulator already present in `buckets[b]` joins that
/// bucket's pending list, so the function composes across windows and
/// repeated calls. Entry order within a bucket does not affect the
/// result (the group is abelian and every intermediate is exact).
pub fn accumulate_batch_affine<C: CurveParams>(
    buckets: &mut [Affine<C>],
    sources: &[Affine<C>],
    entries: &[(u32, u32)],
    stats: &mut BatchAffineStats,
) {
    let nb = buckets.len();
    let mut offsets = vec![0usize; nb + 1];
    for &(b, _) in entries {
        offsets[b as usize + 1] += 1;
    }
    for (b, acc) in buckets.iter().enumerate() {
        offsets[b + 1] += offsets[b] + usize::from(!acc.infinity);
    }
    let mut flat: Vec<Affine<C>> = vec![Affine::identity(); offsets[nb]];
    let mut cursor = offsets[..nb].to_vec();
    for (acc, c) in buckets.iter().zip(cursor.iter_mut()) {
        if !acc.infinity {
            flat[*c] = *acc;
            *c += 1;
        }
    }
    for &(b, i) in entries {
        let c = &mut cursor[b as usize];
        flat[*c] = sources[i as usize];
        *c += 1;
    }
    reduce_segments(
        &mut flat,
        &offsets,
        buckets,
        &mut ReduceScratch::default(),
        stats,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::G1Config;
    use gzkp_curves::group::{random_points, Projective};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference<C: CurveParams>(
        buckets: &[Affine<C>],
        sources: &[Affine<C>],
        entries: &[(u32, u32)],
    ) -> Vec<Affine<C>> {
        let mut acc: Vec<Projective<C>> = buckets.iter().map(Affine::to_projective).collect();
        for &(b, i) in entries {
            acc[b as usize] = acc[b as usize].add_mixed(&sources[i as usize]);
        }
        acc.iter().map(Projective::to_affine).collect()
    }

    #[test]
    fn matches_serial_mixed_addition() {
        let mut rng = StdRng::seed_from_u64(77);
        let sources = random_points::<G1Config, _>(64, &mut rng);
        for nb in [1usize, 3, 7, 16] {
            let mut buckets = vec![Affine::<G1Config>::identity(); nb];
            // Seed a couple of buckets with existing accumulators.
            buckets[0] = sources[63];
            if nb > 2 {
                buckets[nb - 1] = sources[62];
            }
            let entries: Vec<(u32, u32)> = (0..48)
                .map(|_| (rng.gen_range(0..nb) as u32, rng.gen_range(0..62u32)))
                .collect();
            let expect = reference(&buckets, &sources, &entries);
            let mut stats = BatchAffineStats::default();
            accumulate_batch_affine(&mut buckets, &sources, &entries, &mut stats);
            assert_eq!(buckets, expect, "nb={nb}");
            assert!(stats.padds >= stats.inversions, "nb={nb}");
        }
    }

    #[test]
    fn duplicate_entries_force_doubling_paths() {
        // Repeating the same source point in one bucket exercises the
        // tangent (doubling) branch of the batched addition.
        let mut rng = StdRng::seed_from_u64(78);
        let sources = random_points::<G1Config, _>(4, &mut rng);
        let entries: Vec<(u32, u32)> = vec![(0, 1); 8].into_iter().chain(vec![(1, 2); 3]).collect();
        let mut buckets = vec![Affine::<G1Config>::identity(); 2];
        let expect = reference(&buckets, &sources, &entries);
        let mut stats = BatchAffineStats::default();
        accumulate_batch_affine(&mut buckets, &sources, &entries, &mut stats);
        assert_eq!(buckets, expect);
        // 8 copies reduce in 3 rounds, 3 copies in 2; rounds overlap so
        // the inversion count stays at the deeper tree's depth.
        assert_eq!(stats.inversions, 3);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut stats = BatchAffineStats::default();
        let mut buckets: Vec<Affine<G1Config>> = Vec::new();
        accumulate_batch_affine(&mut buckets, &[], &[], &mut stats);
        let mut buckets = vec![Affine::<G1Config>::identity(); 4];
        accumulate_batch_affine(&mut buckets, &[], &[], &mut stats);
        assert!(buckets.iter().all(Affine::is_identity));
        assert_eq!(stats, BatchAffineStats::default());
    }
}
