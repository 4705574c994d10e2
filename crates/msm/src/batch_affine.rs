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
//! contiguously, one segment per bucket, each point its stored `(x, y)`
//! with its sign beside it — the summand is `(x, −y)` where the sign is
//! set — and none the identity. Each round adds the points of every
//! segment pairwise **in place** — pair `j` of a segment lands in the
//! next free slot from the segment's start, an odd last point is carried
//! behind the sums, a pair that cancels leaves no point — and batches the
//! denominators of *all* pairs of *all* segments into one field
//! inversion, so a task costs `⌈log₂(max bucket load)⌉` inversions rather
//! than one per addition, and no allocation after the scratch's first
//! growth. The first round resolves the signs: it adds `sₐ·A + s_b·B`
//! through the slope `λ' = s_b·λ = (y_b − sₐs_b·yₐ)/(x_b − xₐ)`, which
//! needs no sign but the pair's relative one, and writes
//! `y₃ = s_b·(λ'(xₐ − x₃) − sₐs_b·yₐ)` — one masked negation of `yₐ` and
//! one of the result per pair, one of a carried point — so the gather
//! that fills the buffer copies what the tables store and negates
//! nothing. Every intermediate is an exact affine point and the schedule
//! is a pure function of the segment lengths (and of cancellations), so
//! the sums do not depend on thread count or on which task a bucket fell
//! into.

use gzkp_curves::group::Affine;
use gzkp_curves::CurveParams;
use gzkp_ff::Field;

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

/// `v`, or `−v` if `neg`: both are formed and one is picked by index, so
/// an unpredictable sign costs no branch.
#[inline]
fn negate_if<F: Field>(v: F, neg: bool) -> F {
    [v, -v][usize::from(neg)]
}

/// The slope denominator of `A + B` for stored points `a`, `b` whose
/// summands' `y`s are `u` and `b[1]` up to one common sign: `x_b − xₐ`
/// for a chord, `2y_b` for a tangent (`u = y_b`), zero for a cancel.
#[inline]
fn denominator<F: Field>(a: &[F; 2], b: &[F; 2], u: &F) -> F {
    if a[0] != b[0] {
        b[0] - a[0]
    } else if *u == b[1] && !b[1].is_zero() {
        b[1].double()
    } else {
        F::zero()
    }
}

/// `A + B` up to the common sign of [`denominator`], given `dinv`, its
/// inverse: `(x₃, λ'(xₐ − x₃) − u)`, or `None` where the pair cancels.
#[inline]
fn add_with_inverse<C: CurveParams>(
    a: &[C::Base; 2],
    b: &[C::Base; 2],
    u: &C::Base,
    dinv: &C::Base,
) -> Option<[C::Base; 2]> {
    let lambda = if a[0] != b[0] {
        (b[1] - *u) * *dinv
    } else if *u == b[1] && !b[1].is_zero() {
        // Tangent slope (3x² + a) / 2y.
        let xx = a[0].square();
        (xx.double() + xx + C::coeff_a()) * *dinv
    } else {
        return None;
    };
    let x3 = lambda.square() - a[0] - b[0];
    Some([x3, lambda * (a[0] - x3) - *u])
}

/// One round over every segment: its pairs' denominators, one batched
/// inversion, and the sums written in place. `SIGNED` is the first round,
/// which reads the signs `neg` and leaves every point it writes unsigned.
/// Returns the number of pairs.
fn round<C: CurveParams, const SIGNED: bool>(
    flat: &mut [[C::Base; 2]],
    neg: &[bool],
    offsets: &[usize],
    scratch: &mut ReduceScratch<C>,
    stats: &mut BatchAffineStats,
) -> usize {
    let ReduceScratch { lens, dens, prods } = scratch;
    // `yₐ` as the pair's relative sign has it: sₐs_b·yₐ.
    let u = |flat: &[[C::Base; 2]], a: usize| {
        let y = flat[a][1];
        if SIGNED {
            negate_if(y, neg[a] != neg[a + 1])
        } else {
            y
        }
    };
    dens.clear();
    for (&start, &len) in offsets.iter().zip(lens.iter()) {
        for a in (start..start + len - len % 2).step_by(2) {
            dens.push(denominator(&flat[a], &flat[a + 1], &u(flat, a)));
        }
    }
    let pairs = dens.len();
    if pairs > 0 {
        let amortized = gzkp_ff::batch_inverse_scratch(dens, prods) as u64;
        stats.padds += amortized;
        stats.inversions += u64::from(amortized > 0);
    } else if !SIGNED {
        return 0;
    }
    let mut dinv = dens.iter();
    for (&start, len) in offsets.iter().zip(lens.iter_mut()) {
        let mut at = start;
        for a in (start..start + *len - *len % 2).step_by(2) {
            let dinv = dinv.next().expect("one denominator per pair");
            if let Some([x, w]) = add_with_inverse::<C>(&flat[a], &flat[a + 1], &u(flat, a), dinv) {
                flat[at] = [x, if SIGNED { negate_if(w, neg[a + 1]) } else { w }];
                at += 1;
            }
        }
        if *len % 2 == 1 {
            let last = start + *len - 1;
            let [x, y] = flat[last];
            flat[at] = [x, if SIGNED { negate_if(y, neg[last]) } else { y }];
            at += 1;
        }
        *len = at - start;
    }
    pairs
}

/// Sums every segment `flat[offsets[b]..offsets[b + 1]]` into `sums[b]`
/// (the identity for an empty segment or one that cancels), overwriting
/// `flat` as it goes. Point `i` of a segment is `flat[i]` as `(x, y)`,
/// negated if `neg[i]`; none is the identity.
///
/// # Panics
///
/// Panics if `offsets` is not `sums.len() + 1` ascending positions
/// inside `flat` and `neg`.
pub fn reduce_segments<C: CurveParams>(
    flat: &mut [[C::Base; 2]],
    neg: &[bool],
    offsets: &[usize],
    sums: &mut [Affine<C>],
    scratch: &mut ReduceScratch<C>,
    stats: &mut BatchAffineStats,
) {
    assert_eq!(offsets.len(), sums.len() + 1, "one segment per sum");
    scratch.lens.clear();
    scratch.lens.extend(offsets.windows(2).map(|w| w[1] - w[0]));
    // The signed round resolves every sign, a lone point's too, so it
    // runs even without a pair.
    if round::<C, true>(flat, neg, offsets, scratch, stats) > 0 {
        while round::<C, false>(flat, neg, offsets, scratch, stats) > 0 {}
    }
    for ((sum, &start), &len) in sums.iter_mut().zip(offsets).zip(&scratch.lens) {
        *sum = match len {
            1 => Affine::new_unchecked(flat[start][0], flat[start][1]),
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
/// repeated calls; identity sources add nothing and are left out. Entry
/// order within a bucket does not affect the result (the group is
/// abelian and every intermediate is exact).
pub fn accumulate_batch_affine<C: CurveParams>(
    buckets: &mut [Affine<C>],
    sources: &[Affine<C>],
    entries: &[(u32, u32)],
    stats: &mut BatchAffineStats,
) {
    let nb = buckets.len();
    let entries: Vec<(u32, u32)> = entries
        .iter()
        .copied()
        .filter(|&(_, i)| !sources[i as usize].infinity)
        .collect();
    let mut offsets = vec![0usize; nb + 1];
    for &(b, _) in &entries {
        offsets[b as usize + 1] += 1;
    }
    for (b, acc) in buckets.iter().enumerate() {
        offsets[b + 1] += offsets[b] + usize::from(!acc.infinity);
    }
    let mut flat = vec![[C::Base::zero(); 2]; offsets[nb]];
    let mut cursor = offsets[..nb].to_vec();
    let points = buckets
        .iter()
        .enumerate()
        .filter(|(_, acc)| !acc.infinity)
        .chain(
            entries
                .iter()
                .map(|&(b, i)| (b as usize, &sources[i as usize])),
        );
    for (b, p) in points {
        flat[cursor[b]] = [p.x, p.y];
        cursor[b] += 1;
    }
    let neg = vec![false; flat.len()];
    reduce_segments(
        &mut flat,
        &neg,
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
