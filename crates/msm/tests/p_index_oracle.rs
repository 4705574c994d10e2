//! The one-pass `PIndex` build against the two-pass build it replaced.
//!
//! The oracle below is that build: a first pass counts each share's
//! digits per segment, a serial carve cuts every segment into its shares'
//! runs, and a second pass extracts the digits again into the runs. Both
//! must give every segment the same entries in the same order — so the
//! same offsets — on BN254 G1 and G2 and BLS12-381 G1, over dense,
//! 0/1-heavy and all-zero vectors, at the host window and at a small one
//! (long segments), with the one-pass build at `GZKP_THREADS` 1/2/3/8,
//! which move its share boundaries.
//!
//! One test function: the thread count is the `GZKP_THREADS` override,
//! and env mutation stays sequential within the binary.

use gzkp_curves::{bls12_381, bn254, CurveParams};
use gzkp_ff::Field;
use gzkp_msm::scalars::Entry;
use gzkp_msm::{host_window_size, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `k`-bit windows of a little-endian limb integer, lowest first, up
/// to the window holding its top bit (none for zero).
fn windows_of(limbs: &[u64], k: u32) -> Vec<u64> {
    let bits = limbs
        .iter()
        .rposition(|&l| l != 0)
        .map_or(0, |l| 64 * l as u32 + 64 - limbs[l].leading_zeros());
    let bit = |i: u32| limbs.get(i as usize / 64).map_or(0, |l| l >> (i % 64) & 1);
    (0..bits.div_ceil(k))
        .map(|t| (0..k).map(|b| bit(t * k + b) << b).sum())
        .collect()
}

/// Calls `emit(segment, entry)` for every non-zero balanced signed `k`-bit
/// digit of the scalars in `limbs` (the first being point `first`) over
/// at most `windows` windows, in point, half, window order: each scalar
/// split by `C`'s GLV split into `s₁` (even segments) and `s₂` (odd), or
/// kept whole on a curve without one.
fn digits<C: CurveParams>(
    first: usize,
    limbs: &[u64],
    per: usize,
    (k, windows): (u32, usize),
    mut emit: impl FnMut(usize, Entry),
) {
    let top = 1i64 << (k - 1);
    for (i, s) in limbs.chunks_exact(per).enumerate() {
        let halves: Vec<(bool, Vec<u64>)> = match C::glv() {
            Some(glv) => glv
                .split()
                .split(s)
                .iter()
                .map(|&(neg, mag)| (neg, vec![mag as u64, (mag >> 64) as u64]))
                .collect(),
            None => vec![(false, s.to_vec())],
        };
        for (phi, (negated, mag)) in halves.iter().enumerate() {
            let mut carry = 0i64;
            // One window past the top bit takes the last carry.
            let padded = windows_of(mag, k).into_iter().chain([0]).take(windows);
            for (window, d) in padded.enumerate() {
                let d = d as i64 + carry;
                carry = i64::from(d > top);
                let d = d - (carry << k);
                if d != 0 {
                    let neg = (d < 0) != *negated;
                    let point = first + i;
                    let segment = 2 * (d.unsigned_abs() as usize - 1) + phi;
                    emit(segment, Entry { window, point, neg });
                }
            }
        }
    }
}

/// The two-pass build: every segment's entries.
fn two_pass<C: CurveParams>(scalars: &ScalarVec, k: u32, windows: usize) -> Vec<Vec<Entry>> {
    let per = scalars.limbs_per_scalar();
    let share = rayon::share_len(scalars.len());
    let segments = 1 << k;
    let shares: Vec<(usize, &[u64])> = scalars
        .raw_limbs()
        .chunks(per * share)
        .enumerate()
        .map(|(c, limbs)| (c * share, limbs))
        .collect();
    // Pass 1: each share's digit count per segment.
    let counts = rayon::map(&shares, |&(first, limbs)| {
        let mut counts = vec![0usize; segments];
        digits::<C>(first, limbs, per, (k, windows), |j, _| counts[j] += 1);
        counts
    });
    // The carve: segment j is its shares' runs in share order.
    let empty = Entry {
        window: 0,
        point: 0,
        neg: false,
    };
    let mut entries = vec![empty; counts.iter().flatten().sum()];
    let mut runs: Vec<Vec<&mut [Entry]>> = shares.iter().map(|_| Vec::new()).collect();
    let mut rest = &mut entries[..];
    for j in 0..segments {
        for (counts, runs) in counts.iter().zip(&mut runs) {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(counts[j]);
            runs.push(run);
            rest = tail;
        }
    }
    // Pass 2: the digits again, each share into its runs.
    rayon::for_each(shares.iter().zip(runs), |(&(first, limbs), mut runs)| {
        let mut cursor = vec![0usize; segments];
        digits::<C>(first, limbs, per, (k, windows), |j, entry| {
            runs[j][cursor[j]] = entry;
            cursor[j] += 1;
        });
    });
    let mut at = 0;
    (0..segments)
        .map(|j| {
            let len: usize = counts.iter().map(|counts| counts[j]).sum();
            at += len;
            entries[at - len..at].to_vec()
        })
        .collect()
}

fn check<C: CurveParams>(n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dense: Vec<C::Scalar> = (0..n).map(|_| C::Scalar::random(&mut rng)).collect();
    // Mostly 0 and 1, as a witness is, with r − 1 and random values mixed in.
    let sparse: Vec<C::Scalar> = (0..n)
        .map(|i| match i % 7 {
            0 => C::Scalar::random(&mut rng),
            1 => -C::Scalar::one(),
            i => C::Scalar::from_u64(i as u64 % 2),
        })
        .collect();
    let zero = vec![C::Scalar::zero(); n];
    for (shape, scalars) in [("dense", dense), ("0/1-heavy", sparse), ("all-zero", zero)] {
        for k in [host_window_size::<C>(n), 5] {
            std::env::set_var("GZKP_THREADS", "1");
            let reference = ScalarVec::from_field(&scalars);
            let windows = reference.p_index::<C>(k).windows();
            let expect = two_pass::<C>(&reference, k, windows);
            for threads in ["1", "2", "3", "8"] {
                std::env::set_var("GZKP_THREADS", threads);
                // A fresh vector: the index is memoised per vector.
                let index = ScalarVec::from_field(&scalars).p_index::<C>(k);
                for (j, expect) in expect.iter().enumerate() {
                    let got: Vec<Entry> = index.segment(j).collect();
                    assert_eq!(
                        &got,
                        expect,
                        "{} {shape} k={k} segment {j} at {threads} threads",
                        C::NAME
                    );
                }
            }
        }
    }
    std::env::remove_var("GZKP_THREADS");
}

#[test]
fn one_pass_p_index_matches_the_two_pass_oracle() {
    check::<bn254::G1Config>(700, 1);
    check::<bn254::G2Config>(300, 2);
    check::<bls12_381::G1Config>(500, 3);
}
