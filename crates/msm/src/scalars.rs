//! Scalar-vector preparation: flat limb storage, window extraction and
//! bucket-occupancy histograms (the inputs to every MSM engine and to the
//! Figure-6 load analysis), and the host fold's recoded `p_index`.

use crate::engine::CurveCost;
use gzkp_curves::{CurveParams, ScalarSplit};
use gzkp_ff::PrimeField;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A vector of scalars in canonical (non-Montgomery) representation,
/// stored as one flat little-endian limb buffer — the column-friendly
/// layout GPU MSM kernels consume.
#[derive(Debug)]
pub struct ScalarVec {
    limbs: Vec<u64>,
    per_scalar: usize,
    bits: u32,
    n: usize,
    /// [`PIndex`] per window size and recoding, built on first use: the
    /// scalars are immutable, and MSMs over different point vectors share
    /// them (Groth16's `a`, `b_g1` and `b_g2` all consume `z⃗`, and G1 and
    /// G2 recode alike).
    p_indexes: Mutex<Vec<Arc<PIndex>>>,
}

impl Clone for ScalarVec {
    fn clone(&self) -> Self {
        Self::from_raw(self.limbs.clone(), self.per_scalar, self.bits)
    }
}

/// The paper's `p_index` (§4.1) over the host's recoded scalars: every
/// non-zero digit, counting-sorted by bucket, so a bucket task reads
/// exactly its own entries and nothing rescans the scalars.
///
/// The recoding: scalar `i` is split as `s₁ + λ·s₂` by its curve's GLV
/// split ([`gzkp_curves::Glv`]; a curve without one keeps `s₁ = s`,
/// `s₂ = 0`), and each half is written in balanced signed `k`-bit digits
/// `d ∈ (−2^{k−1}, 2^{k−1}]` over `⌈(bound + 1)/k⌉` windows, where every
/// half is below `2^bound` (the split's bound, else the scalar width).
/// Bucket `b` holds the digits with `|d| = b + 1`: its `s₁` digits in
/// segment `2b`, its `s₂` digits in segment `2b + 1` — summed apart, so
/// `φ` is applied once to a bucket's `s₂` sum rather than to each entry.
/// An entry carries the point, the window and whether the summand is
/// negated; whether it is `φ` of the stored point is its segment's parity.
#[derive(Debug)]
pub struct PIndex {
    k: u32,
    split: Option<&'static ScalarSplit>,
    windows: usize,
    /// Segment `j` owns `entries[offsets[j]..offsets[j + 1]]`.
    offsets: Vec<usize>,
    /// `point << 17 | negated << 16 | window`, in point-then-window order
    /// per segment.
    entries: Vec<u64>,
}

/// One [`PIndex`] entry: the summand `±P` (in an even segment) or
/// `±φ(P)` (in an odd one) of stored point `point` at window `window`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Window of the digit, i.e. the table level it reads.
    pub window: usize,
    /// Index of the point.
    pub point: usize,
    /// The summand is negated (`−P`).
    pub neg: bool,
}

/// Number of `k`-bit signed-digit windows of `C`'s recoded scalars: a
/// half below `2^bound` needs `⌈(bound + 1)/k⌉`, one bit for the carry
/// balanced digits can leave (`bound` is the GLV split's, or the scalar
/// width for a curve without one).
pub(crate) fn recoded_windows<C: CurveParams>(k: u32) -> usize {
    let bound = C::glv().map_or(<C::Scalar as PrimeField>::MODULUS_BITS, |g| {
        g.split().bound()
    });
    (bound + 1).div_ceil(k) as usize
}

/// The host fold's window size for an MSM of `n` points on `C`: the `k`
/// that minimises the fold's predicted field multiplications over dense
/// scalars. Every non-zero recoded digit — `n` points × halves ×
/// `⌈(bound + 1)/k⌉` windows, each non-zero with probability `1 − 2^{−k}` —
/// costs one batch-affine addition; every one of the `2^{k−1}` buckets
/// costs one finish, priced as two full PADDs plus, with a GLV split, a
/// mixed PADD and a multiplication by β (44 multiplications). That is the
/// Jacobian finish the window was fitted to; the fold's affine finish —
/// a batch-affine addition, the β multiplication, a mixed and a full PADD
/// — costs 34. Priced at 34, the model moves 6 447 points (Groth16's `a`,
/// `b_g1`, `b_g2` and `l` at 2¹²) from k = 12 to 13 and leaves 4 095
/// (`h`) at 12. On those vectors' actual non-zero digits (seed 1: 108 033
/// at k = 12 and 98 357 at 13 for the witness, 89 997 and 81 879 for
/// `h`) the same model prices k = 13 at 729 406 multiplications against
/// 717 830 at 12 for the witness (+1.6 %) and 630 538 against 609 614 for
/// `h` (+3.4 %): the witness holds enough 0s and 1s that the dense count
/// overstates its digits by 31 %. So a re-fit waits for a window that
/// reads the vector's digit count, which the tables, built per window
/// before any vector is seen, cannot yet follow. A function of `n` and
/// the split alone, so G1 and G2 of one family share it, and with it one
/// [`PIndex`]; at most 16, the cap of the simulated window too.
pub fn host_window_size<C: CurveParams>(n: usize) -> u32 {
    let running_sum = 2.0 * CurveCost::PADD_MULS;
    let (halves, finish) = match C::glv() {
        Some(_) => (2.0, running_sum + CurveCost::PADD_MIXED_MULS + 1.0),
        None => (1.0, running_sum),
    };
    let muls = |k: u32| {
        let digits = n as f64 * halves * recoded_windows::<C>(k) as f64;
        digits * (1.0 - 0.5f64.powi(k as i32)) * CurveCost::BATCH_AFFINE_ADD_MULS
            + f64::from(1u32 << (k - 1)) * finish
    };
    (1..=16)
        .min_by(|&a, &b| muls(a).total_cmp(&muls(b)))
        .expect("a non-empty range")
}

/// A share of the recoded vector: every scalar's halves — `s₁` and `s₂`
/// of its curve's GLV split, or the scalar alone on a curve without one —
/// each a sign and `width` limbs of magnitude.
struct Halves<'a> {
    /// Halves per scalar: 2 with a split, 1 without.
    per_point: usize,
    width: usize,
    mags: Cow<'a, [u64]>,
    negs: Vec<bool>,
}

impl<'a> Halves<'a> {
    fn new(limbs: &'a [u64], per: usize, split: Option<&ScalarSplit>) -> Self {
        let Some(split) = split else {
            return Self {
                per_point: 1,
                width: per,
                mags: Cow::Borrowed(limbs),
                negs: vec![false; limbs.len() / per],
            };
        };
        let (mut mags, mut negs) = (Vec::new(), Vec::new());
        for s in limbs.chunks_exact(per) {
            for (neg, mag) in split.split(s) {
                mags.extend([mag as u64, (mag >> 64) as u64]);
                negs.push(neg);
            }
        }
        Self {
            per_point: 2,
            width: 2,
            mags: Cow::Owned(mags),
            negs,
        }
    }

    /// Calls `emit(point, segment, negated, window)` for every non-zero
    /// balanced signed `k`-bit digit over at most `windows` windows, in
    /// point, half, window order; `point` counts from the share's first.
    fn digits(&self, k: u32, windows: usize, mut emit: impl FnMut(usize, usize, u32, usize)) {
        let top = 1i64 << (k - 1);
        for (h, mag) in self.mags.chunks_exact(self.width).enumerate() {
            let (point, phi, negated) = (h / self.per_point, h % self.per_point, self.negs[h]);
            let mut carry = 0i64;
            // One window past the top bit takes the last carry.
            for (t, d) in windows_of(mag, k).chain([0]).take(windows).enumerate() {
                let d = d as i64 + carry;
                carry = i64::from(d > top);
                let d = d - (carry << k);
                if d != 0 {
                    let segment = 2 * (d.unsigned_abs() as usize - 1) + phi;
                    emit(point, segment, u32::from((d < 0) != negated), t);
                }
            }
        }
    }
}

/// One share's digits, extracted once: each digit's code (its segment,
/// sign and window in 32 bits) in point order, the number of digits of
/// each of its points, and its digit count per segment — turned into its
/// write cursors by the carve.
struct ShareDigits<'a> {
    first: usize,
    limbs: &'a [u64],
    codes: Vec<u32>,
    per_point: Vec<u32>,
    cursors: Vec<u32>,
}

impl PIndex {
    /// One digit pass per share, then a counting sort of the digits kept
    /// from it. Segment `j` is its shares' runs in share order — point
    /// order, whatever the share boundaries — so the carve gives each
    /// share a cursor per segment (one addition per share and segment, no
    /// slices), and the shares write their entries in parallel at
    /// disjoint positions. Every buffer that outlives the first pass is
    /// allocated here, on the calling thread — each share's codes with
    /// room for every window of every half, so no push reallocates —
    /// because what a pool thread allocates stays in that thread's heap
    /// after it is freed (on a 2-core VM that held ≈ 1 MiB more peak RSS
    /// on `plonk_warm`); only a share's recoded halves, dropped with the
    /// first pass, are the pool thread's.
    fn build(
        scalars: &ScalarVec,
        k: u32,
        split: Option<&'static ScalarSplit>,
        windows: usize,
    ) -> Self {
        assert!(windows <= 1 << 16 && (scalars.len() as u64) < 1 << 47);
        // A code is `(segment << 1 | negated) << bits | window`.
        let bits = usize::BITS - windows.saturating_sub(1).leading_zeros();
        assert!(k + 1 + bits <= 32, "a digit's code fits 32 bits");
        let per = scalars.per_scalar;
        let share = rayon::share_len(scalars.len());
        let segments = 1 << k;
        let halves = if split.is_some() { 2 } else { 1 };
        let mut shares: Vec<ShareDigits> = (scalars.limbs.chunks(per * share).enumerate())
            .map(|(c, limbs)| ShareDigits {
                first: c * share,
                limbs,
                codes: Vec::with_capacity(limbs.len() / per * halves * windows),
                per_point: vec![0; limbs.len() / per],
                cursors: vec![0; segments],
            })
            .collect();
        rayon::for_each(&mut shares, |digits| {
            let ShareDigits {
                limbs,
                codes,
                per_point,
                cursors,
                ..
            } = digits;
            let halves = Halves::new(limbs, per, split);
            halves.digits(k, windows, |point, j, neg, window| {
                codes.push(((j as u32) << 1 | neg) << bits | window as u32);
                per_point[point] += 1;
                cursors[j] += 1;
            });
        });
        let mut offsets = Vec::with_capacity(segments + 1);
        let mut at = 0;
        for j in 0..segments {
            offsets.push(at);
            for digits in &mut shares {
                let count = digits.cursors[j] as usize;
                digits.cursors[j] = at as u32;
                at += count;
            }
        }
        offsets.push(at);
        assert!(at <= u32::MAX as usize, "fewer than 2³² digits");
        // Atomic cells only so the shares can write one vector at once in
        // safe code: the positions are disjoint, and a relaxed store is a
        // plain store.
        let cells: Vec<AtomicU64> = (0..at).map(|_| AtomicU64::new(0)).collect();
        let window_mask = (1u32 << bits) - 1;
        rayon::for_each(&mut shares, |digits| {
            let mut codes = digits.codes.iter();
            for (i, &count) in digits.per_point.iter().enumerate() {
                let point = ((digits.first + i) as u64) << 17;
                for &code in codes.by_ref().take(count as usize) {
                    let low = u64::from(code >> bits & 1) << 16 | u64::from(code & window_mask);
                    let cursor = &mut digits.cursors[(code >> (bits + 1)) as usize];
                    cells[*cursor as usize].store(point | low, Ordering::Relaxed);
                    *cursor += 1;
                }
            }
        });
        Self {
            k,
            split,
            windows,
            offsets,
            entries: cells.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }

    /// The entries of segment `j`: bucket `j / 2`'s `s₁` digits for even
    /// `j`, its `s₂` digits for odd `j`.
    pub fn segment(&self, j: usize) -> impl Iterator<Item = Entry> + '_ {
        self.entries[self.offsets[j]..self.offsets[j + 1]]
            .iter()
            .map(|&e| Entry {
                window: (e & 0xffff) as usize,
                point: (e >> 17) as usize,
                neg: e >> 16 & 1 == 1,
            })
    }

    /// Number of entries in buckets `lo..hi`.
    pub(crate) fn range_len(&self, lo: usize, hi: usize) -> usize {
        self.offsets[2 * hi] - self.offsets[2 * lo]
    }

    /// Entries per bucket, `2^{k−1}` of them: the load profile the host
    /// cuts its bucket tasks and ranges by.
    pub(crate) fn bucket_sizes(&self) -> Vec<u64> {
        self.offsets
            .windows(3)
            .step_by(2)
            .map(|w| (w[2] - w[0]) as u64)
            .collect()
    }

    /// Number of recoded windows (the table levels read, before `M`).
    pub fn windows(&self) -> usize {
        self.windows
    }
}

/// The `k`-bit windows of a little-endian limb integer, lowest first, up
/// to the window holding its top bit (none for zero).
pub(crate) fn windows_of(limbs: &[u64], k: u32) -> impl Iterator<Item = u64> + '_ {
    let bits = limbs
        .iter()
        .rposition(|&l| l != 0)
        .map_or(0, |l| 64 * l as u32 + 64 - limbs[l].leading_zeros());
    let mask = (1u64 << k) - 1;
    let (mut buf, mut have, mut next) = (0u128, 0u32, 0usize);
    (0..bits.div_ceil(k)).map(move |_| {
        if have < k {
            buf |= u128::from(limbs.get(next).copied().unwrap_or(0)) << have;
            have += 64;
            next += 1;
        }
        let d = buf as u64 & mask;
        buf >>= k;
        have -= k;
        d
    })
}

impl ScalarVec {
    /// Converts field elements out of Montgomery form into the flat buffer.
    pub fn from_field<F: PrimeField>(scalars: &[F]) -> Self {
        let per_scalar = F::NUM_LIMBS;
        let mut limbs = Vec::with_capacity(scalars.len() * per_scalar);
        for s in scalars {
            limbs.extend(s.to_limbs());
        }
        Self::from_raw(limbs, per_scalar, F::MODULUS_BITS)
    }

    /// Builds directly from raw canonical limbs (testing, synthetic data).
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len()` is not a multiple of `per_scalar`.
    pub fn from_raw(limbs: Vec<u64>, per_scalar: usize, bits: u32) -> Self {
        assert_eq!(limbs.len() % per_scalar, 0);
        let n = limbs.len() / per_scalar;
        Self {
            limbs,
            per_scalar,
            bits,
            n,
            p_indexes: Mutex::default(),
        }
    }

    /// The [`PIndex`] of these scalars recoded for curve `C` with window
    /// size `k`, built on first use and shared by every later MSM over
    /// them on a curve with the same split (G1 and G2 of one family).
    pub fn p_index<C: CurveParams>(&self, k: u32) -> Arc<PIndex> {
        let split = C::glv().map(|g| g.split());
        let same = |ix: &PIndex| match (ix.split, split) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        };
        let mut memo = self.p_indexes.lock().expect("p_index build panicked");
        if let Some(hit) = memo.iter().find(|ix| ix.k == k && same(ix)) {
            return hit.clone();
        }
        let built = Arc::new(PIndex::build(self, k, split, recoded_windows::<C>(k)));
        memo.push(built.clone());
        built
    }

    /// Drops every memoised [`PIndex`]: for an owner that keeps the
    /// scalars after their last MSM (a proof checkpoint) and should not
    /// keep the entries, several times the scalars' own size, with them.
    pub fn release_p_indexes(&self) {
        self.p_indexes
            .lock()
            .expect("p_index build panicked")
            .clear();
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scalar bit width (`l` in the paper's notation).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Limbs per scalar.
    pub fn limbs_per_scalar(&self) -> usize {
        self.per_scalar
    }

    /// Raw limbs of scalar `i`.
    pub(crate) fn scalar_limbs(&self, i: usize) -> &[u64] {
        &self.limbs[i * self.per_scalar..(i + 1) * self.per_scalar]
    }

    /// The whole flat limb buffer, scalar-major little-endian — the
    /// serialization surface of proof checkpoints. Round-trips through
    /// [`ScalarVec::from_raw`] with [`ScalarVec::limbs_per_scalar`] and
    /// [`ScalarVec::bits`].
    pub fn raw_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Extracts the `k`-bit window `t` of scalar `i` (window `t` covers bits
    /// `[t·k, (t+1)·k)`).
    #[inline]
    pub fn window(&self, i: usize, t: usize, k: u32) -> u64 {
        let limbs = self.scalar_limbs(i);
        let start = t * k as usize;
        if start >= 64 * self.per_scalar {
            return 0;
        }
        let limb = start / 64;
        let shift = start % 64;
        let mut v = limbs[limb] >> shift;
        if shift != 0 && limb + 1 < self.per_scalar {
            v |= limbs[limb + 1] << (64 - shift);
        }
        v & ((1u64 << k) - 1)
    }

    /// Number of `k`-bit windows covering the scalar width
    /// (`⌈l/k⌉` in the paper).
    pub fn num_windows(&self, k: u32) -> usize {
        self.bits.div_ceil(k) as usize
    }

    /// Fraction of scalars equal to 0 or 1 — the sparsity signature of
    /// real-world workloads (§4.2).
    pub fn sparsity(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let trivial = (0..self.n)
            .filter(|&i| {
                let l = self.scalar_limbs(i);
                l[0] <= 1 && l[1..].iter().all(|&x| x == 0)
            })
            .count();
        trivial as f64 / self.n as f64
    }
}

/// Bucket-occupancy histogram of the *cross-window* point-merging step
/// (GZKP's consolidation, §4.1): bucket `d` (1 ≤ d < 2^k) counts every
/// `(i, t)` pair whose window digit equals `d`. Figure 6 plots exactly this.
pub fn bucket_histogram(scalars: &ScalarVec, k: u32) -> Vec<u64> {
    let mut hist = vec![0u64; 1 << k];
    let windows = scalars.num_windows(k);
    for i in 0..scalars.len() {
        for t in 0..windows {
            let d = scalars.window(i, t, k);
            hist[d as usize] += 1;
        }
    }
    hist
}

/// Per-window non-zero digit counts — the load profile of window-parallel
/// (sub-MSM) engines. Sparse workloads concentrate work in low windows.
pub(crate) fn window_loads(scalars: &ScalarVec, k: u32) -> Vec<u64> {
    let windows = scalars.num_windows(k);
    let mut loads = vec![0u64; windows];
    for i in 0..scalars.len() {
        for (t, l) in loads.iter_mut().enumerate() {
            if scalars.window(i, t, k) != 0 {
                *l += 1;
            }
        }
    }
    loads
}

/// The simulated Algorithm-1 window for a given MSM scale: larger windows
/// cut Pippenger work but explode the task count (§4.1); this is the
/// standard `log2(n) − 3` heuristic clamped to sane bounds, the starting
/// point for profiling-based configuration. It sizes everything the
/// simulated clock prices; the host fold, over recoded digits, sizes its
/// own window with [`host_window_size`].
pub fn default_window_size(n: usize) -> u32 {
    if n <= 1 {
        return 1;
    }
    (n.ilog2() as i64 - 3).clamp(4, 16) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_ff::fields::Fr254;
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn window_reconstruction() {
        // Sum of windows × weights reconstructs the scalar.
        let mut rng = StdRng::seed_from_u64(3);
        let s = Fr254::random(&mut rng);
        let sv = ScalarVec::from_field(&[s]);
        for k in [4u32, 7, 13, 16] {
            let mut acc = [0u64; 5];
            for t in (0..sv.num_windows(k)).rev() {
                // acc = acc * 2^k + digit
                let mut carry = 0u128;
                let d = sv.window(0, t, k);
                for limb in acc.iter_mut() {
                    let v = ((*limb as u128) << k) | carry;
                    *limb = v as u64;
                    carry = v >> 64;
                }
                let (lo, c) = acc[0].overflowing_add(d);
                acc[0] = lo;
                if c {
                    acc[1] += 1;
                }
            }
            assert_eq!(&acc[..4], sv.scalar_limbs(0), "k={k}");
            assert_eq!(acc[4], 0);
        }
    }

    #[test]
    fn recoded_entries_reconstruct_every_scalar() {
        // Σ ±(b+1)·2^{t·k}·(λ if φ) over a point's entries is its scalar
        // mod r: the balanced digits carry and the split recombines — on
        // a curve with a split (BN254) and one without (T753).
        fn check<C: CurveParams>(scalars: &[C::Scalar], k: u32) {
            let sv = ScalarVec::from_field(scalars);
            let index = sv.p_index::<C>(k);
            let lambda = C::glv().map_or(C::Scalar::one(), |g| {
                C::Scalar::from_limbs(g.split().lambda()).unwrap()
            });
            let weight = C::Scalar::from_u64(1 << k);
            let mut acc = vec![C::Scalar::zero(); scalars.len()];
            for j in 0..1 << k {
                // An odd segment holds a bucket's s₂ digits: φ entries.
                let phi = j % 2 == 1;
                assert!(!phi || C::glv().is_some() || index.segment(j).next().is_none());
                for e in index.segment(j) {
                    let mut v =
                        C::Scalar::from_u64(j as u64 / 2 + 1) * weight.pow(&[e.window as u64]);
                    if phi {
                        v *= lambda;
                    }
                    acc[e.point] += if e.neg { -v } else { v };
                }
            }
            assert_eq!(acc, scalars, "{} k={k}", C::NAME);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut bn: Vec<Fr254> = (0..40).map(|_| Fr254::random(&mut rng)).collect();
        bn.extend([
            Fr254::zero(),
            Fr254::one(),
            -Fr254::one(),
            -Fr254::from_u64(2),
        ]);
        for k in [1, 4, 7, 13] {
            check::<gzkp_curves::bn254::G1Config>(&bn, k);
        }
        use gzkp_curves::t753;
        let mut big: Vec<t753::Fr> = (0..8).map(|_| t753::Fr::random(&mut rng)).collect();
        big.extend([t753::Fr::one(), -t753::Fr::one()]);
        for k in [4, 9] {
            check::<t753::G1Config>(&big, k);
        }
    }

    #[test]
    fn histogram_totals() {
        let mut rng = StdRng::seed_from_u64(4);
        let scalars: Vec<Fr254> = (0..100).map(|_| Fr254::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        let k = 8;
        let hist = bucket_histogram(&sv, k);
        let total: u64 = hist.iter().sum();
        assert_eq!(total, 100 * sv.num_windows(k) as u64);
    }

    #[test]
    fn sparsity_detection() {
        let scalars = vec![
            Fr254::zero(),
            Fr254::one(),
            Fr254::from_u64(12345),
            Fr254::zero(),
        ];
        let sv = ScalarVec::from_field(&scalars);
        assert!((sv.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sparse_scalars_concentrate_in_low_windows() {
        // 0/1 scalars: only window 0 can be non-zero.
        let scalars = vec![Fr254::one(); 64];
        let sv = ScalarVec::from_field(&scalars);
        let loads = window_loads(&sv, 8);
        assert_eq!(loads[0], 64);
        assert!(loads[1..].iter().all(|&l| l == 0));
    }

    #[test]
    fn default_window_reasonable() {
        assert_eq!(default_window_size(1 << 14), 11);
        assert_eq!(default_window_size(1 << 20), 16);
        assert_eq!(default_window_size(1 << 26), 16); // clamped
        assert_eq!(default_window_size(16), 4); // clamped low
    }
}
