//! Scalar-vector preparation: flat limb storage, window extraction and
//! bucket-occupancy histograms (the inputs to every MSM engine and to the
//! Figure-6 load analysis).

use gzkp_ff::PrimeField;
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
    /// [`PIndex`] per window size, built on first use: the scalars are
    /// immutable, and MSMs over different point vectors share them
    /// (Groth16's `a`, `b_g1` and `b_g2` all consume `z⃗`).
    p_indexes: Mutex<Vec<Arc<PIndex>>>,
}

impl Clone for ScalarVec {
    fn clone(&self) -> Self {
        Self::from_raw(self.limbs.clone(), self.per_scalar, self.bits)
    }
}

/// The paper's `p_index` (§4.1): every non-zero `(window, point)` digit
/// of a scalar vector, counting-sorted by bucket, so a bucket task reads
/// exactly its own entries and nothing rescans the scalars. Bucket `b`
/// holds digit `b + 1`.
#[derive(Debug)]
pub struct PIndex {
    k: u32,
    /// Bucket `b` owns `entries[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<usize>,
    /// `point << 16 | window`, in point-then-window order per bucket.
    entries: Vec<u64>,
}

impl PIndex {
    fn build(scalars: &ScalarVec, k: u32) -> Self {
        let windows = scalars.num_windows(k);
        assert!(windows <= 1 << 16 && (scalars.len() as u64) < 1 << 48);
        // Counting sort: the histogram's slot 0 (zero digits) becomes the
        // leading offset, so its running sum is the CSR offsets.
        let mut offsets: Vec<usize> = bucket_histogram(scalars, k)
            .into_iter()
            .map(|count| count as usize)
            .collect();
        offsets[0] = 0;
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![0u64; offsets[offsets.len() - 1]];
        for i in 0..scalars.len() {
            for t in 0..windows {
                let d = scalars.window(i, t, k) as usize;
                if d != 0 {
                    entries[cursor[d - 1]] = (i as u64) << 16 | t as u64;
                    cursor[d - 1] += 1;
                }
            }
        }
        Self {
            k,
            offsets,
            entries,
        }
    }

    /// The `(window, point)` entries of bucket `b`.
    pub fn bucket(&self, b: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries[self.offsets[b]..self.offsets[b + 1]]
            .iter()
            .map(|&e| ((e & 0xffff) as usize, (e >> 16) as usize))
    }

    /// Number of entries in buckets `lo..hi`.
    pub fn range_len(&self, lo: usize, hi: usize) -> usize {
        self.offsets[hi] - self.offsets[lo]
    }

    /// Per-bucket load profile `(entries, on_the_fly_doublings)` under
    /// checkpoint interval `m` — the data behind Figure 6, the simulated
    /// merge kernel and the load balancer. A window off the checkpoint
    /// grid costs `k` streamed doublings per entry it produces.
    pub fn loads(&self, m: u32) -> Vec<(u64, u64)> {
        (0..self.offsets.len() - 1)
            .map(|b| {
                let streamed = match m {
                    1 => 0,
                    _ => self
                        .bucket(b)
                        .filter(|(t, _)| !(*t as u32).is_multiple_of(m))
                        .count(),
                };
                (
                    (self.offsets[b + 1] - self.offsets[b]) as u64,
                    streamed as u64 * self.k as u64,
                )
            })
            .collect()
    }
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

    /// The [`PIndex`] for window size `k`, built on first use and shared
    /// by every later MSM over these scalars.
    pub fn p_index(&self, k: u32) -> Arc<PIndex> {
        let mut memo = self.p_indexes.lock().expect("p_index build panicked");
        if let Some(hit) = memo.iter().find(|ix| ix.k == k) {
            return hit.clone();
        }
        let built = Arc::new(PIndex::build(self, k));
        memo.push(built.clone());
        built
    }

    /// The already-built [`PIndex`] for `k`, if any MSM made one: what
    /// cost-only callers use, so planning a paper-scale vector never
    /// materialises its entries.
    pub fn cached_p_index(&self, k: u32) -> Option<Arc<PIndex>> {
        let memo = self.p_indexes.lock().expect("p_index build panicked");
        memo.iter().find(|ix| ix.k == k).cloned()
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
    pub fn scalar_limbs(&self, i: usize) -> &[u64] {
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
pub fn window_loads(scalars: &ScalarVec, k: u32) -> Vec<u64> {
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

/// The paper's recommended window size for a given MSM scale: larger
/// windows cut Pippenger work but explode the task count (§4.1); this is
/// the standard `log2(n) − 3` heuristic clamped to sane bounds, used as the
/// starting point for profiling-based configuration.
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
