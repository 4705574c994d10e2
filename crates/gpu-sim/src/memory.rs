//! Global-memory traffic modelling: warp coalescing and an L2 cache model.
//!
//! The engines (NTT/MSM) describe their access patterns; this module turns
//! them into DRAM sector counts. Two levels of fidelity are provided:
//!
//! * **Analytic** — `strided_warp_sectors` computes exact sector counts
//!   for the strided patterns ZKP kernels use (stride one is the coalesced
//!   case), and the cost model consumes it through
//!   [`strided_phase_sectors`] (fast enough for 2²⁶-element sweeps).
//! * **Stateful** — [`L2Cache`], a set-associative LRU model the tests use
//!   to validate the analytic formulas on small instances. Nothing outside
//!   the tests runs it.

/// Sectors touched by one warp reading `warp_size` words of `word_bytes`
/// each, where consecutive lanes' addresses are `stride_words` words apart.
///
/// With the paper's column-major layout, lane `k` of a warp reads word `w`
/// of element `i + k·s`; addresses are `s · word_bytes` apart. A 32 B sector
/// then covers `max(1, sector/word/s)` useful lanes.
pub(crate) fn strided_warp_sectors(
    warp_size: u64,
    word_bytes: u64,
    stride_words: u64,
    sector_bytes: u64,
) -> u64 {
    debug_assert!(stride_words >= 1);
    let words_per_sector = (sector_bytes / word_bytes).max(1);
    let useful_per_sector = (words_per_sector / stride_words).max(1);
    warp_size.div_ceil(useful_per_sector)
}

/// Total sectors for a kernel phase that moves `total_words` words at a
/// given element stride (column-major layout, warp-granular).
pub fn strided_phase_sectors(
    total_words: u64,
    word_bytes: u64,
    stride_words: u64,
    warp_size: u64,
    sector_bytes: u64,
) -> u64 {
    let warps = total_words.div_ceil(warp_size);
    warps * strided_warp_sectors(warp_size, word_bytes, stride_words, sector_bytes)
}

/// A set-associative, LRU, sector-granular cache model.
///
/// # Examples
///
/// ```
/// use gzkp_gpu_sim::memory::L2Cache;
/// let mut l2 = L2Cache::new(4096, 32, 8); // 4 KB, 32 B sectors, 8-way
/// assert!(!l2.access(0));   // cold miss
/// assert!(l2.access(0));    // hit
/// assert!(l2.access(31));   // same sector
/// assert!(!l2.access(32));  // next sector: miss
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    sector_bytes: u64,
    num_sets: u64,
    ways: usize,
    /// `sets[set][way] = (tag, lru_counter)`; empty ways hold `u64::MAX` tags.
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Creates a cache of `capacity_bytes` with the given sector size and
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sectors or ways).
    pub fn new(capacity_bytes: u64, sector_bytes: u64, ways: usize) -> Self {
        assert!(sector_bytes > 0 && ways > 0);
        let sectors = capacity_bytes / sector_bytes;
        assert!(
            sectors as usize >= ways,
            "capacity too small for associativity"
        );
        let num_sets = (sectors / ways as u64).max(1);
        Self {
            sector_bytes,
            num_sets,
            ways,
            sets: vec![Vec::new(); num_sets as usize],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses a byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let sector = addr / self.sector_bytes;
        let set_idx = (sector % self.num_sets) as usize;
        let tag = sector / self.num_sets;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.len() < self.ways {
            set.push((tag, self.clock));
        } else {
            let lru = set
                .iter_mut()
                .min_by_key(|(_, c)| *c)
                .expect("nonempty set");
            *lru = (tag, self.clock);
        }
        false
    }

    /// Accesses a whole warp's worth of addresses; returns sectors missed.
    pub fn access_warp(&mut self, addrs: &[u64]) -> u64 {
        // Dedup sectors within the transaction first (coalescer).
        let mut sectors: Vec<u64> = addrs.iter().map(|a| a / self.sector_bytes).collect();
        sectors.sort_unstable();
        sectors.dedup();
        sectors
            .iter()
            .filter(|&&s| !self.access(s * self.sector_bytes))
            .count() as u64
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far (each miss is one DRAM sector fetch).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_is_coalesced() {
        // 32 lanes × 8 B contiguous = 256 B = 8 sectors.
        assert_eq!(strided_warp_sectors(32, 8, 1, 32), 8);
    }

    #[test]
    fn large_stride_amplifies_4x() {
        // stride ≥ 4 words of 8 B: every lane lands in its own sector.
        assert_eq!(strided_warp_sectors(32, 8, 4, 32), 32);
        assert_eq!(strided_warp_sectors(32, 8, 1024, 32), 32);
        // stride 2: two lanes share a sector.
        assert_eq!(strided_warp_sectors(32, 8, 2, 32), 16);
    }

    #[test]
    fn analytic_matches_stateful_cold_cache() {
        // Validate strided_warp_sectors against the L2 model with a cold
        // cache: DRAM sectors == analytic count.
        for stride in [1u64, 2, 4, 8] {
            let mut l2 = L2Cache::new(1 << 20, 32, 16);
            let addrs: Vec<u64> = (0..32).map(|k| k * stride * 8).collect();
            let missed = l2.access_warp(&addrs);
            assert_eq!(
                missed,
                strided_warp_sectors(32, 8, stride, 32),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn l2_capacity_eviction() {
        let mut l2 = L2Cache::new(1024, 32, 2); // 32 sectors, 16 sets × 2 ways
                                                // Fill three tags in the same set -> one eviction.
        let set_stride = 16 * 32; // same set every 512 B
        assert!(!l2.access(0));
        assert!(!l2.access(set_stride));
        assert!(!l2.access(2 * set_stride)); // evicts addr 0 (LRU)
        assert!(!l2.access(0)); // miss again
        assert_eq!(l2.misses(), 4);
    }
}
