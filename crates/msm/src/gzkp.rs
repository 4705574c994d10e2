//! GZKP's MSM design (paper §4): computation consolidation across windows,
//! checkpoint-based preprocessing (Algorithm 1), bucket-granular task
//! partitioning with load-balanced fine-grained warp mapping, and a
//! parallel-prefix bucket reduction.
//!
//! The key idea: precompute window-weighted copies `2^{t·k}·Pᵢ` of the
//! (fixed) proving-key points so the same-digit buckets of *all* windows
//! merge into a single set of `2^k − 1` buckets (`2^{k−1}` in the host's
//! recoded fold, below). This removes the
//! window-reduction step entirely and turns one PMUL per (window, sub-MSM,
//! digit) into one per digit. The checkpoint interval `M` stores only every
//! `M`-th weight level; intermediate weights cost `(t mod M)·k` on-the-fly
//! doublings (Algorithm 1), trading memory for PADDs — which is how GZKP's
//! memory curve stays flat past 2²² in Figure 9.
//!
//! The host fold is the paper's pipeline in four steps, one function
//! ([`ShardTask::partial`]) behind [`GzkpMsm::msm`],
//! [`GzkpMsm::msm_sharded`] and the cross-device engine: the scalars'
//! [`crate::scalars::PIndex`] (every non-zero digit counting-sorted by
//! bucket, built once per scalar vector, window size and recoding) →
//! bucket tasks sized by entry load alone → per task, one gather of its
//! entries into a CSR buffer reduced in place with one batched inversion
//! per round ([`crate::batch_affine::reduce_segments`]) → the task's own
//! bucket-range reduction over its affine bucket sums, so only one
//! partial sum per task is merged serially.
//!
//! The two clocks split at the scalar side. The host recodes it: a curve
//! with a GLV endomorphism ([`gzkp_curves::Glv`]) splits every scalar
//! into two halves of about half its bits, and both halves are written in
//! balanced signed digits — so the tables hold `⌈(bound + 1)/k⌉` windows
//! instead of `⌈l/k⌉`, the buckets are the `2^{k−1}` digit magnitudes,
//! a digit's sign travels beside its stored point into the reducer's
//! first round, and a bucket's `s₂` digits are summed apart and mapped by
//! `φ` once (one multiplication by β per bucket). The recoded shape has
//! its own
//! cheapest window, so the host folds at [`host_window_size`] (12 against
//! the simulated 9 on a 2¹² key) and stores its levels compactly
//! ([`Tables`]: `x` and `y` of the non-identity points only, one position
//! index for all levels). The paper did not recode,
//! so everything that prices — `plan`, `plan_dense`, `memory_bytes`,
//! `bucket_loads`, the telemetry counts and a [`ShardTask`]'s loads,
//! ranges and kernels — stays Algorithm 1 as
//! published, at [`default_window_size`] over unsigned unsplit digits and
//! `2^k − 1` buckets. A pinned [`GzkpMsm::window`] pins both windows. A
//! shard task cuts the recoded buckets into as many host ranges as it has
//! priced ranges; the results are exact group elements either way.

use crate::batch_affine::{reduce_segments, BatchAffineStats, ReduceScratch};
use crate::engine::{bucket_reduce_range, CurveCost, MsmEngine, MsmRun, MsmStats};
use crate::scalars::{
    default_window_size, host_window_size, recoded_windows, windows_of, Entry, ScalarVec,
};
use crate::store::{PreKey, PreprocessStore, Tables};
use gzkp_curves::group::{affine_add_denominator, affine_add_with_inverse};
use gzkp_curves::{Affine, CurveParams, Projective};
use gzkp_ff::{batch_inverse_scratch, Field, PrimeField};
use gzkp_gpu_sim::device::{Backend, DeviceConfig};
use gzkp_gpu_sim::kernel::{simulate_kernel, BlockCost, KernelSpec, StageReport};
use gzkp_gpu_sim::stream::DeviceTimeline;
use gzkp_gpu_sim::transfer::HostMem;
use std::sync::Arc;

/// Fixed per-MSM host-side cost (driver synchronization, scalar transfer,
/// result readback) shared by all simulated GPU MSM engines. Calibration
/// anchor: the paper's smallest GZKP MSM latencies (~4 ms at 2^14).
pub const MSM_HOST_OVERHEAD_NS: f64 = 3.0e6;

/// Execution-efficiency derate of the point-merging kernel relative to
/// pure operation counts: cooperative-group synchronization between the
/// lanes sharing one PADD (§4.1), warp divergence on bucket boundaries,
/// and gather stalls on the scattered preprocessed-point reads.
/// Calibration anchor: the paper's absolute GZKP MSM times (Table 7,
/// e.g. 381-bit 2²⁴ ≈ 1.1 s; 256-bit 2²² ≈ 0.17 s).
pub(crate) const MERGE_CG_OVERHEAD: f64 = 4.5;

/// Fraction of the on-the-fly doubling work (Algorithm 1) that shows up as
/// extra latency: the doubling chains of the streamed weight vector execute
/// while the warp waits on its scattered point gathers, so most of their
/// cost is hidden. Anchor: the paper's 753-bit column stays scale-linear
/// across the checkpoint-interval transition (Table 7, 2²⁰ → 2²⁶).
pub(crate) const DOUBLING_HIDE_FACTOR: f64 = 0.15;

/// The GZKP MSM engine.
#[derive(Debug, Clone)]
pub struct GzkpMsm {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Finite-field backend (GZKP ships its optimized library; set
    /// `Integer` for the "GZKP-no-LB" / "w/o lib" ablations).
    pub backend: Backend,
    /// Window size `k`; `None` = derived per MSM. A pinned `k` pins
    /// both windows: the simulated Algorithm-1 window
    /// ([`default_window_size`] when derived) and the host fold's
    /// ([`host_window_size`] when derived).
    pub window: Option<u32>,
    /// Checkpoint interval `M`; `None` = auto-sized to device memory.
    pub checkpoint_interval: Option<u32>,
    /// Load-balanced task grouping + fine-grained warp mapping (§4.2);
    /// `false` reproduces the "GZKP-no-LB" ablation of Figure 10.
    pub load_balance: bool,
    /// The byte-budgeted LRU table store this engine caches its
    /// checkpoint tables in; `None` means the process-wide default
    /// (`PreprocessStore::process_default`). A proving service sets its
    /// own to bound table memory across many proving keys explicitly.
    pub store: Option<Arc<PreprocessStore>>,
    /// Proof-system tag folded into preprocess-cache keys
    /// (`ProofSystemKind::cache_tag()`: 0 = Groth16, 1 = PLONK), so mixed
    /// backend streams sharing one store never alias each other's tables.
    pub system_tag: u8,
}

impl GzkpMsm {
    /// Full GZKP configuration on a device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: Backend::FpLib,
            window: None,
            checkpoint_interval: None,
            load_balance: true,
            store: None,
            system_tag: 0,
        }
    }

    /// Attaches a shared [`PreprocessStore`], replacing the process-wide
    /// default store for this engine instance.
    pub fn with_store(mut self, store: Arc<PreprocessStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the proof-system cache tag (see [`GzkpMsm::system_tag`]).
    pub fn with_system_tag(mut self, tag: u8) -> Self {
        self.system_tag = tag;
        self
    }

    fn k_for(&self, n: usize) -> u32 {
        self.window.unwrap_or_else(|| default_window_size(n))
    }

    fn host_k_for<C: CurveParams>(&self, n: usize) -> u32 {
        self.window.unwrap_or_else(|| host_window_size::<C>(n))
    }

    /// Auto-sizes the checkpoint interval `M` so the preprocessed point
    /// levels fit in (80% of) device memory alongside the inputs.
    pub(crate) fn interval_for<C: CurveParams>(&self, n: usize, windows: usize) -> u32 {
        if let Some(m) = self.checkpoint_interval {
            return m.max(1);
        }
        let cost = CurveCost::of::<C>();
        let budget = (self.device.global_mem_bytes as f64 * 0.8) as u64;
        let inputs = n as u64
            * (cost.affine_bytes()
                + <C::Scalar as PrimeField>::MODULUS_BITS.div_ceil(64) as u64 * 8)
            + n as u64 * 8; // p_index (built per window batch, streamed)
        let left = budget.saturating_sub(inputs).max(1);
        // Level 0 is the input vector itself; only extra levels cost memory.
        let max_levels = 1 + left / (n as u64 * cost.affine_bytes()).max(1);
        (windows as u64).div_ceil(max_levels).max(1) as u32
    }

    /// Number of stored checkpoint levels (level 0 is the input itself).
    fn levels(windows: usize, m: u32) -> usize {
        (windows as u64).div_ceil(m as u64) as usize
    }

    /// Computes the checkpoint tables: level `c` holds `2^{c·M·k} · Pᵢ`,
    /// one level per `M` windows of `C`'s recoded scalars, in the
    /// compact form of [`Tables`]. Only the non-identity points are
    /// doubled: an unused key column is the identity at every level.
    ///
    /// This corresponds to the paper's setup-time preprocessing (the point
    /// vector is fixed per application); like the paper's, its cost is
    /// excluded from MSM stage time.
    pub fn preprocess<C: CurveParams>(&self, points: &[Affine<C>], k: u32, m: u32) -> Tables<C> {
        let levels = Self::levels(recoded_windows::<C>(k), m);
        let mut tables = Tables::new(points);
        let mut next: Vec<Affine<C>> = points.iter().filter(|p| !p.infinity).copied().collect();
        for _ in 1..levels {
            // Across cores: a proof's MSMs run one after the other, so a
            // cold key's tables are built one vector at a time.
            double_each(&mut next, m * k);
            tables.push(&next);
        }
        tables
    }

    /// [`Self::preprocess`] through the cross-run cache: proving-key
    /// point vectors are fixed, so repeated proofs reuse the checkpoint
    /// tables instead of redoing `levels·M·k` doublings per point —
    /// the paper's setup/execution split realized on the CPU path.
    fn preprocess_cached<C: CurveParams>(
        &self,
        points: &[Affine<C>],
        k: u32,
        m: u32,
    ) -> Arc<Tables<C>> {
        let store = match &self.store {
            Some(store) => store,
            None => PreprocessStore::process_default(),
        };
        let key = PreKey::of(points, k, m, recoded_windows::<C>(k), self.system_tag);
        store.get_or_insert(key, points, || self.preprocess(points, k, m))
    }

    /// Splits the bucket index space into up to `tasks` contiguous
    /// ranges of roughly equal *entry load* (§4.2's load-grouped bucket
    /// tasks): range `j` ends at the first bucket where the cumulative
    /// load reaches `(j+1)·total/tasks`, so no range exceeds that share
    /// by more than its last bucket and a hot bucket cannot shrink the
    /// ranges after it. Returns half-open `(lo, hi)` ranges covering
    /// `0..entries.len()`.
    fn balanced_ranges(entries: &[u64], tasks: usize) -> Vec<(usize, usize)> {
        let nb = entries.len();
        let tasks = tasks.max(1) as u128;
        let total: u128 = entries.iter().map(|&e| u128::from(e)).sum();
        let mut ranges = Vec::new();
        let (mut lo, mut acc) = (0usize, 0u128);
        for (b, &e) in entries.iter().enumerate() {
            acc += u128::from(e);
            let next = ranges.len() as u128 + 1;
            if total > 0 && next < tasks && b + 1 < nb && acc * tasks >= next * total {
                ranges.push((lo, b + 1));
                lo = b + 1;
            }
        }
        ranges.push((lo, nb));
        ranges
    }

    /// Algorithm 1's per-bucket load profile `(entries,
    /// on_the_fly_doublings)` for each bucket 1..2^k over the unsigned,
    /// unsplit digits — the data behind Figure 6, the simulated merge
    /// kernel and the priced shard ranges. A window off the checkpoint grid
    /// costs `k` streamed doublings per entry it produces. One counting
    /// pass that stores no entries, and never the host's recoded
    /// `p_index`, so what is priced does not depend on the recoding.
    fn bucket_loads(scalars: &ScalarVec, k: u32, m: u32) -> Vec<(u64, u64)> {
        let (windows, per) = (scalars.num_windows(k), scalars.limbs_per_scalar());
        let zero = vec![(0u64, 0u64); (1usize << k) - 1];
        // Shares of the scalars across cores, each counted apart and the
        // counts summed: the same integers at every thread count.
        let shares = scalars
            .raw_limbs()
            .chunks(per * rayon::share_len(scalars.len()));
        let counted = rayon::map(shares, |share| {
            let mut loads = zero.clone();
            for limbs in share.chunks_exact(per) {
                // t mod M, kept without a division per window.
                let mut phase = 0;
                for d in windows_of(limbs, k).take(windows) {
                    if d != 0 {
                        let e = &mut loads[(d - 1) as usize];
                        e.0 += 1;
                        e.1 += if phase == 0 { 0 } else { u64::from(k) };
                    }
                    phase = if phase + 1 == m { 0 } else { phase + 1 };
                }
            }
            loads
        });
        counted.into_iter().fold(zero, |mut loads, share| {
            for (l, s) in loads.iter_mut().zip(share) {
                *l = (l.0 + s.0, l.1 + s.1);
            }
            loads
        })
    }

    /// Builds the warp-granular point-merging kernel from bucket loads.
    pub(crate) fn merge_kernel<C: CurveParams>(&self, loads: &[(u64, u64)]) -> KernelSpec {
        let cost = CurveCost::of::<C>();
        let dev = &self.device;
        let task_macs: Vec<f64> = loads
            .iter()
            .map(|&(entries, dbls)| {
                (entries as f64 * cost.padd_mixed()
                    + dbls as f64 * cost.pdbl() * DOUBLING_HIDE_FACTOR)
                    * MERGE_CG_OVERHEAD
            })
            .collect();
        let task_sectors: Vec<u64> = loads
            .iter()
            .map(|&(entries, _)| {
                // Scattered reads of preprocessed points (×2 gather
                // amplification) + coalesced p_index reads.
                (entries * cost.affine_bytes() * 2 + entries * 8) / dev.sector_bytes
            })
            .collect();

        let mut blocks: Vec<BlockCost> = if self.load_balance {
            // §4.2: group tasks by load, schedule heaviest first, give big
            // tasks proportionally more warps.
            let total: f64 = task_macs.iter().sum();
            let warp_budget = (dev.num_sms as f64) * 64.0;
            let target = (total / warp_budget).max(1.0);
            let mut blocks = Vec::new();
            for (i, &macs) in task_macs.iter().enumerate() {
                if macs == 0.0 {
                    continue;
                }
                let warps = ((macs / target).ceil() as u64).clamp(1, 64);
                for w in 0..warps {
                    blocks.push(BlockCost {
                        mac_ops: macs / warps as f64,
                        dram_sectors: task_sectors[i] / warps
                            + u64::from(w == 0) * (task_sectors[i] % warps),
                        shared_bytes: cost.jacobian_bytes() * 2,
                    });
                }
            }
            // Heaviest first so no straggler is left for the final wave.
            blocks.sort_by(|a, b| b.mac_ops.total_cmp(&a.mac_ops));
            blocks
        } else {
            // Ablation: one warp per bucket, natural order.
            task_macs
                .iter()
                .zip(&task_sectors)
                .filter(|(m, _)| **m > 0.0)
                .map(|(&macs, &sectors)| BlockCost {
                    mac_ops: macs,
                    dram_sectors: sectors,
                    shared_bytes: cost.jacobian_bytes() * 2,
                })
                .collect()
        };
        if blocks.is_empty() {
            blocks.push(BlockCost::default());
        }
        KernelSpec {
            name: format!(
                "gzkp.point-merge({} tasks{})",
                loads.iter().filter(|l| l.0 > 0).count(),
                if self.load_balance { ", LB" } else { "" }
            ),
            threads_per_block: 32, // warp-granular tasks
            shared_mem_per_block: 0,
            backend: self.backend,
            limbs: cost.speedup_limbs(),
            blocks,
        }
    }

    /// Bucket-info construction: `windows · n` digit extracts + scatter.
    fn p_index_kernel<C: CurveParams>(&self, n: usize, windows: usize) -> KernelSpec {
        let entries = (windows * n) as u64;
        KernelSpec::uniform(
            "gzkp.p_index",
            256,
            0,
            self.backend,
            CurveCost::of::<C>().speedup_limbs(),
            (entries / 4096).max(1) as usize,
            BlockCost {
                mac_ops: 4096.0 * 2.0,
                dram_sectors: 4096 * 16 / self.device.sector_bytes.max(1),
                shared_bytes: 0,
            },
        )
    }

    /// Parallel-prefix reduction of `buckets` bucket sums.
    fn reduce_kernel<C: CurveParams>(&self, name: String, buckets: u64) -> KernelSpec {
        let cost = CurveCost::of::<C>();
        let blocks = (buckets / 256).max(1);
        KernelSpec::uniform(
            name,
            256,
            16 * 1024,
            self.backend,
            cost.speedup_limbs(),
            blocks as usize,
            BlockCost {
                mac_ops: 2.0 * (buckets / blocks) as f64 * cost.padd(),
                dram_sectors: (buckets / blocks) * cost.jacobian_bytes() / self.device.sector_bytes,
                shared_bytes: 256 * cost.jacobian_bytes(),
            },
        )
    }

    /// Cost stage: p_index build, cross-window point-merging, prefix-sum
    /// bucket reduction.
    fn stage<C: CurveParams>(
        &self,
        n: usize,
        k: u32,
        windows: usize,
        loads: &[(u64, u64)],
    ) -> StageReport {
        let dev = &self.device;
        let mut stage = StageReport::new("msm-gzkp");
        stage.add_fixed("host-sync+transfer", MSM_HOST_OVERHEAD_NS);
        stage.run(dev, &self.p_index_kernel::<C>(n, windows));

        // Point-merging (90% of MSM time per §4.1).
        stage.run(dev, &self.merge_kernel::<C>(loads));

        // Parallel-prefix bucket reduction over 2^k buckets.
        let reduce = format!("gzkp.bucket-reduce(2^{k})");
        stage.run(dev, &self.reduce_kernel::<C>(reduce, (1 << k) - 1));
        stage
    }

    /// Device-resident footprint of one bucket-range pass when the task
    /// is split into `shards` passes: each pass streams the level
    /// sources, scalars, `p_index` and weight workspace through
    /// double-buffered chunks of `n/shards` points, and keeps only its
    /// own bucket range resident.
    pub(crate) fn sharded_memory_bytes<C: CurveParams>(&self, n: usize, shards: usize) -> u64 {
        let cost = CurveCost::of::<C>();
        let shards = shards.max(1) as u64;
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS as u64;
        let chunk = (n as u64).div_ceil(shards);
        let per_point = cost.affine_bytes() + bits.div_ceil(64) * 8 + 8 + cost.jacobian_bytes();
        let nb = (1u64 << self.k_for(n)) - 1;
        2 * chunk * per_point + nb.div_ceil(shards) * cost.jacobian_bytes()
    }

    /// Memory plan for an MSM of size `n`: 1 when checkpoint tables +
    /// point vectors fit [`DeviceConfig::global_mem_bytes`] whole,
    /// otherwise the smallest shard count whose per-pass footprint
    /// (`Self::sharded_memory_bytes`) fits. A task that exceeds device
    /// memory is always split at least once so that pass `i+1`'s uploads
    /// can double-buffer under pass `i`'s merge kernel.
    pub fn shard_plan<C: CurveParams>(&self, n: usize) -> usize {
        let mem = self.device.global_mem_bytes;
        if MsmEngine::<C>::memory_bytes(self, n) <= mem {
            return 1;
        }
        let nb = (1usize << self.k_for(n)) - 1;
        let mut shards = 2usize;
        while shards < nb && self.sharded_memory_bytes::<C>(n, shards) > mem {
            shards += 1;
        }
        shards
    }

    /// Functional MSM split into `shards` bucket-range partials
    /// ([`ShardTask::partial`]), merged on the host in range order.
    /// Partials are exact group elements, so the merged result is
    /// bit-identical for every shard count (proptested across both
    /// curves); one shard is the whole-task run.
    pub fn msm_sharded<C: CurveParams>(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        shards: usize,
    ) -> MsmRun<C> {
        let task = self.shard_task(points, scalars, shards);
        let mut stats = MsmStats {
            shards: task.num_ranges() as u64,
            ..MsmStats::default()
        };
        let partials: Vec<Projective<C>> = (0..task.num_ranges())
            .map(|i| {
                let (partial, s) = task.partial(scalars, i);
                stats.batch_padds += s.batch_padds;
                stats.batch_inversions += s.batch_inversions;
                partial
            })
            .collect();
        let report = self.stage_sharded::<C>(
            task.n,
            task.k,
            task.m,
            task.windows,
            &task.loads,
            &task.ranges,
        );
        MsmRun {
            result: task.merge(&partials),
            report,
            stats,
        }
    }

    /// Cost stage of a sharded run: per-pass merge kernels scheduled on a
    /// [`DeviceTimeline`] so pass `i+1`'s level-stream upload overlaps
    /// pass `i`'s kernel; only the copy time compute cannot hide shows up
    /// as a fixed "exposed" item. With a single range this is exactly the
    /// whole-task [`Self::stage`].
    #[allow(clippy::too_many_arguments)]
    fn stage_sharded<C: CurveParams>(
        &self,
        n: usize,
        k: u32,
        m: u32,
        windows: usize,
        loads: &[(u64, u64)],
        shard_ranges: &[(usize, usize)],
    ) -> StageReport {
        if shard_ranges.len() <= 1 {
            return self.stage::<C>(n, k, windows, loads);
        }
        let cost = CurveCost::of::<C>();
        let dev = &self.device;
        let mut stage = StageReport::new(format!("msm-gzkp-sharded(x{})", shard_ranges.len()));
        stage.add_fixed("host-sync+transfer", MSM_HOST_OVERHEAD_NS);

        // Digit extraction once; its p_index is reused by every pass.
        stage.run(dev, &self.p_index_kernel::<C>(n, windows));

        // Every pass re-streams the stored levels + scalars + p_index;
        // that S-fold transfer amplification is the price of fitting, and
        // the double-buffered schedule is what hides most of it.
        let levels = Self::levels(windows, m) as u64;
        let sbytes = <C::Scalar as PrimeField>::MODULUS_BITS.div_ceil(64) as u64 * 8;
        let pass_bytes = n as u64 * (cost.affine_bytes() * levels + sbytes + 8);
        let mut tl = DeviceTimeline::new(dev.clone());
        let copy = tl.stream();
        let exec = tl.stream();
        let mut kernel_ns = 0.0;
        for (i, &(lo, hi)) in shard_ranges.iter().enumerate() {
            let ev = tl.h2d(copy, &format!("shard{i}.h2d"), pass_bytes, HostMem::Pinned);
            tl.wait(exec, ev);
            let mut spec = self.merge_kernel::<C>(&loads[lo..hi]);
            spec.name = format!("shard{i}.{}", spec.name);
            let rep = simulate_kernel(dev, &spec);
            tl.kernel_ns(exec, &spec.name, rep.time_ns);
            kernel_ns += rep.time_ns;
            stage.kernels.push(rep);
            tl.d2h(
                exec,
                &format!("shard{i}.partial"),
                cost.jacobian_bytes(),
                HostMem::Pinned,
            );
        }
        let exposed = (tl.elapsed_ns() - kernel_ns).max(0.0);
        stage.add_fixed(
            format!("h2d+d2h exposed ({} passes, pipelined)", shard_ranges.len()),
            exposed,
        );

        // Per-pass local reductions sum to the same running-sum work as
        // the whole-task reduction kernel; host-side partial merging is
        // a handful of PADDs, folded into host-sync.
        let reduce = format!("gzkp.bucket-reduce(2^{k}, sharded)");
        stage.run(dev, &self.reduce_kernel::<C>(reduce, (1 << k) - 1));
        stage
    }

    /// Freezes one MSM into a [`ShardTask`] of `shards` bucket-range
    /// partials for cross-device execution. The window sizes — the
    /// simulated `k` the ranges are priced at and the host `k` the tables,
    /// `p_index` and bucket tasks are built at — and the checkpoint
    /// interval `M` are fixed by *this* (reference) engine, so every
    /// device computes against the same digit decomposition and
    /// checkpoint tables — which is what makes the merged result
    /// bit-identical to this engine's own single-device run regardless of
    /// how many devices execute the ranges or in what order.
    pub fn shard_task<C: CurveParams>(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        shards: usize,
    ) -> ShardTask<C> {
        assert_eq!(points.len(), scalars.len());
        let n = points.len();
        let k = self.k_for(n);
        let host_k = self.host_k_for::<C>(n);
        let windows = scalars.num_windows(k);
        let m = self.interval_for::<C>(n, windows);
        let pre = self.preprocess_cached(points, host_k, m);
        let loads = Self::bucket_loads(scalars, k, m);
        let entries: Vec<u64> = loads.iter().map(|l| l.0).collect();
        let ranges = Self::balanced_ranges(&entries, shards);
        // The same number of host ranges over the recoded buckets; a
        // recoding with fewer loaded buckets leaves the last ones empty.
        let sizes = scalars.p_index::<C>(host_k).bucket_sizes();
        let mut host_ranges = Self::balanced_ranges(&sizes, ranges.len());
        host_ranges.resize(ranges.len(), (sizes.len(), sizes.len()));
        ShardTask {
            pre,
            loads,
            ranges,
            host_ranges,
            k,
            host_k,
            m,
            windows,
            n,
        }
    }

    /// Dense-uniform bucket load synthesis at scale `n` (Tables 7/8 sweeps).
    fn dense_loads(&self, n: usize, k: u32, windows: usize, m: u32) -> Vec<(u64, u64)> {
        let buckets = (1usize << k) - 1;
        let entries_total = (n as f64) * (windows as f64) * (1.0 - 1.0 / (1u64 << k) as f64);
        let per_bucket = (entries_total / buckets as f64) as u64;
        // Streamed realization: k shared doublings per entry of every
        // non-checkpoint window ((M−1)/M of windows).
        let avg_dbl = k as f64 * (m as f64 - 1.0) / m as f64;
        vec![(per_bucket, (per_bucket as f64 * avg_dbl) as u64); buckets]
    }
}

impl<C: CurveParams> MsmEngine<C> for GzkpMsm {
    fn name(&self) -> String {
        match (self.load_balance, self.backend) {
            (true, _) => "GZKP".into(),
            (false, Backend::Integer) => "GZKP-no-LB".into(),
            (false, Backend::FpLib) => "GZKP-no-LB w. lib".into(),
        }
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        // One bucket-range pass when checkpoint tables + point vectors
        // fit device memory, else device-sized passes merged on the host.
        self.msm_sharded(points, scalars, self.shard_plan::<C>(points.len()))
    }

    fn emit_msm_telemetry(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        run: &MsmRun<C>,
        sink: &dyn gzkp_telemetry::TelemetrySink,
    ) {
        if sink.enabled() {
            gzkp_telemetry::emit_stage(sink, &run.report);
            // The engine's internal bucket-load profile gives the exact
            // point-operation counts and the Figure 6 occupancy shape.
            let n = points.len();
            let k = self.k_for(n);
            let windows = scalars.num_windows(k);
            let m = self.interval_for::<C>(n, windows);
            let loads = Self::bucket_loads(scalars, k, m);
            let entries: u64 = loads.iter().map(|l| l.0).sum();
            let dbls: u64 = loads.iter().map(|l| l.1).sum();
            let buckets = loads.len() as u64;
            use gzkp_telemetry::names;
            // One mixed PADD per merged entry + the running-sum reduction's
            // 2(m−1) full PADDs over 2^k − 1 buckets.
            sink.counter(names::MSM_PADD, (entries + 2 * (buckets - 1)) as f64);
            sink.counter(names::MSM_PDBL, dbls as f64);
            sink.counter(
                names::MSM_OCCUPIED_BUCKETS,
                loads.iter().filter(|l| l.0 > 0).count() as f64,
            );
            sink.counter(
                names::MSM_BATCH_INVERSIONS,
                run.stats.batch_inversions as f64,
            );
            sink.counter(
                names::MSM_BATCH_INV_SAVED,
                run.stats.inversions_saved() as f64,
            );
            if run.stats.shards > 1 {
                sink.counter(names::RUNTIME_SHARDS, run.stats.shards as f64);
            }
            sink.histogram(
                "bucket_occupancy",
                &gzkp_telemetry::log2_histogram(loads.iter().map(|l| l.0)),
            );
            sink.value(
                names::PEAK_DEVICE_BYTES,
                MsmEngine::<C>::memory_bytes(self, n) as f64,
            );
        }
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        let n = scalars.len();
        let k = self.k_for(n);
        let windows = scalars.num_windows(k);
        let m = self.interval_for::<C>(n, windows);
        let loads = Self::bucket_loads(scalars, k, m);
        self.stage::<C>(n, k, windows, &loads)
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        let k = self.k_for(n);
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        let windows = bits.div_ceil(k) as usize;
        let m = self.interval_for::<C>(n, windows);
        let loads = self.dense_loads(n, k, windows, m);
        self.stage::<C>(n, k, windows, &loads)
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        let cost = CurveCost::of::<C>();
        let k = self.k_for(n);
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        let windows = bits.div_ceil(k) as usize;
        let m = self.interval_for::<C>(n, windows);
        let levels = Self::levels(windows, m) as u64;
        n as u64 * (cost.affine_bytes() + (bits as u64).div_ceil(64) * 8) // inputs
            + (levels - 1) * n as u64 * cost.affine_bytes() // extra checkpoint levels
            // Streamed weight vector: points are processed in segments (the
            // merge order is commutative), so the resident workspace is
            // bounded regardless of n.
            + u64::from(m > 1) * (n as u64 * cost.jacobian_bytes()).min(2 << 30)
            + n as u64 * 8 // p_index (per window batch)
            + ((1u64 << k) - 1) * cost.jacobian_bytes() // buckets
    }
}

/// Scratch budget of one fold worker, in bytes: what one bucket task may
/// gather. A task's scratch is its CSR gather buffer — per point it
/// gathers (each bucket's two carried sums and its entries) the `x` and
/// `y` the tables store and a sign — and the reducer's `dens` and
/// `prods`, one base-field element per pair each, so a point costs
/// `size_of::<[C::Base; 2]>() + size_of::<bool>() + size_of::<C::Base>()`
/// bytes: 640 KiB is 6 756 points on BN254 G1, 3 395 on G2 and 4 519 on
/// BLS12-381 G1. Every task fits unless it is a single bucket that does
/// not (a bucket is never split), and a task still amortizes its
/// `⌈log₂(max bucket load)⌉` inversions over thousands of additions.
const TASK_SCRATCH_BYTES: usize = 640 << 10;

/// The points one bucket task may gather on `C` within
/// [`TASK_SCRATCH_BYTES`].
fn task_points<C: CurveParams>() -> u64 {
    let point = std::mem::size_of::<[C::Base; 2]>()
        + std::mem::size_of::<bool>()
        + std::mem::size_of::<C::Base>();
    (TASK_SCRATCH_BYTES / point) as u64
}

/// Cuts a run of buckets, `sizes[b]` entries each, into bucket tasks of
/// at most `cap` gathered points (each bucket's two carried sums and its
/// entries), unless a task is one bucket that is larger. The cut is
/// [`GzkpMsm::balanced_ranges`] into the fewest tasks — a multiple of
/// four, from `⌈points / cap⌉` up, so the count divides evenly over two
/// or four workers — whose ranges all fit: a pure function of the load
/// profile, never of the thread count. The search ends: once every bucket
/// carries at least `total / tasks` points, every bucket is a task.
fn bucket_tasks(sizes: &[u64], cap: u64) -> Vec<(usize, usize)> {
    let points: Vec<u64> = sizes.iter().map(|&e| e + 2).collect();
    let total: u64 = points.iter().sum();
    let fits = |&(a, b): &(usize, usize)| b - a == 1 || points[a..b].iter().sum::<u64>() <= cap;
    let mut tasks = total.div_ceil(cap).next_multiple_of(4) as usize;
    loop {
        let cut = GzkpMsm::balanced_ranges(&points, tasks);
        if cut.iter().all(fits) {
            return cut;
        }
        tasks += 4;
    }
}

/// What one worker of the fold owns: the buffers its bucket tasks reuse —
/// the CSR gather buffer of stored coordinates and the signs beside it,
/// sized by the largest task and written by index, its segment offsets,
/// the reducer's scratch — and the counters of the tasks it ran.
struct TaskScratch<C: CurveParams> {
    flat: Vec<[C::Base; 2]>,
    neg: Vec<bool>,
    offsets: Vec<usize>,
    reduce: ReduceScratch<C>,
    stats: BatchAffineStats,
}

impl<C: CurveParams> TaskScratch<C> {
    /// Lays `segments` out as the CSR buffer's segments, unsigned and
    /// without their identities.
    fn load<S: Iterator<Item = Affine<C>>>(&mut self, segments: impl Iterator<Item = S>) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut at = 0;
        for segment in segments {
            for p in segment.filter(|p| !p.infinity) {
                (self.flat[at], self.neg[at]) = ([p.x, p.y], false);
                at += 1;
            }
            self.offsets.push(at);
        }
    }

    /// Sums the buffer's segments into `sums` ([`reduce_segments`]).
    fn reduce(&mut self, sums: &mut [Affine<C>]) {
        let Self {
            flat,
            neg,
            offsets,
            reduce,
            stats,
        } = self;
        reduce_segments(flat, neg, offsets, sums, reduce, stats);
    }
}

/// Writes every entry's `(x, y)` as `read` finds it and its sign at
/// `flat[at..]` and `neg[at..]`, keeping the entries `read` marks as read
/// in this pass: each one is written, and the end moves past the kept
/// ones only, so the loop neither branches on an entry nor negates. The
/// signs are [`reduce_segments`]' to resolve. Returns the new end.
#[inline]
fn gather<F: Copy>(
    flat: &mut [[F; 2]],
    neg: &mut [bool],
    mut at: usize,
    entries: impl Iterator<Item = Entry>,
    read: impl Fn(Entry) -> ([F; 2], bool),
) -> usize {
    for e in entries {
        let (xy, keep) = read(e);
        (flat[at], neg[at]) = (xy, e.neg);
        at += usize::from(keep);
    }
    at
}

/// Doubles every point `times` times in place, shares of the vector
/// across cores. The points stay affine: each step of a share inverts its
/// tangent denominators `2y` together. The callers pass no identity: the
/// tables store none.
fn double_each<C: CurveParams>(points: &mut [Affine<C>], times: u32) {
    rayon::for_each(points.chunks_mut(rayon::share_len(points.len())), |share| {
        let mut dens = Vec::with_capacity(share.len());
        let mut prod = Vec::with_capacity(share.len());
        for _ in 0..times {
            dens.clear();
            dens.extend(share.iter().map(|p| affine_add_denominator(p, p)));
            batch_inverse_scratch(&mut dens, &mut prod);
            for (p, dinv) in share.iter_mut().zip(&dens) {
                *p = affine_add_with_inverse(p, p, dinv);
            }
        }
    });
}

/// One MSM frozen into bucket-range partials that distinct devices can
/// execute independently (the cross-device realization of the paper's
/// multi-GPU split, Table 4 / SZKP's cross-chip partitioning).
///
/// All parameters — window size, checkpoint interval, checkpoint tables,
/// bucket loads, range boundaries — are fixed at construction by the
/// reference engine ([`GzkpMsm::shard_task`]); an executing engine only
/// contributes its device, for kernel pricing
/// ([`Self::range_kernel_ns`]). Each [`Self::partial`] is an exact group
/// element, and merging the partials in range order ([`Self::merge`])
/// reproduces the reference engine's single-device result bit for bit.
///
/// Range `i` is priced from Algorithm 1's profile (`loads`, `ranges`,
/// `windows`, `k`: unsigned unsplit digits) and executed over host range
/// `i` of the recoded buckets (`host_ranges`, at `host_k`), which may be
/// empty.
pub struct ShardTask<C: CurveParams> {
    pre: Arc<Tables<C>>,
    loads: Vec<(u64, u64)>,
    ranges: Vec<(usize, usize)>,
    host_ranges: Vec<(usize, usize)>,
    k: u32,
    host_k: u32,
    m: u32,
    windows: usize,
    n: usize,
}

impl<C: CurveParams> ShardTask<C> {
    /// Number of bucket-range shards.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// The simulated window size `k` frozen by the reference engine.
    pub fn window(&self) -> u32 {
        self.k
    }

    /// The host fold's window size frozen by the reference engine.
    pub fn host_window(&self) -> u32 {
        self.host_k
    }

    /// Bytes a device must stream to execute one range: every pass reads
    /// all checkpoint levels, the scalars, and the `p_index` (bucket
    /// ranges filter by digit value, not point index, so the full point
    /// stream is needed regardless of the range).
    pub(crate) fn pass_bytes(&self) -> u64 {
        let cost = CurveCost::of::<C>();
        let levels = GzkpMsm::levels(self.windows, self.m) as u64;
        let sbytes = <C::Scalar as PrimeField>::MODULUS_BITS.div_ceil(64) as u64 * 8;
        self.n as u64 * (cost.affine_bytes() * levels + sbytes + 8)
    }

    /// Bytes shipped to the device owning range `index` when the host
    /// pre-partitions the entry stream by bucket range (the cross-device
    /// schedule): only the checkpoint rows whose digit lands in the range
    /// travel, so the upload scales with the range's share of the total
    /// entry load. This asymmetry with `Self::pass_bytes` is
    /// deliberate — a *single* device running every pass cannot hold the
    /// partition and must re-stream everything, while distinct devices
    /// each hold exactly their slice. Never less than the scalars +
    /// `p_index` (every device needs the digit stream to index its
    /// slice).
    pub fn pass_bytes_for(&self, index: usize) -> u64 {
        if self.ranges.len() <= 1 {
            return self.pass_bytes();
        }
        let (lo, hi) = self.ranges[index];
        let total: u64 = self.loads.iter().map(|&(e, _)| e).sum();
        let share: u64 = self.loads[lo..hi].iter().map(|&(e, _)| e).sum();
        let cost = CurveCost::of::<C>();
        let levels = GzkpMsm::levels(self.windows, self.m) as u64;
        let sbytes = <C::Scalar as PrimeField>::MODULUS_BITS.div_ceil(64) as u64 * 8;
        let full = self.n as u128 * (cost.affine_bytes() * levels) as u128;
        let points = (full * share as u128 / total.max(1) as u128) as u64;
        points + self.n as u64 * (sbytes + 8)
    }

    /// Bytes of one merged partial (a single Jacobian point): the payload
    /// of the device→device partial-sum merge.
    pub fn partial_bytes(&self) -> u64 {
        CurveCost::of::<C>().jacobian_bytes()
    }

    /// Simulated kernel time of range `index` on `engine`'s device:
    /// the point-merge over the range's bucket loads plus the local
    /// prefix reduction of its buckets. This is the scheduling cost the
    /// fleet overlaps uploads and P2P merges against.
    pub fn range_kernel_ns(&self, engine: &GzkpMsm, index: usize) -> f64 {
        let (lo, hi) = self.ranges[index];
        let merge = engine.merge_kernel::<C>(&self.loads[lo..hi]);
        let reduce = format!("gzkp.bucket-reduce({lo}..{hi})");
        let reduce = engine.reduce_kernel::<C>(reduce, (hi - lo).max(1) as u64);
        simulate_kernel(&engine.device, &merge).time_ns
            + simulate_kernel(&engine.device, &reduce).time_ns
    }

    /// Executes range `index`, returning the exact partial group element
    /// `Σ (b+1)·B_b` over its host range of recoded buckets and its
    /// operation stats — the one fold behind [`GzkpMsm::msm`],
    /// [`GzkpMsm::msm_sharded`] and the cross-device engine. An empty
    /// host range gives the identity.
    ///
    /// The range is cut into bucket tasks whose scratch fits
    /// `TASK_SCRATCH_BYTES` (`bucket_tasks`) — boundaries are a pure
    /// function of the load profile, never of the thread count — each
    /// worker's buffers are sized by the largest task, and the tasks of a
    /// pass are the items of one fan-out. A task gathers the `p_index`
    /// entries of its buckets into one CSR buffer — each entry's stored
    /// `x, y` as the tables hold it, its sign beside it, with no negation
    /// and no branch on the entry — and reduces every segment in place
    /// ([`reduce_segments`], whose first round resolves the signs). After
    /// the last pass it forms every bucket's `B_b = s₁ + φ(s₂)` in one
    /// more batch-affine round, one inversion per task, and finishes with
    /// its own `bucket_reduce_range` over the affine `B_b`; the task
    /// sums are merged in range order.
    /// Bucket sums are exact affine points, so the result and the stats
    /// are the same at every thread count.
    ///
    /// Algorithm 1 with `M > 1`: the windows on the checkpoint grid read
    /// the stored levels and are gathered together in a first pass (at
    /// `M = 1`, every window, each entry reading level `window`); every
    /// other window is one more pass over a streamed weight vector that
    /// is advanced by `k` doublings per window (shared by that window's
    /// entries), with the bucket sums carried from pass to pass.
    pub fn partial(&self, scalars: &ScalarVec, index: usize) -> (Projective<C>, MsmStats) {
        let (lo, hi) = self.host_ranges[index];
        // No point among the MSM's columns: every entry reads the identity.
        if lo == hi || self.pre.rank(self.n) == 0 {
            return (Projective::identity(), MsmStats::default());
        }
        let (k, m) = (self.host_k, self.m as usize);
        let pre = &*self.pre;
        let p_index = scalars.p_index::<C>(k);
        let glv = C::glv();
        let tasks = bucket_tasks(&p_index.bucket_sizes()[lo..hi], task_points::<C>());
        let streamed: Vec<usize> = (0..p_index.windows()).filter(|t| t % m != 0).collect();

        // Two sums per bucket: its s₁ segment and its s₂ segment.
        let mut buckets = vec![Affine::<C>::identity(); 2 * (hi - lo)];
        let mut weights: Vec<Affine<C>> = Vec::new();
        // The last pass leaves every task's own bucket-range reduction here.
        let mut partials = vec![Projective::<C>::identity(); tasks.len()];
        // One state per participating thread, each with its own task
        // buffers, built on this thread like every fan-out state: so
        // back-to-back MSMs reuse one heap instead of growing every pool
        // thread's.
        let workers = rayon::current_num_threads();
        let task_points = tasks
            .iter()
            .map(|&(a, b)| 2 * (b - a) + p_index.range_len(lo + a, lo + b))
            .max()
            .unwrap_or(0);
        let mut scratch: Vec<TaskScratch<C>> = (0..workers)
            .map(|_| TaskScratch {
                flat: vec![[C::Base::zero(); 2]; task_points],
                neg: vec![false; task_points],
                offsets: Vec::new(),
                reduce: ReduceScratch::with_capacity(task_points),
                stats: BatchAffineStats::default(),
            })
            .collect();
        for pass in 0..=streamed.len() {
            // Pass 0 covers the checkpoint grid, pass p > 0 window
            // `streamed[p − 1]`.
            let window = pass.checked_sub(1).map(|p| streamed[p]);
            if let Some(t) = window {
                if t % m == 1 {
                    weights.clear();
                    // The tables may serve a longer vector this MSM
                    // reads a prefix of.
                    weights.extend(pre.stored(t / m, self.n));
                }
                double_each(&mut weights, k);
            }
            let weights = &weights;
            let last = pass == streamed.len();

            // One item per task, in range order: its first bucket, its
            // slice of the segment sums, and the slot of its partial sum.
            let mut parts = Vec::with_capacity(tasks.len());
            let mut rest = &mut buckets[..];
            for (&(a, b), partial) in tasks.iter().zip(&mut partials) {
                let (head, tail) = rest.split_at_mut(2 * (b - a));
                parts.push((lo + a, head, partial));
                rest = tail;
            }
            rayon::fan_out(parts, &mut scratch, |s, (first, sums, partial)| {
                s.offsets.clear();
                s.offsets.push(0);
                let mut at = 0;
                for (j, sum) in sums.iter().enumerate() {
                    if !sum.infinity {
                        (s.flat[at], s.neg[at]) = ([sum.x, sum.y], false);
                        at += 1;
                    }
                    // The entries whose window this pass reads: on the
                    // grid of M = 1 every one, at level `window`.
                    let entries = p_index.segment(2 * first + j);
                    let (flat, neg) = (&mut s.flat[..], &mut s.neg[..]);
                    at = match window {
                        None if m == 1 => gather(flat, neg, at, entries, |e| {
                            let (slot, present) = pre.locate(e.point);
                            (pre.coords(e.window)[slot], present)
                        }),
                        None => gather(flat, neg, at, entries, |e| {
                            let (slot, present) = pre.locate(e.point);
                            let on_grid = e.window % m == 0;
                            (pre.coords(e.window / m)[slot], present && on_grid)
                        }),
                        Some(w) => gather(flat, neg, at, entries, |e| {
                            let (slot, present) = pre.locate(e.point);
                            let p = &weights[slot];
                            ([p.x, p.y], present && e.window == w)
                        }),
                    };
                    s.offsets.push(at);
                }
                s.reduce(sums);
                if last {
                    // B_b = s₁ + φ(s₂) for all the task's buckets in one
                    // more round — φ is a homomorphism, so once per bucket
                    // equals once per entry — written over the first half
                    // of the sums, which no pass reads again.
                    let l = sums.len() / 2;
                    s.load(sums.chunks_exact(2).map(|seg| {
                        [seg[0], glv.map_or(seg[1], |glv| glv.phi(&seg[1]))].into_iter()
                    }));
                    s.reduce(&mut sums[..l]);
                    *partial = bucket_reduce_range(&sums[..l], first as u64);
                }
            });
        }
        let result = partials
            .iter()
            .fold(Projective::<C>::identity(), |acc, partial| acc.add(partial));
        let mut stats = BatchAffineStats::default();
        for worker in &scratch {
            stats.merge(&worker.stats);
        }
        let stats = MsmStats {
            batch_padds: stats.padds,
            batch_inversions: stats.inversions,
            shards: 0,
        };
        (result, stats)
    }

    /// Merges per-range partials in range order — the same left fold
    /// [`GzkpMsm::msm_sharded`] performs, hence the same bytes.
    pub fn merge(&self, partials: &[Projective<C>]) -> Projective<C> {
        assert_eq!(partials.len(), self.ranges.len());
        let mut result = Projective::<C>::identity();
        for partial in partials {
            result = result.add(partial);
        }
        result
    }
}

/// Profiling-based window configuration (§4.1): evaluates the dense-load
/// plan for a range of window sizes and returns the fastest.
pub fn profile_window_size<C: CurveParams>(device: &DeviceConfig, n: usize) -> u32 {
    let mut best = (f64::INFINITY, default_window_size(n));
    for k in 6..=18u32 {
        let engine = GzkpMsm {
            window: Some(k),
            ..GzkpMsm::new(device.clone())
        };
        let t = MsmEngine::<C>::plan_dense(&engine, n).total_ns();
        if t < best.0 {
            best = (t, k);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive_msm;
    use gzkp_curves::bn254::{Fr, G1Config};
    use gzkp_curves::random_points;
    use gzkp_ff::Field;
    use gzkp_gpu_sim::device::v100;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Vec<Affine<G1Config>>, ScalarVec) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        (pts, ScalarVec::from_field(&scalars))
    }

    #[test]
    fn matches_naive_oracle() {
        let (pts, sv) = setup(80, 41);
        let run = GzkpMsm::new(v100()).msm(&pts, &sv);
        assert_eq!(run.result, naive_msm(&pts, &sv));
    }

    #[test]
    fn balanced_ranges_track_cumulative_targets() {
        // No range may exceed its share by more than the heaviest bucket,
        // on a dense vector and on a 0/1-heavy one (bucket 1 hot) — the
        // old cut reset its accumulator at every boundary, so later
        // ranges shrank and the last one was a stub.
        let n = 1 << 10;
        let mut rng = StdRng::seed_from_u64(50);
        let dense: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sparse: Vec<Fr> = (0..n)
            .map(|i| match i % 8 {
                0 => Fr::random(&mut rng),
                _ => Fr::from_u64((i % 2) as u64),
            })
            .collect();
        for (scalars, hot) in [(dense, false), (sparse, true)] {
            let loads: Vec<u64> = GzkpMsm::bucket_loads(&ScalarVec::from_field(&scalars), 7, 1)
                .iter()
                .map(|l| l.0)
                .collect();
            let total: u64 = loads.iter().sum();
            let heaviest = *loads.iter().max().unwrap();
            assert_eq!(hot, heaviest == loads[0] && heaviest > total / 16);
            for tasks in [1usize, 2, 3, 7, 16, 40] {
                let ranges = GzkpMsm::balanced_ranges(&loads, tasks);
                assert!(ranges.len() <= tasks);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, loads.len());
                assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0));
                let target = total.div_ceil(tasks as u64);
                for &(lo, hi) in &ranges {
                    let load: u64 = loads[lo..hi].iter().sum();
                    assert!(
                        lo < hi && load <= target + heaviest,
                        "tasks={tasks} {lo}..{hi}"
                    );
                    // Without a hot bucket every range, the last included,
                    // carries about its share.
                    assert!(hot || load + heaviest >= target, "tasks={tasks} {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn bucket_tasks_fit_the_scratch_budget() {
        // Every task's gather — each of its buckets' two carried sums and
        // entries — fits the cap unless the task is one bucket that does
        // not; the tasks cover the run in order.
        let check = |sizes: &[u64], cap: u64| {
            let tasks = bucket_tasks(sizes, cap);
            assert_eq!((tasks[0].0, tasks.last().unwrap().1), (0, sizes.len()));
            assert!(tasks.windows(2).all(|w| w[0].1 == w[1].0));
            for &(a, b) in &tasks {
                let points: u64 = sizes[a..b].iter().map(|e| e + 2).sum();
                assert!(
                    a < b && (points <= cap || b - a == 1),
                    "{a}..{b}: {points} > {cap}"
                );
            }
            tasks
        };
        // The recoded profiles of a dense and a 0/1-heavy vector at the
        // BN254 G1 and G2 budgets and at a tight one: a multiple of four.
        let n = 1 << 12;
        let mut rng = StdRng::seed_from_u64(52);
        let dense: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let sparse: Vec<Fr> = (0..n)
            .map(|i| match i % 3 {
                2 => Fr::random(&mut rng),
                _ => Fr::from_u64((i % 2) as u64),
            })
            .collect();
        let caps = [
            task_points::<G1Config>(),
            task_points::<gzkp_curves::bn254::G2Config>(),
            900,
        ];
        assert_eq!(caps[..2], [6756, 3395]);
        for scalars in [dense, sparse] {
            let sizes = ScalarVec::from_field(&scalars)
                .p_index::<G1Config>(12)
                .bucket_sizes();
            for cap in caps {
                let tasks = check(&sizes, cap);
                let points: u64 = sizes.iter().map(|e| e + 2).sum();
                assert!(tasks.len() as u64 >= points.div_ceil(cap));
                assert_eq!(tasks.len() % 4, 0, "cap {cap}");
            }
        }
        // A bucket just under the cap behind a run of small ones, which
        // the first equal-load cuts put in one task with it, and a bucket
        // over the cap, which is a task of its own.
        let hot_last: Vec<u64> = [0; 40].into_iter().chain([90]).collect();
        let points: Vec<u64> = hot_last.iter().map(|e| e + 2).collect();
        // At four tasks the last one gathers 19 · 2 + 92 = 130 points.
        assert_eq!(GzkpMsm::balanced_ranges(&points, 4).last(), Some(&(22, 41)));
        check(&hot_last, 100);
        assert_eq!(check(&[5, 300, 5, 5], 100)[1], (1, 2));
    }

    /// The counters an MSM's telemetry emits.
    #[derive(Default)]
    struct Counters(std::sync::Mutex<Vec<(String, f64)>>);

    impl gzkp_telemetry::TelemetrySink for Counters {
        fn enabled(&self) -> bool {
            true
        }
        fn counter(&self, name: &str, delta: f64) {
            self.0.lock().unwrap().push((name.into(), delta));
        }
    }

    #[test]
    fn loads_agree_with_and_without_p_index() {
        // The clock split: everything that prices reads Algorithm 1's
        // unsigned, unsplit digits, never the recoded p_index an MSM
        // memoises — so for every M each priced value is bit-identical
        // before and after the memo exists.
        use gzkp_telemetry::names::{MSM_OCCUPIED_BUCKETS, MSM_PADD, MSM_PDBL};
        let (pts, sv) = setup(200, 51);
        for m in [1u32, 2, 5] {
            let engine = GzkpMsm {
                window: Some(8),
                checkpoint_interval: Some(m),
                ..GzkpMsm::new(v100())
            };
            let priced = |sv: &ScalarVec| {
                let sink = Counters::default();
                let run = MsmRun {
                    result: Projective::identity(),
                    report: StageReport::new("msm"),
                    stats: MsmStats::default(),
                };
                engine.emit_msm_telemetry(&pts, sv, &run, &sink);
                let counted: Vec<(String, f64)> = sink.0.into_inner().unwrap();
                let counted: Vec<_> = counted
                    .into_iter()
                    .filter(|(name, _)| {
                        [MSM_PADD, MSM_PDBL, MSM_OCCUPIED_BUCKETS].contains(&&**name)
                    })
                    .collect();
                assert_eq!(counted.len(), 3);
                let plan = MsmEngine::<G1Config>::plan(&engine, sv).total_ns();
                let figure6 = (
                    crate::bucket_histogram(sv, 8),
                    crate::scalars::window_loads(sv, 8),
                );
                let loads = GzkpMsm::bucket_loads(sv, 8, m);
                // Built last: constructing the task memoises the p_index.
                let task = engine.shard_task::<G1Config>(&pts, sv, 3);
                assert_eq!(task.num_ranges(), 3);
                let ranges: Vec<(f64, u64)> = (0..3)
                    .map(|i| (task.range_kernel_ns(&engine, i), task.pass_bytes_for(i)))
                    .collect();
                (plan, loads, counted, figure6, ranges)
            };
            let before = priced(&sv.clone());
            engine.msm(&pts, &sv);
            // The memo holds signed entries and φ entries, which are the
            // odd segments'.
            let index = sv.p_index::<G1Config>(8);
            let entries: Vec<Entry> = (0..256).flat_map(|j| index.segment(j)).collect();
            assert!(entries.iter().any(|e| e.neg));
            assert!((0..256).any(|j| j % 2 == 1 && index.segment(j).next().is_some()));
            assert_eq!(priced(&sv), before, "M={m}");
        }
    }

    #[test]
    fn checkpoint_interval_invariance() {
        // Algorithm 1 must give the same result for every M. With one fold
        // in the engine, this comparison against `naive_msm` is what pins
        // the streamed (off-grid) windows: M = 1 has none, M = 64 streams
        // every window but the first.
        let (pts, sv) = setup(24, 42);
        let expect = naive_msm(&pts, &sv);
        for m in [1u32, 2, 3, 5, 64] {
            let e = GzkpMsm {
                checkpoint_interval: Some(m),
                window: Some(8),
                ..GzkpMsm::new(v100())
            };
            assert_eq!(e.msm(&pts, &sv).result, expect, "M={m}");
        }
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (pts, sv) = setup(96, 46);
        let engine = GzkpMsm::new(v100());
        let whole = engine.msm(&pts, &sv);
        assert_eq!(whole.stats.shards, 1);
        for shards in [1usize, 2, 3, 7, 31] {
            let run = engine.msm_sharded(&pts, &sv, shards);
            assert_eq!(run.result, whole.result, "shards={shards}");
            assert_eq!(
                gzkp_curves::compress(&run.result.to_affine()),
                gzkp_curves::compress(&whole.result.to_affine()),
                "shards={shards}"
            );
            assert!(run.stats.shards >= 1 && run.stats.shards <= shards as u64);
        }
    }

    #[test]
    fn shard_task_partials_merge_bit_identically() {
        // The cross-device contract: the partials of one frozen task
        // merge to the reference engine's exact single-device bytes.
        let (pts, sv) = setup(96, 49);
        let reference = GzkpMsm::new(v100());
        let whole = reference.msm(&pts, &sv);
        for shards in [2usize, 3, 4] {
            let task = reference.shard_task::<G1Config>(&pts, &sv, shards);
            assert_eq!(task.num_ranges(), shards);
            let partials: Vec<_> = (0..task.num_ranges())
                .map(|i| task.partial(&sv, i).0)
                .collect();
            let merged = task.merge(&partials);
            assert_eq!(
                gzkp_curves::compress(&merged.to_affine()),
                gzkp_curves::compress(&whole.result.to_affine()),
                "shards={shards}"
            );
            assert!(task.range_kernel_ns(&reference, 0) > 0.0);
            assert!(task.pass_bytes() > 0 && task.partial_bytes() > 0);
        }
    }

    #[test]
    fn tiny_device_auto_shards_bit_identically() {
        // A device too small to hold the task whole: `msm` must detect it,
        // take the sharded path, and still produce the exact bytes the
        // big-memory run does.
        let (pts, sv) = setup(256, 48);
        let big = GzkpMsm::new(v100()).msm(&pts, &sv);
        let tiny_dev = DeviceConfig {
            global_mem_bytes: 48 * 1024,
            ..v100()
        };
        let tiny = GzkpMsm::new(tiny_dev.clone());
        let planned = tiny.shard_plan::<G1Config>(256);
        assert!(planned > 1, "plan should shard, got {planned}");
        let run = tiny.msm(&pts, &sv);
        assert_eq!(run.stats.shards, planned as u64);
        assert_eq!(
            gzkp_curves::compress(&run.result.to_affine()),
            gzkp_curves::compress(&big.result.to_affine())
        );
        // The sharded pass must actually fit where the whole task did not.
        assert!(MsmEngine::<G1Config>::memory_bytes(&tiny, 256) > tiny_dev.global_mem_bytes);
        assert!(tiny.sharded_memory_bytes::<G1Config>(256, planned) <= tiny_dev.global_mem_bytes);
    }

    #[test]
    fn sharded_memory_monotone_and_planned() {
        let e = GzkpMsm::new(gzkp_gpu_sim::gtx1080ti());
        let n = 1 << 20;
        let mut prev = u64::MAX;
        for s in [1usize, 2, 4, 8, 16] {
            let b = e.sharded_memory_bytes::<gzkp_curves::t753::G1Config>(n, s);
            assert!(b <= prev, "shards={s}");
            prev = b;
        }
    }

    #[test]
    fn past_1080ti_memory_completes_via_sharding_plan() {
        // Acceptance shape: a 753-bit MSM at 2^25 exceeds a single
        // 1080 Ti even at the maximum checkpoint interval (the Algorithm 1
        // knob is exhausted), so before the shard plan existed it could only
        // run whole — i.e. OOM. The plan now splits it into passes that
        // each fit.
        let dev = gzkp_gpu_sim::gtx1080ti();
        let e = GzkpMsm::new(dev.clone());
        let n = 1usize << 25;
        type C753 = gzkp_curves::t753::G1Config;
        assert!(
            MsmEngine::<C753>::memory_bytes(&e, n) > dev.global_mem_bytes,
            "whole task should exceed the 1080 Ti"
        );
        let shards = e.shard_plan::<C753>(n);
        assert!(shards > 1);
        assert!(e.sharded_memory_bytes::<C753>(n, shards) <= dev.global_mem_bytes);
        // The sharded cost stage prices the S-fold re-streaming with
        // copy/compute overlap: it must be dearer than the (infeasible)
        // whole-task plan, but not by anywhere near the un-pipelined
        // transfer amplification.
        let loads = e.dense_loads(n, e.k_for(n), 94, 1);
        let whole_ns = e.stage::<C753>(n, e.k_for(n), 94, &loads).total_ns();
        let entries: Vec<u64> = loads.iter().map(|l| l.0).collect();
        let ranges = GzkpMsm::balanced_ranges(&entries, shards);
        let sharded_ns = e
            .stage_sharded::<C753>(n, e.k_for(n), 1, 94, &loads, &ranges)
            .total_ns();
        assert!(sharded_ns > whole_ns);
        assert!(sharded_ns < whole_ns * shards as f64);
    }

    #[test]
    fn no_lb_variant_is_functionally_identical() {
        let (pts, sv) = setup(40, 43);
        let a = GzkpMsm::new(v100()).msm(&pts, &sv).result;
        let no_lb = GzkpMsm {
            load_balance: false,
            backend: Backend::Integer,
            ..GzkpMsm::new(v100())
        };
        let b = no_lb.msm(&pts, &sv).result;
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_workload_load_balance_wins() {
        // Figure 10's sparse story: with skewed bucket loads, the
        // load-balanced plan beats the naive bucket order.
        let n = 1 << 12;
        let mut rng = StdRng::seed_from_u64(44);
        // Heavy skew: 80% of scalars are tiny (0/1/2), rest random.
        let scalars: Vec<Fr> = (0..n)
            .map(|i| {
                if i % 5 != 0 {
                    Fr::from_u64((i % 3) as u64)
                } else {
                    Fr::random(&mut rng)
                }
            })
            .collect();
        let sv = ScalarVec::from_field(&scalars);
        let lb = GzkpMsm {
            backend: Backend::Integer,
            ..GzkpMsm::new(v100())
        };
        let no_lb = GzkpMsm {
            load_balance: false,
            ..lb.clone()
        };
        let t_lb = MsmEngine::<G1Config>::plan(&lb, &sv).total_ns();
        let t_no = MsmEngine::<G1Config>::plan(&no_lb, &sv).total_ns();
        assert!(t_lb < t_no, "LB {t_lb} should beat no-LB {t_no}");
    }

    #[test]
    fn memory_adapts_to_budget() {
        // Figure 9: auto-M keeps GZKP's footprint under the device limit
        // even at scales where full preprocessing would not fit.
        let e = GzkpMsm::new(v100());
        for log_n in [18u32, 20, 22, 24, 26] {
            let m = MsmEngine::<gzkp_curves::t753::G1Config>::memory_bytes(&e, 1 << log_n);
            assert!(
                m <= v100().global_mem_bytes,
                "2^{log_n}: {m} bytes exceeds device"
            );
        }
    }

    #[test]
    fn beats_submsm_baseline_dense() {
        // Headline Table 7 shape: GZKP several × faster than bellperson.
        let e = GzkpMsm::new(v100());
        let b = crate::submsm::SubMsmPippenger::new(v100());
        let t_g = MsmEngine::<G1Config>::plan_dense(&e, 1 << 20).total_ns();
        let t_b = MsmEngine::<G1Config>::plan_dense(&b, 1 << 20).total_ns();
        assert!(t_g * 2.0 < t_b, "GZKP {t_g} vs BG {t_b}");
    }

    #[test]
    fn profiled_window_is_sane() {
        let k = profile_window_size::<G1Config>(&v100(), 1 << 16);
        assert!((6..=18).contains(&k));
    }

    #[test]
    fn works_on_g2_and_t753() {
        use gzkp_curves::bn254::G2Config;
        let mut rng = StdRng::seed_from_u64(45);
        let pts = random_points::<G2Config, _>(16, &mut rng);
        let scalars: Vec<Fr> = (0..16).map(|_| Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        assert_eq!(
            GzkpMsm::new(v100()).msm(&pts, &sv).result,
            naive_msm(&pts, &sv)
        );

        use gzkp_curves::t753;
        let pts = random_points::<t753::G1Config, _>(8, &mut rng);
        let scalars: Vec<t753::Fr> = (0..8).map(|_| t753::Fr::random(&mut rng)).collect();
        let sv = ScalarVec::from_field(&scalars);
        assert_eq!(
            GzkpMsm::new(v100()).msm(&pts, &sv).result,
            naive_msm(&pts, &sv)
        );
    }
}
