//! Kernel descriptions and the wave scheduler.
//!
//! Engines describe each GPU kernel as a grid of [`BlockCost`]s; the
//! scheduler turns that into simulated nanoseconds on a [`DeviceConfig`].
//! The model is a per-wave roofline:
//!
//! * blocks are issued in waves of `num_sms × blocks_per_sm` (occupancy
//!   limited by shared-memory usage, thread count, and the hardware block
//!   limit);
//! * a wave takes `max(compute, DRAM, shared)` time, where compute is
//!   bounded both by aggregate throughput *and* by the slowest block in the
//!   wave — this is what makes **load imbalance** (§4.2) and **sub-optimal
//!   block division** (Fig. 8 discussion) emergent instead of hand-coded;
//! * per-block scheduling overhead and the kernel launch are added on top
//!   (the paper's "non-trivial GPU scheduling overheads" when tasks ≫ SMs).

use crate::device::{Backend, DeviceConfig};
use serde::{Deserialize, Serialize};

/// Cost footprint of one GPU block.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BlockCost {
    /// 64-bit multiply-accumulate equivalents executed by the block
    /// (through [`crate::device::field_mul_macs`] and friends).
    pub mac_ops: f64,
    /// DRAM sectors moved by the block (after the engine's L2/coalescing
    /// analysis; see [`crate::memory`]).
    pub dram_sectors: u64,
    /// Shared-memory bytes moved, already multiplied by any bank-conflict
    /// replay factor.
    pub shared_bytes: u64,
}

impl BlockCost {
    /// Sums two block costs (useful when fusing phases into one block).
    pub fn merge(&self, other: &BlockCost) -> BlockCost {
        BlockCost {
            mac_ops: self.mac_ops + other.mac_ops,
            dram_sectors: self.dram_sectors + other.dram_sectors,
            shared_bytes: self.shared_bytes + other.shared_bytes,
        }
    }
}

/// A kernel: a grid of blocks plus per-block resource usage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Name shown in reports, e.g. `"ntt.batch2"` or `"msm.point_merge"`.
    pub name: String,
    /// Threads per block (occupancy and saturation).
    pub threads_per_block: u32,
    /// Shared memory per block in bytes (occupancy).
    pub shared_mem_per_block: u64,
    /// Which finite-field backend the kernel's arithmetic uses.
    pub backend: Backend,
    /// 64-bit limb count of the field elements (backend speedup keying).
    pub limbs: usize,
    /// The blocks. Order matters: waves are issued in order, so engines
    /// should sort heavy tasks first when modelling GZKP's heaviest-first
    /// scheduling (§4.2).
    pub blocks: Vec<BlockCost>,
}

impl KernelSpec {
    /// Convenience constructor for a uniform grid.
    pub fn uniform(
        name: impl Into<String>,
        threads_per_block: u32,
        shared_mem_per_block: u64,
        backend: Backend,
        limbs: usize,
        num_blocks: usize,
        per_block: BlockCost,
    ) -> Self {
        Self {
            name: name.into(),
            threads_per_block,
            shared_mem_per_block,
            backend,
            limbs,
            blocks: vec![per_block; num_blocks],
        }
    }
}

/// Simulated execution report for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Total simulated time in ns.
    pub time_ns: f64,
    /// Portion attributable to compute (MAC throughput).
    pub compute_ns: f64,
    /// Portion attributable to DRAM traffic.
    pub dram_ns: f64,
    /// Portion attributable to shared-memory traffic.
    pub shared_ns: f64,
    /// Launch + per-block scheduling overhead.
    pub overhead_ns: f64,
    /// Number of scheduling waves.
    pub waves: u32,
    /// Occupancy: blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Total 64-bit MAC equivalents across all blocks (telemetry: the
    /// field-multiplication work the kernel performed).
    pub mac_ops: f64,
    /// Total DRAM sectors moved across all blocks (telemetry).
    pub dram_sectors: u64,
}

/// Simulates one kernel on a device.
pub fn simulate_kernel(dev: &DeviceConfig, spec: &KernelSpec) -> KernelReport {
    let speedup = spec.backend.speedup(spec.limbs);
    let sm_thr = dev.mac64_per_ns_per_sm * speedup;

    // Occupancy.
    let by_shared = dev
        .shared_mem_per_sm
        .checked_div(spec.shared_mem_per_block)
        .map_or(dev.max_blocks_per_sm, |b| b.max(1) as u32);
    let by_threads =
        (dev.max_threads_per_block / spec.threads_per_block.max(1)).clamp(1, dev.max_blocks_per_sm);
    let blocks_per_sm = by_shared.min(by_threads).min(dev.max_blocks_per_sm).max(1);
    let wave_capacity = (dev.num_sms * blocks_per_sm) as usize;

    // An SM is saturated by its *resident* threads across all co-resident
    // blocks; too few (e.g. the 2-thread blocks of the baseline NTT's last
    // batch) derate throughput.
    let resident_threads = (blocks_per_sm * spec.threads_per_block) as f64;
    let thread_util = (resident_threads / dev.saturation_threads as f64).clamp(1.0 / 64.0, 1.0);
    // Throughput available to a single block (its share of its SM).
    let per_block_thr = sm_thr * thread_util / blocks_per_sm as f64;

    let mut compute_ns = 0.0;
    let mut dram_ns = 0.0;
    let mut shared_ns = 0.0;
    let mut total_ns = 0.0;
    let mut waves = 0u32;

    for wave in spec.blocks.chunks(wave_capacity) {
        waves += 1;
        let wave_macs: f64 = wave.iter().map(|b| b.mac_ops).sum();
        let wave_sectors: u64 = wave.iter().map(|b| b.dram_sectors).sum();
        let wave_shared: u64 = wave.iter().map(|b| b.shared_bytes).sum();
        let max_block_macs = wave.iter().map(|b| b.mac_ops).fold(0.0f64, f64::max);

        // Aggregate throughput bound vs straggler bound.
        let agg_compute = wave_macs / (sm_thr * dev.num_sms as f64 * thread_util);
        let straggler = max_block_macs / per_block_thr;
        let c = agg_compute.max(straggler);
        let d = (wave_sectors * dev.sector_bytes) as f64 / dev.dram_bytes_per_ns;
        let s = wave_shared as f64 / (dev.shared_bytes_per_ns * dev.num_sms as f64);
        compute_ns += c;
        dram_ns += d;
        shared_ns += s;
        total_ns += c.max(d).max(s);
    }

    // Scheduling: the GigaThread engine dispatches blocks across SMs.
    let overhead_ns =
        dev.kernel_launch_ns + spec.blocks.len() as f64 * dev.block_sched_ns / dev.num_sms as f64;

    KernelReport {
        name: spec.name.clone(),
        time_ns: total_ns + overhead_ns,
        compute_ns,
        dram_ns,
        shared_ns,
        overhead_ns,
        waves,
        blocks_per_sm,
        mac_ops: spec.blocks.iter().map(|b| b.mac_ops).sum(),
        dram_sectors: spec.blocks.iter().map(|b| b.dram_sectors).sum(),
    }
}

/// A sequence of kernels making up a pipeline stage (e.g. "POLY" or "MSM").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage label.
    pub name: String,
    /// Kernel-level reports, in execution order.
    pub kernels: Vec<KernelReport>,
}

impl StageReport {
    /// Creates an empty stage.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kernels: Vec::new(),
        }
    }

    /// Simulates and appends a kernel; returns its report time.
    pub fn run(&mut self, dev: &DeviceConfig, spec: &KernelSpec) -> f64 {
        let rep = simulate_kernel(dev, spec);
        let t = rep.time_ns;
        self.kernels.push(rep);
        t
    }

    /// Adds a fixed-cost item (e.g. a host-side step or a transfer).
    pub fn add_fixed(&mut self, name: impl Into<String>, time_ns: f64) {
        self.kernels.push(KernelReport {
            name: name.into(),
            time_ns,
            compute_ns: 0.0,
            dram_ns: 0.0,
            shared_ns: 0.0,
            overhead_ns: time_ns,
            waves: 0,
            blocks_per_sm: 0,
            mac_ops: 0.0,
            dram_sectors: 0,
        });
    }

    /// Total stage time in ns.
    pub fn total_ns(&self) -> f64 {
        self.kernels.iter().map(|k| k.time_ns).sum()
    }

    /// Total stage time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() / 1e6
    }
}

/// Models a multi-GPU execution (Table 4): per-card stage times run in
/// parallel; cross-card combination traffic is serialized on the
/// interconnect afterwards.
pub fn multi_gpu_time_ns(dev: &DeviceConfig, per_card_ns: &[f64], combine_bytes: u64) -> f64 {
    let slowest = per_card_ns.iter().copied().fold(0.0f64, f64::max);
    slowest + combine_bytes as f64 / dev.interconnect_bytes_per_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::v100;

    fn simple_kernel(blocks: usize, macs: f64) -> KernelSpec {
        KernelSpec::uniform(
            "test",
            256,
            0,
            Backend::Integer,
            4,
            blocks,
            BlockCost {
                mac_ops: macs,
                dram_sectors: 0,
                shared_bytes: 0,
            },
        )
    }

    #[test]
    fn more_work_takes_longer() {
        let dev = v100();
        let a = simulate_kernel(&dev, &simple_kernel(80, 1e6));
        let b = simulate_kernel(&dev, &simple_kernel(80, 2e6));
        assert!(b.time_ns > a.time_ns);
    }

    #[test]
    fn load_imbalance_hurts() {
        let dev = v100();
        // Same total work (8e7 MACs over 80 blocks); the skewed variant puts
        // half of it in a single straggler block.
        let balanced = simple_kernel(80, 1e6);
        let total: f64 = balanced.blocks.iter().map(|b| b.mac_ops).sum();
        let mut skewed = simple_kernel(80, (total / 2.0) / 79.0);
        skewed.blocks[0].mac_ops = total / 2.0;
        let total_s: f64 = skewed.blocks.iter().map(|b| b.mac_ops).sum();
        assert!((total - total_s).abs() / total < 1e-9);
        let rb = simulate_kernel(&dev, &balanced);
        let rs = simulate_kernel(&dev, &skewed);
        assert!(
            rs.time_ns > rb.time_ns * 2.0,
            "{} vs {}",
            rs.time_ns,
            rb.time_ns
        );
    }

    #[test]
    fn fp_backend_is_faster() {
        let dev = v100();
        let mut k = simple_kernel(160, 1e6);
        let int_t = simulate_kernel(&dev, &k).time_ns;
        k.backend = Backend::FpLib;
        let fp_t = simulate_kernel(&dev, &k).time_ns;
        assert!(fp_t < int_t);
    }

    #[test]
    fn memory_bound_kernel_limited_by_dram() {
        let dev = v100();
        let k = KernelSpec::uniform(
            "memcpy",
            256,
            0,
            Backend::Integer,
            4,
            80,
            BlockCost {
                mac_ops: 1.0,
                dram_sectors: 1 << 20,
                shared_bytes: 0,
            },
        );
        let r = simulate_kernel(&dev, &k);
        // 80 * 2^20 sectors * 32 B / 900 B/ns ≈ 2.98e6 ns
        assert!(r.dram_ns > r.compute_ns * 100.0);
        assert!((r.time_ns - r.overhead_ns - r.dram_ns).abs() / r.dram_ns < 1e-6);
    }

    #[test]
    fn tiny_blocks_pay_scheduling_overhead() {
        let dev = v100();
        // 65536 blocks of 2 threads (the bellperson last-batch pathology).
        let many_tiny = KernelSpec::uniform(
            "tiny",
            2,
            0,
            Backend::Integer,
            4,
            65536,
            BlockCost {
                mac_ops: 100.0,
                dram_sectors: 0,
                shared_bytes: 0,
            },
        );
        let few_big = KernelSpec::uniform(
            "big",
            256,
            0,
            Backend::Integer,
            4,
            512,
            BlockCost {
                mac_ops: 100.0 * 128.0,
                dram_sectors: 0,
                shared_bytes: 0,
            },
        );
        let rt = simulate_kernel(&dev, &many_tiny);
        let rb = simulate_kernel(&dev, &few_big);
        assert!(rt.time_ns > rb.time_ns, "{} vs {}", rt.time_ns, rb.time_ns);
    }

    #[test]
    fn occupancy_respects_shared_mem() {
        let dev = v100();
        let k = KernelSpec::uniform(
            "shared-heavy",
            128,
            24 * 1024, // only 2 blocks of 24 KB fit in 48 KB
            Backend::Integer,
            4,
            100,
            BlockCost {
                mac_ops: 1000.0,
                dram_sectors: 0,
                shared_bytes: 0,
            },
        );
        let r = simulate_kernel(&dev, &k);
        assert_eq!(r.blocks_per_sm, 2);
    }

    #[test]
    fn stage_accumulates() {
        let dev = v100();
        let mut stage = StageReport::new("POLY");
        stage.run(&dev, &simple_kernel(80, 1e6));
        stage.run(&dev, &simple_kernel(80, 1e6));
        stage.add_fixed("h2d-copy", 1000.0);
        assert_eq!(stage.kernels.len(), 3);
        assert!(stage.total_ns() > 1000.0);
    }

    #[test]
    fn multi_gpu_bounded_by_slowest_plus_transfer() {
        let dev = v100();
        let t = multi_gpu_time_ns(&dev, &[1e6, 2e6, 1.5e6, 0.5e6], 25_000_000);
        assert!((t - (2e6 + 1e6)).abs() < 1.0); // 25 MB / 25 B/ns = 1e6 ns
    }
}
