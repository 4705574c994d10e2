//! Device configurations and arithmetic cost tables.
//!
//! The two presets mirror the paper's evaluation hardware (§5.1): NVIDIA
//! Tesla V100 (32 GB) and GTX 1080 Ti (11 GB). Absolute constants are
//! calibrated so simulated times land in the magnitude range the paper
//! reports; all *comparisons* (GZKP vs baselines) emerge from operation
//! counts, traffic, occupancy and load balance — not from per-engine fudge
//! factors.

use serde::{Deserialize, Serialize};

/// Which finite-field multiplier backend a kernel uses (paper §4.3).
///
/// `FpLib` is GZKP's optimized library that additionally drives the
/// floating-point pipes with Dekker error-free transforms (implemented and
/// property-tested by `gzkp-ff`'s test-only `dfp` module); it raises
/// effective multiply throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Plain integer CIOS multiplication (what bellperson/MINA ship).
    Integer,
    /// GZKP's optimized library using idle FP units (the "w. lib" ablation).
    FpLib,
}

impl Backend {
    /// Multiplier-throughput factor relative to the integer path, by 64-bit
    /// limb count: the one table of the §4.3 multiplier's gain. The FP path
    /// issues `ceil(64m/52)²` FMA pairs against the integer path's
    /// `m² + m(m+1)` 64×64 MULs, and on Volta-class parts the FP pipes add
    /// throughput the integer units lack, ≈ 1.3–1.6× at ZKP widths.
    pub fn speedup(&self, limbs: usize) -> f64 {
        match self {
            Backend::Integer => 1.0,
            Backend::FpLib => match limbs {
                0..=4 => 1.35,
                5..=6 => 1.45,
                _ => 1.6,
            },
        }
    }
}

/// Static description of a simulated GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing name, e.g. `"V100"`.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// DRAM bandwidth in bytes per nanosecond (== GB/s).
    pub dram_bytes_per_ns: f64,
    /// Total global memory in bytes (Fig. 9 / Table 7 OOM behaviour).
    pub global_mem_bytes: u64,
    /// L2 cache size in bytes.
    pub l2_bytes: u64,
    /// L2 sector (minimum DRAM transaction) size in bytes — 32 B on Volta.
    pub sector_bytes: u64,
    /// Usable shared memory per SM in bytes.
    pub shared_mem_per_sm: u64,
    /// Number of shared-memory banks (32 on all modern parts).
    pub shared_banks: u32,
    /// Shared-memory bandwidth per SM, bytes/ns (conflict-free).
    pub shared_bytes_per_ns: f64,
    /// Threads per warp.
    pub warp_size: u32,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 64-bit multiply-accumulate throughput per SM, ops per nanosecond
    /// (integer pipeline).
    pub mac64_per_ns_per_sm: f64,
    /// Threads needed per block to saturate an SM's pipelines (below this,
    /// throughput scales down — the idle-warp pathology of Fig. 8).
    pub saturation_threads: u32,
    /// Fixed kernel launch overhead in ns.
    pub kernel_launch_ns: f64,
    /// Per-block hardware scheduling overhead in ns (paid once per block,
    /// pipelined across SMs).
    pub block_sched_ns: f64,
    /// Host↔device / device↔device copy bandwidth, bytes per ns (PCIe/NVLink
    /// class; used by the multi-GPU model of Table 4).
    pub interconnect_bytes_per_ns: f64,
    /// Fixed per-copy latency on the interconnect in ns: driver submission,
    /// DMA descriptor setup and link round-trip. Dominates small copies;
    /// amortized away by the MB-scale transfers the provers issue.
    pub interconnect_latency_ns: f64,
}

/// NVIDIA Tesla V100 (SXM2 32 GB) preset.
pub fn v100() -> DeviceConfig {
    DeviceConfig {
        name: "V100",
        num_sms: 80,
        dram_bytes_per_ns: 900.0,
        global_mem_bytes: 32 * (1 << 30),
        l2_bytes: 6 * (1 << 20),
        sector_bytes: 32,
        shared_mem_per_sm: 48 * 1024,
        shared_banks: 32,
        shared_bytes_per_ns: 128.0,
        warp_size: 32,
        max_threads_per_block: 1024,
        max_blocks_per_sm: 16,
        // 1.38 GHz, 64 INT32 lanes; a 64-bit MAC costs ~4 INT32 ops, and
        // real kernels reach roughly half of peak: 1.38*64/4*0.45 ≈ 10.
        mac64_per_ns_per_sm: 10.0,
        saturation_threads: 256,
        kernel_launch_ns: 5_000.0,
        block_sched_ns: 250.0,
        interconnect_bytes_per_ns: 25.0,
        interconnect_latency_ns: 10_000.0,
    }
}

/// NVIDIA GTX 1080 Ti preset.
pub fn gtx1080ti() -> DeviceConfig {
    DeviceConfig {
        name: "GTX1080Ti",
        num_sms: 28,
        dram_bytes_per_ns: 484.0,
        global_mem_bytes: 11 * (1 << 30),
        l2_bytes: 2816 * 1024,
        sector_bytes: 32,
        shared_mem_per_sm: 48 * 1024,
        shared_banks: 32,
        shared_bytes_per_ns: 96.0,
        warp_size: 32,
        max_threads_per_block: 1024,
        max_blocks_per_sm: 16,
        // 1.58 GHz, 128 FP32/INT lanes but much weaker 64-bit integer path
        // than Volta; Pascal lacks independent INT units.
        mac64_per_ns_per_sm: 7.0,
        saturation_threads: 256,
        kernel_launch_ns: 6_000.0,
        block_sched_ns: 300.0,
        interconnect_bytes_per_ns: 12.0,
        interconnect_latency_ns: 11_000.0,
    }
}

/// The paper's CPU baseline host (§5.1): dual Xeon Gold 5117, 28 physical
/// cores, 2.0 GHz. Modelled through the same scheduler so CPU-vs-GPU
/// comparisons live in one consistent simulated world; each "SM" is a core.
///
/// Calibration anchor: the paper's intro quotes 230 ns per 381-bit modular
/// multiplication on a mainstream server — `field_mul_macs(6) ≈ 90` MACs /
/// 230 ns ≈ 0.4 MAC/ns per core.
pub fn cpu_xeon() -> DeviceConfig {
    DeviceConfig {
        name: "2xXeon5117",
        num_sms: 28,
        dram_bytes_per_ns: 100.0,
        global_mem_bytes: 256 * (1 << 30),
        l2_bytes: 38 * (1 << 20), // L3, effectively
        sector_bytes: 64,
        shared_mem_per_sm: 1 << 20, // L2-per-core stands in; never binding
        shared_banks: 1,
        shared_bytes_per_ns: 1000.0,
        warp_size: 1,
        max_threads_per_block: 1,
        max_blocks_per_sm: 1,
        mac64_per_ns_per_sm: 0.4,
        saturation_threads: 1,
        kernel_launch_ns: 2_000.0, // thread-pool dispatch
        block_sched_ns: 100.0,
        interconnect_bytes_per_ns: 10.0,
        interconnect_latency_ns: 1_000.0,
    }
}

/// Cost of one Montgomery multiplication of `m`-limb values, in 64-bit
/// MAC-equivalents (CIOS: `2m² + m` MACs plus bookkeeping).
pub fn field_mul_macs(m: usize) -> f64 {
    (2 * m * m + m) as f64 * 1.15 // +15% carry/branch bookkeeping
}

/// Cost of one field addition/subtraction in MAC-equivalents.
pub fn field_add_macs(m: usize) -> f64 {
    m as f64 * 0.35
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sane() {
        let v = v100();
        let g = gtx1080ti();
        assert!(v.num_sms > g.num_sms);
        assert!(v.dram_bytes_per_ns > g.dram_bytes_per_ns);
        assert!(v.global_mem_bytes > g.global_mem_bytes);
        assert_eq!(v.sector_bytes, 32);
    }

    #[test]
    fn cost_tables_monotone() {
        assert!(field_mul_macs(12) > field_mul_macs(6));
        assert!(field_mul_macs(6) > field_mul_macs(4));
    }

    #[test]
    fn backend_speedup_bounds() {
        for m in [4usize, 6, 12] {
            let s = Backend::FpLib.speedup(m);
            assert!(s > 1.0 && s < 2.0);
            assert_eq!(Backend::Integer.speedup(m), 1.0);
        }
    }

    #[test]
    fn speedup_monotone_in_width() {
        let fp = Backend::FpLib;
        assert!(fp.speedup(12) >= fp.speedup(6));
        assert!(fp.speedup(6) >= fp.speedup(4));
    }

    #[test]
    fn mul_cost_matches_cios_structure() {
        // 4-limb CIOS: 2*16+4 = 36 MACs before bookkeeping.
        assert!((field_mul_macs(4) - 36.0 * 1.15).abs() < 1e-9);
    }
}
