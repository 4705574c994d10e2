//! # gzkp-gpu-sim — deterministic GPU cost-model simulator
//!
//! The GZKP paper's results are wall-clock times of CUDA kernels on V100 /
//! GTX 1080 Ti hardware that this environment does not have. Per the
//! substitution documented in `DESIGN.md`, the NTT and MSM engines in this
//! workspace run their *functional* computation in plain Rust (bit-exact,
//! cross-validated) and describe their *execution structure* — grids,
//! blocks, per-block operation counts, global-memory traffic, shared-memory
//! traffic — to this crate, which converts it into simulated time.
//!
//! What is modelled (and why it is enough for the paper's comparisons):
//!
//! * **Wave scheduling with straggler effects** — load imbalance (§4.2) and
//!   tiny-block scheduling overhead (Fig. 8) fall out of `max()` over
//!   blocks in a wave and per-block dispatch cost.
//! * **DRAM sector traffic with warp coalescing** — the shuffle-vs-
//!   shuffle-less NTT comparison (§3) is a traffic ratio; see [`memory`].
//! * **Occupancy** — shared-memory- and thread-limited blocks per SM.
//! * **Arithmetic throughput by limb count and backend** — the integer vs
//!   floating-point (Dekker) finite-field library ablation (§4.3) is a
//!   throughput ratio; see [`device::Backend`].
//! * **Device memory capacity** — Straus/MINA's OOM at 2²² (Table 7) and
//!   the Fig. 9 memory curves check against
//!   [`device::DeviceConfig::global_mem_bytes`].
//!
//! ## Example
//!
//! ```
//! use gzkp_gpu_sim::device::{v100, Backend};
//! use gzkp_gpu_sim::kernel::{simulate_kernel, BlockCost, KernelSpec};
//!
//! let dev = v100();
//! let spec = KernelSpec::uniform(
//!     "demo", 256, 0, Backend::Integer, 4, 160,
//!     BlockCost { mac_ops: 1e6, dram_sectors: 4096, shared_bytes: 0 },
//! );
//! let report = simulate_kernel(&dev, &spec);
//! assert!(report.time_ns > 0.0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod report;
pub mod stream;
pub mod transfer;

pub use device::{cpu_xeon, gtx1080ti, v100, Backend, DeviceConfig};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultSummary};
pub use kernel::{
    multi_gpu_time_ns, simulate_kernel, BlockCost, KernelReport, KernelSpec, StageReport,
};
pub use report::{render_stage, utilization, Utilization};
pub use stream::{DeviceTimeline, EngineKind, Event, StreamId, StreamOp};
pub use transfer::{d2d_time_ns, link_kind, transfer_time_ns, HostMem, LinkKind};
