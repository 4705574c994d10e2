//! Host↔device transfer cost model (PCIe / NVLink class links).
//!
//! The kernel model in [`crate::kernel`] prices on-device DRAM traffic
//! only; every byte was assumed to already live in device memory. This
//! module adds the missing edge of the roofline: explicit H2D/D2H copy
//! costs with a fixed per-copy latency and a bandwidth that depends on
//! whether the host buffer is pinned (DMA-able as-is) or pageable (the
//! driver stages it through an internal pinned bounce buffer first).
//!
//! Calibration: PCIe 3.0 x16 sustains ~12 GB/s pinned and roughly half
//! that pageable; NVLink-attached V100s see ~25 GB/s to the host. Those
//! are exactly the `interconnect_bytes_per_ns` values the presets already
//! carry for the multi-GPU model, so the same field drives both.

use crate::device::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Effective-bandwidth factor of a pageable-host copy relative to pinned:
/// the driver memcpy through its bounce buffer roughly halves throughput.
pub(crate) const PAGEABLE_BW_FACTOR: f64 = 0.45;

/// Where the host side of a copy lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostMem {
    /// Page-locked host memory: the DMA engine reads it directly.
    Pinned,
    /// Ordinary pageable memory: staged through a driver bounce buffer.
    Pageable,
}

impl HostMem {
    /// Bandwidth factor relative to the link's pinned-copy rate.
    pub(crate) fn bandwidth_factor(self) -> f64 {
        match self {
            HostMem::Pinned => 1.0,
            HostMem::Pageable => PAGEABLE_BW_FACTOR,
        }
    }
}

/// Effective copy bandwidth in bytes/ns for `dev`'s link and host memory
/// kind.
pub(crate) fn transfer_bandwidth(dev: &DeviceConfig, mem: HostMem) -> f64 {
    dev.interconnect_bytes_per_ns * mem.bandwidth_factor()
}

/// Simulated time to move `bytes` across `dev`'s interconnect:
/// fixed submission/DMA-setup latency plus bytes over effective bandwidth.
pub fn transfer_time_ns(dev: &DeviceConfig, bytes: u64, mem: HostMem) -> f64 {
    dev.interconnect_latency_ns + bytes as f64 / transfer_bandwidth(dev, mem)
}

/// Minimum `interconnect_bytes_per_ns` at which an endpoint is considered
/// NVLink-attached. V100 presets carry 25 B/ns (NVLink), GTX 1080 Ti 12
/// B/ns (PCIe 3.0 x16): the classification splits exactly between them.
pub(crate) const NVLINK_MIN_BW: f64 = 20.0;

/// Submission latency of a direct NVLink P2P copy. Far below the PCIe
/// host-copy latency: no host round-trip, no driver bounce buffer — just
/// a cudaMemcpyPeer enqueue over the fabric.
pub(crate) const NVLINK_P2P_LATENCY_NS: f64 = 2_000.0;

/// How a device-to-device copy is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Both endpoints sit on the NVLink fabric: direct peer copy.
    NvlinkP2p,
    /// At least one endpoint is PCIe-only: staged through pinned host
    /// memory (D2H on the source, then H2D on the destination).
    HostStaged,
}

/// Classify the link between two devices: NVLink P2P only when *both*
/// endpoints are NVLink-attached, else the copy must bounce via the host.
pub fn link_kind(src: &DeviceConfig, dst: &DeviceConfig) -> LinkKind {
    if src.interconnect_bytes_per_ns >= NVLINK_MIN_BW
        && dst.interconnect_bytes_per_ns >= NVLINK_MIN_BW
    {
        LinkKind::NvlinkP2p
    } else {
        LinkKind::HostStaged
    }
}

/// Simulated time to move `bytes` from `src`'s memory to `dst`'s memory.
///
/// NVLink P2P pays one small submission latency and streams at the
/// slower endpoint's link rate; the host-staged fallback pays the full
/// D2H + H2D round-trip through a pinned bounce buffer.
pub fn d2d_time_ns(src: &DeviceConfig, dst: &DeviceConfig, bytes: u64) -> f64 {
    match link_kind(src, dst) {
        LinkKind::NvlinkP2p => {
            let bw = src
                .interconnect_bytes_per_ns
                .min(dst.interconnect_bytes_per_ns);
            NVLINK_P2P_LATENCY_NS + bytes as f64 / bw
        }
        LinkKind::HostStaged => {
            transfer_time_ns(src, bytes, HostMem::Pinned)
                + transfer_time_ns(dst, bytes, HostMem::Pinned)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{gtx1080ti, v100};

    #[test]
    fn latency_dominates_small_copies() {
        let dev = v100();
        let t = transfer_time_ns(&dev, 64, HostMem::Pinned);
        assert!(t < dev.interconnect_latency_ns * 1.01);
        assert!(t >= dev.interconnect_latency_ns);
    }

    #[test]
    fn bandwidth_dominates_large_copies() {
        let dev = v100();
        let bytes = 1u64 << 30;
        let t = transfer_time_ns(&dev, bytes, HostMem::Pinned);
        let ideal = bytes as f64 / dev.interconnect_bytes_per_ns;
        assert!(t / ideal < 1.001); // latency is noise at 1 GiB
    }

    #[test]
    fn pageable_slower_than_pinned() {
        let dev = gtx1080ti();
        let bytes = 256u64 << 20;
        let pinned = transfer_time_ns(&dev, bytes, HostMem::Pinned);
        let pageable = transfer_time_ns(&dev, bytes, HostMem::Pageable);
        assert!(pageable > pinned * 1.8);
    }

    #[test]
    fn faster_link_is_faster() {
        let bytes = 1u64 << 28;
        let tv = transfer_time_ns(&v100(), bytes, HostMem::Pinned);
        let tg = transfer_time_ns(&gtx1080ti(), bytes, HostMem::Pinned);
        assert!(tv < tg);
    }

    #[test]
    fn v100_pair_classifies_as_nvlink() {
        assert_eq!(link_kind(&v100(), &v100()), LinkKind::NvlinkP2p);
        assert_eq!(link_kind(&v100(), &gtx1080ti()), LinkKind::HostStaged);
        assert_eq!(link_kind(&gtx1080ti(), &gtx1080ti()), LinkKind::HostStaged);
    }

    #[test]
    fn nvlink_p2p_beats_host_staging() {
        // A direct peer copy between V100s must be much cheaper than
        // bouncing the same bytes through host memory.
        let bytes = 64u64 << 20;
        let direct = d2d_time_ns(&v100(), &v100(), bytes);
        let staged = transfer_time_ns(&v100(), bytes, HostMem::Pinned)
            + transfer_time_ns(&v100(), bytes, HostMem::Pinned);
        assert!(direct < staged * 0.6);
    }

    #[test]
    fn pcie_pair_pays_host_round_trip() {
        let bytes = 16u64 << 20;
        let t = d2d_time_ns(&gtx1080ti(), &gtx1080ti(), bytes);
        let staged = 2.0 * transfer_time_ns(&gtx1080ti(), bytes, HostMem::Pinned);
        assert!((t - staged).abs() < 1e-6);
    }

    #[test]
    fn tiny_p2p_copy_is_latency_bound() {
        let t = d2d_time_ns(&v100(), &v100(), 256);
        assert!(t < NVLINK_P2P_LATENCY_NS * 1.01);
        assert!(t >= NVLINK_P2P_LATENCY_NS);
    }
}
