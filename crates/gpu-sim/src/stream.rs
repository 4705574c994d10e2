//! Per-device command streams with events: copy/compute overlap in
//! simulated time.
//!
//! A real GPU exposes (at least) three engines that run concurrently — an
//! H2D copy engine, the SMs, and a D2H copy engine — and CUDA streams
//! order work *within* a stream while letting different streams' work
//! overlap across engines. This module is the deterministic cost-model
//! analogue: a [`DeviceTimeline`] keeps a busy-until cursor per engine and
//! per stream, and each issued operation starts at
//! `max(stream cursor, engine free, awaited events)`.
//!
//! The double-buffered upload pipeline the runtime builds on top of this
//! is the classic CUDA producer/consumer shape: issue copy `i+1` on the
//! copy stream while kernel `i` runs on the compute stream, with an event
//! making kernel `i+1` wait for its data. In the model, exactly as on
//! hardware, the exposed transfer time collapses to whatever compute
//! cannot hide.

use crate::device::DeviceConfig;
use crate::kernel::{simulate_kernel, KernelReport, KernelSpec};
use crate::transfer::{transfer_time_ns, HostMem};
use serde::{Deserialize, Serialize};

/// The concurrent hardware engines of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// Host-to-device DMA engine.
    H2d,
    /// The SMs (kernel execution).
    Compute,
    /// Device-to-host DMA engine.
    D2h,
    /// Device-to-device copy engine (NVLink P2P or host-staged fallback).
    P2p,
}

impl EngineKind {
    /// Stable span/lane label: `"h2d"`, `"kernel"`, `"d2h"`, `"p2p"`.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::H2d => "h2d",
            EngineKind::Compute => "kernel",
            EngineKind::D2h => "d2h",
            EngineKind::P2p => "p2p",
        }
    }

    fn index(self) -> usize {
        match self {
            EngineKind::H2d => 0,
            EngineKind::Compute => 1,
            EngineKind::D2h => 2,
            EngineKind::P2p => 3,
        }
    }
}

/// Handle to a command stream on a [`DeviceTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// Completion marker of an issued operation; waiting on it from another
/// stream orders that stream after the operation (cudaEvent semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    at_ns: f64,
}

impl Event {
    /// Simulated completion time of the recorded operation.
    pub fn at_ns(self) -> f64 {
        self.at_ns
    }

    /// Event completing at an externally computed time. Used to order one
    /// device's streams after another device's work (cross-device P2P):
    /// the destination timeline waits on an event carrying the source
    /// timeline's completion time.
    pub fn at(at_ns: f64) -> Self {
        Event { at_ns }
    }
}

/// One scheduled operation on a device engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamOp {
    /// Operation label (kernel or copy name).
    pub name: String,
    /// Engine the operation ran on.
    pub engine: EngineKind,
    /// Issuing stream index.
    pub stream: usize,
    /// Simulated start time.
    pub start_ns: f64,
    /// Simulated end time.
    pub end_ns: f64,
    /// Bytes moved (copies) or 0 (kernels).
    pub bytes: u64,
}

/// How many of its newest operations a timeline keeps for [`DeviceTimeline::ops`].
const OPS_KEPT: usize = 4096;

/// Deterministic per-device schedule of copies and kernels.
///
/// Operations issued on the same stream serialize; operations on different
/// streams overlap unless they contend for the same engine or are ordered
/// by an explicit [`Event`] wait. The makespan and engine busy times are
/// running totals over every issued operation; the operation log itself
/// keeps only the newest 4096, so a long-lived timeline stays bounded.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    device: DeviceConfig,
    engine_free: [f64; 4],
    /// Per-engine sum of op durations, accumulated in issue order.
    engine_busy: [f64; 4],
    streams: Vec<f64>,
    /// The op log: its last [`OPS_KEPT`] entries are the visible ones;
    /// older entries are dropped in halves once it holds twice that.
    ops: Vec<StreamOp>,
    h2d_bytes: u64,
    d2h_bytes: u64,
    p2p_bytes: u64,
}

impl DeviceTimeline {
    /// Empty timeline for `device` with no streams yet.
    pub fn new(device: DeviceConfig) -> Self {
        DeviceTimeline {
            device,
            engine_free: [0.0; 4],
            // An empty float sum is -0.0; starting there keeps an idle
            // engine's busy time the value a sum over its ops gives.
            engine_busy: [-0.0; 4],
            streams: Vec::new(),
            ops: Vec::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            p2p_bytes: 0,
        }
    }

    /// The device this timeline schedules onto.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Create a new command stream (its cursor starts at time 0).
    pub fn stream(&mut self) -> StreamId {
        self.streams.push(0.0);
        StreamId(self.streams.len() - 1)
    }

    fn issue(
        &mut self,
        stream: StreamId,
        engine: EngineKind,
        name: &str,
        duration_ns: f64,
        bytes: u64,
    ) -> Event {
        let e = engine.index();
        let start = self.streams[stream.0].max(self.engine_free[e]);
        let end = start + duration_ns;
        self.streams[stream.0] = end;
        self.engine_free[e] = end;
        self.engine_busy[e] += end - start;
        if self.ops.len() == 2 * OPS_KEPT {
            self.ops.drain(..OPS_KEPT);
        }
        self.ops.push(StreamOp {
            name: name.to_string(),
            engine,
            stream: stream.0,
            start_ns: start,
            end_ns: end,
            bytes,
        });
        Event { at_ns: end }
    }

    /// Block `stream` until `event` has completed (cudaStreamWaitEvent).
    pub fn wait(&mut self, stream: StreamId, event: Event) {
        self.streams[stream.0] = self.streams[stream.0].max(event.at_ns);
    }

    /// Enqueue a host-to-device copy of `bytes` from `mem` host memory.
    pub fn h2d(&mut self, stream: StreamId, name: &str, bytes: u64, mem: HostMem) -> Event {
        let t = transfer_time_ns(&self.device, bytes, mem);
        self.h2d_bytes += bytes;
        self.issue(stream, EngineKind::H2d, name, t, bytes)
    }

    /// Enqueue a device-to-host copy of `bytes` into `mem` host memory.
    pub fn d2h(&mut self, stream: StreamId, name: &str, bytes: u64, mem: HostMem) -> Event {
        let t = transfer_time_ns(&self.device, bytes, mem);
        self.d2h_bytes += bytes;
        self.issue(stream, EngineKind::D2h, name, t, bytes)
    }

    /// Enqueue a device-to-device copy of `bytes` with a pre-computed
    /// duration (priced by [`crate::transfer::d2d_time_ns`], which knows
    /// both link ends; the timeline only knows its own device).
    pub fn d2d(&mut self, stream: StreamId, name: &str, bytes: u64, duration_ns: f64) -> Event {
        self.p2p_bytes += bytes;
        self.issue(stream, EngineKind::P2p, name, duration_ns, bytes)
    }

    /// Enqueue a kernel with a pre-computed duration (e.g. a
    /// [`crate::kernel::StageReport`] total).
    pub fn kernel_ns(&mut self, stream: StreamId, name: &str, duration_ns: f64) -> Event {
        self.issue(stream, EngineKind::Compute, name, duration_ns, 0)
    }

    /// Enqueue a kernel priced through [`simulate_kernel`].
    pub fn kernel(&mut self, stream: StreamId, spec: &KernelSpec) -> (Event, KernelReport) {
        let report = simulate_kernel(&self.device, spec);
        let ev = self.issue(stream, EngineKind::Compute, &spec.name, report.time_ns, 0);
        (ev, report)
    }

    /// Makespan: completion time of the last scheduled operation (an
    /// engine's cursor is the end of its latest op, and ops on one engine
    /// never end earlier than the one before).
    pub fn elapsed_ns(&self) -> f64 {
        self.engine_free.iter().fold(0.0, |m, &end| m.max(end))
    }

    /// Total busy time of one engine (sum of its op durations).
    pub fn busy_ns(&self, engine: EngineKind) -> f64 {
        self.engine_busy[engine.index()]
    }

    /// The newest scheduled operations (at most 4096), in issue order.
    pub fn ops(&self) -> &[StreamOp] {
        &self.ops[self.ops.len().saturating_sub(OPS_KEPT)..]
    }

    /// Total bytes uploaded.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes
    }

    /// Total bytes downloaded.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes
    }

    /// Total bytes moved device-to-device.
    pub fn p2p_bytes(&self) -> u64 {
        self.p2p_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::v100;

    #[test]
    fn same_stream_serializes() {
        let mut tl = DeviceTimeline::new(v100());
        let s = tl.stream();
        tl.h2d(s, "up", 1 << 20, HostMem::Pinned);
        tl.kernel_ns(s, "k", 50_000.0);
        let copy_t = transfer_time_ns(tl.device(), 1 << 20, HostMem::Pinned);
        assert!((tl.elapsed_ns() - (copy_t + 50_000.0)).abs() < 1e-6);
    }

    #[test]
    fn copies_overlap_compute_across_streams() {
        // Kernel on stream A while stream B uploads: engines are
        // independent, so the makespan is the max, not the sum.
        let mut tl = DeviceTimeline::new(v100());
        let a = tl.stream();
        let b = tl.stream();
        tl.kernel_ns(a, "k", 200_000.0);
        tl.h2d(b, "up", 1 << 20, HostMem::Pinned);
        let copy_t = transfer_time_ns(tl.device(), 1 << 20, HostMem::Pinned);
        assert!(copy_t < 200_000.0);
        assert!((tl.elapsed_ns() - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn same_engine_contends_across_streams() {
        let mut tl = DeviceTimeline::new(v100());
        let a = tl.stream();
        let b = tl.stream();
        tl.h2d(a, "up0", 1 << 20, HostMem::Pinned);
        tl.h2d(b, "up1", 1 << 20, HostMem::Pinned);
        let copy_t = transfer_time_ns(tl.device(), 1 << 20, HostMem::Pinned);
        assert!((tl.elapsed_ns() - 2.0 * copy_t).abs() < 1e-6);
    }

    #[test]
    fn event_wait_orders_streams() {
        let mut tl = DeviceTimeline::new(v100());
        let copy = tl.stream();
        let exec = tl.stream();
        let ev = tl.h2d(copy, "up", 1 << 24, HostMem::Pinned);
        tl.wait(exec, ev);
        tl.kernel_ns(exec, "k", 10_000.0);
        assert!((tl.elapsed_ns() - (ev.at_ns() + 10_000.0)).abs() < 1e-6);
    }

    #[test]
    fn double_buffered_pipeline_hides_uploads() {
        // Upload i+1 under kernel i; only the first upload is exposed when
        // compute is longer than the copy.
        let mut tl = DeviceTimeline::new(v100());
        let copy = tl.stream();
        let exec = tl.stream();
        let bytes = 1u64 << 20;
        let copy_t = transfer_time_ns(tl.device(), bytes, HostMem::Pinned);
        let kernel_t = copy_t * 3.0;
        let n = 8;
        for i in 0..n {
            let ev = tl.h2d(copy, &format!("up{i}"), bytes, HostMem::Pinned);
            tl.wait(exec, ev);
            tl.kernel_ns(exec, &format!("k{i}"), kernel_t);
        }
        let pipelined = tl.elapsed_ns();
        let serial = (copy_t + kernel_t) * n as f64;
        assert!((pipelined - (copy_t + kernel_t * n as f64)).abs() < 1e-3);
        assert!(pipelined < serial * 0.8);
        assert_eq!(tl.h2d_bytes(), bytes * n as u64);
        assert!(tl.busy_ns(EngineKind::Compute) > tl.busy_ns(EngineKind::H2d));
    }

    #[test]
    fn d2d_runs_on_its_own_engine() {
        // A D2D merge copy must not contend with the H2D upload engine:
        // NVLink P2P has its own port on real hardware.
        let mut tl = DeviceTimeline::new(v100());
        let a = tl.stream();
        let b = tl.stream();
        tl.h2d(a, "up", 1 << 20, HostMem::Pinned);
        tl.d2d(b, "merge", 1 << 20, 30_000.0);
        let copy_t = transfer_time_ns(tl.device(), 1 << 20, HostMem::Pinned);
        assert!((tl.elapsed_ns() - copy_t.max(30_000.0)).abs() < 1e-6);
        assert_eq!(tl.p2p_bytes(), 1 << 20);
        assert_eq!(tl.h2d_bytes(), 1 << 20);
    }

    #[test]
    fn external_event_orders_cross_device_work() {
        // Device B's merge kernel waits on an event carrying device A's
        // completion time — the cross-device ordering primitive.
        let mut a = DeviceTimeline::new(v100());
        let sa = a.stream();
        let done_a = a.kernel_ns(sa, "partial", 500_000.0);

        let mut b = DeviceTimeline::new(v100());
        let sb = b.stream();
        b.wait(sb, Event::at(done_a.at_ns()));
        b.d2d(sb, "recv", 4096, 12_000.0);
        b.kernel_ns(sb, "merge", 8_000.0);
        assert!((b.elapsed_ns() - (500_000.0 + 12_000.0 + 8_000.0)).abs() < 1e-6);
    }

    #[test]
    fn ops_record_lanes() {
        let mut tl = DeviceTimeline::new(v100());
        let s = tl.stream();
        tl.h2d(s, "up", 4096, HostMem::Pageable);
        tl.kernel_ns(s, "k", 1.0);
        tl.d2h(s, "down", 128, HostMem::Pinned);
        let labels: Vec<&str> = tl.ops().iter().map(|o| o.engine.label()).collect();
        assert_eq!(labels, ["h2d", "kernel", "d2h"]);
        assert_eq!(tl.d2h_bytes(), 128);
    }
}
