//! The single registry of telemetry name strings: span names, counter and
//! gauge names, histogram/metric names, and device-lane labels.
//!
//! Every emit site in the workspace references these constants instead of
//! repeating string literals, so a typo'd name is a compile error rather
//! than a silently-empty `zkprof diff` column or a metrics series nobody
//! scrapes. `zkprof`, SLO evaluation and the dashboards consume the
//! same constants, which is what keeps producer and consumer agreeing on
//! the wire names.
//!
//! Naming convention: dot-separated lowercase (`service.queue_wait_ns`);
//! the Prometheus exposition rewrites dots to underscores and prefixes
//! `gzkp_`. Duration-valued series end in `_ns` (simulated or wall-clock
//! nanoseconds; the doc comment says which).

// -- span names (trace tree) ------------------------------------------------

/// Root span of one proof, any backend (per-backend series carry the
/// `system=` label instead of renaming the span).
pub const SPAN_PROVE: &str = "prove";
/// Polynomial stage (NTTs + coefficient work) of a proof.
pub const SPAN_POLY: &str = "poly";
/// Multi-scalar-multiplication stage of a proof.
pub const SPAN_MSM: &str = "msm";
/// Per-job service envelope span (`service → queue_wait/execute`).
pub const SPAN_SERVICE: &str = "service";
/// Wall-clock span a job spent queued before first schedule.
pub const SPAN_QUEUE_WAIT: &str = "queue_wait";
/// Span covering a job's on-worker execution.
pub const SPAN_EXECUTE: &str = "execute";
/// Span recorded for each fault-recovery re-execution.
pub const SPAN_RETRY: &str = "retry";
/// Root span of a fleet trace (`runtime → dev{n} → lanes`).
pub const SPAN_RUNTIME: &str = "runtime";
/// Device-health event lane in a fleet trace (fault/quarantine markers).
pub const SPAN_HEALTH: &str = "health";

// -- per-backend stage names ------------------------------------------------
//
// The MSM stage's child spans are backend-specific: each prover names its
// steps from its own list, so a PLONK trace is never mislabeled with
// Groth16 query names (and vice versa).

/// `system=` label value for Groth16 series.
pub const SYSTEM_GROTH16: &str = "groth16";
/// `system=` label value for PLONK series.
pub const SYSTEM_PLONK: &str = "plonk";
/// Label key of per-proof-system series.
pub const LABEL_SYSTEM: &str = "system";

/// Child spans of the Groth16 `msm` span, in execution order: the five
/// query MSMs.
pub const GROTH16_MSM_STAGES: [&str; 5] = ["a", "b_g1", "h", "l", "b_g2"];
/// Child spans of the PLONK `msm` span, in execution order: the KZG
/// commitments of the three wire polynomials, the permutation
/// accumulator, the three quotient chunks, and the two opening proofs.
pub const PLONK_MSM_STAGES: [&str; 9] = [
    "wires_a", "wires_b", "wires_c", "perm_z", "t_lo", "t_mid", "t_hi", "open_z", "open_zw",
];

// -- device-lane names ------------------------------------------------------
//
// These mirror `gzkp_gpu_sim::EngineKind::label()` for the lanes the
// timeline draws with a glyph of their own (the compute lane takes the
// default); a telemetry unit test asserts they stay equal (gpu-sim sits
// below this crate and cannot reference it).

/// Host→device copy-engine lane.
pub(crate) const LANE_H2D: &str = "h2d";
/// Device→host copy-engine lane.
pub(crate) const LANE_D2H: &str = "d2h";
/// Device→device copy-engine lane (NVLink P2P or host-staged merges).
pub(crate) const LANE_P2P: &str = "p2p";

// -- engine counters --------------------------------------------------------

/// 64-bit multiply-accumulate equivalents (the simulator's compute
/// unit; field multiplications dominate it).
pub const MAC_OPS: &str = "mac_ops";
/// DRAM sectors moved.
pub const DRAM_SECTORS: &str = "dram_sectors";
/// Field multiplications of the NTT butterflies as the device model
/// prices them: one per butterfly, `log N · N/2` per transform (what the
/// simulated engines' `batch_macs` charges). A modelled count, not the
/// host's: the host transform skips its `ω⁰` multiplications.
pub const NTT_FIELD_MULS: &str = "ntt.field_muls";
/// Point additions in the MSM (mixed + full).
pub const MSM_PADD: &str = "msm.padd";
/// Point doublings in the MSM (on-the-fly checkpoint weights).
pub const MSM_PDBL: &str = "msm.pdbl";
/// Peak simulated device memory, bytes (a gauge, kept as max).
pub const PEAK_DEVICE_BYTES: &str = "device.peak_bytes";
/// Non-empty buckets in the MSM's consolidated bucket space.
pub const MSM_OCCUPIED_BUCKETS: &str = "msm.occupied_buckets";
/// Field inversions performed by the batch-affine accumulator (one
/// per Montgomery-batched reduction round).
pub const MSM_BATCH_INVERSIONS: &str = "msm.batch_inversions";
/// Field inversions amortized away by Montgomery batching: affine
/// PADDs that shared a batched inversion instead of paying their own.
pub const MSM_BATCH_INV_SAVED: &str = "msm.batch_inv_saved";

// -- proving-service counters -----------------------------------------------

/// Jobs the proving service accepted into its queue.
pub const SERVICE_ACCEPTED: &str = "service.accepted";
/// Jobs the proving service rejected at submit (queue full).
pub const SERVICE_REJECTED: &str = "service.rejected";
/// Jobs that ran to completion through the proving service.
pub const SERVICE_COMPLETED: &str = "service.completed";
/// Jobs completed per proof system (counter, labeled
/// `system=groth16|plonk`).
pub const SERVICE_COMPLETED_BY_SYSTEM: &str = "service.completed_by_system";
/// Jobs dropped because their deadline expired before/between stages.
pub const SERVICE_DEADLINE_MISSED: &str = "service.deadline_missed";
/// Jobs cancelled cooperatively via their handle.
pub const SERVICE_CANCELLED: &str = "service.cancelled";
/// Jobs that exhausted their retry budget and surfaced an error.
pub const SERVICE_FAILED: &str = "service.failed";
/// Jobs abandoned because the service shut down before running them.
pub const SERVICE_DRAINED: &str = "service.drained";
/// Stages re-placed on the host CPU after every device quarantined.
pub const SERVICE_CPU_FALLBACKS: &str = "service.cpu_fallbacks";
/// Wall-clock nanoseconds a job waited in the service queue.
pub const SERVICE_QUEUE_WAIT_NS: &str = "service.queue_wait_ns";
/// Wall-clock nanoseconds from job accept to terminal outcome
/// (latency histogram).
pub const SERVICE_JOB_LATENCY_NS: &str = "service.job_latency_ns";
/// Jobs waiting in the service queue (live gauge).
pub const SERVICE_QUEUE_DEPTH: &str = "service.queue_depth";
/// Wall-clock nanoseconds one pipeline stage spent executing (histogram,
/// labeled `stage=poly|msm`).
pub const STAGE_LATENCY_NS: &str = "stage.latency_ns";

// -- fleet-runtime counters -------------------------------------------------

/// Simulated bytes uploaded host→device by the fleet runtime.
pub const RUNTIME_H2D_BYTES: &str = "runtime.h2d_bytes";
/// Simulated bytes downloaded device→host by the fleet runtime.
pub const RUNTIME_D2H_BYTES: &str = "runtime.d2h_bytes";
/// Bucket-range shards the memory plan split MSMs into.
pub const RUNTIME_SHARDS: &str = "runtime.shards";
/// Timeline ops a device's bounded op log dropped (oldest first); in a
/// fleet trace only when non-zero.
pub const RUNTIME_OPS_DROPPED: &str = "runtime.ops_dropped";
/// Simulated bytes moved device→device by the fleet runtime.
pub const RUNTIME_P2P_BYTES: &str = "runtime.p2p_bytes";
/// Device→device transfers the fleet runtime routed (NVLink P2P or
/// host-staged).
pub const RUNTIME_P2P_TRANSFERS: &str = "runtime.p2p_transfers";
/// Stages a device executed (per-device counter, labeled `device=devN`).
pub const DEVICE_STAGES: &str = "device.stages";
/// Simulated nanoseconds a device's compute engine was busy (gauge,
/// labeled `device=devN`).
pub const DEVICE_BUSY_NS: &str = "device.busy_ns";
/// Simulated nanoseconds elapsed on a device's timeline (gauge, labeled
/// `device=devN`; `busy/elapsed` is the utilization SLO evaluation
/// reports).
pub const DEVICE_ELAPSED_NS: &str = "device.elapsed_ns";
/// Simulated nanoseconds a device has spent quarantined (gauge, labeled
/// `device=devN`).
pub const DEVICE_QUARANTINE_NS: &str = "device.quarantine_ns";

// -- fault / recovery counters ----------------------------------------------

/// Faults the chaos injector fired into this job/run.
pub const FAULT_INJECTED: &str = "fault.injected";
/// Stage re-executions the service performed recovering from faults.
pub const SERVICE_RETRIES: &str = "retry.count";
/// Times a device entered quarantine (circuit breaker tripped).
pub const QUARANTINE_EVENTS: &str = "quarantine.events";
/// Proofs the verify-before-return guard rejected as corrupted.
pub const VERIFY_REJECTS: &str = "verify.rejects";
/// Proof executions cast as votes by the error-correcting re-execution
/// path (each verified run after a reject counts one vote).
pub const VERIFY_VOTES: &str = "verify.votes";

// -- cluster counters / gauges ----------------------------------------------

/// Jobs the cluster front door admitted past fair-share + rate limiting.
pub const CLUSTER_ADMITTED: &str = "cluster.admitted";
/// Jobs rejected by a tenant's token-bucket rate limit.
pub const CLUSTER_REJECTED_RATE: &str = "cluster.rejected.rate_limited";
/// Jobs rejected because the cluster-wide pending queue was saturated.
pub const CLUSTER_REJECTED_SATURATED: &str = "cluster.rejected.saturated";
/// Jobs the cluster completed with a proof.
pub const CLUSTER_COMPLETED: &str = "cluster.completed";
/// Jobs the cluster gave up on (factory errors, resume cap exhausted).
pub const CLUSTER_FAILED: &str = "cluster.failed";
/// Checkpointed resumes: jobs restarted on a surviving host after their
/// host died mid-proof.
pub const CLUSTER_RESUMES: &str = "cluster.resumes";
/// Host kills that happened (chaos rolls and explicit kills).
pub const CLUSTER_HOST_KILLS: &str = "cluster.host_kills";
/// Cluster jobs dropped at a deadline.
pub const CLUSTER_DEADLINE_MISSED: &str = "cluster.deadline_missed";
/// Hosts the autoscaler started beyond the initial set.
pub const CLUSTER_HOSTS_STARTED: &str = "cluster.hosts_started";
/// Hosts the autoscaler retired.
pub const CLUSTER_HOSTS_RETIRED: &str = "cluster.hosts_retired";
/// Jobs waiting in the front door's fair-share queue (gauge).
pub const CLUSTER_QUEUE_DEPTH: &str = "cluster.queue_depth";
/// Hosts currently accepting work (gauge).
pub const CLUSTER_HOSTS_UP: &str = "cluster.hosts_up";
/// End-to-end cluster job latency, admission to proof (histogram, ns).
pub const CLUSTER_JOB_LATENCY_NS: &str = "cluster.job_latency_ns";
/// Jobs a host completed (per-host counter, labeled `host=hN`).
pub const HOST_COMPLETED: &str = "host.completed";
/// Jobs that resolved with an error on a host, plus the ones its death
/// moved to another (per-host counter, labeled `host=hN`).
pub const HOST_FAILED: &str = "host.failed";
/// Jobs open on a host: released to it, not yet harvested (per-host
/// gauge, labeled `host=hN`).
pub const HOST_INFLIGHT: &str = "host.inflight";
/// Host lifecycle state as a number (per-host gauge, labeled `host=hN`):
/// 0 warming, 1 up, 3 dead.
pub const HOST_STATE: &str = "host.state";
/// Label key of per-host series.
pub const LABEL_HOST: &str = "host";

// -- trace-structure gauges -------------------------------------------------

/// Gauge on device-lane spans: simulated start offset of the span's
/// operation within its fleet timeline (what the timeline renderer
/// aligns lanes by).
pub const SPAN_START_NS: &str = "start_ns";

#[cfg(test)]
mod tests {
    use gzkp_gpu_sim::EngineKind;

    /// gpu-sim cannot depend on this crate, so its lane labels are pinned
    /// here instead: `EngineKind::label()` and the `LANE_*` constants are
    /// the same wire names.
    #[test]
    fn lane_names_match_engine_labels() {
        assert_eq!(EngineKind::H2d.label(), super::LANE_H2D);
        assert_eq!(EngineKind::D2h.label(), super::LANE_D2H);
        assert_eq!(EngineKind::P2p.label(), super::LANE_P2P);
    }
}
