//! # gzkp-runtime — the device-fleet runtime
//!
//! Multi-GPU execution layer for the proving service: place proofs onto a
//! heterogeneous fleet of simulated devices, pipeline proof `i+1`'s
//! uploads under proof `i`'s kernels on per-device command streams, let
//! a near-deadline proof claim several devices for its MSMs, and
//! run one MSM's bucket-range shards on several devices with the partial
//! sums merged over P2P (bit-identical to the unsharded result). How many
//! shards an MSM needs to fit a device is `gzkp_msm::GzkpMsm::shard_plan`'s
//! decision alone; this crate owns placement and the device schedule.
//!
//! Four pieces:
//!
//! * [`spec`] — parsing of `zkserve --devices N[,spec]` fleet descriptions
//!   into [`gzkp_gpu_sim::DeviceConfig`]s;
//! * [`fleet`] — [`FleetRuntime`]: per-device [`gzkp_gpu_sim::DeviceTimeline`]s
//!   with copy/compute/download/P2P streams and bounded op logs,
//!   failure domains (a cluster's hosts), the one placement rule
//!   ([`FleetRuntime::pin`]: a domain, then a device in it, idle first,
//!   then least loaded by throughput weight), deadline-aware grants,
//!   device↔device transfers ([`FleetRuntime::record_p2p`], NVLink or
//!   host-staged), per-device utilization snapshots and a
//!   `runtime→dev{n}→{h2d,kernel,d2h,p2p}` telemetry trace;
//! * [`crossdev`] — [`CrossDeviceMsm`]: the MSM engine executing one
//!   proof's shards across devices with P2P partial-sum merging — the
//!   reference engine's shard plan, at least one shard per device, dealt
//!   round-robin;
//! * [`health`] — `DeviceHealth`: the consecutive-failure circuit
//!   breaker (quarantine + probation re-probe) that
//!   [`FleetRuntime::pin`] consults.
//!
//! ## Example
//!
//! ```
//! use gzkp_runtime::{parse_devices, Avoid, FleetRuntime};
//!
//! let fleet = FleetRuntime::new(parse_devices("2,v100").unwrap());
//! // Two new jobs: the second goes to the idle device.
//! let [a, b] = [(); 2].map(|()| fleet.pin(Avoid::Nothing).unwrap());
//! assert_eq!((a.device, b.device), (Some(0), Some(1)));
//! fleet.record_stage(0, "job0.msm", 64 << 20, 2.0e6, 128);
//! fleet.unpin(a);
//! fleet.unpin(b);
//! assert_eq!(fleet.utilization().devices.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod crossdev;
pub mod fleet;
pub mod health;
pub mod spec;

pub use crossdev::CrossDeviceMsm;
pub use fleet::{
    Avoid, DeviceUtilization, FleetRuntime, FleetUtilization, HealthEvent, HealthEventKind, Pin,
};
pub use health::HealthPolicy;
pub use spec::parse_devices;
