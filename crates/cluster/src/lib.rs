//! # gzkp-cluster — cluster-scale proving over simulated hosts
//!
//! The serving layer below this crate ([`gzkp_service`]) schedules one
//! queue of proofs over one device fleet. Real proving deployments at the
//! paper's target scale (Zcash/Filecoin-class request streams, §5.1) run
//! many hosts, and the interesting problems move up a level: admitting a
//! multi-tenant request stream fairly, surviving the loss of a whole host
//! mid-proof, and growing/shrinking the host pool with demand. A
//! [`Cluster`] is one [`gzkp_service::ProvingService`] started from one
//! [`gzkp_service::ServiceConfig`] ([`ClusterConfig::service`]) read as
//! one host, one failure domain per host. Each serving decision has one
//! owner: the service owns the queue, placement, device health, fault
//! injection, retries (a move off a killed host is not one: it spends
//! no retry budget) and counters; the fleet's domain is the one record
//! of whether a host is dead or takes work. This crate keeps only the
//! cluster's policy:
//!
//! * **The front door** ([`FrontDoor`]) — per-tenant token-bucket rate
//!   limiting in front of weighted-fair queuing, with typed backpressure
//!   ([`AdmissionError`]) so clients can tell "slow down" from "shed
//!   load". Work is released to the service while fewer jobs are open
//!   than the live hosts hold (the template's `queue_capacity` each);
//!   the service pins each to its least-loaded live host.
//! * **Host loss** — chaos (or [`Cluster::kill_host`]) kills a host's
//!   domain: the cluster rolls the chaos plan's host kills on the
//!   service's fault injector, which also injects the plan's stage
//!   faults, so one log and one [`gzkp_gpu_sim::FaultSummary`] cover
//!   both. Jobs submitted as checkpoint-persisting
//!   [`gzkp_service::SystemTask`]s write the checkpoint their MSM stage
//!   steps through out as versioned bytes after the POLY stage and
//!   between MSM steps; the service moves a dead host's jobs to a
//!   survivor, where they continue from those bytes, and the final proofs
//!   are **byte-identical** to uninterrupted runs (the blinding seed
//!   travels inside the checkpoint). Each pump counts the moves it sees
//!   on the host the job left (`host.failed{host=hN}`) and in
//!   `cluster.resumes`, while the moved job still runs.
//! * **The autoscaler** ([`Autoscaler`]) — queue-depth scaling with
//!   modeled warm-up (new hosts spend a window taking no work) and
//!   cooldown hysteresis. Every host the autoscaler may ever run is a
//!   domain of the fleet from the start; a warming or retired one is
//!   closed to pins, and the cluster keeps only a warming host's
//!   warm-up deadline.
//!
//! ## Example
//!
//! ```
//! use gzkp_cluster::{Cluster, ClusterConfig, TenantSpec};
//! use gzkp_curves::bn254::{Bn254, Fr};
//! use gzkp_groth16::{setup, r1cs::{ConstraintSystem, LinearCombination}, Groth16System};
//! use gzkp_ff::Field;
//! use gzkp_service::{JobOptions, SystemTask};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut cs = ConstraintSystem::<Fr>::new();
//! let n = cs.alloc_input(Fr::from_u64(35));
//! let p = cs.alloc(Fr::from_u64(5));
//! let q = cs.alloc(Fr::from_u64(7));
//! cs.enforce(
//!     LinearCombination::from_var(p),
//!     LinearCombination::from_var(q),
//!     LinearCombination::from_var(n),
//! );
//! let cs = Arc::new(cs);
//! let mut rng = StdRng::seed_from_u64(1);
//! let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
//! let (pk, vk) = (Arc::new(pk), Arc::new(vk));
//!
//! let mut cluster = Cluster::start(ClusterConfig {
//!     hosts: 2,
//!     tenants: vec![TenantSpec::new("zcash", 3.0), TenantSpec::new("batch", 1.0)],
//!     ..ClusterConfig::default()
//! });
//! let task = SystemTask::<Groth16System<Bn254>>::persisting(
//!     cs,
//!     pk,
//!     gzkp_gpu_sim::v100(),
//!     7,
//!     Default::default(),
//! )
//! .with_verifying_key(vk);
//! let job = cluster
//!     .submit("zcash", Box::new(task), JobOptions::default())
//!     .unwrap();
//! let outcome = cluster.drain(Duration::from_secs(30));
//! let result = outcome.results.iter().find(|r| r.id == job).unwrap();
//! assert!(result.outcome.is_ok());
//! assert_eq!(outcome.leaked_claims, 0);
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod cluster;
pub mod frontdoor;

pub use autoscale::{AutoscalePolicy, Autoscaler};
pub use cluster::{
    Cluster, ClusterConfig, ClusterOutcome, ClusterResult, ClusterStats, HostReport, HostState,
};
pub use frontdoor::{AdmissionError, FrontDoor, RateLimit, TenantSpec, TenantStats};
