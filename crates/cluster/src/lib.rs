//! # gzkp-cluster — cluster-scale proving over simulated hosts
//!
//! The serving layer below this crate ([`gzkp_service`]) is a *single
//! host*: one queue, one worker pool, one simulated device fleet. Real
//! proving deployments at the paper's target scale (Zcash/Filecoin-class
//! request streams, §5.1) run many such hosts, and the interesting
//! problems move up a level: admitting a multi-tenant request stream
//! fairly, routing jobs across hosts by load and health, surviving the
//! loss of a whole host mid-proof, and growing/shrinking the host pool
//! with demand. This crate models that layer end to end:
//!
//! * **Checkpointed jobs** — every job runs as the service's one task
//!   type, [`gzkp_service::SystemTask`], over a pluggable
//!   [`gzkp_proof_system::ProofSystem`] backend (Groth16 or PLONK),
//!   built by [`system_factory`] in its persisting form: the checkpoint
//!   the MSM stage steps through is written out as versioned bytes after
//!   the POLY stage and between MSM steps. When chaos kills a host, the
//!   cluster resumes the interrupted jobs on survivors from those bytes,
//!   and the final proofs are **byte-identical** to uninterrupted runs
//!   (resuming continues the same state machine; the blinding seed
//!   travels inside the checkpoint).
//! * **The front door** ([`FrontDoor`]) — per-tenant token-bucket rate
//!   limiting in front of weighted-fair queuing, with typed backpressure
//!   ([`AdmissionError`]) so clients can tell "slow down" from "shed
//!   load".
//! * **The scheduler** ([`pick_host`]) — health-gated least-loaded
//!   placement with anti-affinity for resumed jobs; host health reuses
//!   the device circuit-breaker policy ([`gzkp_runtime::DeviceHealth`])
//!   at host granularity.
//! * **The autoscaler** ([`Autoscaler`]) — queue-depth scaling with
//!   modeled warm-up (new hosts spend a window unschedulable) and
//!   cooldown hysteresis.
//!
//! Hosts are [`SimHost`]s — real [`gzkp_service::ProvingService`]
//! instances with their own device fleets — so everything the lower
//! layers guarantee (stage pipelining, verify-before-return, preprocess
//! caching) holds inside each host unchanged.
//!
//! ## Example
//!
//! ```
//! use gzkp_cluster::{system_factory, Cluster, ClusterConfig, ClusterJobOptions, TenantSpec};
//! use gzkp_curves::bn254::{Bn254, Fr};
//! use gzkp_groth16::{setup, r1cs::{ConstraintSystem, LinearCombination}, Groth16System};
//! use gzkp_ff::Field;
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
//! let job = cluster
//!     .submit(
//!         "zcash",
//!         system_factory::<Groth16System<Bn254>>(cs, pk, Some(vk), 7),
//!         ClusterJobOptions::default(),
//!     )
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
pub mod host;
pub mod scheduler;

pub use autoscale::{AutoscalePolicy, Autoscaler};
pub use cluster::{
    system_factory, workload_factory, Cluster, ClusterConfig, ClusterJobOptions, ClusterOutcome,
    ClusterReportJson, ClusterResult, ClusterStats, TaskBuild, TaskFactory,
};
pub use frontdoor::{AdmissionError, FrontDoor, RateLimit, TenantSpec, TenantStats};
pub use host::{HostConfig, HostReport, HostState, SimHost};
pub use scheduler::{pick_host, urgency_key, HostView};
