//! # gzkp-proof-system — the backend-agnostic prover surface
//!
//! The engine stack (NTT, MSM, telemetry, service, fleet, cluster) only
//! *happened* to be Groth16-shaped: every scheduling decision it makes is
//! really about a POLY stage (a batch of NTTs) followed by a sequence of
//! MSM steps whose partial results can be checkpointed. This crate names
//! that contract. A [`ProofSystem`] packages one zkSNARK backend —
//! Groth16 in `gzkp-groth16`, KZG/PLONK in `gzkp-plonk` — behind static
//! entry points for the POLY stage, verification, and a resumable
//! checkpoint of the MSM stage.
//!
//! The checkpoint state machine *is* the MSM stage: [`run_msm_steps`] is
//! the one loop that steps a checkpoint to completion, and every prover
//! entry point — [`ProofSystem::prove_msm`], each backend's direct
//! `prove`, the service's `SystemTask<S>` (which persists the checkpoint
//! between steps when the cluster asks it to) — is that loop followed by
//! the backend's `finish`. A proof interrupted and resumed on another
//! host is therefore the same computation as an uninterrupted one, not a
//! second path kept in step with it. [`codec`] is the one wire framing
//! the backends' checkpoints share.
//!
//! Determinism contract: the MSM stage receives an RNG **seed**, not an
//! RNG — every backend draws its blinding randomness at fixed points from
//! seeded generators so the same seed yields identical proof bytes at any
//! `GZKP_THREADS` value, on any simulated device, and across host
//! migration.

#![warn(missing_docs)]

pub mod codec;

use gzkp_curves::pairing::PairingConfig;
use gzkp_gpu_sim::StageReport;
use gzkp_msm::MsmEngine;
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_telemetry::{self as telemetry, TelemetrySink};

/// Which proof system a job, cache entry, or telemetry series belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProofSystemKind {
    /// The Groth16 zkSNARK (QAP-based; 5 MSM steps).
    Groth16,
    /// KZG-committed PLONK (gate + copy constraints; 4 commit steps).
    Plonk,
}

impl ProofSystemKind {
    /// Wire/label name of the system (`groth16` / `plonk`) — used for
    /// workload JSON, telemetry labels, and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            ProofSystemKind::Groth16 => "groth16",
            ProofSystemKind::Plonk => "plonk",
        }
    }

    /// Parses the wire name produced by [`ProofSystemKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "groth16" => Some(ProofSystemKind::Groth16),
            "plonk" => Some(ProofSystemKind::Plonk),
            _ => None,
        }
    }

    /// Small integer tag for cache keys (`PreprocessStore` keys carry it
    /// so Groth16 and PLONK preprocessing of the same points never
    /// collide).
    pub fn cache_tag(self) -> u8 {
        match self {
            ProofSystemKind::Groth16 => 0,
            ProofSystemKind::Plonk => 1,
        }
    }
}

/// Engine selection for a prover, shared by every backend.
///
/// The prover is placement-agnostic: it never asks an engine *where* it
/// runs, so single-device engines and the multi-device
/// `gzkp_runtime::CrossDeviceMsm` (bucket-range shards on distinct
/// devices, partial sums merged over the P2P path) slot in here
/// unchanged — and because each backend draws its blinding randomness
/// from a seeded RNG at fixed points relative to the MSMs, identical
/// engine results mean byte-identical proofs regardless of placement.
pub struct Engines<'a, P: PairingConfig> {
    /// NTT engine for the POLY stage.
    pub ntt: &'a dyn GpuNttEngine<P::Fr>,
    /// MSM engine for G1 inner products.
    pub msm_g1: &'a dyn MsmEngine<P::G1>,
    /// MSM engine for G2 inner products.
    pub msm_g2: &'a dyn MsmEngine<P::G2>,
}

/// Timing record of one proof generation, split by the paper's two
/// stages. Identical layout for every backend so `zkprof diff` can
/// compare across systems.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ProveReport {
    /// POLY-stage simulated report (NTTs + pointwise kernels).
    pub poly: StageReport,
    /// MSM/commit-stage simulated report.
    pub msm: StageReport,
}

impl ProveReport {
    /// POLY time in milliseconds.
    pub fn poly_ms(&self) -> f64 {
        self.poly.total_ms()
    }
    /// MSM time in milliseconds.
    pub fn msm_ms(&self) -> f64 {
        self.msm.total_ms()
    }
    /// End-to-end proof generation time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.poly_ms() + self.msm_ms()
    }
}

/// The MSM stage of one proof as a resumable state machine: a fixed
/// sequence of steps, each an engine MSM (or a few) whose result is
/// recorded in the value itself, so the value can be serialized between
/// any two steps. Implemented by each backend's checkpoint type.
pub trait MsmSteps {
    /// The curve family the steps run over.
    type Pairing: PairingConfig;
    /// Prover-side key material the steps read their points from.
    type ProvingKey;

    /// Number of steps the stage runs.
    const STEPS: usize;

    /// Seed of the job's blinding RNG, which rides in the checkpoint.
    fn seed(&self) -> u64;

    /// Bit `i` set ⇒ step `i` has run.
    fn done_mask(&self) -> u8;

    /// The POLY stage report captured when the checkpoint was opened.
    fn poly_report(&self) -> &StageReport;

    /// Bytes of scalar state the steps upload to the device — the stage's
    /// H2D footprint for transfer-pipelining schedulers.
    fn scalar_bytes(&self) -> u64;

    /// Executes step `step`, recording its partial result and kernel
    /// reports. Re-running a done step is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if `step` is out of range or the state does not match `pk`.
    fn run_step(
        &mut self,
        pk: &Self::ProvingKey,
        engines: &Engines<'_, Self::Pairing>,
        step: usize,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String>;

    /// Number of steps already executed.
    fn steps_done(&self) -> usize {
        self.done_mask().count_ones() as usize
    }

    /// The first step still to run, or `None` when only the backend's
    /// `finish` remains.
    fn next_step(&self) -> Option<usize> {
        (0..Self::STEPS).find(|&step| self.done_mask() & (1 << step) == 0)
    }
}

/// Runs every remaining step of `ckpt`, in order, inside one `msm`
/// telemetry span. `before_step` sees the checkpoint as it stands before
/// each step (with that step's index) and stops the stage by returning
/// an error — where a caller persists progress or honors an interrupt.
///
/// # Errors
///
/// The first error of `before_step` or of a step; `ckpt` keeps the
/// progress made until then.
pub fn run_msm_steps<C: MsmSteps>(
    ckpt: &mut C,
    pk: &C::ProvingKey,
    engines: &Engines<'_, C::Pairing>,
    sink: &dyn TelemetrySink,
    mut before_step: impl FnMut(&C, usize) -> Result<(), String>,
) -> Result<(), String> {
    let _msm_span = telemetry::span(sink, telemetry::names::SPAN_MSM);
    while let Some(step) = ckpt.next_step() {
        before_step(ckpt, step)?;
        ckpt.run_step(pk, engines, step, sink)?;
    }
    Ok(())
}

/// One zkSNARK backend: the POLY stage, verification, sizing hooks for
/// the fleet's transfer model, and the checkpoint ([`MsmSteps`]) whose
/// steps are the MSM stage.
///
/// All methods are static (the system type is a marker): per-proof state
/// travels through [`ProofSystem::PolyArtifacts`] and
/// [`ProofSystem::Checkpoint`] values, which keeps the service's task
/// type `Send` without backend-specific bounds. Curve/serialization
/// bounds live on each backend's `impl`, not here, so generic service
/// code needs only `S: ProofSystem`.
pub trait ProofSystem: 'static {
    /// The pairing-friendly curve family the system proves over.
    type Pairing: PairingConfig;
    /// The satisfied, synthesized circuit (with witness) being proven.
    type Circuit: Send + Sync + 'static;
    /// Prover-side key material.
    type ProvingKey: Send + Sync + 'static;
    /// Verifier-side key material.
    type VerifyingKey: Send + Sync + 'static;
    /// Output of the POLY stage, consumed by the MSM stage.
    type PolyArtifacts: Send + 'static;
    /// Resumable MSM-stage state with a portable byte encoding.
    type Checkpoint: MsmSteps<Pairing = Self::Pairing, ProvingKey = Self::ProvingKey>
        + Send
        + 'static;

    /// Which system this is (labels, cache tags, workload routing).
    const KIND: ProofSystemKind;

    /// Stage 1 — POLY: satisfiability check, witness reduction, and the
    /// backend's NTT batch, emitted under a `poly` telemetry span.
    ///
    /// # Errors
    ///
    /// Fails when the circuit is unsatisfied or exceeds the NTT domain.
    fn prove_poly(
        circuit: &Self::Circuit,
        pk: &Self::ProvingKey,
        ntt: &dyn GpuNttEngine<<Self::Pairing as PairingConfig>::Fr>,
        sink: &dyn TelemetrySink,
    ) -> Result<Self::PolyArtifacts, String>;

    /// Stage 2 — the MSM/commit steps (under an `msm` telemetry span),
    /// blinding (from `seed`), and proof assembly, returning the
    /// serialized proof and the stage report: a fresh checkpoint stepped
    /// to completion by [`run_msm_steps`] and finished.
    ///
    /// # Errors
    ///
    /// Fails when the artifacts do not match `pk`.
    fn prove_msm(
        pk: &Self::ProvingKey,
        engines: &Engines<'_, Self::Pairing>,
        poly: Self::PolyArtifacts,
        seed: u64,
        sink: &dyn TelemetrySink,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        let mut ckpt = Self::checkpoint_from_poly(seed, poly);
        run_msm_steps(&mut ckpt, pk, engines, sink, |_, _| Ok(()))?;
        Self::checkpoint_finish(ckpt, pk)
    }

    /// Verifies serialized proof bytes against the circuit's public
    /// inputs. Malformed bytes verify as `false`, never panic.
    fn verify_bytes(vk: &Self::VerifyingKey, circuit: &Self::Circuit, proof: &[u8]) -> bool;

    /// Number of witness elements the POLY stage uploads (H2D sizing).
    fn witness_elems(circuit: &Self::Circuit) -> usize;

    /// Number of field elements the POLY stage downloads (D2H sizing).
    fn poly_d2h_elems(pk: &Self::ProvingKey) -> usize;

    /// Sizes of the G1 MSMs the MSM stage will run (deadline-urgency
    /// cost estimation and shard accounting).
    fn g1_msm_sizes(pk: &Self::ProvingKey) -> Vec<usize>;

    /// Sizes of the G2 MSMs the MSM stage will run.
    fn g2_msm_sizes(pk: &Self::ProvingKey) -> Vec<usize>;

    /// Opens a checkpoint right after the POLY stage (no MSM steps done).
    fn checkpoint_from_poly(seed: u64, poly: Self::PolyArtifacts) -> Self::Checkpoint;

    /// Serializes a checkpoint to its versioned portable byte format.
    fn checkpoint_to_bytes(ckpt: &Self::Checkpoint) -> Vec<u8>;

    /// Decodes a checkpoint, validating magic/version/curve shape and
    /// every stored scalar vector and point.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; never panics
    /// on attacker-controlled input.
    fn checkpoint_from_bytes(bytes: &[u8]) -> Result<Self::Checkpoint, String>;

    /// [`MsmSteps::next_step`] of the checkpoint.
    fn checkpoint_next_step(ckpt: &Self::Checkpoint) -> Option<usize> {
        ckpt.next_step()
    }

    /// [`MsmSteps::run_step`] of the checkpoint.
    ///
    /// # Errors
    ///
    /// Fails if `step` is out of range or the checkpoint does not match
    /// `pk`.
    fn checkpoint_run_step(
        ckpt: &mut Self::Checkpoint,
        pk: &Self::ProvingKey,
        engines: &Engines<'_, Self::Pairing>,
        step: usize,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String> {
        ckpt.run_step(pk, engines, step, sink)
    }

    /// Blinding and proof assembly from a fully-stepped checkpoint.
    ///
    /// # Errors
    ///
    /// Fails if any MSM step has not run yet.
    fn checkpoint_finish(
        ckpt: Self::Checkpoint,
        pk: &Self::ProvingKey,
    ) -> Result<(Vec<u8>, ProveReport), String>;
}

#[cfg(test)]
mod tests {
    use super::ProofSystemKind;

    #[test]
    fn kind_names_round_trip() {
        for kind in [ProofSystemKind::Groth16, ProofSystemKind::Plonk] {
            assert_eq!(ProofSystemKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ProofSystemKind::parse("stark"), None);
    }

    #[test]
    fn cache_tags_are_distinct() {
        assert_ne!(
            ProofSystemKind::Groth16.cache_tag(),
            ProofSystemKind::Plonk.cache_tag()
        );
    }
}
