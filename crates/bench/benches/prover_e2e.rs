//! End-to-end prover wall-clock benchmark: serial pre-PR baseline vs the
//! parallel/batch-affine prover, on a real synthetic circuit over BN254.
//!
//! Unlike the paper-table harnesses (which price the GPU from analytic
//! cost models), every number here is measured host wall-clock from the
//! functional pipeline — this is the bench the CI regression gate diffs.
//!
//! Modes: `GZKP_BENCH_SMOKE=1` shrinks the circuit for CI;
//! `GZKP_BENCH_FULL=1` grows it toward paper-ish scales. The serial
//! baseline runs with `GZKP_THREADS=1`, no preprocessing cache, and no
//! batch-affine accumulation — the exact pre-PR configuration — while the
//! optimized run warms the preprocessing cache first, mirroring the
//! paper's accounting where per-key preprocessing is one-time setup.

use gzkp_bench::{speedup, Recorder};
use gzkp_curves::bn254::Bn254;
use gzkp_curves::CurveParams;
use gzkp_ff::fields::Fr254 as Fr;
use gzkp_gpu_sim::device::v100;
use gzkp_gpu_sim::StageReport;
use gzkp_groth16::{prove, setup, verify, Proof, ProverEngines};
use gzkp_msm::{GzkpMsm, MsmEngine, MsmRun, ScalarVec};
use gzkp_ntt::domain::Radix2Domain;
use gzkp_ntt::gpu::{GpuNttEngine, GzkpNtt};
use gzkp_ntt::Direction;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall-clock-accumulating wrapper around an NTT engine.
struct TimedNtt<'a, F: gzkp_ff::PrimeField> {
    inner: &'a dyn GpuNttEngine<F>,
    ns: AtomicU64,
}

impl<F: gzkp_ff::PrimeField> GpuNttEngine<F> for TimedNtt<'_, F> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport {
        let t0 = Instant::now();
        let report = self.inner.transform(domain, data, dir);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        report
    }
    fn cost(&self, log_n: u32) -> StageReport {
        self.inner.cost(log_n)
    }
}

/// Wall-clock-accumulating wrapper around an MSM engine. The prover runs
/// its MSMs back to back, so the accumulated value is the MSM share of
/// the stage's wall-clock.
struct TimedMsm<'a, C: CurveParams> {
    inner: &'a dyn MsmEngine<C>,
    ns: AtomicU64,
}

impl<C: CurveParams> MsmEngine<C> for TimedMsm<'_, C> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn msm(&self, points: &[gzkp_curves::Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        let t0 = Instant::now();
        let run = self.inner.msm(points, scalars);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        run
    }
    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        self.inner.plan(scalars)
    }
    fn plan_dense(&self, n: usize) -> StageReport {
        self.inner.plan_dense(n)
    }
    fn memory_bytes(&self, n: usize) -> u64 {
        self.inner.memory_bytes(n)
    }
}

/// One timed proof: returns (poly_ms, msm_ms, total_ms, proof).
fn timed_prove(
    cs: &gzkp_groth16::ConstraintSystem<Fr>,
    pk: &gzkp_groth16::ProvingKey<Bn254>,
    ntt: &dyn GpuNttEngine<Fr>,
    msm_g1: &dyn MsmEngine<<Bn254 as gzkp_curves::pairing::PairingConfig>::G1>,
    msm_g2: &dyn MsmEngine<<Bn254 as gzkp_curves::pairing::PairingConfig>::G2>,
) -> (f64, f64, f64, Proof<Bn254>) {
    let t_ntt = TimedNtt {
        inner: ntt,
        ns: AtomicU64::new(0),
    };
    let t_g1 = TimedMsm {
        inner: msm_g1,
        ns: AtomicU64::new(0),
    };
    let t_g2 = TimedMsm {
        inner: msm_g2,
        ns: AtomicU64::new(0),
    };
    let engines = ProverEngines::<Bn254> {
        ntt: &t_ntt,
        msm_g1: &t_g1,
        msm_g2: &t_g2,
    };
    // Fixed seed: blinding factors are drawn after the MSMs, so both
    // configurations produce the identical proof — a free determinism
    // cross-check on every bench run.
    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Instant::now();
    let (proof, _report) = prove(cs, pk, &engines, &mut rng).expect("prove");
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let poly_ms = t_ntt.ns.load(Ordering::Relaxed) as f64 / 1e6;
    let msm_ms = (t_g1.ns.load(Ordering::Relaxed) + t_g2.ns.load(Ordering::Relaxed)) as f64 / 1e6;
    (poly_ms, msm_ms, total_ms, proof)
}

/// Best-of-`reps` end-to-end run (minimum total, with its stage split).
fn best_of(
    reps: usize,
    cs: &gzkp_groth16::ConstraintSystem<Fr>,
    pk: &gzkp_groth16::ProvingKey<Bn254>,
    ntt: &dyn GpuNttEngine<Fr>,
    msm_g1: &dyn MsmEngine<<Bn254 as gzkp_curves::pairing::PairingConfig>::G1>,
    msm_g2: &dyn MsmEngine<<Bn254 as gzkp_curves::pairing::PairingConfig>::G2>,
) -> (f64, f64, f64, Proof<Bn254>) {
    let mut best: Option<(f64, f64, f64, Proof<Bn254>)> = None;
    for _ in 0..reps {
        let run = timed_prove(cs, pk, ntt, msm_g1, msm_g2);
        if best.as_ref().is_none_or(|b| run.2 < b.2) {
            best = Some(run);
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    let smoke = std::env::var("GZKP_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (constraints, reps) = if smoke {
        (1 << 7, 1)
    } else if gzkp_bench::full_mode() {
        (1 << 12, 3)
    } else {
        (1 << 10, 3)
    };

    let mut rng = StdRng::seed_from_u64(42);
    let cs = synthetic_circuit::<Fr, _>(constraints, &mut rng);
    let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");
    let device = v100();

    let mut rec = Recorder::new("prover_e2e");

    // --- Serial baseline: the pre-PR prover configuration. ---
    // GZKP_THREADS=1 pins the work-stealing pool so the measurement is a
    // true single-thread baseline on any host.
    std::env::set_var("GZKP_THREADS", "1");
    let s_g1 = GzkpMsm::serial_reference(device.clone());
    let s_g2 = GzkpMsm::serial_reference(device.clone());
    let s_ntt = GzkpNtt::auto::<Fr>(device.clone());
    let (s_poly, s_msm, s_total, s_proof) = best_of(reps, &cs, &pk, &s_ntt, &s_g1, &s_g2);
    std::env::remove_var("GZKP_THREADS");
    rec.row(
        "serial",
        "ms",
        vec![
            ("total".into(), s_total),
            ("poly".into(), s_poly),
            ("msm".into(), s_msm),
        ],
    );

    // --- Optimized prover: parallel + batch-affine + cached preprocess. ---
    let p_g1 = GzkpMsm::new(device.clone());
    let p_g2 = GzkpMsm::new(device.clone());
    let p_ntt = GzkpNtt::auto::<Fr>(device.clone());
    // Warm-up proof fills the per-key preprocessing cache (one-time setup
    // in the paper's accounting) before the timed runs.
    let _ = timed_prove(&cs, &pk, &p_ntt, &p_g1, &p_g2);
    let (p_poly, p_msm, p_total, p_proof) = best_of(reps, &cs, &pk, &p_ntt, &p_g1, &p_g2);
    rec.row(
        "parallel",
        "ms",
        vec![
            ("total".into(), p_total),
            ("poly".into(), p_poly),
            ("msm".into(), p_msm),
        ],
    );

    assert_eq!(s_proof, p_proof, "parallel prover diverged from serial");
    assert!(
        verify::<Bn254>(&vk, &p_proof, &cs.input_assignment),
        "proof failed verification"
    );

    // Machine-independent gate row: fraction of serial time the optimized
    // prover needs (lower is better, so a *rise* reads as a regression).
    let frac = p_total / s_total;
    rec.row("gate", "ratio", vec![("vs-serial".into(), frac)]);
    println!(
        "speedup: {:.2}x (serial {:.1} ms -> parallel {:.1} ms)",
        speedup(s_total, p_total),
        s_total,
        p_total
    );
    rec.finish();
}
