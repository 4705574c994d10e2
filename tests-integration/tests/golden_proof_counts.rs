//! Golden exact counts of whole proofs. On a host whose timings move by
//! 25 % between runs, exact counts are the gate that resolves a small
//! algorithmic change: one transform more, one MSM more, a fold that adds
//! a little more, a table set built twice. Each line pins, for a seeded
//! small BN254 proof on fresh engines and a fresh table store, the
//! engine NTT calls, then per MSM group `(calls, batch-affine additions,
//! batched inversions)`, then the store's misses. A change that moves any
//! of them must update this file and say why.
//!
//! The counts are the same at every thread count (bucket tasks are cut
//! from the load profile alone); CI runs this at `GZKP_THREADS` 1 and 4.

use gzkp_curves::bn254::{Bn254, Fr, G1Config, G2Config};
use gzkp_curves::{Affine, CurveParams};
use gzkp_gpu_sim::{v100, StageReport};
use gzkp_groth16::ConstraintSystem;
use gzkp_msm::{GzkpMsm, MsmEngine, MsmRun, PreprocessStore, ScalarVec};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{Direction, GzkpNtt, Radix2Domain};
use gzkp_plonk::PlonkCircuit;
use gzkp_proof_system::Engines;
use gzkp_telemetry::NoopSink;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 26;

/// Counts the transforms it forwards.
struct CountingNtt {
    inner: GzkpNtt,
    calls: AtomicU64,
}

impl GpuNttEngine<Fr> for CountingNtt {
    fn name(&self) -> String {
        GpuNttEngine::<Fr>::name(&self.inner)
    }
    fn transform(&self, domain: &Radix2Domain<Fr>, data: &mut [Fr], dir: Direction) -> StageReport {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.transform(domain, data, dir)
    }
    fn cost(&self, log_n: u32) -> StageReport {
        GpuNttEngine::<Fr>::cost(&self.inner, log_n)
    }
}

/// Counts the MSMs it forwards and sums their batch-affine counters.
struct CountingMsm {
    inner: GzkpMsm,
    counts: [AtomicU64; 3],
}

impl CountingMsm {
    fn new(store: &Arc<PreprocessStore>, tag: u8) -> Self {
        Self {
            inner: GzkpMsm::new(v100())
                .with_store(store.clone())
                .with_system_tag(tag),
            counts: Default::default(),
        }
    }

    /// `(calls, batch padds, batch inversions)`.
    fn counts(&self) -> [u64; 3] {
        self.counts.each_ref().map(|c| c.load(Ordering::Relaxed))
    }
}

impl<C: CurveParams> MsmEngine<C> for CountingMsm {
    fn name(&self) -> String {
        MsmEngine::<C>::name(&self.inner)
    }
    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        let run = self.inner.msm(points, scalars);
        for (count, add) in
            self.counts
                .iter()
                .zip([1, run.stats.batch_padds, run.stats.batch_inversions])
        {
            count.fetch_add(add, Ordering::Relaxed);
        }
        run
    }
    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        MsmEngine::<C>::plan(&self.inner, scalars)
    }
    fn plan_dense(&self, n: usize) -> StageReport {
        MsmEngine::<C>::plan_dense(&self.inner, n)
    }
    fn memory_bytes(&self, n: usize) -> u64 {
        MsmEngine::<C>::memory_bytes(&self.inner, n)
    }
}

/// Proves `prove` once on counting engines and formats its counts.
fn counted(label: &str, tag: u8, prove: impl FnOnce(&Engines<'_, Bn254>)) -> String {
    let store = Arc::new(PreprocessStore::new(PreprocessStore::DEFAULT_BUDGET_BYTES));
    let ntt = CountingNtt {
        inner: GzkpNtt::auto::<Fr>(v100()),
        calls: AtomicU64::new(0),
    };
    let (g1, g2) = (CountingMsm::new(&store, tag), CountingMsm::new(&store, tag));
    prove(&Engines {
        ntt: &ntt,
        msm_g1: &g1 as &dyn MsmEngine<G1Config>,
        msm_g2: &g2 as &dyn MsmEngine<G2Config>,
    });
    format!(
        "{label} ntt {} g1 {:?} g2 {:?} misses {}",
        ntt.calls.load(Ordering::Relaxed),
        g1.counts(),
        g2.counts(),
        store.misses()
    )
}

/// The seeded 2⁶-constraint synthetic gate mix, and the rng after it.
fn circuit() -> (ConstraintSystem<Fr>, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED);
    (synthetic_circuit(1 << 6, &mut rng), rng)
}

#[test]
fn whole_proof_counts_match_the_golden_lines() {
    let (cs, mut rng) = circuit();
    let (pk, _) = gzkp_groth16::setup::<Bn254, _>(&cs, &mut rng).expect("groth16 setup");
    let groth16 = counted("groth16 bn254 2^6", 0, |engines| {
        gzkp_groth16::prove(&cs, &pk, engines, &mut rng).expect("groth16 prove");
    });

    let (cs, mut rng) = circuit();
    let circuit = PlonkCircuit::from_r1cs(&cs);
    let (pk, _) = gzkp_plonk::setup::<Bn254, _>(&circuit, &mut rng).expect("plonk setup");
    let plonk = counted("plonk bn254 2^6", 1, |engines| {
        gzkp_plonk::prove(&circuit, &pk, engines, SEED, &NoopSink).expect("plonk prove");
    });

    assert_eq!([groth16, plonk], GOLDEN);
}

/// PLONK: three interpolations, the accumulator's, the four witness
/// polynomials extended to the 4n coset and the quotient's inverse — nine
/// transforms; the nine commitments read two table sets, the wires' in
/// the Lagrange basis and one for every commitment in the monomial basis.
/// Its additions and inversions fell when `PlonkCircuit::from_r1cs` began
/// fusing each constraint into one gate: the 2⁶ circuit's 1 024-row
/// domain became 512 rows. Both systems' rose when a bucket task began
/// forming its buckets' `s₁ + φ(s₂)` in one more batch-affine round: one
/// addition per bucket whose two sums are both non-zero and one inversion
/// per task (four tasks per MSM at this size).
const GOLDEN: [&str; 2] = [
    "groth16 bn254 2^6 ntt 7 g1 [4, 22301, 106] g2 [1, 2804, 24] misses 5",
    "plonk bn254 2^6 ntt 9 g1 [9, 97021, 225] g2 [0, 0, 0] misses 2",
];
