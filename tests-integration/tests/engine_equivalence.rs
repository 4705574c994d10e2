//! Property-based cross-engine equivalence: every MSM engine computes the
//! same inner product; every NTT engine computes the same transform — over
//! random inputs, on multiple curves and fields.

use gzkp_curves::{bls12_381, bn254, compress, random_points, t753};
use gzkp_ff::fields::{Fr254, Fr381, Fr753};
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::v100;
use gzkp_msm::{naive_msm, CpuMsm, GzkpMsm, MsmEngine, ScalarVec, StrausMsm, SubMsmPippenger};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{BaselineGpuNtt, CpuNtt, Direction, GzkpNtt, Radix2Domain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scalars_from_seed<F: PrimeField>(n: usize, seed: u64, sparse: bool) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if sparse && i % 3 != 2 {
                F::from_u64((i % 2) as u64)
            } else {
                F::random(&mut rng)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn msm_engines_agree_bn254(seed in 0u64..1000, n in 1usize..80, sparse in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<bn254::G1Config, _>(n, &mut rng);
        let scalars = scalars_from_seed::<Fr254>(n, seed ^ 0xabc, sparse);
        let sv = ScalarVec::from_field(&scalars);
        let expect = naive_msm(&pts, &sv);
        prop_assert_eq!(CpuMsm::serial().msm(&pts, &sv).result, expect);
        prop_assert_eq!(CpuMsm::default().msm(&pts, &sv).result, expect);
        prop_assert_eq!(SubMsmPippenger::new(v100()).msm(&pts, &sv).result, expect);
        prop_assert_eq!(StrausMsm::new(v100()).msm(&pts, &sv).result, expect);
        prop_assert_eq!(GzkpMsm::new(v100()).msm(&pts, &sv).result, expect);
    }

    #[test]
    fn msm_engines_agree_t753(seed in 0u64..1000, n in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<t753::G1Config, _>(n, &mut rng);
        let scalars = scalars_from_seed::<Fr753>(n, seed, false);
        let sv = ScalarVec::from_field(&scalars);
        let expect = naive_msm(&pts, &sv);
        prop_assert_eq!(CpuMsm::serial().msm(&pts, &sv).result, expect);
        prop_assert_eq!(GzkpMsm::new(v100()).msm(&pts, &sv).result, expect);
    }

    #[test]
    fn ntt_engines_agree(seed in 0u64..1000, log_n in 1u32..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << log_n;
        let d = Radix2Domain::<Fr381>::new(n).unwrap();
        let data: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let mut expect = data.clone();
        CpuNtt::reference().transform(&d, &mut expect, Direction::Forward);

        for engine in [
            Box::new(BaselineGpuNtt::new(v100())) as Box<dyn GpuNttEngine<Fr381>>,
            Box::new(GzkpNtt::auto::<Fr381>(v100())),
            Box::new(GzkpNtt::no_internal_shuffle::<Fr381>(v100())),
        ] {
            let mut v = data.clone();
            engine.transform(&d, &mut v, Direction::Forward);
            prop_assert_eq!(&v, &expect, "engine {}", engine.name());
        }
    }

    #[test]
    fn sharded_msm_byte_identical_bn254(seed in 0u64..1000, n in 1usize..80, sparse in any::<bool>()) {
        // Bucket-range sharding (the memory plan's fallback for tasks
        // that exceed device memory) must merge to the exact group element
        // of the unsharded run — compare compressed bytes, not just group
        // equality, for every shard count.
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<bn254::G1Config, _>(n, &mut rng);
        let scalars = scalars_from_seed::<Fr254>(n, seed ^ 0x5a5a, sparse);
        let sv = ScalarVec::from_field(&scalars);
        let engine = GzkpMsm::new(v100());
        let whole = compress(&engine.msm(&pts, &sv).result.to_affine());
        for shards in [1usize, 2, 3, 7] {
            let run = engine.msm_sharded(&pts, &sv, shards);
            prop_assert_eq!(
                compress(&run.result.to_affine()),
                whole.clone(),
                "shards {}",
                shards
            );
        }
    }

    #[test]
    fn sharded_msm_byte_identical_bls12_381(seed in 0u64..1000, n in 1usize..80, sparse in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<bls12_381::G1Config, _>(n, &mut rng);
        let scalars = scalars_from_seed::<Fr381>(n, seed ^ 0xa5a5, sparse);
        let sv = ScalarVec::from_field(&scalars);
        let engine = GzkpMsm::new(v100());
        let whole = compress(&engine.msm(&pts, &sv).result.to_affine());
        for shards in [1usize, 2, 3, 7] {
            let run = engine.msm_sharded(&pts, &sv, shards);
            prop_assert_eq!(
                compress(&run.result.to_affine()),
                whole.clone(),
                "shards {}",
                shards
            );
        }
    }

    #[test]
    fn msm_linearity(seed in 0u64..1000, n in 2usize..32) {
        // MSM(s, P) + MSM(t, P) == MSM(s + t, P) over Fr (prime-order group).
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<bls12_381::G1Config, _>(n, &mut rng);
        let s: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let t: Vec<Fr381> = (0..n).map(|_| Fr381::random(&mut rng)).collect();
        let st: Vec<Fr381> = s.iter().zip(&t).map(|(a, b)| *a + *b).collect();
        let e = GzkpMsm::new(v100());
        let r1 = e.msm(&pts, &ScalarVec::from_field(&s)).result;
        let r2 = e.msm(&pts, &ScalarVec::from_field(&t)).result;
        let r3 = e.msm(&pts, &ScalarVec::from_field(&st)).result;
        prop_assert_eq!(r1.add(&r2), r3);
    }
}

#[test]
fn poly_pipeline_cross_engine() {
    // The full 7-NTT POLY stage must agree between the CPU reference and
    // both GPU engines for a real constraint system.
    use gzkp_groth16::qap::{poly_stage_cpu, poly_stage_traced, QapWitness};
    use gzkp_telemetry::NoopSink;
    use gzkp_workloads::synthetic::synthetic_circuit;
    let mut rng = StdRng::seed_from_u64(55);
    let cs = synthetic_circuit::<Fr254, _>(700, &mut rng);
    let qap = QapWitness::from_r1cs(&cs).unwrap();
    let expect = poly_stage_cpu(&qap);
    let gz = GzkpNtt::auto::<Fr254>(v100());
    let bg = BaselineGpuNtt::new(v100());
    assert_eq!(poly_stage_traced(&qap, &gz, &NoopSink).h, expect);
    assert_eq!(poly_stage_traced(&qap, &bg, &NoopSink).h, expect);
}
