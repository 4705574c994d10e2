//! The tiled batch pipeline against the CPU reference on every shape it
//! can take, and the process-wide twiddle store.
//!
//! `GZKP_THREADS` is process state and the tests of this binary run on
//! parallel threads, so every transform that names a thread count goes
//! through [`with_threads`], which holds a lock while the variable is set.

use gzkp_ff::fields::{Fr254, Fr381, Fr753};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::v100;
use gzkp_ntt::batch::{batched_transform, fixed_batches};
use gzkp_ntt::domain::stored_twiddles;
use gzkp_ntt::gpu::gzkp_kernel_specs;
use gzkp_ntt::{
    BaselineGpuNtt, BatchedNtt, CpuNtt, Direction, GpuNttEngine, GzkpNtt, Radix2Domain,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier, Mutex};

/// Runs `f` with `GZKP_THREADS = threads`, then restores the variable.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static ENV: Mutex<()> = Mutex::new(());
    let _held = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var("GZKP_THREADS").ok();
    std::env::set_var("GZKP_THREADS", threads.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("GZKP_THREADS", v),
        None => std::env::remove_var("GZKP_THREADS"),
    }
    out
}

/// Both directions at 1, 2 and 4 threads: the `max_iters`-batched
/// transform of a random `2^log_n` vector equals `CpuNtt::reference()`'s,
/// and every output is canonical — the lazy butterflies' `[0, 4p)` values
/// never leave the transform.
fn check<F: PrimeField>(log_n: u32, max_iters: u32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = Radix2Domain::<F>::new(1 << log_n).expect("within two-adicity");
    let input: Vec<F> = (0..domain.size).map(|_| F::random(&mut rng)).collect();
    let batches = fixed_batches(log_n, max_iters);
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut want = input.clone();
        CpuNtt::reference().transform(&domain, &mut want, dir);
        for threads in [1, 2, 4] {
            let mut got = input.clone();
            with_threads(threads, || {
                batched_transform(&domain, &mut got, dir, &batches)
            });
            assert!(
                got == want,
                "{dir:?} 2^{log_n}, batches of {max_iters}, {threads} threads"
            );
            assert_canonical(&got);
        }
    }
}

/// Every value's limbs are below `p` and round-trip to the same
/// representation (a value in `[p, 4p)` would come back reduced).
fn assert_canonical<F: PrimeField>(values: &[F]) {
    for v in values {
        let limbs = v.to_limbs();
        assert_eq!(F::from_limbs(&limbs), Some(*v), "{v:?} is not canonical");
    }
}

fn check_all_fields(log_n: u32, max_iters: u32) {
    check::<Fr254>(log_n, max_iters, 1);
    check::<Fr381>(log_n, max_iters, 2);
    check::<Fr753>(log_n, max_iters, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn any_shape_matches_the_reference(
        log_n in 1u32..=14,
        iters_draw in any::<u32>(),
        field in 0u8..3,
        seed in any::<u64>(),
    ) {
        let max_iters = 1 + iters_draw % log_n;
        match field {
            0 => check::<Fr254>(log_n, max_iters, seed),
            1 => check::<Fr381>(log_n, max_iters, seed),
            _ => check::<Fr753>(log_n, max_iters, seed),
        }
    }
}

#[test]
fn last_batch_is_one_block() {
    // Groth16's shape: 2^12 in batches of 6; the second batch is a single
    // 4096-element block that only tiles can spread over threads.
    check_all_fields(12, 6);
    // bellperson's grouping: the last batch is one block of 16 rows.
    check_all_fields(12, 8);
}

#[test]
fn short_final_batch() {
    // One and two iterations left over after two full batches of 6.
    check_all_fields(13, 6);
    check_all_fields(14, 6);
}

#[test]
fn stride_below_the_tile_width() {
    // Batches of 1–3 iterations start at strides 2, 4 and 8: whole-block
    // tiles narrower than a gathered one, below and above PAR_MIN_LEN.
    for max_iters in 1..=3 {
        check_all_fields(7, max_iters);
        check_all_fields(12, max_iters);
    }
}

#[test]
fn below_par_min_len() {
    // Gathered tiles (stride 64) on the serial path.
    check_all_fields(11, 6);
    check_all_fields(8, 6);
}

#[test]
fn two_elements() {
    check_all_fields(1, 1);
}

#[test]
fn one_batch_covers_the_transform() {
    check_all_fields(12, 12);
}

#[test]
fn domains_of_one_size_share_one_table() {
    let a = Radix2Domain::<Fr254>::new(1 << 9).unwrap();
    let b = Radix2Domain::<Fr254>::new(1 << 9).unwrap();
    assert!(Arc::ptr_eq(&a.twiddles(), &b.twiddles()));
    let stored = stored_twiddles::<Fr254>(9).expect("built by the first call");
    assert!(Arc::ptr_eq(&stored, &a.twiddles()));
}

#[test]
fn fields_at_one_size_do_not_collide() {
    let a = Radix2Domain::<Fr254>::new(1 << 9).unwrap();
    let b = Radix2Domain::<Fr381>::new(1 << 9).unwrap();
    let (ta, tb) = (a.twiddles(), b.twiddles());
    assert_eq!(*ta, Radix2Domain::powers(a.omega, 256));
    assert_eq!(*tb, Radix2Domain::powers(b.omega, 256));
    assert_ne!(ta[1].to_limbs(), tb[1].to_limbs());
}

#[test]
fn racing_first_use_keeps_one_table() {
    // No other test of this binary touches 2^15.
    const LOG_N: u32 = 15;
    let domain = Radix2Domain::<Fr381>::new(1 << LOG_N).unwrap();
    assert!(stored_twiddles::<Fr381>(LOG_N).is_none());
    let gate = Barrier::new(8);
    let got: Vec<Arc<Vec<Fr381>>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    domain.twiddles()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let kept = stored_twiddles::<Fr381>(LOG_N).expect("one racer's table was kept");
    assert_eq!(*kept, Radix2Domain::powers(domain.omega, domain.size / 2));
    for table in &got {
        assert!(Arc::ptr_eq(table, &kept));
    }
}

#[test]
fn cost_only_callers_store_nothing() {
    let gzkp = GzkpNtt::auto::<Fr254>(v100());
    GpuNttEngine::<Fr254>::cost(&gzkp, 26);
    GpuNttEngine::<Fr254>::cost(&BaselineGpuNtt::new(v100()), 26);
    gzkp_kernel_specs::<Fr254>(&gzkp, 26);
    BatchedNtt::new(gzkp).cost::<Fr254>(26, 4);
    assert!(stored_twiddles::<Fr254>(26).is_none());
}
