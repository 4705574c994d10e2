//! Bottom-of-the-ledger numbers: what one field or curve operation costs
//! on this host, measured by calling each crate's public functions in a
//! tight loop. They are per-layer metrics only — short loops on a shared
//! box are too noisy to gate on — and tell a reader which end-to-end
//! number a field- or curve-level change should move.

use crate::spec::Metrics;
use gzkp_curves::group::batch_add_affine_pairs;
use gzkp_curves::{bls12_381, bn254, random_points, Affine, CurveParams, Projective};
use gzkp_ff::fields::{Fq254, Fq381, Fr254};
use gzkp_ff::{batch_inverse, Field};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f`, as the fastest of three timed batches
/// (the minimum discards a batch that was descheduled).
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// A dependent multiplication chain, so the figure is latency as the
/// provers see it, not the throughput of independent multiplies.
fn mul_ns<F: Field>(rng: &mut StdRng) -> f64 {
    let b = F::random(rng);
    let mut acc = F::random(rng);
    let ns = ns_per_call(200_000, || acc *= black_box(b));
    black_box(acc);
    ns
}

fn add_mixed_ns<C: CurveParams>(rng: &mut StdRng) -> f64 {
    let q: Affine<C> = random_points::<C, _>(1, rng)[0];
    let mut acc = Projective::<C>::generator();
    let ns = ns_per_call(20_000, || acc = acc.add_mixed(black_box(&q)));
    black_box(acc);
    ns
}

/// Measures the `ff.*` and `curves.*` metrics into `out`.
pub fn field_and_curve_ops(seed: u64, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed);
    out.set("ff.fr254_mul_ns", mul_ns::<Fr254>(&mut rng));
    out.set("ff.fq254_mul_ns", mul_ns::<Fq254>(&mut rng));
    out.set("ff.fq381_mul_ns", mul_ns::<Fq381>(&mut rng));

    let mut x = Fq254::random(&mut rng);
    out.set(
        "ff.fq254_inv_ns",
        ns_per_call(2_000, || {
            x = black_box(x)
                .inverse()
                .expect("a random element is non-zero")
        }),
    );
    const BATCH: usize = 1 << 12;
    let mut batch: Vec<Fq254> = (0..BATCH).map(|_| Fq254::random(&mut rng)).collect();
    out.set(
        "ff.batch_inverse_ns_per_elem",
        ns_per_call(8, || batch_inverse(black_box(&mut batch))) / BATCH as f64,
    );

    out.set(
        "curves.bn254_g1_add_mixed_ns",
        add_mixed_ns::<bn254::G1Config>(&mut rng),
    );
    out.set(
        "curves.bn254_g2_add_mixed_ns",
        add_mixed_ns::<bn254::G2Config>(&mut rng),
    );
    out.set(
        "curves.bls12_381_g1_add_mixed_ns",
        add_mixed_ns::<bls12_381::G1Config>(&mut rng),
    );
    let mut p = bn254::G1Projective::generator();
    out.set(
        "curves.bn254_g1_double_ns",
        ns_per_call(20_000, || p = black_box(p).double()),
    );

    let ps = random_points::<bn254::G1Config, _>(BATCH, &mut rng);
    let qs = random_points::<bn254::G1Config, _>(BATCH, &mut rng);
    out.set(
        "curves.batch_add_affine_ns_per_pair",
        ns_per_call(8, || {
            black_box(batch_add_affine_pairs(black_box(&ps), black_box(&qs)));
        }) / BATCH as f64,
    );

    let g2 = bn254::G2Affine::generator();
    out.set(
        "curves.bn254_pairing_ms",
        ns_per_call(3, || {
            black_box(bn254::pairing(black_box(&ps[0]), black_box(&g2)));
        }) / 1e6,
    );
}
