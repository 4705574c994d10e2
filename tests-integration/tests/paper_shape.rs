//! Paper-shape regression tests: the qualitative claims of the GZKP
//! evaluation must hold in the simulated reproduction — who wins, by
//! roughly what factor, and where the crossovers/OOMs fall. These guard
//! the calibration against accidental regressions.

use gzkp_curves::{bls12_381, bn254, t753};
use gzkp_ff::fields::{Fr254, Fr381, Fr753};
use gzkp_gpu_sim::{gtx1080ti, v100, Backend};
use gzkp_msm::{CpuMsm, GzkpMsm, MsmEngine, ScalarVec, StrausMsm, SubMsmPippenger};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{BaselineGpuNtt, GzkpNtt};
use gzkp_workloads::{SparsityProfile, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table 5 shape: GZKP NTT beats the bellperson baseline across scales,
/// in the paper's 2.2×–10.3× band (with slack).
#[test]
fn ntt_speedup_band_256bit() {
    let bg = BaselineGpuNtt::new(v100());
    let gz = GzkpNtt::auto::<Fr254>(v100());
    for log_n in [14u32, 18, 20, 24] {
        let s = GpuNttEngine::<Fr254>::cost(&bg, log_n).total_ns()
            / GpuNttEngine::<Fr254>::cost(&gz, log_n).total_ns();
        assert!(s > 1.5 && s < 20.0, "2^{log_n}: speedup {s}");
    }
}

/// Table 5 shape: the 753-bit CPU-vs-GZKP gap is enormous (paper: 218–697×).
#[test]
fn ntt_753_cpu_gap() {
    let gz = GzkpNtt::auto::<Fr753>(v100());
    let t_gpu = GpuNttEngine::<Fr753>::cost(&gz, 20).total_ms();
    let t_cpu = gzkp_bench_cpu_ntt(20);
    let s = t_cpu / t_gpu;
    assert!(s > 100.0, "753-bit speedup {s}");
}

// Local copy of the bench crate's CPU NTT model to avoid a dependency on a
// publish = false bench crate (values asserted in gzkp-bench's own tests).
fn gzkp_bench_cpu_ntt(log_n: u32) -> f64 {
    let n = (1u64 << log_n) as f64;
    let macs = n / 2.0 * log_n as f64 * (2.0 * 414.0 + 2.0 * 4.2);
    95.0 + macs / (0.4 * 28.0 * 0.85) / 1e6
}

/// Table 7 shape: GZKP MSM beats bellperson by mid-single-digit factors at
/// scale, and MINA/Straus by ~an order of magnitude.
#[test]
fn msm_speedup_bands() {
    let bg = SubMsmPippenger::new(v100());
    let straus = StrausMsm::new(v100());
    let gz = GzkpMsm::new(v100());
    for log_n in [18u32, 20, 22] {
        let n = 1usize << log_n;
        let s_bg = MsmEngine::<bls12_381::G1Config>::plan_dense(&bg, n).total_ns()
            / MsmEngine::<bls12_381::G1Config>::plan_dense(&gz, n).total_ns();
        assert!(s_bg > 3.0 && s_bg < 30.0, "2^{log_n} vs BG: {s_bg}");
        let s_mina = MsmEngine::<t753::G1Config>::plan_dense(&straus, n).total_ns()
            / MsmEngine::<t753::G1Config>::plan_dense(&gz, n).total_ns();
        assert!(s_mina > 4.0 && s_mina < 40.0, "2^{log_n} vs MINA: {s_mina}");
    }
}

/// Table 7's "-" rows: Straus exceeds V100 memory at 753-bit beyond 2²²,
/// and the 1080 Ti gives out earlier; GZKP fits everywhere.
#[test]
fn straus_oom_crossover() {
    let s_v100 = StrausMsm::new(v100());
    let gz = GzkpMsm::new(v100());
    assert!(MsmEngine::<t753::G1Config>::fits_in_memory(
        &s_v100,
        1 << 22,
        v100().global_mem_bytes
    ));
    assert!(!MsmEngine::<t753::G1Config>::fits_in_memory(
        &s_v100,
        1 << 24,
        v100().global_mem_bytes
    ));
    let s_ti = StrausMsm::new(gtx1080ti());
    assert!(!MsmEngine::<t753::G1Config>::fits_in_memory(
        &s_ti,
        1 << 22,
        gtx1080ti().global_mem_bytes
    ));
    for log_n in [22u32, 24, 26] {
        assert!(MsmEngine::<t753::G1Config>::fits_in_memory(
            &gz,
            1 << log_n,
            v100().global_mem_bytes
        ));
    }
}

/// §5.2's key claim: with sparse real-world scalars, GZKP's advantage over
/// window-parallel engines grows (the load-imbalance story).
#[test]
fn sparsity_widens_the_gap() {
    let mut rng = StdRng::seed_from_u64(99);
    let n = 1 << 16;
    let dense = WorkloadSpec {
        name: "d",
        vector_size: n,
        sparsity: SparsityProfile::DENSE,
    }
    .sparse_scalar_vec::<Fr381, _>(&mut rng);
    let sparse = WorkloadSpec {
        name: "s",
        vector_size: n,
        sparsity: SparsityProfile::SPARSE,
    }
    .sparse_scalar_vec::<Fr381, _>(&mut rng);
    let bg = SubMsmPippenger::new(v100());
    let gz = GzkpMsm::new(v100());
    let gap = |sv: &ScalarVec| {
        MsmEngine::<bls12_381::G1Config>::plan(&bg, sv).total_ns()
            / MsmEngine::<bls12_381::G1Config>::plan(&gz, sv).total_ns()
    };
    assert!(
        gap(&sparse) > gap(&dense),
        "sparse gap {} must exceed dense gap {}",
        gap(&sparse),
        gap(&dense)
    );
}

/// Fig. 8 ordering: BG > BG w. lib > GZKP-no-GM-shuffle > GZKP at 2²².
#[test]
fn fig8_ablation_ordering() {
    let t = |e: &dyn GpuNttEngine<Fr381>| e.cost(22).total_ns();
    let bg = BaselineGpuNtt::new(v100());
    let bg_lib = BaselineGpuNtt::new(v100()).with_lib();
    let no_shuf = GzkpNtt::no_internal_shuffle::<Fr381>(v100());
    let gz = GzkpNtt::auto::<Fr381>(v100());
    assert!(t(&bg) > t(&bg_lib));
    assert!(t(&bg_lib) > t(&gz));
    assert!(t(&no_shuf) > t(&gz));
}

/// Fig. 10 ordering at 2²⁰ dense: BG > no-LB > no-LB w. lib ≥ GZKP.
#[test]
fn fig10_ablation_ordering() {
    let n = 1 << 20;
    let t = |e: &GzkpMsm| MsmEngine::<bls12_381::G1Config>::plan_dense(e, n).total_ns();
    let bg =
        MsmEngine::<bls12_381::G1Config>::plan_dense(&SubMsmPippenger::new(v100()), n).total_ns();
    let gzkp = GzkpMsm::new(v100());
    let no_lb_lib = GzkpMsm {
        load_balance: false,
        ..gzkp.clone()
    };
    let no_lb = GzkpMsm {
        backend: Backend::Integer,
        ..no_lb_lib.clone()
    };
    let (no_lb, no_lb_lib, full) = (t(&no_lb), t(&no_lb_lib), t(&gzkp));
    assert!(bg > no_lb, "BG {bg} vs no-LB {no_lb}");
    assert!(no_lb > no_lb_lib);
    assert!(no_lb_lib >= full * 0.99);
}

/// The devices differ the right way: everything is slower on the 1080 Ti.
#[test]
fn device_ordering() {
    let gz_v = GzkpNtt::auto::<Fr254>(v100());
    let gz_t = GzkpNtt::auto::<Fr254>(gtx1080ti());
    assert!(
        GpuNttEngine::<Fr254>::cost(&gz_t, 20).total_ns()
            > GpuNttEngine::<Fr254>::cost(&gz_v, 20).total_ns()
    );
    let m_v = GzkpMsm::new(v100());
    let m_t = GzkpMsm::new(gtx1080ti());
    assert!(
        MsmEngine::<bn254::G1Config>::plan_dense(&m_t, 1 << 20).total_ns()
            > MsmEngine::<bn254::G1Config>::plan_dense(&m_v, 1 << 20).total_ns()
    );
}

/// CPU baseline magnitudes track the paper's Table 7 256-bit column
/// (0.07 s … 65.7 s over 2^14 … 2^26) within loose bounds.
#[test]
fn cpu_msm_magnitude_anchors() {
    let cpu = CpuMsm::default();
    let t20 = MsmEngine::<bn254::G1Config>::plan_dense(&cpu, 1 << 20).total_ms() / 1e3;
    assert!(t20 > 0.4 && t20 < 6.0, "2^20: {t20} s (paper 1.48)");
    let t24 = MsmEngine::<bn254::G1Config>::plan_dense(&cpu, 1 << 24).total_ms() / 1e3;
    assert!(t24 > 6.0 && t24 < 70.0, "2^24: {t24} s (paper 17.3)");
}
