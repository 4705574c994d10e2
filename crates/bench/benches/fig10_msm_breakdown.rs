//! Figure 10: MSM ablation on BLS12-381, V100 model:
//! BG (bellperson-like) → GZKP-no-LB (bucket consolidation only) →
//! GZKP-no-LB w. lib → full GZKP (load-balanced), 2^18 … 2^22, with both
//! dense and sparse (Zcash-like) scalar distributions.

use gzkp_bench::{full_mode, speedup, Recorder};
use gzkp_curves::bls12_381::G1Config;
use gzkp_ff::fields::Fr381;
use gzkp_gpu_sim::{v100, Backend};
use gzkp_msm::{GzkpMsm, MsmEngine, SubMsmPippenger};
use gzkp_workloads::{SparsityProfile, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rec = Recorder::new("fig10_msm_breakdown");
    let dev = v100();
    let mut rng = StdRng::seed_from_u64(10);
    let bg = SubMsmPippenger::new(dev.clone());
    let gzkp = GzkpMsm::new(dev.clone());
    let no_lb_lib = GzkpMsm {
        load_balance: false,
        ..gzkp.clone()
    };
    let no_lb = GzkpMsm {
        backend: Backend::Integer,
        ..no_lb_lib.clone()
    };

    let max_log = if full_mode() { 24 } else { 22 };
    for log_n in 18..=max_log {
        let n = 1usize << log_n;
        for profile in ["dense", "sparse"] {
            let sparsity = if profile == "dense" {
                SparsityProfile::DENSE
            } else {
                SparsityProfile::SPARSE
            };
            let w = WorkloadSpec {
                name: "fig10",
                vector_size: n,
                sparsity,
            };
            let sv = w.sparse_scalar_vec::<Fr381, _>(&mut rng);
            let t_bg = MsmEngine::<G1Config>::plan(&bg, &sv).total_ms();
            let t_no_lb = MsmEngine::<G1Config>::plan(&no_lb, &sv).total_ms();
            let t_no_lb_lib = MsmEngine::<G1Config>::plan(&no_lb_lib, &sv).total_ms();
            let t_gzkp = MsmEngine::<G1Config>::plan(&gzkp, &sv).total_ms();
            rec.row(
                format!("2^{log_n}/{profile}"),
                "ms",
                vec![
                    ("BG".into(), t_bg),
                    ("GZKP-no-LB".into(), t_no_lb),
                    ("GZKP-no-LB-w-lib".into(), t_no_lb_lib),
                    ("GZKP".into(), t_gzkp),
                    ("total-speedup".into(), speedup(t_bg, t_gzkp)),
                ],
            );
        }
    }
    rec.finish();
}
