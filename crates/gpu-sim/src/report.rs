//! Human-readable rendering of simulation reports: per-kernel tables,
//! bottleneck attribution, and device-utilization summaries. Used by the
//! examples and handy when debugging a cost model.

use crate::kernel::{KernelReport, StageReport};
use std::fmt::Write as _;

/// Which resource bounded a kernel's wave time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bottleneck {
    /// MAC throughput (or a straggler block).
    Compute,
    /// DRAM bandwidth.
    Dram,
    /// Shared-memory bandwidth.
    Shared,
    /// Launch/scheduling overhead dominates.
    Overhead,
}

impl Bottleneck {
    /// Classifies a kernel report.
    pub fn of(k: &KernelReport) -> Self {
        let body = k.time_ns - k.overhead_ns;
        if k.overhead_ns > body {
            return Bottleneck::Overhead;
        }
        if k.dram_ns >= k.compute_ns && k.dram_ns >= k.shared_ns {
            Bottleneck::Dram
        } else if k.shared_ns >= k.compute_ns {
            Bottleneck::Shared
        } else {
            Bottleneck::Compute
        }
    }

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::Dram => "dram",
            Bottleneck::Shared => "shared",
            Bottleneck::Overhead => "overhead",
        }
    }
}

/// Renders a stage as an aligned text table with per-kernel bottlenecks.
pub fn render_stage(stage: &StageReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stage {:<28} {:>10.3} ms",
        stage.name,
        stage.total_ms()
    );
    let _ = writeln!(
        out,
        "  {:<36} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "kernel", "time(us)", "cmp(us)", "dram(us)", "ovh(us)", "bound"
    );
    for k in &stage.kernels {
        let _ = writeln!(
            out,
            "  {:<36} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>6}",
            truncate(&k.name, 36),
            k.time_ns / 1e3,
            k.compute_ns / 1e3,
            k.dram_ns / 1e3,
            k.overhead_ns / 1e3,
            Bottleneck::of(k).label()
        );
    }
    out
}

/// Aggregate utilization of a stage on a device: the fraction of the
/// stage's span the respective resource was the binding constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Utilization {
    /// Fraction of time bounded by compute.
    pub compute: f64,
    /// Fraction of time bounded by DRAM.
    pub dram: f64,
    /// Fraction of time bounded by shared memory.
    pub shared: f64,
    /// Fraction of time that is launch/scheduling overhead.
    pub overhead: f64,
}

/// Computes [`Utilization`] for a stage.
pub fn utilization(stage: &StageReport) -> Utilization {
    let total = stage.total_ns();
    if total <= 0.0 {
        return Utilization::default();
    }
    let mut u = Utilization::default();
    for k in &stage.kernels {
        let share = k.time_ns / total;
        match Bottleneck::of(k) {
            Bottleneck::Compute => u.compute += share,
            Bottleneck::Dram => u.dram += share,
            Bottleneck::Shared => u.shared += share,
            Bottleneck::Overhead => u.overhead += share,
        }
    }
    u
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        // Take whole chars: byte-slicing panics mid-codepoint on
        // non-ASCII kernel names.
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{v100, Backend};
    use crate::kernel::{simulate_kernel, BlockCost, KernelSpec, StageReport};

    fn stage_with(macs: f64, sectors: u64) -> StageReport {
        let dev = v100();
        let mut st = StageReport::new("test");
        st.run(
            &dev,
            &KernelSpec::uniform(
                "k",
                256,
                0,
                Backend::Integer,
                4,
                160,
                BlockCost {
                    mac_ops: macs,
                    dram_sectors: sectors,
                    shared_bytes: 0,
                },
            ),
        );
        st
    }

    #[test]
    fn bottleneck_classification() {
        let compute_bound = stage_with(1e7, 1);
        assert_eq!(
            Bottleneck::of(&compute_bound.kernels[0]),
            Bottleneck::Compute
        );
        let dram_bound = stage_with(1.0, 1 << 22);
        assert_eq!(Bottleneck::of(&dram_bound.kernels[0]), Bottleneck::Dram);
        let overhead_bound = stage_with(1.0, 1);
        assert_eq!(
            Bottleneck::of(&overhead_bound.kernels[0]),
            Bottleneck::Overhead
        );
    }

    #[test]
    fn utilization_sums_to_one() {
        let mut st = stage_with(1e7, 1);
        let more = stage_with(1.0, 1 << 22);
        st.kernels.extend(more.kernels);
        let u = utilization(&st);
        let total = u.compute + u.dram + u.shared + u.overhead;
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(u.compute > 0.0 && u.dram > 0.0);
    }

    #[test]
    fn render_contains_kernels() {
        let st = stage_with(1e6, 100);
        let text = render_stage(&st);
        assert!(text.contains("stage test"));
        assert!(text.contains("bound"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn truncate_handles_multibyte_names() {
        // Regression: `&s[..n-1]` sliced bytes and panicked when the cut
        // landed inside a multi-byte char.
        let name = "ntt.bufferfly·größe·φ·大规模·12345678901234567890";
        let t = truncate(name, 36);
        assert!(t.chars().count() <= 36, "{t}");
        assert!(t.ends_with('…'));
        assert_eq!(truncate("короткий", 36), "короткий");
        // Exercise the render path end to end with a non-ASCII kernel name.
        let mut st = stage_with(1e6, 100);
        st.kernels[0].name = name.to_string();
        let text = render_stage(&st);
        assert!(text.contains("größe"));
    }

    #[test]
    fn kernel_simulation_is_deterministic() {
        let dev = v100();
        let spec = KernelSpec::uniform(
            "det",
            128,
            0,
            Backend::FpLib,
            6,
            320,
            BlockCost {
                mac_ops: 5e5,
                dram_sectors: 2048,
                shared_bytes: 4096,
            },
        );
        let a = simulate_kernel(&dev, &spec).time_ns;
        let b = simulate_kernel(&dev, &spec).time_ns;
        assert_eq!(a, b);
    }
}
