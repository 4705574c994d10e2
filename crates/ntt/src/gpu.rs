//! GPU NTT engines on the simulator: the shuffle-based baseline
//! (bellperson-like, "BG" in Figure 8) and GZKP's shuffle-less design (§3).
//!
//! Both engines compute bit-identical results through the shared batch
//! machinery in [`crate::batch`]; what differs — and what the simulator
//! prices — is the execution structure:
//!
//! | | baseline (BG) | GZKP |
//! |---|---|---|
//! | batching | fixed 8 iterations | configurable `B` (default 6) |
//! | groups per block | 1 | `G ≥ 4` (shared-memory limited) |
//! | between batches | global-memory shuffle kernel | nothing (stable layout) |
//! | strided loads | avoided via shuffle | turned into coalesced chunk loads by the internal shuffle |
//! | awkward last batch | `2^{N−rem}` blocks of `2^{rem−1}` threads | `G` grows so blocks stay saturated |

use crate::batch::{batched_transform, fixed_batches, Batch};
use crate::cpu::Direction;
use crate::domain::Radix2Domain;
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::device::{field_add_macs, field_mul_macs, Backend, DeviceConfig};
use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec, StageReport};
use gzkp_gpu_sim::memory::strided_phase_sectors;
use gzkp_telemetry::{emit_stage, names, TelemetrySink};

/// Host-side synchronization cost the baseline pays per kernel: bellperson
/// drives each shuffle/butterfly batch from the host with a device sync in
/// between. Calibration anchor: Table 5's bellperson floor (~0.37 ms at
/// 2^14 across 3 kernels).
pub(crate) const BASELINE_HOST_SYNC_NS: f64 = 100_000.0;

/// Common interface of the simulated GPU NTT engines.
pub trait GpuNttEngine<F: PrimeField>: Send + Sync {
    /// Engine label for reports.
    fn name(&self) -> String;

    /// Functional in-place transform, returning the simulated execution
    /// report for the configured device.
    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport;

    /// Analytic cost for an `2^log_n` transform without touching data
    /// (large-scale sweeps; identical cost model as [`Self::transform`]).
    fn cost(&self, log_n: u32) -> StageReport;

    /// [`Self::transform`] plus telemetry: kernels, rolled-up MAC/DRAM
    /// counters, and the butterfly field-multiplication count flow into
    /// `sink`. With a disabled sink (`gzkp_telemetry::NoopSink`) this is
    /// one branch on top of `transform`.
    fn transform_traced(
        &self,
        domain: &Radix2Domain<F>,
        data: &mut [F],
        dir: Direction,
        sink: &dyn TelemetrySink,
    ) -> StageReport {
        let report = self.transform(domain, data, dir);
        if sink.enabled() {
            emit_stage(sink, &report);
            // The modelled count: each of the log N iterations performs
            // N/2 butterflies of one field multiplication.
            let muls = domain.log_n as f64 * (domain.size as f64) / 2.0;
            sink.counter(names::NTT_FIELD_MULS, muls);
        }
        report
    }
}

/// Words (64-bit limbs) per element for field `F`.
fn limbs<F: PrimeField>() -> usize {
    F::NUM_LIMBS
}

/// DRAM sectors to read OR write `n` elements of `m` limbs, fully coalesced.
fn elem_sectors(n: usize, m: usize, dev: &DeviceConfig) -> u64 {
    ((n * m * 8) as u64).div_ceil(dev.sector_bytes)
}

/// Twiddle-table DRAM traffic for a batch: each iteration `i` touches
/// `2^i` distinct values (≤ N/2 total); re-reads hit L2, so we charge each
/// distinct value once per batch (first touch), bounded by table size.
fn twiddle_sectors(batch: Batch, n: usize, m: usize, dev: &DeviceConfig) -> u64 {
    let distinct: usize = (0..batch.iters)
        .map(|ii| (1usize << (batch.start + ii)).min(n / 2))
        .sum();
    elem_sectors(distinct.min(n / 2), m, dev)
}

/// MAC cost of the butterflies of one batch over the whole vector:
/// `iters · N/2` butterflies of 1 mul + 2 adds.
fn batch_macs(batch: Batch, n: usize, m: usize) -> f64 {
    let butterflies = batch.iters as f64 * (n as f64) / 2.0;
    butterflies * (field_mul_macs(m) + 2.0 * field_add_macs(m))
}

// ---------------------------------------------------------------------------
// Baseline engine (bellperson-like)
// ---------------------------------------------------------------------------

/// The shuffle-based GPU baseline: between batches it physically reorders
/// the vector in global memory so every batch reads contiguously; each
/// independent group maps to its own block.
#[derive(Debug, Clone)]
pub struct BaselineGpuNtt {
    /// Device preset to simulate on.
    pub device: DeviceConfig,
    /// Finite-field backend (Integer = stock bellperson; FpLib = the
    /// "BG w. lib" ablation of Fig. 8).
    pub backend: Backend,
    /// Iterations fused per batch (bellperson uses 8).
    pub batch_iters: u32,
}

impl BaselineGpuNtt {
    /// Stock configuration on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            backend: Backend::Integer,
            batch_iters: 8,
        }
    }

    /// Enables the optimized finite-field library ("BG w. lib").
    pub fn with_lib(mut self) -> Self {
        self.backend = Backend::FpLib;
        self
    }

    fn stage(&self, log_n: u32, m: usize) -> StageReport {
        let n = 1usize << log_n;
        let dev = &self.device;
        let mut stage = StageReport::new(format!("ntt-baseline-2^{log_n}"));
        let batches = fixed_batches(log_n, self.batch_iters);
        for (bi, batch) in batches.iter().enumerate() {
            if bi > 0 {
                // Global-memory shuffle: contiguous read, strided scatter
                // write whose per-warp coalescing degrades with the batch
                // stride (this is the 42%–81% per-batch overhead of §2.2).
                let read = elem_sectors(n, m, dev);
                let write = strided_phase_sectors(
                    (n * m) as u64,
                    8,
                    (batch.stride() as u64).min(64),
                    dev.warp_size as u64,
                    dev.sector_bytes,
                );
                let threads = 256u32;
                let blocks = (n / threads as usize).max(1);
                let per_block = BlockCost {
                    mac_ops: 0.0,
                    dram_sectors: (read + write) / blocks as u64,
                    shared_bytes: 0,
                };
                stage.run(
                    dev,
                    &KernelSpec::uniform(
                        format!("shuffle.{bi}"),
                        threads,
                        0,
                        self.backend,
                        m,
                        blocks,
                        per_block,
                    ),
                );
            }
            // Butterfly kernel: one group per block (bellperson's mapping).
            let gsize = batch.group_size();
            let blocks = batch.num_groups(n);
            let threads = (gsize / 2).max(1) as u32;
            let shared = (gsize * m * 8) as u64;
            let macs = batch_macs(*batch, n, m) / blocks as f64;
            let io = 2 * elem_sectors(gsize, m, dev); // post-shuffle: contiguous
            let tw = twiddle_sectors(*batch, n, m, dev) / blocks as u64;
            let per_block = BlockCost {
                mac_ops: macs,
                dram_sectors: io + tw,
                shared_bytes: 2 * (gsize * m * 8) as u64,
            };
            stage.run(
                dev,
                &KernelSpec::uniform(
                    format!("butterfly.{bi}(s={},B={})", batch.start, batch.iters),
                    threads,
                    shared,
                    self.backend,
                    m,
                    blocks,
                    per_block,
                ),
            );
        }
        let kernels = stage.kernels.len() as f64;
        stage.add_fixed("host-sync", kernels * BASELINE_HOST_SYNC_NS);
        stage
    }
}

impl<F: PrimeField> GpuNttEngine<F> for BaselineGpuNtt {
    fn name(&self) -> String {
        match self.backend {
            Backend::Integer => "BG".into(),
            Backend::FpLib => "BG w. lib".into(),
        }
    }

    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport {
        let batches = fixed_batches(domain.log_n, self.batch_iters);
        batched_transform(domain, data, dir, &batches);
        self.stage(domain.log_n, limbs::<F>())
    }

    fn cost(&self, log_n: u32) -> StageReport {
        self.stage(log_n, limbs::<F>())
    }
}

// ---------------------------------------------------------------------------
// GZKP engine (§3)
// ---------------------------------------------------------------------------

/// GZKP's shuffle-less NTT: the global layout never changes; each block
/// takes `G` small independent groups whose union forms `2^B` contiguous
/// length-`G` chunks, loads them coalesced, and performs the stride
/// permutation *internally* while staging into shared memory.
#[derive(Debug, Clone)]
pub struct GzkpNtt {
    /// Device preset to simulate on.
    pub device: DeviceConfig,
    /// Finite-field backend (FpLib is GZKP's own library; Integer is the
    /// "GZKP-no-GM-shuffle" ablation when combined with `groups = 1`).
    pub backend: Backend,
    /// Iterations fused per batch (`B`).
    pub batch_iters: u32,
    /// Independent groups per block (`G`); ≥ 4 gives full L2-line
    /// utilization, 1 reproduces the strided-access ablation.
    pub groups_per_block: u32,
}

impl GzkpNtt {
    /// Full GZKP configuration auto-sized for the field's limb count: picks
    /// `B` and `G ≥ 4` so a block's `G·2^B` elements fit in shared memory.
    pub fn auto<F: PrimeField>(device: DeviceConfig) -> Self {
        let m = F::NUM_LIMBS;
        let budget = (device.shared_mem_per_sm as usize * 9 / 10) / (m * 8);
        let mut b = 6u32;
        let mut g;
        loop {
            g = (budget >> b).min(32);
            if g >= 4 || b == 2 {
                break;
            }
            b -= 1;
        }
        Self {
            device,
            backend: Backend::FpLib,
            batch_iters: b,
            groups_per_block: g.max(1) as u32,
        }
    }

    /// Re-tunes this engine for a different device, preserving the
    /// backend choice. Fleet schedulers move POLY stages between
    /// heterogeneous devices; `B` and `G` must be re-derived from the new
    /// device's shared-memory budget rather than carried over.
    pub fn rebind<F: PrimeField>(&self, device: DeviceConfig) -> Self {
        let mut tuned = Self::auto::<F>(device);
        tuned.backend = self.backend;
        tuned
    }

    /// The "GZKP-no-GM-shuffle" ablation (Fig. 8): shuffle-less layout but
    /// one large group per block and no internal shuffle, so global loads
    /// stay strided.
    pub fn no_internal_shuffle<F: PrimeField>(device: DeviceConfig) -> Self {
        let mut s = Self::auto::<F>(device);
        s.batch_iters += s.groups_per_block.trailing_zeros().min(2);
        s.groups_per_block = 1;
        s.backend = Backend::Integer;
        s
    }

    /// Batch plan: fixed `B`-iteration batches; the *final* short batch is
    /// absorbed by enlarging `G`, so blocks stay big (the "flexible GPU
    /// block assignment" of §5.3).
    pub fn batches(&self, log_n: u32) -> Vec<Batch> {
        fixed_batches(log_n, self.batch_iters)
    }

    fn stage(&self, log_n: u32, m: usize) -> StageReport {
        let mut stage = StageReport::new(format!("ntt-gzkp-2^{log_n}"));
        for spec in build_gzkp_specs(self, log_n, m) {
            stage.run(&self.device, &spec);
        }
        stage
    }
}

/// Builds the per-iteration-batch kernel specs of the GZKP NTT plan
/// (shared by the latency engine and the §7 batched-throughput mode).
fn build_gzkp_specs(engine: &GzkpNtt, log_n: u32, m: usize) -> Vec<KernelSpec> {
    let n = 1usize << log_n;
    let dev = &engine.device;
    let mut specs = Vec::new();
    for (bi, batch) in engine.batches(log_n).iter().enumerate() {
        let gsize = batch.group_size();
        // Grow G for short batches to keep block size constant.
        let target_elems = (engine.groups_per_block as usize) << engine.batch_iters;
        let g = (target_elems / gsize)
            .max(engine.groups_per_block as usize)
            .min(batch.stride().max(1).max(engine.groups_per_block as usize));
        let elems_per_block = (g * gsize).min(n);
        let blocks = (n / elems_per_block).max(1);
        let threads = ((elems_per_block / 2).max(1) as u32).min(dev.max_threads_per_block);
        let shared = (elems_per_block * m * 8) as u64;

        // Global traffic: 2^B chunks of G contiguous elements, read and
        // written once per batch; amplification only when G < 4.
        let io = if batch.start == 0 || g >= 4 {
            2 * elem_sectors(elems_per_block, m, dev)
        } else {
            2 * strided_phase_sectors(
                (elems_per_block * m) as u64,
                8,
                (4 / g.max(1)) as u64,
                dev.warp_size as u64,
                dev.sector_bytes,
            )
            .max(2 * elem_sectors(elems_per_block, m, dev))
        };
        // G = 1 ablation: strided global access, amplification up to 4x.
        let io = if g == 1 && batch.start > 0 {
            2 * strided_phase_sectors(
                (elems_per_block * m) as u64,
                8,
                (batch.stride() as u64).min(4),
                dev.warp_size as u64,
                dev.sector_bytes,
            )
        } else {
            io
        };
        let tw = twiddle_sectors(*batch, n, m, dev) / blocks as u64;
        let macs = batch_macs(*batch, n, m) / blocks as f64;
        let per_block = BlockCost {
            mac_ops: macs,
            dram_sectors: io + tw,
            // Internal shuffle: one extra staging pass through shared
            // memory in each direction.
            shared_bytes: 4 * (elems_per_block * m * 8) as u64,
        };
        specs.push(KernelSpec::uniform(
            format!("butterfly.{bi}(s={},B={},G={g})", batch.start, batch.iters),
            threads,
            shared,
            engine.backend,
            m,
            blocks,
            per_block,
        ));
    }
    specs
}

/// Public spec accessor for the batched-throughput wrapper.
pub fn gzkp_kernel_specs<F: PrimeField>(engine: &GzkpNtt, log_n: u32) -> Vec<KernelSpec> {
    build_gzkp_specs(engine, log_n, F::NUM_LIMBS)
}

impl<F: PrimeField> GpuNttEngine<F> for GzkpNtt {
    fn name(&self) -> String {
        if self.groups_per_block == 1 {
            "GZKP-no-GM-shuffle".into()
        } else {
            "GZKP".into()
        }
    }

    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport {
        let batches = self.batches(domain.log_n);
        batched_transform(domain, data, dir, &batches);
        self.stage(domain.log_n, limbs::<F>())
    }

    fn cost(&self, log_n: u32) -> StageReport {
        self.stage(log_n, limbs::<F>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuNtt;
    use gzkp_ff::fields::{Fr254, Fr381, Fr753};
    use gzkp_gpu_sim::device::v100;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_vec<F: PrimeField>(n: usize, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| F::random(&mut rng)).collect()
    }

    /// All three engines against the CPU reference at 2¹², both directions.
    fn engines_match_cpu<F: PrimeField>(seed: u64) {
        let d = Radix2Domain::<F>::new(1 << 12).unwrap();
        let coeffs = rand_vec::<F>(1 << 12, seed);
        let engines: [&dyn GpuNttEngine<F>; 3] = [
            &BaselineGpuNtt::new(v100()),
            &GzkpNtt::auto::<F>(v100()),
            &GzkpNtt::no_internal_shuffle::<F>(v100()),
        ];
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut expect = coeffs.clone();
            CpuNtt::reference().transform(&d, &mut expect, dir);
            for engine in engines {
                let mut got = coeffs.clone();
                engine.transform(&d, &mut got, dir);
                assert!(
                    got == expect,
                    "{} {dir:?} on {}",
                    engine.name(),
                    F::MODULUS_BITS
                );
            }
        }
    }

    #[test]
    fn engines_match_cpu_reference() {
        // Fr254 and Fr753 run the lazy butterfly, Fr381 the strict one.
        engines_match_cpu::<Fr254>(1);
        engines_match_cpu::<Fr381>(2);
        engines_match_cpu::<Fr753>(3);
    }

    #[test]
    fn inverse_roundtrip_on_gpu_engines() {
        let d = Radix2Domain::<Fr753>::new(256).unwrap();
        let coeffs = rand_vec::<Fr753>(256, 2);
        let engine = GzkpNtt::auto::<Fr753>(v100());
        let mut v = coeffs.clone();
        GpuNttEngine::<Fr753>::transform(&engine, &d, &mut v, Direction::Forward);
        GpuNttEngine::<Fr753>::transform(&engine, &d, &mut v, Direction::Inverse);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn gzkp_beats_baseline_at_scale() {
        // The headline §3 result: shuffle-less + internal shuffle wins.
        let base = BaselineGpuNtt::new(v100());
        let gzkp = GzkpNtt::auto::<Fr254>(v100());
        let t_base = GpuNttEngine::<Fr254>::cost(&base, 20).total_ns();
        let t_gzkp = GpuNttEngine::<Fr254>::cost(&gzkp, 20).total_ns();
        assert!(
            t_gzkp * 1.5 < t_base,
            "GZKP {t_gzkp} ns should clearly beat baseline {t_base} ns"
        );
    }

    #[test]
    fn lib_backend_improves_baseline() {
        let bg = BaselineGpuNtt::new(v100());
        let bg_lib = BaselineGpuNtt::new(v100()).with_lib();
        let t = GpuNttEngine::<Fr254>::cost(&bg, 22).total_ns();
        let t_lib = GpuNttEngine::<Fr254>::cost(&bg_lib, 22).total_ns();
        assert!(t_lib < t);
    }

    #[test]
    fn auto_parameters_respect_shared_memory() {
        let e = GzkpNtt::auto::<Fr753>(v100());
        let elems = (e.groups_per_block as usize) << e.batch_iters;
        assert!(elems * 12 * 8 <= 48 * 1024);
        assert!(e.groups_per_block >= 4);
    }

    #[test]
    fn cost_scales_roughly_linearly() {
        // §5.3: GZKP NTT time is ~linear in N (per-element cost flat).
        let e = GzkpNtt::auto::<Fr254>(v100());
        let t18 = GpuNttEngine::<Fr254>::cost(&e, 18).total_ns();
        let t22 = GpuNttEngine::<Fr254>::cost(&e, 22).total_ns();
        let ratio = t22 / t18; // 16× data, 22/18 more iterations ≈ 19.5×
        assert!(ratio > 10.0 && ratio < 30.0, "ratio {ratio}");
    }
}
