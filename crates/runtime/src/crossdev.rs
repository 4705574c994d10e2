//! Cross-device single-proof MSM: one MSM's bucket-range shards executed
//! on *distinct* devices with partial sums merged over the simulated
//! NVLink P2P path — the runtime realization of the paper's multi-GPU
//! scaling (Table 4), shaped like SZKP's cross-chip partitioning with
//! on-fabric aggregation.
//!
//! Bit-identity contract: the window size `k`, checkpoint interval `M`,
//! checkpoint tables, bucket loads and range boundaries are all frozen
//! once by the *reference* engine ([`gzkp_msm::GzkpMsm::shard_task`]);
//! the claimed devices only price kernels and carry traffic. The shard
//! count is the reference engine's memory plan
//! ([`gzkp_msm::GzkpMsm::shard_plan`]) raised to one shard per claimed
//! device; shard `i` runs on device `i mod d` of the `d` claimed. Each
//! partial is an exact group element and partials merge in range order,
//! so the result is byte-identical to the reference engine's own
//! single-device run for every device count, placement and thread
//! count.

use crate::fleet::FleetRuntime;
use gzkp_curves::{Affine, CurveParams};
use gzkp_gpu_sim::kernel::StageReport;
use gzkp_msm::gzkp::MSM_HOST_OVERHEAD_NS;
use gzkp_msm::{GzkpMsm, MsmEngine, MsmRun, MsmStats, ScalarVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated time of one partial-sum merge addition on the primary
/// device: a single full Jacobian PADD is launch-latency-dominated.
pub(crate) const P2P_MERGE_KERNEL_NS: f64 = 10_000.0;

/// An [`MsmEngine`] that runs each MSM as bucket-range shards across the
/// devices it was bound to, recording uploads/kernels on every device's
/// command streams and the partial-sum merges on the fleet's P2P path.
///
/// Functionally it computes exactly what its reference [`GzkpMsm`]
/// computes; only the simulated schedule differs. Slots into
/// `gzkp_groth16::ProverEngines` unchanged.
pub struct CrossDeviceMsm {
    reference: GzkpMsm,
    fleet: Arc<FleetRuntime>,
    devices: Vec<usize>,
    label: String,
    calls: AtomicU64,
}

impl CrossDeviceMsm {
    /// Binds `reference`'s MSMs to `devices` (fleet indices, primary
    /// first) of `fleet`.
    ///
    /// # Panics
    ///
    /// Panics on an empty device list.
    pub fn new(
        reference: GzkpMsm,
        fleet: Arc<FleetRuntime>,
        devices: Vec<usize>,
        label: impl Into<String>,
    ) -> Self {
        assert!(!devices.is_empty(), "cross-device MSM needs devices");
        CrossDeviceMsm {
            reference,
            fleet,
            devices,
            label: label.into(),
            calls: AtomicU64::new(0),
        }
    }

    /// The device owning each shard of an `n`-point MSM, in range (and
    /// merge) order: the memory-driven count kept, raised to every
    /// claimed device getting work, shards dealt round-robin. Ranges are
    /// balanced by entry load, so each device gets a nearly equal share.
    fn shard_owners<C: CurveParams>(&self, n: usize) -> Vec<usize> {
        let shards = self.reference.shard_plan::<C>(n).max(self.devices.len());
        (0..shards)
            .map(|i| self.devices[i % self.devices.len()])
            .collect()
    }

    /// A clone of the reference engine re-priced for fleet device `dev`.
    fn engine_on(&self, dev: usize) -> GzkpMsm {
        GzkpMsm {
            device: self.fleet.config(dev).clone(),
            ..self.reference.clone()
        }
    }
}

impl<C: CurveParams> MsmEngine<C> for CrossDeviceMsm {
    fn name(&self) -> String {
        format!("GZKP-crossdev(x{})", self.devices.len())
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        assert_eq!(points.len(), scalars.len());
        let n = points.len();
        let owners = self.shard_owners::<C>(n);
        let task = self
            .reference
            .shard_task::<C>(points, scalars, owners.len());
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let label = format!("{}.x{}", self.label, call);

        // Functional partials: exact group elements, deterministic at
        // every thread count.
        let partials: Vec<(gzkp_curves::Projective<C>, MsmStats)> =
            rayon::map(0..task.num_ranges(), |i| task.partial(scalars, i));

        // Simulated schedule: each device streams its passes on its own
        // upload/execute streams (pass i+1's upload hides under pass i's
        // kernel), then every non-primary partial crosses the P2P path
        // and a merge addition runs on the primary once it lands.
        let mut report = StageReport::new(format!(
            "msm-crossdev(x{} dev, x{} shards)",
            self.devices.len(),
            task.num_ranges()
        ));
        report.add_fixed("host-sync+transfer", MSM_HOST_OVERHEAD_NS);
        let primary = self.devices[0];
        let mut done_at = vec![0.0f64; owners.len()];
        for &dev in &self.devices {
            let engine = self.engine_on(dev);
            let mine: Vec<usize> = (0..owners.len()).filter(|&i| owners[i] == dev).collect();
            for &i in &mine {
                let kernel_ns = task.range_kernel_ns(&engine, i);
                done_at[i] = self.fleet.record_stage(
                    dev,
                    &format!("{label}.shard{i}"),
                    task.pass_bytes_for(i),
                    kernel_ns,
                    0,
                );
                report.add_fixed(format!("shard{i}@dev{dev}"), kernel_ns);
            }
            self.fleet.record_shards(dev, mine.len() as u64);
        }
        let mut p2p_ns = 0.0f64;
        for (i, &dev) in owners.iter().enumerate() {
            if dev == primary {
                continue;
            }
            let arrival = self.fleet.record_p2p(
                dev,
                primary,
                &format!("{label}.merge{i}"),
                task.partial_bytes(),
                done_at[i],
            );
            p2p_ns = p2p_ns.max(arrival - done_at[i]);
            self.fleet.record_stage(
                primary,
                &format!("{label}.merge{i}"),
                0,
                P2P_MERGE_KERNEL_NS,
                0,
            );
        }
        if p2p_ns > 0.0 {
            report.add_fixed("p2p-merge (slowest link)", p2p_ns);
        }
        // Merged result reads back from the primary only.
        self.fleet.record_stage(
            primary,
            &format!("{label}.result"),
            0,
            0.0,
            task.partial_bytes(),
        );

        let merged = task.merge(&partials.iter().map(|(p, _)| *p).collect::<Vec<_>>());
        let mut stats = MsmStats {
            shards: task.num_ranges() as u64,
            ..MsmStats::default()
        };
        for (_, s) in &partials {
            stats.batch_padds += s.batch_padds;
            stats.batch_inversions += s.batch_inversions;
        }
        MsmRun {
            result: merged,
            report,
            stats,
        }
    }

    fn emit_msm_telemetry(
        &self,
        points: &[Affine<C>],
        scalars: &ScalarVec,
        run: &MsmRun<C>,
        sink: &dyn gzkp_telemetry::TelemetrySink,
    ) {
        MsmEngine::<C>::emit_msm_telemetry(&self.reference, points, scalars, run, sink);
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        MsmEngine::<C>::plan(&self.reference, scalars)
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        MsmEngine::<C>::plan_dense(&self.reference, n)
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        MsmEngine::<C>::memory_bytes(&self.reference, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::{Fr, G1Config};
    use gzkp_curves::random_points;
    use gzkp_curves::t753;
    use gzkp_ff::Field;
    use gzkp_gpu_sim::device::{gtx1080ti, v100};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Vec<Affine<G1Config>>, ScalarVec) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = random_points::<G1Config, _>(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        (pts, ScalarVec::from_field(&scalars))
    }

    #[test]
    fn cross_device_result_matches_single_device_bytes() {
        let (pts, sv) = setup(96, 7);
        let reference = GzkpMsm::new(v100());
        let single = reference.msm(&pts, &sv);
        for devs in [2usize, 3, 4] {
            let fleet = Arc::new(FleetRuntime::new(vec![v100(); devs]));
            let engine = CrossDeviceMsm::new(
                reference.clone(),
                fleet.clone(),
                (0..devs).collect(),
                "job0.msm",
            );
            let run = MsmEngine::<G1Config>::msm(&engine, &pts, &sv);
            assert_eq!(
                gzkp_curves::compress(&run.result.to_affine()),
                gzkp_curves::compress(&single.result.to_affine()),
                "{devs} devices"
            );
            assert_eq!(run.stats.shards, devs as u64);
            // Every device computed, and the partial merges crossed P2P.
            assert_eq!(fleet.p2p_transfers(), devs as u64 - 1);
            let util = fleet.utilization();
            for d in 0..devs {
                assert!(util.devices[d].kernel_ns > 0.0, "dev{d} idle");
            }
        }
    }

    #[test]
    fn p2p_merges_overlap_remote_kernels() {
        // With two devices, dev1's merge transfer must not serialize
        // after dev0's whole schedule: the makespan stays close to one
        // device's share of the kernels, not their sum. Needs enough
        // points that kernels dominate launch/link latency.
        let (pts, sv) = setup(4096, 8);
        let reference = GzkpMsm::new(v100());
        let solo_fleet = Arc::new(FleetRuntime::new(vec![v100()]));
        let solo = CrossDeviceMsm::new(reference.clone(), solo_fleet.clone(), vec![0], "job0.msm");
        MsmEngine::<G1Config>::msm(&solo, &pts, &sv);
        let solo_ns = solo_fleet.utilization().elapsed_ns;

        let fleet = Arc::new(FleetRuntime::new(vec![v100(), v100()]));
        let dual = CrossDeviceMsm::new(reference, fleet.clone(), vec![0, 1], "job0.msm");
        MsmEngine::<G1Config>::msm(&dual, &pts, &sv);
        let dual_ns = fleet.utilization().elapsed_ns;
        assert!(
            dual_ns < solo_ns,
            "2 devices {dual_ns} should beat 1 device {solo_ns}"
        );
    }

    fn engine_over(reference: GzkpMsm, devices: Vec<usize>) -> CrossDeviceMsm {
        let fleet = Arc::new(FleetRuntime::new(vec![reference.device.clone(); 4]));
        CrossDeviceMsm::new(reference, fleet, devices, "job0.msm")
    }

    #[test]
    fn a_fitting_msm_gets_one_shard_per_claimed_device() {
        let reference = GzkpMsm::new(v100());
        assert_eq!(reference.shard_plan::<G1Config>(1 << 16), 1, "fits whole");
        let engine = engine_over(reference, vec![2, 0, 1]);
        assert_eq!(engine.shard_owners::<G1Config>(1 << 16), vec![2, 0, 1]);
    }

    #[test]
    fn a_small_msm_runs_whole_on_one_claimed_device() {
        let reference = GzkpMsm::new(v100());
        assert_eq!(reference.shard_plan::<G1Config>(1 << 16), 1, "fits whole");
        let solo = engine_over(reference, vec![1]);
        assert_eq!(solo.shard_owners::<G1Config>(1 << 16), vec![1]);
    }

    #[test]
    fn the_memory_driven_shard_count_is_kept_and_every_shard_owned() {
        // 2^25 points at 753 bits exceed a 1080 Ti whole, so memory asks
        // for more shards than the two claimed devices; the deal wraps.
        let reference = GzkpMsm::new(gtx1080ti());
        let planned = reference.shard_plan::<t753::G1Config>(1 << 25);
        assert!(planned > 2, "memory-driven split, got {planned}");
        let owners = engine_over(reference, vec![0, 1]).shard_owners::<t753::G1Config>(1 << 25);
        assert_eq!(owners.len(), planned);
        for (i, &dev) in owners.iter().enumerate() {
            assert_eq!(dev, i % 2, "shard {i}");
        }
    }
}
