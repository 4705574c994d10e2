//! Deterministic, seed-driven fault injection for chaos testing.
//!
//! A production fleet sees transient kernel faults, transfer timeouts,
//! hung devices and — worst of all — silent data corruption. The
//! simulator cannot wait for real hardware to misbehave, so this module
//! injects those failures *deterministically*: every decision is a pure
//! hash of `(seed, job, stage, attempt)`, which makes a chaos run
//! replayable — the same [`FaultPlan`] seed produces the same fault
//! sequence on every run, regardless of thread interleaving, as long as
//! the per-device rate scales are uniform (a non-uniform scale ties the
//! draw threshold to the placement decision, which worker races may
//! change).
//!
//! The injector never touches engine code. The scheduler that owns a
//! stage asks [`FaultInjector::roll`] *before* running it and acts on the
//! answer: fail the stage, corrupt its output, or run it untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The failure taxonomy the injector can produce (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A kernel aborted mid-flight (ECC error, illegal address, driver
    /// reset). The stage fails; re-running it succeeds.
    KernelFault,
    /// A host↔device copy exceeded its deadline. The stage fails without
    /// producing output.
    TransferTimeout,
    /// The device stopped responding entirely. The stage fails and the
    /// device should be treated as unhealthy (hard quarantine signal).
    DeviceHang,
    /// The stage *appears* to succeed but its output has a flipped limb —
    /// only a verify-before-return guard catches this.
    SilentCorruption,
    /// An entire simulated host vanished (power loss, kernel panic,
    /// preemption). A cluster-level fault: every stage in flight on the
    /// host fails and its queued work must move to a surviving host —
    /// stage schedulers never draw it; the cluster dispatcher rolls it
    /// via [`FaultInjector::roll_host_kill`].
    HostKill,
}

impl FaultKind {
    fn index(self) -> u64 {
        match self {
            FaultKind::KernelFault => 0,
            FaultKind::TransferTimeout => 1,
            FaultKind::DeviceHang => 2,
            FaultKind::SilentCorruption => 3,
            FaultKind::HostKill => 4,
        }
    }

    /// Short label used in error messages and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::KernelFault => "kernel-fault",
            FaultKind::TransferTimeout => "transfer-timeout",
            FaultKind::DeviceHang => "device-hang",
            FaultKind::SilentCorruption => "silent-corruption",
            FaultKind::HostKill => "host-kill",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-kind injection probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability of a [`FaultKind::KernelFault`] per stage execution.
    pub kernel: f64,
    /// Probability of a [`FaultKind::TransferTimeout`].
    pub transfer: f64,
    /// Probability of a [`FaultKind::DeviceHang`].
    pub hang: f64,
    /// Probability of a [`FaultKind::SilentCorruption`] (only drawn for
    /// stages that produce corruptible output).
    pub corrupt: f64,
    /// Probability of a [`FaultKind::HostKill`] per cluster scheduler
    /// tick per host. Zero by default and *not* covered by
    /// [`FaultRates::uniform`]: host kills are a cluster-level event
    /// that single-host chaos runs never draw.
    pub host_kill: f64,
}

impl FaultRates {
    /// The same rate for every *stage-level* fault kind
    /// ([`FaultRates::host_kill`] stays zero).
    pub fn uniform(rate: f64) -> Self {
        Self {
            kernel: rate,
            transfer: rate,
            hang: rate,
            corrupt: rate,
            host_kill: 0.0,
        }
    }
}

/// A reproducible chaos scenario: the seed, the per-kind rates, optional
/// per-device rate multipliers, and the set of permanently dead devices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Baseline per-kind rates.
    pub rates: FaultRates,
    /// Per-device multiplier applied to every rate (`1.0` when absent).
    /// Non-uniform scales make the fault sequence depend on placement;
    /// keep them uniform when a replayable trace matters.
    pub device_scale: Vec<f64>,
    /// Devices that fail every stage placed on them, forever — the
    /// "straggler that never comes back" of the chaos suite.
    pub dead: Vec<usize>,
}

impl FaultPlan {
    /// A plan with the same rate for every kind and no dead devices.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rates: FaultRates::uniform(rate),
            device_scale: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Parses the `zkserve --chaos` spec: `seed[,key=value...]` with keys
    /// `rate` (all kinds), `kernel`, `transfer`, `hang`, `corrupt`
    /// (fractions) and `dead` (`+`-separated device indices).
    ///
    /// ```
    /// use gzkp_gpu_sim::fault::FaultPlan;
    /// let plan = FaultPlan::parse("42,kernel=0.2,hang=0.05,dead=1").unwrap();
    /// assert_eq!(plan.seed, 42);
    /// assert_eq!(plan.rates.kernel, 0.2);
    /// assert_eq!(plan.dead, vec![1]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(',');
        let seed_tok = parts.next().unwrap_or("");
        let seed: u64 = seed_tok
            .trim()
            .parse()
            .map_err(|_| format!("chaos spec must start with a seed, got {seed_tok:?}"))?;
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let parse_rate = |key: &str, val: &str| -> Result<f64, String> {
            let r: f64 = val
                .parse()
                .map_err(|_| format!("{key}: not a number: {val:?}"))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{key}: rate {r} outside [0, 1]"));
            }
            Ok(r)
        };
        for tok in parts {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            match key.trim() {
                "rate" => plan.rates = FaultRates::uniform(parse_rate("rate", val)?),
                "kernel" => plan.rates.kernel = parse_rate("kernel", val)?,
                "transfer" => plan.rates.transfer = parse_rate("transfer", val)?,
                "hang" => plan.rates.hang = parse_rate("hang", val)?,
                "corrupt" => plan.rates.corrupt = parse_rate("corrupt", val)?,
                "hostkill" => plan.rates.host_kill = parse_rate("hostkill", val)?,
                "dead" => {
                    for d in val.split('+') {
                        plan.dead.push(
                            d.parse()
                                .map_err(|_| format!("dead: not a device index: {d:?}"))?,
                        );
                    }
                }
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        Ok(plan)
    }

    fn scale(&self, device: Option<usize>) -> f64 {
        device
            .and_then(|d| self.device_scale.get(d).copied())
            .unwrap_or(1.0)
    }
}

/// One injected fault, as recorded in the replayable log. Dead-device
/// hits are *not* logged (they are placement events, not draws), so two
/// runs of the same seeded plan produce identical logs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Scheduler-assigned job id.
    pub job: u64,
    /// Stage label the fault hit (`"poly"`, `"msm"`, …).
    pub stage: String,
    /// The job's fault-attempt index when the draw happened.
    pub attempt: u32,
    /// What was injected.
    pub kind: FaultKind,
}

/// Aggregate injection counts for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injected [`FaultKind::KernelFault`]s.
    pub kernel: u64,
    /// Injected [`FaultKind::TransferTimeout`]s.
    pub transfer: u64,
    /// Injected [`FaultKind::DeviceHang`]s.
    pub hang: u64,
    /// Injected [`FaultKind::SilentCorruption`]s.
    pub corrupt: u64,
    /// Injected [`FaultKind::HostKill`]s (cluster runs only).
    pub host_kill: u64,
    /// Stages refused because their device is in [`FaultPlan::dead`].
    pub dead_hits: u64,
}

impl FaultSummary {
    /// Total hash-drawn injections (dead-device hits excluded).
    pub fn injected(&self) -> u64 {
        self.kernel + self.transfer + self.hang + self.corrupt + self.host_kill
    }
}

/// The deterministic fault oracle one scheduler owns.
///
/// Thread-safe; decisions are pure functions of the plan and the roll
/// arguments, so concurrent rolls never race each other's outcomes.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counts: [AtomicU64; 5],
    dead_hits: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
}

/// SplitMix64 — a tiny, well-mixed deterministic hash finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the stage label, so the draw distinguishes stages without
/// relying on `DefaultHasher` stability.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultInjector {
    /// Builds the oracle for one chaos run.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            counts: Default::default(),
            dead_hits: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Uniform draw in `[0, 1)` for one `(job, stage, attempt, kind)`
    /// decision — device-independent, so the fault sequence survives
    /// placement races.
    fn unit(&self, job: u64, stage: &str, attempt: u32, kind: FaultKind) -> f64 {
        let mut h = self.plan.seed;
        for word in [job, fnv1a(stage), u64::from(attempt), kind.index()] {
            h = splitmix64(h ^ word);
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one stage execution.
    ///
    /// `device` is the placement (pass `None` off-fleet or on the host
    /// CPU fallback, which is never injected with device faults but keeps
    /// drawing stage faults when `device` is `Some`). A device listed in
    /// [`FaultPlan::dead`] always returns [`FaultKind::DeviceHang`]
    /// without consuming a draw or logging an event. `corruptible` gates
    /// the [`FaultKind::SilentCorruption`] draw to stages whose output
    /// the caller can actually corrupt.
    pub fn roll(
        &self,
        device: Option<usize>,
        job: u64,
        stage: &str,
        attempt: u32,
        corruptible: bool,
    ) -> Option<FaultKind> {
        if let Some(d) = device {
            if self.plan.dead.contains(&d) {
                self.dead_hits.fetch_add(1, Ordering::Relaxed);
                return Some(FaultKind::DeviceHang);
            }
        }
        let scale = self.plan.scale(device);
        let candidates = [
            (FaultKind::DeviceHang, self.plan.rates.hang),
            (FaultKind::TransferTimeout, self.plan.rates.transfer),
            (FaultKind::KernelFault, self.plan.rates.kernel),
            (FaultKind::SilentCorruption, self.plan.rates.corrupt),
        ];
        for (kind, rate) in candidates {
            if kind == FaultKind::SilentCorruption && !corruptible {
                continue;
            }
            if self.unit(job, stage, attempt, kind) < rate * scale {
                self.counts[kind.index() as usize].fetch_add(1, Ordering::Relaxed);
                self.log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(FaultEvent {
                        job,
                        stage: stage.to_string(),
                        attempt,
                        kind,
                    });
                return Some(kind);
            }
        }
        None
    }

    /// [`FaultInjector::roll`] keyed by a propagated [`crate::TraceContext`].
    ///
    /// Delegates to `roll` with the context's fields, so the draw
    /// sequence is identical to calling `roll` directly — existing chaos
    /// seeds keep producing the same fault logs.
    pub fn roll_ctx(
        &self,
        ctx: &crate::context::TraceContext,
        attempt: u32,
        corruptible: bool,
    ) -> Option<FaultKind> {
        self.roll(ctx.device, ctx.job, ctx.stage, attempt, corruptible)
    }

    /// Decides whether the cluster kills `host` at scheduler tick
    /// `tick`. Drawn from the same seeded hash stream as stage faults
    /// (keyed on the tick, the `"host"` stage label, and the host index),
    /// so a cluster chaos run replays the identical kill sequence. Stage
    /// schedulers never call this — only the cluster dispatcher does,
    /// once per `(host, tick)` pair.
    pub fn roll_host_kill(&self, host: usize, tick: u64) -> bool {
        let rate = self.plan.rates.host_kill;
        if rate <= 0.0 {
            return false;
        }
        if self.unit(tick, "host", host as u32, FaultKind::HostKill) < rate {
            self.counts[FaultKind::HostKill.index() as usize].fetch_add(1, Ordering::Relaxed);
            self.log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(FaultEvent {
                    job: tick,
                    stage: format!("host{host}"),
                    attempt: host as u32,
                    kind: FaultKind::HostKill,
                });
            return true;
        }
        false
    }

    /// Whether `device` is in the plan's dead set.
    pub fn is_dead(&self, device: usize) -> bool {
        self.plan.dead.contains(&device)
    }

    /// Aggregate injection counts.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            kernel: self.counts[0].load(Ordering::Relaxed),
            transfer: self.counts[1].load(Ordering::Relaxed),
            hang: self.counts[2].load(Ordering::Relaxed),
            corrupt: self.counts[3].load(Ordering::Relaxed),
            host_kill: self.counts[4].load(Ordering::Relaxed),
            dead_hits: self.dead_hits.load(Ordering::Relaxed),
        }
    }

    /// The injection log, sorted by `(job, stage, attempt, kind)` so two
    /// runs of the same plan compare equal regardless of scheduling
    /// order.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut log = self
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        log.sort();
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_placement_independent() {
        let a = FaultInjector::new(FaultPlan::uniform(42, 0.3));
        let b = FaultInjector::new(FaultPlan::uniform(42, 0.3));
        for job in 0..50u64 {
            for stage in ["poly", "msm"] {
                for attempt in 0..4 {
                    assert_eq!(
                        a.roll(Some(0), job, stage, attempt, true),
                        b.roll(Some(1), job, stage, attempt, true),
                        "job {job} {stage} attempt {attempt}"
                    );
                }
            }
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.summary(), b.summary());
        assert!(a.summary().injected() > 0, "30% over 400 draws must fire");
    }

    #[test]
    fn seed_changes_the_sequence() {
        let a = FaultInjector::new(FaultPlan::uniform(1, 0.3));
        let b = FaultInjector::new(FaultPlan::uniform(2, 0.3));
        for job in 0..60u64 {
            a.roll(None, job, "msm", 0, true);
            b.roll(None, job, "msm", 0, true);
        }
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let never = FaultInjector::new(FaultPlan::uniform(7, 0.0));
        let always = FaultInjector::new(FaultPlan::uniform(7, 1.0));
        for job in 0..20u64 {
            assert_eq!(never.roll(Some(0), job, "poly", 0, true), None);
            // Hang has the highest priority in the draw order.
            assert_eq!(
                always.roll(Some(0), job, "poly", 0, true),
                Some(FaultKind::DeviceHang)
            );
        }
        assert_eq!(never.summary().injected(), 0);
        assert_eq!(always.summary().hang, 20);
    }

    #[test]
    fn corruption_requires_a_corruptible_stage() {
        let plan = FaultPlan {
            seed: 3,
            rates: FaultRates {
                corrupt: 1.0,
                ..FaultRates::default()
            },
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.roll(Some(0), 1, "poly", 0, false), None);
        assert_eq!(
            inj.roll(Some(0), 1, "msm", 0, true),
            Some(FaultKind::SilentCorruption)
        );
    }

    #[test]
    fn dead_device_always_hangs_without_consuming_draws() {
        let plan = FaultPlan {
            seed: 9,
            rates: FaultRates::uniform(0.0),
            dead: vec![1],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        for job in 0..5u64 {
            assert_eq!(
                inj.roll(Some(1), job, "poly", 0, false),
                Some(FaultKind::DeviceHang)
            );
            assert_eq!(inj.roll(Some(0), job, "poly", 0, false), None);
        }
        let s = inj.summary();
        assert_eq!(s.dead_hits, 5);
        assert_eq!(s.injected(), 0, "dead hits are not draws");
        assert!(inj.events().is_empty(), "dead hits are not logged");
        assert!(inj.is_dead(1) && !inj.is_dead(0));
    }

    #[test]
    fn device_scale_shifts_the_threshold_not_the_draw() {
        let mut plan = FaultPlan::uniform(11, 0.5);
        plan.device_scale = vec![1.0, 0.0];
        let inj = FaultInjector::new(plan);
        let mut dev0_fired = 0;
        for job in 0..40u64 {
            if inj.roll(Some(0), job, "msm", 0, false).is_some() {
                dev0_fired += 1;
            }
            assert_eq!(inj.roll(Some(1), job, "msm", 0, false), None);
        }
        assert!(dev0_fired > 0, "scale 1.0 must keep firing");
    }

    #[test]
    fn roll_ctx_matches_roll() {
        use crate::context::TraceContext;
        let a = FaultInjector::new(FaultPlan::uniform(42, 0.3));
        let b = FaultInjector::new(FaultPlan::uniform(42, 0.3));
        for job in 0..30u64 {
            for stage in ["poly", "msm"] {
                let ctx = TraceContext::new(job, stage).on_device(Some(0));
                assert_eq!(
                    a.roll_ctx(&ctx, 0, stage == "msm"),
                    b.roll(Some(0), job, stage, 0, stage == "msm"),
                );
            }
        }
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn parse_round_trips_the_cli_spec() {
        assert_eq!(FaultPlan::parse("5").unwrap(), FaultPlan::uniform(5, 0.0));
        let plan = FaultPlan::parse("42,rate=0.1,hang=0.02,dead=1+3").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rates.kernel, 0.1);
        assert_eq!(plan.rates.hang, 0.02);
        assert_eq!(plan.dead, vec![1, 3]);
        let plan = FaultPlan::parse("7,hostkill=0.25").unwrap();
        assert_eq!(plan.rates.host_kill, 0.25);
        assert_eq!(plan.rates.kernel, 0.0, "hostkill leaves stage rates alone");
        for bad in ["", "x", "1,rate=2", "1,rate=x", "1,bogus=1", "1,dead=x"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn host_kill_draws_are_deterministic_and_separate_from_stage_faults() {
        let mut plan = FaultPlan::uniform(13, 0.0);
        plan.rates.host_kill = 0.3;
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let mut fired = 0;
        for tick in 0..60u64 {
            for host in 0..3usize {
                let hit = a.roll_host_kill(host, tick);
                assert_eq!(hit, b.roll_host_kill(host, tick), "host {host} tick {tick}");
                fired += u64::from(hit);
            }
        }
        assert!(fired > 0, "30% over 180 draws must fire");
        assert_eq!(a.summary().host_kill, fired);
        assert_eq!(a.summary().injected(), fired);
        assert_eq!(a.events(), b.events());
        // Stage rolls stay untouched by the host-kill rate.
        assert_eq!(a.roll(Some(0), 1, "msm", 0, true), None);
        // And a zero host-kill rate never fires or logs.
        let quiet = FaultInjector::new(FaultPlan::uniform(13, 0.0));
        for tick in 0..50 {
            assert!(!quiet.roll_host_kill(0, tick));
        }
        assert_eq!(quiet.summary().host_kill, 0);
    }
}
