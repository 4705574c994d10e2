//! Device health tracking: a consecutive-failure circuit breaker with a
//! probation re-probe (DESIGN.md §13).
//!
//! Each device moves through three states:
//!
//! ```text
//!            N consecutive failures, or a hard fault (hang)
//!   Healthy ────────────────────────────────────────────────▶ Quarantined
//!      ▲                                                          │
//!      │ probe succeeds                     probation window over  │
//!      └────────────────────── Probation ◀────────────────────────┘
//!                                  │
//!                                  │ probe fails (window doubles,
//!                                  ▼  capped at `max_probation`)
//!                              Quarantined
//! ```
//!
//! While **Quarantined** the device accepts no placements. After the
//! probation window elapses the device becomes **Probation**: the next
//! stage placed on it is the probe. A successful probe restores
//! **Healthy** (and resets the backoff window); a failed probe
//! re-quarantines with a doubled window, so a permanently dead device
//! converges to one probe per `max_probation` instead of eating a stream
//! of retries.

use std::time::{Duration, Instant};

/// Tunables of the circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive soft failures that trip the breaker. Hard faults
    /// (device hang) trip it immediately.
    pub quarantine_after: u32,
    /// Initial quarantine window before the first probation probe.
    pub probation: Duration,
    /// Upper bound on the doubling quarantine window.
    pub max_probation: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine_after: 3,
            probation: Duration::from_millis(250),
            max_probation: Duration::from_secs(8),
        }
    }
}

/// Where a device sits in the circuit-breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HealthState {
    /// Accepting placements normally.
    Healthy,
    /// Rejecting placements until the probation window elapses.
    Quarantined,
    /// Window elapsed; the next placement is the re-probe.
    Probation,
}

/// Per-device circuit-breaker state. Not thread-safe by itself — the
/// fleet wraps each cell in a mutex.
#[derive(Debug, Clone)]
pub(crate) struct DeviceHealth {
    policy: HealthPolicy,
    consecutive: u32,
    state: HealthState,
    /// When the current quarantine window ends (meaningful in
    /// `Quarantined`).
    until: Instant,
    /// Current backoff window; doubles on each failed probe.
    window: Duration,
    /// When the device left `Healthy` (set on quarantine entry, cleared
    /// by the successful probe that restores it).
    degraded_since: Option<Instant>,
    /// Wall-clock time spent degraded over closed intervals.
    degraded_total: Duration,
}

impl DeviceHealth {
    /// A healthy device under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        DeviceHealth {
            policy,
            consecutive: 0,
            state: HealthState::Healthy,
            until: Instant::now(),
            window: policy.probation,
            degraded_since: None,
            degraded_total: Duration::ZERO,
        }
    }

    /// The state at `now`, resolving an expired quarantine window to
    /// [`HealthState::Probation`].
    pub fn state(&mut self, now: Instant) -> HealthState {
        if self.state == HealthState::Quarantined && now >= self.until {
            self.state = HealthState::Probation;
        }
        self.state
    }

    /// Whether the device accepts a placement at `now` (healthy, or due
    /// for its probation probe).
    pub fn available(&mut self, now: Instant) -> bool {
        self.state(now) != HealthState::Quarantined
    }

    /// Records a successful stage: closes the breaker and resets the
    /// backoff window. Returns `true` when this success *recovered* the
    /// device (it was quarantined or probing rather than healthy).
    pub(crate) fn on_success(&mut self, now: Instant) -> bool {
        let recovered = self.state(now) != HealthState::Healthy;
        if let Some(since) = self.degraded_since.take() {
            self.degraded_total += now.saturating_duration_since(since);
        }
        self.consecutive = 0;
        self.state = HealthState::Healthy;
        self.window = self.policy.probation;
        recovered
    }

    /// Records a failed stage. `hard` marks faults that indicate the
    /// device itself is gone (a hang) and trips the breaker immediately.
    /// Returns `true` when this failure newly quarantined the device.
    pub(crate) fn on_failure(&mut self, now: Instant, hard: bool) -> bool {
        let probing = self.state(now) == HealthState::Probation;
        self.consecutive += 1;
        let trip = hard || probing || self.consecutive >= self.policy.quarantine_after;
        if !trip || self.state == HealthState::Quarantined {
            return false;
        }
        if probing {
            // A failed probe doubles the window — a dead device converges
            // to one probe per max_probation.
            self.window = (self.window * 2).min(self.policy.max_probation);
        }
        self.enter_quarantine(now);
        true
    }

    fn enter_quarantine(&mut self, now: Instant) {
        self.state = HealthState::Quarantined;
        self.until = now + self.window;
        self.consecutive = 0;
        if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
        }
    }

    /// Total wall-clock nanoseconds the device has spent degraded
    /// (quarantined or awaiting its recovery probe), including the
    /// still-open interval if it is degraded at `now`.
    pub(crate) fn quarantined_ns(&self, now: Instant) -> u64 {
        let open = self
            .degraded_since
            .map(|since| now.saturating_duration_since(since))
            .unwrap_or(Duration::ZERO);
        (self.degraded_total + open).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            quarantine_after: 3,
            probation: Duration::from_millis(100),
            max_probation: Duration::from_millis(400),
        }
    }

    #[test]
    fn soft_failures_trip_after_threshold() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        assert!(!h.on_failure(t0, false));
        assert!(!h.on_failure(t0, false));
        assert!(h.available(t0), "still healthy below the threshold");
        assert!(h.on_failure(t0, false), "third strike quarantines");
        assert!(!h.available(t0));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        h.on_failure(t0, false);
        h.on_failure(t0, false);
        assert!(!h.on_success(t0), "healthy device does not 'recover'");
        h.on_failure(t0, false);
        h.on_failure(t0, false);
        assert!(h.available(t0), "streak restarted after a success");
    }

    #[test]
    fn hard_fault_trips_immediately() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        assert!(h.on_failure(t0, true));
        assert_eq!(h.state(t0), HealthState::Quarantined);
    }

    #[test]
    fn probation_reopens_and_probe_outcome_decides() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        h.on_failure(t0, true);
        assert!(!h.available(t0));
        let later = t0 + Duration::from_millis(150);
        assert_eq!(h.state(later), HealthState::Probation);
        assert!(h.available(later), "probation admits the probe");
        // Successful probe → healthy with the window reset, reported as
        // a recovery.
        assert!(h.on_success(later));
        assert_eq!(h.state(later), HealthState::Healthy);
    }

    #[test]
    fn quarantined_time_accumulates_until_recovery() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        assert_eq!(h.quarantined_ns(t0), 0);
        h.on_failure(t0, true);
        let mid = t0 + Duration::from_millis(200);
        assert_eq!(h.quarantined_ns(mid), 200_000_000, "open interval counts");
        // Recovery closes the interval; time stops accumulating.
        assert!(h.on_success(mid));
        let later = mid + Duration::from_millis(500);
        assert_eq!(h.quarantined_ns(later), 200_000_000);
        // A second quarantine accumulates on top.
        h.on_failure(later, true);
        assert_eq!(
            h.quarantined_ns(later + Duration::from_millis(100)),
            300_000_000
        );
    }

    #[test]
    fn failed_probe_doubles_the_window_up_to_the_cap() {
        let mut h = DeviceHealth::new(policy());
        let mut now = Instant::now();
        assert!(h.on_failure(now, true)); // window 100ms
        for expected_ms in [200u64, 400, 400, 400] {
            now += Duration::from_millis(500);
            assert_eq!(h.state(now), HealthState::Probation);
            assert!(h.on_failure(now, false), "failed probe re-quarantines");
            assert_eq!(h.window, Duration::from_millis(expected_ms));
        }
    }

    #[test]
    fn hard_fault_quarantine_is_idempotent() {
        let mut h = DeviceHealth::new(policy());
        let t0 = Instant::now();
        assert!(h.on_failure(t0, true));
        assert!(!h.on_failure(t0, true), "already quarantined");
    }
}
