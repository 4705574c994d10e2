//! Queue-depth autoscaling with modeled warm-up cost.
//!
//! The policy is deliberately simple — `ceil(demand / jobs_per_host)`
//! clamped to `[min_hosts, max_hosts]` with a cooldown between size
//! changes — because the interesting dynamics live elsewhere: a host the
//! autoscaler adds is *not immediately useful*. It spends
//! [`AutoscalePolicy::warmup`] in the `Warming` state (engine
//! construction, preprocessing-cache fill) before the scheduler may
//! place work on it, so scaling up on a backlog that will clear within
//! the warm-up window buys nothing. The cooldown is what keeps the
//! controller from flapping against that lag.

use std::time::{Duration, Instant};

/// Autoscaler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Lower bound on cluster size; never scales below.
    pub min_hosts: usize,
    /// Upper bound on cluster size; never scales above.
    pub max_hosts: usize,
    /// Demand (queued + in-flight jobs) one host is expected to absorb;
    /// the controller targets `ceil(demand / jobs_per_host)` hosts.
    pub jobs_per_host: f64,
    /// Time a freshly started host spends warming before it accepts
    /// work.
    pub warmup: Duration,
    /// Minimum time between size changes (hysteresis against flapping
    /// while warm-ups are in flight).
    pub cooldown: Duration,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            min_hosts: 1,
            max_hosts: 8,
            jobs_per_host: 4.0,
            warmup: Duration::from_millis(20),
            cooldown: Duration::from_millis(50),
        }
    }
}

/// The controller: pure target computation plus cooldown state.
#[derive(Debug)]
pub(crate) struct Autoscaler {
    policy: AutoscalePolicy,
    last_change: Option<Instant>,
}

impl Autoscaler {
    /// Builds a controller with the given policy.
    pub fn new(policy: AutoscalePolicy) -> Self {
        Self {
            policy,
            last_change: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &AutoscalePolicy {
        &self.policy
    }

    /// Desired host count for `demand` pending + in-flight jobs given
    /// `current` non-dead hosts. Returns `current` (no change) while the
    /// cooldown since the last change is still running; otherwise the
    /// clamped target, recording a change when it differs.
    pub fn target(&mut self, now: Instant, demand: usize, current: usize) -> usize {
        if let Some(last) = self.last_change {
            if now.saturating_duration_since(last) < self.policy.cooldown {
                return current;
            }
        }
        let raw = (demand as f64 / self.policy.jobs_per_host.max(1e-9)).ceil() as usize;
        let target = raw.clamp(self.policy.min_hosts, self.policy.max_hosts);
        if target != current {
            self.last_change = Some(now);
        }
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            min_hosts: 1,
            max_hosts: 4,
            jobs_per_host: 4.0,
            warmup: Duration::from_millis(5),
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn targets_track_demand_with_clamps() {
        let mut a = Autoscaler::new(policy());
        let t0 = Instant::now();
        assert_eq!(a.target(t0, 0, 1), 1, "min clamp");
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.target(t0, 9, 1), 3, "ceil(9/4)");
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.target(t0, 100, 1), 4, "max clamp");
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut a = Autoscaler::new(policy());
        let t0 = Instant::now();
        assert_eq!(a.target(t0, 16, 1), 4);
        // Demand collapses immediately — but we just changed size.
        assert_eq!(a.target(t0 + Duration::from_millis(10), 0, 4), 4);
        // After the cooldown, scale-down proceeds.
        assert_eq!(a.target(t0 + Duration::from_millis(150), 0, 4), 1);
    }
}
