//! The admission-control front door: per-tenant token-bucket rate
//! limiting in front of a weighted-fair queue.
//!
//! Fairness is classic virtual-time WFQ: each tenant carries a virtual
//! finish time, advanced by `1/weight` per admitted job, and the queue
//! always releases the pending job with the smallest finish time. Under
//! saturation, tenants with weights `3:1` therefore complete work in a
//! `3:1` long-run ratio; an idle tenant's backlog never builds credit
//! (its finish time restarts at the current virtual time), so bursts
//! after idleness don't starve steady tenants.
//!
//! Everything is driven by explicit `Instant`s (`admit_at`) so tests can
//! own the clock.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Token-bucket parameters of one tenant's rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admissions per second.
    pub per_sec: f64,
    /// Burst allowance (bucket capacity, in jobs).
    pub burst: f64,
}

/// One tenant of the front door.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id used at submission.
    pub name: String,
    /// Fair-share weight; under saturation tenants complete work
    /// proportionally to their weights.
    pub weight: f64,
    /// Optional rate limit; `None` admits at any rate (fair share still
    /// applies).
    pub rate: Option<RateLimit>,
}

impl TenantSpec {
    /// A tenant with the given weight and no rate limit.
    pub fn new(name: impl Into<String>, weight: f64) -> Self {
        Self {
            name: name.into(),
            weight,
            rate: None,
        }
    }
}

/// Why the front door refused a submission. Typed so callers can
/// distinguish "slow down" ([`AdmissionError::RateLimited`]) from "shed
/// load" ([`AdmissionError::Saturated`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The tenant id was never configured.
    UnknownTenant(String),
    /// The tenant's token bucket is empty.
    RateLimited {
        /// The offending tenant.
        tenant: String,
        /// Time until one token refills — the client's backoff hint.
        retry_after: Duration,
    },
    /// The cluster-wide pending queue is full; independent of tenant.
    Saturated {
        /// Jobs currently pending.
        pending: usize,
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The cluster stopped intake.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            AdmissionError::RateLimited {
                tenant,
                retry_after,
            } => write!(
                f,
                "tenant {tenant:?} rate limited; retry in {:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            AdmissionError::Saturated { pending, capacity } => {
                write!(f, "cluster queue saturated ({pending}/{capacity} pending)")
            }
            AdmissionError::ShuttingDown => write!(f, "cluster is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
    rate: RateLimit,
}

impl TokenBucket {
    fn new(rate: RateLimit, now: Instant) -> Self {
        Self {
            tokens: rate.burst,
            last: now,
            rate,
        }
    }

    fn try_take(&mut self, now: Instant) -> Result<(), Duration> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate.per_sec).min(self.rate.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err(Duration::from_secs_f64(
                deficit / self.rate.per_sec.max(1e-9),
            ))
        }
    }
}

/// Per-tenant admission counters, for reports and fairness tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs admitted into the fair-share queue.
    pub admitted: u64,
    /// Jobs refused by the tenant's rate limit.
    pub rate_limited: u64,
    /// Jobs popped toward a host.
    pub released: u64,
}

struct TenantState<T> {
    weight: f64,
    bucket: Option<TokenBucket>,
    /// Virtual finish time of this tenant's most recently admitted job.
    last_vft: f64,
    backlog: std::collections::VecDeque<(f64, u64, T)>,
    stats: TenantStats,
}

/// The front door itself: rate limits, then a weighted-fair queue of `T`
/// (the cluster queues admitted jobs).
pub(crate) struct FrontDoor<T> {
    tenants: BTreeMap<String, TenantState<T>>,
    /// Current virtual time: the finish time of the last released job.
    v_now: f64,
    seq: u64,
    pending: usize,
    capacity: usize,
    stopped: bool,
}

impl<T> FrontDoor<T> {
    /// Builds a front door over `tenants` with a cluster-wide pending
    /// bound of `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if a tenant weight is not strictly positive or a name
    /// repeats.
    pub fn new(tenants: &[TenantSpec], capacity: usize) -> Self {
        let now = Instant::now();
        let mut map = BTreeMap::new();
        for spec in tenants {
            assert!(
                spec.weight > 0.0,
                "tenant {:?} weight must be positive",
                spec.name
            );
            let prev = map.insert(
                spec.name.clone(),
                TenantState {
                    weight: spec.weight,
                    bucket: spec.rate.map(|r| TokenBucket::new(r, now)),
                    last_vft: 0.0,
                    backlog: std::collections::VecDeque::new(),
                    stats: TenantStats::default(),
                },
            );
            assert!(prev.is_none(), "duplicate tenant {:?}", spec.name);
        }
        Self {
            tenants: map,
            v_now: 0.0,
            seq: 0,
            pending: 0,
            capacity,
            stopped: false,
        }
    }

    /// Runs admission control for one job: saturation bound, then the
    /// tenant's token bucket, then enqueue at virtual finish time
    /// `max(v_now, tenant.last_vft) + 1/weight`.
    ///
    /// # Errors
    ///
    /// Typed backpressure; see [`AdmissionError`].
    pub(crate) fn admit_at(
        &mut self,
        tenant: &str,
        item: T,
        now: Instant,
    ) -> Result<(), AdmissionError> {
        if self.stopped {
            return Err(AdmissionError::ShuttingDown);
        }
        if !self.tenants.contains_key(tenant) {
            return Err(AdmissionError::UnknownTenant(tenant.to_string()));
        }
        if self.pending >= self.capacity {
            return Err(AdmissionError::Saturated {
                pending: self.pending,
                capacity: self.capacity,
            });
        }
        let state = self.tenants.get_mut(tenant).expect("checked above");
        if let Some(bucket) = &mut state.bucket {
            if let Err(retry_after) = bucket.try_take(now) {
                state.stats.rate_limited += 1;
                return Err(AdmissionError::RateLimited {
                    tenant: tenant.to_string(),
                    retry_after,
                });
            }
        }
        let vft = self.v_now.max(state.last_vft) + 1.0 / state.weight;
        state.last_vft = vft;
        state.backlog.push_back((vft, self.seq, item));
        state.stats.admitted += 1;
        self.seq += 1;
        self.pending += 1;
        Ok(())
    }

    /// Releases the pending job with the smallest virtual finish time
    /// (submission order breaks ties) and advances virtual time to it.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let (name, _) = self
            .tenants
            .iter()
            .filter_map(|(name, s)| s.backlog.front().map(|&(vft, seq, _)| (name, (vft, seq))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite vft"))?;
        let name = name.clone();
        let state = self.tenants.get_mut(&name).expect("tenant exists");
        let (vft, _, item) = state.backlog.pop_front().expect("non-empty backlog");
        state.stats.released += 1;
        self.v_now = self.v_now.max(vft);
        self.pending -= 1;
        Some((name, item))
    }

    /// Jobs waiting across all tenants.
    pub fn depth(&self) -> usize {
        self.pending
    }

    /// Stops intake: every further admit returns
    /// [`AdmissionError::ShuttingDown`]; queued jobs still pop.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Admission counters of every tenant, by name.
    pub(crate) fn tenant_stats(&self) -> BTreeMap<String, TenantStats> {
        self.tenants
            .iter()
            .map(|(name, s)| (name.clone(), s.stats))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfq_releases_in_weight_ratio_under_saturation() {
        let tenants = [TenantSpec::new("a", 3.0), TenantSpec::new("b", 1.0)];
        let mut door = FrontDoor::new(&tenants, 1024);
        let now = Instant::now();
        for i in 0..128u64 {
            door.admit_at("a", i, now).unwrap();
            door.admit_at("b", i, now).unwrap();
        }
        let first: Vec<String> = (0..32).map(|_| door.pop().unwrap().0).collect();
        let a = first.iter().filter(|t| *t == "a").count();
        // Exactly 3:1 in the long run; allow one-job edge slack.
        assert!((23..=25).contains(&a), "a got {a}/32 releases");
    }

    #[test]
    fn idle_tenant_gets_no_retroactive_credit() {
        let tenants = [TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)];
        let mut door = FrontDoor::new(&tenants, 1024);
        let now = Instant::now();
        // `a` works alone for a while...
        for i in 0..10u64 {
            door.admit_at("a", i, now).unwrap();
            assert_eq!(door.pop().unwrap().0, "a");
        }
        // ...then `b` arrives with a burst: it must not monopolize.
        for i in 0..4u64 {
            door.admit_at("a", 100 + i, now).unwrap();
            door.admit_at("b", i, now).unwrap();
        }
        let order: Vec<String> = (0..8).map(|_| door.pop().unwrap().0).collect();
        let b_in_first_half = order[..4].iter().filter(|t| *t == "b").count();
        assert!(
            (1..=3).contains(&b_in_first_half),
            "release order {order:?} starves someone"
        );
    }

    #[test]
    fn token_bucket_limits_and_reports_retry_after() {
        let tenants = [TenantSpec {
            rate: Some(RateLimit {
                per_sec: 10.0,
                burst: 2.0,
            }),
            ..TenantSpec::new("a", 1.0)
        }];
        let mut door = FrontDoor::new(&tenants, 1024);
        let t0 = Instant::now();
        door.admit_at("a", 0u64, t0).unwrap();
        door.admit_at("a", 1, t0).unwrap();
        let err = door.admit_at("a", 2, t0).unwrap_err();
        match err {
            AdmissionError::RateLimited {
                retry_after,
                tenant,
            } => {
                assert_eq!(tenant, "a");
                assert!(retry_after > Duration::ZERO && retry_after <= Duration::from_millis(150));
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // One token refills after 100 ms at 10/s.
        door.admit_at("a", 3, t0 + Duration::from_millis(150))
            .unwrap();
        assert_eq!(door.tenant_stats()["a"].rate_limited, 1);
    }

    #[test]
    fn saturation_and_shutdown_are_typed() {
        let tenants = [TenantSpec::new("a", 1.0)];
        let mut door = FrontDoor::new(&tenants, 2);
        let now = Instant::now();
        door.admit_at("a", 0u64, now).unwrap();
        door.admit_at("a", 1, now).unwrap();
        assert!(matches!(
            door.admit_at("a", 2, now),
            Err(AdmissionError::Saturated {
                pending: 2,
                capacity: 2
            })
        ));
        assert!(matches!(
            door.admit_at("nope", 3, now),
            Err(AdmissionError::UnknownTenant(_))
        ));
        door.stop();
        assert!(matches!(
            door.admit_at("a", 4, now),
            Err(AdmissionError::ShuttingDown)
        ));
        // Queued work still drains after stop.
        assert_eq!(door.pop().unwrap().1, 0);
    }
}
