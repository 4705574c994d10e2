//! Byte-budgeted LRU store for GZKP checkpoint tables — the one table
//! cache in the workspace.
//!
//! Proving-key point vectors are fixed per application, so the tables of
//! Algorithm 1 — one level per `M` windows of the host's recoded scalars,
//! `(levels − 1)·M·k` doublings per point, about half what the unsplit
//! 254-bit scalars would need — are built once and
//! reused by every later MSM over the same vector: the paper's
//! setup/execution split. Entries are keyed by the point vector's
//! identity and table shape, charged by their actual table footprint, and
//! evicted least-recently-used once the byte budget is exceeded; hits,
//! misses and evictions are counted per store. A proving service, which
//! juggles many `(curve, proving-key)` pairs at once, owns a store sized
//! by its configuration and attaches it to its engines
//! ([`crate::GzkpMsm::with_store`]); an engine without one uses
//! [`PreprocessStore::process_default`].
//!
//! What is left of ROADMAP "Cold start" lives here. A miss costs the
//! doublings of [`crate::GzkpMsm::preprocess`] again — they are
//! batch-affine and spread over cores, but still the largest part of a
//! cold start — because the key identifies a point vector by address,
//! length and a sampled fingerprint, not by content: the same key loaded
//! at another address (another host, a resumed process) always misses,
//! and nothing is kept across processes. A content digest carried on the
//! key types and tables persisted to a directory are the two open steps;
//! neither is part of this module's contract yet.

use gzkp_curves::{Affine, CurveParams};
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Identity of one checkpoint-table computation: the proof system the
/// tables serve, the curve, the point vector (by address, length, and a
/// sampled content fingerprint guarding against address reuse), plus the
/// `(k, M, windows)` table shape, `windows` being the recoded width. The
/// system tag keeps mixed
/// Groth16 + PLONK streams from sharing entries whose lifetimes differ
/// (a PLONK SRS prefix and a Groth16 query can alias the same base
/// pointer) and makes per-backend hit accounting meaningful.
#[derive(PartialEq, Eq)]
pub(crate) struct PreKey {
    system: u8,
    curve: TypeId,
    ptr: usize,
    len: usize,
    k: u32,
    m: u32,
    windows: usize,
    fingerprint: u64,
}

impl PreKey {
    pub(crate) fn of<C: CurveParams>(
        points: &[Affine<C>],
        k: u32,
        m: u32,
        windows: usize,
        system: u8,
    ) -> Self {
        let mut h = DefaultHasher::new();
        points.len().hash(&mut h);
        for idx in [0, points.len() / 2, points.len().saturating_sub(1)] {
            if let Some(p) = points.get(idx) {
                p.hash(&mut h);
            }
        }
        Self {
            system,
            curve: TypeId::of::<C>(),
            ptr: points.as_ptr() as usize,
            len: points.len(),
            k,
            m,
            windows,
            fingerprint: h.finish(),
        }
    }
}

struct Entry {
    key: PreKey,
    bytes: u64,
    last_used: u64,
    tables: Arc<dyn Any + Send + Sync>,
}

struct StoreInner {
    entries: Vec<Entry>,
    bytes: u64,
    clock: u64,
}

/// A byte-budgeted, least-recently-used cache of checkpoint tables shared
/// by every engine holding an `Arc` to it.
///
/// Lookups bump the entry's LRU stamp; inserts evict the stalest entries
/// until the store fits its budget again. The entry being inserted is
/// never evicted by its own insert, so a single table larger than the
/// whole budget still serves the proof that built it (and is dropped by
/// the next insert).
pub struct PreprocessStore {
    budget: u64,
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PreprocessStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreprocessStore")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes_used())
            .field("entries", &self.len())
            .finish()
    }
}

impl PreprocessStore {
    /// Budget of [`PreprocessStore::process_default`], and the proving
    /// service's default: 256 MiB.
    pub const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

    /// The process-wide store of engines built without
    /// [`crate::GzkpMsm::with_store`].
    pub fn process_default() -> &'static PreprocessStore {
        static STORE: OnceLock<PreprocessStore> = OnceLock::new();
        STORE.get_or_init(|| PreprocessStore::new(Self::DEFAULT_BUDGET_BYTES))
    }

    /// Empty store with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget: budget_bytes,
            inner: Mutex::new(StoreInner {
                entries: Vec::new(),
                bytes: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Locks the entry map, recovering from poison: the store is shared
    /// by every prover in a service, and a worker panicking mid-stage
    /// (between lock and unlock here is only reads and Vec edits that
    /// keep `bytes`/`entries` consistent at every step) must not take the
    /// whole cache down with it.
    fn lock_inner(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes currently charged to resident tables.
    pub fn bytes_used(&self) -> u64 {
        self.lock_inner().bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// Whether the store holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a resident table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build their table.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tables evicted to stay within budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fetches the tables for `key`, building (outside the lock) and
    /// inserting them on a miss. `bytes` is the footprint charged to the
    /// budget.
    pub(crate) fn get_or_insert<C: CurveParams>(
        &self,
        key: PreKey,
        bytes: u64,
        build: impl FnOnce() -> Vec<Vec<Affine<C>>>,
    ) -> Arc<Vec<Vec<Affine<C>>>> {
        {
            let mut st = self.lock_inner();
            st.clock += 1;
            let clock = st.clock;
            if let Some(e) = st.entries.iter_mut().find(|e| e.key == key) {
                if let Ok(hit) = Arc::downcast::<Vec<Vec<Affine<C>>>>(e.tables.clone()) {
                    e.last_used = clock;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return hit;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tables = Arc::new(build());
        let mut st = self.lock_inner();
        // A racing builder may have inserted the same key meanwhile; keep
        // the resident copy and drop ours (both are deterministic).
        if let Some(e) = st.entries.iter_mut().find(|e| e.key == key) {
            if let Ok(hit) = Arc::downcast::<Vec<Vec<Affine<C>>>>(e.tables.clone()) {
                return hit;
            }
        }
        st.clock += 1;
        let clock = st.clock;
        st.entries.push(Entry {
            key,
            bytes,
            last_used: clock,
            tables: tables.clone(),
        });
        st.bytes += bytes;
        while st.bytes > self.budget && st.entries.len() > 1 {
            let (victim, _) = st
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.last_used != clock)
                .min_by_key(|(_, e)| e.last_used)
                .expect("len > 1 and at most one entry carries the current stamp");
            let evicted = st.entries.remove(victim);
            st.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::G1Config;
    use gzkp_curves::random_points;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tables_for(points: &[Affine<G1Config>]) -> Vec<Vec<Affine<G1Config>>> {
        vec![points.to_vec()]
    }

    fn must_hit() -> Vec<Vec<Affine<G1Config>>> {
        panic!("lookup must hit the store")
    }

    #[test]
    fn hit_returns_same_tables() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(1 << 20);
        let a = store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, || tables_for(&pts));
        let b = store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, must_hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn distinct_shapes_are_distinct_entries() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(1 << 20);
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 10, || tables_for(&pts));
        store.get_or_insert(PreKey::of(&pts, 9, 1, 29, 0), 10, || tables_for(&pts));
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes_used(), 20);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut rng = StdRng::seed_from_u64(3);
        let vecs: Vec<Vec<Affine<G1Config>>> = (0..3)
            .map(|_| random_points::<G1Config, _>(4, &mut rng))
            .collect();
        let store = PreprocessStore::new(250);
        store.get_or_insert(PreKey::of(&vecs[0], 8, 1, 32, 0), 100, || {
            tables_for(&vecs[0])
        });
        store.get_or_insert(PreKey::of(&vecs[1], 8, 1, 32, 0), 100, || {
            tables_for(&vecs[1])
        });
        // Touch entry 0 so entry 1 is the LRU victim.
        store.get_or_insert(PreKey::of(&vecs[0], 8, 1, 32, 0), 100, must_hit);
        store.get_or_insert(PreKey::of(&vecs[2], 8, 1, 32, 0), 100, || {
            tables_for(&vecs[2])
        });
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.bytes_used() <= 250);
        // Entry 0 survived (hit), entry 1 was evicted (rebuilds).
        store.get_or_insert(PreKey::of(&vecs[0], 8, 1, 32, 0), 100, must_hit);
        let mut rebuilt = false;
        store.get_or_insert(PreKey::of(&vecs[1], 8, 1, 32, 0), 100, || {
            rebuilt = true;
            tables_for(&vecs[1])
        });
        assert!(rebuilt, "entry 1 must have been evicted");
    }

    #[test]
    fn system_tags_split_entries_and_evict_independently() {
        // The same point vector and table shape under two proof systems
        // (Groth16 = tag 0, PLONK = tag 1) must be two distinct entries —
        // a PLONK SRS prefix aliasing a Groth16 query pointer must not
        // serve the other backend's tables.
        let mut rng = StdRng::seed_from_u64(6);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(250);
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, || tables_for(&pts));
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 1), 100, || tables_for(&pts));
        assert_eq!(store.len(), 2, "per-system entries must not alias");
        assert_eq!(store.misses(), 2);
        // Touch the Groth16 entry, then overflow the budget: the PLONK
        // entry is the LRU victim while the hot Groth16 entry survives.
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, must_hit);
        let extra = random_points::<G1Config, _>(4, &mut rng);
        store.get_or_insert(PreKey::of(&extra, 8, 1, 32, 0), 100, || tables_for(&extra));
        assert_eq!(store.evictions(), 1);
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, must_hit);
        let mut rebuilt = false;
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 1), 100, || {
            rebuilt = true;
            tables_for(&pts)
        });
        assert!(rebuilt, "the cold PLONK entry must have been evicted");
    }

    #[test]
    fn panicking_holder_does_not_poison_the_store() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = Arc::new(PreprocessStore::new(1 << 20));
        store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, || tables_for(&pts));
        // A worker panicking while holding the entry-map lock (stage
        // panics are caught per-job by the service, the thread lives on)
        // marks the mutex poisoned…
        let poisoner = store.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker died holding the store lock");
        })
        .join()
        .unwrap_err();
        assert!(store.inner.is_poisoned(), "precondition: lock is poisoned");
        // …but other provers must keep hitting the cache, not panic.
        let hit = store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 100, must_hit);
        assert_eq!(hit.len(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes_used(), 100);
    }

    #[test]
    fn oversized_entry_is_kept_for_its_builder() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = random_points::<G1Config, _>(4, &mut rng);
        let store = PreprocessStore::new(10);
        let t = store.get_or_insert(PreKey::of(&pts, 8, 1, 32, 0), 1000, || tables_for(&pts));
        assert_eq!(t.len(), 1);
        assert_eq!(store.len(), 1, "sole entry may exceed the budget");
    }
}
