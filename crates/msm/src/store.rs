//! Byte-budgeted LRU store for GZKP checkpoint tables — the one table
//! cache in the workspace.
//!
//! Proving-key point vectors are fixed per application, so the tables of
//! Algorithm 1 — one level per `M` windows of the host's recoded scalars
//! at the host window ([`crate::host_window_size`]), `(levels − 1)·M·k`
//! doublings per point — are built once and reused by every later MSM
//! over the same vector: the paper's setup/execution split. Entries are
//! keyed by the point vector and table shape, charged the bytes of their
//! compact entries ([`Tables`]: `x` and `y` of every non-identity point
//! at every level; an unused key column is one byte of the position
//! index and costs no entry), and
//! evicted least-recently-used once the byte budget is exceeded; hits,
//! misses and evictions are counted per store. A proving service, which
//! juggles many `(curve, proving-key)` pairs at once, owns a store sized
//! by its configuration and attaches it to its engines
//! ([`crate::GzkpMsm::with_store`]); an engine without one uses
//! `PreprocessStore::process_default`.
//!
//! Lookup is address-keyed: a point vector is named by its address, so
//! the same key loaded at another address (another host, a resumed
//! process) always misses, and nothing is kept across processes. A
//! request for a prefix of a stored vector — a KZG commitment to fewer
//! coefficients than the SRS holds — is served by the longer entry, so
//! one SRS keeps one table set; a request longer than the stored entry
//! misses, and its tables replace the shorter ones. Every hit is checked
//! against content: the requested points and their identity pattern are
//! compared with the stored level 0's prefix — O(n), tens of µs per MSM,
//! against
//! `(levels − 1)·M·k` doublings per point for a rebuild — and a vector
//! mutated in place, or freed and reallocated at the same address, is a
//! miss that replaces the entry. A content digest carried on the key
//! types and tables persisted to a directory are ROADMAP "Cold start"'s
//! two open steps.

use gzkp_curves::{Affine, CurveParams};
use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Where one checkpoint-table computation is looked up: the proof system
/// the tables serve, the curve, the point vector (by address and length)
/// and the `(k, M, windows)` table shape, `k` being the host window and
/// `windows` the recoded width. The system tag keeps mixed Groth16 +
/// PLONK streams from sharing entries whose lifetimes differ (a PLONK SRS
/// prefix and a Groth16 query can alias the same base pointer) and makes
/// per-backend hit accounting meaningful. What the vector holds is
/// checked on the hit ([`Tables::holds`]), not named here.
#[derive(PartialEq, Eq)]
pub(crate) struct PreKey {
    system: u8,
    curve: TypeId,
    ptr: usize,
    len: usize,
    k: u32,
    m: u32,
    windows: usize,
}

impl PreKey {
    pub(crate) fn of<C: CurveParams>(
        points: &[Affine<C>],
        k: u32,
        m: u32,
        windows: usize,
        system: u8,
    ) -> Self {
        Self {
            system,
            curve: TypeId::of::<C>(),
            ptr: points.as_ptr() as usize,
            len: points.len(),
            k,
            m,
            windows,
        }
    }

    /// Whether tables stored under `self` can serve `request`: the same
    /// vector and shape, and at least as many points — a prefix request is
    /// served by the longer entry.
    fn serves(&self, request: &PreKey) -> bool {
        self.len >= request.len
            && PreKey {
                len: request.len,
                ..*self
            } == *request
    }
}

/// Checkpoint tables in compact form, holding only what the fold reads:
/// level `c` stores `2^{c·M·k}·Pᵢ` of every *non-identity* `Pᵢ`, as its
/// `x` and `y` coordinates, in position order. Unused key columns (the
/// identity) are stored at no level: `2^j·P` is the identity only if `P`
/// is — the groups here have odd order — so a position index maps a
/// position to its slot at every level with two reads: one byte per
/// position, its rank within its run of 64 and whether it holds a point,
/// and one count of the points before each run. A BN254 G1 entry is 64
/// bytes, not the 72 of an [`Affine`], and an identity costs its index
/// byte, not a 64-byte entry per level.
#[derive(Debug)]
pub struct Tables<C: CurveParams> {
    levels: Vec<Vec<[C::Base; 2]>>,
    /// Points at the positions before each run of 64.
    runs: Vec<u32>,
    /// Per position, `rank << 1 | present`: the points before it in its
    /// run of 64, and whether it holds one.
    index: Vec<u8>,
}

impl<C: CurveParams> Tables<C> {
    /// Tables whose level 0 is `points`.
    ///
    /// # Panics
    ///
    /// Panics on `2³²` points or more.
    pub(crate) fn new(points: &[Affine<C>]) -> Self {
        assert!(u32::try_from(points.len()).is_ok(), "a slot fits 32 bits");
        let (mut runs, mut index) = (Vec::new(), Vec::with_capacity(points.len()));
        let mut rank = 0u32;
        for (i, p) in points.iter().enumerate() {
            if i % 64 == 0 {
                runs.push(rank);
            }
            let within = rank - runs[i / 64];
            index.push((within << 1) as u8 | u8::from(!p.infinity));
            rank += u32::from(!p.infinity);
        }
        let level = points.iter().filter(|p| !p.infinity).map(|p| [p.x, p.y]);
        Self {
            levels: vec![level.collect()],
            runs,
            index,
        }
    }

    /// Appends the next level: one point per stored point of level 0, in
    /// slot order.
    ///
    /// # Panics
    ///
    /// Panics if the level is not as long as level 0, or holds the
    /// identity (a multiple `2^j·P` of a point `P ≠ O` in a group of odd
    /// order never is).
    pub(crate) fn push(&mut self, level: &[Affine<C>]) {
        assert_eq!(level.len(), self.levels[0].len(), "one point per slot");
        assert!(
            level.iter().all(|p| !p.infinity),
            "a doubled point of an odd-order group is never the identity"
        );
        self.levels.push(level.iter().map(|p| [p.x, p.y]).collect());
    }

    /// Whether position `i` holds a point, not the identity.
    fn present(&self, i: usize) -> bool {
        self.index[i] & 1 == 1
    }

    /// Points at positions `0..i`, i.e. the slot of position `i` if it
    /// holds one (`i ≤` the vector's length).
    pub(crate) fn rank(&self, i: usize) -> usize {
        match self.index.get(i) {
            Some(&byte) => self.runs[i / 64] as usize + usize::from(byte >> 1),
            None => self.levels[0].len(),
        }
    }

    /// The slot position `i` is stored at — its index in
    /// [`Self::stored`] — `None` for an identity.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Option<usize> {
        self.present(i).then(|| self.rank(i))
    }

    /// Where a gather reads position `i`: its slot at every level if it
    /// holds a point, else slot 0 — some point's, so the read needs no
    /// branch — and whether it holds one.
    #[inline]
    pub(crate) fn locate(&self, i: usize) -> (usize, bool) {
        let byte = self.index[i];
        let rank = self.runs[i / 64] as usize + usize::from(byte >> 1);
        (rank * usize::from(byte & 1), byte & 1 == 1)
    }

    /// Level `c`'s stored `x` and `y`, in slot order.
    pub(crate) fn coords(&self, c: usize) -> &[[C::Base; 2]] {
        &self.levels[c]
    }

    fn affine(&self, c: usize, slot: usize) -> Affine<C> {
        let [x, y] = self.levels[c][slot];
        Affine::new_unchecked(x, y)
    }

    /// Point `i` of level `c`, `None` for the identity.
    #[inline]
    pub fn point(&self, c: usize, i: usize) -> Option<Affine<C>> {
        self.slot(i).map(|slot| self.affine(c, slot))
    }

    /// Level `c`'s stored points at positions `0..n`, in position order
    /// and without the identities: what the fold's streamed weight vector
    /// starts from, indexed by [`Self::slot`].
    pub(crate) fn stored(&self, c: usize, n: usize) -> impl Iterator<Item = Affine<C>> + '_ {
        (0..self.rank(n)).map(move |slot| self.affine(c, slot))
    }

    /// Bytes of the stored entries, what the store charges: levels ×
    /// non-identity points × `size_of` of an entry. The position index
    /// beside them — a byte per position and 4 bytes per 64, 6.7 KiB for a
    /// 6 447-point vector — is not charged.
    pub fn bytes(&self) -> u64 {
        let entry = std::mem::size_of::<[C::Base; 2]>();
        (self.levels.len() * self.levels[0].len() * entry) as u64
    }

    /// Whether level 0 starts with `points`, identities included: the
    /// content check of every store hit, on the requested prefix. Every
    /// requested position must be an identity exactly where the stored
    /// vector's is, and every other one must equal its stored point.
    pub fn holds(&self, points: &[Affine<C>]) -> bool {
        let mut slots = self.levels[0].iter();
        points.len() <= self.index.len()
            && points
                .iter()
                .enumerate()
                .all(|(i, p)| match (self.present(i), p.infinity) {
                    (true, false) => slots.next() == Some(&[p.x, p.y]),
                    (present, identity) => !present && identity,
                })
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

impl StoreInner {
    /// The resident tables serving `key` if they hold `points`, stamped
    /// as used at `clock`. Tables serving `key` that hold other points —
    /// the vector changed under its address — are dropped.
    fn take_hit<C: CurveParams>(
        &mut self,
        key: &PreKey,
        points: &[Affine<C>],
        clock: u64,
    ) -> Option<Arc<Tables<C>>> {
        let at = self.entries.iter().position(|e| e.key.serves(key))?;
        let e = &mut self.entries[at];
        if let Ok(hit) = Arc::downcast::<Tables<C>>(e.tables.clone()) {
            if hit.holds(points) {
                e.last_used = clock;
                return Some(hit);
            }
        }
        let stale = self.entries.remove(at);
        self.bytes -= stale.bytes;
        None
    }
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
    /// Budget of `PreprocessStore::process_default`, and the proving
    /// service's default: 256 MiB.
    pub const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

    /// The process-wide store of engines built without
    /// [`crate::GzkpMsm::with_store`].
    pub(crate) fn process_default() -> &'static PreprocessStore {
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

    /// Fetches the tables for `key` that hold `points`, building them
    /// (outside the lock) and inserting them on a miss. An entry is
    /// charged [`Tables::bytes`].
    pub(crate) fn get_or_insert<C: CurveParams>(
        &self,
        key: PreKey,
        points: &[Affine<C>],
        build: impl FnOnce() -> Tables<C>,
    ) -> Arc<Tables<C>> {
        {
            let mut st = self.lock_inner();
            st.clock += 1;
            let clock = st.clock;
            if let Some(hit) = st.take_hit(&key, points, clock) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tables = Arc::new(build());
        let bytes = tables.bytes();
        let mut st = self.lock_inner();
        st.clock += 1;
        let clock = st.clock;
        // A racing builder may have inserted the same tables meanwhile;
        // keep the resident copy and drop ours (both are deterministic).
        if let Some(hit) = st.take_hit(&key, points, clock) {
            return hit;
        }
        // Shorter tables of the same vector and shape are prefixes of
        // these: the new entry serves their requests.
        let mut freed = 0;
        st.entries.retain(|e| {
            let covered = key.serves(&e.key);
            freed += if covered { e.bytes } else { 0 };
            !covered
        });
        st.bytes -= freed;
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

    /// One 64-byte level per point: `points.len() × 64` bytes charged.
    fn tables_for(points: &[Affine<G1Config>]) -> Tables<G1Config> {
        Tables::new(points)
    }

    fn must_hit() -> Tables<G1Config> {
        panic!("lookup must hit the store")
    }

    fn key(points: &[Affine<G1Config>], k: u32, system: u8) -> PreKey {
        PreKey::of(points, k, 1, 32, system)
    }

    #[test]
    fn hit_returns_same_tables() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(1 << 20);
        let a = store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
        let b = store.get_or_insert(key(&pts, 8, 0), &pts, must_hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn distinct_shapes_are_distinct_entries() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(1 << 20);
        store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
        store.get_or_insert(PreKey::of(&pts, 9, 1, 29, 0), &pts, || tables_for(&pts));
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes_used(), 2 * 8 * 64);
    }

    #[test]
    fn changed_content_at_the_same_address_is_a_miss_that_replaces() {
        // Address and length name the vector; the hit compares level 0
        // with the requested points, identities included.
        let mut rng = StdRng::seed_from_u64(7);
        let mut pts = random_points::<G1Config, _>(8, &mut rng);
        let store = PreprocessStore::new(1 << 20);
        store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
        for i in [1, 6] {
            pts[i] = if i == 1 {
                random_points::<G1Config, _>(1, &mut rng)[0]
            } else {
                Affine::identity()
            };
            let mut rebuilt = false;
            let got = store.get_or_insert(key(&pts, 8, 0), &pts, || {
                rebuilt = true;
                tables_for(&pts)
            });
            assert!(rebuilt && got.holds(&pts), "point {i} changed");
            // The identity is stored at no level.
            let points = pts.iter().filter(|p| !p.infinity).count() as u64;
            assert_eq!(points, if i == 6 { 7 } else { 8 });
            assert_eq!((store.len(), store.bytes_used()), (1, points * 64));
        }
        store.get_or_insert(key(&pts, 8, 0), &pts, must_hit);
        assert_eq!((store.hits(), store.misses(), store.evictions()), (1, 3, 0));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut rng = StdRng::seed_from_u64(3);
        let vecs: Vec<Vec<Affine<G1Config>>> = (0..3)
            .map(|_| random_points::<G1Config, _>(4, &mut rng))
            .collect();
        // Room for two 256-byte entries, not three.
        let store = PreprocessStore::new(600);
        store.get_or_insert(key(&vecs[0], 8, 0), &vecs[0], || tables_for(&vecs[0]));
        store.get_or_insert(key(&vecs[1], 8, 0), &vecs[1], || tables_for(&vecs[1]));
        // Touch entry 0 so entry 1 is the LRU victim.
        store.get_or_insert(key(&vecs[0], 8, 0), &vecs[0], must_hit);
        store.get_or_insert(key(&vecs[2], 8, 0), &vecs[2], || tables_for(&vecs[2]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.bytes_used() <= 600);
        // Entry 0 survived (hit), entry 1 was evicted (rebuilds).
        store.get_or_insert(key(&vecs[0], 8, 0), &vecs[0], must_hit);
        let mut rebuilt = false;
        store.get_or_insert(key(&vecs[1], 8, 0), &vecs[1], || {
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
        let pts = random_points::<G1Config, _>(4, &mut rng);
        let store = PreprocessStore::new(600);
        store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
        store.get_or_insert(key(&pts, 8, 1), &pts, || tables_for(&pts));
        assert_eq!(store.len(), 2, "per-system entries must not alias");
        assert_eq!(store.misses(), 2);
        // Touch the Groth16 entry, then overflow the budget: the PLONK
        // entry is the LRU victim while the hot Groth16 entry survives.
        store.get_or_insert(key(&pts, 8, 0), &pts, must_hit);
        let extra = random_points::<G1Config, _>(4, &mut rng);
        store.get_or_insert(key(&extra, 8, 0), &extra, || tables_for(&extra));
        assert_eq!(store.evictions(), 1);
        store.get_or_insert(key(&pts, 8, 0), &pts, must_hit);
        let mut rebuilt = false;
        store.get_or_insert(key(&pts, 8, 1), &pts, || {
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
        store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
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
        let hit = store.get_or_insert(key(&pts, 8, 0), &pts, must_hit);
        assert_eq!(hit.levels.len(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes_used(), 8 * 64);
    }

    #[test]
    fn oversized_entry_is_kept_for_its_builder() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = random_points::<G1Config, _>(4, &mut rng);
        let store = PreprocessStore::new(10);
        let t = store.get_or_insert(key(&pts, 8, 0), &pts, || tables_for(&pts));
        assert_eq!(t.levels.len(), 1);
        assert_eq!(store.len(), 1, "sole entry may exceed the budget");
    }

    #[test]
    fn the_store_charges_the_entries_it_holds() {
        // x and y only: 64 / 128 / 96 bytes per BN254 G1 / BN254 G2 /
        // BLS12-381 G1 point and level, against the 72 / 136 / 104 of an
        // `Affine`, and nothing for the identity.
        fn check<C: CurveParams>(entry: usize) {
            let mut rng = StdRng::seed_from_u64(8);
            let mut pts = random_points::<C, _>(40, &mut rng);
            pts[3] = Affine::identity();
            let store = PreprocessStore::new(1 << 30);
            let engine = crate::GzkpMsm::new(gzkp_gpu_sim::v100());
            let tables = store.get_or_insert(PreKey::of(&pts, 7, 1, 19, 0), &pts, || {
                engine.preprocess(&pts, 7, 1)
            });
            assert!(tables.levels.len() > 1, "{}", C::NAME);
            assert_eq!(std::mem::size_of::<[C::Base; 2]>(), entry, "{}", C::NAME);
            assert!(std::mem::size_of::<Affine<C>>() > entry, "{}", C::NAME);
            let held: usize = (0..tables.levels.len())
                .map(|c| {
                    (0..pts.len())
                        .filter(|&i| tables.point(c, i).is_some())
                        .count()
                        * entry
                })
                .sum();
            assert_eq!(held, tables.levels.len() * 39 * entry, "{}", C::NAME);
            assert_eq!(store.bytes_used(), held as u64, "{}", C::NAME);
            assert_eq!(tables.bytes(), held as u64, "{}", C::NAME);
        }
        check::<G1Config>(64);
        check::<gzkp_curves::bn254::G2Config>(128);
        check::<gzkp_curves::bls12_381::G1Config>(96);
    }
}
