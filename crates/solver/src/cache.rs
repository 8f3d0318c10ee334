//! The solve cache: a thread-safe, lock-striped LRU over canonical
//! request fingerprints.
//!
//! Serving workloads repeat themselves — the same golden instances, the
//! same dashboard queries, the same retry storms — and PRs 1–4 made
//! each solve as fast as it is going to get. The remaining win is to
//! not solve at all: [`SolveCache`] keys finished [`SolveReport`]s on
//! the [`InstanceFingerprint`] of the full request (instance + engine
//! preference + budget + validation flag). Entries are shared
//! `Arc<SolveReport>`s: a hit is a pointer clone, not a deep copy of
//! the report (mappings can be arbitrarily large), and the serving
//! layer tags the entry [`Provenance::Cached`] **once at insertion**
//! so the warm path never mutates. Canonical report JSON is identical
//! for a hit and a fresh computation (pinned by the determinism
//! suite), so a cache can be dropped in front of any caller without
//! observable changes beyond speed.
//!
//! An entry also holds its report's canonical text once anything has
//! rendered it ([`SolveReport::canonical_text`] memoizes on first use):
//! the daemon renders every entry it serves, so a served entry costs
//! its text's size on top of the report. For the benchmark's warm hot
//! set that is about 0.85 MB in all, nearly all of it the three long
//! pipelines' mappings.
//!
//! # Sharding
//!
//! The cache is split into N independent **lock-striped shards** (N a
//! power of two, [`SolveCache::with_shards`]), each a plain LRU — an
//! index map plus an intrusive recency list behind one mutex. A key's
//! shard is selected by the *high* bits of its 128-bit fingerprint:
//! FNV-1a mixes every input byte into the top bits, so keys spread
//! uniformly and two concurrent warm-path lookups almost never contend
//! on the same mutex. One solve dwarfs a map lookup by many orders of
//! magnitude, so sharding is irrelevant for cold traffic — it exists
//! for the warm path under concurrent daemon load, where every request
//! is a lookup and a single mutex becomes the serialization point (the
//! `perf_gates` test compares contended throughput by shard count).
//!
//! [`SolveCache::new`] builds a single-shard cache (the exact
//! pre-sharding semantics); the serving layer defaults to
//! [`DEFAULT_CACHE_SHARDS`](crate::service::DEFAULT_CACHE_SHARDS).
//!
//! # What is (and is not) written back
//!
//! The cache itself stores whatever it is given; the *serving layer*
//! ([`SolverService`]) enforces two write-back rules on top:
//!
//! * **no write under a deadline** — a deadline-clamped run may carry a
//!   degraded incumbent that must not be served to full-budget
//!   requests (reads are still allowed);
//! * **no write for incomplete searches** — a `comm-bb` run that
//!   tripped its node/time budget reports a load-dependent incumbent,
//!   so only completed searches (and all non-search engines) are
//!   written back.
//!
//! Batch duplicates are **coalesced per fingerprint** before they ever
//! reach the cache: one leader computes, every duplicate slot is fanned
//! out as [`Provenance::Cached`] — concurrent repeats never race each
//! other past the cache. Background escalation refreshes an entry in
//! place with an improved report tagged
//! [`Provenance::Escalated`](crate::Provenance::Escalated).
//!
//! [`Provenance::Cached`]: crate::Provenance::Cached
//! [`SolverService`]: crate::SolverService

use crate::report::SolveReport;
use repliflow_core::fingerprint::InstanceFingerprint;
use repliflow_sync::sync::{Arc, Mutex, PoisonError};
use std::collections::HashMap;

/// Counters describing a cache's lifetime behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a report.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Reports inserted.
    pub insertions: u64,
    /// Reports evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }
}

const NIL: usize = usize::MAX;

struct Entry<V> {
    key: InstanceFingerprint,
    report: Arc<V>,
    prev: usize,
    next: usize,
}

struct Inner<V> {
    index: HashMap<InstanceFingerprint, usize>,
    entries: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: CacheStats,
}

impl<V> Inner<V> {
    fn new() -> Inner<V> {
        Inner {
            index: HashMap::new(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Unlinks entry `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        match prev {
            NIL => self.head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    /// Links entry `i` at the most-recently-used end.
    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.entries[h].prev = i,
        }
        self.head = i;
    }

    /// One shard's LRU lookup. A hit hands back a pointer clone of the
    /// shared entry — O(1), no report deep-copy on the warm path.
    fn get(&mut self, key: InstanceFingerprint) -> Option<Arc<V>> {
        match self.index.get(&key).copied() {
            Some(i) => {
                self.stats.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(Arc::clone(&self.entries[i].report))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// One shard's LRU insert under a per-shard `capacity`.
    fn insert(&mut self, key: InstanceFingerprint, report: Arc<V>, capacity: usize) {
        self.stats.insertions += 1;
        if let Some(i) = self.index.get(&key).copied() {
            self.entries[i].report = report;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.index.len() >= capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "non-empty shard has a tail");
            self.unlink(victim);
            let old_key = self.entries[victim].key;
            self.index.remove(&old_key);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Entry {
                    key,
                    report,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.entries.push(Entry {
                    key,
                    report,
                    prev: NIL,
                    next: NIL,
                });
                self.entries.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_front(slot);
    }
}

/// A bounded, thread-safe, lock-striped LRU over fingerprint keys —
/// the one loom-modelchecked locking pattern behind every cache in the
/// workspace. [`SolveCache`] instantiates it with [`SolveReport`]
/// values for the solve cache; `repliflow-multicrit` reuses it with
/// front reports so Pareto-front caching inherits the same verified
/// concurrency behavior instead of growing a second lock discipline.
pub struct ShardedLru<V> {
    /// Per-shard entry capacity (total capacity = `shard_capacity *
    /// shards.len()`).
    shard_capacity: usize,
    /// `log2(shards.len())` — the number of fingerprint high bits that
    /// select a shard.
    shard_bits: u32,
    shards: Vec<Mutex<Inner<V>>>,
}

/// A bounded, thread-safe, lock-striped LRU cache of [`SolveReport`]s
/// keyed on request fingerprints. See the module docs for the sharding
/// scheme and the serving layer's write-back rules.
pub type SolveCache = ShardedLru<SolveReport>;

impl<V> std::fmt::Debug for ShardedLru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> ShardedLru<V> {
    /// Single-shard cache holding at most `capacity` reports
    /// (`capacity` is clamped to at least 1 — use no cache at all to
    /// disable caching). Exactly the pre-sharding LRU semantics; the
    /// serving layer uses [`SolveCache::with_shards`].
    pub fn new(capacity: usize) -> ShardedLru<V> {
        ShardedLru::with_shards(capacity, 1)
    }

    /// Cache striped over `shards` independent LRU shards with a
    /// *total* capacity of (at least) `capacity` reports.
    ///
    /// `shards` is rounded up to a power of two, clamped to at least 1
    /// and to at most `capacity` (a cache of 4 entries gets at most 4
    /// shards no matter what was asked — more stripes than entries
    /// would silently multiply the requested capacity); `capacity` is
    /// split evenly, rounding each shard's slice up, so the effective
    /// total capacity ([`SolveCache::capacity`]) is
    /// `ceil(capacity / shards) * shards`. Eviction is LRU **per
    /// shard**: with uniformly spread fingerprints (which FNV-1a
    /// provides) the global behavior matches a single LRU of the same
    /// total capacity; a workload that fits in capacity behaves
    /// identically for any shard count.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedLru<V> {
        let capacity = capacity.max(1);
        // largest power of two ≤ capacity: the shard-count ceiling
        let floor_pow2 = 1usize << (usize::BITS - 1 - capacity.leading_zeros());
        let shards = shards.max(1).next_power_of_two().min(floor_pow2);
        let shard_capacity = capacity.div_ceil(shards);
        ShardedLru {
            shard_capacity,
            shard_bits: shards.trailing_zeros(),
            shards: (0..shards).map(|_| Mutex::new(Inner::new())).collect(),
        }
    }

    /// The effective total entry capacity (per-shard capacity × shard
    /// count; at least the capacity requested at construction).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The number of lock-striped shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` lives in: the highest `log2(shards)` bits of the
    /// 128-bit fingerprint.
    fn shard_for(&self, key: InstanceFingerprint) -> &Mutex<Inner<V>> {
        // `>> (128 - bits)` keeps exactly the top `bits` bits; a shift
        // by 128 (the 1-shard case) would overflow, so mask via u64
        // arithmetic on the top half instead.
        let hi = (key.as_u128() >> 64) as u64;
        let idx = (hi >> (64 - self.shard_bits as u64).min(63)) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Current number of cached reports (summed over shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .map(|inner| inner.index.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up, marking the entry most recently used within its
    /// shard. Counts a hit or miss. Hits return a pointer clone of the
    /// shared entry — the report itself is never deep-copied.
    pub fn get(&self, key: InstanceFingerprint) -> Option<Arc<V>> {
        // A poisoned shard (a thread unwound while relinking the LRU
        // list) degrades to a miss: the intrusive links may be torn,
        // so the shard is treated as opaque rather than panicking the
        // worker — the caller just recomputes. Pinned by
        // poisoned_shard_degrades_to_miss below.
        self.shard_for(key).lock().ok()?.get(key)
    }

    /// Inserts (or refreshes) `key → report`, evicting its shard's
    /// least recently used entry when the shard is full. Callers hand
    /// over the `Arc` already carrying the provenance every later hit
    /// should observe (the serving layer tags entries
    /// [`Provenance::Cached`] or `Escalated` before insertion).
    ///
    /// [`Provenance::Cached`]: crate::Provenance::Cached
    pub fn insert(&self, key: InstanceFingerprint, report: Arc<V>) {
        // Poisoned shard: skip the write (degrade-to-miss, as in get).
        if let Ok(mut inner) = self.shard_for(key).lock() {
            inner.insert(key, report, self.shard_capacity);
        }
    }

    /// Snapshot of the lifetime counters (summed over shards).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            if let Ok(inner) = shard.lock() {
                total.merge(inner.stats);
            }
        }
        total
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            // Clearing a poisoned shard is safe (every link is reset
            // below), and recovering it un-wedges the shard for reuse.
            let mut inner = shard.lock().unwrap_or_else(PoisonError::into_inner);
            inner.index.clear();
            inner.entries.clear();
            inner.free.clear();
            inner.head = NIL;
            inner.tail = NIL;
            drop(inner);
            // Poisoning is sticky on std mutexes; the shard is now in a
            // known-good (empty) state, so forget the old panic.
            shard.clear_poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Optimality, Provenance, SolveReport};
    use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
    use repliflow_core::platform::Platform;
    use repliflow_core::workflow::Pipeline;
    use std::time::Duration;

    fn key(n: u128) -> InstanceFingerprint {
        InstanceFingerprint::from_u128(n)
    }

    fn dummy_report(tag: u64) -> SolveReport {
        let instance = ProblemInstance::new(
            Pipeline::uniform(1, tag.max(1)),
            Platform::homogeneous(1, 1),
            false,
            Objective::Period,
        );
        SolveReport {
            variant: instance.variant(),
            complexity: instance.variant().paper_complexity(),
            cost_model: CostModel::Simplified,
            engine_used: "paper",
            optimality: Optimality::Proven,
            mapping: None,
            period: None,
            latency: None,
            objective_value: None,
            search: None,
            fallback: None,
            provenance: Provenance::Computed,
            wall_time: Duration::from_millis(tag),
            canonical: Default::default(),
        }
    }

    #[test]
    fn hit_returns_inserted_report() {
        let cache = SolveCache::new(4);
        cache.insert(key(1), Arc::new(dummy_report(7)));
        let hit = cache.get(key(1)).expect("hit");
        assert_eq!(hit.wall_time, Duration::from_millis(7));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = SolveCache::new(2);
        cache.insert(key(1), Arc::new(dummy_report(1)));
        cache.insert(key(2), Arc::new(dummy_report(2)));
        // touch 1 so 2 becomes the LRU victim
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), Arc::new(dummy_report(3)));
        assert!(cache.get(key(2)).is_none(), "2 was the LRU entry");
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache = SolveCache::new(2);
        cache.insert(key(1), Arc::new(dummy_report(1)));
        cache.insert(key(1), Arc::new(dummy_report(9)));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get(key(1)).unwrap().wall_time,
            Duration::from_millis(9)
        );
    }

    #[test]
    fn eviction_churn_stays_bounded() {
        let cache = SolveCache::new(3);
        for i in 0..100u128 {
            cache.insert(key(i), Arc::new(dummy_report(i as u64)));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 97);
        // the three newest survive
        for i in 97..100u128 {
            assert!(cache.get(key(i)).is_some(), "entry {i} evicted wrongly");
        }
    }

    #[test]
    fn hit_rate_arithmetic() {
        let cache = SolveCache::new(2);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(key(1), Arc::new(dummy_report(1)));
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_none());
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A key that lands in shard `shard` of a `shards`-way cache, with
    /// low bits `salt` to keep keys distinct.
    fn key_in_shard(shard: u128, shards: usize, salt: u128) -> InstanceFingerprint {
        let bits = shards.trailing_zeros();
        key((shard << (128 - bits)) | salt)
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(SolveCache::with_shards(16, 0).shards(), 1);
        assert_eq!(SolveCache::with_shards(16, 3).shards(), 4);
        assert_eq!(SolveCache::with_shards(16, 8).shards(), 8);
        // shard count never exceeds capacity (no silent inflation)
        assert_eq!(SolveCache::with_shards(1, 8).shards(), 1);
        assert_eq!(SolveCache::with_shards(1, 8).capacity(), 1);
        assert_eq!(SolveCache::with_shards(5, 8).shards(), 4);
    }

    #[test]
    fn capacity_is_split_rounding_up() {
        let cache = SolveCache::with_shards(10, 4);
        assert_eq!(cache.capacity(), 12); // ceil(10/4)=3 per shard
        assert_eq!(SolveCache::with_shards(1024, 8).capacity(), 1024);
    }

    #[test]
    fn high_bits_select_the_shard() {
        // Per-shard capacity 1: keys engineered into the same shard
        // evict each other; keys in different shards coexist.
        let cache = SolveCache::with_shards(4, 4);
        cache.insert(key_in_shard(0, 4, 1), Arc::new(dummy_report(1)));
        cache.insert(key_in_shard(1, 4, 2), Arc::new(dummy_report(2)));
        cache.insert(key_in_shard(2, 4, 3), Arc::new(dummy_report(3)));
        cache.insert(key_in_shard(3, 4, 4), Arc::new(dummy_report(4)));
        assert_eq!(cache.len(), 4, "distinct shards never evict each other");
        assert_eq!(cache.stats().evictions, 0);
        // a fifth key into shard 0 evicts the shard-0 resident only
        cache.insert(key_in_shard(0, 4, 5), Arc::new(dummy_report(5)));
        assert_eq!(cache.len(), 4);
        assert!(cache.get(key_in_shard(0, 4, 1)).is_none());
        assert!(cache.get(key_in_shard(1, 4, 2)).is_some());
    }

    #[test]
    fn capacity_one_survives_concurrent_insert_and_hit() {
        // A single-slot, single-shard cache is the maximal-contention
        // configuration: every thread fights over one mutex and one
        // LRU slot. Nothing may panic, and the invariant len ≤ 1 must
        // hold throughout and afterwards.
        let cache = SolveCache::new(1);
        assert_eq!(cache.capacity(), 1);
        repliflow_sync::thread::scope(|s| {
            for t in 0..4u128 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..200u128 {
                        let k = key(t * 1000 + i);
                        cache.insert(k, Arc::new(dummy_report(1)));
                        let _ = cache.get(k);
                        assert!(cache.len() <= 1);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 800);
    }

    #[test]
    fn hits_share_one_arc_under_contention() {
        // A hit is a pointer clone of the inserted Arc — concurrent
        // readers all observe the *same* allocation, never a copy.
        let cache = SolveCache::new(8);
        let report = Arc::new(dummy_report(5));
        cache.insert(key(1), Arc::clone(&report));
        repliflow_sync::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let hit = cache.get(key(1)).expect("entry stays resident");
                        assert!(Arc::ptr_eq(&hit, &report), "hit must share the Arc");
                    }
                });
            }
        });
    }

    #[test]
    fn poisoned_shard_degrades_to_miss() {
        let cache = SolveCache::new(4);
        cache.insert(key(1), Arc::new(dummy_report(1)));
        assert!(cache.get(key(1)).is_some());
        // Poison the (only) shard: unwind while holding its lock, as a
        // worker crashing mid-relink would.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.shards[0].lock().unwrap();
            panic!("simulated crash while holding the shard lock");
        }));
        assert!(unwound.is_err());
        // Reads degrade to a miss instead of panicking the caller…
        assert!(cache.get(key(1)).is_none());
        // …writes are skipped, and the aggregate views stay calm.
        cache.insert(key(2), Arc::new(dummy_report(2)));
        assert!(cache.get(key(2)).is_none());
        assert_eq!(cache.len(), 0);
        let _ = cache.stats();
        // clear() recovers the shard for reuse.
        cache.clear();
        cache.insert(key(3), Arc::new(dummy_report(3)));
        assert_eq!(
            cache
                .get(key(3))
                .expect("recovered shard serves again")
                .wall_time,
            Duration::from_millis(3)
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_counts_agree_when_capacity_does_not_bind() {
        // The same mixed lookup/insert trace against every shard count:
        // hit/miss outcomes and final contents must be identical as
        // long as no shard evicts.
        let caches: Vec<SolveCache> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|s| SolveCache::with_shards(256, s))
            .collect();
        // Fibonacci-hash the index into the *high* 64 bits (where the
        // shard selector looks) and keep the index in the low bits so
        // keys stay distinct.
        let mix =
            |i: u128| key((((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as u128) << 64) | i);
        for cache in &caches {
            for i in 0..64u128 {
                assert!(cache.get(mix(i)).is_none(), "cold lookup must miss");
                cache.insert(mix(i), Arc::new(dummy_report(i as u64)));
            }
            for i in 0..64u128 {
                let hit = cache.get(mix(i)).expect("warm lookup must hit");
                assert_eq!(hit.wall_time, Duration::from_millis(i as u64));
            }
            assert_eq!(cache.len(), 64);
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.insertions, stats.evictions),
                (64, 64, 64, 0),
                "shard count changed observable behavior"
            );
        }
    }
}
