//! Loom-model checks for [`SolveCache`] under concurrent hit/insert.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p repliflow-solver
//! --test modelcheck_cache` — without `--cfg loom` this file is empty.
//!
//! The cache's linearizability argument is simple — every shard op
//! holds that shard's mutex for its whole duration — but the *useful*
//! property worth exploring is cross-thread visibility and the
//! capacity-1 eviction races: whatever interleaving happens, a key a
//! thread inserted and nobody evicted must hit, a hit must return the
//! exact `Arc` some insert put there, and per-shard occupancy must
//! never exceed per-shard capacity. A cached report's canonical text
//! is memoized on first use, so the first renders of one shared entry
//! may race: both must come back with the same text.
#![cfg(loom)]

use repliflow_solver::{Optimality, Provenance, SolveCache, SolveReport};
use repliflow_sync::loom;
use repliflow_sync::sync::Arc;
use repliflow_sync::thread;
use std::time::Duration;

use repliflow_core::fingerprint::InstanceFingerprint;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::platform::Platform;
use repliflow_core::workflow::Pipeline;

fn key(n: u128) -> InstanceFingerprint {
    InstanceFingerprint::from_u128(n)
}

fn report(tag: u64) -> Arc<SolveReport> {
    let instance = ProblemInstance::new(
        Pipeline::uniform(1, tag.max(1)),
        Platform::homogeneous(1, 1),
        false,
        Objective::Period,
    );
    Arc::new(SolveReport {
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
    })
}

#[test]
fn concurrent_inserts_both_land_and_hits_share_the_arc() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // Capacity 4, single shard: no eviction, maximal lock overlap.
        let cache = Arc::new(SolveCache::new(4));
        let r1 = report(1);
        let expected = Arc::clone(&r1);
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.insert(key(1), r1);
            })
        };
        cache.insert(key(2), report(2));
        writer.join().expect("writer joins");
        // Linearizability: both completed inserts are visible, the hit
        // is the inserted pointer, not a copy or a torn entry.
        let hit = cache.get(key(1)).expect("inserted key must hit");
        assert!(Arc::ptr_eq(&hit, &expected), "hit must be the inserted Arc");
        assert!(cache.get(key(2)).is_some());
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions), (2, 0));
    })
    .schedules;
    eprintln!("concurrent_inserts: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}

#[test]
fn capacity_one_eviction_race_keeps_exactly_one_entry() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        let cache = Arc::new(SolveCache::new(1));
        let other = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.insert(key(2), report(2));
                cache.get(key(2)).is_some()
            })
        };
        cache.insert(key(1), report(1));
        let hit1 = cache.get(key(1)).is_some();
        let hit2 = other.join().expect("other joins");
        // Either insert may have evicted the other between its rival's
        // insert and get, but the LRU invariant holds in every
        // interleaving: exactly one survivor, never zero, never two.
        assert_eq!(cache.len(), 1, "capacity-1 cache must hold exactly 1");
        assert!(
            cache.get(key(1)).is_some() || cache.get(key(2)).is_some(),
            "one of the keys must survive"
        );
        // A thread that saw its own key hit saw a real entry; both
        // *may* observe hits (each before the other's eviction).
        let _ = (hit1, hit2);
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().evictions, 1);
    })
    .schedules;
    eprintln!("capacity_one_race: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}

#[test]
fn sharded_cache_isolates_contention() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // Two shards selected by the top fingerprint bit: concurrent
        // traffic to different shards must not interfere at all.
        let cache = Arc::new(SolveCache::with_shards(2, 2));
        let high = 1u128 << 127;
        let worker = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.insert(key(high), report(7));
                cache.get(key(high)).expect("own shard's entry hits")
            })
        };
        cache.insert(key(0), report(3));
        let mine = cache.get(key(0)).expect("own shard's entry hits");
        assert_eq!(mine.wall_time, Duration::from_millis(3));
        let theirs = worker.join().expect("worker joins");
        assert_eq!(theirs.wall_time, Duration::from_millis(7));
        assert_eq!(cache.len(), 2, "shards must not evict each other");
    })
    .schedules;
    eprintln!("sharded_isolation: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}

#[test]
fn racing_first_canonical_renders_agree() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        let cache = Arc::new(SolveCache::new(4));
        cache.insert(key(1), report(3));
        // Both threads take the entry's first `canonical_json()`: the
        // memo is empty until one of them fills it.
        let reader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get(key(1)).expect("hit").canonical_json())
        };
        let mine = cache.get(key(1)).expect("hit").canonical_json();
        let theirs = reader.join().expect("reader joins");
        assert_eq!(mine, theirs, "racing renders disagree");
        // a clone starts with an empty memo, so this is a fresh render
        let fresh = (*cache.get(key(1)).expect("hit")).clone().canonical_json();
        assert_eq!(mine, fresh, "the memo differs from a fresh render");
    })
    .schedules;
    eprintln!("racing_first_canonical_renders: {schedules} schedules");
    assert!(schedules >= 2, "explored only {schedules} schedules");
}
