//! Wall-clock acceptance gates. Each one pins a performance property
//! the design depends on, with a fixed instance set, a fixed budget and
//! trials interleaved so drift falls on every side alike:
//!
//! * **hedged tail**: on a mixed easy/hard comm stream, the hedged
//!   route's p99 is no worse than the straight `comm-bb` route's — the
//!   reason to race a second engine at all is the tail;
//! * **cache striping**: under contention, the 8-shard [`SolveCache`]
//!   serves lookups at least as fast as a single shard (on ≥ 2 cores);
//! * **mask width**: the `u64` search stays within 10% of the `u32`
//!   search on the p = 8 instance both widths fit;
//! * **parallel root branches**: the parallel search returns the
//!   sequential search's answer, ≥ 1.5× faster on ≥ 4 cores.
//!
//! Release-only: run with
//! `cargo test --release -p repliflow-solver --features slow-tests --test perf_gates`.
//! The gates take one lock each, so the default parallel test runner
//! never times two of them against each other.

#![cfg(feature = "slow-tests")]

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::workflow::Pipeline;
use repliflow_exact::{solve_comm_bb_with_mask, BbLimits, BbResult, Mask128};
use repliflow_solver::{
    Budget, CommModel, EnginePref, EngineRegistry, InstanceFingerprint, Network, Quality,
    SolveCache, SolveReport, SolveRequest, SolverService,
};
use repliflow_sync::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Timing runs one gate at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn available_parallelism() -> usize {
    repliflow_sync::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn comm_instance(seed: u64, n: usize, p: usize) -> ProblemInstance {
    let mut gen = Gen::new(seed);
    ProblemInstance::new(
        gen.pipeline(n, 1, 12),
        gen.het_platform(p, 1, 5),
        false,
        Objective::Period,
    )
    .with_cost_model(CostModel::WithComm {
        network: gen.het_network(p, 1, 4),
        comm: CommModel::OnePort,
        overlap: true,
    })
}

/// 32 requests; every 6th is hard (20 stages × 10 heterogeneous
/// processors: comm-bb runs out its time limit, the heuristic stays
/// cheap), the rest are easy proofs. Distinct seeds keep every
/// fingerprint unique.
fn hedge_stream() -> Vec<ProblemInstance> {
    (0..32)
        .map(|i| {
            if i % 6 == 3 {
                comm_instance(0x7A11 + i as u64, 20, 10)
            } else {
                comm_instance(0x7A11 + i as u64, 5 + i % 3, 3)
            }
        })
        .collect()
}

/// Solves the stream one request at a time, so every sample is one
/// request's latency, and returns the samples sorted. Every request
/// must succeed.
fn latencies(
    service: &SolverService,
    stream: &[ProblemInstance],
    engine: EnginePref,
) -> Vec<Duration> {
    // bb caps widened so the hard instances still route to comm-bb, its
    // time limit cut to 250 ms, and `Quality::Fast` so the heuristic side
    // of each race is cheap: the latency-sensitive serving profile
    let budget = Budget {
        max_comm_bb_stages: 32,
        max_comm_bb_procs: 20,
        bb_time_limit_ms: 250,
        ..Budget::default().quality(Quality::Fast)
    };
    let mut samples: Vec<Duration> = stream
        .iter()
        .enumerate()
        .map(|(i, instance)| {
            let request = SolveRequest::new(instance.clone())
                .engine(engine)
                .budget(budget);
            let start = Instant::now();
            if let Err(e) = service.solve(&request) {
                panic!("request {i} failed under {engine:?}: {e}");
            }
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples
}

/// Nearest-rank percentile of ascending samples.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[test]
fn hedged_p99_is_no_worse_than_unhedged_p99() {
    let _serial = serial();
    let stream = hedge_stream();
    // cacheless: every sample is a real solve
    let service = SolverService::builder().no_cache().build();
    let off = latencies(&service, &stream, EnginePref::CommBb);
    let on = latencies(&service, &stream, EnginePref::Hedged);
    let (off_p99, on_p99) = (percentile(&off, 99.0), percentile(&on, 99.0));
    eprintln!("p99: unhedged {off_p99:?}, hedged {on_p99:?}");
    assert!(
        on_p99 <= off_p99,
        "hedged p99 {on_p99:?} exceeds unhedged p99 {off_p99:?}"
    );
}

/// A Fibonacci-mixed key: its high bits select the shard, so the key
/// set spreads over every shard as real fingerprints do.
fn synthetic_key(i: u64) -> InstanceFingerprint {
    let hi = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    InstanceFingerprint::from_u128(((hi as u128) << 64) | i as u128)
}

/// Lookups per second of `threads` workers each doing `ops` gets on a
/// pre-filled cache of `shards` shards.
fn contended_lookups(shards: usize, threads: usize, ops: usize, report: &SolveReport) -> f64 {
    const KEYS: usize = 256;
    let cache = Arc::new(SolveCache::with_shards(2 * KEYS, shards));
    for i in 0..KEYS as u64 {
        cache.insert(synthetic_key(i), Arc::new(report.clone()));
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            repliflow_sync::thread::spawn(move || {
                for i in 0..ops {
                    let k = synthetic_key(((t * ops + i) % KEYS) as u64);
                    assert!(cache.get(k).is_some(), "pre-filled key missing");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("lookup thread panicked");
    }
    (threads * ops) as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn eight_cache_shards_are_at_least_as_fast_as_one_under_contention() {
    let _serial = serial();
    let parallelism = available_parallelism();
    // more threads than cores: contention is what is measured
    let threads = (2 * parallelism).clamp(8, 16);
    let report = EngineRegistry::default()
        .solve(
            &SolveRequest::new(comm_instance(0x7A00, 20, 10))
                .engine(EnginePref::Heuristic)
                .budget(Budget::default().quality(Quality::Fast)),
        )
        .expect("seed report solves");
    // round-robin over the shard counts, best trial of each
    let shard_counts = [1usize, 2, 4, 8];
    let mut best = [0.0f64; 4];
    for _ in 0..2 {
        for (slot, &shards) in shard_counts.iter().enumerate() {
            best[slot] = best[slot].max(contended_lookups(shards, threads, 100_000, &report));
        }
    }
    let (one_shard, eight_shards) = (best[0], best[3]);
    eprintln!("lookups/s by shards {shard_counts:?}: {best:.0?}");
    if parallelism < 2 {
        // one core: striping has no parallelism to recover
        eprintln!("note: 1 core, shard bar not enforced");
        return;
    }
    assert!(
        eight_shards >= one_shard,
        "8-shard cache {eight_shards:.0}/s below 1-shard {one_shard:.0}/s"
    );
}

/// Exhaustive search with no time cap, so every timed run does the
/// same work.
fn limits(parallelism: usize) -> BbLimits {
    BbLimits {
        max_nodes: u64::MAX,
        time_limit: None,
        parallelism,
    }
}

/// The p = 8 instance every mask width fits: big enough for real
/// search work.
fn p8_instance() -> ProblemInstance {
    let mut gen = Gen::new(0xACCE);
    ProblemInstance {
        workflow: Pipeline::with_data_sizes(
            gen.positive_ints(10, 1, 20),
            gen.positive_ints(11, 0, 10),
        )
        .into(),
        platform: gen.het_platform(8, 1, 6),
        allow_data_parallel: true,
        objective: Objective::Period,
        cost_model: CostModel::WithComm {
            network: Network::uniform(8, 3),
            comm: CommModel::OnePort,
            overlap: true,
        },
    }
}

#[test]
fn u64_masks_stay_within_ten_percent_of_u32_masks() {
    let _serial = serial();
    let instance = p8_instance();
    let widths: [&dyn Fn() -> BbResult; 3] = [
        &|| solve_comm_bb_with_mask::<u32>(&instance, None, &limits(1)),
        &|| solve_comm_bb_with_mask::<u64>(&instance, None, &limits(1)),
        &|| solve_comm_bb_with_mask::<Mask128>(&instance, None, &limits(1)),
    ];
    // round-robin, one run per width per round, rotating which width
    // goes first, so warmth and drift fall on every width alike
    let mut best_ms = [f64::INFINITY; 3];
    for round in 0..3 {
        for k in 0..widths.len() {
            let width = (round + k) % widths.len();
            let start = Instant::now();
            let result = widths[width]();
            best_ms[width] = best_ms[width].min(start.elapsed().as_secs_f64() * 1e3);
            assert!(
                result.stats.completed,
                "the p = 8 instance must be provable"
            );
        }
    }
    let [u32_ms, u64_ms, mask128_ms] = best_ms;
    eprintln!("best ms: u32 {u32_ms:.1}, u64 {u64_ms:.1}, Mask128 {mask128_ms:.1}");
    assert!(
        u64_ms <= u32_ms * 1.10,
        "u64 masks {u64_ms:.1} ms > 1.10 x u32 masks {u32_ms:.1} ms"
    );
}

/// A search-heavy instance whose root branches carry comparable
/// subtree weight.
fn parallel_instance() -> ProblemInstance {
    let mut gen = Gen::new(0xBEEF);
    ProblemInstance {
        workflow: Pipeline::with_data_sizes(
            gen.positive_ints(11, 1, 25),
            gen.positive_ints(12, 1, 12),
        )
        .into(),
        platform: gen.het_platform(8, 1, 7),
        allow_data_parallel: true,
        objective: Objective::Latency,
        cost_model: CostModel::WithComm {
            network: gen.het_network(8, 1, 4),
            comm: CommModel::BoundedMultiPort,
            overlap: false,
        },
    }
}

/// Fastest wall time of three runs, and the last run's result.
fn best_of_three(run: impl Fn() -> BbResult) -> (f64, BbResult) {
    let mut best_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..3 {
        let start = Instant::now();
        result = Some(run());
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best_ms, result.expect("three runs"))
}

#[test]
fn parallel_root_branches_match_sequential_and_are_faster_on_four_cores() {
    let _serial = serial();
    let instance = parallel_instance();
    let workers = available_parallelism();
    let (seq_ms, seq) =
        best_of_three(|| solve_comm_bb_with_mask::<u64>(&instance, None, &limits(1)));
    let (par_ms, par) =
        best_of_three(|| solve_comm_bb_with_mask::<u64>(&instance, None, &limits(workers)));
    assert!(seq.stats.completed && par.stats.completed);
    assert_eq!(
        seq.best, par.best,
        "parallel result diverged from sequential"
    );
    let speedup = seq_ms / par_ms;
    eprintln!("sequential {seq_ms:.1} ms, {workers} workers {par_ms:.1} ms: {speedup:.2}x");
    // fewer than 4 cores cannot show a 1.5x win
    if workers >= 4 {
        assert!(
            speedup >= 1.5,
            "parallel root-branch speedup {speedup:.2}x < 1.5x on {workers} cores"
        );
    }
}
