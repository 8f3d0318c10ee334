//! `core_speed` — raw-speed trend for the wide-mask core refactor:
//! comm-bb wall time at the old cap and beyond it, parallel root-branch
//! speedup, multi-megabyte instance-parse time, and the daemon's decode
//! of a long-pipeline `solve` line (`parse_request_ms`).
//!
//! Prints one JSON object to stdout — CI's bench-smoke job stores it as
//! `BENCH_pr_core.json` next to the other perf artifacts — and enforces
//! the PR's acceptance bars as hard process-exit gates:
//!
//! 1. **No p ≤ 32 regression**: the search at the `u64` mask width (the
//!    new default dispatch for small instances) must stay within 10% of
//!    the `u32` width it replaced, measured on the same p = 8 baseline
//!    instance. The generic mask must cost nothing where the old cap
//!    sufficed.
//! 2. **p = 33 proves**: a homogeneous 33-processor comm pipeline —
//!    rejected outright by the pre-lift `u32` masks — solves to proven
//!    optimality through the registry under the default budget.
//! 3. **Parallel root-branch ≥ 1.5×** (on runners with ≥ 4 cores): the
//!    parallel search beats the sequential one by at least 1.5× on a
//!    search-heavy instance, with a byte-identical proven result.
//!
//! ```text
//! core_speed             # full profile
//! core_speed --quick     # CI smoke profile (fewer timing repeats)
//! ```

use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_exact::{solve_comm_bb_with_mask, BbLimits, BbResult, Mask128};
use repliflow_serve::protocol::{parse_request, Verb};
use repliflow_solver::{CommModel, EngineRegistry, Network, Optimality, SolveRequest};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!("usage: core_speed [--quick]");
    ExitCode::FAILURE
}

/// The p = 8 baseline: the differential suite's "twice the enumeration
/// guard" acceptance instance — big enough that the search does real
/// work, small enough to fit every mask width.
fn p8_baseline() -> ProblemInstance {
    let mut gen = Gen::new(0xACCE);
    ProblemInstance {
        workflow: repliflow_core::workflow::Pipeline::with_data_sizes(
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

/// The capacity-lift witness: homogeneous p = 33 — one symmetry class,
/// so the search is narrow, but representable only with wide masks.
fn p33_instance() -> ProblemInstance {
    ProblemInstance {
        workflow: repliflow_core::workflow::Pipeline::with_data_sizes(vec![3, 5], vec![1, 1, 1])
            .into(),
        platform: repliflow_core::platform::Platform::homogeneous(33, 1),
        allow_data_parallel: false,
        objective: Objective::Period,
        cost_model: CostModel::WithComm {
            network: Network::uniform(33, 1),
            comm: CommModel::OnePort,
            overlap: true,
        },
    }
}

/// A search-heavy instance for the parallel-speedup bar: heterogeneous
/// enough that the root branches carry comparable subtree weight.
fn parallel_workload() -> ProblemInstance {
    let mut gen = Gen::new(0xBEEF);
    ProblemInstance {
        workflow: repliflow_core::workflow::Pipeline::with_data_sizes(
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

/// Wall time of the fastest of `repeats` runs — the standard noise
/// filter for single-digit-percent regression gates.
fn best_of<F: FnMut() -> BbResult>(repeats: usize, mut run: F) -> (f64, BbResult) {
    let mut best_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = run();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(out);
    }
    (best_ms, result.expect("repeats >= 1"))
}

/// Best-of-`repeats` wall times of the `u32`, `u64` and `Mask128`
/// searches on `instance`, in that order. The widths run round-robin,
/// one run each per round, and the width that goes first rotates every
/// round, so cache warmth and clock drift fall on every width alike:
/// the comparison measures the masks, not the run order.
fn mask_widths_best_of(repeats: usize, instance: &ProblemInstance) -> [(f64, BbResult); 3] {
    let widths: [&dyn Fn() -> BbResult; 3] = [
        &|| solve_comm_bb_with_mask::<u32>(instance, None, &limits(1)),
        &|| solve_comm_bb_with_mask::<u64>(instance, None, &limits(1)),
        &|| solve_comm_bb_with_mask::<Mask128>(instance, None, &limits(1)),
    ];
    let mut best_ms = [f64::INFINITY; 3];
    let mut results: [Option<BbResult>; 3] = [None, None, None];
    for round in 0..repeats {
        for k in 0..widths.len() {
            let width = (round + k) % widths.len();
            let start = Instant::now();
            let out = widths[width]();
            best_ms[width] = best_ms[width].min(start.elapsed().as_secs_f64() * 1e3);
            results[width] = Some(out);
        }
    }
    let [u32_result, u64_result, m128_result] = results.map(|r| r.expect("repeats >= 1"));
    [
        (best_ms[0], u32_result),
        (best_ms[1], u64_result),
        (best_ms[2], m128_result),
    ]
}

/// Exhaustive-only limits: no time cap, so every measured run does
/// identical work.
fn limits(parallelism: usize) -> BbLimits {
    BbLimits {
        max_nodes: u64::MAX,
        time_limit: None,
        parallelism,
    }
}

/// A `solve` request line shaped like the largest member of the daemon
/// benchmark's warm hot set: a 70 000-stage pipeline with weights
/// 100–999 and data sizes 10–99 (about 490 KB), almost all of it the
/// two integer arrays the request decode walks.
fn warm_solve_line() -> String {
    let mut gen = Gen::new(0x3A4D);
    let stages = 70_000;
    let weights = (0..stages).map(|_| gen.int(100, 999)).collect();
    let sizes = (0..=stages).map(|_| gen.int(10, 99)).collect();
    let instance = ProblemInstance::new(
        repliflow_core::workflow::Pipeline::with_data_sizes(weights, sizes),
        gen.het_platform(6, 1, 9),
        false,
        Objective::Latency,
    );
    let instance = serde_json::to_string(&instance).expect("instance serializes");
    format!(
        "{{\"v\":1,\"id\":1,\"verb\":\"solve\",\"instance\":{instance},\
         \"engine\":\"auto\",\"quality\":\"balanced\",\"validate\":true}}"
    )
}

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ => return usage(),
        }
    }
    let repeats = if quick { 3 } else { 5 };
    let mut fields: Vec<(String, Value)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // ---- gate 1: the p <= 32 path must not regress across the lift ----
    let baseline = p8_baseline();
    let [(u32_ms, u32_result), (u64_ms, u64_result), (m128_ms, m128_result)] =
        mask_widths_best_of(repeats, &baseline);
    assert!(u32_result.stats.completed, "p8 baseline must be provable");
    assert_eq!(u32_result.best, u64_result.best, "mask widths diverged");
    assert_eq!(u64_result.best, m128_result.best, "mask widths diverged");
    fields.push((
        "p8_nodes".into(),
        Value::Int(u64_result.stats.nodes as i128),
    ));
    fields.push(("p8_u32_ms".into(), Value::Float(u32_ms)));
    fields.push(("p8_u64_ms".into(), Value::Float(u64_ms)));
    fields.push(("p8_mask128_ms".into(), Value::Float(m128_ms)));
    if u64_ms > u32_ms * 1.10 {
        failures.push(format!(
            "p <= 32 regression: u64 masks {u64_ms:.1} ms > 1.10 x u32 masks {u32_ms:.1} ms"
        ));
    }

    // ---- gate 2: p = 33 proves through the registry default budget ----
    let registry = EngineRegistry::default();
    let start = Instant::now();
    let p33 = registry
        .solve(&SolveRequest::new(p33_instance()))
        .expect("p33 comm instance solves");
    let p33_ms = start.elapsed().as_secs_f64() * 1e3;
    fields.push(("p33_wall_ms".into(), Value::Float(p33_ms)));
    fields.push((
        "p33_engine".into(),
        Value::String(p33.engine_used.to_string()),
    ));
    fields.push((
        "p33_proven".into(),
        Value::Bool(p33.optimality == Optimality::Proven),
    ));
    if p33.engine_used != "comm-bb" || p33.optimality != Optimality::Proven {
        failures.push(format!(
            "p = 33 must prove through comm-bb (got {} / {})",
            p33.engine_used, p33.optimality
        ));
    }

    // ---- gate 3: parallel root branches >= 1.5x, identical result ----
    let workload = parallel_workload();
    let workers = repliflow_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (seq_ms, seq) = best_of(repeats, || {
        solve_comm_bb_with_mask::<u64>(&workload, None, &limits(1))
    });
    let (par_ms, par) = best_of(repeats, || {
        solve_comm_bb_with_mask::<u64>(&workload, None, &limits(workers))
    });
    assert!(seq.stats.completed && par.stats.completed);
    let speedup = seq_ms / par_ms;
    fields.push(("parallel_workers".into(), Value::Int(workers as i128)));
    fields.push(("parallel_seq_ms".into(), Value::Float(seq_ms)));
    fields.push(("parallel_par_ms".into(), Value::Float(par_ms)));
    fields.push(("parallel_speedup".into(), Value::Float(speedup)));
    fields.push((
        "parallel_identical".into(),
        Value::Bool(seq.best == par.best),
    ));
    if seq.best != par.best {
        failures.push("parallel result diverged from sequential".into());
    }
    // single/dual-core runners can't demonstrate a 1.5x parallel win —
    // report the speedup there, gate it where the hardware allows
    if workers >= 4 && speedup < 1.5 {
        failures.push(format!(
            "parallel root-branch speedup {speedup:.2}x < 1.5x on {workers} cores"
        ));
    }

    // ---- multi-MB parse: streaming vs tree (trend, not a gate) ----
    let mut gen = Gen::new(0x9A85);
    let p = 1100;
    let big = ProblemInstance {
        workflow: repliflow_core::workflow::Pipeline::with_data_sizes(
            gen.positive_ints(48, 1, 50),
            gen.positive_ints(49, 0, 20),
        )
        .into(),
        platform: gen.het_platform(p, 1, 9),
        allow_data_parallel: true,
        objective: Objective::Latency,
        cost_model: CostModel::WithComm {
            network: gen.het_network(p, 1, 9),
            comm: CommModel::OnePort,
            overlap: true,
        },
    };
    let json = serde_json::to_string(&big).expect("serializes");
    assert!(json.len() > 2_000_000, "parse workload must be multi-MB");
    let mut tree_ms = f64::INFINITY;
    let mut stream_ms = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let tree: ProblemInstance = serde_json::from_str(&json).expect("tree parse");
        tree_ms = tree_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let streamed: ProblemInstance =
            serde_json::from_str_streaming(&json).expect("streaming parse");
        stream_ms = stream_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(tree, streamed, "parse paths disagree");
    }
    fields.push(("parse_bytes".into(), Value::Int(json.len() as i128)));
    fields.push(("parse_tree_ms".into(), Value::Float(tree_ms)));
    fields.push(("parse_streaming_ms".into(), Value::Float(stream_ms)));
    fields.push(("parse_speedup".into(), Value::Float(tree_ms / stream_ms)));

    // ---- warm-path request decode (trend, not a gate) ----
    let line = warm_solve_line();
    let mut request_ms = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let request = parse_request(&line).expect("the warm-path line parses");
        request_ms = request_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert!(matches!(request.verb, Verb::Solve(_)), "a solve request");
    }
    fields.push(("parse_request_bytes".into(), Value::Int(line.len() as i128)));
    fields.push(("parse_request_ms".into(), Value::Float(request_ms)));

    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Object(fields)).expect("report serializes")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}
