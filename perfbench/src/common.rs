//! What every workload shares: the run context, the per-request tally,
//! and the metric list a run reports.

use crate::stats::Samples;
use serde::Value;
use std::path::PathBuf;

/// Command-line settings of one run.
pub struct Ctx {
    /// Root of the checkout (holds `examples/instances`).
    pub root: PathBuf,
    /// The `repliflow-serve` binary under test.
    pub serve_bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Available parallelism; the daemon's `--workers`.
    pub nproc: usize,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Counts and latencies of one workload phase, merged across threads.
#[derive(Default)]
pub struct Tally {
    /// Latency of every attempted request, ms (failures included).
    pub latency: Samples,
    /// Latency of requests answered from a cache, ms.
    pub hit_latency: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that contradict the in-process or committed reference.
    pub wrong: u64,
    pub within_slo: u64,
    pub ok: u64,
    pub proven: u64,
    pub log_ratio_sum: f64,
    pub ratio_count: u64,
    pub errors: Vec<String>,
    /// Wall time from the phase start to its last completion, seconds.
    pub elapsed_s: f64,
    /// comm-bb answers seen, their search nodes, and how many completed.
    pub bb_solves: u64,
    pub bb_nodes: u64,
    pub bb_completed: u64,
    /// Answers whose `Auto` route declined a stronger engine.
    pub fallbacks: u64,
}

impl Tally {
    pub fn fail(&mut self, ms: f64, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.latency.push(ms);
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// A failed cache-hit probe: a failure, but not a request of the
    /// measured loop, so it adds neither an attempt nor a latency sample.
    pub fn probe_failed(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// A wrong answer: a failure that also fails the run.
    pub fn wrong(&mut self, ms: f64, message: String) {
        self.wrong += 1;
        self.fail(ms, message);
    }

    /// A correct answer.
    pub fn ok(&mut self, ms: f64, hit: bool, proven: bool, slo_ms: f64) {
        self.attempted += 1;
        self.ok += 1;
        self.latency.push(ms);
        if hit {
            self.hit_latency.push(ms);
        }
        if proven {
            self.proven += 1;
        }
        if ms <= slo_ms {
            self.within_slo += 1;
        }
    }

    /// Records one heuristic answer's objective ÷ reference ratio.
    pub fn ratio(&mut self, ratio: f64) {
        self.log_ratio_sum += ratio.ln();
        self.ratio_count += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.latency.extend(&other.latency);
        self.hit_latency.extend(&other.hit_latency);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.within_slo += other.within_slo;
        self.ok += other.ok;
        self.proven += other.proven;
        self.log_ratio_sum += other.log_ratio_sum;
        self.ratio_count += other.ratio_count;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.bb_solves += other.bb_solves;
        self.bb_nodes += other.bb_nodes;
        self.bb_completed += other.bb_completed;
        self.fallbacks += other.fallbacks;
    }

    /// Records an answer's search counters and fallback flag.
    pub fn observe(&mut self, engine: &str, search: Option<(u64, bool)>, fallback: bool) {
        if engine == "comm-bb" {
            if let Some((nodes, completed)) = search {
                self.bb_solves += 1;
                self.bb_nodes += nodes;
                self.bb_completed += u64::from(completed);
            }
        }
        self.fallbacks += u64::from(fallback);
    }

    /// The search-side per-layer metrics of this phase.
    pub fn search_metrics(&self) -> Vec<Metric> {
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            Metric::new(
                "exact.comm_bb.nodes",
                per(self.bb_nodes, self.bb_solves),
                "count",
            ),
            Metric::new(
                "exact.comm_bb.completed_share",
                per(self.bb_completed, self.bb_solves),
                "share",
            ),
            Metric::new("solver.fallbacks", self.fallbacks as f64, "count"),
        ]
    }

    fn share(&self, n: u64) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            n as f64 / self.attempted as f64
        }
    }

    /// The end-to-end metrics of this phase (all but `setup_s` and
    /// `peak_rss_mb`, which the workload measures itself), plus the
    /// metadata describing their samples.
    pub fn end_to_end(
        &mut self,
        tail_p: f64,
        hit_tail_p: f64,
    ) -> (Vec<Metric>, Vec<(String, Value)>) {
        let throughput = if self.elapsed_s > 0.0 {
            self.ok as f64 / self.elapsed_s
        } else {
            0.0
        };
        let gmean = if self.ratio_count == 0 {
            1.0
        } else {
            (self.log_ratio_sum / self.ratio_count as f64).exp()
        };
        let proven = if self.ok == 0 {
            0.0
        } else {
            self.proven as f64 / self.ok as f64
        };
        let metrics = vec![
            Metric::new("throughput_rps", throughput, "1/s"),
            Metric::new("latency_p50_ms", self.latency.median(), "ms"),
            Metric::new("latency_tail_ms", self.latency.percentile(tail_p), "ms"),
            Metric::new("hit_tail_ms", self.hit_latency.percentile(hit_tail_p), "ms"),
            Metric::new("slo_share", self.share(self.within_slo), "share"),
            Metric::new("success_share", 1.0 - self.share(self.failed), "share"),
            Metric::new("proven_share", proven, "share"),
            Metric::new("objective_gmean", gmean, "ratio"),
        ];
        let quantiles = |samples: &mut crate::stats::Samples| {
            Value::Array(
                [50.0, 75.0, 90.0, 95.0, 99.0]
                    .iter()
                    .map(|&p| Value::Float(samples.percentile(p)))
                    .collect(),
            )
        };
        let meta = vec![
            (
                "latency_p50_p75_p90_p95_p99_ms".into(),
                quantiles(&mut self.latency),
            ),
            (
                "hit_p50_p75_p90_p95_p99_ms".into(),
                quantiles(&mut self.hit_latency),
            ),
            ("samples".into(), Value::Int(self.latency.len() as i128)),
            ("tail_percentile".into(), Value::Float(tail_p)),
            (
                "tail_samples_beyond".into(),
                Value::Int(self.latency.beyond(tail_p) as i128),
            ),
            (
                "hit_samples".into(),
                Value::Int(self.hit_latency.len() as i128),
            ),
            ("hit_tail_percentile".into(), Value::Float(hit_tail_p)),
            (
                "hit_tail_samples_beyond".into(),
                Value::Int(self.hit_latency.beyond(hit_tail_p) as i128),
            ),
            (
                "heuristic_answers".into(),
                Value::Int(self.ratio_count as i128),
            ),
            ("fail_share".into(), Value::Float(self.share(self.failed))),
            ("wrong_answers".into(), Value::Int(self.wrong as i128)),
            ("measured_s".into(), Value::Float(self.elapsed_s)),
        ];
        (metrics, meta)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub meta: Vec<(String, Value)>,
    pub errors: Vec<String>,
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], gen: &mut repliflow_core::gen::Gen) {
    for i in (1..items.len()).rev() {
        let j = gen.size(0, i);
        items.swap(i, j);
    }
}

/// `metric / base - 1` (0 when the base is 0).
pub fn relative_change(metric: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        metric / base - 1.0
    }
}

/// Microseconds of a duration as f64.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
