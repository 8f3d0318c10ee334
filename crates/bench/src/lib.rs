//! # repliflow-bench
//!
//! The experiment harness: regenerates every table and figure of Benoit &
//! Robert (Cluster 2007) and quantifies the complexity claims.
//!
//! Report binaries (deterministic, seeded):
//!
//! * `table1` — regenerates **Table 1**, empirically verifying every cell
//!   (polynomial cells: algorithm == exact oracle over random instances;
//!   NP-hard cells: reduction round-trips in both directions).
//! * `worked_example` — regenerates every number of the **Section 2**
//!   worked example, paper value vs measured (including the two example
//!   values our exhaustive search improves on).
//! * `figures` — regenerates **Figures 1 and 2** (DOT + ASCII).
//! * `heuristic_gap` — optimality gaps of the heuristics on the NP-hard
//!   cells (the paper's "future work" experiment).
//! * `scaling` — CSV runtime series supporting the stated polynomial
//!   complexities, next to the exact solver's exponential blow-up.
//!
//! CLIs: `solve` (one objective) and `pareto` (the whole front), in
//! process or against a `repliflow-serve` daemon.

/// Shared instance sizes/seeds so the report binaries agree.
pub mod config {
    /// Seed base for all bench generators.
    pub const SEED: u64 = 0xC1A0;
    /// Number of random instances per Table 1 cell verification.
    pub const TABLE1_SAMPLES: usize = 25;
    /// Number of random instances per communication-aware invariant
    /// (smaller: each sample runs several full comm-exact enumerations).
    pub const COMM_SAMPLES: usize = 8;
}
