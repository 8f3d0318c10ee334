//! Application workflow graphs: pipeline, fork and fork-join.
//!
//! These are the application patterns of Section 3.1 of the paper
//! (Figures 1 and 2), plus the fork-join extension of Section 6.3.
//!
//! Stage indexing convention (0-based, mirrors the paper's 1-based one):
//! * [`Pipeline`] — stages `0 .. n` correspond to the paper's `S1 .. Sn`.
//! * [`Fork`] — stage `0` is the root `S0`; stages `1 ..= n` are the
//!   independent stages `S1 .. Sn`.
//! * [`ForkJoin`] — as [`Fork`] plus stage `n + 1`, the join stage `Sn+1`.
//!
//! Each stage `Sk` performs `w_k` computations per data set. Data sizes
//! `δ_k` (used only by the general model with communication, [`crate::comm`])
//! default to zero, which recovers the simplified model of Section 3.4.

use crate::cost;
use crate::error::Error;
use crate::mapping::Mapping;
use crate::platform::Platform;
use crate::rational::Rat;
use serde::{Deserialize, Serialize};

/// A linear pipeline of `n` stages (Figure 1).
///
/// Consecutive data sets are fed into stage 0 and traverse every stage in
/// order. The paper's *homogeneous pipeline* has all stage weights equal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pipeline {
    weights: Vec<u64>,
    /// `δ_0 .. δ_n`: `data_sizes[k]` is the size of the output of stage
    /// `k - 1` / input of stage `k`; `data_sizes[0]` comes from the outside
    /// world and `data_sizes[n]` returns to it. Length `n + 1`.
    data_sizes: Vec<u64>,
}

impl Pipeline {
    /// Pipeline with the given stage weights and zero communication sizes
    /// (the simplified model).
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn new(weights: Vec<u64>) -> Self {
        assert!(!weights.is_empty(), "a pipeline needs at least one stage");
        let n = weights.len();
        Pipeline {
            weights,
            data_sizes: vec![0; n + 1],
        }
    }

    /// Pipeline with explicit data sizes `δ_0 .. δ_n` for the general model.
    ///
    /// # Panics
    /// Panics if `weights` is empty or `data_sizes.len() != weights.len() + 1`.
    pub fn with_data_sizes(weights: Vec<u64>, data_sizes: Vec<u64>) -> Self {
        assert!(!weights.is_empty(), "a pipeline needs at least one stage");
        assert_eq!(
            data_sizes.len(),
            weights.len() + 1,
            "need n+1 data sizes for an n-stage pipeline"
        );
        Pipeline {
            weights,
            data_sizes,
        }
    }

    /// The paper's *homogeneous pipeline*: `n` stages of identical weight `w`.
    pub fn uniform(n: usize, w: u64) -> Self {
        Pipeline::new(vec![w; n])
    }

    /// Number of stages `n`.
    #[inline]
    pub fn n_stages(&self) -> usize {
        self.weights.len()
    }

    /// Weight `w_k` of stage `k` (0-based).
    #[inline]
    pub fn weight(&self, stage: usize) -> u64 {
        self.weights[stage]
    }

    /// All stage weights.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Data size `δ_k` (`k` in `0 ..= n`).
    #[inline]
    pub fn data_size(&self, k: usize) -> u64 {
        self.data_sizes[k]
    }

    /// All data sizes `δ_0 .. δ_n`.
    pub(crate) fn data_sizes(&self) -> &[u64] {
        &self.data_sizes
    }

    /// Sum of weights over the stage interval `lo ..= hi` (inclusive).
    pub fn interval_work(&self, lo: usize, hi: usize) -> u64 {
        self.weights[lo..=hi].iter().sum()
    }

    /// Total work of one data set across all stages.
    pub fn total_work(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// True iff all stages have the same weight (*homogeneous pipeline*).
    pub fn is_homogeneous(&self) -> bool {
        self.weights.windows(2).all(|w| w[0] == w[1])
    }

    /// Period of `mapping` under the simplified model (Section 3.4).
    pub fn period(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::pipeline_period(self, platform, mapping)
    }

    /// Latency of `mapping` under the simplified model (Section 3.4).
    pub fn latency(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::pipeline_latency(self, platform, mapping)
    }
}

/// A fork graph: a root stage `S0` followed by `n` independent stages
/// (Figure 2).
///
/// Each data set traverses `S0`, whose output (size `δ_0`) feeds every
/// independent stage. The paper's *homogeneous fork* has all independent
/// stages of identical weight `w` (the root weight `w_0` may differ).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fork {
    root_weight: u64,
    leaf_weights: Vec<u64>,
    /// `δ_{-1}`: input size of the root from the outside world.
    input_size: u64,
    /// `δ_0`: size of the root's output broadcast to every leaf.
    broadcast_size: u64,
    /// `δ_1 .. δ_n`: output sizes of the independent stages.
    output_sizes: Vec<u64>,
}

impl Fork {
    /// Fork with root weight `w0` and independent-stage weights, zero
    /// communication sizes.
    ///
    /// `leaf_weights` may be empty (a fork degenerated to the root alone).
    pub fn new(root_weight: u64, leaf_weights: Vec<u64>) -> Self {
        let n = leaf_weights.len();
        Fork {
            root_weight,
            leaf_weights,
            input_size: 0,
            broadcast_size: 0,
            output_sizes: vec![0; n],
        }
    }

    /// The paper's *homogeneous fork*: root weight `w0`, `n` leaves of
    /// identical weight `w`.
    pub fn uniform(root_weight: u64, n: usize, w: u64) -> Self {
        Fork::new(root_weight, vec![w; n])
    }

    /// Fork with explicit communication sizes for the general model.
    ///
    /// # Panics
    /// Panics if `output_sizes.len() != leaf_weights.len()`.
    pub fn with_data_sizes(
        root_weight: u64,
        leaf_weights: Vec<u64>,
        input_size: u64,
        broadcast_size: u64,
        output_sizes: Vec<u64>,
    ) -> Self {
        assert_eq!(output_sizes.len(), leaf_weights.len());
        Fork {
            root_weight,
            leaf_weights,
            input_size,
            broadcast_size,
            output_sizes,
        }
    }

    /// Number of stages including the root (`n + 1`).
    #[inline]
    pub fn n_stages(&self) -> usize {
        self.leaf_weights.len() + 1
    }

    /// Number of independent stages `n`.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.leaf_weights.len()
    }

    /// Root weight `w_0`.
    #[inline]
    pub fn root_weight(&self) -> u64 {
        self.root_weight
    }

    /// Weight of stage `k` where `0` is the root and `1 ..= n` are leaves.
    #[inline]
    pub fn weight(&self, stage: usize) -> u64 {
        if stage == 0 {
            self.root_weight
        } else {
            self.leaf_weights[stage - 1]
        }
    }

    /// Weights of the independent stages `S1 .. Sn`.
    #[inline]
    pub fn leaf_weights(&self) -> &[u64] {
        &self.leaf_weights
    }

    /// `δ_{-1}`.
    #[inline]
    pub fn input_size(&self) -> u64 {
        self.input_size
    }

    /// `δ_0`.
    #[inline]
    pub fn broadcast_size(&self) -> u64 {
        self.broadcast_size
    }

    /// `δ_k` for leaf `k` (1-based stage id).
    #[inline]
    pub fn output_size(&self, stage: usize) -> u64 {
        self.output_sizes[stage - 1]
    }

    /// All leaf output sizes `δ_1 .. δ_n`.
    pub(crate) fn output_sizes(&self) -> &[u64] {
        &self.output_sizes
    }

    /// Total work of one data set: `w_0 + Σ w_i`.
    pub fn total_work(&self) -> u64 {
        self.root_weight + self.leaf_weights.iter().sum::<u64>()
    }

    /// True iff all *independent* stages have the same weight (the paper's
    /// *homogeneous fork*; the root weight may differ).
    pub fn is_homogeneous(&self) -> bool {
        self.leaf_weights.windows(2).all(|w| w[0] == w[1])
    }

    /// Period of `mapping` under the simplified model.
    pub fn period(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::fork_period(self, platform, mapping)
    }

    /// Latency of `mapping` under the simplified, flexible model.
    pub fn latency(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::fork_latency(self, platform, mapping)
    }
}

/// A fork-join graph (Section 6.3): a [`Fork`] plus a final stage `Sn+1`
/// that gathers every leaf's result and performs `join_weight` computations.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForkJoin {
    fork: Fork,
    join_weight: u64,
}

impl ForkJoin {
    /// Fork-join with the given root, leaf and join weights.
    pub fn new(root_weight: u64, leaf_weights: Vec<u64>, join_weight: u64) -> Self {
        ForkJoin {
            fork: Fork::new(root_weight, leaf_weights),
            join_weight,
        }
    }

    /// Homogeneous fork-join: `n` identical leaves of weight `w`.
    pub fn uniform(root_weight: u64, n: usize, w: u64, join_weight: u64) -> Self {
        ForkJoin::new(root_weight, vec![w; n], join_weight)
    }

    /// Fork-join with explicit data sizes on its fork part: `input_size`
    /// enters the root from `P_in`, `broadcast_size` is sent to every
    /// leaf group, and `output_sizes[i]` is shipped from leaf `i + 1` to
    /// the *join group* (instead of `P_out` as in a plain [`Fork`]).
    ///
    /// # Panics
    /// Panics if `output_sizes.len() != leaf_weights.len()`.
    pub fn with_data_sizes(
        root_weight: u64,
        leaf_weights: Vec<u64>,
        join_weight: u64,
        input_size: u64,
        broadcast_size: u64,
        output_sizes: Vec<u64>,
    ) -> Self {
        ForkJoin {
            fork: Fork::with_data_sizes(
                root_weight,
                leaf_weights,
                input_size,
                broadcast_size,
                output_sizes,
            ),
            join_weight,
        }
    }

    /// The underlying fork (root + leaves).
    #[inline]
    pub fn fork(&self) -> &Fork {
        &self.fork
    }

    /// Number of stages including root and join (`n + 2`).
    #[inline]
    pub fn n_stages(&self) -> usize {
        self.fork.n_stages() + 1
    }

    /// Number of independent stages `n`.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.fork.n_leaves()
    }

    /// Stage id of the join stage (`n + 1`).
    #[inline]
    pub fn join_stage(&self) -> usize {
        self.fork.n_stages()
    }

    /// Root weight `w_0`.
    #[inline]
    pub fn root_weight(&self) -> u64 {
        self.fork.root_weight()
    }

    /// Join weight `w_{n+1}`.
    #[inline]
    pub fn join_weight(&self) -> u64 {
        self.join_weight
    }

    /// Weight of stage `k` (`0` root, `1..=n` leaves, `n+1` join).
    #[inline]
    pub fn weight(&self, stage: usize) -> u64 {
        if stage == self.join_stage() {
            self.join_weight
        } else {
            self.fork.weight(stage)
        }
    }

    /// Total work of one data set.
    pub fn total_work(&self) -> u64 {
        self.fork.total_work() + self.join_weight
    }

    /// True iff all independent stages have the same weight.
    pub fn is_homogeneous(&self) -> bool {
        self.fork.is_homogeneous()
    }

    /// Period of `mapping` under the simplified model.
    pub fn period(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::forkjoin_period(self, platform, mapping)
    }

    /// Latency of `mapping` under the simplified, flexible model.
    pub fn latency(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        cost::forkjoin_latency(self, platform, mapping)
    }
}

/// Any of the supported application graphs, for generic instance handling.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workflow {
    /// Linear pipeline (Figure 1).
    Pipeline(Pipeline),
    /// Fork (Figure 2).
    Fork(Fork),
    /// Fork-join (Section 6.3).
    ForkJoin(ForkJoin),
}

impl Workflow {
    /// Number of stages of the graph.
    pub fn n_stages(&self) -> usize {
        match self {
            Workflow::Pipeline(p) => p.n_stages(),
            Workflow::Fork(f) => f.n_stages(),
            Workflow::ForkJoin(fj) => fj.n_stages(),
        }
    }

    /// Weight of stage `k` under each graph's stage-id convention.
    pub fn weight(&self, stage: usize) -> u64 {
        match self {
            Workflow::Pipeline(p) => p.weight(stage),
            Workflow::Fork(f) => f.weight(stage),
            Workflow::ForkJoin(fj) => fj.weight(stage),
        }
    }

    /// Total work of one data set.
    pub fn total_work(&self) -> u64 {
        match self {
            Workflow::Pipeline(p) => p.total_work(),
            Workflow::Fork(f) => f.total_work(),
            Workflow::ForkJoin(fj) => fj.total_work(),
        }
    }

    /// True iff the graph is homogeneous in the paper's sense.
    pub fn is_homogeneous(&self) -> bool {
        match self {
            Workflow::Pipeline(p) => p.is_homogeneous(),
            Workflow::Fork(f) => f.is_homogeneous(),
            Workflow::ForkJoin(fj) => fj.is_homogeneous(),
        }
    }

    /// Period of `mapping` under the simplified model.
    pub fn period(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        match self {
            Workflow::Pipeline(p) => p.period(platform, mapping),
            Workflow::Fork(f) => f.period(platform, mapping),
            Workflow::ForkJoin(fj) => fj.period(platform, mapping),
        }
    }

    /// Latency of `mapping` under the simplified model.
    pub fn latency(&self, platform: &Platform, mapping: &Mapping) -> Result<Rat, Error> {
        match self {
            Workflow::Pipeline(p) => p.latency(platform, mapping),
            Workflow::Fork(f) => f.latency(platform, mapping),
            Workflow::ForkJoin(fj) => fj.latency(platform, mapping),
        }
    }

    /// Checks the shape the public constructors assert, for a graph
    /// decoded from untrusted input: a pipeline has at least one stage
    /// and `n + 1` data sizes, a fork or fork-join one output size per
    /// leaf.
    pub(crate) fn check_shape(&self) -> Result<(), String> {
        match self {
            Workflow::Pipeline(p) if p.weights.is_empty() => {
                Err("a pipeline needs at least one stage".into())
            }
            Workflow::Pipeline(p) if p.data_sizes.len() != p.weights.len() + 1 => Err(format!(
                "need n+1 data sizes for an n-stage pipeline (got {} data sizes for {} stages)",
                p.data_sizes.len(),
                p.weights.len()
            )),
            Workflow::Fork(fork) | Workflow::ForkJoin(ForkJoin { fork, .. })
                if fork.output_sizes.len() != fork.leaf_weights.len() =>
            {
                Err(format!(
                    "need one output size per fork leaf (got {} output sizes for {} leaves)",
                    fork.output_sizes.len(),
                    fork.leaf_weights.len()
                ))
            }
            _ => Ok(()),
        }
    }
}

impl From<Pipeline> for Workflow {
    fn from(p: Pipeline) -> Self {
        Workflow::Pipeline(p)
    }
}
impl From<Fork> for Workflow {
    fn from(f: Fork) -> Self {
        Workflow::Fork(f)
    }
}
impl From<ForkJoin> for Workflow {
    fn from(fj: ForkJoin) -> Self {
        Workflow::ForkJoin(fj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_basics() {
        let p = Pipeline::new(vec![14, 4, 2, 4]);
        assert_eq!(p.n_stages(), 4);
        assert_eq!(p.total_work(), 24);
        assert_eq!(p.weight(0), 14);
        assert_eq!(p.interval_work(1, 3), 10);
        assert_eq!(p.interval_work(0, 0), 14);
        assert!(!p.is_homogeneous());
        assert!(Pipeline::uniform(5, 3).is_homogeneous());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = Pipeline::new(vec![]);
    }

    #[test]
    fn pipeline_data_sizes() {
        let p = Pipeline::with_data_sizes(vec![5, 6], vec![1, 2, 3]);
        assert_eq!(p.data_size(0), 1);
        assert_eq!(p.data_size(1), 2);
        assert_eq!(p.data_size(2), 3);
        // default sizes are zero
        let q = Pipeline::new(vec![5, 6]);
        assert_eq!(q.data_size(1), 0);
    }

    #[test]
    fn fork_basics() {
        let f = Fork::new(3, vec![1, 2, 3]);
        assert_eq!(f.n_stages(), 4);
        assert_eq!(f.n_leaves(), 3);
        assert_eq!(f.root_weight(), 3);
        assert_eq!(f.weight(0), 3);
        assert_eq!(f.weight(2), 2);
        assert_eq!(f.total_work(), 9);
        assert!(!f.is_homogeneous());
        assert!(Fork::uniform(7, 4, 2).is_homogeneous());
        // homogeneity ignores the root weight
        assert!(Fork::new(99, vec![2, 2]).is_homogeneous());
    }

    #[test]
    fn fork_without_leaves() {
        let f = Fork::new(5, vec![]);
        assert_eq!(f.n_stages(), 1);
        assert_eq!(f.total_work(), 5);
        assert!(f.is_homogeneous());
    }

    #[test]
    fn forkjoin_basics() {
        let fj = ForkJoin::new(1, vec![2, 2], 5);
        assert_eq!(fj.n_stages(), 4);
        assert_eq!(fj.join_stage(), 3);
        assert_eq!(fj.weight(0), 1);
        assert_eq!(fj.weight(1), 2);
        assert_eq!(fj.weight(3), 5);
        assert_eq!(fj.total_work(), 10);
    }

    #[test]
    fn workflow_enum_dispatch() {
        let w: Workflow = Pipeline::new(vec![1, 2]).into();
        assert_eq!(w.n_stages(), 2);
        assert_eq!(w.total_work(), 3);
        let w: Workflow = Fork::new(1, vec![1]).into();
        assert_eq!(w.n_stages(), 2);
        let w: Workflow = ForkJoin::new(1, vec![1], 1).into();
        assert_eq!(w.n_stages(), 3);
        assert!(w.is_homogeneous());
    }

    #[test]
    fn serde_round_trip() {
        let p = Pipeline::with_data_sizes(vec![5, 6], vec![1, 2, 3]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Pipeline = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
