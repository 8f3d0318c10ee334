//! Problem instances and the sixteen-variant taxonomy of Table 1.
//!
//! A [`ProblemInstance`] bundles an application graph, a platform and the
//! model flag (*with* or *without* data-parallelism; replication is always
//! allowed, matching Section 4). [`Variant`] names the cell of Table 1 an
//! instance belongs to, which the benchmark harness uses to regenerate the
//! table.

use crate::comm::{CommModel, Network, StartRule};
use crate::comm_cost;
use crate::error::Error;
use crate::mapping::Mapping;
use crate::platform::Platform;
use crate::rational::Rat;
use crate::workflow::Workflow;
use serde::{Deserialize, Serialize};

/// The optimization objective of a mapping problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the period (maximize throughput).
    Period,
    /// Minimize the latency (response time).
    Latency,
    /// Minimize the latency subject to `period <= bound`.
    LatencyUnderPeriod(Rat),
    /// Minimize the period subject to `latency <= bound`.
    PeriodUnderLatency(Rat),
    /// Minimize the latency subject to `period < bound` (strict).
    ///
    /// The strict variants exist for the ε-constraint Pareto sweep:
    /// over exact rationals there is no smallest ε, so "strictly better
    /// than the previous front point" must be a first-class constraint
    /// rather than a `bound - ε` approximation.
    LatencyUnderPeriodStrict(Rat),
    /// Minimize the period subject to `latency < bound` (strict).
    PeriodUnderLatencyStrict(Rat),
    /// Minimize the latency subject to the mapping's success
    /// probability being at least `bound` (the reliability model of
    /// Benoit/Rehn-Sonigo/Robert 2008 — see `crate::reliability`).
    ///
    /// Reliability depends on the *mapping*, not on the `(period,
    /// latency)` pair, so [`Objective::score`]/[`Objective::meets_bound`]
    /// treat this like plain [`Objective::Latency`]; the bound is
    /// enforced where the mapping is in hand (the heuristic scoring
    /// funnel, the exact enumerators, the registry's defense check) via
    /// [`Objective::reliability_bound`].
    LatencyUnderReliability(Rat),
    /// Minimize the period subject to the mapping's success probability
    /// being at least `bound`.
    PeriodUnderReliability(Rat),
}

impl Objective {
    /// Lexicographic `(primary, tiebreak)` score of an evaluated
    /// `(period, latency)` pair — smaller is better, bi-criteria bound
    /// violations score [`Rat::INFINITY`] in the primary slot. The one
    /// ordering every search (heuristic portfolios, branch-and-bound)
    /// ranks mappings by.
    pub fn score(self, period: Rat, latency: Rat) -> (Rat, Rat) {
        match self {
            Objective::Period => (period, latency),
            Objective::Latency => (latency, period),
            Objective::LatencyUnderPeriod(bound) => {
                if period <= bound {
                    (latency, period)
                } else {
                    (Rat::INFINITY, period)
                }
            }
            Objective::PeriodUnderLatency(bound) => {
                if latency <= bound {
                    (period, latency)
                } else {
                    (Rat::INFINITY, latency)
                }
            }
            Objective::LatencyUnderPeriodStrict(bound) => {
                if period < bound {
                    (latency, period)
                } else {
                    (Rat::INFINITY, period)
                }
            }
            Objective::PeriodUnderLatencyStrict(bound) => {
                if latency < bound {
                    (period, latency)
                } else {
                    (Rat::INFINITY, latency)
                }
            }
            // reliability is a property of the mapping, not of the
            // (period, latency) pair — enforced at the scoring funnel
            // that has the mapping (see `Objective::reliability_bound`)
            Objective::LatencyUnderReliability(_) => (latency, period),
            Objective::PeriodUnderReliability(_) => (period, latency),
        }
    }

    /// Whether `(period, latency)` meets this objective's bi-criteria
    /// bound (vacuously true for single-criterion objectives, and for
    /// the reliability-bounded ones — their bound constrains the
    /// mapping, not this pair; see [`Objective::reliability_bound`]).
    pub fn meets_bound(self, period: Rat, latency: Rat) -> bool {
        match self {
            Objective::Period
            | Objective::Latency
            | Objective::LatencyUnderReliability(_)
            | Objective::PeriodUnderReliability(_) => true,
            Objective::LatencyUnderPeriod(bound) => period <= bound,
            Objective::PeriodUnderLatency(bound) => latency <= bound,
            Objective::LatencyUnderPeriodStrict(bound) => period < bound,
            Objective::PeriodUnderLatencyStrict(bound) => latency < bound,
        }
    }

    /// The success-probability lower bound of a reliability-constrained
    /// objective (`None` for every other objective).
    pub fn reliability_bound(self) -> Option<Rat> {
        match self {
            Objective::LatencyUnderReliability(bound)
            | Objective::PeriodUnderReliability(bound) => Some(bound),
            _ => None,
        }
    }

    /// Whether this is a strict (`<`) ε-constraint variant — the bound
    /// form the Pareto-front sweep advances with (the paper's theorem
    /// algorithms take non-strict bounds only).
    pub fn is_strict(self) -> bool {
        matches!(
            self,
            Objective::LatencyUnderPeriodStrict(_) | Objective::PeriodUnderLatencyStrict(_)
        )
    }
}

/// Which cost model evaluates mappings of an instance.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// The simplified model of Section 3.4: communication is free.
    #[default]
    Simplified,
    /// The general model of Sections 3.2–3.3: transfers cost
    /// `size / bandwidth` over the given network.
    WithComm {
        /// Link bandwidths (including `P_in`/`P_out` links).
        network: Network,
        /// One-port or bounded multi-port send discipline.
        comm: CommModel,
        /// Whether fork sends may overlap the root group's remaining
        /// computation (`true` = the paper's *flexible* rule, matching
        /// the simplified model's timing; `false` = *strict*).
        overlap: bool,
    },
}

impl CostModel {
    /// True for [`CostModel::WithComm`].
    pub fn is_comm_aware(&self) -> bool {
        matches!(self, CostModel::WithComm { .. })
    }

    /// The fork send-start rule implied by the overlap flag
    /// ([`StartRule::Flexible`] for the simplified model).
    pub fn start_rule(&self) -> StartRule {
        match self {
            CostModel::Simplified => StartRule::Flexible,
            CostModel::WithComm { overlap: true, .. } => StartRule::Flexible,
            CostModel::WithComm { overlap: false, .. } => StartRule::Strict,
        }
    }
}

impl std::fmt::Display for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModel::Simplified => f.write_str("simplified"),
            CostModel::WithComm { comm, overlap, .. } => {
                let rule = if *overlap { "overlapped" } else { "strict" };
                write!(f, "comm {comm}, {rule}")
            }
        }
    }
}

/// A complete problem instance.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ProblemInstance {
    /// The application graph.
    pub workflow: Workflow,
    /// The target platform.
    pub platform: Platform,
    /// Whether stages may be data-parallelized (the paper's "with
    /// data-par" column); replication is always permitted.
    pub allow_data_parallel: bool,
    /// What to optimize.
    pub objective: Objective,
    /// Which cost model evaluates mappings (defaults to
    /// [`CostModel::Simplified`], including for JSON instances that omit
    /// the field).
    pub cost_model: CostModel,
}

// Hand-written so pre-existing instance JSON without a `cost_model`
// field keeps deserializing (the vendored derive has no
// `#[serde(default)]` support).
impl serde::Deserialize for ProblemInstance {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let field = |name: &str| {
            value
                .field(name)
                .ok_or_else(|| serde::de::Error::missing_field(name, "ProblemInstance"))
        };
        ProblemInstance {
            workflow: serde::Deserialize::deserialize(field("workflow")?)?,
            platform: serde::Deserialize::deserialize(field("platform")?)?,
            allow_data_parallel: serde::Deserialize::deserialize(field("allow_data_parallel")?)?,
            objective: serde::Deserialize::deserialize(field("objective")?)?,
            cost_model: match value.field("cost_model") {
                Some(v) => serde::Deserialize::deserialize(v)?,
                None => CostModel::Simplified,
            },
        }
        .checked()
    }
}

// Hand-written for the same reason as the tree impl above: `cost_model`
// defaults to `Simplified` when absent. This is the near-linear load
// path for multi-MB instance files (`serde_json::from_str_streaming`).
impl serde::DeserializeStream for ProblemInstance {
    fn deserialize_stream(
        parser: &mut serde::de::JsonParser<'_>,
    ) -> Result<Self, serde::de::Error> {
        let mut workflow = None;
        let mut platform = None;
        let mut allow_data_parallel = None;
        let mut objective = None;
        let mut cost_model = None;
        parser.begin_object()?;
        let mut first = true;
        while let Some(key) = parser.object_next(first)? {
            first = false;
            // the first occurrence of a key wins, as in the tree lookup;
            // a repeat is skipped, so it need only be valid JSON
            match key.as_ref() {
                "workflow" if workflow.is_none() => {
                    workflow = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                "platform" if platform.is_none() => {
                    platform = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                "allow_data_parallel" if allow_data_parallel.is_none() => {
                    allow_data_parallel =
                        Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                "objective" if objective.is_none() => {
                    objective = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                "cost_model" if cost_model.is_none() => {
                    cost_model = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                _ => parser.skip_value()?,
            }
        }
        let missing = |name| serde::de::Error::missing_field(name, "ProblemInstance");
        ProblemInstance {
            workflow: workflow.ok_or_else(|| missing("workflow"))?,
            platform: platform.ok_or_else(|| missing("platform"))?,
            allow_data_parallel: allow_data_parallel
                .ok_or_else(|| missing("allow_data_parallel"))?,
            objective: objective.ok_or_else(|| missing("objective"))?,
            cost_model: cost_model.unwrap_or(CostModel::Simplified),
        }
        .checked()
    }
}

impl ProblemInstance {
    /// Instance under the simplified Section 3.4 model (the common
    /// case; switch models with [`ProblemInstance::with_cost_model`]).
    pub fn new(
        workflow: impl Into<Workflow>,
        platform: Platform,
        allow_data_parallel: bool,
        objective: Objective,
    ) -> ProblemInstance {
        ProblemInstance {
            workflow: workflow.into(),
            platform,
            allow_data_parallel,
            objective,
            cost_model: CostModel::Simplified,
        }
    }

    /// A decoded instance, or the first shape invariant of its workflow
    /// that a public constructor would have asserted (both decoders
    /// share this check; the platform's decoders check its own).
    fn checked(self) -> Result<ProblemInstance, serde::de::Error> {
        self.workflow
            .check_shape()
            .map_err(serde::de::Error::custom)?;
        Ok(self)
    }

    /// Period of `mapping` under this instance's cost model.
    pub fn period(&self, mapping: &Mapping) -> Result<Rat, Error> {
        self.objectives(mapping).map(|(period, _)| period)
    }

    /// Latency of `mapping` under this instance's cost model.
    pub fn latency(&self, mapping: &Mapping) -> Result<Rat, Error> {
        self.objectives(mapping).map(|(_, latency)| latency)
    }

    /// Both objectives of `mapping` in one evaluation — under the
    /// communication-aware model this shares validation and the
    /// per-group transfer terms between period and latency, which is
    /// what the enumeration/search hot paths want.
    pub fn objectives(&self, mapping: &Mapping) -> Result<(Rat, Rat), Error> {
        match &self.cost_model {
            CostModel::Simplified => Ok((
                self.workflow.period(&self.platform, mapping)?,
                self.workflow.latency(&self.platform, mapping)?,
            )),
            CostModel::WithComm { network, comm, .. } => {
                let start = self.cost_model.start_rule();
                match &self.workflow {
                    Workflow::Pipeline(p) => {
                        comm_cost::pipeline_objectives(p, &self.platform, network, mapping)
                    }
                    Workflow::Fork(f) => comm_cost::fork_objectives(
                        f,
                        &self.platform,
                        network,
                        *comm,
                        start,
                        mapping,
                    ),
                    Workflow::ForkJoin(fj) => comm_cost::forkjoin_objectives(
                        fj,
                        &self.platform,
                        network,
                        *comm,
                        start,
                        mapping,
                    ),
                }
            }
        }
    }

    /// Replaces the cost model (builder style).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> ProblemInstance {
        self.cost_model = cost_model;
        self
    }
    /// Classifies this instance into its Table 1 cell.
    pub fn variant(&self) -> Variant {
        Variant {
            graph: match &self.workflow {
                Workflow::Pipeline(p) => {
                    if p.is_homogeneous() {
                        GraphClass::HomPipeline
                    } else {
                        GraphClass::HetPipeline
                    }
                }
                Workflow::Fork(f) => {
                    if f.is_homogeneous() {
                        GraphClass::HomFork
                    } else {
                        GraphClass::HetFork
                    }
                }
                Workflow::ForkJoin(fj) => {
                    if fj.is_homogeneous() {
                        GraphClass::HomForkJoin
                    } else {
                        GraphClass::HetForkJoin
                    }
                }
            },
            platform: if self.platform.is_homogeneous() {
                PlatformClass::Homogeneous
            } else {
                PlatformClass::Heterogeneous
            },
            data_parallel: self.allow_data_parallel,
            objective: match self.objective {
                Objective::Period => ObjectiveClass::Period,
                Objective::Latency => ObjectiveClass::Latency,
                Objective::LatencyUnderPeriod(_)
                | Objective::PeriodUnderLatency(_)
                | Objective::LatencyUnderPeriodStrict(_)
                | Objective::PeriodUnderLatencyStrict(_) => ObjectiveClass::BiCriteria,
                Objective::LatencyUnderReliability(_) | Objective::PeriodUnderReliability(_) => {
                    ObjectiveClass::Reliability
                }
            },
        }
    }
}

/// Row class of Table 1 (application graph kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphClass {
    /// Pipeline with identical stage weights.
    HomPipeline,
    /// Pipeline with arbitrary stage weights.
    HetPipeline,
    /// Fork with identical leaf weights.
    HomFork,
    /// Fork with arbitrary leaf weights.
    HetFork,
    /// Fork-join with identical leaf weights (Section 6.3 extension).
    HomForkJoin,
    /// Fork-join with arbitrary leaf weights (Section 6.3 extension).
    HetForkJoin,
}

/// Platform column of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformClass {
    /// Identical processors.
    Homogeneous,
    /// Different-speed processors.
    Heterogeneous,
}

/// Objective column of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectiveClass {
    /// Period minimization ("P").
    Period,
    /// Latency minimization ("L").
    Latency,
    /// Bi-criteria ("both").
    BiCriteria,
    /// Reliability-constrained (period or latency under a success-
    /// probability bound — the Benoit/Rehn-Sonigo/Robert 2008
    /// extension; outside the source paper's Table 1).
    Reliability,
}

/// One cell of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Variant {
    /// Application graph class.
    pub graph: GraphClass,
    /// Platform class.
    pub platform: PlatformClass,
    /// Model with (`true`) or without (`false`) data-parallel stages.
    pub data_parallel: bool,
    /// Objective class.
    pub objective: ObjectiveClass,
}

/// The complexity of a Table 1 cell as established by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Complexity {
    /// Polynomial, with the theorem providing the algorithm.
    Polynomial(&'static str),
    /// NP-hard, with the theorem providing the reduction.
    NpHard(&'static str),
}

impl Variant {
    /// The paper's complexity classification of this cell (Table 1),
    /// restricted to pipeline/fork (fork-join inherits its fork
    /// counterpart per Section 6.3).
    pub fn paper_complexity(&self) -> Complexity {
        use Complexity::*;
        use GraphClass::*;
        use ObjectiveClass::*;
        use PlatformClass::*;
        // Reliability-constrained cells are outside the source paper's
        // Table 1; the successor paper (Benoit/Rehn-Sonigo/Robert 2008)
        // establishes NP-hardness for the heterogeneous bi-criteria
        // latency/reliability problem, and we conservatively classify
        // the whole column as hard: no polynomial paper algorithm is
        // available, which keeps the paper engine unrouted here.
        if self.objective == Reliability {
            return NpHard("BRS'08");
        }
        let graph = match self.graph {
            HomForkJoin => HomFork,
            HetForkJoin => HetFork,
            g => g,
        };
        match (graph, self.platform, self.data_parallel, self.objective) {
            // ---- Homogeneous platforms ----
            // Pipelines: everything polynomial (Theorems 1-4).
            (HomPipeline | HetPipeline, Homogeneous, false, Period) => Polynomial("Thm 1"),
            (HomPipeline | HetPipeline, Homogeneous, false, Latency) => Polynomial("Thm 2"),
            (HomPipeline | HetPipeline, Homogeneous, false, BiCriteria) => Polynomial("Cor 1"),
            (HomPipeline | HetPipeline, Homogeneous, true, Period) => Polynomial("Thm 1"),
            (HomPipeline | HetPipeline, Homogeneous, true, Latency) => Polynomial("Thm 3"),
            (HomPipeline | HetPipeline, Homogeneous, true, BiCriteria) => Polynomial("Thm 4"),
            // Forks on homogeneous platforms.
            (HomFork | HetFork, Homogeneous, _, Period) => Polynomial("Thm 10"),
            (HomFork, Homogeneous, _, Latency) => Polynomial("Thm 11"),
            (HomFork, Homogeneous, _, BiCriteria) => Polynomial("Thm 11"),
            (HetFork, Homogeneous, _, Latency | BiCriteria) => NpHard("Thm 12"),
            // ---- Heterogeneous platforms ----
            (HomPipeline, Heterogeneous, false, Period) => Polynomial("Thm 7"),
            (HomPipeline, Heterogeneous, false, Latency) => Polynomial("Thm 6"),
            (HomPipeline, Heterogeneous, false, BiCriteria) => Polynomial("Thm 8"),
            (HomPipeline, Heterogeneous, true, _) => NpHard("Thm 5"),
            (HetPipeline, Heterogeneous, false, Period) => NpHard("Thm 9"),
            (HetPipeline, Heterogeneous, false, Latency) => Polynomial("Thm 6"),
            (HetPipeline, Heterogeneous, false, BiCriteria) => NpHard("Thm 9"),
            (HetPipeline, Heterogeneous, true, _) => NpHard("Thm 5"),
            (HomFork, Heterogeneous, false, _) => Polynomial("Thm 14"),
            (HomFork, Heterogeneous, true, _) => NpHard("Thm 13"),
            (HetFork, Heterogeneous, _, _) => NpHard("Thm 15"),
            (HomForkJoin | HetForkJoin, _, _, _) => unreachable!("normalized above"),
            (_, _, _, Reliability) => unreachable!("handled by the early return above"),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = match self.graph {
            GraphClass::HomPipeline => "Hom. pipeline",
            GraphClass::HetPipeline => "Het. pipeline",
            GraphClass::HomFork => "Hom. fork",
            GraphClass::HetFork => "Het. fork",
            GraphClass::HomForkJoin => "Hom. fork-join",
            GraphClass::HetForkJoin => "Het. fork-join",
        };
        let p = match self.platform {
            PlatformClass::Homogeneous => "Hom. platform",
            PlatformClass::Heterogeneous => "Het. platform",
        };
        let dp = if self.data_parallel {
            "with data-par"
        } else {
            "without data-par"
        };
        let o = match self.objective {
            ObjectiveClass::Period => "P",
            ObjectiveClass::Latency => "L",
            ObjectiveClass::BiCriteria => "both",
            ObjectiveClass::Reliability => "reliability",
        };
        write!(f, "{g} / {p} / {dp} / {o}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Fork, Pipeline};

    #[test]
    fn classification() {
        let inst = ProblemInstance {
            cost_model: CostModel::Simplified,
            workflow: Pipeline::uniform(4, 3).into(),
            platform: Platform::heterogeneous(vec![1, 2]),
            allow_data_parallel: false,
            objective: Objective::Period,
        };
        let v = inst.variant();
        assert_eq!(v.graph, GraphClass::HomPipeline);
        assert_eq!(v.platform, PlatformClass::Heterogeneous);
        assert_eq!(v.objective, ObjectiveClass::Period);
        assert_eq!(v.paper_complexity(), Complexity::Polynomial("Thm 7"));
    }

    #[test]
    fn np_hard_cells() {
        // Het pipeline period on het platform without DP: Theorem 9.
        let v = Variant {
            graph: GraphClass::HetPipeline,
            platform: PlatformClass::Heterogeneous,
            data_parallel: false,
            objective: ObjectiveClass::Period,
        };
        assert_eq!(v.paper_complexity(), Complexity::NpHard("Thm 9"));
        // Hom pipeline with DP on het platform: Theorem 5 (any objective).
        for o in [
            ObjectiveClass::Period,
            ObjectiveClass::Latency,
            ObjectiveClass::BiCriteria,
        ] {
            let v = Variant {
                graph: GraphClass::HomPipeline,
                platform: PlatformClass::Heterogeneous,
                data_parallel: true,
                objective: o,
            };
            assert_eq!(v.paper_complexity(), Complexity::NpHard("Thm 5"));
        }
    }

    #[test]
    fn fork_cells() {
        let v = Variant {
            graph: GraphClass::HetFork,
            platform: PlatformClass::Homogeneous,
            data_parallel: false,
            objective: ObjectiveClass::Latency,
        };
        assert_eq!(v.paper_complexity(), Complexity::NpHard("Thm 12"));
        let v = Variant {
            graph: GraphClass::HomFork,
            platform: PlatformClass::Heterogeneous,
            data_parallel: false,
            objective: ObjectiveClass::BiCriteria,
        };
        assert_eq!(v.paper_complexity(), Complexity::Polynomial("Thm 14"));
        let v = Variant {
            graph: GraphClass::HetFork,
            platform: PlatformClass::Heterogeneous,
            data_parallel: true,
            objective: ObjectiveClass::Period,
        };
        assert_eq!(v.paper_complexity(), Complexity::NpHard("Thm 15"));
    }

    #[test]
    fn forkjoin_inherits_fork_complexity() {
        let inst = ProblemInstance {
            cost_model: CostModel::Simplified,
            workflow: crate::workflow::ForkJoin::uniform(2, 3, 5, 1).into(),
            platform: Platform::heterogeneous(vec![1, 2]),
            allow_data_parallel: false,
            objective: Objective::Latency,
        };
        assert_eq!(
            inst.variant().paper_complexity(),
            Complexity::Polynomial("Thm 14")
        );
    }

    #[test]
    fn serde_round_trip() {
        let inst = ProblemInstance {
            cost_model: CostModel::Simplified,
            workflow: Fork::new(1, vec![2, 3]).into(),
            platform: Platform::homogeneous(2, 1),
            allow_data_parallel: true,
            objective: Objective::LatencyUnderPeriod(Rat::new(7, 2)),
        };
        let json = serde_json::to_string(&inst).unwrap();
        let back: ProblemInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn streaming_deserializer_matches_the_tree_path() {
        let inst = ProblemInstance {
            cost_model: CostModel::WithComm {
                network: crate::comm::Network::uniform(3, 2),
                comm: CommModel::BoundedMultiPort,
                overlap: true,
            },
            workflow: Pipeline::with_data_sizes(vec![8, 4], vec![8, 2, 8]).into(),
            platform: Platform::heterogeneous(vec![2, 2, 1]),
            allow_data_parallel: false,
            objective: Objective::PeriodUnderLatency(Rat::new(9, 2)),
        };
        for json in [
            serde_json::to_string(&inst).unwrap(),
            serde_json::to_string_pretty(&inst).unwrap(),
        ] {
            let tree: ProblemInstance = serde_json::from_str(&json).unwrap();
            let streamed: ProblemInstance = serde_json::from_str_streaming(&json).unwrap();
            assert_eq!(tree, streamed);
            assert_eq!(inst, streamed);
        }
    }

    #[test]
    fn streaming_deserializer_accepts_reordered_and_unknown_fields() {
        // field order is free in JSON and unknown keys are skipped —
        // the hand-rolled streaming impl must match the tree path here
        let json = r#"{
            "objective": "Period",
            "cost_model": "Simplified",
            "platform": { "speeds": [1, 1] },
            "comment": { "unknown": ["keys", "are", "skipped"] },
            "allow_data_parallel": true,
            "workflow": { "Pipeline": { "weights": [3, 5], "data_sizes": [0, 0, 0] } }
        }"#;
        let tree: ProblemInstance = serde_json::from_str(json).unwrap();
        let streamed: ProblemInstance = serde_json::from_str_streaming(json).unwrap();
        assert_eq!(tree, streamed);
    }

    #[test]
    fn display_names() {
        let v = Variant {
            graph: GraphClass::HomPipeline,
            platform: PlatformClass::Heterogeneous,
            data_parallel: true,
            objective: ObjectiveClass::BiCriteria,
        };
        assert_eq!(
            v.to_string(),
            "Hom. pipeline / Het. platform / with data-par / both"
        );
    }
}
