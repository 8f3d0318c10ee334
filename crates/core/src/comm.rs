//! The general execution model with communication costs (Sections 3.2–3.3).
//!
//! The paper defines — but deliberately does not analyze — a general model
//! where processor pairs communicate over links of bandwidth `b_{u,v}`, data
//! enters from a special processor `P_in` and results leave to `P_out`, and
//! the linear cost to ship `X` bytes over a link of bandwidth `b` is `X/b`.
//! Section 3.3 gives the closed formulas for *interval mappings without
//! replication or data-parallelism* (one processor per interval), which we
//! implement verbatim:
//!
//! period (1):
//! `T_period = max_j { δ_{d_j-1}/b(alloc(j-1),alloc(j)) + Σ w_i/s_alloc(j)
//!             + δ_{e_j}/b(alloc(j),alloc(j+1)) }`
//!
//! latency (2): the same summand, summed over `j` instead of maxed.
//!
//! For fork graphs the paper observes that the period/latency depend on the
//! communication *ordering* and on whether the model is *strict* (the root
//! processor sends only after finishing all its computations) or *flexible*
//! (sends may start as soon as `S0` completes). We implement both variants
//! under the **one-port** model (a processor performs one send at a time,
//! serialized in group order) and under the **bounded multi-port** model
//! (all sends progress concurrently, limited by per-link bandwidth and a
//! per-node capacity). These instantiations are exercised and cross-checked
//! by `repliflow-sim`.

use crate::platform::{Platform, ProcId};
use crate::rational::Rat;
use crate::workflow::{Fork, Pipeline};
use serde::{Deserialize, Serialize};

/// A communication endpoint: the input processor, a compute processor, or
/// the output processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// `P_in`, where all input data initially resides.
    In,
    /// A compute processor.
    Proc(ProcId),
    /// `P_out`, where all results must be stored.
    Out,
}

/// Link bandwidths of the (virtual) clique interconnect, including the
/// links to/from `P_in` and `P_out`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    /// `proc_bw[u][v]` = bandwidth of `link_{u,v}` (symmetric use; a
    /// diagonal entry is ignored — local transfers are free).
    proc_bw: Vec<Vec<u64>>,
    /// Bandwidth from `P_in` to each processor.
    input_bw: Vec<u64>,
    /// Bandwidth from each processor to `P_out`.
    output_bw: Vec<u64>,
    /// Per-node outgoing capacity for the bounded multi-port model
    /// (`None` = unbounded, i.e. the plain multi-port model).
    node_capacity: Option<u64>,
    /// When set, every link has infinite bandwidth (all transfers are
    /// free): the degenerate network under which the general model
    /// provably collapses onto the simplified Section 3.4 model.
    infinite: bool,
}

impl Network {
    /// Fully homogeneous network: every link (including `P_in`/`P_out`
    /// links) has bandwidth `b`; no node capacity bound.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn uniform(n_procs: usize, b: u64) -> Self {
        assert!(b > 0, "bandwidth must be positive");
        Network {
            proc_bw: vec![vec![b; n_procs]; n_procs],
            input_bw: vec![b; n_procs],
            output_bw: vec![b; n_procs],
            node_capacity: None,
            infinite: false,
        }
    }

    /// The degenerate network where every transfer is free (infinite
    /// bandwidth on every link, no node capacity): under it the general
    /// model reduces exactly to the simplified Section 3.4 model.
    pub fn infinite(n_procs: usize) -> Self {
        Network {
            infinite: true,
            ..Network::uniform(n_procs.max(1), 1)
        }
    }

    /// True iff this is the free-transfer network of
    /// [`Network::infinite`].
    pub fn is_infinite(&self) -> bool {
        self.infinite
    }

    /// Number of compute processors this network connects.
    pub fn n_procs(&self) -> usize {
        self.input_bw.len()
    }

    /// Fully heterogeneous network.
    ///
    /// # Panics
    /// Panics on dimension mismatches or zero bandwidths.
    pub fn heterogeneous(proc_bw: Vec<Vec<u64>>, input_bw: Vec<u64>, output_bw: Vec<u64>) -> Self {
        let p = input_bw.len();
        assert_eq!(proc_bw.len(), p);
        assert!(proc_bw.iter().all(|row| row.len() == p));
        assert_eq!(output_bw.len(), p);
        assert!(
            input_bw.iter().chain(output_bw.iter()).all(|&b| b > 0),
            "bandwidths must be positive"
        );
        assert!(
            proc_bw
                .iter()
                .enumerate()
                .all(|(u, row)| row.iter().enumerate().all(|(v, &b)| u == v || b > 0)),
            "bandwidths must be positive"
        );
        Network {
            proc_bw,
            input_bw,
            output_bw,
            node_capacity: None,
            infinite: false,
        }
    }

    /// Sets the per-node outgoing capacity of the bounded multi-port model.
    pub fn with_node_capacity(mut self, capacity: u64) -> Self {
        assert!(capacity > 0, "node capacity must be positive");
        self.node_capacity = Some(capacity);
        self
    }

    /// The node capacity bound, if any.
    pub fn node_capacity(&self) -> Option<u64> {
        self.node_capacity
    }

    /// The raw bandwidth tables: processor links, `P_in` links and
    /// `P_out` links.
    pub(crate) fn bandwidth_tables(&self) -> (&[Vec<u64>], &[u64], &[u64]) {
        (&self.proc_bw, &self.input_bw, &self.output_bw)
    }

    /// Bandwidth between two endpoints.
    ///
    /// Transfers between identical endpoints are free (`+∞` bandwidth is
    /// modeled by returning `None`, meaning zero transfer time).
    pub fn bandwidth(&self, from: Endpoint, to: Endpoint) -> Option<u64> {
        if self.infinite {
            return None;
        }
        match (from, to) {
            (a, b) if a == b => None,
            (Endpoint::In, Endpoint::Proc(v)) => Some(self.input_bw[v.0]),
            (Endpoint::Proc(u), Endpoint::Out) => Some(self.output_bw[u.0]),
            (Endpoint::Proc(u), Endpoint::Proc(v)) => Some(self.proc_bw[u.0][v.0]),
            (Endpoint::In, Endpoint::Out) => None, // no compute path uses it
            _ => None,
        }
    }

    /// Time to ship `size` bytes from `from` to `to` (`X / b_{u,v}`,
    /// zero between identical endpoints or when `size == 0`).
    pub fn transfer_time(&self, size: u64, from: Endpoint, to: Endpoint) -> Rat {
        if size == 0 {
            return Rat::ZERO;
        }
        match self.bandwidth(from, to) {
            None => Rat::ZERO,
            Some(b) => Rat::ratio(size, b),
        }
    }
}

/// An interval mapping for the general model: interval `j` covers stages
/// `lo ..= hi` and runs on a single processor.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalAlloc {
    /// First stage of the interval (0-based, inclusive).
    pub lo: usize,
    /// Last stage of the interval (0-based, inclusive).
    pub hi: usize,
    /// The processor executing the interval.
    pub proc: ProcId,
}

fn check_intervals(n_stages: usize, alloc: &[IntervalAlloc]) {
    assert!(!alloc.is_empty(), "empty interval mapping");
    assert_eq!(alloc[0].lo, 0, "first interval must start at stage 0");
    assert_eq!(
        alloc.last().unwrap().hi,
        n_stages - 1,
        "last interval must end at the last stage"
    );
    for w in alloc.windows(2) {
        assert_eq!(
            w[1].lo,
            w[0].hi + 1,
            "intervals must be consecutive and non-overlapping"
        );
    }
    for a in alloc {
        assert!(a.lo <= a.hi, "interval bounds out of order");
    }
}

/// The period/latency summand of interval `j` in formulas (1)–(2):
/// input transfer + computation + output transfer.
fn interval_term(
    pipeline: &Pipeline,
    platform: &Platform,
    network: &Network,
    alloc: &[IntervalAlloc],
    j: usize,
) -> Rat {
    let a = &alloc[j];
    let pred = if j == 0 {
        Endpoint::In
    } else {
        Endpoint::Proc(alloc[j - 1].proc)
    };
    let succ = if j + 1 == alloc.len() {
        Endpoint::Out
    } else {
        Endpoint::Proc(alloc[j + 1].proc)
    };
    let me = Endpoint::Proc(a.proc);
    let recv = network.transfer_time(pipeline.data_size(a.lo), pred, me);
    let compute = Rat::ratio(pipeline.interval_work(a.lo, a.hi), platform.speed(a.proc));
    let send = network.transfer_time(pipeline.data_size(a.hi + 1), me, succ);
    recv + compute + send
}

/// Pipeline period under the general model — formula (1) of Section 3.3.
///
/// # Panics
/// Panics if `alloc` is not a partition of the stages into consecutive
/// intervals.
pub fn pipeline_period_with_comm(
    pipeline: &Pipeline,
    platform: &Platform,
    network: &Network,
    alloc: &[IntervalAlloc],
) -> Rat {
    check_intervals(pipeline.n_stages(), alloc);
    (0..alloc.len())
        .map(|j| interval_term(pipeline, platform, network, alloc, j))
        .fold(Rat::ZERO, Rat::max)
}

/// Pipeline latency under the general model — formula (2) of Section 3.3.
///
/// # Panics
/// Panics if `alloc` is not a partition of the stages into consecutive
/// intervals.
pub fn pipeline_latency_with_comm(
    pipeline: &Pipeline,
    platform: &Platform,
    network: &Network,
    alloc: &[IntervalAlloc],
) -> Rat {
    check_intervals(pipeline.n_stages(), alloc);
    (0..alloc.len())
        .map(|j| interval_term(pipeline, platform, network, alloc, j))
        .sum()
}

/// Which communication discipline the fork evaluation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommModel {
    /// One communication at a time per processor, serialized in group
    /// order (Section 3.2's one-port model).
    OnePort,
    /// All sends progress concurrently, each bounded by its link bandwidth
    /// and by the sender's node capacity if set (bounded multi-port).
    BoundedMultiPort,
}

impl CommModel {
    /// Parses the CLI spelling (`one-port`, `multi-port`).
    pub fn parse(s: &str) -> Option<CommModel> {
        match s {
            "one-port" => Some(CommModel::OnePort),
            "multi-port" => Some(CommModel::BoundedMultiPort),
            _ => None,
        }
    }
}

impl std::fmt::Display for CommModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CommModel::OnePort => "one-port",
            CommModel::BoundedMultiPort => "multi-port",
        })
    }
}

/// Whether the root processor may start sending `δ_0` as soon as `S0`
/// completes (`Flexible`) or only after all its local computations
/// (`Strict`) — Section 3.3's fork discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartRule {
    /// Sends may overlap the root processor's remaining computations.
    Flexible,
    /// Sends start only after the root processor finished every stage it
    /// hosts.
    Strict,
}

/// A fork group mapping for the general model: group 0 holds the root stage
/// (plus possibly leaves); other groups hold leaves only. One processor per
/// group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForkAlloc {
    /// Leaf stage ids (1-based as in [`Fork`]) per group; group 0
    /// implicitly also contains the root stage `S0`.
    pub groups: Vec<Vec<usize>>,
    /// Executing processor of each group.
    pub procs: Vec<ProcId>,
}

impl ForkAlloc {
    fn check(&self, fork: &Fork) {
        assert_eq!(self.groups.len(), self.procs.len());
        assert!(!self.groups.is_empty(), "need at least the root group");
        let mut seen = vec![false; fork.n_leaves() + 1];
        for g in &self.groups {
            for &s in g {
                assert!(
                    s >= 1 && s <= fork.n_leaves(),
                    "group member {s} is not a leaf stage"
                );
                assert!(!seen[s], "leaf {s} mapped twice");
                seen[s] = true;
            }
        }
        assert!(
            (1..=fork.n_leaves()).all(|s| seen[s]),
            "every leaf must be mapped"
        );
        let mut procs = self.procs.clone();
        procs.sort_unstable();
        procs.dedup();
        assert_eq!(procs.len(), self.procs.len(), "processors must be distinct");
    }

    fn group_work(&self, fork: &Fork, g: usize) -> u64 {
        let leaves: u64 = self.groups[g].iter().map(|&s| fork.weight(s)).sum();
        if g == 0 {
            fork.root_weight() + leaves
        } else {
            leaves
        }
    }
}

/// Completion time of each fork group under the general model; the latency
/// is the max entry. Returns `(per-group completion, latency)`.
///
/// Timeline: the root processor receives `δ_{-1}` from `P_in`, computes
/// `S0` (and, under [`StartRule::Strict`], all its leaves), then sends
/// `δ_0` to every other group (serialized for [`CommModel::OnePort`],
/// concurrent for [`CommModel::BoundedMultiPort`]). Each group computes its
/// leaves upon receipt and ships its leaf outputs to `P_out` (serialized on
/// its own port under one-port).
#[allow(clippy::needless_range_loop)] // index loops mirror the paper's group indexing
pub fn fork_completion_with_comm(
    fork: &Fork,
    platform: &Platform,
    network: &Network,
    alloc: &ForkAlloc,
    comm: CommModel,
    start: StartRule,
) -> (Vec<Rat>, Rat) {
    alloc.check(fork);
    let root_proc = Endpoint::Proc(alloc.procs[0]);
    let recv_input = network.transfer_time(fork.input_size(), Endpoint::In, root_proc);
    let s_root = platform.speed(alloc.procs[0]);
    let root_stage_done = recv_input + Rat::ratio(fork.root_weight(), s_root);
    let root_all_done = recv_input + Rat::ratio(alloc.group_work(fork, 0), s_root);
    let send_start = match start {
        StartRule::Flexible => root_stage_done,
        StartRule::Strict => root_all_done,
    };

    // When does group g ≥ 1 receive δ0?
    let n_groups = alloc.groups.len();
    let mut recv_at = vec![Rat::ZERO; n_groups];
    match comm {
        CommModel::OnePort => {
            let mut t = send_start;
            for g in 1..n_groups {
                t += network.transfer_time(
                    fork.broadcast_size(),
                    root_proc,
                    Endpoint::Proc(alloc.procs[g]),
                );
                recv_at[g] = t;
            }
        }
        CommModel::BoundedMultiPort => {
            // Per-link times, plus an overall volume/capacity lower bound.
            let volume = fork.broadcast_size() * (n_groups as u64 - 1);
            let capacity_bound = match alloc.node_capacity_bound(network, volume) {
                Some(t) => t,
                None => Rat::ZERO,
            };
            for g in 1..n_groups {
                let link = network.transfer_time(
                    fork.broadcast_size(),
                    root_proc,
                    Endpoint::Proc(alloc.procs[g]),
                );
                recv_at[g] = send_start + link.max(capacity_bound);
            }
        }
    }

    let mut completion = vec![Rat::ZERO; n_groups];
    for g in 0..n_groups {
        let me = Endpoint::Proc(alloc.procs[g]);
        let compute_done = if g == 0 {
            root_all_done
        } else {
            recv_at[g] + Rat::ratio(alloc.group_work(fork, g), platform.speed(alloc.procs[g]))
        };
        // Ship each leaf's output to P_out, serialized on the group's port.
        let total_out: Rat = alloc.groups[g]
            .iter()
            .map(|&s| network.transfer_time(fork.output_size(s), me, Endpoint::Out))
            .sum();
        completion[g] = compute_done + total_out;
    }
    let latency = completion.iter().copied().fold(Rat::ZERO, Rat::max);
    (completion, latency)
}

impl ForkAlloc {
    /// `volume / node_capacity` for the bounded multi-port model.
    fn node_capacity_bound(&self, network: &Network, volume: u64) -> Option<Rat> {
        network
            .node_capacity()
            .filter(|_| volume > 0)
            .map(|cap| Rat::ratio(volume, cap))
    }
}

/// Period of a fork mapping under the general model: the maximum, over
/// processors, of the per-data-set busy time (receive + compute + send).
pub fn fork_period_with_comm(
    fork: &Fork,
    platform: &Platform,
    network: &Network,
    alloc: &ForkAlloc,
    comm: CommModel,
) -> Rat {
    alloc.check(fork);
    let root_proc = Endpoint::Proc(alloc.procs[0]);
    let n_groups = alloc.groups.len();
    let mut period = Rat::ZERO;
    for g in 0..n_groups {
        let me = Endpoint::Proc(alloc.procs[g]);
        let recv = if g == 0 {
            network.transfer_time(fork.input_size(), Endpoint::In, me)
        } else {
            network.transfer_time(fork.broadcast_size(), root_proc, me)
        };
        let compute = Rat::ratio(alloc.group_work(fork, g), platform.speed(alloc.procs[g]));
        let outputs: Rat = alloc.groups[g]
            .iter()
            .map(|&s| network.transfer_time(fork.output_size(s), me, Endpoint::Out))
            .sum();
        // The root additionally sends δ0 to the other groups each period.
        let broadcasts = if g == 0 && n_groups > 1 {
            match comm {
                CommModel::OnePort => (1..n_groups)
                    .map(|h| {
                        network.transfer_time(
                            fork.broadcast_size(),
                            me,
                            Endpoint::Proc(alloc.procs[h]),
                        )
                    })
                    .sum(),
                CommModel::BoundedMultiPort => {
                    let volume = fork.broadcast_size() * (n_groups as u64 - 1);
                    let cap = alloc
                        .node_capacity_bound(network, volume)
                        .unwrap_or(Rat::ZERO);
                    (1..n_groups)
                        .map(|h| {
                            network.transfer_time(
                                fork.broadcast_size(),
                                me,
                                Endpoint::Proc(alloc.procs[h]),
                            )
                        })
                        .fold(Rat::ZERO, Rat::max)
                        .max(cap)
                }
            }
        } else {
            Rat::ZERO
        };
        period = period.max(recv + compute + outputs + broadcasts);
    }
    period
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(parts: &[(usize, usize, usize)]) -> Vec<IntervalAlloc> {
        parts
            .iter()
            .map(|&(lo, hi, u)| IntervalAlloc {
                lo,
                hi,
                proc: ProcId(u),
            })
            .collect()
    }

    #[test]
    fn zero_sizes_recover_simplified_model() {
        // With all δ = 0 the general formulas reduce to pure compute time.
        let pipe = Pipeline::new(vec![14, 4, 2, 4]);
        let plat = Platform::homogeneous(2, 1);
        let net = Network::uniform(2, 7);
        let a = alloc(&[(0, 0, 0), (1, 3, 1)]);
        assert_eq!(
            pipeline_period_with_comm(&pipe, &plat, &net, &a),
            Rat::int(14)
        );
        assert_eq!(
            pipeline_latency_with_comm(&pipe, &plat, &net, &a),
            Rat::int(24)
        );
    }

    #[test]
    fn formula_one_and_two() {
        // Two stages, δ = [4, 2, 6], speeds [2, 1], uniform bandwidth 2.
        let pipe = Pipeline::with_data_sizes(vec![8, 3], vec![4, 2, 6]);
        let plat = Platform::heterogeneous(vec![2, 1]);
        let net = Network::uniform(2, 2);
        let a = alloc(&[(0, 0, 0), (1, 1, 1)]);
        // interval 1: 4/2 (in) + 8/2 + 2/2 (to P2) = 2 + 4 + 1 = 7
        // interval 2: 2/2 (from P1) + 3/1 + 6/2 (out) = 1 + 3 + 3 = 7
        assert_eq!(
            pipeline_period_with_comm(&pipe, &plat, &net, &a),
            Rat::int(7)
        );
        assert_eq!(
            pipeline_latency_with_comm(&pipe, &plat, &net, &a),
            Rat::int(14)
        );
    }

    #[test]
    fn same_processor_transfer_is_free() {
        let net = Network::uniform(2, 2);
        assert_eq!(
            net.transfer_time(100, Endpoint::Proc(ProcId(0)), Endpoint::Proc(ProcId(0))),
            Rat::ZERO
        );
        assert_eq!(
            net.transfer_time(0, Endpoint::In, Endpoint::Proc(ProcId(0))),
            Rat::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn rejects_gap_in_intervals() {
        let pipe = Pipeline::new(vec![1, 2, 3]);
        let plat = Platform::homogeneous(2, 1);
        let net = Network::uniform(2, 1);
        let a = alloc(&[(0, 0, 0), (2, 2, 1)]);
        let _ = pipeline_period_with_comm(&pipe, &plat, &net, &a);
    }

    #[test]
    fn fork_one_port_vs_multiport_latency() {
        // Root sends δ0 = 4 to two other groups over bandwidth-2 links.
        let fork = Fork::with_data_sizes(2, vec![2, 2], 0, 4, vec![0, 0]);
        let plat = Platform::homogeneous(3, 1);
        let net = Network::uniform(3, 2);
        let fa = ForkAlloc {
            groups: vec![vec![], vec![1], vec![2]],
            procs: vec![ProcId(0), ProcId(1), ProcId(2)],
        };
        // One-port, flexible: root done at 2; sends finish at 4 and 6;
        // groups compute 2 -> completions 6 and 8; root group completes 2.
        let (completion, latency) = fork_completion_with_comm(
            &fork,
            &plat,
            &net,
            &fa,
            CommModel::OnePort,
            StartRule::Flexible,
        );
        assert_eq!(completion, vec![Rat::int(2), Rat::int(6), Rat::int(8)]);
        assert_eq!(latency, Rat::int(8));
        // Multi-port (unbounded): both sends take 2 concurrently ->
        // both leaf groups complete at 2 + 2 + 2 = 6.
        let (_, latency) = fork_completion_with_comm(
            &fork,
            &plat,
            &net,
            &fa,
            CommModel::BoundedMultiPort,
            StartRule::Flexible,
        );
        assert_eq!(latency, Rat::int(6));
    }

    #[test]
    fn fork_strict_start_delays_sends() {
        // Root group also hosts leaf 1 (work 2 + 2 = 4): strict sends start
        // at 4 instead of 2.
        let fork = Fork::with_data_sizes(2, vec![2, 2], 0, 4, vec![0, 0]);
        let plat = Platform::homogeneous(2, 1);
        let net = Network::uniform(2, 2);
        let fa = ForkAlloc {
            groups: vec![vec![1], vec![2]],
            procs: vec![ProcId(0), ProcId(1)],
        };
        let (_, flexible) = fork_completion_with_comm(
            &fork,
            &plat,
            &net,
            &fa,
            CommModel::OnePort,
            StartRule::Flexible,
        );
        let (_, strict) = fork_completion_with_comm(
            &fork,
            &plat,
            &net,
            &fa,
            CommModel::OnePort,
            StartRule::Strict,
        );
        // flexible: send done at 2+2=4, leaf 2 done at 6; root group at 4.
        assert_eq!(flexible, Rat::int(6));
        // strict: send done at 4+2=6, leaf 2 done at 8.
        assert_eq!(strict, Rat::int(8));
    }

    #[test]
    fn bounded_multiport_capacity_bound() {
        // Two sends of size 4 each over fast links (bw 100) but node
        // capacity 2: volume 8 / capacity 2 = 4 time units dominate.
        let fork = Fork::with_data_sizes(0, vec![1, 1], 0, 4, vec![0, 0]);
        let plat = Platform::homogeneous(3, 1);
        let net = Network::uniform(3, 100).with_node_capacity(2);
        let fa = ForkAlloc {
            groups: vec![vec![], vec![1], vec![2]],
            procs: vec![ProcId(0), ProcId(1), ProcId(2)],
        };
        let (completion, _) = fork_completion_with_comm(
            &fork,
            &plat,
            &net,
            &fa,
            CommModel::BoundedMultiPort,
            StartRule::Flexible,
        );
        // root done at 0; receive at 0 + max(4/100, 4) = 4; compute 1 -> 5.
        assert_eq!(completion[1], Rat::int(5));
    }

    #[test]
    fn fork_period_accounts_for_broadcasts() {
        let fork = Fork::with_data_sizes(2, vec![2, 2], 6, 4, vec![2, 2]);
        let plat = Platform::homogeneous(3, 1);
        let net = Network::uniform(3, 2);
        let fa = ForkAlloc {
            groups: vec![vec![], vec![1], vec![2]],
            procs: vec![ProcId(0), ProcId(1), ProcId(2)],
        };
        // Root: recv 6/2=3 + compute 2 + two sends of 4/2=2 each = 9.
        // Leaves: recv 2 + compute 2 + out 1 = 5.
        assert_eq!(
            fork_period_with_comm(&fork, &plat, &net, &fa, CommModel::OnePort),
            Rat::int(9)
        );
        // Multi-port: root = 3 + 2 + max(2,2) = 7.
        assert_eq!(
            fork_period_with_comm(&fork, &plat, &net, &fa, CommModel::BoundedMultiPort),
            Rat::int(7)
        );
    }
}
