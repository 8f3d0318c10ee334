//! Property suite for [`InstanceFingerprint`]: the serving layer caches
//! on this identity, so it must be (1) invariant under JSON field
//! reordering and serde round-trips and (2) distinct whenever any
//! cost-relevant field changes.
//!
//! [`InstanceFingerprint`]: repliflow_core::fingerprint::InstanceFingerprint

use repliflow_core::comm::{CommModel, Network};
use repliflow_core::fingerprint::{Fingerprinter, InstanceFingerprint};
use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::rational::Rat;
use repliflow_core::workflow::{Fork, ForkJoin, Pipeline, Workflow};
use serde_json::Value;

/// Seeded random instances across every workflow shape, both platform
/// kinds and both cost models.
fn random_instances(count: usize, seed: u64) -> Vec<ProblemInstance> {
    let mut gen = Gen::new(seed);
    (0..count)
        .map(|i| {
            let procs = 2 + i % 4;
            let workflow: repliflow_core::workflow::Workflow = match i % 3 {
                0 => gen.pipeline(2 + i % 5, 1, 12).into(),
                1 => gen.fork(2 + i % 4, 1, 12).into(),
                _ => gen.forkjoin(2 + i % 3, 1, 12).into(),
            };
            let platform = if i % 2 == 0 {
                gen.hom_platform(procs, 1, 5)
            } else {
                gen.het_platform(procs, 1, 5)
            };
            let objective = match i % 6 {
                0 => Objective::Period,
                1 => Objective::Latency,
                2 => Objective::LatencyUnderPeriod(Rat::new(9 + i as i128, 2)),
                3 => Objective::PeriodUnderLatency(Rat::int(20 + i as i128)),
                4 => Objective::LatencyUnderReliability(Rat::new(80 + i as i128 % 20, 100)),
                _ => Objective::PeriodUnderReliability(Rat::new(80 + i as i128 % 20, 100)),
            };
            // every third instance gets a failing platform, so the
            // invariance properties also cover the `failure` field
            let platform = if i % 3 == 0 {
                let probs = (0..procs)
                    .map(|u| Rat::new(1 + (i + u) as i128 % 4, 10))
                    .collect();
                platform.with_failure_probs(probs)
            } else {
                platform
            };
            let mut instance = ProblemInstance::new(workflow, platform, i % 2 == 1, objective);
            if i % 2 == 0 {
                instance.cost_model = CostModel::WithComm {
                    network: gen.het_network(procs, 1, 5),
                    comm: if i % 4 == 0 {
                        CommModel::OnePort
                    } else {
                        CommModel::BoundedMultiPort
                    },
                    overlap: i % 3 == 0,
                };
            }
            instance
        })
        .collect()
}

/// Recursively reverses every JSON object's field order — a maximal
/// reordering that JSON semantics treat as the identical document.
fn reverse_fields(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(reverse_fields).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reverse_fields(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn fingerprint_invariant_under_serde_round_trip() {
    for (i, instance) in random_instances(60, 0xF1_01).into_iter().enumerate() {
        let json = serde_json::to_string(&instance).unwrap();
        let back: ProblemInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(
            instance.fingerprint(),
            back.fingerprint(),
            "instance {i} changed fingerprint across a serde round-trip"
        );
    }
}

#[test]
fn fingerprint_invariant_under_json_field_reordering() {
    for (i, instance) in random_instances(60, 0xF1_02).into_iter().enumerate() {
        let value = serde_json::parse_value(&serde_json::to_string(&instance).unwrap()).unwrap();
        let reordered = serde_json::to_string(&reverse_fields(&value)).unwrap();
        let back: ProblemInstance = serde_json::from_str(&reordered).unwrap();
        assert_eq!(
            instance.fingerprint(),
            back.fingerprint(),
            "instance {i} changed fingerprint after JSON field reordering"
        );
        // double-check the reordering actually produced the same instance
        assert_eq!(instance, back, "reordering corrupted instance {i}");
    }
}

#[test]
fn fingerprint_invariant_under_pretty_printing() {
    for (i, instance) in random_instances(20, 0xF1_03).into_iter().enumerate() {
        let pretty = serde_json::to_string_pretty(&instance).unwrap();
        let back: ProblemInstance = serde_json::from_str(&pretty).unwrap();
        assert_eq!(
            instance.fingerprint(),
            back.fingerprint(),
            "instance {i} changed fingerprint across pretty-printing"
        );
    }
}

#[test]
fn distinct_when_a_stage_weight_changes() {
    let mut gen = Gen::new(0xF1_04);
    for n in 2..8 {
        let weights = gen.positive_ints(n, 1, 20);
        let base = ProblemInstance::new(
            repliflow_core::workflow::Pipeline::new(weights.clone()),
            gen.hom_platform(3, 1, 4),
            false,
            Objective::Period,
        );
        for stage in 0..n {
            let mut bumped = weights.clone();
            bumped[stage] += 1;
            let changed = ProblemInstance {
                workflow: repliflow_core::workflow::Pipeline::new(bumped).into(),
                ..base.clone()
            };
            assert_ne!(
                base.fingerprint(),
                changed.fingerprint(),
                "n={n}: weight bump at stage {stage} not reflected"
            );
        }
    }
}

#[test]
fn distinct_when_platform_speed_changes() {
    let mut gen = Gen::new(0xF1_05);
    let base = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        repliflow_core::platform::Platform::heterogeneous(vec![3, 2, 1]),
        false,
        Objective::Latency,
    );
    let changed = ProblemInstance {
        platform: repliflow_core::platform::Platform::heterogeneous(vec![3, 2, 2]),
        ..base.clone()
    };
    assert_ne!(base.fingerprint(), changed.fingerprint());
}

#[test]
fn distinct_when_bandwidth_overlap_or_discipline_changes() {
    let skeleton = ProblemInstance::new(
        repliflow_core::workflow::Pipeline::new(vec![2, 2, 2]),
        repliflow_core::platform::Platform::homogeneous(3, 2),
        false,
        Objective::Period,
    );
    let with = |network: Network, comm: CommModel, overlap: bool| {
        skeleton.clone().with_cost_model(CostModel::WithComm {
            network,
            comm,
            overlap,
        })
    };
    let base = with(Network::uniform(3, 2), CommModel::OnePort, false);
    assert_ne!(
        base.fingerprint(),
        with(Network::uniform(3, 3), CommModel::OnePort, false).fingerprint(),
        "bandwidth change not reflected"
    );
    assert_ne!(
        base.fingerprint(),
        with(Network::uniform(3, 2), CommModel::BoundedMultiPort, false).fingerprint(),
        "discipline change not reflected"
    );
    assert_ne!(
        base.fingerprint(),
        with(Network::uniform(3, 2), CommModel::OnePort, true).fingerprint(),
        "overlap change not reflected"
    );
}

#[test]
fn distinct_when_objective_or_bound_changes() {
    let mut gen = Gen::new(0xF1_07);
    let base = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        gen.hom_platform(3, 1, 4),
        true,
        Objective::Period,
    );
    for other in [
        Objective::Latency,
        Objective::LatencyUnderPeriod(Rat::int(5)),
        Objective::LatencyUnderPeriod(Rat::int(6)),
        Objective::PeriodUnderLatency(Rat::int(5)),
    ] {
        let changed = ProblemInstance {
            objective: other,
            ..base.clone()
        };
        assert_ne!(
            base.fingerprint(),
            changed.fingerprint(),
            "objective change to {other:?} not reflected"
        );
    }
    // the two bound values above must also differ from each other
    let a = ProblemInstance {
        objective: Objective::LatencyUnderPeriod(Rat::int(5)),
        ..base.clone()
    };
    let b = ProblemInstance {
        objective: Objective::LatencyUnderPeriod(Rat::int(6)),
        ..base.clone()
    };
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn distinct_when_failure_probabilities_change() {
    let mut gen = Gen::new(0xF1_0A);
    let base = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        repliflow_core::platform::Platform::heterogeneous(vec![3, 2, 1]),
        true,
        Objective::Latency,
    );
    let annotate = |probs: Vec<Rat>| ProblemInstance {
        platform: repliflow_core::platform::Platform::heterogeneous(vec![3, 2, 1])
            .with_failure_probs(probs),
        ..base.clone()
    };
    let failing = annotate(vec![Rat::new(1, 10), Rat::new(1, 20), Rat::new(1, 4)]);
    assert_ne!(
        base.fingerprint(),
        failing.fingerprint(),
        "failure annotation not reflected"
    );
    assert_ne!(
        failing.fingerprint(),
        annotate(vec![Rat::new(1, 10), Rat::new(1, 20), Rat::new(1, 5)]).fingerprint(),
        "single failure-probability change not reflected"
    );
    // per-processor assignment matters, not just the multiset
    assert_ne!(
        failing.fingerprint(),
        annotate(vec![Rat::new(1, 4), Rat::new(1, 20), Rat::new(1, 10)]).fingerprint(),
        "failure-probability permutation not reflected"
    );
    // the all-zero annotation IS the fail-free platform (normalized
    // away), so caching treats the two spellings as one instance
    assert_eq!(
        base.fingerprint(),
        annotate(vec![Rat::ZERO; 3]).fingerprint(),
        "all-zero annotation must normalize to the fail-free platform"
    );
}

#[test]
fn distinct_when_reliability_bound_or_variant_changes() {
    let mut gen = Gen::new(0xF1_0B);
    let base = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        gen.het_platform(3, 1, 4).with_failure_probs(vec![
            Rat::new(1, 10),
            Rat::new(1, 20),
            Rat::new(1, 4),
        ]),
        true,
        Objective::Latency,
    );
    let with = |objective: Objective| ProblemInstance {
        objective,
        ..base.clone()
    };
    let bounded = with(Objective::LatencyUnderReliability(Rat::new(93, 100)));
    assert_ne!(
        base.fingerprint(),
        bounded.fingerprint(),
        "reliability bound not reflected"
    );
    assert_ne!(
        bounded.fingerprint(),
        with(Objective::LatencyUnderReliability(Rat::new(94, 100))).fingerprint(),
        "reliability bound value not reflected"
    );
    assert_ne!(
        bounded.fingerprint(),
        with(Objective::PeriodUnderReliability(Rat::new(93, 100))).fingerprint(),
        "reliability-bounded variant (latency vs period) not reflected"
    );
}

#[test]
fn every_objective_arm_has_distinct_fingerprint_coverage() {
    // Fail-closed guard: this match has NO wildcard, so adding an
    // `Objective` arm refuses to compile until the new variant is
    // added both here and to the pairwise-distinctness matrix below.
    fn exemplar(objective: &Objective) -> Objective {
        match objective {
            Objective::Period => Objective::Period,
            Objective::Latency => Objective::Latency,
            Objective::LatencyUnderPeriod(b) => Objective::LatencyUnderPeriod(*b),
            Objective::PeriodUnderLatency(b) => Objective::PeriodUnderLatency(*b),
            Objective::LatencyUnderReliability(b) => Objective::LatencyUnderReliability(*b),
            Objective::PeriodUnderReliability(b) => Objective::PeriodUnderReliability(*b),
            Objective::LatencyUnderPeriodStrict(b) => Objective::LatencyUnderPeriodStrict(*b),
            Objective::PeriodUnderLatencyStrict(b) => Objective::PeriodUnderLatencyStrict(*b),
        }
    }
    let bound = Rat::new(9, 10);
    let arms = [
        Objective::Period,
        Objective::Latency,
        Objective::LatencyUnderPeriod(bound),
        Objective::PeriodUnderLatency(bound),
        Objective::LatencyUnderReliability(bound),
        Objective::PeriodUnderReliability(bound),
        // strict (<) and inclusive (<=) bounds are different problems,
        // so they must never share a cache entry
        Objective::LatencyUnderPeriodStrict(bound),
        Objective::PeriodUnderLatencyStrict(bound),
    ];
    let mut gen = Gen::new(0xF1_0C);
    let base = ProblemInstance::new(
        gen.pipeline(4, 1, 9),
        gen.het_platform(3, 1, 4).with_failure_probs(vec![
            Rat::new(1, 10),
            Rat::new(1, 20),
            Rat::new(1, 4),
        ]),
        true,
        Objective::Period,
    );
    let mut prints: Vec<u128> = arms
        .iter()
        .map(|o| {
            ProblemInstance {
                objective: exemplar(o),
                ..base.clone()
            }
            .fingerprint()
            .as_u128()
        })
        .collect();
    prints.sort_unstable();
    prints.dedup();
    assert_eq!(
        prints.len(),
        arms.len(),
        "two objective variants share a fingerprint"
    );
}

#[test]
fn distinct_when_data_parallel_flag_flips() {
    for instance in random_instances(20, 0xF1_08) {
        let flipped = ProblemInstance {
            allow_data_parallel: !instance.allow_data_parallel,
            ..instance.clone()
        };
        assert_ne!(instance.fingerprint(), flipped.fingerprint());
    }
}

#[test]
fn random_instances_rarely_collide() {
    // 200 random instances: all pairwise distinct (a collision here
    // would mean the canonical encoding drops information).
    let instances = random_instances(200, 0xF1_09);
    let mut prints: Vec<u128> = instances
        .iter()
        .map(|i| i.fingerprint().as_u128())
        .collect();
    prints.sort_unstable();
    prints.dedup();
    assert_eq!(prints.len(), instances.len(), "fingerprint collision");
}

/// The fingerprint of every golden instance, as the tree walk computed
/// it before the typed walk existed. Serving caches and the benchmark's
/// reference answers key on these values, so they must never drift.
const GOLDEN_FINGERPRINTS: &[(&str, &str)] = &[
    (
        "comm_fork_latency_multiport.json",
        "6fd0ab6f00b72769b580dfdc5173f2d8",
    ),
    (
        "comm_forkjoin_latency_oneport.json",
        "18c05a0017425af70048889a0c9f70bf",
    ),
    (
        "comm_pipeline_period_oneport.json",
        "0d9dc061e0215d0b8ee36da57d5cf57b",
    ),
    (
        "forkjoin_het_latency.json",
        "785c7af0e32c48833b0ce67c1ee2af63",
    ),
    (
        "forkjoin_large_heuristic.json",
        "beccbc939a7775ac44660f0f72455a5a",
    ),
    (
        "het_fork_latency_nphard.json",
        "31c29df9d73b5c9620bc07c13270dc09",
    ),
    (
        "het_pipeline_latency.json",
        "c740c92bafc287eb828dda4af1d0252a",
    ),
    (
        "het_pipeline_period_nphard.json",
        "84f01d8a89d162e6e02408e3cb886b2c",
    ),
    ("hom_fork_latency.json", "dc7e1feee3e3a1110d043efcd7b833aa"),
    (
        "hom_pipeline_bicriteria.json",
        "52baf0292a21040346afa38801cce0a7",
    ),
    (
        "hom_pipeline_latency_dp.json",
        "d1114a1a75b9ad35287af8f6b1c34b44",
    ),
    (
        "hom_pipeline_period.json",
        "806221c851ec705743d013f575e73c98",
    ),
    (
        "multicrit_pipeline_front.json",
        "d980abab35f245eda8d92ef5e43803c0",
    ),
    (
        "multicrit_rel_latency.json",
        "2c91cf327733e554c90bfcdae32b11e4",
    ),
    (
        "uniform_pipeline_het_period.json",
        "a4d45d7645b3b4ba264ac3f3fd142b72",
    ),
];

#[test]
fn golden_fingerprints_are_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/instances");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    let pinned: Vec<&str> = GOLDEN_FINGERPRINTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, pinned,
        "a golden was added or removed: pin its fingerprint"
    );
    for (name, hex) in GOLDEN_FINGERPRINTS {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let instance: ProblemInstance = serde_json::from_str(&text).unwrap();
        assert_eq!(
            instance.fingerprint().to_string(),
            *hex,
            "{name}: typed walk"
        );
        assert_eq!(
            InstanceFingerprint::of(&instance).to_string(),
            *hex,
            "{name}: tree walk"
        );
    }
}

/// Seeded instances of every kind the typed walk distinguishes: all
/// three workflow shapes with and without data sizes, both cost models,
/// both comm disciplines, node capacities and infinite networks,
/// failure probabilities, and every objective arm.
fn every_kind_instances(count: usize, seed: u64) -> Vec<ProblemInstance> {
    let mut gen = Gen::new(seed);
    (0..count)
        .map(|i| {
            let procs = 1 + i % 5;
            let n = 1 + gen.size(0, 6);
            let sizes = |gen: &mut Gen, m: usize| -> Vec<u64> {
                (0..m).map(|_| gen.int(0, 1 << (i % 40))).collect()
            };
            let workflow: Workflow = match i % 6 {
                0 => gen.pipeline(n, 1, 12).into(),
                1 => {
                    let weights = gen.positive_ints(n, 1, u64::MAX / 2);
                    Pipeline::with_data_sizes(weights, sizes(&mut gen, n + 1)).into()
                }
                2 => gen.fork(n, 1, 12).into(),
                3 => {
                    let (input, broadcast) = (gen.int(0, 300), gen.int(0, 1 << 20));
                    let outputs = sizes(&mut gen, n);
                    Fork::with_data_sizes(
                        gen.int(1, 9),
                        gen.positive_ints(n, 1, 9),
                        input,
                        broadcast,
                        outputs,
                    )
                    .into()
                }
                4 => gen.forkjoin(n, 1, 12).into(),
                _ => {
                    let (input, broadcast) = (gen.int(0, 300), gen.int(0, 1 << 20));
                    let outputs = sizes(&mut gen, n);
                    ForkJoin::with_data_sizes(
                        gen.int(1, 9),
                        gen.positive_ints(n, 1, 9),
                        gen.int(1, 9),
                        input,
                        broadcast,
                        outputs,
                    )
                    .into()
                }
            };
            let platform = if i % 2 == 0 {
                gen.hom_platform(procs, 1, 5)
            } else {
                gen.het_platform(procs, 1, 1 << 33)
            };
            let platform = if i % 4 == 1 {
                let probs = (0..procs)
                    .map(|u| Rat::new((i + u) as i128 % 5, 7 + u as i128))
                    .collect();
                platform.with_failure_probs(probs)
            } else {
                platform
            };
            let bound = Rat::new(1 + i as i128 % 17, 1 + i as i128 % 5);
            let objective = match i % 8 {
                0 => Objective::Period,
                1 => Objective::Latency,
                2 => Objective::LatencyUnderPeriod(bound),
                3 => Objective::PeriodUnderLatency(bound),
                4 => Objective::LatencyUnderPeriodStrict(bound),
                5 => Objective::PeriodUnderLatencyStrict(bound),
                6 => Objective::LatencyUnderReliability(Rat::new(80 + i as i128 % 20, 100)),
                _ => Objective::PeriodUnderReliability(Rat::new(80 + i as i128 % 20, 100)),
            };
            let mut instance = ProblemInstance::new(workflow, platform, i % 3 == 0, objective);
            if i % 5 != 0 {
                let network = match i % 4 {
                    0 => Network::infinite(procs),
                    1 => gen.uniform_network(procs, 1, 9),
                    2 => gen.het_network(procs, 1, 1 << 40),
                    _ => gen
                        .het_network(procs, 1, 9)
                        .with_node_capacity(gen.int(1, 99)),
                };
                instance.cost_model = CostModel::WithComm {
                    network,
                    comm: if i % 2 == 0 {
                        CommModel::OnePort
                    } else {
                        CommModel::BoundedMultiPort
                    },
                    overlap: i % 7 < 3,
                };
            }
            instance
        })
        .collect()
}

#[test]
fn typed_walk_equals_tree_walk() {
    for (i, instance) in every_kind_instances(400, 0xF1_0D).iter().enumerate() {
        assert_eq!(
            instance.fingerprint(),
            InstanceFingerprint::of(instance),
            "instance {i}: {instance:?}"
        );
    }
    for (i, instance) in random_instances(100, 0xF1_0E).iter().enumerate() {
        assert_eq!(
            instance.fingerprint(),
            InstanceFingerprint::of(instance),
            "random instance {i}"
        );
    }
}

#[test]
fn write_instance_continues_a_hash_like_the_tree() {
    for instance in every_kind_instances(40, 0xF1_0F) {
        let mut typed = Fingerprinter::new();
        typed.write_str("prefix");
        typed.write_instance(&instance);
        typed.write_tag(9);
        let mut tree = Fingerprinter::new();
        tree.write_str("prefix");
        tree.write_canonical_value(&serde::Serialize::serialize(&instance));
        tree.write_tag(9);
        assert_eq!(typed.finish(), tree.finish());
    }
}

/// Edge values of a fixed-width integer writer: 0, ±1, every power of
/// 256 and its neighbours, and the type's bounds.
fn i128_edges() -> Vec<i128> {
    let mut values = vec![0, 1, -1, i128::MIN, i128::MAX, i128::MIN + 1, i128::MAX - 1];
    for k in 0..16 {
        let p = 1i128 << (8 * k);
        values.extend([p, p - 1, p + 1, -p, -p + 1, -p - 1]);
    }
    values
}

#[test]
fn zero_run_fold_equals_the_byte_loop() {
    for v in i128_edges() {
        let mut folded = Fingerprinter::new();
        folded.write_i128(v);
        let mut naive = Fingerprinter::new();
        naive.write_bytes(&v.to_le_bytes());
        assert_eq!(folded.finish(), naive.finish(), "i128 {v}");
    }
    let mut u64s = vec![0, 1, u64::MAX, u64::MAX - 1];
    for k in 0..8 {
        let p = 1u64 << (8 * k);
        u64s.extend([p, p - 1, p + 1]);
    }
    for v in u64s {
        let mut folded = Fingerprinter::new();
        folded.write_u64(v);
        let mut naive = Fingerprinter::new();
        naive.write_bytes(&v.to_le_bytes());
        assert_eq!(folded.finish(), naive.finish(), "u64 {v}");
    }
}
