//! Canonical instance fingerprints — the identity the serving layer
//! caches on.
//!
//! A [`InstanceFingerprint`] is a stable 128-bit hash of a
//! [`ProblemInstance`] (optionally extended with request-level knobs by
//! higher layers via [`Fingerprinter`]). Two requirements shape the
//! construction:
//!
//! 1. **Canonical**: the hash covers the instance's serde data model
//!    with object fields in sorted key order, so it is invariant under
//!    JSON field order and serialization round-trips — an instance
//!    parsed from reordered JSON fingerprints identically to the
//!    in-memory original.
//! 2. **Discriminating**: every cost-relevant field (stage weights,
//!    data sizes, processor speeds, bandwidths, discipline, overlap
//!    flag, objective, data-parallel flag) feeds the hash through a
//!    type-tagged encoding, so no two values with different JSON trees
//!    collide structurally (collisions are only the generic 2^-128
//!    hash kind).
//!
//! Two walks produce that encoding. [`Fingerprinter::write_canonical_value`]
//! walks a [`Value`] tree, and serves any [`Serialize`] type through
//! [`InstanceFingerprint::of`]. [`ProblemInstance::fingerprint`] and
//! [`Fingerprinter::write_instance`] instead walk the instance's typed
//! fields directly, with no tree built: each type writes its fields in
//! the sorted order of its serialized keys, through the same node
//! primitives (type tags, length prefixes, the integral-float rule) the
//! tree walk uses. Both walks feed the hasher the same byte stream, so
//! they give the same fingerprint; the core test suite pins that over
//! seeded instances of every kind, and pins the literal values of the
//! golden instances.
//!
//! The hash itself is 128-bit FNV-1a — not cryptographic, but stable
//! across platforms and builds, cheap, and wide enough that a serving
//! cache will never see an accidental collision. FNV-1a on a zero byte
//! is a plain multiply by the prime, so the fixed-width integer writers
//! fold the run of high zero bytes into one multiply by a precomputed
//! power of the prime.

use crate::comm::{CommModel, Network};
use crate::instance::{CostModel, Objective, ProblemInstance};
use crate::platform::Platform;
use crate::rational::Rat;
use crate::workflow::{Fork, ForkJoin, Pipeline, Workflow};
use serde::{Serialize, Value};
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// `FNV128_PRIME^k` for `k` in `0 ..= 16`: feeding `k` zero bytes
/// multiplies the state by exactly this.
const PRIME_POWERS: [u128; 17] = prime_powers();

const fn prime_powers() -> [u128; 17] {
    let mut powers = [1u128; 17];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV128_PRIME);
        k += 1;
    }
    powers
}

// Node tags of the canonical encoding (one per `Value` kind).
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STRING: u8 = 4;
const TAG_ARRAY: u8 = 5;
const TAG_OBJECT: u8 = 6;

/// Incremental 128-bit FNV-1a hasher with type-tagged write helpers.
///
/// Higher layers (the solver's serving cache) extend an instance hash
/// with request knobs by continuing to write into the same hasher; the
/// tags keep adjacent fields from melting into each other.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprinter {
    state: u128,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fingerprinter {
        Fingerprinter {
            state: FNV128_OFFSET,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds little-endian `bytes` whose bytes past `significant` are
    /// all zero: the significant ones byte by byte, the zero run as one
    /// multiply (the same state as [`Fingerprinter::write_bytes`]).
    fn write_le_folded(&mut self, bytes: &[u8], significant: usize) {
        self.write_bytes(&bytes[..significant]);
        self.state = self
            .state
            .wrapping_mul(PRIME_POWERS[bytes.len() - significant]);
    }

    /// Feeds one tag byte (used to separate value kinds and fields).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Feeds a `u64` in a fixed byte order.
    pub fn write_u64(&mut self, v: u64) {
        let significant = 8 - v.leading_zeros() as usize / 8;
        self.write_le_folded(&v.to_le_bytes(), significant);
    }

    /// Feeds an `i128` in a fixed byte order.
    pub fn write_i128(&mut self, v: i128) {
        let significant = 16 - v.leading_zeros() as usize / 8;
        self.write_le_folded(&v.to_le_bytes(), significant);
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a whole serde [`Value`] tree in canonical form: object
    /// fields are visited in sorted key order, every node is
    /// type-tagged and lengths are prefixed, so distinct trees feed
    /// distinct byte streams and JSON field order never matters.
    pub fn write_canonical_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.write_tag(TAG_NULL),
            Value::Bool(b) => self.bool_node(*b),
            Value::Int(i) => self.int_node(*i),
            Value::Float(f) => self.float_node(*f),
            Value::String(s) => self.str_node(s),
            Value::Array(items) => {
                self.array_node(items.len());
                for item in items {
                    self.write_canonical_value(item);
                }
            }
            Value::Object(fields) => {
                self.object_node(fields.len());
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.sort_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
                for i in order {
                    let (key, val) = &fields[i];
                    self.write_str(key);
                    self.write_canonical_value(val);
                }
            }
        }
    }

    /// Feeds a problem instance in canonical form without building its
    /// [`Value`] tree: the same bytes as
    /// `write_canonical_value(&instance.serialize())`, from a walk over
    /// the typed fields. Higher layers start their request hashes with
    /// it.
    pub fn write_instance(&mut self, instance: &ProblemInstance) {
        instance.walk(self);
    }

    /// Finalizes into a fingerprint.
    pub fn finish(self) -> InstanceFingerprint {
        InstanceFingerprint(self.state)
    }

    // The node primitives of the canonical encoding, shared by the tree
    // walk and the typed walk.

    fn bool_node(&mut self, b: bool) {
        self.write_tag(TAG_BOOL);
        self.write_tag(b as u8);
    }

    fn int_node(&mut self, i: i128) {
        self.write_tag(TAG_INT);
        self.write_i128(i);
    }

    fn float_node(&mut self, f: f64) {
        // Integral floats hash like the integer they round-trip through
        // JSON as (the vendored parser reads `2.0` as a float but `2` as
        // an int).
        if f.fract() == 0.0 && f.is_finite() && f.abs() < 2f64.powi(96) {
            self.int_node(f as i128);
        } else {
            self.write_tag(TAG_FLOAT);
            self.write_bytes(&f.to_bits().to_le_bytes());
        }
    }

    fn str_node(&mut self, s: &str) {
        self.write_tag(TAG_STRING);
        self.write_str(s);
    }

    fn array_node(&mut self, len: usize) {
        self.write_tag(TAG_ARRAY);
        self.write_u64(len as u64);
    }

    fn object_node(&mut self, len: usize) {
        self.write_tag(TAG_OBJECT);
        self.write_u64(len as u64);
    }

    /// An externally tagged enum variant with a payload: a one-field
    /// object keyed by the variant name (the payload follows).
    fn variant_node(&mut self, name: &str) {
        self.object_node(1);
        self.write_str(name);
    }
}

/// The typed walk: feeds a value exactly as
/// [`Fingerprinter::write_canonical_value`] feeds its serialized tree.
/// Object fields go in the byte order of their keys, which is the order
/// the tree walk sorts them into.
trait CanonicalWalk {
    fn walk(&self, fp: &mut Fingerprinter);
}

impl CanonicalWalk for u64 {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.int_node(i128::from(*self));
    }
}

impl CanonicalWalk for bool {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.bool_node(*self);
    }
}

impl<T: CanonicalWalk> CanonicalWalk for [T] {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.array_node(self.len());
        for item in self {
            item.walk(fp);
        }
    }
}

impl<T: CanonicalWalk> CanonicalWalk for Vec<T> {
    fn walk(&self, fp: &mut Fingerprinter) {
        self.as_slice().walk(fp);
    }
}

impl<T: CanonicalWalk> CanonicalWalk for Option<T> {
    fn walk(&self, fp: &mut Fingerprinter) {
        match self {
            Some(v) => v.walk(fp),
            None => fp.write_tag(TAG_NULL),
        }
    }
}

impl CanonicalWalk for Rat {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.object_node(2);
        fp.write_str("den");
        fp.int_node(self.denom());
        fp.write_str("num");
        fp.int_node(self.numer());
    }
}

impl CanonicalWalk for Pipeline {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.object_node(2);
        fp.write_str("data_sizes");
        self.data_sizes().walk(fp);
        fp.write_str("weights");
        self.weights().walk(fp);
    }
}

impl CanonicalWalk for Fork {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.object_node(5);
        fp.write_str("broadcast_size");
        self.broadcast_size().walk(fp);
        fp.write_str("input_size");
        self.input_size().walk(fp);
        fp.write_str("leaf_weights");
        self.leaf_weights().walk(fp);
        fp.write_str("output_sizes");
        self.output_sizes().walk(fp);
        fp.write_str("root_weight");
        self.root_weight().walk(fp);
    }
}

impl CanonicalWalk for ForkJoin {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.object_node(2);
        fp.write_str("fork");
        self.fork().walk(fp);
        fp.write_str("join_weight");
        self.join_weight().walk(fp);
    }
}

impl CanonicalWalk for Workflow {
    fn walk(&self, fp: &mut Fingerprinter) {
        match self {
            Workflow::Pipeline(p) => {
                fp.variant_node("Pipeline");
                p.walk(fp);
            }
            Workflow::Fork(f) => {
                fp.variant_node("Fork");
                f.walk(fp);
            }
            Workflow::ForkJoin(fj) => {
                fp.variant_node("ForkJoin");
                fj.walk(fp);
            }
        }
    }
}

impl CanonicalWalk for Platform {
    fn walk(&self, fp: &mut Fingerprinter) {
        // `failure` is serialized only when some probability is nonzero
        match self.failure_probs() {
            Some(failure) => {
                fp.object_node(2);
                fp.write_str("failure");
                failure.walk(fp);
            }
            None => fp.object_node(1),
        }
        fp.write_str("speeds");
        self.speeds().walk(fp);
    }
}

impl CanonicalWalk for Objective {
    fn walk(&self, fp: &mut Fingerprinter) {
        let (name, bound) = match self {
            Objective::Period => return fp.str_node("Period"),
            Objective::Latency => return fp.str_node("Latency"),
            Objective::LatencyUnderPeriod(b) => ("LatencyUnderPeriod", b),
            Objective::PeriodUnderLatency(b) => ("PeriodUnderLatency", b),
            Objective::LatencyUnderPeriodStrict(b) => ("LatencyUnderPeriodStrict", b),
            Objective::PeriodUnderLatencyStrict(b) => ("PeriodUnderLatencyStrict", b),
            Objective::LatencyUnderReliability(b) => ("LatencyUnderReliability", b),
            Objective::PeriodUnderReliability(b) => ("PeriodUnderReliability", b),
        };
        fp.variant_node(name);
        bound.walk(fp);
    }
}

impl CanonicalWalk for CommModel {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.str_node(match self {
            CommModel::OnePort => "OnePort",
            CommModel::BoundedMultiPort => "BoundedMultiPort",
        });
    }
}

impl CanonicalWalk for Network {
    fn walk(&self, fp: &mut Fingerprinter) {
        let (proc_bw, input_bw, output_bw) = self.bandwidth_tables();
        fp.object_node(5);
        fp.write_str("infinite");
        self.is_infinite().walk(fp);
        fp.write_str("input_bw");
        input_bw.walk(fp);
        fp.write_str("node_capacity");
        self.node_capacity().walk(fp);
        fp.write_str("output_bw");
        output_bw.walk(fp);
        fp.write_str("proc_bw");
        proc_bw.walk(fp);
    }
}

impl CanonicalWalk for CostModel {
    fn walk(&self, fp: &mut Fingerprinter) {
        match self {
            CostModel::Simplified => fp.str_node("Simplified"),
            CostModel::WithComm {
                network,
                comm,
                overlap,
            } => {
                fp.variant_node("WithComm");
                fp.object_node(3);
                fp.write_str("comm");
                comm.walk(fp);
                fp.write_str("network");
                network.walk(fp);
                fp.write_str("overlap");
                overlap.walk(fp);
            }
        }
    }
}

impl CanonicalWalk for ProblemInstance {
    fn walk(&self, fp: &mut Fingerprinter) {
        fp.object_node(5);
        fp.write_str("allow_data_parallel");
        self.allow_data_parallel.walk(fp);
        fp.write_str("cost_model");
        self.cost_model.walk(fp);
        fp.write_str("objective");
        self.objective.walk(fp);
        fp.write_str("platform");
        self.platform.walk(fp);
        fp.write_str("workflow");
        self.workflow.walk(fp);
    }
}

/// A stable 128-bit identity of a problem instance (plus, at higher
/// layers, the objective-relevant request knobs). See the module docs
/// for the invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceFingerprint(u128);

impl InstanceFingerprint {
    /// Hashes any serializable value's canonical tree.
    pub fn of<T: Serialize>(value: &T) -> InstanceFingerprint {
        let mut hasher = Fingerprinter::new();
        hasher.write_canonical_value(&value.serialize());
        hasher.finish()
    }

    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuilds a fingerprint from its raw value (e.g. parsed back from
    /// the hex form logs carry).
    pub fn from_u128(v: u128) -> InstanceFingerprint {
        InstanceFingerprint(v)
    }
}

impl fmt::Display for InstanceFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl ProblemInstance {
    /// The canonical fingerprint of this instance — equal for any two
    /// instances whose canonical serialized forms agree (JSON field
    /// order and round-trips never matter), distinct whenever any
    /// cost-relevant field differs. Equal to
    /// `InstanceFingerprint::of(self)`, computed by the typed walk.
    pub fn fingerprint(&self) -> InstanceFingerprint {
        let mut hasher = Fingerprinter::new();
        hasher.write_instance(self);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{CostModel, Objective};
    use crate::platform::Platform;
    use crate::workflow::Pipeline;

    fn instance() -> ProblemInstance {
        ProblemInstance::new(
            Pipeline::new(vec![14, 4, 2, 4]),
            Platform::homogeneous(3, 1),
            true,
            Objective::Period,
        )
    }

    #[test]
    fn equal_instances_equal_fingerprints() {
        assert_eq!(instance().fingerprint(), instance().fingerprint());
    }

    #[test]
    fn object_field_order_is_canonicalized() {
        let a = Value::Object(vec![
            ("x".into(), Value::Int(1)),
            ("y".into(), Value::Int(2)),
        ]);
        let b = Value::Object(vec![
            ("y".into(), Value::Int(2)),
            ("x".into(), Value::Int(1)),
        ]);
        assert_eq!(InstanceFingerprint::of(&a), InstanceFingerprint::of(&b));
        // ... but swapped values under swapped keys stay distinct
        let c = Value::Object(vec![
            ("x".into(), Value::Int(2)),
            ("y".into(), Value::Int(1)),
        ]);
        assert_ne!(InstanceFingerprint::of(&a), InstanceFingerprint::of(&c));
    }

    #[test]
    fn cost_relevant_fields_discriminate() {
        let base = instance();
        let mut weights = base.clone();
        weights.workflow = Pipeline::new(vec![14, 4, 2, 5]).into();
        assert_ne!(base.fingerprint(), weights.fingerprint());

        let mut objective = base.clone();
        objective.objective = Objective::Latency;
        assert_ne!(base.fingerprint(), objective.fingerprint());

        let mut dp = base.clone();
        dp.allow_data_parallel = false;
        assert_ne!(base.fingerprint(), dp.fingerprint());

        let comm = base.clone().with_cost_model(CostModel::WithComm {
            network: crate::comm::Network::uniform(3, 2),
            comm: crate::comm::CommModel::OnePort,
            overlap: false,
        });
        assert_ne!(base.fingerprint(), comm.fingerprint());
    }

    #[test]
    fn integral_floats_hash_like_ints() {
        assert_eq!(
            InstanceFingerprint::of(&Value::Float(2.0)),
            InstanceFingerprint::of(&Value::Int(2))
        );
        assert_ne!(
            InstanceFingerprint::of(&Value::Float(2.5)),
            InstanceFingerprint::of(&Value::Int(2))
        );
    }

    #[test]
    fn display_is_stable_hex() {
        let fp = instance().fingerprint();
        let hex = fp.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(InstanceFingerprint::from_u128(fp.as_u128()), fp);
    }
}
