//! Target platforms: sets of processors with (possibly different) speeds.
//!
//! The paper's *Homogeneous platform* has `p` identical processors of speed
//! `s`; the *Heterogeneous platform* has per-processor speeds `s_u`. The time
//! for processor `P_u` to execute `X` floating-point operations is `X / s_u`
//! (Section 3.2). Communication capacities of the general model live in
//! [`crate::comm`]; the simplified model of Section 3.4 ignores them.

use crate::rational::Rat;
use serde::{Deserialize, Serialize};

/// Identifier of a processor: an index into [`Platform::speeds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0 + 1) // paper numbers processors from 1
    }
}

/// A set of `p` processors with integer speeds, optionally annotated
/// with per-processor failure probabilities (the reliability model of
/// Benoit/Rehn-Sonigo/Robert 2008 — see `crate::reliability`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Platform {
    speeds: Vec<u64>,
    /// Per-processor failure probabilities `f_u ∈ [0, 1)`, parallel to
    /// `speeds`. `None` means the platform is fail-free (every `f_u`
    /// zero) — the representation every pre-reliability instance uses,
    /// which is why the field is normalized: all-zero vectors collapse
    /// to `None` so serialization, equality and fingerprints cannot
    /// distinguish "no failure annotation" from "annotated fail-free".
    failure: Option<Vec<Rat>>,
}

// Hand-written (the vendored derive has no `#[serde(skip)]`-style
// support): a fail-free platform serializes exactly as it did before
// the reliability model existed — `{"speeds": [...]}` — so existing
// instance JSON, snapshots and fingerprints are untouched, and the
// `failure` field appears only when some probability is nonzero.
impl Serialize for Platform {
    fn serialize(&self) -> serde::Value {
        let mut fields = vec![(
            String::from("speeds"),
            serde::Serialize::serialize(&self.speeds),
        )];
        if let Some(failure) = &self.failure {
            fields.push((
                String::from("failure"),
                serde::Serialize::serialize(failure),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for Platform {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let speeds: Vec<u64> = serde::Deserialize::deserialize(
            value
                .field("speeds")
                .ok_or_else(|| serde::de::Error::missing_field("speeds", "Platform"))?,
        )?;
        let failure: Option<Vec<Rat>> = match value.field("failure") {
            Some(v) => Some(serde::Deserialize::deserialize(v)?),
            None => None,
        };
        Platform::try_build(speeds, failure).map_err(serde::de::Error::custom)
    }
}

impl serde::DeserializeStream for Platform {
    fn deserialize_stream(
        parser: &mut serde::de::JsonParser<'_>,
    ) -> Result<Self, serde::de::Error> {
        let mut speeds: Option<Vec<u64>> = None;
        let mut failure: Option<Vec<Rat>> = None;
        parser.begin_object()?;
        let mut first = true;
        while let Some(key) = parser.object_next(first)? {
            first = false;
            // the first occurrence of a key wins, as in the tree lookup
            match key.as_ref() {
                "speeds" if speeds.is_none() => {
                    speeds = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                "failure" if failure.is_none() => {
                    failure = Some(serde::DeserializeStream::deserialize_stream(parser)?)
                }
                _ => parser.skip_value()?,
            }
        }
        let speeds = speeds.ok_or_else(|| serde::de::Error::missing_field("speeds", "Platform"))?;
        Platform::try_build(speeds, failure).map_err(serde::de::Error::custom)
    }
}

impl Platform {
    /// Heterogeneous platform with the given per-processor speeds.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or any speed is zero.
    pub fn heterogeneous(speeds: Vec<u64>) -> Self {
        assert!(
            !speeds.is_empty(),
            "a platform needs at least one processor"
        );
        assert!(
            speeds.iter().all(|&s| s > 0),
            "processor speeds must be positive"
        );
        Platform {
            speeds,
            failure: None,
        }
    }

    /// Fallible constructor shared by the deserializers: validates the
    /// speed and failure-probability invariants and applies the
    /// fail-free normalization instead of panicking on untrusted input.
    fn try_build(speeds: Vec<u64>, failure: Option<Vec<Rat>>) -> Result<Self, String> {
        if speeds.is_empty() {
            return Err("a platform needs at least one processor".into());
        }
        if speeds.contains(&0) {
            return Err("processor speeds must be positive".into());
        }
        let failure = match failure {
            None => None,
            Some(probs) => {
                if probs.len() != speeds.len() {
                    return Err(format!(
                        "failure probabilities cover {} processors but the platform has {}",
                        probs.len(),
                        speeds.len()
                    ));
                }
                if probs.iter().any(|&f| f < Rat::ZERO || f >= Rat::ONE) {
                    return Err("failure probabilities must lie in [0, 1)".into());
                }
                // normalize: an all-zero annotation IS the fail-free
                // platform, not a distinguishable sibling of it
                probs.iter().any(|&f| f != Rat::ZERO).then_some(probs)
            }
        };
        Ok(Platform { speeds, failure })
    }

    /// Annotates the platform with per-processor failure probabilities
    /// (builder style). An all-zero vector normalizes back to the
    /// fail-free representation.
    ///
    /// # Panics
    /// Panics if `probs` has a different length than the platform or
    /// any probability lies outside `[0, 1)`.
    pub fn with_failure_probs(self, probs: Vec<Rat>) -> Self {
        Platform::try_build(self.speeds, Some(probs)).expect("invalid failure probabilities")
    }

    /// Failure probability `f_u` of processor `u` ([`Rat::ZERO`] on a
    /// fail-free platform).
    #[inline]
    pub fn failure_prob(&self, proc: ProcId) -> Rat {
        match &self.failure {
            Some(probs) => probs[proc.0],
            None => Rat::ZERO,
        }
    }

    /// The failure-probability annotation, if any processor can fail.
    pub fn failure_probs(&self) -> Option<&[Rat]> {
        self.failure.as_deref()
    }

    /// Whether any processor has a nonzero failure probability.
    pub fn can_fail(&self) -> bool {
        self.failure.is_some()
    }

    /// Homogeneous platform: `p` processors of identical speed `s`.
    ///
    /// # Panics
    /// Panics if `p == 0` or `s == 0`.
    pub fn homogeneous(p: usize, s: u64) -> Self {
        assert!(p > 0, "a platform needs at least one processor");
        Platform::heterogeneous(vec![s; p])
    }

    /// Number of processors `p`.
    #[inline]
    pub fn n_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Speed `s_u` of processor `u`.
    #[inline]
    pub fn speed(&self, proc: ProcId) -> u64 {
        self.speeds[proc.0]
    }

    /// All speeds, indexed by processor id.
    #[inline]
    pub fn speeds(&self) -> &[u64] {
        &self.speeds
    }

    /// All processor ids, `P_0 .. P_{p-1}`.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.speeds.len()).map(ProcId)
    }

    /// Aggregate speed `Σ s_u` of the whole platform.
    pub fn total_speed(&self) -> u64 {
        self.speeds.iter().sum()
    }

    /// Aggregate speed of a processor subset.
    pub fn subset_speed(&self, procs: &[ProcId]) -> u64 {
        procs.iter().map(|&q| self.speed(q)).sum()
    }

    /// Slowest speed in a processor subset.
    ///
    /// # Panics
    /// Panics if `procs` is empty.
    pub fn subset_min_speed(&self, procs: &[ProcId]) -> u64 {
        procs
            .iter()
            .map(|&q| self.speed(q))
            .min()
            .expect("empty processor subset")
    }

    /// The fastest processor (smallest id wins ties).
    pub fn fastest(&self) -> ProcId {
        let mut best = ProcId(0);
        for u in 1..self.speeds.len() {
            if self.speeds[u] > self.speeds[best.0] {
                best = ProcId(u);
            }
        }
        best
    }

    /// Processor ids sorted by **non-increasing** speed (fastest first);
    /// ties broken by id for determinism.
    pub fn by_speed_desc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.procs().collect();
        ids.sort_by(|a, b| self.speed(*b).cmp(&self.speed(*a)).then(a.0.cmp(&b.0)));
        ids
    }

    /// Processor ids sorted by **non-decreasing** speed (slowest first);
    /// ties broken by id. This is the ordering used by Lemmas 3 and 4.
    pub fn by_speed_asc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.procs().collect();
        ids.sort_by(|a, b| self.speed(*a).cmp(&self.speed(*b)).then(a.0.cmp(&b.0)));
        ids
    }

    /// True iff all processors have the same speed.
    pub fn is_homogeneous(&self) -> bool {
        self.speeds.windows(2).all(|s| s[0] == s[1])
    }

    /// Time for processor `u` to execute `work` operations, `work / s_u`.
    #[inline]
    pub fn time(&self, proc: ProcId, work: u64) -> Rat {
        Rat::ratio(work, self.speed(proc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_platform() {
        let p = Platform::homogeneous(3, 2);
        assert_eq!(p.n_procs(), 3);
        assert!(p.is_homogeneous());
        assert_eq!(p.total_speed(), 6);
        assert_eq!(p.speed(ProcId(1)), 2);
        assert_eq!(p.time(ProcId(0), 7), Rat::new(7, 2));
    }

    #[test]
    fn heterogeneous_platform() {
        // the Section 2 heterogeneous platform: two fast, two slow
        let p = Platform::heterogeneous(vec![2, 2, 1, 1]);
        assert!(!p.is_homogeneous());
        assert_eq!(p.total_speed(), 6);
        assert_eq!(p.fastest(), ProcId(0));
        assert_eq!(
            p.by_speed_desc(),
            vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]
        );
        assert_eq!(
            p.by_speed_asc(),
            vec![ProcId(2), ProcId(3), ProcId(0), ProcId(1)]
        );
    }

    #[test]
    fn subset_aggregates() {
        let p = Platform::heterogeneous(vec![5, 3, 8]);
        let set = vec![ProcId(0), ProcId(2)];
        assert_eq!(p.subset_speed(&set), 13);
        assert_eq!(p.subset_min_speed(&set), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        let _ = Platform::heterogeneous(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_platform_panics() {
        let _ = Platform::heterogeneous(vec![]);
    }

    #[test]
    fn sorting_is_deterministic_on_ties() {
        let p = Platform::heterogeneous(vec![4, 4, 4]);
        assert_eq!(p.by_speed_desc(), vec![ProcId(0), ProcId(1), ProcId(2)]);
        assert_eq!(p.by_speed_asc(), vec![ProcId(0), ProcId(1), ProcId(2)]);
        assert_eq!(p.fastest(), ProcId(0));
    }

    #[test]
    fn serde_round_trip() {
        let p = Platform::heterogeneous(vec![2, 2, 1, 1]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Platform = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn fail_free_platform_serializes_without_failure_field() {
        let p = Platform::heterogeneous(vec![3, 2, 1]);
        assert_eq!(serde_json::to_string(&p).unwrap(), r#"{"speeds":[3,2,1]}"#);
        assert!(!p.can_fail());
        assert_eq!(p.failure_prob(ProcId(1)), Rat::ZERO);
    }

    #[test]
    fn failure_probs_round_trip_both_paths() {
        let p = Platform::heterogeneous(vec![3, 2])
            .with_failure_probs(vec![Rat::new(1, 10), Rat::ZERO]);
        assert!(p.can_fail());
        assert_eq!(p.failure_prob(ProcId(0)), Rat::new(1, 10));
        assert_eq!(p.failure_prob(ProcId(1)), Rat::ZERO);
        let json = serde_json::to_string(&p).unwrap();
        let tree: Platform = serde_json::from_str(&json).unwrap();
        let streamed: Platform = serde_json::from_str_streaming(&json).unwrap();
        assert_eq!(p, tree);
        assert_eq!(p, streamed);
    }

    #[test]
    fn all_zero_failure_probs_normalize_to_fail_free() {
        let p = Platform::homogeneous(2, 1).with_failure_probs(vec![Rat::ZERO, Rat::ZERO]);
        assert!(!p.can_fail());
        assert_eq!(p, Platform::homogeneous(2, 1));
        assert_eq!(serde_json::to_string(&p).unwrap(), r#"{"speeds":[1,1]}"#);
    }

    #[test]
    fn invalid_failure_probs_rejected() {
        // wrong length
        let json = r#"{"speeds":[1,1],"failure":[{"num":1,"den":10}]}"#;
        assert!(serde_json::from_str::<Platform>(json).is_err());
        assert!(serde_json::from_str_streaming::<Platform>(json).is_err());
        // probability of one (certain failure) is out of range
        let json = r#"{"speeds":[1],"failure":[{"num":1,"den":1}]}"#;
        assert!(serde_json::from_str::<Platform>(json).is_err());
        // negative probability
        let json = r#"{"speeds":[1],"failure":[{"num":-1,"den":10}]}"#;
        assert!(serde_json::from_str::<Platform>(json).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid failure probabilities")]
    fn mismatched_failure_prob_length_panics() {
        let _ = Platform::homogeneous(3, 1).with_failure_probs(vec![Rat::new(1, 10)]);
    }
}
