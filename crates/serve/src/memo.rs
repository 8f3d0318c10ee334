//! The instance memo: a repeated `solve` line's `instance` value is
//! recognized by its raw bytes, so a warm hit neither decodes nor
//! fingerprints it.
//!
//! An n-stage pipeline (Section 2 of the paper) is mostly n stage
//! weights and n + 1 data sizes, and on a large warm hit nearly all the
//! daemon's time went to decoding them and walking the decoded instance
//! for its 128-bit FNV-1a fingerprint, a serial multiply per byte. The
//! memo maps a keyed digest of the value's bytes, and their length, to
//! the [`Fingerprinter`] state after that instance's canonical walk
//! ([`Fingerprinter::write_instance`]). A hit hands the state to
//! [`request_fingerprint`](repliflow_solver::request_fingerprint),
//! which appends the request knobs exactly as
//! [`SolveRequest::fingerprint`](repliflow_solver::SolveRequest::fingerprint)
//! does, so the solve cache is asked under the same key.
//!
//! ## The skim
//!
//! [`InstanceMemo::skim`] makes two tight passes over the value. The
//! first finds the value's end by bracket depth: it jumps from one
//! brace, bracket or quote to the next, 16 bytes per step with SSE2 on
//! x86_64 (part of that target's baseline) and eight bytes at a time
//! with plain word arithmetic elsewhere, over the runs of digits,
//! commas and spaces that make up nearly all of a long pipeline. A
//! string is skipped to its closing quote, honoring backslash escapes.
//! The second pass digests the span two blocks at a time (see below).
//! The skim checks no other grammar. That is safe because only a span
//! that the decoder accepted, and that ended where the skim ended, ever
//! enters the memo: a hit means the same bytes as an accepted instance.
//!
//! ## The digest
//!
//! Two lanes of a polynomial hash modulo the Mersenne prime
//! p = 2^61 − 1, over 7-byte little-endian limbs (each below 2^56 < p):
//! the last block is zero-padded, and the byte length is appended as a
//! final limb. Horner's rule runs over pairs of 56-byte blocks: the
//! sixteen products of a pair are summed as a tree, so only
//! `h·r^16 + S` waits on the previous pair. That is the same polynomial
//! as limb by limb, so the digest does not depend on how it is
//! grouped. Each lane's evaluation point is drawn when the memo is
//! built, from std's `RandomState`, which the OS seeds; it never leaves
//! the process. A span within the 1 MiB line cap has at most
//! 8 · ⌈2^20 / 56⌉ + 1 < 2^17.2 limbs, so two distinct spans give a
//! nonzero difference polynomial with at most that many roots: one lane
//! collides with probability below 2^17.2 / 2^61 = 2^-43.8, both below
//! 2^-87. The memo compares the stored length too. Since the points are
//! secret, nobody can search for a colliding pair offline. The memo
//! keeps no raw bytes: an entry is the digest, the length and the walk.

use repliflow_core::fingerprint::{Fingerprinter, InstanceFingerprint};
use repliflow_solver::{CacheStats, ShardedLru};
use repliflow_sync::sync::Arc;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The Mersenne prime 2^61 − 1 both lanes reduce modulo.
const P: u64 = (1 << 61) - 1;

/// Bytes per digest block: eight 7-byte limbs, read as seven words.
const BLOCK: usize = 56;

const LIMB_MASK: u64 = (1 << 56) - 1;

/// `x mod p`, for `x < 2^123`.
#[inline]
fn reduce(x: u128) -> u64 {
    // 2^61 ≡ 1 (mod p): fold the high bits onto the low ones twice.
    let y = (x as u64 & P) + (x >> 61) as u64;
    let y = (y & P) + (y >> 61);
    if y >= P {
        y - P
    } else {
        y
    }
}

/// The digest of one skimmed span: both lanes and the span length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanDigest {
    lanes: [u64; 2],
    len: usize,
}

impl SpanDigest {
    /// The memo's LRU key: both lanes in one 128-bit value, the first
    /// shifted up so the high bits the LRU picks its shard by vary.
    fn key(self) -> InstanceFingerprint {
        InstanceFingerprint::from_u128(
            u128::from(self.lanes[0] << 3) << 64 | u128::from(self.lanes[1]),
        )
    }
}

/// What the memo keeps per span: the length, compared on every hit,
/// and the instance's canonical walk.
struct Entry {
    len: usize,
    walk: Fingerprinter,
}

/// One lane's evaluation point `r`, as the digest uses its powers mod p.
struct Point {
    r: u64,
    /// `r^8`, the step over one block.
    r8: u64,
    /// `r^16`, the step over a pair of blocks.
    r16: u64,
    /// `r^15, r^14, …, r^0`: limb `j` of a block pair is multiplied by
    /// `desc[j]`, limb `j` of a lone block by `desc[8 + j]`.
    desc: [u64; 16],
}

impl Point {
    fn new(r: u64) -> Point {
        let mut powers = [1u64; 17];
        for i in 1..powers.len() {
            powers[i] = reduce(u128::from(powers[i - 1]) * u128::from(r));
        }
        Point {
            r,
            r8: powers[8],
            r16: powers[16],
            desc: std::array::from_fn(|j| powers[15 - j]),
        }
    }
}

/// The daemon-wide instance memo: an LRU of span digests to instance
/// walks, behind the same lock-striped [`ShardedLru`] as the solve
/// cache. See the module docs for the skim and the digest.
pub(crate) struct InstanceMemo {
    points: [Point; 2],
    entries: ShardedLru<Entry>,
}

impl InstanceMemo {
    /// An empty memo of (at least) `capacity` entries over `shards`
    /// lock stripes, with fresh evaluation points.
    pub(crate) fn new(capacity: usize, shards: usize) -> InstanceMemo {
        let state = RandomState::new();
        let point = |lane: u64| {
            let mut hasher = state.build_hasher();
            hasher.write_u64(lane);
            hasher.finish() % P
        };
        InstanceMemo::with_points([point(0), point(1)], capacity, shards)
    }

    fn with_points(points: [u64; 2], capacity: usize, shards: usize) -> InstanceMemo {
        InstanceMemo {
            points: points.map(Point::new),
            entries: ShardedLru::with_shards(capacity, shards),
        }
    }

    /// Skims the object or array starting at `line[start]`: the offset
    /// just past its closing bracket, and the digest of the bytes in
    /// between. `None` when the value is not an object or an array, or
    /// the line ends inside it.
    ///
    /// On valid JSON the end is where `JsonParser::skip_value` stops.
    pub(crate) fn skim(&self, line: &[u8], start: usize) -> Option<(usize, SpanDigest)> {
        if !matches!(line.get(start), Some(b'{' | b'[')) {
            return None;
        }
        let end = value_end(line, start)?;
        Some((end, self.digest(&line[start..end])))
    }

    /// The digest of `span`: Horner's rule over its zero-padded limbs,
    /// two blocks per reduction, then the length.
    fn digest(&self, span: &[u8]) -> SpanDigest {
        let mut lanes = [0u64; 2];
        let pairs = span.chunks_exact(2 * BLOCK);
        let rest = pairs.remainder();
        for pair in pairs {
            self.fold_pair(&mut lanes, pair);
        }
        if !rest.is_empty() {
            let mut padded = [0u8; 2 * BLOCK];
            padded[..rest.len()].copy_from_slice(rest);
            if rest.len() > BLOCK {
                self.fold_pair(&mut lanes, &padded);
            } else {
                self.fold(&mut lanes, &padded[..BLOCK]);
            }
        }
        for (h, point) in lanes.iter_mut().zip(&self.points) {
            *h = reduce(u128::from(*h) * u128::from(point.r) + span.len() as u128);
        }
        SpanDigest {
            lanes,
            len: span.len(),
        }
    }

    /// Horner's rule over the sixteen limbs of two blocks, in both
    /// lanes: `h ← h·r^16 + S` with `S = m0·r^15 + … + m15`, reduced
    /// once. `S` is summed as a tree of its products, so only the
    /// multiply-add by `h` waits on the previous pair. Each product is
    /// below 2^56 · 2^61 = 2^117, so `h·r^16 + S < 2^122 + 16 · 2^117 <
    /// 2^123`, as `reduce` requires.
    #[inline]
    fn fold_pair(&self, lanes: &mut [u64; 2], pair: &[u8]) {
        let (first, second) = pair.split_at(BLOCK);
        let (first, second) = (limbs(first), limbs(second));
        for (h, point) in lanes.iter_mut().zip(&self.points) {
            let (high, low) = point.desc.split_at(8);
            let sum = products(&first, high) + products(&second, low);
            *h = reduce(u128::from(*h) * u128::from(point.r16) + sum);
        }
    }

    /// Horner's rule over the eight limbs of one block, in both lanes:
    /// `h ← h·r^8 + m0·r^7 + … + m7`, reduced once (below 2^122 +
    /// 8 · 2^117 < 2^123).
    #[inline]
    fn fold(&self, lanes: &mut [u64; 2], block: &[u8]) {
        let block = limbs(block);
        for (h, point) in lanes.iter_mut().zip(&self.points) {
            let sum = products(&block, &point.desc[8..]);
            *h = reduce(u128::from(*h) * u128::from(point.r8) + sum);
        }
    }

    /// The walk of the instance whose span digested to `digest`, when
    /// the memo holds it. Counts a hit or a miss.
    pub(crate) fn get(&self, digest: SpanDigest) -> Option<Fingerprinter> {
        self.entries
            .get(digest.key())
            .filter(|entry| entry.len == digest.len)
            .map(|entry| entry.walk)
    }

    /// Remembers `walk` for the span that digested to `digest`. Only
    /// spans the decoder accepted belong here.
    pub(crate) fn insert(&self, digest: SpanDigest, walk: Fingerprinter) {
        self.entries.insert(
            digest.key(),
            Arc::new(Entry {
                len: digest.len,
                walk,
            }),
        );
    }

    /// Lifetime hit, miss, insertion and eviction counts.
    pub(crate) fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Entries held now.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

/// The eight 7-byte little-endian limbs of one [`BLOCK`]-byte block.
#[inline]
fn limbs(block: &[u8]) -> [u64; 8] {
    let mut w = [0u64; 7];
    for (w, bytes) in w.iter_mut().zip(block.chunks_exact(8)) {
        *w = word(bytes);
    }
    [
        w[0] & LIMB_MASK,
        (w[0] >> 56 | w[1] << 8) & LIMB_MASK,
        (w[1] >> 48 | w[2] << 16) & LIMB_MASK,
        (w[2] >> 40 | w[3] << 24) & LIMB_MASK,
        (w[3] >> 32 | w[4] << 32) & LIMB_MASK,
        (w[4] >> 24 | w[5] << 40) & LIMB_MASK,
        (w[5] >> 16 | w[6] << 48) & LIMB_MASK,
        w[6] >> 8,
    ]
}

/// `Σ limbs[j] · powers[j]`, summed as a balanced tree so the products
/// do not wait on each other. Below 8 · 2^117.
#[inline]
fn products(limbs: &[u64; 8], powers: &[u64]) -> u128 {
    let p = |j: usize| u128::from(limbs[j]) * u128::from(powers[j]);
    ((p(0) + p(1)) + (p(2) + p(3))) + ((p(4) + p(5)) + (p(6) + p(7)))
}

/// The offset just past the bracket that closes the object or array
/// opening at `line[start]`, by bracket depth; `None` when the line ends
/// first. Strings are skipped to their closing quote, honoring
/// backslash escapes; no other grammar is checked.
fn value_end(line: &[u8], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut pos = start;
    loop {
        pos += next_structural(&line[pos..])?;
        match line[pos] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(pos + 1);
                }
            }
            _ => pos = string_end(line, pos + 1)?,
        }
        pos += 1;
    }
}

/// The offset of the quote that ends the string whose contents start at
/// `line[pos]`; `None` when the line ends first.
fn string_end(line: &[u8], mut pos: usize) -> Option<usize> {
    loop {
        match *line.get(pos)? {
            b'"' => return Some(pos),
            // the escaped byte cannot end the string
            b'\\' => pos += 2,
            _ => pos += 1,
        }
    }
}

/// The offset of the first brace, bracket or quote in `bytes`: 16 bytes
/// per step with SSE2, which every x86_64 target has.
#[cfg(target_arch = "x86_64")]
#[inline]
fn next_structural(bytes: &[u8]) -> Option<usize> {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi8,
    };
    let mut offset = 0;
    while offset + 16 <= bytes.len() {
        // SAFETY: SSE2 is in the x86_64 baseline, so every intrinsic
        // here exists on every such target; the one unaligned load
        // reads `bytes[offset..offset + 16]`, in bounds by the loop
        // condition.
        let mask = unsafe {
            let v = _mm_loadu_si128(bytes.as_ptr().add(offset).cast());
            // clearing bit 5 maps `{` onto `[` and `}` onto `]`
            let folded = _mm_and_si128(v, _mm_set1_epi8(!0x20));
            _mm_movemask_epi8(_mm_or_si128(
                _mm_or_si128(
                    _mm_cmpeq_epi8(folded, _mm_set1_epi8(b'[' as i8)),
                    _mm_cmpeq_epi8(folded, _mm_set1_epi8(b']' as i8)),
                ),
                _mm_cmpeq_epi8(v, _mm_set1_epi8(b'"' as i8)),
            ))
        };
        if mask != 0 {
            return Some(offset + mask.trailing_zeros() as usize);
        }
        offset += 16;
    }
    next_structural_portable(&bytes[offset..]).map(|i| offset + i)
}

/// The offset of the first brace, bracket or quote in `bytes`.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn next_structural(bytes: &[u8]) -> Option<usize> {
    next_structural_portable(bytes)
}

/// [`next_structural`] without vector instructions: eight bytes at a
/// time, then byte by byte. On x86_64 it finishes the last few bytes.
#[inline]
fn next_structural_portable(bytes: &[u8]) -> Option<usize> {
    let mut offset = 0;
    for chunk in bytes.chunks_exact(8) {
        let hits = structural(word(chunk));
        if hits != 0 {
            return Some(offset + hits.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    bytes[offset..]
        .iter()
        .position(|b| matches!(b, b'{' | b'}' | b'[' | b']' | b'"'))
        .map(|i| offset + i)
}

/// The little-endian word of eight bytes.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A mask with the high bit set in every byte of `word` that is a
/// brace, a bracket or a quote, and possibly in bytes above such a
/// byte: its lowest set bit marks the first one exactly.
#[inline]
fn structural(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    // clearing bit 5 maps `{` onto `[` and `}` onto `]`
    let folded = word & !(0x20 * ONES);
    zero_bytes(folded ^ (u64::from(b'[') * ONES))
        | zero_bytes(folded ^ (u64::from(b']') * ONES))
        | zero_bytes(word ^ (u64::from(b'"') * ONES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;
    use repliflow_core::instance::{Objective, ProblemInstance};
    use repliflow_core::workflow::Workflow;
    use serde::de::JsonParser;
    use serde::{Serialize, Value};

    /// A memo with fixed evaluation points, so a failure reproduces.
    fn memo() -> InstanceMemo {
        InstanceMemo::with_points(
            [0x0123_4567_89ab_cdef % P, 0x1fed_cba9_8765_4321 % P],
            16,
            1,
        )
    }

    /// Where `JsonParser::skip_value` ends the value at `start`.
    fn skip_value_end(line: &str, start: usize) -> usize {
        let mut parser = JsonParser::new(line);
        parser.seek(start);
        parser.skip_value().expect("test JSON is valid");
        parser.position()
    }

    /// Seeded whitespace between tokens: usually none.
    fn space(gen: &mut Gen, out: &mut String) {
        while gen.flip(0.2) {
            out.push([' ', '\t', '\r', '\n'][gen.size(0, 3)]);
        }
    }

    /// A string literal of `s`, escaping what must be escaped and, at
    /// seeded places, what need not be.
    fn write_string(gen: &mut Gen, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '/' if gen.flip(0.5) => out.push_str("\\/"),
                c if (c as u32) < 0x10000 && gen.flip(0.2) => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// JSON text of `value` with seeded whitespace and string escapes.
    fn render(gen: &mut Gen, value: &Value, out: &mut String) {
        space(gen, out);
        match value {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        space(gen, out);
                        out.push(',');
                    }
                    render(gen, item, out);
                }
                space(gen, out);
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        space(gen, out);
                        out.push(',');
                    }
                    space(gen, out);
                    write_string(gen, key, out);
                    space(gen, out);
                    out.push(':');
                    render(gen, item, out);
                }
                space(gen, out);
                out.push('}');
            }
            Value::String(s) => write_string(gen, s, out),
            other => out.push_str(&serde_json::to_string(other).expect("scalar renders")),
        }
        space(gen, out);
    }

    /// A random string rich in the bytes the skim treats specially.
    fn random_string(gen: &mut Gen) -> String {
        const CHARS: [char; 13] = [
            'a', 'é', '"', '\\', '{', '}', '[', ']', ',', ':', '\n', '/', '€',
        ];
        (0..gen.size(0, 12))
            .map(|_| CHARS[gen.size(0, CHARS.len() - 1)])
            .collect()
    }

    /// A random JSON tree up to `depth` levels deep.
    fn random_value(gen: &mut Gen, depth: usize) -> Value {
        let kind = if depth == 0 {
            gen.int(0, 3)
        } else {
            gen.int(0, 5)
        };
        match kind {
            0 => Value::Int(gen.int(0, 1 << 40) as i128 - (1 << 39)),
            1 => Value::String(random_string(gen)),
            2 => [Value::Null, Value::Bool(true), Value::Bool(false)][gen.size(0, 2)].clone(),
            3 => Value::Float(gen.int(0, 1000) as f64 / 8.0 + 0.125),
            4 => Value::Array(
                (0..gen.size(0, 30))
                    .map(|_| random_value(gen, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..gen.size(0, 6))
                    .map(|_| (random_string(gen), random_value(gen, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// An instance as the serializer writes it.
    fn instance_value(gen: &mut Gen, stages: usize) -> Value {
        let n = gen.size(1, stages);
        let workflow: Workflow = match gen.int(0, 2) {
            0 => gen.pipeline(n, 1, 100_000).into(),
            1 => gen.fork(n, 1, 30).into(),
            _ => gen.forkjoin(n, 1, 30).into(),
        };
        let p = gen.size(1, 6);
        ProblemInstance::new(
            workflow,
            gen.het_platform(p, 1, 9),
            gen.flip(0.5),
            Objective::Latency,
        )
        .serialize()
    }

    #[test]
    fn the_skim_ends_where_skip_value_ends() {
        let mut gen = Gen::new(0x5C1_3E4D);
        let memo = memo();
        for case in 0..600 {
            let value = match case % 3 {
                0 => instance_value(&mut gen, 8),
                1 => instance_value(&mut gen, 3_000),
                _ => Value::Array(vec![random_value(&mut gen, 4)]),
            };
            let mut text = String::new();
            render(&mut gen, &value, &mut text);
            let text = text.trim();
            let mut line = String::from(r#"{"v":1,"instance":"#);
            space(&mut gen, &mut line);
            let start = line.len();
            line.push_str(text);
            space(&mut gen, &mut line);
            line.push_str(r#","id":"a]}\"","verb":"solve"}"#);
            let (end, digest) = memo.skim(line.as_bytes(), start).expect("a value skims");
            assert_eq!(end, skip_value_end(&line, start), "case {case}: {line}");
            assert_eq!(end, start + text.len(), "case {case}");
            // the digest is the span's, wherever it sits
            let (alone_end, alone) = memo.skim(text.as_bytes(), 0).expect("skims alone");
            assert_eq!((alone_end, alone), (text.len(), digest), "case {case}");
        }
    }

    #[test]
    fn the_skim_declines_scalars_and_unfinished_values() {
        let memo = memo();
        for text in [
            "5",
            "\"x\"",
            "null",
            "",
            "{",
            "[1,2",
            r#"{"a":"}"#,
            r#"{"a":"\"}"#,
        ] {
            assert_eq!(memo.skim(text.as_bytes(), 0), None, "{text}");
        }
        // a truncation at every offset of a long value
        let mut gen = Gen::new(0x7E_11);
        let text = serde_json::to_string(&instance_value(&mut gen, 200)).expect("renders");
        for cut in 0..text.len() {
            assert_eq!(memo.skim(&text.as_bytes()[..cut], 0), None, "cut {cut}");
        }
    }

    /// The digest by definition: Horner's rule over the zero-padded
    /// 7-byte limbs, then the length, with plain `%` arithmetic.
    fn reference_lanes(points: [u64; 2], span: &[u8]) -> [u64; 2] {
        let mut padded = span.to_vec();
        padded.resize(span.len().div_ceil(BLOCK) * BLOCK, 0);
        points.map(|r| {
            let (r, p) = (u128::from(r), u128::from(P));
            let mut h = 0u128;
            for limb in padded.chunks(7) {
                let mut bytes = [0u8; 8];
                bytes[..7].copy_from_slice(limb);
                h = (h * r + u128::from(u64::from_le_bytes(bytes))) % p;
            }
            ((h * r + span.len() as u128) % p) as u64
        })
    }

    #[test]
    fn the_digest_is_horner_over_seven_byte_limbs() {
        let points = [0x0123_4567_89ab_cdef % P, 0x1fed_cba9_8765_4321 % P];
        let memo = InstanceMemo::with_points(points, 16, 1);
        let mut gen = Gen::new(0xD16_E57);
        for len in 0..300 {
            let items: Vec<String> = (0..len).map(|_| gen.int(0, 1 << 20).to_string()).collect();
            let text = format!("[{}]", items.join(","));
            let (_, digest) = memo.skim(text.as_bytes(), 0).expect("skims");
            assert_eq!(
                digest.lanes,
                reference_lanes(points, text.as_bytes()),
                "{text}"
            );
            assert_eq!(digest.len, text.len());
        }
    }

    #[test]
    fn one_byte_edits_and_lengths_miss_the_memo() {
        let mut gen = Gen::new(0xED17);
        let memo = InstanceMemo::new(16, 1);
        let text = serde_json::to_string(&instance_value(&mut gen, 2_000)).expect("renders");
        let (_, digest) = memo.skim(text.as_bytes(), 0).expect("skims");
        let walk = Fingerprinter::new();
        memo.insert(digest, walk);
        assert!(memo.get(digest).is_some());
        let digits: Vec<usize> = text
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        for _ in 0..200 {
            let mut edited = text.clone().into_bytes();
            let at = digits[gen.size(0, digits.len() - 1)];
            edited[at] = b'0' + ((edited[at] - b'0' + gen.int(1, 9) as u8) % 10);
            let (_, other) = memo.skim(&edited, 0).expect("an edit still skims");
            assert_ne!(other, digest);
            assert!(memo.get(other).is_none());
        }
        // one more space changes only the length
        let spaced = text.replacen('[', "[ ", 1);
        let (_, other) = memo.skim(spaced.as_bytes(), 0).expect("skims");
        assert!(memo.get(other).is_none());
    }

    #[test]
    fn structural_flags_the_first_brace_bracket_or_quote() {
        for byte in 0..=255u8 {
            let special = matches!(byte, b'{' | b'}' | b'[' | b']' | b'"');
            for at in 0..8 {
                let mut bytes = *b"01234,67";
                bytes[at] = byte;
                let hits = structural(word(&bytes));
                if special {
                    assert_eq!(hits.trailing_zeros() as usize / 8, at, "{byte:#x} at {at}");
                } else {
                    assert_eq!(hits, 0, "{byte:#x} at {at}");
                }
            }
        }
    }

    /// The first brace, bracket or quote by definition.
    fn first_structural(bytes: &[u8]) -> Option<usize> {
        bytes
            .iter()
            .position(|b| matches!(b, b'{' | b'}' | b'[' | b']' | b'"'))
    }

    #[test]
    fn the_vector_and_portable_structural_searches_agree() {
        // every byte value at every offset of a 48-byte window, which
        // covers whole 16-byte steps and a portable tail
        for byte in 0..=255u8 {
            for at in 0..48 {
                let mut bytes = [b'7'; 48];
                bytes[at] = byte;
                let expected = first_structural(&bytes);
                assert_eq!(next_structural(&bytes), expected, "{byte:#x} at {at}");
                assert_eq!(
                    next_structural_portable(&bytes),
                    expected,
                    "{byte:#x} at {at}"
                );
            }
        }
        // seeded buffers of every density, searched from every start
        let mut gen = Gen::new(0x57_2C7);
        for case in 0..300 {
            let len = gen.size(0, 200);
            let density = [0.0, 0.005, 0.05, 0.4][case % 4];
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if gen.flip(density) {
                        b"{}[]\""[gen.size(0, 4)]
                    } else {
                        gen.int(0, 255) as u8
                    }
                })
                .collect();
            for from in 0..=len.min(40) {
                let tail = &bytes[from..];
                let expected = first_structural(tail);
                assert_eq!(next_structural(tail), expected, "case {case}, from {from}");
                assert_eq!(
                    next_structural_portable(tail),
                    expected,
                    "case {case}, from {from}"
                );
            }
        }
    }

    #[test]
    fn reduce_is_the_remainder_mod_p() {
        let mut gen = Gen::new(0x4ED);
        let edges = [
            0u128,
            1,
            P as u128 - 1,
            P as u128,
            P as u128 + 1,
            (1 << 123) - 1,
        ];
        for x in
            edges.into_iter().chain((0..10_000).map(|_| {
                (u128::from(gen.int(0, u64::MAX)) << 59) ^ u128::from(gen.int(0, u64::MAX))
            }))
        {
            assert_eq!(u128::from(reduce(x)), x % u128::from(P), "{x:#x}");
        }
    }
}
