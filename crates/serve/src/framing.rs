//! Newline framing with a per-line byte cap, independent of sockets.
//!
//! A [`LineBuffer`] takes a stream's bytes in whatever chunks they
//! arrive and hands out complete request lines. However the stream is
//! split:
//!
//! * every byte is scanned for `\n` once, so framing a line costs time
//!   linear in its length (no rescans of the pending bytes after each
//!   read), and the scan tests 32 bytes per step with SSE2 on x86_64
//!   (part of that target's baseline) and eight bytes at a time with
//!   plain word arithmetic elsewhere and for the last few bytes;
//! * a line is handed out as a range of the buffer, never copied;
//! * the same lines, [`Frame::TooLong`]s and tail come out as when the
//!   whole input arrives in one chunk — in particular the cap holds
//!   for a whole buffered line exactly as for one still arriving.
//!
//! A line is the bytes before a `\n`, minus one trailing `\r`. A line
//! longer than the cap is a [`Frame::TooLong`]; once an unterminated
//! line is known to be over the cap its bytes are dropped as they
//! arrive, so an endless line holds at most one read's worth of memory.

use std::io::Read;
use std::ops::Range;

/// Bytes requested from the stream per read.
pub const READ_CHUNK: usize = 64 * 1024;

/// One framed unit of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line: its range in [`LineBuffer::bytes`], without the
    /// terminator. Valid until the buffer next takes bytes.
    Line(Range<usize>),
    /// A line over the cap; its bytes were dropped.
    TooLong,
}

/// A byte buffer that frames newline-terminated lines under a cap.
#[derive(Debug)]
pub struct LineBuffer {
    /// The bytes read so far are `buf[..end]`; the rest is spare room
    /// a read fills, zeroed once when the buffer grows rather than on
    /// every read.
    buf: Vec<u8>,
    end: usize,
    /// Offset of the first byte not yet handed out.
    start: usize,
    /// `buf[start..scanned]` holds no `\n`: the next scan starts here.
    scanned: usize,
    /// Set while dropping the rest of an over-cap line.
    discarding: bool,
    max_line_bytes: usize,
}

impl LineBuffer {
    /// An empty buffer whose lines may hold up to `max_line_bytes`
    /// bytes (terminator excluded).
    pub fn new(max_line_bytes: usize) -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            end: 0,
            start: 0,
            scanned: 0,
            discarding: false,
            max_line_bytes,
        }
    }

    /// Takes the stream's next chunk: reads once from `source`
    /// straight into the buffer (up to [`READ_CHUNK`] bytes) and
    /// returns what `read` returned.
    pub fn fill(&mut self, source: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        let room = self.end + READ_CHUNK;
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        let read = source.read(&mut self.buf[self.end..room]);
        self.end += read.as_ref().map_or(0, |&n| n.min(READ_CHUNK));
        read
    }

    /// The next frame, or `None` when the buffered bytes end inside a
    /// line and more must be read.
    pub fn next_frame(&mut self) -> Option<Frame> {
        let newline = find_newline(&self.buf[self.scanned..self.end]).map(|i| self.scanned + i);
        let Some(end) = newline else {
            self.scanned = self.end;
            // `cap + 1` leaves room for a `\r` whose `\n` has not
            // arrived: beyond it the line is over the cap whatever
            // follows, so its bytes need not be kept.
            if self.discarding || self.end - self.start > self.max_line_bytes + 1 {
                self.discarding = true;
                self.end = 0;
                self.start = 0;
                self.scanned = 0;
            }
            return None;
        };
        let line_start = self.start;
        self.start = end + 1;
        self.scanned = self.start;
        if std::mem::take(&mut self.discarding) {
            return Some(Frame::TooLong);
        }
        let line_end = if end > line_start && self.buf[end - 1] == b'\r' {
            end - 1
        } else {
            end
        };
        if line_end - line_start > self.max_line_bytes {
            return Some(Frame::TooLong);
        }
        Some(Frame::Line(line_start..line_end))
    }

    /// The bytes of a [`Frame::Line`] range from the latest
    /// [`LineBuffer::next_frame`].
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        self.buf.get(range).unwrap_or_default()
    }

    /// The buffered bytes after the last frame: the start of a line
    /// whose `\n` has not arrived (empty while dropping an over-cap
    /// line).
    pub fn tail(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Whether the bytes arriving now belong to an over-cap line.
    pub fn is_discarding(&self) -> bool {
        self.discarding
    }

    /// Moves the unread bytes to the front before a read.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.scanned -= self.start;
        self.start = 0;
    }
}

/// The offset of the first `\n` in `bytes`: 32 bytes per step with
/// SSE2, which every x86_64 target has, then [`find_newline_portable`]
/// for the last few bytes.
#[cfg(target_arch = "x86_64")]
fn find_newline(bytes: &[u8]) -> Option<usize> {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
    let mut offset = 0;
    while offset + 32 <= bytes.len() {
        // SAFETY: SSE2 is in the x86_64 baseline, so every intrinsic
        // here exists on every such target; the two unaligned loads read
        // `bytes[offset..offset + 32]`, in bounds by the loop condition.
        let mask = unsafe {
            let newlines = _mm_set1_epi8(b'\n' as i8);
            let at = bytes.as_ptr().add(offset);
            let low = _mm_cmpeq_epi8(_mm_loadu_si128(at.cast()), newlines);
            let high = _mm_cmpeq_epi8(_mm_loadu_si128(at.add(16).cast()), newlines);
            _mm_movemask_epi8(low) as u32 | (_mm_movemask_epi8(high) as u32) << 16
        };
        if mask != 0 {
            return Some(offset + mask.trailing_zeros() as usize);
        }
        offset += 32;
    }
    find_newline_portable(&bytes[offset..]).map(|i| offset + i)
}

/// The offset of the first `\n` in `bytes`.
#[cfg(not(target_arch = "x86_64"))]
fn find_newline(bytes: &[u8]) -> Option<usize> {
    find_newline_portable(bytes)
}

/// [`find_newline`] without vector instructions. Whole 8-byte words
/// are tested at once; the word holding the newline, and the last few
/// bytes, are finished byte by byte.
///
/// With `w = word ^ 0x0a0a…`, a byte of `word` is `\n` exactly when that
/// byte of `w` is zero, and `(w - 0x0101…) & !w & 0x8080…` is nonzero
/// exactly when some byte of `w` is zero. Without a zero byte nothing
/// borrows, and a byte `b` would need `b - 1 >= 0x80 > b`. The lowest
/// zero byte gets no borrow from below and turns into `0xff`, so its
/// high bit is set. Flags above it can be wrong, so the hit word is
/// finished byte by byte.
fn find_newline_portable(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut offset = 0;
    for chunk in bytes.chunks_exact(8) {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let w = u64::from_ne_bytes(word) ^ NEWLINES;
        if w.wrapping_sub(ONES) & !w & HIGHS != 0 {
            break;
        }
        offset += 8;
    }
    bytes[offset..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| offset + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;

    /// What framing a whole input yields: each line (or `None` for a
    /// `TooLong`), the tail, and whether an over-cap tail is being
    /// dropped.
    type Framed = (Vec<Option<Vec<u8>>>, Vec<u8>, bool);

    fn drain(buffer: &mut LineBuffer, out: &mut Vec<Option<Vec<u8>>>) {
        while let Some(frame) = buffer.next_frame() {
            out.push(match frame {
                Frame::Line(range) => Some(buffer.bytes(range).to_vec()),
                Frame::TooLong => None,
            });
        }
    }

    /// Feeds `input` in chunks ending at `cuts`, framing after each.
    fn frame_chunked(input: &[u8], cuts: &[usize], cap: usize) -> Framed {
        let mut buffer = LineBuffer::new(cap);
        let mut out = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain(std::iter::once(&input.len())) {
            let mut chunk = &input[from..to];
            assert_eq!(buffer.fill(&mut chunk).unwrap(), to - from);
            drain(&mut buffer, &mut out);
            from = to;
        }
        (out, buffer.tail().to_vec(), buffer.is_discarding())
    }

    /// A line whose length sits near `cap`, the interesting boundary.
    fn random_line(gen: &mut Gen, cap: usize) -> Vec<u8> {
        let len = match gen.int(0, 3) {
            0 => gen.size(0, 4),
            1 => gen.size(cap.saturating_sub(2), cap + 2),
            2 => gen.size(0, cap),
            _ => gen.size(cap, cap * 3),
        };
        let mut line: Vec<u8> = (0..len)
            .map(|_| b"ab{}\r\x0b\x8a"[gen.size(0, 6)])
            .collect();
        if gen.flip(0.4) {
            line.push(b'\r');
        }
        line.push(b'\n');
        line
    }

    /// Chunk boundaries: random offsets plus offsets at every `\r\n`
    /// and at `cap`/`cap + 1`/`cap + 2` bytes into every line.
    fn random_cuts(gen: &mut Gen, input: &[u8], cap: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = (0..gen.size(0, 12))
            .map(|_| gen.size(0, input.len()))
            .collect();
        let mut line_start = 0;
        for (i, &b) in input.iter().enumerate() {
            if b == b'\n' {
                if i > 0 && input[i - 1] == b'\r' && gen.flip(0.5) {
                    cuts.push(i);
                }
                for off in [cap, cap + 1, cap + 2] {
                    if line_start + off <= input.len() && gen.flip(0.5) {
                        cuts.push(line_start + off);
                    }
                }
                line_start = i + 1;
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    #[test]
    fn chunking_does_not_change_the_frames() {
        let mut gen = Gen::new(0x11E5);
        for case in 0..400 {
            // caps past a word, so lines span several 8-byte words
            let cap = gen.size(1, 40);
            let mut input: Vec<u8> = (0..gen.size(0, 8))
                .flat_map(|_| random_line(&mut gen, cap))
                .collect();
            // an unterminated tail, sometimes over the cap
            if gen.flip(0.5) {
                let mut tail = random_line(&mut gen, cap);
                tail.pop();
                input.extend(tail);
            }
            let whole = frame_chunked(&input, &[], cap);
            for _ in 0..6 {
                let cuts = random_cuts(&mut gen, &input, cap);
                assert_eq!(
                    frame_chunked(&input, &cuts, cap),
                    whole,
                    "case {case}: cap {cap}, cuts {cuts:?}, input {:?}",
                    String::from_utf8_lossy(&input)
                );
            }
            let bytewise: Vec<usize> = (1..input.len()).collect();
            assert_eq!(frame_chunked(&input, &bytewise, cap), whole, "case {case}");
        }
    }

    #[test]
    fn newline_search_finds_the_first_newline_at_every_word_offset() {
        // fillers: plain bytes, `\n` with its high bit set, the bytes
        // on either side of `\n`, and a multi-byte UTF-8 character
        let fillers: [&[u8]; 5] = [b"x", b"\x8a", b"\x0b", b"\t", "\u{20a}".as_bytes()];
        for len in 0..=24 {
            for filler in fillers {
                let base: Vec<u8> = filler.iter().copied().cycle().take(len).collect();
                assert_eq!(find_newline(&base), None, "{base:?}");
                for at in 0..len.min(17) {
                    let mut bytes = base.clone();
                    bytes[at] = b'\n';
                    assert_eq!(find_newline(&bytes), Some(at), "{bytes:?}");
                    // `\r\n`, and a second newline later on
                    if at > 0 {
                        bytes[at - 1] = b'\r';
                    }
                    if at + 2 < len {
                        bytes[at + 2] = b'\n';
                    }
                    assert_eq!(find_newline(&bytes), Some(at), "{bytes:?}");
                    // searched from an unaligned start
                    for from in 0..=at {
                        assert_eq!(find_newline(&bytes[from..]), Some(at - from), "{bytes:?}");
                    }
                }
            }
        }
    }

    /// The first `\n` by definition.
    fn first_newline(bytes: &[u8]) -> Option<usize> {
        bytes.iter().position(|&b| b == b'\n')
    }

    #[test]
    fn the_vector_and_portable_newline_searches_agree() {
        // every byte value at every offset of a 48-byte window, which
        // covers a whole 32-byte step and a portable tail
        for byte in 0..=255u8 {
            for at in 0..48 {
                let mut bytes = [b'x'; 48];
                bytes[at] = byte;
                let expected = first_newline(&bytes);
                assert_eq!(find_newline(&bytes), expected, "{byte:#x} at {at}");
                assert_eq!(find_newline_portable(&bytes), expected, "{byte:#x} at {at}");
            }
        }
        // seeded buffers of every density, searched from every start
        let mut gen = Gen::new(0x5EE2);
        for case in 0..300 {
            let len = gen.size(0, 200);
            let density = [0.0, 0.002, 0.02, 0.3][case % 4];
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if gen.flip(density) {
                        b'\n'
                    } else {
                        gen.int(0, 255) as u8
                    }
                })
                .collect();
            for from in 0..=len.min(40) {
                let tail = &bytes[from..];
                let expected = first_newline(tail);
                assert_eq!(find_newline(tail), expected, "case {case}, from {from}");
                assert_eq!(
                    find_newline_portable(tail),
                    expected,
                    "case {case}, from {from}"
                );
            }
        }
    }

    #[test]
    fn the_cap_holds_for_whole_buffered_lines() {
        let mut buffer = LineBuffer::new(4);
        buffer
            .fill(&mut &b"abcd\nabcde\nabcd\r\nabcde\r\n\r\n"[..])
            .unwrap();
        let mut out = Vec::new();
        drain(&mut buffer, &mut out);
        let abcd = Some(b"abcd".to_vec());
        assert_eq!(out, vec![abcd.clone(), None, abcd, None, Some(Vec::new())]);
        assert!(buffer.tail().is_empty());
    }

    #[test]
    fn an_endless_line_is_dropped_as_it_arrives() {
        let mut buffer = LineBuffer::new(8);
        for _ in 0..100 {
            buffer.fill(&mut &[b'x'; 1000][..]).unwrap();
            assert_eq!(buffer.next_frame(), None);
            assert!(buffer.is_discarding());
            assert!(buffer.buf.len() <= READ_CHUNK, "dropped bytes are not kept");
        }
        buffer.fill(&mut &b"x\nok\n"[..]).unwrap();
        assert_eq!(buffer.next_frame(), Some(Frame::TooLong));
        let Some(Frame::Line(range)) = buffer.next_frame() else {
            panic!("the line after an over-cap line is framed");
        };
        assert_eq!(buffer.bytes(range), b"ok");
    }

    #[test]
    fn fill_reads_from_any_source() {
        let mut buffer = LineBuffer::new(16);
        let mut source: &[u8] = b"one\ntwo\nthr";
        assert_eq!(buffer.fill(&mut source).unwrap(), 11);
        let mut out = Vec::new();
        drain(&mut buffer, &mut out);
        assert_eq!(out, vec![Some(b"one".to_vec()), Some(b"two".to_vec())]);
        assert_eq!(buffer.tail(), b"thr");
        assert_eq!(buffer.fill(&mut source).unwrap(), 0);
    }
}
