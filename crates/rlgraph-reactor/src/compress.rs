//! LZ77-style byte compression for frame payloads (DESIGN.md §14).
//!
//! From-scratch, std-only, built for the wire hot path: a greedy
//! hash-chain matcher over a bounded 64 KiB window, byte-oriented ops
//! (no bit I/O), and a raw passthrough so incompressible input grows by
//! exactly [`COMPRESS_OVERHEAD`] bytes and costs one memcpy to decode.
//!
//! # Format
//!
//! ```text
//! blob := [method u8] body
//! method 0 (RAW): body = the original bytes, verbatim
//! method 1 (LZ):  body = [orig_len u32 LE] op…
//! op    := b u8
//!          b < 0x80  → literal run: the next (b+1) bytes are copied out
//!          b ≥ 0x80  → match: len = (b & 0x7F) + 4 (4..=131), then
//!                      offset u16 LE (1..=65535); copy len bytes from
//!                      (out_len - offset), overlap allowed (offset < len
//!                      repeats the tail, e.g. offset 1 is a byte run)
//! ```
//!
//! The decompressor is bounds-checked end to end: every malformed input
//! — unknown method, lying `orig_len`, overrunning literal, out-of-range
//! offset, truncated op stream — surfaces as a typed
//! [`RlError::Protocol`], never a panic, and output allocation is capped
//! by the caller-supplied `max_len` so a corrupt header cannot OOM the
//! receiver.

use rlgraph_core::{RlError, RlResult};
use std::cell::RefCell;

/// Worst-case growth over the input for incompressible data: the method
/// byte of the RAW passthrough.
pub const COMPRESS_OVERHEAD: usize = 1;

/// Shortest match worth encoding (a match op costs 3 bytes).
const MIN_MATCH: usize = 4;

/// Longest match one op can carry (`0x7F + MIN_MATCH`); longer runs
/// split into consecutive ops.
const MAX_MATCH: usize = 131;

/// Match window: offsets are u16, so references reach back ≤ 65535.
const MAX_OFFSET: usize = u16::MAX as usize;

/// Longest literal run one op can carry.
const MAX_LITERAL: usize = 128;

/// Input position of the single incompressibility checkpoint (see
/// [`LzEncoder::compress`]).
const BAIL_CHECKPOINT: usize = 4096;

const METHOD_RAW: u8 = 0;
const METHOD_LZ: u8 = 1;

/// Hash table size: 2^13 four-byte-prefix buckets — sized for the KB-to-
/// MB payloads the wire moves, small enough to stay cache-resident.
const HASH_BITS: u32 = 13;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable compressor state: the hash heads are generation-stamped so
/// repeated calls skip the table memset — on the per-frame hot path the
/// clear would cost more than the matching.
#[derive(Debug)]
pub struct LzEncoder {
    /// `(generation << 32) | position` per bucket; a stale generation
    /// means "empty" without clearing.
    head: Vec<u64>,
    /// Previous position with the same hash, forming the chain. Only
    /// read at positions written in the current call, so never cleared.
    prev: Vec<u32>,
    generation: u64,
    /// Candidates examined per position; higher finds more matches and
    /// costs more CPU. 16 is the greedy sweet spot for wire payloads.
    pub max_chain: usize,
}

impl Default for LzEncoder {
    fn default() -> Self {
        LzEncoder::new()
    }
}

impl LzEncoder {
    /// A fresh encoder with default effort.
    pub fn new() -> LzEncoder {
        LzEncoder { head: vec![0; 1 << HASH_BITS], prev: Vec::new(), generation: 0, max_chain: 16 }
    }

    /// Compresses `input` into a self-describing blob. Falls back to the
    /// RAW passthrough whenever the LZ form would not be smaller, so the
    /// result never exceeds `input.len() + COMPRESS_OVERHEAD`.
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let n = input.len();
        // Tiny or absurdly large inputs skip matching outright (the
        // format caps orig_len at u32; frames are far smaller).
        if n < MIN_MATCH + 5 || n > u32::MAX as usize {
            return raw_blob(input);
        }
        self.generation += 1;
        let generation_tag = self.generation << 32;
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        let mut out = Vec::with_capacity(n / 2 + 16);
        out.push(METHOD_LZ);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        let mut literal_start = 0usize;
        let mut i = 0usize;
        // Early abandon for incompressible payloads: one checkpoint deep
        // enough to see past any structured header. If the matcher has
        // produced zero net savings by then, the rest of the input is
        // almost certainly noise too — stop burning the hash chain and
        // ship RAW. Savings so far beat the check, however small, so a
        // payload that compresses anywhere in its first 4 KiB keeps going.
        let mut bail_at = BAIL_CHECKPOINT;
        // Acceleration through no-match runs: after every 32 consecutive
        // positions without a match the skip step grows by one, so pure
        // noise is sampled ever more sparsely instead of hashed byte by
        // byte; any match resets to dense scanning.
        let mut misses = 0usize;
        while i + MIN_MATCH <= n {
            if i >= bail_at {
                if out.len() + (i - literal_start) >= i {
                    return raw_blob(input);
                }
                bail_at = usize::MAX;
            }
            let h = hash4(&input[i..]);
            let slot = self.head[h];
            let mut candidate = if slot & !0xffff_ffff == generation_tag {
                Some((slot as u32) as usize)
            } else {
                None
            };
            let mut best_len = 0usize;
            let mut best_offset = 0usize;
            let limit = MAX_MATCH.min(n - i);
            let mut chain = 0usize;
            while let Some(c) = candidate {
                if i - c > MAX_OFFSET || chain >= self.max_chain {
                    break;
                }
                chain += 1;
                // Cheap rejection: a candidate that cannot beat the
                // current best differs at its best_len-th byte.
                if best_len == 0 || input[c + best_len] == input[i + best_len] {
                    let len = common_prefix(&input[c..], &input[i..], limit);
                    if len > best_len {
                        best_len = len;
                        best_offset = i - c;
                        if len >= limit {
                            break;
                        }
                    }
                }
                let p = self.prev[c] as usize;
                candidate = if p < c { Some(p) } else { None };
            }
            if best_len >= MIN_MATCH {
                misses = 0;
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80 | (best_len - MIN_MATCH) as u8);
                out.extend_from_slice(&(best_offset as u16).to_le_bytes());
                // Index every covered position so later data can match
                // into the middle of this run.
                let insert_end = (i + best_len).min(n - MIN_MATCH + 1);
                for j in i..insert_end {
                    let hj = hash4(&input[j..]);
                    let old = self.head[hj];
                    self.prev[j] =
                        if old & !0xffff_ffff == generation_tag { old as u32 } else { u32::MAX };
                    self.head[hj] = generation_tag | j as u64;
                }
                i += best_len;
                literal_start = i;
            } else {
                let old = self.head[h];
                self.prev[i] =
                    if old & !0xffff_ffff == generation_tag { old as u32 } else { u32::MAX };
                self.head[h] = generation_tag | i as u64;
                i += 1 + (misses >> 5);
                misses += 1;
            }
        }
        flush_literals(&mut out, &input[literal_start..n]);
        if out.len() < n + COMPRESS_OVERHEAD {
            out
        } else {
            raw_blob(input)
        }
    }
}

fn raw_blob(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + 1);
    out.push(METHOD_RAW);
    out.extend_from_slice(input);
    out
}

fn common_prefix(a: &[u8], b: &[u8], limit: usize) -> usize {
    let max = limit.min(a.len()).min(b.len());
    let mut len = 0;
    while len < max && a[len] == b[len] {
        len += 1;
    }
    len
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

thread_local! {
    static ENCODER: RefCell<LzEncoder> = RefCell::new(LzEncoder::new());
}

/// Compresses with a per-thread reusable [`LzEncoder`]. The result never
/// exceeds `input.len() + COMPRESS_OVERHEAD` bytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    ENCODER.with(|e| e.borrow_mut().compress(input))
}

/// Decompresses a blob produced by [`compress`], refusing outputs longer
/// than `max_len`.
///
/// # Errors
///
/// [`RlError::Protocol`] on any malformed input: unknown method byte,
/// declared length over `max_len`, literal runs or matches overrunning
/// their bounds, offsets reaching before the start of the output, or a
/// stream that ends early. Arbitrary input never panics.
pub fn decompress(blob: &[u8], max_len: usize) -> RlResult<Vec<u8>> {
    let (&method, body) =
        blob.split_first().ok_or_else(|| RlError::Protocol("empty compressed blob".to_string()))?;
    match method {
        METHOD_RAW => {
            if body.len() > max_len {
                return Err(RlError::Protocol(format!(
                    "raw blob of {} bytes exceeds the {} byte limit",
                    body.len(),
                    max_len
                )));
            }
            Ok(body.to_vec())
        }
        METHOD_LZ => decompress_lz(body, max_len),
        other => Err(RlError::Protocol(format!("unknown compression method {}", other))),
    }
}

fn decompress_lz(body: &[u8], max_len: usize) -> RlResult<Vec<u8>> {
    if body.len() < 4 {
        return Err(RlError::Protocol("compressed blob missing length header".to_string()));
    }
    let orig_len =
        u32::from_le_bytes(body[0..4].try_into().expect("4 bytes checked above")) as usize;
    if orig_len > max_len {
        return Err(RlError::Protocol(format!(
            "declared decompressed length {} exceeds the {} byte limit",
            orig_len, max_len
        )));
    }
    // Allocation is op-driven: a lying header cannot reserve more than
    // this floor up front.
    let mut out: Vec<u8> = Vec::with_capacity(orig_len.min(1 << 20));
    let mut p = 4usize;
    while p < body.len() {
        let op = body[p];
        p += 1;
        if op < 0x80 {
            let len = op as usize + 1;
            if p + len > body.len() {
                return Err(RlError::Protocol("literal run overruns compressed blob".to_string()));
            }
            if out.len() + len > orig_len {
                return Err(RlError::Protocol("literal run overruns declared length".to_string()));
            }
            out.extend_from_slice(&body[p..p + len]);
            p += len;
        } else {
            let len = (op & 0x7F) as usize + MIN_MATCH;
            if p + 2 > body.len() {
                return Err(RlError::Protocol("match op truncated".to_string()));
            }
            let offset = u16::from_le_bytes([body[p], body[p + 1]]) as usize;
            p += 2;
            if offset == 0 || offset > out.len() {
                return Err(RlError::Protocol(format!(
                    "match offset {} outside the {} bytes decoded so far",
                    offset,
                    out.len()
                )));
            }
            if out.len() + len > orig_len {
                return Err(RlError::Protocol("match overruns declared length".to_string()));
            }
            let start = out.len() - offset;
            if offset >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping match: the copy reads bytes it just wrote.
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
    }
    if out.len() != orig_len {
        return Err(RlError::Protocol(format!(
            "compressed blob decoded to {} bytes, header declared {}",
            out.len(),
            orig_len
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let blob = compress(data);
        decompress(&blob, data.len()).expect("roundtrip")
    }

    #[test]
    fn roundtrips_and_compresses_repetitive_data() {
        let data: Vec<u8> = (0..4096u32).flat_map(|i| (i % 7).to_le_bytes()).collect();
        let blob = compress(&data);
        assert!(blob.len() * 3 < data.len(), "{} vs {}", blob.len(), data.len());
        assert_eq!(decompress(&blob, data.len()).unwrap(), data);
    }

    #[test]
    fn zero_runs_collapse() {
        let data = vec![0u8; 100_000];
        let blob = compress(&data);
        assert!(blob.len() < 2500, "zero run compressed to {} bytes", blob.len());
        assert_eq!(decompress(&blob, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_grows_by_exactly_the_overhead() {
        // A xorshift stream is incompressible for a 4-byte matcher.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let blob = compress(&data);
        assert!(blob.len() <= data.len() + COMPRESS_OVERHEAD);
        assert_eq!(decompress(&blob, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"a"), b"a");
        assert_eq!(roundtrip(b"abcabcabcabc"), b"abcabcabcabc");
    }

    #[test]
    fn overlapping_matches_reproduce_byte_runs() {
        let mut data = b"header".to_vec();
        data.extend(std::iter::repeat_n(b'x', 500));
        data.extend_from_slice(b"trailer");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn window_bound_is_respected_on_large_inputs() {
        // Two identical 1 KiB blocks 100 KiB apart: the second cannot
        // reference the first (offset > 65535) but must still roundtrip.
        let block: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut data = block.clone();
        data.extend(vec![7u8; 100_000]);
        data.extend(&block);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn corrupt_inputs_fail_typed() {
        // Unknown method byte.
        let err = decompress(&[9, 1, 2, 3], 100).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("method")), "{}", err);
        // Declared length over the cap.
        let mut blob = vec![METHOD_LZ];
        blob.extend_from_slice(&1_000_000u32.to_le_bytes());
        let err = decompress(&blob, 100).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("limit")), "{}", err);
        // Match offset before the start of the output.
        let mut blob = vec![METHOD_LZ];
        blob.extend_from_slice(&8u32.to_le_bytes());
        blob.extend_from_slice(&[0x80, 5, 0]); // match len 4, offset 5, nothing decoded yet
        let err = decompress(&blob, 100).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("offset")), "{}", err);
        // Truncated literal run.
        let mut blob = vec![METHOD_LZ];
        blob.extend_from_slice(&50u32.to_le_bytes());
        blob.push(40); // promises 41 literal bytes, provides none
        let err = decompress(&blob, 100).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("literal")), "{}", err);
        // Stream ends before the declared length is produced.
        let mut blob = vec![METHOD_LZ];
        blob.extend_from_slice(&10u32.to_le_bytes());
        blob.extend_from_slice(&[1, b'a', b'b']);
        let err = decompress(&blob, 100).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("declared")), "{}", err);
    }

    #[test]
    fn trajectory_shaped_payload_compresses() {
        // Mimics the wire shape: repeated small tensor headers around
        // float payloads where consecutive records share 16-byte blocks.
        let mut state = [0u8; 16];
        let mut data = Vec::new();
        for step in 0..512u32 {
            let next: Vec<u8> = (0..4u32).flat_map(|i| (step ^ i).to_le_bytes()).collect();
            data.extend_from_slice(&[0, 1, 4, 0, 0, 0]); // dtype/rank/dims header
            data.extend_from_slice(&state);
            data.extend_from_slice(&[0, 1, 4, 0, 0, 0]);
            data.extend_from_slice(&next);
            data.extend_from_slice(&(step as u64).to_le_bytes()); // action i64
            state.copy_from_slice(&next);
        }
        let blob = compress(&data);
        assert!(blob.len() * 2 < data.len(), "{} vs {}", blob.len(), data.len());
        assert_eq!(decompress(&blob, data.len()).unwrap(), data);
    }
}
