//! Length-prefixed frames with a magic/version header and CRC32 trailer.
//!
//! Every message on an rlgraph-net socket is one frame:
//!
//! ```text
//! ┌────────────┬──────────┬─────────┬──────────┬───────────┬──────────┐
//! │ magic u32  │ ver u16  │ kind u16│ len u32  │ payload…  │ crc32 u32│
//! │ 0x524C4E46 │ 2|flags  │         │ N        │ N bytes   │ (payload)│
//! └────────────┴──────────┴─────────┴──────────┴───────────┴──────────┘
//! ```
//!
//! All integers are little-endian. The CRC covers the payload only (the
//! header is validated field-by-field). Frames longer than
//! [`MAX_FRAME_LEN`] are rejected before any allocation, so a corrupt
//! length field cannot OOM the receiver. Every violation surfaces as
//! [`RlError::Protocol`]; transport
//! failures surface as `RlError::Io` via the blanket
//! `From<std::io::Error>` conversion.
//!
//! # Version word (DESIGN.md §14)
//!
//! The `ver u16` splits into a low base-version byte and a high flags
//! byte. Every peer on an rlgraph-net socket is this same build, so the
//! base version is a check, not a negotiation: a frame with any other
//! base version, or with a flag bit this build does not define, is
//! rejected with a typed [`RlError::Protocol`] and the connection
//! closes. The flags, both per frame and both stateless:
//!
//! * [`FLAG_COMPRESSED`] — this frame's payload is an LZ blob
//!   ([`crate::compress()`]); the CRC covers the compressed bytes. Any
//!   receiver decodes it.
//! * [`CAP_LZ`] — set by a client on a request: the reply to *this*
//!   request may be LZ-compressed. A server compresses a reply only
//!   when the request that caused it carried the bit, and remembers
//!   nothing between requests.

use crate::compress;
use crate::wire::crc32;
use rlgraph_core::{RlError, RlResult};
use std::io::{Read, Write};

/// Frame magic: ASCII "RLNF" (rlgraph net frame).
pub const MAGIC: u32 = 0x524C_4E46;

/// The base protocol version: the low byte of every version word.
/// Bumped on any wire-incompatible change; peers reject frames from
/// other base versions outright.
pub const VERSION: u8 = 2;

/// Version-word flag: this frame's payload is compressed with
/// [`crate::compress()`] and must be decompressed before dispatch.
pub const FLAG_COMPRESSED: u8 = 0x01;

/// Version-word flag on a request: the sender decodes
/// [`FLAG_COMPRESSED`] payloads, so the reply to this request may be
/// compressed.
pub const CAP_LZ: u8 = 0x02;

/// Every version-word flag this build understands; any other high-byte
/// bit rejects the frame.
pub const KNOWN_WIRE_FLAGS: u8 = FLAG_COMPRESSED | CAP_LZ;

/// Payloads below this many bytes are never compressed: the method byte
/// plus the matcher's CPU cost more than the handful of bytes saved.
pub const COMPRESS_MIN_LEN: usize = 512;

/// Validates a version word; returns its flags byte.
fn parse_version(word: u16) -> Result<u8, String> {
    let base = (word & 0x00ff) as u8;
    if base != VERSION {
        return Err(format!(
            "unsupported protocol version {} (this peer speaks {})",
            base, VERSION
        ));
    }
    let flags = (word >> 8) as u8;
    if flags & !KNOWN_WIRE_FLAGS != 0 {
        return Err(format!("unknown wire flags 0x{:02x} in version word", flags));
    }
    Ok(flags)
}

/// Hard ceiling on payload length (256 MiB): large enough for any
/// checkpoint this workspace produces, small enough that a corrupt
/// length field fails fast instead of allocating the heap away.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Bytes of frame header before the payload.
const HEADER_LEN: usize = 4 + 2 + 2 + 4;

/// Bytes of framing overhead around a payload (header + CRC trailer).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 4;

/// What a frame carries; the dispatch tag peers switch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An RPC request: `[req_id u64][method u16][body…]`.
    Request,
    /// An RPC response: `[req_id u64][status u8][body… | error…]`.
    Response,
    /// An RPC request carrying a trace context prefix:
    /// `[ctx…][req_id u64][method u16][body…]`. Emitted only when the
    /// caller's recorder is enabled, so untraced runs stay byte-identical
    /// to plain [`FrameKind::Request`] traffic.
    RequestTraced,
    /// A liveness probe (empty payload). Mux peers answer with
    /// [`FrameKind::Pong`]; sent only when heartbeats are enabled, since
    /// the blocking server closes on a ping instead of answering it.
    Ping,
    /// The answer to a [`FrameKind::Ping`] (empty payload).
    Pong,
}

impl FrameKind {
    fn to_u16(self) -> u16 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::RequestTraced => 3,
            FrameKind::Ping => 4,
            FrameKind::Pong => 5,
        }
    }

    fn from_u16(v: u16) -> RlResult<Self> {
        match v {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::RequestTraced),
            4 => Ok(FrameKind::Ping),
            5 => Ok(FrameKind::Pong),
            other => Err(RlError::Protocol(format!("unknown frame kind {}", other))),
        }
    }
}

/// Wire-level byte meters around frame I/O: one global
/// `net.bytes_tx`/`net.bytes_rx` pair plus an optional per-service pair
/// (`net.svc.<service>.bytes_*`), so total traffic and each service's
/// share are both visible — the baseline any future compression work
/// gets judged against.
#[derive(Debug, Clone)]
pub struct FrameMeter {
    tx: rlgraph_obs::Counter,
    rx: rlgraph_obs::Counter,
    svc_tx: Option<rlgraph_obs::Counter>,
    svc_rx: Option<rlgraph_obs::Counter>,
}

impl FrameMeter {
    /// Global-only meter.
    pub fn new(recorder: &rlgraph_obs::Recorder) -> Self {
        FrameMeter {
            tx: recorder.counter("net.bytes_tx"),
            rx: recorder.counter("net.bytes_rx"),
            svc_tx: None,
            svc_rx: None,
        }
    }

    /// Meter that also attributes traffic to a named service.
    pub fn for_service(recorder: &rlgraph_obs::Recorder, service: &str) -> Self {
        FrameMeter {
            tx: recorder.counter("net.bytes_tx"),
            rx: recorder.counter("net.bytes_rx"),
            svc_tx: Some(recorder.counter(&format!("net.svc.{}.bytes_tx", service))),
            svc_rx: Some(recorder.counter(&format!("net.svc.{}.bytes_rx", service))),
        }
    }

    pub(crate) fn count_tx(&self, payload_len: usize) {
        let n = (payload_len + FRAME_OVERHEAD) as u64;
        self.tx.add(n);
        if let Some(c) = &self.svc_tx {
            c.add(n);
        }
    }

    pub(crate) fn count_rx(&self, payload_len: usize) {
        let n = (payload_len + FRAME_OVERHEAD) as u64;
        self.rx.add(n);
        if let Some(c) = &self.svc_rx {
            c.add(n);
        }
    }
}

/// Writes one plain frame (header, payload, CRC; flags byte zero) and
/// flushes.
///
/// # Errors
///
/// `RlError::Io` on transport failure; [`RlError::Protocol`] if the
/// payload exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> RlResult<()> {
    write_frame_flags(w, kind, payload, 0)
}

/// Writes one frame with an explicit flags byte in the version word.
/// The payload is written as given: [`encode_frame_lz`] is the one
/// caller that passes compressed bytes together with
/// [`FLAG_COMPRESSED`].
fn write_frame_flags(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    flags: u8,
) -> RlResult<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(RlError::Protocol(format!(
            "frame payload of {} bytes exceeds the {} byte limit",
            payload.len(),
            MAX_FRAME_LEN
        )));
    }
    let word = (VERSION as u16) | ((flags as u16) << 8);
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&word.to_le_bytes());
    header[6..8].copy_from_slice(&kind.to_u16().to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Writes one encoded frame (the output of [`encode_frame_lz`]) and
/// flushes, with wire-level byte accounting: the meter counts the bytes
/// that actually cross the wire (the compressed length when compression
/// won), plus framing overhead.
///
/// # Errors
///
/// `RlError::Io` on transport failure.
pub fn write_encoded_metered(w: &mut impl Write, frame: &[u8], meter: &FrameMeter) -> RlResult<()> {
    w.write_all(frame)?;
    w.flush()?;
    meter.count_tx(frame.len().saturating_sub(FRAME_OVERHEAD));
    Ok(())
}

/// One decoded frame plus its wire metadata.
#[derive(Debug)]
pub struct Frame {
    /// Dispatch tag.
    pub kind: FrameKind,
    /// The payload, already decompressed when the frame was flagged.
    pub payload: Vec<u8>,
    /// Whether the sender set [`CAP_LZ`]: the reply to this frame may
    /// be compressed.
    pub lz_ok: bool,
    /// Wire bytes of the payload as transmitted (the compressed size
    /// for [`FLAG_COMPRESSED`] frames), for metering.
    pub wire_len: usize,
}

/// Reads one frame, validating magic, version, length bound, and CRC.
///
/// # Errors
///
/// `RlError::Io` on transport failure (including read timeouts, which
/// classify as retryable); [`RlError::Protocol`] on any header or
/// checksum violation, or when a [`FLAG_COMPRESSED`] payload fails to
/// decompress.
pub fn read_frame(r: &mut impl Read) -> RlResult<(FrameKind, Vec<u8>)> {
    read_frame_info(r).map(|f| (f.kind, f.payload))
}

/// [`read_frame`] returning the full [`Frame`], with wire-level byte
/// accounting: the meter counts the bytes that actually crossed the
/// wire (the compressed length for [`FLAG_COMPRESSED`] frames), plus
/// framing overhead.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_info_metered(r: &mut impl Read, meter: &FrameMeter) -> RlResult<Frame> {
    let frame = read_frame_info(r)?;
    meter.count_rx(frame.wire_len);
    Ok(frame)
}

/// A validated frame header.
struct Header {
    flags: u8,
    kind: FrameKind,
    len: usize,
}

/// The one header check both readers run, as soon as the 12 bytes are
/// in: magic, version word, kind, and the length bound — before any
/// allocation for a payload a corrupt length field may have invented.
fn parse_header(header: &[u8; HEADER_LEN]) -> RlResult<Header> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(RlError::Protocol(format!("bad magic 0x{:08x}", magic)));
    }
    let word = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    let flags = parse_version(word).map_err(RlError::Protocol)?;
    let kind = FrameKind::from_u16(u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")))?;
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(RlError::Protocol(format!(
            "declared payload of {} bytes exceeds the {} byte limit",
            len, MAX_FRAME_LEN
        )));
    }
    Ok(Header { flags, kind, len: len as usize })
}

/// The one payload check both readers run once the whole frame is in:
/// CRC over the bytes as transmitted, then decompression when flagged.
fn finish_frame(header: &Header, mut payload: Vec<u8>, expected_crc: u32) -> RlResult<Frame> {
    let actual = crc32(&payload);
    if actual != expected_crc {
        return Err(RlError::Protocol(format!(
            "payload checksum mismatch: computed 0x{:08x}, frame says 0x{:08x}",
            actual, expected_crc
        )));
    }
    let wire_len = payload.len();
    if header.flags & FLAG_COMPRESSED != 0 {
        payload = compress::decompress(&payload, MAX_FRAME_LEN as usize)?;
    }
    Ok(Frame { kind: header.kind, payload, lz_ok: header.flags & CAP_LZ != 0, wire_len })
}

fn read_frame_info(r: &mut impl Read) -> RlResult<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = parse_header(&header)?;
    let mut payload = vec![0u8; header.len];
    r.read_exact(&mut payload)?;
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    finish_frame(&header, payload, u32::from_le_bytes(crc))
}

/// Encodes one plain frame into a fresh buffer — the nonblocking
/// stack's `write_frame`, producing bytes for a
/// [`WriteQueue`](crate::conn::WriteQueue) instead of writing to a
/// stream.
///
/// # Errors
///
/// [`RlError::Protocol`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> RlResult<Vec<u8>> {
    encode_frame_lz(kind, payload, false)
}

/// Encodes one frame; with `lz` set, [`CAP_LZ`] is stamped into the
/// version word and a payload of at least [`COMPRESS_MIN_LEN`] bytes is
/// LZ-compressed — kept only if actually smaller, with
/// [`FLAG_COMPRESSED`] set. A client passes its own setting; a server
/// passes the [`Frame::lz_ok`] of the request it is answering.
///
/// # Errors
///
/// [`RlError::Protocol`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame_lz(kind: FrameKind, payload: &[u8], lz: bool) -> RlResult<Vec<u8>> {
    let mut flags = if lz { CAP_LZ } else { 0 };
    let mut wire: &[u8] = payload;
    let compressed;
    // The length limit applies to the *uncompressed* payload (receivers
    // cap decompression at MAX_FRAME_LEN), so a doomed payload skips
    // the compressor and fails typed in `write_frame_flags` below.
    if lz && (COMPRESS_MIN_LEN..=MAX_FRAME_LEN as usize).contains(&payload.len()) {
        compressed = compress::compress(payload);
        if compressed.len() < payload.len() {
            wire = &compressed;
            flags |= FLAG_COMPRESSED;
        }
    }
    let mut out = Vec::with_capacity(wire.len() + FRAME_OVERHEAD);
    write_frame_flags(&mut out, kind, wire, flags)?;
    Ok(out)
}

/// Incremental frame decoder for nonblocking sockets: feed whatever
/// bytes arrive, pull out whole frames as they complete.
///
/// Validation happens at the earliest byte where the one-shot
/// [`read_frame`] could detect the problem — the header is checked as
/// soon as its 12 bytes are buffered (before waiting for a payload a
/// corrupt length field may have invented), the CRC once the full frame
/// is in. A decoder that has returned an error is poisoned: the stream
/// position is no longer trustworthy, so the connection must be closed
/// (every subsequent [`FrameDecoder::next`] repeats the error).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<RlError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffers newly received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn poison(&mut self, e: RlError) -> RlError {
        self.poisoned = Some(e.clone());
        e
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`RlError::Protocol`] on any header or checksum violation —
    /// permanently: the decoder stays poisoned afterwards.
    // Not `Iterator`: the fallible `Result<Option<..>>` pull is the
    // conventional shape for incremental decoders.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> RlResult<Option<(FrameKind, Vec<u8>)>> {
        Ok(self.next_info()?.map(|f| (f.kind, f.payload)))
    }

    /// [`FrameDecoder::next`] returning the full [`Frame`] with wire
    /// metadata, for callers metering compressed bytes.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next`].
    pub fn next_info(&mut self) -> RlResult<Option<Frame>> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = &self.buf[self.pos..];
        let Some(header) = avail.first_chunk::<HEADER_LEN>() else {
            self.compact();
            return Ok(None);
        };
        let header = match parse_header(header) {
            Ok(header) => header,
            Err(e) => return Err(self.poison(e)),
        };
        let total = HEADER_LEN + header.len + 4;
        if avail.len() < total {
            self.compact();
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..total - 4].to_vec();
        let crc = u32::from_le_bytes(avail[total - 4..total].try_into().expect("4 bytes"));
        match finish_frame(&header, payload, crc) {
            Ok(frame) => {
                self.pos += total;
                self.compact();
                Ok(Some(frame))
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Reclaims consumed prefix bytes once they dominate the buffer, so
    /// a long-lived connection's read buffer stays proportional to its
    /// unconsumed backlog rather than growing forever.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip() {
        let bytes = frame_bytes(FrameKind::Request, b"payload bytes");
        assert_eq!(bytes.len(), b"payload bytes".len() + FRAME_OVERHEAD);
        let (kind, payload) = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(payload, b"payload bytes");
        // empty payloads are legal frames
        let empty = frame_bytes(FrameKind::Response, b"");
        let (kind, payload) = read_frame(&mut empty.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Response);
        assert!(payload.is_empty());
    }

    #[test]
    fn traced_request_kind_roundtrips() {
        let bytes = frame_bytes(FrameKind::RequestTraced, b"ctx+req");
        let (kind, payload) = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::RequestTraced);
        assert_eq!(payload, b"ctx+req");
    }

    #[test]
    fn metered_io_counts_payload_plus_overhead_per_service() {
        let rec = rlgraph_obs::Recorder::wall();
        let meter = FrameMeter::for_service(&rec, "shard-0");
        let mut buf = Vec::new();
        let frame = encode_frame(FrameKind::Request, b"12345").unwrap();
        write_encoded_metered(&mut buf, &frame, &meter).unwrap();
        let expected = (5 + FRAME_OVERHEAD) as u64;
        assert_eq!(rec.counter("net.bytes_tx").value(), expected);
        assert_eq!(rec.counter("net.svc.shard-0.bytes_tx").value(), expected);
        read_frame_info_metered(&mut buf.as_slice(), &meter).unwrap();
        assert_eq!(rec.counter("net.bytes_rx").value(), expected);
        assert_eq!(rec.counter("net.svc.shard-0.bytes_rx").value(), expected);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = frame_bytes(FrameKind::Request, b"x");
        bytes[0] ^= 0xFF;
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("magic")), "{}", err);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = frame_bytes(FrameKind::Request, b"x");
        bytes[4] = VERSION + 1;
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("version")), "{}", err);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut bytes = frame_bytes(FrameKind::Request, b"sensitive payload");
        let flip = 12 + 3; // a payload byte
        bytes[flip] ^= 0x01;
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("checksum")), "{}", err);
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let bytes = frame_bytes(FrameKind::Request, b"cut short");
        let cut = &bytes[..bytes.len() - 6];
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert!(matches!(err, RlError::Io { .. }), "{}", err);
        assert!(err.is_fatal(), "truncation mid-frame cannot be retried on the same stream");
    }

    #[test]
    fn oversized_length_field_rejected_before_allocation() {
        let mut bytes = frame_bytes(FrameKind::Request, b"x");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("limit")), "{}", err);
    }

    #[test]
    fn decoder_reassembles_frames_fed_one_byte_at_a_time() {
        let mut stream = frame_bytes(FrameKind::Request, b"first");
        stream.extend(frame_bytes(FrameKind::Ping, b""));
        stream.extend(frame_bytes(FrameKind::Response, b"second"));

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.feed(&[b]);
            while let Some(frame) = dec.next().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (FrameKind::Request, b"first".to_vec()));
        assert_eq!(got[1], (FrameKind::Ping, Vec::new()));
        assert_eq!(got[2], (FrameKind::Response, b"second".to_vec()));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_bad_header_before_payload_arrives() {
        let mut bytes = frame_bytes(FrameKind::Request, &vec![0u8; 1024]);
        bytes[0] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        // Only the header: a corrupt magic must not wait for the 1 KiB
        // payload a liar's length field promises.
        dec.feed(&bytes[..12]);
        let err = dec.next().unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("magic")), "{}", err);
        // Poisoned: the error is permanent.
        dec.feed(&bytes[12..]);
        assert!(dec.next().is_err());
    }

    #[test]
    fn lz_frame_compresses_and_roundtrips() {
        let payload = vec![42u8; 4096];
        let frame = encode_frame_lz(FrameKind::Request, &payload, true).unwrap();
        assert!(frame.len() < payload.len() / 4, "compressible payload stayed large");
        let info = read_frame_info(&mut frame.as_slice()).unwrap();
        assert_eq!(info.kind, FrameKind::Request);
        assert_eq!(info.payload, payload);
        assert!(info.lz_ok);
        assert_eq!(info.wire_len, frame.len() - FRAME_OVERHEAD);
        // The incremental decoder agrees.
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let inc = dec.next_info().unwrap().unwrap();
        assert_eq!(inc.payload, payload);
        assert!(inc.lz_ok);
    }

    #[test]
    fn without_lz_the_frame_is_plain() {
        let payload = vec![42u8; 4096];
        let frame = encode_frame_lz(FrameKind::Request, &payload, false).unwrap();
        assert_eq!(frame, frame_bytes(FrameKind::Request, &payload));
        assert!(!read_frame_info(&mut frame.as_slice()).unwrap().lz_ok);
    }

    #[test]
    fn small_payloads_skip_compression() {
        let payload = vec![7u8; 64];
        let frame = encode_frame_lz(FrameKind::Request, &payload, true).unwrap();
        let info = read_frame_info(&mut frame.as_slice()).unwrap();
        assert_eq!(info.wire_len, payload.len(), "below COMPRESS_MIN_LEN must not compress");
        assert_eq!(info.payload, payload);
    }

    #[test]
    fn unknown_wire_flags_rejected_typed() {
        let mut bytes = frame_bytes(FrameKind::Request, b"x");
        bytes[5] = 0x80; // an undefined flag bit
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("wire flags")), "{}", err);
    }

    #[test]
    fn corrupt_compressed_payload_poisons_decoder() {
        let payload = vec![9u8; 2048];
        let mut frame = encode_frame_lz(FrameKind::Request, &payload, true).unwrap();
        // Corrupt the compressed body *and* fix up the CRC so only the
        // decompressor can notice.
        let wire_len = frame.len() - FRAME_OVERHEAD;
        frame[12] = 0xFF; // method byte of the LZ blob
        let crc = crc32(&frame[12..12 + wire_len]).to_le_bytes();
        frame[12 + wire_len..].copy_from_slice(&crc);
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(_)), "{}", err);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(dec.next().is_err());
        assert!(dec.next().is_err(), "decoder must stay poisoned");
    }

    #[test]
    fn decoder_matches_one_shot_errors() {
        for mutate in [3usize, 5, 7, 13, 20] {
            let mut bytes = frame_bytes(FrameKind::Request, b"parity check");
            bytes[mutate] ^= 0x40;
            let one_shot = read_frame(&mut bytes.as_slice());
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            let incremental = dec.next();
            match (one_shot, incremental) {
                (Ok((k1, p1)), Ok(Some((k2, p2)))) => assert_eq!((k1, p1), (k2, p2)),
                (Err(e1), Err(e2)) => assert_eq!(e1.to_string(), e2.to_string()),
                (a, b) => panic!("decoder disagreement at byte {}: {:?} vs {:?}", mutate, a, b),
            }
        }
    }
}
