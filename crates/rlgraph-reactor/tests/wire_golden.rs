//! The wire format, pinned by bytes.
//!
//! Both RPC stacks encode and decode through `rlgraph_reactor::call` and
//! `rlgraph_reactor::frame`, so two encoders agreeing no longer says
//! anything about the format: these fixtures do. The plain and
//! compressed requests and both responses were captured off sockets at
//! the commit before the shared call layer (its blocking and mux
//! clients sent the same bytes, its two servers answered with the same
//! bytes); the traced request is that commit's layout around a fixed
//! context, a live client's ids being random. An encoder or decoder
//! that drifts from them has changed the protocol, and `frame::VERSION`
//! with it.

use rlgraph_core::RlError;
use rlgraph_obs::TraceContext;
use rlgraph_reactor::call::{decode_request, decode_response, encode_request, encode_response};
use rlgraph_reactor::frame::{FrameDecoder, FrameKind, FLAG_COMPRESSED, FRAME_OVERHEAD};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// The payload of an uncompressed frame.
fn payload(frame: &[u8]) -> &[u8] {
    &frame[FRAME_OVERHEAD - 4..frame.len() - 4]
}

/// Decodes `frame` through both readers; they must agree.
fn decode(frame: &[u8]) -> (FrameKind, Vec<u8>) {
    let one_shot = rlgraph_reactor::read_frame(&mut &frame[..]).unwrap();
    let mut decoder = FrameDecoder::new();
    decoder.feed(frame);
    assert_eq!(decoder.next().unwrap().as_ref(), Some(&one_shot));
    one_shot
}

const CTX: TraceContext =
    TraceContext { trace_id: 0x1122_3344_5566_7788, span_id: 0x99aa_bbcc_ddee_ff00, flags: 1 };

// magic u32, version word u16, kind u16, len u32 | req_id u64, method
// u16, body | crc u32
const PLAIN_REQUEST: &str = "464e4c52020001000e00000001000000000000000201626f6479a4c4f0c6";
// payload prefixed with the context: len u8, version u8, trace_id u64,
// span_id u64, flags u8
const TRACED_REQUEST: &str = "464e4c5202000300210000001201887766554433221100ffeeddccbbaa9901\
07000000000000000201626f6479567dd592";
// req_id u64, status 0, body
const OK_RESPONSE: &str = "464e4c52020002000e0000000700000000000000007265706c79fae2fc8f";
// req_id u64, status 1, error tag 1 (`MailboxFull`), capacity u64
const ERROR_RESPONSE: &str = "464e4c520200020012000000070000000000000001010300000000000000b7bd03f0";
/// 600 × 0x42 under the LZ hint: version word 0x0302 = `CAP_LZ |
/// FLAG_COMPRESSED`, 30 bytes on the wire for a 610-byte payload.
const COMPRESSED_REQUEST: &str = "464e4c52020301001e000000016202000001010082010002020142ff0100ff\
0100ff0100ff0100c7010077a5f17b";

#[test]
fn request_payloads_match_the_fixtures() {
    let plain = unhex(PLAIN_REQUEST);
    assert_eq!(encode_request(None, 1, 0x0102, b"body", false).unwrap(), plain);
    let (kind, bytes) = decode(&plain);
    assert_eq!((kind, &bytes[..]), (FrameKind::Request, payload(&plain)));
    let req = decode_request(kind, &bytes).unwrap();
    assert_eq!((req.ctx, req.req_id, req.method, req.body), (None, 1, 0x0102, &b"body"[..]));

    let traced = unhex(TRACED_REQUEST);
    assert_eq!(encode_request(Some(&CTX), 7, 0x0102, b"body", false).unwrap(), traced);
    let (kind, bytes) = decode(&traced);
    assert_eq!(kind, FrameKind::RequestTraced);
    let req = decode_request(kind, &bytes).unwrap();
    assert_eq!((req.ctx, req.req_id, req.method, req.body), (Some(CTX), 7, 0x0102, &b"body"[..]));
}

#[test]
fn response_payloads_match_the_fixtures() {
    let cases = [
        (OK_RESPONSE, Ok(b"reply".to_vec())),
        (ERROR_RESPONSE, Err(RlError::MailboxFull { capacity: 3 })),
    ];
    for (fixture, result) in cases {
        let frame = unhex(fixture);
        assert_eq!(encode_response(7, &result, false), frame);
        let (kind, bytes) = decode(&frame);
        assert_eq!(kind, FrameKind::Response);
        assert_eq!(decode_response(&bytes).unwrap(), (7, result));
    }
}

#[test]
fn the_lz_hint_compresses_what_is_worth_it_and_flags_it() {
    let body = [0x42u8; 600];
    let compressed = unhex(COMPRESSED_REQUEST);
    assert_eq!(encode_request(None, 1, 0x0102, &body, true).unwrap(), compressed);
    assert_eq!(compressed[5] & FLAG_COMPRESSED, FLAG_COMPRESSED);
    let (kind, bytes) = decode(&compressed);
    let req = decode_request(kind, &bytes).unwrap();
    assert_eq!((req.req_id, req.method, req.body), (1, 0x0102, &body[..]));

    // Without the hint the same request is the plain layout, flags
    // byte zero, payload verbatim.
    let plain = encode_request(None, 1, 0x0102, &body, false).unwrap();
    assert_eq!(plain[4..6], [2, 0]);
    assert_eq!(plain.len(), 10 + body.len() + FRAME_OVERHEAD);
    assert_eq!(payload(&plain)[10..], body);
}
