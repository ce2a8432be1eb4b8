//! The RPC call protocol, written once (DESIGN.md §11).
//!
//! A call is two payloads inside [`frame`](crate::frame)s —
//!
//! ```text
//! Request        [req_id u64][method u16][body…]
//! RequestTraced  [trace ctx][req_id u64][method u16][body…]
//! Response       [req_id u64][status u8 = 0][body…]
//!                [req_id u64][status u8 = 1][RlError]
//! ```
//!
//! — plus what a peer records around them: the client's trace edge and
//! `net.rpc.<method>.us`, the server's handler span and
//! `net.rpc.serve.<method>.us`. Both RPC stacks (`rlgraph-net`'s
//! blocking `RpcServer`/`RpcClient`, this crate's [`mux`](crate::mux))
//! call the functions here and differ only in how they schedule the
//! I/O around them: the blocking server serves a request on the thread
//! that read it, the mux server on a pool thread.

use crate::codec::{get_rl_error, get_trace_context, put_rl_error, put_trace_context};
use crate::frame::{encode_frame, encode_frame_lz, FrameKind};
use crate::service::RpcService;
use crate::wire::{ByteReader, ByteWriter};
use rlgraph_core::{RlError, RlResult};
use rlgraph_obs::{ContextScope, Histogram, Recorder, SpanGuard, TraceContext};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One decoded request; the body borrows from the frame's payload.
#[derive(Debug)]
pub struct Request<'a> {
    /// The caller's trace context ([`FrameKind::RequestTraced`] only).
    pub ctx: Option<TraceContext>,
    /// Client-assigned id, echoed in the response.
    pub req_id: u64,
    /// The service method.
    pub method: u16,
    /// The method's argument bytes.
    pub body: &'a [u8],
}

/// Encodes one request frame: [`FrameKind::RequestTraced`] with the
/// context prefix when `ctx` is given, plain [`FrameKind::Request`]
/// otherwise; `lz` is the caller's per-request LZ hint.
///
/// # Errors
///
/// [`RlError::Protocol`] if the payload exceeds
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN).
pub fn encode_request(
    ctx: Option<&TraceContext>,
    req_id: u64,
    method: u16,
    body: &[u8],
    lz: bool,
) -> RlResult<Vec<u8>> {
    let mut payload = ByteWriter::with_capacity(30 + body.len());
    let kind = match ctx {
        Some(ctx) => {
            put_trace_context(&mut payload, ctx);
            FrameKind::RequestTraced
        }
        None => FrameKind::Request,
    };
    payload.put_u64(req_id);
    payload.put_u16(method);
    payload.put_bytes(body);
    encode_frame_lz(kind, &payload.into_bytes(), lz)
}

/// Decodes the payload of a request frame.
///
/// # Errors
///
/// [`RlError::Protocol`] when `kind` is not a request kind (a peer
/// sending responses or heartbeats here is not speaking the protocol)
/// or the payload is truncated; servers close the connection.
pub fn decode_request(kind: FrameKind, payload: &[u8]) -> RlResult<Request<'_>> {
    let mut r = ByteReader::new(payload);
    let ctx = match kind {
        FrameKind::Request => None,
        FrameKind::RequestTraced => Some(get_trace_context(&mut r)?),
        other => {
            return Err(RlError::Protocol(format!("{:?} frame where a request belongs", other)))
        }
    };
    let req_id = r.get_u64()?;
    let method = r.get_u16()?;
    let body = r.get_bytes(r.remaining())?;
    Ok(Request { ctx, req_id, method, body })
}

fn response_payload(req_id: u64, result: &RlResult<Vec<u8>>) -> Vec<u8> {
    let mut resp = ByteWriter::with_capacity(16 + result.as_ref().map_or(64, Vec::len));
    resp.put_u64(req_id);
    match result {
        Ok(reply) => {
            resp.put_u8(0);
            resp.put_bytes(reply);
        }
        Err(e) => {
            resp.put_u8(1);
            put_rl_error(&mut resp, e);
        }
    }
    resp.into_bytes()
}

/// Encodes the response frame for `req_id`, compressed iff the request
/// carried the LZ hint. A reply too large for a frame still answers the
/// caller — with the typed frame-limit error in place of the body — so
/// the connection stays in step and a retrying client is not sent
/// around again for a reply that can never fit.
pub fn encode_response(req_id: u64, result: &RlResult<Vec<u8>>, lz: bool) -> Vec<u8> {
    encode_frame_lz(FrameKind::Response, &response_payload(req_id, result), lz).unwrap_or_else(
        |too_large| {
            // Errors serialize to a few hundred bytes at most: the
            // expect documents that, not a reachable panic.
            encode_frame(FrameKind::Response, &response_payload(req_id, &Err(too_large)))
                .expect("error response fits in a frame")
        },
    )
}

/// Decodes a response payload into the request id it answers and the
/// call's result (the remote service's typed error is the *inner*
/// `Err`: it arrived on a well-framed stream).
///
/// # Errors
///
/// [`RlError::Protocol`] on truncation, an unknown status byte or a
/// malformed error; clients drop the connection.
pub fn decode_response(payload: &[u8]) -> RlResult<(u64, RlResult<Vec<u8>>)> {
    let mut r = ByteReader::new(payload);
    let req_id = r.get_u64()?;
    let result = match r.get_u8()? {
        0 => Ok(r.get_bytes(r.remaining())?.to_vec()),
        1 => Err(get_rl_error(&mut r)?),
        other => return Err(RlError::Protocol(format!("unknown response status {}", other))),
    };
    Ok((req_id, result))
}

/// A call's latency histograms: one over all methods plus one per
/// method, registered lazily so the registry only holds methods that
/// were actually called.
#[derive(Debug)]
pub struct CallLatency {
    recorder: Recorder,
    overall: Histogram,
    per_method_prefix: &'static str,
    per_method: HashMap<u16, Histogram>,
}

impl CallLatency {
    /// The client's pair: `net.rpc_us` and `net.rpc.<method>.us`.
    pub fn client(recorder: &Recorder) -> Self {
        Self::new(recorder, "net.rpc_us", "net.rpc.")
    }

    /// The server's pair: `net.server.rpc_us` and
    /// `net.rpc.serve.<method>.us`.
    pub fn server(recorder: &Recorder) -> Self {
        Self::new(recorder, "net.server.rpc_us", "net.rpc.serve.")
    }

    fn new(recorder: &Recorder, overall: &str, per_method_prefix: &'static str) -> Self {
        CallLatency {
            recorder: recorder.clone(),
            overall: recorder.histogram(overall),
            per_method_prefix,
            per_method: HashMap::new(),
        }
    }

    /// Records one finished call under both histograms.
    pub fn record(&mut self, method: u16, name: &str, elapsed: Duration) {
        self.overall.record_duration(elapsed);
        let (recorder, prefix) = (&self.recorder, self.per_method_prefix);
        self.per_method
            .entry(method)
            .or_insert_with(|| recorder.histogram(&format!("{}{}.us", prefix, name)))
            .record_duration(elapsed);
    }

    /// Records a call that ended without a reply (deadline, severed
    /// connection) under the overall histogram only.
    pub fn record_unanswered(&self, elapsed: Duration) {
        self.overall.record_duration(elapsed);
    }
}

/// The client's trace edge, taken on the **calling** thread: with a
/// recording recorder, a child of the thread's current context to ship
/// with the request and the `rpc.<method>` span flow-linked to it (the
/// remote handler span adopts the same id from the wire). With a
/// disabled recorder neither exists and the request goes out as a plain
/// [`FrameKind::Request`].
pub fn trace_edge(recorder: &Recorder, name: &str) -> (Option<TraceContext>, Option<SpanGuard>) {
    if !recorder.is_enabled() {
        return (None, None);
    }
    let child = TraceContext::current_or_root().child();
    (Some(child), Some(recorder.span(format!("rpc.{}", name)).flow_out(child.span_id)))
}

/// Serves requests into one [`RpcService`]: one per serving thread.
pub struct Handler {
    service: Arc<dyn RpcService>,
    recorder: Recorder,
    latency: CallLatency,
}

impl Handler {
    /// A handler dispatching into `service`.
    pub fn new(service: Arc<dyn RpcService>, recorder: &Recorder) -> Self {
        Handler { service, recorder: recorder.clone(), latency: CallLatency::server(recorder) }
    }

    /// Serves one request and returns its response frame: installs the
    /// request's trace context for the call (so nested outbound calls
    /// chain onto the same trace) under an `rpc.serve.<method>` span
    /// flow-linked to the caller's, dispatches, records the latency,
    /// and encodes the reply under the request's LZ hint `lz`.
    pub fn serve(&mut self, req: &Request<'_>, lz: bool) -> Vec<u8> {
        let t0 = Instant::now();
        let name = self.service.method_name(req.method);
        let result = {
            let _scope = req.ctx.map(ContextScope::enter);
            let _span = req
                .ctx
                .filter(|c| self.recorder.is_enabled() && c.is_sampled())
                .map(|c| self.recorder.span(format!("rpc.serve.{}", name)).flow_in(c.span_id));
            self.service.call(req.method, req.body)
        };
        self.latency.record(req.method, name, t0.elapsed());
        encode_response(req.req_id, &result, lz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_with_and_without_a_trace_context() {
        let ctx = TraceContext { trace_id: 7, span_id: 9, flags: 1 };
        for ctx in [None, Some(ctx)] {
            let frame = encode_request(ctx.as_ref(), 42, 3, b"body", false).unwrap();
            let (kind, payload) = crate::frame::read_frame(&mut frame.as_slice()).unwrap();
            let req = decode_request(kind, &payload).unwrap();
            assert_eq!((req.ctx, req.req_id, req.method, req.body), (ctx, 42, 3, &b"body"[..]));
        }
    }

    #[test]
    fn non_request_kinds_and_truncated_requests_are_typed_errors() {
        for kind in [FrameKind::Response, FrameKind::Ping, FrameKind::Pong] {
            assert!(matches!(decode_request(kind, &[0; 16]), Err(RlError::Protocol(_))));
        }
        assert!(matches!(decode_request(FrameKind::Request, &[0; 9]), Err(RlError::Protocol(_))));
        assert!(matches!(decode_request(FrameKind::RequestTraced, &[]), Err(RlError::Protocol(_))));
    }

    #[test]
    fn responses_roundtrip_both_statuses_and_reject_unknown_ones() {
        for result in [Ok(b"reply".to_vec()), Err(RlError::MailboxFull { capacity: 3 })] {
            let frame = encode_response(5, &result, false);
            let (kind, payload) = crate::frame::read_frame(&mut frame.as_slice()).unwrap();
            assert_eq!(kind, FrameKind::Response);
            assert_eq!(decode_response(&payload).unwrap(), (5, result));
        }
        let mut bad = 5u64.to_le_bytes().to_vec();
        bad.push(2);
        assert!(matches!(decode_response(&bad), Err(RlError::Protocol(_))));
    }
}
