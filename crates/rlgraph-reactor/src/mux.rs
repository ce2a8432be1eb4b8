//! Multiplexed RPC over the reactor: many in-flight request ids per
//! connection, completed in whatever order the handlers finish.
//!
//! The wire format is the one `rlgraph-net`'s blocking RPC speaks —
//! [`FrameKind::Request`]`[req_id u64][method u16][body…]` /
//! [`FrameKind::Response`]`[req_id u64][status u8][body… | error…]`,
//! with [`FrameKind::RequestTraced`] prefixing a trace context — so the
//! two stacks interoperate freely: a blocking `RpcClient` (one id in
//! flight) talks to a [`MuxServer`], a [`MuxClient`] talks to a
//! blocking server. The mux peers add [`FrameKind::Ping`]/[`FrameKind::Pong`]
//! heartbeats, which are therefore **opt-in** on the client (a blocking
//! server closes on a ping instead of answering it). Every request
//! carries the LZ hint (`frame.rs`); a reply is compressed iff the
//! request it answers carried it.
//!
//! # Server
//!
//! One event-loop thread owns every socket: it accepts, reads bytes
//! into each connection's incremental [`FrameDecoder`], and hands
//! decoded requests to a small handler pool ([`RpcService::call`] may
//! block — the policy server's micro-batcher does). Handlers push
//! encoded responses onto a completion queue and ring the loop's
//! [`Waker`]; the loop owns all writes through per-connection
//! [`WriteQueue`]s, arming write interest only while a queue is
//! non-empty. A [`TimerWheel`] reaps connections idle past the
//! configured timeout (`net.conns.idle_reaped`), and `net.conns.open`
//! gauges the live count.
//!
//! # Client
//!
//! [`MuxClient`] is shareable (`&self` calls): submissions enqueue and
//! ring the client loop's waker, so any number of threads keep any
//! number of requests in flight on one socket. Each request carries its
//! own deadline (timer-wheel driven); expiry fails that request with
//! [`RlError::DeadlineExpired`] **without severing the stream** — the
//! late reply is dropped by request-id miss. A severed connection fails
//! every pending request with a retryable `ConnectionReset` and
//! reconnects on the next submission, mirroring the blocking client's
//! reconnect-on-next-call contract.

use crate::call::{
    decode_request, decode_response, encode_request, trace_edge, CallLatency, Handler, Request,
};
use crate::conn::WriteQueue;
use crate::frame::{encode_frame, FrameDecoder, FrameKind, FrameMeter};
use crate::poll::{Interest, Poller, Token, Waker};
use crate::service::RpcService;
use crate::timer::{TimerKey, TimerWheel};
use rlgraph_core::{RlError, RlResult};
use rlgraph_obs::{Recorder, SpanGuard, TraceContext};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes read per `read` call into the shared scratch buffer.
const SCRATCH_LEN: usize = 64 * 1024;

/// Server event-loop registration tokens: connections use
/// `slot << 32 | generation`, so the two reserved tokens live above any
/// reachable slot index.
const LISTENER_TOKEN: Token = Token(u64::MAX);
const WAKER_TOKEN: Token = Token(u64::MAX - 1);

/// Timer-wheel sentinel that re-arms a backed-off listener; no live
/// connection can alias it (slots are slab indices, far below
/// `usize::MAX`).
const LISTENER_REARM: (usize, u64) = (usize::MAX, u64::MAX);

/// How long the listener stays parked after an accept failure
/// (EMFILE/ENFILE class) before retrying. Without the pause, level
/// triggering would re-report the un-accepted connection on every wait
/// and spin the loop at 100% CPU for as long as fds stay exhausted.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

fn conn_token(slot: usize, gen: u64) -> Token {
    Token(((slot as u64) << 32) | (gen & 0xffff_ffff))
}

fn split_token(t: Token) -> (usize, u64) {
    ((t.0 >> 32) as usize, t.0 & 0xffff_ffff)
}

// ---------------------------------------------------------------- server

/// Tuning knobs for a [`MuxServer`].
#[derive(Debug, Clone)]
pub struct MuxServerConfig {
    /// Threads in the handler pool ([`RpcService::call`] may block).
    pub handler_threads: usize,
    /// Connections idle (no frames, nothing in flight or queued) for
    /// this long are closed; `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// A connection whose unsent response backlog exceeds this is
    /// closed: the peer is not reading, and unbounded buffering would
    /// let one dead client hold the server's memory.
    pub max_queued_bytes: usize,
    /// Per-connection ceiling on inbound bytes buffered ahead of the
    /// handler pool: undecoded reader bytes plus the bodies of
    /// dispatched-but-unanswered requests. A connection at the ceiling
    /// has its read interest parked (backpressure, via the kernel's
    /// receive window) until completions drain it back under — so one
    /// fast client cannot queue unbounded memory server-side. The
    /// ceiling is soft by at most one 64 KiB read batch (the gate is
    /// checked before each `read`, not each byte).
    pub max_inflight_bytes: usize,
}

impl Default for MuxServerConfig {
    fn default() -> Self {
        MuxServerConfig {
            handler_threads: 4,
            idle_timeout: Some(Duration::from_secs(60)),
            max_queued_bytes: 64 * 1024 * 1024,
            max_inflight_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A request decoded by the event loop, in flight to the handler pool.
struct Job {
    slot: usize,
    gen: u64,
    req_id: u64,
    method: u16,
    body: Vec<u8>,
    ctx: Option<TraceContext>,
    /// Whether the request carried the LZ hint: the response may be
    /// compressed.
    lz: bool,
}

/// An encoded response frame travelling back to the event loop.
struct Completion {
    slot: usize,
    gen: u64,
    frame: Vec<u8>,
    /// The originating request's body length — returned to the
    /// connection's inflight-bytes budget so backpressured reads can
    /// resume.
    req_bytes: usize,
}

/// One connection's state machine inside the server loop.
struct SrvConn {
    stream: TcpStream,
    gen: u64,
    decoder: FrameDecoder,
    wq: WriteQueue,
    interest: Interest,
    last_activity: Instant,
    inflight: usize,
    /// Bodies of dispatched-but-unanswered requests, in bytes; together
    /// with the decoder's backlog this is the inbound pressure gated by
    /// `max_inflight_bytes`.
    inflight_bytes: usize,
}

/// An epoll-driven RPC server: one event-loop thread multiplexing every
/// connection, a handler pool running the service. See module docs.
pub struct MuxServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    loop_handle: Option<std::thread::JoinHandle<()>>,
    handler_handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MuxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxServer").field("addr", &self.addr).finish()
    }
}

impl MuxServer {
    /// Binds `127.0.0.1:0` and starts serving with default config.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the listener cannot bind or a thread cannot
    /// spawn.
    pub fn spawn(name: &str, service: Arc<dyn RpcService>, recorder: Recorder) -> RlResult<Self> {
        Self::spawn_with(name, service, recorder, MuxServerConfig::default())
    }

    /// [`MuxServer::spawn`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// As [`MuxServer::spawn`].
    pub fn spawn_with(
        name: &str,
        service: Arc<dyn RpcService>,
        recorder: Recorder,
        config: MuxServerConfig,
    ) -> RlResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut handler_handles = Vec::new();
        for i in 0..config.handler_threads.max(1) {
            let rx = job_rx.clone();
            let service = service.clone();
            let recorder = recorder.clone();
            let completions = completions.clone();
            let waker = waker.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mux-handler-{}-{}", name, i))
                .spawn(move || handler_loop(rx, service, recorder, completions, waker))
                .map_err(|e| RlError::Io {
                    kind: e.kind(),
                    message: format!("spawn mux handler thread: {}", e),
                })?;
            handler_handles.push(handle);
        }

        let loop_stop = stop.clone();
        let loop_waker = waker.clone();
        let svc_name = name.to_string();
        let loop_handle = std::thread::Builder::new()
            .name(format!("mux-loop-{}", name))
            .spawn(move || {
                server_loop(
                    listener,
                    job_tx,
                    completions,
                    loop_stop,
                    loop_waker,
                    recorder,
                    svc_name,
                    config,
                )
            })
            .map_err(|e| RlError::Io {
                kind: e.kind(),
                message: format!("spawn mux event loop: {}", e),
            })?;

        Ok(MuxServer { addr, stop, waker, loop_handle: Some(loop_handle), handler_handles })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop, drains the handler pool, and joins everything.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
        // The loop dropped its job sender on exit; handlers drain and
        // stop once the channel reports disconnected.
        for h in self.handler_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One handler-pool thread: serves decoded requests through the shared
/// call layer — the blocking server's `connection_loop` with the bytes
/// coming from the job queue and going to the completion queue.
fn handler_loop(
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    service: Arc<dyn RpcService>,
    recorder: Recorder,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
) {
    let mut handler = Handler::new(service, &recorder);
    loop {
        let job = match rx.lock().expect("mux job receiver lock").recv() {
            Ok(job) => job,
            Err(_) => return, // loop gone: shutdown
        };
        let req = Request { ctx: job.ctx, req_id: job.req_id, method: job.method, body: &job.body };
        // Always a frame, even for a reply too large to send: the
        // completion balances the connection's inflight accounting
        // (idle reaping, read backpressure).
        let frame = handler.serve(&req, job.lz);
        completions.lock().expect("mux completion lock").push(Completion {
            slot: job.slot,
            gen: job.gen,
            frame,
            req_bytes: job.body.len(),
        });
        waker.wake();
    }
}

#[allow(clippy::too_many_arguments)]
fn server_loop(
    listener: TcpListener,
    job_tx: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    recorder: Recorder,
    svc_name: String,
    config: MuxServerConfig,
) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE).is_err() {
        return;
    }
    if poller.add(waker.fd(), WAKER_TOKEN, Interest::READABLE).is_err() {
        return;
    }

    let meter = FrameMeter::for_service(&recorder, &svc_name);
    let conns_counter = recorder.counter("net.server.conns");
    let conns_open = recorder.gauge("net.conns.open");
    let idle_reaped = recorder.counter("net.conns.idle_reaped");

    let mut slab: Vec<Option<SrvConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut open = 0usize;
    let mut wheel: TimerWheel<(usize, u64)> = TimerWheel::new(Instant::now());
    let mut events = Vec::new();
    let mut fired: Vec<(usize, u64)> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];

    loop {
        let timeout = wheel.next_deadline().map(|d| d.saturating_duration_since(Instant::now()));
        if poller.wait(&mut events, timeout).is_err() {
            return;
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();

        for &ev in &events {
            if ev.token == WAKER_TOKEN {
                waker.drain();
            } else if ev.token == LISTENER_TOKEN {
                // Accept everything queued; level triggering re-reports
                // anything left if the batch is cut short.
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let slot = free.pop().unwrap_or_else(|| {
                                slab.push(None);
                                slab.len() - 1
                            });
                            next_gen += 1;
                            let gen = next_gen;
                            if poller
                                .add(stream.as_raw_fd(), conn_token(slot, gen), Interest::READABLE)
                                .is_err()
                            {
                                free.push(slot);
                                continue;
                            }
                            slab[slot] = Some(SrvConn {
                                stream,
                                gen,
                                decoder: FrameDecoder::new(),
                                wq: WriteQueue::new(),
                                interest: Interest::READABLE,
                                last_activity: now,
                                inflight: 0,
                                inflight_bytes: 0,
                            });
                            open += 1;
                            conns_counter.inc();
                            conns_open.set(open as f64);
                            if let Some(idle) = config.idle_timeout {
                                wheel.schedule(now, idle, (slot, gen));
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // EMFILE/ENFILE class: park the listener
                            // and retry on a timer instead of letting
                            // level triggering busy-spin the loop while
                            // the process is out of fds.
                            if poller
                                .modify(listener.as_raw_fd(), LISTENER_TOKEN, Interest::NONE)
                                .is_ok()
                            {
                                wheel.schedule(now, ACCEPT_BACKOFF, LISTENER_REARM);
                            }
                            break;
                        }
                    }
                }
            } else {
                let (slot, gen32) = split_token(ev.token);
                let valid = matches!(slab.get(slot), Some(Some(c)) if c.gen & 0xffff_ffff == gen32);
                if !valid {
                    continue;
                }
                let mut close = false;
                if ev.readable || ev.closed {
                    close = read_and_dispatch(
                        slab[slot].as_mut().expect("validated above"),
                        slot,
                        &job_tx,
                        &meter,
                        &mut scratch,
                        now,
                        config.max_inflight_bytes,
                    );
                    // ERR/HUP is fatal both directions; don't let a
                    // backpressured read gate keep the corpse around.
                    close |= ev.closed;
                }
                if !close {
                    // Unconditional pump: flushes loop-level replies
                    // (pongs) enqueued by the read above, and keeps
                    // read/write interest in sync with pressure — a
                    // no-op syscall-wise when nothing changed.
                    let conn = slab[slot].as_mut().expect("validated above");
                    close = !pump_writes(conn, slot, &poller, config.max_inflight_bytes);
                }
                if close {
                    close_conn(&mut slab, &mut free, &poller, slot);
                    open -= 1;
                    conns_open.set(open as f64);
                }
            }
        }

        // Ship handler completions; a generation mismatch means the
        // connection died while its request was being handled.
        let done: Vec<Completion> =
            std::mem::take(&mut *completions.lock().expect("mux completion lock"));
        for c in done {
            let valid = matches!(slab.get(c.slot), Some(Some(conn)) if conn.gen == c.gen);
            if !valid {
                continue;
            }
            let conn = slab[c.slot].as_mut().expect("validated above");
            conn.inflight -= 1;
            conn.inflight_bytes = conn.inflight_bytes.saturating_sub(c.req_bytes);
            conn.last_activity = now;
            meter.count_tx(c.frame.len().saturating_sub(crate::frame::FRAME_OVERHEAD));
            conn.wq.push(c.frame);
            // The pump also re-arms read interest once the drained
            // inflight budget falls back under the ceiling.
            if !pump_writes(conn, c.slot, &poller, config.max_inflight_bytes)
                || conn.wq.queued_bytes() > config.max_queued_bytes
            {
                close_conn(&mut slab, &mut free, &poller, c.slot);
                open -= 1;
                conns_open.set(open as f64);
            }
        }

        // Idle reaping: each timer is a lease check — still busy or
        // recently active connections get a fresh lease for the
        // remaining window.
        fired.clear();
        wheel.advance(now, &mut fired);
        for &(slot, gen) in &fired {
            if (slot, gen) == LISTENER_REARM {
                // Backoff over: resume accepting. Level triggering
                // re-reports any connection still queued; if accept
                // fails again the error arm parks the listener again.
                let _ = poller.modify(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE);
                continue;
            }
            if let Some(idle) = config.idle_timeout {
                let valid = matches!(slab.get(slot), Some(Some(c)) if c.gen == gen);
                if !valid {
                    continue;
                }
                let conn = slab[slot].as_ref().expect("validated above");
                let quiet = now.saturating_duration_since(conn.last_activity);
                if quiet >= idle && conn.inflight == 0 && conn.wq.is_empty() {
                    close_conn(&mut slab, &mut free, &poller, slot);
                    open -= 1;
                    conns_open.set(open as f64);
                    idle_reaped.inc();
                } else {
                    wheel.schedule(
                        now,
                        idle.saturating_sub(quiet).max(Duration::from_millis(1)),
                        (slot, gen),
                    );
                }
            }
        }
    }
    conns_open.set(0.0);
    // job_tx drops here: handlers see the channel close and exit.
}

/// Reads until the socket would block — or the connection's inbound
/// budget (`max_inflight_bytes`) is spent — feeding the decoder and
/// dispatching complete requests. Returns `true` when the connection
/// must close (EOF, transport error, protocol violation).
///
/// Decoding below never grows pressure (it moves bytes from the decoder
/// backlog into dispatched bodies, both counted), so it always runs to
/// completion: a budget-capped connection strands no decoded-but-
/// undispatched frames, and resuming is purely re-arming read interest.
fn read_and_dispatch(
    conn: &mut SrvConn,
    slot: usize,
    job_tx: &mpsc::Sender<Job>,
    meter: &FrameMeter,
    scratch: &mut [u8],
    now: Instant,
    max_inflight_bytes: usize,
) -> bool {
    loop {
        if conn.inflight_bytes + conn.decoder.buffered() >= max_inflight_bytes {
            // Budget spent: stop pulling bytes. The caller's interest
            // sync parks reads; the kernel's receive window pushes the
            // backpressure to the client.
            break;
        }
        match (&conn.stream).read(scratch) {
            Ok(0) => return true, // EOF
            Ok(n) => conn.decoder.feed(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    loop {
        match conn.decoder.next_info() {
            Ok(None) => break,
            Err(_) => return true, // stream is untrusted: close
            Ok(Some(frame)) => {
                let (kind, payload, lz) = (frame.kind, frame.payload, frame.lz_ok);
                conn.last_activity = now;
                meter.count_rx(frame.wire_len);
                match kind {
                    FrameKind::Ping => {
                        if let Ok(frame) = encode_frame(FrameKind::Pong, &[]) {
                            conn.wq.push(frame);
                        }
                    }
                    FrameKind::Pong => {}
                    _ => {
                        // Malformed, or a response: not our protocol.
                        let Ok(req) = decode_request(kind, &payload) else { return true };
                        conn.inflight += 1;
                        conn.inflight_bytes += req.body.len();
                        let job = Job {
                            slot,
                            gen: conn.gen,
                            req_id: req.req_id,
                            method: req.method,
                            body: req.body.to_vec(),
                            ctx: req.ctx,
                            lz,
                        };
                        if job_tx.send(job).is_err() {
                            return true; // pool gone: shutting down
                        }
                    }
                }
            }
        }
    }
    false
}

/// Flushes a connection's write queue and re-syncs its interest set:
/// write interest while unsent bytes remain, read interest while the
/// inbound budget has headroom. Returns `false` when the connection
/// must close.
fn pump_writes(
    conn: &mut SrvConn,
    slot: usize,
    poller: &Poller,
    max_inflight_bytes: usize,
) -> bool {
    let drained = if conn.wq.is_empty() {
        true
    } else {
        match conn.wq.flush(&mut &conn.stream) {
            Ok(drained) => drained,
            Err(_) => return false,
        }
    };
    let readable = conn.inflight_bytes + conn.decoder.buffered() < max_inflight_bytes;
    let want = Interest::from_flags(readable, !drained);
    if want != conn.interest {
        let token = conn_token(slot, conn.gen);
        if poller.modify(conn.stream.as_raw_fd(), token, want).is_err() {
            return false;
        }
        conn.interest = want;
    }
    true
}

/// Deregisters and drops one connection.
fn close_conn(slab: &mut [Option<SrvConn>], free: &mut Vec<usize>, poller: &Poller, slot: usize) {
    if let Some(conn) = slab[slot].take() {
        poller.delete(conn.stream.as_raw_fd());
        free.push(slot);
        // conn drops here, closing the socket; in-flight handler
        // completions for it die on the generation check.
    }
}

// ---------------------------------------------------------------- client

/// Tuning knobs for a [`MuxClient`].
#[derive(Debug, Clone)]
pub struct MuxClientConfig {
    /// TCP connect timeout, for the eager initial connect and every
    /// reconnect.
    pub connect_timeout: Duration,
    /// Ping the server at this interval; a ping the server never
    /// answers before the next interval severs the connection. `None`
    /// (the default) disables heartbeats — required when the peer is a
    /// blocking server, which closes on a ping instead of answering it.
    pub heartbeat: Option<Duration>,
    /// Method-id → name table labelling per-method latency histograms
    /// (`net.rpc.<name>.us`) and client spans.
    pub method_names: fn(u16) -> &'static str,
}

impl Default for MuxClientConfig {
    fn default() -> Self {
        MuxClientConfig {
            connect_timeout: Duration::from_secs(5),
            heartbeat: None,
            method_names: |_| "other",
        }
    }
}

/// Completion callback invoked (from the client loop thread) with the
/// call's result.
type Callback = Box<dyn FnOnce(RlResult<Vec<u8>>) + Send>;

/// A submission travelling from a caller thread to the client loop.
/// Trace context and the client span are captured on the **caller's**
/// thread, so nested outbound calls chain onto the caller's trace, not
/// the loop's.
struct Submit {
    method: u16,
    body: Vec<u8>,
    deadline: Option<Duration>,
    ctx: Option<TraceContext>,
    span: Option<SpanGuard>,
    t0: Instant,
    callback: Callback,
}

struct ClientShared {
    submits: Mutex<Vec<Submit>>,
    waker: Waker,
    stop: AtomicBool,
}

/// The receiving end of one in-flight [`MuxClient`] call.
pub struct ReplyHandle {
    rx: mpsc::Receiver<RlResult<Vec<u8>>>,
}

impl std::fmt::Debug for ReplyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplyHandle")
    }
}

impl ReplyHandle {
    /// Blocks for the result. Returns [`RlError::Shutdown`] if the
    /// client was torn down before the call completed.
    pub fn wait(self) -> RlResult<Vec<u8>> {
        self.rx.recv().unwrap_or(Err(RlError::Shutdown))
    }

    /// Non-blocking poll: `Some(result)` once complete.
    pub fn poll(&self) -> Option<RlResult<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(RlError::Shutdown)),
        }
    }
}

/// A shareable multiplexing RPC client; see module docs.
pub struct MuxClient {
    shared: Arc<ClientShared>,
    recorder: Recorder,
    method_names: fn(u16) -> &'static str,
    addr: SocketAddr,
    loop_handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxClient").field("addr", &self.addr).finish()
    }
}

impl MuxClient {
    /// Connects to `addr` with default config. `peer` names the remote
    /// for diagnostics ("replay-shard-2"). Like the blocking client,
    /// the initial connect is eager: an unreachable address fails here.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the initial connection or thread spawn fails.
    pub fn connect(peer: &str, addr: SocketAddr, recorder: &Recorder) -> RlResult<Self> {
        Self::connect_with(peer, addr, recorder, MuxClientConfig::default())
    }

    /// [`MuxClient::connect`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// As [`MuxClient::connect`].
    pub fn connect_with(
        peer: &str,
        addr: SocketAddr,
        recorder: &Recorder,
        config: MuxClientConfig,
    ) -> RlResult<Self> {
        let method_names = config.method_names;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let shared = Arc::new(ClientShared {
            submits: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            stop: AtomicBool::new(false),
        });
        let loop_shared = shared.clone();
        let loop_recorder = recorder.clone();
        let peer_name = peer.to_string();
        let loop_handle = std::thread::Builder::new()
            .name(format!("mux-client-{}", peer))
            .spawn(move || client_loop(loop_shared, addr, peer_name, loop_recorder, config, stream))
            .map_err(|e| RlError::Io {
                kind: e.kind(),
                message: format!("spawn mux client loop: {}", e),
            })?;
        Ok(MuxClient {
            shared,
            recorder: recorder.clone(),
            method_names,
            addr,
            loop_handle: Some(loop_handle),
        })
    }

    /// The remote address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queues one call and invokes `on_done` (from the client loop
    /// thread) with the result. Callbacks must not block: they run on
    /// the event loop.
    pub fn call_async(
        &self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
        on_done: impl FnOnce(RlResult<Vec<u8>>) + Send + 'static,
    ) {
        // On the caller's thread: the loop thread has no caller context.
        let (ctx, span) = trace_edge(&self.recorder, (self.method_names)(method));
        let submit = Submit {
            method,
            body: body.to_vec(),
            deadline,
            ctx,
            span,
            t0: Instant::now(),
            callback: Box::new(on_done),
        };
        self.shared.submits.lock().expect("mux submit lock").push(submit);
        self.shared.waker.wake();
    }

    /// Queues one call, returning a handle to collect the result —
    /// issue many, then wait, to fill the connection's pipeline.
    pub fn submit(&self, method: u16, body: &[u8], deadline: Option<Duration>) -> ReplyHandle {
        let (tx, rx) = mpsc::channel();
        self.call_async(method, body, deadline, move |r| {
            let _ = tx.send(r);
        });
        ReplyHandle { rx }
    }

    /// Issues one call and blocks for the response — the blocking
    /// client's `call`, over the mux stack.
    ///
    /// # Errors
    ///
    /// [`RlError::DeadlineExpired`] on expiry, `RlError::Io` on
    /// transport failure, or the remote service's typed error.
    pub fn call(&self, method: u16, body: &[u8], deadline: Option<Duration>) -> RlResult<Vec<u8>> {
        self.submit(method, body, deadline).wait()
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
    }

    /// Stops the loop thread; pending calls fail with
    /// [`RlError::Shutdown`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One request awaiting its response in the client loop.
struct PendingCall {
    callback: Callback,
    timer: Option<TimerKey>,
    /// Held so the client span closes at completion time; `SpanGuard`
    /// resolves its track on drop, so parking it here is sound.
    #[allow(dead_code)]
    span: Option<SpanGuard>,
    t0: Instant,
    method: u16,
}

enum ClientTimer {
    Deadline(u64),
    Heartbeat,
}

struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    wq: WriteQueue,
    interest: Interest,
}

impl ClientConn {
    fn new(stream: TcpStream) -> ClientConn {
        ClientConn {
            stream,
            decoder: FrameDecoder::new(),
            wq: WriteQueue::new(),
            interest: Interest::READABLE,
        }
    }
}

const CLIENT_CONN_TOKEN: Token = Token(0);
const CLIENT_WAKER_TOKEN: Token = Token(1);

fn client_loop(
    shared: Arc<ClientShared>,
    addr: SocketAddr,
    peer: String,
    recorder: Recorder,
    config: MuxClientConfig,
    initial: TcpStream,
) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller.add(shared.waker.fd(), CLIENT_WAKER_TOKEN, Interest::READABLE).is_err() {
        return;
    }
    let meter = FrameMeter::new(&recorder);
    let mut latency = CallLatency::client(&recorder);
    let reconnects = recorder.counter("net.reconnects");

    let mut pending: HashMap<u64, PendingCall> = HashMap::new();
    let mut next_req_id: u64 = 0;
    let mut wheel: TimerWheel<ClientTimer> = TimerWheel::new(Instant::now());
    let mut events = Vec::new();
    let mut fired: Vec<ClientTimer> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut awaiting_pong = false;

    let mut conn = match poller.add(initial.as_raw_fd(), CLIENT_CONN_TOKEN, Interest::READABLE) {
        Ok(()) => Some(ClientConn::new(initial)),
        Err(_) => None,
    };
    if let Some(hb) = config.heartbeat {
        wheel.schedule(Instant::now(), hb, ClientTimer::Heartbeat);
    }

    loop {
        let timeout = wheel.next_deadline().map(|d| d.saturating_duration_since(Instant::now()));
        if poller.wait(&mut events, timeout).is_err() {
            break;
        }
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        let mut sever = false;

        for &ev in &events {
            if ev.token == CLIENT_WAKER_TOKEN {
                shared.waker.drain();
                continue;
            }
            let Some(c) = conn.as_mut() else { continue };
            if ev.readable || ev.closed {
                loop {
                    match (&c.stream).read(&mut scratch) {
                        Ok(0) => {
                            sever = true;
                            break;
                        }
                        Ok(n) => c.decoder.feed(&scratch[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            sever = true;
                            break;
                        }
                    }
                }
                while !sever {
                    match c.decoder.next_info() {
                        Ok(None) => break,
                        Err(_) => {
                            sever = true;
                        }
                        Ok(Some(frame)) => {
                            let (kind, payload) = (frame.kind, frame.payload);
                            awaiting_pong = false;
                            meter.count_rx(frame.wire_len);
                            match kind {
                                FrameKind::Pong => {}
                                FrameKind::Ping => {
                                    if let Ok(f) = encode_frame(FrameKind::Pong, &[]) {
                                        c.wq.push(f);
                                    }
                                }
                                FrameKind::Response => match decode_response(&payload) {
                                    Ok((req_id, result)) => {
                                        // Unknown id: a late reply whose
                                        // deadline already fired — drop.
                                        if let Some(p) = pending.remove(&req_id) {
                                            if let Some(t) = p.timer {
                                                wheel.cancel(t);
                                            }
                                            latency.record(
                                                p.method,
                                                (config.method_names)(p.method),
                                                p.t0.elapsed(),
                                            );
                                            (p.callback)(result);
                                            // p.span drops here: the client
                                            // span closes at completion.
                                        }
                                    }
                                    Err(_) => sever = true,
                                },
                                // A server sending requests is not
                                // speaking our protocol.
                                _ => sever = true,
                            }
                        }
                    }
                }
            }
            if !sever && (ev.writable || !c.wq.is_empty()) {
                sever = !pump_client_writes(c, &poller);
            }
        }

        if sever {
            do_sever(&mut conn, &mut pending, &mut wheel, &poller, &peer, &latency);
            awaiting_pong = false;
            sever = false;
        }

        // Drain submissions, (re)connecting on demand.
        let submits: Vec<Submit> =
            std::mem::take(&mut *shared.submits.lock().expect("mux submit lock"));
        for s in submits {
            if conn.is_none() {
                if let Ok(stream) = TcpStream::connect_timeout(&addr, config.connect_timeout) {
                    let ok = stream.set_nodelay(true).is_ok()
                        && stream.set_nonblocking(true).is_ok()
                        && poller
                            .add(stream.as_raw_fd(), CLIENT_CONN_TOKEN, Interest::READABLE)
                            .is_ok();
                    if ok {
                        reconnects.inc();
                        conn = Some(ClientConn::new(stream));
                    }
                }
            }
            let Some(c) = conn.as_mut() else {
                (s.callback)(Err(RlError::Io {
                    kind: std::io::ErrorKind::ConnectionRefused,
                    message: format!("{} unreachable at {}", peer, addr),
                }));
                continue;
            };
            next_req_id += 1;
            let req_id = next_req_id;
            match encode_request(s.ctx.as_ref(), req_id, s.method, &s.body, true) {
                Ok(frame) => {
                    // Meter the bytes that actually cross the wire (the
                    // compressed length when compression won).
                    meter.count_tx(frame.len() - crate::frame::FRAME_OVERHEAD);
                    c.wq.push(frame);
                }
                Err(e) => {
                    (s.callback)(Err(e));
                    continue;
                }
            }
            let timer = s.deadline.map(|d| wheel.schedule(now, d, ClientTimer::Deadline(req_id)));
            pending.insert(
                req_id,
                PendingCall {
                    callback: s.callback,
                    timer,
                    span: s.span,
                    t0: s.t0,
                    method: s.method,
                },
            );
        }
        if let Some(c) = conn.as_mut() {
            if !c.wq.is_empty() && !pump_client_writes(c, &poller) {
                do_sever(&mut conn, &mut pending, &mut wheel, &poller, &peer, &latency);
                awaiting_pong = false;
            }
        }

        // Timers: per-request deadlines and the heartbeat.
        fired.clear();
        wheel.advance(now, &mut fired);
        for t in fired.drain(..) {
            match t {
                ClientTimer::Deadline(req_id) => {
                    if let Some(p) = pending.remove(&req_id) {
                        latency.record_unanswered(p.t0.elapsed());
                        (p.callback)(Err(RlError::DeadlineExpired {
                            what: format!("rpc {}:{}", peer, (config.method_names)(p.method)),
                        }));
                        // The stream stays healthy: the late reply is
                        // dropped by request-id miss, unlike the
                        // blocking client which must poison its stream.
                    }
                }
                ClientTimer::Heartbeat => {
                    if conn.is_some() && awaiting_pong {
                        // The previous ping went unanswered for a full
                        // interval: the connection is dead.
                        sever = true;
                    } else if let Some(c) = conn.as_mut() {
                        if let Ok(f) = encode_frame(FrameKind::Ping, &[]) {
                            c.wq.push(f);
                            awaiting_pong = true;
                            if !pump_client_writes(c, &poller) {
                                sever = true;
                            }
                        }
                    }
                    if let Some(hb) = config.heartbeat {
                        wheel.schedule(now, hb, ClientTimer::Heartbeat);
                    }
                }
            }
        }
        if sever {
            do_sever(&mut conn, &mut pending, &mut wheel, &poller, &peer, &latency);
            awaiting_pong = false;
        }
    }

    // Shutdown: everything still in flight or queued fails typed.
    for (_, p) in pending.drain() {
        (p.callback)(Err(RlError::Shutdown));
    }
    for s in std::mem::take(&mut *shared.submits.lock().expect("mux submit lock")) {
        (s.callback)(Err(RlError::Shutdown));
    }
}

fn pump_client_writes(c: &mut ClientConn, poller: &Poller) -> bool {
    let drained = match c.wq.flush(&mut &c.stream) {
        Ok(drained) => drained,
        Err(_) => return false,
    };
    let want = if drained { Interest::READABLE } else { Interest::BOTH };
    if want != c.interest {
        if poller.modify(c.stream.as_raw_fd(), CLIENT_CONN_TOKEN, want).is_err() {
            return false;
        }
        c.interest = want;
    }
    true
}

/// Tears down the connection: every pending request fails with the
/// retryable "connection died" class the blocking client uses, and the
/// next submission reconnects.
fn do_sever(
    conn: &mut Option<ClientConn>,
    pending: &mut HashMap<u64, PendingCall>,
    wheel: &mut TimerWheel<ClientTimer>,
    poller: &Poller,
    peer: &str,
    latency: &CallLatency,
) {
    if let Some(c) = conn.take() {
        poller.delete(c.stream.as_raw_fd());
    }
    for (_, p) in pending.drain() {
        if let Some(t) = p.timer {
            wheel.cancel(t);
        }
        latency.record_unanswered(p.t0.elapsed());
        (p.callback)(Err(RlError::Io {
            kind: std::io::ErrorKind::ConnectionReset,
            message: format!("{} went away mid-request", peer),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_scheme_roundtrips_and_avoids_reserved_range() {
        let t = conn_token(123, 0xdead_beef_0042);
        let (slot, gen32) = split_token(t);
        assert_eq!(slot, 123);
        assert_eq!(gen32, 0xbeef_0042);
        assert_ne!(t, LISTENER_TOKEN);
        assert_ne!(t, WAKER_TOKEN);
    }

    #[test]
    fn defaults_are_interop_safe() {
        // Heartbeats default off: a blocking server closes on a ping.
        assert!(MuxClientConfig::default().heartbeat.is_none());
        assert!(MuxServerConfig::default().handler_threads >= 1);
    }
}
