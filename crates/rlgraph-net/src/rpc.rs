//! Request/response RPC over `std::net::TcpStream`: the blocking I/O
//! schedule over the call protocol in [`rlgraph_reactor::call`]
//! (payloads, trace edge, latency histograms, serving one request),
//! which the reactor's mux stack schedules from an event loop instead.
//!
//! The server is thread-per-connection: an accept loop hands each peer
//! to a handler thread that reads request frames, dispatches into an
//! [`RpcService`], and writes response frames back on the same socket.
//! Requests carry a client-assigned id echoed in the response, so a
//! desynchronized stream is detected instead of silently answering the
//! wrong call.
//!
//! The client is synchronous (one outstanding call per client). Every
//! call takes an optional **deadline**: socket read/write timeouts are
//! armed from the remaining budget, and expiry surfaces as
//! [`RlError::DeadlineExpired`] — the same retryable severity class the
//! in-process executors use, so one [`RetryPolicy`] governs both worlds.
//! After any transport failure the client drops its stream and
//! reconnects on the next call (counted by `net.reconnects`): a stream
//! that timed out mid-frame can never be trusted again.
//!
//! Error mapping note: once a connection has been established, a
//! `BrokenPipe` on send or an `UnexpectedEof` mid-frame both mean "the
//! peer went away" exactly like `ConnectionReset` does; the client
//! normalizes them to `ConnectionReset` so the severity taxonomy sees
//! one retryable "connection died, reconnect and retry" class. Refused
//! connections (`ConnectionRefused`) stay fatal: there is no server to
//! reconnect to.
//!
//! Wire dialect: none to discover. Every peer is this build (`frame.rs`
//! rejects any other version word), so the client keeps no
//! per-connection history — what it sends after a reconnect is what it
//! sent before. Requests carry the per-request LZ hint iff
//! [`RpcClient::set_lz`] is on, and the server compresses a reply iff
//! the request it answers carried the hint (DESIGN.md §14).
//!
//! Observability (all through the injected [`Recorder`]): `net.bytes_tx`
//! / `net.bytes_rx` counters on both sides (plus per-service
//! `net.svc.<name>.bytes_*` on the server), `net.rpc_us` overall and
//! `net.rpc.<method>.us` per-method latency histograms on the client,
//! `net.server.rpc_us` / `net.rpc.serve.<method>.us` on the server,
//! `net.reconnects` on the client, `net.server.conns` on the server.
//!
//! **Distributed tracing.** When the client's recorder is enabled, every
//! call derives a child [`TraceContext`] from the calling thread's
//! current context, records a client span flow-linked to the child's
//! span id, and ships the context as a [`FrameKind::RequestTraced`]
//! prefix. The server decodes it, opens a handler span flow-linked to
//! the same id, and installs the context for the handler thread
//! ([`ContextScope`](rlgraph_obs::ContextScope)) so nested outbound
//! calls chain onto the same trace. With a disabled recorder the client
//! emits plain [`FrameKind::Request`] frames — byte-identical to
//! untraced builds.

use crate::frame::{read_frame_info_metered, write_encoded_metered, FrameKind, FrameMeter};
use rlgraph_core::{RlError, RlResult};
use rlgraph_dist::retry::{RetryPolicy, Sleep, ThreadSleeper};
use rlgraph_obs::{Recorder, TraceContext};
use rlgraph_reactor::call::{
    decode_request, decode_response, encode_request, trace_edge, CallLatency, Handler,
};
use rlgraph_reactor::sys;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The dispatch trait moved down into `rlgraph-reactor` so the same
// service objects plug into the blocking server here and the mux
// server there; re-exported to keep `rlgraph_net::rpc::RpcService`
// paths working.
pub use rlgraph_reactor::service::RpcService;

/// How often blocked server threads surface from the kernel to check
/// the idle reaper (and, as a fallback, the stop flag). Each check is a
/// `poll(2)` timeout — a real kernel sleep, not a spin — so the cost of
/// liveness is ~10 wakeups/s. Shutdown does not wait a tick out: it
/// wakes every sleeper through its socket ([`RpcServer::shutdown`]).
const STOP_CHECK_TICK: Duration = Duration::from_millis(100);

/// `Read` adapter that sleeps in `poll(2)` until bytes arrive, exiting
/// with an error on EOF, a real failure, the server's stop flag, or —
/// only **between** frames — the idle timeout. Partial frame progress
/// disarms the idle reaper (`got_bytes`), so a slow sender can never be
/// reaped mid-frame and desynchronize the stream.
struct StopReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    /// Reap the connection if no byte arrives by this instant.
    idle_until: Option<Instant>,
    /// Set once the current frame has started arriving.
    got_bytes: bool,
    /// Reports to `connection_loop` that the exit was an idle reap.
    idle_hit: bool,
}

impl<'a> StopReader<'a> {
    fn new(stream: &'a TcpStream, stop: &'a AtomicBool, idle: Option<Duration>) -> Self {
        StopReader {
            stream,
            stop,
            idle_until: idle.map(|d| Instant::now() + d),
            got_bytes: false,
            idle_hit: false,
        }
    }
}

impl Read for StopReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server shutting down",
                ));
            }
            if !self.got_bytes {
                if let Some(at) = self.idle_until {
                    if Instant::now() >= at {
                        self.idle_hit = true;
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "idle connection reaped",
                        ));
                    }
                }
            }
            if !sys::wait_readable(self.stream.as_raw_fd(), Some(STOP_CHECK_TICK))? {
                continue; // timeout tick: re-check stop and idle
            }
            match (&mut self.stream).read(buf) {
                Ok(n) => {
                    self.got_bytes = true;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Decrements a gauge when dropped — balances `net.conns.open` on
/// every connection-loop exit path.
struct GaugeDec(rlgraph_obs::Gauge);

impl Drop for GaugeDec {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// Tuning for [`RpcServer`]; the defaults match production use.
#[derive(Debug, Clone, Copy)]
pub struct RpcServerConfig {
    /// Close connections with no inbound frame for this long (`None`
    /// never reaps). Reaps are counted by `net.conns.idle_reaped`.
    pub idle_timeout: Option<Duration>,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig { idle_timeout: Some(Duration::from_secs(60)) }
    }
}

/// A running RPC server bound to a localhost ephemeral port.
pub struct RpcServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl RpcServer {
    /// Binds `127.0.0.1:0` and starts accepting connections, dispatching
    /// every request into `service` from per-connection threads.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the listener cannot bind.
    pub fn spawn(name: &str, service: Arc<dyn RpcService>, recorder: Recorder) -> RlResult<Self> {
        Self::spawn_with(name, service, recorder, RpcServerConfig::default())
    }

    /// [`RpcServer::spawn`] with explicit [`RpcServerConfig`].
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the listener cannot bind or the accept thread
    /// cannot spawn.
    pub fn spawn_with(
        name: &str,
        service: Arc<dyn RpcService>,
        recorder: Recorder,
        config: RpcServerConfig,
    ) -> RlResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let thread_name = format!("rpc-accept-{}", name);
        let svc_name: Arc<str> = Arc::from(name);
        let accept_handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                accept_loop(listener, service, accept_stop, recorder, svc_name, config);
            })
            .map_err(|e| RlError::Io { kind: e.kind(), message: format!("spawn accept: {e}") })?;
        Ok(RpcServer { addr, stop, accept_handle: Some(accept_handle) })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks handler threads, and joins them all.
    /// Nothing sleeps a tick out: a connection to the server's own
    /// address wakes the accept loop, which ends every open connection's
    /// read side to wake its handler. A handler busy in a call still
    /// writes its reply before it sees the end of its stream.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            // Never accepted (the loop checks the flag first); should the
            // connect fail, the loop still surfaces within a tick.
            let _ = TcpStream::connect_timeout(&self.addr, STOP_CHECK_TICK);
            let _ = h.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<dyn RpcService>,
    stop: Arc<AtomicBool>,
    recorder: Recorder,
    svc_name: Arc<str>,
    config: RpcServerConfig,
) {
    let conns = recorder.counter("net.server.conns");
    let conns_open = recorder.gauge("net.conns.open");
    let idle_reaped = recorder.counter("net.conns.idle_reaped");
    // This thread's own CPU consumption, published so tests (and
    // operators) can see that an idle server sleeps instead of spinning.
    let accept_cpu = recorder.gauge("net.server.accept_cpu_us");
    // Each handler with its connection, kept to wake it at shutdown.
    let mut handlers: Vec<(std::thread::JoinHandle<()>, Arc<TcpStream>)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        accept_cpu.set(sys::thread_cpu_time().as_micros() as f64);
        // Sleep in poll(2) until a peer arrives or a tick elapses — the
        // listener itself stays nonblocking so accept never hangs.
        match sys::wait_readable(listener.as_raw_fd(), Some(STOP_CHECK_TICK)) {
            Ok(true) => {}
            Ok(false) => {
                handlers.retain(|(h, _)| !h.is_finished());
                continue;
            }
            Err(_) => break,
        }
        // Shutdown's wake is a connection too: not a peer, not counted.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.inc();
                let stream = Arc::new(stream);
                let conn = stream.clone();
                conns_open.add(1.0);
                let service = service.clone();
                let stop = stop.clone();
                let recorder = recorder.clone();
                let svc_name = svc_name.clone();
                let idle = config.idle_timeout;
                let open_dec = GaugeDec(conns_open.clone());
                let reaped = idle_reaped.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("rpc-conn-{}", svc_name))
                    .spawn(move || {
                        let _open = open_dec;
                        connection_loop(&stream, service, stop, recorder, svc_name, idle, reaped);
                        // The accept loop holds the socket open until it
                        // next looks: close it for the peer now.
                        let _ = stream.shutdown(Shutdown::Both);
                    });
                // On thread exhaustion the connection is dropped (the
                // GaugeDec moved into the failed closure already
                // rebalanced the gauge) and the server keeps serving.
                if let Ok(handle) = spawned {
                    handlers.push((handle, conn));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
        handlers.retain(|(h, _)| !h.is_finished());
    }
    // Wake the handlers asleep in `poll`: their reads see end of stream.
    // Only the read side ends, so a reply in flight is still written.
    for (_, conn) in &handlers {
        let _ = conn.shutdown(Shutdown::Read);
    }
    for (h, _) in handlers {
        let _ = h.join();
    }
    conns_open.set(0.0);
}

fn connection_loop(
    stream: &TcpStream,
    service: Arc<dyn RpcService>,
    stop: Arc<AtomicBool>,
    recorder: Recorder,
    svc_name: Arc<str>,
    idle_timeout: Option<Duration>,
    idle_reaped: rlgraph_obs::Counter,
) {
    let _ = stream.set_nodelay(true);
    let meter = FrameMeter::for_service(&recorder, &svc_name);
    let mut handler = Handler::new(service, &recorder);
    loop {
        // The idle clock re-arms per frame: quiet *between* requests is
        // reapable, a slow sender mid-frame is not.
        let mut reader = StopReader::new(stream, &stop, idle_timeout);
        let frame = match read_frame_info_metered(&mut reader, &meter) {
            Ok(frame) => frame,
            // EOF, reset, stop, idle reap: the connection is done either
            // way. A protocol violation also closes — the stream is
            // untrusted.
            Err(_) => {
                if reader.idle_hit {
                    idle_reaped.inc();
                }
                return;
            }
        };
        // Malformed, a response, or the mux stack's heartbeat extension
        // (which this stack does not speak): close.
        let Ok(req) = decode_request(frame.kind, &frame.payload) else { return };
        let reply = handler.serve(&req, frame.lz_ok);
        if write_encoded_metered(&mut &*stream, &reply, &meter).is_err() {
            return;
        }
    }
}

/// Synchronous RPC client with per-call deadlines and transparent
/// reconnect-on-next-call after transport failures.
pub struct RpcClient {
    peer: String,
    addr: SocketAddr,
    stream: Option<TcpStream>,
    next_req_id: u64,
    connect_timeout: Duration,
    ever_connected: bool,
    /// Whether requests carry the LZ hint and compress when worthwhile
    /// (`frame.rs`); see [`RpcClient::set_lz`].
    lz: bool,
    recorder: Recorder,
    meter: FrameMeter,
    latency: CallLatency,
    reconnects: rlgraph_obs::Counter,
    method_names: fn(u16) -> &'static str,
    /// The one request sent by [`RpcClient::call_deferred`] whose
    /// response has not been read yet (req id + armed expiry).
    deferred: Option<(u64, Option<Instant>)>,
    /// The one request sent by [`RpcClient::call_prefetch`] whose
    /// response [`RpcClient::take_prefetched`] has not collected yet.
    prefetch: Option<PrefetchState>,
}

/// A prefetched request: still on the wire, or already resolved into a
/// stashed result by an intervening call that needed the stream.
enum PrefetchState {
    Sent { req_id: u64, expiry: Option<Instant>, method: u16 },
    Ready(RlResult<Vec<u8>>),
}

fn unnamed_method(_: u16) -> &'static str {
    "other"
}

impl RpcClient {
    /// Creates a client for `addr` and eagerly connects.
    ///
    /// `peer` names the remote for diagnostics ("replay-shard-2").
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the initial connection fails.
    pub fn connect(peer: &str, addr: SocketAddr, recorder: &Recorder) -> RlResult<Self> {
        let mut client = RpcClient {
            peer: peer.to_string(),
            addr,
            stream: None,
            next_req_id: 0,
            connect_timeout: Duration::from_secs(5),
            ever_connected: false,
            lz: true,
            recorder: recorder.clone(),
            meter: FrameMeter::new(recorder),
            latency: CallLatency::client(recorder),
            reconnects: recorder.counter("net.reconnects"),
            method_names: unnamed_method,
            deferred: None,
            prefetch: None,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The remote address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Overrides the TCP connect timeout (default 5s).
    pub fn set_connect_timeout(&mut self, t: Duration) {
        self.connect_timeout = t;
    }

    /// Whether requests carry the LZ hint: large compressible requests
    /// ship LZ-compressed and the server may compress its replies. On
    /// by default; the typed service clients turn it off for
    /// `CodecProfile::PLAIN`, so the plain profile is the plain wire.
    pub fn set_lz(&mut self, on: bool) {
        self.lz = on;
    }

    /// Installs the method-id → name table used to label per-method
    /// latency histograms (`net.rpc.<name>.us`) and client spans.
    pub fn set_method_names(&mut self, f: fn(u16) -> &'static str) {
        self.method_names = f;
        self.latency = CallLatency::client(&self.recorder);
    }

    fn record_latency(&mut self, method: u16, t0: Instant) {
        self.latency.record(method, (self.method_names)(method), t0.elapsed());
    }

    fn ensure_connected(&mut self) -> RlResult<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_nodelay(true)?;
        if self.ever_connected {
            self.reconnects.inc();
        }
        self.ever_connected = true;
        self.stream = Some(stream);
        Ok(())
    }

    /// The one exit for transport, protocol, and deadline failures: the
    /// stream may hold a half-written or half-read frame, so it is
    /// dropped and the next call reconnects. Normalizes "the established
    /// connection died" io kinds onto `ConnectionReset` so they share
    /// one retryable class (see module docs), and maps timeout kinds
    /// onto [`RlError::DeadlineExpired`] when the call carried a
    /// deadline.
    fn poison(&mut self, e: RlError, method: u16, had_deadline: bool) -> RlError {
        use std::io::ErrorKind;
        self.stream = None;
        match e {
            RlError::Io { kind, message } => match kind {
                ErrorKind::WouldBlock | ErrorKind::TimedOut if had_deadline => {
                    RlError::DeadlineExpired { what: format!("rpc {}:{}", self.peer, method) }
                }
                ErrorKind::BrokenPipe | ErrorKind::UnexpectedEof => RlError::Io {
                    kind: ErrorKind::ConnectionReset,
                    message: format!("{} went away ({:?}: {})", self.peer, kind, message),
                },
                _ => RlError::Io { kind, message },
            },
            other => other,
        }
    }

    /// Writes one request frame (connecting first if needed) and
    /// returns its id. Any failure poisons the stream.
    fn send(
        &mut self,
        method: u16,
        body: &[u8],
        expiry: Option<Instant>,
        ctx: Option<TraceContext>,
    ) -> RlResult<u64> {
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        let result = (|| {
            self.ensure_connected()?;
            let frame = encode_request(ctx.as_ref(), req_id, method, body, self.lz)?;
            let stream = self.stream.as_ref().expect("connected above");
            arm_timeouts(stream, expiry)?;
            write_encoded_metered(&mut &*stream, &frame, &self.meter)
        })();
        result.map(|()| req_id).map_err(|e| self.poison(e, method, expiry.is_some()))
    }

    /// Reads the response frame for `req_id`. Outer error:
    /// transport/protocol/deadline failure (stream poisoned). Inner
    /// error: the remote service's typed reply, which arrives on a
    /// clean, well-framed stream — the connection is kept.
    fn read_reply(
        &mut self,
        req_id: u64,
        method: u16,
        expiry: Option<Instant>,
    ) -> RlResult<RlResult<Vec<u8>>> {
        let result = (|| {
            let stream = self
                .stream
                .as_ref()
                .ok_or_else(|| RlError::Protocol("pending response on a dead stream".into()))?;
            arm_timeouts(stream, expiry)?;
            let frame = read_frame_info_metered(&mut &*stream, &self.meter)?;
            if frame.kind != FrameKind::Response {
                return Err(RlError::Protocol(format!(
                    "{} sent a {:?} frame to a client",
                    self.peer, frame.kind
                )));
            }
            let (got_id, reply) = decode_response(&frame.payload)?;
            if got_id != req_id {
                return Err(RlError::Protocol(format!(
                    "{} answered request {} while {} was pending",
                    self.peer, got_id, req_id
                )));
            }
            Ok(reply)
        })();
        result.map_err(|e| self.poison(e, method, expiry.is_some()))
    }

    /// Issues one call and blocks for the response.
    ///
    /// `deadline` bounds the whole call (send + server time + receive);
    /// `None` blocks indefinitely. On expiry the stream is dropped (it
    /// may hold a half-read frame) and the call returns
    /// [`RlError::DeadlineExpired`]; the next call reconnects.
    ///
    /// # Errors
    ///
    /// [`RlError::DeadlineExpired`] on deadline expiry, `RlError::Io` on
    /// transport failure, [`RlError::Protocol`] if the peer violates the
    /// wire protocol, or whatever typed [`RlError`] the remote service
    /// returned.
    pub fn call(
        &mut self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
    ) -> RlResult<Vec<u8>> {
        self.drain_deferred()?;
        self.resolve_prefetch();
        let t0 = Instant::now();
        let expiry = deadline.map(|d| t0 + d);
        let (ctx, _span) = trace_edge(&self.recorder, (self.method_names)(method));
        let result = self
            .send(method, body, expiry, ctx)
            .and_then(|req_id| self.read_reply(req_id, method, expiry));
        self.record_latency(method, t0);
        result?
    }

    /// Sends a request and returns without reading the response: the
    /// ack is drained just before the next request on this client. The
    /// blocking server answers strictly in order per connection, so by
    /// the time the caller comes back the response is normally already
    /// sitting in the socket buffer — the round-trip leaves the
    /// caller's critical path.
    ///
    /// At most one call is in flight; a second deferred call first
    /// drains the previous ack. Only fire-and-forget methods whose
    /// reply carries no data belong here: a **typed service error** in
    /// the drained ack is *dropped* (counted under
    /// `net.deferred_dropped_errors`), because surfacing it from an
    /// unrelated later call would corrupt that call's error contract.
    /// Transport failures at drain time poison the stream and surface
    /// retryable from the next call, exactly like a synchronous
    /// failure.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the send (or from
    /// draining a previous deferred ack).
    pub fn call_deferred(
        &mut self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
    ) -> RlResult<()> {
        self.drain_deferred()?;
        self.resolve_prefetch();
        let t0 = Instant::now();
        let expiry = deadline.map(|d| t0 + d);
        let result = self.send(method, body, expiry, None);
        self.record_latency(method, t0);
        self.deferred = Some((result?, expiry));
        Ok(())
    }

    /// Reads the ack of an outstanding [`RpcClient::call_deferred`], if
    /// any. Typed service errors are dropped (see `call_deferred`), but
    /// never silently; transport failures poison the stream and return
    /// retryable.
    fn drain_deferred(&mut self) -> RlResult<()> {
        let Some((req_id, expiry)) = self.deferred.take() else {
            return Ok(());
        };
        if self.read_reply(req_id, 0, expiry)?.is_err() {
            self.recorder.counter("net.deferred_dropped_errors").inc();
        }
        Ok(())
    }

    /// Sends a request whose **response body the caller wants later**:
    /// the pipelined sibling of [`RpcClient::call_deferred`] for
    /// methods that return data. The caller collects the result with
    /// [`RpcClient::take_prefetched`]; in between it is free to do
    /// local work (or talk to *other* clients) while the server
    /// processes the request — the blocking server answers in order
    /// per connection, so by collection time the response is normally
    /// already in the socket buffer and the round-trip has left the
    /// caller's critical path.
    ///
    /// At most one prefetch is outstanding per client; a second
    /// prefetch before collection is a caller bug and fails with
    /// [`RlError::Protocol`]. An intervening [`RpcClient::call`] or
    /// [`RpcClient::call_deferred`] on this client resolves the
    /// pending response first (stashing it, typed errors included) so
    /// request/response pairing is never reordered.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the send or from
    /// draining a previous deferred ack. Errors of the prefetched call
    /// itself surface from `take_prefetched`.
    pub fn call_prefetch(
        &mut self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
    ) -> RlResult<()> {
        self.drain_deferred()?;
        if self.prefetch.is_some() {
            return Err(RlError::Protocol(format!(
                "{}: a prefetched call is already outstanding",
                self.peer
            )));
        }
        let expiry = deadline.map(|d| Instant::now() + d);
        let req_id = self.send(method, body, expiry, None)?;
        self.prefetch = Some(PrefetchState::Sent { req_id, expiry, method });
        Ok(())
    }

    /// Collects the response of the outstanding
    /// [`RpcClient::call_prefetch`], blocking only for whatever part of
    /// the round-trip the caller's local work did not already cover.
    /// The recorded per-method latency is exactly that residual wait.
    ///
    /// # Errors
    ///
    /// Whatever the synchronous call would have returned: the remote
    /// service's typed error (stream kept), transport/deadline/protocol
    /// failures (stream poisoned), or [`RlError::Protocol`] if no
    /// prefetch is outstanding.
    pub fn take_prefetched(&mut self) -> RlResult<Vec<u8>> {
        match self.prefetch.take() {
            None => {
                Err(RlError::Protocol(format!("{}: no prefetched call outstanding", self.peer)))
            }
            Some(PrefetchState::Ready(result)) => result,
            Some(PrefetchState::Sent { req_id, expiry, method }) => {
                let t0 = Instant::now();
                let result = self.read_reply(req_id, method, expiry);
                self.record_latency(method, t0);
                result?
            }
        }
    }

    /// Turns a sent-but-uncollected prefetch into a stashed result so
    /// another request can use the stream. No-op otherwise.
    fn resolve_prefetch(&mut self) {
        if let Some(PrefetchState::Sent { req_id, expiry, method }) = self.prefetch {
            let result = self.read_reply(req_id, method, expiry).and_then(|reply| reply);
            self.prefetch = Some(PrefetchState::Ready(result));
        }
    }

    /// Issues the call under a [`RetryPolicy`]: retryable failures
    /// (deadline expiry, reset connections, saturated remote mailboxes)
    /// back off and re-issue — reconnecting transparently — while fatal
    /// errors short-circuit.
    ///
    /// `deadline` applies per attempt; the policy's own deadline bounds
    /// the whole loop.
    ///
    /// # Errors
    ///
    /// [`RlError::RetriesExhausted`] wrapping the last failure, or the
    /// first fatal error.
    pub fn call_retry(
        &mut self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
        policy: &RetryPolicy,
    ) -> RlResult<Vec<u8>> {
        let sleeper = ThreadSleeper::new();
        self.call_retry_with(method, body, deadline, policy, &sleeper)
    }

    /// [`RpcClient::call_retry`] against an explicit [`Sleep`] (virtual
    /// time in tests).
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call_retry`].
    pub fn call_retry_with(
        &mut self,
        method: u16,
        body: &[u8],
        deadline: Option<Duration>,
        policy: &RetryPolicy,
        sleeper: &dyn Sleep,
    ) -> RlResult<Vec<u8>> {
        policy.run(sleeper, |_| self.call(method, body, deadline))
    }
}

/// Arms socket timeouts from the remaining deadline budget; an already
/// expired deadline fails without touching the socket.
fn arm_timeouts(stream: &TcpStream, expiry: Option<Instant>) -> RlResult<()> {
    match expiry {
        None => {
            stream.set_read_timeout(None)?;
            stream.set_write_timeout(None)?;
        }
        Some(at) => {
            let remaining = at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RlError::Io {
                    kind: std::io::ErrorKind::TimedOut,
                    message: "deadline already expired".into(),
                });
            }
            stream.set_read_timeout(Some(remaining))?;
            stream.set_write_timeout(Some(remaining))?;
        }
    }
    Ok(())
}
