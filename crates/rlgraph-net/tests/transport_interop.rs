//! Cross-stack interoperability: the blocking and reactor transports
//! speak the same wire protocol, so any client works against any
//! server, and [`Transport::spawn`] flips a service between stacks
//! without the caller changing anything else.

use rlgraph_core::RlError;
use rlgraph_net::rpc::{RpcClient, RpcService};
use rlgraph_net::{FaultProxy, FaultProxyConfig, ServerHandle, Transport};
use rlgraph_obs::{DumpKind, Recorder};
use rlgraph_reactor::mux::{MuxClient, MuxClientConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ECHO: u16 = 1;
const FAIL: u16 = 2;
const HUGE: u16 = 3;

struct EchoService;

impl RpcService for EchoService {
    fn call(&self, method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        match method {
            ECHO => Ok(body.to_vec()),
            FAIL => Err(RlError::MailboxFull { capacity: 3 }),
            // A reply one byte too large for any frame.
            HUGE => Ok(vec![0u8; rlgraph_net::MAX_FRAME_LEN as usize + 1]),
            other => Err(RlError::Protocol(format!("unknown method {}", other))),
        }
    }

    fn method_name(&self, method: u16) -> &'static str {
        method_names(method)
    }
}

fn method_names(method: u16) -> &'static str {
    match method {
        ECHO => "echo",
        FAIL => "fail",
        HUGE => "huge",
        _ => "other",
    }
}

fn spawn_on(transport: Transport) -> (ServerHandle, Recorder) {
    let recorder = Recorder::wall();
    let server = transport.spawn("interop", Arc::new(EchoService), recorder.clone()).unwrap();
    (server, recorder)
}

/// A blocking thread-per-call client against the epoll mux server —
/// the upgrade path where servers move to the reactor first.
#[test]
fn blocking_client_against_reactor_server() {
    let (server, recorder) = spawn_on(Transport::Reactor);
    let mut client = RpcClient::connect("interop", server.addr(), &recorder).unwrap();
    client.set_method_names(method_names);
    for i in 0..5u8 {
        assert_eq!(client.call(ECHO, &[i], Some(Duration::from_secs(5))).unwrap(), vec![i]);
    }
    let err = client.call(FAIL, b"", Some(Duration::from_secs(5))).unwrap_err();
    assert!(matches!(err, RlError::MailboxFull { capacity: 3 }), "got {err}");
    // Telemetry parity: the reactor server records under the same
    // names the blocking server uses.
    assert!(recorder.histogram("net.server.rpc_us").count() >= 6);
    assert!(recorder.histogram("net.rpc.serve.echo.us").count() >= 5);
    server.shutdown();
}

/// The mux client against the classic blocking server — the reverse
/// path. Heartbeats stay off by default so the blocking server never
/// sees an unknown frame kind.
#[test]
fn mux_client_against_blocking_server() {
    let (server, recorder) = spawn_on(Transport::Blocking);
    let config = MuxClientConfig { method_names, ..MuxClientConfig::default() };
    let client = MuxClient::connect_with("interop", server.addr(), &recorder, config).unwrap();
    for i in 0..5u8 {
        assert_eq!(client.call(ECHO, &[i], Some(Duration::from_secs(5))).unwrap(), vec![i]);
    }
    let err = client.call(FAIL, b"", Some(Duration::from_secs(5))).unwrap_err();
    assert!(matches!(err, RlError::MailboxFull { capacity: 3 }), "got {err}");
    server.shutdown();
}

/// Trace flow linkage holds across stacks: a blocking client's span
/// links to the reactor server's handler span.
#[test]
fn flow_linkage_across_stacks() {
    let (server, recorder) = spawn_on(Transport::Reactor);
    let mut client = RpcClient::connect("interop", server.addr(), &recorder).unwrap();
    client.set_method_names(method_names);
    client.call(ECHO, b"traced", Some(Duration::from_secs(5))).unwrap();
    server.shutdown();
    let dump = recorder.trace_dump();
    let call = dump
        .events
        .iter()
        .find(|e| {
            e.name.starts_with("rpc.") && !e.name.starts_with("rpc.serve.") && e.flow_out != 0
        })
        .expect("client call span");
    let handler = dump
        .events
        .iter()
        .find(|e| e.name.starts_with("rpc.serve.") && e.flow_in == call.flow_out)
        .expect("reactor handler span linked across the stack boundary");
    assert!(matches!(handler.kind, DumpKind::Complete { .. }));
}

/// Both transports behave identically through the `Transport` switch —
/// down to the reply that cannot be framed: the caller gets the typed
/// frame-limit error (fatal, so `call_retry` does not go round again
/// for a reply that can never fit) on a connection that stays up.
#[test]
fn transport_switch_is_behavior_preserving() {
    for transport in [Transport::Blocking, Transport::Reactor] {
        let (server, recorder) = spawn_on(transport);
        assert!(format!("{:?}", server).contains(match transport {
            Transport::Blocking => "Blocking",
            Transport::Reactor => "Reactor",
        }));
        let mut client = RpcClient::connect("interop", server.addr(), &recorder).unwrap();
        assert_eq!(
            client.call(ECHO, b"same wire", Some(Duration::from_secs(5))).unwrap(),
            b"same wire"
        );
        let err = client.call(HUGE, b"", Some(Duration::from_secs(30))).unwrap_err();
        assert!(
            matches!(err, RlError::Protocol(ref m) if m.contains("limit")) && err.is_fatal(),
            "{transport:?}: oversized reply must surface as the frame-limit error, got {err}"
        );
        assert_eq!(client.call(ECHO, b"still-alive", None).unwrap(), b"still-alive");
        assert_eq!(recorder.counter("net.reconnects").value(), 0, "{transport:?} dropped us");
        server.shutdown();
    }
}

/// 8 KiB of one byte: LZ collapses it to a few dozen.
static COMPRESSIBLE: [u8; 8192] = [0x42; 8192];

/// An echo of [`COMPRESSIBLE`] through either client stack.
type Echo = Box<dyn FnMut() -> Result<Vec<u8>, RlError>>;

fn echo_client(mux: bool, addr: std::net::SocketAddr, recorder: &Recorder) -> Echo {
    let deadline = Some(Duration::from_secs(5));
    if mux {
        let client = MuxClient::connect("interop", addr, recorder).unwrap();
        Box::new(move || client.call(ECHO, &COMPRESSIBLE, deadline))
    } else {
        let mut client = RpcClient::connect("interop", addr, recorder).unwrap();
        Box::new(move || client.call(ECHO, &COMPRESSIBLE, deadline))
    }
}

/// Frame compression works across all three stack pairings from the
/// very first request: large compressible payloads ship LZ-compressed
/// in both directions, and the decoded bytes are intact.
#[test]
fn compression_across_stacks() {
    for (transport, mux) in
        [(Transport::Blocking, false), (Transport::Reactor, false), (Transport::Blocking, true)]
    {
        let (server, recorder) = spawn_on(transport);
        let mut echo = echo_client(mux, server.addr(), &recorder);
        for _ in 0..3 {
            assert_eq!(echo().unwrap(), COMPRESSIBLE);
        }
        drop(echo);
        server.shutdown();
        // 3 requests + 3 responses share the recorder; plain would meter
        // ≥ 6 × 8 KiB, and a single plain frame already ≥ 8 KiB.
        let tx = recorder.counter("net.bytes_tx").value();
        assert!(
            tx < 8192,
            "a frame shipped uncompressed over {:?} (mux client: {}): {} bytes on the wire",
            transport,
            mux,
            tx
        );
    }
}

/// One reset must not change the wire dialect: a client whose *first*
/// exchange on a connection dies (the fault proxy refuses connection
/// serial 0) reconnects and still compresses, on both client stacks.
#[test]
fn compression_survives_a_reset_first_exchange() {
    const N: u64 = 4;
    for mux in [false, true] {
        let (server, _) = spawn_on(Transport::Blocking);
        let proxy = FaultProxy::spawn(
            server.addr(),
            FaultProxyConfig { cut_connections: vec![0], ..FaultProxyConfig::default() },
            Recorder::disabled(),
        )
        .unwrap();
        // The client's own recorder: only its requests are metered.
        let recorder = Recorder::wall();
        let mut echo = echo_client(mux, proxy.addr(), &recorder);
        let (mut ok, mut failed) = (0, 0);
        while ok < N {
            match echo() {
                Ok(body) => {
                    assert_eq!(body, COMPRESSIBLE);
                    ok += 1;
                }
                Err(e) => {
                    assert!(e.is_retryable(), "reset must stay retryable, got {e}");
                    failed += 1;
                    assert!(failed < 20, "client never recovered (mux: {})", mux);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        assert!(recorder.counter("net.reconnects").value() >= 1, "serial 0 was not cut");
        let tx = recorder.counter("net.bytes_tx").value();
        assert!(
            tx < N * 8192 / 4,
            "client (mux: {}) stopped compressing after one reset: {} bytes for {} echoes",
            mux,
            tx,
            N
        );
        drop(echo);
        proxy.shutdown();
        server.shutdown();
    }
}

/// Deferred (pipelined) calls interleave with synchronous ones on both
/// stacks: acks drain before the next request, results stay correct,
/// and a typed service error in a dropped ack is counted, not raised.
#[test]
fn deferred_calls_pipeline_across_stacks() {
    for transport in [Transport::Blocking, Transport::Reactor] {
        let (server, recorder) = spawn_on(transport);
        let mut client = RpcClient::connect("interop", server.addr(), &recorder).unwrap();
        client.set_method_names(method_names);
        for i in 0..5u8 {
            client.call_deferred(ECHO, &[i], Some(Duration::from_secs(5))).unwrap();
            // The drained ack must belong to the deferred request, not
            // bleed into this call's response.
            assert_eq!(
                client.call(ECHO, &[100 + i], Some(Duration::from_secs(5))).unwrap(),
                vec![100 + i]
            );
        }
        // A failing deferred call: the typed error is dropped on drain
        // and counted; the next call is unaffected.
        client.call_deferred(FAIL, b"", Some(Duration::from_secs(5))).unwrap();
        assert_eq!(client.call(ECHO, b"after", Some(Duration::from_secs(5))).unwrap(), b"after");
        assert_eq!(
            recorder.counter("net.deferred_dropped_errors").value(),
            1,
            "dropped typed error must be counted ({:?})",
            transport
        );
        server.shutdown();
    }
}

/// Prefetched calls return their own response on both stacks: a sync
/// call issued while a prefetch is outstanding resolves and stashes
/// the prefetched response instead of stealing it, and a typed error
/// surfaces from collection — not from an unrelated call.
#[test]
fn prefetched_calls_pipeline_across_stacks() {
    for transport in [Transport::Blocking, Transport::Reactor] {
        let (server, recorder) = spawn_on(transport);
        let mut client = RpcClient::connect("interop", server.addr(), &recorder).unwrap();
        client.set_method_names(method_names);
        // Plain prefetch → collect round trips.
        for i in 0..5u8 {
            client.call_prefetch(ECHO, &[i], Some(Duration::from_secs(5))).unwrap();
            assert_eq!(client.take_prefetched().unwrap(), vec![i], "{:?}", transport);
        }
        // A sync call between prefetch and collection must not steal
        // the prefetched response.
        client.call_prefetch(ECHO, b"stashed", Some(Duration::from_secs(5))).unwrap();
        assert_eq!(client.call(ECHO, b"sync", Some(Duration::from_secs(5))).unwrap(), b"sync");
        assert_eq!(client.take_prefetched().unwrap(), b"stashed");
        // Double prefetch is a caller bug.
        client.call_prefetch(ECHO, b"one", Some(Duration::from_secs(5))).unwrap();
        let err = client.call_prefetch(ECHO, b"two", Some(Duration::from_secs(5))).unwrap_err();
        assert!(matches!(err, RlError::Protocol(_)), "got {err}");
        assert_eq!(client.take_prefetched().unwrap(), b"one");
        // A typed service error surfaces from collection, stream kept.
        client.call_prefetch(FAIL, b"", Some(Duration::from_secs(5))).unwrap();
        let err = client.take_prefetched().unwrap_err();
        assert!(matches!(err, RlError::MailboxFull { capacity: 3 }), "got {err}");
        assert_eq!(client.call(ECHO, b"after", Some(Duration::from_secs(5))).unwrap(), b"after");
        // Collecting with nothing outstanding is a caller bug.
        assert!(matches!(client.take_prefetched(), Err(RlError::Protocol(_))));
        server.shutdown();
    }
}

/// Counts dispatches, so a test can assert a rejected frame never
/// reached the service.
struct CountingService(Arc<AtomicUsize>);

impl RpcService for CountingService {
    fn call(&self, _method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(body.to_vec())
    }

    fn method_name(&self, _method: u16) -> &'static str {
        "count"
    }
}

/// The version word is checked, never negotiated: a frame with the
/// previous base version, or with a flag bit this build does not
/// define, is a typed protocol error in both decoders and makes both
/// servers close the connection without dispatching.
#[test]
fn foreign_version_words_are_rejected_everywhere() {
    use rlgraph_net::frame::{encode_frame, read_frame, FrameDecoder, FrameKind, VERSION};
    use std::io::{Read, Write};

    // [req_id u64][method u16][body]
    let mut request = 7u64.to_le_bytes().to_vec();
    request.extend_from_slice(&ECHO.to_le_bytes());
    request.extend_from_slice(b"body");
    let good = encode_frame(FrameKind::Request, &request).unwrap();
    let cases: [(&str, usize, u8, &str); 2] = [
        ("old base version", 4, VERSION - 1, "version"),
        ("unknown flag bit", 5, 0x80, "wire flags"),
    ];
    for (what, byte, value, needle) in cases {
        let mut bad = good.clone();
        bad[byte] = value;

        let err = read_frame(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains(needle)), "{what}: {err}");
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bad);
        let err = decoder.next().unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains(needle)), "{what}: {err}");

        for transport in [Transport::Blocking, Transport::Reactor] {
            let dispatched = Arc::new(AtomicUsize::new(0));
            let service = Arc::new(CountingService(dispatched.clone()));
            let server = transport.spawn("strict", service, Recorder::disabled()).unwrap();
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            stream.write_all(&bad).unwrap();
            // The server answers nothing and closes: EOF (or a reset),
            // never a response frame.
            let mut reply = Vec::new();
            match stream.read_to_end(&mut reply) {
                Ok(_) => assert!(reply.is_empty(), "{what}: {transport:?} answered {reply:?}"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{what}"),
            }
            server.shutdown();
            assert_eq!(
                dispatched.load(Ordering::SeqCst),
                0,
                "{what}: {transport:?} dispatched a rejected frame"
            );
        }
    }
}
