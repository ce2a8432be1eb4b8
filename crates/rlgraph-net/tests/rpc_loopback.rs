//! Loopback RPC tests: deadlines, typed error propagation, retry,
//! reconnect, frame compression and the strict version word
//! — all over real TCP sockets on 127.0.0.1.

use rlgraph_core::{RlError, Severity};
use rlgraph_dist::retry::{RetryPolicy, ThreadSleeper};
use rlgraph_net::{
    read_frame, write_frame, FaultProxy, FaultProxyConfig, FrameKind, RpcClient, RpcServer,
    RpcService,
};
use rlgraph_obs::{DumpKind, Recorder};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const ECHO: u16 = 1;
const BLOCK: u16 = 2;
const FAIL_RETRYABLE: u16 = 3;
const FLAKY: u16 = 4;
const HUGE: u16 = 5;

/// How long a `BLOCK` call waits for its release before it replies
/// anyway: long enough that only a broken deadline sees the reply.
const BLOCK_CAP: Duration = Duration::from_secs(60);

struct TestService {
    flaky_calls: AtomicU32,
    /// released by the test; `BLOCK` calls wait on it
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl TestService {
    fn new() -> Self {
        TestService {
            flaky_calls: AtomicU32::new(0),
            gate: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }
}

impl RpcService for TestService {
    fn call(&self, method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        match method {
            ECHO => Ok(body.to_vec()),
            BLOCK => {
                let (released, cv) = &*self.gate;
                let guard = released.lock().unwrap();
                drop(cv.wait_timeout_while(guard, BLOCK_CAP, |r| !*r).unwrap());
                Ok(body.to_vec())
            }
            FAIL_RETRYABLE => Err(RlError::MailboxFull { capacity: 7 }),
            FLAKY => {
                // Fails twice, then succeeds — exercises a retried call.
                if self.flaky_calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(RlError::MailboxFull { capacity: 3 })
                } else {
                    Ok(b"ok".to_vec())
                }
            }
            // A reply one byte too large for any frame.
            HUGE => Ok(vec![0u8; rlgraph_net::MAX_FRAME_LEN as usize + 1]),
            other => Err(RlError::Protocol(format!("unknown method {}", other))),
        }
    }
}

fn spawn_server() -> (RpcServer, Recorder) {
    let (server, recorder, _) = spawn_gated_server();
    (server, recorder)
}

/// A server whose `BLOCK` calls wait until the returned gate is released.
fn spawn_gated_server() -> (RpcServer, Recorder, Arc<(Mutex<bool>, Condvar)>) {
    let recorder = Recorder::wall();
    let service = TestService::new();
    let gate = Arc::clone(&service.gate);
    let server =
        RpcServer::spawn("test", Arc::new(service), recorder.clone()).expect("bind loopback");
    (server, recorder, gate)
}

#[test]
fn echo_roundtrip_and_metrics() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    for i in 0..10u8 {
        let reply = client.call(ECHO, &[i, i + 1], None).unwrap();
        assert_eq!(reply, vec![i, i + 1]);
    }
    assert!(recorder.counter("net.bytes_tx").value() > 0);
    assert!(recorder.counter("net.bytes_rx").value() > 0);
    assert_eq!(recorder.counter("net.reconnects").value(), 0);
    assert!(recorder.histogram("net.rpc_us").count() >= 10);
    server.shutdown();
}

#[test]
fn deadline_expiry_is_typed_and_client_recovers() {
    let (server, recorder, gate) = spawn_gated_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    // The server holds the call until the gate opens, and the gate opens
    // only after the call has returned: the 50 ms deadline alone must end
    // the wait. A broken deadline waits out `BLOCK_CAP`, gets the reply,
    // and fails below instead of hanging.
    let err = client.call(BLOCK, b"held", Some(Duration::from_millis(50))).unwrap_err();
    assert!(matches!(err, RlError::DeadlineExpired { .. }), "expected DeadlineExpired, got {err}");
    assert_eq!(err.severity(), Severity::Retryable);
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    // The timed-out stream is untrusted and was dropped; the next call
    // transparently reconnects and succeeds.
    let reply = client.call(ECHO, b"after", None).unwrap();
    assert_eq!(reply, b"after");
    assert_eq!(recorder.counter("net.reconnects").value(), 1);
    server.shutdown();
}

#[test]
fn remote_errors_keep_their_type_and_severity() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    let err = client.call(FAIL_RETRYABLE, &[], None).unwrap_err();
    assert!(matches!(err, RlError::MailboxFull { capacity: 7 }), "got {err}");
    assert!(err.is_retryable());
    // A service-level error does not poison the connection.
    assert_eq!(client.call(ECHO, b"x", None).unwrap(), b"x");
    assert_eq!(recorder.counter("net.reconnects").value(), 0);
    server.shutdown();
}

/// A call under a `RetryPolicy`, the way a worker joins the
/// coordinator: retryable service errors are re-issued on the same
/// connection until the call succeeds.
#[test]
fn retry_policy_rides_out_retryable_failures() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        multiplier: 2.0,
        deadline: None,
    };
    let mut last_attempt = 0;
    let reply = policy
        .run(&ThreadSleeper::new(), |attempt| {
            last_attempt = attempt;
            client.call(FLAKY, &[], None)
        })
        .unwrap();
    assert_eq!(reply, b"ok");
    assert_eq!(last_attempt, 2, "two failures, then the third attempt succeeds");
    // A typed service error does not poison the connection.
    assert_eq!(recorder.counter("net.reconnects").value(), 0);
    server.shutdown();
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    let (server, recorder) = spawn_server();
    let addr = server.addr();
    let mut handles = Vec::new();
    for t in 0..4u8 {
        let recorder = recorder.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = RpcClient::connect("test", addr, &recorder).unwrap();
            for i in 0..25u8 {
                let body = [t, i];
                assert_eq!(client.call(ECHO, &body, None).unwrap(), body);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// Zero-cost-when-disabled, asserted at the byte level: with a disabled
/// recorder the client emits plain `Request` frames whose payload is
/// exactly `req_id + method + body` — not one byte of trace context.
#[test]
fn disabled_recorder_sends_untraced_frames() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let body = b"payload".to_vec();
    let expect_len = 8 + 2 + body.len(); // req_id u64 + method u16 + body
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, payload) = read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Request, "tracing off must not change the frame kind");
        assert_eq!(payload.len(), expect_len, "tracing off must add zero payload bytes");
        // Minimal valid response: echo req_id, status 0, empty body.
        let mut resp = payload[..8].to_vec();
        resp.push(0);
        write_frame(&mut stream, FrameKind::Response, &resp).unwrap();
    });
    let recorder = Recorder::disabled();
    let mut client = RpcClient::connect("raw", addr, &recorder).unwrap();
    client.call(ECHO, &body, Some(Duration::from_secs(5))).unwrap();
    server.join().unwrap();
}

/// With tracing on, the client's call span and the server's handler
/// span share a flow id, so the merged trace can stitch the RPC edge
/// across processes.
#[test]
fn traced_calls_link_client_and_server_spans() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    client.call(ECHO, b"traced", None).unwrap();
    server.shutdown();
    let dump = recorder.trace_dump();
    let call = dump
        .events
        .iter()
        .find(|e| {
            e.name.starts_with("rpc.") && !e.name.starts_with("rpc.serve.") && e.flow_out != 0
        })
        .expect("client call span with a flow out-edge");
    let handler = dump
        .events
        .iter()
        .find(|e| e.name.starts_with("rpc.serve.") && e.flow_in == call.flow_out)
        .expect("server handler span linked to the client span");
    assert!(matches!(handler.kind, DumpKind::Complete { .. }));
}

#[test]
fn calls_against_a_dead_server_fail_fast() {
    let (server, recorder) = spawn_server();
    let addr = server.addr();
    let mut client = RpcClient::connect("test", addr, &recorder).unwrap();
    assert_eq!(client.call(ECHO, b"up", None).unwrap(), b"up");
    server.shutdown();
    // The connection died with the server: the next call errors (reset /
    // EOF normalized to a retryable "connection died" class), and a
    // reconnect attempt against the closed port fails fatally.
    let err = client.call(ECHO, b"down", Some(Duration::from_millis(500))).unwrap_err();
    assert!(matches!(err, RlError::Io { .. } | RlError::DeadlineExpired { .. }), "got {err}");
    let err2 = client.call(ECHO, b"still down", Some(Duration::from_millis(500))).unwrap_err();
    assert!(matches!(err2, RlError::Io { .. } | RlError::DeadlineExpired { .. }), "got {err2}");
}

/// The reply that cannot be framed: the caller gets the typed
/// frame-limit error (fatal, so a `RetryPolicy` does not go round again
/// for a reply that can never fit) on a connection that stays up.
#[test]
fn oversized_reply_is_a_typed_fatal_error_on_a_live_connection() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    assert_eq!(
        client.call(ECHO, b"same wire", Some(Duration::from_secs(5))).unwrap(),
        b"same wire"
    );
    let err = client.call(HUGE, b"", Some(Duration::from_secs(30))).unwrap_err();
    assert!(
        matches!(err, RlError::Protocol(ref m) if m.contains("limit")) && err.is_fatal(),
        "oversized reply must surface as the frame-limit error, got {err}"
    );
    assert_eq!(client.call(ECHO, b"still-alive", None).unwrap(), b"still-alive");
    assert_eq!(recorder.counter("net.reconnects").value(), 0, "the server dropped us");
    server.shutdown();
}

/// 8 KiB of one byte: LZ collapses it to a few dozen.
static COMPRESSIBLE: [u8; 8192] = [0x42; 8192];

/// Frame compression from the very first request: large compressible
/// payloads ship LZ-compressed in both directions, and the decoded bytes
/// are intact.
#[test]
fn compression_in_both_directions_from_the_first_request() {
    let (server, recorder) = spawn_server();
    let mut client = RpcClient::connect("test", server.addr(), &recorder).unwrap();
    for _ in 0..3 {
        assert_eq!(
            client.call(ECHO, &COMPRESSIBLE, Some(Duration::from_secs(5))).unwrap(),
            COMPRESSIBLE
        );
    }
    drop(client);
    server.shutdown();
    // 3 requests + 3 responses share the recorder; plain would meter
    // ≥ 6 × 8 KiB, and a single plain frame already ≥ 8 KiB.
    let tx = recorder.counter("net.bytes_tx").value();
    assert!(tx < 8192, "a frame shipped uncompressed: {} bytes on the wire", tx);
}

/// One reset must not change the wire dialect: a client whose *first*
/// exchange on a connection dies (the fault proxy refuses connection
/// serial 0) reconnects and still compresses.
#[test]
fn compression_survives_a_reset_first_exchange() {
    const N: u64 = 4;
    let (server, _) = spawn_server();
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultProxyConfig { cut_connections: vec![0], ..FaultProxyConfig::default() },
        Recorder::disabled(),
    )
    .unwrap();
    // The client's own recorder: only its requests are metered.
    let recorder = Recorder::wall();
    let mut client = RpcClient::connect("test", proxy.addr(), &recorder).unwrap();
    let (mut ok, mut failed) = (0, 0);
    while ok < N {
        match client.call(ECHO, &COMPRESSIBLE, Some(Duration::from_secs(5))) {
            Ok(body) => {
                assert_eq!(body, COMPRESSIBLE);
                ok += 1;
            }
            Err(e) => {
                assert!(e.is_retryable(), "reset must stay retryable, got {e}");
                failed += 1;
                assert!(failed < 20, "client never recovered");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert!(recorder.counter("net.reconnects").value() >= 1, "serial 0 was not cut");
    let tx = recorder.counter("net.bytes_tx").value();
    assert!(
        tx < N * 8192 / 4,
        "client stopped compressing after one reset: {} bytes for {} echoes",
        tx,
        N
    );
    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// Counts dispatches, so a test can assert a rejected frame never
/// reached the service.
struct CountingService(Arc<AtomicUsize>);

impl RpcService for CountingService {
    fn call(&self, _method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(body.to_vec())
    }
}

/// The version word is checked, never negotiated, and the frame kind is
/// one of the three this build defines: a frame with the previous base
/// version, a flag bit this build does not define, or an unknown kind
/// (4 and 5 were a retired heartbeat extension) is a typed protocol
/// error in both decoders and makes the server close the connection
/// without dispatching.
#[test]
fn foreign_version_words_are_rejected_everywhere() {
    use rlgraph_net::frame::{encode_frame, FrameDecoder, VERSION};
    use std::io::{Read, Write};

    // [req_id u64][method u16][body]
    let mut request = 7u64.to_le_bytes().to_vec();
    request.extend_from_slice(&ECHO.to_le_bytes());
    request.extend_from_slice(b"body");
    let good = encode_frame(FrameKind::Request, &request).unwrap();
    let cases: [(&str, usize, u8, &str); 4] = [
        ("old base version", 4, VERSION - 1, "version"),
        ("unknown flag bit", 5, 0x80, "wire flags"),
        ("frame kind 4", 6, 4, "frame kind 4"),
        ("frame kind 5", 6, 5, "frame kind 5"),
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

        let dispatched = Arc::new(AtomicUsize::new(0));
        let service = Arc::new(CountingService(dispatched.clone()));
        let server = RpcServer::spawn("strict", service, Recorder::disabled()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&bad).unwrap();
        // The server answers nothing and closes: EOF (or a reset), never
        // a response frame.
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => assert!(reply.is_empty(), "{what}: the server answered {reply:?}"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{what}"),
        }
        server.shutdown();
        assert_eq!(dispatched.load(Ordering::SeqCst), 0, "{what}: dispatched a rejected frame");
    }
}
