//! The c10k benchmark: serve 10k connections, not 10k threads.
//!
//! Two processes. The parent re-execs itself as a **server child**
//! (`RLGRAPH_C10K_ROLE`) hosting one echo service on either stack —
//! the blocking thread-per-connection server or the epoll reactor —
//! under a hard `RLIMIT_AS` budget (startup VM size + a fixed headroom
//! that comfortably fits ~1k thread stacks but nowhere near 10k). The
//! parent then opens 100 / 1k / 10k client connections, verifies each
//! with one echo round-trip, parks them all idle, and measures:
//!
//! - **held** — connections that survived verification. The blocking
//!   stack dies by thread-stack address space at the 10k level (its
//!   accept loop degrades gracefully, dropping peers it cannot staff);
//!   the reactor holds all 10k in the same budget.
//! - **ping p50/p99** — echo latency on a fresh connection while the
//!   idle herd is parked, reactor vs blocking.
//! - **memory per idle connection** — server RSS delta across the herd,
//!   fetched over a `MEM` RPC from the child itself.
//!
//! Writes `BENCH_c10k.json` at the repo root. `--smoke` caps the herd
//! at 256 connections and writes nothing — tier-1 uses it as a
//! does-it-run gate for the re-exec + reactor + rlimit path.

use rlgraph_core::{RlError, RlResult};
use rlgraph_net::frame::{read_frame, FrameKind};
use rlgraph_net::rpc::{RpcServer, RpcServerConfig, RpcService};
use rlgraph_net::wire::{ByteReader, ByteWriter};
use rlgraph_obs::Recorder;
use rlgraph_reactor::call::{decode_response, encode_request};
use rlgraph_reactor::mux::{MuxServer, MuxServerConfig};
use rlgraph_reactor::sys;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ECHO: u16 = 1;
const MEM: u16 = 2;

/// Address-space headroom granted to the server child on top of its
/// startup VM size: fits ~2k blocking connection threads (2MiB stack
/// address space each), nowhere near 10k — while the reactor's
/// per-connection cost (a few KiB of buffers) never comes close.
const AS_HEADROOM_BYTES: u64 = 4 << 30;

const ROLE_ENV: &str = "RLGRAPH_C10K_ROLE";

struct PingService;

impl RpcService for PingService {
    fn call(&self, method: u16, body: &[u8]) -> RlResult<Vec<u8>> {
        match method {
            ECHO => Ok(body.to_vec()),
            MEM => {
                let mut w = ByteWriter::with_capacity(16);
                w.put_u64(sys::vm_size_bytes());
                w.put_u64(sys::vm_rss_bytes());
                Ok(w.into_bytes())
            }
            other => Err(RlError::Protocol(format!("unknown method {}", other))),
        }
    }

    fn method_name(&self, method: u16) -> &'static str {
        match method {
            ECHO => "echo",
            MEM => "mem",
            _ => "other",
        }
    }
}

/// Server-child entry: bind on the requested stack under the rlimits,
/// print the address, serve until stdin closes (parent hung up).
fn run_server_child(role: &str) -> ! {
    let _ = sys::raise_nofile_limit();
    let base = sys::vm_size_bytes();
    if base > 0 {
        let _ = sys::set_address_space_limit(base + AS_HEADROOM_BYTES);
    }
    let service = Arc::new(PingService);
    let recorder = Recorder::disabled();
    // Idle reaping stays off: the whole point is parking idle herds.
    enum Server {
        Blocking(RpcServer),
        Reactor(MuxServer),
    }
    let server = match role {
        "blocking" => Server::Blocking(
            RpcServer::spawn_with(
                "c10k",
                service,
                recorder,
                RpcServerConfig { idle_timeout: None },
            )
            .expect("spawn blocking server"),
        ),
        "reactor" => Server::Reactor(
            MuxServer::spawn_with(
                "c10k",
                service,
                recorder,
                MuxServerConfig { idle_timeout: None, ..MuxServerConfig::default() },
            )
            .expect("spawn reactor server"),
        ),
        other => panic!("unknown c10k role {other}"),
    };
    let addr = match &server {
        Server::Blocking(s) => s.addr(),
        Server::Reactor(s) => s.addr(),
    };
    println!("ADDR {addr}");
    std::io::stdout().flush().expect("flush addr");
    // Park until the parent closes our stdin, then exit without
    // waiting on shutdown joins (the herd teardown is the parent's).
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    std::process::exit(0);
}

/// One request/response round-trip on a raw socket, speaking the exact
/// client wire format both stacks serve.
fn roundtrip(stream: &TcpStream, req_id: u64, method: u16, body: &[u8]) -> RlResult<Vec<u8>> {
    (&*stream).write_all(&encode_request(None, req_id, method, body, false)?)?;
    let (kind, resp) = read_frame(&mut &*stream)?;
    if kind != FrameKind::Response {
        return Err(RlError::Protocol(format!("unexpected {kind:?} frame")));
    }
    let (got_id, reply) = decode_response(&resp)?;
    if got_id != req_id {
        return Err(RlError::Protocol(format!("response id {got_id} != {req_id}")));
    }
    reply
}

fn server_mem(stream: &TcpStream, req_id: u64) -> Option<(u64, u64)> {
    let body = roundtrip(stream, req_id, MEM, b"").ok()?;
    let mut r = ByteReader::new(&body);
    Some((r.get_u64().ok()?, r.get_u64().ok()?))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

struct Scenario {
    transport: &'static str,
    conns: usize,
    held: usize,
    rss_before: u64,
    rss_after: u64,
    rss_per_conn: f64,
    ping_p50_us: f64,
    ping_p99_us: f64,
}

fn run_scenario(transport: &'static str, conns: usize, pings: usize) -> Scenario {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .env(ROLE_ENV, transport)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let mut out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("read child addr");
    let addr: std::net::SocketAddr =
        line.trim().strip_prefix("ADDR ").expect("ADDR line").parse().expect("parse child addr");

    let connect = |id: u64| -> RlResult<TcpStream> {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        s.set_nodelay(true)?;
        // A server that cannot staff the connection drops it; surface
        // that as a failed verification instead of hanging forever.
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        roundtrip(&s, id, ECHO, b"hello")?;
        Ok(s)
    };

    // Probe connection #0 doubles as the memstats channel — it is
    // staffed early, so it stays serviceable even once the blocking
    // stack stops being able to staff new peers.
    let probe = connect(0).expect("probe connection");
    let (_, rss_before) = server_mem(&probe, 1).unwrap_or((0, 0));

    // The herd: sequential connect + verify paces the accept backlog
    // naturally (each verification requires the server to have staffed
    // the previous socket's frames).
    let mut herd = Vec::with_capacity(conns);
    let mut held = 0usize;
    for i in 0..conns {
        if let Ok(s) = connect(1000 + i as u64) {
            held += 1;
            herd.push(s);
        }
    }
    let (_, rss_after) = server_mem(&probe, 2).unwrap_or((0, 0));

    // Latency with the idle herd parked: a fresh connection if the
    // server can still staff one, else the probe (reactor and healthy
    // blocking levels always staff fresh ones).
    let ping_conn = connect(500_000).ok();
    let ping_stream = ping_conn.as_ref().unwrap_or(&probe);
    let mut lat = Vec::with_capacity(pings);
    for i in 0..pings {
        let t0 = Instant::now();
        if roundtrip(ping_stream, 600_000 + i as u64, ECHO, b"ping").is_err() {
            break;
        }
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&lat, 50.0), percentile(&lat, 99.0));

    drop(herd);
    drop(probe);
    drop(child.stdin.take()); // hang up: the child exits
    let reap = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            _ if reap.elapsed() > Duration::from_secs(10) => {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    let rss_per_conn = if held > 0 && rss_after > rss_before {
        (rss_after - rss_before) as f64 / held as f64
    } else {
        0.0
    };
    Scenario {
        transport,
        conns,
        held,
        rss_before,
        rss_after,
        rss_per_conn,
        ping_p50_us: p50,
        ping_p99_us: p99,
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    if let Ok(role) = std::env::var(ROLE_ENV) {
        run_server_child(&role);
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let _ = sys::raise_nofile_limit();
    let levels: &[usize] = if smoke { &[100, 256] } else { &[100, 1000, 10_000] };
    let pings = if smoke { 100 } else { 300 };

    let mut scenarios = Vec::new();
    for &transport in &["reactor", "blocking"] {
        for &conns in levels {
            let t0 = Instant::now();
            let s = run_scenario(transport, conns, pings);
            println!(
                "{:>8} @ {:>6}: held {:>6}, ping p50 {:>8} p99 {:>8}, rss/conn {:>9} ({:.1}s)",
                s.transport,
                s.conns,
                s.held,
                format!("{:.0}us", s.ping_p50_us),
                format!("{:.0}us", s.ping_p99_us),
                format!("{:.0}B", s.rss_per_conn),
                t0.elapsed().as_secs_f64()
            );
            scenarios.push(s);
        }
    }

    let find = |t: &str, c: usize| scenarios.iter().find(|s| s.transport == t && s.conns == c);
    let top = *levels.last().expect("levels");
    let reactor_top = find("reactor", top).expect("reactor top scenario");
    let blocking_top = find("blocking", top).expect("blocking top scenario");
    let reactor_100 = find("reactor", 100).expect("reactor@100");
    let blocking_100 = find("blocking", 100).expect("blocking@100");

    // The reactor holds the full herd at every level, smoke included.
    for s in scenarios.iter().filter(|s| s.transport == "reactor") {
        assert_eq!(s.held, s.conns, "reactor dropped connections at the {} level", s.conns);
    }
    // At matched light load the event loop must not cost latency:
    // p99 within 3x of thread-per-connection (loopback noise floor).
    assert!(
        reactor_100.ping_p99_us <= blocking_100.ping_p99_us * 3.0 + 500.0,
        "reactor p99 {}us vs blocking {}us at 100 conns",
        reactor_100.ping_p99_us,
        blocking_100.ping_p99_us
    );
    if !smoke {
        // The headline: 10k idle connections in a fixed memory budget
        // is physically out of reach for thread-per-connection (2MiB of
        // address space per thread stack) and routine for the reactor.
        assert!(
            blocking_top.held < top,
            "blocking held all {top} conns — the AS budget no longer binds"
        );
        println!(
            "c10k: reactor held {}/{}, blocking held {}/{} under the same {}GiB headroom ✓",
            reactor_top.held,
            top,
            blocking_top.held,
            top,
            AS_HEADROOM_BYTES >> 30
        );
    }

    if smoke {
        println!("smoke mode: skipping BENCH_c10k.json");
        return;
    }

    let mut rows = String::new();
    for (i, s) in scenarios.iter().enumerate() {
        rows.push_str(&format!(
            concat!(
                "    {{\"transport\": \"{}\", \"conns\": {}, \"held\": {}, ",
                "\"rss_before_bytes\": {}, \"rss_after_bytes\": {}, \"rss_per_conn_bytes\": {}, ",
                "\"ping_p50_us\": {}, \"ping_p99_us\": {}}}{}\n"
            ),
            s.transport,
            s.conns,
            s.held,
            s.rss_before,
            s.rss_after,
            json_f(s.rss_per_conn),
            json_f(s.ping_p50_us),
            json_f(s.ping_p99_us),
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"as_headroom_bytes\": {},\n",
            "  \"scenarios\": [\n{}  ],\n",
            "  \"summary\": {{\"reactor_holds_10k\": {}, \"blocking_holds_10k\": {}, ",
            "\"reactor_p99_at_100_us\": {}, \"blocking_p99_at_100_us\": {}}}\n",
            "}}\n"
        ),
        AS_HEADROOM_BYTES,
        rows,
        reactor_top.held == top,
        blocking_top.held == top,
        json_f(reactor_100.ping_p99_us),
        json_f(blocking_100.ping_p99_us),
    );
    std::fs::write("BENCH_c10k.json", &json).expect("write BENCH_c10k.json");
    println!("wrote BENCH_c10k.json");
}
