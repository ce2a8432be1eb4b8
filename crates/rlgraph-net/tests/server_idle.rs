//! The blocking server must *sleep* when idle, not spin: its stop-flag
//! accept/read loops wait in `poll(2)` with real timeouts. These tests
//! pin that down by reading the accept thread's own CPU clock, exercise
//! the idle-connection reaper, and check that shutdown wakes the sleepers.

use rlgraph_core::RlError;
use rlgraph_net::rpc::{RpcClient, RpcServer, RpcServerConfig, RpcService};
use rlgraph_obs::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct EchoService;

impl RpcService for EchoService {
    fn call(&self, _method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        Ok(body.to_vec())
    }
}

/// With one idle client attached and no traffic, the accept thread's
/// thread-CPU clock (published as `net.server.accept_cpu_us`) must stay
/// far below wall time — the old 2ms-sleep busy-poll burned CPU every
/// tick; the poll(2) loop wakes ~10×/s and does nothing.
#[test]
fn idle_server_burns_no_cpu() {
    let recorder = Recorder::wall();
    let server = RpcServer::spawn("idlecpu", Arc::new(EchoService), recorder.clone()).unwrap();
    let mut client = RpcClient::connect("idlecpu", server.addr(), &recorder).unwrap();
    client.call(1, b"warm", Some(Duration::from_secs(5))).unwrap();

    // Let CPU-time publication settle past at least one tick, then
    // measure over a full second of idleness.
    std::thread::sleep(Duration::from_millis(200));
    let cpu0 = recorder.gauge("net.server.accept_cpu_us").value();
    std::thread::sleep(Duration::from_secs(1));
    // The gauge updates on the accept thread's next wakeup.
    std::thread::sleep(Duration::from_millis(200));
    let cpu1 = recorder.gauge("net.server.accept_cpu_us").value();

    let burned_us = cpu1 - cpu0;
    assert!(
        burned_us < 50_000.0,
        "idle accept loop burned {burned_us}us CPU over ~1s wall — busy-polling again?"
    );
    server.shutdown();
}

/// Shutdown wakes the sleepers instead of waiting their ticks out: the
/// accept loop through a connection to itself, the handler of an idle
/// open connection through the end of its stream. Sleeping the ticks out
/// took 100–200 ms. The wake is not a peer: `net.server.conns` stays 1.
#[test]
fn shutdown_wakes_accept_loop_and_idle_handlers() {
    let recorder = Recorder::wall();
    let server = RpcServer::spawn("wake", Arc::new(EchoService), recorder.clone()).unwrap();
    let mut client = RpcClient::connect("wake", server.addr(), &recorder).unwrap();
    // after the reply both server threads go back to sleep in poll(2)
    client.call(1, b"warm", Some(Duration::from_secs(5))).unwrap();

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?} — sleeping a tick out?");
    assert_eq!(recorder.counter("net.server.conns").value(), 1);
    // the client finds its connection closed, not hung
    assert!(client.call(1, b"late", Some(Duration::from_secs(2))).is_err());
}

/// Connections quiet past the configured idle timeout are closed and
/// counted; `net.conns.open` rebalances, and the client transparently
/// reconnects on a later call.
#[test]
fn blocking_server_reaps_idle_connections() {
    let recorder = Recorder::wall();
    let config = RpcServerConfig { idle_timeout: Some(Duration::from_millis(150)) };
    let server =
        RpcServer::spawn_with("reap", Arc::new(EchoService), recorder.clone(), config).unwrap();
    let mut client = RpcClient::connect("reap", server.addr(), &recorder).unwrap();
    client.call(1, b"x", Some(Duration::from_secs(5))).unwrap();
    assert_eq!(recorder.gauge("net.conns.open").value(), 1.0);

    let t0 = Instant::now();
    while recorder.counter("net.conns.idle_reaped").value() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "idle connection never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The gauge drops once the connection thread unwinds.
    let t1 = Instant::now();
    while recorder.gauge("net.conns.open").value() > 0.0 {
        assert!(t1.elapsed() < Duration::from_secs(5), "conns.open gauge never rebalanced");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Reconnect-on-next-call: the first call may observe the dead
    // stream; a retry lands on a fresh connection.
    let mut reply = Err(RlError::Shutdown);
    for _ in 0..10 {
        reply = client.call(1, b"back", Some(Duration::from_secs(2)));
        if reply.is_ok() {
            break;
        }
    }
    assert_eq!(reply.unwrap(), b"back");
    assert!(recorder.counter("net.reconnects").value() >= 1);
    server.shutdown();
}

/// An in-flight request slower than the idle timeout must NOT be
/// reaped: the idle clock only runs between frames, and bytes that have
/// started arriving disarm it entirely.
#[test]
fn slow_requests_survive_the_idle_reaper() {
    struct SlowService;
    impl RpcService for SlowService {
        fn call(&self, _m: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
            std::thread::sleep(Duration::from_millis(400));
            Ok(body.to_vec())
        }
    }
    let recorder = Recorder::wall();
    let config = RpcServerConfig { idle_timeout: Some(Duration::from_millis(150)) };
    let server =
        RpcServer::spawn_with("slow", Arc::new(SlowService), recorder.clone(), config).unwrap();
    let mut client = RpcClient::connect("slow", server.addr(), &recorder).unwrap();
    // Handler time (400ms) far exceeds the idle timeout (150ms); the
    // reply must still arrive because the request frame already landed.
    assert_eq!(client.call(1, b"slow", Some(Duration::from_secs(5))).unwrap(), b"slow");
    server.shutdown();
}
