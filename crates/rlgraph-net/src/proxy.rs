//! Deterministic network-fault injection: a TCP proxy that delays,
//! drops, or partitions traffic on its way to an upstream server.
//!
//! # Determinism contract
//!
//! All fault decisions are **pure coordinate-hashed draws** in the same
//! SplitMix64 style as `rlgraph_dist::fault`: a draw is a function of
//! `(seed, direction, connection serial, chunk index)` and nothing
//! else — no RNG state, no wall clock. Two proxies with equal configs
//! fault the same coordinates regardless of thread scheduling. The
//! *coordinate grid itself* is where nondeterminism can enter: chunk
//! boundaries follow TCP segmentation, so the mapping from payload byte
//! to chunk index depends on timing. The contract is therefore: **the
//! fault pattern over (connection, direction, chunk) coordinates is
//! deterministic**; tests assert on draws and on observed fault counts
//! under single-frame exchanges (where chunking is 1:1 with frames).
//!
//! A *drop* severs both directions of the connection — the client sees
//! a reset/EOF, exercising the RPC client's reconnect path. A *cut*
//! of connection serial `n` (scheduled partition) refuses to carry it
//! at all, simulating a partition that heals when the config says so.

use rlgraph_core::RlResult;
use rlgraph_dist::fault::splitmix64;
use rlgraph_obs::Recorder;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Direction of a pumped chunk, part of the draw coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// client → upstream
    Up,
    /// upstream → client
    Down,
}

impl Direction {
    fn tag(self) -> u64 {
        match self {
            Direction::Up => 0x9E37_79B9_0000_0011,
            Direction::Down => 0x9E37_79B9_0000_0012,
        }
    }
}

/// Fault rates and schedule of one proxy.
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// seed of every draw
    pub seed: u64,
    /// per-chunk probability of an injected delay
    pub delay_rate: f64,
    /// how long an injected delay lasts
    pub delay: Duration,
    /// per-chunk probability of severing the connection
    pub drop_rate: f64,
    /// connection serials refused outright (scheduled partitions)
    pub cut_connections: Vec<u64>,
}

impl Default for FaultProxyConfig {
    fn default() -> Self {
        FaultProxyConfig {
            seed: 0,
            delay_rate: 0.0,
            delay: Duration::from_millis(5),
            drop_rate: 0.0,
            cut_connections: Vec::new(),
        }
    }
}

impl FaultProxyConfig {
    /// The deterministic draw: inject a fault with probability `rate`
    /// at coordinate `(direction, connection, chunk)`?
    ///
    /// Pure in all arguments — safe from any thread in any order.
    pub fn draw(&self, rate: f64, dir: Direction, conn: u64, chunk: u64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ dir.tag() ^ conn.wrapping_mul(0xD129_0E40_5936_1FF5));
        let h = splitmix64(h ^ chunk.wrapping_mul(0xA076_1D64_78BD_642F));
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < rate
    }
}

/// A running fault proxy in front of one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    drops: rlgraph_obs::Counter,
    delays: rlgraph_obs::Counter,
}

impl FaultProxy {
    /// Binds `127.0.0.1:0` and forwards every accepted connection to
    /// `upstream`, applying the config's faults.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the listener cannot bind.
    pub fn spawn(
        upstream: SocketAddr,
        config: FaultProxyConfig,
        recorder: Recorder,
    ) -> RlResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let drops = recorder.counter("net.proxy.drops");
        let delays = recorder.counter("net.proxy.delays");
        let accept_stop = stop.clone();
        let (d1, d2) = (drops.clone(), delays.clone());
        let accept_handle = std::thread::Builder::new()
            .name("fault-proxy".to_string())
            .spawn(move || proxy_accept_loop(listener, upstream, config, accept_stop, d1, d2))
            .expect("spawn proxy thread");
        Ok(FaultProxy { addr, stop, accept_handle: Some(accept_handle), drops, delays })
    }

    /// The address clients dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections severed by drop draws so far.
    pub fn drops(&self) -> u64 {
        self.drops.value()
    }

    /// Chunks delayed so far.
    pub fn delays(&self) -> u64 {
        self.delays.value()
    }

    /// Stops accepting and tears down the pump threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn proxy_accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    config: FaultProxyConfig,
    stop: Arc<AtomicBool>,
    drops: rlgraph_obs::Counter,
    delays: rlgraph_obs::Counter,
) {
    let conn_serial = AtomicU64::new(0);
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((client, _)) => {
                let conn = conn_serial.fetch_add(1, Ordering::Relaxed);
                if config.cut_connections.contains(&conn) {
                    drops.inc();
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))
                else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                for dir in [Direction::Up, Direction::Down] {
                    let (from, to) = match dir {
                        Direction::Up => (client.try_clone(), server.try_clone()),
                        Direction::Down => (server.try_clone(), client.try_clone()),
                    };
                    let (Ok(from), Ok(to)) = (from, to) else { continue };
                    let config = config.clone();
                    let stop = stop.clone();
                    let (drops, delays) = (drops.clone(), delays.clone());
                    let pump = std::thread::Builder::new()
                        .name("proxy-pump".to_string())
                        .spawn(move || pump_loop(from, to, dir, conn, config, stop, drops, delays))
                        .expect("spawn pump thread");
                    pumps.push(pump);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        pumps.retain(|p| !p.is_finished());
    }
    for p in pumps {
        let _ = p.join();
    }
}

#[allow(clippy::too_many_arguments)]
fn pump_loop(
    from: TcpStream,
    to: TcpStream,
    dir: Direction,
    conn: u64,
    config: FaultProxyConfig,
    stop: Arc<AtomicBool>,
    drops: rlgraph_obs::Counter,
    delays: rlgraph_obs::Counter,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut from = from;
    let mut to = to;
    let mut buf = [0u8; 16 * 1024];
    let mut chunk = 0u64;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break, // peer closed: propagate EOF
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        if config.draw(config.drop_rate, dir, conn, chunk) {
            drops.inc();
            break; // sever: both ends see the teardown below
        }
        if config.draw(config.delay_rate, dir, conn, chunk) {
            delays.inc();
            std::thread::sleep(config.delay);
        }
        chunk += 1;
        if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
            break;
        }
    }
    // Tear down both sockets so the opposite pump (and both peers)
    // unblock promptly instead of waiting out their timeouts.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
