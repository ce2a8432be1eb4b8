//! Worker processes: spec serialization, the re-exec launcher, and the
//! worker main loop.
//!
//! The launcher re-invokes the **current executable** with a JSON
//! [`WorkerSpec`] in the `RLGRAPH_NET_WORKER` environment variable; a
//! cooperating binary calls [`maybe_run_child`] as its very first
//! statement, which hijacks the process into [`run_worker`] and exits
//! before the host program's own logic runs. This is the
//! single-binary-cluster idiom: no separate worker executable to build,
//! install, or version-skew against.
//!
//! Because a worker is (re)constructed in a fresh address space, its
//! spec must carry everything needed to rebuild the actor: the agent
//! config, an [`EnvSpec`] (environments cannot be serialized — their
//! *constructors* can), and the coordinator/shard socket addresses.

use crate::services::{CoordClient, Heartbeat, ShardClient};
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::DqnConfig;
use rlgraph_core::{RlError, RlResult};
use rlgraph_dist::cluster::HashRing;
use rlgraph_dist::fragment::apex_replica;
use rlgraph_dist::retry::{RetryPolicy, ThreadSleeper};
use rlgraph_envs::{CartPole, Env, RandomEnv};
use rlgraph_obs::{DeltaTracker, Recorder, DEFAULT_FLIGHT_CAPACITY};
use std::net::SocketAddr;
use std::time::Duration;

/// Environment variable carrying a child's JSON [`WorkerSpec`].
pub const WORKER_ENV_VAR: &str = "RLGRAPH_NET_WORKER";

/// A serializable environment constructor: which environment to build
/// in a worker process, minus the per-copy seed (assigned at build time
/// from worker and env indices).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum EnvSpec {
    /// `RandomEnv::new(&shape, actions, episode_len, seed)`
    Random {
        /// observation shape
        shape: Vec<usize>,
        /// number of discrete actions
        actions: i64,
        /// steps per episode
        episode_len: u32,
    },
    /// `CartPole::new(seed, max_steps)`
    CartPole {
        /// episode step cap
        max_steps: u32,
    },
}

impl EnvSpec {
    /// Builds one environment copy with the given seed.
    pub fn build(&self, seed: u64) -> Box<dyn Env> {
        match self {
            EnvSpec::Random { shape, actions, episode_len } => {
                Box::new(RandomEnv::new(shape, *actions, *episode_len, seed))
            }
            EnvSpec::CartPole { max_steps } => Box::new(CartPole::new(seed, *max_steps)),
        }
    }
}

/// Everything a worker process needs to reconstruct its actor and join
/// the run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WorkerSpec {
    /// this worker's index
    pub worker: u32,
    /// total workers in the run (fixes the exploration ladder)
    pub num_workers: u32,
    /// agent configuration (exploration is overridden per the ladder)
    pub agent: DqnConfig,
    /// environment constructor
    pub env: EnvSpec,
    /// vectorised environments in this worker
    pub envs_per_worker: u32,
    /// samples per collection task
    pub task_size: u32,
    /// coordinator RPC address, `host:port`
    pub coord_addr: String,
    /// replay-shard RPC addresses, `host:port` each
    pub shard_addrs: Vec<String>,
    /// per-RPC deadline in milliseconds (0 = none)
    pub rpc_deadline_ms: u64,
    /// whether to run with a live recorder: span capture, metric
    /// shipping on heartbeats, clock-offset estimation, and a flight
    /// recorder armed for crash dumps (defaults off so old specs parse)
    #[serde(default)]
    pub telemetry: bool,
    /// ship traffic under the v2 wire codec (DESIGN.md §14) — defaults
    /// off so old specs parse and behave identically
    #[serde(default)]
    pub compression: bool,
    /// the worker's incarnation for membership tracking (DESIGN.md
    /// §16); `0` (the default, so old specs parse) disables membership:
    /// no join/leave, beats not liveness-checked
    #[serde(default)]
    pub generation: u64,
    /// test hook: crash (error out *without* a leave) after completing
    /// this many tasks — simulates a kill for eviction tests where the
    /// worker runs on a thread that cannot receive a real signal
    #[serde(default)]
    pub die_after_tasks: Option<u64>,
    /// pause after each task, in milliseconds (`0` = none): paces
    /// collection to simulate env-latency-bound workers, so fleet
    /// size — not CPU share — sets total inflow on small hosts
    #[serde(default)]
    pub task_throttle_ms: u64,
}

/// If this process was launched as a worker child, runs the worker to
/// completion and **exits the process** (status 0 on a clean stop, 1 on
/// error). Returns quietly when the process is not a child.
///
/// Call this first thing in `main` of any binary that drives
/// [`run_apex_net`](crate::run_apex_net) with process-mode workers.
pub fn maybe_run_child() {
    let Ok(json) = std::env::var(WORKER_ENV_VAR) else { return };
    let spec: WorkerSpec = match serde_json::from_str(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rlgraph-net worker: bad {} spec: {}", WORKER_ENV_VAR, e);
            std::process::exit(1);
        }
    };
    match run_worker(&spec) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("rlgraph-net worker {}: {}", spec.worker, e);
            std::process::exit(1);
        }
    }
}

/// Launches one worker child: the current executable re-invoked with
/// the spec in [`WORKER_ENV_VAR`].
///
/// # Errors
///
/// `RlError::Io` when the executable path cannot be resolved or the
/// child fails to spawn.
pub fn spawn_worker(spec: &WorkerSpec) -> RlResult<std::process::Child> {
    let exe = std::env::current_exe()?;
    let json = serde_json::to_string(spec)
        .map_err(|e| RlError::Protocol(format!("worker spec does not serialize: {}", e)))?;
    let child = std::process::Command::new(exe)
        .env(WORKER_ENV_VAR, json)
        .stdin(std::process::Stdio::null())
        .spawn()?;
    Ok(child)
}

fn parse_addr(s: &str) -> RlResult<SocketAddr> {
    s.parse::<SocketAddr>()
        .map_err(|e| RlError::Protocol(format!("bad socket address {:?}: {}", s, e)))
}

fn connect_retrying<T>(mut connect: impl FnMut() -> RlResult<T>) -> RlResult<T> {
    // Generous because a freshly forked sibling may still be binding:
    // 5 s of sleeps, short at first so a sibling that is already up
    // costs a millisecond, not a tick.
    const BUDGET: Duration = Duration::from_secs(5);
    const MAX_DELAY: Duration = Duration::from_millis(100);
    let mut delay = Duration::from_millis(1);
    let mut slept = Duration::ZERO;
    loop {
        match connect() {
            Ok(t) => return Ok(t),
            Err(e) if slept >= BUDGET => return Err(e),
            Err(_) => {}
        }
        std::thread::sleep(delay);
        slept += delay;
        delay = (delay * 2).min(MAX_DELAY);
    }
}

/// The worker main loop: sync weights from the coordinator, collect,
/// ship trajectories to shards round-robin, heartbeat until told to
/// stop.
///
/// Runs identically inside a child process ([`maybe_run_child`]) and on
/// a plain thread (tests, [`crate::LaunchMode::Thread`]) — either way
/// all traffic crosses real TCP sockets.
///
/// # Errors
///
/// Fatal RPC errors, agent build errors, or retry exhaustion against a
/// persistently unreachable peer.
pub fn run_worker(spec: &WorkerSpec) -> RlResult<()> {
    let recorder = if spec.telemetry {
        let r = Recorder::wall();
        r.enable_flight(DEFAULT_FLIGHT_CAPACITY);
        r
    } else {
        Recorder::disabled()
    };
    let result = run_worker_inner(spec, &recorder);
    if result.is_err() {
        // Post-mortem: the last few thousand spans/notes, to stderr so
        // the parent's reap path can surface them.
        if let Some(dump) = recorder.flight_render("worker error exit") {
            eprintln!("{}", dump);
        }
    }
    result
}

/// The rollout replica `spec` describes: the recipe every Ape-X driver
/// shares, over this worker's env copies. Membership generations count
/// from 1 (0 is a fixed fleet) and incarnations from 0, so a fixed
/// fleet and every first spawn draw the same seed, and an elastic
/// respawn into the slot draws a fresh one.
fn build_replica(spec: &WorkerSpec) -> RlResult<ApexWorker> {
    let envs =
        (0..spec.envs_per_worker).map(|e| spec.env.build((spec.worker * 10 + e) as u64)).collect();
    apex_replica(
        &spec.agent,
        spec.worker as usize,
        spec.num_workers as usize,
        spec.generation.saturating_sub(1),
        envs,
    )
}

fn run_worker_inner(spec: &WorkerSpec, recorder: &Recorder) -> RlResult<()> {
    let deadline = (spec.rpc_deadline_ms > 0).then(|| Duration::from_millis(spec.rpc_deadline_ms));
    let mut coord =
        connect_retrying(|| CoordClient::connect(parse_addr(&spec.coord_addr)?, recorder))?;
    coord.set_deadline(deadline);
    // Compression off is the clients' default `CodecProfile::PLAIN`:
    // exact encodings and no frame-layer LZ.
    if spec.compression {
        coord.set_codec(crate::codec::CodecProfile::COMPRESSED);
    }
    let mut shards = Vec::with_capacity(spec.shard_addrs.len());
    for (i, addr) in spec.shard_addrs.iter().enumerate() {
        let mut c = connect_retrying(|| {
            ShardClient::connect(&format!("shard-{}", i), parse_addr(addr)?, recorder)
        })?;
        c.set_deadline(deadline);
        if spec.compression {
            c.set_codec(crate::codec::CodecProfile::COMPRESSED);
        }
        shards.push(c);
    }

    let mut worker = build_replica(spec)?;

    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(200),
        multiplier: 2.0,
        deadline: None,
    };
    let sleeper = ThreadSleeper::new();
    // Membership (generation > 0): announce this incarnation before the
    // first task. A zombie from an older incarnation dies right here
    // with a typed StaleGeneration instead of polluting the run.
    if spec.generation > 0 {
        policy.run(&sleeper, |_| coord.join(spec.worker, spec.generation))?;
    }
    // Trajectory routing: (worker, task) keys hash onto the shard ring;
    // an unreachable home shard fails over to its ring successors, so
    // one dead shard reroutes only its own arc of the key space.
    let ring = HashRing::with_nodes(spec.shard_addrs.len() as u32);
    let mut seen_version = 0u64;
    let mut task = 0u64;
    // Telemetry: metric deltas piggyback on heartbeats, and each beat's
    // RTT refines the worker's estimate of the coordinator's clock
    // (offset = coord reply time − beat midpoint, min-RTT filtered).
    let mut tracker = DeltaTracker::new();
    let mailbox = recorder.gauge("frag.rollout.mailbox_depth");
    let mut best_rtt = 0u64;
    let mut best_offset = 0i64;
    loop {
        // Weight sync: one cheap poll per task; the coordinator answers
        // with a snapshot only when the hub moved past `seen_version`.
        let snap = policy.run(&sleeper, |_| coord.get_weights(seen_version))?;
        if let Some(snap) = snap {
            worker.agent_mut().set_weights(&snap.weights)?;
            seen_version = snap.version;
        }
        let batch = {
            let _span = recorder.span("worker.collect");
            worker.collect(spec.task_size as usize)?
        };
        recorder.flight_note("worker.task", format!("task {}: {} samples", task, batch.len()));
        let snapshot = if recorder.is_enabled() {
            mailbox.set(batch.len() as f64);
            Some(tracker.delta(&recorder.metrics_snapshot()))
        } else {
            None
        };
        let beat = Heartbeat {
            worker: spec.worker,
            frames: batch.env_frames,
            samples: batch.len() as u64,
            returns: batch.episode_returns.clone(),
            offset_us: best_offset,
            rtt_us: best_rtt,
            snapshot,
            generation: spec.generation,
        };
        let key = ((spec.worker as u64) << 32) | task;
        let mut last_err = None;
        let mut inserted = false;
        for &s in &ring.successors(key, shards.len()) {
            match policy
                .run(&sleeper, |_| shards[s as usize].insert(&batch.transitions, &batch.priorities))
            {
                Ok(()) => {
                    inserted = true;
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if !inserted {
            return Err(last_err.unwrap_or_else(|| RlError::disconnected("replay shards")));
        }
        mailbox.set(0.0);
        // Crash-injection hook: die after the insert, before the beat —
        // the coordinator never hears about this task and must evict us
        // by missed-beat timeout (no LEAVE is sent on this path).
        if spec.die_after_tasks.is_some_and(|n| task + 1 >= n) {
            return Err(RlError::ActorCrashed {
                actor: format!("worker-{}", spec.worker),
                reason: "die_after_tasks test hook".into(),
            });
        }
        let (reply, t0, t1) = policy.run(&sleeper, |_| {
            let t0 = recorder.now_micros();
            let rep = coord.heartbeat(&beat)?;
            Ok((rep, t0, recorder.now_micros()))
        })?;
        if recorder.is_enabled() && reply.coord_now_us != 0 {
            let rtt = t1.saturating_sub(t0).max(1);
            if best_rtt == 0 || rtt < best_rtt {
                best_rtt = rtt;
                best_offset = reply.coord_now_us as i64 - ((t0 + t1) / 2) as i64;
            }
        }
        if reply.stop || reply.retire {
            if recorder.is_enabled() {
                // Ship the span buffer for the coordinator's merged
                // cluster trace; best-effort — the run is over.
                let _ =
                    coord.push_trace(&format!("worker-{}", spec.worker), &recorder.trace_dump());
            }
            if spec.generation > 0 {
                // Clean departure (stop and retire alike): every
                // collected transition was inserted *before* the beat
                // that delivered this reply, so nothing is stranded.
                let _ = coord.leave(spec.worker);
            }
            return Ok(());
        }
        task += 1;
        if spec.task_throttle_ms > 0 {
            std::thread::sleep(Duration::from_millis(spec.task_throttle_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An elastic respawn (generation 2 at a slot) must not replay its
    /// predecessor's action stream; a fixed fleet (generation 0) and a
    /// first spawn (generation 1) keep the seed they always had.
    #[test]
    fn a_respawned_worker_draws_a_fresh_agent_seed() {
        let agent = DqnConfig { seed: 11, ..DqnConfig::default() };
        let seed_at = |generation: u64| {
            let spec = WorkerSpec {
                worker: 3,
                num_workers: 4,
                agent: agent.clone(),
                env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
                envs_per_worker: 2,
                task_size: 8,
                coord_addr: String::new(),
                shard_addrs: Vec::new(),
                rpc_deadline_ms: 0,
                telemetry: false,
                compression: false,
                generation,
                die_after_tasks: None,
                task_throttle_ms: 0,
            };
            build_replica(&spec).unwrap().agent_mut().config().seed
        };
        assert_eq!(seed_at(0), 11 + 3 * 7919);
        assert_eq!(seed_at(1), seed_at(0));
        assert_eq!(seed_at(2), seed_at(0) + 0x9E37_79B9);
        assert_ne!(seed_at(3), seed_at(2));
    }
}
