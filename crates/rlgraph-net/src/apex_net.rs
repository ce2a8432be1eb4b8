//! The multi-process Ape-X runtime: real OS processes on localhost,
//! wired together with the crate's RPC layer.
//!
//! Topology (all sockets on 127.0.0.1):
//!
//! ```text
//!   child process per worker ──TCP──▶ shard RPC servers ─┐ (parent)
//!        │  collect / insert                             │ SharedShard
//!        │                          sample / update_priorities (memory)
//!        │                                               ▼
//!        └──TCP──▶ coordinator ◀── WeightHub ◀── learner loop (parent)
//!            get_weights / heartbeat
//! ```
//!
//! The parent hosts the replay shards and the coordinator; workers are
//! launched by re-invoking the current executable ([`crate::proc`]).
//! Only the edges that cross a process pay for the wire: workers insert
//! and poll weights over TCP, while the learner, in the shards' own
//! process, samples and re-prioritizes each [`ShardService::shard`]
//! directly through the [`ApexLearner`] the threaded driver runs. A
//! loopback round-trip to its own shards crosses no process, and on
//! `apex_tcp` it cost a third of each update's CPU (~0.36 of ~1.06 ms;
//! the connection thread serving it was the run's third-largest
//! consumer) and ~40 of the ~48 KB it put on the wire. Weight sync is
//! parameter-server style: the learner publishes into the same
//! [`WeightHub`] the serving stack uses, and workers poll versioned
//! snapshots out through the coordinator.

use crate::proc::{run_worker, spawn_worker, EnvSpec, WorkerSpec};
use crate::rpc::RpcServer;
use crate::services::{CoordClient, CoordService, ShardService, DEFAULT_BEAT_TIMEOUT};
use rlgraph_agents::DqnConfig;
use rlgraph_core::{CoreError, RlResult};
use rlgraph_dist::checkpoint::LearnerCheckpoint;
use rlgraph_dist::fragment::{apex_graph, apex_shard, ApexLearner, ElasticStage};
use rlgraph_dist::sync::WeightHub;
use rlgraph_dist::SharedShard;
use rlgraph_obs::{merged_chrome_trace, DeltaTracker, ProcessTrace, Recorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How workers are hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Real OS processes via [`crate::proc::spawn_worker`]. The driving
    /// binary **must** call [`crate::proc::maybe_run_child`] first thing
    /// in `main`.
    Process,
    /// Threads in this process running the same [`run_worker`] loop
    /// over the same TCP sockets. For tests and harnesses that cannot
    /// safely re-exec themselves.
    Thread,
}

/// Elastic-fleet configuration (DESIGN.md §16): the rollout stage
/// becomes a resizable pool driven by a scripted schedule, with
/// heartbeat-timeout liveness and mid-run worker spawn/retire through
/// the membership plane.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// never retire below this many workers
    pub min_workers: usize,
    /// never spawn above this many workers
    pub max_workers: usize,
    /// scripted scale steps: at `offset` from run start, move the pool
    /// to `target` workers. Steps must be sorted by offset.
    pub schedule: Vec<(Duration, usize)>,
    /// evict a member after this long without a heartbeat
    pub beat_timeout: Duration,
    /// replay-ratio cap: hold the learner when
    /// `updates > samples * ratio`, so update throughput tracks
    /// collection inflow (and therefore worker count) instead of
    /// saturating on stale data
    pub max_updates_per_sample: Option<f64>,
    /// chaos hook: SIGKILL the highest-index live worker at this offset
    /// ([`LaunchMode::Process`] only) — the membership sweep must evict
    /// it and the ring reroutes its keys, with zero lost transitions
    pub chaos_kill: Option<Duration>,
    /// pause each worker after every task: makes workers
    /// env-latency-bound rather than CPU-bound, so collection inflow
    /// scales with fleet size even on single-core hosts
    pub worker_throttle: Option<Duration>,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            min_workers: 1,
            max_workers: 16,
            schedule: Vec::new(),
            beat_timeout: DEFAULT_BEAT_TIMEOUT,
            max_updates_per_sample: None,
            chaos_kill: None,
            worker_throttle: None,
        }
    }
}

/// Configuration of a multi-process Ape-X run.
#[derive(Clone)]
pub struct NetApexConfig {
    /// learner/worker agent configuration
    pub agent: DqnConfig,
    /// environment constructor shipped to workers
    pub env: EnvSpec,
    /// worker count (one OS process each in [`LaunchMode::Process`])
    pub num_workers: usize,
    /// vectorised environments per worker
    pub envs_per_worker: usize,
    /// samples per collection task
    pub task_size: usize,
    /// replay shards (each its own RPC server)
    pub num_shards: usize,
    /// publish weights every k learner updates
    pub weight_sync_interval: u64,
    /// stop after this wall-clock duration
    pub run_duration: Duration,
    /// optional hard cap on learner updates
    pub max_updates: Option<u64>,
    /// per-RPC deadline on worker calls
    pub rpc_deadline: Duration,
    /// worker hosting mode
    pub launch: LaunchMode,
    /// ship replay and weight traffic under
    /// `CodecProfile::COMPRESSED` (f16-quantized tensors, delta weight
    /// sync, columnar trajectories, LZ frame compression — DESIGN.md
    /// §14); off is `CodecProfile::PLAIN`, exact and uncompressed
    pub compression: bool,
    /// elastic fleet: membership tracking, scripted resizing,
    /// heartbeat-timeout eviction (`None` = fixed fleet, membership
    /// off)
    pub elastic: Option<ElasticConfig>,
    /// observability recorder (servers, clients, learner)
    pub recorder: Recorder,
}

impl Default for NetApexConfig {
    fn default() -> Self {
        NetApexConfig {
            agent: DqnConfig::default(),
            env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
            num_workers: 2,
            envs_per_worker: 4,
            task_size: 64,
            num_shards: 2,
            weight_sync_interval: 16,
            run_duration: Duration::from_secs(5),
            max_updates: None,
            rpc_deadline: Duration::from_secs(5),
            launch: LaunchMode::Process,
            compression: false,
            elastic: None,
            recorder: Recorder::disabled(),
        }
    }
}

impl NetApexConfig {
    /// A builder seeded with the defaults, sharing the unified
    /// [`DriverConfigBuilder`](rlgraph_dist::DriverConfigBuilder)
    /// vocabulary with the in-process drivers.
    pub fn builder() -> NetApexConfigBuilder {
        NetApexConfigBuilder { draft: NetApexConfig::default() }
    }
}

/// Builder for [`NetApexConfig`]; validates on
/// [`try_build`](rlgraph_dist::DriverConfigBuilder::try_build). The knobs
/// every driver shares (parallelism, sync cadence, budget, recorder) are
/// set through [`DriverConfigBuilder`](rlgraph_dist::DriverConfigBuilder).
#[derive(Clone, Default)]
pub struct NetApexConfigBuilder {
    draft: NetApexConfig,
}

impl NetApexConfigBuilder {
    /// Learner/worker agent configuration.
    pub fn agent(mut self, agent: DqnConfig) -> Self {
        self.draft.agent = agent;
        self
    }

    /// Environment constructor shipped to workers.
    pub fn env(mut self, env: EnvSpec) -> Self {
        self.draft.env = env;
        self
    }

    /// Vectorised environments per worker.
    pub fn envs_per_worker(mut self, n: usize) -> Self {
        self.draft.envs_per_worker = n;
        self
    }

    /// Samples per collection task.
    pub fn task_size(mut self, n: usize) -> Self {
        self.draft.task_size = n;
        self
    }

    /// Replay shard count (one RPC server each).
    pub fn num_shards(mut self, n: usize) -> Self {
        self.draft.num_shards = n;
        self
    }

    /// Per-RPC deadline on worker calls.
    pub fn rpc_deadline(mut self, d: Duration) -> Self {
        self.draft.rpc_deadline = d;
        self
    }

    /// Worker hosting mode (the rollout fragment's placement).
    pub fn launch(mut self, mode: LaunchMode) -> Self {
        self.draft.launch = mode;
        self
    }

    /// Ship replay and weight traffic under the v2 wire codec.
    pub fn compression(mut self, on: bool) -> Self {
        self.draft.compression = on;
        self
    }

    /// Elastic fleet: membership tracking, scripted resizing,
    /// heartbeat-timeout eviction.
    pub fn elastic(mut self, elastic: Option<ElasticConfig>) -> Self {
        self.draft.elastic = elastic;
        self
    }
}

impl rlgraph_dist::DriverConfigBuilder for NetApexConfigBuilder {
    type Config = NetApexConfig;

    fn parallelism(mut self, n: usize) -> Self {
        self.draft.num_workers = n;
        self
    }

    fn sync_every(mut self, k: u64) -> Self {
        self.draft.weight_sync_interval = k;
        self
    }

    fn budget(mut self, budget: rlgraph_dist::RunBudget) -> Self {
        if let Some(d) = budget.wall {
            self.draft.run_duration = d;
        }
        self.draft.max_updates = budget.max_updates;
        self
    }

    fn observe_with(mut self, recorder: Recorder) -> Self {
        self.draft.recorder = recorder;
        self
    }

    /// # Errors
    ///
    /// Zero workers/shards/task size, a zero sync interval, or a
    /// declaration the fragment graph rejects.
    fn try_build(self) -> RlResult<NetApexConfig> {
        let c = self.draft;
        if c.num_workers == 0 {
            return Err(CoreError::new("num_workers must be >= 1").into());
        }
        if c.envs_per_worker == 0 {
            return Err(CoreError::new("envs_per_worker must be >= 1").into());
        }
        if c.task_size == 0 {
            return Err(CoreError::new("task_size must be >= 1").into());
        }
        if c.num_shards == 0 {
            return Err(CoreError::new("num_shards must be >= 1").into());
        }
        if c.weight_sync_interval == 0 {
            return Err(CoreError::new("weight_sync_interval must be >= 1").into());
        }
        if let Some(e) = &c.elastic {
            if e.min_workers == 0 {
                return Err(CoreError::new("elastic.min_workers must be >= 1").into());
            }
            if e.min_workers > c.num_workers || c.num_workers > e.max_workers {
                return Err(CoreError::new(format!(
                    "num_workers {} outside elastic bounds {}..={}",
                    c.num_workers, e.min_workers, e.max_workers
                ))
                .into());
            }
            if e.beat_timeout.is_zero() {
                return Err(CoreError::new("elastic.beat_timeout must be > 0").into());
            }
            for (off, target) in &e.schedule {
                if *target < e.min_workers || *target > e.max_workers {
                    return Err(CoreError::new(format!(
                        "schedule target {} at {:?} outside elastic bounds {}..={}",
                        target, off, e.min_workers, e.max_workers
                    ))
                    .into());
                }
            }
            if !e.schedule.windows(2).all(|w| w[0].0 <= w[1].0) {
                return Err(CoreError::new("elastic.schedule must be sorted by offset").into());
            }
            if e.chaos_kill.is_some() && c.launch != LaunchMode::Process {
                return Err(CoreError::new(
                    "elastic.chaos_kill needs LaunchMode::Process (threads cannot be killed); \
                     use WorkerSpec::die_after_tasks for thread-mode crash tests",
                )
                .into());
            }
            if let Some(r) = e.max_updates_per_sample {
                if !(r.is_finite() && r > 0.0) {
                    return Err(CoreError::new("elastic.max_updates_per_sample must be > 0").into());
                }
            }
        }
        // The declarative contract is part of validity: a config that
        // cannot be declared as the Ape-X fragment graph is rejected
        // here, not at spawn time.
        let bounds = c.elastic.as_ref().map(|e| (e.min_workers, e.max_workers));
        apex_graph(c.num_workers, c.num_shards, bounds)?;
        Ok(c)
    }
}

/// One point on an elastic run's throughput trace, sampled by the
/// coordinator on a fixed cadence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputPoint {
    /// seconds since run start
    pub t_secs: f64,
    /// live workers at sample time
    pub workers: usize,
    /// cumulative learner updates
    pub updates: u64,
    /// cumulative post-processed samples (from heartbeats)
    pub samples: u64,
    /// learner updates/s over the window ending here
    pub updates_per_sec: f64,
}

/// Statistics of a multi-process run.
#[derive(Debug, Clone, Default)]
pub struct NetApexStats {
    /// env frames consumed across worker processes (from heartbeats)
    pub env_frames: u64,
    /// post-processed samples shipped to shards
    pub samples_collected: u64,
    /// learner updates performed
    pub updates: u64,
    /// learner losses over time
    pub losses: Vec<f32>,
    /// wall time of the run
    pub wall_time: Duration,
    /// frames per second
    pub frames_per_second: f64,
    /// heartbeats received by the coordinator
    pub heartbeats: u64,
    /// episode returns in heartbeat arrival order
    pub returns: Vec<f32>,
    /// workers that exited cleanly (status 0 / `Ok`)
    pub workers_clean: usize,
    /// total records ever inserted, per shard (watermarks at shutdown)
    pub shard_watermarks: Vec<u64>,
    /// the coordinator's plain-text cluster telemetry report, fetched
    /// over `GET_TELEMETRY` at shutdown (`None` with a disabled recorder)
    pub telemetry_dump: Option<String>,
    /// merged Chrome trace across the coordinator and every worker
    /// process, on the coordinator's clock (`None` with a disabled
    /// recorder)
    pub merged_trace: Option<String>,
    /// elastic runs: throughput trace on the coordinator's cadence
    pub throughput_trace: Vec<ThroughputPoint>,
    /// elastic runs: `(t_secs, live workers)` after every pool resize
    pub scale_events: Vec<(f64, usize)>,
    /// elastic runs: members evicted by heartbeat timeout
    pub evictions: u64,
    /// elastic runs: final membership epoch (join/leave/evict count)
    pub cluster_epoch: u64,
}

impl rlgraph_dist::RunReport for NetApexStats {
    fn updates(&self) -> u64 {
        self.updates
    }

    fn wall_time(&self) -> Duration {
        self.wall_time
    }

    fn fragment_counters(&self) -> Vec<rlgraph_dist::FragmentCounter> {
        vec![
            rlgraph_dist::FragmentCounter::new("rollout", "env_frames", self.env_frames as f64),
            rlgraph_dist::FragmentCounter::new("rollout", "samples", self.samples_collected as f64),
            rlgraph_dist::FragmentCounter::new("learn", "updates", self.updates as f64),
            rlgraph_dist::FragmentCounter::new("broadcast", "heartbeats", self.heartbeats as f64),
        ]
    }
}

/// How a launched worker replica is reached for lifecycle operations.
enum WorkerHandle {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<RlResult<()>>),
}

impl WorkerHandle {
    /// Hard-kills a process replica (no-op for threads, which can only
    /// die cooperatively via `die_after_tasks`).
    fn kill(&mut self) {
        if let WorkerHandle::Process(child) = self {
            let _ = child.kill();
        }
    }
}

/// Coordinator-side cadence of elastic bookkeeping.
const ELASTIC_TICK: Duration = Duration::from_millis(50);
/// Throughput-trace sampling cadence.
const TRACE_INTERVAL: Duration = Duration::from_millis(250);

/// Mutable state of an elastic run, owned by the coordinator loop.
struct ElasticState {
    cfg: ElasticConfig,
    stage: ElasticStage<WorkerHandle>,
    /// current desired pool size (the schedule moves it)
    target: usize,
    schedule_pos: usize,
    /// replicas flagged for clean retire, awaiting their exit
    retiring: Vec<WorkerHandle>,
    evictions: u64,
    chaos_done: bool,
    last_tick: Instant,
    last_trace: Instant,
    last_trace_updates: u64,
    trace: Vec<ThroughputPoint>,
    scale_events: Vec<(f64, usize)>,
}

impl ElasticState {
    fn new(cfg: ElasticConfig, stage: ElasticStage<WorkerHandle>, start: Instant) -> Self {
        let target = stage.len();
        ElasticState {
            cfg,
            stage,
            target,
            schedule_pos: 0,
            retiring: Vec::new(),
            evictions: 0,
            chaos_done: false,
            last_tick: start,
            last_trace: start,
            last_trace_updates: 0,
            trace: Vec::new(),
            scale_events: Vec::new(),
        }
    }

    /// True when the replay-ratio cap says the learner must wait for
    /// more collection inflow before its next update.
    fn update_capped(&self, updates: u64, samples: u64) -> bool {
        match self.cfg.max_updates_per_sample {
            Some(r) => (updates + 1) as f64 > samples as f64 * r,
            None => false,
        }
    }

    /// Coordinator-side elastic bookkeeping, rate-limited to
    /// [`ELASTIC_TICK`]: sweep membership (evict silent members, free
    /// their slots), advance the scripted schedule, fire the chaos
    /// kill, resize the pool toward the target, and sample the
    /// throughput trace.
    ///
    /// # Errors
    ///
    /// Worker spawn failures while scaling up.
    fn tick(
        &mut self,
        start: Instant,
        coord_service: &CoordService,
        updates: u64,
        launch: &mut dyn FnMut(usize, u64) -> RlResult<WorkerHandle>,
    ) -> RlResult<()> {
        let now = Instant::now();
        if now.duration_since(self.last_tick) < ELASTIC_TICK {
            return Ok(());
        }
        self.last_tick = now;
        let before = self.stage.len();

        // Liveness: members that missed the beat timeout are evicted
        // from the table; their slots are freed here (the handle is
        // kept for reaping) and respawned below if the pool is under
        // target — at a bumped generation, so a zombie's late beats
        // are rejected as stale.
        for id in coord_service.sweep_membership() {
            if let Some(mut h) = self.stage.remove(id as usize) {
                h.kill();
                self.retiring.push(h);
                self.evictions += 1;
            }
        }

        // Scripted schedule: every step whose offset has passed.
        while self
            .cfg
            .schedule
            .get(self.schedule_pos)
            .is_some_and(|(off, _)| now.duration_since(start) >= *off)
        {
            self.target = self.cfg.schedule[self.schedule_pos].1;
            self.schedule_pos += 1;
        }

        // Chaos: SIGKILL the highest-index replica without telling
        // anyone — eviction must come from the missed-beat sweep.
        if let Some(at) = self.cfg.chaos_kill {
            if !self.chaos_done && now.duration_since(start) >= at {
                self.chaos_done = true;
                if let Some(&idx) = self.stage.indices().last() {
                    if let Some(h) = self.stage.handle_mut(idx) {
                        h.kill();
                    }
                }
            }
        }

        // Resize toward the target: spawns go through `launch` (which
        // stamps the slot generation into the spec); retires are
        // cooperative — the member is flagged and exits cleanly after
        // its next heartbeat, so no in-flight insert is lost.
        if self.stage.len() != self.target {
            let retiring = &mut self.retiring;
            self.stage.scale_to(self.target, launch, |index, _gen, handle| {
                coord_service.flag_retire(index as u32);
                retiring.push(handle);
            })?;
        }
        if self.stage.len() != before {
            self.scale_events.push((now.duration_since(start).as_secs_f64(), self.stage.len()));
        }

        if now.duration_since(self.last_trace) >= TRACE_INTERVAL {
            let dt = now.duration_since(self.last_trace).as_secs_f64();
            let progress = coord_service.progress();
            self.trace.push(ThroughputPoint {
                t_secs: now.duration_since(start).as_secs_f64(),
                workers: self.stage.len(),
                updates,
                samples: progress.samples,
                updates_per_sec: (updates - self.last_trace_updates) as f64 / dt.max(1e-9),
            });
            self.last_trace = now;
            self.last_trace_updates = updates;
        }
        Ok(())
    }
}

/// Runs Ape-X across OS processes (or threads) on localhost TCP.
///
/// # Errors
///
/// Server bind/spawn failures, learner errors, or a fatal RPC failure
/// in the parent. Worker-side failures surface in
/// [`NetApexStats::workers_clean`] rather than failing the run — the
/// transport's whole point is that the learner outlives flaky peers.
pub fn run_apex_net(config: NetApexConfig) -> RlResult<NetApexStats> {
    let start = Instant::now();
    let recorder = config.recorder.clone();

    // The run is an instance of the declarative Ape-X fragment graph;
    // the launch mode decides where its rollout replicas run.
    let bounds = config.elastic.as_ref().map(|e| (e.min_workers, e.max_workers));
    let graph = apex_graph(config.num_workers, config.num_shards, bounds)?;
    for stage in graph.stages() {
        recorder.gauge(&format!("frag.{}.replicas", stage.name)).set(stage.replicas as f64);
    }

    // Replay shards, each behind its own RPC server for the workers'
    // inserts; the learner holds the shards themselves.
    let mut shard_servers = Vec::with_capacity(config.num_shards);
    let mut shards: Vec<Arc<SharedShard>> = Vec::with_capacity(config.num_shards);
    for i in 0..config.num_shards {
        let service = Arc::new(ShardService::new(apex_shard(&config.agent, i), &recorder));
        shards.push(service.shard().clone());
        shard_servers.push(RpcServer::spawn(&format!("shard-{}", i), service, recorder.clone())?);
    }

    let shard_addrs: Vec<String> = shard_servers.iter().map(|s| s.addr().to_string()).collect();

    // Coordinator: weight distribution + progress + stop propagation;
    // elastic runs also make it the membership authority.
    let hub = Arc::new(WeightHub::new());
    let stop = Arc::new(AtomicBool::new(false));
    let mut coord = CoordService::new(hub.clone(), stop.clone()).with_recorder(&recorder);
    if let Some(e) = &config.elastic {
        coord = coord.with_beat_timeout(e.beat_timeout);
    }
    let coord_service = Arc::new(coord);
    let coord_server = RpcServer::spawn("coord", coord_service.clone(), recorder.clone())?;

    // Workers. `num_workers_total` fixes the exploration ladder: an
    // elastic fleet ladders over `max_workers` so a worker's epsilon
    // does not depend on when it was spawned.
    let num_workers_total = config.elastic.as_ref().map_or(config.num_workers, |e| e.max_workers);
    let coord_addr = coord_server.addr().to_string();
    let mut launch = |index: usize, generation: u64| -> RlResult<WorkerHandle> {
        let spec = WorkerSpec {
            worker: index as u32,
            num_workers: num_workers_total as u32,
            agent: config.agent.clone(),
            env: config.env.clone(),
            envs_per_worker: config.envs_per_worker as u32,
            task_size: config.task_size as u32,
            coord_addr: coord_addr.clone(),
            shard_addrs: shard_addrs.clone(),
            rpc_deadline_ms: config.rpc_deadline.as_millis() as u64,
            telemetry: recorder.is_enabled(),
            compression: config.compression,
            generation,
            die_after_tasks: None,
            task_throttle_ms: config
                .elastic
                .as_ref()
                .and_then(|e| e.worker_throttle)
                .map_or(0, |d| d.as_millis() as u64),
        };
        Ok(match config.launch {
            LaunchMode::Process => WorkerHandle::Process(spawn_worker(&spec)?),
            LaunchMode::Thread => WorkerHandle::Thread(
                std::thread::Builder::new()
                    .name(format!("net-worker-{}", index))
                    .spawn(move || run_worker(&spec))?,
            ),
        })
    };
    let mut workers: Vec<WorkerHandle> = Vec::new();
    let mut elastic_state: Option<ElasticState> = match &config.elastic {
        // Elastic: the pool is the graph's declared elastic rollout
        // stage; slot generations flow into WorkerSpec so every
        // replica joins the membership table with its incarnation.
        Some(e) => {
            let decl = graph.stage("rollout").expect("rollout stage declared");
            let mut stage = ElasticStage::new(decl, &recorder);
            stage.scale_to(config.num_workers, &mut launch, |_, _, _| {})?;
            Some(ElasticState::new(e.clone(), stage, start))
        }
        // Fixed fleet: generation 0 keeps membership off.
        None => {
            for w in 0..config.num_workers {
                workers.push(launch(w, 0)?);
            }
            None
        }
    };

    // Learner loop, on the shards in this process.
    let state_space = config.env.build(0).state_space();
    let action_space = config.env.build(0).action_space();
    let mut learner = ApexLearner::new(&config.agent, &state_space, &action_space, &recorder)?;
    let update_rate = recorder.gauge("frag.learn.update_rate");
    // The parent folds its own metric deltas into the same cluster
    // registry heartbeats feed, under the "learner" process name.
    let mut learner_tracker = DeltaTracker::new();
    let deadline = start + config.run_duration;
    while Instant::now() < deadline
        && config.max_updates.map(|m| learner.updates() < m).unwrap_or(true)
    {
        if let Some(el) = elastic_state.as_mut() {
            el.tick(start, &coord_service, learner.updates(), &mut launch)?;
            // Replay-ratio cap: hold for inflow rather than spin on
            // stale data.
            if el.update_capped(learner.updates(), coord_service.progress().samples) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        }
        if !learner.step(&shards)? {
            // under-filled: leave the CPU to the workers' inserts
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let updates = learner.updates();
        if updates.is_multiple_of(config.weight_sync_interval) {
            if recorder.is_enabled() {
                update_rate.set(updates as f64 / start.elapsed().as_secs_f64().max(1e-9));
                coord_service
                    .cluster()
                    .fold("learner", &learner_tracker.delta(&recorder.metrics_snapshot()));
            }
            let version = hub.publish(learner.agent().get_weights());
            coord_service.set_checkpoint(LearnerCheckpoint {
                updates,
                weight_version: version,
                variables: learner.agent().export_variables(),
                shard_watermarks: shards.iter().map(|s| s.watermark()).collect(),
            });
        }
    }
    let updates = learner.updates();

    // Tell workers (via heartbeat replies) the run is over, then reap.
    // Elastic pools drain into the same reap path: live replicas exit
    // on the stop beat; previously retired/evicted handles are already
    // in `retiring`.
    stop.store(true, Ordering::Relaxed);
    if let Some(el) = elastic_state.as_mut() {
        el.stage.drain(|_, _, h| workers.push(h));
        workers.append(&mut el.retiring);
    }
    let mut workers_clean = 0usize;
    let reap_deadline = Instant::now() + config.rpc_deadline + Duration::from_secs(10);
    for w in workers {
        match w {
            WorkerHandle::Process(mut child) => loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if status.success() {
                            workers_clean += 1;
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < reap_deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            },
            WorkerHandle::Thread(h) => {
                if matches!(h.join(), Ok(Ok(()))) {
                    workers_clean += 1;
                }
            }
        }
    }

    let shard_watermarks: Vec<u64> = shards.iter().map(|s| s.watermark()).collect();
    let progress = coord_service.progress();

    // Telemetry plane shutdown work, while the coordinator still
    // listens: one last learner fold, the cluster report fetched over
    // the real GET_TELEMETRY RPC, and the merged cluster trace (worker
    // dumps arrived via PUSH_TRACE when their stop beats were answered;
    // each shifts onto the coordinator's clock by its offset estimate).
    let (telemetry_dump, merged_trace) = if recorder.is_enabled() {
        update_rate.set(updates as f64 / start.elapsed().as_secs_f64().max(1e-9));
        coord_service
            .cluster()
            .fold("learner", &learner_tracker.delta(&recorder.metrics_snapshot()));
        let report = CoordClient::connect(coord_server.addr(), &recorder)
            .and_then(|mut c| {
                c.set_deadline(Some(config.rpc_deadline));
                c.get_telemetry()
            })
            .ok();
        let mut procs = vec![ProcessTrace {
            name: "coordinator".to_string(),
            offset_us: 0,
            dump: recorder.trace_dump(),
        }];
        for (name, dump) in coord_service.take_traces() {
            let offset_us = coord_service.cluster().offset(&name).map_or(0, |(o, _)| o);
            procs.push(ProcessTrace { name, offset_us, dump });
        }
        (report, Some(merged_chrome_trace(&procs)))
    } else {
        (None, None)
    };
    for s in shard_servers {
        s.shutdown();
    }
    coord_server.shutdown();

    let cluster_epoch = coord_service.membership_view().epoch;
    let (throughput_trace, scale_events, evictions) = match elastic_state {
        Some(el) => (el.trace, el.scale_events, el.evictions),
        None => (Vec::new(), Vec::new(), 0),
    };

    let wall_time = start.elapsed();
    Ok(NetApexStats {
        env_frames: progress.env_frames,
        samples_collected: progress.samples,
        updates,
        losses: learner.losses,
        wall_time,
        frames_per_second: progress.env_frames as f64 / wall_time.as_secs_f64().max(1e-9),
        heartbeats: progress.heartbeats,
        returns: progress.returns,
        workers_clean,
        shard_watermarks,
        telemetry_dump,
        merged_trace,
        throughput_trace,
        scale_events,
        evictions,
        cluster_epoch,
    })
}
