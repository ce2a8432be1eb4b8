//! Ape-X as a fragment graph: the declaration behind
//! [`run_apex`](crate::ray::run_apex).
//!
//! The topology is four typed stages —
//!
//! ```text
//!   rollout (N) ──Block──▶ replay (S) ──Block──▶ learn (1)
//!      ▲                                           │
//!      └───────────Latest── broadcast (1) ◀────────┘
//! ```
//!
//! — and the physical build is a [`PlacementMap`]: replay runs on
//! supervised actor threads (the default) or inline in the learner
//! thread ([`Placement::InThread`]), behind the placement-transparent
//! [`ShardPort`] handle. A fixed-task-budget run
//! (`max_tasks_per_worker`) is a pure function of the seed: the parity
//! suite in `tests/fragment_parity.rs` holds it to a frozen reference
//! and to bit-identity across runs and placements.

use super::edge::EdgeLane;
use super::exec::FragmentExecutor;
use super::graph::{FragmentGraph, StageKind};
use super::placement::{Placement, PlacementMap};
use crate::fault::FaultKind;
use crate::ray::{apex_worker_epsilon, ApexRunConfig, ApexRunStats};
use crate::retry::{RetryPolicy, ThreadSleeper};
use crate::shard::{
    serve_shard, ShardBatch, ShardCore, ShardRequest, ShardServeMetrics, DEFAULT_MAILBOX_CAPACITY,
};
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::{DqnAgent, DqnConfig, EpsilonSchedule};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::{Env, VectorEnv};
use rlgraph_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A weight snapshot travelling the broadcast edge: the send timestamp
/// (recorder clock, µs) plus named tensors.
type WeightMsg = (u64, Vec<(String, Tensor)>);

/// The Ape-X topology as a fragment graph (see the module docs for the
/// shape) — the one declaration every Ape-X driver runs, in-process,
/// stepped or over TCP. Edge bounds are shard mailboxes of
/// [`DEFAULT_MAILBOX_CAPACITY`] and latest-wins weight slots;
/// `rollout_bounds` declares the rollout stage elastic between
/// `(min, max)` replicas (a runtime's `ElasticStage` pool enforces
/// them), `None` fixes it at `num_workers`.
///
/// # Errors
///
/// [`RlError::Core`] on zero workers or shards (graph validation
/// requires every stage to have at least one replica) or bounds that
/// exclude `num_workers`.
pub fn apex_graph(
    num_workers: usize,
    num_shards: usize,
    rollout_bounds: Option<(usize, usize)>,
) -> RlResult<FragmentGraph> {
    let b = FragmentGraph::builder();
    let b = match rollout_bounds {
        Some((min, max)) => b.elastic_stage("rollout", StageKind::Rollout, num_workers, min, max),
        None => b.stage("rollout", StageKind::Rollout, num_workers),
    };
    b.stage("replay", StageKind::Replay, num_shards)
        .stage("learn", StageKind::Learn, 1)
        .stage("broadcast", StageKind::Broadcast, 1)
        .edge("rollout", "replay", DEFAULT_MAILBOX_CAPACITY)
        .edge("replay", "learn", 1)
        .latest_edge("broadcast", "rollout")
        .build()
}

/// The default placement: rollout and replay on supervised actor
/// threads, learner and broadcast inline on the caller thread.
pub fn default_apex_placement() -> PlacementMap {
    PlacementMap::new()
        .place("rollout", Placement::ActorThread)
        .place("replay", Placement::ActorThread)
        .place("learn", Placement::InThread)
        .place("broadcast", Placement::InThread)
}

/// Replay shard `shard` of a run: sized and prioritized from the agent
/// config, sampling from its own stream of the agent seed.
pub fn apex_shard(agent: &DqnConfig, shard: usize) -> ShardCore {
    ShardCore::new(agent.memory_capacity, agent.alpha, agent.seed.wrapping_add(1000 + shard as u64))
}

/// Builds rollout replica `w` of `num_workers` over `envs`: a token
/// local memory (workers do not learn), its rung of the
/// [`apex_worker_epsilon`] ladder held constant, and a seed
/// decorrelated across replicas and across a replica's `incarnation`s
/// (0 for the first build of slot `w`, +1 per supervised restart or
/// elastic respawn) — a reincarnation reusing its predecessor's seed
/// would replay the same action stream and fill the shards with
/// duplicated trajectories.
///
/// # Errors
///
/// [`RlError::Core`] when the envs disagree on their spaces; agent
/// build errors.
pub fn apex_replica(
    agent: &DqnConfig,
    w: usize,
    num_workers: usize,
    incarnation: u64,
    envs: Vec<Box<dyn Env>>,
) -> RlResult<ApexWorker> {
    let eps = apex_worker_epsilon(w, num_workers);
    let config = DqnConfig {
        memory_capacity: 16,
        seed: agent
            .seed
            .wrapping_add(w as u64 * 7919)
            .wrapping_add(incarnation.wrapping_mul(0x9E37_79B9)),
        epsilon: EpsilonSchedule { start: eps, end: eps, decay_steps: 1 },
        ..agent.clone()
    };
    let envs = VectorEnv::new(envs).map_err(|e| RlError::Core(CoreError::new(e.message())))?;
    Ok(ApexWorker::new(config, envs)?)
}

/// One learner update on a sampled batch. Returns the loss and the
/// batch's new priorities (its absolute TD errors) against the shard
/// slots they belong to, for the shard's `update_priorities`.
///
/// # Errors
///
/// Agent update errors.
pub fn apex_learn_step(
    learner: &mut DqnAgent,
    batch: ShardBatch,
) -> RlResult<(f32, Vec<usize>, Vec<f32>)> {
    let [s, a, r, s2, t] = batch.tensors;
    let (loss, td) = learner.update_from_batch([s, a, r, s2, t, batch.weights])?;
    Ok((loss, batch.indices, td.as_f32().map_err(CoreError::from)?.to_vec()))
}

/// Outcome of one [`ShardPort::sample`] pull.
pub enum ShardPull {
    /// A prioritized batch (boxed: a batch is ~6 tensors, far larger
    /// than the other variants).
    Batch(Box<ShardBatch>),
    /// The shard has fewer records than the batch size.
    NotReady,
    /// No reply within the timeout (stalled or busy shard).
    TimedOut,
    /// The shard is gone (shutdown in progress).
    Gone,
}

/// A placement-transparent handle to one replay fragment replica: the
/// worker and learner bodies speak `ShardPort` and never learn whether
/// the shard lives behind a supervised actor mailbox or inline in the
/// caller thread.
#[derive(Clone)]
pub enum ShardPort {
    /// A supervised actor replica behind a bounded mailbox lane.
    Mailbox(EdgeLane<ShardRequest>),
    /// A core driven inline ([`Placement::InThread`] replay).
    Inline(Arc<Mutex<ShardCore>>, Arc<ShardServeMetrics>),
}

impl ShardPort {
    /// Submits a collected batch: retry with backoff on a saturated
    /// mailbox (Block backpressure — replay data is never shed), then
    /// fall back to a blocking send if the policy gives up. Returns
    /// `false` when the shard is gone (shutdown in progress).
    pub fn submit(
        &self,
        transitions: Vec<rlgraph_memory::Transition>,
        priorities: Vec<f32>,
        retry: &RetryPolicy,
        sleeper: &ThreadSleeper,
    ) -> bool {
        match self {
            ShardPort::Inline(core, m) => {
                let t0 = Instant::now();
                let mut guard = core.lock();
                guard.insert(transitions, priorities);
                m.fill.set(guard.len() as f64);
                drop(guard);
                m.insert_us.record_duration(t0.elapsed());
                true
            }
            ShardPort::Mailbox(lane) => {
                let mut pending = Some(ShardRequest::Insert { transitions, priorities });
                let submitted = retry.run(sleeper, |_| {
                    let req = pending.take().expect("request in flight");
                    match lane.offer(req) {
                        Ok(None) => Ok(()),
                        Ok(Some(req)) => {
                            pending = Some(req);
                            Err(RlError::MailboxFull { capacity: lane.capacity() })
                        }
                        Err(e) => Err(e),
                    }
                });
                match submitted {
                    Ok(()) => true,
                    Err(RlError::RetriesExhausted { .. }) => {
                        let req = pending.take().expect("request returned by retry");
                        lane.send(req).is_ok()
                    }
                    Err(_) => false, // disconnected: shutting down
                }
            }
        }
    }

    /// Pulls a prioritized batch (bounded wait for mailbox placements).
    pub fn sample(&self, batch: usize, beta: f32, timeout: Duration) -> ShardPull {
        match self {
            ShardPort::Inline(core, m) => {
                let t0 = Instant::now();
                let sampled = core.lock().sample(batch, beta);
                m.sample_us.record_duration(t0.elapsed());
                match sampled {
                    Some(b) => ShardPull::Batch(Box::new(b)),
                    None => ShardPull::NotReady,
                }
            }
            ShardPort::Mailbox(lane) => {
                let (reply_tx, reply_rx) = bounded(1);
                if lane.send(ShardRequest::Sample { batch, beta, reply: reply_tx }).is_err() {
                    return ShardPull::Gone;
                }
                match reply_rx.recv_timeout(timeout) {
                    Ok(Some(b)) => ShardPull::Batch(Box::new(b)),
                    Ok(None) => ShardPull::NotReady,
                    Err(_) => ShardPull::TimedOut,
                }
            }
        }
    }

    /// Pushes updated priorities back (fire-and-forget).
    pub fn update_priorities(&self, indices: Vec<usize>, priorities: Vec<f32>) {
        match self {
            ShardPort::Inline(core, m) => {
                let t0 = Instant::now();
                core.lock().update_priorities(indices, priorities);
                m.update_us.record_duration(t0.elapsed());
            }
            ShardPort::Mailbox(lane) => {
                let _ = lane.send(ShardRequest::UpdatePriorities { indices, priorities });
            }
        }
    }

    /// Tells a mailbox-placed shard to stop serving (no-op for inline
    /// cores).
    pub fn shutdown(&self) {
        if let ShardPort::Mailbox(lane) = self {
            let _ = lane.send(ShardRequest::Shutdown);
        }
    }
}

/// Runs Ape-X as a fragment graph under the given placement.
///
/// This is the executor behind [`run_apex`](crate::run_apex): worker
/// and learner bodies routed through [`EdgeLane`]s and [`ShardPort`]s.
///
/// # Errors
///
/// Placement/graph validation errors, build errors, and
/// [`RlError::ActorCrashed`] for replicas that ended fatally or
/// exhausted their restart budget.
pub fn run_apex_fragments<F>(
    config: ApexRunConfig,
    placement: PlacementMap,
    env_factory: F,
) -> RlResult<ApexRunStats>
where
    F: Fn(usize, usize) -> Box<dyn Env> + Send + Sync + 'static,
{
    let start = Instant::now();
    let frames = Arc::new(AtomicU64::new(0));
    let samples = Arc::new(AtomicU64::new(0));
    let rewards: Arc<Mutex<Vec<(f64, f32)>>> = Arc::new(Mutex::new(Vec::new()));
    let env_factory = Arc::new(env_factory);
    let recorder = config.recorder.clone();

    let graph = apex_graph(config.num_workers, config.num_shards, None)?;
    let restart_policy = RetryPolicy {
        max_attempts: config.max_worker_restarts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(50),
        multiplier: 2.0,
        deadline: None,
    };
    let mut exec = FragmentExecutor::new(graph, placement, recorder.clone(), restart_policy)?;

    // Replay fragments, behind placement-transparent ports.
    let ports: Vec<ShardPort> = match exec.placement().of("replay") {
        Placement::ActorThread => {
            let lanes = exec.lanes::<ShardRequest>("rollout", "replay")?;
            let bodies: Vec<_> = lanes.iter().map(|l| l.receiver()).collect();
            let rec = recorder.clone();
            let agent = config.agent.clone();
            exec.spawn_stage("replay", move |i| {
                let rx = bodies[i].clone();
                let rec = rec.clone();
                let agent = agent.clone();
                move |_stop: &AtomicBool| {
                    // A fresh core per (re)incarnation: a crashed shard
                    // restarts empty, exactly like a restarted process.
                    let core = apex_shard(&agent, i);
                    let metrics = ShardServeMetrics::fragment(&rec, "replay");
                    serve_shard(&rx, core, &rec, &metrics);
                    Ok(())
                }
            })?;
            lanes.into_iter().map(ShardPort::Mailbox).collect()
        }
        _ => {
            // In-thread replay: passive cores driven from the learner
            // thread through the same port surface.
            let metrics = Arc::new(ShardServeMetrics::fragment(&recorder, "replay"));
            (0..config.num_shards)
                .map(|i| {
                    let core = apex_shard(&config.agent, i);
                    ShardPort::Inline(Arc::new(Mutex::new(core)), metrics.clone())
                })
                .collect()
        }
    };

    // Weight broadcast lanes (latest-wins, one per worker).
    let weight_lanes = exec.lanes::<WeightMsg>("broadcast", "rollout")?;

    // Rollout fragments: the worker body over ports and lanes.
    {
        let ports = ports.clone();
        let weight_lanes = weight_lanes.clone();
        let rec = recorder.clone();
        let frames = frames.clone();
        let samples = samples.clone();
        let rewards = rewards.clone();
        let env_factory = env_factory.clone();
        let config = config.clone();
        exec.spawn_stage("rollout", move |w| {
            let ports = ports.clone();
            let wrx = weight_lanes[w].clone();
            let rec = rec.clone();
            let frames = frames.clone();
            let samples = samples.clone();
            let rewards = rewards.clone();
            let env_factory = env_factory.clone();
            let (agent, num_workers) = (config.agent.clone(), config.num_workers);
            let (task_size, envs_per_worker) = (config.task_size, config.envs_per_worker);
            let fault_plan = config.fault_plan.clone();
            let retry = config.retry.clone();
            let max_tasks = config.max_tasks_per_worker;
            // Task/incarnation counters persist across supervised
            // restarts (the closure is re-invoked, not rebuilt): fault
            // draws never repeat and each reincarnation draws a fresh
            // exploration seed.
            let mut task: u64 = 0;
            let mut incarnation: u64 = 0;
            move |stop: &AtomicBool| {
                let envs = (0..envs_per_worker).map(|e| env_factory(w, e)).collect();
                let mut worker = apex_replica(&agent, w, num_workers, incarnation, envs)?;
                incarnation += 1;
                let sleeper = ThreadSleeper::new();
                let task_us = rec.histogram("frag.rollout.task_us");
                let sync_latency_us = rec.histogram("weight_sync.latency_us");
                let frames_ctr = rec.counter("frag.rollout.frames");
                let reward_gauge = rec.gauge("train.episode_reward");
                let crash_ctr = rec.counter("frag.rollout.crashes");
                while !stop.load(Ordering::Relaxed) && max_tasks.map(|k| task < k).unwrap_or(true) {
                    if let Some((sent_us, weights)) = wrx.try_recv() {
                        sync_latency_us.record(rec.now_micros().saturating_sub(sent_us) as f64);
                        worker.agent_mut().set_weights(&weights)?;
                    }
                    if fault_plan.draw(FaultKind::WorkerCrash, w, task) {
                        task += 1;
                        crash_ctr.inc();
                        return Err(RlError::ActorCrashed {
                            actor: format!("frag-rollout-{}", w),
                            reason: "injected fault".into(),
                        });
                    }
                    let t0 = Instant::now();
                    let batch = {
                        let _span = rec.span("worker.collect");
                        worker.collect(task_size)?
                    };
                    task_us.record_duration(t0.elapsed());
                    frames.fetch_add(batch.env_frames, Ordering::Relaxed);
                    frames_ctr.add(batch.env_frames);
                    samples.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    {
                        let now = start.elapsed().as_secs_f64();
                        let mut guard = rewards.lock();
                        for r in &batch.episode_returns {
                            guard.push((now, *r));
                        }
                        if let Some(r) = batch.episode_returns.last() {
                            reward_gauge.set(*r as f64);
                        }
                    }
                    let port = &ports[(task as usize) % ports.len()];
                    if !port.submit(batch.transitions, batch.priorities, &retry, &sleeper) {
                        break; // shards gone: shutting down
                    }
                    task += 1;
                }
                Ok(())
            }
        })?;
    }

    // Learner driver (this thread), with the inline broadcast fragment.
    let deadline = start + config.run_duration;
    let driver_res = exec.run_driver("learn", || {
        let state_space = env_factory(0, 0).state_space();
        let action_space = env_factory(0, 0).action_space();
        let mut learner = DqnAgent::new(config.agent.clone(), &state_space, &action_space)?;
        let sample_wait_us = recorder.histogram("frag.learn.sample_wait_us");
        let step_us = recorder.histogram("frag.learn.step_us");
        let updates_ctr = recorder.counter("frag.learn.updates");
        let loss_gauge = recorder.gauge("train.loss");
        let dropped_sync_ctr = recorder.counter("frag.broadcast.dropped_syncs");
        let mut losses = Vec::new();
        let mut updates: u64 = 0;
        let mut rr = 0usize;
        while Instant::now() < deadline && config.max_updates.map(|m| updates < m).unwrap_or(true) {
            let port = &ports[rr % ports.len()];
            rr += 1;
            let t_wait = Instant::now();
            let batch = match port.sample(
                config.agent.batch_size,
                config.agent.beta,
                Duration::from_millis(500),
            ) {
                ShardPull::Batch(b) => {
                    sample_wait_us.record_duration(t_wait.elapsed());
                    *b
                }
                ShardPull::NotReady => {
                    sample_wait_us.record_duration(t_wait.elapsed());
                    // shard not filled yet
                    std::thread::yield_now();
                    continue;
                }
                ShardPull::TimedOut => continue,
                ShardPull::Gone => break,
            };
            let t_step = Instant::now();
            let (loss, indices, priorities) = {
                let _span = recorder.span("learner.step");
                apex_learn_step(&mut learner, batch)?
            };
            step_us.record_duration(t_step.elapsed());
            loss_gauge.set(loss as f64);
            updates_ctr.inc();
            losses.push(loss);
            updates += 1;
            ports[(rr - 1) % ports.len()].update_priorities(indices, priorities);
            if updates.is_multiple_of(config.weight_sync_interval) {
                let _span = recorder.span("learner.weight_broadcast");
                let weights = learner.get_weights();
                let sent_us = recorder.now_micros();
                for (w, lane) in weight_lanes.iter().enumerate() {
                    // Injected sync fault: this worker misses the
                    // broadcast and keeps acting on stale weights.
                    if config.fault_plan.draw(FaultKind::DropWeightSync, w, updates) {
                        dropped_sync_ctr.inc();
                        continue;
                    }
                    let _ = lane.offer((sent_us, weights.clone()));
                }
            }
        }
        Ok((updates, losses))
    });

    // Drain any remaining run budget on pure sampling, then stop
    // workers — unless they run to a fixed task budget, in which case
    // raising the stop flag early would truncate them
    // non-deterministically.
    let finite_tasks = config.max_tasks_per_worker.is_some();
    if driver_res.is_ok() && !finite_tasks {
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let rollout_res = exec.join_stage("rollout", !finite_tasks);
    for port in &ports {
        port.shutdown();
    }
    let shutdown_res = exec.shutdown();

    let (updates, losses) = driver_res?;
    rollout_res?;
    shutdown_res?;

    let wall_time = start.elapsed();
    let env_frames = frames.load(Ordering::Relaxed);
    let reward_timeline = std::mem::take(&mut *rewards.lock());
    Ok(ApexRunStats {
        env_frames,
        samples_collected: samples.load(Ordering::Relaxed),
        wall_time,
        frames_per_second: env_frames as f64 / wall_time.as_secs_f64().max(1e-9),
        updates,
        losses,
        reward_timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_agents::{Backend, DqnConfig};
    use rlgraph_envs::RandomEnv;
    use rlgraph_nn::{Activation, NetworkSpec};

    fn tiny_agent() -> DqnConfig {
        DqnConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            memory_capacity: 512,
            batch_size: 8,
            n_step: 2,
            target_sync_every: 50,
            seed: 11,
            ..DqnConfig::default()
        }
    }

    #[test]
    fn apex_graph_declares_the_four_stage_topology() {
        let config = ApexRunConfig {
            agent: tiny_agent(),
            num_workers: 3,
            num_shards: 2,
            ..ApexRunConfig::default()
        };
        let g = apex_graph(config.num_workers, config.num_shards, None).unwrap();
        assert_eq!(g.replicas("rollout"), 3);
        assert_eq!(g.replicas("replay"), 2);
        assert_eq!(g.replicas("learn"), 1);
        let edge = g.edge("rollout", "replay").unwrap();
        assert_eq!(edge.capacity, DEFAULT_MAILBOX_CAPACITY);
        default_apex_placement().validate(&g, super::super::PlacementCaps::local()).unwrap();
    }

    #[test]
    fn fragment_apex_runs_and_learns() {
        let config = ApexRunConfig {
            agent: tiny_agent(),
            num_workers: 2,
            envs_per_worker: 2,
            task_size: 32,
            num_shards: 2,
            weight_sync_interval: 4,
            run_duration: Duration::from_millis(1200),
            max_updates: Some(20),
            ..ApexRunConfig::default()
        };
        let stats = run_apex_fragments(config, default_apex_placement(), |w, e| {
            Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
        })
        .unwrap();
        assert!(stats.env_frames > 0);
        assert!(stats.updates > 0, "learner never updated");
        assert!(stats.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn inline_replay_placement_runs() {
        let config = ApexRunConfig {
            agent: tiny_agent(),
            num_workers: 1,
            envs_per_worker: 2,
            task_size: 32,
            num_shards: 2,
            weight_sync_interval: 4,
            run_duration: Duration::from_millis(1200),
            max_updates: Some(10),
            ..ApexRunConfig::default()
        };
        let placement = default_apex_placement().place("replay", Placement::InThread);
        let stats = run_apex_fragments(config, placement, |w, e| {
            Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
        })
        .unwrap();
        assert!(stats.updates > 0, "learner never updated with inline replay");
    }
}
