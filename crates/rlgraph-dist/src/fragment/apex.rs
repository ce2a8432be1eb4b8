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
//! — run in one mapping: rollout replicas on supervised threads, the
//! learner and broadcast inline. Replay is a passive fragment: each
//! shard is one [`SharedShard`] that rollout replicas insert into and
//! the learner samples from on their own threads. The TCP runtime hosts
//! the same type: its worker processes insert over RPC, and its
//! [`ApexLearner`] samples it in-process, as this driver's does.
//!
//! A fixed-task-budget run (`max_tasks_per_worker`) is a pure function
//! of the seed: the parity suite in `tests/fragment_parity.rs` holds it
//! to a frozen reference and to bit-identity across runs.

use super::exec::FragmentExecutor;
use super::graph::{FragmentGraph, StageKind};
use super::placement::{Placement, PlacementMap};
use crate::fault::FaultKind;
use crate::ray::{apex_worker_epsilon, ApexRunConfig, ApexRunStats};
use crate::retry::RetryPolicy;
use crate::shard::{ShardBatch, ShardCore, SharedShard, DEFAULT_MAILBOX_CAPACITY};
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::{DqnAgent, DqnConfig, EpsilonSchedule};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::{Env, VectorEnv};
use rlgraph_obs::{Counter, Gauge, Histogram, Recorder};
use rlgraph_spaces::Space;
use rlgraph_tensor::sync::lock;
use rlgraph_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A weight snapshot travelling the broadcast edge: the send timestamp
/// (recorder clock, µs) plus named tensors.
type WeightMsg = (u64, Vec<(String, Tensor)>);

/// The Ape-X topology as a fragment graph (see the module docs for the
/// shape) — the one declaration every Ape-X driver runs: threaded, in
/// the chaos engine's tick loop, or over TCP. The rollout → replay bound is
/// [`DEFAULT_MAILBOX_CAPACITY`], the weight edge a latest-wins slot;
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

/// The one placement [`run_apex_fragments`] runs: rollout on supervised
/// actor threads; learner, broadcast and the passive replay shards
/// inline.
pub fn default_apex_placement() -> PlacementMap {
    PlacementMap::new()
        .place("rollout", Placement::ActorThread)
        .place("replay", Placement::InThread)
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

/// The Ape-X learner fragment: the online agent, stepping round-robin
/// over the run's [`SharedShard`]s. Every runtime whose shards live in
/// the learner's process drives it — the threaded driver and the TCP
/// runtime alike — so both record the same `frag.learn.*` rows.
pub struct ApexLearner {
    agent: DqnAgent,
    batch_size: usize,
    beta: f32,
    next_shard: usize,
    recorder: Recorder,
    sample_wait_us: Histogram,
    step_us: Histogram,
    updates_ctr: Counter,
    loss_gauge: Gauge,
    /// the loss of every update so far, in order
    pub losses: Vec<f32>,
}

impl ApexLearner {
    /// A learner for `agent` over the given spaces, recording through
    /// `recorder`.
    ///
    /// # Errors
    ///
    /// Agent build errors.
    pub fn new(
        agent: &DqnConfig,
        state_space: &Space,
        action_space: &Space,
        recorder: &Recorder,
    ) -> RlResult<Self> {
        Ok(ApexLearner {
            agent: DqnAgent::new(agent.clone(), state_space, action_space)?,
            batch_size: agent.batch_size,
            beta: agent.beta,
            next_shard: 0,
            recorder: recorder.clone(),
            sample_wait_us: recorder.histogram("frag.learn.sample_wait_us"),
            step_us: recorder.histogram("frag.learn.step_us"),
            updates_ctr: recorder.counter("frag.learn.updates"),
            loss_gauge: recorder.gauge("train.loss"),
            losses: Vec::new(),
        })
    }

    /// One iteration on the next shard in turn: sample, run
    /// [`apex_learn_step`], push the new priorities back. Returns
    /// `false`, having updated nothing, while that shard is
    /// under-filled; the caller picks the backoff.
    ///
    /// # Errors
    ///
    /// The shard's typed error for a draw that does not stack; agent
    /// update errors.
    pub fn step(&mut self, shards: &[Arc<SharedShard>]) -> RlResult<bool> {
        let shard = &shards[self.next_shard % shards.len()];
        self.next_shard += 1;
        let t_wait = Instant::now();
        let sampled = shard.sample(self.batch_size, self.beta);
        self.sample_wait_us.record_duration(t_wait.elapsed());
        let Some(batch) = sampled? else {
            return Ok(false);
        };
        let t_step = Instant::now();
        let (loss, indices, priorities) = {
            let _span = self.recorder.span("learner.step");
            apex_learn_step(&mut self.agent, batch)?
        };
        self.step_us.record_duration(t_step.elapsed());
        self.loss_gauge.set(loss as f64);
        self.updates_ctr.inc();
        self.losses.push(loss);
        shard.update_priorities(indices, priorities);
        Ok(true)
    }

    /// Updates performed so far.
    pub fn updates(&self) -> u64 {
        self.losses.len() as u64
    }

    /// The online agent, for weight export.
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }
}

/// Runs Ape-X as a fragment graph.
///
/// This is the executor behind [`run_apex`](crate::run_apex): worker
/// and learner bodies share the run's [`SharedShard`]s and talk over
/// the broadcast [`EdgeLane`](super::EdgeLane)s. `placement` must
/// resolve like [`default_apex_placement`], the one mapping this
/// runtime has.
///
/// # Errors
///
/// [`RlError::Core`] naming a stage `placement` puts elsewhere; graph
/// validation and build errors; [`RlError::ActorCrashed`] for replicas
/// that ended fatally or exhausted their restart budget.
pub fn run_apex_fragments<F>(
    config: ApexRunConfig,
    placement: PlacementMap,
    env_factory: F,
) -> RlResult<ApexRunStats>
where
    F: Fn(usize, usize) -> Box<dyn Env> + Send + Sync + 'static,
{
    placement.check_matches(&default_apex_placement())?;
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
    let mut exec = FragmentExecutor::new(graph, recorder.clone(), restart_policy);

    let shards: Vec<Arc<SharedShard>> = (0..config.num_shards)
        .map(|i| Arc::new(SharedShard::new(apex_shard(&config.agent, i), &recorder)))
        .collect();

    // Weight broadcast lanes (latest-wins, one per worker).
    let weight_lanes = exec.lanes::<WeightMsg>("broadcast", "rollout")?;

    // Rollout fragments: the worker body over shards and lanes.
    {
        let shards = shards.clone();
        let weight_lanes = weight_lanes.clone();
        let rec = recorder.clone();
        let frames = frames.clone();
        let samples = samples.clone();
        let rewards = rewards.clone();
        let env_factory = env_factory.clone();
        let config = config.clone();
        exec.spawn_stage("rollout", move |w| {
            let shards = shards.clone();
            let wrx = weight_lanes[w].clone();
            let rec = rec.clone();
            let frames = frames.clone();
            let samples = samples.clone();
            let rewards = rewards.clone();
            let env_factory = env_factory.clone();
            let (agent, num_workers) = (config.agent.clone(), config.num_workers);
            let (task_size, envs_per_worker) = (config.task_size, config.envs_per_worker);
            let fault_plan = config.fault_plan.clone();
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
                        let mut guard = lock(&rewards);
                        for r in &batch.episode_returns {
                            guard.push((now, *r));
                        }
                        if let Some(r) = batch.episode_returns.last() {
                            reward_gauge.set(*r as f64);
                        }
                    }
                    let shard = &shards[(task as usize) % shards.len()];
                    shard.insert(batch.transitions, batch.priorities);
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
        let mut learner = ApexLearner::new(&config.agent, &state_space, &action_space, &recorder)?;
        let dropped_sync_ctr = recorder.counter("frag.broadcast.dropped_syncs");
        while Instant::now() < deadline
            && config.max_updates.map(|m| learner.updates() < m).unwrap_or(true)
        {
            if !learner.step(&shards)? {
                // shard not filled yet
                std::thread::yield_now();
                continue;
            }
            let updates = learner.updates();
            if updates.is_multiple_of(config.weight_sync_interval) {
                let _span = recorder.span("learner.weight_broadcast");
                let weights = learner.agent().get_weights();
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
        Ok((learner.updates(), learner.losses))
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
    let shutdown_res = exec.shutdown();

    let (updates, losses) = driver_res?;
    rollout_res?;
    shutdown_res?;

    let wall_time = start.elapsed();
    let env_frames = frames.load(Ordering::Relaxed);
    let reward_timeline = std::mem::take(&mut *lock(&rewards));
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

    /// The one learner iteration both Ape-X drivers run: shards are
    /// taken in turn, an under-filled one declines without updating,
    /// and every draw's wait is recorded, whether it yields or not.
    #[test]
    fn learner_step_takes_shards_in_turn_and_declines_an_underfilled_one() {
        let env = RandomEnv::new(&[4], 2, 20, 0);
        let agent = tiny_agent();
        let recorder = Recorder::wall();
        let mut learner =
            ApexLearner::new(&agent, &env.state_space(), &env.action_space(), &recorder).unwrap();
        let filled = Arc::new(SharedShard::new(apex_shard(&agent, 0), &recorder));
        let empty = Arc::new(SharedShard::new(apex_shard(&agent, 1), &recorder));
        let transitions: Vec<_> = (0..32)
            .map(|i| {
                rlgraph_memory::Transition::new(
                    Tensor::full(&[4], i as f32 / 32.0),
                    Tensor::scalar_i64(i % 2),
                    1.0,
                    Tensor::full(&[4], (i + 1) as f32 / 32.0),
                    i % 8 == 7,
                )
            })
            .collect();
        filled.insert(transitions, vec![1.0; 32]);
        let shards = [filled, empty];

        assert!(learner.step(&shards).unwrap(), "the filled shard yields a batch");
        assert!(!learner.step(&shards).unwrap(), "the empty shard declines");
        assert!(learner.step(&shards).unwrap(), "back to the filled shard");
        assert_eq!(learner.updates(), 2);
        assert!(learner.losses.iter().all(|l| l.is_finite()), "{:?}", learner.losses);
        assert_eq!(recorder.counter("frag.learn.updates").value(), 2);
        assert_eq!(recorder.histogram("frag.learn.sample_wait_us").count(), 3);
        assert_eq!(recorder.histogram("frag.learn.step_us").count(), 2);
        assert!(shards[1].is_empty());
    }

    #[test]
    fn a_placement_other_than_the_default_is_rejected() {
        // The runtime has one mapping: a replay placed on actor threads
        // is a typed error naming the stage, not a silently ignored map.
        let placement = default_apex_placement().place("replay", Placement::ActorThread);
        let res = run_apex_fragments(ApexRunConfig::default(), placement, |w, e| {
            Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
        });
        match res {
            Err(RlError::Core(e)) => assert!(e.message().contains("'replay'"), "{}", e.message()),
            other => panic!("expected a typed Core error, got {:?}", other.map(|_| ())),
        }
    }
}
