//! IMPALA as a fragment graph: the declaration behind the
//! non-centralized [`run_impala`](crate::impala_driver::run_impala)
//! driver.
//!
//! ```text
//!   rollout (N) ──Block(queue_capacity)──▶ learn (1)
//!      ▲                                     │
//!      └──────Latest── broadcast (1) ◀───────┘
//! ```
//!
//! The rollout→learn edge is physically the in-graph [`TensorQueue`]
//! (actors enqueue from inside their dataflow graphs — the declaration
//! wraps the existing machinery rather than replacing it); the
//! broadcast edge is the versioned [`WeightHub`] actors poll. The graph
//! declaration still governs replica counts, placement validation, and
//! the metric naming: queue depth is emitted as
//! `frag.learn.mailbox_depth`.

use super::exec::FragmentExecutor;
use super::graph::{FragmentGraph, StageKind};
use super::placement::{Placement, PlacementMap};
use crate::fault::FaultKind;
use crate::impala_driver::{ImpalaDriverConfig, ImpalaRunStats};
use crate::retry::RetryPolicy;
use crate::sync::WeightHub;
use rlgraph_agents::impala::{ImpalaActor, ImpalaLearner};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::{Env, VectorEnv};
use rlgraph_graph::TensorQueue;
use rlgraph_spaces::Space;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The IMPALA topology as a fragment graph (see the module docs). The
/// rollout→learn bound is the agent's `queue_capacity`; the weight
/// broadcast is a latest-wins slot.
///
/// # Errors
///
/// [`RlError::Core`] when the config declares zero actors or a zero
/// queue capacity.
pub fn impala_graph(config: &ImpalaDriverConfig) -> RlResult<FragmentGraph> {
    FragmentGraph::builder()
        .stage("rollout", StageKind::Rollout, config.num_actors)
        .stage("learn", StageKind::Learn, 1)
        .stage("broadcast", StageKind::Broadcast, 1)
        .edge("rollout", "learn", config.agent.queue_capacity)
        .latest_edge("broadcast", "rollout")
        .build()
}

/// The default placement: actors on supervised threads, learner and
/// broadcast inline.
pub fn default_impala_placement() -> PlacementMap {
    PlacementMap::new()
        .place("rollout", Placement::ActorThread)
        .place("learn", Placement::InThread)
        .place("broadcast", Placement::InThread)
}

/// Runs IMPALA as a fragment graph under the given placement.
///
/// This is the executor behind [`run_impala`](crate::run_impala).
///
/// # Errors
///
/// Placement/graph validation errors, build errors, and
/// [`RlError::ActorCrashed`] for actors that died for good.
pub fn run_impala_fragments<F>(
    config: ImpalaDriverConfig,
    placement: PlacementMap,
    env_factory: F,
) -> RlResult<ImpalaRunStats>
where
    F: Fn(usize, usize) -> Box<dyn Env> + Send + Sync + 'static,
{
    let start = Instant::now();
    let recorder = config.recorder.clone();
    let graph = impala_graph(&config)?;
    let restart_policy = RetryPolicy {
        max_attempts: config.max_actor_restarts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(50),
        multiplier: 2.0,
        deadline: None,
    };
    let mut exec = FragmentExecutor::new(graph, placement, recorder.clone(), restart_policy)?;

    // The rollout→learn edge, materialized as the in-graph queue the
    // actor/learner dataflow graphs enqueue/dequeue through.
    let queue = TensorQueue::new("impala-rollouts", config.agent.queue_capacity);
    let frames_total = Arc::new(AtomicU64::new(0));
    let returns: Arc<parking_lot::Mutex<Vec<f32>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let env_factory = Arc::new(env_factory);

    let state_space: Space = env_factory(0, 0).state_space();
    let num_actions = env_factory(0, 0)
        .action_space()
        .num_categories()
        .map_err(|e| RlError::Core(CoreError::from(e)))?;

    // The broadcast→rollout edge: a versioned hub actors poll
    // (latest-wins by construction — stale snapshots are superseded).
    let weight_hub = Arc::new(WeightHub::new());

    {
        let queue = queue.clone();
        let frames_total = frames_total.clone();
        let returns = returns.clone();
        let env_factory = env_factory.clone();
        let weight_hub = weight_hub.clone();
        let rec = recorder.clone();
        let config = config.clone();
        exec.spawn_stage("rollout", move |a| {
            let queue = queue.clone();
            let frames_total = frames_total.clone();
            let returns = returns.clone();
            let env_factory = env_factory.clone();
            let weight_hub = weight_hub.clone();
            let rec = rec.clone();
            let mut agent_cfg = config.agent.clone();
            agent_cfg.seed = config.agent.seed.wrapping_add(a as u64 * 6151);
            let envs_per_actor = config.envs_per_actor;
            let sync_every = config.weight_sync_interval;
            let max_lag = config.max_weight_lag;
            let fault_plan = config.fault_plan.clone();
            let max_rollouts = config.max_rollouts_per_actor;
            // Persists across supervised restarts so injected-fault
            // draws advance instead of re-crashing at the same
            // coordinate.
            let mut rollouts: u64 = 0;
            move |stop: &AtomicBool| {
                let envs = VectorEnv::new((0..envs_per_actor).map(|e| env_factory(a, e)).collect())
                    .map_err(|e| RlError::Core(CoreError::new(e.message())))?;
                let rollout_us = rec.histogram("frag.rollout.rollout_us");
                let frames_ctr = rec.counter("frag.rollout.frames");
                let reward_gauge = rec.gauge("train.episode_reward");
                let forced_sync_ctr = rec.counter("frag.rollout.forced_syncs");
                let crash_ctr = rec.counter("frag.rollout.crashes");
                let mut actor = ImpalaActor::new(&agent_cfg, envs, queue.clone())?;
                let mut frames_before = 0u64;
                let mut weight_version = 0u64;
                while !stop.load(Ordering::Relaxed)
                    && max_rollouts.map(|k| rollouts < k).unwrap_or(true)
                {
                    // Scheduled pull every `sync_every` rollouts, plus a
                    // forced pull whenever the published version has run
                    // more than `max_lag` ahead (bounded staleness).
                    let lagging = weight_hub.version().saturating_sub(weight_version) > max_lag;
                    if rollouts.is_multiple_of(sync_every) || lagging {
                        if let Some(snap) = weight_hub.poll(weight_version) {
                            let _span = rec.span("actor.weight_sync");
                            if lagging {
                                forced_sync_ctr.inc();
                            }
                            actor.set_weights(&snap.weights)?;
                            weight_version = snap.version;
                        }
                    }
                    if fault_plan.draw(FaultKind::WorkerCrash, a, rollouts) {
                        rollouts += 1;
                        crash_ctr.inc();
                        return Err(RlError::ActorCrashed {
                            actor: format!("frag-rollout-{}", a),
                            reason: "injected fault".into(),
                        });
                    }
                    let t0 = Instant::now();
                    let rollout_res = {
                        let _span = rec.span("actor.rollout");
                        actor.rollout()
                    };
                    match rollout_res {
                        Ok(()) => rollout_us.record_duration(t0.elapsed()),
                        Err(_) if stop.load(Ordering::Relaxed) => break,
                        Err(e) => return Err(RlError::from(e)),
                    }
                    rollouts += 1;
                    let now = actor.env_frames();
                    frames_ctr.add(now - frames_before);
                    frames_total.fetch_add(now - frames_before, Ordering::Relaxed);
                    frames_before = now;
                    if let Some(r) = actor.mean_recent_return(20) {
                        reward_gauge.set(r as f64);
                        returns.lock().push(r);
                    }
                }
                Ok(())
            }
        })?;
    }

    // Learner driver (this thread), publishing through the inline
    // broadcast fragment after every update.
    let deadline = start + config.run_duration;
    let driver_res = exec.run_driver("learn", || {
        let mut learner = ImpalaLearner::new(
            &config.agent,
            state_space,
            num_actions,
            config.envs_per_actor,
            queue.clone(),
        )?;
        let mut losses = Vec::new();
        let learn_us = recorder.histogram("frag.learn.step_us");
        let queue_depth = recorder.gauge("frag.learn.mailbox_depth");
        let loss_gauge = recorder.gauge("train.loss");
        let updates_ctr = recorder.counter("frag.learn.updates");
        while Instant::now() < deadline
            && config.max_updates.map(|m| learner.num_updates() < m).unwrap_or(true)
        {
            queue_depth.set(queue.len() as f64);
            let t0 = Instant::now();
            let learn_res = {
                let _span = recorder.span("learner.step");
                learner.learn()
            };
            match learn_res {
                Ok(l) => {
                    learn_us.record_duration(t0.elapsed());
                    loss_gauge.set(l.total as f64);
                    updates_ctr.inc();
                    losses.push(l.total);
                    weight_hub.publish(learner.get_weights());
                }
                Err(_) => break,
            }
        }
        Ok((learner.num_updates(), losses))
    });

    // Finite rollout budgets exit on their own (raising the stop flag
    // or closing the queue early would truncate them
    // non-deterministically); otherwise stop the actors and unblock any
    // enqueue waiting on a full queue.
    let finite_rollouts = config.max_rollouts_per_actor.is_some();
    if !finite_rollouts {
        if let Some(stop) = exec.stop_flag("rollout") {
            stop.store(true, Ordering::Relaxed);
        }
        queue.close();
    }
    let rollout_res = exec.join_stage("rollout", false);
    if finite_rollouts {
        queue.close();
    }
    let shutdown_res = exec.shutdown();

    let (updates, losses) = driver_res?;
    rollout_res?;
    shutdown_res?;

    let wall_time = start.elapsed();
    let env_frames = frames_total.load(Ordering::Relaxed);
    let mean_return = {
        let r = returns.lock();
        r.last().copied()
    };
    Ok(ImpalaRunStats {
        env_frames,
        wall_time,
        frames_per_second: env_frames as f64 / wall_time.as_secs_f64().max(1e-9),
        updates,
        losses,
        mean_return,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_agents::{Backend, ImpalaConfig};
    use rlgraph_envs::RandomEnv;
    use rlgraph_nn::{Activation, NetworkSpec};

    fn tiny_config() -> ImpalaDriverConfig {
        ImpalaDriverConfig {
            agent: ImpalaConfig {
                backend: Backend::Static,
                network: NetworkSpec::mlp(&[8], Activation::Tanh),
                rollout_len: 4,
                queue_capacity: 4,
                seed: 2,
                ..ImpalaConfig::default()
            },
            num_actors: 2,
            envs_per_actor: 2,
            weight_sync_interval: 2,
            run_duration: Duration::from_millis(1200),
            max_updates: Some(20),
            ..ImpalaDriverConfig::default()
        }
    }

    #[test]
    fn impala_graph_declares_the_topology() {
        let g = impala_graph(&tiny_config()).unwrap();
        assert_eq!(g.replicas("rollout"), 2);
        assert_eq!(g.replicas("learn"), 1);
        let edge = g.edge("rollout", "learn").unwrap();
        assert_eq!(edge.capacity, 4);
        default_impala_placement().validate(&g, super::super::PlacementCaps::local()).unwrap();
    }

    #[test]
    fn fragment_impala_runs_and_learns() {
        let stats = run_impala_fragments(tiny_config(), default_impala_placement(), |a, e| {
            Box::new(RandomEnv::new(&[3], 2, 16, (a * 10 + e) as u64))
        })
        .unwrap();
        assert!(stats.updates > 0, "learner never updated");
        assert!(stats.env_frames > 0);
        assert!(stats.losses.iter().all(|l| l.is_finite()));
    }
}
