//! Deterministic chaos engine: stepped Ape-X under injected faults.
//!
//! The threaded executor ([`crate::ray::run_apex`]) cannot promise
//! bit-identical results under faults — OS scheduling decides which
//! worker wins each mailbox slot. This engine runs the *same* production
//! components (real [`ApexWorker`]s, real [`ShardCore`] replay, a real
//! [`DqnAgent`] learner) on a single-threaded virtual-time scheduler
//! (one tick = one collection/learn round), so a given
//! [`FaultPlan`] seed yields an identical fault schedule, identical
//! recovery actions, and identical post-recovery [`ApexRunStats`] on
//! every run. That determinism is what makes fault-tolerance testable:
//! the chaos bench and the proptest recovery suite both assert exact
//! reproducibility, not statistical similarity.
//!
//! Faults injected per tick, all drawn from the plan's pure hash:
//!
//! * **worker crash** — the worker's agent and env state are lost; the
//!   supervisor model restarts it `worker_restart_delay` ticks later and
//!   re-syncs weights on revival.
//! * **shard stall** — the shard stops serving for `shard_stall_steps`
//!   ticks; inserts fail over along the consistent-hash ring (a stalled
//!   shard's arc spills to its ring successors, see
//!   [`crate::cluster::HashRing`]), the learner's sample retries
//!   (through the real [`RetryPolicy`] against virtual time) or
//!   degrades to the shard quorum.
//! * **learner slowdown** — the learner loses the tick.
//! * **dropped weight sync** — one worker misses a broadcast and keeps
//!   acting on stale weights until `max_weight_lag` forces a pull.

use crate::checkpoint::LearnerCheckpoint;
use crate::cluster::HashRing;
use crate::driver::{DriverConfigBuilder, RunBudget};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::fragment::{
    apex_learn_step, apex_replica, apex_shard, FragmentCounter, ReplicaHealth, RunReport,
    SteppedExecutor, SteppedStages, TickCtx, TickFlow,
};
use crate::ray::ApexRunStats;
use crate::retry::{RetryPolicy, VirtualSleeper};
use crate::shard::{ShardCore, DEFAULT_MAILBOX_CAPACITY};
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::{DqnAgent, DqnConfig};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::Env;
use rlgraph_obs::{ClockSource, Counter, Histogram, Recorder, VirtualTime};
use rlgraph_spaces::Space;
use rlgraph_tensor::Tensor;
use std::time::Duration;

/// Virtual length of one scheduler tick.
const TICK_US: u64 = 1_000_000;

/// Completed episodes averaged when scoring a checkpoint for
/// best-checkpoint selection.
const CHECKPOINT_SCORE_WINDOW: usize = 20;

/// Configuration of a deterministic chaos run. Construct via
/// [`ChaosApexConfig::builder`]; the engine itself is
/// [`run_apex_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosApexConfig {
    /// learner/worker agent configuration
    pub agent: DqnConfig,
    /// number of (simulated) worker actors
    pub num_workers: usize,
    /// vectorised environments per worker
    pub envs_per_worker: usize,
    /// samples per collection task (one task per worker per tick)
    pub task_size: usize,
    /// replay shards feeding the learner
    pub num_shards: usize,
    /// broadcast weights every k learner updates
    pub weight_sync_interval: u64,
    /// scheduler ticks to run
    pub steps: u64,
    /// the seeded fault schedule
    pub fault_plan: FaultPlan,
    /// minimum healthy shards for the learner to sample (graceful
    /// degradation below `num_shards`, [`RlError::QuorumLost`] below this)
    pub shard_quorum: usize,
    /// take a learner checkpoint every k updates (`None` = never)
    pub checkpoint_every: Option<u64>,
    /// deterministically crash the learner at this tick and restore from
    /// the latest checkpoint (tests checkpoint/restore end to end)
    pub crash_learner_at: Option<u64>,
    /// ticks a crashed worker stays down before its supervised restart
    pub worker_restart_delay: u64,
    /// force a weight pull when a worker falls this many published
    /// versions behind (bounds stale-weight acting)
    pub max_weight_lag: u64,
    /// shards dead for the whole run (quorum-degradation scenarios)
    pub kill_shards: Vec<usize>,
    /// retry policy for the learner's cross-shard sample calls
    pub retry: RetryPolicy,
    /// observability recorder (`frag.<stage>.*` fault and recovery counters)
    pub recorder: Recorder,
}

impl Default for ChaosApexConfig {
    fn default() -> Self {
        ChaosApexConfig {
            agent: DqnConfig::default(),
            num_workers: 2,
            envs_per_worker: 2,
            task_size: 32,
            num_shards: 2,
            weight_sync_interval: 8,
            steps: 50,
            fault_plan: FaultPlan::disabled(),
            shard_quorum: 1,
            checkpoint_every: Some(16),
            crash_learner_at: None,
            worker_restart_delay: 2,
            max_weight_lag: 4,
            kill_shards: Vec::new(),
            retry: RetryPolicy::default(),
            recorder: Recorder::disabled(),
        }
    }
}

impl ChaosApexConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> ChaosApexConfigBuilder {
        ChaosApexConfigBuilder { draft: ChaosApexConfig::default() }
    }
}

/// Validating builder for [`ChaosApexConfig`]. The knobs every driver
/// shares (parallelism, sync cadence, budget, recorder, build) are set
/// through [`DriverConfigBuilder`].
#[derive(Debug, Clone)]
pub struct ChaosApexConfigBuilder {
    draft: ChaosApexConfig,
}

impl ChaosApexConfigBuilder {
    /// Learner/worker agent configuration.
    pub fn agent(mut self, agent: DqnConfig) -> Self {
        self.draft.agent = agent;
        self
    }

    /// Environments per worker.
    pub fn envs_per_worker(mut self, n: usize) -> Self {
        self.draft.envs_per_worker = n;
        self
    }

    /// Samples per collection task.
    pub fn task_size(mut self, n: usize) -> Self {
        self.draft.task_size = n;
        self
    }

    /// Replay shard count.
    pub fn num_shards(mut self, n: usize) -> Self {
        self.draft.num_shards = n;
        self
    }

    /// The seeded fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.draft.fault_plan = plan;
        self
    }

    /// Minimum healthy shards for learner sampling.
    pub fn shard_quorum(mut self, q: usize) -> Self {
        self.draft.shard_quorum = q;
        self
    }

    /// Checkpoint cadence in learner updates (`None` = never).
    pub fn checkpoint_every(mut self, k: Option<u64>) -> Self {
        self.draft.checkpoint_every = k;
        self
    }

    /// Crash the learner at this tick (restore from latest checkpoint).
    pub fn crash_learner_at(mut self, step: Option<u64>) -> Self {
        self.draft.crash_learner_at = step;
        self
    }

    /// Ticks a crashed worker stays down.
    pub fn worker_restart_delay(mut self, ticks: u64) -> Self {
        self.draft.worker_restart_delay = ticks;
        self
    }

    /// Stale-weight bound in published versions.
    pub fn max_weight_lag(mut self, versions: u64) -> Self {
        self.draft.max_weight_lag = versions;
        self
    }

    /// Shards dead for the whole run.
    pub fn kill_shards(mut self, shards: Vec<usize>) -> Self {
        self.draft.kill_shards = shards;
        self
    }

    /// Retry policy for learner sample calls.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.draft.retry = policy;
        self
    }
}

impl DriverConfigBuilder for ChaosApexConfigBuilder {
    type Config = ChaosApexConfig;

    fn parallelism(mut self, n: usize) -> Self {
        self.draft.num_workers = n;
        self
    }

    fn sync_every(mut self, k: u64) -> Self {
        self.draft.weight_sync_interval = k;
        self
    }

    fn budget(mut self, budget: RunBudget) -> Self {
        if let Some(n) = budget.steps {
            self.draft.steps = n;
        }
        self
    }

    fn observe_with(mut self, recorder: Recorder) -> Self {
        self.draft.recorder = recorder;
        self
    }

    /// # Errors
    ///
    /// [`RlError::Core`] naming the first violated invariant.
    fn try_build(self) -> RlResult<ChaosApexConfig> {
        let c = self.draft;
        let fail = |msg: String| Err(RlError::Core(CoreError::new(msg)));
        if c.num_workers == 0 {
            return fail("chaos config: num_workers must be at least 1".into());
        }
        if c.envs_per_worker == 0 || c.task_size == 0 {
            return fail("chaos config: envs_per_worker and task_size must be positive".into());
        }
        if c.num_shards == 0 {
            return fail("chaos config: num_shards must be at least 1".into());
        }
        if c.shard_quorum == 0 || c.shard_quorum > c.num_shards {
            return fail(format!(
                "chaos config: shard_quorum {} outside 1..={}",
                c.shard_quorum, c.num_shards
            ));
        }
        if c.steps == 0 || c.weight_sync_interval == 0 {
            return fail("chaos config: steps and weight_sync_interval must be positive".into());
        }
        if c.worker_restart_delay == 0 || c.max_weight_lag == 0 {
            return fail(
                "chaos config: worker_restart_delay and max_weight_lag must be positive".into(),
            );
        }
        if let Some(&bad) = c.kill_shards.iter().find(|&&s| s >= c.num_shards) {
            return fail(format!(
                "chaos config: kill_shards index {} outside 0..{}",
                bad, c.num_shards
            ));
        }
        if let Some(step) = c.crash_learner_at {
            if step >= c.steps {
                return fail(format!(
                    "chaos config: crash_learner_at {} beyond step budget {}",
                    step, c.steps
                ));
            }
        }
        Ok(c)
    }
}

/// What actually happened during a chaos run. Derives `PartialEq` so the
/// determinism contract can be asserted exactly: same seed, same report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosReport {
    /// every injected fault, in `(step, kind, target)` order
    pub events: Vec<FaultEvent>,
    /// worker crashes injected
    pub worker_crashes: u64,
    /// supervised worker restarts performed
    pub worker_restarts: u64,
    /// shard stall windows opened
    pub shard_stalls: u64,
    /// learner ticks lost to slowdowns
    pub learner_slowdowns: u64,
    /// weight broadcasts dropped on the way to a worker
    pub dropped_syncs: u64,
    /// stale workers force-pulled at the lag bound
    pub forced_syncs: u64,
    /// worst weight lag (published versions) any worker acted on
    pub max_weight_lag_seen: u64,
    /// ticks degraded below shard quorum (no learner progress)
    pub degraded_steps: u64,
    /// extra learner sample attempts spent in retries
    pub sample_retries: u64,
    /// checkpoints captured
    pub checkpoints: u64,
    /// learner restores from checkpoint
    pub restores: u64,
    /// learner updates performed (mirrored from the run stats so the
    /// report alone satisfies the uniform [`RunReport`] surface)
    pub updates: u64,
    /// virtual time of the run, in µs
    pub virtual_time_us: u64,
    /// recovery latency of every crash/restore, in virtual µs
    pub recovery_latencies_us: Vec<u64>,
    /// learner state at the end of the run, for post-hoc policy
    /// evaluation — recorded episode returns under-report a faulted run
    /// because crashes truncate episodes before they complete
    pub final_checkpoint: Option<LearnerCheckpoint>,
    /// the best checkpoint banked during the run, scored by the mean of
    /// the recent completed-episode returns at capture time — the
    /// artifact a deployment would restore, and the one to evaluate
    pub best_checkpoint: Option<LearnerCheckpoint>,
    /// recorded-return score of [`ChaosReport::best_checkpoint`]
    pub best_checkpoint_return: f64,
}

impl ChaosReport {
    fn percentile(&self, q: f64) -> u64 {
        if self.recovery_latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.recovery_latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median recovery latency (virtual µs).
    pub fn recovery_p50_us(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile recovery latency (virtual µs).
    pub fn recovery_p99_us(&self) -> u64 {
        self.percentile(0.99)
    }
}

impl RunReport for ChaosReport {
    fn updates(&self) -> u64 {
        self.updates
    }

    fn wall_time(&self) -> Duration {
        Duration::from_micros(self.virtual_time_us)
    }

    fn fragment_counters(&self) -> Vec<FragmentCounter> {
        vec![
            FragmentCounter::new("rollout", "crashes", self.worker_crashes as f64),
            FragmentCounter::new("rollout", "restarts", self.worker_restarts as f64),
            FragmentCounter::new("replay", "stalls", self.shard_stalls as f64),
            FragmentCounter::new("learn", "slowdowns", self.learner_slowdowns as f64),
            FragmentCounter::new("learn", "degraded_steps", self.degraded_steps as f64),
            FragmentCounter::new("learn", "sample_retries", self.sample_retries as f64),
            FragmentCounter::new("broadcast", "dropped_syncs", self.dropped_syncs as f64),
            FragmentCounter::new("broadcast", "forced_syncs", self.forced_syncs as f64),
            FragmentCounter::new("eval", "checkpoints", self.checkpoints as f64),
            FragmentCounter::new("eval", "restores", self.restores as f64),
        ]
    }
}

struct WorkerSlot {
    worker: ApexWorker,
    /// supervised restarts so far: each draws a fresh exploration seed
    incarnation: u64,
    seen_version: u64,
    /// tick at which a crashed worker comes back, if down
    down_until: Option<u64>,
    task: u64,
}

fn make_worker<F>(
    config: &ChaosApexConfig,
    env_factory: &F,
    w: usize,
    incarnation: u64,
) -> RlResult<ApexWorker>
where
    F: Fn(usize, usize) -> Box<dyn Env>,
{
    let envs = (0..config.envs_per_worker).map(|e| env_factory(w, e)).collect();
    apex_replica(&config.agent, w, config.num_workers, incarnation, envs)
}

/// The chaos engine as a stepped fragment graph: each [`SteppedStages`]
/// tick is one fragment's turn, and fault injection, checkpointing and
/// quorum degradation live in the fragment they concern (shard stalls
/// in the replay tick, worker crashes in the rollout tick, learner
/// crash/slowdown/quorum in the learn tick, sync drops in the broadcast
/// tick, checkpoint banking in the eval tick).
struct ChaosState<'a, F: Fn(usize, usize) -> Box<dyn Env>> {
    config: &'a ChaosApexConfig,
    env_factory: &'a F,
    recorder: Recorder,
    crash_ctr: Counter,
    restart_ctr: Counter,
    stall_ctr: Counter,
    retry_ctr: Counter,
    degraded_ctr: Counter,
    checkpoint_ctr: Counter,
    restore_ctr: Counter,
    recovery_us_hist: Histogram,
    sleeper: VirtualSleeper,
    report: ChaosReport,
    shard_cores: Vec<ShardCore>,
    shards: ReplicaHealth,
    workers: Vec<WorkerSlot>,
    state_space: Space,
    action_space: Space,
    learner: DqnAgent,
    weight_version: u64,
    published: Vec<(String, Tensor)>,
    last_checkpoint: Option<LearnerCheckpoint>,
    env_frames: u64,
    samples_collected: u64,
    updates: u64,
    losses: Vec<f32>,
    reward_timeline: Vec<(f64, f32)>,
    learner_rr: usize,
    /// consistent-hash ring over shard ids: trajectory routing and
    /// failover walk this, so a down shard moves only its own arc
    ring: HashRing,
}

impl<F: Fn(usize, usize) -> Box<dyn Env>> SteppedStages for ChaosState<'_, F> {
    fn replay_tick(&mut self, ctx: &TickCtx<'_>) -> RlResult<()> {
        let step = ctx.step;
        let plan = &self.config.fault_plan;
        for s in 0..self.config.num_shards {
            if self.shards.is_up(s, step) && plan.draw(FaultKind::ShardStall, s, step) {
                self.shards.stall(s, step + plan.shard_stall_steps());
                self.report.shard_stalls += 1;
                self.stall_ctr.inc();
                self.report.events.push(FaultEvent {
                    step,
                    kind: FaultKind::ShardStall,
                    target: s,
                });
            }
        }
        Ok(())
    }

    fn rollout_tick(&mut self, ctx: &TickCtx<'_>) -> RlResult<()> {
        let step = ctx.step;
        let plan = &self.config.fault_plan;
        for (w, slot) in self.workers.iter_mut().enumerate() {
            if let Some(back_at) = slot.down_until {
                if step < back_at {
                    continue; // still down
                }
                // Supervised restart: fresh worker (and exploration
                // seed), pulls current weights.
                slot.incarnation += 1;
                slot.worker = make_worker(self.config, self.env_factory, w, slot.incarnation)?;
                slot.worker.agent_mut().set_weights(&self.published)?;
                slot.seen_version = self.weight_version;
                slot.down_until = None;
                self.report.worker_restarts += 1;
                self.restart_ctr.inc();
                let latency = self.config.worker_restart_delay * TICK_US;
                self.report.recovery_latencies_us.push(latency);
                self.recovery_us_hist.record(latency as f64);
            }
            if plan.draw(FaultKind::WorkerCrash, w, step) {
                slot.down_until = Some(step + self.config.worker_restart_delay);
                self.report.worker_crashes += 1;
                self.crash_ctr.inc();
                self.recorder.flight_note(
                    "chaos.worker_crash",
                    format!(
                        "step {}: worker {} down {} ticks",
                        step, w, self.config.worker_restart_delay
                    ),
                );
                self.report.events.push(FaultEvent {
                    step,
                    kind: FaultKind::WorkerCrash,
                    target: w,
                });
                continue; // this tick's task is lost with the crash
            }
            // Bounded staleness: force a pull past the lag limit.
            let lag = self.weight_version - slot.seen_version;
            self.report.max_weight_lag_seen = self.report.max_weight_lag_seen.max(lag);
            if lag > self.config.max_weight_lag {
                slot.worker.agent_mut().set_weights(&self.published)?;
                slot.seen_version = self.weight_version;
                self.report.forced_syncs += 1;
            }
            let batch = slot.worker.collect(self.config.task_size)?;
            self.env_frames += batch.env_frames;
            self.samples_collected += batch.len() as u64;
            let now = Duration::from_micros(ctx.clock.now_micros()).as_secs_f64();
            for r in &batch.episode_returns {
                self.reward_timeline.push((now, *r));
            }
            // Ring-routed insert: the (worker, task) key hashes to a
            // home shard; failover walks the ring's successors, so a
            // stalled shard's keys spill to its neighbours instead of
            // re-dealing every worker's traffic.
            let key = ((w as u64) << 32) | slot.task;
            slot.task += 1;
            let shards = &self.shards;
            if let Some(target) = self.ring.assign_filtered(key, |s| shards.is_up(s as usize, step))
            {
                self.shard_cores[target as usize].insert(batch.transitions, batch.priorities);
            }
            // No shard up at all: the task's experience is lost, which is
            // exactly what happens when every mailbox is unreachable.
        }
        Ok(())
    }

    fn learn_tick(&mut self, ctx: &TickCtx<'_>) -> RlResult<TickFlow> {
        let step = ctx.step;
        let plan = &self.config.fault_plan;

        // -- deterministic learner crash + restore ----------------------
        if self.config.crash_learner_at == Some(step) {
            // The learner crash is the chaos suite's post-mortem moment:
            // dump whatever the flight ring retained to stderr before the
            // restore overwrites state (the report stays dump-free so the
            // same-seed-same-report determinism contract is unaffected).
            self.recorder.flight_note("chaos.learner_crash", format!("step {}: restoring", step));
            if let Some(dump) = self.recorder.flight_render("chaos: learner crash injected") {
                eprintln!("{}", dump);
            }
            self.learner =
                DqnAgent::new(self.config.agent.clone(), &self.state_space, &self.action_space)?;
            if let Some(ckpt) = &self.last_checkpoint {
                ckpt.restore(&mut self.learner)?;
                self.weight_version = ckpt.weight_version;
            } else {
                self.weight_version = 0;
            }
            self.published = self.learner.get_weights();
            self.report.restores += 1;
            self.restore_ctr.inc();
            self.report.recovery_latencies_us.push(TICK_US);
            self.recovery_us_hist.record(TICK_US as f64);
            return Ok(TickFlow::Skip); // the restore costs the tick
        }

        if plan.draw(FaultKind::LearnerSlowdown, 0, step) {
            self.report.learner_slowdowns += 1;
            self.report.events.push(FaultEvent {
                step,
                kind: FaultKind::LearnerSlowdown,
                target: 0,
            });
            return Ok(TickFlow::Skip);
        }
        if self.shards.up_count(step) < self.config.shard_quorum {
            // Graceful degradation: below quorum the learner pauses
            // rather than training on a skewed shard subset.
            self.report.degraded_steps += 1;
            self.degraded_ctr.inc();
            return Ok(TickFlow::Skip);
        }
        let rr = self.learner_rr;
        self.learner_rr += 1;
        let mut attempts_used: u32 = 0;
        // Each sample round keys the ring with a fresh counter; retry
        // attempts walk the key's successor list, so a stalled home
        // shard fails over to its ring neighbour, not a global probe.
        let order = self.ring.successors(rr as u64, self.config.num_shards);
        let (batch_size, beta) = (self.config.agent.batch_size, self.config.agent.beta);
        let shards = &self.shards;
        let shard_cores = &mut self.shard_cores;
        let sampled = self.config.retry.run(&self.sleeper, |attempt| {
            attempts_used = attempt + 1;
            let idx = order[attempt as usize % order.len()] as usize;
            if !shards.is_up(idx, step) {
                return Err(RlError::MailboxFull { capacity: DEFAULT_MAILBOX_CAPACITY });
            }
            Ok((idx, shard_cores[idx].sample(batch_size, beta)))
        });
        self.report.sample_retries += attempts_used.saturating_sub(1) as u64;
        self.retry_ctr.add(attempts_used.saturating_sub(1) as u64);
        let (shard_idx, batch) = match sampled {
            Ok((idx, Some(batch))) => (idx, batch),
            Ok((_, None)) => {
                // under-filled shard: not a fault, just warm-up
                return Ok(TickFlow::Skip);
            }
            Err(e) if !e.is_fatal() => return Ok(TickFlow::Skip),
            Err(RlError::RetriesExhausted { .. }) => return Ok(TickFlow::Skip),
            Err(e) => return Err(e),
        };
        let (loss, indices, priorities) = apex_learn_step(&mut self.learner, batch)?;
        self.losses.push(loss);
        self.updates += 1;
        self.shard_cores[shard_idx].update_priorities(indices, priorities);
        Ok(TickFlow::Continue)
    }

    fn broadcast_tick(&mut self, ctx: &TickCtx<'_>) -> RlResult<()> {
        let step = ctx.step;
        let plan = &self.config.fault_plan;
        if self.updates.is_multiple_of(self.config.weight_sync_interval) {
            self.weight_version += 1;
            self.published = self.learner.get_weights();
            for (w, slot) in self.workers.iter_mut().enumerate() {
                if slot.down_until.is_some() {
                    continue;
                }
                if plan.draw(FaultKind::DropWeightSync, w, step) {
                    self.report.dropped_syncs += 1;
                    self.report.events.push(FaultEvent {
                        step,
                        kind: FaultKind::DropWeightSync,
                        target: w,
                    });
                    continue;
                }
                slot.worker.agent_mut().set_weights(&self.published)?;
                slot.seen_version = self.weight_version;
            }
        }
        Ok(())
    }

    fn eval_tick(&mut self, _ctx: &TickCtx<'_>) -> RlResult<()> {
        if let Some(every) = self.config.checkpoint_every {
            if self.updates > 0 && self.updates.is_multiple_of(every) {
                let watermarks = self.shard_cores.iter().map(|c| c.watermark()).collect();
                let ckpt =
                    LearnerCheckpoint::capture(&self.learner, self.weight_version, watermarks);
                // Bank the best checkpoint by recent recorded return; a
                // deployment restores its best known-good snapshot, not
                // whatever the learner happened to hold when it stopped.
                let tail = self.reward_timeline.len().saturating_sub(CHECKPOINT_SCORE_WINDOW);
                let recent = &self.reward_timeline[tail..];
                if !recent.is_empty() {
                    let score =
                        recent.iter().map(|(_, r)| *r as f64).sum::<f64>() / recent.len() as f64;
                    if self.report.best_checkpoint.is_none()
                        || score > self.report.best_checkpoint_return
                    {
                        self.report.best_checkpoint_return = score;
                        self.report.best_checkpoint = Some(ckpt.clone());
                    }
                }
                self.last_checkpoint = Some(ckpt);
                self.report.checkpoints += 1;
                self.checkpoint_ctr.inc();
            }
        }
        Ok(())
    }
}

/// Runs Ape-X under the configured fault plan on the deterministic
/// stepped scheduler and reports run statistics plus fault accounting.
///
/// `env_factory(worker, env_index)` builds each environment copy (also
/// re-invoked when a crashed worker restarts).
///
/// # Errors
///
/// Build errors and fatal learner errors; injected faults never error
/// the run — surviving them is the point.
pub fn run_apex_chaos<F>(
    config: ChaosApexConfig,
    env_factory: F,
) -> RlResult<(ApexRunStats, ChaosReport)>
where
    F: Fn(usize, usize) -> Box<dyn Env>,
{
    let exec = SteppedExecutor::new(VirtualTime::new(), TICK_US);
    let sleeper = VirtualSleeper::new(exec.clock().clone());
    let recorder = config.recorder.clone();

    // Shards: real replay cores, per-shard liveness state.
    let shard_cores: Vec<ShardCore> =
        (0..config.num_shards).map(|i| apex_shard(&config.agent, i)).collect();
    let mut shards = ReplicaHealth::new(config.num_shards);
    for &s in &config.kill_shards {
        shards.kill(s);
    }

    // Workers: same construction as the threaded executor.
    let mut workers: Vec<WorkerSlot> = Vec::with_capacity(config.num_workers);
    for w in 0..config.num_workers {
        let worker = make_worker(&config, &env_factory, w, 0)?;
        workers.push(WorkerSlot {
            worker,
            incarnation: 0,
            seen_version: 0,
            down_until: None,
            task: 0,
        });
    }

    // Learner.
    let state_space = env_factory(0, 0).state_space();
    let action_space = env_factory(0, 0).action_space();
    let learner = DqnAgent::new(config.agent.clone(), &state_space, &action_space)?;
    let published = learner.get_weights();

    let mut state = ChaosState {
        crash_ctr: recorder.counter("frag.rollout.crashes"),
        restart_ctr: recorder.counter("frag.rollout.restarts"),
        stall_ctr: recorder.counter("frag.replay.stalls"),
        retry_ctr: recorder.counter("frag.learn.sample_retries"),
        degraded_ctr: recorder.counter("frag.learn.degraded_steps"),
        checkpoint_ctr: recorder.counter("frag.eval.checkpoints"),
        restore_ctr: recorder.counter("frag.eval.restores"),
        recovery_us_hist: recorder.histogram("frag.learn.recovery_us"),
        config: &config,
        env_factory: &env_factory,
        recorder: recorder.clone(),
        sleeper,
        report: ChaosReport::default(),
        shard_cores,
        shards,
        workers,
        state_space,
        action_space,
        learner,
        weight_version: 0,
        published,
        last_checkpoint: None,
        env_frames: 0,
        samples_collected: 0,
        updates: 0,
        losses: Vec::new(),
        reward_timeline: Vec::new(),
        learner_rr: 0,
        ring: HashRing::with_nodes(config.num_shards as u32),
    };

    exec.run(&mut state, config.steps)?;

    // Final learner snapshot so callers can evaluate the learned policy
    // on clean environments after the run.
    let final_watermarks = state.shard_cores.iter().map(|c| c.watermark()).collect();
    state.report.final_checkpoint =
        Some(LearnerCheckpoint::capture(&state.learner, state.weight_version, final_watermarks));
    state.report.updates = state.updates;
    state.report.virtual_time_us = exec.clock().now_micros();

    let wall_time = Duration::from_micros(exec.clock().now_micros());
    let stats = ApexRunStats {
        env_frames: state.env_frames,
        samples_collected: state.samples_collected,
        wall_time,
        frames_per_second: state.env_frames as f64 / wall_time.as_secs_f64().max(1e-9),
        updates: state.updates,
        losses: state.losses,
        reward_timeline: state.reward_timeline,
    };
    Ok((stats, state.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_agents::Backend;
    use rlgraph_envs::RandomEnv;
    use rlgraph_nn::{Activation, NetworkSpec};

    fn tiny_agent(seed: u64) -> DqnConfig {
        DqnConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            memory_capacity: 256,
            batch_size: 8,
            n_step: 2,
            target_sync_every: 50,
            seed,
            ..DqnConfig::default()
        }
    }

    fn env_factory(w: usize, e: usize) -> Box<dyn Env> {
        Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
    }

    fn chaos_config(seed: u64, steps: u64) -> ChaosApexConfig {
        ChaosApexConfig::builder()
            .agent(tiny_agent(7))
            .parallelism(2)
            .envs_per_worker(2)
            .task_size(24)
            .num_shards(2)
            .budget(RunBudget::steps(steps))
            .sync_every(4)
            .fault_plan(
                FaultPlan::builder(seed)
                    .worker_crash_rate(0.2)
                    .shard_stall(0.1, 3)
                    .learner_slowdown_rate(0.1)
                    .weight_drop_rate(0.2)
                    .build()
                    .unwrap(),
            )
            .checkpoint_every(Some(8))
            .try_build()
            .unwrap()
    }

    #[test]
    fn builder_enforces_invariants() {
        assert!(ChaosApexConfig::builder().parallelism(0).try_build().is_err());
        assert!(ChaosApexConfig::builder().num_shards(2).shard_quorum(3).try_build().is_err());
        assert!(ChaosApexConfig::builder().num_shards(2).kill_shards(vec![5]).try_build().is_err());
        assert!(ChaosApexConfig::builder()
            .budget(RunBudget::steps(10))
            .crash_learner_at(Some(12))
            .try_build()
            .is_err());
        assert!(ChaosApexConfig::builder().max_weight_lag(0).try_build().is_err());
        assert!(ChaosApexConfig::builder().try_build().is_ok());
    }

    #[test]
    fn chaos_run_survives_faults_and_learns() {
        let (stats, report) = run_apex_chaos(chaos_config(42, 30), env_factory).unwrap();
        assert!(stats.updates > 0, "no learner progress under faults");
        assert!(stats.env_frames > 0);
        assert!(stats.losses.iter().all(|l| l.is_finite()));
        assert!(report.worker_crashes > 0, "plan should have injected crashes");
        assert_eq!(
            report.events.iter().filter(|e| e.kind == FaultKind::WorkerCrash).count() as u64,
            report.worker_crashes
        );
        // every completed downtime window produced a supervised restart
        assert!(report.worker_restarts > 0);
        assert!(report.checkpoints > 0);
        assert!(report.recovery_p50_us() >= TICK_US);
        assert!(report.recovery_p99_us() >= report.recovery_p50_us());
    }

    #[test]
    fn same_seed_bit_identical_stats_and_schedule() {
        let (s1, r1) = run_apex_chaos(chaos_config(11, 25), env_factory).unwrap();
        let (s2, r2) = run_apex_chaos(chaos_config(11, 25), env_factory).unwrap();
        assert_eq!(r1, r2, "fault schedule and recovery accounting must be identical");
        assert_eq!(s1.env_frames, s2.env_frames);
        assert_eq!(s1.samples_collected, s2.samples_collected);
        assert_eq!(s1.updates, s2.updates);
        assert_eq!(s1.losses, s2.losses);
        assert_eq!(s1.reward_timeline, s2.reward_timeline);

        let (_, r3) = run_apex_chaos(chaos_config(12, 25), env_factory).unwrap();
        assert_ne!(r1.events, r3.events, "different seed should inject differently");
    }

    #[test]
    fn learner_crash_restores_from_checkpoint() {
        let config = ChaosApexConfig::builder()
            .agent(tiny_agent(3))
            .parallelism(1)
            .envs_per_worker(2)
            .task_size(32)
            .num_shards(1)
            .budget(RunBudget::steps(20))
            .sync_every(2)
            .checkpoint_every(Some(2))
            .crash_learner_at(Some(12))
            .try_build()
            .unwrap();
        let (stats, report) = run_apex_chaos(config, env_factory).unwrap();
        assert_eq!(report.restores, 1);
        assert!(report.checkpoints >= 1);
        assert!(stats.updates > 0);
    }

    #[test]
    fn quorum_degradation_with_dead_shard() {
        // 1 of 3 shards permanently dead, quorum 2: learning continues.
        let progressing = ChaosApexConfig::builder()
            .agent(tiny_agent(5))
            .parallelism(1)
            .envs_per_worker(2)
            .task_size(32)
            .num_shards(3)
            .shard_quorum(2)
            .budget(RunBudget::steps(15))
            .kill_shards(vec![1])
            .try_build()
            .unwrap();
        let (stats, report) = run_apex_chaos(progressing, env_factory).unwrap();
        assert!(stats.updates > 0, "quorum held, learner must progress");
        assert_eq!(report.degraded_steps, 0);

        // 2 of 3 dead, quorum 2: every tick degrades, zero updates.
        let degraded = ChaosApexConfig::builder()
            .agent(tiny_agent(5))
            .parallelism(1)
            .envs_per_worker(2)
            .task_size(32)
            .num_shards(3)
            .shard_quorum(2)
            .budget(RunBudget::steps(10))
            .kill_shards(vec![0, 2])
            .try_build()
            .unwrap();
        let (stats, report) = run_apex_chaos(degraded, env_factory).unwrap();
        assert_eq!(stats.updates, 0);
        assert_eq!(report.degraded_steps, 10);
    }

    #[test]
    fn ring_failover_is_bit_identical_and_spills_to_successors() {
        // A permanently dead shard exercises the ring failover path on
        // every insert homed there; routing through the ring must keep
        // the same-seed bit-identity contract.
        let cfg = || {
            ChaosApexConfig::builder()
                .agent(tiny_agent(9))
                .parallelism(2)
                .envs_per_worker(2)
                .task_size(24)
                .num_shards(3)
                .shard_quorum(2)
                .budget(RunBudget::steps(20))
                .kill_shards(vec![1])
                .fault_plan(FaultPlan::builder(21).shard_stall(0.15, 2).build().unwrap())
                .try_build()
                .unwrap()
        };
        let (s1, r1) = run_apex_chaos(cfg(), env_factory).unwrap();
        let (s2, r2) = run_apex_chaos(cfg(), env_factory).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1.samples_collected, s2.samples_collected);
        assert_eq!(s1.losses, s2.losses);
        assert!(s1.updates > 0, "ring failover must keep the learner fed");

        // The failover target the engine uses is the ring successor:
        // for keys homed on the dead shard, assign_filtered lands on
        // the next distinct node clockwise, never on a fixed shard.
        let ring = HashRing::with_nodes(3);
        for key in 0..500u64 {
            if ring.assign(key) == Some(1) {
                let spill = ring.assign_filtered(key, |s| s != 1).unwrap();
                assert_eq!(spill, ring.successors(key, 2)[1]);
            }
        }
    }
}
