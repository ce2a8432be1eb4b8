//! The Ray-style centralized Ape-X executor (paper §5.1, Figs. 6/7).
//!
//! A coordinator spawns worker actors (each: local rlgraph agent + vector
//! of environments + n-step post-processing + worker-side prioritisation),
//! replay-shard actors, and drives the learner loop: pull samples from
//! shards round-robin, update, push priorities back, and broadcast weights
//! on a schedule. Threads + channels stand in for Ray actors + RPC.

use crate::driver::{DriverConfigBuilder, RunBudget};
use crate::fault::FaultPlan;
use crate::retry::RetryPolicy;
use rlgraph_agents::DqnConfig;
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::Env;
use rlgraph_obs::Recorder;
use std::time::Duration;

/// Configuration of an Ape-X run.
///
/// Prefer [`ApexRunConfig::builder`], which validates ranges and
/// cross-field invariants before the run starts; a struct literal
/// bypasses validation, so an inconsistent config only surfaces mid-run.
#[derive(Debug, Clone)]
pub struct ApexRunConfig {
    /// learner/worker agent configuration
    pub agent: DqnConfig,
    /// number of worker actors
    pub num_workers: usize,
    /// vectorised environments per worker (paper: 4)
    pub envs_per_worker: usize,
    /// samples per collection task (paper Fig. 7a sweeps this)
    pub task_size: usize,
    /// replay shards feeding the learner (paper: 4)
    pub num_shards: usize,
    /// broadcast weights every k learner updates
    pub weight_sync_interval: u64,
    /// stop after this wall-clock duration
    pub run_duration: Duration,
    /// optional hard cap on learner updates
    pub max_updates: Option<u64>,
    /// optional fixed task budget per worker: each worker collects
    /// exactly this many tasks and exits on its own (the run does not
    /// drain the remaining wall budget, and the stop flag is not raised
    /// early). With one worker and no weight syncs this makes the
    /// collected trajectory stream deterministic per seed — the parity
    /// suite relies on it
    pub max_tasks_per_worker: Option<u64>,
    /// observability recorder shared by learner, workers and shards
    /// (defaults to the no-op recorder)
    pub recorder: Recorder,
    /// seeded fault injection (defaults to [`FaultPlan::disabled`]);
    /// active plans crash workers and drop weight broadcasts, exercising
    /// the supervision/retry machinery on the real threaded executor
    pub fault_plan: FaultPlan,
    /// retry policy for worker→shard submissions (backoff on a saturated
    /// mailbox before falling back to a blocking send)
    pub retry: RetryPolicy,
    /// restart budget per supervised worker (body invocations)
    pub max_worker_restarts: u32,
}

impl Default for ApexRunConfig {
    fn default() -> Self {
        ApexRunConfig {
            agent: DqnConfig::default(),
            num_workers: 2,
            envs_per_worker: 4,
            task_size: 64,
            num_shards: 2,
            weight_sync_interval: 16,
            run_duration: Duration::from_secs(5),
            max_updates: None,
            max_tasks_per_worker: None,
            recorder: Recorder::disabled(),
            fault_plan: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            max_worker_restarts: 16,
        }
    }
}

impl ApexRunConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> ApexRunConfigBuilder {
        ApexRunConfigBuilder { draft: ApexRunConfig::default() }
    }
}

/// Validating builder for [`ApexRunConfig`]. The knobs every driver
/// shares (parallelism, sync cadence, budget, recorder, build) are set
/// through [`DriverConfigBuilder`].
#[derive(Debug, Clone)]
pub struct ApexRunConfigBuilder {
    draft: ApexRunConfig,
}

impl ApexRunConfigBuilder {
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

    /// Optional fixed task budget per worker (see
    /// [`ApexRunConfig::max_tasks_per_worker`]).
    pub fn max_tasks_per_worker(mut self, cap: Option<u64>) -> Self {
        self.draft.max_tasks_per_worker = cap;
        self
    }

    /// Seeded fault injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.draft.fault_plan = plan;
        self
    }

    /// Retry policy for worker→shard submissions.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.draft.retry = policy;
        self
    }

    /// Restart budget per supervised worker.
    pub fn max_worker_restarts(mut self, n: u32) -> Self {
        self.draft.max_worker_restarts = n;
        self
    }
}

impl DriverConfigBuilder for ApexRunConfigBuilder {
    type Config = ApexRunConfig;

    fn parallelism(mut self, n: usize) -> Self {
        self.draft.num_workers = n;
        self
    }

    fn sync_every(mut self, k: u64) -> Self {
        self.draft.weight_sync_interval = k;
        self
    }

    fn budget(mut self, budget: RunBudget) -> Self {
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
    /// [`RlError::Core`] naming the first violated invariant
    /// (`num_workers/envs_per_worker/task_size/num_shards ≥ 1`,
    /// `weight_sync_interval ≥ 1`, positive `run_duration`, non-zero
    /// `max_updates` cap, `max_worker_restarts ≥ 1`).
    fn try_build(self) -> RlResult<ApexRunConfig> {
        let c = self.draft;
        let fail = |msg: String| Err(RlError::Core(CoreError::new(msg)));
        if c.num_workers == 0 || c.envs_per_worker == 0 {
            return fail("apex config: num_workers and envs_per_worker must be positive".into());
        }
        if c.task_size == 0 || c.num_shards == 0 {
            return fail("apex config: task_size and num_shards must be positive".into());
        }
        if c.weight_sync_interval == 0 {
            return fail("apex config: weight_sync_interval must be positive".into());
        }
        if c.run_duration.is_zero() {
            return fail("apex config: run_duration must be positive".into());
        }
        if c.max_updates == Some(0) {
            return fail("apex config: max_updates cap of 0 would never run".into());
        }
        if c.max_tasks_per_worker == Some(0) {
            return fail("apex config: max_tasks_per_worker cap of 0 would never collect".into());
        }
        if c.max_worker_restarts == 0 {
            return fail("apex config: max_worker_restarts must be at least 1".into());
        }
        Ok(c)
    }
}

/// Aggregate statistics of an Ape-X run.
#[derive(Debug, Clone, Default)]
pub struct ApexRunStats {
    /// environment frames consumed across all workers (incl. frame skip)
    pub env_frames: u64,
    /// post-processed samples shipped to shards
    pub samples_collected: u64,
    /// wall time of the run
    pub wall_time: Duration,
    /// frames per second
    pub frames_per_second: f64,
    /// learner updates performed
    pub updates: u64,
    /// learner losses over time
    pub losses: Vec<f32>,
    /// `(seconds since start, episode return)` for every finished episode
    pub reward_timeline: Vec<(f64, f32)>,
}

impl crate::fragment::RunReport for ApexRunStats {
    fn updates(&self) -> u64 {
        self.updates
    }

    fn wall_time(&self) -> Duration {
        self.wall_time
    }

    fn fragment_counters(&self) -> Vec<crate::fragment::FragmentCounter> {
        vec![
            crate::fragment::FragmentCounter::new("rollout", "env_frames", self.env_frames as f64),
            crate::fragment::FragmentCounter::new(
                "rollout",
                "samples",
                self.samples_collected as f64,
            ),
            crate::fragment::FragmentCounter::new("learn", "updates", self.updates as f64),
        ]
    }
}

impl ApexRunStats {
    /// Mean of the most recent `n` episode returns.
    pub fn mean_recent_return(&self, n: usize) -> Option<f32> {
        if self.reward_timeline.is_empty() {
            return None;
        }
        let tail = &self.reward_timeline[self.reward_timeline.len().saturating_sub(n)..];
        Some(tail.iter().map(|(_, r)| r).sum::<f32>() / tail.len() as f32)
    }
}

/// Per-worker exploration constant, as in the Ape-X paper:
/// `eps_i = 0.4^(1 + 7 i / (n-1))`.
pub fn apex_worker_epsilon(worker: usize, num_workers: usize) -> f32 {
    let alpha = if num_workers <= 1 { 0.0 } else { 7.0 * worker as f32 / (num_workers - 1) as f32 };
    0.4f32.powf(1.0 + alpha)
}

/// Runs distributed prioritized experience replay and returns throughput
/// and learning statistics.
///
/// `env_factory(worker, env_index)` builds each environment copy (also
/// re-invoked when a supervised worker restarts after a crash).
///
/// This is a thin wrapper over the fragment executor: the run is
/// declared as a [fragment graph](crate::fragment::apex_graph) and
/// executed under the
/// [default placement](crate::fragment::default_apex_placement) —
/// rollout and replay on supervised actor threads, learner inline.
///
/// # Errors
///
/// Propagates build errors; a worker that ends fatally (or exhausts its
/// restart budget) surfaces as [`RlError::ActorCrashed`].
pub fn run_apex<F>(config: ApexRunConfig, env_factory: F) -> RlResult<ApexRunStats>
where
    F: Fn(usize, usize) -> Box<dyn Env> + Send + Sync + 'static,
{
    crate::fragment::run_apex_fragments(
        config,
        crate::fragment::default_apex_placement(),
        env_factory,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_agents::Backend;
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
    fn builder_validates_and_matches_defaults() {
        let built = ApexRunConfig::builder().try_build().unwrap();
        let defaults = ApexRunConfig::default();
        assert_eq!(built.num_workers, defaults.num_workers);
        assert_eq!(built.weight_sync_interval, defaults.weight_sync_interval);
        assert!(!built.fault_plan.is_active());

        assert!(ApexRunConfig::builder().parallelism(0).try_build().is_err());
        assert!(ApexRunConfig::builder().task_size(0).try_build().is_err());
        assert!(ApexRunConfig::builder()
            .budget(RunBudget::wall(Duration::ZERO))
            .try_build()
            .is_err());
        assert!(ApexRunConfig::builder().budget(RunBudget::updates(0)).try_build().is_err());
        assert!(ApexRunConfig::builder().max_worker_restarts(0).try_build().is_err());
    }

    #[test]
    fn threaded_apex_survives_injected_worker_crashes() {
        let config = ApexRunConfig::builder()
            .agent(tiny_agent())
            .parallelism(2)
            .envs_per_worker(2)
            .task_size(32)
            .num_shards(2)
            .sync_every(4)
            .budget(RunBudget::wall_or_updates(Duration::from_millis(1200), 20))
            .fault_plan(
                crate::fault::FaultPlan::builder(9)
                    .worker_crash_rate(0.3)
                    .weight_drop_rate(0.3)
                    .build()
                    .unwrap(),
            )
            .max_worker_restarts(64)
            .try_build()
            .unwrap();
        let stats =
            run_apex(config, |w, e| Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64)))
                .unwrap();
        // the run must make progress despite ~30% of tasks crashing workers
        assert!(stats.env_frames > 0);
        assert!(stats.updates > 0, "learner starved by crashes");
    }

    #[test]
    fn epsilon_ladder() {
        assert!((apex_worker_epsilon(0, 8) - 0.4).abs() < 1e-6);
        assert!(apex_worker_epsilon(7, 8) < apex_worker_epsilon(0, 8));
        assert!((apex_worker_epsilon(0, 1) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn full_apex_pipeline_runs_and_learns() {
        let config = ApexRunConfig {
            agent: tiny_agent(),
            num_workers: 2,
            envs_per_worker: 2,
            task_size: 32,
            num_shards: 2,
            weight_sync_interval: 4,
            run_duration: Duration::from_millis(1500),
            max_updates: Some(40),
            ..ApexRunConfig::default()
        };
        let stats =
            run_apex(config, |w, e| Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64)))
                .unwrap();
        assert!(stats.env_frames > 100, "frames: {}", stats.env_frames);
        assert!(stats.samples_collected > 50);
        assert!(stats.updates > 0, "learner never updated");
        assert!(stats.frames_per_second > 0.0);
        assert!(!stats.losses.is_empty());
        assert!(stats.losses.iter().all(|l| l.is_finite()));
        // episodes of length 20 complete during the run
        assert!(stats.mean_recent_return(100).is_some());
    }
}
