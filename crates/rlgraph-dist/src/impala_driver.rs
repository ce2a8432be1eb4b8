//! Non-centralized IMPALA driver (distributed-TF analogue, paper Fig. 9).
//!
//! Actors and learner are independent threads that communicate only through
//! the shared in-graph blocking queue (rollouts) and periodic weight
//! snapshots (parameter-server pull) — no central coordination loop.

use crate::driver::{DriverConfigBuilder, RunBudget};
use crate::fault::FaultPlan;
use rlgraph_agents::ImpalaConfig;
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_envs::Env;
use rlgraph_obs::Recorder;
use std::time::Duration;

/// Configuration of an IMPALA run.
///
/// Prefer [`ImpalaDriverConfig::builder`], which validates invariants up
/// front; a struct literal bypasses validation.
#[derive(Debug, Clone)]
pub struct ImpalaDriverConfig {
    /// agent configuration
    pub agent: ImpalaConfig,
    /// number of actor threads
    pub num_actors: usize,
    /// vectorised environments per actor
    pub envs_per_actor: usize,
    /// actors refresh weights every k rollouts
    pub weight_sync_interval: u64,
    /// stop after this wall-clock duration
    pub run_duration: Duration,
    /// optional cap on learner updates
    pub max_updates: Option<u64>,
    /// observability recorder (disabled by default; pass an enabled one to
    /// collect actor/learner spans, queue depth, and training gauges)
    pub recorder: Recorder,
    /// seeded fault injection (defaults to [`FaultPlan::disabled`])
    pub fault_plan: FaultPlan,
    /// optional fixed rollout budget per actor: each actor produces
    /// exactly this many rollouts and exits on its own (the stop flag
    /// and queue close are deferred until the actors have finished).
    /// With one actor and no weight syncs this makes the rollout stream
    /// deterministic per seed — the parity suite relies on it. Callers
    /// must size `max_updates` so the learner drains what the actors
    /// produce, or the actors block on a full queue
    pub max_rollouts_per_actor: Option<u64>,
    /// force an off-cadence weight pull when an actor falls more than
    /// this many published versions behind (bounds policy-lag, which
    /// V-trace corrects but only up to a point)
    pub max_weight_lag: u64,
    /// restart budget per supervised actor
    pub max_actor_restarts: u32,
}

impl Default for ImpalaDriverConfig {
    fn default() -> Self {
        ImpalaDriverConfig {
            agent: ImpalaConfig::default(),
            num_actors: 2,
            envs_per_actor: 2,
            weight_sync_interval: 4,
            run_duration: Duration::from_secs(5),
            max_updates: None,
            recorder: Recorder::disabled(),
            fault_plan: FaultPlan::disabled(),
            max_rollouts_per_actor: None,
            max_weight_lag: 16,
            max_actor_restarts: 16,
        }
    }
}

impl ImpalaDriverConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> ImpalaDriverConfigBuilder {
        ImpalaDriverConfigBuilder { draft: ImpalaDriverConfig::default() }
    }
}

/// Validating builder for [`ImpalaDriverConfig`]. The knobs every
/// driver shares (parallelism, sync cadence, budget, recorder, build) are
/// set through [`DriverConfigBuilder`].
#[derive(Debug, Clone)]
pub struct ImpalaDriverConfigBuilder {
    draft: ImpalaDriverConfig,
}

impl ImpalaDriverConfigBuilder {
    /// Agent configuration.
    pub fn agent(mut self, agent: ImpalaConfig) -> Self {
        self.draft.agent = agent;
        self
    }

    /// Environments per actor.
    pub fn envs_per_actor(mut self, n: usize) -> Self {
        self.draft.envs_per_actor = n;
        self
    }

    /// Seeded fault injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.draft.fault_plan = plan;
        self
    }

    /// Optional fixed rollout budget per actor (see
    /// [`ImpalaDriverConfig::max_rollouts_per_actor`]).
    pub fn max_rollouts_per_actor(mut self, cap: Option<u64>) -> Self {
        self.draft.max_rollouts_per_actor = cap;
        self
    }

    /// Policy-lag bound in published weight versions.
    pub fn max_weight_lag(mut self, versions: u64) -> Self {
        self.draft.max_weight_lag = versions;
        self
    }

    /// Restart budget per supervised actor.
    pub fn max_actor_restarts(mut self, n: u32) -> Self {
        self.draft.max_actor_restarts = n;
        self
    }
}

impl DriverConfigBuilder for ImpalaDriverConfigBuilder {
    type Config = ImpalaDriverConfig;

    fn parallelism(mut self, n: usize) -> Self {
        self.draft.num_actors = n;
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
    /// [`RlError::Core`] naming the first violated invariant.
    fn try_build(self) -> RlResult<ImpalaDriverConfig> {
        let c = self.draft;
        let fail = |msg: &str| Err(RlError::Core(CoreError::new(msg)));
        if c.num_actors == 0 || c.envs_per_actor == 0 {
            return fail("impala config: num_actors and envs_per_actor must be positive");
        }
        if c.weight_sync_interval == 0 {
            return fail("impala config: weight_sync_interval must be positive");
        }
        if c.run_duration.is_zero() {
            return fail("impala config: run_duration must be positive");
        }
        if c.max_updates == Some(0) {
            return fail("impala config: max_updates cap of 0 would never run");
        }
        if c.max_rollouts_per_actor == Some(0) {
            return fail("impala config: max_rollouts_per_actor cap of 0 would never collect");
        }
        if c.max_weight_lag == 0 || c.max_actor_restarts == 0 {
            return fail("impala config: max_weight_lag and max_actor_restarts must be positive");
        }
        Ok(c)
    }
}

/// Statistics of an IMPALA run.
#[derive(Debug, Clone, Default)]
pub struct ImpalaRunStats {
    /// environment frames consumed (incl. frame skip)
    pub env_frames: u64,
    /// wall time
    pub wall_time: Duration,
    /// frames per second
    pub frames_per_second: f64,
    /// learner updates
    pub updates: u64,
    /// learner total losses over time
    pub losses: Vec<f32>,
    /// final mean recent episode return (if any episodes completed)
    pub mean_return: Option<f32>,
}

impl crate::fragment::RunReport for ImpalaRunStats {
    fn updates(&self) -> u64 {
        self.updates
    }

    fn wall_time(&self) -> Duration {
        self.wall_time
    }

    fn fragment_counters(&self) -> Vec<crate::fragment::FragmentCounter> {
        vec![
            crate::fragment::FragmentCounter::new("rollout", "env_frames", self.env_frames as f64),
            crate::fragment::FragmentCounter::new("learn", "updates", self.updates as f64),
        ]
    }
}

/// Runs IMPALA: actors produce fused rollouts into the queue, the learner
/// consumes them with V-trace.
///
/// This is a thin wrapper over the fragment executor: the run is
/// declared as a [fragment graph](crate::fragment::impala_graph) and
/// executed under the
/// [default placement](crate::fragment::default_impala_placement).
///
/// # Errors
///
/// Propagates build errors; an actor that dies for good surfaces as
/// [`RlError::ActorCrashed`].
pub fn run_impala<F>(config: ImpalaDriverConfig, env_factory: F) -> RlResult<ImpalaRunStats>
where
    F: Fn(usize, usize) -> Box<dyn Env> + Send + Sync + 'static,
{
    crate::fragment::run_impala_fragments(
        config,
        crate::fragment::default_impala_placement(),
        env_factory,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_agents::Backend;
    use rlgraph_envs::RandomEnv;
    use rlgraph_nn::{Activation, NetworkSpec};

    #[test]
    fn builder_validates() {
        assert!(ImpalaDriverConfig::builder().try_build().is_ok());
        assert!(ImpalaDriverConfig::builder().parallelism(0).try_build().is_err());
        assert!(ImpalaDriverConfig::builder().sync_every(0).try_build().is_err());
        let zero_wall = RunBudget::wall(Duration::ZERO);
        assert!(ImpalaDriverConfig::builder().budget(zero_wall).try_build().is_err());
        assert!(ImpalaDriverConfig::builder().max_weight_lag(0).try_build().is_err());
    }

    #[test]
    fn impala_survives_injected_actor_crashes() {
        let config = ImpalaDriverConfig::builder()
            .agent(ImpalaConfig {
                backend: Backend::Static,
                network: NetworkSpec::mlp(&[8], Activation::Tanh),
                rollout_len: 4,
                queue_capacity: 4,
                seed: 5,
                ..ImpalaConfig::default()
            })
            .parallelism(2)
            .envs_per_actor(2)
            .sync_every(2)
            .budget(RunBudget::wall_or_updates(Duration::from_millis(1200), 15))
            .fault_plan(
                crate::fault::FaultPlan::builder(21).worker_crash_rate(0.25).build().unwrap(),
            )
            .max_actor_restarts(64)
            .try_build()
            .unwrap();
        let stats =
            run_impala(config, |a, e| Box::new(RandomEnv::new(&[3], 2, 16, (a * 10 + e) as u64)))
                .unwrap();
        assert!(stats.updates > 0, "learner starved by actor crashes");
        assert!(stats.env_frames > 0);
    }

    #[test]
    fn impala_pipeline_runs() {
        let config = ImpalaDriverConfig {
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
            max_updates: Some(30),
            ..ImpalaDriverConfig::default()
        };
        let stats =
            run_impala(config, |a, e| Box::new(RandomEnv::new(&[3], 2, 16, (a * 10 + e) as u64)))
                .unwrap();
        assert!(stats.updates > 0, "learner never updated");
        assert!(stats.env_frames > 0);
        assert!(stats.losses.iter().all(|l| l.is_finite()));
        assert!(stats.frames_per_second > 0.0);
    }
}
