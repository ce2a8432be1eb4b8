//! The unified driver-configuration vocabulary (DESIGN.md §15).
//!
//! The four drivers' configs spell the same knobs in their own fields
//! (`num_workers` vs `num_actors`, `run_duration` vs `steps`). This
//! module holds the one vocabulary that sets them:
//!
//! * [`RunBudget`] — how long a run lasts, in whichever unit the driver
//!   meters (wall clock, learner updates, or virtual-time ticks).
//! * [`DriverConfigBuilder`] — the write-side trait: one builder
//!   vocabulary (`parallelism`, `sync_every`, `budget`, `observe_with`,
//!   `try_build`) implemented by
//!   [`ApexRunConfigBuilder`](crate::ApexRunConfigBuilder),
//!   [`ImpalaDriverConfigBuilder`](crate::ImpalaDriverConfigBuilder),
//!   [`ChaosApexConfigBuilder`](crate::ChaosApexConfigBuilder) and
//!   rlgraph-net's `NetApexConfigBuilder`.

use rlgraph_core::RlResult;
use rlgraph_obs::Recorder;
use std::time::Duration;

/// How long a driver run lasts. Each driver meters the unit it can
/// actually enforce and ignores the rest: the threaded drivers honour
/// `wall` and `max_updates`; the virtual-time chaos driver honours
/// `steps`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// stop after this wall-clock duration (threaded drivers)
    pub wall: Option<Duration>,
    /// hard cap on learner updates (threaded drivers)
    pub max_updates: Option<u64>,
    /// virtual-time scheduler ticks (stepped/chaos driver)
    pub steps: Option<u64>,
}

impl RunBudget {
    /// A wall-clock budget.
    pub fn wall(d: Duration) -> Self {
        RunBudget { wall: Some(d), ..RunBudget::default() }
    }

    /// A learner-update budget.
    pub fn updates(n: u64) -> Self {
        RunBudget { max_updates: Some(n), ..RunBudget::default() }
    }

    /// A virtual-time tick budget.
    pub fn steps(n: u64) -> Self {
        RunBudget { steps: Some(n), ..RunBudget::default() }
    }

    /// A wall-clock budget with an update cap on top.
    pub fn wall_or_updates(d: Duration, n: u64) -> Self {
        RunBudget { wall: Some(d), max_updates: Some(n), steps: None }
    }
}

/// The uniform write-side vocabulary over driver config builders: the
/// only way to set the shared knobs and to build.
pub trait DriverConfigBuilder: Sized {
    /// The config type this builder produces.
    type Config;

    /// Rollout parallelism (worker/actor replicas).
    fn parallelism(self, n: usize) -> Self;

    /// Weight-sync cadence (broadcast every `k` updates, or pull every
    /// `k` rollouts for IMPALA actors).
    fn sync_every(self, k: u64) -> Self;

    /// The run's budget. Drivers honour the units they meter (see
    /// [`RunBudget`]) and leave the others at their defaults.
    fn budget(self, budget: RunBudget) -> Self;

    /// Observability recorder shared by the run's fragments.
    fn observe_with(self, recorder: Recorder) -> Self;

    /// Validates and builds the config.
    ///
    /// # Errors
    ///
    /// The concrete builder's invariant violations (zero replicas, a
    /// quorum above the shard count, …).
    fn try_build(self) -> RlResult<Self::Config>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosApexConfig;
    use crate::impala_driver::ImpalaDriverConfig;
    use crate::ray::ApexRunConfig;

    #[test]
    fn one_vocabulary_configures_all_three_dist_drivers() {
        let apex = ApexRunConfig::builder()
            .parallelism(3)
            .sync_every(7)
            .budget(RunBudget::wall_or_updates(Duration::from_millis(50), 9))
            .try_build()
            .unwrap();
        assert_eq!(apex.num_workers, 3);
        assert_eq!(apex.weight_sync_interval, 7);
        assert_eq!(apex.run_duration, Duration::from_millis(50));
        assert_eq!(apex.max_updates, Some(9));

        let impala = ImpalaDriverConfig::builder()
            .parallelism(2)
            .sync_every(5)
            .budget(RunBudget::updates(4))
            .try_build()
            .unwrap();
        assert_eq!(impala.num_actors, 2);
        assert_eq!(impala.weight_sync_interval, 5);
        assert_eq!(impala.max_updates, Some(4));

        let chaos = ChaosApexConfig::builder()
            .parallelism(2)
            .sync_every(3)
            .budget(RunBudget::steps(12))
            .try_build()
            .unwrap();
        assert_eq!(chaos.num_workers, 2);
        assert_eq!(chaos.weight_sync_interval, 3);
        assert_eq!(chaos.steps, 12);
    }

    #[test]
    fn builders_still_validate_through_the_trait() {
        assert!(ApexRunConfig::builder().parallelism(0).try_build().is_err());
        assert!(ImpalaDriverConfig::builder().parallelism(0).try_build().is_err());
        assert!(ChaosApexConfig::builder().parallelism(0).try_build().is_err());
    }
}
