//! Deterministic, seeded fault injection for distributed runs.
//!
//! A [`FaultPlan`] is a pure function from `(seed, fault kind, entity,
//! step)` to "inject or not": every draw hashes its coordinates through
//! SplitMix64 and compares against the configured rate. Because draws are
//! coordinate-addressed rather than sequential, the injected fault set is
//! **independent of thread interleaving and evaluation order** — the same
//! seed yields the same faults whether the run is threaded, stepped, or
//! simulated, which is what makes chaos runs reproducible and the
//! recovery tests deterministic.

use rlgraph_core::{CoreError, RlError, RlResult};

/// The kinds of fault a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A worker actor crashes at the end of a collection task.
    WorkerCrash,
    /// A replay shard's mailbox stalls (stops serving) for a window.
    ShardStall,
    /// The learner loses a step to an injected slowdown.
    LearnerSlowdown,
    /// A weight broadcast to one worker is dropped.
    DropWeightSync,
}

impl FaultKind {
    /// Domain-separation tag mixed into the draw hash.
    fn tag(self) -> u64 {
        match self {
            FaultKind::WorkerCrash => 0x9E37_79B9_0000_0001,
            FaultKind::ShardStall => 0x9E37_79B9_0000_0002,
            FaultKind::LearnerSlowdown => 0x9E37_79B9_0000_0003,
            FaultKind::DropWeightSync => 0x9E37_79B9_0000_0004,
        }
    }

    /// All kinds, in schedule order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::WorkerCrash,
        FaultKind::ShardStall,
        FaultKind::LearnerSlowdown,
        FaultKind::DropWeightSync,
    ];
}

/// One materialized injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Scheduler step / task index at which the fault fires.
    pub step: u64,
    /// What is injected.
    pub kind: FaultKind,
    /// Worker / shard index the fault targets (0 for the learner).
    pub target: usize,
}

/// A seeded, deterministic fault schedule.
///
/// Rates are per-opportunity probabilities: a `worker_crash_rate` of 0.2
/// crashes a worker on ~20% of its collection tasks. Construct through
/// [`FaultPlan::builder`]; [`FaultPlan::disabled`] injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    worker_crash_rate: f64,
    shard_stall_rate: f64,
    shard_stall_steps: u64,
    learner_slowdown_rate: f64,
    weight_drop_rate: f64,
    /// guaranteed injections, sorted by `(step, kind, target)`
    scheduled: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            worker_crash_rate: 0.0,
            shard_stall_rate: 0.0,
            shard_stall_steps: 0,
            learner_slowdown_rate: 0.0,
            weight_drop_rate: 0.0,
            scheduled: Vec::new(),
        }
    }

    /// Starts a validating builder for the given seed.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder { draft: FaultPlan { seed, ..FaultPlan::disabled() } }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.worker_crash_rate > 0.0
            || self.shard_stall_rate > 0.0
            || self.learner_slowdown_rate > 0.0
            || self.weight_drop_rate > 0.0
            || !self.scheduled.is_empty()
    }

    /// How long an injected shard stall lasts, in scheduler steps.
    pub fn shard_stall_steps(&self) -> u64 {
        self.shard_stall_steps
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::WorkerCrash => self.worker_crash_rate,
            FaultKind::ShardStall => self.shard_stall_rate,
            FaultKind::LearnerSlowdown => self.learner_slowdown_rate,
            FaultKind::DropWeightSync => self.weight_drop_rate,
        }
    }

    /// The deterministic draw: inject `kind` on `target` at `step`?
    ///
    /// Pure in all arguments — safe to call from any thread in any order.
    pub fn draw(&self, kind: FaultKind, target: usize, step: u64) -> bool {
        if self.scheduled.iter().any(|e| e.step == step && e.kind == kind && e.target == target) {
            return true;
        }
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed ^ kind.tag() ^ (target as u64).wrapping_mul(0xD129_0E40_5936_1FF5),
        );
        let h = splitmix64(h ^ step.wrapping_mul(0xA076_1D64_78BD_642F));
        // top 53 bits → uniform in [0, 1)
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < rate
    }

    /// Materializes the full fault schedule for a topology and horizon:
    /// every draw for `workers` workers, `shards` shards, and the learner
    /// over `steps` steps, in deterministic `(step, kind, target)` order.
    ///
    /// Two plans with equal seeds and rates produce bit-identical
    /// schedules; the chaos bench records this list.
    pub fn schedule(&self, workers: usize, shards: usize, steps: u64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for step in 0..steps {
            for kind in FaultKind::ALL {
                let targets = match kind {
                    FaultKind::WorkerCrash | FaultKind::DropWeightSync => workers,
                    FaultKind::ShardStall => shards,
                    FaultKind::LearnerSlowdown => 1,
                };
                for target in 0..targets {
                    if self.draw(kind, target, step) {
                        events.push(FaultEvent { step, kind, target });
                    }
                }
            }
        }
        events
    }
}

/// Validating builder for [`FaultPlan`] (rates must be probabilities).
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    draft: FaultPlan,
}

impl FaultPlanBuilder {
    /// Per-task probability that a worker crashes.
    pub fn worker_crash_rate(mut self, p: f64) -> Self {
        self.draft.worker_crash_rate = p;
        self
    }

    /// Per-step probability that a shard stalls, and the stall length.
    pub fn shard_stall(mut self, p: f64, steps: u64) -> Self {
        self.draft.shard_stall_rate = p;
        self.draft.shard_stall_steps = steps;
        self
    }

    /// Per-step probability that the learner loses a step.
    pub fn learner_slowdown_rate(mut self, p: f64) -> Self {
        self.draft.learner_slowdown_rate = p;
        self
    }

    /// Per-broadcast probability that one worker's weight sync is dropped.
    pub fn weight_drop_rate(mut self, p: f64) -> Self {
        self.draft.weight_drop_rate = p;
        self
    }

    /// Schedules one guaranteed injection of `kind` on `target` at `step`,
    /// on top of any rate-based draws — for plans that want, say, exactly
    /// one shard stall at a known point in the run.
    pub fn inject_at(mut self, step: u64, kind: FaultKind, target: usize) -> Self {
        self.draft.scheduled.push(FaultEvent { step, kind, target });
        self
    }

    /// Validates rates and produces the plan.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] when any rate is outside `[0, 1]` or a positive
    /// stall rate comes with a zero stall length.
    pub fn build(self) -> RlResult<FaultPlan> {
        let mut p = self.draft;
        // canonical order so equal plans compare equal however they were built
        p.scheduled.sort_unstable_by_key(|e| (e.step, e.kind, e.target));
        p.scheduled.dedup();
        for (name, rate) in [
            ("worker_crash_rate", p.worker_crash_rate),
            ("shard_stall_rate", p.shard_stall_rate),
            ("learner_slowdown_rate", p.learner_slowdown_rate),
            ("weight_drop_rate", p.weight_drop_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(RlError::Core(CoreError::new(format!(
                    "fault plan: {} = {} is not a probability",
                    name, rate
                ))));
            }
        }
        let stalls_scheduled = p.scheduled.iter().any(|e| e.kind == FaultKind::ShardStall);
        if (p.shard_stall_rate > 0.0 || stalls_scheduled) && p.shard_stall_steps == 0 {
            return Err(RlError::Core(CoreError::new(
                "fault plan: shard stalls require a positive stall length",
            )));
        }
        Ok(p)
    }
}

/// SplitMix64 finalizer — the same mixer the offline `rand` stub seeds
/// with, giving well-distributed 64-bit hashes from structured input.
/// The one seed convention of thread-level chaos (this module), ring
/// placement ([`crate::cluster::HashRing`]) and network-level chaos
/// (rlgraph-net's fault proxy).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::builder(seed)
            .worker_crash_rate(0.2)
            .shard_stall(0.05, 8)
            .learner_slowdown_rate(0.1)
            .weight_drop_rate(0.15)
            .build()
            .unwrap()
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(!p.is_active());
        assert!(p.schedule(8, 4, 200).is_empty());
    }

    #[test]
    fn same_seed_same_schedule_bit_identical() {
        let a = plan(42).schedule(6, 3, 300);
        let b = plan(42).schedule(6, 3, 300);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = plan(43).schedule(6, 3, 300);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn draws_are_order_independent() {
        let p = plan(7);
        // evaluate the same coordinates in two different orders
        let mut fwd = Vec::new();
        for step in 0..100 {
            fwd.push(p.draw(FaultKind::WorkerCrash, 3, step));
        }
        let mut rev = Vec::new();
        for step in (0..100).rev() {
            rev.push(p.draw(FaultKind::WorkerCrash, 3, step));
        }
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn rates_approximate_over_many_draws() {
        let p = plan(11);
        let crashes =
            (0..10_000).filter(|&s| p.draw(FaultKind::WorkerCrash, 0, s)).count() as f64 / 10_000.0;
        assert!((crashes - 0.2).abs() < 0.03, "empirical crash rate {}", crashes);
        let stalls =
            (0..10_000).filter(|&s| p.draw(FaultKind::ShardStall, 1, s)).count() as f64 / 10_000.0;
        assert!((stalls - 0.05).abs() < 0.02, "empirical stall rate {}", stalls);
    }

    #[test]
    fn kinds_and_targets_are_decorrelated() {
        let p = plan(5);
        // the same (target, step) must not force equal outcomes across kinds
        let mut differs = false;
        for step in 0..200 {
            if p.draw(FaultKind::WorkerCrash, 0, step) != p.draw(FaultKind::DropWeightSync, 0, step)
            {
                differs = true;
                break;
            }
        }
        assert!(differs, "kind tag failed to separate the draw streams");
    }

    #[test]
    fn builder_validates_rates() {
        assert!(FaultPlan::builder(1).worker_crash_rate(1.5).build().is_err());
        assert!(FaultPlan::builder(1).learner_slowdown_rate(-0.1).build().is_err());
        assert!(FaultPlan::builder(1).shard_stall(0.1, 0).build().is_err());
        assert!(FaultPlan::builder(1).shard_stall(0.1, 4).build().is_ok());
        assert!(FaultPlan::builder(1).weight_drop_rate(f64::NAN).build().is_err());
    }

    #[test]
    fn scheduled_injections_fire_exactly() {
        let p = FaultPlan::builder(9)
            .shard_stall(0.0, 4)
            .inject_at(120, FaultKind::ShardStall, 1)
            .inject_at(120, FaultKind::ShardStall, 1) // deduped
            .build()
            .unwrap();
        assert!(p.is_active());
        assert!(p.draw(FaultKind::ShardStall, 1, 120));
        assert!(!p.draw(FaultKind::ShardStall, 1, 121));
        assert!(!p.draw(FaultKind::ShardStall, 0, 120));
        let events = p.schedule(4, 3, 300);
        assert_eq!(events, vec![FaultEvent { step: 120, kind: FaultKind::ShardStall, target: 1 }]);
        // a scheduled stall still needs a stall length
        assert!(FaultPlan::builder(9).inject_at(5, FaultKind::ShardStall, 0).build().is_err());
    }

    #[test]
    fn extreme_rates_are_exact() {
        let always = FaultPlan::builder(3).worker_crash_rate(1.0).build().unwrap();
        assert!((0..50).all(|s| always.draw(FaultKind::WorkerCrash, 0, s)));
        assert!((0..50).all(|s| !always.draw(FaultKind::ShardStall, 0, s)));
    }
}
