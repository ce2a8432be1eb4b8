//! Distributed execution for rlgraph (paper §4.1, Fig. 4).
//!
//! Every driver is a declaration over one executor pair (DESIGN.md §15):
//!
//! * [`fragment`] — a logical [`FragmentGraph`] of typed stages (rollout,
//!   replay, learn, broadcast, eval) joined by bounded edges, a physical
//!   [`PlacementMap`], and the two runtimes that execute them: the
//!   threaded [`FragmentExecutor`] (supervised actor threads, crossbeam
//!   edges) and the deterministic virtual-time `SteppedExecutor`.
//! * [`ray`] and [`impala_driver`] — the Ape-X (paper §5.1, Figs. 6/7)
//!   and IMPALA (Fig. 9) configs, builders and stats; [`run_apex`] and
//!   [`run_impala`] are [`run_apex_fragments`] / [`run_impala_fragments`]
//!   under the default placement.
//! * [`chaos`] — [`run_apex_chaos`]: Ape-X on the stepped executor under
//!   a seeded [`FaultPlan`], bit-identical for the same seed.
//! * [`driver`] — the one builder vocabulary ([`DriverConfigBuilder`],
//!   [`RunBudget`]) all of them share, `rlgraph-net`'s multi-process
//!   `run_apex_net` included.
//! * [`shard`], [`sync`], [`supervisor`], [`retry`], [`checkpoint`],
//!   [`cluster`] — what the stages are made of: replay shards, the
//!   versioned [`WeightHub`], actor supervision, retry policies, learner
//!   checkpoints, and elastic membership (hash ring, autoscaler).
//!
//! These run on OS threads in one process; at paper scale (hundreds of
//! workers) throughput is measured on the calibrated discrete-event
//! simulator in `rlgraph-sim` instead (see DESIGN.md §2).

pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod driver;
pub mod fault;
pub mod fragment;
pub mod impala_driver;
pub mod ray;
pub mod retry;
pub mod shard;
pub mod supervisor;
pub mod sync;

pub use chaos::{run_apex_chaos, ChaosApexConfig, ChaosApexConfigBuilder, ChaosReport};
pub use checkpoint::LearnerCheckpoint;
pub use cluster::{
    Autoscaler, AutoscalerConfig, HashRing, MembershipTable, MembershipView, ScaleDecision,
    ScaleSignals,
};
pub use driver::{DriverConfigBuilder, RunBudget};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanBuilder};
pub use fragment::{
    apex_graph, default_apex_placement, default_impala_placement, impala_graph, run_apex_fragments,
    run_impala_fragments, EdgePolicy, FragmentCounter, FragmentExecutor, FragmentGraph, Placement,
    PlacementCaps, PlacementMap, RunReport, StageKind,
};
pub use impala_driver::{
    run_impala, ImpalaDriverConfig, ImpalaDriverConfigBuilder, ImpalaRunStats,
};
pub use ray::{run_apex, ApexRunConfig, ApexRunConfigBuilder, ApexRunStats};
pub use retry::{RetryPolicy, RetryPolicyBuilder, Sleep, ThreadSleeper, VirtualSleeper};
pub use rlgraph_core::{RlError, RlResult, Severity};
pub use shard::{ShardCore, ShardRequest};
pub use supervisor::{ActorOutcome, ActorReport, SupervisionReport, Supervisor};
pub use sync::{snapshot_bytes, SubscriberTable, WeightHub, WeightsSnapshot};
