//! Distributed execution for rlgraph (paper §4.1, Fig. 4).
//!
//! Two coordination styles, mirroring the paper's:
//!
//! * [`ray`] — centralized control on an actor model: a coordinator spawns
//!   worker actors (each holding a local rlgraph agent and a vector of
//!   environments), replay-shard actors, and a learner loop — the
//!   `RayExecutor` of the paper's Ape-X evaluation (Figs. 6, 7).
//! * [`impala_driver`] — non-centralized, parameter-server style: actors
//!   and learner are independent threads communicating only through a
//!   shared in-graph queue and weight snapshots, the distributed-TF
//!   analogue used for Fig. 9.
//!
//! Both run on OS threads with crossbeam channels standing in for Ray RPC
//! / gRPC; at paper scale (hundreds of workers) throughput is measured on
//! the calibrated discrete-event simulator in `rlgraph-sim` instead (see
//! DESIGN.md).

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
pub use driver::{DriverCommon, DriverConfigBuilder, RunBudget};
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
