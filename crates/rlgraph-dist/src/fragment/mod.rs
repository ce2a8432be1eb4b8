//! The dataflow-fragment layer: one declarative graph under every
//! driver (DESIGN.md §15).
//!
//! The paper's core idea is the separation of the logical component
//! graph from its physical build; this module extends exactly that
//! split to distribution, the way MSRL partitions an RL algorithm into
//! dataflow *fragments*:
//!
//! * [`FragmentGraph`] — the logical declaration: typed stages
//!   ([`StageKind`]: rollout, replay, learn, broadcast, eval) connected
//!   by bounded, backpressured edges ([`EdgeDecl`]).
//! * [`FragmentExecutor`] — the threaded runtime: rollout stages on
//!   supervised actor threads, the learner inline on the caller thread,
//!   edges materialized as [`EdgeLane`]s.
//!
//! The physical choice is the runtime a caller picks: `run_apex` /
//! `run_impala` (threads), `run_apex_chaos` (a virtual-time tick loop)
//! or `rlgraph-net`'s `run_apex_net` (worker processes or threads over
//! TCP, its `LaunchMode`). Each runs [`apex_graph`] or [`impala_graph`]
//! in one fixed mapping; the [`PlacementMap`] the in-process drivers take
//! names that mapping ([`default_apex_placement`],
//! [`default_impala_placement`]) and any other is rejected. Every
//! driver's stats type implements the uniform [`RunReport`] surface.

mod apex;
mod edge;
mod elastic;
mod graph;
mod impala;
mod placement;
mod report;

pub mod exec;

pub use apex::{
    apex_graph, apex_learn_step, apex_replica, apex_shard, default_apex_placement,
    run_apex_fragments, ApexLearner,
};
pub use edge::EdgeLane;
pub use elastic::{ElasticStage, ScaleEvent};
pub use exec::FragmentExecutor;
pub use graph::{EdgeDecl, EdgePolicy, FragmentGraph, FragmentGraphBuilder, StageDecl, StageKind};
pub use impala::{default_impala_placement, impala_graph, run_impala_fragments};
pub use placement::{Placement, PlacementMap};
pub use report::{FragmentCounter, RunReport};
