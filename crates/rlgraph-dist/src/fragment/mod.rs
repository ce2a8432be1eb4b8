//! The dataflow-fragment executor: one declarative graph + placement
//! API under every driver (DESIGN.md §15).
//!
//! The paper's core idea is the separation of the logical component
//! graph from its physical build; this module extends exactly that
//! split to distribution, the way MSRL partitions an RL algorithm into
//! dataflow *fragments* mapped onto heterogeneous executors:
//!
//! * [`FragmentGraph`] — the logical declaration: typed stages
//!   ([`StageKind`]: rollout, replay, learn, broadcast, eval) connected
//!   by bounded, backpressured edges ([`EdgeDecl`]).
//! * [`PlacementMap`] — the physical mapping: each fragment runs
//!   [`Placement::InThread`], on supervised
//!   [`Placement::ActorThread`]s, or behind
//!   [`Placement::RemoteProcess`]es (the rlgraph-net runtime), without
//!   touching the declaration.
//! * [`FragmentExecutor`] — the threaded runtime;
//!   [`SteppedExecutor`] — the deterministic virtual-time runtime the
//!   chaos engine runs on.
//!
//! The four drivers (`run_apex`, `run_impala`, `run_apex_chaos`,
//! `run_apex_net`) are graph declarations over these executors; see
//! [`apex_graph`] and [`impala_graph`]. Every driver's stats type
//! implements the uniform [`RunReport`] surface.

mod apex;
mod edge;
mod elastic;
mod graph;
mod impala;
mod placement;
mod report;
mod stepped;

pub mod exec;

pub use apex::{
    apex_graph, apex_learn_step, apex_replica, apex_shard, default_apex_placement,
    run_apex_fragments, ShardPort, ShardPull,
};
pub use edge::EdgeLane;
pub use elastic::{ElasticStage, ScaleEvent};
pub use exec::FragmentExecutor;
pub use graph::{EdgeDecl, EdgePolicy, FragmentGraph, FragmentGraphBuilder, StageDecl, StageKind};
pub use impala::{default_impala_placement, impala_graph, run_impala_fragments};
pub use placement::{Placement, PlacementCaps, PlacementMap};
pub use report::{FragmentCounter, RunReport};
pub use stepped::{ReplicaHealth, SteppedExecutor, SteppedStages, TickCtx, TickFlow};
