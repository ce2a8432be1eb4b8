//! Remote placement for the dataflow-fragment API (DESIGN.md §15).
//!
//! [`run_apex_net`](crate::run_apex_net) is the same logical Ape-X
//! graph the in-process drivers declare — rollout → replay → learn,
//! broadcast → rollout — with the rollout fragment placed
//! [`Placement::RemoteProcess`]: each replica is an OS process
//! re-execed via [`crate::proc`], its edges carried by the crate's RPC
//! layer instead of in-process mailboxes. This module derives that
//! declaration from a [`NetApexConfig`] so the TCP runtime validates
//! against the same graph/placement contract as every other driver
//! (placement swap = [`LaunchMode`] flip; the declaration does not
//! change).

use crate::apex_net::{LaunchMode, NetApexConfig};
use rlgraph_core::RlResult;
use rlgraph_dist::fragment::{FragmentGraph, Placement, PlacementCaps, PlacementMap, StageKind};
use rlgraph_dist::shard::DEFAULT_MAILBOX_CAPACITY;

/// The logical Ape-X fragment graph of a TCP run: identical topology to
/// the in-process declaration, derived from the net config's replica
/// counts.
///
/// # Errors
///
/// Graph validation failures (zero replicas, zero-capacity edges).
pub fn net_apex_graph(config: &NetApexConfig) -> RlResult<FragmentGraph> {
    let b = FragmentGraph::builder();
    // An elastic run declares the rollout stage with its scaling
    // bounds; the runtime's ElasticStage pool enforces them.
    let b = match &config.elastic {
        Some(e) => b.elastic_stage(
            "rollout",
            StageKind::Rollout,
            config.num_workers,
            e.min_workers,
            e.max_workers,
        ),
        None => b.stage("rollout", StageKind::Rollout, config.num_workers),
    };
    b.stage("replay", StageKind::Replay, config.num_shards)
        .stage("learn", StageKind::Learn, 1)
        .stage("broadcast", StageKind::Broadcast, 1)
        .edge("rollout", "replay", DEFAULT_MAILBOX_CAPACITY)
        .edge("replay", "learn", 1)
        .latest_edge("broadcast", "rollout")
        .build()
}

/// The physical mapping of a TCP run: rollout replicas follow the
/// launch mode ([`LaunchMode::Process`] → [`Placement::RemoteProcess`],
/// [`LaunchMode::Thread`] → [`Placement::ActorThread`]); the replay and
/// broadcast fragments are RPC-server threads in the coordinator
/// process, and the learn fragment is the coordinator's own loop.
pub fn net_apex_placement(launch: LaunchMode) -> PlacementMap {
    let rollout = match launch {
        LaunchMode::Process => Placement::RemoteProcess,
        LaunchMode::Thread => Placement::ActorThread,
    };
    PlacementMap::new()
        .place("rollout", rollout)
        .place("replay", Placement::ActorThread)
        .place("learn", Placement::InThread)
        .place("broadcast", Placement::ActorThread)
}

/// Validates a net run's declaration: the graph must build and the
/// placement must be legal under remote-capable
/// [`PlacementCaps::with_remote`].
///
/// # Errors
///
/// Invalid graph or placement (e.g. a stage name the graph does not
/// declare).
pub fn validate_net_apex(config: &NetApexConfig) -> RlResult<(FragmentGraph, PlacementMap)> {
    let graph = net_apex_graph(config)?;
    let placement = net_apex_placement(config.launch);
    placement.validate(&graph, PlacementCaps::with_remote())?;
    Ok((graph, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_dist::fragment::EdgePolicy;

    #[test]
    fn net_declaration_matches_the_in_process_apex_topology() {
        let config = NetApexConfig { num_workers: 3, num_shards: 2, ..NetApexConfig::default() };
        let (graph, placement) = validate_net_apex(&config).unwrap();
        assert_eq!(graph.stage("rollout").unwrap().replicas, 3);
        assert_eq!(graph.stage("replay").unwrap().replicas, 2);
        assert_eq!(placement.of("rollout"), Placement::RemoteProcess);
        assert_eq!(placement.of("learn"), Placement::InThread);
        let b2r =
            graph.edges().iter().find(|e| e.from == "broadcast").expect("broadcast edge declared");
        assert_eq!(b2r.policy, EdgePolicy::Latest);
    }

    #[test]
    fn placement_swaps_with_launch_mode_without_touching_the_graph() {
        let config = NetApexConfig { launch: LaunchMode::Thread, ..NetApexConfig::default() };
        let (_, placement) = validate_net_apex(&config).unwrap();
        assert_eq!(placement.of("rollout"), Placement::ActorThread);
        // Thread mode needs no remote capability at all.
        let graph = net_apex_graph(&config).unwrap();
        assert!(placement.validate(&graph, PlacementCaps::local()).is_ok());
    }
}
