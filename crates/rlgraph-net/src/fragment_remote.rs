//! Remote placement for the dataflow-fragment API (DESIGN.md §15).
//!
//! [`run_apex_net`](crate::run_apex_net) runs the Ape-X graph the
//! in-process drivers run — the declaration *is*
//! [`apex_graph`]'s, with an elastic run's
//! scaling bounds on its rollout stage — with the rollout fragment
//! placed [`Placement::RemoteProcess`]: each replica is an OS process
//! re-execed via [`crate::proc`], its edges carried by the crate's RPC
//! layer instead of in-process mailboxes. This module holds the
//! placement and validates a [`NetApexConfig`] against the same
//! graph/placement contract as every other driver (placement swap =
//! [`LaunchMode`] flip; the declaration does not change).

use crate::apex_net::{LaunchMode, NetApexConfig};
use rlgraph_core::RlResult;
use rlgraph_dist::fragment::{apex_graph, FragmentGraph, Placement, PlacementCaps, PlacementMap};

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
    let bounds = config.elastic.as_ref().map(|e| (e.min_workers, e.max_workers));
    let graph = apex_graph(config.num_workers, config.num_shards, bounds)?;
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
        let (graph, placement) = validate_net_apex(&config).unwrap();
        assert_eq!(placement.of("rollout"), Placement::ActorThread);
        // Thread mode needs no remote capability at all.
        assert!(placement.validate(&graph, PlacementCaps::local()).is_ok());
    }
}
