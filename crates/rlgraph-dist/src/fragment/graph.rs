//! Declarative fragment graphs: typed stage declarations connected by
//! bounded edges.
//!
//! A [`FragmentGraph`] is pure data — the *logical* half of the paper's
//! logical/physical split, extended to distribution the way MSRL's
//! dataflow fragments are: an RL algorithm is partitioned into stages
//! (rollout, replay, learn, broadcast, eval) and the edges between them
//! declare capacity and backpressure policy. Nothing here spawns a
//! thread; the physical mapping lives in
//! [`crate::fragment::PlacementMap`] and the execution machinery in
//! [`crate::fragment::FragmentExecutor`].

use rlgraph_core::{CoreError, RlError, RlResult};

/// The role a fragment plays in an RL dataflow. The kind determines
/// which fault classes a stepped executor injects into the stage
/// (rollout → worker crashes, replay → shard stalls, learn → learner
/// slowdowns) and how per-fragment metrics are labelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Environment interaction: actors/workers producing experience.
    Rollout,
    /// Experience storage and sampling (replay shards, rollout queues).
    Replay,
    /// Gradient computation and weight updates.
    Learn,
    /// Weight distribution from the learner back to rollout fragments.
    Broadcast,
    /// Side-channel evaluation/checkpointing driven by learner progress.
    Eval,
}

impl StageKind {
    /// Stable lowercase label used in metric names (`frag.<label>.*`).
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Rollout => "rollout",
            StageKind::Replay => "replay",
            StageKind::Learn => "learn",
            StageKind::Broadcast => "broadcast",
            StageKind::Eval => "eval",
        }
    }
}

/// One declared stage: a named fragment with a kind, an initial replica
/// count, and (for elastic stages) the bounds the count may move within
/// at runtime.
#[derive(Debug, Clone)]
pub struct StageDecl {
    /// Unique stage name (also the metric namespace: `frag.<name>.*`).
    pub name: String,
    /// The stage's role in the dataflow.
    pub kind: StageKind,
    /// Parallel replicas of this fragment (workers, shards, ...) at
    /// launch.
    pub replicas: usize,
    /// Floor for runtime scaling; equals `replicas` for fixed stages.
    pub min_replicas: usize,
    /// Ceiling for runtime scaling; equals `replicas` for fixed stages.
    pub max_replicas: usize,
}

impl StageDecl {
    /// True when the replica count may change at runtime.
    pub fn is_elastic(&self) -> bool {
        self.min_replicas != self.max_replicas
    }
}

/// Backpressure policy of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgePolicy {
    /// Bounded queue; producers block (or retry with backoff) when the
    /// consumer's mailbox is full. Experience data is never shed.
    Block,
    /// Latest-value slot; a newer item supersedes delivery of the old
    /// one and publishing never blocks. Used for weight snapshots,
    /// where only the freshest version matters.
    Latest,
}

/// One declared edge: a bounded, backpressured channel between stages.
#[derive(Debug, Clone)]
pub struct EdgeDecl {
    /// Producing stage name.
    pub from: String,
    /// Consuming stage name.
    pub to: String,
    /// Mailbox bound per consumer replica.
    pub capacity: usize,
    /// What happens when the bound is hit.
    pub policy: EdgePolicy,
}

/// A validated fragment graph: the declarative description one executor
/// (threaded, stepped, or multi-process) turns into a running pipeline.
#[derive(Debug, Clone)]
pub struct FragmentGraph {
    stages: Vec<StageDecl>,
    edges: Vec<EdgeDecl>,
}

impl FragmentGraph {
    /// Starts an empty graph builder.
    pub fn builder() -> FragmentGraphBuilder {
        FragmentGraphBuilder { stages: Vec::new(), edges: Vec::new() }
    }

    /// Declared stages, in declaration order.
    pub fn stages(&self) -> &[StageDecl] {
        &self.stages
    }

    /// Declared edges, in declaration order.
    pub fn edges(&self) -> &[EdgeDecl] {
        &self.edges
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageDecl> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Replica count of a stage (0 when undeclared).
    pub fn replicas(&self, name: &str) -> usize {
        self.stage(name).map_or(0, |s| s.replicas)
    }

    /// Looks up the edge between two stages.
    pub fn edge(&self, from: &str, to: &str) -> Option<&EdgeDecl> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }

    /// The first declared stage of the given kind, if any.
    pub fn stage_of_kind(&self, kind: StageKind) -> Option<&StageDecl> {
        self.stages.iter().find(|s| s.kind == kind)
    }
}

/// Builder for [`FragmentGraph`]; `build` validates the declaration.
#[derive(Debug, Clone)]
pub struct FragmentGraphBuilder {
    stages: Vec<StageDecl>,
    edges: Vec<EdgeDecl>,
}

impl FragmentGraphBuilder {
    /// Declares a fixed stage: the replica count never changes.
    pub fn stage(mut self, name: &str, kind: StageKind, replicas: usize) -> Self {
        self.stages.push(StageDecl {
            name: name.to_string(),
            kind,
            replicas,
            min_replicas: replicas,
            max_replicas: replicas,
        });
        self
    }

    /// Declares an elastic stage: launches with `replicas` and may be
    /// scaled within `min..=max` at runtime (see
    /// [`crate::fragment::ElasticStage`]).
    pub fn elastic_stage(
        mut self,
        name: &str,
        kind: StageKind,
        replicas: usize,
        min: usize,
        max: usize,
    ) -> Self {
        self.stages.push(StageDecl {
            name: name.to_string(),
            kind,
            replicas,
            min_replicas: min,
            max_replicas: max,
        });
        self
    }

    /// Declares a blocking bounded edge `from → to`.
    pub fn edge(mut self, from: &str, to: &str, capacity: usize) -> Self {
        self.edges.push(EdgeDecl {
            from: from.to_string(),
            to: to.to_string(),
            capacity,
            policy: EdgePolicy::Block,
        });
        self
    }

    /// Declares a latest-value edge `from → to` (capacity-1 snapshot
    /// slot; see [`EdgePolicy::Latest`]).
    pub fn latest_edge(mut self, from: &str, to: &str) -> Self {
        self.edges.push(EdgeDecl {
            from: from.to_string(),
            to: to.to_string(),
            capacity: 1,
            policy: EdgePolicy::Latest,
        });
        self
    }

    /// Validates the declaration and produces the graph.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] naming the first violated invariant: at least
    /// one stage, unique stage names, positive replica counts with
    /// coherent elastic bounds (`1 <= min <= replicas <= max`), edges
    /// referencing declared stages with positive capacity (and
    /// `Latest` edges having capacity exactly 1).
    pub fn build(self) -> RlResult<FragmentGraph> {
        let fail = |msg: String| Err(RlError::Core(CoreError::new(msg)));
        if self.stages.is_empty() {
            return fail("fragment graph: at least one stage is required".into());
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.name.is_empty() {
                return fail("fragment graph: stage names must be non-empty".into());
            }
            if s.replicas == 0 {
                return fail(format!("fragment graph: stage '{}' declares 0 replicas", s.name));
            }
            if s.min_replicas == 0 || s.min_replicas > s.replicas || s.replicas > s.max_replicas {
                return fail(format!(
                    "fragment graph: stage '{}' bounds must satisfy 1 <= min ({}) <= replicas ({}) <= max ({})",
                    s.name, s.min_replicas, s.replicas, s.max_replicas
                ));
            }
            if self.stages[..i].iter().any(|p| p.name == s.name) {
                return fail(format!("fragment graph: duplicate stage name '{}'", s.name));
            }
        }
        for e in &self.edges {
            for end in [&e.from, &e.to] {
                if !self.stages.iter().any(|s| &s.name == end) {
                    return fail(format!(
                        "fragment graph: edge {}→{} references undeclared stage '{}'",
                        e.from, e.to, end
                    ));
                }
            }
            if e.capacity == 0 {
                return fail(format!(
                    "fragment graph: edge {}→{} must have positive capacity",
                    e.from, e.to
                ));
            }
            if e.policy == EdgePolicy::Latest && e.capacity != 1 {
                return fail(format!(
                    "fragment graph: latest-value edge {}→{} must have capacity 1",
                    e.from, e.to
                ));
            }
        }
        Ok(FragmentGraph { stages: self.stages, edges: self.edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_stage_carries_bounds() {
        let g = FragmentGraph::builder()
            .elastic_stage("rollout", StageKind::Rollout, 2, 1, 8)
            .stage("learn", StageKind::Learn, 1)
            .build()
            .unwrap();
        let s = g.stage("rollout").unwrap();
        assert!(s.is_elastic());
        assert_eq!((s.min_replicas, s.replicas, s.max_replicas), (1, 2, 8));
        assert!(!g.stage("learn").unwrap().is_elastic());
    }

    #[test]
    fn builds_and_indexes_a_valid_graph() {
        let g = FragmentGraph::builder()
            .stage("rollout", StageKind::Rollout, 4)
            .stage("replay", StageKind::Replay, 2)
            .stage("learn", StageKind::Learn, 1)
            .edge("rollout", "replay", 256)
            .latest_edge("learn", "rollout")
            .build()
            .unwrap();
        assert_eq!(g.stages().len(), 3);
        assert_eq!(g.replicas("rollout"), 4);
        assert_eq!(g.replicas("missing"), 0);
        let e = g.edge("rollout", "replay").unwrap();
        assert_eq!(e.capacity, 256);
        assert_eq!(g.edge("learn", "rollout").unwrap().policy, EdgePolicy::Latest);
        assert_eq!(g.stage_of_kind(StageKind::Learn).unwrap().name, "learn");
    }

    #[test]
    fn validation_rejects_bad_declarations() {
        assert!(FragmentGraph::builder().build().is_err(), "empty graph");
        assert!(
            FragmentGraph::builder().stage("a", StageKind::Rollout, 0).build().is_err(),
            "zero replicas"
        );
        assert!(
            FragmentGraph::builder()
                .stage("a", StageKind::Rollout, 1)
                .stage("a", StageKind::Learn, 1)
                .build()
                .is_err(),
            "duplicate name"
        );
        assert!(
            FragmentGraph::builder()
                .stage("a", StageKind::Rollout, 1)
                .edge("a", "ghost", 8)
                .build()
                .is_err(),
            "undeclared endpoint"
        );
        assert!(
            FragmentGraph::builder()
                .elastic_stage("a", StageKind::Rollout, 2, 3, 6)
                .build()
                .is_err(),
            "initial below min"
        );
        assert!(
            FragmentGraph::builder()
                .elastic_stage("a", StageKind::Rollout, 8, 2, 6)
                .build()
                .is_err(),
            "initial above max"
        );
        assert!(
            FragmentGraph::builder()
                .elastic_stage("a", StageKind::Rollout, 1, 0, 6)
                .build()
                .is_err(),
            "zero min"
        );
        assert!(
            FragmentGraph::builder()
                .stage("a", StageKind::Rollout, 1)
                .stage("b", StageKind::Replay, 1)
                .edge("a", "b", 0)
                .build()
                .is_err(),
            "zero capacity"
        );
    }
}
