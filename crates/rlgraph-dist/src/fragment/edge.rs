//! Runtime edges: the bounded, backpressured channels a declared
//! [`EdgeDecl`] materializes into, instrumented under the uniform
//! `frag.<stage>.*` metric scheme.
//!
//! One [`EdgeLane`] is created per *consumer replica* (one mailbox per
//! replay shard, one weight slot per worker), wrapping the crossbeam
//! mailbox machinery rather than replacing it. Depth gauges are emitted
//! as `frag.<to>.mailbox_depth`, saturation counts as
//! `frag.<to>.mailbox_full`.

use super::graph::{EdgeDecl, EdgePolicy, FragmentGraph};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_obs::{Counter, Gauge, Recorder};
use std::time::Duration;

/// One materialized lane of a declared edge: a bounded channel to a
/// single consumer replica, plus its metric handles.
pub struct EdgeLane<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
    capacity: usize,
    policy: EdgePolicy,
    depth: Gauge,
    full_ctr: Counter,
}

// Manual impls: channel handles clone/debug regardless of `T`, and lane
// payloads (e.g. `ShardRequest` with its reply senders) are often
// neither `Clone` nor `Debug`.
impl<T> Clone for EdgeLane<T> {
    fn clone(&self) -> Self {
        EdgeLane {
            tx: self.tx.clone(),
            rx: self.rx.clone(),
            capacity: self.capacity,
            policy: self.policy,
            depth: self.depth.clone(),
            full_ctr: self.full_ctr.clone(),
        }
    }
}

impl<T> std::fmt::Debug for EdgeLane<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeLane")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("queued", &self.tx.len())
            .finish()
    }
}

impl<T> EdgeLane<T> {
    /// Materializes one lane per replica of the consuming stage of the
    /// `from → to` edge declared in `graph`.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] when the edge is not declared in the graph.
    pub fn materialize(
        graph: &FragmentGraph,
        from: &str,
        to: &str,
        recorder: &Recorder,
    ) -> RlResult<Vec<EdgeLane<T>>> {
        let decl = graph.edge(from, to).ok_or_else(|| {
            RlError::Core(CoreError::new(format!("fragment edge {}→{} is not declared", from, to)))
        })?;
        let replicas = graph.replicas(to).max(1);
        Ok((0..replicas).map(|_| EdgeLane::from_decl(decl, recorder)).collect())
    }

    /// Builds a single lane from an edge declaration.
    pub fn from_decl(decl: &EdgeDecl, recorder: &Recorder) -> EdgeLane<T> {
        let (tx, rx) = bounded(decl.capacity);
        EdgeLane {
            tx,
            rx,
            capacity: decl.capacity,
            policy: decl.policy,
            depth: recorder.gauge(&format!("frag.{}.mailbox_depth", decl.to)),
            full_ctr: recorder.counter(&format!("frag.{}.mailbox_full", decl.to)),
        }
    }

    /// The lane's declared mailbox bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lane's declared backpressure policy.
    pub fn policy(&self) -> EdgePolicy {
        self.policy
    }

    /// Items currently queued in the lane.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// Whether the lane is currently empty.
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// The lane's depth gauge (`frag.<stage>.mailbox_depth`).
    pub fn depth_gauge(&self) -> &Gauge {
        &self.depth
    }

    /// A raw producer handle (for fan-in across replicas).
    pub fn sender(&self) -> Sender<T> {
        self.tx.clone()
    }

    /// A raw consumer handle; crossbeam receivers are cloneable, so a
    /// supervised stage body can re-acquire its mailbox on restart.
    pub fn receiver(&self) -> Receiver<T> {
        self.rx.clone()
    }

    /// Non-blocking submission honoring the lane's policy.
    ///
    /// Under [`EdgePolicy::Latest`] a full slot means the consumer has
    /// not yet taken the previous item; the new one is dropped (the
    /// consumer still observes a fresh-enough value) and `Ok(None)` is
    /// returned. Under [`EdgePolicy::Block`] the rejected item is
    /// handed back as `Ok(Some(item))` so the caller can retry, block,
    /// or shed explicitly — saturation is a typed condition, not a
    /// silent drop.
    ///
    /// # Errors
    ///
    /// [`RlError::Disconnected`] when the consumer is gone.
    pub fn offer(&self, item: T) -> RlResult<Option<T>> {
        match self.tx.try_send(item) {
            Ok(()) => {
                self.depth.set(self.tx.len() as f64);
                Ok(None)
            }
            Err(TrySendError::Full(item)) => {
                self.full_ctr.inc();
                match self.policy {
                    EdgePolicy::Latest => Ok(None),
                    EdgePolicy::Block => Ok(Some(item)),
                }
            }
            Err(TrySendError::Disconnected(_)) => Err(RlError::disconnected("fragment edge")),
        }
    }

    /// Blocking submission (Block backpressure: waits for mailbox
    /// space).
    ///
    /// # Errors
    ///
    /// [`RlError::Disconnected`] when the consumer is gone.
    pub fn send(&self, item: T) -> RlResult<()> {
        self.tx.send(item).map_err(|_| RlError::disconnected("fragment edge"))?;
        self.depth.set(self.tx.len() as f64);
        Ok(())
    }

    /// Blocking receive; `None` once the lane is closed and drained.
    pub fn recv(&self) -> Option<T> {
        let item = self.rx.recv().ok();
        self.depth.set(self.rx.len() as f64);
        item
    }

    /// Receive with a timeout; `Ok(None)` on timeout, `Err` when the
    /// lane is closed and drained.
    ///
    /// # Errors
    ///
    /// [`RlError::Disconnected`] once every producer handle is gone and
    /// the queue is empty.
    pub fn recv_timeout(&self, timeout: Duration) -> RlResult<Option<T>> {
        match self.rx.recv_timeout(timeout) {
            Ok(item) => {
                self.depth.set(self.rx.len() as f64);
                Ok(Some(item))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(RlError::disconnected("fragment edge")),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let item = self.rx.try_recv().ok();
        if item.is_some() {
            self.depth.set(self.rx.len() as f64);
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::graph::{FragmentGraph, StageKind};

    fn graph() -> FragmentGraph {
        FragmentGraph::builder()
            .stage("rollout", StageKind::Rollout, 2)
            .stage("replay", StageKind::Replay, 3)
            .edge("rollout", "replay", 2)
            .latest_edge("replay", "rollout")
            .build()
            .unwrap()
    }

    #[test]
    fn materializes_one_lane_per_consumer_replica() {
        let g = graph();
        let lanes =
            EdgeLane::<u32>::materialize(&g, "rollout", "replay", &Recorder::disabled()).unwrap();
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[0].capacity(), 2);
        assert!(EdgeLane::<u32>::materialize(&g, "replay", "ghost", &Recorder::disabled()).is_err());
    }

    #[test]
    fn block_policy_hands_back_rejected_items() {
        let g = graph();
        let lane = EdgeLane::<u32>::materialize(&g, "rollout", "replay", &Recorder::disabled())
            .unwrap()
            .remove(0);
        assert!(lane.offer(1).unwrap().is_none());
        assert!(lane.offer(2).unwrap().is_none());
        // capacity 2: the third offer returns the item for retry
        assert_eq!(lane.offer(3).unwrap(), Some(3));
        assert_eq!(lane.recv(), Some(1));
        assert!(lane.offer(3).unwrap().is_none());
    }

    #[test]
    fn latest_policy_drops_superseded_snapshots() {
        let g = graph();
        let lane = EdgeLane::<u32>::materialize(&g, "replay", "rollout", &Recorder::disabled())
            .unwrap()
            .remove(0);
        assert!(lane.offer(1).unwrap().is_none());
        // slot full: the newer value is dropped without error or handback
        assert!(lane.offer(2).unwrap().is_none());
        assert_eq!(lane.try_recv(), Some(1));
        assert_eq!(lane.try_recv(), None);
    }

    #[test]
    fn depth_gauge_tracks_the_lane() {
        let rec = Recorder::wall();
        let g = graph();
        let lane = EdgeLane::<u32>::materialize(&g, "rollout", "replay", &rec).unwrap().remove(0);
        lane.send(7).unwrap();
        assert_eq!(rec.gauge("frag.replay.mailbox_depth").value(), 1.0);
        assert_eq!(lane.recv(), Some(7));
        assert_eq!(rec.gauge("frag.replay.mailbox_depth").value(), 0.0);
    }
}
