//! The threaded fragment executor: turns a [`FragmentGraph`] +
//! [`PlacementMap`] into running, supervised stages.
//!
//! Each [`Placement::ActorThread`] stage gets its own [`Supervisor`]
//! (so stages can be stopped and joined independently, in dependency
//! order: rollout before replay, producers before consumers); replicas
//! run as threads named `frag-<stage>-<replica>` and restart with
//! backoff on panics or injected crashes. The single
//! [`Placement::InThread`] stage is the driver — it runs on the caller
//! thread via [`FragmentExecutor::run_driver`]. Per-fragment metrics
//! are emitted under `frag.<stage>.*`.

use super::edge::EdgeLane;
use super::graph::FragmentGraph;
use super::placement::{Placement, PlacementCaps, PlacementMap};
use crate::retry::RetryPolicy;
use crate::supervisor::{ActorOutcome, SupervisionReport, Supervisor};
use rlgraph_core::{CoreError, RlError, RlResult};
use rlgraph_obs::Recorder;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A running fragment pipeline; see the module docs.
pub struct FragmentExecutor {
    graph: FragmentGraph,
    placement: PlacementMap,
    recorder: Recorder,
    restart_policy: RetryPolicy,
    /// Per-stage supervisors, in spawn order; joined in reverse.
    stages: Vec<(String, Supervisor)>,
    /// Supervision reports of stages already joined.
    joined: Vec<(String, SupervisionReport)>,
}

impl FragmentExecutor {
    /// Validates the placement against the graph (local capabilities:
    /// threads only) and prepares an executor.
    ///
    /// # Errors
    ///
    /// Placement validation errors; see [`PlacementMap::validate`].
    pub fn new(
        graph: FragmentGraph,
        placement: PlacementMap,
        recorder: Recorder,
        restart_policy: RetryPolicy,
    ) -> RlResult<Self> {
        placement.validate(&graph, PlacementCaps::local())?;
        Ok(FragmentExecutor {
            graph,
            placement,
            recorder,
            restart_policy,
            stages: Vec::new(),
            joined: Vec::new(),
        })
    }

    /// The executed graph declaration.
    pub fn graph(&self) -> &FragmentGraph {
        &self.graph
    }

    /// The physical placement in effect.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Materializes the lanes of a declared edge (one per consumer
    /// replica), instrumented through this executor's recorder.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] when the edge is not declared.
    pub fn lanes<T>(&self, from: &str, to: &str) -> RlResult<Vec<EdgeLane<T>>> {
        EdgeLane::materialize(&self.graph, from, to, &self.recorder)
    }

    /// Spawns every replica of an [`Placement::ActorThread`] stage.
    /// `make_body(replica)` builds the supervised loop body for one
    /// replica; bodies are re-invoked on supervised restarts. Every
    /// spawned replica runs its body at least once, even when the stage
    /// is stopped first (see [`Supervisor::spawn`]), so bodies poll the
    /// stop flag themselves.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] when the stage is undeclared, not placed on
    /// actor threads, or already spawned.
    pub fn spawn_stage<F>(
        &mut self,
        stage: &str,
        mut make_body: impl FnMut(usize) -> F,
    ) -> RlResult<()>
    where
        F: FnMut(&AtomicBool) -> RlResult<()> + Send + 'static,
    {
        let decl = self.graph.stage(stage).ok_or_else(|| {
            RlError::Core(CoreError::new(format!("fragment stage '{}' is not declared", stage)))
        })?;
        match self.placement.of(stage) {
            Placement::ActorThread => {}
            other => {
                return Err(RlError::Core(CoreError::new(format!(
                    "fragment stage '{}' is placed {}, not actor-thread",
                    stage,
                    other.label()
                ))))
            }
        }
        if self.stages.iter().any(|(n, _)| n == stage) {
            return Err(RlError::Core(CoreError::new(format!(
                "fragment stage '{}' already spawned",
                stage
            ))));
        }
        let mut sup = Supervisor::with_recorder(self.restart_policy.clone(), self.recorder.clone());
        for r in 0..decl.replicas {
            sup.spawn(&format!("frag-{}-{}", stage, r), make_body(r));
        }
        self.recorder.gauge(&format!("frag.{}.replicas", stage)).set(decl.replicas as f64);
        self.stages.push((stage.to_string(), sup));
        Ok(())
    }

    /// The stop flag of a spawned stage's supervisor (replica bodies
    /// poll it).
    pub fn stop_flag(&self, stage: &str) -> Option<Arc<AtomicBool>> {
        self.stages.iter().find(|(n, _)| n == stage).map(|(_, s)| s.stop_flag())
    }

    /// Runs the driver stage (the one [`Placement::InThread`] fragment)
    /// on the caller thread.
    ///
    /// # Errors
    ///
    /// [`RlError::Core`] when the stage is not placed in-thread;
    /// otherwise whatever the body returns.
    pub fn run_driver<R>(
        &mut self,
        stage: &str,
        body: impl FnOnce() -> RlResult<R>,
    ) -> RlResult<R> {
        if self.placement.of(stage) != Placement::InThread {
            return Err(RlError::Core(CoreError::new(format!(
                "fragment stage '{}' is not the in-thread driver",
                stage
            ))));
        }
        self.recorder.gauge(&format!("frag.{}.replicas", stage)).set(1.0);
        let _span = self.recorder.span(format!("frag.{}.drive", stage));
        body()
    }

    /// Joins one spawned stage, optionally raising its stop flag first
    /// (pass `false` when replicas terminate on their own, e.g. after a
    /// fixed task budget — raising the flag early would truncate them
    /// non-deterministically).
    ///
    /// # Errors
    ///
    /// [`RlError::ActorCrashed`] for the first replica that ended
    /// fatally or exhausted its restart budget.
    pub fn join_stage(&mut self, stage: &str, stop_first: bool) -> RlResult<()> {
        let Some(pos) = self.stages.iter().position(|(n, _)| n == stage) else {
            return Ok(()); // never spawned (e.g. in-thread placement)
        };
        let (name, sup) = self.stages.remove(pos);
        let report = if stop_first { sup.stop_and_join() } else { sup.join() };
        self.recorder.counter(&format!("frag.{}.restarts", name)).add(report.total_restarts());
        let failed = fold_outcomes(&report);
        self.joined.push((name, report));
        failed
    }

    /// Stops and joins every remaining stage in reverse spawn order
    /// (consumers outlive producers) and returns the per-stage
    /// supervision reports. A replica whose first run had not started
    /// when the flag went up still gets that run, so its report is the
    /// body's own outcome, never a `Stopped` that hides a fatal error.
    ///
    /// # Errors
    ///
    /// [`RlError::ActorCrashed`] for the first replica across all
    /// stages that ended fatally or exhausted its restart budget — but
    /// only after every stage has been fully joined.
    pub fn shutdown(mut self) -> RlResult<Vec<(String, SupervisionReport)>> {
        let mut first_err = None;
        while let Some((name, sup)) = self.stages.pop() {
            let report = sup.stop_and_join();
            self.recorder.counter(&format!("frag.{}.restarts", name)).add(report.total_restarts());
            if first_err.is_none() {
                first_err = fold_outcomes(&report).err();
            }
            self.joined.push((name, report));
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.joined)),
        }
    }
}

/// A replica that died for good (fatal error or exhausted restart
/// budget) fails the run.
fn fold_outcomes(report: &SupervisionReport) -> RlResult<()> {
    for actor in &report.actors {
        if let ActorOutcome::Fatal(reason) | ActorOutcome::GaveUp(reason) = &actor.outcome {
            return Err(RlError::ActorCrashed {
                actor: actor.name.clone(),
                reason: reason.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::graph::StageKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn graph() -> FragmentGraph {
        FragmentGraph::builder()
            .stage("rollout", StageKind::Rollout, 3)
            .stage("learn", StageKind::Learn, 1)
            .edge("rollout", "learn", 8)
            .build()
            .unwrap()
    }

    fn placement() -> PlacementMap {
        PlacementMap::new().place("learn", Placement::InThread)
    }

    #[test]
    fn spawns_replicas_and_drives_in_thread() {
        let rec = Recorder::wall();
        let mut exec =
            FragmentExecutor::new(graph(), placement(), rec.clone(), RetryPolicy::none()).unwrap();
        let lanes = exec.lanes::<u64>("rollout", "learn").unwrap();
        let lane = lanes.into_iter().next().unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        {
            let lane = lane.clone();
            let hits = hits.clone();
            exec.spawn_stage("rollout", move |r| {
                let lane = lane.clone();
                let hits = hits.clone();
                let mut sent = false;
                move |_stop: &AtomicBool| {
                    if !sent {
                        sent = true;
                        hits.fetch_add(1, Ordering::Relaxed);
                        lane.send(r as u64)?;
                    }
                    Ok(())
                }
            })
            .unwrap();
        }
        let got = exec
            .run_driver("learn", || {
                let mut got = Vec::new();
                for _ in 0..3 {
                    got.push(lane.recv().expect("replica sent"));
                }
                Ok(got)
            })
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        let reports = exec.shutdown().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(rec.gauge("frag.rollout.replicas").value(), 3.0);
    }

    #[test]
    fn rejects_misplaced_spawns_and_double_spawn() {
        let mut exec =
            FragmentExecutor::new(graph(), placement(), Recorder::disabled(), RetryPolicy::none())
                .unwrap();
        // learn is the in-thread driver: spawning it as actor threads is an error
        assert!(exec.spawn_stage("learn", |_| |_: &AtomicBool| Ok(())).is_err());
        assert!(exec.spawn_stage("ghost", |_| |_: &AtomicBool| Ok(())).is_err());
        exec.spawn_stage("rollout", |_| |_: &AtomicBool| Ok(())).unwrap();
        assert!(exec.spawn_stage("rollout", |_| |_: &AtomicBool| Ok(())).is_err());
        exec.shutdown().unwrap();
    }

    #[test]
    fn fatal_replicas_surface_as_actor_crashed() {
        let g = FragmentGraph::builder().stage("rollout", StageKind::Rollout, 1).build().unwrap();
        let mut exec = FragmentExecutor::new(
            g,
            PlacementMap::new(),
            Recorder::disabled(),
            RetryPolicy::none(),
        )
        .unwrap();
        exec.spawn_stage("rollout", |_| {
            |_: &AtomicBool| Err(RlError::Core(CoreError::new("wedged")))
        })
        .unwrap();
        match exec.shutdown() {
            Err(RlError::ActorCrashed { actor, .. }) => {
                assert_eq!(actor, "frag-rollout-0");
            }
            other => panic!("expected ActorCrashed, got {:?}", other.map(|_| ())),
        }
    }
}
