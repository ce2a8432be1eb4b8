//! The memoizing graph interpreter.

use crate::graph::Graph;
use crate::node::{AssignMode, Device, NodeId, NodeOp};
use crate::variables::{shared_store, SharedVariableStore};
use crate::{GraphError, Result};
use rlgraph_obs::{Histogram, Recorder};
use rlgraph_tensor::{forward, OpKind, Tensor};
use std::collections::HashMap;
use std::time::Instant;

/// Aggregate execution statistics of a session.
///
/// Session-call economics are central to the paper's evaluation (RLlib's
/// fragmented multi-call post-processing vs. RLgraph's batched single-call
/// design), so the session counts every run and every executed op, per op
/// kind and per device.
///
/// Built on demand by [`Session::stats`] from per-node counters; op names
/// are only materialised at snapshot time, never on the run hot path.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// number of `run` invocations
    pub runs: u64,
    /// total ops executed (memoized per run)
    pub ops_executed: u64,
    /// executed-op counts per op name
    pub per_op: HashMap<String, u64>,
    /// executed-op counts per device
    pub per_device: HashMap<Device, u64>,
    /// cumulative per-op self time in microseconds (only populated while a
    /// recorder is attached; empty otherwise)
    pub per_op_time_us: HashMap<String, u64>,
    /// cumulative per-device self time in microseconds (recorder-gated like
    /// `per_op_time_us`)
    pub per_device_time_us: HashMap<Device, u64>,
    /// wall time spent inside `run`
    pub total_run_time: std::time::Duration,
}

/// Per-node execution profile, indexed by [`NodeId`] index.
///
/// The raw data behind [`RunStats`], exposed for profile overlays (e.g.
/// dot export coloring nodes by cumulative self-time).
#[derive(Debug, Clone, Default)]
pub struct NodeProfile {
    /// executed count per node
    pub counts: Vec<u64>,
    /// cumulative self time per node in microseconds (all zero unless a
    /// recorder was attached during the runs)
    pub time_us: Vec<u64>,
}

/// Internal counters: everything keyed by `NodeId` index so the run loop
/// never allocates names.
#[derive(Debug, Clone, Default)]
struct StatsInner {
    runs: u64,
    ops_executed: u64,
    per_node: Vec<u64>,
    per_node_time_us: Vec<u64>,
    per_device: HashMap<Device, u64>,
    per_device_time_us: HashMap<Device, u64>,
    total_run_time: std::time::Duration,
}

/// Executes a [`Graph`] against a [`VariableStore`](crate::VariableStore).
///
/// Each [`Session::run`] evaluates the fetched nodes with per-run
/// memoization: every node computes at most once per call, mirroring
/// TensorFlow session semantics. The store may be private or shared with
/// other sessions (parameter-server-style).
pub struct Session {
    graph: Graph,
    store: SharedVariableStore,
    stats: StatsInner,
    recorder: Recorder,
    run_hist: Histogram,
}

impl Session {
    /// Creates a session with a fresh store initialised from the graph's
    /// variable definitions.
    pub fn new(graph: Graph) -> Self {
        let store = shared_store();
        *store.write() = graph.build_store();
        Session {
            graph,
            store,
            stats: StatsInner::default(),
            recorder: Recorder::disabled(),
            run_hist: Histogram::noop(),
        }
    }

    /// Creates a session sharing an existing store (the store must already
    /// contain this graph's variables, e.g. via another session over the
    /// same graph structure).
    pub fn with_store(graph: Graph, store: SharedVariableStore) -> Self {
        Session {
            graph,
            store,
            stats: StatsInner::default(),
            recorder: Recorder::disabled(),
            run_hist: Histogram::noop(),
        }
    }

    /// Attaches an observability recorder: subsequent runs record a
    /// `session.run` span, a `session.run_us` latency histogram, and
    /// per-op/per-device self-times. With the default disabled recorder,
    /// timing is skipped entirely.
    ///
    /// An enabled recorder also becomes the process-wide kernel-engine
    /// metrics sink (`kernel.gemm.*`, `kernel.conv2d.*`, `kernel.pool.*` —
    /// see `rlgraph_tensor::kernels::observe`), so tensor kernels executed
    /// on behalf of this session report op counts, flops/bytes, and pool
    /// queue depth through the same recorder. A disabled one leaves the
    /// sink alone: it may belong to another session of this process.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.run_hist = recorder.histogram("session.run_us");
        if recorder.is_enabled() {
            rlgraph_tensor::kernels::observe::install_recorder(&recorder);
        }
        self.recorder = recorder;
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the graph (e.g. to build gradient nodes after
    /// session creation; new variables require re-initialising the store).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The shared variable store.
    pub fn store(&self) -> SharedVariableStore {
        self.store.clone()
    }

    /// Re-initialises the store from the graph's definitions (after adding
    /// variables post-construction).
    pub fn reinit_variables(&mut self) {
        *self.store.write() = self.graph.build_store();
    }

    /// Execution statistics so far.
    ///
    /// Name-keyed maps are assembled here from per-node counters, so the
    /// run loop itself never formats or allocates op names.
    pub fn stats(&self) -> RunStats {
        let mut per_op: HashMap<String, u64> = HashMap::new();
        let mut per_op_time_us: HashMap<String, u64> = HashMap::new();
        for (idx, &count) in self.stats.per_node.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let name = self.graph.node(NodeId(idx)).op.name();
            let t = self.stats.per_node_time_us.get(idx).copied().unwrap_or(0);
            if t > 0 {
                *per_op_time_us.entry(name.clone()).or_insert(0) += t;
            }
            *per_op.entry(name).or_insert(0) += count;
        }
        RunStats {
            runs: self.stats.runs,
            ops_executed: self.stats.ops_executed,
            per_op,
            per_device: self.stats.per_device.clone(),
            per_op_time_us,
            per_device_time_us: self.stats.per_device_time_us.clone(),
            total_run_time: self.stats.total_run_time,
        }
    }

    /// Raw per-node execution profile (counts and self-times by node id).
    pub fn node_profile(&self) -> NodeProfile {
        NodeProfile {
            counts: self.stats.per_node.clone(),
            time_us: self.stats.per_node_time_us.clone(),
        }
    }

    /// Resets execution statistics.
    pub fn reset_stats(&mut self) {
        self.stats = StatsInner::default();
    }

    /// Evaluates `fetches` given placeholder `feeds`, in one call.
    ///
    /// # Errors
    ///
    /// Errors on unknown nodes, missing/mistyped feeds, or kernel failures.
    pub fn run(&mut self, fetches: &[NodeId], feeds: &[(NodeId, Tensor)]) -> Result<Vec<Tensor>> {
        let t0 = Instant::now();
        let timed = self.recorder.is_enabled();
        let _run_span = self.recorder.span("session.run");
        let n = self.graph.num_nodes();
        if self.stats.per_node.len() < n {
            self.stats.per_node.resize(n, 0);
            self.stats.per_node_time_us.resize(n, 0);
        }
        for &f in fetches {
            if f.index() >= n {
                return Err(GraphError::new(format!("fetch {} does not exist", f)));
            }
        }
        let mut feed_map: HashMap<NodeId, &Tensor> = HashMap::with_capacity(feeds.len());
        for (id, t) in feeds {
            if id.index() >= n {
                return Err(GraphError::new(format!("feed {} does not exist", id)));
            }
            feed_map.insert(*id, t);
        }

        let mut memo: Vec<Option<Tensor>> = vec![None; n];
        let mut stateful_outs: HashMap<NodeId, Vec<Tensor>> = HashMap::new();
        // Iterative post-order evaluation.
        let mut stack: Vec<NodeId> = fetches.to_vec();
        while let Some(&id) = stack.last() {
            if memo[id.index()].is_some() {
                stack.pop();
                continue;
            }
            let node = self.graph.node(id);
            let mut ready = true;
            for &input in &node.inputs {
                if memo[input.index()].is_none() {
                    stack.push(input);
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
            stack.pop();
            let t_node = if timed { Some(Instant::now()) } else { None };
            let value = self.eval_node(id, &feed_map, &memo, &mut stateful_outs)?;
            let device = self.graph.node(id).device;
            if let Some(t) = t_node {
                let us = t.elapsed().as_micros() as u64;
                self.stats.per_node_time_us[id.index()] += us;
                *self.stats.per_device_time_us.entry(device).or_insert(0) += us;
            }
            self.stats.ops_executed += 1;
            self.stats.per_node[id.index()] += 1;
            *self.stats.per_device.entry(device).or_insert(0) += 1;
            memo[id.index()] = Some(value);
        }

        let out = fetches
            .iter()
            .map(|f| memo[f.index()].clone().expect("fetched node evaluated"))
            .collect();
        self.stats.runs += 1;
        let elapsed = t0.elapsed();
        self.stats.total_run_time += elapsed;
        self.run_hist.record_duration(elapsed);
        Ok(out)
    }

    /// Evaluates a single fetch (convenience wrapper over [`Session::run`]).
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_one(&mut self, fetch: NodeId, feeds: &[(NodeId, Tensor)]) -> Result<Tensor> {
        Ok(self.run(&[fetch], feeds)?.remove(0))
    }

    fn eval_node(
        &self,
        id: NodeId,
        feeds: &HashMap<NodeId, &Tensor>,
        memo: &[Option<Tensor>],
        stateful_outs: &mut HashMap<NodeId, Vec<Tensor>>,
    ) -> Result<Tensor> {
        let node = self.graph.node(id);
        let input_vals: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|i| memo[i.index()].as_ref().expect("inputs evaluated before node"))
            .collect();
        match &node.op {
            NodeOp::Placeholder { name, dtype } => {
                let t = feeds.get(&id).ok_or_else(|| {
                    GraphError::new(format!("missing feed for placeholder '{}' ({})", name, id))
                })?;
                if t.dtype() != *dtype {
                    return Err(GraphError::new(format!(
                        "feed for placeholder '{}' has dtype {}, expected {}",
                        name,
                        t.dtype(),
                        dtype
                    )));
                }
                Ok((*t).clone())
            }
            NodeOp::Constant(t) => Ok(t.clone()),
            NodeOp::ReadVar(v) => Ok(self.store.read().read(*v)?.clone()),
            NodeOp::Assign { var, mode } => {
                let incoming = input_vals[0].clone();
                let mut store = self.store.write();
                let new_value = match mode {
                    AssignMode::Set => incoming,
                    AssignMode::Add => forward(&OpKind::Add, &[store.read(*var)?, &incoming])?,
                    AssignMode::Sub => forward(&OpKind::Sub, &[store.read(*var)?, &incoming])?,
                };
                store.write(*var, new_value.clone())?;
                Ok(new_value)
            }
            NodeOp::Op(kind) => Ok(forward(kind, &input_vals)?),
            NodeOp::Stateful { kernel, .. } => {
                let k = self.graph.kernel(*kernel);
                let outs = k.lock().call(&input_vals)?;
                let first = outs.first().cloned().unwrap_or_else(|| Tensor::scalar(0.0));
                stateful_outs.insert(id, outs);
                Ok(first)
            }
            NodeOp::StatefulOutput { call, index } => {
                let outs = stateful_outs.get(call).ok_or_else(|| {
                    GraphError::new("stateful output requested before its call was evaluated")
                })?;
                outs.get(*index).cloned().ok_or_else(|| {
                    GraphError::new(format!("stateful call produced no output {}", index))
                })
            }
            NodeOp::Group => Ok(Tensor::scalar(0.0)),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("graph", &self.graph)
            .field("runs", &self.stats.runs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stateful::{shared_kernel, StatefulKernel};
    use rlgraph_tensor::DType;

    #[test]
    fn feed_and_fetch() {
        let mut g = Graph::new();
        let x = g.placeholder("x", DType::F32);
        let two = g.constant(Tensor::scalar(2.0));
        let y = g.op(OpKind::Mul, &[x, two]).unwrap();
        let mut sess = Session::new(g);
        let out = sess.run_one(y, &[(x, Tensor::scalar(21.0))]).unwrap();
        assert_eq!(out.scalar_value().unwrap(), 42.0);
    }

    #[test]
    fn missing_feed_errors() {
        let mut g = Graph::new();
        let x = g.placeholder("x", DType::F32);
        let mut sess = Session::new(g);
        assert!(sess.run(&[x], &[]).is_err());
    }

    #[test]
    fn feed_dtype_checked() {
        let mut g = Graph::new();
        let x = g.placeholder("x", DType::F32);
        let mut sess = Session::new(g);
        assert!(sess.run(&[x], &[(x, Tensor::scalar_i64(1))]).is_err());
    }

    #[test]
    fn variables_and_assign() {
        let mut g = Graph::new();
        let w = g.variable("w", Tensor::scalar(10.0), true);
        let wv = g.read_var(w);
        let one = g.constant(Tensor::scalar(1.0));
        let inc = g.assign_add(w, one);
        let mut sess = Session::new(g);
        assert_eq!(sess.run_one(wv, &[]).unwrap().scalar_value().unwrap(), 10.0);
        sess.run(&[inc], &[]).unwrap();
        sess.run(&[inc], &[]).unwrap();
        assert_eq!(sess.run_one(wv, &[]).unwrap().scalar_value().unwrap(), 12.0);
    }

    #[test]
    fn memoization_within_run() {
        // A stateful counter referenced twice is invoked once per run.
        struct Counter {
            hits: i64,
        }
        impl StatefulKernel for Counter {
            fn name(&self) -> &str {
                "counter"
            }
            fn call(&mut self, _: &[&Tensor]) -> Result<Vec<Tensor>> {
                self.hits += 1;
                Ok(vec![Tensor::scalar_i64(self.hits)])
            }
            fn num_outputs(&self) -> usize {
                1
            }
        }
        let mut g = Graph::new();
        let c = g.stateful(shared_kernel(Counter { hits: 0 }), &[]);
        let a = g.op(OpKind::Cast { to: DType::F32 }, &[c]).unwrap();
        let b = g.op(OpKind::Cast { to: DType::F32 }, &[c]).unwrap();
        let s = g.op(OpKind::Add, &[a, b]).unwrap();
        let mut sess = Session::new(g);
        // both branches read the same single invocation
        assert_eq!(sess.run_one(s, &[]).unwrap().scalar_value().unwrap(), 2.0);
        // next run invokes again
        assert_eq!(sess.run_one(s, &[]).unwrap().scalar_value().unwrap(), 4.0);
    }

    #[test]
    fn stateful_multi_output_projection() {
        struct Pair;
        impl StatefulKernel for Pair {
            fn name(&self) -> &str {
                "pair"
            }
            fn call(&mut self, _: &[&Tensor]) -> Result<Vec<Tensor>> {
                Ok(vec![Tensor::scalar(1.0), Tensor::scalar(2.0)])
            }
            fn num_outputs(&self) -> usize {
                2
            }
        }
        let mut g = Graph::new();
        let call = g.stateful(shared_kernel(Pair), &[]);
        let o1 = g.stateful_output(call, 1).unwrap();
        assert!(g.stateful_output(call, 2).is_err());
        let mut sess = Session::new(g);
        assert_eq!(sess.run_one(o1, &[]).unwrap().scalar_value().unwrap(), 2.0);
    }

    #[test]
    fn group_runs_all_deps() {
        let mut g = Graph::new();
        let a = g.variable("a", Tensor::scalar(0.0), false);
        let b = g.variable("b", Tensor::scalar(0.0), false);
        let one = g.constant(Tensor::scalar(1.0));
        let ia = g.assign_add(a, one);
        let ib = g.assign_add(b, one);
        let grp = g.group(&[ia, ib]);
        let ra = g.read_var(a);
        let rb = g.read_var(b);
        let mut sess = Session::new(g);
        sess.run(&[grp], &[]).unwrap();
        let out = sess.run(&[ra, rb], &[]).unwrap();
        assert_eq!(out[0].scalar_value().unwrap(), 1.0);
        assert_eq!(out[1].scalar_value().unwrap(), 1.0);
    }

    #[test]
    fn shared_store_between_sessions() {
        // Parameter-server pattern: two sessions over identical graphs
        // share one store; an assign in one is visible in the other.
        let build = |init: f32| {
            let mut g = Graph::new();
            let w = g.variable("w", Tensor::scalar(init), true);
            let r = g.read_var(w);
            let ph = g.placeholder("v", DType::F32);
            let asg = g.assign(w, ph);
            (g, r, ph, asg)
        };
        let (g1, _r1, ph1, asg1) = build(1.0);
        let (g2, r2, _ph2, _asg2) = build(1.0);
        let mut learner = Session::new(g1);
        let store = learner.store();
        let mut worker = Session::with_store(g2, store);
        learner.run(&[asg1], &[(ph1, Tensor::scalar(7.0))]).unwrap();
        assert_eq!(worker.run_one(r2, &[]).unwrap().scalar_value().unwrap(), 7.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar(1.0));
        let b = g.op(OpKind::Neg, &[a]).unwrap();
        let mut sess = Session::new(g);
        sess.run(&[b], &[]).unwrap();
        sess.run(&[b], &[]).unwrap();
        assert_eq!(sess.stats().runs, 2);
        assert_eq!(sess.stats().per_op.get("neg").copied(), Some(2));
        assert!(sess.stats().ops_executed >= 4);
        sess.reset_stats();
        assert_eq!(sess.stats().runs, 0);
    }

    #[test]
    fn recorder_collects_per_op_timing_and_spans() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar(1.0));
        let b = g.op(OpKind::Neg, &[a]).unwrap();
        let mut sess = Session::new(g);
        let rec = rlgraph_obs::Recorder::wall();
        sess.set_recorder(rec.clone());
        sess.run(&[b], &[]).unwrap();
        sess.run(&[b], &[]).unwrap();
        // run-level histogram + span both recorded
        assert_eq!(rec.histogram("session.run_us").count(), 2);
        let totals = rec.span_totals();
        assert!(totals.iter().any(|(n, t)| n == "session.run" && t.count == 2));
        // per-op timing accounted under op names (may be 0us for trivial
        // ops, but the keys must exist in the profile)
        let profile = sess.node_profile();
        assert_eq!(profile.counts.iter().sum::<u64>(), 4);
        // without a recorder, timing stays off
        let mut plain = Session::new({
            let mut g = Graph::new();
            let a = g.constant(Tensor::scalar(1.0));
            g.op(OpKind::Neg, &[a]).unwrap();
            g
        });
        assert!(!plain.recorder().is_enabled());
        let fetch = NodeId(1);
        plain.run(&[fetch], &[]).unwrap();
        assert!(plain.node_profile().time_us.iter().all(|&t| t == 0));
    }

    #[test]
    fn unknown_fetch_errors() {
        let g = Graph::new();
        let mut sess = Session::new(g);
        assert!(sess.run(&[NodeId(0)], &[]).is_err());
    }

    #[test]
    fn gradients_through_graph() {
        // loss = sum((w*x - y)^2); check dw at w=2, x=[1,2], y=[2,3]
        let mut g = Graph::new();
        let w = g.variable("w", Tensor::scalar(2.0), true);
        let wv = g.read_var(w);
        let x = g.placeholder("x", DType::F32);
        let y = g.placeholder("y", DType::F32);
        let pred = g.op(OpKind::Mul, &[wv, x]).unwrap();
        let err = g.op(OpKind::Sub, &[pred, y]).unwrap();
        let sq = g.op(OpKind::Square, &[err]).unwrap();
        let loss = g.op(OpKind::Sum { axes: None, keep_dims: false }, &[sq]).unwrap();
        let grads = g.gradients(loss, &[wv]).unwrap();
        let gw = grads[0].expect("loss depends on w");
        let mut sess = Session::new(g);
        let out = sess
            .run(
                &[gw],
                &[
                    (x, Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()),
                    (y, Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap()),
                ],
            )
            .unwrap();
        // d/dw sum((wx-y)^2) = sum(2(wx-y)x) = 2(0*1) + 2(1*2) = 4
        assert_eq!(out[0].scalar_value().unwrap(), 4.0);
    }

    #[test]
    fn gradients_independent_var_is_none() {
        let mut g = Graph::new();
        let w = g.variable("w", Tensor::scalar(2.0), true);
        let u = g.variable("u", Tensor::scalar(2.0), true);
        let wv = g.read_var(w);
        let uv = g.read_var(u);
        let loss = g.op(OpKind::Square, &[wv]).unwrap();
        let grads = g.gradients(loss, &[wv, uv]).unwrap();
        assert!(grads[0].is_some());
        assert!(grads[1].is_none());
    }
}
