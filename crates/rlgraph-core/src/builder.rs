//! The three-phase component-graph builder (paper §3.3 and Algorithm 1).

use crate::component::{ComponentId, ComponentStore};
use crate::context::{BuildCtx, Mode, OpRef};
use crate::devices::DeviceMap;
use crate::executor::{ApiOps, DbrExecutor, GraphExecutor, StaticExecutor};
use crate::{CoreError, Result};
use rlgraph_spaces::Space;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Timing and size statistics of a build — the quantities behind the
/// paper's Fig. 5a (component-graph trace time vs. main build time).
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// phase-2 assembly ("trace") wall time
    pub assemble_time: Duration,
    /// phase-3 build wall time
    pub build_time: Duration,
    /// components registered in the store
    pub num_components: usize,
    /// components actually touched by the traversal
    pub num_components_touched: usize,
    /// static-graph nodes created (0 for define-by-run)
    pub num_nodes: usize,
    /// variables created
    pub num_variables: usize,
}

/// Builds a component graph for one of the two backends.
///
/// Usage: register components in a [`ComponentStore`], pick a root, declare
/// the root's API input spaces, then call [`ComponentGraphBuilder::build_static`]
/// or [`ComponentGraphBuilder::build_dbr`].
///
/// The build runs the paper's breadth-first fixpoint: methods whose
/// components are not yet *input-complete* (signalled with
/// [`CoreError::input_incomplete`]) are deferred and retried once other
/// methods have built, so declaration order does not matter.
pub struct ComponentGraphBuilder {
    root: ComponentId,
    api: Vec<(String, Vec<Space>)>,
    device_map: DeviceMap,
    dummy_time: usize,
    dummy_batch: usize,
    recorder: rlgraph_obs::Recorder,
}

impl ComponentGraphBuilder {
    /// Creates a builder for the given root component.
    pub fn new(root: ComponentId) -> Self {
        ComponentGraphBuilder {
            root,
            api: Vec::new(),
            device_map: DeviceMap::new(),
            dummy_time: 2,
            dummy_batch: crate::context::DUMMY_BATCH,
            recorder: rlgraph_obs::Recorder::disabled(),
        }
    }

    /// Selects the observability recorder installed in the built executor
    /// (defaults to the no-op recorder, which costs one branch per call).
    pub fn with_recorder(mut self, recorder: rlgraph_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Declares a root API method with the spaces of its inputs (the only
    /// type/shape information users ever provide — paper §1).
    pub fn api_method(mut self, name: &str, input_spaces: Vec<Space>) -> Self {
        self.api.push((name.to_string(), input_spaces));
        self
    }

    /// Sets the device map applied during the build.
    pub fn device_map(mut self, map: DeviceMap) -> Self {
        self.device_map = map;
        self
    }

    /// Sets the dummy time dimension for time-ranked spaces (e.g. the
    /// rollout length for statically unrolled recurrent nets).
    pub fn dummy_time(mut self, t: usize) -> Self {
        self.dummy_time = t;
        self
    }

    /// Sets the dummy batch dimension (needed when graph functions slice
    /// batches with static offsets, e.g. multi-tower updates).
    pub fn dummy_batch(mut self, b: usize) -> Self {
        self.dummy_batch = b;
        self
    }

    /// Phase 2 only: assembles the component graph symbolically and
    /// returns the context (used for trace-overhead measurements and DOT
    /// visualisation of the pure component graph).
    ///
    /// # Errors
    ///
    /// Propagates component errors raised during traversal.
    pub fn assemble(&self, store: ComponentStore) -> Result<(BuildCtx, Duration)> {
        let mut ctx = BuildCtx::new_assemble(store);
        ctx.set_device_map(self.device_map.clone());
        ctx.set_dummy_time(self.dummy_time);
        ctx.set_dummy_batch(self.dummy_batch);
        let t0 = Instant::now();
        for (method, spaces) in &self.api {
            ctx.start_trace(true);
            let inputs: Vec<OpRef> = spaces
                .iter()
                .enumerate()
                .map(|(i, s)| ctx.input(&format!("{}/{}", method, i), s, None, i))
                .collect::<Result<_>>()?;
            let outputs = ctx.call(self.root, method, &inputs)?;
            ctx.meta_mut().register_api(method, inputs.len(), outputs.len());
        }
        Ok((ctx, t0.elapsed()))
    }

    /// Full static-graph build: assembly plus phase-3 compilation into
    /// graph nodes, returning an executor serving the API via sessions.
    ///
    /// # Errors
    ///
    /// Errors if any component stays input-incomplete or a graph function
    /// fails.
    pub fn build_static(&self, store: ComponentStore) -> Result<(StaticExecutor, BuildReport)> {
        let num_components = store.len();
        let (assemble_ctx, assemble_time) = self.assemble(store)?;
        let num_touched = assemble_ctx.meta().num_components_touched();
        let meta = assemble_ctx.meta().clone();
        let store = assemble_ctx.into_store();

        let mut ctx = BuildCtx::new_static(store);
        ctx.set_device_map(self.device_map.clone());
        ctx.set_dummy_time(self.dummy_time);
        ctx.set_dummy_batch(self.dummy_batch);
        let t0 = Instant::now();
        let api_map = self.fixpoint_build(&mut ctx, Mode::StaticBuild)?;
        let build_time = t0.elapsed();
        let graph = ctx.take_graph().expect("static build produces a graph");
        let report = BuildReport {
            assemble_time,
            build_time,
            num_components,
            num_components_touched: num_touched,
            num_nodes: graph.num_nodes(),
            num_variables: graph.num_variables(),
        };
        let mut exec = StaticExecutor::new(graph, api_map, meta);
        exec.set_recorder(self.recorder.clone());
        Ok((exec, report))
    }

    /// Full define-by-run build: assembly plus an eager dry run creating
    /// variables, returning an executor that re-traces per request.
    ///
    /// # Errors
    ///
    /// Errors if any component stays input-incomplete or a graph function
    /// fails.
    pub fn build_dbr(&self, store: ComponentStore) -> Result<(DbrExecutor, BuildReport)> {
        let num_components = store.len();
        let (assemble_ctx, assemble_time) = self.assemble(store)?;
        let num_touched = assemble_ctx.meta().num_components_touched();
        let meta = assemble_ctx.meta().clone();
        let store = assemble_ctx.into_store();

        let mut ctx = BuildCtx::new_eager(store);
        ctx.set_device_map(self.device_map.clone());
        ctx.set_dummy_time(self.dummy_time);
        ctx.set_dummy_batch(self.dummy_batch);
        let t0 = Instant::now();
        let _ = self.fixpoint_build(&mut ctx, Mode::Eager)?;
        let build_time = t0.elapsed();
        let num_variables = ctx.eager_vars().read().len();
        let report = BuildReport {
            assemble_time,
            build_time,
            num_components,
            num_components_touched: num_touched,
            num_nodes: 0,
            num_variables,
        };
        let api: HashMap<String, Vec<Space>> = self.api.iter().cloned().collect();
        let mut exec = DbrExecutor::new(ctx, self.root, api, meta);
        exec.set_recorder(self.recorder.clone());
        Ok((exec, report))
    }

    /// The breadth-first fixpoint over root API methods: build what can be
    /// built, defer input-incomplete methods, retry until no progress.
    fn fixpoint_build(&self, ctx: &mut BuildCtx, mode: Mode) -> Result<HashMap<String, ApiOps>> {
        let mut pending: Vec<(String, Vec<Space>)> = self.api.clone();
        let mut api_map = HashMap::new();
        while !pending.is_empty() {
            let mut next = Vec::new();
            let mut progress = false;
            let mut last_err: Option<CoreError> = None;
            for (method, spaces) in pending {
                ctx.start_trace(true);
                let inputs: Vec<OpRef> = spaces
                    .iter()
                    .enumerate()
                    .map(|(i, s)| ctx.input(&format!("{}/{}", method, i), s, None, i))
                    .collect::<Result<_>>()?;
                match ctx.call(self.root, &method, &inputs) {
                    Ok(outputs) => {
                        progress = true;
                        if mode == Mode::StaticBuild {
                            let placeholders =
                                inputs.iter().map(|r| ctx.node_of(*r)).collect::<Result<_>>()?;
                            let outs =
                                outputs.iter().map(|r| ctx.node_of(*r)).collect::<Result<_>>()?;
                            api_map.insert(method.clone(), ApiOps { placeholders, outputs: outs });
                        }
                    }
                    Err(e) if e.is_input_incomplete() => {
                        last_err = Some(e);
                        next.push((method, spaces));
                    }
                    Err(e) => return Err(e),
                }
            }
            if !progress {
                let detail = last_err.map(|e| e.message().to_string()).unwrap_or_default();
                return Err(CoreError::new(format!(
                    "build stalled: methods {:?} remain input-incomplete ({})",
                    next.iter().map(|(m, _)| m.as_str()).collect::<Vec<_>>(),
                    detail
                )));
            }
            pending = next;
        }
        Ok(api_map)
    }
}

impl BuildCtx {
    /// Consumes the context, returning the component arena (phase
    /// transition).
    pub fn into_store(self) -> ComponentStore {
        self.into_parts().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use rlgraph_tensor::{OpKind, Tensor};

    /// Doubles its input through a graph function.
    struct Doubler;

    impl Component for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn api_methods(&self) -> Vec<String> {
            vec!["double".into()]
        }
        fn call_api(
            &mut self,
            method: &str,
            ctx: &mut BuildCtx,
            id: ComponentId,
            inputs: &[OpRef],
        ) -> Result<Vec<OpRef>> {
            match method {
                "double" => ctx.graph_fn(id, "double_fn", inputs, 1, |ctx, ins| {
                    let two = ctx.scalar(2.0);
                    Ok(vec![ctx.emit(OpKind::Mul, &[ins[0], two])?])
                }),
                other => Err(CoreError::new(format!("unknown method '{}'", other))),
            }
        }
    }

    /// Root with a learnable scale variable and a sub-component.
    struct ScaleRoot {
        child: ComponentId,
        scale: Option<crate::context::VarHandle>,
    }

    impl Component for ScaleRoot {
        fn name(&self) -> &str {
            "root"
        }
        fn api_methods(&self) -> Vec<String> {
            vec!["forward".into()]
        }
        fn create_variables(
            &mut self,
            ctx: &mut BuildCtx,
            _id: ComponentId,
            _method: &str,
            _spaces: &[Space],
        ) -> Result<()> {
            self.scale = Some(ctx.variable("scale", Tensor::scalar(3.0), true));
            Ok(())
        }
        fn call_api(
            &mut self,
            method: &str,
            ctx: &mut BuildCtx,
            id: ComponentId,
            inputs: &[OpRef],
        ) -> Result<Vec<OpRef>> {
            match method {
                "forward" => {
                    let doubled = ctx.call(self.child, "double", inputs)?;
                    // NOTE: variables are only available inside graph_fn
                    // bodies (they do not run during assembly).
                    let scale = self.scale;
                    ctx.graph_fn(id, "scale_fn", &doubled, 1, move |ctx, ins| {
                        let s = ctx.read_var(scale.expect("built before graph_fn runs"))?;
                        Ok(vec![ctx.emit(OpKind::Mul, &[ins[0], s])?])
                    })
                }
                other => Err(CoreError::new(format!("unknown method '{}'", other))),
            }
        }
        fn sub_components(&self) -> Vec<ComponentId> {
            vec![self.child]
        }
    }

    fn setup() -> (ComponentStore, ComponentId) {
        let mut store = ComponentStore::new();
        let child = store.add(Doubler);
        let root = store.add(ScaleRoot { child, scale: None });
        (store, root)
    }

    #[test]
    fn static_build_and_execute() {
        let (store, root) = setup();
        let builder = ComponentGraphBuilder::new(root)
            .api_method("forward", vec![Space::float_box(&[2]).with_batch_rank()]);
        let (mut exec, report) = builder.build_static(store).unwrap();
        assert_eq!(report.num_components, 2);
        assert_eq!(report.num_components_touched, 2);
        assert!(report.num_nodes > 0);
        assert_eq!(report.num_variables, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let out = crate::executor::GraphExecutor::execute(&mut exec, "forward", &[x]).unwrap();
        // 2 * 3 = 6x
        assert_eq!(out[0].as_f32().unwrap(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn dbr_build_and_execute() {
        let (store, root) = setup();
        let builder = ComponentGraphBuilder::new(root)
            .api_method("forward", vec![Space::float_box(&[2]).with_batch_rank()]);
        let (mut exec, report) = builder.build_dbr(store).unwrap();
        assert_eq!(report.num_nodes, 0);
        assert_eq!(report.num_variables, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let out = crate::executor::GraphExecutor::execute(&mut exec, "forward", &[x]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[6.0, 12.0]);
        // the call structure comes from assembly; the context that serves
        // requests must not keep a node per call (it lives as long as the agent)
        assert!(exec.ctx().meta().calls().is_empty());
        assert_eq!(crate::executor::GraphExecutor::meta(&exec).calls().len(), 4);
    }

    #[test]
    fn backends_agree() {
        let (store_s, root_s) = setup();
        let (store_d, root_d) = setup();
        let space = vec![Space::float_box(&[3]).with_batch_rank()];
        let (mut st, _) = ComponentGraphBuilder::new(root_s)
            .api_method("forward", space.clone())
            .build_static(store_s)
            .unwrap();
        let (mut db, _) = ComponentGraphBuilder::new(root_d)
            .api_method("forward", space)
            .build_dbr(store_d)
            .unwrap();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap();
        use crate::executor::GraphExecutor as _;
        let a = st.execute("forward", std::slice::from_ref(&x)).unwrap();
        let b = db.execute("forward", &[x]).unwrap();
        assert!(a[0].allclose(&b[0], 1e-6));
    }

    /// A component whose `sample` method cannot build before `insert`.
    struct OrderSensitive {
        record_space: Option<Space>,
    }

    impl Component for OrderSensitive {
        fn name(&self) -> &str {
            "order"
        }
        fn api_methods(&self) -> Vec<String> {
            vec!["insert".into(), "sample".into()]
        }
        fn create_variables(
            &mut self,
            _ctx: &mut BuildCtx,
            _id: ComponentId,
            method: &str,
            spaces: &[Space],
        ) -> Result<()> {
            if method != "insert" {
                return Err(CoreError::input_incomplete(
                    "record space unknown until insert builds",
                ));
            }
            self.record_space = Some(spaces[0].clone());
            Ok(())
        }
        fn call_api(
            &mut self,
            method: &str,
            ctx: &mut BuildCtx,
            id: ComponentId,
            inputs: &[OpRef],
        ) -> Result<Vec<OpRef>> {
            match method {
                "insert" => ctx.graph_fn(id, "ins", inputs, 1, |ctx, ins| {
                    Ok(vec![ctx.emit(OpKind::Identity, &[ins[0]])?])
                }),
                "sample" => {
                    let space = self.record_space.clone();
                    ctx.graph_fn(id, "smp", inputs, 1, move |ctx, _| {
                        let space =
                            space.ok_or_else(|| CoreError::input_incomplete("not built"))?;
                        let shape = space.shape().expect("primitive").to_vec();
                        Ok(vec![
                            ctx.constant(Tensor::zeros(&shape, space.dtype().expect("primitive")))
                        ])
                    })
                }
                other => Err(CoreError::new(format!("unknown method '{}'", other))),
            }
        }
    }

    #[test]
    fn fixpoint_defers_out_of_order_methods() {
        let mut store = ComponentStore::new();
        let root = store.add(OrderSensitive { record_space: None });
        // `sample` declared FIRST — the fixpoint must defer it, build
        // `insert`, then retry.
        let builder = ComponentGraphBuilder::new(root)
            .api_method("sample", vec![])
            .api_method("insert", vec![Space::float_box(&[2, 3])]);
        let (mut exec, _) = builder.build_static(store).unwrap();
        use crate::executor::GraphExecutor as _;
        let out = exec.execute("sample", &[]).unwrap();
        assert_eq!(out[0].shape(), &[2, 3]);
    }

    #[test]
    fn stalled_build_reports_methods() {
        struct NeverReady;
        impl Component for NeverReady {
            fn name(&self) -> &str {
                "never"
            }
            fn api_methods(&self) -> Vec<String> {
                vec!["go".into()]
            }
            fn create_variables(
                &mut self,
                _ctx: &mut BuildCtx,
                _id: ComponentId,
                _method: &str,
                _spaces: &[Space],
            ) -> Result<()> {
                Err(CoreError::input_incomplete("never ready"))
            }
            fn call_api(
                &mut self,
                _m: &str,
                _ctx: &mut BuildCtx,
                _id: ComponentId,
                i: &[OpRef],
            ) -> Result<Vec<OpRef>> {
                Ok(i.to_vec())
            }
        }
        let mut store = ComponentStore::new();
        let root = store.add(NeverReady);
        let err = ComponentGraphBuilder::new(root)
            .api_method("go", vec![])
            .build_static(store)
            .unwrap_err();
        assert!(err.message().contains("stalled"));
        assert!(err.message().contains("go"));
    }
}
