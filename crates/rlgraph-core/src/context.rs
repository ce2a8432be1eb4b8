//! The build context: the single object through which components define
//! dataflow in every phase and on every backend.

use crate::component::{ComponentId, ComponentStore};
use crate::meta::MetaGraph;
use crate::{CoreError, Result};
use rlgraph_graph::{Graph, NodeId, SharedKernel, VarId};
use rlgraph_spaces::Space;
use rlgraph_tensor::{forward, DType, OpKind, Tape, Tensor, ValId};
use std::collections::{HashMap, HashSet};

/// Batch size used for dummy tensors during shape inference (both backends
/// push small artificial tensors through the dataflow, exactly like the
/// paper's PyTorch build: "we simply create torch tensors during the build
/// phase as artificial placeholders", §4.2).
pub const DUMMY_BATCH: usize = 2;

/// Handle to a value flowing through the component graph during one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRef(pub(crate) usize);

impl OpRef {
    /// The raw index (diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a component variable (shared between backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarHandle(pub(crate) VarId);

impl VarHandle {
    /// The underlying backend variable id.
    pub fn var_id(self) -> VarId {
        self.0
    }
}

/// Which build/execution phase the context is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Phase 2: symbolic traversal building the type/shape-less component
    /// graph (graph-function bodies are *not* executed).
    Assemble,
    /// Phase 3, static backend: graph functions emit graph nodes while
    /// dummy tensors propagate shapes.
    StaticBuild,
    /// Define-by-run: graph functions evaluate eagerly on a tape. Used with
    /// dummy inputs for the build (dry run) and with real inputs for every
    /// execution.
    Eager,
}

#[derive(Debug, Clone, Default)]
struct Record {
    node: Option<NodeId>,
    val: Option<ValId>,
    dummy: Option<Tensor>,
    space: Option<Space>,
}

/// One primitive step of a contracted (fast-path) method — the paper's
/// "edge contraction": define-by-run execution through the relevant
/// sub-graph without intermediate component calls.
#[derive(Clone)]
pub(crate) enum Step {
    /// read execution input `idx`
    Input { idx: usize },
    /// fixed tensor
    Const { value: Tensor },
    /// kernel application on earlier step outputs
    Emit { kind: OpKind, inputs: Vec<usize> },
    /// variable read
    ReadVar { var: VarId },
    /// stateful kernel call (outputs are addressed via projection slots)
    Stateful { kernel: SharedKernel, inputs: Vec<usize> },
}

/// The recorded program of a contracted method.
#[derive(Clone, Default)]
pub(crate) struct ContractedProgram {
    pub steps: Vec<Step>,
    /// slot indices of the method outputs
    pub outputs: Vec<usize>,
}

/// Build context: owns the component arena and the backend being targeted,
/// and mediates *every* interaction between components (API calls, graph
/// functions, variables, stateful kernels).
pub struct BuildCtx {
    mode: Mode,
    /// dummy tensors instead of real data; stateful kernels are not invoked
    dry_run: bool,
    records: Vec<Record>,
    store: ComponentStore,
    graph: Option<Graph>,
    tape: Option<Tape>,
    eager_vars: rlgraph_graph::SharedVariableStore,
    built: HashSet<ComponentId>,
    var_reads: HashMap<VarId, OpRef>,
    scope_stack: Vec<String>,
    device_map: crate::devices::DeviceMap,
    meta: MetaGraph,
    /// dummy time dimension for time-ranked spaces
    dummy_time: usize,
    /// dummy batch dimension for batch-ranked spaces
    dummy_batch: usize,
    /// profiling: component API calls routed this trace
    api_calls: u64,
    /// profiling: graph functions entered this trace
    graph_fn_calls: u64,
    /// recording state for contraction
    recording: Option<RecordingState>,
    /// true once `gradients` ran in the current trace (blocks contraction)
    used_gradients: bool,
}

struct RecordingState {
    steps: Vec<Step>,
    /// record index -> step slot
    slot_of: HashMap<usize, usize>,
}

impl BuildCtx {
    /// Creates a context targeting the static-graph backend.
    pub fn new_static(store: ComponentStore) -> Self {
        Self::new(store, Mode::StaticBuild)
    }

    /// Creates a context targeting the define-by-run backend.
    pub fn new_eager(store: ComponentStore) -> Self {
        Self::new(store, Mode::Eager)
    }

    /// Creates a context for symbolic assembly (phase 2).
    pub fn new_assemble(store: ComponentStore) -> Self {
        Self::new(store, Mode::Assemble)
    }

    fn new(store: ComponentStore, mode: Mode) -> Self {
        BuildCtx {
            mode,
            dry_run: true,
            records: Vec::new(),
            store,
            graph: if mode == Mode::StaticBuild { Some(Graph::new()) } else { None },
            tape: if mode == Mode::Eager { Some(Tape::new()) } else { None },
            eager_vars: rlgraph_graph::variables::shared_store(),
            built: HashSet::new(),
            var_reads: HashMap::new(),
            scope_stack: Vec::new(),
            device_map: crate::devices::DeviceMap::default(),
            meta: MetaGraph::default(),
            dummy_time: 2,
            dummy_batch: DUMMY_BATCH,
            api_calls: 0,
            graph_fn_calls: 0,
            recording: None,
            used_gradients: false,
        }
    }

    // ----- configuration -----

    /// Sets the device map consulted when entering component scopes.
    pub fn set_device_map(&mut self, map: crate::devices::DeviceMap) {
        self.device_map = map;
    }

    /// Sets the dummy time dimension used for time-ranked input spaces.
    pub fn set_dummy_time(&mut self, t: usize) {
        self.dummy_time = t.max(1);
    }

    /// Sets the dummy batch dimension (needed when graph functions slice
    /// the batch with static offsets, e.g. multi-tower updates).
    pub fn set_dummy_batch(&mut self, b: usize) {
        self.dummy_batch = b.max(1);
    }

    /// The context's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Whether the trace is a dry run (build) rather than a real execution.
    pub fn is_dry_run(&self) -> bool {
        self.dry_run
    }

    /// The component arena.
    pub fn components(&self) -> &ComponentStore {
        &self.store
    }

    /// Mutable component arena access (composition phase only).
    pub fn components_mut(&mut self) -> &mut ComponentStore {
        &mut self.store
    }

    /// The assembled meta graph (API registry + call structure).
    pub fn meta(&self) -> &MetaGraph {
        &self.meta
    }

    /// Mutable meta-graph access (API registration by the builder).
    pub fn meta_mut(&mut self) -> &mut MetaGraph {
        &mut self.meta
    }

    /// Decomposes the context into its component arena and meta graph.
    pub fn into_parts(self) -> (ComponentStore, MetaGraph) {
        (self.store, self.meta)
    }

    /// The static graph built so far (static mode only).
    pub fn graph(&self) -> Option<&Graph> {
        self.graph.as_ref()
    }

    /// Takes the static graph out of the context (end of a static build).
    pub fn take_graph(&mut self) -> Option<Graph> {
        self.graph.take()
    }

    /// The define-by-run variable store.
    pub fn eager_vars(&self) -> rlgraph_graph::SharedVariableStore {
        self.eager_vars.clone()
    }

    /// Profiling counters: `(api calls, graph_fn calls)` routed since the
    /// last trace start.
    pub fn trace_counters(&self) -> (u64, u64) {
        (self.api_calls, self.graph_fn_calls)
    }

    // ----- trace lifecycle (driven by the builder/executor) -----

    /// Starts a fresh trace: clears per-trace records, variable-read memos
    /// and the tape. `dry_run` selects build (dummy) vs execution (real).
    pub fn start_trace(&mut self, dry_run: bool) {
        self.records.clear();
        self.var_reads.clear();
        self.dry_run = dry_run;
        self.api_calls = 0;
        self.graph_fn_calls = 0;
        self.used_gradients = false;
        if self.mode == Mode::Eager {
            self.tape = Some(Tape::new());
        }
    }

    /// Begins recording a contracted program for the current trace.
    pub(crate) fn start_recording(&mut self) {
        self.recording = Some(RecordingState { steps: Vec::new(), slot_of: HashMap::new() });
    }

    /// Finishes recording; returns the program if the trace was
    /// contractible (no gradient use).
    pub(crate) fn finish_recording(&mut self, outputs: &[OpRef]) -> Option<ContractedProgram> {
        let state = self.recording.take()?;
        if self.used_gradients {
            return None;
        }
        let mut out_slots = Vec::with_capacity(outputs.len());
        for o in outputs {
            out_slots.push(*state.slot_of.get(&o.0)?);
        }
        Some(ContractedProgram { steps: state.steps, outputs: out_slots })
    }

    fn record_step(&mut self, record: usize, step: Step) {
        if let Some(state) = &mut self.recording {
            state.steps.push(step);
            state.slot_of.insert(record, state.steps.len() - 1);
        }
    }

    // ----- record constructors -----

    fn push(&mut self, r: Record) -> OpRef {
        self.records.push(r);
        OpRef(self.records.len() - 1)
    }

    fn symbolic(&mut self) -> OpRef {
        self.push(Record::default())
    }

    /// Registers an external input for the current trace. In static mode
    /// this creates a placeholder; in eager mode it wraps the provided
    /// tensor (or a dummy derived from the space during dry runs).
    ///
    /// # Errors
    ///
    /// Errors if eager execution needs a value but none was provided.
    pub fn input(
        &mut self,
        name: &str,
        space: &Space,
        value: Option<Tensor>,
        input_idx: usize,
    ) -> Result<OpRef> {
        match self.mode {
            Mode::Assemble => Ok(self.symbolic()),
            Mode::StaticBuild => {
                let dtype = space.dtype()?;
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.placeholder(name, dtype);
                let dummy = dummy_for_space(space, self.dummy_batch, self.dummy_time);
                Ok(self.push(Record {
                    node: Some(node),
                    dummy: Some(dummy),
                    space: Some(space.clone()),
                    ..Default::default()
                }))
            }
            Mode::Eager => {
                let tensor = match value {
                    Some(t) => t,
                    None if self.dry_run => {
                        dummy_for_space(space, self.dummy_batch, self.dummy_time)
                    }
                    None => {
                        return Err(CoreError::new(format!(
                            "eager execution of input '{}' requires a value",
                            name
                        )))
                    }
                };
                let tape = self.tape.as_mut().expect("eager mode has a tape");
                let val = tape.leaf(tensor, false);
                let r = self.push(Record {
                    val: Some(val),
                    space: Some(space.clone()),
                    ..Default::default()
                });
                self.record_step(r.0, Step::Input { idx: input_idx });
                Ok(r)
            }
        }
    }

    /// Embeds a constant.
    pub fn constant(&mut self, value: Tensor) -> OpRef {
        match self.mode {
            Mode::Assemble => self.symbolic(),
            Mode::StaticBuild => {
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.constant(value.clone());
                self.push(Record { node: Some(node), dummy: Some(value), ..Default::default() })
            }
            Mode::Eager => {
                let tape = self.tape.as_mut().expect("eager mode has a tape");
                let val = tape.leaf(value.clone(), false);
                let r = self.push(Record { val: Some(val), ..Default::default() });
                self.record_step(r.0, Step::Const { value });
                r
            }
        }
    }

    /// Embeds an f32 scalar constant.
    pub fn scalar(&mut self, v: f32) -> OpRef {
        self.constant(Tensor::scalar(v))
    }

    /// Applies a numeric kernel (inside graph functions).
    ///
    /// # Errors
    ///
    /// Shape/dtype errors surface immediately thanks to dummy propagation —
    /// the build detects problems at the offending component.
    pub fn emit(&mut self, kind: OpKind, inputs: &[OpRef]) -> Result<OpRef> {
        match self.mode {
            Mode::Assemble => Ok(self.symbolic()),
            Mode::StaticBuild => {
                let nodes: Vec<NodeId> = self.nodes_of(inputs)?;
                let dummies: Vec<&Tensor> = self.dummies_of(inputs)?;
                let dummy = forward(&kind, &dummies).map_err(|e| {
                    CoreError::new(format!(
                        "shape error in scope '{}' op {}: {}",
                        self.scope_path(),
                        kind.name(),
                        e.message()
                    ))
                })?;
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.op(kind, &nodes)?;
                Ok(self.push(Record { node: Some(node), dummy: Some(dummy), ..Default::default() }))
            }
            Mode::Eager => {
                let vals: Vec<ValId> = self.vals_of(inputs)?;
                let in_slots: Vec<usize> = inputs.iter().map(|r| r.0).collect();
                let tape = self.tape.as_mut().expect("eager mode has a tape");
                let val = tape.apply(kind.clone(), &vals).map_err(|e| {
                    CoreError::new(format!(
                        "error in scope '{}' op {}: {}",
                        self.scope_stack.join("/"),
                        kind.name(),
                        e.message()
                    ))
                })?;
                let r = self.push(Record { val: Some(val), ..Default::default() });
                if self.recording.is_some() {
                    let slots: Option<Vec<usize>> = {
                        let state = self.recording.as_ref().expect("checked");
                        in_slots.iter().map(|s| state.slot_of.get(s).copied()).collect()
                    };
                    match slots {
                        Some(slots) => self.record_step(r.0, Step::Emit { kind, inputs: slots }),
                        None => self.recording = None, // untracked input: abort contraction
                    }
                }
                Ok(r)
            }
        }
    }

    // ----- variables -----

    /// Declares a variable for the calling component (from
    /// `create_variables`). The name is scoped by the current component
    /// path.
    pub fn variable(&mut self, name: &str, init: Tensor, trainable: bool) -> VarHandle {
        let scoped = if self.scope_stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.scope_path(), name)
        };
        match self.mode {
            Mode::StaticBuild => {
                let graph = self.graph.as_mut().expect("static mode has a graph");
                VarHandle(graph.variable(&scoped, init, trainable))
            }
            _ => VarHandle(self.eager_vars.write().create(scoped, init, trainable)),
        }
    }

    /// Reads a variable (memoized per trace so gradients attach to the same
    /// read node the forward pass used).
    ///
    /// # Errors
    ///
    /// Errors on unknown variables.
    pub fn read_var(&mut self, var: VarHandle) -> Result<OpRef> {
        if let Some(&r) = self.var_reads.get(&var.0) {
            return Ok(r);
        }
        let r = match self.mode {
            Mode::Assemble => self.symbolic(),
            Mode::StaticBuild => {
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.read_var(var.0);
                let dummy = graph.var_defs()[var.0.index()].init.clone();
                self.push(Record { node: Some(node), dummy: Some(dummy), ..Default::default() })
            }
            Mode::Eager => {
                let (value, trainable) = {
                    let vars = self.eager_vars.read();
                    let meta = vars.meta(var.0)?;
                    (meta.value.clone(), meta.trainable)
                };
                let tape = self.tape.as_mut().expect("eager mode has a tape");
                let val = tape.leaf(value, trainable);
                let r = self.push(Record { val: Some(val), ..Default::default() });
                self.record_step(r.0, Step::ReadVar { var: var.0 });
                r
            }
        };
        self.var_reads.insert(var.0, r);
        Ok(r)
    }

    /// Writes a variable. Static mode emits an assign node; eager mode
    /// writes the store immediately (skipped in dry runs so builds do not
    /// corrupt state). Returns the written value's record.
    ///
    /// # Errors
    ///
    /// Errors on unknown variables or shape mismatches.
    pub fn assign_var(&mut self, var: VarHandle, value: OpRef) -> Result<OpRef> {
        match self.mode {
            Mode::Assemble => Ok(self.symbolic()),
            Mode::StaticBuild => {
                let value_node = self.node_of(value)?;
                let dummy = self.records[value.0].dummy.clone();
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.assign(var.0, value_node);
                Ok(self.push(Record { node: Some(node), dummy, ..Default::default() }))
            }
            Mode::Eager => {
                if !self.dry_run {
                    let v = self.value(value)?.clone();
                    self.eager_vars.write().write(var.0, v)?;
                }
                // Assignments make a trace non-contractible (they mutate
                // state outside the step program).
                self.recording = None;
                Ok(value)
            }
        }
    }

    /// Groups update ops so they can be fetched/executed together.
    pub fn group(&mut self, deps: &[OpRef]) -> Result<OpRef> {
        match self.mode {
            Mode::Assemble => Ok(self.symbolic()),
            Mode::StaticBuild => {
                let nodes = self.nodes_of(deps)?;
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let node = graph.group(&nodes);
                Ok(self.push(Record {
                    node: Some(node),
                    dummy: Some(Tensor::scalar(0.0)),
                    ..Default::default()
                }))
            }
            Mode::Eager => {
                // Eager deps already executed; produce a 0-scalar marker.
                Ok(self.constant(Tensor::scalar(0.0)))
            }
        }
    }

    // ----- stateful kernels -----

    /// Invokes (or wires) a stateful kernel with declared output spaces.
    /// During dry runs the kernel is *not* invoked; zero dummies of the
    /// declared spaces stand in.
    ///
    /// Side-effect-only kernels (no declared outputs) return a single
    /// 0-scalar *marker* record: return it from the API method so that
    /// fetching the method's outputs actually executes the kernel on the
    /// lazily evaluated static backend.
    ///
    /// # Errors
    ///
    /// Errors if the kernel's declared output count mismatches `out_spaces`.
    pub fn stateful(
        &mut self,
        kernel: SharedKernel,
        inputs: &[OpRef],
        out_spaces: &[Space],
    ) -> Result<Vec<OpRef>> {
        let declared = kernel.lock().num_outputs();
        if declared != out_spaces.len() {
            return Err(CoreError::new(format!(
                "stateful kernel '{}' declares {} outputs but {} spaces were given",
                kernel.lock().name(),
                declared,
                out_spaces.len()
            )));
        }
        match self.mode {
            Mode::Assemble => Ok((0..out_spaces.len()).map(|_| self.symbolic()).collect()),
            Mode::StaticBuild => {
                let nodes = self.nodes_of(inputs)?;
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let call = graph.stateful(kernel, &nodes);
                if out_spaces.is_empty() {
                    // Side-effect-only kernel: return the call node as a
                    // marker so fetching the method's output executes it.
                    let r = self.push(Record {
                        node: Some(call),
                        dummy: Some(Tensor::scalar(0.0)),
                        ..Default::default()
                    });
                    return Ok(vec![r]);
                }
                let mut out = Vec::with_capacity(out_spaces.len());
                for (i, space) in out_spaces.iter().enumerate() {
                    let node = if i == 0 { call } else { graph.stateful_output(call, i)? };
                    let dummy = dummy_for_space(space, self.dummy_batch, self.dummy_time);
                    out.push(Record {
                        node: Some(node),
                        dummy: Some(dummy),
                        space: Some(space.clone()),
                        ..Default::default()
                    });
                }
                Ok(out.into_iter().map(|r| self.push(r)).collect())
            }
            Mode::Eager => {
                let values: Vec<Tensor> = if self.dry_run {
                    out_spaces
                        .iter()
                        .map(|s| dummy_for_space(s, self.dummy_batch, self.dummy_time))
                        .collect()
                } else {
                    let input_vals: Vec<Tensor> =
                        inputs.iter().map(|r| self.value(*r).cloned()).collect::<Result<_>>()?;
                    let refs: Vec<&Tensor> = input_vals.iter().collect();
                    let outs = kernel.lock().call(&refs)?;
                    if outs.len() != out_spaces.len() {
                        return Err(CoreError::new(format!(
                            "stateful kernel returned {} outputs, expected {}",
                            outs.len(),
                            out_spaces.len()
                        )));
                    }
                    outs
                };
                // Record the contraction step before pushing outputs.
                let in_slots: Option<Vec<usize>> = self.recording.as_ref().map(|state| {
                    inputs.iter().filter_map(|r| state.slot_of.get(&r.0).copied()).collect()
                });
                if out_spaces.is_empty() {
                    if let Some(state) = &mut self.recording {
                        if let Some(in_slots) = &in_slots {
                            if in_slots.len() == inputs.len() {
                                state.steps.push(Step::Stateful {
                                    kernel: kernel.clone(),
                                    inputs: in_slots.clone(),
                                });
                            } else {
                                self.recording = None;
                            }
                        }
                    }
                    let marker = self.constant(Tensor::scalar(0.0));
                    return Ok(vec![marker]);
                }
                let mut out_refs = Vec::with_capacity(values.len());
                let first_slot = self.recording.as_ref().map(|s| s.steps.len());
                for (value, space) in values.into_iter().zip(out_spaces) {
                    let tape = self.tape.as_mut().expect("eager mode has a tape");
                    let val = tape.leaf(value, false);
                    let r = self.push(Record {
                        val: Some(val),
                        space: Some(space.clone()),
                        ..Default::default()
                    });
                    out_refs.push(r);
                }
                if let (Some(in_slots), Some(_first)) = (in_slots, first_slot) {
                    if in_slots.len() == inputs.len() {
                        // one Stateful step; outputs map to slots step..step+n
                        if let Some(state) = &mut self.recording {
                            let step_idx = state.steps.len();
                            state
                                .steps
                                .push(Step::Stateful { kernel: kernel.clone(), inputs: in_slots });
                            for (k, r) in out_refs.iter().enumerate() {
                                // encode projections as synthetic slots
                                state.slot_of.insert(r.0, encode_projection(step_idx, k));
                            }
                        }
                    } else {
                        self.recording = None;
                    }
                }
                Ok(out_refs)
            }
        }
    }

    // ----- autodiff -----

    /// Gradients of `loss` with respect to component variables. Static mode
    /// transforms the graph; eager mode runs the tape backward.
    ///
    /// Returns `None` entries for variables `loss` does not depend on.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn gradients(&mut self, loss: OpRef, vars: &[VarHandle]) -> Result<Vec<Option<OpRef>>> {
        self.used_gradients = true;
        match self.mode {
            Mode::Assemble => Ok(vars.iter().map(|_| Some(self.symbolic())).collect()),
            Mode::StaticBuild => {
                let loss_node = self.node_of(loss)?;
                let wrt: Vec<Option<NodeId>> = vars
                    .iter()
                    .map(|v| self.var_reads.get(&v.0).and_then(|r| self.records[r.0].node))
                    .collect();
                let known: Vec<NodeId> = wrt.iter().flatten().copied().collect();
                let graph = self.graph.as_mut().expect("static mode has a graph");
                let grads = graph.gradients(loss_node, &known)?;
                let mut grad_iter = grads.into_iter();
                let mut out = Vec::with_capacity(vars.len());
                for (v, read) in vars.iter().zip(&wrt) {
                    match read {
                        None => out.push(None),
                        Some(_) => match grad_iter.next().expect("one grad per known read") {
                            None => out.push(None),
                            Some(node) => {
                                let dummy = self
                                    .graph
                                    .as_ref()
                                    .expect("static mode has a graph")
                                    .var_defs()[v.0.index()]
                                .init
                                .clone();
                                out.push(Some(self.push(Record {
                                    node: Some(node),
                                    dummy: Some(dummy),
                                    ..Default::default()
                                })));
                            }
                        },
                    }
                }
                Ok(out)
            }
            Mode::Eager => {
                let loss_val = self.val_of(loss)?;
                let tape = self.tape.as_mut().expect("eager mode has a tape");
                let grads = tape.backward(loss_val)?;
                let mut out = Vec::with_capacity(vars.len());
                for v in vars {
                    let leaf = self.var_reads.get(&v.0).and_then(|r| self.records[r.0].val);
                    match leaf.and_then(|l| grads.get(&l)).cloned() {
                        None => out.push(None),
                        Some(g) => {
                            let tape = self.tape.as_mut().expect("eager mode has a tape");
                            let val = tape.leaf(g, false);
                            out.push(Some(
                                self.push(Record { val: Some(val), ..Default::default() }),
                            ));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    // ----- component dispatch -----

    /// Calls an API method on a component: the only way components exchange
    /// data (the edges of the component graph).
    ///
    /// # Errors
    ///
    /// Propagates component errors; input-incomplete errors defer the build.
    pub fn call(
        &mut self,
        comp: ComponentId,
        method: &str,
        inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        self.api_calls += 1;
        let name = self.store.name(comp);
        // the call structure is what assembly produces; a define-by-run
        // context lives on and would append a node per call for ever
        if self.mode == Mode::Assemble {
            self.meta.record_api_call(comp, &name, method, self.scope_path());
        }
        let mut component = self.store.take(comp)?;
        self.scope_stack.push(name);
        let device = self.device_map.device_for(&self.scope_path());
        let prev_device = self.graph.as_ref().map(|g| g.current_device());
        if let (Some(graph), Some(dev)) = (self.graph.as_mut(), device) {
            graph.set_device(dev);
        }

        let result = (|| {
            if self.mode != Mode::Assemble && !self.built.contains(&comp) {
                let spaces: Vec<Space> =
                    inputs.iter().map(|r| self.space_like(*r)).collect::<Result<_>>()?;
                component.create_variables(self, comp, method, &spaces)?;
                self.built.insert(comp);
            }
            component.call_api(method, self, comp, inputs)
        })();

        if let (Some(graph), Some(prev)) = (self.graph.as_mut(), prev_device) {
            graph.set_device(prev);
        }
        self.scope_stack.pop();
        self.store.put_back(comp, component);
        result
    }

    /// Opens a graph function: the only place backend numeric work happens.
    /// In the assembly phase the body is *not* executed; `n_outputs`
    /// symbolic records are returned instead (the paper's type/shape-less
    /// traversal).
    ///
    /// # Errors
    ///
    /// Errors if the body returns a different number of outputs than
    /// declared.
    pub fn graph_fn<F>(
        &mut self,
        comp: ComponentId,
        name: &str,
        inputs: &[OpRef],
        n_outputs: usize,
        f: F,
    ) -> Result<Vec<OpRef>>
    where
        F: FnOnce(&mut BuildCtx, &[OpRef]) -> Result<Vec<OpRef>>,
    {
        self.graph_fn_calls += 1;
        if self.mode == Mode::Assemble {
            self.meta.record_graph_fn(comp, name, self.scope_path());
            return Ok((0..n_outputs).map(|_| self.symbolic()).collect());
        }
        if let Some(graph) = self.graph.as_mut() {
            graph.push_scope(name);
        }
        let out = f(self, inputs);
        if let Some(graph) = self.graph.as_mut() {
            graph.pop_scope();
        }
        let out = out?;
        if out.len() != n_outputs {
            return Err(CoreError::new(format!(
                "graph function '{}' declared {} outputs but returned {}",
                name,
                n_outputs,
                out.len()
            )));
        }
        Ok(out)
    }

    // ----- record inspection -----

    /// The eager value of a record.
    ///
    /// # Errors
    ///
    /// Errors when the record carries no value (static/assemble traces).
    pub fn value(&self, r: OpRef) -> Result<&Tensor> {
        let rec = self
            .records
            .get(r.0)
            .ok_or_else(|| CoreError::new(format!("unknown record {}", r.0)))?;
        if let Some(v) = rec.val {
            Ok(self.tape.as_ref().expect("eager mode has a tape").value(v))
        } else {
            Err(CoreError::new("record has no concrete value in this mode"))
        }
    }

    /// The static-graph node behind a record.
    ///
    /// # Errors
    ///
    /// Errors outside static mode.
    pub fn node_of(&self, r: OpRef) -> Result<NodeId> {
        self.records
            .get(r.0)
            .and_then(|rec| rec.node)
            .ok_or_else(|| CoreError::new("record has no graph node in this mode"))
    }

    fn val_of(&self, r: OpRef) -> Result<ValId> {
        self.records
            .get(r.0)
            .and_then(|rec| rec.val)
            .ok_or_else(|| CoreError::new("record has no tape value in this mode"))
    }

    fn nodes_of(&self, rs: &[OpRef]) -> Result<Vec<NodeId>> {
        rs.iter().map(|r| self.node_of(*r)).collect()
    }

    fn vals_of(&self, rs: &[OpRef]) -> Result<Vec<ValId>> {
        rs.iter().map(|r| self.val_of(*r)).collect()
    }

    fn dummies_of(&self, rs: &[OpRef]) -> Result<Vec<&Tensor>> {
        rs.iter()
            .map(|r| {
                self.records
                    .get(r.0)
                    .and_then(|rec| rec.dummy.as_ref())
                    .ok_or_else(|| CoreError::new("record has no dummy value for shape inference"))
            })
            .collect()
    }

    /// The concrete shape known for a record (dummy shape in static builds,
    /// value shape in eager traces). Includes the dummy batch dimension —
    /// see [`DUMMY_BATCH`].
    ///
    /// # Errors
    ///
    /// Errors for symbolic records (assembly phase).
    pub fn shape_of(&self, r: OpRef) -> Result<Vec<usize>> {
        let rec = self
            .records
            .get(r.0)
            .ok_or_else(|| CoreError::new(format!("unknown record {}", r.0)))?;
        if let Some(d) = &rec.dummy {
            return Ok(d.shape().to_vec());
        }
        if let Some(v) = rec.val {
            return Ok(self
                .tape
                .as_ref()
                .expect("eager mode has a tape")
                .value(v)
                .shape()
                .to_vec());
        }
        Err(CoreError::input_incomplete("record shape not known yet"))
    }

    /// The dtype known for a record.
    ///
    /// # Errors
    ///
    /// Errors for symbolic records.
    pub fn dtype_of(&self, r: OpRef) -> Result<DType> {
        let rec = self
            .records
            .get(r.0)
            .ok_or_else(|| CoreError::new(format!("unknown record {}", r.0)))?;
        if let Some(d) = &rec.dummy {
            return Ok(d.dtype());
        }
        if let Some(v) = rec.val {
            return Ok(self.tape.as_ref().expect("eager mode has a tape").value(v).dtype());
        }
        Err(CoreError::input_incomplete("record dtype not known yet"))
    }

    /// A primitive [`Space`] describing the record: its declared space when
    /// known, otherwise a box derived from the concrete shape (which then
    /// includes the leading [`DUMMY_BATCH`]/batch dimension).
    ///
    /// # Errors
    ///
    /// Errors for symbolic records.
    pub fn space_like(&self, r: OpRef) -> Result<Space> {
        if let Some(space) = self.records.get(r.0).and_then(|rec| rec.space.clone()) {
            return Ok(space);
        }
        let shape = self.shape_of(r)?;
        Ok(match self.dtype_of(r)? {
            DType::F32 => Space::float_box_bounded(&shape, f32::MIN, f32::MAX),
            DType::I64 => Space::int_box_shaped(&shape, i64::MAX),
            DType::Bool => Space::bool_box_shaped(&shape),
        })
    }

    /// The current scope path (joined component names).
    pub fn scope_path(&self) -> String {
        self.scope_stack.join("/")
    }

    /// The initial (static) or current (eager) value of a variable — used
    /// by optimizers to size slot variables.
    ///
    /// # Errors
    ///
    /// Errors on unknown variables.
    pub fn var_init(&self, var: VarHandle) -> Result<Tensor> {
        match self.mode {
            Mode::StaticBuild => {
                let graph = self.graph.as_ref().expect("static mode has a graph");
                graph
                    .var_defs()
                    .get(var.0.index())
                    .map(|d| d.init.clone())
                    .ok_or_else(|| CoreError::new(format!("unknown variable {:?}", var)))
            }
            _ => Ok(self.eager_vars.read().read(var.0)?.clone()),
        }
    }

    /// The scoped name of a variable.
    ///
    /// # Errors
    ///
    /// Errors on unknown variables.
    pub fn var_name(&self, var: VarHandle) -> Result<String> {
        match self.mode {
            Mode::StaticBuild => {
                let graph = self.graph.as_ref().expect("static mode has a graph");
                graph
                    .var_defs()
                    .get(var.0.index())
                    .map(|d| d.name.clone())
                    .ok_or_else(|| CoreError::new(format!("unknown variable {:?}", var)))
            }
            _ => Ok(self.eager_vars.read().meta(var.0)?.name.clone()),
        }
    }
}

/// Graph functions can use the shared `rlgraph-nn` forward builders and
/// gradient rules directly: the build context *is* an op emitter on both
/// backends.
impl rlgraph_tensor::OpEmitter for BuildCtx {
    type Ref = OpRef;

    fn emit(&mut self, kind: OpKind, inputs: &[OpRef]) -> rlgraph_tensor::Result<OpRef> {
        BuildCtx::emit(self, kind, inputs)
            .map_err(|e| rlgraph_tensor::TensorError::new(e.message()))
    }

    fn scalar_const(&mut self, v: f32) -> OpRef {
        self.scalar(v)
    }
}

/// Encodes a stateful projection as a synthetic slot id (top bit tagged).
fn encode_projection(step: usize, offset: usize) -> usize {
    (1usize << 62) | (step << 8) | offset
}

/// Decodes a synthetic projection slot.
pub(crate) fn decode_projection(slot: usize) -> Option<(usize, usize)> {
    if slot & (1usize << 62) != 0 {
        Some(((slot >> 8) & ((1 << 54) - 1), slot & 0xff))
    } else {
        None
    }
}

/// Builds the dummy tensor for a space: zeros with the declared leading
/// ranks materialised (batch = `dummy_batch`, time = `dummy_time`).
pub(crate) fn dummy_for_space(space: &Space, dummy_batch: usize, dummy_time: usize) -> Tensor {
    let mut leading = Vec::new();
    if space.has_batch_rank() {
        leading.push(dummy_batch);
    }
    if space.has_time_rank() {
        leading.push(dummy_time);
    }
    space
        .zeros_with_leading(&leading)
        .into_tensor()
        .expect("root API input spaces must be primitive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_shapes_respect_ranks() {
        let s = Space::float_box(&[3]).with_batch_rank();
        assert_eq!(dummy_for_space(&s, DUMMY_BATCH, 2).shape(), &[DUMMY_BATCH, 3]);
        let st = Space::float_box(&[3]).with_batch_rank().with_time_rank();
        assert_eq!(dummy_for_space(&st, DUMMY_BATCH, 5).shape(), &[DUMMY_BATCH, 5, 3]);
        let plain = Space::int_box(4);
        assert_eq!(dummy_for_space(&plain, DUMMY_BATCH, 2).shape(), &[] as &[usize]);
    }

    #[test]
    fn projection_encoding_roundtrip() {
        let slot = encode_projection(12, 3);
        assert_eq!(decode_projection(slot), Some((12, 3)));
        assert_eq!(decode_projection(7), None);
    }

    #[test]
    fn eager_emit_and_value() {
        let store = ComponentStore::new();
        let mut ctx = BuildCtx::new_eager(store);
        ctx.start_trace(false);
        let a = ctx.constant(Tensor::scalar(2.0));
        let b = ctx.constant(Tensor::scalar(3.0));
        let c = ctx.emit(OpKind::Mul, &[a, b]).unwrap();
        assert_eq!(ctx.value(c).unwrap().scalar_value().unwrap(), 6.0);
        assert_eq!(ctx.shape_of(c).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn static_emit_builds_nodes_and_dummies() {
        let store = ComponentStore::new();
        let mut ctx = BuildCtx::new_static(store);
        ctx.start_trace(true);
        let space = Space::float_box(&[4]).with_batch_rank();
        let x = ctx.input("x", &space, None, 0).unwrap();
        let y = ctx.emit(OpKind::Relu, &[x]).unwrap();
        assert!(ctx.node_of(y).is_ok());
        assert_eq!(ctx.shape_of(y).unwrap(), vec![DUMMY_BATCH, 4]);
        assert!(ctx.value(y).is_err());
        // shape errors surface at emit time
        let bad = ctx.emit(OpKind::MatMul, &[x, y]);
        assert!(bad.is_err());
    }

    #[test]
    fn variables_shared_between_modes() {
        let store = ComponentStore::new();
        let mut ctx = BuildCtx::new_eager(store);
        ctx.start_trace(true);
        let w = ctx.variable("w", Tensor::scalar(5.0), true);
        let r = ctx.read_var(w).unwrap();
        assert_eq!(ctx.value(r).unwrap().scalar_value().unwrap(), 5.0);
        // dry-run assigns do not write
        let c = ctx.constant(Tensor::scalar(9.0));
        ctx.assign_var(w, c).unwrap();
        assert_eq!(ctx.eager_vars().read().read(w.var_id()).unwrap().scalar_value().unwrap(), 5.0);
        // real assigns do
        ctx.start_trace(false);
        let c = ctx.constant(Tensor::scalar(9.0));
        ctx.assign_var(w, c).unwrap();
        assert_eq!(ctx.eager_vars().read().read(w.var_id()).unwrap().scalar_value().unwrap(), 9.0);
    }

    #[test]
    fn eager_gradients_through_read_var() {
        let store = ComponentStore::new();
        let mut ctx = BuildCtx::new_eager(store);
        ctx.start_trace(false);
        let w = ctx.variable("w", Tensor::scalar(3.0), true);
        let r = ctx.read_var(w).unwrap();
        let loss = ctx.emit(OpKind::Square, &[r]).unwrap();
        let grads = ctx.gradients(loss, &[w]).unwrap();
        let g = grads[0].unwrap();
        assert_eq!(ctx.value(g).unwrap().scalar_value().unwrap(), 6.0);
    }

    #[test]
    fn assemble_returns_symbolic() {
        let store = ComponentStore::new();
        let mut ctx = BuildCtx::new_assemble(store);
        ctx.start_trace(true);
        let a = ctx.constant(Tensor::scalar(1.0));
        assert!(ctx.value(a).is_err());
        assert!(ctx.shape_of(a).is_err());
        let e = ctx.emit(OpKind::Neg, &[a]).unwrap();
        assert!(ctx.node_of(e).is_err());
    }
}
