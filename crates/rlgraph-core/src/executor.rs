//! Graph executors: the bridge between the agent API and a backend
//! (paper §4.1).

use crate::component::ComponentId;
use crate::context::{decode_projection, BuildCtx, ContractedProgram, OpRef, Step};
use crate::error::RlError;
use crate::meta::MetaGraph;
use crate::{CoreError, Result, RlResult};
use rlgraph_graph::{NodeId, Session, SharedVariableStore};
use rlgraph_obs::{Counter, Recorder, SpanGuard};
use rlgraph_spaces::Space;
use rlgraph_tensor::{forward, Tensor};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A point in time by which a call must have completed.
///
/// This is the one deadline currency shared by the serving and
/// distributed layers: retry policies, admission queues, and the
/// executor call surface ([`GraphExecutor::execute_with_deadline`]) all
/// speak `Deadline`, so a budget set at the edge propagates unchanged
/// down to the backend dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline { at: Instant::now() + budget }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// The absolute expiry instant.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The earlier of two optional deadlines (used when coalescing
    /// requests with individual budgets into one batch).
    pub fn earlier(a: Option<Deadline>, b: Option<Deadline>) -> Option<Deadline> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.at <= y.at { x } else { y }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// Opens an `api.<method>` span, formatting the label only when the
/// recorder is live (the disabled path must not allocate).
fn api_span(rec: &Recorder, method: &str) -> Option<SpanGuard> {
    if rec.is_enabled() {
        Some(rec.span(format!("api.{method}")))
    } else {
        None
    }
}

/// The node sets serving one API method on the static backend.
#[derive(Debug, Clone)]
pub struct ApiOps {
    /// input placeholders, in declaration order
    pub placeholders: Vec<NodeId>,
    /// output fetch targets
    pub outputs: Vec<NodeId>,
}

/// Serves agent-API requests against a built component graph.
///
/// "There is no other interaction between user programs and graph other
/// than through API operations defined in the root component" (paper §4.1).
pub trait GraphExecutor: Send {
    /// Executes one API method with positional tensor inputs.
    ///
    /// # Errors
    ///
    /// Errors on unknown methods, arity mismatches, or backend failures.
    fn execute(&mut self, method: &str, inputs: &[Tensor]) -> Result<Vec<Tensor>>;

    /// The unified deadline-aware call surface: checks the deadline,
    /// dispatches [`execute`], and reports failures through the
    /// [`RlError`] taxonomy.
    ///
    /// Both backends inherit this default, so the serving and distributed
    /// retry policies wrap **one** trait method instead of per-backend
    /// code paths. A backend with a genuinely preemptible runtime may
    /// override it to also abort mid-flight work.
    ///
    /// # Errors
    ///
    /// [`RlError::DeadlineExpired`] when `deadline` passed before
    /// dispatch; otherwise [`execute`]'s errors wrapped in
    /// [`RlError::Core`].
    ///
    /// [`execute`]: GraphExecutor::execute
    fn execute_with_deadline(
        &mut self,
        method: &str,
        inputs: &[Tensor],
        deadline: Option<Deadline>,
    ) -> RlResult<Vec<Tensor>> {
        if let Some(d) = deadline {
            if d.expired() {
                return Err(RlError::DeadlineExpired { what: method.to_string() });
            }
        }
        self.execute(method, inputs).map_err(RlError::from)
    }

    /// Snapshot of all variables as `(name, value)` pairs.
    fn export_weights(&self) -> Vec<(String, Tensor)>;

    /// Imports variables by name.
    ///
    /// # Errors
    ///
    /// Errors on unknown names or shape mismatches.
    fn import_weights(&mut self, weights: &[(String, Tensor)]) -> Result<()>;

    /// The assembled component graph (for visualisation/inspection).
    fn meta(&self) -> &MetaGraph;

    /// The backend's variable store (shared for parameter-server setups).
    fn variable_store(&self) -> SharedVariableStore;

    /// Installs an observability recorder; executors record API-method
    /// spans and backend-specific dispatch metrics through it. The default
    /// is the no-op recorder, which keeps instrumentation branches free.
    fn set_recorder(&mut self, recorder: Recorder);

    /// The installed recorder (disabled unless [`set_recorder`] was
    /// called).
    ///
    /// [`set_recorder`]: GraphExecutor::set_recorder
    fn recorder(&self) -> &Recorder;

    /// Downcast to the static-graph executor when that is the backend,
    /// exposing the session's profiling accessors (`stats()`,
    /// `node_profile()`) through a `dyn GraphExecutor`.
    fn as_static(&self) -> Option<&StaticExecutor> {
        None
    }
}

/// Static-graph executor: looks up the method's placeholders and output ops
/// in the registry and serves the request with **one session call** — the
/// call-batching property the paper's throughput results rely on. The
/// component graph itself is discarded after the build ("TF RLgraph does
/// not incur runtime overhead because the component graph is discarded
/// after building", §5.1).
pub struct StaticExecutor {
    session: Session,
    api: HashMap<String, ApiOps>,
    meta: MetaGraph,
    recorder: Recorder,
    requests: Counter,
}

impl StaticExecutor {
    pub(crate) fn new(
        graph: rlgraph_graph::Graph,
        api: HashMap<String, ApiOps>,
        meta: MetaGraph,
    ) -> Self {
        StaticExecutor {
            session: Session::new(graph),
            api,
            meta,
            recorder: Recorder::disabled(),
            requests: Counter::noop(),
        }
    }

    /// The underlying session (profiling, advanced use).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable session access.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The registered API method names.
    pub fn api_methods(&self) -> Vec<&str> {
        self.api.keys().map(|s| s.as_str()).collect()
    }
}

impl GraphExecutor for StaticExecutor {
    fn as_static(&self) -> Option<&StaticExecutor> {
        Some(self)
    }

    fn execute(&mut self, method: &str, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let _span = api_span(&self.recorder, method);
        self.requests.inc();
        let ops = self
            .api
            .get(method)
            .ok_or_else(|| CoreError::new(format!("unknown api method '{}'", method)))?;
        if inputs.len() != ops.placeholders.len() {
            return Err(CoreError::new(format!(
                "api method '{}' expects {} inputs, got {}",
                method,
                ops.placeholders.len(),
                inputs.len()
            )));
        }
        let feeds: Vec<(NodeId, Tensor)> =
            ops.placeholders.iter().copied().zip(inputs.iter().cloned()).collect();
        let outputs = ops.outputs.clone();
        Ok(self.session.run(&outputs, &feeds)?)
    }

    fn export_weights(&self) -> Vec<(String, Tensor)> {
        self.session.store().read().export()
    }

    fn import_weights(&mut self, weights: &[(String, Tensor)]) -> Result<()> {
        Ok(self.session.store().write().import(weights)?)
    }

    fn meta(&self) -> &MetaGraph {
        &self.meta
    }

    fn variable_store(&self) -> SharedVariableStore {
        self.session.store()
    }

    /// API requests get `api.<method>` spans and an `api.requests`
    /// counter, and the underlying session records per-op/per-device
    /// self-times.
    fn set_recorder(&mut self, recorder: Recorder) {
        self.requests = recorder.counter("api.requests");
        self.session.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

impl std::fmt::Debug for StaticExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticExecutor").field("api", &self.api.keys().collect::<Vec<_>>()).finish()
    }
}

/// Define-by-run executor: every request re-traces the component call
/// chain, evaluating graph functions eagerly (paper §4.2: "instead of
/// returning operation objects used for graph construction, RLgraph simply
/// directly evaluates a call-chain of graph functions").
///
/// [`DbrExecutor::enable_fast_path`] records a *contracted* kernel program
/// on the next execution and replays it afterwards, skipping per-component
/// dispatch — the paper's edge-contraction optimisation.
pub struct DbrExecutor {
    ctx: BuildCtx,
    root: ComponentId,
    api: HashMap<String, Vec<Space>>,
    meta: MetaGraph,
    fast_path: HashMap<String, FastPathState>,
    /// cumulative (api_calls, graph_fn_calls) across executions
    dispatch_counters: (u64, u64),
    recorder: Recorder,
    obs_api_calls: Counter,
    obs_fn_calls: Counter,
    obs_replays: Counter,
}

enum FastPathState {
    /// record on the next execution
    Armed,
    /// replay this program
    Ready(ContractedProgram),
}

impl DbrExecutor {
    pub(crate) fn new(
        ctx: BuildCtx,
        root: ComponentId,
        api: HashMap<String, Vec<Space>>,
        meta: MetaGraph,
    ) -> Self {
        DbrExecutor {
            ctx,
            root,
            api,
            meta,
            fast_path: HashMap::new(),
            dispatch_counters: (0, 0),
            recorder: Recorder::disabled(),
            obs_api_calls: Counter::noop(),
            obs_fn_calls: Counter::noop(),
            obs_replays: Counter::noop(),
        }
    }

    /// Arms edge contraction for a method: the next execution records a
    /// flat kernel program; later executions replay it without component
    /// dispatch. Methods that assign variables or take gradients fall back
    /// to tracing automatically.
    pub fn enable_fast_path(&mut self, method: &str) {
        self.fast_path.insert(method.to_string(), FastPathState::Armed);
    }

    /// Whether a method currently replays a contracted program.
    pub fn is_contracted(&self, method: &str) -> bool {
        matches!(self.fast_path.get(method), Some(FastPathState::Ready(_)))
    }

    /// The build context (component access between calls).
    pub fn ctx(&self) -> &BuildCtx {
        &self.ctx
    }

    /// Mutable context access.
    pub fn ctx_mut(&mut self) -> &mut BuildCtx {
        &mut self.ctx
    }

    /// Cumulative `(api_calls, graph_fn_calls)` dispatched over this
    /// executor's lifetime — the overhead the fast path removes.
    pub fn dispatch_counters(&self) -> (u64, u64) {
        self.dispatch_counters
    }

    fn replay(
        program: &ContractedProgram,
        inputs: &[Tensor],
        vars: &SharedVariableStore,
    ) -> Result<Vec<Tensor>> {
        let mut slots: Vec<Option<Tensor>> = Vec::with_capacity(program.steps.len());
        let mut stateful_outs: Vec<Option<Vec<Tensor>>> = vec![None; program.steps.len()];
        let resolve = |slot: usize,
                       slots: &[Option<Tensor>],
                       stateful: &[Option<Vec<Tensor>>]|
         -> Result<Tensor> {
            if let Some((step, off)) = decode_projection(slot) {
                stateful
                    .get(step)
                    .and_then(|o| o.as_ref())
                    .and_then(|v| v.get(off))
                    .cloned()
                    .ok_or_else(|| CoreError::new("contracted replay: missing stateful output"))
            } else {
                slots
                    .get(slot)
                    .and_then(|o| o.clone())
                    .ok_or_else(|| CoreError::new("contracted replay: missing slot"))
            }
        };
        for (i, step) in program.steps.iter().enumerate() {
            let value = match step {
                Step::Input { idx } => Some(
                    inputs
                        .get(*idx)
                        .cloned()
                        .ok_or_else(|| CoreError::new("contracted replay: missing input"))?,
                ),
                Step::Const { value } => Some(value.clone()),
                Step::Emit { kind, inputs: ins } => {
                    let vals: Vec<Tensor> = ins
                        .iter()
                        .map(|s| resolve(*s, &slots, &stateful_outs))
                        .collect::<Result<_>>()?;
                    let refs: Vec<&Tensor> = vals.iter().collect();
                    Some(forward(kind, &refs)?)
                }
                Step::ReadVar { var } => Some(vars.read().read(*var)?.clone()),
                Step::Stateful { kernel, inputs: ins } => {
                    let vals: Vec<Tensor> = ins
                        .iter()
                        .map(|s| resolve(*s, &slots, &stateful_outs))
                        .collect::<Result<_>>()?;
                    let refs: Vec<&Tensor> = vals.iter().collect();
                    let outs = kernel.lock().call(&refs)?;
                    stateful_outs[i] = Some(outs);
                    None
                }
            };
            slots.push(value);
        }
        program.outputs.iter().map(|s| resolve(*s, &slots, &stateful_outs)).collect()
    }
}

impl GraphExecutor for DbrExecutor {
    fn execute(&mut self, method: &str, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let spaces = self
            .api
            .get(method)
            .ok_or_else(|| CoreError::new(format!("unknown api method '{}'", method)))?
            .clone();
        if inputs.len() != spaces.len() {
            return Err(CoreError::new(format!(
                "api method '{}' expects {} inputs, got {}",
                method,
                spaces.len(),
                inputs.len()
            )));
        }
        // Fast path: replay a contracted program when available.
        if let Some(FastPathState::Ready(program)) = self.fast_path.get(method) {
            let _span = if self.recorder.is_enabled() {
                Some(self.recorder.span(format!("replay.{method}")))
            } else {
                None
            };
            self.obs_replays.inc();
            let program = program.clone();
            let vars = self.ctx.eager_vars();
            return Self::replay(&program, inputs, &vars);
        }
        let _span = api_span(&self.recorder, method);
        let record = matches!(self.fast_path.get(method), Some(FastPathState::Armed));

        self.ctx.start_trace(false);
        if record {
            self.ctx.start_recording();
        }
        let refs: Vec<OpRef> = spaces
            .iter()
            .zip(inputs)
            .enumerate()
            .map(|(i, (s, t))| self.ctx.input(&format!("{}/{}", method, i), s, Some(t.clone()), i))
            .collect::<Result<_>>()?;
        let outputs = self.ctx.call(self.root, method, &refs)?;
        let (api_calls, fn_calls) = self.ctx.trace_counters();
        self.dispatch_counters.0 += api_calls;
        self.dispatch_counters.1 += fn_calls;
        self.obs_api_calls.add(api_calls);
        self.obs_fn_calls.add(fn_calls);
        if record {
            if let Some(program) = self.ctx.finish_recording(&outputs) {
                self.fast_path.insert(method.to_string(), FastPathState::Ready(program));
            } else {
                // Not contractible (gradients/assigns) — stop trying.
                self.fast_path.remove(method);
            }
        }
        outputs.iter().map(|r| self.ctx.value(*r).cloned()).collect()
    }

    fn export_weights(&self) -> Vec<(String, Tensor)> {
        self.ctx.eager_vars().read().export()
    }

    fn import_weights(&mut self, weights: &[(String, Tensor)]) -> Result<()> {
        Ok(self.ctx.eager_vars().write().import(weights)?)
    }

    fn meta(&self) -> &MetaGraph {
        &self.meta
    }

    fn variable_store(&self) -> SharedVariableStore {
        self.ctx.eager_vars()
    }

    /// Requests get `api.<method>` spans (`replay.<method>` on the
    /// contracted fast path), and the per-trace dispatch counts feed the
    /// `dbr.api_calls` / `dbr.graph_fn_calls` / `dbr.contracted_replays`
    /// counters.
    fn set_recorder(&mut self, recorder: Recorder) {
        self.obs_api_calls = recorder.counter("dbr.api_calls");
        self.obs_fn_calls = recorder.counter("dbr.graph_fn_calls");
        self.obs_replays = recorder.counter("dbr.contracted_replays");
        // Eager define-by-run execution calls tensor kernels directly
        // (no Session in the path), so install the kernel metrics sink
        // here; a disabled recorder leaves another graph's sink alone.
        if recorder.is_enabled() {
            rlgraph_tensor::kernels::observe::install_recorder(&recorder);
        }
        self.recorder = recorder;
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

impl std::fmt::Debug for DbrExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbrExecutor").field("api", &self.api.keys().collect::<Vec<_>>()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::within(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(30));
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn earlier_picks_the_tighter_budget() {
        let soon = Deadline::within(Duration::from_millis(10));
        let late = Deadline::within(Duration::from_secs(10));
        assert_eq!(Deadline::earlier(Some(soon), Some(late)), Some(soon));
        assert_eq!(Deadline::earlier(Some(late), Some(soon)), Some(soon));
        assert_eq!(Deadline::earlier(None, Some(late)), Some(late));
        assert_eq!(Deadline::earlier(Some(soon), None), Some(soon));
        assert_eq!(Deadline::earlier(None, None), None);
    }

    /// A minimal executor exercising the default deadline surface.
    struct NullExec(MetaGraph);

    impl GraphExecutor for NullExec {
        fn execute(&mut self, _method: &str, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
            Ok(inputs.to_vec())
        }
        fn export_weights(&self) -> Vec<(String, Tensor)> {
            Vec::new()
        }
        fn import_weights(&mut self, _weights: &[(String, Tensor)]) -> Result<()> {
            Ok(())
        }
        fn meta(&self) -> &MetaGraph {
            &self.0
        }
        fn variable_store(&self) -> SharedVariableStore {
            unimplemented!("not needed for the deadline test")
        }
        fn set_recorder(&mut self, _recorder: Recorder) {}
        fn recorder(&self) -> &Recorder {
            unimplemented!("not needed for the deadline test")
        }
    }

    #[test]
    fn default_deadline_surface_rejects_expired_calls() {
        let mut exec = NullExec(MetaGraph::default());
        let x = Tensor::scalar(1.0);
        // no deadline / live deadline → dispatches
        assert_eq!(
            exec.execute_with_deadline("echo", std::slice::from_ref(&x), None).unwrap(),
            vec![x.clone()]
        );
        let live = Some(Deadline::within(Duration::from_secs(30)));
        assert!(exec.execute_with_deadline("echo", std::slice::from_ref(&x), live).is_ok());
        // expired deadline → typed, retryable error without dispatch
        let expired = Some(Deadline::at(Instant::now() - Duration::from_millis(1)));
        let err = exec.execute_with_deadline("echo", &[x], expired).unwrap_err();
        assert!(matches!(&err, RlError::DeadlineExpired { what } if what == "echo"));
        assert!(err.is_retryable());
    }
}
