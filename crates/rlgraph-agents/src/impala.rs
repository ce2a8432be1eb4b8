//! IMPALA (Espeholt et al. 2018): importance-weighted actor–learner
//! architecture with V-trace, reproduced in the paper's "end-to-end
//! computation graph" style (§5.1, Fig. 9).
//!
//! * **Actors** fuse environment stepping *into the graph*: a statically
//!   unrolled rollout alternates policy evaluation, categorical sampling
//!   and an environment-stepping stateful kernel, then enqueues the whole
//!   rollout onto a shared blocking queue — one backend call per rollout
//!   ("RLgraph provides generic execution components for graph-fused
//!   environment stepping").
//! * **The learner** dequeues rollouts in-graph, passes them through a
//!   staging area (double buffering, hiding simulated device latency),
//!   computes the V-trace loss and applies RMSProp — again one call per
//!   update.

use crate::components::{Optimizer, Policy, RecurrentPolicy, Scale};
use crate::config::{Backend, ImpalaConfig};
use crate::vtrace::vtrace_ops;
use crate::Result;
use parking_lot::Mutex;
use rand::RngExt as _;
use rand::SeedableRng;
use rlgraph_core::{
    BuildCtx, BuildReport, Component, ComponentGraphBuilder, ComponentId, ComponentStore,
    CoreError, GraphExecutor, OpRef, VarHandle,
};
use rlgraph_envs::VectorEnv;
use rlgraph_graph::{shared_kernel, StatefulKernel, TensorQueue};
use rlgraph_spaces::Space;
use rlgraph_tensor::{DType, OpKind, Tensor};
use std::sync::Arc;

/// Shared environment state driven from inside the graph.
struct EnvState {
    envs: VectorEnv,
    last_obs: Tensor,
}

/// Shared handle to the fused environments.
pub type SharedEnvs = Arc<Mutex<EnvStateHandle>>;

/// Public wrapper so callers can read frame counters.
pub struct EnvStateHandle {
    state: EnvState,
}

impl EnvStateHandle {
    /// Total environment frames consumed (incl. frame skip).
    pub fn env_frames(&self) -> u64 {
        self.state.envs.stats().env_frames
    }

    /// Mean return over the most recent `n` episodes.
    pub fn mean_recent_return(&self, n: usize) -> Option<f32> {
        self.state.envs.stats().mean_recent_return(n)
    }
}

/// Reads the current observations without stepping.
struct CurrentObsKernel {
    shared: SharedEnvs,
}

impl StatefulKernel for CurrentObsKernel {
    fn name(&self) -> &str {
        "env_current_obs"
    }
    fn call(&mut self, _inputs: &[&Tensor]) -> rlgraph_graph::Result<Vec<Tensor>> {
        Ok(vec![self.shared.lock().state.last_obs.clone()])
    }
    fn num_outputs(&self) -> usize {
        1
    }
}

/// Steps every environment with the given actions (auto-reset), updating
/// the shared observation.
struct EnvStepKernel {
    shared: SharedEnvs,
}

impl StatefulKernel for EnvStepKernel {
    fn name(&self) -> &str {
        "env_step"
    }
    fn call(&mut self, inputs: &[&Tensor]) -> rlgraph_graph::Result<Vec<Tensor>> {
        let [actions] = inputs else {
            return Err(rlgraph_graph::GraphError::new("env_step expects batched actions"));
        };
        let mut guard = self.shared.lock();
        let per_env = guard
            .state
            .envs
            .split_actions(actions)
            .map_err(|e| rlgraph_graph::GraphError::new(e.message()))?;
        let step = guard
            .state
            .envs
            .step(&per_env)
            .map_err(|e| rlgraph_graph::GraphError::new(e.message()))?;
        guard.state.last_obs = step.obs.clone();
        let n = step.rewards.len();
        Ok(vec![
            step.obs,
            Tensor::from_vec(step.rewards, &[n])?,
            Tensor::from_vec_bool(step.terminals, &[n])?,
        ])
    }
    fn num_outputs(&self) -> usize {
        3
    }
}

/// Samples actions from logits (categorical; inverse-CDF with internal
/// RNG).
struct CategoricalSampleKernel {
    rng: rand::rngs::StdRng,
}

impl StatefulKernel for CategoricalSampleKernel {
    fn name(&self) -> &str {
        "categorical_sample"
    }
    fn call(&mut self, inputs: &[&Tensor]) -> rlgraph_graph::Result<Vec<Tensor>> {
        let [logits] = inputs else {
            return Err(rlgraph_graph::GraphError::new("sample expects [b, a] logits"));
        };
        if logits.rank() != 2 {
            return Err(rlgraph_graph::GraphError::new(format!(
                "sample expects [b, a] logits, found {:?}",
                logits.shape()
            )));
        }
        let (b, a) = (logits.shape()[0], logits.shape()[1]);
        let data = logits.as_f32()?;
        let mut actions = Vec::with_capacity(b);
        for row in 0..b {
            let slice = &data[row * a..(row + 1) * a];
            let max = slice.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let exps: Vec<f32> = slice.iter().map(|&v| (v - max).exp()).collect();
            let total: f32 = exps.iter().sum();
            let mut u: f32 = self.rng.random_range(0.0..total);
            let mut chosen = a - 1;
            for (i, &e) in exps.iter().enumerate() {
                if u < e {
                    chosen = i;
                    break;
                }
                u -= e;
            }
            actions.push(chosen as i64);
        }
        Ok(vec![Tensor::from_vec_i64(actions, &[b])?])
    }
    fn num_outputs(&self) -> usize {
        1
    }
}

/// The actor's root component: `rollout_and_enqueue() -> done` runs a
/// statically unrolled, graph-fused rollout and enqueues it.
pub struct ImpalaActorRoot {
    preprocessor: ComponentId,
    policy: ComponentId,
    obs_kernel: rlgraph_graph::SharedKernel,
    step_kernel: rlgraph_graph::SharedKernel,
    sample_kernel: rlgraph_graph::SharedKernel,
    enqueue_kernel: rlgraph_graph::SharedKernel,
    state_space: Space,
    num_actions: i64,
    n_envs: usize,
    rollout_len: usize,
    gamma: f32,
    redundant_assigns: bool,
    lstm_units: Option<usize>,
    h_var: Option<VarHandle>,
    c_var: Option<VarHandle>,
}

impl ImpalaActorRoot {
    /// Composes the actor graph; returns the root and the shared env
    /// handle.
    pub fn compose(
        store: &mut ComponentStore,
        config: &ImpalaConfig,
        mut envs: VectorEnv,
        queue: Arc<TensorQueue>,
    ) -> (Self, SharedEnvs) {
        let state_space = envs.state_space();
        let num_actions = envs.action_space().num_categories().expect("discrete actions");
        let n_envs = envs.len();
        let last_obs = envs.reset_all();
        let shared: SharedEnvs =
            Arc::new(Mutex::new(EnvStateHandle { state: EnvState { envs, last_obs } }));
        let preprocessor = store.add(Scale::new("preprocessor", 1.0));
        let policy_id = match config.lstm_units {
            Some(units) => {
                let policy = RecurrentPolicy::new(
                    store,
                    "policy",
                    &config.network,
                    num_actions as usize,
                    units,
                    config.seed,
                );
                store.add(policy)
            }
            None => {
                let policy = Policy::new(
                    store,
                    "policy",
                    &config.network,
                    num_actions as usize,
                    false,
                    config.seed,
                );
                store.add(policy)
            }
        };
        let root = ImpalaActorRoot {
            preprocessor,
            policy: policy_id,
            obs_kernel: shared_kernel(CurrentObsKernel { shared: shared.clone() }),
            step_kernel: shared_kernel(EnvStepKernel { shared: shared.clone() }),
            sample_kernel: shared_kernel(CategoricalSampleKernel {
                rng: rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(31)),
            }),
            enqueue_kernel: shared_kernel(rlgraph_graph::queue::EnqueueKernel::new(queue)),
            state_space,
            num_actions,
            n_envs,
            rollout_len: config.rollout_len,
            gamma: config.gamma,
            redundant_assigns: config.redundant_actor_assigns,
            lstm_units: config.lstm_units,
            h_var: None,
            c_var: None,
        };
        (root, shared)
    }
}

impl Component for ImpalaActorRoot {
    fn name(&self) -> &str {
        "impala-actor"
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["rollout_and_enqueue".into()]
    }

    fn create_variables(
        &mut self,
        ctx: &mut BuildCtx,
        _id: ComponentId,
        _method: &str,
        _spaces: &[Space],
    ) -> Result<()> {
        if let Some(units) = self.lstm_units {
            // Recurrent state persists across rollouts (zeroed at episode
            // boundaries inside the rollout).
            let zeros = Tensor::zeros(&[self.n_envs, units], DType::F32);
            self.h_var = Some(ctx.variable("lstm-h", zeros.clone(), false));
            self.c_var = Some(ctx.variable("lstm-c", zeros, false));
        }
        Ok(())
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        _inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        if method != "rollout_and_enqueue" {
            return Err(CoreError::new(format!("actor has no method '{}'", method)));
        }
        let obs_space = self.state_space.clone().with_batch_rank();
        let scalar_f = Space::float_box_bounded(&[], f32::MIN, f32::MAX).with_batch_rank();
        let term_space = Space::bool_box().with_batch_rank();
        let action_space = Space::int_box(self.num_actions).with_batch_rank();

        // Fused rollout: obs -> policy -> sample -> env step, T times.
        let obs0 = ctx.graph_fn(id, "read-obs", &[], 1, {
            let kernel = self.obs_kernel.clone();
            let obs_space = obs_space.clone();
            move |ctx, _| ctx.stateful(kernel, &[], std::slice::from_ref(&obs_space))
        })?[0];

        let policy_id = self.policy;
        let redundant = self.redundant_assigns;
        // Recurrent state: read the persisted (h, c) and remember the
        // initial values — the learner re-unrolls from them. Branches on
        // the config (the variables exist only after create_variables, and
        // graph-fn bodies do not run during assembly).
        let mut lstm_state: Option<(OpRef, OpRef)> = if self.lstm_units.is_some() {
            let (h_var, c_var) = (self.h_var, self.c_var);
            let read = ctx.graph_fn(id, "read-lstm-state", &[], 2, move |ctx, _| {
                Ok(vec![
                    ctx.read_var(h_var.expect("recurrent state built"))?,
                    ctx.read_var(c_var.expect("recurrent state built"))?,
                ])
            })?;
            Some((read[0], read[1]))
        } else {
            None
        };
        let initial_state = lstm_state;
        let mut obs_t = obs0;
        let mut states = Vec::with_capacity(self.rollout_len);
        let mut actions = Vec::with_capacity(self.rollout_len);
        let mut logps = Vec::with_capacity(self.rollout_len);
        let mut rewards = Vec::with_capacity(self.rollout_len);
        let mut terminals = Vec::with_capacity(self.rollout_len);
        for t in 0..self.rollout_len {
            let pre = ctx.call(self.preprocessor, "preprocess", &[obs_t])?[0];
            let (logits, next_state) = match lstm_state {
                Some((h, c)) => {
                    let out = ctx.call(self.policy, "step", &[pre, h, c])?;
                    (out[0], Some((out[2], out[3])))
                }
                None => (ctx.call(self.policy, "logits", &[pre])?[0], None),
            };
            let step_out = ctx.graph_fn(id, &format!("step-{}", t), &[logits], 5, {
                let sample = self.sample_kernel.clone();
                let step = self.step_kernel.clone();
                let action_space = action_space.clone();
                let obs_space = obs_space.clone();
                let scalar_f = scalar_f.clone();
                let term_space = term_space.clone();
                move |ctx, ins| {
                    let logits = ins[0];
                    let a =
                        ctx.stateful(sample, &[logits], std::slice::from_ref(&action_space))?[0];
                    let logp_all = ctx.emit(OpKind::LogSoftmax { axis: 1 }, &[logits])?;
                    let logp = ctx.emit(OpKind::SelectIndex, &[logp_all, a])?;
                    let mut out = ctx.stateful(
                        step,
                        &[a],
                        &[obs_space.clone(), scalar_f.clone(), term_space.clone()],
                    )?;
                    // (action, logp, next_obs, reward, terminal)
                    let terminal = out.pop().expect("3 outputs");
                    let mut reward = out.pop().expect("3 outputs");
                    let next_obs = out.pop().expect("3 outputs");
                    if redundant {
                        // DM-reference-style inefficiency: re-assign every
                        // policy variable to itself each step, chained onto
                        // the reward so lazy backends must execute it.
                        let vars = rlgraph_core::collect_var_handles(ctx.components(), policy_id)?;
                        let mut assigns = Vec::with_capacity(vars.len());
                        for v in vars {
                            let value = ctx.read_var(v)?;
                            assigns.push(ctx.assign_var(v, value)?);
                        }
                        let marker = ctx.group(&assigns)?;
                        let zero_c = ctx.scalar(0.0);
                        let zero = ctx.emit(OpKind::Mul, &[marker, zero_c])?;
                        reward = ctx.emit(OpKind::Add, &[reward, zero])?;
                    }
                    Ok(vec![a, logp, next_obs, reward, terminal])
                }
            })?;
            states.push(obs_t);
            actions.push(step_out[0]);
            logps.push(step_out[1]);
            obs_t = step_out[2];
            rewards.push(step_out[3]);
            terminals.push(step_out[4]);
            if let Some((h_next, c_next)) = next_state {
                // zero the recurrent state where the episode ended
                let terminal = step_out[4];
                let masked = ctx.graph_fn(
                    id,
                    &format!("mask-state-{}", t),
                    &[h_next, c_next, terminal],
                    2,
                    move |ctx, ins| {
                        let t_f = ctx.emit(OpKind::Cast { to: DType::F32 }, &[ins[2]])?;
                        let one = ctx.scalar(1.0);
                        let cont = ctx.emit(OpKind::Sub, &[one, t_f])?;
                        let col = ctx.emit(OpKind::ExpandDims { axis: 1 }, &[cont])?;
                        let h = ctx.emit(OpKind::Mul, &[ins[0], col])?;
                        let c = ctx.emit(OpKind::Mul, &[ins[1], col])?;
                        Ok(vec![h, c])
                    },
                )?;
                lstm_state = Some((masked[0], masked[1]));
            }
        }
        let bootstrap = obs_t;
        let gamma = self.gamma;
        let enqueue = self.enqueue_kernel.clone();
        let final_state = lstm_state;
        let (h_var, c_var) = (self.h_var, self.c_var);
        ctx.graph_fn(id, "pack-and-enqueue", &[], 1, move |ctx, _| {
            let s = ctx.emit(OpKind::Stack { axis: 0 }, &states)?;
            let a = ctx.emit(OpKind::Stack { axis: 0 }, &actions)?;
            let lp = ctx.emit(OpKind::Stack { axis: 0 }, &logps)?;
            let r = ctx.emit(OpKind::Stack { axis: 0 }, &rewards)?;
            let term = ctx.emit(OpKind::Stack { axis: 0 }, &terminals)?;
            // discounts = gamma * (1 - terminal)
            let t_f = ctx.emit(OpKind::Cast { to: DType::F32 }, &[term])?;
            let one = ctx.scalar(1.0);
            let cont = ctx.emit(OpKind::Sub, &[one, t_f])?;
            let g = ctx.scalar(gamma);
            let disc = ctx.emit(OpKind::Mul, &[cont, g])?;
            let mut record = vec![s, a, lp, r, disc, bootstrap];
            let mut deps = Vec::new();
            if let (Some((h0, c0)), Some((h_t, c_t))) = (initial_state, final_state) {
                record.push(h0);
                record.push(c0);
                // persist the post-rollout state for the next rollout
                deps.push(ctx.assign_var(h_var.expect("recurrent"), h_t)?);
                deps.push(ctx.assign_var(c_var.expect("recurrent"), c_t)?);
            }
            let marker = ctx.stateful(enqueue, &record, &[])?[0];
            deps.push(marker);
            Ok(vec![ctx.group(&deps)?])
        })
    }

    fn sub_components(&self) -> Vec<ComponentId> {
        vec![self.preprocessor, self.policy]
    }
}

/// The learner's root component: `learn() -> (total, pg, baseline,
/// entropy)` dequeues one rollout, stages it, computes the V-trace loss and
/// applies the optimizer — all in one call.
pub struct ImpalaLearnerRoot {
    preprocessor: ComponentId,
    policy: ComponentId,
    optimizer: ComponentId,
    dequeue_kernel: rlgraph_graph::SharedKernel,
    stage_kernel: rlgraph_graph::SharedKernel,
    state_space: Space,
    num_actions: i64,
    n_envs: usize,
    config: ImpalaConfig,
}

impl ImpalaLearnerRoot {
    /// Composes the learner graph around a shared rollout queue.
    pub fn compose(
        store: &mut ComponentStore,
        config: &ImpalaConfig,
        state_space: Space,
        num_actions: i64,
        n_envs: usize,
        queue: Arc<TensorQueue>,
    ) -> Self {
        let preprocessor = store.add(Scale::new("preprocessor", 1.0));
        let policy_id = match config.lstm_units {
            Some(units) => {
                let policy = RecurrentPolicy::new(
                    store,
                    "policy",
                    &config.network,
                    num_actions as usize,
                    units,
                    config.seed,
                );
                store.add(policy)
            }
            None => {
                let policy = Policy::new(
                    store,
                    "policy",
                    &config.network,
                    num_actions as usize,
                    false,
                    config.seed,
                );
                store.add(policy)
            }
        };
        let optimizer = store.add(Optimizer::new("optimizer", config.optimizer.clone(), policy_id));
        let staging = rlgraph_graph::StagingArea::new();
        let width = if config.lstm_units.is_some() { 8 } else { 6 };
        ImpalaLearnerRoot {
            preprocessor,
            policy: policy_id,
            optimizer,
            dequeue_kernel: shared_kernel(rlgraph_graph::queue::DequeueKernel::new(queue, width)),
            stage_kernel: shared_kernel(rlgraph_graph::queue::StageKernel::new(staging, width)),
            state_space,
            num_actions,
            n_envs,
            config: config.clone(),
        }
    }

    fn rollout_spaces(&self) -> Vec<Space> {
        let t = self.config.rollout_len;
        let n = self.n_envs;
        let core = self.state_space.shape().expect("primitive state space").to_vec();
        let mut s_shape = vec![t, n];
        s_shape.extend(&core);
        let mut boot_shape = vec![n];
        boot_shape.extend(&core);
        let mut spaces = vec![
            Space::float_box_bounded(&s_shape, f32::MIN, f32::MAX),
            Space::int_box_shaped(&[t, n], self.num_actions),
            Space::float_box_bounded(&[t, n], f32::MIN, f32::MAX),
            Space::float_box_bounded(&[t, n], f32::MIN, f32::MAX),
            Space::float_box_bounded(&[t, n], 0.0, 1.0),
            Space::float_box_bounded(&boot_shape, f32::MIN, f32::MAX),
        ];
        if let Some(units) = self.config.lstm_units {
            let state = Space::float_box_bounded(&[n, units], f32::MIN, f32::MAX);
            spaces.push(state.clone());
            spaces.push(state);
        }
        spaces
    }
}

impl Component for ImpalaLearnerRoot {
    fn name(&self) -> &str {
        "impala-learner"
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["learn".into()]
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        _inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        if method != "learn" {
            return Err(CoreError::new(format!("learner has no method '{}'", method)));
        }
        let spaces = self.rollout_spaces();
        let width = spaces.len();
        // Dequeue one rollout, then stage it (double buffering).
        let staged = ctx.graph_fn(id, "dequeue-and-stage", &[], width, {
            let dequeue = self.dequeue_kernel.clone();
            let stage = self.stage_kernel.clone();
            let spaces = spaces.clone();
            move |ctx, _| {
                let rec = ctx.stateful(dequeue, &[], &spaces)?;
                ctx.stateful(stage, &rec, &spaces)
            }
        })?;
        let (s, a, blogp, r, disc, bootstrap) =
            (staged[0], staged[1], staged[2], staged[3], staged[4], staged[5]);
        let pre = ctx.call(self.preprocessor, "preprocess", &[s])?[0];
        let pre_boot = ctx.call(self.preprocessor, "preprocess", &[bootstrap])?[0];
        let core = self.state_space.shape().expect("primitive").to_vec();
        let (logits_flat, values_flat, boot_value) = match self.config.lstm_units {
            None => {
                // Fold [t, n, ...core] -> [t*n, ...core] for the shared torso.
                let folded = ctx.graph_fn(id, "fold-time", &[pre], 1, move |ctx, ins| {
                    let mut spec: Vec<isize> = vec![-1];
                    spec.extend(core.iter().map(|&d| d as isize));
                    Ok(vec![ctx.emit(OpKind::Reshape { shape: spec }, &[ins[0]])?])
                })?[0];
                // one torso evaluation (and one backward pass) for both heads
                let heads = ctx.call(self.policy, "logits_and_value", &[folded])?;
                let boot_value = ctx.call(self.policy, "value", &[pre_boot])?[0];
                (heads[0], heads[1], boot_value)
            }
            Some(_) => {
                // Re-unroll the recurrent policy from the rollout's initial
                // state: one step call per time slice, zeroing the state at
                // episode boundaries exactly as the actor did.
                let (mut h, mut c) = (staged[6], staged[7]);
                let mut logits_rows = Vec::with_capacity(self.config.rollout_len);
                let mut value_rows = Vec::with_capacity(self.config.rollout_len);
                for t in 0..self.config.rollout_len {
                    let x_t =
                        ctx.graph_fn(id, &format!("slice-{}", t), &[pre], 1, move |ctx, ins| {
                            let sl =
                                ctx.emit(OpKind::Slice { axis: 0, start: t, len: 1 }, &[ins[0]])?;
                            Ok(vec![ctx.emit(OpKind::Squeeze { axis: 0 }, &[sl])?])
                        })?[0];
                    let out = ctx.call(self.policy, "step", &[x_t, h, c])?;
                    logits_rows.push(out[0]);
                    value_rows.push(out[1]);
                    // mask at episode boundaries: discount row 0 => terminal
                    let masked = ctx.graph_fn(
                        id,
                        &format!("learner-mask-{}", t),
                        &[out[2], out[3], disc],
                        2,
                        move |ctx, ins| {
                            let row =
                                ctx.emit(OpKind::Slice { axis: 0, start: t, len: 1 }, &[ins[2]])?;
                            let d_t = ctx.emit(OpKind::Squeeze { axis: 0 }, &[row])?;
                            let zero = ctx.scalar(0.0);
                            let alive = ctx.emit(OpKind::Greater, &[d_t, zero])?;
                            let mask = ctx.emit(OpKind::Cast { to: DType::F32 }, &[alive])?;
                            let col = ctx.emit(OpKind::ExpandDims { axis: 1 }, &[mask])?;
                            let h = ctx.emit(OpKind::Mul, &[ins[0], col])?;
                            let c = ctx.emit(OpKind::Mul, &[ins[1], col])?;
                            Ok(vec![h, c])
                        },
                    )?;
                    h = masked[0];
                    c = masked[1];
                }
                let boot_value = ctx.call(self.policy, "step", &[pre_boot, h, c])?[1];
                let packed = ctx.graph_fn(
                    id,
                    "pack-unrolled",
                    &[&logits_rows[..], &value_rows[..]].concat(),
                    2,
                    move |ctx, ins| {
                        let tlen = ins.len() / 2;
                        let logits = ctx.emit(OpKind::Stack { axis: 0 }, &ins[..tlen])?;
                        let values = ctx.emit(OpKind::Stack { axis: 0 }, &ins[tlen..])?;
                        // fold [t, n, d] into [t*n, d], keeping the last dim
                        let fold_last = |ctx: &mut BuildCtx, x: OpRef| -> crate::Result<OpRef> {
                            let shape = ctx.shape_of(x)?;
                            let d = *shape.last().expect("rank >= 1") as isize;
                            ctx.emit(OpKind::Reshape { shape: vec![-1, d] }, &[x])
                        };
                        Ok(vec![fold_last(ctx, logits)?, fold_last(ctx, values)?])
                    },
                )?;
                (packed[0], packed[1], boot_value)
            }
        };

        let cfg = self.config.clone();
        let t_len = cfg.rollout_len;
        let loss_out = ctx.graph_fn(
            id,
            "vtrace-loss",
            &[logits_flat, values_flat, boot_value, a, blogp, r, disc, s],
            4,
            move |ctx, ins| {
                let [logits_flat, values_flat, boot_value, a, blogp, r, disc, s_ref] = *ins else {
                    unreachable!("arity checked")
                };
                // target log-probs of the taken actions
                let logp_all = ctx.emit(OpKind::LogSoftmax { axis: 1 }, &[logits_flat])?;
                let a_flat = ctx.emit(OpKind::Reshape { shape: vec![-1] }, &[a])?;
                let tlogp_flat = ctx.emit(OpKind::SelectIndex, &[logp_all, a_flat])?;
                let tlogp = ctx.emit(OpKind::UnfoldLike { n: 2 }, &[tlogp_flat, s_ref])?;
                let log_rhos_full = ctx.emit(OpKind::Sub, &[tlogp, blogp])?;
                let log_rhos = ctx.emit(OpKind::StopGradient, &[log_rhos_full])?;
                // values [t, n]
                let v_flat0 = ctx.emit(OpKind::Reshape { shape: vec![-1] }, &[values_flat])?;
                let values = ctx.emit(OpKind::UnfoldLike { n: 2 }, &[v_flat0, s_ref])?;
                let values_ng = ctx.emit(OpKind::StopGradient, &[values])?;
                let boot0 = ctx.emit(OpKind::Reshape { shape: vec![-1] }, &[boot_value])?;
                let boot_ng = ctx.emit(OpKind::StopGradient, &[boot0])?;
                let vt = vtrace_ops(
                    ctx,
                    log_rhos,
                    disc,
                    r,
                    values_ng,
                    boot_ng,
                    t_len,
                    cfg.rho_clip,
                    cfg.c_clip,
                )?;
                let vs = ctx.emit(OpKind::StopGradient, &[vt.vs])?;
                let pg_adv = ctx.emit(OpKind::StopGradient, &[vt.pg_advantages])?;
                // policy gradient: -mean(pg_adv * log pi(a))
                let weighted = ctx.emit(OpKind::Mul, &[pg_adv, tlogp])?;
                let pg_mean =
                    ctx.emit(OpKind::Mean { axes: None, keep_dims: false }, &[weighted])?;
                let pg_loss = ctx.emit(OpKind::Neg, &[pg_mean])?;
                // baseline: 0.5 mean((vs - V)^2) — gradient flows into V
                let diff = ctx.emit(OpKind::Sub, &[vs, values])?;
                let sq = ctx.emit(OpKind::Square, &[diff])?;
                let half = ctx.scalar(0.5);
                let sq_h = ctx.emit(OpKind::Mul, &[sq, half])?;
                let baseline = ctx.emit(OpKind::Mean { axes: None, keep_dims: false }, &[sq_h])?;
                // entropy bonus: -sum(p log p) per state, averaged
                let p = ctx.emit(OpKind::Exp, &[logp_all])?;
                let plogp = ctx.emit(OpKind::Mul, &[p, logp_all])?;
                let ent_rows =
                    ctx.emit(OpKind::Sum { axes: Some(vec![1]), keep_dims: false }, &[plogp])?;
                let ent_mean =
                    ctx.emit(OpKind::Mean { axes: None, keep_dims: false }, &[ent_rows])?;
                let entropy = ctx.emit(OpKind::Neg, &[ent_mean])?;
                // total = pg_cost*pg + baseline_cost*b - entropy_cost*H
                let pc = ctx.scalar(cfg.pg_cost);
                let bc = ctx.scalar(cfg.baseline_cost);
                let ec = ctx.scalar(cfg.entropy_cost);
                let term1 = ctx.emit(OpKind::Mul, &[pg_loss, pc])?;
                let term2 = ctx.emit(OpKind::Mul, &[baseline, bc])?;
                let term3 = ctx.emit(OpKind::Mul, &[entropy, ec])?;
                let sum12 = ctx.emit(OpKind::Add, &[term1, term2])?;
                let total = ctx.emit(OpKind::Sub, &[sum12, term3])?;
                Ok(vec![total, pg_loss, baseline, entropy])
            },
        )?;
        let step_done = ctx.call(self.optimizer, "step", &[loss_out[0]])?[0];
        let done = ctx
            .graph_fn(id, "learn-group", &[step_done], 1, |ctx, ins| Ok(vec![ctx.group(ins)?]))?[0];
        Ok(vec![loss_out[0], loss_out[1], loss_out[2], loss_out[3], done])
    }

    fn sub_components(&self) -> Vec<ComponentId> {
        vec![self.preprocessor, self.policy, self.optimizer]
    }
}

/// Losses from one learner step.
#[derive(Debug, Clone, Copy)]
pub struct ImpalaLosses {
    /// total weighted loss
    pub total: f32,
    /// policy-gradient term
    pub pg: f32,
    /// baseline (value) term
    pub baseline: f32,
    /// entropy of the policy
    pub entropy: f32,
}

/// An IMPALA actor process: one `rollout()` call produces and enqueues a
/// full rollout through the fused graph.
pub struct ImpalaActor {
    executor: Box<dyn GraphExecutor>,
    shared: SharedEnvs,
    report: BuildReport,
}

impl ImpalaActor {
    /// Builds an actor over `envs`, publishing rollouts to `queue`.
    ///
    /// # Errors
    ///
    /// Propagates build errors.
    pub fn new(config: &ImpalaConfig, envs: VectorEnv, queue: Arc<TensorQueue>) -> Result<Self> {
        let n_envs = envs.len();
        let mut store = ComponentStore::new();
        let (root, shared) = ImpalaActorRoot::compose(&mut store, config, envs, queue);
        let root_id = store.add(root);
        let builder = ComponentGraphBuilder::new(root_id)
            .api_method("rollout_and_enqueue", vec![])
            .dummy_batch(n_envs);
        let (executor, report): (Box<dyn GraphExecutor>, BuildReport) = match config.backend {
            Backend::Static => {
                let (e, r) = builder.build_static(store)?;
                (Box::new(e), r)
            }
            Backend::DefineByRun => {
                let (e, r) = builder.build_dbr(store)?;
                (Box::new(e), r)
            }
        };
        Ok(ImpalaActor { executor, shared, report })
    }

    /// Runs one fused rollout and enqueues it (blocks when the queue is
    /// full — IMPALA's natural backpressure).
    ///
    /// # Errors
    ///
    /// Propagates execution errors (including queue closure).
    pub fn rollout(&mut self) -> Result<()> {
        self.executor.execute("rollout_and_enqueue", &[])?;
        Ok(())
    }

    /// Environment frames consumed so far.
    pub fn env_frames(&self) -> u64 {
        self.shared.lock().env_frames()
    }

    /// Mean recent episode return.
    pub fn mean_recent_return(&self, n: usize) -> Option<f32> {
        self.shared.lock().mean_recent_return(n)
    }

    /// Imports policy weights (learner → actor sync). Names are matched by
    /// their path *below* the root scope, since actor and learner graphs
    /// have different roots.
    ///
    /// # Errors
    ///
    /// Errors on mismatched variables.
    pub fn set_weights(&mut self, weights: &[(String, Tensor)]) -> Result<()> {
        let own: Vec<String> = self.executor.export_weights().into_iter().map(|(n, _)| n).collect();
        let mut renamed = Vec::with_capacity(weights.len());
        for (name, value) in weights {
            let suffix = strip_root(name);
            // Learner-only variables (e.g. the baseline value head, which
            // actors never build) are skipped: actors only need the policy
            // path.
            if let Some(target) = own.iter().find(|n| strip_root(n) == suffix) {
                renamed.push((target.clone(), value.clone()));
            }
        }
        if renamed.is_empty() {
            return Err(CoreError::new("no learner weights matched any actor variable"));
        }
        self.executor.import_weights(&renamed)
    }

    /// The build statistics.
    pub fn build_report(&self) -> &BuildReport {
        &self.report
    }
}

/// Drops the leading root-scope segment of a variable name.
fn strip_root(name: &str) -> &str {
    name.split_once('/').map(|(_, rest)| rest).unwrap_or(name)
}

/// The IMPALA learner process.
pub struct ImpalaLearner {
    executor: Box<dyn GraphExecutor>,
    report: BuildReport,
    updates: u64,
}

impl ImpalaLearner {
    /// Builds a learner reading rollouts of `n_envs` environments from
    /// `queue`.
    ///
    /// # Errors
    ///
    /// Propagates build errors.
    pub fn new(
        config: &ImpalaConfig,
        state_space: Space,
        num_actions: i64,
        n_envs: usize,
        queue: Arc<TensorQueue>,
    ) -> Result<Self> {
        let mut store = ComponentStore::new();
        let root =
            ImpalaLearnerRoot::compose(&mut store, config, state_space, num_actions, n_envs, queue);
        let root_id = store.add(root);
        let builder =
            ComponentGraphBuilder::new(root_id).api_method("learn", vec![]).dummy_batch(n_envs);
        let (executor, report): (Box<dyn GraphExecutor>, BuildReport) = match config.backend {
            Backend::Static => {
                let (e, r) = builder.build_static(store)?;
                (Box::new(e), r)
            }
            Backend::DefineByRun => {
                let (e, r) = builder.build_dbr(store)?;
                (Box::new(e), r)
            }
        };
        Ok(ImpalaLearner { executor, report, updates: 0 })
    }

    /// One learning step: blocks until a rollout is available.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (including queue closure).
    pub fn learn(&mut self) -> Result<ImpalaLosses> {
        let out = self.executor.execute("learn", &[])?;
        self.updates += 1;
        Ok(ImpalaLosses {
            total: out[0].scalar_value()?,
            pg: out[1].scalar_value()?,
            baseline: out[2].scalar_value()?,
            entropy: out[3].scalar_value()?,
        })
    }

    /// Snapshot of the policy weights for actor sync.
    pub fn get_weights(&self) -> Vec<(String, Tensor)> {
        self.executor
            .export_weights()
            .into_iter()
            .filter(|(name, _)| name.contains("policy"))
            .collect()
    }

    /// Number of updates performed.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// The build statistics.
    pub fn build_report(&self) -> &BuildReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_envs::RandomEnv;
    use rlgraph_nn::{Activation, NetworkSpec};

    fn small_config(backend: Backend) -> ImpalaConfig {
        ImpalaConfig {
            backend,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            rollout_len: 4,
            queue_capacity: 4,
            seed: 5,
            ..ImpalaConfig::default()
        }
    }

    fn envs(n: usize) -> VectorEnv {
        VectorEnv::from_factory(n, |i| Box::new(RandomEnv::new(&[3], 2, 12, i as u64))).unwrap()
    }

    #[test]
    fn actor_enqueues_rollouts() {
        for backend in [Backend::Static, Backend::DefineByRun] {
            let cfg = small_config(backend);
            let queue = TensorQueue::new("rollouts", cfg.queue_capacity);
            let mut actor = ImpalaActor::new(&cfg, envs(2), queue.clone()).unwrap();
            actor.rollout().unwrap();
            assert_eq!(queue.len(), 1);
            let rec = queue.dequeue().unwrap();
            assert_eq!(rec.len(), 6);
            assert_eq!(rec[0].shape(), &[4, 2, 3]); // states [t, n, core]
            assert_eq!(rec[1].shape(), &[4, 2]); // actions
            assert_eq!(rec[1].dtype(), DType::I64);
            assert_eq!(rec[5].shape(), &[2, 3]); // bootstrap obs
                                                 // frames: 4 steps × 2 envs
            assert_eq!(actor.env_frames(), 8);
        }
    }

    #[test]
    fn learner_consumes_and_updates() {
        let cfg = small_config(Backend::Static);
        let queue = TensorQueue::new("rollouts", cfg.queue_capacity);
        let mut actor = ImpalaActor::new(&cfg, envs(2), queue.clone()).unwrap();
        let state_space = Space::float_box(&[3]);
        let mut learner = ImpalaLearner::new(&cfg, state_space, 2, 2, queue).unwrap();
        actor.rollout().unwrap();
        let losses = learner.learn().unwrap();
        assert!(losses.total.is_finite());
        assert!(losses.baseline >= 0.0);
        assert!(losses.entropy > 0.0, "fresh policy should have entropy, got {}", losses.entropy);
        assert_eq!(learner.num_updates(), 1);
    }

    /// The repo benchmark's `impala_inproc` learner (3 conv + dense 64 on
    /// GridPong pixels, rollout 20 x 4 envs) evaluates its torso once per
    /// pass: the 80-frame batch and the 4-frame bootstrap forward, one
    /// backward. Two separate policy calls on the batch would make it
    /// 9 / 6 / 4.
    #[test]
    fn learner_evaluates_the_conv_torso_once() {
        use rlgraph_envs::{Env, GridPong, GridPongConfig};
        use rlgraph_nn::LayerSpec;
        let conv = |filters, stride| LayerSpec::Conv2d {
            filters,
            kernel: 3,
            stride,
            padding: 1,
            activation: Activation::Relu,
        };
        let cfg = ImpalaConfig {
            backend: Backend::Static,
            network: NetworkSpec::new(vec![
                conv(16, 2),
                conv(32, 2),
                conv(32, 1),
                LayerSpec::Flatten,
                LayerSpec::Dense { units: 64, activation: Activation::Relu },
            ]),
            rollout_len: 20,
            queue_capacity: 4,
            seed: 1,
            ..ImpalaConfig::default()
        };
        let pong =
            |i: usize| GridPong::new(GridPongConfig { seed: i as u64, ..Default::default() });
        let (state_space, n_envs) = (pong(0).state_space(), 4);
        let envs = VectorEnv::from_factory(n_envs, |i| Box::new(pong(i))).unwrap();
        let queue = TensorQueue::new("rollouts", cfg.queue_capacity);
        let mut actor = ImpalaActor::new(&cfg, envs, queue.clone()).unwrap();
        let mut learner = ImpalaLearner::new(&cfg, state_space, 3, n_envs, queue).unwrap();
        actor.rollout().unwrap();
        assert!(learner.learn().unwrap().total.is_finite());
        let stats = learner.executor.as_static().expect("static backend").session().stats();
        let count = |op: &str| stats.per_op.get(op).copied().unwrap_or(0);
        assert_eq!(
            (count("conv2d"), count("conv2d_backprop_filter"), count("conv2d_backprop_input")),
            (6, 3, 2),
            "conv nodes run by one learn step"
        );
    }

    #[test]
    fn actor_syncs_learner_weights() {
        let cfg = small_config(Backend::Static);
        let queue = TensorQueue::new("rollouts", 2);
        let mut actor = ImpalaActor::new(&cfg, envs(1), queue.clone()).unwrap();
        let learner = ImpalaLearner::new(&cfg, Space::float_box(&[3]), 2, 1, queue).unwrap();
        let weights = learner.get_weights();
        assert!(!weights.is_empty());
        actor.set_weights(&weights).unwrap();
    }

    #[test]
    fn lstm_actor_enqueues_recurrent_rollouts() {
        let mut cfg = small_config(Backend::Static);
        cfg.lstm_units = Some(6);
        let queue = TensorQueue::new("rollouts", 4);
        let mut actor = ImpalaActor::new(&cfg, envs(2), queue.clone()).unwrap();
        actor.rollout().unwrap();
        let rec = queue.dequeue().unwrap();
        assert_eq!(rec.len(), 8, "recurrent record carries (.., h0, c0)");
        assert_eq!(rec[6].shape(), &[2, 6]);
        assert_eq!(rec[7].shape(), &[2, 6]);
        // first rollout starts from the zero state
        assert!(rec[6].as_f32().unwrap().iter().all(|&v| v == 0.0));
        // second rollout carries the state forward (non-zero now)
        actor.rollout().unwrap();
        let rec2 = queue.dequeue().unwrap();
        assert!(
            rec2[6].as_f32().unwrap().iter().any(|&v| v != 0.0),
            "recurrent state should persist across rollouts"
        );
    }

    #[test]
    fn lstm_learner_consumes_and_updates() {
        for backend in [Backend::Static, Backend::DefineByRun] {
            let mut cfg = small_config(backend);
            cfg.lstm_units = Some(6);
            let queue = TensorQueue::new("rollouts", 4);
            let mut actor = ImpalaActor::new(&cfg, envs(2), queue.clone()).unwrap();
            let mut learner =
                ImpalaLearner::new(&cfg, Space::float_box(&[3]), 2, 2, queue).unwrap();
            for _ in 0..3 {
                actor.rollout().unwrap();
                let losses = learner.learn().unwrap();
                assert!(losses.total.is_finite(), "loss diverged: {:?}", losses);
                assert!(losses.entropy > 0.0);
            }
            // learner -> actor weight sync includes the lstm variables
            let weights = learner.get_weights();
            assert!(weights.iter().any(|(n, _)| n.contains("lstm")), "lstm vars missing");
            actor.set_weights(&weights).unwrap();
        }
    }

    #[test]
    fn entropy_regularisation_keeps_policy_stochastic() {
        // Several updates on random data: entropy should stay positive.
        let cfg = small_config(Backend::Static);
        let queue = TensorQueue::new("rollouts", 8);
        let mut actor = ImpalaActor::new(&cfg, envs(2), queue.clone()).unwrap();
        let mut learner = ImpalaLearner::new(&cfg, Space::float_box(&[3]), 2, 2, queue).unwrap();
        for _ in 0..5 {
            actor.rollout().unwrap();
            let losses = learner.learn().unwrap();
            assert!(losses.entropy > 0.01);
        }
    }
}
