//! The DQN agent: dueling/double DQN with prioritized replay — the
//! paper's reference architecture ("dueling DQN with prioritized replay,
//! 43 components", Fig. 5a) and the local agent inside Ape-X workers and
//! learners.

use crate::components::memory::{shared_replay, PrioritizedReplayComponent, SharedReplay};
use crate::components::{DqnLoss, EpsilonGreedy, Optimizer, Policy, Scale, Syncer};
use crate::config::{Backend, DqnConfig};
use crate::Result;
use rlgraph_core::{
    BuildCtx, BuildReport, Component, ComponentGraphBuilder, ComponentId, ComponentStore,
    CoreError, GraphExecutor, OpRef,
};
use rlgraph_obs::{Gauge, Recorder};
use rlgraph_spaces::Space;
use rlgraph_tensor::{OpKind, Tensor};

/// The root container component of a DQN agent. Its API methods are the
/// externally visible API of the component graph (paper §3.3: "the
/// API-methods of the root component define the externally visible API").
pub struct DqnRoot {
    preprocessor: ComponentId,
    policy: ComponentId,
    target: ComponentId,
    /// public so Ape-X composition can reach the shared buffer
    pub(crate) memory: ComponentId,
    exploration: ComponentId,
    loss: ComponentId,
    optimizer: ComponentId,
    syncer: ComponentId,
    towers: usize,
    batch_size: usize,
}

impl DqnRoot {
    /// Composes a full DQN component graph into `store` from a config.
    pub fn compose(store: &mut ComponentStore, config: &DqnConfig, num_actions: usize) -> Self {
        let preprocessor = store.add(Scale::new("preprocessor", 1.0));
        let policy =
            Policy::new(store, "policy", &config.network, num_actions, config.dueling, config.seed);
        let policy_id = store.add(policy);
        let target = Policy::new(
            store,
            "target-policy",
            &config.network,
            num_actions,
            config.dueling,
            config.seed.wrapping_add(7_777),
        );
        let target_id = store.add(target);
        let memory = store.add(PrioritizedReplayComponent::new(
            "prioritized-replay",
            shared_replay(config.memory_capacity, config.alpha),
            config.batch_size,
            config.beta,
            config.seed.wrapping_add(13),
        ));
        let exploration = store.add(EpsilonGreedy::new(
            "exploration",
            config.epsilon,
            num_actions as i64,
            config.seed.wrapping_add(29),
        ));
        let loss = store.add(DqnLoss::new(
            "dqn-loss",
            config.gamma,
            config.n_step,
            config.double,
            config.huber,
        ));
        let optimizer = store.add(Optimizer::new("optimizer", config.optimizer.clone(), policy_id));
        let syncer = store.add(Syncer::new("target-syncer", policy_id, target_id));
        DqnRoot {
            preprocessor,
            policy: policy_id,
            target: target_id,
            memory,
            exploration,
            loss,
            optimizer,
            syncer,
            towers: config.towers.max(1),
            batch_size: config.batch_size,
        }
    }

    /// Computes `(loss, td_abs)` for one (sub-)batch.
    #[allow(clippy::too_many_arguments)]
    fn batch_loss(
        &self,
        ctx: &mut BuildCtx,
        s: OpRef,
        a: OpRef,
        r: OpRef,
        s2: OpRef,
        t: OpRef,
        w: OpRef,
    ) -> Result<(OpRef, OpRef)> {
        let sp = ctx.call(self.preprocessor, "preprocess", &[s])?[0];
        let s2p = ctx.call(self.preprocessor, "preprocess", &[s2])?[0];
        let q_all = ctx.call(self.policy, "q_values", &[sp])?[0];
        let q_next_online = ctx.call(self.policy, "q_values", &[s2p])?[0];
        let q_next_target = ctx.call(self.target, "q_values", &[s2p])?[0];
        let out =
            ctx.call(self.loss, "loss", &[q_all, a, r, q_next_online, q_next_target, t, w])?;
        Ok((out[0], out[1]))
    }

    /// The synchronous multi-tower update (paper Fig. 8): split the batch,
    /// compute each tower's loss in its own scope, average.
    fn towered_loss(
        &self,
        ctx: &mut BuildCtx,
        id: ComponentId,
        batch: &[OpRef; 6],
    ) -> Result<(OpRef, OpRef)> {
        if self.towers <= 1 {
            return self
                .batch_loss(ctx, batch[0], batch[1], batch[2], batch[3], batch[4], batch[5]);
        }
        let per = self.batch_size / self.towers;
        let mut losses = Vec::with_capacity(self.towers);
        let mut tds = Vec::with_capacity(self.towers);
        for k in 0..self.towers {
            let slices =
                ctx.graph_fn(id, &format!("tower-{}-split", k), batch, 6, move |ctx, ins| {
                    ins.iter()
                        .map(|&r| {
                            ctx.emit(OpKind::Slice { axis: 0, start: k * per, len: per }, &[r])
                        })
                        .collect()
                })?;
            let (l, td) = self.batch_loss(
                ctx, slices[0], slices[1], slices[2], slices[3], slices[4], slices[5],
            )?;
            losses.push(l);
            tds.push(td);
        }
        let combined = ctx.graph_fn(id, "tower-combine", &[], 2, move |ctx, _| {
            let stacked = ctx.emit(OpKind::Stack { axis: 0 }, &losses)?;
            let loss = ctx.emit(OpKind::Mean { axes: None, keep_dims: false }, &[stacked])?;
            let td = ctx.emit(OpKind::Concat { axis: 0 }, &tds)?;
            Ok(vec![loss, td])
        })?;
        Ok((combined[0], combined[1]))
    }
}

impl Component for DqnRoot {
    fn name(&self) -> &str {
        "dqn"
    }

    fn api_methods(&self) -> Vec<String> {
        [
            "get_actions",
            "get_actions_greedy",
            "observe",
            "observe_with_priorities",
            "update",
            "update_from_batch",
            "td_error",
            "sync_target",
        ]
        .map(String::from)
        .to_vec()
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        match method {
            "get_actions" | "get_actions_greedy" => {
                let s = ctx.call(self.preprocessor, "preprocess", &[inputs[0]])?[0];
                let q = ctx.call(self.policy, "q_values", &[s])?[0];
                let pick = if method == "get_actions" { "get_action" } else { "get_action_greedy" };
                ctx.call(self.exploration, pick, &[q])
            }
            "observe" => ctx.call(self.memory, "insert", inputs),
            "observe_with_priorities" => ctx.call(self.memory, "insert_with_priorities", inputs),
            "update" => {
                let sample = ctx.call(self.memory, "sample", &[])?;
                let [s, a, r, s2, t, w, idx] = sample[..] else {
                    return Err(CoreError::new("memory sample returned unexpected arity"));
                };
                let (loss, td_abs) = self.towered_loss(ctx, id, &[s, a, r, s2, t, w])?;
                let step_done = ctx.call(self.optimizer, "step", &[loss])?[0];
                let upd_done = ctx.call(self.memory, "update_priorities", &[idx, td_abs])?[0];
                let done =
                    ctx.graph_fn(id, "update-group", &[step_done, upd_done], 1, |ctx, ins| {
                        Ok(vec![ctx.group(ins)?])
                    })?[0];
                Ok(vec![loss, done])
            }
            "update_from_batch" => {
                let [s, a, r, s2, t, w] = inputs[..] else {
                    return Err(CoreError::new("update_from_batch expects (s, a, r, s2, t, w)"));
                };
                let (loss, td_abs) = self.towered_loss(ctx, id, &[s, a, r, s2, t, w])?;
                let step_done = ctx.call(self.optimizer, "step", &[loss])?[0];
                Ok(vec![loss, td_abs, step_done])
            }
            "td_error" => {
                let [s, a, r, s2, t] = inputs[..] else {
                    return Err(CoreError::new("td_error expects (s, a, r, s2, t)"));
                };
                let ones = ctx.graph_fn(id, "unit-weights", &[r], 1, |ctx, ins| {
                    Ok(vec![ctx.emit(OpKind::OnesLike, &[ins[0]])?])
                })?[0];
                let (_, td_abs) = self.batch_loss(ctx, s, a, r, s2, t, ones)?;
                Ok(vec![td_abs])
            }
            "sync_target" => ctx.call(self.syncer, "sync", &[]),
            other => Err(CoreError::new(format!("dqn has no api method '{}'", other))),
        }
    }

    fn sub_components(&self) -> Vec<ComponentId> {
        vec![
            self.preprocessor,
            self.policy,
            self.target,
            self.memory,
            self.exploration,
            self.loss,
            self.optimizer,
            self.syncer,
        ]
    }
}

/// Builds the root-API input-space declarations for a DQN.
pub fn dqn_api_spaces(state_space: &Space, action_space: &Space) -> Vec<(String, Vec<Space>)> {
    let s = state_space.clone().with_batch_rank();
    let a = action_space.clone().with_batch_rank();
    let scalar_f = Space::float_box_bounded(&[], f32::MIN, f32::MAX).with_batch_rank();
    let t = Space::bool_box().with_batch_rank();
    let observe = vec![s.clone(), a.clone(), scalar_f.clone(), s.clone(), t.clone()];
    let mut observe_p = observe.clone();
    observe_p.push(scalar_f.clone());
    let mut batch = observe.clone();
    batch.push(scalar_f.clone());
    vec![
        ("get_actions".into(), vec![s.clone()]),
        ("get_actions_greedy".into(), vec![s.clone()]),
        ("observe".into(), observe.clone()),
        ("observe_with_priorities".into(), observe_p),
        ("update".into(), vec![]),
        ("update_from_batch".into(), batch),
        ("td_error".into(), observe),
        ("sync_target".into(), vec![]),
    ]
}

/// A ready-to-use DQN agent implementing the paper's agent API (Listing
/// 2): `get_actions`, `observe`, `update`, weight import/export — served by
/// either backend behind a [`GraphExecutor`].
pub struct DqnAgent {
    executor: Box<dyn GraphExecutor>,
    memory: SharedReplay,
    config: DqnConfig,
    report: BuildReport,
    updates: u64,
    loss_gauge: Gauge,
    replay_gauge: Gauge,
}

impl DqnAgent {
    /// Builds the agent for the given state/action spaces.
    ///
    /// # Errors
    ///
    /// Errors if the config is inconsistent or the build fails.
    pub fn new(config: DqnConfig, state_space: &Space, action_space: &Space) -> Result<Self> {
        let num_actions = action_space.num_categories()? as usize;
        if config.towers > 1 && !config.batch_size.is_multiple_of(config.towers) {
            return Err(CoreError::new(format!(
                "batch size {} is not divisible into {} towers",
                config.batch_size, config.towers
            )));
        }
        let mut store = ComponentStore::new();
        let root = DqnRoot::compose(&mut store, &config, num_actions);
        let memory = store.get_as::<PrioritizedReplayComponent>(root.memory)?.memory();
        let root_id = store.add(root);
        let mut builder = ComponentGraphBuilder::new(root_id).dummy_batch(config.batch_size.max(2));
        for (method, spaces) in dqn_api_spaces(state_space, action_space) {
            builder = builder.api_method(&method, spaces);
        }
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
        Ok(DqnAgent {
            executor,
            memory,
            config,
            report,
            updates: 0,
            loss_gauge: Gauge::noop(),
            replay_gauge: Gauge::noop(),
        })
    }

    /// Installs an observability recorder on the underlying executor and
    /// caches the agent's training-signal gauges (`train.loss`,
    /// `train.replay_size`).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.loss_gauge = recorder.gauge("train.loss");
        self.replay_gauge = recorder.gauge("train.replay_size");
        self.executor.set_recorder(recorder.clone());
    }

    /// Builds from a JSON config document.
    ///
    /// # Errors
    ///
    /// Errors on malformed JSON or build failures.
    pub fn from_json(json: &str, state_space: &Space, action_space: &Space) -> Result<Self> {
        Self::new(DqnConfig::from_json(json)?, state_space, action_space)
    }

    /// The build statistics (trace/build times, component counts).
    pub fn build_report(&self) -> &BuildReport {
        &self.report
    }

    /// The agent's config.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// The shared replay buffer (fill-level checks, shard hosting).
    pub fn memory(&self) -> SharedReplay {
        self.memory.clone()
    }

    /// The underlying executor.
    pub fn executor_mut(&mut self) -> &mut dyn GraphExecutor {
        self.executor.as_mut()
    }

    /// Batched action selection: `states [b, ...] -> actions [b]`.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn get_actions(&mut self, states: Tensor, explore: bool) -> Result<Tensor> {
        let method = if explore { "get_actions" } else { "get_actions_greedy" };
        Ok(self.executor.execute(method, &[states])?.remove(0))
    }

    /// Stores a batch of transitions.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn observe(
        &mut self,
        states: Tensor,
        actions: Tensor,
        rewards: Tensor,
        next_states: Tensor,
        terminals: Tensor,
    ) -> Result<()> {
        self.executor.execute("observe", &[states, actions, rewards, next_states, terminals])?;
        Ok(())
    }

    /// Stores a batch with explicit initial priorities (Ape-X style).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn observe_with_priorities(
        &mut self,
        states: Tensor,
        actions: Tensor,
        rewards: Tensor,
        next_states: Tensor,
        terminals: Tensor,
        priorities: Tensor,
    ) -> Result<()> {
        self.executor.execute(
            "observe_with_priorities",
            &[states, actions, rewards, next_states, terminals, priorities],
        )?;
        Ok(())
    }

    /// Whether the replay holds at least one learning batch.
    pub fn ready_to_update(&self) -> bool {
        self.memory.lock().len() >= self.config.batch_size
    }

    /// One learning step from internal memory (returns the loss), syncing
    /// the target network on schedule. Returns `None` while the memory has
    /// too little data.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn update(&mut self) -> Result<Option<f32>> {
        if !self.ready_to_update() {
            return Ok(None);
        }
        let out = self.executor.execute("update", &[])?;
        let loss = out[0].scalar_value()?;
        self.loss_gauge.set(loss as f64);
        self.replay_gauge.set(self.memory.lock().len() as f64);
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.target_sync_every) {
            self.sync_target()?;
        }
        Ok(Some(loss))
    }

    /// One learning step from an external batch (Ape-X learner); returns
    /// `(loss, td_abs)` so the caller can push priorities back to shards.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn update_from_batch(&mut self, batch: [Tensor; 6]) -> Result<(f32, Tensor)> {
        let out = self.executor.execute("update_from_batch", &batch)?;
        let loss = out[0].scalar_value()?;
        self.loss_gauge.set(loss as f64);
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.target_sync_every) {
            self.sync_target()?;
        }
        Ok((loss, out[1].clone()))
    }

    /// Worker-side TD errors for initial priorities (Ape-X).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn td_error(&mut self, batch: [Tensor; 5]) -> Result<Tensor> {
        Ok(self.executor.execute("td_error", &batch)?.remove(0))
    }

    /// Copies the online network onto the target network.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn sync_target(&mut self) -> Result<()> {
        self.executor.execute("sync_target", &[])?;
        Ok(())
    }

    /// Number of updates performed.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// Snapshot of the *policy* weights (for worker sync).
    pub fn get_weights(&self) -> Vec<(String, Tensor)> {
        self.executor
            .export_weights()
            .into_iter()
            .filter(|(name, _)| name.contains("policy") && !name.contains("target-policy"))
            .collect()
    }

    /// Imports weights by name.
    ///
    /// # Errors
    ///
    /// Errors on unknown names or shape mismatches.
    pub fn set_weights(&mut self, weights: &[(String, Tensor)]) -> Result<()> {
        self.executor.import_weights(weights)
    }

    /// Snapshot of **all** variables — policy, target network, and
    /// optimizer slots (e.g. Adam moments) — for checkpoint/restore.
    /// Contrast [`DqnAgent::get_weights`], which filters to the policy
    /// weights workers need for action sync.
    pub fn export_variables(&self) -> Vec<(String, Tensor)> {
        self.executor.export_weights()
    }

    /// Restores a full variable snapshot from
    /// [`DqnAgent::export_variables`].
    ///
    /// # Errors
    ///
    /// Errors on unknown variable names or shape mismatches.
    pub fn import_variables(&mut self, variables: &[(String, Tensor)]) -> Result<()> {
        self.executor.import_weights(variables)
    }

    /// Overrides the update counter, so a restored learner resumes its
    /// target-sync/epsilon schedules where the checkpoint left off.
    pub fn set_num_updates(&mut self, updates: u64) {
        self.updates = updates;
    }

    /// Exports all variables as a JSON model document.
    pub fn export_model(&self) -> String {
        serde_json::to_string(&self.executor.export_weights()).expect("weights serialise")
    }

    /// Imports a JSON model document produced by [`DqnAgent::export_model`].
    ///
    /// # Errors
    ///
    /// Errors on malformed documents or mismatched variables.
    pub fn import_model(&mut self, json: &str) -> Result<()> {
        let weights: Vec<(String, Tensor)> = serde_json::from_str(json)
            .map_err(|e| CoreError::new(format!("invalid model document: {}", e)))?;
        self.executor.import_weights(&weights)
    }
}

impl std::fmt::Debug for DqnAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DqnAgent")
            .field("backend", &self.config.backend)
            .field("updates", &self.updates)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlgraph_tensor::DType;

    fn spaces() -> (Space, Space) {
        (Space::float_box_bounded(&[4], -5.0, 5.0), Space::int_box(2))
    }

    fn small_config(backend: Backend) -> DqnConfig {
        DqnConfig {
            backend,
            network: rlgraph_nn::NetworkSpec::mlp(&[16], rlgraph_nn::Activation::Tanh),
            memory_capacity: 256,
            batch_size: 8,
            target_sync_every: 10,
            seed: 3,
            ..DqnConfig::default()
        }
    }

    fn observe_random(agent: &mut DqnAgent, n: usize) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let a = Tensor::rand_int(&[n], 0, 2, &mut rng);
        let r = Tensor::rand_uniform(&[n], -1.0, 1.0, &mut rng);
        let s2 = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let t = Tensor::zeros(&[n], DType::Bool);
        agent.observe(s, a, r, s2, t).unwrap();
    }

    #[test]
    fn builds_on_both_backends_and_acts() {
        for backend in [Backend::Static, Backend::DefineByRun] {
            let (ss, asp) = spaces();
            let mut agent = DqnAgent::new(small_config(backend), &ss, &asp).unwrap();
            let states = Tensor::zeros(&[3, 4], DType::F32);
            let actions = agent.get_actions(states, true).unwrap();
            assert_eq!(actions.shape(), &[3]);
            assert!(actions.as_i64().unwrap().iter().all(|&a| (0..2).contains(&a)));
        }
    }

    #[test]
    fn component_count_matches_paper_scale() {
        let (ss, asp) = spaces();
        let agent = DqnAgent::new(small_config(Backend::Static), &ss, &asp).unwrap();
        // dueling DQN with prioritized replay: double-digit component count
        // (the paper reports 43 for its deeper Atari config)
        assert!(
            agent.build_report().num_components >= 15,
            "components: {}",
            agent.build_report().num_components
        );
        assert!(agent.build_report().num_nodes > 100);
    }

    #[test]
    fn update_before_data_is_noop() {
        let (ss, asp) = spaces();
        let mut agent = DqnAgent::new(small_config(Backend::Static), &ss, &asp).unwrap();
        assert!(!agent.ready_to_update());
        assert_eq!(agent.update().unwrap(), None);
    }

    #[test]
    fn update_runs_and_returns_loss() {
        for backend in [Backend::Static, Backend::DefineByRun] {
            let (ss, asp) = spaces();
            let mut agent = DqnAgent::new(small_config(backend), &ss, &asp).unwrap();
            observe_random(&mut agent, 32);
            assert!(agent.ready_to_update());
            let loss = agent.update().unwrap().expect("enough data");
            assert!(loss.is_finite() && loss >= 0.0);
            assert_eq!(agent.num_updates(), 1);
        }
    }

    #[test]
    fn repeated_updates_reduce_td_on_fixed_batch() {
        let (ss, asp) = spaces();
        let mut agent = DqnAgent::new(small_config(Backend::Static), &ss, &asp).unwrap();
        observe_random(&mut agent, 16);
        let first = agent.update().unwrap().unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = agent.update().unwrap().unwrap();
        }
        assert!(last < first, "loss should shrink: {} -> {}", first, last);
    }

    #[test]
    fn sync_target_copies_weights() {
        let (ss, asp) = spaces();
        let mut agent = DqnAgent::new(small_config(Backend::Static), &ss, &asp).unwrap();
        agent.sync_target().unwrap();
        let weights = agent.executor_mut().export_weights();
        let mut checked = 0;
        for (name, value) in &weights {
            if name.contains("target-policy") {
                let online_name = name.replace("target-policy", "policy");
                if let Some((_, ov)) = weights.iter().find(|(n, _)| *n == online_name) {
                    assert!(ov.allclose(value, 1e-6), "{} not synced", name);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 4, "expected several synced variables, found {}", checked);
    }

    #[test]
    fn weights_roundtrip_via_model_export() {
        let (ss, asp) = spaces();
        let mut a1 = DqnAgent::new(small_config(Backend::Static), &ss, &asp).unwrap();
        let mut cfg2 = small_config(Backend::Static);
        cfg2.seed = 99;
        let mut a2 = DqnAgent::new(cfg2, &ss, &asp).unwrap();
        let x = Tensor::full(&[1, 4], 0.3);
        let before1 = a1.get_actions(x.clone(), false).unwrap();
        a2.import_model(&a1.export_model()).unwrap();
        let after2 = a2.get_actions(x, false).unwrap();
        assert_eq!(before1, after2);
        assert!(a2.import_model("not json").is_err());
    }

    #[test]
    fn towers_match_single_graph_loss() {
        let (ss, asp) = spaces();
        let single = small_config(Backend::Static);
        let mut towered = single.clone();
        towered.towers = 2;
        let mut a1 = DqnAgent::new(single, &ss, &asp).unwrap();
        let mut a2 = DqnAgent::new(towered, &ss, &asp).unwrap();
        let batch = || {
            [
                Tensor::full(&[8, 4], 0.1),
                Tensor::zeros(&[8], DType::I64),
                Tensor::full(&[8], 1.0),
                Tensor::full(&[8, 4], 0.2),
                Tensor::zeros(&[8], DType::Bool),
                Tensor::ones(&[8]),
            ]
        };
        let (l1, td1) = a1.update_from_batch(batch()).unwrap();
        let (l2, td2) = a2.update_from_batch(batch()).unwrap();
        assert!((l1 - l2).abs() < 1e-5, "tower loss {} vs single {}", l2, l1);
        assert!(td1.allclose(&td2, 1e-5));
    }

    #[test]
    fn tower_batch_divisibility_checked() {
        let (ss, asp) = spaces();
        let mut cfg = small_config(Backend::Static);
        cfg.towers = 3; // 8 % 3 != 0
        assert!(DqnAgent::new(cfg, &ss, &asp).is_err());
    }

    #[test]
    fn dbr_fast_path_available_for_acting() {
        let (ss, asp) = spaces();
        let mut agent = DqnAgent::new(small_config(Backend::DefineByRun), &ss, &asp).unwrap();
        // downcast executor to enable the contracted fast path
        let states = Tensor::full(&[2, 4], 0.5);
        let slow = agent.get_actions(states.clone(), false).unwrap();
        let _ = slow;
        let exec = agent.executor_mut();
        // The executor trait object hides the concrete type; verify via
        // execute that repeated greedy calls stay consistent.
        let a = exec.execute("get_actions_greedy", std::slice::from_ref(&states)).unwrap();
        let b = exec.execute("get_actions_greedy", &[states]).unwrap();
        assert_eq!(a[0], b[0]);
    }
}
