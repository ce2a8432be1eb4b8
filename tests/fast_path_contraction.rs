//! Integration: the define-by-run contracted fast path ("edge
//! contraction", paper §5.1) — correctness, automatic bail-out, and
//! dispatch elimination.

use rlgraph::prelude::*;
use rlgraph_agents::components::Policy;
use rlgraph_core::DbrExecutor;

struct ActRoot {
    policy: ComponentId,
}

impl Component for ActRoot {
    fn name(&self) -> &str {
        "act-root"
    }
    fn api_methods(&self) -> Vec<String> {
        vec!["act".into()]
    }
    fn call_api(
        &mut self,
        _m: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> rlgraph_core::Result<Vec<OpRef>> {
        let q = ctx.call(self.policy, "q_values", inputs)?[0];
        ctx.graph_fn(id, "argmax", &[q], 1, |ctx, ins| {
            Ok(vec![ctx.emit(OpKind::ArgMax { axis: 1 }, &[ins[0]])?])
        })
    }
    fn sub_components(&self) -> Vec<ComponentId> {
        vec![self.policy]
    }
}

fn build_exec() -> DbrExecutor {
    let mut store = ComponentStore::new();
    let policy = Policy::new(
        &mut store,
        "policy",
        &NetworkSpec::mlp(&[16, 16], Activation::Tanh),
        4,
        true,
        8,
    );
    let policy_id = store.add(policy);
    let root = store.add(ActRoot { policy: policy_id });
    let builder = ComponentGraphBuilder::new(root)
        .api_method("act", vec![Space::float_box_bounded(&[5], -2.0, 2.0).with_batch_rank()]);
    builder.build_dbr(store).unwrap().0
}

#[test]
fn contracted_replay_matches_traced_execution() {
    use rand::SeedableRng;
    let mut traced = build_exec();
    let mut fast = build_exec();
    fast.enable_fast_path("act");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    // First call records; later calls replay.
    for round in 0..6 {
        let x = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let a = traced.execute("act", std::slice::from_ref(&x)).unwrap();
        let b = fast.execute("act", &[x]).unwrap();
        assert_eq!(a[0], b[0], "divergence at round {}", round);
    }
    assert!(fast.is_contracted("act"));
}

#[test]
fn contraction_eliminates_component_dispatch() {
    let mut fast = build_exec();
    fast.enable_fast_path("act");
    let x = Tensor::full(&[2, 5], 0.5);
    fast.execute("act", std::slice::from_ref(&x)).unwrap(); // records
    let (api_before, fn_before) = fast.dispatch_counters();
    for _ in 0..10 {
        fast.execute("act", std::slice::from_ref(&x)).unwrap();
    }
    let (api_after, fn_after) = fast.dispatch_counters();
    assert_eq!(api_before, api_after, "replay must not route api calls");
    assert_eq!(fn_before, fn_after, "replay must not enter graph functions");
}

#[test]
fn contraction_survives_batch_size_changes() {
    let mut fast = build_exec();
    fast.enable_fast_path("act");
    fast.execute("act", &[Tensor::full(&[2, 5], 0.1)]).unwrap();
    assert!(fast.is_contracted("act"));
    // replays with other batch sizes (runtime-shape kernels)
    let out = fast.execute("act", &[Tensor::full(&[7, 5], 0.1)]).unwrap();
    assert_eq!(out[0].shape(), &[7]);
}

#[test]
fn methods_with_state_mutation_refuse_contraction() {
    // An update method (gradients + assigns) must fall back to tracing.
    let (ss, asp) = (Space::float_box_bounded(&[4], -2.0, 2.0), Space::int_box(2));
    let config = DqnConfig {
        backend: Backend::DefineByRun,
        network: NetworkSpec::mlp(&[8], Activation::Tanh),
        memory_capacity: 64,
        batch_size: 4,
        seed: 1,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, &ss, &asp).unwrap();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    agent
        .observe(
            Tensor::rand_uniform(&[8, 4], -1.0, 1.0, &mut rng),
            Tensor::rand_int(&[8], 0, 2, &mut rng),
            Tensor::rand_uniform(&[8], -1.0, 1.0, &mut rng),
            Tensor::rand_uniform(&[8, 4], -1.0, 1.0, &mut rng),
            Tensor::zeros(&[8], DType::Bool),
        )
        .unwrap();
    // Updates still work repeatedly (no stale contraction corrupts state).
    let l1 = agent.update().unwrap().unwrap();
    let l2 = agent.update().unwrap().unwrap();
    assert!(l1.is_finite() && l2.is_finite());
}
