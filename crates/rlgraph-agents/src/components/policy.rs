//! The policy component: feature network plus action head (optionally
//! dueling), also usable as an actor-critic policy (logits + value).

use super::layers::DenseLayer;
use super::network::Network;
use crate::Result;
use rlgraph_core::{BuildCtx, Component, ComponentId, ComponentStore, CoreError, OpRef};
use rlgraph_nn::{forward as nn_forward, Activation, NetworkSpec};
use rlgraph_tensor::OpKind;

/// A policy over a discrete action space. API:
///
/// * `q_values(states) -> [b, actions]` — Q head (dueling when configured)
/// * `logits(states) -> [b, actions]` — same head read as logits
/// * `value(states) -> [b, 1]` — state-value head
/// * `logits_and_value(states) -> ([b, actions], [b, 1])` — both heads on
///   one evaluation of the feature network; an actor-critic learner that
///   called `logits` and `value` separately would build, run and
///   differentiate the torso twice
/// * `log_probs(states) -> [b, actions]` — log-softmax of the logits
pub struct Policy {
    name: String,
    network: ComponentId,
    value_head: ComponentId,
    adv_head: ComponentId,
    dueling: bool,
}

impl Policy {
    /// Composes a policy into `store`: feature network + heads.
    pub fn new(
        store: &mut ComponentStore,
        name: impl Into<String>,
        spec: &NetworkSpec,
        num_actions: usize,
        dueling: bool,
        seed: u64,
    ) -> Self {
        let name = name.into();
        let network = Network::from_spec(store, format!("{}-net", name), spec, seed);
        let network_id = store.add(network);
        let value_head = store.add(DenseLayer::new(
            format!("{}-value-head", name),
            1,
            Activation::Linear,
            seed.wrapping_add(101),
        ));
        let adv_head = store.add(DenseLayer::new(
            format!("{}-adv-head", name),
            num_actions,
            Activation::Linear,
            seed.wrapping_add(202),
        ));
        Policy { name, network: network_id, value_head, adv_head, dueling }
    }

    fn features(&self, ctx: &mut BuildCtx, inputs: &[OpRef]) -> Result<OpRef> {
        Ok(ctx.call(self.network, "call", inputs)?[0])
    }

    fn q_from_features(
        &self,
        ctx: &mut BuildCtx,
        id: ComponentId,
        features: OpRef,
    ) -> Result<OpRef> {
        let adv = ctx.call(self.adv_head, "call", &[features])?[0];
        if self.dueling {
            let value = ctx.call(self.value_head, "call", &[features])?[0];
            let combined = ctx.graph_fn(id, "dueling_combine", &[value, adv], 1, |ctx, ins| {
                Ok(vec![nn_forward::dueling_combine(ctx, ins[0], ins[1])?])
            })?;
            Ok(combined[0])
        } else {
            Ok(adv)
        }
    }
}

impl Component for Policy {
    fn name(&self) -> &str {
        &self.name
    }

    fn api_methods(&self) -> Vec<String> {
        vec![
            "q_values".into(),
            "logits".into(),
            "value".into(),
            "logits_and_value".into(),
            "log_probs".into(),
        ]
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        match method {
            "q_values" | "logits" => {
                let f = self.features(ctx, inputs)?;
                Ok(vec![self.q_from_features(ctx, id, f)?])
            }
            "value" => {
                let f = self.features(ctx, inputs)?;
                Ok(ctx.call(self.value_head, "call", &[f])?)
            }
            "logits_and_value" => {
                let f = self.features(ctx, inputs)?;
                let logits = self.q_from_features(ctx, id, f)?;
                let value = ctx.call(self.value_head, "call", &[f])?[0];
                Ok(vec![logits, value])
            }
            "log_probs" => {
                let f = self.features(ctx, inputs)?;
                let logits = self.q_from_features(ctx, id, f)?;
                ctx.graph_fn(id, "log_softmax", &[logits], 1, |ctx, ins| {
                    Ok(vec![ctx.emit(OpKind::LogSoftmax { axis: 1 }, &[ins[0]])?])
                })
            }
            other => Err(CoreError::new(format!("policy has no method '{}'", other))),
        }
    }

    fn sub_components(&self) -> Vec<ComponentId> {
        vec![self.network, self.value_head, self.adv_head]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rlgraph_core::{ComponentTest, TestBackend};
    use rlgraph_spaces::Space;

    fn build(dueling: bool, backend: TestBackend) -> ComponentTest {
        let mut store = ComponentStore::new();
        let spec = NetworkSpec::mlp(&[8], Activation::Relu);
        let policy = Policy::new(&mut store, "policy", &spec, 4, dueling, 5);
        ComponentTest::with_store(
            store,
            policy,
            &[
                ("q_values", vec![Space::float_box(&[6]).with_batch_rank()]),
                ("value", vec![Space::float_box(&[6]).with_batch_rank()]),
                ("logits", vec![Space::float_box(&[6]).with_batch_rank()]),
                ("logits_and_value", vec![Space::float_box(&[6]).with_batch_rank()]),
                ("log_probs", vec![Space::float_box(&[6]).with_batch_rank()]),
            ],
            backend,
        )
        .unwrap()
    }

    #[test]
    fn heads_have_expected_shapes() {
        for backend in [TestBackend::Static, TestBackend::DefineByRun] {
            for dueling in [false, true] {
                let mut test = build(dueling, backend);
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                let (_, q) = test.test_with_samples("q_values", 3, &mut rng).unwrap();
                assert_eq!(q[0].shape(), &[3, 4]);
                let (_, v) = test.test_with_samples("value", 3, &mut rng).unwrap();
                assert_eq!(v[0].shape(), &[3, 1]);
            }
        }
    }

    #[test]
    fn logits_and_value_equals_the_separate_heads_bitwise() {
        for backend in [TestBackend::Static, TestBackend::DefineByRun] {
            for dueling in [false, true] {
                let mut test = build(dueling, backend);
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                let (inputs, both) =
                    test.test_with_samples("logits_and_value", 5, &mut rng).unwrap();
                let logits = test.test("logits", &inputs).unwrap();
                let value = test.test("value", &inputs).unwrap();
                assert_eq!(both.len(), 2);
                for (joint, separate) in both.iter().zip([&logits[0], &value[0]]) {
                    assert_eq!(joint.shape(), separate.shape());
                    let (j, s) = (joint.as_f32().unwrap(), separate.as_f32().unwrap());
                    assert!(
                        j.iter().zip(s).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{backend:?} dueling={dueling}: joint heads differ from separate calls"
                    );
                }
            }
        }
    }

    #[test]
    fn log_probs_normalise() {
        let mut test = build(false, TestBackend::Static);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (_, lp) = test.test_with_samples("log_probs", 2, &mut rng).unwrap();
        for row in 0..2 {
            let sum: f32 = (0..4).map(|a| lp[0].get_f32(&[row, a]).unwrap().exp()).sum();
            assert!((sum - 1.0).abs() < 1e-4, "probs sum to {}", sum);
        }
    }

    #[test]
    fn dueling_q_centered_advantage() {
        // In a dueling head q - v has zero mean across actions.
        let mut test = build(true, TestBackend::Static);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (inputs, q) = test.test_with_samples("q_values", 2, &mut rng).unwrap();
        let v = test.test("value", &inputs).unwrap();
        for row in 0..2 {
            let mean_q: f32 = (0..4).map(|a| q[0].get_f32(&[row, a]).unwrap()).sum::<f32>() / 4.0;
            let val = v[0].get_f32(&[row, 0]).unwrap();
            assert!((mean_q - val).abs() < 1e-5, "mean q {} != v {}", mean_q, val);
        }
    }
}
