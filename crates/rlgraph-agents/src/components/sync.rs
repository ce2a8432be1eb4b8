//! Weight synchronisation between component subtrees (target networks,
//! worker/learner syncs).

use crate::Result;
use rlgraph_core::{collect_var_handles, BuildCtx, Component, ComponentId, CoreError, OpRef};

/// Copies every variable of `source`'s subtree onto `target`'s subtree
/// (pairwise, in creation order — both subtrees must be structurally
/// identical, e.g. two policies built from the same spec).
///
/// API: `sync() -> (done)`.
pub struct Syncer {
    name: String,
    source: ComponentId,
    target: ComponentId,
}

impl Syncer {
    /// Creates a syncer from `source` onto `target`.
    pub fn new(name: impl Into<String>, source: ComponentId, target: ComponentId) -> Self {
        Syncer { name: name.into(), source, target }
    }
}

impl Component for Syncer {
    fn name(&self) -> &str {
        &self.name
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["sync".into()]
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        if method != "sync" {
            return Err(CoreError::new(format!("syncer has no method '{}'", method)));
        }
        let (source, target) = (self.source, self.target);
        ctx.graph_fn(id, "sync_weights", inputs, 1, move |ctx, _| {
            let src = collect_var_handles(ctx.components(), source)?;
            let dst = collect_var_handles(ctx.components(), target)?;
            if src.is_empty() || dst.is_empty() {
                return Err(CoreError::input_incomplete(
                    "sync requires both subtrees to have built their variables",
                ));
            }
            if src.len() != dst.len() {
                return Err(CoreError::new(format!(
                    "sync subtrees differ: {} source vs {} target variables",
                    src.len(),
                    dst.len()
                )));
            }
            let mut assigns = Vec::with_capacity(src.len());
            for (s, d) in src.iter().zip(&dst) {
                let value = ctx.read_var(*s)?;
                assigns.push(ctx.assign_var(*d, value)?);
            }
            Ok(vec![ctx.group(&assigns)?])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::layers::DenseLayer;
    use rlgraph_core::{ComponentStore, ComponentTest, TestBackend};
    use rlgraph_nn::Activation;
    use rlgraph_spaces::Space;
    use rlgraph_tensor::Tensor;

    struct TwoNets {
        online: ComponentId,
        target: ComponentId,
        syncer: ComponentId,
    }

    impl Component for TwoNets {
        fn name(&self) -> &str {
            "two-nets"
        }
        fn api_methods(&self) -> Vec<String> {
            vec!["both".into(), "sync".into()]
        }
        fn call_api(
            &mut self,
            method: &str,
            ctx: &mut BuildCtx,
            _id: ComponentId,
            inputs: &[OpRef],
        ) -> Result<Vec<OpRef>> {
            match method {
                "both" => {
                    let a = ctx.call(self.online, "call", inputs)?[0];
                    let b = ctx.call(self.target, "call", inputs)?[0];
                    Ok(vec![a, b])
                }
                "sync" => ctx.call(self.syncer, "sync", &[]),
                other => Err(CoreError::new(format!("no method '{}'", other))),
            }
        }
        fn sub_components(&self) -> Vec<ComponentId> {
            vec![self.online, self.target, self.syncer]
        }
    }

    #[test]
    fn sync_copies_weights() {
        for backend in [TestBackend::Static, TestBackend::DefineByRun] {
            let mut store = ComponentStore::new();
            // different seeds → different initial weights
            let online = store.add(DenseLayer::new("online", 3, Activation::Linear, 1));
            let target = store.add(DenseLayer::new("target", 3, Activation::Linear, 2));
            let syncer = store.add(Syncer::new("syncer", online, target));
            let root = TwoNets { online, target, syncer };
            let mut test = ComponentTest::with_store(
                store,
                root,
                &[("both", vec![Space::float_box(&[2]).with_batch_rank()]), ("sync", vec![])],
                backend,
            )
            .unwrap();
            let x = Tensor::from_vec(vec![0.3, -0.8], &[1, 2]).unwrap();
            let before = test.test("both", std::slice::from_ref(&x)).unwrap();
            assert!(!before[0].allclose(&before[1], 1e-6), "nets should start different");
            test.test("sync", &[]).unwrap();
            let after = test.test("both", &[x]).unwrap();
            assert!(after[0].allclose(&after[1], 1e-6), "sync should equalise outputs");
        }
    }
}
