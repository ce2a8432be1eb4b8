//! Layer components: the smallest first-class building blocks.

use crate::Result;
use rand::SeedableRng;
use rlgraph_core::{BuildCtx, Component, ComponentId, CoreError, OpRef, VarHandle};
use rlgraph_nn::{forward as nn_forward, init, Activation, ParamInit};
use rlgraph_spaces::Space;
use rlgraph_tensor::OpKind;

/// A fully connected layer component with `call(x) -> y`.
pub struct DenseLayer {
    name: String,
    units: usize,
    activation: Activation,
    seed: u64,
    weight: Option<VarHandle>,
    bias: Option<VarHandle>,
}

impl DenseLayer {
    /// Creates a dense layer component.
    pub fn new(name: impl Into<String>, units: usize, activation: Activation, seed: u64) -> Self {
        DenseLayer { name: name.into(), units, activation, seed, weight: None, bias: None }
    }
}

impl Component for DenseLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["call".into()]
    }

    fn create_variables(
        &mut self,
        ctx: &mut BuildCtx,
        _id: ComponentId,
        _method: &str,
        spaces: &[Space],
    ) -> Result<()> {
        let shape = super::util::feature_shape(
            spaces.first().ok_or_else(|| CoreError::new("dense layer needs one input"))?,
        )?;
        let in_dim = *shape
            .last()
            .ok_or_else(|| CoreError::new("dense layer input must have a feature dim"))?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let w_init = init::initialize(
            &ParamInit::XavierUniform { fan_in: in_dim, fan_out: self.units },
            &[in_dim, self.units],
            &mut rng,
        );
        self.weight = Some(ctx.variable("weight", w_init, true));
        self.bias = Some(ctx.variable(
            "bias",
            rlgraph_tensor::Tensor::zeros(&[self.units], rlgraph_tensor::DType::F32),
            true,
        ));
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
            "call" => {
                let (w, b, act) = (self.weight, self.bias, self.activation);
                ctx.graph_fn(id, "dense", inputs, 1, move |ctx, ins| {
                    let w = ctx.read_var(w.expect("built"))?;
                    let b = ctx.read_var(b.expect("built"))?;
                    Ok(vec![nn_forward::dense(ctx, ins[0], w, b, act)?])
                })
            }
            other => Err(CoreError::new(format!("dense layer has no method '{}'", other))),
        }
    }

    fn var_handles(&self) -> Vec<VarHandle> {
        [self.weight, self.bias].into_iter().flatten().collect()
    }
}

/// A 2-D convolution layer component with `call(x) -> y` (NCHW).
pub struct Conv2dLayer {
    name: String,
    filters: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    activation: Activation,
    seed: u64,
    weights: Option<VarHandle>,
    bias: Option<VarHandle>,
}

impl Conv2dLayer {
    /// Creates a convolution layer component.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        activation: Activation,
        seed: u64,
    ) -> Self {
        Conv2dLayer {
            name: name.into(),
            filters,
            kernel,
            stride,
            padding,
            activation,
            seed,
            weights: None,
            bias: None,
        }
    }
}

impl Component for Conv2dLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["call".into()]
    }

    fn create_variables(
        &mut self,
        ctx: &mut BuildCtx,
        _id: ComponentId,
        _method: &str,
        spaces: &[Space],
    ) -> Result<()> {
        let shape = super::util::feature_shape(
            spaces.first().ok_or_else(|| CoreError::new("conv layer needs one input"))?,
        )?;
        // per-sample shape is [C, H, W]
        if shape.len() != 3 {
            return Err(CoreError::new(format!(
                "conv layer expects [c,h,w] input samples, found {:?}",
                shape
            )));
        }
        let c = shape[0];
        let fan_in = c * self.kernel * self.kernel;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let w_init = init::initialize(
            &ParamInit::HeUniform { fan_in },
            &[self.filters, c, self.kernel, self.kernel],
            &mut rng,
        );
        self.weights = Some(ctx.variable("filters", w_init, true));
        self.bias = Some(ctx.variable(
            "bias",
            rlgraph_tensor::Tensor::zeros(&[self.filters, 1, 1], rlgraph_tensor::DType::F32),
            true,
        ));
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
            "call" => {
                let (w, b) = (self.weights, self.bias);
                let (stride, padding, act) = (self.stride, self.padding, self.activation);
                ctx.graph_fn(id, "conv2d", inputs, 1, move |ctx, ins| {
                    let w = ctx.read_var(w.expect("built"))?;
                    let b = ctx.read_var(b.expect("built"))?;
                    Ok(vec![nn_forward::conv2d(ctx, ins[0], w, b, stride, padding, act)?])
                })
            }
            other => Err(CoreError::new(format!("conv layer has no method '{}'", other))),
        }
    }

    fn var_handles(&self) -> Vec<VarHandle> {
        [self.weights, self.bias].into_iter().flatten().collect()
    }
}

/// Flattens everything after the batch axis; `call(x) -> y`.
pub struct FlattenLayer {
    name: String,
}

impl FlattenLayer {
    /// Creates a flatten component.
    pub fn new(name: impl Into<String>) -> Self {
        FlattenLayer { name: name.into() }
    }
}

impl Component for FlattenLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn api_methods(&self) -> Vec<String> {
        vec!["call".into()]
    }

    fn call_api(
        &mut self,
        method: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> Result<Vec<OpRef>> {
        match method {
            "call" => ctx.graph_fn(id, "flatten", inputs, 1, |ctx, ins| {
                let flat = ctx.emit(OpKind::Reshape { shape: vec![-1] }, &[ins[0]])?;
                Ok(vec![ctx.emit(OpKind::UnfoldLike { n: 1 }, &[flat, ins[0]])?])
            }),
            other => Err(CoreError::new(format!("flatten has no method '{}'", other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rlgraph_core::harness::TestBackend;
    use rlgraph_core::ComponentTest;

    #[test]
    fn dense_layer_isolated_build() {
        for backend in [TestBackend::Static, TestBackend::DefineByRun] {
            let mut test = ComponentTest::with_backend(
                DenseLayer::new("dense-0", 8, Activation::Relu, 1),
                &[("call", vec![Space::float_box(&[4]).with_batch_rank()])],
                backend,
            )
            .unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            let (_, out) = test.test_with_samples("call", 5, &mut rng).unwrap();
            assert_eq!(out[0].shape(), &[5, 8]);
            // relu output is non-negative
            assert!(out[0].as_f32().unwrap().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn backends_produce_identical_dense_outputs() {
        // Same seed → same initialisation → identical outputs.
        let spaces = vec![Space::float_box(&[3]).with_batch_rank()];
        let mut st = ComponentTest::with_backend(
            DenseLayer::new("d", 4, Activation::Tanh, 7),
            &[("call", spaces.clone())],
            TestBackend::Static,
        )
        .unwrap();
        let mut db = ComponentTest::with_backend(
            DenseLayer::new("d", 4, Activation::Tanh, 7),
            &[("call", spaces)],
            TestBackend::DefineByRun,
        )
        .unwrap();
        let x = rlgraph_tensor::Tensor::from_vec(vec![0.1, -0.2, 0.3], &[1, 3]).unwrap();
        let a = st.test("call", std::slice::from_ref(&x)).unwrap();
        let b = db.test("call", &[x]).unwrap();
        assert!(a[0].allclose(&b[0], 1e-6));
    }

    #[test]
    fn conv_layer_shapes() {
        let mut test = ComponentTest::new(
            Conv2dLayer::new("conv-0", 6, 3, 2, 1, Activation::Relu, 2),
            &[("call", vec![Space::float_box(&[2, 8, 8]).with_batch_rank()])],
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (_, out) = test.test_with_samples("call", 3, &mut rng).unwrap();
        assert_eq!(out[0].shape(), &[3, 6, 4, 4]);
    }

    #[test]
    fn conv_rejects_flat_input() {
        let err = ComponentTest::new(
            Conv2dLayer::new("conv-0", 6, 3, 1, 0, Activation::Relu, 2),
            &[("call", vec![Space::float_box(&[8]).with_batch_rank()])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn flatten_layer() {
        let mut test = ComponentTest::new(
            FlattenLayer::new("flat"),
            &[("call", vec![Space::float_box(&[2, 3, 4]).with_batch_rank()])],
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (_, out) = test.test_with_samples("call", 5, &mut rng).unwrap();
        assert_eq!(out[0].shape(), &[5, 24]);
    }
}
