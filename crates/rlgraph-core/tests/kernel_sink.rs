//! The kernel-engine metrics sink is process-wide, so building a graph
//! with a disabled recorder must leave an installed one alone: a traced
//! driver run builds its agents' graphs untraced and still owes
//! `kernel.*`. Alone in its test binary, so nothing else in the process
//! installs a sink.

use rlgraph_core::{BuildCtx, Component, ComponentId, ComponentTest, OpRef, TestBackend};
use rlgraph_obs::Recorder;
use rlgraph_spaces::Space;
use rlgraph_tensor::kernels::gemm::matmul_nn;
use rlgraph_tensor::{OpKind, Tensor};

struct Doubler;

impl Component for Doubler {
    fn name(&self) -> &str {
        "doubler"
    }
    fn api_methods(&self) -> Vec<String> {
        vec!["forward".into()]
    }
    fn call_api(
        &mut self,
        _m: &str,
        ctx: &mut BuildCtx,
        id: ComponentId,
        inputs: &[OpRef],
    ) -> rlgraph_core::Result<Vec<OpRef>> {
        ctx.graph_fn(id, "double", inputs, 1, |ctx, ins| {
            let two = ctx.scalar(2.0);
            Ok(vec![ctx.emit(OpKind::Mul, &[ins[0], two])?])
        })
    }
}

/// Built the way the drivers build their agents: no recorder given, so
/// the builder attaches a disabled one.
fn untraced_graph(backend: TestBackend) -> ComponentTest {
    let spaces = vec![Space::float_box(&[2]).with_batch_rank()];
    ComponentTest::with_backend(Doubler, &[("forward", spaces)], backend).unwrap()
}

#[test]
fn untraced_graph_builds_keep_the_installed_kernel_sink() {
    let traced = Recorder::wall();
    let mut traced_graph = untraced_graph(TestBackend::Static);
    traced_graph.executor().set_recorder(traced.clone());

    let gemm_calls = || traced.counter("kernel.gemm.calls").value();
    let ones = Tensor::ones(&[32, 32]);
    for backend in [TestBackend::Static, TestBackend::DefineByRun] {
        let _untraced = untraced_graph(backend);
        let before = gemm_calls();
        matmul_nn(&ones, &ones).unwrap();
        assert_eq!(gemm_calls(), before + 1, "an untraced {backend:?} build uninstalled the sink");
    }
}
