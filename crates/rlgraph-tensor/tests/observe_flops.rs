//! `kernel.flops_total` counts every executed multiply-add once.
//!
//! The kernel metrics sink is process-global, so the exact tallies live in
//! this single-test binary: nothing else runs kernels while it is installed
//! (the unit test in `kernels/observe.rs` shares its process with the other
//! unit tests and can only assert lower bounds).

use rlgraph_obs::Recorder;
use rlgraph_tensor::kernels::{conv, gemm, observe};
use rlgraph_tensor::Tensor;

/// Installs a fresh sink around `f` and returns (`kernel.flops_total`,
/// `kernel.conv2d.calls`, `kernel.gemm.calls`).
fn tally(f: impl FnOnce()) -> (f64, u64, u64) {
    let rec = Recorder::wall();
    observe::install_recorder(&rec);
    f();
    observe::install_recorder(&Recorder::disabled());
    let snap = rec.metrics_snapshot();
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
    let flops = snap.gauges.iter().find(|(n, _)| n == "kernel.flops_total").map(|(_, v)| *v);
    (flops.unwrap_or(0.0), counter("kernel.conv2d.calls"), counter("kernel.gemm.calls"))
}

#[test]
fn conv_and_gemm_flops_are_counted_once() {
    let (m, n, k) = (32, 24, 40);
    let (flops, _, gemms) = tally(|| {
        gemm::matmul_nn(&Tensor::ones(&[m, k]), &Tensor::ones(&[k, n])).unwrap();
    });
    assert_eq!((flops, gemms), ((2 * m * n * k) as f64, 1));

    // [b,c,h,w] * [o,c,kh,kw], stride 1, padding 1: oh = h, ow = w
    for (b, c, h, w, o, kh, kw) in [(3, 4, 12, 10, 8, 3, 3), (2, 1, 4, 4, 2, 3, 3)] {
        let x = Tensor::ones(&[b, c, h, w]);
        let f = Tensor::ones(&[o, c, kh, kw]);
        let g = Tensor::ones(&[b, o, h, w]);
        let expect = (2 * b * o * c * kh * kw * h * w) as f64;
        let lowered = o * c * kh * kw * h * w >= 8 * 1024;
        let (flops, convs, gemms) = tally(|| {
            conv::conv2d(&x, &f, 1, 1).unwrap();
        });
        assert_eq!((flops, convs), (expect, 1), "forward, lowered: {lowered}");
        assert_eq!(gemms, if lowered { b as u64 } else { 0 });
        let (flops, convs, _) = tally(|| {
            conv::conv2d_backprop_input(&f, &g, &x, 1, 1).unwrap();
        });
        assert_eq!((flops, convs), (expect, 1), "input gradient, lowered: {lowered}");
        let (flops, convs, _) = tally(|| {
            conv::conv2d_backprop_filter(&x, &g, &f, 1, 1).unwrap();
        });
        assert_eq!((flops, convs), (expect, 1), "filter gradient, lowered: {lowered}");
    }
}
