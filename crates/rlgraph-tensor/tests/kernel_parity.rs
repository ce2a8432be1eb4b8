//! Parity and determinism suite for the kernel engine.
//!
//! * The blocked GEMM variants must match the reference loops within 1e-4:
//!   both fix the same ascending-k accumulation order per element, but the
//!   blocked kernel uses single-rounding fused multiply-adds where the
//!   naive loops round after every multiply.
//! * The im2col convolution paths must match the direct loops within a
//!   small tolerance (they reassociate across channel/kernel dims).
//! * Every parallel kernel must produce identical bits at any thread count:
//!   the thread count decides who runs a block, never what a block computes.

use proptest::prelude::*;
use rlgraph_tensor::kernels::{conv, gemm, reference};
use rlgraph_tensor::{forward, pool, OpKind, Tensor};

fn rng_tensor(shape: &[usize], seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -2.0, 2.0, &mut rng)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    let av = a.as_f32().unwrap();
    let bv = b.as_f32().unwrap();
    assert_eq!(av.len(), bv.len(), "{what}: length mismatch");
    for (i, (x, y)) in av.iter().zip(bv).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked NN GEMM matches the naive loops for arbitrary (ragged,
    /// multi-slab) shapes, up to FMA-vs-mul+add rounding.
    #[test]
    fn gemm_nn_matches_reference(m in 1usize..80, k in 1usize..300, n in 1usize..80, seed in 0u64..1000) {
        let a = rng_tensor(&[m, k], seed);
        let b = rng_tensor(&[k, n], seed.wrapping_add(1));
        let blocked = gemm::matmul_nn(&a, &b).unwrap();
        let naive = reference::matmul(&a, &b).unwrap();
        prop_assert!(blocked.allclose(&naive, 1e-4));
    }

    /// Blocked NT GEMM matches the naive row-dot-row loops within 1e-4.
    #[test]
    fn gemm_nt_matches_reference(m in 1usize..64, k in 1usize..300, n in 1usize..64, seed in 0u64..1000) {
        let a = rng_tensor(&[m, k], seed);
        let b = rng_tensor(&[n, k], seed.wrapping_add(1));
        let blocked = gemm::matmul_nt(&a, &b).unwrap();
        let naive = reference::matmul_nt(&a, &b).unwrap();
        prop_assert!(blocked.allclose(&naive, 1e-4));
    }

    /// Blocked TN GEMM matches the naive loops within 1e-4.
    #[test]
    fn gemm_tn_matches_reference(m in 1usize..64, k in 1usize..300, n in 1usize..64, seed in 0u64..1000) {
        let a = rng_tensor(&[k, m], seed);
        let b = rng_tensor(&[k, n], seed.wrapping_add(1));
        let blocked = gemm::matmul_tn(&a, &b).unwrap();
        let naive = reference::matmul_tn(&a, &b).unwrap();
        prop_assert!(blocked.allclose(&naive, 1e-4));
    }

    /// im2col conv forward and both backprops match the direct loops within
    /// 1e-4 for random shapes, strides and paddings.
    #[test]
    fn conv_im2col_matches_direct(
        b in 1usize..3,
        c in 1usize..4,
        h in 4usize..10,
        w in 4usize..10,
        o in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * padding >= kh && w + 2 * padding >= kw);
        let x = rng_tensor(&[b, c, h, w], seed);
        let f = rng_tensor(&[o, c, kh, kw], seed.wrapping_add(1));
        let direct = reference::conv2d(&x, &f, stride, padding).unwrap();
        let fast = conv::conv2d_im2col(&x, &f, stride, padding).unwrap();
        prop_assert!(fast.allclose(&direct, 1e-4), "forward mismatch");

        let g = rng_tensor(direct.shape(), seed.wrapping_add(2));
        let gi_direct = reference::conv2d_backprop_input(&f, &g, &x, stride, padding).unwrap();
        let gi_fast = conv::conv2d_backprop_input_im2col(&f, &g, &x, stride, padding).unwrap();
        prop_assert!(gi_fast.allclose(&gi_direct, 1e-4), "input-grad mismatch");

        let gf_direct = reference::conv2d_backprop_filter(&x, &g, &f, stride, padding).unwrap();
        let gf_fast = conv::conv2d_backprop_filter_im2col(&x, &g, &f, stride, padding).unwrap();
        prop_assert!(gf_fast.allclose(&gf_direct, 1e-4), "filter-grad mismatch");
    }
}

/// Kernels above the parallel cutoffs produce identical bits at 1, 2 and 8
/// threads: parallelism only redistributes blocks, never reorders the
/// arithmetic inside an output element.
#[test]
fn thread_count_is_bit_invisible() {
    let a = rng_tensor(&[128, 96], 11);
    let b = rng_tensor(&[96, 112], 12);
    let bt = rng_tensor(&[112, 96], 13);
    let x = rng_tensor(&[4, 3, 16, 16], 14);
    let f = rng_tensor(&[8, 3, 3, 3], 15);
    let big = rng_tensor(&[70, 1000], 16);
    let bias = rng_tensor(&[1000], 17);

    let run = || {
        let mm = gemm::matmul_nn(&a, &b).unwrap();
        let nt = gemm::matmul_nt(&a, &bt).unwrap();
        let cv = conv::conv2d_im2col(&x, &f, 1, 1).unwrap();
        let red = forward(&OpKind::Sum { axes: Some(vec![1]), keep_dims: false }, &[&big]).unwrap();
        let ew = forward(
            &OpKind::BiasActivation { act: rlgraph_tensor::FusedAct::Tanh },
            &[&big, &bias],
        )
        .unwrap();
        (mm, nt, cv, red, ew)
    };

    pool::set_threads(Some(1));
    let base = run();
    for threads in [2usize, 8] {
        pool::set_threads(Some(threads));
        let got = run();
        assert_bits_eq(&got.0, &base.0, &format!("matmul @ {threads} threads"));
        assert_bits_eq(&got.1, &base.1, &format!("matmul_nt @ {threads} threads"));
        assert_bits_eq(&got.2, &base.2, &format!("conv2d @ {threads} threads"));
        assert_bits_eq(&got.3, &base.3, &format!("reduce @ {threads} threads"));
        assert_bits_eq(&got.4, &base.4, &format!("bias_activation @ {threads} threads"));
    }
    pool::set_threads(None);
}

/// The same contract for GEMMs and convs large enough to cross the pool's
/// work cut-off (16 Mi flops; these are 25 M and 19 M), where the row loop
/// and conv's batch loop really are split across threads.
#[test]
fn thread_count_is_bit_invisible_above_the_dispatch_cutoff() {
    let a = rng_tensor(&[256, 192], 41);
    let b = rng_tensor(&[192, 256], 42);
    let x = rng_tensor(&[8, 16, 16, 16], 43);
    let f = rng_tensor(&[32, 16, 3, 3], 44);
    let g = rng_tensor(&[8, 32, 16, 16], 45);

    let run = || {
        [
            gemm::matmul_nn(&a, &b).unwrap(),
            conv::conv2d_im2col(&x, &f, 1, 1).unwrap(),
            conv::conv2d_backprop_input_im2col(&f, &g, &x, 1, 1).unwrap(),
            conv::conv2d_backprop_filter_im2col(&x, &g, &f, 1, 1).unwrap(),
        ]
    };
    pool::set_threads(Some(1));
    let base = run();
    for threads in [2usize, 8] {
        pool::set_threads(Some(threads));
        for (got, want) in run().iter().zip(&base) {
            assert_bits_eq(got, want, &format!("{:?} @ {threads} threads", want.shape()));
        }
    }
    pool::set_threads(None);
}

/// The fused bias+activation op and its gradients are bit-identical to the
/// unfused `Add` + activation pair, forward and backward.
#[test]
fn fused_bias_activation_matches_unfused_grads() {
    use rlgraph_tensor::{FusedAct, Tape};
    for (fused, unary) in [
        (FusedAct::Relu, Some(OpKind::Relu)),
        (FusedAct::Tanh, Some(OpKind::Tanh)),
        (FusedAct::Sigmoid, Some(OpKind::Sigmoid)),
        (FusedAct::Linear, None),
    ] {
        let xv = rng_tensor(&[6, 5], 21);
        let bv = rng_tensor(&[5], 22);

        let mut t1 = Tape::new();
        let x1 = t1.leaf(xv.clone(), true);
        let b1 = t1.leaf(bv.clone(), true);
        let y1 = t1.apply(OpKind::BiasActivation { act: fused }, &[x1, b1]).unwrap();
        let g1 = t1.backward(y1).unwrap();

        let mut t2 = Tape::new();
        let x2 = t2.leaf(xv.clone(), true);
        let b2 = t2.leaf(bv.clone(), true);
        let mut y2 = t2.apply(OpKind::Add, &[x2, b2]).unwrap();
        if let Some(u) = unary {
            y2 = t2.apply(u, &[y2]).unwrap();
        }
        let g2 = t2.backward(y2).unwrap();

        assert_bits_eq(t1.value(y1), t2.value(y2), &format!("{fused:?} forward"));
        assert_bits_eq(&g1[&x1], &g2[&x2], &format!("{fused:?} grad wrt x"));
        assert_bits_eq(&g1[&b1], &g2[&b2], &format!("{fused:?} grad wrt bias"));
    }
}

/// MatMul backward through the NT/TN variants is bit-identical to the old
/// materialize-the-transpose formulation.
#[test]
fn matmul_backward_matches_transpose_formulation() {
    use rlgraph_tensor::Tape;
    let av = rng_tensor(&[9, 7], 31);
    let bv = rng_tensor(&[7, 11], 32);
    // backward seeds the output gradient with ones of y's shape
    let gv = Tensor::ones(&[9, 11]);

    let mut tape = Tape::new();
    let a = tape.leaf(av.clone(), true);
    let b = tape.leaf(bv.clone(), true);
    let y = tape.apply(OpKind::MatMul, &[a, b]).unwrap();
    let grads = tape.backward(y).unwrap();

    // the old rule: gA = g @ B^T, gB = A^T @ g via materialized transposes
    let bt = forward(&OpKind::Transpose { perm: vec![1, 0] }, &[&bv]).unwrap();
    let at = forward(&OpKind::Transpose { perm: vec![1, 0] }, &[&av]).unwrap();
    let ga_old = forward(&OpKind::MatMul, &[&gv, &bt]).unwrap();
    let gb_old = forward(&OpKind::MatMul, &[&at, &gv]).unwrap();

    assert_bits_eq(&grads[&a], &ga_old, "grad wrt a");
    assert_bits_eq(&grads[&b], &gb_old, "grad wrt b");
}
