//! Every kernel routed through `shape::Walk` against the loop it replaced.
//!
//! The oracles below are the old kernels, kept verbatim in spirit: decompose
//! each flat index into coordinates with a divide and a modulo per axis,
//! then dot the coordinates with strides. The walk must reproduce them
//! **bitwise** — same values, same per-element accumulation order — over
//! ranks 0–5 with size-1 axes, leading-axis broadcasts, scalar operands,
//! both operand orders, zero-element tensors, and parallel chunk boundaries
//! that split an inner run.
//!
//! The f32 maps (`binary`, f32 `compare`, `bias_activation`) run on the
//! walk for same-shape, suffix and scalar operands and on the old loop for
//! every other broadcast; both arms are held to the oracle, at random shapes
//! and at the shapes the benchmark workloads run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rlgraph_tensor::shape::{
    broadcast_shapes, broadcast_strides, num_elements, reduced_shape, strides,
};
use rlgraph_tensor::{forward, DType, FusedAct, OpKind, Tensor};
use std::sync::Mutex;

/// The pool's thread count is one process-wide override; the tests that set
/// it take turns.
static POOL_THREADS: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------- oracles

fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let st = strides(shape);
    let mut coords = vec![0usize; shape.len()];
    for i in 0..shape.len() {
        coords[i] = flat / st[i];
        flat %= st[i];
    }
    coords
}

fn ravel(coords: &[usize], strides: &[usize]) -> usize {
    coords.iter().zip(strides).map(|(c, s)| c * s).sum()
}

/// `f` over two broadcast operands, in output order.
fn zip_oracle<A: Copy, B: Copy, T>(
    (av, a_shape): (&[A], &[usize]),
    (bv, b_shape): (&[B], &[usize]),
    f: impl Fn(A, B) -> T,
) -> (Vec<T>, Vec<usize>) {
    let out_shape = broadcast_shapes(a_shape, b_shape).unwrap();
    let sa = broadcast_strides(a_shape, &out_shape);
    let sb = broadcast_strides(b_shape, &out_shape);
    let out = (0..num_elements(&out_shape))
        .map(|flat| {
            let coords = unravel(flat, &out_shape);
            f(av[ravel(&coords, &sa)], bv[ravel(&coords, &sb)])
        })
        .collect();
    (out, out_shape)
}

fn where_oracle(cond: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    let ab = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let out_shape = broadcast_shapes(cond.shape(), &ab).unwrap();
    let sc = broadcast_strides(cond.shape(), &out_shape);
    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let (cv, av, bv) = (cond.as_bool().unwrap(), a.as_f32().unwrap(), b.as_f32().unwrap());
    let out = (0..num_elements(&out_shape))
        .map(|flat| {
            let coords = unravel(flat, &out_shape);
            if cv[ravel(&coords, &sc)] {
                av[ravel(&coords, &sa)]
            } else {
                bv[ravel(&coords, &sb)]
            }
        })
        .collect();
    Tensor::from_vec(out, &out_shape).unwrap()
}

fn reduce_to_like_oracle(a: &Tensor, target: &[usize]) -> Tensor {
    if a.shape() == target {
        return a.clone();
    }
    let offset = a.rank() - target.len();
    let t_strides = strides(target);
    let mut out = vec![0.0f32; num_elements(target)];
    for (flat, &v) in a.as_f32().unwrap().iter().enumerate() {
        let coords = unravel(flat, a.shape());
        let tc: Vec<usize> = (0..target.len())
            .map(|i| if target[i] == 1 { 0 } else { coords[offset + i] })
            .collect();
        out[ravel(&tc, &t_strides)] += v;
    }
    Tensor::from_vec(out, target).unwrap()
}

fn unreduce_oracle(g: &Tensor, shape: &[usize], axes: &[usize], mean: bool) -> Tensor {
    let lane: usize = axes.iter().map(|&a| shape[a]).product();
    let scale = if mean { 1.0 / lane as f32 } else { 1.0 };
    let out_strides = strides(&reduced_shape(shape, axes, true));
    let gv = g.as_f32().unwrap();
    let out = (0..num_elements(shape))
        .map(|flat| {
            let mut coords = unravel(flat, shape);
            for &a in axes {
                coords[a] = 0;
            }
            gv[ravel(&coords, &out_strides)] * scale
        })
        .collect();
    Tensor::from_vec(out, shape).unwrap()
}

/// Input offset of every lane along `axis`, in output order.
fn lane_bases(shape: &[usize], axis: usize) -> Vec<usize> {
    let out_shape = reduced_shape(shape, &[axis], false);
    let st = strides(shape);
    (0..num_elements(&out_shape))
        .map(|flat| {
            let mut coords = unravel(flat, &out_shape);
            coords.insert(axis, 0);
            ravel(&coords, &st)
        })
        .collect()
}

fn argmax_oracle(x: &Tensor, axis: usize) -> Tensor {
    let (d, stride) = (x.shape()[axis], strides(x.shape())[axis]);
    let xv = x.as_f32().unwrap();
    let out = lane_bases(x.shape(), axis)
        .into_iter()
        .map(|base| {
            let mut best = 0usize;
            for k in 1..d {
                if xv[base + k * stride] > xv[base + best * stride] {
                    best = k;
                }
            }
            best as i64
        })
        .collect();
    Tensor::from_vec_i64(out, &reduced_shape(x.shape(), &[axis], false)).unwrap()
}

fn softmax_oracle(x: &Tensor, axis: usize, log: bool) -> Tensor {
    let (d, stride) = (x.shape()[axis], strides(x.shape())[axis]);
    let xv = x.as_f32().unwrap();
    let mut out = vec![0.0f32; xv.len()];
    for base in lane_bases(x.shape(), axis) {
        let mut max_v = f32::NEG_INFINITY;
        for k in 0..d {
            max_v = max_v.max(xv[base + k * stride]);
        }
        let mut sum = 0.0f32;
        for k in 0..d {
            sum += (xv[base + k * stride] - max_v).exp();
        }
        let log_sum = sum.ln();
        for k in 0..d {
            let shifted = xv[base + k * stride] - max_v;
            out[base + k * stride] =
                if log { shifted - log_sum } else { (shifted - log_sum).exp() };
        }
    }
    Tensor::from_vec(out, x.shape()).unwrap()
}

/// Output element `i` is input element `map(i)`.
fn remap_oracle(t: &Tensor, out_shape: &[usize], map: impl Fn(usize) -> usize) -> Tensor {
    let n = num_elements(out_shape);
    match t.dtype() {
        DType::F32 => {
            let x = t.as_f32().unwrap();
            Tensor::from_vec((0..n).map(|i| x[map(i)]).collect(), out_shape)
        }
        DType::I64 => {
            let x = t.as_i64().unwrap();
            Tensor::from_vec_i64((0..n).map(|i| x[map(i)]).collect(), out_shape)
        }
        DType::Bool => {
            let x = t.as_bool().unwrap();
            Tensor::from_vec_bool((0..n).map(|i| x[map(i)]).collect(), out_shape)
        }
    }
    .unwrap()
}

fn transpose_oracle(t: &Tensor, perm: &[usize]) -> Tensor {
    let out_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
    let in_strides = strides(t.shape());
    remap_oracle(t, &out_shape, |flat| {
        let oc = unravel(flat, &out_shape);
        let mut ic = vec![0usize; perm.len()];
        for (k, &p) in perm.iter().enumerate() {
            ic[p] = oc[k];
        }
        ravel(&ic, &in_strides)
    })
}

fn slice_oracle(t: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    let mut out_shape = t.shape().to_vec();
    out_shape[axis] = len;
    let in_strides = strides(t.shape());
    remap_oracle(t, &out_shape, |flat| {
        let mut c = unravel(flat, &out_shape);
        c[axis] += start;
        ravel(&c, &in_strides)
    })
}

fn slice_grad_oracle(grad: &Tensor, shape: &[usize], axis: usize, start: usize) -> Tensor {
    let out_strides = strides(shape);
    let mut out = vec![0.0f32; num_elements(shape)];
    for (flat, &v) in grad.as_f32().unwrap().iter().enumerate() {
        let mut c = unravel(flat, grad.shape());
        c[axis] += start;
        out[ravel(&c, &out_strides)] = v;
    }
    Tensor::from_vec(out, shape).unwrap()
}

fn tile_oracle(t: &Tensor, reps: &[usize]) -> Tensor {
    let out_shape: Vec<usize> = t.shape().iter().zip(reps).map(|(d, r)| d * r).collect();
    let in_strides = strides(t.shape());
    remap_oracle(t, &out_shape, |flat| {
        let oc = unravel(flat, &out_shape);
        let ic: Vec<usize> = oc.iter().zip(t.shape()).map(|(&c, &d)| c % d).collect();
        ravel(&ic, &in_strides)
    })
}

fn tile_grad_oracle(grad: &Tensor, shape: &[usize]) -> Tensor {
    let in_strides = strides(shape);
    let mut out = vec![0.0f32; num_elements(shape)];
    for (flat, &v) in grad.as_f32().unwrap().iter().enumerate() {
        let oc = unravel(flat, grad.shape());
        let ic: Vec<usize> = oc.iter().zip(shape).map(|(&c, &d)| c % d).collect();
        out[ravel(&ic, &in_strides)] += v;
    }
    Tensor::from_vec(out, shape).unwrap()
}

// ---------------------------------------------------------------- helpers

/// Bitwise equality: dtype, shape, and every f32 compared by `to_bits`,
/// except that a NaN matches a NaN of any sign and payload. Rust leaves
/// both unspecified for the result of an arithmetic op, and an optimised
/// build does commute a vectorised `x + y` against a standing operand, so
/// `-NaN + NaN` keeps whichever sign the compiler put first.
fn same_bits(got: &Tensor, want: &Tensor) -> bool {
    got.dtype() == want.dtype()
        && got.shape() == want.shape()
        && match want.dtype() {
            DType::F32 => {
                let (g, w) = (got.as_f32().unwrap(), want.as_f32().unwrap());
                g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan())
            }
            DType::I64 => got.as_i64().unwrap() == want.as_i64().unwrap(),
            DType::Bool => got.as_bool().unwrap() == want.as_bool().unwrap(),
        }
}

/// Axis sizes from raw draws: about one axis in sixteen is empty, a third
/// have size 1, the rest 2–6.
fn dims_from(raw: &[usize]) -> Vec<usize> {
    raw.iter()
        .map(|&v| match v {
            0 => 0,
            1..=5 => 1,
            _ => (v - 6) % 5 + 2,
        })
        .collect()
}

/// A shape that broadcasts into `base`: a random number of leading axes
/// dropped (all of them gives a scalar), random kept axes set to 1.
fn operand_shape(base: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let drop = if rng.random_bool(0.5) { 0 } else { rng.random_range(0..base.len() + 1) };
    base[drop..].iter().map(|&d| if rng.random_bool(0.3) { 1 } else { d }).collect()
}

fn f32_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    // a few signed zeros and repeats, so `=` vs `0 + v` and ties would show
    let data = (0..num_elements(shape))
        .map(|_| match rng.random_range(0..8) {
            0 => -0.0,
            1 => 1.5,
            _ => rng.random_range(-4.0f32..4.0),
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// [`f32_tensor`] with about one element in eight replaced by a NaN of
/// either sign: `max` and `min` drop a NaN operand, `pow` answers 1 for
/// `pow(1, NaN)` and `pow(NaN, 0)` only, and the comparisons are all false
/// but `!=`, so a NaN that reached the wrong element or the wrong side
/// shows.
fn with_nans(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let mut data = f32_tensor(shape, rng).as_f32().unwrap().to_vec();
    for v in &mut data {
        match rng.random_range(0..16) {
            0 => *v = f32::NAN,
            1 => *v = -f32::NAN,
            _ => {}
        }
    }
    Tensor::from_vec(data, shape).unwrap()
}

fn i64_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let data = (0..num_elements(shape)).map(|_| rng.random_range(-2i64..3)).collect();
    Tensor::from_vec_i64(data, shape).unwrap()
}

fn bool_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let data = (0..num_elements(shape)).map(|_| rng.random_bool(0.5)).collect();
    Tensor::from_vec_bool(data, shape).unwrap()
}

type Binary<T, R> = fn(T, T) -> R;
/// A comparison op with its f32 and i64 arms.
type Comparison = (OpKind, Binary<f32, bool>, Binary<i64, bool>);
type Activation = (FusedAct, fn(f32) -> f32);

const BINARY: [(OpKind, Binary<f32, f32>); 7] = [
    (OpKind::Add, |x, y| x + y),
    (OpKind::Sub, |x, y| x - y),
    (OpKind::Mul, |x, y| x * y),
    (OpKind::Div, |x, y| x / y),
    (OpKind::Pow, f32::powf),
    (OpKind::Maximum, f32::max),
    (OpKind::Minimum, f32::min),
];

const COMPARE: [Comparison; 6] = [
    (OpKind::Greater, |x, y| x > y, |x, y| x > y),
    (OpKind::GreaterEqual, |x, y| x >= y, |x, y| x >= y),
    (OpKind::Less, |x, y| x < y, |x, y| x < y),
    (OpKind::LessEqual, |x, y| x <= y, |x, y| x <= y),
    (OpKind::Equal, |x, y| x == y, |x, y| x == y),
    (OpKind::NotEqual, |x, y| x != y, |x, y| x != y),
];

const FUSED: [Activation; 4] = [
    (FusedAct::Linear, |s| s),
    (FusedAct::Relu, |s| s.max(0.0)),
    (FusedAct::Tanh, f32::tanh),
    (FusedAct::Sigmoid, |s| 1.0 / (1.0 + (-s).exp())),
];

/// Checks every f32 two-operand kernel on `(a, b)` in that order.
fn check_zip_kernels(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let (av, bv) = (a.as_f32().unwrap(), b.as_f32().unwrap());
    let operands = ((av, a.shape()), (bv, b.shape()));
    for (kind, f) in BINARY {
        let (want, shape) = zip_oracle(operands.0, operands.1, f);
        let want = Tensor::from_vec(want, &shape).unwrap();
        prop_assert!(same_bits(&forward(&kind, &[a, b]).unwrap(), &want), "{}", kind.name());
    }
    for (kind, f, _) in COMPARE {
        let (want, shape) = zip_oracle(operands.0, operands.1, f);
        let want = Tensor::from_vec_bool(want, &shape).unwrap();
        prop_assert!(same_bits(&forward(&kind, &[a, b]).unwrap(), &want), "{}", kind.name());
    }
    for (act, f) in FUSED {
        let (want, shape) = zip_oracle(operands.0, operands.1, |x, y| f(x + y));
        let want = Tensor::from_vec(want, &shape).unwrap();
        let got = forward(&OpKind::BiasActivation { act }, &[a, b]).unwrap();
        prop_assert!(same_bits(&got, &want), "bias_activation {act:?}");
    }
    Ok(())
}

// ------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn two_operand_kernels_match_the_old_loops(
        raw in prop::collection::vec(0usize..16, 0..6),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = dims_from(&raw);
        let (sa, sb) = (operand_shape(&base, &mut rng), operand_shape(&base, &mut rng));

        let (a, b) = (f32_tensor(&sa, &mut rng), f32_tensor(&sb, &mut rng));
        check_zip_kernels(&a, &b)?;
        check_zip_kernels(&b, &a)?;

        let (ia, ib) = (i64_tensor(&sa, &mut rng), i64_tensor(&sb, &mut rng));
        for (x, y) in [(&ia, &ib), (&ib, &ia)] {
            let operands = ((x.as_i64().unwrap(), x.shape()), (y.as_i64().unwrap(), y.shape()));
            for (kind, _, f) in COMPARE {
                let (want, shape) = zip_oracle(operands.0, operands.1, f);
                let want = Tensor::from_vec_bool(want, &shape).unwrap();
                prop_assert!(same_bits(&forward(&kind, &[x, y]).unwrap(), &want), "i64 {}", kind.name());
            }
        }

        let (ba, bb) = (bool_tensor(&sa, &mut rng), bool_tensor(&sb, &mut rng));
        for (x, y) in [(&ba, &bb), (&bb, &ba)] {
            let operands = ((x.as_bool().unwrap(), x.shape()), (y.as_bool().unwrap(), y.shape()));
            let logicals: [(OpKind, Binary<bool, bool>); 2] =
                [(OpKind::LogicalAnd, |p, q| p && q), (OpKind::LogicalOr, |p, q| p || q)];
            for (kind, f) in logicals {
                let (want, shape) = zip_oracle(operands.0, operands.1, f);
                let want = Tensor::from_vec_bool(want, &shape).unwrap();
                prop_assert!(same_bits(&forward(&kind, &[x, y]).unwrap(), &want), "{}", kind.name());
            }
        }

        // where: the condition broadcasts independently of both branches
        let cond = bool_tensor(&operand_shape(&base, &mut rng), &mut rng);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let got = forward(&OpKind::Where, &[&cond, x, y]).unwrap();
            prop_assert!(same_bits(&got, &where_oracle(&cond, x, y)));
        }
    }

    #[test]
    fn reductions_onto_broadcast_shapes_match_the_old_loops(
        raw in prop::collection::vec(0usize..16, 0..6),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = dims_from(&raw);
        let x = f32_tensor(&shape, &mut rng);

        // reduce_to_like: the gradient of any operand that broadcast into x
        let target = operand_shape(&shape, &mut rng);
        let got = forward(&OpKind::ReduceToLike, &[&x, &Tensor::zeros(&target, DType::F32)]).unwrap();
        prop_assert!(same_bits(&got, &reduce_to_like_oracle(&x, &target)));

        // unreduce over a random axis subset, with and without kept dims
        let axes: Vec<usize> = (0..shape.len()).filter(|_| rng.random_bool(0.5)).collect();
        for keep_dims in [false, true] {
            for mean in [false, true] {
                let g = f32_tensor(&reduced_shape(&shape, &axes, keep_dims), &mut rng);
                let kind = OpKind::Unreduce { axes: Some(axes.clone()), keep_dims, mean };
                let got = forward(&kind, &[&g, &x]).unwrap();
                prop_assert!(same_bits(&got, &unreduce_oracle(&g, &shape, &axes, mean)));
            }
        }

        // lane kernels along every non-empty axis
        for axis in (0..shape.len()).filter(|&a| shape[a] > 0) {
            let got = forward(&OpKind::ArgMax { axis }, &[&x]).unwrap();
            prop_assert!(same_bits(&got, &argmax_oracle(&x, axis)), "argmax axis {axis}");
            let got = forward(&OpKind::Softmax { axis }, &[&x]).unwrap();
            prop_assert!(same_bits(&got, &softmax_oracle(&x, axis, false)), "softmax axis {axis}");
            let got = forward(&OpKind::LogSoftmax { axis }, &[&x]).unwrap();
            prop_assert!(same_bits(&got, &softmax_oracle(&x, axis, true)), "log_softmax axis {axis}");
        }
    }

    #[test]
    fn shape_kernels_match_the_old_loops(
        raw in prop::collection::vec(0usize..16, 0..6),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = dims_from(&raw);
        let rank = shape.len();
        let inputs =
            [f32_tensor(&shape, &mut rng), i64_tensor(&shape, &mut rng), bool_tensor(&shape, &mut rng)];

        // a random permutation (Fisher–Yates)
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        // tiles of 1–3 repeats, kept small
        let reps: Vec<usize> = shape.iter().map(|_| rng.random_range(1usize..4)).collect();
        prop_assume!(num_elements(&shape) * reps.iter().product::<usize>() <= 50_000);

        for t in &inputs {
            let got = forward(&OpKind::Transpose { perm: perm.clone() }, &[t]).unwrap();
            prop_assert!(same_bits(&got, &transpose_oracle(t, &perm)), "transpose {perm:?}");
            let got = forward(&OpKind::Tile { reps: reps.clone() }, &[t]).unwrap();
            prop_assert!(same_bits(&got, &tile_oracle(t, &reps)), "tile {reps:?}");
        }
        let tiled: Vec<usize> = shape.iter().zip(&reps).map(|(d, r)| d * r).collect();
        let g = f32_tensor(&tiled, &mut rng);
        let got = forward(&OpKind::TileGrad { reps: reps.clone() }, &[&g, &inputs[0]]).unwrap();
        prop_assert!(same_bits(&got, &tile_grad_oracle(&g, &shape)), "tile_grad {reps:?}");

        for axis in 0..rank {
            let start = rng.random_range(0..shape[axis] + 1);
            let len = rng.random_range(0..shape[axis] - start + 1);
            for t in &inputs {
                let got = forward(&OpKind::Slice { axis, start, len }, &[t]).unwrap();
                prop_assert!(same_bits(&got, &slice_oracle(t, axis, start, len)), "slice {axis}/{start}/{len}");
            }
            let mut g_shape = shape.clone();
            g_shape[axis] = len;
            let g = f32_tensor(&g_shape, &mut rng);
            let got = forward(&OpKind::SliceGrad { axis, start, len }, &[&g, &inputs[0]]).unwrap();
            prop_assert!(same_bits(&got, &slice_grad_oracle(&g, &shape, axis, start)), "slice_grad");
        }
    }
}

/// Above 32 Ki elements the f32 map splits into 16 Ki-element chunks on the
/// pool. None of these inner runs divides the chunk size, so chunk
/// boundaries land inside runs and inside broadcast repeats.
#[test]
fn parallel_chunks_split_inner_runs() {
    let mut rng = StdRng::seed_from_u64(17);
    let cases: [(&[usize], &[usize]); 6] = [
        (&[5, 7, 1001], &[7, 1]),       // inner run 1001, operand standing still
        (&[5, 7, 1001], &[1001]),       // suffix bias
        (&[5, 7, 1001], &[5, 1, 1001]), // middle axis broadcast
        (&[3, 11_003], &[3, 1]),        // runs of 11 003 against 16 384-element chunks
        (&[2, 20_011], &[]),            // scalar: one run of 40 022
        (&[41, 9, 7, 13], &[9, 1, 1]),  // conv bias, inner run 91
    ];
    let _turn = POOL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    rlgraph_tensor::pool::set_threads(Some(3));
    for (big, small) in cases {
        let (a, b) = (f32_tensor(big, &mut rng), f32_tensor(small, &mut rng));
        assert!(a.len() >= 32 * 1024, "{big:?} stays below the parallel cut-off");
        check_zip_kernels(&a, &b).unwrap();
        check_zip_kernels(&b, &a).unwrap();
    }
    rlgraph_tensor::pool::set_threads(None);
}

/// The f32 maps at the shapes the workloads run: dense biases (DQN batch,
/// Ape-X TD-error batch), both operand orders, scalars on either side (all
/// three run bodies of the walk), the conv bias (the arm not on the walk),
/// empty tensors, and one map above the parallel cut-off whose 16 Ki chunk
/// edge falls inside a run — single-threaded and chunked over two threads.
/// NaNs and signed zeros are in the data; `sub`, `div`, `pow` and the
/// ordered comparisons depend on operand order, so a run body that swaps
/// its operands shows here.
#[test]
fn f32_maps_match_the_oracle_at_workload_shapes() {
    const BIG: &[usize] = &[41, 1000];
    assert!(num_elements(BIG) >= 32 * 1024 && !(16 * 1024usize).is_multiple_of(BIG[1]));
    let cases: [(&[usize], &[usize]); 9] = [
        (&[32, 64], &[64]),
        (&[400, 64], &[64]),
        (&[64], &[32, 64]),
        (&[512, 64], &[]),
        (&[], &[512, 64]),
        (&[80, 16, 8, 8], &[16, 1, 1]),
        (&[0, 3], &[3]),
        (&[3], &[0, 3]),
        (BIG, &[1000]),
    ];
    let _turn = POOL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2] {
        rlgraph_tensor::pool::set_threads(Some(threads));
        let mut rng = StdRng::seed_from_u64(19);
        for (sa, sb) in cases {
            let (a, b) = (with_nans(sa, &mut rng), with_nans(sb, &mut rng));
            check_zip_kernels(&a, &b)
                .unwrap_or_else(|e| panic!("{sa:?} with {sb:?}, {threads} thread(s): {e:?}"));
        }
    }
    rlgraph_tensor::pool::set_threads(None);
}

/// `reduce_to_like` at the shapes that carry the learners' time (conv and
/// dense bias gradients), at the collapsing edge cases (suffix, kept size-1
/// axes, scalar, middle axis, empty), and on an input above 32 Ki elements
/// whose inner run (91) does not divide 16 Ki. Sums of many f32 depend on
/// their order, so a walk that reorders a run shows here.
#[test]
fn reduce_to_like_sums_in_flat_order() {
    const BIG: &[usize] = &[41, 9, 7, 13];
    assert!(num_elements(BIG) >= 32 * 1024);
    let mut rng = StdRng::seed_from_u64(18);
    let cases: [(&[usize], &[usize]); 10] = [
        (&[80, 16, 8, 8], &[16, 1, 1]), // IMPALA conv biases
        (&[80, 32, 4, 4], &[32, 1, 1]),
        (&[80, 64], &[64]), // IMPALA / DQN dense biases
        (&[32, 64], &[1, 64]),
        (&[20, 4], &[4]),
        (&[20, 4], &[]),
        (&[3, 5, 6, 7], &[5, 1, 7]),
        (&[0, 3], &[3]),
        (BIG, &[9, 1, 1]),
        (BIG, &[7, 1]),
    ];
    for (from, target) in cases {
        let x = f32_tensor(from, &mut rng);
        let like = Tensor::zeros(target, DType::F32);
        let got = forward(&OpKind::ReduceToLike, &[&x, &like]).unwrap();
        assert!(same_bits(&got, &reduce_to_like_oracle(&x, target)), "{from:?} -> {target:?}");
    }
}
