//! Elementwise kernels with NumPy-style broadcasting.
//!
//! Large f32 maps run on the kernel pool ([`crate::pool`]): the output is
//! split into fixed-size chunks whose boundaries depend only on the element
//! count, and every element is computed independently inside one chunk, so
//! results are bit-identical for any thread count.

use super::{FusedAct, OpKind};
use crate::shape::{
    broadcast_shapes, broadcast_strides, num_elements, ravel, strides, unravel, Walk,
};
use crate::{tensor_err, DType, Result, Tensor};

/// Below this many output elements the dispatch overhead is not worth it.
const PAR_MIN_ELEMS: usize = 32 * 1024;
/// Fixed chunk size; never derived from the thread count (determinism).
const PAR_CHUNK: usize = 16 * 1024;

/// Runs `f(start, chunk)` over `out`, in parallel when it is large enough.
fn fill_f32(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    if out.len() >= PAR_MIN_ELEMS && crate::pool::current_threads() > 1 {
        crate::pool::parallel_fill(out, PAR_CHUNK, f);
    } else {
        f(0, out);
    }
}

/// Applies `f` over broadcast f32 inputs.
///
/// Same-shape, suffix (`[b,n] + [n]`, either operand order) and scalar
/// operands go over the [`Walk`]: runs of the output against runs of the
/// operands, no index arithmetic per element. Any other broadcast (a conv
/// bias, `[b,o,h,w] + [o,1,1]`) still decomposes every flat index, with
/// one allocation per element; ROADMAP item 1(g) says why that arm goes
/// in the next change and not in this one.
fn zip_f32(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
    let (av, bv) = (coerce_f32(a)?, coerce_f32(b)?);
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let mut out = vec![0.0f32; num_elements(&out_shape)];
    if a.shape().ends_with(b.shape()) || b.shape().ends_with(a.shape()) {
        let walk = Walk::broadcast(&out_shape, [a.shape(), b.shape()]);
        let steps = walk.steps();
        fill_f32(&mut out, |start, chunk| {
            walk.for_each_run(start, start + chunk.len(), |flat, len, [oa, ob]| {
                let run = &mut chunk[flat - start..][..len];
                match steps {
                    [1, 1] => {
                        for ((o, &x), &y) in
                            run.iter_mut().zip(&av[oa..][..len]).zip(&bv[ob..][..len])
                        {
                            *o = f(x, y);
                        }
                    }
                    [1, 0] => {
                        let y = bv[ob];
                        for (o, &x) in run.iter_mut().zip(&av[oa..][..len]) {
                            *o = f(x, y);
                        }
                    }
                    [0, 1] => {
                        let x = av[oa];
                        for (o, &y) in run.iter_mut().zip(&bv[ob..][..len]) {
                            *o = f(x, y);
                        }
                    }
                    // both operands stand still: a space of one element
                    _ => run.fill(f(av[oa], bv[ob])),
                }
            });
        });
    } else {
        let st = strides(&out_shape);
        let sa = broadcast_strides(a.shape(), &out_shape);
        let sb = broadcast_strides(b.shape(), &out_shape);
        fill_f32(&mut out, |start, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                let coords = unravel(start + i, &st);
                *o = f(av[ravel(&coords, &sa)], bv[ravel(&coords, &sb)]);
            }
        });
    }
    Tensor::from_vec(out, &out_shape)
}

/// Collects `f(a, b)` over broadcast operands of any element type, in output
/// order (the dtype-generic sibling of [`zip_f32`] for the small non-f32
/// kernels).
fn zip_map<A: Copy, B: Copy, T>(
    (av, a_shape): (&[A], &[usize]),
    (bv, b_shape): (&[B], &[usize]),
    out_shape: &[usize],
    f: impl Fn(A, B) -> T,
) -> Vec<T> {
    let n = num_elements(out_shape);
    let walk = Walk::broadcast(out_shape, [a_shape, b_shape]);
    let [sa, sb] = walk.steps();
    let mut out = Vec::with_capacity(n);
    walk.for_each_run(0, n, |_, len, [oa, ob]| {
        out.extend((0..len).map(|i| f(av[oa + i * sa], bv[ob + i * sb])));
    });
    out
}

fn coerce_f32(t: &Tensor) -> Result<std::borrow::Cow<'_, [f32]>> {
    match t.dtype() {
        DType::F32 => Ok(std::borrow::Cow::Borrowed(t.as_f32()?)),
        _ => Ok(std::borrow::Cow::Owned(t.to_f32_vec())),
    }
}

/// Binary arithmetic kernels.
pub fn binary(kind: &OpKind, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    match kind {
        OpKind::Add => zip_f32(a, b, |x, y| x + y),
        OpKind::Sub => zip_f32(a, b, |x, y| x - y),
        OpKind::Mul => zip_f32(a, b, |x, y| x * y),
        OpKind::Div => zip_f32(a, b, |x, y| x / y),
        OpKind::Pow => zip_f32(a, b, f32::powf),
        OpKind::Maximum => zip_f32(a, b, f32::max),
        OpKind::Minimum => zip_f32(a, b, f32::min),
        _ => Err(tensor_err!("{} is not a binary arithmetic op", kind.name())),
    }
}

/// Comparison kernels producing bool tensors.
pub fn compare(kind: &OpKind, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    // Exact integer comparison when both sides are i64; otherwise f32.
    if a.dtype() == DType::I64 && b.dtype() == DType::I64 {
        let (av, bv) = (a.as_i64()?, b.as_i64()?);
        let cmp = comparison::<i64>(kind)?;
        let out_shape = broadcast_shapes(a.shape(), b.shape())?;
        let out = zip_map((av, a.shape()), (bv, b.shape()), &out_shape, cmp);
        return Tensor::from_vec_bool(out, &out_shape);
    }
    let cmp = comparison::<f32>(kind)?;
    let t = zip_f32(a, b, |x, y| if cmp(x, y) { 1.0 } else { 0.0 })?;
    Ok(t.cast(DType::Bool))
}

/// The predicate of a comparison op, for either element type, so both
/// reject the same kinds.
fn comparison<T: PartialOrd>(kind: &OpKind) -> Result<fn(T, T) -> bool> {
    Ok(match kind {
        OpKind::Greater => |x, y| x > y,
        OpKind::GreaterEqual => |x, y| x >= y,
        OpKind::Less => |x, y| x < y,
        OpKind::LessEqual => |x, y| x <= y,
        OpKind::Equal => |x, y| x == y,
        OpKind::NotEqual => |x, y| x != y,
        _ => return Err(tensor_err!("{} is not a comparison op", kind.name())),
    })
}

/// Boolean and/or with broadcasting.
pub fn logical(kind: &OpKind, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let f: fn(bool, bool) -> bool = match kind {
        OpKind::LogicalAnd => |x, y| x && y,
        OpKind::LogicalOr => |x, y| x || y,
        _ => return Err(tensor_err!("{} is not a logical op", kind.name())),
    };
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let out = zip_map((a.as_bool()?, a.shape()), (b.as_bool()?, b.shape()), &out_shape, f);
    Tensor::from_vec_bool(out, &out_shape)
}

/// Unary f32 kernels.
pub fn unary(kind: &OpKind, a: &Tensor) -> Result<Tensor> {
    let av = a.as_f32()?;
    let f: fn(f32) -> f32 = match kind {
        OpKind::Neg => |x| -x,
        OpKind::Abs => f32::abs,
        OpKind::Exp => f32::exp,
        OpKind::Log => f32::ln,
        OpKind::Sqrt => f32::sqrt,
        OpKind::Square => |x| x * x,
        OpKind::Relu => |x| x.max(0.0),
        OpKind::Tanh => f32::tanh,
        OpKind::Sigmoid => |x| 1.0 / (1.0 + (-x).exp()),
        OpKind::Sign => f32::signum,
        OpKind::Floor => f32::floor,
        _ => return Err(tensor_err!("{} is not a unary op", kind.name())),
    };
    let mut out = vec![0.0f32; av.len()];
    fill_f32(&mut out, |start, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(av[start + i]);
        }
    });
    Tensor::from_vec(out, a.shape())
}

/// Fused `act(x + bias)` with broadcasting.
///
/// Each arm applies the same floating-point expression as `Add` followed by
/// the standalone activation kernel, so the fusion is bit-identical to the
/// unfused pair — it only saves the intermediate tensor and one pass over
/// memory.
pub fn bias_activation(x: &Tensor, bias: &Tensor, act: FusedAct) -> Result<Tensor> {
    match act {
        FusedAct::Linear => zip_f32(x, bias, |v, b| v + b),
        FusedAct::Relu => zip_f32(x, bias, |v, b| (v + b).max(0.0)),
        FusedAct::Tanh => zip_f32(x, bias, |v, b| (v + b).tanh()),
        FusedAct::Sigmoid => zip_f32(x, bias, |v, b| 1.0 / (1.0 + (-(v + b)).exp())),
    }
}

/// Boolean negation.
pub fn not(a: &Tensor) -> Result<Tensor> {
    Tensor::from_vec_bool(a.as_bool()?.iter().map(|&x| !x).collect(), a.shape())
}

/// Clamp into `[lo, hi]`.
pub fn clip(a: &Tensor, lo: f32, hi: f32) -> Result<Tensor> {
    if lo > hi {
        return Err(tensor_err!("clip bounds inverted: lo {} > hi {}", lo, hi));
    }
    Tensor::from_vec(a.as_f32()?.iter().map(|&x| x.clamp(lo, hi)).collect(), a.shape())
}

/// `cond ? a : b` with broadcasting.
pub fn where_op(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if cond.dtype() != DType::Bool {
        return Err(tensor_err!("where condition must be bool, found {}", cond.dtype()));
    }
    let (av, bv) = (coerce_f32(a)?, coerce_f32(b)?);
    let cv = cond.as_bool()?;
    let ab = broadcast_shapes(a.shape(), b.shape())?;
    let out_shape = broadcast_shapes(cond.shape(), &ab)?;
    let n = num_elements(&out_shape);
    let walk = Walk::broadcast(&out_shape, [cond.shape(), a.shape(), b.shape()]);
    let [sc, sa, sb] = walk.steps();
    let mut out = Vec::with_capacity(n);
    walk.for_each_run(0, n, |_, len, [oc, oa, ob]| {
        out.extend((0..len).map(
            |i| {
                if cv[oc + i * sc] {
                    av[oa + i * sa]
                } else {
                    bv[ob + i * sb]
                }
            },
        ));
    });
    Tensor::from_vec(out, &out_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::forward;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let r = forward(&OpKind::Add, &[&t(&[1.0, 2.0], &[2]), &t(&[10.0, 20.0], &[2])]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        let r = forward(&OpKind::Add, &[&a, &b]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.as_f32().unwrap(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = t(&[1.0, 2.0], &[2]);
        let r = forward(&OpKind::Mul, &[&a, &Tensor::scalar(3.0)]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[3.0, 6.0]);
    }

    #[test]
    fn broadcast_incompatible() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(forward(&OpKind::Add, &[&a, &b]).is_err());
    }

    #[test]
    fn sub_div_pow_max_min() {
        let a = t(&[4.0, 9.0], &[2]);
        let b = t(&[2.0, 3.0], &[2]);
        assert_eq!(forward(&OpKind::Sub, &[&a, &b]).unwrap().as_f32().unwrap(), &[2.0, 6.0]);
        assert_eq!(forward(&OpKind::Div, &[&a, &b]).unwrap().as_f32().unwrap(), &[2.0, 3.0]);
        assert_eq!(forward(&OpKind::Pow, &[&a, &b]).unwrap().as_f32().unwrap(), &[16.0, 729.0]);
        assert_eq!(forward(&OpKind::Maximum, &[&a, &b]).unwrap().as_f32().unwrap(), &[4.0, 9.0]);
        assert_eq!(forward(&OpKind::Minimum, &[&a, &b]).unwrap().as_f32().unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn comparisons() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[2.0, 2.0, 2.0], &[3]);
        assert_eq!(
            forward(&OpKind::Greater, &[&a, &b]).unwrap().as_bool().unwrap(),
            &[false, false, true]
        );
        assert_eq!(
            forward(&OpKind::LessEqual, &[&a, &b]).unwrap().as_bool().unwrap(),
            &[true, true, false]
        );
        assert_eq!(
            forward(&OpKind::Equal, &[&a, &b]).unwrap().as_bool().unwrap(),
            &[false, true, false]
        );
    }

    #[test]
    fn i64_compare_exact() {
        let a = Tensor::from_vec_i64(vec![1, 5], &[2]).unwrap();
        let b = Tensor::from_vec_i64(vec![1, 4], &[2]).unwrap();
        assert_eq!(forward(&OpKind::Equal, &[&a, &b]).unwrap().as_bool().unwrap(), &[true, false]);
    }

    #[test]
    fn compare_rejects_non_comparison_kinds_for_both_dtypes() {
        let f = t(&[1.0, 2.0], &[2]);
        let i = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        for kind in [OpKind::Add, OpKind::LogicalAnd, OpKind::Relu] {
            for x in [&f, &i] {
                let err = compare(&kind, x, x).unwrap_err().to_string();
                assert!(err.contains("is not a comparison op"), "{}: {err}", kind.name());
            }
        }
    }

    #[test]
    fn logicals() {
        let a = Tensor::from_vec_bool(vec![true, true, false], &[3]).unwrap();
        let b = Tensor::from_vec_bool(vec![true, false, false], &[3]).unwrap();
        assert_eq!(
            forward(&OpKind::LogicalAnd, &[&a, &b]).unwrap().as_bool().unwrap(),
            &[true, false, false]
        );
        assert_eq!(
            forward(&OpKind::LogicalOr, &[&a, &b]).unwrap().as_bool().unwrap(),
            &[true, true, false]
        );
        assert_eq!(forward(&OpKind::Not, &[&a]).unwrap().as_bool().unwrap(), &[false, false, true]);
    }

    #[test]
    fn unaries() {
        let a = t(&[-2.0, 0.0, 2.0], &[3]);
        assert_eq!(forward(&OpKind::Neg, &[&a]).unwrap().as_f32().unwrap(), &[2.0, 0.0, -2.0]);
        assert_eq!(forward(&OpKind::Abs, &[&a]).unwrap().as_f32().unwrap(), &[2.0, 0.0, 2.0]);
        assert_eq!(forward(&OpKind::Relu, &[&a]).unwrap().as_f32().unwrap(), &[0.0, 0.0, 2.0]);
        assert_eq!(forward(&OpKind::Square, &[&a]).unwrap().as_f32().unwrap(), &[4.0, 0.0, 4.0]);
        let s = forward(&OpKind::Sigmoid, &[&t(&[0.0], &[1])]).unwrap();
        assert!((s.as_f32().unwrap()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn clip_bounds() {
        let a = t(&[-5.0, 0.5, 5.0], &[3]);
        let r = forward(&OpKind::Clip { lo: -1.0, hi: 1.0 }, &[&a]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[-1.0, 0.5, 1.0]);
        assert!(forward(&OpKind::Clip { lo: 1.0, hi: -1.0 }, &[&a]).is_err());
    }

    #[test]
    fn where_selects() {
        let c = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let r =
            forward(&OpKind::Where, &[&c, &t(&[1.0, 1.0], &[2]), &t(&[9.0, 9.0], &[2])]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 9.0]);
        // cond must be bool
        assert!(forward(&OpKind::Where, &[&t(&[1.0], &[1]), &t(&[1.0], &[1]), &t(&[0.0], &[1])])
            .is_err());
    }

    #[test]
    fn bias_activation_matches_unfused_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::rand_uniform(&[5, 8], -3.0, 3.0, &mut rng);
        let b = Tensor::rand_uniform(&[8], -1.0, 1.0, &mut rng);
        for (act, unary) in [
            (FusedAct::Relu, Some(OpKind::Relu)),
            (FusedAct::Tanh, Some(OpKind::Tanh)),
            (FusedAct::Sigmoid, Some(OpKind::Sigmoid)),
            (FusedAct::Linear, None),
        ] {
            let fused = bias_activation(&x, &b, act).unwrap();
            let mut expect = forward(&OpKind::Add, &[&x, &b]).unwrap();
            if let Some(u) = unary {
                expect = forward(&u, &[&expect]).unwrap();
            }
            let fv = fused.as_f32().unwrap();
            let ev = expect.as_f32().unwrap();
            assert!(
                fv.iter().zip(ev).all(|(a, b)| a.to_bits() == b.to_bits()),
                "fused {act:?} differs from unfused"
            );
        }
    }

    #[test]
    fn zeros_ones_like() {
        let a = t(&[3.0, 4.0], &[2]);
        assert_eq!(forward(&OpKind::ZerosLike, &[&a]).unwrap().as_f32().unwrap(), &[0.0, 0.0]);
        assert_eq!(forward(&OpKind::OnesLike, &[&a]).unwrap().as_f32().unwrap(), &[1.0, 1.0]);
    }
}
