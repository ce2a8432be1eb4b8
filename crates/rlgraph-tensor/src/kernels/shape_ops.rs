//! Shape-manipulation kernels (dtype-generic): reshape, transpose, concat,
//! stack, slice, tile, and their gradient helpers.

use crate::shape::{num_elements, resolve_reshape, strides, Walk};
use crate::{tensor_err, DType, Result, Tensor};

/// Collects the `n` elements `walk` visits in `x`, in visiting order.
fn gather<T: Copy>(x: &[T], n: usize, walk: &Walk<1>) -> Vec<T> {
    let [step] = walk.steps();
    let mut out = Vec::with_capacity(n);
    walk.for_each_run(0, n, |_, len, [off]| match step {
        1 => out.extend_from_slice(&x[off..off + len]),
        _ => out.extend((0..len).map(|i| x[off + i * step])),
    });
    out
}

/// Builds an output of `out_shape` whose elements are the ones `walk`
/// visits in `t`'s data from offset `base` on. Preserves dtype.
fn remap(t: &Tensor, out_shape: &[usize], walk: &Walk<1>, base: usize) -> Result<Tensor> {
    let n = num_elements(out_shape);
    match t.dtype() {
        DType::F32 => Tensor::from_vec(gather(&t.as_f32()?[base..], n, walk), out_shape),
        DType::I64 => Tensor::from_vec_i64(gather(&t.as_i64()?[base..], n, walk), out_shape),
        DType::Bool => Tensor::from_vec_bool(gather(&t.as_bool()?[base..], n, walk), out_shape),
    }
}

/// Sends every element of `x`, in ascending order, to the slot of `out`
/// that `walk` pairs it with: `put(slot, value)`. Slots that receive several
/// values receive them in `x`'s flat order.
fn scatter(x: &[f32], walk: &Walk<1>, out: &mut [f32], put: impl Fn(&mut f32, f32)) {
    let [step] = walk.steps();
    walk.for_each_run(0, x.len(), |flat, len, [off]| {
        let src = &x[flat..flat + len];
        match step {
            0 => {
                let slot = &mut out[off];
                for &v in src {
                    put(slot, v);
                }
            }
            1 => {
                for (slot, &v) in out[off..off + len].iter_mut().zip(src) {
                    put(slot, v);
                }
            }
            _ => {
                for (i, &v) in src.iter().enumerate() {
                    put(&mut out[off + i * step], v);
                }
            }
        }
    });
}

/// Splits every axis of a tiled shape into `(repeat, original)` so the
/// original tensor is read with stride 0 along each repeat: the shape to
/// walk and the original's strides over it.
fn tile_axes(in_shape: &[usize], reps: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let in_strides = strides(in_shape);
    let mut shape = Vec::with_capacity(2 * reps.len());
    let mut st = Vec::with_capacity(2 * reps.len());
    for ((&d, &r), &s) in in_shape.iter().zip(reps).zip(&in_strides) {
        shape.extend([r, d]);
        st.extend([0, s]);
    }
    (shape, st)
}

/// Reshape with an optional `-1` wildcard.
pub fn reshape(t: &Tensor, spec: &[isize]) -> Result<Tensor> {
    let shape = resolve_reshape(spec, t.len())?;
    t.reshaped(&shape)
}

/// Splits `a`'s leading dimension into `shape_ref`'s first `n` dims.
///
/// `a` must have shape `[prod(ref[..n]), rest...]`; the result has shape
/// `[ref[0], .., ref[n-1], rest...]`. Together with a `[-1, rest]` reshape
/// this implements rlgraph's batch/time fold–unfold utilities.
pub fn unfold_like(a: &Tensor, shape_ref: &Tensor, n: usize) -> Result<Tensor> {
    if n > shape_ref.rank() {
        return Err(tensor_err!(
            "unfold_like: n {} exceeds reference rank {}",
            n,
            shape_ref.rank()
        ));
    }
    if a.rank() == 0 {
        return Err(tensor_err!("unfold_like: cannot unfold a scalar"));
    }
    let lead: usize = shape_ref.shape()[..n].iter().product();
    let mut shape: Vec<usize> = shape_ref.shape()[..n].to_vec();
    if a.shape()[0] == lead {
        shape.extend_from_slice(&a.shape()[1..]);
    } else if a.rank() == 1 && lead > 0 && a.len().is_multiple_of(lead) {
        // Rank-1 fallback: distribute the remaining elements into a single
        // trailing dimension (used to flatten-after-batch with a runtime
        // batch size).
        shape.push(a.len() / lead);
    } else {
        return Err(tensor_err!(
            "unfold_like: shape {:?} incompatible with leading product {} of reference dims {:?}",
            a.shape(),
            lead,
            &shape_ref.shape()[..n]
        ));
    }
    a.reshaped(&shape)
}

/// Sums `a` over its broadcast axes so the result has `shape_ref`'s shape
/// (the gradient helper for broadcasting binary ops).
pub fn reduce_to_like(a: &Tensor, shape_ref: &Tensor) -> Result<Tensor> {
    let target = shape_ref.shape();
    if a.shape() == target {
        return Ok(a.clone());
    }
    let rank_a = a.rank();
    let rank_t = target.len();
    if rank_t > rank_a {
        return Err(tensor_err!(
            "reduce_to_like: cannot reduce {:?} to larger-rank {:?}",
            a.shape(),
            target
        ));
    }
    // Axes introduced by broadcasting (leading) and axes where the target
    // had size 1 are summed away: the output stands still along them.
    let offset = rank_a - rank_t;
    for i in 0..rank_t {
        if target[i] != 1 && target[i] != a.shape()[offset + i] {
            return Err(tensor_err!(
                "reduce_to_like: {:?} is not a broadcast of {:?}",
                a.shape(),
                target
            ));
        }
    }
    let mut out = vec![0.0f32; num_elements(target)];
    scatter(a.as_f32()?, &Walk::broadcast(a.shape(), [target]), &mut out, |slot, v| *slot += v);
    Tensor::from_vec(out, target)
}

/// Permutes axes by `perm`.
pub fn transpose(t: &Tensor, perm: &[usize]) -> Result<Tensor> {
    let rank = t.rank();
    if perm.len() != rank {
        return Err(tensor_err!("transpose perm {:?} must have rank {}", perm, rank));
    }
    let mut seen = vec![false; rank];
    for &p in perm {
        if p >= rank || seen[p] {
            return Err(tensor_err!("invalid transpose permutation {:?}", perm));
        }
        seen[p] = true;
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
    let in_strides = strides(t.shape());
    let permuted: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    remap(t, &out_shape, &Walk::new(&out_shape, [&permuted]), 0)
}

/// Inserts a size-1 axis at `axis`.
pub fn expand_dims(t: &Tensor, axis: usize) -> Result<Tensor> {
    if axis > t.rank() {
        return Err(tensor_err!("expand_dims axis {} out of range for rank {}", axis, t.rank()));
    }
    let mut shape = t.shape().to_vec();
    shape.insert(axis, 1);
    t.reshaped(&shape)
}

/// Removes the size-1 axis at `axis`.
pub fn squeeze(t: &Tensor, axis: usize) -> Result<Tensor> {
    if axis >= t.rank() {
        return Err(tensor_err!("squeeze axis {} out of range for rank {}", axis, t.rank()));
    }
    if t.shape()[axis] != 1 {
        return Err(tensor_err!(
            "cannot squeeze axis {} of size {} in {:?}",
            axis,
            t.shape()[axis],
            t.shape()
        ));
    }
    let mut shape = t.shape().to_vec();
    shape.remove(axis);
    t.reshaped(&shape)
}

/// Concatenates along `axis`.
pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = inputs[0];
    let rank = first.rank();
    if axis >= rank {
        return Err(tensor_err!("concat axis {} out of range for rank {}", axis, rank));
    }
    let mut axis_total = 0usize;
    for t in inputs {
        if t.rank() != rank || t.dtype() != first.dtype() {
            return Err(tensor_err!("concat inputs must share rank and dtype"));
        }
        for d in 0..rank {
            if d != axis && t.shape()[d] != first.shape()[d] {
                return Err(tensor_err!(
                    "concat shape mismatch at axis {}: {:?} vs {:?}",
                    d,
                    t.shape(),
                    first.shape()
                ));
            }
        }
        axis_total += t.shape()[axis];
    }
    let mut out_shape = first.shape().to_vec();
    out_shape[axis] = axis_total;
    let outer: usize = first.shape()[..axis].iter().product();
    let inner: usize = first.shape()[axis + 1..].iter().product();

    // Hoist dtype validation / slice extraction out of the copy loops: the
    // per-input block sizes and data slices are loop-invariant.
    let blocks: Vec<usize> = inputs.iter().map(|t| t.shape()[axis] * inner).collect();
    match first.dtype() {
        DType::F32 => {
            let xs: Vec<&[f32]> = inputs.iter().map(|t| t.as_f32()).collect::<Result<_>>()?;
            let mut out = Vec::with_capacity(num_elements(&out_shape));
            for o in 0..outer {
                for (x, &block) in xs.iter().zip(&blocks) {
                    out.extend_from_slice(&x[o * block..(o + 1) * block]);
                }
            }
            Tensor::from_vec(out, &out_shape)
        }
        DType::I64 => {
            let xs: Vec<&[i64]> = inputs.iter().map(|t| t.as_i64()).collect::<Result<_>>()?;
            let mut out = Vec::with_capacity(num_elements(&out_shape));
            for o in 0..outer {
                for (x, &block) in xs.iter().zip(&blocks) {
                    out.extend_from_slice(&x[o * block..(o + 1) * block]);
                }
            }
            Tensor::from_vec_i64(out, &out_shape)
        }
        DType::Bool => {
            let xs: Vec<&[bool]> = inputs.iter().map(|t| t.as_bool()).collect::<Result<_>>()?;
            let mut out = Vec::with_capacity(num_elements(&out_shape));
            for o in 0..outer {
                for (x, &block) in xs.iter().zip(&blocks) {
                    out.extend_from_slice(&x[o * block..(o + 1) * block]);
                }
            }
            Tensor::from_vec_bool(out, &out_shape)
        }
    }
}

/// Gradient of [`concat`] for input `index`: inputs are
/// `(grad, in_0, .., in_{n-1})`; extracts the slice of `grad` matching that
/// input's extent.
pub fn concat_grad(inputs: &[&Tensor], axis: usize, index: usize) -> Result<Tensor> {
    if inputs.len() < 2 {
        return Err(tensor_err!("concat_grad needs the grad plus the original inputs"));
    }
    let grad = inputs[0];
    let originals = &inputs[1..];
    if index >= originals.len() {
        return Err(tensor_err!("concat_grad index {} out of range", index));
    }
    let start: usize = originals[..index].iter().map(|t| t.shape()[axis]).sum();
    let len = originals[index].shape()[axis];
    slice(grad, axis, start, len)
}

/// Stacks same-shaped inputs along a new `axis`.
pub fn stack(inputs: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = inputs[0];
    if axis > first.rank() {
        return Err(tensor_err!("stack axis {} out of range for rank {}", axis, first.rank()));
    }
    // Stack = expand_dims on each input, then concat.
    let expanded: Vec<Tensor> =
        inputs.iter().map(|t| expand_dims(t, axis)).collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = expanded.iter().collect();
    concat(&refs, axis)
}

/// Static slice `[start, start+len)` along `axis`.
pub fn slice(t: &Tensor, axis: usize, start: usize, len: usize) -> Result<Tensor> {
    let rank = t.rank();
    if axis >= rank {
        return Err(tensor_err!("slice axis {} out of range for rank {}", axis, rank));
    }
    if start + len > t.shape()[axis] {
        return Err(tensor_err!(
            "slice [{}, {}) out of range for axis {} of size {}",
            start,
            start + len,
            axis,
            t.shape()[axis]
        ));
    }
    let mut out_shape = t.shape().to_vec();
    out_shape[axis] = len;
    let in_strides = strides(t.shape());
    // an empty result reads nothing, and its start may lie past the data
    let base = if num_elements(&out_shape) == 0 { 0 } else { start * in_strides[axis] };
    remap(t, &out_shape, &Walk::new(&out_shape, [&in_strides]), base)
}

/// Gradient of [`slice`]: zero-pads `grad` back to `input_ref`'s shape.
pub fn slice_grad(
    grad: &Tensor,
    input_ref: &Tensor,
    axis: usize,
    start: usize,
    len: usize,
) -> Result<Tensor> {
    let mut expect = input_ref.shape().to_vec();
    if axis >= expect.len() || start + len > expect[axis] {
        return Err(tensor_err!("slice_grad parameters out of range"));
    }
    expect[axis] = len;
    if grad.shape() != expect.as_slice() {
        return Err(tensor_err!("slice_grad: grad shape {:?} expected {:?}", grad.shape(), expect));
    }
    let g = grad.as_f32()?;
    let out_strides = strides(input_ref.shape());
    let mut out = vec![0.0f32; input_ref.len()];
    if !g.is_empty() {
        let walk = Walk::new(grad.shape(), [&out_strides]);
        scatter(g, &walk, &mut out[start * out_strides[axis]..], |slot, v| *slot = v);
    }
    Tensor::from_vec(out, input_ref.shape())
}

/// Repeats the tensor `reps[d]` times along each axis `d`.
pub fn tile(t: &Tensor, reps: &[usize]) -> Result<Tensor> {
    if reps.len() != t.rank() {
        return Err(tensor_err!("tile reps {:?} must match rank {}", reps, t.rank()));
    }
    if reps.contains(&0) {
        return Err(tensor_err!("tile repetitions must be positive"));
    }
    let out_shape: Vec<usize> = t.shape().iter().zip(reps).map(|(d, r)| d * r).collect();
    let (split, st) = tile_axes(t.shape(), reps);
    remap(t, &out_shape, &Walk::new(&split, [&st]), 0)
}

/// Gradient of [`tile`]: sums all repeats back onto the input shape.
pub fn tile_grad(grad: &Tensor, input_ref: &Tensor, reps: &[usize]) -> Result<Tensor> {
    if reps.len() != input_ref.rank() {
        return Err(tensor_err!("tile_grad reps {:?} must match rank {}", reps, input_ref.rank()));
    }
    let expect: Vec<usize> = input_ref.shape().iter().zip(reps).map(|(d, r)| d * r).collect();
    if grad.shape() != expect.as_slice() {
        return Err(tensor_err!("tile_grad: grad shape {:?} expected {:?}", grad.shape(), expect));
    }
    let (split, st) = tile_axes(input_ref.shape(), reps);
    let mut out = vec![0.0f32; input_ref.len()];
    scatter(grad.as_f32()?, &Walk::new(&split, [&st]), &mut out, |slot, v| *slot += v);
    Tensor::from_vec(out, input_ref.shape())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn reshape_wildcard() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = reshape(&x, &[-1]).unwrap();
        assert_eq!(r.shape(), &[6]);
        let r2 = reshape(&x, &[3, -1]).unwrap();
        assert_eq!(r2.shape(), &[3, 2]);
    }

    #[test]
    fn transpose_2d() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = transpose(&x, &[1, 0]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_f32().unwrap(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(transpose(&x, &[0, 0]).is_err());
        assert!(transpose(&x, &[0]).is_err());
    }

    #[test]
    fn transpose_3d_roundtrip() {
        let x = t(&(0..24).map(|v| v as f32).collect::<Vec<_>>(), &[2, 3, 4]);
        let r = transpose(&x, &[2, 0, 1]).unwrap();
        assert_eq!(r.shape(), &[4, 2, 3]);
        let back = transpose(&r, &[1, 2, 0]).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn expand_squeeze_roundtrip() {
        let x = t(&[1.0, 2.0], &[2]);
        let e = expand_dims(&x, 0).unwrap();
        assert_eq!(e.shape(), &[1, 2]);
        let s = squeeze(&e, 0).unwrap();
        assert_eq!(s, x);
        assert!(squeeze(&x, 0).is_err());
        assert!(expand_dims(&x, 2).is_err());
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c0 = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_i64_and_bool() {
        let a = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let b = Tensor::from_vec_i64(vec![3], &[1]).unwrap();
        assert_eq!(concat(&[&a, &b], 0).unwrap().as_i64().unwrap(), &[1, 2, 3]);
        let c = Tensor::from_vec_bool(vec![true], &[1]).unwrap();
        let d = Tensor::from_vec_bool(vec![false], &[1]).unwrap();
        assert_eq!(concat(&[&c, &d], 0).unwrap().as_bool().unwrap(), &[true, false]);
    }

    #[test]
    fn concat_grad_extracts_slice() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0, 5.0], &[1, 3]);
        let g = t(&[10.0, 20.0, 30.0, 40.0, 50.0], &[1, 5]);
        let ga = concat_grad(&[&g, &a, &b], 1, 0).unwrap();
        assert_eq!(ga.as_f32().unwrap(), &[10.0, 20.0]);
        let gb = concat_grad(&[&g, &a, &b], 1, 1).unwrap();
        assert_eq!(gb.as_f32().unwrap(), &[30.0, 40.0, 50.0]);
    }

    #[test]
    fn stack_new_axis() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        let s1 = stack(&[&a, &b], 1).unwrap();
        assert_eq!(s1.shape(), &[2, 2]);
        assert_eq!(s1.as_f32().unwrap(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn slice_and_grad() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[5]);
        let s = slice(&x, 0, 1, 3).unwrap();
        assert_eq!(s.as_f32().unwrap(), &[2.0, 3.0, 4.0]);
        assert!(slice(&x, 0, 3, 3).is_err());
        let g = t(&[10.0, 20.0, 30.0], &[3]);
        let r = slice_grad(&g, &x, 0, 1, 3).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[0.0, 10.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn tile_and_grad() {
        let x = t(&[1.0, 2.0], &[2]);
        let r = tile(&x, &[3]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        let g = t(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], &[6]);
        let tg = tile_grad(&g, &x, &[3]).unwrap();
        assert_eq!(tg.as_f32().unwrap(), &[3.0, 3.0]);
        assert!(tile(&x, &[0]).is_err());
        assert!(tile(&x, &[1, 1]).is_err());
    }

    #[test]
    fn reduce_to_like_broadcast_axes() {
        // grad of a [3] bias broadcast into [2,3]
        let g = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let bias = t(&[0.0, 0.0, 0.0], &[3]);
        let r = reduce_to_like(&g, &bias).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[5.0, 7.0, 9.0]);
        // keep-dims style: [2,1] target
        let col = t(&[0.0, 0.0], &[2, 1]);
        let r2 = reduce_to_like(&g, &col).unwrap();
        assert_eq!(r2.as_f32().unwrap(), &[6.0, 15.0]);
        // same shape: identity
        let same = reduce_to_like(&g, &g).unwrap();
        assert_eq!(same, g);
        // not a broadcast
        let bad = t(&[0.0, 0.0], &[2]);
        assert!(reduce_to_like(&g, &bad).is_err());
    }

    /// The learner's bias gradients: conv `[b,o,h,w] -> [o,1,1]`, dense
    /// `[b,o] -> [o]`, a scalar target, and the same-shape identity. Small
    /// integers keep every partial sum exact, so equality is exact.
    #[test]
    fn reduce_to_like_bias_gradients() {
        let (b, o, h, w) = (2, 3, 2, 2);
        let g = t(&(0..b * o * h * w).map(|v| v as f32).collect::<Vec<_>>(), &[b, o, h, w]);
        let channel_sums: Vec<f32> = (0..o)
            .map(|c| {
                (0..b).flat_map(|i| (0..h * w).map(move |p| ((i * o + c) * h * w + p) as f32)).sum()
            })
            .collect();
        let conv_bias = reduce_to_like(&g, &Tensor::ones(&[o, 1, 1])).unwrap();
        assert_eq!(conv_bias.shape(), &[o, 1, 1]);
        assert_eq!(conv_bias.as_f32().unwrap(), channel_sums);

        let scalar = reduce_to_like(&g, &Tensor::scalar(0.0)).unwrap();
        assert_eq!(scalar.shape(), &[] as &[usize]);
        assert_eq!(scalar.scalar_value().unwrap(), (0..24).sum::<i32>() as f32);

        let dense =
            t(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 100.0, 200.0, 300.0, 0.5, 0.5, 0.5], &[4, 3]);
        let dense_bias = reduce_to_like(&dense, &Tensor::ones(&[3])).unwrap();
        assert_eq!(dense_bias.shape(), &[3]);
        assert_eq!(dense_bias.as_f32().unwrap(), &[111.5, 222.5, 333.5]);

        assert_eq!(reduce_to_like(&g, &Tensor::ones(&[b, o, h, w])).unwrap(), g);
        // larger-rank and mismatched targets are rejected
        assert!(reduce_to_like(&dense, &g).is_err());
        assert!(reduce_to_like(&g, &Tensor::ones(&[4, 1, 1])).is_err());
    }
}
