//! Reduction kernels: sum/mean/max/min, argmax, softmax, and `unreduce`
//! (the shared gradient expander for reductions).

use crate::shape::{normalize_axes, num_elements, reduced_shape, strides, Walk};
use crate::{tensor_err, Result, Tensor};

/// Which reduction to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// sum of elements
    Sum,
    /// arithmetic mean
    Mean,
    /// maximum
    Max,
    /// minimum
    Min,
}

/// Below this much total work a parallel dispatch is not worth it.
const PAR_MIN_WORK: usize = 32 * 1024;
/// Target multiply-add count per parallel chunk.
const PAR_CHUNK_WORK: usize = 16 * 1024;

/// Reduces `axes` of `input` (all axes when `None`).
///
/// Iterates lane-by-lane: each output slot scans its reduced elements in
/// ascending input order (`normalize_axes` sorts, so the odometer below
/// visits exactly the order a linear input scan would), which keeps results
/// bit-identical to the previous element-by-element implementation while
/// allowing output slots to be computed independently — and therefore in
/// parallel, with no per-element coordinate decomposition.
pub fn reduce(
    input: &Tensor,
    axes: Option<&[usize]>,
    keep_dims: bool,
    reduction: Reduction,
) -> Result<Tensor> {
    let x = input.as_f32()?;
    let rank = input.rank();
    let axes = normalize_axes(axes, rank)?;
    let out_shape = reduced_shape(input.shape(), &axes, keep_dims);
    let n_out = num_elements(&out_shape);
    let lane: usize = axes.iter().map(|&a| input.shape()[a]).product();
    if lane == 0 || input.is_empty() {
        return Err(tensor_err!("cannot reduce an empty tensor of shape {:?}", input.shape()));
    }
    let in_strides = strides(input.shape());
    let kept: Vec<usize> = (0..rank).filter(|d| !axes.contains(d)).collect();
    let kept_sizes: Vec<usize> = kept.iter().map(|&d| input.shape()[d]).collect();
    let kept_strides: Vec<usize> = kept.iter().map(|&d| in_strides[d]).collect();
    let rsizes: Vec<usize> = axes.iter().map(|&a| input.shape()[a]).collect();
    let rstrides: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
    let init = match reduction {
        Reduction::Sum | Reduction::Mean => 0.0f32,
        Reduction::Max => f32::NEG_INFINITY,
        Reduction::Min => f32::INFINITY,
    };
    let mut out = vec![init; n_out];
    let slot_fn = |slot0: usize, chunk: &mut [f32]| {
        let mut idx = vec![0usize; rsizes.len()];
        for (ci, o) in chunk.iter_mut().enumerate() {
            // base input offset of this slot, from its kept-dim coords
            let mut rem = slot0 + ci;
            let mut base = 0usize;
            for (sz, st) in kept_sizes.iter().zip(&kept_strides).rev() {
                base += (rem % sz) * st;
                rem /= sz;
            }
            let mut acc = init;
            idx.iter_mut().for_each(|v| *v = 0);
            let mut off = base;
            'lane: loop {
                let v = x[off];
                match reduction {
                    Reduction::Sum | Reduction::Mean => acc += v,
                    Reduction::Max => {
                        if v > acc {
                            acc = v;
                        }
                    }
                    Reduction::Min => {
                        if v < acc {
                            acc = v;
                        }
                    }
                }
                let mut d = rsizes.len();
                loop {
                    if d == 0 {
                        break 'lane;
                    }
                    d -= 1;
                    idx[d] += 1;
                    off += rstrides[d];
                    if idx[d] < rsizes[d] {
                        break;
                    }
                    off -= rsizes[d] * rstrides[d];
                    idx[d] = 0;
                }
            }
            *o = if reduction == Reduction::Mean { acc / lane as f32 } else { acc };
        }
    };
    if n_out > 1 && n_out.saturating_mul(lane) >= PAR_MIN_WORK && crate::pool::current_threads() > 1
    {
        // chunk size depends only on the shape, never on the thread count
        let chunk_len = (PAR_CHUNK_WORK / lane).max(1);
        crate::pool::parallel_fill(&mut out, chunk_len, slot_fn);
    } else {
        slot_fn(0, &mut out);
    }
    Tensor::from_vec(out, &out_shape)
}

/// Expands `reduced` (the gradient of a reduction output) back to
/// `input_ref`'s shape, optionally dividing by the lane size (mean).
pub fn unreduce(
    reduced: &Tensor,
    input_ref: &Tensor,
    axes: Option<&[usize]>,
    keep_dims: bool,
    mean: bool,
) -> Result<Tensor> {
    let rank = input_ref.rank();
    let axes = normalize_axes(axes, rank)?;
    let expect = reduced_shape(input_ref.shape(), &axes, keep_dims);
    if reduced.shape() != expect.as_slice() {
        return Err(tensor_err!(
            "unreduce: reduced shape {:?} does not match expected {:?}",
            reduced.shape(),
            expect
        ));
    }
    let g = reduced.as_f32()?;
    let lane: usize = axes.iter().map(|&a| input_ref.shape()[a]).product();
    let scale = if mean { 1.0 / lane as f32 } else { 1.0 };
    // the reduced axes read `g` with stride 0
    let out_full = reduced_shape(input_ref.shape(), &axes, true);
    let walk = Walk::broadcast(input_ref.shape(), [&out_full]);
    let [step] = walk.steps();
    let n = input_ref.len();
    let mut out = Vec::with_capacity(n);
    walk.for_each_run(0, n, |_, len, [off]| {
        out.extend((0..len).map(|i| g[off + i * step] * scale));
    });
    Tensor::from_vec(out, input_ref.shape())
}

/// Calls `f(base)` for every lane of `shape` along `axis`, in output order:
/// `base` is the input offset of the lane's first element.
fn for_each_lane(shape: &[usize], axis: usize, mut f: impl FnMut(usize)) {
    let lanes = reduced_shape(shape, &[axis], true);
    let walk = Walk::new(&lanes, [&strides(shape)]);
    let [step] = walk.steps();
    walk.for_each_run(0, num_elements(&lanes), |_, len, [off]| {
        for i in 0..len {
            f(off + i * step);
        }
    });
}

/// Index of the max along `axis`, as i64.
pub fn argmax(input: &Tensor, axis: usize) -> Result<Tensor> {
    let x = input.as_f32()?;
    let rank = input.rank();
    if axis >= rank {
        return Err(tensor_err!("argmax axis {} out of range for rank {}", axis, rank));
    }
    let d = input.shape()[axis];
    if d == 0 {
        return Err(tensor_err!("argmax over empty axis"));
    }
    let out_shape = reduced_shape(input.shape(), &[axis], false);
    let axis_stride = strides(input.shape())[axis];
    let mut out = Vec::with_capacity(num_elements(&out_shape));
    for_each_lane(input.shape(), axis, |base| {
        let mut best = 0usize;
        let mut best_v = x[base];
        for k in 1..d {
            let v = x[base + k * axis_stride];
            if v > best_v {
                best_v = v;
                best = k;
            }
        }
        out.push(best as i64);
    });
    Tensor::from_vec_i64(out, &out_shape)
}

/// Numerically stable (log-)softmax along `axis`.
pub fn softmax(input: &Tensor, axis: usize, log: bool) -> Result<Tensor> {
    let x = input.as_f32()?;
    let rank = input.rank();
    if axis >= rank {
        return Err(tensor_err!("softmax axis {} out of range for rank {}", axis, rank));
    }
    let d = input.shape()[axis];
    if d == 0 {
        return Err(tensor_err!("softmax over empty axis"));
    }
    let axis_stride = strides(input.shape())[axis];
    let mut out = vec![0.0f32; input.len()];
    for_each_lane(input.shape(), axis, |base| {
        let mut max_v = f32::NEG_INFINITY;
        for k in 0..d {
            max_v = max_v.max(x[base + k * axis_stride]);
        }
        let mut sum = 0.0f32;
        for k in 0..d {
            sum += (x[base + k * axis_stride] - max_v).exp();
        }
        let log_sum = sum.ln();
        for k in 0..d {
            let idx = base + k * axis_stride;
            let shifted = x[idx] - max_v;
            out[idx] = if log { shifted - log_sum } else { (shifted - log_sum).exp() };
        }
    });
    Tensor::from_vec(out, input.shape())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn sum_all() {
        let r = reduce(&t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]), None, false, Reduction::Sum).unwrap();
        assert_eq!(r.shape(), &[] as &[usize]);
        assert_eq!(r.scalar_value().unwrap(), 10.0);
    }

    #[test]
    fn sum_axis() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r0 = reduce(&x, Some(&[0]), false, Reduction::Sum).unwrap();
        assert_eq!(r0.as_f32().unwrap(), &[5.0, 7.0, 9.0]);
        let r1 = reduce(&x, Some(&[1]), false, Reduction::Sum).unwrap();
        assert_eq!(r1.as_f32().unwrap(), &[6.0, 15.0]);
        let rk = reduce(&x, Some(&[1]), true, Reduction::Sum).unwrap();
        assert_eq!(rk.shape(), &[2, 1]);
    }

    #[test]
    fn mean_max_min() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(reduce(&x, None, false, Reduction::Mean).unwrap().scalar_value().unwrap(), 2.5);
        assert_eq!(reduce(&x, None, false, Reduction::Max).unwrap().scalar_value().unwrap(), 4.0);
        assert_eq!(reduce(&x, None, false, Reduction::Min).unwrap().scalar_value().unwrap(), 1.0);
        let m = reduce(&x, Some(&[0]), false, Reduction::Max).unwrap();
        assert_eq!(m.as_f32().unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn unreduce_inverts_shape() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s = reduce(&x, Some(&[1]), false, Reduction::Sum).unwrap();
        let u = unreduce(&s, &x, Some(&[1]), false, false).unwrap();
        assert_eq!(u.shape(), &[2, 3]);
        assert_eq!(u.as_f32().unwrap(), &[6.0, 6.0, 6.0, 15.0, 15.0, 15.0]);
        let um = unreduce(&s, &x, Some(&[1]), false, true).unwrap();
        assert_eq!(um.as_f32().unwrap(), &[2.0, 2.0, 2.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn unreduce_shape_mismatch() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let wrong = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(unreduce(&wrong, &x, Some(&[1]), false, false).is_err());
    }

    #[test]
    fn argmax_axes() {
        let x = t(&[1.0, 5.0, 3.0, 9.0, 2.0, 0.0], &[2, 3]);
        let a1 = argmax(&x, 1).unwrap();
        assert_eq!(a1.as_i64().unwrap(), &[1, 0]);
        let a0 = argmax(&x, 0).unwrap();
        assert_eq!(a0.as_i64().unwrap(), &[1, 0, 0]);
        assert!(argmax(&x, 2).is_err());
    }

    #[test]
    fn softmax_normalises() {
        let x = t(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], &[2, 3]);
        let s = softmax(&x, 1, false).unwrap();
        for row in 0..2 {
            let sum: f32 = (0..3).map(|c| s.get_f32(&[row, c]).unwrap()).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // monotone in logits
        assert!(s.get_f32(&[0, 2]).unwrap() > s.get_f32(&[0, 0]).unwrap());
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = t(&[1000.0, 1001.0], &[2]);
        let s = softmax(&x, 0, false).unwrap();
        let v = s.as_f32().unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v[0] + v[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = t(&[0.5, -1.0, 2.0], &[3]);
        let s = softmax(&x, 0, false).unwrap();
        let ls = softmax(&x, 0, true).unwrap();
        for i in 0..3 {
            assert!((ls.as_f32().unwrap()[i] - s.as_f32().unwrap()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_reduce_rejected() {
        let x = Tensor::zeros(&[0, 3], crate::DType::F32);
        assert!(reduce(&x, None, false, Reduction::Sum).is_err());
    }
}
