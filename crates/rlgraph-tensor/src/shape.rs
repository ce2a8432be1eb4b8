//! Shape arithmetic: strides, broadcasting, and the shared stride walk.

use crate::{tensor_err, Result};

/// Number of elements implied by a shape.
pub fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a shape.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut out = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for i in (0..shape.len()).rev() {
        out[i] = acc;
        acc *= shape[i];
    }
    out
}

/// Computes the NumPy-style broadcast of two shapes.
///
/// # Errors
///
/// Returns an error if the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Result<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return Err(tensor_err!("shapes {:?} and {:?} are not broadcastable", a, b));
        };
    }
    Ok(out)
}

/// Strides for reading a tensor of shape `from` as if broadcast to `to`
/// (stride 0 on broadcast axes). `from` must be broadcastable to `to`.
pub fn broadcast_strides(from: &[usize], to: &[usize]) -> Vec<usize> {
    let base = strides(from);
    let offset = to.len() - from.len();
    let mut out = vec![0usize; to.len()];
    for i in 0..to.len() {
        if i < offset {
            out[i] = 0;
        } else {
            let d = from[i - offset];
            out[i] = if d == 1 && to[i] != 1 { 0 } else { base[i - offset] };
        }
    }
    out
}

/// Converts a flat index into its multi-dimensional coordinates, given the
/// row-major [`strides`] of the shape (computed once by the caller, not per
/// index).
///
/// Allocates the coordinate vector on every call. The kernels address their
/// operands through [`Walk`] instead; the last caller, one arm of `zip_f32`
/// (named in `tests/retired_identifiers.rs`), goes in the next change and
/// takes this function and [`ravel`] with it.
pub fn unravel(mut flat: usize, strides: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; strides.len()];
    for (c, &s) in coords.iter_mut().zip(strides) {
        *c = flat / s;
        flat %= s;
    }
    coords
}

/// Dot product of coordinates with strides (flat offset).
pub fn ravel(coords: &[usize], strides: &[usize]) -> usize {
    coords.iter().zip(strides).map(|(c, s)| c * s).sum()
}

/// One stride walk over a row-major index space, shared by every kernel
/// that reads or writes `N` operands through per-axis strides: broadcasts
/// (stride 0 on expanded axes), reductions onto a broadcast target,
/// permutations, slices and tiles.
///
/// Construction drops size-1 axes and collapses adjacent axes that every
/// operand steps through contiguously, so a same-shape or suffix broadcast
/// becomes one run and `[b,o,h,w]` against `[o,1,1]` becomes three axes.
/// [`Walk::for_each_run`] then visits the space in ascending flat order as
/// runs along the innermost collapsed axis, carrying each operand's offset
/// with an odometer: no allocation, division or modulo per element, and
/// the run bodies are plain strided loops the compiler can vectorise.
///
/// The visiting order is exactly the flat order of the space, so a kernel
/// that accumulates inside the callback keeps the per-element accumulation
/// order of a linear scan.
#[derive(Debug)]
pub struct Walk<const N: usize> {
    /// collapsed axes outside the run, outermost first: size and the
    /// per-operand stride
    outer: Vec<(usize, [usize; N])>,
    /// length of the innermost collapsed axis
    inner: usize,
    /// per-operand stride along the innermost axis
    steps: [usize; N],
}

impl<const N: usize> Walk<N> {
    /// A walk over `shape` where operand `k` moves by `strides[k][d]`
    /// elements per step along axis `d`.
    pub fn new(shape: &[usize], strides: [&[usize]; N]) -> Self {
        debug_assert!(strides.iter().all(|s| s.len() == shape.len()));
        let axes = (0..shape.len()).rev();
        Self::from_axes(axes.map(|d| (shape[d], std::array::from_fn(|k| strides[k][d]))))
    }

    /// A walk over `out_shape` reading each of `shapes` as if broadcast to
    /// it; every shape must be broadcastable to `out_shape`. Broadcast
    /// operands always get an inner step of 0 or 1.
    ///
    /// The strides are those of [`broadcast_strides`], worked out axis by
    /// axis on the way in: a small map (one served action) pays for no
    /// allocation here.
    pub fn broadcast(out_shape: &[usize], shapes: [&[usize]; N]) -> Self {
        let rank = out_shape.len();
        // each operand's row-major stride at the axis being visited
        let mut dense = [1usize; N];
        Self::from_axes((0..rank).rev().map(|d| {
            let at = std::array::from_fn(|k| {
                let lead = rank - shapes[k].len();
                let dim = if d < lead { 1 } else { shapes[k][d - lead] };
                let stride = if dim == 1 && out_shape[d] != 1 { 0 } else { dense[k] };
                dense[k] *= dim;
                stride
            });
            (out_shape[d], at)
        }))
    }

    /// Collapses axes given innermost first as (size, per-operand stride).
    fn from_axes(axes: impl Iterator<Item = (usize, [usize; N])>) -> Self {
        let mut outer = Vec::new();
        // the group being grown, innermost axis first: (size, strides)
        let mut group: Option<(usize, [usize; N])> = None;
        for (size, at) in axes {
            if size == 1 {
                continue;
            }
            match &mut group {
                Some((len, st)) if (0..N).all(|k| at[k] == st[k] * *len) => *len *= size,
                Some(done) => {
                    outer.push(*done);
                    *done = (size, at);
                }
                None => group = Some((size, at)),
            }
        }
        // the first finished group is the innermost axis; a space with no
        // axis of size > 1 is one run of one element
        let (inner, steps) =
            if outer.is_empty() { group.take().unwrap_or((1, [0; N])) } else { outer.remove(0) };
        outer.extend(group);
        outer.reverse();
        Walk { outer, inner, steps }
    }

    /// Each operand's stride along a run.
    pub fn steps(&self) -> [usize; N] {
        self.steps
    }

    /// Visits the flat range `[start, end)` of the space in ascending
    /// order, calling `f(flat, len, offsets)` once per run: `flat` is the
    /// flat index of the run's first element, `len` its length, and
    /// element `i` of the run sits at `offsets[k] + i * steps()[k]` in
    /// operand `k`. A range boundary may split a run; the pieces are
    /// visited as separate, shorter runs.
    pub fn for_each_run(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, usize, [usize; N]),
    ) {
        if start >= end {
            return;
        }
        // position the odometer once per range
        let mut idx = vec![0usize; self.outer.len()];
        let mut offs = [0usize; N];
        let mut rem = start / self.inner;
        let mut within = start % self.inner;
        for (i, &(size, st)) in idx.iter_mut().zip(&self.outer).rev() {
            *i = rem % size;
            rem /= size;
            for k in 0..N {
                offs[k] += *i * st[k];
            }
        }
        let mut flat = start;
        loop {
            let len = (self.inner - within).min(end - flat);
            f(flat, len, std::array::from_fn(|k| offs[k] + within * self.steps[k]));
            flat += len;
            if flat >= end {
                return;
            }
            within = 0;
            // `flat < end` means another run exists, so the carry stops
            // before it runs off the outermost axis
            for (i, &(size, st)) in idx.iter_mut().zip(&self.outer).rev() {
                *i += 1;
                for k in 0..N {
                    offs[k] += st[k];
                }
                if *i < size {
                    break;
                }
                *i = 0;
                for k in 0..N {
                    offs[k] -= size * st[k];
                }
            }
        }
    }
}

/// Resolves a shape spec that may contain a single `-1` wildcard against a
/// known element count (as in `reshape`).
///
/// # Errors
///
/// Errors if more than one `-1` appears, or the element counts disagree.
pub fn resolve_reshape(spec: &[isize], num: usize) -> Result<Vec<usize>> {
    let wilds = spec.iter().filter(|&&d| d == -1).count();
    if wilds > 1 {
        return Err(tensor_err!("reshape spec {:?} has more than one -1", spec));
    }
    let known: usize = spec.iter().filter(|&&d| d != -1).map(|&d| d as usize).product();
    let mut out = Vec::with_capacity(spec.len());
    for &d in spec {
        if d == -1 {
            if known == 0 || !num.is_multiple_of(known) {
                return Err(tensor_err!(
                    "cannot infer -1 in reshape {:?} for {} elements",
                    spec,
                    num
                ));
            }
            out.push(num / known);
        } else if d < 0 {
            return Err(tensor_err!("negative dimension {} in reshape {:?}", d, spec));
        } else {
            out.push(d as usize);
        }
    }
    if num_elements(&out) != num {
        return Err(tensor_err!("reshape {:?} incompatible with {} elements", spec, num));
    }
    Ok(out)
}

/// Normalises reduction axes: `None` means all axes; validates bounds and
/// returns a sorted, deduplicated list.
pub fn normalize_axes(axes: Option<&[usize]>, rank: usize) -> Result<Vec<usize>> {
    match axes {
        None => Ok((0..rank).collect()),
        Some(list) => {
            let mut v: Vec<usize> = list.to_vec();
            v.sort_unstable();
            v.dedup();
            if let Some(&bad) = v.iter().find(|&&a| a >= rank) {
                return Err(tensor_err!("axis {} out of range for rank {}", bad, rank));
            }
            Ok(v)
        }
    }
}

/// The shape remaining after reducing `axes` of `shape` (axes sorted).
pub fn reduced_shape(shape: &[usize], axes: &[usize], keep_dims: bool) -> Vec<usize> {
    let mut out = Vec::with_capacity(shape.len());
    for (i, &d) in shape.iter().enumerate() {
        if axes.contains(&i) {
            if keep_dims {
                out.push(1);
            }
        } else {
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 4]).unwrap(), vec![2, 4]);
        assert_eq!(broadcast_shapes(&[], &[5]).unwrap(), vec![5]);
        assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
    }

    #[test]
    fn broadcast_strides_zero_on_expanded() {
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[2, 1], &[2, 4]), vec![1, 0]);
    }

    /// Every element a walk visits, as (flat, per-operand offset).
    fn visited<const N: usize>(
        walk: &Walk<N>,
        start: usize,
        end: usize,
    ) -> Vec<(usize, [usize; N])> {
        let steps = walk.steps();
        let mut out = Vec::new();
        walk.for_each_run(start, end, |flat, len, offs| {
            for i in 0..len {
                out.push((flat + i, std::array::from_fn(|k| offs[k] + i * steps[k])));
            }
        });
        out
    }

    /// The offsets a per-element divide/modulo decomposition gives.
    fn expected<const N: usize>(
        shape: &[usize],
        strides: [&[usize]; N],
    ) -> Vec<(usize, [usize; N])> {
        let st = super::strides(shape);
        (0..num_elements(shape))
            .map(|flat| {
                let off = std::array::from_fn(|k| {
                    (0..shape.len()).map(|d| (flat / st[d]) % shape[d] * strides[k][d]).sum()
                });
                (flat, off)
            })
            .collect()
    }

    #[test]
    fn walk_collapses_contiguous_axes() {
        // same shape: one run, both operands step by one
        let w = Walk::broadcast(&[2, 3, 4], [&[2, 3, 4], &[2, 3, 4]]);
        assert_eq!((w.outer.len(), w.inner, w.steps), (0, 24, [1, 1]));
        // suffix broadcast: the bias repeats along one collapsed lead axis
        let w = Walk::broadcast(&[2, 3, 4], [&[2, 3, 4], &[4]]);
        assert_eq!((w.outer.clone(), w.inner, w.steps), (vec![(6, [4, 0])], 4, [1, 1]));
        // conv bias [o,1,1] against [b,o,h,w]: h and w collapse
        let w = Walk::broadcast(&[2, 3, 4, 5], [&[2, 3, 4, 5], &[3, 1, 1]]);
        assert_eq!(
            (w.outer.clone(), w.inner, w.steps),
            (vec![(2, [60, 0]), (3, [20, 1])], 20, [1, 0])
        );
        // scalars and all-ones shapes are one run of one element
        let w = Walk::broadcast(&[1, 1], [&[], &[1, 1]]);
        assert_eq!((w.outer.len(), w.inner, w.steps), (0, 1, [0, 0]));
    }

    #[test]
    fn walk_visits_flat_order_with_strided_offsets() {
        let shape = [2, 3, 1, 4];
        let sa = broadcast_strides(&[3, 1, 1], &shape);
        let sb = broadcast_strides(&[2, 1, 1, 4], &shape);
        // a permutation's strides are neither 0 nor contiguous
        let sp = [1, 8, 0, 2];
        let walk = Walk::new(&shape, [&sa, &sb, &sp]);
        let want = expected(&shape, [&sa, &sb, &sp]);
        assert_eq!(visited(&walk, 0, 24), want);
        // ranges that split runs and start mid-space
        for (start, end) in [(0, 0), (1, 2), (3, 11), (5, 24), (23, 24)] {
            assert_eq!(visited(&walk, start, end), want[start..end]);
        }
        // a zero-size axis leaves nothing to visit
        let empty = Walk::broadcast(&[2, 0, 3], [&[2, 0, 3], &[3]]);
        assert!(visited(&empty, 0, 0).is_empty());
    }

    #[test]
    fn reshape_wildcard() {
        assert_eq!(resolve_reshape(&[-1, 4], 12).unwrap(), vec![3, 4]);
        assert_eq!(resolve_reshape(&[2, 6], 12).unwrap(), vec![2, 6]);
        assert!(resolve_reshape(&[-1, -1], 12).is_err());
        assert!(resolve_reshape(&[5], 12).is_err());
        assert!(resolve_reshape(&[-1, 5], 12).is_err());
    }

    #[test]
    fn axes_and_reduced_shape() {
        assert_eq!(normalize_axes(None, 3).unwrap(), vec![0, 1, 2]);
        assert_eq!(normalize_axes(Some(&[2, 0, 2]), 3).unwrap(), vec![0, 2]);
        assert!(normalize_axes(Some(&[3]), 3).is_err());
        assert_eq!(reduced_shape(&[2, 3, 4], &[1], false), vec![2, 4]);
        assert_eq!(reduced_shape(&[2, 3, 4], &[1], true), vec![2, 1, 4]);
    }
}
