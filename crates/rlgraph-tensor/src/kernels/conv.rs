//! 2-D convolution and its two backprop kernels (NCHW / OIHW layout).
//!
//! Above a size cutoff all three kernels lower to im2col/col2im plus the
//! blocked GEMM engine in [`super::gemm`]; tiny shapes fall back to the
//! direct loops in [`super::reference`]. The dispatch depends only on the
//! problem size, and each batch image is processed wholly inside one pool
//! task, so results are deterministic and independent of the thread count.

use crate::{pool, tensor_err, Result, Tensor};

use super::gemm::{gemm_f32, worth_dispatch, Layout};
use super::{observe, reference};

pub(crate) fn conv_out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize> {
    let padded = input + 2 * padding;
    if padded < kernel {
        return Err(tensor_err!("conv kernel {} larger than padded input {}", kernel, padded));
    }
    Ok((padded - kernel) / stride + 1)
}

pub(crate) fn check(input: &Tensor, filters: &Tensor, stride: usize) -> Result<()> {
    if input.rank() != 4 {
        return Err(tensor_err!("conv2d input must be [b,c,h,w], found {:?}", input.shape()));
    }
    if filters.rank() != 4 {
        return Err(tensor_err!("conv2d filters must be [o,c,kh,kw], found {:?}", filters.shape()));
    }
    if input.shape()[1] != filters.shape()[1] {
        return Err(tensor_err!(
            "conv2d channel mismatch: input {:?} vs filters {:?}",
            input.shape(),
            filters.shape()
        ));
    }
    if stride == 0 {
        return Err(tensor_err!("conv2d stride must be positive"));
    }
    Ok(())
}

pub(crate) fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// Below this many per-image multiply-adds the direct loop beats
/// im2col+GEMM (the column buffer costs more than it saves).
const GEMM_MIN_WORK: usize = 8 * 1024;

/// Geometry of one conv problem, shared by the three kernels.
#[derive(Clone, Copy)]
struct Geom {
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    padding: usize,
}

impl Geom {
    fn resolve(input: &Tensor, filters: &Tensor, stride: usize, padding: usize) -> Result<Geom> {
        check(input, filters, stride)?;
        let (b, c, h, w) = dims4(input);
        let (o, _, kh, kw) = dims4(filters);
        let oh = conv_out_dim(h, kh, stride, padding)?;
        let ow = conv_out_dim(w, kw, stride, padding)?;
        Ok(Geom { b, c, h, w, o, kh, kw, oh, ow, stride, padding })
    }

    /// Rows of the im2col matrix: `c * kh * kw`.
    fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `oh * ow`.
    fn col_cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Per-image GEMM multiply-adds.
    fn work(&self) -> usize {
        self.o * self.col_rows() * self.col_cols()
    }

    /// Whether the batch loop is worth a pool dispatch (one task per
    /// image, each running its GEMM on the claiming thread).
    fn batch_par(&self) -> bool {
        self.b > 1 && worth_dispatch(2 * self.b * self.work())
    }

    fn check_grad(&self, grad_out: &Tensor, against: &str) -> Result<()> {
        let (gb, go, goh, gow) = dims4(grad_out);
        if gb != self.b || go != self.o || goh != self.oh || gow != self.ow {
            return Err(tensor_err!(
                "{} grad shape {:?} inconsistent with expected [{}, {}, {}, {}]",
                against,
                grad_out.shape(),
                self.b,
                self.o,
                self.oh,
                self.ow
            ));
        }
        Ok(())
    }
}

/// Writes the im2col matrix `[c*kh*kw, oh*ow]` for one `[c,h,w]` image.
fn im2col(x: &[f32], g: &Geom, col: &mut [f32]) {
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    let mut r = 0;
    for ci in 0..g.c {
        let plane = &x[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let row = &mut col[r * g.col_cols()..(r + 1) * g.col_cols()];
                for oy in 0..g.oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    let dst = &mut row[oy * g.ow..(oy + 1) * g.ow];
                    if iy < 0 || iy as usize >= g.h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[iy as usize * g.w..(iy as usize + 1) * g.w];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        *d = if ix < 0 || ix as usize >= g.w { 0.0 } else { src_row[ix as usize] };
                    }
                }
                r += 1;
            }
        }
    }
}

/// Scatter-adds a `[c*kh*kw, oh*ow]` column-gradient matrix back into one
/// `[c,h,w]` image gradient.
fn col2im(colg: &[f32], g: &Geom, img: &mut [f32]) {
    debug_assert_eq!(img.len(), g.c * g.h * g.w);
    let mut r = 0;
    for ci in 0..g.c {
        let plane = &mut img[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let row = &colg[r * g.col_cols()..(r + 1) * g.col_cols()];
                for oy in 0..g.oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy as usize >= g.h {
                        continue;
                    }
                    let dst_row = &mut plane[iy as usize * g.w..(iy as usize + 1) * g.w];
                    let src = &row[oy * g.ow..(oy + 1) * g.ow];
                    for (ox, &v) in src.iter().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix >= 0 && (ix as usize) < g.w {
                            dst_row[ix as usize] += v;
                        }
                    }
                }
                r += 1;
            }
        }
    }
}

/// Forward convolution: input `[b,c,h,w]`, filters `[o,c,kh,kw]` →
/// `[b,o,h',w']`. Dispatches between the direct loop and im2col+GEMM by
/// problem size.
pub fn conv2d(input: &Tensor, filters: &Tensor, stride: usize, padding: usize) -> Result<Tensor> {
    let g = Geom::resolve(input, filters, stride, padding)?;
    if g.work() < GEMM_MIN_WORK {
        observe::record_conv(Some(g.b * g.work()));
        return reference::conv2d(input, filters, stride, padding);
    }
    conv2d_im2col(input, filters, stride, padding)
}

/// Forward convolution via im2col + blocked GEMM (always; exported for
/// parity tests and benchmarks).
pub fn conv2d_im2col(
    input: &Tensor,
    filters: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::resolve(input, filters, stride, padding)?;
    let x = input.as_f32()?;
    let f = filters.as_f32()?;
    observe::record_conv(None);
    let mut out = vec![0.0f32; g.b * g.o * g.col_cols()];
    let image = g.c * g.h * g.w;
    let out_image = g.o * g.col_cols();
    let batch_par = g.batch_par();
    let obase = out.as_mut_ptr() as usize;
    let per_image = |bi: usize| {
        let mut col = vec![0.0f32; g.col_rows() * g.col_cols()];
        im2col(&x[bi * image..(bi + 1) * image], &g, &mut col);
        // SAFETY: per-image output slices are disjoint and `out` outlives
        // the dispatch.
        let out_b = unsafe {
            std::slice::from_raw_parts_mut((obase as *mut f32).add(bi * out_image), out_image)
        };
        // out_b [o, oh*ow] = filters [o, c*kh*kw] @ col
        gemm_f32(Layout::NN, g.o, g.col_cols(), g.col_rows(), f, &col, out_b, false, !batch_par);
    };
    if batch_par {
        pool::parallel_for(g.b, &per_image);
    } else {
        for bi in 0..g.b {
            per_image(bi);
        }
    }
    Tensor::from_vec(out, &[g.b, g.o, g.oh, g.ow])
}

/// Gradient of [`conv2d`] w.r.t. the input.
///
/// Arguments: `filters [o,c,kh,kw]`, `grad_out [b,o,h',w']`, and the
/// original input (only its shape is read).
pub fn conv2d_backprop_input(
    filters: &Tensor,
    grad_out: &Tensor,
    input_ref: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::resolve(input_ref, filters, stride, padding)?;
    if g.work() < GEMM_MIN_WORK {
        observe::record_conv(Some(g.b * g.work()));
        return reference::conv2d_backprop_input(filters, grad_out, input_ref, stride, padding);
    }
    conv2d_backprop_input_im2col(filters, grad_out, input_ref, stride, padding)
}

/// Input gradient via GEMM + col2im (always; exported for parity tests).
pub fn conv2d_backprop_input_im2col(
    filters: &Tensor,
    grad_out: &Tensor,
    input_ref: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::resolve(input_ref, filters, stride, padding)?;
    g.check_grad(grad_out, "conv2d_backprop_input")?;
    let f = filters.as_f32()?;
    let gv = grad_out.as_f32()?;
    observe::record_conv(None);
    let mut out = vec![0.0f32; g.b * g.c * g.h * g.w];
    let image = g.c * g.h * g.w;
    let out_image = g.o * g.col_cols();
    let batch_par = g.batch_par();
    let obase = out.as_mut_ptr() as usize;
    let per_image = |bi: usize| {
        // colg [c*kh*kw, oh*ow] = filters [o, c*kh*kw]ᵀ @ grad_b [o, oh*ow]
        let mut colg = vec![0.0f32; g.col_rows() * g.col_cols()];
        gemm_f32(
            Layout::TN,
            g.col_rows(),
            g.col_cols(),
            g.o,
            f,
            &gv[bi * out_image..(bi + 1) * out_image],
            &mut colg,
            false,
            !batch_par,
        );
        // SAFETY: per-image gradient slices are disjoint and `out`
        // outlives the dispatch.
        let img =
            unsafe { std::slice::from_raw_parts_mut((obase as *mut f32).add(bi * image), image) };
        col2im(&colg, &g, img);
    };
    if batch_par {
        pool::parallel_for(g.b, &per_image);
    } else {
        for bi in 0..g.b {
            per_image(bi);
        }
    }
    Tensor::from_vec(out, &[g.b, g.c, g.h, g.w])
}

/// Gradient of [`conv2d`] w.r.t. the filters.
///
/// Arguments: `input [b,c,h,w]`, `grad_out [b,o,h',w']`, and the original
/// filters (only their shape is read).
pub fn conv2d_backprop_filter(
    input: &Tensor,
    grad_out: &Tensor,
    filter_ref: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::resolve(input, filter_ref, stride, padding)?;
    if g.work() < GEMM_MIN_WORK {
        observe::record_conv(Some(g.b * g.work()));
        return reference::conv2d_backprop_filter(input, grad_out, filter_ref, stride, padding);
    }
    conv2d_backprop_filter_im2col(input, grad_out, filter_ref, stride, padding)
}

/// Filter gradient via im2col + GEMM (always; exported for parity tests).
///
/// Batches accumulate sequentially in ascending batch order, so the result
/// is independent of the thread count (row blocks inside the GEMM are
/// disjoint).
pub fn conv2d_backprop_filter_im2col(
    input: &Tensor,
    grad_out: &Tensor,
    filter_ref: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::resolve(input, filter_ref, stride, padding)?;
    g.check_grad(grad_out, "conv2d_backprop_filter")?;
    let x = input.as_f32()?;
    let gv = grad_out.as_f32()?;
    observe::record_conv(None);
    let mut gf = vec![0.0f32; g.o * g.col_rows()];
    let image = g.c * g.h * g.w;
    let out_image = g.o * g.col_cols();
    let mut col = vec![0.0f32; g.col_rows() * g.col_cols()];
    for bi in 0..g.b {
        im2col(&x[bi * image..(bi + 1) * image], &g, &mut col);
        // gf [o, c*kh*kw] += grad_b [o, oh*ow] @ col [c*kh*kw, oh*ow]ᵀ
        gemm_f32(
            Layout::NT,
            g.o,
            g.col_rows(),
            g.col_cols(),
            &gv[bi * out_image..(bi + 1) * out_image],
            &col,
            &mut gf,
            bi > 0,
            true,
        );
    }
    Tensor::from_vec(gf, &[g.o, g.c, g.kh, g.kw])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel() {
        // 1x1 kernel of value 1 reproduces the input.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let f = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let y = conv2d(&x, &f, 1, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.as_f32().unwrap(), x.as_f32().unwrap());
    }

    #[test]
    fn box_filter() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let f = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d(&x, &f, 1, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_f32().unwrap(), &[4.0; 4]);
    }

    #[test]
    fn stride_and_padding() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let f = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d(&x, &f, 2, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let yp = conv2d(&x, &f, 1, 1).unwrap();
        assert_eq!(yp.shape(), &[1, 1, 5, 5]);
        // corner sees only one input element
        assert_eq!(yp.get_f32(&[0, 0, 0, 0]).unwrap(), 1.0);
        // interior sees four
        assert_eq!(yp.get_f32(&[0, 0, 2, 2]).unwrap(), 4.0);
    }

    #[test]
    fn multi_channel_sum() {
        // 2 input channels, each filter sums both channels.
        let x = Tensor::from_vec(vec![1.0; 2 * 2 * 2], &[1, 2, 2, 2]).unwrap();
        let f = Tensor::from_vec(vec![1.0; 2], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &f, 1, 0).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[2.0; 4]);
    }

    #[test]
    fn shape_checks() {
        let x3 = Tensor::ones(&[1, 2, 2]);
        let f = Tensor::ones(&[1, 1, 1, 1]);
        assert!(conv2d(&x3, &f, 1, 0).is_err());
        let x = Tensor::ones(&[1, 2, 2, 2]);
        assert!(conv2d(&x, &f, 1, 0).is_err()); // channel mismatch
        let f2 = Tensor::ones(&[1, 2, 1, 1]);
        assert!(conv2d(&x, &f2, 0, 0).is_err()); // zero stride
        let fbig = Tensor::ones(&[1, 2, 5, 5]);
        assert!(conv2d(&x, &fbig, 1, 0).is_err()); // kernel too large
    }

    #[test]
    fn im2col_path_matches_direct() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let x = Tensor::rand_uniform(&[2, 3, 6, 5], -1.0, 1.0, &mut rng);
        let f = Tensor::rand_uniform(&[4, 3, 3, 2], -1.0, 1.0, &mut rng);
        for (stride, padding) in [(1, 0), (1, 1), (2, 1), (2, 2)] {
            let direct = reference::conv2d(&x, &f, stride, padding).unwrap();
            let lowered = conv2d_im2col(&x, &f, stride, padding).unwrap();
            assert!(lowered.allclose(&direct, 1e-4), "stride {} pad {}", stride, padding);
            let g = Tensor::ones(direct.shape());
            let gi_d = reference::conv2d_backprop_input(&f, &g, &x, stride, padding).unwrap();
            let gi_l = conv2d_backprop_input_im2col(&f, &g, &x, stride, padding).unwrap();
            assert!(gi_l.allclose(&gi_d, 1e-4));
            let gf_d = reference::conv2d_backprop_filter(&x, &g, &f, stride, padding).unwrap();
            let gf_l = conv2d_backprop_filter_im2col(&x, &g, &f, stride, padding).unwrap();
            assert!(gf_l.allclose(&gf_d, 1e-4));
        }
    }

    /// Finite-difference check of both backprop kernels.
    #[test]
    fn backprops_match_finite_difference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let f = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let (stride, padding) = (1, 1);
        let y = conv2d(&x, &f, stride, padding).unwrap();
        // Loss = sum(y); so grad_out = ones.
        let g = Tensor::ones(y.shape());
        let gx = conv2d_backprop_input(&f, &g, &x, stride, padding).unwrap();
        let gf = conv2d_backprop_filter(&x, &g, &f, stride, padding).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, f: &Tensor| -> f32 {
            conv2d(x, f, stride, padding).unwrap().as_f32().unwrap().iter().sum()
        };
        // Spot-check a few coordinates of each gradient.
        for idx in [0usize, 7, 31] {
            let mut xp = x.clone();
            xp.as_f32_mut().unwrap()[idx] += eps;
            let num = (loss(&xp, &f) - loss(&x, &f)) / eps;
            let ana = gx.as_f32().unwrap()[idx];
            assert!((num - ana).abs() < 0.05, "input grad {}: {} vs {}", idx, num, ana);
        }
        for idx in [0usize, 5, 23] {
            let mut fp = f.clone();
            fp.as_f32_mut().unwrap()[idx] += eps;
            let num = (loss(&x, &fp) - loss(&x, &f)) / eps;
            let ana = gf.as_f32().unwrap()[idx];
            assert!((num - ana).abs() < 0.05, "filter grad {}: {} vs {}", idx, num, ana);
        }
    }
}
