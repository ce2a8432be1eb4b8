//! Cache-blocked, register-tiled f32 GEMM with packed panels.
//!
//! The kernel follows the classic three-level blocking scheme (Goto/BLIS):
//! the k dimension is split into `KC`-deep slabs whose B panel is packed
//! once and reused by every row block; rows are split into `ROW_BLOCK`
//! bands (the unit of parallelism) whose A panel is packed into a
//! thread-local buffer; the inner loop is an `MR x NR` register tile fed
//! from the packed panels.
//!
//! # Determinism contract
//!
//! Every output element is accumulated strictly in ascending-k order as a
//! chain of single-rounding fused multiply-adds, and each element is
//! computed wholly inside one row block whose boundaries depend only on
//! the shape. The result is a pure function of the operands: *bit-identical*
//! at any thread count and across runs. All three layout variants feed the
//! same micro-kernel in the same k order, so `NT`/`TN` are bitwise equal to
//! materialize-the-transpose-then-multiply through this kernel.
//!
//! The naive reference loops use separate multiply and add, so blocked
//! results differ from [`super::reference`] within ordinary FMA rounding;
//! the parity suite bounds the difference at 1e-4.

use std::cell::RefCell;

use crate::{pool, tensor_err, Result, Tensor};

use super::observe;

/// Operand layouts: `NN` multiplies `[m,k] x [k,n]`, `NT` multiplies
/// `[m,k] x [n,k]ᵀ`, `TN` multiplies `[k,m]ᵀ x [k,n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `a [m,k] @ b [k,n]`
    NN,
    /// `a [m,k] @ b [n,k]ᵀ`
    NT,
    /// `a [k,m]ᵀ @ b [k,n]`
    TN,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::NN => "nn",
            Layout::NT => "nt",
            Layout::TN => "tn",
        }
    }
}

// Register tile: sized so the MR x NR accumulator fits the vector register
// file. With AVX2/AVX-512 enabled (e.g. -C target-cpu=native) an 8x16 tile
// of f32 fills 8 256-bit (or 8 512-bit half-filled) registers; on the
// bare x86-64 SSE2 baseline a 4x8 tile keeps the accumulator in 8 of the
// 16 xmm registers.
#[cfg(target_feature = "avx2")]
mod tile {
    pub const MR: usize = 8;
    pub const NR: usize = 16;
}
#[cfg(not(target_feature = "avx2"))]
mod tile {
    pub const MR: usize = 4;
    pub const NR: usize = 8;
}
use tile::{MR, NR};

/// Depth of one packed k slab (A micro-panel `MR*KC` and B micro-panel
/// `NR*KC` both stay L1/L2 resident).
const KC: usize = 256;

/// Rows per parallel task; a multiple of `MR` for both tile configurations.
const ROW_BLOCK: usize = 32;

/// Below this many flops a pool dispatch costs more than it saves and the
/// work stays on the calling thread. Waking a worker on another core costs
/// tens of microseconds, so a dispatch should have a few hundred
/// microseconds of single-thread work behind it; the blocked GEMM sustains
/// 35–70 flops/ns on the hosts this was sized on, which puts 16 Mi flops at
/// 240–480 us. Shared by the GEMM row loop and conv's batch loop.
const PAR_MIN_FLOPS: usize = 16 * 1024 * 1024;

/// Whether `flops` of kernel work justify a pool dispatch.
pub(crate) fn worth_dispatch(flops: usize) -> bool {
    flops >= PAR_MIN_FLOPS && pool::current_threads() > 1
}

thread_local! {
    static APACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `f(32)`-slice GEMM entry: `c = a @ b` (or `+=` when `accumulate`).
///
/// `par` gates the internal row-block parallelism so callers that already
/// parallelise an outer loop (e.g. conv over the batch) can run the inner
/// GEMM sequentially.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f32(
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    par: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    observe::record_gemm(layout.name(), m, n, k);
    let blocks = m.div_ceil(ROW_BLOCK);
    let par = par && blocks > 1 && worth_dispatch(2 * m * n * k);
    BPACK.with(|buf| {
        let mut bpack = buf.borrow_mut();
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(layout, n, k, b, k0, kc, &mut bpack);
            let acc_this = accumulate || k0 > 0;
            let cbase = c.as_mut_ptr() as usize;
            let bpack: &[f32] = &bpack;
            let run_block = |blk: usize| {
                let i0 = blk * ROW_BLOCK;
                let rows = ROW_BLOCK.min(m - i0);
                // SAFETY: row bands are disjoint slices of `c`, and the
                // dispatch below completes before `c`'s borrow ends.
                let c_band = unsafe {
                    std::slice::from_raw_parts_mut((cbase as *mut f32).add(i0 * n), rows * n)
                };
                gemm_band(layout, a, m, k, i0, rows, n, k0, kc, bpack, c_band, acc_this);
            };
            if par {
                pool::parallel_for(blocks, &run_block);
            } else {
                for blk in 0..blocks {
                    run_block(blk);
                }
            }
            k0 += kc;
        }
    });
}

/// One `rows x n` band of C against the packed B slab.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    layout: Layout,
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    n: usize,
    k0: usize,
    kc: usize,
    bpack: &[f32],
    c_band: &mut [f32],
    accumulate: bool,
) {
    APACK.with(|buf| {
        let mut apack = buf.borrow_mut();
        pack_a(layout, a, m, k, i0, rows, k0, kc, &mut apack);
        let row_panels = rows.div_ceil(MR);
        let col_panels = n.div_ceil(NR);
        for jp in 0..col_panels {
            let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
            let j0 = jp * NR;
            let cols = NR.min(n - j0);
            for ip in 0..row_panels {
                let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                let r0 = ip * MR;
                let tile_rows = MR.min(rows - r0);
                if tile_rows == MR && cols == NR {
                    micro_kernel_direct(kc, apanel, bpanel, c_band, r0, j0, n, accumulate);
                } else {
                    let mut acc = [[0.0f32; NR]; MR];
                    load_tile(&mut acc, c_band, r0, j0, n, tile_rows, cols, accumulate);
                    micro_kernel(kc, apanel, bpanel, &mut acc);
                    store_tile(&acc, c_band, r0, j0, n, tile_rows, cols);
                }
            }
        }
    });
}

/// One accumulator row: `acc[c] = fma(av, b[c], acc[c])` across the tile
/// width. The explicit `mul_add` is deliberate: it is a single-rounding
/// fused multiply-add, deterministic for given inputs, and doubles peak
/// throughput over separate mul+add on every FMA-capable target. The
/// reference kernels use separate mul and add, so blocked results differ
/// from the naive loops within ordinary rounding (the parity suite bounds
/// this at 1e-4) — but the blocked result itself is a pure function of the
/// inputs, never of the thread count.
#[inline(always)]
fn axpy_row(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
    for (a, &bv) in acc.iter_mut().zip(brow) {
        *a = av.mul_add(bv, *a);
    }
}

/// The register tile: `acc[r][c] = fma(a[r], b[c], acc[r][c])` for each
/// packed k step, in ascending-k order.
///
/// Every accumulator row is a distinct local so the whole `MR x NR` tile
/// stays register-resident and the compiler vectorizes along the NR axis
/// (broadcast `a[r]`, wide mul/add against the packed B row). Leaving the
/// rows in an indexed array makes LLVM vectorize across *rows* instead,
/// gathering and scattering the accumulator through memory on every k step
/// — about 4x slower than the naive loops.
#[inline(always)]
#[cfg(target_feature = "avx2")]
fn micro_kernel(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] = *acc;
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        axpy_row(&mut c0, arow[0], brow);
        axpy_row(&mut c1, arow[1], brow);
        axpy_row(&mut c2, arow[2], brow);
        axpy_row(&mut c3, arow[3], brow);
        axpy_row(&mut c4, arow[4], brow);
        axpy_row(&mut c5, arow[5], brow);
        axpy_row(&mut c6, arow[6], brow);
        axpy_row(&mut c7, arow[7], brow);
    }
    *acc = [c0, c1, c2, c3, c4, c5, c6, c7];
}

/// Narrow-tile variant of [`micro_kernel`] for targets without AVX2.
#[inline(always)]
#[cfg(not(target_feature = "avx2"))]
fn micro_kernel(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let [mut c0, mut c1, mut c2, mut c3] = *acc;
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        axpy_row(&mut c0, arow[0], brow);
        axpy_row(&mut c1, arow[1], brow);
        axpy_row(&mut c2, arow[2], brow);
        axpy_row(&mut c3, arow[3], brow);
    }
    *acc = [c0, c1, c2, c3];
}

/// Reads one full accumulator row out of the C band.
#[inline(always)]
fn c_row(c_band: &[f32], start: usize) -> [f32; NR] {
    let mut r = [0.0f32; NR];
    r.copy_from_slice(&c_band[start..start + NR]);
    r
}

/// Full-tile micro-kernel operating directly on the C band: loads the tile
/// rows (or zeros), runs the k loop, and stores back — skipping the
/// intermediate accumulator array the ragged-edge path needs. Same
/// arithmetic, same order as [`micro_kernel`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
#[cfg(target_feature = "avx2")]
fn micro_kernel_direct(
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c_band: &mut [f32],
    r0: usize,
    j0: usize,
    ldc: usize,
    accumulate: bool,
) {
    let base = r0 * ldc + j0;
    let z = [0.0f32; NR];
    let (mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7) = if accumulate {
        (
            c_row(c_band, base),
            c_row(c_band, base + ldc),
            c_row(c_band, base + 2 * ldc),
            c_row(c_band, base + 3 * ldc),
            c_row(c_band, base + 4 * ldc),
            c_row(c_band, base + 5 * ldc),
            c_row(c_band, base + 6 * ldc),
            c_row(c_band, base + 7 * ldc),
        )
    } else {
        (z, z, z, z, z, z, z, z)
    };
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        axpy_row(&mut c0, arow[0], brow);
        axpy_row(&mut c1, arow[1], brow);
        axpy_row(&mut c2, arow[2], brow);
        axpy_row(&mut c3, arow[3], brow);
        axpy_row(&mut c4, arow[4], brow);
        axpy_row(&mut c5, arow[5], brow);
        axpy_row(&mut c6, arow[6], brow);
        axpy_row(&mut c7, arow[7], brow);
    }
    for (r, row) in [c0, c1, c2, c3, c4, c5, c6, c7].iter().enumerate() {
        c_band[base + r * ldc..base + r * ldc + NR].copy_from_slice(row);
    }
}

/// Narrow-tile variant of [`micro_kernel_direct`] for targets without AVX2.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
#[cfg(not(target_feature = "avx2"))]
fn micro_kernel_direct(
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c_band: &mut [f32],
    r0: usize,
    j0: usize,
    ldc: usize,
    accumulate: bool,
) {
    let base = r0 * ldc + j0;
    let z = [0.0f32; NR];
    let (mut c0, mut c1, mut c2, mut c3) = if accumulate {
        (
            c_row(c_band, base),
            c_row(c_band, base + ldc),
            c_row(c_band, base + 2 * ldc),
            c_row(c_band, base + 3 * ldc),
        )
    } else {
        (z, z, z, z)
    };
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        axpy_row(&mut c0, arow[0], brow);
        axpy_row(&mut c1, arow[1], brow);
        axpy_row(&mut c2, arow[2], brow);
        axpy_row(&mut c3, arow[3], brow);
    }
    for (r, row) in [c0, c1, c2, c3].iter().enumerate() {
        c_band[base + r * ldc..base + r * ldc + NR].copy_from_slice(row);
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn load_tile(
    acc: &mut [[f32; NR]; MR],
    c_band: &[f32],
    r0: usize,
    j0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    if accumulate {
        for r in 0..rows {
            let src = &c_band[(r0 + r) * ldc + j0..(r0 + r) * ldc + j0 + cols];
            acc[r][..cols].copy_from_slice(src);
            acc[r][cols..].fill(0.0);
        }
        for row in acc.iter_mut().take(MR).skip(rows) {
            row.fill(0.0);
        }
    } else {
        for row in acc.iter_mut() {
            row.fill(0.0);
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn store_tile(
    acc: &[[f32; NR]; MR],
    c_band: &mut [f32],
    r0: usize,
    j0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    for r in 0..rows {
        let dst = &mut c_band[(r0 + r) * ldc + j0..(r0 + r) * ldc + j0 + cols];
        dst.copy_from_slice(&acc[r][..cols]);
    }
}

/// Packs `rows` rows of A starting at `i0` into `MR`-row panels, zero
/// padding the ragged edge.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    layout: Layout,
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    let panels = rows.div_ceil(MR);
    resize_no_zero(out, panels * kc * MR);
    for ip in 0..panels {
        let base = ip * kc * MR;
        let r0 = i0 + ip * MR;
        let tile_rows = MR.min(i0 + rows - r0);
        if tile_rows < MR {
            // Ragged edge panel: the writes below leave rows
            // `tile_rows..MR` untouched, so clear stale buffer contents.
            out[base..base + kc * MR].fill(0.0);
        }
        match layout {
            Layout::NN | Layout::NT => {
                for ii in 0..tile_rows {
                    let arow = &a[(r0 + ii) * k + k0..(r0 + ii) * k + k0 + kc];
                    for (p, &v) in arow.iter().enumerate() {
                        out[base + p * MR + ii] = v;
                    }
                }
            }
            Layout::TN => {
                // a is [k, m]: row p of a holds column p of A'.
                for p in 0..kc {
                    let src = &a[(k0 + p) * m + r0..(k0 + p) * m + r0 + tile_rows];
                    out[base + p * MR..base + p * MR + tile_rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Grows or shrinks `out` to `len` without the full memset `resize` from
/// empty would do; callers overwrite every slot they read (ragged edge
/// panels are cleared explicitly).
fn resize_no_zero(out: &mut Vec<f32>, len: usize) {
    if out.len() < len {
        out.resize(len, 0.0);
    } else {
        out.truncate(len);
    }
}

/// Packs the `kc`-deep B slab into `NR`-column panels, zero padding the
/// ragged edge.
fn pack_b(layout: Layout, n: usize, k: usize, b: &[f32], k0: usize, kc: usize, out: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    resize_no_zero(out, panels * kc * NR);
    for jp in 0..panels {
        let base = jp * kc * NR;
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        if cols < NR {
            // Ragged edge panel: columns `cols..NR` are never written below.
            out[base..base + kc * NR].fill(0.0);
        }
        match layout {
            Layout::NN | Layout::TN => {
                for p in 0..kc {
                    let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + cols];
                    out[base + p * NR..base + p * NR + cols].copy_from_slice(src);
                }
            }
            Layout::NT => {
                // b is [n, k]: row j of b holds column j of B'.
                for jj in 0..cols {
                    let brow = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                    for (p, &v) in brow.iter().enumerate() {
                        out[base + p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

fn dims2(t: &Tensor, what: &str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(tensor_err!("{} requires rank-2 tensors, found {:?}", what, t.shape()));
    }
    Ok((t.shape()[0], t.shape()[1]))
}

/// Blocked `[m,k] x [k,n] -> [m,n]`.
pub fn matmul_nn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul")?;
    let (k2, n) = dims2(b, "matmul")?;
    if k != k2 {
        return Err(tensor_err!("shape mismatch in matmul: {:?} x {:?}", a.shape(), b.shape()));
    }
    let mut out = vec![0.0f32; m * n];
    gemm_f32(Layout::NN, m, n, k, a.as_f32()?, b.as_f32()?, &mut out, false, true);
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `[m,k] x [n,k]ᵀ -> [m,n]` (no transposed operand materialized).
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul_nt")?;
    let (n, k2) = dims2(b, "matmul_nt")?;
    if k != k2 {
        return Err(tensor_err!("shape mismatch in matmul_nt: {:?} x {:?}", a.shape(), b.shape()));
    }
    let mut out = vec![0.0f32; m * n];
    gemm_f32(Layout::NT, m, n, k, a.as_f32()?, b.as_f32()?, &mut out, false, true);
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `[k,m]ᵀ x [k,n] -> [m,n]` (no transposed operand materialized).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = dims2(a, "matmul_tn")?;
    let (k2, n) = dims2(b, "matmul_tn")?;
    if k != k2 {
        return Err(tensor_err!("shape mismatch in matmul_tn: {:?} x {:?}", a.shape(), b.shape()));
    }
    let mut out = vec![0.0f32; m * n];
    gemm_f32(Layout::TN, m, n, k, a.as_f32()?, b.as_f32()?, &mut out, false, true);
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn blocked_matches_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let r = matmul_nn(&a, &b).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn nt_tn_match_explicit_transpose() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, k, n) = (37, 65, 19); // ragged on purpose
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
        let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let b_full = crate::kernels::shape_ops::transpose(&bt, &[1, 0]).unwrap();
        let a_full = crate::kernels::shape_ops::transpose(&at, &[1, 0]).unwrap();
        assert_eq!(matmul_nt(&a, &bt).unwrap(), matmul_nn(&a, &b_full).unwrap());
        assert_eq!(matmul_tn(&at, &b).unwrap(), matmul_nn(&a_full, &b).unwrap());
    }

    #[test]
    fn deep_k_spans_multiple_slabs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (m, k, n) = (5, 2 * KC + 17, 7);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let blocked = matmul_nn(&a, &b).unwrap();
        let naive = crate::kernels::reference::matmul(&a, &b).unwrap();
        // FMA vs mul+add rounding: close, not bitwise.
        assert!(blocked.allclose(&naive, 1e-4));
    }

    #[test]
    fn shape_errors() {
        let a = t(vec![1.0, 2.0], &[2]);
        assert!(matmul_nn(&a, &a).is_err());
        let a2 = t(vec![1.0, 2.0], &[1, 2]);
        let b2 = t(vec![1.0, 2.0, 3.0], &[3, 1]);
        assert!(matmul_nn(&a2, &b2).is_err());
        assert!(matmul_nt(&a2, &b2).is_err());
        assert!(matmul_tn(&a2, &b2).is_err());
    }
}
