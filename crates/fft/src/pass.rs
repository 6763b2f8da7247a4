//! The three batched passes of the 3-D transform, shared by the serial and
//! the distributed plan.
//!
//! Each pass is a batch of independent 1-D transforms of lines that sit
//! next to each other in memory, which is what the lanes kernel
//! ([`claire_simd::Stockham`]) wants: the x2 pass sees each `[n2][n3c]`
//! plane, the x1 pass the whole `[n1][nj·n3c]` slab, as an `[n][stride]`
//! block to transform along its slow axis, and the x3 pass sees rows. Like
//! cuFFT's batched plans, a pass is split across worker threads via
//! `claire-par`, by run of columns or of rows; a line's bits depend on
//! neither the split nor its neighbours. A non-smooth axis length has no
//! stage table: its lines go through the 1-D plan (Bluestein) one by one.
//! Kernel scratch is pooled and never zero-filled — the kernels write it
//! before they read it — and starts on a cache line wherever the heap put
//! the buffer.

use std::mem::MaybeUninit;

use claire_grid::{PoolVec, WsCat};
use claire_par::{par_split, Rows, SharedSlice};

use crate::complex::{as_real, as_real_mut, CpxT};
use crate::plan::{kernel_scratch, Fft1dT};
use crate::real::RealFft1dT;
use crate::FftElem;

/// Columns a worker hands the kernel per call (a few of its tiles).
const COL_RUN: usize = 120;
/// Rows a worker hands the real kernels per call.
const ROW_RUN: usize = 64;
/// Complex slots a kernel-scratch checkout takes beyond what the kernel
/// needs, so that [`line_scratch`] can start it on a cache line (64 bytes:
/// at most 7 slots of `f32` pairs away).
const LINE_SLACK: usize = 8;

/// The spare capacity of `buf`, from its first 64-byte boundary on, as
/// kernel scratch. Where a pooled buffer starts inside a cache line depends
/// on the heap's history; a scratch that straddles lines made a 40×32×24
/// InvH0 solve (mostly FFT) about 10 % slower on an AVX2 host.
fn line_scratch<T: FftElem>(buf: &mut PoolVec<CpxT<T>>) -> &mut [MaybeUninit<T>] {
    let spare = buf.spare_capacity_mut();
    let skip = spare.as_ptr().align_offset(64);
    kernel_scratch(&mut spare[if skip < LINE_SLACK { skip } else { 0 }..])
}

/// Transform every column of each `[n][stride]` block of `data` along the
/// slow axis, in place (`n = plan.len()`, `data.len()` a multiple of
/// `n·stride`): forward unnormalized, inverse with the `1/n`.
pub fn cols<T: FftElem>(plan: &Fft1dT<T>, inverse: bool, data: &mut [CpxT<T>], stride: usize) {
    let n = plan.len();
    let block = n * stride;
    assert!(block > 0 && data.len().is_multiple_of(block), "data is not whole [n][stride] blocks");
    let runs = stride.div_ceil(COL_RUN);
    let total = data.len();
    let shared = SharedSlice::new(as_real_mut(data));
    par_split(total / block * runs, total, (), |items, ()| {
        // columns `c0 .. c0 + width` of block `item / runs`, starting at
        // complex index `at`; runs partition every block's columns, so no
        // two workers touch the same one
        let run = |item: usize| {
            let c0 = item % runs * COL_RUN;
            (item / runs * block + c0, COL_RUN.min(stride - c0))
        };
        if let Some(stages) = plan.stockham() {
            let need = stages.scratch_len(COL_RUN.min(stride)) / 2;
            let mut buf = T::cpx_pool().checkout(need + LINE_SLACK, WsCat::Fft);
            for (at, width) in items.map(run) {
                let scratch = line_scratch(&mut buf);
                // SAFETY: this worker owns the run, and it lies inside `data`.
                unsafe {
                    let first = shared.as_mut_ptr().add(2 * at);
                    T::kfft_cols(stages, inverse, first, stride, width, scratch)
                }
            }
            return;
        }
        let mut buf = T::cpx_pool().checkout_filled(n + plan.scratch_len(), CpxT::ZERO, WsCat::Fft);
        let (line, scratch) = buf.split_at_mut(n);
        for (at, width) in items.map(run) {
            for c in at..at + width {
                let cell = |i: usize| 2 * (c + i * stride);
                // SAFETY: this worker owns column `c`.
                unsafe {
                    for (i, z) in line.iter_mut().enumerate() {
                        *z = CpxT::new(shared.read(cell(i)), shared.read(cell(i) + 1));
                    }
                    if inverse {
                        plan.inverse(line, scratch);
                    } else {
                        plan.forward(line, scratch);
                    }
                    for (i, z) in line.iter().enumerate() {
                        shared.write(cell(i), z.re);
                        shared.write(cell(i) + 1, z.im);
                    }
                }
            }
        }
    });
}

/// Row count of a real pass over `real` reals and `spec` coefficients.
fn row_count<T: FftElem>(plan: &RealFft1dT<T>, real: usize, spec: usize) -> usize {
    assert!(real.is_multiple_of(plan.len()), "real side is not whole rows");
    assert_eq!(spec, real / plan.len() * plan.spectral_len(), "spectrum/row count mismatch");
    real / plan.len()
}

/// The pooled scratch one worker of a real pass needs: kernel scratch
/// (uninitialized spare capacity) when the row length has a stage table,
/// initialized single-line scratch otherwise.
fn row_scratch<T: FftElem>(plan: &RealFft1dT<T>) -> PoolVec<CpxT<T>> {
    let mut buf = T::cpx_pool().checkout(plan.batch_scratch_len(ROW_RUN) + LINE_SLACK, WsCat::Fft);
    if plan.lanes().is_none() {
        buf.resize(plan.scratch_len(), CpxT::ZERO);
    }
    buf
}

/// Real-to-complex pass: every `n`-point row of `real` becomes a row of
/// `n/2 + 1` coefficients of `spec` (`n = plan.len()`).
pub fn rows_forward<T: FftElem>(plan: &RealFft1dT<T>, real: &[T], spec: &mut [CpxT<T>]) {
    let (n, nc) = (plan.len(), plan.spectral_len());
    let count = row_count(plan, real.len(), spec.len());
    let out = Rows(spec, ROW_RUN * nc);
    par_split(count.div_ceil(ROW_RUN), real.len(), out, |runs, Rows(spec, _)| {
        let mut buf = row_scratch(plan);
        for (run, dst) in runs.zip(spec.chunks_mut(ROW_RUN * nc)) {
            let (r0, r1) = (run * ROW_RUN, count.min((run + 1) * ROW_RUN));
            let src = &real[r0 * n..r1 * n];
            match plan.lanes() {
                Some((half, w)) => {
                    let scratch = line_scratch(&mut buf);
                    T::kfft_r2c(half, w, src, as_real_mut(dst), scratch)
                }
                None => {
                    for (row, out) in src.chunks_exact(n).zip(dst.chunks_exact_mut(nc)) {
                        plan.forward(row, out, &mut buf);
                    }
                }
            }
        }
    });
}

/// Complex-to-real pass, the inverse of [`rows_forward`] with the `1/n`.
pub fn rows_inverse<T: FftElem>(plan: &RealFft1dT<T>, spec: &[CpxT<T>], real: &mut [T]) {
    let (n, nc) = (plan.len(), plan.spectral_len());
    let count = row_count(plan, real.len(), spec.len());
    let total = real.len();
    par_split(count.div_ceil(ROW_RUN), total, Rows(real, ROW_RUN * n), |runs, Rows(real, _)| {
        let mut buf = row_scratch(plan);
        for (run, dst) in runs.zip(real.chunks_mut(ROW_RUN * n)) {
            let (r0, r1) = (run * ROW_RUN, count.min((run + 1) * ROW_RUN));
            let src = &spec[r0 * nc..r1 * nc];
            match plan.lanes() {
                Some((half, w)) => {
                    let scratch = line_scratch(&mut buf);
                    T::kfft_c2r(half, w, as_real(src), dst, scratch)
                }
                None => {
                    for (row, out) in src.chunks_exact(nc).zip(dst.chunks_exact_mut(n)) {
                        plan.inverse(row, out, &mut buf);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cpx;
    use crate::plan::dft_naive;
    use claire_grid::Real;
    use claire_simd::Stockham;
    use std::mem::MaybeUninit;

    /// Tile width of the complex passes.
    const B: usize = Stockham::<Real>::TILE;

    fn noise(i: usize) -> f64 {
        ((i * 7919 + 13) % 2003) as f64 / 1001.5 - 1.0
    }

    /// Run the lanes kernel on the first `cols` columns of an
    /// `[n][stride]` array of `noise`.
    fn kernel_cols<T: FftElem>(n: usize, inverse: bool, cols: usize, stride: usize) -> Vec<T> {
        let plan = Stockham::<T>::new(n).unwrap();
        let mut data: Vec<T> = (0..2 * n * stride).map(|i| T::from_f64(noise(i))).collect();
        let mut scratch = vec![MaybeUninit::uninit(); plan.scratch_len(cols)];
        // SAFETY: `data` is the whole array and `cols <= stride`.
        unsafe { T::kfft_cols(&plan, inverse, data.as_mut_ptr(), stride, cols, &mut scratch) };
        data
    }

    /// The accuracy contract of the complex pass at width `T`: every
    /// column within `tol` of the O(n²) DFT relative to the largest output,
    /// both directions, and the padding columns untouched.
    fn cols_against_naive<T: FftElem>(n: usize, cols: usize, tol: f64) {
        let stride = cols + 3;
        for inverse in [false, true] {
            let got = kernel_cols::<T>(n, inverse, cols, stride);
            for c in 0..stride {
                let at = |r: usize| 2 * (r * stride + c);
                let line: Vec<Cpx> = (0..n)
                    .map(|r| {
                        CpxT::<T>::new(T::from_f64(noise(at(r))), T::from_f64(noise(at(r) + 1)))
                            .cast()
                    })
                    .collect();
                let mut want = dft_naive(&line, if inverse { 1.0 } else { -1.0 });
                if inverse {
                    want.iter_mut().for_each(|z| *z = z.scale(1.0 / n as Real));
                }
                if c >= cols {
                    want = line;
                }
                let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
                for (r, w) in want.iter().enumerate() {
                    let z = Cpx::new(got[at(r)].to_f64(), got[at(r) + 1].to_f64());
                    let bound = if c < cols { tol * scale } else { 0.0 };
                    assert!(
                        (z - *w).abs() <= bound,
                        "{} n={n} cols={cols} inverse={inverse} column {c} row {r}: {z:?} vs {w:?}",
                        T::LABEL
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_kernel_matches_naive_at_both_widths() {
        let smooth = (2..=128).chain([300]).filter(|&n| Stockham::<Real>::new(n).is_some());
        for n in smooth {
            for cols in [1, B - 1, B, B + 1, 3 * B + 5] {
                cols_against_naive::<f64>(n, cols, 1e-12);
                cols_against_naive::<f32>(n, cols, 1e-5);
            }
        }
    }

    /// A column's output bits depend on the column alone: not on how many
    /// columns travel with it, where it sits in its tile, or which tile it
    /// falls in.
    fn column_bits_are_position_free<T: FftElem>(n: usize) {
        let wide = 3 * B + 5;
        for inverse in [false, true] {
            let all = kernel_cols::<T>(n, inverse, wide, wide);
            // the same columns as (a) one-column batches, (b) batches that
            // start elsewhere, so tile and register boundaries move
            for (c0, cols) in
                [(0, 1), (B - 1, 1), (wide - 1, 1), (3, B), (B + 2, 2 * B + 1), (7, 2)]
            {
                let plan = Stockham::<T>::new(n).unwrap();
                let mut data: Vec<T> = (0..2 * n * wide).map(|i| T::from_f64(noise(i))).collect();
                let mut scratch = vec![MaybeUninit::uninit(); plan.scratch_len(cols)];
                // SAFETY: columns `c0 .. c0 + cols` lie inside the array.
                unsafe {
                    let first = data.as_mut_ptr().add(2 * c0);
                    T::kfft_cols(&plan, inverse, first, wide, cols, &mut scratch)
                };
                for r in 0..n {
                    let row = 2 * (r * wide + c0)..2 * (r * wide + c0 + cols);
                    assert!(
                        data[row.clone()] == all[row],
                        "{} n={n} inverse={inverse}: columns {c0}+{cols} changed bits at row {r}",
                        T::LABEL
                    );
                }
            }
        }
    }

    #[test]
    fn column_bits_do_not_depend_on_the_batch() {
        for n in [4, 6, 40, 64, 75] {
            column_bits_are_position_free::<f64>(n);
            column_bits_are_position_free::<f32>(n);
        }
    }

    /// The batched real passes against the O(n²) DFT, over row counts that
    /// are not multiples of any tile (and row lengths with and without a
    /// stage table).
    fn rows_against_naive<T: FftElem>(n: usize, rows: usize, tol: f64) {
        let plan = RealFft1dT::<T>::new(n);
        let real: Vec<T> = (0..rows * n).map(|i| T::from_f64(noise(i))).collect();
        let mut spec = vec![CpxT::<T>::ZERO; rows * plan.spectral_len()];
        rows_forward(&plan, &real, &mut spec);
        for (row, got) in real.chunks_exact(n).zip(spec.chunks_exact(n / 2 + 1)) {
            let line: Vec<Cpx> = row.iter().map(|&x| Cpx::real(x.to_f64())).collect();
            let want = dft_naive(&line, -1.0);
            let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
            for (k, (z, w)) in got.iter().zip(&want).enumerate() {
                let d = (z.cast::<Real>() - *w).abs();
                assert!(
                    d <= tol * scale,
                    "{} r2c n={n} rows={rows} k={k}: {z:?} vs {w:?}",
                    T::LABEL
                );
            }
        }
        let mut back = vec![T::ZERO; real.len()];
        rows_inverse(&plan, &spec, &mut back);
        for (i, (a, b)) in back.iter().zip(&real).enumerate() {
            let d = (a.to_f64() - b.to_f64()).abs();
            assert!(d <= 4.0 * tol, "{} c2r n={n} rows={rows} at {i}: {a} vs {b}", T::LABEL);
        }
    }

    #[test]
    fn real_passes_match_naive_at_both_widths() {
        for n in (2..=64).step_by(2) {
            for rows in [1, 3, 7, 13, 37, 131] {
                rows_against_naive::<f64>(n, rows, 1e-12);
                rows_against_naive::<f32>(n, rows, 1e-5);
            }
        }
    }
}
