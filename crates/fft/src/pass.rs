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
//! before they read it.

use claire_grid::WsCat;
use claire_par::{par_parts, SharedSlice};

use crate::complex::{as_real, as_real_mut, CpxT};
use crate::plan::{kernel_scratch, Fft1dT};
use crate::real::RealFft1dT;
use crate::FftElem;

/// Columns a worker hands the kernel per call (a few of its tiles).
const COL_RUN: usize = 120;
/// Rows a worker hands the real kernels per call.
const ROW_RUN: usize = 64;

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
    par_parts(total / block * runs, total, |items| {
        // columns `c0 .. c0 + width` of block `item / runs`, starting at
        // complex index `at`; runs partition every block's columns, so no
        // two workers touch the same one
        let run = |item: usize| {
            let c0 = item % runs * COL_RUN;
            (item / runs * block + c0, COL_RUN.min(stride - c0))
        };
        if let Some(stages) = plan.stockham() {
            let need = stages.scratch_len(COL_RUN.min(stride)) / 2;
            let mut buf = T::cpx_pool().checkout(need, WsCat::Fft);
            for (at, width) in items.map(run) {
                let scratch = kernel_scratch(buf.spare_capacity_mut());
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

/// Row count of a real pass and the pooled scratch one worker needs:
/// kernel scratch (uninitialized spare capacity) when the row length has a
/// stage table, initialized single-line scratch otherwise.
fn row_pass<T: FftElem>(
    plan: &RealFft1dT<T>,
    real: usize,
    spec: usize,
) -> (usize, impl Fn() -> claire_grid::PoolVec<CpxT<T>> + Sync + '_) {
    assert!(real.is_multiple_of(plan.len()), "real side is not whole rows");
    let count = real / plan.len();
    assert_eq!(spec, count * plan.spectral_len(), "spectrum/row count mismatch");
    (count, move || {
        let mut buf = T::cpx_pool().checkout(plan.batch_scratch_len(ROW_RUN), WsCat::Fft);
        if plan.lanes().is_none() {
            buf.resize(plan.scratch_len(), CpxT::ZERO);
        }
        buf
    })
}

/// Real-to-complex pass: every `n`-point row of `real` becomes a row of
/// `n/2 + 1` coefficients of `spec` (`n = plan.len()`).
pub fn rows_forward<T: FftElem>(plan: &RealFft1dT<T>, real: &[T], spec: &mut [CpxT<T>]) {
    let (n, nc) = (plan.len(), plan.spectral_len());
    let (count, scratch) = row_pass(plan, real.len(), spec.len());
    let shared = SharedSlice::new(spec);
    par_parts(count.div_ceil(ROW_RUN), real.len(), |runs| {
        let mut buf = scratch();
        for run in runs {
            let (r0, r1) = (run * ROW_RUN, count.min((run + 1) * ROW_RUN));
            // SAFETY: row runs are disjoint across workers.
            let (src, dst) = (&real[r0 * n..r1 * n], unsafe { shared.slice_mut(r0 * nc..r1 * nc) });
            match plan.lanes() {
                Some((half, w)) => {
                    let scratch = kernel_scratch(buf.spare_capacity_mut());
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
    let (count, scratch) = row_pass(plan, real.len(), spec.len());
    let total = real.len();
    let shared = SharedSlice::new(real);
    par_parts(count.div_ceil(ROW_RUN), total, |runs| {
        let mut buf = scratch();
        for run in runs {
            let (r0, r1) = (run * ROW_RUN, count.min((run + 1) * ROW_RUN));
            // SAFETY: row runs are disjoint across workers.
            let (src, dst) = (&spec[r0 * nc..r1 * nc], unsafe { shared.slice_mut(r0 * n..r1 * n) });
            match plan.lanes() {
                Some((half, w)) => {
                    let scratch = kernel_scratch(buf.spare_capacity_mut());
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
