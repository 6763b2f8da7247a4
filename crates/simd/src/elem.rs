//! The kernel surface and the precision seam: a field element type the
//! solver's generic hot path can be instantiated over.
//!
//! [`Elem`] is implemented for exactly `f64` and `f32`, both by the one
//! `impl_elem!` macro below, which owns every kernel's length/bounds
//! asserts and the `Scalar | Avx2` dispatch. The element width a job runs
//! at is a runtime choice of the layer above (`Precision` in `claire-core`);
//! this crate only guarantees that both widths have every kernel of the
//! trait on every backend. Interpolation and FD are not among them: no path
//! runs them at f32, so they are the f64 functions at the crate root.
//!
//! Reductions return `f64` for every element width — PCG's convergence
//! logic, Armijo decisions, and reported norms stay in double even when the
//! vectors they summarize are stored in single (the mixed-precision design
//! of the companion GPU work: f32 storage + wire traffic, f64 control flow).

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use core::mem::MaybeUninit;

use crate::fft::{self, Line, Stockham};
use crate::xk;

/// A scalar field element the solver core can be generic over (f64 | f32).
///
/// The `k*` associated functions are the crate's kernels. Each asserts its
/// slice-length contract and then runs on the process-wide backend choice.
/// On the scalar backend a fused kernel is bit-identical to its unfused
/// pair run back to back (same per-element expression, same left-to-right
/// reduction order); the AVX2 arm sits under the crate's equivalence
/// contract.
pub trait Elem:
    Copy
    + Send
    + Sync
    + 'static
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Stable label for reports and bench rows (`"f64"` | `"f32"`).
    const LABEL: &'static str;

    /// Demote/convert from f64 (identity for f64).
    fn from_f64(x: f64) -> Self;
    /// Promote to f64 (exact for both widths).
    fn to_f64(self) -> f64;
    /// `self · a + b` rounded once (an FMA instruction where the caller's
    /// target features have one).
    fn fused_mul_add(self, a: Self, b: Self) -> Self;

    // ----- element-wise field kernels -------------------------------------

    /// `y[i] *= a`.
    fn kscale(a: Self, y: &mut [Self]);
    /// `y[i] += a · x[i]` (slices must have equal length).
    fn kaxpy(a: Self, x: &[Self], y: &mut [Self]);
    /// `y[i] = a · y[i] + x[i]` (slices must have equal length).
    fn kaypx(a: Self, x: &[Self], y: &mut [Self]);

    // ----- fused element-wise + reduction kernels -------------------------
    //
    // Each fuses a BLAS-1 update with the reduction the solver computes
    // right after it, turning two passes over DRAM into one.

    /// Fused `axpy` + self-dot: `y[i] += a · x[i]`, returning `Σ y'[i]²` of
    /// the *updated* values in f64 — the residual-norm half of a PCG
    /// iteration in the same pass as the residual update.
    fn kaxpy_dot(a: Self, x: &[Self], y: &mut [Self]) -> f64;
    /// Fused scaled-add into a fresh buffer + self-dot:
    /// `out[i] = a · x[i] + y[i]`, returning `Σ out[i]²` in f64. Replaces
    /// the clone-then-axpy(-then-norm) multi-pass chain (line-search trials,
    /// warm-start residuals) with a single read-read-write pass.
    fn kscale_add_norm(a: Self, x: &[Self], y: &[Self], out: &mut [Self]) -> f64;

    // ----- reductions (f64 accumulation at both widths) -------------------

    /// `Σ x[i]·y[i]` accumulated in f64. A global sum calls it once per
    /// plane row (`claire_grid::PlaneSums`), so its bits do not depend on
    /// the thread or rank count.
    fn kdot(x: &[Self], y: &[Self]) -> f64;
    /// `Σ x[i]` accumulated in f64.
    fn ksum(x: &[Self]) -> f64;
    /// `max_i |x[i]|` as f64 (0 for an empty slice, NaN if any `x[i]` is).
    fn kmax_abs(x: &[Self]) -> f64;

    // ----- interleaved complex kernels (re,im pairs) ----------------------

    /// Element-wise complex multiply `dst[j] *= src[j]` on interleaved
    /// `[re, im, re, im, …]` slices of equal even length.
    fn kcpx_mul(dst: &mut [Self], src: &[Self]);
    /// Element-wise complex multiply `out[j] = a[j] · b[j]` (interleaved).
    fn kcpx_mul_into(out: &mut [Self], a: &[Self], b: &[Self]);

    // ----- FFT: lines across lanes ----------------------------------------

    /// In-place forward (`e^{-ikx}`, unnormalized) or inverse (`1/n`
    /// included) transform of length `plan.len()` along the slow axis of an
    /// `[n][stride]` array of interleaved complex numbers, for the `cols`
    /// adjacent columns that start at `data` — one [`Stockham`] kernel call,
    /// tiles of lines across SIMD lanes. A column's result does not depend
    /// on `cols`, on its position, or on what its neighbours hold.
    ///
    /// The one `k*` method that takes a raw pointer: the columns of a slab
    /// interleave in memory, so threads that split them cannot each hold a
    /// `&mut` slice.
    ///
    /// # Safety
    /// `data` must be valid for reads and writes of
    /// `2·((n − 1)·stride + cols)` reals, and nothing else may access those
    /// `cols` columns of the `n` rows during the call.
    unsafe fn kfft_cols(
        plan: &Stockham<Self>,
        inverse: bool,
        data: *mut Self,
        stride: usize,
        cols: usize,
        scratch: &mut [MaybeUninit<Self>],
    );
    /// Batched real-to-complex transform: every `2m`-point row of `input`
    /// (`m = half.len()`) becomes a row of `m + 1` interleaved complex
    /// numbers in `out`. `w[k] = e^{-2πik/2m}`, `k = 0..=m`, interleaved.
    fn kfft_r2c(
        half: &Stockham<Self>,
        w: &[Self],
        input: &[Self],
        out: &mut [Self],
        scratch: &mut [MaybeUninit<Self>],
    );
    /// Batched complex-to-real transform, the inverse of [`Elem::kfft_r2c`]
    /// including the `1/2m`.
    fn kfft_c2r(
        half: &Stockham<Self>,
        w: &[Self],
        spec: &[Self],
        out: &mut [Self],
        scratch: &mut [MaybeUninit<Self>],
    );
}

/// Implement [`Elem`] for one width. `$avx2` names the module in
/// `crate::avx2` holding this width's FFT arms; the field ops and complex
/// products share one generic arm.
macro_rules! impl_elem {
    ($t:ty, $label:expr, $avx2:ident) => {
        impl Elem for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const LABEL: &'static str = $label;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn fused_mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }

            fn kscale(a: Self, y: &mut [Self]) {
                dispatch!(crate::avx2::scale(a, y), xk::scalar_scale(a, y))
            }
            fn kaxpy(a: Self, x: &[Self], y: &mut [Self]) {
                assert_eq!(x.len(), y.len(), "axpy length mismatch");
                dispatch!(crate::avx2::axpy(a, x, y), xk::scalar_axpy(a, x, y))
            }
            fn kaypx(a: Self, x: &[Self], y: &mut [Self]) {
                assert_eq!(x.len(), y.len(), "aypx length mismatch");
                dispatch!(crate::avx2::aypx(a, x, y), xk::scalar_aypx(a, x, y))
            }
            fn kaxpy_dot(a: Self, x: &[Self], y: &mut [Self]) -> f64 {
                assert_eq!(x.len(), y.len(), "axpy_dot length mismatch");
                dispatch!(crate::avx2::axpy_dot(a, x, y), xk::scalar_axpy_dot(a, x, y))
            }
            fn kscale_add_norm(a: Self, x: &[Self], y: &[Self], out: &mut [Self]) -> f64 {
                assert_eq!(x.len(), out.len(), "scale_add_norm length mismatch");
                assert_eq!(y.len(), out.len(), "scale_add_norm length mismatch");
                dispatch!(
                    crate::avx2::scale_add_norm(a, x, y, out),
                    xk::scalar_scale_add_norm(a, x, y, out)
                )
            }
            fn kdot(x: &[Self], y: &[Self]) -> f64 {
                assert_eq!(x.len(), y.len(), "dot length mismatch");
                dispatch!(crate::avx2::dot(x, y), xk::scalar_dot(x, y))
            }
            fn ksum(x: &[Self]) -> f64 {
                dispatch!(crate::avx2::sum(x), xk::scalar_sum(x))
            }
            fn kmax_abs(x: &[Self]) -> f64 {
                dispatch!(crate::avx2::max_abs(x), xk::scalar_max_abs(x))
            }
            fn kcpx_mul(dst: &mut [Self], src: &[Self]) {
                assert_eq!(dst.len(), src.len(), "cpx_mul length mismatch");
                assert_eq!(dst.len() % 2, 0, "cpx_mul needs interleaved re/im pairs");
                dispatch!(crate::avx2::cpx_mul(dst, src), xk::scalar_cpx_mul(dst, src))
            }
            fn kcpx_mul_into(out: &mut [Self], a: &[Self], b: &[Self]) {
                assert_eq!(out.len(), a.len(), "cpx_mul_into length mismatch");
                assert_eq!(out.len(), b.len(), "cpx_mul_into length mismatch");
                assert_eq!(out.len() % 2, 0, "cpx_mul_into needs interleaved re/im pairs");
                dispatch!(crate::avx2::cpx_mul_into(out, a, b), xk::scalar_cpx_mul_into(out, a, b))
            }
            unsafe fn kfft_cols(
                plan: &Stockham<Self>,
                inverse: bool,
                data: *mut Self,
                stride: usize,
                cols: usize,
                scratch: &mut [MaybeUninit<Self>],
            ) {
                assert!(cols <= stride, "fft_cols batch wider than the array");
                let scratch = fft::scratch_ptr(plan, cols, scratch);
                dispatch!(
                    crate::avx2::$avx2::fft_cols(plan, inverse, data, (stride, cols), scratch),
                    if inverse {
                        fft::cols::<Self, Line<Self, false>, true>(
                            plan, data, stride, cols, scratch,
                        )
                    } else {
                        fft::cols::<Self, Line<Self, false>, false>(
                            plan, data, stride, cols, scratch,
                        )
                    }
                )
            }
            fn kfft_r2c(
                half: &Stockham<Self>,
                w: &[Self],
                input: &[Self],
                out: &mut [Self],
                scratch: &mut [MaybeUninit<Self>],
            ) {
                let rows = fft::real_rows(half, w, input.len(), out.len());
                let scratch = fft::scratch_ptr(half, rows, scratch);
                let io = (input.as_ptr(), out.as_mut_ptr());
                // (on either arm: `real_rows` checked every length the kernel relies on)
                dispatch!(
                    crate::avx2::$avx2::fft_r2c(half, w.as_ptr(), io, rows, scratch),
                    // SAFETY: `real_rows` checked every length the kernel relies on.
                    unsafe {
                        fft::r2c::<Self, Line<Self, false>>(
                            half,
                            w.as_ptr(),
                            io.0,
                            io.1,
                            rows,
                            scratch,
                        )
                    }
                )
            }
            fn kfft_c2r(
                half: &Stockham<Self>,
                w: &[Self],
                spec: &[Self],
                out: &mut [Self],
                scratch: &mut [MaybeUninit<Self>],
            ) {
                let rows = fft::real_rows(half, w, out.len(), spec.len());
                let scratch = fft::scratch_ptr(half, rows, scratch);
                let io = (spec.as_ptr(), out.as_mut_ptr());
                // (on either arm: `real_rows` checked every length the kernel relies on)
                dispatch!(
                    crate::avx2::$avx2::fft_c2r(half, w.as_ptr(), io, rows, scratch),
                    // SAFETY: `real_rows` checked every length the kernel relies on.
                    unsafe {
                        fft::c2r::<Self, Line<Self, false>>(
                            half,
                            w.as_ptr(),
                            io.0,
                            io.1,
                            rows,
                            scratch,
                        )
                    }
                )
            }
        }
    };
}

impl_elem!(f64, "f64", f64k);
impl_elem!(f32, "f32", f32k);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_consts_and_conversions() {
        assert_eq!(<f64 as Elem>::LABEL, "f64");
        assert_eq!(<f32 as Elem>::LABEL, "f32");
        assert_eq!(<f32 as Elem>::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(<f64 as Elem>::from_f64(-2.25), -2.25);
    }
}
