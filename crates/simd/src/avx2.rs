//! AVX2+FMA arms of the [`crate::Elem`] kernels.
//!
//! Every function is compiled with `#[target_feature(enable = "avx2,fma")]`
//! and must only be called after runtime detection (the dispatcher in
//! `elem.rs` guarantees this).
//!
//! The default arm of a kernel is its generic `xk` body instantiated under
//! the feature gate — the bodies are `#[inline(always)]`, so the
//! autovectorizer emits full-width code for either element width. The
//! kernels that do this at both widths are the generic functions at the
//! top of this file: element-wise and complex-product kernels reuse the
//! `scalar_*` body (same bits, measured at parity with a chunked form),
//! reductions the 8-lane `wide_*` one. The butterfly/FD/interpolation
//! kernels differ per width and live in [`f32k`] (generic bodies again)
//! and [`f64k`] (intrinsics; the batched interpolation loop is the generic
//! body there too, with an intrinsic [`xk::CubicArm`] plugged in).

use crate::{xk, Elem};

/// Instantiate an `xk` body under the AVX2+FMA feature gate.
macro_rules! gate {
    ($name:ident$(<$g:ident>)?, $body:ident, ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        /// The host must support AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $name$(<$g: Elem>)?($($arg: $ty),*) $(-> $ret)? {
            xk::$body($($arg),*)
        }
    };
}

gate!(scale<T>, scalar_scale, (a: T, y: &mut [T]));
gate!(axpy<T>, scalar_axpy, (a: T, x: &[T], y: &mut [T]));
gate!(aypx<T>, scalar_aypx, (a: T, x: &[T], y: &mut [T]));
gate!(add_scaled_product<T>, scalar_add_scaled_product, (a: T, x: &[T], y: &[T], s: &mut [T]));
gate!(axpy_dot<T>, wide_axpy_dot, (a: T, x: &[T], y: &mut [T]) -> f64);
gate!(aypx_norm2<T>, wide_aypx_norm2, (a: T, x: &[T], y: &mut [T]) -> f64);
gate!(scale_add_norm<T>, wide_scale_add_norm, (a: T, x: &[T], y: &[T], out: &mut [T]) -> f64);
gate!(dot<T>, wide_dot, (x: &[T], y: &[T]) -> f64);
gate!(sum<T>, wide_sum, (x: &[T]) -> f64);
gate!(max_abs<T>, wide_max_abs, (x: &[T]) -> f64);
gate!(cpx_mul<T>, scalar_cpx_mul, (dst: &mut [T], src: &[T]));
gate!(cpx_mul_into<T>, scalar_cpx_mul_into, (out: &mut [T], a: &[T], b: &[T]));
gate!(cpx_conj<T>, scalar_cpx_conj, (data: &mut [T]));
gate!(cpx_conj_scale<T>, scalar_cpx_conj_scale, (data: &mut [T], s: T));

pub mod f32k {
    use crate::xk::{self, HaloDims, RowDotArm, Stencil};

    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn interp_sites<const NF: usize, S: FnMut(usize, [f32; NF])>(
        stencil: Stencil,
        dims: &HaloDims,
        fields: &[&[f32]; NF],
        sites: &[[f32; 3]],
        sink: S,
    ) {
        xk::interp_sites(RowDotArm, stencil, dims, fields, sites, sink)
    }

    gate!(fd8_combine_scale, scalar_fd8_combine_scale,
        (out: &mut [f32], plus: &[&[f32]; 4], minus: &[&[f32]; 4], c: &[f32; 4], inv_h: f32, s: f32));
    gate!(cpx_radix2_combine, scalar_cpx_radix2_combine,
        (lo: &mut [f32], hi: &mut [f32], tw: &[f32], ws: usize));
}

/// The f64 kernels where a hand-written intrinsic measured ≥ 1.2× faster
/// than the generic body under the same feature gate (DESIGN.md §13 has
/// the table); for interpolation that is the cubic stencil's [`f64k::FmaArm`]
/// (weights + 64-tap accumulation) inside the shared batched site loop.
/// These carry the FFT, FD and interpolation time of an f64 solve.
///
/// # Safety
/// Every function here requires AVX2 and FMA on the host. The raw-pointer
/// loads and stores stay inside the argument slices: the dispatching
/// `Elem` method has already asserted the length/bounds contract each
/// kernel documents, and every loop bounds its index by a slice length.
pub mod f64k {
    use core::arch::x86_64::*;

    use crate::xk::{self, CubicArm, HaloDims, Stencil};

    #[target_feature(enable = "avx2,fma")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        let on = -1i64;
        match rem {
            1 => _mm256_setr_epi64x(on, 0, 0, 0),
            2 => _mm256_setr_epi64x(on, on, 0, 0),
            _ => _mm256_setr_epi64x(on, on, on, 0),
        }
    }

    /// Fixed-shape horizontal sum: `(l0 + l2) + (l1 + l3)`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    // ----- 8th-order FD stencil ----------------------------------------------

    /// `inv_h·s` is broadcast once, so the folded scale is free.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fd8_combine_scale(
        out: &mut [f64],
        plus: &[&[f64]; 4],
        minus: &[&[f64]; 4],
        c: &[f64; 4],
        inv_h: f64,
        s: f64,
    ) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let pp: [*const f64; 4] =
            [plus[0].as_ptr(), plus[1].as_ptr(), plus[2].as_ptr(), plus[3].as_ptr()];
        let pm: [*const f64; 4] =
            [minus[0].as_ptr(), minus[1].as_ptr(), minus[2].as_ptr(), minus[3].as_ptr()];
        let cv: [__m256d; 4] = [
            _mm256_set1_pd(c[0]),
            _mm256_set1_pd(c[1]),
            _mm256_set1_pd(c[2]),
            _mm256_set1_pd(c[3]),
        ];
        let ih = _mm256_set1_pd(inv_h * s);
        let mut i = 0;
        while i + 4 <= n {
            let mut acc = _mm256_mul_pd(
                cv[0],
                _mm256_sub_pd(_mm256_loadu_pd(pp[0].add(i)), _mm256_loadu_pd(pm[0].add(i))),
            );
            acc = _mm256_fmadd_pd(
                cv[1],
                _mm256_sub_pd(_mm256_loadu_pd(pp[1].add(i)), _mm256_loadu_pd(pm[1].add(i))),
                acc,
            );
            acc = _mm256_fmadd_pd(
                cv[2],
                _mm256_sub_pd(_mm256_loadu_pd(pp[2].add(i)), _mm256_loadu_pd(pm[2].add(i))),
                acc,
            );
            acc = _mm256_fmadd_pd(
                cv[3],
                _mm256_sub_pd(_mm256_loadu_pd(pp[3].add(i)), _mm256_loadu_pd(pm[3].add(i))),
                acc,
            );
            _mm256_storeu_pd(po.add(i), _mm256_mul_pd(acc, ih));
            i += 4;
        }
        if i < n {
            let m = tail_mask(n - i);
            let mut acc = _mm256_mul_pd(
                cv[0],
                _mm256_sub_pd(
                    _mm256_maskload_pd(pp[0].add(i), m),
                    _mm256_maskload_pd(pm[0].add(i), m),
                ),
            );
            for j in 1..4 {
                acc = _mm256_fmadd_pd(
                    cv[j],
                    _mm256_sub_pd(
                        _mm256_maskload_pd(pp[j].add(i), m),
                        _mm256_maskload_pd(pm[j].add(i), m),
                    ),
                    acc,
                );
            }
            _mm256_maskstore_pd(po.add(i), m, _mm256_mul_pd(acc, ih));
        }
    }

    // ----- scattered interpolation -------------------------------------------

    /// The f64 arm of the cubic stencil: four Lagrange weights in one
    /// vector, and the 64 taps as sixteen 4-lane FMAs per field against the
    /// shared `w1[a]·w2[b]·w3` vector, folded by [`hsum`].
    #[derive(Clone, Copy)]
    pub(crate) struct FmaArm(());

    impl FmaArm {
        /// # Safety
        /// The host must support AVX2 and FMA.
        unsafe fn new() -> FmaArm {
            FmaArm(())
        }
    }

    impl CubicArm<f64> for FmaArm {
        #[inline(always)]
        fn lagrange(self, t: f64) -> [f64; 4] {
            let t1 = t - 1.0;
            let t2 = t - 2.0;
            let tp = t + 1.0;
            let mut out = [0.0f64; 4];
            // SAFETY: an `FmaArm` only exists on a host with AVX2 (`new`);
            // the store writes the four lanes into the four-element array.
            unsafe {
                let v1 = _mm256_setr_pd(-t, tp, -tp, tp);
                let v2 = _mm256_setr_pd(t1, t1, t, t);
                let v3 = _mm256_setr_pd(t2, t2, t2, t1);
                let d = _mm256_setr_pd(1.0 / 6.0, 0.5, 0.5, 1.0 / 6.0);
                let w = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(v1, v2), v3), d);
                _mm256_storeu_pd(out.as_mut_ptr(), w);
            }
            out
        }

        #[inline(always)]
        fn accumulate<const NF: usize>(
            self,
            fields: &[&[f64]; NF],
            base: usize,
            ps: usize,
            rs: usize,
            w: &[[f64; 4]; 3],
        ) -> [f64; NF] {
            let last = base + 3 * ps + 3 * rs;
            for f in fields {
                assert!(last + 4 <= f.len(), "cubic support out of bounds");
            }
            // SAFETY: an `FmaArm` only exists on a host with AVX2 and FMA
            // (`new`). Every load reads 4 values at `base + a·ps + b·rs`
            // with `a, b ≤ 3`, which ends at or before `last + 4`, checked
            // against each field's length just above.
            unsafe {
                let w3v = _mm256_loadu_pd(w[2].as_ptr());
                let mut acc = [_mm256_setzero_pd(); NF];
                for (a, &wa) in w[0].iter().enumerate() {
                    for (b, &wb) in w[1].iter().enumerate() {
                        let at = base + a * ps + b * rs;
                        let wv = _mm256_mul_pd(_mm256_set1_pd(wa * wb), w3v);
                        for (s, f) in acc.iter_mut().zip(fields) {
                            *s = _mm256_fmadd_pd(_mm256_loadu_pd(f.as_ptr().add(at)), wv, *s);
                        }
                    }
                }
                let mut out = [0.0f64; NF];
                for (o, &s) in out.iter_mut().zip(&acc) {
                    *o = hsum(s);
                }
                out
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn interp_sites<const NF: usize, S: FnMut(usize, [f64; NF])>(
        stencil: Stencil,
        dims: &HaloDims,
        fields: &[&[f64]; NF],
        sites: &[[f64; 3]],
        sink: S,
    ) {
        xk::interp_sites(FmaArm::new(), stencil, dims, fields, sites, sink)
    }

    // ----- interleaved complex kernels ---------------------------------------

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cpx_radix2_combine(lo: &mut [f64], hi: &mut [f64], tw: &[f64], ws: usize) {
        let m = lo.len() / 2;
        let pl = lo.as_mut_ptr();
        let ph = hi.as_mut_ptr();
        let pt = tw.as_ptr();
        let mut k = 0;
        while k + 2 <= m {
            // two twiddles, strided in the global table: w_k and w_{k+1}
            let w0 = _mm_loadu_pd(pt.add(2 * k * ws));
            let w1 = _mm_loadu_pd(pt.add(2 * (k + 1) * ws));
            let w = _mm256_set_m128d(w1, w0);
            let t0 = _mm256_loadu_pd(pl.add(2 * k));
            let t1 = _mm256_loadu_pd(ph.add(2 * k));
            // x = w·t1 on packed pairs: even lanes get `re`, odd lanes `im`
            let tr = _mm256_movedup_pd(t1); // [t0.re, t0.re, t1.re, t1.re]
            let ti = _mm256_permute_pd(t1, 0xF); // [t0.im, t0.im, t1.im, t1.im]
            let wsw = _mm256_permute_pd(w, 0x5); // [w0.im, w0.re, w1.im, w1.re]
            let x = _mm256_fmaddsub_pd(w, tr, _mm256_mul_pd(wsw, ti));
            _mm256_storeu_pd(pl.add(2 * k), _mm256_add_pd(t0, x));
            _mm256_storeu_pd(ph.add(2 * k), _mm256_sub_pd(t0, x));
            k += 2;
        }
        if k < m {
            let (wr, wi) = (tw[2 * k * ws], tw[2 * k * ws + 1]);
            let (t0r, t0i) = (lo[2 * k], lo[2 * k + 1]);
            let (t1r, t1i) = (hi[2 * k], hi[2 * k + 1]);
            let xr = wr * t1r - wi * t1i;
            let xi = wr * t1i + wi * t1r;
            lo[2 * k] = t0r + xr;
            lo[2 * k + 1] = t0i + xi;
            hi[2 * k] = t0r - xr;
            hi[2 * k + 1] = t0i - xi;
        }
    }
}
