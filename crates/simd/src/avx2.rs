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
//! body there too, with an intrinsic [`xk::StencilArm`] plugged in).
//!
//! The FFT kernel is the generic `fft` body as well; what it gets from here
//! is its register: a dozen one-instruction [`Lanes`] methods per width.

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
gate!(axpy_dot<T>, wide_axpy_dot, (a: T, x: &[T], y: &mut [T]) -> f64);
gate!(scale_add_norm<T>, wide_scale_add_norm, (a: T, x: &[T], y: &[T], out: &mut [T]) -> f64);
gate!(dot<T>, wide_dot, (x: &[T], y: &[T]) -> f64);
gate!(sum<T>, wide_sum, (x: &[T]) -> f64);
gate!(max_abs<T>, wide_max_abs, (x: &[T]) -> f64);
gate!(cpx_mul<T>, scalar_cpx_mul, (dst: &mut [T], src: &[T]));
gate!(cpx_mul_into<T>, scalar_cpx_mul_into, (out: &mut [T], a: &[T], b: &[T]));

/// The three lanes kernels instantiated under the feature gate over the
/// vector register `$v` — or, for a batch narrower than that register, over
/// the one-line register with the same (fused) rounding, so that a line's
/// bits do not depend on how many lines travel with it.
macro_rules! fft_arm {
    ($t:ty, $v:ty) => {
        type One = Line<$t, true>;

        /// # Safety
        /// [`fft::cols`]'s contract, on a host with AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn fft_cols(
            plan: &Stockham<$t>,
            inverse: bool,
            data: *mut $t,
            (stride, cols): (usize, usize),
            scratch: *mut $t,
        ) {
            match (cols < <$v>::W, inverse) {
                (false, false) => fft::cols::<$t, $v, false>(plan, data, stride, cols, scratch),
                (false, true) => fft::cols::<$t, $v, true>(plan, data, stride, cols, scratch),
                (true, false) => fft::cols::<$t, One, false>(plan, data, stride, cols, scratch),
                (true, true) => fft::cols::<$t, One, true>(plan, data, stride, cols, scratch),
            }
        }

        /// # Safety
        /// [`fft::r2c`]'s contract, on a host with AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn fft_r2c(
            half: &Stockham<$t>,
            w: *const $t,
            (input, out): (*const $t, *mut $t),
            rows: usize,
            scratch: *mut $t,
        ) {
            if rows < <$v>::W {
                fft::r2c::<$t, One>(half, w, input, out, rows, scratch)
            } else {
                fft::r2c::<$t, $v>(half, w, input, out, rows, scratch)
            }
        }

        /// # Safety
        /// [`fft::c2r`]'s contract, on a host with AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn fft_c2r(
            half: &Stockham<$t>,
            w: *const $t,
            (spec, out): (*const $t, *mut $t),
            rows: usize,
            scratch: *mut $t,
        ) {
            if rows < <$v>::W {
                fft::c2r::<$t, One>(half, w, spec, out, rows, scratch)
            } else {
                fft::c2r::<$t, $v>(half, w, spec, out, rows, scratch)
            }
        }
    };
}

pub mod f32k {
    use core::arch::x86_64::*;

    use crate::fft::{self, Lanes, Line, Stockham};
    use crate::xk::{self, HaloDims, RowDotArm, Stencil};

    fft_arm!(f32, __m256);

    impl Lanes<f32> for __m256 {
        const W: usize = 8;
        type One = One;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn load2(p: *const f32) -> (Self, Self) {
            let (lo, hi) = (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)));
            (_mm256_shuffle_ps(lo, hi, 0b10_00_10_00), _mm256_shuffle_ps(lo, hi, 0b11_01_11_01))
        }
        #[inline(always)]
        unsafe fn store2(p: *mut f32, re: Self, im: Self) {
            _mm256_storeu_ps(p, _mm256_unpacklo_ps(re, im));
            _mm256_storeu_ps(p.add(8), _mm256_unpackhi_ps(re, im));
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm256_fmadd_ps(self, a, b)
        }
        #[inline(always)]
        unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
            _mm256_fmsub_ps(self, a, b)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            _mm256_xor_ps(self, _mm256_set1_ps(-0.0))
        }
        #[inline(always)]
        unsafe fn transpose(src: *const f32, sp: usize, flip: usize, dst: *mut f32, dp: usize) {
            let r = |j: usize| _mm256_loadu_ps(src.add((j ^ flip) * sp));
            // 2×2 blocks of each row pair, then 4×4 blocks, then the halves
            let mut t = [_mm256_setzero_ps(); 8];
            for j in 0..4 {
                t[2 * j] = _mm256_unpacklo_ps(r(2 * j), r(2 * j + 1));
                t[2 * j + 1] = _mm256_unpackhi_ps(r(2 * j), r(2 * j + 1));
            }
            let mut u = t;
            for h in 0..2 {
                for j in 0..2 {
                    u[4 * h + 2 * j] = _mm256_shuffle_ps(t[4 * h + j], t[4 * h + 2 + j], 0x44);
                    u[4 * h + 2 * j + 1] = _mm256_shuffle_ps(t[4 * h + j], t[4 * h + 2 + j], 0xEE);
                }
            }
            for j in 0..4 {
                _mm256_storeu_ps(dst.add(j * dp), _mm256_permute2f128_ps(u[j], u[4 + j], 0x20));
                let hi = _mm256_permute2f128_ps(u[j], u[4 + j], 0x31);
                _mm256_storeu_ps(dst.add((4 + j) * dp), hi);
            }
        }
    }

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
}

/// The f64 kernels where a hand-written intrinsic measured ≥ 1.2× faster
/// than the generic body under the same feature gate (DESIGN.md §13 has
/// the table); for interpolation that is [`f64k::FmaArm`] (Lagrange
/// weights, the cubic and the trilinear sums) inside the shared batched
/// site loop.
/// These carry the FFT, FD and interpolation time of an f64 solve.
///
/// # Safety
/// Every function here requires AVX2 and FMA on the host. The raw-pointer
/// loads and stores stay inside the argument slices: the dispatching
/// `Elem` method has already asserted the length/bounds contract each
/// kernel documents, and every loop bounds its index by a slice length.
pub mod f64k {
    use core::arch::x86_64::*;

    use crate::fft::{self, Lanes, Line, Stockham};
    use crate::xk::{self, HaloDims, Stencil, StencilArm};

    fft_arm!(f64, __m256d);

    impl Lanes<f64> for __m256d {
        const W: usize = 4;
        type One = One;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn load2(p: *const f64) -> (Self, Self) {
            let (lo, hi) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
            (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
        }
        #[inline(always)]
        unsafe fn store2(p: *mut f64, re: Self, im: Self) {
            _mm256_storeu_pd(p, _mm256_unpacklo_pd(re, im));
            _mm256_storeu_pd(p.add(4), _mm256_unpackhi_pd(re, im));
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_pd(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_pd(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_pd(self, o)
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm256_fmadd_pd(self, a, b)
        }
        #[inline(always)]
        unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
            _mm256_fmsub_pd(self, a, b)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            _mm256_xor_pd(self, _mm256_set1_pd(-0.0))
        }
        #[inline(always)]
        unsafe fn transpose(src: *const f64, sp: usize, flip: usize, dst: *mut f64, dp: usize) {
            let r = |j: usize| _mm256_loadu_pd(src.add((j ^ flip) * sp));
            let (t0, t1) = (_mm256_unpacklo_pd(r(0), r(1)), _mm256_unpackhi_pd(r(0), r(1)));
            let (t2, t3) = (_mm256_unpacklo_pd(r(2), r(3)), _mm256_unpackhi_pd(r(2), r(3)));
            _mm256_storeu_pd(dst, _mm256_permute2f128_pd(t0, t2, 0x20));
            _mm256_storeu_pd(dst.add(dp), _mm256_permute2f128_pd(t1, t3, 0x20));
            _mm256_storeu_pd(dst.add(2 * dp), _mm256_permute2f128_pd(t0, t2, 0x31));
            _mm256_storeu_pd(dst.add(3 * dp), _mm256_permute2f128_pd(t1, t3, 0x31));
        }
    }

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
        hsum2(_mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1)))
    }

    /// Horizontal sum of a 2-lane vector: `l0 + l1`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum2(v: __m128d) -> f64 {
        _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)))
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

    /// The f64 arm of the site kernel: four Lagrange weights in one vector,
    /// and sums that never wait on a long add chain. A cubic site forms
    /// `w2[b]·w3` once as four vectors; each field sums every x1 plane `a`
    /// into its own partial (four FMAs, one per 4-wide row), folds the
    /// partials with `w1` as the tree `(p0·w1[0] + p1·w1[1]) + (p2·w1[2] +
    /// p3·w1[3])` and reduces it by [`hsum`]. A trilinear site does the same
    /// with 2-wide rows, two planes and [`hsum2`]. Against the specification
    /// `w1[a]` is factored out of each plane partial and `a·b + c` rounds
    /// once: a different association of the same sum, inside the ≤ 1e-12
    /// contract. A field's sum reads only its own taps, so its bits do not
    /// depend on how many fields travel with it.
    #[derive(Clone, Copy)]
    pub(crate) struct FmaArm(());

    impl FmaArm {
        /// # Safety
        /// The host must support AVX2 and FMA.
        unsafe fn new() -> FmaArm {
            FmaArm(())
        }
    }

    impl StencilArm<f64> for FmaArm {
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
        fn cubic<const NF: usize>(
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
                let w3 = _mm256_loadu_pd(w[2].as_ptr());
                let w23 = [
                    _mm256_mul_pd(_mm256_set1_pd(w[1][0]), w3),
                    _mm256_mul_pd(_mm256_set1_pd(w[1][1]), w3),
                    _mm256_mul_pd(_mm256_set1_pd(w[1][2]), w3),
                    _mm256_mul_pd(_mm256_set1_pd(w[1][3]), w3),
                ];
                let w1 = [
                    _mm256_set1_pd(w[0][0]),
                    _mm256_set1_pd(w[0][1]),
                    _mm256_set1_pd(w[0][2]),
                    _mm256_set1_pd(w[0][3]),
                ];
                let mut out = [0.0f64; NF];
                for (o, f) in out.iter_mut().zip(fields) {
                    let mut plane = [_mm256_setzero_pd(); 4];
                    for (a, p) in plane.iter_mut().enumerate() {
                        let at = f.as_ptr().add(base + a * ps);
                        for (b, &wv) in w23.iter().enumerate() {
                            *p = _mm256_fmadd_pd(_mm256_loadu_pd(at.add(b * rs)), wv, *p);
                        }
                    }
                    let lo = _mm256_fmadd_pd(plane[1], w1[1], _mm256_mul_pd(plane[0], w1[0]));
                    let hi = _mm256_fmadd_pd(plane[3], w1[3], _mm256_mul_pd(plane[2], w1[2]));
                    *o = hsum(_mm256_add_pd(lo, hi));
                }
                out
            }
        }

        #[inline(always)]
        fn linear<const NF: usize>(
            self,
            fields: &[&[f64]; NF],
            base: usize,
            ps: usize,
            rs: usize,
            w: &[[f64; 2]; 3],
        ) -> [f64; NF] {
            let last = base + ps + rs;
            for f in fields {
                assert!(last + 2 <= f.len(), "linear support out of bounds");
            }
            // SAFETY: as in `cubic`, with 2 values per load at `a, b ≤ 1`,
            // ending at or before `last + 2`, checked just above.
            unsafe {
                let w3 = _mm_loadu_pd(w[2].as_ptr());
                let w23 =
                    [_mm_mul_pd(_mm_set1_pd(w[1][0]), w3), _mm_mul_pd(_mm_set1_pd(w[1][1]), w3)];
                let w1 = [_mm_set1_pd(w[0][0]), _mm_set1_pd(w[0][1])];
                let mut out = [0.0f64; NF];
                for (o, f) in out.iter_mut().zip(fields) {
                    let mut plane = [_mm_setzero_pd(); 2];
                    for (a, p) in plane.iter_mut().enumerate() {
                        let at = f.as_ptr().add(base + a * ps);
                        for (b, &wv) in w23.iter().enumerate() {
                            *p = _mm_fmadd_pd(_mm_loadu_pd(at.add(b * rs)), wv, *p);
                        }
                    }
                    *o = hsum2(_mm_fmadd_pd(plane[1], w1[1], _mm_mul_pd(plane[0], w1[0])));
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
}
