//! AVX2+FMA arms of the crate's kernels.
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
//! reductions the 8-lane `wide_*` one. The FFT registers differ per width
//! and live in [`f32k`] and [`f64k`]; the FD and interpolation kernels
//! exist at f64 only, in [`f64k`] (intrinsics, the batched interpolation
//! loop included).
//!
//! The FFT kernel is the generic `fft` body as well; what it gets from here
//! is its register: a dozen one-instruction [`Lanes`] methods per width.

use crate::{xk, Elem};

/// Instantiate an `xk` body under the AVX2+FMA feature gate.
macro_rules! gate {
    ($name:ident, $body:ident, ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        /// The host must support AVX2 and FMA.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $name<T: Elem>($($arg: $ty),*) $(-> $ret)? {
            xk::$body($($arg),*)
        }
    };
}

gate!(scale, scalar_scale, (a: T, y: &mut [T]));
gate!(axpy, scalar_axpy, (a: T, x: &[T], y: &mut [T]));
gate!(aypx, scalar_aypx, (a: T, x: &[T], y: &mut [T]));
gate!(axpy_dot, wide_axpy_dot, (a: T, x: &[T], y: &mut [T]) -> f64);
gate!(scale_add_norm, wide_scale_add_norm, (a: T, x: &[T], y: &[T], out: &mut [T]) -> f64);
gate!(dot, wide_dot, (x: &[T], y: &[T]) -> f64);
gate!(sum, wide_sum, (x: &[T]) -> f64);
gate!(max_abs, wide_max_abs, (x: &[T]) -> f64);
gate!(cpx_mul, scalar_cpx_mul, (dst: &mut [T], src: &[T]));
gate!(cpx_mul_into, scalar_cpx_mul_into, (out: &mut [T], a: &[T], b: &[T]));

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
}

/// The f64 kernels where a hand-written intrinsic measured ≥ 1.2× faster
/// than the generic body under the same feature gate (DESIGN.md §13 has
/// the table); for interpolation that is [`f64k::split_sites`] and
/// [`f64k::interp_sites`], site loops of their own that walk a batch four
/// sites per step instead of the scalar ones.
/// These carry the FFT, FD and interpolation time of an f64 solve.
///
/// # Safety
/// Every function here requires AVX2 and FMA on the host. The raw-pointer
/// loads and stores stay inside the argument slices: the dispatching
/// function has already asserted the length/bounds contract each
/// kernel documents, every loop bounds its index by a slice length, and
/// the site kernel checks each site's taps against the halo before any
/// load.
pub mod f64k {
    use core::arch::x86_64::*;

    use crate::fft::{self, Lanes, Line, Stockham};
    use crate::xk::{self, HaloDims, Stencil};
    use crate::{RowBlock, SiteOut};

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
    #[inline]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        let on = -1i64;
        match rem {
            1 => _mm256_setr_epi64x(on, 0, 0, 0),
            2 => _mm256_setr_epi64x(on, on, 0, 0),
            _ => _mm256_setr_epi64x(on, on, on, 0),
        }
    }

    // ----- 8th-order FD stencil ----------------------------------------------

    /// One call per block: the rows are walked here, each as four-wide
    /// steps and a masked tail of 1–3 points, so a point's value does not
    /// depend on its block. `scale` is broadcast once, so the folded scale
    /// is free; `add` is a branch that goes the same way for the whole
    /// call (as one walk it measured faster than two instantiations).
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, `out` must hold `b.rows·b.len`
    /// values and every point the block's stencil reads must lie inside
    /// `src` (`crate::fd8_rows` asserts both).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fd8_rows(
        out: &mut [f64],
        src: &[f64],
        b: RowBlock,
        step: usize,
        c: &[f64; 4],
        scale: f64,
        add: bool,
    ) {
        let cv = [
            _mm256_set1_pd(c[0]),
            _mm256_set1_pd(c[1]),
            _mm256_set1_pd(c[2]),
            _mm256_set1_pd(c[3]),
        ];
        let (ih, no_mask) = (_mm256_set1_pd(scale), _mm256_setzero_si256());
        let n = b.len;
        for r in 0..b.rows {
            // SAFETY: the block's rows, their stencil reach included, lie
            // inside `src` and `out` holds `rows·len` values
            let ps = src.as_ptr().add(b.at + r * b.stride);
            let po = out.as_mut_ptr().add(r * n);
            let mut i = 0;
            while i + 4 <= n {
                let mut v = fd8_lanes::<false>(ps.add(i), step, &cv, ih, no_mask);
                if add {
                    v = _mm256_add_pd(_mm256_loadu_pd(po.add(i)), v);
                }
                _mm256_storeu_pd(po.add(i), v);
                i += 4;
            }
            if i < n {
                let m = tail_mask(n - i);
                let mut v = fd8_lanes::<true>(ps.add(i), step, &cv, ih, m);
                if add {
                    v = _mm256_add_pd(_mm256_maskload_pd(po.add(i), m), v);
                }
                _mm256_maskstore_pd(po.add(i), m, v);
            }
        }
    }

    /// Four points of [`fd8_rows`] centred at `p`: `(((c0·d0 + c1·d1) +
    /// c2·d2) + c3·d3)·ih`, `d_m` the difference of the tap pair `m + 1`
    /// steps apart, one FMA rounding per term. `MASKED` loads only the
    /// lanes of `mask`.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, and every (unmasked) lane `4·step`
    /// values either side of `p` must be readable.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fd8_lanes<const MASKED: bool>(
        p: *const f64,
        step: usize,
        cv: &[__m256d; 4],
        ih: __m256d,
        mask: __m256i,
    ) -> __m256d {
        let mut acc = _mm256_setzero_pd();
        for (m, &cm) in cv.iter().enumerate() {
            let (ahead, behind) = (p.add((m + 1) * step), p.sub((m + 1) * step));
            let d = if MASKED {
                _mm256_sub_pd(_mm256_maskload_pd(ahead, mask), _mm256_maskload_pd(behind, mask))
            } else {
                _mm256_sub_pd(_mm256_loadu_pd(ahead), _mm256_loadu_pd(behind))
            };
            acc = if m == 0 { _mm256_mul_pd(cm, d) } else { _mm256_fmadd_pd(cm, d, acc) };
        }
        _mm256_mul_pd(acc, ih)
    }

    // ----- scattered interpolation -------------------------------------------

    /// Sites per block: one per f64 lane.
    const BLOCK: usize = 4;

    /// The split of a batch ([`crate::split_sites`]), [`BLOCK`] sites per
    /// step: one vector prologue per block floors, bounds-checks and
    /// indexes four sites at once, one per lane. A tail of 1–3 sites is
    /// padded with copies of its first site. `⌊u⌋` and `u − ⌊u⌋` are
    /// `xk::split_index`'s, a NaN coordinate included (node 0, fraction
    /// NaN), and the node index is `xk::support`'s; when a lane's support
    /// leaves the halo, [`xk::support`] runs on each site of the block and
    /// panics with its message.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, `nodes` must be as long as
    /// `sites` and `d.points()` at most `u32::MAX` (`crate::split_sites`
    /// asserts both).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn split_sites(d: &HaloDims, sites: &mut [[f64; 3]], nodes: &mut [u32]) {
        let [_, s2, s3] = d.stored;
        // node coordinates are converted to i32 and multiplied by the
        // strides as 32-bit unsigned
        assert!(
            d.stored.iter().all(|&s| s <= i32::MAX as usize) && s2 * s3 <= u32::MAX as usize,
            "split_sites: halo {:?} too large for the f64 site kernel",
            d.stored
        );
        let (lo, taps) = xk::SPLIT_REACH;
        // per axis, the storage index of grid index 0 and the last floor
        // node whose support fits; the first is `−lo` on every axis
        let mut bounds = [(_mm256_setzero_pd(), _mm256_setzero_pd()); 3];
        for (a, b) in bounds.iter_mut().enumerate() {
            let last = d.stored[a] as isize - taps as isize - lo;
            *b = (_mm256_set1_pd(d.origin[a] as f64), _mm256_set1_pd(last as f64));
        }
        let first = _mm256_set1_pd(-lo as f64);
        let (ps, rs) = (_mm256_set1_epi64x((s2 * s3) as i64), _mm256_set1_epi64x(s3 as i64));
        let mut pad = [[0.0; 3]; BLOCK];
        for (quad, quad_nodes) in sites.chunks_mut(BLOCK).zip(nodes.chunks_mut(BLOCK)) {
            let full = quad.len() == BLOCK;
            if !full {
                pad = [quad[0]; BLOCK];
                pad[..quad.len()].copy_from_slice(quad);
            }
            let u = load_quad(if full { (&*quad).try_into().expect("a full block") } else { &pad });
            let mut t = [_mm256_setzero_pd(); 3];
            let mut node = [_mm256_setzero_si256(); 3];
            let mut inside = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            for a in 0..3 {
                let f = _mm256_floor_pd(u[a]);
                t[a] = _mm256_sub_pd(u[a], f);
                let f = _mm256_and_pd(f, _mm256_cmp_pd::<_CMP_ORD_Q>(f, f));
                // the floor node's storage index along axis `a`, exact as
                // f64, inside [first, last] when its support fits
                let n = _mm256_add_pd(f, bounds[a].0);
                let ok = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(n, first),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(n, bounds[a].1),
                );
                inside = _mm256_and_pd(inside, ok);
                node[a] = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(n));
            }
            if _mm256_movemask_pd(inside) != 0b1111 {
                for s in if full { &*quad } else { &pad[..] } {
                    xk::support(d, s);
                }
                unreachable!("the block support check rejected sites that `support` accepts");
            }
            let index = _mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epu32(node[0], ps), _mm256_mul_epu32(node[1], rs)),
                node[2],
            );
            // below `d.points()`, which fits a u32: the low half of each lane
            let index =
                _mm256_permutevar8x32_epi32(index, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
            let index = _mm256_castsi256_si128(index);
            if full {
                // SAFETY: four u32 lanes into four nodes, twelve f64 lanes
                // into four sites
                _mm_storeu_si128(quad_nodes.as_mut_ptr() as *mut __m128i, index);
                store_quad(quad.as_mut_ptr() as *mut f64, t);
            } else {
                let mut four = [0u32; BLOCK];
                // SAFETY: as above, into locals
                _mm_storeu_si128(four.as_mut_ptr() as *mut __m128i, index);
                store_quad(pad.as_mut_ptr() as *mut f64, t);
                quad_nodes.copy_from_slice(&four[..quad.len()]);
                quad.copy_from_slice(&pad[..quad.len()]);
            }
        }
    }

    /// The f64 site kernel: a batch of split sites walks [`BLOCK`] sites
    /// per step, each block loading four sites' fractions into one vector
    /// per axis, one site per lane, then each site's taps, and handing the
    /// block's values to `out` whole ([`store_block`]). A tail of 1–3
    /// sites is padded with copies of its first site and takes the same
    /// code, and no lane reads another's values, so a site's bits depend
    /// neither on its batch nor on its position in it.
    ///
    /// [`xk::Taps`] places each site's first tap (its floor node offset by
    /// the stencil's reach); [`lagrange`] / [`bspline`] (and `1 − t, t`)
    /// give the weights. A cubic site ([`cubic_block`]) forms `w2[b]·w3`
    /// once as four vectors; each field sums every x1 plane `a` into its own
    /// partial (four FMAs, one per 4-wide row), folds the partials with `w1`
    /// as the tree `(p0·w1[0] + p1·w1[1]) + (p2·w1[2] + p3·w1[3])` and
    /// reduces it as `(l0 + l2) + (l1 + l3)`. A trilinear site
    /// ([`linear_block`]) does the same with 2-wide rows, two sites per
    /// register, and `l0 + l1`. Against the specification `w1[a]` is
    /// factored out of each plane partial and `a·b + c` rounds once: a
    /// different association of the same sum, inside the ≤ 1e-12 contract.
    /// A field's sum reads only its own taps, so its bits do not depend on
    /// how many fields travel with it.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, every field must hold
    /// `dims.points()` values and `nodes` and every slice of `out` be as
    /// long as `frac` (`crate::interp_sites` asserts all three).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn interp_sites<const NF: usize>(
        stencil: Stencil,
        dims: &HaloDims,
        fields: &[&[f64]; NF],
        nodes: &[u32],
        frac: &[[f64; 3]],
        out: &mut SiteOut<'_, NF>,
    ) {
        let tap = xk::Taps::new(stencil, dims);
        let mut pad: [[f64; 3]; BLOCK];
        for (k, (quad_nodes, chunk)) in nodes.chunks(BLOCK).zip(frac.chunks(BLOCK)).enumerate() {
            let quad: &[[f64; 3]; BLOCK] = match chunk.try_into() {
                Ok(quad) => quad,
                Err(_) => {
                    pad = [chunk[0]; BLOCK];
                    pad[..chunk.len()].copy_from_slice(chunk);
                    &pad
                }
            };
            let base: [usize; BLOCK] =
                std::array::from_fn(|l| tap.first(*quad_nodes.get(l).unwrap_or(&quad_nodes[0])));
            let t = load_quad(quad);
            // one call site per block function, so each is inlined here
            // (a `cubic_block` call per cubic arm was not, and cost ≈ 6 %
            // per site)
            let values = if stencil == Stencil::Linear {
                linear_block(fields, tap.ps, tap.rs, &base, t)
            } else {
                let w = if stencil == Stencil::CubicLagrange {
                    [lagrange(t[0]), lagrange(t[1]), lagrange(t[2])]
                } else {
                    [bspline(t[0]), bspline(t[1]), bspline(t[2])]
                };
                cubic_block(fields, tap.ps, tap.rs, &base, w)
            };
            store_block(out, k * BLOCK, chunk.len(), values);
        }
    }

    /// Store a block's values — `v[f]` holds field `f` of the block's
    /// sites, one per lane — at sites `at..at + count` of `out`. A full
    /// per-field block is one vector store per field, after one multiply by
    /// the four sites' factors when `out` scales; a tail stores its lanes
    /// under a mask. A packed block of three fields is interleaved in
    /// registers ([`store_quad`]); other packed blocks go lane by lane.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, `count ≤ BLOCK` and `at + count`
    /// at most the length of every slice of `out`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store_block<const NF: usize>(
        out: &mut SiteOut<'_, NF>,
        at: usize,
        count: usize,
        v: [__m256d; NF],
    ) {
        match out {
            // SAFETY (both arms): sites `at..at + count` are in every slice
            SiteOut::PerField { out, scale } if count == BLOCK => {
                for (o, mut x) in out.iter_mut().zip(v) {
                    if let Some(s) = scale {
                        x = _mm256_mul_pd(x, _mm256_loadu_pd(s.as_ptr().add(at)));
                    }
                    _mm256_storeu_pd(o.as_mut_ptr().add(at), x);
                }
            }
            SiteOut::PerField { out, scale } => {
                let mask = tail_mask(count);
                for (o, mut x) in out.iter_mut().zip(v) {
                    if let Some(s) = scale {
                        x = _mm256_mul_pd(x, _mm256_maskload_pd(s.as_ptr().add(at), mask));
                    }
                    _mm256_maskstore_pd(o.as_mut_ptr().add(at), mask, x);
                }
            }
            SiteOut::Packed(p) if NF == 3 && count == BLOCK => {
                // SAFETY: four sites of three values, `at + 4 ≤ p.len()`
                store_quad(p.as_mut_ptr().add(at) as *mut f64, [v[0], v[1], v[2]]);
            }
            SiteOut::Packed(p) => {
                for (f, x) in v.into_iter().enumerate() {
                    let mut lanes = [0.0f64; BLOCK];
                    // SAFETY: four lanes into four values
                    _mm256_storeu_pd(lanes.as_mut_ptr(), x);
                    for (site, x) in p[at..at + count].iter_mut().zip(lanes) {
                        site[f] = x;
                    }
                }
            }
        }
    }

    /// Store one vector per axis, one site per lane, as four interleaved
    /// sites at `p`: the inverse of [`load_quad`].
    ///
    /// # Safety
    /// The host must support AVX2 and FMA, and `p` must be valid for
    /// writing twelve values.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store_quad(p: *mut f64, [x, y, z]: [__m256d; 3]) {
        let xy = _mm256_unpacklo_pd(x, y); // x0 y0 x2 y2
        let xy_hi = _mm256_unpackhi_pd(x, y); // x1 y1 x3 y3
        let zx = _mm256_unpacklo_pd(z, xy_hi); // z0 x1 z2 x3
        let yz = _mm256_unpackhi_pd(xy_hi, z); // y1 z1 y3 z3
        _mm256_storeu_pd(p, _mm256_permute2f128_pd::<0x20>(xy, zx));
        _mm256_storeu_pd(p.add(4), _mm256_permute2f128_pd::<0x30>(yz, xy));
        _mm256_storeu_pd(p.add(8), _mm256_permute2f128_pd::<0x31>(zx, yz));
    }

    /// Four sites' coordinates, one vector per axis with one site per lane.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_quad(quad: &[[f64; 3]; BLOCK]) -> [__m256d; 3] {
        // SAFETY: `quad` is 12 contiguous values; the loads read 0..4, 4..8
        // and 8..12 of them
        let p = quad.as_ptr() as *const f64;
        let (r0, r1, r2) =
            (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)), _mm256_loadu_pd(p.add(8)));
        // x0 y0 z0 x1 | y1 z1 x2 y2 | z2 x3 y3 z3 → x0..x3, y0..y3, z0..z3
        let m1 = _mm256_blend_pd::<0b1100>(r0, r1); // x0 y0 x2 y2
        let m2 = _mm256_blend_pd::<0b1100>(r1, r2); // y1 z1 y3 z3
        let m3 = _mm256_blend_pd::<0b0011>(r0, r2); // z2 x3 z0 x1
        let m3 = _mm256_permute2f128_pd::<0x01>(m3, m3); // z0 x1 z2 x3
        [
            _mm256_blend_pd::<0b1010>(m1, m3),
            _mm256_shuffle_pd::<0b0101>(m1, m2),
            _mm256_blend_pd::<0b1010>(m3, m2),
        ]
    }

    /// Cubic Lagrange weights of four fractions, `[k]` = weight of node
    /// offset `k − 1` in every lane: `((v1·v2)·v3)·d` with `v1 = (−t, t+1,
    /// −(t+1), t+1)`, `v2 = (t−1, t−1, t, t)`, `v3 = (t−2, t−2, t−2, t−1)`,
    /// `d = (1/6, 1/2, 1/2, 1/6)`.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn lagrange(t: __m256d) -> [__m256d; 4] {
        let one = _mm256_set1_pd(1.0);
        let t1 = _mm256_sub_pd(t, one);
        let t2 = _mm256_sub_pd(t, _mm256_set1_pd(2.0));
        let tp = _mm256_add_pd(t, one);
        let neg = _mm256_set1_pd(-0.0);
        let (sixth, half) = (_mm256_set1_pd(1.0 / 6.0), _mm256_set1_pd(0.5));
        [
            _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(_mm256_xor_pd(t, neg), t1), t2), sixth),
            _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(tp, t1), t2), half),
            _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(_mm256_xor_pd(tp, neg), t), t2), half),
            _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(tp, t), t1), sixth),
        ]
    }

    /// Cubic B-spline weights of four fractions, the expressions of
    /// `xk::bspline_weights` (separate multiply and add, divide by 6).
    ///
    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bspline(t: __m256d) -> [__m256d; 4] {
        let (one, three, six) = (_mm256_set1_pd(1.0), _mm256_set1_pd(3.0), _mm256_set1_pd(6.0));
        let t2 = _mm256_mul_pd(t, t);
        let t3 = _mm256_mul_pd(t2, t);
        let om = _mm256_sub_pd(one, t);
        let w1 = _mm256_sub_pd(_mm256_mul_pd(three, t3), _mm256_mul_pd(six, t2));
        let w2 = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(-3.0), t3), _mm256_mul_pd(three, t2));
        let w2 = _mm256_add_pd(_mm256_add_pd(w2, _mm256_mul_pd(three, t)), one);
        [
            _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(om, om), om), six),
            _mm256_div_pd(_mm256_add_pd(w1, _mm256_set1_pd(4.0)), six),
            _mm256_div_pd(w2, six),
            _mm256_div_pd(t3, six),
        ]
    }

    /// The 64-tap sums of a block of cubic sites; `w[axis][k]` holds the
    /// weight of tap `k` for every site, one site per lane.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `base` must come from
    /// [`xk::Taps::first`] for a cubic stencil, on a halo whose plane and
    /// row strides are `ps`, `rs` and whose `points()` values every field
    /// holds.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn cubic_block<const NF: usize>(
        fields: &[&[f64]; NF],
        ps: usize,
        rs: usize,
        base: &[usize; BLOCK],
        w: [[__m256d; 4]; 3],
    ) -> [__m256d; NF] {
        // x1 and x2 weights are broadcast per site from memory, the x3
        // weights transposed into one register per site
        let mut w12 = [[[0.0f64; BLOCK]; 4]; 2];
        for (wa, va) in w12.iter_mut().zip(&w) {
            for (wk, &vk) in wa.iter_mut().zip(va) {
                // SAFETY: four lanes into four values
                _mm256_storeu_pd(wk.as_mut_ptr(), vk);
            }
        }
        let [w30, w31, w32, w33] = w[2];
        let (t0, t1) = (_mm256_unpacklo_pd(w30, w31), _mm256_unpackhi_pd(w30, w31));
        let (t2, t3) = (_mm256_unpacklo_pd(w32, w33), _mm256_unpackhi_pd(w32, w33));
        let w3 = [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ];
        let mut sums = [[_mm256_setzero_pd(); BLOCK]; NF];
        for l in 0..BLOCK {
            let mut w23 = [_mm256_setzero_pd(); 4];
            let mut w1 = [_mm256_setzero_pd(); 4];
            for k in 0..4 {
                w23[k] = _mm256_mul_pd(_mm256_broadcast_sd(&w12[1][k][l]), w3[l]);
                w1[k] = _mm256_broadcast_sd(&w12[0][k][l]);
            }
            for (sum, f) in sums.iter_mut().zip(fields) {
                let mut plane = [_mm256_setzero_pd(); 4];
                for (a, p) in plane.iter_mut().enumerate() {
                    // SAFETY: `Taps::first` checked that the support lies
                    // inside the halo, so `base + a·ps + b·rs + 4` (a, b ≤
                    // 3) is at most `dims.points()`, every field's length
                    let at = f.as_ptr().add(base[l] + a * ps);
                    for (b, &wv) in w23.iter().enumerate() {
                        *p = _mm256_fmadd_pd(_mm256_loadu_pd(at.add(b * rs)), wv, *p);
                    }
                }
                let lo = _mm256_fmadd_pd(plane[1], w1[1], _mm256_mul_pd(plane[0], w1[0]));
                let hi = _mm256_fmadd_pd(plane[3], w1[3], _mm256_mul_pd(plane[2], w1[2]));
                sum[l] = _mm256_add_pd(lo, hi);
            }
        }
        let mut out = [_mm256_setzero_pd(); NF];
        for (o, [s0, s1, s2, s3]) in out.iter_mut().zip(sums) {
            // (l0 + l2) + (l1 + l3) of sites 0, 1, 2, 3 at once, site l in lane l
            let s02 = _mm256_add_pd(
                _mm256_permute2f128_pd::<0x20>(s0, s2),
                _mm256_permute2f128_pd::<0x31>(s0, s2),
            );
            let s13 = _mm256_add_pd(
                _mm256_permute2f128_pd::<0x20>(s1, s3),
                _mm256_permute2f128_pd::<0x31>(s1, s3),
            );
            *o = _mm256_hadd_pd(s02, s13);
        }
        out
    }

    /// The 8-tap sums of a block of trilinear sites from their fractions,
    /// two sites per register: sites 0 and 2 share one, 1 and 3 the other.
    ///
    /// # Safety
    /// As [`cubic_block`]'s, with `base` from [`xk::Taps::first`] for the
    /// linear stencil.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn linear_block<const NF: usize>(
        fields: &[&[f64]; NF],
        ps: usize,
        rs: usize,
        base: &[usize; BLOCK],
        t: [__m256d; 3],
    ) -> [__m256d; NF] {
        let one = _mm256_set1_pd(1.0);
        let om = [_mm256_sub_pd(one, t[0]), _mm256_sub_pd(one, t[1]), _mm256_sub_pd(one, t[2])];
        // pair h holds sites h and h + 2: (1 − t, t) of either in its half
        let w3 = [_mm256_unpacklo_pd(om[2], t[2]), _mm256_unpackhi_pd(om[2], t[2])];
        let w2 = [
            [_mm256_movedup_pd(om[1]), _mm256_movedup_pd(t[1])],
            [_mm256_permute_pd::<0b1111>(om[1]), _mm256_permute_pd::<0b1111>(t[1])],
        ];
        let w1 = [
            [_mm256_movedup_pd(om[0]), _mm256_movedup_pd(t[0])],
            [_mm256_permute_pd::<0b1111>(om[0]), _mm256_permute_pd::<0b1111>(t[0])],
        ];
        let mut sums = [[_mm256_setzero_pd(); 2]; NF];
        for h in 0..2 {
            let w23 = [_mm256_mul_pd(w2[h][0], w3[h]), _mm256_mul_pd(w2[h][1], w3[h])];
            for (sum, f) in sums.iter_mut().zip(fields) {
                let mut plane = [_mm256_setzero_pd(); 2];
                for (a, p) in plane.iter_mut().enumerate() {
                    // SAFETY: as in `cubic_block`, with 2 values per load
                    // at `a, b ≤ 1`
                    let (lo, hi) =
                        (f.as_ptr().add(base[h] + a * ps), f.as_ptr().add(base[h + 2] + a * ps));
                    for (b, &wv) in w23.iter().enumerate() {
                        let row = _mm256_loadu2_m128d(hi.add(b * rs), lo.add(b * rs));
                        *p = _mm256_fmadd_pd(row, wv, *p);
                    }
                }
                sum[h] = _mm256_fmadd_pd(plane[1], w1[h][1], _mm256_mul_pd(plane[0], w1[h][0]));
            }
        }
        let mut out = [_mm256_setzero_pd(); NF];
        for (o, [s02, s13]) in out.iter_mut().zip(sums) {
            // l0 + l1 of sites 0, 1, 2, 3 at once, site l in lane l
            *o = _mm256_hadd_pd(s02, s13);
        }
        out
    }
}
