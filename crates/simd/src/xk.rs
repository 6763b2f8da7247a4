//! Kernel bodies, written once and generic over the element width.
//!
//! Every [`Elem`] kernel dispatches to one of the bodies here:
//!
//! * `scalar_*` is the specification: the pre-SIMD solver's loops (separate
//!   multiply and add, left-to-right reduction order, f64 accumulation), so
//!   the scalar backend is bit-identical to the historical code and serves
//!   as the reference side of the equivalence contract;
//! * `wide_*` exists only where vectorizing needs a different summation
//!   order than the specification: the reductions keep one f64 partial per
//!   lane over `LANES = 8` elements per step and fold them in the fixed
//!   shape `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` (scalar remainder).
//!   Every width keeps the determinism contract: results depend only on
//!   input values and the selected backend, never on thread count or
//!   allocation state;
//! * the batched interpolation kernel ([`interp_sites`]) is one site loop
//!   for the scalar backend and the f32 AVX2 arm, with the 64-tap cubic
//!   sum behind [`StencilArm`]: [`SpecArm`] is the specification,
//!   [`RowDotArm`] the f32 AVX2 arm (cubic row by row). The f64 AVX2 arm
//!   is not this body: `avx2::f64k::interp_sites` walks a batch four
//!   sites per step in intrinsics, sharing only [`support`] (its
//!   out-of-halo panic) with the loop here.
//!
//! The bodies are `#[inline(always)]`: the AVX2 arm is a body inlined into
//! a `#[target_feature(enable = "avx2,fma")]` wrapper (see `avx2`), where
//! the autovectorizer emits full-width code for either element width
//! without a second hand-written intrinsics file. Rust never contracts
//! `a·b + c` on its own, so a body computes the same bits under either
//! instruction set; element-wise kernels therefore need no second body
//! (a chunked copy measured no faster, and up to 3× slower at f32).

use crate::Elem;

// ----- scalar reference loops ---------------------------------------------

#[inline(always)]
pub(crate) fn scalar_scale<T: Elem>(a: T, y: &mut [T]) {
    for v in y {
        *v *= a;
    }
}

#[inline(always)]
pub(crate) fn scalar_axpy<T: Elem>(a: T, x: &[T], y: &mut [T]) {
    for (v, &xv) in y.iter_mut().zip(x) {
        *v += a * xv;
    }
}

#[inline(always)]
pub(crate) fn scalar_aypx<T: Elem>(a: T, x: &[T], y: &mut [T]) {
    for (v, &xv) in y.iter_mut().zip(x) {
        *v = a * *v + xv;
    }
}

#[inline(always)]
pub(crate) fn scalar_axpy_dot<T: Elem>(a: T, x: &[T], y: &mut [T]) -> f64 {
    let mut acc = 0.0f64;
    for (v, &xv) in y.iter_mut().zip(x) {
        *v += a * xv;
        acc += v.to_f64() * v.to_f64();
    }
    acc
}

#[inline(always)]
pub(crate) fn scalar_scale_add_norm<T: Elem>(a: T, x: &[T], y: &[T], out: &mut [T]) -> f64 {
    let mut acc = 0.0f64;
    for ((o, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
        *o = a * xv + yv;
        acc += o.to_f64() * o.to_f64();
    }
    acc
}

#[inline(always)]
pub(crate) fn scalar_dot<T: Elem>(x: &[T], y: &[T]) -> f64 {
    x.iter().zip(y).map(|(&a, &b)| a.to_f64() * b.to_f64()).sum()
}

#[inline(always)]
pub(crate) fn scalar_sum<T: Elem>(x: &[T]) -> f64 {
    x.iter().map(|&v| v.to_f64()).sum()
}

#[inline(always)]
pub(crate) fn scalar_max_abs<T: Elem>(x: &[T]) -> f64 {
    x.iter().fold(0.0, |m, &v| max_nan(m, v.to_f64().abs()))
}

/// `max(a, b)`, NaN if either is: a NaN sample must not vanish in a max.
#[inline(always)]
fn max_nan(a: f64, b: f64) -> f64 {
    if b > a || b.is_nan() {
        b
    } else {
        a
    }
}

#[inline(always)]
pub(crate) fn scalar_fd8_combine_scale<T: Elem>(
    out: &mut [T],
    plus: &[&[T]; 4],
    minus: &[&[T]; 4],
    c: &[T; 4],
    inv_h: T,
    s: T,
) {
    // `inv_h·s` folds once up front; with `s == 1` the product is exactly
    // `inv_h`, so the unscaled derivative is the `s = 1` case bit for bit.
    let ihs = inv_h * s;
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (m, &cm) in c.iter().enumerate() {
            acc += cm * (plus[m][k] - minus[m][k]);
        }
        *o = acc * ihs;
    }
}

#[inline(always)]
pub(crate) fn scalar_cpx_mul<T: Elem>(dst: &mut [T], src: &[T]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let (ar, ai) = (d[0], d[1]);
        let (br, bi) = (s[0], s[1]);
        d[0] = ar * br - ai * bi;
        d[1] = ar * bi + ai * br;
    }
}

#[inline(always)]
pub(crate) fn scalar_cpx_mul_into<T: Elem>(out: &mut [T], a: &[T], b: &[T]) {
    for ((o, x), y) in out.chunks_exact_mut(2).zip(a.chunks_exact(2)).zip(b.chunks_exact(2)) {
        let (ar, ai) = (x[0], x[1]);
        let (br, bi) = (y[0], y[1]);
        o[0] = ar * br - ai * bi;
        o[1] = ar * bi + ai * br;
    }
}

// ----- wide bodies (reordered summation) ----------------------------------

const LANES: usize = 8;

/// Fixed-shape fold of the 8 f64 lane partials.
#[inline(always)]
fn fold_sum(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

#[inline(always)]
fn fold_max(acc: [f64; LANES]) -> f64 {
    let a = max_nan(max_nan(acc[0], acc[4]), max_nan(acc[2], acc[6]));
    let b = max_nan(max_nan(acc[1], acc[5]), max_nan(acc[3], acc[7]));
    max_nan(a, b)
}

#[inline(always)]
fn split<T>(x: &[T]) -> (&[T], &[T]) {
    x.split_at(x.len() - x.len() % LANES)
}

#[inline(always)]
fn split_mut<T>(x: &mut [T]) -> (&mut [T], &mut [T]) {
    let n = x.len();
    x.split_at_mut(n - n % LANES)
}

#[inline(always)]
pub(crate) fn wide_axpy_dot<T: Elem>(a: T, x: &[T], y: &mut [T]) -> f64 {
    let (xb, xt) = split(x);
    let (yb, yt) = split_mut(y);
    let mut acc = [0.0f64; LANES];
    for (yc, xc) in yb.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)) {
        for ((v, &xv), l) in yc.iter_mut().zip(xc).zip(acc.iter_mut()) {
            *v += a * xv;
            *l += v.to_f64() * v.to_f64();
        }
    }
    fold_sum(acc) + scalar_axpy_dot(a, xt, yt)
}

#[inline(always)]
pub(crate) fn wide_scale_add_norm<T: Elem>(a: T, x: &[T], y: &[T], out: &mut [T]) -> f64 {
    let (xb, xt) = split(x);
    let (yb, yt) = split(y);
    let (ob, ot) = split_mut(out);
    let mut acc = [0.0f64; LANES];
    for ((oc, xc), yc) in
        ob.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)).zip(yb.chunks_exact(LANES))
    {
        for (((o, &xv), &yv), l) in oc.iter_mut().zip(xc).zip(yc).zip(acc.iter_mut()) {
            *o = a * xv + yv;
            *l += o.to_f64() * o.to_f64();
        }
    }
    fold_sum(acc) + scalar_scale_add_norm(a, xt, yt, ot)
}

#[inline(always)]
pub(crate) fn wide_dot<T: Elem>(x: &[T], y: &[T]) -> f64 {
    let (xb, xt) = split(x);
    let (yb, yt) = split(y);
    let mut acc = [0.0f64; LANES];
    for (xc, yc) in xb.chunks_exact(LANES).zip(yb.chunks_exact(LANES)) {
        for ((&a, &b), l) in xc.iter().zip(yc).zip(acc.iter_mut()) {
            *l += a.to_f64() * b.to_f64();
        }
    }
    fold_sum(acc) + scalar_dot(xt, yt)
}

#[inline(always)]
pub(crate) fn wide_sum<T: Elem>(x: &[T]) -> f64 {
    let (xb, xt) = split(x);
    let mut acc = [0.0f64; LANES];
    for xc in xb.chunks_exact(LANES) {
        for (&v, l) in xc.iter().zip(acc.iter_mut()) {
            *l += v.to_f64();
        }
    }
    fold_sum(acc) + scalar_sum(xt)
}

#[inline(always)]
pub(crate) fn wide_max_abs<T: Elem>(x: &[T]) -> f64 {
    let (xb, xt) = split(x);
    let mut acc = [0.0f64; LANES];
    for xc in xb.chunks_exact(LANES) {
        for (&v, l) in xc.iter().zip(acc.iter_mut()) {
            *l = max_nan(*l, v.to_f64().abs());
        }
    }
    max_nan(fold_max(acc), scalar_max_abs(xt))
}

// ----- batched scattered interpolation --------------------------------------

/// Basis of the batched site kernel ([`Elem::kinterp_sites`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil {
    /// Trilinear, 2×2×2 support at node offsets `{0, 1}`.
    Linear,
    /// Cubic Lagrange, 4×4×4 support at node offsets `{−1, 0, 1, 2}`.
    CubicLagrange,
    /// Cubic B-spline on prefiltered coefficients, same support.
    CubicBspline,
}

impl Stencil {
    /// Node offset of the first tap and the taps per axis.
    #[inline(always)]
    pub(crate) fn reach(self) -> (isize, usize) {
        match self {
            Stencil::Linear => (0, 2),
            Stencil::CubicLagrange | Stencil::CubicBspline => (-1, 4),
        }
    }
}

/// Storage shape of the halo-extended slabs the site kernel reads (a
/// `claire_grid` `GhostField` hands it out): each field holds
/// `stored[0] × stored[1] × stored[2]` values, x3 fastest, and global grid
/// index `u` along axis `a` sits at storage index `u + origin[a]`.
#[derive(Clone, Copy, Debug)]
pub struct HaloDims {
    /// Stored points per axis: the owned extent plus a halo on both sides.
    pub stored: [usize; 3],
    /// Storage index of global grid index 0 along each axis.
    pub origin: [isize; 3],
}

impl HaloDims {
    /// Stored values per field.
    pub fn points(&self) -> usize {
        self.stored.iter().product()
    }
}

/// The part of the generic site loop that differs per arm: the weighted
/// sum over a cubic site's 4×4×4 support,
/// `Σ_{a,b,c} w1[a]·w2[b]·w3[c] · f[base + a·ps + b·rs + c]` for each of
/// the `NF` fields, `ps` and `rs` being the plane and row strides. The
/// caller checks the support against the halo; slice indexing bounds-checks
/// it against the field length.
pub(crate) trait StencilArm<T: Elem>: Copy {
    /// The 64-tap sum of a cubic site.
    fn cubic<const NF: usize>(
        self,
        fields: &[&[T]; NF],
        base: usize,
        ps: usize,
        rs: usize,
        w: &[[T; 4]; 3],
    ) -> [T; NF];
}

/// The specification arm: separate multiply and add, one 64-term
/// left-to-right sum per field.
#[derive(Clone, Copy)]
pub(crate) struct SpecArm;

impl<T: Elem> StencilArm<T> for SpecArm {
    #[inline(always)]
    fn cubic<const NF: usize>(
        self,
        fields: &[&[T]; NF],
        base: usize,
        ps: usize,
        rs: usize,
        w: &[[T; 4]; 3],
    ) -> [T; NF] {
        let mut acc = [T::ZERO; NF];
        for (a, &wa) in w[0].iter().enumerate() {
            for (b, &wb) in w[1].iter().enumerate() {
                let wab = wa * wb;
                let at = base + a * ps + b * rs;
                let rows: [&[T]; NF] = core::array::from_fn(|f| &fields[f][at..at + 4]);
                for (c, &wc) in w[2].iter().enumerate() {
                    let wabc = wab * wc;
                    for (s, row) in acc.iter_mut().zip(&rows) {
                        *s += wabc * row[c];
                    }
                }
            }
        }
        acc
    }
}

/// Row-dot arm (f32 under AVX2): each 4-tap row reduces on its own before
/// the `w1·w2` weight applies, which breaks the 64-long add chain of the
/// specification into vectorizable pieces.
#[derive(Clone, Copy)]
pub(crate) struct RowDotArm;

impl<T: Elem> StencilArm<T> for RowDotArm {
    #[inline(always)]
    fn cubic<const NF: usize>(
        self,
        fields: &[&[T]; NF],
        base: usize,
        ps: usize,
        rs: usize,
        w: &[[T; 4]; 3],
    ) -> [T; NF] {
        let w3 = &w[2];
        let mut acc = [T::ZERO; NF];
        for (a, &wa) in w[0].iter().enumerate() {
            for (b, &wb) in w[1].iter().enumerate() {
                let wab = wa * wb;
                let at = base + a * ps + b * rs;
                for (s, f) in acc.iter_mut().zip(fields) {
                    let row = &f[at..at + 4];
                    *s += wab * (w3[0] * row[0] + w3[1] * row[1] + w3[2] * row[2] + w3[3] * row[3]);
                }
            }
        }
        acc
    }
}

/// The 8-tap sum of a trilinear site, the specification: separate multiply
/// and add, `(w1[a]·w2[b])·w3[c]` per tap, one left-to-right sum per field.
#[inline(always)]
fn linear_sum<T: Elem, const NF: usize>(
    fields: &[&[T]; NF],
    base: usize,
    ps: usize,
    rs: usize,
    w: &[[T; 2]; 3],
) -> [T; NF] {
    let mut acc = [T::ZERO; NF];
    for (a, &wa) in w[0].iter().enumerate() {
        for (b, &wb) in w[1].iter().enumerate() {
            let row = base + a * ps + b * rs;
            for (c, &wc) in w[2].iter().enumerate() {
                let w = wa * wb * wc;
                for (o, f) in acc.iter_mut().zip(fields) {
                    *o += w * f[row + c];
                }
            }
        }
    }
    acc
}

/// Cubic Lagrange weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}`.
#[inline(always)]
fn lagrange_weights<T: Elem>(t: T) -> [T; 4] {
    let t1 = t - T::ONE;
    let t2 = t - T::from_f64(2.0);
    let tp = t + T::ONE;
    [
        -t * t1 * t2 / T::from_f64(6.0),
        tp * t1 * t2 / T::from_f64(2.0),
        -tp * t * t2 / T::from_f64(2.0),
        tp * t * t1 / T::from_f64(6.0),
    ]
}

/// Cubic B-spline basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}` (partition of unity; C² smooth).
#[inline(always)]
fn bspline_weights<T: Elem>(t: T) -> [T; 4] {
    let six = T::from_f64(6.0);
    let three = T::from_f64(3.0);
    let t2 = t * t;
    let t3 = t2 * t;
    let one_m = T::ONE - t;
    [
        one_m * one_m * one_m / six,
        (three * t3 - six * t2 + T::from_f64(4.0)) / six,
        (-three * t3 + three * t2 + three * t + T::ONE) / six,
        t3 / six,
    ]
}

/// A site's support of `taps` nodes from node offset `lo` per axis: the
/// storage index of its first tap and the fraction per axis. The support
/// must lie inside the stored halo — the planner routes each site to the
/// rank that owns its base plane, and the halo covers the stencil from
/// there — so a site outside it is a routing bug, reported here instead of
/// read out of bounds.
#[inline(always)]
pub(crate) fn support<T: Elem>(
    d: &HaloDims,
    s: &[T; 3],
    lo: isize,
    taps: usize,
) -> (usize, [T; 3]) {
    let (mut base, mut t) = (0, [T::ZERO; 3]);
    for (a, (u, ta)) in s.iter().zip(&mut t).enumerate() {
        let b;
        (b, *ta) = u.split_index();
        let p = b + d.origin[a] + lo;
        assert!(
            p >= 0 && p as usize + taps <= d.stored[a],
            "interpolation site x{} support [{p}, {}) outside the slab's {} stored points",
            a + 1,
            p + taps as isize,
            d.stored[a]
        );
        base = base * d.stored[a] + p as usize;
    }
    (base, t)
}

#[inline(always)]
fn linear_site<T: Elem, const NF: usize>(d: &HaloDims, fields: &[&[T]; NF], s: &[T; 3]) -> [T; NF] {
    let (lo, taps) = Stencil::Linear.reach();
    let (base, [t1, t2, t3]) = support(d, s, lo, taps);
    let w = [[T::ONE - t1, t1], [T::ONE - t2, t2], [T::ONE - t3, t3]];
    linear_sum(fields, base, d.stored[1] * d.stored[2], d.stored[2], &w)
}

#[inline(always)]
fn cubic_site<T: Elem, A: StencilArm<T>, const NF: usize>(
    arm: A,
    d: &HaloDims,
    fields: &[&[T]; NF],
    s: &[T; 3],
    weights: impl Fn(T) -> [T; 4],
) -> [T; NF] {
    let (lo, taps) = Stencil::CubicLagrange.reach();
    let (base, [t1, t2, t3]) = support(d, s, lo, taps);
    let w = [weights(t1), weights(t2), weights(t3)];
    arm.cubic(fields, base, d.stored[1] * d.stored[2], d.stored[2], &w)
}

/// Evaluate `NF` fields at every site of a batch and hand each site's
/// values to `sink(i, values)`. Per site the index split and the basis
/// weights are computed once and shared by all fields.
#[inline(always)]
pub(crate) fn interp_sites<T: Elem, A: StencilArm<T>, const NF: usize>(
    arm: A,
    stencil: Stencil,
    d: &HaloDims,
    fields: &[&[T]; NF],
    sites: &[[T; 3]],
    mut sink: impl FnMut(usize, [T; NF]),
) {
    match stencil {
        Stencil::Linear => {
            for (i, s) in sites.iter().enumerate() {
                sink(i, linear_site(d, fields, s));
            }
        }
        Stencil::CubicLagrange => {
            for (i, s) in sites.iter().enumerate() {
                sink(i, cubic_site(arm, d, fields, s, lagrange_weights));
            }
        }
        Stencil::CubicBspline => {
            for (i, s) in sites.iter().enumerate() {
                sink(i, cubic_site(arm, d, fields, s, bspline_weights));
            }
        }
    }
}
