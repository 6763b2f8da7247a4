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
//!   shape `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` (scalar remainder), and
//!   the 64-tap accumulation reduces row by row. Every width keeps the
//!   determinism contract: results depend only on input values and the
//!   selected backend, never on thread count or allocation state.
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
pub(crate) fn scalar_add_scaled_product<T: Elem>(a: T, x: &[T], y: &[T], s: &mut [T]) {
    for ((sv, &xv), &yv) in s.iter_mut().zip(x).zip(y) {
        *sv += a * xv * yv;
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
pub(crate) fn scalar_aypx_norm2<T: Elem>(a: T, x: &[T], y: &mut [T]) -> f64 {
    let mut acc = 0.0f64;
    for (v, &xv) in y.iter_mut().zip(x) {
        *v = a * *v + xv;
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
    let mut m = 0.0f64;
    for &v in x {
        let a = v.to_f64().abs();
        if a > m {
            m = a;
        }
    }
    m
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
pub(crate) fn scalar_lagrange_weights<T: Elem>(t: T) -> [T; 4] {
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

#[inline(always)]
pub(crate) fn scalar_cubic_accumulate<T: Elem>(
    data: &[T],
    base: usize,
    plane_stride: usize,
    row_stride: usize,
    w1: &[T; 4],
    w2: &[T; 4],
    w3: &[T; 4],
) -> T {
    let mut acc = T::ZERO;
    for (a, &wa) in w1.iter().enumerate() {
        let pa = base + a * plane_stride;
        for (b, &wb) in w2.iter().enumerate() {
            let wab = wa * wb;
            let row = &data[pa + b * row_stride..pa + b * row_stride + 4];
            for (c, &wc) in w3.iter().enumerate() {
                acc += wab * wc * row[c];
            }
        }
    }
    acc
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

#[inline(always)]
pub(crate) fn scalar_cpx_conj<T: Elem>(data: &mut [T]) {
    for z in data.chunks_exact_mut(2) {
        z[1] = -z[1];
    }
}

#[inline(always)]
pub(crate) fn scalar_cpx_conj_scale<T: Elem>(data: &mut [T], s: T) {
    // `im · (−s)` is `−im · s` bit for bit; one multiply per element by an
    // alternating constant is the shape the vectorizer handles best
    let ns = -s;
    for (i, v) in data.iter_mut().enumerate() {
        *v *= if i & 1 == 0 { s } else { ns };
    }
}

#[inline(always)]
pub(crate) fn scalar_cpx_radix2_combine<T: Elem>(lo: &mut [T], hi: &mut [T], tw: &[T], ws: usize) {
    let m = lo.len() / 2;
    for k in 0..m {
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

// ----- wide bodies (reordered summation) ----------------------------------

const LANES: usize = 8;

/// Fixed-shape fold of the 8 f64 lane partials.
#[inline(always)]
fn fold_sum(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

#[inline(always)]
fn fold_max(acc: [f64; LANES]) -> f64 {
    let a = acc[0].max(acc[4]).max(acc[2].max(acc[6]));
    let b = acc[1].max(acc[5]).max(acc[3].max(acc[7]));
    a.max(b)
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
pub(crate) fn wide_aypx_norm2<T: Elem>(a: T, x: &[T], y: &mut [T]) -> f64 {
    let (xb, xt) = split(x);
    let (yb, yt) = split_mut(y);
    let mut acc = [0.0f64; LANES];
    for (yc, xc) in yb.chunks_exact_mut(LANES).zip(xb.chunks_exact(LANES)) {
        for ((v, &xv), l) in yc.iter_mut().zip(xc).zip(acc.iter_mut()) {
            *v = a * *v + xv;
            *l += v.to_f64() * v.to_f64();
        }
    }
    let mut r = fold_sum(acc);
    r += scalar_aypx_norm2(a, xt, yt);
    r
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
            let a = v.to_f64().abs();
            if a > *l {
                *l = a;
            }
        }
    }
    fold_max(acc).max(scalar_max_abs(xt))
}

/// Row-dot form of the 64-point accumulation: each 4-tap row reduces on its
/// own before the `w1·w2` weight applies, which breaks the 64-long add
/// chain of the reference loop into vectorizable pieces.
#[inline(always)]
pub(crate) fn wide_cubic_accumulate<T: Elem>(
    data: &[T],
    base: usize,
    plane_stride: usize,
    row_stride: usize,
    w1: &[T; 4],
    w2: &[T; 4],
    w3: &[T; 4],
) -> T {
    let mut acc = T::ZERO;
    for (a, &wa) in w1.iter().enumerate() {
        let pa = base + a * plane_stride;
        for (b, &wb) in w2.iter().enumerate() {
            let row = &data[pa + b * row_stride..pa + b * row_stride + 4];
            let wab = wa * wb;
            acc += wab * (w3[0] * row[0] + w3[1] * row[1] + w3[2] * row[2] + w3[3] * row[3]);
        }
    }
    acc
}
