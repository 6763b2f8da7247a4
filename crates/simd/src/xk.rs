//! Kernel bodies, written once: generic over the element width for the
//! [`Elem`] kernels, at f64 for interpolation and FD.
//!
//! Every kernel dispatches to one of the bodies here:
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
//! * the batched interpolation kernel ([`interp_sites`]) and the split
//!   that prepares its sites ([`split_sites`]) are the scalar backend's
//!   site loops, the specification. The AVX2 arms are not these bodies:
//!   `avx2::f64k::{split_sites, interp_sites}` walk a batch four sites per
//!   step in intrinsics, sharing [`support`] (the out-of-halo panic) and
//!   [`Taps`] (where a stencil's taps sit, and their bounds check) with the
//!   loops here.
//!
//! The bodies are `#[inline(always)]`: the AVX2 arm is a body inlined into
//! a `#[target_feature(enable = "avx2,fma")]` wrapper (see `avx2`), where
//! the autovectorizer emits full-width code for either element width
//! without a second hand-written intrinsics file. Rust never contracts
//! `a·b + c` on its own, so a body computes the same bits under either
//! instruction set; element-wise kernels therefore need no second body
//! (a chunked copy measured no faster, and up to 3× slower at f32).

use crate::{Elem, RowBlock, SiteOut};

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
pub(crate) fn scalar_fd8_rows(
    out: &mut [f64],
    src: &[f64],
    b: RowBlock,
    step: usize,
    c: &[f64; 4],
    scale: f64,
    add: bool,
) {
    for (r, row) in out.chunks_exact_mut(b.len).enumerate() {
        let at = b.at + r * b.stride;
        for (k, o) in row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (m, &cm) in c.iter().enumerate() {
                let d = (m + 1) * step;
                acc += cm * (src[at + k + d] - src[at + k - d]);
            }
            *o = if add { *o + acc * scale } else { acc * scale };
        }
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

/// Basis of the batched site kernel ([`crate::interp_sites`]).
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// The 64-tap sum of a cubic site, the specification:
/// `Σ_{a,b,c} w1[a]·w2[b]·w3[c] · f[base + a·ps + b·rs + c]` for each of
/// the `NF` fields, `ps` and `rs` being the plane and row strides, with
/// separate multiply and add, `(w1[a]·w2[b])·w3[c]` per tap and one 64-term
/// left-to-right sum per field. The caller checks the support against the
/// halo; slice indexing bounds-checks it against the field length.
#[inline(always)]
fn cubic_sum<const NF: usize>(
    fields: &[&[f64]; NF],
    base: usize,
    ps: usize,
    rs: usize,
    w: &[[f64; 4]; 3],
) -> [f64; NF] {
    let mut acc = [0.0; NF];
    for (a, &wa) in w[0].iter().enumerate() {
        for (b, &wb) in w[1].iter().enumerate() {
            let wab = wa * wb;
            let at = base + a * ps + b * rs;
            let rows: [&[f64]; NF] = core::array::from_fn(|f| &fields[f][at..at + 4]);
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

/// The 8-tap sum of a trilinear site, the specification: separate multiply
/// and add, `(w1[a]·w2[b])·w3[c]` per tap, one left-to-right sum per field.
#[inline(always)]
fn linear_sum<const NF: usize>(
    fields: &[&[f64]; NF],
    base: usize,
    ps: usize,
    rs: usize,
    w: &[[f64; 2]; 3],
) -> [f64; NF] {
    let mut acc = [0.0; NF];
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
fn lagrange_weights(t: f64) -> [f64; 4] {
    let t1 = t - 1.0;
    let t2 = t - 2.0;
    let tp = t + 1.0;
    [-t * t1 * t2 / 6.0, tp * t1 * t2 / 2.0, -tp * t * t2 / 2.0, tp * t * t1 / 6.0]
}

/// Cubic B-spline basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}` (partition of unity; C² smooth).
#[inline(always)]
fn bspline_weights(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    let one_m = 1.0 - t;
    [
        one_m * one_m * one_m / 6.0,
        (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
        (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
        t3 / 6.0,
    ]
}

/// Split a continuous grid index into its integer base `⌊u⌋` and the
/// fraction `u − ⌊u⌋ ∈ [0, 1)` (base 0 and fraction NaN for a NaN `u`).
#[inline(always)]
fn split_index(u: f64) -> (isize, f64) {
    let f = u.floor();
    (f as isize, u - f)
}

/// The support every split is checked for: the widest stencil's, so that a
/// split site serves every [`Stencil`] (the trilinear taps `{0, 1}` lie
/// inside the cubic `{−1, 0, 1, 2}`).
pub(crate) const SPLIT_REACH: (isize, usize) = (-1, 4);

/// A site's split: the storage index of its floor node `⌊u⌋` and its
/// fraction per axis. The [`SPLIT_REACH`] support around the floor node
/// must lie inside the stored halo — the planner routes each site to the
/// rank that owns its base plane, and the halo covers the stencil from
/// there — so a site outside it is a routing bug, reported here instead of
/// read out of bounds later.
#[inline(always)]
pub(crate) fn support(d: &HaloDims, s: &[f64; 3]) -> (usize, [f64; 3]) {
    let (lo, taps) = SPLIT_REACH;
    let (mut node, mut t) = (0, [0.0; 3]);
    for (a, (&u, ta)) in s.iter().zip(&mut t).enumerate() {
        let b;
        (b, *ta) = split_index(u);
        let p = b + d.origin[a] + lo;
        assert!(
            p >= 0 && p as usize + taps <= d.stored[a],
            "interpolation site x{} support [{p}, {}) outside the slab's {} stored points",
            a + 1,
            p + taps as isize,
            d.stored[a]
        );
        node = node * d.stored[a] + (p - lo) as usize;
    }
    (node, t)
}

/// The split of a batch, the specification: each site becomes its
/// fractions in place and its floor node's storage index goes to `nodes`.
#[inline(always)]
pub(crate) fn split_sites(d: &HaloDims, sites: &mut [[f64; 3]], nodes: &mut [u32]) {
    for (s, n) in sites.iter_mut().zip(nodes) {
        let node;
        (node, *s) = support(d, s);
        *n = node as u32;
    }
}

/// Where a stencil's taps sit relative to a site's floor node in a halo:
/// the first tap is `back` values before the node, and a first tap at most
/// `limit` keeps every tap inside a field of `d.points()` values.
#[derive(Clone, Copy)]
pub(crate) struct Taps {
    /// Plane stride.
    pub(crate) ps: usize,
    /// Row stride.
    pub(crate) rs: usize,
    back: usize,
    limit: usize,
}

impl Taps {
    #[inline(always)]
    pub(crate) fn new(stencil: Stencil, d: &HaloDims) -> Taps {
        let [_, s2, s3] = d.stored;
        let (ps, rs) = (s2 * s3, s3);
        let (lo, taps) = stencil.reach();
        // one step along every axis at once
        let diagonal = ps + rs + 1;
        let span = (taps - 1) * diagonal + 1;
        let limit =
            d.points().checked_sub(span).expect("interp_sites: halo smaller than a stencil");
        Taps { ps, rs, back: lo.unsigned_abs() * diagonal, limit }
    }

    /// Storage index of the first tap of the site whose floor node is at
    /// `node`. A node whose taps would leave the halo panics: a split keeps
    /// nodes inside, so this guards only against indices made elsewhere.
    #[inline(always)]
    pub(crate) fn first(&self, node: u32) -> usize {
        let at = (node as usize).wrapping_sub(self.back);
        assert!(at <= self.limit, "interp_sites: node {node} has taps outside the halo");
        at
    }
}

/// Evaluate `NF` fields at every split site of a batch — floor node
/// `nodes[i]`, fractions `frac[i]` — and store each site's values in `out`,
/// one site at a time. Per site the basis weights are computed once and
/// shared by all fields.
#[inline(always)]
pub(crate) fn interp_sites<const NF: usize>(
    stencil: Stencil,
    d: &HaloDims,
    fields: &[&[f64]; NF],
    nodes: &[u32],
    frac: &[[f64; 3]],
    out: &mut SiteOut<'_, NF>,
) {
    let tap = Taps::new(stencil, d);
    let sites = nodes.iter().zip(frac).enumerate();
    match stencil {
        Stencil::Linear => {
            for (i, (&n, &[t1, t2, t3])) in sites {
                let w = [[1.0 - t1, t1], [1.0 - t2, t2], [1.0 - t3, t3]];
                out.put(i, linear_sum(fields, tap.first(n), tap.ps, tap.rs, &w));
            }
        }
        Stencil::CubicLagrange => {
            for (i, (&n, t)) in sites {
                let w = t.map(lagrange_weights);
                out.put(i, cubic_sum(fields, tap.first(n), tap.ps, tap.rs, &w));
            }
        }
        Stencil::CubicBspline => {
            for (i, (&n, t)) in sites {
                let w = t.map(bspline_weights);
                out.put(i, cubic_sum(fields, tap.first(n), tap.ps, tap.rs, &w));
            }
        }
    }
}
