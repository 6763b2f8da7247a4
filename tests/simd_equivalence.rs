//! Tier-1 SIMD equivalence gate: the vectorized backend must agree with
//! the scalar reference on every kernel at both element widths, and the
//! end-to-end solver must be insensitive to the backend choice.
//!
//! Three layers:
//! - one harness generic over `T: Elem`, driven by proptest at `f64` and
//!   `f32` with random sizes — including ragged tails (`n % 8 != 0`) and
//!   sub-vector lengths: every `claire-simd` kernel must agree across
//!   backends to ≤ 1e-12 (f64) / ≤ 1e-5 (f32) relative — the contract is one
//!   FMA rounding or a different fold order, never a different algorithm —
//!   and must return identical results when rerun on the same backend. On
//!   the scalar backend the fused update+reduction kernels must additionally
//!   equal their unfused pairs bit for bit;
//! - an oracle for the interpolation site kernel that does not lean on the
//!   scalar backend: every backend must reproduce the polynomials its basis
//!   reproduces and return each tap's textbook weight for an impulse;
//! - a smoke registration solve under `CLAIRE_SIMD=scalar` and `=auto` must
//!   reach the same Gauss–Newton iteration count and the same final
//!   mismatch to 6 significant digits.
//!
//! The backend override is process-global, so every test serializes on one
//! mutex before flipping it. On hosts without AVX2+FMA the `avx2` side
//! resolves to scalar and the comparisons pass trivially.

use std::fmt::Debug;
use std::sync::Mutex;

use claire::grid::ghost;
use claire::prelude::*;
use claire_simd::{Choice, Elem, HaloDims, Stencil, Stockham};
use proptest::prelude::*;

/// Serializes backend flips across this binary's tests.
static LOCK: Mutex<()> = Mutex::new(());

/// Every dispatch arm.
const ALL_BACKENDS: [Choice; 2] = [Choice::Scalar, Choice::Avx2];

/// Run `f` twice under each backend, holding the flip lock so concurrent
/// tests cannot observe a half-flipped state. The two runs on one backend
/// must be identical (rerun determinism); returns (scalar, avx2) results.
fn both<R: PartialEq + Debug>(mut f: impl FnMut() -> R) -> (R, R) {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let [s, v] = ALL_BACKENDS.map(|choice| {
        claire_simd::force_backend(Some(choice));
        let (first, again) = (f(), f());
        assert_eq!(first, again, "{choice:?} must be deterministic run to run");
        first
    });
    claire_simd::force_backend(None);
    (s, v)
}

/// Cross-backend relative tolerance of the element width.
fn tol<T: Elem>() -> f64 {
    if std::mem::size_of::<T>() == 8 {
        1e-12
    } else {
        1e-5
    }
}

fn assert_close<T: Elem>(simd: f64, scalar: f64, what: &str) {
    let bound = tol::<T>() * scalar.abs().max(1.0);
    let diff = (simd - scalar).abs();
    assert!(diff <= bound, "{what} [{}]: scalar {scalar} vs simd {simd} (diff {diff})", T::LABEL);
}

fn assert_slices_close<T: Elem>(simd: &[T], scalar: &[T], what: &str) {
    assert_eq!(simd.len(), scalar.len());
    for (i, (&x, &y)) in simd.iter().zip(scalar).enumerate() {
        assert_close::<T>(x.to_f64(), y.to_f64(), &format!("{what}[{i}]"));
    }
}

/// Deterministic value stream (SplitMix64) so each proptest case derives
/// its vectors from a sampled `seed` — the vendored proptest shim only
/// samples scalars from ranges.
fn fill<T: Elem>(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x517C_C1B7_2722_0A95);
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            let u = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            T::from_f64(lo + u * (hi - lo))
        })
        .collect()
}

/// Fused update+reduction kernels vs. their unfused pairs: bit-identical on
/// the scalar backend (same per-element expression, same left-to-right
/// reduction order), within tolerance on the vector arm.
fn check_fused<T: Elem>(n: usize, seed: u64, a: f64) {
    let a = T::from_f64(a);
    let x = fill::<T>(seed, n, -100.0, 100.0);
    let y = fill::<T>(seed + 1, n, -100.0, 100.0);
    let (unfused, _) = both(|| {
        let mut ya = y.clone();
        T::kaxpy(a, &x, &mut ya);
        let da = T::kdot(&ya, &ya);
        let mut o = y.clone();
        T::kscale(a, &mut o);
        T::kaxpy(T::ONE, &x, &mut o); // o = a·y + x
        let ds = T::kdot(&o, &o);
        (ya, da, o, ds)
    });
    let (fused, fused_simd) = both(|| {
        let mut ya = y.clone();
        let da = T::kaxpy_dot(a, &x, &mut ya);
        let mut o = vec![T::ZERO; n];
        let ds = T::kscale_add_norm(a, &y, &x, &mut o);
        (ya, da, o, ds)
    });
    assert_eq!(fused, unfused, "scalar fused kernels must equal their unfused pairs bitwise");
    assert_slices_close(&fused_simd.0, &fused.0, "axpy_dot data");
    assert_close::<T>(fused_simd.1, fused.1, "axpy_dot reduction");
    assert_slices_close(&fused_simd.2, &fused.2, "scale_add_norm data");
    assert_close::<T>(fused_simd.3, fused.3, "scale_add_norm reduction");
}

fn check_elementwise<T: Elem>(n: usize, seed: u64, a: f64) {
    let a = T::from_f64(a);
    let x = fill::<T>(seed, n, -100.0, 100.0);
    let y = fill::<T>(seed + 1, n, -100.0, 100.0);
    let (r_scalar, r_simd) = both(|| {
        let mut ys = y.clone();
        T::kscale(a, &mut ys);
        let mut ya = y.clone();
        T::kaxpy(a, &x, &mut ya);
        let mut yp = y.clone();
        T::kaypx(a, &x, &mut yp);
        (ys, ya, yp)
    });
    // the scalar arm is the pre-SIMD loop: separate multiply and add
    let axpy_ref: Vec<T> = x.iter().zip(&y).map(|(&xv, &yv)| yv + a * xv).collect();
    assert_eq!(r_scalar.1, axpy_ref, "scalar axpy must match the reference loop bitwise");
    assert_slices_close(&r_simd.0, &r_scalar.0, "scale");
    assert_slices_close(&r_simd.1, &r_scalar.1, "axpy");
    assert_slices_close(&r_simd.2, &r_scalar.2, "aypx");
}

fn check_reductions<T: Elem>(n: usize, seed: u64) {
    let x = fill::<T>(seed, n, -100.0, 100.0);
    let y = fill::<T>(seed + 1, n, -100.0, 100.0);
    let (r_scalar, r_simd) = both(|| (T::kdot(&x, &y), T::ksum(&x), T::kmax_abs(&x)));
    let dot_ref: f64 = x.iter().zip(&y).map(|(&a, &b)| a.to_f64() * b.to_f64()).sum();
    assert_eq!(r_scalar.0, dot_ref, "scalar dot must be the left-to-right f64 sum");
    assert_close::<T>(r_simd.0, r_scalar.0, "dot");
    assert_close::<T>(r_simd.1, r_scalar.1, "sum");
    assert_close::<T>(r_simd.2, r_scalar.2, "max_abs");
}

/// The scaled fd8 combine (`inv_h·s` folded into one sweep) must match
/// combine-then-scale on every backend.
fn check_fd8<T: Elem>(n: usize, seed: u64, inv_h: f64, s: f64) {
    let (inv_h, s) = (T::from_f64(inv_h), T::from_f64(s));
    let rows: Vec<Vec<T>> = (0..8).map(|r| fill(seed + r, n, -100.0, 100.0)).collect();
    let cv = fill::<T>(seed + 8, 4, -1.0, 1.0);
    let c = [cv[0], cv[1], cv[2], cv[3]];
    let plus: [&[T]; 4] = [&rows[0], &rows[1], &rows[2], &rows[3]];
    let minus: [&[T]; 4] = [&rows[4], &rows[5], &rows[6], &rows[7]];
    let (reference, _) = both(|| {
        let mut out = vec![T::ZERO; n];
        T::kfd8_combine_scale(&mut out, &plus, &minus, &c, inv_h, T::ONE);
        T::kscale(s, &mut out);
        out
    });
    let (f_scalar, f_simd) = both(|| {
        let mut out = vec![T::ZERO; n];
        T::kfd8_combine_scale(&mut out, &plus, &minus, &c, inv_h, s);
        out
    });
    assert_slices_close(&f_scalar, &reference, "fd8_combine_scale [scalar]");
    assert_slices_close(&f_simd, &reference, "fd8_combine_scale [avx2]");
}

/// The shape of the interpolation halo of a serial slab of `n` points.
fn halo_dims(n: [usize; 3]) -> HaloDims {
    ghost::GhostField::alloc(Layout::serial(Grid::new(n)), IpOrder::GHOST_WIDTH).dims()
}

const STENCILS: [Stencil; 3] = [Stencil::Linear, Stencil::CubicLagrange, Stencil::CubicBspline];

/// Every site's values of `NF` fields through the batched kernel.
fn eval_sites<T: Elem, const NF: usize>(
    stencil: Stencil,
    dims: &HaloDims,
    fields: &[&[T]; NF],
    sites: &[[T; 3]],
) -> Vec<[T; NF]> {
    let mut out = vec![[T::ZERO; NF]; sites.len()];
    T::kinterp_sites(stencil, dims, fields, sites, |i, v| out[i] = v);
    out
}

/// `count` random sites inside the owned extent `[3, n2, n3]`.
fn random_sites<T: Elem>(n2: usize, n3: usize, seed: u64, count: usize) -> Vec<[T; 3]> {
    let ext = [3.0, n2 as f64, n3 as f64];
    let frac = fill::<f64>(seed, 3 * count, 0.0, 0.999);
    frac.chunks_exact(3).map(|c| std::array::from_fn(|d| T::from_f64(c[d] * ext[d]))).collect()
}

/// The batched site kernel on a 3-plane slab with width-2 halos: the vector
/// arm agrees with the scalar one for every stencil, and within a backend a
/// field's values do not depend on which fields it is evaluated with.
fn check_interp<T: Elem>(n2: usize, n3: usize, seed: u64) {
    let dims = halo_dims([3, n2, n3]);
    let fields: [Vec<T>; 3] =
        std::array::from_fn(|f| fill(seed + f as u64, dims.points(), -1.0, 1.0));
    let data = [&fields[0][..], &fields[1][..], &fields[2][..]];
    // random interior points, points on nodes, and every periodic seam
    let mut sites = random_sites::<T>(n2, n3, seed + 3, 16);
    for &u2 in &[0.0, 0.4, 1.0, n2 as f64 - 2.0, n2 as f64 - 1.5, n2 as f64 - 0.25] {
        for &u3 in &[0.0, 0.7, n3 as f64 - 1.75, n3 as f64 - 1.0, n3 as f64 - 0.5] {
            sites.push([1.25, u2, u3].map(T::from_f64));
        }
    }
    for stencil in STENCILS {
        let what = format!("interp_sites {stencil:?}");
        let (s3, v3) = both(|| eval_sites(stencil, &dims, &data, &sites));
        assert_slices_close(v3.as_flattened(), s3.as_flattened(), &what);
        let (s1, v1) = both(|| eval_sites(stencil, &dims, &[data[1]], &sites));
        let middle = |vals: &[[T; 3]]| vals.iter().map(|v| [v[1]]).collect::<Vec<[T; 1]>>();
        assert_eq!(s1, middle(&s3), "{what} [scalar]: grouping changed a field's bits");
        assert_eq!(v1, middle(&v3), "{what} [avx2]: grouping changed a field's bits");
    }
}

/// A stencil's basis along one axis at fraction `t`, from the textbook
/// definitions rather than the kernel's expanded weights: the hat function,
/// the Lagrange product `Π_{m≠k} (t − m)/(k − m)` and the centred cubic
/// B-spline `B3(t − k)`, one `(node offset k, weight)` per tap.
fn basis(stencil: Stencil, t: f64) -> Vec<(isize, f64)> {
    let b3 = |x: f64| match x.abs() {
        x if x < 1.0 => (4.0 - 6.0 * x * x + 3.0 * x * x * x) / 6.0,
        x if x < 2.0 => (2.0 - x).powi(3) / 6.0,
        _ => 0.0,
    };
    let nodes = |k: isize| (k, t - k as f64);
    match stencil {
        Stencil::Linear => (0..2).map(nodes).map(|(k, x)| (k, 1.0 - x.abs())).collect(),
        Stencil::CubicLagrange => (-1..3)
            .map(|k| {
                let others = (-1..3).filter(|&m| m != k);
                (k, others.map(|m| (t - m as f64) / (k - m) as f64).product())
            })
            .collect(),
        Stencil::CubicBspline => (-1..3).map(nodes).map(|(k, x)| (k, b3(x))).collect(),
    }
}

/// Impulse response: a field that is 1 at one tap of a site's support and 0
/// elsewhere evaluates to that tap's `w1[a]·w2[b]·w3[c]`, for every tap of
/// every stencil, on every backend, alone (NF = 1) and with two other
/// fields whose impulses sit at the next two taps (NF = 3). A swapped plane
/// or row stride, or a dropped partial, fails at one named tap.
fn check_impulse<T: Elem>(n2: usize, n3: usize, seed: u64) {
    let dims = halo_dims([3, n2, n3]);
    let [_, s2, s3] = dims.stored;
    for site in random_sites::<T>(n2, n3, seed, 3) {
        let u = site.map(|x| x.to_f64());
        for stencil in STENCILS {
            let w: [Vec<(isize, f64)>; 3] =
                std::array::from_fn(|a| basis(stencil, u[a] - u[a].floor()));
            let first: [usize; 3] = std::array::from_fn(|a| {
                (u[a].floor() as isize + dims.origin[a] + w[a][0].0) as usize
            });
            let m = w[0].len();
            let taps: Vec<[usize; 3]> =
                (0..m * m * m).map(|i| [i / (m * m), i / m % m, i % m]).collect();
            let at =
                |[a, b, c]: [usize; 3]| ((first[0] + a) * s2 + first[1] + b) * s3 + first[2] + c;
            let want = |[a, b, c]: [usize; 3]| w[0][a].1 * w[1][b].1 * w[2][c].1;
            for i in 0..taps.len() {
                let tap: [[usize; 3]; 3] = std::array::from_fn(|f| taps[(i + f) % taps.len()]);
                let fields: [Vec<T>; 3] = std::array::from_fn(|f| {
                    let mut v = vec![T::ZERO; dims.points()];
                    v[at(tap[f])] = T::ONE;
                    v
                });
                let three = [&fields[0][..], &fields[1][..], &fields[2][..]];
                let (s3v, v3v) = both(|| eval_sites(stencil, &dims, &three, &[site])[0]);
                let (s1v, v1v) = both(|| eval_sites(stencil, &dims, &[three[0]], &[site])[0]);
                for (backend, got3, got1) in [("scalar", s3v, s1v), ("avx2", v3v, v1v)] {
                    for (f, got, nf) in
                        [(0, got1[0], 1), (0, got3[0], 3), (1, got3[1], 3), (2, got3[2], 3)]
                    {
                        let (got, want) = (got.to_f64(), want(tap[f]));
                        assert!(
                            (got - want).abs() <= tol::<T>(),
                            "{stencil:?} [{}] {backend} NF={nf} field {f}: tap {:?} at site {u:?} \
                             gives {got}, its weight is {want}",
                            T::LABEL,
                            tap[f]
                        );
                    }
                }
            }
        }
    }
}

/// Polynomial reproduction: on a slab filled with a tensor-product
/// polynomial of the (normalized) storage index, cubic Lagrange reproduces
/// per-axis degree ≤ 3 and trilinear and the cubic B-spline per-axis degree
/// ≤ 1 at random sites, on every backend, for NF = 1 and 3, to the width's
/// tolerance relative to the field's max.
fn check_polynomials<T: Elem>(n2: usize, n3: usize, seed: u64) {
    let dims = halo_dims([3, n2, n3]);
    let [_, s2, s3] = dims.stored;
    let sites = random_sites::<T>(n2, n3, seed, 16);
    for (stencil, degree) in
        [(Stencil::Linear, 1), (Stencil::CubicLagrange, 3), (Stencil::CubicBspline, 1)]
    {
        let coef: [[Vec<f64>; 3]; 3] = std::array::from_fn(|f| {
            std::array::from_fn(|a| fill(seed + 1 + (3 * f + a) as u64, degree + 1, -1.0, 1.0))
        });
        let poly = |f: usize, q: [f64; 3]| -> f64 {
            (0..3)
                .map(|a| {
                    let x = q[a] / dims.stored[a] as f64;
                    coef[f][a].iter().rev().fold(0.0, |acc, &c| acc * x + c)
                })
                .product()
        };
        let fields: [Vec<T>; 3] = std::array::from_fn(|f| {
            let q = |i: usize| [i / (s2 * s3), i / s3 % s2, i % s3].map(|x| x as f64);
            (0..dims.points()).map(|i| T::from_f64(poly(f, q(i)))).collect()
        });
        let largest: [f64; 3] =
            std::array::from_fn(|f| fields[f].iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max));
        let three = [&fields[0][..], &fields[1][..], &fields[2][..]];
        let (s3v, v3v) = both(|| eval_sites(stencil, &dims, &three, &sites));
        let (s1v, v1v) = both(|| eval_sites(stencil, &dims, &[three[0]], &sites));
        for (backend, got3, got1) in [("scalar", &s3v, &s1v), ("avx2", &v3v, &v1v)] {
            for (i, site) in sites.iter().enumerate() {
                let q: [f64; 3] = std::array::from_fn(|a| site[a].to_f64() + dims.origin[a] as f64);
                for (f, got, nf) in
                    [(0, got1[i][0], 1), (0, got3[i][0], 3), (1, got3[i][1], 3), (2, got3[i][2], 3)]
                {
                    let (got, want) = (got.to_f64(), poly(f, q));
                    assert!(
                        (got - want).abs() <= tol::<T>() * largest[f],
                        "{stencil:?} [{}] {backend} NF={nf} field {f}: degree {degree} at site \
                         {site:?} gives {got}, the polynomial is {want}",
                        T::LABEL
                    );
                }
            }
        }
    }
}

/// Every value's bits (promoted to f64, which is exact), so that −0 and +0
/// differ and a NaN equals itself.
fn bits<T: Elem, const NF: usize>(vals: &[[T; NF]]) -> Vec<[u64; NF]> {
    vals.iter().map(|v| v.map(|x| x.to_f64().to_bits())).collect()
}

/// A site's bits do not depend on where it sits in a batch: on every
/// backend, for every stencil and NF ∈ {1, 2, 3}, the suffixes
/// `sites[k..]` (k = 1..3, which moves each site through every lane of a
/// 4-site block and every tail length) and each site alone evaluate to the
/// bits of the whole batch.
fn check_positions<T: Elem>(n2: usize, n3: usize, seed: u64, count: usize) {
    let dims = halo_dims([3, n2, n3]);
    let fields: [Vec<T>; 3] =
        std::array::from_fn(|f| fill(seed + f as u64, dims.points(), -1.0, 1.0));
    let [f0, f1, f2] = [&fields[0][..], &fields[1][..], &fields[2][..]];
    let sites = random_sites::<T>(n2, n3, seed + 3, count);
    for stencil in STENCILS {
        positions(stencil, &dims, &[f0], &sites);
        positions(stencil, &dims, &[f0, f1], &sites);
        positions(stencil, &dims, &[f0, f1, f2], &sites);
    }
}

fn positions<T: Elem, const NF: usize>(
    stencil: Stencil,
    dims: &HaloDims,
    fields: &[&[T]; NF],
    sites: &[[T; 3]],
) {
    let (scalar, simd) = both(|| {
        let whole = bits(&eval_sites(stencil, dims, fields, sites));
        let suffixes: Vec<_> = (1..sites.len().min(4))
            .map(|k| bits(&eval_sites(stencil, dims, fields, &sites[k..])))
            .collect();
        let alone: Vec<_> = sites
            .iter()
            .map(|s| bits(&eval_sites(stencil, dims, fields, std::slice::from_ref(s)))[0])
            .collect();
        (whole, suffixes, alone)
    });
    for (backend, (whole, suffixes, alone)) in [("scalar", scalar), ("avx2", simd)] {
        let what = format!("{stencil:?} [{}] {backend} NF={NF}", T::LABEL);
        for (k, suffix) in (1..).zip(&suffixes) {
            assert_eq!(suffix[..], whole[k..], "{what}: sites[{k}..] changed a site's bits");
        }
        assert_eq!(alone, whole, "{what}: a site alone has other bits than in its batch");
    }
}

fn check_complex<T: Elem>(m: usize, seed: u64) {
    let a = fill::<T>(seed, 2 * m, -100.0, 100.0);
    let b = fill::<T>(seed + 1, 2 * m, -100.0, 100.0);
    let (r_scalar, r_simd) = both(|| {
        let mut d = a.clone();
        T::kcpx_mul(&mut d, &b);
        let mut o = vec![T::ZERO; a.len()];
        T::kcpx_mul_into(&mut o, &a, &b);
        (d, o)
    });
    let mul_ref: Vec<T> = a
        .chunks_exact(2)
        .zip(b.chunks_exact(2))
        .flat_map(|(x, y)| [x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]])
        .collect();
    assert_eq!(r_scalar.0, mul_ref, "scalar cpx_mul must match the textbook product bitwise");
    assert_slices_close(&r_simd.0, &r_scalar.0, "cpx_mul");
    assert_slices_close(&r_simd.1, &r_scalar.1, "cpx_mul_into");
}

/// The FFT lanes kernels — the complex column pass in both directions and
/// the real row passes — on a batch of `lines` lines of a `[n][lines + pad]`
/// array. The AVX2 registers fuse multiply-adds and the scalar backend does
/// not, so the backends agree to the FFT's accuracy contract (relative to
/// the largest output), not bit for bit; columns outside the batch keep
/// their bits on both.
fn check_fft_lanes<T: Elem>(n: usize, lines: usize, pad: usize, seed: u64) {
    let plan = Stockham::<T>::new(n).expect("smooth length");
    let stride = lines + pad;
    let data = fill::<T>(seed, 2 * n * stride, -1.0, 1.0);
    let real = fill::<T>(seed + 1, lines * 2 * n, -1.0, 1.0);
    let w: Vec<T> = (0..=n)
        .flat_map(|k| {
            let theta = -std::f64::consts::PI * k as f64 / n as f64;
            [T::from_f64(theta.cos()), T::from_f64(theta.sin())]
        })
        .collect();
    let (scalar, simd) = both(|| {
        let mut scratch = vec![std::mem::MaybeUninit::uninit(); plan.scratch_len(lines)];
        let [fwd, inv] = [false, true].map(|inverse| {
            let mut z = data.clone();
            // SAFETY: `z` is the whole `[n][stride]` array and `lines <= stride`.
            unsafe { T::kfft_cols(&plan, inverse, z.as_mut_ptr(), stride, lines, &mut scratch) };
            z
        });
        let mut spec = vec![T::ZERO; lines * (2 * n + 2)];
        T::kfft_r2c(&plan, &w, &real, &mut spec, &mut scratch);
        let mut back = vec![T::ZERO; real.len()];
        T::kfft_c2r(&plan, &w, &spec, &mut back, &mut scratch);
        [fwd, inv, spec, back]
    });
    for (what, (s, v)) in
        ["cols forward", "cols inverse", "r2c", "c2r"].iter().zip(scalar.iter().zip(&simd))
    {
        let largest = s.iter().map(|x| x.to_f64().abs()).fold(1.0, f64::max);
        for (i, (a, b)) in s.iter().zip(v).enumerate() {
            let d = (a.to_f64() - b.to_f64()).abs();
            assert!(d <= tol::<T>() * largest, "fft {what} n={n} lines={lines} at {i}: {a} vs {b}");
        }
    }
    for out in scalar.iter().chain(&simd).take(2) {
        for (row, orig) in out.chunks_exact(2 * stride).zip(data.chunks_exact(2 * stride)) {
            assert_eq!(row[2 * lines..], orig[2 * lines..], "fft cols wrote outside its batch");
        }
    }
    let drift = scalar[3].iter().zip(&real).map(|(a, b)| (a.to_f64() - b.to_f64()).abs());
    assert!(drift.fold(0.0, f64::max) <= 10.0 * tol::<T>(), "c2r(r2c(x)) must return x");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // n in 0..131 sweeps full 8-lane chunks, ragged tails, and sub-vector
    // lengths for every kernel below, at both element widths.

    #[test]
    fn fused_kernels_match_unfused(n in 0usize..131, seed in 0u64..1_000_000, a in -3.0f64..3.0) {
        check_fused::<f64>(n, seed, a);
        check_fused::<f32>(n, seed, a);
    }

    #[test]
    fn elementwise_ops_match(n in 0usize..131, seed in 0u64..1_000_000, a in -3.0f64..3.0) {
        check_elementwise::<f64>(n, seed, a);
        check_elementwise::<f32>(n, seed, a);
    }

    #[test]
    fn reductions_match(n in 0usize..131, seed in 0u64..1_000_000) {
        check_reductions::<f64>(n, seed);
        check_reductions::<f32>(n, seed);
    }

    #[test]
    fn fd8_combine_scale_matches(
        n in 0usize..131,
        seed in 0u64..1_000_000,
        inv_h in 0.1f64..10.0,
        s in -4.0f64..4.0,
    ) {
        check_fd8::<f64>(n, seed, inv_h, s);
        check_fd8::<f32>(n, seed, inv_h, s);
    }

    #[test]
    fn interp_kernels_match(n2 in 2usize..9, n3 in 2usize..9, seed in 0u64..1_000_000) {
        check_interp::<f64>(n2, n3, seed);
        check_interp::<f32>(n2, n3, seed);
    }

    #[test]
    fn interp_reproduces_polynomials(n2 in 2usize..9, n3 in 2usize..9, seed in 0u64..1_000_000) {
        check_polynomials::<f64>(n2, n3, seed);
        check_polynomials::<f32>(n2, n3, seed);
    }

    #[test]
    fn interp_impulse_returns_the_tap_weight(
        n2 in 2usize..9,
        n3 in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        check_impulse::<f64>(n2, n3, seed);
        check_impulse::<f32>(n2, n3, seed);
    }

    #[test]
    fn interp_bits_do_not_depend_on_batch_position(
        n2 in 2usize..9,
        n3 in 2usize..9,
        seed in 0u64..1_000_000,
        count in 1usize..20,
    ) {
        check_positions::<f64>(n2, n3, seed, count);
        check_positions::<f32>(n2, n3, seed, count);
    }

    #[test]
    fn complex_kernels_match(m in 0usize..131, seed in 0u64..1_000_000) {
        check_complex::<f64>(m, seed);
        check_complex::<f32>(m, seed);
    }

    #[test]
    fn fft_lanes_kernels_match(
        pick in 0usize..14,
        lines in 1usize..60,
        pad in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [1usize, 2, 3, 4, 5, 6, 8, 12, 15, 16, 20, 32, 45, 64][pick];
        check_fft_lanes::<f64>(n, lines, pad, seed);
        check_fft_lanes::<f32>(n, lines, pad, seed);
    }
}

/// On the scalar backend the batched kernel *is* the per-query reference
/// evaluator (`interp_ghost`), bit for bit, for every order — the reference
/// the planned path's property tests lean on; the vector arm tracks it.
#[test]
fn scalar_site_kernel_equals_the_reference_evaluator() {
    use claire::interp::kernel::{interp_ghost, to_site};
    let grid = Grid::new([6, 5, 7]);
    let f =
        ScalarField::from_fn(Layout::serial(grid), |x, y, z| (x + 0.3).sin() * (2.0 * y).cos() + z);
    let gf = ghost::exchange(&f, IpOrder::GHOST_WIDTH, &mut Comm::solo());
    let dims = gf.dims();
    let points: Vec<[Real; 3]> =
        fill::<f64>(17, 3 * 200, -7.0, 14.0).chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let sites: Vec<[Real; 3]> = points.iter().map(|&x| to_site(x, grid.n)).collect();
    for order in [IpOrder::Linear, IpOrder::Cubic, IpOrder::CubicSpline] {
        let (scalar, simd) = both(|| {
            let mut out = vec![0.0; sites.len()];
            Real::kinterp_sites(order.stencil(), &dims, &[gf.data()], &sites, |i, [v]| out[i] = v);
            out
        });
        let reference: Vec<Real> = points.iter().map(|&x| interp_ghost(&gf, order, x)).collect();
        assert_eq!(scalar, reference, "{order:?}: scalar arm must equal the reference bitwise");
        assert_slices_close(&simd, &reference, "interp_sites vs reference");
    }
}

/// A site whose support leaves the stored halo on any axis is caught by the
/// kernel's support check on every arm and at either width, never an
/// out-of-bounds load — alone, and at every position of a batch of good
/// sites (each lane of a 4-site block and a tail); a site whose support
/// reaches exactly the halo edge evaluates.
#[test]
fn out_of_slab_site_panics_on_every_backend() {
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }
    fn evaluate<T: Elem>(stencil: Stencil, sites: &[[f64; 3]]) -> std::thread::Result<()> {
        let dims = halo_dims([2, 4, 4]); // owns planes 0, 1
        let field = vec![T::ONE; dims.points()];
        let sites: Vec<[T; 3]> = sites.iter().map(|s| s.map(T::from_f64)).collect();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            T::kinterp_sites(stencil, &dims, &[&field], &sites, |_, [v]| {
                assert!((v.to_f64() - 1.0).abs() < 1e-5, "weights are a partition of unity: {v}")
            })
        }))
    }
    // the cubic support of the owned planes reaches exactly the halo edge
    let inside = [[-1.0, 1.0, 1.0], [1.5, 3.5, 0.0], [0.0, -1.0, 3.75]];
    let good: Vec<[f64; 3]> = inside.iter().cycle().take(5).copied().collect();
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for choice in ALL_BACKENDS {
        claire_simd::force_backend(Some(choice));
        for stencil in STENCILS {
            for sites in inside.iter().map(std::slice::from_ref).chain([&good[..]]) {
                let what = format!("{choice:?} {stencil:?} {sites:?}");
                assert!(evaluate::<f64>(stencil, sites).is_ok(), "{what}");
                assert!(evaluate::<f32>(stencil, sites).is_ok(), "{what}");
            }
            for site in [
                [-2.5, 1.0, 1.0],
                [3.25, 1.0, 1.0],
                [1e6, 1.0, 1.0],
                [1.0, -3.5, 1.0],
                [1.0, 1.0, 6.0],
            ] {
                let batches = (0..good.len()).map(|at| {
                    let mut sites = good.clone();
                    sites[at] = site;
                    sites
                });
                for sites in batches.chain([vec![site]]) {
                    for (width, outside) in [
                        ("f64", evaluate::<f64>(stencil, &sites)),
                        ("f32", evaluate::<f32>(stencil, &sites)),
                    ] {
                        let msg =
                            panic_message(outside.expect_err("a site outside the halo must panic"));
                        assert!(
                            msg.contains("outside the slab"),
                            "{choice:?} {stencil:?} {width} {sites:?}: wrong panic {msg:?}"
                        );
                    }
                }
            }
        }
    }
    claire_simd::force_backend(None);
}

/// A NaN coordinate is not outside the slab: it splits as base 0 with a NaN
/// fraction, so on every backend and at every lane of a 4-site block its
/// site evaluates to NaN without a panic, and the other three sites keep
/// the bits they have alone.
#[test]
fn nan_site_is_nan_and_leaves_its_block_alone() {
    fn check<T: Elem>() {
        let dims = halo_dims([3, 5, 6]);
        let fields: [Vec<T>; 2] =
            std::array::from_fn(|f| fill(7 + f as u64, dims.points(), -1.0, 1.0));
        let data = [&fields[0][..], &fields[1][..]];
        let good = random_sites::<T>(5, 6, 11, 4);
        let nan = T::from_f64(f64::NAN);
        for stencil in STENCILS {
            let (scalar, simd) = both(|| {
                let alone: Vec<_> = good
                    .iter()
                    .map(|s| bits(&eval_sites(stencil, &dims, &data, std::slice::from_ref(s)))[0])
                    .collect();
                let mut with_nan = Vec::new();
                for lane in 0..4 {
                    for axis in 0..3 {
                        let mut sites = good.clone();
                        sites[lane][axis] = nan;
                        with_nan.push((lane, bits(&eval_sites(stencil, &dims, &data, &sites))));
                    }
                }
                (alone, with_nan)
            });
            for (backend, (alone, with_nan)) in [("scalar", scalar), ("avx2", simd)] {
                for (lane, got) in with_nan {
                    let what = format!("{stencil:?} [{}] {backend} NaN at lane {lane}", T::LABEL);
                    for (i, (g, a)) in got.iter().zip(&alone).enumerate() {
                        if i == lane {
                            assert!(g.iter().all(|&x| f64::from_bits(x).is_nan()), "{what}: {g:?}");
                        } else {
                            assert_eq!(g, a, "{what}: site {i} changed its bits");
                        }
                    }
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}

/// A NaN sample never vanishes in a max: with one NaN voxel in plane `i`,
/// for every `i` — so on every rank of 1, 2 and 3, and in lanes and tails of
/// the vector arm — `max_abs` and both `det_bounds` return NaN on both
/// backends.
#[test]
fn one_nan_voxel_makes_every_max_nan() {
    let grid = Grid::new([7, 6, 9]);
    let (scalar, simd) = both(|| {
        let mut seen = Vec::new();
        for p in 1..=3 {
            for i in 0..7 {
                let res = run_cluster(Topology::new(p, 4), move |comm| {
                    let layout = Layout::distributed(grid, comm);
                    let mut f = ScalarField::from_fn(layout, |x, y, z| 1.0 + (x + y * z).sin());
                    if layout.slab.owns(i) {
                        *f.at_mut(i - layout.slab.i0, i % 6, (5 * i) % 9) = Real::NAN;
                    }
                    let (lo, hi) = claire::semilag::displacement::det_bounds(&f, comm);
                    [f.max_abs(comm), lo, hi].map(f64::is_nan)
                });
                seen.extend(res.outputs.into_iter().map(|nan| (p, i, nan)));
            }
        }
        seen
    });
    for (backend, seen) in [("scalar", scalar), ("avx2", simd)] {
        for (p, i, nan) in seen {
            assert_eq!(
                nan, [true; 3],
                "{backend}, {p} ranks, NaN in plane {i}: [max_abs, min, max]"
            );
        }
    }
}

/// FD on grids thinner than the stencil — `n2, n3 ∈ {2, 4, 6}`, below
/// `2·FD8_WIDTH`, so the x2/x3 halos wrap more than once — on 1 and 2 ranks:
/// gradient and divergence equal a direct `rem_euclid` stencil on the
/// periodic grid, bitwise on the scalar backend, to tolerance on the vector
/// arm.
#[test]
fn fd_on_thin_grids_matches_the_direct_stencil() {
    use claire::diff::fd::{self, FD8};
    use claire::grid::redist;
    let wave =
        |c: Real| move |x: Real, y: Real, z: Real| (x + c).sin() * (2.0 * y).cos() + (z - c).sin();
    for (n2, n3, p) in [2, 4, 6]
        .into_iter()
        .flat_map(|a| [2, 4, 6].map(|b| (a, b)))
        .flat_map(|(a, b)| [(a, b, 1), (a, b, 2)])
    {
        let grid = Grid::new([8, n2, n3]);
        let (scalar, simd) = both(|| {
            claire::mpi::run_cluster(claire::mpi::Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let v = VectorField {
                    c: std::array::from_fn(|c| ScalarField::from_fn(layout, wave(c as Real))),
                };
                let full: Vec<ScalarField> =
                    v.c.iter().map(|c| redist::replicate(c, comm)).collect();
                // d/dx_dim of global component `c` at owned point (il, j, k)
                let direct = |c: usize, dim: usize, [il, j, k]: [usize; 3]| {
                    let at = [(layout.slab.i0 + il) as isize, j as isize, k as isize];
                    let tap = |d: isize| {
                        let q: [usize; 3] = std::array::from_fn(|a| {
                            let x = at[a] + if a == dim { d } else { 0 };
                            x.rem_euclid(grid.n[a] as isize) as usize
                        });
                        full[c].at(q[0], q[1], q[2])
                    };
                    let mut acc = 0.0 as Real;
                    for (m, &cm) in FD8.iter().enumerate() {
                        acc += cm * (tap(m as isize + 1) - tap(-(m as isize) - 1));
                    }
                    acc * (1.0 as Real / grid.spacing()[dim])
                };
                let points: Vec<[usize; 3]> =
                    (0..layout.local_len()).map(|i| [i / (n2 * n3), i / n3 % n2, i % n3]).collect();
                let grad = fd::gradient(&v.c[0], comm);
                let div = fd::divergence(&v, comm);
                let mut got: Vec<Real> = grad.c.iter().flat_map(|c| c.data().to_vec()).collect();
                got.extend_from_slice(div.data());
                let mut want: Vec<Real> = (0..3)
                    .flat_map(|dim| points.iter().map(move |&q| (dim, q)))
                    .map(|(dim, q)| direct(0, dim, q))
                    .collect();
                want.extend(
                    points.iter().map(|&q| (direct(0, 0, q) + direct(1, 1, q)) + direct(2, 2, q)),
                );
                (got, want)
            })
            .outputs
        });
        for (rank, ((s_got, want), (v_got, _))) in scalar.iter().zip(&simd).enumerate() {
            assert_eq!(
                s_got, want,
                "[8, {n2}, {n3}] p={p} rank {rank}: scalar FD must be the direct stencil bitwise"
            );
            assert_slices_close(v_got, want, &format!("fd [8, {n2}, {n3}] p={p} rank {rank}"));
        }
    }
}

/// Per rank, the bits of `gradient_tiles` and of `gradient_into` of one
/// field, and whether the tiles covered as many points as the rank owns.
fn tiled_and_full_gradient(grid: Grid, p: usize) -> Vec<(Vec<u64>, Vec<u64>, bool)> {
    use claire::diff::fd;
    use claire::par::SharedSlice;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let bits = |v: &VectorField| -> Vec<u64> {
        v.c.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect()
    };
    claire::mpi::run_cluster(claire::mpi::Topology::new(p, 4), move |comm| {
        let layout = Layout::distributed(grid, comm);
        let f = ScalarField::from_fn(layout, |x, y, z| {
            (x + 0.3).sin() * (2.0 * y).cos() + (z - 0.1).sin() * x.cos()
        });
        let mut full = VectorField::zeros(layout);
        fd::gradient_into(&f, comm, &mut full, &mut fd::FdScratch::new());
        let mut tiled = VectorField::zeros(layout);
        let seen = AtomicUsize::new(0);
        let out = tiled.c.each_mut().map(|c| SharedSlice::new(c.data_mut()));
        fd::gradient_tiles(&f, comm, |at, g| {
            seen.fetch_add(g[0].len(), Ordering::Relaxed);
            for (o, g) in out.iter().zip(g) {
                // SAFETY: every point is in exactly one tile.
                unsafe { o.slice_mut(at..at + g.len()) }.copy_from_slice(g);
            }
        });
        (bits(&tiled), bits(&full), seen.into_inner() == layout.local_len())
    })
    .outputs
}

/// The row-tile gradient is `gradient_into`, bit for bit, on every backend,
/// thread count and rank count: on an anisotropic grid, on one that engages
/// the worker threads, and on one whose rows split into a ragged last tile.
#[test]
fn gradient_tiles_match_gradient_into_bitwise() {
    for n in [[12, 10, 8], [34, 22, 24], [8, 4, 2 * claire::diff::fd::TILE + 6]] {
        let grid = Grid::new(n);
        both(|| {
            for (p, threads) in [1, 2].into_iter().flat_map(|p| [1, 2, 3].map(|t| (p, t))) {
                let ranks = claire::par::with_threads(threads, || tiled_and_full_gradient(grid, p));
                for (rank, (tiled, full, covered)) in ranks.into_iter().enumerate() {
                    let at = format!("{n:?} p={p} rank {rank} threads={threads}");
                    assert!(covered, "{at}: every point in one tile");
                    assert_eq!(tiled, full, "{at}");
                }
            }
        });
    }
}

/// Reductions over f32 storage must accumulate in f64: past 2²⁴ an f32
/// accumulator stops absorbing `+1`, the mandated f64 one must not.
#[test]
fn f32_reductions_accumulate_in_f64() {
    let mut v = vec![1.0f32; 1 << 12];
    v[0] = 16_777_216.0;
    let expect = 16_777_216.0 + 4095.0;
    let (s, a) = both(|| (f32::ksum(&v), f32::kdot(&v, &vec![1.0f32; 1 << 12])));
    assert_eq!((s, a), ((expect, expect), (expect, expect)));
}

/// The two widths run the same kernels: f32 results track f64 ones to f32
/// storage rounding.
#[test]
fn kernels_agree_across_widths() {
    let x64: Vec<f64> = (0..57).map(|i| (i as f64 * 0.21).sin()).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let ((n64, d64), _) =
        both(|| (f64::kdot(&x64, &x64), f64::kaxpy_dot(2.0, &x64, &mut [0.5; 57])));
    let ((n32, d32), _) =
        both(|| (f32::kdot(&x32, &x32), f32::kaxpy_dot(2.0, &x32, &mut [0.5; 57])));
    assert!((n64 - n32).abs() <= 1e-5 * n64.max(1.0), "{n64} vs {n32}");
    assert!((d64 - d32).abs() <= 1e-4 * d64.abs().max(1.0), "{d64} vs {d32}");
}

fn blob_pair(layout: Layout, shift: Real) -> (ScalarField, ScalarField) {
    let blob = move |cx: Real| {
        move |x: Real, y: Real, z: Real| {
            let d2 = (x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2);
            (-d2 / 1.2).exp()
        }
    };
    (ScalarField::from_fn(layout, blob(3.0)), ScalarField::from_fn(layout, blob(3.0 + shift)))
}

/// The solver must take the same Gauss–Newton path regardless of backend:
/// identical iteration counts, final mismatch equal to 6 significant
/// digits. This is the contract that lets `CLAIRE_SIMD` be a pure
/// performance knob.
#[test]
fn smoke_solve_is_backend_insensitive() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    claire::par::set_threads(1);
    let cfg = RegistrationConfig {
        nt: 2,
        precond: PrecondKind::InvA,
        continuation: false,
        beta_target: 1e-2,
        max_gn_iter: 5,
        max_pcg_iter: 5,
        verbose: false,
        ..Default::default()
    };
    let layout = Layout::serial(Grid::cube(16));
    let (m0, m1) = blob_pair(layout, 0.5);

    let run = |choice: Choice| {
        claire_simd::force_backend(Some(choice));
        let mut comm = Comm::solo();
        let (_, report) = Claire::new(cfg).register(&m0, &m1, &mut comm);
        (report.gn_iters, report.rel_mismatch)
    };
    let (gn_scalar, mm_scalar) = run(Choice::Scalar);
    let (gn, mm) = run(Choice::Auto);
    assert_eq!(gn_scalar, gn, "backend auto must not change the GN iteration count");
    let rel = ((mm_scalar - mm) / mm_scalar.abs().max(1e-300)).abs();
    assert!(
        rel < 1e-6,
        "final mismatch must agree to 6 digits: scalar {mm_scalar} vs auto {mm} (rel {rel:.2e})"
    );
    claire_simd::force_backend(None);
    claire::par::set_threads(0);
}
