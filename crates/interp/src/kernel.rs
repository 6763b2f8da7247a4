//! Interpolation orders, the physical-point → grid-site conversion, and a
//! scalar per-query evaluator kept as the reference the batched kernel
//! ([`claire_simd::interp_sites`]) is tested against.

use claire_grid::{ghost::GhostField, Real, ScalarField, TWO_PI};
use claire_simd::Stencil;

/// Interpolation order, named after the paper's GPU kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpOrder {
    /// Trilinear (`GPU-TXTLIN`): 8-point support, ~30 flop/query. The
    /// paper's choice for the large-scale runs (Tables 6 and 7).
    Linear,
    /// Cubic Lagrange (`GPU-TXTLAG`): 64-point support, ~482 flop/query.
    /// The paper's choice when accuracy matters (Table 2 uses it).
    Cubic,
    /// Cubic B-spline (`GPU-TXTSPL`): same 64-point support evaluated on
    /// *prefiltered* coefficients. The fastest kernel on a single GPU
    /// (hardware-trilinear trick of [14]), but the paper rejects it for
    /// the distributed solver because the prefilter needs an extra global
    /// data exchange — the prefilter itself is `claire-diff`'s
    /// `spectral::bspline_prefilter`.
    CubicSpline,
}

impl IpOrder {
    /// Ghost-layer width on every axis (both kernels fit in 2 points per
    /// side: linear needs (0, +1), cubic needs (−1, +2)).
    pub const GHOST_WIDTH: usize = 2;

    /// Stable name in CLI flags and job manifests.
    pub fn label(self) -> &'static str {
        match self {
            IpOrder::Linear => "linear",
            IpOrder::Cubic => "cubic",
            IpOrder::CubicSpline => "cubic_spline",
        }
    }

    /// Inverse of [`IpOrder::label`].
    pub fn parse(s: &str) -> Option<IpOrder> {
        [IpOrder::Linear, IpOrder::Cubic, IpOrder::CubicSpline].into_iter().find(|o| o.label() == s)
    }

    /// Approximate flop count per scalar query (paper §3.1: 30 vs 482;
    /// TXTSPL evaluates via 8 hardware-trilinear fetches on the GPU,
    /// substantially cheaper than TXTLAG).
    pub fn flops_per_query(self) -> usize {
        match self {
            IpOrder::Linear => 30,
            IpOrder::Cubic => 482,
            IpOrder::CubicSpline => 160,
        }
    }

    /// Human-readable kernel name as used in the paper.
    pub fn kernel_name(self) -> &'static str {
        match self {
            IpOrder::Linear => "GPU-TXTLIN",
            IpOrder::Cubic => "GPU-TXTLAG",
            IpOrder::CubicSpline => "GPU-TXTSPL",
        }
    }

    /// Whether the field must be converted to B-spline coefficients before
    /// this kernel reads it (the paper's prefilter step).
    pub fn needs_prefilter(self) -> bool {
        self == IpOrder::CubicSpline
    }

    /// The basis the batched site kernel evaluates for this order.
    pub fn stencil(self) -> Stencil {
        match self {
            IpOrder::Linear => Stencil::Linear,
            IpOrder::Cubic => Stencil::CubicLagrange,
            IpOrder::CubicSpline => Stencil::CubicBspline,
        }
    }
}

/// Cubic B-spline basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}` (partition of unity; C² smooth).
#[inline]
pub fn bspline_weights(t: Real) -> [Real; 4] {
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

/// Cubic Lagrange basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}` (the scalar specification's expression).
#[inline]
pub fn lagrange_weights(t: Real) -> [Real; 4] {
    let t1 = t - 1.0;
    let t2 = t - 2.0;
    let tp = t + 1.0;
    [-t * t1 * t2 / 6.0, tp * t1 * t2 / 2.0, -tp * t * t2 / 2.0, tp * t * t1 / 6.0]
}

/// Wrap a continuous grid index into `[0, n)`: `u mod n`, bit for bit what
/// `%` gives, but by comparison when `u ∈ (−n, 2n)` — every query a CFL-
/// bounded characteristic produces — so the common case costs no `fmod`.
#[inline]
pub fn wrap_index(u: Real, nr: Real) -> Real {
    if u >= 0.0 {
        if u < nr {
            return u;
        }
        if u < 2.0 * nr {
            return u - nr; // exact, like the remainder
        }
    } else if u > -nr {
        let w = u + nr;
        return if w >= nr { 0.0 } else { w }; // tiny |u| rounds up to n
    }
    // |u| ≥ 2n, u = −n, NaN: the general remainder
    let mut w = u % nr;
    if w < 0.0 {
        w += nr;
    }
    if w >= nr {
        w = 0.0;
    }
    w
}

/// Wrap a physical coordinate into `[0, 2π)` and convert to continuous grid
/// index `u = x/h ∈ [0, n)`.
#[inline]
pub fn to_index(x: Real, n: usize) -> Real {
    let nr = n as Real;
    wrap_index(x * nr / TWO_PI, nr)
}

/// The interpolation *site* of a physical query point on grid `n`: its
/// wrapped continuous grid index per dimension. Everything a stencil needs
/// (floor node, fraction, weights) follows from the site by cheap
/// arithmetic, so an [`crate::InterpPlan`] stores each site split into its
/// floor node and fractions (`claire_simd::split_sites`) — 28 bytes per
/// query — rather than weight tables.
#[inline]
pub fn to_site(x: [Real; 3], n: [usize; 3]) -> [Real; 3] {
    [to_index(x[0], n[0]), to_index(x[1], n[1]), to_index(x[2], n[2])]
}

/// Split a continuous index into (integer base, fraction).
#[inline]
fn split(u: Real) -> (isize, Real) {
    let f = u.floor();
    (f as isize, u - f)
}

/// Interpolate a ghost-extended field at a physical point `x`, one query at
/// a time in plain scalar arithmetic — the reference evaluator. The solver
/// never calls it; tests compare the planned, batched path against it.
///
/// The x1 coordinate must fall inside the owned slab. x2/x3 wrap here, by
/// `rem_euclid`, onto owned values only, so comparing the batched kernel
/// against this evaluator checks the padded x2/x3 halo instead of trusting
/// it.
pub fn interp_ghost(gf: &GhostField, order: IpOrder, x: [Real; 3]) -> Real {
    let layout = gf.layout();
    let g = layout.grid;
    let [u1, u2, u3] = to_site(x, g.n);
    let (b1g, t1) = split(u1);
    let (b2, t2) = split(u2);
    let (b3, t3) = split(u3);
    // slab-relative x1 base plane
    let b1 = b1g - layout.slab.i0 as isize;
    let n2 = g.n[1] as isize;
    let n3 = g.n[2] as isize;

    // support: `taps` nodes per dimension starting at node offset `lo`
    let (lo, taps) = if order == IpOrder::Linear { (0, 2) } else { (-1, 4) };
    let basis = |t: Real| match order {
        IpOrder::Linear => [1.0 - t, t, 0.0, 0.0],
        IpOrder::Cubic => lagrange_weights(t),
        IpOrder::CubicSpline => bspline_weights(t),
    };
    let (w1, w2, w3) = (basis(t1), basis(t2), basis(t3));
    let mut acc = 0.0 as Real;
    for (a, &wa) in w1[..taps].iter().enumerate() {
        let ii = b1 + a as isize + lo;
        for (b, &wb) in w2[..taps].iter().enumerate() {
            let jj = (b2 + b as isize + lo).rem_euclid(n2);
            for (c, &wc) in w3[..taps].iter().enumerate() {
                let kk = (b3 + c as isize + lo).rem_euclid(n3);
                acc += wa * wb * wc * gf.at(ii, jj, kk);
            }
        }
    }
    acc
}

/// Serial convenience: interpolate a full (serial-layout) field at `x`.
pub fn interp_serial(f: &ScalarField, order: IpOrder, x: [Real; 3]) -> Real {
    assert!(f.layout().is_serial(), "interp_serial needs a serial-layout field");
    let mut comm = claire_mpi::Comm::solo();
    let gf = claire_grid::ghost::exchange(f, IpOrder::GHOST_WIDTH, &mut comm);
    interp_ghost(&gf, order, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout};

    #[test]
    fn lagrange_weights_partition_of_unity() {
        for &t in &[0.0 as Real, 0.25, 0.5, 0.9] {
            let w = lagrange_weights(t);
            let s: Real = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "t={t}: sum {s}");
        }
        // at t = 0 the weights collapse to the node
        let w0 = lagrange_weights(0.0);
        assert!((w0[1] - 1.0).abs() < 1e-6);
        assert!(w0[0].abs() < 1e-6 && w0[2].abs() < 1e-6 && w0[3].abs() < 1e-6);
    }

    #[test]
    fn exact_at_grid_points() {
        let grid = Grid::new([8, 8, 8]);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| x.sin() + (y * z).cos());
        let h = grid.spacing();
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            for &(i, j, k) in &[(0usize, 0usize, 0usize), (3, 5, 7), (7, 7, 7)] {
                let x = [i as Real * h[0], j as Real * h[1], k as Real * h[2]];
                let v = interp_serial(&f, order, x);
                assert!(
                    ((v - f.at(i, j, k)) as f64).abs() < 1e-10,
                    "{order:?} at ({i},{j},{k}): {v} vs {}",
                    f.at(i, j, k)
                );
            }
        }
    }

    #[test]
    fn cubic_reproduces_smooth_functions() {
        let grid = Grid::cube(32);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x).sin() * (y).cos() + (0.5 * z).sin()
        });
        let probe = [1.234 as Real, 2.345, 3.456];
        let exact = (probe[0]).sin() * (probe[1]).cos() + (0.5 * probe[2]).sin();
        let lin = interp_serial(&f, IpOrder::Linear, probe) as f64;
        let cub = interp_serial(&f, IpOrder::Cubic, probe) as f64;
        assert!((cub - exact).abs() < 5e-5, "cubic err {}", (cub - exact).abs());
        assert!(
            (cub - exact).abs() < (lin - exact).abs(),
            "cubic ({cub}) should beat linear ({lin}) against {exact}"
        );
    }

    #[test]
    fn periodic_wrap_queries() {
        let grid = Grid::cube(8);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, _, _| x.cos());
        // a point just below 2π interpolates across the periodic seam
        let x = [TWO_PI - 0.01, 0.0, 0.0];
        let v = interp_serial(&f, IpOrder::Cubic, x) as f64;
        assert!((v - (TWO_PI - 0.01).cos()).abs() < 1e-3, "v = {v}");
        // negative coordinates wrap too
        let v2 = interp_serial(&f, IpOrder::Cubic, [-0.01, 0.0, 0.0]) as f64;
        assert!((v - v2).abs() < 1e-6);
    }

    #[test]
    fn fourth_order_convergence_of_cubic() {
        let mut errs = Vec::new();
        for &n in &[16usize, 32] {
            let grid = Grid::cube(n);
            let f = ScalarField::from_fn(Layout::serial(grid), |x, _, _| (2.0 * x).sin());
            let mut comm = claire_mpi::Comm::solo();
            let gf = claire_grid::ghost::exchange(&f, IpOrder::GHOST_WIDTH, &mut comm);
            let mut e = 0.0f64;
            for q in 0..50 {
                let x = 0.123 as Real + q as Real * 0.11;
                let x = x % TWO_PI;
                let v = interp_ghost(&gf, IpOrder::Cubic, [x, 0.0, 0.0]) as f64;
                e = e.max((v - (2.0 * x).sin()).abs());
            }
            errs.push(e);
        }
        let order = (errs[0] / errs[1]).log2();
        assert!(order > 3.5, "cubic should be ~4th order, got {order} ({errs:?})");
    }
}
