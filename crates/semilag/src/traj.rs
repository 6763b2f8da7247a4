//! Backward characteristics via 2nd-order Runge–Kutta (paper §2).
//!
//! For each grid point `x` the scheme solves `∂t y(t) = v(y(t))` backwards
//! over one time step `δt` with final condition `y(t+δt) = x` (Heun):
//!
//! ```text
//! x*   = x − δt·v(x)
//! foot = x − δt/2·(v(x) + v(x*))
//! ```
//!
//! The adjoint (continuity) equation runs in reverse time, which flips the
//! transport direction: its characteristics use `−v`. Since `v` is
//! stationary both foot-point sets are computed once per velocity and
//! reused for all `Nt` steps, together with `∇·v` and its values at the
//! adjoint foot points (needed by the source term of the continuity
//! update).

// rk2_feet threads the three velocity component slices explicitly to
// avoid re-borrowing the vector field inside the hot loop.
#![allow(clippy::too_many_arguments)]

use claire_grid::workspace::{PoolVec, WsCat, R3_POOL, REAL_POOL};
use claire_grid::{Real, ScalarField, VectorField};
use claire_interp::Interpolator;
use claire_mpi::Comm;
use claire_obs::span::span;
use claire_par::timing::{self, Kernel};
use claire_par::{par_parts, SharedSlice};

/// Pre-computed characteristic data for one stationary velocity field.
///
/// All point/value buffers come from the µSL workspace pool, so recomputing
/// a `Trajectory` every Gauss–Newton iteration is allocation-free at steady
/// state.
pub struct Trajectory {
    /// Time-step size `δt = 1/Nt`.
    pub dt: Real,
    /// Foot points of the backward characteristics of `+v` (one per owned
    /// grid point) — used by the state and incremental state equations.
    pub foot_back: PoolVec<[Real; 3]>,
    /// Foot points for the characteristics of `−v` — used by the adjoint
    /// and incremental adjoint (continuity) equations in reverse time.
    pub foot_fwd: PoolVec<[Real; 3]>,
    /// `½·δt·(∇·v)` on the grid (8th-order FD). The trapezoidal source
    /// factor of the continuity update is `exp(½·δt·(∇·v|_foot + ∇·v|_x))`;
    /// folding the constant `½·δt` into the stencil sweep here
    /// ([`claire_diff::fd::divergence_scaled`]) costs nothing and saves the
    /// consumer a multiply per point per time step.
    pub div_v: ScalarField,
    /// `½·δt·(∇·v)` interpolated at [`Trajectory::foot_fwd`].
    pub div_v_at_fwd: PoolVec<Real>,
    /// Estimated maximum displacement in grid cells (the CFL number used to
    /// size scatter buffers, paper §3.1).
    pub cfl: f64,
}

/// Physical coordinates of all locally owned grid points.
pub fn grid_points(layout: &claire_grid::Layout) -> Vec<[Real; 3]> {
    let mut out = vec![[0.0 as Real; 3]; layout.local_len()];
    grid_points_into(layout, &mut out);
    out
}

/// Fill `out` with the physical coordinates of all locally owned grid
/// points (`out.len() == layout.local_len()`).
pub fn grid_points_into(layout: &claire_grid::Layout, out: &mut [[Real; 3]]) {
    let g = layout.grid;
    let h = g.spacing();
    let [_, n2, n3] = layout.local_dims();
    let i0 = layout.slab.i0;
    assert_eq!(out.len(), layout.local_len());
    let n = out.len();
    let shared = SharedSlice::new(out);
    par_parts(n, n, |range| {
        // SAFETY: worker ranges are disjoint.
        let dst = unsafe { shared.slice_mut(range.clone()) };
        for (o, idx) in dst.iter_mut().zip(range) {
            let k = idx % n3;
            let j = (idx / n3) % n2;
            let il = idx / (n2 * n3);
            *o = [(i0 + il) as Real * h[0], j as Real * h[1], k as Real * h[2]];
        }
    });
}

impl Trajectory {
    /// Compute both characteristic families for `v` with `nt` time steps.
    ///
    /// Collective. `interp` is used (and its phase stats accumulate) for
    /// the RK2 midpoint evaluations and the `∇·v` foot values.
    pub fn compute(
        v: &VectorField,
        nt: usize,
        interp: &mut Interpolator,
        comm: &mut Comm,
    ) -> Trajectory {
        let _s = span("semilag.trajectory");
        assert!(nt >= 1, "need at least one time step");
        let layout = *v.layout();
        let dt = 1.0 as Real / nt as Real;
        let n = layout.local_len();
        let mut pts = R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl);
        grid_points_into(&layout, &mut pts);

        // v at grid points (no interpolation needed)
        let v1 = v.c[0].data();
        let v2 = v.c[1].data();
        let v3 = v.c[2].data();

        let mut foot_back = R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl);
        rk2_feet_into(&pts, v, v1, v2, v3, -dt, interp, comm, &mut foot_back);
        let mut foot_fwd = R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl);
        rk2_feet_into(&pts, v, v1, v2, v3, dt, interp, comm, &mut foot_fwd);

        let div_v = claire_diff::fd::divergence_scaled(v, comm, 0.5 * dt);
        let mut div_v_at_fwd = REAL_POOL.checkout_filled(n, 0.0 as Real, WsCat::Sl);
        interp.interp_into(&div_v, &foot_fwd, comm, &mut div_v_at_fwd);

        // CFL estimate for buffer sizing (max displacement / h)
        let vmax = v.max_abs(comm);
        let hmin = layout.grid.spacing().iter().cloned().fold(Real::MAX, Real::min);
        let cfl = vmax * dt / hmin;

        Trajectory { dt, foot_back, foot_fwd, div_v, div_v_at_fwd, cfl }
    }
}

/// One RK2 (Heun) sweep: `foot = x + s·(v(x) + v(x + s·v(x)))/2` where
/// `s = ±δt` selects the transport direction. Writes into `out`
/// (`out.len() == pts.len()`); all staging buffers are pooled (µSL).
fn rk2_feet_into(
    pts: &[[Real; 3]],
    v: &VectorField,
    v1: &[Real],
    v2: &[Real],
    v3: &[Real],
    s: Real,
    interp: &mut Interpolator,
    comm: &mut Comm,
    out: &mut [[Real; 3]],
) {
    let n = pts.len();
    assert_eq!(out.len(), n);
    // Euler predictor — one independent update per grid point
    let mut mid = R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl);
    timing::time(Kernel::SemiLag, || {
        let shared = SharedSlice::new(&mut mid);
        par_parts(n, n, |range| {
            // SAFETY: worker ranges are disjoint.
            let dst = unsafe { shared.slice_mut(range.clone()) };
            for (o, i) in dst.iter_mut().zip(range) {
                let p = &pts[i];
                *o = [p[0] + s * v1[i], p[1] + s * v2[i], p[2] + s * v3[i]];
            }
        });
    });
    // v at predictor points (off-grid)
    let mut vm = R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl);
    interp.interp_vector_into(v, &mid, comm, &mut vm);
    // Heun corrector
    timing::time(Kernel::SemiLag, || {
        let shared = SharedSlice::new(out);
        par_parts(n, n, |range| {
            // SAFETY: worker ranges are disjoint.
            let dst = unsafe { shared.slice_mut(range.clone()) };
            for (o, i) in dst.iter_mut().zip(range) {
                let p = &pts[i];
                *o = [
                    p[0] + 0.5 * s * (v1[i] + vm[i][0]),
                    p[1] + 0.5 * s * (v2[i] + vm[i][1]),
                    p[2] + 0.5 * s * (v3[i] + vm[i][2]),
                ];
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout, TWO_PI};
    use claire_interp::IpOrder;

    #[test]
    fn constant_velocity_feet_are_shifts() {
        let grid = Grid::cube(8);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let c = 0.3 as Real;
        let v = VectorField::from_fns(layout, move |_, _, _| c, |_, _, _| 0.0, |_, _, _| 0.0);
        let mut ip = Interpolator::new(IpOrder::Cubic);
        let traj = Trajectory::compute(&v, 4, &mut ip, &mut comm);
        let pts = grid_points(&layout);
        for (p, f) in pts.iter().zip(&traj.foot_back) {
            assert!((f[0] - (p[0] - c * traj.dt)).abs() < 1e-9);
            assert!((f[1] - p[1]).abs() < 1e-12);
        }
        for (p, f) in pts.iter().zip(&traj.foot_fwd) {
            assert!((f[0] - (p[0] + c * traj.dt)).abs() < 1e-9);
        }
        assert!(traj.div_v.max_abs(&mut comm) < 1e-10);
        assert!(traj.cfl > 0.0);
    }

    #[test]
    fn rk2_is_second_order_for_curved_flow() {
        // v = (sin(x2), 0, 0): exact backward trajectory from x over dt is
        // x1 - dt·sin(x2) (v constant along the trajectory since x2 fixed).
        // Use a flow where v varies along the path: v = (sin(x1), 0, 0).
        // dy/dt = sin(y); exact: tan(y/2) = tan(y0/2) e^{t}.
        let grid = Grid::cube(64);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(layout, |x, _, _| x.sin(), |_, _, _| 0.0, |_, _, _| 0.0);
        let mut errs = Vec::new();
        for &nt in &[4usize, 8] {
            let mut ip = Interpolator::new(IpOrder::Cubic);
            let traj = Trajectory::compute(&v, nt, &mut ip, &mut comm);
            let pts = grid_points(&layout);
            // check at an interior point
            let idx = layout.local_idx(20, 0, 0);
            let x0 = pts[idx][0];
            let dt = traj.dt;
            // exact solution of dy/dt = sin(y) backwards by dt
            let exact = 2.0 * ((x0 / 2.0).tan() * (-dt).exp()).atan();
            errs.push((traj.foot_back[idx][0] - exact).abs());
        }
        let order = (errs[0] / errs[1]).log2();
        assert!(order > 1.7, "RK2 should be ~2nd order: {order} ({errs:?})");
        let _ = TWO_PI;
    }
}
