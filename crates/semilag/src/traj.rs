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
//! stationary both foot-point sets are computed — and planned for
//! interpolation — once per velocity and reused for all `Nt` steps,
//! together with the growth factor `exp(½δt(∇·v|_foot + ∇·v|_x))` of the
//! continuity update's source term.

use claire_grid::workspace::{PoolVec, WsCat, R3_POOL, REAL_POOL};
use claire_grid::{Layout, Real, VectorField};
use claire_interp::{InterpPlan, Interpolator};
use claire_mpi::Comm;
use claire_obs::span::span;
use claire_par::par_split;
use claire_par::timing::{self, Kernel};

/// Pre-computed characteristic data for one stationary velocity field.
///
/// Each characteristic family is held as an [`InterpPlan`] — its foot points
/// already converted to interpolation sites and, on p > 1 ranks, routed to
/// their owners — so the `Nt` steps of every transport solve on this
/// velocity only evaluate. All point/value buffers come from the µSL
/// workspace pool, so recomputing a `Trajectory` every Gauss–Newton
/// iteration is allocation-free at steady state.
pub struct Trajectory {
    /// Time-step size `δt = 1/Nt`.
    pub dt: Real,
    /// Foot points of the backward characteristics of `+v` (one per owned
    /// grid point, physical coordinates) — the departure points of the
    /// state and incremental state equations. The solves read only their
    /// plan, so a holder that keeps the trajectory for its solves alone may
    /// `release` this buffer (`claire_core`'s problem does).
    pub foot_back: PoolVec<[Real; 3]>,
    /// [`Trajectory::foot_back`], planned.
    back: InterpPlan,
    /// The `−v` family; absent from a [`Trajectory::backward`].
    adjoint: Option<AdjointFamily>,
}

/// What the continuity (adjoint) equations need: the characteristics of
/// `−v`, which run in reverse time, and the divergence source term.
pub(crate) struct AdjointFamily {
    /// The foot points of the characteristics of `−v`, planned. Their
    /// physical coordinates are not kept: nothing reads them.
    pub(crate) plan: InterpPlan,
    /// The trapezoidal source factor of the continuity update,
    /// `exp(½·δt·(∇·v|_foot + ∇·v|_x))`, per grid point: `v` is stationary,
    /// so it is the same at every step of every solve on this trajectory
    /// and a step is one evaluation that stores each value times its
    /// factor.
    pub(crate) growth: PoolVec<Real>,
}

impl AdjointFamily {
    /// The `−v` characteristics from the grid points `pts`, and the
    /// divergence source along them.
    fn new(
        pts: &[[Real; 3]],
        v: &VectorField,
        dt: Real,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> AdjointFamily {
        let foot_fwd = rk2_feet(pts, v, dt, interp, comm);
        let plan = interp.plan_owned(*v.layout(), foot_fwd, comm);
        // `½·δt` is folded into the divergence stencil sweep
        let div_v = claire_diff::fd::divergence_scaled(v, comm, 0.5 * dt);
        let mut growth = REAL_POOL.checkout_written(plan.len(), Real::NAN, WsCat::Sl);
        interp.evaluate(&plan, &[&div_v], comm, &mut [&mut growth]);
        timing::time(Kernel::SemiLag, || {
            let (n, div_v) = (growth.len(), div_v.data());
            par_split(n, n, &mut growth[..], |range, dst| {
                for (o, d) in dst.iter_mut().zip(&div_v[range]) {
                    *o = (*o + d).exp();
                }
            });
        });
        AdjointFamily { plan, growth }
    }
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
    par_split(n, n, out, |range, dst| {
        for (o, idx) in dst.iter_mut().zip(range) {
            let k = idx % n3;
            let j = (idx / n3) % n2;
            let il = idx / (n2 * n3);
            *o = [(i0 + il) as Real * h[0], j as Real * h[1], k as Real * h[2]];
        }
    });
}

/// `δt = 1/Nt`.
fn time_step(nt: usize) -> Real {
    assert!(nt >= 1, "need at least one time step");
    1.0 as Real / nt as Real
}

/// [`grid_points`] in a pooled (µSL) buffer.
pub(crate) fn grid_points_pooled(layout: &Layout) -> PoolVec<[Real; 3]> {
    let mut pts = R3_POOL.checkout_written(layout.local_len(), [Real::NAN; 3], WsCat::Sl);
    grid_points_into(layout, &mut pts);
    pts
}

impl Trajectory {
    /// Compute both characteristic families for `v` with `nt` time steps —
    /// what a gradient or Hessian matvec at `v` needs.
    ///
    /// Collective. `interp` evaluates the RK2 midpoints and the `∇·v` foot
    /// values and builds the plans.
    pub fn compute(
        v: &VectorField,
        nt: usize,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> Trajectory {
        let _s = span("semilag.trajectory");
        let dt = time_step(nt);
        let pts = grid_points_pooled(v.layout());
        // the −v family first: it is kept only as its plan, so its sweep is
        // over (and back to two point-sized buffers) before the +v sweep
        // starts — four at the peak instead of five
        let adjoint = AdjointFamily::new(&pts, v, dt, interp, comm);
        let mut traj = Trajectory::backward_from(pts, v, dt, interp, comm);
        traj.adjoint = Some(adjoint);
        traj
    }

    /// Add the `−v` family to a [`Trajectory::backward`] of the same `v`:
    /// the result is bit for bit a [`Trajectory::compute`], at the cost of
    /// the half the backward-only trajectory skipped. Collective.
    pub fn add_adjoint(&mut self, v: &VectorField, interp: &Interpolator, comm: &mut Comm) {
        let _s = span("semilag.trajectory");
        let pts = grid_points_pooled(v.layout());
        self.adjoint = Some(AdjointFamily::new(&pts, v, self.dt, interp, comm));
    }

    /// Only the backward characteristics of `+v`: enough for the state and
    /// incremental state equations and the deformation map, at under half
    /// the cost of [`Trajectory::compute`] (no second RK2 sweep, no
    /// divergence, no foot values). [`crate::Transport::solve_adjoint`]
    /// rejects it.
    ///
    /// Collective.
    pub fn backward(
        v: &VectorField,
        nt: usize,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> Trajectory {
        let _s = span("semilag.trajectory");
        let pts = grid_points_pooled(v.layout());
        Trajectory::backward_from(pts, v, time_step(nt), interp, comm)
    }

    /// The `+v` family from the grid points `pts`, which are released
    /// before the feet are planned.
    fn backward_from(
        pts: PoolVec<[Real; 3]>,
        v: &VectorField,
        dt: Real,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> Trajectory {
        let layout = *v.layout();
        let foot_back = rk2_feet(&pts, v, -dt, interp, comm);
        drop(pts);
        let back = interp.plan(layout, &foot_back, comm);
        Trajectory { dt, foot_back, back, adjoint: None }
    }

    /// The layout the characteristics were computed on.
    pub(crate) fn layout(&self) -> &Layout {
        self.back.layout()
    }

    /// The planned departure points of the state / incremental state
    /// equations ([`Trajectory::foot_back`]).
    pub(crate) fn back(&self) -> &InterpPlan {
        &self.back
    }

    /// The `−v` family of the continuity equations.
    ///
    /// # Panics
    /// On a [`Trajectory::backward`], which does not carry it.
    pub(crate) fn adjoint(&self) -> &AdjointFamily {
        self.adjoint.as_ref().expect("adjoint solve on a backward-only trajectory")
    }
}

/// One RK2 (Heun) sweep: `foot = x + s·(v(x) + v(x + s·v(x)))/2` where
/// `s = ±δt` selects the transport direction. Returns the feet in a pooled
/// (µSL) buffer; the sweep holds two point-sized buffers at its peak — the
/// predictor points become the midpoint plan's sites in place, and the
/// midpoint velocities are overwritten by the feet.
fn rk2_feet(
    pts: &[[Real; 3]],
    v: &VectorField,
    s: Real,
    interp: &Interpolator,
    comm: &mut Comm,
) -> PoolVec<[Real; 3]> {
    let n = pts.len();
    // v at grid points (no interpolation needed)
    let [v1, v2, v3] = [v.c[0].data(), v.c[1].data(), v.c[2].data()];
    // Euler predictor — one independent update per grid point
    let mut mid = R3_POOL.checkout_written(n, [Real::NAN; 3], WsCat::Sl);
    timing::time(Kernel::SemiLag, || {
        par_split(n, n, &mut mid[..], |range, dst| {
            for (o, i) in dst.iter_mut().zip(range) {
                let p = &pts[i];
                *o = [p[0] + s * v1[i], p[1] + s * v2[i], p[2] + s * v3[i]];
            }
        });
    });
    // v at predictor points (off-grid)
    let mid = interp.plan_owned(*v.layout(), mid, comm);
    let mut foot = R3_POOL.checkout_written(n, [Real::NAN; 3], WsCat::Sl);
    interp.evaluate_vector(&mid, v, comm, &mut foot);
    drop(mid);
    // Heun corrector, over the midpoint velocities
    timing::time(Kernel::SemiLag, || {
        par_split(n, n, &mut foot[..], |range, dst| {
            for (o, i) in dst.iter_mut().zip(range) {
                let (p, vm) = (&pts[i], *o);
                *o = [
                    p[0] + 0.5 * s * (v1[i] + vm[0]),
                    p[1] + 0.5 * s * (v2[i] + vm[1]),
                    p[2] + 0.5 * s * (v3[i] + vm[2]),
                ];
            }
        });
    });
    foot
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout, ScalarField, TWO_PI};
    use claire_interp::IpOrder;

    #[test]
    fn constant_velocity_feet_are_shifts() {
        let grid = Grid::cube(16);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let c = 0.3 as Real;
        let v = VectorField::from_fns(layout, move |_, _, _| c, |_, _, _| 0.0, |_, _, _| 0.0);
        let ip = Interpolator::new(IpOrder::Cubic);
        let traj = Trajectory::compute(&v, 4, &ip, &mut comm);
        let pts = grid_points(&layout);
        for (p, f) in pts.iter().zip(&traj.foot_back) {
            assert!((f[0] - (p[0] - c * traj.dt)).abs() < 1e-9);
            assert!((f[1] - p[1]).abs() < 1e-12);
        }
        // the −v family is held only as a plan: probe it with a field whose
        // value names the x1 coordinate it was sampled at
        let probe = ScalarField::from_fn(layout, |x, _, _| x.sin());
        let family = traj.adjoint();
        let mut at_foot = vec![0.0 as Real; pts.len()];
        ip.evaluate(&family.plan, &[&probe], &mut comm, &mut [&mut at_foot]);
        for (p, val) in pts.iter().zip(&at_foot) {
            assert!((val - (p[0] + c * traj.dt).sin()).abs() < 1e-3, "−v feet sit at x + c·δt");
        }
        assert!(family.growth.iter().all(|g| (g - 1.0).abs() < 1e-10), "∇·v = 0: nothing grows");
    }

    #[test]
    fn backward_only_matches_the_full_trajectory() {
        let layout = Layout::serial(Grid::new([12, 8, 10]));
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.2 * x.cos(),
            |_, _, z| 0.1 * (2.0 * z).sin(),
        );
        let ip = Interpolator::new(IpOrder::Cubic);
        let full = Trajectory::compute(&v, 4, &ip, &mut comm);
        let mut back = Trajectory::backward(&v, 4, &ip, &mut comm);
        assert_eq!(full.foot_back, back.foot_back, "same departure points, bit for bit");
        assert_eq!(full.dt, back.dt);
        assert!(back.adjoint.is_none());
        // and the −v family added afterwards is the one `compute` builds
        back.add_adjoint(&v, &ip, &mut comm);
        assert_eq!(full.adjoint().growth, back.adjoint().growth);
        let probe = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y - z).cos());
        let at_feet = |t: &Trajectory, comm: &mut Comm| {
            let mut out = vec![0.0 as Real; layout.local_len()];
            ip.evaluate(&t.adjoint().plan, &[&probe], comm, &mut [&mut out]);
            out
        };
        assert_eq!(at_feet(&full, &mut comm), at_feet(&back, &mut comm));
    }

    #[test]
    fn growth_factor_is_the_trapezoid_of_the_divergence() {
        let layout = Layout::serial(Grid::new([12, 8, 10]));
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(
            layout,
            |x, _, _| 0.3 * x.sin(),
            |_, y, _| 0.2 * y.cos(),
            |_, _, z| 0.1 * (2.0 * z).sin(),
        );
        let ip = Interpolator::new(IpOrder::Cubic);
        let traj = Trajectory::compute(&v, 4, &ip, &mut comm);
        let family = traj.adjoint();
        let div = claire_diff::fd::divergence_scaled(&v, &mut comm, 0.5 * traj.dt);
        let mut at_foot = vec![0.0 as Real; layout.local_len()];
        ip.evaluate(&family.plan, &[&div], &mut comm, &mut [&mut at_foot]);
        for ((g, d), f) in family.growth.iter().zip(div.data()).zip(&at_foot) {
            assert_eq!(*g, (f + d).exp(), "exp(½δt(∇·v|_foot + ∇·v|_x)), stored once");
        }
        assert!(family.growth.iter().any(|g| (g - 1.0).abs() > 1e-3), "a compressible test flow");
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
            let ip = Interpolator::new(IpOrder::Cubic);
            let traj = Trajectory::compute(&v, nt, &ip, &mut comm);
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
