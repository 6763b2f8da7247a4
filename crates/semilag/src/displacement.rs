//! Deformation map `y(x)` and diffeomorphism diagnostics.
//!
//! The registration's deformation map is the composition of the per-step
//! characteristic maps: `y = φ∘…∘φ` (`Nt` times) with
//! `φ(x) = foot_back(x)`. We integrate the *displacement* `u = y − x`
//! (periodic, unlike `y` itself) and evaluate `det(∇y) = det(I + ∇u)` to
//! verify the computed map is a diffeomorphism — the paper's Fig. 1 notes
//! the map smoothness is "confirmed numerically".

// Component-wise update indexes u and the foot array in lockstep.
#![allow(clippy::needless_range_loop)]

use claire_grid::workspace::{WsCat, R3_POOL};
use claire_grid::{Real, ScalarField, VectorField};
use claire_interp::Interpolator;
use claire_mpi::Comm;

use crate::traj::Trajectory;

/// Integrate the displacement field `u = y − x` of the full-interval
/// backward flow. Its buffer comes from the µSL pool, like the
/// trajectory's; the grid points `x` are formed as they are read
/// (`grid_points`' expressions), not held. Collective.
pub fn displacement(
    traj: &Trajectory,
    nt: usize,
    interp: &Interpolator,
    comm: &mut Comm,
) -> VectorField {
    let layout = *traj.layout();
    let h = layout.grid.spacing();
    let [n1, n2, n3] = layout.local_dims();
    let i0 = layout.slab.i0;
    let mut u = VectorField::zeros(layout);
    let mut u_at_foot = R3_POOL.checkout_written(layout.local_len(), [Real::NAN; 3], WsCat::Sl);
    for _ in 0..nt {
        // u_{j+1}(x) = (φ(x) − x) + u_j(φ(x)), the step displacement
        // φ(x) − x small and CFL-bounded (no wrap issues)
        interp.evaluate_vector(traj.back(), &u, comm, &mut u_at_foot);
        let [u1, u2, u3] = u.c.each_mut().map(|c| c.data_mut());
        let mut i = 0;
        for il in 0..n1 {
            let x1 = (i0 + il) as Real * h[0];
            for j in 0..n2 {
                let x2 = j as Real * h[1];
                for k in 0..n3 {
                    let x = [x1, x2, k as Real * h[2]];
                    let (foot, at_foot) = (traj.foot_back[i], u_at_foot[i]);
                    u1[i] = (foot[0] - x[0]) + at_foot[0];
                    u2[i] = (foot[1] - x[1]) + at_foot[1];
                    u3[i] = (foot[2] - x[2]) + at_foot[2];
                    i += 1;
                }
            }
        }
    }
    u
}

/// Pointwise `det(I + ∇u)` via 8th-order FD gradients. Collective.
///
/// Values near 1 mean a mild deformation; any non-positive value means the
/// map is not a diffeomorphism at that point.
pub fn jacobian_det(u: &VectorField, comm: &mut Comm) -> ScalarField {
    let layout = *u.layout();
    let g: Vec<VectorField> = (0..3).map(|d| claire_diff::fd::gradient(&u.c[d], comm)).collect();
    let mut det = ScalarField::for_overwrite(layout);
    let n = layout.local_len();
    let out = det.data_mut();
    for i in 0..n {
        // J = I + ∇u, rows are gradients of the components
        let a = [
            [1.0 + g[0].c[0].data()[i], g[0].c[1].data()[i], g[0].c[2].data()[i]],
            [g[1].c[0].data()[i], 1.0 + g[1].c[1].data()[i], g[1].c[2].data()[i]],
            [g[2].c[0].data()[i], g[2].c[1].data()[i], 1.0 + g[2].c[2].data()[i]],
        ];
        out[i] = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
    }
    det
}

/// Global (min, max) of the Jacobian determinant; both NaN if any sample
/// is. Collective.
pub fn det_bounds(det: &ScalarField, comm: &mut Comm) -> (f64, f64) {
    let (local_min, local_max) = det.data().iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| {
        let nan = x.is_nan();
        (if x < lo || nan { x } else { lo }, if x > hi || nan { x } else { hi })
    });
    let max = comm.allreduce_max_scalar(local_max);
    let min = -comm.allreduce_max_scalar(-local_min);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traj::Trajectory;
    use claire_grid::{Grid, Layout};
    use claire_interp::IpOrder;

    #[test]
    fn zero_velocity_zero_displacement() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let ip = Interpolator::new(IpOrder::Cubic);
        let v = VectorField::zeros(layout);
        let traj = Trajectory::compute(&v, 4, &ip, &mut comm);
        let u = displacement(&traj, 4, &ip, &mut comm);
        assert!(u.max_abs(&mut comm) < 1e-12);
        let det = jacobian_det(&u, &mut comm);
        let (lo, hi) = det_bounds(&det, &mut comm);
        assert!((lo - 1.0).abs() < 1e-10 && (hi - 1.0).abs() < 1e-10);
    }

    #[test]
    fn constant_translation_displacement() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let ip = Interpolator::new(IpOrder::Cubic);
        let c = 0.4 as Real;
        let v = VectorField::from_fns(layout, move |_, _, _| c, |_, _, _| 0.0, |_, _, _| 0.0);
        let traj = Trajectory::compute(&v, 8, &ip, &mut comm);
        let u = displacement(&traj, 8, &ip, &mut comm);
        // y = x − c  ⇒  u1 = −c everywhere
        let err = u.c[0].data().iter().map(|&x| (x + c).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "u1 should be −c: err {err}");
        assert!(u.c[1].max_abs(&mut comm) < 1e-9);
        let det = jacobian_det(&u, &mut comm);
        let (lo, hi) = det_bounds(&det, &mut comm);
        assert!(
            (lo - 1.0).abs() < 1e-6 && (hi - 1.0).abs() < 1e-6,
            "translation is volume preserving"
        );
    }

    #[test]
    fn smooth_velocity_is_diffeomorphic() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let ip = Interpolator::new(IpOrder::Cubic);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.3 * x.cos(),
            |_, _, z| 0.2 * z.sin(),
        );
        let traj = Trajectory::compute(&v, 8, &ip, &mut comm);
        let u = displacement(&traj, 8, &ip, &mut comm);
        let det = jacobian_det(&u, &mut comm);
        let (lo, hi) = det_bounds(&det, &mut comm);
        assert!(lo > 0.3, "Jacobian determinant must stay positive: {lo}");
        assert!(hi < 3.0, "and bounded: {hi}");
    }
}
