//! Ground-truth-velocity problems (the Fig. 3 experimental setup).
//!
//! The paper studies preconditioner convergence "at the true solution": a
//! reference image is synthesized by transporting the template with a known
//! velocity `v⋆`, and the Hessian system is solved at `v = v⋆` — the point
//! where the PCG is hardest and where a zero-velocity approximation could
//! plausibly break down.

use claire_grid::{Layout, ScalarField, VectorField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_semilag::{Trajectory, Transport};

use crate::brain::random_smooth_velocity;

/// A problem whose exact solution velocity is known.
pub struct TruthProblem {
    /// Template image.
    pub template: ScalarField,
    /// Reference `m1` = template transported by `v_true`.
    pub reference: ScalarField,
    /// The generating velocity (the registration's exact solution).
    pub v_true: VectorField,
}

/// Transport `template` with `v_true` to synthesize the reference.
/// Collective.
pub fn with_velocity(
    template: ScalarField,
    v_true: VectorField,
    nt: usize,
    comm: &mut Comm,
) -> TruthProblem {
    let interp = Interpolator::new(IpOrder::Cubic);
    let transport = Transport::new(nt, IpOrder::Cubic);
    let traj = Trajectory::compute(&v_true, nt, &interp, comm);
    let mut sol = transport.solve_state(&traj, &template, false, &interp, comm);
    TruthProblem { reference: sol.m.pop().unwrap(), template, v_true }
}

/// The Fig. 3 setup scaled to this grid: a brain-phantom template (na10
/// analogue) and a smooth registration-scale velocity. Collective.
pub fn fig3_problem(layout: Layout, comm: &mut Comm) -> TruthProblem {
    let template = crate::brain::subject("na10", layout, comm);
    let v_true = random_smooth_velocity(layout, 42, 0.4, 2);
    with_velocity(template, v_true, 4, comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::Grid;

    #[test]
    fn truth_velocity_reduces_mismatch_to_near_zero() {
        // transporting the template with v_true must reproduce the
        // reference almost exactly (same discretization path)
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let prob = fig3_problem(layout, &mut comm);
        let interp = Interpolator::new(IpOrder::Cubic);
        let transport = Transport::new(4, IpOrder::Cubic);
        let traj = Trajectory::compute(&prob.v_true, 4, &interp, &mut comm);
        let sol = transport.solve_state(&traj, &prob.template, false, &interp, &mut comm);
        let mut d = sol.final_state().clone();
        d.axpy(-1.0, &prob.reference);
        assert!(d.max_abs(&mut comm) < 1e-12, "same path must be exact");
    }

    #[test]
    fn problem_is_nontrivial() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let prob = fig3_problem(layout, &mut comm);
        let mut d = prob.reference.clone();
        d.axpy(-1.0, &prob.template);
        assert!(d.norm_l2(&mut comm) > 1e-3, "reference must differ from template");
        assert!(prob.v_true.norm_l2(&mut comm) > 0.0);
    }
}
