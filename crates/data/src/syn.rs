//! The paper's analytic SYN test problem (§4).
//!
//! Template `m0(x) = Σ_{i=1..3} sin²(x_i)/3`; reference `m1` computed by
//! solving the forward transport problem (1b) with initial condition `m0`
//! and the analytic velocity
//!
//! ```text
//! v(x) = (sin x3 · cos x2,  sin x1 · cos x3,  sin x2 · cos x1)
//! ```
//!
//! (the paper's `v := (sin xi cos xk ...)_(i,k)=(3,2),(1,3),(2,1)`). The
//! SYN dataset drives the strong/weak scaling study (Table 7, Fig. 5).

use claire_grid::{Layout, ScalarField, VectorField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_semilag::{Trajectory, Transport};

/// A synthetic registration problem: template, reference, and the velocity
/// that generated the reference.
pub struct SynProblem {
    /// Template image `m0`.
    pub template: ScalarField,
    /// Reference image `m1 = m0 ∘ y⁻¹` (transported template).
    pub reference: ScalarField,
    /// The generating velocity.
    pub true_velocity: VectorField,
}

/// The paper's analytic SYN velocity field.
pub fn syn_velocity(layout: Layout) -> VectorField {
    VectorField::from_fns(
        layout,
        |_, x2, x3| x3.sin() * x2.cos(),
        |x1, _, x3| x1.sin() * x3.cos(),
        |x1, x2, _| x2.sin() * x1.cos(),
    )
}

/// The paper's analytic SYN template `m0(x) = Σ sin²(x_i) / 3`.
pub fn syn_template(layout: Layout) -> ScalarField {
    ScalarField::from_fn(layout, |x1, x2, x3| {
        (x1.sin().powi(2) + x2.sin().powi(2) + x3.sin().powi(2)) / 3.0
    })
}

/// Build the SYN problem on `n` grid points (distributed over `comm`).
/// Collective (solves the forward problem for `m1`).
pub fn syn_problem(n: [usize; 3], comm: &mut Comm) -> SynProblem {
    let layout = if comm.is_solo() {
        Layout::serial(claire_grid::Grid::new(n))
    } else {
        Layout::distributed(claire_grid::Grid::new(n), comm)
    };
    let template = syn_template(layout);
    let true_velocity = syn_velocity(layout);
    let interp = Interpolator::new(IpOrder::Cubic);
    let transport = Transport::new(4, IpOrder::Cubic);
    let traj = Trajectory::compute(&true_velocity, transport.nt, &interp, comm);
    let mut sol = transport.solve_state(&traj, &template, false, &interp, comm);
    SynProblem { reference: sol.m.pop().unwrap(), template, true_velocity }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::Grid;

    #[test]
    fn template_in_unit_range() {
        let layout = Layout::serial(Grid::cube(16));
        let m0 = syn_template(layout);
        assert!(m0.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn reference_differs_from_template() {
        let mut comm = Comm::solo();
        let prob = syn_problem([16, 16, 16], &mut comm);
        let mut d = prob.reference.clone();
        d.axpy(-1.0, &prob.template);
        let rel = d.norm_l2(&mut comm) / prob.template.norm_l2(&mut comm);
        assert!(rel > 0.05, "transport should move the image: rel diff {rel}");
    }

    #[test]
    fn velocity_is_order_one() {
        let mut comm = Comm::solo();
        let layout = Layout::serial(Grid::cube(8));
        let v = syn_velocity(layout);
        let m = v.max_abs(&mut comm);
        assert!(m <= 1.0 + 1e-12 && m > 0.9, "max |v| = {m}");
    }
}
