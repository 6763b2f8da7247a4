//! The solver's budget of scalar 3-D transforms, as exact counts.
//!
//! The paper applies `A`, `(βA)⁻¹`, restriction, prolongation and the
//! high-pass "in the spectral domain … at the cost of two FFTs and a
//! Hadamard product" (§2). That only holds if an operator that iterates
//! stays spectral between its first and last transform; this test pins the
//! count per call (DESIGN.md §5):
//!
//! * `InvA`: 6 (3 forward, 3 inverse);
//! * `InvH0` with `k` inner iterations: `12 + 6k` — `r̂ = F r` (3), the
//!   initial residual's H0 matvec (6), `k` matvecs (6 each), `s = F⁻¹ x̂` (3);
//! * `2LInvH0`: the same `12 + 6k`, of which 6 on the fine grid (`F r` and
//!   `F⁻¹ ŝ`) and `6 + 6k` on the coarse one;
//! * `objective`: 3 (the regularization energy is a Parseval sum).
//!
//! The kernel counters are process-global, so this file is its own test
//! binary with a single test, like `zero_alloc`.

use claire::core::{PrecondKind, RegProblem, RegistrationConfig};
use claire::opt::GnProblem;
use claire::prelude::*;

/// Scalar 3-D transforms so far (one rank: every transform is the serial one).
fn transforms() -> u64 {
    let snap = claire::par::timing::snapshot();
    snap.iter().find(|k| k.name == "fft_serial").expect("kernel is listed").calls
}

#[test]
fn transforms_per_call_are_what_the_design_says() {
    claire::par::set_threads(1);
    let mut comm = Comm::solo();
    // anisotropic, not a power of two; coarsens to 10×8×6
    let layout = Layout::serial(Grid::new([20, 16, 12]));
    let blob = |cx: Real| {
        move |x: Real, y: Real, z: Real| {
            (-((x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2)) / 1.5).exp()
        }
    };
    let (m0, m1) =
        (ScalarField::from_fn(layout, blob(3.0)), ScalarField::from_fn(layout, blob(3.4)));
    let v = VectorField::from_fns(
        layout,
        |_, y, _| 0.1 * y.sin(),
        |x, _, _| 0.08 * x.cos(),
        |_, _, z| 0.05 * z.sin(),
    );
    // a residual with content in every mode, so the inner solve iterates
    let r = VectorField::from_fns(
        layout,
        |x, y, z| (x * y).sin() + (3.0 * z).cos(),
        |x, y, z| (x - 2.0 * y).cos() * (z * z).sin(),
        |x, y, z| ((x - 3.0) * (y - 3.0) * (z - 3.0)).tanh(),
    );

    for kind in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
        let cfg = RegistrationConfig { nt: 2, precond: kind, ..Default::default() };
        let mut problem = RegProblem::new(m0.clone(), m1.clone(), cfg, &mut comm).expect("usable");
        problem.set_beta(1e-2);

        let before = transforms();
        let _ = problem.objective(&v, &mut comm);
        assert_eq!(transforms() - before, 3, "{kind:?}: objective");

        // two applications at different inner tolerances: different k
        for eps_k in [0.5, 1e-3] {
            let (before, inner_before) = (transforms(), problem.pc.inner_iters);
            let _ = problem.precond(&r, eps_k, &mut comm);
            let k = (problem.pc.inner_iters - inner_before) as u64;
            let want = match kind {
                PrecondKind::InvA => 6,
                PrecondKind::InvH0 | PrecondKind::TwoLevelInvH0 => 12 + 6 * k,
            };
            assert_eq!(transforms() - before, want, "{kind:?}: eps_k = {eps_k}, k = {k}");
            assert_eq!(k > 0, kind != PrecondKind::InvA, "{kind:?}: the inner solve iterates");
        }
    }
}
