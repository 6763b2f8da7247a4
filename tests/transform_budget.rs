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
//! A whole solve then keeps two budgets (DESIGN.md §5, §21), read off its
//! report: one state solve per line-search trial plus the first gradient,
//! and a scalar-transform count between what its operator applications
//! certainly cost and that plus their bounded slack.
//!
//! The kernel counters are thread-local, so each test counts only its own
//! transforms.

use claire::core::{PrecondKind, RegProblem, RegistrationConfig};
use claire::obs::span::SpanNode;
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

/// Calls of every span named `name` anywhere in the tree.
fn span_calls(nodes: &[SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| if n.name == name { n.calls as usize } else { 0 } + span_calls(&n.children, name))
        .sum()
}

#[test]
fn a_whole_solve_keeps_its_state_solve_and_transform_budgets() {
    let mut comm = Comm::solo();
    let prob = syn_problem([16, 16, 16], &mut comm);
    let cfg = RegistrationConfig::builder()
        .nt(4)
        .beta(1e-3)
        .precond(PrecondKind::TwoLevelInvH0)
        .build()
        .expect("valid configuration");
    let levels = cfg.beta_schedule().len();
    assert!(levels >= 2, "the solve runs a β continuation");

    begin_observing();
    let (_, report) =
        Claire::new(cfg).register_from(&prob.template, &prob.reference, "SYN", &mut comm);
    let run = collect_run_report(report, &comm);
    claire::obs::set_enabled(false);

    let obj_evals = run.summary.obj_evals;
    let records = run.gn_trace.len();
    assert_eq!(records, run.summary.gn_iters);

    // one linearization point, solved once (DESIGN §21): the state equation
    // is solved per line-search trial and for the very first gradient —
    // objective evaluations minus the J(v0) each β-level reads off the
    // linearization point, plus one. Every later gradient (one per record
    // and one per level) reuses a solve.
    let solves = span_calls(&run.spans, "semilag.state");
    assert_eq!(solves, obj_evals - levels + 1, "the kept state solve is not being reused");
    // every objective evaluation past each level's J(v0) is a line-search
    // trial some GN record owns
    let trials: usize = run.gn_trace.iter().map(|r| r.ls_trials).sum();
    assert_eq!(trials, obj_evals - levels, "a line-search trial is not on its GN record");
    // and every PCG iteration of the summary is on some record
    let pcg: usize = run.gn_trace.iter().map(|r| r.pcg_iters).sum();
    assert_eq!(pcg, run.summary.pcg_iters, "a PCG iteration is not on its GN record");

    // the transform budget (DESIGN §5). Certain: 3 per objective, 6 per
    // Hessian matvec, 12 + 6k per H0 application with k inner iterations.
    // On top, at most: 6 per InvA application (no more applications than
    // matvecs + Newton solves), 6 + 6 per gradient (βA·v, and ∇m̄ restricted
    // at a new linearization point; one gradient per record and one per
    // level) and the first restriction. An operator that goes back to real
    // space between two spectral steps breaks the ceiling.
    let fft = run.kernels.iter().find(|k| k.name == "fft_serial").expect("transforms ran").calls;
    let s = &run.summary;
    let (hess, h0, inner) = (s.hess_applies, s.n_invh0, s.inner_cg_total);
    assert!(h0 > 0 && inner > 0, "the 2LInvH0 inner solve iterates");
    let floor = 3 * obj_evals + 6 * hess + 12 * h0 + 6 * inner;
    let ceiling = floor + 6 * (hess + records - h0) + 12 * (records + levels) + 6;
    assert!(
        (floor..=ceiling).contains(&(fft as usize)),
        "{fft} scalar transforms outside [{floor}, {ceiling}] for {obj_evals} objectives, \
         {hess} Hessian matvecs, {h0} H0 applications with {inner} inner iterations, \
         {records} GN records on {levels} β-levels: the transform budget is broken"
    );
}
