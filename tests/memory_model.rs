//! Tier-1 gate: the solver's measured working set stays within the paper's
//! §3 memory model.
//!
//! The model budgets `(74 + Nt)·N` words per rank plus the interpolation
//! ghost layers (`claire_core::memory::estimate`); the workspace pools
//! measure what a solve holds, as the RunReport's `memory.pool_peak_bytes`.
//! What keeps the measurement under the model: the adjoint series is
//! folded into the gradient's and the matvec's quadrature as it is made
//! (two fields, not `Nt + 1`), `∇m` is read by row tiles instead of being
//! built as a field, and a line-search trial releases the linearization
//! point. A matvec's working set therefore does not grow with `Nt`.
//!
//! The pool counters are process-wide, so the tests serialize on one mutex.

use std::sync::Mutex;

use claire::core::memory;
use claire::core::workspace;
use claire::opt::GnProblem;
use claire::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

const N: usize = 16;

fn points() -> f64 {
    (N * N * N) as f64
}

#[test]
fn pool_peak_is_within_the_papers_model() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut comm = Comm::solo();
    // the images only: the rest of the synthetic problem is not the solve's
    let SynProblem { template, reference, .. } = syn_problem([N; 3], &mut comm);
    for (nt, precond) in [(4, PrecondKind::TwoLevelInvH0), (8, PrecondKind::InvA)] {
        let cfg =
            RegistrationConfig { nt, precond, ip_order: IpOrder::Cubic, ..Default::default() };
        begin_observing();
        let (_, report) = Claire::new(cfg).register(&template, &reference, &mut comm);
        let run = collect_run_report(report, &comm);
        claire::obs::set_enabled(false);
        let measured = run.memory.pool_peak_bytes as f64 / 8.0 / points();
        let model =
            memory::estimate(Grid::cube(N), nt, 1, cfg.ip_order, 4).total() as f64 / 4.0 / points();
        assert!(
            measured <= model,
            "nt {nt} {precond:?}: the pools peak at {measured:.1} words/point, above the \
             model's {model:.1}"
        );
    }
}

#[test]
fn a_matvec_working_set_does_not_grow_with_nt() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut comm = Comm::solo();
    let prob = syn_problem([N; 3], &mut comm);
    let layout = *prob.template.layout();
    let x = VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z.sin());
    let growth = |nt: usize, comm: &mut Comm| {
        let cfg = RegistrationConfig { nt, precond: PrecondKind::InvA, ..Default::default() };
        let mut problem =
            RegProblem::new(prob.template.clone(), prob.reference.clone(), cfg, comm).unwrap();
        problem.set_beta(1e-2);
        let v = VectorField::zeros(layout);
        problem.gradient(&v, comm);
        problem.hess_vec(&x, comm); // warm: first-use scratch is not the matvec's
        workspace::reset_stats();
        let before = workspace::total_stats().in_use_bytes;
        problem.hess_vec(&x, comm);
        workspace::total_stats().peak_bytes - before
    };
    let (at2, at8) = (growth(2, &mut comm), growth(8, &mut comm));
    let field = (layout.local_len() * std::mem::size_of::<Real>()) as u64;
    assert!(
        at8 <= at2 + field,
        "one matvec grows the pools by {at8} B at nt 8 against {at2} B at nt 2: more than one \
         scalar field ({field} B) apart"
    );
}
