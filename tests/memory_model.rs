//! Tier-1 gate: the solver's measured working set stays within the paper's
//! §3 memory model.
//!
//! The model budgets `(74 + Nt)·N` words per rank plus the interpolation
//! ghost layers (`claire_core::memory::estimate`); the workspace pools
//! measure what a solve holds: the sum of the category high-water marks
//! (`workspace::total_stats`) and, at most that, the bytes held at one
//! moment (the RunReport's `memory.pool_peak_bytes`).
//! What keeps the measurement under the model: the adjoint series is
//! folded into the gradient's and the matvec's quadrature as it is made
//! (two fields, not `Nt + 1`), `∇m` is read by row tiles instead of being
//! built as a field, and a line-search trial releases the linearization
//! point. A matvec's working set therefore does not grow with `Nt`. A
//! ghost halo is held for the call that fills it only: no FD halo stays
//! checked out between stencil applications, so the µFD category peaks
//! at one call's halos.
//!
//! The pool counters are process-wide, so the tests serialize on one mutex.

use std::sync::Mutex;

use claire::core::memory;
use claire::core::workspace::{self, WsCat};
use claire::diff::fd::FD8_WIDTH;
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
    let fd = WsCat::ALL.iter().position(|&c| c == WsCat::Fd).expect("µFD is a category");
    // no halo is held between calls: generating the images and solving
    // leave the µFD category where this thread found it
    let fd_idle = workspace::stats()[fd].in_use_bytes;
    // the images only: the rest of the synthetic problem is not the solve's
    let SynProblem { template, reference, .. } = syn_problem([N; 3], &mut comm);
    // bytes of one halo-padded N³ field of width w
    let halo = |w: usize| ((N + 2 * w).pow(3) * std::mem::size_of::<Real>()) as u64;
    for (nt, precond) in [(4, PrecondKind::TwoLevelInvH0), (8, PrecondKind::InvA)] {
        let cfg =
            RegistrationConfig { nt, precond, ip_order: IpOrder::Cubic, ..Default::default() };
        begin_observing();
        let (_, report) = Claire::new(cfg).register(&template, &reference, &mut comm);
        let fd_after = workspace::stats()[fd];
        assert_eq!(fd_after.in_use_bytes, fd_idle, "nt {nt} {precond:?}: a halo outlived its call");
        // one call's halos: the three velocity components the RK2 midpoint
        // interpolates at once, or one 8th-order stencil halo
        let one_call = (3 * halo(IpOrder::GHOST_WIDTH)).max(halo(FD8_WIDTH));
        let fd_peak = fd_after.peak_bytes - fd_idle;
        assert!(
            fd_peak <= one_call,
            "nt {nt} {precond:?}: µFD peaks at {fd_peak} B, one call holds {one_call} B"
        );
        let sum_of_peaks = workspace::total_stats().peak_bytes;
        let run = collect_run_report(report, &comm);
        claire::obs::set_enabled(false);
        let words = |bytes: u64| bytes as f64 / 8.0 / points();
        let measured = words(sum_of_peaks);
        let model =
            memory::estimate(Grid::cube(N), nt, 1, cfg.ip_order, 4).total() as f64 / 4.0 / points();
        assert!(
            measured <= model,
            "nt {nt} {precond:?}: the pools peak at {measured:.1} words/point, above the \
             model's {model:.1}"
        );
        // the report's ruler: the bytes checked out at one moment, which the
        // category peaks, reached at different moments, bound from above
        let at_once = run.memory.pool_peak_bytes;
        assert!(
            at_once <= sum_of_peaks,
            "nt {nt} {precond:?}: {at_once} B at once, above the category peaks' sum \
             {sum_of_peaks} B"
        );
        assert!(
            words(at_once) <= model,
            "nt {nt} {precond:?}: the pools hold {:.1} words/point at once, above the model's \
             {model:.1}",
            words(at_once)
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

/// An interpolation plan holds 28 bytes of µSL per query on every rank
/// count — a site's fractions in the buffer its point came in and its floor
/// node — so on two ranks an owned site is converted, split and stored once,
/// in place, and only the sites another rank owns travel (outside the
/// pools, as messages). The two ranks' plans together hold what one rank's
/// plan holds for the same queries. The sizes exceed every buffer the other
/// tests here shelve, so each checkout is charged at its request.
#[test]
fn a_distributed_plan_holds_each_query_once() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let sl = WsCat::ALL.iter().position(|&c| c == WsCat::Sl).expect("µSL is a category");
    let in_use = || workspace::stats()[sl].in_use_bytes;
    let grid = Grid::new([16, 8, 8]);
    let ip = claire::interp::Interpolator::new(IpOrder::Cubic);
    let queries = |n: usize, seed: usize| -> Vec<[Real; 3]> {
        let s = claire::grid::TWO_PI / n as Real;
        (0..n).map(|i| [((i + seed) % n) as Real * s, (7 * i % n) as Real * s, 0.5]).collect()
    };
    let sizes = [5000, 5007];
    let idle = in_use();
    let held = run_cluster(Topology::new(2, 1), move |comm| {
        let layout = Layout::distributed(grid, comm);
        let plan = ip.plan(layout, &queries(sizes[comm.rank()], comm.rank()), comm);
        comm.barrier();
        let held = in_use() - idle;
        comm.barrier();
        drop(plan);
        held
    });
    let total = sizes[0] + sizes[1];
    let mut solo = Comm::solo();
    let all: Vec<[Real; 3]> = (0..2).flat_map(|r| queries(sizes[r], r)).collect();
    let before = in_use();
    let plan = ip.plan(Layout::serial(grid), &all, &mut solo);
    let one_rank = in_use() - before;
    drop(plan);
    assert_eq!(one_rank, 28 * total as u64, "a one-rank plan holds 28 B per query");
    assert_eq!(
        held.outputs,
        vec![one_rank; 2],
        "two ranks' plans of {total} queries hold other µSL bytes than one rank's"
    );
}
