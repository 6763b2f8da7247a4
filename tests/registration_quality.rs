//! End-to-end registration quality: mismatch reduction, velocity recovery,
//! preconditioner behaviour (the paper's §4.1–4.2 claims at test scale).

use claire::core::{Claire, Precision, PrecondKind, RegistrationConfig};
use claire::data::{brain, syn::syn_problem, truth};
use claire::grid::{Grid, Layout};
use claire::interp::IpOrder;
use claire::mpi::Comm;

#[test]
fn syn_registration_reduces_mismatch_substantially() {
    let mut comm = Comm::solo();
    let prob = syn_problem([20, 20, 20], &mut comm);
    // on both lanes: the f32 inner solve must reach what the f64 one does
    for precision in [Precision::F64, Precision::Mixed] {
        let cfg = RegistrationConfig {
            nt: 4,
            beta_target: 1e-3,
            precond: PrecondKind::TwoLevelInvH0,
            max_gn_iter: 10,
            precision,
            ..Default::default()
        };
        let mut solver = Claire::new(cfg);
        let (_, report) = solver.register_from(&prob.template, &prob.reference, "SYN", &mut comm);
        assert_eq!(report.precision, precision.label());
        assert!(report.rel_mismatch < 0.35, "{precision:?}: mismatch {}", report.rel_mismatch);
        assert!(report.jac_det_min > 0.0, "{precision:?}: must stay diffeomorphic");
    }
}

#[test]
fn recovered_velocity_correlates_with_truth() {
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(16));
    let prob = truth::fig3_problem(layout, &mut comm);
    let cfg = RegistrationConfig {
        nt: 4,
        ip_order: IpOrder::Cubic,
        beta_target: 1e-3,
        precond: PrecondKind::InvH0,
        max_gn_iter: 10,
        ..Default::default()
    };
    let mut solver = Claire::new(cfg);
    let (v, report) = solver.register_from(&prob.template, &prob.reference, "truth", &mut comm);
    assert!(report.rel_mismatch < 0.5, "mismatch {}", report.rel_mismatch);
    // cosine similarity between recovered and true velocity: registration
    // is ill-posed so we expect correlation, not identity
    let num = v.inner(&prob.v_true.clone(), &mut comm);
    let den = v.norm_l2(&mut comm) * prob.v_true.clone().norm_l2(&mut comm);
    let cosine = num / den.max(1e-300);
    // registration is ill-posed (many velocities explain the match), so at
    // this coarse resolution we expect directional correlation, not identity
    assert!(cosine > 0.3, "recovered velocity should point the right way: cos = {cosine}");
}

#[test]
fn invh0_needs_fewer_outer_pcg_iterations_than_inva() {
    // the paper's headline (Table 6): InvH0/2LInvH0 cut the PCG count 2-3x
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(16));
    let m0 = brain::subject("na02", layout, &mut comm);
    let m1 = brain::subject("na01", layout, &mut comm);
    let mut pcg_counts = Vec::new();
    for pc in [PrecondKind::InvA, PrecondKind::InvH0] {
        let cfg = RegistrationConfig {
            nt: 4,
            precond: pc,
            beta_target: 5e-3,
            max_gn_iter: 8,
            ..Default::default()
        };
        let mut solver = Claire::new(cfg);
        let (_, report) = solver.register_from(&m0, &m1, "na02", &mut comm);
        assert!(report.rel_mismatch < 0.7, "{:?}: mismatch {}", pc, report.rel_mismatch);
        pcg_counts.push(report.pcg_iters);
    }
    assert!(
        pcg_counts[1] <= pcg_counts[0],
        "InvH0 ({}) should need <= PCG iterations than InvA ({})",
        pcg_counts[1],
        pcg_counts[0]
    );
}

#[test]
fn continuation_improves_over_direct_solve() {
    // β-continuation is the paper's recommended setting: compared to
    // jumping straight to the target β it should be at least as good in
    // mismatch for the same iteration caps.
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(16));
    let m0 = brain::subject("na03", layout, &mut comm);
    let m1 = brain::subject("na01", layout, &mut comm);
    let run = |continuation: bool, comm: &mut Comm| {
        let cfg = RegistrationConfig {
            nt: 4,
            continuation,
            beta_target: 1e-3,
            precond: PrecondKind::InvA,
            max_gn_iter: if continuation { 6 } else { 25 },
            ..Default::default()
        };
        let mut solver = Claire::new(cfg);
        let (_, r) = solver.register_from(&m0, &m1, "na03", comm);
        r
    };
    let with = run(true, &mut comm);
    let without = run(false, &mut comm);
    assert!(
        with.rel_mismatch < without.rel_mismatch * 1.5,
        "continuation ({}) should be competitive with direct ({})",
        with.rel_mismatch,
        without.rel_mismatch
    );
    assert!(with.jac_det_min > 0.0);
}

#[test]
fn store_grad_does_not_change_results() {
    let mut comm = Comm::solo();
    let prob = syn_problem([12, 12, 12], &mut comm);
    let run = |store: bool, comm: &mut Comm| {
        let cfg = RegistrationConfig {
            nt: 4,
            store_grad: store,
            continuation: false,
            beta_target: 1e-2,
            precond: PrecondKind::InvA,
            fixed_pcg: Some(5),
            max_gn_iter: 3,
            grad_rtol: 1e-30,
            ..Default::default()
        };
        let mut solver = Claire::new(cfg);
        let (_, r) = solver.register_from(&prob.template, &prob.reference, "SYN", comm);
        r.rel_mismatch
    };
    let a = run(false, &mut comm);
    let b = run(true, &mut comm);
    assert!((a - b).abs() < 1e-12, "store_grad is a pure optimization: {a} vs {b}");
}
