//! The distributed solver must produce the same numbers as the serial one:
//! every kernel (FFT, FD, interpolation, transport) and the full
//! registration are compared across rank counts.

use std::sync::{Arc, Mutex};

use claire::core::{Claire, PrecondKind, RegProblem, RegistrationConfig, SolverHooks};
use claire::data::syn::syn_problem;
use claire::grid::{redist, VectorField};
use claire::interp::IpOrder;
use claire::mpi::{run_cluster, Comm, Topology};
use claire::opt::GnProblem;

fn fixed_cfg() -> RegistrationConfig {
    RegistrationConfig {
        nt: 4,
        ip_order: IpOrder::Linear,
        precond: PrecondKind::InvA,
        continuation: false,
        beta_target: 1e-2,
        fixed_pcg: Some(5),
        max_gn_iter: 3,
        grad_rtol: 1e-30,
        ..Default::default()
    }
}

/// Run the fixed-work SYN registration on `p` ranks; return the gathered
/// velocity (rank 0) and the mismatch.
fn run_registration(p: usize, n: usize) -> (Vec<claire::grid::Real>, f64) {
    let size = [n, n, n];
    let res = run_cluster(Topology::new(p, 4), move |comm| {
        let prob = syn_problem(size, comm);
        let mut solver = Claire::new(fixed_cfg());
        let (v, report) = solver.register_from(&prob.template, &prob.reference, "SYN", comm);
        let gathered = redist::gather_vector(&v, comm);
        (
            gathered.map(|g| {
                let mut out = Vec::new();
                for c in &g.c {
                    out.extend_from_slice(c.data());
                }
                out
            }),
            report.rel_mismatch,
        )
    });
    let v = res.outputs[0].0.clone().expect("rank 0 gathers");
    (v, res.outputs[0].1)
}

#[test]
fn full_registration_matches_across_rank_counts() {
    let n = 16;
    let (v1, m1) = run_registration(1, n);
    for p in [2usize, 4] {
        let (vp, mp) = run_registration(p, n);
        assert!((m1 - mp).abs() < 1e-9, "p={p}: mismatch differs: {m1} vs {mp}");
        let max_dv = v1.iter().zip(&vp).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(max_dv < 1e-8, "p={p}: velocity fields differ by {max_dv}");
    }
}

#[test]
fn serial_solo_matches_one_rank_cluster() {
    // Comm::solo() (no threads) and a 1-rank cluster are the same machine
    let n = 12;
    let mut comm = Comm::solo();
    let prob = syn_problem([n, n, n], &mut comm);
    let mut solver = Claire::new(fixed_cfg());
    let (_, report_solo) = solver.register_from(&prob.template, &prob.reference, "SYN", &mut comm);

    let (_, mismatch_cluster) = run_registration(1, n);
    assert!((report_solo.rel_mismatch - mismatch_cluster).abs() < 1e-12);
}

#[test]
fn preconditioned_solves_match_distributed() {
    // 2LInvH0 exercises FFTs, grid transfer, and the inner PCG across
    // ranks; the result must still match the serial run.
    let n = 16;
    let size = [n, n, n];
    let cfg = RegistrationConfig { precond: PrecondKind::TwoLevelInvH0, ..fixed_cfg() };
    let run = move |p: usize| {
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let prob = syn_problem(size, comm);
            let mut solver = Claire::new(cfg);
            let (_, report) = solver.register_from(&prob.template, &prob.reference, "SYN", comm);
            (report.rel_mismatch, report.pcg_iters, report.gn_iters)
        });
        res.outputs[0]
    };
    let (m1, pcg1, gn1) = run(1);
    let (m2, pcg2, gn2) = run(2);
    assert!((m1 - m2).abs() < 1e-9, "mismatch {m1} vs {m2}");
    assert_eq!(pcg1, pcg2, "PCG iteration counts must agree");
    assert_eq!(gn1, gn2, "GN iteration counts must agree");
}

#[test]
fn hook_boundaries_match_across_rank_counts() {
    // the continuation driver steps over the caller's communicator: every
    // rank of a 2-rank solve must see the same cumulative on_gn_iter
    // boundaries, across β-levels, as the 1-rank run
    let cfg = RegistrationConfig {
        continuation: true,
        beta_target: 1e-1,
        grad_rtol: 5e-2,
        ..fixed_cfg()
    };
    let run = move |p: usize| {
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let prob = syn_problem([16, 16, 16], comm);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let hooks = SolverHooks {
                cancel: None,
                on_gn_iter: Some(Arc::new(move |k| sink.lock().unwrap().push(k))),
            };
            let (_, report) = Claire::with_hooks(cfg, hooks).register_from(
                &prob.template,
                &prob.reference,
                "SYN",
                comm,
            );
            let boundaries = seen.lock().unwrap().clone();
            (boundaries, report.gn_iters, report.pcg_iters)
        });
        res.outputs
    };
    let serial = run(1);
    let (boundaries, gn, _) = &serial[0];
    assert!(cfg.beta_schedule().len() > 1, "the run must cross β-levels");
    assert!(*gn >= 2 && boundaries.len() > *gn, "{boundaries:?} vs {gn} iterations");
    for (rank, out) in run(2).iter().enumerate() {
        assert_eq!(out, &serial[0], "rank {rank} of 2 diverged from the 1-rank run");
    }
}

#[test]
fn kept_state_solve_is_matched_on_every_rank_or_on_none() {
    // the gradient adopts the line search's state solve when the velocity
    // has the same bits — a decision the ranks must take together: with one
    // voxel of rank 1's slab off by one ulp, rank 0 (whose slab does match)
    // has to miss too, or the two would run different collectives
    let res = run_cluster(Topology::new(2, 4), |comm| {
        let prob = syn_problem([16, 16, 16], comm);
        let build = |comm: &mut Comm| {
            RegProblem::new(prob.template.clone(), prob.reference.clone(), fixed_cfg(), comm)
                .expect("the SYN pair shares one layout")
        };
        let v = VectorField::from_fns(
            *prob.template.layout(),
            |_, y, _| 0.1 * y.sin(),
            |x, _, _| 0.08 * x.cos(),
            |_, _, z| 0.05 * z.sin(),
        );
        let mut nudged = v.clone();
        if comm.rank() == 1 {
            let x = &mut nudged.c[0].data_mut()[5];
            *x = f64::from_bits(x.to_bits() + 1);
        }
        let bits = |g: VectorField| -> Vec<u64> {
            g.c.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect()
        };
        let after_objective = |at: &VectorField, comm: &mut Comm| {
            let mut p = build(comm);
            p.objective(&v, comm);
            bits(p.gradient(at, comm))
        };
        let cold = |at: &VectorField, comm: &mut Comm| bits(build(comm).gradient(at, comm));
        (
            after_objective(&v, comm) == cold(&v, comm),
            after_objective(&nudged, comm) == cold(&nudged, comm),
        )
    });
    for (rank, out) in res.outputs.iter().enumerate() {
        assert_eq!(*out, (true, true), "rank {rank}: (adopted, missed) gradient vs cold gradient");
    }
}
