//! The distributed solver must produce the same numbers as the serial one,
//! bit for bit: every global sum has one order for every rank and thread
//! count (`claire::grid::reduce`), so the reductions, the full registration
//! and its iteration counts are compared with `==` across rank counts.

use std::sync::{Arc, Mutex, OnceLock};

use claire::core::{Claire, Precision, PrecondKind, RegProblem, RegistrationConfig, SolverHooks};
use claire::data::syn::syn_problem;
use claire::diff::Spectral;
use claire::grid::{redist, Grid, KrylovVec, Layout, VectorField};
use claire::interp::IpOrder;
use claire::mpi::{run_cluster, Comm, Topology};
use claire::opt::GnProblem;
use claire::par::{set_local_threads, with_threads};

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

/// One rank's view of a solve: the `on_gn_iter` boundaries it saw, and the
/// report's `[rel_mismatch bits, GN, PCG, objective, matvec]`.
type RankRun = (Vec<usize>, [u64; 5]);

/// A whole solve: the gathered velocity's bits and every rank's [`RankRun`].
type Run = (Vec<u64>, Vec<RankRun>);

/// Solve the SYN registration under `cfg` on `comm`: the velocity's bits
/// gathered on rank 0, and this rank's [`RankRun`].
fn solve(n: [usize; 3], cfg: RegistrationConfig, comm: &mut Comm) -> (Option<Vec<u64>>, RankRun) {
    let prob = syn_problem(n, comm);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    let hooks = SolverHooks {
        cancel: None,
        on_gn_iter: Some(Arc::new(move |k| sink.lock().unwrap().push(k))),
    };
    let mut solver = Claire::with_hooks(cfg, hooks);
    let (v, r) = solver.register_from(&prob.template, &prob.reference, "SYN", comm);
    let bits = redist::gather_vector(&v, comm)
        .map(|g| g.c.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect::<Vec<_>>());
    let counts = [r.gn_iters, r.pcg_iters, r.obj_evals, r.hess_applies].map(|k| k as u64);
    let summary = [r.rel_mismatch.to_bits(), counts[0], counts[1], counts[2], counts[3]];
    let boundaries = seen.lock().unwrap().clone();
    (bits, (boundaries, summary))
}

/// Run the SYN registration under `cfg` on `p` ranks.
fn run_registration(p: usize, n: usize, cfg: RegistrationConfig) -> Run {
    let res = run_cluster(Topology::new(p, 4), move |comm| solve([n; 3], cfg, comm));
    let (bits, ranks): (Vec<_>, Vec<_>) = res.outputs.into_iter().unzip();
    (bits.into_iter().next().flatten().expect("rank 0 gathers"), ranks)
}

/// Run the SYN registration under `cfg` on one rank, this thread, whose
/// kernels get `threads` workers: a per-thread budget, so a concurrent
/// test's `with_threads` cannot change it.
fn run_solo(n: [usize; 3], cfg: RegistrationConfig, threads: usize) -> Run {
    set_local_threads(threads);
    let (bits, rank) = solve(n, cfg, &mut Comm::solo());
    set_local_threads(0);
    (bits.expect("a solo run holds the whole field"), vec![rank])
}

/// [`run_registration`] on each of the rank counts `ps`.
fn on_rank_counts(ps: &[usize], n: usize, cfg: RegistrationConfig) -> Vec<Run> {
    ps.iter().map(|&p| run_registration(p, n, cfg)).collect()
}

/// The paper defaults — 2LInvH0 (FFTs, grid transfer and the inner PCG
/// across ranks), β-continuation, cubic interpolation — solved to
/// convergence at 16³ on 1, 2 and 3 ranks, once for the tests that read it.
fn paper_default_runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| on_rank_counts(&[1, 2, 3], 16, paper_cfg()))
}

fn paper_cfg() -> RegistrationConfig {
    RegistrationConfig { ip_order: IpOrder::Cubic, ..Default::default() }
}

/// The paper defaults on the mixed lane — f32 inner solve, coarse grid and
/// transposes under the f64 Gauss–Newton loop — at the target β only, so
/// every Newton step is preconditioned by 2LInvH0, for three steps.
fn mixed_cfg() -> RegistrationConfig {
    RegistrationConfig {
        precision: Precision::Mixed,
        continuation: false,
        max_gn_iter: 3,
        ..paper_cfg()
    }
}

/// [`paper_default_runs`] at [`mixed_cfg`].
fn mixed_runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| on_rank_counts(&[1, 2, 3], 16, mixed_cfg()))
}

/// Every run of `runs` has the first one's velocity bits, and every rank
/// of it the first run's `[rel_mismatch bits, GN, PCG, obj, matvec]`.
fn assert_runs_match(runs: &[Run], what: &str) {
    for (p, (v, ranks)) in (1..).zip(runs) {
        assert!(*v == runs[0].0, "{what}, p = {p}: velocity bits differ");
        for (rank, (_, got)) in ranks.iter().enumerate() {
            let want = &runs[0].1[0].1;
            assert_eq!(
                got, want,
                "{what}, rank {rank} of {p}: [rel_mismatch bits, GN, PCG, obj, matvec]"
            );
        }
    }
}

#[test]
fn full_registration_matches_across_rank_counts() {
    let runs = on_rank_counts(&[1, 2, 3, 4], 16, fixed_cfg());
    for (p, (v, ranks)) in (1..).zip(&runs) {
        assert!(*v == runs[0].0, "p = {p}: velocity bits differ");
        for (rank, run) in ranks.iter().enumerate() {
            assert_eq!(run, &runs[0].1[0], "rank {rank} of {p}: [mismatch bits, counts]");
        }
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

    let (_, ranks) = run_registration(1, n, fixed_cfg());
    assert_eq!(report_solo.rel_mismatch.to_bits(), ranks[0].1[0]);
}

#[test]
fn preconditioned_solves_match_distributed() {
    // the paper defaults: the same velocity bits, mismatch bits and counts
    // on every rank count
    let cfg = paper_cfg();
    assert_eq!((cfg.precond, cfg.continuation), (PrecondKind::TwoLevelInvH0, true));
    assert_eq!(cfg.precision, Precision::F64, "the default lane is f64");
    assert_runs_match(paper_default_runs(), "f64");
}

#[test]
fn mixed_preconditioned_solves_match_distributed() {
    // the same at Precision::Mixed, whose f32 collectives (transposes,
    // coarse-grid transfers, inner PCG sums) only this lane sends
    let runs = mixed_runs();
    assert_runs_match(runs, "mixed");
    let f64_cfg = RegistrationConfig { precision: Precision::F64, ..mixed_cfg() };
    let [(_, f64_ranks), (_, mixed_ranks)] = [&run_registration(1, 16, f64_cfg), &runs[0]];
    assert_ne!(mixed_ranks[0].1[0], f64_ranks[0].1[0], "the mixed lane must not solve in f64");
}

#[test]
fn mixed_solve_matches_across_thread_counts() {
    // one rank on 1 and on 3 kernel threads, on a grid of at least
    // MIN_PAR_LEN points, so that every fine-grid kernel splits its work
    let n = [32, 16, 16];
    assert!(n.iter().product::<usize>() >= claire::par::MIN_PAR_LEN);
    let cfg = RegistrationConfig { max_gn_iter: 2, ..mixed_cfg() };
    let one = run_solo(n, cfg, 1);
    assert!(run_solo(n, cfg, 3) == one, "3 threads: velocity, mismatch or counts differ");
}

/// Every global sum — real-space dot, sum, norm and fused update-norm, the
/// spectral (Parseval) inner product and fused update-norm, and the
/// regularization energy — on a grid whose n1 is split unevenly by 2 and
/// by 3 ranks, big enough for 2 threads to share a rank's planes.
fn reductions(p: usize, threads: usize) -> Vec<Vec<u64>> {
    let grid = Grid::new([13, 48, 48]);
    let res = with_threads(threads, || {
        run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let field = |s: f64| {
                VectorField::from_fns(
                    layout,
                    move |x, y, z| (x + s).sin() * (2.0 * y).cos() + (3.0 * z - x).sin() + s,
                    move |x, y, z| (x * y * 0.2 + s).cos() - 0.5 * (z + s).sin(),
                    move |x, y, z| ((x - 1.0) * (y - 2.0) * (z - 3.0) * 0.05 * s).exp(),
                )
            };
            let (v, w) = (field(0.3), field(1.1));
            let spectral = Spectral::new(grid, comm);
            let (sv, sw) = (spectral.spectra_of(&v, comm), spectral.spectra_of(&w, comm));
            let (mut u, mut su) = (v.clone(), sv.clone());
            let sums = [
                v.c[0].dot(&w.c[1], comm),
                v.c[2].sum(comm),
                v.c[1].norm_l2(comm),
                v.dot(&w, comm),
                v.norm_l2(comm),
                u.axpy_norm_l2(-0.7, &w, comm),
                sv.inner(&sw, comm),
                su.axpy_norm(-0.7, &sw, comm),
                spectral.reg_energy(&v, 1e-2, comm),
            ];
            sums.map(f64::to_bits).to_vec()
        })
    });
    res.outputs
}

#[test]
fn reductions_match_bitwise_across_rank_and_thread_counts() {
    let want = reductions(1, 1).remove(0);
    for (p, threads) in [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)] {
        for (rank, got) in reductions(p, threads).iter().enumerate() {
            assert_eq!(got, &want, "rank {rank} of {p}, {threads} threads");
        }
    }
}

#[test]
fn hook_boundaries_match_across_rank_counts() {
    // the continuation driver steps over the caller's communicator: every
    // rank of a 2- and a 3-rank solve must see the same cumulative
    // on_gn_iter boundaries, across β-levels, as the 1-rank run
    let runs = paper_default_runs();
    let serial = &runs[0].1[0];
    let (boundaries, [_, gn, ..]) = serial;
    assert!(paper_cfg().beta_schedule().len() > 1, "the run must cross β-levels");
    assert!(*gn >= 2 && boundaries.len() as u64 > *gn, "{boundaries:?} vs {gn} iterations");
    for (p, (_, ranks)) in (1..).zip(runs) {
        for (rank, out) in ranks.iter().enumerate() {
            assert_eq!(out, serial, "rank {rank} of {p} diverged from the 1-rank run");
        }
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
