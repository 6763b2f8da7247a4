//! The child process: one cold registration, timed from process start.
//!
//! Every sample is a fresh process because that is what a `claire-cli` user
//! pays (plan caches and workspace pools start empty), and because it gives
//! each workload its own `VmHWM`.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use claire_core::{CancelToken, Claire, Precision, RegProblem, SolverHooks};
use claire_grid::{workspace, VectorField};
use claire_interp::Interpolator;
use claire_mpi::{run_cluster, CollOp, Comm, CommCat, CommStats, Topology};
use claire_opt::{gauss_newton, GnConfig};
use claire_semilag::{displacement, Trajectory};

use crate::calib::{SpeedClock, Timed};
use crate::probes;
use crate::sample::Sample;
use crate::trace::{self, Recorder, Span, Traced};
use crate::workload::Workload;

/// What a child does after generating its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Claire::try_register`, untouched: the end-to-end numbers.
    Solve,
    /// Stop at the first Gauss–Newton boundary: a set-up sample only.
    SetupOnly,
    /// The same solve driven through [`Traced`], then the layer probes.
    Traced,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "solve" => Some(Mode::Solve),
            "setup" => Some(Mode::SetupOnly),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Mode::Solve => "solve",
            Mode::SetupOnly => "setup",
            Mode::Traced => "traced",
        }
    }
}

/// What one rank brings back. Clock and boundaries reported are rank 0's.
#[derive(Default)]
struct RankOut {
    error: Option<String>,
    data_gen_s: f64,
    setup: Timed,
    solve: Timed,
    /// Share of the solve this rank's thread was not on a CPU.
    wait_pct: f64,
    gn_iters: u64,
    pcg_iters: u64,
    rel_mismatch: f64,
    jac_det_min: f64,
    /// This rank's traffic ledger when the solve had returned.
    comm: CommStats,
    spans: Vec<Span>,
    probes: Vec<(&'static str, f64)>,
}

/// Process-wide readings taken on rank 0 when the solve had returned, before
/// any probe runs.
#[derive(Clone, Copy, Default)]
struct AfterSolve {
    pool: workspace::CatStats,
    peak_rss_mb: f64,
}

/// Run one child to completion. `origin` is the process start.
pub fn run(w: Workload, seed: u64, mode: Mode, origin: Instant) -> Sample {
    // one kernel thread per rank: no child uses more than `ranks` threads
    claire_par::set_threads(1);
    let after = OnceLock::new();
    let rank = |comm: &mut Comm| rank_main(&w, seed, mode, origin, &after, comm);
    let outs = if w.ranks == 1 {
        vec![rank(&mut Comm::solo())]
    } else {
        run_cluster(Topology::new(w.ranks, 4), rank).outputs
    };
    let after = after.get().copied().unwrap_or_default();

    let mut comm = CommStats::default();
    for o in &outs {
        comm.merge(&o.comm);
    }
    // a lone rank has no peer to wait for, and its collectives move nothing
    let solo = w.ranks == 1;
    let wait_pct = if solo { 0.0 } else { outs.iter().map(|o| o.wait_pct).fold(0.0, f64::max) };
    let allreduce_calls = if solo { 0 } else { comm.coll(CollOp::Allreduce).calls };
    let r0 = outs.into_iter().next().expect("at least one rank");

    let cat = |c: CommCat| *comm.cat(c);
    let mut counts: Vec<(String, u64)> = [
        ("opt.gn_iters", r0.gn_iters),
        ("opt.pcg_iters", r0.pcg_iters),
        ("mpi.ghost_bytes", cat(CommCat::Ghost).bytes_sent),
        ("mpi.ghost_msgs", cat(CommCat::Ghost).msgs_sent),
        ("mpi.transpose_bytes", cat(CommCat::FftTranspose).bytes_sent),
        ("mpi.transpose_msgs", cat(CommCat::FftTranspose).msgs_sent),
        (
            "mpi.scatter_bytes",
            cat(CommCat::Scatter).bytes_sent + cat(CommCat::InterpValues).bytes_sent,
        ),
        ("mpi.allreduce_calls", allreduce_calls),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec();
    // ranks are threads that share the workspace pools and plan caches, so
    // the pool's numbers then depend on how the ranks interleave (measured:
    // checkouts 80092 or 80093, misses 174 or 176, peak within 0.6 %)
    let pool = [
        ("grid.pool_peak_bytes", after.pool.peak_bytes),
        ("grid.pool_checkouts", after.pool.checkouts),
        ("grid.pool_misses", after.pool.misses),
    ];
    let mut layers: Vec<(String, f64)> = Vec::new();
    for (k, v) in pool {
        if solo {
            counts.push((k.into(), v));
        } else {
            layers.push((k.into(), v as f64));
        }
    }
    layers.extend([
        ("data.gen_s".into(), r0.data_gen_s),
        ("mpi.wait_pct".into(), wait_pct),
        ("bench.solve_wall_s".into(), r0.solve.wall_s),
        ("bench.host_slowdown".into(), r0.solve.wall_s / r0.solve.scaled_s),
    ]);

    if mode == Mode::Traced {
        let own = trace::self_secs(&r0.spans);
        for call in ["objective", "gradient", "hess_vec", "precond"] {
            let (secs, n) = trace::total(&r0.spans, &format!("core.{call}"));
            layers.push((format!("core.{call}_s"), secs));
            counts.push((format!("core.{call}_calls"), n));
        }
        layers.push(("core.problem_new_s".into(), trace::total(&r0.spans, "core.problem_new").0));
        let opt_self: f64 = r0
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "opt.gauss_newton")
            .map(|(_, t)| t)
            .sum();
        layers.push(("opt.self_s".into(), opt_self));
        layers.extend(r0.probes.iter().map(|(k, v)| (k.to_string(), *v)));
        write_trace(&w, &r0.spans);
    }

    Sample {
        workload: w.name.into(),
        seed,
        backend: claire_simd::active_backend().label().into(),
        error: r0.error,
        setup_s: r0.setup.scaled_s,
        solve_s: r0.solve.scaled_s,
        peak_rss_mb: after.peak_rss_mb,
        rel_mismatch: r0.rel_mismatch,
        jac_det_min: r0.jac_det_min,
        counts,
        layers,
    }
}

fn rank_main(
    w: &Workload,
    seed: u64,
    mode: Mode,
    origin: Instant,
    after: &OnceLock<AfterSolve>,
    comm: &mut Comm,
) -> RankOut {
    let clock = SpeedClock::start(origin);
    match mode {
        Mode::Traced => traced_solve(w, seed, origin, clock, after, comm),
        _ => {
            let out = plain_solve(w, seed, mode == Mode::SetupOnly, clock, comm);
            record_after_solve(after, comm);
            out
        }
    }
}

fn record_after_solve(after: &OnceLock<AfterSolve>, comm: &Comm) {
    if comm.rank() == 0 {
        let _ =
            after.set(AfterSolve { pool: workspace::total_stats(), peak_rss_mb: peak_rss_mb() });
    }
}

/// Share of `[first boundary, now]` the calling thread was off the CPU.
fn wait_pct(clock: &SpeedClock, cpu_first: f64) -> f64 {
    let Some(first) = clock.first_boundary() else { return 0.0 };
    let wall = first.elapsed().as_secs_f64();
    100.0 * (1.0 - (thread_cpu_secs() - cpu_first) / wall).max(0.0)
}

/// `Claire::try_register` exactly as a user calls it; the only addition is
/// the `on_gn_iter` hook, which ticks the clock at every Gauss–Newton
/// boundary (the first one ends set-up).
fn plain_solve(
    w: &Workload,
    seed: u64,
    setup_only: bool,
    clock: SpeedClock,
    comm: &mut Comm,
) -> RankOut {
    let t_gen = Instant::now();
    let (m0, m1) = w.inputs(seed, comm);
    let data_gen_s = t_gen.elapsed().as_secs_f64();

    let clock = Arc::new(Mutex::new(clock));
    let cpu_first = Arc::new(OnceLock::new());
    let cancel = CancelToken::new();
    let hooks = SolverHooks {
        cancel: Some(cancel.clone()),
        on_gn_iter: Some(Arc::new({
            let (clock, cpu_first) = (Arc::clone(&clock), Arc::clone(&cpu_first));
            move |_| {
                cpu_first.get_or_init(thread_cpu_secs);
                clock.lock().expect("the clock's only other user is this thread").tick();
                if setup_only {
                    cancel.cancel();
                }
            }
        })),
    };
    let res = Claire::with_hooks(w.config(), hooks).try_register(&m0, &m1, comm);
    let mut clock = clock.lock().expect("the hook has returned");
    let wait_pct = wait_pct(&clock, cpu_first.get().copied().unwrap_or(0.0));
    clock.tick();

    let mut out = RankOut {
        data_gen_s,
        setup: clock.setup().unwrap_or_default(),
        solve: clock.solve().unwrap_or_default(),
        wait_pct,
        comm: comm.stats().clone(),
        ..Default::default()
    };
    match res {
        Ok((_, report)) => {
            out.gn_iters = report.gn_iters as u64;
            out.pcg_iters = report.pcg_iters as u64;
            out.rel_mismatch = report.rel_mismatch;
            out.jac_det_min = report.jac_det_min;
        }
        Err(_) if setup_only && clock.first_boundary().is_some() => {}
        Err(e) => out.error = Some(e.to_string()),
    }
    out
}

/// The traced pass: build the problem, wrap it in [`Traced`], and drive the
/// β-continuation, `claire_opt::gauss_newton` and the final report exactly
/// as `Claire::try_register_from` does; then run the layer probes at the
/// converged velocity.
fn traced_solve(
    w: &Workload,
    seed: u64,
    origin: Instant,
    clock: SpeedClock,
    after: &OnceLock<AfterSolve>,
    comm: &mut Comm,
) -> RankOut {
    let cfg = w.config();
    let mut rec = Recorder::new(origin);
    let id = rec.enter("data.generate");
    let (m0, m1) = w.inputs(seed, comm);
    rec.exit(id);
    let data_gen_s = rec.spans[id].secs();

    let id = rec.enter("core.problem_new");
    let problem = RegProblem::new(m0.clone(), m1.clone(), cfg, comm);
    rec.exit(id);
    let problem = match problem {
        Ok(p) => p,
        Err(e) => return RankOut { error: Some(e.to_string()), ..Default::default() },
    };

    let cpu_first = thread_cpu_secs();
    let mut traced = Traced { inner: problem, rec, clock };
    let gn_cfg = GnConfig {
        max_iter: cfg.max_gn_iter,
        grad_rtol: cfg.grad_rtol,
        max_pcg: cfg.max_pcg_iter,
        fixed_pcg: cfg.fixed_pcg,
        mixed: cfg.precision == Precision::Mixed,
        ..Default::default()
    };
    let mut v = VectorField::zeros(w.layout(comm));
    let (mut gn_iters, mut pcg_iters) = (0, 0);
    for beta in cfg.beta_schedule() {
        traced.inner.set_beta(beta);
        let id = traced.rec.enter("opt.gauss_newton");
        let (v_new, stats) = gauss_newton(&mut traced, v, &gn_cfg, comm);
        traced.rec.exit(id);
        v = v_new;
        gn_iters += stats.gn_iters as u64;
        pcg_iters += stats.pcg_iters_total as u64;
    }

    // the report `register` assembles before it returns: final mismatch
    // and the diffeomorphism diagnostics
    let id = traced.rec.enter("core.report");
    let rel_mismatch = traced.inner.rel_mismatch(&v, comm);
    let mut interp = Interpolator::new(cfg.ip_order);
    let traj = Trajectory::compute(&v, cfg.nt, &mut interp, comm);
    let u = displacement::displacement(&traj, cfg.nt, &mut interp, comm);
    let (jac_det_min, _) = displacement::det_bounds(&displacement::jacobian_det(&u, comm), comm);
    traced.rec.exit(id);
    drop((traj, u));

    let wait_pct = wait_pct(&traced.clock, cpu_first);
    traced.clock.tick();
    let comm_after = comm.stats().clone();
    record_after_solve(after, comm);

    let probes = probes::run(w, &traced.inner, &v, &mut traced.rec, comm);
    RankOut {
        error: None,
        data_gen_s,
        setup: traced.clock.setup().unwrap_or_default(),
        solve: traced.clock.solve().unwrap_or_default(),
        wait_pct,
        gn_iters,
        pcg_iters,
        rel_mismatch,
        jac_det_min,
        comm: comm_after,
        spans: traced.rec.spans,
        probes,
    }
}

/// CPU seconds (user + system) of the calling thread, from
/// `/proc/thread-self/stat` in 10 ms ticks; 0 where `/proc` is missing.
fn thread_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else { return 0.0 };
    // the command name may hold spaces; fields are counted after its `)`
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write rank 0's spans to `<benchmark>/out/trace-<workload>.json`. The
/// numbers do not depend on the file, so a failure only warns.
fn write_trace(w: &Workload, spans: &[Span]) {
    let id = crate::workload::WORKLOADS.iter().position(|x| x.name == w.name).unwrap_or(0);
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{}.json", w.name));
    let text = serde_json::to_string(&trace::chrome_trace(spans, id)).expect("spans render");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// `reg` on a grid small enough for a unit test. Not reachable from the
    /// command line: every measured run uses the catalogue's grid.
    fn tiny_reg() -> Workload {
        Workload { grid: [8, 8, 8], ..Workload::by_name("reg").unwrap() }
    }

    #[test]
    fn reg_smoke_solves_and_the_traced_pass_reproduces_it() {
        let plain = run(tiny_reg(), 1, Mode::Solve, Instant::now());
        assert_eq!(plain.failure(), None);
        assert!(plain.solve_s > 0.0 && plain.setup_s > 0.0 && plain.peak_rss_mb > 0.0);
        assert!(plain.count("opt.gn_iters").unwrap() >= 1);
        assert_eq!(plain.count("mpi.ghost_bytes"), Some(0), "one rank sends nothing");

        let traced = run(tiny_reg(), 1, Mode::Traced, Instant::now());
        assert_eq!(traced.failure(), None);
        assert_eq!(traced.rel_mismatch.to_bits(), plain.rel_mismatch.to_bits());
        for key in ["opt.gn_iters", "opt.pcg_iters"] {
            assert_eq!(traced.count(key), plain.count(key), "{key}");
        }
        // every Gauss–Newton iteration starts with one gradient
        assert!(traced.count("core.gradient_calls") >= traced.count("opt.gn_iters"));
        for m in crate::catalogue::PER_LAYER {
            let derived_by_parent = matches!(
                m.name,
                "opt.gn_iter_us_per_point"
                    | "mpi.strong_scaling_eff"
                    | "trace.solve_s"
                    | "trace.overhead_pct"
            );
            assert!(
                derived_by_parent
                    || traced.layer(m.name).or(traced.count(m.name).map(|n| n as f64)).is_some(),
                "traced child must report {}",
                m.name
            );
        }

        let setup = run(tiny_reg(), 1, Mode::SetupOnly, Instant::now());
        assert_eq!(setup.error, None);
        assert!(setup.setup_s > 0.0 && setup.count("opt.gn_iters") == Some(0));
    }
}
