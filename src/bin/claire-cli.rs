//! `claire-cli` — register NIfTI volumes from the command line.
//!
//! ```bash
//! claire-cli <template.nii> <reference.nii> [options]
//! claire-cli batch <manifest.json> [batch options]
//! claire-cli launch --ranks N --syn M [launch options]
//!
//! solver flags (single run, `launch` and `worker-rank` read the same ones
//! from the `RegistrationConfig` field table, onto the defaults a batch
//! manifest entry starts from too):
//!   --nt N             semi-Lagrangian time steps        (default: 4)
//!   --order KIND       linear | cubic                    (default: cubic)
//!   --precond NAME     InvA | InvH0 | 2LInvH0            (default: 2LInvH0)
//!   --precision WIDTH  f64 | mixed                       (default: f64)
//!   --beta VALUE       target regularization parameter   (default: 5e-4;
//!                      the β-continuation runs 1, 1e-1, … down to it)
//!   --beta-floor VALUE lower bound for β inside H0       (default: 5e-2)
//!   --eps-h0 VALUE     inner H0 tolerance scale          (default: 1e-3)
//!   --grad-rtol VALUE  relative gradient tolerance       (default: 5e-2)
//!   --max-gn N, --max-pcg N                              iteration caps
//!   --fixed-pcg N      fixed PCG iterations per GN step  (`null` = forcing
//!                      sequence, the default)
//!   --store-grad       cache the state gradient (faster, more memory)
//!   --continuation, --verbose    the other switches; every switch also
//!                      has a `--no-…` form (`--no-continuation`)
//!
//! options:
//!   -o DIR           output directory (default: claire_out)
//!   --report PATH    write a unified RunReport JSON (spans, GN trace,
//!                    per-kernel timings, per-collective traffic) to PATH
//!                    and print the span-tree summary on exit
//!   --syn N          skip the NIfTI inputs and register the synthetic
//!                    N³ sinusoidal problem (smoke tests, CI)
//!   -q               quiet (no per-iteration log)
//!
//! batch options:
//!   -o DIR           output directory for per-job reports (default: claire_out)
//!   --workers N      worker threads (overrides the manifest's `workers`)
//!   --threads N      machine thread budget to partition across workers
//!   -q               quiet
//!
//! launch options:
//!   --ranks N        rank processes to spawn (required)
//!   --syn M          synthetic M³ problem size (required; launch mode is
//!                    driven by the synthetic dataset so every rank can
//!                    generate its own slab without shared input files)
//!   solver flags as above; the launcher hands every rank the whole
//!                    resulting configuration as flags
//!   --timeout SECS   supervision budget before the cluster is reaped
//!                    (default: 300)
//!   --report PATH    write rank 0's RunReport JSON to PATH
//!   --in-process     run the identical solve on the threads-as-ranks
//!                    virtual cluster instead of spawning processes (the
//!                    two modes, and a single run, produce bitwise-identical
//!                    trajectories; CI diffs their reports)
//!   -q               quiet
//! ```
//!
//! Single mode writes `deformed_template.nii`, `velocity_[123].nii` and
//! `jacobian_det.nii` to the output directory, and the solve's Table 6 row
//! once: as the `summary` of the `--report` RunReport, or without
//! `--report` as `report.json` in the output directory. Batch mode
//! (`batch.rs`) validates the whole manifest, runs its jobs in priority
//! order on scoped worker threads and writes one report JSON per job.
//!
//! `launch` spawns N `worker-rank` child processes (a hidden subcommand)
//! that bootstrap a Unix-domain-socket mesh in a private rendezvous
//! directory, solve the synthetic problem as a real multi-process cluster,
//! and stream their RunReports back to the launcher. A child that dies is
//! detected and the rest of the cluster reaped — never a hang.
//!
//! Exit codes: 0 success, 2 usage, and one code per `ClaireError` variant —
//! 3 configuration, 4 layout mismatch, 5 decomposition, 6 I/O, 7 cancelled
//! or deadline expired, 8 rank failed (a launched worker process died or a
//! virtual-cluster rank panicked). Batch mode exits 1 when any job ends
//! non-succeeded.

use claire::core::config::ConfigField;
use claire::core::{observe, Claire, ClaireError, RegistrationConfig, SolverHooks};
use claire::data::nifti;
use claire::grid::{Grid, ScalarField, VectorField};
use claire::interp::Interpolator;
use claire::ipc::{LaunchSpec, SocketTransport};
use claire::mpi::{Comm, Topology, TransportError};
use claire::semilag::{displacement, Trajectory, Transport};
use serde::field;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

#[path = "claire-cli/batch.rs"]
mod batch;
use batch::{base_config, io_error};

/// One distinct nonzero exit code per `ClaireError` variant.
fn error_exit_code(e: &ClaireError) -> i32 {
    match e {
        ClaireError::Config { .. } => 3,
        ClaireError::LayoutMismatch { .. } => 4,
        ClaireError::Decomposition { .. } => 5,
        ClaireError::Io { .. } => 6,
        ClaireError::Cancelled { .. } => 7,
        ClaireError::RankFailed { .. } => 8,
    }
}

/// Print the typed error to stderr and exit with its code.
fn fail(e: &ClaireError) -> ! {
    eprintln!("claire-cli: {e}");
    exit(error_exit_code(e))
}

struct Options {
    template: PathBuf,
    reference: PathBuf,
    out: PathBuf,
    report: Option<PathBuf>,
    syn: Option<usize>,
    cfg: RegistrationConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: claire-cli <template.nii> <reference.nii> [-o DIR] [--report PATH] [--syn N]"
    );
    eprintln!("                  [-q] [solver flags]");
    eprintln!("       claire-cli batch <manifest.json> [-o DIR] [--workers N] [--threads N]");
    eprintln!("                  [-q]");
    eprintln!("       claire-cli launch --ranks N --syn M [--timeout SECS] [--report PATH]");
    eprintln!("                  [--in-process] [-q] [solver flags]");
    let cfg = RegistrationConfig::default();
    let flags = ConfigField::all().iter().map(|f| match (f.get)(&cfg) {
        Value::Bool(_) => format!("[{}]", f.flag),
        _ => format!("[{} V]", f.flag),
    });
    eprintln!("solver flags (a switch also has a --no-… form):");
    eprintln!("  {}", flags.collect::<Vec<_>>().join(" "));
    exit(2)
}

/// The value after `flag`, or the usage exit.
fn next_value(args: &mut dyn Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

/// [`next_value`] parsed as a `T`, or the usage exit.
fn parsed<T: std::str::FromStr>(args: &mut dyn Iterator<Item = String>, flag: &str) -> T {
    let v = next_value(args, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {v}");
        usage()
    })
}

/// Apply `arg` to `cfg` if the [`ConfigField`] table lists it as a solver
/// flag: `--flag VALUE` (a number or `null` as JSON, anything else as a
/// label), or `--flag` / `--no-flag` for a bool field. `false`: not a solver
/// flag, nothing consumed.
fn config_flag(
    cfg: &mut RegistrationConfig,
    arg: &str,
    args: &mut dyn Iterator<Item = String>,
) -> bool {
    let negated = arg.strip_prefix("--no-").map(|rest| format!("--{rest}"));
    let name = negated.as_deref().unwrap_or(arg);
    let Some(f) = ConfigField::all().iter().find(|f| f.flag == name) else {
        return false;
    };
    let value = match ((f.get)(cfg), negated.is_some()) {
        (Value::Bool(_), off) => Value::Bool(!off),
        (_, true) => return false,
        (_, false) => {
            let text = next_value(args, arg);
            serde_json::from_str(&text).unwrap_or(Value::Str(text))
        }
    };
    (f.set)(cfg, &value).unwrap_or_else(|e| {
        eprintln!("invalid value for {arg}: {e}");
        usage()
    });
    true
}

/// `cfg` as the flags [`config_flag`] reads back to the same bits: what the
/// launcher puts on every worker's command line.
fn config_args(cfg: &RegistrationConfig) -> Vec<String> {
    let render = |f: &ConfigField| match (f.get)(cfg) {
        Value::Bool(true) => vec![f.flag.to_string()],
        Value::Bool(false) => vec![f.flag.replacen("--", "--no-", 1)],
        Value::Str(label) => vec![f.flag.to_string(), label],
        number => {
            vec![f.flag.to_string(), serde_json::to_string(&number).expect("a JSON value renders")]
        }
    };
    ConfigField::all().iter().flat_map(render).collect()
}

fn parse_args(args: Vec<String>) -> Options {
    let mut args = args.into_iter();
    let mut positional: Vec<String> = Vec::new();
    let mut out = PathBuf::from("claire_out");
    let mut report = None;
    let mut syn = None;
    let mut cfg = RegistrationConfig { verbose: true, ..base_config() };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out = PathBuf::from(next_value(&mut args, "-o")),
            "--report" => report = Some(PathBuf::from(next_value(&mut args, "--report"))),
            "--syn" => syn = Some(parsed(&mut args, "--syn")),
            "-q" => cfg.verbose = false,
            "-h" | "--help" => usage(),
            flag if config_flag(&mut cfg, flag, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage()
            }
            other => positional.push(other.to_string()),
        }
    }
    match (syn.is_some(), positional.len()) {
        (true, 0) | (false, 2) => {}
        _ => usage(),
    }
    if let Some(n) = syn {
        // Grid::new asserts this; catch it here for a typed error instead
        if n < 2 {
            fail(&ClaireError::Config {
                param: "syn",
                message: format!("grid needs >= 2 points per dim, got {n}"),
            });
        }
    }
    cfg.validate().unwrap_or_else(|e| fail(&e));
    let get = |i: usize| positional.get(i).map(PathBuf::from).unwrap_or_default();
    Options { template: get(0), reference: get(1), out, report, syn, cfg }
}
fn load(path: &Path) -> ScalarField {
    nifti::read(path).unwrap_or_else(|e| fail(&io_error("nifti::read", path, &e)))
}

fn write_nifti(path: &Path, field: &ScalarField) {
    nifti::write(path, field).unwrap_or_else(|e| fail(&io_error("nifti::write", path, &e)));
}

fn create_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&io_error("create_dir_all", dir, &e)));
}

fn write_text(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(&io_error("fs::write", path, &e)));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("batch") => {
            args.remove(0);
            batch_main(args);
        }
        Some("launch") => {
            args.remove(0);
            launch_main(args);
        }
        Some("worker-rank") => {
            args.remove(0);
            worker_rank_main(args);
        }
        _ => single_main(parse_args(args)),
    }
}

fn single_main(opts: Options) {
    let mut comm = Comm::solo();

    let (m0, m1) = match opts.syn {
        Some(n) => {
            let prob = claire::data::syn::syn_problem([n, n, n], &mut comm);
            (prob.template, prob.reference)
        }
        None => {
            let m0 = load(&opts.template);
            let m1 = load(&opts.reference);
            if m0.layout().grid != m1.layout().grid {
                fail(&ClaireError::LayoutMismatch {
                    context: "claire-cli",
                    message: format!(
                        "template grid {:?} vs reference grid {:?}",
                        m0.layout().grid.n,
                        m1.layout().grid.n
                    ),
                });
            }
            (m0, m1)
        }
    };
    let label = match opts.syn {
        Some(_) => "syn".to_string(),
        None => format!("{} -> {}", opts.template.display(), opts.reference.display()),
    };
    eprintln!(
        "registering {} at {:?} with {} (β -> {:.1e})",
        label,
        m0.layout().grid.n,
        opts.cfg.precond.label(),
        opts.cfg.beta_target
    );

    let cfg = opts.cfg;
    if opts.report.is_some() {
        observe::begin();
    }
    let mut solver = Claire::new(cfg);
    let t0 = std::time::Instant::now();
    let (v, report) =
        solver.try_register_from(&m0, &m1, "cli", &mut comm).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "done in {:.1}s: mismatch {:.3e}, GN {}, PCG {}, det(∇y) ∈ [{:.3}, {:.3}]",
        t0.elapsed().as_secs_f64(),
        report.rel_mismatch,
        report.gn_iters,
        report.pcg_iters,
        report.jac_det_min,
        report.jac_det_max
    );

    // the Table 6 row is written once: as the run report's summary, or on
    // its own into the output directory
    let row = match &opts.report {
        Some(path) => {
            let run = observe::collect_run_report(report, &comm);
            eprint!("{}", run.span_summary());
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                create_dir(dir);
            }
            write_text(path, &run.to_json());
            eprintln!("wrote run report to {}", path.display());
            None
        }
        None => Some(report),
    };

    create_dir(&opts.out);
    let (deformed, det) = deformed_and_jacobian(&m0, &v, &cfg, &mut comm);
    write_nifti(&opts.out.join("deformed_template.nii"), &deformed);
    for (d, comp) in v.c.iter().enumerate() {
        write_nifti(&opts.out.join(format!("velocity_{}.nii", d + 1)), comp);
    }
    write_nifti(&opts.out.join("jacobian_det.nii"), &det);
    if let Some(report) = row {
        let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
            fail(&ClaireError::Io { context: "report", message: e.to_string() })
        });
        write_text(&opts.out.join("report.json"), &json);
    }
    eprintln!("wrote results to {}", opts.out.display());
}

/// The deformed template `m(·, 1)` and the Jacobian determinant map of the
/// deformation `v` generates, both from one backward trajectory of `v`.
fn deformed_and_jacobian(
    m0: &ScalarField,
    v: &VectorField,
    cfg: &RegistrationConfig,
    comm: &mut Comm,
) -> (ScalarField, ScalarField) {
    let ip = Interpolator::new(cfg.ip_order);
    let traj = Trajectory::backward(v, cfg.nt, &ip, comm);
    let transport = Transport::new(cfg.nt, cfg.ip_order);
    let deformed = transport.solve_state(&traj, m0, false, &ip, comm).final_state().clone();
    let u = displacement::displacement(&traj, cfg.nt, &ip, comm);
    (deformed, displacement::jacobian_det(&u, comm))
}

// ---------------------------------------------------------------------------
// batch mode
// ---------------------------------------------------------------------------

fn batch_main(args: Vec<String>) {
    let mut args = args.into_iter();
    let mut manifest_path: Option<PathBuf> = None;
    let mut out = PathBuf::from("claire_out");
    let (mut workers, mut threads) = (None, 0);
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out = PathBuf::from(next_value(&mut args, "-o")),
            "--workers" => workers = Some(parsed(&mut args, "--workers")),
            "--threads" => threads = parsed(&mut args, "--threads"),
            "-q" => quiet = true,
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage()
            }
            other if manifest_path.is_none() => manifest_path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let manifest = batch::read_manifest(&manifest_path.unwrap_or_else(|| usage()))
        .unwrap_or_else(|e| fail(&e));
    // a flag overrides the manifest's worker count
    let workers = workers.or(manifest.workers).unwrap_or(1).max(1);
    if !quiet {
        eprintln!("batch: {} job(s), {workers} worker(s)", manifest.jobs.len());
    }
    let jobs = batch::parse_jobs(&manifest.jobs, quiet).unwrap_or_else(|e| fail(&e));

    create_dir(&out);
    observe::begin(); // span trees feed the per-job reports
    let outcomes = batch::run(&jobs, workers, threads, &|outcome| {
        batch::write_report(&out, outcome).unwrap_or_else(|e| fail(&e));
        if !quiet {
            eprintln!("{}", batch::summary_line(outcome));
        }
    });
    claire::obs::set_enabled(false);
    if !quiet {
        eprintln!("wrote batch reports to {}", out.display());
    }
    let failures = outcomes.iter().filter(|o| o.status != batch::Status::Succeeded).count();
    if failures > 0 {
        eprintln!("claire-cli: {failures} job(s) did not succeed");
        exit(1);
    }
}

// ---------------------------------------------------------------------------
// launch mode (multi-process execution)
// ---------------------------------------------------------------------------

/// Options shared by `launch` and the hidden `worker-rank` subcommand. The
/// launcher hands every worker its whole solver configuration as flags
/// ([`config_args`]), so both sides parse the same grammar and hold the same
/// config.
struct LaunchOpts {
    ranks: usize,
    syn: usize,
    cfg: RegistrationConfig,
    timeout_secs: u64,
    report: Option<PathBuf>,
    in_process: bool,
    quiet: bool,
    /// Rendezvous directory (worker-rank only).
    dir: Option<PathBuf>,
    /// Own rank (worker-rank only).
    rank: Option<usize>,
}

fn parse_launch_args(args: Vec<String>, worker: bool) -> LaunchOpts {
    let mut o = LaunchOpts {
        ranks: 0,
        syn: 0,
        cfg: base_config(),
        timeout_secs: 300,
        report: None,
        in_process: false,
        quiet: false,
        dir: None,
        rank: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => o.ranks = parsed(&mut args, "--ranks"),
            "--syn" => o.syn = parsed(&mut args, "--syn"),
            "--timeout" if !worker => o.timeout_secs = parsed(&mut args, "--timeout"),
            "--report" if !worker => {
                o.report = Some(PathBuf::from(next_value(&mut args, "--report")))
            }
            "--in-process" if !worker => o.in_process = true,
            "--dir" if worker => o.dir = Some(PathBuf::from(next_value(&mut args, "--dir"))),
            "--rank" if worker => o.rank = Some(parsed(&mut args, "--rank")),
            "-q" => o.quiet = true,
            "-h" | "--help" => usage(),
            flag if config_flag(&mut o.cfg, flag, &mut args) => {}
            other => {
                eprintln!("unknown launch option {other}");
                usage()
            }
        }
    }
    if o.ranks == 0 {
        eprintln!("--ranks is required (>= 1)");
        usage()
    }
    if o.syn < 2 {
        eprintln!("--syn is required (grid needs >= 2 points per dim)");
        usage()
    }
    if worker && (o.dir.is_none() || o.rank.is_none()) {
        eprintln!("worker-rank needs --dir and --rank");
        usage()
    }
    o.cfg.validate().unwrap_or_else(|e| fail(&e));
    // refuse a grid the solver cannot split before any rank is started
    o.cfg.validate_grid(Grid::new([o.syn; 3]), o.ranks).unwrap_or_else(|e| fail(&e));
    o
}

fn launch_main(args: Vec<String>) {
    let o = parse_launch_args(args, false);
    if o.in_process {
        return launch_in_process(&o);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        fail(&ClaireError::Io { context: "current_exe", message: e.to_string() })
    });
    let mut worker_args = vec!["--syn".to_string(), o.syn.to_string()];
    worker_args.extend(config_args(&o.cfg));
    let mut spec = LaunchSpec::new(exe, o.ranks, worker_args);
    spec.timeout = Duration::from_secs(o.timeout_secs);
    let outcome = claire::ipc::launch(&spec).unwrap_or_else(|e| fail(&e));
    let rank0 = outcome.reports.into_iter().next().unwrap_or_default();
    finish_launch(&o, rank0, "socket");
}

/// `--in-process`: the identical solve on the threads-as-ranks virtual
/// cluster, as a reference for the multi-process path. Spans, GN records
/// and kernel timers are per rank thread, so rank 0's report is its own, as
/// a rank process's is.
fn launch_in_process(o: &LaunchOpts) {
    let topo = Topology::longhorn(o.ranks);
    let (cfg, syn) = (o.cfg, o.syn);
    observe::begin();
    let result = claire::mpi::try_run_cluster(topo, |comm| {
        let prob = claire::data::syn::syn_problem([syn; 3], comm);
        let mut solver = Claire::new(cfg);
        let (_v, report) = solver.register_from(&prob.template, &prob.reference, "launch", comm);
        // Mirror the worker's pre-collection barrier so both transports
        // ledger identical collective counts.
        comm.barrier();
        if comm.rank() == 0 {
            Some(observe::collect_run_report(report, comm))
        } else {
            None
        }
    });
    claire::obs::set_enabled(false);
    let outputs = match result {
        Ok(res) => res.outputs,
        Err(e) => fail(&ClaireError::from(e)),
    };
    let run = outputs.into_iter().flatten().next().unwrap_or_else(|| {
        fail(&ClaireError::RankFailed { rank: 0, message: "no rank-0 report".into() })
    });
    finish_launch(o, run.to_json(), "channel");
}

/// Write/print the rank-0 report on the launcher side.
fn finish_launch(o: &LaunchOpts, json: String, transport: &str) {
    if let Some(path) = &o.report {
        write_text(path, &json);
    }
    if !o.quiet {
        let run = serde_json::from_str(&json).ok();
        let summary = run.as_ref().and_then(|v| field::<Value>(v, "summary").ok());
        let of = |key| summary.as_ref().and_then(|s| field::<f64>(s, key).ok()).unwrap_or(f64::NAN);
        let (gn, mm) = (of("gn_iters"), of("rel_mismatch"));
        eprintln!("launch: {} ranks ({transport}): {gn} GN iters, mismatch {mm:.3e}", o.ranks);
        if o.ranks > 1 {
            let comm = run.as_ref().and_then(|v| field::<Vec<Value>>(v, "comm").ok());
            let blocked: f64 = comm
                .iter()
                .flatten()
                .filter_map(|phase| field::<f64>(phase, "blocked_secs").ok())
                .sum();
            let total = of("time_total");
            eprintln!(
                "rank 0 blocked in communication {blocked:.3} s of {total:.3} s ({:.1} %)",
                100.0 * blocked / total
            );
        }
        if let Some(path) = &o.report {
            eprintln!("rank-0 RunReport written to {}", path.display());
        }
    }
}

/// Hidden subcommand: one rank process of a `claire-cli launch` cluster.
/// Bootstraps the socket mesh in the launcher's rendezvous directory, runs
/// the solve, and sends the RunReport (or an in-band failure) back over
/// `launch.sock` before exiting.
fn worker_rank_main(args: Vec<String>) {
    let o = parse_launch_args(args, true);
    let (dir, rank) = (o.dir.clone().unwrap(), o.rank.unwrap());
    let topo = Topology::longhorn(o.ranks);
    let transport = match SocketTransport::bootstrap(&dir, rank, topo, None) {
        Ok(t) => t,
        Err(e) => {
            let _ = claire::ipc::launch::send_failure(&dir, rank, e.to_string());
            fail(&e)
        }
    };
    let mut comm = Comm::from_transport(Box::new(transport));
    observe::begin();

    // The default panic hook prints an opaque "Box<dyn Any>" line for
    // `panic_any(TransportError)`; silence just that case — the catch
    // around the solve below turns it into a proper in-band report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<TransportError>().is_none() {
            default_hook(info);
        }
    }));

    let mut hooks = SolverHooks::default();
    if let Ok(v) = std::env::var("CLAIRE_IPC_TEST_DIE_RANK") {
        // Failure-path test hook (proc-smoke): this rank dies mid-solve so
        // the launcher's dead-rank detection can be exercised end to end.
        if v.parse::<usize>() == Ok(rank) {
            hooks.on_gn_iter = Some(std::sync::Arc::new(|_| std::process::exit(101)));
        }
    }

    let prob = claire::data::syn::syn_problem([o.syn; 3], &mut comm);
    let mut solver = Claire::with_hooks(o.cfg, hooks);
    // Transport failures surface as panics carrying a `TransportError` (the
    // same mechanism the virtual cluster uses); catch them so a rank that
    // merely *observed* a peer die reports the culprit in-band and exits 0
    // instead of panicking — the launcher then attributes the failure to the
    // rank that actually died, never to a bystander.
    let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        solver.try_register_from(&prob.template, &prob.reference, "launch", &mut comm)
    }));
    match solve {
        Ok(Ok((_v, report))) => {
            // Barrier before collecting so every rank ledgers the same
            // collective counts (mirrored by the in-process path).
            comm.barrier();
            let run = observe::collect_run_report(report, &comm);
            claire::obs::set_enabled(false);
            claire::ipc::launch::send_report(&dir, rank, run.to_json())
                .unwrap_or_else(|e| fail(&e));
        }
        Ok(Err(e)) => {
            let _ = claire::ipc::launch::send_failure(&dir, rank, e.to_string());
            fail(&e)
        }
        Err(payload) => {
            let (culprit, message) = match payload.downcast_ref::<TransportError>() {
                Some(TransportError::PeerLost { peer, detail }) => {
                    (*peer, format!("lost mid-solve: {detail}"))
                }
                Some(e) => (rank, e.to_string()),
                None => {
                    (rank, format!("panicked: {}", claire::mpi::panic_message(payload.as_ref())))
                }
            };
            let _ = claire::ipc::launch::send_failure(&dir, culprit, message.clone());
            if culprit == rank {
                fail(&ClaireError::RankFailed { rank, message })
            }
            // A bystander: the culprit's own exit (or our Failure frame)
            // already tells the launcher what happened; leave quietly.
            exit(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batch::{parse_job, parse_jobs, parse_manifest, Job};
    use claire::core::{Precision, PrecondKind, RegProblem};
    use claire::interp::IpOrder;

    fn job(json: &str) -> Result<Job, ClaireError> {
        parse_job(&serde_json::from_str(json).expect("test manifest is valid JSON"), 0, true)
    }

    /// `base` after the command line `flags`, before validation.
    fn flagged(mut base: RegistrationConfig, flags: Vec<String>) -> RegistrationConfig {
        let mut args = flags.into_iter();
        while let Some(arg) = args.next() {
            assert!(config_flag(&mut base, &arg, &mut args), "{arg} is not a solver flag");
        }
        base
    }

    #[test]
    fn one_trajectory_writes_the_problems_deformed_template_and_jacobian() {
        let mut comm = Comm::solo();
        let syn = claire::data::syn::syn_problem([8; 3], &mut comm);
        let (m0, v) = (&syn.template, &syn.true_velocity);
        let bits = |f: &ScalarField| f.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ip_order in [IpOrder::Linear, IpOrder::Cubic] {
            let cfg = RegistrationConfig { ip_order, ..base_config() };
            let (deformed, det) = deformed_and_jacobian(m0, v, &cfg, &mut comm);
            let mut problem =
                RegProblem::new(m0.clone(), syn.reference.clone(), cfg, &mut comm).unwrap();
            assert_eq!(
                bits(&deformed),
                bits(&problem.deformed_template(v, &mut comm)),
                "{ip_order:?}"
            );
            let ip = Interpolator::new(ip_order);
            let traj = Trajectory::backward(v, cfg.nt, &ip, &mut comm);
            let u = displacement::displacement(&traj, cfg.nt, &ip, &mut comm);
            assert_eq!(
                bits(&det),
                bits(&displacement::jacobian_det(&u, &mut comm)),
                "{ip_order:?}"
            );
        }
    }

    #[test]
    fn manifest_job_selects_precision_and_ip_order_by_label() {
        let spec = job(r#"{"syn": 8, "precision": "mixed", "ip_order": "cubic"}"#).unwrap();
        assert_eq!(spec.config.precision, Precision::Mixed);
        assert_eq!(spec.config.ip_order, IpOrder::Cubic);
        let spec = job(r#"{"syn": 8, "precision": "f64", "precond": "InvH0"}"#).unwrap();
        assert_eq!(
            (spec.config.precision, spec.config.precond),
            (Precision::F64, PrecondKind::InvH0)
        );
    }

    #[test]
    fn manifest_job_rejects_unknown_labels() {
        for entry in [
            r#"{"label": "j", "syn": 8, "precision": "f16"}"#,
            r#"{"label": "j", "syn": 8, "ip_order": "quintic"}"#,
            r#"{"label": "j", "syn": 8, "precond": "invA"}"#,
            r#"{"label": "j", "syn": 8, "priority": "urgent"}"#,
        ] {
            match job(entry) {
                Err(ClaireError::Config { param: "manifest", message }) => {
                    assert!(message.starts_with("j: unknown "), "message: {message}")
                }
                Err(other) => panic!("{entry}: expected a manifest error, got {other:?}"),
                Ok(_) => panic!("{entry}: unknown label accepted"),
            }
        }
    }

    /// Once `eps_h0` and `store_grad` in a manifest ran with the defaults and
    /// a typo ran with no warning; a removed field is a typo now.
    #[test]
    fn manifest_job_reads_every_field_and_names_the_key_it_does_not_know() {
        let spec = job(r#"{"syn": 8, "eps_h0": 0.01, "store_grad": true,
                "beta": 2.0, "priority": "low", "deadline_ms": 1500}"#)
        .unwrap();
        let cfg = spec.config;
        assert_eq!((cfg.eps_h0, cfg.store_grad), (0.01, true));
        // the short spelling of `beta_target`; a target above the
        // continuation's start is the whole schedule, as with `--beta 2`
        assert_eq!((cfg.beta_target, cfg.beta_schedule()), (2.0, vec![2.0]));
        assert_eq!(spec.priority.label(), "low");
        assert_eq!(spec.deadline, Some(Duration::from_millis(1500)));

        // a removed field is refused by name (spelled in parts: it is gone)
        let gone = concat!("grid", "_continuation");
        let gone_entry = format!(r#"{{"label": "gone", "syn": 8, "{gone}": true}}"#);
        let gone_names = format!("gone: unknown key `{gone}`");
        for (entry, names) in [
            (
                r#"{"label": "typo", "syn": 8, "presision": "mixed"}"#,
                "typo: unknown key `presision`",
            ),
            (gone_entry.as_str(), gone_names.as_str()),
            (r#"{"syn": 8, "nt": "4"}"#, "job-0: expected a non-negative integer"),
            (r#"{"label": "j", "syn": 8, "continuation": 1}"#, "`continuation`"),
            (r#"{"label": "j"}"#, "j: needs `syn`"),
        ] {
            match job(entry) {
                Err(ClaireError::Config { param: "manifest", message }) => {
                    assert!(message.contains(names), "{entry}: {message}")
                }
                other => panic!("{entry}: expected a manifest error, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn manifest_whose_labels_share_a_report_file_is_refused_naming_both() {
        let jobs = |entries: &str| -> Vec<Value> {
            field(&serde_json::from_str(&format!(r#"{{"jobs": [{entries}]}}"#)).unwrap(), "jobs")
                .unwrap()
        };
        for (entries, names) in [
            (r#"{"label": "a", "syn": 8}, {"label": "a", "syn": 8}"#, "0 (`a`) and 1 (`a`)"),
            (r#"{"label": "a b", "syn": 8}, {"label": "a_b", "syn": 8}"#, "0 (`a b`) and 1"),
            (r#"{"label": "job-1", "syn": 8}, {"syn": 8}"#, "0 (`job-1`) and 1 (`job-1`)"),
        ] {
            match parse_jobs(&jobs(entries), true) {
                Err(e @ ClaireError::Config { param: "manifest", .. }) => {
                    assert_eq!(error_exit_code(&e), 3);
                    assert!(e.to_string().contains(names), "{entries}: {e}");
                }
                other => panic!("{entries}: expected a manifest error, got {:?}", other.err()),
            }
        }
        let distinct = r#"{"label": "a", "syn": 8}, {"label": "b", "syn": 8}, {"syn": 8}"#;
        assert_eq!(parse_jobs(&jobs(distinct), true).unwrap().len(), 3);
    }

    #[test]
    fn cubic_spline_is_refused_by_flag_and_by_manifest() {
        let by_flag =
            flagged(RegistrationConfig::default(), vec!["--order".into(), "cubic_spline".into()]);
        assert_eq!(by_flag.ip_order, IpOrder::CubicSpline);
        for refused in
            [by_flag.validate(), job(r#"{"syn": 8, "ip_order": "cubic_spline"}"#).map(drop)]
        {
            assert!(
                matches!(refused, Err(ClaireError::Config { param: "ip_order", .. })),
                "{refused:?}"
            );
        }
    }

    /// The three settings that became constants (spelled in parts: they are
    /// gone) are unknown options to every flag front end (the usage exit)
    /// and unknown keys to a manifest (a config error naming the key).
    #[test]
    fn settings_that_became_constants_are_refused_by_flag_and_by_manifest() {
        for (flag, key) in [
            (concat!("--beta", "-init"), concat!("beta", "_init")),
            (concat!("--beta", "-reduction"), concat!("beta", "_reduction")),
            (concat!("--max", "-inner"), concat!("max_inner", "_iter")),
        ] {
            let mut cfg = base_config();
            assert!(!config_flag(&mut cfg, flag, &mut std::iter::once("0.5".into())), "{flag}");
            assert_eq!(cfg, base_config(), "{flag} moved a field");
            let entry = format!(r#"{{"label": "j", "syn": 8, "{key}": 0.5}}"#);
            match job(&entry) {
                Err(e @ ClaireError::Config { param: "manifest", .. }) => {
                    assert_eq!(error_exit_code(&e), 3);
                    assert!(e.to_string().contains(&format!("j: unknown key `{key}`")), "{e}");
                }
                other => panic!("{entry}: expected a manifest error, got {:?}", other.err()),
            }
        }
    }

    /// `{"syn": 8}` in a manifest and `claire-cli --syn 8` solve one problem:
    /// both front ends start from the same defaults.
    #[test]
    fn a_manifest_entry_and_a_single_run_start_from_one_default() {
        let by_manifest = job(r#"{"syn": 8}"#).unwrap().config;
        let by_flags = parse_args(["--syn", "8"].map(String::from).to_vec()).cfg;
        assert!(by_flags.verbose && !by_manifest.verbose);
        assert_eq!(RegistrationConfig { verbose: false, ..by_flags }, by_manifest);
        assert_eq!(by_manifest.ip_order, IpOrder::Cubic);
    }

    #[test]
    fn flags_keep_their_parent_meaning() {
        let single = RegistrationConfig { verbose: true, ..base_config() };
        let text = "--precond InvA --beta 2 --nt 8 --order linear --store-grad --eps-h0 1e-2";
        let cfg = flagged(single, text.split(' ').map(String::from).collect());
        cfg.validate().unwrap();
        let expect = RegistrationConfig::builder()
            .precond(PrecondKind::InvA)
            .beta(2.0)
            .nt(8)
            .ip_order(IpOrder::Linear)
            .store_grad(true)
            .eps_h0(1e-2)
            .verbose(true)
            .build()
            .unwrap();
        assert_eq!(cfg, expect);
        // a removed switch is no solver flag, so every mode refuses it as an
        // unknown option (the usage exit); spelled in parts, as it is gone
        for gone in [concat!("--grid", "-cont"), concat!("--no-grid", "-cont")] {
            let mut cfg = RegistrationConfig::default();
            assert!(!config_flag(&mut cfg, gone, &mut std::iter::empty()), "{gone}");
        }
        // nor are the removed job-coalescing switches
        for gone in [concat!("--no", "-batch"), concat!("--max", "-batch")] {
            let mut cfg = RegistrationConfig::default();
            assert!(!config_flag(&mut cfg, gone, &mut std::iter::once("8".into())), "{gone}");
        }

        let launch = |flags: &str| {
            let args = format!("--ranks 2 --syn 8 {flags}");
            parse_launch_args(args.split_whitespace().map(String::from).collect(), false).cfg
        };
        // `launch` reads its flags onto a single run's defaults
        let single_run = parse_args(["--syn", "8", "-q"].map(String::from).to_vec()).cfg;
        assert_eq!(launch(""), single_run);
        assert_eq!(
            (single_run.ip_order, single_run.precond),
            (IpOrder::Cubic, PrecondKind::TwoLevelInvH0)
        );
        let cfg = launch("--max-gn 2 --fixed-pcg 7 --beta 5 --order linear --precond InvA");
        assert_eq!((cfg.max_gn_iter, cfg.fixed_pcg, cfg.beta_target), (2, Some(7), 5.0));
        assert_eq!(cfg.beta_schedule(), vec![5.0]);
        assert_eq!((cfg.ip_order, cfg.precond), (IpOrder::Linear, PrecondKind::InvA));
        assert_eq!(launch("--fixed-pcg null --no-verbose").fixed_pcg, None);
    }

    /// One value per field that its `set` accepts, that differs from
    /// `current` and that keeps the default configuration valid.
    fn another(f: &ConfigField, current: &Value) -> Value {
        let labels = ["linear", "cubic", "InvA", "InvH0", "f64", "mixed"];
        let candidates: Vec<Value> = match current {
            Value::Bool(b) => vec![Value::Bool(!b)],
            Value::UInt(n) => vec![Value::UInt(n + 3)],
            Value::Num(x) => vec![Value::Num(x * 0.75)],
            Value::Null => vec![Value::UInt(3)],
            _ => labels.iter().map(|l| Value::Str(l.to_string())).collect(),
        };
        let accepted =
            |v: &&Value| v != &current && (f.set)(&mut RegistrationConfig::default(), v).is_ok();
        candidates
            .iter()
            .find(accepted)
            .unwrap_or_else(|| panic!("no other value for {}", f.key))
            .clone()
    }

    /// Every field of the table, set to a non-default value, must arrive
    /// unchanged through each front end. A field added to the table is
    /// covered here without touching this test.
    #[test]
    fn every_config_field_survives_every_front_end_and_moves_every_key() {
        let base = base_config();
        for f in ConfigField::all() {
            let value = another(f, &(f.get)(&base));
            let mut want = base;
            (f.set)(&mut want, &value).unwrap();
            assert_ne!(want, base, "{}: set did not change the config", f.key);
            assert_eq!((f.get)(&want), value, "{}: get does not read what set wrote", f.key);
            want.validate().unwrap_or_else(|e| panic!("{}: {e}", f.key));

            // manifest: by key and, where there is one, by alias
            for key in std::iter::once(f.key).chain(f.alias) {
                let entry = Value::Object(vec![
                    ("syn".into(), Value::UInt(8)),
                    (key.into(), value.clone()),
                ]);
                assert_eq!(parse_job(&entry, 0, true).unwrap().config, want, "{key}: manifest");
            }

            // command line: flags → config, and the launcher's flags as a
            // worker (which starts from other defaults) reads them back
            assert_eq!(flagged(base, config_args(&want)), want, "{}: flags", f.key);
            let mut worker = vec!["--ranks", "2", "--syn", "8", "--dir", "d", "--rank", "1"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>();
            worker.extend(config_args(&want));
            assert_eq!(parse_launch_args(worker, true).cfg, want, "{}: launcher → worker", f.key);
        }
    }

    /// The job entries of the manifest document `text`.
    fn entries(text: &str) -> Vec<Value> {
        field(&serde_json::from_str(text).expect("test manifest is valid JSON"), "jobs").unwrap()
    }

    /// A bad entry is refused with its own typed error before any entry of
    /// the manifest runs, however many good entries precede it.
    #[test]
    fn manifest_is_validated_whole_before_any_job_runs() {
        let first = r#"{"label": "first", "syn": 16, "nt": 2, "max_gn_iter": 1}"#;
        for (bad, names) in [
            (r#"{"label": "bad", "syn": 1}"#, "bad: extents must all be >= 2, got 1"),
            (r#"{"label": "bad", "syn": 0}"#, "bad: extents must all be >= 2"),
            (r#"{"label": "bad", "syn": 200000}"#, "grid points one job may ask for"),
            (r#"{"label": "bad", "syn": 4194304}"#, "grid points one job may ask for"),
        ] {
            let manifest = format!(r#"{{"jobs": [{first}, {bad}]}}"#);
            match parse_jobs(&entries(&manifest), true) {
                Err(e @ ClaireError::Config { param: "grid", .. }) => {
                    assert_eq!(error_exit_code(&e), 3);
                    assert!(e.to_string().contains(names), "{bad}: {e}");
                }
                other => panic!("{bad}: expected a grid error, got {:?}", other.err()),
            }
        }
        let manifest = format!(r#"{{"jobs": [{first}, {{"label": "bad", "syn": 8, "nt": 0}}]}}"#);
        let err = parse_jobs(&entries(&manifest), true).err().expect("nt 0 is refused");
        assert!(matches!(err, ClaireError::Config { param: "nt", .. }), "{err}");

        // a pair whose images differ in grid is a layout error (exit 4)
        use claire::grid::{Grid, Layout, ScalarField};
        let dir = std::env::temp_dir().join(format!("claire-cli-pair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, n) in [("t.nii", 8), ("r.nii", 16)] {
            nifti::write(&dir.join(name), &ScalarField::zeros(Layout::serial(Grid::cube(n))))
                .unwrap();
        }
        let (t, r) = (dir.join("t.nii"), dir.join("r.nii"));
        let pair = format!(
            r#"{{"jobs": [{first}, {{"label": "pair", "template": "{}", "reference": "{}"}}]}}"#,
            t.display(),
            r.display()
        );
        let err = parse_jobs(&entries(&pair), true).err().expect("a mismatched pair is refused");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(err, ClaireError::LayoutMismatch { .. }), "{err}");
        assert_eq!(error_exit_code(&err), 4);
        assert!(err.to_string().contains("pair: template grid [8, 8, 8]"), "{err}");
    }

    #[test]
    fn manifest_top_level_holds_only_jobs_and_workers() {
        let jobs = r#""jobs": [{"syn": 8}]"#;
        for (top, names) in [
            (r#""worker": 2"#, "unknown top-level key `worker`"),
            (r#""queue_capacity": 8"#, "unknown top-level key `queue_capacity`"),
            (r#""workers": "two""#, "expected a non-negative integer"),
            (r#""workers": -1"#, "expected a non-negative integer"),
            (r#""workers": 1.5"#, "at `workers`"),
        ] {
            let doc = serde_json::from_str(&format!("{{{jobs}, {top}}}")).unwrap();
            match parse_manifest(&doc) {
                Err(e @ ClaireError::Config { param: "manifest", .. }) => {
                    assert_eq!(error_exit_code(&e), 3);
                    assert!(e.to_string().contains(names), "{top}: {e}");
                }
                other => panic!("{top}: expected a manifest error, got {:?}", other.err()),
            }
        }
        let workers = |text: &str| parse_manifest(&serde_json::from_str(text).unwrap()).unwrap();
        assert_eq!(workers(&format!(r#"{{{jobs}, "workers": 2}}"#)).workers, Some(2));
        assert_eq!(workers(&format!("{{{jobs}}}")).workers, None);
        for empty in [r#"{"jobs": []}"#, r#"{"workers": 2}"#, "[]"] {
            let doc = serde_json::from_str(empty).unwrap();
            assert!(parse_manifest(&doc).is_err(), "{empty}");
        }
    }
}
