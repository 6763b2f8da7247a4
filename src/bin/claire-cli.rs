//! `claire-cli` — register NIfTI volumes from the command line.
//!
//! ```bash
//! claire-cli <template.nii> <reference.nii> [options]
//! claire-cli batch <manifest.json> [batch options]
//! claire-cli serve --listen ADDR [serve options]
//! claire-cli submit --addr ADDR <manifest.json> [submit options]
//! claire-cli launch --ranks N --syn M [launch options]
//!
//! options:
//!   -o DIR           output directory (default: claire_out)
//!   --precond NAME   InvA | InvH0 | 2LInvH0          (default: 2LInvH0)
//!   --beta VALUE     target regularization parameter (default: 5e-4)
//!   --nt N           semi-Lagrangian time steps      (default: 4)
//!   --order KIND     linear | cubic | cubic_spline   (default: cubic)
//!   --grid-cont      enable coarse-to-fine grid continuation
//!   --store-grad     cache the state gradient (faster, more memory)
//!   --eps-h0 VALUE   inner H0 tolerance scale        (default: 1e-3)
//!   --report PATH    write a unified RunReport JSON (spans, metrics,
//!                    per-phase timings, per-collective traffic) to PATH
//!                    and print the span-tree summary on exit
//!   --syn N          skip the NIfTI inputs and register the synthetic
//!                    N³ sinusoidal problem (smoke tests, CI)
//!   -q               quiet (no per-iteration log)
//!
//! batch options:
//!   -o DIR           output directory for per-job reports (default: claire_out)
//!   --workers N      worker threads (overrides the manifest)
//!   --queue-cap N    admission-queue capacity (overrides the manifest)
//!   --threads N      machine thread budget to partition across workers
//!   --no-batch       disable job coalescing (one BatchSolver run per
//!                    group of queued jobs with identical grid/config is
//!                    the default fast path)
//!   --max-batch N    largest coalesced batch (default: 8)
//!   -q               quiet
//!
//! serve options (plus --workers/--queue-cap/--threads/--no-batch/
//! --max-batch/-q as in batch mode):
//!   --listen ADDR    TCP address to bind (e.g. 127.0.0.1:7741; port 0
//!                    picks a free port, printed on stdout)
//!   --cache N        content-hash result cache capacity in entries
//!                    (default: 0 = off); repeated identical submissions
//!                    are answered without running the solver
//!   --quota B:R      per-tenant token bucket: burst B jobs, refill R
//!                    jobs/second (default: unlimited)
//!
//! submit options:
//!   --addr ADDR      server (or claire-router) address to submit to
//!   -o DIR           output directory for per-job reports (default:
//!                    claire_out)
//!   --tenant NAME    tenant for quota accounting (default: "")
//!   --stream         print one JSON status event per line on stdout
//!                    (queued/running/gn_iter/terminal) while each job runs
//!   --ping           just check the server answers the handshake; exit 0/1
//!   -q               quiet
//!
//! launch options:
//!   --ranks N        rank processes to spawn (required)
//!   --syn M          synthetic M³ problem size (required; launch mode is
//!                    driven by the synthetic dataset so every rank can
//!                    generate its own slab without shared input files)
//!   --gpus-per-node G  modeled topology (default: 4)
//!   --nt N           semi-Lagrangian time steps          (default: 4)
//!   --beta V         regularization parameter            (default: 1e-2)
//!   --order KIND     linear | cubic | cubic_spline       (default: linear)
//!   --precond NAME   InvA | InvH0 | 2LInvH0              (default: InvA)
//!   --max-gn N       Gauss–Newton iteration cap          (default: 3)
//!   --fixed-pcg N    fixed PCG iterations per GN step    (default: 5)
//!   --timeout SECS   supervision budget before the cluster is reaped
//!                    (default: 300)
//!   --report PATH    write rank 0's merged RunReport JSON to PATH
//!   --in-process     run the identical solve on the threads-as-ranks
//!                    virtual cluster instead of spawning processes (the
//!                    two modes produce bitwise-identical trajectories;
//!                    CI diffs their reports)
//!   -q               quiet
//! ```
//!
//! Single mode writes `deformed_template.nii`, `velocity_[123].nii`,
//! `jacobian_det.nii` and `report.json` to the output directory. Batch mode
//! runs every job in the manifest through the `claire-serve` worker pool
//! and writes one report JSON per job. `serve` exposes the same worker pool
//! over the versioned claire-serve wire protocol; `submit` sends a batch
//! manifest to such a server (or to `claire-router`, which shards across
//! several) and writes the same per-job reports. For multi-client or
//! multi-machine use prefer `serve` + `submit`: in-process `batch` stays
//! supported for single-shot local runs but new scheduling features
//! (result cache, tenant quotas, sharding) land on the served path only.
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

use claire::core::{
    observe, Claire, ClaireError, Precision, PrecondKind, RegistrationConfig, SolverHooks,
};
use claire::data::nifti;
use claire::interp::{Interpolator, IpOrder};
use claire::ipc::{LaunchSpec, SocketOpts, SocketTransport};
use claire::mpi::{Comm, LinkModel, Topology, TransportError};
use claire::obs::report::RunReport;
use claire::semilag::{displacement, Trajectory};
use claire::serve::{
    Client, JobInput, JobSpec, JobStatus, NetServer, NetServerConfig, Priority, QuotaConfig,
    RegistrationService, ServiceConfig, StreamEvent, WireJobSpec,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

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

fn io_error(context: &'static str, path: &Path, e: &std::io::Error) -> ClaireError {
    ClaireError::Io { context, message: format!("{}: {e}", path.display()) }
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
        "usage: claire-cli <template.nii> <reference.nii> [-o DIR] [--precond InvA|InvH0|2LInvH0]"
    );
    eprintln!(
        "                  [--beta V] [--nt N] [--order linear|cubic] [--grid-cont] [--store-grad]"
    );
    eprintln!("                  [--eps-h0 V] [--report PATH] [--syn N] [-q]");
    eprintln!("       claire-cli batch <manifest.json> [-o DIR] [--workers N] [--queue-cap N]");
    eprintln!("                  [--threads N] [--no-batch] [--max-batch N] [-q]");
    eprintln!("       claire-cli serve --listen ADDR [--workers N] [--queue-cap N] [--threads N]");
    eprintln!("                  [--no-batch] [--max-batch N] [--cache N] [--quota B:R] [-q]");
    eprintln!("       claire-cli submit --addr ADDR <manifest.json> [-o DIR] [--tenant NAME]");
    eprintln!("                  [--stream] [--ping] [-q]");
    eprintln!("       claire-cli launch --ranks N --syn M [--gpus-per-node G] [--nt N] [--beta V]");
    eprintln!("                  [--order linear|cubic] [--precond NAME] [--max-gn N]");
    eprintln!(
        "                  [--fixed-pcg N] [--timeout SECS] [--report PATH] [--in-process] [-q]"
    );
    eprintln!();
    eprintln!("note: `batch` runs jobs in-process and stays supported for one-shot local");
    eprintln!("runs; shared deployments should move to `serve` + `submit` (same manifest),");
    eprintln!("where new scheduling features (result cache, quotas, sharding) land.");
    exit(2)
}

/// `--precond` value by its Table 6 label, or the usage exit.
fn precond_arg(v: &str) -> PrecondKind {
    PrecondKind::parse(v).unwrap_or_else(|| {
        eprintln!("unknown preconditioner {v}");
        usage()
    })
}

/// `--order` value by its label, or the usage exit.
fn order_arg(v: &str) -> IpOrder {
    IpOrder::parse(v).unwrap_or_else(|| {
        eprintln!("unknown interpolation order {v}");
        usage()
    })
}

fn parse_args(args: Vec<String>) -> Options {
    let mut args = args.into_iter();
    let mut positional: Vec<String> = Vec::new();
    let mut out = PathBuf::from("claire_out");
    let mut report = None;
    let mut syn = None;
    let mut cfg = RegistrationConfig::builder().ip_order(IpOrder::Cubic).verbose(true);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out = PathBuf::from(next_value(&mut args, "-o")),
            "--precond" => cfg = cfg.precond(precond_arg(&next_value(&mut args, "--precond"))),
            "--beta" => {
                cfg = cfg.beta(next_value(&mut args, "--beta").parse().unwrap_or_else(|_| usage()))
            }
            "--nt" => {
                cfg = cfg.nt(next_value(&mut args, "--nt").parse().unwrap_or_else(|_| usage()))
            }
            "--order" => cfg = cfg.ip_order(order_arg(&next_value(&mut args, "--order"))),
            "--grid-cont" => cfg = cfg.grid_continuation(true),
            "--store-grad" => cfg = cfg.store_grad(true),
            "--eps-h0" => {
                cfg = cfg
                    .eps_h0(next_value(&mut args, "--eps-h0").parse().unwrap_or_else(|_| usage()))
            }
            "--report" => report = Some(PathBuf::from(next_value(&mut args, "--report"))),
            "--syn" => {
                syn = Some(next_value(&mut args, "--syn").parse().unwrap_or_else(|_| usage()))
            }
            "-q" => cfg = cfg.verbose(false),
            "-h" | "--help" => usage(),
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
    let cfg = cfg.build().unwrap_or_else(|e| fail(&e));
    let get = |i: usize| positional.get(i).map(PathBuf::from).unwrap_or_default();
    Options { template: get(0), reference: get(1), out, report, syn, cfg }
}

fn load(path: &Path) -> claire::grid::ScalarField {
    nifti::read(path).unwrap_or_else(|e| fail(&io_error("nifti::read", path, &e)))
}

fn write_nifti(path: &Path, field: &claire::grid::ScalarField) {
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
        Some("serve") => {
            args.remove(0);
            serve_main(args);
        }
        Some("submit") => {
            args.remove(0);
            submit_main(args);
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
        solver.try_register_from(&m0, &m1, None, "cli", &mut comm).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "done in {:.1}s: mismatch {:.3e}, GN {}, PCG {}, det(∇y) ∈ [{:.3}, {:.3}]",
        t0.elapsed().as_secs_f64(),
        report.rel_mismatch,
        report.gn_iters,
        report.pcg_iters,
        report.jac_det_min,
        report.jac_det_max
    );

    if let Some(path) = &opts.report {
        let run = observe::collect_run_report("cli", &report, &comm);
        eprint!("{}", run.span_summary());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            create_dir(dir);
        }
        write_text(path, &run.to_json());
        eprintln!("wrote run report to {}", path.display());
    }

    create_dir(&opts.out);
    // deformed template
    let mut problem = claire::core::RegProblem::new(m0.clone(), m1.clone(), cfg, &mut comm)
        .unwrap_or_else(|e| fail(&e));
    let deformed = problem.deformed_template(&v, &mut comm);
    write_nifti(&opts.out.join("deformed_template.nii"), &deformed);
    // velocity components
    for (d, comp) in v.c.iter().enumerate() {
        write_nifti(&opts.out.join(format!("velocity_{}.nii", d + 1)), comp);
    }
    // Jacobian determinant map
    let mut ip = Interpolator::new(cfg.ip_order);
    let traj = Trajectory::backward(&v, cfg.nt, &mut ip, &mut comm);
    let u = displacement::displacement(&traj, cfg.nt, &mut ip, &mut comm);
    let det = displacement::jacobian_det(&u, &mut comm);
    write_nifti(&opts.out.join("jacobian_det.nii"), &det);
    // machine-readable report
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| fail(&ClaireError::Io { context: "report", message: e.to_string() }));
    write_text(&opts.out.join("report.json"), &json);
    eprintln!("wrote results to {}", opts.out.display());
}

// ---------------------------------------------------------------------------
// batch mode
// ---------------------------------------------------------------------------

/// Look up `key` in a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match field(v, key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
        _ => None,
    }
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    match field(v, key)? {
        Value::Num(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn manifest_error(message: String) -> ClaireError {
    ClaireError::Config { param: "manifest", message }
}

/// Build one [`JobSpec`] from a manifest entry.
fn parse_job(entry: &Value, index: usize, quiet: bool) -> Result<JobSpec, ClaireError> {
    let label = field_str(entry, "label").map(String::from).unwrap_or(format!("job-{index}"));
    let mut cfg = RegistrationConfig::builder().verbose(false);
    if let Some(nt) = field_u64(entry, "nt") {
        cfg = cfg.nt(nt as usize);
    }
    if let Some(beta) = field_f64(entry, "beta") {
        cfg = cfg.beta(beta);
    }
    if let Some(n) = field_u64(entry, "max_gn_iter") {
        cfg = cfg.max_gn_iter(n as usize);
    }
    if let Some(n) = field_u64(entry, "max_pcg_iter") {
        cfg = cfg.max_pcg_iter(n as usize);
    }
    if let Some(Value::Bool(b)) = field(entry, "continuation") {
        cfg = cfg.continuation(*b);
    }
    let unknown = |key: &str, v: &str| manifest_error(format!("{label}: unknown {key} {v}"));
    if let Some(pc) = field_str(entry, "precond") {
        cfg = cfg.precond(PrecondKind::parse(pc).ok_or_else(|| unknown("preconditioner", pc))?);
    }
    if let Some(p) = field_str(entry, "precision") {
        cfg = cfg.precision(Precision::parse(p).ok_or_else(|| unknown("precision", p))?);
    }
    if let Some(o) = field_str(entry, "ip_order") {
        cfg = cfg.ip_order(IpOrder::parse(o).ok_or_else(|| unknown("ip_order", o))?);
    }
    let config = cfg.build()?;

    let input = if let Some(n) = field_u64(entry, "syn") {
        JobInput::Synthetic { n: [n as usize; 3] }
    } else {
        let template = field_str(entry, "template")
            .ok_or_else(|| manifest_error(format!("{label}: needs `syn` or `template`")))?;
        let reference = field_str(entry, "reference")
            .ok_or_else(|| manifest_error(format!("{label}: needs `reference`")))?;
        let t = PathBuf::from(template);
        let r = PathBuf::from(reference);
        let m0 = nifti::read(&t).map_err(|e| io_error("nifti::read", &t, &e))?;
        let m1 = nifti::read(&r).map_err(|e| io_error("nifti::read", &r, &e))?;
        JobInput::Pair { template: m0, reference: m1 }
    };

    let mut spec = JobSpec::new(label.clone(), config, input);
    if let Some(p) = field_str(entry, "priority") {
        spec = spec.priority(
            Priority::parse(p)
                .ok_or_else(|| manifest_error(format!("{label}: unknown priority {p}")))?,
        );
    }
    if let Some(ms) = field_u64(entry, "deadline_ms") {
        spec = spec.deadline(Duration::from_millis(ms));
    }
    if !quiet {
        eprintln!("  {label}: grid {:?}, priority {}", spec.input.grid(), spec.priority.label());
    }
    Ok(spec)
}

/// Turn a job label into a safe report file name.
fn report_file_name(label: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{safe}.json")
}

fn batch_main(args: Vec<String>) {
    let mut args = args.into_iter();
    let mut manifest_path: Option<PathBuf> = None;
    let mut out = PathBuf::from("claire_out");
    let mut workers: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut batching = true;
    let mut max_batch: Option<usize> = None;
    let mut quiet = false;
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out = PathBuf::from(next_value(&mut args, "-o")),
            "--workers" => {
                workers =
                    Some(next_value(&mut args, "--workers").parse().unwrap_or_else(|_| usage()))
            }
            "--queue-cap" => {
                queue_cap =
                    Some(next_value(&mut args, "--queue-cap").parse().unwrap_or_else(|_| usage()))
            }
            "--threads" => {
                threads =
                    Some(next_value(&mut args, "--threads").parse().unwrap_or_else(|_| usage()))
            }
            "--no-batch" => batching = false,
            "--max-batch" => {
                max_batch =
                    Some(next_value(&mut args, "--max-batch").parse().unwrap_or_else(|_| usage()))
            }
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
    let manifest_path = manifest_path.unwrap_or_else(|| usage());

    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| fail(&io_error("batch manifest", &manifest_path, &e)));
    let manifest = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&manifest_error(format!("not valid JSON: {e}"))));
    let jobs = match field(&manifest, "jobs") {
        Some(Value::Array(jobs)) if !jobs.is_empty() => jobs,
        _ => fail(&manifest_error("needs a non-empty `jobs` array".into())),
    };

    let mut svc_cfg = ServiceConfig::default()
        .workers(workers.or(field_u64(&manifest, "workers").map(|n| n as usize)).unwrap_or(1))
        .queue_capacity(
            queue_cap
                .or(field_u64(&manifest, "queue_capacity").map(|n| n as usize))
                .unwrap_or_else(|| jobs.len().max(1)),
        );
    if let Some(t) = threads {
        svc_cfg = svc_cfg.total_threads(t);
    }
    // Fast path: queued jobs with identical grid/config fingerprints are
    // coalesced into one BatchSolver run (shared FFT plans and scaffolding,
    // interleaved iterations); results stay bitwise identical to runs of one.
    svc_cfg = svc_cfg.max_batch(if batching { max_batch.unwrap_or(8) } else { 1 });
    if !quiet {
        eprintln!(
            "batch: {} job(s), {} worker(s), queue capacity {}, coalescing {}",
            jobs.len(),
            svc_cfg.workers,
            svc_cfg.queue_capacity,
            if svc_cfg.max_batch > 1 { "on" } else { "off" }
        );
    }

    let specs: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, entry)| parse_job(entry, i, quiet).unwrap_or_else(|e| fail(&e)))
        .collect();

    create_dir(&out);
    observe::begin(); // span trees feed the per-job reports
    let mut svc = RegistrationService::start(svc_cfg);
    // Blocking submission: the CLI is a closed-loop producer, so a full
    // queue applies backpressure here instead of dropping jobs.
    let ids: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            svc.submit(spec).unwrap_or_else(|e| {
                eprintln!("claire-cli: batch submission failed: {e}");
                exit(match e {
                    claire::serve::SubmitError::Invalid(inner) => error_exit_code(&inner),
                    _ => 1,
                })
            })
        })
        .collect();

    let mut failures = 0usize;
    for id in ids {
        let Some(res) = svc.wait(id) else {
            eprintln!("claire-cli: internal error: {id} vanished from the service");
            exit(1);
        };
        let file = out.join(report_file_name(&res.label));
        match (&res.status, &res.run) {
            (JobStatus::Succeeded, Some(run)) => write_text(&file, &run.to_json()),
            _ => {
                // terminal-but-unsuccessful jobs still get a report file
                let status = res.status.label();
                let error = res.error.clone().unwrap_or_default();
                let doc = Value::Object(vec![
                    ("label".into(), Value::Str(res.label.clone())),
                    ("status".into(), Value::Str(status.into())),
                    ("error".into(), Value::Str(error)),
                ]);
                let json = serde_json::to_string_pretty(&doc).unwrap_or_default();
                write_text(&file, &json);
            }
        }
        if res.status != JobStatus::Succeeded {
            failures += 1;
        }
        if !quiet {
            let mismatch = res
                .report
                .as_ref()
                .map(|r| format!(", mismatch {:.3e}", r.rel_mismatch))
                .unwrap_or_default();
            eprintln!(
                "  {} [{}]: queued {:.3}s, ran {:.3}s{mismatch}",
                res.label,
                res.status,
                res.queue_wait.as_secs_f64(),
                res.run_time.as_secs_f64()
            );
        }
    }
    svc.shutdown();
    claire::obs::set_enabled(false);
    if !quiet {
        eprintln!("wrote batch reports to {}", out.display());
    }
    if failures > 0 {
        eprintln!("claire-cli: {failures} job(s) did not succeed");
        exit(1);
    }
}

// ---------------------------------------------------------------------------
// serve mode (network server)
// ---------------------------------------------------------------------------

fn serve_main(args: Vec<String>) {
    let mut args = args.into_iter();
    let mut listen: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut batching = true;
    let mut max_batch: Option<usize> = None;
    let mut cache = 0usize;
    let mut quota: Option<QuotaConfig> = None;
    let mut quiet = false;
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(next_value(&mut args, "--listen")),
            "--workers" => {
                workers =
                    Some(next_value(&mut args, "--workers").parse().unwrap_or_else(|_| usage()))
            }
            "--queue-cap" => {
                queue_cap =
                    Some(next_value(&mut args, "--queue-cap").parse().unwrap_or_else(|_| usage()))
            }
            "--threads" => {
                threads =
                    Some(next_value(&mut args, "--threads").parse().unwrap_or_else(|_| usage()))
            }
            "--no-batch" => batching = false,
            "--max-batch" => {
                max_batch =
                    Some(next_value(&mut args, "--max-batch").parse().unwrap_or_else(|_| usage()))
            }
            "--cache" => {
                cache = next_value(&mut args, "--cache").parse().unwrap_or_else(|_| usage())
            }
            "--quota" => {
                let v = next_value(&mut args, "--quota");
                let (burst, rate) = v.split_once(':').unwrap_or_else(|| usage());
                quota = Some(QuotaConfig::new(
                    burst.parse().unwrap_or_else(|_| usage()),
                    rate.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "-q" => quiet = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage()
            }
        }
    }
    let listen = listen.unwrap_or_else(|| usage());

    let mut svc_cfg = ServiceConfig::default()
        .workers(workers.unwrap_or(1))
        .queue_capacity(queue_cap.unwrap_or(64))
        .max_batch(if batching { max_batch.unwrap_or(8) } else { 1 })
        .result_cache(cache);
    if let Some(t) = threads {
        svc_cfg = svc_cfg.total_threads(t);
    }
    if let Some(q) = quota {
        svc_cfg = svc_cfg.quota(q);
    }

    let server = NetServer::bind(&listen[..], NetServerConfig::default().service(svc_cfg))
        .unwrap_or_else(|e| {
            fail(&ClaireError::Io { context: "serve --listen", message: format!("{listen}: {e}") })
        });
    // The bound address goes to stdout so scripts can scrape it (port 0).
    println!("claire-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if !quiet {
        eprintln!(
            "workers {}, queue capacity {}, coalescing {}, cache {} entries, quota {}",
            workers.unwrap_or(1),
            queue_cap.unwrap_or(64),
            if svc_cfg.max_batch > 1 { "on" } else { "off" },
            cache,
            match quota {
                Some(q) => format!("{}:{} per tenant", q.burst, q.per_sec),
                None => "unlimited".into(),
            }
        );
    }
    // Serve until killed; job lifecycle is driven by connection threads.
    loop {
        std::thread::park();
    }
}

// ---------------------------------------------------------------------------
// submit mode (network client)
// ---------------------------------------------------------------------------

/// Render one streamed status event as a JSON line for stdout.
fn event_line(label: &str, id: claire::serve::JobId, event: StreamEvent) -> String {
    let (kind, extra) = match event {
        StreamEvent::Queued => ("queued", String::new()),
        StreamEvent::Running => ("running", String::new()),
        StreamEvent::GnIter { iter } => ("gn_iter", format!(",\"iter\":{iter}")),
        StreamEvent::Terminal { status } => {
            ("terminal", format!(",\"status\":\"{}\"", status.label()))
        }
        _ => ("unknown", String::new()),
    };
    format!(
        "{{\"type\":\"event\",\"job\":\"{id}\",\"label\":\"{label}\",\"event\":\"{kind}\"{extra}}}"
    )
}

fn submit_main(args: Vec<String>) {
    let mut args = args.into_iter();
    let mut addr: Option<String> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut out = PathBuf::from("claire_out");
    let mut tenant = String::new();
    let mut stream = false;
    let mut ping = false;
    let mut quiet = false;
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(next_value(&mut args, "--addr")),
            "-o" => out = PathBuf::from(next_value(&mut args, "-o")),
            "--tenant" => tenant = next_value(&mut args, "--tenant"),
            "--stream" => stream = true,
            "--ping" => ping = true,
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
    let addr = addr.unwrap_or_else(|| usage());

    let mut client = match Client::connect(&addr[..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("claire-cli: cannot reach {addr}: {e}");
            exit(if ping { 1 } else { 6 })
        }
    };
    if ping {
        if !quiet {
            eprintln!(
                "{} at {addr} answers protocol {}",
                client.server_name(),
                claire::serve::PROTOCOL_VERSION
            );
        }
        return;
    }
    let manifest_path = manifest_path.unwrap_or_else(|| usage());

    // Same manifest format as `batch`; jobs are lowered to wire specs.
    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| fail(&io_error("submit manifest", &manifest_path, &e)));
    let manifest = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&manifest_error(format!("not valid JSON: {e}"))));
    let jobs = match field(&manifest, "jobs") {
        Some(Value::Array(jobs)) if !jobs.is_empty() => jobs,
        _ => fail(&manifest_error("needs a non-empty `jobs` array".into())),
    };
    let specs: Vec<WireJobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let spec =
                parse_job(entry, i, quiet).unwrap_or_else(|e| fail(&e)).tenant(tenant.clone());
            WireJobSpec::from_spec(&spec)
        })
        .collect();

    create_dir(&out);
    let mut admissions = Vec::with_capacity(specs.len());
    for spec in &specs {
        match client.submit(spec) {
            Ok(adm) => {
                if !quiet {
                    eprintln!(
                        "  submitted {} as {}{}",
                        spec.label,
                        adm.id,
                        if adm.cached { " (cache hit)" } else { "" }
                    );
                }
                admissions.push((spec.label.clone(), adm));
            }
            Err(e) => {
                eprintln!("claire-cli: submission of {} refused: {e}", spec.label);
                exit(1)
            }
        }
    }

    let mut failures = 0usize;
    for (label, adm) in admissions {
        if stream {
            let streamed = client.stream(adm.id, |event| {
                println!("{}", event_line(&label, adm.id, event));
            });
            if let Err(e) = streamed {
                eprintln!("claire-cli: stream for {label} broke: {e}");
                exit(1)
            }
        }
        let res = client.wait(adm.id).unwrap_or_else(|e| {
            eprintln!("claire-cli: waiting on {label} failed: {e}");
            exit(1)
        });
        let file = out.join(report_file_name(&res.label));
        match (&res.status, &res.run) {
            (JobStatus::Succeeded, Some(run)) => {
                let json = serde_json::to_string_pretty(run).unwrap_or_default();
                write_text(&file, &json);
            }
            _ => {
                let doc = Value::Object(vec![
                    ("label".into(), Value::Str(res.label.clone())),
                    ("status".into(), Value::Str(res.status.label().into())),
                    ("error".into(), Value::Str(res.error.clone().unwrap_or_default())),
                ]);
                write_text(&file, &serde_json::to_string_pretty(&doc).unwrap_or_default());
            }
        }
        if res.status != JobStatus::Succeeded {
            failures += 1;
        }
        if !quiet {
            let mismatch = res
                .report
                .as_ref()
                .map(|r| format!(", mismatch {:.3e}", r.rel_mismatch))
                .unwrap_or_default();
            eprintln!(
                "  {} [{}]{}: queued {:.3}s, ran {:.3}s{mismatch}",
                res.label,
                res.status,
                if res.cached { " (cached)" } else { "" },
                res.queue_wait_secs,
                res.run_secs
            );
        }
    }
    if !quiet {
        eprintln!("wrote reports to {}", out.display());
    }
    if failures > 0 {
        eprintln!("claire-cli: {failures} job(s) did not succeed");
        exit(1);
    }
}

// ---------------------------------------------------------------------------
// launch mode (multi-process execution)
// ---------------------------------------------------------------------------

/// Options shared by `launch` and the hidden `worker-rank` subcommand. The
/// launcher re-serializes the solver flags onto every worker's command line,
/// so both sides parse the same grammar and build the same config.
struct LaunchOpts {
    ranks: usize,
    gpus_per_node: usize,
    syn: usize,
    nt: usize,
    beta: f64,
    order: IpOrder,
    precond: PrecondKind,
    max_gn: usize,
    fixed_pcg: usize,
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
        gpus_per_node: 4,
        syn: 0,
        nt: 4,
        beta: 1e-2,
        order: IpOrder::Linear,
        precond: PrecondKind::InvA,
        max_gn: 3,
        fixed_pcg: 5,
        timeout_secs: 300,
        report: None,
        in_process: false,
        quiet: false,
        dir: None,
        rank: None,
    };
    fn num<T: std::str::FromStr>(v: String, flag: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {flag}: {v}");
            usage()
        })
    }
    let mut args = args.into_iter();
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => o.ranks = num(next_value(&mut args, "--ranks"), "--ranks"),
            "--gpus-per-node" => {
                o.gpus_per_node = num(next_value(&mut args, "--gpus-per-node"), "--gpus-per-node")
            }
            "--syn" => o.syn = num(next_value(&mut args, "--syn"), "--syn"),
            "--nt" => o.nt = num(next_value(&mut args, "--nt"), "--nt"),
            "--beta" => o.beta = num(next_value(&mut args, "--beta"), "--beta"),
            "--order" => o.order = order_arg(&next_value(&mut args, "--order")),
            "--precond" => o.precond = precond_arg(&next_value(&mut args, "--precond")),
            "--max-gn" => o.max_gn = num(next_value(&mut args, "--max-gn"), "--max-gn"),
            "--fixed-pcg" => o.fixed_pcg = num(next_value(&mut args, "--fixed-pcg"), "--fixed-pcg"),
            "--timeout" if !worker => {
                o.timeout_secs = num(next_value(&mut args, "--timeout"), "--timeout")
            }
            "--report" if !worker => {
                o.report = Some(PathBuf::from(next_value(&mut args, "--report")))
            }
            "--in-process" if !worker => o.in_process = true,
            "--dir" if worker => o.dir = Some(PathBuf::from(next_value(&mut args, "--dir"))),
            "--rank" if worker => o.rank = Some(num(next_value(&mut args, "--rank"), "--rank")),
            "-q" => o.quiet = true,
            "-h" | "--help" => usage(),
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
    o
}

/// The deterministic launch-mode solver configuration: β-continuation off
/// and a fixed PCG iteration count, so the GN trajectory is a pure function
/// of the problem — identical across the process and in-process paths.
fn launch_cfg(o: &LaunchOpts) -> RegistrationConfig {
    RegistrationConfig::builder()
        .nt(o.nt)
        .beta(o.beta)
        .ip_order(o.order)
        .precond(o.precond)
        .continuation(false)
        .max_gn_iter(o.max_gn)
        .fixed_pcg(Some(o.fixed_pcg))
        .verbose(false)
        .build()
        .unwrap_or_else(|e| fail(&e))
}

fn launch_main(args: Vec<String>) {
    let o = parse_launch_args(args, false);
    if o.in_process {
        return launch_in_process(&o);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        fail(&ClaireError::Io { context: "current_exe", message: e.to_string() })
    });
    let worker_args: Vec<String> = [
        "--syn",
        &o.syn.to_string(),
        "--nt",
        &o.nt.to_string(),
        "--beta",
        &format!("{:e}", o.beta),
        "--order",
        o.order.label(),
        "--precond",
        o.precond.label(),
        "--max-gn",
        &o.max_gn.to_string(),
        "--fixed-pcg",
        &o.fixed_pcg.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut spec = LaunchSpec::new(exe, o.ranks, o.gpus_per_node, worker_args);
    spec.timeout = Duration::from_secs(o.timeout_secs);
    let outcome = claire::ipc::launch(&spec).unwrap_or_else(|e| fail(&e));
    let rank0 = outcome.reports.into_iter().next().unwrap_or_default();
    finish_launch(&o, rank0, "socket");
}

/// `--in-process`: the identical solve on the threads-as-ranks virtual
/// cluster, as a reference for the multi-process path.
///
/// Observability state is process-global, so with p ranks in one process
/// every rank's GN records land in one ledger and the objective/Hessian
/// counters are p-fold. Normalize both back to per-rank form so the report
/// diffs cleanly against a real rank process's.
fn launch_in_process(o: &LaunchOpts) {
    let topo = Topology::new(o.ranks, o.gpus_per_node);
    let cfg = launch_cfg(o);
    let syn = o.syn;
    observe::begin();
    let result = claire::mpi::try_run_cluster(topo, |comm| {
        let prob = claire::data::syn::syn_problem([syn; 3], comm);
        let mut solver = Claire::new(cfg);
        let (_v, report) =
            solver.register_from(&prob.template, &prob.reference, None, "launch", comm);
        // Mirror the worker's pre-collection barrier so both transports
        // ledger identical collective counts.
        comm.barrier();
        if comm.rank() == 0 {
            Some(observe::collect_run_report("launch", &report, comm))
        } else {
            None
        }
    });
    claire::obs::set_enabled(false);
    let outputs = match result {
        Ok(res) => res.outputs,
        Err(e) => fail(&ClaireError::from(e)),
    };
    let mut run = outputs.into_iter().flatten().next().unwrap_or_else(|| {
        fail(&ClaireError::RankFailed { rank: 0, message: "no rank-0 report".into() })
    });
    normalize_threads_report(&mut run, o.ranks);
    finish_launch(o, run.to_json(), "channel");
}

/// Undo the artifacts of running p ranks inside one process (see
/// [`launch_in_process`]): keep the first copy of each GN record and divide
/// the process-global counters by the rank count.
fn normalize_threads_report(run: &mut RunReport, ranks: usize) {
    let mut seen = std::collections::HashSet::new();
    run.gn_trace.retain(|r| seen.insert((r.level, r.beta.to_bits(), r.iter)));
    run.summary.obj_evals /= ranks;
    run.summary.hess_applies /= ranks;
}

/// Write/print the rank-0 report on the launcher side.
fn finish_launch(o: &LaunchOpts, json: String, transport: &str) {
    if let Some(path) = &o.report {
        write_text(path, &json);
    }
    if !o.quiet {
        let parsed = serde_json::from_str(&json).ok();
        let summary = parsed.as_ref().and_then(|v| field(v, "summary"));
        let gn = summary.and_then(|s| field_u64(s, "gn_iters")).unwrap_or(0);
        let mm = summary.and_then(|s| field_f64(s, "rel_mismatch")).unwrap_or(f64::NAN);
        eprintln!("launch: {} ranks ({transport}): {gn} GN iters, mismatch {mm:.3e}", o.ranks);
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
    let topo = Topology::new(o.ranks, o.gpus_per_node);
    let transport = match SocketTransport::bootstrap(&dir, rank, topo, SocketOpts::default()) {
        Ok(t) => t,
        Err(e) => {
            let _ = claire::ipc::launch::send_failure(&dir, rank, e.to_string());
            fail(&e)
        }
    };
    let mut comm = Comm::from_transport(Box::new(transport), LinkModel::default());
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
    let mut solver = Claire::with_hooks(launch_cfg(&o), hooks);
    // Transport failures surface as panics carrying a `TransportError` (the
    // same mechanism the virtual cluster uses); catch them so a rank that
    // merely *observed* a peer die reports the culprit in-band and exits 0
    // instead of panicking — the launcher then attributes the failure to the
    // rank that actually died, never to a bystander.
    let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        solver.try_register_from(&prob.template, &prob.reference, None, "launch", &mut comm)
    }));
    match solve {
        Ok(Ok((_v, report))) => {
            // Barrier before collecting so every rank ledgers the same
            // collective counts (mirrored by the in-process path).
            comm.barrier();
            let run = observe::collect_run_report("launch", &report, &comm);
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
                None => (rank, describe_worker_panic(payload.as_ref())),
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

fn describe_worker_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(json: &str) -> Result<JobSpec, ClaireError> {
        parse_job(&serde_json::from_str(json).expect("test manifest is valid JSON"), 0, true)
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
}
