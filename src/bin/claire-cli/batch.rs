//! `claire-cli batch`: every registration of a JSON manifest, run on W
//! scoped worker threads.
//!
//! The manifest is parsed and validated whole before any job runs: its
//! top-level keys, every entry's keys and values, the grid of a synthetic
//! job and the layouts of an image pair. [`run`] then stable-sorts the jobs
//! by [`Priority`] (high, normal, low; manifest order within a class), arms
//! each job's deadline on its [`CancelToken`] at batch start, and lets W
//! workers claim the sorted jobs one at a time. A worker runs its job
//! through [`Claire`] on its share of the thread budget, inside a
//! `catch_unwind`, and hands the [`Outcome`] to the caller as the job ends.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use claire::core::observe::{self, MemStats};
use claire::core::{CancelToken, Claire, ClaireError, RegistrationConfig, SolverHooks, StopReason};
use claire::data::nifti;
use claire::grid::ScalarField;
use claire::interp::IpOrder;
use claire::mpi::Comm;
use claire::obs::report::{RunReport, SchedulingInfo};
use serde::{field, field_or, DeError, Deserialize};
use serde_json::Value;

/// Priority class: every `High` job starts before any `Normal` job, which
/// starts before any `Low` job; within a class, manifest order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Deserialize)]
pub enum Priority {
    /// Latency-sensitive work (started first).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background work (started last).
    Low,
}

impl Priority {
    /// Lower-case label used in reports and the manifest.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse a manifest label (`high`/`normal`/`low`, case-insensitive).
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// What a job registers.
pub enum JobInput {
    /// A template/reference image pair of one layout.
    Pair {
        /// Template image `m0`.
        template: ScalarField,
        /// Reference image `m1`.
        reference: ScalarField,
    },
    /// The paper's analytic SYN problem on an n₁ × n₂ × n₃ grid, generated
    /// by the worker that runs the job.
    Synthetic {
        /// Grid extents (each ≥ 2, at most [`MAX_SYNTHETIC_POINTS`] in all).
        n: [usize; 3],
    },
}

impl JobInput {
    /// Grid extents of the input.
    pub fn grid(&self) -> [usize; 3] {
        match self {
            JobInput::Pair { template, .. } => template.layout().grid.n,
            JobInput::Synthetic { n } => *n,
        }
    }
}

/// One manifest entry.
pub struct Job {
    /// Names the job's report row and its report file.
    pub label: String,
    /// Solver configuration.
    pub config: RegistrationConfig,
    /// Input images.
    pub input: JobInput,
    /// Priority class.
    pub priority: Priority,
    /// Wall-clock budget from batch start (queue wait counts against it).
    pub deadline: Option<Duration>,
    /// A cancel token here is the job's own (its deadline is armed on it);
    /// an `on_gn_iter` observer is forwarded to the solve.
    pub hooks: SolverHooks,
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Finished with a registration result.
    Succeeded,
    /// Finished with an error, a panicking solve included.
    Failed,
    /// Stopped through its cancel token.
    Cancelled,
    /// Stopped because its deadline passed, possibly before it started.
    DeadlineExpired,
}

impl Status {
    /// Lower-case label used in report files and summary lines.
    pub fn label(self) -> &'static str {
        match self {
            Status::Succeeded => "succeeded",
            Status::Failed => "failed",
            Status::Cancelled => "cancelled",
            Status::DeadlineExpired => "deadline_expired",
        }
    }
}

impl From<StopReason> for Status {
    fn from(reason: StopReason) -> Status {
        match reason {
            StopReason::Cancelled => Status::Cancelled,
            StopReason::DeadlineExpired => Status::DeadlineExpired,
        }
    }
}

/// The end of one job. The velocity is not kept: it can be several GiB.
pub struct Outcome {
    /// The job's label.
    pub label: String,
    /// How it ended.
    pub status: Status,
    /// The solve's run report, its `summary` the Table 6 row (`Succeeded`
    /// only).
    pub run: Option<RunReport>,
    /// Why it did not succeed.
    pub error: Option<String>,
    /// From batch start to the moment a worker took the job.
    pub queue_wait: Duration,
    /// On the worker.
    pub run_time: Duration,
}

/// Most grid points a synthetic job may ask for (a 2¹⁰ × 2⁸ × 2⁸ grid,
/// 512 MiB per f64 field). A grid-sized allocation that fails aborts the
/// process, every other job with it, and no guard on the worker can catch
/// that.
pub const MAX_SYNTHETIC_POINTS: usize = 1 << 26;

/// The keys a manifest's top level may hold.
const MANIFEST_KEYS: [&str; 2] = ["jobs", "workers"];

/// What a manifest entry says about the job; every other key of an entry
/// must be a `ConfigField` key or alias.
const JOB_KEYS: [&str; 6] = ["label", "syn", "template", "reference", "priority", "deadline_ms"];

fn manifest_error(message: String) -> ClaireError {
    ClaireError::Config { param: "manifest", message }
}

/// An I/O failure on `path`.
pub fn io_error(context: &'static str, path: &Path, e: &std::io::Error) -> ClaireError {
    ClaireError::Io { context, message: format!("{}: {e}", path.display()) }
}

/// The value at `key` of a manifest object, `None` when absent or `null`.
fn opt<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, DeError> {
    field_or(v, key, || Ok(None))
}

/// A manifest's non-empty `jobs` array and its `workers` count, if it sets
/// one.
pub struct Manifest {
    /// The job entries, unparsed.
    pub jobs: Vec<Value>,
    /// Worker threads.
    pub workers: Option<usize>,
}

/// Read a manifest file. A top-level key other than `jobs` and `workers`,
/// and a `workers` that is not a non-negative integer, are errors.
pub fn read_manifest(path: &Path) -> Result<Manifest, ClaireError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_error("batch manifest", path, &e))?;
    let doc =
        serde_json::from_str(&text).map_err(|e| manifest_error(format!("not valid JSON: {e}")))?;
    parse_manifest(&doc)
}

/// [`read_manifest`] on a parsed document.
pub fn parse_manifest(doc: &Value) -> Result<Manifest, ClaireError> {
    let Value::Object(pairs) = doc else {
        return Err(manifest_error("not a JSON object".into()));
    };
    if let Some((key, _)) = pairs.iter().find(|(k, _)| !MANIFEST_KEYS.contains(&k.as_str())) {
        return Err(manifest_error(format!("unknown top-level key `{key}`")));
    }
    let workers = opt(doc, "workers").map_err(|e| manifest_error(e.to_string()))?;
    match field::<Vec<Value>>(doc, "jobs") {
        Ok(jobs) if !jobs.is_empty() => Ok(Manifest { jobs, workers }),
        _ => Err(manifest_error("needs a non-empty `jobs` array".into())),
    }
}

/// The configuration every front end reads its settings onto — a manifest
/// entry, a single run's flags, `launch`'s flags: the paper defaults, with
/// cubic interpolation.
pub fn base_config() -> RegistrationConfig {
    RegistrationConfig { ip_order: IpOrder::Cubic, ..Default::default() }
}

/// Build one [`Job`] from the manifest entry at `index`. A key that is
/// neither a job key nor a solver field, a value of the wrong type, an
/// invalid config, a synthetic grid out of range and a pair whose images
/// differ in layout are errors.
pub fn parse_job(entry: &Value, index: usize, quiet: bool) -> Result<Job, ClaireError> {
    let unnamed = format!("job-{index}");
    let Value::Object(pairs) = entry else {
        return Err(manifest_error(format!("{unnamed}: not an object")));
    };
    let label: String = field_or(entry, "label", || Ok(unnamed.clone()))
        .map_err(|e| manifest_error(format!("{unnamed}: {e}")))?;
    let bad = |e: DeError| manifest_error(format!("{label}: {e}"));
    let mut config = base_config();
    for (key, value) in pairs.iter().filter(|(k, _)| !JOB_KEYS.contains(&k.as_str())) {
        config.set_key(key, value).map_err(&bad)?;
    }
    config.validate()?;

    let grid_error = |message| ClaireError::Config { param: "grid", message };
    let input = match opt::<usize>(entry, "syn").map_err(&bad)? {
        Some(n) if n < 2 => {
            return Err(grid_error(format!("{label}: extents must all be >= 2, got {n}")));
        }
        Some(n) if n.checked_pow(3).is_none_or(|p| p > MAX_SYNTHETIC_POINTS) => {
            let limit = format!("the {MAX_SYNTHETIC_POINTS} grid points one job may ask for");
            return Err(grid_error(format!("{label}: a {n}³ grid exceeds {limit}")));
        }
        Some(n) => JobInput::Synthetic { n: [n; 3] },
        None => {
            let image = |key: &str| {
                let path = opt::<String>(entry, key).map_err(&bad)?.map(PathBuf::from);
                let path = path.ok_or_else(|| {
                    manifest_error(format!("{label}: needs `syn`, or `template` and `reference`"))
                })?;
                nifti::read(&path).map_err(|e| io_error("nifti::read", &path, &e))
            };
            let (template, reference) = (image("template")?, image("reference")?);
            if template.layout() != reference.layout() {
                let (t, r) = (template.layout().grid.n, reference.layout().grid.n);
                return Err(ClaireError::LayoutMismatch {
                    context: "batch manifest",
                    message: format!("{label}: template grid {t:?} vs reference grid {r:?}"),
                });
            }
            JobInput::Pair { template, reference }
        }
    };

    let priority: Priority = opt(entry, "priority").map_err(&bad)?.unwrap_or_default();
    let deadline = opt(entry, "deadline_ms").map_err(&bad)?.map(Duration::from_millis);
    if !quiet {
        eprintln!("  {label}: grid {:?}, priority {}", input.grid(), priority.label());
    }
    Ok(Job { label, config, input, priority, deadline, hooks: SolverHooks::default() })
}

/// Every manifest entry as a [`Job`], or the error of the first bad one.
/// Two entries whose labels name one report file are an error too: the
/// second report would overwrite the first.
pub fn parse_jobs(entries: &[Value], quiet: bool) -> Result<Vec<Job>, ClaireError> {
    let jobs = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| parse_job(entry, i, quiet))
        .collect::<Result<Vec<_>, _>>()?;
    let mut files = std::collections::HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let file = report_file_name(&job.label);
        if let Some(first) = files.insert(file.clone(), i) {
            let (a, b) = (&jobs[first].label, &job.label);
            return Err(manifest_error(format!(
                "entries {first} (`{a}`) and {i} (`{b}`) would both write their report to {file}"
            )));
        }
    }
    Ok(jobs)
}

/// Run `jobs` on `workers` (at least 1) scoped threads, each pinned to its
/// share of `threads` (0: `claire::par::num_threads()`). `done` sees each
/// outcome on the worker that ran the job, as it ends; the outcomes come
/// back in manifest order.
pub fn run(
    jobs: &[Job],
    workers: usize,
    threads: usize,
    done: &(dyn Fn(&Outcome) + Sync),
) -> Vec<Outcome> {
    let start = Instant::now();
    let armed = |job: &Job| {
        let token = job.hooks.cancel.clone().unwrap_or_default();
        job.deadline.inspect(|&d| token.set_deadline_in(d));
        token
    };
    let tokens: Vec<CancelToken> = jobs.iter().map(armed).collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].priority); // stable: manifest order within a class
    let workers = workers.max(1);
    let budget = if threads > 0 { threads } else { claire::par::num_threads() };
    let per_worker = (budget / workers).max(1);
    // Relaxed: each `fetch_add` hands out a distinct position and publishes
    // no data; the workers share `jobs` and `tokens` from their spawn on.
    let next = AtomicUsize::new(0);

    let mut outcomes: Vec<(usize, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (order, tokens, next) = (&order, &tokens, &next);
                s.spawn(move || {
                    claire::par::set_local_threads(per_worker);
                    let mut mine = Vec::new();
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome = execute(&jobs[i], i, worker, &tokens[i], start);
                        done(&outcome);
                        mine.push((i, outcome));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("a batch worker panicked")).collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Run job `index` on the calling worker. A job whose token has already
/// stopped (cancelled, or its deadline passed in the queue) is not started.
fn execute(job: &Job, index: usize, worker: usize, token: &CancelToken, start: Instant) -> Outcome {
    let began = Instant::now();
    let mut outcome = Outcome {
        label: job.label.clone(),
        status: Status::Failed,
        run: None,
        error: None,
        queue_wait: began.duration_since(start),
        run_time: Duration::ZERO,
    };
    if let Some(reason) = token.stop_reason() {
        outcome.status = reason.into();
        outcome.error = Some(format!("{} before execution started", reason.label()));
        return outcome;
    }

    let hooks =
        SolverHooks { cancel: Some(token.clone()), on_gn_iter: job.hooks.on_gn_iter.clone() };
    let mut comm = Comm::solo();
    let mut mem = MemStats::default();
    // Generating a synthetic input runs solver code too (it can panic on a
    // grid too small for its stencils), so it belongs under the same guard.
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let generated;
        let (template, reference) = match &job.input {
            JobInput::Pair { template, reference } => (template, reference),
            JobInput::Synthetic { n } => {
                let p = claire::data::syn_problem(*n, &mut Comm::solo());
                generated = (p.template, p.reference);
                (&generated.0, &generated.1)
            }
        };
        // the report covers this job's solve alone: not its input, not the
        // jobs this worker ran before
        claire::obs::reset();
        claire::par::timing::reset();
        let mut claire = Claire::with_hooks(job.config, hooks);
        mem.metered(|| claire.try_register_from(template, reference, &job.label, &mut comm))
    }));
    outcome.run_time = began.elapsed();

    match solved {
        Ok(Ok((_, report))) => {
            outcome.status = Status::Succeeded;
            let mut run = observe::collect_job_report(report, &comm, &mem);
            run.scheduling = SchedulingInfo {
                job_id: index as u64 + 1,
                priority: job.priority.label().to_string(),
                worker,
                queue_wait_secs: outcome.queue_wait.as_secs_f64(),
                run_secs: outcome.run_time.as_secs_f64(),
                total_secs: start.elapsed().as_secs_f64(),
                deadline_secs: job.deadline.map_or(0.0, |d| d.as_secs_f64()),
            };
            outcome.run = Some(run);
        }
        Ok(Err(e)) => {
            // an explicit cancel wins even when the deadline also expired
            outcome.status = match (&e, token.stop_reason()) {
                (ClaireError::Cancelled { .. }, Some(reason)) => reason.into(),
                (ClaireError::Cancelled { .. }, None) => Status::Cancelled,
                _ => Status::Failed,
            };
            outcome.error = Some(e.to_string());
        }
        Err(payload) => {
            let message = claire::mpi::panic_message(payload.as_ref());
            outcome.error = Some(format!("solver panicked: {message}"));
        }
    }
    outcome
}

/// Turn a job label into a safe report file name.
pub fn report_file_name(label: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{safe}.json")
}

/// Write the job's report into `out`: its run report when it succeeded,
/// `{label, status, error}` when not.
pub fn write_report(out: &Path, outcome: &Outcome) -> Result<(), ClaireError> {
    let text = match &outcome.run {
        Some(run) => run.to_json(),
        None => {
            let doc = Value::Object(vec![
                ("label".into(), Value::Str(outcome.label.clone())),
                ("status".into(), Value::Str(outcome.status.label().into())),
                ("error".into(), Value::Str(outcome.error.clone().unwrap_or_default())),
            ]);
            serde_json::to_string_pretty(&doc).unwrap_or_default()
        }
    };
    let path = out.join(report_file_name(&outcome.label));
    std::fs::write(&path, text).map_err(|e| io_error("fs::write", &path, &e))
}

/// The job's one summary line.
pub fn summary_line(outcome: &Outcome) -> String {
    let mismatch = outcome
        .run
        .as_ref()
        .map(|r| format!(", mismatch {:.3e}", r.summary.rel_mismatch))
        .unwrap_or_default();
    format!(
        "  {} [{}]: queued {:.3}s, ran {:.3}s{mismatch}",
        outcome.label,
        outcome.status.label(),
        outcome.queue_wait.as_secs_f64(),
        outcome.run_time.as_secs_f64()
    )
}
