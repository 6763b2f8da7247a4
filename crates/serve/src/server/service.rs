//! The registration job service: admission, scheduling, execution,
//! shutdown.
//!
//! A [`RegistrationService`] owns a worker pool and a bounded priority
//! queue. Jobs are validated and assigned a [`JobId`] at admission;
//! [`RegistrationService::try_submit`] rejects when the queue is full
//! (open-loop backpressure) while [`RegistrationService::submit`] blocks
//! (closed-loop). Each worker pins a share of the machine's thread budget
//! via `claire_par::set_local_threads`, so `workers × per-worker threads`
//! never oversubscribes the cores the kernels would otherwise assume are
//! all theirs. Deadlines are armed on the job's [`CancelToken`] at
//! submission — queue wait counts against the budget — and the solver polls
//! the token at every Gauss–Newton iteration boundary, so cancellation
//! takes effect within one iteration. A panicking solve is caught and
//! reported as [`JobStatus::Failed`] without poisoning the pool.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use claire_core::{
    observe, BatchItem, BatchPair, BatchSolver, CancelToken, ClaireError, SolverHooks,
};
use claire_mpi::Comm;
use claire_obs::report::SchedulingInfo;
use claire_obs::{records, span};

use crate::job::{JobId, JobInput, JobResult, JobSpec, JobStatus, Priority};
use crate::queue::{BoundedQueue, PushError};

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity (only from
    /// [`RegistrationService::try_submit`]).
    QueueFull,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The spec failed admission validation.
    Invalid(ClaireError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue is full"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(e) => write!(f, "invalid job spec: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Service sizing and behaviour.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Concurrent worker threads (each runs one job at a time).
    pub workers: usize,
    /// Admission-queue capacity shared across priority lanes.
    pub queue_capacity: usize,
    /// Machine thread budget partitioned across workers; 0 means "use
    /// `claire_par::num_threads()`" (the ambient resolution).
    pub total_threads: usize,
    /// Whether workers assemble a per-job [`RunReport`] (spans, comm
    /// volume, scheduling metadata) for succeeded jobs.
    pub collect_reports: bool,
    /// Largest batch one worker coalesces (the head job counts; ≤ 1 never
    /// coalesces). When a worker pops a job it also drains up to
    /// `max_batch − 1` queued jobs with the same grid and config (see
    /// [`coalesces`]) from the *same* priority lane and solves them as one
    /// [`BatchSolver`](claire_core::BatchSolver) run — amortizing FFT
    /// planning, pool warm-up, and preconditioner scaffolding, and
    /// interleaving the Gauss–Newton iterations. Per-job deadlines,
    /// cancellation, priorities, and [`RunReport`]s are preserved; results
    /// are bitwise identical to runs of one.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            total_threads: 0,
            collect_reports: true,
            max_batch: 1,
        }
    }
}

impl ServiceConfig {
    /// Set the worker count (clamped to ≥ 1 at start).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the admission-queue capacity (clamped to ≥ 1 at start).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Set the machine thread budget to partition across workers.
    pub fn total_threads(mut self, n: usize) -> Self {
        self.total_threads = n;
        self
    }

    /// Enable or disable per-job [`RunReport`] assembly.
    pub fn collect_reports(mut self, on: bool) -> Self {
        self.collect_reports = on;
        self
    }

    /// Set the largest batch one worker coalesces (≤ 1 never coalesces).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }
}

/// A job admitted to the queue.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    token: CancelToken,
    submitted: Instant,
    deadline: Option<Duration>,
}

struct JobEntry {
    status: JobStatus,
    token: CancelToken,
    result: Option<JobResult>,
}

struct Shared {
    queue: BoundedQueue<QueuedJob>,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    done: Condvar,
    accepting: AtomicBool,
    next_id: AtomicU64,
    next_batch_id: AtomicU64,
}

impl Shared {
    fn finish(&self, id: u64, result: JobResult) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(entry) = jobs.get_mut(&id) {
            entry.status = result.status;
            entry.result = Some(result);
        }
        drop(jobs);
        self.done.notify_all();
    }

    fn set_status(&self, id: u64, status: JobStatus) {
        if let Some(entry) = self.jobs.lock().unwrap().get_mut(&id) {
            entry.status = status;
        }
    }
}

/// An in-process registration job service.
///
/// Dropping the service performs an immediate shutdown (cancelling queued
/// and running jobs); call [`RegistrationService::shutdown`] for a graceful
/// drain.
pub struct RegistrationService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    per_worker_threads: usize,
}

impl RegistrationService {
    /// Start the worker pool.
    pub fn start(cfg: ServiceConfig) -> RegistrationService {
        let workers = cfg.workers.max(1);
        let capacity = cfg.queue_capacity.max(1);
        let machine =
            if cfg.total_threads > 0 { cfg.total_threads } else { claire_par::num_threads() };
        let per_worker = (machine / workers).max(1);

        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(capacity),
            jobs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            accepting: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            next_batch_id: AtomicU64::new(1),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                let collect = cfg.collect_reports;
                std::thread::Builder::new()
                    .name(format!("claire-serve-{w}"))
                    .spawn(move || worker_loop(w, per_worker, collect, cfg.max_batch, &shared))
                    .expect("spawning a service worker thread")
            })
            .collect();
        RegistrationService { shared, workers: handles, per_worker_threads: per_worker }
    }

    /// Threads each worker pins for its kernels.
    pub fn per_worker_threads(&self) -> usize {
        self.per_worker_threads
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Non-blocking submission: validates, then fails fast with
    /// [`SubmitError::QueueFull`] under backpressure.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, false)
    }

    /// Blocking submission: validates, then waits for queue capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, true)
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<JobId, SubmitError> {
        if !self.shared.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        if let Err(e) = spec.validate() {
            return Err(SubmitError::Invalid(e));
        }

        // A caller-provided token is the cancellation seam for tests and
        // remote cancellation; otherwise the job gets a private one.
        let token = spec.hooks.cancel.clone().unwrap_or_default();
        if let Some(d) = spec.deadline {
            token.set_deadline_in(d);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .jobs
            .lock()
            .unwrap()
            .insert(id, JobEntry { status: JobStatus::Queued, token: token.clone(), result: None });

        let lane = spec.priority.index();
        let deadline = spec.deadline;
        let job = QueuedJob { id, spec, token, submitted: Instant::now(), deadline };
        let pushed = if block {
            self.shared.queue.push(job, lane)
        } else {
            self.shared.queue.try_push(job, lane)
        };
        match pushed {
            Ok(()) => Ok(JobId(id)),
            Err(err) => {
                self.shared.jobs.lock().unwrap().remove(&id);
                Err(match err {
                    PushError::Full(_) => SubmitError::QueueFull,
                    PushError::Closed(_) => SubmitError::ShuttingDown,
                })
            }
        }
    }

    /// Request cancellation of a job. Returns `true` if the job exists and
    /// was not already terminal; takes effect within one Gauss–Newton
    /// iteration if the job is running, immediately if still queued.
    pub fn cancel(&self, id: JobId) -> bool {
        let jobs = self.shared.jobs.lock().unwrap();
        match jobs.get(&id.0) {
            Some(entry) if !entry.status.is_terminal() => {
                entry.token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Current status, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.jobs.lock().unwrap().get(&id.0).map(|e| e.status)
    }

    /// Block until the job reaches a terminal status; returns its result
    /// (`None` for an unknown id).
    pub fn wait(&self, id: JobId) -> Option<JobResult> {
        let mut jobs = self.shared.jobs.lock().unwrap();
        loop {
            match jobs.get(&id.0) {
                None => return None,
                Some(entry) => {
                    if let Some(result) = &entry.result {
                        return Some(result.clone());
                    }
                }
            }
            jobs = self.shared.done.wait(jobs).unwrap();
        }
    }

    /// Graceful shutdown: stop accepting, let workers drain every admitted
    /// job, join the pool, and return all results sorted by id. Idempotent.
    pub fn shutdown(&mut self) -> Vec<JobResult> {
        self.stop(false)
    }

    /// Immediate shutdown: additionally trips every non-terminal job's
    /// cancel token, so queued jobs finish as `Cancelled` and running jobs
    /// stop at their next iteration boundary. Idempotent.
    pub fn shutdown_now(&mut self) -> Vec<JobResult> {
        self.stop(true)
    }

    fn stop(&mut self, cancel_pending: bool) -> Vec<JobResult> {
        self.shared.accepting.store(false, Ordering::Release);
        if cancel_pending {
            for entry in self.shared.jobs.lock().unwrap().values() {
                if !entry.status.is_terminal() {
                    entry.token.cancel();
                }
            }
        }
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let jobs = self.shared.jobs.lock().unwrap();
        let mut results: Vec<JobResult> = jobs.values().filter_map(|e| e.result.clone()).collect();
        results.sort_by_key(|r| r.id);
        results
    }
}

impl Drop for RegistrationService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_now();
        }
    }
}

fn worker_loop(
    worker: usize,
    budget: usize,
    collect_reports: bool,
    max_batch: usize,
    shared: &Shared,
) {
    // Partition the machine: this worker's kernels see only its share.
    claire_par::set_local_threads(budget);
    while let Some(job) = shared.queue.pop() {
        // Batch-aware scheduling: drain compatible companions from the
        // popped job's own lane (never across lanes, so priorities hold).
        let mut jobs = vec![job];
        if max_batch > 1 {
            let lane = jobs[0].spec.priority.index();
            let mut companions = shared
                .queue
                .take_matching(lane, max_batch - 1, |j| coalesces(&jobs[0].spec, &j.spec));
            jobs.append(&mut companions);
        }
        execute(worker, budget, collect_reports, shared, jobs);
    }
}

/// Whether two jobs may share one `BatchSolver` run: their grid extents and
/// every [`RegistrationConfig`](claire_core::RegistrationConfig) field are
/// equal, so the batch runs each member through the same arithmetic as a
/// run of one (the worker solves every member with the first one's
/// config). The comparison is exact: admission validates every `f64` field
/// as finite and positive, so no NaN or `±0` reaches the queue. Labels,
/// priorities, deadlines, and hooks are not compared; they stay per-job
/// inside the batch.
pub fn coalesces(a: &JobSpec, b: &JobSpec) -> bool {
    a.input.grid() == b.input.grid() && a.config == b.config
}

/// What [`execute`] keeps of a job once its images have moved to the solver.
struct Member {
    id: u64,
    label: String,
    priority: Priority,
    deadline: Option<Duration>,
    token: CancelToken,
    submitted: Instant,
}

impl Member {
    /// This member's result without solve artifacts. The queue wait runs
    /// from submission to `started` on every exit.
    fn result(
        &self,
        started: Instant,
        run_time: Duration,
        status: JobStatus,
        error: Option<String>,
    ) -> JobResult {
        JobResult {
            id: JobId(self.id),
            label: self.label.clone(),
            status,
            report: None,
            run: None,
            error,
            queue_wait: started.duration_since(self.submitted),
            run_time,
            total: self.submitted.elapsed(),
        }
    }
}

/// Run the popped jobs — one, or a coalesced batch — on the calling worker
/// thread: pre-screen doomed members, solve the rest through one
/// [`BatchSolver`] (shared scaffolding, interleaved Gauss–Newton when there
/// are several), then finish every member with its own result and report.
fn execute(
    worker: usize,
    budget: usize,
    collect_reports: bool,
    shared: &Shared,
    jobs: Vec<QueuedJob>,
) {
    let started = Instant::now();
    let config = jobs[0].spec.config;
    let mut members = Vec::with_capacity(jobs.len());
    let mut inputs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let QueuedJob { id, spec, token, submitted, deadline } = job;
        let JobSpec { label, input, priority, hooks, .. } = spec;
        let member = Member { id, label, priority, deadline, token, submitted };
        // A deadline may have expired (or a cancel landed) while the job sat
        // in the queue — don't start a doomed solve, and don't let it hold
        // up the rest of its batch.
        if let Some(reason) = member.token.stop_reason() {
            let status = match reason {
                claire_core::StopReason::Cancelled => JobStatus::Cancelled,
                claire_core::StopReason::DeadlineExpired => JobStatus::DeadlineExpired,
            };
            let error = format!("{} before execution started", reason.label());
            shared.finish(id, member.result(started, Duration::ZERO, status, Some(error)));
            continue;
        }
        shared.set_status(id, JobStatus::Running);
        let hooks =
            SolverHooks { cancel: Some(member.token.clone()), on_gn_iter: hooks.on_gn_iter };
        inputs.push((member.label.clone(), input, hooks));
        members.push(member);
    }
    if members.is_empty() {
        return;
    }
    // the report and wire contract: batch_id/batch_size 0 = not batched
    let (batch_id, batch_size) = if members.len() > 1 {
        (shared.next_batch_id.fetch_add(1, Ordering::Relaxed), members.len())
    } else {
        (0, 0)
    };

    // The run is ONE unit of schedulable work: hand it this worker's exact
    // thread slice so K coalesced jobs never oversubscribe claire-par
    // (K × per-worker threads would, under the one-job-per-worker split).
    let solver = BatchSolver::new(config).with_thread_budget(budget);
    // Generating a synthetic input runs solver code too (it can panic on a
    // grid too small for its stencils), so it belongs under the same guard.
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let pairs = inputs
            .into_iter()
            .map(|(label, input, hooks)| {
                let (template, reference) = match input {
                    JobInput::Pair { template, reference } => (template, reference),
                    JobInput::Synthetic { n } => {
                        let p = claire_data::syn_problem(n, &mut Comm::solo());
                        (p.template, p.reference)
                    }
                };
                BatchPair::new(label, template, reference).with_hooks(hooks)
            })
            .collect();
        solver.solve(pairs)
    }));
    let run_time = started.elapsed();
    // Spans and GN records are thread-local; drain them after every run so
    // one tenant's trace never leaks into the next job on this worker. The
    // spans cover the whole interleaved run, so every member gets the tree;
    // the records interleave the members' iterations and go unreported.
    let spans = span::take_spans();
    records::take_gn();

    // one entry per member: its own item, or the error that failed the run
    let whole_run_error = |error: String| members.iter().map(|_| Err(error.clone())).collect();
    let items: Vec<Result<BatchItem, String>> = match solved {
        Ok(Ok(outcome)) => outcome.items.into_iter().map(Ok).collect(),
        Ok(Err(e)) => whole_run_error(e.to_string()),
        Err(payload) => whole_run_error(format!(
            "solver panicked: {}",
            claire_mpi::panic_message(payload.as_ref())
        )),
    };

    for (member, item) in members.into_iter().zip(items) {
        let mut result = member.result(started, run_time, JobStatus::Failed, None);
        match item {
            Ok(BatchItem { outcome: Ok((_, report)), memory, comm, .. }) => {
                result.status = JobStatus::Succeeded;
                if collect_reports {
                    let scheduling = SchedulingInfo {
                        job_id: member.id,
                        priority: member.priority.label().to_string(),
                        worker,
                        queue_wait_secs: result.queue_wait.as_secs_f64(),
                        run_secs: run_time.as_secs_f64(),
                        total_secs: result.total.as_secs_f64(),
                        deadline_secs: member.deadline.map(|d| d.as_secs_f64()).unwrap_or(0.0),
                        batch_id,
                        batch_size,
                    };
                    // Only per-job sources: this worker's kernel timers cover
                    // every member of the batch. The counts cover the solve
                    // and its report, not the generation of a synthetic
                    // input.
                    let transport = Comm::solo().transport_kind();
                    let mut run = observe::solve_run_report(
                        &member.label,
                        &report,
                        transport,
                        &comm,
                        &memory,
                    );
                    run.scheduling = scheduling;
                    run.spans = spans.clone();
                    result.run = Some(run);
                }
                result.report = Some(report);
            }
            Ok(BatchItem { outcome: Err(e), .. }) => {
                // Cancellation precedence mirrors the token: an explicit
                // cancel wins even when the deadline also expired.
                let token = &member.token;
                result.status = match &e {
                    ClaireError::Cancelled { .. } if token.is_cancelled() => JobStatus::Cancelled,
                    ClaireError::Cancelled { .. } if token.deadline_expired() => {
                        JobStatus::DeadlineExpired
                    }
                    ClaireError::Cancelled { .. } => JobStatus::Cancelled,
                    _ => JobStatus::Failed,
                };
                result.error = Some(e.to_string());
            }
            Err(error) => result.error = Some(error),
        }
        shared.finish(member.id, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_core::{PrecondKind, RegistrationConfig};

    fn tiny_config() -> RegistrationConfig {
        RegistrationConfig {
            nt: 2,
            max_gn_iter: 2,
            max_pcg_iter: 4,
            continuation: false,
            precond: PrecondKind::InvA,
            ..Default::default()
        }
    }

    fn tiny_spec(label: &str) -> JobSpec {
        JobSpec::new(label, tiny_config(), JobInput::Synthetic { n: [8, 8, 8] })
    }

    #[test]
    fn submits_run_and_report_scheduling_metadata() {
        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
        let id = svc.try_submit(tiny_spec("syn-8")).unwrap();
        let res = svc.wait(id).expect("job must be known");
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        let report = res.report.expect("succeeded job carries a report");
        assert!(report.gn_iters >= 1);
        let run = res.run.expect("collect_reports defaults to on");
        assert_eq!(run.scheduling.job_id, id.as_u64());
        assert_eq!(run.scheduling.priority, "normal");
        assert!(run.scheduling.total_secs >= run.scheduling.run_secs);
        assert!(run.to_json().contains("\"scheduling\""));
        assert!(run.summary.obj_evals > 0 && run.summary.hess_applies > 0, "{:?}", run.summary);
        let drained = svc.shutdown();
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn served_job_report_carries_precision_and_precision_splits_batches() {
        use claire_core::Precision;
        let mut mixed_cfg = tiny_config();
        mixed_cfg.precision = Precision::Mixed;
        let mut f64_cfg = tiny_config();
        f64_cfg.precision = Precision::F64;

        // jobs differing only in precision run different arithmetic — they
        // must never coalesce into one BatchSolver
        let a = JobSpec::new("m", mixed_cfg, JobInput::Synthetic { n: [8, 8, 8] });
        let b = JobSpec::new("d", f64_cfg, JobInput::Synthetic { n: [8, 8, 8] });
        assert!(!coalesces(&a, &b));

        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
        let id = svc.try_submit(a).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        assert_eq!(res.run.expect("run report").precision, "mixed");
        let id = svc.try_submit(b).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.run.expect("run report").precision, "f64");
        svc.shutdown();
    }

    #[test]
    fn invalid_spec_is_rejected_at_admission() {
        let mut svc = RegistrationService::start(ServiceConfig::default());
        let mut spec = tiny_spec("bad");
        spec.config.nt = 0;
        match svc.try_submit(spec) {
            Err(SubmitError::Invalid(e)) => assert!(e.to_string().contains("nt"), "{e}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let zero = JobSpec::new("zero", tiny_config(), JobInput::Synthetic { n: [0, 8, 8] });
        assert!(matches!(svc.try_submit(zero), Err(SubmitError::Invalid(_))));
        svc.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let mut svc = RegistrationService::start(ServiceConfig::default());
        svc.shutdown();
        assert_eq!(svc.try_submit(tiny_spec("late")), Err(SubmitError::ShuttingDown));
        assert_eq!(svc.submit(tiny_spec("late-2")), Err(SubmitError::ShuttingDown));
        // idempotent
        assert!(svc.shutdown().is_empty());
    }

    #[test]
    fn deadline_expired_in_queue_is_terminal_without_running() {
        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
        let spec = tiny_spec("doomed").deadline(Duration::ZERO);
        let id = svc.try_submit(spec).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::DeadlineExpired);
        assert!(res.report.is_none());
        assert!(res.error.unwrap().contains("deadline"));
        // the pool survives: a healthy job still runs afterwards
        let ok = svc.try_submit(tiny_spec("healthy")).unwrap();
        assert_eq!(svc.wait(ok).unwrap().status, JobStatus::Succeeded);
        svc.shutdown();
    }

    /// A job whose `on_gn_iter` hook blocks until released — keeps the
    /// single worker busy so later submissions pile up in the queue and the
    /// coalescing path is exercised deterministically.
    fn blocking_spec(label: &str) -> (JobSpec, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = gate.clone();
        let hooks = SolverHooks {
            cancel: None,
            on_gn_iter: Some(Arc::new(move |_| {
                let (lock, cv) = &*waiter;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })),
        };
        // a different grid size than tiny_spec ⇒ never coalesces with it
        let spec =
            JobSpec::new(label, tiny_config(), JobInput::Synthetic { n: [4, 4, 4] }).hooks(hooks);
        (spec, gate)
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn compatible_queued_jobs_coalesce_into_one_batch() {
        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1).max_batch(8));
        let (blocker, gate) = blocking_spec("blocker");
        let b = svc.try_submit(blocker).unwrap();
        let ids: Vec<_> =
            (0..3).map(|i| svc.try_submit(tiny_spec(&format!("m{i}"))).unwrap()).collect();
        open_gate(&gate);

        assert_eq!(svc.wait(b).unwrap().status, JobStatus::Succeeded);
        let runs: Vec<_> = ids
            .iter()
            .map(|&id| {
                let res = svc.wait(id).unwrap();
                assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
                assert!(res.report.is_some());
                res.run.expect("collect_reports defaults to on")
            })
            .collect();
        let batch_id = runs[0].scheduling.batch_id;
        assert!(batch_id > 0, "coalesced members carry a nonzero batch id");
        for run in &runs {
            assert_eq!(run.scheduling.batch_id, batch_id, "one batch for all three");
            assert_eq!(run.scheduling.batch_size, 3);
            assert!(
                run.memory.pool_checkouts > 0,
                "per-member memory attribution must see this member's checkouts"
            );
        }
        // members attribute disjoint event deltas — no double counting
        let total: u64 = runs.iter().map(|r| r.memory.pool_checkouts).sum();
        assert!(
            total > runs[0].memory.pool_checkouts,
            "deltas are per member, not the batch total"
        );
        svc.shutdown();
    }

    #[test]
    fn coalescing_never_crosses_priority_lanes() {
        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1).max_batch(8));
        let (blocker, gate) = blocking_spec("blocker");
        let b = svc.try_submit(blocker).unwrap();
        let hi = svc.try_submit(tiny_spec("hi").priority(Priority::High)).unwrap();
        let n1 = svc.try_submit(tiny_spec("n1")).unwrap();
        let n2 = svc.try_submit(tiny_spec("n2")).unwrap();
        open_gate(&gate);

        svc.wait(b).unwrap();
        let hi_run = svc.wait(hi).unwrap().run.unwrap();
        assert_eq!(hi_run.scheduling.batch_id, 0, "the lone high job runs solo");
        let r1 = svc.wait(n1).unwrap().run.unwrap();
        let r2 = svc.wait(n2).unwrap().run.unwrap();
        assert!(r1.scheduling.batch_id > 0);
        assert_eq!(r1.scheduling.batch_id, r2.scheduling.batch_id);
        assert_eq!(r1.scheduling.batch_size, 2);
        svc.shutdown();
    }

    #[test]
    fn expired_member_retires_without_holding_up_its_batch() {
        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1).max_batch(8));
        let (blocker, gate) = blocking_spec("blocker");
        let b = svc.try_submit(blocker).unwrap();
        let doomed = svc.try_submit(tiny_spec("doomed").deadline(Duration::ZERO)).unwrap();
        let ok1 = svc.try_submit(tiny_spec("ok1")).unwrap();
        let ok2 = svc.try_submit(tiny_spec("ok2")).unwrap();
        open_gate(&gate);

        svc.wait(b).unwrap();
        let res = svc.wait(doomed).unwrap();
        assert_eq!(res.status, JobStatus::DeadlineExpired);
        assert!(res.error.unwrap().contains("before execution started"));
        for id in [ok1, ok2] {
            let res = svc.wait(id).unwrap();
            assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        }
        svc.shutdown();
    }

    #[test]
    fn batched_and_solo_runs_agree_bitwise() {
        // the scheduler seam must not change arithmetic: a job solved in a
        // coalesced batch reports the same mismatch as the same spec solo
        let mut solo_svc = RegistrationService::start(ServiceConfig::default().workers(1));
        let id = solo_svc.try_submit(tiny_spec("ref")).unwrap();
        let solo = solo_svc.wait(id).unwrap().report.unwrap();
        solo_svc.shutdown();

        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1).max_batch(8));
        let (blocker, gate) = blocking_spec("blocker");
        svc.try_submit(blocker).unwrap();
        let a = svc.try_submit(tiny_spec("a")).unwrap();
        let b = svc.try_submit(tiny_spec("b")).unwrap();
        open_gate(&gate);
        for id in [a, b] {
            let res = svc.wait(id).unwrap();
            let report = res.report.unwrap();
            assert_eq!(
                report.rel_mismatch.to_bits(),
                solo.rel_mismatch.to_bits(),
                "batched member must match the solo solve bitwise"
            );
            assert!(res.run.unwrap().scheduling.batch_id > 0, "actually took the batch path");
        }
        svc.shutdown();
    }

    #[test]
    fn unknown_ids_are_handled() {
        let mut svc = RegistrationService::start(ServiceConfig::default());
        let ghost = JobId(999);
        assert_eq!(svc.status(ghost), None);
        assert!(svc.wait(ghost).is_none());
        assert!(!svc.cancel(ghost));
        svc.shutdown();
    }
}
