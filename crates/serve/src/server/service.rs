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
//! takes effect within one iteration. A worker runs one job at a time, so
//! the kernel timers, GN records and span tree on its thread are that
//! job's and go into its [`RunReport`](claire_obs::report::RunReport). A
//! panicking solve is caught and reported as [`JobStatus::Failed`] without
//! poisoning the pool.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use claire_core::observe::{self, MemStats};
use claire_core::{CancelToken, Claire, ClaireError, SolverHooks, StopReason};
use claire_mpi::Comm;
use claire_obs::report::SchedulingInfo;

use crate::job::{JobId, JobInput, JobResult, JobSpec, JobStatus};
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
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 1, queue_capacity: 16, total_threads: 0 }
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
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("claire-serve-{w}"))
                    .spawn(move || worker_loop(w, per_worker, &shared))
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

fn worker_loop(worker: usize, budget: usize, shared: &Shared) {
    // Partition the machine: this worker's kernels see only its share.
    claire_par::set_local_threads(budget);
    while let Some(job) = shared.queue.pop() {
        execute(worker, shared, job);
    }
}

/// Run one popped job on the calling worker thread and finish it with its
/// result and, when it succeeded, its report.
fn execute(worker: usize, shared: &Shared, job: QueuedJob) {
    let started = Instant::now();
    let QueuedJob { id, spec, token, submitted, deadline } = job;
    let JobSpec { label, config, input, priority, hooks, .. } = spec;
    let mut result = JobResult {
        id: JobId(id),
        label,
        status: JobStatus::Failed,
        run: None,
        error: None,
        queue_wait: started.duration_since(submitted),
        run_time: Duration::ZERO,
        total: Duration::ZERO,
    };
    // A deadline may have expired (or a cancel landed) while the job sat in
    // the queue — don't start a doomed solve.
    if let Some(reason) = token.stop_reason() {
        result.status = match reason {
            StopReason::Cancelled => JobStatus::Cancelled,
            StopReason::DeadlineExpired => JobStatus::DeadlineExpired,
        };
        result.error = Some(format!("{} before execution started", reason.label()));
        result.total = submitted.elapsed();
        shared.finish(id, result);
        return;
    }
    shared.set_status(id, JobStatus::Running);

    let hooks = SolverHooks { cancel: Some(token.clone()), on_gn_iter: hooks.on_gn_iter };
    let mut comm = Comm::solo();
    let mut mem = MemStats::default();
    // Generating a synthetic input runs solver code too (it can panic on a
    // grid too small for its stencils), so it belongs under the same guard.
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let (template, reference) = match input {
            JobInput::Pair { template, reference } => (template, reference),
            JobInput::Synthetic { n } => {
                let p = claire_data::syn_problem(n, &mut Comm::solo());
                (p.template, p.reference)
            }
        };
        // the report covers this job's solve alone: not its input, not the
        // jobs this worker ran before
        claire_obs::reset();
        claire_par::timing::reset();
        let mut claire = Claire::with_hooks(config, hooks);
        mem.metered(|| claire.try_register_from(&template, &reference, &result.label, &mut comm))
    }));
    result.run_time = started.elapsed();
    result.total = submitted.elapsed();

    match solved {
        Ok(Ok((_, report))) => {
            result.status = JobStatus::Succeeded;
            let mut run = observe::collect_job_report(report, &comm, &mem);
            run.scheduling = SchedulingInfo {
                job_id: id,
                priority: priority.label().to_string(),
                worker,
                queue_wait_secs: result.queue_wait.as_secs_f64(),
                run_secs: result.run_time.as_secs_f64(),
                total_secs: result.total.as_secs_f64(),
                deadline_secs: deadline.map(|d| d.as_secs_f64()).unwrap_or(0.0),
            };
            result.run = Some(run);
        }
        Ok(Err(e)) => {
            // Cancellation precedence mirrors the token: an explicit cancel
            // wins even when the deadline also expired.
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
        Err(payload) => {
            result.error =
                Some(format!("solver panicked: {}", claire_mpi::panic_message(payload.as_ref())));
        }
    }
    shared.finish(id, result);
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
        let run = res.run.expect("a succeeded job carries its report");
        assert_eq!(run.summary.data, "syn-8", "the job's label names its row");
        assert!(run.summary.gn_iters >= 1);
        assert_eq!(run.scheduling.job_id, id.as_u64());
        assert_eq!(run.scheduling.priority, "normal");
        assert!(run.scheduling.total_secs >= run.scheduling.run_secs);
        assert!(run.to_json().contains("\"scheduling\""));
        assert!(run.summary.obj_evals > 0 && run.summary.hess_applies > 0, "{:?}", run.summary);
        let drained = svc.shutdown();
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn served_job_report_carries_precision() {
        use claire_core::Precision;
        let mut mixed_cfg = tiny_config();
        mixed_cfg.precision = Precision::Mixed;
        let mut f64_cfg = tiny_config();
        f64_cfg.precision = Precision::F64;
        let a = JobSpec::new("m", mixed_cfg, JobInput::Synthetic { n: [8, 8, 8] });
        let b = JobSpec::new("d", f64_cfg, JobInput::Synthetic { n: [8, 8, 8] });

        let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
        let id = svc.try_submit(a).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        assert_eq!(res.run.expect("run report").summary.precision, "mixed");
        let id = svc.try_submit(b).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.run.expect("run report").summary.precision, "f64");
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
        assert!(res.run.is_none());
        assert!(res.error.unwrap().contains("deadline"));
        // the pool survives: a healthy job still runs afterwards
        let ok = svc.try_submit(tiny_spec("healthy")).unwrap();
        assert_eq!(svc.wait(ok).unwrap().status, JobStatus::Succeeded);
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
