//! End-to-end tests of `claire-cli batch`'s runner: priority order,
//! cooperative cancellation within one Gauss–Newton iteration, deadlines
//! counted from batch start, a panicking job failing alone, a batch job's
//! report against a direct solve's, and a property test over worker counts
//! and cancellations (every entry gets exactly one outcome).
//!
//! Jobs are tiny synthetic problems (8³, nt ≤ 2, ≤ 2 GN iterations) so the
//! whole file stays fast on a single-core host.

// A test cannot link the `claire-cli` binary, so the runner's file is
// compiled in as a module; the manifest half is the binary's unit tests'.
#[path = "../src/bin/claire-cli/batch.rs"]
#[allow(dead_code)]
mod batch;

use batch::{Job, JobInput, Outcome, Priority, Status};
use claire::core::{CancelToken, PrecondKind, RegistrationConfig, SolverHooks};
use claire::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn job_on(label: &str, config: RegistrationConfig, n: [usize; 3]) -> Job {
    Job {
        label: label.into(),
        config,
        input: JobInput::Synthetic { n },
        priority: Priority::Normal,
        deadline: None,
        hooks: SolverHooks::default(),
    }
}

fn tiny_job(label: &str) -> Job {
    job_on(label, tiny_config(), [8; 3])
}

/// Run `jobs` on `workers` workers sharing the ambient thread budget.
fn run(jobs: &[Job], workers: usize) -> Vec<Outcome> {
    batch::run(jobs, workers, 0, &|_| {})
}

fn assert_succeeded(outcome: &Outcome) -> &RunReport {
    assert_eq!(outcome.status, Status::Succeeded, "{}: {:?}", outcome.label, outcome.error);
    outcome.run.as_ref().expect("a succeeded job carries its report")
}

/// The error of a job that ended `status`, without a report.
fn error_of(outcome: &Outcome, status: Status) -> &str {
    assert_eq!(outcome.status, status, "{}: {:?}", outcome.label, outcome.error);
    assert!(outcome.run.is_none(), "{}", outcome.label);
    outcome.error.as_deref().expect("a job that did not succeed says why")
}

/// Hooks that carry `cancel` and call `f` at every GN boundary.
fn observing(
    cancel: Option<CancelToken>,
    f: impl Fn(usize) + Send + Sync + 'static,
) -> SolverHooks {
    SolverHooks { cancel, on_gn_iter: Some(Arc::new(f)) }
}

/// Hooks whose first GN boundary appends `label` to `order`: the order in
/// which the workers *started* jobs.
fn start_recorder(label: &'static str, order: &Arc<Mutex<Vec<&'static str>>>) -> SolverHooks {
    let (order, first) = (order.clone(), AtomicBool::new(true));
    observing(None, move |_| {
        if first.swap(false, Ordering::Relaxed) {
            order.lock().unwrap().push(label);
        }
    })
}

#[test]
fn priority_classes_drain_in_order() {
    // listed worst-first, so manifest order would be wrong; within a class
    // manifest order holds
    let order = Arc::new(Mutex::new(Vec::new()));
    let entries: [(&'static str, Priority); 4] = [
        ("low", Priority::Low),
        ("normal-1", Priority::Normal),
        ("high", Priority::High),
        ("normal-2", Priority::Normal),
    ];
    let jobs: Vec<Job> = entries
        .iter()
        .map(|&(label, priority)| Job {
            priority,
            hooks: start_recorder(label, &order),
            ..tiny_job(label)
        })
        .collect();
    let outcomes = run(&jobs, 1);
    for outcome in &outcomes {
        assert_succeeded(outcome);
    }
    assert_eq!(*order.lock().unwrap(), ["high", "normal-1", "normal-2", "low"]);
    // outcomes come back in manifest order
    let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
    assert_eq!(labels, entries.map(|(label, _)| label));
}

#[test]
fn cancelled_job_stops_within_one_gn_iteration() {
    let (token, boundaries) = (CancelToken::new(), Arc::new(AtomicUsize::new(0)));
    let (trip, seen) = (token.clone(), boundaries.clone());
    let hooks = observing(Some(token), move |k| {
        seen.fetch_add(1, Ordering::Relaxed);
        if k == 1 {
            trip.cancel();
        }
    });
    let config = RegistrationConfig {
        max_gn_iter: 25,
        grad_rtol: 1e-12, // keep iterating until cancelled
        ..tiny_config()
    };
    let jobs = [Job { hooks, ..job_on("to-cancel", config, [8; 3]) }, tiny_job("after-cancel")];
    let outcomes = run(&jobs, 1);

    assert!(error_of(&outcomes[0], Status::Cancelled).contains("cancelled"));
    // boundary 0 ran the iteration, boundary 1 tripped and stopped: the
    // cancel took effect within one GN iteration
    assert_eq!(boundaries.load(Ordering::Relaxed), 2);
    // the worker goes on: the job behind it succeeds
    assert_succeeded(&outcomes[1]);
}

#[test]
fn deadline_expired_job_is_terminal_and_pool_survives() {
    let jobs = [Job { deadline: Some(Duration::ZERO), ..tiny_job("doomed") }, tiny_job("healthy")];
    let outcomes = run(&jobs, 1);
    let error = error_of(&outcomes[0], Status::DeadlineExpired);
    assert_eq!(error, "deadline expired before execution started");
    assert_succeeded(&outcomes[1]);
}

#[test]
fn per_job_report_records_queue_wait_and_latency() {
    // One worker, two jobs: the high-priority second entry runs first, so
    // the first entry waits the whole of its run, counted from batch start.
    let jobs = [
        Job { deadline: Some(Duration::from_secs(600)), ..tiny_job("waiting") },
        Job { priority: Priority::High, ..tiny_job("observed") },
    ];
    let outcomes = run(&jobs, 1);
    let (waiting, observed) = (assert_succeeded(&outcomes[0]), assert_succeeded(&outcomes[1]));
    assert_eq!(observed.summary.data, "observed", "the row is named by the job's label");

    let (w, o) = (&waiting.scheduling, &observed.scheduling);
    assert_eq!((w.job_id, o.job_id), (1, 2), "job ids are 1-based manifest positions");
    assert_eq!((w.priority.as_str(), o.priority.as_str()), ("normal", "high"));
    assert_eq!((w.worker, o.worker), (0, 0));
    assert_eq!((w.deadline_secs, o.deadline_secs), (600.0, 0.0));
    for s in [w, o] {
        assert!(s.run_secs > 0.0);
        assert!(s.total_secs >= s.queue_wait_secs + s.run_secs - 1e-6, "{s:?}");
    }
    assert!(w.queue_wait_secs >= o.total_secs - 1e-6, "{w:?} vs {o:?}");
    assert_eq!(outcomes[0].queue_wait.as_secs_f64(), w.queue_wait_secs);
    assert_eq!(outcomes[0].run_time.as_secs_f64(), w.run_secs);
    // the JSON document carries the scheduling block
    let json = waiting.to_json();
    assert!(json.contains("\"scheduling\""));
    assert!(json.contains("\"queue_wait_secs\""));
}

/// The registration arithmetic is deterministic (one reduction order, DESIGN
/// §6), so every summary field except the label and the wall-clock `time_*`
/// seconds must match bitwise between two solves of the same spec. The
/// comparison is of the reports with those fields cleared, so a field added
/// to the summary is covered without touching this test.
fn assert_reports_bitwise_equal(a: &RegistrationReport, b: &RegistrationReport) {
    let deterministic = |r: &RegistrationReport| RegistrationReport {
        data: String::new(),
        time_pc: 0.0,
        time_obj: 0.0,
        time_grad: 0.0,
        time_hess: 0.0,
        time_total: 0.0,
        ..r.clone()
    };
    let (a, b) = (deterministic(a), deterministic(b));
    // f64 fields compare by bits: `==` would let a 0.0 pass for a −0.0
    let bits = |r: &RegistrationReport| {
        [r.rel_mismatch, r.grad_rel, r.inner_cg_avg, r.jac_det_min, r.jac_det_max].map(f64::to_bits)
    };
    assert_eq!(bits(&a), bits(&b), "a floating-point summary field drifted");
    assert_eq!(a, b);
}

#[test]
fn served_job_matches_a_direct_solve_bitwise() {
    let outcomes = run(&[tiny_job("batch")], 1);
    let batched = assert_succeeded(&outcomes[0]);

    // the same job, solved directly through `Claire`
    let mut comm = Comm::solo();
    let prob = syn_problem([8, 8, 8], &mut comm);
    let (_, report) = Claire::new(tiny_config())
        .try_register_from(&prob.template, &prob.reference, "direct", &mut comm)
        .expect("direct solve");
    let direct = collect_run_report(report, &comm);

    assert_eq!((batched.summary.data.as_str(), direct.summary.data.as_str()), ("batch", "direct"));
    assert_reports_bitwise_equal(&batched.summary, &direct.summary);
    // the job's run document holds the row once, as its summary
    let doc = serde_json::from_str(&batched.to_json()).expect("the run report parses");
    let serde::Value::Object(pairs) = &doc else { panic!("the run is a JSON object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, claire::obs::report::SCHEMA_KEYS);
}

#[test]
fn per_job_cancellation_on_a_sequential_worker() {
    // One worker. `ok1`'s observer cancels `queued` while `ok1` runs, so
    // `queued` never starts; `quitter` cancels itself at its own iteration
    // boundary 1. Those two alone end `Cancelled`; the jobs before and after
    // them on the same worker complete with full reports of their own.
    let (queued, quitter) = (CancelToken::new(), CancelToken::new());
    let (neighbour, trip) = (queued.clone(), quitter.clone());
    let jobs = [
        Job { hooks: observing(None, move |_| neighbour.cancel()), ..tiny_job("ok1") },
        Job { hooks: SolverHooks::with_cancel(queued), ..tiny_job("queued") },
        Job {
            hooks: observing(Some(quitter), move |k| {
                if k >= 1 {
                    trip.cancel();
                }
            }),
            ..tiny_job("quitter")
        },
        tiny_job("ok2"),
    ];
    let outcomes = run(&jobs, 1);

    let error = error_of(&outcomes[1], Status::Cancelled);
    assert_eq!(error, "cancelled before execution started");
    let error = error_of(&outcomes[2], Status::Cancelled);
    assert!(error.starts_with("Claire::register stopped early: cancelled"), "{error}");
    assert!(error.contains("after 1 Gauss-Newton"), "{error}");

    for outcome in [&outcomes[0], &outcomes[3]] {
        let run = assert_succeeded(outcome);
        assert!(run.summary.gn_iters >= 1, "{:?}", run.summary);
        assert!(run.memory.pool_checkouts > 0, "the job's own pool events");
    }
}

#[test]
fn panicking_run_fails_its_job_and_spares_the_one_behind_it() {
    // One worker. The bomb's observer panics inside its solve. The panic is
    // caught and fails that job alone — which still reports the time it
    // waited behind the first job — and the bystander behind it succeeds.
    let bomb = observing(None, |_| panic!("observer exploded"));
    let jobs = [tiny_job("first"), Job { hooks: bomb, ..tiny_job("bomb") }, tiny_job("bystander")];
    let outcomes = run(&jobs, 1);

    assert_succeeded(&outcomes[0]);
    let error = error_of(&outcomes[1], Status::Failed);
    assert!(error.contains("solver panicked: observer exploded"), "{error}");
    assert!(outcomes[1].queue_wait >= outcomes[0].run_time, "a failed job keeps its queue wait");
    assert_succeeded(&outcomes[2]);
}

#[test]
fn served_reports_carry_their_own_kernels_and_gn_trace() {
    // Two workers, each running one job at a time: a job's report holds
    // the kernel timers and GN records of its own solve, not its
    // predecessor's on the same worker. Equal jobs therefore report equal
    // kernel call counts.
    claire::obs::set_enabled(true);
    let jobs: Vec<Job> = (0..4).map(|i| tiny_job(&format!("own-{i}"))).collect();
    let outcomes = run(&jobs, 2);
    let mut calls = Vec::new();
    for outcome in &outcomes {
        let run = assert_succeeded(outcome);
        assert_eq!(run.gn_trace.len(), run.summary.gn_iters, "{}", outcome.label);
        assert!(!run.kernels.is_empty(), "{}: no kernel timers", outcome.label);
        calls.push(run.kernels.iter().map(|k| (k.name.clone(), k.calls)).collect::<Vec<_>>());
    }
    let workers: Vec<usize> =
        outcomes.iter().map(|o| o.run.as_ref().unwrap().scheduling.worker).collect();
    assert!(workers.iter().all(|&w| w < 2), "{workers:?}");
    assert!(calls.windows(2).all(|w| w[0] == w[1]), "{calls:?}");
}

#[test]
fn panicking_input_generation_fails_the_job_not_the_worker() {
    // The manifest accepts any extent >= 2, but generating a synthetic pair
    // on a grid narrower than the FD8 halo panics. That must end as a
    // `Failed` job, and the worker goes on to the next one.
    let jobs = [
        job_on("two", tiny_config(), [2; 3]),
        job_on("three", tiny_config(), [3; 3]),
        tiny_job("after"),
    ];
    let outcomes = run(&jobs, 1);
    for outcome in &outcomes[..2] {
        let error = error_of(outcome, Status::Failed);
        assert!(error.contains("solver panicked: "), "{error}");
    }
    assert_succeeded(&outcomes[2]);
}

#[test]
fn grid_the_preconditioner_cannot_coarsen_fails_typed_not_by_panic() {
    // 18³ is a fine grid for the transforms, but 2LInvH0's half-resolution
    // grid (9³) is not one the real FFT can take: the job must end `Failed`
    // with the validation message, without going through `catch_unwind`.
    let cfg = RegistrationConfig { precond: PrecondKind::TwoLevelInvH0, ..tiny_config() };
    let outcomes = run(&[job_on("18", cfg, [18; 3])], 1);
    let error = error_of(&outcomes[0], Status::Failed);
    assert!(error.contains("n3 % 4 == 0") && !error.contains("panicked"), "{error}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Workers claim jobs from one atomic counter while the first boundary
    /// of any job cancels the masked ones, which may be queued, running or
    /// done by then. Every entry gets exactly one outcome, in manifest
    /// order, and no job starts twice.
    #[test]
    fn no_job_lost_or_duplicated_across_interleavings(
        n_jobs in 1usize..5,
        workers in 1usize..3,
        cancel_mask in 0u32..16,
    ) {
        let cfg = RegistrationConfig { nt: 1, max_gn_iter: 1, ..tiny_config() };
        let masked = move |j: usize| cancel_mask & (1 << j) != 0;
        let tokens: Arc<Vec<CancelToken>> =
            Arc::new((0..n_jobs).map(|_| CancelToken::new()).collect());
        let starts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n_jobs).map(|_| AtomicUsize::new(0)).collect());
        let jobs: Vec<Job> = (0..n_jobs)
            .map(|j| {
                let (all, starts) = (tokens.clone(), starts.clone());
                let observer = move |k: usize| {
                    if k == 0 {
                        starts[j].fetch_add(1, Ordering::Relaxed);
                        (0..all.len()).filter(|&m| masked(m)).for_each(|m| all[m].cancel());
                    }
                };
                let hooks = observing(Some(tokens[j].clone()), observer);
                Job { hooks, ..job_on(&format!("prop-{j}"), cfg, [8; 3]) }
            })
            .collect();
        let outcomes = run(&jobs, workers);

        prop_assert_eq!(outcomes.len(), n_jobs, "a job was lost or duplicated");
        for (j, outcome) in outcomes.iter().enumerate() {
            prop_assert_eq!(&outcome.label, &format!("prop-{j}"));
            prop_assert!(starts[j].load(Ordering::Relaxed) <= 1, "{} started twice", outcome.label);
            // a masked job is cancelled by its own first boundary if no
            // other job's came first: it never succeeds
            let expected = if masked(j) { Status::Cancelled } else { Status::Succeeded };
            prop_assert_eq!(outcome.status, expected, "{}: {:?}", outcome.label, outcome.error);
            if let Some(run) = &outcome.run {
                prop_assert_eq!(run.scheduling.job_id, j as u64 + 1);
            }
        }
    }
}
