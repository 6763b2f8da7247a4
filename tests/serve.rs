//! End-to-end tests of the claire-serve job service: priority scheduling,
//! cooperative cancellation within one Gauss–Newton iteration, deadlines,
//! graceful shutdown, a served job's report against a direct solve's, and
//! a property test over submit/cancel/shutdown interleavings (no job lost,
//! none duplicated).
//!
//! Jobs are tiny synthetic problems (8³, nt ≤ 2, ≤ 2 GN iterations) so the
//! whole file stays fast on a single-core host.

use claire::core::{CancelToken, PrecondKind, RegistrationConfig, SolverHooks};
use claire::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

fn tiny_spec(label: &str) -> JobSpec {
    JobSpec::new(label, tiny_config(), JobInput::Synthetic { n: [8, 8, 8] })
}

/// Hooks whose first GN boundary appends `label` to `order` — records the
/// order in which the worker *started* jobs.
fn start_recorder(label: &'static str, order: &Arc<Mutex<Vec<&'static str>>>) -> SolverHooks {
    let order = order.clone();
    let first = AtomicBool::new(true);
    SolverHooks {
        cancel: None,
        on_gn_iter: Some(Arc::new(move |_| {
            if first.swap(false, Ordering::Relaxed) {
                order.lock().unwrap().push(label);
            }
        })),
    }
}

/// Hooks that park the job in its first GN boundary until `release` fires
/// (or 30 s pass), so the single worker stays busy while the test queues
/// more jobs behind it.
fn parked_until(release: mpsc::Receiver<()>) -> SolverHooks {
    let release = Mutex::new(Some(release));
    SolverHooks {
        cancel: None,
        on_gn_iter: Some(Arc::new(move |_| {
            if let Some(rx) = release.lock().unwrap().take() {
                let _ = rx.recv_timeout(Duration::from_secs(30));
            }
        })),
    }
}

#[test]
fn priority_classes_drain_in_order() {
    // One worker; the first job parks inside its first GN boundary until we
    // release it, so the queue is guaranteed to hold all three priority
    // classes before the worker picks the next job.
    let svc = RegistrationService::start(ServiceConfig::default().workers(1).queue_capacity(8));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let blocker = svc.submit(tiny_spec("blocker").hooks(parked_until(release_rx))).unwrap();
    // the worker must be occupied before the contenders are queued
    while svc.status(blocker) != Some(JobStatus::Running) {
        std::thread::sleep(Duration::from_millis(1));
    }

    let order = Arc::new(Mutex::new(Vec::new()));
    // submitted worst-first so FIFO order would be wrong
    let low = svc
        .submit(tiny_spec("low").priority(Priority::Low).hooks(start_recorder("low", &order)))
        .unwrap();
    let normal = svc.submit(tiny_spec("normal").hooks(start_recorder("normal", &order))).unwrap();
    let high = svc
        .submit(tiny_spec("high").priority(Priority::High).hooks(start_recorder("high", &order)))
        .unwrap();
    assert_eq!(svc.queue_depth(), 3);

    release_tx.send(()).unwrap();
    for id in [blocker, high, normal, low] {
        let res = svc.wait(id).expect("job known");
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
    }
    assert_eq!(*order.lock().unwrap(), ["high", "normal", "low"]);
}

#[test]
fn cancelled_job_stops_within_one_gn_iteration() {
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    // external token through the spec's hooks: the service adopts it
    let token = CancelToken::new();
    let trip = token.clone();
    let boundaries = Arc::new(AtomicUsize::new(0));
    let seen = boundaries.clone();
    let hooks = SolverHooks {
        cancel: Some(token),
        on_gn_iter: Some(Arc::new(move |k| {
            seen.fetch_add(1, Ordering::Relaxed);
            if k == 1 {
                trip.cancel();
            }
        })),
    };
    let mut spec = tiny_spec("to-cancel").hooks(hooks);
    spec.config.max_gn_iter = 25;
    spec.config.grad_rtol = 1e-12; // keep iterating until cancelled

    let id = svc.submit(spec).unwrap();
    let res = svc.wait(id).expect("job known");
    assert_eq!(res.status, JobStatus::Cancelled, "{:?}", res.error);
    // boundary 0 ran the iteration, boundary 1 tripped and stopped: the
    // cancel took effect within one GN iteration
    assert_eq!(boundaries.load(Ordering::Relaxed), 2);
    assert!(res.error.unwrap().contains("cancelled"));
    assert!(res.run.is_none());

    // the worker pool is not poisoned: a healthy job still succeeds
    let ok = svc.submit(tiny_spec("after-cancel")).unwrap();
    assert_eq!(svc.wait(ok).unwrap().status, JobStatus::Succeeded);
}

#[test]
fn deadline_expired_job_is_terminal_and_pool_survives() {
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let id = svc.submit(tiny_spec("doomed").deadline(Duration::ZERO)).unwrap();
    let res = svc.wait(id).expect("job known");
    assert_eq!(res.status, JobStatus::DeadlineExpired);
    assert!(res.status.is_terminal());
    let ok = svc.submit(tiny_spec("healthy")).unwrap();
    assert_eq!(svc.wait(ok).unwrap().status, JobStatus::Succeeded);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_rejects_new_work() {
    let mut svc = RegistrationService::start(ServiceConfig::default().workers(2).queue_capacity(8));
    let ids: Vec<JobId> =
        (0..4).map(|i| svc.submit(tiny_spec(&format!("drain-{i}"))).unwrap()).collect();
    let results = svc.shutdown();
    assert_eq!(results.len(), ids.len(), "every admitted job must be drained");
    for res in &results {
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
    }
    // new work is rejected after shutdown
    assert!(matches!(svc.submit(tiny_spec("late")), Err(SubmitError::ShuttingDown)));
    assert!(matches!(svc.try_submit(tiny_spec("late-2")), Err(SubmitError::ShuttingDown)));
}

#[test]
fn per_job_report_records_queue_wait_and_latency() {
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let id = svc.submit(tiny_spec("observed").priority(Priority::High)).unwrap();
    let res = svc.wait(id).expect("job known");
    assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
    let run = res.run.expect("a succeeded job carries its report");
    assert_eq!(run.summary.data, "observed", "the row is named by the job's label");
    assert_eq!(run.scheduling.job_id, id.as_u64());
    assert_eq!(run.scheduling.priority, "high");
    assert!(run.scheduling.run_secs > 0.0);
    assert!(run.scheduling.total_secs >= run.scheduling.run_secs);
    assert!(
        (run.scheduling.total_secs - res.total.as_secs_f64()).abs() < 1e-9,
        "report and result must agree on end-to-end latency"
    );
    // the JSON document carries the scheduling block
    let json = run.to_json();
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
    let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let id = svc.submit(tiny_spec("served")).expect("admission");
    let served = svc.wait(id).expect("job known");
    assert_eq!(served.status, JobStatus::Succeeded, "{:?}", served.error);
    svc.shutdown();
    let served = served.run.expect("a succeeded job carries its report");

    // the same spec, solved directly through `Claire`
    let mut comm = Comm::solo();
    let prob = syn_problem([8, 8, 8], &mut comm);
    let (_, report) = Claire::new(tiny_config())
        .try_register_from(&prob.template, &prob.reference, "direct", &mut comm)
        .expect("direct solve");
    let direct = collect_run_report(report, &comm);

    assert_eq!((served.summary.data.as_str(), direct.summary.data.as_str()), ("served", "direct"));
    assert_reports_bitwise_equal(&served.summary, &direct.summary);
    // the served run document holds the row once, as its summary
    let doc = serde_json::from_str(&served.to_json()).expect("the run report parses");
    let serde::Value::Object(pairs) = &doc else { panic!("the run is a JSON object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, claire::obs::report::SCHEMA_KEYS);
}

#[test]
fn per_job_cancellation_on_a_sequential_worker() {
    // One worker. A blocker parks in its first GN boundary so three jobs
    // queue behind it; one of them cancels itself at its own iteration
    // boundary 1. That job alone ends `Cancelled`; the jobs before and
    // after it on the same worker complete with full reports of their own.
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let b = svc.submit(tiny_spec("blocker").hooks(parked_until(release_rx))).unwrap();

    let token = CancelToken::new();
    let trip = token.clone();
    let self_cancel = SolverHooks {
        cancel: Some(token),
        on_gn_iter: Some(Arc::new(move |k| {
            if k >= 1 {
                trip.cancel();
            }
        })),
    };
    let ok1 = svc.submit(tiny_spec("ok1")).unwrap();
    let quitter = svc.submit(tiny_spec("quitter").hooks(self_cancel)).unwrap();
    let ok2 = svc.submit(tiny_spec("ok2")).unwrap();
    release_tx.send(()).unwrap();

    assert_eq!(svc.wait(b).unwrap().status, JobStatus::Succeeded);
    let quit = svc.wait(quitter).unwrap();
    assert_eq!(quit.status, JobStatus::Cancelled, "{:?}", quit.error);
    let error = quit.error.unwrap();
    assert!(error.starts_with("Claire::register stopped early: cancelled"), "{error}");
    assert!(error.contains("after 1 Gauss-Newton"), "{error}");
    assert!(quit.run.is_none());

    for id in [ok1, ok2] {
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        let run = res.run.expect("a succeeded job keeps its report");
        assert!(run.summary.gn_iters >= 1, "{:?}", run.summary);
        assert!(run.memory.pool_checkouts > 0, "the job's own pool events");
    }
}

#[test]
fn panicking_run_fails_its_job_and_spares_the_one_behind_it() {
    // One worker. While the blocker parks, two jobs queue up; the first
    // one's observer panics inside its solve. The panic is caught and fails
    // that job alone — which still reports the time it spent queued — and
    // the bystander queued behind it on the same worker succeeds.
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let b = svc.submit(tiny_spec("blocker").hooks(parked_until(release_rx))).unwrap();
    let bomb_hooks =
        SolverHooks { cancel: None, on_gn_iter: Some(Arc::new(|_| panic!("observer exploded"))) };
    let bomb = svc.submit(tiny_spec("bomb").hooks(bomb_hooks)).unwrap();
    let bystander = svc.submit(tiny_spec("bystander")).unwrap();
    release_tx.send(()).unwrap();

    assert_eq!(svc.wait(b).unwrap().status, JobStatus::Succeeded);
    let res = svc.wait(bomb).unwrap();
    assert_eq!(res.status, JobStatus::Failed);
    let error = res.error.unwrap();
    assert!(error.contains("solver panicked: observer exploded"), "{error}");
    assert!(res.queue_wait > Duration::ZERO, "a failed job keeps its queue wait");
    assert!(res.total >= res.queue_wait + res.run_time);
    let res = svc.wait(bystander).unwrap();
    assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
}

#[test]
fn served_reports_carry_their_own_kernels_and_gn_trace() {
    // Two workers, each running one job at a time: a job's report holds
    // the kernel timers and GN records of its own solve, not its
    // predecessor's on the same worker. Equal jobs therefore report equal
    // kernel call counts.
    claire::obs::set_enabled(true);
    let mut svc = RegistrationService::start(ServiceConfig::default().workers(2));
    let ids: Vec<JobId> =
        (0..4).map(|i| svc.submit(tiny_spec(&format!("own-{i}"))).unwrap()).collect();
    let mut calls = Vec::new();
    for id in ids {
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        let run = res.run.expect("a succeeded job carries its report");
        assert_eq!(run.gn_trace.len(), run.summary.gn_iters, "{}", res.label);
        assert!(!run.kernels.is_empty(), "{}: no kernel timers", res.label);
        calls.push(run.kernels.iter().map(|k| (k.name.clone(), k.calls)).collect::<Vec<_>>());
    }
    svc.shutdown();
    assert!(calls.windows(2).all(|w| w[0] == w[1]), "{calls:?}");
}

#[test]
fn panicking_input_generation_fails_the_job_not_the_worker() {
    // Admission accepts any extent >= 2, but generating a synthetic pair
    // on a grid narrower than the FD8 halo panics. That must end as a
    // `Failed` job — not a dead worker and a job stuck `Running`.
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    for n in [[2, 2, 2], [3, 3, 3]] {
        let id =
            svc.submit(JobSpec::new("tiny", tiny_config(), JobInput::Synthetic { n })).unwrap();
        let res = svc.wait(id).unwrap();
        assert_eq!(res.status, JobStatus::Failed);
        let error = res.error.unwrap();
        assert!(error.contains("solver panicked: "), "{error}");
    }
    let after = svc.submit(tiny_spec("after")).unwrap();
    assert_eq!(svc.wait(after).unwrap().status, JobStatus::Succeeded);
}

#[test]
fn grid_the_preconditioner_cannot_coarsen_fails_typed_not_by_panic() {
    // 18³ is a fine grid for the transforms, but 2LInvH0's half-resolution
    // grid (9³) is not one the real FFT can take: the job must end `Failed`
    // with the validation message, without going through `catch_unwind`.
    let svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let cfg = RegistrationConfig { precond: PrecondKind::TwoLevelInvH0, ..tiny_config() };
    let id = svc.submit(JobSpec::new("18", cfg, JobInput::Synthetic { n: [18; 3] })).unwrap();
    let res = svc.wait(id).unwrap();
    assert_eq!(res.status, JobStatus::Failed);
    let error = res.error.unwrap();
    assert!(error.contains("n3 % 4 == 0") && !error.contains("panicked"), "{error}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random submit/cancel/shutdown interleavings: every accepted job
    /// reaches exactly one terminal state (none lost, none duplicated),
    /// ids are unique, and cancelled jobs are really terminal.
    #[test]
    fn no_job_lost_or_duplicated_across_interleavings(
        n_jobs in 1usize..5,
        workers in 1usize..3,
        cancel_mask in 0u32..16,
        graceful_bit in 0u32..2,
    ) {
        let graceful = graceful_bit == 1;
        let mut svc = RegistrationService::start(
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(n_jobs.max(1)),
        );
        let mut cfg = tiny_config();
        cfg.nt = 1;
        cfg.max_gn_iter = 1;
        let mut accepted = Vec::new();
        for j in 0..n_jobs {
            let spec = JobSpec::new(
                format!("prop-{j}"),
                cfg,
                JobInput::Synthetic { n: [8, 8, 8] },
            );
            let id = svc.submit(spec).unwrap();
            if cancel_mask & (1 << j) != 0 {
                svc.cancel(id); // may race the solve — both outcomes valid
            }
            accepted.push(id);
        }
        let results = if graceful { svc.shutdown() } else { svc.shutdown_now() };

        prop_assert_eq!(results.len(), accepted.len(), "a job was lost or duplicated");
        let mut ids: Vec<u64> = results.iter().map(|r| r.id.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), accepted.len(), "duplicate job ids in results");
        for res in &results {
            prop_assert!(res.status.is_terminal(), "non-terminal result {}", res.status);
            prop_assert!(
                matches!(res.status, JobStatus::Succeeded | JobStatus::Cancelled),
                "unexpected status {} ({:?})", res.status, res.error
            );
        }
        // after shutdown the service accepts nothing
        let late = JobSpec::new("late", cfg, JobInput::Synthetic { n: [8, 8, 8] });
        prop_assert!(matches!(svc.submit(late), Err(SubmitError::ShuttingDown)));
    }
}
