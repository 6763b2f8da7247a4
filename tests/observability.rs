//! End-to-end tests of the observability subsystem: RunReport JSON
//! round-trips, span-tree nesting invariants, and the disabled fast path.
//!
//! Spans, GN records and kernel timers are thread-local but the enable flag
//! is process-global, so every test that toggles collection serializes on
//! [`OBS_LOCK`].

use claire::obs::report::{KernelEntry, PhaseShares, RunReport, SCHEMA_KEYS};
use claire::obs::span::span;
use claire::prelude::*;
use serde::{Deserialize, Value};
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected object, got {other:?}"),
    }
}

/// The top-level keys of a report document, in order.
fn top_level_keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

fn populated_report() -> RunReport {
    let mut run = RunReport::new(RegistrationReport {
        data: "round-trip".to_string(),
        pc: "2LInvH0".to_string(),
        precision: "f64".to_string(),
        grid: [64, 32, 32],
        nranks: 4,
        nt: 8,
        gn_iters: 12,
        pcg_iters: 120,
        rel_mismatch: 2.79e-2,
        grad_rel: 3.2e-2,
        obj_evals: 15,
        hess_applies: 120,
        converged: true,
        n_inva: 2,
        n_invh0: 10,
        inner_cg_total: 110,
        inner_cg_avg: 11.0,
        time_pc: 1.0,
        time_obj: 0.5,
        time_grad: 0.75,
        time_hess: 2.0,
        time_total: 4.5,
        jac_det_min: 0.5,
        jac_det_max: 1.8,
        memory_bytes_per_rank: 1 << 20,
    });
    run.scheduling.job_id = 7;
    run.scheduling.priority = "high".to_string();
    run.scheduling.worker = 1;
    run.scheduling.queue_wait_secs = 0.25;
    run.scheduling.run_secs = 4.5;
    run.scheduling.total_secs = 4.75;
    run.scheduling.deadline_secs = 30.0;
    run.kernels = vec![
        KernelEntry { name: "fft_serial".into(), calls: 96, secs: 1.25 },
        KernelEntry { name: "interp".into(), calls: 48, secs: 2.0 },
    ];
    run.phases = PhaseShares::from_kernels(&run.kernels, 4.5);
    run
}

#[test]
fn run_report_json_round_trips() {
    let run = populated_report();
    let json = run.to_json();

    // parse back: the schema keys in order, values preserved
    let v = serde_json::from_str(&json).expect("RunReport JSON parses");
    assert_eq!(top_level_keys(&v), SCHEMA_KEYS);
    let summary = field(&v, "summary");
    assert_eq!(field(summary, "data"), &Value::Str("round-trip".into()));
    assert_eq!(field(summary, "nranks"), &Value::UInt(4));
    assert_eq!(field(summary, "gn_iters"), &Value::UInt(12));
    assert_eq!(field(summary, "converged"), &Value::Bool(true));
    assert_eq!(field(summary, "rel_mismatch"), &Value::Num(2.79e-2));
    let scheduling = field(&v, "scheduling");
    assert_eq!(field(scheduling, "job_id"), &Value::UInt(7));
    assert_eq!(field(scheduling, "priority"), &Value::Str("high".into()));
    assert_eq!(field(scheduling, "worker"), &Value::UInt(1));
    assert_eq!(field(scheduling, "queue_wait_secs"), &Value::Num(0.25));
    assert_eq!(field(scheduling, "total_secs"), &Value::Num(4.75));
    assert_eq!(field(scheduling, "deadline_secs"), &Value::Num(30.0));
    let grid = field(summary, "grid");
    assert_eq!(grid, &Value::Array(vec![Value::UInt(64), Value::UInt(32), Value::UInt(32)]));
    let back = RegistrationReport::from_value(summary).expect("the summary decodes");
    assert_eq!(back, run.summary);

    // render -> parse -> render is a fixed point (textual stability)
    let rendered = serde_json::to_string_pretty(&v).expect("re-render");
    assert_eq!(json, rendered);
}

#[test]
fn span_tree_nesting_invariants() {
    let _g = OBS_LOCK.lock().unwrap();
    claire::obs::begin();

    {
        let _root = span("solve");
        for _ in 0..3 {
            let _lvl = span("beta_level");
            let _it = span("gn.iter");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let spans = claire::obs::span::take_spans();
    claire::obs::set_enabled(false);

    // every enter was matched by an exit: the tree has one closed root
    assert_eq!(spans.len(), 1);
    let root = &spans[0];
    assert_eq!(root.name, "solve");
    assert_eq!(root.calls, 1);

    // repeated same-name spans aggregate into one node
    assert_eq!(root.children.len(), 1);
    let lvl = &root.children[0];
    assert_eq!((lvl.name.as_str(), lvl.calls), ("beta_level", 3));
    assert_eq!(lvl.children.len(), 1);
    assert_eq!((lvl.children[0].name.as_str(), lvl.children[0].calls), ("gn.iter", 3));

    // child time is contained in parent time, recursively
    fn check(node: &claire::obs::span::SpanNode) {
        let child_sum: f64 = node.children.iter().map(|c| c.secs).sum();
        assert!(
            child_sum <= node.secs + 1e-9,
            "children of {} ({child_sum:.9}s) exceed parent ({:.9}s)",
            node.name,
            node.secs
        );
        for c in &node.children {
            check(c);
        }
    }
    check(root);
}

#[test]
fn open_spans_survive_a_reset() {
    let _g = OBS_LOCK.lock().unwrap();
    claire::obs::begin();
    {
        let _outer = span("outer");
        claire::obs::reset(); // e.g. a second begin() while a guard is open
        let _inner = span("inner");
    } // both guards drop here; neither may panic or corrupt the tree
      // The guard stack is balanced again: a fresh span records as a root,
      // and the pre-reset / mid-reset spans were discarded rather than leaked.
    {
        let _s = span("fresh");
    }
    let spans = claire::obs::span::take_spans();
    claire::obs::set_enabled(false);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "fresh");
    assert_eq!(spans[0].calls, 1);
}

#[test]
fn disabled_metrics_are_inert_and_cheap() {
    let _g = OBS_LOCK.lock().unwrap();
    claire::obs::set_enabled(false);

    let t0 = std::time::Instant::now();
    const N: u64 = 10_000_000;
    for _ in 0..N {
        let _s = span("test.disabled_span");
    }
    let secs = t0.elapsed().as_secs_f64();

    // inert: the tracer never saw a span
    assert!(claire::obs::span::take_spans().is_empty());

    // cheap: 10M disabled spans are one relaxed load + branch each; even a
    // debug build does this in well under a second per million.
    assert!(secs < 10.0, "disabled instrumentation too slow: {secs:.3}s for {N} iterations");
}

#[test]
fn solver_run_emits_complete_report() {
    let _g = OBS_LOCK.lock().unwrap();
    let mut comm = Comm::solo();
    let prob = syn_problem([12, 12, 12], &mut comm);
    let cfg = RegistrationConfig::builder()
        .nt(2)
        .beta(1e-2)
        .continuation(false)
        .precond(PrecondKind::InvA)
        .max_gn_iter(2)
        .max_pcg_iter(5)
        .build()
        .unwrap();

    begin_observing();
    let mut solver = Claire::new(cfg);
    let (_, report) = solver.register_from(&prob.template, &prob.reference, "SYN", &mut comm);
    let run = collect_run_report(report, &comm);
    claire::obs::set_enabled(false);

    assert_eq!((run.summary.data.as_str(), run.summary.grid), ("SYN", [12, 12, 12]));
    assert!(run.spans.iter().any(|s| s.name == "solve"), "span tree must be rooted at solve");
    assert!(!run.gn_trace.is_empty(), "per-GN-iteration records expected");
    assert!(run.gn_trace.iter().all(|r| r.beta == 1e-2));
    assert!(!run.kernels.is_empty());
    assert!(run.phases.total_secs > 0.0);
    assert!(run.summary.obj_evals > run.summary.gn_iters, "every step is a line-search trial");
    assert!(run.summary.hess_applies > 0, "the Newton solves apply the Hessian");
    let json = run.to_json();
    let v = serde_json::from_str(&json).expect("emitted report parses");
    assert_eq!(top_level_keys(&v), SCHEMA_KEYS);
}

/// A single `claire-cli` run writes its Table 6 row once: inside the
/// `--report` RunReport when one is asked for, as `report.json` in the
/// output directory when not.
#[test]
fn single_run_writes_its_table6_row_once() {
    let dir = std::env::temp_dir().join(format!("claire-cli-row-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |out: &str, report: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_claire-cli"));
        cmd.args(["--syn", "8", "--max-gn", "1", "--max-pcg", "2", "--no-continuation", "-q"]);
        cmd.arg("-o").arg(dir.join(out));
        if let Some(report) = report {
            cmd.arg("--report").arg(dir.join(report));
        }
        let done = cmd.output().expect("spawn claire-cli");
        assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
    };
    let images = ["deformed_template.nii", "velocity_1.nii", "jacobian_det.nii"];

    run("plain", None);
    for file in images.iter().chain(&["report.json"]) {
        assert!(dir.join("plain").join(file).is_file(), "without --report: no {file}");
    }

    run("reported", Some("run.json"));
    for file in images {
        assert!(dir.join("reported").join(file).is_file(), "with --report: no {file}");
    }
    assert!(!dir.join("reported/report.json").exists(), "the row was written twice");
    let v = serde_json::from_str(&std::fs::read_to_string(dir.join("run.json")).unwrap())
        .expect("run report parses");
    assert_eq!(top_level_keys(&v), SCHEMA_KEYS);
    assert_eq!(field(field(&v, "summary"), "gn_iters"), &Value::UInt(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn served_span_tree_is_rooted_by_run_size() {
    // one batch job is one solve: its tree is rooted at `solve`, as a
    // direct `Claire` run's is
    let dir = std::env::temp_dir().join(format!("claire-cli-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.json");
    let job = r#"{"label": "alone", "syn": 8, "nt": 2, "continuation": false,
        "precond": "InvA", "max_gn_iter": 2, "max_pcg_iter": 4}"#;
    std::fs::write(&manifest, format!(r#"{{"jobs": [{job}]}}"#)).unwrap();
    let done = std::process::Command::new(env!("CARGO_BIN_EXE_claire-cli"))
        .arg("batch")
        .arg(&manifest)
        .arg("-o")
        .arg(dir.join("out"))
        .arg("-q")
        .output()
        .expect("spawn claire-cli");
    assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
    let report = std::fs::read_to_string(dir.join("out/alone.json")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let v = serde_json::from_str(&report).expect("the job's run report parses");
    let Value::Array(spans) = field(&v, "spans") else { panic!("spans is an array") };
    let roots: Vec<&Value> = spans.iter().map(|s| field(s, "name")).collect();
    assert_eq!(roots, [&Value::Str("solve".into())], "the tree covers the solve, not the input");
}

#[test]
fn builder_round_trips_through_prelude() {
    // the prelude exposes the whole front door: builder, error type, report
    let err: ClaireError = RegistrationConfig::builder().nt(0).build().unwrap_err();
    assert!(err.to_string().contains("nt"));
    let ok: ClaireResult<RegistrationConfig> = RegistrationConfig::builder().nt(4).build();
    assert_eq!(ok.unwrap().nt, 4);
}
