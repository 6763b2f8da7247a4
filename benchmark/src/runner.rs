//! The parent side of a run: spawn children one after another, check what
//! they report, and reduce it to the metrics of the catalogue.
//!
//! The parent only waits; children run sequentially, so the machine holds
//! one solve at a time.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::child::Mode;
use crate::sample::Sample;
use crate::stats::median;
use crate::workload::Workload;

/// Set-up samples a run collects at least (solves included): `setup_s` is
/// tens of milliseconds, so its median needs more samples than the two or
/// three solves give.
const SETUP_SAMPLES: usize = 9;

/// Environment variables that select a solver variant; removed from every
/// child so the benchmark measures the defaults.
const SOLVER_ENV: [&str; 5] =
    ["CLAIRE_THREADS", "CLAIRE_SIMD", "CLAIRE_PRECISION", "CLAIRE_IPC_EAGER", "CLAIRE_DRAM_PEAK"];

/// One run's result: the last line of standard output.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    /// One message per failed solve or violated check.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Resolved SIMD backend of the children; a label.
    pub backend: String,
}

impl RunResult {
    /// A solve that failed counts once, whatever else went wrong around it.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The contract's result object.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed())),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// A line of a `--out` result file: the result object plus what ran.
    pub fn to_record(&self) -> Value {
        let Value::Object(mut pairs) = self.to_value() else {
            unreachable!("to_value builds an object")
        };
        pairs.insert(0, ("workload".into(), Value::Str(self.workload.into())));
        pairs.insert(1, ("seed".into(), Value::UInt(self.seed)));
        pairs.insert(2, ("trace".into(), Value::UInt(self.traced as u64)));
        pairs.insert(3, ("backend".into(), Value::Str(self.backend.clone())));
        Value::Object(pairs)
    }
}

/// A child that has not ended by then (a solve takes under 15 s) is hung —
/// two ranks waiting for each other, say: it is killed and counts as failed,
/// so the run still ends inside the driver's 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(100);

/// Run one child to its end and parse the sample it prints last. The child
/// has ended, or has been killed and reaped, when this returns.
fn spawn(w: &Workload, seed: u64, mode: Mode) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child-mode", mode.label(), "--workload", w.name, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in SOLVER_ENV {
        cmd.env_remove(var);
    }
    let what = format!("{} child for `{}`", mode.label(), w.name);
    let mut child = cmd.spawn().map_err(|e| format!("cannot start {what}: {e}"))?;
    let started = Instant::now();
    // the child prints one short line, so the pipe never fills while we poll
    while child.try_wait().map_err(|e| format!("cannot wait for {what}: {e}"))?.is_none() {
        if started.elapsed() > CHILD_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{what} did not end within {CHILD_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().map_err(|e| format!("cannot read {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Sample::from_value(&serde_json::from_str(line).map_err(|e| e.to_string())?)
}

/// [`spawn`] a child that solves; a solve that failed is an error too.
fn solve(w: &Workload, seed: u64, mode: Mode) -> Result<Sample, String> {
    let sample = spawn(w, seed, mode)?;
    match sample.failure() {
        Some(why) => Err(why),
        None => Ok(sample),
    }
}

/// Every count two samples of one program share must be equal, and so must
/// the bits of `rel_mismatch`; the error names the first field that is not.
pub fn same_program(a: &Sample, b: &Sample, what: &str) -> Result<(), String> {
    if a.rel_mismatch.to_bits() != b.rel_mismatch.to_bits() {
        return Err(format!("{what}: rel_mismatch {:e} vs {:e}", a.rel_mismatch, b.rel_mismatch));
    }
    for (key, x) in &a.counts {
        match b.count(key) {
            Some(y) if y != *x => return Err(format!("{what}: {key} {x} vs {y}")),
            _ => {}
        }
    }
    Ok(())
}

/// Untraced run: cold solves one after another for `seconds`, then set-up
/// samples up to [`SETUP_SAMPLES`].
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> RunResult {
    let t0 = Instant::now();
    let mut failures = Vec::new();
    let mut solves: Vec<Sample> = Vec::new();
    let mut attempted = 0;
    loop {
        attempted += 1;
        // a failed solve contributes no timing
        match solve(w, seed, Mode::Solve) {
            Ok(s) => solves.push(s),
            Err(e) => failures.push(e),
        }
        if t0.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    for s in solves.iter().skip(1) {
        if let Err(e) = same_program(&solves[0], s, "solves of one run differ") {
            failures.push(e);
        }
    }
    let mut setups: Vec<f64> = solves.iter().map(|s| s.setup_s).collect();
    while !solves.is_empty() && setups.len() < SETUP_SAMPLES {
        match spawn(w, seed, Mode::SetupOnly) {
            Ok(s) => setups.push(s.setup_s),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }

    let of = |f: fn(&Sample) -> f64| solves.iter().map(f).collect::<Vec<f64>>();
    let values = [
        median(&of(|s| s.solve_s)),
        median(&setups),
        median(&of(|s| s.peak_rss_mb)),
        solves.first().map_or(f64::NAN, |s| s.rel_mismatch),
    ];
    RunResult {
        workload: w.name,
        seed,
        traced: false,
        attempted,
        failures,
        metrics: END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect(),
        backend: solves.first().map_or(String::new(), |s| s.backend.clone()),
    }
}

/// Traced run: one untraced solve, the traced pass, and — for the workloads
/// that are `reg` run another way — one `reg` solve to check them against.
pub fn traced(w: &Workload, seed: u64) -> RunResult {
    let reg = Workload::by_name("reg").expect("reg is in the catalogue");
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut child = |w: &Workload, mode: Mode| {
        attempted += 1;
        solve(w, seed, mode).map_err(|e| failures.push(e)).ok()
    };
    let plain = child(w, Mode::Solve);
    let traced = child(w, Mode::Traced);
    let reference =
        matches!(w.name, "reg_mixed" | "reg_2r").then(|| child(&reg, Mode::Solve)).flatten();

    let mut metrics = Vec::new();
    let mut backend = String::new();
    if let (Some(plain), Some(traced)) = (&plain, &traced) {
        // otherwise the trace describes a different program
        if let Err(e) = same_program(plain, traced, "traced pass differs from the untraced solve") {
            failures.push(e);
        }
        if let Some(reference) = &reference {
            if let Err(e) = cross_check(w, plain, reference) {
                failures.push(e);
            }
        }
        backend = traced.backend.clone();
        let gn_iters = plain.count("opt.gn_iters").unwrap_or(0) as f64;
        for m in PER_LAYER {
            let value = match m.name {
                "opt.gn_iter_us_per_point" => plain.solve_s * 1e6 / (w.points() as f64 * gn_iters),
                // reported, never gated: a solo speed-up lowers it. Of plain
                // wall-clock: both vCPUs are busy on `reg_2r`, which slows the
                // clock's kernel too, so scaled times would flatter it
                "mpi.strong_scaling_eff" => match &reference {
                    Some(r) if w.ranks > 1 => {
                        let wall = |s: &Sample| s.layer("bench.solve_wall_s").unwrap_or(f64::NAN);
                        wall(r) / (w.ranks as f64 * wall(plain))
                    }
                    _ => 0.0,
                },
                "bench.solve_wall_s" | "bench.host_slowdown" => {
                    plain.layer(m.name).unwrap_or(f64::NAN)
                }
                "trace.solve_s" => traced.solve_s,
                "trace.overhead_pct" => 100.0 * (traced.solve_s - plain.solve_s) / plain.solve_s,
                name => match (traced.layer(name), traced.count(name)) {
                    (Some(x), _) => x,
                    (None, Some(n)) => n as f64,
                    (None, None) => {
                        failures.push(format!("traced child did not report {name}"));
                        f64::NAN
                    }
                },
            };
            metrics.push((m.name, value, m.unit));
        }
    }
    RunResult { workload: w.name, seed, traced: true, attempted, failures, metrics, backend }
}

/// `reg_2r` must reproduce `reg` up to the order of its reductions (two
/// slab partials per sum instead of one: measured 2 ulp apart, with the same
/// iteration counts); `reg_mixed` must land within the documented mixed
/// tolerance of it.
fn cross_check(w: &Workload, sample: &Sample, reg: &Sample) -> Result<(), String> {
    let (got, want) = (sample.rel_mismatch, reg.rel_mismatch);
    let ok = match w.name {
        "reg_2r" => {
            (got - want).abs() <= 1e-9 * want
                && sample.count("opt.gn_iters") == reg.count("opt.gn_iters")
                && sample.count("opt.pcg_iters") == reg.count("opt.pcg_iters")
        }
        _ => (got - want).abs() <= 1e-3 * want + 1e-6,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}: rel_mismatch {got:e} does not agree with reg's {want:e}", w.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rel: f64, gn: u64) -> Sample {
        Sample {
            rel_mismatch: rel,
            jac_det_min: 0.5,
            counts: vec![("opt.gn_iters".into(), gn), ("mpi.ghost_bytes".into(), 0)],
            ..Default::default()
        }
    }

    #[test]
    fn same_program_names_the_field_that_differs() {
        let a = sample(0.03, 13);
        assert_eq!(same_program(&a, &a.clone(), "x"), Ok(()));
        assert!(same_program(&a, &sample(0.03, 14), "x")
            .unwrap_err()
            .contains("opt.gn_iters 13 vs 14"));
        let next_up = f64::from_bits(0.03f64.to_bits() + 1);
        assert!(same_program(&a, &sample(next_up, 13), "x").unwrap_err().contains("rel_mismatch"));
        // counts only one side reports (the traced pass's call counts) are not compared
        let mut t = a.clone();
        t.counts.push(("core.precond_calls".into(), 50));
        assert_eq!(same_program(&a, &t, "x"), Ok(()));
        assert_eq!(same_program(&t, &a, "x"), Ok(()));
    }

    #[test]
    fn cross_checks() {
        let by = |n| Workload::by_name(n).unwrap();
        let reg = sample(0.03, 13);
        assert!(cross_check(&by("reg_2r"), &sample(0.03 + 1e-17, 13), &reg).is_ok());
        assert!(cross_check(&by("reg_2r"), &sample(0.03 + 1e-9, 13), &reg).is_err());
        assert!(cross_check(&by("reg_2r"), &sample(0.03, 14), &reg).is_err());
        assert!(cross_check(&by("reg_mixed"), &sample(0.03 + 2e-5, 12), &reg).is_ok());
        assert!(cross_check(&by("reg_mixed"), &sample(0.031, 12), &reg).is_err());
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "reg",
            seed: 1,
            traced: false,
            attempted: 3,
            failures: vec!["a".into()],
            metrics: vec![("solve_s", 6.5, "s")],
            backend: "avx2".into(),
        };
        let text = serde_json::to_string(&r.to_value()).unwrap();
        assert_eq!(
            text,
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"solve_s":{"value":6.5,"unit":"s"}}}"#
        );
        assert!(serde_json::to_string(&r.to_record())
            .unwrap()
            .starts_with(r#"{"workload":"reg","seed":1,"trace":0,"#));
    }
}
