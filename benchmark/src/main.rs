//! The repository's performance ruler (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! claire-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! claire-benchmark --compare A.json B.json
//! claire-benchmark --benchmark-json > BENCHMARK.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced and the traced run are made. Each run prints its metrics by
//! name with unit and, last, one line of JSON.

mod calib;
mod catalogue;
mod child;
mod compare;
mod probes;
mod runner;
mod sample;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use child::Mode;
use runner::RunResult;
use workload::{Workload, WORKLOADS};

/// Where traces go: `out/` beside this package's manifest (git-ignored).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Print what `BENCHMARK.json` must hold (after a catalogue change).
    benchmark_json: bool,
    /// Set by the parent when it starts a child; not for users.
    child_mode: Option<Mode>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::by_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1 to 60, got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--compare" => parsed.compare = Some((value()?.into(), value()?.into())),
            "--benchmark-json" => parsed.benchmark_json = true,
            "--child-mode" => {
                let mode = value()?;
                parsed.child_mode =
                    Some(Mode::parse(mode).ok_or(format!("unknown child mode `{mode}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn print_run(r: &RunResult) {
    println!(
        "== {} seed {} {} (simd backend: {}) ==",
        r.workload,
        r.seed,
        if r.traced { "traced run: per-layer metrics" } else { "end-to-end metrics" },
        r.backend
    );
    for (name, value, unit) in &r.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("{:<36} {:>16} of {} attempted", "failed_solves", r.failed(), r.attempted);
    for f in &r.failures {
        eprintln!("FAILED {}: {f}", r.workload);
    }
    println!("{}", serde_json::to_string(&r.to_value()).expect("result renders"));
}

fn append_record(path: &Path, r: &RunResult) -> Result<(), String> {
    let line = serde_json::to_string(&r.to_record()).expect("record renders");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: Args, origin: Instant) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let read = |p: &PathBuf| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            compare::parse_records(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        let rows = compare::compare(&read(a)?, &read(b)?);
        compare::print(&rows);
        return Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regressed));
    }
    if args.benchmark_json {
        let text =
            serde_json::to_string_pretty(&catalogue::benchmark_json()).expect("catalogue renders");
        println!("{text}");
        return Ok(true);
    }
    let seed = args.seed.unwrap_or(workload::BASE_SEED);
    if let Some(mode) = args.child_mode {
        let w = args.workload.ok_or("a child needs --workload")?;
        let sample = child::run(w, seed, mode, origin);
        println!("{}", serde_json::to_string(&sample.to_value()).expect("sample renders"));
        return Ok(true);
    }

    let seconds = args.seconds.unwrap_or(catalogue::RUN_SECONDS);
    let workloads = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let passes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    for w in &workloads {
        for &traced in &passes {
            let result =
                if traced { runner::traced(w, seed) } else { runner::end_to_end(w, seed, seconds) };
            if let Some(path) = &args.out {
                append_record(path, &result)?;
            }
            print_run(&result);
            all_correct &= result.failures.is_empty();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(a, origin)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("claire-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
