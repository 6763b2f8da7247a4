//! Batched-registration bench: pairs/sec for K-pair `BatchSolver` runs vs
//! the sequential process-per-job baseline.
//!
//! Emits `BENCH_batch.json` in the repo root (or the path given as the
//! first CLI argument). The quantity of interest is *amortization*: a
//! sequential service that launches one solver process per registration
//! pays process startup, FFT planning, workspace-pool warm-up, and
//! preconditioner scaffolding for every pair, while a K-pair batch pays
//! them once. Both sides are therefore measured the same way — the parent
//! spawns this binary in `--worker` mode and times the child's wall clock:
//!
//!   seq_cold:  8 child processes, one pair each (sum of wall clocks)
//!   batch_kN:  1 child process running a K-pair `BatchSolver`
//!
//! Rows: threads pinned to 1, fixed smoke grid, best-of-7 wall clocks,
//! K ∈ {1, 4, 8}, once per SIMD backend. The headline `speedup_k8_vs_seq`
//! — batch pairs/sec at K=8 over the sequential process-per-pair rate — is
//! recorded per backend.

use std::process::Command;
use std::time::Instant;

use claire_core::{BatchPair, BatchSolver, Claire, PrecondKind, RegistrationConfig};
use claire_grid::{Grid, Layout, Real, ScalarField};
use claire_mpi::Comm;
use claire_par::set_threads;
use serde::Serialize;

/// Smoke grid: small enough that per-pair setup is a visible fraction of
/// the solve, the regime batching is for (high-throughput small jobs).
const SMOKE_N: usize = 8;

#[derive(Serialize)]
struct BatchRow {
    kernel: String,
    n: usize,
    threads: usize,
    backend: String,
    /// Pairs solved per run (K).
    pairs: usize,
    /// Registration pairs completed per second (best of 3 runs).
    pairs_per_sec: f64,
    total_ms: f64,
}

#[derive(Serialize)]
struct SpeedupRow {
    backend: String,
    /// pairs/sec at K=8 (one batch process) over the process-per-pair rate.
    speedup_k8_vs_seq: f64,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    smoke_grid: usize,
    /// Wall clock of a no-op `--worker` child: the pure process-launch cost
    /// every sequential job pays before any solver work (best of 3).
    proc_spawn_ms: f64,
    results: Vec<BatchRow>,
    speedups: Vec<SpeedupRow>,
}

/// Pinned smoke config: few, fixed iterations (`grad_rtol` unreachable) so
/// every pair runs the same work and setup is a visible fraction of it.
fn config() -> RegistrationConfig {
    RegistrationConfig {
        nt: 1,
        precond: PrecondKind::InvA,
        continuation: false,
        grid_continuation: false,
        beta_target: 1e-2,
        max_gn_iter: 1,
        max_pcg_iter: 1,
        grad_rtol: 1e-14,
        verbose: false,
        ..Default::default()
    }
}

fn blob_pair(layout: Layout, shift: Real) -> (ScalarField, ScalarField) {
    let blob = move |cx: Real| {
        move |x: Real, y: Real, z: Real| {
            let d2 = (x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2);
            (-d2 / 1.2).exp()
        }
    };
    (ScalarField::from_fn(layout, blob(3.0)), ScalarField::from_fn(layout, blob(3.0 + shift)))
}

fn shift(i: usize) -> Real {
    0.5 - 0.03 * i as Real
}

/// Child-process entry: solve one pair (`seq`) or a K-pair batch (`batch`),
/// then exit. The parent times the whole process, so startup, planning, and
/// pool warm-up are all on the clock — exactly what a process-per-job
/// deployment pays.
fn run_worker(mode: &str, backend: &str, k: usize) {
    set_threads(1);
    let choice = match backend {
        "scalar" => claire_simd::Choice::Scalar,
        _ => claire_simd::Choice::Auto,
    };
    claire_simd::force_backend(Some(choice));
    let layout = Layout::serial(Grid::cube(SMOKE_N));
    match mode {
        "noop" => {}
        "seq" => {
            // One pair per process; `k` selects which pair of the batch
            // workload this process handles.
            let (m0, m1) = blob_pair(layout, shift(k));
            let mut comm = Comm::solo();
            let _ = Claire::new(config()).register(&m0, &m1, &mut comm);
        }
        "batch" => {
            let pairs: Vec<BatchPair> = (0..k)
                .map(|i| {
                    let (m0, m1) = blob_pair(layout, shift(i));
                    BatchPair::new(format!("p{i}"), m0, m1)
                })
                .collect();
            let outcome = BatchSolver::new(config()).solve(pairs).expect("valid batch");
            assert!(outcome.items.iter().all(|i| i.outcome.is_ok()), "batch member failed");
        }
        other => panic!("unknown worker mode {other}"),
    }
}

/// Spawn one `--worker` child and return its wall-clock seconds.
fn spawn_worker(mode: &str, backend: &str, k: usize) -> f64 {
    let exe = std::env::current_exe().expect("current_exe");
    let t0 = Instant::now();
    let status = Command::new(exe)
        .args(["--worker", mode, backend, &k.to_string()])
        .status()
        .expect("spawn bench_batch worker");
    let secs = t0.elapsed().as_secs_f64();
    assert!(status.success(), "worker {mode} k={k} failed: {status}");
    secs
}

/// All phases for one backend, interleaved: each rep measures the 8-child
/// sequential baseline and every batch size back to back, so a noisy
/// window on the host degrades all phases of that rep alike instead of
/// biasing whichever phase happened to run during it. Best-of-7 per phase.
/// Returns (seq_total, batch_k1, batch_k4, batch_k8) seconds.
fn bench_all(backend: &str) -> (f64, [f64; 3]) {
    let mut seq_best = f64::INFINITY;
    let mut batch_best = [f64::INFINITY; 3];
    for _ in 0..7 {
        let total: f64 = (0..8).map(|i| spawn_worker("seq", backend, i)).sum();
        seq_best = seq_best.min(total);
        for (slot, k) in [1usize, 4, 8].into_iter().enumerate() {
            batch_best[slot] = batch_best[slot].min(spawn_worker("batch", backend, k));
        }
    }
    (seq_best, batch_best)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--worker") {
        run_worker(&args[2], &args[3], args[4].parse().expect("worker k"));
        return;
    }
    let out_path = args.get(1).cloned().unwrap_or_else(|| "BENCH_batch.json".into());

    let n = SMOKE_N;
    let mut spawn_ms = f64::INFINITY;
    for _ in 0..7 {
        spawn_ms = spawn_ms.min(spawn_worker("noop", "scalar", 0) * 1e3);
    }
    eprintln!("bench_batch: worker process launch costs {spawn_ms:.1} ms");

    let mut results = Vec::new();
    let mut speedups = Vec::new();
    for backend in ["scalar", "auto"] {
        eprintln!("bench_batch: {n}^3, process-per-pair baseline, backend={backend}...");
        // the same 8-pair workload as batch_k8, one process per pair: long
        // enough a measurement that scheduler noise averages out
        let (seq_secs, batch_secs) = bench_all(backend);
        let seq_rate = 8.0 / seq_secs;
        eprintln!("bench_batch:   seq_cold {seq_rate:.2} pairs/s");
        results.push(BatchRow {
            kernel: "seq_cold".into(),
            n,
            threads: 1,
            backend: backend.into(),
            pairs: 8,
            pairs_per_sec: seq_rate,
            total_ms: seq_secs * 1e3,
        });

        let mut k8_rate = 0.0;
        for (slot, k) in [1usize, 4, 8].into_iter().enumerate() {
            let secs = batch_secs[slot];
            let rate = k as f64 / secs;
            eprintln!("bench_batch:   batch_k{k} {rate:.2} pairs/s");
            if k == 8 {
                k8_rate = rate;
            }
            results.push(BatchRow {
                kernel: format!("batch_k{k}"),
                n,
                threads: 1,
                backend: backend.into(),
                pairs: k,
                pairs_per_sec: rate,
                total_ms: secs * 1e3,
            });
        }

        let speedup = k8_rate / seq_rate;
        eprintln!("bench_batch: backend={backend}: K=8 batch is {speedup:.2}x the sequential rate");
        if speedup < 1.5 {
            eprintln!("bench_batch: WARNING: speedup below the 1.5x amortization target");
        }
        speedups.push(SpeedupRow { backend: backend.into(), speedup_k8_vs_seq: speedup });
    }

    let report = Report { threads: 1, smoke_grid: n, proc_spawn_ms: spawn_ms, results, speedups };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_batch.json");
    eprintln!("wrote {out_path}");
}
