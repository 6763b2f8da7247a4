//! Solver bench smoke-run: ns/grid-point and heap allocations per
//! steady-state Gauss–Newton iteration.
//!
//! Emits `BENCH_solver.json` in the repo root (or the path given as the
//! first CLI argument). Complements `bench_kernels` (isolated kernels) by
//! timing whole Gauss–Newton iterations of the end-to-end solver, with a
//! counting global allocator sampled at iteration boundaries — the number
//! the workspace-pool + plan-cache work drives to zero.
//!
//! Configuration is pinned for cross-host comparability: 1 thread
//! (claire-par serial fallback), 32³ and 48³ grids, nt = 2, InvA, no
//! continuation, once per requested SIMD backend (`scalar` and `auto`).
//! A warm-up solve fills the pools and plan caches before the measured
//! solve, so the reported rows describe the steady state.
//! The GN iteration includes the fused PCG field-op chains, so its
//! `ns_per_point` row shows the fusion work end to end, and its
//! `allocs_per_iter` field shows the fused loop stayed allocation-free.
//!
//! Each configuration runs at both precisions (`gn_iteration` /
//! `gn_iteration_mixed`), and a `pcg_h0` / `pcg_h0_mixed` row pair times a
//! fixed-iteration inner PCG on the zero-velocity Hessian at 64³ and 96³
//! — both widths on the identical schedule — so the row pair shows the
//! mixed-precision speedup of the PCG-dominated phase.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use claire_core::precond::inv_h0;
use claire_core::{Claire, Precision, PrecondKind, RegistrationConfig, SolverHooks};
use claire_diff::SpectralT;
use claire_fft::FftElem;
use claire_grid::{Grid, Layout, Real, ScalarField, VectorField, VectorFieldT, WsCat};
use claire_mpi::Comm;
use claire_opt::PcgConfig;
use claire_par::alloc_counter::{allocation_count, CountingAlloc};
use claire_par::set_threads;
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[derive(Serialize)]
struct SolverRow {
    kernel: String,
    n: usize,
    threads: usize,
    backend: String,
    nt: usize,
    gn_iters: usize,
    /// Mean wall-clock ns per grid point per steady-state GN iteration
    /// (first iteration excluded — it warms per-solve state).
    ns_per_point: f64,
    total_ms: f64,
    /// Heap allocations per steady-state GN iteration (max over the
    /// measured tail; 0 = the pool/plan-cache hot path holds).
    allocs_per_iter: u64,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    results: Vec<SolverRow>,
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

fn bench_grid(n: usize, backend: &str, precision: Precision) -> SolverRow {
    let nt = 2;
    let cfg = RegistrationConfig {
        nt,
        precond: PrecondKind::InvA,
        continuation: false,
        grid_continuation: false,
        beta_target: 1e-2,
        max_gn_iter: 6,
        max_pcg_iter: 5,
        grad_rtol: 1e-14, // run all iterations; this measures cost, not fit
        precision,
        verbose: false,
        ..Default::default()
    };
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));
    let (m0, m1) = blob_pair(layout, 0.5);

    // warm-up: fill workspace pools and FFT plan caches
    let _ = Claire::new(cfg).register(&m0, &m1, &mut comm);

    // measured solve: sample wall clock + allocation counter per boundary
    let samples: Arc<Mutex<Vec<(Instant, u64)>>> = Arc::new(Mutex::new(Vec::with_capacity(64)));
    let sink = samples.clone();
    let hooks = SolverHooks {
        cancel: None,
        on_gn_iter: Some(Arc::new(move |_| {
            sink.lock().unwrap().push((Instant::now(), allocation_count()));
        })),
    };
    let t0 = Instant::now();
    let (_, report) = Claire::with_hooks(cfg, hooks).register(&m0, &m1, &mut comm);
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;

    let s = samples.lock().unwrap();
    assert!(s.len() >= 3, "expected several GN boundaries, got {}", s.len());
    // skip the first gap (per-solve warm-up) when averaging
    let gaps: Vec<(f64, u64)> = s
        .windows(2)
        .skip(1)
        .map(|w| ((w[1].0 - w[0].0).as_nanos() as f64, w[1].1 - w[0].1))
        .collect();
    let points = (n * n * n) as f64;
    let ns_per_point = gaps.iter().map(|g| g.0).sum::<f64>() / (gaps.len() as f64 * points);
    let allocs_per_iter = gaps.iter().map(|g| g.1).max().unwrap_or(0);

    SolverRow {
        kernel: match precision {
            Precision::F64 => "gn_iteration".to_string(),
            Precision::Mixed => "gn_iteration_mixed".to_string(),
        },
        n,
        threads: 1,
        backend: backend.to_string(),
        nt,
        gn_iters: report.gn_iters,
        ns_per_point,
        total_ms,
        allocs_per_iter,
    }
}

/// ns per grid point per inner-PCG iteration of the shipped `InvH0`
/// application (`claire_core::precond::inv_h0`: the zero-velocity Hessian
/// `H0 = βA + ∇m̄ ⊗ ∇m̄` solved on spectra with the `(βA)⁻¹` left
/// preconditioner — the part of a Gauss-Newton iteration the mixed-precision
/// seam runs at f32) at element width `T`, pinned to a fixed iteration count
/// (`tol_rel = 0`) so both widths run the identical schedule. The 12
/// transforms around the iteration are in the row, as they are in the solver.
fn bench_pcg_h0<T: FftElem>(n: usize, backend: &str, kernel: &str) -> SolverRow {
    let layout = Layout::serial(Grid::cube(n));
    let mut comm = Comm::solo();
    let spectral = SpectralT::<T>::new(layout.grid, &comm);
    let grad64 = VectorField::from_fns(
        layout,
        |x, y, _| (x - 3.0) * (-(x - 3.0) * (x - 3.0) - (y - 3.0) * (y - 3.0)).exp(),
        |_, y, z| (y - 3.0) * (-(y - 3.0) * (y - 3.0) - (z - 3.0) * (z - 3.0)).exp(),
        |x, _, z| (z - 3.0) * (-(z - 3.0) * (z - 3.0) - (x - 3.0) * (x - 3.0)).exp(),
    );
    let rhs64 = VectorField::from_fns(
        layout,
        |x, y, z| (x + 0.5 * y).sin() * z.cos(),
        |x, y, z| (y + 0.5 * z).sin() * x.cos(),
        |x, y, z| (z + 0.5 * x).sin() * y.cos(),
    );
    let grad: VectorFieldT<T> = grad64.converted(WsCat::Other);
    let rhs: VectorFieldT<T> = rhs64.converted(WsCat::Other);
    let iters = 12usize;
    let cfg = PcgConfig { tol_rel: 0.0, max_iter: iters, trace: false };

    // warm-up: plan the FFTs, fill the width's workspace pools
    let solve = |comm: &mut Comm| inv_h0(&spectral, &grad, 1e-2, &rhs, &cfg, comm);
    let _ = solve(&mut comm);

    let reps = 3usize;
    let mut best = std::time::Duration::MAX;
    let mut allocs = u64::MAX;
    let mut done = 0usize;
    for _ in 0..3 {
        let a0 = allocation_count();
        let t0 = Instant::now();
        for _ in 0..reps {
            let (_, res) = solve(&mut comm);
            done = res.iters;
        }
        best = best.min(t0.elapsed());
        allocs = allocs.min(allocation_count() - a0);
    }
    assert_eq!(done, iters, "fixed-iteration PCG must run the pinned schedule");
    let points = (n * n * n) as f64;
    SolverRow {
        kernel: kernel.to_string(),
        n,
        threads: 1,
        backend: backend.to_string(),
        nt: 0,
        gn_iters: iters,
        ns_per_point: best.as_nanos() as f64 / (reps as f64 * iters as f64 * points),
        total_ms: best.as_secs_f64() * 1e3,
        allocs_per_iter: allocs / (reps as u64 * iters as u64),
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_solver.json".into());
    set_threads(1); // pinned: serial fallback, deterministic row set

    let mut results = Vec::new();
    for (choice, backend) in
        [(claire_simd::Choice::Scalar, "scalar"), (claire_simd::Choice::Auto, "auto")]
    {
        claire_simd::force_backend(Some(choice));
        for n in [32usize, 48] {
            for precision in [Precision::F64, Precision::Mixed] {
                eprintln!(
                    "bench_solver: {n}^3, 1 thread, backend={backend}, {}...",
                    precision.label()
                );
                let row = bench_grid(n, backend, precision);
                eprintln!(
                    "bench_solver:   {:.1} ns/pt per GN iter, {} alloc(s)/iter over {} iters",
                    row.ns_per_point, row.allocs_per_iter, row.gn_iters
                );
                results.push(row);
            }
        }
        // the PCG-dominated phase in isolation: identical fixed-iteration
        // inner solves at f64 and f32 widths. Larger grids than the GN rows:
        // the mixed win is halved memory traffic, which only shows once the
        // working set leaves the last-level cache.
        for n in [64usize, 96] {
            let r64 = bench_pcg_h0::<f64>(n, backend, "pcg_h0");
            let r32 = bench_pcg_h0::<f32>(n, backend, "pcg_h0_mixed");
            eprintln!(
                "bench_solver:   pcg_h0 {n}^3 {:.1} ns/pt vs mixed {:.1} ns/pt ({:.2}x)",
                r64.ns_per_point,
                r32.ns_per_point,
                r64.ns_per_point / r32.ns_per_point
            );
            results.push(r64);
            results.push(r32);
        }
    }
    claire_simd::force_backend(None); // back to env-based resolution
    set_threads(0); // restore default resolution

    let report = Report { threads: 1, results };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_solver.json");
    eprintln!("wrote {out_path}");
}
