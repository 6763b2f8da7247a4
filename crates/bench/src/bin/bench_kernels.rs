//! Kernel bench smoke-run: per-kernel ns/grid-point, threads 1 vs. 8,
//! per SIMD backend.
//!
//! Emits `BENCH_kernels.json` in the repo root (or the path given as the
//! first CLI argument). Measures the three computational kernels of the
//! paper (§3) — 8th-order FD gradient, 3D FFT round-trip (whole, per pass at
//! both widths, and three components at once), cubic Lagrange
//! interpolation (one-shot, and split into plan build and planned scalar /
//! 3-vector evaluation) — plus an axpy stream op, at 64³ and 128³, once with the
//! parallel layer pinned to 1 thread and once at a fixed 8 threads. When 8
//! exceeds the host's concurrency the row is flagged `oversubscribed` (the
//! parallel path is still exercised).
//!
//! Every kernel is measured once per *requested* SIMD backend: `scalar`
//! (the reference loops) and `auto` (runtime feature detection — AVX2+FMA
//! where the host has it). Rows are tagged with the requested name, not
//! the resolved one; the scalar pass only emits the threads==1 rows.
//!
//! `axpy_norm_fused` / `axpy_norm_unfused` time the PCG residual-update
//! chain (`r += αq` then `‖r‖²`) as one fused pass vs. the separate
//! update + reduction — the measured gap is the §3 traffic reduction the
//! fused field ops exist for.
//!
//! The rows are printed, not gated: a performance claim is made with paired
//! runs through `BENCHMARK.json`, and these rows say which layer moved.

use std::time::Instant;

use claire_diff::fd::{self, FdScratch};
use claire_fft::{cache, pass, Cpx, CpxT, DistFft, Fft3, FftElem};
use claire_grid::{Grid, Layout, Real, ScalarField, VectorField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::{run_cluster, AlltoallMethod, Comm, CommCat, Topology};
use claire_par::{set_threads, timing};
use claire_simd::{Elem, HaloDims, Stencil};
use serde::Serialize;

#[derive(Serialize)]
struct BenchRow {
    kernel: String,
    n: usize,
    threads: usize,
    backend: String,
    oversubscribed: bool,
    reps: usize,
    total_ms: f64,
    ns_per_point: f64,
}

#[derive(Serialize)]
struct CounterRow {
    name: String,
    calls: u64,
    total_ms: f64,
}

#[derive(Serialize)]
struct Report {
    host_threads: usize,
    grids: Vec<usize>,
    results: Vec<BenchRow>,
    timing_counters: Vec<CounterRow>,
}

fn test_field(n: usize) -> ScalarField {
    ScalarField::from_fn(Layout::serial(Grid::cube(n)), |x, y, z| {
        (x + 0.3 * y).sin() * (2.0 * z).cos() + (z - 0.1 * x).sin()
    })
}

/// Time `reps` runs of `f` and convert to a result row.
///
/// Reports the fastest of five timed batches: the minimum is far less
/// sensitive to scheduler noise than a single batch, which matters because
/// the sub-ns/pt kernels (axpy) finish in ~100µs per batch.
fn measure(
    kernel: &str,
    n: usize,
    threads: usize,
    oversubscribed: bool,
    reps: usize,
    mut f: impl FnMut(),
) -> BenchRow {
    f(); // warm-up (first-touch, plan setup inside closures is hoisted out)
    let mut total = std::time::Duration::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        total = total.min(t0.elapsed());
    }
    let points = (n * n * n * reps) as f64;
    BenchRow {
        kernel: kernel.to_string(),
        n,
        threads,
        backend: String::new(), // filled in by bench_at
        oversubscribed,
        reps,
        total_ms: total.as_secs_f64() * 1e3,
        ns_per_point: total.as_nanos() as f64 / points,
    }
}

/// The three passes of the 3-D transform at `n`³, each forward + inverse
/// on its own (`fft_pass_x3`: real rows; `fft_pass_x2`: down every
/// `[n][n3c]` plane; `fft_pass_x1`: down the whole slab), so an FFT change
/// can see which pass it moved. `suffix` tags the element width.
fn bench_fft_passes<T: FftElem>(
    n: usize,
    threads: usize,
    oversubscribed: bool,
    suffix: &str,
    mut push: impl FnMut(BenchRow),
) {
    let reps = if n >= 128 { 2 } else { 5 };
    let n3c = n / 2 + 1;
    let (rows, lines) = (cache::real_fft1d_t::<T>(n), cache::fft1d_t::<T>(n));
    let mut real: Vec<T> = test_field(n).data().iter().map(|&v| T::from_f64(v)).collect();
    let mut spec = vec![CpxT::<T>::ZERO; n * n * n3c];
    push(measure(&format!("fft_pass_x3{suffix}"), n, threads, oversubscribed, reps, || {
        pass::rows_forward(&rows, &real, &mut spec);
        pass::rows_inverse(&rows, &spec, &mut real);
    }));
    for (name, stride) in [("fft_pass_x2", n3c), ("fft_pass_x1", n * n3c)] {
        push(measure(&format!("{name}{suffix}"), n, threads, oversubscribed, reps, || {
            pass::cols(&lines, false, &mut spec, stride);
            pass::cols(&lines, true, &mut spec, stride);
        }));
    }
}

fn bench_at(
    n: usize,
    threads: usize,
    oversubscribed: bool,
    backend: &str,
    out: &mut Vec<BenchRow>,
) {
    let mut push = |mut r: BenchRow| {
        r.backend = backend.to_string();
        out.push(r);
    };
    set_threads(threads);
    let reps = if n >= 128 { 2 } else { 5 };
    let f = test_field(n);
    let grid = f.layout().grid;

    // FD8 gradient (allocation-free variant, scratch reused across reps)
    {
        let mut comm = Comm::solo();
        let mut g = VectorField::zeros(*f.layout());
        let mut scratch = FdScratch::new();
        push(measure("fd_gradient", n, threads, oversubscribed, reps, || {
            fd::gradient_into(&f, &mut comm, &mut g, &mut scratch);
        }));
    }

    // serial 3D FFT round-trip (the single-rank cuFFT path)
    {
        let plan = Fft3::new(grid);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        let mut back = vec![0.0 as Real; grid.len()];
        push(measure("fft_roundtrip", n, threads, oversubscribed, reps, || {
            plan.forward(f.data(), &mut spec);
            plan.inverse(&mut spec, &mut back);
        }));
    }

    bench_fft_passes::<Real>(n, threads, oversubscribed, "", &mut push);

    // three components through the plan's multi-field entry (what every
    // vector operator calls), on one rank
    {
        let mut comm = Comm::solo();
        let dfft = DistFft::new(grid, &comm);
        push(measure("fft_roundtrip_vec3", n, threads, oversubscribed, reps, || {
            let specs = dfft.forward_many([&f, &f, &f], &mut comm);
            std::hint::black_box(dfft.inverse_many(specs, &mut comm));
        }));
    }

    // cubic Lagrange interpolation, one off-grid query per grid point:
    // the one-shot call (plan build + evaluation + output allocation), then
    // the two halves the solver actually pays — one plan build per
    // characteristic family, one planned evaluation per time step — for a
    // scalar and for a 3-vector (three fields against shared taps)
    {
        let h = grid.spacing();
        let queries: Vec<[Real; 3]> = claire_semilag::traj::grid_points(f.layout())
            .into_iter()
            .map(|p| [p[0] + 0.37 * h[0], p[1] - 0.21 * h[1], p[2] + 0.11 * h[2]])
            .collect();
        let mut comm = Comm::solo();
        let mut ip = Interpolator::new(IpOrder::Cubic);
        push(measure("interp_cubic", n, threads, oversubscribed, reps, || {
            std::hint::black_box(ip.interp(&f, &queries, &mut comm));
        }));
        push(measure("interp_plan_build", n, threads, oversubscribed, reps, || {
            std::hint::black_box(ip.plan(*f.layout(), &queries, &mut comm));
        }));
        let plan = ip.plan(*f.layout(), &queries, &mut comm);
        let mut vals = vec![0.0 as Real; queries.len()];
        push(measure("interp_planned", n, threads, oversubscribed, reps, || {
            ip.evaluate(&plan, &[&f], &mut comm, &mut [&mut vals]);
        }));
        let v = VectorField { c: [f.clone(), test_field(n), f.clone()] };
        let mut vals3 = vec![[0.0 as Real; 3]; queries.len()];
        push(measure("interp_planned_vec3", n, threads, oversubscribed, reps, || {
            ip.evaluate_vector(&plan, &v, &mut comm, &mut vals3);
        }));
    }

    // axpy stream op (memory-bandwidth bound)
    {
        let g = test_field(n);
        let mut a = f.clone();
        push(measure("axpy", n, threads, oversubscribed, reps * 4, || {
            a.axpy(1.0000001, &g);
        }));
    }

    // PCG residual-update chain, unfused (update pass + reduction pass)
    // vs. fused (one pass). Both rows stream the same fields with the
    // same arithmetic; the delta is pure DRAM traffic.
    {
        let g = test_field(n);
        let mut a = f.clone();
        push(measure("axpy_norm_unfused", n, threads, oversubscribed, reps * 4, || {
            a.axpy(1.0000001, &g);
            std::hint::black_box(a.dot_local(&a));
        }));
        let mut a = f.clone();
        push(measure("axpy_norm_fused", n, threads, oversubscribed, reps * 4, || {
            std::hint::black_box(a.axpy_dot_local(1.0000001, &g));
        }));
    }

    // distributed FFT round-trip on a 2-rank virtual cluster (slab
    // decomposition + alltoallv transpose; wall time includes the
    // in-process channel traffic both ranks generate)
    {
        let row = run_cluster(Topology::new(2, 2), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, |x, y, z| {
                (x + 0.3 * y).sin() * (2.0 * z).cos() + (z - 0.1 * x).sin()
            });
            let dfft = DistFft::new(grid, comm);
            measure("fft_dist_roundtrip_p2", n, threads, oversubscribed, reps, || {
                let spec = dfft.forward(&f, comm);
                std::hint::black_box(dfft.inverse(spec, comm));
            })
        })
        .outputs
        .remove(0);
        push(row);
    }
}

/// f32 arms of the three §3 compute kernels plus the fused PCG stream op,
/// at the same loop structure as their f64 counterparts — the element
/// width is the only variable, so the f64-row / `_f32`-row gap is the
/// mixed-precision traffic reduction (~2× on bandwidth-bound kernels).
/// Rows are threads==1 only.
fn bench_f32_at(n: usize, backend: &str, out: &mut Vec<BenchRow>) {
    set_threads(1);
    let reps = if n >= 128 { 2 } else { 5 };
    let grid = Grid::cube(n);
    let h = grid.spacing()[0];
    let src: Vec<f32> = test_field(n).data().iter().map(|&v| v as f32).collect();
    let mut push = |mut r: BenchRow| {
        r.backend = backend.to_string();
        out.push(r);
    };

    bench_fft_passes::<f32>(n, 1, false, "_f32", &mut push);

    // FD8 gradient: three stencil sweeps (one per dim) over an f32 field,
    // expressed as the same contiguous-x3-row combines as claire-diff's
    // sweeps — periodic neighbour rows for x1/x2, shifted views for x3.
    {
        let c: [f32; 4] = claire_diff::fd::FD8.map(|v| v as f32);
        let inv_h = (1.0 / h) as f32;
        let mut g = vec![0.0f32; n * n * n];
        let row = |p: usize, j: usize| p * n * n + j * n;
        push(measure("fd_gradient_f32", n, 1, false, reps, || {
            for dim in 0..3usize {
                match dim {
                    0 | 1 => {
                        for i in 0..n {
                            for j in 0..n {
                                let neigh = |m: usize, up: bool| {
                                    let d = m + 1;
                                    let (pi, pj) = match (dim, up) {
                                        (0, true) => ((i + d) % n, j),
                                        (0, false) => ((i + n - d) % n, j),
                                        (1, true) => (i, (j + d) % n),
                                        _ => (i, (j + n - d) % n),
                                    };
                                    let b = row(pi, pj);
                                    &src[b..b + n]
                                };
                                let plus = std::array::from_fn(|m| neigh(m, true));
                                let minus = std::array::from_fn(|m| neigh(m, false));
                                let b = row(i, j);
                                f32::kfd8_combine_scale(
                                    &mut g[b..b + n],
                                    &plus,
                                    &minus,
                                    &c,
                                    inv_h,
                                    1.0,
                                );
                            }
                        }
                    }
                    _ => {
                        for r in 0..n * n {
                            let sr = &src[r * n..(r + 1) * n];
                            let o = &mut g[r * n..(r + 1) * n];
                            for k in (0..4).chain(n - 4..n) {
                                let mut acc = 0.0f32;
                                for (m, &cm) in c.iter().enumerate() {
                                    let d = m + 1;
                                    acc += cm * (sr[(k + d) % n] - sr[(k + n - d) % n]);
                                }
                                o[k] = acc * inv_h;
                            }
                            let plus = [&sr[5..], &sr[6..], &sr[7..], &sr[8..]];
                            let minus = [&sr[3..], &sr[2..], &sr[1..], &sr[0..]];
                            f32::kfd8_combine_scale(
                                &mut o[4..n - 4],
                                &plus,
                                &minus,
                                &c,
                                inv_h,
                                1.0,
                            );
                        }
                    }
                }
                std::hint::black_box(&g);
            }
        }));
    }

    // Cubic Lagrange interpolation: the batched site kernel, one off-grid
    // site per grid point at the same fractional offsets as the f64 rows,
    // on ghost-extended f32 copies (2 planes per side along x1, the cubic
    // support width) — one field, then three against shared taps. There is
    // no f32 plan (transport stays f64), so the sites are built here.
    {
        let gw = 2usize;
        let mut ext = vec![0.0f32; (n + 2 * gw) * n * n];
        for p in 0..n + 2 * gw {
            let sp = (p + n - gw) % n;
            ext[p * n * n..(p + 1) * n * n].copy_from_slice(&src[sp * n * n..(sp + 1) * n * n]);
        }
        let dims = HaloDims { planes: n + 2 * gw, n2: n, n3: n, plane0: gw as isize };
        // query offsets (+0.37h, −0.21h, +0.11h), wrapped into [0, n)
        let sites: Vec<[f32; 3]> = (0..n * n * n)
            .map(|idx| {
                let (i, j, k) = (idx / (n * n), (idx / n) % n, idx % n);
                [i as f32 + 0.37, ((j + n - 1) % n) as f32 + 0.79, k as f32 + 0.11]
            })
            .collect();
        let mut vals = vec![0.0f32; sites.len()];
        push(measure("interp_planned_f32", n, 1, false, reps, || {
            f32::kinterp_sites(Stencil::CubicLagrange, &dims, &[&ext], &sites, |i, [v]| {
                vals[i] = v
            });
        }));
        let mut vals3 = vec![[0.0f32; 3]; sites.len()];
        push(measure("interp_planned_vec3_f32", n, 1, false, reps, || {
            f32::kinterp_sites(
                Stencil::CubicLagrange,
                &dims,
                &[&ext, &ext, &ext],
                &sites,
                |i, v| vals3[i] = v,
            );
        }));
    }

    // fused axpy+dot stream op (the PCG residual-update chain) at f32
    {
        let x: Vec<f32> = test_field(n).data().iter().map(|&v| v as f32).collect();
        let mut y = src.clone();
        push(measure("axpy_dot_f32", n, 1, false, reps * 4, || {
            std::hint::black_box(f32::kaxpy_dot(1.0000001, &x, &mut y));
        }));
    }
}

/// Socket-transport collectives over real Unix-domain sockets: the FFT
/// alltoallv transpose payload and a width-4 ghost exchange at `n`³, on 2
/// and 4 ranks. Unlike the in-process channel rows these cross the kernel
/// socket layer (framing, eager/rendezvous negotiation, reader threads),
/// so they track the per-message cost a multi-process launch pays.
fn bench_socket(n: usize, backend: &str, out: &mut Vec<BenchRow>) {
    set_threads(1);
    let grid = Grid::cube(n);
    for p in [2usize, 4] {
        let rows = claire_ipc::run_socket_cluster(Topology::new(p, 2), move |comm| {
            // alltoallv with the per-pair volume of a slab-transpose at n³
            let per_dest = grid.len() / (p * p);
            let bufs: Vec<Vec<Real>> = (0..p).map(|d| vec![0.5 + d as Real; per_dest]).collect();
            let a2a = measure(&format!("alltoallv_sock_p{p}"), n, 1, false, 5, || {
                std::hint::black_box(comm.alltoallv(
                    &bufs,
                    CommCat::FftTranspose,
                    AlltoallMethod::Auto,
                ));
            });
            // width-4 halo exchange on a distributed field (FD8 stencil width)
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, |x, y, z| (x + 0.3 * y).sin() + z);
            let gx = measure(&format!("ghost_sock_p{p}"), n, 1, false, 5, || {
                std::hint::black_box(claire_grid::ghost::exchange(&f, 4, comm));
            });
            [a2a, gx]
        })
        .outputs
        .remove(0);
        for mut r in rows {
            r.backend = backend.to_string();
            out.push(r);
        }
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernels.json".into());
    let host_par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Serial, and a fixed 8-thread run that exercises the parallel path on
    // every host; `oversubscribed` records whether 8 exceeds its concurrency.
    let configs = [(1usize, false), (8usize, 8 > host_par)];

    timing::reset();
    let mut results = Vec::new();
    for (choice, backend) in
        [(claire_simd::Choice::Scalar, "scalar"), (claire_simd::Choice::Auto, "auto")]
    {
        claire_simd::force_backend(Some(choice));
        for n in [64usize, 128] {
            for &(threads, over) in &configs {
                // the scalar pass is the reference for the vectorized
                // speedup; its threads==1 rows say all there is to say
                if backend != "auto" && threads != 1 {
                    continue;
                }
                eprintln!("bench: {n}^3 with {threads} thread(s), backend={backend}...");
                bench_at(n, threads, over, backend, &mut results);
            }
            eprintln!("bench: {n}^3 f32 kernel arms, backend={backend}...");
            bench_f32_at(n, backend, &mut results);
        }
        // socket rows cost real syscalls, not SIMD lanes; one pass suffices
        if backend == "auto" {
            eprintln!("bench: socket-transport collectives at 64^3, backend={backend}...");
            bench_socket(64, backend, &mut results);
        }
    }
    claire_simd::force_backend(None); // back to env-based resolution
    set_threads(0); // restore default resolution

    let counters = timing::snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| CounterRow {
            name: s.name.to_string(),
            calls: s.calls,
            total_ms: s.nanos as f64 / 1e6,
        })
        .collect();

    let report =
        Report { host_threads: host_par, grids: vec![64, 128], results, timing_counters: counters };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_kernels.json");
    eprintln!("wrote {out_path}");
}
