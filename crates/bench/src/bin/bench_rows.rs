//! The layer rows `BENCHMARK.json` cannot see, one JSON line per row on
//! stdout, at `2·N` and `3·N` for `CLAIRE_BENCH_N` (64³ and 96³ by default)
//! on the active SIMD backend and thread count:
//!
//! | row | why no `per_layer` metric covers it |
//! |---|---|
//! | `fft_pass_x{3,2,1}` (+`_f32`) | `fft.roundtrip_ns_per_point*` time the three passes as one |
//! | `interp_plan_build`, `interp_planned` | `interp.ns_per_query` is build + evaluation |
//! | `interp_planned_linear` | the trilinear evaluation (`reg_fft`'s kernel) is only ever timed with its plan build |
//! | `fft_dist_roundtrip_p2` | the FFT probes run on the workload's ranks; only `reg_2r` has two, at 40×32×24 |
//! | `ghost_sock_p{2,4}`, `alltoallv_sock_p{2,4}` | no workload runs the socket transport |
//! | `alltoallv_chan_p{2,4}` | `mpi.alltoallv_ms` times one volume on two ranks; this is the in-process carrier beside the socket rows, same volume, 2 and 4 ranks, borrowing form |
//! | `fd_gradient`, `fd_divergence` | `diff.fd_*_ns_per_point` time 24-point rows, 4 calls each; these are rows of `2·n` points (one tile and a tile and a half at the default size), the median of 21 calls |
//! | `pcg_h0`, `pcg_h0_mixed` | `core.precond_s` is a whole solve's total; this is per point per inner iteration, and its growth between the two sizes is what ROADMAP item 4 is judged on |
//!
//! The rows say which layer moved; nothing is gated on them. A performance
//! claim is made with paired runs through `BENCHMARK.json`.

use std::time::Instant;

use claire_bench::bench_n;
use claire_core::precond::inv_h0;
use claire_diff::fd::{divergence_into, gradient_into, FdScratch};
use claire_diff::SpectralT;
use claire_fft::{cache, pass, CpxT, DistFft, FftElem};
use claire_grid::{ghost, Grid, Layout, Real, ScalarField, VectorField, VectorFieldT, WsCat};
use claire_interp::{Interpolator, IpOrder};
use claire_ipc::run_socket_cluster;
use claire_mpi::{run_cluster, AlltoallMethod, Comm, CommCat, Topology};
use claire_opt::PcgConfig;

/// `(row, unit, value)` of one family of rows at one size.
type Rows = Vec<(String, &'static str, f64)>;

fn test_field(layout: Layout) -> ScalarField {
    ScalarField::from_fn(layout, |x, y, z| {
        (x + 0.3 * y).sin() * (2.0 * z).cos() + (z - 0.1 * x).sin()
    })
}

/// Nanoseconds per call of `f` over `per` units of work: one warm call, then
/// the fastest of five timed batches of three.
fn measure(per: usize, mut f: impl FnMut()) -> f64 {
    const REPS: usize = 3;
    f();
    let batch = (0..5).map(|_| {
        let t0 = Instant::now();
        (0..REPS).for_each(|_| f());
        t0.elapsed()
    });
    batch.min().unwrap().as_nanos() as f64 / (REPS * per) as f64
}

/// Nanoseconds per unit of work of the median call of `f`, over `per`
/// units per call: one warm call, then 21 timed ones.
fn median(per: usize, mut f: impl FnMut()) -> f64 {
    const CALLS: usize = 21;
    f();
    let mut t: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[CALLS / 2] / per as f64
}

/// The three passes of the 3-D transform, each forward + inverse on its own
/// (`x3`: real rows; `x2`: down every `[n][n3c]` plane; `x1`: down the whole
/// slab), so an FFT change can see which pass it moved.
fn fft_passes<T: FftElem>(n: usize) -> Rows {
    let suffix = if T::LABEL == "f32" { "_f32" } else { "" };
    let (n3c, points) = (n / 2 + 1, n * n * n);
    let (rows, lines) = (cache::real_fft1d_t::<T>(n), cache::fft1d_t::<T>(n));
    let field = test_field(Layout::serial(Grid::cube(n)));
    let mut real: Vec<T> = field.data().iter().map(|&v| T::from_f64(v)).collect();
    let mut spec = vec![CpxT::<T>::ZERO; n * n * n3c];
    let x3 = measure(points, || {
        pass::rows_forward(&rows, &real, &mut spec);
        pass::rows_inverse(&rows, &spec, &mut real);
    });
    let mut out = vec![(format!("fft_pass_x3{suffix}"), "ns/point", x3)];
    for (name, stride) in [("fft_pass_x2", n3c), ("fft_pass_x1", n * n3c)] {
        let t = measure(points, || {
            pass::cols(&lines, false, &mut spec, stride);
            pass::cols(&lines, true, &mut spec, stride);
        });
        out.push((format!("{name}{suffix}"), "ns/point", t));
    }
    out
}

/// Cubic interpolation, one off-grid query per grid point, split into the
/// halves the solver pays separately: one plan build per characteristic
/// family, one planned evaluation per time step; then a trilinear planned
/// evaluation of the same plan (a plan is order-independent).
fn interp(n: usize) -> Rows {
    let f = test_field(Layout::serial(Grid::cube(n)));
    let h = f.layout().grid.spacing();
    let queries: Vec<[Real; 3]> = claire_semilag::traj::grid_points(f.layout())
        .into_iter()
        .map(|p| [p[0] + 0.37 * h[0], p[1] - 0.21 * h[1], p[2] + 0.11 * h[2]])
        .collect();
    let mut comm = Comm::solo();
    let ip = Interpolator::new(IpOrder::Cubic);
    let build = measure(queries.len(), || {
        std::hint::black_box(ip.plan(*f.layout(), &queries, &mut comm));
    });
    let plan = ip.plan(*f.layout(), &queries, &mut comm);
    let mut vals = vec![0.0 as Real; queries.len()];
    let mut eval = |ip: Interpolator| {
        measure(queries.len(), || ip.evaluate(&plan, &[&f], &mut comm, &mut [&mut vals]))
    };
    let cubic = eval(ip);
    let linear = eval(Interpolator::new(IpOrder::Linear));
    vec![
        ("interp_plan_build".into(), "ns/query", build),
        ("interp_planned".into(), "ns/query", cubic),
        ("interp_planned_linear".into(), "ns/query", linear),
    ]
}

/// The 8th-order FD gradient and divergence on an `[n, n/2, 2n]` grid: `n³`
/// points in x3 rows of `2n`, which at the default size are one [`TILE`]
/// (`n = 64`) and a tile and a half (`n = 96`), lengths the benchmark's
/// 24-point rows never reach.
///
/// [`TILE`]: claire_diff::fd::TILE
fn fd(n: usize) -> Rows {
    let layout = Layout::serial(Grid::new([n, n / 2, 2 * n]));
    let f = test_field(layout);
    let v = VectorField { c: [f.clone(), f.clone(), f.clone()] };
    let mut comm = Comm::solo();
    let mut scratch = FdScratch::new();
    let (mut grad, mut div) = (VectorField::zeros(layout), ScalarField::zeros(layout));
    let points = layout.local_len();
    let g = median(points, || gradient_into(&f, &mut comm, &mut grad, &mut scratch));
    let d = median(points, || divergence_into(&v, &mut comm, &mut div, &mut scratch));
    vec![("fd_gradient".into(), "ns/point", g), ("fd_divergence".into(), "ns/point", d)]
}

/// Distributed FFT round trip on two in-process ranks: slab decomposition
/// plus the alltoallv transposes, rank 0's clock.
fn fft_dist(n: usize) -> Rows {
    let grid = Grid::cube(n);
    let t = run_cluster(Topology::new(2, 2), move |comm| {
        let f = test_field(Layout::distributed(grid, comm));
        let dfft = DistFft::new(grid, comm);
        measure(grid.len(), || {
            let spec = dfft.forward(&f, comm);
            std::hint::black_box(dfft.inverse(spec, comm));
        })
    })
    .outputs[0];
    vec![("fft_dist_roundtrip_p2".into(), "ns/point", t)]
}

/// An alltoallv with the per-pair volume of a slab transpose of `grid`, in
/// the borrowing form (every part copied once on send), this rank's clock.
fn alltoallv(grid: Grid, comm: &mut Comm) -> f64 {
    let p = comm.size();
    let bufs = vec![vec![0.5 as Real; grid.len() / (p * p)]; p];
    measure(grid.len(), || {
        let got = comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto);
        std::hint::black_box(got);
    })
}

/// The two collectives a multi-process launch pays per message, over real
/// Unix-domain sockets (framing, vectored sends, reader threads):
/// a width-4 ghost exchange and an alltoallv with the per-pair volume of a
/// slab transpose, on 2 and 4 ranks, rank 0's clock.
fn sockets(n: usize) -> Rows {
    let grid = Grid::cube(n);
    let mut out = Rows::new();
    for p in [2usize, 4] {
        let [gx, a2a] = run_socket_cluster(Topology::new(p, 2), move |comm| {
            let f = test_field(Layout::distributed(grid, comm));
            let gx = measure(grid.len(), || {
                std::hint::black_box(ghost::exchange(&f, 4, comm));
            });
            [gx, alltoallv(grid, comm)]
        })
        .outputs[0];
        out.push((format!("ghost_sock_p{p}"), "ns/point", gx));
        out.push((format!("alltoallv_sock_p{p}"), "ns/point", a2a));
    }
    out
}

/// The socket rows' alltoallv on in-process ranks, on 2 and 4 ranks, rank
/// 0's clock. It times the borrowing form, so the copy on send is what it
/// measures: the owning form the FFT, interpolation and 2LInvH0 callers run
/// moves every part and costs a per-message latency that does not grow with
/// the volume, below this row's 0.01 ns/point resolution at 64³.
fn channels(n: usize) -> Rows {
    let grid = Grid::cube(n);
    [2usize, 4]
        .map(|p| {
            let a2a = run_cluster(Topology::new(p, 2), move |comm| alltoallv(grid, comm));
            (format!("alltoallv_chan_p{p}"), "ns/point", a2a.outputs[0])
        })
        .into()
}

/// The shipped `InvH0` application (`H0 = βA + ∇m̄ ⊗ ∇m̄` solved on spectra,
/// `(βA)⁻¹` as its left preconditioner) at a pinned 12 inner iterations
/// (`tol_rel = 0`), so both widths run the identical schedule; the 12
/// transforms around the iteration are in the row, as they are in the solver.
fn pcg_h0_at<T: FftElem>(n: usize) -> f64 {
    const ITERS: usize = 12;
    let layout = Layout::serial(Grid::cube(n));
    let mut comm = Comm::solo();
    let spectral = SpectralT::<T>::new(layout.grid, &comm);
    let grad: VectorFieldT<T> = VectorField::from_fns(
        layout,
        |x, y, _| (x - 3.0) * (-(x - 3.0) * (x - 3.0) - (y - 3.0) * (y - 3.0)).exp(),
        |_, y, z| (y - 3.0) * (-(y - 3.0) * (y - 3.0) - (z - 3.0) * (z - 3.0)).exp(),
        |x, _, z| (z - 3.0) * (-(z - 3.0) * (z - 3.0) - (x - 3.0) * (x - 3.0)).exp(),
    )
    .converted(WsCat::Other);
    let rhs: VectorFieldT<T> = VectorField::from_fns(
        layout,
        |x, y, z| (x + 0.5 * y).sin() * z.cos(),
        |x, y, z| (y + 0.5 * z).sin() * x.cos(),
        |x, y, z| (z + 0.5 * x).sin() * y.cos(),
    )
    .converted(WsCat::Other);
    let cfg = PcgConfig { tol_rel: 0.0, max_iter: ITERS, trace: false };
    measure(ITERS * layout.grid.len(), || {
        let (_, res) = inv_h0(&spectral, &grad, 1e-2, &rhs, &cfg, &mut comm);
        assert_eq!(res.iters, ITERS, "fixed-iteration PCG must run the pinned schedule");
    })
}

fn pcg_h0(n: usize) -> Rows {
    vec![
        ("pcg_h0".into(), "ns/point/iter", pcg_h0_at::<f64>(n)),
        ("pcg_h0_mixed".into(), "ns/point/iter", pcg_h0_at::<f32>(n)),
    ]
}

fn main() {
    let sizes = [2 * bench_n(), 3 * bench_n()];
    let (backend, threads) = (claire_simd::active_backend().label(), claire_par::num_threads());
    let families: [fn(usize) -> Rows; 8] =
        [fft_passes::<Real>, fft_passes::<f32>, interp, fd, fft_dist, sockets, channels, pcg_h0];
    for family in families {
        let [small, large] = sizes.map(family);
        for ((row, unit, a), (_, _, b)) in small.into_iter().zip(large) {
            println!(
                "{{\"row\":\"{row}\",\"unit\":\"{unit}\",\"backend\":\"{backend}\",\
                 \"threads\":{threads},\"n\":{sizes:?},\"value\":[{a:.2},{b:.2}]}}"
            );
        }
    }
}
