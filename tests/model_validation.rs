//! Validate the performance model's communication-volume formulas against
//! the byte-accurate traffic instrumentation of real (functional) runs on
//! the virtual cluster. This anchors the paper-scale tables from below:
//! the same closed forms that drive `claire-perf`'s modeled times are
//! checked here against what the distributed kernels actually ship.

use claire::fft::DistFft;
use claire::grid::{ghost, Grid, Layout, Real, ScalarField};
use claire::mpi::{run_cluster, CommCat, Topology};

#[test]
fn fft_transpose_volume_matches_closed_form() {
    // paper §3.3: per-rank transpose volume is the local spectral block
    // minus the self part: bytes = cpx · n1/p · n2 · n3c · (p-1)/p
    for p in [2usize, 4] {
        let n = 16;
        let grid = Grid::new([n, n, n]);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, |x, y, z| (x + y).sin() + z.cos());
            let dfft = DistFft::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let fwd_bytes = comm.stats().cat(CommCat::FftTranspose).bytes_sent;
            let _ = dfft.inverse(spec, comm);
            let total_bytes = comm.stats().cat(CommCat::FftTranspose).bytes_sent;
            (fwd_bytes, total_bytes)
        });
        let cpx = 2 * std::mem::size_of::<Real>() as u64;
        let n3c = (n / 2 + 1) as u64;
        let local_block = (n as u64 / p as u64) * n as u64 * n3c * cpx;
        let expect_fwd = local_block * (p as u64 - 1) / p as u64;
        for (rank, &(fwd, total)) in res.outputs.iter().enumerate() {
            assert_eq!(fwd, expect_fwd, "p={p} rank={rank}: forward transpose volume");
            assert_eq!(total, 2 * expect_fwd, "p={p} rank={rank}: inverse doubles it");
        }
    }
}

#[test]
fn ghost_volume_matches_closed_form() {
    // paper §3.2: halo message size is O(N2·N3) per side per plane
    for (p, width) in [(2usize, 4usize), (4, 2), (4, 4)] {
        let grid = Grid::new([16, 8, 6]);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, |x, _, _| x.sin());
            let _ = ghost::exchange(&f, width, comm);
            comm.stats().cat(CommCat::Ghost).bytes_sent
        });
        let expect = (2 * width * 8 * 6 * std::mem::size_of::<Real>()) as u64;
        for (rank, &bytes) in res.outputs.iter().enumerate() {
            assert_eq!(bytes, expect, "p={p} w={width} rank={rank}");
        }
    }
}

#[test]
fn scatter_volume_bounded_by_cfl() {
    // paper §3.1: the query scatter volume is O(umax·N2·N3) — only the
    // CFL-deep boundary layer of points leaves the rank.
    let grid = Grid::new([16, 8, 8]);
    let (umax, nt) = (0.3, 4);
    // max displacement umax·δt in cells of the finest spacing
    let cfl = umax / nt as Real / grid.spacing().into_iter().fold(Real::MAX, Real::min);
    assert!(cfl < 1.0, "test velocity should be sub-CFL");
    let res = run_cluster(Topology::new(4, 4), move |comm| {
        let layout = Layout::distributed(grid, comm);
        let m0 = ScalarField::from_fn(layout, |x, y, _| (x + y).sin());
        let v = claire::grid::VectorField::from_fns(
            layout,
            move |_, y, _| umax * y.sin(),
            |_, _, _| 0.0,
            |_, _, _| 0.0,
        );
        let ip = claire::interp::Interpolator::new(claire::interp::IpOrder::Linear);
        let tr = claire::semilag::Transport::new(nt, claire::interp::IpOrder::Linear);
        // the query scatter happens when the trajectory plans its departure
        // points — once per velocity, not once per time step
        let s0 = comm.stats().cat(CommCat::Scatter).bytes_sent;
        let traj = claire::semilag::Trajectory::backward(&v, nt, &ip, comm);
        let planned = comm.stats().cat(CommCat::Scatter).bytes_sent - s0;
        let _ = tr.solve_state(&traj, &m0, false, &ip, comm);
        let total = comm.stats().cat(CommCat::Scatter).bytes_sent - s0;
        (planned, total)
    });
    for (rank, &(planned, total)) in res.outputs.iter().enumerate() {
        assert_eq!(total, planned, "rank {rank}: the time steps must not re-scatter");
        // bound: 2 plans (RK2 midpoints, feet) × ceil(cfl+1) boundary planes
        // × plane points × 24 B
        let planes = (cfl + 1.0).ceil() as u64;
        let bound = 2 * planes * 8 * 8 * std::mem::size_of::<[Real; 3]>() as u64;
        assert!(planned <= bound, "rank {rank}: scatter {planned} exceeds CFL bound {bound}");
    }
}
