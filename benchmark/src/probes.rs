//! Layer probes: with the converged velocity and the workload's own fields,
//! call each lower layer's public entry points and time them from outside.
//!
//! Rates are per local point / per query of the calling rank, with the
//! operation spelled out in the metric's name; no share of a machine peak is
//! reported (every working set here sits inside the last-level cache).
//! On `reg_2r` every probe is collective and the clock is rank 0's.

use claire_core::{Precision, PrecondKind, RegProblem};
use claire_diff::{fd, SpectralT, TwoLevelT};
use claire_fft::{Fft3T, FftElem};
use claire_grid::{ghost, Grid, Real, ScalarField, ScalarFieldT, VectorField, WsCat};
use claire_interp::Interpolator;
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_semilag::{Trajectory, Transport};

use crate::trace::Recorder;
use crate::workload::Workload;

/// One warm call, then the minimum of five timed calls, each recorded as a
/// span. A call runs `f` `reps` times so that cheap kernels are timed over
/// at least a few hundred microseconds; the result is seconds per `f`.
fn probe(rec: &mut Recorder, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..5)
        .map(|_| {
            let id = rec.enter(name);
            for _ in 0..reps {
                f();
            }
            rec.exit(id);
            rec.spans[id].secs() / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Forward + inverse transform with the plan [`SpectralT`] uses, in
/// seconds. `field` lives on `grid`.
fn fft_roundtrip<T: FftElem>(
    rec: &mut Recorder,
    name: &'static str,
    grid: Grid,
    field: &ScalarFieldT<T>,
    comm: &mut Comm,
) -> f64 {
    let spectral = SpectralT::<T>::new(grid, comm);
    probe(rec, name, 1, || {
        let spec = spectral.fft().forward(field, comm);
        std::hint::black_box(spectral.fft().inverse(spec, comm));
    })
}

/// Run every probe that applies to `w`; the others report 0 (the workload
/// does not execute that code). Returns `(metric, value)` in the metric's
/// unit.
pub fn run(
    w: &Workload,
    problem: &RegProblem,
    v: &VectorField,
    rec: &mut Recorder,
    comm: &mut Comm,
) -> Vec<(&'static str, f64)> {
    let cfg = w.config();
    let layout = problem.layout();
    let grid = layout.grid;
    let n = layout.local_len() as f64;
    let (m0, m1) = (problem.template(), problem.reference());
    let mut out = Vec::new();

    // ----- semi-Lagrangian transport at the workload's nt and order -------
    let mut interp = Interpolator::new(w.ip_order);
    let transport = Transport::new(w.nt, w.ip_order);
    let t = probe(rec, "semilag.trajectory", 1, || {
        std::hint::black_box(Trajectory::compute(v, w.nt, &mut interp, comm));
    });
    out.push(("semilag.trajectory_ms", t * 1e3));
    let traj = Trajectory::compute(v, w.nt, &mut interp, comm);
    let t = probe(rec, "semilag.state", 1, || {
        std::hint::black_box(transport.solve_state(&traj, m0, false, &mut interp, comm));
    });
    out.push(("semilag.state_ms", t * 1e3));
    let state = transport.solve_state(&traj, m0, false, &mut interp, comm);
    let mut lam1 = m1.clone();
    lam1.axpy(-1.0, state.final_state());
    let t = probe(rec, "semilag.adjoint", 1, || {
        std::hint::black_box(transport.solve_adjoint(&traj, &lam1, &mut interp, comm));
    });
    out.push(("semilag.adjoint_ms", t * 1e3));
    let t = probe(rec, "semilag.inc_state", 1, || {
        std::hint::black_box(transport.solve_inc_state(&traj, v, &state, &mut interp, comm));
    });
    out.push(("semilag.inc_state_ms", t * 1e3));

    // ----- interpolation at the trajectory's departure points -------------
    let mut vals = vec![0.0 as Real; traj.foot_back.len()];
    let t = probe(rec, "interp.scalar", 1, || {
        interp.interp_many_into(&[m0], &traj.foot_back, comm, &mut [&mut vals]);
    });
    out.push(("interp.ns_per_query", t * 1e9 / n));
    let mut vals3 = vec![[0.0 as Real; 3]; traj.foot_back.len()];
    let t = probe(rec, "interp.vector", 1, || {
        interp.interp_vector_into(v, &traj.foot_back, comm, &mut vals3);
    });
    out.push(("interp.vector_ns_per_query", t * 1e9 / n));

    // ----- FFT round trips: fine f64, fine f32, coarse ---------------------
    let mixed = w.precision == Precision::Mixed;
    let two_level = w.precond == PrecondKind::TwoLevelInvH0;
    let t = fft_roundtrip(rec, "fft.roundtrip", grid, m0, comm);
    out.push(("fft.roundtrip_ns_per_point", t * 1e9 / n));
    let m0_f32: ScalarFieldT<f32> = m0.converted(WsCat::Other);
    let t = if mixed { fft_roundtrip(rec, "fft.roundtrip_f32", grid, &m0_f32, comm) } else { 0.0 };
    out.push(("fft.roundtrip_ns_per_point_f32", t * 1e9 / n));
    // the coarse grid exists only under 2LInvH0, at the width its inner
    // solve runs in
    let transfer = two_level.then(|| TwoLevelT::<Real>::new(grid, comm));
    let t = match (&transfer, mixed) {
        (None, _) => 0.0,
        (Some(tl), false) => {
            let coarse = tl.restrict(m0, comm);
            let nc = coarse.layout().local_len() as f64;
            fft_roundtrip(rec, "fft.coarse_roundtrip", tl.coarse_grid(), &coarse, comm) / nc
        }
        (Some(_), true) => {
            let tl = TwoLevelT::<f32>::new(grid, comm);
            let coarse = tl.restrict(&m0_f32, comm);
            let nc = coarse.layout().local_len() as f64;
            fft_roundtrip(rec, "fft.coarse_roundtrip", tl.coarse_grid(), &coarse, comm) / nc
        }
    };
    out.push(("fft.coarse_roundtrip_ns_per_point", t * 1e9));

    // ----- finite differences and spectral operators -----------------------
    let mut scratch = fd::FdScratch::new();
    let mut grad = VectorField::zeros(layout);
    let t =
        probe(rec, "diff.fd_gradient", 4, || fd::gradient_into(m0, comm, &mut grad, &mut scratch));
    out.push(("diff.fd_gradient_ns_per_point", t * 1e9 / n));
    let mut div = ScalarField::zeros(layout);
    let t = probe(rec, "diff.fd_divergence", 4, || {
        fd::divergence_into(v, comm, &mut div, &mut scratch)
    });
    out.push(("diff.fd_divergence_ns_per_point", t * 1e9 / n));
    let t = probe(rec, "diff.reg_inv", 1, || {
        std::hint::black_box(problem.spectral().reg_inv(v, cfg.beta_target, comm));
    });
    out.push(("diff.reg_inv_ns_per_point", t * 1e9 / n));
    let t = transfer.as_ref().map_or(0.0, |tl| {
        probe(rec, "diff.restrict_prolong", 1, || {
            let vc = tl.restrict_vector(v, comm);
            std::hint::black_box(tl.prolong_vector(&vc, comm));
        })
    });
    out.push(("diff.restrict_prolong_ms", t * 1e3));

    // ----- field ops and halos ---------------------------------------------
    // alternating sign keeps the accumulator bounded over all repetitions
    let mut acc = m0.clone();
    let mut sign: Real = 1.0;
    let t = probe(rec, "grid.axpy_dot", 64, || {
        sign = -sign;
        std::hint::black_box(acc.axpy_dot_local(sign * 0.5, m1));
    });
    out.push(("grid.axpy_dot_ns_per_point", t * 1e9 / n));
    let mut halo = ghost::GhostField::alloc(layout, 4);
    let t = probe(rec, "grid.ghost_exchange", 8, || ghost::exchange_into(m0, comm, &mut halo));
    out.push(("grid.ghost_exchange_ms", t * 1e3));

    // ----- one transpose-sized all-to-all between the ranks ----------------
    let t = if comm.size() > 1 {
        let per_pair = layout.local_dims()[0] * (grid.n[1] / comm.size()) * (grid.n[2] / 2 + 1) * 2;
        let bufs = vec![vec![0.0 as Real; per_pair]; comm.size()];
        probe(rec, "mpi.alltoallv", 8, || {
            std::hint::black_box(comm.alltoallv(
                &bufs,
                CommCat::FftTranspose,
                AlltoallMethod::Auto,
            ));
        })
    } else {
        0.0
    };
    out.push(("mpi.alltoallv_ms", t * 1e3));

    // ----- planning on a cold plan cache (last: it empties the cache) ------
    let t = (0..5)
        .map(|_| {
            claire_fft::cache::clear();
            let id = rec.enter("fft.plan");
            std::hint::black_box(Fft3T::<Real>::new(grid));
            rec.exit(id);
            rec.spans[id].secs()
        })
        .fold(f64::INFINITY, f64::min);
    out.push(("fft.plan_s", t));
    out
}
