//! Serial vs. parallel kernel equivalence.
//!
//! Every kernel in the shared-memory parallel layer must produce the same
//! answer for every thread count. Element-wise kernels never split work
//! inside one output element, and a reduction's threads split its planes,
//! never a plane (`claire::grid::reduce`), so the results are *bitwise*
//! identical — which these tests assert (far stronger than the 1e-12
//! requirement).
//!
//! `claire_par::set_threads` is process-global, so everything runs under a
//! mutex to keep the harness's own test parallelism from interleaving
//! overrides.

use std::sync::Mutex;

use claire::diff::fd;
use claire::grid::{Grid, Layout, Real, ScalarField, VectorField};
use claire::interp::{Interpolator, IpOrder};
use claire::mpi::Comm;
use claire::par::with_threads;
use claire::semilag::{Trajectory, Transport};
use proptest::prelude::*;

static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` at each thread count and return one result per count.
fn at_thread_counts<T>(counts: &[usize], f: impl Fn() -> T) -> Vec<T> {
    let _guard = THREAD_LOCK.lock().unwrap();
    counts.iter().map(|&nt| with_threads(nt, &f)).collect()
}

/// Assert two scalar slices are bitwise identical.
fn assert_bits_eq(a: &[Real], b: &[Real], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i} differs: {x:e} vs {y:e}");
    }
}

/// A smooth test field on a grid large enough (≥ 32³ = 32768 points) that
/// the parallel path actually engages (`MIN_PAR_LEN` = 8192).
fn test_field(n: usize) -> ScalarField {
    let layout = Layout::serial(Grid::cube(n));
    ScalarField::from_fn(layout, |x, y, z| {
        (x + 0.3 * y).sin() * (2.0 * z).cos() + 0.1 * (y - z).sin()
    })
}

const COUNTS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn fd_derivatives_identical_across_thread_counts() {
    let f = test_field(32);
    for dim in 0..3 {
        let results = at_thread_counts(&COUNTS, || {
            let mut comm = Comm::solo();
            fd::gradient(&f, &mut comm).c[dim].clone()
        });
        for r in &results[1..] {
            assert_bits_eq(results[0].data(), r.data(), &format!("fd deriv dim {dim}"));
        }
    }
}

#[test]
fn fd_gradient_and_divergence_identical_across_thread_counts() {
    let f = test_field(32);
    let grads = at_thread_counts(&COUNTS, || {
        let mut comm = Comm::solo();
        fd::gradient(&f, &mut comm)
    });
    for g in &grads[1..] {
        for c in 0..3 {
            assert_bits_eq(grads[0].c[c].data(), g.c[c].data(), "gradient");
        }
    }
    let v = VectorField::from_fns(
        *f.layout(),
        |_, y, _| 0.4 * y.sin(),
        |x, _, _| 0.3 * x.cos(),
        |_, _, z| 0.2 * (2.0 * z).sin(),
    );
    let divs = at_thread_counts(&COUNTS, || {
        let mut comm = Comm::solo();
        fd::divergence_scaled(&v, &mut comm, 1.0)
    });
    for d in &divs[1..] {
        assert_bits_eq(divs[0].data(), d.data(), "divergence");
    }
}

/// Forward spectrum and round trip of `grid` at width `T`, per thread count.
fn fft_bits_at_thread_counts<T: claire::fft::FftElem>(grid: Grid) {
    use claire::fft::{CpxT, Fft3T};
    let n = grid.len();
    let real: Vec<T> =
        (0..n).map(|i| T::from_f64(((i * 37 + 11) % 101) as f64 / 50.0 - 1.0)).collect();
    let runs = at_thread_counts(&COUNTS, || {
        let plan = Fft3T::<T>::new(grid);
        let mut spec = vec![CpxT::<T>::ZERO; plan.spectral_len()];
        plan.forward(&real, &mut spec);
        let mut back = vec![T::ZERO; n];
        plan.inverse(&mut spec.clone(), &mut back);
        (spec, back)
    });
    for (spec, back) in &runs[1..] {
        assert!(runs[0].0 == *spec, "{} {:?}: spectrum bits moved with threads", T::LABEL, grid.n);
        assert!(
            runs[0].1 == *back,
            "{} {:?}: round trip bits moved with threads",
            T::LABEL,
            grid.n
        );
    }
}

#[test]
fn fft_forward_and_roundtrip_identical_across_thread_counts() {
    // a cube, and the benchmark grid whose column and row runs end ragged:
    // workers split runs of lines, and a line's bits must not notice
    for n in [[32, 32, 32], [40, 32, 24]] {
        fft_bits_at_thread_counts::<f64>(Grid::new(n));
        fft_bits_at_thread_counts::<f32>(Grid::new(n));
    }
}

#[test]
fn interpolation_identical_across_thread_counts() {
    let f = test_field(32);
    // off-grid query points derived deterministically from the index; 3
    // short of the grid, so no thread count splits them into whole blocks
    // of four sites
    let queries: Vec<[Real; 3]> = (0..f.layout().local_len() - 3)
        .map(|i| {
            let t = i as Real * 0.618;
            [(t.sin().abs()) * 6.0, (t.cos().abs()) * 6.0, ((0.7 * t).sin().abs()) * 6.0]
        })
        .collect();
    for order in [IpOrder::Linear, IpOrder::Cubic] {
        let results = at_thread_counts(&COUNTS, || {
            let mut comm = Comm::solo();
            let ip = Interpolator::new(order);
            ip.interp(&f, &queries, &mut comm)
        });
        for r in &results[1..] {
            assert_bits_eq(&results[0], r, &format!("interp {order:?}"));
        }
    }
}

#[test]
fn field_ops_and_reductions_identical_across_thread_counts() {
    let f = test_field(32);
    let g = ScalarField::from_fn(*f.layout(), |x, y, z| (x * y).cos() + z * 0.2);
    let results = at_thread_counts(&COUNTS, || {
        let mut comm = Comm::solo();
        let mut a = f.clone();
        a.axpy(0.7, &g);
        a.scale(1.3);
        let dot = a.dot(&g, &mut comm);
        let sum = a.sum(&mut comm);
        let mx = a.max_abs(&mut comm);
        (a, dot, sum, mx)
    });
    for (a, dot, sum, mx) in &results[1..] {
        assert_bits_eq(results[0].0.data(), a.data(), "field ops");
        assert_eq!(results[0].1.to_bits(), dot.to_bits(), "dot");
        assert_eq!(results[0].2.to_bits(), sum.to_bits(), "sum");
        assert_eq!(results[0].3.to_bits(), mx.to_bits(), "max_abs");
    }
}

#[test]
fn semilag_transport_identical_across_thread_counts() {
    let layout = Layout::serial(Grid::cube(32));
    let v = VectorField::from_fns(
        layout,
        |_, y, _| 0.3 * y.sin(),
        |x, _, _| 0.2 * x.cos(),
        |_, _, z| 0.1 * (2.0 * z).sin(),
    );
    let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y * 2.0).cos() + z * 0.1);
    let results = at_thread_counts(&COUNTS, || {
        let mut comm = Comm::solo();
        let ip = Interpolator::new(IpOrder::Cubic);
        let tr = Transport::new(4, IpOrder::Cubic);
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let state = tr.solve_state(&traj, &m0, true, &ip, &mut comm);
        let lam = tr.solve_adjoint(&traj, state.final_state(), &ip, &mut comm);
        (state.final_state().clone(), lam[0].clone())
    });
    for (m1, lam0) in &results[1..] {
        assert_bits_eq(results[0].0.data(), m1.data(), "state");
        assert_bits_eq(results[0].1.data(), lam0.data(), "adjoint");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// FD8 hits its design order of accuracy no matter how many threads run
    /// the stencil: the error for sin(k·x) on 32³ vs 64³ must shrink by
    /// ~2⁸ (measured order > 7) for every thread count.
    #[test]
    fn fd8_order_of_accuracy_independent_of_threads(
        tsel in 0usize..3,
        k in 1usize..4,
        dim in 0usize..3,
    ) {
        let nthreads = [1usize, 2, 8][tsel];
        let _guard = THREAD_LOCK.lock().unwrap();
        let err = |n: usize| -> f64 {
            let layout = Layout::serial(Grid::cube(n));
            let kr = k as Real;
            let f = ScalarField::from_fn(layout, move |x, y, z| {
                (kr * [x, y, z][dim]).sin()
            });
            let mut comm = Comm::solo();
            let d = with_threads(nthreads, || fd::gradient(&f, &mut comm).c[dim].clone());
            let exact = ScalarField::from_fn(layout, move |x, y, z| {
                kr * (kr * [x, y, z][dim]).cos()
            });
            d.data()
                .iter()
                .zip(exact.data())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        let (e32, e64) = (err(32), err(64));
        // guard against hitting machine precision (k small keeps e32 ≫ eps)
        prop_assume!(e32 > 1e-12);
        let order = (e32 / e64).log2();
        prop_assert!(
            order > 7.0,
            "FD8 order {order:.2} with {nthreads} threads (e32={e32:e}, e64={e64:e})"
        );
    }
}
