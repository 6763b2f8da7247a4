//! Tier-1 allocation-regression gate: a steady-state Gauss–Newton
//! iteration must perform **zero** heap allocations.
//!
//! The solver's hot path draws every work buffer from the claire-grid
//! workspace pools and every FFT plan from the claire-fft plan cache, so
//! once the pools are warm (after the first iteration or two) an iteration
//! is pure checkout/checkin traffic. This test installs a counting global
//! allocator, runs a warm-up solve to fill pools and plan caches, then
//! samples the allocation counter at Gauss–Newton iteration boundaries of
//! a second solve and asserts the late iterations allocate nothing.
//!
//! Pinned to 1 thread: claire-par's serial fallback runs kernels inline on
//! the calling thread (no spawns), which both makes the run deterministic
//! and keeps scoped-thread bookkeeping out of the counter.
//!
//! The whole measurement runs once per SIMD backend (scalar and auto) —
//! the vectorized kernels, including the fused PCG field-op chains, must be
//! as allocation-free as the loops they replaced — and once per
//! preconditioner: the inner H0 solve iterates
//! on pooled spectra and `2LInvH0` moves its low modes between two spectra
//! this rank owns without staging them.
//!
//! The allocation counter and the backend override are both process-wide,
//! so the tests serialize on one mutex: a concurrent test's warm-up would
//! otherwise be charged to this one's steady state.

use std::sync::{Arc, Mutex};

use claire::prelude::*;
use claire_par::alloc_counter::{allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Serializes this binary's tests (shared counter, shared backend override).
static LOCK: Mutex<()> = Mutex::new(());

const BACKENDS: [claire_simd::Choice; 2] = [claire_simd::Choice::Scalar, claire_simd::Choice::Auto];

const PRECONDS: [PrecondKind; 3] =
    [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0];

fn blob_pair(layout: Layout, shift: Real) -> (ScalarField, ScalarField) {
    let blob = move |cx: Real| {
        move |x: Real, y: Real, z: Real| {
            let d2 = (x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2);
            (-d2 / 1.2).exp()
        }
    };
    (ScalarField::from_fn(layout, blob(3.0)), ScalarField::from_fn(layout, blob(3.0 + shift)))
}

fn config() -> RegistrationConfig {
    RegistrationConfig {
        nt: 2,
        precond: PrecondKind::InvA,
        continuation: false,
        beta_target: 1e-2,
        max_gn_iter: 8,
        max_pcg_iter: 5,
        grad_rtol: 1e-14, // never converge early: we want full iterations
        verbose: false,
        ..Default::default()
    }
}

#[test]
fn steady_state_gn_iteration_is_allocation_free() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    claire::par::set_threads(1);
    claire::obs::set_enabled(false);
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(16));
    let (m0, m1) = blob_pair(layout, 0.5);

    for (choice, precond) in BACKENDS.into_iter().flat_map(|c| PRECONDS.map(|p| (c, p))) {
        claire_simd::force_backend(Some(choice));
        let cfg = RegistrationConfig { precond, ..config() };

        // Warm-up solve: fills the workspace pools and the FFT plan cache.
        let _ = Claire::new(cfg).register(&m0, &m1, &mut comm);

        // Measured solve: sample the global allocation counter at every GN
        // iteration boundary. The sample vector is pre-allocated so our own
        // bookkeeping cannot disturb the counter.
        let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(64)));
        let sink = samples.clone();
        let hooks = claire::core::SolverHooks {
            cancel: None,
            on_gn_iter: Some(Arc::new(move |_| {
                sink.lock().unwrap().push(allocation_count());
            })),
        };
        let _ = Claire::with_hooks(cfg, hooks).register(&m0, &m1, &mut comm);

        let s = samples.lock().unwrap();
        assert!(
            s.len() >= 4,
            "need several GN iterations to observe a steady state, got {} boundaries",
            s.len()
        );
        // The last boundary fires after the final full iteration; the deltas
        // between the last three boundaries cover the two last complete
        // iterations — by then every pool is warm.
        let deltas: Vec<u64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let tail = &deltas[deltas.len() - 2..];
        assert_eq!(
            tail,
            &[0, 0],
            "steady-state GN iterations must not allocate under {choice:?} with {precond:?}; \
             per-iteration allocations: {deltas:?}"
        );
    }
    claire_simd::force_backend(None);
}

/// The mixed-precision seam must not cost the zero-alloc property: the f32
/// inner PCG draws its demoted fields from the f32 workspace pool and its
/// promote/demote scratch from the f64 pool, so once both pools are warm a
/// mixed GN iteration is checkout/checkin traffic like the f64 one.
#[test]
fn steady_state_mixed_gn_iteration_is_allocation_free() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    claire::par::set_threads(1);
    claire::obs::set_enabled(false);
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(16));
    let (m0, m1) = blob_pair(layout, 0.5);

    for (choice, precond) in BACKENDS.into_iter().flat_map(|c| PRECONDS.map(|p| (c, p))) {
        claire_simd::force_backend(Some(choice));
        let cfg =
            RegistrationConfig { precision: claire::core::Precision::Mixed, precond, ..config() };

        let _ = Claire::new(cfg).register(&m0, &m1, &mut comm);

        let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(64)));
        let sink = samples.clone();
        let hooks = claire::core::SolverHooks {
            cancel: None,
            on_gn_iter: Some(Arc::new(move |_| {
                sink.lock().unwrap().push(allocation_count());
            })),
        };
        let (_, report) = Claire::with_hooks(cfg, hooks).register(&m0, &m1, &mut comm);
        assert_eq!(report.precision, "mixed");

        let s = samples.lock().unwrap();
        assert!(
            s.len() >= 4,
            "need several GN iterations to observe a steady state, got {} boundaries",
            s.len()
        );
        let deltas: Vec<u64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let tail = &deltas[deltas.len() - 2..];
        assert_eq!(
            tail,
            &[0, 0],
            "steady-state mixed-precision GN iterations must not allocate under {choice:?} \
             with {precond:?}; per-iteration allocations: {deltas:?}"
        );
    }
    claire_simd::force_backend(None);
}

/// On p > 1 ranks a plan build and an evaluation allocate per message, never
/// per site: the queries another rank owns go into buckets sized by a count
/// first, and every other buffer is pooled or one per peer. So a warm build
/// plus evaluation allocates as often for a query set as for one four times
/// larger. The counter is process-wide and both ranks run in this process;
/// a channel may allocate a block now and then, on either side of a window,
/// so each size takes the fewest allocations over several rounds.
#[test]
fn distributed_plan_allocates_per_message_not_per_site() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    claire::par::set_threads(1);
    claire::obs::set_enabled(false);
    let grid = Grid::new([16, 8, 8]);
    let res = run_cluster(Topology::new(2, 1), move |comm| {
        let layout = Layout::distributed(grid, comm);
        let f = ScalarField::from_fn(layout, |x, y, z| x.sin() * y.cos() + z);
        let ip = claire::interp::Interpolator::new(IpOrder::Cubic);
        // spread over every plane: about half of each rank's queries travel
        let queries = |n: usize| -> Vec<[Real; 3]> {
            let s = claire::grid::TWO_PI / n as Real;
            (0..n)
                .map(|i| [i as Real * s, (7 * i % n) as Real * s, (3 * i % n) as Real * s])
                .collect()
        };
        let (small, large) = (queries(300 + 17 * comm.rank()), queries(1200 + 68 * comm.rank()));
        let mut out = vec![0.0 as Real; large.len()];
        let mut round = |q: &[[Real; 3]], comm: &mut Comm| {
            let before = allocation_count();
            comm.barrier();
            let plan = ip.plan(layout, q, comm);
            ip.evaluate(&plan, &[&f], comm, &mut [&mut out[..q.len()]]);
            drop(plan);
            comm.barrier();
            allocation_count() - before
        };
        for _ in 0..3 {
            round(&small, comm);
            round(&large, comm);
        }
        let mut fewest = [u64::MAX; 2];
        for _ in 0..8 {
            fewest[0] = fewest[0].min(round(&small, comm));
            fewest[1] = fewest[1].min(round(&large, comm));
        }
        fewest
    });
    for (rank, [small, large]) in res.outputs.iter().enumerate() {
        assert_eq!(
            small, large,
            "rank {rank}: a warm 2-rank plan build and evaluation allocate {small} times for a \
             query set and {large} times for one 4x larger"
        );
    }
}
