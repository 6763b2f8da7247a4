//! Property-based tests of cross-crate invariants (proptest).

use claire::fft::{DistFft, Fft3};
use claire::grid::{ghost, redist, Grid, Layout, Real, ScalarField, VectorField};
use claire::interp::{kernel::interp_serial, IpOrder};
use claire::mpi::{run_cluster, Comm, Topology};
use proptest::prelude::*;

/// Deterministic pseudo-random field values from a seed.
fn seeded_field(layout: Layout, seed: u64) -> ScalarField {
    let mut f = ScalarField::zeros(layout);
    let i0 = layout.slab.i0 as u64;
    let [ni, n2, n3] = layout.local_dims();
    for il in 0..ni {
        for j in 0..n2 {
            for k in 0..n3 {
                let h = (i0 + il as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
                    .wrapping_add((k as u64).wrapping_mul(0xA24BAED4963EE407))
                    .wrapping_add(seed);
                *f.at_mut(il, j, k) = ((h >> 17) % 2000) as Real / 1000.0 - 1.0;
            }
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// FFT round-trips on random even-size grids (mixed radices).
    #[test]
    fn fft3_roundtrip_random_grids(
        n1 in 2usize..10, n2 in 2usize..10, half3 in 1usize..6, seed in 0u64..1000
    ) {
        let grid = Grid::new([n1.max(2), n2.max(2), 2 * half3]);
        let f = seeded_field(Layout::serial(grid), seed);
        let plan = Fft3::new(grid);
        let mut spec = vec![claire::fft::Cpx::ZERO; plan.spectral_len()];
        plan.forward(f.data(), &mut spec);
        let mut back = vec![0.0 as Real; grid.len()];
        plan.inverse(&mut spec, &mut back);
        for (a, b) in back.iter().zip(f.data()) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Parseval / Plancherel for the distributed FFT on 2 ranks.
    #[test]
    fn dist_fft_preserves_energy(seed in 0u64..200) {
        let grid = Grid::new([8, 6, 4]);
        let res = run_cluster(Topology::new(2, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = seeded_field(layout, seed);
            let e_time = f.dot(&f, comm);
            let dfft = DistFft::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            // Hermitian half-spectrum weights
            let n3c = spec.n3c();
            let mut local = 0.0f64;
            for idx in 0..spec.data.len() {
                let k = idx % n3c;
                let w = if k == 0 || k == grid.n[2] / 2 { 1.0 } else { 2.0 };
                local += w * spec.data[idx].norm_sqr();
            }
            let e_freq = comm.allreduce_sum_scalar(local) / grid.len() as f64;
            (e_time, e_freq)
        });
        let (et, ef) = res.outputs[0];
        prop_assert!((et - ef).abs() < 1e-6 * et.max(1.0), "{et} vs {ef}");
    }

    /// Interpolation is a convex-combination for trilinear: values stay
    /// within the field's range.
    #[test]
    fn trilinear_respects_bounds(seed in 0u64..200, qx in 0.0f64..1.0, qy in 0.0f64..1.0, qz in 0.0f64..1.0) {
        let grid = Grid::cube(8);
        let f = seeded_field(Layout::serial(grid), seed);
        let (lo, hi) = f.data().iter().fold((Real::MAX, Real::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        let q = [
            qx as Real * claire::grid::TWO_PI,
            qy as Real * claire::grid::TWO_PI,
            qz as Real * claire::grid::TWO_PI,
        ];
        let v = interp_serial(&f, IpOrder::Linear, q);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
    }

    /// Ghost halos agree with the periodic extension at every stored point
    /// — x1, x2 and x3 halos and their corners — for random widths, rank
    /// counts and thin grids (a width above `n2`/`n3` wraps more than once).
    #[test]
    fn ghost_matches_periodic_extension(
        p in 1usize..5, width in 1usize..5, n2 in 2usize..6, n3 in 2usize..6, seed in 0u64..100
    ) {
        let grid = Grid::new([12, n2, n3]);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = seeded_field(layout, seed);
            let gf = ghost::exchange(&f, width, comm);
            // rebuild the full field to cross-check halos
            let full = redist::replicate(&f, comm);
            let (w, [ni, n2, n3]) = (width as isize, layout.local_dims().map(|n| n as isize));
            let mut max_err = 0.0 as Real;
            let mut visited = 0;
            for i in -w..ni + w {
                for j in -w..n2 + w {
                    for k in -w..n3 + w {
                        let gi = grid.wrap(0, layout.slab.i0 as isize + i);
                        let want = full.at(gi, grid.wrap(1, j), grid.wrap(2, k));
                        max_err = max_err.max((gf.at(i, j, k) - want).abs());
                        visited += 1;
                    }
                }
            }
            assert_eq!(visited, gf.data().len(), "every stored point is checked");
            max_err
        });
        for &e in &res.outputs {
            prop_assert!(e == 0.0, "halo mismatch {e}");
        }
    }

    /// The Gauss–Newton Hessian is symmetric positive semi-definite in the
    /// L2 inner product for random smooth velocities.
    #[test]
    fn hessian_spd_random_directions(seed in 0u64..20) {
        use claire::core::{PrecondKind, RegProblem, RegistrationConfig};
        use claire::opt::GnProblem;
        let mut comm = Comm::solo();
        let layout = Layout::serial(Grid::cube(8));
        let m0 = claire::data::brain::subject("na02", layout, &mut comm);
        let m1 = claire::data::brain::subject("na01", layout, &mut comm);
        let cfg = RegistrationConfig {
            nt: 4,
            ip_order: IpOrder::Cubic,
            precond: PrecondKind::InvA,
            continuation: false,
            ..Default::default()
        };
        let mut prob = RegProblem::new(m0, m1, cfg, &mut comm).expect("matching layouts by construction");
        prob.set_beta(0.1);
        let v = claire::data::brain::random_smooth_velocity(layout, seed, 0.2, 2);
        let _ = prob.gradient(&v, &mut comm);
        let x = claire::data::brain::random_smooth_velocity(layout, seed + 100, 1.0, 2);
        let hx = prob.hess_vec(&x, &mut comm);
        let xhx = x.inner(&hx, &mut comm);
        prop_assert!(xhx > 0.0, "curvature {xhx} must be positive");
    }
}

/// Adjoint-transport duality: for divergence-free v, the continuity and
/// advection equations coincide, and ⟨m(1), λ(1)⟩ ≈ ⟨m(0), λ(0)⟩ (the
/// discrete adjoint pairing is conserved along the flow).
#[test]
fn transport_adjoint_pairing_conserved() {
    use claire::interp::Interpolator;
    use claire::semilag::{Trajectory, Transport};
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(24));
    // divergence-free velocity: v = (sin x2, sin x3, sin x1)
    let v = VectorField::from_fns(
        layout,
        |_, y, _| 0.3 * y.sin(),
        |_, _, z| 0.3 * z.sin(),
        |x, _, _| 0.3 * x.sin(),
    );
    let m0 = ScalarField::from_fn(layout, |x, y, _| (x + y).sin());
    let lam1 = ScalarField::from_fn(layout, |_, y, z| (y - z).cos());
    let ip = Interpolator::new(IpOrder::Cubic);
    let tr = Transport::new(8, IpOrder::Cubic);
    let traj = Trajectory::compute(&v, 8, &ip, &mut comm);
    let m = tr.solve_state(&traj, &m0, false, &ip, &mut comm);
    let lam = tr.solve_adjoint(&traj, &lam1, &ip, &mut comm);
    let pair_end = m.final_state().inner(&lam1, &mut comm);
    let pair_start = m0.inner(&lam[0], &mut comm);
    let rel = ((pair_end - pair_start) / pair_end.abs().max(1e-12)).abs();
    assert!(rel < 2e-2, "adjoint pairing drift {rel}: {pair_start} vs {pair_end}");
}
