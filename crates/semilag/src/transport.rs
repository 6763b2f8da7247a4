//! The four transport solves of the optimality system.

use claire_diff::fd::{self, FdScratch};
use claire_grid::workspace::{PoolVec, WsCat, SCALAR_FIELDS, VECTOR_FIELDS};
use claire_grid::{Real, ScalarField, VectorField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_obs::span::span;
use claire_par::timing::{self, Kernel};
use claire_par::Split;

use crate::traj::Trajectory;

/// Solution of the state equation: the transported intensities at every
/// time step (`m[j] ≈ m(·, t_j)`, `j = 0..=nt`), optionally with their
/// gradients.
///
/// CLAIRE stores `m` for all time steps "to avoid additional PDE solves"
/// (§3); storing `∇m` as well is the paper's speed/memory trade-off that
/// buys ~15% runtime for `3·Nt·N` extra words. Both time-series containers
/// are pooled (µPDE budget), as is the storage of every field inside them.
pub struct StateSolution {
    /// `m(·, t_j)` for `j = 0..=nt`.
    pub m: PoolVec<ScalarField>,
    /// `∇m(·, t_j)` if requested (the `store_grad` option).
    pub grad_m: Option<PoolVec<VectorField>>,
}

impl StateSolution {
    /// The deformed template `m(·, 1)`.
    pub fn final_state(&self) -> &ScalarField {
        self.m.last().expect("state solution is never empty")
    }

    /// Fill [`StateSolution::grad_m`] from the stored series (8th-order FD)
    /// — what solving with `store_grad` does. Collective.
    pub fn store_gradients(&mut self, comm: &mut Comm) {
        // one halo shared across all Nt+1 gradients
        let mut scratch = FdScratch::new();
        let mut gs = VECTOR_FIELDS.checkout(self.m.len(), WsCat::Pde);
        for mj in self.m.iter() {
            let mut g = VectorField::for_overwrite(*mj.layout());
            fd::gradient_into(mj, comm, &mut g, &mut scratch);
            gs.push(g);
        }
        self.grad_m = Some(gs);
    }

    /// `∇m(·, t_j)` one x3-row tile at a time, as [`fd::gradient_tiles`]
    /// hands it out: sliced from [`StateSolution::grad_m`] when the series
    /// was solved with `store_grad`, made by 8th-order FD from `m[j]`
    /// otherwise. Both walk the tiles of [`fd::row_tiles`], hand each its
    /// own part of `out` and hold the same values, so a consumer has one
    /// code path. Collective.
    pub fn grad_tiles<P, F>(&self, j: usize, comm: &mut Comm, out: P, each: F)
    where
        P: Split,
        F: Fn(usize, [&[Real]; 3], P) + Sync,
    {
        let Some(stored) = &self.grad_m else {
            return fd::gradient_tiles(&self.m[j], comm, out, each);
        };
        let g = stored[j].c.each_ref().map(|c| c.data());
        timing::time(Kernel::FieldOps, || {
            fd::row_tiles(stored[j].layout().local_dims(), out, |t, _, part| {
                each(t.at, g.map(|c| &c[t.range()]), part);
            });
        });
    }
}

/// Semi-Lagrangian transport driver (fixed `Nt` and interpolation order).
pub struct Transport {
    /// Number of time steps (paper: 4/8/16 for 256³/512³/1024³).
    pub nt: usize,
    /// Interpolation kernel; every solve asserts that its `interp` argument
    /// has this order.
    pub order: IpOrder,
}

impl Transport {
    /// New driver.
    pub fn new(nt: usize, order: IpOrder) -> Transport {
        Transport { nt, order }
    }

    /// A solve interpolates with `interp`: it must be of this transport's order.
    fn check_order(&self, interp: &Interpolator) {
        assert_eq!(interp.order, self.order, "interpolator order differs from the transport's");
    }

    /// Solve the state equation (1b) forward: `∂t m + v·∇m = 0`,
    /// `m(0) = m0`. Returns the full time series (and gradients if
    /// `store_grad`).
    pub fn solve_state(
        &self,
        traj: &Trajectory,
        m0: &ScalarField,
        store_grad: bool,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> StateSolution {
        self.check_order(interp);
        let _s = span("semilag.state");
        let mut m = SCALAR_FIELDS.checkout(self.nt + 1, WsCat::Pde);
        m.push(m0.clone());
        for j in 0..self.nt {
            let mut next = ScalarField::for_overwrite(*m0.layout());
            interp.evaluate(traj.back(), &[&m[j]], comm, &mut [next.data_mut()]);
            m.push(next);
        }
        let mut sol = StateSolution { m, grad_m: None };
        if store_grad {
            sol.store_gradients(comm);
        }
        sol
    }

    /// Solve a continuity equation backward in time:
    /// `−∂t λ − ∇·(λ v) = 0` with `λ(·, 1) = final_cond`, handing each
    /// `λ(·, t_j)` to `each(j, λ_j, comm)` as it is made (`j = nt, …, 0`)
    /// while holding two fields: a consumer that folds the series into a
    /// sum (the gradient's and the matvec's `∫ λ ∇m dt`) never stores it.
    ///
    /// Used for both the adjoint (3) (`λ(1) = m1 − m(1)`) and the
    /// incremental adjoint (7) (`λ̃(1) = −m̃(1)`). Integrates along the
    /// characteristics of `−v` with a trapezoidal exponential source for
    /// `λ ∇·v` (2nd order), which the trajectory holds as one growth factor
    /// per point. `final_cond` becomes one of the two fields.
    pub fn adjoint_steps(
        &self,
        traj: &Trajectory,
        final_cond: ScalarField,
        interp: &Interpolator,
        comm: &mut Comm,
        mut each: impl FnMut(usize, &ScalarField, &mut Comm),
    ) {
        self.check_order(interp);
        let _s = span("semilag.adjoint");
        let family = traj.adjoint();
        let mut lam = final_cond;
        let mut next = ScalarField::for_overwrite(*lam.layout());
        each(self.nt, &lam, comm);
        for j in (0..self.nt).rev() {
            // λ_j = λ_{j+1}(X) · growth, the factor applied as each value is
            // stored
            interp.evaluate_scaled(&family.plan, &lam, &family.growth, comm, next.data_mut());
            std::mem::swap(&mut lam, &mut next);
            each(j, &lam, comm);
        }
    }

    /// [`Transport::adjoint_steps`], collected: `λ(·, t_j)` for
    /// `j = 0..=nt`, the whole series held at once.
    pub fn solve_adjoint(
        &self,
        traj: &Trajectory,
        final_cond: &ScalarField,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> PoolVec<ScalarField> {
        let mut lambda = SCALAR_FIELDS.checkout(self.nt + 1, WsCat::Pde);
        self.adjoint_steps(traj, final_cond.clone(), interp, comm, |_, lam, _| {
            lambda.push(lam.clone())
        });
        lambda.reverse(); // index j now corresponds to time t_j
        lambda
    }

    /// Solve the incremental state equation (6) forward:
    /// `∂t m̃ + v·∇m̃ + ṽ·∇m = 0`, `m̃(0) = 0`. Returns `m̃(·, 1)`.
    ///
    /// Needs `∇m` at every step — taken from the [`StateSolution`] cache if
    /// present (the paper's "store the gradient of the state variable"
    /// option), otherwise recomputed with FD.
    pub fn solve_inc_state(
        &self,
        traj: &Trajectory,
        vt: &VectorField,
        state: &StateSolution,
        interp: &Interpolator,
        comm: &mut Comm,
    ) -> ScalarField {
        self.check_order(interp);
        let _s = span("semilag.inc_state");
        let layout = *state.m[0].layout();
        // trapezoid: m̃_{j+1}(x) = [m̃_j − ½δt·b_j](X) − ½δt·b_{j+1}(x) with
        // the source b_j = ṽ·∇m_j. The interpolant is linear in its field,
        // so the bracket is interpolated as one field, `w`; the pass after
        // takes off δt·b_{j+1} — this step's half and the next bracket's —
        // and only ½δt·b_nt at the last step, which leaves m̃(1).
        let mut w = ScalarField::zeros(layout);
        sub_source(&mut w, 0.5 * traj.dt, vt, state, 0, comm);
        for j in 1..=self.nt {
            let mut next = ScalarField::for_overwrite(layout);
            interp.evaluate(traj.back(), &[&w], comm, &mut [next.data_mut()]);
            let c = if j < self.nt { traj.dt } else { 0.5 * traj.dt };
            sub_source(&mut next, c, vt, state, j, comm);
            w = next;
        }
        w
    }
}

/// `f −= c·(ṽ·∇m_j)` in one pass, reading `∇m_j` by row tiles.
fn sub_source(
    f: &mut ScalarField,
    c: Real,
    vt: &VectorField,
    state: &StateSolution,
    j: usize,
    comm: &mut Comm,
) {
    let [v1, v2, v3] = vt.c.each_ref().map(|c| c.data());
    state.grad_tiles(j, comm, f.data_mut(), |at, [g1, g2, g3], dst| {
        let n = g1.len();
        let tile = at..at + n;
        let (v1, v2, v3) = (&v1[tile.clone()], &v2[tile.clone()], &v3[tile]);
        let (g2, g3) = (&g2[..n], &g3[..n]);
        for k in 0..n {
            dst[k] -= c * (v1[k] * g1[k] + v2[k] * g2[k] + v3[k] * g3[k]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout, Real};
    use claire_mpi::{run_cluster, Topology};

    fn solo_setup(n: usize, nt: usize) -> (Layout, Transport, Interpolator, Comm) {
        let layout = Layout::serial(Grid::cube(n));
        (
            layout,
            Transport::new(nt, IpOrder::Cubic),
            Interpolator::new(IpOrder::Cubic),
            Comm::solo(),
        )
    }

    #[test]
    fn translation_transports_exactly() {
        let (layout, tr, ip, mut comm) = solo_setup(32, 8);
        let c = 0.5 as Real;
        let v = VectorField::from_fns(layout, move |_, _, _| c, |_, _, _| 0.0, |_, _, _| 0.0);
        let m0 = ScalarField::from_fn(layout, |x, _, _| x.sin());
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let sol = tr.solve_state(&traj, &m0, false, &ip, &mut comm);
        let expect = ScalarField::from_fn(layout, move |x, _, _| (x - c).sin());
        let err = sol
            .final_state()
            .data()
            .iter()
            .zip(expect.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 5e-4, "translation error {err}");
    }

    #[test]
    fn zero_velocity_is_identity() {
        let (layout, tr, ip, mut comm) = solo_setup(8, 4);
        let v = VectorField::zeros(layout);
        let m0 = ScalarField::from_fn(layout, |x, y, z| (x * y).sin() + z);
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let sol = tr.solve_state(&traj, &m0, false, &ip, &mut comm);
        let err = sol
            .final_state()
            .data()
            .iter()
            .zip(m0.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "v=0 must be exact identity: {err}");
        // adjoint with v=0 is also the identity
        let lam1 = ScalarField::from_fn(layout, |x, _, _| x.cos());
        let lam = tr.solve_adjoint(&traj, &lam1, &ip, &mut comm);
        assert_eq!(lam.len(), tr.nt + 1);
        let err =
            lam[0].data().iter().zip(lam1.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-12, "adjoint with v=0: {err}");
    }

    #[test]
    fn state_solve_matches_over_socket_transport() {
        // A distributed semi-Lagrangian state solve (trajectory + ghost
        // exchanges + scattered interpolation) is bitwise transport-invariant.
        let grid = Grid::cube(8);
        let f = move |comm: &mut Comm| {
            let layout = Layout::distributed(grid, comm);
            let tr = Transport::new(4, IpOrder::Linear);
            let ip = Interpolator::new(IpOrder::Linear);
            let v = VectorField::from_fns(
                layout,
                |_, y, _| 0.3 * y.sin(),
                |x, _, _| 0.2 * x.cos(),
                |_, _, z| 0.1 * (2.0 * z).sin(),
            );
            let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y - z).cos());
            let traj = Trajectory::compute(&v, tr.nt, &ip, comm);
            let sol = tr.solve_state(&traj, &m0, false, &ip, comm);
            sol.final_state().data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let chan = run_cluster(Topology::new(2, 4), f);
        let sock = claire_ipc::run_socket_cluster(Topology::new(2, 4), f);
        assert_eq!(chan.outputs, sock.outputs, "transports must agree bitwise");
    }

    #[test]
    fn scatter_traffic_is_per_plan_not_per_step() {
        // The departure points are stationary: on 2 ranks their queries are
        // routed once, when the trajectory plans them, and the Nt steps of
        // a state solve ship only ghosts and values. A one-shot call still
        // pays one plan build each time.
        use claire_mpi::CommCat;
        let grid = Grid::new([12, 8, 8]);
        let res = run_cluster(Topology::new(2, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let tr = Transport::new(4, IpOrder::Cubic);
            let ip = Interpolator::new(IpOrder::Cubic);
            let v = VectorField::from_fns(
                layout,
                |_, y, _| 0.9 * y.sin(),
                |x, _, _| 0.2 * x.cos(),
                |_, _, z| 0.1 * (2.0 * z).sin(),
            );
            let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y - z).cos());
            let traj = Trajectory::backward(&v, tr.nt, &ip, comm);
            let sent = |comm: &Comm, cat| comm.stats().cat(cat).bytes_sent;

            let (s0, v0) = (sent(comm, CommCat::Scatter), sent(comm, CommCat::InterpValues));
            std::hint::black_box(ip.plan(layout, &traj.foot_back, comm));
            let plan_bytes = sent(comm, CommCat::Scatter) - s0;

            let s1 = sent(comm, CommCat::Scatter);
            let _ = tr.solve_state(&traj, &m0, false, &ip, comm);
            let solve_bytes = sent(comm, CommCat::Scatter) - s1;
            let value_bytes = sent(comm, CommCat::InterpValues) - v0;

            let s2 = sent(comm, CommCat::Scatter);
            for _ in 0..tr.nt {
                let _ = ip.interp(&m0, &traj.foot_back, comm);
            }
            let one_shot_bytes = sent(comm, CommCat::Scatter) - s2;
            (plan_bytes, solve_bytes, value_bytes, one_shot_bytes)
        });
        for (rank, &(plan, solve, _, one_shot)) in res.outputs.iter().enumerate() {
            assert!(plan > 0, "rank {rank}: the test velocity must carry points across the slab");
            assert_eq!(solve, 0, "rank {rank}: a state solve re-routed its departure points");
            assert_eq!(one_shot, 4 * plan, "rank {rank}: one plan build per one-shot call");
        }
        // every routed query (24 B to its owner) comes back as one value
        // (8 B from its owner) per step
        let (plans, values): (u64, u64) =
            res.outputs.iter().fold((0, 0), |(p, v), o| (p + o.0, v + o.2));
        assert_eq!(values * 3, 4 * plans, "value return per step");
    }

    #[test]
    #[should_panic(expected = "backward-only trajectory")]
    fn adjoint_solve_needs_the_full_trajectory() {
        let (layout, tr, ip, mut comm) = solo_setup(8, 2);
        let traj = Trajectory::backward(&VectorField::zeros(layout), tr.nt, &ip, &mut comm);
        tr.solve_adjoint(&traj, &ScalarField::zeros(layout), &ip, &mut comm);
    }

    #[test]
    #[should_panic(expected = "interpolator order differs from the transport's")]
    fn a_solve_refuses_an_interpolator_of_another_order() {
        let (layout, _, ip, mut comm) = solo_setup(8, 2);
        let linear = Transport::new(2, IpOrder::Linear);
        let traj = Trajectory::backward(&VectorField::zeros(layout), linear.nt, &ip, &mut comm);
        linear.solve_state(&traj, &ScalarField::zeros(layout), false, &ip, &mut comm);
    }

    #[test]
    fn collected_adjoint_is_the_streamed_loop() {
        let (layout, tr, ip, mut comm) = solo_setup(12, 4);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.2 * x.cos(),
            |_, _, z| 0.1 * (2.0 * z).sin(),
        );
        let lam1 = ScalarField::from_fn(layout, |x, y, z| x.cos() + (y - z).sin());
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let bits = |f: &ScalarField| f.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let collected = tr.solve_adjoint(&traj, &lam1, &ip, &mut comm);
        let mut streamed = Vec::new();
        tr.adjoint_steps(&traj, lam1.clone(), &ip, &mut comm, |j, lam, _| {
            streamed.push((j, bits(lam)))
        });
        let order: Vec<usize> = streamed.iter().map(|(j, _)| *j).collect();
        assert_eq!(order, (0..=tr.nt).rev().collect::<Vec<_>>(), "λ_j from t = 1 down to 0");
        assert_eq!(collected.len(), tr.nt + 1);
        for (j, lam) in streamed {
            assert_eq!(bits(&collected[j]), lam, "λ_{j}");
        }
        assert_eq!(bits(&collected[tr.nt]), bits(&lam1), "the final condition comes first");
    }

    #[test]
    fn adjoint_conserves_mass() {
        // the continuity equation conserves ∫λ dx exactly in the continuum
        let (layout, tr, ip, mut comm) = solo_setup(24, 8);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.2 * x.cos(),
            |_, _, z| 0.1 * (2.0 * z).sin(),
        );
        let lam1 = ScalarField::from_fn(layout, |x, y, _| 1.0 + 0.5 * (x + y).sin());
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let lam = tr.solve_adjoint(&traj, &lam1, &ip, &mut comm);
        let mass1 = lam1.sum(&mut comm);
        let mass0 = lam[0].sum(&mut comm);
        let rel = ((mass1 - mass0) / mass1).abs();
        assert!(rel < 5e-3, "mass drift {rel}");
    }

    #[test]
    fn incremental_state_is_directional_derivative() {
        let (layout, tr, ip, mut comm) = solo_setup(16, 4);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.2 * y.sin(),
            |x, _, _| 0.1 * x.cos(),
            |_, _, _| 0.0,
        );
        let vt = VectorField::from_fns(
            layout,
            |x, _, _| 0.5 * x.cos(),
            |_, _, z| 0.3 * z.sin(),
            |_, y, _| 0.2 * y.cos(),
        );
        let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y - z).cos());

        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let state = tr.solve_state(&traj, &m0, true, &ip, &mut comm);
        let mt = tr.solve_inc_state(&traj, &vt, &state, &ip, &mut comm);

        // finite-difference directional derivative
        let eps = 1e-4 as Real;
        let mut v_pert = v.clone();
        v_pert.axpy(eps, &vt);
        let traj_p = Trajectory::compute(&v_pert, tr.nt, &ip, &mut comm);
        let m_pert = tr.solve_state(&traj_p, &m0, false, &ip, &mut comm);
        let mut fd = m_pert.final_state().clone();
        fd.axpy(-1.0, state.final_state());
        fd.scale(1.0 / eps);

        let num = {
            let mut d = fd.clone();
            d.axpy(-1.0, &mt);
            d.norm_l2(&mut comm)
        };
        let den = fd.norm_l2(&mut comm).max(1e-12);
        assert!(num / den < 0.05, "incremental state mismatch: rel {num}/{den}");
    }

    #[test]
    fn one_field_incremental_state_matches_the_two_field_formula() {
        // m̃_{j+1}(x) = m̃_j(X) − ½δt·(b_j(X) + b_{j+1}(x)), interpolating m̃_j
        // and b_j as two fields: what `solve_inc_state` computes from the
        // one field m̃_j − ½δt·b_j, by linearity of the interpolant
        let (layout, tr, ip, mut comm) = solo_setup(12, 4);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.2 * x.cos(),
            |_, _, z| 0.1 * (2.0 * z).sin(),
        );
        let vt = VectorField::from_fns(
            layout,
            |x, _, _| 0.5 * x.cos(),
            |_, _, z| 0.3 * z.sin(),
            |_, y, _| 0.2 * y.cos(),
        );
        let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y - z).cos());
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let state = tr.solve_state(&traj, &m0, true, &ip, &mut comm);
        let got = tr.solve_inc_state(&traj, &vt, &state, &ip, &mut comm);

        let n = layout.local_len();
        let source = |j: usize| -> Vec<Real> {
            let g = &state.grad_m.as_ref().unwrap()[j];
            (0..n).map(|i| (0..3).map(|d| vt.c[d].data()[i] * g.c[d].data()[i]).sum()).collect()
        };
        let mut mt = ScalarField::zeros(layout);
        for j in 0..tr.nt {
            let b_j = ScalarField::from_data(layout, source(j));
            let b_next = source(j + 1);
            let (mut mt_foot, mut b_foot) = (vec![0.0; n], vec![0.0; n]);
            ip.evaluate(traj.back(), &[&mt, &b_j], &mut comm, &mut [&mut mt_foot, &mut b_foot]);
            for (i, o) in mt.data_mut().iter_mut().enumerate() {
                *o = mt_foot[i] - 0.5 * traj.dt * (b_foot[i] + b_next[i]);
            }
        }
        let err =
            got.data().iter().zip(mt.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(mt.max_abs(&mut comm) > 1e-2, "the reference must not be trivially zero");
        assert!(err < 1e-12, "one-field vs two-field incremental state: {err}");
    }

    #[test]
    fn store_grad_matches_recompute() {
        // a cube, and rows that end in a ragged tile, on one and two ranks
        let grids = [[12; 3], [8, 4, 2 * fd::TILE + 6]];
        for (n, p) in grids.into_iter().flat_map(|n| [(n, 1), (n, 2)]) {
            let grid = Grid::new(n);
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let (tr, ip) =
                    (Transport::new(4, IpOrder::Cubic), Interpolator::new(IpOrder::Cubic));
                let v = VectorField::from_fns(
                    layout,
                    |_, y, _| 0.2 * y.sin(),
                    |x, _, _| 0.1 * x.sin(),
                    |_, _, _| 0.0,
                );
                let vt =
                    VectorField::from_fns(layout, |x, _, _| x.cos(), |_, _, _| 0.1, |_, _, _| 0.0);
                let m0 = ScalarField::from_fn(layout, |x, y, _| (x + y).sin());
                let traj = Trajectory::compute(&v, tr.nt, &ip, comm);
                let with = tr.solve_state(&traj, &m0, true, &ip, comm);
                let without = tr.solve_state(&traj, &m0, false, &ip, comm);
                let a = tr.solve_inc_state(&traj, &vt, &with, &ip, comm);
                let b = tr.solve_inc_state(&traj, &vt, &without, &ip, comm);
                (a.into_data(), b.into_data())
            });
            for (rank, (a, b)) in res.outputs.iter().enumerate() {
                // the stored and the swept tiles hold the same values
                assert_eq!(a, b, "{n:?} p={p} rank {rank}: store_grad must not change results");
            }
        }
    }

    #[test]
    fn distributed_state_matches_serial() {
        let grid = Grid::new([16, 8, 8]);
        // serial reference
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let ip = Interpolator::new(IpOrder::Linear);
        let tr = Transport::new(4, IpOrder::Linear);
        let v = VectorField::from_fns(
            layout,
            |_, y, _| 0.3 * y.sin(),
            |x, _, _| 0.2 * x.cos(),
            |_, _, _| 0.1,
        );
        let m0 = ScalarField::from_fn(layout, |x, y, z| x.sin() + (y * 2.0).cos() + z * 0.1);
        let traj = Trajectory::compute(&v, tr.nt, &ip, &mut comm);
        let expect =
            tr.solve_state(&traj, &m0, false, &ip, &mut comm).final_state().data().to_vec();

        for p in [2usize, 4] {
            let expect = expect.clone();
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let v = VectorField::from_fns(
                    layout,
                    |_, y, _| 0.3 * y.sin(),
                    |x, _, _| 0.2 * x.cos(),
                    |_, _, _| 0.1,
                );
                let m0 =
                    ScalarField::from_fn(layout, |x, y, z| x.sin() + (y * 2.0).cos() + z * 0.1);
                let ip = Interpolator::new(IpOrder::Linear);
                let tr = Transport::new(4, IpOrder::Linear);
                let traj = Trajectory::compute(&v, tr.nt, &ip, comm);
                let sol = tr.solve_state(&traj, &m0, false, &ip, comm);
                claire_grid::redist::gather(sol.final_state(), comm).map(|g| g.into_data())
            });
            let got = res.outputs[0].as_ref().unwrap();
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert!((a - b).abs() < 1e-10, "p={p} idx={i}: {a} vs {b}");
            }
        }
    }
}
