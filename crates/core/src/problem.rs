//! The PDE-constrained registration problem (objective, gradient, Hessian).

use claire_diff::Spectral;
use claire_grid::{ClaireError, ClaireResult, Layout, Real, ScalarField, VectorField};
use claire_interp::Interpolator;
use claire_mpi::Comm;
use claire_opt::GnProblem;
use claire_semilag::{StateSolution, Trajectory, Transport};

use crate::config::RegistrationConfig;
use crate::precond::PrecondState;

/// A state solve [`RegProblem`] keeps: the velocity it was made at (a pooled
/// copy, matched bit for bit), its characteristics and its state series.
struct Solved {
    v: VectorField,
    traj: Trajectory,
    state: StateSolution,
}

/// A trajectory [`RegProblem`] keeps: its departure points are planned,
/// and nothing in a solve reads their coordinates again (the report's
/// deformation map builds a trajectory of its own), so their buffer goes
/// back to the pool.
fn kept(mut traj: Trajectory) -> Trajectory {
    traj.foot_back.release();
    traj
}

/// Equality of bit patterns, not of values: `-0.0` is not `0.0`.
fn same_bits(a: &VectorField, b: &VectorField) -> bool {
    let same = |x: &ScalarField, y: &ScalarField| {
        x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.c.iter().zip(&b.c).all(|(x, y)| same(x, y))
}

/// The registration problem for one (template, reference) pair at one β.
///
/// Implements [`GnProblem`]; the β-continuation loop ([`crate::solver`])
/// re-uses one `RegProblem` across levels via [`RegProblem::set_beta`].
pub struct RegProblem {
    layout: Layout,
    cfg: RegistrationConfig,
    beta: f64,
    m0: ScalarField,
    m1: ScalarField,
    transport: Transport,
    interp: Interpolator,
    /// Preconditioner state and counters.
    pub pc: PrecondState,
    /// `‖m0 − m1‖`, the denominator of [`RegProblem::rel_mismatch`].
    mismatch0: f64,
    /// The linearization point: the last gradient's solve, with both
    /// characteristic families (Hessian matvecs are evaluated there), until
    /// the first evaluation away from it.
    cur: Option<Solved>,
    /// The last objective evaluation, with the backward characteristics
    /// only; the gradient at the same `v` adopts it.
    eval: Option<Solved>,
}

impl RegProblem {
    /// Build the problem. Collective (plans FFTs, computes `∇m0`). Returns
    /// a typed error when the template and reference layouts differ or the
    /// grid dimensions are unusable for the spectral/stencil machinery.
    pub fn new(
        m0: ScalarField,
        m1: ScalarField,
        cfg: RegistrationConfig,
        comm: &mut Comm,
    ) -> ClaireResult<RegProblem> {
        let layout = *m0.layout();
        if *m1.layout() != layout {
            return Err(ClaireError::LayoutMismatch {
                context: "RegProblem::new",
                message: format!(
                    "template layout {layout:?} != reference layout {:?}",
                    m1.layout()
                ),
            });
        }
        cfg.validate_grid(layout.grid, comm.size())?;
        let pc = PrecondState::new(&cfg, &m0, comm);
        let mut den = m0.clone();
        den.axpy(-1.0, &m1);
        Ok(RegProblem {
            mismatch0: den.norm_l2(comm).max(f64::MIN_POSITIVE),
            layout,
            beta: cfg.beta_start(),
            transport: Transport::new(cfg.nt, cfg.ip_order),
            interp: Interpolator::new(cfg.ip_order),
            pc,
            cur: None,
            eval: None,
            cfg,
            m0,
            m1,
        })
    }

    /// The field layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Current regularization parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Set β (continuation level change invalidates nothing but the scale).
    pub fn set_beta(&mut self, beta: f64) {
        self.beta = beta;
    }

    /// Access the spectral operators.
    pub fn spectral(&self) -> &Spectral {
        self.pc.spectral()
    }

    /// Template image.
    pub fn template(&self) -> &ScalarField {
        &self.m0
    }

    /// Reference image.
    pub fn reference(&self) -> &ScalarField {
        &self.m1
    }

    /// Transport driver (shared `Nt` and order).
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Whether the linearization point and the last evaluation were solved
    /// at exactly `v` — the same bits on every rank. Collective.
    fn solved_at(&self, v: &VectorField, comm: &mut Comm) -> [bool; 2] {
        let differs = |kept: &Option<Solved>| match kept {
            Some(k) if same_bits(&k.v, v) => 0.0,
            _ => 1.0,
        };
        let mut miss = [differs(&self.cur), differs(&self.eval)];
        comm.allreduce_sum(&mut miss);
        miss.map(|m| m == 0.0)
    }

    /// `m(·, 1)` at `v`: read off the linearization point or the last
    /// evaluation when `v` is theirs, otherwise solved — and that solve
    /// replaces the last evaluation. A read away from the linearization
    /// point releases it: that is the first line-search trial, and the
    /// matvecs at it are done by then. Collective.
    fn final_state(&mut self, v: &VectorField, comm: &mut Comm) -> &ScalarField {
        let [at_cur, at_eval] = self.solved_at(v, comm);
        if !at_eval {
            // the caller is not at it: back to the pools before a successor
            // is computed, or the report is built on a read off `cur`
            self.eval = None;
        }
        if at_cur {
            return self.cur.as_ref().expect("matched").state.final_state();
        }
        // likewise the linearization point, before the trial is solved
        self.cur = None;
        if self.eval.is_none() {
            let traj = kept(Trajectory::backward(v, self.cfg.nt, &self.interp, comm));
            let state = self.transport.solve_state(&traj, &self.m0, false, &self.interp, comm);
            self.eval = Some(Solved { v: v.clone(), traj, state });
        }
        self.eval.as_ref().expect("matched or just solved").state.final_state()
    }

    /// The deformed template `m(·, 1)` at `v`. Collective.
    pub fn deformed_template(&mut self, v: &VectorField, comm: &mut Comm) -> ScalarField {
        self.final_state(v, comm).clone()
    }

    /// Relative mismatch `‖m(1) − m1‖ / ‖m0 − m1‖` at `v`, read off the
    /// linearization point or the last evaluation when `v` is theirs. It is
    /// the last read of a solve (the final report's), so it returns both
    /// kept solves to the pools: the report's trajectory and deformation map
    /// then reuse their buffers instead of stacking on them; any later
    /// evaluation starts cold. Collective.
    pub fn rel_mismatch(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
        let mut num = self.deformed_template(v, comm);
        self.cur = None;
        self.eval = None;
        num.axpy(-1.0, &self.m1);
        num.norm_l2(comm) / self.mismatch0
    }
}

/// One term of `∫ λ(t) ∇m(t) dt` by trapezoidal quadrature: adds
/// `w_j·λ_j·∇m_j` to `acc`, reading `∇m_j` by row tiles. The adjoint loop
/// makes `λ_j` from `j = nt` down to `0`; the first term (`j = nt`) writes
/// `0.0 + w·λ·∇m`, which is what accumulating onto a zeroed field gives,
/// sign of zero included.
fn add_lambda_grad(
    acc: &mut VectorField,
    j: usize,
    lam: &ScalarField,
    state: &StateSolution,
    comm: &mut Comm,
) {
    let nt = state.m.len() - 1;
    let dt = 1.0 as Real / nt as Real;
    let w = if j == 0 || j == nt { 0.5 * dt } else { dt };
    let first = j == nt;
    let lam = lam.data();
    // one pass over λ for the three components
    let acc = acc.c.each_mut().map(|c| c.data_mut());
    state.grad_tiles(j, comm, acc, |at, [g1, g2, g3], [o1, o2, o3]| {
        let n = g1.len();
        let (lam, g2, g3) = (&lam[at..at + n], &g2[..n], &g3[..n]);
        if first {
            for k in 0..n {
                let wl = w * lam[k];
                o1[k] = 0.0 + wl * g1[k];
                o2[k] = 0.0 + wl * g2[k];
                o3[k] = 0.0 + wl * g3[k];
            }
        } else {
            for k in 0..n {
                let wl = w * lam[k];
                o1[k] += wl * g1[k];
                o2[k] += wl * g2[k];
                o3[k] += wl * g3[k];
            }
        }
    });
}

impl GnProblem for RegProblem {
    /// `J(v) = ½‖m(1) − m1‖² + β/2 ⟨Av, v⟩` (eq. 1a).
    fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
        // the regularization term first — a Parseval sum over `v̂`, no way
        // back to real space — so its spectra are in the pools again before
        // the state solve takes its buffers
        let reg_term = self.pc.spectral().reg_energy(v, self.beta, comm);
        let mut resid = self.deformed_template(v, comm);
        resid.axpy(-1.0, &self.m1);
        let data_term = 0.5 * resid.inner(&resid, comm);
        data_term + reg_term
    }

    /// `g(v) = βAv + ∫ λ ∇m dt` (eq. 2); refreshes the preconditioner's
    /// deformed template, as the paper prescribes, "at the beginning of
    /// each Gauss-Newton iteration". The state solve is the last
    /// evaluation's when that was made at `v` (the accepted line-search
    /// trial), and the linearization point's own when `v` has not moved
    /// since (a new β level): neither the characteristics nor `m` depend
    /// on β.
    fn gradient(&mut self, v: &VectorField, comm: &mut Comm) -> VectorField {
        let [at_cur, at_eval] = self.solved_at(v, comm);
        // adopted below, or dead (a rejected trial) and dropped right here
        let eval = self.eval.take().filter(|_| at_eval);
        if !at_cur {
            // the previous linearization point is dead from here on: return
            // its characteristics and state series to the pools before
            // computing their successors, not after
            self.cur = None;
            let cur = match eval {
                Some(mut eval) => {
                    eval.traj.add_adjoint(v, &self.interp, comm);
                    if self.cfg.store_grad {
                        eval.state.store_gradients(comm);
                    }
                    eval
                }
                None => {
                    let traj = kept(Trajectory::compute(v, self.cfg.nt, &self.interp, comm));
                    let state = self.transport.solve_state(
                        &traj,
                        &self.m0,
                        self.cfg.store_grad,
                        &self.interp,
                        comm,
                    );
                    Solved { v: v.clone(), traj, state }
                }
            };
            // refresh m̄ for InvH0/2LInvH0
            self.pc.refresh(cur.state.final_state(), comm);
            self.cur = Some(cur);
        }
        let cur = self.cur.as_ref().expect("set above");

        // adjoint final condition λ(1) = m1 − m(1), then λ backward in time,
        // each λ_j folded into the quadrature as it is made
        let mut lam1 = self.m1.clone();
        lam1.axpy(-1.0, cur.state.final_state());
        let mut integral = VectorField::for_overwrite(self.layout);
        self.transport.adjoint_steps(&cur.traj, lam1, &self.interp, comm, |j, lam, comm| {
            add_lambda_grad(&mut integral, j, lam, &cur.state, comm)
        });
        let mut g = self.pc.spectral().reg_apply(v, self.beta, comm);
        g.axpy(1.0, &integral);
        g
    }

    /// Gauss–Newton matvec `Hṽ = βAṽ + ∫ λ̃ ∇m dt` (eq. 5), requiring the
    /// incremental state (6) and incremental adjoint (7) solves.
    ///
    /// # Panics
    /// Without a linearization point: it is set by [`RegProblem::gradient`]
    /// and released by the first evaluation away from it (a line-search
    /// trial), so after any such trial a matvec needs a gradient first.
    fn hess_vec(&mut self, vt: &VectorField, comm: &mut Comm) -> VectorField {
        let cur = self.cur.as_ref().expect(
            "hess_vec without a linearization point: call gradient first (an evaluation away \
             from it releases it)",
        );
        // solve (6): m̃(1)
        let mt_final =
            self.transport.solve_inc_state(&cur.traj, vt, &cur.state, &self.interp, comm);
        // solve (7): λ̃ with final condition −m̃(1), folded into the quadrature
        let mut lt1 = mt_final;
        lt1.scale(-1.0);
        let mut integral = VectorField::for_overwrite(self.layout);
        self.transport.adjoint_steps(&cur.traj, lt1, &self.interp, comm, |j, lam, comm| {
            add_lambda_grad(&mut integral, j, lam, &cur.state, comm)
        });
        let mut hv = self.pc.spectral().reg_apply(vt, self.beta, comm);
        hv.axpy(1.0, &integral);
        hv
    }

    fn precond(&mut self, r: &VectorField, eps_k: f64, comm: &mut Comm) -> VectorField {
        self.pc.apply(r, eps_k, self.beta, comm)
    }

    /// Native f32 preconditioner for the mixed-precision inner solve (the
    /// preconditioner's f32 lane; see [`PrecondState::apply32`]).
    fn precond32(
        &mut self,
        r: &claire_grid::VectorFieldT<f32>,
        eps_k: f64,
        comm: &mut Comm,
    ) -> claire_grid::VectorFieldT<f32> {
        self.pc.apply32(r, eps_k, self.beta, comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecondKind;
    use claire_grid::Grid;

    fn small_problem(n: usize, comm: &mut Comm) -> RegProblem {
        small_problem_with(n, PrecondKind::InvA, false, comm)
    }

    fn small_problem_with(
        n: usize,
        precond: PrecondKind,
        store_grad: bool,
        comm: &mut Comm,
    ) -> RegProblem {
        let layout = Layout::serial(Grid::cube(n));
        // blobs wide enough to be resolved at n³ (σ ≈ 1.4 ⇒ ~3.6 points/σ
        // at n = 16); cubic interpolation keeps the discrete adjoint
        // consistent with the discrete forward operator.
        let m0 = ScalarField::from_fn(layout, |x, y, z| {
            (-((x - 3.0).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2)) / 2.0).exp()
        });
        let m1 = ScalarField::from_fn(layout, |x, y, z| {
            (-((x - 3.4).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2)) / 2.0).exp()
        });
        let cfg = RegistrationConfig {
            nt: 4,
            ip_order: claire_interp::IpOrder::Cubic,
            precond,
            store_grad,
            ..Default::default()
        };
        let mut prob =
            RegProblem::new(m0, m1, cfg, comm).expect("matching layouts by construction");
        prob.set_beta(0.1);
        prob
    }

    fn test_velocity(layout: Layout) -> VectorField {
        VectorField::from_fns(
            layout,
            |_, y, _| 0.1 * y.sin(),
            |x, _, _| 0.08 * x.cos(),
            |_, _, z| 0.05 * z.sin(),
        )
    }

    fn bits(f: &VectorField) -> Vec<u64> {
        f.c.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect()
    }

    /// `gradient(v)`, cold or — `adopt` — off the state solve of an
    /// `objective(v)` evaluated just before, as in the line search.
    fn gradient_at(
        prob: &mut RegProblem,
        v: &VectorField,
        adopt: bool,
        comm: &mut Comm,
    ) -> VectorField {
        if adopt {
            prob.objective(v, comm);
            assert!(prob.eval.is_some(), "the evaluation is kept");
        }
        let g = prob.gradient(v, comm);
        assert!(prob.eval.is_none() && prob.cur.is_some(), "adopted or dropped, never both kept");
        g
    }

    /// Taylor remainder `|J(v + εw) − J(v) − ε⟨g, w⟩|` along the gradient
    /// direction: second order in ε, so it falls 4× per halving until the
    /// inconsistency of the discretized gradient (optimize-then-discretize:
    /// first order in ε, 0.2 % of ⟨g, w⟩ on this grid) is all that is left.
    #[test]
    fn gradient_passes_the_taylor_test() {
        const FLOOR: f64 = 5e-3;
        let mut comm = Comm::solo();
        for precond in [PrecondKind::InvA, PrecondKind::TwoLevelInvH0] {
            for adopt in [true, false] {
                let mut prob = small_problem_with(16, precond, false, &mut comm);
                let v = test_velocity(prob.layout());
                let g = gradient_at(&mut prob, &v, adopt, &mut comm);
                let j0 = prob.objective(&v, &mut comm);
                let mut w = g.clone();
                w.scale(0.3 / g.max_abs(&mut comm));
                let gw = g.inner(&w, &mut comm);
                // (remainder, remainder relative to the first-order term)
                let remainders: Vec<(f64, f64)> = (3..=8)
                    .map(|k| {
                        let eps = (0.5 as Real).powi(k);
                        let mut vp = v.clone();
                        vp.axpy(eps, &w);
                        let r = (prob.objective(&vp, &mut comm) - j0 - eps * gw).abs();
                        (r, r / (eps * gw.abs()))
                    })
                    .collect();
                for pair in remainders.windows(2) {
                    let ((r0, _), (r1, e1)) = (pair[0], pair[1]);
                    assert!(
                        r1 <= r0 / 3.0 || e1 <= FLOOR,
                        "{precond:?} adopt={adopt}: remainder stalls above the floor: {remainders:?}"
                    );
                }
                let (_, e_last) = remainders[remainders.len() - 1];
                assert!(
                    e_last <= FLOOR,
                    "{precond:?} adopt={adopt}: floor not met: {remainders:?}"
                );
            }
        }
    }

    #[test]
    fn adopted_gradient_is_the_cold_gradient_bit_for_bit() {
        let mut comm = Comm::solo();
        let layout = Layout::serial(Grid::cube(10));
        let v = test_velocity(layout);
        let x = VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z);
        for store_grad in [false, true] {
            let build =
                |comm: &mut Comm| small_problem_with(10, PrecondKind::InvA, store_grad, comm);
            let (mut cold, mut warm) = (build(&mut comm), build(&mut comm));
            let g_cold = gradient_at(&mut cold, &v, false, &mut comm);
            let g_warm = gradient_at(&mut warm, &v, true, &mut comm);
            assert_eq!(bits(&g_cold), bits(&g_warm), "store_grad={store_grad}");
            assert_eq!(
                bits(&cold.hess_vec(&x, &mut comm)),
                bits(&warm.hess_vec(&x, &mut comm)),
                "store_grad={store_grad}: matvec at an adopted linearization point"
            );

            // at the linearization point J and the mismatch are read off its
            // final state; after `set_beta` too (m does not depend on β), and
            // the first gradient of the new level re-solves only the adjoint
            let j_cold = build(&mut comm).objective(&v, &mut comm);
            assert_eq!(warm.objective(&v, &mut comm).to_bits(), j_cold.to_bits());
            let mut next = build(&mut comm);
            for p in [&mut warm, &mut next] {
                p.set_beta(0.01);
            }
            assert_eq!(
                warm.objective(&v, &mut comm).to_bits(),
                next.objective(&v, &mut comm).to_bits()
            );
            assert!(warm.eval.is_none(), "no state solve at the linearization point");
            assert_eq!(warm.solved_at(&v, &mut comm), [true, false]);
            let g_next = gradient_at(&mut next, &v, true, &mut comm);
            assert_eq!(bits(&warm.gradient(&v, &mut comm)), bits(&g_next));
            assert_eq!(bits(&warm.hess_vec(&x, &mut comm)), bits(&next.hess_vec(&x, &mut comm)));

            // the mismatch, the last read of a solve, is read off the
            // linearization point and then releases both kept solves
            let mm_cold = build(&mut comm).rel_mismatch(&v, &mut comm);
            assert_eq!(warm.rel_mismatch(&v, &mut comm).to_bits(), mm_cold.to_bits());
            assert!(warm.cur.is_none() && warm.eval.is_none(), "released after the read");
        }
    }

    #[test]
    fn a_trial_away_from_the_linearization_point_releases_it() {
        let mut comm = Comm::solo();
        let x = VectorField::from_fns(
            Layout::serial(Grid::cube(10)),
            |x, _, _| x.sin(),
            |_, y, _| y.cos(),
            |_, _, z| z,
        );
        for store_grad in [false, true] {
            let build =
                |comm: &mut Comm| small_problem_with(10, PrecondKind::InvA, store_grad, comm);
            let mut prob = build(&mut comm);
            let v = test_velocity(prob.layout());
            let g = prob.gradient(&v, &mut comm);
            let mut trial = v.clone();
            trial.axpy(-1e-2, &g);
            prob.objective(&trial, &mut comm);
            assert!(prob.cur.is_none(), "store_grad={store_grad}: the trial released `cur`");
            assert_eq!(prob.solved_at(&trial, &mut comm), [false, true]);
            // back at `v` (a failed search, then the next β level): cold
            let mut cold = build(&mut comm);
            assert_eq!(bits(&prob.gradient(&v, &mut comm)), bits(&cold.gradient(&v, &mut comm)));
            assert!(prob.eval.is_none(), "the dead trial is dropped");
            assert_eq!(bits(&prob.hess_vec(&x, &mut comm)), bits(&cold.hess_vec(&x, &mut comm)));
        }
    }

    #[test]
    #[should_panic(expected = "call gradient first")]
    fn a_matvec_after_a_trial_needs_a_gradient() {
        let mut comm = Comm::solo();
        let mut prob = small_problem(10, &mut comm);
        let v = test_velocity(prob.layout());
        let g = prob.gradient(&v, &mut comm);
        prob.objective(&VectorField::zeros(prob.layout()), &mut comm);
        prob.hess_vec(&g, &mut comm);
    }

    #[test]
    fn one_ulp_in_one_voxel_is_a_miss() {
        let mut comm = Comm::solo();
        let mut prob = small_problem(10, &mut comm);
        let v = test_velocity(prob.layout());
        let mut nudged = v.clone();
        let x = &mut nudged.c[1].data_mut()[17];
        *x = Real::from_bits(x.to_bits() + 1);

        prob.objective(&v, &mut comm);
        assert_eq!(prob.solved_at(&v, &mut comm), [false, true]);
        assert_eq!(prob.solved_at(&nudged, &mut comm), [false, false]);
        // the gradient next door does not adopt: it is the cold gradient
        let g = prob.gradient(&nudged, &mut comm);
        let g_cold = small_problem(10, &mut comm).gradient(&nudged, &mut comm);
        assert_eq!(bits(&g), bits(&g_cold));
        assert_eq!(prob.solved_at(&nudged, &mut comm), [true, false]);
        assert_eq!(prob.solved_at(&v, &mut comm), [false, false]);
        // −0.0 == 0.0 and NaN != NaN: the match is on bits, not on values
        let zero = VectorField::zeros(prob.layout());
        let mut neg_zero = zero.clone();
        neg_zero.c[0].data_mut()[0] = -0.0;
        assert!(same_bits(&zero, &zero) && !same_bits(&zero, &neg_zero));
    }

    #[test]
    fn hessian_is_symmetric() {
        let mut comm = Comm::solo();
        for adopt in [false, true] {
            let mut prob = small_problem(10, &mut comm);
            let layout = prob.layout();
            let v = test_velocity(layout);
            gradient_at(&mut prob, &v, adopt, &mut comm); // set linearization point

            let x = VectorField::from_fns(
                layout,
                |x, _, _| x.sin(),
                |_, y, _| y.cos(),
                |_, _, z| 0.5 * z.sin(),
            );
            let y = VectorField::from_fns(
                layout,
                |_, y, _| (2.0 * y).sin(),
                |x, _, _| 0.3 * x.cos(),
                |_, _, z| z.cos(),
            );
            let hx = prob.hess_vec(&x, &mut comm);
            let hy = prob.hess_vec(&y, &mut comm);
            let a = x.inner(&hy, &mut comm);
            let b = y.inner(&hx, &mut comm);
            let rel = ((a - b) / a.abs().max(1e-12)).abs();
            assert!(rel < 5e-2, "adopt={adopt}: <x,Hy>={a:.6e} vs <y,Hx>={b:.6e} rel={rel:.2e}");
        }
    }

    #[test]
    fn hessian_is_positive_semidefinite() {
        let mut comm = Comm::solo();
        let mut prob = small_problem(10, &mut comm);
        prob.set_beta(0.05);
        let layout = prob.layout();
        let v = test_velocity(layout);
        let _ = prob.gradient(&v, &mut comm);
        for seed in 0..3 {
            let s = seed as Real;
            let x = VectorField::from_fns(
                layout,
                move |x, _, _| (x + s).sin(),
                move |_, y, _| (y - s).cos(),
                move |_, _, z| (2.0 * z + s).sin(),
            );
            let hx = prob.hess_vec(&x, &mut comm);
            let xhx = x.inner(&hx, &mut comm);
            assert!(xhx > 0.0, "curvature must be positive: {xhx}");
        }
    }

    #[test]
    fn unusable_grid_dims_are_typed_errors() {
        let mut comm = Comm::solo();
        // odd innermost dimension: the real FFT along x3 cannot be planned
        let layout = Layout::serial(Grid::new([8, 8, 7]));
        let m0 = ScalarField::zeros(layout);
        let m1 = ScalarField::zeros(layout);
        let err = match RegProblem::new(m0, m1, RegistrationConfig::default(), &mut comm) {
            Ok(_) => panic!("odd n3 must be rejected up front"),
            Err(e) => e,
        };
        match err {
            ClaireError::Config { param, message } => {
                assert_eq!(param, "grid");
                assert!(message.contains("even"), "message: {message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        // too-thin x1 extent: the FD8 halo does not fit
        let layout = Layout::serial(Grid::new([2, 8, 8]));
        let m0 = ScalarField::zeros(layout);
        let m1 = ScalarField::zeros(layout);
        let err = match RegProblem::new(m0, m1, RegistrationConfig::default(), &mut comm) {
            Ok(_) => panic!("thin n1 must be rejected up front"),
            Err(e) => e,
        };
        assert!(matches!(err, ClaireError::Config { param: "grid", .. }), "got {err:?}");
        // the continuation driver reports the same typed error instead of
        // panicking in the FFT planning
        let err = crate::Claire::new(RegistrationConfig::default())
            .try_register(&ScalarField::zeros(layout), &ScalarField::zeros(layout), &mut comm)
            .unwrap_err();
        assert!(matches!(err, ClaireError::Config { param: "grid", .. }), "got {err:?}");
        // grids whose half-resolution grid the real FFT (n3 ≡ 2 mod 4), the
        // coarsening (an odd dimension) or the slab split (p > min(n1, n2)/2)
        // cannot take: fine for InvA and InvH0, a typed error naming the
        // constraint for 2LInvH0 — before any plan is built
        let build = |n: [usize; 3], precond: PrecondKind, comm: &mut Comm| {
            let layout = Layout::distributed(Grid::new(n), comm);
            let cfg = RegistrationConfig { precond, ..Default::default() };
            RegProblem::new(ScalarField::zeros(layout), ScalarField::zeros(layout), cfg, comm)
        };
        for n in [[18, 18, 18], [10, 12, 14], [9, 8, 8], [8, 11, 8]] {
            assert!(build(n, PrecondKind::InvA, &mut comm).is_ok(), "InvA takes {n:?}");
            assert!(build(n, PrecondKind::InvH0, &mut comm).is_ok(), "InvH0 takes {n:?}");
            match build(n, PrecondKind::TwoLevelInvH0, &mut comm) {
                Err(ClaireError::Config { param: "grid", message }) => {
                    assert!(message.contains("n3 % 4 == 0"), "{n:?}: {message}")
                }
                other => panic!("2LInvH0 on {n:?}: expected a Config error, got {:?}", other.err()),
            }
        }
        let outcomes = claire_mpi::run_cluster(claire_mpi::Topology::new(3, 4), move |comm| {
            [PrecondKind::InvH0, PrecondKind::TwoLevelInvH0]
                .map(|kind| build([16, 4, 8], kind, comm).map(|_| ()).map_err(|e| e.to_string()))
        });
        for [invh0, two_level] in outcomes.outputs {
            assert_eq!(invh0, Ok(()), "p = 3 <= min(n1, n2) is enough without a coarse grid");
            assert!(two_level.unwrap_err().contains("p <= min(n1, n2)/2"));
        }
    }

    #[test]
    fn zero_velocity_gradient_is_data_driven() {
        let mut comm = Comm::solo();
        let mut prob = small_problem(12, &mut comm);
        let v = VectorField::zeros(prob.layout());
        let g = prob.gradient(&v, &mut comm);
        // with v = 0, g = ∫λ∇m0 — nonzero because the images differ
        assert!(g.norm_l2(&mut comm) > 1e-8);
        // objective at zero velocity is the pure data term
        let j = prob.objective(&v, &mut comm);
        let mm = prob.rel_mismatch(&v, &mut comm);
        assert!((mm - 1.0).abs() < 1e-10, "rel mismatch at v=0 is 1 by definition: {mm}");
        assert!(j > 0.0);
    }
}
