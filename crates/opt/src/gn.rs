//! The reduced-space Gauss–Newton–Krylov driver (paper Algorithm 2).

use std::time::Instant;

use claire_grid::{FieldElem, Real, VectorField, VectorFieldT, WsCat};
use claire_mpi::Comm;
use claire_obs::{records, span::span};

use crate::pcg::{pcg, PcgConfig, PcgOperator};

/// The registration problem interface the driver optimizes.
///
/// `claire-core` implements this with the PDE-constrained objective; tests
/// use small algebraic problems.
pub trait GnProblem {
    /// Objective `J(v)` (solves the state equation internally).
    fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64;

    /// Reduced gradient `g(v)` (eq. 2). Must leave the problem's internal
    /// state (state/adjoint trajectories) positioned at `v`, since
    /// [`GnProblem::hess_vec`] is evaluated there.
    fn gradient(&mut self, v: &VectorField, comm: &mut Comm) -> VectorField;

    /// Gauss–Newton Hessian matvec `H(v)·ṽ` (eq. 5) at the last gradient
    /// point.
    fn hess_vec(&mut self, vt: &VectorField, comm: &mut Comm) -> VectorField;

    /// Apply the preconditioner to a Krylov residual; `eps_k` is the outer
    /// PCG tolerance (the inner solve of InvH0 uses `εH0·εK`).
    fn precond(&mut self, r: &VectorField, eps_k: f64, comm: &mut Comm) -> VectorField;

    /// Called after a Gauss–Newton step is accepted (InvH0 refreshes its
    /// deformed template here).
    fn new_iterate(&mut self, _v: &VectorField, _comm: &mut Comm) {}

    /// Single-precision preconditioner application for the mixed-precision
    /// inner Krylov solve ([`GnConfig::mixed`]). Problems with a native f32
    /// preconditioner (f32 spectral mirrors) override this; the default
    /// promotes the residual, applies [`GnProblem::precond`] in f64, and
    /// demotes the result — correct but without the bandwidth win.
    fn precond32(
        &mut self,
        r: &VectorFieldT<f32>,
        eps_k: f64,
        comm: &mut Comm,
    ) -> VectorFieldT<f32> {
        let r64: VectorField = r.converted(WsCat::GnCg);
        self.precond(&r64, eps_k, comm).converted(WsCat::GnCg)
    }
}

/// Armijo sufficient-decrease constant of the line search.
const ARMIJO_C1: f64 = 1e-4;

/// Cap on line-search trials (objective evaluations per search): 20 tries
/// α = 1, ½, …, 2⁻¹⁹.
const MAX_LINESEARCH: usize = 20;

/// Gauss–Newton options.
#[derive(Clone, Copy, Debug)]
pub struct GnConfig {
    /// Cap on Gauss–Newton iterations.
    pub max_iter: usize,
    /// Relative gradient tolerance `εN` (paper: 5e−2).
    pub grad_rtol: f64,
    /// Cap on PCG iterations per Newton step.
    pub max_pcg: usize,
    /// Fix the PCG iteration count (the paper's scaling runs use 10 fixed
    /// iterations "to avoid discrepancies arising from relative
    /// tolerances"). Overrides the forcing sequence when set.
    pub fixed_pcg: Option<usize>,
    /// Print per-iteration progress on rank 0.
    pub verbose: bool,
    /// Run the inner Newton-PCG solve in f32 (mixed precision): the GN
    /// right-hand side is demoted at the solve boundary, Hessian matvecs
    /// promote/demote around the f64 physics, the preconditioner goes
    /// through [`GnProblem::precond32`], and the resulting step is promoted
    /// back to f64. Outer iterate, gradient, objective, and convergence
    /// checks stay f64.
    pub mixed: bool,
}

impl Default for GnConfig {
    fn default() -> Self {
        Self {
            max_iter: 50,
            grad_rtol: 5e-2,
            max_pcg: 100,
            fixed_pcg: None,
            verbose: false,
            mixed: false,
        }
    }
}

/// Wall seconds per solver component (Table 6 / Fig. 4 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    /// Preconditioner applications.
    pub pc: f64,
    /// Objective evaluations (state solves + line search).
    pub obj: f64,
    /// Gradient evaluations (state + adjoint solves).
    pub grad: f64,
    /// Hessian matvecs (incremental state + adjoint solves).
    pub hess: f64,
    /// Whole solver.
    pub total: f64,
}

/// Statistics of one Gauss–Newton solve.
#[derive(Clone, Debug, Default)]
pub struct GnStats {
    /// Gauss–Newton iterations performed.
    pub gn_iters: usize,
    /// PCG iterations accumulated over all Newton steps.
    pub pcg_iters_total: usize,
    /// Objective evaluations (≥ one per line-search trial).
    pub obj_evals: usize,
    /// Hessian matvecs.
    pub hess_applies: usize,
    /// Wall-clock breakdown.
    pub time: Breakdown,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
    /// Final relative gradient norm.
    pub grad_rel: f64,
}

/// Wall seconds and calls of one solver component (Table 6 breakdown
/// columns).
#[derive(Default)]
struct Tally {
    secs: f64,
    calls: usize,
}

impl Tally {
    /// Run `f` under span `name` and book its time and the call.
    fn timed<R>(
        &mut self,
        name: &'static str,
        comm: &mut Comm,
        f: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        let _s = span(name);
        let t = Instant::now();
        let out = f(comm);
        self.secs += t.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }
}

/// Newton-step operator at element width `T`: spans, times and counts the
/// Hessian matvecs and preconditioner applications of one PCG solve. The
/// two calls into the problem are all that differs between widths, so they
/// are the closures `hess_vec` and `precond`; both get the problem passed
/// in because both need it mutably.
struct NewtonOps<'a, P, H, M> {
    problem: &'a mut P,
    hess_vec: H,
    precond: M,
    hess: Tally,
    pc: Tally,
}

impl<T, P, H, M> PcgOperator<VectorFieldT<T>> for NewtonOps<'_, P, H, M>
where
    T: FieldElem,
    H: FnMut(&mut P, &VectorFieldT<T>, &mut Comm) -> VectorFieldT<T>,
    M: FnMut(&mut P, &VectorFieldT<T>, &mut Comm) -> VectorFieldT<T>,
{
    fn apply(&mut self, p: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        self.hess.timed("hess_matvec", comm, |comm| (self.hess_vec)(self.problem, p, comm))
    }
    fn prec(&mut self, r: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        self.pc.timed("precond", comm, |comm| (self.precond)(self.problem, r, comm))
    }
}

/// Run the Gauss–Newton–Krylov solver from `v0`. Collective.
pub fn gauss_newton<P: GnProblem>(
    problem: &mut P,
    v0: VectorField,
    cfg: &GnConfig,
    comm: &mut Comm,
) -> (VectorField, GnStats) {
    let mut state = GnState::new(v0, cfg);
    while !state.finished() {
        state.step(problem, cfg, comm);
    }
    state.finish()
}

/// Resumable Gauss–Newton state: the solver loop broken into single
/// iterations.
///
/// [`gauss_newton`] is a plain loop over this type. `claire-core`'s
/// β-continuation runs the same loop with its hooks polled between steps —
/// the arithmetic of a solve is identical either way, because
/// [`GnState::step`] *is* the loop body.
pub struct GnState {
    v: VectorField,
    /// `J(v)`: the accepted line-search value, carried into the next
    /// iteration; unknown until the first line search asks for it.
    j: Option<f64>,
    stats: GnStats,
    g0norm: Option<f64>,
    finished: bool,
    t_total: f64,
}

impl GnState {
    /// Start a solve at `v0`. No work happens until [`GnState::step`].
    pub fn new(v0: VectorField, cfg: &GnConfig) -> GnState {
        GnState {
            v: v0,
            j: None,
            stats: GnStats::default(),
            g0norm: None,
            finished: cfg.max_iter == 0,
            t_total: 0.0,
        }
    }

    /// Whether the solve is over (converged, stagnated or at the iteration
    /// cap). Once true, [`GnState::step`] is a no-op.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &GnStats {
        &self.stats
    }

    /// Run exactly one Gauss–Newton iteration (gradient, Newton-PCG,
    /// Armijo line search). Collective.
    pub fn step<P: GnProblem>(&mut self, problem: &mut P, cfg: &GnConfig, comm: &mut Comm) {
        if self.finished {
            return;
        }
        let t0 = Instant::now();
        self.step_body(problem, cfg, comm);
        self.t_total += t0.elapsed().as_secs_f64();
    }

    fn step_body<P: GnProblem>(&mut self, problem: &mut P, cfg: &GnConfig, comm: &mut Comm) {
        let stats = &mut self.stats;
        let _iter_span = span("gn.iter");
        let mut grad = Tally::default();
        let g = grad.timed("gradient", comm, |comm| problem.gradient(&self.v, comm));
        stats.time.grad += grad.secs;

        let gnorm = g.norm_l2(comm);
        let g0 = *self.g0norm.get_or_insert(gnorm.max(f64::MIN_POSITIVE));
        let rel = gnorm / g0;
        stats.grad_rel = rel;
        if cfg.verbose && comm.rank() == 0 {
            eprintln!(
                "GN iter {:3}: |g|_rel = {rel:9.3e}, pcg_total = {}",
                stats.gn_iters, stats.pcg_iters_total
            );
        }
        if rel <= cfg.grad_rtol {
            stats.converged = true;
            self.finished = true;
            return;
        }

        // Newton step: H ṽ = −g
        let eps_k = (rel.sqrt()).min(0.5);
        let pcg_cfg = PcgConfig {
            tol_rel: if cfg.fixed_pcg.is_some() { 0.0 } else { eps_k },
            max_iter: cfg.fixed_pcg.unwrap_or(cfg.max_pcg),
            trace: false,
        };
        // negated in place: the line search gets its slope ⟨g, step⟩ back
        // as −⟨rhs, step⟩, which is the same bits
        let mut rhs = g;
        rhs.scale(-1.0 as Real);

        let (step, pcg_res, hess, pc) = if cfg.mixed {
            // Mixed precision: demote the right-hand side at the solve
            // boundary, run the Krylov iteration entirely in f32, promote
            // the step back. The Hessian physics stays f64: each matvec
            // promotes the Krylov direction into one reused f64 field and
            // demotes the result (streamed conversions charged to µGN/CG).
            let rhs32: VectorFieldT<f32> = rhs.converted(WsCat::GnCg);
            let mut p64 = VectorField::for_overwrite_in(*self.v.layout(), WsCat::GnCg);
            let mut ops = NewtonOps {
                problem,
                hess_vec: |pb: &mut P, p: &VectorFieldT<f32>, comm: &mut Comm| {
                    p64.convert_from(p);
                    pb.hess_vec(&p64, comm).converted(WsCat::GnCg)
                },
                precond: |pb: &mut P, r: &VectorFieldT<f32>, comm: &mut Comm| {
                    pb.precond32(r, eps_k, comm)
                },
                hess: Tally::default(),
                pc: Tally::default(),
            };
            let (step32, res) = pcg(rhs32, None, &pcg_cfg, &mut ops, comm);
            (step32.converted(WsCat::GnCg), res, ops.hess, ops.pc)
        } else {
            let mut ops = NewtonOps {
                problem,
                hess_vec: |pb: &mut P, p: &VectorField, comm: &mut Comm| pb.hess_vec(p, comm),
                precond: |pb: &mut P, r: &VectorField, comm: &mut Comm| pb.precond(r, eps_k, comm),
                hess: Tally::default(),
                pc: Tally::default(),
            };
            let (step, res) = pcg(rhs.clone(), None, &pcg_cfg, &mut ops, comm);
            (step, res, ops.hess, ops.pc)
        };
        stats.time.hess += hess.secs;
        stats.time.pc += pc.secs;
        stats.hess_applies += hess.calls;
        stats.pcg_iters_total += pcg_res.iters;

        // Armijo line search on J
        let ls_span = span("linesearch");
        let t0 = Instant::now();
        let j0 = self.j.unwrap_or_else(|| {
            stats.obj_evals += 1;
            problem.objective(&self.v, comm)
        });
        let slope = -rhs.inner(&step, comm);
        // One trial buffer for the whole search; each trial is a single
        // fused pass `trial = α·step + v` instead of clone (copy pass) + axpy
        // (update pass), and acceptance swaps buffers instead of copying.
        let mut trial = VectorField::for_overwrite(*self.v.layout());
        let (accepted, trials) = backtrack(j0, slope, ARMIJO_C1, MAX_LINESEARCH, |alpha| {
            trial.scale_add_from(alpha, &step, &self.v);
            problem.objective(&trial, comm)
        });
        stats.obj_evals += trials;
        if let Some((_, j)) = accepted {
            std::mem::swap(&mut self.v, &mut trial);
            self.j = Some(j);
        }
        let j_new = self.j.unwrap_or(j0);
        stats.time.obj += t0.elapsed().as_secs_f64();
        drop(ls_span);
        let step_len = accepted.map_or(0.0, |(alpha, _)| alpha);
        records::push_gn(stats.gn_iters, j_new, rel, pcg_res.iters, trials, step_len);
        stats.gn_iters += 1;

        if accepted.is_none() {
            // line search failed — stagnation; stop with current iterate
            self.finished = true;
            return;
        }
        problem.new_iterate(&self.v, comm);
        if stats.gn_iters >= cfg.max_iter {
            self.finished = true;
        }
    }

    /// Close out the solve: stamp the accumulated wall time into the stats.
    /// Consumes the state.
    pub fn finish(mut self) -> (VectorField, GnStats) {
        self.stats.time.total = self.t_total;
        (self.v, self.stats)
    }
}

/// Armijo backtracking along a step with directional derivative `slope`
/// from `J(0) = j0`: tries α = 1, ½, ¼, … through `objective(α)` and
/// accepts the first α with `J(α) ≤ j0 + c1·α·slope`. Returns the accepted
/// `(α, J(α))`, or `None` when the search failed, and the trials spent.
///
/// The search fails
/// - without a trial when `slope ≥ 0` or `j0` is not finite: PCG can hand
///   back a non-descent direction (f32 inner solve, preconditioner
///   breakdown), and Armijo would then admit a step that raises `J`;
/// - at the first non-finite `J(α)`: halving α does not bring a NaN back;
/// - once two consecutive rejections show that no shorter step can pass.
///   With the secant slopes `σ(a) = (J(a) − j0)/a` of the rejections at α
///   and α/2, `d = 2σ(α/2) − σ(α)` extrapolates the directional derivative
///   of the `J` the trials see, and `d > c1·slope` ends the search. For a
///   quadratic `J`, `σ` is linear in `a`, so `d` is that derivative exactly
///   and every `σ(a)` with `a < α/2` lies between `d` and `σ(α/2)`, both
///   above `c1·slope`: plain halving would reject every remaining trial;
/// - after `max_trials` trials.
///
/// The decision reads only `j0`, `slope` and the `J(α)` values, so every
/// rank of a distributed solve stops at the same trial.
fn backtrack(
    j0: f64,
    slope: f64,
    c1: f64,
    max_trials: usize,
    mut objective: impl FnMut(Real) -> f64,
) -> (Option<(Real, f64)>, usize) {
    if !(slope < 0.0 && j0.is_finite()) {
        return (None, 0);
    }
    let mut alpha = 1.0 as Real;
    // σ of the rejection at 2α
    let mut secant_prev: Option<f64> = None;
    for trial in 1..=max_trials {
        let j = objective(alpha);
        if j <= j0 + c1 * alpha as f64 * slope {
            return (Some((alpha, j)), trial);
        }
        if !j.is_finite() {
            return (None, trial);
        }
        let secant = (j - j0) / alpha as f64;
        if secant_prev.is_some_and(|prev| 2.0 * secant - prev > c1 * slope) {
            return (None, trial);
        }
        secant_prev = Some(secant);
        alpha *= 0.5;
    }
    (None, max_trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout, ScalarField};

    /// [`gauss_newton`] with the GN records switched on: the solve and the
    /// per-iteration records it left on this thread.
    fn recorded<P: GnProblem>(
        problem: &mut P,
        v0: VectorField,
        cfg: &GnConfig,
        comm: &mut Comm,
    ) -> (VectorField, GnStats, Vec<records::GnIterRecord>) {
        claire_obs::begin();
        let (v, stats) = gauss_newton(problem, v0, cfg, comm);
        (v, stats, records::take_gn())
    }

    /// J(v) = ½⟨v − a, D(v − a)⟩ with diagonal SPD D.
    struct Quadratic {
        a: VectorField,
        d: ScalarField,
    }

    thread_local! {
        /// [`Quadratic::precond`] calls on this test's thread.
        static PC_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Quadratic {
        fn apply_d(&self, v: &VectorField) -> VectorField {
            let mut out = v.clone();
            for c in &mut out.c {
                for (o, &d) in c.data_mut().iter_mut().zip(self.d.data()) {
                    *o *= d;
                }
            }
            out
        }
    }

    impl GnProblem for Quadratic {
        fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
            let mut e = v.clone();
            e.axpy(-1.0, &self.a);
            let de = self.apply_d(&e);
            0.5 * e.inner(&de, comm)
        }
        fn gradient(&mut self, v: &VectorField, _comm: &mut Comm) -> VectorField {
            let mut e = v.clone();
            e.axpy(-1.0, &self.a);
            self.apply_d(&e)
        }
        fn hess_vec(&mut self, vt: &VectorField, _comm: &mut Comm) -> VectorField {
            self.apply_d(vt)
        }
        fn precond(&mut self, r: &VectorField, _eps: f64, _comm: &mut Comm) -> VectorField {
            PC_CALLS.set(PC_CALLS.get() + 1);
            r.clone()
        }
    }

    #[test]
    fn quadratic_converges_fast() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let mut prob = Quadratic {
            a: VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z),
            d: ScalarField::from_fn(layout, |x, _, _| 1.5 + x.sin().powi(2)),
        };
        let cfg = GnConfig { grad_rtol: 1e-8, max_iter: 10, ..Default::default() };
        let (v, stats, recs) = recorded(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(stats.converged, "rel grad {}", stats.grad_rel);
        assert!(
            stats.gn_iters <= 8,
            "inexact Newton with the εK forcing should converge quickly: {}",
            stats.gn_iters
        );
        let mut e = v.clone();
        e.axpy(-1.0, &prob.a);
        assert!(e.norm_l2(&mut comm) < 1e-5);
        // the objective after each iteration is monotone decreasing
        assert_eq!(recs.len(), stats.gn_iters);
        for w in recs.windows(2) {
            assert!(w[1].objective <= w[0].objective + 1e-12);
        }
    }

    /// [`Quadratic`] with the two ways a line search goes wrong switched
    /// on by flags, recording every iterate `objective` is asked about.
    struct Probe {
        inner: Quadratic,
        /// `hess_vec` and `precond` both change sign — a sign error in the
        /// inner solve. (Flipping the preconditioner alone changes nothing:
        /// every PCG step is an exact line minimization of the model, so
        /// with an SPD Hessian the step is a descent direction whatever
        /// `precond` returns.)
        negate_newton_system: bool,
        /// `objective` is NaN anywhere but the start point (zero).
        nan_off_start: bool,
        /// `objective` gains `−2⟨g(0), v⟩`: it rises to first order along
        /// every step the gradient (still the quadratic's) calls descent —
        /// a gradient inconsistent with its objective.
        ascent_objective: bool,
        asked: Vec<Vec<u64>>,
    }

    fn probe(layout: Layout) -> Probe {
        Probe {
            inner: Quadratic {
                a: VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z),
                d: ScalarField::from_fn(layout, |x, _, _| 1.5 + x.sin().powi(2)),
            },
            negate_newton_system: false,
            nan_off_start: false,
            ascent_objective: false,
            asked: Vec::new(),
        }
    }

    impl GnProblem for Probe {
        fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
            let bits: Vec<u64> =
                v.c.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect();
            let at_start = bits.iter().all(|&b| b == 0);
            self.asked.push(bits);
            if self.nan_off_start && !at_start {
                return f64::NAN;
            }
            let j = self.inner.objective(v, comm);
            if self.ascent_objective {
                // g(0) = −D·a
                return j + 2.0 * self.inner.apply_d(&self.inner.a).inner(v, comm);
            }
            j
        }
        fn gradient(&mut self, v: &VectorField, comm: &mut Comm) -> VectorField {
            self.inner.gradient(v, comm)
        }
        fn hess_vec(&mut self, vt: &VectorField, comm: &mut Comm) -> VectorField {
            let mut h = self.inner.hess_vec(vt, comm);
            if self.negate_newton_system {
                h.scale(-1.0);
            }
            h
        }
        fn precond(&mut self, r: &VectorField, _eps: f64, _comm: &mut Comm) -> VectorField {
            let mut z = r.clone();
            if self.negate_newton_system {
                z.scale(-1.0);
            }
            z
        }
    }

    #[test]
    fn objective_is_asked_once_per_trial_and_once_per_state() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let mut prob = probe(layout);
        let cfg = GnConfig { grad_rtol: 1e-8, max_iter: 10, ..Default::default() };
        let (v, stats, recs) = recorded(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(stats.converged && stats.gn_iters >= 2, "{}", stats.gn_iters);
        // this quadratic never backtracks: one trial per accepted step
        assert!(recs.iter().all(|r| (r.ls_trials, r.step) == (1, 1.0)), "{recs:?}");
        assert_eq!(stats.obj_evals, recs.len() + 1);
        assert_eq!(prob.asked.len(), recs.len() + 1);
        let mut seen = prob.asked.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), prob.asked.len(), "objective evaluated twice at one iterate");

        // a second `GnState` (what a β level is) asks for its own J(v0) once
        let before = prob.asked.len();
        let warm = GnConfig { max_iter: 1, grad_rtol: 1e-30, ..cfg };
        let (_, _, recs) = recorded(&mut prob, v, &warm, &mut comm);
        let trials: usize = recs.iter().map(|r| r.ls_trials).sum();
        assert!(trials >= 1, "{recs:?}");
        assert_eq!(prob.asked.len() - before, trials + 1);
    }

    #[test]
    fn non_descent_step_fails_the_line_search_without_a_trial() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Probe { negate_newton_system: true, ..probe(layout) };
        let cfg = GnConfig { grad_rtol: 1e-8, max_iter: 10, ..Default::default() };
        let (v, stats, recs) = recorded(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(!stats.converged);
        assert_eq!(stats.gn_iters, 1, "a failed line search ends the solve");
        assert!(stats.obj_evals <= 1 && prob.asked.len() <= 1, "{} wasted", prob.asked.len());
        assert_eq!((recs[0].ls_trials, recs[0].step), (0, 0.0), "no step accepted");
        assert_eq!(v.max_abs(&mut comm), 0.0, "the iterate must not move");
    }

    #[test]
    fn non_finite_trial_ends_the_backtracking() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Probe { nan_off_start: true, ..probe(layout) };
        let cfg = GnConfig { grad_rtol: 1e-8, max_iter: 10, ..Default::default() };
        let (v, stats) = gauss_newton(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(!stats.converged);
        assert_eq!(stats.gn_iters, 1);
        // j0 at the start point, then one NaN trial instead of 20
        assert_eq!(stats.obj_evals, 2);
        assert_eq!(v.max_abs(&mut comm), 0.0, "a NaN trial is never accepted");
    }

    #[test]
    fn objective_rising_along_the_step_fails_after_two_trials() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Probe { ascent_objective: true, ..probe(layout) };
        let cfg = GnConfig { grad_rtol: 1e-8, max_iter: 10, ..Default::default() };
        let (v, stats, recs) = recorded(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(!stats.converged);
        assert_eq!(stats.gn_iters, 1, "a failed line search ends the solve");
        // j0 at the start point, then the two trials whose secant slopes
        // show J rising, instead of 20
        assert_eq!(stats.obj_evals, 3);
        assert_eq!(prob.asked.len(), 3);
        assert_eq!((recs[0].ls_trials, recs[0].step), (2, 0.0), "no step accepted");
        assert_eq!(v.max_abs(&mut comm), 0.0, "the iterate must not move");
    }

    /// Armijo backtracking without the secant stop: halve until a trial
    /// passes, one is not finite, or the trials run out.
    fn plain_halving(
        j0: f64,
        slope: f64,
        c1: f64,
        max_trials: usize,
        objective: impl Fn(Real) -> f64,
    ) -> (Option<(Real, f64)>, usize) {
        let mut alpha = 1.0 as Real;
        for trial in 1..=max_trials {
            let j = objective(alpha);
            if j <= j0 + c1 * alpha as f64 * slope {
                return (Some((alpha, j)), trial);
            }
            if !j.is_finite() {
                return (None, trial);
            }
            alpha *= 0.5;
        }
        (None, max_trials)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// On an exact quadratic `J(α) = j0 + d·α + e·α²` the secant stop
        /// never changes what the search returns — the accepted α and
        /// `J(α)` bit for bit, or a failure — only how many trials a
        /// failure costs: exactly 2 when `J` rises to first order
        /// (`d > c1·slope`) and the first two trials fail. `d` sits
        /// `±10^u` from `c1·slope` and `e` is `±10^w`, so every trial count
        /// up to the cap occurs.
        #[test]
        fn secant_stop_matches_plain_halving_on_quadratics(
            j0 in -1.0f64..1.0,
            slope in -1.0f64..-1e-3,
            u in -9.0f64..0.5,
            d_above in 0u8..2,
            w in -3.0f64..3.0,
            e_positive in 0u8..2,
        ) {
            let (c1, cap) = (ARMIJO_C1, MAX_LINESEARCH);
            let offset = if d_above == 1 { 10f64.powf(u) } else { -(10f64.powf(u)) };
            let d = c1 * slope + offset;
            let e = if e_positive == 1 { 10f64.powf(w) } else { -(10f64.powf(w)) };
            proptest::prop_assume!((d - c1 * slope).abs() > 1e-9);
            let model = |a: Real| j0 + d * a + e * a * a;

            let (got, trials) = backtrack(j0, slope, c1, cap, model);
            let (want, plain_trials) = plain_halving(j0, slope, c1, cap, model);
            let bits = |r: Option<(Real, f64)>| r.map(|(a, j)| (a.to_bits(), j.to_bits()));
            proptest::prop_assert_eq!(bits(got), bits(want), "d {} e {}", d, e);
            proptest::prop_assert!(trials <= plain_trials);
            if got.is_some() {
                proptest::prop_assert_eq!(trials, plain_trials);
            }
            let rejected = |a: Real| model(a) > j0 + c1 * a * slope;
            if d > c1 * slope && rejected(1.0) && rejected(0.5) {
                proptest::prop_assert_eq!(trials, 2, "d {} e {}", d, e);
            }
        }
    }

    #[test]
    fn mixed_mode_converges_to_same_solution() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let make = || Quadratic {
            a: VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z),
            d: ScalarField::from_fn(layout, |x, _, _| 1.5 + x.sin().powi(2)),
        };
        let cfg64 = GnConfig { grad_rtol: 1e-6, max_iter: 20, ..Default::default() };
        let cfg32 = GnConfig { mixed: true, ..cfg64 };
        let (v64, s64) = gauss_newton(&mut make(), VectorField::zeros(layout), &cfg64, &mut comm);
        let (v32, s32) = gauss_newton(&mut make(), VectorField::zeros(layout), &cfg32, &mut comm);
        assert!(s64.converged && s32.converged, "{} {}", s64.grad_rel, s32.grad_rel);
        // the outer convergence check is f64 in both modes; the f32 inner
        // solve only perturbs the step, which the line search absorbs
        let mut d = v32.clone();
        d.axpy(-1.0, &v64);
        let rel = d.norm_l2(&mut comm) / v64.norm_l2(&mut comm).max(1e-30);
        assert!(rel < 1e-4, "mixed solution drifted: rel {rel}");
        // final objectives agree to the documented mixed tolerance
        let j64 = make().objective(&v64, &mut comm);
        let j32 = make().objective(&v32, &mut comm);
        assert!((j64 - j32).abs() <= 1e-6 * j64.abs() + 1e-10, "{j64} vs {j32}");
    }

    #[test]
    fn mixed_mode_default_precond32_round_trips() {
        // A problem that never overrides precond32 must still work: the
        // default promotes, applies the f64 preconditioner, and demotes.
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Quadratic {
            a: VectorField::from_fns(layout, |x, _, _| x.cos(), |_, _, _| 0.25, |_, _, z| z.sin()),
            d: ScalarField::from_fn(layout, |_, y, _| 2.0 + y.cos().powi(2)),
        };
        let cfg = GnConfig { grad_rtol: 1e-5, max_iter: 15, mixed: true, ..Default::default() };
        let (_, stats) = gauss_newton(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(stats.converged, "rel grad {}", stats.grad_rel);
        assert!(PC_CALLS.get() > 0);
    }

    #[test]
    fn fixed_pcg_runs_exact_count() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Quadratic {
            a: VectorField::from_fns(layout, |x, _, _| x.cos(), |_, _, _| 0.5, |_, _, z| z.sin()),
            d: ScalarField::from_fn(layout, |_, y, _| 2.0 + y.cos().powi(2)),
        };
        let cfg = GnConfig {
            max_iter: 2,
            grad_rtol: 1e-30, // only satisfiable by an exactly-zero gradient
            fixed_pcg: Some(3),
            ..Default::default()
        };
        let (_, stats) = gauss_newton(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        // Two GN steps, unless the first step already drove the gradient
        // below 1e-30 relative (FMA-based backends can land there on this
        // quadratic), in which case the loop legitimately stops after one.
        if stats.converged {
            assert_eq!(stats.gn_iters, 1);
            assert!(stats.grad_rel <= 1e-30, "{}", stats.grad_rel);
        } else {
            assert_eq!(stats.gn_iters, 2);
        }
        // 3 PCG iterations per GN step, unless it converged to machine zero early
        assert!(
            stats.pcg_iters_total <= 6 && stats.pcg_iters_total >= 3,
            "{}",
            stats.pcg_iters_total
        );
    }

    #[test]
    fn timing_breakdown_populated() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let mut prob = Quadratic {
            a: VectorField::from_fns(layout, |x, _, _| x.sin(), |_, _, _| 0.0, |_, _, _| 0.0),
            d: ScalarField::from_fn(layout, |_, _, _| 2.0),
        };
        let cfg = GnConfig { grad_rtol: 1e-10, ..Default::default() };
        let (_, stats) = gauss_newton(&mut prob, VectorField::zeros(layout), &cfg, &mut comm);
        assert!(stats.time.total > 0.0);
        assert!(stats.time.total + 1e-9 >= stats.time.grad);
        assert!(stats.hess_applies > 0 && PC_CALLS.get() > 0 && stats.obj_evals > 0);
    }
}
