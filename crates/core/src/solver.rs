//! The single-registration front door, its cancellation hooks, and the
//! end-of-solve report.
//!
//! "The suggested setting for CLAIRE is to use a β-continuation scheme":
//! the problem is solved for a decreasing sequence of β, each level warm-
//! starting from the previous velocity; InvA preconditions the strongly
//! regularized levels (β > 5e−1), the configured InvH0 variant the rest.
//! That loop is `continuation`, which [`Claire`] runs on the caller's
//! communicator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use claire_grid::{ClaireError, ClaireResult, ScalarField, VectorField};
use claire_interp::Interpolator;
use claire_mpi::Comm;
use claire_obs::{records, span::span};
use claire_opt::{GnConfig, GnState, GnStats};
use claire_semilag::{displacement, Trajectory};

use crate::config::RegistrationConfig;
use crate::memory;
use crate::problem::RegProblem;
use crate::RegistrationReport;

/// Why a solve stopped before reaching its convergence criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExpired,
}

impl StopReason {
    /// Short human-readable description (used in [`ClaireError::Cancelled`]).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline expired",
        }
    }
}

struct TokenInner {
    created: Instant,
    cancelled: AtomicBool,
    /// Deadline as nanoseconds after `created`; `u64::MAX` = none.
    deadline_nanos: AtomicU64,
}

/// Shared cooperative-cancellation handle for a solve.
///
/// Cloning shares the underlying flag: any clone may [`CancelToken::cancel`]
/// or arm a deadline, and the solver polls [`CancelToken::stop_reason`] at
/// every Gauss–Newton iteration boundary (see [`SolverHooks`]). A tripped
/// token makes [`Claire::try_register`] return [`ClaireError::Cancelled`]
/// instead of a result; the solver's internal state stays consistent, so the
/// same `Claire` value can run further solves afterwards.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// Fresh token: not cancelled, no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                created: Instant::now(),
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Request cancellation. Idempotent; takes effect at the solver's next
    /// iteration boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Arm (or tighten) a deadline `d` from now. The earliest armed deadline
    /// wins; there is no way to extend one.
    pub fn set_deadline_in(&self, d: Duration) {
        let nanos =
            self.inner.created.elapsed().saturating_add(d).as_nanos().min(u64::MAX as u128 - 1)
                as u64;
        self.inner.deadline_nanos.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Whether an armed deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        let d = self.inner.deadline_nanos.load(Ordering::Relaxed);
        d != u64::MAX && self.inner.created.elapsed().as_nanos() as u64 >= d
    }

    /// Why the solve should stop, if it should. Explicit cancellation takes
    /// precedence over an expired deadline.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline_expired() {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }
}

/// Observation and control hooks threaded through a solve.
///
/// `cancel` is polled at every Gauss–Newton iteration boundary (across all
/// β-continuation levels);
/// `on_gn_iter` fires at the same boundaries with the cumulative iteration
/// index, *before* the cancel check — so an observer can trip the token and
/// have the solve stop before that iteration runs. `claire-serve` uses this
/// seam for job cancellation, deadlines, and its scheduler tests.
#[derive(Clone, Default)]
pub struct SolverHooks {
    /// Cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Called with the cumulative GN iteration index at each boundary.
    pub on_gn_iter: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

impl SolverHooks {
    /// Hooks that only carry a cancel token.
    pub fn with_cancel(token: CancelToken) -> SolverHooks {
        SolverHooks { cancel: Some(token), on_gn_iter: None }
    }
}

/// The CLAIRE registration solver.
pub struct Claire {
    /// Configuration used for every [`Claire::register`] call.
    pub cfg: RegistrationConfig,
    /// Cancellation/observation hooks (default: none).
    pub hooks: SolverHooks,
}

impl Claire {
    /// New solver with the given configuration.
    pub fn new(cfg: RegistrationConfig) -> Claire {
        Claire { cfg, hooks: SolverHooks::default() }
    }

    /// New solver with cancellation/observation hooks.
    pub fn with_hooks(cfg: RegistrationConfig, hooks: SolverHooks) -> Claire {
        Claire { cfg, hooks }
    }

    /// Register `m0` (template) to `m1` (reference): find `v` minimizing
    /// (1). Returns the velocity and a Table 6-style report. Collective.
    /// Panicking convenience wrapper around [`Claire::try_register`].
    pub fn register(
        &mut self,
        m0: &ScalarField,
        m1: &ScalarField,
        comm: &mut Comm,
    ) -> (VectorField, RegistrationReport) {
        self.try_register(m0, m1, comm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Claire::register`]: returns a typed error on mismatched
    /// template/reference layouts or an invalid configuration instead of
    /// panicking.
    pub fn try_register(
        &mut self,
        m0: &ScalarField,
        m1: &ScalarField,
        comm: &mut Comm,
    ) -> ClaireResult<(VectorField, RegistrationReport)> {
        self.try_register_from(m0, m1, "data", comm)
    }

    /// [`Claire::register`] with a dataset label for the report. Panicking
    /// convenience wrapper around [`Claire::try_register_from`].
    pub fn register_from(
        &mut self,
        m0: &ScalarField,
        m1: &ScalarField,
        label: &str,
        comm: &mut Comm,
    ) -> (VectorField, RegistrationReport) {
        self.try_register_from(m0, m1, label, comm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Claire::register_from`].
    pub fn try_register_from(
        &mut self,
        m0: &ScalarField,
        m1: &ScalarField,
        label: &str,
        comm: &mut Comm,
    ) -> ClaireResult<(VectorField, RegistrationReport)> {
        let _solve = span("solve");
        self.cfg.validate()?;
        let mut problem = RegProblem::new(m0.clone(), m1.clone(), self.cfg, comm)?;
        let (v, stats) = continuation(&self.cfg, &self.hooks, &mut problem, comm)?;
        let report = build_report(&self.cfg, &mut problem, &v, label, comm, &stats);
        Ok((v, report))
    }
}

/// The β-continuation from `v = 0`: one Gauss–Newton solve per level of
/// `cfg.beta_schedule()`, each starting from the previous level's velocity.
/// At every iteration boundary the observer sees the cumulative iteration
/// index *before* the cancel token is polled, so an observer can trip the
/// token and stop the solve before that iteration runs. Collective.
fn continuation(
    cfg: &RegistrationConfig,
    hooks: &SolverHooks,
    problem: &mut RegProblem,
    comm: &mut Comm,
) -> ClaireResult<(VectorField, GnStats)> {
    let betas = cfg.beta_schedule();
    let gn_cfg = level_gn_config(cfg);
    let mut total = GnStats::default();
    let mut v = VectorField::zeros(problem.layout());
    for (level, &beta) in betas.iter().enumerate() {
        if gn_cfg.verbose && comm.rank() == 0 {
            eprintln!("== continuation level {level}: beta = {beta:.3e} ==");
        }
        problem.set_beta(beta);
        let mut state = GnState::new(v, &gn_cfg);
        while !state.finished() {
            let _lvl = span("beta_level");
            if let Some(cb) = &hooks.on_gn_iter {
                cb(total.gn_iters + state.stats().gn_iters);
            }
            if let Some(reason) = hooks.cancel.as_ref().and_then(CancelToken::stop_reason) {
                return Err(ClaireError::Cancelled {
                    context: "Claire::register",
                    message: format!(
                        "{} after {} Gauss-Newton iteration(s) at beta level {level}",
                        reason.label(),
                        total.gn_iters + state.stats().gn_iters
                    ),
                });
            }
            records::set_context(level, beta);
            state.step(problem, &gn_cfg, comm);
        }
        let (v_level, stats) = state.finish();
        accumulate(&mut total, &stats);
        v = v_level;
    }
    Ok((v, total))
}

/// Gauss–Newton options for one β-continuation level of `cfg`.
fn level_gn_config(cfg: &RegistrationConfig) -> GnConfig {
    GnConfig {
        max_iter: cfg.max_gn_iter,
        grad_rtol: cfg.grad_rtol,
        max_pcg: cfg.max_pcg_iter,
        fixed_pcg: cfg.fixed_pcg,
        verbose: cfg.verbose,
        mixed: cfg.precision == crate::config::Precision::Mixed,
        ..Default::default()
    }
}

/// Assemble the Table 6-style report for a finished solve. Collective
/// (computes the final mismatch and diffeomorphism diagnostics).
fn build_report(
    cfg: &RegistrationConfig,
    problem: &mut RegProblem,
    v: &VectorField,
    label: &str,
    comm: &mut Comm,
    stats: &GnStats,
) -> RegistrationReport {
    let layout = problem.layout();
    let rel_mismatch = problem.rel_mismatch(v, comm);

    // diffeomorphism diagnostics; the benchmark's traced pass
    // (`benchmark/src/child.rs`) repeats these calls and must see the same
    // pool and communication counts
    let mut interp = Interpolator::new(cfg.ip_order);
    let traj = Trajectory::compute(v, cfg.nt, &mut interp, comm);
    let u = displacement::displacement(&traj, cfg.nt, &mut interp, comm);
    let det = displacement::jacobian_det(&u, comm);
    let (jac_det_min, jac_det_max) = displacement::det_bounds(&det, comm);

    let mem = memory::estimate(layout.grid, cfg.nt, layout.nranks, cfg.ip_order, 4);

    RegistrationReport {
        data: label.to_string(),
        pc: cfg.precond.label().to_string(),
        precision: cfg.precision.label().to_string(),
        grid: layout.grid.n,
        nt: cfg.nt,
        nranks: layout.nranks,
        gn_iters: stats.gn_iters,
        pcg_iters: stats.pcg_iters_total,
        obj_evals: stats.obj_evals,
        hess_applies: stats.hess_applies,
        converged: stats.converged,
        rel_mismatch,
        grad_rel: stats.grad_rel,
        n_inva: problem.pc.n_inva,
        n_invh0: problem.pc.n_invh0,
        inner_cg_total: problem.pc.inner_iters,
        inner_cg_avg: problem.pc.inner_avg(),
        time_pc: stats.time.pc,
        time_obj: stats.time.obj,
        time_grad: stats.time.grad,
        time_hess: stats.time.hess,
        time_total: stats.time.total,
        jac_det_min,
        jac_det_max,
        memory_bytes_per_rank: mem.total(),
    }
}

/// Accumulate per-level Gauss–Newton statistics into a whole-run total.
fn accumulate(total: &mut GnStats, level: &GnStats) {
    total.gn_iters += level.gn_iters;
    total.pcg_iters_total += level.pcg_iters_total;
    total.obj_evals += level.obj_evals;
    total.hess_applies += level.hess_applies;
    total.pc_applies += level.pc_applies;
    total.time.pc += level.time.pc;
    total.time.obj += level.time.obj;
    total.time.grad += level.time.grad;
    total.time.hess += level.time.hess;
    total.time.total += level.time.total;
    total.converged = level.converged;
    total.grad_rel = level.grad_rel;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecondKind;
    use claire_grid::{Grid, Layout, Real};

    /// A pair of Gaussian-blob images offset by a small translation.
    fn blob_pair(layout: Layout, shift: Real) -> (ScalarField, ScalarField) {
        let blob = move |cx: Real| {
            move |x: Real, y: Real, z: Real| {
                let d2 = (x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2);
                (-d2 / 1.2).exp()
            }
        };
        (ScalarField::from_fn(layout, blob(3.0)), ScalarField::from_fn(layout, blob(3.0 + shift)))
    }

    #[test]
    fn registration_reduces_mismatch() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.5);
        let cfg = RegistrationConfig {
            nt: 4,
            precond: PrecondKind::InvA,
            beta_target: 1e-2,
            max_gn_iter: 10,
            ..Default::default()
        };
        let mut claire = Claire::new(cfg);
        let (v, report) = claire.register(&m0, &m1, &mut comm);
        assert!(
            report.rel_mismatch < 0.35,
            "registration should reduce the mismatch substantially: {}",
            report.rel_mismatch
        );
        assert!(report.gn_iters >= 1);
        assert!(v.norm_l2(&mut comm) > 0.0);
        assert!(report.jac_det_min > 0.0, "map must stay diffeomorphic: {}", report.jac_det_min);
    }

    #[test]
    fn an_invalid_config_is_refused() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.5);
        // a struct literal skips the builder's validation
        let cfg =
            RegistrationConfig { ip_order: crate::IpOrder::CubicSpline, ..Default::default() };
        let err = Claire::new(cfg).try_register(&m0, &m1, &mut comm).unwrap_err();
        assert!(matches!(err, ClaireError::Config { param: "ip_order", .. }), "{err}");
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_iteration() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.5);
        let cfg = RegistrationConfig { nt: 2, max_gn_iter: 10, ..Default::default() };
        let token = CancelToken::new();
        token.cancel();
        let iters = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = iters.clone();
        let hooks = SolverHooks {
            cancel: Some(token),
            on_gn_iter: Some(Arc::new(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            })),
        };
        let mut claire = Claire::with_hooks(cfg, hooks);
        let err = claire.try_register(&m0, &m1, &mut comm).unwrap_err();
        assert!(matches!(err, ClaireError::Cancelled { .. }), "{err}");
        assert!(err.to_string().starts_with("Claire::register stopped early: cancelled"), "{err}");
        assert_eq!(iters.load(Ordering::Relaxed), 1, "only the first boundary is visited");
    }

    #[test]
    fn cancel_mid_solve_stops_at_next_boundary() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.5);
        let cfg = RegistrationConfig {
            nt: 2,
            precond: PrecondKind::InvA,
            continuation: false,
            beta_target: 1e-2,
            max_gn_iter: 25,
            grad_rtol: 1e-12,
            ..Default::default()
        };
        let token = CancelToken::new();
        let trip = token.clone();
        let boundaries = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = boundaries.clone();
        let hooks = SolverHooks {
            cancel: Some(token),
            on_gn_iter: Some(Arc::new(move |k| {
                seen.fetch_add(1, Ordering::Relaxed);
                if k == 1 {
                    trip.cancel(); // cancel at the boundary of iteration 1
                }
            })),
        };
        let mut claire = Claire::with_hooks(cfg, hooks);
        let err = claire.try_register(&m0, &m1, &mut comm).unwrap_err();
        assert!(matches!(err, ClaireError::Cancelled { .. }), "{err}");
        // boundaries 0 and 1 were visited, then the solve stopped: iteration
        // 1 never ran, i.e. the cancel took effect within one GN iteration
        assert_eq!(boundaries.load(Ordering::Relaxed), 2);
        assert!(err.to_string().contains("after 1 Gauss-Newton"), "{err}");
    }

    #[test]
    fn expired_deadline_reports_deadline_reason() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.5);
        let cfg = RegistrationConfig { nt: 2, max_gn_iter: 10, ..Default::default() };
        let token = CancelToken::new();
        token.set_deadline_in(Duration::ZERO);
        assert!(token.deadline_expired());
        assert_eq!(token.stop_reason(), Some(StopReason::DeadlineExpired));
        let mut claire = Claire::with_hooks(cfg, SolverHooks::with_cancel(token));
        let err = claire.try_register(&m0, &m1, &mut comm).unwrap_err();
        assert!(err.to_string().contains("deadline expired"), "{err}");
    }

    #[test]
    fn preconditioned_variants_reach_similar_mismatch() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.4);
        let mut results = Vec::new();
        for kind in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
            let cfg = RegistrationConfig {
                nt: 4,
                precond: kind,
                beta_target: 1e-2,
                max_gn_iter: 8,
                ..Default::default()
            };
            let mut claire = Claire::new(cfg);
            let (_, report) = claire.register(&m0, &m1, &mut comm);
            results.push((kind, report.rel_mismatch, report.pcg_iters));
        }
        for (kind, mism, _) in &results {
            assert!(*mism < 0.5, "{kind:?}: mismatch {mism}");
        }
        // the paper's headline: InvH0 variants need far fewer outer PCG
        // iterations than InvA
        let inva_pcg = results[0].2;
        let h0_pcg = results[1].2;
        assert!(
            h0_pcg <= inva_pcg,
            "InvH0 ({h0_pcg}) should not need more PCG iterations than InvA ({inva_pcg})"
        );
    }

    /// Mixed precision is a solver *implementation* choice, not a model
    /// change: the f32 inner Krylov path must converge to the same final
    /// mismatch as the f64 path within the documented mixed tolerance
    /// (~κ·ε_f32 on the Newton step, which the f64 outer Gauss-Newton
    /// absorbs — see DESIGN.md §18), for every preconditioner.
    #[test]
    fn mixed_precision_converges_to_same_mismatch() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let (m0, m1) = blob_pair(layout, 0.4);
        for kind in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
            let cfg64 = RegistrationConfig {
                nt: 4,
                precond: kind,
                beta_target: 1e-2,
                max_gn_iter: 8,
                precision: crate::config::Precision::F64,
                ..Default::default()
            };
            let cfg32 = RegistrationConfig { precision: crate::config::Precision::Mixed, ..cfg64 };
            let (_, r64) = Claire::new(cfg64).register(&m0, &m1, &mut comm);
            let (_, r32) = Claire::new(cfg32).register(&m0, &m1, &mut comm);
            assert_eq!(r64.precision, "f64");
            assert_eq!(r32.precision, "mixed");
            let tol = 1e-3 * r64.rel_mismatch + 1e-6;
            assert!(
                (r64.rel_mismatch - r32.rel_mismatch).abs() <= tol,
                "{kind:?}: mixed mismatch {} vs f64 {} (tol {tol})",
                r32.rel_mismatch,
                r64.rel_mismatch
            );
            assert!(r32.jac_det_min > 0.0, "{kind:?}: mixed map must stay diffeomorphic");
        }
    }
}
