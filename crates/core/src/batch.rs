//! The continuation driver: K registrations on one grid, each stepped
//! through β-continuation and Gauss–Newton one iteration at a time.
//!
//! This is the only place the solver's outer loops live. [`Claire`] runs it
//! with K = 1 on the caller's communicator (a stepping driver run alone *is*
//! the sequential solve); [`BatchSolver`] runs it with K pairs on private
//! solo communicators and interleaves their Gauss–Newton iterations
//! round-robin (pair 1 iter i, pair 2 iter i, …).
//!
//! Per-solve setup — FFT plans, workspace-pool warm-up, preconditioner
//! scaffolding (`TwoLevel` transfer operators, coarse spectral symbols) —
//! is identical for every image pair on the same grid, so one
//! [`SolverScaffold`](crate::problem::SolverScaffold) and one warm pool/plan
//! family back all K pairs, and the hot working set of each kernel stays
//! cache- and pool-resident across pairs. Pairs retire as soon as their own
//! continuation schedule converges; the rest keep iterating.
//!
//! Each pair has its own [`RegProblem`], its own β-continuation state, and
//! its own [`GnState`] — interleaving only changes the order in which
//! independent solves touch the shared (immutable) scaffolding, so K pairs
//! solved together are bitwise equal to K solves of one.
//! `tests/batch_equivalence.rs` pins this down on both SIMD backends.
//!
//! Per-pair [`SolverHooks`] (cancellation, deadlines, iteration observers)
//! fire at that pair's own iteration boundaries; a cancelled pair retires
//! early with [`ClaireError::Cancelled`] while the rest continue.
//!
//! [`Claire`]: crate::Claire

use std::time::Instant;

use claire_fft::cache as fft_cache;
use claire_grid::{workspace, ClaireError, ClaireResult, ScalarField, VectorField};
use claire_mpi::{Comm, CommStats};
use claire_obs::{records, span::span};
use claire_opt::{GnConfig, GnState, GnStats};

use crate::config::RegistrationConfig;
use crate::problem::{RegProblem, SolverScaffold};
use crate::report::RegistrationReport;
use crate::solver::{accumulate, build_report, level_gn_config, CancelToken, SolverHooks};

/// One registration job in a batch: a (template, reference) pair plus its
/// own control hooks.
pub struct BatchPair {
    /// Dataset label for the pair's report.
    pub label: String,
    /// Template image `m0`.
    pub template: ScalarField,
    /// Reference image `m1`.
    pub reference: ScalarField,
    /// Per-pair cancellation/observation hooks.
    pub hooks: SolverHooks,
}

impl BatchPair {
    /// A pair with default (empty) hooks.
    pub fn new(label: impl Into<String>, template: ScalarField, reference: ScalarField) -> Self {
        BatchPair { label: label.into(), template, reference, hooks: SolverHooks::default() }
    }

    /// Attach hooks (builder style).
    pub fn with_hooks(mut self, hooks: SolverHooks) -> Self {
        self.hooks = hooks;
        self
    }
}

/// Pool and plan-cache activity attributed to one batch member.
///
/// The pools and the FFT plan cache are process-global, so their raw
/// counters cover the whole batch. Because the interleave is sequential
/// within one [`BatchSolver::solve`] call, sampling the counters around
/// each member's own steps yields **exact per-member deltas** for event
/// counts (checkouts, misses, plan hits). Byte *levels* (peak, in-use) are
/// properties of the shared pool family and are deliberately not split per
/// member — summing them across members would double-count shared buffers.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemberMemStats {
    /// Pool checkouts by this member, per [`workspace::WsCat`] index.
    pub cat_checkouts: [u64; 6],
    /// Pool misses (fresh allocations) by this member, per category index.
    pub cat_misses: [u64; 6],
    /// FFT plan-cache hits during this member's construction and steps
    /// (the first member's also count the shared per-grid scaffolding).
    pub fft_plan_hits: u64,
    /// FFT plan-cache misses (plans computed) for this member.
    pub fft_plan_misses: u64,
}

impl MemberMemStats {
    /// Total pool checkouts across categories.
    pub fn pool_checkouts(&self) -> u64 {
        self.cat_checkouts.iter().sum()
    }

    /// Total pool misses across categories.
    pub fn pool_misses(&self) -> u64 {
        self.cat_misses.iter().sum()
    }

    /// Run `f` and add the pool and plan-cache events it caused.
    fn metered<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let ws0 = workspace::stats();
        let fft0 = fft_cache::stats();
        let out = f();
        let ws1 = workspace::stats();
        let fft1 = fft_cache::stats();
        for i in 0..6 {
            self.cat_checkouts[i] += ws1[i].checkouts.saturating_sub(ws0[i].checkouts);
            self.cat_misses[i] += ws1[i].misses.saturating_sub(ws0[i].misses);
        }
        self.fft_plan_hits += fft1.hits.saturating_sub(fft0.hits);
        self.fft_plan_misses += fft1.misses.saturating_sub(fft0.misses);
        out
    }
}

/// Whole-batch accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Number of pairs in the batch.
    pub pairs: usize,
    /// Interleave rounds executed (a round steps every active pair once).
    pub rounds: usize,
    /// Seconds spent on shared + per-pair setup (scaffold planning, problem
    /// construction). Amortized over `pairs`.
    pub setup_secs: f64,
    /// Seconds spent in the interleaved iterations and report assembly.
    pub solve_secs: f64,
}

/// Result for one batch member.
pub struct BatchItem {
    /// The pair's label, as submitted.
    pub label: String,
    /// The solve result: velocity + report, or the per-pair error
    /// (cancellation, deadline, invalid input).
    pub outcome: ClaireResult<(VectorField, RegistrationReport)>,
    /// Pool/plan-cache activity attributed to this member.
    pub memory: MemberMemStats,
    /// Traffic on this member's communicator (the solve and its report).
    pub comm: CommStats,
}

/// The full outcome of a batch solve: one item per pair, same order as
/// submitted, plus whole-batch stats.
pub struct BatchOutcome {
    /// Per-pair results, in submission order.
    pub items: Vec<BatchItem>,
    /// Whole-batch accounting.
    pub stats: BatchStats,
}

/// Registration solver for K pairs sharing one grid and configuration.
///
/// ```no_run
/// # use claire_core::{batch::{BatchPair, BatchSolver}, RegistrationConfig};
/// # use claire_grid::{Grid, Layout, ScalarField};
/// # let layout = Layout::serial(Grid::cube(16));
/// # let (m0a, m1a) = (ScalarField::zeros(layout), ScalarField::zeros(layout));
/// # let (m0b, m1b) = (ScalarField::zeros(layout), ScalarField::zeros(layout));
/// let solver = BatchSolver::new(RegistrationConfig::default());
/// let outcome = solver
///     .solve(vec![BatchPair::new("a", m0a, m1a), BatchPair::new("b", m0b, m1b)])
///     .unwrap();
/// for item in &outcome.items {
///     let (v, report) = item.outcome.as_ref().unwrap();
///     println!("{}: mismatch {:.3}", item.label, report.rel_mismatch);
/// }
/// ```
pub struct BatchSolver {
    /// Configuration applied to every pair.
    pub cfg: RegistrationConfig,
    thread_budget: usize,
}

impl BatchSolver {
    /// New batch solver; every pair uses `cfg`.
    pub fn new(cfg: RegistrationConfig) -> BatchSolver {
        BatchSolver { cfg, thread_budget: 0 }
    }

    /// Cap the worker threads the whole batch may use (0 = inherit the
    /// ambient budget). A batch is *one* unit of schedulable work: without
    /// a cap, a K-pair batch on a claire-serve worker would inherit the
    /// worker's single-job slice and still be just one kernel at a time —
    /// correct — but an explicit budget lets the scheduler hand a batch the
    /// slice it actually merged (e.g. the K jobs' combined share) without
    /// oversubscribing claire-par.
    pub fn with_thread_budget(mut self, threads: usize) -> BatchSolver {
        self.thread_budget = threads;
        self
    }

    /// Solve all `pairs`. Returns per-pair outcomes in submission order;
    /// the call itself only fails for batch-level misuse (empty batch,
    /// mixed layouts, invalid config) — per-pair failures (cancellation,
    /// deadlines) are reported inside the affected [`BatchItem`] while the
    /// remaining pairs complete normally.
    pub fn solve(&self, pairs: Vec<BatchPair>) -> ClaireResult<BatchOutcome> {
        if pairs.is_empty() {
            return Err(ClaireError::Config {
                param: "batch",
                message: "batch must contain at least one pair".into(),
            });
        }
        let layout = *pairs[0].template.layout();
        for p in &pairs {
            if *p.template.layout() != layout || *p.reference.layout() != layout {
                return Err(ClaireError::LayoutMismatch {
                    context: "BatchSolver::solve",
                    message: format!(
                        "all batch members must share one grid/layout; pair {:?} differs \
                         from the batch grid {:?}",
                        p.label, layout.grid.n
                    ),
                });
            }
        }
        if self.thread_budget > 0 {
            claire_par::with_local_threads(self.thread_budget, || self.solve_inner(pairs))
        } else {
            self.solve_inner(pairs)
        }
    }

    fn solve_inner(&self, pairs: Vec<BatchPair>) -> ClaireResult<BatchOutcome> {
        // a run of one is a solo solve, so it keeps the solo span root
        let _run_span = span(if pairs.len() == 1 { "solve" } else { "batch.solve" });
        let mut comms: Vec<Comm> = pairs.iter().map(|_| Comm::solo()).collect();
        solve_pairs(&self.cfg, "BatchSolver::solve", pairs, &mut comms)
    }
}

/// Run every pair to completion — setup, β-continuation and Gauss–Newton
/// interleaved round-robin, final reports — with member `i` communicating
/// over `comms[i]`. All pairs share one layout. Collective over each
/// member's communicator. `context` names the public entry point in a
/// member's [`ClaireError::Cancelled`]. Fails only on an invalid `cfg`.
pub(crate) fn solve_pairs(
    cfg: &RegistrationConfig,
    context: &'static str,
    pairs: Vec<BatchPair>,
    comms: &mut [Comm],
) -> ClaireResult<BatchOutcome> {
    cfg.validate()?;
    let k = pairs.len();
    let t0 = Instant::now();
    let layout = *pairs[0].template.layout();
    let mut mem: Vec<MemberMemStats> = vec![MemberMemStats::default(); k];

    // shared per-grid scaffolding (FFT symbols, 2LInvH0 transfer operators);
    // the first member is charged for it, so member counts sum to the run's
    let t_setup = Instant::now();
    let scaffold = mem[0].metered(|| SolverScaffold::new(cfg, layout.grid, &mut comms[0]));
    let plan = SolvePlan { context, betas: cfg.beta_schedule(), gn_cfg: level_gn_config(cfg) };
    let mut labels = Vec::with_capacity(k);
    let mut drivers: Vec<ClaireResult<PairDriver>> = Vec::with_capacity(k);
    for ((p, comm), mem) in pairs.into_iter().zip(comms.iter_mut()).zip(mem.iter_mut()) {
        labels.push(p.label);
        drivers.push(match &scaffold {
            Ok(scaffold) => mem.metered(|| {
                let problem =
                    RegProblem::with_scaffold(p.template, p.reference, *cfg, scaffold, comm)?;
                Ok(PairDriver::new(p.hooks, problem, &plan, comm))
            }),
            Err(e) => Err(e.clone()),
        });
    }
    let setup_secs = t_setup.elapsed().as_secs_f64();

    // the interleave: step every active pair once per round
    let mut rounds = 0usize;
    loop {
        let mut any = false;
        for (i, drv) in drivers.iter_mut().enumerate() {
            let Ok(drv) = drv else { continue };
            if drv.end.is_some() {
                continue;
            }
            any = true;
            mem[i].metered(|| drv.advance(&plan, &mut comms[i]));
        }
        if !any {
            break;
        }
        rounds += 1;
    }

    let mut items = Vec::with_capacity(k);
    for (((drv, label), comm), mut mem) in
        drivers.into_iter().zip(labels).zip(comms.iter_mut()).zip(mem)
    {
        let outcome = drv.and_then(|drv| {
            let v = drv.end.expect("the interleave runs every driver to its end")?;
            let mut problem = drv.problem;
            let report =
                mem.metered(|| build_report(cfg, &mut problem, &v, &label, comm, &drv.total));
            Ok((v, report))
        });
        items.push(BatchItem { label, outcome, memory: mem, comm: comm.stats().clone() });
    }
    let solve_secs = (t0.elapsed().as_secs_f64() - setup_secs).max(0.0);
    Ok(BatchOutcome { items, stats: BatchStats { pairs: k, rounds, setup_secs, solve_secs } })
}

/// What every pair iterates against.
struct SolvePlan {
    /// Entry point named in a member's `Cancelled` error.
    context: &'static str,
    betas: Vec<f64>,
    gn_cfg: GnConfig,
}

/// One pair's in-flight solver state.
struct PairDriver {
    hooks: SolverHooks,
    problem: RegProblem,
    /// Current β-level's Gauss–Newton state (`None` once `end` is set).
    state: Option<GnState>,
    level: usize,
    /// Statistics accumulated over the closed β-levels; `total.gn_iters` is
    /// the base of the cumulative iteration index the hooks see.
    total: GnStats,
    /// Final velocity or the error that retired the pair.
    end: Option<ClaireResult<VectorField>>,
}

impl PairDriver {
    /// A driver at the first β-level, starting from `v = 0`.
    fn new(hooks: SolverHooks, problem: RegProblem, plan: &SolvePlan, comm: &Comm) -> PairDriver {
        // reserve the histories up front so closing a β-level (accumulate)
        // never allocates inside a measured iteration
        let cap = plan.betas.len() * (plan.gn_cfg.max_iter + 1);
        let mut total = GnStats::default();
        total.grad_rel_history.reserve(cap);
        total.objective_history.reserve(cap);
        let mut drv = PairDriver { hooks, problem, state: None, level: 0, total, end: None };
        let v0 = VectorField::zeros(drv.problem.layout());
        drv.open_level(v0, plan, comm);
        drv
    }

    /// Start β-level `self.level` from `v`.
    fn open_level(&mut self, v: VectorField, plan: &SolvePlan, comm: &Comm) {
        let beta = plan.betas[self.level];
        if plan.gn_cfg.verbose && comm.rank() == 0 {
            eprintln!("== continuation level {}: beta = {beta:.3e} ==", self.level);
        }
        self.problem.set_beta(beta);
        self.state = Some(GnState::new(v, &plan.gn_cfg));
    }

    /// Close the current β-level into the running totals; returns its
    /// final iterate.
    fn close_level(&mut self) -> VectorField {
        let (v, stats) = self.state.take().expect("active driver has a level state").finish();
        accumulate(&mut self.total, &stats);
        v
    }

    /// One Gauss–Newton iteration boundary + iteration for this pair: fire
    /// the observer with the cumulative iteration index, *then* poll
    /// cancellation (so an observer can trip the token and stop the solve
    /// before that iteration runs), step, and roll to the next β-level (or
    /// retire) when the current level finishes.
    fn advance(&mut self, plan: &SolvePlan, comm: &mut Comm) {
        let _lvl = span("beta_level");
        let state = self.state.as_mut().expect("active driver has a level state");
        if let Some(cb) = &self.hooks.on_gn_iter {
            cb(self.total.gn_iters + state.stats().gn_iters);
        }
        if let Some(reason) = self.hooks.cancel.as_ref().and_then(CancelToken::stop_reason) {
            state.cancel();
            self.close_level();
            self.end = Some(Err(ClaireError::Cancelled {
                context: plan.context,
                message: format!(
                    "{} after {} Gauss-Newton iteration(s) at beta level {}",
                    reason.label(),
                    self.total.gn_iters,
                    self.level
                ),
            }));
            return;
        }
        records::set_context(self.level, plan.betas[self.level]);
        if state.step(&mut self.problem, &plan.gn_cfg, comm) {
            let v = self.close_level();
            self.level += 1;
            if self.level < plan.betas.len() {
                self.open_level(v, plan, comm);
            } else {
                self.end = Some(Ok(v));
            }
        }
    }
}
