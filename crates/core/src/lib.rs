//! CLAIRE-rs core: constrained large-deformation diffeomorphic image
//! registration.
//!
//! Implements the paper's optimal-control formulation (eq. 1): given a
//! template `m0` and a reference `m1`, find a stationary velocity `v`
//! minimizing
//!
//! ```text
//! J(v) = ½‖m(·,1) − m1‖²_{L²} + β/2 · reg(v)
//! s.t.  ∂t m + v·∇m = 0,  m(·,0) = m0
//! ```
//!
//! with an H1 regularization operator `A`. The solver is the paper's
//! reduced-space Gauss–Newton–Krylov method (Algorithm 2) with three
//! Hessian preconditioners:
//!
//! * [`PrecondKind::InvA`] — the spectral benchmark `(βA)⁻¹` (eq. 8);
//! * [`PrecondKind::InvH0`] — the paper's new zero-velocity preconditioner
//!   `H0 = βA + ∇m̄ ⊗ ∇m̄` solved by an inner PCG (eq. 9);
//! * [`PrecondKind::TwoLevelInvH0`] — its coarse-grid variant (`2LInvH0`,
//!   Algorithm 1).
//!
//! [`Claire`] wires everything together with the β-continuation scheme
//! (InvA while β > 5e−1, the configured preconditioner afterwards) and
//! produces [`RegistrationReport`]s containing exactly the columns of the
//! paper's Table 6 (the type lives in claire-obs: it is the `summary` of
//! every [`RunReport`](claire_obs::report::RunReport)).

#![forbid(unsafe_code)]

pub mod config;
pub mod memory;
pub mod metrics;
pub mod observe;
pub mod precond;
pub mod problem;
pub mod solver;

pub use claire_grid::workspace;
pub use claire_grid::{ClaireError, ClaireResult, Pool, PoolVec, WsCat};
pub use claire_obs::report::RegistrationReport;
pub use claire_opt::GnStats;
pub use config::{IpOrder, Precision, PrecondKind, RegistrationConfig, RegistrationConfigBuilder};
pub use observe::{begin as begin_observing, collect_run_report};
pub use problem::RegProblem;
pub use solver::{CancelToken, Claire, SolverHooks, StopReason};
