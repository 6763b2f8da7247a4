//! Matrix-free optimization: PCG and Gauss–Newton–Krylov (paper §2).
//!
//! CLAIRE solves `g(v) = 0` with a reduced-space Gauss–Newton–Krylov
//! method globalized by an Armijo line search (Algorithm 2). The Newton
//! step `H ṽ = −g` is solved by a matrix-free preconditioned conjugate
//! gradient method — the Hessian is never assembled, only its action on a
//! vector is available (two incremental PDE solves per matvec).
//!
//! This crate provides the two generic drivers:
//!
//! * [`pcg::pcg`] — preconditioned CG over [`VectorField`]s with a residual
//!   trace (the quantity plotted in the paper's Fig. 3);
//! * [`gn::gauss_newton`] — the outer Newton iteration with the paper's
//!   forcing sequence `εK = min(√‖g‖rel, 0.5)`, Armijo backtracking, and a
//!   per-component timing breakdown (the PC/Obj/Grad/Hess columns of
//!   Table 6 and Fig. 4).
//!
//! The registration-specific physics (objective, gradient, Hessian,
//! preconditioners) live in `claire-core` behind the [`gn::GnProblem`]
//! trait.
//!
//! [`VectorField`]: claire_grid::VectorField

#![forbid(unsafe_code)]

pub mod gn;
pub mod pcg;

pub use gn::{gauss_newton, GnConfig, GnProblem, GnState, GnStats};
pub use pcg::{pcg, PcgConfig, PcgOperator, PcgResult};
