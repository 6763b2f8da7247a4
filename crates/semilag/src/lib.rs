//! Semi-Lagrangian transport solvers (paper §2).
//!
//! CLAIRE discretizes the hyperbolic PDEs of the optimality system with an
//! unconditionally stable semi-Lagrangian scheme: the advection term is
//! evaluated along backward characteristics computed with a 2nd-order
//! Runge–Kutta scheme, and off-grid values are obtained by scattered
//! interpolation (the [`claire_interp`] kernel).
//!
//! Because CLAIRE's velocity is **stationary**, the characteristic foot
//! points are identical for every time step — they are computed once per
//! velocity ([`Trajectory`]) and reused across the `Nt` steps of all four
//! transport problems:
//!
//! * the **state** equation (1b): `∂t m + v·∇m = 0` forward in time;
//! * the **adjoint** equation (3): `−∂t λ − ∇·(λv) = 0` backward in time —
//!   a continuity equation, integrated along the characteristics of `−v`
//!   with a trapezoidal exponential source term `λ ∇·v`;
//! * the **incremental state** equation (6):
//!   `∂t m̃ + v·∇m̃ = −ṽ·∇m` (Gauss–Newton linearization);
//! * the **incremental adjoint** equation (7) — same operator as (3) with
//!   final condition `λ̃(1) = −m̃(1)`.
//!
//! [`displacement`] additionally integrates the deformation map
//! `y = x + u` and its Jacobian determinant for diffeomorphism checks.

#![forbid(unsafe_code)]

pub mod displacement;
pub mod traj;
pub mod transport;

pub use traj::Trajectory;
pub use transport::{StateSolution, Transport};
