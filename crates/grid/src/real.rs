//! Field scalar type.
//!
//! The paper runs CLAIRE in single precision on V100 GPUs. Here field
//! storage is `f64` — the functional experiments run at much smaller grid
//! sizes where robust Krylov convergence matters more than memory footprint
//! — and the paper's precision is a per-job runtime choice instead of a
//! build flavour: the solver configuration's `precision: Mixed` runs the
//! inner Krylov/FFT path on `ScalarFieldT<f32>` through the same
//! width-generic kernels. Reductions
//! accumulate in `f64` at either width.

/// Scalar type of all outer-loop field data.
pub type Real = f64;

/// π in field precision.
pub const PI: Real = std::f64::consts::PI;

/// 2π — the domain edge length of `Ω = [0, 2π)³`.
pub const TWO_PI: Real = 2.0 * std::f64::consts::PI;

/// Machine epsilon of the field precision.
pub const REAL_EPS: Real = Real::EPSILON;

/// Bytes per field scalar (the paper's `µ0`; 4 in their single-precision runs).
pub const REAL_BYTES: usize = std::mem::size_of::<Real>();
