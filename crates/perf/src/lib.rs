//! Calibrated performance model of CLAIRE on the paper's system.
//!
//! The evaluation hardware of the paper (TACC Longhorn: 96 nodes × 4
//! NVIDIA V100, NVLink + InfiniBand, IBM Spectrum MPI) is not available to
//! this reproduction, and neither are grids of 2048³ (25 B unknowns). This
//! crate regenerates the paper's *scaling* tables analytically:
//!
//! * kernel compute times from a DRAM-roofline model of the V100
//!   ([`DeviceModel`]), using the paper's §3 operation
//!   counts (`cIP = 482·N/p` Lagrange / `30·N/p` linear, `cFD = 20·N/p`,
//!   FFT `O(N log N)` with a calibrated pass count);
//! * communication times from the α–β link model calibrated against the
//!   measured bandwidths of Table 4 ([`LinkModel`]);
//! * whole-solver times from the paper's cost composition (eq. 10).
//!
//! The same communication-volume formulas are *validated* against the
//! byte-accurate traffic instrumentation of functional runs on the virtual
//! cluster (see `tests/model_validation.rs` at the workspace root), so the
//! model is anchored on both ends: measured paper numbers above, measured
//! in-process traffic below.
//!
//! [`paper`] embeds the published numbers of Tables 2–7 so the bench
//! harness can print *paper vs reproduced* side by side.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod machine;
pub mod paper;
pub mod solver;

pub use kernels::{fd_time, fft_pair_time, sl_phases, SlPhases};
pub use machine::{DeviceModel, KernelTime, LinkModel, Machine};
pub use solver::{solver_time, SolverBreakdown, SolverCounts};
