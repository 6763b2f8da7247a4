//! # CLAIRE-rs
//!
//! A Rust reproduction of *"Multi-Node Multi-GPU Diffeomorphic Image
//! Registration for Large-Scale Imaging Problems"* (Brunn, Himthani, Biros,
//! Mehl, Mang — SC 2020), the multi-node multi-GPU extension of the CLAIRE
//! library for large-deformation diffeomorphic image registration.
//!
//! This umbrella crate re-exports every subsystem:
//!
//! * [`mpi`] — virtual cluster (ranks-as-threads) message passing with
//!   byte-accurate traffic instrumentation and measured blocked time
//! * [`grid`] — periodic grids, scalar/vector fields, slab decomposition
//! * [`fft`] — mixed-radix FFTs, serial and slab-decomposed distributed 3D
//! * [`diff`] — 8th-order finite differences and spectral operators
//! * [`interp`] — trilinear/cubic Lagrange and distributed scattered
//!   interpolation
//! * [`semilag`] — semi-Lagrangian transport (state/adjoint/incremental)
//! * [`opt`] — matrix-free PCG and Gauss–Newton–Krylov optimization
//! * [`core`] — the registration problem, preconditioners (InvA, InvH0,
//!   2LInvH0), β-continuation, and the end-to-end solver
//! * [`data`] — synthetic datasets (SYN, brain phantom, CLARITY-like) and
//!   NIfTI-1 I/O
//! * [`perf`] — the calibrated performance model regenerating the paper's
//!   scaling tables
//! * [`par`] — shared-memory parallel kernel execution (the CPU analogue of
//!   the paper's GPU thread blocks) with deterministic reductions and
//!   per-kernel timing counters
//!
//! * [`ipc`] — true multi-process execution: the Unix-domain-socket
//!   [`mpi::Transport`], rendezvous bootstrap, and the rank process
//!   launcher behind `claire-cli launch`
//! * [`obs`] — spans, GN-iteration records, and the unified
//!   [`obs::report::RunReport`]
//!   (enable with [`core::observe::begin`], collect with
//!   [`core::observe::collect_run_report`])
//!
//! `claire-cli batch` runs the registrations of a JSON manifest on scoped
//! worker threads that split the thread budget, one job per worker at a
//! time, each job a [`core::Claire`] solve with its own report.
//!
//! ## Quickstart
//!
//! One `use` suffices — see `examples/quickstart.rs`:
//!
//! ```no_run
//! use claire::prelude::*;
//!
//! let mut comm = Comm::solo();
//! let prob = syn_problem([32, 32, 32], &mut comm);
//! let cfg = RegistrationConfig::builder().nt(4).beta(1e-2).build().unwrap();
//! let mut solver = Claire::new(cfg);
//! let (velocity, report) = solver.register(&prob.template, &prob.reference, &mut comm);
//! println!("mismatch reduced to {:.3e}", report.rel_mismatch);
//! # let _ = velocity;
//! ```

pub use claire_core as core;
pub use claire_data as data;
pub use claire_diff as diff;
pub use claire_fft as fft;
pub use claire_grid as grid;
pub use claire_interp as interp;
pub use claire_ipc as ipc;
pub use claire_mpi as mpi;
pub use claire_obs as obs;
pub use claire_opt as opt;
pub use claire_par as par;
pub use claire_perf as perf;
pub use claire_semilag as semilag;

/// Everything a typical registration program needs, one `use` away.
///
/// Covers the solver front door ([`core::Claire`], the validating
/// [`core::RegistrationConfig::builder`]), fields and grids, the virtual
/// cluster, synthetic problems, observability entry points, and the typed
/// error. Subsystem internals stay behind their module paths.
pub mod prelude {
    pub use crate::core::observe::{begin as begin_observing, collect_run_report};
    pub use crate::core::{
        Claire, ClaireError, ClaireResult, PrecondKind, RegProblem, RegistrationConfig,
        RegistrationConfigBuilder, RegistrationReport,
    };
    pub use crate::data::syn::{syn_problem, SynProblem};
    pub use crate::grid::{Grid, Layout, Real, ScalarField, VectorField};
    pub use crate::interp::IpOrder;
    pub use crate::mpi::{run_cluster, Comm, CommCat, Topology};
    pub use crate::obs::report::RunReport;
}
