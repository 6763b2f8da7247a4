//! Scattered-data interpolation for the semi-Lagrangian scheme (paper §3.1).
//!
//! The semi-Lagrangian transport solver evaluates fields at the off-grid
//! end points of backward characteristics. On the paper's multi-GPU systems
//! this is the most important kernel; its distributed workflow has the five
//! phases that Table 2 reports:
//!
//! 1. `scatter_mpi_buffer` — partition the query points by owning rank
//!    (the paper uses `thrust::copy_if` on the GPU);
//! 2. `scatter_comm` — ship off-rank query points to their owners;
//! 3. `ghost_comm` — exchange the x1 ghost layers of the interpolated field
//!    needed by stencils near slab boundaries (and pad x2/x3 locally, so
//!    the stencil never wraps);
//! 4. `interp_kernel` — evaluate the interpolation stencils locally;
//! 5. `interp_comm` — return interpolated values to the requesting ranks.
//!
//! The interpolator keeps no clock of its own: the local phases 1 and 4 run
//! inside the `interp` kernel slot and phase 3 inside the `ghost` slot
//! (`claire_par::timing`), and the three exchanges are booked on the
//! `Scatter`, `Ghost` and `InterpValues` categories of the rank's
//! `CommStats` — the ledgers every RunReport carries.
//!
//! Two kernels are provided, mirroring the paper's production choices:
//! trilinear (`GPU-TXTLIN`, cost ~30 flop/query) and cubic Lagrange
//! (`GPU-TXTLAG`, ~482 flop/query). The paper prefers GPU-TXTLAG over the
//! prefiltered spline kernel in the distributed setting because the latter
//! would need an extra ghost exchange for the prefilter.

//!
//! The solver runs the workflow as *scatter once per velocity, interpolate
//! many times*: phases 1–2 build an [`InterpPlan`] for a query set, phases
//! 3–5 evaluate fields at it, and the one-shot `interp_*` entry points are
//! literally a plan build followed by one evaluation.

#![forbid(unsafe_code)]

pub mod dist;
pub mod kernel;
pub mod plan;

pub use dist::Interpolator;
pub use kernel::IpOrder;
pub use plan::InterpPlan;
