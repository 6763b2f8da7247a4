//! Periodic grids, fields, and slab decomposition for CLAIRE-rs.
//!
//! CLAIRE discretizes the domain `Ω = [0, 2π)³` on a regular grid with
//! periodic boundary conditions. The multi-GPU implementation of the paper
//! partitions the grid into *slabs* along the outermost dimension `x1`
//! (§3.2–3.3): rank `r` owns a contiguous range of `x1`-planes. This crate
//! provides:
//!
//! * [`Grid`] — global grid geometry (dims, spacing, coordinates);
//! * [`Slab`]/[`Layout`] — the x1-slab decomposition, with the convention
//!   that a *serial* field is just a slab covering the whole grid, so every
//!   kernel has a single code path for 1 and many ranks;
//! * [`ScalarField`]/[`VectorField`] — owned field storage with
//!   communicator-aware (distributed) reductions;
//! * [`reduce`] — the one order of every global sum ([`PlaneSums`]: one
//!   partial per plane), the same for every thread and rank count;
//! * [`ghost`] — periodic ghost-layer exchange along `x1`, the communication
//!   primitive behind the paper's `ghost_comm` phase (Tables 2 and 3);
//! * [`redist`] — gather/scatter/replication of fields between ranks for
//!   I/O and testing;
//! * [`workspace`] — the solver-wide buffer pool backing field storage and
//!   kernel scratch, mirroring the paper's §3 memory budget categories so a
//!   steady-state Gauss–Newton iteration performs no heap allocations.
//!
//! Storage order is row-major with `x3` fastest: `idx = (i·n2 + j)·n3 + k`,
//! matching the paper's layout ("the inner-most x3 dimension is always
//! continuous in memory").

pub mod error;
pub mod field;
pub mod ghost;
pub mod grid;
pub mod real;
pub mod redist;
pub mod reduce;
pub mod slab;
pub mod workspace;

pub use error::{ClaireError, ClaireResult};
pub use field::{KrylovVec, ScalarField, ScalarFieldT, VectorField, VectorFieldT};
pub use grid::Grid;
pub use real::{Real, PI, TWO_PI};
pub use reduce::PlaneSums;
pub use slab::{Layout, Slab};
pub use workspace::{FieldElem, Pool, PoolVec, WsCat};
