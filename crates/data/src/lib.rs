//! Synthetic datasets and I/O for CLAIRE-rs.
//!
//! The paper evaluates on three kinds of data, all gated behind resources
//! this reproduction does not have (clinical MRI, µm-scale CLARITY
//! microscopy). Per the reproduction's substitution policy (DESIGN.md §2)
//! each is replaced by a synthetic generator exercising the same code
//! paths and difficulty regime:
//!
//! * [`syn`] — the paper's analytic **SYN** problem, verbatim (§4):
//!   template `m0 = Σ sin²(x_i)/3`, reference generated by solving the
//!   forward problem with a known analytic velocity;
//! * [`brain`] — a **NIREP-like phantom**: smooth tissue blobs, ventricles
//!   and a cortex-like shell, with per-subject smooth random warps
//!   (subjects named `na01`, `na02`, … like the NIREP individuals);
//! * [`clarity`] — a **CLARITY-like phantom**: high-frequency speckle and
//!   vessel-like tubes on an anisotropic grid, reproducing the "high
//!   frequency content ⇒ harder Hessian systems, looser εH0" behaviour the
//!   paper reports;
//! * [`truth`] — ground-truth-velocity problems for Fig. 3: a reference
//!   synthesized by transporting a template with a *known* velocity, so
//!   the Hessian can be probed exactly at the solution;
//! * [`nifti`] — minimal NIfTI-1 (.nii) reader/writer, replacing the
//!   paper's niftilib dependency.

#![forbid(unsafe_code)]

pub mod brain;
pub mod clarity;
pub mod nifti;
pub mod syn;
pub mod truth;

pub use syn::{syn_problem, syn_velocity, SynProblem};
