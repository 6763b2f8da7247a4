//! Fast Fourier transforms for CLAIRE-rs.
//!
//! CLAIRE needs 3D FFTs for its spectral operators (vector Laplacian,
//! inverse regularization, Leray projection, spectral restriction and
//! prolongation). The paper replaces the CPU code's pencil-decomposed
//! AccFFT with cuFFT on a single GPU and, across GPUs, a **2D slab
//! decomposition**: batched 2D FFTs in the x2–x3 plane, an all-to-all
//! transpose to an x2 decomposition, and batched 1D FFTs along x1 (§3.3).
//! This crate reproduces exactly that structure in pure Rust:
//!
//! * [`Cpx`]/[`CpxT`] — complex numbers, generic over element width;
//! * [`Fft1d`] — 1D complex plan: for a {2,3,5}-smooth length the radix
//!   list and stage twiddles of the lanes kernel
//!   ([`claire_simd::Stockham`]: an iterative Stockham FFT that transforms
//!   a tile of adjacent lines at once, one line per SIMD lane), Bluestein's
//!   algorithm otherwise (so a 7- or 11-point axis works too);
//! * [`RealFft1d`] — real↔half-complex 1D plan (even lengths): the
//!   kernel's real pass, or pack-into-complex around Bluestein;
//! * [`pass`] — the three batched passes every 3-D transform is made of:
//!   real rows along x3, the kernel down each x2–x3 plane, the kernel down
//!   the x1 slab;
//! * [`Fft3`] — serial 3D real↔complex transform (the "cuFFT 3D" path used
//!   on a single rank): the three passes back to back;
//! * [`dist::DistFft`] — the distributed slab transform with the paper's
//!   transpose communication pattern, instrumented under
//!   [`CommCat::FftTranspose`](claire_mpi::CommCat::FftTranspose): the same
//!   passes around an all-to-all, with a 1–3-field entry point that sends
//!   all components of a vector operator in one message per peer;
//! * [`spectra::SpectralVecT`] — the three spectra of a vector field as a
//!   Krylov vector: `axpy`/`aypx`/fused `axpy_norm` and the Parseval inner
//!   product, so an iteration whose operators are diagonal in Fourier space
//!   stays there;
//! * [`cache`] — process-wide plan cache: stage tables and Bluestein
//!   kernels are computed once per length/grid and shared (`Arc`) across
//!   every plan built afterwards, including the β-continuation levels of
//!   the solver.
//!
//! Every plan is generic over [`FftElem`] (`f32` or `f64`) and both widths
//! run the same code: the mixed-precision solver runs its inner Krylov/FFT
//! path in f32, halving spectral memory and transpose wire traffic. The
//! tested contract at either width is accuracy against the O(n²) DFT plus
//! determinism — a line's bits depend on the line alone, not on its batch,
//! the thread count or the rank count — not a pinned bit pattern
//! (DESIGN.md §20).
//!
//! Spectral data uses the half-spectrum convention: for real input of dims
//! `[n1, n2, n3]`, the transform is complex of dims `[n1, n2, n3/2 + 1]`.

pub mod cache;
pub mod complex;
pub mod dist;
pub mod pass;
pub mod plan;
pub mod real;
pub mod serial3d;
pub mod spectra;

pub use claire_grid::{ClaireError, ClaireResult};
pub use complex::{Cpx, CpxT};
pub use dist::{DistFft, DistFftT, DistSpectral, DistSpectralT};
pub use plan::{Fft1d, Fft1dT};
pub use real::{RealFft1d, RealFft1dT};
pub use serial3d::{Fft3, Fft3T};
pub use spectra::SpectralVecT;

/// Shared pool for field-precision complex work buffers (per-worker
/// transform scratch, gathered lines, transpose staging) — all charged to
/// the µFFT budget.
pub static CPX_POOL: claire_grid::Pool<Cpx> = claire_grid::Pool::new();

/// f32 complex pool: spectral scratch for the mixed-precision inner solve
/// (half the bytes of [`CPX_POOL`] buffers).
pub static CPX32_POOL: claire_grid::Pool<CpxT<f32>> = claire_grid::Pool::new();

/// Element widths the FFT stack can transform.
///
/// Extends [`claire_grid::FieldElem`] (pooled field storage + SIMD kernels)
/// with what the spectral layer needs: wire-safety ([`claire_mpi::Pod`]) for
/// the transpose all-to-all, a width-matched complex buffer pool, and a
/// width-matched plan cache. Implemented for exactly `f32` and `f64`.
pub trait FftElem: claire_grid::FieldElem + claire_mpi::Pod {
    /// Pool for complex scratch of this width.
    fn cpx_pool() -> &'static claire_grid::Pool<CpxT<Self>>;
    /// Process-wide plan cache for this width.
    fn caches() -> &'static cache::Caches<Self>;
}

impl FftElem for f64 {
    fn cpx_pool() -> &'static claire_grid::Pool<CpxT<f64>> {
        &CPX_POOL
    }
    fn caches() -> &'static cache::Caches<f64> {
        &cache::CACHES_F64
    }
}

impl FftElem for f32 {
    fn cpx_pool() -> &'static claire_grid::Pool<CpxT<f32>> {
        &CPX32_POOL
    }
    fn caches() -> &'static cache::Caches<f32> {
        &cache::CACHES_F32
    }
}
