//! Runtime-dispatched SIMD kernels for the solver's hot inner loops.
//!
//! The three computational kernels of the paper — scattered interpolation,
//! 8th-order FD, and FFT — are memory/ILP-bound once the solver is fixed
//! (Brunn et al., arXiv:2004.08893). CLAIRE's CUDA kernels get data-level
//! parallelism for free from the GPU's vector units; on CPU the equivalent
//! is AVX2+FMA, which this crate provides behind runtime dispatch:
//!
//! * [`Elem`] is the kernel surface of the two element widths: every kernel
//!   is a **safe slice-level associated function** (`T::kaxpy`,
//!   `T::kdot`, `T::kcpx_mul`, `T::kfft_cols`, …) implemented for `f64`
//!   and `f32`, which checks its length contract once and picks a backend
//!   per call from a cached process-wide choice;
//! * interpolation and FD run at f64 on every path, `Precision::Mixed`
//!   included (it demotes only the Krylov/FFT lane), so their kernels are
//!   the f64-only functions [`split_sites`], [`interp_sites`] and
//!   [`fd8_rows`], dispatched the same way;
//! * each kernel body is written once (the `xk` module): a `scalar_*`
//!   reference loop — the specification, with the pre-SIMD solver's exact
//!   operation order — and, for reductions, a `wide_*` 8-lane body with a
//!   fixed fold shape; the field ops and reductions are generic over the
//!   element width;
//! * the AVX2 arm of a kernel is that body compiled under
//!   `#[target_feature(enable = "avx2,fma")]`, except for the f64 kernels
//!   where a hand-written intrinsic measured ≥ 1.2× faster (the `avx2`
//!   module lists them); it is only ever selected after
//!   `is_x86_feature_detected!` confirms support;
//! * the **FFT kernels** (`kfft_cols`, `kfft_r2c`, `kfft_c2r`) are one
//!   generic Stockham body whose SIMD lanes are adjacent *lines* (the `fft`
//!   module): a register type with a dozen one-instruction methods stands
//!   in for the autovectorizer, `T` itself on the scalar backend and
//!   `__m256d`/`__m256` on AVX2; [`Stockham`] is the per-length stage table
//!   they execute;
//! * **fused single-pass kernels** (`kaxpy_dot`, `kscale_add_norm`,
//!   [`fd8_rows`]) combine a BLAS-1 update with
//!   the reduction (or scale) the solver takes immediately after, halving
//!   DRAM traffic for the memory-bound PCG chains (paper §3's cost model
//!   counts passes over memory, not flops).
//!
//! Dispatch granularity is a kernel call (a block of FD rows, a reduction
//! block, a batch of interpolation sites), never a single vector op — a per-op branch would
//! cost more than the op itself. The backend is resolved once from the
//! `CLAIRE_SIMD` environment variable (`auto` | `scalar`, default `auto`:
//! AVX2 wherever the host has it) and cached; tests and benches can
//! override it in-process with [`force_backend`].
//!
//! # Equivalence contract
//!
//! The vector arms fold reductions in 8 lanes and the f64 intrinsics
//! contract `a·b + c` into one FMA rounding, so the AVX2 backend is not
//! bit-identical to the scalar one. The contract (enforced by the proptest
//! suite in `tests/simd_equivalence.rs`) is ≤ 1e-12 (f64) / ≤ 1e-5 (f32)
//! *relative* error against the scalar path per kernel call, and strict
//! bitwise determinism *within* a backend: results never depend on thread
//! count, timing, or allocation state — only on the input values and the
//! selected backend. Reductions accumulate in f64 at both widths.

/// Route one kernel call to the dispatched backend. The AVX2 arm only
/// exists on x86-64; `Backend::Avx2` can never be cached elsewhere, so the
/// fallthrough to scalar is unreachable there but keeps the match
/// exhaustive.
macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        match $crate::active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Backend::Avx2 is only ever cached after
            // `is_x86_feature_detected!("avx2")` + `("fma")` succeeded.
            $crate::Backend::Avx2 => unsafe { $avx2 },
            _ => $scalar,
        }
    }};
}

#[cfg(target_arch = "x86_64")]
mod avx2;
mod elem;
mod fft;
mod xk;

pub use elem::Elem;
pub use fft::Stockham;
pub use xk::{HaloDims, Stencil};

/// A block of output rows of the 8th-order FD stencil and where it reads:
/// row `r` of the block is centred on `src[at + r·stride ..][..len]`.
/// A tile of whole x3 rows of one x1 plane is one block (`stride` the
/// padded row), a piece of a longer row a block of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowBlock {
    /// Source index of the block's first centre point.
    pub at: usize,
    /// Source distance from one row's first centre point to the next's.
    pub stride: usize,
    /// Rows in the block.
    pub rows: usize,
    /// Points per row.
    pub len: usize,
}

/// The 8th-order central-difference combine over a [`RowBlock`], its rows
/// one after another in `out`: with `i = at + r·stride + k`, the point's
/// value is `d = scale · Σ_m c[m] · (src[i + (m+1)·step] −
/// src[i − (m+1)·step])`, and `out[r·len + k]` becomes `d`, or
/// `out[r·len + k] + d` with `add`.
///
/// `step` is the source distance of one point along the differentiated
/// dimension: over a halo-padded slab a plane (x1), a row (x2) or one
/// value (x3), so every tile of an FD sweep is one call whatever its
/// direction. `scale` is `1/h` times any output factor, folded into the
/// one per-point multiply, so a derivative-then-scale chain is one memory
/// pass; `add` builds a sum of derivatives (a divergence) in `out` with no
/// pass of its own. A point's value does not depend on the block it is
/// made in: a block of `rows` rows equals `rows` one-row calls, bit for
/// bit.
pub fn fd8_rows(
    out: &mut [f64],
    src: &[f64],
    b: RowBlock,
    step: usize,
    c: &[f64; 4],
    scale: f64,
    add: bool,
) {
    assert_eq!(out.len(), b.rows * b.len, "fd8_rows: one output per block point");
    if out.is_empty() {
        return;
    }
    // the first and one past the last source index the stencil reads
    let reach = 4 * step;
    let first = b.at.checked_sub(reach);
    let end = (b.rows - 1)
        .checked_mul(b.stride)
        .and_then(|r| r.checked_add(b.at)?.checked_add(b.len)?.checked_add(reach));
    assert!(
        first.is_some() && end.is_some_and(|e| e <= src.len()),
        "fd8_rows: block {b:?} with step {step} reads outside the {} source values",
        src.len()
    );
    dispatch!(
        avx2::f64k::fd8_rows(out, src, b, step, c, scale, add),
        xk::scalar_fd8_rows(out, src, b, step, c, scale, add)
    )
}

/// Split a batch of interpolation sites for [`interp_sites`], in place.
///
/// A site comes in as a *global* continuous grid index `[u1, u2, u3]` and
/// leaves as its fractions `u − ⌊u⌋ ∈ [0, 1)`, while `nodes[i]` receives
/// the storage index in `dims` of its floor node `⌊u⌋`. This is everything
/// about a site the kernel needs that does not depend on the field, so a
/// plan splits its sites once and every evaluation only weighs and sums.
///
/// The split serves every [`Stencil`]: it checks the widest (cubic) support
/// `⌊u⌋ − 1 … ⌊u⌋ + 2` against the stored halo on every axis, and a site
/// outside it panics (the halo is the periodic extension; nothing wraps).
/// A NaN coordinate is not outside: it splits as node 0 with a NaN
/// fraction, and its values evaluate to NaN.
pub fn split_sites(dims: &HaloDims, sites: &mut [[f64; 3]], nodes: &mut [u32]) {
    assert_eq!(sites.len(), nodes.len(), "split_sites: one node per site");
    assert!(
        dims.points() <= u32::MAX as usize,
        "split_sites: halo {:?} too large for a u32 node index",
        dims.stored
    );
    dispatch!(avx2::f64k::split_sites(dims, sites, nodes), xk::split_sites(dims, sites, nodes))
}

/// Where [`interp_sites`] stores a batch's values: site `i`'s go to index
/// `i`, and every slice is as long as the batch.
#[derive(Debug)]
pub enum SiteOut<'a, const NF: usize> {
    /// One slice per field; with `scale`, each value times its site's
    /// factor (one rounding: the bits of an evaluation, then a multiply).
    PerField {
        /// Field `f`'s values.
        out: [&'a mut [f64]; NF],
        /// One factor per site.
        scale: Option<&'a [f64]>,
    },
    /// One `[f64; NF]` per site.
    Packed(&'a mut [[f64; NF]]),
}

impl<const NF: usize> SiteOut<'_, NF> {
    /// Whether every slice holds exactly `n` sites.
    pub fn holds(&self, n: usize) -> bool {
        match self {
            SiteOut::PerField { out, scale } => {
                out.iter().all(|o| o.len() == n) && scale.is_none_or(|s| s.len() == n)
            }
            SiteOut::Packed(p) => p.len() == n,
        }
    }

    /// Store site `i`'s values.
    #[inline(always)]
    pub fn put(&mut self, i: usize, v: [f64; NF]) {
        match self {
            SiteOut::PerField { out, scale } => {
                for (o, x) in out.iter_mut().zip(v) {
                    o[i] = match scale {
                        Some(s) => x * s[i],
                        None => x,
                    };
                }
            }
            SiteOut::Packed(p) => p[i] = v,
        }
    }
}

/// Batched scattered interpolation: evaluate `NF` halo-extended fields (all
/// of shape `dims`) at every site of a batch split by [`split_sites`] —
/// floor node `nodes[i]`, fractions `frac[i]` — and store each site's `NF`
/// values in `out`.
///
/// The kernel offsets the floor node by the stencil's reach, so one split
/// serves every stencil. A node whose taps would leave the halo panics
/// (only a node made by something other than [`split_sites`] for these
/// `dims` can). The backend is resolved once per batch; per site the basis
/// weights are computed once and every field accumulates against them. A
/// field's value does not depend on `NF`, on its position in `fields`, on
/// the site's position in the batch or on the form of `out`.
pub fn interp_sites<const NF: usize>(
    stencil: Stencil,
    dims: &HaloDims,
    fields: &[&[f64]; NF],
    nodes: &[u32],
    frac: &[[f64; 3]],
    mut out: SiteOut<'_, NF>,
) {
    assert_eq!(nodes.len(), frac.len(), "interp_sites: one node per site");
    assert!(out.holds(nodes.len()), "interp_sites: one output per site");
    for f in fields {
        assert_eq!(f.len(), dims.points(), "interp_sites field/halo shape mismatch");
    }
    dispatch!(
        avx2::f64k::interp_sites(stencil, dims, fields, nodes, frac, &mut out),
        xk::interp_sites(stencil, dims, fields, nodes, frac, &mut out)
    )
}

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// The implementation actually executing kernel calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar reference loops, bit-identical to the pre-SIMD solver.
    Scalar,
    /// AVX2+FMA vector kernels (x86-64 with detected support).
    Avx2,
}

impl Backend {
    /// Stable label used in `RunReport` and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// A requested backend (what `CLAIRE_SIMD` expresses); resolves to a
/// [`Backend`] depending on what the host supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Use AVX2 when compiled in and detected, scalar otherwise (default).
    Auto,
    /// Force the scalar reference path.
    Scalar,
}

impl Choice {
    /// Parse a `CLAIRE_SIMD` value; `None` for unrecognized strings.
    pub fn parse(s: &str) -> Option<Choice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(Choice::Auto),
            "scalar" => Some(Choice::Scalar),
            _ => None,
        }
    }
}

/// Whether the AVX2+FMA backend can run on this host (compiled in *and*
/// detected at runtime).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// 0 = unresolved, 1 = scalar, 2 = avx2.
static BACKEND: AtomicU8 = AtomicU8::new(0);
static WARN_ONCE: Once = Once::new();

fn resolve(choice: Choice) -> Backend {
    match choice {
        Choice::Scalar => Backend::Scalar,
        Choice::Auto if avx2_available() => Backend::Avx2,
        Choice::Auto => Backend::Scalar,
    }
}

fn resolve_and_cache() -> Backend {
    let choice = match std::env::var("CLAIRE_SIMD") {
        Ok(v) => Choice::parse(&v).unwrap_or_else(|| {
            WARN_ONCE.call_once(|| {
                eprintln!("claire-simd: unrecognized CLAIRE_SIMD={v:?}; using auto");
            });
            Choice::Auto
        }),
        Err(_) => Choice::Auto,
    };
    let b = resolve(choice);
    // cache only if still unresolved: a concurrent `force_backend` wins
    let _ = BACKEND.compare_exchange(0, b as u8 + 1, Ordering::Relaxed, Ordering::Relaxed);
    b
}

/// The backend executing kernel calls, resolved on first use from
/// `CLAIRE_SIMD` (or from the last [`force_backend`] override) and cached.
#[inline]
pub fn active_backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => resolve_and_cache(),
    }
}

/// Override the dispatched backend in-process (tests / benches A/B runs).
/// `None` clears the override so the next kernel call re-reads
/// `CLAIRE_SIMD`. Takes effect for subsequent kernel calls process-wide.
pub fn force_backend(choice: Option<Choice>) {
    match choice {
        Some(c) => BACKEND.store(resolve(c) as u8 + 1, Ordering::Relaxed),
        None => BACKEND.store(0, Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parsing() {
        assert_eq!(Choice::parse("auto"), Some(Choice::Auto));
        assert_eq!(Choice::parse(""), Some(Choice::Auto));
        assert_eq!(Choice::parse(" AUTO "), Some(Choice::Auto));
        assert_eq!(Choice::parse(" scalar "), Some(Choice::Scalar));
        assert_eq!(Choice::parse("portable"), None);
        assert_eq!(Choice::parse("neon"), None);
        // `avx2` is what `auto` picks wherever it can run: no choice of its own
        assert_eq!(Choice::parse("avx2"), None);
    }

    // One test owns the process-wide override: separate `#[test]`s would
    // race each other's `force_backend` under the parallel harness.
    #[test]
    fn forced_choices_resolve_and_stick() {
        force_backend(Some(Choice::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        assert_eq!(active_backend().label(), "scalar");

        force_backend(Some(Choice::Auto));
        let expect = if avx2_available() { Backend::Avx2 } else { Backend::Scalar };
        assert_eq!(active_backend(), expect);
        force_backend(None);
    }
}
