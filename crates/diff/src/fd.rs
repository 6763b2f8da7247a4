//! 8th-order central finite differences for first derivatives (§3.2).
//!
//! CLAIRE's GPU version computes gradient and divergence with an 8th-order
//! central stencil instead of spectral differentiation: more accurate at the
//! considered resolutions and much cheaper to parallelize — only a 4-plane
//! ghost-layer exchange along the slab dimension (`ghost_comm`) instead of a
//! global transpose. Derivatives along x2/x3 are rank-local (the slab
//! decomposition only splits x1): their halo is padded without
//! communication.
//!
//! There is one sweep: every derivative reads a [`GhostField`] padded by
//! [`FD8_WIDTH`] on every axis, so the grid's periodicity lives in the halo
//! and never in the stencil. Each output row is one contiguous
//! `claire_simd::fd8_combine_scale` over the eight neighbour rows, which sit a
//! padded plane (x1), a padded row (x2) or one value (x3) apart. Like the GPU
//! implementation (one thread per output element), the sweep splits the
//! output into `x1`-planes and hands contiguous blocks of them to worker
//! threads via `claire-par`. The ghost exchange stays a serial collective —
//! it is the `ghost_comm` phase, not kernel compute; [`gradient_into`] does
//! one exchange per field for all three components. The halo comes from
//! the `fd` workspace pool and goes back when its [`FdScratch`] drops: the
//! convenience wrappers (`deriv`, `gradient`, `divergence`) and
//! [`gradient_tiles`] hold one for the call only, and a loop that applies
//! the stencil many times in a row holds its own and calls
//! [`deriv_into`]/[`gradient_into`].
//!
//! A consumer that reads `∇f` once, point by point, need not hold it at all:
//! [`gradient_tiles`] runs the same sweep one x3-row tile at a time into
//! stack buffers and hands each tile to the consumer (the transport solves'
//! `ṽ·∇m` source and the `∫ λ ∇m dt` quadrature), so no `∇f` field is built.

use claire_grid::ghost::{self, GhostField};
use claire_grid::{Real, ScalarField, VectorField};
use claire_mpi::Comm;
use claire_par::timing::{self, Kernel};
use claire_par::{par_chunks_mut, par_parts};
use claire_simd::fd8_combine_scale;

/// Stencil coefficients `c_m` of the 8th-order central first derivative:
/// `f'(x) ≈ (1/h) Σ_{m=1..4} c_m (f(x+mh) − f(x−mh))`.
pub const FD8: [Real; 4] = [4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0];

/// Halo width of the stencil (points per side, on every axis).
pub const FD8_WIDTH: usize = 4;

/// Reusable buffers for repeated derivative applications: the ghost halo
/// every sweep reads and a temporary field for [`divergence_into`]. One scratch
/// per layout; buffers are checked out of the workspace pools lazily on
/// first use or layout change, and back in when the scratch drops.
#[derive(Debug, Default)]
pub struct FdScratch {
    ghost: Option<GhostField>,
    tmp: Option<ScalarField>,
}

impl FdScratch {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> FdScratch {
        FdScratch::default()
    }

    fn ghost_for(&mut self, f: &ScalarField) -> &mut GhostField {
        let fits =
            self.ghost.as_ref().is_some_and(|g| g.layout() == f.layout() && g.width() == FD8_WIDTH);
        if !fits {
            self.ghost = Some(GhostField::alloc(*f.layout(), FD8_WIDTH));
        }
        self.ghost.as_mut().unwrap()
    }
}

/// Partial derivative `∂f/∂x_dim` (dim ∈ {0,1,2}); collective over `comm`
/// when `dim == 0` (ghost exchange), local otherwise. Allocates the output;
/// the halo is pooled and held for this call only.
pub fn deriv(f: &ScalarField, dim: usize, comm: &mut Comm) -> ScalarField {
    let mut out = ScalarField::for_overwrite(*f.layout());
    deriv_into(f, dim, comm, &mut out, &mut FdScratch::new());
    out
}

/// Allocation-free partial derivative: writes `∂f/∂x_dim` into `out`, reusing
/// the halo buffer in `scratch`. Collective when `dim == 0`.
pub fn deriv_into(
    f: &ScalarField,
    dim: usize,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
) {
    // `inv_h · 1.0 == inv_h` exactly, so delegating to the scaled kernel
    // with `s = 1` is bit-identical to the historical unscaled sweep.
    deriv_scaled_into(f, dim, comm, out, scratch, 1.0 as Real);
}

/// Allocation-free *scaled* partial derivative: writes `s · ∂f/∂x_dim` into
/// `out` in the same stencil sweep (the scale folds into the `1/h` factor
/// already applied per point, so it costs nothing). Lets consumers that
/// immediately rescale a derivative — e.g. the `½·dt·(∇·v)` term of the
/// semi-Lagrangian adjoint — drop a whole extra pass over memory.
/// Collective when `dim == 0`; along x2/x3 the halo is padded locally.
pub fn deriv_scaled_into(
    f: &ScalarField,
    dim: usize,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
    s: Real,
) {
    assert!(dim < 3);
    let gf = scratch.ghost_for(f);
    if dim == 0 {
        ghost::exchange_into(f, comm, gf);
    } else {
        ghost::pad_into(f, gf);
    }
    sweep(gf, dim, out, s);
}

/// `s · ∂/∂x_dim` of a filled halo into `out`: one `fd8_combine_scale`
/// per output row, its eight neighbour rows a plane, a row or one value
/// apart in the padded storage.
fn sweep(gf: &GhostField, dim: usize, out: &mut ScalarField, s: Real) {
    let layout = *gf.layout();
    assert_eq!(out.layout(), &layout, "output layout mismatch");
    let inv_h = 1.0 as Real / layout.grid.spacing()[dim];
    let [_, n2, n3] = layout.local_dims();
    let [_, rows, cols] = gf.dims().stored;
    let stride = [rows * cols, cols, 1][dim];
    let gd = gf.data();
    timing::time(Kernel::Fd, || {
        par_chunks_mut(out.data_mut(), n2 * n3, |il, o| {
            for (j, o) in o.chunks_exact_mut(n3).enumerate() {
                let at = gf.offset(il as isize, j as isize, 0);
                let plus = std::array::from_fn(|m| &gd[at + (m + 1) * stride..][..n3]);
                let minus = std::array::from_fn(|m| &gd[at - (m + 1) * stride..][..n3]);
                fd8_combine_scale(o, &plus, &minus, &FD8, inv_h, s);
            }
        });
    });
}

/// Gradient `∇f` via three 8th-order derivatives. Collective. Wrapper over
/// [`gradient_into`] with a call-local scratch.
pub fn gradient(f: &ScalarField, comm: &mut Comm) -> VectorField {
    let mut out = VectorField::for_overwrite(*f.layout());
    gradient_into(f, comm, &mut out, &mut FdScratch::new());
    out
}

/// Allocation-free gradient: writes `∇f` into `out`, reusing `scratch`; one
/// halo exchange serves all three components. Collective.
pub fn gradient_into(
    f: &ScalarField,
    comm: &mut Comm,
    out: &mut VectorField,
    scratch: &mut FdScratch,
) {
    let gf = scratch.ghost_for(f);
    ghost::exchange_into(f, comm, gf);
    for (dim, o) in out.c.iter_mut().enumerate() {
        sweep(gf, dim, o, 1.0 as Real);
    }
}

/// Points per tile of [`gradient_tiles`] (a row of up to 1 KiB per
/// component). A point's value does not depend on its tile: the stencil
/// kernel never mixes lanes.
pub const TILE: usize = 128;

/// `∇f` one x3-row tile at a time, never as a field: one halo exchange, then
/// per row the three components of up to [`TILE`] consecutive points are
/// swept into stack buffers by the `fd8_combine_scale` of
/// [`gradient_into`] (the same values, bit for bit) and handed to
/// `each(at, [g1, g2, g3])`, `at` being the local index of the tile's first
/// point. Every owned point is in exactly one tile, and worker threads take
/// contiguous blocks of x1 planes, so `each` may write the points of its
/// tile through a [`claire_par::SharedSlice`]. Its halo is pooled and held
/// for this call only; the sweep and `each` run on the FD clock.
/// Collective.
pub fn gradient_tiles<F>(f: &ScalarField, comm: &mut Comm, each: F)
where
    F: Fn(usize, [&[Real]; 3]) + Sync,
{
    let mut gf = GhostField::alloc(*f.layout(), FD8_WIDTH);
    ghost::exchange_into(f, comm, &mut gf);
    let h = gf.layout().grid.spacing();
    let inv_h: [Real; 3] = std::array::from_fn(|d| 1.0 as Real / h[d]);
    let [n1, n2, n3] = gf.layout().local_dims();
    let [_, rows, cols] = gf.dims().stored;
    let stride = [rows * cols, cols, 1];
    let gd = gf.data();
    timing::time(Kernel::Fd, || {
        par_parts(n1, n1 * n2 * n3, |planes| {
            let mut tile = [[0.0 as Real; TILE]; 3];
            for il in planes {
                for j in 0..n2 {
                    for k0 in (0..n3).step_by(TILE) {
                        let len = TILE.min(n3 - k0);
                        let at = gf.offset(il as isize, j as isize, k0 as isize);
                        for (d, t) in tile.iter_mut().enumerate() {
                            let s = stride[d];
                            let plus = std::array::from_fn(|m| &gd[at + (m + 1) * s..][..len]);
                            let minus = std::array::from_fn(|m| &gd[at - (m + 1) * s..][..len]);
                            let out = &mut t[..len];
                            fd8_combine_scale(out, &plus, &minus, &FD8, inv_h[d], 1.0);
                        }
                        let [t1, t2, t3] = &tile;
                        each((il * n2 + j) * n3 + k0, [&t1[..len], &t2[..len], &t3[..len]]);
                    }
                }
            }
        });
    });
}

/// Divergence `∇·v` via three 8th-order derivatives. Collective. Wrapper
/// over [`divergence_into`] with a call-local scratch.
pub fn divergence(v: &VectorField, comm: &mut Comm) -> ScalarField {
    let mut out = ScalarField::for_overwrite(*v.layout());
    divergence_into(v, comm, &mut out, &mut FdScratch::new());
    out
}

/// Allocation-free divergence: writes `∇·v` into `out`, reusing the halo and
/// temporary field in `scratch`. Collective.
pub fn divergence_into(
    v: &VectorField,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
) {
    divergence_scaled_into(v, comm, out, scratch, 1.0 as Real);
}

/// Scaled divergence `s·(∇·v)`, allocation-free: the scale folds into each
/// component's stencil sweep (see [`deriv_scaled_into`]), so a consumer that
/// needs `s·∇·v` pays zero extra memory passes compared to `∇·v`. Collective.
pub fn divergence_scaled_into(
    v: &VectorField,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
    s: Real,
) {
    deriv_scaled_into(&v.c[0], 0, comm, out, scratch, s);
    // one temporary serves both tangential derivatives
    let mut tmp = scratch
        .tmp
        .take()
        .filter(|t| t.layout() == v.layout())
        .unwrap_or_else(|| ScalarField::for_overwrite(*v.layout()));
    for dim in 1..3 {
        deriv_scaled_into(&v.c[dim], dim, comm, &mut tmp, scratch, s);
        out.axpy(1.0, &tmp);
    }
    scratch.tmp = Some(tmp);
}

/// Scaled divergence wrapper over [`divergence_scaled_into`] with a
/// call-local scratch. Collective.
pub fn divergence_scaled(v: &VectorField, comm: &mut Comm, s: Real) -> ScalarField {
    let mut out = ScalarField::for_overwrite(*v.layout());
    divergence_scaled_into(v, comm, &mut out, &mut FdScratch::new(), s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{redist, Grid, Layout};
    use claire_mpi::{run_cluster, Topology};

    fn max_err(a: &ScalarField, b: &ScalarField) -> f64 {
        a.data().iter().zip(b.data()).map(|(&x, &y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn derivative_of_sine_all_dims() {
        let grid = Grid::cube(32);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        for dim in 0..3 {
            let f = ScalarField::from_fn(layout, |x, y, z| [x, y, z][dim].sin());
            let df = deriv(&f, dim, &mut comm);
            let expect = ScalarField::from_fn(layout, |x, y, z| [x, y, z][dim].cos());
            let e = max_err(&df, &expect);
            assert!(e < 1e-7, "dim {dim}: err {e}");
        }
    }

    #[test]
    fn eighth_order_convergence() {
        // error should drop by ~2^8 when doubling resolution on a mode
        // that is not exactly resolved by the stencil's null space
        let mut comm = Comm::solo();
        let errs: Vec<f64> = [16usize, 32]
            .iter()
            .map(|&n| {
                let layout = Layout::serial(Grid::cube(n));
                let f = ScalarField::from_fn(layout, |x, _, _| (3.0 * x).sin());
                let df = deriv(&f, 0, &mut comm);
                let expect = ScalarField::from_fn(layout, |x, _, _| 3.0 * (3.0 * x).cos());
                max_err(&df, &expect)
            })
            .collect();
        let order = (errs[0] / errs[1]).log2();
        assert!(order > 7.0, "observed order {order} (errors {errs:?})");
    }

    #[test]
    fn deriv_into_matches_deriv_and_reuses_scratch() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let f = ScalarField::from_fn(layout, |x, y, z| x.sin() * y.cos() + z.sin());
        let mut out = ScalarField::zeros(layout);
        let mut scratch = FdScratch::new();
        for dim in 0..3 {
            let expect = deriv(&f, dim, &mut comm);
            // twice through the same scratch: second call must reuse buffers
            deriv_into(&f, dim, &mut comm, &mut out, &mut scratch);
            deriv_into(&f, dim, &mut comm, &mut out, &mut scratch);
            assert_eq!(out.data(), expect.data(), "dim {dim}");
        }
    }

    #[test]
    fn divergence_into_matches_divergence() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(
            layout,
            |x, y, _| (x + y).sin(),
            |_, y, z| (y * 0.5).cos() + z.sin(),
            |x, _, z| (x + z).cos(),
        );
        let expect = divergence(&v, &mut comm);
        let mut out = ScalarField::zeros(layout);
        let mut scratch = FdScratch::new();
        divergence_into(&v, &mut comm, &mut out, &mut scratch);
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn scaled_deriv_matches_deriv_then_scale() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let f = ScalarField::from_fn(layout, |x, y, z| (x + 2.0 * y).sin() + (z * 0.5).cos());
        let s = 0.37 as Real;
        let mut scratch = FdScratch::new();
        for dim in 0..3 {
            let mut expect = deriv(&f, dim, &mut comm);
            expect.scale(s);
            let mut out = ScalarField::zeros(layout);
            deriv_scaled_into(&f, dim, &mut comm, &mut out, &mut scratch, s);
            let e = max_err(&out, &expect);
            assert!(e < 1e-11, "dim {dim}: err {e}");
        }
        // s == 1 is bit-identical to the unscaled path
        let unscaled = deriv(&f, 0, &mut comm);
        let mut out = ScalarField::zeros(layout);
        deriv_scaled_into(&f, 0, &mut comm, &mut out, &mut scratch, 1.0);
        assert_eq!(out.data(), unscaled.data());
    }

    #[test]
    fn scaled_divergence_matches_divergence_then_scale() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(
            layout,
            |x, y, _| (x + y).sin(),
            |_, y, z| (y * 0.5).cos() + z.sin(),
            |x, _, z| (x + z).cos(),
        );
        let s = -1.75 as Real;
        let mut expect = divergence(&v, &mut comm);
        expect.scale(s);
        let got = divergence_scaled(&v, &mut comm, s);
        let e = max_err(&got, &expect);
        assert!(e < 1e-11, "err {e}");
    }

    #[test]
    fn distributed_matches_serial() {
        let grid = Grid::new([16, 8, 8]);
        let mut comm = Comm::solo();
        let sf = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x).sin() * (2.0 * y).cos() + (x + z).sin()
        });
        let serial_grad = gradient(&sf, &mut comm);

        for p in [2usize, 3, 4, 5] {
            let expect: Vec<Vec<Real>> = serial_grad.c.iter().map(|c| c.data().to_vec()).collect();
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let f = ScalarField::from_fn(layout, |x, y, z| {
                    (x).sin() * (2.0 * y).cos() + (x + z).sin()
                });
                let grad = gradient(&f, comm);
                let mut errs = Vec::new();
                for (comp, exp) in grad.c.iter().zip(&expect) {
                    if let Some(full) = redist::gather(comp, comm) {
                        let e = full
                            .data()
                            .iter()
                            .zip(exp)
                            .map(|(&a, &b)| (a - b).abs())
                            .fold(0.0, f64::max);
                        errs.push(e);
                    }
                }
                errs
            });
            for e in &res.outputs[0] {
                assert!(*e < 1e-12, "p={p}: dist/serial mismatch {e}");
            }
        }
    }

    #[test]
    fn divergence_of_curl_like_field_vanishes() {
        // v = (sin(x2), sin(x3), sin(x1)) is divergence free
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let v =
            VectorField::from_fns(layout, |_, y, _| y.sin(), |_, _, z| z.sin(), |x, _, _| x.sin());
        let div = divergence(&v, &mut comm);
        let m = div.max_abs(&mut comm);
        assert!(m < 1e-10, "divergence should vanish: {m}");
    }
}
