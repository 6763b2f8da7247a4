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
//! There is one walk: [`row_tiles`] hands out the owned points as tiles of
//! at most [`TILE`] points — whole x3 rows of one x1 plane when a row fits
//! a tile, pieces of one row otherwise — contiguous blocks of x1 planes to
//! each worker thread (the GPU's one thread per output element). Every
//! derivative reads a [`GhostField`] padded by [`FD8_WIDTH`] on every axis,
//! so the grid's periodicity lives in the halo and never in the stencil, and
//! a tile of a derivative is one `claire_simd::fd8_rows` call over the
//! tile's rows, its neighbours a padded plane (x1), a padded row (x2) or
//! one value (x3) apart. The ghost exchange stays a serial collective (the
//! `ghost_comm` phase); a gradient does one for all three components. The
//! halo comes from the `fd` workspace pool and goes back when its
//! [`FdScratch`] drops: [`gradient`], [`divergence_scaled`] and
//! [`gradient_tiles`] hold one for the call only, and a loop that applies
//! the stencil many times holds its own and calls [`gradient_into`] or
//! [`divergence_into`]. A consumer that reads `∇f` once, point by point,
//! takes it from [`gradient_tiles`] a tile at a time (the transport solves'
//! `ṽ·∇m` source, the `∫ λ ∇m dt` quadrature), so no `∇f` field is built.

use claire_grid::ghost::{self, GhostField};
use claire_grid::{Real, ScalarField, VectorField};
use claire_mpi::Comm;
use claire_par::timing::{self, Kernel};
use claire_par::{par_split, Rows, Split};
use claire_simd::{fd8_rows, RowBlock};

/// Stencil coefficients `c_m` of the 8th-order central first derivative:
/// `f'(x) ≈ (1/h) Σ_{m=1..4} c_m (f(x+mh) − f(x−mh))`.
pub const FD8: [Real; 4] = [4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0];

/// Halo width of the stencil (points per side, on every axis).
pub const FD8_WIDTH: usize = 4;

/// Points per tile of [`row_tiles`] (up to 1 KiB per component).
/// A point's value does not depend on its tile: the stencil kernel never
/// mixes lanes.
pub const TILE: usize = 128;

/// The ghost halo every derivative reads, for repeated derivative
/// applications. One scratch per layout; the halo is checked out of the
/// workspace pool lazily on first use or layout change, and back in when
/// the scratch drops.
#[derive(Debug, Default)]
pub struct FdScratch {
    ghost: Option<GhostField>,
}

impl FdScratch {
    /// Empty scratch; the halo is allocated on first use.
    pub fn new() -> FdScratch {
        FdScratch::default()
    }

    fn ghost_for(&mut self, f: &ScalarField) -> &mut GhostField {
        let fits =
            self.ghost.as_ref().is_some_and(|g| g.layout() == f.layout() && g.width() == FD8_WIDTH);
        if !fits {
            self.ghost = Some(GhostField::alloc(*f.layout(), FD8_WIDTH));
        }
        self.ghost.as_mut().expect("just filled")
    }
}

/// One tile of [`row_tiles`]: `rows` x3 rows of `len` points each, the
/// first point at slab-relative `pos = [il, j, k0]` and local index `at`.
/// Its points are contiguous in an unpadded field: either whole rows
/// (`k0 = 0`, `len = n3`) or one piece of a row (`rows = 1`).
#[derive(Clone, Copy, Debug)]
pub struct Tile {
    pub pos: [usize; 3],
    pub at: usize,
    pub rows: usize,
    pub len: usize,
}

impl Tile {
    /// The tile's points.
    pub fn points(&self) -> usize {
        self.rows * self.len
    }

    /// The local indices of the tile's points.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.at..self.at + self.points()
    }
}

/// Walk the owned points of a `[n1, n2, n3]` slab in tiles of at most
/// [`TILE`] points, calling `each(tile, stack, part)`. Every owned point is
/// in exactly one tile, and worker threads take contiguous blocks of x1
/// planes; `out` holds one item per owned point (`()` when nothing is
/// written), and `part` is the tile's own items of it — a worker's tiles
/// are consecutive, so it peels them off its part one split at a time.
/// `stack` is three tile-sized rows on the calling worker's stack, kept
/// across its tiles.
/// When a row fits a tile (`n3 ≤ TILE`), a tile is `⌊TILE/n3⌋` whole rows
/// of one plane (the last of a plane may have fewer), so a short row costs
/// no call of its own. A longer row is cut into tiles of `TILE` points and
/// a shorter last one, and the walk takes all of one row's tiles before
/// the next row's.
#[inline(always)]
pub fn row_tiles<P, F>(dims: [usize; 3], out: P, each: F)
where
    P: Split,
    F: Fn(Tile, &mut [[Real; TILE]; 3], P) + Sync,
{
    let [n1, n2, n3] = dims;
    // rows per tile and points per row piece
    let (per, width) = if n3 <= TILE { (TILE / n3.max(1), n3) } else { (1, TILE) };
    par_split(n1, n1 * n2 * n3, Rows(out, n2 * n3), |planes, Rows(mut rest, _)| {
        let mut stack = [[0.0 as Real; TILE]; 3];
        for il in planes {
            for j in (0..n2).step_by(per) {
                let rows = per.min(n2 - j);
                for k0 in (0..n3).step_by(width) {
                    let len = width.min(n3 - k0);
                    let at = (il * n2 + j) * n3 + k0;
                    let (part, tail) = rest.cut_at(rows * len);
                    rest = tail;
                    each(Tile { pos: [il, j, k0], at, rows, len }, &mut stack, part);
                }
            }
        }
    });
}

/// `s · ∂/∂x_dim` of a filled halo, a tile at a time.
struct Deriv<'a> {
    gd: &'a [Real],
    // the storage index of the owned point [0, 0, 0], and the storage
    // distances of one x1 plane, one x2 row and one step along x_dim
    origin: usize,
    plane: usize,
    row: usize,
    step: usize,
    // `s/h`, as `(1/h)·s`
    scale: Real,
}

impl<'a> Deriv<'a> {
    fn new(gf: &'a GhostField, dim: usize, s: Real) -> Deriv<'a> {
        let [_, rows, cols] = gf.dims().stored;
        Deriv {
            gd: gf.data(),
            origin: gf.offset(0, 0, 0),
            plane: rows * cols,
            row: cols,
            step: [rows * cols, cols, 1][dim],
            scale: 1.0 / gf.layout().grid.spacing()[dim] * s,
        }
    }

    /// The derivative at the points of `t` into `out` (`t.points()`
    /// values), or with `add` added to them: one [`fd8_rows`] call over the
    /// tile's rows.
    #[inline(always)]
    fn tile(&self, t: Tile, out: &mut [Real], add: bool) {
        let [il, j, k0] = t.pos;
        let at = self.origin + il * self.plane + j * self.row + k0;
        let block = RowBlock { at, stride: self.row, rows: t.rows, len: t.len };
        fd8_rows(out, self.gd, block, self.step, &FD8, self.scale, add);
    }
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
    assert_eq!(out.layout(), f.layout(), "output layout mismatch");
    let gf = scratch.ghost_for(f);
    ghost::exchange_into(f, comm, gf);
    let d: [Deriv; 3] = std::array::from_fn(|dim| Deriv::new(gf, dim, 1.0));
    let out = out.c.each_mut().map(|c| c.data_mut());
    timing::time(Kernel::Fd, || {
        row_tiles(f.layout().local_dims(), out, |t, _, out| {
            for (d, o) in d.iter().zip(out) {
                d.tile(t, o, false);
            }
        });
    });
}

/// `∇f` one [`row_tiles`] tile at a time, never as a field: one halo
/// exchange, then per tile the three components are made in the walker's
/// stack rows by the stencil of [`gradient_into`] (the same values, bit for
/// bit) and handed to `each(at, [g1, g2, g3], part)`, `at` being the local
/// index of the tile's first point and `part` the tile's own items of
/// `out` (one item per owned point, as in [`row_tiles`]). Its halo is
/// pooled and held for this call only; the stencil and `each` run on the
/// FD clock. Collective.
pub fn gradient_tiles<P, F>(f: &ScalarField, comm: &mut Comm, out: P, each: F)
where
    P: Split,
    F: Fn(usize, [&[Real]; 3], P) + Sync,
{
    let mut scratch = FdScratch::new();
    let gf = scratch.ghost_for(f);
    ghost::exchange_into(f, comm, gf);
    let d: [Deriv; 3] = std::array::from_fn(|dim| Deriv::new(gf, dim, 1.0));
    timing::time(Kernel::Fd, || {
        row_tiles(f.layout().local_dims(), out, |t, stack, part| {
            let n = t.points();
            for (d, r) in d.iter().zip(stack.iter_mut()) {
                d.tile(t, &mut r[..n], false);
            }
            let [g1, g2, g3] = &*stack;
            each(t.at, [&g1[..n], &g2[..n], &g3[..n]], part);
        });
    });
}

/// Allocation-free divergence: writes `∇·v` into `out`, reusing the halo in
/// `scratch`. Collective.
pub fn divergence_into(
    v: &VectorField,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
) {
    divergence_scaled_into(v, comm, out, scratch, 1.0);
}

/// Scaled divergence `s·(∇·v)`. The scale folds into the stencil's `1/h`
/// factor, so a consumer that needs `s·∇·v` (the `½·δt·(∇·v)` of the
/// semi-Lagrangian adjoint) pays no extra pass over memory. Collective.
pub fn divergence_scaled(v: &VectorField, comm: &mut Comm, s: Real) -> ScalarField {
    let mut out = ScalarField::for_overwrite(*v.layout());
    divergence_scaled_into(v, comm, &mut out, &mut FdScratch::new(), s);
    out
}

/// `s·(∇·v)` into `out`, `(s∂₁v₁ + s∂₂v₂) + s∂₃v₃` per point: one halo
/// serves the three components in turn (exchanged for `v₁`, padded locally
/// for `v₂`, `v₃`); the x1 derivative is stored and each x2/x3 derivative
/// tile is added into `out` by the stencil kernel as it is made.
fn divergence_scaled_into(
    v: &VectorField,
    comm: &mut Comm,
    out: &mut ScalarField,
    scratch: &mut FdScratch,
    s: Real,
) {
    assert_eq!(out.layout(), v.layout(), "output layout mismatch");
    for (dim, c) in v.c.iter().enumerate() {
        let gf = scratch.ghost_for(c);
        if dim == 0 {
            ghost::exchange_into(c, comm, gf);
        } else {
            ghost::pad_into(c, gf);
        }
        let d = Deriv::new(gf, dim, s);
        timing::time(Kernel::Fd, || {
            row_tiles(v.layout().local_dims(), out.data_mut(), |t, _, o| {
                d.tile(t, o, dim > 0);
            });
        });
    }
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
            let df = &gradient(&f, &mut comm).c[dim];
            let expect = ScalarField::from_fn(layout, |x, y, z| [x, y, z][dim].cos());
            let e = max_err(df, &expect);
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
                let df = &gradient(&f, &mut comm).c[0];
                let expect = ScalarField::from_fn(layout, |x, _, _| 3.0 * (3.0 * x).cos());
                max_err(df, &expect)
            })
            .collect();
        let order = (errs[0] / errs[1]).log2();
        assert!(order > 7.0, "observed order {order} (errors {errs:?})");
    }

    #[test]
    fn divergence_into_is_the_unit_scaled_divergence() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(
            layout,
            |x, y, _| (x + y).sin(),
            |_, y, z| (y * 0.5).cos() + z.sin(),
            |x, _, z| (x + z).cos(),
        );
        let mut out = ScalarField::zeros(layout);
        let mut scratch = FdScratch::new();
        // twice through the same scratch: the second call reuses its halo
        divergence_into(&v, &mut comm, &mut out, &mut scratch);
        divergence_into(&v, &mut comm, &mut out, &mut scratch);
        assert_eq!(out.data(), divergence_scaled(&v, &mut comm, 1.0).data());
        let s = -1.75 as Real;
        out.scale(s);
        let e = max_err(&divergence_scaled(&v, &mut comm, s), &out);
        assert!(e < 1e-11, "s·∇·v: err {e}");
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
        let div = divergence_scaled(&v, &mut comm, 1.0);
        let m = div.max_abs(&mut comm);
        assert!(m < 1e-10, "divergence should vanish: {m}");
    }
}
