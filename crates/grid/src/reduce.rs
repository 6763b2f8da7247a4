//! One order for every global sum.
//!
//! A global sum is formed the same way on every rank count, thread count
//! and transport, so a solve gives the same bits on all of them. The summed
//! array is cut into *planes* along its distributed axis — the x1 planes of
//! a real-space slab, the x2 indices of a spectral slab — and each plane has
//! one partial:
//!
//! - the rank that owns the plane forms it, on one thread: threads split a
//!   rank's planes and never split inside one;
//! - a plane is `rows` rows of `row_len` elements (one contiguous row in
//!   real space; `n1` rows of `n3c` coefficients in a spectral slab); the
//!   caller's row terms are added to the plane's partial in row order, and
//!   the terms of further arrays (the components of a vector field) after
//!   them, array by array.
//!
//! Every rank writes its partials into a zero vector indexed by global
//! plane, and the vector goes through one `Comm::allreduce_sum`. That sum
//! is exact, because each slot has exactly one nonzero contributor. Every
//! rank then folds the slots in index order. A single rank runs the same
//! code with a solo `Comm`, whose allreduce moves nothing.

use std::cell::Cell;
use std::ops::Range;

use claire_mpi::Comm;
use claire_par::{par_split, SharedSlice};

use crate::slab::{Layout, Slab};

thread_local! {
    /// The partials buffer, kept between reductions so that a steady-state
    /// reduction allocates nothing.
    static PARTIALS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// The local array `[rows, owned.ni, row_len]` (row-major) cut into the
/// planes it owns.
#[derive(Clone, Copy)]
struct Planes {
    /// The owned planes, as global indices.
    owned: Slab,
    rows: usize,
    row_len: usize,
}

impl Planes {
    /// Local element range of row `r` of local plane `l`.
    fn row(&self, r: usize, l: usize) -> Range<usize> {
        let lo = (r * self.owned.ni + l) * self.row_len;
        lo..lo + self.row_len
    }
}

/// The per-plane partials of one global sum (see the module docs).
pub struct PlaneSums {
    /// One partial per global plane; zero on planes other ranks own.
    partials: Vec<f64>,
    planes: Planes,
}

impl PlaneSums {
    /// Zero partials for `n` global planes of which this rank owns `owned`;
    /// its local array is `[rows, owned.ni, row_len]`, row-major.
    pub fn new(n: usize, owned: Slab, rows: usize, row_len: usize) -> Self {
        let mut partials = PARTIALS.take();
        partials.clear();
        partials.resize(n, 0.0);
        PlaneSums { partials, planes: Planes { owned, rows, row_len } }
    }

    /// The partials of a real-space field on `layout`: one per x1 plane.
    pub fn of_layout(layout: &Layout) -> Self {
        let [_, n2, n3] = layout.local_dims();
        PlaneSums::new(layout.grid.n[0], layout.slab, 1, n2 * n3)
    }

    /// Add `term(r, l)` to local plane `l`'s partial for every row `r` of
    /// every owned plane, in row order; threads split the planes.
    fn each_row(&mut self, term: impl Fn(usize, usize) -> f64 + Sync) {
        let Planes { owned, rows, row_len } = self.planes;
        let mine = &mut self.partials[owned.i0..owned.i_end()];
        par_split(owned.ni, owned.ni * rows * row_len, mine, |planes, partials| {
            for r in 0..rows {
                for (l, p) in planes.clone().zip(partials.iter_mut()) {
                    *p += term(r, l);
                }
            }
        });
    }

    /// Add `term(row)` for every row of every owned plane; `row` is the
    /// row's element range in the local array.
    pub fn add(&mut self, term: impl Fn(Range<usize>) -> f64 + Sync) {
        let planes = self.planes;
        self.each_row(|r, l| term(planes.row(r, l)));
    }

    /// [`PlaneSums::add`] for a term that also updates the row of `data`
    /// (the local array) it is handed: a fused update-plus-reduction pass.
    pub fn add_mut<T: Send>(
        &mut self,
        data: &mut [T],
        term: impl Fn(Range<usize>, &mut [T]) -> f64 + Sync,
    ) {
        let planes = self.planes;
        let len = planes.rows * planes.owned.ni * planes.row_len;
        assert_eq!(data.len(), len, "array does not match its planes");
        let shared = SharedSlice::new(data);
        self.each_row(|r, l| {
            let row = planes.row(r, l);
            // SAFETY: rows are disjoint, and a plane's rows are one worker's
            // (`each_row` splits the planes, never a plane).
            term(row.clone(), unsafe { shared.slice_mut(row) })
        });
    }

    /// This rank's share of the sum: its partials folded in plane order.
    pub fn local(self) -> f64 {
        self.partials.iter().sum()
    }

    /// The global sum: one allreduce of the partials, then the fold in
    /// plane order. Collective.
    pub fn global(mut self, comm: &mut Comm) -> f64 {
        comm.allreduce_sum(&mut self.partials);
        self.local()
    }
}

impl Drop for PlaneSums {
    fn drop(&mut self) {
        PARTIALS.set(std::mem::take(&mut self.partials));
    }
}
