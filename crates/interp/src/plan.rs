//! The per-query-set interpolation plan: *scatter once, interpolate many*.
//!
//! CLAIRE's velocity is stationary, so one set of departure points serves
//! every time step of the state, adjoint and incremental solves. Everything
//! about a scattered evaluation that depends only on the *points* — the
//! periodic wrap and physical → grid-index conversion, and on p > 1 ranks
//! the owner lookup, bucketing and the query `alltoallv` (Table 2's
//! `scatter_mpi_buffer` and `scatter_comm` phases) — happens here, once.
//! What depends on the *field* (ghost exchange, stencil kernel, value
//! return) is [`Interpolator::evaluate`].

use claire_grid::workspace::{PoolVec, WsCat, R3_POOL};
use claire_grid::{Layout, Real};
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_par::timing::{self, Kernel};
use claire_par::{par_parts, SharedSlice};

use crate::dist::Interpolator;
use crate::kernel::to_site;

/// A query set prepared for repeated evaluation on one layout.
///
/// Holds the *sites* this rank evaluates — each the wrapped continuous grid
/// index of a query point, `[Real; 3]`, the same 24 bytes as the point —
/// and, on p > 1 ranks, the routing that ties them to the ranks that asked.
/// Independent of the interpolation order and of the fields: any
/// [`Interpolator`] can evaluate any field of the plan's layout.
pub struct InterpPlan {
    layout: Layout,
    /// Query points this rank asked for (the length of every output).
    nq: usize,
    sites: Sites,
}

/// The sites a rank evaluates, and for whom.
pub(crate) enum Sites {
    /// One rank: site `i` is query `i`, in the (µSL-pooled) buffer the
    /// points arrived in.
    Local(PoolVec<[Real; 3]>),
    /// p > 1 ranks: each query went to the rank owning its x1 plane.
    Routed {
        /// Owner side: `serve[r]` are the sites rank `r` routed here, in
        /// the order it sent them (the `alltoallv` receive buffers).
        serve: Vec<Vec<[Real; 3]>>,
        /// Requester side: `origins[r][k]` is the position in this rank's
        /// query list of the `k`-th query sent to owner `r`. Together a
        /// permutation of `0..nq`.
        origins: Vec<Vec<u32>>,
    },
}

impl InterpPlan {
    /// Number of query points this rank asked for.
    pub fn len(&self) -> usize {
        self.nq
    }

    /// Whether this rank asked for no points.
    pub fn is_empty(&self) -> bool {
        self.nq == 0
    }

    /// The layout the plan was built for.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn sites(&self) -> &Sites {
        &self.sites
    }
}

/// Convert physical points to sites in place.
fn points_to_sites(points: &mut [[Real; 3]], n: [usize; 3]) {
    let len = points.len();
    let shared = SharedSlice::new(points);
    par_parts(len, len, |range| {
        // SAFETY: worker ranges are disjoint.
        for p in unsafe { shared.slice_mut(range) } {
            *p = to_site(*p, n);
        }
    });
}

impl Interpolator {
    /// Plan the evaluation of fields on `layout` at `queries`.
    ///
    /// Collective: every rank passes its own queries.
    pub fn plan(&self, layout: Layout, queries: &[[Real; 3]], comm: &mut Comm) -> InterpPlan {
        let mut points = R3_POOL.checkout(queries.len(), WsCat::Sl);
        points.extend_from_slice(queries);
        self.plan_owned(layout, points, comm)
    }

    /// [`Interpolator::plan`] consuming the point buffer: on one rank the
    /// points become the plan's sites in place, so planning costs no second
    /// point-sized buffer.
    ///
    /// Collective: every rank passes its own queries.
    pub fn plan_owned(
        &self,
        layout: Layout,
        mut points: PoolVec<[Real; 3]>,
        comm: &mut Comm,
    ) -> InterpPlan {
        let nq = points.len();
        let p = comm.size();
        assert_eq!(p, layout.nranks, "plan layout belongs to another communicator");

        // ---- phase: scatter_mpi_buffer (sites, partitioned by owner) ----
        let buckets = timing::time(Kernel::Interp, || {
            points_to_sites(&mut points, layout.grid.n);
            (p > 1).then(|| {
                // bucketing is serial to keep per-owner query order stable
                let n1 = layout.grid.n[0];
                let mut dest_sites: Vec<Vec<[Real; 3]>> = (0..p).map(|_| Vec::new()).collect();
                let mut origins: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
                for (qi, site) in points.iter().enumerate() {
                    let plane = (site[0] as usize).min(n1 - 1);
                    let owner = layout.owner_of_plane(plane);
                    dest_sites[owner].push(*site);
                    origins[owner].push(qi as u32);
                }
                (dest_sites, origins)
            })
        });
        let Some((dest_sites, origins)) = buckets else {
            return InterpPlan { layout, nq, sites: Sites::Local(points) };
        };
        drop(points);

        // ---- phase: scatter_comm (ship sites to their owners) ----
        let serve = comm.alltoallv_owned(dest_sites, CommCat::Scatter, AlltoallMethod::Auto);
        InterpPlan { layout, nq, sites: Sites::Routed { serve, origins } }
    }
}
