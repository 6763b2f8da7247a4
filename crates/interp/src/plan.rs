//! The per-query-set interpolation plan: *scatter once, interpolate many*.
//!
//! CLAIRE's velocity is stationary, so one set of departure points serves
//! every time step of the state, adjoint and incremental solves. Everything
//! about a scattered evaluation that depends only on the *points* — the
//! periodic wrap and physical → grid-index conversion, the split of each
//! site into its floor node and fractions, and on p > 1 ranks the owner
//! lookup, bucketing and the query `alltoallv` (Table 2's
//! `scatter_mpi_buffer` and `scatter_comm` phases) — happens here, once.
//! What depends on the *field* (ghost exchange, stencil kernel, value
//! return) is [`Interpolator::evaluate`].

use claire_grid::ghost::halo_dims;
use claire_grid::workspace::{PoolVec, WsCat, INDEX_POOL, R3_POOL};
use claire_grid::{Layout, Real};
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_par::timing::{self, Kernel};
use claire_par::{par_parts, SharedSlice};
use claire_simd::{split_sites, HaloDims};

use crate::dist::Interpolator;
use crate::kernel::{to_site, IpOrder};

/// A query set prepared for repeated evaluation on one layout.
///
/// Holds the sites this rank evaluates, already split for the site kernel
/// (`claire_simd::split_sites`): per site the fractions `u − ⌊u⌋` of its
/// wrapped continuous grid index, `[Real; 3]` in the buffer the point came
/// in, and the `u32` storage index of its floor node in the
/// [`IpOrder::GHOST_WIDTH`] halo — 28 bytes per site. On p > 1 ranks it
/// also holds the routing that ties the sites to the ranks that asked.
/// Independent of the interpolation order and of the fields: the kernel
/// offsets the floor node by its stencil's reach, so any [`Interpolator`]
/// can evaluate any field of the plan's layout.
pub struct InterpPlan {
    layout: Layout,
    /// The halo the site nodes index.
    halo: HaloDims,
    /// Query points this rank asked for (the length of every output).
    nq: usize,
    sites: Sites,
}

/// The split sites of one batch: floor nodes and fractions, site for site.
pub(crate) struct Split<N, F> {
    pub(crate) nodes: N,
    pub(crate) frac: F,
}

/// The sites a rank evaluates, and for whom.
pub(crate) enum Sites {
    /// One rank: site `i` is query `i`; its fractions are in the
    /// (µSL-pooled) buffer the points arrived in.
    Local(Split<PoolVec<u32>, PoolVec<[Real; 3]>>),
    /// p > 1 ranks: each query went to the rank owning its x1 plane.
    Routed {
        /// Owner side: `serve[r]` are the sites rank `r` routed here, in
        /// the order it sent them (the `alltoallv` receive buffers, split
        /// in place).
        serve: Vec<Split<Vec<u32>, Vec<[Real; 3]>>>,
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

    pub(crate) fn halo(&self) -> &HaloDims {
        &self.halo
    }

    pub(crate) fn sites(&self) -> &Sites {
        &self.sites
    }
}

/// Sites converted and split per step of the plan's sweep: a step's sites
/// are split while they are still in L1.
const SPLIT_CHUNK: usize = 256;

/// Convert physical points to sites in place and, when `nodes` is given,
/// split them for the kernel on `halo` (one node per point) in the same
/// sweep.
fn points_to_sites(
    points: &mut [[Real; 3]],
    n: [usize; 3],
    split: Option<(&HaloDims, &mut [u32])>,
) {
    let len = points.len();
    let shared = SharedSlice::new(points);
    let nodes = split.map(|(halo, nodes)| (halo, SharedSlice::new(nodes)));
    par_parts(len, len, |range| {
        let end = range.end;
        for at in range.step_by(SPLIT_CHUNK) {
            let chunk = at..(at + SPLIT_CHUNK).min(end);
            // SAFETY: worker ranges, and so their chunks, are disjoint.
            let sites = unsafe { shared.slice_mut(chunk.clone()) };
            for p in sites.iter_mut() {
                *p = to_site(*p, n);
            }
            if let Some((halo, nodes)) = &nodes {
                // SAFETY: as above; `nodes` is as long as `points`.
                split_sites(halo, sites, unsafe { nodes.slice_mut(chunk) });
            }
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
    /// points become the plan's site fractions in place, so planning costs
    /// no second point-sized buffer, only the 4-byte node per site.
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
        let halo = halo_dims(&layout, IpOrder::GHOST_WIDTH);

        if p == 1 {
            // ---- phase: scatter_mpi_buffer (sites, split) ----
            let mut nodes = INDEX_POOL.checkout_written(nq, u32::MAX, WsCat::Sl);
            timing::time(Kernel::Interp, || {
                points_to_sites(&mut points, layout.grid.n, Some((&halo, &mut nodes)))
            });
            let sites = Sites::Local(Split { nodes, frac: points });
            return InterpPlan { layout, halo, nq, sites };
        }

        // ---- phase: scatter_mpi_buffer (sites, partitioned by owner) ----
        let (dest_sites, origins) = timing::time(Kernel::Interp, || {
            points_to_sites(&mut points, layout.grid.n, None);
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
        });
        drop(points);

        // ---- phase: scatter_comm (ship sites to their owners) ----
        let received = comm.alltoallv_owned(dest_sites, CommCat::Scatter, AlltoallMethod::Auto);

        // the owner splits what it was sent, against its own halo
        let serve = timing::time(Kernel::Interp, || {
            received
                .into_iter()
                .map(|mut frac| {
                    let mut nodes = vec![0; frac.len()];
                    split_sites(&halo, &mut frac, &mut nodes);
                    Split { nodes, frac }
                })
                .collect()
        });
        InterpPlan { layout, halo, nq, sites: Sites::Routed { serve, origins } }
    }
}
