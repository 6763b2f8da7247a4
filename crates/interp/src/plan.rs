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
use claire_par::par_split;
use claire_par::timing::{self, Kernel};
use claire_simd::{split_sites, HaloDims};

use crate::dist::Interpolator;
use crate::kernel::{to_site, IpOrder};

/// A query set prepared for repeated evaluation on one layout.
///
/// Holds one site per query, in query order, already split for the site
/// kernel (`claire_simd::split_sites`): per site the fractions `u − ⌊u⌋` of
/// its wrapped continuous grid index, `[Real; 3]` in the buffer the point
/// came in, and the `u32` storage index of its floor node in the
/// [`IpOrder::GHOST_WIDTH`] halo — 28 bytes per query, on every rank count.
/// On p > 1 ranks a query another rank owns holds a stand-in site (this
/// rank's first plane) in its slot, and the plan also holds the routing:
/// the sites this rank serves to its peers and where their values go.
/// Independent of the interpolation order and of the fields: the kernel
/// offsets the floor node by its stencil's reach, so any [`Interpolator`]
/// can evaluate any field of the plan's layout.
pub struct InterpPlan {
    layout: Layout,
    /// The halo the site nodes index.
    halo: HaloDims,
    /// Site `i` is query `i` (or a stand-in when a peer owns it).
    sites: Split<PoolVec<u32>, PoolVec<[Real; 3]>>,
    /// p > 1 ranks: the queries that travel.
    remote: Option<Routing>,
}

/// The split sites of one batch: floor nodes and fractions, site for site.
pub(crate) struct Split<N, F> {
    pub(crate) nodes: N,
    pub(crate) frac: F,
}

/// The queries that leave their rank: each goes to the rank owning its x1
/// plane. This rank's own slot is empty on both sides.
pub(crate) struct Routing {
    /// Owner side: `serve[r]` are the sites rank `r` routed here, in the
    /// order it sent them (the `alltoallv` receive buffers, split in place).
    pub(crate) serve: Vec<Split<Vec<u32>, Vec<[Real; 3]>>>,
    /// Requester side: `origins[r][k]` is the position in this rank's query
    /// list of the `k`-th query sent to owner `r`.
    pub(crate) origins: Vec<Vec<u32>>,
}

impl InterpPlan {
    /// Number of query points this rank asked for.
    pub fn len(&self) -> usize {
        self.sites.nodes.len()
    }

    /// Whether this rank asked for no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The layout the plan was built for.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn halo(&self) -> &HaloDims {
        &self.halo
    }

    pub(crate) fn sites(&self) -> &Split<PoolVec<u32>, PoolVec<[Real; 3]>> {
        &self.sites
    }

    pub(crate) fn remote(&self) -> Option<&Routing> {
        self.remote.as_ref()
    }
}

/// Sites converted and split per step of the plan's sweep: a step's sites
/// are split while they are still in L1.
const SPLIT_CHUNK: usize = 256;

/// Convert physical points to sites in place and split them for the kernel
/// on `halo` (one node per point) in the same sweep, 256 sites at a time.
fn points_to_sites(points: &mut [[Real; 3]], n: [usize; 3], halo: &HaloDims, nodes: &mut [u32]) {
    let len = points.len();
    assert_eq!(nodes.len(), len, "one node per point");
    par_split(len, len, (points, nodes), |_, (points, nodes)| {
        let chunks = points.chunks_mut(SPLIT_CHUNK).zip(nodes.chunks_mut(SPLIT_CHUNK));
        for (sites, nodes) in chunks {
            for p in sites.iter_mut() {
                *p = to_site(*p, n);
            }
            split_sites(halo, sites, nodes);
        }
    });
}

/// [`points_to_sites`] on p > 1 ranks: a site whose x1 plane another rank
/// owns is taken out before its chunk is split — it joins its owner's
/// bucket, its position joins the owner's origins, and its slot gets the
/// stand-in site `[i0, 0, 0]`. The sweep is serial so that each owner's
/// bucket is in query order; a first pass counts the buckets so each is
/// allocated once, at its size.
fn take_out_remote(
    layout: &Layout,
    points: &mut [[Real; 3]],
    halo: &HaloDims,
    nodes: &mut [u32],
) -> (Vec<Vec<[Real; 3]>>, Vec<Vec<u32>>) {
    let n1 = layout.grid.n[0];
    let away = |site: &[Real; 3]| {
        // a NaN x1 converts to plane 0
        let plane = (site[0] as usize).min(n1 - 1);
        (!layout.slab.owns(plane)).then(|| layout.owner_of_plane(plane))
    };
    let mut counts = vec![0; layout.nranks];
    for p in points.iter_mut() {
        *p = to_site(*p, layout.grid.n);
        if let Some(owner) = away(p) {
            counts[owner] += 1;
        }
    }
    let mut buckets: Vec<Vec<[Real; 3]>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut origins: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let stand_in = [layout.slab.i0 as Real, 0.0, 0.0];
    let chunks = points.chunks_mut(SPLIT_CHUNK).zip(nodes.chunks_mut(SPLIT_CHUNK));
    for (at, (sites, nodes)) in (0..).step_by(SPLIT_CHUNK).zip(chunks) {
        for (qi, site) in (at..).zip(sites.iter_mut()) {
            if let Some(owner) = away(site) {
                buckets[owner].push(*site);
                origins[owner].push(qi as u32);
                *site = stand_in;
            }
        }
        split_sites(halo, sites, nodes);
    }
    (buckets, origins)
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

    /// [`Interpolator::plan`] consuming the point buffer: the points become
    /// the plan's site fractions in place, so planning costs no second
    /// point-sized buffer, only the 4-byte node per query (and on p > 1
    /// ranks the sites that travel).
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

        // ---- phase: scatter_mpi_buffer (sites split; on p > 1 the ones
        //      another rank owns taken out, by owner) ----
        let mut nodes = INDEX_POOL.checkout_written(nq, u32::MAX, WsCat::Sl);
        let routed = timing::time(Kernel::Interp, || {
            if p == 1 {
                points_to_sites(&mut points, layout.grid.n, &halo, &mut nodes);
                None
            } else {
                Some(take_out_remote(&layout, &mut points, &halo, &mut nodes))
            }
        });
        let sites = Split { nodes, frac: points };
        let Some((buckets, origins)) = routed else {
            return InterpPlan { layout, halo, sites, remote: None };
        };

        // ---- phase: scatter_comm (ship sites to their owners) ----
        let received = comm.alltoallv_owned(buckets, CommCat::Scatter, AlltoallMethod::Auto);

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
        InterpPlan { layout, halo, sites, remote: Some(Routing { serve, origins }) }
    }
}
