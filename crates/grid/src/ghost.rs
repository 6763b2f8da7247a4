//! Periodic ghost-layer exchange along the slab dimension `x1`.
//!
//! The FD kernel (§3.2) and the interpolation kernel (§3.1) both need a halo
//! of `x1`-planes from neighbouring slabs: the paper communicates "a ghost
//! layer of size O(N2·N3) to neighboring MPI ranks". This module implements
//! that exchange for arbitrary halo widths — including widths larger than a
//! neighbour's slab (a rank then receives planes from several ranks), which
//! happens for the 8th-order stencil (width 4) on thin slabs.
//!
//! Traffic is accounted under [`CommCat::Ghost`], i.e. the `ghost_comm`
//! phase of Table 2 and the `comm` column of Table 3.

use claire_mpi::{Comm, CommCat};
use claire_par::par_chunks_mut;
use claire_par::timing::{self, Kernel};

use crate::error::{ClaireError, ClaireResult};
use crate::field::ScalarField;
use crate::real::Real;
use crate::slab::Layout;
use crate::workspace::{PoolVec, WsCat, REAL_POOL};

/// A scalar field extended by `width` ghost planes on both `x1` sides.
///
/// Storage dims are `[ni + 2·width, n2, n3]`; local plane `il` of the owned
/// slab lives at storage plane `il + width`. Storage is pooled (µFD), so
/// even code paths that allocate a fresh `GhostField` per exchange recycle
/// the buffer at steady state.
#[derive(Clone, Debug)]
pub struct GhostField {
    layout: Layout,
    width: usize,
    data: PoolVec<Real>,
}

impl GhostField {
    /// Halo width in planes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Layout of the interior (owned) slab.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Raw storage including halos.
    pub fn data(&self) -> &[Real] {
        &self.data
    }

    /// Value at owned-slab-relative plane `ii ∈ [-width, ni + width)`.
    #[inline]
    pub fn at(&self, ii: isize, j: usize, k: usize) -> Real {
        let g = self.layout.grid;
        debug_assert!(ii >= -(self.width as isize));
        debug_assert!(ii < (self.layout.slab.ni + self.width) as isize);
        let plane = (ii + self.width as isize) as usize;
        self.data[(plane * g.n[1] + j) * g.n[2] + k]
    }

    /// Check that `width` is a valid halo width for `layout`.
    pub fn validate(layout: &Layout, width: usize) -> ClaireResult<()> {
        let n0 = layout.grid.n[0];
        if width > n0 {
            return Err(ClaireError::Decomposition {
                context: "GhostField::alloc",
                message: format!("halo width {width} exceeds grid extent {n0}"),
            });
        }
        Ok(())
    }

    /// Zeroed ghost buffer sized for `layout` and `width`, to be filled by
    /// [`exchange_into`] — allocate once, reuse across exchanges. Returns a
    /// typed error when the halo width exceeds the grid extent.
    pub fn try_alloc(layout: Layout, width: usize) -> ClaireResult<GhostField> {
        Self::validate(&layout, width)?;
        let g = layout.grid;
        let plane = g.n[1] * g.n[2];
        let len = (layout.slab.ni + 2 * width) * plane;
        Ok(GhostField { layout, width, data: REAL_POOL.checkout_filled(len, 0.0, WsCat::Fd) })
    }

    /// Panicking convenience wrapper around [`GhostField::try_alloc`].
    pub fn alloc(layout: Layout, width: usize) -> GhostField {
        Self::try_alloc(layout, width).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Exchange ghost layers of `width` planes for `field`.
///
/// Works for any rank count, including serial (pure local periodic wrap).
/// All ranks of the communicator must call this collectively. Allocates the
/// ghost buffer; hot loops should hold one and call [`exchange_into`].
pub fn exchange(field: &ScalarField, width: usize, comm: &mut Comm) -> GhostField {
    let mut gf = GhostField::alloc(*field.layout(), width);
    exchange_into(field, comm, &mut gf);
    gf
}

/// Fill a pre-allocated ghost buffer (see [`GhostField::alloc`]) — the
/// allocation-free variant used by the FD scratch path. The interior copy is
/// parallelized over `x1`-planes; the send/receive part stays serial (it is
/// latency-bound and must follow the virtual-MPI per-rank message order).
pub fn exchange_into(field: &ScalarField, comm: &mut Comm, gf: &mut GhostField) {
    let layout = *field.layout();
    assert_eq!(gf.layout, layout, "ghost buffer layout mismatch");
    let width = gf.width;
    let g = layout.grid;
    let plane = g.n[1] * g.n[2];
    let ni = layout.slab.ni;
    let data = &mut gf.data;

    timing::time(Kernel::Ghost, || {
        // interior copy, parallel over planes
        let src = field.data();
        par_chunks_mut(&mut data[width * plane..(width + ni) * plane], plane, |pi, dst| {
            dst.copy_from_slice(&src[pi * plane..pi * plane + dst.len()]);
        });

        if layout.is_serial() {
            // periodic wrap without communication
            for w in 0..width {
                let src_lo = g.wrap(0, -(1 + w as isize)); // planes n-1, n-2, ...
                let dst_lo = width - 1 - w;
                data.copy_within(
                    (width + src_lo) * plane..(width + src_lo + 1) * plane,
                    dst_lo * plane,
                );
                let src_hi = g.wrap(0, (ni + w) as isize);
                let dst_hi = width + ni + w;
                data.copy_within(
                    (width + src_hi) * plane..(width + src_hi + 1) * plane,
                    dst_hi * plane,
                );
            }
            return;
        }

        // Global plane indices this rank needs, in halo storage order:
        // low halo: i0-width .. i0, high halo: i_end .. i_end+width (wrapped).
        // For every other rank, figure out (a) which of *my* planes it needs
        // and send them, (b) which planes I need from it and receive them.
        let p = layout.nranks;
        let me = layout.rank;

        // (plane in my halo storage) -> (owner, global plane)
        let mut needed: Vec<(usize, usize, usize)> = Vec::with_capacity(2 * width); // (storage_plane, owner, global_i)
        for w in 0..width {
            let gi = g.wrap(0, layout.slab.i0 as isize - width as isize + w as isize);
            needed.push((w, layout.owner_of_plane(gi), gi));
        }
        for w in 0..width {
            let gi = g.wrap(0, (layout.slab.i_end() + w) as isize);
            needed.push((width + ni + w, layout.owner_of_plane(gi), gi));
        }

        // Deterministically compute what each peer needs from me by replaying
        // the same rule from their perspective.
        const TAG_GHOST: u64 = 0x6805;
        for peer in 0..p {
            if peer == me {
                continue;
            }
            let pslab = layout.slab_of(peer);
            let mut planes_for_peer: Vec<usize> = Vec::new();
            for w in 0..width {
                let gi = g.wrap(0, pslab.i0 as isize - width as isize + w as isize);
                if layout.slab.owns(gi) {
                    planes_for_peer.push(gi);
                }
                let gi_hi = g.wrap(0, (pslab.i_end() + w) as isize);
                if layout.slab.owns(gi_hi) {
                    planes_for_peer.push(gi_hi);
                }
            }
            if !planes_for_peer.is_empty() {
                planes_for_peer.sort_unstable();
                planes_for_peer.dedup();
                let mut buf: Vec<Real> = Vec::with_capacity(planes_for_peer.len() * plane);
                for &gi in &planes_for_peer {
                    let il = gi - layout.slab.i0;
                    buf.extend_from_slice(&field.data()[il * plane..(il + 1) * plane]);
                }
                comm.send(peer, TAG_GHOST, CommCat::Ghost, &buf);
            }
        }

        // Receive from each owner I depend on; planes arrive sorted by global
        // index (the sender's ordering), deduplicated.
        let mut owners: Vec<usize> =
            needed.iter().map(|&(_, o, _)| o).filter(|&o| o != me).collect();
        owners.sort_unstable();
        owners.dedup();
        for owner in owners {
            let buf: Vec<Real> = comm.recv(owner, TAG_GHOST, CommCat::Ghost);
            let mut planes: Vec<usize> =
                needed.iter().filter(|&&(_, o, _)| o == owner).map(|&(_, _, gi)| gi).collect();
            planes.sort_unstable();
            planes.dedup();
            assert_eq!(buf.len(), planes.len() * plane, "ghost message size mismatch");
            for (slot, &gi) in planes.iter().enumerate() {
                for &(storage, o, need_gi) in &needed {
                    if o == owner && need_gi == gi {
                        data[storage * plane..(storage + 1) * plane]
                            .copy_from_slice(&buf[slot * plane..(slot + 1) * plane]);
                    }
                }
            }
        }

        // halo planes I own myself (tiny grids / wrap-around onto my own slab)
        for &(storage, o, gi) in &needed {
            if o == me {
                let il = gi - layout.slab.i0;
                data.copy_within((width + il) * plane..(width + il + 1) * plane, storage * plane);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use claire_mpi::{run_cluster, Topology};

    fn reference_value(g: Grid, i: isize, j: usize, k: usize) -> Real {
        let iw = g.wrap(0, i);
        (iw * 100 + j * 10 + k) as Real
    }

    fn indexed_field(layout: Layout) -> ScalarField {
        let g = layout.grid;
        let mut f = ScalarField::zeros(layout);
        for il in 0..layout.slab.ni {
            for j in 0..g.n[1] {
                for k in 0..g.n[2] {
                    *f.at_mut(il, j, k) = reference_value(g, (layout.slab.i0 + il) as isize, j, k);
                }
            }
        }
        f
    }

    fn check_halo(gf: &GhostField) {
        let l = gf.layout();
        let g = l.grid;
        let w = gf.width() as isize;
        for ii in -w..(l.slab.ni as isize + w) {
            for j in 0..g.n[1] {
                for k in 0..g.n[2] {
                    let expect = reference_value(g, l.slab.i0 as isize + ii, j, k);
                    assert_eq!(gf.at(ii, j, k), expect, "at ii={ii} j={j} k={k}");
                }
            }
        }
    }

    #[test]
    fn serial_wrap() {
        let layout = Layout::serial(Grid::new([6, 3, 2]));
        let f = indexed_field(layout);
        let mut comm = Comm::solo();
        let gf = exchange(&f, 2, &mut comm);
        check_halo(&gf);
    }

    #[test]
    fn distributed_matches_periodic_wrap() {
        for p in [2usize, 3, 4] {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(Grid::new([8, 3, 2]), comm);
                let f = indexed_field(layout);
                let gf = exchange(&f, 2, comm);
                check_halo(&gf);
                comm.stats().cat(CommCat::Ghost).bytes_sent
            });
            assert!(res.outputs.iter().all(|&b| b > 0), "ghost traffic expected for p={p}");
        }
    }

    #[test]
    fn wide_halo_spans_multiple_ranks() {
        // width 4 with slabs of 2 planes: halo needs planes from 2 ranks per side
        let res = run_cluster(Topology::new(4, 4), |comm| {
            let layout = Layout::distributed(Grid::new([8, 2, 2]), comm);
            let f = indexed_field(layout);
            let gf = exchange(&f, 4, comm);
            check_halo(&gf);
        });
        assert_eq!(res.outputs.len(), 4);
    }

    #[test]
    fn exchange_matches_over_socket_transport() {
        // Width-2 halos over 4 ranks, once per transport: every halo plane
        // must be byte-identical whether it traveled a channel or a socket.
        let f = |comm: &mut Comm| {
            let layout = Layout::distributed(Grid::new([8, 3, 2]), comm);
            let f = indexed_field(layout);
            let gf = exchange(&f, 2, comm);
            let (l, w) = (gf.layout(), gf.width() as isize);
            let mut bits = Vec::new();
            for ii in -w..(l.slab.ni as isize + w) {
                for j in 0..l.grid.n[1] {
                    for k in 0..l.grid.n[2] {
                        bits.push(gf.at(ii, j, k).to_bits());
                    }
                }
            }
            bits
        };
        let chan = run_cluster(Topology::new(4, 4), f);
        let sock = claire_ipc::run_socket_cluster(Topology::new(4, 4), f);
        assert_eq!(chan.outputs, sock.outputs, "transports must agree bitwise");
    }

    #[test]
    fn ghost_volume_matches_formula() {
        // paper: message size for ghost_comm is O(N2 N3) per side
        let res = run_cluster(Topology::new(2, 4), |comm| {
            let layout = Layout::distributed(Grid::new([8, 4, 6]), comm);
            let f = indexed_field(layout);
            let _ = exchange(&f, 1, comm);
            comm.stats().cat(CommCat::Ghost).bytes_sent as usize
        });
        let expected = 2 * 4 * 6 * std::mem::size_of::<Real>(); // two sides, one plane each
        assert!(res.outputs.iter().all(|&b| b == expected));
    }
}
