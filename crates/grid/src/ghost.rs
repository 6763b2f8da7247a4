//! Periodic ghost layers: the one place that knows the grid is periodic.
//!
//! The FD kernel (§3.2) and the interpolation kernel (§3.1) are each one
//! stencil over a ghost-extended slab. A [`GhostField`] pads its slab by
//! `width` points on both sides of every axis, so no stencil wraps an index.
//! Along the slab dimension `x1` the paper communicates "a ghost layer of
//! size O(N2·N3) to neighboring MPI ranks"; [`exchange_into`] does that for
//! arbitrary halo widths — including widths larger than a neighbour's slab
//! (a rank then receives planes from several ranks), which happens for the
//! 8th-order stencil (width 4) on thin slabs. Planes travel unpadded and
//! are padded after receipt; the `x2`/`x3` halos are a local periodic copy
//! that also wraps more than once when the width exceeds the axis.
//!
//! Traffic is accounted under [`CommCat::Ghost`], i.e. the `ghost_comm`
//! phase of Table 2 and the `comm` column of Table 3.

use claire_mpi::{Comm, CommCat};
use claire_par::par_chunks_mut;
use claire_par::timing::{self, Kernel};
use claire_simd::HaloDims;

use crate::error::{ClaireError, ClaireResult};
use crate::field::ScalarField;
use crate::real::Real;
use crate::slab::Layout;
use crate::workspace::{PoolVec, WsCat, HALO_POOL};

/// A scalar field extended by `width` ghost points on both sides of every
/// axis.
///
/// Storage dims are `[ni + 2·width, n2 + 2·width, n3 + 2·width]`, x3
/// fastest; owned point `(il, j, k)` lives at storage point
/// `(il + width, j + width, k + width)`. Storage is pooled (µFD), so even
/// code paths that allocate a fresh `GhostField` per exchange recycle the
/// buffer at steady state.
#[derive(Clone, Debug)]
pub struct GhostField {
    layout: Layout,
    width: usize,
    dims: HaloDims,
    data: PoolVec<Real>,
}

impl GhostField {
    /// Halo width in points per side, the same on every axis.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Layout of the interior (owned) slab.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Storage shape, as the interpolation site kernel indexes it.
    pub fn dims(&self) -> HaloDims {
        self.dims
    }

    /// Raw storage including halos.
    pub fn data(&self) -> &[Real] {
        &self.data
    }

    /// Storage index of slab-relative point `(i, j, k)`, each coordinate in
    /// `[−width, n + width)` of its axis (`n = ni` for `i`).
    #[inline]
    pub fn offset(&self, i: isize, j: isize, k: isize) -> usize {
        let w = self.width as isize;
        let [_, rows, cols] = self.dims.stored;
        debug_assert!([i, j, k]
            .iter()
            .zip(self.dims.stored)
            .all(|(&x, s)| x >= -w && x + w < s as isize));
        ((i + w) as usize * rows + (j + w) as usize) * cols + (k + w) as usize
    }

    /// Value at slab-relative point `(i, j, k)` (see [`GhostField::offset`]).
    #[inline]
    pub fn at(&self, i: isize, j: isize, k: isize) -> Real {
        self.data[self.offset(i, j, k)]
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

    /// Ghost buffer sized for `layout` and `width`, to be filled by
    /// [`exchange_into`] (every point) or [`pad_into`] (all but the x1
    /// halo) — allocate once, reuse across exchanges. Its contents before
    /// the first fill are unspecified (NaN under `debug_assertions`).
    /// Returns a typed error when the halo width exceeds the grid extent.
    pub fn try_alloc(layout: Layout, width: usize) -> ClaireResult<GhostField> {
        Self::validate(&layout, width)?;
        let dims = halo_dims(&layout, width);
        let data = HALO_POOL.checkout_written(dims.points(), Real::NAN, WsCat::Fd);
        Ok(GhostField { layout, width, dims, data })
    }

    /// Panicking convenience wrapper around [`GhostField::try_alloc`].
    pub fn alloc(layout: Layout, width: usize) -> GhostField {
        Self::try_alloc(layout, width).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The storage shape of a [`GhostField`] of `layout` and `width`: what an
/// interpolation plan indexes its sites against before any field exists.
pub fn halo_dims(layout: &Layout, width: usize) -> HaloDims {
    let w = width as isize;
    HaloDims {
        stored: layout.local_dims().map(|n| n + 2 * width),
        origin: [w - layout.slab.i0 as isize, w, w],
    }
}

/// Periodic extension along one axis of `v`, viewed as slots of `len`
/// values: the `w` slots on either side of the `n` interior slots
/// `[w, w + n)` copy the slot `n` away, nearest first, so a halo wider than
/// the axis wraps more than once.
fn wrap_axis(v: &mut [Real], w: usize, n: usize, len: usize) {
    let mut hi = w;
    while hi > 0 {
        let lo = hi.saturating_sub(n);
        v.copy_within((lo + n) * len..(hi + n) * len, lo * len);
        hi = lo;
    }
    let (mut lo, end) = (w + n, n + 2 * w);
    while lo < end {
        let hi = (lo + n).min(end);
        v.copy_within((lo - n) * len..(hi - n) * len, lo * len);
        lo = hi;
    }
}

/// Write the unpadded `n2 × n3` plane `src` into the padded storage plane
/// `dst` and extend it periodically in x3, then in x2.
fn pad_plane(dst: &mut [Real], src: &[Real], w: usize, [n2, n3]: [usize; 2]) {
    let cols = n3 + 2 * w;
    for (row, s) in dst[w * cols..].chunks_exact_mut(cols).zip(src.chunks_exact(n3)) {
        row[w..w + n3].copy_from_slice(s);
        wrap_axis(row, w, n3, 1);
    }
    wrap_axis(dst, w, n2, cols);
}

/// The owned planes of `gf` and their x2/x3 halos, parallel over planes.
fn pad_owned(field: &ScalarField, gf: &mut GhostField) {
    assert_eq!(gf.layout, *field.layout(), "ghost buffer layout mismatch");
    let [ni, n2, n3] = gf.layout.local_dims();
    let (w, plane) = (gf.width, gf.dims.stored[1] * gf.dims.stored[2]);
    let src = field.data();
    par_chunks_mut(&mut gf.data[w * plane..(w + ni) * plane], plane, |il, dst| {
        pad_plane(dst, &src[il * n2 * n3..(il + 1) * n2 * n3], w, [n2, n3]);
    });
}

/// Exchange ghost layers of `width` points for `field`: a new ghost field
/// with every stored point set, owned points and all halos.
///
/// Works for any rank count, including serial (pure local periodic wrap).
/// All ranks of the communicator must call this collectively. Checks the
/// ghost buffer out of the pool without filling it first, since the
/// exchange writes every point; hot loops may hold one and call
/// [`exchange_into`].
pub fn exchange(field: &ScalarField, width: usize, comm: &mut Comm) -> GhostField {
    let mut gf = GhostField::alloc(*field.layout(), width);
    exchange_into(field, comm, &mut gf);
    gf
}

/// Fill `gf` from `field` except for its x1 halo — the owned planes and
/// their x2/x3 halos, everything a stencil along x2 or x3 reads — with no
/// communication. The x1 halo keeps whatever it held.
pub fn pad_into(field: &ScalarField, gf: &mut GhostField) {
    timing::time(Kernel::Ghost, || pad_owned(field, gf));
}

/// Fill a pre-allocated ghost buffer (see [`GhostField::alloc`]) — the
/// allocation-free variant used by the FD scratch path. The local padding
/// is parallelized over `x1`-planes; the send/receive part stays serial (it
/// is latency-bound and must follow the virtual-MPI per-rank message order).
pub fn exchange_into(field: &ScalarField, comm: &mut Comm, gf: &mut GhostField) {
    timing::time(Kernel::Ghost, || {
        pad_owned(field, gf);
        let layout = gf.layout;
        let width = gf.width;
        let g = layout.grid;
        let [ni, n2, n3] = layout.local_dims();
        let (plane, unpadded) = (gf.dims.stored[1] * gf.dims.stored[2], n2 * n3);
        let data = &mut gf.data;

        if layout.is_serial() {
            // periodic wrap without communication
            wrap_axis(data, width, ni, plane);
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
                let mut buf: Vec<Real> = Vec::with_capacity(planes_for_peer.len() * unpadded);
                for &gi in &planes_for_peer {
                    let il = gi - layout.slab.i0;
                    buf.extend_from_slice(&field.data()[il * unpadded..(il + 1) * unpadded]);
                }
                comm.send_owned(peer, TAG_GHOST, CommCat::Ghost, buf);
            }
        }

        // Receive from each owner I depend on; planes arrive sorted by global
        // index (the sender's ordering), deduplicated, and unpadded.
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
            assert_eq!(buf.len(), planes.len() * unpadded, "ghost message size mismatch");
            for (slot, &gi) in planes.iter().enumerate() {
                for &(storage, o, need_gi) in &needed {
                    if o == owner && need_gi == gi {
                        pad_plane(
                            &mut data[storage * plane..(storage + 1) * plane],
                            &buf[slot * unpadded..(slot + 1) * unpadded],
                            width,
                            [n2, n3],
                        );
                    }
                }
            }
        }

        // halo planes I own myself (tiny grids / wrap-around onto my own
        // slab), copied already padded
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

    fn reference_value(g: Grid, [i, j, k]: [isize; 3]) -> Real {
        (g.wrap(0, i) * 100 + g.wrap(1, j) * 10 + g.wrap(2, k)) as Real
    }

    fn indexed_field(layout: Layout) -> ScalarField {
        let g = layout.grid;
        let mut f = ScalarField::zeros(layout);
        for il in 0..layout.slab.ni {
            for j in 0..g.n[1] {
                for k in 0..g.n[2] {
                    let at = [(layout.slab.i0 + il) as isize, j as isize, k as isize];
                    *f.at_mut(il, j, k) = reference_value(g, at);
                }
            }
        }
        f
    }

    /// Every stored point — owned, x1 halo, x2/x3 halos and their corners —
    /// holds the periodic extension.
    fn check_halo(gf: &GhostField) {
        let (l, w) = (gf.layout(), gf.width() as isize);
        let [ni, n2, n3] = l.local_dims().map(|n| n as isize);
        let stored = (ni + 2 * w) * (n2 + 2 * w) * (n3 + 2 * w);
        assert_eq!(gf.data().len(), stored as usize, "storage is the padded slab");
        for i in -w..ni + w {
            for j in -w..n2 + w {
                for k in -w..n3 + w {
                    let expect = reference_value(l.grid, [l.slab.i0 as isize + i, j, k]);
                    assert_eq!(gf.at(i, j, k), expect, "at i={i} j={j} k={k}");
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
    fn halos_match_over_both_transports() {
        // Width-2 halos, and width-4 halos wider than x2/x3 and than a
        // slab (planes then come from two ranks per side), on 1–4 ranks:
        // every stored value is the periodic extension whether the planes
        // traveled a channel or a socket.
        for (n, width) in [([8, 3, 2], 2), ([8, 2, 2], 4)] {
            for p in 1..=4 {
                let f = move |comm: &mut Comm| {
                    let layout = Layout::distributed(Grid::new(n), comm);
                    let gf = exchange(&indexed_field(layout), width, comm);
                    check_halo(&gf);
                    gf.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let chan = run_cluster(Topology::new(p, 4), f);
                let sock = claire_ipc::run_socket_cluster(Topology::new(p, 4), f);
                assert_eq!(chan.outputs, sock.outputs, "{n:?} w={width} p={p}: transports differ");
            }
        }
    }

    #[test]
    fn local_padding_fills_all_but_the_x1_halo() {
        // Every stored point of an owned plane (x2/x3 halos and corners
        // included) holds the periodic extension; every point of the x1
        // halo still holds what was there before.
        const SENTINEL: Real = -7.5;
        let layout = Layout::serial(Grid::new([4, 3, 2]));
        let f = indexed_field(layout);
        let mut gf = GhostField::alloc(layout, 3);
        gf.data.fill(SENTINEL);
        pad_into(&f, &mut gf);
        for i in -3..7 {
            for j in -3..6 {
                for k in -3..5 {
                    let expect = if (0..4).contains(&i) {
                        reference_value(layout.grid, [i, j, k])
                    } else {
                        SENTINEL
                    };
                    assert_eq!(gf.at(i, j, k), expect, "at i={i} j={j} k={k}");
                }
            }
        }
    }

    #[test]
    fn ghost_volume_matches_formula() {
        // paper: message size for ghost_comm is O(N2 N3) per side, the
        // unpadded plane: the x2/x3 halos are padded after receipt
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
