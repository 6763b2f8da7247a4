//! Spectral restriction / prolongation / high-pass between a fine grid and
//! its half-resolution coarse grid — the grid-transfer machinery of the
//! two-level preconditioner `2LInvH0` (paper Algorithm 1):
//!
//! ```text
//! sf ← (βA)⁻¹ r
//! sc ← RESTRICT(sf)
//! sc ← run CG(H0c, sc, (βA)⁻¹, tol)      (on the coarse grid)
//! sf ← PROLONG(sc) + HIGHPASS(sf)
//! ```
//!
//! "The restriction and prolongation operators are implemented in the
//! spectral domain" (§2): restriction truncates to the modes representable
//! on the coarse grid, prolongation zero-pads, high-pass keeps the
//! complement. All three are one operation on spectra — copy the modes both
//! grids hold from one spectrum over those of another
//! ([`TwoLevelT::truncate`], [`TwoLevelT::pad`], [`TwoLevelT::merge_low`]) —
//! and cost no transform; the field-level `restrict*`/`prolong*` are those
//! between a forward and an inverse transform. A coefficient whose
//! destination row this rank owns is written straight into the destination
//! spectrum (on one rank, and on two, all of them); only the others cross
//! between the fine and coarse x2-slab decompositions, as `(index, value)`
//! pairs in one all-to-all.

use claire_fft::{CpxT, DistFftT, DistSpectralT, FftElem};
use claire_grid::{Grid, Real, ScalarFieldT, Slab, VectorFieldT};
use claire_mpi::{AlltoallMethod, Comm, CommCat, Pod};
use claire_par::timing::{self, Kernel};

/// One spectral coefficient in flight between decompositions. At f32 the
/// payload shrinks from 24 to 16 bytes per coefficient, cutting the
/// two-level transfer's wire traffic in the mixed-precision inner solve.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct PackedCoefT<T> {
    /// Linear index in the *destination* grid's global spectral array.
    idx: u64,
    re: T,
    im: T,
}

// SAFETY: repr(C); u64 + 2×T has no padding for T ∈ {f32, f64}.
unsafe impl<T: Pod> Pod for PackedCoefT<T> {}

/// Grid-transfer operators between a fine grid and `fine.coarsen()`,
/// generic over the element width.
pub struct TwoLevelT<T: FftElem> {
    fine: Grid,
    coarse: Grid,
    fft_f: DistFftT<T>,
    fft_c: DistFftT<T>,
    nranks: usize,
    rank: usize,
    /// Whether any rank holds a low-mode row whose counterpart on the other
    /// grid lives elsewhere. The slabs decide it, so every rank agrees and a
    /// transfer with nothing to send skips its collective.
    any_remote: bool,
}

/// Field-precision ([`Real`]) grid-transfer operators.
pub type TwoLevel = TwoLevelT<Real>;

/// Whether integer wavenumber `k` survives on a grid with `m` points in that
/// dimension (strictly below the coarse Nyquist band, so ±k pairs survive
/// together and real fields stay real).
fn survives(k: isize, m: usize) -> bool {
    k.unsigned_abs() < m / 2
}

/// Storage index of wavenumber `k` on an axis of `n` points.
fn index_of(k: isize, n: usize) -> usize {
    if k >= 0 {
        k as usize
    } else {
        (n as isize + k) as usize
    }
}

impl<T: FftElem> TwoLevelT<T> {
    /// Build transfer operators for `fine` (must have even dims ≥ 4) on the
    /// calling rank of `comm`.
    pub fn new(fine: Grid, comm: &Comm) -> TwoLevelT<T> {
        let coarse = fine.coarsen();
        let (p, [_, n2, _], [_, m2, _]) = (comm.size(), fine.n, coarse.n);
        let any_remote = (0..m2).any(|jc| {
            let k2 = coarse.wavenumber(1, jc);
            survives(k2, m2) && Slab::owner_of(m2, p, jc) != Slab::owner_of(n2, p, index_of(k2, n2))
        });
        TwoLevelT {
            fine,
            coarse,
            fft_f: DistFftT::new(fine, comm),
            fft_c: DistFftT::new(coarse, comm),
            nranks: comm.size(),
            rank: comm.rank(),
            any_remote,
        }
    }

    /// The coarse (half-resolution) grid.
    pub fn coarse_grid(&self) -> Grid {
        self.coarse
    }

    /// Copy the modes both grids represent (everything strictly below the
    /// coarse Nyquist band) from 1–3 spectra on one grid over those of as
    /// many spectra on the other, rescaled for the unnormalized forward
    /// transform; every other coefficient of `dst` keeps its value. Coarse
    /// to fine this is `dst ← PAD(src) + HIGHPASS(dst)` in one pass, and with
    /// `src = TRUNCATE(dst)` the identity — the exact splitting Algorithm 1
    /// relies on. Rows this rank owns on both sides are written in place;
    /// the rest ride one `(index, value)` all-to-all for all fields.
    /// Collective.
    pub fn merge_low<const NF: usize>(
        &self,
        src: &[DistSpectralT<T>; NF],
        dst: &mut [DistSpectralT<T>; NF],
        comm: &mut Comm,
    ) {
        let (from, to) = (src[0].grid, dst[0].grid);
        assert!(
            (from, to) == (self.fine, self.coarse) || (from, to) == (self.coarse, self.fine),
            "spectra are not on this transfer's two grids"
        );
        let [m1, m2, m3] = self.coarse.n;
        let [_, t2, t3] = to.n;
        let (n3c_from, n3c_to) = (from.n[2] / 2 + 1, t3 / 2 + 1);
        let scale = T::from_f64(to.len() as f64 / from.len() as f64);
        let (p, here) = (self.nranks, dst[0].x2_slab);
        let nj = src[0].x2_slab.ni;
        // (offset of the source row, owner and global offset of its target)
        let rows = || {
            (0..from.n[0]).filter(move |&i| survives(from.wavenumber(0, i), m1)).flat_map(
                move |i| {
                    let it = index_of(from.wavenumber(0, i), to.n[0]);
                    (0..nj).filter_map(move |jl| {
                        let k2 = from.wavenumber(1, src[0].j_global(jl));
                        survives(k2, m2).then(|| {
                            let jt = index_of(k2, t2);
                            ((i * nj + jl) * n3c_from, Slab::owner_of(t2, p, jt), (it, jt))
                        })
                    })
                },
            )
        };

        let staged = timing::time(Kernel::FieldOps, || {
            let mut bufs: Vec<Vec<PackedCoefT<T>>> = Vec::new();
            if self.any_remote {
                let mut counts = vec![0usize; p];
                rows().for_each(|(_, owner, _)| counts[owner] += NF * (m3 / 2));
                counts[self.rank] = 0;
                bufs = counts.into_iter().map(Vec::with_capacity).collect();
            }
            for (spec, out) in src.iter().zip(dst.iter_mut()) {
                for (base, owner, (it, jt)) in rows() {
                    let low = &spec.data[base..base + m3 / 2];
                    if owner == self.rank {
                        let at = (it * here.ni + jt - here.i0) * n3c_to;
                        for (o, z) in out.data[at..at + m3 / 2].iter_mut().zip(low) {
                            *o = z.scale(scale);
                        }
                    } else {
                        let row = (it * t2 + jt) * n3c_to;
                        bufs[owner].extend(low.iter().enumerate().map(|(k, z)| {
                            let v = z.scale(scale);
                            PackedCoefT { idx: (row + k) as u64, re: v.re, im: v.im }
                        }));
                    }
                }
            }
            bufs
        });
        if !self.any_remote {
            return;
        }
        let parts = comm.alltoallv_owned(staged, CommCat::FftTranspose, AlltoallMethod::Auto);
        timing::time(Kernel::FieldOps, || {
            for part in &parts {
                // every field sends the same modes, so a message is NF equal runs
                for (spec, coefs) in dst.iter_mut().zip(part.chunks_exact((part.len() / NF).max(1)))
                {
                    for pc in coefs {
                        let idx = pc.idx as usize;
                        let (k, j, i) = (idx % n3c_to, (idx / n3c_to) % t2, idx / (n3c_to * t2));
                        debug_assert!(here.owns(j), "coefficient routed to wrong rank");
                        spec.data[(i * here.ni + j - here.i0) * n3c_to + k] =
                            CpxT::new(pc.re, pc.im);
                    }
                }
            }
        });
    }

    /// Zeroed spectra on `grid` for this rank.
    fn zeros<const NF: usize>(&self, grid: Grid) -> [DistSpectralT<T>; NF] {
        let slab = Slab::of_rank(grid.n[1], self.nranks, self.rank);
        std::array::from_fn(|_| DistSpectralT::zeros(grid, slab))
    }

    /// Restriction on spectra: the coarse spectra holding the low modes of
    /// 1–3 fine ones (the coarse Nyquist band stays zero). Collective.
    pub fn truncate<const NF: usize>(
        &self,
        fine: &[DistSpectralT<T>; NF],
        comm: &mut Comm,
    ) -> [DistSpectralT<T>; NF] {
        let mut coarse = self.zeros(self.coarse);
        self.merge_low(fine, &mut coarse, comm);
        coarse
    }

    /// Prolongation on spectra: 1–3 coarse spectra zero-padded to the fine
    /// grid. Coarse Nyquist modes (not representable symmetrically on the
    /// fine grid without aliasing partners) are dropped, the standard choice
    /// for spectral prolongation. Collective.
    pub fn pad<const NF: usize>(
        &self,
        coarse: &[DistSpectralT<T>; NF],
        comm: &mut Comm,
    ) -> [DistSpectralT<T>; NF] {
        let mut fine = self.zeros(self.fine);
        self.merge_low(coarse, &mut fine, comm);
        fine
    }

    /// Restrict 1–3 fine fields to the coarse grid (spectral truncation).
    /// On p > 1 the fields share every collective; on one rank, where there
    /// is none to share, they go one at a time (one fine spectrum live).
    pub fn restrict_many<const NF: usize>(
        &self,
        f: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
    ) -> [ScalarFieldT<T>; NF] {
        if NF > 1 && self.nranks == 1 {
            return f.map(|f| self.restrict(f, comm));
        }
        let coarse = self.truncate(&self.fft_f.forward_many(f, comm), comm);
        self.fft_c.inverse_many(coarse, comm)
    }

    /// Prolong 1–3 coarse fields to the fine grid (spectral zero-padding;
    /// see [`TwoLevelT::pad`]).
    pub fn prolong_many<const NF: usize>(
        &self,
        fc: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
    ) -> [ScalarFieldT<T>; NF] {
        if NF > 1 && self.nranks == 1 {
            return fc.map(|f| self.prolong(f, comm));
        }
        for f in fc {
            assert_eq!(f.layout().grid, self.coarse, "prolong expects a coarse field");
        }
        let fine = self.pad(&self.fft_c.forward_many(fc, comm), comm);
        self.fft_f.inverse_many(fine, comm)
    }

    /// The one-field call of [`TwoLevelT::restrict_many`].
    pub fn restrict(&self, f: &ScalarFieldT<T>, comm: &mut Comm) -> ScalarFieldT<T> {
        let [out] = self.restrict_many([f], comm);
        out
    }

    /// The one-field call of [`TwoLevelT::prolong_many`].
    pub fn prolong(&self, fc: &ScalarFieldT<T>, comm: &mut Comm) -> ScalarFieldT<T> {
        let [out] = self.prolong_many([fc], comm);
        out
    }

    /// Restrict every component of a vector field.
    pub fn restrict_vector(&self, v: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.restrict_many(v.c.each_ref(), comm) }
    }

    /// Prolong every component of a vector field.
    pub fn prolong_vector(&self, v: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.prolong_many(v.c.each_ref(), comm) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Layout, ScalarField};
    use claire_mpi::{run_cluster, Topology};

    fn low_mode(x: Real, y: Real, z: Real) -> Real {
        x.sin() * y.cos() + (z + x).cos()
    }

    #[test]
    fn restrict_reproduces_low_modes() {
        let fine = Grid::cube(16);
        let mut comm = Comm::solo();
        let tl = TwoLevel::new(fine, &comm);
        let f = ScalarField::from_fn(Layout::serial(fine), low_mode);
        let fc = tl.restrict(&f, &mut comm);
        let expect = ScalarField::from_fn(Layout::serial(tl.coarse_grid()), low_mode);
        let err =
            fc.data().iter().zip(expect.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "restriction should be exact on low modes: {err}");
    }

    #[test]
    fn prolong_restrict_identity_on_low_modes() {
        let fine = Grid::cube(16);
        let mut comm = Comm::solo();
        let tl = TwoLevel::new(fine, &comm);
        let fc = ScalarField::from_fn(Layout::serial(tl.coarse_grid()), low_mode);
        let ff = tl.prolong(&fc, &mut comm);
        let back = tl.restrict(&ff, &mut comm);
        let err =
            back.data().iter().zip(fc.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "restrict∘prolong should be identity: {err}");
    }

    #[test]
    fn two_level_decomposition_identity() {
        // PAD(TRUNCATE(ŝ)) + HIGHPASS(ŝ) == ŝ — the exact splitting
        // Algorithm 1 relies on, on spectra and to the bit (the two
        // rescalings are 1/8 and 8). 4 ranks move rows between ranks.
        let fine = Grid::new([12, 8, 16]);
        for p in [1usize, 2, 4] {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let tl = TwoLevel::new(fine, comm);
                let s = ScalarField::from_fn(Layout::distributed(fine, comm), |x, y, z| {
                    (3.0 * x).sin() + (x * 0.5).cos() * (2.0 * y).sin() + (3.0 * z).cos() + 0.3
                });
                let spec = [tl.fft_f.forward(&s, comm)];
                let low = tl.truncate(&spec, comm);
                // HIGHPASS(ŝ): the low modes replaced by those of a zero field
                let mut merged = spec.clone();
                tl.merge_low(&tl.zeros(tl.coarse), &mut merged, comm);
                let wiped = merged[0].data != spec[0].data;
                tl.merge_low(&low, &mut merged, comm);
                let padded = tl.pad(&low, comm);
                let low_is_pad = padded[0]
                    .data
                    .iter()
                    .zip(spec[0].data.iter())
                    .all(|(a, b)| *a == CpxT::ZERO || a == b);
                (wiped, merged[0].data == spec[0].data, low_is_pad)
            });
            // (a rank whose x2 rows are all above the coarse band holds none)
            assert!(res.outputs.iter().any(|o| o.0), "p = {p}: no low modes to wipe");
            for (_, identity, low_is_pad) in res.outputs {
                assert!(identity, "p = {p}: low + high should reconstruct ŝ exactly");
                assert!(
                    low_is_pad,
                    "p = {p}: PAD(TRUNCATE(ŝ)) holds a coefficient that is not ŝ's"
                );
            }
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let fine = Grid::cube(16);
        let mut comm = Comm::solo();
        let tl = TwoLevel::new(fine, &comm);
        let f = ScalarField::from_fn(Layout::serial(fine), |x, y, z| {
            (2.0 * x).sin() * (y).cos() + (5.0 * z).sin()
        });
        let expect_r = tl.restrict(&f, &mut comm).into_data();
        let expect_h = tl.prolong(&tl.restrict(&f, &mut comm), &mut comm).into_data();

        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(fine, comm);
            let f = ScalarField::from_fn(layout, |x, y, z| {
                (2.0 * x).sin() * (y).cos() + (5.0 * z).sin()
            });
            let tl = TwoLevel::new(fine, comm);
            let r = tl.restrict(&f, comm);
            let h = tl.prolong(&r, comm);
            (
                claire_grid::redist::gather(&r, comm).map(|g| g.into_data()),
                claire_grid::redist::gather(&h, comm).map(|g| g.into_data()),
            )
        });
        let (got_r, got_h) = &res.outputs[0];
        for (a, b) in got_r.as_ref().unwrap().iter().zip(&expect_r) {
            assert!((a - b).abs() < 1e-9, "restrict mismatch");
        }
        for (a, b) in got_h.as_ref().unwrap().iter().zip(&expect_h) {
            assert!((a - b).abs() < 1e-9, "highpass mismatch");
        }
    }
}
