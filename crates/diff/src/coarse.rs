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
//! complement. Coefficients move between the fine and coarse x2-slab
//! decompositions through an all-to-all exchange of `(index, value)` pairs.

use claire_fft::{CpxT, DistFftT, DistSpectralT, FftElem};
use claire_grid::{Grid, Real, ScalarFieldT, Slab, VectorFieldT};
use claire_mpi::{AlltoallMethod, Comm, CommCat, Pod};

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
        TwoLevelT {
            fine,
            coarse,
            fft_f: DistFftT::new(fine, comm),
            fft_c: DistFftT::new(coarse, comm),
            nranks: comm.size(),
            rank: comm.rank(),
        }
    }

    /// The fine grid.
    pub fn fine_grid(&self) -> Grid {
        self.fine
    }

    /// The coarse (half-resolution) grid.
    pub fn coarse_grid(&self) -> Grid {
        self.coarse
    }

    /// Move the modes both grids represent (everything strictly below the
    /// coarse Nyquist band) from 1–3 spectra on `from` into zeroed spectra
    /// on `to`, rescaled for the unnormalized forward transform. One
    /// `(index, value)` all-to-all carries every field.
    fn move_low_modes<const NF: usize>(
        &self,
        src: &[DistSpectralT<T>; NF],
        (from, to): (Grid, Grid),
        comm: &mut Comm,
    ) -> [DistSpectralT<T>; NF] {
        let [m1, m2, m3] = self.coarse.n;
        let [_, t2, t3] = to.n;
        let (n3c_from, n3c_to) = (from.n[2] / 2 + 1, t3 / 2 + 1);
        let scale = T::from_f64(to.len() as f64 / from.len() as f64);
        let p = self.nranks;
        let mut bufs: Vec<Vec<PackedCoefT<T>>> = (0..p).map(|_| Vec::new()).collect();
        for spec in src {
            let nj = spec.x2_slab.ni;
            for i in 0..from.n[0] {
                let k1 = from.wavenumber(0, i);
                if !survives(k1, m1) {
                    continue;
                }
                for jl in 0..nj {
                    let k2 = from.wavenumber(1, spec.j_global(jl));
                    if !survives(k2, m2) {
                        continue;
                    }
                    let jt = index_of(k2, t2);
                    let row = (index_of(k1, to.n[0]) * t2 + jt) * n3c_to;
                    let base = (i * nj + jl) * n3c_from;
                    let buf = &mut bufs[Slab::owner_of(t2, p, jt)];
                    buf.extend(spec.data[base..base + m3 / 2].iter().enumerate().map(|(k, z)| {
                        let v = z.scale(scale);
                        PackedCoefT { idx: (row + k) as u64, re: v.re, im: v.im }
                    }));
                }
            }
        }
        let parts = comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto);

        let slab = Slab::of_rank(t2, p, self.rank);
        let mut out: [_; NF] = std::array::from_fn(|_| DistSpectralT::zeros(to, slab));
        for part in &parts {
            // every field sends the same modes, so a message is NF equal runs
            for (spec, coefs) in out.iter_mut().zip(part.chunks_exact((part.len() / NF).max(1))) {
                for pc in coefs {
                    let idx = pc.idx as usize;
                    let (k, j, i) = (idx % n3c_to, (idx / n3c_to) % t2, idx / (n3c_to * t2));
                    debug_assert!(slab.owns(j), "coefficient routed to wrong rank");
                    spec.data[(i * slab.ni + j - slab.i0) * n3c_to + k] = CpxT::new(pc.re, pc.im);
                }
            }
        }
        out
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
        let fine = self.fft_f.forward_many(f, comm);
        let coarse = self.move_low_modes(&fine, (self.fine, self.coarse), comm);
        drop(fine);
        self.fft_c.inverse_many(coarse, comm)
    }

    /// Prolong 1–3 coarse fields to the fine grid (spectral zero-padding).
    ///
    /// Coarse Nyquist modes (not representable symmetrically on the fine
    /// grid without aliasing partners) are dropped, the standard choice for
    /// spectral prolongation.
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
        let coarse = self.fft_c.forward_many(fc, comm);
        let fine = self.move_low_modes(&coarse, (self.coarse, self.fine), comm);
        drop(coarse);
        self.fft_f.inverse_many(fine, comm)
    }

    /// High-pass filter 1–3 fields: zero every mode representable on the
    /// coarse grid, keep the rest. Satisfies
    /// `PROLONG(RESTRICT(s)) + HIGHPASS(s) = s`.
    pub fn highpass_many<const NF: usize>(
        &self,
        f: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
    ) -> [ScalarFieldT<T>; NF] {
        if NF > 1 && self.nranks == 1 {
            return f.map(|f| self.highpass(f, comm));
        }
        let mut specs = self.fft_f.forward_many(f, comm);
        let [m1, m2, m3] = self.coarse.n;
        for spec in &mut specs {
            let (nj, n3c) = (spec.x2_slab.ni, spec.n3c());
            for (row, zs) in spec.data.chunks_exact_mut(n3c).enumerate() {
                let k1 = self.fine.wavenumber(0, row / nj);
                let k2 = self.fine.wavenumber(1, spec.x2_slab.i0 + row % nj);
                if survives(k1, m1) && survives(k2, m2) {
                    zs[..m3 / 2].fill(CpxT::ZERO);
                }
            }
        }
        self.fft_f.inverse_many(specs, comm)
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

    /// The one-field call of [`TwoLevelT::highpass_many`].
    pub fn highpass(&self, f: &ScalarFieldT<T>, comm: &mut Comm) -> ScalarFieldT<T> {
        let [out] = self.highpass_many([f], comm);
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

    /// High-pass every component of a vector field.
    pub fn highpass_vector(&self, v: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.highpass_many(v.c.each_ref(), comm) }
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
        // PROLONG(RESTRICT(s)) + HIGHPASS(s) == s — the exact splitting
        // Algorithm 1 relies on.
        let fine = Grid::cube(8);
        let mut comm = Comm::solo();
        let tl = TwoLevel::new(fine, &comm);
        let s = ScalarField::from_fn(Layout::serial(fine), |x, y, z| {
            (3.0 * x).sin() + (x * 0.5).cos() * (2.0 * y).sin() + (3.0 * z).cos() + 0.3
        });
        let low = tl.prolong(&tl.restrict(&s, &mut comm), &mut comm);
        let high = tl.highpass(&s, &mut comm);
        let mut sum = low.clone();
        sum.axpy(1.0, &high);
        let err = sum.data().iter().zip(s.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "low + high should reconstruct s: {err}");
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
        let expect_h = tl.highpass(&f, &mut comm).into_data();

        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(fine, comm);
            let f = ScalarField::from_fn(layout, |x, y, z| {
                (2.0 * x).sin() * (y).cos() + (5.0 * z).sin()
            });
            let tl = TwoLevel::new(fine, comm);
            let r = tl.restrict(&f, comm);
            let h = tl.highpass(&f, comm);
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
