//! Spectral operators: regularization and its inverse, the B-spline
//! prefilter.
//!
//! The regularization operator `A` and its inverse are applied in the
//! spectral domain "at the cost of two FFTs and a Hadamard product" (§2).
//! With `Ω = [0, 2π)³` the wavenumbers are integers, and the H1-Sobolev
//! regularization operator has the symbol `β(|k|² + 1)`.
//!
//! The Hadamard product is one loop over the rank's spectral slab against
//! a per-plan table of `|k|²` ([`SpectralT`] builds it once), so applying
//! a symbol costs no wavenumber arithmetic per coefficient. The vector
//! operators transform their components through the plan's multi-field
//! entry: on p > 1 all three ride one `alltoallv` per direction; on one
//! rank, where there is no message to merge, they stream through one
//! spectrum at a time.
//!
//! Every operator exists at two levels. The spectrum-level ones
//! ([`SpectralT::scale_symbol`], [`SpectralT::axpy_symbol`] and their `βA`
//! forms on a whole vector, [`SpectralT::reg_energy`]) act on coefficients and
//! cost no transform, so a caller that iterates — the H0 preconditioners —
//! transforms once in and once out. The field-level ones (`reg_apply`,
//! `reg_inv`, …) are those between a forward and an inverse transform.
//!
//! Note on the zero mode: the paper uses an H1 *seminorm* (`A` = vector
//! Laplacian) whose kernel (constant fields) is handled by the additional
//! penalties; we lift the symbol by `+1` (full H1 norm) so `A` is SPD and
//! `(βA)⁻¹` is well-defined — identical behaviour for all non-constant
//! modes. This substitution is recorded in DESIGN.md §5.

use claire_fft::{DistFftT, DistSpectralT, FftElem, SpectralVecT};
use claire_grid::{Grid, PlaneSums, Real, ScalarFieldT, VectorFieldT};
use claire_mpi::Comm;
use claire_par::timing::{self, Kernel};
use claire_par::{par_chunks_mut, ELEM_CHUNK};

/// Planned spectral operators on one grid for one rank, generic over the
/// element width (f64 solver path or f32 mixed-precision inner solve).
pub struct SpectralT<T: FftElem> {
    fft: DistFftT<T>,
    grid: Grid,
    /// `|k|²` of every coefficient of this rank's `[n1][nj][n3c]` spectral
    /// slab, in storage order (integers: exact at either width).
    ksq: Vec<T>,
}

/// Field-precision ([`Real`]) spectral operators.
pub type Spectral = SpectralT<Real>;

/// The symbol of `βA = β(I − Δ)` as a function of `|k|²`.
fn reg_symbol(beta: f64) -> impl Fn(f64) -> f64 + Sync {
    move |ksq| beta * (1.0 + ksq)
}

/// The symbol of `(βA)⁻¹`.
fn reg_inv_symbol(beta: f64) -> impl Fn(f64) -> f64 + Sync {
    move |ksq| 1.0 / (beta * (1.0 + ksq))
}

impl<T: FftElem> SpectralT<T> {
    /// Plan for `grid` on the calling rank of `comm`.
    pub fn new(grid: Grid, comm: &Comm) -> SpectralT<T> {
        let fft = DistFftT::new(grid, comm);
        let sq = |dim: usize, i: usize| (grid.wavenumber(dim, i) as f64).powi(2);
        let js = fft.x2_slab();
        let ksq = (0..grid.n[0])
            .flat_map(|i| (js.i0..js.i0 + js.ni).map(move |j| sq(0, i) + sq(1, j)))
            .flat_map(|k12| (0..grid.n[2] / 2 + 1).map(move |k| T::from_f64(k12 + (k * k) as f64)))
            .collect();
        SpectralT { fft, grid, ksq }
    }

    /// The grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Access the underlying FFT plan.
    pub fn fft(&self) -> &DistFftT<T> {
        &self.fft
    }

    /// Hadamard product with a real symbol, in place: `ẑ ← σ(|k|²)·ẑ`.
    pub fn scale_symbol(&self, spec: &mut DistSpectralT<T>, sym: impl Fn(f64) -> f64 + Sync) {
        assert_eq!(spec.data.len(), self.ksq.len(), "spectrum is not on this plan's slab");
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut spec.data, ELEM_CHUNK, |ci, chunk| {
                for (z, k) in chunk.iter_mut().zip(&self.ksq[ci * ELEM_CHUNK..]) {
                    *z = z.scale(T::from_f64(sym(k.to_f64())));
                }
            })
        });
    }

    /// `out ← out + σ(|k|²)·x̂` in one pass.
    pub fn axpy_symbol(
        &self,
        out: &mut DistSpectralT<T>,
        x: &DistSpectralT<T>,
        sym: impl Fn(f64) -> f64 + Sync,
    ) {
        assert_eq!(out.data.len(), self.ksq.len(), "spectrum is not on this plan's slab");
        assert_eq!(x.data.len(), self.ksq.len(), "spectrum is not on this plan's slab");
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut out.data, ELEM_CHUNK, |ci, chunk| {
                let at = ci * ELEM_CHUNK;
                for ((z, x), k) in chunk.iter_mut().zip(&x.data[at..]).zip(&self.ksq[at..]) {
                    *z += x.scale(T::from_f64(sym(k.to_f64())));
                }
            })
        });
    }

    /// `x̂ ← (βA)⁻¹ x̂` on every component: a Hadamard scale, no transform.
    pub fn reg_inv_spectra(&self, x: &mut SpectralVecT<T>, beta: f64) {
        for c in &mut x.c {
            self.scale_symbol(c, reg_inv_symbol(beta));
        }
    }

    /// `(βA)⁻¹ x̂` into new spectra, one pass per component, `x̂` kept: the
    /// out-of-place [`SpectralT::reg_inv_spectra`], bit for bit.
    pub fn reg_inv_spectra_of(&self, x: &SpectralVecT<T>, beta: f64) -> SpectralVecT<T> {
        let sym = reg_inv_symbol(beta);
        let c = x.c.each_ref().map(|xc| {
            assert_eq!(xc.data.len(), self.ksq.len(), "spectrum is not on this plan's slab");
            let mut out = DistSpectralT::for_overwrite(xc.grid, xc.x2_slab);
            timing::time(Kernel::FieldOps, || {
                par_chunks_mut(&mut out.data, ELEM_CHUNK, |ci, chunk| {
                    let at = ci * ELEM_CHUNK;
                    for ((z, x), k) in chunk.iter_mut().zip(&xc.data[at..]).zip(&self.ksq[at..]) {
                        *z = x.scale(T::from_f64(sym(k.to_f64())));
                    }
                })
            });
            out
        });
        SpectralVecT { c }
    }

    /// `out ← out + βA x̂` on every component, in one pass each.
    pub fn reg_add_spectra(&self, out: &mut SpectralVecT<T>, x: &SpectralVecT<T>, beta: f64) {
        for (o, c) in out.c.iter_mut().zip(&x.c) {
            self.axpy_symbol(o, c, reg_symbol(beta));
        }
    }

    /// The spectra of `v`: 3 forward transforms. Collective.
    pub fn spectra_of(&self, v: &VectorFieldT<T>, comm: &mut Comm) -> SpectralVecT<T> {
        SpectralVecT { c: self.fft.forward_many(v.c.each_ref(), comm) }
    }

    /// The field of `x̂`, consuming it: 3 inverse transforms. Collective.
    pub fn into_field(&self, x: SpectralVecT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.fft.inverse_many(x.c, comm) }
    }

    /// The field of `x̂`, keeping it: 3 inverse transforms of copies — on one
    /// rank one copy at a time. Collective.
    pub fn field_of(&self, x: &SpectralVecT<T>, comm: &mut Comm) -> VectorFieldT<T> {
        if comm.size() == 1 {
            return VectorFieldT { c: x.c.each_ref().map(|s| self.fft.inverse(s.clone(), comm)) };
        }
        self.into_field(x.clone(), comm)
    }

    /// The regularization energy `½β⟨Av, v⟩` by Parseval: 3 forward
    /// transforms and one sweep with the half-spectrum weights (1 on the
    /// `k3 = 0` and Nyquist planes, 2 elsewhere) and the symbol folded in,
    /// accumulated in f64 over [`PlaneSums`], one partial per global x2
    /// index (rows `(i, j)` in `i` order, the weights folded into each row).
    /// One allreduce. Collective.
    pub fn reg_energy(&self, v: &VectorFieldT<T>, beta: f64, comm: &mut Comm) -> f64 {
        let n3c = self.grid.n[2] / 2 + 1;
        let mut sums = PlaneSums::new(self.grid.n[1], self.fft.x2_slab(), self.grid.n[0], n3c);
        let mut add = |spec: &DistSpectralT<T>| {
            let term = |i: usize| {
                let (re, im) = (spec.data[i].re.to_f64(), spec.data[i].im.to_f64());
                (1.0 + self.ksq[i].to_f64()) * (re * re + im * im)
            };
            timing::time(Kernel::FieldOps, || {
                sums.add(|r| {
                    2.0 * r.clone().map(term).sum::<f64>() - (term(r.start) + term(r.end - 1))
                })
            })
        };
        if comm.size() == 1 {
            v.c.iter().for_each(|c| add(&self.fft.forward(c, comm)));
        } else {
            self.spectra_of(v, comm).c.iter().for_each(add);
        }
        let scale = self.grid.cell_volume() / self.grid.len() as f64;
        0.5 * beta * scale * sums.global(comm)
    }

    /// `f ↦ F⁻¹[op(F f)]` for 1–3 fields whose spectra do not couple:
    /// batched through the plan's multi-field entry on p > 1, one field at a
    /// time — one live spectrum — on a single rank. Collective.
    fn map_spectra<const NF: usize>(
        &self,
        fields: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
        op: impl Fn(&mut DistSpectralT<T>),
    ) -> [ScalarFieldT<T>; NF] {
        if comm.size() == 1 {
            return fields.map(|f| {
                let mut spec = self.fft.forward(f, comm);
                op(&mut spec);
                self.fft.inverse(spec, comm)
            });
        }
        let mut specs = self.fft.forward_many(fields, comm);
        specs.iter_mut().for_each(op);
        self.fft.inverse_many(specs, comm)
    }

    /// Apply a real symbol `σ(|k|²)` to 1–3 fields: `f ↦ F⁻¹[ σ(k²) · F f ]`
    /// — two FFTs and a Hadamard product against the `|k|²` table, as in
    /// the paper. Collective.
    pub fn apply_ksq_symbol_many<const NF: usize>(
        &self,
        fields: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
        sym: impl Fn(f64) -> f64 + Sync,
    ) -> [ScalarFieldT<T>; NF] {
        self.map_spectra(fields, comm, |spec| self.scale_symbol(spec, &sym))
    }

    /// The one-field call of [`SpectralT::apply_ksq_symbol_many`].
    pub fn apply_ksq_symbol(
        &self,
        f: &ScalarFieldT<T>,
        comm: &mut Comm,
        sym: impl Fn(f64) -> f64 + Sync,
    ) -> ScalarFieldT<T> {
        let [out] = self.apply_ksq_symbol_many([f], comm, sym);
        out
    }

    /// Apply the regularization operator `βA = β(I − Δ)` to each component.
    pub fn reg_apply(&self, v: &VectorFieldT<T>, beta: f64, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.apply_ksq_symbol_many(v.c.each_ref(), comm, reg_symbol(beta)) }
    }

    /// Apply `(βA)⁻¹` to each component — the `InvA` preconditioner (eq. 8)
    /// and the left-preconditioner inside `InvH0`.
    pub fn reg_inv(&self, v: &VectorFieldT<T>, beta: f64, comm: &mut Comm) -> VectorFieldT<T> {
        VectorFieldT { c: self.apply_ksq_symbol_many(v.c.each_ref(), comm, reg_inv_symbol(beta)) }
    }

    /// Apply a general per-mode real symbol `σ(k1, k2, k3)` (signed integer
    /// wavenumbers). Collective.
    pub fn apply_mode_symbol(
        &self,
        f: &ScalarFieldT<T>,
        comm: &mut Comm,
        sym: impl Fn([isize; 3]) -> f64 + Sync,
    ) -> ScalarFieldT<T> {
        let g = self.grid;
        let [out] = self.map_spectra([f], comm, |spec| {
            let (nj, n3c) = (spec.x2_slab.ni, spec.n3c());
            timing::time(Kernel::FieldOps, || {
                for (row, zs) in spec.data.chunks_exact_mut(n3c).enumerate() {
                    let k1 = g.wavenumber(0, row / nj);
                    let k2 = g.wavenumber(1, spec.x2_slab.i0 + row % nj);
                    for (k, z) in zs.iter_mut().enumerate() {
                        *z = z.scale(T::from_f64(sym([k1, k2, k as isize])));
                    }
                }
            })
        });
        out
    }

    /// Cubic B-spline prefilter: convert image samples to B-spline
    /// coefficients by deconvolving the sampled B-spline kernel
    /// `[1/6, 4/6, 1/6]` per axis (symbol `(2 + cos(2πk/n))/3`).
    ///
    /// This is the step that makes `GPU-TXTSPL` interpolation exact on the
    /// grid — and the reason the paper avoids the spline kernel in the
    /// distributed solver: the prefilter needs global data (an extra ghost
    /// exchange in their recursive implementation; a full FFT pair here),
    /// whereas `GPU-TXTLAG` reads raw samples (§3.1). Collective.
    pub fn bspline_prefilter(&self, f: &ScalarFieldT<T>, comm: &mut Comm) -> ScalarFieldT<T> {
        let n = self.grid.n;
        let axis = |k: isize, nd: usize| -> f64 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / nd as f64;
            (2.0 + theta.cos()) / 3.0
        };
        self.apply_mode_symbol(f, comm, move |k| {
            1.0 / (axis(k[0], n[0]) * axis(k[1], n[1]) * axis(k[2], n[2]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_fft::CpxT;
    use claire_grid::{Layout, ScalarField, VectorField, WsCat};
    use claire_mpi::{run_cluster, Topology};

    #[test]
    fn reg_apply_of_eigenfunction() {
        let grid = Grid::cube(16);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let sp = Spectral::new(grid, &comm);
        // β(I − Δ) sin(2 x1) = β(1 + 4) sin(2 x1)
        let f = ScalarField::from_fn(layout, |x, _, _| (2.0 * x).sin());
        let v = VectorField { c: [f.clone(), f.clone(), f.clone()] };
        let av = sp.reg_apply(&v, 0.5, &mut comm);
        let mut expect = f.clone();
        expect.scale(2.5);
        for c in &av.c {
            let err = c
                .data()
                .iter()
                .zip(expect.data())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "err {err}");
        }
    }

    #[test]
    fn f32_reg_inv_tracks_f64() {
        // The f32 spectral operators (the mixed-precision inner solve's
        // preconditioner) must track the f64 path to single precision.
        let grid = Grid::cube(8);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let sp64 = Spectral::new(grid, &comm);
        let sp32 = SpectralT::<f32>::new(grid, &comm);
        let v = VectorField::from_fns(
            layout,
            |x, y, z| (x + y).sin() + (2.0 * z).cos(),
            |_, y, z| (y - z).cos(),
            |x, _, z| (x + 2.0 * z).sin(),
        );
        let out64 = sp64.reg_inv(&v, 0.05, &mut comm);
        let v32: VectorFieldT<f32> = v.converted(WsCat::Fft);
        let out32 = sp32.reg_inv(&v32, 0.05, &mut comm);
        for (c32, c64) in out32.c.iter().zip(&out64.c) {
            let err = c32
                .data()
                .iter()
                .zip(c64.data())
                .map(|(&a, &b)| (a as f64 - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-5, "f32 spectral path diverged: {err}");
        }
    }

    #[test]
    fn reg_inverse_is_inverse() {
        let grid = Grid::cube(8);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let sp = Spectral::new(grid, &comm);
        let v = VectorField::from_fns(
            layout,
            |x, y, _| (x + y).sin(),
            |_, y, z| (y * 2.0).cos() + z,
            |x, _, z| (z - x).sin(),
        );
        let beta = 0.05;
        let av = sp.reg_apply(&v, beta, &mut comm);
        let back = sp.reg_inv(&av, beta, &mut comm);
        for d in 0..3 {
            let err = back.c[d]
                .data()
                .iter()
                .zip(v.c[d].data())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "component {d}: err {err}");
        }
    }

    #[test]
    fn reg_is_spd() {
        let grid = Grid::cube(8);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let sp = Spectral::new(grid, &comm);
        let v = VectorField::from_fns(
            layout,
            |x, _, _| x.sin(),
            |_, y, _| (2.0 * y).cos(),
            |_, _, z| z.cos(),
        );
        let w = VectorField::from_fns(
            layout,
            |x, y, _| (x - y).cos(),
            |_, _, z| z.sin(),
            |x, _, _| 1.0 + 0.0 * x,
        );
        let beta = 0.1;
        let av = sp.reg_apply(&v, beta, &mut comm);
        let aw = sp.reg_apply(&w, beta, &mut comm);
        let vav = v.inner(&av, &mut comm);
        let vaw = v.inner(&aw, &mut comm);
        let wav = w.inner(&av, &mut comm);
        assert!(vav > 0.0, "positive definite");
        assert!((vaw - wav).abs() < 1e-8 * vaw.abs().max(1.0), "symmetric: {vaw} vs {wav}");
    }

    #[test]
    fn bspline_prefilter_makes_spline_exact_on_grid() {
        use claire_interp::kernel::interp_serial;
        use claire_interp::IpOrder;
        let grid = Grid::cube(16);
        let layout = Layout::serial(grid);
        let mut comm = Comm::solo();
        let sp = Spectral::new(grid, &comm);
        let f = ScalarField::from_fn(layout, |x, y, z| x.sin() * y.cos() + (0.5 * z).sin());
        let coef = sp.bspline_prefilter(&f, &mut comm);
        let h = grid.spacing();
        // at grid points, spline-on-coefficients must reproduce the samples
        for &(i, j, k) in &[(0usize, 0usize, 0usize), (3, 7, 11), (15, 1, 8)] {
            let x = [
                i as claire_grid::Real * h[0],
                j as claire_grid::Real * h[1],
                k as claire_grid::Real * h[2],
            ];
            let v = interp_serial(&coef, IpOrder::CubicSpline, x);
            let raw = interp_serial(&f, IpOrder::CubicSpline, x); // no prefilter: blurred
            assert!(((v - f.at(i, j, k)) as f64).abs() < 1e-8, "prefiltered spline exact: {v}");
            assert!(
                ((raw - f.at(i, j, k)) as f64).abs() > 1e-3,
                "without the prefilter the spline blurs grid samples"
            );
        }
        // off-grid: prefiltered spline tracks the analytic function
        let probe = [1.234 as claire_grid::Real, 2.345, 3.456];
        let exact = probe[0].sin() * probe[1].cos() + (0.5 * probe[2]).sin();
        let v = interp_serial(&coef, IpOrder::CubicSpline, probe);
        assert!(
            ((v - exact) as f64).abs() < 5e-4,
            "spline off-grid error {}",
            ((v - exact) as f64).abs()
        );
    }

    #[test]
    fn vector_operator_rides_one_collective_per_direction() {
        // on 2 ranks one reg_apply is 2 FftTranspose collectives — one per
        // direction — carrying exactly the bytes of the six that three
        // scalar applications send, and the same field bits
        let grid = Grid::new([12, 10, 8]);
        let res = run_cluster(Topology::new(2, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let v = VectorField::from_fns(
                layout,
                |x, y, _| (x + y).sin(),
                |_, y, z| (2.0 * y).cos() + z.sin(),
                |x, _, z| (z - x).sin(),
            );
            let sp = Spectral::new(grid, comm);
            let sent = |comm: &Comm| {
                let cat = comm.stats().cat(claire_mpi::CommCat::FftTranspose);
                (cat.msgs_sent, cat.bytes_sent)
            };
            let scalar =
                v.c.each_ref().map(|c| sp.apply_ksq_symbol(c, comm, reg_symbol(0.1)).into_data());
            let (m1, b1) = sent(comm);
            let vector = sp.reg_apply(&v, 0.1, comm);
            let (m2, b2) = sent(comm);
            let same = (0..3).all(|d| scalar[d].to_vec() == vector.c[d].data().to_vec());
            (same, (m1, b1), (m2 - m1, b2 - b1))
        });
        // per rank and direction: its 6 x1 planes of the peer's 5 x2 rows
        let one_way = 6 * 5 * (8 / 2 + 1) * std::mem::size_of::<CpxT<Real>>() as u64;
        for (same, six, two) in res.outputs {
            assert!(same, "batching the components moved bits");
            assert_eq!(six, (6, 6 * one_way));
            assert_eq!(two, (2, 6 * one_way));
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let grid = Grid::new([8, 8, 8]);
        let mut comm = Comm::solo();
        let sp = Spectral::new(grid, &comm);
        let field = |layout| {
            let f = ScalarField::from_fn(layout, |x, y, z| (x + y).sin() + (z).cos());
            VectorField { c: [f.clone(), f.clone(), f] }
        };
        let serial = sp.reg_inv(&field(Layout::serial(grid)), 0.1, &mut comm);
        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let v = field(Layout::distributed(grid, comm));
            let sp = Spectral::new(grid, comm);
            let out = sp.reg_inv(&v, 0.1, comm);
            claire_grid::redist::gather_vector(&out, comm)
        });
        let got = res.outputs[0].as_ref().unwrap();
        for (c, expect) in got.c.iter().zip(&serial.c) {
            for (a, b) in c.data().iter().zip(expect.data()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
