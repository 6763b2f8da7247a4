//! The spectra of a vector field as a Krylov vector.
//!
//! [`SpectralVecT`] holds the three half-spectra of a real vector field and
//! carries the linear updates and the inner product a Krylov method needs
//! ([`KrylovVec`]), so an iteration whose operators are diagonal in Fourier
//! space never has to leave it. The inner product is the real-space
//! `L²(Ω)³` one by Parseval: with the unnormalized forward transform,
//!
//! ```text
//! h³ Σ_x a·b  =  h³/N · Σ_k w(k3) · Re(â · conj b̂),   w = 1 on k3 ∈ {0, n3/2}, 2 elsewhere
//! ```
//!
//! because the r2c half-spectrum stores one of each conjugate pair except on
//! the two self-conjugate planes. The updates are the `claire-simd` field
//! kernels on the interleaved `[re, im, …]` view. The sums accumulate in f64
//! at either width and go through [`PlaneSums`] with one partial per global
//! x2 index — the spectral slab's distributed axis: a partial folds its rows
//! `(i, j)` over `i` in order, each row its doubled dot less its two
//! weight-1 ends, and then the next component's rows.

use claire_grid::{KrylovVec, PlaneSums};
use claire_mpi::Comm;
use claire_par::timing::{self, Kernel};
use claire_par::{par_chunks_mut, ELEM_CHUNK};

use crate::complex::{as_real, as_real_mut};
use crate::dist::DistSpectralT;
use crate::FftElem;

/// The spectra of the three components of a real vector field.
#[derive(Clone, Debug)]
pub struct SpectralVecT<T: FftElem> {
    /// Component spectra `[v̂1, v̂2, v̂3]`, all on one grid and x2 slab.
    pub c: [DistSpectralT<T>; 3],
}

/// A half-spectrum row's share of the weighted sum, from the row's
/// unweighted dot `dot` of the interleaved rows `a`, `b`: twice it, less the
/// `k3 = 0` and `k3 = n3/2` ends, which count once.
fn row_term<T: FftElem>(dot: f64, a: &[T], b: &[T]) -> f64 {
    let re_dot = |x: &[T], y: &[T]| x[0].to_f64() * y[0].to_f64() + x[1].to_f64() * y[1].to_f64();
    let last = a.len() - 2;
    2.0 * dot - (re_dot(a, b) + re_dot(&a[last..], &b[last..]))
}

impl<T: FftElem> SpectralVecT<T> {
    /// `h³/N`: turns the weighted coefficient sum into the `L²(Ω)` product.
    fn parseval_scale(&self) -> f64 {
        let grid = self.c[0].grid;
        debug_assert!(grid.n[2].is_multiple_of(2), "half-spectrum weights assume an even n3");
        grid.cell_volume() / grid.len() as f64
    }

    /// Zero partials, one per global x2 index, over interleaved rows.
    fn plane_sums(&self) -> PlaneSums {
        let s = &self.c[0];
        PlaneSums::new(s.grid.n[1], s.x2_slab, s.grid.n[0], 2 * s.n3c())
    }

    /// `f(a, x_chunk, self_chunk)` over every `ELEM_CHUNK` of the interleaved
    /// view of every component: the elementwise updates.
    fn update(&mut self, a: f64, x: &Self, f: impl Fn(T, &[T], &mut [T]) + Sync) {
        let a = T::from_f64(a);
        timing::time(Kernel::FieldOps, || {
            for (s, xc) in self.c.iter_mut().zip(&x.c) {
                let xr = as_real(&xc.data);
                par_chunks_mut(as_real_mut(&mut s.data), ELEM_CHUNK, |ci, c| {
                    f(a, &xr[ci * ELEM_CHUNK..][..c.len()], c)
                });
            }
        });
    }
}

impl<T: FftElem> KrylovVec for SpectralVecT<T> {
    fn zeros_like(&self) -> Self {
        SpectralVecT { c: self.c.each_ref().map(|s| DistSpectralT::zeros(s.grid, s.x2_slab)) }
    }

    fn axpy(&mut self, a: f64, x: &Self) {
        self.update(a, x, T::kaxpy);
    }

    fn aypx(&mut self, a: f64, x: &Self) {
        self.update(a, x, T::kaypx);
    }

    /// The update and the sum share one pass; the result is the `L²(Ω)³`
    /// norm of the updated vector's field.
    fn axpy_norm(&mut self, a: f64, x: &Self, comm: &mut Comm) -> f64 {
        let a = T::from_f64(a);
        let mut sums = self.plane_sums();
        timing::time(Kernel::FieldOps, || {
            for (s, xc) in self.c.iter_mut().zip(&x.c) {
                let xr = as_real(&xc.data);
                sums.add_mut(as_real_mut(&mut s.data), |r, row| {
                    let dot = T::kaxpy_dot(a, &xr[r], row);
                    row_term(dot, row, row)
                });
            }
        });
        (sums.global(comm) * self.parseval_scale()).max(0.0).sqrt()
    }

    /// The `L²(Ω)³` inner product of the two fields, from their spectra
    /// (Parseval; see the module docs).
    fn inner(&self, other: &Self, comm: &mut Comm) -> f64 {
        let mut sums = self.plane_sums();
        timing::time(Kernel::FieldOps, || {
            for (a, b) in self.c.iter().zip(&other.c) {
                assert_eq!((a.grid, a.x2_slab), (b.grid, b.x2_slab), "spectrum mismatch");
                let (ar, br) = (as_real(&a.data), as_real(&b.data));
                sums.add(|r| {
                    row_term(T::kdot(&ar[r.clone()], &br[r.clone()]), &ar[r.clone()], &br[r])
                });
            }
        });
        sums.global(comm) * self.parseval_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistFftT;
    use claire_grid::{Grid, Layout, VectorField, VectorFieldT, WsCat};
    use claire_mpi::{run_cluster, Topology};

    fn pair(layout: Layout) -> [VectorField; 2] {
        [0.3, 1.1].map(|s| {
            VectorField::from_fns(
                layout,
                move |x, y, z| (x + s).sin() * (2.0 * y).cos() + (3.0 * z - x).sin() + s,
                move |x, y, z| (x * y * 0.2 + s).cos() - 0.5 * (z + s).sin(),
                move |x, y, z| ((x - 1.0) * (y - 2.0) * (z - 3.0) * 0.05 * s).exp().min(9.0),
            )
        })
    }

    /// `|⟨F a, F b⟩ − ⟨a, b⟩|` relative to `‖a‖‖b‖`, and the same for the
    /// fused `axpy_norm` against the field's, worst over the ranks.
    fn parseval_defect<T: FftElem>(grid: Grid, p: usize) -> f64 {
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let [a, b]: [VectorFieldT<T>; 2] = pair(layout).map(|f| f.converted(WsCat::Other));
            let fft = DistFftT::<T>::new(grid, comm);
            let spectra = |v: &VectorFieldT<T>, comm: &mut Comm| SpectralVecT {
                c: fft.forward_many(v.c.each_ref(), comm),
            };
            let (mut sa, sb) = (spectra(&a, comm), spectra(&b, comm));
            let scale = a.norm_l2(comm) * b.norm_l2(comm);
            let inner = (sa.inner(&sb, comm) - a.inner(&b, comm)).abs() / scale;
            let mut a2 = a.clone();
            let want = a2.axpy_norm_l2(T::from_f64(-0.7), &b, comm);
            let got = sa.axpy_norm(-0.7, &sb, comm);
            inner.max((got - want).abs() / want)
        });
        res.outputs.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn spectral_inner_product_is_the_field_one() {
        // anisotropic grids, one not a power of two; 1, 2 and 4 ranks
        for n in [[12, 8, 16], [40, 32, 24]] {
            for p in [1usize, 2, 4] {
                let d64 = parseval_defect::<f64>(Grid::new(n), p);
                assert!(d64 < 1e-12, "{n:?} p = {p}: f64 Parseval defect {d64:e}");
                let d32 = parseval_defect::<f32>(Grid::new(n), p);
                assert!(d32 < 1e-5, "{n:?} p = {p}: f32 Parseval defect {d32:e}");
            }
        }
    }

    #[test]
    fn updates_are_the_componentwise_ones() {
        let grid = Grid::new([12, 8, 16]);
        let mut comm = Comm::solo();
        let [a, b] = pair(Layout::serial(grid));
        let fft = DistFftT::<f64>::new(grid, &comm);
        let spectra = |v: &VectorField, comm: &mut Comm| SpectralVecT {
            c: fft.forward_many(v.c.each_ref(), comm),
        };
        let (sa, sb) = (spectra(&a, &mut comm), spectra(&b, &mut comm));
        let (mut y, mut w) = (sa.clone(), sa.clone());
        y.axpy(0.25, &sb);
        w.aypx(0.25, &sb);
        for d in 0..3 {
            for i in 0..sa.c[d].data.len() {
                let (za, zb) = (sa.c[d].data[i], sb.c[d].data[i]);
                assert_eq!(y.c[d].data[i], za + zb.scale(0.25));
                assert_eq!(w.c[d].data[i], za.scale(0.25) + zb);
            }
        }
        let zero = sa.zeros_like();
        assert_eq!(zero.inner(&zero, &mut comm), 0.0);
        assert_eq!(zero.c[0].data.len(), sa.c[0].data.len());
    }
}
