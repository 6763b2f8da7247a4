//! Serial 3D real↔complex FFT — the single-rank ("cuFFT 3D") path.
//!
//! Three batched passes ([`crate::pass`]): real rows along x3, then the
//! lanes kernel down every `[n2][n3c]` plane and down the whole
//! `[n1][n2·n3c]` slab. The distributed plan runs the same three with a
//! transpose in between.

use std::sync::Arc;

use claire_grid::{Grid, Real};
use claire_par::timing::{self, Kernel};

use crate::complex::CpxT;
use crate::plan::Fft1dT;
use crate::real::RealFft1dT;
use crate::{cache, pass, FftElem};

/// Planned 3D real↔complex transform on a full (serial) grid, generic over
/// element width.
///
/// Real input has dims `[n1, n2, n3]` (x3 fastest); spectral output has dims
/// `[n1, n2, n3/2 + 1]` in the same ordering. Forward is unnormalized;
/// inverse includes `1/N`, so the pair is an identity. The 1-D factor plans
/// come from the process-wide [`cache`], so constructing an `Fft3T` for an
/// already-seen grid does no planning work.
pub struct Fft3T<T: FftElem> {
    grid: Grid,
    pub(crate) r3: Arc<RealFft1dT<T>>,
    pub(crate) c2: Arc<Fft1dT<T>>,
    pub(crate) c1: Arc<Fft1dT<T>>,
}

/// Field-precision ([`Real`]) serial 3D plan.
pub type Fft3 = Fft3T<Real>;

impl<T: FftElem> Fft3T<T> {
    /// Plan transforms for `grid` (requires even `n3`).
    pub fn new(grid: Grid) -> Fft3T<T> {
        Fft3T {
            grid,
            r3: cache::real_fft1d_t(grid.n[2]),
            c2: cache::fft1d_t(grid.n[1]),
            c1: cache::fft1d_t(grid.n[0]),
        }
    }

    /// The grid this plan is for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of complex spectral coefficients `n1·n2·(n3/2+1)`.
    pub fn spectral_len(&self) -> usize {
        let [n1, n2, _] = self.grid.n;
        n1 * n2 * self.n3c()
    }

    /// Spectral extent along x3: `n3/2 + 1`.
    pub fn n3c(&self) -> usize {
        self.grid.n[2] / 2 + 1
    }

    /// Forward r2c transform: `real.len() == N`, `out.len() == spectral_len()`.
    pub fn forward(&self, real: &[T], out: &mut [CpxT<T>]) {
        assert_eq!(real.len(), self.grid.len());
        assert_eq!(out.len(), self.spectral_len());
        let n3c = self.n3c();
        timing::time(Kernel::FftSerial, || {
            pass::rows_forward(&self.r3, real, out);
            pass::cols(&self.c2, false, out, n3c);
            pass::cols(&self.c1, false, out, self.grid.n[1] * n3c);
        });
    }

    /// Inverse c2r transform (normalized): `spec.len() == spectral_len()`,
    /// `out.len() == N`. `spec` is consumed as scratch.
    pub fn inverse(&self, spec: &mut [CpxT<T>], out: &mut [T]) {
        assert_eq!(spec.len(), self.spectral_len());
        assert_eq!(out.len(), self.grid.len());
        let n3c = self.n3c();
        timing::time(Kernel::FftSerial, || {
            pass::cols(&self.c1, true, spec, self.grid.n[1] * n3c);
            pass::cols(&self.c2, true, spec, n3c);
            pass::rows_inverse(&self.r3, spec, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cpx;
    use claire_grid::{Layout, ScalarField, TWO_PI};

    #[test]
    fn roundtrip_identity() {
        let grid = Grid::new([4, 6, 8]);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x.sin() * (2.0 * y).cos()) + z * 0.1
        });
        let plan = Fft3::new(grid);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        plan.forward(f.data(), &mut spec);
        let mut back = vec![0.0 as Real; grid.len()];
        plan.inverse(&mut spec, &mut back);
        for (a, b) in back.iter().zip(f.data()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn f32_roundtrip_identity() {
        let grid = Grid::new([4, 6, 8]);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x.sin() * (2.0 * y).cos()) + z * 0.1
        });
        let f32_data: Vec<f32> = f.data().iter().map(|&x| x as f32).collect();
        let plan = Fft3T::<f32>::new(grid);
        let mut spec = vec![CpxT::<f32>::ZERO; plan.spectral_len()];
        plan.forward(&f32_data, &mut spec);
        let mut back = vec![0.0f32; grid.len()];
        plan.inverse(&mut spec, &mut back);
        for (a, b) in back.iter().zip(&f32_data) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn single_mode_lands_in_right_bin() {
        // f = cos(2·x1) has spectral mass only at k1 = ±2, k2 = k3 = 0.
        let grid = Grid::cube(8);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, _, _| (2.0 * x).cos());
        let plan = Fft3::new(grid);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        plan.forward(f.data(), &mut spec);
        let n3c = plan.n3c();
        let n = grid.len() as Real;
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..n3c {
                    let v = spec[(i * 8 + j) * n3c + k];
                    let expect = if (i == 2 || i == 6) && j == 0 && k == 0 { n / 2.0 } else { 0.0 };
                    assert!(
                        (v.re - expect).abs() < 1e-6 * n && v.im.abs() < 1e-6 * n,
                        "bin ({i},{j},{k}) = {v:?}, expect {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let grid = Grid::new([4, 4, 6]);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x + 0.5 * y).sin() + (z - x).cos()
        });
        let plan = Fft3::new(grid);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        plan.forward(f.data(), &mut spec);
        let e_time: f64 = f.data().iter().map(|&x| x * x).sum();
        // Hermitian half-spectrum: interior k3 bins count twice.
        let [_, _, n3] = grid.n;
        let n3c = plan.n3c();
        let mut e_freq = 0.0f64;
        for (idx, z) in spec.iter().enumerate() {
            let k = idx % n3c;
            let w = if k == 0 || k == n3 / 2 { 1.0 } else { 2.0 };
            e_freq += w * z.norm_sqr();
        }
        e_freq /= grid.len() as f64;
        assert!((e_time - e_freq).abs() < 1e-6 * e_time.max(1.0), "{e_time} vs {e_freq}");
    }

    #[test]
    fn constant_field_is_dc_only() {
        let grid = Grid::cube(4);
        let f = vec![3.0 as Real; grid.len()];
        let plan = Fft3::new(grid);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        plan.forward(&f, &mut spec);
        assert!((spec[0].re - 3.0 * grid.len() as Real).abs() < 1e-8);
        assert!(spec[1..].iter().all(|z| z.abs() < 1e-8));
        let _ = TWO_PI; // silence unused import when asserts compile out
    }
}
