//! 1D complex FFT plans: the lanes kernel's stage tables, and Bluestein.

use std::mem::MaybeUninit;

use claire_grid::{ClaireError, ClaireResult, Real};
use claire_simd::{Elem, Stockham};

use crate::complex::{as_real, as_real_mut, Cpx, CpxT};

/// A planned 1D complex FFT of fixed length, generic over element width.
///
/// A {2,3,5}-smooth length is a [`Stockham`] stage table — what the batched
/// passes hand to the lanes kernel ([`Fft1dT::stockham`]); any other length
/// uses Bluestein's chirp-z algorithm on top of a power-of-two plan. The
/// forward transform uses the `e^{-i k x}` sign convention;
/// [`Fft1dT::inverse`] includes the `1/n` normalization, so
/// `inverse(forward(x)) == x`. Twiddle/chirp tables are evaluated in f64 and
/// rounded once to `T`; both widths run the same code. The tested contract
/// is accuracy against [`dft_naive`] (≤ 1e-12 at f64, ≤ 1e-5 at f32,
/// relative to the largest output) and determinism: one length and one
/// input give the same bits on every plan, every call, and whether the line
/// is transformed alone or as one column of a batch.
pub struct Fft1dT<T> {
    n: usize,
    kind: Kind<T>,
}

/// Field-precision ([`Real`]) 1D plan — the solver's default path.
pub type Fft1d = Fft1dT<Real>;

enum Kind<T> {
    Smooth(Stockham<T>),
    Bluestein {
        /// `chirp[j] = e^{-iπ j²/n}` (j² reduced mod 2n for accuracy).
        chirp: Vec<CpxT<T>>,
        /// Power-of-two inner plan of length `m`.
        inner: Box<Fft1dT<T>>,
        /// FFT of the chirp convolution kernel, length `m`.
        kernel_hat: Vec<CpxT<T>>,
        m: usize,
    },
}

/// View complex storage — initialized (`S = CpxT<T>`) or a pooled buffer's
/// spare capacity (`S = MaybeUninit<CpxT<T>>`) — as the kernels' scratch:
/// reals they write before they read, and only ever with valid values.
pub(crate) fn kernel_scratch<T: Elem, S>(scratch: &mut [S]) -> &mut [MaybeUninit<T>] {
    assert_eq!(size_of::<S>(), size_of::<CpxT<T>>(), "scratch must be complex storage");
    // SAFETY: `CpxT<T>` is two `T`s with no padding (see `as_real`);
    // `MaybeUninit<T>` accepts whatever the storage holds.
    unsafe { std::slice::from_raw_parts_mut(scratch.as_mut_ptr().cast(), scratch.len() * 2) }
}

impl<T: Elem> Fft1dT<T> {
    /// Plan a transform of length `n >= 1`. Panicking convenience wrapper
    /// around [`Fft1dT::try_new`].
    pub fn new(n: usize) -> Fft1dT<T> {
        Fft1dT::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plan a transform, rejecting the empty length with a typed error.
    pub fn try_new(n: usize) -> ClaireResult<Fft1dT<T>> {
        if n < 1 {
            return Err(ClaireError::Config {
                param: "n",
                message: "FFT length must be positive (got 0)".to_string(),
            });
        }
        Ok(Self::plan(n))
    }

    fn plan(n: usize) -> Fft1dT<T> {
        if let Some(stages) = Stockham::new(n) {
            return Fft1dT { n, kind: Kind::Smooth(stages) };
        }
        let m = (2 * n - 1).next_power_of_two();
        let inner = Box::new(Fft1dT::new(m));
        // chirp[j] = e^{-iπ j²/n}; reduce j² modulo 2n to keep the
        // argument small (the chirp has period 2n in j).
        let chirp: Vec<CpxT<T>> = (0..n)
            .map(|j| {
                let jsq = (j * j) % (2 * n);
                let theta = -std::f64::consts::PI * jsq as f64 / n as f64;
                CpxT::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()))
            })
            .collect();
        let mut kernel = vec![CpxT::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            kernel[j] = chirp[j].conj();
            kernel[m - j] = chirp[j].conj();
        }
        let mut scratch = vec![CpxT::ZERO; inner.scratch_len()];
        inner.forward(&mut kernel, &mut scratch);
        Fft1dT { n, kind: Kind::Bluestein { chirp, inner, kernel_hat: kernel, m } }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (lengths are positive); present for lint symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The stage table the batched passes run, if the length is smooth.
    pub fn stockham(&self) -> Option<&Stockham<T>> {
        match &self.kind {
            Kind::Smooth(stages) => Some(stages),
            Kind::Bluestein { .. } => None,
        }
    }

    /// Required scratch length for [`Fft1dT::forward`]/[`Fft1dT::inverse`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Smooth(stages) => stages.scratch_len(1) / 2,
            Kind::Bluestein { m, inner, .. } => m + inner.scratch_len(),
        }
    }

    /// In-place forward DFT (`e^{-ikx}` convention, unnormalized).
    ///
    /// `scratch` must have at least [`Fft1dT::scratch_len`] elements.
    pub fn forward(&self, data: &mut [CpxT<T>], scratch: &mut [CpxT<T>]) {
        self.line(false, data, scratch);
    }

    /// In-place inverse DFT including the `1/n` normalization.
    pub fn inverse(&self, data: &mut [CpxT<T>], scratch: &mut [CpxT<T>]) {
        self.line(true, data, scratch);
    }

    /// One line: the one-column call of the lanes kernel, or Bluestein.
    fn line(&self, inverse: bool, data: &mut [CpxT<T>], scratch: &mut [CpxT<T>]) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        match &self.kind {
            Kind::Smooth(stages) => {
                let (data, scratch) = (as_real_mut(data).as_mut_ptr(), kernel_scratch(scratch));
                // SAFETY: `data` is exactly the `n` rows of the one column.
                unsafe { T::kfft_cols(stages, inverse, data, 1, 1, scratch) }
            }
            Kind::Bluestein { chirp, inner, kernel_hat, m } => {
                let (a, inner_scratch) = scratch.split_at_mut(*m);
                a.fill(CpxT::ZERO);
                T::kcpx_mul_into(as_real_mut(&mut a[..self.n]), as_real(data), as_real(chirp));
                inner.forward(a, inner_scratch);
                T::kcpx_mul(as_real_mut(a), as_real(kernel_hat));
                inner.inverse(a, inner_scratch);
                T::kcpx_mul_into(as_real_mut(data), as_real(&a[..self.n]), as_real(chirp));
                if inverse {
                    // F⁻¹(x)[k] = F(x)[(n − k) mod n] / n
                    data[1..].reverse();
                    let s = T::ONE / T::from_f64(self.n as f64);
                    data.iter_mut().for_each(|z| *z = z.scale(s));
                }
            }
        }
    }
}

/// Reference O(n²) DFT for testing (`sign = -1` forward, `+1` inverse
/// without normalization).
pub fn dft_naive(input: &[Cpx], sign: f64) -> Vec<Cpx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Cpx::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += Cpx::new(theta.cos() as Real, theta.sin() as Real) * x;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial3d::Fft3T;
    use claire_grid::Grid;
    use proptest::prelude::*;

    /// Every tested length: {2,3,5}-smooth, NIREP's 300-point axis
    /// (2²·3·5²), and Bluestein (a prime factor above 5).
    const LENGTHS: [usize; 30] = [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 27, 30, 32, 45, 60, 64, 128, 300, 7, 11, 13,
        14, 17, 21, 49, 97, 101,
    ];

    fn test_input(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|j| Cpx::new(((j * 7 + 1) % 5) as Real - 2.0, ((j * 3) % 7) as Real / 7.0))
            .collect()
    }

    fn assert_close<T: Elem>(got: &[CpxT<T>], want: &[Cpx], tol: f64, what: &str) {
        assert_eq!(got.len(), want.len());
        let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            let d = (x.cast::<f64>() - *y).abs();
            assert!(d <= tol * scale, "{what} at {i}: {x:?} vs {y:?} (d={d}, scale={scale})");
        }
    }

    /// The accuracy contract at width `T`: forward within `tol` of the
    /// O(n²) reference (relative to the largest output), and back again.
    fn run_against_naive<T: Elem>(n: usize, tol: f64) {
        let input = test_input(n);
        let plan = Fft1dT::<T>::new(n);
        let mut data: Vec<CpxT<T>> = input.iter().map(|z| z.cast()).collect();
        let mut scratch = vec![CpxT::<T>::ZERO; plan.scratch_len()];
        plan.forward(&mut data, &mut scratch);
        assert_close(&data, &dft_naive(&input, -1.0), tol, &format!("{} forward n={n}", T::LABEL));
        plan.inverse(&mut data, &mut scratch);
        assert_close(&data, &input, tol, &format!("{} inverse n={n}", T::LABEL));
    }

    #[test]
    fn matches_naive_at_both_widths() {
        for n in LENGTHS {
            run_against_naive::<f64>(n, 1e-12);
            run_against_naive::<f32>(n, 1e-5);
        }
    }

    /// The determinism contract at width `T`: same plan, same input, same
    /// bits — and a second plan of the same length agrees too.
    fn rerun_is_bitwise<T: Elem>(n: usize) {
        let input: Vec<CpxT<T>> = test_input(n).iter().map(|z| z.cast()).collect();
        let run = |plan: &Fft1dT<T>| {
            let mut data = input.clone();
            let mut scratch = vec![CpxT::<T>::ZERO; plan.scratch_len()];
            plan.forward(&mut data, &mut scratch);
            data
        };
        let plan = Fft1dT::<T>::new(n);
        let first = run(&plan);
        assert!(first == run(&plan), "{} n={n}: rerun moved bits", T::LABEL);
        assert!(first == run(&Fft1dT::<T>::new(n)), "{} n={n}: replan moved bits", T::LABEL);
    }

    #[test]
    fn rerun_is_bitwise_at_both_widths() {
        for n in LENGTHS {
            rerun_is_bitwise::<f64>(n);
            rerun_is_bitwise::<f32>(n);
        }
    }

    /// 3-D real round trip on `grid` at width `T`.
    fn roundtrip_3d<T: crate::FftElem>(grid: Grid, tol: f64) {
        let fft = Fft3T::<T>::new(grid);
        let n = grid.n[0] * grid.n[1] * grid.n[2];
        let input: Vec<T> =
            (0..n).map(|i| T::from_f64(((i * 37 + 11) % 101) as f64 / 50.0 - 1.0)).collect();
        let mut spec = vec![CpxT::<T>::ZERO; fft.spectral_len()];
        let mut back = vec![T::ZERO; n];
        fft.forward(&input, &mut spec);
        fft.inverse(&mut spec, &mut back);
        for (i, (a, b)) in back.iter().zip(&input).enumerate() {
            let d = (a.to_f64() - b.to_f64()).abs();
            assert!(d <= tol, "{} {:?} at {i}: {a} vs {b}", T::LABEL, grid.n);
        }
    }

    #[test]
    fn benchmark_grids_round_trip_at_both_widths() {
        // BENCHMARK.json's 40×32×24 and the 2LInvH0 coarse level under it
        for n in [[40, 32, 24], [20, 16, 12]] {
            roundtrip_3d::<f64>(Grid::new(n), 1e-12);
            roundtrip_3d::<f32>(Grid::new(n), 1e-5);
        }
    }

    #[test]
    fn delta_transforms_to_flat() {
        let n = 16;
        let plan = Fft1d::new(n);
        let mut data = vec![Cpx::ZERO; n];
        data[0] = Cpx::ONE;
        let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
        plan.forward(&mut data, &mut scratch);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-10 && z.im.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval() {
        let n = 30;
        let input: Vec<Cpx> =
            (0..n).map(|j| Cpx::new((j as Real).sin(), (j as Real).cos())).collect();
        let plan = Fft1d::new(n);
        let mut data = input.clone();
        let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
        plan.forward(&mut data, &mut scratch);
        let e_time: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * e_time);
    }

    proptest! {
        #[test]
        fn roundtrip_random(n in 1usize..80, seed in 0u64..1000) {
            let input: Vec<Cpx> = (0..n)
                .map(|j| {
                    let a = ((j as u64).wrapping_mul(6364136223846793005).wrapping_add(seed)) as f64;
                    Cpx::new(((a % 1000.0) / 500.0 - 1.0) as Real, ((a % 777.0) / 388.0 - 1.0) as Real)
                })
                .collect();
            let plan = Fft1d::new(n);
            let mut data = input.clone();
            let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
            plan.forward(&mut data, &mut scratch);
            plan.inverse(&mut data, &mut scratch);
            for (x, y) in data.iter().zip(&input) {
                prop_assert!((*x - *y).abs() < 1e-8, "{x:?} vs {y:?}");
            }
        }
    }
}
