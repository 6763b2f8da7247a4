//! Real ↔ half-complex 1D transforms (even lengths).
//!
//! The image and velocity fields are real, so the innermost (x3) transform
//! of the 3D FFT is real-to-complex: length-`n` real input produces
//! `n/2 + 1` complex outputs (the rest follows by Hermitian symmetry).
//! Implemented with the standard trick of packing the even/odd samples into
//! a complex sequence of half the length.

use claire_grid::{ClaireError, ClaireResult, Real};
use claire_simd::{Elem, Stockham};

use crate::complex::{as_real, as_real_mut, CpxT};
use crate::plan::{kernel_scratch, Fft1dT};

/// Planned real↔half-complex transform of even length `n`, generic over
/// element width.
///
/// When `n/2` is {2,3,5}-smooth the transform is the lanes kernel's real
/// pass ([`RealFft1dT::lanes`] hands its tables to the batched x3 pass, and
/// a single line is the one-row call); otherwise the packed half-length
/// transform goes through Bluestein with a scalar split.
pub struct RealFft1dT<T> {
    n: usize,
    half: Fft1dT<T>,
    /// Unpacking twiddles `w^k = e^{-2πik/n}` for `k = 0..=n/2`.
    w: Vec<CpxT<T>>,
}

/// Field-precision ([`Real`]) real↔half-complex plan.
pub type RealFft1d = RealFft1dT<Real>;

impl<T: Elem> RealFft1dT<T> {
    /// Plan a real transform; `n` must be even and ≥ 2. Panicking
    /// convenience wrapper around [`RealFft1dT::try_new`].
    pub fn new(n: usize) -> RealFft1dT<T> {
        RealFft1dT::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plan a real transform, rejecting odd or tiny lengths with a typed
    /// error instead of a panic deep inside the plan cache.
    pub fn try_new(n: usize) -> ClaireResult<RealFft1dT<T>> {
        if n < 2 || !n.is_multiple_of(2) {
            return Err(ClaireError::Config {
                param: "n",
                message: format!("real FFT needs even n >= 2, got {n}"),
            });
        }
        let w = (0..=n / 2)
            .map(|k| {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                CpxT::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()))
            })
            .collect();
        Ok(RealFft1dT { n, half: Fft1dT::try_new(n / 2)?, w })
    }

    /// Real length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; for lint symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of complex outputs `n/2 + 1`.
    pub fn spectral_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// What the lanes kernel's real passes take — the half-length stage
    /// table and the interleaved unpacking twiddles — if `n/2` is smooth.
    pub fn lanes(&self) -> Option<(&Stockham<T>, &[T])> {
        self.half.stockham().map(|half| (half, as_real(&self.w)))
    }

    /// Required scratch (complex elements) for a batch of `rows` lines.
    pub fn batch_scratch_len(&self, rows: usize) -> usize {
        match self.half.stockham() {
            Some(half) => half.scratch_len(rows) / 2,
            None => self.n / 2 + self.half.scratch_len(),
        }
    }

    /// Required scratch (complex elements) for one line.
    pub fn scratch_len(&self) -> usize {
        self.batch_scratch_len(1)
    }

    /// Forward r2c: `input.len() == n`, `out.len() == n/2 + 1`.
    pub fn forward(&self, input: &[T], out: &mut [CpxT<T>], scratch: &mut [CpxT<T>]) {
        let m = self.n / 2;
        assert_eq!(input.len(), self.n);
        assert_eq!(out.len(), m + 1);
        assert!(scratch.len() >= self.scratch_len());
        if let Some((half, w)) = self.lanes() {
            return T::kfft_r2c(half, w, input, as_real_mut(out), kernel_scratch(scratch));
        }
        let half = T::from_f64(0.5);
        let (z, inner_scratch) = scratch.split_at_mut(m);
        // pack even/odd samples into z[j] = (input[2j], input[2j+1]) — a
        // pure reinterpretation of the interleaved storage, so memcpy
        as_real_mut(z).copy_from_slice(input);
        self.half.forward(z, inner_scratch);
        for k in 0..=m {
            // indices wrap with period m: z[m] := z[0]
            let zk = if k == m { z[0] } else { z[k] };
            let zmk = if k == 0 { z[0] } else { z[m - k] };
            let e = (zk + zmk.conj()).scale(half);
            let o = (zk - zmk.conj()).scale(half).mul_i().scale(-T::ONE); // -i(z-ẑ)/2
            out[k] = e + self.w[k] * o;
        }
    }

    /// Inverse c2r with `1/n` normalization: `spec.len() == n/2 + 1`,
    /// `out.len() == n`.
    pub fn inverse(&self, spec: &[CpxT<T>], out: &mut [T], scratch: &mut [CpxT<T>]) {
        let m = self.n / 2;
        assert_eq!(spec.len(), m + 1);
        assert_eq!(out.len(), self.n);
        assert!(scratch.len() >= self.scratch_len());
        if let Some((half, w)) = self.lanes() {
            return T::kfft_c2r(half, w, as_real(spec), out, kernel_scratch(scratch));
        }
        let half = T::from_f64(0.5);
        let (z, inner_scratch) = scratch.split_at_mut(m);
        for (k, zk) in z.iter_mut().enumerate() {
            let xk = spec[k];
            let xmk = spec[m - k].conj();
            let e = (xk + xmk).scale(half);
            // o[k] = w^{-k} (x[k] - conj(x[m-k]))/2; w^{-k} = conj(w^k)
            let o = self.w[k].conj() * (xk - xmk).scale(half);
            *zk = e + o.mul_i();
        }
        self.half.inverse(z, inner_scratch);
        // unpack (z[j].re, z[j].im) -> (out[2j], out[2j+1]): memcpy again
        out.copy_from_slice(as_real(z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cpx;
    use crate::plan::dft_naive;
    use proptest::prelude::*;

    fn naive_r2c(input: &[Real]) -> Vec<Cpx> {
        let z: Vec<Cpx> = input.iter().map(|&x| Cpx::real(x)).collect();
        let full = dft_naive(&z, -1.0);
        full[..input.len() / 2 + 1].to_vec()
    }

    fn check_size(n: usize) {
        let input: Vec<Real> = (0..n).map(|j| ((j * j + 3) % 11) as Real - 5.0).collect();
        let plan = RealFft1d::new(n);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
        plan.forward(&input, &mut spec, &mut scratch);
        let expect = naive_r2c(&input);
        for (k, (a, b)) in spec.iter().zip(&expect).enumerate() {
            assert!((*a - *b).abs() < 1e-8, "n={n} k={k}: {a:?} vs {b:?}");
        }
        let mut back = vec![0.0 as Real; n];
        plan.inverse(&spec, &mut back, &mut scratch);
        for (a, b) in back.iter().zip(&input) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn matches_naive_various_even_sizes() {
        for n in [2usize, 4, 6, 8, 10, 12, 16, 30, 32, 64, 300] {
            check_size(n);
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 16;
        let input: Vec<Real> = (0..n).map(|j| (j as Real * 0.7).sin()).collect();
        let plan = RealFft1d::new(n);
        let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
        let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
        plan.forward(&input, &mut spec, &mut scratch);
        assert!(spec[0].im.abs() < 1e-10, "DC must be real");
        assert!(spec[n / 2].im.abs() < 1e-10, "Nyquist must be real");
    }

    #[test]
    fn f32_real_plan_tracks_f64() {
        let n = 32;
        let input: Vec<Real> = (0..n).map(|j| ((j * 13 + 5) % 17) as Real / 8.5 - 1.0).collect();
        let p64 = RealFft1d::new(n);
        let mut s64 = vec![Cpx::ZERO; p64.spectral_len()];
        let mut sc64 = vec![Cpx::ZERO; p64.scratch_len()];
        p64.forward(&input, &mut s64, &mut sc64);

        let in32: Vec<f32> = input.iter().map(|&x| x as f32).collect();
        let p32 = RealFft1dT::<f32>::new(n);
        let mut s32 = vec![CpxT::<f32>::ZERO; p32.spectral_len()];
        let mut sc32 = vec![CpxT::<f32>::ZERO; p32.scratch_len()];
        p32.forward(&in32, &mut s32, &mut sc32);
        for (a, b) in s32.iter().zip(&s64) {
            assert!((a.cast::<f64>() - *b).abs() < 1e-4, "{a:?} vs {b:?}");
        }
        let mut back = vec![0.0f32; n];
        p32.inverse(&s32, &mut back, &mut sc32);
        for (a, b) in back.iter().zip(&input) {
            assert!((*a as f64 - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        RealFft1d::new(7);
    }

    proptest! {
        #[test]
        fn roundtrip_random(half_n in 1usize..60, seed in 0u64..500) {
            let n = 2 * half_n;
            let input: Vec<Real> = (0..n)
                .map(|j| {
                    let a = (j as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                    ((a % 2000) as Real) / 1000.0 - 1.0
                })
                .collect();
            let plan = RealFft1d::new(n);
            let mut spec = vec![Cpx::ZERO; plan.spectral_len()];
            let mut scratch = vec![Cpx::ZERO; plan.scratch_len()];
            plan.forward(&input, &mut spec, &mut scratch);
            let mut back = vec![0.0; n];
            plan.inverse(&spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(&input) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
