//! CLARITY-like phantom (substitute for the µm-resolution CLARITY
//! microscopy volumes of paper Fig. 2 and Table 6).
//!
//! CLARITY data differs from MRI in two ways that matter for the solver:
//! the grids are strongly anisotropic (e.g. 1024×768×768 crops of
//! 20K×24K×1.3K volumes) and the images carry much more high-frequency
//! content (cell-level speckle, vessels), which makes the Hessian systems
//! harder — the paper uses a looser `εH0 = 1e−2` there. This phantom
//! reproduces both properties: a smooth tissue envelope, multiplicative
//! speckle with a short correlation length, and bright vessel-like tubes.

use claire_grid::{Layout, Real, ScalarField, PI};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_semilag::{Trajectory, Transport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::brain::random_smooth_velocity;

/// Deterministic per-voxel hash noise in `[-1, 1]` (white, then smoothed
/// by the caller-controlled speckle frequency mix below).
fn hash_noise(i: u64, j: u64, k: u64, seed: u64) -> Real {
    let mut h = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i.wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(j.wrapping_mul(0xA24BAED4963EE407))
        .wrapping_add(k.wrapping_mul(0x9FB21C651E98DF25));
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8FEB86659FD93);
    h ^= h >> 32;
    ((h % 100_000) as Real / 50_000.0) - 1.0
}

/// Generate a CLARITY-like volume with subject-specific warp and speckle.
///
/// `seed` controls both the speckle realization and the warp; the same
/// seed is reproducible (generation is rank-local; `_comm` is kept for
/// signature symmetry with the other dataset constructors).
pub fn volume(layout: Layout, seed: u64, _comm: &mut Comm) -> ScalarField {
    let g = layout.grid;
    let c = [PI, PI, PI];
    let mut rng = StdRng::seed_from_u64(seed);

    // vessel tubes: sinusoidal centre lines through the tissue
    let vessels: Vec<(Real, Real, Real, Real)> = (0..6)
        .map(|_| {
            (
                rng.random_range(0.6..5.6) as Real,                   // x2 offset
                rng.random_range(0.6..5.6) as Real,                   // x3 offset
                rng.random_range(0.5..2.0) as Real,                   // wiggle frequency
                rng.random_range(0.0..std::f64::consts::TAU) as Real, // phase
            )
        })
        .collect();

    let h = g.spacing();
    let slab_i0 = layout.slab.i0;
    let mut f = ScalarField::for_overwrite(layout);
    let [ni, n2, n3] = layout.local_dims();
    for il in 0..ni {
        let gi = slab_i0 + il;
        let x1 = gi as Real * h[0];
        for j in 0..n2 {
            let x2 = j as Real * h[1];
            for k in 0..n3 {
                let x3 = k as Real * h[2];
                // smooth tissue envelope (anisotropy-aware)
                let mut q = 0.0;
                for (d, &x) in [x1, x2, x3].iter().enumerate() {
                    let s = (0.5 * (x - c[d])).sin() * 2.0;
                    q += (s / 2.0) * (s / 2.0);
                }
                let envelope = (-q * 1.4).exp();
                // speckle: two octaves of hash noise (high-frequency)
                let sp = 0.6 * hash_noise(gi as u64, j as u64, k as u64, seed)
                    + 0.4 * hash_noise(gi as u64 / 2, j as u64 / 2, k as u64 / 2, seed ^ 0xABCD);
                // vessels: bright tubes along x1
                let mut ves = 0.0 as Real;
                for &(o2, o3, fq, ph) in &vessels {
                    let c2 = o2 + 0.3 * (fq * x1 + ph).sin();
                    let c3 = o3 + 0.3 * (fq * x1 + ph).cos();
                    let d2 = (x2 - c2).powi(2) + (x3 - c3).powi(2);
                    ves += (-d2 / 0.02).exp();
                }
                let val = envelope * (0.45 + 0.25 * sp) + 0.6 * ves * envelope;
                *f.at_mut(il, j, k) = val.clamp(0.0, 1.0);
            }
        }
    }
    f
}

/// A CLARITY registration pair: two "subjects" (different speckle + warp),
/// like the paper's Cocaine 175 → Control 189 registration. Collective.
pub fn pair(layout: Layout, comm: &mut Comm) -> (ScalarField, ScalarField) {
    let control = volume(layout, 189, comm);
    // the second subject: same anatomy class, different warp
    let base = volume(layout, 189, comm);
    let v = random_smooth_velocity(layout, 175, 0.3, 2);
    let interp = Interpolator::new(IpOrder::Cubic);
    let transport = Transport::new(4, IpOrder::Cubic);
    let traj = Trajectory::compute(&v, transport.nt, &interp, comm);
    let mut sol = transport.solve_state(&traj, &base, false, &interp, comm);
    let cocaine = sol.m.pop().unwrap();
    (cocaine, control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::Grid;

    #[test]
    fn volume_has_high_frequency_content() {
        let layout = Layout::serial(Grid::new([16, 12, 12]));
        let mut comm = Comm::solo();
        let f = volume(layout, 189, &mut comm);
        assert!(f.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // speckle: neighbouring voxels differ much more than in a smooth
        // image — compare voxel-difference energy against total energy
        let mut diff_energy = 0.0f64;
        let mut count = 0;
        for i in 0..15 {
            for j in 0..12 {
                for k in 0..12 {
                    let d = f.at(i + 1, j, k) - f.at(i, j, k);
                    diff_energy += d * d;
                    count += 1;
                }
            }
        }
        let rms = (diff_energy / count as f64).sqrt();
        assert!(rms > 0.02, "speckle should produce voxel-scale variation: rms {rms}");
    }

    #[test]
    fn deterministic_per_seed() {
        let layout = Layout::serial(Grid::new([8, 8, 8]));
        let mut comm = Comm::solo();
        let a = volume(layout, 1, &mut comm);
        let b = volume(layout, 1, &mut comm);
        let c = volume(layout, 2, &mut comm);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pair_is_registerable() {
        let layout = Layout::serial(Grid::new([16, 12, 12]));
        let mut comm = Comm::solo();
        let (m0, m1) = pair(layout, &mut comm);
        let mut d = m0.clone();
        d.axpy(-1.0, &m1);
        let rel = d.norm_l2(&mut comm) / m1.norm_l2(&mut comm);
        assert!(rel > 0.01 && rel < 1.0, "pair should differ but share anatomy: {rel}");
    }
}
