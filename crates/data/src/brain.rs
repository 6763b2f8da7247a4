//! NIREP-like brain phantom (substitute for the 16 NIREP MRI subjects).
//!
//! A canonical "brain" — cortex shell, white-matter interior, ventricles,
//! subcortical nuclei — built from smooth periodic bumps, warped by a
//! per-subject random smooth diffeomorphism. Subjects are named like the
//! NIREP individuals (`na01` … `na16`); the same name always produces the
//! same image. Intensities lie in `[0, 1]` like normalized T1 MRI.

// The Fourier-mode coefficient tuples are local to this generator.
#![allow(clippy::type_complexity)]

use claire_grid::{Layout, Real, ScalarField, VectorField, PI};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_semilag::{Trajectory, Transport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A smooth periodic bump centred at `c` with half-widths `w` (Gaussian in
/// the periodic sine-distance, so the field is C∞ and periodic).
fn bump(x: [Real; 3], c: [Real; 3], w: [Real; 3]) -> Real {
    let mut q = 0.0 as Real;
    for d in 0..3 {
        // periodic distance via sin((x − c)/2): equals (x−c)/2 near c
        let s = (0.5 * (x[d] - c[d])).sin() * 2.0;
        q += (s / w[d]) * (s / w[d]);
    }
    (-q).exp()
}

/// The canonical (atlas) brain phantom.
pub fn canonical(layout: Layout) -> ScalarField {
    let c = [PI, PI, PI];
    ScalarField::from_fn(layout, move |x1, x2, x3| {
        let x = [x1, x2, x3];
        // head: broad ellipsoid
        let head = bump(x, c, [2.0, 1.7, 1.6]);
        // white matter: brighter interior
        let wm = bump(x, c, [1.3, 1.1, 1.0]);
        // ventricles: two dark slots near the centre
        let v1 = bump(x, [c[0], c[1] - 0.35, c[2] + 0.15], [0.45, 0.18, 0.35]);
        let v2 = bump(x, [c[0], c[1] + 0.35, c[2] + 0.15], [0.45, 0.18, 0.35]);
        // subcortical nuclei
        let n1 = bump(x, [c[0] - 0.5, c[1] - 0.6, c[2] - 0.3], [0.25, 0.25, 0.25]);
        let n2 = bump(x, [c[0] + 0.5, c[1] + 0.6, c[2] - 0.3], [0.25, 0.25, 0.25]);
        let val = 0.55 * head + 0.35 * wm - 0.5 * (v1 + v2) + 0.25 * (n1 + n2);
        val.clamp(0.0, 1.0)
    })
}

/// A random smooth velocity: superposition of a few low-frequency Fourier
/// modes, seeded deterministically. `amplitude` bounds `max |v|` roughly;
/// `max_mode` bounds the spatial frequency.
pub fn random_smooth_velocity(
    layout: Layout,
    seed: u64,
    amplitude: f64,
    max_mode: usize,
) -> VectorField {
    let mut rng = StdRng::seed_from_u64(seed);
    // per component: sum of `nmodes` products of sin/cos with random phase
    let mut make_coeffs = |n: usize| -> Vec<(Real, [i32; 3], [Real; 3])> {
        (0..n)
            .map(|_| {
                let amp = rng.random_range(-1.0..1.0) as Real;
                let k = [
                    rng.random_range(1..=max_mode as i32),
                    rng.random_range(1..=max_mode as i32),
                    rng.random_range(1..=max_mode as i32),
                ];
                let phase = [
                    rng.random_range(0.0..std::f64::consts::TAU) as Real,
                    rng.random_range(0.0..std::f64::consts::TAU) as Real,
                    rng.random_range(0.0..std::f64::consts::TAU) as Real,
                ];
                (amp, k, phase)
            })
            .collect()
    };
    let comps: Vec<Vec<(Real, [i32; 3], [Real; 3])>> = (0..3).map(|_| make_coeffs(4)).collect();
    let norm = amplitude as Real / 4.0;
    let eval = move |coeffs: &[(Real, [i32; 3], [Real; 3])], x: [Real; 3]| -> Real {
        coeffs
            .iter()
            .map(|(a, k, p)| {
                a * (k[0] as Real * x[0] + p[0]).sin()
                    * (k[1] as Real * x[1] + p[1]).sin()
                    * (k[2] as Real * x[2] + p[2]).cos()
            })
            .sum::<Real>()
            * norm
    };
    let (c0, c1, c2) = (comps[0].clone(), comps[1].clone(), comps[2].clone());
    VectorField::from_fns(
        layout,
        move |x, y, z| eval(&c0, [x, y, z]),
        move |x, y, z| eval(&c1, [x, y, z]),
        move |x, y, z| eval(&c2, [x, y, z]),
    )
}

/// Subject index (1-based) from a NIREP-style name (`na01` … `na16`).
pub fn subject_index(name: &str) -> Option<u64> {
    name.strip_prefix("na").and_then(|s| s.parse::<u64>().ok())
}

/// Generate subject `name` (e.g. `"na10"`): the canonical brain warped by
/// a subject-specific random smooth diffeomorphism. `na01` *is* the
/// canonical atlas (like the NIREP reference subject). Collective.
pub fn subject(name: &str, layout: Layout, comm: &mut Comm) -> ScalarField {
    let idx = subject_index(name)
        .unwrap_or_else(|| panic!("subject names look like na01..na16, got {name}"));
    let atlas = canonical(layout);
    if idx <= 1 {
        return atlas;
    }
    let v = random_smooth_velocity(layout, 1000 + idx, 0.35, 2);
    let interp = Interpolator::new(IpOrder::Cubic);
    let transport = Transport::new(4, IpOrder::Cubic);
    let traj = Trajectory::compute(&v, transport.nt, &interp, comm);
    let mut sol = transport.solve_state(&traj, &atlas, false, &interp, comm);
    sol.m.pop().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::Grid;

    #[test]
    fn canonical_is_bounded_and_structured() {
        let layout = Layout::serial(Grid::cube(24));
        let b = canonical(layout);
        assert!(b.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // centre is bright, corner is dark
        assert!(b.at(12, 12, 12) > 0.5);
        assert!(b.at(0, 0, 0) < 0.05);
    }

    #[test]
    fn subjects_are_deterministic_and_distinct() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let a1 = subject("na02", layout, &mut comm);
        let a2 = subject("na02", layout, &mut comm);
        assert_eq!(a1, a2, "same name, same image");
        let b = subject("na03", layout, &mut comm);
        let mut d = a1.clone();
        d.axpy(-1.0, &b);
        assert!(d.norm_l2(&mut comm) > 1e-3, "different subjects must differ");
    }

    #[test]
    fn na01_is_the_atlas() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        assert_eq!(subject("na01", layout, &mut comm), canonical(layout));
    }

    #[test]
    fn random_velocity_amplitude_respected() {
        let layout = Layout::serial(Grid::cube(16));
        let mut comm = Comm::solo();
        let v = random_smooth_velocity(layout, 7, 0.3, 2);
        let m = v.max_abs(&mut comm);
        assert!(m > 0.01 && m < 0.5, "max |v| = {m}");
    }

    #[test]
    fn subject_name_parsing() {
        assert_eq!(subject_index("na10"), Some(10));
        assert_eq!(subject_index("na01"), Some(1));
        assert_eq!(subject_index("foo"), None);
    }
}
