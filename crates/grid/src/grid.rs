//! Global grid geometry.

use crate::real::{Real, TWO_PI};

/// A regular periodic grid on `Ω = [0, 2π)³`.
///
/// `n = [n1, n2, n3]` are the numbers of grid points per dimension; the grid
/// spacing is `h_i = 2π / n_i` and grid point `(i, j, k)` sits at
/// `(i·h1, j·h2, k·h3)`. Periodicity means index arithmetic wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Points per dimension `[n1, n2, n3]` (x1 outermost / slowest).
    pub n: [usize; 3],
}

impl Grid {
    /// Create a grid; every dimension must have at least 2 points.
    pub fn new(n: [usize; 3]) -> Self {
        assert!(n.iter().all(|&ni| ni >= 2), "grid needs >= 2 points per dim: {n:?}");
        Self { n }
    }

    /// Cubic grid `n × n × n`.
    pub fn cube(n: usize) -> Self {
        Self::new([n, n, n])
    }

    /// Total number of grid points `N = n1·n2·n3`.
    pub fn len(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// True if the grid is degenerate (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid spacing `h = [2π/n1, 2π/n2, 2π/n3]`.
    pub fn spacing(&self) -> [Real; 3] {
        [TWO_PI / self.n[0] as Real, TWO_PI / self.n[1] as Real, TWO_PI / self.n[2] as Real]
    }

    /// Volume element `h1·h2·h3` of the midpoint quadrature used for all
    /// integrals over Ω.
    pub fn cell_volume(&self) -> Real {
        let h = self.spacing();
        h[0] * h[1] * h[2]
    }

    /// Linear index of global point `(i, j, k)` in row-major x3-fastest order.
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.n[0] && j < self.n[1] && k < self.n[2]);
        (i * self.n[1] + j) * self.n[2] + k
    }

    /// Inverse of [`Grid::idx`].
    pub fn unidx(&self, idx: usize) -> [usize; 3] {
        let k = idx % self.n[2];
        let j = (idx / self.n[2]) % self.n[1];
        let i = idx / (self.n[1] * self.n[2]);
        [i, j, k]
    }

    /// Wrap a (possibly negative) index into `0..n[dim]` periodically.
    pub fn wrap(&self, dim: usize, i: isize) -> usize {
        let n = self.n[dim] as isize;
        (((i % n) + n) % n) as usize
    }

    /// Coarsen by a factor of two per dimension (for the two-level
    /// preconditioner). Requires even dimensions.
    pub fn coarsen(&self) -> Grid {
        assert!(
            self.n.iter().all(|&ni| ni % 2 == 0 && ni >= 4),
            "coarsening needs even dims >= 4: {:?}",
            self.n
        );
        Grid::new([self.n[0] / 2, self.n[1] / 2, self.n[2] / 2])
    }

    /// Signed spectral wavenumber for index `i` in dimension `dim`:
    /// `0, 1, …, n/2, -(n/2-1), …, -1` (the `n/2` Nyquist mode is positive).
    pub fn wavenumber(&self, dim: usize, i: usize) -> isize {
        let n = self.n[dim];
        debug_assert!(i < n);
        if i <= n / 2 {
            i as isize
        } else {
            i as isize - n as isize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_roundtrip() {
        let g = Grid::new([4, 6, 8]);
        for idx in 0..g.len() {
            let [i, j, k] = g.unidx(idx);
            assert_eq!(g.idx(i, j, k), idx);
        }
    }

    #[test]
    fn spacing_and_volume() {
        let g = Grid::cube(8);
        let h = g.spacing();
        assert!((h[0] - TWO_PI / 8.0).abs() < 1e-12);
        let vol_total = g.cell_volume() * g.len() as Real;
        assert!((vol_total - TWO_PI.powi(3)).abs() < 1e-6 * TWO_PI.powi(3));
    }

    #[test]
    fn wrap_negative_and_large() {
        let g = Grid::cube(8);
        assert_eq!(g.wrap(0, -1), 7);
        assert_eq!(g.wrap(0, 8), 0);
        assert_eq!(g.wrap(0, -9), 7);
        assert_eq!(g.wrap(0, 17), 1);
    }

    #[test]
    fn wavenumbers_symmetric() {
        let g = Grid::cube(8);
        let ks: Vec<isize> = (0..8).map(|i| g.wavenumber(0, i)).collect();
        assert_eq!(ks, vec![0, 1, 2, 3, 4, -3, -2, -1]);
    }

    #[test]
    fn coarsen_halves() {
        let g = Grid::new([8, 16, 4]);
        assert_eq!(g.coarsen().n, [4, 8, 2]);
    }

    #[test]
    #[should_panic(expected = "grid needs")]
    fn tiny_grid_rejected() {
        Grid::new([1, 4, 4]);
    }
}
