//! Matrix-free preconditioned conjugate gradients.
//!
//! The one loop is generic over the vector it iterates on ([`KrylovVec`]):
//! the outer Gauss–Newton driver runs it on [`VectorField`]s — f64 by
//! default, `VectorFieldT<f32>` when the inner Krylov solve is demoted —
//! and `claire-core`'s H0 preconditioners run it on spectra, where `βA` and
//! its inverse are Hadamard scales and inner products are Parseval sums.
//! Scalars and reductions are f64 whatever the vector stores, so only the
//! streamed storage and matvec traffic narrow.

use claire_grid::{KrylovVec, VectorField};
use claire_mpi::Comm;
use claire_obs::span::span;

/// PCG options.
#[derive(Clone, Copy, Debug)]
pub struct PcgConfig {
    /// Relative residual tolerance (`‖r‖/‖b‖`).
    pub tol_rel: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Record the residual history (Fig. 3 traces).
    pub trace: bool,
}

impl Default for PcgConfig {
    fn default() -> Self {
        Self { tol_rel: 1e-6, max_iter: 500, trace: false }
    }
}

/// Outcome of a PCG solve.
#[derive(Clone, Debug)]
pub struct PcgResult {
    /// Iterations performed.
    pub iters: usize,
    /// Final relative (true) residual.
    pub rel_residual: f64,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Relative residual after each iteration (index 0 = initial), if
    /// tracing was enabled.
    pub trace: Vec<f64>,
}

/// The operator pair PCG iterates with: the SPD system operator and a
/// preconditioner. One object provides both so a single mutable context
/// (e.g. the registration problem) can back them.
///
/// Generic over the vector type; `V` defaults to [`VectorField`] so f64
/// field operators are written `impl PcgOperator for …`.
pub trait PcgOperator<V: KrylovVec = VectorField> {
    /// `A·p`.
    fn apply(&mut self, p: &V, comm: &mut Comm) -> V;
    /// `M·r ≈ A⁻¹ r`. Default: identity (unpreconditioned CG).
    fn prec(&mut self, r: &V, _comm: &mut Comm) -> V {
        r.clone()
    }
}

/// Solve `A x = b` for SPD `A` with preconditioner `M ≈ A⁻¹`.
///
/// `b` is consumed — it becomes the residual — and `x0` seeds the iteration
/// (zero if `None`). Collective. The scalar recurrences (`α`, `β`) are f64
/// and every reduction accumulates in f64; a vector of f32 storage rounds
/// only its own updates. Four vectors are live across an iteration (`x`,
/// `r`, `p` and one of `A·p` / `M·r`, never both).
pub fn pcg<V: KrylovVec, O: PcgOperator<V>>(
    b: V,
    x0: Option<V>,
    cfg: &PcgConfig,
    ops: &mut O,
    comm: &mut Comm,
) -> (V, PcgResult) {
    let _s = span("pcg");

    let bn_raw = b.norm(comm);
    let bnorm = bn_raw.max(f64::MIN_POSITIVE);
    // r = b − A x. Cold start has r == b, so ‖b‖ is the initial residual;
    // warm start fuses the residual update with its norm (single pass over
    // r instead of update + separate norm pass).
    let mut r = b;
    let (mut x, mut rel) = match x0 {
        Some(x) => {
            let ax = ops.apply(&x, comm);
            let rel = r.axpy_norm(-1.0, &ax, comm) / bnorm;
            (x, rel)
        }
        None => (r.zeros_like(), bn_raw / bnorm),
    };
    let mut trace = Vec::new();
    if cfg.trace {
        trace.push(rel);
    }
    if rel <= cfg.tol_rel {
        return (x, PcgResult { iters: 0, rel_residual: rel, converged: true, trace });
    }

    let z = ops.prec(&r, comm);
    let mut rz = r.inner(&z, comm);
    let mut p = z;
    let mut iters = 0;

    for _ in 0..cfg.max_iter {
        let q = ops.apply(&p, comm);
        let pq = p.inner(&q, comm);
        if pq <= 0.0 || !pq.is_finite() {
            // Gauss–Newton Hessians are SPSD; treat non-positive curvature
            // as convergence to the best available step (defensive guard).
            break;
        }
        let alpha = rz / pq;
        x.axpy(alpha, &p);
        // fused residual update + norm: one streamed pass over r per
        // iteration instead of two (the solver's dominant field-op chain)
        let rnorm = r.axpy_norm(-alpha, &q, comm);
        // back in its pool before the preconditioner asks for `z`
        drop(q);
        iters += 1;

        rel = rnorm / bnorm;
        if cfg.trace {
            trace.push(rel);
        }
        if rel <= cfg.tol_rel {
            return (x, PcgResult { iters, rel_residual: rel, converged: true, trace });
        }

        let z = ops.prec(&r, comm);
        let rz_new = r.inner(&z, comm);
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + β p
        p.aypx(beta, &z);
    }

    (x, PcgResult { iters, rel_residual: rel, converged: rel <= cfg.tol_rel, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout, Real, ScalarField, ScalarFieldT, VectorFieldT, WsCat};
    use proptest::prelude::*;

    /// Adapter building a [`PcgOperator`] from two closures.
    struct FnOps<A, M>(A, M)
    where
        A: FnMut(&VectorField, &mut Comm) -> VectorField,
        M: FnMut(&VectorField, &mut Comm) -> VectorField;

    impl<A, M> PcgOperator for FnOps<A, M>
    where
        A: FnMut(&VectorField, &mut Comm) -> VectorField,
        M: FnMut(&VectorField, &mut Comm) -> VectorField,
    {
        fn apply(&mut self, p: &VectorField, comm: &mut Comm) -> VectorField {
            (self.0)(p, comm)
        }
        fn prec(&mut self, r: &VectorField, comm: &mut Comm) -> VectorField {
            (self.1)(r, comm)
        }
    }

    /// Diagonal SPD test operator: componentwise scaling by (2 + sin²(x)).
    fn diag_coeff(layout: Layout) -> ScalarField {
        ScalarField::from_fn(layout, |x, y, z| 2.0 + (x + y + z).sin().powi(2))
    }

    fn apply_diag(coef: &ScalarField, v: &VectorField) -> VectorField {
        let mut out = v.clone();
        for c in &mut out.c {
            for (o, &d) in c.data_mut().iter_mut().zip(coef.data()) {
                *o *= d;
            }
        }
        out
    }

    #[test]
    fn solves_diagonal_system() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let coef = diag_coeff(layout);
        let xtrue =
            VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z);
        let b = apply_diag(&coef, &xtrue);
        let cfg = PcgConfig { tol_rel: 1e-10, max_iter: 200, trace: true };
        let (x, res) = pcg(
            b.clone(),
            None,
            &cfg,
            &mut FnOps(
                |v: &VectorField, _: &mut Comm| apply_diag(&coef, v),
                |r: &VectorField, _: &mut Comm| r.clone(),
            ),
            &mut comm,
        );
        assert!(res.converged, "rel {}", res.rel_residual);
        let mut d = x.clone();
        d.axpy(-1.0, &xtrue);
        assert!(d.norm_l2(&mut comm) < 1e-8);
        // trace is monotone-ish and ends below tolerance
        assert!(res.trace.len() == res.iters + 1);
        assert!(*res.trace.last().unwrap() <= 1e-10);
    }

    #[test]
    fn exact_preconditioner_converges_in_one_iteration() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let coef = diag_coeff(layout);
        let b = VectorField::from_fns(
            layout,
            |x, _, _| x.cos(),
            |_, y, _| y.sin(),
            |_, _, z| 1.0 + 0.0 * z,
        );
        let cfg = PcgConfig { tol_rel: 1e-10, max_iter: 50, trace: false };
        let inv = |r: &VectorField, _: &mut Comm| {
            let mut out = r.clone();
            for c in &mut out.c {
                for (o, &d) in c.data_mut().iter_mut().zip(coef.data()) {
                    *o /= d;
                }
            }
            out
        };
        let (_, res) = pcg(
            b.clone(),
            None,
            &cfg,
            &mut FnOps(|v: &VectorField, _: &mut Comm| apply_diag(&coef, v), inv),
            &mut comm,
        );
        assert!(res.converged);
        assert!(res.iters <= 2, "exact preconditioner should converge immediately: {}", res.iters);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let layout = Layout::serial(Grid::cube(8));
        let mut comm = Comm::solo();
        let coef = diag_coeff(layout);
        let xtrue =
            VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y, |_, _, z| z.cos());
        let b = apply_diag(&coef, &xtrue);
        let cfg = PcgConfig { tol_rel: 1e-8, max_iter: 300, trace: false };
        let (_, cold) = pcg(
            b.clone(),
            None,
            &cfg,
            &mut FnOps(
                |v: &VectorField, _: &mut Comm| apply_diag(&coef, v),
                |r: &VectorField, _: &mut Comm| r.clone(),
            ),
            &mut comm,
        );
        // warm start at the exact solution: zero iterations needed
        let (_, warm) = pcg(
            b.clone(),
            Some(xtrue.clone()),
            &cfg,
            &mut FnOps(
                |v: &VectorField, _: &mut Comm| apply_diag(&coef, v),
                |r: &VectorField, _: &mut Comm| r.clone(),
            ),
            &mut comm,
        );
        assert!(warm.iters == 0, "warm start at solution needs no iterations: {}", warm.iters);
        assert!(cold.iters > 0);
        let _ = Real::EPSILON;
    }

    /// Diagonal SPD operator at f32 width for the mixed-agreement proptest.
    struct Diag32<'a>(&'a ScalarFieldT<f32>);

    impl PcgOperator<VectorFieldT<f32>> for Diag32<'_> {
        fn apply(&mut self, v: &VectorFieldT<f32>, _: &mut Comm) -> VectorFieldT<f32> {
            let mut out = v.clone();
            for c in &mut out.c {
                for (o, &d) in c.data_mut().iter_mut().zip(self.0.data()) {
                    *o *= d;
                }
            }
            out
        }
    }

    proptest! {
        /// Mixed-precision agreement (the documented inner-solve tolerance):
        /// an f32 PCG solve of the same well-conditioned SPD system tracks
        /// the f64 solve to 1e-4 relative in the solution. Reductions
        /// accumulate in f64 in both widths, so the gap is pure streamed
        /// f32 rounding (~κ·ε_f32).
        #[test]
        fn f32_pcg_tracks_f64(seed in 0u64..40) {
            let layout = Layout::serial(Grid::cube(8));
            let mut comm = Comm::solo();
            let s = 0.1 + (seed as f64) * 0.17;
            let coef = ScalarField::from_fn(layout, move |x, y, z| {
                2.0 + ((x + 2.0 * y + z) * s).sin().powi(2)
            });
            let b = VectorField::from_fns(
                layout,
                move |x, _, _| (x * s).sin(),
                |_, y, _| y.cos(),
                |_, _, z| 0.5 * z,
            );
            let cfg = PcgConfig { tol_rel: 1e-5, max_iter: 200, trace: false };
            let (x64, r64) = pcg(
                b.clone(),
                None,
                &cfg,
                &mut FnOps(
                    |v: &VectorField, _: &mut Comm| apply_diag(&coef, v),
                    |r: &VectorField, _: &mut Comm| r.clone(),
                ),
                &mut comm,
            );
            let coef32: ScalarFieldT<f32> = coef.converted(WsCat::Other);
            let b32: VectorFieldT<f32> = b.converted(WsCat::Other);
            let (x32, r32) = pcg(b32, None, &cfg, &mut Diag32(&coef32), &mut comm);
            prop_assert!(r64.converged && r32.converged,
                "f64 rel {} / f32 rel {}", r64.rel_residual, r32.rel_residual);
            let mut d: VectorField = x32.converted(WsCat::Other);
            d.axpy(-1.0, &x64);
            let rel = d.norm_l2(&mut comm) / x64.norm_l2(&mut comm).max(1e-30);
            prop_assert!(rel < 1e-4, "solutions diverged: rel {rel}");
        }
    }

    /// A Krylov vector that is no field: coefficients with the Euclidean
    /// inner product.
    #[derive(Clone, Debug, PartialEq)]
    struct Dense(Vec<f64>);

    impl KrylovVec for Dense {
        fn zeros_like(&self) -> Self {
            Dense(vec![0.0; self.0.len()])
        }
        fn axpy(&mut self, a: f64, x: &Self) {
            self.0.iter_mut().zip(&x.0).for_each(|(y, x)| *y += a * x);
        }
        fn aypx(&mut self, a: f64, x: &Self) {
            self.0.iter_mut().zip(&x.0).for_each(|(y, x)| *y = a * *y + x);
        }
        fn axpy_norm(&mut self, a: f64, x: &Self, comm: &mut Comm) -> f64 {
            KrylovVec::axpy(self, a, x);
            self.norm(comm)
        }
        fn inner(&self, other: &Self, _: &mut Comm) -> f64 {
            self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
        }
    }

    /// The 1-D Laplacian plus identity, `(3, −1)` tridiagonal: SPD.
    struct Tridiag {
        jacobi: bool,
    }

    impl PcgOperator<Dense> for Tridiag {
        fn apply(&mut self, p: &Dense, _: &mut Comm) -> Dense {
            let (v, n) = (&p.0, p.0.len());
            let at = |i: usize| if i < n { v[i] } else { 0.0 };
            Dense((0..n).map(|i| 3.0 * v[i] - at(i.wrapping_sub(1)) - at(i + 1)).collect())
        }
        fn prec(&mut self, r: &Dense, _: &mut Comm) -> Dense {
            Dense(r.0.iter().map(|x| if self.jacobi { x / 3.0 } else { *x }).collect())
        }
    }

    #[test]
    fn the_loop_runs_on_a_vector_that_is_no_field() {
        let mut comm = Comm::solo();
        let xtrue = Dense((0..40).map(|i| (0.3 * i as f64).sin()).collect());
        let b = Tridiag { jacobi: false }.apply(&xtrue, &mut comm);
        let cfg = PcgConfig { tol_rel: 1e-12, max_iter: 100, trace: true };
        for jacobi in [false, true] {
            let (x, res) = pcg(b.clone(), None, &cfg, &mut Tridiag { jacobi }, &mut comm);
            assert!(res.converged && res.trace.len() == res.iters + 1, "rel {}", res.rel_residual);
            let mut d = x;
            KrylovVec::axpy(&mut d, -1.0, &xtrue);
            assert!(d.norm(&mut comm) < 1e-10);
        }
        // warm start at the solution and a zero right-hand side: no iteration
        let ops = &mut Tridiag { jacobi: true };
        let (x, warm) = pcg(b.clone(), Some(xtrue.clone()), &cfg, ops, &mut comm);
        assert_eq!((warm.iters, x), (0, xtrue));
        let (x, zero) = pcg(b.zeros_like(), None, &cfg, ops, &mut comm);
        assert_eq!((zero.iters, x), (0, b.zeros_like()));
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let layout = Layout::serial(Grid::cube(4));
        let mut comm = Comm::solo();
        let b = VectorField::zeros(layout);
        let cfg = PcgConfig::default();
        let (x, res) = pcg(
            b.clone(),
            None,
            &cfg,
            &mut FnOps(
                |v: &VectorField, _: &mut Comm| v.clone(),
                |r: &VectorField, _: &mut Comm| r.clone(),
            ),
            &mut comm,
        );
        assert_eq!(res.iters, 0);
        assert!(x.norm_l2(&mut comm) == 0.0);
    }
}
