//! Scalar and vector fields on (possibly distributed) periodic grids.
//!
//! Element-wise ops run on the runtime-dispatched SIMD layer
//! (`claire-simd`): each `claire-par` worker applies the vectorized kernel
//! to its chunks, so thread-level and data-level parallelism compose.
//! Global sums go through [`PlaneSums`] — one partial per x1 plane, formed
//! by one thread of the plane's owner — so their bits depend on neither the
//! thread count nor the rank count nor the transport; a max needs no order.
//!
//! Fields are generic over the element width ([`FieldElem`]: `f64` | `f32`)
//! for the mixed-precision solver core. [`ScalarField`]/[`VectorField`]
//! remain the `Real`-width aliases the rest of the system names; the f32
//! instantiation carries the inner Krylov/spectral state at half the
//! footprint. Every reduction accumulates and returns `f64` regardless of
//! the element width, so convergence logic is width-independent.

use std::sync::atomic::{AtomicU64, Ordering};

use claire_mpi::Comm;
use claire_par::timing::{self, Kernel};
use claire_par::{par_chunks_mut, par_split, ELEM_CHUNK};

use crate::real::Real;
use crate::reduce::PlaneSums;
use crate::slab::Layout;
use crate::workspace::{FieldElem, PoolVec, WsCat};

/// Raise `max` to `max |d|`; NaN if any sample is NaN. Threads take any
/// split, as max needs no order: non-negative doubles order as their bits,
/// and `|NaN|` lies above `+∞`.
fn par_max_abs<T: FieldElem>(d: &[T], max: &AtomicU64) {
    par_split(d.len(), d.len(), (), |r, ()| {
        max.fetch_max(T::kmax_abs(&d[r]).to_bits(), Ordering::Relaxed);
    });
}

/// A scalar field: this rank's slab of samples of a function on Ω.
///
/// Storage comes from the element width's workspace pool
/// ([`FieldElem::pool`]): constructing a field checks a buffer out, dropping
/// one checks it back in, so field churn in the solver hot path recycles
/// memory instead of allocating.
#[derive(Debug, PartialEq)]
pub struct ScalarFieldT<T: FieldElem> {
    layout: Layout,
    data: PoolVec<T>,
}

/// The `Real`-width scalar field (what the paper's solver state stores).
pub type ScalarField = ScalarFieldT<Real>;

impl<T: FieldElem> ScalarFieldT<T> {
    /// Zero field with the given layout (pooled, charged to µPDE).
    pub fn zeros(layout: Layout) -> Self {
        Self::zeros_in(layout, WsCat::Pde)
    }

    /// Zero field charged to an explicit workspace category; the zeros are
    /// written in parallel, on the field-op clock.
    pub fn zeros_in(layout: Layout, cat: WsCat) -> Self {
        let mut out = Self::for_overwrite_in(layout, cat);
        out.fill(T::ZERO);
        out
    }

    /// A field for a writer that sets every sample before anything reads
    /// one (pooled, charged to µPDE). Its samples are unspecified: under
    /// `debug_assertions` all NaN, otherwise whatever the buffer's last
    /// holder wrote, NaN beyond that. A field that is read as zero — an
    /// accumulator, an initial guess — takes [`ScalarFieldT::zeros`].
    pub fn for_overwrite(layout: Layout) -> Self {
        Self::for_overwrite_in(layout, WsCat::Pde)
    }

    /// [`ScalarFieldT::for_overwrite`] charged to an explicit workspace
    /// category.
    pub fn for_overwrite_in(layout: Layout, cat: WsCat) -> Self {
        let nan = T::from_f64(f64::NAN);
        Self { layout, data: T::pool().checkout_written(layout.local_len(), nan, cat) }
    }

    /// Field from existing local data (must match the layout's local length).
    /// The vector migrates into the workspace pool when the field drops.
    pub fn from_data(layout: Layout, data: Vec<T>) -> Self {
        assert_eq!(data.len(), layout.local_len(), "data/layout size mismatch");
        Self { layout, data: T::pool().adopt(data, WsCat::Pde) }
    }

    /// The layout (grid + slab) of this field.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Local data slice.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable local data slice.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the local data vector (detached from the pool).
    pub fn into_data(self) -> Vec<T> {
        self.data.into_vec()
    }

    /// Value at local plane `il`, `j`, `k`.
    pub fn at(&self, il: usize, j: usize, k: usize) -> T {
        self.data[self.layout.local_idx(il, j, k)]
    }

    /// Mutable value at local plane `il`, `j`, `k`.
    pub fn at_mut(&mut self, il: usize, j: usize, k: usize) -> &mut T {
        &mut self.data[self.layout.local_idx(il, j, k)]
    }

    // ----- elementwise operations ----------------------------------------

    /// Set every sample to `v`.
    pub fn fill(&mut self, v: T) {
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |_, c| c.fill(v))
        });
    }

    /// `self *= a`.
    pub fn scale(&mut self, a: T) {
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |_, c| T::kscale(a, c))
        });
    }

    /// `self += a·x` (same layout required).
    pub fn axpy(&mut self, a: T, x: &Self) {
        self.check_same_layout(x);
        let xd = &x.data;
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |ci, c| {
                let base = ci * ELEM_CHUNK;
                T::kaxpy(a, &xd[base..base + c.len()], c);
            })
        });
    }

    /// `self = a·self + x`.
    pub fn aypx(&mut self, a: T, x: &Self) {
        self.check_same_layout(x);
        let xd = &x.data;
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |ci, c| {
                let base = ci * ELEM_CHUNK;
                T::kaypx(a, &xd[base..base + c.len()], c);
            })
        });
    }

    /// Copy values from another field of the same layout.
    pub fn copy_from(&mut self, x: &Self) {
        self.check_same_layout(x);
        let xd = &x.data;
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |ci, c| {
                c.copy_from_slice(&xd[ci * ELEM_CHUNK..][..c.len()])
            })
        });
    }

    /// Apply `f` to every sample in place.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T + Sync) {
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |_, c| {
                for x in c {
                    *x = f(*x);
                }
            })
        });
    }

    // ----- precision conversion (the GN demote/promote boundary) -----------

    /// Overwrite `self` with `src` converted element-by-element through f64
    /// (`U::to_f64` → `T::from_f64`). This is the mixed-precision boundary
    /// crossing: pooled destination + in-place write keep it allocation-free
    /// in the steady state.
    pub fn convert_from<U: FieldElem>(&mut self, src: &ScalarFieldT<U>) {
        assert_eq!(self.layout, src.layout, "field layout mismatch");
        let sd = &src.data;
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |ci, c| {
                let base = ci * ELEM_CHUNK;
                let sv = &sd[base..base + c.len()];
                for (o, &v) in c.iter_mut().zip(sv) {
                    *o = T::from_f64(v.to_f64());
                }
            })
        });
    }

    /// A freshly pooled field holding `self` converted to width `U`.
    pub fn converted<U: FieldElem>(&self, cat: WsCat) -> ScalarFieldT<U> {
        let mut out = ScalarFieldT::<U>::for_overwrite_in(self.layout, cat);
        out.convert_from(self);
        out
    }

    // ----- fused update + reduction ---------------------------------------
    //
    // These single-pass variants halve the DRAM traffic of the PCG field-op
    // chains (update then norm): the solver is bandwidth-bound (paper §3
    // counts memory passes, not flops), so one streamed pass instead of two
    // is a direct win. The fused pass has the planes of the unfused pair, so
    // on the scalar backend the two agree bit for bit.

    /// `self += a·x`, returning the local raw self-dot `Σ selfᵢ²` of the
    /// updated field from the same pass over memory.
    pub fn axpy_dot_local(&mut self, a: T, x: &Self) -> f64 {
        let mut sums = PlaneSums::of_layout(&self.layout);
        self.add_axpy_dot(a, x, &mut sums);
        sums.local()
    }

    /// `self += a·x`, adding the updated field's per-plane `Σ selfᵢ²` to
    /// `sums`.
    fn add_axpy_dot(&mut self, a: T, x: &Self, sums: &mut PlaneSums) {
        self.check_same_layout(x);
        let xd = &x.data;
        timing::time(Kernel::FieldOps, || {
            sums.add_mut(&mut self.data, |r, plane| T::kaxpy_dot(a, &xd[r], plane))
        });
    }

    /// `self = a·x + y` in one pass — replaces the clone-then-axpy pattern
    /// (which costs a copy pass plus an update pass) at line-search call
    /// sites where `self` is a reused trial buffer.
    pub fn scale_add_from(&mut self, a: T, x: &Self, y: &Self) {
        self.check_same_layout(x);
        self.check_same_layout(y);
        let (xd, yd) = (&x.data, &y.data);
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut self.data, ELEM_CHUNK, |ci, c| {
                let base = ci * ELEM_CHUNK;
                T::kscale_add_norm(a, &xd[base..base + c.len()], &yd[base..base + c.len()], c);
            })
        });
    }

    fn check_same_layout(&self, other: &Self) {
        assert_eq!(self.layout, other.layout, "field layout mismatch");
    }

    // ----- reductions ------------------------------------------------------

    /// Add the per-plane raw dot product with `other` to `sums`.
    fn add_dot(&self, other: &Self, sums: &mut PlaneSums) {
        self.check_same_layout(other);
        let (a, b) = (&self.data, &other.data);
        timing::time(Kernel::FieldOps, || sums.add(|r| T::kdot(&a[r.clone()], &b[r])));
    }

    /// Global raw dot product (sum over all grid points).
    pub fn dot(&self, other: &Self, comm: &mut Comm) -> f64 {
        let mut sums = PlaneSums::of_layout(&self.layout);
        self.add_dot(other, &mut sums);
        sums.global(comm)
    }

    /// Global L2(Ω) inner product: `∫ f·g ≈ h³ Σ f·g`.
    pub fn inner(&self, other: &Self, comm: &mut Comm) -> f64 {
        self.dot(other, comm) * self.layout.grid.cell_volume()
    }

    /// Global L2(Ω) norm.
    pub fn norm_l2(&self, comm: &mut Comm) -> f64 {
        self.inner(self, comm).max(0.0).sqrt()
    }

    /// Global max absolute value; NaN if any sample is NaN.
    pub fn max_abs(&self, comm: &mut Comm) -> f64 {
        let max = AtomicU64::new(0);
        timing::time(Kernel::FieldOps, || par_max_abs(&self.data, &max));
        comm.allreduce_max_scalar(f64::from_bits(max.into_inner()))
    }

    /// Global sum of samples.
    pub fn sum(&self, comm: &mut Comm) -> f64 {
        let mut sums = PlaneSums::of_layout(&self.layout);
        timing::time(Kernel::FieldOps, || sums.add(|r| T::ksum(&self.data[r])));
        sums.global(comm)
    }
}

impl<T: FieldElem> Clone for ScalarFieldT<T> {
    /// A pooled copy of the same category, written in parallel on the
    /// field-op clock.
    fn clone(&self) -> Self {
        let mut out = Self::for_overwrite_in(self.layout, self.data.category());
        out.copy_from(self);
        out
    }
}

impl ScalarField {
    /// Sample an analytic function `f(x1, x2, x3)` at the owned grid points.
    /// Rows (fixed `il`, `j`) are sampled in parallel.
    pub fn from_fn(layout: Layout, f: impl Fn(Real, Real, Real) -> Real + Sync) -> Self {
        let mut field = Self::for_overwrite(layout);
        let h = layout.grid.spacing();
        let [_, n2, n3] = layout.local_dims();
        let i0 = layout.slab.i0;
        par_chunks_mut(&mut field.data, n3, |row, line| {
            let x1 = (i0 + row / n2) as Real * h[0];
            let x2 = (row % n2) as Real * h[1];
            for (k, v) in line.iter_mut().enumerate() {
                *v = f(x1, x2, k as Real * h[2]);
            }
        });
        field
    }
}

/// A vector field `v : Ω → R³`, stored as three scalar components
/// (structure-of-arrays, like CLAIRE).
#[derive(Clone, Debug, PartialEq)]
pub struct VectorFieldT<T: FieldElem> {
    /// Components `[v1, v2, v3]`.
    pub c: [ScalarFieldT<T>; 3],
}

/// The `Real`-width vector field.
pub type VectorField = VectorFieldT<Real>;

impl<T: FieldElem> VectorFieldT<T> {
    /// Zero vector field (pooled, charged to µPDE).
    pub fn zeros(layout: Layout) -> Self {
        Self::zeros_in(layout, WsCat::Pde)
    }

    /// Zero vector field charged to an explicit workspace category.
    pub fn zeros_in(layout: Layout, cat: WsCat) -> Self {
        Self { c: std::array::from_fn(|_| ScalarFieldT::zeros_in(layout, cat)) }
    }

    /// A vector field for a writer that sets every sample of every
    /// component before anything reads one (see
    /// [`ScalarFieldT::for_overwrite`]; pooled, charged to µPDE).
    pub fn for_overwrite(layout: Layout) -> Self {
        Self::for_overwrite_in(layout, WsCat::Pde)
    }

    /// [`VectorFieldT::for_overwrite`] charged to an explicit workspace
    /// category.
    pub fn for_overwrite_in(layout: Layout, cat: WsCat) -> Self {
        Self { c: std::array::from_fn(|_| ScalarFieldT::for_overwrite_in(layout, cat)) }
    }

    /// The layout shared by all components.
    pub fn layout(&self) -> &Layout {
        self.c[0].layout()
    }

    /// `self *= a`.
    pub fn scale(&mut self, a: T) {
        for comp in &mut self.c {
            comp.scale(a);
        }
    }

    /// `self += a·x`.
    pub fn axpy(&mut self, a: T, x: &Self) {
        for (s, xc) in self.c.iter_mut().zip(&x.c) {
            s.axpy(a, xc);
        }
    }

    /// `self = a·self + x`.
    pub fn aypx(&mut self, a: T, x: &Self) {
        for (s, xc) in self.c.iter_mut().zip(&x.c) {
            s.aypx(a, xc);
        }
    }

    /// Copy from another vector field of the same layout.
    pub fn copy_from(&mut self, x: &Self) {
        for (s, xc) in self.c.iter_mut().zip(&x.c) {
            s.copy_from(xc);
        }
    }

    /// Set all components to zero.
    pub fn fill(&mut self, v: T) {
        for comp in &mut self.c {
            comp.fill(v);
        }
    }

    /// Overwrite `self` with `src` converted per component (the GN boundary
    /// demote/promote for search directions and Newton steps).
    pub fn convert_from<U: FieldElem>(&mut self, src: &VectorFieldT<U>) {
        for (s, xc) in self.c.iter_mut().zip(&src.c) {
            s.convert_from(xc);
        }
    }

    /// A freshly pooled vector field holding `self` converted to width `U`.
    pub fn converted<U: FieldElem>(&self, cat: WsCat) -> VectorFieldT<U> {
        let mut out = VectorFieldT::<U>::for_overwrite_in(*self.layout(), cat);
        out.convert_from(self);
        out
    }

    /// `self += a·x`, returning the global L2(Ω)³ norm of the updated field
    /// — the fused form of `axpy` followed by `norm_l2`, one streamed pass
    /// over each component instead of two plus the same single allreduce.
    /// A plane's components are summed in component order, as in `dot`, so
    /// the scalar backend reproduces the unfused result bit for bit.
    pub fn axpy_norm_l2(&mut self, a: T, x: &Self, comm: &mut Comm) -> f64 {
        let mut sums = PlaneSums::of_layout(self.layout());
        for (s, xc) in self.c.iter_mut().zip(&x.c) {
            s.add_axpy_dot(a, xc, &mut sums);
        }
        let vol = self.layout().grid.cell_volume();
        (sums.global(comm) * vol).max(0.0).sqrt()
    }

    /// `self = a·x + y` per component in one pass (non-collective).
    pub fn scale_add_from(&mut self, a: T, x: &Self, y: &Self) {
        for ((s, xc), yc) in self.c.iter_mut().zip(&x.c).zip(&y.c) {
            s.scale_add_from(a, xc, yc);
        }
    }

    /// Global raw dot product over all components.
    pub fn dot(&self, other: &Self, comm: &mut Comm) -> f64 {
        let mut sums = PlaneSums::of_layout(self.layout());
        for (a, b) in self.c.iter().zip(&other.c) {
            a.add_dot(b, &mut sums);
        }
        sums.global(comm)
    }

    /// Global L2(Ω)³ inner product.
    pub fn inner(&self, other: &Self, comm: &mut Comm) -> f64 {
        self.dot(other, comm) * self.layout().grid.cell_volume()
    }

    /// Global L2(Ω)³ norm.
    pub fn norm_l2(&self, comm: &mut Comm) -> f64 {
        self.inner(self, comm).max(0.0).sqrt()
    }

    /// Global max over components of max absolute value — used for the CFL
    /// estimate that sizes the scatter buffers (paper §3.1). NaN if any
    /// sample is NaN.
    pub fn max_abs(&self, comm: &mut Comm) -> f64 {
        let max = AtomicU64::new(0);
        timing::time(Kernel::FieldOps, || self.c.iter().for_each(|c| par_max_abs(c.data(), &max)));
        comm.allreduce_max_scalar(f64::from_bits(max.into_inner()))
    }
}

/// What a Krylov method needs of the vectors it iterates on: the linear
/// updates and an inner product, nothing else. `claire_opt::pcg` is written
/// against this, so the one loop runs on [`VectorFieldT`]s (the outer
/// Newton–PCG) and on spectra (`claire_fft::SpectralVecT`, the inner H0
/// solve). Scalars cross as f64 and every reduction returns f64, whatever the
/// storage width.
pub trait KrylovVec: Clone {
    /// A zero vector of the same shape.
    fn zeros_like(&self) -> Self;
    /// `self += a·x`.
    fn axpy(&mut self, a: f64, x: &Self);
    /// `self = a·self + x`.
    fn aypx(&mut self, a: f64, x: &Self);
    /// `self += a·x`, returning the norm of the updated vector from the same
    /// pass. Collective.
    fn axpy_norm(&mut self, a: f64, x: &Self, comm: &mut Comm) -> f64;
    /// Inner product. Collective.
    fn inner(&self, other: &Self, comm: &mut Comm) -> f64;
    /// Norm induced by [`KrylovVec::inner`]. Collective.
    fn norm(&self, comm: &mut Comm) -> f64 {
        self.inner(self, comm).max(0.0).sqrt()
    }
}

impl<T: FieldElem> KrylovVec for VectorFieldT<T> {
    fn zeros_like(&self) -> Self {
        VectorFieldT::zeros(*self.layout())
    }
    fn axpy(&mut self, a: f64, x: &Self) {
        VectorFieldT::axpy(self, T::from_f64(a), x);
    }
    fn aypx(&mut self, a: f64, x: &Self) {
        VectorFieldT::aypx(self, T::from_f64(a), x);
    }
    fn axpy_norm(&mut self, a: f64, x: &Self, comm: &mut Comm) -> f64 {
        self.axpy_norm_l2(T::from_f64(a), x, comm)
    }
    fn inner(&self, other: &Self, comm: &mut Comm) -> f64 {
        VectorFieldT::inner(self, other, comm)
    }
}

impl VectorField {
    /// Sample three analytic component functions.
    pub fn from_fns(
        layout: Layout,
        f1: impl Fn(Real, Real, Real) -> Real + Sync,
        f2: impl Fn(Real, Real, Real) -> Real + Sync,
        f3: impl Fn(Real, Real, Real) -> Real + Sync,
    ) -> Self {
        Self {
            c: [
                ScalarField::from_fn(layout, f1),
                ScalarField::from_fn(layout, f2),
                ScalarField::from_fn(layout, f3),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::real::TWO_PI;

    fn serial(n: usize) -> Layout {
        Layout::serial(Grid::cube(n))
    }

    #[test]
    fn from_fn_samples_coordinates() {
        let f = ScalarField::from_fn(serial(4), |x, _, _| x);
        let h = TWO_PI / 4.0;
        assert!((f.at(3, 0, 0) - 3.0 * h).abs() < 1e-6);
        assert!((f.at(0, 2, 1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = ScalarField::from_fn(serial(4), |_, _, _| 2.0);
        let b = ScalarField::from_fn(serial(4), |_, _, _| 3.0);
        a.axpy(2.0, &b); // 2 + 6 = 8
        a.scale(0.5); // 4
        assert!(a.data().iter().all(|&x| (x - 4.0).abs() < 1e-12));
    }

    #[test]
    fn l2_norm_of_sine() {
        // ∫ sin²(x) dx over [0,2π)³ = π · (2π)² ⇒ ‖sin(x1)‖ = sqrt(2π³ · 2π ...)
        let n = 32;
        let f = ScalarField::from_fn(serial(n), |x, _, _| x.sin());
        let mut comm = Comm::solo();
        let norm = f.norm_l2(&mut comm);
        let expect = (0.5 * TWO_PI.powi(3)).sqrt();
        assert!((norm - expect).abs() < 1e-5 * expect, "{norm} vs {expect}");
    }

    #[test]
    fn vector_dot_symmetry() {
        let l = serial(8);
        let v = VectorField::from_fns(l, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z.sin());
        let w =
            VectorField::from_fns(l, |x, _, _| x.cos(), |_, y, _| y.sin(), |_, _, z| 1.0 + 0.0 * z);
        let mut comm = Comm::solo();
        let a = v.dot(&w, &mut comm);
        let b = w.dot(&v, &mut comm);
        assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn fused_field_ops_bitwise_match_unfused_on_scalar_backend() {
        claire_simd::force_backend(Some(claire_simd::Choice::Scalar));
        let l = serial(16);
        let mut comm = Comm::solo();
        let v = VectorField::from_fns(l, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z.sin());
        let w = VectorField::from_fns(
            l,
            |x, _, _| (2.0 * x).cos(),
            |_, y, _| 0.5 - y.sin(),
            |_, _, z| z.cos() * 1.5,
        );

        // axpy + norm vs fused axpy_norm_l2
        let mut a = v.clone();
        a.axpy(-0.75, &w);
        let n_unfused = a.norm_l2(&mut comm);
        let mut b = v.clone();
        let n_fused = b.axpy_norm_l2(-0.75, &w, &mut comm);
        assert_eq!(a, b);
        assert_eq!(n_unfused.to_bits(), n_fused.to_bits());

        // clone + axpy vs single-pass scale_add_from into a reused buffer
        let mut a = w.clone();
        a.axpy(1.25, &v);
        let mut b = VectorField::zeros(l);
        b.scale_add_from(1.25, &v, &w);
        assert_eq!(a, b);
        claire_simd::force_backend(None);
    }

    #[test]
    fn conversion_roundtrips_within_f32_ulp() {
        let l = serial(8);
        let f = ScalarField::from_fn(l, |x, y, z| (x + 0.5 * y).sin() * z.cos());
        let demoted: ScalarFieldT<f32> = f.converted(WsCat::GnCg);
        let mut back = ScalarField::zeros_in(l, WsCat::GnCg);
        back.convert_from(&demoted);
        for (a, b) in f.data().iter().zip(back.data()) {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "f64→f32→f64 roundtrip out of tolerance: {a} vs {b}"
            );
        }
        // the demoted field's reductions still accumulate in f64
        let mut comm = Comm::solo();
        let n64 = f.dot(&f, &mut comm);
        let n32 = demoted.dot(&demoted, &mut comm);
        assert!((n64 - n32).abs() <= 1e-5 * n64.max(1.0), "{n64} vs {n32}");
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn layout_mismatch_panics() {
        let mut a = ScalarField::zeros(serial(4));
        let b = ScalarField::zeros(serial(8));
        a.axpy(1.0, &b);
    }
}
