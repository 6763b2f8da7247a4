//! Hessian preconditioners: InvA, InvH0, 2LInvH0 (paper §2, Algorithm 1).
//!
//! * `InvA` — the spectral benchmark `s = (βA)⁻¹ r` (eq. 8): two FFTs and
//!   a Hadamard product per application.
//! * `InvH0` — the paper's zero-velocity preconditioner: approximately
//!   invert `H0 = βA + ∇m̄ ⊗ ∇m̄` (eq. 9) with an inner PCG that is
//!   left-preconditioned by `(βA)⁻¹` and runs to relative tolerance
//!   `εH0·εK`. The matvec needs **no PDE solves** — this is the whole
//!   point: each outer Hessian application costs two transport solves, an
//!   H0 application costs two FFTs.
//! * `2LInvH0` — the two-level variant: restrict the residual and `∇m̄` to
//!   a half-resolution grid, solve (9) there, prolong, and add the
//!   high-frequency part of `(βA)⁻¹ r` (Algorithm 1).
//!
//! Two refinements from the paper are implemented: `m̄` is the *deformed
//! template at the current iterate* (refreshed each Gauss–Newton
//! iteration), and β inside H0 is floored at 5e−2 ("if β < 5e−2, we set β
//! in (9) to 5e−2"), which keeps the preconditioner effective for
//! vanishing β.
//!
//! Element width is a type parameter: `Lane<T>` holds one width's operators
//! and `∇m̄` and has the one application body. The f64 lane always exists,
//! the f32 lane only under `Precision::Mixed`.

use claire_diff::fd::FdScratch;
use claire_diff::{Spectral, SpectralT, TwoLevelT};
use claire_fft::{FftElem, SpectralVecT};
use claire_grid::{Grid, Real, ScalarField, VectorField, VectorFieldT, WsCat};
use claire_mpi::Comm;
use claire_opt::{pcg, PcgConfig, PcgOperator, PcgResult};
use claire_par::par_split;
use claire_par::timing::{self, Kernel};

use crate::config::{Precision, PrecondKind, RegistrationConfig};

/// The zero-velocity Hessian `H0 = βA + ∇m̄ ⊗ ∇m̄` on one grid, acting on
/// spectra: `βA` and the left preconditioner `(βA)⁻¹` are Hadamard scales
/// ("this adds vanishing computational costs"); only the rank-one-per-point
/// term visits real space, at 3 inverse and 3 forward transforms.
struct SpectralH0<'a, T: FftElem> {
    spectral: &'a SpectralT<T>,
    grad_mbar: &'a VectorFieldT<T>,
    beta: f64,
}

/// `p ← ∇m̄ (∇m̄ · p)` at every point, one pass over the six fields.
fn rank_one_in_place<T: FftElem>(grad_mbar: &VectorFieldT<T>, p: &mut VectorFieldT<T>) {
    assert_eq!(grad_mbar.layout(), p.layout(), "field layout mismatch");
    let n = p.layout().local_len();
    let [g1, g2, g3] = grad_mbar.c.each_ref().map(|c| c.data());
    timing::time(Kernel::FieldOps, || {
        let p = p.c.each_mut().map(|c| c.data_mut());
        par_split(n, n, p, |range, [o1, o2, o3]| {
            for (k, i) in range.enumerate() {
                let w = g1[i] * o1[k] + g2[i] * o2[k] + g3[i] * o3[k];
                o1[k] = g1[i] * w;
                o2[k] = g2[i] * w;
                o3[k] = g3[i] * w;
            }
        });
    });
}

impl<T: FftElem> PcgOperator<SpectralVecT<T>> for SpectralH0<'_, T> {
    fn apply(&mut self, p: &SpectralVecT<T>, comm: &mut Comm) -> SpectralVecT<T> {
        let mut w = self.spectral.field_of(p, comm);
        rank_one_in_place(self.grad_mbar, &mut w);
        let mut q = self.spectral.spectra_of(&w, comm);
        self.spectral.reg_add_spectra(&mut q, p, self.beta);
        q
    }

    fn prec(&mut self, r: &SpectralVecT<T>, _comm: &mut Comm) -> SpectralVecT<T> {
        self.spectral.reg_inv_spectra_of(r, self.beta)
    }
}

/// The inner solve of `InvH0`/`2LInvH0` on spectra: PCG on eq. (9),
/// `(βA + ∇m̄ ⊗ ∇m̄) x̂ = r̂`, left-preconditioned by `(βA)⁻¹` and started
/// from `x̂₀ = (βA)⁻¹ r̂`. `6 + 6k` scalar transforms on `spectral`'s grid for
/// `k` iterations. Collective.
pub fn solve_h0<T: FftElem>(
    spectral: &SpectralT<T>,
    grad_mbar: &VectorFieldT<T>,
    beta: f64,
    rhs: SpectralVecT<T>,
    cfg: &PcgConfig,
    comm: &mut Comm,
) -> (SpectralVecT<T>, PcgResult) {
    let mut ops = SpectralH0 { spectral, grad_mbar, beta };
    let x0 = ops.prec(&rhs, comm);
    pcg(rhs, Some(x0), cfg, &mut ops, comm)
}

/// `InvH0` on one grid, field to field: `r̂ = F r`, [`solve_h0`],
/// `s = F⁻¹ x̂` — `12 + 6k` scalar transforms. Collective.
pub fn inv_h0<T: FftElem>(
    spectral: &SpectralT<T>,
    grad_mbar: &VectorFieldT<T>,
    beta: f64,
    r: &VectorFieldT<T>,
    cfg: &PcgConfig,
    comm: &mut Comm,
) -> (VectorFieldT<T>, PcgResult) {
    let rhs = spectral.spectra_of(r, comm);
    let (x, res) = solve_h0(spectral, grad_mbar, beta, rhs, cfg, comm);
    (spectral.into_field(x, comm), res)
}

/// The image-independent operators of one element width on one grid.
struct WidthOps<T: FftElem> {
    /// Fine-grid spectral operators.
    spectral: SpectralT<T>,
    /// Grid transfers and coarse-grid spectral operators (2LInvH0 only).
    coarse: Option<(TwoLevelT<T>, SpectralT<T>)>,
}

impl<T: FftElem> WidthOps<T> {
    /// Plan the operators `kind` needs on `grid`. Collective.
    fn plan(kind: PrecondKind, grid: Grid, comm: &mut Comm) -> WidthOps<T> {
        let spectral = SpectralT::new(grid, comm);
        let coarse = (kind == PrecondKind::TwoLevelInvH0).then(|| {
            let tl = TwoLevelT::new(grid, comm);
            let sc = SpectralT::new(tl.coarse_grid(), comm);
            (tl, sc)
        });
        WidthOps { spectral, coarse }
    }
}

/// Inner (H0) PCG iteration cap.
const MAX_INNER_ITER: usize = 50;

/// Options of the H0 solve (9), fixed per problem.
struct H0Solve {
    eps_h0: f64,
    beta_floor: f64,
}

/// One element width of the preconditioner: the operators plus `∇m̄` at
/// that width.
struct Lane<T: FftElem> {
    ops: WidthOps<T>,
    /// `∇m̄` on the fine grid (m̄ = deformed template at current iterate).
    grad_mbar: VectorFieldT<T>,
    /// `∇m̄` restricted to the coarse grid (2LInvH0 only).
    grad_mbar_c: Option<VectorFieldT<T>>,
}

impl<T: FftElem> Lane<T> {
    /// Apply preconditioner `kind` to Krylov residual `r` at `beta` with
    /// outer tolerance `eps_k`. Returns the result and the inner PCG
    /// iterations spent. Collective.
    fn apply(
        &self,
        kind: PrecondKind,
        r: &VectorFieldT<T>,
        eps_k: f64,
        beta: f64,
        h0: &H0Solve,
        comm: &mut Comm,
    ) -> (VectorFieldT<T>, usize) {
        let spectral = &self.ops.spectral;
        let beta_h0 = beta.max(h0.beta_floor);
        let inner = PcgConfig {
            tol_rel: (h0.eps_h0 * eps_k).min(0.5),
            max_iter: MAX_INNER_ITER,
            trace: false,
        };
        match kind {
            PrecondKind::InvA => (spectral.reg_inv(r, beta, comm), 0),
            PrecondKind::InvH0 => {
                let (s, res) = inv_h0(spectral, &self.grad_mbar, beta_h0, r, &inner, comm);
                (s, res.iters)
            }
            PrecondKind::TwoLevelInvH0 => {
                let (tl, sc_ops) = self.ops.coarse.as_ref().expect("2LInvH0 operators missing");
                let gc = self.grad_mbar_c.as_ref().expect("coarse ∇m̄ missing");

                // r̂, its restriction, then ŝf ← (βA)⁻¹ r̂ in place; the
                // restricted ŝf the coarse solve starts from is (βA)⁻¹ of
                // the restricted r̂, because the symbol only reads |k|²
                let mut sf = spectral.spectra_of(r, comm);
                let rc = SpectralVecT { c: tl.truncate(&sf.c, comm) };
                spectral.reg_inv_spectra(&mut sf, beta_h0);
                // coarse solve of (9)
                let (sc, res) = solve_h0(sc_ops, gc, beta_h0, rc, &inner, comm);
                // ŝf ← PROLONG(ŝc) + HIGHPASS(ŝf)
                tl.merge_low(&sc.c, &mut sf.c, comm);
                (spectral.into_field(sf, comm), res.iters)
            }
        }
    }
}

/// Preconditioner state and application counters (Table 6 columns).
pub struct PrecondState {
    /// Configured kind for β ≤ 5e−1.
    pub kind: PrecondKind,
    h0: H0Solve,
    lane: Lane<Real>,
    /// The f32 lane of the mixed-precision inner solve; its `∇m̄` is the
    /// f64 one demoted on every [`PrecondState::refresh`].
    lane32: Option<Lane<f32>>,
    /// Applications of InvA (`[A]` column; includes continuation levels
    /// with β > 5e−1).
    pub n_inva: usize,
    /// Applications of InvH0 / 2LInvH0 (`[B|C]` column).
    pub n_invh0: usize,
    /// Total inner PCG iterations spent inverting H0.
    pub inner_iters: usize,
}

impl PrecondState {
    /// Plan the operators `cfg` needs on the grid of `m0` — at f64 and,
    /// under [`Precision::Mixed`], at f32 as well — and seed `m̄` with `m0`
    /// before the first Gauss–Newton iteration. Collective.
    pub(crate) fn new(cfg: &RegistrationConfig, m0: &ScalarField, comm: &mut Comm) -> PrecondState {
        let grid = m0.layout().grid;
        let ops = WidthOps::plan(cfg.precond, grid, comm);
        let ops32 =
            (cfg.precision == Precision::Mixed).then(|| WidthOps::plan(cfg.precond, grid, comm));
        let grad_mbar = claire_diff::fd::gradient(m0, comm);
        let grad_mbar_c = ops.coarse.as_ref().map(|(tl, _)| tl.restrict_vector(&grad_mbar, comm));
        let lane32 = ops32.map(|ops| Lane {
            ops,
            grad_mbar: grad_mbar.converted(WsCat::GnCg),
            grad_mbar_c: grad_mbar_c.as_ref().map(|g| g.converted(WsCat::GnCg)),
        });
        PrecondState {
            kind: cfg.precond,
            h0: H0Solve { eps_h0: cfg.eps_h0, beta_floor: cfg.beta_floor },
            lane: Lane { ops, grad_mbar, grad_mbar_c },
            lane32,
            n_inva: 0,
            n_invh0: 0,
            inner_iters: 0,
        }
    }

    /// Refresh `m̄` with the current deformed template (paper: "we replace
    /// m0 in (9) with the deformed template image obtained for the current
    /// iterate"). Collective.
    pub fn refresh(&mut self, mbar: &ScalarField, comm: &mut Comm) {
        if self.kind == PrecondKind::InvA {
            return; // InvA never uses m̄
        }
        let lane = &mut self.lane;
        claire_diff::fd::gradient_into(mbar, comm, &mut lane.grad_mbar, &mut FdScratch::new());
        if let Some((tl, _)) = &lane.ops.coarse {
            lane.grad_mbar_c = Some(tl.restrict_vector(&lane.grad_mbar, comm));
        }
        // keep the f32 lane in lockstep: demote in place (pooled, no
        // steady-state allocation)
        if let Some(l32) = &mut self.lane32 {
            l32.grad_mbar.convert_from(&lane.grad_mbar);
            if let (Some(gc32), Some(gc)) = (&mut l32.grad_mbar_c, &lane.grad_mbar_c) {
                gc32.convert_from(gc);
            }
        }
    }

    /// Effective kind at the current β: the continuation always uses InvA
    /// while the problem is regularization-dominated (β > 5e−1).
    pub fn effective_kind(&self, beta: f64) -> PrecondKind {
        if beta > 5e-1 {
            PrecondKind::InvA
        } else {
            self.kind
        }
    }

    /// Average inner PCG iterations per InvH0 application.
    pub fn inner_avg(&self) -> f64 {
        if self.n_invh0 == 0 {
            0.0
        } else {
            self.inner_iters as f64 / self.n_invh0 as f64
        }
    }

    /// The fine-grid spectral operators at f64.
    pub(crate) fn spectral(&self) -> &Spectral {
        &self.lane.ops.spectral
    }

    /// Book one application of `kind` that spent `iters` inner iterations.
    fn tally(&mut self, kind: PrecondKind, iters: usize) {
        if kind == PrecondKind::InvA {
            self.n_inva += 1;
        } else {
            self.n_invh0 += 1;
        }
        self.inner_iters += iters;
    }

    /// Apply the preconditioner to Krylov residual `r` at the current β
    /// with outer tolerance `eps_k`. Collective.
    pub fn apply(
        &mut self,
        r: &VectorField,
        eps_k: f64,
        beta: f64,
        comm: &mut Comm,
    ) -> VectorField {
        let kind = self.effective_kind(beta);
        let (s, iters) = self.lane.apply(kind, r, eps_k, beta, &self.h0, comm);
        self.tally(kind, iters);
        s
    }

    /// [`PrecondState::apply`] for the mixed-precision inner solve: on the
    /// f32 lane the spectral work, the inner H0 PCG, and (for 2LInvH0) the
    /// grid-transfer collectives all run on f32 fields, halving their
    /// memory and wire traffic. A problem not configured `Mixed` has no f32
    /// lane and promotes, applies at f64, and demotes. Collective.
    pub fn apply32(
        &mut self,
        r: &VectorFieldT<f32>,
        eps_k: f64,
        beta: f64,
        comm: &mut Comm,
    ) -> VectorFieldT<f32> {
        let Some(lane) = &self.lane32 else {
            let r64: VectorField = r.converted(WsCat::GnCg);
            return self.apply(&r64, eps_k, beta, comm).converted(WsCat::GnCg);
        };
        let kind = self.effective_kind(beta);
        let (s, iters) = lane.apply(kind, r, eps_k, beta, &self.h0, comm);
        self.tally(kind, iters);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Layout, ScalarFieldT};
    use claire_mpi::{run_cluster, Topology};

    fn setup(kind: PrecondKind, precision: Precision, comm: &mut Comm) -> (PrecondState, Layout) {
        setup_on(Grid::cube(16), kind, precision, comm)
    }

    fn setup_on(
        grid: Grid,
        kind: PrecondKind,
        precision: Precision,
        comm: &mut Comm,
    ) -> (PrecondState, Layout) {
        let layout = Layout::distributed(grid, comm);
        let m0 = ScalarField::from_fn(layout, |x, y, z| {
            (-((x - 3.0).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2))).exp()
        });
        let cfg = RegistrationConfig { precond: kind, precision, ..Default::default() };
        (PrecondState::new(&cfg, &m0, comm), layout)
    }

    fn probe(layout: Layout) -> VectorField {
        VectorField::from_fns(
            layout,
            |x, _, _| x.sin(),
            |_, y, _| (2.0 * y).cos(),
            |_, _, z| 0.3 * z.sin(),
        )
    }

    /// The real-space H0 the preconditioners iterated on before the inner
    /// solve moved to spectra, every operator between its own forward and
    /// inverse transform. Kept only as the reference of
    /// `spectral_solve_matches_the_real_space_one`.
    struct RefH0<'a, T: FftElem> {
        spectral: &'a SpectralT<T>,
        grad_mbar: &'a VectorFieldT<T>,
        beta: f64,
    }

    impl<T: FftElem> PcgOperator<VectorFieldT<T>> for RefH0<'_, T> {
        fn apply(&mut self, s: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
            let mut out = self.spectral.reg_apply(s, self.beta, comm);
            let mut w = ScalarFieldT::<T>::zeros(*s.layout());
            let add_product = |acc: &mut [T], x: &[T], y: &[T]| {
                for ((a, &x), &y) in acc.iter_mut().zip(x).zip(y) {
                    *a += x * y;
                }
            };
            for d in 0..3 {
                add_product(w.data_mut(), self.grad_mbar.c[d].data(), s.c[d].data());
            }
            for d in 0..3 {
                add_product(out.c[d].data_mut(), self.grad_mbar.c[d].data(), w.data());
            }
            out
        }

        fn prec(&mut self, r: &VectorFieldT<T>, comm: &mut Comm) -> VectorFieldT<T> {
            self.spectral.reg_inv(r, self.beta, comm)
        }
    }

    /// `Lane::apply` as it was: the old real-space loop around the public
    /// field-level operators (`HIGHPASS(s) = s − PROLONG(RESTRICT(s))`).
    fn ref_apply<T: FftElem>(
        lane: &Lane<T>,
        kind: PrecondKind,
        r: &VectorFieldT<T>,
        inner: &PcgConfig,
        beta_h0: f64,
        comm: &mut Comm,
    ) -> (VectorFieldT<T>, usize) {
        let spectral = &lane.ops.spectral;
        let sf = spectral.reg_inv(r, beta_h0, comm);
        if kind == PrecondKind::InvH0 {
            let mut ops = RefH0 { spectral, grad_mbar: &lane.grad_mbar, beta: beta_h0 };
            let (s, res) = pcg(r.clone(), Some(sf), inner, &mut ops, comm);
            return (s, res.iters);
        }
        let (tl, sc_ops) = lane.ops.coarse.as_ref().unwrap();
        let gc = lane.grad_mbar_c.as_ref().unwrap();
        let rc = tl.restrict_vector(r, comm);
        let x0c = tl.restrict_vector(&sf, comm);
        let mut ops = RefH0 { spectral: sc_ops, grad_mbar: gc, beta: beta_h0 };
        let (sc, res) = pcg(rc, Some(x0c.clone()), inner, &mut ops, comm);
        let mut out = tl.prolong_vector(&sc, comm);
        out.axpy(T::ONE, &sf);
        out.axpy(-T::ONE, &tl.prolong_vector(&x0c, comm));
        (out, res.iters)
    }

    #[test]
    fn spectral_solve_matches_the_real_space_one() {
        // anisotropic, not a power of two, coarsens to 10×8×6; 4 ranks move
        // low modes between ranks, 1 and 2 keep them local
        let grid = Grid::new([20, 16, 12]);
        for p in [1usize, 2, 4] {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let mut worst = (0.0f64, true);
                for kind in [PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
                    let (mut pc, layout) = setup_on(grid, kind, Precision::F64, comm);
                    let r = probe(layout);
                    let (eps_k, beta) = (0.1, 0.02f64);
                    let beta_h0 = beta.max(pc.h0.beta_floor);
                    let inner = PcgConfig {
                        tol_rel: pc.h0.eps_h0 * eps_k,
                        max_iter: MAX_INNER_ITER,
                        trace: false,
                    };
                    let (want, iters) = ref_apply(&pc.lane, kind, &r, &inner, beta_h0, comm);
                    let got = pc.apply(&r, eps_k, beta, comm);
                    let mut d = got.clone();
                    d.axpy(-1.0, &want);
                    let rel = d.norm_l2(comm) / want.norm_l2(comm);
                    worst = (worst.0.max(rel), worst.1 && iters > 0 && pc.inner_iters == iters);
                }
                worst
            });
            for (rel, same_iters) in res.outputs {
                assert!(rel < 1e-10, "p = {p}: spectral-resident solve drifted: rel {rel:e}");
                assert!(same_iters, "p = {p}: inner iteration count moved");
            }
        }
    }

    #[test]
    fn inva_is_exact_inverse_of_reg() {
        let mut comm = Comm::solo();
        let (mut pc, layout) = setup(PrecondKind::InvA, Precision::F64, &mut comm);
        let beta = 0.1;
        let v = probe(layout);
        let av = pc.lane.ops.spectral.reg_apply(&v, beta, &mut comm);
        let back = pc.apply(&av, 0.5, beta, &mut comm);
        let mut d = back.clone();
        d.axpy(-1.0, &v);
        assert!(d.norm_l2(&mut comm) < 1e-8);
        assert_eq!(pc.n_inva, 1);
    }

    #[test]
    fn invh0_approximately_inverts_h0() {
        let mut comm = Comm::solo();
        let (mut pc, layout) = setup(PrecondKind::InvH0, Precision::F64, &mut comm);
        let beta = 0.1;
        let v = probe(layout);
        // r = H0 v
        let mut ops =
            RefH0 { spectral: &pc.lane.ops.spectral, grad_mbar: &pc.lane.grad_mbar, beta };
        let r = ops.apply(&v, &mut comm);
        let s = pc.apply(&r, 1e-3, beta, &mut comm);
        let mut d = s.clone();
        d.axpy(-1.0, &v);
        let rel = d.norm_l2(&mut comm) / v.norm_l2(&mut comm);
        assert!(rel < 1e-3, "InvH0 should invert H0 accurately: rel {rel}");
        assert!(pc.inner_iters > 0);
        assert_eq!(pc.n_invh0, 1);
    }

    #[test]
    fn beta_floor_respected() {
        // With β far below the floor, InvH0 must still act like a bounded
        // operator (the floored system), not blow up.
        let mut comm = Comm::solo();
        let (mut pc, layout) = setup(PrecondKind::InvH0, Precision::F64, &mut comm);
        let beta = 1e-5; // << 5e-2 floor
        let r = probe(layout);
        let s = pc.apply(&r, 0.1, beta, &mut comm);
        let amp = s.norm_l2(&mut comm) / r.norm_l2(&mut comm);
        // (β_floor·A)⁻¹ caps amplification at 1/(β_floor·(1+0)) = 20
        assert!(amp < 25.0, "amplification {amp} suggests the floor was ignored");
    }

    #[test]
    fn two_level_matches_fine_on_smooth_residuals() {
        let mut comm = Comm::solo();
        let (mut pc2, layout) = setup(PrecondKind::TwoLevelInvH0, Precision::F64, &mut comm);
        let (mut pc1, _) = setup(PrecondKind::InvH0, Precision::F64, &mut comm);
        let beta = 0.1;
        // a residual with only low-frequency content
        let r = VectorField::from_fns(
            layout,
            |x, _, _| x.sin(),
            |_, y, _| y.cos(),
            |_, _, z| (2.0 * z).sin(),
        );
        let s1 = pc1.apply(&r, 1e-4, beta, &mut comm);
        let s2 = pc2.apply(&r, 1e-4, beta, &mut comm);
        let mut d = s1.clone();
        d.axpy(-1.0, &s2);
        let rel = d.norm_l2(&mut comm) / s1.norm_l2(&mut comm);
        assert!(rel < 0.1, "2LInvH0 should agree with InvH0 on smooth data: rel {rel}");
    }

    #[test]
    fn continuation_switch_to_inva_for_large_beta() {
        let mut comm = Comm::solo();
        let (mut pc, layout) = setup(PrecondKind::TwoLevelInvH0, Precision::F64, &mut comm);
        assert_eq!(pc.effective_kind(1.0), PrecondKind::InvA);
        assert_eq!(pc.effective_kind(0.1), PrecondKind::TwoLevelInvH0);
        let r = probe(layout);
        let _ = pc.apply(&r, 0.5, 1.0, &mut comm);
        assert_eq!((pc.n_inva, pc.n_invh0), (1, 0));
        let _ = pc.apply(&r, 0.5, 0.1, &mut comm);
        assert_eq!((pc.n_inva, pc.n_invh0), (1, 1));
    }

    #[test]
    fn f32_lane_tracks_f64_lane() {
        // both widths run the one `Lane::apply` body; the f32 result may
        // differ by single-precision round-off and the inner solve's
        // truncation (εH0·εK = 1e-4 here), well inside 1e-3 relative
        let mut comm = Comm::solo();
        for kind in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
            let (mut pc, layout) = setup(kind, Precision::Mixed, &mut comm);
            let r = probe(layout);
            let s64 = pc.apply(&r, 0.1, 0.1, &mut comm);
            let r32: VectorFieldT<f32> = r.converted(WsCat::GnCg);
            let s32 = pc.apply32(&r32, 0.1, 0.1, &mut comm);
            let mut d: VectorField = s32.converted(WsCat::GnCg);
            d.axpy(-1.0, &s64);
            let rel = d.norm_l2(&mut comm) / s64.norm_l2(&mut comm);
            assert!(rel < 1e-3, "{kind:?}: f32 lane drifted from f64: rel {rel}");
            assert_eq!(pc.n_inva + pc.n_invh0, 2, "{kind:?}: both widths count");

            // without an f32 lane, `apply32` is the f64 application demoted
            let (mut pc64, _) = setup(kind, Precision::F64, &mut comm);
            let r64: VectorField = r32.converted(WsCat::GnCg);
            let want: VectorFieldT<f32> =
                pc64.apply(&r64, 0.1, 0.1, &mut comm).converted(WsCat::GnCg);
            let got = pc64.apply32(&r32, 0.1, 0.1, &mut comm);
            let same = (0..3).all(|d| got.c[d].data() == want.c[d].data());
            assert!(same, "{kind:?}: F64 fallback is not promote-apply-demote");
            assert_eq!(pc64.n_inva + pc64.n_invh0, 2, "{kind:?}: the fallback counts once");
        }
    }
}
