//! Registration configuration and its validating builder.

use claire_grid::{ClaireError, ClaireResult, Grid};
use serde::{DeError, Deserialize, Serialize, Value};

/// Hessian preconditioner selection (paper §2, Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondKind {
    /// Spectral inverse of the regularization operator, `(βA)⁻¹` — the
    /// benchmark used in prior CLAIRE versions (`[A]` in Table 6).
    InvA,
    /// Zero-velocity Hessian approximation solved iteratively (`[B]`).
    InvH0,
    /// Two-level (half-resolution) variant of InvH0 (`[C]`) — the paper's
    /// most effective choice.
    TwoLevelInvH0,
}

impl PrecondKind {
    /// Table 6 label.
    pub fn label(self) -> &'static str {
        match self {
            PrecondKind::InvA => "InvA",
            PrecondKind::InvH0 => "InvH0",
            PrecondKind::TwoLevelInvH0 => "2LInvH0",
        }
    }

    /// Inverse of [`PrecondKind::label`].
    pub fn parse(s: &str) -> Option<PrecondKind> {
        [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

/// Interpolation order re-export for configuration ergonomics.
pub use claire_interp::IpOrder;

/// Solver arithmetic width (the mixed-precision seam, CLAIRE's GPU-era
/// optimization): `F64` runs everything in double precision; `Mixed` keeps
/// the outer Gauss–Newton iterate, gradient, objective, and reported
/// mismatch in f64 but demotes the inner Krylov solve — PCG vectors,
/// spectral preconditioner, FFTs, and their collective payloads — to f32,
/// halving the memory traffic and wire bytes of the solver's dominant
/// phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Full double precision: every lane at f64, the same generic code the
    /// f32 lanes run (deterministic run to run; no historical bit pin).
    F64,
    /// f32 inner Krylov/FFT path under the f64 outer Gauss–Newton loop.
    Mixed,
}

impl Precision {
    /// Stable report label (`f64` / `mixed`) — the `"precision"` key of the
    /// RunReport schema.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::Mixed => "mixed",
        }
    }

    /// Inverse of [`Precision::label`].
    pub fn parse(s: &str) -> Option<Precision> {
        [Precision::F64, Precision::Mixed].into_iter().find(|p| p.label() == s)
    }
}

/// First β of the continuation: the schedule starts at `max(1, β_target)`.
const BETA_INIT: f64 = 1.0;

/// Factor by which each continuation level reduces β.
const BETA_REDUCTION: f64 = 0.1;

/// Full registration configuration (paper defaults). [`ConfigField`] is the
/// table every front end reads it through; a new field gets a row there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegistrationConfig {
    /// Semi-Lagrangian time steps `Nt` (paper: 4 at 256³, 8 at 512³, 16 at
    /// 1024³).
    pub nt: usize,
    /// Interpolation kernel (paper's production runs use linear).
    pub ip_order: IpOrder,
    /// Store `∇m` time series (≈15% faster Hessian matvecs, higher memory).
    pub store_grad: bool,
    /// Preconditioner used for β ≤ 5e−1 (InvA is always used above).
    pub precond: PrecondKind,
    /// Target regularization parameter of the continuation (paper: 5e−4).
    pub beta_target: f64,
    /// Run the continuation at all (false = solve at `beta_target` only).
    pub continuation: bool,
    /// Inner tolerance scale `εH0` (paper: 1e−3 NIREP, 1e−2 CLARITY).
    pub eps_h0: f64,
    /// Lower bound for β inside H0 (paper: 5e−2).
    pub beta_floor: f64,
    /// Relative gradient tolerance `εN` per continuation level.
    pub grad_rtol: f64,
    /// Gauss–Newton iteration cap per continuation level.
    pub max_gn_iter: usize,
    /// PCG iteration cap per Newton step.
    pub max_pcg_iter: usize,
    /// Fixed PCG iterations (Table 7 scaling mode), disables the forcing
    /// sequence when set.
    pub fixed_pcg: Option<usize>,
    /// Arithmetic width of the inner Krylov/FFT path (default `F64`).
    pub precision: Precision,
    /// Print progress on rank 0.
    pub verbose: bool,
}

/// One row of the [`RegistrationConfig`] field table: how a field is spelled
/// in a job manifest and on the command line, and how it is read and
/// written as a JSON value. The manifest parser, every `claire-cli` mode
/// that takes solver flags and the launcher's worker command line iterate
/// [`ConfigField::all`]; none of them names a field.
pub struct ConfigField {
    /// Manifest key: the struct field's name.
    pub key: &'static str,
    /// Short manifest spelling accepted next to `key`.
    pub alias: Option<&'static str>,
    /// `claire-cli` flag. A bool field is a switch (`--flag` / `--no-flag`);
    /// every other flag takes one value.
    pub flag: &'static str,
    /// The field as a JSON value (enums by label).
    pub get: fn(&RegistrationConfig) -> Value,
    /// Overwrite the field from a JSON value; touches nothing else.
    pub set: fn(&mut RegistrationConfig, &Value) -> Result<(), DeError>,
}

macro_rules! row {
    ($field:ident, $flag:literal) => {
        row!($field, $flag, None)
    };
    ($field:ident, $flag:literal, $alias:expr) => {
        ConfigField {
            key: stringify!($field),
            alias: $alias,
            flag: $flag,
            get: |c| c.$field.to_value(),
            set: |c, v| Deserialize::from_value(v).map(|x| c.$field = x),
        }
    };
}

/// Rows in struct order.
static FIELDS: [ConfigField; 14] = [
    row!(nt, "--nt"),
    // `IpOrder` lives in claire-interp, which knows nothing of serde
    ConfigField {
        key: "ip_order",
        alias: None,
        flag: "--order",
        get: |c| Value::Str(c.ip_order.label().to_string()),
        set: |c, v| {
            let s = String::from_value(v)?;
            let order = IpOrder::parse(&s);
            order
                .map(|o| c.ip_order = o)
                .ok_or_else(|| DeError::new(format!("unknown IpOrder `{s}`")))
        },
    },
    row!(store_grad, "--store-grad"),
    row!(precond, "--precond"),
    row!(beta_target, "--beta", Some("beta")),
    row!(continuation, "--continuation"),
    row!(eps_h0, "--eps-h0"),
    row!(beta_floor, "--beta-floor"),
    row!(grad_rtol, "--grad-rtol"),
    row!(max_gn_iter, "--max-gn"),
    row!(max_pcg_iter, "--max-pcg"),
    row!(fixed_pcg, "--fixed-pcg"),
    row!(precision, "--precision"),
    row!(verbose, "--verbose"),
];

impl ConfigField {
    /// Every field of [`RegistrationConfig`], in struct order.
    pub fn all() -> &'static [ConfigField] {
        &FIELDS
    }
}

impl Default for RegistrationConfig {
    fn default() -> Self {
        Self {
            nt: 4,
            ip_order: IpOrder::Linear,
            store_grad: false,
            precond: PrecondKind::TwoLevelInvH0,
            beta_target: 5e-4,
            continuation: true,
            eps_h0: 1e-3,
            beta_floor: 5e-2,
            grad_rtol: 5e-2,
            max_gn_iter: 25,
            max_pcg_iter: 100,
            fixed_pcg: None,
            precision: Precision::F64,
            verbose: false,
        }
    }
}

impl RegistrationConfig {
    /// Start a validating builder seeded with the paper defaults.
    ///
    /// ```
    /// use claire_core::RegistrationConfig;
    /// let cfg = RegistrationConfig::builder().nt(4).beta(1e-2).build().unwrap();
    /// assert_eq!(cfg.nt, 4);
    /// assert_eq!(cfg.beta_target, 1e-2);
    /// ```
    pub fn builder() -> RegistrationConfigBuilder {
        RegistrationConfigBuilder { cfg: RegistrationConfig::default() }
    }

    /// Overwrite the field that `key` names — a manifest key or its alias
    /// from the [`ConfigField`] table — from a JSON value. An unknown key and
    /// a value of the wrong type are errors naming the key.
    pub fn set_key(&mut self, key: &str, value: &Value) -> Result<(), DeError> {
        let field = FIELDS.iter().find(|f| f.key == key || f.alias == Some(key));
        let field = field.ok_or_else(|| DeError::new(format!("unknown key `{key}`")))?;
        (field.set)(self, value).map_err(|e| e.at(key))
    }

    /// Check invariants the solver assumes; [`RegistrationConfigBuilder::build`]
    /// calls this, and hand-assembled configs can call it directly.
    pub fn validate(&self) -> ClaireResult<()> {
        fn bad(param: &'static str, message: String) -> ClaireError {
            ClaireError::Config { param, message }
        }
        if self.nt < 1 {
            return Err(bad("nt", format!("need at least 1 time step, got {}", self.nt)));
        }
        if self.ip_order.needs_prefilter() {
            // the transport never applies `Spectral::bspline_prefilter`, so
            // the B-spline basis would smooth the image at every time step
            // (the paper keeps GPU-TXTSPL out of the distributed solver too)
            return Err(bad(
                "ip_order",
                format!("{} needs a prefilter the solver does not run", self.ip_order.label()),
            ));
        }
        if !(self.beta_target > 0.0 && self.beta_target.is_finite()) {
            return Err(bad(
                "beta_target",
                format!("must be positive and finite, got {}", self.beta_target),
            ));
        }
        if !(self.eps_h0 > 0.0 && self.eps_h0 <= 1.0) {
            return Err(bad("eps_h0", format!("must lie in (0, 1], got {}", self.eps_h0)));
        }
        if !(self.beta_floor > 0.0 && self.beta_floor.is_finite()) {
            return Err(bad(
                "beta_floor",
                format!("must be positive and finite, got {}", self.beta_floor),
            ));
        }
        if !(self.grad_rtol > 0.0 && self.grad_rtol.is_finite()) {
            return Err(bad(
                "grad_rtol",
                format!("must be positive and finite, got {}", self.grad_rtol),
            ));
        }
        if self.max_gn_iter < 1 || self.max_pcg_iter < 1 {
            return Err(bad(
                "max_gn_iter",
                format!(
                    "iteration caps must be >= 1, got gn={} pcg={}",
                    self.max_gn_iter, self.max_pcg_iter
                ),
            ));
        }
        if let Some(fixed) = self.fixed_pcg {
            if fixed < 1 {
                return Err(bad("fixed_pcg", format!("must be >= 1 when set, got {fixed}")));
            }
        }
        Ok(())
    }

    /// Check that the solver can run on `grid` over `nranks` ranks, so a
    /// misconfigured problem fails with a typed error before any work
    /// instead of a panic deep inside the FFT plan cache (the real
    /// transform needs an even `n3`), the ghost exchange (the 8th-order
    /// stencil needs a width-4 halo to fit in `n1`) or — for `2LInvH0` —
    /// the planning of its half-resolution grid. [`crate::RegProblem::new`]
    /// calls it, and so does `claire-cli launch` before it spawns a rank.
    pub fn validate_grid(&self, grid: Grid, nranks: usize) -> ClaireResult<()> {
        let [n1, n2, n3] = grid.n;
        if n3 < 2 || !n3.is_multiple_of(2) {
            return Err(ClaireError::Config {
                param: "grid",
                message: format!(
                    "innermost dimension n3 must be even and >= 2 for the real FFT, got {n3} \
                     (grid {n1}x{n2}x{n3})"
                ),
            });
        }
        if n1 < claire_diff::fd::FD8_WIDTH {
            return Err(ClaireError::Config {
                param: "grid",
                message: format!(
                    "n1 must be >= {} for the 8th-order stencil halo, got {n1} (grid {n1}x{n2}x{n3})",
                    claire_diff::fd::FD8_WIDTH
                ),
            });
        }
        let halves = grid.n.iter().all(|&n| n >= 4 && n.is_multiple_of(2));
        if self.precond == PrecondKind::TwoLevelInvH0
            && !(halves && n3.is_multiple_of(4) && nranks <= n1.min(n2) / 2)
        {
            return Err(ClaireError::Config {
                param: "grid",
                message: format!(
                    "2LInvH0 coarsens to a half-resolution grid that must take the real FFT and a \
                     slab per rank: every dimension even and >= 4, n3 % 4 == 0, and \
                     p <= min(n1, n2)/2; got grid {n1}x{n2}x{n3} on p = {nranks}"
                ),
            });
        }
        Ok(())
    }

    /// The first β a problem is set up at: the continuation's start, or
    /// the target when that lies above it.
    pub fn beta_start(&self) -> f64 {
        BETA_INIT.max(self.beta_target)
    }

    /// The β-continuation schedule: [`Self::beta_start`], reduced tenfold
    /// per level, ending exactly at `beta_target`.
    pub fn beta_schedule(&self) -> Vec<f64> {
        if !self.continuation {
            return vec![self.beta_target];
        }
        let mut betas = Vec::new();
        let mut b = self.beta_start();
        while b > self.beta_target * 1.0000001 {
            betas.push(b);
            b *= BETA_REDUCTION;
        }
        betas.push(self.beta_target);
        betas
    }
}

/// Fluent, validating constructor for [`RegistrationConfig`].
///
/// Every setter overrides one field of the paper-default configuration;
/// [`RegistrationConfigBuilder::build`] runs [`RegistrationConfig::validate`]
/// so impossible configurations are rejected with a typed
/// [`ClaireError::Config`] instead of a mid-solve panic.
#[derive(Clone, Debug)]
pub struct RegistrationConfigBuilder {
    cfg: RegistrationConfig,
}

impl RegistrationConfigBuilder {
    /// Semi-Lagrangian time steps.
    pub fn nt(mut self, nt: usize) -> Self {
        self.cfg.nt = nt;
        self
    }

    /// Target regularization weight.
    pub fn beta(mut self, beta_target: f64) -> Self {
        self.cfg.beta_target = beta_target;
        self
    }

    /// Run the β-continuation (true by default).
    pub fn continuation(mut self, on: bool) -> Self {
        self.cfg.continuation = on;
        self
    }

    /// Hessian preconditioner.
    pub fn precond(mut self, pc: PrecondKind) -> Self {
        self.cfg.precond = pc;
        self
    }

    /// Interpolation kernel order.
    pub fn ip_order(mut self, order: IpOrder) -> Self {
        self.cfg.ip_order = order;
        self
    }

    /// Store `∇m` time series.
    pub fn store_grad(mut self, on: bool) -> Self {
        self.cfg.store_grad = on;
        self
    }

    /// Inner tolerance scale `εH0`.
    pub fn eps_h0(mut self, eps: f64) -> Self {
        self.cfg.eps_h0 = eps;
        self
    }

    /// Lower bound for β inside H0.
    pub fn beta_floor(mut self, floor: f64) -> Self {
        self.cfg.beta_floor = floor;
        self
    }

    /// Relative gradient tolerance `εN`.
    pub fn grad_rtol(mut self, tol: f64) -> Self {
        self.cfg.grad_rtol = tol;
        self
    }

    /// Gauss–Newton iteration cap per continuation level.
    pub fn max_gn_iter(mut self, cap: usize) -> Self {
        self.cfg.max_gn_iter = cap;
        self
    }

    /// PCG iteration cap per Newton step.
    pub fn max_pcg_iter(mut self, cap: usize) -> Self {
        self.cfg.max_pcg_iter = cap;
        self
    }

    /// Fix the PCG iteration count (scaling-study mode).
    pub fn fixed_pcg(mut self, iters: Option<usize>) -> Self {
        self.cfg.fixed_pcg = iters;
        self
    }

    /// Inner Krylov/FFT arithmetic width.
    pub fn precision(mut self, p: Precision) -> Self {
        self.cfg.precision = p;
        self
    }

    /// Print progress on rank 0.
    pub fn verbose(mut self, on: bool) -> Self {
        self.cfg.verbose = on;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> ClaireResult<RegistrationConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_schedule_hits_target() {
        let cfg = RegistrationConfig::default();
        let s = cfg.beta_schedule();
        assert_eq!(s.first().copied(), Some(1.0));
        assert_eq!(s.last().copied(), Some(5e-4));
        for w in s.windows(2) {
            assert!(w[1] < w[0], "schedule must decrease: {s:?}");
        }
    }

    #[test]
    fn no_continuation_is_single_level() {
        let cfg = RegistrationConfig { continuation: false, ..Default::default() };
        assert_eq!(cfg.beta_schedule(), vec![5e-4]);
    }

    #[test]
    fn labels() {
        assert_eq!(PrecondKind::InvA.label(), "InvA");
        assert_eq!(PrecondKind::TwoLevelInvH0.label(), "2LInvH0");
        assert_eq!(Precision::F64.label(), "f64");
        assert_eq!(Precision::Mixed.label(), "mixed");
        assert_eq!(PrecondKind::parse("2LInvH0"), Some(PrecondKind::TwoLevelInvH0));
        assert_eq!(Precision::parse("mixed"), Some(Precision::Mixed));
        assert_eq!((PrecondKind::parse("invA"), Precision::parse("f32")), (None, None));
    }

    #[test]
    fn builder_sets_precision() {
        let cfg = RegistrationConfig::builder().precision(Precision::Mixed).build().unwrap();
        assert_eq!(cfg.precision, Precision::Mixed);
        let cfg = RegistrationConfig::builder().precision(Precision::F64).build().unwrap();
        assert_eq!(cfg.precision, Precision::F64);
    }

    #[test]
    fn builder_applies_fields_and_validates() {
        let cfg = RegistrationConfig::builder()
            .nt(8)
            .beta(1e-2)
            .precond(PrecondKind::InvA)
            .max_gn_iter(5)
            .build()
            .unwrap();
        assert_eq!(cfg.nt, 8);
        assert_eq!(cfg.beta_target, 1e-2);
        assert_eq!(cfg.precond, PrecondKind::InvA);
        assert_eq!(cfg.max_gn_iter, 5);
        // untouched fields keep paper defaults
        assert_eq!(cfg.max_pcg_iter, RegistrationConfig::default().max_pcg_iter);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(RegistrationConfig::builder().nt(0).build().is_err());
        assert!(RegistrationConfig::builder().beta(-1.0).build().is_err());
        assert!(RegistrationConfig::builder().eps_h0(0.0).build().is_err());
        assert!(RegistrationConfig::builder().grad_rtol(0.0).build().is_err());
        assert!(RegistrationConfig::builder().fixed_pcg(Some(0)).build().is_err());
        let err = RegistrationConfig::builder().nt(0).build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nt"), "error should name the parameter: {msg}");
    }

    #[test]
    fn builder_rejects_non_finite_fields() {
        // each of these previously slipped through: NaN fails every ordering
        // comparison, ∞ fails none
        let inf_target = RegistrationConfig::builder().beta(f64::INFINITY).build();
        assert!(inf_target.is_err(), "infinite beta_target would hang beta_schedule()");
        let nan_target = RegistrationConfig::builder().beta(f64::NAN).build();
        assert!(nan_target.unwrap_err().to_string().contains("beta_target"));

        let inf_rtol = RegistrationConfig::builder().grad_rtol(f64::INFINITY).build();
        assert!(inf_rtol.is_err(), "infinite grad_rtol must be rejected");
        assert!(RegistrationConfig::builder().grad_rtol(f64::NAN).build().is_err());

        let inf_floor = RegistrationConfig::builder().beta_floor(f64::INFINITY).build();
        assert!(inf_floor.is_err(), "infinite beta_floor must be rejected");
        assert!(RegistrationConfig::builder().beta_floor(f64::NAN).build().is_err());

        // schedule stays well-defined for everything that validates
        let ok = RegistrationConfig::builder().beta(f64::MIN_POSITIVE).build().unwrap();
        assert!(ok.beta_schedule().len() < 400);
    }

    /// A field added to the struct stops this from compiling until it is
    /// listed here, and then from passing until it has a [`ConfigField`] row.
    #[test]
    fn every_field_has_a_table_row_in_struct_order() {
        macro_rules! names {
            ($($field:ident),*) => {{
                let RegistrationConfig { $($field: _),* } = RegistrationConfig::default();
                vec![$(stringify!($field)),*]
            }};
        }
        let names = names!(
            nt,
            ip_order,
            store_grad,
            precond,
            beta_target,
            continuation,
            eps_h0,
            beta_floor,
            grad_rtol,
            max_gn_iter,
            max_pcg_iter,
            fixed_pcg,
            precision,
            verbose
        );
        let rows: Vec<&str> = ConfigField::all().iter().map(|f| f.key).collect();
        assert_eq!(rows, names);
        let mut flags: Vec<&str> = ConfigField::all().iter().map(|f| f.flag).collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), names.len(), "two fields share a flag");
    }

    #[test]
    fn set_key_reads_keys_and_aliases_and_names_what_it_refuses() {
        let mut cfg = RegistrationConfig::default();
        cfg.set_key("beta", &Value::Num(2.0)).unwrap();
        cfg.set_key("max_gn_iter", &Value::UInt(7)).unwrap();
        cfg.set_key("fixed_pcg", &Value::Null).unwrap();
        assert_eq!((cfg.beta_target, cfg.max_gn_iter, cfg.fixed_pcg), (2.0, 7, None));
        let err = cfg.set_key("betta", &Value::Num(2.0)).unwrap_err().to_string();
        assert!(err.contains("unknown key `betta`"), "{err}");
        let err = cfg.set_key("nt", &Value::Num(2.5)).unwrap_err().to_string();
        assert!(err.contains("`nt`"), "{err}");
        assert_eq!(cfg.nt, 4, "a refused value leaves the field alone");
    }

    #[test]
    fn the_spline_kernel_is_not_a_solver_option() {
        // nothing in the transport runs the prefilter the B-spline basis needs
        let err = RegistrationConfig::builder().ip_order(IpOrder::CubicSpline).build().unwrap_err();
        assert!(matches!(err, ClaireError::Config { param: "ip_order", .. }), "{err}");
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            RegistrationConfig::builder().ip_order(order).build().unwrap();
        }
    }

    #[test]
    fn a_target_above_the_start_is_the_whole_schedule() {
        let cfg = RegistrationConfig::builder().beta(2.0).build().unwrap();
        assert_eq!((cfg.beta_start(), cfg.beta_schedule()), (2.0, vec![2.0]));
        let cfg = RegistrationConfig::builder().beta(1.0).build().unwrap();
        assert_eq!((cfg.beta_start(), cfg.beta_schedule()), (1.0, vec![1.0]));
    }
}
