//! Typed job descriptions and results for the registration service.
//!
//! A [`JobSpec`] bundles everything one registration needs — the
//! [`RegistrationConfig`], the input images (or a synthetic problem size),
//! a priority class, an optional deadline, and optional [`SolverHooks`] —
//! and is validated *at admission*, so malformed work is rejected before it
//! occupies queue capacity. A finished job yields a [`JobResult`] carrying
//! the per-job [`RunReport`] — the solve's Table 6 row as its `summary`,
//! with scheduling metadata.

use std::fmt;
use std::time::Duration;

use claire_core::{ClaireError, ClaireResult, RegistrationConfig, SolverHooks};
use claire_grid::ScalarField;
use claire_obs::report::RunReport;
use serde::Deserialize;

/// Service-assigned job identifier, unique for the lifetime of one
/// [`RegistrationService`](crate::RegistrationService).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw numeric id (also recorded in the report's scheduling block).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Admission priority class. Within the queue, every `High` job runs before
/// any `Normal` job, which runs before any `Low` job; within a class, order
/// is FIFO.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Deserialize)]
pub enum Priority {
    /// Latency-sensitive work (drained first).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background/batch work (drained last).
    Low,
}

impl Priority {
    /// Queue-lane index: 0 (high) … 2 (low).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Lower-case label used in reports and the CLI manifest.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse a manifest label (`high`/`normal`/`low`, case-insensitive).
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// What a job registers.
pub enum JobInput {
    /// A concrete template/reference image pair (layouts must match).
    Pair {
        /// Template image `m0`.
        template: ScalarField,
        /// Reference image `m1`.
        reference: ScalarField,
    },
    /// The paper's analytic SYN problem at the given grid size, generated
    /// by the worker (useful for benchmarks and smoke tests).
    Synthetic {
        /// Grid extents n₁ × n₂ × n₃ (each ≥ 2, at most 2²⁶ points in
        /// all).
        n: [usize; 3],
    },
}

impl JobInput {
    /// Grid extents of the input.
    pub fn grid(&self) -> [usize; 3] {
        match self {
            JobInput::Pair { template, .. } => template.layout().grid.n,
            JobInput::Synthetic { n } => *n,
        }
    }
}

/// A complete, self-contained description of one registration job.
pub struct JobSpec {
    /// Free-form label (dataset or experiment name; used in reports).
    pub label: String,
    /// Solver configuration.
    pub config: RegistrationConfig,
    /// Input images.
    pub input: JobInput,
    /// Admission priority class.
    pub priority: Priority,
    /// Wall-clock budget from *submission* (queue wait counts against it).
    pub deadline: Option<Duration>,
    /// Caller-supplied hooks. A caller-provided cancel token is honoured
    /// (the service arms the deadline on it and polls it); otherwise the
    /// service creates its own. `on_gn_iter` observers are forwarded.
    pub hooks: SolverHooks,
}

impl JobSpec {
    /// A normal-priority job with no deadline and no hooks.
    pub fn new(label: impl Into<String>, config: RegistrationConfig, input: JobInput) -> JobSpec {
        JobSpec {
            label: label.into(),
            config,
            input,
            priority: Priority::default(),
            deadline: None,
            hooks: SolverHooks::default(),
        }
    }

    /// Set the priority class.
    pub fn priority(mut self, p: Priority) -> JobSpec {
        self.priority = p;
        self
    }

    /// Set a wall-clock deadline measured from submission.
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }

    /// Attach solver hooks (external cancel token and/or GN observer).
    pub fn hooks(mut self, hooks: SolverHooks) -> JobSpec {
        self.hooks = hooks;
        self
    }

    /// Admission-time validation: solver config plus input well-formedness.
    pub fn validate(&self) -> ClaireResult<()> {
        /// Most grid points a synthetic job may ask for (a 2¹⁰ × 2⁸ × 2⁸
        /// grid, 512 MiB per f64 field). A grid-sized allocation that fails
        /// aborts the process — every worker and every queued job with it —
        /// and no guard on the worker can catch that, so a manifest entry
        /// naming an absurd grid is refused here.
        const MAX_SYNTHETIC_POINTS: usize = 1 << 26;
        self.config.validate()?;
        match &self.input {
            JobInput::Synthetic { n } => {
                // Grid::new asserts >= 2 points per dim; reject at admission
                if n.iter().any(|&d| d < 2) {
                    return Err(ClaireError::Config {
                        param: "grid",
                        message: format!("extents must all be >= 2, got {n:?}"),
                    });
                }
                let points = n.iter().try_fold(1usize, |p, &d| p.checked_mul(d));
                if points.is_none_or(|p| p > MAX_SYNTHETIC_POINTS) {
                    return Err(ClaireError::Config {
                        param: "grid",
                        message: format!(
                            "extents {n:?} exceed the {MAX_SYNTHETIC_POINTS} grid points \
                             one job may ask for"
                        ),
                    });
                }
            }
            JobInput::Pair { template, reference } => {
                if template.layout() != reference.layout() {
                    return Err(ClaireError::LayoutMismatch {
                        context: "JobSpec::validate",
                        message: format!(
                            "template grid {:?} vs reference grid {:?}",
                            template.layout().grid.n,
                            reference.layout().grid.n
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Lifecycle state of a job. Terminal states are permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a registration result.
    Succeeded,
    /// Finished with an error (including a panicking solve).
    Failed,
    /// Stopped through its cancel token before producing a result.
    Cancelled,
    /// Stopped because its deadline passed (possibly while still queued).
    DeadlineExpired,
}

impl JobStatus {
    /// Whether this state is final.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// Lower-case label used in reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Succeeded => "succeeded",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExpired => "deadline_expired",
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one job. The velocity field itself is *not* retained — it can
/// be several GiB at paper scale; callers who need it should register
/// directly through [`Claire`](claire_core::Claire).
#[derive(Clone)]
pub struct JobResult {
    /// The id assigned at submission.
    pub id: JobId,
    /// The spec's label.
    pub label: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Unified per-job run report: the solve's Table 6 row as its
    /// `summary`, with scheduling metadata (`Succeeded` only).
    pub run: Option<RunReport>,
    /// Error text (`Failed`/`Cancelled`/`DeadlineExpired`).
    pub error: Option<String>,
    /// Time spent queued between submission and execution start.
    pub queue_wait: Duration,
    /// Time spent executing on the worker.
    pub run_time: Duration,
    /// End-to-end time from submission to the terminal status.
    pub total: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(input: JobInput) -> JobSpec {
        JobSpec::new("unit", RegistrationConfig::default(), input)
    }

    #[test]
    fn admission_refuses_the_spline_kernel_the_solver_cannot_prefilter() {
        let mut job = spec(JobInput::Synthetic { n: [8, 8, 8] });
        job.validate().unwrap();
        job.config.ip_order = claire_core::config::IpOrder::CubicSpline;
        let err = job.validate().unwrap_err();
        assert!(matches!(err, ClaireError::Config { param: "ip_order", .. }), "{err}");
    }

    #[test]
    fn priority_lanes_and_labels() {
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Normal.index(), 1);
        assert_eq!(Priority::Low.index(), 2);
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.label()), Some(p));
        }
        assert_eq!(Priority::parse("HIGH"), Some(Priority::High));
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn job_id_displays_as_job_number() {
        assert_eq!(JobId(42).to_string(), "job-42");
        assert_eq!(JobId(42).as_u64(), 42);
    }

    #[test]
    fn terminal_states() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        for s in [
            JobStatus::Succeeded,
            JobStatus::Failed,
            JobStatus::Cancelled,
            JobStatus::DeadlineExpired,
        ] {
            assert!(s.is_terminal(), "{s} must be terminal");
        }
    }

    #[test]
    fn validate_rejects_zero_grid_and_bad_config() {
        let err = spec(JobInput::Synthetic { n: [8, 0, 8] }).validate().unwrap_err();
        assert!(err.to_string().contains(">= 2"), "{err}");
        assert!(spec(JobInput::Synthetic { n: [8, 8, 1] }).validate().is_err());
        // more points than one job may ask for, and a product that overflows
        for n in [[200_000; 3], [usize::MAX, 2, 2]] {
            let err = spec(JobInput::Synthetic { n }).validate().unwrap_err();
            assert!(matches!(err, ClaireError::Config { param: "grid", .. }), "{err}");
        }

        let mut bad = spec(JobInput::Synthetic { n: [8, 8, 8] });
        bad.config.nt = 0;
        assert!(bad.validate().is_err(), "invalid solver config must be rejected");
    }

    #[test]
    fn validate_rejects_mismatched_pair() {
        use claire_grid::{Grid, Layout};
        let a = ScalarField::zeros(Layout::serial(Grid::cube(8)));
        let b = ScalarField::zeros(Layout::serial(Grid::cube(16)));
        let err = spec(JobInput::Pair { template: a, reference: b }).validate().unwrap_err();
        assert!(matches!(err, ClaireError::LayoutMismatch { .. }), "{err}");
    }
}
