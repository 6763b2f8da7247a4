//! [`RunReport`]: one JSON document per solver run.
//!
//! Unifies the telemetry that previously had to be scraped crate by crate:
//! kernel phase timings (claire-par), per-phase and per-collective
//! communication volume (claire-mpi), preconditioner/GN/PCG counters
//! (claire-core, claire-opt), and the span tree from this crate. The
//! paper's tables map onto it directly — Table 6's row is the `summary`
//! ([`RegistrationReport`]), Table 2 columns come from `kernels`/`comm`,
//! Table 5 from `kernels` (FFT phases), and Table 7's FFT/IP/FD runtime
//! shares from `phases`.

use crate::records::GnIterRecord;
use crate::span::{self, SpanNode};
use serde::{Deserialize, Serialize};

/// Top-level keys every emitted `RunReport` JSON object contains, in order.
pub const SCHEMA_KEYS: &[&str] = &[
    "backend",
    "transport",
    "summary",
    "scheduling",
    "phases",
    "gn_trace",
    "kernels",
    "comm",
    "collectives",
    "memory",
    "spans",
];

/// Everything the paper's Table 6 reports about one registration run, plus
/// diffeomorphism diagnostics: the `summary` of a [`RunReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistrationReport {
    /// Dataset label (e.g. `na02`).
    pub data: String,
    /// Preconditioner label (`InvA`, `InvH0`, `2LInvH0`).
    pub pc: String,
    /// Solver arithmetic width: `f64` (full double precision) or `mixed`
    /// (f32 inner Krylov/FFT path under the f64 outer Gauss–Newton loop).
    pub precision: String,
    /// Global grid n₁ × n₂ × n₃.
    pub grid: [usize; 3],
    /// Semi-Lagrangian time steps.
    pub nt: usize,
    /// Ranks (virtual GPUs).
    pub nranks: usize,
    /// Gauss–Newton iterations across all β-levels (`GN` column).
    pub gn_iters: usize,
    /// Accumulated PCG iterations (`PCG` column).
    pub pcg_iters: usize,
    /// Objective evaluations, line-search trials included.
    pub obj_evals: usize,
    /// Gauss–Newton Hessian matvecs.
    pub hess_applies: usize,
    /// Whether the last β-level reached the gradient tolerance.
    pub converged: bool,
    /// Relative mismatch `‖m(1) − m1‖/‖m0 − m1‖` (`mism.` column).
    pub rel_mismatch: f64,
    /// Relative gradient norm (`‖g‖rel` column).
    pub grad_rel: f64,
    /// Applications of InvA (`[A]` column).
    pub n_inva: usize,
    /// Applications of InvH0/2LInvH0 (`[B|C]` column).
    pub n_invh0: usize,
    /// Inner PCG iterations to invert H0, total (`total` column).
    pub inner_cg_total: usize,
    /// Inner PCG iterations per application (`avg.` column).
    pub inner_cg_avg: f64,
    /// Wall seconds in the preconditioner (`PC`).
    pub time_pc: f64,
    /// Wall seconds in objective evaluations (`Obj`).
    pub time_obj: f64,
    /// Wall seconds in gradient evaluations (`Grad`).
    pub time_grad: f64,
    /// Wall seconds in Hessian matvecs (`Hess`).
    pub time_hess: f64,
    /// Wall seconds total (`Total`).
    pub time_total: f64,
    /// Minimum of `det(∇y)` (diffeomorphism check; must be > 0).
    pub jac_det_min: f64,
    /// Maximum of `det(∇y)`.
    pub jac_det_max: f64,
    /// Modeled memory per rank (the paper's §3 formula, single-precision
    /// words).
    pub memory_bytes_per_rank: u64,
}

impl RegistrationReport {
    /// Table 6 header.
    pub fn header() -> String {
        format!(
            "{:8} {:8} {:>4} {:>5} {:>9} {:>9} {:>5} {:>5} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>8}",
            "data", "PC", "GN", "PCG", "mism.", "|g|_rel", "[A]", "[B|C]", "total", "avg.",
            "PC", "Obj", "Grad", "Hess", "Total"
        )
    }

    /// One Table 6 row (wall times).
    pub fn row(&self) -> String {
        format!(
            "{:8} {:8} {:>4} {:>5} {:>9.2e} {:>9.2e} {:>5} {:>5} {:>6} {:>5.1} | {:>8.2e} {:>8.2e} {:>8.2e} {:>8.2e} {:>8.2e}",
            self.data,
            self.pc,
            self.gn_iters,
            self.pcg_iters,
            self.rel_mismatch,
            self.grad_rel,
            self.n_inva,
            self.n_invh0,
            self.inner_cg_total,
            self.inner_cg_avg,
            self.time_pc,
            self.time_obj,
            self.time_grad,
            self.time_hess,
            self.time_total,
        )
    }
}

/// Scheduling metadata for a `claire-cli batch` job: which manifest entry
/// and worker this run was, how long it waited for a worker, and its
/// end-to-end latency, all measured from batch start. Zero-valued defaults
/// for runs outside a batch.
#[derive(Serialize, Clone, Debug, Default)]
pub struct SchedulingInfo {
    /// 1-based manifest position (0 for direct runs).
    pub job_id: u64,
    /// Priority class label (`high`/`normal`/`low`; empty for direct runs).
    pub priority: String,
    /// Index of the worker that executed the job.
    pub worker: usize,
    /// Seconds from batch start until a worker took the job.
    pub queue_wait_secs: f64,
    /// Seconds executing (solve wall-clock inside the worker).
    pub run_secs: f64,
    /// Seconds from batch start until the job ended.
    pub total_secs: f64,
    /// The job's deadline, seconds from batch start (0 = none).
    pub deadline_secs: f64,
}

/// Runtime share per kernel phase — the paper's Table 7 FFT/IP/FD columns.
#[derive(Serialize, Clone, Debug, Default)]
pub struct PhaseShares {
    /// Spectral work: serial FFT + distributed FFT + transpose.
    pub fft_secs: f64,
    /// Interpolation (semi-Lagrangian evaluation).
    pub ip_secs: f64,
    /// Finite-difference stencils.
    pub fd_secs: f64,
    /// Everything else (field ops, ghost exchange, solver overhead).
    pub other_secs: f64,
    /// Total solve wall-clock these shares partition.
    pub total_secs: f64,
}

impl PhaseShares {
    /// Derive shares from one rank's per-kernel timings and its solve
    /// wall-clock. Kernel names follow claire-par's timer labels.
    pub fn from_kernels(kernels: &[KernelEntry], total_secs: f64) -> Self {
        let sum = |names: &[&str]| -> f64 {
            kernels.iter().filter(|k| names.contains(&k.name.as_str())).map(|k| k.secs).sum()
        };
        let fft_secs = sum(&["fft_serial", "fft_dist", "fft_transpose"]);
        let ip_secs = sum(&["interp"]);
        let fd_secs = sum(&["fd"]);
        let other_secs = total_secs - fft_secs - ip_secs - fd_secs;
        PhaseShares { fft_secs, ip_secs, fd_secs, other_secs, total_secs }
    }
}

/// One kernel timer (from claire-par's per-kernel counters).
#[derive(Serialize, Clone, Debug)]
pub struct KernelEntry {
    /// Kernel label (`fd`, `fft_serial`, `fft_dist`, `fft_transpose`,
    /// `interp`, `ghost`, `field_ops`, `semilag`).
    pub name: String,
    /// Number of timed invocations.
    pub calls: u64,
    /// Total seconds across invocations.
    pub secs: f64,
}

/// Communication volume for one traffic category (ghost exchange, scatter,
/// FFT transpose, …) — claire-mpi's `CommCat` breakdown.
#[derive(Serialize, Clone, Debug)]
pub struct CommPhaseEntry {
    /// Category label.
    pub phase: String,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Real bytes on the wire, framing and headers included (0 on the
    /// in-process channel transport, where nothing is serialized).
    pub wire_bytes: u64,
    /// Wall seconds the reporting rank spent blocked in this category's
    /// receives and collectives (measured; differs between transports).
    pub blocked_secs: f64,
}

/// Calls/bytes for one collective operation across the communicator.
#[derive(Serialize, Clone, Debug)]
pub struct CollectiveEntry {
    /// Operation name (`allreduce`, `alltoallv`, `broadcast`, …).
    pub op: String,
    /// Number of invocations.
    pub calls: u64,
    /// Payload bytes moved by those invocations.
    pub bytes: u64,
}

/// Workspace-pool accounting for one budget category (paper §3: µPDE,
/// µFFT, µFD, µSL, µGN/CG, plus `other`).
#[derive(Serialize, Clone, Debug)]
pub struct MemoryCatEntry {
    /// Category label (`pde`, `fft`, `fd`, `sl`, `gn_cg`, `other`).
    pub cat: String,
    /// Buffers checked out of the pool (hits + misses).
    pub checkouts: u64,
    /// Checkouts that had to allocate fresh memory.
    pub misses: u64,
    /// High-water mark of bytes simultaneously checked out.
    pub peak_bytes: u64,
}

/// Measured workspace-pool and FFT-plan-cache counters (the analytic
/// per-rank estimate of the paper's §3 memory model is the summary's
/// `memory_bytes_per_rank`). Steady state shows up here as `pool_misses`
/// staying flat while `pool_checkouts` keeps growing.
///
/// **Sharing semantics.** The pools and the plan cache are process-global
/// and shared by every solve in the process. Event counts
/// (`pool_checkouts`, `pool_misses`, `fft_plan_hits`, `fft_plan_misses`)
/// are deltas of those global counters sampled around the job's solve, so
/// they are exact only when one job runs in the process at a time; a
/// service with several workers charges each job the events of the jobs
/// running beside it. Byte *levels* (`pool_peak_bytes`,
/// `pool_in_use_bytes`, the per-category `peak_bytes`) are properties of
/// the shared pool family and are reported family-wide.
#[derive(Serialize, Clone, Debug, Default)]
pub struct MemoryInfo {
    /// Pool checkouts during this job's solve (process-wide delta).
    pub pool_checkouts: u64,
    /// Checkouts during this job's solve that allocated fresh memory
    /// (process-wide delta).
    pub pool_misses: u64,
    /// Peak bytes simultaneously checked out of the shared pool family
    /// (not per-job): one high-water mark across all categories, at most
    /// the sum of the categories' `peak_bytes`, which peak at different
    /// moments.
    pub pool_peak_bytes: u64,
    /// Bytes still checked out of the shared pool family when the report
    /// was collected (not per-job).
    pub pool_in_use_bytes: u64,
    /// Per-category breakdown in the paper's §3 order.
    pub categories: Vec<MemoryCatEntry>,
    /// Plans resident in the shared FFT plan cache (process-wide level,
    /// not per-job).
    pub fft_plans: u64,
    /// FFT plan-cache hits during this job's solve (process-wide delta).
    pub fft_plan_hits: u64,
    /// FFT plan-cache misses (plans built) during this job's solve
    /// (process-wide delta).
    pub fft_plan_misses: u64,
}

/// The unified per-run report. Serialize with [`RunReport::to_json`].
#[derive(Serialize, Clone, Debug)]
pub struct RunReport {
    /// Active SIMD backend for the hot kernels (`scalar` or `avx2`).
    pub backend: String,
    /// Comm transport the ranks exchanged messages over (`channel` for the
    /// in-process virtual cluster, `socket` for multi-process execution).
    pub transport: String,
    /// The solve's Table 6 row: problem identity (label, grid, ranks, time
    /// steps, preconditioner, precision) and outcome.
    pub summary: RegistrationReport,
    /// Scheduling metadata (zeroed for runs outside `claire-cli batch`).
    pub scheduling: SchedulingInfo,
    /// FFT/IP/FD runtime shares.
    pub phases: PhaseShares,
    /// Per-GN-iteration trace (objective, gradient norm, PCG iterations)
    /// of the reporting rank, every β-level included.
    pub gn_trace: Vec<GnIterRecord>,
    /// Per-kernel timers of the reporting rank.
    pub kernels: Vec<KernelEntry>,
    /// Per-category communication volume.
    pub comm: Vec<CommPhaseEntry>,
    /// Per-collective calls/bytes.
    pub collectives: Vec<CollectiveEntry>,
    /// Workspace-pool / plan-cache counters.
    pub memory: MemoryInfo,
    /// Hierarchical span tree (per rank-0 thread).
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// A report of `summary` with every other section empty — callers fill
    /// them in.
    pub fn new(summary: RegistrationReport) -> Self {
        RunReport {
            backend: String::new(),
            transport: String::new(),
            summary,
            scheduling: SchedulingInfo::default(),
            phases: PhaseShares::default(),
            gn_trace: Vec::new(),
            kernels: Vec::new(),
            comm: Vec::new(),
            collectives: Vec::new(),
            memory: MemoryInfo::default(),
            spans: Vec::new(),
        }
    }

    /// Pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunReport serialization is total")
    }

    /// Human-readable span-tree summary plus headline numbers.
    pub fn span_summary(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        out.push_str(&format!(
            "run `{}`  {}x{}x{}  ranks={}  nt={}  pc={}  simd={}\n",
            s.data, s.grid[0], s.grid[1], s.grid[2], s.nranks, s.nt, s.pc, self.backend
        ));
        out.push_str(&format!(
            "  GN {}  PCG {}  mismatch {:.3e}  |g|rel {:.3e}  {:.3} s\n",
            s.gn_iters, s.pcg_iters, s.rel_mismatch, s.grad_rel, s.time_total
        ));
        out.push_str(&format!(
            "  phases: fft {:.3} s  ip {:.3} s  fd {:.3} s  other {:.3} s\n",
            self.phases.fft_secs, self.phases.ip_secs, self.phases.fd_secs, self.phases.other_secs
        ));
        if self.scheduling.total_secs > 0.0 {
            out.push_str(&format!(
                "  job {} ({}) on worker {}: queued {:.3} s, ran {:.3} s, e2e {:.3} s\n",
                self.scheduling.job_id,
                self.scheduling.priority,
                self.scheduling.worker,
                self.scheduling.queue_wait_secs,
                self.scheduling.run_secs,
                self.scheduling.total_secs
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("span tree:\n");
            out.push_str(&span::render(&self.spans));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One Table 6 row with every field filled.
    fn table6_row() -> RegistrationReport {
        RegistrationReport {
            data: "na02".into(),
            pc: "2LInvH0".into(),
            precision: "f64".into(),
            grid: [32, 32, 32],
            nt: 4,
            nranks: 1,
            gn_iters: 14,
            pcg_iters: 28,
            obj_evals: 19,
            hess_applies: 28,
            converged: true,
            rel_mismatch: 2.79e-2,
            grad_rel: 3.23e-2,
            n_inva: 3,
            n_invh0: 25,
            inner_cg_total: 294,
            inner_cg_avg: 11.8,
            time_pc: 1.04,
            time_obj: 0.205,
            time_grad: 0.435,
            time_hess: 1.52,
            time_total: 4.44,
            jac_det_min: 0.4,
            jac_det_max: 2.1,
            memory_bytes_per_rank: 5_090_000_000,
        }
    }

    #[test]
    fn schema_keys_match_serialized_object() {
        let report = RunReport::new(table6_row());
        let serde::Value::Object(pairs) = serde::Serialize::to_value(&report) else {
            panic!("RunReport must serialize to an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SCHEMA_KEYS);
    }

    #[test]
    fn table6_row_renders_and_round_trips() {
        let r = table6_row();
        assert!(RegistrationReport::header().contains("PCG"));
        assert!(r.row().contains("2LInvH0"));
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"gn_iters\":14"));
        let decode =
            |text: &str| RegistrationReport::from_value(&serde_json::from_str(text).unwrap());
        assert_eq!(decode(&json).unwrap(), r);
        // every key is required: a report without its width does not decode
        let old = json.replace("\"precision\":\"f64\",", "");
        assert_ne!(old, json);
        assert!(decode(&old).is_err());
    }

    #[test]
    fn phase_shares_partition_total() {
        let kernels = vec![
            KernelEntry { name: "fft_serial".into(), calls: 2, secs: 1.0 },
            KernelEntry { name: "fft_transpose".into(), calls: 2, secs: 0.5 },
            KernelEntry { name: "interp".into(), calls: 4, secs: 2.0 },
            KernelEntry { name: "fd".into(), calls: 8, secs: 0.25 },
        ];
        let p = PhaseShares::from_kernels(&kernels, 5.0);
        assert_eq!(p.fft_secs, 1.5);
        assert_eq!(p.ip_secs, 2.0);
        assert_eq!(p.fd_secs, 0.25);
        assert!((p.other_secs - 1.25).abs() < 1e-12);
        // a ruler that over-counts shows, it is not clamped away
        assert!(PhaseShares::from_kernels(&kernels, 2.5).other_secs < 0.0);
    }
}
