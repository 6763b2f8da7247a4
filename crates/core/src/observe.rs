//! Assembling a [`RunReport`] from a finished solve.
//!
//! While a solve runs, the observability layer (claire-obs) collects spans
//! and GN records and claire-par accumulates per-kernel timers, all on the
//! rank thread that does the work; claire-mpi accumulates per-category and
//! per-collective traffic on the rank's communicator.
//! [`collect_run_report`] drains all of them into one JSON-serializable
//! [`RunReport`] whose `summary` is the solve's [`RegistrationReport`], so
//! every work count in it is the collecting rank's own.
//!
//! Typical use (this is what `claire-cli --report` does):
//!
//! ```no_run
//! use claire_core::observe;
//! # let config = claire_core::RegistrationConfig::default();
//! # let (m0, m1): (claire_grid::ScalarField, claire_grid::ScalarField) = unimplemented!();
//! # let mut comm = claire_mpi::Comm::solo();
//! observe::begin(); // enable + reset spans/records/kernel timers/pool stats
//! let (v, report) =
//!     claire_core::Claire::new(config).register_from(&m0, &m1, "na02", &mut comm);
//! let run = observe::collect_run_report(report, &comm);
//! println!("{}", run.span_summary());
//! std::fs::write("run.json", run.to_json()).unwrap();
//! ```

use claire_fft::cache as fft_cache;
use claire_grid::workspace::{self, WsCat};
use claire_mpi::{CollOp, Comm, CommCat};
use claire_obs::report::{
    CollectiveEntry, CommPhaseEntry, KernelEntry, MemoryCatEntry, MemoryInfo, PhaseShares,
    RegistrationReport, RunReport,
};
use claire_obs::{records, span};

/// Arm the observability layer for a fresh run: enables collection, resets
/// the calling thread's spans, GN records and claire-par kernel timers, and
/// the process's pool and plan-cache counters.
pub fn begin() {
    claire_obs::begin();
    claire_par::timing::reset();
    workspace::reset_stats();
    fft_cache::reset_stats();
}

/// Pool and plan-cache events: per-category checkouts and misses of the
/// workspace pools, hits and misses of the FFT plan cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemStats {
    /// Pool checkouts per [`WsCat`] index.
    cat_checkouts: [u64; 6],
    /// Pool misses (fresh allocations) per category index.
    cat_misses: [u64; 6],
    /// FFT plan-cache hits.
    fft_plan_hits: u64,
    /// FFT plan-cache misses (plans computed).
    fft_plan_misses: u64,
}

impl MemStats {
    /// The process's counts since the last [`begin`].
    pub fn process() -> MemStats {
        let fft = fft_cache::stats();
        let ws = workspace::stats();
        MemStats {
            cat_checkouts: ws.map(|s| s.checkouts),
            cat_misses: ws.map(|s| s.misses),
            fft_plan_hits: fft.hits,
            fft_plan_misses: fft.misses,
        }
    }

    /// Run `f` and add the pool and plan-cache events of the process while
    /// it ran.
    pub fn metered<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = MemStats::process();
        let out = f();
        let after = MemStats::process();
        for i in 0..6 {
            self.cat_checkouts[i] += after.cat_checkouts[i].saturating_sub(before.cat_checkouts[i]);
            self.cat_misses[i] += after.cat_misses[i].saturating_sub(before.cat_misses[i]);
        }
        self.fft_plan_hits += after.fft_plan_hits.saturating_sub(before.fft_plan_hits);
        self.fft_plan_misses += after.fft_plan_misses.saturating_sub(before.fft_plan_misses);
        out
    }
}

/// Drain every telemetry source into a unified [`RunReport`], with the
/// process's pool and plan-cache counts since [`begin`] as its `memory`.
/// See [`collect_job_report`].
pub fn collect_run_report(report: RegistrationReport, comm: &Comm) -> RunReport {
    collect_job_report(report, comm, &MemStats::process())
}

/// Drain every telemetry source into a unified [`RunReport`]: the solve's
/// report as its `summary`, `comm` and `collectives` from the traffic
/// ledger, kernel timers, GN records and the span tree of the calling
/// thread, and `mem` as the `memory` event counts.
///
/// Call once, after the solve, on the rank thread whose ledger should be
/// reported (rank 0 by convention; with `Comm::solo` there is only one).
/// Draining consumes that thread's span tree and GN records — a second call
/// returns empty `spans`/`gn_trace`. The pools and the plan cache are the
/// process's, so `mem`, however metered, also counts whatever else ran in
/// the process meanwhile (other jobs, other in-process ranks): its counts
/// are exact only when one job runs in the process at a time (see
/// [`MemoryInfo`]).
pub fn collect_job_report(report: RegistrationReport, comm: &Comm, mem: &MemStats) -> RunReport {
    let mut run = RunReport::new(report);
    run.backend = claire_simd::active_backend().label().to_string();
    run.transport = comm.transport_kind().to_string();

    let stats = comm.stats();
    run.comm = CommCat::ALL
        .iter()
        .map(|&c| {
            let s = stats.cat(c);
            CommPhaseEntry {
                phase: c.label().to_string(),
                bytes: s.bytes_sent,
                msgs: s.msgs_sent,
                wire_bytes: s.wire_bytes,
                blocked_secs: s.wall_blocked.as_secs_f64(),
            }
        })
        .filter(|e| e.bytes > 0 || e.msgs > 0 || e.wire_bytes > 0)
        .collect();
    run.collectives = CollOp::ALL
        .iter()
        .map(|&op| {
            let s = stats.coll(op);
            CollectiveEntry { op: op.label().to_string(), calls: s.calls, bytes: s.bytes }
        })
        .filter(|e| e.calls > 0)
        .collect();

    let levels = workspace::stats();
    run.memory = MemoryInfo {
        pool_checkouts: mem.cat_checkouts.iter().sum(),
        pool_misses: mem.cat_misses.iter().sum(),
        pool_peak_bytes: workspace::peak_bytes(),
        pool_in_use_bytes: levels.iter().map(|s| s.in_use_bytes).sum(),
        categories: WsCat::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| mem.cat_checkouts[i] > 0)
            .map(|(i, cat)| MemoryCatEntry {
                cat: cat.label().to_string(),
                checkouts: mem.cat_checkouts[i],
                misses: mem.cat_misses[i],
                peak_bytes: levels[i].peak_bytes,
            })
            .collect(),
        fft_plans: fft_cache::stats().plans,
        fft_plan_hits: mem.fft_plan_hits,
        fft_plan_misses: mem.fft_plan_misses,
    };

    run.kernels = claire_par::timing::snapshot()
        .into_iter()
        .filter(|k| k.calls > 0)
        .map(|k| KernelEntry {
            name: k.name.to_string(),
            calls: k.calls,
            secs: k.nanos as f64 * 1e-9,
        })
        .collect();
    run.phases = PhaseShares::from_kernels(&run.kernels, run.summary.time_total);
    run.gn_trace = records::take_gn();
    run.spans = span::take_spans();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrecondKind, RegistrationConfig};
    use claire_grid::{Grid, Layout, ScalarField};

    fn gaussian(layout: Layout, cx: f64, cy: f64, cz: f64) -> ScalarField {
        ScalarField::from_fn(layout, move |x, y, z| {
            let d2 = (x - cx).powi(2) + (y - cy).powi(2) + (z - cz).powi(2);
            (-d2 / 0.5).exp()
        })
    }

    #[test]
    fn collects_full_report_from_solo_solve() {
        let layout = Layout::serial(Grid::cube(8));
        let pi = std::f64::consts::PI;
        let m0 = gaussian(layout, pi, pi, pi);
        let m1 = gaussian(layout, pi + 0.3, pi, pi);
        let config = RegistrationConfig {
            nt: 2,
            max_gn_iter: 2,
            max_pcg_iter: 4,
            continuation: false,
            precond: PrecondKind::InvA,
            verbose: false,
            ..Default::default()
        };

        begin();
        let mut comm = Comm::solo();
        let (_, report) = crate::Claire::new(config).register_from(&m0, &m1, "unit", &mut comm);
        let run = collect_run_report(report.clone(), &comm);
        claire_obs::set_enabled(false);

        assert_eq!((run.summary.data.as_str(), run.summary.grid), ("unit", [8, 8, 8]));
        assert!(run.summary.gn_iters >= 1);
        assert!(!run.kernels.is_empty(), "kernel timers should have fired");
        assert!(!run.spans.is_empty(), "span tree should be non-empty");
        assert!(run.spans.iter().any(|s| s.name == "solve"));
        assert!(!run.gn_trace.is_empty(), "per-iteration records expected");
        assert!(run.memory.pool_checkouts > 0, "workspace pool should be in use");
        assert!(run.memory.pool_peak_bytes > 0);
        let sum: u64 = run.memory.categories.iter().map(|c| c.peak_bytes).sum();
        assert!(run.memory.pool_peak_bytes <= sum, "at once is at most the category peaks' sum");
        assert!(run.summary.memory_bytes_per_rank > 0, "analytic model should be attached");
        assert!(
            run.memory.categories.iter().any(|c| c.cat == "pde"),
            "µPDE category expected in the breakdown"
        );
        assert!(run.memory.fft_plans > 0, "plan cache should have planned");
        // Draining is one-shot (spans are thread-local, so this is exact
        // even with other tests running concurrently).
        let again = collect_run_report(report, &comm);
        assert!(again.spans.is_empty());
        // JSON document carries every schema key.
        let json = run.to_json();
        for key in claire_obs::report::SCHEMA_KEYS {
            assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
        }
    }
}
