//! The metric catalogue: what `BENCHMARK.json` lists and what every run
//! prints. The file is checked against this module by a unit test.

use serde_json::Value;

use crate::workload::WORKLOADS;

/// An end-to-end metric: what a user of the solver sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is lower-is-better and never 0. The count of
/// failed solves is the result line's `failed` of `attempted`, with zero
/// tolerance.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "solve_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", bound: 0.05 },
    EndToEnd { name: "rel_mismatch", unit: "ratio", bound: 0.15 },
];

/// `setup_s` is tens of milliseconds, so its relative bound alone would
/// flag scheduler jitter: `--compare` allows the larger of the bound and
/// this many seconds.
pub const SETUP_FLOOR_S: f64 = 0.03;

/// Wall-clock seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A per-layer metric, named `<crate>.<what>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Must repeat exactly from run to run at one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: true }
}

/// All from the traced run (`--trace 1`). A metric whose code the workload
/// does not execute reads 0 there. Which end-to-end metric each should move,
/// on which workload, is tabulated in the README.
pub const PER_LAYER: [PerLayer; 46] = [
    timed("core.problem_new_s", "s"),
    timed("core.objective_s", "s"),
    exact("core.objective_calls", "count"),
    timed("core.gradient_s", "s"),
    exact("core.gradient_calls", "count"),
    timed("core.hess_vec_s", "s"),
    exact("core.hess_vec_calls", "count"),
    timed("core.precond_s", "s"),
    exact("core.precond_calls", "count"),
    exact("opt.gn_iters", "count"),
    exact("opt.pcg_iters", "count"),
    timed("opt.self_s", "s"),
    timed("opt.gn_iter_us_per_point", "us"),
    timed("semilag.trajectory_ms", "ms"),
    timed("semilag.state_ms", "ms"),
    timed("semilag.adjoint_ms", "ms"),
    timed("semilag.inc_state_ms", "ms"),
    timed("interp.ns_per_query", "ns"),
    timed("interp.vector_ns_per_query", "ns"),
    timed("fft.roundtrip_ns_per_point", "ns"),
    timed("fft.roundtrip_ns_per_point_f32", "ns"),
    timed("fft.coarse_roundtrip_ns_per_point", "ns"),
    timed("fft.plan_s", "s"),
    timed("diff.fd_gradient_ns_per_point", "ns"),
    timed("diff.fd_divergence_ns_per_point", "ns"),
    timed("diff.reg_inv_ns_per_point", "ns"),
    timed("diff.restrict_prolong_ms", "ms"),
    timed("grid.axpy_dot_ns_per_point", "ns"),
    timed("grid.ghost_exchange_ms", "ms"),
    // exact on one rank (and checked there within a run); on `reg_2r` the two
    // ranks share the pools and the numbers depend on how they interleave
    timed("grid.pool_peak_bytes", "bytes"),
    timed("grid.pool_checkouts", "count"),
    timed("grid.pool_misses", "count"),
    exact("mpi.ghost_bytes", "bytes"),
    exact("mpi.ghost_msgs", "count"),
    exact("mpi.transpose_bytes", "bytes"),
    exact("mpi.transpose_msgs", "count"),
    exact("mpi.scatter_bytes", "bytes"),
    exact("mpi.allreduce_calls", "count"),
    timed("mpi.alltoallv_ms", "ms"),
    timed("mpi.wait_pct", "%"),
    PerLayer {
        name: "mpi.strong_scaling_eff",
        unit: "ratio",
        higher_is_better: true,
        exact: false,
    },
    timed("data.gen_s", "s"),
    timed("trace.solve_s", "s"),
    timed("trace.overhead_pct", "%"),
    timed("bench.solve_wall_s", "s"),
    timed("bench.host_slowdown", "ratio"),
];

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The content `BENCHMARK.json` must have.
pub fn benchmark_json() -> Value {
    let better = |higher: bool| text(if higher { "higher" } else { "lower" });
    object(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", better(false)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is this catalogue, and stays
    /// inside the limits its readers enforce.
    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(on_disk, benchmark_json(), "regenerate BENCHMARK.json from catalogue.rs");
    }

    #[test]
    fn names_units_and_bounds_are_within_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
