//! `--compare A.json B.json`: apply the catalogue's bounds to two result
//! files (`--out` writes them, one run per line) — how "two sets of runs
//! agree" and "this change did not regress" are checked.

use std::collections::BTreeMap;
use std::fmt;

use serde_json::Value;

use crate::catalogue::{EndToEnd, END_TO_END, PER_LAYER, SETUP_FLOOR_S};
use crate::sample::{field, num};
use crate::stats::{median, quartiles, spread};
use crate::workload::WORKLOADS;

/// One run read back from a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let at = |e: String| format!("line {}: {e}", i + 1);
            let v = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
            let whole = |key: &str| match field(&v, key) {
                Ok(Value::UInt(n)) => Ok(*n),
                Ok(_) => Err(at(format!("`{key}` is not a whole number"))),
                Err(e) => Err(at(e)),
            };
            let Value::Str(workload) = field(&v, "workload").map_err(at)? else {
                return Err(at("`workload` is not a string".into()));
            };
            let Value::Object(metrics) = field(&v, "metrics").map_err(at)? else {
                return Err(at("`metrics` is not an object".into()));
            };
            let metrics = metrics
                .iter()
                .map(|(k, m)| {
                    let value = field(m, "value").map_err(at)?;
                    Ok((k.clone(), num(value).ok_or(at(format!("`{k}` has no numeric value")))?))
                })
                .collect::<Result<_, String>>()?;
            Ok(Record {
                workload: workload.clone(),
                seed: whole("seed")?,
                failed: whole("failed")?,
                metrics,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows, or an exact value that differs.
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be said.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judge one lower-is-better metric on one workload: `a` is the base, `b`
/// what is compared against it.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let base = median(a);
    let mut allowed = metric.bound * base;
    if metric.name == "setup_s" {
        allowed = allowed.max(SETUP_FLOOR_S);
    }
    let iqr = |xs: &[f64]| quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1);
    if iqr(a).max(iqr(b)) > allowed {
        let best_a = a.iter().copied().fold(f64::INFINITY, f64::min);
        let every_b_better = b.iter().all(|&x| x < best_a);
        return if every_b_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if median(b) - base > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// An exact count is one value per (workload, seed, metric).
type CountKey<'a> = (&'a str, u64, &'static str);

/// One printed row: medians, and each side's interquartile distance as a
/// share of its median.
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

/// Compare base `a` with `b`: one row per (end-to-end metric, workload) both
/// files hold, one for failed solves per workload (zero tolerance), and one
/// for every exact count that is not the same on both sides at one seed.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    let values = |recs: &[Record], w: &str, name: &str| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
            .collect()
    };
    for w in WORKLOADS.iter().map(|w| w.name) {
        for m in &END_TO_END {
            let (xa, xb) = (values(a, w, m.name), values(b, w, m.name));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            rows.push(Row {
                metric: m.name.into(),
                workload: w.into(),
                a: median(&xa),
                b: median(&xb),
                spread_a: spread(&xa),
                spread_b: spread(&xb),
                verdict: judge(m, &xa, &xb),
            });
        }
        let failed = |recs: &[Record]| {
            recs.iter().filter(|r| r.workload == w).map(|r| r.failed).sum::<u64>()
        };
        if a.iter().chain(b).any(|r| r.workload == w) {
            let (fa, fb) = (failed(a) as f64, failed(b) as f64);
            let verdict = if fb > fa { Verdict::Regressed } else { Verdict::Ok };
            let (spread_a, spread_b) = (0.0, 0.0);
            rows.push(Row {
                metric: "failed_solves".into(),
                workload: w.into(),
                a: fa,
                b: fb,
                spread_a,
                spread_b,
                verdict,
            });
        }
    }

    // exact counts: every run at one (workload, seed) must read the same,
    // whichever file it is in; one row per count that does not
    let mut seen: BTreeMap<CountKey, (f64, Option<f64>)> = BTreeMap::new();
    for r in a.iter().chain(b) {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let Some((_, v)) = r.metrics.iter().find(|(k, _)| k == m.name) {
                let entry = seen.entry((&r.workload, r.seed, m.name)).or_insert((*v, None));
                if *v != entry.0 {
                    entry.1 = Some(*v);
                }
            }
        }
    }
    for ((workload, seed, name), (first, other)) in seen {
        if let Some(other) = other {
            let metric = format!("{name} (seed {seed})");
            let (spread_a, spread_b, verdict) = (0.0, 0.0, Verdict::Regressed);
            let workload = workload.to_string();
            rows.push(Row { metric, workload, a: first, b: other, spread_a, spread_b, verdict });
        }
    }
    rows
}

/// Print the rows; every ratio is B over its base A.
pub fn print(rows: &[Row]) {
    println!(
        "{:<34} {:<10} {:>14} {:>14} {:>9} {:>9} {:>9}  verdict",
        "metric", "workload", "A (base)", "B", "B/A", "spread A", "spread B"
    );
    for r in rows {
        // 0 failed solves on both sides is a ratio of 1, not 0/0
        let ratio = if r.a == r.b { 1.0 } else { r.b / r.a };
        println!(
            "{:<34} {:<10} {:>14.6} {:>14.6} {:>9.4} {:>8.1}% {:>8.1}%  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            ratio,
            100.0 * r.spread_a,
            100.0 * r.spread_b,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn relative_bound() {
        let solve = metric("solve_s"); // 25 %
        let a = [6.0, 6.05, 5.95, 6.0];
        assert_eq!(judge(solve, &a, &[7.2, 7.25, 7.15, 7.2]), Verdict::Ok); // +20 %
        assert_eq!(judge(solve, &a, &[7.8, 7.85, 7.75, 7.8]), Verdict::Regressed); // +30 %
        assert_eq!(judge(solve, &a, &[5.0, 5.0, 5.0, 5.0]), Verdict::Ok); // faster
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_every_run_is_better() {
        let solve = metric("solve_s");
        let noisy = [5.0, 9.5, 5.4, 9.0];
        assert_eq!(judge(solve, &noisy, &[6.0, 6.1, 6.0, 6.1]), Verdict::Unresolved);
        assert_eq!(judge(solve, &[6.0, 6.1, 6.0, 6.1], &noisy), Verdict::Unresolved);
        assert_eq!(judge(solve, &noisy, &[4.0, 4.1, 4.0, 4.1]), Verdict::Ok);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = metric("setup_s"); // 25 %, but never less than 0.03 s
        let a = [0.050, 0.051, 0.049, 0.050];
        // +50 % but only +0.025 s: inside the floor
        assert_eq!(judge(setup, &a, &[0.075, 0.076, 0.074, 0.075]), Verdict::Ok);
        assert_eq!(judge(setup, &a, &[0.085, 0.086, 0.084, 0.085]), Verdict::Regressed);
        // above the floor the relative bound rules: 25 % of 1 s
        let a = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(judge(setup, &a, &[1.2, 1.21, 1.19, 1.2]), Verdict::Ok);
        assert_eq!(judge(setup, &a, &[1.3, 1.31, 1.29, 1.3]), Verdict::Regressed);
    }

    fn record(workload: &str, failed: u64, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.into(),
            seed: 1,
            failed,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn failed_solves_have_zero_tolerance_and_counts_must_be_identical() {
        let a =
            [record("reg", 0, &[("solve_s", 6.0)]), record("reg", 0, &[("opt.gn_iters", 13.0)])];
        let same = compare(&a, &a);
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(same.len(), 2, "solve_s and failed_solves; identical counts print no row");

        let b =
            [record("reg", 1, &[("solve_s", 6.0)]), record("reg", 0, &[("opt.gn_iters", 14.0)])];
        let rows = compare(&a, &b);
        let verdict = |m: &str| rows.iter().find(|r| r.metric.starts_with(m)).unwrap().verdict;
        assert_eq!(verdict("solve_s"), Verdict::Ok);
        assert_eq!(verdict("failed_solves"), Verdict::Regressed);
        assert_eq!(verdict("opt.gn_iters"), Verdict::Regressed);
    }

    #[test]
    fn result_file_round_trip() {
        let r = crate::runner::RunResult {
            workload: "reg_fft",
            seed: 3,
            traced: false,
            attempted: 2,
            failures: vec![],
            metrics: vec![("solve_s", 6.123456789012345, "s"), ("setup_s", 0.05, "s")],
            backend: "avx2".into(),
        };
        let line = serde_json::to_string(&r.to_record()).unwrap();
        let back = parse_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back[0],
            record_with_seed("reg_fft", 3, &[("solve_s", 6.123456789012345), ("setup_s", 0.05)])
        );
        assert!(parse_records("{\"workload\":1}").unwrap_err().starts_with("line 1"));
    }

    fn record_with_seed(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Record {
        Record { seed, ..record(workload, 0, metrics) }
    }
}
