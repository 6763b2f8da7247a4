//! Benchmark harness for CLAIRE-rs: regenerates every table and figure of
//! the paper's evaluation (§4).
//!
//! Each `src/bin/tableN.rs` / `src/bin/figN.rs` binary corresponds to one
//! table or figure:
//!
//! | binary | paper artifact | what it runs |
//! |---|---|---|
//! | `fig3`   | Fig. 3  | PCG residual traces for InvA/InvH0/2LInvH0 at the true solution |
//! | `table2` | Table 2 | semi-Lagrangian phase breakdown: functional small-scale + modeled paper scale |
//! | `table3` | Table 3 | FD kernel strong/weak scaling |
//! | `table4` | Table 4 | MPI vs P2P all-to-all bandwidth |
//! | `table5` | Table 5 | distributed FFT weak/strong scaling |
//! | `table6` | Table 6 | full registrations (NIREP-like + CLARITY-like phantoms) |
//! | `fig4`   | Fig. 4  | runtime-breakdown bars for the Table 6 runs |
//! | `table7` | Table 7 | full-solver strong/weak scaling (functional + modeled) |
//! | `fig5`   | Fig. 5  | kernel-fraction bars for Table 7 |
//! | `ablation` | §4 text | store-∇m, IP order, P2P switch, β floor |
//!
//! One more bin, `bench_rows`, prints the layer rows `BENCHMARK.json` has no
//! probe for (its module doc lists them) and goes when they are probes.
//!
//! Functional runs execute on the virtual cluster at CPU-feasible sizes
//! (the `CLAIRE_BENCH_N` environment variable scales them); paper-scale
//! numbers come from the calibrated model (`claire-perf`) and are printed
//! next to the published values.

#![forbid(unsafe_code)]

use std::io::Write;

/// Base grid extent for functional runs (default 32; override with the
/// `CLAIRE_BENCH_N` environment variable).
pub fn bench_n() -> usize {
    std::env::var("CLAIRE_BENCH_N").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

/// Render a simple horizontal bar of `value` against `max` (Fig. 4/5
/// text-mode bars).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

/// Format a `[n1, n2, n3]` size like the paper (`512x256x256` or `256^3`).
pub fn fmt_size(n: [usize; 3]) -> String {
    if n[0] == n[1] && n[1] == n[2] {
        format!("{}^3", n[0])
    } else {
        format!("{}x{}x{}", n[0], n[1], n[2])
    }
}

/// Append a JSON record of an experiment result to `results/<name>.json`
/// (one JSON document per line) for EXPERIMENTS.md bookkeeping.
pub fn record_json(name: &str, json: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("{name}.jsonl")))
    {
        let _ = writeln!(f, "{json}");
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_proportionally() {
        assert_eq!(bar(5.0, 10.0, 10), "█████·····");
        assert_eq!(bar(0.0, 10.0, 4), "····");
        assert_eq!(bar(10.0, 10.0, 4), "████");
        assert_eq!(bar(1.0, 0.0, 3), "···");
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size([256, 256, 256]), "256^3");
        assert_eq!(fmt_size([512, 256, 256]), "512x256x256");
    }
}
