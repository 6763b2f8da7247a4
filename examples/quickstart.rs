//! Quickstart: register the paper's analytic SYN problem on a small grid.
//!
//! ```bash
//! cargo run --release --example quickstart -- [n] [--report PATH]
//! ```
//!
//! Builds the SYN template/reference pair (§4 of the paper), runs the full
//! β-continuation Gauss–Newton–Krylov solver with the 2LInvH0
//! preconditioner, and prints a Table 6-style report plus diffeomorphism
//! diagnostics. With `--report PATH` the run is traced end to end and the
//! unified `RunReport` JSON (span tree, kernel phases, per-collective
//! traffic) is written to PATH.
//!
//! The whole program needs exactly one `use`: the prelude.

use claire::prelude::*;

fn main() {
    let mut n = 24usize;
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => report_path = args.next().map(std::path::PathBuf::from),
            other => {
                n = other.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "unrecognized argument `{other}`; usage: quickstart [n] [--report PATH]"
                    );
                    std::process::exit(2)
                })
            }
        }
    }

    let mut comm = Comm::solo();
    println!("building SYN problem at {n}^3 ...");
    let prob = syn_problem([n, n, n], &mut comm);

    let cfg = RegistrationConfig::builder()
        .nt(4)
        .beta(1e-3)
        .verbose(true)
        .build()
        .expect("quickstart configuration is valid");
    println!(
        "registering with {} (β continuation {:?} -> {:.0e}) ...",
        cfg.precond.label(),
        cfg.beta_start(),
        cfg.beta_target
    );
    if report_path.is_some() {
        begin_observing();
    }
    let mut solver = Claire::new(cfg);
    let t0 = std::time::Instant::now();
    let (v, report) = solver.register_from(&prob.template, &prob.reference, "SYN", &mut comm);

    println!("\n{}", RegistrationReport::header());
    println!("{}", report.row());
    println!("\nsummary:");
    println!("  wall time                {:.2} s", t0.elapsed().as_secs_f64());
    println!("  relative mismatch        {:.3e}  (1.0 = no registration)", report.rel_mismatch);
    println!("  Gauss–Newton iterations  {}", report.gn_iters);
    println!("  PCG iterations           {}", report.pcg_iters);
    println!(
        "  det(∇y) range            [{:.3}, {:.3}]  (> 0 ⇒ diffeomorphic)",
        report.jac_det_min, report.jac_det_max
    );
    let vnorm = {
        let mut vv = v;
        let norm = vv.norm_l2(&mut comm);
        vv.fill(0.0);
        norm
    };
    println!("  |v|_L2                   {vnorm:.3e}");

    let rel_mismatch = report.rel_mismatch;
    if let Some(path) = &report_path {
        let run = collect_run_report(report, &comm);
        print!("\n{}", run.span_summary());
        std::fs::write(path, run.to_json()).expect("write run report");
        println!("wrote run report to {}", path.display());
    }

    assert!(rel_mismatch < 0.5, "registration should reduce the mismatch");
    println!("\nok: mismatch reduced by {:.1}x", 1.0 / rel_mismatch);
}
