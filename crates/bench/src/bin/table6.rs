//! Table 6: full registration runs on NIREP-like and CLARITY-like data.
//!
//! Runs the complete β-continuation Gauss–Newton–Krylov solver on the
//! phantom datasets (grid sizes scaled per DESIGN.md; set `CLAIRE_BENCH_N`
//! to go bigger) for all three preconditioners, and prints the same
//! columns as the paper's Table 6 with wall times on this host, followed
//! by the published rows.

use claire_bench::{bench_n, header, record_json};
use claire_core::{observe, Claire, PrecondKind, RegistrationConfig, RegistrationReport};
use claire_data::{brain, clarity};
use claire_grid::{Grid, Layout};
use claire_interp::IpOrder;
use claire_mpi::Comm;
use claire_obs::report::RunReport;
use claire_perf::paper::TABLE6;

/// Run one registration with observability on and return the unified
/// [`RunReport`]: the Table 6 row as its `summary`, with span tree, kernel
/// phases, GN trace, and traffic.
fn run_one(
    data: &str,
    m0: &claire_grid::ScalarField,
    m1: &claire_grid::ScalarField,
    pc: PrecondKind,
    eps_h0: f64,
    comm: &mut Comm,
) -> RunReport {
    // NOTE: the paper's Table 6 uses linear interpolation at >= 256^3; at
    // the scaled-down grids of this reproduction the linear kernel's
    // forward/adjoint inconsistency dominates the gradient, so we use the
    // cubic (GPU-TXTLAG) kernel here (see EXPERIMENTS.md).
    let cfg = RegistrationConfig::builder()
        .nt(4)
        .ip_order(IpOrder::Cubic)
        .precond(pc)
        .beta(5e-4)
        .eps_h0(eps_h0)
        .max_gn_iter(10)
        .verbose(false)
        .build()
        .expect("valid configuration");
    observe::begin(); // fresh spans/records/kernel timers per run
    let mut claire = Claire::new(cfg);
    let (_, report) = claire.register_from(m0, m1, data, comm);
    observe::collect_run_report(report, comm)
}

/// One-line FFT/IP/FD phase summary from the run report (Table 7's runtime
/// shares, here per Table 6 row).
fn phase_line(run: &RunReport) -> String {
    let p = &run.phases;
    format!(
        "         └ phases: fft {:.3}s  ip {:.3}s  fd {:.3}s  other {:.3}s   gn_trace {} records",
        p.fft_secs,
        p.ip_secs,
        p.fd_secs,
        p.other_secs,
        run.gn_trace.len()
    )
}

fn main() {
    let n = bench_n();
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));

    header(&format!("Table 6 — full registrations at {n}^3 (NIREP-like phantoms, β → 5e-4)"));
    println!("{}", RegistrationReport::header());
    let reference = brain::subject("na01", layout, &mut comm);
    let mut reports = Vec::new();
    for subject in ["na02", "na03", "na10"] {
        let template = brain::subject(subject, layout, &mut comm);
        for pc in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
            let run = run_one(subject, &template, &reference, pc, 1e-3, &mut comm);
            println!("{}", run.summary.row());
            println!("{}", phase_line(&run));
            record_json("table6", &serde_json::to_string(&run).unwrap());
            reports.push(run.summary);
        }
    }

    header(&format!("Table 6 — CLARITY-like registration at {}x{}x{} (εH0 = 1e-2)", 2 * n, n, n));
    let clarity_layout = Layout::serial(Grid::new([2 * n, n, n]));
    let (c0, c1) = clarity::pair(clarity_layout, &mut comm);
    for pc in [PrecondKind::InvA, PrecondKind::TwoLevelInvH0] {
        let run = run_one("clarity", &c0, &c1, pc, 1e-2, &mut comm);
        println!("{}", run.summary.row());
        println!("{}", phase_line(&run));
        record_json("table6", &serde_json::to_string(&run).unwrap());
        reports.push(run.summary);
    }

    header("Table 6 — paper reference (selected rows)");
    println!(
        "{:>8} {:>8} {:>14} {:>5} {:>4} {:>5} {:>9} {:>9} {:>9}",
        "data", "PC", "size", "GPUs", "GN", "PCG", "mism.", "|g|_rel", "total(s)"
    );
    for row in &TABLE6 {
        println!(
            "{:>8} {:>8} {:>4}x{}x{} {:>5} {:>4} {:>5} {:>9.2e} {:>9.2e} {:>9.3}",
            row.data,
            row.pc,
            row.size[0],
            row.size[1],
            row.size[2],
            row.gpus,
            row.gn,
            row.pcg,
            row.mismatch,
            row.grad_rel,
            row.total
        );
    }

    // headline shape checks
    let pcg_of = |data: &str, pc: &str| {
        reports.iter().find(|r| r.data == data && r.pc == pc).map(|r| r.pcg_iters).unwrap_or(0)
    };
    println!("\nshape check (paper: InvH0 variants cut outer PCG iterations 2-3x vs InvA):");
    for s in ["na02", "na03", "na10"] {
        println!(
            "  {s}: PCG InvA = {}, InvH0 = {}, 2LInvH0 = {}",
            pcg_of(s, "InvA"),
            pcg_of(s, "InvH0"),
            pcg_of(s, "2LInvH0")
        );
    }
}
