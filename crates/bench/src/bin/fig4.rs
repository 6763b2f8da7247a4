//! Fig. 4: runtime-breakdown bars (PC / Objective / Gradient / Hessian /
//! Other) for the Table 6 registrations.
//!
//! Runs the na10 → na01 registration with each preconditioner and renders
//! the allocated-runtime bars the paper visualizes from the wall seconds
//! the solver measured on this host. Paper shape: the Newton
//! step (Hessian + PC) dominates; 2LInvH0 shrinks the PC share vs InvH0
//! and the Hessian share vs InvA.

use claire_bench::{bar, bench_n, header, record_json};
use claire_core::{Claire, PrecondKind, RegistrationConfig};
use claire_data::brain;
use claire_grid::{Grid, Layout};
use claire_interp::IpOrder;
use claire_mpi::Comm;

fn main() {
    let n = bench_n();
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));
    let reference = brain::subject("na01", layout, &mut comm);
    let template = brain::subject("na10", layout, &mut comm);

    header(&format!(
        "Fig. 4 — solver runtime breakdown at {n}^3 (na10 → na01, wall seconds on this host)"
    ));
    let mut rows = Vec::new();
    for pc in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
        let cfg = RegistrationConfig::builder()
            .nt(4)
            .ip_order(IpOrder::Cubic) // see table6.rs: cubic at coarse grids
            .precond(pc)
            .max_gn_iter(10)
            .build()
            .expect("valid configuration");
        let mut claire = Claire::new(cfg);
        let (_, r) = claire.register_from(&template, &reference, "na10", &mut comm);
        rows.push(r);
    }
    let max_total = rows.iter().map(|r| r.time_total).fold(0.0, f64::max);
    for r in &rows {
        let other = r.time_total - r.time_pc - r.time_obj - r.time_grad - r.time_hess;
        println!("{:>8}  |{}| total {:.3e}s", r.pc, bar(r.time_total, max_total, 40), r.time_total);
        println!(
            "          PC {:.3e} / Obj {:.3e} / Grad {:.3e} / Hess {:.3e} / Other {:.3e}",
            r.time_pc, r.time_obj, r.time_grad, r.time_hess, other
        );
        record_json("fig4", &serde_json::to_string(&r).unwrap());
    }

    println!("\npaper reference (256^3, na10, seconds): ");
    println!(
        "  InvReg : PC 0.558 / Obj 0.25  / Grad 0.525 / Hess 4.76 / Other 1.52   (total 7.61)"
    );
    println!(
        "  InvH0  : PC 3.17  / Obj 0.248 / Grad 0.525 / Hess 1.91 / Other 1.4    (total 7.25)"
    );
    println!(
        "  2LInvH0: PC 1.22  / Obj 0.249 / Grad 0.526 / Hess 2.01 / Other 1.45   (total 5.45)"
    );
    println!("\nshape check: InvA spends its time in Hessian matvecs; InvH0 moves that cost into");
    println!("the preconditioner; 2LInvH0 cuts the PC cost ~2-3x by solving on the coarse grid.");
}
