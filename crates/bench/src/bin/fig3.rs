//! Fig. 3: PCG residual vs iterations for the three preconditioners.
//!
//! Reproduces the paper's setup: the reference image is synthesized by
//! transporting the template with a known velocity `v⋆`, and the
//! reduced-space Hessian system `H ṽ = −g` is solved *at the true
//! solution* `v = v⋆` for β ∈ {5e−1, 1e−1, 5e−2} and three grid sizes
//! (scaled down from the paper's 128³/256³/512³ per DESIGN.md).
//!
//! Expected shape (paper Fig. 3): InvA needs the most iterations and
//! degrades as β shrinks; InvH0 and 2LInvH0 converge in far fewer
//! iterations and are nearly β- and mesh-independent.

use claire_bench::{bench_n, fmt_size, header, record_json};
use claire_core::{PrecondKind, RegProblem, RegistrationConfig};
use claire_data::truth::fig3_problem;
use claire_grid::{Grid, Layout, VectorField};
use claire_interp::IpOrder;
use claire_mpi::Comm;
use claire_opt::{pcg, GnProblem, PcgConfig, PcgOperator};
use claire_perf::paper::FIG3;

struct HessOps<'a> {
    prob: &'a mut RegProblem,
    eps_k: f64,
}

impl PcgOperator for HessOps<'_> {
    fn apply(&mut self, p: &VectorField, comm: &mut Comm) -> VectorField {
        self.prob.hess_vec(p, comm)
    }
    fn prec(&mut self, r: &VectorField, comm: &mut Comm) -> VectorField {
        self.prob.precond(r, self.eps_k, comm)
    }
}

fn iters_to(trace: &[f64], tol: f64) -> String {
    match trace.iter().position(|&r| r <= tol) {
        Some(i) => format!("{i}"),
        None => format!(">{}", trace.len().saturating_sub(1)),
    }
}

fn main() {
    let n0 = bench_n() / 2;
    let sizes = [n0, n0 * 3 / 2, n0 * 2];
    let betas = [5e-1, 1e-1, 5e-2];
    let pcs = [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0];

    header("Fig. 3 — PCG convergence at the true solution (reproduced)");
    println!(
        "{:>8} {:>8} | {:>10} {:>10} {:>10}   (PCG iterations to rel. residual 1e-2 / 1e-4 / 1e-6)",
        "N", "beta", "InvA", "InvH0", "2LInvH0"
    );

    let mut comm = Comm::solo();
    for &n in &sizes {
        let n = (n / 2) * 2; // even for the coarse grid
        let layout = Layout::serial(Grid::cube(n.max(8)));
        let prob_data = fig3_problem(layout, &mut comm);
        for &beta in &betas {
            let mut cells: Vec<String> = Vec::new();
            for &pc in &pcs {
                let cfg = RegistrationConfig::builder()
                    .nt(4)
                    .ip_order(IpOrder::Cubic)
                    .precond(pc)
                    .continuation(false)
                    .build()
                    .expect("valid configuration");
                let mut prob = RegProblem::new(
                    prob_data.template.clone(),
                    prob_data.reference.clone(),
                    cfg,
                    &mut comm,
                )
                .expect("matching layouts by construction");
                prob.set_beta(beta);
                // linearize at the true solution
                let g = prob.gradient(&prob_data.v_true.clone(), &mut comm);
                let mut rhs = g;
                rhs.scale(-1.0);
                let pcg_cfg = PcgConfig { tol_rel: 1e-6, max_iter: 50, trace: true };
                let mut ops = HessOps { prob: &mut prob, eps_k: 1e-1 };
                let (_, res) = pcg(rhs, None, &pcg_cfg, &mut ops, &mut comm);
                cells.push(format!(
                    "{}/{}/{}",
                    iters_to(&res.trace, 1e-2),
                    iters_to(&res.trace, 1e-4),
                    iters_to(&res.trace, 1e-6)
                ));
                record_json(
                    "fig3",
                    &format!(
                        "{{\"n\":{n},\"beta\":{beta},\"pc\":\"{}\",\"iters\":{},\"rel_residual\":{:.3e},\"trace\":{:?}}}",
                        pc.label(),
                        res.iters,
                        res.rel_residual,
                        res.trace
                    ),
                );
            }
            println!(
                "{:>8} {:>8.0e} | {:>10} {:>10} {:>10}",
                fmt_size([n, n, n]),
                beta,
                cells[0],
                cells[1],
                cells[2]
            );
        }
    }

    header("Fig. 3 — paper reference (iterations to ~1e-6, read from plots)");
    println!("{:>8} | {:>10} {:>10} {:>10}", "beta", "InvA", "InvH0", "2LInvH0");
    for e in &FIG3 {
        println!(
            "{:>8.0e} | {:>10} {:>10} {:>10}",
            e.beta,
            if e.inva_iters >= 50 { ">50".to_string() } else { e.inva_iters.to_string() },
            e.invh0_iters,
            e.two_level_iters
        );
    }
    println!(
        "\nshape check: InvA worst and β-sensitive; InvH0/2LInvH0 few iterations, ~β-independent."
    );
}
