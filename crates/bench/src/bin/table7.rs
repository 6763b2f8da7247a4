//! Table 7: strong and weak scaling of the full solver (SYN dataset).
//!
//! Part A runs the *functional* experiment on the virtual cluster: the
//! paper's fixed-work configuration (5 Gauss–Newton iterations × 10 PCG
//! iterations, InvA, β = 1e−3, Nt = 4, linear interpolation) on the SYN
//! problem, at CPU-feasible sizes over 1–4 virtual GPUs. It reports wall
//! time, the measured % of it the most-blocked rank spent waiting in
//! communication, measured traffic, and the memory-model estimate. Part B
//! prints the paper-scale model against all 17 published rows.
//!
//! With `--proc` the Part A ranks talk over the Unix-domain-socket
//! transport instead of in-process channels — the same wire path a
//! `claire-cli launch` cluster uses — so the traffic column reports real
//! framed bytes and the wall column includes genuine socket latency. The
//! numbers trajectory (mismatch, iterations, collective counts) is
//! bitwise-identical between the two modes.

use claire_bench::{bench_n, fmt_size, header, record_json};
use claire_core::{memory, observe, Claire, PrecondKind, RegistrationConfig};
use claire_data::syn::syn_problem;
use claire_grid::Layout;
use claire_interp::IpOrder;
use claire_mpi::{run_cluster, Topology};
use claire_perf::paper::TABLE7;
use claire_perf::{solver_time, Machine, SolverCounts};

fn main() {
    let n = bench_n();
    let proc_mode = std::env::args().any(|a| a == "--proc");
    let transport = if proc_mode { "socket transport" } else { "in-process channels" };
    header(&format!(
        "Table 7A — functional fixed-work solves (5 GN x 10 PCG, InvA, SYN) on the virtual cluster ({transport})",
    ));
    println!(
        "{:>12} {:>5} | {:>10} {:>8} | {:>14} {:>10}",
        "size", "GPUs", "wall (s)", "%comm", "total MB sent", "mem model"
    );
    for (size, p) in [
        ([n, n, n], 1usize),
        ([n, n, n], 2),
        ([n, n, n], 4),
        ([2 * n, n, n], 2),
        ([2 * n, 2 * n, n], 4),
    ] {
        let grid = claire_grid::Grid::new(size);
        // Arm observability once per case; rank 0 assembles the RunReport
        // from its own spans, GN records, kernel timers and comm ledger.
        observe::begin();
        let solve = move |comm: &mut claire_mpi::Comm| {
            let layout = Layout::distributed(grid, comm);
            let prob = syn_problem(size, comm);
            let _ = layout;
            let cfg = RegistrationConfig::builder()
                .nt(4)
                .ip_order(IpOrder::Linear)
                .precond(PrecondKind::InvA)
                .continuation(false)
                .beta(1e-3)
                .fixed_pcg(Some(10))
                .max_gn_iter(5)
                .grad_rtol(1e-30) // run all 5 iterations, as the paper fixes the work
                .build()
                .expect("valid configuration");
            let t0 = std::time::Instant::now();
            let mut claire = Claire::new(cfg);
            let (_, report) = claire.register_from(&prob.template, &prob.reference, "table7", comm);
            let run = (comm.rank() == 0).then(|| observe::collect_run_report(report, comm));
            (t0.elapsed().as_secs_f64(), run)
        };
        let res = if proc_mode {
            claire_ipc::run_socket_cluster(Topology::new(p, 4), solve)
        } else {
            run_cluster(Topology::new(p, 4), solve)
        };
        let wall = res.outputs.iter().map(|o| o.0).fold(0.0, f64::max);
        let pct = 100.0 * res.max_blocked_secs() / wall;
        let mb = res.total_stats().total_bytes() as f64 / 1e6;
        let mem = memory::estimate(grid, 4, p, IpOrder::Linear, 4).total_gb();
        println!(
            "{:>12} {:>5} | {:>10.2} {:>8.1} | {:>14.2} {:>9.3}G",
            fmt_size(size),
            p,
            wall,
            pct,
            mb,
            mem
        );
        let run = res.outputs[0].1.as_ref().expect("rank 0 collects the run report");
        println!(
            "{:>12}       | phases: fft {:.3}s  ip {:.3}s  fd {:.3}s   rank-0 collectives: {}",
            "",
            run.phases.fft_secs,
            run.phases.ip_secs,
            run.phases.fd_secs,
            run.collectives
                .iter()
                .map(|c| format!("{} x{}", c.op, c.calls))
                .collect::<Vec<_>>()
                .join(", ")
        );
        record_json("table7", &serde_json::to_string(run).unwrap());
    }

    header("Table 7B — paper scale: modeled (m) vs published (p)");
    println!(
        "{:>8} {:>5} | {:>8} {:>8} {:>5} {:>5} | {:>7} {:>7} | {:>7} {:>7} | {:>8} {:>8} {:>5} {:>5} | {:>6} {:>6}",
        "size", "GPUs", "FFT m", "FFT p", "%c m", "%c p", "SL m", "SL p", "FD m", "FD p",
        "all m", "all p", "%c m", "%c p", "GB m", "GB p"
    );
    let machine = Machine::longhorn();
    let counts = SolverCounts::table7();
    for row in &TABLE7 {
        let b = solver_time(&machine, row.size, row.gpus, &counts);
        let t = b.total();
        let order = if counts.cubic { IpOrder::Cubic } else { IpOrder::Linear };
        let mem = memory::estimate(claire_grid::Grid::new(row.size), counts.nt, row.gpus, order, 4);
        println!(
            "{:>8} {:>5} | {:>8.2} {:>8.2} {:>5.0} {:>5.0} | {:>7.2} {:>7.2} | {:>7.2} {:>7.2} | {:>8.2} {:>8.2} {:>5.0} {:>5.0} | {:>6.2} {:>6.2}",
            fmt_size(row.size), row.gpus,
            b.fft.total(), row.fft.0, b.fft.comm_pct(), row.fft.1,
            b.sl.total(), row.sl.0,
            b.fd.total(), row.fd.0,
            t.total(), row.overall.0, t.comm_pct(), row.overall.1,
            mem.total_gb(), row.memory_gb
        );
    }
    println!("\nshape check: FFT dominates; %comm grows towards ~90% at scale; strong scaling of");
    println!(
        "512^3 saturates (communication-bound); 2048^3 on 256 GPUs is memory-limited (~12.5 GB)."
    );
}
