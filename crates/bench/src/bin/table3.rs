//! Table 3: scalability of the 8th-order FD first-derivative kernel.
//!
//! Part A: functional strong/weak scaling of `∇f` on the virtual cluster
//! (wall time, ghost traffic). Part B: paper-scale model vs published.

use claire_bench::{bench_n, fmt_size, header, record_json};
use claire_grid::{Grid, Layout, ScalarField};
use claire_mpi::{run_cluster, CommCat, Topology};
use claire_perf::paper::TABLE3;
use claire_perf::{fd_time, Machine};

fn main() {
    let n = bench_n();
    header("Table 3A — functional FD gradient on the virtual cluster");
    println!(
        "{:>5} {:>14} | {:>12} {:>10} | {:>12}",
        "GPUs", "size", "wall total", "%blocked", "ghost bytes"
    );
    let mut cases: Vec<(usize, [usize; 3])> = vec![(1, [n, n, n])];
    for p in [2usize, 4] {
        cases.push((p, [n, n, n])); // strong scaling
    }
    cases.push((2, [2 * n, n, n])); // weak scaling
    cases.push((4, [2 * n, 2 * n, n]));
    for (p, size) in cases {
        let grid = Grid::new(size);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f =
                ScalarField::from_fn(layout, |x, y, z| (x + 0.3).sin() * (2.0 * y).cos() + z.sin());
            let (t0, b0) = (std::time::Instant::now(), comm.stats().blocked_secs());
            let _ = claire_diff::fd::gradient(&f, comm);
            let wall = t0.elapsed().as_secs_f64();
            let blocked = comm.stats().blocked_secs() - b0;
            (wall, 100.0 * blocked / wall, comm.stats().cat(CommCat::Ghost).bytes_sent)
        });
        let wall = res.outputs.iter().map(|o| o.0).fold(0.0, f64::max);
        let blocked_pct = res.outputs.iter().map(|o| o.1).fold(0.0, f64::max);
        let bytes: u64 = res.outputs.iter().map(|o| o.2).sum();
        println!(
            "{:>5} {:>14} | {:>12.3e} {:>10.1} | {:>12}",
            p,
            fmt_size(size),
            wall,
            blocked_pct,
            bytes
        );
        record_json(
            "table3",
            &format!("{{\"p\":{p},\"size\":{size:?},\"wall\":{wall:.4e},\"blocked_pct\":{blocked_pct:.2},\"ghost_bytes\":{bytes}}}"),
        );
    }

    header("Table 3B — paper scale: modeled (m) vs published (p)");
    println!(
        "{:>5} {:>14} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>7} {:>7}",
        "GPUs",
        "size",
        "comm m",
        "comm p",
        "kernel m",
        "kernel p",
        "total m",
        "total p",
        "%c m",
        "%c p"
    );
    let machine = Machine::longhorn();
    for row in &TABLE3 {
        let t = fd_time(&machine, row.size, row.gpus);
        let pct_p = if row.total > 0.0 { 100.0 * row.comm / row.total } else { 0.0 };
        println!(
            "{:>5} {:>14} | {:>10.2e} {:>10.2e} | {:>10.2e} {:>10.2e} | {:>10.2e} {:>10.2e} | {:>7.1} {:>7.1}",
            row.gpus, fmt_size(row.size),
            t.comm, row.comm, t.compute, row.kernel, t.total(), row.total,
            t.comm_pct(), pct_p
        );
    }
    println!("\nshape check: kernel scales ~1/p (strong) and stays constant (weak); the ghost");
    println!("exchange is ~constant, so its share grows — communication dominates beyond 8 GPUs.");
}
