//! Table 5: distributed 3D FFT (slab decomposition) scaling.
//!
//! Part A: functional forward+inverse transforms on the virtual cluster
//! at CPU-feasible sizes (verifies the communication pattern and measures
//! transpose traffic). Part B: paper-scale model vs published runtimes.

use claire_bench::{bench_n, fmt_size, header, record_json};
use claire_fft::DistFft;
use claire_grid::{Grid, Layout, ScalarField};
use claire_mpi::AlltoallMethod;
use claire_mpi::{run_cluster, CommCat, Topology};
use claire_perf::paper::{TABLE45_TASKS, TABLE5};
use claire_perf::{fft_pair_time, Machine};

fn main() {
    let n = bench_n();
    header("Table 5A — functional forward+inverse slab FFT on the virtual cluster");
    println!(
        "{:>14} {:>5} | {:>12} {:>10} | {:>16} {:>14}",
        "size", "ranks", "wall (s)", "%blocked", "transpose bytes", "bytes (formula)"
    );
    for p in [1usize, 2, 4] {
        let size = [n, n, n];
        let grid = Grid::new(size);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f =
                ScalarField::from_fn(layout, |x, y, z| (x + 0.2).sin() * y.cos() + (2.0 * z).sin());
            let dfft = DistFft::new(grid, comm);
            let (t0, b0) = (std::time::Instant::now(), comm.stats().blocked_secs());
            let spec = dfft.forward(&f, comm);
            let _ = dfft.inverse(spec, comm);
            let wall = t0.elapsed().as_secs_f64();
            let blocked = comm.stats().blocked_secs() - b0;
            (wall, 100.0 * blocked / wall, comm.stats().cat(CommCat::FftTranspose).bytes_sent)
        });
        let wall = res.outputs.iter().map(|o| o.0).fold(0.0, f64::max);
        let blocked_pct = res.outputs.iter().map(|o| o.1).fold(0.0, f64::max);
        let bytes: u64 = res.outputs.iter().map(|o| o.2).sum();
        // closed form: pair ships 2 × (p-1)/p of the complex cube (16 B/f64 pair)
        let ncpx = (n * n * (n / 2 + 1)) as u64;
        let cpx_bytes = 2 * std::mem::size_of::<claire_grid::Real>() as u64;
        let formula = if p == 1 { 0 } else { 2 * ncpx * cpx_bytes * (p as u64 - 1) / p as u64 };
        println!(
            "{:>14} {:>5} | {:>12.3e} {:>10.1} | {:>16} {:>14}",
            fmt_size(size),
            p,
            wall,
            blocked_pct,
            bytes,
            formula
        );
        record_json(
            "table5",
            &format!(
                "{{\"size\":{size:?},\"p\":{p},\"wall\":{wall:.4e},\"blocked_pct\":{blocked_pct:.2},\"transpose_bytes\":{bytes}}}"
            ),
        );
    }

    header("Table 5B — paper scale (ms per forward+inverse): model (m) vs published (p)");
    print!("{:>14} | {:>8} {:>8} |", "size", "1rank m", "1rank p");
    for t in TABLE45_TASKS {
        print!(" {:>7}m {:>7}p |", t, t);
    }
    println!();
    let machine = Machine::longhorn();
    for row in &TABLE5 {
        let m1 = fft_pair_time(&machine, row.size, 1, AlltoallMethod::Auto);
        print!(
            "{:>14} | {:>8.2} {:>8} |",
            fmt_size(row.size),
            m1.total() * 1e3,
            row.slab1.map(|v| format!("{v:.2}")).unwrap_or_else(|| "oom".into())
        );
        for (ti, &p) in TABLE45_TASKS.iter().enumerate() {
            let t = fft_pair_time(&machine, row.size, p, AlltoallMethod::Auto);
            print!(" {:>8.2} {:>8.2} |", t.total() * 1e3, row.ranks[ti]);
        }
        println!();
    }
    println!("\nshape check: single-node runs near cuFFT speed; scaling beyond one node first");
    println!("pays the off-node all-to-all, then wins back time for the large grids.");
}
