//! Table 2: weak scaling of the semi-Lagrangian interpolation kernel.
//!
//! Part A runs the *functional* experiment on the virtual cluster at
//! CPU-feasible sizes: advect a brain phantom with a registration-scale
//! velocity (cubic interpolation, Nt = 4) and report the five phases —
//! wall time on this host, plus byte-accurate traffic. The two scatter
//! phases are paid once per plan build (one per velocity), the other three
//! once per time step, so the row shows one plan build of the departure
//! points next to the Nt evaluations of the advection.
//!
//! Every column is read off a ledger the RunReport carries, reset and
//! snapshotted around the plan build and around the state solve:
//! `scatter_buf` and `interp_kernel` are the `interp` kernel slot's seconds
//! (the plan's site conversion and owner bucketing; the stencil kernel),
//! `ghost_comm` the `ghost` slot's (the exchange, its wait for the
//! neighbours' planes included), `scatter_comm` and `interp_comm` the time
//! blocked in receives of the `Scatter` and `InterpValues` categories.
//!
//! Part B regenerates the paper-scale table from the calibrated model and
//! prints it next to the published values.

use claire_bench::{bench_n, fmt_size, header, record_json};
use claire_data::brain;
use claire_grid::Layout;
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::{run_cluster, Comm, CommCat, Topology};
use claire_par::timing::{self, Kernel};
use claire_perf::paper::TABLE2;
use claire_perf::{sl_phases, Machine};
use claire_semilag::{Trajectory, Transport};

fn main() {
    let n = bench_n();
    header("Table 2A — functional semi-Lagrangian advection on the virtual cluster");
    println!(
        "{:>14} {:>5} | {:>11} {:>11} {:>11} {:>13} {:>11} | {:>12} {:>12}",
        "size",
        "GPUs",
        "ghost_comm",
        "interp_comm",
        "scatter_comm",
        "interp_kernel",
        "scatter_buf",
        "ghost bytes",
        "scatter bytes"
    );
    // weak scaling: 1 -> 2 -> 4 virtual GPUs, growing the grid alongside
    let cases = [([n, n, n], 1usize), ([2 * n, n, n], 2), ([2 * n, 2 * n, n], 4)];
    for (size, p) in cases {
        let grid = claire_grid::Grid::new(size);
        let res = run_cluster(Topology::new(p, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let m0 = brain::subject("na10", layout, comm);
            let v = brain::random_smooth_velocity(layout, 42, 0.4, 2);
            let ip = Interpolator::new(IpOrder::Cubic);
            let transport = Transport::new(4, IpOrder::Cubic);
            let traj = Trajectory::backward(&v, 4, &ip, comm);
            // one plan build of the departure points: the scatter phases
            let ([scatter_buf, _], [_, (scatter_comm, scatter_bytes), _]) = ledgers(comm, |comm| {
                std::hint::black_box(ip.plan(layout, &traj.foot_back, comm));
            });
            // the advection itself, like the paper
            let ([kernel, ghost], [(_, ghost_bytes), _, (interp_comm, _)]) =
                ledgers(comm, |comm| {
                    std::hint::black_box(transport.solve_state(&traj, &m0, false, &ip, comm));
                });
            ([ghost, interp_comm, scatter_comm, kernel, scatter_buf], ghost_bytes, scatter_bytes)
        });
        // report rank 0 (ranks are symmetric for this workload)
        let ([ghost, interp_comm, scatter_comm, kernel, scatter_buf], gb, sb) = &res.outputs[0];
        println!(
            "{:>14} {:>5} | {:>11.3e} {:>11.3e} {:>11.3e} {:>13.3e} {:>11.3e} | {:>12} {:>12}",
            fmt_size(size),
            p,
            ghost,
            interp_comm,
            scatter_comm,
            kernel,
            scatter_buf,
            gb,
            sb
        );
        record_json(
            "table2",
            &format!(
                "{{\"size\":{size:?},\"p\":{p},\"wall_kernel\":{kernel:.4e},\"ghost_bytes\":{gb},\"scatter_bytes\":{sb}}}"
            ),
        );
    }

    header("Table 2B — paper scale: modeled (this work) vs published (paper)");
    println!(
        "{:>14} {:>5} | {:>22} {:>22} {:>22} {:>24} {:>22} {:>18}",
        "size",
        "GPUs",
        "ghost_comm m|p",
        "interp_comm m|p",
        "scatter_comm m|p",
        "interp_kernel m|p",
        "scatter_buf m|p",
        "total m|p"
    );
    let machine = Machine::longhorn();
    for row in &TABLE2 {
        let m = sl_phases(&machine, row.size, row.gpus, true, 4);
        println!(
            "{:>14} {:>5} | {:>10.2e} {:>10.2e}  {:>10.2e} {:>10.2e}  {:>10.2e} {:>10.2e}  {:>11.2e} {:>11.2e}  {:>10.2e} {:>10.2e}  {:>8.2e} {:>8.2e}",
            fmt_size(row.size), row.gpus,
            m.ghost_comm, row.ghost_comm,
            m.interp_comm, row.interp_comm,
            m.scatter_comm, row.scatter_comm,
            m.interp_kernel, row.interp_kernel,
            m.scatter_mpi_buffer, row.scatter_mpi_buffer,
            m.total(), row.total,
        );
    }
    println!(
        "\nshape check: interp_kernel ~constant under weak scaling; ghost/scatter/interp comm"
    );
    println!("roughly double whenever N2 or N3 doubles; communication dominates beyond 16 GPUs.");
}

/// Run `f` on this rank and read what it put on the ledgers a RunReport
/// carries: its seconds in the `interp` and `ghost` kernel slots, and per
/// category `Ghost`, `Scatter`, `InterpValues` its seconds blocked in
/// receives and its bytes sent.
fn ledgers(comm: &mut Comm, f: impl FnOnce(&mut Comm)) -> ([f64; 2], [(f64, u64); 3]) {
    timing::reset();
    let before = comm.stats().clone();
    f(comm);
    let slots = timing::snapshot();
    let secs = |k: Kernel| {
        slots.iter().find(|s| s.name == k.name()).map_or(0.0, |s| s.nanos as f64 * 1e-9)
    };
    let delta = |cat| {
        let (now, then) = (comm.stats().cat(cat), before.cat(cat));
        ((now.wall_blocked - then.wall_blocked).as_secs_f64(), now.bytes_sent - then.bytes_sent)
    };
    let cats = [CommCat::Ghost, CommCat::Scatter, CommCat::InterpValues];
    ([secs(Kernel::Interp), secs(Kernel::Ghost)], cats.map(delta))
}
