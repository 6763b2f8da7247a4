//! Table 4: MPI vs peer-to-peer all-to-all bandwidth.
//!
//! The measured link characteristics of the paper's system cannot be
//! reproduced on this host; this binary evaluates the calibrated link
//! model at exactly the paper's operating points (slab volumes of
//! 256³…1024³ over 4…128 ranks) and prints model vs published bandwidth,
//! plus which method the 512 kB auto-switch picks.

use claire_bench::{fmt_size, header};
use claire_mpi::{AlltoallMethod, Topology};
use claire_perf::paper::{TABLE4, TABLE45_TASKS};
use claire_perf::LinkModel;

fn main() {
    let link = LinkModel::default();
    header("Table 4 — sustained all-to-all bandwidth (GB/s): model (m) vs paper (p)");
    println!(
        "{:>14} {:>5} | {:>8} {:>8} | {:>8} {:>8} | {:>6} {:>9}",
        "size", "tasks", "MPI m", "MPI p", "P2P m", "P2P p", "switch", "pair vol"
    );
    let mut agree = 0usize;
    let mut total = 0usize;
    for row in &TABLE4 {
        let n = row.size;
        for (ti, &p) in TABLE45_TASKS.iter().enumerate() {
            let topo = Topology::longhorn(p);
            // local slab volume per rank: 8·N1·N2·(N3/2+1)/p bytes (Table 4 caption)
            let per_rank = 8 * n[0] * n[1] * (n[2] / 2 + 1) / p;
            let per_pair = per_rank / p;
            let bw_mpi = link.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::VendorMpi) / 1e9;
            let bw_p2p = link.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::PeerToPeer) / 1e9;
            let picked = AlltoallMethod::Auto.resolve(per_pair, &topo);
            let sw = match picked {
                AlltoallMethod::PeerToPeer => "P2P",
                AlltoallMethod::VendorMpi => "MPI",
                AlltoallMethod::Auto => "?",
            };
            // does the model agree with the paper about which method wins?
            let paper_winner_p2p = row.p2p[ti] > row.mpi[ti];
            let model_winner_p2p = bw_p2p > bw_mpi;
            total += 1;
            if paper_winner_p2p == model_winner_p2p {
                agree += 1;
            }
            println!(
                "{:>14} {:>5} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>6} {:>8}k",
                fmt_size(n),
                p,
                bw_mpi,
                row.mpi[ti],
                bw_p2p,
                row.p2p[ti],
                sw,
                per_pair / 1024
            );
        }
    }
    println!(
        "\nwinner agreement (model picks the same faster method as the paper): {agree}/{total} cells"
    );
    println!("shape check: P2P ≈ NVLink on one node (~36 GB/s), beats MPI for large per-pair");
    println!("volumes, collapses below the 512 kB switch where the vendor MPI wins.");
}
