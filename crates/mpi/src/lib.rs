//! Virtual-cluster message-passing substrate for CLAIRE-rs.
//!
//! The paper (Brunn et al., SC 2020) runs CLAIRE on a multi-node multi-GPU
//! system (TACC Longhorn: 4 NVIDIA V100 per node, CUDA-aware IBM Spectrum
//! MPI). This crate substitutes that environment with a *virtual cluster*:
//! every MPI rank ("one GPU per rank" in the paper) becomes an OS thread, and
//! messages travel through in-process channels instead of NVLink/InfiniBand.
//!
//! The message layer itself is pluggable: [`Comm`] is generic over a
//! [`Transport`] (tagged point-to-point send/recv), with the in-process
//! [`ChannelTransport`] as the zero-cost default. The `claire-ipc` crate
//! provides a Unix-domain-socket transport so ranks can be real OS
//! processes with disjoint address spaces — the paper's actual execution
//! model. All collectives reduce in a fixed rank order over the transport
//! primitives, so results are bitwise identical whichever transport runs.
//!
//! The substitution preserves two things the paper's evaluation depends on:
//!
//! 1. **Semantics.** [`Comm`] exposes the MPI-like operations CLAIRE uses:
//!    tagged point-to-point send/recv, barriers, reductions, broadcast,
//!    gather, and the all-to-all-v exchange that backs the distributed FFT
//!    transpose. Distributed kernels built on top behave exactly like their
//!    MPI counterparts (including message ordering and completion semantics).
//! 2. **Accounting.** Every operation records its traffic in a per-rank
//!    [`CommStats`] ledger, bucketed by [`CommCat`] so the five phases of the
//!    paper's Table 2 (`ghost_comm`, `scatter_comm`, `interp_comm`, ...) can
//!    be reported, together with the wall time the rank spent blocked in
//!    each. What the same traffic would cost on the paper's machine is not
//!    this crate's business: `claire-perf` models that from the byte counts.
//!
//! # Example
//!
//! ```
//! use claire_mpi::{run_cluster, Topology, CommCat};
//!
//! // 4 ranks, 2 "GPUs" per node -> 2 nodes.
//! let topo = Topology::new(4, 2);
//! let result = run_cluster(topo, |comm| {
//!     // ring exchange: send rank id to the right neighbour
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, CommCat::Other, &[comm.rank() as u64]);
//!     let got: Vec<u64> = comm.recv(left, 7, CommCat::Other);
//!     got[0]
//! });
//! assert_eq!(result.outputs, vec![3, 0, 1, 2]);
//! ```

pub mod cluster;
pub mod comm;
pub mod message;
pub mod model;
pub mod pod;
pub mod stats;
pub mod topology;
pub mod transport;

pub use cluster::{
    panic_message, run_cluster, try_run_cluster, try_run_ranks, ClusterError, ClusterResult,
};
pub use comm::Comm;
pub use message::{Message, Payload};
pub use model::AlltoallMethod;
pub use pod::Pod;
pub use stats::{CatStats, CollOp, CollStats, CommCat, CommStats};
pub use topology::Topology;
pub use transport::{AbortHandle, ChannelTransport, Transport, TransportError};
