//! # claire-ipc — true multi-process distributed execution
//!
//! CLAIRE-rs models a multi-node multi-GPU cluster as threads of one
//! process by default: `claire-mpi`'s channel transport moves messages
//! through in-memory queues at zero serialization cost. This crate supplies
//! the second [`Transport`](claire_mpi::Transport) implementation — real
//! rank *processes* exchanging length-framed binary messages over
//! Unix-domain sockets — plus the launcher that spawns and supervises them.
//!
//! The layering mirrors how CLAIRE's MPI build sits on an interconnect:
//!
//! * [`frame`] — the 4-byte-BE length-framed codec every socket message
//!   travels in;
//! * [`wire`] — binary codecs for rank data messages, the
//!   `Hello`/`Welcome` bootstrap handshake, and worker→launcher result
//!   frames;
//! * [`socket`] — [`SocketTransport`](socket::SocketTransport): full-mesh
//!   Unix-domain-socket transport with a rank-0 rendezvous, one vectored
//!   send path, and real bytes-on-wire accounting feeding
//!   `CommStats`;
//! * [`launch`] — the process launcher behind `claire-cli launch`: spawn N
//!   worker ranks, forward `CLAIRE_THREADS`/`CLAIRE_SIMD`, collect per-rank
//!   RunReports, and reap the cluster with a typed
//!   `ClaireError::RankFailed` when a rank dies (never a hang).
//!
//! Because every collective in `claire-mpi` is built from point-to-point
//! sends in deterministic rank order, swapping the transport changes the
//! bytes' route but not their values: a multi-process solve reproduces the
//! threads-as-ranks solve bit for bit. `tests/ipc_equivalence.rs` at the
//! workspace root holds that property down.

#![forbid(unsafe_code)]

pub mod frame;
pub mod launch;
pub mod socket;
pub mod wire;

pub use launch::{launch, LaunchOutcome, LaunchSpec};
pub use socket::{run_socket_cluster, try_run_socket_cluster, SocketTransport};
pub use wire::{Hello, WorkerFrame, IPC_VERSION};
