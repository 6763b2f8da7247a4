//! Wire format of the virtual cluster.

use crate::stats::CommCat;

/// A message in flight between two virtual ranks.
///
/// The payload is an owned byte buffer, mirroring the raw device buffers
/// CUDA-aware MPI moves between GPUs.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag; receives match on `(src, tag)` in FIFO order.
    pub tag: u64,
    /// Traffic category for accounting.
    pub cat: CommCat,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}
