//! Wire format of the virtual cluster.
//!
//! A message carries its payload in one of two forms.
//! [`Comm`](crate::Comm) sends [`Payload::Values`]: the sender's typed
//! `Vec<T>` itself. A transport whose ranks share one address space
//! ([`ChannelTransport`](crate::ChannelTransport)) moves that vector to the
//! receiver, the way the paper's intra-node P2P hands a device buffer over
//! without staging copies. A transport that crosses an address space (the
//! `claire-ipc` socket transport) writes its byte view and delivers
//! [`Payload::Bytes`]: the raw bytes CUDA-aware MPI would put on the wire.
//! A receive yields the same elements from either form, so the carrier
//! never changes a bit of any result.

use std::any::Any;

use crate::pod::{as_bytes, Pod};
use crate::stats::CommCat;

/// A message in flight between two virtual ranks.
#[derive(Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag; receives match on `(src, tag)` in FIFO order.
    pub tag: u64,
    /// Traffic category for accounting.
    pub cat: CommCat,
    /// The payload, as bytes or as the sender's moved vector.
    pub payload: Payload,
}

/// What a [`Message`] carries.
pub enum Payload {
    /// Raw payload bytes.
    Bytes(Vec<u8>),
    /// A moved `Vec<T>` of some [`Pod`] `T`, with the function that views
    /// that vector as its bytes.
    Values(Box<dyn Any + Send>, fn(&dyn Any) -> &[u8]),
}

/// The byte view of a `Vec<T>` behind `&dyn Any`.
fn vec_bytes<T: Pod>(v: &dyn Any) -> &[u8] {
    as_bytes(v.downcast_ref::<Vec<T>>().expect("a value payload holds the Vec it was made from"))
}

impl Payload {
    /// Hand `data` over as it is.
    pub fn values<T: Pod>(data: Vec<T>) -> Self {
        Payload::Values(Box::new(data), vec_bytes::<T>)
    }

    /// The payload's bytes, whichever form carries them.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Bytes(b) => b,
            Payload::Values(v, view) => view(&**v),
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Payload::Bytes(_) => "Bytes",
            Payload::Values(..) => "Values",
        };
        write!(f, "{kind}({} bytes)", self.bytes().len())
    }
}
