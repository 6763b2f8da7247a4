//! Pluggable rank-to-rank message transports.
//!
//! [`Comm`](crate::Comm) implements every collective in terms of tagged
//! point-to-point messages, so the entire communication layer is generic
//! over one small surface: [`Transport`]. Two implementations exist:
//!
//! * [`ChannelTransport`] — the in-process default. Ranks are threads and
//!   messages travel through `std::sync::mpsc` channels (each rank is the one
//!   consumer of its own); nothing crosses a wire, so
//!   `send` reports 0 wire bytes. It moves values: the sender's typed
//!   `Vec<T>` ([`Payload::Values`](crate::message::Payload::Values)) reaches
//!   the receiver as it is, with no byte copy on either side. This is the
//!   path used by [`crate::run_cluster`] and
//!   [`Comm::solo`](crate::Comm::solo).
//! * `SocketTransport` (in the `claire-ipc` crate) — true multi-process
//!   execution over Unix-domain sockets with length-framed binary messages;
//!   it sends bytes: it writes a payload's byte view
//!   ([`Payload::bytes`](crate::message::Payload::bytes)) and delivers
//!   [`Payload::Bytes`](crate::message::Payload::Bytes), and `send` reports
//!   the real bytes-on-wire (frame header + payload).
//!
//! Because the collectives live in `Comm` and reduce in a fixed
//! deterministic rank order, and a receive yields the same elements from
//! moved values as from bytes, swapping the transport changes *how*
//! payloads move but not a single bit of any collective's result, nor a
//! byte or message of the traffic ledger.
//!
//! # Failure model
//!
//! Transports report failures as [`TransportError`] values; `Comm` converts
//! them into panics carrying the typed error (via `std::panic::panic_any`),
//! which [`crate::try_run_cluster`] catches and turns into a
//! [`ClusterError`](crate::cluster::ClusterError). An [`AbortHandle`] shared
//! by all ranks of a cluster lets the first failure wake peers blocked in
//! `recv`, so one dead rank cannot strand the others.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::message::Message;
use crate::topology::Topology;

/// How often a blocked receive re-checks the cluster abort flag.
const ABORT_POLL: Duration = Duration::from_millis(2);

/// How many times a receive looks into its queue, yielding the core after
/// each look, before it parks on the channel (≈ 100 µs on an idle core; a
/// peer's message is mostly 10–50 µs away). A rank that parked is woken onto
/// its sender's core, and two ranks that share a core take turns on it
/// (`reg_2r`: 0.93 s → 1.3 s, 52 % of it waiting); a rank that polls stays
/// runnable on its own, and `yield_now` gives the core away when ranks
/// outnumber cores.
const POLL_ROUNDS: u32 = 200;

/// A transport-level failure.
///
/// Carried as a panic payload through `Comm` so rank functions do not need
/// `Result` plumbing; cluster runners downcast it back to a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A specific peer went away (its process died or its socket broke).
    PeerLost {
        /// Rank of the lost peer.
        peer: usize,
        /// Human-readable failure description.
        detail: String,
    },
    /// The cluster was aborted because another rank failed first.
    Aborted {
        /// Description of the originating failure.
        detail: String,
    },
    /// An I/O error not attributable to a single peer.
    Io {
        /// Human-readable failure description.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerLost { peer, detail } => {
                write!(f, "lost peer rank {peer}: {detail}")
            }
            TransportError::Aborted { detail } => write!(f, "cluster aborted: {detail}"),
            TransportError::Io { detail } => write!(f, "transport i/o error: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Cluster-wide failure flag shared by all ranks of one run.
///
/// The first failing rank publishes its failure description; peers blocked
/// in `recv` observe the flag within one [`ABORT_POLL`] interval and fail
/// with [`TransportError::Aborted`] instead of waiting forever.
#[derive(Debug, Default)]
pub struct AbortHandle {
    flag: AtomicBool,
    detail: Mutex<Option<String>>,
}

impl AbortHandle {
    /// New, un-aborted handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the cluster aborted. The first caller's detail wins.
    pub fn abort(&self, detail: String) {
        let mut d = self.detail.lock().unwrap();
        if d.is_none() {
            *d = Some(detail);
        }
        drop(d);
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has any rank failed?
    pub fn is_aborted(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The first failure's description, if any.
    pub fn detail(&self) -> Option<String> {
        self.detail.lock().unwrap().clone()
    }
}

/// The primitive surface `Comm` is built on: tagged point-to-point message
/// passing between the ranks of one cluster.
///
/// `Send` is a supertrait so a boxed transport can move into rank threads.
pub trait Transport: Send {
    /// This rank's id in `0..topo().nranks`.
    fn rank(&self) -> usize;

    /// The cluster topology agreed at bootstrap.
    fn topo(&self) -> &Topology;

    /// Short identifier for reports: `"channel"` or `"socket"`.
    fn kind(&self) -> &'static str;

    /// Deliver `msg` to rank `dst`. Non-blocking (buffered).
    ///
    /// Returns the number of bytes that crossed a real wire — 0 for
    /// in-process delivery, frame header + payload for sockets — so the
    /// traffic ledger can report honest bytes-on-wire per transport.
    fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError>;

    /// Block until the next message addressed to this rank arrives.
    ///
    /// Ordering guarantee: messages from one `src` arrive in send order
    /// (per-peer FIFO); `Comm` does the `(src, tag)` matching on top.
    fn recv(&mut self) -> Result<Message, TransportError>;
}

/// The in-process default transport: one std channel per rank.
pub struct ChannelTransport {
    rank: usize,
    topo: Topology,
    senders: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    abort: Option<Arc<AbortHandle>>,
}

impl ChannelTransport {
    /// Wire up one rank of an in-process cluster.
    ///
    /// `senders[d]` delivers into rank `d`'s receiver; `abort` (shared by
    /// all ranks of the run) makes blocked receives fail fast when a peer
    /// rank dies instead of deadlocking the cluster.
    pub fn new(
        rank: usize,
        topo: Topology,
        senders: Vec<Sender<Message>>,
        rx: Receiver<Message>,
        abort: Option<Arc<AbortHandle>>,
    ) -> Self {
        assert_eq!(senders.len(), topo.nranks, "one sender per rank");
        assert!(rank < topo.nranks);
        Self { rank, topo, senders, rx, abort }
    }

    /// A single-rank transport whose sends loop back to its own receiver.
    pub fn solo() -> Self {
        let (tx, rx) = channel();
        Self::new(0, Topology::solo(), vec![tx], rx, None)
    }

    /// The channels of one in-process cluster, as the `connect` of
    /// [`crate::try_run_ranks`]: rank `r`'s thread takes its endpoint, once
    /// (a std receiver has one consumer), wired to the run's abort handle.
    pub fn mesh(topo: Topology) -> impl Fn(usize, &Arc<AbortHandle>) -> Self + Sync {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..topo.nranks).map(|_| channel()).unzip();
        let rxs: Vec<_> = rxs.into_iter().map(|rx| Mutex::new(Some(rx))).collect();
        move |rank, abort| {
            let mut slot = rxs[rank].lock().expect("a slot is locked only to take from it");
            let rx = slot.take().expect("a rank connects once");
            Self::new(rank, topo, txs.clone(), rx, Some(Arc::clone(abort)))
        }
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn kind(&self) -> &'static str {
        "channel"
    }

    fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError> {
        // a rank that already returned has dropped its receiver; a message
        // it will never read is not a failure of the sender
        let _ = self.senders[dst].send(msg);
        Ok(0) // in-process: nothing crossed a wire
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        for _ in 0..POLL_ROUNDS {
            if let Ok(msg) = self.rx.try_recv() {
                return Ok(msg);
            }
            std::thread::yield_now();
        }
        loop {
            // without an abort handle (solo / standalone comm) a timeout only
            // re-arms the wait
            if let Some(abort) = self.abort.as_ref().filter(|a| a.is_aborted()) {
                let detail = abort.detail().unwrap_or_else(|| "peer rank failed".into());
                return Err(TransportError::Aborted { detail });
            }
            match self.rx.recv_timeout(ABORT_POLL) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Io {
                        detail: "virtual cluster channel closed (all senders gone)".into(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::stats::CommCat;

    fn msg(src: usize, tag: u64) -> Message {
        Message { src, tag, cat: CommCat::Other, payload: Payload::Bytes(vec![1, 2, 3]) }
    }

    #[test]
    fn channel_send_reports_zero_wire_bytes() {
        let mut t = ChannelTransport::solo();
        assert_eq!(t.send(0, msg(0, 1)).unwrap(), 0);
        let got = t.recv().unwrap();
        assert_eq!((got.src, got.tag), (0, 1));
    }

    #[test]
    fn abort_wakes_blocked_receiver() {
        let abort = Arc::new(AbortHandle::new());
        let (tx, rx) = channel::<Message>();
        let mut t =
            ChannelTransport::new(0, Topology::solo(), vec![tx], rx, Some(Arc::clone(&abort)));
        let a2 = Arc::clone(&abort);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a2.abort("rank 1 exploded".into());
        });
        let err = t.recv().unwrap_err();
        h.join().unwrap();
        assert_eq!(err, TransportError::Aborted { detail: "rank 1 exploded".into() });
    }

    #[test]
    fn late_send_to_a_departed_rank_is_not_an_error() {
        let connect = ChannelTransport::mesh(Topology::new(2, 2));
        let abort = Arc::new(AbortHandle::new());
        let mut stays = connect(0, &abort);
        drop(connect(1, &abort)); // rank 1 returned and took its receiver with it
        assert_eq!(stays.send(1, msg(0, 1)), Ok(0));
    }

    #[test]
    fn recv_fails_typed_once_every_sender_is_gone() {
        // with and without an abort handle to poll
        for abort in [None, Some(Arc::new(AbortHandle::new()))] {
            let (tx, rx) = channel::<Message>();
            let (elsewhere, _kept) = channel::<Message>();
            let mut t = ChannelTransport::new(0, Topology::solo(), vec![elsewhere], rx, abort);
            tx.send(msg(0, 4)).unwrap();
            drop(tx);
            assert_eq!(t.recv().unwrap().tag, 4, "sent before the hang-up: still delivered");
            assert!(matches!(t.recv(), Err(TransportError::Io { .. })));
        }
    }

    #[test]
    fn first_abort_detail_wins() {
        let a = AbortHandle::new();
        a.abort("first".into());
        a.abort("second".into());
        assert_eq!(a.detail().as_deref(), Some("first"));
    }
}
