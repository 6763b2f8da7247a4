//! The per-rank communicator handle.

// Collectives loop over rank ids and skip self; explicit indices match
// the MPI-style pseudocode they implement.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use crate::message::Message;
use crate::model::AlltoallMethod;
use crate::pod::{as_bytes, from_bytes, Pod};
use crate::stats::{CollOp, CommCat, CommStats};
use crate::topology::Topology;
use crate::transport::{ChannelTransport, Transport};

/// Reserved control tags (top of the tag space). User tags must stay below
/// `u64::MAX - 15`; the collectives and the barrier rendezvous own the rest.
const TAG_BAR_UP: u64 = u64::MAX - 10;
const TAG_BAR_DOWN: u64 = u64::MAX - 11;

/// MPI-like communicator for one virtual rank.
///
/// Created by [`crate::run_cluster`] (one per rank thread), by
/// [`Comm::solo`] for serial execution, or by [`Comm::from_transport`] over
/// any [`Transport`] — including the multi-process socket transport in
/// `claire-ipc`. All collective operations must be called by every rank of
/// the cluster, in the same order — exactly the MPI contract the paper's
/// CLAIRE code relies on.
///
/// Every collective is implemented over tagged point-to-point messages in a
/// fixed deterministic rank order (reductions fold contributions in rank
/// order at rank 0), so results are bitwise identical across transports.
pub struct Comm {
    rank: usize,
    topo: Topology,
    transport: Box<dyn Transport>,
    pending: Vec<Message>,
    stats: CommStats,
}

impl Comm {
    /// Wrap a bootstrapped transport in a communicator.
    ///
    /// This is the seam multi-process execution plugs into: `claire-ipc`
    /// hands a `SocketTransport` here and every kernel built on [`Comm`]
    /// runs unchanged across process boundaries.
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        Self {
            rank: transport.rank(),
            topo: *transport.topo(),
            transport,
            pending: Vec::new(),
            stats: CommStats::default(),
        }
    }

    /// A single-rank communicator for serial execution (no threads).
    ///
    /// Self-sends work: they are queued and matched by the next receive.
    pub fn solo() -> Self {
        Comm::from_transport(Box::new(ChannelTransport::solo()))
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.topo.nranks
    }

    /// True iff this is a single-rank communicator.
    pub fn is_solo(&self) -> bool {
        self.size() == 1
    }

    /// The cluster topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Which transport carries this rank's messages (`"channel"`,
    /// `"socket"`, ...); recorded in RunReport.
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Traffic ledger of this rank.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Consume the communicator, yielding its ledger (cluster runners
    /// collect these per rank).
    pub fn into_stats(self) -> CommStats {
        self.stats
    }

    // ----- point to point -------------------------------------------------

    /// Send a typed slice to `dst` with `tag`. Non-blocking (buffered).
    pub fn send<T: Pod>(&mut self, dst: usize, tag: u64, cat: CommCat, data: &[T]) {
        self.stats.record_coll(CollOp::P2p, std::mem::size_of_val(data) as u64);
        self.send_impl(dst, tag, cat, data);
    }

    /// A send that is part of a collective: on the byte/message ledger of
    /// `cat`, not on the `P2p` call count.
    fn send_impl<T: Pod>(&mut self, dst: usize, tag: u64, cat: CommCat, data: &[T]) {
        let payload = as_bytes(data).to_vec();
        let nbytes = payload.len() as u64;
        let msg = Message { src: self.rank, tag, cat, payload };
        let wire = self.transport.send(dst, msg).unwrap_or_else(|e| std::panic::panic_any(e));
        let c = self.stats.cat_mut(cat);
        c.bytes_sent += nbytes;
        c.msgs_sent += 1;
        c.wire_bytes += wire;
    }

    /// Control-plane send (barrier rendezvous): an empty message that
    /// bypasses the message/byte ledger so the logical traffic accounting is
    /// identical across transports, but still attributes real wire bytes to
    /// `Reduce`.
    fn send_control(&mut self, dst: usize, tag: u64) {
        let msg = Message { src: self.rank, tag, cat: CommCat::Reduce, payload: Vec::new() };
        let wire = self.transport.send(dst, msg).unwrap_or_else(|e| std::panic::panic_any(e));
        self.stats.cat_mut(CommCat::Reduce).wire_bytes += wire;
    }

    /// Blocking receive of a typed slice from `src` with `tag`.
    ///
    /// Matches `(src, tag)` in FIFO order; other messages arriving in the
    /// meantime are buffered.
    pub fn recv<T: Pod>(&mut self, src: usize, tag: u64, cat: CommCat) -> Vec<T> {
        from_bytes(&self.recv_msg(src, tag, cat).payload)
    }

    /// The next message from `src` with `tag`; the wait for it, if it has
    /// not arrived yet, is booked as blocked time of `cat`.
    fn recv_msg(&mut self, src: usize, tag: u64, cat: CommCat) -> Message {
        if let Some(pos) = self.pending.iter().position(|m| m.src == src && m.tag == tag) {
            return self.pending.remove(pos);
        }
        let t0 = Instant::now();
        let msg = loop {
            let msg = self.transport.recv().unwrap_or_else(|e| std::panic::panic_any(e));
            if msg.src == src && msg.tag == tag {
                break msg;
            }
            self.pending.push(msg);
        };
        self.stats.cat_mut(cat).wall_blocked += t0.elapsed();
        msg
    }

    /// Combined send to `dst` and receive from `src` (safe pairwise exchange).
    pub fn sendrecv<T: Pod>(
        &mut self,
        dst: usize,
        src: usize,
        tag: u64,
        cat: CommCat,
        data: &[T],
    ) -> Vec<T> {
        self.send(dst, tag, cat, data);
        self.recv(src, tag, cat)
    }

    // ----- collectives ----------------------------------------------------

    /// Barrier: no rank leaves before every rank has entered. Rank 0
    /// collects one empty control message per peer and then releases them —
    /// built on the same point-to-point surface as everything else, so it
    /// works across processes.
    pub fn barrier(&mut self) {
        self.stats.record_coll(CollOp::Barrier, 0);
        if self.is_solo() {
            return;
        }
        if self.rank == 0 {
            for src in 1..self.size() {
                self.recv_msg(src, TAG_BAR_UP, CommCat::Reduce);
            }
            for dst in 1..self.size() {
                self.send_control(dst, TAG_BAR_DOWN);
            }
        } else {
            self.send_control(0, TAG_BAR_UP);
            self.recv_msg(0, TAG_BAR_DOWN, CommCat::Reduce);
        }
    }

    /// All-reduce with a user-provided elementwise combiner.
    ///
    /// Implemented as gather-to-root + broadcast over the message layer,
    /// folding contributions in rank order at rank 0.
    pub fn allreduce<T: Pod, F: Fn(&mut [T], &[T])>(&mut self, data: &mut [T], op: F) {
        self.stats.record_coll(CollOp::Allreduce, std::mem::size_of_val(data) as u64);
        if self.is_solo() {
            return;
        }
        const TAG_UP: u64 = u64::MAX - 1;
        const TAG_DOWN: u64 = u64::MAX - 2;
        if self.rank == 0 {
            for src in 1..self.size() {
                let contrib: Vec<T> = self.recv(src, TAG_UP, CommCat::Reduce);
                assert_eq!(contrib.len(), data.len(), "allreduce length mismatch");
                op(data, &contrib);
            }
            for dst in 1..self.size() {
                self.send_impl(dst, TAG_DOWN, CommCat::Reduce, data);
            }
        } else {
            self.send_impl(0, TAG_UP, CommCat::Reduce, data);
            let result: Vec<T> = self.recv(0, TAG_DOWN, CommCat::Reduce);
            data.copy_from_slice(&result);
        }
    }

    /// Sum-all-reduce for `f64` slices.
    pub fn allreduce_sum(&mut self, data: &mut [f64]) {
        self.allreduce(data, |acc, x| {
            for (a, b) in acc.iter_mut().zip(x) {
                *a += *b;
            }
        });
    }

    /// Scalar sum-all-reduce.
    pub fn allreduce_sum_scalar(&mut self, x: f64) -> f64 {
        let mut buf = [x];
        self.allreduce_sum(&mut buf);
        buf[0]
    }

    /// Scalar max-all-reduce.
    pub fn allreduce_max_scalar(&mut self, x: f64) -> f64 {
        let mut buf = [x];
        self.allreduce(&mut buf, |acc, v| {
            if v[0] > acc[0] {
                acc[0] = v[0];
            }
        });
        buf[0]
    }

    /// Broadcast `data` from `root` to all ranks.
    pub fn broadcast<T: Pod>(&mut self, root: usize, data: &mut Vec<T>) {
        self.stats.record_coll(CollOp::Broadcast, std::mem::size_of_val(data.as_slice()) as u64);
        if self.is_solo() {
            return;
        }
        const TAG_BCAST: u64 = u64::MAX - 3;
        if self.rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_impl(dst, TAG_BCAST, CommCat::Reduce, data);
                }
            }
        } else {
            *data = self.recv(root, TAG_BCAST, CommCat::Reduce);
        }
    }

    /// Gather variable-length contributions to `root`.
    ///
    /// Returns `Some(parts)` (indexed by rank) on `root`, `None` elsewhere.
    pub fn gatherv<T: Pod>(
        &mut self,
        root: usize,
        data: &[T],
        cat: CommCat,
    ) -> Option<Vec<Vec<T>>> {
        if self.is_solo() {
            self.stats.record_coll(CollOp::Gatherv, 0);
            return Some(vec![data.to_vec()]);
        }
        const TAG_GATHER: u64 = u64::MAX - 4;
        if self.rank == root {
            self.stats.record_coll(CollOp::Gatherv, 0);
            let mut parts: Vec<Vec<T>> = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    parts.push(data.to_vec());
                } else {
                    parts.push(self.recv(src, TAG_GATHER, cat));
                }
            }
            Some(parts)
        } else {
            self.stats.record_coll(CollOp::Gatherv, std::mem::size_of_val(data) as u64);
            self.send_impl(root, TAG_GATHER, cat, data);
            None
        }
    }

    /// Scatter variable-length parts from `root`; returns this rank's part.
    pub fn scatterv<T: Pod>(
        &mut self,
        root: usize,
        parts: Option<&[Vec<T>]>,
        cat: CommCat,
    ) -> Vec<T> {
        if self.is_solo() {
            self.stats.record_coll(CollOp::Scatterv, 0);
            return parts.expect("root must provide parts")[0].clone();
        }
        const TAG_SCATTER: u64 = u64::MAX - 5;
        if self.rank == root {
            let parts = parts.expect("root must provide parts");
            assert_eq!(parts.len(), self.size(), "scatterv needs one part per rank");
            let sent: usize = parts
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != root)
                .map(|(_, p)| std::mem::size_of_val(p.as_slice()))
                .sum();
            self.stats.record_coll(CollOp::Scatterv, sent as u64);
            for (dst, part) in parts.iter().enumerate() {
                if dst != root {
                    self.send_impl(dst, TAG_SCATTER, cat, part);
                }
            }
            parts[root].clone()
        } else {
            self.stats.record_coll(CollOp::Scatterv, 0);
            self.recv(root, TAG_SCATTER, cat)
        }
    }

    /// All-to-all-v: rank `r` sends `bufs[d]` to rank `d`; returns the
    /// received parts indexed by source rank.
    ///
    /// The paper's distributed FFT transpose is built on this. `method`
    /// names which of §3.3's two paths the caller would pick on the paper's
    /// machine; it is a hint the in-process and socket transports ignore —
    /// every exchange posts its p − 1 sends asynchronously, like the paper's
    /// peer-to-peer scheme.
    pub fn alltoallv<T: Pod>(
        &mut self,
        bufs: &[Vec<T>],
        cat: CommCat,
        _method: AlltoallMethod,
    ) -> Vec<Vec<T>> {
        assert_eq!(bufs.len(), self.size(), "alltoallv needs one buffer per rank");
        const TAG_A2A: u64 = u64::MAX - 6;
        // post all sends (asynchronous, like the paper's P2P scheme)
        for dst in 0..self.size() {
            if dst != self.rank {
                self.send_impl(dst, TAG_A2A, cat, &bufs[dst]);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(bufs[src].clone());
            } else {
                out.push(self.recv(src, TAG_A2A, cat));
            }
        }
        let per_rank_bytes: usize = bufs
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, b)| std::mem::size_of_val(b.as_slice()))
            .sum();
        self.stats.record_coll(CollOp::Alltoallv, per_rank_bytes as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, try_run_ranks};
    use crate::transport::{AbortHandle, TransportError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn solo_self_send() {
        let mut c = Comm::solo();
        c.send(0, 1, CommCat::Other, &[1.0f64, 2.0]);
        let got: Vec<f64> = c.recv(0, 1, CommCat::Other);
        assert_eq!(got, vec![1.0, 2.0]);
        assert_eq!(c.stats().cat(CommCat::Other).msgs_sent, 1);
        assert_eq!(c.transport_kind(), "channel");
    }

    #[test]
    fn tag_matching_out_of_order() {
        let mut c = Comm::solo();
        c.send(0, 1, CommCat::Other, &[1u32]);
        c.send(0, 2, CommCat::Other, &[2u32]);
        let second: Vec<u32> = c.recv(0, 2, CommCat::Other);
        let first: Vec<u32> = c.recv(0, 1, CommCat::Other);
        assert_eq!((first[0], second[0]), (1, 2));
    }

    #[test]
    fn allreduce_sum_across_ranks() {
        let topo = Topology::new(4, 2);
        let res = run_cluster(topo, |comm| {
            let mut v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&mut v);
            v
        });
        for out in &res.outputs {
            assert_eq!(out, &vec![6.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_max() {
        let topo = Topology::new(3, 4);
        let res = run_cluster(topo, |comm| comm.allreduce_max_scalar(comm.rank() as f64));
        assert!(res.outputs.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn broadcast_from_root() {
        let topo = Topology::new(3, 4);
        let res = run_cluster(topo, |comm| {
            let mut v = if comm.rank() == 1 { vec![42u64, 7] } else { vec![] };
            comm.broadcast(1, &mut v);
            v
        });
        assert!(res.outputs.iter().all(|v| v == &vec![42, 7]));
    }

    #[test]
    fn gatherv_and_scatterv_roundtrip() {
        let topo = Topology::new(4, 4);
        let res = run_cluster(topo, |comm| {
            let mine = vec![comm.rank() as u32; comm.rank() + 1];
            let parts = comm.gatherv(0, &mine, CommCat::FieldRedist);
            let back = comm.scatterv(0, parts.as_deref(), CommCat::FieldRedist);
            back == mine
        });
        assert!(res.outputs.iter().all(|&ok| ok));
    }

    #[test]
    fn alltoallv_permutation() {
        let topo = Topology::new(4, 4);
        let res = run_cluster(topo, |comm| {
            let bufs: Vec<Vec<u64>> =
                (0..comm.size()).map(|d| vec![(comm.rank() * 10 + d) as u64]).collect();
            comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto)
        });
        for (r, out) in res.outputs.iter().enumerate() {
            for (s, part) in out.iter().enumerate() {
                assert_eq!(part, &vec![(s * 10 + r) as u64]);
            }
        }
    }

    #[test]
    fn no_rank_leaves_the_barrier_before_the_last_one_entered() {
        let res = run_cluster(Topology::new(4, 4), |comm| {
            // staggered arrivals, so a barrier that let ranks through early
            // would show; the assertion does not depend on the delays
            std::thread::sleep(Duration::from_millis(15 * comm.rank() as u64));
            let entered = Instant::now();
            comm.barrier();
            (entered, Instant::now())
        });
        let last_in = res.outputs.iter().map(|o| o.0).max().unwrap();
        let first_out = res.outputs.iter().map(|o| o.1).min().unwrap();
        assert!(first_out >= last_in, "a rank left {:?} early", last_in - first_out);
    }

    #[test]
    fn barrier_control_traffic_stays_off_the_ledger() {
        // the rendezvous messages that implement barrier() are control
        // plane: they must not show up as logical bytes/messages, or the
        // ledger would differ between transports and from MPI semantics
        let res = run_cluster(Topology::new(3, 4), |comm| {
            comm.barrier();
            comm.barrier();
            (
                comm.stats().cat(CommCat::Reduce).bytes_sent,
                comm.stats().cat(CommCat::Reduce).msgs_sent,
            )
        });
        for &(bytes, msgs) in &res.outputs {
            assert_eq!((bytes, msgs), (0, 0));
        }
    }

    /// Counts every message a rank puts on its transport.
    struct Counting {
        inner: ChannelTransport,
        sent: Arc<AtomicUsize>,
    }

    impl Transport for Counting {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn topo(&self) -> &Topology {
            self.inner.topo()
        }
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError> {
            self.sent.fetch_add(1, Ordering::Relaxed);
            self.inner.send(dst, msg)
        }
        fn recv(&mut self) -> Result<Message, TransportError> {
            self.inner.recv()
        }
    }

    /// Messages one `op` on every rank of a `p`-rank cluster puts on the
    /// transports, in total.
    fn messages_on_the_transport(p: usize, op: impl Fn(&mut Comm) + Sync) -> usize {
        let topo = Topology::new(p, 4);
        let sent = Arc::new(AtomicUsize::new(0));
        let mesh = ChannelTransport::mesh(topo);
        let connect = |rank: usize, abort: &Arc<AbortHandle>| {
            let inner = mesh(rank, abort);
            Comm::from_transport(Box::new(Counting { inner, sent: Arc::clone(&sent) }))
        };
        try_run_ranks(p, connect, op).unwrap();
        sent.load(Ordering::Relaxed)
    }

    #[test]
    fn collectives_send_their_own_messages_and_no_more() {
        for p in 2..=4 {
            let n = |op: fn(&mut Comm)| messages_on_the_transport(p, op);
            assert_eq!(n(|c| c.allreduce_sum(&mut [1.0])), 2 * (p - 1), "allreduce, p={p}");
            assert_eq!(n(|c| c.broadcast(1, &mut vec![7u64])), p - 1, "broadcast, p={p}");
            let a2a = |c: &mut Comm| {
                let bufs = vec![vec![0u8; 3]; c.size()];
                c.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto);
            };
            assert_eq!(n(a2a), p * (p - 1), "alltoallv, p={p}");
            assert_eq!(n(|c| c.barrier()), 2 * (p - 1), "barrier, p={p}");
        }
    }
}
