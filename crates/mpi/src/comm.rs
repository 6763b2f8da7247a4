//! The per-rank communicator handle.

// Collectives loop over rank ids and skip self; explicit indices match
// the MPI-style pseudocode they implement.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use crate::message::{Message, Payload};
use crate::model::AlltoallMethod;
use crate::pod::{from_bytes, Pod};
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
///
/// A message carries the sent `Vec<T>` itself: the channel transport hands
/// it to the receiver, the socket transport writes its bytes. The owning
/// forms ([`Comm::send_owned`], [`Comm::alltoallv_owned`]) copy nothing on
/// the sending side, and the borrowing forms copy once.
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
        self.send_impl(dst, tag, cat, data.to_vec());
    }

    /// [`Comm::send`] consuming `data`: the vector itself goes to `dst`.
    pub fn send_owned<T: Pod>(&mut self, dst: usize, tag: u64, cat: CommCat, data: Vec<T>) {
        self.stats.record_coll(CollOp::P2p, std::mem::size_of_val(data.as_slice()) as u64);
        self.send_impl(dst, tag, cat, data);
    }

    /// A send that is part of a collective: on the byte/message ledger of
    /// `cat`, not on the `P2p` call count.
    fn send_impl<T: Pod>(&mut self, dst: usize, tag: u64, cat: CommCat, data: Vec<T>) {
        let payload = Payload::values(data);
        let nbytes = payload.bytes().len() as u64;
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
        let payload = Payload::Bytes(Vec::new());
        let msg = Message { src: self.rank, tag, cat: CommCat::Reduce, payload };
        let wire = self.transport.send(dst, msg).unwrap_or_else(|e| std::panic::panic_any(e));
        self.stats.cat_mut(CommCat::Reduce).wire_bytes += wire;
    }

    /// Blocking receive of a typed slice from `src` with `tag`.
    ///
    /// Matches `(src, tag)` in FIFO order; other messages arriving in the
    /// meantime are buffered. A moved `Vec<T>` is returned as it is; any
    /// other payload is read as bytes, so receiving another element type
    /// than was sent reinterprets the bits exactly as over a wire.
    ///
    /// # Panics
    ///
    /// If the payload is not a whole number of `T`s, naming the message.
    pub fn recv<T: Pod>(&mut self, src: usize, tag: u64, cat: CommCat) -> Vec<T> {
        let payload = self.recv_msg(src, tag, cat).payload;
        let payload = match payload {
            Payload::Values(v, view) => match v.downcast::<Vec<T>>() {
                Ok(v) => return *v,
                Err(v) => Payload::Values(v, view),
            },
            bytes => bytes,
        };
        let bytes = payload.bytes();
        from_bytes(bytes).unwrap_or_else(|| {
            panic!(
                "message from rank {src}, tag {tag}, category {}: {} bytes are not a whole \
                 number of {}-byte elements",
                cat.label(),
                bytes.len(),
                std::mem::size_of::<T>()
            )
        })
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
                self.send_impl(dst, TAG_DOWN, CommCat::Reduce, data.to_vec());
            }
        } else {
            self.send_impl(0, TAG_UP, CommCat::Reduce, data.to_vec());
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

    /// Scalar max-all-reduce; NaN if any rank's `x` is NaN.
    pub fn allreduce_max_scalar(&mut self, x: f64) -> f64 {
        let mut buf = [x];
        self.allreduce(&mut buf, |acc, v| {
            if v[0] > acc[0] || v[0].is_nan() {
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
                    self.send_impl(dst, TAG_BCAST, CommCat::Reduce, data.clone());
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
            self.send_impl(root, TAG_GATHER, cat, data.to_vec());
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
                    self.send_impl(dst, TAG_SCATTER, cat, part.clone());
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
    ///
    /// Every part is copied once, into [`Comm::alltoallv_owned`]. A caller
    /// that packed its buffers for this exchange alone should hand them over
    /// to that form instead.
    pub fn alltoallv<T: Pod>(
        &mut self,
        bufs: &[Vec<T>],
        cat: CommCat,
        method: AlltoallMethod,
    ) -> Vec<Vec<T>> {
        self.alltoallv_owned(bufs.to_vec(), cat, method)
    }

    /// [`Comm::alltoallv`] consuming `bufs`: this rank's own part moves into
    /// the result and each peer's part moves into its message.
    pub fn alltoallv_owned<T: Pod>(
        &mut self,
        bufs: Vec<Vec<T>>,
        cat: CommCat,
        _method: AlltoallMethod,
    ) -> Vec<Vec<T>> {
        assert_eq!(bufs.len(), self.size(), "alltoallv needs one buffer per rank");
        const TAG_A2A: u64 = u64::MAX - 6;
        // post all sends (asynchronous, like the paper's P2P scheme)
        let (mut own, mut per_rank_bytes) = (Vec::new(), 0);
        for (dst, buf) in bufs.into_iter().enumerate() {
            if dst == self.rank {
                own = buf;
            } else {
                per_rank_bytes += std::mem::size_of_val(buf.as_slice()) as u64;
                self.send_impl(dst, TAG_A2A, cat, buf);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(std::mem::take(&mut own));
            } else {
                out.push(self.recv(src, TAG_A2A, cat));
            }
        }
        self.stats.record_coll(CollOp::Alltoallv, per_rank_bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, try_run_ranks, ClusterResult};
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

    /// Part r → d reaches d at index r, through the owning and the
    /// borrowing form alike, on 1–4 ranks.
    #[test]
    fn alltoallv_permutation() {
        for p in 1..=4 {
            let res = run_cluster(Topology::new(p, 4), |comm| {
                let r = comm.rank();
                // part r → d holds (r + d) % 3 values: some parts are empty,
                // the own part of ranks 0 and 3 among them
                let bufs: Vec<Vec<u64>> = (0..comm.size())
                    .map(|d| (0..(r + d) % 3).map(|i| (100 * r + 10 * d + i) as u64).collect())
                    .collect();
                let borrowed = comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto);
                let after_borrowed = ledger(comm.stats());
                let owned = comm.alltoallv_owned(bufs, CommCat::FftTranspose, AlltoallMethod::Auto);
                let twice: Vec<_> = after_borrowed.iter().map(|&(a, b)| (2 * a, 2 * b)).collect();
                assert_eq!(ledger(comm.stats()), twice, "both forms book the same traffic");
                (borrowed, owned)
            });
            for (r, (borrowed, owned)) in res.outputs.iter().enumerate() {
                assert_eq!(borrowed, owned, "p={p} rank {r}");
                for (s, part) in owned.iter().enumerate() {
                    let want: Vec<u64> =
                        (0..(s + r) % 3).map(|i| (100 * s + 10 * r + i) as u64).collect();
                    assert_eq!(part, &want, "p={p}: part {s} → {r}");
                }
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

    /// A transport that, like the socket transport, delivers only a
    /// payload's bytes, here over the channels, and counts every message.
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
            "bytes"
        }
        fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError> {
            self.sent.fetch_add(1, Ordering::Relaxed);
            let payload = Payload::Bytes(msg.payload.bytes().to_vec());
            self.inner.send(dst, Message { payload, ..msg })
        }
        fn recv(&mut self) -> Result<Message, TransportError> {
            self.inner.recv()
        }
    }

    /// `f` on every rank of a `p`-rank cluster over [`Counting`] transports,
    /// and the messages they carried, in total.
    fn run_on_bytes<R: Send>(
        p: usize,
        f: impl Fn(&mut Comm) -> R + Sync,
    ) -> (ClusterResult<R>, usize) {
        let topo = Topology::new(p, 4);
        let sent = Arc::new(AtomicUsize::new(0));
        let mesh = ChannelTransport::mesh(topo);
        let connect = |rank: usize, abort: &Arc<AbortHandle>| {
            let inner = mesh(rank, abort);
            Comm::from_transport(Box::new(Counting { inner, sent: Arc::clone(&sent) }))
        };
        let res = try_run_ranks(p, connect, f).unwrap_or_else(|e| panic!("{e}"));
        (res, sent.load(Ordering::Relaxed))
    }

    /// `(bytes_sent, msgs_sent)` of every category, then `(calls, bytes)` of
    /// every operation: the ledger every transport must keep alike.
    fn ledger(stats: &CommStats) -> Vec<(u64, u64)> {
        let cats = CommCat::ALL.iter().map(|&c| (stats.cat(c).bytes_sent, stats.cat(c).msgs_sent));
        let colls = CollOp::ALL.iter().map(|&op| (stats.coll(op).calls, stats.coll(op).bytes));
        cats.chain(colls).collect()
    }

    /// Every path a payload can take — borrowed and owned sends and
    /// all-to-alls, a type pun, the collectives — as bit patterns.
    fn battery(comm: &mut Comm) -> Vec<u64> {
        let (r, p) = (comm.rank(), comm.size());
        let mut bits = Vec::new();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        comm.send(right, 1, CommCat::Ghost, &[r as f64 + 0.5, -1.0]);
        comm.send_owned(right, 2, CommCat::Ghost, vec![[r as u32; 3]]);
        comm.send_owned(right, 3, CommCat::Other, vec![(r as f64 + 0.25).to_bits()]);
        let got: Vec<f64> = comm.recv(left, 1, CommCat::Ghost);
        bits.extend(got.iter().map(|x| x.to_bits()));
        let got: Vec<[u32; 3]> = comm.recv(left, 2, CommCat::Ghost);
        bits.extend(got.iter().flatten().map(|&x| x as u64));
        // sent as u64, received as f64: the same bits either way
        let punned: Vec<f64> = comm.recv(left, 3, CommCat::Other);
        bits.extend(punned.iter().map(|x| x.to_bits()));
        let bufs: Vec<Vec<f32>> = (0..p)
            .map(|d| (0..(r + d) % 3).map(|i| (r * 10 + d) as f32 + i as f32).collect())
            .collect();
        for part in comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto) {
            bits.extend(part.iter().map(|x| x.to_bits() as u64));
        }
        for part in comm.alltoallv_owned(bufs, CommCat::Scatter, AlltoallMethod::Auto) {
            bits.extend(part.iter().map(|x| x.to_bits() as u64));
        }
        bits.push(comm.allreduce_sum_scalar(r as f64 * 0.1).to_bits());
        let mut b = if r == 0 { vec![7u64, 9] } else { Vec::new() };
        comm.broadcast(0, &mut b);
        bits.extend(b);
        let parts = comm.gatherv(0, &vec![r as u16; r + 1], CommCat::FieldRedist);
        bits.extend(
            comm.scatterv(0, parts.as_deref(), CommCat::FieldRedist).iter().map(|&x| x as u64),
        );
        comm.barrier();
        bits
    }

    #[test]
    fn byte_transports_give_the_same_results_and_ledger() {
        for p in 1..=4 {
            let chan = run_cluster(Topology::new(p, 4), battery);
            let (bytes, _) = run_on_bytes(p, battery);
            assert_eq!(chan.outputs, bytes.outputs, "p={p}");
            for (c, b) in chan.stats.iter().zip(&bytes.stats) {
                assert_eq!(ledger(c), ledger(b), "p={p}");
            }
        }
    }

    #[test]
    fn a_receive_of_a_mismatched_element_size_names_the_message() {
        // 12 bytes are no whole number of f64s, moved or as bytes
        let recv_u32s_as_f64s = |comm: &mut Comm| {
            comm.send_owned(0, 5, CommCat::Ghost, vec![1u32, 2, 3]);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Vec<f64> = comm.recv(0, 5, CommCat::Ghost);
            }))
            .map_err(|e| crate::panic_message(&*e))
        };
        let mut solo = Comm::solo();
        let (bytes, _) = run_on_bytes(1, recv_u32s_as_f64s);
        for err in [recv_u32s_as_f64s(&mut solo), bytes.outputs.into_iter().next().unwrap()] {
            let err = err.expect_err("a 12-byte payload read as f64s");
            for part in ["rank 0", "tag 5", "ghost_comm", "12 bytes", "8-byte"] {
                assert!(err.contains(part), "{part:?} missing from {err:?}");
            }
        }
    }

    #[test]
    fn collectives_send_their_own_messages_and_no_more() {
        for p in 2..=4 {
            // messages one op on every rank puts on the transports, in total
            let n = |op: fn(&mut Comm)| run_on_bytes(p, op).1;
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
