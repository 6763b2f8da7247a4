//! The Unix-domain-socket transport: ranks as OS processes.
//!
//! Each rank binds its own listener socket (`rank-<i>.sock`) inside a shared
//! rendezvous directory, then builds a full mesh: rank `i` connects to every
//! rank `j < i` (retrying until the peer's listener exists) and accepts a
//! connection from every rank `j > i`. Every stream opens with a [`Hello`]
//! frame carrying `(rank, topology, protocol version)`; rank 0 — the
//! rendezvous point — validates that all ranks agree and releases the
//! cluster with a `Welcome` frame. Connect-before-accept is deadlock-free
//! because a bound listener queues connections in its backlog before
//! `accept` is ever called.
//!
//! Messages are length-framed binary ([`crate::frame`]'s 4-byte-BE
//! framing) with a fixed 16-byte header. Every send writes the length, the
//! header and the payload with one vectored write straight from their
//! slices, whatever the size: the stream socket's flow control takes the
//! place of a clear-to-send round trip. One reader thread per peer decodes
//! frames into an internal queue that [`Transport::recv`] drains.

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use claire_grid::{ClaireError, ClaireResult};
use claire_mpi::transport::{AbortHandle, Transport, TransportError};
use claire_mpi::{ClusterError, ClusterResult, Comm, Message, Topology};

use crate::frame::{self, FrameError, MAX_FRAME_BYTES};
use crate::wire::{self, Hello};

/// How often a blocked receive re-checks the abort flag.
const ABORT_POLL: Duration = Duration::from_millis(2);

/// How long [`SocketTransport::bootstrap`] keeps retrying the mesh
/// construction before giving up (covers peers that are still starting).
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Path of rank `r`'s listener inside the rendezvous directory.
pub fn rank_socket_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.sock"))
}

/// A fresh, unique rendezvous directory under the system temp dir.
pub fn fresh_rendezvous_dir(label: &str) -> std::io::Result<PathBuf> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "claire-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

enum Inbound {
    Msg(Message),
    PeerDown { peer: usize, detail: String },
}

/// [`Transport`] over Unix-domain sockets: one stream per peer, one reader
/// thread per stream, real bytes-on-wire accounting.
pub struct SocketTransport {
    rank: usize,
    topo: Topology,
    /// Write halves, indexed by peer rank (`None` at self).
    peers: Vec<Option<UnixStream>>,
    inbox: Receiver<Inbound>,
    readers: Vec<JoinHandle<()>>,
    abort: Option<Arc<AbortHandle>>,
}

fn io_err(context: &str, e: impl std::fmt::Display) -> ClaireError {
    ClaireError::Io { context: "SocketTransport::bootstrap", message: format!("{context}: {e}") }
}

impl SocketTransport {
    /// Join the cluster rendezvous in `dir` as `rank` and build the mesh.
    ///
    /// Blocks until every peer stream is connected, validated, and rank 0
    /// has released the cluster; fails typed after 30 s. `abort` is the
    /// shared abort flag of an in-process socket cluster; `None` for real
    /// worker processes (the launcher supervises those).
    pub fn bootstrap(
        dir: &Path,
        rank: usize,
        topo: Topology,
        abort: Option<Arc<AbortHandle>>,
    ) -> ClaireResult<SocketTransport> {
        let size = topo.nranks;
        assert!(rank < size, "rank {rank} out of range for {size} ranks");
        let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;

        let own_path = rank_socket_path(dir, rank);
        // a stale socket file from a crashed previous run would make bind fail
        let _ = std::fs::remove_file(&own_path);
        let listener = UnixListener::bind(&own_path)
            .map_err(|e| io_err(&format!("bind {}", own_path.display()), e))?;

        let mut peers: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();

        // connect to every lower rank (their listeners queue us in their
        // backlog even before they accept)
        #[allow(clippy::needless_range_loop)] // indexing `peers[j]` mirrors the mesh layout
        for j in 0..rank {
            let path = rank_socket_path(dir, j);
            let stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io_err(
                                &format!("connect to rank {j} at {}", path.display()),
                                e,
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            };
            let hello = wire::encode_hello(&Hello { rank, topo });
            let mut w = &stream;
            frame::write_frame(&mut w, &hello)
                .map_err(|e| io_err(&format!("hello to rank {j}"), e))?;
            peers[j] = Some(stream);
        }

        // accept every higher rank; the Hello identifies which one connected
        for _ in rank + 1..size {
            let (stream, _) = listener.accept().map_err(|e| io_err("accept", e))?;
            let mut r = &stream;
            let hello_frame =
                frame::read_frame(&mut r, MAX_FRAME_BYTES).map_err(|e| io_err("read hello", e))?;
            let hello = wire::decode_hello(&hello_frame).map_err(|e| io_err("decode hello", e))?;
            if hello.topo != topo {
                return Err(io_err(
                    "rendezvous",
                    format!(
                        "rank {} was launched with topology {:?}, this rank with {:?}",
                        hello.rank, hello.topo, topo
                    ),
                ));
            }
            if hello.rank <= rank || hello.rank >= size || peers[hello.rank].is_some() {
                return Err(io_err(
                    "rendezvous",
                    format!("unexpected or duplicate hello from rank {}", hello.rank),
                ));
            }
            peers[hello.rank] = Some(stream);
        }

        // rank-0 rendezvous: once all hellos are in, release the cluster;
        // everyone else waits for the release before exchanging data
        if size > 1 {
            if rank == 0 {
                let welcome = wire::encode_welcome(&topo);
                for peer in peers.iter().flatten() {
                    let mut w = peer;
                    frame::write_frame(&mut w, &welcome).map_err(|e| io_err("send welcome", e))?;
                }
            } else {
                let mut r = peers[0].as_ref().expect("rank 0 stream");
                let welcome_frame = frame::read_frame(&mut r, MAX_FRAME_BYTES)
                    .map_err(|e| io_err("read welcome", e))?;
                let agreed = wire::decode_welcome(&welcome_frame)
                    .map_err(|e| io_err("decode welcome", e))?;
                if agreed != topo {
                    return Err(io_err("rendezvous", "rank 0 agreed on a different topology"));
                }
            }
        }

        // split each stream: reader threads decode frames into one queue
        let (tx, inbox) = channel::<Inbound>();
        let mut readers = Vec::new();
        for (peer, slot) in peers.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let read_half = stream.try_clone().map_err(|e| io_err("clone stream for reader", e))?;
            readers.push(spawn_reader(peer, read_half, tx.clone()));
        }
        drop(tx);

        Ok(SocketTransport { rank, topo, peers, inbox, readers, abort })
    }
}

fn spawn_reader(peer: usize, stream: UnixStream, tx: Sender<Inbound>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut r = &stream;
        loop {
            match frame::read_frame(&mut r, MAX_FRAME_BYTES) {
                Ok(payload) => match wire::decode_msg(&payload) {
                    Ok(msg) => {
                        if tx.send(Inbound::Msg(msg)).is_err() {
                            return; // transport dropped
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Inbound::PeerDown { peer, detail: e.to_string() });
                        return;
                    }
                },
                // clean close on a frame boundary: the peer finished and
                // dropped its transport — normal shutdown skew, not failure
                Err(FrameError::Closed) => return,
                Err(e) => {
                    let _ = tx.send(Inbound::PeerDown { peer, detail: e.to_string() });
                    return;
                }
            }
        }
    })
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn kind(&self) -> &'static str {
        "socket"
    }

    fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError> {
        let header = wire::encode_msg_header(&msg);
        let payload = msg.payload.bytes();
        let wire_bytes = (4 + header.len() + payload.len()) as u64;
        let stream = self.peers[dst].as_mut().ok_or_else(|| TransportError::Io {
            detail: format!("no stream to rank {dst} (self-send is not routed over sockets)"),
        })?;
        frame::write_frame_parts(stream, &header, payload)
            .map_err(|e| TransportError::PeerLost { peer: dst, detail: e.to_string() })?;
        Ok(wire_bytes)
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        loop {
            if let Some(abort) = &self.abort {
                if abort.is_aborted() {
                    let detail = abort.detail().unwrap_or_else(|| "peer rank failed".into());
                    return Err(TransportError::Aborted { detail });
                }
            }
            match self.inbox.recv_timeout(ABORT_POLL) {
                Ok(Inbound::Msg(msg)) => return Ok(msg),
                Ok(Inbound::PeerDown { peer, detail }) => {
                    return Err(TransportError::PeerLost { peer, detail })
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Io { detail: "all peer connections closed".into() })
                }
            }
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // unblock our readers (and peers' readers) so joins are bounded
        for stream in self.peers.iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// in-process socket clusters (tests, benches, the --in-process comparison)
// ---------------------------------------------------------------------------

/// Run `f` on every rank of a cluster whose ranks are threads of this
/// process but whose messages travel through real Unix-domain sockets.
///
/// This exercises the full socket path — bootstrap handshake, framing,
/// vectored sends, reader threads — without spawning processes;
/// the proptest equivalence suite and the transport bench rows use it.
/// Panics on failure; see [`try_run_socket_cluster`] for the typed variant.
pub fn run_socket_cluster<R, F>(topo: Topology, f: F) -> ClusterResult<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    match try_run_socket_cluster(topo, f) {
        Ok(res) => res,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_socket_cluster`]: one dead rank aborts the others and
/// surfaces as a typed [`ClusterError`].
pub fn try_run_socket_cluster<R, F>(topo: Topology, f: F) -> Result<ClusterResult<R>, ClusterError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let dir = fresh_rendezvous_dir("sockcluster")
        .unwrap_or_else(|e| panic!("cannot create rendezvous dir: {e}"));
    let connect = |rank: usize, abort: &Arc<AbortHandle>| {
        let transport = SocketTransport::bootstrap(&dir, rank, topo, Some(Arc::clone(abort)))
            .unwrap_or_else(|e| {
                std::panic::panic_any(TransportError::Io { detail: e.to_string() })
            });
        Comm::from_transport(Box::new(transport))
    };
    let result = claire_mpi::try_run_ranks(topo.nranks, connect, f);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_mpi::{AlltoallMethod, CommCat};

    #[test]
    fn socket_cluster_ring_exchange() {
        let res = run_socket_cluster(Topology::new(3, 2), |comm| {
            assert_eq!(comm.transport_kind(), "socket");
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 7, CommCat::Other, &[comm.rank() as u64]);
            let got: Vec<u64> = comm.recv(left, 7, CommCat::Other);
            got[0]
        });
        assert_eq!(res.outputs, vec![2, 0, 1]);
    }

    #[test]
    fn socket_send_reports_real_wire_bytes() {
        let res = run_socket_cluster(Topology::new(2, 2), |comm| {
            let peer = 1 - comm.rank();
            let got: Vec<u8> = comm.sendrecv(peer, peer, 3, CommCat::Ghost, &[0u8; 100]);
            assert_eq!(got.len(), 100);
            comm.stats().cat(CommCat::Ghost).wire_bytes
        });
        // 4-byte frame length + 16-byte header + 100 payload bytes
        assert_eq!(res.outputs, vec![120, 120]);
    }

    #[test]
    fn small_and_large_payloads_share_one_send_path() {
        // one send path for every size: a small and a 4 MiB payload both
        // arrive intact, each charged its frame's length, header and payload
        let small: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let big: Vec<u8> = (0..4 << 20).map(|i: usize| (i * 7 + i / 251) as u8).collect();
        let res = run_socket_cluster(Topology::new(2, 2), |comm| {
            let peer = 1 - comm.rank();
            let mut wire = Vec::new();
            for payload in [&small, &big] {
                let before = comm.stats().cat(CommCat::Other).wire_bytes;
                let got: Vec<u8> = comm.sendrecv(peer, peer, 1, CommCat::Other, &payload[..]);
                assert!(got == *payload, "{} B payload arrived changed", payload.len());
                wire.push(comm.stats().cat(CommCat::Other).wire_bytes - before);
            }
            wire
        });
        let want = [small.len(), big.len()].map(|len| (4 + 16 + len) as u64).to_vec();
        assert_eq!(res.outputs, vec![want.clone(), want]);
    }

    #[test]
    fn collectives_run_over_sockets() {
        let res = run_socket_cluster(Topology::new(4, 2), |comm| {
            let sum = comm.allreduce_sum_scalar(comm.rank() as f64 + 1.0);
            let bufs: Vec<Vec<u64>> =
                (0..comm.size()).map(|d| vec![(comm.rank() * 10 + d) as u64]).collect();
            let a2a = comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto);
            comm.barrier();
            (sum, a2a[2][0])
        });
        for (r, &(sum, from2)) in res.outputs.iter().enumerate() {
            assert_eq!(sum, 10.0);
            assert_eq!(from2, (2 * 10 + r) as u64);
        }
    }

    #[test]
    fn dead_rank_yields_typed_error_not_hang() {
        let t0 = Instant::now();
        let err = try_run_socket_cluster(Topology::new(3, 2), |comm| {
            if comm.rank() == 1 {
                panic!("socket rank down");
            }
            let _: Vec<u8> = comm.recv(1, 5, CommCat::Other);
        })
        .unwrap_err();
        assert_eq!(err.rank, 1);
        assert!(err.detail.contains("socket rank down"), "{}", err.detail);
        assert!(t0.elapsed() < Duration::from_secs(20));
    }
}
