//! Launching a virtual cluster: one thread per rank.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::comm::Comm;
use crate::stats::CommStats;
use crate::topology::Topology;
use crate::transport::{AbortHandle, ChannelTransport, TransportError};

/// Everything a cluster run produces: per-rank outputs and traffic ledgers
/// (indexed by rank).
#[derive(Debug)]
pub struct ClusterResult<R> {
    /// Per-rank return values of the rank function.
    pub outputs: Vec<R>,
    /// Per-rank traffic ledgers.
    pub stats: Vec<CommStats>,
}

impl<R> ClusterResult<R> {
    /// Cluster-wide merged traffic ledger.
    pub fn total_stats(&self) -> CommStats {
        let mut total = CommStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// Wall seconds the most-blocked rank spent waiting in receives and
    /// collectives — over the run's wall time, the measured counterpart of
    /// the "% comm" columns of the paper's Tables 3 and 7.
    pub fn max_blocked_secs(&self) -> f64 {
        self.stats.iter().map(CommStats::blocked_secs).fold(0.0, f64::max)
    }
}

/// Typed failure of a cluster run: the first rank whose function failed.
///
/// Raised instead of a deadlock: when one rank panics, the shared
/// [`AbortHandle`] wakes every peer blocked in a receive, the secondary
/// `Aborted` failures are filtered out, and the originating rank's failure
/// is reported. `claire-grid` converts this into `ClaireError::RankFailed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError {
    /// The rank that failed first.
    pub rank: usize,
    /// Description of the failure (panic message or transport error).
    pub detail: String,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.detail)
    }
}

impl std::error::Error for ClusterError {}

/// What a caught panic said: the [`TransportError`] a communication failure
/// raised through `panic_any`, or the text `panic!` formatted.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(e) = payload.downcast_ref::<TransportError>() {
        e.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked without a message".to_string()
    }
}

/// How far a failure is from being the one that started it: a rank's own
/// panic (0), a transport that broke under it — in a cluster of threads
/// because a peer went first (1) — or a wake-up from the abort handle (2).
fn indirection(payload: &(dyn Any + Send)) -> u8 {
    match payload.downcast_ref::<TransportError>() {
        Some(TransportError::Aborted { .. }) => 2,
        Some(_) => 1,
        None => 0,
    }
}

/// Run `f` on every rank of a virtual cluster.
///
/// Blocks until all ranks return. Rank functions communicate through the
/// [`Comm`] handle they receive. See the crate-level example. Panics if any
/// rank fails; use [`try_run_cluster`] for a typed error instead.
pub fn run_cluster<R, F>(topo: Topology, f: F) -> ClusterResult<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    match try_run_cluster(topo, f) {
        Ok(res) => res,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible cluster run: one dead rank aborts the others and surfaces as a
/// typed [`ClusterError`] instead of a hang or an opaque join panic.
pub fn try_run_cluster<R, F>(topo: Topology, f: F) -> Result<ClusterResult<R>, ClusterError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let mesh = ChannelTransport::mesh(topo);
    let connect =
        |rank, abort: &Arc<AbortHandle>| Comm::from_transport(Box::new(mesh(rank, abort)));
    try_run_ranks(topo.nranks, connect, f)
}

/// The rank-thread harness under every in-process cluster, whatever carries
/// its messages: one scoped thread per rank runs `f` over the [`Comm`] that
/// `connect(rank, abort)` builds on that thread. A rank that panics — in
/// `connect` or in `f` — trips the shared [`AbortHandle`], which a transport
/// built with it polls to wake peers blocked in a receive; the run then
/// fails with the failure that was not itself the consequence of another.
pub fn try_run_ranks<R, F, C>(
    nranks: usize,
    connect: C,
    f: F,
) -> Result<ClusterResult<R>, ClusterError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
    C: Fn(usize, &Arc<AbortHandle>) -> Comm + Sync,
{
    let abort = Arc::new(AbortHandle::new());
    type RankOutcome<R> = Result<(R, CommStats), Box<dyn Any + Send>>;
    let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|scope| {
        let rank_thread = |rank| {
            let (abort, connect, f) = (&abort, &connect, &f);
            scope.spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut comm = connect(rank, abort);
                    let out = f(&mut comm);
                    (out, comm.into_stats())
                }));
                // wake the peers this rank will never answer; the first
                // failure's description wins
                run.inspect_err(|payload| {
                    if indirection(payload.as_ref()) < 2 {
                        abort.abort(panic_message(payload.as_ref()));
                    }
                })
            })
        };
        let handles: Vec<_> = (0..nranks).map(rank_thread).collect();
        // rank functions are fully caught above; a join error would mean a
        // panic in the harness itself, so propagate that one
        handles.into_iter().map(|h| h.join().expect("cluster harness panicked")).collect()
    });

    // a rank that only died because another one had is noise: report the
    // lowest rank among the failures nearest the origin
    let failures =
        outcomes.iter().enumerate().filter_map(|(rank, o)| Some((rank, o.as_ref().err()?)));
    if let Some((rank, payload)) = failures.min_by_key(|(rank, p)| (indirection(p.as_ref()), *rank))
    {
        return Err(ClusterError { rank, detail: panic_message(payload.as_ref()) });
    }
    let (outputs, stats) = outcomes.into_iter().flatten().unzip();
    Ok(ClusterResult { outputs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CommCat;
    use std::time::{Duration, Instant};

    #[test]
    fn outputs_indexed_by_rank() {
        let res = run_cluster(Topology::new(5, 4), |comm| comm.rank() * comm.rank());
        assert_eq!(res.outputs, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn total_stats_accumulate() {
        let res = run_cluster(Topology::new(2, 4), |comm| {
            let peer = 1 - comm.rank();
            let got: Vec<u8> = comm.sendrecv(peer, peer, 3, CommCat::Ghost, &[0u8; 100]);
            got.len()
        });
        assert_eq!(res.outputs, vec![100, 100]);
        let total = res.total_stats();
        assert_eq!(total.cat(CommCat::Ghost).bytes_sent, 200);
        assert_eq!(total.cat(CommCat::Ghost).msgs_sent, 2);
    }

    #[test]
    fn single_rank_cluster_matches_solo() {
        let res = run_cluster(Topology::solo(), |comm| {
            assert!(comm.is_solo());
            comm.allreduce_sum_scalar(5.0)
        });
        assert_eq!(res.outputs, vec![5.0]);
    }

    #[test]
    fn dead_rank_aborts_blocked_peers_with_typed_error() {
        // rank 2 dies while every other rank is blocked in a receive that
        // will never be answered: the run must fail promptly with the
        // originating rank's message, not deadlock or report a secondary
        // abort
        let t0 = Instant::now();
        let err = try_run_cluster(Topology::new(4, 4), |comm| {
            if comm.rank() == 2 {
                panic!("simulated rank failure");
            }
            let _: Vec<u8> = comm.recv(2, 77, CommCat::Other);
        })
        .unwrap_err();
        assert_eq!(err.rank, 2);
        assert!(err.detail.contains("simulated rank failure"), "detail: {}", err.detail);
        assert!(t0.elapsed() < Duration::from_secs(10), "abort should be prompt");
    }

    #[test]
    fn run_cluster_panics_with_failed_rank_message() {
        let caught = std::panic::catch_unwind(|| {
            run_cluster(Topology::new(2, 4), |comm| {
                if comm.rank() == 1 {
                    panic!("boom");
                }
                comm.barrier();
            });
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("rank 1 failed"), "panic message: {msg}");
        assert!(msg.contains("boom"), "panic message: {msg}");
    }
}
