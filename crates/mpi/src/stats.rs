//! Per-rank traffic accounting.
//!
//! [`CommStats`] counts bytes, messages, and wall time blocked per
//! [`CommCat`]. The categories are named after the runtime components of
//! the paper's Table 2 so that reproduction harnesses can print the same
//! breakdown (`ghost_comm`, `scatter_comm`, `interp_comm`, ...).

use std::time::Duration;

/// Traffic category, mirroring the paper's instrumented phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommCat {
    /// Ghost-layer exchange for FD stencils and interpolation supports
    /// (`ghost_comm` in Table 2, `comm` in Table 3).
    Ghost,
    /// Sending off-rank query points of backward characteristics
    /// (`scatter_comm` in Table 2).
    Scatter,
    /// Returning interpolated values to the owner of the query point
    /// (`interp_comm` in Table 2).
    InterpValues,
    /// All-to-all transposes of the distributed FFT (§3.3).
    FftTranspose,
    /// Reductions, broadcasts, and scalar control traffic.
    Reduce,
    /// Field scatter/gather for I/O and test harnesses.
    FieldRedist,
    /// Anything else.
    Other,
}

impl CommCat {
    /// All categories, for iteration/reporting.
    pub const ALL: [CommCat; 7] = [
        CommCat::Ghost,
        CommCat::Scatter,
        CommCat::InterpValues,
        CommCat::FftTranspose,
        CommCat::Reduce,
        CommCat::FieldRedist,
        CommCat::Other,
    ];

    /// Stable dense index for array-backed counters.
    pub fn index(self) -> usize {
        match self {
            CommCat::Ghost => 0,
            CommCat::Scatter => 1,
            CommCat::InterpValues => 2,
            CommCat::FftTranspose => 3,
            CommCat::Reduce => 4,
            CommCat::FieldRedist => 5,
            CommCat::Other => 6,
        }
    }

    /// Inverse of [`CommCat::index`], for decoding wire messages.
    pub fn from_index(i: usize) -> Option<CommCat> {
        CommCat::ALL.get(i).copied()
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            CommCat::Ghost => "ghost_comm",
            CommCat::Scatter => "scatter_comm",
            CommCat::InterpValues => "interp_comm",
            CommCat::FftTranspose => "fft_transpose",
            CommCat::Reduce => "reduce",
            CommCat::FieldRedist => "field_redist",
            CommCat::Other => "other",
        }
    }
}

/// Counters for one traffic category.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CatStats {
    /// Bytes sent by this rank in this category (logical payload bytes;
    /// identical across transports).
    pub bytes_sent: u64,
    /// Messages sent by this rank in this category.
    pub msgs_sent: u64,
    /// Bytes that actually crossed a wire for this category, including
    /// framing and control traffic. 0 on the in-process channel transport;
    /// real bytes-on-wire on the socket transport.
    pub wire_bytes: u64,
    /// Wall-clock time this rank spent blocked in receives/collectives.
    pub wall_blocked: Duration,
}

/// A communication operation, for per-collective call/byte accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollOp {
    /// Point-to-point sends issued directly by user code.
    P2p,
    /// [`crate::Comm::barrier`].
    Barrier,
    /// [`crate::Comm::allreduce`].
    Allreduce,
    /// [`crate::Comm::broadcast`].
    Broadcast,
    /// [`crate::Comm::gatherv`].
    Gatherv,
    /// [`crate::Comm::scatterv`].
    Scatterv,
    /// [`crate::Comm::alltoallv`].
    Alltoallv,
}

impl CollOp {
    /// All operations, for iteration/reporting.
    pub const ALL: [CollOp; 7] = [
        CollOp::P2p,
        CollOp::Barrier,
        CollOp::Allreduce,
        CollOp::Broadcast,
        CollOp::Gatherv,
        CollOp::Scatterv,
        CollOp::Alltoallv,
    ];

    /// Stable dense index for array-backed counters.
    pub fn index(self) -> usize {
        match self {
            CollOp::P2p => 0,
            CollOp::Barrier => 1,
            CollOp::Allreduce => 2,
            CollOp::Broadcast => 3,
            CollOp::Gatherv => 4,
            CollOp::Scatterv => 5,
            CollOp::Alltoallv => 6,
        }
    }

    /// Operation name as reported (MPI naming, lowercase).
    pub fn label(self) -> &'static str {
        match self {
            CollOp::P2p => "p2p",
            CollOp::Barrier => "barrier",
            CollOp::Allreduce => "allreduce",
            CollOp::Broadcast => "broadcast",
            CollOp::Gatherv => "gatherv",
            CollOp::Scatterv => "scatterv",
            CollOp::Alltoallv => "alltoallv",
        }
    }
}

/// Call/byte counters for one communication operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Times this rank invoked the operation.
    pub calls: u64,
    /// Payload bytes this rank contributed to those invocations.
    pub bytes: u64,
}

/// Per-rank traffic ledger.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    cats: [CatStats; 7],
    colls: [CollStats; 7],
}

impl CommStats {
    /// Counters for one category.
    pub fn cat(&self, cat: CommCat) -> &CatStats {
        &self.cats[cat.index()]
    }

    pub(crate) fn cat_mut(&mut self, cat: CommCat) -> &mut CatStats {
        &mut self.cats[cat.index()]
    }

    /// Call/byte counters for one communication operation.
    pub fn coll(&self, op: CollOp) -> &CollStats {
        &self.colls[op.index()]
    }

    pub(crate) fn record_coll(&mut self, op: CollOp, bytes: u64) {
        let c = &mut self.colls[op.index()];
        c.calls += 1;
        c.bytes += bytes;
    }

    /// Total bytes sent across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.cats.iter().map(|c| c.bytes_sent).sum()
    }

    /// Wall seconds this rank spent blocked in receives and collectives,
    /// all categories together.
    pub fn blocked_secs(&self) -> f64 {
        self.cats.iter().map(|c| c.wall_blocked.as_secs_f64()).sum()
    }

    /// Merge another rank's ledger into this one (for cluster-wide totals).
    pub fn merge(&mut self, other: &CommStats) {
        for (a, b) in self.cats.iter_mut().zip(other.cats.iter()) {
            a.bytes_sent += b.bytes_sent;
            a.msgs_sent += b.msgs_sent;
            a.wire_bytes += b.wire_bytes;
            a.wall_blocked += b.wall_blocked;
        }
        for (a, b) in self.colls.iter_mut().zip(other.colls.iter()) {
            a.calls += b.calls;
            a.bytes += b.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_totals() {
        let mut a = CommStats::default();
        a.cat_mut(CommCat::Ghost).bytes_sent = 100;
        a.cat_mut(CommCat::Ghost).msgs_sent = 2;
        let mut b = CommStats::default();
        b.cat_mut(CommCat::Ghost).bytes_sent = 50;
        b.cat_mut(CommCat::Scatter).bytes_sent = 7;
        a.merge(&b);
        assert_eq!(a.cat(CommCat::Ghost).bytes_sent, 150);
        assert_eq!(a.total_bytes(), 157);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CommCat::Ghost.label(), "ghost_comm");
        assert_eq!(CommCat::Scatter.label(), "scatter_comm");
        assert_eq!(CommCat::InterpValues.label(), "interp_comm");
    }
}
