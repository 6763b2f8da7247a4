//! Machine description and modeled kernel time splits.
//!
//! This host has no GPUs and no fabric, so the device roofline and the link
//! characteristics of the paper's machine are *modeled* here, the links
//! calibrated against Table 4 (GB/s per rank, large volumes):
//! * P2P intra-node (4 ranks, NVLink): ≈ 36
//! * P2P 2 nodes: ≈ 10, 4 nodes: ≈ 6, ≥8 nodes: ≈ 4.3–4.7
//! * P2P small per-pair volumes (< 512 kB): collapses to < 2 (latency bound)
//! * vendor MPI: 5–6.7 at 4 ranks decaying to ≈ 1.5–3 at 128 ranks, only
//!   mildly dependent on message size.

use claire_mpi::{AlltoallMethod, Topology};
use serde::Serialize;

/// A modeled cluster: device roofline + interconnect + node shape.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// Per-GPU roofline.
    pub device: DeviceModel,
    /// Interconnect α–β model (Table 4 calibration).
    pub link: LinkModel,
    /// GPUs per node (Longhorn: 4).
    pub gpus_per_node: usize,
}

impl Machine {
    /// TACC Longhorn, the paper's system.
    pub fn longhorn() -> Machine {
        Machine { device: DeviceModel::default(), link: LinkModel::default(), gpus_per_node: 4 }
    }

    /// Topology for `p` ranks on this machine.
    pub fn topo(&self, p: usize) -> Topology {
        Topology::new(p, self.gpus_per_node)
    }
}

/// Roofline model of one device (the paper's V100).
///
/// The paper's roofline analysis (via [14]) found both the IP and FD kernels
/// DRAM-bandwidth-bound on the V100, so modeled kernel time is
/// `bytes_moved / dram_bw` with a flop-rate cap for compute-heavy kernels.
#[derive(Clone, Copy, Debug)]
pub struct DeviceModel {
    /// Sustained DRAM bandwidth, bytes/s (V100 HBM2: ~900 GB/s).
    pub dram_bw: f64,
    /// Sustained FP32 throughput, flop/s (V100: ~14 Tflop/s peak, ~7 sustained).
    pub flops: f64,
    /// Kernel launch overhead per kernel invocation, seconds.
    pub launch_overhead: f64,
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self { dram_bw: 780.0e9, flops: 7.0e12, launch_overhead: 5.0e-6 }
    }
}

/// α–β model of the cluster interconnect.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Message startup latency within a node (NVLink P2P), seconds.
    pub lat_intra: f64,
    /// Message startup latency across nodes (InfiniBand), seconds.
    pub lat_inter: f64,
    /// Per-rank NVLink bandwidth within a node, bytes/s.
    pub bw_intra: f64,
    /// Base per-rank inter-node bandwidth for a 2-node exchange, bytes/s.
    pub bw_inter_2node: f64,
    /// Asymptotic per-rank inter-node bandwidth for many nodes, bytes/s.
    pub bw_inter_floor: f64,
    /// Vendor-MPI effective all-to-all bandwidth at 4 ranks, bytes/s.
    pub mpi_bw_base: f64,
    /// Per-doubling decay factor of the vendor MPI bandwidth.
    pub mpi_decay: f64,
}

impl Default for LinkModel {
    /// Longhorn-calibrated defaults (see module docs).
    fn default() -> Self {
        Self {
            lat_intra: 4.0e-6,
            lat_inter: 2.5e-5,
            bw_intra: 36.0e9,
            bw_inter_2node: 10.0e9,
            bw_inter_floor: 4.3e9,
            mpi_bw_base: 6.2e9,
            mpi_decay: 0.82,
        }
    }
}

impl LinkModel {
    /// Time for one point-to-point message of `bytes` over the given link.
    pub fn msg_time(&self, bytes: usize, intra_node: bool) -> f64 {
        let (lat, bw) = if intra_node {
            (self.lat_intra, self.bw_intra)
        } else {
            (self.lat_inter, self.inter_bw(2))
        };
        lat + bytes as f64 / bw
    }

    /// Per-rank inter-node P2P bandwidth as a function of node count.
    ///
    /// Fitted to Table 4: ~10 GB/s at 2 nodes decaying towards a floor of
    /// ~4.3 GB/s when many nodes contend for the fabric.
    pub fn inter_bw(&self, nnodes: usize) -> f64 {
        let n = nnodes.max(2) as f64;
        self.bw_inter_floor + (self.bw_inter_2node - self.bw_inter_floor) * 2.0 / n
    }

    /// Vendor-MPI effective all-to-all bandwidth per rank.
    ///
    /// Decays geometrically per rank-count doubling beyond 4 ranks and
    /// degrades mildly for small per-rank volumes (pinned buffers / staging
    /// overheads dominate), matching Table 4's MPI rows.
    pub fn mpi_alltoall_bw(&self, per_rank_bytes: usize, nranks: usize) -> f64 {
        let doublings = ((nranks.max(4) as f64) / 4.0).log2();
        let base = self.mpi_bw_base * self.mpi_decay.powf(doublings);
        // size saturation: half-speed point at 256 kB per rank
        let sat = per_rank_bytes as f64 / (per_rank_bytes as f64 + 256.0 * 1024.0);
        base * sat.max(0.05)
    }

    /// Modeled wall time of an all-to-all-v exchange where every rank sends
    /// `per_rank_bytes` in total (split evenly over the other ranks).
    ///
    /// Returns the time a participant is busy.
    pub fn alltoall_time(
        &self,
        per_rank_bytes: usize,
        topo: &Topology,
        method: AlltoallMethod,
    ) -> f64 {
        let p = topo.nranks;
        if p <= 1 {
            return 0.0;
        }
        let per_pair = per_rank_bytes / p;
        match method.resolve(per_pair, topo) {
            AlltoallMethod::PeerToPeer => {
                // p-1 asynchronous pairwise exchanges; intra-node pairs ride
                // NVLink, inter-node pairs share the fabric. Latency is paid
                // per message (this is what collapses small-volume P2P).
                let gpn = topo.gpus_per_node.min(p);
                let intra_peers = gpn.saturating_sub(1);
                let inter_peers = p - 1 - intra_peers;
                let t_intra = intra_peers as f64 * self.lat_intra
                    + (intra_peers * per_pair) as f64 / self.bw_intra;
                let bw_inter = self.inter_bw(topo.nnodes());
                let t_inter = inter_peers as f64 * self.lat_inter
                    + (inter_peers * per_pair) as f64 / bw_inter;
                // NVLink and IB transfers overlap; startup costs serialize.
                t_intra.max(t_inter) + 0.3 * t_intra.min(t_inter)
            }
            AlltoallMethod::VendorMpi => {
                per_rank_bytes as f64 / self.mpi_alltoall_bw(per_rank_bytes, p)
            }
            AlltoallMethod::Auto => unreachable!("resolve() removed Auto"),
        }
    }

    /// Sustained "bidirectional bandwidth" figure as reported in Table 4:
    /// bytes actually shipped off-rank divided by exchange time.
    pub fn alltoall_bandwidth(
        &self,
        per_rank_bytes: usize,
        topo: &Topology,
        method: AlltoallMethod,
    ) -> f64 {
        let t = self.alltoall_time(per_rank_bytes, topo, method);
        let p = topo.nranks as f64;
        let shipped = per_rank_bytes as f64 * (p - 1.0) / p;
        if t <= 0.0 {
            f64::INFINITY
        } else {
            shipped / t
        }
    }

    /// Modeled time of a binomial-tree reduction/broadcast of `bytes`.
    pub fn tree_time(&self, bytes: usize, topo: &Topology) -> f64 {
        let p = topo.nranks;
        if p <= 1 {
            return 0.0;
        }
        let stages = (p as f64).log2().ceil();
        let intra = topo.nnodes() == 1;
        stages * self.msg_time(bytes, intra)
    }
}

/// A modeled kernel time split into compute and communication.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct KernelTime {
    /// Seconds of device compute.
    pub compute: f64,
    /// Seconds of communication (including waits).
    pub comm: f64,
}

impl KernelTime {
    /// Construct from parts.
    pub fn new(compute: f64, comm: f64) -> KernelTime {
        KernelTime { compute, comm }
    }

    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.comm
    }

    /// Communication share in percent (the "% comm" columns).
    pub fn comm_pct(&self) -> f64 {
        if self.total() <= 0.0 {
            0.0
        } else {
            100.0 * self.comm / self.total()
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &KernelTime) -> KernelTime {
        KernelTime { compute: self.compute + other.compute, comm: self.comm + other.comm }
    }

    /// Scale both parts (e.g. by an invocation count).
    pub fn scale(&self, s: f64) -> KernelTime {
        KernelTime { compute: self.compute * s, comm: self.comm * s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_pct() {
        let k = KernelTime::new(1.0, 3.0);
        assert!((k.comm_pct() - 75.0).abs() < 1e-12);
        assert!((k.total() - 4.0).abs() < 1e-12);
        let z = KernelTime::default();
        assert_eq!(z.comm_pct(), 0.0);
    }

    #[test]
    fn longhorn_shape() {
        let m = Machine::longhorn();
        assert_eq!(m.gpus_per_node, 4);
        assert_eq!(m.topo(32).nnodes(), 8);
    }

    fn gib(b: f64) -> f64 {
        b / 1e9
    }

    #[test]
    fn p2p_intra_node_is_fast() {
        let m = LinkModel::default();
        let topo = Topology::new(4, 4);
        // 256^3 single-precision complex slab, as in Table 4 row 1
        let per_rank = 8 * 256 * 256 * 129 / 4;
        let bw = m.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::PeerToPeer);
        assert!(gib(bw) > 20.0, "intra-node P2P should approach NVLink: {}", gib(bw));
        let bw_mpi = m.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::VendorMpi);
        assert!(bw > 3.0 * bw_mpi, "P2P should beat vendor MPI on-node");
    }

    #[test]
    fn p2p_collapses_for_small_pair_volumes() {
        let m = LinkModel::default();
        let topo = Topology::new(64, 4);
        // 256^3 over 64 ranks: per-pair volume ~ 16 kB << 512 kB
        let per_rank = 8 * 256 * 256 * 129 / 64;
        let p2p = m.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::PeerToPeer);
        let mpi = m.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::VendorMpi);
        assert!(p2p < mpi, "latency-bound P2P must lose: p2p={} mpi={}", gib(p2p), gib(mpi));
    }

    #[test]
    fn solo_comm_is_free() {
        let m = LinkModel::default();
        let topo = Topology::solo();
        assert_eq!(m.alltoall_time(123456, &topo, AlltoallMethod::Auto), 0.0);
        assert_eq!(m.tree_time(8, &topo), 0.0);
    }
}
