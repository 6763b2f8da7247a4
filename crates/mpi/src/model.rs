//! The paper's all-to-all switch (§3.3), as a rule.
//!
//! The paper's machine is TACC Longhorn: 4 NVIDIA V100 per node connected by
//! NVLink, nodes connected by InfiniBand, IBM Spectrum MPI 10.3. Its Table 4
//! measures the sustained all-to-all bandwidth of (a) the vendor
//! `MPI_Alltoall` and (b) the authors' own asynchronous peer-to-peer scheme,
//! and motivates the 512 kB switch between them. This host has neither
//! fabric, so the two transports here move every all-to-all the same way;
//! what the switch *costs* on the paper's machine is `claire-perf`'s
//! subject, which reads the rule from here.

use crate::topology::Topology;

/// Which all-to-all implementation an exchange asks for (paper §3.3).
///
/// A hint: the in-process and socket transports ignore it and post the
/// p − 1 asynchronous sends either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallMethod {
    /// The vendor `MPI_Alltoallv` (IBM Spectrum MPI), which the paper found
    /// to be poorly optimized for direct GPU communication.
    VendorMpi,
    /// The paper's asynchronous peer-to-peer scheme with GPU-direct routes.
    PeerToPeer,
    /// The paper's production setting: P2P within a node or when the
    /// per-pair volume exceeds 512 kB, vendor MPI otherwise.
    Auto,
}

/// The per-pair volume (bytes) above which the paper switches to P2P.
pub const P2P_SWITCH_BYTES: usize = 512 * 1024;

impl AlltoallMethod {
    /// Resolve `Auto` into a concrete method for a given exchange.
    pub fn resolve(self, per_pair_bytes: usize, topo: &Topology) -> AlltoallMethod {
        match self {
            AlltoallMethod::Auto => {
                if topo.nnodes() == 1 || per_pair_bytes >= P2P_SWITCH_BYTES {
                    AlltoallMethod::PeerToPeer
                } else {
                    AlltoallMethod::VendorMpi
                }
            }
            m => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_switch_matches_paper_rule() {
        let topo = Topology::new(8, 4);
        assert_eq!(AlltoallMethod::Auto.resolve(600 * 1024, &topo), AlltoallMethod::PeerToPeer);
        assert_eq!(AlltoallMethod::Auto.resolve(100 * 1024, &topo), AlltoallMethod::VendorMpi);
        let one_node = Topology::new(4, 4);
        assert_eq!(
            AlltoallMethod::Auto.resolve(1, &one_node),
            AlltoallMethod::PeerToPeer,
            "single node always uses NVLink P2P"
        );
    }
}
