//! Cluster topology: how virtual ranks map onto virtual nodes.
//!
//! On TACC Longhorn (the paper's system) each node hosts four V100 GPUs and
//! CLAIRE uses one MPI rank per GPU. How many nodes a run spans decides
//! which link its traffic uses: NVLink peer-to-peer inside a node versus
//! InfiniBand between nodes — the distinction behind the paper's Table 4.

/// Shape of the virtual cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Total number of ranks (one rank per virtual GPU, as in the paper).
    pub nranks: usize,
    /// Ranks (GPUs) per node; Longhorn has 4.
    pub gpus_per_node: usize,
}

impl Topology {
    /// Create a topology with `nranks` ranks and `gpus_per_node` ranks per node.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(nranks: usize, gpus_per_node: usize) -> Self {
        assert!(nranks > 0, "topology needs at least one rank");
        assert!(gpus_per_node > 0, "topology needs at least one GPU per node");
        Self { nranks, gpus_per_node }
    }

    /// Single-rank topology (serial execution).
    pub fn solo() -> Self {
        Self::new(1, 1)
    }

    /// Longhorn-style topology: 4 GPUs per node, as in the paper's runs.
    pub fn longhorn(nranks: usize) -> Self {
        Self::new(nranks, 4)
    }

    /// Number of nodes (ceiling division).
    pub fn nnodes(&self) -> usize {
        self.nranks.div_ceil(self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longhorn_node_mapping() {
        let t = Topology::longhorn(32);
        assert_eq!(t.nnodes(), 8);
    }

    #[test]
    fn solo_is_single_node() {
        let t = Topology::solo();
        assert_eq!(t.nnodes(), 1);
    }

    #[test]
    fn partial_last_node() {
        let t = Topology::new(6, 4);
        assert_eq!(t.nnodes(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Topology::new(0, 4);
    }
}
