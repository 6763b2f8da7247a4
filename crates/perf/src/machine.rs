//! Machine description and modeled kernel time splits.

use claire_mpi::model::{DeviceModel, LinkModel};
use claire_mpi::Topology;
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
}
