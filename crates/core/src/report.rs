//! Registration reports — the rows of the paper's Table 6.

use serde::{Deserialize, Serialize};

/// Everything Table 6 reports about one registration run, plus
/// diffeomorphism diagnostics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistrationReport {
    /// Dataset label (e.g. `na02`).
    pub data: String,
    /// Preconditioner label (`InvA`, `InvH0`, `2LInvH0`).
    pub pc: String,
    /// Solver arithmetic width label (`f64` or `mixed`; a peer older than
    /// the mixed lane sends none and ran full width).
    #[serde(default = "full_width")]
    pub precision: String,
    /// Global grid.
    pub grid: [usize; 3],
    /// Semi-Lagrangian time steps.
    pub nt: usize,
    /// Ranks (virtual GPUs).
    pub nranks: usize,
    /// Gauss–Newton iterations (`GN` column).
    pub gn_iters: usize,
    /// Accumulated PCG iterations (`PCG` column).
    pub pcg_iters: usize,
    /// Objective evaluations, line-search trials included (a peer older
    /// than this key sends none).
    #[serde(default)]
    pub obj_evals: usize,
    /// Gauss–Newton Hessian matvecs.
    #[serde(default)]
    pub hess_applies: usize,
    /// Whether the last β-level reached the gradient tolerance.
    #[serde(default)]
    pub converged: bool,
    /// Relative mismatch `‖m(1) − m1‖/‖m0 − m1‖` (`mism.` column).
    pub rel_mismatch: f64,
    /// Relative gradient norm (`‖g‖rel` column).
    pub grad_rel: f64,
    /// Applications of InvA (`[A]` column).
    pub n_inva: usize,
    /// Applications of InvH0/2LInvH0 (`[B|C]` column).
    pub n_invh0: usize,
    /// Inner PCG iterations to invert H0, total (`total` column).
    pub inner_cg_total: usize,
    /// Inner PCG iterations per application (`avg.` column).
    pub inner_cg_avg: f64,
    /// Wall seconds in the preconditioner (`PC`).
    pub time_pc: f64,
    /// Wall seconds in objective evaluations (`Obj`).
    pub time_obj: f64,
    /// Wall seconds in gradient evaluations (`Grad`).
    pub time_grad: f64,
    /// Wall seconds in Hessian matvecs (`Hess`).
    pub time_hess: f64,
    /// Wall seconds total (`Total`).
    pub time_total: f64,
    /// Minimum of `det(∇y)` (diffeomorphism check; must be > 0).
    pub jac_det_min: f64,
    /// Maximum of `det(∇y)`.
    pub jac_det_max: f64,
    /// Modeled memory per rank (paper formula, single-precision words).
    pub memory_bytes_per_rank: u64,
}

fn full_width() -> String {
    crate::Precision::F64.label().to_string()
}

impl RegistrationReport {
    /// Table 6 header.
    pub fn header() -> String {
        format!(
            "{:8} {:8} {:>4} {:>5} {:>9} {:>9} {:>5} {:>5} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>8}",
            "data", "PC", "GN", "PCG", "mism.", "|g|_rel", "[A]", "[B|C]", "total", "avg.",
            "PC", "Obj", "Grad", "Hess", "Total"
        )
    }

    /// One Table 6 row (wall times).
    pub fn row(&self) -> String {
        format!(
            "{:8} {:8} {:>4} {:>5} {:>9.2e} {:>9.2e} {:>5} {:>5} {:>6} {:>5.1} | {:>8.2e} {:>8.2e} {:>8.2e} {:>8.2e} {:>8.2e}",
            self.data,
            self.pc,
            self.gn_iters,
            self.pcg_iters,
            self.rel_mismatch,
            self.grad_rel,
            self.n_inva,
            self.n_invh0,
            self.inner_cg_total,
            self.inner_cg_avg,
            self.time_pc,
            self.time_obj,
            self.time_grad,
            self.time_hess,
            self.time_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistrationReport {
        RegistrationReport {
            data: "na02".into(),
            pc: "2LInvH0".into(),
            precision: "f64".into(),
            grid: [32, 32, 32],
            nt: 4,
            nranks: 1,
            gn_iters: 14,
            pcg_iters: 28,
            obj_evals: 19,
            hess_applies: 28,
            converged: true,
            rel_mismatch: 2.79e-2,
            grad_rel: 3.23e-2,
            n_inva: 3,
            n_invh0: 25,
            inner_cg_total: 294,
            inner_cg_avg: 11.8,
            time_pc: 1.04,
            time_obj: 0.205,
            time_grad: 0.435,
            time_hess: 1.52,
            time_total: 4.44,
            jac_det_min: 0.4,
            jac_det_max: 2.1,
            memory_bytes_per_rank: 5_090_000_000,
        }
    }

    #[test]
    fn rows_render() {
        let r = sample();
        assert!(RegistrationReport::header().contains("PCG"));
        assert!(r.row().contains("2LInvH0"));
    }

    #[test]
    fn serializes_to_json() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"gn_iters\":14"));
    }
}
