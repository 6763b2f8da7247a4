//! Ablations for the design choices the paper calls out in the text:
//!
//! 1. **store-∇m** — "storing the gradient of the state variable reduces
//!    the runtime by approximately 15% (but increases the memory
//!    pressure)";
//! 2. **interpolation order** — GPU-TXTLIN vs GPU-TXTLAG accuracy/speed;
//! 3. **P2P switch** — the 512 kB threshold between the vendor MPI and
//!    peer-to-peer all-to-all (§3.3);
//! 4. **β floor in H0** — "if we use a lower bound of 5e−2 for β in (9),
//!    the preconditioner remains effective even for vanishing βs".

use claire_bench::{bench_n, header};
use claire_core::{workspace, PrecondKind, RegProblem, RegistrationConfig};
use claire_data::truth::fig3_problem;
use claire_grid::{Grid, Layout, ScalarField, VectorField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::{AlltoallMethod, Comm, Topology};
use claire_opt::GnProblem;
use claire_perf::LinkModel;
use claire_semilag::{Trajectory, Transport};

fn main() {
    let n = bench_n();
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));

    // ---- 1. store-grad ----------------------------------------------------
    header("Ablation 1 — store ∇m vs recompute (Hessian matvec cost)");
    let prob_data = fig3_problem(layout, &mut comm);
    for &store in &[false, true] {
        let cfg = RegistrationConfig::builder()
            .nt(4)
            .ip_order(IpOrder::Linear)
            .store_grad(store)
            .precond(PrecondKind::InvA)
            .continuation(false)
            .build()
            .expect("valid configuration");
        // the pools' high-water from here on is this configuration's
        workspace::reset_stats();
        let mut prob = RegProblem::new(
            prob_data.template.clone(),
            prob_data.reference.clone(),
            cfg,
            &mut comm,
        )
        .expect("matching layouts by construction");
        prob.set_beta(1e-2);
        let t0 = std::time::Instant::now();
        let g = prob.gradient(&prob_data.v_true.clone(), &mut comm);
        let grad_wall = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            let _ = prob.hess_vec(&g, &mut comm);
        }
        let matvec_wall = t0.elapsed().as_secs_f64();
        let peak = workspace::peak_bytes();
        println!(
            "store_grad = {store:5}: 5 Hessian matvecs wall {matvec_wall:.3}s (gradient wall \
             {grad_wall:.3}s), pool high-water {:.1} MiB = {:.1} words/point",
            peak as f64 / (1 << 20) as f64,
            peak as f64 / 8.0 / layout.local_len() as f64
        );
    }
    println!(
        "expected: storing ∇m removes (Nt+1) FD gradients per matvec (~15% end-to-end in the \
         paper) and holds 3·(Nt+1) more fields."
    );

    // ---- 2. interpolation order -------------------------------------------
    header("Ablation 2 — GPU-TXTLIN vs GPU-TXTLAG vs GPU-TXTSPL");
    let m0img = claire_data::brain::subject("na10", layout, &mut comm);
    let v = claire_data::brain::random_smooth_velocity(layout, 42, 0.4, 2);
    let spectral = claire_diff::Spectral::new(layout.grid, &comm);
    for order in [IpOrder::Linear, IpOrder::Cubic, IpOrder::CubicSpline] {
        let ip = Interpolator::new(order);
        let tr = Transport::new(4, order);
        let traj = Trajectory::compute(&v, 4, &ip, &mut comm);
        // TXTSPL reads B-spline coefficients: prefilter the transported
        // field each step — this is exactly the extra global step that made
        // the paper prefer TXTLAG in the distributed setting (§3.1).
        let mut prefilter_time = 0.0f64;
        let prepare = |f: &ScalarField, comm: &mut Comm, acc: &mut f64| -> ScalarField {
            if order.needs_prefilter() {
                let t = std::time::Instant::now();
                let out = spectral.bspline_prefilter(f, comm);
                *acc += t.elapsed().as_secs_f64();
                out
            } else {
                f.clone()
            }
        };
        let t0 = std::time::Instant::now();
        // one-step-at-a-time advection so the spline path can re-prefilter
        let mut cur = m0img.clone();
        for _ in 0..4 {
            let coef = prepare(&cur, &mut comm, &mut prefilter_time);
            let vals = ip.interp(&coef, &traj.foot_back, &mut comm);
            cur = ScalarField::from_data(layout, vals);
        }
        let wall = t0.elapsed().as_secs_f64();
        // transport forward then backward: measures scheme dissipation
        let vneg = {
            let mut w = v.clone();
            w.scale(-1.0);
            w
        };
        let traj_back = Trajectory::compute(&vneg, 4, &ip, &mut comm);
        let mut back = cur.clone();
        for _ in 0..4 {
            let coef = prepare(&back, &mut comm, &mut prefilter_time);
            let vals = ip.interp(&coef, &traj_back.foot_back, &mut comm);
            back = ScalarField::from_data(layout, vals);
        }
        let mut d: ScalarField = back.clone();
        d.axpy(-1.0, &m0img);
        let err = d.norm_l2(&mut comm) / m0img.norm_l2(&mut comm);
        println!(
            "{:12} ({}): advection wall {:.3}s (prefilter {:.3}s), round-trip error {:.3e}",
            format!("{order:?}"),
            order.kernel_name(),
            wall,
            prefilter_time,
            err
        );
        let _ = tr;
    }
    println!(
        "expected: cubic ~{}x the flops of linear but far more accurate; the spline",
        482 / 30
    );
    println!("kernel matches cubic accuracy but pays a global prefilter per advected field —");
    println!("the communication the paper avoids by choosing GPU-TXTLAG for multi-GPU runs.");

    // ---- 3. P2P switch ------------------------------------------------------
    header("Ablation 3 — all-to-all method vs per-pair volume (512 kB switch)");
    let link = LinkModel::default();
    let topo = Topology::longhorn(16);
    println!("{:>12} | {:>9} {:>9} {:>7} | auto picks", "pair vol", "MPI GB/s", "P2P GB/s", "best");
    for kb in [32usize, 128, 256, 512, 1024, 4096] {
        let per_rank = kb * 1024 * topo.nranks;
        let mpi = link.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::VendorMpi) / 1e9;
        let p2p = link.alltoall_bandwidth(per_rank, &topo, AlltoallMethod::PeerToPeer) / 1e9;
        let auto = AlltoallMethod::Auto.resolve(kb * 1024, &topo);
        println!(
            "{:>10}kB | {:>9.2} {:>9.2} {:>7} | {:?}",
            kb,
            mpi,
            p2p,
            if p2p > mpi { "P2P" } else { "MPI" },
            auto
        );
    }

    // ---- 4. beta floor in H0 -----------------------------------------------
    header("Ablation 4 — β floor (5e-2) inside InvH0 for vanishing β");
    for &(floor, label) in &[(5e-2, "with floor (paper)"), (1e-12, "without floor")] {
        let cfg = RegistrationConfig::builder()
            .nt(4)
            .ip_order(IpOrder::Cubic)
            .precond(PrecondKind::InvH0)
            .beta_floor(floor)
            .continuation(false)
            .build()
            .expect("valid configuration");
        let mut prob = RegProblem::new(
            prob_data.template.clone(),
            prob_data.reference.clone(),
            cfg,
            &mut comm,
        )
        .expect("matching layouts by construction");
        let beta = 5e-4; // vanishing β regime
        prob.set_beta(beta);
        let g = prob.gradient(&prob_data.v_true.clone(), &mut comm);
        let s = prob.precond(&g, 0.1, &mut comm);
        let amp = s.norm_l2(&mut comm) / g.norm_l2(&mut comm);
        println!(
            "{label:>20}: inner CG iters = {:>3}, amplification |s|/|r| = {:.3e}",
            prob.pc.inner_iters, amp
        );
    }
    println!(
        "expected: without the floor the inner solve works much harder (or stagnates) as β → 0."
    );
    let _: Option<VectorField> = None;
}
