//! Atlas-to-subject annotation transfer (the paper's Fig. 2 use case).
//!
//! ```bash
//! cargo run --release --example annotation_transfer -- [n]
//! ```
//!
//! "Once we have found the diffeomorphism, we can transfer the annotations
//! of the anatomical regions identified in the atlas to the CLARITY
//! dataset, and study anatomical subregions." This example runs that
//! pipeline on the brain phantom: register the atlas to a subject,
//! transport the atlas's ventricle annotation with the computed velocity,
//! and score the transferred label against the subject's own (known)
//! ventricle region with the Dice overlap — the NIREP-style accuracy
//! metric.

use claire::core::metrics;
use claire::data::brain;
use claire::interp::Interpolator;
use claire::prelude::*;
use claire::semilag::{Trajectory, Transport};

/// Ventricle indicator of the canonical atlas geometry (the two dark
/// slots of `brain::canonical`), as a soft mask.
fn ventricle_mask(layout: Layout) -> ScalarField {
    let c = [claire::grid::PI, claire::grid::PI, claire::grid::PI];
    ScalarField::from_fn(layout, move |x1, x2, x3| {
        let slot = |cy: Real| {
            let d = ((0.5 * (x1 - c[0])).sin() * 2.0 / 0.45).powi(2)
                + ((0.5 * (x2 - (c[1] + cy))).sin() * 2.0 / 0.18).powi(2)
                + ((0.5 * (x3 - (c[2] + 0.15))).sin() * 2.0 / 0.35).powi(2);
            (-d).exp()
        };
        (slot(-0.35) + slot(0.35)).min(1.0)
    })
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));

    // The subject is the atlas warped by a known subject-specific
    // diffeomorphism, so its "true" ventricle annotation is the atlas mask
    // transported by that same warp — ground truth for scoring.
    println!("generating atlas (na01) and subject (na05) at {n}^3 ...");
    let atlas = brain::subject("na01", layout, &mut comm);
    let subject = brain::subject("na05", layout, &mut comm);
    let atlas_mask = ventricle_mask(layout);
    let subject_mask = {
        let v_subj = brain::random_smooth_velocity(layout, 1005, 0.35, 2);
        let ip = Interpolator::new(IpOrder::Cubic);
        let tr = Transport::new(4, IpOrder::Cubic);
        let traj = Trajectory::compute(&v_subj, 4, &ip, &mut comm);
        let mut sol = tr.solve_state(&traj, &atlas_mask, false, &ip, &mut comm);
        sol.m.pop().unwrap()
    };

    // register atlas -> subject
    let cfg = RegistrationConfig::builder()
        .nt(4)
        .ip_order(IpOrder::Cubic)
        .beta(5e-4)
        .max_gn_iter(10)
        .build()
        .expect("valid configuration");
    println!("registering atlas -> subject with {} ...", cfg.precond.label());
    let mut solver = Claire::new(cfg);
    let (v, report) = solver.register_from(&atlas, &subject, "na05", &mut comm);
    println!(
        "  mismatch {:.3e}, GN {}, PCG {}, det(∇y) ∈ [{:.3}, {:.3}]",
        report.rel_mismatch,
        report.gn_iters,
        report.pcg_iters,
        report.jac_det_min,
        report.jac_det_max
    );

    // transfer the annotation: transport the atlas mask with the computed v
    let ip = Interpolator::new(IpOrder::Cubic);
    let tr = Transport::new(4, IpOrder::Cubic);
    let traj = Trajectory::compute(&v, 4, &ip, &mut comm);
    let transferred = {
        let mut sol = tr.solve_state(&traj, &atlas_mask, false, &ip, &mut comm);
        sol.m.pop().unwrap()
    };

    let dice_before = metrics::dice(&atlas_mask, &subject_mask, 0.5, &mut comm);
    let dice_after = metrics::dice(&transferred, &subject_mask, 0.5, &mut comm);
    let jaccard_after = metrics::jaccard(&transferred, &subject_mask, 0.5, &mut comm);
    println!("\nannotation overlap with the subject's true ventricles:");
    println!("  Dice before registration : {dice_before:.3}");
    println!("  Dice after registration  : {dice_after:.3}");
    println!("  Jaccard after            : {jaccard_after:.3}");
    assert!(dice_after > dice_before, "registration must improve the annotation overlap");
    println!(
        "\nok: the transferred annotation matches the subject anatomy better after registration."
    );
}
