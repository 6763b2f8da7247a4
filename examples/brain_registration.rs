//! Multi-subject brain registration (the paper's Fig. 1 workflow).
//!
//! ```bash
//! cargo run --release --example brain_registration -- [n] [template] [reference]
//! ```
//!
//! Registers a NIREP-like phantom subject (default `na10`) to the atlas
//! subject (`na01`), compares all three Hessian preconditioners, and
//! writes the template, reference, deformed template, and residuals as
//! NIfTI-1 volumes to `out/` — the full clinical-style pipeline.

use claire::data::{brain, nifti};
use claire::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let template_name = args.next().unwrap_or_else(|| "na10".to_string());
    let reference_name = args.next().unwrap_or_else(|| "na01".to_string());

    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(n));
    println!("generating phantoms {template_name} (template) and {reference_name} (reference) at {n}^3 ...");
    let m0 = brain::subject(&template_name, layout, &mut comm);
    let m1 = brain::subject(&reference_name, layout, &mut comm);

    println!("\n{}", RegistrationReport::header());
    let mut best: Option<(RegistrationReport, VectorField)> = None;
    for pc in [PrecondKind::InvA, PrecondKind::InvH0, PrecondKind::TwoLevelInvH0] {
        let cfg = RegistrationConfig::builder()
            .nt(4)
            .precond(pc)
            .beta(5e-4)
            .max_gn_iter(10)
            .build()
            .expect("valid configuration");
        let mut solver = Claire::new(cfg);
        let (v, report) = solver.register_from(&m0, &m1, &template_name, &mut comm);
        println!("{}", report.row());
        if best.as_ref().map(|(b, _)| report.rel_mismatch < b.rel_mismatch).unwrap_or(true) {
            best = Some((report, v));
        }
    }
    let (report, v) = best.expect("at least one run");
    println!(
        "\nbest: {} — mismatch {:.3e}, det(∇y) ∈ [{:.3}, {:.3}]",
        report.pc, report.rel_mismatch, report.jac_det_min, report.jac_det_max
    );

    // write the imaging products
    let out = std::path::Path::new("out");
    std::fs::create_dir_all(out).expect("create out/");
    let cfg = RegistrationConfig::builder().nt(4).build().expect("valid configuration");
    let mut problem = RegProblem::new(m0.clone(), m1.clone(), cfg, &mut comm)
        .expect("matching layouts by construction");
    let deformed = problem.deformed_template(&v, &mut comm);
    let residual_before = diff_image(&m0, &m1);
    let residual_after = diff_image(&deformed, &m1);
    for (name, img) in [
        ("template.nii", &m0),
        ("reference.nii", &m1),
        ("deformed_template.nii", &deformed),
        ("residual_before.nii", &residual_before),
        ("residual_after.nii", &residual_after),
    ] {
        nifti::write(&out.join(name), img).expect("write NIfTI");
    }
    println!("wrote out/template.nii, reference.nii, deformed_template.nii, residual_{{before,after}}.nii");
}

fn diff_image(a: &ScalarField, b: &ScalarField) -> ScalarField {
    let mut d = a.clone();
    d.axpy(-1.0, b);
    d.map_inplace(|x| x.abs());
    d
}
