//! End-to-end imaging pipeline: generate → write NIfTI → read → register.

use claire::core::{Claire, PrecondKind, RegistrationConfig};
use claire::data::{brain, nifti};
use claire::grid::{Grid, Layout};
use claire::mpi::Comm;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("claire_pipeline_{}_{name}", std::process::id()));
    p
}

#[test]
fn register_images_loaded_from_disk() {
    let mut comm = Comm::solo();
    let layout = Layout::serial(Grid::cube(12));
    let m0 = brain::subject("na02", layout, &mut comm);
    let m1 = brain::subject("na01", layout, &mut comm);

    // write both volumes, read them back
    let p0 = tmp("m0.nii");
    let p1 = tmp("m1.nii");
    nifti::write(&p0, &m0).unwrap();
    nifti::write(&p1, &m1).unwrap();
    let r0 = nifti::read(&p0).unwrap();
    let r1 = nifti::read(&p1).unwrap();
    std::fs::remove_file(&p0).ok();
    std::fs::remove_file(&p1).ok();

    assert_eq!(r0.layout().grid.n, [12, 12, 12]);
    // f32 storage quantizes f64 fields slightly
    let max_err = m0.data().iter().zip(r0.data()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
    assert!(max_err < 1e-6, "NIfTI roundtrip error {max_err}");

    // register the loaded images
    let cfg = RegistrationConfig {
        nt: 4,
        precond: PrecondKind::InvA,
        beta_target: 1e-2,
        max_gn_iter: 6,
        ..Default::default()
    };
    let mut solver = Claire::new(cfg);
    let (_, report) = solver.register_from(&r0, &r1, "disk", &mut comm);
    assert!(report.rel_mismatch < 0.9, "mismatch {}", report.rel_mismatch);
}
