//! CLARITY-scale registration (the paper's Fig. 2 / Table 6 CLARITY runs).
//!
//! ```bash
//! cargo run --release --example clarity_registration -- [n]
//! ```
//!
//! Registers two CLARITY-like phantom volumes on an anisotropic grid
//! (2n × n × n, like the paper's 1024×384×384 crop) with the looser inner
//! tolerance `εH0 = 1e-2` the paper uses for this high-frequency data.

use claire::data::clarity;
use claire::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(24);

    let mut comm = Comm::solo();
    let size = [2 * n, n, n];
    let layout = Layout::serial(Grid::new(size));
    println!(
        "generating CLARITY-like pair at {}x{}x{} (speckle + vessels) ...",
        size[0], size[1], size[2]
    );
    let (m0, m1) = clarity::pair(layout, &mut comm);

    println!("\n{}", RegistrationReport::header());
    for pc in [PrecondKind::InvA, PrecondKind::TwoLevelInvH0] {
        let cfg = RegistrationConfig::builder()
            .nt(4)
            .precond(pc)
            .eps_h0(1e-2) // paper's CLARITY setting
            .beta(5e-4)
            .max_gn_iter(10)
            .build()
            .expect("valid configuration");
        let mut solver = Claire::new(cfg);
        let (_, report) = solver.register_from(&m0, &m1, "clarity", &mut comm);
        println!("{}", report.row());
        // CLARITY registrations plateau at a higher mismatch than MRI
        // (speckle is not alignable); the paper reports ~2e-1.
        assert!(report.rel_mismatch < 1.0);
    }
    println!("\nnote: like the paper's CLARITY rows, the mismatch plateaus well above the NIREP");
    println!("level — the speckle content is not registrable, only the anatomy is.");
}
