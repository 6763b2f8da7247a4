//! Observability for the CLAIRE solver stack.
//!
//! Three pieces, all gated behind one global switch so the hot path costs a
//! single relaxed atomic load + branch when disabled:
//!
//! * [`span`] — a hierarchical span tracer. RAII guards time `enter`/`exit`
//!   pairs that form a tree (solve → β-level → GN iteration → PCG → kernel);
//!   repeated spans with the same name under the same parent aggregate into
//!   one node (call count + total time), so the tree stays bounded no matter
//!   how many iterations run.
//! * [`records`] — one [`records::GnIterRecord`] per Gauss–Newton
//!   iteration, stamped with the β-level it ran in.
//! * [`report`] — [`report::RunReport`], a JSON-serializable record that
//!   unifies claire-par kernel timers, claire-mpi comm stats and the
//!   solve's Table 6 row ([`report::RegistrationReport`], its `summary`).
//!
//! Typical use: call [`begin`] before a solve (enables collection and clears
//! prior data), run the solver, then assemble a `RunReport` (claire-core's
//! `observe::collect_run_report` does this) and write `report.to_json()`.
//!
//! Span trees and GN-iteration records are **per thread** — each rank thread
//! in a virtual cluster owns its own and drains them (`span::take_spans`,
//! `records::take_gn`) on that thread, so a report holds one rank's work.

#![forbid(unsafe_code)]

pub mod records;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn observability collection on or off. Spans already open keep their
/// guards balanced regardless of toggles.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable collection and clear all previously recorded observability data
/// (spans and GN-iteration records on the calling thread).
pub fn begin() {
    set_enabled(true);
    reset();
}

/// Clear all recorded data without changing the enabled flag.
pub fn reset() {
    span::reset();
    records::reset();
}

/// Serializes unit tests that toggle the global enabled flag.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
