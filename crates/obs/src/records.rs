//! Per-GN-iteration solver records.
//!
//! The solver sets the continuation context ([`set_context`]) when it enters
//! a β-level; the Gauss–Newton loop pushes one [`GnIterRecord`] per
//! iteration ([`push_gn`]). Records are global (mutex-guarded — pushes
//! happen a handful of times per second, far off the hot path) and drained
//! with [`take_gn`].

use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One Gauss–Newton iteration: where it ran (level/β) and what it achieved.
#[derive(Serialize, Clone, Debug)]
pub struct GnIterRecord {
    /// Grid-continuation level (0 = coarsest solved level).
    pub level: usize,
    /// Regularization weight β at this iteration.
    pub beta: f64,
    /// Iteration index within this β-level (0-based).
    pub iter: usize,
    /// Objective value after the iteration's line-search step.
    pub objective: f64,
    /// Relative gradient norm ‖g‖/‖g₀‖ at the start of the iteration.
    pub grad_rel: f64,
    /// PCG iterations spent on this iteration's Newton system.
    pub pcg_iters: usize,
    /// Objective evaluations of this iteration's line search (the trials;
    /// the `J(v₀)` a β-level reads first is not one).
    pub ls_trials: usize,
    /// Accepted line-search step length α, or 0.0 when the search failed.
    pub step: f64,
}

static LEVEL: AtomicUsize = AtomicUsize::new(0);
static BETA_BITS: AtomicU64 = AtomicU64::new(0);
static GN: Mutex<Vec<GnIterRecord>> = Mutex::new(Vec::new());

/// Set the continuation context stamped onto subsequent GN records.
pub fn set_context(level: usize, beta: f64) {
    LEVEL.store(level, Ordering::Relaxed);
    BETA_BITS.store(beta.to_bits(), Ordering::Relaxed);
}

/// Current continuation context `(level, beta)`.
pub fn context() -> (usize, f64) {
    (LEVEL.load(Ordering::Relaxed), f64::from_bits(BETA_BITS.load(Ordering::Relaxed)))
}

/// Record one GN iteration under the current context. No-op while disabled.
pub fn push_gn(
    iter: usize,
    objective: f64,
    grad_rel: f64,
    pcg_iters: usize,
    ls_trials: usize,
    step: f64,
) {
    if !crate::enabled() {
        return;
    }
    let (level, beta) = context();
    GN.lock().unwrap().push(GnIterRecord {
        level,
        beta,
        iter,
        objective,
        grad_rel,
        pcg_iters,
        ls_trials,
        step,
    });
}

/// Drain all recorded GN iterations.
pub fn take_gn() -> Vec<GnIterRecord> {
    std::mem::take(&mut *GN.lock().unwrap())
}

/// Clear records and context.
pub fn reset() {
    set_context(0, 0.0);
    GN.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain() {
        let _g = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        set_context(1, 1e-2);
        push_gn(0, 0.5, 1.0, 7, 1, 1.0);
        push_gn(1, 0.25, 0.4, 9, 2, 0.0);
        let recs = take_gn();
        crate::set_enabled(false);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].level, 1);
        assert_eq!(recs[0].beta, 1e-2);
        assert_eq!(recs[1].pcg_iters, 9);
        assert_eq!((recs[1].ls_trials, recs[1].step), (2, 0.0));
        assert!(take_gn().is_empty());
    }

    #[test]
    fn disabled_push_is_noop() {
        let _g = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        push_gn(0, 1.0, 1.0, 1, 1, 1.0);
        assert!(take_gn().is_empty());
    }
}
