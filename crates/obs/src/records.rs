//! Per-GN-iteration solver records.
//!
//! The solver sets the continuation context ([`set_context`]) when it enters
//! a β-level; the Gauss–Newton loop pushes one [`GnIterRecord`] per
//! iteration ([`push_gn`]). Context and records are thread-local, like the
//! span tree: each rank thread of a virtual cluster keeps its own and drains
//! them with [`take_gn`] on that thread.

use serde::Serialize;
use std::cell::{Cell, RefCell};

/// One Gauss–Newton iteration: where it ran (level/β) and what it achieved.
#[derive(Serialize, Clone, Debug)]
pub struct GnIterRecord {
    /// β-continuation level (0 = the first β).
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

thread_local! {
    static CONTEXT: Cell<(usize, f64)> = const { Cell::new((0, 0.0)) };
    static GN: RefCell<Vec<GnIterRecord>> = const { RefCell::new(Vec::new()) };
}

/// Set the continuation context stamped onto this thread's subsequent GN
/// records.
pub fn set_context(level: usize, beta: f64) {
    CONTEXT.set((level, beta));
}

/// This thread's continuation context `(level, beta)`.
pub fn context() -> (usize, f64) {
    CONTEXT.get()
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
    let record =
        GnIterRecord { level, beta, iter, objective, grad_rel, pcg_iters, ls_trials, step };
    GN.with_borrow_mut(|gn| gn.push(record));
}

/// Drain the GN iterations recorded on this thread.
pub fn take_gn() -> Vec<GnIterRecord> {
    GN.take()
}

/// Clear this thread's records and context.
pub fn reset() {
    set_context(0, 0.0);
    GN.with_borrow_mut(Vec::clear);
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
    fn each_thread_drains_only_its_own_records() {
        let _g = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        set_context(0, 1.0);
        push_gn(0, 1.0, 1.0, 1, 1, 1.0);
        let other = std::thread::spawn(|| {
            assert_eq!(context(), (0, 0.0), "a new thread starts without context");
            set_context(2, 0.5);
            push_gn(0, 2.0, 1.0, 3, 1, 1.0);
            push_gn(1, 1.5, 0.5, 4, 1, 1.0);
            take_gn()
        })
        .join()
        .unwrap();
        let mine = take_gn();
        crate::set_enabled(false);
        assert_eq!(other.iter().map(|r| (r.level, r.iter)).collect::<Vec<_>>(), [(2, 0), (2, 1)]);
        assert_eq!(mine.len(), 1);
        assert_eq!((mine[0].level, mine[0].beta, mine[0].pcg_iters), (0, 1.0, 1));
    }

    #[test]
    fn disabled_push_is_noop() {
        let _g = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        push_gn(0, 1.0, 1.0, 1, 1, 1.0);
        assert!(take_gn().is_empty());
    }
}
