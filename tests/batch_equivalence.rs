//! Batch-vs-sequential equivalence: K pairs solved by `BatchSolver` must
//! produce **bitwise-identical** velocity fields and mismatch values to K
//! independent `Claire` solves.
//!
//! A batch interleaves the pairs' Gauss–Newton iterations and shares the
//! per-grid scaffolding (FFT symbols, 2LInvH0 transfer operators), but both
//! entry points run the one continuation driver and each pair steps through
//! its own `GnState` — so not just "close", but every bit equal, on both
//! SIMD backends. Any drift here means the interleave changed arithmetic.
//!
//! One test flips the process-wide SIMD backend, so every test holds a
//! file-level mutex: a flip between a sequential solve and its batched
//! twin would break bit equality for reasons unrelated to batching.

use std::sync::Mutex;

use claire::prelude::*;
use proptest::prelude::*;

/// Serializes the solves in this binary against backend flips.
static LOCK: Mutex<()> = Mutex::new(());

fn blob_pair(layout: Layout, shift: Real, off: Real) -> (ScalarField, ScalarField) {
    let blob = move |cx: Real, cy: Real| {
        move |x: Real, y: Real, z: Real| {
            let d2 = (x - cx).powi(2) + (y - cy).powi(2) + (z - 3.0).powi(2);
            (-d2 / 1.2).exp()
        }
    };
    (
        ScalarField::from_fn(layout, blob(3.0, 3.0 + off)),
        ScalarField::from_fn(layout, blob(3.0 + shift, 3.0 + off)),
    )
}

fn config(precond: PrecondKind, grad_rtol: f64) -> RegistrationConfig {
    RegistrationConfig {
        nt: 2,
        precond,
        continuation: true,
        beta_target: 1e-1,
        max_gn_iter: 4,
        max_pcg_iter: 4,
        grad_rtol,
        verbose: false,
        ..Default::default()
    }
}

/// Assert two velocity fields are bitwise identical, component by component.
fn assert_bitwise_eq(a: &VectorField, b: &VectorField, label: &str) {
    for d in 0..3 {
        for (i, (x, y)) in a.c[d].data().iter().zip(b.c[d].data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}: component {d} sample {i} differs: {x:e} vs {y:e}"
            );
        }
    }
}

/// Solve the given shifts sequentially and batched; demand bit equality.
fn check_equivalence(shifts: &[(Real, Real)], cfg: RegistrationConfig) {
    claire::par::set_threads(1);
    let layout = Layout::serial(Grid::cube(16));
    let mut comm = Comm::solo();

    // sequential reference solves
    let mut seq = Vec::new();
    for &(shift, off) in shifts {
        let (m0, m1) = blob_pair(layout, shift, off);
        let (v, report) = Claire::new(cfg).register(&m0, &m1, &mut comm);
        seq.push((v, report.rel_mismatch));
    }

    // one batched solve over the same pairs
    let pairs: Vec<BatchPair> = shifts
        .iter()
        .enumerate()
        .map(|(i, &(shift, off))| {
            let (m0, m1) = blob_pair(layout, shift, off);
            BatchPair::new(format!("pair{i}"), m0, m1)
        })
        .collect();
    let outcome = BatchSolver::new(cfg).solve(pairs).expect("valid batch");
    assert_eq!(outcome.items.len(), shifts.len());
    assert!(outcome.stats.rounds > 0);

    for (i, (item, (v_seq, mm_seq))) in outcome.items.iter().zip(&seq).enumerate() {
        let (v_batch, report) = item.outcome.as_ref().expect("batch member should succeed");
        assert_bitwise_eq(v_batch, v_seq, &format!("pair {i}"));
        assert!(
            report.rel_mismatch.to_bits() == mm_seq.to_bits(),
            "pair {i}: mismatch differs: {} vs {}",
            report.rel_mismatch,
            mm_seq
        );
    }
}

#[test]
fn batch_matches_sequential_bitwise_on_both_backends() {
    // mixed shifts: the larger ones need all iterations, the tiny one
    // converges (retires) early — the interleave must handle both
    let shifts = [(0.5, 0.0), (0.02, 0.1), (0.35, -0.2)];
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for choice in [claire_simd::Choice::Scalar, claire_simd::Choice::Auto] {
        claire_simd::force_backend(Some(choice));
        check_equivalence(&shifts, config(PrecondKind::InvA, 5e-2));
        check_equivalence(&shifts[..2], config(PrecondKind::TwoLevelInvH0, 5e-2));
    }
    claire_simd::force_backend(None);
}

#[test]
fn cancelled_member_retires_without_disturbing_the_rest() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    claire::par::set_threads(1);
    let layout = Layout::serial(Grid::cube(16));
    let mut comm = Comm::solo();
    let cfg = config(PrecondKind::InvA, 1e-12);

    let (m0a, m1a) = blob_pair(layout, 0.5, 0.0);
    let (v_seq, _) = Claire::new(cfg).register(&m0a, &m1a, &mut comm);

    // pair 0: normal; pair 1: pre-cancelled
    let token = claire::core::CancelToken::new();
    token.cancel();
    let (m0b, m1b) = blob_pair(layout, 0.3, 0.2);
    let pairs = vec![
        BatchPair::new("ok", m0a.clone(), m1a.clone()),
        BatchPair::new("cancelled", m0b, m1b)
            .with_hooks(claire::core::SolverHooks::with_cancel(token)),
    ];
    let outcome = BatchSolver::new(cfg).solve(pairs).expect("valid batch");

    let (v_ok, _) = outcome.items[0].outcome.as_ref().expect("uncancelled member succeeds");
    assert_bitwise_eq(v_ok, &v_seq, "uncancelled member");

    let err = outcome.items[1].outcome.as_ref().expect_err("cancelled member fails");
    let msg = err.to_string();
    assert!(msg.contains("cancelled"), "{msg}");
    assert!(msg.contains("after 0 Gauss-Newton"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random batch sizes K ∈ {1, 2, 5} with random shift mixes (some
    /// converging early) stay bitwise equal to sequential solves.
    #[test]
    fn random_batches_match_sequential(
        k_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let k = [1usize, 2, 5][k_idx];
        let mut shifts = Vec::new();
        let mut s = seed;
        for _ in 0..k {
            // xorshift: deterministic pseudo-random shifts in [0.02, 0.5]
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let shift = 0.02 + (s % 1000) as Real / 1000.0 * 0.48;
            let off = ((s >> 10) % 400) as Real / 1000.0 - 0.2;
            shifts.push((shift, off));
        }
        check_equivalence(&shifts, config(PrecondKind::InvA, 5e-2));
    }
}
