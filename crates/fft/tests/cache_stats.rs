//! The plan cache's hit/miss counters are process-wide, so exact deltas can
//! only be asserted where nothing else plans FFTs. This binary holds this
//! one test for that reason: inside the crate's unit-test binary the
//! parallel harness runs it beside three dozen tests that plan through the
//! same cache.

use claire_fft::cache::{fft1d, stats};

#[test]
fn stats_count_hits_and_misses() {
    let before = stats();
    let _ = fft1d(977); // Bluestein length, certainly un-planned so far
    let mid = stats();
    assert_eq!(mid.misses, before.misses + 1);
    let _ = fft1d(977);
    let after = stats();
    assert_eq!(after.hits, mid.hits + 1);
    assert!(after.plans >= 1);
}
