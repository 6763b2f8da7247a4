//! Process-wide FFT plan cache.
//!
//! Planning a transform (twiddle tables, factorization, Bluestein chirp
//! kernels) is far more expensive than executing it on the small-to-medium
//! grids of a continuation schedule, and the paper's solver re-plans the
//! same grids over and over: every β-continuation level reuses the grid,
//! and the two-level preconditioner plans both fine and coarse transforms
//! per refresh. This
//! module memoizes plans per length/grid behind `Arc`s so each is computed
//! exactly once per process and shared by every [`Fft3`]/`DistFft` built
//! afterwards — including across the virtual-MPI worker threads of
//! `run_cluster`, which share these statics.
//!
//! Plans are cached **per element width**: the f64 path and the
//! mixed-precision f32 path each get their own [`Caches`] instance, looked
//! up through [`FftElem::caches`], so a mixed-mode solve warms both without
//! either evicting the other.
//!
//! Hit/miss counters feed the `memory.fft_plan_cache` block of the
//! observability RunReport.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use claire_grid::{Grid, Real};

use crate::plan::Fft1dT;
use crate::real::RealFft1dT;
use crate::serial3d::Fft3T;
use crate::FftElem;

/// Plan cache for one element width (see [`FftElem::caches`]).
pub struct Caches<T: FftElem> {
    pub(crate) fft1d: Mutex<BTreeMap<usize, Arc<Fft1dT<T>>>>,
    pub(crate) real1d: Mutex<BTreeMap<usize, Arc<RealFft1dT<T>>>>,
    pub(crate) fft3: Mutex<BTreeMap<[usize; 3], Arc<Fft3T<T>>>>,
}

impl<T: FftElem> Caches<T> {
    pub(crate) const fn new() -> Caches<T> {
        Caches {
            fft1d: Mutex::new(BTreeMap::new()),
            real1d: Mutex::new(BTreeMap::new()),
            fft3: Mutex::new(BTreeMap::new()),
        }
    }

    fn plans(&self) -> usize {
        self.fft1d.lock().unwrap().len()
            + self.real1d.lock().unwrap().len()
            + self.fft3.lock().unwrap().len()
    }

    fn clear(&self) {
        self.fft1d.lock().unwrap().clear();
        self.real1d.lock().unwrap().clear();
        self.fft3.lock().unwrap().clear();
    }
}

pub(crate) static CACHES_F64: Caches<f64> = Caches::new();
pub(crate) static CACHES_F32: Caches<f32> = Caches::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn get_or_plan<K: Ord + Copy, V>(
    cache: &Mutex<BTreeMap<K, Arc<V>>>,
    key: K,
    plan: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(v) = cache.lock().unwrap().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(v);
    }
    // Plan outside the lock: planning may itself consult this cache (Fft3
    // plans its 1-D factors through it) and can be slow. A racing planner
    // for the same key wastes one plan; the first insert wins.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let v = Arc::new(plan());
    Arc::clone(cache.lock().unwrap().entry(key).or_insert(v))
}

/// Shared 1-D complex plan for length `n` at width `T`.
pub fn fft1d_t<T: FftElem>(n: usize) -> Arc<Fft1dT<T>> {
    get_or_plan(&T::caches().fft1d, n, || Fft1dT::new(n))
}

/// Shared 1-D real↔half-complex plan for even length `n` at width `T`.
pub fn real_fft1d_t<T: FftElem>(n: usize) -> Arc<RealFft1dT<T>> {
    get_or_plan(&T::caches().real1d, n, || RealFft1dT::new(n))
}

/// Shared serial 3-D plan for `grid` at width `T`.
pub fn fft3_t<T: FftElem>(grid: Grid) -> Arc<Fft3T<T>> {
    get_or_plan(&T::caches().fft3, grid.n, || Fft3T::new(grid))
}

/// Shared 1-D complex plan for length `n` (field precision).
pub fn fft1d(n: usize) -> Arc<Fft1dT<Real>> {
    fft1d_t::<Real>(n)
}

/// Shared 1-D real↔half-complex plan for even length `n` (field precision).
pub fn real_fft1d(n: usize) -> Arc<RealFft1dT<Real>> {
    real_fft1d_t::<Real>(n)
}

/// Shared serial 3-D plan for `grid` (field precision).
pub fn fft3(grid: Grid) -> Arc<Fft3T<Real>> {
    fft3_t::<Real>(grid)
}

/// Snapshot of the plan cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Plans currently cached (1-D complex + 1-D real + 3-D, both widths).
    pub plans: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
}

/// Current plan-cache statistics (aggregated over both element widths).
pub fn stats() -> CacheStats {
    CacheStats {
        plans: (CACHES_F64.plans() + CACHES_F32.plans()) as u64,
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Reset the hit/miss counters (cached plans are kept — warm is the point).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Drop every cached plan (counters are kept). Plans still held by live
/// `Arc`s stay usable; the next lookup re-plans. This exists for benchmarks
/// that model a cold process (the `fft.plan_s` probe of `benchmark/`) —
/// production code should never need it.
pub fn clear() {
    CACHES_F64.clear();
    CACHES_F32.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_plan() {
        let a = fft1d(40);
        let b = fft1d(40);
        assert!(Arc::ptr_eq(&a, &b), "repeated lookups must share one plan");
        let r1 = real_fft1d(40);
        let r2 = real_fft1d(40);
        assert!(Arc::ptr_eq(&r1, &r2));
        let g = Grid::new([4, 6, 8]);
        assert!(Arc::ptr_eq(&fft3(g), &fft3(g)));
    }

    #[test]
    fn widths_get_distinct_plans() {
        let a = fft1d_t::<f64>(24);
        let b = fft1d_t::<f32>(24);
        // distinct cache instances: planning one width must not satisfy the
        // other width's lookup
        assert!(Arc::ptr_eq(&a, &fft1d_t::<f64>(24)));
        assert!(Arc::ptr_eq(&b, &fft1d_t::<f32>(24)));
    }
}
