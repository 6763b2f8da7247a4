//! Solver-wide workspace buffer pool.
//!
//! The paper's solver is memory-bound: its §3 model budgets every buffer
//! (`µtotal ≈ (74 + Nt)·N·µ0/p + µIP`) into the categories µPDE, µFFT, µFD,
//! µSL, and µGN/CG, and the GPU implementation pre-allocates all of them
//! once so the steady-state Gauss–Newton iteration performs no allocations.
//! This module reproduces that discipline for the Rust port: a [`Pool`]
//! keeps checked-in buffers on shelves keyed by capacity, and a checkout
//! returns a [`PoolVec`] that checks itself back in on drop. After a warm-up
//! iteration has populated the shelves, every further checkout is a reuse —
//! the hot path stops touching the system allocator entirely (enforced by
//! the `zero_alloc` tier-1 test).
//!
//! Most buffers are overwritten in full by the kernel that produces them, as
//! the GPU solver's are, so filling them first is a wasted sweep.
//! [`Pool::checkout_written`] hands out such a buffer without one: every
//! shelved buffer carries the length of its *written prefix* (the elements
//! some holder has set since the allocation was made), and only the part of
//! the request beyond it is filled, with a caller-chosen poison. Under
//! `debug_assertions` the whole buffer is poisoned, so a kernel that reads
//! before it writes shows up as NaN in a debug test run.
//!
//! Accounting is per *category* ([`WsCat`], mirroring the paper's budget
//! terms) and global across pools: [`stats`] reports checkouts, misses
//! (fresh allocations), bytes currently charged, and the high-water mark,
//! which `claire-obs` exposes in the RunReport `memory` block so the
//! measured footprint can be compared against the analytic model in
//! `claire-core::memory`.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::field::{ScalarField, VectorField};
use crate::real::Real;

/// Workspace budget category, mirroring the paper's §3 memory model terms.
///
/// Categories are an *accounting* dimension only: buffers live on shared
/// per-pool shelves and move freely between categories across checkouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WsCat {
    /// PDE state storage (µPDE): state/adjoint time series, velocity fields.
    Pde,
    /// FFT work buffers (µFFT): spectral data, per-worker transform scratch.
    Fft,
    /// Finite-difference work buffers (µFD): ghost layers, stencil temps.
    Fd,
    /// Semi-Lagrangian buffers (µSL): characteristic feet, RK2 stages.
    Sl,
    /// Gauss–Newton/Krylov vectors (µGN/CG).
    GnCg,
    /// Anything outside the paper's named budgets.
    Other,
}

impl WsCat {
    /// Every category, in the paper's §3 order.
    pub const ALL: [WsCat; 6] =
        [WsCat::Pde, WsCat::Fft, WsCat::Fd, WsCat::Sl, WsCat::GnCg, WsCat::Other];

    /// Stable label used in reports (`pde`, `fft`, `fd`, `sl`, `gn_cg`,
    /// `other`).
    pub fn label(self) -> &'static str {
        match self {
            WsCat::Pde => "pde",
            WsCat::Fft => "fft",
            WsCat::Fd => "fd",
            WsCat::Sl => "sl",
            WsCat::GnCg => "gn_cg",
            WsCat::Other => "other",
        }
    }

    fn idx(self) -> usize {
        match self {
            WsCat::Pde => 0,
            WsCat::Fft => 1,
            WsCat::Fd => 2,
            WsCat::Sl => 3,
            WsCat::GnCg => 4,
            WsCat::Other => 5,
        }
    }
}

struct CatCounters {
    checkouts: AtomicU64,
    misses: AtomicU64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl CatCounters {
    const fn new() -> CatCounters {
        CatCounters {
            checkouts: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const CAT_COUNTERS_INIT: CatCounters = CatCounters::new();
static STATS: [CatCounters; 6] = [CAT_COUNTERS_INIT; 6];
/// Every category at once: bytes checked out and their high-water mark.
static ALL: CatCounters = CatCounters::new();

/// Snapshot of one category's accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct CatStats {
    /// Buffers handed out (hits + misses).
    pub checkouts: u64,
    /// Checkouts that had to allocate fresh memory.
    pub misses: u64,
    /// Bytes currently checked out (charged at checkout capacity).
    pub in_use_bytes: u64,
    /// High-water mark of `in_use_bytes`.
    pub peak_bytes: u64,
}

/// Per-category stats snapshot, in [`WsCat::ALL`] order.
pub fn stats() -> [CatStats; 6] {
    std::array::from_fn(|i| {
        let c = &STATS[i];
        CatStats {
            checkouts: c.checkouts.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            in_use_bytes: c.in_use.load(Ordering::Relaxed),
            peak_bytes: c.peak.load(Ordering::Relaxed),
        }
    })
}

/// Sum of [`stats`] over all categories. Its `peak_bytes` is the sum of
/// the category high-water marks, which need not be reached at the same
/// moment: it bounds [`peak_bytes`] from above.
pub fn total_stats() -> CatStats {
    let mut t = CatStats::default();
    for s in stats() {
        t.checkouts += s.checkouts;
        t.misses += s.misses;
        t.in_use_bytes += s.in_use_bytes;
        t.peak_bytes += s.peak_bytes;
    }
    t
}

/// High-water mark of the bytes checked out in all categories at once
/// since the last [`reset_stats`]: the pooled working set a run held.
pub fn peak_bytes() -> u64 {
    ALL.peak.load(Ordering::Relaxed)
}

/// Reset checkout/miss counters and the high-water marks (to the current
/// in-use level) — called by `observe::begin` so each run reports its own
/// numbers. Buffers already on shelves stay there (warm pools are the
/// point).
pub fn reset_stats() {
    for c in STATS.iter().chain([&ALL]) {
        c.checkouts.store(0, Ordering::Relaxed);
        c.misses.store(0, Ordering::Relaxed);
        c.peak.store(c.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

fn charge(cat: WsCat, bytes: usize) {
    let c = &STATS[cat.idx()];
    c.checkouts.fetch_add(1, Ordering::Relaxed);
    for c in [c, &ALL] {
        let now = c.in_use.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        c.peak.fetch_max(now, Ordering::Relaxed);
    }
}

// `ALL` rises after its category and falls before it, so it never reads
// above the categories' sum, even between two updates
fn uncharge(cat: WsCat, bytes: usize) {
    for c in [&ALL, &STATS[cat.idx()]] {
        c.in_use.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

/// Per-capacity shelf depth cap: bounds pool growth if a workload churns
/// through many buffers of one size (excess check-ins are simply freed).
const MAX_SHELF: usize = 64;

/// A shelved buffer: empty, with the length of its written prefix.
type Shelved<T> = (Vec<T>, usize);

/// A buffer pool for `Vec<T>` work buffers, keyed by capacity.
///
/// `checkout` returns the smallest shelved buffer whose capacity covers the
/// request (allocating fresh on a miss); dropping the returned [`PoolVec`]
/// clears it and puts it back, together with how much of it was ever
/// written. Pools are declared as `static`s (they must outlive every
/// buffer) and are safe to use from the scoped worker threads of
/// `claire-par` — concurrent checkouts never alias, each returns a distinct
/// buffer.
pub struct Pool<T: Send + 'static> {
    shelf: Mutex<BTreeMap<usize, Vec<Shelved<T>>>>,
}

impl<T: Send + 'static> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> Pool<T> {
    /// An empty pool (const, so pools can be `static`s).
    pub const fn new() -> Pool<T> {
        Pool { shelf: Mutex::new(BTreeMap::new()) }
    }

    /// Check out an *empty* buffer with `capacity >= cap`, charged to `cat`.
    pub fn checkout(&'static self, cap: usize, cat: WsCat) -> PoolVec<T> {
        let reused = {
            // Emptied size-class stacks are deliberately left in the map:
            // removing them would free a BTreeMap node (and the stack's own
            // spine) that the matching check-in immediately re-allocates,
            // breaking the zero-allocation steady state.
            let mut shelf = self.shelf.lock().unwrap();
            let key = shelf.range(cap..).find(|(_, s)| !s.is_empty()).map(|(&k, _)| k);
            key.and_then(|k| shelf.get_mut(&k).and_then(Vec::pop))
        };
        let (buf, written) = reused.unwrap_or_else(|| {
            STATS[cat.idx()].misses.fetch_add(1, Ordering::Relaxed);
            (Vec::with_capacity(cap), 0)
        });
        self.wrap(buf, written, cat)
    }

    /// Wrap an existing vector so it migrates into the pool on drop.
    pub fn adopt(&'static self, buf: Vec<T>, cat: WsCat) -> PoolVec<T> {
        let written = buf.len();
        self.wrap(buf, written, cat)
    }

    fn wrap(&'static self, buf: Vec<T>, written: usize, cat: WsCat) -> PoolVec<T> {
        let charged = buf.capacity() * std::mem::size_of::<T>();
        charge(cat, charged);
        // saturating: claiming a shorter prefix than was written is safe
        let written = u32::try_from(written).unwrap_or(u32::MAX);
        PoolVec { buf, cat, written, charged, pool: self }
    }

    fn checkin(&self, mut buf: Vec<T>, written: usize) {
        buf.clear(); // drop elements before taking the shelf lock
        if buf.capacity() == 0 {
            return;
        }
        let mut shelf = self.shelf.lock().unwrap();
        let stack = shelf.entry(buf.capacity()).or_default();
        if stack.len() < MAX_SHELF {
            stack.push((buf, written));
        }
    }

    /// Number of buffers currently shelved (idle) in this pool.
    pub fn idle_buffers(&self) -> usize {
        self.shelf.lock().unwrap().values().map(Vec::len).sum()
    }

    /// `(capacity, written prefix)` of every shelved buffer.
    #[cfg(test)]
    fn shelved(&self) -> Vec<(usize, usize)> {
        let shelf = self.shelf.lock().unwrap();
        shelf.values().flatten().map(|(b, w)| (b.capacity(), *w)).collect()
    }
}

impl<T: Copy + Send + 'static> Pool<T> {
    /// Check out a buffer of exactly `len` elements, every one set to
    /// `fill` (stale contents from previous users are overwritten).
    pub fn checkout_filled(&'static self, len: usize, fill: T, cat: WsCat) -> PoolVec<T> {
        let mut v = self.checkout(len, cat);
        v.resize(len, fill);
        v
    }

    /// Check out a buffer of exactly `len` elements for a writer that sets
    /// every one of them before anything reads it. The buffer's written
    /// prefix is handed out as the last holder left it and only the rest is
    /// set to `poison`; under `debug_assertions` all `len` elements are.
    /// Accounting is [`Pool::checkout_filled`]'s: one checkout, a miss only
    /// when no shelved buffer fits, the same bytes charged.
    pub fn checkout_written(&'static self, len: usize, poison: T, cat: WsCat) -> PoolVec<T> {
        let mut v = self.checkout(len, cat);
        let keep = if cfg!(debug_assertions) { 0 } else { (v.written as usize).min(len) };
        // SAFETY: `keep <= written <= capacity`, and the first `written`
        // elements of this allocation were set by earlier holders: a holder
        // whose vector reallocated is caught by the capacity check in
        // `PoolVec::drop`, and holders neither swap another allocation into
        // a `PoolVec` nor store uninitialized values (no API here hands out
        // `MaybeUninit`; the spare-capacity writers in `claire_fft::pass`
        // store numbers). `T: Copy` has no drop glue, so check-in's `clear`
        // left those elements as they were: initialized values.
        unsafe { v.buf.set_len(keep) };
        v.buf.resize(len, poison);
        v
    }
}

/// An RAII pooled buffer: derefs to `Vec<T>`, checks back into its pool on
/// drop. The bytes charged to its [`WsCat`] are fixed at checkout (growing
/// the vector afterwards is not re-charged). The buffer's written prefix
/// (see [`Pool::checkout_written`]) can reach past `len` into the spare
/// capacity, so a holder may write numbers there but must not store
/// `MaybeUninit::uninit()`, and must not swap another allocation into the
/// vector (swapping whole `PoolVec`s is fine).
pub struct PoolVec<T: Send + 'static> {
    buf: Vec<T>,
    cat: WsCat,
    /// Written prefix of `buf`'s allocation at checkout.
    written: u32,
    /// `capacity · size_of::<T>()` at checkout: a different capacity at
    /// check-in means the vector reallocated and `written` no longer
    /// applies.
    charged: usize,
    pool: &'static Pool<T>,
}

impl<T: Send + 'static> PoolVec<T> {
    /// The category this buffer is charged to.
    pub fn category(&self) -> WsCat {
        self.cat
    }

    /// Extract the inner vector; the pool never sees this buffer again.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.buf) // drop checks in the empty husk (no-op)
    }

    /// Check the buffer back in now and keep an empty husk in its place,
    /// for a holder that must keep the field but no longer its contents.
    /// The husk charges nothing and checks nothing in when dropped.
    pub fn release(&mut self) {
        let husk =
            PoolVec { buf: Vec::new(), cat: self.cat, written: 0, charged: 0, pool: self.pool };
        drop(std::mem::replace(self, husk));
    }
}

impl<T: Send + 'static> Drop for PoolVec<T> {
    fn drop(&mut self) {
        uncharge(self.cat, self.charged);
        if self.buf.capacity() > 0 {
            let same = self.buf.capacity() * std::mem::size_of::<T>() == self.charged;
            let len = self.buf.len();
            let written = if same { (self.written as usize).max(len) } else { len };
            self.pool.checkin(std::mem::take(&mut self.buf), written);
        }
    }
}

impl<T: Send + 'static> Deref for PoolVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Send + 'static> DerefMut for PoolVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<'a, T: Send + 'static> IntoIterator for &'a PoolVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

impl<'a, T: Send + 'static> IntoIterator for &'a mut PoolVec<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter_mut()
    }
}

impl<T: Clone + Send + 'static> Clone for PoolVec<T> {
    fn clone(&self) -> Self {
        let mut out = self.pool.checkout(self.buf.len(), self.cat);
        out.extend_from_slice(&self.buf);
        out
    }
}

impl<T: std::fmt::Debug + Send + 'static> std::fmt::Debug for PoolVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

impl<T: PartialEq + Send + 'static> PartialEq for PoolVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

// ----- the solver's shared pools --------------------------------------------

/// Scalar samples: field storage, interpolation values.
pub static REAL_POOL: Pool<Real> = Pool::new();
/// Halo-padded slabs (`GhostField`s). Kept apart from [`REAL_POOL`]: a
/// padded buffer is larger than a field, so a field checkout would take
/// an idle one (first fit ≥) and the next ghost checkout would then miss —
/// every field of a time series could end up in a padded buffer.
pub static HALO_POOL: Pool<Real> = Pool::new();
/// f32 scalar samples for the mixed-precision inner solve: PCG vectors and
/// spectral scratch. Kept separate from [`REAL_POOL`] so pool shelves stay
/// keyed by element size and the memory accounting reflects the halved
/// footprint.
pub static REAL32_POOL: Pool<f32> = Pool::new();
/// Points/displacements `[x1, x2, x3]`: characteristic feet, RK2 stages.
pub static R3_POOL: Pool<[Real; 3]> = Pool::new();
/// Storage indices: an interpolation plan's site nodes.
pub static INDEX_POOL: Pool<u32> = Pool::new();
/// Time-series containers of scalar fields (state/adjoint trajectories).
pub static SCALAR_FIELDS: Pool<ScalarField> = Pool::new();
/// Time-series containers of vector fields (stored state gradients).
pub static VECTOR_FIELDS: Pool<VectorField> = Pool::new();

/// A scalar element field storage can be generic over: [`claire_simd::Elem`]
/// (the dispatched kernel seam) plus a binding to the solver-wide pool that
/// shelves buffers of this width. Implemented for exactly `f64` and `f32`.
pub trait FieldElem: claire_simd::Elem + Send {
    /// The solver-wide pool backing fields of this element width.
    fn pool() -> &'static Pool<Self>;
}

impl FieldElem for Real {
    fn pool() -> &'static Pool<Real> {
        &REAL_POOL
    }
}

impl FieldElem for f32 {
    fn pool() -> &'static Pool<f32> {
        &REAL32_POOL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    static TEST_POOL: Pool<u64> = Pool::new();

    #[test]
    fn checkout_roundtrip_reuses_capacity() {
        let ptr;
        {
            let mut v = TEST_POOL.checkout(100, WsCat::Other);
            v.extend(0..100u64);
            ptr = v.as_ptr();
        } // checked back in
        let v2 = TEST_POOL.checkout(80, WsCat::Other);
        assert!(v2.is_empty(), "reused buffers come back empty");
        assert!(v2.capacity() >= 100);
        assert_eq!(v2.as_ptr(), ptr, "the shelved buffer should be reused");
    }

    #[test]
    fn checkout_filled_zeroes_stale_contents() {
        {
            let mut v = TEST_POOL.checkout(64, WsCat::Other);
            v.extend(std::iter::repeat_n(u64::MAX, 64));
        }
        let v = TEST_POOL.checkout_filled(64, 0u64, WsCat::Other);
        assert_eq!(v.len(), 64);
        assert!(v.iter().all(|&x| x == 0), "stale contents must be overwritten");
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        static DETACH: Pool<u8> = Pool::new();
        let v = DETACH.checkout_filled(16, 7u8, WsCat::Other);
        let raw = v.into_vec();
        assert_eq!(raw, vec![7u8; 16]);
        assert_eq!(DETACH.idle_buffers(), 0, "into_vec must not check in");
    }

    #[test]
    fn concurrent_checkouts_never_alias() {
        static CONC: Pool<u64> = Pool::new();
        // warm the shelf with a few buffers
        let warm: Vec<_> = (0..4).map(|_| CONC.checkout(256, WsCat::Other)).collect();
        drop(warm);
        let ptrs = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut v = CONC.checkout(256, WsCat::Other);
                    v.push(1);
                    ptrs.lock().unwrap().push(v.as_ptr() as usize);
                    std::thread::yield_now();
                    // hold the buffer until every thread has recorded its ptr
                    while ptrs.lock().unwrap().len() < 8 {
                        std::thread::yield_now();
                    }
                });
            }
        });
        let mut p = ptrs.into_inner().unwrap();
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), 8, "every concurrent checkout must get a distinct buffer");
    }

    /// Serializes the tests that read the global per-category counters
    /// against the one that resets them.
    static STATS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn stats_track_in_use_and_peak() {
        let _serial = STATS_LOCK.lock().unwrap();
        reset_stats();
        let before = stats()[WsCat::GnCg.idx()];
        let v = REAL_POOL.checkout_filled(1000, 0.0, WsCat::GnCg);
        let during = stats()[WsCat::GnCg.idx()];
        assert_eq!(during.checkouts, before.checkouts + 1);
        assert!(during.in_use_bytes >= before.in_use_bytes + 1000 * 8);
        drop(v);
        let after = stats()[WsCat::GnCg.idx()];
        assert!(after.in_use_bytes <= during.in_use_bytes - 1000 * 8 + 8);
        assert!(after.peak_bytes >= during.in_use_bytes, "peak keeps the high-water mark");
    }

    #[test]
    fn the_peak_at_once_is_at_most_the_category_peaks_sum() {
        let _serial = STATS_LOCK.lock().unwrap();
        reset_stats();
        let base = peak_bytes();
        // two categories that peak at different moments
        drop(REAL_POOL.checkout_filled(1000, 0.0, WsCat::GnCg));
        drop(REAL_POOL.checkout_filled(1000, 0.0, WsCat::Other));
        assert!(peak_bytes() >= base + 1000 * 8, "one buffer was out at a time");
        assert!(peak_bytes() <= total_stats().peak_bytes, "at once ≤ the sum of the peaks");
        let _held = REAL_POOL.checkout_filled(1000, 0.0, WsCat::GnCg);
        reset_stats();
        assert!(peak_bytes() >= 1000 * 8, "a reset starts from what is checked out");
    }

    #[test]
    fn a_released_buffer_goes_back_and_leaves_an_empty_husk() {
        static RELEASE: Pool<u64> = Pool::new();
        let mut v = RELEASE.checkout_filled(32, 7u64, WsCat::Other);
        v.release();
        assert!(v.is_empty() && v.capacity() == 0, "the holder keeps an empty husk");
        assert_eq!(RELEASE.idle_buffers(), 1, "the buffer is back on its shelf");
        drop(v);
        assert_eq!(RELEASE.idle_buffers(), 1, "the husk checks nothing in");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn written_checkout_is_all_poison_in_debug() {
        static POISON: Pool<u64> = Pool::new();
        let fresh = POISON.checkout_written(48, 0xBAD, WsCat::Other);
        assert!(fresh.iter().all(|&x| x == 0xBAD), "a fresh buffer is poison");
        drop(fresh);
        {
            let mut v = POISON.checkout_filled(64, 7u64, WsCat::Other);
            v[0] = 1;
        }
        let v = POISON.checkout_written(64, 0xBAD, WsCat::Other);
        assert_eq!(v.len(), 64);
        assert!(v.iter().all(|&x| x == 0xBAD), "a reused buffer is poison in debug");
    }

    #[test]
    fn written_checkout_poisons_only_the_tail_beyond_the_prefix() {
        static TAIL: Pool<u64> = Pool::new();
        {
            let mut v = TAIL.checkout(80, WsCat::Other);
            v.resize(40, 7u64);
        }
        let v = TAIL.checkout_written(80, 0xBAD, WsCat::Other);
        assert_eq!(v.len(), 80);
        let prefix = if cfg!(debug_assertions) { 0xBAD } else { 7 };
        assert!(v[..40].iter().all(|&x| x == prefix), "release reuses the written prefix");
        assert!(v[40..].iter().all(|&x| x == 0xBAD), "the never-written tail is poison");
    }

    #[test]
    fn written_prefix_survives_spare_capacity_writers_and_not_reallocation() {
        static PREFIX: Pool<u64> = Pool::new();
        drop(PREFIX.checkout_filled(100, 3u64, WsCat::Other));
        assert_eq!(PREFIX.shelved(), [(100, 100)]);
        {
            // an empty checkout that writes only its spare capacity, as the
            // FFT kernel scratch does, comes back with `len` 0
            let mut v = PREFIX.checkout(100, WsCat::Other);
            for x in &mut v.spare_capacity_mut()[..10] {
                x.write(5);
            }
            assert!(v.is_empty());
        }
        assert_eq!(PREFIX.shelved(), [(100, 100)], "the written prefix is kept");
        {
            let mut v = PREFIX.checkout(100, WsCat::Other);
            v.extend(0..30u64);
            v.reserve(1000); // reallocates
        }
        let shelved = PREFIX.shelved();
        assert_eq!(shelved.len(), 1);
        assert!(shelved[0].0 >= 1030);
        assert_eq!(shelved[0].1, 30, "a reallocation forgets the old prefix");
    }

    #[test]
    fn written_and_filled_checkouts_account_alike() {
        static A: Pool<u64> = Pool::new();
        static B: Pool<u64> = Pool::new();
        fn run(checkout: impl Fn(usize) -> PoolVec<u64>) -> (u64, u64, u64) {
            let _serial = STATS_LOCK.lock().unwrap();
            let before = stats()[WsCat::Sl.idx()];
            let mut charged = 0;
            for len in [64, 32, 64, 200, 100, 200, 8] {
                let v = checkout(len);
                let now = stats()[WsCat::Sl.idx()].in_use_bytes;
                charged += now - before.in_use_bytes;
                drop(v);
            }
            let after = stats()[WsCat::Sl.idx()];
            (after.checkouts - before.checkouts, after.misses - before.misses, charged)
        }
        let filled = run(|len| A.checkout_filled(len, 0, WsCat::Sl));
        let written = run(|len| B.checkout_written(len, 0, WsCat::Sl));
        assert_eq!(filled, written, "(checkouts, misses, bytes charged)");
        assert_eq!(filled.0, 7);
        assert_eq!(filled.1, 2, "a miss only when no shelved buffer fits");
    }

    proptest! {
        #[test]
        fn roundtrip_preserves_len_and_zeroing(len in 1usize..2000, rounds in 1usize..12) {
            static PROP: Pool<u64> = Pool::new();
            for round in 0..rounds {
                // vary the requested length so shelves of several size
                // classes get exercised within one case
                let want = 1 + (len + 131 * round) % 2000;
                let mut v = PROP.checkout_filled(want, 0u64, WsCat::Other);
                prop_assert_eq!(v.len(), want);
                prop_assert!(v.iter().all(|&x| x == 0));
                // dirty it so the next checkout would see stale data without the fill
                for x in v.iter_mut() { *x = 0xDEAD_BEEF; }
            }
        }
    }
}
