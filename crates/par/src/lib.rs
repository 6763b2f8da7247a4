//! Shared-memory parallel kernel execution for CLAIRE-rs.
//!
//! The GPU implementation of CLAIRE (Brunn et al., SC 2020) launches each
//! kernel over a grid of thread blocks; every output element is computed by
//! exactly one thread. This crate reproduces that execution model on a
//! multicore CPU with one primitive, [`par_split`]: it cuts a kernel's
//! *output* into one contiguous part per worker thread with `split_at_mut`
//! and hands each worker its part as `&mut`, so every output element has
//! exactly one writer by construction and no synchronization is needed
//! inside a kernel. What can be cut is a [`Split`]: a slice, an array or a
//! pair of parts, [`Rows`] of several elements per item, or `()` for a
//! region that only reads. [`par_chunks_mut`] is a loop on top of it.
//! Workers are plain `std::thread::scope` scoped threads, started in
//! [`par_split`] alone — the crate has no dependencies and no global pool,
//! which keeps the virtual-MPI ranks-as-threads substrate (each rank may
//! itself fan out) free of pool-reentrancy hazards. A kernel whose output
//! decomposition is strided (a column pass) writes through a
//! [`SharedSlice`] instead and owns the disjointness argument itself.
//!
//! Determinism: every parallel construct here produces *bitwise identical*
//! results for every thread count, including the serial fallback, because
//! each output element's computation never crosses a chunk boundary. The
//! crate has no reductions: the order of a global sum is `claire-grid`'s
//! (`claire_grid::reduce`: one partial per plane, and threads split planes,
//! never a plane), so it is the same for every thread and rank count.
//!
//! Thread-count resolution (first match wins):
//! 1. [`set_local_threads`] per-thread budget (how `claire-cli batch`
//!    partitions the machine across concurrent jobs — each worker thread
//!    gets a slice),
//! 2. [`set_threads`] process-wide programmatic override,
//! 3. `CLAIRE_THREADS` environment variable,
//! 4. `std::thread::available_parallelism()`.
//!
//! With a resolved count of 1 every construct degenerates to a plain serial
//! loop on the calling thread — no threads are spawned, no atomics touched.

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod alloc_counter;
pub mod timing;

/// Work-size floor below which kernels should stay serial: spawning scoped
/// threads costs tens of microseconds, which only pays off once a kernel
/// touches at least this many grid points / queries.
pub const MIN_PAR_LEN: usize = 1 << 13;

/// Element count of one chunk of a parallel element-wise loop: a cache-sized
/// tile (32 KiB of f64). Element-wise results do not depend on it.
pub const ELEM_CHUNK: usize = 4096;

/// 0 = no override; otherwise the value set via [`set_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// 0 = no per-thread budget; otherwise the value set via
    /// [`set_local_threads`] on this thread.
    static LOCAL_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Force the worker-thread count for subsequent kernels (`0` clears the
/// override and returns resolution to the environment). Mirrors
/// `rayon::ThreadPoolBuilder::num_threads`, but takes effect immediately —
/// there is no pool to rebuild.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Give the *calling thread* its own worker-thread budget for subsequent
/// kernels (`0` clears it). Takes precedence over every other resolution
/// source, so a pool of job workers can partition the machine: each worker
/// sets its slice once at startup and all kernels it launches — including
/// the scoped threads they spawn — stay within it. `claire-cli batch` uses
/// this so N concurrent registrations don't oversubscribe the host.
pub fn set_local_threads(n: usize) {
    LOCAL_THREADS.with(|c| c.set(n));
}

/// The calling thread's budget set via [`set_local_threads`] (0 = none).
pub fn local_threads() -> usize {
    LOCAL_THREADS.with(|c| c.get())
}

/// The worker-thread count kernels will use, resolved as documented on the
/// crate: per-thread budget, global override, `CLAIRE_THREADS`, hardware.
pub fn num_threads() -> usize {
    let local = local_threads();
    if local > 0 {
        return local;
    }
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    let env = std::env::var("CLAIRE_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok());
    if let Some(n) = env.filter(|&n| n > 0) {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f` with the thread count forced to `n`, restoring the previous
/// override afterwards (including on panic). Intended for tests comparing
/// serial and parallel execution of the same kernel.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let guard = Restore(THREAD_OVERRIDE.swap(n, Ordering::Relaxed));
    let out = f();
    drop(guard);
    out
}

/// True when a kernel over `len` output elements should engage worker
/// threads: more than one thread resolved and the work clears [`MIN_PAR_LEN`].
pub fn par_enabled(len: usize) -> bool {
    len >= MIN_PAR_LEN && num_threads() > 1
}

/// Split `0..n` into `parts` contiguous ranges differing in length by at most
/// one (the GPU grid→block split, with blocks as large as possible).
fn split_range(n: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    let lo = n * part / parts;
    let hi = n * (part + 1) / parts;
    lo..hi
}

/// An output that cuts into disjoint parts by item: a slice (one item per
/// element), an array of parts or a pair of parts cut at the same item,
/// [`Rows`] (items of several elements), or `()` for a region that only
/// reads.
pub trait Split: Send + Sized {
    /// Items `..at` and `at..`.
    fn cut_at(self, at: usize) -> (Self, Self);
}

impl<T: Send> Split for &mut [T] {
    fn cut_at(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
}

impl<P: Split, const N: usize> Split for [P; N] {
    fn cut_at(self, at: usize) -> (Self, Self) {
        let mut halves = self.map(|p| {
            let (a, b) = p.cut_at(at);
            (Some(a), Some(b))
        });
        let front = std::array::from_fn(|i| halves[i].0.take().expect("each half taken once"));
        let back = std::array::from_fn(|i| halves[i].1.take().expect("each half taken once"));
        (front, back)
    }
}

impl<A: Split, B: Split> Split for (A, B) {
    fn cut_at(self, at: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.cut_at(at), self.1.cut_at(at));
        ((a0, b0), (a1, b1))
    }
}

impl Split for () {
    fn cut_at(self, _: usize) -> (Self, Self) {
        ((), ())
    }
}

/// `P` with items of `.1` elements: item `i` is elements `i·len ..
/// (i+1)·len` of every slice in it (a plane, a row, a run of rows; the
/// last item may be short).
pub struct Rows<P>(pub P, pub usize);

impl<P: Split> Split for Rows<P> {
    fn cut_at(self, at: usize) -> (Self, Self) {
        let (a, b) = self.0.cut_at(at * self.1);
        (Rows(a, self.1), Rows(b, self.1))
    }
}

/// Cut `out`, an output of `n` items, into one part per worker — contiguous
/// item ranges differing in length by at most one — and run `f(range,
/// part)` once per worker, `part` being items `range` of `out`. Every
/// output element thus has exactly one writer, by construction. The
/// serial-vs-parallel decision is made on `total_work` (e.g. items ×
/// elements-per-item) rather than the item count — a batch of 4096 FFT
/// pencils is worth threading even though 4096 alone is below
/// [`MIN_PAR_LEN`]; serially `f` runs once, with `0..n` and all of `out`.
/// A worker's panic reaches the caller once every worker has finished.
/// The only place in the crate that starts threads.
pub fn par_split<P, F>(n: usize, total_work: usize, out: P, f: F)
where
    P: Split,
    F: Fn(std::ops::Range<usize>, P) + Sync,
{
    let nt = if par_enabled(total_work) { num_threads().min(n.max(1)) } else { 1 };
    if nt <= 1 {
        return f(0..n, out);
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = out;
        for t in 0..nt - 1 {
            let r = split_range(n, nt, t);
            let (part, tail) = rest.cut_at(r.len());
            rest = tail;
            s.spawn(move || f(r, part));
        }
        f(split_range(n, nt, nt - 1), rest);
    });
}

/// Split `data` into chunks of exactly `chunk` elements (last may be short)
/// and run `f(chunk_index, chunk)` for each, distributing contiguous runs of
/// chunks across worker threads. The per-chunk index lets kernels recover
/// their position in the output index space (plane number, pencil number, …).
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk length must be positive");
    let len = data.len();
    par_split(len.div_ceil(chunk), len, Rows(data, chunk), |range, Rows(part, _)| {
        for (ci, c) in range.zip(part.chunks_mut(chunk)) {
            f(ci, c);
        }
    });
}

/// A raw view of a mutable slice that many threads may write through, for
/// the kernels whose output decomposition is *strided* rather than
/// contiguous, so [`par_split`] cannot cut it (the FFT column pass, the
/// rows of a sum's multi-row spectral planes). The caller is responsible
/// for index disjointness across threads.
#[derive(Clone, Copy)]
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the view stands for the `&'a mut [T]` it was made from, which is
// `Send` for `T: Send`; sharing it lets threads write `T`s into it, which the
// `unsafe` accessors leave to the caller to keep disjoint.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap `data` for disjoint multi-threaded writes.
    pub fn new(data: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice { ptr: data.as_mut_ptr(), len: data.len(), _life: std::marker::PhantomData }
    }

    /// The underlying pointer, for kernels that take a strided block whole.
    /// Dereferencing it is subject to the same rules as [`SharedSlice::write`].
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Write one element.
    ///
    /// # Safety
    /// `i` must be in bounds and no other thread may concurrently read or
    /// write index `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }

    /// Read one element.
    ///
    /// # Safety
    /// `i` must be in bounds and no other thread may concurrently write
    /// index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }

    /// Mutable view of a contiguous index range.
    ///
    /// # Safety
    /// The range must be in bounds and no other thread may concurrently read
    /// or write any index in it (across *all* outstanding views).
    #[inline]
    pub unsafe fn slice_mut(&self, r: std::ops::Range<usize>) -> &'a mut [T] {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_range() {
        for n in [0usize, 1, 7, 100] {
            for parts in 1..=8 {
                let mut covered = 0;
                for p in 0..parts {
                    covered += split_range(n, parts, p).len();
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn chunks_visit_every_chunk_once() {
        let n = MIN_PAR_LEN * 2 + 17;
        let mut data = vec![0u32; n];
        with_threads(4, || {
            par_chunks_mut(&mut data, 100, |ci, c| {
                for v in c.iter_mut() {
                    *v += 1 + ci as u32;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 100) as u32, "element {i}");
        }
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let n = MIN_PAR_LEN * 2;
        let mut data = vec![0.0f64; n];
        let shared = SharedSlice::new(&mut data);
        with_threads(4, || {
            par_split(n, n, (), |r, ()| {
                for i in r {
                    unsafe { shared.write(i, i as f64) };
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as f64));
    }

    /// Run `par_split` over `n` items on `threads` threads, with every
    /// kind of part at once, and check what each worker was handed: its
    /// parts cover exactly its items, the parts tile the output once, and
    /// `f` ran once per worker.
    fn split_hands_out_own_parts(n: usize, threads: usize) {
        let mut flat = vec![usize::MAX; n];
        let mut arr = [vec![usize::MAX; n], vec![usize::MAX; n]];
        let mut rows = vec![usize::MAX; 3 * n];
        let calls = AtomicUsize::new(0);
        let seen = std::sync::Mutex::new(Vec::new());
        // a per-thread budget, so tests that move the global override
        // concurrently cannot change the worker count
        set_local_threads(threads);
        {
            let [a0, a1] = arr.each_mut().map(|a| a.as_mut_slice());
            let out = ((flat.as_mut_slice(), [a0, a1]), (Rows(rows.as_mut_slice(), 3), ()));
            par_split(n, MIN_PAR_LEN, out, |r, ((f, [a0, a1]), (Rows(rw, len), ()))| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(len, 3);
                assert_eq!(
                    (f.len(), a0.len(), a1.len(), rw.len()),
                    (r.len(), r.len(), r.len(), 3 * r.len())
                );
                for (k, i) in r.clone().enumerate() {
                    f[k] = i;
                    a0[k] = i;
                    a1[k] = i;
                    rw[3 * k..3 * k + 3].fill(i);
                }
                seen.lock().unwrap().push(r);
            });
        }
        set_local_threads(0);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        let workers = if n >= 1 { threads.min(n) } else { 1 };
        assert_eq!(calls.into_inner(), workers, "n={n} threads={threads}: one call per worker");
        assert_eq!(seen.len(), workers);
        assert_eq!(seen.first().map(|r| r.start), Some(0));
        assert_eq!(seen.last().map(|r| r.end), Some(n));
        assert!(seen.windows(2).all(|w| w[0].end == w[1].start), "ranges tile 0..{n}: {seen:?}");
        let want: Vec<usize> = (0..n).collect();
        assert_eq!(flat, want);
        assert_eq!(arr, [want.clone(), want.clone()]);
        assert!(rows.iter().enumerate().all(|(e, &v)| v == e / 3));
    }

    #[test]
    fn split_tiles_the_output_once_per_worker() {
        for n in [0, 1, 7, MIN_PAR_LEN + 3] {
            for threads in 1..=4 {
                split_hands_out_own_parts(n, threads);
            }
        }
    }

    #[test]
    fn split_stays_serial_below_the_work_floor() {
        let calls = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        set_local_threads(4);
        par_split(64, MIN_PAR_LEN - 1, data.as_mut_slice(), |r, part| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((r, part.len()), (0..64, 64));
        });
        set_local_threads(0);
        assert_eq!(calls.into_inner(), 1);
    }

    #[test]
    fn a_workers_panic_reaches_the_caller() {
        let n = MIN_PAR_LEN + 3;
        let mut data = vec![0u8; n];
        set_local_threads(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_split(n, n, data.as_mut_slice(), |r, _| {
                // a spawned worker's range: the caller runs the last one
                if r.start == 0 {
                    panic!("worker 0 fails");
                }
            });
        }));
        set_local_threads(0);
        assert!(caught.is_err(), "the panic of a spawned worker must propagate");
    }

    #[test]
    fn threshold_keeps_small_work_serial() {
        with_threads(8, || {
            assert!(!par_enabled(16));
            assert!(par_enabled(MIN_PAR_LEN));
        });
        with_threads(1, || assert!(!par_enabled(1 << 20)));
    }

    #[test]
    fn env_resolution_override_wins() {
        with_threads(3, || assert_eq!(num_threads(), 3));
    }

    #[test]
    fn local_budget_beats_global_override() {
        with_threads(8, || {
            assert_eq!(num_threads(), 8);
            set_local_threads(2);
            assert_eq!(num_threads(), 2);
            set_local_threads(0);
            assert_eq!(num_threads(), 8, "a cleared budget falls back");
        });
    }

    #[test]
    fn local_budget_is_per_thread() {
        set_local_threads(3);
        assert_eq!(local_threads(), 3);
        let other = std::thread::spawn(local_threads).join().unwrap();
        assert_eq!(other, 0, "budget must not leak to other threads");
        set_local_threads(0);
    }

    #[test]
    fn kernels_respect_local_budget() {
        // a parallel kernel under a 1-thread budget matches the serial result
        let n = MIN_PAR_LEN + 9;
        let run = |budget: usize| {
            set_local_threads(budget);
            let mut data = vec![0usize; n];
            par_chunks_mut(&mut data, 100, |ci, c| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = (ci * 100 + k) * 3;
                }
            });
            data
        };
        let (serial, par) = (run(1), run(4));
        set_local_threads(0);
        assert_eq!(serial, par);
    }
}
