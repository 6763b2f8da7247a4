//! Shared-memory parallel kernel execution for CLAIRE-rs.
//!
//! The GPU implementation of CLAIRE (Brunn et al., SC 2020) launches each
//! kernel over a grid of thread blocks; every output element is computed by
//! exactly one thread. This crate reproduces that execution model on a
//! multicore CPU: each kernel splits its *output* index space into contiguous
//! chunks and hands one chunk per worker thread, so every output element is
//! written by exactly one thread and no synchronization is needed inside a
//! kernel. Workers are plain `std::thread::scope` scoped threads — the crate
//! has no dependencies and no global pool, which keeps the virtual-MPI
//! ranks-as-threads substrate (each rank may itself fan out) free of
//! pool-reentrancy hazards.
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

/// Execute `f(range)` over a partition of `0..n` items into contiguous
/// per-thread ranges, with the serial-vs-parallel decision made on
/// `total_work` (e.g. items × elements-per-item) rather than the item count —
/// a batch of 4096 FFT pencils is worth threading even though 4096 alone is
/// below [`MIN_PAR_LEN`]. `f` runs once per worker (serially: once with
/// `0..n`); it may read shared state freely but must own its writes (e.g.
/// through [`SharedSlice`] with disjoint indices).
pub fn par_parts<F>(n: usize, total_work: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let nt = if par_enabled(total_work) { num_threads().min(n.max(1)) } else { 1 };
    if nt <= 1 {
        f(0..n);
        return;
    }
    std::thread::scope(|s| {
        for t in 1..nt {
            let f = &f;
            s.spawn(move || f(split_range(n, nt, t)));
        }
        f(split_range(n, nt, 0));
    });
}

fn effective_threads(n: usize) -> usize {
    if !par_enabled(n) {
        return 1;
    }
    num_threads().min(n.max(1))
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
    let nchunks = len.div_ceil(chunk);
    let nt = effective_threads(len).min(nchunks.max(1));
    if nt <= 1 {
        for (ci, c) in data.chunks_mut(chunk).enumerate() {
            f(ci, c);
        }
        return;
    }
    std::thread::scope(|s| {
        let mut rest = data;
        let mut chunk_base = 0usize;
        for t in 0..nt {
            let r = split_range(nchunks, nt, t);
            let elems = ((r.end - r.start) * chunk).min(rest.len());
            let (mine, tail) = rest.split_at_mut(elems);
            rest = tail;
            let base = chunk_base;
            chunk_base += r.end - r.start;
            let f = &f;
            if t + 1 == nt {
                for (ci, c) in mine.chunks_mut(chunk).enumerate() {
                    f(base + ci, c);
                }
            } else {
                s.spawn(move || {
                    for (ci, c) in mine.chunks_mut(chunk).enumerate() {
                        f(base + ci, c);
                    }
                });
            }
        }
    });
}

/// A raw view of a mutable slice that many threads may write through, for
/// kernels whose natural output decomposition is *strided* rather than
/// contiguous (e.g. the x2/x3 FFT pencil stages, ghost-plane unpack). The
/// caller is responsible for index disjointness across threads.
#[derive(Clone, Copy)]
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap `data` for disjoint multi-threaded writes.
    pub fn new(data: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice { ptr: data.as_mut_ptr(), len: data.len(), _life: std::marker::PhantomData }
    }

    /// Element count of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            par_parts(n, n, |r| {
                for i in r {
                    unsafe { shared.write(i, i as f64) };
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as f64));
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
