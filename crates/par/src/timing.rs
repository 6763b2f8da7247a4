//! Per-kernel timing counters.
//!
//! Each parallelized kernel family has one [`Kernel`] slot holding a call
//! count and accumulated wall-clock nanoseconds. Counters cover the whole
//! kernel invocation (serial or parallel), so comparing snapshots taken
//! under different thread counts measures the realized speedup directly.
//!
//! The slots are thread-local and charged to the thread that invoked the
//! kernel (its workers run inside the timed call): each rank thread of a
//! virtual cluster keeps its own, and [`snapshot`] and [`reset`] see only
//! the calling thread's.

use std::cell::Cell;
use std::time::Instant;

/// The instrumented kernel families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Finite-difference stencil application (per-axis derivative).
    Fd,
    /// Single-rank 3-D FFT (forward or inverse).
    FftSerial,
    /// Distributed FFT compute stages (2-D plane + 1-D pencil passes).
    FftDist,
    /// Transpose pack/unpack around the FFT all-to-all.
    FftTranspose,
    /// Scattered-data interpolation kernel (per-query evaluation).
    Interp,
    /// Ghost-layer pack/unpack and interior copy.
    Ghost,
    /// Element-wise field algebra (axpy, scale, dot, …).
    FieldOps,
    /// Semi-Lagrangian RK2 trajectory integration.
    SemiLag,
}

const NKERNELS: usize = 8;

const NAMES: [&str; NKERNELS] =
    ["fd", "fft_serial", "fft_dist", "fft_transpose", "interp", "ghost", "field_ops", "semilag"];

struct Slot {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

thread_local! {
    static SLOTS: [Slot; NKERNELS] =
        const { [const { Slot { calls: Cell::new(0), nanos: Cell::new(0) } }; NKERNELS] };
}

impl Kernel {
    fn index(self) -> usize {
        match self {
            Kernel::Fd => 0,
            Kernel::FftSerial => 1,
            Kernel::FftDist => 2,
            Kernel::FftTranspose => 3,
            Kernel::Interp => 4,
            Kernel::Ghost => 5,
            Kernel::FieldOps => 6,
            Kernel::SemiLag => 7,
        }
    }

    /// Stable snake_case name used in reports (`RunReport.kernels`).
    pub fn name(self) -> &'static str {
        NAMES[self.index()]
    }
}

/// Run `f`, charging its wall time to `k` on the calling thread.
pub fn time<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    SLOTS.with(|slots| {
        let slot = &slots[k.index()];
        slot.calls.set(slot.calls.get() + 1);
        slot.nanos.set(slot.nanos.get() + nanos);
    });
    out
}

/// One kernel's accumulated counters.
#[derive(Clone, Copy, Debug)]
pub struct KernelStat {
    /// Stable kernel name (see [`Kernel::name`]).
    pub name: &'static str,
    /// Invocations since the last [`reset`].
    pub calls: u64,
    /// Accumulated wall-clock nanoseconds across those invocations.
    pub nanos: u64,
}

/// The calling thread's counters for every kernel family, in declaration
/// order (including never-invoked ones, with zero calls).
pub fn snapshot() -> Vec<KernelStat> {
    SLOTS.with(|slots| {
        NAMES
            .iter()
            .zip(slots)
            .map(|(&name, s)| KernelStat { name, calls: s.calls.get(), nanos: s.nanos.get() })
            .collect()
    })
}

/// Zero the calling thread's counters.
pub fn reset() {
    SLOTS.with(|slots| {
        for s in slots {
            s.calls.set(0);
            s.nanos.set(0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates() {
        reset();
        let v = time(Kernel::Fd, || 41 + 1);
        assert_eq!(v, 42);
        time(Kernel::Fd, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let snap = snapshot();
        let fd = snap.iter().find(|s| s.name == "fd").unwrap();
        assert_eq!(fd.calls, 2);
        assert!(fd.nanos >= 1_000_000, "expected >=1ms accumulated, got {}", fd.nanos);
        reset();
        assert!(snapshot().iter().all(|s| s.calls == 0 && s.nanos == 0));
    }

    #[test]
    fn each_thread_snapshots_only_its_own_calls() {
        let calls = |k: &str| snapshot().iter().find(|s| s.name == k).unwrap().calls;
        reset();
        time(Kernel::Interp, || ());
        let other = std::thread::spawn(move || {
            time(Kernel::Ghost, || ());
            time(Kernel::Ghost, || ());
            (calls("interp"), calls("ghost"))
        })
        .join()
        .unwrap();
        assert_eq!(other, (0, 2));
        assert_eq!((calls("interp"), calls("ghost")), (1, 0));
        reset();
    }
}
