//! Host-speed clock: times an interval at the speed the machine ran at.
//!
//! The host's speed moves between levels up to 1.7× apart and stays on one
//! for seconds to half a minute (see the README's noise measurements), so
//! plain wall-clock of one solve spreads by 10–35 % from run to run and no
//! repetition inside a 20 s run averages that away. The child therefore runs
//! a fixed reference kernel at process start, at every Gauss–Newton boundary
//! and at the end — outside the timed intervals — and each stretch between
//! two ticks is scaled by how slowly the kernel ran at its two ends. The
//! kernel belongs to the benchmark and calls nothing in the solver, so no
//! solver change moves it.

use std::time::Instant;

const N: [usize; 3] = [40, 32, 24];
const LEN: usize = N[0] * N[1] * N[2];

/// Seconds one tick's timed passes take on this box in its fast state: the
/// speed at which scaled times read as plain seconds.
pub const REFERENCE_S: f64 = 2.3e-3;

/// How strongly the solver follows the kernel: when the kernel runs `r`
/// times slower, a whole registration was measured to run `r^0.85` times
/// slower (the kernel lives in L2, the solver partly in L3; the exponent
/// that minimised the run-to-run spread on all five workloads).
pub const SENSITIVITY: f64 = 0.85;

/// The reference kernel and its fixed inputs.
struct Kernel {
    field: Vec<f64>,
    queries: Vec<[f64; 3]>,
    out: Vec<f64>,
}

impl Kernel {
    fn new() -> Kernel {
        // a fixed linear-congruential stream: the same points on every run
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let field = (0..LEN).map(|_| next()).collect();
        let queries = (0..LEN)
            .map(|_| [next() * N[0] as f64, next() * N[1] as f64, next() * N[2] as f64])
            .collect();
        Kernel { field, queries, out: vec![0.0; LEN] }
    }

    /// One warming pass, then four timed ones; returns the timed seconds.
    fn run(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        for _ in 0..4 {
            self.pass();
        }
        std::hint::black_box(&self.out);
        t.elapsed().as_secs_f64()
    }

    /// Scattered trilinear gathers (latency- and cache-bound, like
    /// interpolation), then a streamed complex rotation (multiply-adds on
    /// cached data, like FFT butterflies).
    fn pass(&mut self) {
        let at = |i: usize, j: usize, k: usize| (i % N[0] * N[1] + j % N[1]) * N[2] + k % N[2];
        let lerp = |x: f64, y: f64, t: f64| x + t * (y - x);
        let f = &self.field;
        for (o, q) in self.out.iter_mut().zip(&self.queries) {
            let (i, j, k) = (q[0] as usize, q[1] as usize, q[2] as usize);
            let (a, b, c) = (q[0] - i as f64, q[1] - j as f64, q[2] - k as f64);
            let z0 = lerp(
                lerp(f[at(i, j, k)], f[at(i + 1, j, k)], a),
                lerp(f[at(i, j + 1, k)], f[at(i + 1, j + 1, k)], a),
                b,
            );
            let z1 = lerp(
                lerp(f[at(i, j, k + 1)], f[at(i + 1, j, k + 1)], a),
                lerp(f[at(i, j + 1, k + 1)], f[at(i + 1, j + 1, k + 1)], a),
                b,
            );
            *o = lerp(z0, z1, c);
        }
        let (c, s) = (0.8f64, 0.6f64);
        for _ in 0..8 {
            for pair in self.out.chunks_exact_mut(2) {
                let (re, im) = (pair[0], pair[1]);
                pair[0] = c * re - s * im;
                pair[1] = s * re + c * im;
            }
        }
    }
}

/// One run of the kernel. `start..end` is time the benchmark spent on
/// itself and belongs to no timed interval.
#[derive(Clone, Copy)]
struct Tick {
    start: Instant,
    end: Instant,
    kernel_s: f64,
}

/// Wall-clock seconds of an interval, and the same at reference speed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    pub wall_s: f64,
    pub scaled_s: f64,
}

/// `stretches` are `(seconds, kernel seconds before, kernel seconds after)`:
/// each stretch is divided by how much slower than [`REFERENCE_S`] the kernel
/// ran around it, to the power [`SENSITIVITY`].
pub fn scale(stretches: &[(f64, f64, f64)]) -> Timed {
    let mut sum = Timed::default();
    for &(secs, before, after) in stretches {
        let slowdown = (0.5 * (before + after) / REFERENCE_S).powf(SENSITIVITY);
        sum.wall_s += secs;
        sum.scaled_s += secs / slowdown;
    }
    sum
}

/// The child's clock. Tick 0 is taken at process start, tick 1 at the first
/// Gauss–Newton boundary, one more at every later boundary, and the last
/// when the solve has returned.
pub struct SpeedClock {
    origin: Instant,
    kernel: Kernel,
    ticks: Vec<Tick>,
}

impl SpeedClock {
    /// Build the kernel and take tick 0. `origin` is the process start.
    pub fn start(origin: Instant) -> SpeedClock {
        let start = Instant::now();
        let mut kernel = Kernel::new();
        let kernel_s = kernel.run();
        let first = Tick { start, end: Instant::now(), kernel_s };
        let mut ticks = Vec::with_capacity(64);
        ticks.push(first);
        SpeedClock { origin, kernel, ticks }
    }

    pub fn tick(&mut self) {
        let start = Instant::now();
        let kernel_s = self.kernel.run();
        self.ticks.push(Tick { start, end: Instant::now(), kernel_s });
    }

    /// Start of the first Gauss–Newton boundary, once it has been reached.
    pub fn first_boundary(&self) -> Option<Instant> {
        self.ticks.get(1).map(|t| t.start)
    }

    fn between(&self, ticks: &[Tick]) -> Timed {
        let stretches: Vec<(f64, f64, f64)> = ticks
            .windows(2)
            .map(|w| ((w[1].start - w[0].end).as_secs_f64(), w[0].kernel_s, w[1].kernel_s))
            .collect();
        scale(&stretches)
    }

    /// Process start → first boundary. The few microseconds before tick 0
    /// (argument parsing) count at the speed of tick 0.
    pub fn setup(&self) -> Option<Timed> {
        let t = self.ticks.get(..2)?;
        let before = (t[0].start - self.origin).as_secs_f64();
        let head = scale(&[(before, t[0].kernel_s, t[0].kernel_s)]);
        let body = self.between(t);
        Some(Timed { wall_s: head.wall_s + body.wall_s, scaled_s: head.scaled_s + body.scaled_s })
    }

    /// First boundary → last tick.
    pub fn solve(&self) -> Option<Timed> {
        (self.ticks.len() > 2).then(|| self.between(&self.ticks[1..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_leaves_seconds_alone() {
        let t = scale(&[(2.0, REFERENCE_S, REFERENCE_S), (3.0, REFERENCE_S, REFERENCE_S)]);
        assert_eq!(t, Timed { wall_s: 5.0, scaled_s: 5.0 });
    }

    #[test]
    fn a_slow_stretch_is_scaled_by_the_kernel_at_its_ends() {
        // kernel twice as slow around the second stretch
        let t =
            scale(&[(1.0, REFERENCE_S, REFERENCE_S), (2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S)]);
        assert_eq!(t.wall_s, 3.0);
        assert!((t.scaled_s - (1.0 + 2.0 / 2f64.powf(SENSITIVITY))).abs() < 1e-12);
        // a speed change inside a stretch counts half
        let t = scale(&[(1.0, REFERENCE_S, 3.0 * REFERENCE_S)]);
        assert!((t.scaled_s - 1.0 / 2f64.powf(SENSITIVITY)).abs() < 1e-12);
    }

    #[test]
    fn clock_excludes_its_own_ticks() {
        let mut clock = SpeedClock::start(Instant::now());
        assert!(clock.setup().is_none() && clock.solve().is_none());
        clock.tick();
        assert!(clock.first_boundary().is_some());
        for _ in 0..3 {
            clock.tick();
        }
        let kernel_total: f64 = clock.ticks.iter().map(|t| t.kernel_s).sum();
        let solve = clock.solve().unwrap();
        // nothing but ticks happened, so almost no time lies between them
        assert!(solve.wall_s < 0.5 * kernel_total, "{} vs {kernel_total}", solve.wall_s);
        assert!(clock.setup().unwrap().wall_s < 0.5 * kernel_total);
    }
}
