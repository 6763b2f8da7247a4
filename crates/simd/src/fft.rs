//! The FFT kernel: an iterative Stockham autosort transform whose SIMD lanes
//! are adjacent lines.
//!
//! A batch of lines that sit next to each other in memory — the columns of
//! an `[n][stride]` complex array, or consecutive real rows — is cut into
//! tiles of [`TILE`] lines. Inside a tile every butterfly is a vertical
//! operation over a register of `W` lines with a broadcast twiddle: no
//! shuffle, no gather. Tile scratch is *planar* (row `r` holds the real
//! parts of its lines, then the imaginary parts), so a multiplication by
//! `±i` and the real/imaginary swap that turns the forward transform into
//! the inverse (`F⁻¹(z) = swap(F(swap z))/n`) are a choice of plane, and
//! the stages themselves are forward-only.
//!
//! One generic body serves both widths and both backends; what differs is
//! the register type behind [`Lanes`]: one line ([`Line`]) on the scalar
//! backend, `__m256d` / `__m256` on AVX2 (`avx2.rs`).

use core::mem::MaybeUninit;

use crate::Elem;

/// Lines per tile of the complex passes (chosen from the 64³/128³
/// `fft_pass_*` bench rows). A batch's last tile also takes a remainder of
/// up to [`MAX_W`] lines, so no tile is narrower than a register unless the
/// whole batch is.
const TILE: usize = 40;
/// Lines per tile of the real passes, whose lines are contiguous rows: a
/// narrow tile keeps rows, scratch and output in L1.
const REAL_TILE: usize = 8;
/// Widest register, in lines (`__m256` of f32).
const MAX_W: usize = 8;
/// Lines a scratch row of a complex pass has room for.
const SLOTS: usize = TILE + MAX_W;
/// Lines a scratch row of a real pass has room for.
const REAL_SLOTS: usize = REAL_TILE + MAX_W;

struct Stage {
    radix: usize,
    /// Sub-transforms left after this stage (`n / (s · radix)`).
    m: usize,
    /// Product of the earlier radices.
    s: usize,
    /// Offset of this stage's twiddles in `tw` (reals).
    tw: usize,
}

/// Radix list and stage twiddles of one {2,3,5}-smooth transform length —
/// what the lanes kernels execute. Built once per length at plan time.
pub struct Stockham<T> {
    n: usize,
    stages: Vec<Stage>,
    /// Per stage, per `p`: `w^{pk}` for `k = 1..radix`, interleaved re/im.
    tw: Vec<T>,
}

impl<T: Elem> Stockham<T> {
    /// Lines per tile of the complex passes.
    pub const TILE: usize = TILE;

    /// Plan length `n`; `None` unless `n ≥ 1` factors into 2, 3 and 5.
    pub fn new(n: usize) -> Option<Stockham<T>> {
        let mut radices = Vec::new();
        let mut left = n.max(1);
        for r in [5usize, 3, 4, 2] {
            while left.is_multiple_of(r) {
                radices.push(r);
                left /= r;
            }
        }
        if left != 1 || n == 0 {
            return None;
        }
        // the first stage reads the array and the last writes it back, so a
        // one-stage length gets a copy-out stage behind it
        if radices.len() == 1 {
            radices.push(1);
        }
        let (mut stages, mut tw, mut s) = (Vec::new(), Vec::new(), 1);
        for &radix in &radices {
            let nt = n / s;
            let m = nt / radix;
            stages.push(Stage { radix, m, s, tw: tw.len() });
            for p in 0..m {
                for k in 1..radix {
                    let theta = -2.0 * core::f64::consts::PI * ((p * k) % nt) as f64 / nt as f64;
                    tw.extend([T::from_f64(theta.cos()), T::from_f64(theta.sin())]);
                }
            }
            s *= radix;
        }
        Some(Stockham { n, stages, tw })
    }

    /// Transform length.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Scratch (in reals) a kernel call on a batch of `lines` lines needs:
    /// two planar buffers of `n + 1` rows (a real pass over `2n`-point lines
    /// holds their `n + 1` half-spectrum rows).
    pub fn scratch_len(&self, lines: usize) -> usize {
        2 * (self.n + 1) * 2 * slots(lines, SLOTS)
    }
}

/// Slots per scratch row for a batch of `lines` lines in tiles of up to
/// `widest`: a lone line packs tight, anything wider gets full tile rows.
fn slots(lines: usize, widest: usize) -> usize {
    if lines == 1 {
        1
    } else {
        widest
    }
}

/// Width of the next tile of `tile`-line tiles when `left` lines remain.
#[inline(always)]
fn tile_width(left: usize, tile: usize) -> usize {
    if left <= tile + MAX_W {
        left
    } else {
        tile
    }
}

/// A register of `W` reals, one per line.
///
/// # Safety
/// Every method is `unsafe`: the pointer methods move `W` (`load2`/`store2`:
/// `2W`, `transpose`: a `W × W` block of) reals the caller must own, and the
/// AVX2 implementations must only run on a host with AVX2 and FMA.
pub(crate) trait Lanes<T: Elem>: Copy {
    const W: usize;
    /// The one-line register with the same rounding, for batches narrower
    /// than `W` — so a line's bits never depend on how many lines travel
    /// with it.
    type One: Lanes<T, One = Self::One>;
    unsafe fn splat(x: T) -> Self;
    unsafe fn load(p: *const T) -> Self;
    unsafe fn store(self, p: *mut T);
    /// Split `2W` interleaved reals into (real parts, imaginary parts). The
    /// lane order is the implementation's own; [`Lanes::store2`] undoes it.
    unsafe fn load2(p: *const T) -> (Self, Self);
    unsafe fn store2(p: *mut T, re: Self, im: Self);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// `self · a + b`.
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    /// `self · a − b`.
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self;
    unsafe fn neg(self) -> Self;
    /// Transpose the `W × W` block of reals at `src` (row `j` at
    /// `src + (j ^ flip)·sp`) into the block at `dst` (row pitch `dp`).
    unsafe fn transpose(src: *const T, sp: usize, flip: usize, dst: *mut T, dp: usize);
}

/// One line as a register. `FUSED` picks the rounding of a multiply-add:
/// two roundings on the scalar backend, one where it stands in for an AVX2
/// register on a batch narrower than that register.
#[derive(Clone, Copy)]
pub(crate) struct Line<T, const FUSED: bool>(T);

impl<T: Elem, const FUSED: bool> Lanes<T> for Line<T, FUSED> {
    const W: usize = 1;
    type One = Self;
    #[inline(always)]
    unsafe fn splat(x: T) -> Self {
        Line(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const T) -> Self {
        Line(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut T) {
        *p = self.0
    }
    #[inline(always)]
    unsafe fn load2(p: *const T) -> (Self, Self) {
        (Line(*p), Line(*p.add(1)))
    }
    #[inline(always)]
    unsafe fn store2(p: *mut T, re: Self, im: Self) {
        *p = re.0;
        *p.add(1) = im.0;
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Line(self.0 + o.0)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Line(self.0 - o.0)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Line(self.0 * o.0)
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        Line(if FUSED { self.0.fused_mul_add(a.0, b.0) } else { self.0 * a.0 + b.0 })
    }
    #[inline(always)]
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        Line(if FUSED { self.0.fused_mul_add(a.0, -b.0) } else { self.0 * a.0 - b.0 })
    }
    #[inline(always)]
    unsafe fn neg(self) -> Self {
        Line(-self.0)
    }
    #[inline(always)]
    unsafe fn transpose(src: *const T, _: usize, _: usize, dst: *mut T, _: usize) {
        *dst = *src
    }
}

/// One complex element of `W` adjacent lines.
#[derive(Clone, Copy)]
struct Cv<V> {
    re: V,
    im: V,
}

impl<V: Copy> Cv<V> {
    #[inline(always)]
    unsafe fn add<T: Elem>(self, o: Self) -> Self
    where
        V: Lanes<T>,
    {
        Cv { re: self.re.add(o.re), im: self.im.add(o.im) }
    }
    #[inline(always)]
    unsafe fn sub<T: Elem>(self, o: Self) -> Self
    where
        V: Lanes<T>,
    {
        Cv { re: self.re.sub(o.re), im: self.im.sub(o.im) }
    }
    /// Multiply every line by the one complex number `w`.
    #[inline(always)]
    unsafe fn mul<T: Elem>(self, w: Self) -> Self
    where
        V: Lanes<T>,
    {
        Cv {
            re: self.re.mul_sub(w.re, self.im.mul(w.im)),
            im: self.re.mul_add(w.im, self.im.mul(w.re)),
        }
    }
    #[inline(always)]
    unsafe fn scale<T: Elem>(self, a: V) -> Self
    where
        V: Lanes<T>,
    {
        Cv { re: self.re.mul(a), im: self.im.mul(a) }
    }
    /// `self + a·o`.
    #[inline(always)]
    unsafe fn add_scaled<T: Elem>(self, a: V, o: Self) -> Self
    where
        V: Lanes<T>,
    {
        Cv { re: o.re.mul_add(a, self.re), im: o.im.mul_add(a, self.im) }
    }
    /// `−i·z`.
    #[inline(always)]
    unsafe fn neg_i<T: Elem>(self) -> Self
    where
        V: Lanes<T>,
    {
        Cv { re: self.im, im: self.re.neg() }
    }
    #[inline(always)]
    fn swap(self) -> Self {
        Cv { re: self.im, im: self.re }
    }
}

/// Forward DFT of length `R` across `R` registers.
#[inline(always)]
unsafe fn butterfly<T: Elem, V: Lanes<T>, const R: usize>(a: [Cv<V>; R]) -> [Cv<V>; R] {
    let k = |x: f64| V::splat(T::from_f64(x));
    let mut b = a;
    match R {
        2 => {
            b[0] = a[0].add(a[1]);
            b[1] = a[0].sub(a[1]);
        }
        3 => {
            let t1 = a[1].add(a[2]);
            let m1 = a[0].add_scaled(k(-0.5), t1);
            let m2 = a[1].sub(a[2]).scale(k(0.75f64.sqrt())).neg_i();
            b[0] = a[0].add(t1);
            b[1] = m1.add(m2);
            b[2] = m1.sub(m2);
        }
        4 => {
            let (t0, t1) = (a[0].add(a[2]), a[0].sub(a[2]));
            let (t2, t3) = (a[1].add(a[3]), a[1].sub(a[3]).neg_i());
            b[0] = t0.add(t2);
            b[1] = t1.add(t3);
            b[2] = t0.sub(t2);
            b[3] = t1.sub(t3);
        }
        5 => {
            let fifth = 2.0 * core::f64::consts::PI / 5.0;
            let (c1, c2) = (k(fifth.cos()), k((2.0 * fifth).cos()));
            let (s1, s2) = (k(fifth.sin()), k((2.0 * fifth).sin()));
            let (t1, t2) = (a[1].add(a[4]), a[2].add(a[3]));
            let (t3, t4) = (a[1].sub(a[4]), a[2].sub(a[3]));
            let m1 = a[0].add_scaled(c1, t1).add_scaled(c2, t2);
            let m2 = a[0].add_scaled(c2, t1).add_scaled(c1, t2);
            let n1 = t3.scale(s1).add_scaled(s2, t4).neg_i();
            let n2 = t3.scale(s2).add_scaled(s1.neg(), t4).neg_i();
            b[0] = a[0].add(t1).add(t2);
            b[1] = m1.add(n1);
            b[2] = m2.add(n2);
            b[3] = m2.sub(n2);
            b[4] = m1.sub(n1);
        }
        _ => {}
    }
    b
}

/// One register-wide chunk of a tile's lines: scratch slots
/// `slot .. slot + W` hold the tile's columns `col .. col + W`. A tile is at
/// least a register wide, and covers a ragged end with a chunk whose
/// columns overlap the chunk before it.
#[derive(Clone, Copy)]
struct Chunk {
    slot: usize,
    col: usize,
}

/// Where a stage reads or writes one chunk of a row.
trait Port<T: Elem, V: Lanes<T>>: Copy {
    unsafe fn load(self, row: usize, c: Chunk) -> Cv<V>;
    unsafe fn store(self, row: usize, c: Chunk, v: Cv<V>);
}

/// Tile scratch: row `r` holds `slots` real parts, then `slots` imaginary.
#[derive(Clone, Copy)]
struct Planar<T> {
    p: *mut T,
    slots: usize,
}

impl<T> Planar<T> {
    /// The two buffers of `rows` rows a kernel ping-pongs between.
    unsafe fn pair(scratch: *mut T, rows: usize, slots: usize) -> [Planar<T>; 2] {
        [Planar { p: scratch, slots }, Planar { p: scratch.add(rows * 2 * slots), slots }]
    }
}

impl<T: Elem, V: Lanes<T>> Port<T, V> for Planar<T> {
    #[inline(always)]
    unsafe fn load(self, row: usize, c: Chunk) -> Cv<V> {
        let p = self.p.add(row * 2 * self.slots + c.slot);
        Cv { re: V::load(p), im: V::load(p.add(self.slots)) }
    }
    #[inline(always)]
    unsafe fn store(self, row: usize, c: Chunk, v: Cv<V>) {
        let p = self.p.add(row * 2 * self.slots + c.slot);
        v.re.store(p);
        v.im.store(p.add(self.slots));
    }
}

/// The caller's `[n][stride]` array of interleaved complex numbers. `INV`
/// swaps real and imaginary parts on the way in and out and applies the
/// `1/n` on the way out.
#[derive(Clone, Copy)]
struct Array<T, const INV: bool> {
    p: *mut T,
    /// Reals per row.
    pitch: usize,
    scale: T,
}

impl<T: Elem, V: Lanes<T>, const INV: bool> Port<T, V> for Array<T, INV> {
    #[inline(always)]
    unsafe fn load(self, row: usize, c: Chunk) -> Cv<V> {
        let (re, im) = V::load2(self.p.add(row * self.pitch + 2 * c.col));
        if INV {
            Cv { re: im, im: re }
        } else {
            Cv { re, im }
        }
    }
    #[inline(always)]
    unsafe fn store(self, row: usize, c: Chunk, v: Cv<V>) {
        let v = if INV { v.swap().scale(V::splat(self.scale)) } else { v };
        V::store2(self.p.add(row * self.pitch + 2 * c.col), v.re, v.im);
    }
}

/// Chunk `i` of a tile of `valid ≥ W` lines. With `ALIGNED` (a stage chain
/// that enters through [`Lanes::load2`], whose lane order is private to the
/// chunk) the overlapping last chunk gets scratch slots of its own.
#[inline(always)]
fn chunk_at<const ALIGNED: bool>(i: usize, w: usize, valid: usize) -> Chunk {
    let col = (i * w).min(valid - w);
    Chunk { slot: if ALIGNED { i * w } else { col }, col }
}

/// One Stockham stage of radix `R` over a tile of `valid` lines:
/// `dst[q + s(Rp + k)] = w^{pk} Σ_j ω_R^{jk} src[q + s(p + jm)]`.
#[inline(always)]
unsafe fn stage<T: Elem, V: Lanes<T>, const R: usize, const ALIGNED: bool, S, D>(
    (src, dst): (S, D),
    st: &Stage,
    tw: *const T,
    valid: usize,
) where
    S: Port<T, V>,
    D: Port<T, V>,
{
    let (m, s) = (st.m, st.s);
    for p in 0..m {
        let w = tw.add(st.tw + 2 * (R - 1) * p);
        let mut wk = [Cv { re: V::splat(T::ONE), im: V::splat(T::ZERO) }; R];
        for (k, wk) in wk.iter_mut().enumerate().skip(1) {
            *wk = Cv { re: V::splat(*w.add(2 * k - 2)), im: V::splat(*w.add(2 * k - 1)) };
        }
        for q in 0..s {
            for i in 0..valid.div_ceil(V::W) {
                let c = chunk_at::<ALIGNED>(i, V::W, valid);
                let mut a = wk;
                for (j, a) in a.iter_mut().enumerate() {
                    *a = src.load(q + s * (p + j * m), c);
                }
                let b = butterfly::<T, V, R>(a);
                dst.store(q + s * R * p, c, b[0]);
                for k in 1..R {
                    // w^0 = 1: the p = 0 rows (all of the last stage) skip the multiply
                    let v = if p == 0 { b[k] } else { b[k].mul(wk[k]) };
                    dst.store(q + s * (R * p + k), c, v);
                }
            }
        }
    }
}

#[inline(always)]
unsafe fn run_stage<T: Elem, V: Lanes<T>, const ALIGNED: bool, S, D>(
    ports: (S, D),
    st: &Stage,
    tw: *const T,
    valid: usize,
) where
    S: Port<T, V>,
    D: Port<T, V>,
{
    match st.radix {
        1 => stage::<T, V, 1, ALIGNED, S, D>(ports, st, tw, valid),
        2 => stage::<T, V, 2, ALIGNED, S, D>(ports, st, tw, valid),
        3 => stage::<T, V, 3, ALIGNED, S, D>(ports, st, tw, valid),
        4 => stage::<T, V, 4, ALIGNED, S, D>(ports, st, tw, valid),
        _ => stage::<T, V, 5, ALIGNED, S, D>(ports, st, tw, valid),
    }
}

/// Transform `cols` adjacent columns of the `[n][stride]` interleaved
/// complex array at `data` in place: the first stage reads the array, the
/// middle stages ping-pong in scratch, the last writes the array back.
///
/// # Safety
/// `cols ≥ V::W` (a narrower batch takes `V::One`); `data` must be valid
/// for `2·((n − 1)·stride + cols)` reals with nothing else touching those
/// columns, `scratch` for `plan.scratch_len(cols)`.
#[inline(always)]
pub(crate) unsafe fn cols<T: Elem, V: Lanes<T>, const INV: bool>(
    plan: &Stockham<T>,
    data: *mut T,
    stride: usize,
    cols: usize,
    scratch: *mut T,
) {
    if plan.n == 1 {
        return;
    }
    let bufs = Planar::pair(scratch, plan.n, slots(cols, SLOTS));
    let tw = plan.tw.as_ptr();
    let last = plan.stages.len() - 1;
    let scale = T::ONE / T::from_f64(plan.n as f64);
    let mut c0 = 0;
    while c0 < cols {
        let valid = tile_width(cols - c0, TILE);
        let arr = Array::<T, INV> { p: data.add(2 * c0), pitch: 2 * stride, scale };
        run_stage::<T, V, true, _, _>((arr, bufs[0]), &plan.stages[0], tw, valid);
        for t in 1..last {
            let ports = (bufs[(t - 1) % 2], bufs[t % 2]);
            run_stage::<T, V, true, _, _>(ports, &plan.stages[t], tw, valid);
        }
        run_stage::<T, V, true, _, _>((bufs[(last - 1) % 2], arr), &plan.stages[last], tw, valid);
        c0 += valid;
    }
}

/// Transpose the `rows × len` block of reals at `src` (row pitch `sp`) into
/// `len` rows of `rows` reals at `dst` (row pitch `dp`), a `W × W` block at
/// a time with the ragged edges covered by overlapping blocks. With
/// `flip = 1` (`rows` even) source rows `2j` and `2j + 1` trade places.
#[inline(always)]
unsafe fn transpose<T: Elem, V: Lanes<T>>(
    src: (*const T, usize),
    (rows, len): (usize, usize),
    flip: usize,
    dst: (*mut T, usize),
) {
    if rows < V::W || len < V::W {
        // too small for a block: one real at a time
        transpose_blocks::<T, V::One>(src, (rows, len), flip, dst)
    } else {
        transpose_blocks::<T, V>(src, (rows, len), flip, dst)
    }
}

#[inline(always)]
unsafe fn transpose_blocks<T: Elem, V: Lanes<T>>(
    (src, sp): (*const T, usize),
    (rows, len): (usize, usize),
    flip: usize,
    (dst, dp): (*mut T, usize),
) {
    for r in (0..rows).step_by(V::W) {
        let r0 = r.min(rows - V::W);
        // a one-line register has no row pair inside its block to flip
        let from = if V::W == 1 { r0 ^ flip } else { r0 };
        for k in (0..len).step_by(V::W) {
            let k0 = k.min(len - V::W);
            V::transpose(src.add(from * sp + k0), sp, flip, dst.add(k0 * dp + r0), dp);
        }
    }
}

/// Run every stage of `plan` inside tile scratch, starting in `bufs[at]`;
/// returns the index of the buffer that ends up holding the result.
#[inline(always)]
unsafe fn stages_in_scratch<T: Elem, V: Lanes<T>>(
    plan: &Stockham<T>,
    bufs: [Planar<T>; 2],
    mut at: usize,
    valid: usize,
) -> usize {
    for st in plan.stages.iter().filter(|st| st.radix > 1) {
        run_stage::<T, V, false, _, _>((bufs[at], bufs[1 - at]), st, plan.tw.as_ptr(), valid);
        at = 1 - at;
    }
    at
}

/// Real-to-complex pass: `rows` real lines of `2m` points at `input` become
/// `rows` half-spectra of `m + 1` interleaved complex numbers at `out`.
/// `half` plans length `m`; `w[k] = e^{-2πik/2m}` for `k = 0..=m`,
/// interleaved. A tile of rows is transposed into scratch — a row of `2m`
/// reals is `m` packed complex numbers — transformed, split across lanes
/// with a broadcast `w[k]`, and transposed back out.
///
/// # Safety
/// `rows ≥ V::W` (a narrower batch takes `V::One`); `input` must be valid
/// for `rows·2m` reals, `out` for `rows·(2m + 2)`, `w` for `2m + 2`,
/// `scratch` for `half.scratch_len(rows)`.
#[inline(always)]
pub(crate) unsafe fn r2c<T: Elem, V: Lanes<T>>(
    half: &Stockham<T>,
    w: *const T,
    input: *const T,
    out: *mut T,
    rows: usize,
    scratch: *mut T,
) {
    let m = half.n;
    let bufs = Planar::pair(scratch, m + 1, slots(rows, REAL_SLOTS));
    let h = V::splat(T::from_f64(0.5));
    let mut r0 = 0;
    while r0 < rows {
        let valid = tile_width(rows - r0, REAL_TILE);
        let tile = (input.add(r0 * 2 * m), 2 * m);
        transpose::<T, V>(tile, (valid, 2 * m), 0, (bufs[0].p, bufs[0].slots));
        let at = stages_in_scratch::<T, V>(half, bufs, 0, valid);
        let (z, x) = (bufs[at], bufs[1 - at]);
        // X[k] = E + w^k O and X[m-k] = conj(E - w^k O), with
        // E = (Z[k] + conj Z[m-k])/2 and O = -i (Z[k] - conj Z[m-k])/2
        for k in 0..=m / 2 {
            let wk = Cv { re: V::splat(*w.add(2 * k)), im: V::splat(*w.add(2 * k + 1)) };
            for i in 0..valid.div_ceil(V::W) {
                let c = chunk_at::<false>(i, V::W, valid);
                let (a, b): (Cv<V>, Cv<V>) = (z.load(k, c), z.load((m - k) % m, c));
                let e = Cv { re: a.re.add(b.re), im: a.im.sub(b.im) }.scale(h);
                let o = Cv { re: a.im.add(b.im), im: b.re.sub(a.re) }.scale(h);
                let wo = o.mul(wk);
                x.store(k, c, e.add(wo));
                let lo = e.sub(wo);
                x.store(m - k, c, Cv { re: lo.re, im: lo.im.neg() });
            }
        }
        let dst = (out.add(r0 * (2 * m + 2)), 2 * m + 2);
        transpose::<T, V>((x.p, x.slots), (2 * m + 2, valid), 0, dst);
        r0 += valid;
    }
}

/// Complex-to-real pass, the inverse of [`r2c`] including the `1/2m`.
///
/// # Safety
/// `rows ≥ V::W` (a narrower batch takes `V::One`); `spec` must be valid
/// for `rows·(2m + 2)` reals, `out` for `rows·2m`, `w` for `2m + 2`,
/// `scratch` for `half.scratch_len(rows)`.
#[inline(always)]
pub(crate) unsafe fn c2r<T: Elem, V: Lanes<T>>(
    half: &Stockham<T>,
    w: *const T,
    spec: *const T,
    out: *mut T,
    rows: usize,
    scratch: *mut T,
) {
    let m = half.n;
    let bufs = Planar::pair(scratch, m + 1, slots(rows, REAL_SLOTS));
    let scale = T::ONE / T::from_f64(2.0 * m as f64);
    let sv = V::splat(scale);
    let mut r0 = 0;
    while r0 < rows {
        let valid = tile_width(rows - r0, REAL_TILE);
        let (x, z) = (bufs[1], bufs[0]);
        let tile = (spec.add(r0 * (2 * m + 2)), 2 * m + 2);
        transpose::<T, V>(tile, (valid, 2 * m + 2), 0, (x.p, x.slots));
        // Z[k] = E + iO and Z[m-k] = conj(E - iO), with E = X[k] + conj X[m-k]
        // and O = conj(w^k)(X[k] - conj X[m-k]); stored scaled and with real
        // and imaginary parts swapped, so the forward stages invert
        for k in 0..=m / 2 {
            let wk = Cv {
                re: V::splat(*w.add(2 * k) * scale),
                im: V::splat(-*w.add(2 * k + 1) * scale),
            };
            for i in 0..valid.div_ceil(V::W) {
                let c = chunk_at::<false>(i, V::W, valid);
                let (a, b): (Cv<V>, Cv<V>) = (x.load(k, c), x.load(m - k, c));
                let e = Cv { re: a.re.add(b.re), im: a.im.sub(b.im) }.scale(sv);
                let o = Cv { re: a.re.sub(b.re), im: a.im.add(b.im) }.mul(wk);
                if k > 0 {
                    z.store(m - k, c, Cv { re: o.re.sub(e.im), im: e.re.add(o.im) });
                }
                z.store(k, c, Cv { re: e.im.add(o.re), im: e.re.sub(o.im) });
            }
        }
        let at = stages_in_scratch::<T, V>(half, bufs, 0, valid);
        let dst = (out.add(r0 * 2 * m), 2 * m);
        transpose::<T, V>((bufs[at].p, bufs[at].slots), (2 * m, valid), 1, dst);
        r0 += valid;
    }
}

/// Row count of a real pass, once every length agrees: `real` reals in
/// `2m`-point rows, `spec` reals in rows of `m + 1` complex numbers.
pub(crate) fn real_rows<T: Elem>(half: &Stockham<T>, w: &[T], real: usize, spec: usize) -> usize {
    let m = half.n;
    assert_eq!(w.len(), 2 * m + 2, "real FFT needs m + 1 unpacking twiddles");
    assert_eq!(real % (2 * m), 0, "real FFT input is not whole rows");
    let rows = real / (2 * m);
    assert_eq!(spec, rows * (2 * m + 2), "real FFT spectrum/row count mismatch");
    rows
}

/// The scratch pointer of a kernel call, once its length is checked.
pub(crate) fn scratch_ptr<T: Elem>(
    plan: &Stockham<T>,
    lines: usize,
    scratch: &mut [MaybeUninit<T>],
) -> *mut T {
    assert!(scratch.len() >= plan.scratch_len(lines), "FFT tile scratch too small");
    scratch.as_mut_ptr().cast()
}
