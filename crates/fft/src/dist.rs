//! Distributed 3D FFT with the paper's 2D slab decomposition (§3.3).
//!
//! Real space is decomposed in `x1` (the grid's slab layout); spectral space
//! is decomposed in `x2`. The real-to-complex transform runs in three steps:
//!
//! 1. batched 2D FFTs in the local x2–x3 planes (r2c along x3, then complex
//!    along x2) — all data local;
//! 2. an all-to-all transpose from the x1 decomposition to the x2
//!    decomposition (traffic category
//!    [`CommCat::FftTranspose`](claire_mpi::CommCat::FftTranspose); per-rank
//!    volume `O(N/p − N/p²)` as analysed in the paper);
//! 3. batched 1D complex FFTs along x1, now fully local.
//!
//! The inverse runs the three steps in reverse with inverse transforms. On a
//! single rank the plan falls back to the serial 3D transform, exactly like
//! the paper falls back to cuFFT's 3D FFT ("to avoid additional operations,
//! in particular an explicit transpose").
//!
//! Everything is generic over the element width [`FftElem`]: the mixed-
//! precision inner solve transforms `f32` fields, which halves the
//! all-to-all transpose payload on the wire (the dominant collective of the
//! inner Krylov iteration).

use std::sync::Arc;

use claire_grid::{
    ClaireError, ClaireResult, Grid, Layout, PoolVec, Real, ScalarFieldT, Slab, WsCat,
};
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_obs::span::span;
use claire_par::timing::{self, Kernel};
use claire_par::{par_chunks_mut, ELEM_CHUNK};

use crate::complex::CpxT;
use crate::serial3d::Fft3T;
use crate::{cache, pass, FftElem};

/// Spectral coefficients distributed in x2 slabs, generic over width.
///
/// Local dims are `[n1, nj, n3c]` with `nj` the owned x2 extent and
/// `n3c = n3/2 + 1`; x1 is fully local (slowest), x3 fastest.
#[derive(Debug)]
pub struct DistSpectralT<T: FftElem> {
    /// Global real-space grid.
    pub grid: Grid,
    /// Owned x2 range.
    pub x2_slab: Slab,
    /// Complex coefficients, dims `[n1, nj, n3c]` (pooled, µFFT budget).
    pub data: PoolVec<CpxT<T>>,
}

/// Field-precision ([`Real`]) distributed spectrum.
pub type DistSpectral = DistSpectralT<Real>;

/// The poison of a write-only complex checkout.
fn cpx_nan<T: FftElem>() -> CpxT<T> {
    let nan = T::from_f64(f64::NAN);
    CpxT::new(nan, nan)
}

impl<T: FftElem> Clone for DistSpectralT<T> {
    /// A pooled copy, written in parallel on the field-op clock.
    fn clone(&self) -> Self {
        let mut out = DistSpectralT::for_overwrite(self.grid, self.x2_slab);
        let src = &self.data;
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut out.data, ELEM_CHUNK, |ci, c| {
                c.copy_from_slice(&src[ci * ELEM_CHUNK..][..c.len()])
            })
        });
        out
    }
}

impl<T: FftElem> DistSpectralT<T> {
    /// Spectral extent along x3.
    pub fn n3c(&self) -> usize {
        self.grid.n[2] / 2 + 1
    }

    /// Zeroed spectral storage for the given grid/slab, written in
    /// parallel on the field-op clock.
    pub fn zeros(grid: Grid, x2_slab: Slab) -> DistSpectralT<T> {
        let mut out = DistSpectralT::for_overwrite(grid, x2_slab);
        timing::time(Kernel::FieldOps, || {
            par_chunks_mut(&mut out.data, ELEM_CHUNK, |_, c| c.fill(CpxT::ZERO))
        });
        out
    }

    /// Spectral storage for a writer that sets every coefficient before
    /// anything reads one. Its coefficients are unspecified: under
    /// `debug_assertions` all NaN, otherwise whatever the buffer's last
    /// holder wrote, NaN beyond that.
    pub fn for_overwrite(grid: Grid, x2_slab: Slab) -> DistSpectralT<T> {
        let len = grid.n[0] * x2_slab.ni * (grid.n[2] / 2 + 1);
        let data = T::cpx_pool().checkout_written(len, cpx_nan(), WsCat::Fft);
        DistSpectralT { grid, x2_slab, data }
    }

    /// Linear index of `(i, jl, k)` — global x1 `i`, local x2 `jl`, x3 `k`.
    #[inline]
    pub fn idx(&self, i: usize, jl: usize, k: usize) -> usize {
        (i * self.x2_slab.ni + jl) * self.n3c() + k
    }

    /// Global x2 index of local row `jl`.
    #[inline]
    pub fn j_global(&self, jl: usize) -> usize {
        self.x2_slab.i0 + jl
    }
}

/// Planned distributed 3D real↔complex FFT for one rank of a cluster.
pub struct DistFftT<T: FftElem> {
    grid: Grid,
    nranks: usize,
    rank: usize,
    /// The three 1-D plans — and, on one rank, the whole transform.
    plans: Arc<Fft3T<T>>,
}

/// Field-precision ([`Real`]) distributed FFT plan.
pub type DistFft = DistFftT<Real>;

impl<T: FftElem> DistFftT<T> {
    /// Plan for the calling rank of `comm`.
    /// Panicking convenience wrapper around [`DistFftT::try_new`].
    pub fn new(grid: Grid, comm: &Comm) -> DistFftT<T> {
        DistFftT::try_new(grid, comm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plan for the calling rank of `comm`, rejecting grids the slab
    /// decomposition cannot split across `comm.size()` ranks.
    pub fn try_new(grid: Grid, comm: &Comm) -> ClaireResult<DistFftT<T>> {
        let p = comm.size();
        if p > grid.n[0] || p > grid.n[1] {
            return Err(ClaireError::Decomposition {
                context: "DistFft::new",
                message: format!(
                    "slab decomposition needs p <= min(n1, n2); got p = {p} for grid {}x{}x{}",
                    grid.n[0], grid.n[1], grid.n[2]
                ),
            });
        }
        Ok(DistFftT { grid, nranks: p, rank: comm.rank(), plans: cache::fft3_t(grid) })
    }

    /// The grid this plan transforms.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// This rank's spectral x2 slab.
    pub fn x2_slab(&self) -> Slab {
        Slab::of_rank(self.grid.n[1], self.nranks, self.rank)
    }

    /// This rank's real-space layout.
    fn layout(&self) -> Layout {
        let slab = Slab::of_rank(self.grid.n[0], self.nranks, self.rank);
        Layout { grid: self.grid, slab, nranks: self.nranks, rank: self.rank }
    }

    /// One `alltoallv` for all fields of a transform. The packed messages
    /// are handed over, not copied: in-process peers get the vectors
    /// themselves and this rank's own stripe moves into the result, so the
    /// sent buffers are gone before the caller allocates what it unpacks
    /// into.
    fn transpose(&self, bufs: Vec<Vec<CpxT<T>>>, comm: &mut Comm) -> Vec<Vec<CpxT<T>>> {
        let _c = span("fft.transpose_comm");
        comm.alltoallv_owned(bufs, CommCat::FftTranspose, AlltoallMethod::Auto)
    }

    /// Forward r2c transform of a slab-distributed field: the one-field
    /// call of [`DistFftT::forward_many`].
    pub fn forward(&self, field: &ScalarFieldT<T>, comm: &mut Comm) -> DistSpectralT<T> {
        let [spec] = self.forward_many([field], comm);
        spec
    }

    /// Inverse c2r transform back to a slab-distributed real field: the
    /// one-field call of [`DistFftT::inverse_many`].
    pub fn inverse(&self, spec: DistSpectralT<T>, comm: &mut Comm) -> ScalarFieldT<T> {
        let [field] = self.inverse_many([spec], comm);
        field
    }

    /// Forward r2c transform of 1–3 slab-distributed fields (the components
    /// of a vector operator). The fields share one work buffer and, on
    /// p > 1, ride one `alltoallv`: each destination rank gets a single
    /// message holding its stripe of every field, back to back.
    pub fn forward_many<const NF: usize>(
        &self,
        fields: [&ScalarFieldT<T>; NF],
        comm: &mut Comm,
    ) -> [DistSpectralT<T>; NF] {
        let _s = span("fft.forward");
        let [n1, n2, n3] = self.grid.n;
        let n3c = n3 / 2 + 1;
        for f in fields {
            assert_eq!(*f.layout(), self.layout(), "field layout mismatch");
        }
        if self.nranks == 1 {
            return fields.map(|f| {
                let mut spec = DistSpectralT::for_overwrite(self.grid, Slab::full(n2));
                self.plans.forward(f.data(), &mut spec.data);
                spec
            });
        }

        // steps 1 + 2: batched 2-D FFT of each field's local x1 planes, then
        // its stripes appended to the per-destination messages — rows
        // j ∈ js are consecutive at fixed il, so a destination's stripe of a
        // plane is one contiguous run
        let (p, ni) = (self.nranks, self.layout().slab.ni);
        let mut work = T::cpx_pool().checkout_written(ni * n2 * n3c, cpx_nan(), WsCat::Fft);
        let mut bufs: Vec<Vec<CpxT<T>>> = (0..p)
            .map(|dst| Vec::with_capacity(NF * ni * Slab::of_rank(n2, p, dst).ni * n3c))
            .collect();
        for f in fields {
            timing::time(Kernel::FftDist, || {
                pass::rows_forward(&self.plans.r3, f.data(), &mut work);
                pass::cols(&self.plans.c2, false, &mut work, n3c);
            });
            timing::time(Kernel::FftTranspose, || {
                for (dst, buf) in bufs.iter_mut().enumerate() {
                    let js = Slab::of_rank(n2, p, dst);
                    for il in 0..ni {
                        let base = (il * n2 + js.i0) * n3c;
                        buf.extend_from_slice(&work[base..base + js.ni * n3c]);
                    }
                }
            });
        }
        let parts = self.transpose(bufs, comm);

        // unpack: a source rank's x1 planes of one field are one contiguous
        // run of the `[n1][nj][n3c]` spectral storage
        let my_js = self.x2_slab();
        let run = my_js.ni * n3c;
        let mut specs = std::array::from_fn(|_| DistSpectralT::for_overwrite(self.grid, my_js));
        timing::time(Kernel::FftTranspose, || {
            for (src, part) in parts.iter().enumerate() {
                let planes = Slab::of_rank(n1, p, src);
                let len = planes.ni * run;
                assert_eq!(part.len(), NF * len, "transpose block size mismatch");
                for (spec, block) in specs.iter_mut().zip(part.chunks_exact(len)) {
                    spec.data[planes.i0 * run..][..len].copy_from_slice(block);
                }
            }
        });

        // step 3: 1D FFT along x1, down the whole slab
        timing::time(Kernel::FftDist, || {
            for spec in &mut specs {
                pass::cols(&self.plans.c1, false, &mut spec.data, run);
            }
        });
        specs
    }

    /// Inverse c2r transform of 1–3 spectra, the mirror of
    /// [`DistFftT::forward_many`]: one `alltoallv` on p > 1.
    pub fn inverse_many<const NF: usize>(
        &self,
        specs: [DistSpectralT<T>; NF],
        comm: &mut Comm,
    ) -> [ScalarFieldT<T>; NF] {
        let _s = span("fft.inverse");
        let [n1, n2, n3] = self.grid.n;
        let n3c = n3 / 2 + 1;
        let layout = self.layout();
        for spec in &specs {
            assert_eq!((spec.grid, spec.x2_slab), (self.grid, self.x2_slab()), "spectrum mismatch");
        }
        if self.nranks == 1 {
            return specs.map(|mut spec| {
                let mut out = ScalarFieldT::for_overwrite_in(layout, WsCat::Fft);
                self.plans.inverse(&mut spec.data, out.data_mut());
                out
            });
        }

        // steps 3' + 2': inverse 1D along x1, then each destination rank's
        // x1 planes — one contiguous run — appended to its message
        let (p, ni) = (self.nranks, layout.slab.ni);
        let run = self.x2_slab().ni * n3c;
        let mut bufs: Vec<Vec<CpxT<T>>> =
            (0..p).map(|dst| Vec::with_capacity(NF * Slab::of_rank(n1, p, dst).ni * run)).collect();
        for mut spec in specs {
            timing::time(Kernel::FftDist, || pass::cols(&self.plans.c1, true, &mut spec.data, run));
            timing::time(Kernel::FftTranspose, || {
                for (dst, buf) in bufs.iter_mut().enumerate() {
                    let planes = Slab::of_rank(n1, p, dst);
                    buf.extend_from_slice(&spec.data[planes.i0 * run..][..planes.ni * run]);
                }
            });
        }
        let parts = self.transpose(bufs, comm);

        // unpack + step 1': per field, every source's stripes back into the
        // `[ni][n2][n3c]` planes, inverse 2-D FFT, c2r
        let mut work = T::cpx_pool().checkout_written(ni * n2 * n3c, cpx_nan(), WsCat::Fft);
        std::array::from_fn(|field| {
            timing::time(Kernel::FftTranspose, || {
                for (src, part) in parts.iter().enumerate() {
                    let js = Slab::of_rank(n2, p, src);
                    let stripe = js.ni * n3c;
                    assert_eq!(part.len(), NF * ni * stripe, "transpose block size mismatch");
                    let block = &part[field * ni * stripe..][..ni * stripe];
                    for (il, rows) in block.chunks_exact(stripe).enumerate() {
                        work[(il * n2 + js.i0) * n3c..][..stripe].copy_from_slice(rows);
                    }
                }
            });
            let mut out = ScalarFieldT::for_overwrite_in(layout, WsCat::Fft);
            timing::time(Kernel::FftDist, || {
                pass::cols(&self.plans.c2, true, &mut work, n3c);
                pass::rows_inverse(&self.plans.r3, &work, out.data_mut());
            });
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cpx;
    use crate::serial3d::Fft3;
    use claire_grid::{redist, ScalarField};
    use claire_mpi::{run_cluster, Topology};

    fn test_field(layout: Layout) -> ScalarField {
        ScalarField::from_fn(layout, |x, y, z| {
            (x + 0.3).sin() * (2.0 * y).cos() + (z - 0.7 * x).sin() + 0.25
        })
    }

    #[test]
    fn distributed_matches_serial() {
        let grid = Grid::new([8, 6, 4]);
        // serial reference
        let sf = test_field(Layout::serial(grid));
        let plan = Fft3::new(grid);
        let mut ref_spec = vec![Cpx::ZERO; plan.spectral_len()];
        plan.forward(sf.data(), &mut ref_spec);

        for p in [1usize, 2, 3, 4] {
            let ref_spec = ref_spec.clone();
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let f = test_field(layout);
                let dfft = DistFft::new(grid, comm);
                let spec = dfft.forward(&f, comm);
                // compare owned x2 rows against the serial spectrum
                let n3c = spec.n3c();
                let mut max_err = 0.0f64;
                for i in 0..grid.n[0] {
                    for jl in 0..spec.x2_slab.ni {
                        let j = spec.j_global(jl);
                        for k in 0..n3c {
                            let mine = spec.data[spec.idx(i, jl, k)];
                            let refv = ref_spec[(i * grid.n[1] + j) * n3c + k];
                            max_err = max_err.max((mine - refv).abs() as f64);
                        }
                    }
                }
                // roundtrip
                let back = dfft.inverse(spec, comm);
                let mut rt_err = 0.0f64;
                for (a, b) in back.data().iter().zip(f.data()) {
                    rt_err = rt_err.max((a - b).abs());
                }
                (max_err, rt_err)
            });
            for (i, &(se, re)) in res.outputs.iter().enumerate() {
                assert!(se < 1e-8, "p={p} rank={i}: spectral err {se}");
                assert!(re < 1e-8, "p={p} rank={i}: roundtrip err {re}");
            }
        }
    }

    /// The distributed plan runs the serial plan's passes on the same lines,
    /// so on every rank count each rank's slab of the spectrum — and the
    /// round trip — carries the serial plan's bits.
    fn matches_serial_bitwise<T: FftElem>(grid: Grid) {
        let sf: ScalarFieldT<T> = test_field(Layout::serial(grid)).converted(WsCat::Fft);
        let plan = Fft3T::<T>::new(grid);
        let mut serial = vec![CpxT::<T>::ZERO; plan.spectral_len()];
        plan.forward(sf.data(), &mut serial);
        let mut back = vec![T::ZERO; grid.len()];
        plan.inverse(&mut serial.clone(), &mut back);
        for p in [1usize, 2, 3, 4] {
            let (serial, back) = (serial.clone(), back.clone());
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let f: ScalarFieldT<T> = test_field(layout).converted(WsCat::Fft);
                let dfft = DistFftT::<T>::new(grid, comm);
                let spec = dfft.forward(&f, comm);
                let n3c = spec.n3c();
                let rows = (0..grid.n[0]).flat_map(|i| (0..spec.x2_slab.ni).map(move |jl| (i, jl)));
                let spectrum_ok = rows.into_iter().all(|(i, jl)| {
                    let at = (i * grid.n[1] + spec.j_global(jl)) * n3c;
                    spec.data[spec.idx(i, jl, 0)..][..n3c] == serial[at..at + n3c]
                });
                let planes = layout.slab.i0 * grid.n[1] * grid.n[2];
                let out = dfft.inverse(spec, comm);
                spectrum_ok && out.data() == &back[planes..planes + out.data().len()]
            });
            assert!(res.outputs.iter().all(|&ok| ok), "{} {:?} p={p}", T::LABEL, grid.n);
        }
    }

    #[test]
    fn every_rank_count_carries_the_serial_bits() {
        // BENCHMARK.json's grid and the 2LInvH0 coarse level under it
        for n in [[40, 32, 24], [20, 16, 12]] {
            matches_serial_bitwise::<f64>(Grid::new(n));
            matches_serial_bitwise::<f32>(Grid::new(n));
        }
    }

    #[test]
    fn three_fields_equal_three_one_field_calls() {
        // one message per peer instead of three, the same bits and bytes
        let grid = Grid::new([12, 10, 8]);
        for p in [1usize, 2] {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let f = [0.0, 0.4, 1.3].map(|shift| {
                    ScalarField::from_fn(layout, |x, y, z| {
                        (x + shift).sin() * (y - z).cos() + shift
                    })
                });
                let dfft = DistFft::new(grid, comm);
                let sent = |comm: &Comm| {
                    let cat = comm.stats().cat(CommCat::FftTranspose);
                    (cat.msgs_sent, cat.bytes_sent)
                };
                let one_by_one = f.each_ref().map(|f| {
                    let spec = dfft.forward(f, comm);
                    (spec.data.to_vec(), dfft.inverse(spec, comm).into_data())
                });
                let (m1, b1) = sent(comm);
                let specs = dfft.forward_many(f.each_ref(), comm);
                let spectra = specs.each_ref().map(|s| s.data.to_vec());
                let fields = dfft.inverse_many(specs, comm).map(|f| f.into_data());
                let (m2, b2) = sent(comm);
                let same = (0..3).all(|d| {
                    one_by_one[d].0 == spectra[d] && one_by_one[d].1.to_vec() == fields[d].to_vec()
                });
                (same, m1, m2 - m1, b1, b2 - b1)
            });
            for (same, msgs_3x1, msgs_1x3, bytes_3x1, bytes_1x3) in res.outputs {
                assert!(same, "p={p}: batching moved bits");
                assert_eq!((msgs_3x1, msgs_1x3), (6 * (p as u64 - 1), 2 * (p as u64 - 1)));
                assert_eq!(bytes_3x1, bytes_1x3, "p={p}: batching moved bytes");
            }
        }
    }

    #[test]
    fn f32_distributed_roundtrip() {
        // The f32 instantiation must roundtrip across ranks to single
        // precision, exercising the f32 transpose payload end to end.
        let grid = Grid::new([8, 6, 4]);
        let res = run_cluster(Topology::new(3, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f64_field = test_field(layout);
            let f: ScalarFieldT<f32> = f64_field.converted(WsCat::Fft);
            let dfft = DistFftT::<f32>::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let back = dfft.inverse(spec, comm);
            let mut rt_err = 0.0f64;
            for (a, b) in back.data().iter().zip(f.data()) {
                rt_err = rt_err.max((a - b).abs() as f64);
            }
            rt_err
        });
        for (i, &re) in res.outputs.iter().enumerate() {
            assert!(re < 1e-4, "rank={i}: f32 roundtrip err {re}");
        }
    }

    #[test]
    fn transpose_traffic_recorded() {
        let grid = Grid::new([8, 8, 8]);
        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = test_field(layout);
            let dfft = DistFft::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let _ = dfft.inverse(spec, comm);
            comm.stats().cat(CommCat::FftTranspose).bytes_sent
        });
        // per-rank forward volume: (p-1)/p of the local spectral block
        let n3c = 8 / 2 + 1;
        let local = 2 * 8 * n3c * std::mem::size_of::<Cpx>(); // ni * n2 * n3c
        let expect_one_way = local * 3 / 4;
        for &b in &res.outputs {
            assert_eq!(b as usize, 2 * expect_one_way, "forward + inverse transposes");
        }
    }

    #[test]
    fn f32_transpose_traffic_is_half() {
        // Same transpose schedule, f32 coefficients: exactly half the bytes
        // of the f64 plan on the wire.
        let grid = Grid::new([8, 8, 8]);
        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f: ScalarFieldT<f32> = test_field(layout).converted(WsCat::Fft);
            let dfft = DistFftT::<f32>::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let _ = dfft.inverse(spec, comm);
            comm.stats().cat(CommCat::FftTranspose).bytes_sent
        });
        let n3c = 8 / 2 + 1;
        let local = 2 * 8 * n3c * std::mem::size_of::<CpxT<f32>>();
        let expect_one_way = local * 3 / 4;
        for &b in &res.outputs {
            assert_eq!(b as usize, 2 * expect_one_way, "f32 transposes carry half the bytes");
        }
    }

    #[test]
    fn transform_matches_over_socket_transport() {
        // Same mixed-radix grid, same 3-rank cluster — once over crossbeam
        // channels, once over real Unix-domain sockets. The transpose
        // schedule is deterministic, so every spectrum and roundtrip bit
        // must match.
        let grid = Grid::new([8, 6, 4]);
        let f = move |comm: &mut Comm| {
            let layout = Layout::distributed(grid, comm);
            let f = test_field(layout);
            let dfft = DistFft::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let mut bits: Vec<_> =
                spec.data.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect();
            let back = dfft.inverse(spec, comm);
            bits.extend(back.data().iter().map(|x| x.to_bits()));
            bits
        };
        let chan = run_cluster(Topology::new(3, 4), f);
        let sock = claire_ipc::run_socket_cluster(Topology::new(3, 4), f);
        assert_eq!(chan.outputs, sock.outputs, "transports must agree bitwise");
    }

    #[test]
    fn roundtrip_through_gather() {
        // end-to-end sanity: forward+inverse on 3 ranks reproduces the
        // serial field after gathering.
        let grid = Grid::new([6, 6, 6]);
        let res = run_cluster(Topology::new(3, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = test_field(layout);
            let dfft = DistFft::new(grid, comm);
            let spec = dfft.forward(&f, comm);
            let back = dfft.inverse(spec, comm);
            redist::gather(&back, comm).map(|g| g.into_data())
        });
        let gathered = res.outputs[0].as_ref().unwrap();
        let reference = test_field(Layout::serial(grid));
        for (a, b) in gathered.iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}
