//! Distributed scattered interpolation with the paper's five phases:
//! evaluating an [`InterpPlan`] is ghost exchange → batched stencil kernel →
//! value return; the two scatter phases belong to the plan build.

use claire_grid::ghost::{self, GhostField};
use claire_grid::{Real, ScalarField, VectorField};
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_par::par_split;
use claire_par::timing::{self, Kernel};
use claire_simd::{interp_sites, HaloDims, SiteOut};

use crate::kernel::IpOrder;
use crate::plan::InterpPlan;

/// Distributed scattered interpolator.
///
/// Evaluates fields at the sites of an [`InterpPlan`] — built once per
/// query set by [`Interpolator::plan`], which keeps the queries this rank
/// owns in place and routes each other one to the rank owning its x1 plane
/// — using ghost layers for slab-boundary support, and returns values to
/// the requester: the workflow of paper §3.1. Holds no state but the
/// order: each phase is timed on the ledger the RunReport carries (the
/// `interp` and `ghost` kernel slots, the `Scatter`, `InterpValues` and
/// `Ghost` communication categories).
#[derive(Clone, Copy, Debug)]
pub struct Interpolator {
    /// Stencil order (GPU-TXTLIN / GPU-TXTLAG).
    pub order: IpOrder,
}

/// Per-field outputs `outs` (exactly `NF` of them) as the site kernel
/// stores them.
fn per_field<'a, const NF: usize>(outs: &'a mut [&mut [Real]]) -> SiteOut<'a, NF> {
    assert_eq!(outs.len(), NF, "one output buffer per field");
    let mut it = outs.iter_mut();
    let out = std::array::from_fn(|_| &mut **it.next().expect("length checked above"));
    SiteOut::PerField { out, scale: None }
}

impl Interpolator {
    /// New interpolator of stencil order `order`.
    pub fn new(order: IpOrder) -> Interpolator {
        Interpolator { order }
    }

    /// Evaluate several fields (sharing the plan's layout) at the plan's
    /// query points, one output buffer of `plan.len()` values per field.
    /// Fields evaluated together share each site's basis weights; a
    /// field's values do not depend on what it is grouped with.
    ///
    /// Collective: every rank passes its own plan.
    pub fn evaluate(
        &self,
        plan: &InterpPlan,
        fields: &[&ScalarField],
        comm: &mut Comm,
        outs: &mut [&mut [Real]],
    ) {
        assert!(!fields.is_empty());
        assert_eq!(outs.len(), fields.len(), "one output buffer per field");
        // the kernel shares taps across up to three fields (a vector)
        for (fs, os) in fields.chunks(3).zip(outs.chunks_mut(3)) {
            match *fs {
                [a] => self.run(plan, [a], comm, per_field(os)),
                [a, b] => self.run(plan, [a, b], comm, per_field(os)),
                [a, b, c] => self.run(plan, [a, b, c], comm, per_field(os)),
                _ => unreachable!("chunks(3) yields 1..=3 fields"),
            }
        }
    }

    /// Evaluate a vector field at the plan's query points, writing the
    /// per-query 3-vectors straight from the three-field kernel.
    ///
    /// Collective: every rank passes its own plan.
    pub fn evaluate_vector(
        &self,
        plan: &InterpPlan,
        v: &VectorField,
        comm: &mut Comm,
        out: &mut [[Real; 3]],
    ) {
        self.run(plan, [&v.c[0], &v.c[1], &v.c[2]], comm, SiteOut::Packed(out));
    }

    /// Evaluate one field at the plan's query points and multiply each value
    /// by its query's factor as it is stored: `out[i] = f(x_i) · scale[i]`,
    /// one rounding, the bits of an evaluation followed by a multiply.
    ///
    /// Collective: every rank passes its own plan.
    pub fn evaluate_scaled(
        &self,
        plan: &InterpPlan,
        field: &ScalarField,
        scale: &[Real],
        comm: &mut Comm,
        out: &mut [Real],
    ) {
        assert_eq!(scale.len(), plan.len(), "one factor per query");
        let dest = SiteOut::PerField { out: [out], scale: Some(scale) };
        self.run(plan, [field], comm, dest);
    }

    /// One evaluation of `NF` fields: ghost exchange → kernel → value return.
    fn run<const NF: usize>(
        &self,
        plan: &InterpPlan,
        fields: [&ScalarField; NF],
        comm: &mut Comm,
        mut dest: SiteOut<'_, NF>,
    ) {
        let layout = *plan.layout();
        for f in fields {
            assert_eq!(*f.layout(), layout, "field layout differs from the plan's");
        }
        assert!(dest.holds(plan.len()), "output buffer/query size mismatch");

        // ---- phase: ghost_comm (halo exchange of the fields) ----
        let ghosts: [GhostField; NF] =
            std::array::from_fn(|f| ghost::exchange(fields[f], IpOrder::GHOST_WIDTH, comm));

        let halo = plan.halo();
        assert_eq!(ghosts[0].dims(), *halo, "the plan's sites index another halo");
        let data: [&[Real]; NF] = std::array::from_fn(|f| ghosts[f].data());

        // ---- phase: interp_kernel (local stencil evaluation) ----
        // this rank's sites go straight to `dest` (a stand-in's value is
        // overwritten below); on p > 1 ranks the values for peer r go to
        // `value_bufs[r]`, field-major, to be shipped back
        let sites = plan.sites();
        let value_bufs: Vec<Vec<Real>> = timing::time(Kernel::Interp, || {
            self.kernel(halo, &data, &sites.nodes, &sites.frac, &mut dest);
            let Some(route) = plan.remote() else { return Vec::new() };
            route
                .serve
                .iter()
                .map(|sites| {
                    let n = sites.nodes.len();
                    let mut buf = vec![0.0 as Real; NF * n];
                    let mut per_field = buf.chunks_mut(n.max(1));
                    let out = std::array::from_fn(|_| per_field.next().unwrap_or_default());
                    let mut to_wire = SiteOut::PerField { out, scale: None };
                    self.kernel(halo, &data, &sites.nodes, &sites.frac, &mut to_wire);
                    buf
                })
                .collect()
        });
        let Some(route) = plan.remote() else { return };

        // ---- phase: interp_comm (return values) ----
        let returned =
            comm.alltoallv_owned(value_bufs, CommCat::InterpValues, AlltoallMethod::Auto);

        // overwrite the stand-ins with their owners' values
        for (vals, origin) in returned.iter().zip(&route.origins) {
            let nq = origin.len();
            assert_eq!(vals.len(), nq * NF, "returned value count mismatch");
            for (q, &oi) in origin.iter().enumerate() {
                dest.put(oi as usize, std::array::from_fn(|f| vals[f * nq + q]));
            }
        }
    }

    /// Run the batched stencil kernel over the split sites `nodes`,
    /// `frac` (as many as `dest` holds), split across workers, each storing
    /// its range of sites' values in its own part of `dest`.
    fn kernel<const NF: usize>(
        &self,
        halo: &HaloDims,
        data: &[&[Real]; NF],
        nodes: &[u32],
        frac: &[[Real; 3]],
        dest: &mut SiteOut<'_, NF>,
    ) {
        let n = nodes.len();
        let stencil = self.order.stencil();
        // weight ≈ stencil flops relative to a ~8-op element-wise point
        let work = n * NF * (self.order.flops_per_query() / 8).max(1);
        let sites = |range: std::ops::Range<usize>, out| {
            interp_sites(stencil, halo, data, &nodes[range.clone()], &frac[range], out)
        };
        match dest {
            SiteOut::PerField { out, scale } => {
                let (out, scale) = (out.each_mut().map(|o| &mut **o), *scale);
                par_split(n, work, out, |range, out| {
                    let scale = scale.map(|s| &s[range.clone()]);
                    sites(range, SiteOut::PerField { out, scale })
                })
            }
            SiteOut::Packed(out) => {
                par_split(n, work, &mut **out, |range, out| sites(range, SiteOut::Packed(out)))
            }
        }
    }

    /// Interpolate several fields (sharing one layout) at the same query
    /// points into caller-provided buffers (one per field, each of
    /// `queries.len()` values): a one-shot [`Interpolator::plan`] +
    /// [`Interpolator::evaluate`]. Callers that evaluate at the same points
    /// again should keep the plan.
    ///
    /// Collective: every rank passes its own queries.
    pub fn interp_many_into(
        &self,
        fields: &[&ScalarField],
        queries: &[[Real; 3]],
        comm: &mut Comm,
        outs: &mut [&mut [Real]],
    ) {
        assert!(!fields.is_empty());
        let plan = self.plan(*fields[0].layout(), queries, comm);
        self.evaluate(&plan, fields, comm, outs);
    }

    /// Interpolate one scalar field at `queries`, in query order.
    ///
    /// Collective: every rank passes its own queries.
    pub fn interp(&self, field: &ScalarField, queries: &[[Real; 3]], comm: &mut Comm) -> Vec<Real> {
        let mut out = vec![0.0 as Real; queries.len()];
        self.interp_many_into(&[field], queries, comm, &mut [&mut out]);
        out
    }

    /// Interpolate a vector field into a caller-provided buffer of per-query
    /// 3-vectors: a one-shot [`Interpolator::plan`] +
    /// [`Interpolator::evaluate_vector`].
    pub fn interp_vector_into(
        &self,
        v: &VectorField,
        queries: &[[Real; 3]],
        comm: &mut Comm,
        out: &mut [[Real; 3]],
    ) {
        let plan = self.plan(*v.layout(), queries, comm);
        self.evaluate_vector(&plan, v, comm, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::interp_serial;
    use claire_grid::{Grid, Layout, TWO_PI};
    use claire_mpi::{run_cluster, Topology};

    fn test_fn(x: Real, y: Real, z: Real) -> Real {
        (x).sin() * (y).cos() + (0.5 * z).sin() + 0.2
    }

    fn make_queries(n: usize, seed: u64) -> Vec<[Real; 3]> {
        (0..n)
            .map(|i| {
                let r = |s: u64| {
                    let a = (i as u64 + 1)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed.wrapping_mul(31).wrapping_add(s));
                    ((a >> 16) % 100_000) as Real / 100_000.0 * TWO_PI
                };
                [r(1), r(2), r(3)]
            })
            .collect()
    }

    #[test]
    fn distributed_matches_serial_interpolation() {
        let grid = Grid::new([16, 8, 8]);
        let serial_f = ScalarField::from_fn(Layout::serial(grid), test_fn);
        let queries = make_queries(64, 7);
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            let expect: Vec<Real> =
                queries.iter().map(|&q| interp_serial(&serial_f, order, q)).collect();
            for p in [1usize, 2, 3, 4] {
                let queries = queries.clone();
                let expect = expect.clone();
                let res = run_cluster(Topology::new(p, 4), move |comm| {
                    let layout = Layout::distributed(grid, comm);
                    let f = ScalarField::from_fn(layout, test_fn);
                    let ip = Interpolator::new(order);
                    // split queries over ranks to exercise routing
                    let chunk = queries.len() / comm.size();
                    let lo = comm.rank() * chunk;
                    let hi =
                        if comm.rank() + 1 == comm.size() { queries.len() } else { lo + chunk };
                    let got = ip.interp(&f, &queries[lo..hi], comm);
                    let exp = &expect[lo..hi];
                    got.iter().zip(exp).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max)
                });
                for (r, &e) in res.outputs.iter().enumerate() {
                    assert!(e < 1e-10, "{order:?} p={p} rank={r}: err {e}");
                }
            }
        }
    }

    #[test]
    fn interpolation_matches_over_socket_transport() {
        // Scattered cubic interpolation routes queries to owner ranks and
        // ships coefficients back — all of it must be transport-invariant.
        let grid = Grid::new([16, 8, 8]);
        let queries = make_queries(48, 11);
        let f = move |comm: &mut Comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, test_fn);
            let ip = Interpolator::new(IpOrder::Cubic);
            let chunk = queries.len() / comm.size();
            let lo = comm.rank() * chunk;
            let hi = if comm.rank() + 1 == comm.size() { queries.len() } else { lo + chunk };
            ip.interp(&f, &queries[lo..hi], comm).iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let chan = run_cluster(Topology::new(3, 4), &f);
        let sock = claire_ipc::run_socket_cluster(Topology::new(3, 4), &f);
        assert_eq!(chan.outputs, sock.outputs, "transports must agree bitwise");
    }

    /// Every phase of Table 2 lands on a ledger the RunReport carries: the
    /// two local phases on the `interp` and `ghost` kernel slots, the three
    /// exchanges on their communication categories.
    #[test]
    fn every_phase_lands_on_a_report_ledger() {
        let grid = Grid::new([8, 8, 8]);
        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, test_fn);
            let queries = make_queries(32, comm.rank() as u64);
            timing::reset();
            let _ = Interpolator::new(IpOrder::Cubic).interp(&f, &queries, comm);
            let calls = |k: Kernel| {
                timing::snapshot().iter().find(|s| s.name == k.name()).map_or(0, |s| s.calls)
            };
            let bytes = |c: CommCat| comm.stats().cat(c).bytes_sent;
            (
                [calls(Kernel::Interp), calls(Kernel::Ghost)],
                [bytes(CommCat::Ghost), bytes(CommCat::Scatter), bytes(CommCat::InterpValues)],
            )
        });
        for (rank, (calls, bytes)) in res.outputs.iter().enumerate() {
            assert!(calls.iter().all(|&c| c > 0), "rank {rank}: interp/ghost slot calls {calls:?}");
            assert!(
                bytes.iter().all(|&b| b > 0),
                "rank {rank}: ghost/scatter/value bytes {bytes:?}"
            );
        }
    }

    #[test]
    fn vector_interpolation_groups_components() {
        let grid = Grid::cube(16);
        let mut comm = Comm::solo();
        let layout = Layout::serial(grid);
        let v = VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z);
        let ip = Interpolator::new(IpOrder::Cubic);
        let queries = make_queries(10, 3);
        let mut vals = vec![[0.0 as Real; 3]; queries.len()];
        ip.interp_vector_into(&v, &queries, &mut comm, &mut vals);
        for (q, val) in queries.iter().zip(&vals) {
            assert!((val[0] - q[0].sin()).abs() < 2e-3);
            assert!((val[1] - q[1].cos()).abs() < 2e-3);
        }
    }

    /// Physical query points that stress the site conversion: uniformly
    /// over several periods (negative and ≥ 2π), exactly on grid nodes, and
    /// on every periodic seam of the x2/x3 stencil support.
    fn stress_queries(grid: Grid, n: usize, seed: u64) -> Vec<[Real; 3]> {
        let h = grid.spacing();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as Real / (1u64 << 53) as Real
        };
        let mut q: Vec<[Real; 3]> =
            (0..n).map(|_| std::array::from_fn(|_| (3.0 * next() - 1.0) * 2.0 * TWO_PI)).collect();
        for i in 0..n / 2 {
            let node: [Real; 3] = std::array::from_fn(|_| (next() * 50.0).floor() - 20.0);
            // on a node in every dimension, then on a node in one only
            q.push(std::array::from_fn(|d| node[d] * h[d]));
            q.push(std::array::from_fn(|d| if d == i % 3 { node[d] * h[d] } else { q[i][d] }));
        }
        for off in [-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 1.75] {
            q.push([next() * TWO_PI, TWO_PI + off * h[1], next() * TWO_PI]);
            q.push([next() * TWO_PI, next() * TWO_PI, off * h[2]]);
            q.push([TWO_PI + off * h[0], off * h[1], TWO_PI + off * h[2]]);
        }
        q
    }

    fn bits(v: &[Real]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// A kept plan evaluates to the bits of a fresh one-shot call: for
        /// every order, however the fields are grouped (1–3 per evaluation,
        /// or as a packed vector), on 1–4 ranks, and again on re-evaluation.
        #[test]
        fn planned_evaluation_equals_one_shot(seed in 0u64..1_000_000, nq in 8usize..40) {
            let grid = Grid::new([12, 6, 8]);
            let queries = stress_queries(grid, nq, seed);
            let field = |c: usize| move |x: Real, y: Real, z: Real| {
                (x + c as Real).sin() * (y * (1 + c) as Real).cos() + (0.5 * z).sin() + 0.2
            };
            for order in [IpOrder::Linear, IpOrder::Cubic, IpOrder::CubicSpline] {
                let mut solo: Option<Vec<Vec<u64>>> = None;
                for p in [1usize, 2, 3, 4] {
                    let queries = queries.clone();
                    let res = run_cluster(Topology::new(p, 4), move |comm| {
                        let layout = Layout::distributed(grid, comm);
                        let f: [ScalarField; 3] =
                            std::array::from_fn(|c| ScalarField::from_fn(layout, field(c)));
                        let ip = Interpolator::new(order);
                        // every rank asks for a different slice of the points
                        let chunk = queries.len() / comm.size();
                        let lo = comm.rank() * chunk;
                        let hi = if comm.rank() + 1 == comm.size() { queries.len() } else { lo + chunk };
                        let mine = &queries[lo..hi];
                        let one_shot: Vec<Vec<Real>> =
                            f.iter().map(|fc| ip.interp(fc, mine, comm)).collect();

                        let plan = ip.plan(layout, mine, comm);
                        let mut out = vec![vec![0.0 as Real; mine.len()]; 3];
                        for nf in 1..=3 {
                            for o in &mut out {
                                o.fill(Real::NAN);
                            }
                            let fields: Vec<&ScalarField> = f[..nf].iter().collect();
                            let mut outs: Vec<&mut [Real]> =
                                out[..nf].iter_mut().map(|o| o.as_mut_slice()).collect();
                            ip.evaluate(&plan, &fields, comm, &mut outs);
                            for c in 0..nf {
                                assert_eq!(bits(&out[c]), bits(&one_shot[c]), "{order:?} p={p} {nf} fields, field {c}");
                            }
                        }
                        let v = VectorField { c: f.clone() };
                        for round in 0..2 {
                            let mut packed = vec![[Real::NAN; 3]; mine.len()];
                            ip.evaluate_vector(&plan, &v, comm, &mut packed);
                            for c in 0..3 {
                                let comp: Vec<Real> = packed.iter().map(|v| v[c]).collect();
                                assert_eq!(bits(&comp), bits(&one_shot[c]), "{order:?} p={p} vector round {round}, component {c}");
                            }
                        }
                        one_shot.iter().map(|v| bits(v)).collect::<Vec<_>>()
                    });
                    // rank order is query order: the ranks' slices concatenate
                    // to the full list, and no bit depends on the rank count
                    let all: Vec<Vec<u64>> = (0..3)
                        .map(|c| res.outputs.iter().flat_map(|r| r[c].clone()).collect())
                        .collect();
                    match &solo {
                        None => solo = Some(all),
                        Some(s) => proptest::prop_assert_eq!(&all, s, "{:?} p={}", order, p),
                    }
                }
            }
        }
    }

    /// A scaled evaluation stores each value times its query's factor: the
    /// bits of an evaluation followed by a multiply, on one rank (the
    /// kernel's write) and on p > 1 (the value-return reassembly).
    #[test]
    fn scaled_evaluation_is_evaluate_then_multiply() {
        let grid = Grid::new([12, 6, 8]);
        for p in [1usize, 2, 3] {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let f = ScalarField::from_fn(layout, test_fn);
                let ip = Interpolator::new(IpOrder::Cubic);
                let queries = stress_queries(grid, 24, comm.rank() as u64);
                let scale: Vec<Real> =
                    (0..queries.len()).map(|i| (0.37 * i as Real - 2.0).exp()).collect();
                let plan = ip.plan(layout, &queries, comm);
                let mut plain = vec![0.0 as Real; queries.len()];
                ip.evaluate(&plan, &[&f], comm, &mut [&mut plain]);
                let mut scaled = vec![Real::NAN; queries.len()];
                ip.evaluate_scaled(&plan, &f, &scale, comm, &mut scaled);
                let want: Vec<Real> = plain.iter().zip(&scale).map(|(v, s)| v * s).collect();
                bits(&scaled) == bits(&want)
            });
            assert!(res.outputs.iter().all(|&same| same), "p={p}: scaled bits differ");
        }
    }

    /// Every evaluation entry point's bits at a plan, one value per query:
    /// three fields grouped (asserting that the first alone and the first
    /// two grouped give the same bits), the packed vector's three
    /// components, and the first field scaled by `scale`.
    fn entry_point_bits(
        ip: &Interpolator,
        plan: &InterpPlan,
        f: &[ScalarField; 3],
        scale: &[Real],
        comm: &mut Comm,
    ) -> [Vec<u64>; 7] {
        let nq = plan.len();
        let mut out = vec![vec![Real::NAN; nq]; 3];
        let mut outs: Vec<&mut [Real]> = out.iter_mut().map(|o| o.as_mut_slice()).collect();
        ip.evaluate(plan, &[&f[0], &f[1], &f[2]], comm, &mut outs);
        let mut pair = vec![vec![Real::NAN; nq]; 2];
        let mut outs: Vec<&mut [Real]> = pair.iter_mut().map(|o| o.as_mut_slice()).collect();
        ip.evaluate(plan, &[&f[0], &f[1]], comm, &mut outs);
        let mut alone = vec![Real::NAN; nq];
        ip.evaluate(plan, &[&f[0]], comm, &mut [&mut alone]);
        assert_eq!(bits(&pair[0]), bits(&out[0]), "the first field grouped by two");
        assert_eq!(bits(&pair[1]), bits(&out[1]), "the second field grouped by two");
        assert_eq!(bits(&alone), bits(&out[0]), "the first field alone");
        let mut packed = vec![[Real::NAN; 3]; nq];
        ip.evaluate_vector(plan, &VectorField { c: f.clone() }, comm, &mut packed);
        let mut scaled = vec![Real::NAN; nq];
        ip.evaluate_scaled(plan, &f[0], scale, comm, &mut scaled);
        let [p0, p1, p2] = std::array::from_fn(|c| packed.iter().map(|v| v[c]).collect::<Vec<_>>());
        [&out[0], &out[1], &out[2], &p0, &p1, &p2, &scaled].map(|v| bits(v))
    }

    /// The kernel stores four sites per write, each worker from the start of
    /// its own range: on 1–3 ranks and 1–3 threads (cubic plans of ~150
    /// queries engage the workers), plans of every length mod 4 give each
    /// query the bits of a plan of that query alone, through every entry
    /// point — 1, 2 and 3 fields, the packed vector and the scaled field.
    #[test]
    fn block_stores_give_each_query_its_single_query_bits() {
        let grid = Grid::new([12, 6, 8]);
        let fns: [fn(Real, Real, Real) -> Real; 3] = [
            test_fn,
            |x, y, z| (2.0 * x).cos() + y.sin() * z.cos(),
            |x, y, z| (x + 0.3 * y).sin() - 0.1 * z,
        ];
        let f1 = fns.map(|g| ScalarField::from_fn(Layout::serial(grid), g));
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            let ip = Interpolator::new(order);
            for len in 148..152 {
                let queries = stress_queries(grid, 3 * len, len as u64);
                let factor = |i: usize| 0.5 + 0.01 * i as Real;
                // per query, its single-query plan's bits through each entry point
                let mut solo = Comm::solo();
                let alone: Vec<[Vec<u64>; 7]> = (0..queries.len())
                    .map(|i| {
                        let plan = ip.plan(Layout::serial(grid), &queries[i..=i], &mut solo);
                        entry_point_bits(&ip, &plan, &f1, &[factor(i)], &mut solo)
                    })
                    .collect();
                for (p, threads) in
                    [1usize, 2, 3].into_iter().flat_map(|p| [1, 2, 3].map(|t| (p, t)))
                {
                    let queries = queries.clone();
                    let res = claire_par::with_threads(threads, || {
                        run_cluster(Topology::new(p, 4), move |comm| {
                            let layout = Layout::distributed(grid, comm);
                            let f = fns.map(|g| ScalarField::from_fn(layout, g));
                            let mine = len * comm.rank()..len * (comm.rank() + 1);
                            let scale: Vec<Real> = mine.clone().map(factor).collect();
                            let plan = ip.plan(layout, &queries[mine.clone()], comm);
                            (mine, entry_point_bits(&ip, &plan, &f, &scale, comm))
                        })
                    });
                    for (rank, (mine, got)) in res.outputs.into_iter().enumerate() {
                        for (q, i) in mine.enumerate() {
                            for (e, want) in alone[i].iter().enumerate() {
                                assert_eq!(
                                    got[e][q], want[0],
                                    "{order:?} {len} queries p={p} threads={threads} rank {rank}: \
                                     entry point {e} at query {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// On p > 1 ranks a query another rank owns leaves a stand-in in its
    /// slot, which the value return overwrites; an owned query is evaluated
    /// in place. Every query away from home and every query at home both
    /// give one rank's bits through each evaluation entry point, and a plan
    /// whose queries all stay home sends no site and no value.
    #[test]
    fn remote_and_home_queries_give_one_ranks_bits() {
        let grid = Grid::new([12, 6, 8]);
        let h = grid.spacing();
        let fns: [fn(Real, Real, Real) -> Real; 3] = [
            test_fn,
            |x, y, z| (2.0 * x).cos() + y.sin() * z.cos(),
            |x, y, z| (x + 0.3 * y).sin() - 0.1 * z,
        ];
        for (p, order) in
            [2usize, 3].into_iter().flat_map(|p| [(p, IpOrder::Linear), (p, IpOrder::Cubic)])
        {
            let res = run_cluster(Topology::new(p, 4), move |comm| {
                let layout = Layout::distributed(grid, comm);
                let rank = comm.rank();
                let ip = Interpolator::new(order);
                let f = fns.map(|g| ScalarField::from_fn(layout, g));
                let f1 = fns.map(|g| ScalarField::from_fn(Layout::serial(grid), g));
                // x1 anywhere in `slab`'s planes, x2/x3 anywhere
                let in_slab = |slab: claire_grid::Slab, seed: u64| -> Vec<[Real; 3]> {
                    let span = slab.ni as Real * h[0];
                    let x1 = |x: Real| slab.i0 as Real * h[0] + x / TWO_PI * span;
                    make_queries(40, seed).into_iter().map(|[x, y, z]| [x1(x), y, z]).collect()
                };
                let away = in_slab(layout.slab_of((rank + 1) % p), 5 + rank as u64);
                let mut home = in_slab(layout.slab, 9 + rank as u64);
                home.push([home[0][0], Real::NAN, home[0][2]]);
                if rank == 0 {
                    // a NaN x1 converts to plane 0, which rank 0 owns
                    home.push([Real::NAN; 3]);
                }
                let mut wire = Vec::new();
                for (set, queries) in [("away", away), ("home", home)] {
                    let scale: Vec<Real> =
                        (0..queries.len()).map(|i| 0.5 + 0.01 * i as Real).collect();
                    let mut solo = Comm::solo();
                    let plan = ip.plan(Layout::serial(grid), &queries, &mut solo);
                    let want = entry_point_bits(&ip, &plan, &f1, &scale, &mut solo);

                    let sent = |comm: &Comm| {
                        [CommCat::Scatter, CommCat::InterpValues]
                            .map(|c| comm.stats().cat(c).bytes_sent)
                    };
                    let before = sent(comm);
                    let plan = ip.plan(layout, &queries, comm);
                    let got = entry_point_bits(&ip, &plan, &f, &scale, comm);
                    let after = sent(comm);
                    assert_eq!(got, want, "{order:?} p={p} rank {rank}: {set} bits");
                    let nan = got[0].iter().filter(|&&b| Real::from_bits(b).is_nan()).count();
                    assert_eq!(nan, queries.len() - 40, "rank {rank} {set}: NaN queries");
                    wire.push((set, [after[0] - before[0], after[1] - before[1]]));
                }
                wire
            });
            for (rank, wire) in res.outputs.iter().enumerate() {
                for &(set, bytes) in wire {
                    let shipped = bytes.iter().all(|&b| b > 0);
                    let none = bytes == [0, 0];
                    let ok = if set == "home" { none } else { shipped };
                    assert!(ok, "{order:?} p={p} rank {rank} {set}: sites/values sent {bytes:?}");
                }
            }
        }
    }

    /// The compare-based wrap of the site conversion is `%` bit for bit —
    /// inside (−n, 2n), where it takes no remainder, and beyond, where it
    /// falls back to one.
    #[test]
    fn compare_wrap_equals_remainder() {
        use crate::kernel::wrap_index;
        let by_remainder = |u: Real, nr: Real| {
            let mut w = u % nr;
            if w < 0.0 {
                w += nr;
            }
            if w >= nr {
                w = 0.0;
            }
            w
        };
        for n in [1usize, 2, 7, 24, 40, 300] {
            let nr = n as Real;
            let mut probes = vec![0.0, -0.0, Real::EPSILON, -1e-17, -1e-300];
            for k in -5i32..=5 {
                let edge = k as Real * nr;
                probes.extend([edge, edge + 0.5, edge - 0.5]);
                // the neighbours of every multiple of n, a few ulps each way
                let (mut up, mut down) = (edge, edge);
                for _ in 0..3 {
                    (up, down) = (up.next_up(), down.next_down());
                    probes.extend([up, down]);
                }
            }
            // a dense sweep across (−3n, 3n) and a few far-away magnitudes
            probes.extend((0..6000).map(|i| (i as Real / 1000.0 - 3.0) * nr + 1e-3));
            probes.extend([1e9, -1e9, 1e300, -1e300, 123456.789 * nr, -98765.4321 * nr]);
            for u in probes {
                let (got, want) = (wrap_index(u, nr), by_remainder(u, nr));
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} u={u:e}: {got:e} vs {want:e}");
                assert!((0.0..nr).contains(&got), "n={n} u={u:e} wrapped to {got:e}");
            }
            assert!(wrap_index(Real::NAN, nr).is_nan());
        }
    }

    #[test]
    fn empty_query_list() {
        let grid = Grid::cube(8);
        let mut comm = Comm::solo();
        let f = ScalarField::from_fn(Layout::serial(grid), test_fn);
        let ip = Interpolator::new(IpOrder::Linear);
        let out = ip.interp(&f, &[], &mut comm);
        assert!(out.is_empty());
    }
}
