//! Cross-transport equivalence: the socket transport must be bitwise
//! indistinguishable from the channel transport.
//!
//! Every collective is built on the same deterministic rank-ordered
//! point-to-point schedule, so swapping the carrier (`std::sync::mpsc`
//! channels that hand the sender's typed vectors over, vs Unix-domain
//! sockets that carry bytes) must not change a single result bit, nor a
//! byte, message or call of the logical traffic ledger.
//! The end-to-end half of the contract — a real multi-process
//! `claire-cli launch` run reproducing the threads-as-ranks trajectory
//! field-for-field — is exercised against the built binary.

use claire::ipc::run_socket_cluster;
use claire::mpi::{run_cluster, AlltoallMethod, CollOp, Comm, CommCat, Topology};
use proptest::prelude::*;
use serde_json::Value;
use std::process::Command;

/// Deterministic pseudo-random f64 in [-1, 1) from (seed, stream, index).
fn val(seed: u64, stream: usize, i: usize) -> f64 {
    let h = (seed ^ 0x9E3779B97F4A7C15)
        .wrapping_mul(0xD1B54A32D192ED03)
        .wrapping_add((stream as u64).wrapping_mul(0xA24BAED4963EE407))
        .wrapping_add((i as u64).wrapping_mul(0x2545F4914F6CDD1D));
    ((h >> 17) % 2_000_000) as f64 / 1_000_000.0 - 1.0
}

/// Run every collective once with rank- and seed-dependent ragged data and
/// return all results as exact bit patterns.
fn collective_battery(comm: &mut Comm, seed: u64) -> Vec<u64> {
    let rank = comm.rank();
    let p = comm.size();
    let mut bits: Vec<u64> = Vec::new();

    let mut v: Vec<f64> = (0..8).map(|i| val(seed ^ 1, rank, i)).collect();
    comm.allreduce_sum(&mut v);
    bits.extend(v.iter().map(|x| x.to_bits()));

    bits.push(comm.allreduce_sum_scalar(val(seed ^ 2, rank, 0)).to_bits());
    bits.push(comm.allreduce_max_scalar(val(seed ^ 3, rank, 1)).to_bits());

    let mut b: Vec<f64> =
        if rank == 0 { (0..5).map(|i| val(seed ^ 4, 0, i)).collect() } else { Vec::new() };
    comm.broadcast(0, &mut b);
    bits.extend(b.iter().map(|x| x.to_bits()));

    // Ragged gather to the last rank, then scatter the parts back out.
    let root = p - 1;
    let data: Vec<f64> = (0..16 + rank * 3).map(|i| val(seed, rank, i)).collect();
    let gathered = comm.gatherv(root, &data, CommCat::FftTranspose);
    let part = comm.scatterv(root, gathered.as_deref(), CommCat::FftTranspose);
    bits.extend(part.iter().map(|x| x.to_bits()));

    // Ragged all-to-all (the FFT transpose pattern).
    let bufs: Vec<Vec<f64>> = (0..p)
        .map(|d| (0..rank + 2 * d + 1).map(|i| val(seed ^ 5, rank * p + d, i)).collect())
        .collect();
    for got in comm.alltoallv(&bufs, CommCat::FftTranspose, AlltoallMethod::Auto) {
        bits.extend(got.iter().map(|x| x.to_bits()));
    }
    // The owning form, as the hot callers use it: the same parts.
    for got in comm.alltoallv_owned(bufs, CommCat::Scatter, AlltoallMethod::Auto) {
        bits.extend(got.iter().map(|x| x.to_bits()));
    }

    // A type pun: u64s sent, f64s received, the same bits on every carrier.
    let right = (rank + 1) % p;
    let words: Vec<u64> = (0..3 + rank).map(|i| val(seed ^ 6, rank, i).to_bits()).collect();
    comm.send_owned(right, 11, CommCat::Other, words);
    let punned: Vec<f64> = comm.recv((rank + p - 1) % p, 11, CommCat::Other);
    bits.extend(punned.iter().map(|x| x.to_bits()));

    comm.barrier();
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every collective, every transport, 2–4 ranks: identical bits.
    #[test]
    fn collectives_bitwise_equal_across_transports(p in 2usize..=4, seed in 0u64..1000) {
        let topo = Topology::new(p, 4);
        let chan = run_cluster(topo, |comm| collective_battery(comm, seed));
        let sock = run_socket_cluster(topo, |comm| collective_battery(comm, seed));
        prop_assert_eq!(&chan.outputs, &sock.outputs);
        // The logical ledgers agree too: same payload bytes, same message
        // counts, same per-operation calls and bytes — only wire_bytes (real
        // framing) and the blocked time differ.
        for (cs, ss) in chan.stats.iter().zip(&sock.stats) {
            for cat in CommCat::ALL.iter().copied() {
                prop_assert_eq!(cs.cat(cat).bytes_sent, ss.cat(cat).bytes_sent);
                prop_assert_eq!(cs.cat(cat).msgs_sent, ss.cat(cat).msgs_sent);
            }
            for op in CollOp::ALL.iter().copied() {
                prop_assert_eq!(cs.coll(op), ss.coll(op), "{}", op.label());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// end-to-end: claire-cli launch (processes) vs --in-process (threads)
// ---------------------------------------------------------------------------

fn obj(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected JSON object, got {other:?}"),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    obj(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

/// The transport-independent slice of a RunReport: the whole summary
/// (problem identity and outcome), the full GN trajectory, each kernel's
/// call count, and the logical communication ledgers. Wall-clock times (the
/// summary's `time_*` seconds, kernel seconds and the seconds blocked in
/// communication among them), spans, memory, and the physical wire
/// accounting are dropped.
fn canonical(run: &Value) -> Value {
    const KEEP: [&str; 6] = ["backend", "summary", "comm", "collectives", "gn_trace", "kernels"];
    const CLOCKS: [&str; 5] = ["time_pc", "time_obj", "time_grad", "time_hess", "time_total"];
    let without = |v: &Value, drop: &[&str]| {
        Value::Object(obj(v).iter().filter(|(k, _)| !drop.contains(&k.as_str())).cloned().collect())
    };
    let each_without = |v: &Value, drop: &[&str]| match v {
        Value::Array(entries) => Value::Array(entries.iter().map(|e| without(e, drop)).collect()),
        other => panic!("expected an array, got {other:?}"),
    };
    let fields = KEEP
        .iter()
        .map(|&key| {
            let v = get(run, key);
            let v = match key {
                "summary" => without(v, &CLOCKS),
                "comm" => each_without(v, &["wire_bytes", "blocked_secs"]),
                "kernels" => each_without(v, &["secs"]),
                _ => v.clone(),
            };
            (key.to_string(), v)
        })
        .collect();
    Value::Object(fields)
}

fn run_launch(dir: &std::path::Path, name: &str, extra: &[&str]) -> Value {
    let report = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_claire-cli"))
        .arg("launch")
        .args(["--ranks", "4", "--syn", "8", "--timeout", "120", "-q"])
        .args(["--report", report.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn claire-cli");
    assert!(
        out.status.success(),
        "claire-cli launch {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("report file");
    serde_json::from_str(&json).expect("report JSON")
}

/// Flags that cut a solve short where a test's runtime needs it: InvA, one
/// β-level, 3 Gauss–Newton steps of 5 PCG iterations each.
const SHORT: [&str; 7] =
    ["--precond", "InvA", "--no-continuation", "--max-gn", "3", "--fixed-pcg", "5"];

/// A multi-process solve reproduces the threads-as-ranks run
/// field-for-field: same trajectory, same mismatch bits, same kernel calls,
/// same ledgers, with no post-processing of either report. On 4 ranks at
/// the solver defaults — 2LInvH0, whose coarse-grid transfers are messages
/// only that preconditioner sends, and β-continuation, whose trace spans
/// several β-levels — and on 2 ranks at 16³ in a short InvA run.
#[test]
fn launch_report_matches_in_process_report() {
    let dir = std::env::temp_dir().join(format!("claire-ipc-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for extra in [&[][..], &[&["--ranks", "2", "--syn", "16"][..], &SHORT].concat()] {
        let proc_run = run_launch(&dir, "proc.json", extra);
        let thr_run = run_launch(&dir, "thr.json", &[extra, &["--in-process"]].concat());
        for run in [&proc_run, &thr_run] {
            let keys: Vec<&str> = obj(run).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, claire::obs::report::SCHEMA_KEYS, "top-level keys ({extra:?})");
        }

        assert_eq!(get(&proc_run, "transport"), &Value::Str("socket".into()));
        assert_eq!(get(&thr_run, "transport"), &Value::Str("channel".into()));
        // Real bytes hit the wire in process mode, none in channel mode.
        let wire = |run: &Value| -> u64 {
            match get(run, "comm") {
                Value::Array(entries) => entries
                    .iter()
                    .map(|e| match get(e, "wire_bytes") {
                        Value::UInt(n) => *n,
                        _ => 0,
                    })
                    .sum(),
                _ => 0,
            }
        };
        assert!(wire(&proc_run) > 0, "socket transport should account wire bytes ({extra:?})");
        assert_eq!(wire(&thr_run), 0, "channel transport has no wire ({extra:?})");
        if extra.is_empty() {
            assert_eq!(get(get(&proc_run, "summary"), "pc"), &Value::Str("2LInvH0".into()));
            let Value::Array(trace) = get(&proc_run, "gn_trace") else { panic!("gn_trace") };
            let later = trace.iter().any(|r| get(r, "level") != &Value::UInt(0));
            assert!(later, "the trace should span several β-levels");
        }

        let (a, b) = (canonical(&proc_run), canonical(&thr_run));
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap(),
            "multi-process and threads-as-ranks reports diverged ({extra:?})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One rank's report is measured against that rank's wall clock: seconds
/// blocked in communication per category, and kernel shares from the rank
/// thread's own timers.
#[test]
fn in_process_report_is_one_ranks_ruler() {
    let dir = std::env::temp_dir().join(format!("claire-ipc-ruler-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flags = [&["--in-process", "--ranks", "2", "--syn", "16"][..], &SHORT].concat();
    let run = run_launch(&dir, "thr.json", &flags);
    let _ = std::fs::remove_dir_all(&dir);
    let num = |v: &Value, key: &str| match get(v, key) {
        Value::Num(x) => *x,
        other => panic!("{key} should be a float, got {other:?}"),
    };

    let total = num(get(&run, "summary"), "time_total");
    let Value::Array(comm) = get(&run, "comm") else { panic!("comm should be an array") };
    let blocked = |e: &Value| num(e, "blocked_secs");
    let transpose = comm.iter().find(|e| get(e, "phase") == &Value::Str("fft_transpose".into()));
    assert!(blocked(transpose.expect("2 ranks transpose")) > 0.0, "transposes wait on the peer");
    let all: f64 = comm.iter().map(blocked).sum();
    assert!(all <= total, "blocked {all} s of a {total} s solve");

    let phases = get(&run, "phases");
    let [fft, ip, fd, other] =
        ["fft_secs", "ip_secs", "fd_secs", "other_secs"].map(|k| num(phases, k));
    assert!(other >= 0.0, "kernel seconds of both ranks booked against one rank's wall: {other}");
    let sum = fft + ip + fd + other;
    assert!((sum - num(phases, "total_secs")).abs() <= 1e-12 * sum, "shares do not partition");
}

/// Killing one rank mid-solve yields the typed rank-failure exit code —
/// promptly, and never a hang.
#[test]
fn killed_rank_fails_typed_not_hung() {
    let start = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_claire-cli"))
        .arg("launch")
        .args(["--ranks", "3", "--syn", "8", "--timeout", "60", "-q"])
        .env("CLAIRE_IPC_TEST_DIE_RANK", "1")
        .output()
        .expect("spawn claire-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(8), "want rank-failed exit code; stderr: {stderr}");
    assert!(stderr.contains("rank 1"), "culprit rank should be named: {stderr}");
    assert!(start.elapsed() < std::time::Duration::from_secs(60), "should fail fast");
}

/// A grid that 2LInvH0 cannot coarsen into a slab per rank (8³ on 8 ranks)
/// is a configuration error found before any rank starts, on both
/// transports: exit 3 naming the preconditioner, not a rank failure.
#[test]
fn launch_refuses_a_grid_the_preconditioner_cannot_split() {
    for extra in [&[][..], &["--in-process"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_claire-cli"))
            .arg("launch")
            .args(["--ranks", "8", "--syn", "8", "--timeout", "60", "-q"])
            .args(extra)
            .output()
            .expect("spawn claire-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{extra:?}: want the config exit; stderr: {stderr}");
        assert!(stderr.contains("2LInvH0"), "{extra:?}: should name the preconditioner: {stderr}");
        assert!(!stderr.contains("rank 0 failed"), "{extra:?}: no rank should run: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// mixed precision over the wire: f32 inner-solve collectives halve traffic
// ---------------------------------------------------------------------------

/// The shipped `InvH0` application (`claire::core::precond::inv_h0`: PCG on
/// the zero-velocity Hessian `H0 = βA + ∇m̄ ⊗ ∇m̄`, whose collectives the
/// mixed-precision seam demotes to f32) at width `T`, fixed iterations, over
/// real sockets. Returns this rank's FftTranspose wire bytes for the solve and
/// the local solution promoted to f64 (for cross-width comparison).
fn pcg_rank<T: claire::fft::FftElem>(comm: &mut Comm, n: usize) -> (u64, Vec<f64>) {
    use claire::grid::{Grid, Layout, VectorField, WsCat};
    let layout = Layout::distributed(Grid::cube(n), comm);
    let spectral = claire::diff::SpectralT::<T>::new(layout.grid, comm);
    let grad64 = VectorField::from_fns(
        layout,
        |x, y, _| (x - 3.0) * (-(x - 3.0) * (x - 3.0) - (y - 3.0) * (y - 3.0)).exp(),
        |_, y, z| (y - 3.0) * (-(y - 3.0) * (y - 3.0) - (z - 3.0) * (z - 3.0)).exp(),
        |x, _, z| (z - 3.0) * (-(z - 3.0) * (z - 3.0) - (x - 3.0) * (x - 3.0)).exp(),
    );
    let rhs64 = VectorField::from_fns(
        layout,
        |x, y, z| (x + 0.5 * y).sin() * z.cos(),
        |x, y, z| (y + 0.5 * z).sin() * x.cos(),
        |x, y, z| (z + 0.5 * x).sin() * y.cos(),
    );
    let grad: claire::grid::VectorFieldT<T> = grad64.converted(WsCat::Other);
    let rhs: claire::grid::VectorFieldT<T> = rhs64.converted(WsCat::Other);
    // tol_rel = 0 pins the schedule: both widths run exactly 8 iterations,
    // so the wire-byte ratio measures element width alone
    let cfg = claire::opt::PcgConfig { tol_rel: 0.0, max_iter: 8, trace: false };

    let before = comm.stats().cat(CommCat::FftTranspose).wire_bytes;
    let (x, res) = claire::core::precond::inv_h0(&spectral, &grad, 1e-2, &rhs, &cfg, comm);
    assert_eq!(res.iters, 8);
    let wire = comm.stats().cat(CommCat::FftTranspose).wire_bytes - before;

    let mut out = Vec::new();
    for d in 0..3 {
        out.extend(x.c[d].data().iter().map(|&v| T::to_f64(v)));
    }
    (wire, out)
}

/// The inner solve's collectives carry f32 payloads in mixed mode: the
/// same fixed-iteration PCG moves ~half the FftTranspose wire bytes at
/// f32 as at f64 (framing overhead keeps the ratio a little above 0.5),
/// and the promoted f32 solution matches the f64 one to single-precision
/// accuracy. This is the wire half of the mixed-precision contract; the
/// solver-level same-mismatch half lives in claire-core's solver tests.
#[test]
fn f32_inner_solve_halves_transpose_wire_bytes() {
    let topo = Topology::new(2, 4);
    let r64 = run_socket_cluster(topo, |comm| pcg_rank::<f64>(comm, 16));
    let r32 = run_socket_cluster(topo, |comm| pcg_rank::<f32>(comm, 16));

    let wire64: u64 = r64.outputs.iter().map(|(w, _)| *w).sum();
    let wire32: u64 = r32.outputs.iter().map(|(w, _)| *w).sum();
    assert!(wire64 > 0, "distributed FFTs should move transpose bytes");
    let ratio = wire32 as f64 / wire64 as f64;
    assert!(
        (0.45..=0.65).contains(&ratio),
        "f32 inner solve should roughly halve transpose wire traffic, got {ratio:.3} \
         ({wire32} vs {wire64} bytes)"
    );

    let x64: Vec<f64> = r64.outputs.iter().flat_map(|(_, x)| x.iter().copied()).collect();
    let x32: Vec<f64> = r32.outputs.iter().flat_map(|(_, x)| x.iter().copied()).collect();
    assert_eq!(x64.len(), x32.len());
    let num: f64 = x64.iter().zip(&x32).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = x64.iter().map(|a| a * a).sum();
    let rel = (num / den).sqrt();
    assert!(rel < 1e-4, "promoted f32 PCG solution should track f64, rel diff {rel:.3e}");
}

/// End-to-end over sockets: a mixed-precision registration converges to
/// the same mismatch as the f64 run within the documented tolerance
/// (`|Δ| ≤ 1e-3·rel + 1e-6`, the single-precision inner-solve error the
/// f64 outer iteration absorbs).
#[test]
fn mixed_registration_matches_f64_mismatch_over_sockets() {
    use claire::core::{Claire, Precision, RegistrationConfig};
    use claire::grid::{Grid, Layout, Real, ScalarField};

    let solve = move |precision: Precision| {
        run_socket_cluster(Topology::new(2, 4), move |comm| {
            let layout = Layout::distributed(Grid::cube(16), comm);
            let blob = move |cx: Real| {
                move |x: Real, y: Real, z: Real| {
                    let d2 = (x - cx).powi(2) + (y - 3.0).powi(2) + (z - 3.0).powi(2);
                    (-d2 / 1.2).exp()
                }
            };
            let m0 = ScalarField::from_fn(layout, blob(3.0));
            let m1 = ScalarField::from_fn(layout, blob(3.5));
            let cfg = RegistrationConfig {
                nt: 2,
                continuation: false,
                beta_target: 1e-2,
                max_gn_iter: 6,
                precision,
                verbose: false,
                ..Default::default()
            };
            let (_, report) = Claire::new(cfg).register(&m0, &m1, comm);
            (report.rel_mismatch, report.precision.clone())
        })
    };
    let r64 = solve(Precision::F64);
    let r32 = solve(Precision::Mixed);
    let (m64, p64) = &r64.outputs[0];
    let (m32, p32) = &r32.outputs[0];
    assert_eq!(p64, "f64");
    assert_eq!(p32, "mixed");
    assert!(
        (m64 - m32).abs() <= 1e-3 * m64 + 1e-6,
        "mixed solve over sockets should reach the f64 mismatch: {m32:.6e} vs {m64:.6e}"
    );
}
