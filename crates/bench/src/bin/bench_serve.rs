//! Load generator for the `claire-serve` registration job service.
//!
//! Emits `BENCH_serve.json` (or the path given as the first non-flag CLI
//! argument). Four phases:
//!
//! 1. **Calibration** — one synthetic job on a 1-worker service measures
//!    the per-job service time this host sustains.
//! 2. **Concurrency levels** — for ≥ 2 worker counts, an *open-loop*
//!    producer submits jobs at a fixed rate derived from the calibration
//!    (offered load ≈ 1.25× the level's service capacity) using
//!    `try_submit`, so overload shows up as rejections rather than
//!    producer back-off. Reports throughput and end-to-end latency
//!    percentiles (p50/p95/p99) per level.
//! 3. **Overload** — a burst of back-to-back submissions against a
//!    capacity-2 queue demonstrates bounded-queue backpressure: the run
//!    fails unless some submissions are rejected and exactly
//!    `capacity + workers`-bounded work is accepted.
//! 4. **Batching** — the same identical-spec burst through one worker with
//!    job coalescing off vs on; reports jobs/s both ways, the speedup, and
//!    the largest batch the scheduler formed.
//! 5. **Networked** — the same jobs submitted through a loopback
//!    `NetServer` + `Client` pair: closed-loop end-to-end latency
//!    (p50/p95) with the result cache off, then cache-hit throughput with
//!    it on. These two emit `results` rows (`serve_net_e2e`,
//!    `serve_net_cache_hit`, jobs/s as `pairs_per_sec`).
//!
//! `--smoke` shrinks the workload for CI (8³ grids, few jobs) while still
//! exercising every phase.

use std::time::{Duration, Instant};

use claire_core::{PrecondKind, RegistrationConfig};
use claire_serve::{
    Client, JobInput, JobSpec, JobStatus, NetServer, NetServerConfig, RegistrationService,
    ServiceConfig, SubmitError, WireJobSpec,
};
use serde::Serialize;

#[derive(Serialize)]
struct LevelRow {
    workers: usize,
    queue_capacity: usize,
    offered_rate_hz: f64,
    submitted: usize,
    completed: usize,
    rejected: usize,
    throughput_jobs_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct OverloadRow {
    workers: usize,
    queue_capacity: usize,
    submitted: usize,
    accepted: usize,
    rejected: usize,
}

#[derive(Serialize)]
struct BatchingRow {
    workers: usize,
    jobs: usize,
    max_batch: usize,
    seq_jobs_per_s: f64,
    batched_jobs_per_s: f64,
    /// Batched over sequential throughput on the same burst.
    batching_speedup: f64,
    /// Largest coalesced batch the scheduler actually formed.
    largest_batch: usize,
}

/// One row of the networked phase, in the `(kernel, n, threads, backend)`
/// shape of the other printers' rows.
#[derive(Serialize)]
struct NetRow {
    kernel: String,
    n: u64,
    threads: u64,
    backend: String,
    jobs: usize,
    pairs_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    /// Content-hash cache hits observed server-side during this row.
    cache_hits: u64,
}

#[derive(Serialize)]
struct Report {
    host_threads: usize,
    smoke: bool,
    calibration_run_secs: f64,
    levels: Vec<LevelRow>,
    overload: OverloadRow,
    batching: BatchingRow,
    /// Networked rows.
    results: Vec<NetRow>,
}

struct Workload {
    grid: usize,
    jobs_per_level: usize,
    overload_jobs: usize,
}

fn job_config() -> RegistrationConfig {
    RegistrationConfig {
        nt: 2,
        max_gn_iter: 2,
        max_pcg_iter: 4,
        continuation: false,
        precond: PrecondKind::InvA,
        verbose: false,
        ..Default::default()
    }
}

fn spec(label: String, grid: usize) -> JobSpec {
    JobSpec::new(label, job_config(), JobInput::Synthetic { n: [grid; 3] })
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// One job on a quiet 1-worker service: the baseline service time.
fn calibrate(grid: usize) -> f64 {
    let mut svc =
        RegistrationService::start(ServiceConfig::default().workers(1).collect_reports(false));
    let id = svc.submit(spec("calibrate".into(), grid)).expect("calibration admission");
    let res = svc.wait(id).expect("calibration job known");
    assert_eq!(res.status, JobStatus::Succeeded, "calibration failed: {:?}", res.error);
    svc.shutdown();
    res.run_time.as_secs_f64().max(1e-4)
}

/// Open-loop load at ~1.25× the level's service capacity.
fn run_level(workers: usize, per_job_secs: f64, w: &Workload) -> LevelRow {
    let queue_capacity = w.jobs_per_level;
    let mut svc = RegistrationService::start(
        ServiceConfig::default()
            .workers(workers)
            .queue_capacity(queue_capacity)
            .collect_reports(false),
    );
    let offered_rate_hz = 1.25 * workers as f64 / per_job_secs;
    let interval = Duration::from_secs_f64(1.0 / offered_rate_hz);

    let t0 = Instant::now();
    let mut ids = Vec::new();
    let mut rejected = 0usize;
    for j in 0..w.jobs_per_level {
        match svc.try_submit(spec(format!("w{workers}-j{j}"), w.grid)) {
            Ok(id) => ids.push(id),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        // open loop: the producer holds its rate regardless of completions
        std::thread::sleep(interval);
    }
    let mut latencies_ms: Vec<f64> = ids
        .iter()
        .map(|&id| {
            let res = svc.wait(id).expect("submitted job known");
            assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
            res.total.as_secs_f64() * 1e3
        })
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    svc.shutdown();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    LevelRow {
        workers,
        queue_capacity,
        offered_rate_hz,
        submitted: w.jobs_per_level,
        completed: ids.len(),
        rejected,
        throughput_jobs_per_s: ids.len() as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

/// Back-to-back burst against a tiny queue: rejections must occur.
fn run_overload(w: &Workload) -> OverloadRow {
    let queue_capacity = 2;
    let mut svc = RegistrationService::start(
        ServiceConfig::default().workers(1).queue_capacity(queue_capacity).collect_reports(false),
    );
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for j in 0..w.overload_jobs {
        match svc.try_submit(spec(format!("burst-{j}"), w.grid)) {
            Ok(id) => accepted.push(id),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for id in &accepted {
        let res = svc.wait(*id).expect("accepted job known");
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
    }
    svc.shutdown();
    assert!(
        rejected > 0,
        "bounded queue must reject under a {}-job burst at capacity {queue_capacity}",
        w.overload_jobs
    );
    OverloadRow {
        workers: 1,
        queue_capacity,
        submitted: w.overload_jobs,
        accepted: accepted.len(),
        rejected,
    }
}

/// Identical-spec burst through one worker, `max_batch(1)` vs
/// `max_batch(8)`: the service-level view of setup amortization. The first job
/// usually starts solo before companions queue up; the rest coalesce into
/// batches of up to `max_batch`.
fn run_batching(w: &Workload) -> BatchingRow {
    let jobs = w.overload_jobs;
    let max_batch = 8usize;
    let mut rates = [0.0f64; 2];
    let mut largest = 0usize;
    for (i, cap) in [1, max_batch].into_iter().enumerate() {
        let mut svc = RegistrationService::start(
            ServiceConfig::default()
                .workers(1)
                .queue_capacity(jobs)
                .collect_reports(true)
                .max_batch(cap),
        );
        let t0 = Instant::now();
        let ids: Vec<_> = (0..jobs)
            .map(|j| svc.submit(spec(format!("batching-{j}"), w.grid)).expect("burst admission"))
            .collect();
        for id in &ids {
            let res = svc.wait(*id).expect("submitted job known");
            assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
            if let Some(run) = &res.run {
                largest = largest.max(run.scheduling.batch_size);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        svc.shutdown();
        rates[i] = jobs as f64 / elapsed.max(1e-9);
    }
    BatchingRow {
        workers: 1,
        jobs,
        max_batch,
        seq_jobs_per_s: rates[0],
        batched_jobs_per_s: rates[1],
        batching_speedup: rates[1] / rates[0].max(1e-9),
        largest_batch: largest,
    }
}

/// Closed-loop submissions over loopback TCP, result cache off: the wire
/// protocol's end-to-end overhead on top of the solve itself.
fn run_net_e2e(w: &Workload) -> NetRow {
    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_capacity(w.jobs_per_level.max(4))
        .collect_reports(false);
    let mut server = NetServer::bind("127.0.0.1:0", NetServerConfig::default().service(cfg))
        .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut latencies_ms = Vec::with_capacity(w.jobs_per_level);
    let t0 = Instant::now();
    for j in 0..w.jobs_per_level {
        let wire = WireJobSpec::from_spec(&spec(format!("net-{j}"), w.grid));
        let t = Instant::now();
        let adm = client.submit(&wire).expect("net submission");
        let res = client.wait(adm.id).expect("net result");
        assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);
        assert!(!adm.cached, "cache is off in the e2e row");
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    NetRow {
        kernel: "serve_net_e2e".into(),
        n: w.grid as u64,
        threads: 1,
        backend: String::new(),
        jobs: w.jobs_per_level,
        pairs_per_sec: w.jobs_per_level as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        cache_hits: 0,
    }
}

/// Identical submissions against a cache-enabled server: after one warm-up
/// solve every request is served from the content-hash cache, so this row
/// measures pure protocol + cache throughput.
fn run_net_cache(w: &Workload) -> NetRow {
    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_capacity(4)
        .collect_reports(false)
        .result_cache(8);
    let mut server = NetServer::bind("127.0.0.1:0", NetServerConfig::default().service(cfg))
        .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let wire = WireJobSpec::from_spec(&spec("net-cache".into(), w.grid));
    let warm = client.submit(&wire).expect("warm-up submission");
    assert!(!warm.cached);
    let res = client.wait(warm.id).expect("warm-up result");
    assert_eq!(res.status, JobStatus::Succeeded, "{:?}", res.error);

    let hits = w.overload_jobs;
    let mut latencies_ms = Vec::with_capacity(hits);
    let t0 = Instant::now();
    for _ in 0..hits {
        let t = Instant::now();
        let adm = client.submit(&wire).expect("cache-hit submission");
        assert!(adm.cached, "identical content must hit the cache");
        let res = client.wait(adm.id).expect("cache-hit result");
        assert_eq!(res.status, JobStatus::Succeeded);
        assert!(res.cached);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.service().cache_stats();
    assert_eq!(server.service().solver_invocations(), 1, "hits must not run the solver");
    server.shutdown();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    NetRow {
        kernel: "serve_net_cache_hit".into(),
        n: w.grid as u64,
        threads: 1,
        backend: String::new(),
        jobs: hits,
        pairs_per_sec: hits as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        cache_hits: stats.hits,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_serve.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let w = if smoke {
        // Pin intra-solver parallelism in the CI smoke config so the run
        // does not depend on the host's concurrency (grid sizes are pinned
        // by the workload below).
        claire_par::set_threads(1);
        Workload { grid: 8, jobs_per_level: 4, overload_jobs: 8 }
    } else {
        Workload { grid: 16, jobs_per_level: 12, overload_jobs: 16 }
    };
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("bench_serve: calibrating ({}^3 job)...", w.grid);
    let per_job = calibrate(w.grid);
    eprintln!("bench_serve: per-job service time {:.1} ms", per_job * 1e3);

    let mut levels = Vec::new();
    for workers in [1usize, 2] {
        eprintln!(
            "bench_serve: level workers={workers}, {} jobs, offered {:.2} jobs/s...",
            w.jobs_per_level,
            1.25 * workers as f64 / per_job
        );
        let row = run_level(workers, per_job, &w);
        eprintln!(
            "bench_serve:   throughput {:.2} jobs/s, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, rejected {}",
            row.throughput_jobs_per_s, row.p50_ms, row.p95_ms, row.p99_ms, row.rejected
        );
        levels.push(row);
    }

    eprintln!("bench_serve: overload burst ({} jobs, capacity 2)...", w.overload_jobs);
    let overload = run_overload(&w);
    eprintln!(
        "bench_serve:   accepted {}, rejected {} — bounded-queue backpressure holds",
        overload.accepted, overload.rejected
    );

    eprintln!(
        "bench_serve: batching burst ({} identical jobs, coalescing off vs on)...",
        w.overload_jobs
    );
    let batching = run_batching(&w);
    eprintln!(
        "bench_serve:   sequential {:.2} jobs/s, batched {:.2} jobs/s ({:.2}x), largest batch {}",
        batching.seq_jobs_per_s,
        batching.batched_jobs_per_s,
        batching.batching_speedup,
        batching.largest_batch
    );

    eprintln!("bench_serve: networked e2e over loopback ({} jobs, cache off)...", w.jobs_per_level);
    let net_e2e = run_net_e2e(&w);
    eprintln!(
        "bench_serve:   {:.2} jobs/s end-to-end, p50 {:.1} ms, p95 {:.1} ms",
        net_e2e.pairs_per_sec, net_e2e.p50_ms, net_e2e.p95_ms
    );
    eprintln!("bench_serve: networked cache hits ({} identical jobs)...", w.overload_jobs);
    let net_cache = run_net_cache(&w);
    eprintln!(
        "bench_serve:   {:.2} hits/s, p50 {:.2} ms ({} server-side hits, 1 solve)",
        net_cache.pairs_per_sec, net_cache.p50_ms, net_cache.cache_hits
    );

    let report = Report {
        host_threads: host,
        smoke,
        calibration_run_secs: per_job,
        levels,
        overload,
        batching,
        results: vec![net_e2e, net_cache],
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_serve.json");
    eprintln!("wrote {out_path}");
}
