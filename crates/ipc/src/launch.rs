//! The rank process launcher: spawn N worker processes, supervise them,
//! collect their RunReports, and reap everything on failure.
//!
//! The launcher creates a rendezvous directory, binds a `launch.sock`
//! result listener in it, and spawns one child per rank running
//! `<exe> worker-rank --dir <dir> --rank <i> --ranks <N> ...`. Workers
//! bootstrap their [`SocketTransport`](crate::socket::SocketTransport) mesh
//! inside the same directory, run the solve, and send one final
//! [`WorkerFrame`] back over `launch.sock` — a `Report` with their
//! serialized RunReport, or a `Failure` with an in-band error.
//!
//! Supervision is a poll loop over two signals: result-socket accepts and
//! child `try_wait`. A child that exits nonzero (or dies without reporting)
//! makes the launcher kill and reap every remaining child and return
//! [`ClaireError::RankFailed`] — a dead rank never turns into a hang.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use claire_grid::{ClaireError, ClaireResult};

use crate::frame::{self, MAX_FRAME_BYTES};
use crate::socket::fresh_rendezvous_dir;
use crate::wire::{self, WorkerFrame};

/// Environment variables the launcher explicitly forwards to workers so a
/// rank behaves exactly like the parent would have (thread pool size, SIMD
/// backend selection).
pub const FORWARDED_ENV: &[&str] = &["CLAIRE_THREADS", "CLAIRE_SIMD"];

/// Name of the launcher's result socket inside the rendezvous directory.
pub const LAUNCH_SOCKET: &str = "launch.sock";

/// Poll cadence of the supervision loop.
const POLL: Duration = Duration::from_millis(10);

/// Grace period for result frames still in the listener backlog after every
/// child has already exited cleanly.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What to launch and how to supervise it.
pub struct LaunchSpec {
    /// Executable to spawn (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Number of rank processes.
    pub ranks: usize,
    /// Extra arguments appended after the standard
    /// `worker-rank --dir … --rank … --ranks …` prefix (solver flags,
    /// problem size, …).
    pub worker_args: Vec<String>,
    /// Wall-clock budget for the whole run before the launcher gives up and
    /// reaps the cluster.
    pub timeout: Duration,
}

impl LaunchSpec {
    /// A spec with the default five-minute supervision timeout.
    pub fn new(exe: PathBuf, ranks: usize, worker_args: Vec<String>) -> Self {
        LaunchSpec { exe, ranks, worker_args, timeout: Duration::from_secs(300) }
    }
}

/// A successful launch: every rank's RunReport JSON, indexed by rank.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// Rank `i`'s serialized RunReport at index `i`.
    pub reports: Vec<String>,
}

/// Kills and reaps all still-running children when dropped, so every error
/// return (and panic) leaves no orphan rank processes behind.
struct Reaper {
    children: Vec<Option<Child>>,
}

impl Reaper {
    fn kill_all(&mut self) {
        for slot in &mut self.children {
            if let Some(child) = slot {
                let _ = child.kill();
                let _ = child.wait();
                *slot = None;
            }
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Spawn and supervise a rank cluster; block until every rank has reported.
///
/// Fails typed (`ClaireError::RankFailed`) if any child exits nonzero, dies
/// without reporting, sends an in-band failure frame, or the whole run
/// exceeds `spec.timeout`; all remaining children are killed and reaped
/// before the error returns.
pub fn launch(spec: &LaunchSpec) -> ClaireResult<LaunchOutcome> {
    if spec.ranks == 0 {
        return Err(ClaireError::Config { param: "ranks", message: "must be >= 1 (got 0)".into() });
    }
    let dir = fresh_rendezvous_dir("launch").map_err(|e| io_err("create rendezvous dir", e))?;
    let result = supervise(spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn io_err(context: &'static str, e: impl std::fmt::Display) -> ClaireError {
    ClaireError::Io { context, message: e.to_string() }
}

fn supervise(spec: &LaunchSpec, dir: &Path) -> ClaireResult<LaunchOutcome> {
    let listener =
        UnixListener::bind(dir.join(LAUNCH_SOCKET)).map_err(|e| io_err("bind launch socket", e))?;
    listener.set_nonblocking(true).map_err(|e| io_err("launch socket nonblocking", e))?;

    let mut reaper = Reaper { children: Vec::with_capacity(spec.ranks) };
    for rank in 0..spec.ranks {
        let mut cmd = Command::new(&spec.exe);
        cmd.arg("worker-rank")
            .arg("--dir")
            .arg(dir)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(spec.ranks.to_string())
            .args(&spec.worker_args)
            .stdin(Stdio::null());
        for key in FORWARDED_ENV {
            if let Ok(val) = std::env::var(key) {
                cmd.env(key, val);
            }
        }
        match cmd.spawn() {
            Ok(child) => reaper.children.push(Some(child)),
            Err(e) => {
                reaper.kill_all();
                return Err(io_err("spawn worker rank", e));
            }
        }
    }

    let deadline = Instant::now() + spec.timeout;
    let mut reports: Vec<Option<String>> = (0..spec.ranks).map(|_| None).collect();
    let mut all_exited_at: Option<Instant> = None;

    loop {
        // drain result frames queued on the launch socket
        loop {
            match listener.accept() {
                Ok((stream, _)) => match read_worker_frame(&stream) {
                    Ok(WorkerFrame::Report { rank, json }) if rank < spec.ranks => {
                        reports[rank] = Some(json);
                    }
                    Ok(WorkerFrame::Failure { rank, message }) => {
                        reaper.kill_all();
                        return Err(ClaireError::RankFailed { rank, message });
                    }
                    Ok(WorkerFrame::Report { rank, .. }) => {
                        reaper.kill_all();
                        return Err(ClaireError::RankFailed {
                            rank: rank.min(spec.ranks),
                            message: format!("report from out-of-range rank {rank}"),
                        });
                    }
                    // a malformed result frame is not fatal on its own: the
                    // sender's exit status will surface the real failure
                    Err(_) => {}
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    reaper.kill_all();
                    return Err(io_err("accept on launch socket", e));
                }
            }
        }

        if reports.iter().all(|r| r.is_some()) {
            // every rank reported; reap children (they are exiting now)
            for slot in &mut reaper.children {
                if let Some(mut child) = slot.take() {
                    let reaped = wait_with_deadline(&mut child, Instant::now() + DRAIN_GRACE);
                    if !reaped {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
            }
            let reports = reports.into_iter().map(|r| r.expect("checked above")).collect();
            return Ok(LaunchOutcome { reports });
        }

        // a child that died before reporting is a failed rank
        for (rank, slot) in reaper.children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    let _ = slot.take();
                    if !status.success() {
                        reaper.kill_all();
                        return Err(ClaireError::RankFailed {
                            rank,
                            message: format!("worker process exited with {status}"),
                        });
                    }
                    // exited 0 without a report yet: the frame may still be
                    // in the listener backlog — the drain loop gets a grace
                    // period (below) before this counts as a failure
                }
                Ok(None) => {}
                Err(e) => {
                    reaper.kill_all();
                    return Err(io_err("wait on worker rank", e));
                }
            }
        }

        if reaper.children.iter().all(|c| c.is_none()) {
            let exited = *all_exited_at.get_or_insert_with(Instant::now);
            if exited.elapsed() > DRAIN_GRACE {
                let rank = reports.iter().position(|r| r.is_none()).unwrap_or(0);
                return Err(ClaireError::RankFailed {
                    rank,
                    message: "worker process exited without sending a report".into(),
                });
            }
        }

        if Instant::now() >= deadline {
            let rank = reports.iter().position(|r| r.is_none()).unwrap_or(0);
            reaper.kill_all();
            return Err(ClaireError::RankFailed {
                rank,
                message: format!(
                    "launch timed out after {:?} waiting for rank {rank}",
                    spec.timeout
                ),
            });
        }
        std::thread::sleep(POLL);
    }
}

fn read_worker_frame(stream: &UnixStream) -> Result<WorkerFrame, String> {
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let mut r = stream;
    let payload = frame::read_frame(&mut r, MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
    wire::decode_worker_frame(&payload).map_err(|e| e.to_string())
}

fn wait_with_deadline(child: &mut Child, deadline: Instant) -> bool {
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return true,
            Ok(None) => {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(POLL);
            }
            Err(_) => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// worker-side helpers
// ---------------------------------------------------------------------------

fn send_worker_frame(dir: &Path, f: &WorkerFrame) -> ClaireResult<()> {
    let mut stream = UnixStream::connect(dir.join(LAUNCH_SOCKET))
        .map_err(|e| io_err("connect to launch socket", e))?;
    frame::write_frame(&mut stream, &wire::encode_worker_frame(f))
        .map_err(|e| io_err("send worker frame", e))?;
    stream.flush().map_err(|e| io_err("flush worker frame", e))?;
    Ok(())
}

/// Send this rank's RunReport back to the launcher (the worker's last act).
pub fn send_report(dir: &Path, rank: usize, json: String) -> ClaireResult<()> {
    send_worker_frame(dir, &WorkerFrame::Report { rank, json })
}

/// Report an in-band failure (solver error) to the launcher before exiting.
pub fn send_failure(dir: &Path, rank: usize, message: String) -> ClaireResult<()> {
    send_worker_frame(dir, &WorkerFrame::Failure { rank, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::os::unix::fs::PermissionsExt;
    use std::sync::Mutex;

    // launch() against the real claire-cli binary is covered by
    // tests/ipc_equivalence.rs at the workspace root; here we exercise the
    // supervision loop with shell-script stand-ins for worker processes.

    /// A fresh rendezvous directory, removed when the guard drops: at the
    /// end of its test, a failing one included.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> TempDir {
            TempDir(fresh_rendezvous_dir(label).unwrap())
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Write `script` as an executable stand-in worker into a directory of
    /// its own; the worker is `guard.0.join("worker.sh")`. The script runs
    /// with the launcher's standard args (`worker-rank --dir D --rank R …`),
    /// so `$3` is the rendezvous dir and `$5` the rank.
    fn script_worker(name: &str, script: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new(&format!("launchtest-{name}"));
        let path = dir.0.join("worker.sh");
        std::fs::write(&path, format!("#!/bin/sh\n{script}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        (dir, path)
    }

    /// Held by each test whose stand-in rank is a `sleep 600`, so that a
    /// sleeper seen after `launch` returned is that test's own leak.
    static SLEEPERS: Mutex<()> = Mutex::new(());

    /// Pids of the live `sleep 600` processes.
    fn sleepers() -> BTreeSet<u32> {
        let procs = std::fs::read_dir("/proc").unwrap().flatten();
        procs
            .filter_map(|e| {
                let pid: u32 = e.file_name().to_str()?.parse().ok()?;
                let cmdline = std::fs::read(e.path().join("cmdline")).ok()?;
                (cmdline == b"sleep\x00600\x00").then_some(pid)
            })
            .collect()
    }

    #[test]
    fn zero_ranks_is_config_error() {
        let spec = LaunchSpec::new(PathBuf::from("/bin/true"), 0, vec![]);
        let err = launch(&spec).unwrap_err();
        assert!(matches!(err, ClaireError::Config { param: "ranks", .. }));
    }

    #[test]
    fn child_that_dies_without_reporting_is_rank_failed() {
        let (_dir, exe) = script_worker("dies", "exit 7");
        let spec = LaunchSpec::new(exe, 2, vec![]);
        let t0 = Instant::now();
        let err = launch(&spec).unwrap_err();
        match err {
            ClaireError::RankFailed { message, .. } => {
                assert!(message.contains("exited with"), "{message}");
            }
            other => panic!("expected RankFailed, got {other}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn timeout_reaps_hung_children() {
        // `exec`: the stand-in rank is the sleeper itself, not a shell whose
        // child would outlive it
        let (_dir, exe) = script_worker("hangs", "exec sleep 600");
        let spec =
            LaunchSpec { exe, ranks: 1, worker_args: vec![], timeout: Duration::from_millis(300) };
        let _one_at_a_time = SLEEPERS.lock().unwrap_or_else(|e| e.into_inner());
        let before = sleepers();
        let t0 = Instant::now();
        let err = launch(&spec).unwrap_err();
        assert!(sleepers().is_subset(&before), "the hung rank outlived the launcher");
        match err {
            ClaireError::RankFailed { message, .. } => {
                assert!(message.contains("timed out"), "{message}");
            }
            other => panic!("expected RankFailed, got {other}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn reports_are_collected_in_rank_order() {
        // workers idle while this thread injects the Report frames through
        // the real worker-side helpers, out of rank order
        let (_script, exe) = script_worker("reporter", "sleep 2");
        let spec = LaunchSpec::new(exe, 2, vec![]);
        let guard = TempDir::new("launch-report-test");
        let dir = guard.0.clone();
        let d = dir.clone();
        let handle = std::thread::spawn(move || supervise(&spec, &d));
        while !dir.join(LAUNCH_SOCKET).exists() {
            std::thread::sleep(Duration::from_millis(5));
        }
        send_report(&dir, 1, "{\"rank\":1}".into()).unwrap();
        send_report(&dir, 0, "{\"rank\":0}".into()).unwrap();
        let outcome = handle.join().unwrap().unwrap();
        assert_eq!(outcome.reports, vec!["{\"rank\":0}".to_string(), "{\"rank\":1}".to_string()]);
    }

    #[test]
    fn in_band_failure_frame_kills_the_cluster() {
        let (_script, exe) = script_worker("inband", "exec sleep 600");
        let spec = LaunchSpec::new(exe, 2, vec![]);
        let guard = TempDir::new("launch-failure-test");
        let dir = guard.0.clone();
        let _one_at_a_time = SLEEPERS.lock().unwrap_or_else(|e| e.into_inner());
        let before = sleepers();
        let d = dir.clone();
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || supervise(&spec, &d));
        while !dir.join(LAUNCH_SOCKET).exists() {
            std::thread::sleep(Duration::from_millis(5));
        }
        send_failure(&dir, 1, "beta continuation diverged".into()).unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(
            err,
            ClaireError::RankFailed { rank: 1, message: "beta continuation diverged".into() }
        );
        // the sleeping peers were killed, not waited out
        assert!(t0.elapsed() < Duration::from_secs(30));
        assert!(sleepers().is_subset(&before), "a sleeping rank outlived the launcher");
    }
}
