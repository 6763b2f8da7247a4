//! A sharding router over several claire-serve workers.
//!
//! [`Router`] owns one [`Client`] connection per backend worker and places
//! every submission by **consistent-hashing its solver fingerprint**
//! ([`crate::wire::solver_fingerprint`]): same grid + same solver config →
//! same worker, so the worker-local batch coalescer still finds
//! same-fingerprint peers even when the fleet is fronted by one address.
//! Identity fields (label, tenant, priority) do not move a job between
//! shards.
//!
//! Each backend gets ~[`VNODES`] points on the hash ring, so adding or
//! losing one worker remaps only `1/N` of the fingerprint space. When a
//! backend dies mid-flight (transport error after one reconnect attempt),
//! the router marks it dead, re-submits the job's stored spec to the next
//! alive backend on the ring, and counts the event in
//! [`Router::rerouted`].
//!
//! The router speaks plain wire protocol on both sides, so it composes:
//! `claire-router` (the binary) is itself a valid submission target for
//! another router.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::client::{Client, RemoteAdmission};
use crate::job::{JobId, JobStatus};
use crate::server::JobBackend;
use crate::wire::{solver_fingerprint, Fnv, RemoteJobResult, StreamEvent, WireError, WireJobSpec};

/// Ring points per backend. ~40 vnodes keeps the shard-size spread under a
/// few percent for small fleets without making ring lookups expensive.
const VNODES: usize = 40;

struct Backend {
    addr: String,
    alive: AtomicBool,
    conn: Mutex<Option<Client>>,
}

impl Backend {
    /// Run `op` on this backend's pooled connection, reconnecting once on
    /// a transport error. A second transport failure marks the backend
    /// dead and surfaces the error.
    fn call<T>(&self, op: impl Fn(&mut Client) -> Result<T, WireError>) -> Result<T, WireError> {
        let mut slot = self.conn.lock().unwrap();
        for attempt in 0..2 {
            if slot.is_none() {
                match Client::connect_as(&self.addr[..], "claire-router") {
                    Ok(c) => *slot = Some(c),
                    Err(e) if e.is_transport() && attempt == 0 => continue,
                    Err(e) => {
                        if e.is_transport() {
                            self.alive.store(false, Ordering::SeqCst);
                        }
                        return Err(e);
                    }
                }
            }
            match op(slot.as_mut().expect("connection just ensured")) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transport() => {
                    *slot = None; // poisoned stream; retry with a fresh one
                    if attempt == 1 {
                        self.alive.store(false, Ordering::SeqCst);
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on its last attempt")
    }
}

/// In-flight job bookkeeping: where it went and what was sent (kept until
/// the result is fetched, so a dead worker's jobs can be re-submitted).
struct Placement {
    backend: usize,
    remote: JobId,
    spec: WireJobSpec,
}

/// A consistent-hash sharding front door over claire-serve workers.
pub struct Router {
    backends: Vec<Backend>,
    /// Sorted `(point, backend index)` ring.
    ring: Vec<(u64, usize)>,
    jobs: Mutex<HashMap<u64, Placement>>,
    next_id: AtomicU64,
    rerouted: AtomicU64,
}

impl Router {
    /// Build a router over `addrs` (connections are opened lazily).
    ///
    /// Returns an error only when `addrs` is empty — a worker that is down
    /// at construction time is discovered (and skipped) at first use.
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Result<Router, WireError> {
        if addrs.is_empty() {
            return Err(WireError::Protocol("router needs at least one backend".into()));
        }
        let backends: Vec<Backend> = addrs
            .iter()
            .map(|a| Backend {
                addr: a.as_ref().to_string(),
                alive: AtomicBool::new(true),
                conn: Mutex::new(None),
            })
            .collect();
        let mut ring = Vec::with_capacity(backends.len() * VNODES);
        for (b, backend) in backends.iter().enumerate() {
            for v in 0..VNODES {
                let mut h = Fnv::new();
                h.write(backend.addr.as_bytes());
                h.write(b"#");
                h.write_u64(v as u64);
                ring.push((h.0, b));
            }
        }
        ring.sort_unstable();
        Ok(Router {
            backends,
            ring,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            rerouted: AtomicU64::new(0),
        })
    }

    /// The backend index a spec's solver fingerprint lands on right now
    /// (dead backends skipped). Exposed so tests and operators can check
    /// co-location without submitting.
    pub fn shard_of(&self, spec: &WireJobSpec) -> Option<usize> {
        self.successors(solver_fingerprint(spec)).next()
    }

    /// Backend addresses in construction order.
    pub fn backend_addrs(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.addr.as_str()).collect()
    }

    /// Backends currently considered alive.
    pub fn alive_backends(&self) -> usize {
        self.backends.iter().filter(|b| b.alive.load(Ordering::SeqCst)).count()
    }

    /// Jobs re-submitted to another worker after their first worker died.
    pub fn rerouted(&self) -> u64 {
        self.rerouted.load(Ordering::SeqCst)
    }

    /// Alive backend indices in ring order starting at `point`, each at
    /// most once.
    fn successors(&self, point: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let n = self.ring.len();
        let mut seen = vec![false; self.backends.len()];
        (0..n).filter_map(move |i| {
            let (_, b) = self.ring[(start + i) % n];
            if seen[b] || !self.backends[b].alive.load(Ordering::SeqCst) {
                return None;
            }
            seen[b] = true;
            Some(b)
        })
    }

    /// Submit `spec` to its shard, failing over along the ring. Returns a
    /// **router-scoped** admission: the id lives in the router's id space
    /// and must be redeemed through this router.
    pub fn submit(&self, spec: &WireJobSpec) -> Result<RemoteAdmission, WireError> {
        let (backend, adm) = self.place(spec, None)?;
        let local = JobId::from_u64(self.next_id.fetch_add(1, Ordering::SeqCst));
        self.jobs
            .lock()
            .unwrap()
            .insert(local.as_u64(), Placement { backend, remote: adm.id, spec: spec.clone() });
        Ok(RemoteAdmission { id: local, cached: adm.cached })
    }

    /// Try the shard and then every alive successor; `skip` (a just-died
    /// backend) is rerouted around without being retried.
    fn place(
        &self,
        spec: &WireJobSpec,
        skip: Option<usize>,
    ) -> Result<(usize, RemoteAdmission), WireError> {
        let point = solver_fingerprint(spec);
        let mut last = WireError::Protocol("no alive backend".into());
        let candidates: Vec<usize> = self.successors(point).collect();
        for b in candidates {
            if Some(b) == skip {
                continue;
            }
            match self.backends[b].call(|c| c.submit(spec)) {
                Ok(adm) => return Ok((b, adm)),
                Err(e) if e.is_transport() => last = e, // backend marked dead; next
                Err(e) => return Err(e),                // server-side refusal is final
            }
        }
        Err(last)
    }

    /// Status of a routed job.
    pub fn status(&self, id: JobId) -> Result<JobStatus, WireError> {
        let (backend, remote) = self.lookup(id)?;
        self.backends[backend].call(|c| c.status(remote))
    }

    /// Cancel a routed job.
    pub fn cancel(&self, id: JobId) -> Result<bool, WireError> {
        let (backend, remote) = self.lookup(id)?;
        self.backends[backend].call(|c| c.cancel(remote))
    }

    /// Block until the routed job is terminal and fetch its result. If the
    /// job's worker dies first, the stored spec is re-submitted to the
    /// next alive backend on the ring and the wait continues there; the
    /// returned result keeps the router-scoped id.
    pub fn wait(&self, id: JobId) -> Result<RemoteJobResult, WireError> {
        loop {
            let (backend, remote) = self.lookup(id)?;
            match self.backends[backend].call(|c| c.wait(remote)) {
                Ok(mut result) => {
                    self.jobs.lock().unwrap().remove(&id.as_u64());
                    result.id = id;
                    return Ok(result);
                }
                Err(e) if e.is_transport() => {
                    // The worker died with the job on it: reroute.
                    let spec = {
                        let jobs = self.jobs.lock().unwrap();
                        jobs.get(&id.as_u64()).map(|p| p.spec.clone())
                    }
                    .ok_or_else(|| WireError::Protocol(format!("job {id} not routed here")))?;
                    let (nb, adm) = self.place(&spec, Some(backend))?;
                    self.rerouted.fetch_add(1, Ordering::SeqCst);
                    let mut jobs = self.jobs.lock().unwrap();
                    if let Some(p) = jobs.get_mut(&id.as_u64()) {
                        p.backend = nb;
                        p.remote = adm.id;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn lookup(&self, id: JobId) -> Result<(usize, JobId), WireError> {
        self.jobs
            .lock()
            .unwrap()
            .get(&id.as_u64())
            .map(|p| (p.backend, p.remote))
            .ok_or_else(|| WireError::Protocol(format!("job {id} not routed here")))
    }
}

/// A router is served through the same connection loop as a worker
/// ([`crate::server::serve_connection`]), so it speaks the protocol a worker
/// speaks — and routers can front routers.
impl JobBackend for Router {
    fn submit(&self, spec: WireJobSpec) -> Result<RemoteAdmission, WireError> {
        Router::submit(self, &spec)
    }

    fn status(&self, id: JobId) -> Result<JobStatus, WireError> {
        Router::status(self, id)
    }

    fn cancel(&self, id: JobId) -> Result<bool, WireError> {
        Router::cancel(self, id)
    }

    fn wait(&self, id: JobId) -> Result<RemoteJobResult, WireError> {
        Router::wait(self, id)
    }

    /// Coarse status stream: `Queued` → `Running` → `Terminal`, polled from
    /// the shard at 100 ms. Per-iteration events stay a direct-worker
    /// feature; the router's job is placement, not fan-in.
    fn stream(
        &self,
        id: JobId,
        emit: &mut dyn FnMut(StreamEvent) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        emit(StreamEvent::Queued)?;
        let mut sent_running = false;
        loop {
            let status = Router::status(self, id)?;
            if !sent_running && status != JobStatus::Queued {
                sent_running = true;
                emit(StreamEvent::Running)?;
            }
            if status.is_terminal() {
                return emit(StreamEvent::Terminal { status });
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize, gn: usize) -> WireJobSpec {
        let cfg = claire_core::RegistrationConfig { max_gn_iter: gn, ..Default::default() };
        WireJobSpec {
            label: "x".into(),
            tenant: String::new(),
            config: cfg,
            input: crate::wire::WireInput::Synthetic { n: [n, n, n] },
            priority: crate::job::Priority::Normal,
            deadline_ms: None,
        }
    }

    #[test]
    fn sharding_is_stable_and_ignores_identity() {
        let r = Router::new(&["a:1", "b:2", "c:3"]).unwrap();
        let base = spec(8, 5);
        let shard = r.shard_of(&base).unwrap();
        let mut relabeled = base.clone();
        relabeled.label = "other".into();
        relabeled.tenant = "someone".into();
        assert_eq!(r.shard_of(&relabeled), Some(shard), "identity must not move a job");
        let moved = (4..32).any(|n| r.shard_of(&spec(n, 5)) != r.shard_of(&spec(n, 6)));
        assert!(moved, "solver config must influence placement somewhere");
    }

    #[test]
    fn dead_backends_are_skipped() {
        let r = Router::new(&["a:1", "b:2"]).unwrap();
        let s = spec(8, 5);
        let first = r.shard_of(&s).unwrap();
        r.backends[first].alive.store(false, Ordering::SeqCst);
        let second = r.shard_of(&s).unwrap();
        assert_ne!(first, second);
        assert_eq!(r.alive_backends(), 1);
        r.backends[second].alive.store(false, Ordering::SeqCst);
        assert_eq!(r.shard_of(&s), None);
    }

    #[test]
    fn vnode_spread_is_reasonable() {
        let r = Router::new(&["a:1", "b:2", "c:3", "d:4"]).unwrap();
        let mut counts = [0usize; 4];
        for n in 4..132 {
            counts[r.shard_of(&spec(n, 5)).unwrap()] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(c > 0, "backend {b} received nothing across 128 fingerprints");
        }
    }
}
