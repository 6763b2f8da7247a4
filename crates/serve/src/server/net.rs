//! TCP front door for a [`RegistrationService`].
//!
//! [`NetServer`] binds a listener, performs the [`crate::wire`] `Hello`
//! handshake on every connection (refusing incompatible
//! [`PROTOCOL_VERSION`]s with a typed error), and serves the full request
//! envelope: `Submit`, `Status`, `Cancel`, `Result`, and `Stream`.
//!
//! Streaming rides the solver's [`SolverHooks::on_gn_iter`] seam: at
//! submission the server splices a hook that publishes each Gauss–Newton
//! iteration index into a per-job [`Hub`]; a later `Stream` request replays
//! the buffered iterations and then follows live until the job is
//! terminal, so subscribers see `Queued → Running → GnIter* → Terminal`
//! regardless of when they attach. Cache hits skip the solver entirely and
//! stream straight to `Terminal`.
//!
//! One thread per connection, 100 ms read timeouts as poll ticks, and a
//! stop flag checked on every tick make shutdown deterministic: stop the
//! accept loop, join the connection threads, then drain the service.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use claire_core::SolverHooks;

use crate::client::RemoteAdmission;
use crate::job::{JobId, JobStatus};
use crate::server::service::{RegistrationService, ServiceConfig, SubmitError};
use crate::wire::{
    decode_request, read_frame, send, ErrorCode, RemoteJobResult, Request, Response, StreamEvent,
    WireError, WireJobSpec, PROTOCOL_VERSION,
};

/// Poll tick for connection reads and stream waits.
const TICK: Duration = Duration::from_millis(100);

/// How a [`NetServer`] is sized and identified.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Configuration for the embedded [`RegistrationService`].
    pub service: ServiceConfig,
    /// Server identification returned in the `Hello` handshake.
    pub name: String,
    /// Largest request frame accepted (guards allocation; see
    /// [`crate::wire::MAX_FRAME_BYTES`] for the protocol ceiling).
    pub max_frame_bytes: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            service: ServiceConfig::default(),
            name: "claire-serve".to_string(),
            max_frame_bytes: crate::wire::MAX_FRAME_BYTES,
        }
    }
}

impl NetServerConfig {
    /// Set the embedded service configuration.
    pub fn service(mut self, cfg: ServiceConfig) -> Self {
        self.service = cfg;
        self
    }

    /// Set the handshake server name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Cap accepted request frames at `bytes`.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }
}

/// Per-job event hub: the solver-side hook pushes Gauss–Newton iteration
/// indices, stream subscribers replay and then follow.
struct Hub {
    iters: Mutex<Vec<usize>>,
    cv: Condvar,
}

impl Hub {
    fn new() -> Hub {
        Hub { iters: Mutex::new(Vec::new()), cv: Condvar::new() }
    }

    fn push(&self, iter: usize) {
        self.iters.lock().unwrap().push(iter);
        self.cv.notify_all();
    }

    /// Copy iterations `[from..]`, waiting up to `timeout` if none are new.
    fn drain_from(&self, from: usize, timeout: Duration) -> Vec<usize> {
        let mut iters = self.iters.lock().unwrap();
        if iters.len() <= from {
            let (guard, _) = self.cv.wait_timeout(iters, timeout).unwrap();
            iters = guard;
        }
        iters.get(from..).map(<[usize]>::to_vec).unwrap_or_default()
    }
}

/// State shared between the accept loop and every connection thread.
struct NetShared {
    svc: RegistrationService,
    hubs: Mutex<HashMap<u64, Arc<Hub>>>,
    stop: AtomicBool,
    name: String,
    max_frame: usize,
}

/// A TCP server wrapping a [`RegistrationService`].
///
/// ```no_run
/// use claire_serve::server::{NetServer, NetServerConfig};
/// let mut srv = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).unwrap();
/// println!("listening on {}", srv.local_addr());
/// // ... clients connect ...
/// srv.shutdown();
/// ```
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr`, start the embedded service, and begin accepting.
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            svc: RegistrationService::start(cfg.service),
            hubs: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            name: cfg.name,
            max_frame: cfg.max_frame_bytes,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("claire-net-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .expect("spawn accept thread")
        };
        Ok(NetServer { shared, addr: local, accept: Some(accept), conns })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The embedded service (counters, cache stats, direct submission).
    pub fn service(&self) -> &RegistrationService {
        &self.shared.svc
    }

    /// Stop accepting, join connection threads, drain the service.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Every connection thread has dropped its Arc, so the service can
        // be drained in place; if a clone somehow leaked, dropping the
        // server still shuts the pool down via RegistrationService::drop.
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.svc.shutdown();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<NetShared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("claire-net-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(
                            stream,
                            &*shared,
                            &shared.name,
                            shared.max_frame,
                            &shared.stop,
                        );
                    })
                    .expect("spawn connection thread");
                conns.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The five calls a connection makes on whatever executes jobs behind it: a
/// [`RegistrationService`] under [`NetServer`], a sharding
/// [`Router`](crate::router::Router) under `claire-router`. An `Err` goes
/// back to the client as a [`Response::Error`] — with the code of a
/// [`WireError::Remote`], as `internal` otherwise — and the connection
/// stays up.
pub trait JobBackend: Sync {
    /// Admit a job.
    fn submit(&self, spec: WireJobSpec) -> Result<RemoteAdmission, WireError>;
    /// A job's lifecycle status.
    fn status(&self, id: JobId) -> Result<JobStatus, WireError>;
    /// Request cancellation; whether it reached a live job.
    fn cancel(&self, id: JobId) -> Result<bool, WireError>;
    /// Block until the job is terminal and hand over its result.
    fn wait(&self, id: JobId) -> Result<RemoteJobResult, WireError>;
    /// Feed `emit` the job's events up to and including `Terminal`. An
    /// `emit` failure (the client is gone) must be returned as is.
    fn stream(
        &self,
        id: JobId,
        emit: &mut dyn FnMut(StreamEvent) -> Result<(), WireError>,
    ) -> Result<(), WireError>;
}

fn refusal(code: ErrorCode, message: impl ToString) -> Response {
    Response::Error { code, message: message.to_string() }
}

/// Run one connection to completion over `backend`: the first frame must be
/// a version-compatible `Hello` (anything else is refused and the connection
/// dropped), then requests are answered until the peer closes or `stop` is
/// seen on a read-timeout tick. `name` identifies this end in the handshake.
pub fn serve_connection(
    mut stream: TcpStream,
    backend: &impl JobBackend,
    name: &str,
    max_frame: usize,
    stop: &AtomicBool,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(TICK))?;
    let mut greeted = false;
    loop {
        let bytes = match read_frame(&mut stream, max_frame) {
            Ok(b) => b,
            Err(WireError::Timeout) if !stop.load(Ordering::SeqCst) => continue,
            Err(WireError::Timeout | WireError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        // before the handshake every refusal also ends the connection
        let req = match decode_request(&bytes) {
            Ok(Request::Hello { protocol: theirs, .. })
                if !greeted && theirs != PROTOCOL_VERSION =>
            {
                let ours = PROTOCOL_VERSION;
                let message = format!("{name} speaks protocol {ours}, client sent {theirs}");
                send(&mut stream, &refusal(ErrorCode::VersionMismatch, message))?;
                return Err(WireError::VersionMismatch { ours, theirs });
            }
            Ok(req) if !greeted && !matches!(req, Request::Hello { .. }) => {
                send(&mut stream, &refusal(ErrorCode::Unsupported, "first frame must be Hello"))?;
                return Err(WireError::Protocol("first frame must be Hello".into()));
            }
            Ok(req) => req,
            Err(e) => {
                send(&mut stream, &refusal(ErrorCode::Malformed, &e))?;
                if greeted {
                    continue;
                }
                return Err(e);
            }
        };
        let reply = match req {
            // re-greeting an open connection is harmless; re-acknowledge
            Request::Hello { .. } => {
                greeted = true;
                Ok(Response::Hello { protocol: PROTOCOL_VERSION, server: name.to_string() })
            }
            Request::Submit { spec } => backend
                .submit(spec)
                .map(|adm| Response::Submitted { id: adm.id, cached: adm.cached }),
            Request::Status { id } => {
                backend.status(id).map(|status| Response::Status { id, status })
            }
            Request::Cancel { id } => {
                backend.cancel(id).map(|delivered| Response::Cancelled { id, delivered })
            }
            Request::Result { id } => backend.wait(id).map(|result| Response::Result { result }),
            Request::Stream { id } => {
                let mut emit = |event| send(&mut stream, &Response::Event { id, event });
                match backend.stream(id, &mut emit) {
                    Ok(()) => continue,
                    Err(e) if e.is_transport() => return Err(e),
                    Err(e) => Err(e),
                }
            }
        };
        let reply = reply.unwrap_or_else(|e| match e {
            WireError::Remote { code, message } => refusal(code, message),
            e => refusal(ErrorCode::Internal, e),
        });
        send(&mut stream, &reply)?;
    }
}

fn unknown_job(id: JobId) -> WireError {
    WireError::Remote { code: ErrorCode::UnknownJob, message: format!("no job {id}") }
}

impl JobBackend for NetShared {
    fn submit(&self, spec: WireJobSpec) -> Result<RemoteAdmission, WireError> {
        let invalid = |e: WireError| WireError::Remote {
            code: ErrorCode::InvalidSpec,
            message: e.to_string(),
        };
        let mut spec = spec.into_spec().map_err(invalid)?;
        // Splice the streaming hook before admission so no iteration is lost.
        let hub = Arc::new(Hub::new());
        let publish = Arc::clone(&hub);
        spec.hooks = SolverHooks {
            cancel: None,
            on_gn_iter: Some(Arc::new(move |iter| publish.push(iter))),
        };
        let adm = self.svc.try_submit_traced(spec).map_err(|e| {
            let code = match &e {
                SubmitError::QueueFull => ErrorCode::QueueFull,
                SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
                SubmitError::Invalid(_) => ErrorCode::InvalidSpec,
                SubmitError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
            };
            WireError::Remote { code, message: e.to_string() }
        })?;
        if !adm.cached {
            self.hubs.lock().unwrap().insert(adm.id.as_u64(), hub);
        }
        Ok(RemoteAdmission { id: adm.id, cached: adm.cached })
    }

    fn status(&self, id: JobId) -> Result<JobStatus, WireError> {
        self.svc.status(id).ok_or_else(|| unknown_job(id))
    }

    fn cancel(&self, id: JobId) -> Result<bool, WireError> {
        Ok(self.svc.cancel(id))
    }

    fn wait(&self, id: JobId) -> Result<RemoteJobResult, WireError> {
        let result = self.svc.wait(id).ok_or_else(|| unknown_job(id))?;
        self.hubs.lock().unwrap().remove(&id.as_u64());
        Ok(RemoteJobResult::from_result(&result))
    }

    fn stream(
        &self,
        id: JobId,
        emit: &mut dyn FnMut(StreamEvent) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut status = self.status(id)?;
        let hub = self.hubs.lock().unwrap().get(&id.as_u64()).cloned();
        emit(StreamEvent::Queued)?;
        let mut sent_running = false;
        let mut next = 0usize;
        loop {
            if !sent_running && status != JobStatus::Queued {
                sent_running = true;
                emit(StreamEvent::Running)?;
            }
            // Iterations are only relayed once `Running` went out; nothing is
            // lost because the hub replays from `next` on the following tick.
            let fresh = match &hub {
                Some(hub) if sent_running => {
                    hub.drain_from(next, if status.is_terminal() { Duration::ZERO } else { TICK })
                }
                _ => Vec::new(),
            };
            for iter in fresh {
                next += 1;
                emit(StreamEvent::GnIter { iter })?;
            }
            if status.is_terminal() {
                return emit(StreamEvent::Terminal { status });
            }
            if !sent_running || hub.is_none() {
                std::thread::sleep(TICK);
            }
            if self.stop.load(Ordering::SeqCst) {
                return Err(WireError::Remote {
                    code: ErrorCode::ShuttingDown,
                    message: "server shutting down".into(),
                });
            }
            // Read the status *before* draining the hub: iterations published
            // before the job went terminal are still replayed afterwards.
            status = self.status(id)?;
        }
    }
}
