//! TCP front door for a [`RegistrationService`].
//!
//! [`NetServer`] binds a listener, performs the [`crate::wire`] `Hello`
//! handshake on every connection (refusing incompatible
//! [`PROTOCOL_VERSION`]s with a typed error), and serves the request
//! envelope: `Submit`, `Status`, `Cancel` and `Result`.
//!
//! One thread per connection, 100 ms read timeouts as poll ticks, and a
//! stop flag checked on every tick make shutdown deterministic: stop the
//! accept loop, join the connection threads, then drain the service. The
//! accept loop joins the threads of closed connections as new ones arrive,
//! so a long-lived server holds one thread per open connection.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use claire_ipc::frame::{read_frame, MAX_FRAME_BYTES};
use claire_ipc::FrameError;

use crate::job::JobId;
use crate::server::service::{RegistrationService, ServiceConfig, SubmitError};
use crate::wire::{
    decode_request, send, ErrorCode, RemoteJobResult, Request, Response, WireError, WireJobSpec,
    PROTOCOL_VERSION,
};

/// Poll tick for connection reads.
const TICK: Duration = Duration::from_millis(100);

/// Server identification returned in the `Hello` handshake.
const SERVER_NAME: &str = "claire-serve";

/// State shared between the accept loop and every connection thread.
struct NetShared {
    svc: RegistrationService,
    stop: AtomicBool,
}

/// A TCP server wrapping a [`RegistrationService`].
///
/// ```no_run
/// use claire_serve::{NetServer, ServiceConfig};
/// let mut srv = NetServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
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
    /// Bind `addr`, start a service configured by `cfg`, and begin accepting.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            svc: RegistrationService::start(cfg),
            stop: AtomicBool::new(false),
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
                        let _ = serve_connection(stream, &shared);
                    })
                    .expect("spawn connection thread");
                let mut conns = conns.lock().unwrap();
                for ended in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = ended.join();
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn refusal(code: ErrorCode, message: impl ToString) -> Response {
    Response::Error { code, message: message.to_string() }
}

/// Run one connection to completion: the first frame must be a
/// version-compatible `Hello` (anything else is refused and the connection
/// dropped), then requests are answered until the peer closes or the stop
/// flag is seen on a read-timeout tick. A refused request goes back to the
/// client as a [`Response::Error`] and the connection stays up.
fn serve_connection(mut stream: TcpStream, shared: &NetShared) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(TICK))?;
    let mut greeted = false;
    loop {
        let bytes = match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(b) => b,
            Err(FrameError::Timeout) if !shared.stop.load(Ordering::SeqCst) => continue,
            Err(FrameError::Timeout | FrameError::Closed) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        // before the handshake every refusal also ends the connection
        let req = match decode_request(&bytes) {
            Ok(Request::Hello { protocol: theirs, .. })
                if !greeted && theirs != PROTOCOL_VERSION =>
            {
                let ours = PROTOCOL_VERSION;
                let message = format!("{SERVER_NAME} speaks protocol {ours}, client sent {theirs}");
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
        let svc = &shared.svc;
        let reply = match req {
            // re-greeting an open connection is harmless; re-acknowledge
            Request::Hello { .. } => {
                greeted = true;
                Response::Hello { protocol: PROTOCOL_VERSION, server: SERVER_NAME.to_string() }
            }
            Request::Submit { spec } => submit(svc, spec),
            Request::Status { id } => match svc.status(id) {
                Some(status) => Response::Status { id, status },
                None => unknown_job(id),
            },
            Request::Cancel { id } => Response::Cancelled { id, delivered: svc.cancel(id) },
            Request::Result { id } => match svc.wait(id) {
                Some(result) => Response::Result { result: RemoteJobResult::from_result(&result) },
                None => unknown_job(id),
            },
        };
        send(&mut stream, &reply)?;
    }
}

fn unknown_job(id: JobId) -> Response {
    refusal(ErrorCode::UnknownJob, format!("no job {id}"))
}

/// Admit a wire spec: its id, or the typed refusal.
fn submit(svc: &RegistrationService, spec: WireJobSpec) -> Response {
    let spec = match spec.into_spec() {
        Ok(spec) => spec,
        Err(e) => return refusal(ErrorCode::InvalidSpec, e),
    };
    match svc.try_submit(spec) {
        Ok(id) => Response::Submitted { id },
        Err(e) => {
            let code = match &e {
                SubmitError::QueueFull => ErrorCode::QueueFull,
                SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
                SubmitError::Invalid(_) => ErrorCode::InvalidSpec,
            };
            refusal(code, e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Poll `done` every few milliseconds for up to 10 s.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn closed_connections_are_joined_as_new_ones_arrive() {
        let mut srv = NetServer::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        // eight open connections: eight live threads
        let clients: Vec<_> =
            (0..8).map(|_| TcpStream::connect(srv.local_addr()).unwrap()).collect();
        eventually("8 accepts", || srv.conns.lock().unwrap().len() == 8);
        drop(clients);
        eventually("8 connection threads to end", || {
            srv.conns.lock().unwrap().iter().all(|h| h.is_finished())
        });
        let ninth = TcpStream::connect(srv.local_addr()).unwrap();
        eventually("the ninth accept", || srv.conns.lock().unwrap().len() != 8);
        assert!(srv.conns.lock().unwrap().len() <= 1, "ended connections still hold threads");
        drop(ninth);
        srv.shutdown();
    }
}
