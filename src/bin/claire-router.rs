//! `claire-router` — shard claire-serve submissions across worker servers.
//!
//! ```bash
//! claire-router --listen ADDR --worker ADDR [--worker ADDR ...] [-q]
//! ```
//!
//! Listens on `--listen` speaking the ordinary claire-serve wire protocol
//! and forwards every request to one of the `--worker` servers, placing
//! submissions by consistent-hashing their solver fingerprint (grid +
//! solver config): jobs that could coalesce into one batch land on the
//! same worker, so worker-local batch scheduling keeps finding peers.
//! Identity fields (label, tenant, priority) never move a job.
//!
//! A worker that stops answering (transport error after one reconnect
//! attempt) is marked dead; its in-flight jobs are re-submitted to the
//! next alive worker on the ring when their results are claimed, and new
//! work routes around it. Because the router speaks the same protocol on
//! both sides, `claire-cli submit --addr <router>` works unchanged — and
//! routers can front other routers.
//!
//! Exit codes: 0 clean shutdown, 2 usage, 6 bind failure.

use std::io::{self, Write as _};
use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use claire::serve::server::serve_connection;
use claire::serve::wire::MAX_FRAME_BYTES;
use claire::serve::Router;

fn usage() -> ! {
    eprintln!("usage: claire-router --listen ADDR --worker ADDR [--worker ADDR ...] [-q]");
    exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut listen: Option<String> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().or_else(|| usage()),
            "--worker" => workers.push(args.next().unwrap_or_else(|| usage())),
            "-q" => quiet = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage()
            }
        }
    }
    let listen = listen.unwrap_or_else(|| usage());
    if workers.is_empty() {
        usage()
    }

    let router = Arc::new(Router::new(&workers).unwrap_or_else(|e| {
        eprintln!("claire-router: {e}");
        exit(2)
    }));
    let listener = TcpListener::bind(&listen[..]).unwrap_or_else(|e| {
        eprintln!("claire-router: cannot bind {listen}: {e}");
        exit(6)
    });
    let local = listener.local_addr().expect("bound listener has an address");
    println!("claire-router listening on {local} over {} worker(s)", workers.len());
    io::stdout().flush().ok();
    if !quiet {
        for w in router.backend_addrs() {
            eprintln!("  worker {w}");
        }
    }
    serve(listener, router)
}

/// Accept until killed, one thread per client, every connection through the
/// loop a claire-serve worker runs.
fn serve(listener: TcpListener, router: Arc<Router>) {
    static RUN_UNTIL_KILLED: AtomicBool = AtomicBool::new(false);
    for stream in listener.incoming() {
        match stream {
            Ok(conn) => {
                let router = Arc::clone(&router);
                thread::spawn(move || {
                    let name = "claire-router";
                    let _ =
                        serve_connection(conn, &*router, name, MAX_FRAME_BYTES, &RUN_UNTIL_KILLED);
                });
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire::serve::wire::{
        decode_response, encode, read_frame, write_frame, ErrorCode, WireError, PROTOCOL_VERSION,
    };
    use claire::serve::{JobId, NetServer, NetServerConfig, Request, Response};
    use std::net::{SocketAddr, TcpStream};

    /// How `addr` refuses `first` as the first frame of a connection: the
    /// code, the message (under the worker's name) and whether it hung up.
    fn refusal_of(addr: SocketAddr, first: &[u8]) -> (ErrorCode, String, bool) {
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, first).unwrap();
        let reply = decode_response(&read_frame(&mut conn, MAX_FRAME_BYTES).unwrap()).unwrap();
        let Response::Error { code, message } = reply else {
            panic!("expected a refusal, got {reply:?}");
        };
        let hung_up = matches!(read_frame(&mut conn, MAX_FRAME_BYTES), Err(WireError::Closed));
        (code, message.replace("claire-router", "claire-serve"), hung_up)
    }

    /// The router used to run its own copy of the handshake, which answered
    /// a malformed first frame with `unsupported`.
    #[test]
    fn a_bad_first_frame_is_refused_as_a_worker_refuses_it() {
        let mut worker = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let routed = listener.local_addr().unwrap();
        let router = Arc::new(Router::new(&[worker.local_addr().to_string()]).unwrap());
        thread::spawn(move || serve(listener, router));

        let bad_version = Request::Hello { protocol: PROTOCOL_VERSION + 1, client: "t".into() };
        for (first, code) in [
            (encode(&bad_version), ErrorCode::VersionMismatch),
            (encode(&Request::Status { id: JobId::from_u64(1) }), ErrorCode::Unsupported),
            (b"{\"type\":".to_vec(), ErrorCode::Malformed),
        ] {
            let at_worker = refusal_of(worker.local_addr(), &first);
            assert_eq!((at_worker.0, at_worker.2), (code, true), "{}", at_worker.1);
            assert_eq!(refusal_of(routed, &first), at_worker);
        }
        worker.shutdown();
    }
}
