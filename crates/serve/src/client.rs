//! Blocking TCP client for a [`NetServer`](crate::server::NetServer).
//!
//! [`Client::connect`] performs the `Hello` handshake (refusing servers
//! that speak a different [`PROTOCOL_VERSION`]) and then exposes the
//! request envelope as plain methods: [`Client::submit`],
//! [`Client::status`], [`Client::cancel`] and [`Client::wait`]. One
//! `Client` is one connection; requests on it are strictly sequential
//! (submit many jobs first, then wait on each — the server executes them
//! concurrently regardless).

use std::net::{TcpStream, ToSocketAddrs};

use claire_ipc::frame::{read_frame, MAX_FRAME_BYTES};

use crate::job::{JobId, JobStatus};
use crate::wire::{
    decode_response, send, ErrorCode, RemoteJobResult, Request, Response, WireError, WireJobSpec,
    PROTOCOL_VERSION,
};

/// A blocking connection to a claire-serve network server.
pub struct Client {
    stream: TcpStream,
    /// Server identification from the handshake.
    server: String,
}

impl Client {
    /// Connect and perform the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client { stream, server: String::new() };
        client.send(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "claire-client".to_string(),
        })?;
        match client.recv()? {
            Response::Hello { protocol, server } if protocol == PROTOCOL_VERSION => {
                client.server = server;
                Ok(client)
            }
            Response::Hello { protocol, .. } => {
                Err(WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: protocol })
            }
            Response::Error { code: ErrorCode::VersionMismatch, message } => {
                Err(WireError::Protocol(message))
            }
            other => Err(WireError::Protocol(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// Server identification string from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Submit a job; returns its id.
    pub fn submit(&mut self, spec: &WireJobSpec) -> Result<JobId, WireError> {
        self.send(&Request::Submit { spec: spec.clone() })?;
        match self.recv()? {
            Response::Submitted { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Query a job's lifecycle status.
    pub fn status(&mut self, id: JobId) -> Result<JobStatus, WireError> {
        self.send(&Request::Status { id })?;
        match self.recv()? {
            Response::Status { id: got, status } if got == id => Ok(status),
            other => Err(unexpected(other)),
        }
    }

    /// Request cancellation; returns whether a live job was reached.
    pub fn cancel(&mut self, id: JobId) -> Result<bool, WireError> {
        self.send(&Request::Cancel { id })?;
        match self.recv()? {
            Response::Cancelled { id: got, delivered } if got == id => Ok(delivered),
            other => Err(unexpected(other)),
        }
    }

    /// Block until the job is terminal and fetch its full result.
    pub fn wait(&mut self, id: JobId) -> Result<RemoteJobResult, WireError> {
        self.send(&Request::Result { id })?;
        match self.recv()? {
            Response::Result { result } => Ok(result),
            other => Err(unexpected(other)),
        }
    }

    fn send<T: serde::Serialize + ?Sized>(&mut self, msg: &T) -> Result<(), WireError> {
        send(&mut self.stream, msg)
    }

    /// Receive one response, surfacing server-side `Error` frames as
    /// [`WireError::Remote`].
    fn recv(&mut self) -> Result<Response, WireError> {
        match decode_response(&read_frame(&mut self.stream, MAX_FRAME_BYTES)?)? {
            Response::Error { code, message } => Err(WireError::Remote { code, message }),
            resp => Ok(resp),
        }
    }
}

fn unexpected(resp: Response) -> WireError {
    WireError::Protocol(format!("unexpected response: {resp:?}"))
}
