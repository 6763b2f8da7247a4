//! claire-serve: a registration job service, in-process or over TCP.
//!
//! The paper runs CLAIRE as a batch solver — one registration per
//! invocation. This crate runs many registrations on one machine on plain
//! std threads, channels, and sockets:
//!
//! * **Typed jobs** — [`JobSpec`] (config + inputs + priority + deadline +
//!   hooks) in, [`JobResult`] (status + reports + latency breakdown) out;
//! * **Bounded admission** — a capacity-limited priority queue;
//!   [`RegistrationService::try_submit`] rejects under overload (open-loop
//!   backpressure), [`RegistrationService::submit`] blocks (closed-loop);
//! * **One job, one solve** — a worker pops one job and runs it through
//!   [`Claire`](claire_core::Claire) on its share of the threads; its
//!   report carries that solve's kernel timers, GN trace and span tree;
//! * **Deadlines & cancellation** — armed on the job's
//!   [`CancelToken`](claire_core::CancelToken) at submission and polled by
//!   the solver at every Gauss–Newton iteration boundary;
//! * **Networking** — [`server::NetServer`] puts the service behind a
//!   length-framed, versioned JSON protocol ([`wire`]) answering `Hello`,
//!   `Submit`, `Status`, `Cancel` and `Result`; [`client::Client`] is the
//!   matching blocking client.
//!
//! The crate splits server from client: embed
//! [`server::RegistrationService`] (or [`server::NetServer`]) in a daemon;
//! link only [`client::Client`] + [`wire`] types in tools that submit.
//!
//! ```no_run
//! use claire_serve::{JobInput, JobSpec, RegistrationService, ServiceConfig};
//! let cfg = claire_core::RegistrationConfig::default();
//! let mut svc = RegistrationService::start(ServiceConfig::default().workers(2));
//! let id = svc
//!     .submit(JobSpec::new("syn-64", cfg, JobInput::Synthetic { n: [64, 64, 64] }))
//!     .expect("admission");
//! let result = svc.wait(id).expect("known job");
//! println!("{}: {}", result.label, result.status);
//! svc.shutdown();
//! ```

pub mod client;
pub mod job;
pub mod queue;
pub mod server;
pub mod wire;

pub use client::Client;
pub use job::{JobId, JobInput, JobResult, JobSpec, JobStatus, ParseJobIdError, Priority};
pub use queue::{BoundedQueue, PushError};
pub use server::{NetServer, RegistrationService, ServiceConfig, SubmitError};
pub use wire::{
    ErrorCode, RemoteJobResult, Request, Response, WireError, WireInput, WireJobSpec,
    PROTOCOL_VERSION,
};
