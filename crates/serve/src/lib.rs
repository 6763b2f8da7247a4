//! claire-serve: a multi-tenant registration job service, in-process or
//! over TCP.
//!
//! The paper runs CLAIRE as a batch solver — one registration per
//! invocation. Real deployments (clinical pipelines, atlas construction,
//! the paper's §1 "registering hundreds of images" motivation) need many
//! registrations multiplexed over machines. This crate provides that layer
//! on plain std threads, channels, and sockets:
//!
//! * **Typed jobs** — [`JobSpec`] (config + inputs + priority + deadline +
//!   hooks) in, [`JobResult`] (status + reports + latency breakdown) out;
//! * **Bounded admission** — a capacity-limited priority queue;
//!   [`RegistrationService::try_submit`] rejects under overload (open-loop
//!   backpressure), [`RegistrationService::submit`] blocks (closed-loop);
//! * **Deadlines & cancellation** — armed on the job's
//!   [`CancelToken`](claire_core::CancelToken) at submission and polled by
//!   the solver at every Gauss–Newton iteration boundary;
//! * **Result cache & quotas** — a content-hash [`cache`] that serves
//!   repeated identical registrations without solving, and per-tenant
//!   token-bucket [`quota`]s checked at admission;
//! * **Networking** — [`server::NetServer`] puts the service behind a
//!   length-framed, versioned JSON protocol ([`wire`]); [`client::Client`]
//!   is the matching blocking client; [`router::Router`] shards jobs
//!   across several servers by consistent-hashing the solver fingerprint
//!   so batch coalescing keeps working fleet-wide.
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

pub mod cache;
pub mod client;
pub mod job;
pub mod queue;
pub mod quota;
pub mod router;
pub mod server;
pub mod wire;

pub use cache::ResultCacheStats;
pub use client::{Client, RemoteAdmission};
pub use job::{JobId, JobInput, JobResult, JobSpec, JobStatus, ParseJobIdError, Priority};
pub use queue::{BoundedQueue, PushError};
pub use quota::QuotaConfig;
pub use router::Router;
pub use server::{
    Admission, NetServer, NetServerConfig, RegistrationService, ServiceConfig, SubmitError,
};
pub use wire::{
    ErrorCode, RemoteJobResult, Request, Response, StreamEvent, WireError, WireInput, WireJobSpec,
    PROTOCOL_VERSION,
};
