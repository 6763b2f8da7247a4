//! claire-serve: an in-process registration job service.
//!
//! The paper runs CLAIRE as a batch solver — one registration per
//! invocation. This crate runs many registrations on one machine on plain
//! std threads and channels; `claire-cli batch` drives it from a JSON
//! manifest:
//!
//! * **Typed jobs** — [`JobSpec`] (config + inputs + priority + deadline +
//!   hooks) in, [`JobResult`] (status + report + latency breakdown) out;
//! * **Bounded admission** — a capacity-limited priority queue;
//!   [`RegistrationService::try_submit`] rejects under overload (open-loop
//!   backpressure), [`RegistrationService::submit`] blocks (closed-loop);
//! * **One job, one solve** — a worker pops one job and runs it through
//!   [`Claire`](claire_core::Claire) on its share of the threads; its
//!   report carries that solve's kernel timers, GN trace and span tree;
//! * **Deadlines & cancellation** — armed on the job's
//!   [`CancelToken`](claire_core::CancelToken) at submission and polled by
//!   the solver at every Gauss–Newton iteration boundary.
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

pub mod job;
pub mod queue;
pub mod service;

pub use job::{JobId, JobInput, JobResult, JobSpec, JobStatus, Priority};
pub use queue::{BoundedQueue, PushError};
pub use service::{RegistrationService, ServiceConfig, SubmitError};
