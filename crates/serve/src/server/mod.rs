//! Server half of the claire-serve split.
//!
//! [`service`] is the in-process engine — worker pool, bounded priority
//! queue, one job per worker at a time. [`net`] puts that engine behind a TCP listener
//! speaking the versioned frame protocol in [`crate::wire`], so remote
//! [`crate::client::Client`]s can submit work.

pub mod net;
pub mod service;

pub use net::NetServer;
pub use service::{RegistrationService, ServiceConfig, SubmitError};
