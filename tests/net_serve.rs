//! End-to-end tests of the networked claire-serve stack: a TCP-submitted
//! job returns the same registration (bitwise on the deterministic report
//! fields) as an in-process run of the identical spec, and a cancel sent
//! over the wire reaches a queued job.
//!
//! Jobs are tiny synthetic problems (8³, nt = 2, ≤ 2 GN iterations) so the
//! whole file stays fast on a single-core host.

use claire::core::{PrecondKind, RegistrationConfig, RegistrationReport};
use claire::serve::{
    Client, JobInput, JobSpec, JobStatus, NetServer, RegistrationService, ServiceConfig,
    WireJobSpec,
};

fn tiny_config() -> RegistrationConfig {
    RegistrationConfig {
        nt: 2,
        max_gn_iter: 2,
        max_pcg_iter: 4,
        continuation: false,
        precond: PrecondKind::InvA,
        verbose: false,
        ..Default::default()
    }
}

fn tiny_spec(label: &str) -> JobSpec {
    JobSpec::new(label, tiny_config(), JobInput::Synthetic { n: [8, 8, 8] })
}

fn boot(cfg: ServiceConfig) -> (NetServer, Client) {
    let server = NetServer::bind("127.0.0.1:0", cfg).expect("bind loopback server");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

/// The registration arithmetic is deterministic (one reduction order, DESIGN §6),
/// so everything except wall-clock timings must match bitwise between two
/// solves of the same spec — in particular across the wire.
fn assert_reports_bitwise_equal(a: &RegistrationReport, b: &RegistrationReport) {
    assert_eq!(a.grid, b.grid);
    assert_eq!(a.nt, b.nt);
    assert_eq!((a.gn_iters, a.pcg_iters), (b.gn_iters, b.pcg_iters));
    assert_eq!((a.n_inva, a.n_invh0, a.inner_cg_total), (b.n_inva, b.n_invh0, b.inner_cg_total));
    assert_eq!(a.rel_mismatch.to_bits(), b.rel_mismatch.to_bits(), "rel_mismatch drifted");
    assert_eq!(a.grad_rel.to_bits(), b.grad_rel.to_bits(), "grad_rel drifted");
    assert_eq!(a.jac_det_min.to_bits(), b.jac_det_min.to_bits(), "jac_det_min drifted");
    assert_eq!(a.jac_det_max.to_bits(), b.jac_det_max.to_bits(), "jac_det_max drifted");
    assert_eq!(a.memory_bytes_per_rank, b.memory_bytes_per_rank);
}

#[test]
fn tcp_submission_matches_in_process_bitwise() {
    // in-process reference
    let mut svc = RegistrationService::start(ServiceConfig::default().workers(1));
    let id = svc.submit(tiny_spec("local")).expect("local admission");
    let local = svc.wait(id).expect("local job known");
    assert_eq!(local.status, JobStatus::Succeeded, "{:?}", local.error);
    svc.shutdown();

    // the same spec over TCP
    let (mut server, mut client) = boot(ServiceConfig::default().workers(1));
    let wire = WireJobSpec::from_spec(&tiny_spec("remote"));
    let id = client.submit(&wire).expect("remote admission");
    let remote = client.wait(id).expect("remote result");
    assert_eq!(remote.status, JobStatus::Succeeded, "{:?}", remote.error);
    server.shutdown();

    let a = local.report.expect("local report");
    let b = remote.report.expect("remote report");
    assert_reports_bitwise_equal(&a, &b);
}

#[test]
fn cancel_over_the_wire_reaches_a_queued_job() {
    // zero workers is not possible; use one worker busy with a first job so
    // the second stays queued long enough to cancel deterministically — the
    // first job is itself tiny, so worst case the cancel just races and we
    // only assert the protocol round trip.
    let (mut server, mut client) = boot(ServiceConfig::default().workers(1).queue_capacity(8));
    let first = client.submit(&WireJobSpec::from_spec(&tiny_spec("busy"))).expect("first");
    let second = client.submit(&WireJobSpec::from_spec(&tiny_spec("doomed"))).expect("second");
    let delivered = client.cancel(second).expect("cancel round trip");
    let res = client.wait(second).expect("terminal result");
    if delivered && res.status == JobStatus::Cancelled {
        assert!(res.error.is_some(), "cancelled results carry a reason");
    } else {
        // the race went the other way: the job ran to completion
        assert_eq!(res.status, JobStatus::Succeeded);
    }
    assert_eq!(client.wait(first).expect("first result").status, JobStatus::Succeeded);
    server.shutdown();
}
