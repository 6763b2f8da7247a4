//! End-to-end tests of the networked claire-serve stack: a TCP-submitted
//! job returns the same registration (bitwise on every summary field but
//! the label and the wall-clock seconds) as an in-process run of the
//! identical spec, and a cancel sent over the wire reaches a queued job.
//!
//! Jobs are tiny synthetic problems (8³, nt = 2, ≤ 2 GN iterations) so the
//! whole file stays fast on a single-core host.

use claire::core::{PrecondKind, RegistrationConfig, RegistrationReport};
use claire::serve::{
    Client, JobInput, JobSpec, JobStatus, NetServer, RegistrationService, ServiceConfig,
    WireJobSpec,
};
use serde::Value;

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
/// so every summary field except the label and the wall-clock `time_*`
/// seconds must match bitwise between two solves of the same spec — in
/// particular across the wire. The comparison is of the reports with those
/// fields cleared, so a field added to the summary is covered without
/// touching this test.
fn assert_reports_bitwise_equal(a: &RegistrationReport, b: &RegistrationReport) {
    let deterministic = |r: &RegistrationReport| RegistrationReport {
        data: String::new(),
        time_pc: 0.0,
        time_obj: 0.0,
        time_grad: 0.0,
        time_hess: 0.0,
        time_total: 0.0,
        ..r.clone()
    };
    let (a, b) = (deterministic(a), deterministic(b));
    // f64 fields compare by bits: `==` would let a 0.0 pass for a −0.0
    let bits = |r: &RegistrationReport| {
        [r.rel_mismatch, r.grad_rel, r.inner_cg_avg, r.jac_det_min, r.jac_det_max].map(f64::to_bits)
    };
    assert_eq!(bits(&a), bits(&b), "a floating-point summary field drifted");
    assert_eq!(a, b);
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

    let a = local.run.expect("local report").summary;
    let remote = remote.run.expect("remote report");
    let b: RegistrationReport = serde::field(&remote, "summary").expect("remote summary");
    assert_eq!((a.data.as_str(), b.data.as_str()), ("local", "remote"));
    assert_reports_bitwise_equal(&a, &b);
    // the run document holds the row once, as its summary
    let Value::Object(pairs) = &remote else { panic!("the run is a JSON object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, claire::obs::report::SCHEMA_KEYS);
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
