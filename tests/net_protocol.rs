//! Wire-protocol tests for the networked claire-serve front door: garbage
//! in a frame decodes to a typed error, every envelope survives an
//! encode/decode round trip (images bitwise), and a version-mismatched
//! client is refused by a real server with a typed error before any job
//! state is touched, as is a synthetic grid too large to allocate. The
//! framing itself is `claire::ipc::frame`'s, tested there.

use std::io::Cursor;

use claire::core::{PrecondKind, RegistrationConfig};
use claire::grid::Real;
use claire::ipc::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use claire::ipc::FrameError;
use claire::serve::wire::{decode_request, decode_response, encode, send};
use claire::serve::{
    Client, ErrorCode, JobId, JobStatus, NetServer, Priority, Request, Response, ServiceConfig,
    WireError, WireInput, WireJobSpec, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn round_trip_request(req: &Request) {
    let mut buf = Vec::new();
    send(&mut buf, req).expect("send to Vec");
    let payload = read_frame(&mut Cursor::new(&buf), MAX_FRAME_BYTES).expect("read own frame");
    let back = decode_request(&payload).expect("decode own request");
    assert_eq!(&back, req);
}

fn round_trip_response(resp: &Response) {
    let back = decode_response(&encode(resp)).expect("decode own response");
    assert_eq!(&back, resp);
}

fn sample_spec(input: WireInput) -> WireJobSpec {
    WireJobSpec {
        label: "round-trip".into(),
        config: RegistrationConfig {
            nt: 2,
            max_gn_iter: 3,
            max_pcg_iter: 4,
            continuation: false,
            precond: PrecondKind::InvA,
            verbose: false,
            ..Default::default()
        },
        input,
        priority: Priority::High,
        deadline_ms: Some(1234),
    }
}

#[test]
fn every_request_variant_round_trips() {
    let id = JobId::from_u64(42);
    for req in [
        Request::Hello { protocol: PROTOCOL_VERSION, client: "test".into() },
        Request::Submit { spec: sample_spec(WireInput::Synthetic { n: [8, 6, 4] }) },
        Request::Status { id },
        Request::Cancel { id },
        Request::Result { id },
    ] {
        round_trip_request(&req);
    }
}

#[test]
fn every_response_variant_round_trips() {
    let id = JobId::from_u64(7);
    for resp in [
        Response::Hello { protocol: PROTOCOL_VERSION, server: "test".into() },
        Response::Submitted { id },
        Response::Status { id, status: JobStatus::Running },
        Response::Cancelled { id, delivered: false },
        Response::Error { code: ErrorCode::QueueFull, message: "slow down".into() },
    ] {
        round_trip_response(&resp);
    }
}

#[test]
fn framing_errors_are_typed() {
    // garbage payloads decode to typed errors (Malformed for non-schema
    // bytes, Protocol for a well-formed frame with an unknown type tag)
    for garbage in [&b"not json"[..], b"{\"type\":\"warp_core\"}", b"[1,2,3]", b"{}"] {
        let mut buf = Vec::new();
        write_frame(&mut buf, garbage).unwrap();
        let payload = read_frame(&mut Cursor::new(&buf), MAX_FRAME_BYTES).unwrap();
        match decode_request(&payload) {
            Err(WireError::Malformed(_)) | Err(WireError::Protocol(_)) => {}
            other => panic!("expected a typed decode error for {garbage:?}, got {other:?}"),
        }
    }
}

/// A protocol-2 peer (which still sends `tenant` and reads `cached`), a
/// protocol-4 one (which reads the result's separate `report`), a newer one, a first frame that is not `Hello` and one that does not
/// decode are each refused with a typed error and the connection closed,
/// before any job state is touched.
#[test]
fn version_mismatch_is_refused_by_a_live_server() {
    let mut server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default().workers(1)).expect("bind");
    let hello = |theirs| {
        let frame = encode(&Request::Hello { protocol: theirs, client: "old or new".into() });
        let names = format!("protocol {PROTOCOL_VERSION}, client sent {theirs}");
        (frame, ErrorCode::VersionMismatch, names)
    };
    let status = encode(&Request::Status { id: JobId::from_u64(1) });
    for (first, code, names) in [
        hello(2),
        hello(4),
        hello(PROTOCOL_VERSION + 1),
        (status, ErrorCode::Unsupported, "first frame must be Hello".into()),
        (b"{\"type\":".to_vec(), ErrorCode::Malformed, String::new()),
    ] {
        let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut conn, &first).expect("send first frame");
        let payload = read_frame(&mut conn, MAX_FRAME_BYTES).expect("refusal frame");
        match decode_response(&payload).expect("typed refusal") {
            Response::Error { code: got, message } if got == code => {
                assert!(message.contains(&names), "{code:?}: {message}");
            }
            other => panic!("expected a {code:?} error, got {other:?}"),
        }
        // the server closes the connection after the refusal
        match read_frame(&mut conn, MAX_FRAME_BYTES) {
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
            other => panic!("{code:?}: expected the connection to be closed, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A synthetic grid no machine can hold is refused at admission; had it
/// reached a worker, the failed allocation would abort the whole server.
#[test]
fn oversized_synthetic_grid_is_refused_and_the_server_lives_on() {
    let mut server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default().workers(1)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.submit(&sample_spec(WireInput::Synthetic { n: [200_000; 3] })) {
        Err(WireError::Remote { code: ErrorCode::InvalidSpec, message }) => {
            assert!(message.contains("grid"), "{message}");
        }
        other => panic!("expected an InvalidSpec refusal, got {other:?}"),
    }
    let small =
        WireJobSpec { deadline_ms: None, ..sample_spec(WireInput::Synthetic { n: [8; 3] }) };
    let admitted = client.submit(&small).expect("submit after the refusal");
    let done = client.wait(admitted).expect("wait");
    assert_eq!(done.status, JobStatus::Succeeded);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pair images with arbitrary finite samples survive the wire bitwise,
    /// and the envelope stays equal under encode/decode.
    #[test]
    fn pair_submissions_round_trip_bitwise(
        n1 in 2usize..5, n2 in 2usize..5, n3 in 2usize..5, seed in 0u64..1000
    ) {
        let n = [n1, n2, n3];
        let len = n1 * n2 * n3;
        // deterministic pseudo-random samples spanning magnitudes and signs
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            ((u - 0.5) * 2e6) as Real
        };
        let template: Vec<Real> = (0..len).map(|_| next()).collect();
        let reference: Vec<Real> = (0..len).map(|_| next()).collect();
        let spec = sample_spec(WireInput::Pair {
            n,
            template: template.clone(),
            reference: reference.clone(),
        });
        let req = Request::Submit { spec };
        let back = decode_request(&encode(&req)).expect("decode");
        let Request::Submit { spec: got } = back else { panic!("wrong variant") };
        let WireInput::Pair { template: t2, reference: r2, .. } = &got.input else {
            panic!("wrong input variant")
        };
        for (a, b) in template.iter().zip(t2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in reference.iter().zip(r2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // and the rehydrated JobSpec carries the same samples
        let job = got.into_spec().expect("valid spec");
        let claire::serve::JobInput::Pair { template: tf, .. } = &job.input else {
            panic!("wrong job input")
        };
        for (a, b) in template.iter().zip(tf.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Arbitrary byte soup never panics the frame reader or the decoders.
    #[test]
    fn arbitrary_bytes_never_panic(len in 0usize..64, seed in 0u64..5000) {
        let mut state = seed.wrapping_add(0xfeed);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(97);
                (state >> 32) as u8
            })
            .collect();
        let _ = read_frame(&mut Cursor::new(&bytes), 1 << 16);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}
