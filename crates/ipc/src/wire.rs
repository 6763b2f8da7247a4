//! Binary codecs for the socket transport's frames.
//!
//! Every frame travels through [`crate::frame`]'s 4-byte-BE length framing.
//! The first payload byte is a kind discriminator:
//!
//! | kind | frame                | direction                        |
//! |------|----------------------|----------------------------------|
//! | 1    | rank data message    | rank ↔ rank                      |
//! | 2    | `Hello` handshake    | connecting rank → accepting rank |
//! | 3    | `Welcome` release    | rank 0 → every other rank        |
//! | 4    | per-rank RunReport   | worker process → launcher        |
//! | 5    | per-rank failure     | worker process → launcher        |
//!
//! The data-message header is fixed 16 bytes (kind, reserved, category,
//! reserved, `src: u32`, `tag: u64`) followed by the raw payload; integers
//! are big-endian like the frame length.

use claire_mpi::{CommCat, Message, Payload, Topology};

/// Protocol magic for the bootstrap handshake ("CLIP" — CLaire IPc).
pub const IPC_MAGIC: u32 = 0x434c_4950;
/// Version of the rank-to-rank protocol; bumped on any layout change.
pub const IPC_VERSION: u32 = 2;

/// Size of the encoded data-message header (after the frame length).
pub const MSG_HEADER_BYTES: usize = 16;

const KIND_MSG: u8 = 1;
const KIND_HELLO: u8 = 2;
const KIND_WELCOME: u8 = 3;
const KIND_REPORT: u8 = 4;
const KIND_FAILURE: u8 = 5;

/// A decode failure: the peer sent bytes that are not a valid frame of the
/// expected kind (version skew or corruption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ipc decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes(buf[off..off + 4].try_into().unwrap())
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_be_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Encode a data message's fixed header. The payload follows it verbatim in
/// the same frame (see [`crate::frame::write_frame_parts`]).
pub fn encode_msg_header(msg: &Message) -> [u8; MSG_HEADER_BYTES] {
    let mut h = [0u8; MSG_HEADER_BYTES];
    h[0] = KIND_MSG;
    // h[1], h[3] reserved
    h[2] = msg.cat.index() as u8;
    h[4..8].copy_from_slice(&(msg.src as u32).to_be_bytes());
    h[8..16].copy_from_slice(&msg.tag.to_be_bytes());
    h
}

/// Decode one data-message frame (header + payload) back into a [`Message`].
pub fn decode_msg(frame: &[u8]) -> Result<Message, DecodeError> {
    if frame.len() < MSG_HEADER_BYTES {
        return Err(DecodeError(format!("message frame too short: {} bytes", frame.len())));
    }
    if frame[0] != KIND_MSG {
        return Err(DecodeError(format!("expected data message, got kind {}", frame[0])));
    }
    let cat = CommCat::from_index(frame[2] as usize)
        .ok_or_else(|| DecodeError(format!("unknown traffic category {}", frame[2])))?;
    Ok(Message {
        src: u32_at(frame, 4) as usize,
        tag: u64_at(frame, 8),
        cat,
        payload: Payload::Bytes(frame[MSG_HEADER_BYTES..].to_vec()),
    })
}

/// The handshake a connecting rank opens every peer stream with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting rank's id.
    pub rank: usize,
    /// Cluster shape the rank was launched with; every rank must agree.
    pub topo: Topology,
}

/// Encode a [`Hello`] frame payload.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    buf.push(KIND_HELLO);
    buf.extend_from_slice(&[0, 0, 0]); // pad to word boundary
    buf.extend_from_slice(&IPC_MAGIC.to_be_bytes());
    buf.extend_from_slice(&IPC_VERSION.to_be_bytes());
    buf.extend_from_slice(&(h.rank as u32).to_be_bytes());
    buf.extend_from_slice(&(h.topo.nranks as u32).to_be_bytes());
    buf.extend_from_slice(&(h.topo.gpus_per_node as u32).to_be_bytes());
    buf
}

/// Decode and validate a [`Hello`] frame payload.
pub fn decode_hello(frame: &[u8]) -> Result<Hello, DecodeError> {
    if frame.len() != 24 || frame[0] != KIND_HELLO {
        return Err(DecodeError("malformed hello frame".into()));
    }
    if u32_at(frame, 4) != IPC_MAGIC {
        return Err(DecodeError("bad magic: peer is not a claire rank".into()));
    }
    let version = u32_at(frame, 8);
    if version != IPC_VERSION {
        return Err(DecodeError(format!(
            "ipc protocol version mismatch: peer speaks v{version}, this rank v{IPC_VERSION}"
        )));
    }
    let nranks = u32_at(frame, 16) as usize;
    let gpus = u32_at(frame, 20) as usize;
    if nranks == 0 || gpus == 0 {
        return Err(DecodeError("hello carries an empty topology".into()));
    }
    Ok(Hello { rank: u32_at(frame, 12) as usize, topo: Topology::new(nranks, gpus) })
}

/// Encode rank 0's release message: the rendezvous is complete and every
/// rank agreed on the topology.
pub fn encode_welcome(topo: &Topology) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.push(KIND_WELCOME);
    buf.extend_from_slice(&[0, 0, 0]);
    buf.extend_from_slice(&IPC_VERSION.to_be_bytes());
    buf.extend_from_slice(&(topo.nranks as u32).to_be_bytes());
    buf.extend_from_slice(&(topo.gpus_per_node as u32).to_be_bytes());
    buf
}

/// Decode a welcome frame, returning the agreed topology.
pub fn decode_welcome(frame: &[u8]) -> Result<Topology, DecodeError> {
    if frame.len() != 16 || frame[0] != KIND_WELCOME {
        return Err(DecodeError("malformed welcome frame".into()));
    }
    if u32_at(frame, 4) != IPC_VERSION {
        return Err(DecodeError("welcome version mismatch".into()));
    }
    Ok(Topology::new(u32_at(frame, 8) as usize, u32_at(frame, 12) as usize))
}

/// What one worker process sends the launcher when it finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// The rank completed; payload is its serialized RunReport.
    Report {
        /// Reporting rank.
        rank: usize,
        /// RunReport JSON.
        json: String,
    },
    /// The rank failed in-band (solver error rather than process death).
    Failure {
        /// Failing rank.
        rank: usize,
        /// Failure description.
        message: String,
    },
}

/// Encode a worker's final frame to the launcher.
pub fn encode_worker_frame(f: &WorkerFrame) -> Vec<u8> {
    let (kind, rank, body) = match f {
        WorkerFrame::Report { rank, json } => (KIND_REPORT, *rank, json.as_bytes()),
        WorkerFrame::Failure { rank, message } => (KIND_FAILURE, *rank, message.as_bytes()),
    };
    let mut buf = Vec::with_capacity(8 + body.len());
    buf.push(kind);
    buf.extend_from_slice(&[0, 0, 0]);
    buf.extend_from_slice(&(rank as u32).to_be_bytes());
    buf.extend_from_slice(body);
    buf
}

/// Decode a worker's final frame.
pub fn decode_worker_frame(frame: &[u8]) -> Result<WorkerFrame, DecodeError> {
    if frame.len() < 8 {
        return Err(DecodeError("worker frame too short".into()));
    }
    let rank = u32_at(frame, 4) as usize;
    let body = String::from_utf8(frame[8..].to_vec())
        .map_err(|_| DecodeError("worker frame body is not UTF-8".into()))?;
    match frame[0] {
        KIND_REPORT => Ok(WorkerFrame::Report { rank, json: body }),
        KIND_FAILURE => Ok(WorkerFrame::Failure { rank, message: body }),
        k => Err(DecodeError(format!("unexpected worker frame kind {k}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_header_round_trip() {
        let msg = Message {
            src: 3,
            tag: u64::MAX - 6,
            cat: CommCat::FftTranspose,
            payload: Payload::Bytes(vec![9, 8, 7]),
        };
        let mut frame = encode_msg_header(&msg).to_vec();
        assert_eq!(frame.len(), 16);
        // one byte short of a header is refused, an empty payload is not
        assert!(decode_msg(&frame[..15]).unwrap_err().0.contains("too short"));
        assert!(decode_msg(&frame).unwrap().payload.bytes().is_empty());
        frame.extend_from_slice(msg.payload.bytes());
        let back = decode_msg(&frame).unwrap();
        assert_eq!(back.src, 3);
        assert_eq!(back.tag, u64::MAX - 6);
        assert_eq!(back.cat, CommCat::FftTranspose);
        assert_eq!(back.payload.bytes(), &[9, 8, 7]);
    }

    #[test]
    fn hello_welcome_round_trip() {
        let h = Hello { rank: 2, topo: Topology::new(4, 2) };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);
        let t = Topology::new(3, 4);
        assert_eq!(decode_welcome(&encode_welcome(&t)).unwrap(), t);
    }

    #[test]
    fn version_skew_is_typed() {
        // a rank of the previous protocol (24-byte data headers) says so in
        // its hello and is refused before any data frame is misread
        let mut frame = encode_hello(&Hello { rank: 0, topo: Topology::solo() });
        frame[8..12].copy_from_slice(&1u32.to_be_bytes());
        let err = decode_hello(&frame).unwrap_err();
        assert!(err.0.contains("peer speaks v1, this rank v2"), "{err}");
    }

    #[test]
    fn worker_frames_round_trip() {
        let r = WorkerFrame::Report { rank: 1, json: "{\"label\":\"x\"}".into() };
        assert_eq!(decode_worker_frame(&encode_worker_frame(&r)).unwrap(), r);
        let f = WorkerFrame::Failure { rank: 2, message: "solver blew up".into() };
        assert_eq!(decode_worker_frame(&encode_worker_frame(&f)).unwrap(), f);
    }
}
