//! The length-framed byte codec of the socket transport and the launcher.
//!
//! One frame is a 4-byte big-endian payload length followed by the payload:
//! the rank data messages, the bootstrap handshake and the worker→launcher
//! result frames all travel in it.
//!
//! Semantics the callers rely on:
//!
//! * the length prefix is validated against a cap *before* allocating, so a
//!   hostile or corrupt peer cannot trigger a huge allocation;
//! * a clean EOF on a frame boundary is [`FrameError::Closed`] while EOF
//!   mid-frame is [`FrameError::Truncated`] — connection shutdown and data
//!   corruption stay distinguishable;
//! * a read timeout before the first header byte is [`FrameError::Timeout`]
//!   (pollers use short socket timeouts as idle ticks); once any byte of a
//!   frame has arrived, timeouts keep retrying — the peer has promised the
//!   rest.

use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a frame payload (1 GiB), checked against the length
/// prefix before any allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Transport-level framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O error.
    Io(io::Error),
    /// Read timed out on a frame boundary (no header byte yet).
    Timeout,
    /// The peer closed the connection cleanly on a frame boundary.
    Closed,
    /// The connection ended mid-frame.
    Truncated {
        /// Bytes the frame promised.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The length prefix exceeds the configured cap.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// Cap it violated.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Timeout => write!(f, "frame read timed out"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "connection ended mid-frame ({got}/{expected} bytes)")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: 4-byte big-endian payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_parts(w, &[], payload)
}

/// Write one frame whose payload is `header` followed by `payload`: the
/// length prefix and both parts go out by `Write::write_vectored` straight
/// from their slices, never staged into one buffer, and a short write
/// resumes where it stopped. Every socket data message is sent this way.
pub fn write_frame_parts(
    w: &mut impl Write,
    header: &[u8],
    payload: &[u8],
) -> Result<(), FrameError> {
    let len = header.len() + payload.len();
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { len, max: MAX_FRAME_BYTES });
    }
    let prefix = (len as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(header), IoSlice::new(payload)];
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame's payload, enforcing `max` against the length prefix
/// *before* allocating.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_exactly(r, &mut header, true)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    read_exactly(r, &mut payload, false).map_err(|e| match e {
        // EOF between header and payload is still a truncated frame
        FrameError::Closed => FrameError::Truncated { expected: len, got: 0 },
        other => other,
    })?;
    Ok(payload)
}

/// Fill `buf` completely. With `at_boundary`, a clean EOF or timeout at
/// byte 0 is reported as `Closed`/`Timeout`; once any byte has arrived the
/// frame is committed and only `Truncated`/`Io` can result.
fn read_exactly(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && at_boundary {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { expected: buf.len(), got }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if got == 0 && at_boundary {
                    return Err(FrameError::Timeout);
                }
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, MAX_FRAME_BYTES), Err(FrameError::Closed)));
    }

    #[test]
    fn parts_concatenate_into_one_frame() {
        let mut staged = Vec::new();
        write_frame(&mut staged, b"headerpayload").unwrap();
        let mut parted = Vec::new();
        write_frame_parts(&mut parted, b"header", b"payload").unwrap();
        assert_eq!(staged, parted);
    }

    /// A writer that takes at most 3 bytes per call, so every slice
    /// boundary is crossed by a short write.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let mut whole = Vec::new();
        write_frame_parts(&mut whole, b"head", b"payload!").unwrap();
        let mut trickle = Trickle(Vec::new());
        write_frame_parts(&mut trickle, b"head", b"payload!").unwrap();
        assert_eq!(trickle.0, whole);
        let mut r = &whole[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"headpayload!");
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::TooLarge { len, max: 1024 }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let cut = &buf[..buf.len() - 2];
        let mut r = cut;
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::Truncated { expected: 5, got: 3 })
        ));
        // a header cut short is a truncation too, not a clean hang-up
        let mut r = &buf[..2];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::Truncated { expected: 4, got: 2 })
        ));
    }

    /// `len` bytes drawn from `seed` (SplitMix64).
    fn bytes_of(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                ((z ^ (z >> 27)) >> 56) as u8
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Whatever bytes arrive, a frame read gives a payload of at most
        /// `max` bytes or a typed error — never a panic — and a written
        /// payload reads back. Half the cases announce a short length, so
        /// whole frames, truncations and oversize headers all occur.
        #[test]
        fn any_bytes_read_as_a_bounded_payload_or_a_typed_error(
            seed in 0u64..u64::MAX,
            len in 0usize..48,
            max in 0usize..40,
        ) {
            let mut bytes = bytes_of(seed, len);
            if seed % 2 == 0 && len >= 4 {
                let announced = (seed >> 8) as u32 % 48;
                bytes[..4].copy_from_slice(&announced.to_be_bytes());
            }
            let mut r = &bytes[..];
            loop {
                match read_frame(&mut r, max) {
                    Ok(payload) => proptest::prop_assert!(payload.len() <= max),
                    Err(FrameError::Closed) => break,
                    Err(FrameError::TooLarge { len, max: cap }) => {
                        proptest::prop_assert!(cap == max && len > max);
                        break;
                    }
                    Err(FrameError::Truncated { expected, got }) => {
                        proptest::prop_assert!(got < expected);
                        break;
                    }
                    Err(e) => proptest::prop_assert!(false, "untyped failure on a byte slice: {e}"),
                }
            }

            let mut framed = Vec::new();
            write_frame(&mut framed, &bytes).unwrap();
            let mut r = &framed[..];
            match read_frame(&mut r, max) {
                Ok(back) => proptest::prop_assert!(back == bytes && len <= max),
                Err(FrameError::TooLarge { len: got, .. }) => {
                    proptest::prop_assert!(got == len && len > max)
                }
                Err(e) => proptest::prop_assert!(false, "a written frame failed to read: {e}"),
            }
        }
    }
}
