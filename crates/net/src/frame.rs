//! Length-prefixed, checksummed, versioned frames over a byte stream.
//!
//! Every `bgr-net` message travels as one frame:
//!
//! ```text
//! +------+---------+------+---------+----------------+------------+
//! | MAGIC| version | kind |  length |    payload     | FNV-1a 64  |
//! | 4 B  |  u16 LE | u8   |  u32 LE | `length` bytes |   u64 LE   |
//! +------+---------+------+---------+----------------+------------+
//! ```
//!
//! The checksum ([`bgr_io::codec::fnv1a`]) covers everything before it
//! (magic through payload), so a flipped bit anywhere in the frame is
//! caught. Decoding never panics: every malformed input maps to a
//! structured [`FrameError`] (asserted exhaustively by
//! `tests/frame_robustness.rs`, mirroring the checkpoint codec's damage
//! tests).

use std::fmt;
use std::io::{Read, Write};

use bgr_io::codec::fnv1a;

/// Frame preamble: identifies a `bgr-net` byte stream.
pub const MAGIC: [u8; 4] = *b"BGRW";

/// Wire protocol version. Bumped on any incompatible change; peers
/// exchange it in the HELLO/WELCOME handshake and refuse skew.
///
/// v2: HELLO carries an optional auth token, WELCOME carries the
/// coordinator's heartbeat cadence.
pub const PROTO_VERSION: u16 = 2;

/// Hard ceiling on a frame's payload length. Checkpoints for realistic
/// designs are a few MB of text; 256 MB rejects length-field corruption
/// without constraining real traffic.
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// Bytes of overhead around a payload (magic + version + kind + length
/// + checksum).
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;
const TRAILER_LEN: usize = 8;

/// A decoded frame: message kind byte plus raw payload. Interpretation
/// of the payload is the `proto` module's job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind discriminant (see `proto::Message::kind`).
    pub kind: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame failed to decode. Every variant is reachable by damaging
/// a valid frame; none of them panics the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-frame.
    Truncated {
        /// What was being read when the bytes ran out.
        at: &'static str,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// Version in the frame.
        got: u16,
        /// Version this build speaks ([`PROTO_VERSION`]).
        want: u16,
    },
    /// The payload length field exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// The claimed length.
        len: u32,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u64,
        /// Checksum carried by the frame.
        carried: u64,
    },
    /// An underlying I/O error (message of the `std::io::Error`).
    Io {
        /// The I/O error's message.
        message: String,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { at } => write!(f, "frame truncated while reading {at}"),
            Self::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            Self::VersionSkew { got, want } => {
                write!(f, "protocol version skew: peer v{got}, local v{want}")
            }
            Self::Oversize { len } => {
                write!(f, "frame payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            Self::ChecksumMismatch { computed, carried } => write!(
                f,
                "frame checksum mismatch: computed {computed:#018x}, carried {carried:#018x}"
            ),
            Self::Io { message } => write!(f, "frame i/o error: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated { at: "stream" }
        } else {
            Self::Io {
                message: e.to_string(),
            }
        }
    }
}

/// Serializes one frame to bytes (magic, version, kind, length,
/// payload, checksum).
///
/// # Panics
///
/// Panics when `payload` exceeds [`MAX_PAYLOAD`]: every peer would
/// reject such a frame as `Oversize`, and past `u32::MAX` the length
/// field could not even represent it (the `as u32` cast would truncate,
/// emitting a corrupt frame). [`write_frame`] checks first and returns
/// the cap violation as a structured error instead.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload length {} exceeds cap {MAX_PAYLOAD}",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes one frame from the front of `buf`. Returns the frame and
/// how many bytes it consumed, so callers can decode back-to-back
/// frames from one buffer.
///
/// # Errors
///
/// Structured [`FrameError`] on truncation, bad magic, version skew, an
/// oversize length field or a checksum mismatch. Never panics.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated { at: "magic" });
    }
    if buf[..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&buf[..4]);
        return Err(FrameError::BadMagic { found });
    }
    if buf.len() < 6 {
        return Err(FrameError::Truncated { at: "version" });
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PROTO_VERSION {
        return Err(FrameError::VersionSkew {
            got: version,
            want: PROTO_VERSION,
        });
    }
    if buf.len() < 7 {
        return Err(FrameError::Truncated { at: "kind" });
    }
    let kind = buf[6];
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated { at: "length" });
    }
    let len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if buf.len() < HEADER_LEN + len as usize {
        return Err(FrameError::Truncated { at: "payload" });
    }
    if buf.len() < total {
        return Err(FrameError::Truncated { at: "checksum" });
    }
    let body = &buf[..HEADER_LEN + len as usize];
    let computed = fnv1a(body);
    let carried = u64::from_le_bytes(
        buf[HEADER_LEN + len as usize..total]
            .try_into()
            .expect("eight checksum bytes"),
    );
    if computed != carried {
        return Err(FrameError::ChecksumMismatch { computed, carried });
    }
    Ok((
        Frame {
            kind,
            payload: body[HEADER_LEN..].to_vec(),
        },
        total,
    ))
}

/// Writes one frame to `w` and flushes.
///
/// # Errors
///
/// [`FrameError::Oversize`] when `payload` exceeds [`MAX_PAYLOAD`]
/// (mirroring the decode-side cap, with nothing written to `w`),
/// [`FrameError::Io`] on a write failure.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversize {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
        });
    }
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame from `r`.
///
/// Reads the fixed header first, then the payload and checksum the
/// header promises — so a well-behaved peer's frames are consumed
/// exactly, with no read-ahead into the next frame.
///
/// # Errors
///
/// Structured [`FrameError`]; a cleanly closed stream surfaces as
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[..4]);
        return Err(FrameError::BadMagic { found });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTO_VERSION {
        return Err(FrameError::VersionSkew {
            got: version,
            want: PROTO_VERSION,
        });
    }
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    let mut rest = vec![0u8; len as usize + TRAILER_LEN];
    r.read_exact(&mut rest)?;
    let mut body = header.to_vec();
    body.extend_from_slice(&rest[..len as usize]);
    let computed = fnv1a(&body);
    let carried = u64::from_le_bytes(
        rest[len as usize..]
            .try_into()
            .expect("eight checksum bytes"),
    );
    if computed != carried {
        return Err(FrameError::ChecksumMismatch { computed, carried });
    }
    Ok(Frame {
        kind: header[6],
        payload: rest[..len as usize].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_bytes_and_streams() {
        for (kind, payload) in [
            (1u8, b"".to_vec()),
            (4, b"hello lease".to_vec()),
            (6, vec![0u8; 70_000]),
        ] {
            let bytes = encode_frame(kind, &payload);
            let (frame, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
            let mut cursor = std::io::Cursor::new(&bytes);
            let frame = read_frame(&mut cursor).unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn oversize_payloads_are_refused_at_encode_time() {
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, 1, &payload).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversize { len } if len == MAX_PAYLOAD + 1),
            "{err:?}"
        );
        assert!(sink.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut wire = encode_frame(3, b"");
        wire.extend_from_slice(&encode_frame(4, b"next"));
        let (first, used) = decode_frame(&wire).unwrap();
        assert_eq!(first.kind, 3);
        let (second, _) = decode_frame(&wire[used..]).unwrap();
        assert_eq!(second.payload, b"next");
    }
}
