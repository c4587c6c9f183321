//! Wire robustness: damaged frames and payloads must surface as
//! structured errors — [`FrameError`] from the frame codec or
//! [`ProtoError`] from the message layer — and **never** as a panic,
//! mirroring the checkpoint codec's damage tests (DESIGN.md §15).
//!
//! Covered here:
//!
//! - truncation at *every* byte boundary of a realistic frame →
//!   `FrameError::Truncated` (both the buffer and the stream decoder);
//! - single-byte corruption at *every* position → some structured
//!   error, and checksum coverage of the whole frame body;
//! - version skew → `FrameError::VersionSkew` naming both versions;
//! - length-field lies (oversize, overflow-adjacent values) →
//!   `Oversize`/`Truncated`, bounded allocation;
//! - unknown message kinds and schema violations inside a valid frame
//!   (bad keys, non-numeric fields, lying block lengths, trailing
//!   bytes, junk stage labels) → `ProtoError`;
//! - random byte soup thrown at both decoders → never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgr_net::{
    decode_frame, encode_frame, read_frame, Frame, FrameError, Message, ProtoError, MAX_PAYLOAD,
    PROTO_VERSION,
};
use bgr_serve::{FinishVerdict, SliceOutcome};

/// A realistic frame: a RESULT carrying a suspended outcome with
/// multi-line text blocks, as a worker would send it.
fn sample_frame_bytes() -> Vec<u8> {
    let msg = Message::Result {
        job: 2,
        slice: 5,
        outcome: SliceOutcome::Suspended {
            checkpoint: "bgr-checkpoint v1\nconfig 4 2\nstage improve_delay\n".into(),
            stage: "improve_delay",
            events_emitted: 321,
            selections_done: 87,
            events_jsonl: "{\"type\":\"event\",\"seq\":320,\"kind\":\"select\"}\n".into(),
        },
    };
    encode_frame(msg.kind(), &msg.encode_payload())
}

/// Asserts the buffer decoder errors structurally — and, via
/// `catch_unwind`, that it does not panic either.
fn assert_decode_rejects(bytes: &[u8], what: &str) -> FrameError {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode_frame(bytes).map(|_| ())));
    match outcome {
        Ok(Err(e)) => e,
        Ok(Ok(())) => panic!("{what}: damaged frame decoded cleanly"),
        Err(_) => panic!("{what}: decoder panicked instead of erroring"),
    }
}

#[test]
fn truncation_at_every_byte_never_panics_and_always_errors() {
    let bytes = sample_frame_bytes();
    for cut in 0..bytes.len() {
        let e = assert_decode_rejects(&bytes[..cut], &format!("cut at byte {cut}"));
        assert!(
            matches!(e, FrameError::Truncated { .. }),
            "cut at {cut}: expected Truncated, got {e:?}"
        );
        // The stream decoder must agree with the buffer decoder.
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        let outcome = catch_unwind(AssertUnwindSafe(|| read_frame(&mut cursor).map(|_| ())));
        match outcome {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("stream cut at {cut}: decoded cleanly"),
            Err(_) => panic!("stream cut at {cut}: panicked"),
        }
    }
}

#[test]
fn single_byte_corruption_at_every_position_is_caught() {
    let bytes = sample_frame_bytes();
    for pos in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x41;
        let e = assert_decode_rejects(&damaged, &format!("flip at byte {pos}"));
        // Whatever the error, it must be one of the codec's structured
        // variants — most positions land on ChecksumMismatch, header
        // positions on their specific variant.
        match e {
            FrameError::BadMagic { .. }
            | FrameError::VersionSkew { .. }
            | FrameError::Oversize { .. }
            | FrameError::Truncated { .. }
            | FrameError::ChecksumMismatch { .. } => {}
            other => panic!("flip at {pos}: unstructured error {other:?}"),
        }
    }
}

#[test]
fn version_skew_is_named_before_payload_is_touched() {
    let mut bytes = sample_frame_bytes();
    bytes[4] = 0xFE;
    bytes[5] = 0xCA;
    let e = assert_decode_rejects(&bytes, "version skew");
    assert_eq!(
        e,
        FrameError::VersionSkew {
            got: 0xCAFE,
            want: PROTO_VERSION
        }
    );
    assert!(e.to_string().contains("skew"), "{e}");
}

#[test]
fn length_field_lies_are_bounded() {
    let mut bytes = sample_frame_bytes();
    // Claim a payload just past the cap: must reject by the length
    // check alone, without attempting the giant allocation.
    let lie = (MAX_PAYLOAD + 1).to_le_bytes();
    bytes[7..11].copy_from_slice(&lie);
    let e = assert_decode_rejects(&bytes, "oversize length");
    assert_eq!(
        e,
        FrameError::Oversize {
            len: MAX_PAYLOAD + 1
        }
    );
    // u32::MAX likewise.
    bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    let e = assert_decode_rejects(&bytes, "u32::MAX length");
    assert!(matches!(e, FrameError::Oversize { .. }), "{e:?}");
    // An in-cap lie larger than the actual payload truncates.
    let mut bytes = sample_frame_bytes();
    let real = u32::from_le_bytes(bytes[7..11].try_into().unwrap());
    bytes[7..11].copy_from_slice(&(real + 1000).to_le_bytes());
    let e = assert_decode_rejects(&bytes, "inflated length");
    assert!(matches!(e, FrameError::Truncated { .. }), "{e:?}");
}

#[test]
fn unknown_kinds_and_schema_violations_error_structurally() {
    // Unknown kind byte in an otherwise pristine frame.
    let frame = Frame {
        kind: 200,
        payload: Vec::new(),
    };
    assert!(matches!(
        Message::decode(&frame),
        Err(ProtoError::UnknownKind { kind: 200 })
    ));
    // Schema violations inside valid frames: each damaged payload must
    // produce Malformed, never a panic.
    let damaged_payloads: &[(&str, Vec<u8>)] = &[
        ("wrong key", b"jub 1\nslice 2\n".to_vec()),
        ("non-numeric field", b"job one\nslice 2\n".to_vec()),
        ("missing newline", b"job 1".to_vec()),
        ("non-utf8 line", vec![0xFF, 0xFE, b'\n']),
        ("empty payload for keyed message", Vec::new()),
    ];
    for (what, payload) in damaged_payloads {
        let frame = Frame {
            kind: 7, // Heartbeat: expects `job`, `slice`
            payload: payload.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| Message::decode(&frame).map(|_| ())));
        match outcome {
            Ok(Err(ProtoError::Malformed { .. })) => {}
            Ok(Err(e)) => panic!("{what}: wrong error {e:?}"),
            Ok(Ok(())) => panic!("{what}: damaged payload decoded cleanly"),
            Err(_) => panic!("{what}: decoder panicked"),
        }
    }
}

#[test]
fn lying_block_lengths_and_junk_stages_are_rejected() {
    // A RESULT whose checkpoint block claims more bytes than follow.
    let msg = Message::Result {
        job: 0,
        slice: 0,
        outcome: SliceOutcome::Failed {
            error: bgr_core::RouteError::Internal {
                phase: "remote",
                message: "x".into(),
            },
        },
    };
    let mut payload = msg.encode_payload();
    // The `message` block header is `message 1\n`; inflate the length.
    let text = String::from_utf8(payload.clone()).unwrap();
    let lied = text.replace("message 1\n", "message 900\n");
    assert_ne!(text, lied, "fixture must actually lie");
    payload = lied.into_bytes();
    let frame = Frame { kind: 6, payload };
    assert!(matches!(
        Message::decode(&frame),
        Err(ProtoError::Malformed { .. })
    ));
    // A suspended RESULT whose stage label names no stage a suspended
    // session parks at is refused at decode.
    let (mut frame, _) = decode_frame(&sample_frame_bytes()).unwrap();
    let text = String::from_utf8(frame.payload).unwrap();
    let junk = text.replace(
        "stage improve_delay\nevents",
        "stage improvize_delay\nevents",
    );
    assert_ne!(text, junk, "fixture must carry a stage line");
    frame.payload = junk.into_bytes();
    assert!(matches!(
        Message::decode(&frame),
        Err(ProtoError::Malformed { .. })
    ));
    // Trailing bytes after a structurally complete message.
    let mut payload = Message::Bye.encode_payload();
    payload.push(b'!');
    let frame = Frame { kind: 10, payload };
    assert!(matches!(
        Message::decode(&frame),
        Err(ProtoError::Malformed { .. })
    ));
}

#[test]
fn verdict_payload_damage_is_rejected_field_by_field() {
    let msg = Message::Result {
        job: 1,
        slice: 9,
        outcome: SliceOutcome::Finished {
            events_emitted: 10,
            selections_done: 3,
            events_jsonl: String::new(),
            verdict: FinishVerdict {
                audit_clean: true,
                audit_checks: 7,
                audit_line: "audit clean: 7 checks".into(),
                violations_line: None,
                feasible: true,
                worst_margin_ps: 12.5,
                area_tracks: 9,
                total_length_um: 100.0,
            },
        },
    };
    let text = String::from_utf8(msg.encode_payload()).unwrap();
    for (what, from, to) in [
        ("bool field", "audit_clean true", "audit_clean yes"),
        ("hex float", "worst_margin_ps 4029", "worst_margin_ps zz29"),
        ("violations marker", "violations none", "violations maybe"),
        ("outcome tag", "outcome finished", "outcome finnished"),
    ] {
        let damaged = text.replacen(from, to, 1);
        assert_ne!(text, damaged, "{what}: fixture must change the payload");
        let frame = Frame {
            kind: 6,
            payload: damaged.into_bytes(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| Message::decode(&frame).map(|_| ())));
        match outcome {
            Ok(Err(ProtoError::Malformed { .. })) => {}
            Ok(Err(e)) => panic!("{what}: wrong error {e:?}"),
            Ok(Ok(())) => panic!("{what}: damaged verdict decoded cleanly"),
            Err(_) => panic!("{what}: decoder panicked"),
        }
    }
}

#[test]
fn random_byte_soup_never_panics_either_decoder() {
    // Deterministic xorshift* soup — no RNG dependency, reproducible.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..200 {
        let len = (next() % 512) as usize;
        let mut soup: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
        // Half the rounds get a valid magic so deeper paths are hit.
        if round % 2 == 0 && soup.len() >= 4 {
            soup[..4].copy_from_slice(b"BGRW");
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = decode_frame(&soup);
            let mut cursor = std::io::Cursor::new(&soup);
            let _ = read_frame(&mut cursor);
        }));
        assert!(outcome.is_ok(), "round {round}: decoder panicked on soup");
    }
}
