//! Append-only crash-recovery journal (`.bgrj`).
//!
//! The coordinator's durability layer (DESIGN.md §15) logs every
//! applied slice result as one journal record; a killed coordinator
//! restarts, replays the journal against a freshly submitted queue, and
//! lands on the exact pre-crash state. The codec is built on
//! [`crate::codec`]: line-oriented text headers, byte-length-prefixed
//! payload blocks, per-record FNV-1a 64 checksums, and structured
//! [`ParseError`]s for every damage class.
//!
//! ```text
//! bgr-journal v1
//! record <kind> <payload-bytes> <fnv1a-hex>
//! <payload bytes>
//! record <kind> <payload-bytes> <fnv1a-hex>
//! <payload bytes>
//! ...
//! ```
//!
//! Crash tolerance is asymmetric by design: a **torn tail** (the
//! process died mid-append) is expected and tolerated — replay stops at
//! the last complete record and reports [`JournalTail::Truncated`] —
//! while damage *before* the tail (a flipped bit, an edited record) is
//! a structured error, never a silent partial replay.
//!
//! File creation uses the workspace's atomic-rename discipline (header
//! written to a sibling temp file, then renamed), so a concurrently
//! starting reader never observes a header-less journal.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{fnv1a, Reader};
use crate::error::ParseError;

/// Structured failure from the journal's write path.
///
/// Every way the storage medium can refuse bytes — out of space, a
/// short write, a failed flush, pre-existing damage — maps to one
/// variant, so callers can degrade deliberately (the coordinator drops
/// to journal-less operation and says so) instead of panicking or
/// pattern-matching on error strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The medium refused the write outright (ENOSPC, EIO, a revoked
    /// handle). `kind` preserves the OS classification.
    Io {
        /// The underlying [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The medium accepted only a prefix of the record. The journal
    /// file now ends in a torn tail — exactly the damage class
    /// [`read_journal`] tolerates, so everything before this record
    /// remains replayable.
    ShortWrite {
        /// Bytes the medium accepted.
        wrote: usize,
        /// Bytes the encoded record needed.
        want: usize,
    },
    /// Flushing buffered bytes to the medium failed; the record may or
    /// may not have reached storage.
    Sync {
        /// Human-readable detail.
        message: String,
    },
    /// `open_append` found a journal whose tail is torn mid-record.
    /// Appending after torn bytes would poison replay, so attach via
    /// [`JournalWriter::recover`] (which truncates the tail) instead.
    TornTail {
        /// Byte offset of the first torn byte.
        at: usize,
    },
    /// The file is not a bgr journal, or carries damage *before* the
    /// tail — corruption a crash cannot produce, never auto-repaired.
    Damaged {
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { kind, message } => write!(f, "journal write failed ({kind:?}): {message}"),
            Self::ShortWrite { wrote, want } => {
                write!(f, "journal short write: {wrote} of {want} bytes landed")
            }
            Self::Sync { message } => write!(f, "journal flush failed: {message}"),
            Self::TornTail { at } => {
                write!(
                    f,
                    "journal tail is torn at byte {at}; recover before appending"
                )
            }
            Self::Damaged { message } => write!(f, "journal is damaged: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The fallible-writer seam: where encoded journal records meet the
/// storage medium.
///
/// Production uses [`FileSink`]; tests and the chaos harness
/// (`bgr_net::chaos`) substitute fault-injecting sinks that run out of
/// space after N bytes or fail every K-th append, so every degradation
/// path is exercised without needing a genuinely full disk.
pub trait JournalSink: Send + std::fmt::Debug {
    /// Appends one fully encoded record. Implementations report partial
    /// acceptance as [`JournalError::ShortWrite`] so callers know the
    /// medium now ends in a torn (replayable) tail.
    fn append_record(&mut self, record: &[u8]) -> Result<(), JournalError>;
}

/// The production sink: an append-mode [`File`], flushed per record.
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Wraps an already append-positioned file.
    pub fn new(file: File) -> Self {
        Self { file }
    }
}

impl JournalSink for FileSink {
    fn append_record(&mut self, record: &[u8]) -> Result<(), JournalError> {
        let mut wrote = 0usize;
        while wrote < record.len() {
            match self.file.write(&record[wrote..]) {
                Ok(0) => {
                    return Err(JournalError::ShortWrite {
                        wrote,
                        want: record.len(),
                    })
                }
                Ok(n) => wrote += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if wrote > 0 => {
                    // Part of the record landed before the error: the
                    // file ends in a torn tail, which is the honest
                    // thing to report.
                    let _ = e;
                    return Err(JournalError::ShortWrite {
                        wrote,
                        want: record.len(),
                    });
                }
                Err(e) => {
                    return Err(JournalError::Io {
                        kind: e.kind(),
                        message: e.to_string(),
                    })
                }
            }
        }
        self.file.flush().map_err(|e| JournalError::Sync {
            message: e.to_string(),
        })
    }
}

/// First line of every journal file.
pub const JOURNAL_MAGIC: &str = "bgr-journal v1";

/// One replayable record: an opaque payload under a short kind tag
/// (the coordinator journals applied slice results as `result`
/// records whose payload is the wire `RESULT` message text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Record kind tag (no whitespace).
    pub kind: String,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// How the journal ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalTail {
    /// Every byte belonged to a complete record.
    Clean,
    /// The final record was torn mid-append (process death). Replay is
    /// valid up to the reported byte offset.
    Truncated {
        /// Byte offset of the first torn byte.
        at: usize,
    },
}

/// Serializes one record (header line + payload + newline).
pub fn encode_journal_record(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(
        format!("record {kind} {} {:016x}\n", payload.len(), fnv1a(payload)).as_bytes(),
    );
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Parses a journal byte-for-byte.
///
/// Returns the complete records plus a [`JournalTail`] describing
/// whether the file ended cleanly or mid-append.
///
/// # Errors
///
/// [`ParseError`] on a missing/foreign header, a malformed record
/// header line that is *not* the torn tail, a record kind containing
/// whitespace, or a payload checksum mismatch — the damage classes a
/// crash cannot produce.
pub fn read_journal(bytes: &[u8]) -> Result<(Vec<JournalEntry>, JournalTail), ParseError> {
    let mut r = Reader::new(bytes);
    let header = r.line()?;
    if header != JOURNAL_MAGIC {
        return Err(r.err(format!(
            "expected header {JOURNAL_MAGIC:?}, found {header:?}"
        )));
    }
    let mut entries = Vec::new();
    while !r.is_empty() {
        let at = r.offset();
        // No newline: a header line torn mid-write.
        let Some(line) = r.try_line()? else {
            return Ok((entries, JournalTail::Truncated { at }));
        };
        let fields: Vec<&str> = line.split(' ').collect();
        let ["record", kind, len, sum] = fields[..] else {
            return Err(r.err(format!("malformed record header {line:?}")));
        };
        let len: usize = r.parse("record length", len)?;
        let carried = u64::from_str_radix(sum, 16)
            .map_err(|_| r.err(format!("record checksum is not hex: {sum:?}")))?;
        if !r.has_block(len) {
            // Payload (or its trailing newline) torn mid-write. A
            // *lying* length is indistinguishable from a torn payload
            // without the checksum, and a torn payload is the expected
            // crash artifact — tolerate, stop here.
            return Ok((entries, JournalTail::Truncated { at }));
        }
        let line_no = r.line_no();
        let payload = r.block_bytes(len)?;
        let computed = fnv1a(payload);
        if computed != carried {
            return Err(ParseError::new(
                line_no,
                format!(
                    "record checksum mismatch: computed {computed:016x}, carried {carried:016x}"
                ),
            ));
        }
        entries.push(JournalEntry {
            kind: kind.to_string(),
            payload: payload.to_vec(),
        });
    }
    Ok((entries, JournalTail::Clean))
}

/// Append-only journal writer over a fallible [`JournalSink`].
///
/// [`JournalWriter::create`] writes the header via a sibling temp file
/// and an atomic rename (the `bgr-metrics` exporter discipline), then
/// reopens for append; [`JournalWriter::open_append`] attaches to an
/// existing journal whose tail is clean; [`JournalWriter::recover`]
/// replays an existing journal, truncates a torn tail, and attaches.
/// Each [`JournalWriter::append`] hands the sink the whole encoded
/// record in one call, so a process crash can tear at most the final
/// record — exactly the damage class [`read_journal`] tolerates.
///
/// Every failure is a structured [`JournalError`]; nothing in this
/// module panics on a full or broken disk.
#[derive(Debug)]
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    path: Option<PathBuf>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any previous one)
    /// and returns a writer positioned after the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let tmp = path.with_extension("bgrj.tmp");
        std::fs::write(&tmp, format!("{JOURNAL_MAGIC}\n")).map_err(io_err)?;
        std::fs::rename(&tmp, &path).map_err(io_err)?;
        Self::open_append(path)
    }

    /// Opens an existing journal for appending after verifying it is
    /// whole: correct header, no mid-file damage, clean tail. The
    /// caller is expected to have replayed it first ([`read_journal`]).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure,
    /// [`JournalError::Damaged`] when `path` is not a bgr journal or
    /// carries mid-file corruption, and [`JournalError::TornTail`] when
    /// the file ends mid-record — appending after torn bytes would make
    /// every later record unreadable, so use [`Self::recover`] instead.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path).map_err(io_err)?;
        let (_, tail) = read_journal(&bytes).map_err(|e| JournalError::Damaged {
            message: format!("{}: {e}", path.display()),
        })?;
        if let JournalTail::Truncated { at } = tail {
            return Err(JournalError::TornTail { at });
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Self {
            sink: Box::new(FileSink::new(file)),
            path: Some(path),
        })
    }

    /// Crash-recovery attach: replays `path`, truncates a torn tail
    /// (the expected kill-mid-append artifact) so appends land on a
    /// record boundary, and opens for append. Returns the replayable
    /// entries, how the file had ended, and the writer.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure,
    /// [`JournalError::Damaged`] on pre-tail corruption — damage a
    /// crash cannot produce is never silently repaired.
    pub fn recover(
        path: impl AsRef<Path>,
    ) -> Result<(Vec<JournalEntry>, JournalTail, Self), JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path).map_err(io_err)?;
        let (entries, tail) = read_journal(&bytes).map_err(|e| JournalError::Damaged {
            message: format!("{}: {e}", path.display()),
        })?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        if let JournalTail::Truncated { at } = tail {
            file.set_len(at as u64).map_err(io_err)?;
        }
        Ok((
            entries,
            tail,
            Self {
                sink: Box::new(FileSink::new(file)),
                path: Some(path),
            },
        ))
    }

    /// Builds a writer over an arbitrary sink (no backing path). This
    /// is the injection point for disk-fault testing: the chaos harness
    /// passes sinks that run out of space or tear records on demand.
    pub fn with_sink(sink: Box<dyn JournalSink>) -> Self {
        Self { sink, path: None }
    }

    /// Appends one record and flushes it to the OS, so the record
    /// survives a process kill (full power-loss durability would add an
    /// fsync per record; the coordinator's threat model is process
    /// death, where the kernel's page cache is enough).
    ///
    /// # Errors
    ///
    /// A structured [`JournalError`] from the sink. After a
    /// [`JournalError::ShortWrite`] the medium ends in a torn tail that
    /// [`read_journal`] replays up to; callers should stop appending
    /// and degrade (the coordinator drops its journal and counts it).
    pub fn append(&mut self, kind: &str, payload: &[u8]) -> Result<(), JournalError> {
        debug_assert!(
            !kind.contains(char::is_whitespace) && !kind.is_empty(),
            "record kinds are single tokens"
        );
        self.sink
            .append_record(&encode_journal_record(kind, payload))
    }

    /// The journal's path, when backed by a file.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io {
        kind: e.kind(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut bytes = format!("{JOURNAL_MAGIC}\n").into_bytes();
        bytes.extend_from_slice(&encode_journal_record("result", b"job 0\nslice 1\n"));
        bytes.extend_from_slice(&encode_journal_record("result", b"job 2\nslice 0\n"));
        bytes
    }

    #[test]
    fn round_trips_and_reports_a_clean_tail() {
        let (entries, tail) = read_journal(&sample()).unwrap();
        assert_eq!(tail, JournalTail::Clean);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, "result");
        assert_eq!(entries[0].payload, b"job 0\nslice 1\n");
        assert_eq!(entries[1].payload, b"job 2\nslice 0\n");
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_byte() {
        let bytes = sample();
        let full = read_journal(&bytes).unwrap().0;
        let first_record_end = format!("{JOURNAL_MAGIC}\n").len()
            + encode_journal_record("result", b"job 0\nslice 1\n").len();
        // Any truncation strictly inside the second record must replay
        // exactly the first and flag the tail.
        for cut in first_record_end + 1..bytes.len() {
            let (entries, tail) = read_journal(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: unexpected error {e}"));
            assert_eq!(entries.len(), 1, "cut at {cut}");
            assert_eq!(entries[0], full[0], "cut at {cut}");
            assert!(
                matches!(tail, JournalTail::Truncated { .. }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn mid_file_corruption_is_a_structured_error() {
        let mut bytes = sample();
        // Flip a payload byte of the *first* record: checksum mismatch,
        // not a tolerated tail.
        let off = format!("{JOURNAL_MAGIC}\n").len() + "record result 14 0000000000000000\n".len();
        bytes[off] ^= 0x40;
        let err = read_journal(&bytes).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn foreign_headers_and_garbage_are_rejected() {
        assert!(read_journal(b"").is_err());
        assert!(read_journal(b"bgr-journal v9\n").is_err());
        assert!(read_journal(b"bgr-checkpoint v1\n").is_err());
        let mut bytes = format!("{JOURNAL_MAGIC}\n").into_bytes();
        bytes.extend_from_slice(b"not a record\n");
        assert!(read_journal(&bytes).is_err());
        // Non-hex checksum field.
        let mut bytes = format!("{JOURNAL_MAGIC}\n").into_bytes();
        bytes.extend_from_slice(b"record result 1 zz\nx\n");
        assert!(read_journal(&bytes).is_err());
    }

    #[test]
    fn writer_creates_appends_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("bgr-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drain.bgrj");
        {
            let mut w = JournalWriter::create(&path).unwrap();
            w.append("result", b"first\n").unwrap();
        }
        {
            let bytes = std::fs::read(&path).unwrap();
            let (entries, tail) = read_journal(&bytes).unwrap();
            assert_eq!(tail, JournalTail::Clean);
            assert_eq!(entries.len(), 1);
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.append("result", b"second\n").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (entries, _) = read_journal(&bytes).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].payload, b"second\n");
        assert!(JournalWriter::open_append(dir.join("missing.bgrj")).is_err());
        std::fs::write(dir.join("foreign.txt"), "hello\n").unwrap();
        assert!(matches!(
            JournalWriter::open_append(dir.join("foreign.txt")),
            Err(JournalError::Damaged { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Test medium: accepts up to `capacity` record bytes, lands the
    /// prefix of the append that crosses the boundary (a short write),
    /// and reports ENOSPC for everything after.
    #[derive(Debug)]
    struct CappedDisk {
        bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        capacity: usize,
    }

    impl CappedDisk {
        fn new(capacity: usize) -> (Self, std::sync::Arc<std::sync::Mutex<Vec<u8>>>) {
            let bytes = std::sync::Arc::new(std::sync::Mutex::new(
                format!("{JOURNAL_MAGIC}\n").into_bytes(),
            ));
            (
                Self {
                    bytes: bytes.clone(),
                    capacity,
                },
                bytes,
            )
        }
    }

    impl JournalSink for CappedDisk {
        fn append_record(&mut self, record: &[u8]) -> Result<(), JournalError> {
            let mut disk = self.bytes.lock().unwrap();
            let used = disk.len() - format!("{JOURNAL_MAGIC}\n").len();
            let room = self.capacity.saturating_sub(used);
            if room == 0 {
                return Err(JournalError::Io {
                    kind: std::io::ErrorKind::StorageFull,
                    message: "no space left on device".into(),
                });
            }
            if room < record.len() {
                disk.extend_from_slice(&record[..room]);
                return Err(JournalError::ShortWrite {
                    wrote: room,
                    want: record.len(),
                });
            }
            disk.extend_from_slice(record);
            Ok(())
        }
    }

    #[test]
    fn enospc_mid_record_is_a_structured_error_with_a_replayable_prefix() {
        let first = encode_journal_record("result", b"job 0\nslice 1\n");
        let (disk, bytes) = CappedDisk::new(first.len()); // exactly one record fits
        let mut w = JournalWriter::with_sink(Box::new(disk));
        w.append("result", b"job 0\nslice 1\n").unwrap();
        let err = w.append("result", b"job 2\nslice 0\n").unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Io {
                    kind: std::io::ErrorKind::StorageFull,
                    ..
                }
            ),
            "{err}"
        );
        // Everything that landed before the disk filled still replays.
        let (entries, tail) = read_journal(&bytes.lock().unwrap()).unwrap();
        assert_eq!(tail, JournalTail::Clean);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"job 0\nslice 1\n");
    }

    #[test]
    fn short_write_at_the_checksum_boundary_leaves_a_replayable_tail() {
        let first = encode_journal_record("result", b"job 0\nslice 1\n");
        // Capacity lands mid-way through the second record's header
        // line — inside the checksum hex field.
        let cut = first.len() + "record result 14 01234567".len();
        let (disk, bytes) = CappedDisk::new(cut);
        let mut w = JournalWriter::with_sink(Box::new(disk));
        w.append("result", b"job 0\nslice 1\n").unwrap();
        let err = w.append("result", b"job 2\nslice 0\n").unwrap_err();
        assert!(matches!(err, JournalError::ShortWrite { .. }), "{err}");
        // The torn record costs exactly itself: replay keeps the first
        // record and flags the truncated tail, exactly like a crash.
        let (entries, tail) = read_journal(&bytes.lock().unwrap()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"job 0\nslice 1\n");
        assert!(matches!(tail, JournalTail::Truncated { .. }), "{tail:?}");
    }

    #[test]
    fn open_append_refuses_a_torn_tail_and_recover_repairs_it() {
        let dir = std::env::temp_dir().join(format!("bgr-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.bgrj");
        let mut bytes = sample();
        bytes.truncate(bytes.len() - 3); // tear the second record's tail
        std::fs::write(&path, &bytes).unwrap();

        // Structured refusal, never a panic: appending after torn bytes
        // would poison every later record.
        match JournalWriter::open_append(&path) {
            Err(JournalError::TornTail { at }) => {
                assert!(at > 0 && at < bytes.len(), "tear offset {at}")
            }
            other => panic!("expected TornTail, got {other:?}"),
        }

        // Recovery replays the intact prefix, truncates the tear, and
        // appends cleanly on a record boundary.
        let (entries, tail, mut w) = JournalWriter::recover(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(matches!(tail, JournalTail::Truncated { .. }));
        w.append("result", b"job 3\nslice 0\n").unwrap();
        let healed = std::fs::read(&path).unwrap();
        let (entries, tail) = read_journal(&healed).unwrap();
        assert_eq!(tail, JournalTail::Clean);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].payload, b"job 3\nslice 0\n");

        // Pre-tail damage is not a recoverable crash artifact.
        let mut damaged = sample();
        let off = format!("{JOURNAL_MAGIC}\n").len() + "record result 14 0000000000000000\n".len();
        damaged[off] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            JournalWriter::recover(&path),
            Err(JournalError::Damaged { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
