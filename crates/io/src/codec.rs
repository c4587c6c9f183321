//! The byte-level conventions every `bgr` text codec shares.
//!
//! Checkpoints (`.bgrc`), `bgr-net` wire payloads and the crash journal
//! (`.bgrj`) are line-oriented text built from the same few rules, and
//! this module is their only home:
//!
//! * **FNV-1a 64** ([`fnv1a`]) — the integrity hash of journal records
//!   and wire frames;
//! * **floats as bits** ([`f64_hex`] / [`parse_f64_hex`]) — `to_bits`
//!   in hex, so every float round-trips bit-exactly;
//! * **`key value` lines** ([`Reader::get`] and friends) — every line
//!   ends in `\n`; a final line without one is truncation;
//! * **length-prefixed blocks** ([`put_block`] / [`Reader::block`]) —
//!   `key <bytes>\n<body>\n`, how multi-line text nests in a document,
//!   with an overflow-safe length check and a checked terminator;
//! * **no trailing bytes** ([`Reader::finish`]).
//!
//! Every reader method fails with a [`ParseError`] at the line it was
//! reading; running out of input reports the line after the last one
//! read. Nothing here panics on arbitrary input.

use std::fmt::Display;
use std::str::FromStr;

use crate::error::ParseError;

/// FNV-1a 64 over `bytes`: an unseeded byte fold, stable across
/// platforms. Catches accidents (torn writes, flipped bits, edited
/// files); it is not an authenticator.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `v` as its `to_bits`, in 16 zero-padded hex digits.
pub fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The inverse of [`f64_hex`]; any hex that fits 64 bits, padded or not.
pub fn parse_f64_hex(raw: &str) -> Option<f64> {
    u64::from_str_radix(raw, 16).ok().map(f64::from_bits)
}

/// `Some(n)` as `n`, `None` as `none`: how optional counts are written.
pub fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "none".to_owned(), |n| n.to_string())
}

/// Appends the line `key value\n`.
pub fn put_line(out: &mut Vec<u8>, key: &str, value: impl Display) {
    out.extend_from_slice(format!("{key} {value}\n").as_bytes());
}

/// Appends the block `key <bytes>\n<body>\n`.
pub fn put_block(out: &mut Vec<u8>, key: &str, body: &str) {
    put_line(out, key, body.len());
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
}

/// Sequential reader over `\n`-terminated lines and length-prefixed
/// blocks, counting lines for its errors.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            line: 0,
        }
    }

    /// 1-based number of the last line read (0 before the first).
    pub(crate) fn line_no(&self) -> usize {
        self.line
    }

    /// Bytes consumed so far.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// A [`ParseError`] at the last line read.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, message)
    }

    /// A [`ParseError`] at the line after the last one read.
    fn err_next(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line + 1, message)
    }

    fn utf8(&self, bytes: &'a [u8], what: &str) -> Result<&'a str, ParseError> {
        std::str::from_utf8(bytes).map_err(|_| self.err(format!("{what} is not utf-8")))
    }

    /// The next line, or `None` when no `\n` is left; a torn,
    /// unterminated tail stays unconsumed.
    pub(crate) fn try_line(&mut self) -> Result<Option<&'a str>, ParseError> {
        let rest = &self.bytes[self.pos..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        self.pos += nl + 1;
        self.line += 1;
        self.utf8(&rest[..nl], "line").map(Some)
    }

    /// The next line; running out of input is an error.
    pub(crate) fn line(&mut self) -> Result<&'a str, ParseError> {
        self.try_line()?
            .ok_or_else(|| self.err_next("unexpected end of input"))
    }

    /// The value of the next line, which must read `key value` (`key`
    /// may itself hold spaces, as in `config threads`).
    pub fn value(&mut self, key: &str) -> Result<&'a str, ParseError> {
        let line = self.line()?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected `{key} ...`, got {line:?}")))
    }

    /// Parses `raw`, a token of the current line that `what` names.
    pub(crate) fn parse<T: FromStr>(&self, what: &str, raw: &str) -> Result<T, ParseError> {
        raw.parse()
            .map_err(|_| self.err(format!("{what}: bad value {raw:?}")))
    }

    /// The value of a `key value` line, parsed.
    pub fn get<T: FromStr>(&mut self, key: &str) -> Result<T, ParseError> {
        let raw = self.value(key)?;
        self.parse(key, raw)
    }

    /// The value of a `key value` line written by [`opt_u64`].
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, ParseError> {
        match self.value(key)? {
            "none" => Ok(None),
            raw => self.parse(key, raw).map(Some),
        }
    }

    /// Parses `raw`, an [`f64_hex`] token of the current line.
    pub(crate) fn f64_token(&self, what: &str, raw: &str) -> Result<f64, ParseError> {
        parse_f64_hex(raw).ok_or_else(|| self.err(format!("{what}: bad f64 bits {raw:?}")))
    }

    /// The value of a `key value` line written by [`f64_hex`].
    pub fn f64_bits(&mut self, key: &str) -> Result<f64, ParseError> {
        let raw = self.value(key)?;
        self.f64_token(key, raw)
    }

    /// Whether a `len`-byte block body and its `\n` fit in the rest of
    /// the input. Safe for any `len`, `usize::MAX` included.
    pub(crate) fn has_block(&self, len: usize) -> bool {
        self.bytes.len() - self.pos > len
    }

    /// A `len`-byte block body and its `\n` terminator.
    pub(crate) fn block_bytes(&mut self, len: usize) -> Result<&'a [u8], ParseError> {
        if !self.has_block(len) {
            let have = self.bytes.len() - self.pos;
            return Err(self.err_next(format!("block of {len} bytes truncated ({have} left)")));
        }
        let body = &self.bytes[self.pos..self.pos + len];
        if self.bytes[self.pos + len] != b'\n' {
            return Err(self.err("block missing its terminator"));
        }
        self.pos += len + 1;
        self.line += body.iter().filter(|&&b| b == b'\n').count() + 1;
        Ok(body)
    }

    /// A block written by [`put_block`].
    pub fn block(&mut self, key: &str) -> Result<&'a str, ParseError> {
        let len = self.get(key)?;
        let body = self.block_bytes(len)?;
        self.utf8(body, key)
    }

    /// Ends the read: no byte may follow the last field.
    pub fn finish(self) -> Result<(), ParseError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(self.err_next(format!("{n} trailing bytes after the end"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_pinned_vectors() {
        // A changed algorithm would silently orphan every journal on
        // disk.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"net n0"), fnv1a(b"net n1"));
    }

    #[test]
    fn f64_hex_round_trips_bit_exactly() {
        let payload_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for v in [-0.0, f64::MIN_POSITIVE / 2.0, payload_nan, f64::INFINITY] {
            let hex = f64_hex(v);
            assert_eq!(hex.len(), 16, "{hex}");
            assert_eq!(parse_f64_hex(&hex).unwrap().to_bits(), v.to_bits());
        }
        // Unpadded hex (the older wire form) reads the same bits.
        assert_eq!(parse_f64_hex("0").unwrap().to_bits(), 0);
        assert_eq!(parse_f64_hex("4029").unwrap().to_bits(), 0x4029);
        assert!(parse_f64_hex("zz").is_none());
        assert!(parse_f64_hex("1ffffffffffffffff").is_none());
    }

    #[test]
    fn lines_values_and_blocks_round_trip() {
        let mut out = Vec::new();
        put_line(&mut out, "job", 7);
        put_line(&mut out, "quota", opt_u64(None));
        put_line(&mut out, "margin", f64_hex(-1.5));
        put_block(&mut out, "text", "two\nlines");
        put_line(&mut out, "after", true);
        let mut r = Reader::new(&out);
        assert_eq!(r.get::<u64>("job").unwrap(), 7);
        assert_eq!(r.opt_u64("quota").unwrap(), None);
        assert_eq!(r.f64_bits("margin").unwrap().to_bits(), (-1.5f64).to_bits());
        assert_eq!(r.block("text").unwrap(), "two\nlines");
        // The block's header and its two body lines count as lines.
        assert_eq!(r.line_no(), 6);
        assert!(r.get::<bool>("after").unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn errors_carry_the_line() {
        let mut r = Reader::new(b"job 1\nslice x\n");
        r.get::<u64>("job").unwrap();
        let err = r.get::<u64>("slice").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        let err = r.line().unwrap_err();
        assert_eq!(err.line, 3, "end of input is the line after the last");
        let err = Reader::new(b"jobs 1\n").get::<u64>("job").unwrap_err();
        assert!(err.message.contains("expected `job ...`"), "{err}");
    }

    #[test]
    fn an_unterminated_line_is_truncation() {
        let mut r = Reader::new(b"job 1\nslice 2");
        assert_eq!(r.try_line().unwrap(), Some("job 1"));
        assert_eq!(r.try_line().unwrap(), None);
        assert_eq!(r.offset(), 6, "a torn line is left unconsumed");
        assert_eq!(r.line().unwrap_err().line, 2);
    }

    #[test]
    fn block_lengths_are_overflow_safe() {
        for len in [usize::MAX, usize::MAX - 1, 4096] {
            let text = format!("text {len}\nabc\n");
            let mut r = Reader::new(text.as_bytes());
            let err = r.block("text").unwrap_err();
            assert!(err.message.contains("truncated"), "{err}");
        }
        let mut r = Reader::new(b"text 3\nabcd\n");
        let err = r.block("text").unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
        assert!(Reader::new(b"text 2\n\xff\xfe\n").block("text").is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = Reader::new(b"job 1\njunk");
        r.get::<u64>("job").unwrap();
        let err = r.finish().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("4 trailing bytes"), "{err}");
        assert!(Reader::new(b"").finish().is_ok());
    }
}
