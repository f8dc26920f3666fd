//! Byte codecs and segment framing for persisted verification
//! artifacts.
//!
//! `unity-serve` keeps the expensive session artifacts — the packed
//! [`TransitionSystem`](crate::transition::TransitionSystem) tables, the
//! CSR [`PredIndex`](crate::pred::PredIndex), the tuned BDD field order
//! — on disk, keyed by spec content hash, so a re-submitted spec only
//! recomputes what actually changed. This module is the encoding layer
//! those artifacts share:
//!
//! - [`ByteWriter`]/[`ByteReader`]: little-endian scalar/array codecs.
//!   Readers are bounds-checked everywhere; a truncated payload is an
//!   error, never a panic.
//! - Segment framing ([`encode_segment`]/[`decode_segment`]): a
//!   versioned header (`UNISEG` magic, format version, artifact kind),
//!   the payload length, and an [`checksum`] over the payload. A
//!   corrupt or torn segment file fails to decode — the store treats
//!   that as a cache miss and rebuilds, it never trusts damaged bytes.
//!
//! The payload encodings themselves live with the types that own the
//! private fields (`TransitionSystem::to_artifact_bytes`,
//! `PredIndex::to_artifact_bytes`); this module only fixes the shared
//! byte-level conventions.

use std::hash::Hasher as _;

use unity_core::hash::FxHasher;

/// Magic prefix of every artifact segment file.
pub const SEGMENT_MAGIC: &[u8; 6] = b"UNISEG";

/// Current segment format version. Bump on any payload layout change:
/// old segments then decode as corrupt (a cache miss), never as
/// garbage artifacts. Version 2 dropped the shard-base table from the
/// transition-system payload.
pub const SEGMENT_VERSION: u16 = 2;

/// [`FxHasher`] digest of `bytes` — the segment integrity checksum.
/// Non-cryptographic by design: it guards against torn writes and bit
/// rot, not adversaries (the store directory is operator-trusted).
/// Zero-padding of the final sub-word chunk means trailing NULs within
/// 8 bytes collide — the segment header's explicit length field closes
/// that gap.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// [`checksum`] rendered as fixed-width lowercase hex — the form
/// embedded in text records (the verdict journal's per-record `crc`
/// field), where a fixed width keeps the framing length-stable.
pub fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", checksum(bytes))
}

/// Parses a [`checksum_hex`] digest back to the `u64` it renders.
/// Strict: exactly 16 lowercase hex digits, anything else is an error —
/// a hand-mangled digest must read as corruption, not as a checksum
/// that happens to match.
pub fn parse_checksum_hex(s: &str) -> Result<u64, String> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(format!("`{s}` is not a 16-digit lowercase hex checksum"));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("`{s}`: {e}"))
}

/// The checksum a segment stores: the artifact kind chained with the
/// payload, so a flipped kind byte is caught like flipped payload.
fn segment_checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(kind);
    h.write(payload);
    h.finish()
}

/// Frames `payload` as a segment: magic, version, kind, payload length,
/// payload checksum, payload.
pub fn encode_segment(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_MAGIC.len() + 19 + payload.len());
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&segment_checksum(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unframes a segment, validating magic, version, length, and checksum.
/// Returns the artifact kind and the payload slice.
pub fn decode_segment(bytes: &[u8]) -> Result<(u8, &[u8]), String> {
    let header = SEGMENT_MAGIC.len() + 2 + 1 + 8 + 8;
    if bytes.len() < header {
        return Err(format!("segment truncated at {} bytes", bytes.len()));
    }
    let (magic, rest) = bytes.split_at(SEGMENT_MAGIC.len());
    if magic != SEGMENT_MAGIC {
        return Err("bad segment magic".into());
    }
    let version = u16::from_le_bytes([rest[0], rest[1]]);
    if version != SEGMENT_VERSION {
        return Err(format!(
            "segment version {version} (expected {SEGMENT_VERSION})"
        ));
    }
    let kind = rest[2];
    let len = u64::from_le_bytes(rest[3..11].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(rest[11..19].try_into().expect("8 bytes"));
    let payload = &rest[19..];
    if payload.len() as u64 != len {
        return Err(format!(
            "segment payload is {} bytes, header says {len}",
            payload.len()
        ));
    }
    if segment_checksum(kind, payload) != sum {
        return Err("segment checksum mismatch".into());
    }
    Ok((kind, payload))
}

/// Little-endian artifact payload writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `u32` array.
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    /// Appends a length-prefixed `u64` array.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        self.buf.extend_from_slice(bs);
    }

    /// The finished payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian payload reader.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length-prefixed `u32` array (bounded by the remaining
    /// payload, so a hostile length cannot trigger a huge allocation).
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, String> {
        let n = self.u64()? as usize;
        if n.checked_mul(4)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(format!("array of {n} u32s exceeds payload"));
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `u64` array (bounded like
    /// [`ByteReader::u32_vec`]).
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, String> {
        let n = self.u64()? as usize;
        if n.checked_mul(8)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(format!("array of {n} u64s exceeds payload"));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed byte string (bounded like
    /// [`ByteReader::u32_vec`]).
    pub fn byte_vec(&mut self) -> Result<Vec<u8>, String> {
        let n = self.u64()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(format!("byte string of {n} exceeds payload"));
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Asserts the payload was fully consumed — trailing bytes mean the
    /// decoder and encoder disagree about the layout.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_arrays_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u32_slice(&[1, 2, 3]);
        w.u64_slice(&[u64::MAX]);
        w.u32_slice(&[]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_vec().unwrap(), vec![u64::MAX]);
        assert_eq!(r.u32_vec().unwrap(), Vec::<u32>::new());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u32_slice(&[1, 2, 3, 4]);
        let buf = w.into_vec();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(r.u32_vec().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A length prefix claiming 2^61 elements must fail fast.
        let mut w = ByteWriter::new();
        w.u64(1 << 61);
        let buf = w.into_vec();
        assert!(ByteReader::new(&buf).u32_vec().is_err());
        assert!(ByteReader::new(&buf).u64_vec().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.u32(1);
        w.u8(0);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn segments_round_trip_and_detect_corruption() {
        let payload = b"the artifact payload".to_vec();
        let seg = encode_segment(3, &payload);
        let (kind, back) = decode_segment(&seg).unwrap();
        assert_eq!(kind, 3);
        assert_eq!(back, payload.as_slice());
        // Any single-byte flip is caught (magic, version, length,
        // checksum, or payload).
        for k in 0..seg.len() {
            let mut bad = seg.clone();
            bad[k] ^= 0x40;
            assert!(decode_segment(&bad).is_err(), "flip at {k} accepted");
        }
        // Truncations are caught.
        for cut in 0..seg.len() {
            assert!(decode_segment(&seg[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn older_segment_versions_are_rejected() {
        // A well-framed segment whose only fault is its version (1: the
        // transition-system payload still carried shard bases) must read
        // as a miss, not decode into a garbage artifact.
        let payload = b"the artifact payload".to_vec();
        let mut seg = encode_segment(3, &payload);
        let at = SEGMENT_MAGIC.len();
        seg[at..at + 2].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_segment(&seg).unwrap_err();
        assert!(err.contains("segment version 1"), "{err}");
    }

    #[test]
    fn checksum_hex_round_trips_and_rejects_mangled_digests() {
        let digest = checksum_hex(b"journal record");
        assert_eq!(digest.len(), 16);
        assert_eq!(
            parse_checksum_hex(&digest).unwrap(),
            checksum(b"journal record")
        );
        // Leading zeros keep the width fixed.
        assert_eq!(checksum_hex(&[]).len(), 16);
        for bad in [
            "",
            "123",
            "123456789abcdef",
            "123456789abcdef01",
            "123456789ABCDEF0",
            "g23456789abcdef0",
        ] {
            assert!(parse_checksum_hex(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn checksum_is_stable_and_discriminating() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b"12345678"), checksum(b"12345679"));
        // Trailing-NUL padding collisions are a known FxHash property;
        // the segment header's length field disambiguates them. The
        // framing as a whole must still reject the padded variant:
        let a = encode_segment(1, b"xy");
        let (_, payload) = decode_segment(&a).unwrap();
        assert_eq!(payload, b"xy");
        let mut grown = b"xy\0".to_vec();
        grown.resize(3, 0);
        assert_eq!(checksum(b"xy"), checksum(&grown), "padding collides");
        let b = encode_segment(1, &grown);
        assert_ne!(a, b, "length field distinguishes them");
    }
}
