//! Append-only journal framing: record encoding, per-record checksums,
//! and the forgiving segment scanner.
//!
//! A segment is a byte stream of records:
//!
//! ```text
//! [magic u8 = 0xA7][kind u8][key u128 LE][len u32 LE][payload][checksum u64 LE]
//! ```
//!
//! The checksum (FNV-1a 64) covers `kind ‖ key ‖ len ‖ payload`, so any
//! single flipped bit in a record is detected. Finding the records and
//! checking them are separate steps, so a reader pays for the checksums
//! of the records it uses and no others:
//!
//! * [`scan`] walks the frames. It is built for hostile input — a segment
//!   may end mid-record (crash during append) or contain flipped bits
//!   anywhere. A record of unknown kind is *quarantined individually* and
//!   the walk continues; a broken frame — wrong magic, a length field
//!   pointing past the end of the segment, a truncated tail — quarantines
//!   the remainder of the segment and stops, because record boundaries
//!   can no longer be trusted.
//! * [`Frame::verify`] compares one frame's checksum. The frame headers
//!   are the segment's `key → (offset, len, checksum)` index.
//!
//! Everything in this module is pure (bytes in, frames out); file IO,
//! fsync/rename rotation, and quarantine sidecars live in the parent
//! module.

use super::hash;
use std::ops::Range;

/// Leading byte of every record frame.
pub const MAGIC: u8 = 0xA7;

/// Frame overhead: magic + kind + key + len (before payload).
const HEADER_LEN: usize = 1 + 1 + 16 + 4;
/// Trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Record types in a journal segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// First record of every segment: codec version + build id.
    Header = 0,
    // Bytes 1, 2 and 4 were the lattice-result and dependency-edge
    // kinds up to codec v2. Do not reuse them.
    /// Interprocedural summary + derived loop reports.
    Proc = 3,
    /// Invalidation: the keyed entry is dead; later loads drop it.
    Tombstone = 5,
}

impl RecordKind {
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            0 => RecordKind::Header,
            3 => RecordKind::Proc,
            5 => RecordKind::Tombstone,
            _ => return None,
        })
    }
}

/// FNV-1a 64 over the checksummed portion of a record.
pub(super) fn checksum64(kind: u8, key: u128, payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    };
    eat(kind);
    for b in key.to_le_bytes() {
        eat(b);
    }
    for b in (payload.len() as u32).to_le_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

/// Encode one record frame.
pub fn encode_record(kind: RecordKind, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.push(MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum64(kind as u8, key, payload).to_le_bytes());
    out
}

/// The segment header payload: codec version + the producing build.
pub fn encode_header_payload(build_id: &str) -> Vec<u8> {
    let mut out = Vec::new();
    super::codec::put_u32(&mut out, hash::CODEC_VERSION);
    super::codec::put_str(&mut out, build_id);
    out
}

/// Decode a header payload into `(codec_version, build_id)`.
pub fn decode_header_payload(buf: &[u8]) -> Option<(u32, String)> {
    let mut r = super::codec::Reader::new(buf);
    let version = r.u32()?;
    let build_id = r.str()?;
    r.at_end().then_some((version, build_id))
}

/// One structurally intact record frame, located in the scanned buffer
/// but not yet checked: [`Frame::verify`] is the one place a checksum is
/// compared, and the store decides when to call it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: RecordKind,
    pub key: u128,
    /// Payload byte range within the scanned buffer.
    pub payload: Range<usize>,
    /// The checksum stored after the payload.
    pub checksum: u64,
}

impl Frame {
    /// The payload, if the stored checksum matches `bytes` — the buffer
    /// this frame was scanned from.
    pub fn verify<'a>(&self, bytes: &'a [u8]) -> Option<&'a [u8]> {
        let payload = bytes.get(self.payload.clone())?;
        (checksum64(self.kind as u8, self.key, payload) == self.checksum).then_some(payload)
    }

    /// Byte range of the whole record, magic through checksum.
    pub fn span(&self) -> Range<usize> {
        self.payload.start - HEADER_LEN..self.payload.end + CHECKSUM_LEN
    }
}

/// Result of scanning one segment's bytes.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Intact frames of known kind, in append order.
    pub frames: Vec<Frame>,
    /// Byte ranges of quarantined content: records of unknown kind, and
    /// the untrustworthy remainder after a broken frame.
    pub quarantined: Vec<Range<usize>>,
}

/// Walk a segment's frames. A record whose frame is intact but whose
/// kind byte is unknown is quarantined individually and the walk goes
/// on; a broken frame (wrong magic, a length running past the end, a
/// torn tail) quarantines the rest of the segment, because record
/// boundaries can no longer be trusted. No checksum is compared here.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some((kind_byte, key, payload, checksum)) = frame_at(bytes, pos) else {
            out.quarantined.push(pos..bytes.len());
            break;
        };
        let end = payload.end + CHECKSUM_LEN;
        match RecordKind::from_u8(kind_byte) {
            Some(kind) => out.frames.push(Frame {
                kind,
                key,
                payload,
                checksum,
            }),
            None => out.quarantined.push(pos..end),
        }
        pos = end;
    }
    out
}

/// The frame starting at `pos` as `(kind byte, key, payload, checksum)`,
/// or `None` when it is broken. A bit-flipped length points past the
/// segment end (or wraps), which breaks the frame.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(u8, u128, Range<usize>, u64)> {
    let head = bytes.get(pos..pos.checked_add(HEADER_LEN)?)?;
    if head[0] != MAGIC {
        return None;
    }
    let key = u128::from_le_bytes(head[2..18].try_into().ok()?);
    let len = u32::from_le_bytes(head[18..22].try_into().ok()?) as usize;
    let payload = pos + HEADER_LEN..(pos + HEADER_LEN).checked_add(len)?;
    let stored = bytes.get(payload.end..payload.end.checked_add(CHECKSUM_LEN)?)?;
    let checksum = u64::from_le_bytes(stored.try_into().ok()?);
    Some((head[1], key, payload, checksum))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> Vec<u8> {
        let mut seg = encode_record(RecordKind::Header, 0, &encode_header_payload("abc123"));
        seg.extend_from_slice(&encode_record(RecordKind::Proc, 42, &[1, 7, 0]));
        seg.extend_from_slice(&encode_record(RecordKind::Proc, 77, b"payload-bytes"));
        seg.extend_from_slice(&encode_record(RecordKind::Tombstone, 42, &[]));
        seg
    }

    fn header_len() -> usize {
        encode_record(RecordKind::Header, 0, &encode_header_payload("abc123")).len()
    }

    #[test]
    fn clean_segment_round_trips() {
        let seg = sample_segment();
        let out = scan(&seg);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.frames.len(), 4);
        assert!(out.frames.iter().all(|f| f.verify(&seg).is_some()));
        assert_eq!(out.frames[1].kind, RecordKind::Proc);
        assert_eq!(out.frames[1].key, 42);
        assert_eq!(out.frames[1].verify(&seg), Some(&[1u8, 7, 0][..]));
        assert_eq!(
            out.frames[1].span(),
            header_len()..header_len() + 22 + 3 + 8
        );
        let header = out.frames[0].verify(&seg).unwrap();
        let (ver, build_id) = decode_header_payload(header).unwrap();
        assert_eq!(ver, hash::CODEC_VERSION);
        assert_eq!(build_id, "abc123");
    }

    #[test]
    fn truncation_quarantines_tail_keeps_prefix() {
        let seg = sample_segment();
        // Cut inside the third record.
        let first_two = header_len() + encode_record(RecordKind::Proc, 42, &[1, 7, 0]).len();
        let cut = &seg[..first_two + 5];
        let out = scan(cut);
        assert_eq!(out.frames.len(), 2);
        assert_eq!(out.quarantined, vec![first_two..cut.len()]);
    }

    #[test]
    fn payload_bitflip_fails_verify_of_that_frame_only() {
        let mut seg = sample_segment();
        // Flip a bit inside the first entry's payload: the frame is
        // intact, so the walk finds it; only its checksum is wrong.
        seg[header_len() + HEADER_LEN + 1] ^= 0x10;
        let out = scan(&seg);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.frames.len(), 4);
        let failed: Vec<u128> = out
            .frames
            .iter()
            .filter(|f| f.verify(&seg).is_none())
            .map(|f| f.key)
            .collect();
        assert_eq!(failed, vec![42]);
        assert_eq!(out.frames[1].kind, RecordKind::Proc);
    }

    #[test]
    fn unknown_kind_quarantines_one_record() {
        let mut seg = sample_segment();
        let hdr = header_len();
        seg[hdr + 1] = 2; // a retired kind byte
        let out = scan(&seg);
        assert_eq!(out.frames.len(), 3);
        assert_eq!(out.quarantined, vec![hdr..hdr + 22 + 3 + 8]);
    }

    #[test]
    fn length_bitflip_quarantines_remainder() {
        let mut seg = sample_segment();
        let hdr = header_len();
        // Set the first entry's length field to a huge value.
        seg[hdr + 18] = 0xFF;
        seg[hdr + 19] = 0xFF;
        let out = scan(&seg);
        assert_eq!(out.frames.len(), 1); // only the header survives
        assert_eq!(out.quarantined, vec![hdr..sample_segment().len()]);
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        // Flip each bit of a small segment in turn: every flip either
        // breaks the frame (the walk yields nothing) or fails `verify`,
        // and neither step panics.
        let seg = encode_record(RecordKind::Proc, 9, &[0, 1, 2, 3]);
        for byte in 0..seg.len() {
            for bit in 0..8 {
                let mut m = seg.clone();
                m[byte] ^= 1 << bit;
                let out = scan(&m);
                assert!(
                    out.frames.iter().all(|f| f.verify(&m).is_none()),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let out = scan(&[]);
        assert!(out.quarantined.is_empty());
        assert!(out.frames.is_empty());
    }
}
