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
//! single flipped bit in a record is detected. The scanner is built for
//! hostile input — a segment may end mid-record (crash during append) or
//! contain flipped bits anywhere:
//!
//! * a record whose frame is intact but whose checksum mismatches (or
//!   whose kind byte is unknown) is *quarantined individually* and the
//!   scan continues at the next record;
//! * a broken frame — wrong magic, a length field pointing past the end
//!   of the segment, a truncated tail — quarantines the remainder of the
//!   segment and stops, because record boundaries can no longer be
//!   trusted.
//!
//! Everything in this module is pure (bytes in, records out); file IO,
//! fsync/rename rotation, and quarantine sidecars live in the parent
//! module.

use super::hash;

/// Leading byte of every record frame.
pub const MAGIC: u8 = 0xA7;

/// Frame overhead: magic + kind + key + len (before payload).
const HEADER_LEN: usize = 1 + 1 + 16 + 4;
/// Trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Record types in a journal segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// First record of every segment: schema/codec version + `git_rev`.
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
pub fn encode_header_payload(git_rev: &str) -> Vec<u8> {
    let mut out = Vec::new();
    super::codec::put_u32(&mut out, hash::CODEC_VERSION);
    super::codec::put_str(&mut out, git_rev);
    out
}

/// Decode a header payload into `(codec_version, git_rev)`.
pub fn decode_header_payload(buf: &[u8]) -> Option<(u32, String)> {
    let mut r = super::codec::Reader::new(buf);
    let version = r.u32()?;
    let rev = r.str()?;
    r.at_end().then_some((version, rev))
}

/// One structurally valid, checksum-verified record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    pub kind: RecordKind,
    pub key: u128,
    pub payload: Vec<u8>,
}

/// Result of scanning one segment's bytes.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Verified records, in append order.
    pub records: Vec<RawRecord>,
    /// Byte ranges of quarantined content (corrupt records, the torn or
    /// untrustworthy tail).
    pub quarantined: Vec<(usize, usize)>,
    /// True when the scan stopped before the end of the buffer (broken
    /// frame / torn tail), false when every byte was accounted for.
    pub torn: bool,
}

impl ScanOutcome {
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.torn
    }
}

/// Scan a segment, salvaging every verifiable record.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        // A broken frame means record boundaries downstream are guesses;
        // quarantine the rest and stop.
        if remaining < HEADER_LEN + CHECKSUM_LEN || bytes[pos] != MAGIC {
            out.quarantined.push((pos, bytes.len()));
            out.torn = true;
            break;
        }
        let kind_byte = bytes[pos + 1];
        let key_bytes: [u8; 16] = match bytes[pos + 2..pos + 18].try_into() {
            Ok(k) => k,
            Err(_) => {
                out.quarantined.push((pos, bytes.len()));
                out.torn = true;
                break;
            }
        };
        let key = u128::from_le_bytes(key_bytes);
        let len_bytes: [u8; 4] = match bytes[pos + 18..pos + 22].try_into() {
            Ok(l) => l,
            Err(_) => {
                out.quarantined.push((pos, bytes.len()));
                out.torn = true;
                break;
            }
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        // A bit-flipped length would point past the segment end (or wrap);
        // that breaks the frame.
        if len > remaining - HEADER_LEN - CHECKSUM_LEN {
            out.quarantined.push((pos, bytes.len()));
            out.torn = true;
            break;
        }
        let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + len];
        let cksum_off = pos + HEADER_LEN + len;
        let stored: [u8; 8] = match bytes[cksum_off..cksum_off + CHECKSUM_LEN].try_into() {
            Ok(c) => c,
            Err(_) => {
                out.quarantined.push((pos, bytes.len()));
                out.torn = true;
                break;
            }
        };
        let end = cksum_off + CHECKSUM_LEN;
        let ok = u64::from_le_bytes(stored) == checksum64(kind_byte, key, payload);
        match (ok, RecordKind::from_u8(kind_byte)) {
            (true, Some(kind)) => out.records.push(RawRecord {
                kind,
                key,
                payload: payload.to_vec(),
            }),
            // Frame intact, content bad: quarantine just this record and
            // keep scanning.
            _ => out.quarantined.push((pos, end)),
        }
        pos = end;
    }
    out
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

    #[test]
    fn clean_segment_round_trips() {
        let seg = sample_segment();
        let out = scan(&seg);
        assert!(out.is_clean());
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.records[1].kind, RecordKind::Proc);
        assert_eq!(out.records[1].key, 42);
        assert_eq!(out.records[1].payload, vec![1, 7, 0]);
        let (ver, rev) = decode_header_payload(&out.records[0].payload).unwrap();
        assert_eq!(ver, hash::CODEC_VERSION);
        assert_eq!(rev, "abc123");
    }

    #[test]
    fn truncation_quarantines_tail_keeps_prefix() {
        let seg = sample_segment();
        // Cut inside the third record.
        let first_two = encode_record(RecordKind::Header, 0, &encode_header_payload("abc123"))
            .len()
            + encode_record(RecordKind::Proc, 42, &[1, 7, 0]).len();
        let cut = &seg[..first_two + 5];
        let out = scan(cut);
        assert!(out.torn);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.quarantined, vec![(first_two, cut.len())]);
    }

    #[test]
    fn payload_bitflip_quarantines_one_record() {
        let mut seg = sample_segment();
        let hdr = encode_record(RecordKind::Header, 0, &encode_header_payload("abc123")).len();
        // Flip a bit inside the first entry's payload.
        seg[hdr + HEADER_LEN + 1] ^= 0x10;
        let out = scan(&seg);
        assert!(!out.torn);
        assert_eq!(out.records.len(), 3); // header, second entry, tombstone survive
        assert_eq!(out.quarantined.len(), 1);
        assert!(out
            .records
            .iter()
            .all(|r| (r.kind, r.key) != (RecordKind::Proc, 42)));
    }

    #[test]
    fn length_bitflip_quarantines_remainder() {
        let mut seg = sample_segment();
        let hdr = encode_record(RecordKind::Header, 0, &encode_header_payload("abc123")).len();
        // Set the first entry's length field to a huge value.
        seg[hdr + 18] = 0xFF;
        seg[hdr + 19] = 0xFF;
        let out = scan(&seg);
        assert!(out.torn);
        assert_eq!(out.records.len(), 1); // only the header survives
        assert_eq!(out.quarantined, vec![(hdr, sample_segment().len())]);
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        // Flip each bit of a small segment in turn: the scan must never
        // return the original record set unchanged, and must never panic.
        let seg = encode_record(RecordKind::Proc, 9, &[0, 1, 2, 3]);
        for byte in 0..seg.len() {
            for bit in 0..8 {
                let mut m = seg.clone();
                m[byte] ^= 1 << bit;
                let out = scan(&m);
                let intact = out.is_clean()
                    && out.records.len() == 1
                    && out.records[0].key == 9
                    && out.records[0].payload == vec![0, 1, 2, 3]
                    && out.records[0].kind == RecordKind::Proc;
                assert!(!intact, "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let out = scan(&[]);
        assert!(out.is_clean());
        assert!(out.records.is_empty());
    }
}
