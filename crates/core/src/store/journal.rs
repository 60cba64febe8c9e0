//! The entry-file frame: one checksummed record per file.
//!
//! An entry file holds exactly one frame:
//!
//! ```text
//! [magic u8 = 0xA7][kind u8 = 3][key u128 LE][len u32 LE][payload][checksum u64 LE]
//! ```
//!
//! The checksum (FNV-1a 64) covers `kind ‖ key ‖ len ‖ payload`. [`open`]
//! accepts a buffer only when it is one whole frame of the procedure kind,
//! for the key the file is named after, whose checksum matches — so a
//! flipped bit anywhere (magic, kind, key, length, payload or checksum)
//! and a truncated or extended file are all rejected.
//!
//! Everything in this module is pure (bytes in, bytes out); file IO,
//! renames and quarantine live in the parent module.

/// Leading byte of every frame.
const MAGIC: u8 = 0xA7;

/// Kind byte of a procedure entry, the only kind. Bytes 0 (segment
/// header), 1, 2 and 4 (lattice results, dependency edges) and 5
/// (tombstone) were journal record kinds up to codec v4. Do not reuse
/// them.
const PROC: u8 = 3;

/// Frame overhead: magic + kind + key + len (before payload).
const HEADER_LEN: usize = 1 + 1 + 16 + 4;
/// Trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// FNV-1a 64 over the checksummed portion of a frame.
fn checksum64(kind: u8, key: u128, payload: &[u8]) -> u64 {
    let len = (payload.len() as u32).to_le_bytes();
    crate::fnv1a64(
        [kind]
            .iter()
            .chain(&key.to_le_bytes())
            .chain(&len)
            .chain(payload),
    )
}

/// Encode the frame of the entry keyed `key`.
pub fn encode(key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.push(MAGIC);
    out.push(PROC);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum64(PROC, key, payload).to_le_bytes());
    out
}

/// The payload of `bytes`, read from the file of the entry keyed `key`,
/// or what failed to validate.
pub fn open(bytes: &[u8], key: u128) -> Result<&[u8], &'static str> {
    let head = bytes.get(..HEADER_LEN).ok_or("truncated frame")?;
    if head[0] != MAGIC || head[1] != PROC {
        return Err("not a procedure entry");
    }
    if head[2..18] != key.to_le_bytes() {
        return Err("key differs from the file name");
    }
    let len = u32::from_le_bytes([head[18], head[19], head[20], head[21]]) as usize;
    let rest = &bytes[HEADER_LEN..];
    if len.checked_add(CHECKSUM_LEN) != Some(rest.len()) {
        return Err("length differs from the file's");
    }
    let (payload, stored) = rest.split_at(len);
    if stored != checksum64(PROC, key, payload).to_le_bytes() {
        return Err("checksum mismatch");
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_segment_round_trips() {
        for payload in [&b""[..], &[1, 7, 0], b"payload-bytes"] {
            let frame = encode(42, payload);
            assert_eq!(frame.len(), HEADER_LEN + payload.len() + CHECKSUM_LEN);
            assert_eq!(open(&frame, 42), Ok(payload));
        }
    }

    #[test]
    fn checksum_is_fnv1a_of_kind_key_len_payload() {
        // Pinned: existing entry files must keep opening.
        let frame = encode(42, b"payload-bytes");
        let at = frame.len() - CHECKSUM_LEN;
        assert_eq!(frame[at..], 0xb61b_66d7_0c50_2ac3u64.to_le_bytes());
        assert_eq!(crate::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn payload_bitflip_fails_verify_of_that_frame_only() {
        let (mut a, b) = (encode(42, &[1, 7, 0]), encode(77, b"payload-bytes"));
        a[HEADER_LEN + 1] ^= 0x10;
        assert_eq!(open(&a, 42), Err("checksum mismatch"));
        assert_eq!(open(&b, 77), Ok(&b"payload-bytes"[..]));
    }

    #[test]
    fn unknown_kind_quarantines_one_record() {
        // A frame of a retired kind, checksummed as its writer would
        // have: intact, and still not an entry.
        for kind in [0u8, 1, 2, 4, 5] {
            let mut frame = encode(9, b"old");
            frame[1] = kind;
            let at = frame.len() - CHECKSUM_LEN;
            frame[at..].copy_from_slice(&checksum64(kind, 9, b"old").to_le_bytes());
            assert_eq!(open(&frame, 9), Err("not a procedure entry"), "kind {kind}");
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        // Flip each bit of an entry file in turn — in the magic, kind,
        // key, length, payload or checksum — and none opens.
        let frame = encode(9, &[0, 1, 2, 3]);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut m = frame.clone();
                m[byte] ^= 1 << bit;
                assert!(
                    open(&m, 9).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_extended_or_misfiled_entry_is_rejected() {
        let frame = encode(9, b"payload");
        for cut in 0..frame.len() {
            assert!(open(&frame[..cut], 9).is_err(), "cut at {cut} opened");
        }
        let mut longer = frame.clone();
        longer.push(0);
        assert_eq!(open(&longer, 9), Err("length differs from the file's"));
        assert_eq!(open(&frame, 10), Err("key differs from the file name"));
    }
}
