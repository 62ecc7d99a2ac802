//! A small LZ77 codec.
//!
//! The classic (gVisor-style) image format compresses its serialized object
//! stream and memory pages; restoring must decompress on the critical path
//! (paper §2.2: "gVisor C/R ... needs to decompress, deserialize, and load
//! the data into memory on the restore critical path"). This is a real,
//! self-contained codec — greedy LZ77 with a 3-byte hash chain over a 32 KiB
//! window — so compressed images genuinely shrink and corrupt streams
//! genuinely fail to decode.
//!
//! Wire format: a sequence of tokens.
//! - `0x00, len(varint), bytes...` — literal run
//! - `0x01, dist(varint), len(varint)` — back-reference (`dist ≥ 1`)

// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use std::ops::Range;

use crate::varint;
use crate::ImageError;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;

/// Compresses `input`.
///
/// # Example
///
/// ```
/// let data = b"abcabcabcabcabcabc".repeat(10);
/// let packed = imagefmt::lz::compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(imagefmt::lz::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    const TABLE_BITS: u32 = 15;
    const TABLE_SIZE: usize = 1 << TABLE_BITS;
    #[inline]
    fn hash3(tri: &[u8]) -> usize {
        let mut key = 0u32;
        for &b in tri.iter().take(3) {
            key = (key << 8) | u32::from(b);
        }
        usize::try_from(key.wrapping_mul(2654435761) >> (32 - TABLE_BITS)).unwrap_or(0)
    }

    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Candidate positions hashed by their leading 3 bytes (+1 so 0 = empty).
    let mut table = vec![0usize; TABLE_SIZE];
    let mut literals_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, input: &[u8], from: usize, to: usize| {
        if let Some(run) = input.get(from..to) {
            if !run.is_empty() {
                out.push(0x00);
                varint::put_bytes(out, run);
            }
        }
    };

    while i < input.len() {
        let mut matched = 0usize;
        let mut dist = 0usize;
        if let Some(head) = input.get(i..i + 3) {
            let slot = hash3(head);
            let cand = table.get(slot).copied().unwrap_or(0);
            if let Some(entry) = table.get_mut(slot) {
                *entry = i + 1;
            }
            if cand != 0 {
                let cand = cand - 1;
                if i - cand <= WINDOW && input.get(cand..cand + 3) == Some(head) {
                    let mut len = 3usize;
                    let max = MAX_MATCH.min(input.len() - i);
                    while len < max && input.get(cand + len) == input.get(i + len) {
                        len += 1;
                    }
                    if len >= MIN_MATCH {
                        matched = len;
                        dist = i - cand;
                    }
                }
            }
        }
        if matched > 0 {
            flush_literals(&mut out, input, literals_start, i);
            out.push(0x01);
            varint::put_u64(&mut out, u64::try_from(dist).unwrap_or(u64::MAX));
            varint::put_u64(&mut out, u64::try_from(matched).unwrap_or(u64::MAX));
            // Seed the table sparsely inside the match for future hits.
            let end = i + matched;
            let mut j = i + 1;
            while j < end {
                let Some(tri) = input.get(j..j + 3) else {
                    break;
                };
                if let Some(entry) = table.get_mut(hash3(tri)) {
                    *entry = j + 1;
                }
                j += 3;
            }
            i = end;
            literals_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, input, literals_start, input.len());
    out
}

/// Decompresses a stream produced by [`compress`] into a fresh buffer.
///
/// The classic image reader, which owns its stream as a shared buffer, does
/// not come here for a *stored* stream: it views that body in place.
///
/// # Errors
///
/// [`ImageError::Truncated`] or [`ImageError::BadVarint`] on malformed input,
/// including back-references pointing before the start of the output.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, ImageError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0usize;
    while let Some(&tag) = input.get(pos) {
        pos += 1;
        match tag {
            0x00 => {
                // Materializing is inherent to LZ decode, and the cost the
                // classic format pays by design (§2.2).
                let lits = varint::get_bytes(input, &mut pos)?;
                out.extend(lits.iter().copied());
            }
            0x01 => {
                let dist = usize::try_from(varint::get_u64(input, &mut pos)?).map_err(|_| {
                    ImageError::Malformed {
                        what: "lz match distance",
                    }
                })?;
                let len = usize::try_from(varint::get_u64(input, &mut pos)?).map_err(|_| {
                    ImageError::Malformed {
                        what: "lz match length",
                    }
                })?;
                if dist == 0 || dist > out.len() || len > MAX_MATCH {
                    return Err(ImageError::Truncated {
                        what: "lz back-reference",
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies (dist < len) must read bytes produced
                // earlier in this same loop, so copy byte-by-byte via get().
                for k in 0..len {
                    let byte = out.get(start + k).copied().ok_or(ImageError::Truncated {
                        what: "lz back-reference",
                    })?;
                    out.push(byte);
                }
            }
            _ => {
                return Err(ImageError::Truncated {
                    what: "lz token tag",
                })
            }
        }
    }
    Ok(out)
}

/// Detects a *stored* stream: exactly one literal token covering the rest of
/// `input` — what [`compress`] emits for incompressible data such as
/// high-entropy memory pages. Returns where in `input` the literal run (the
/// whole decompressed output) lies, so the owner of the buffer can slice it
/// instead of decoding it.
pub(crate) fn stored_run(input: &[u8]) -> Result<Option<Range<usize>>, ImageError> {
    if input.first() != Some(&0x00) {
        return Ok(None);
    }
    let mut pos = 1usize;
    let len = usize::try_from(varint::get_u64(input, &mut pos)?)
        .map_err(|_| ImageError::Malformed { what: "lz run" })?;
    match pos.checked_add(len) {
        Some(end) if end == input.len() => Ok(Some(pos..end)),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seam the benchmark crate calls through: it holds its stream as a
    /// vendored `bytes::Bytes`, which reaches `decompress` as a plain slice.
    #[test]
    fn decompress_takes_any_byte_slice() {
        let data = b"abcabcabcabcabcabc".repeat(10);
        let packed = bytes::Bytes::from(compress(&data));
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn stored_run_locates_an_incompressible_body() {
        // No three bytes repeat, so there is nothing to back-reference.
        let data: Vec<u8> = (0u8..=255).collect();
        let packed = compress(&data);
        let run = stored_run(&packed).unwrap().expect("one literal run");
        assert_eq!(&packed[run], &data[..]);
        // A stream with a back-reference is not stored.
        assert_eq!(stored_run(&compress(&[7u8; 4096])).unwrap(), None);
        assert_eq!(stored_run(&[]).unwrap(), None);
    }

    #[test]
    fn empty_round_trip() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn incompressible_round_trip() {
        // Pseudo-random bytes: no 4-byte repeats expected.
        let data: Vec<u8> = (0u32..2048)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn repetitive_data_shrinks_a_lot() {
        let data = vec![7u8; 64 * 1024];
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 20,
            "packed {} bytes",
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn mixed_content_round_trip() {
        let mut data = Vec::new();
        for i in 0..100 {
            data.extend_from_slice(format!("record-{i}:").as_bytes());
            data.extend_from_slice(&[i as u8; 37]);
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn overlapping_match_decodes() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 1000];
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_tag_rejected() {
        assert!(decompress(&[0xFF]).is_err());
    }

    #[test]
    fn bad_backreference_rejected() {
        let mut stream = vec![0x01];
        varint::put_u64(&mut stream, 5); // dist 5 with empty output
        varint::put_u64(&mut stream, 4);
        assert!(decompress(&stream).is_err());
    }

    #[test]
    fn truncated_literal_rejected() {
        let mut stream = vec![0x00];
        varint::put_u64(&mut stream, 10); // declares 10 literal bytes, has 0
        assert!(decompress(&stream).is_err());
    }
}
