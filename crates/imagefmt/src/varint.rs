//! Wire primitives shared by the image formats: LEB128-style varints (used
//! by the classic format; gVisor's stream serializer uses a comparable wire
//! encoding) and checked fixed-width little-endian readers (used by the flat
//! func-image format).

// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use memsim::SharedBytes;

use crate::ImageError;

/// Appends `value` to `out` as a little-endian base-128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        // The mask keeps the value in u8 range; try_from avoids a lossy
        // `as` cast (this parse module denies them).
        let byte = u8::try_from(value & 0x7F).unwrap_or(0);
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// [`ImageError::Truncated`] if the buffer ends mid-varint, or
/// [`ImageError::BadVarint`] if the encoding exceeds 10 bytes (u64 overflow).
// `#[inline]`, as is `get_bytes`: `GuestKernel::restore_from_records` reads
// every payload field through these, in another crate, where they would
// otherwise be calls into this one.
#[inline]
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, ImageError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(ImageError::Truncated { what: "varint" })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(ImageError::BadVarint);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(ImageError::BadVarint);
        }
    }
}

/// Appends a length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, u64::try_from(bytes.len()).unwrap_or(u64::MAX));
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte slice.
///
/// # Errors
///
/// [`ImageError::Truncated`] if fewer bytes remain than the prefix declares,
/// or [`ImageError::Malformed`] if the declared length cannot be addressed.
#[inline]
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ImageError> {
    let len = usize::try_from(get_u64(buf, pos)?).map_err(|_| ImageError::Malformed {
        what: "byte slice length",
    })?;
    let end = pos.checked_add(len).ok_or(ImageError::Malformed {
        what: "byte slice length",
    })?;
    let out = buf
        .get(*pos..end)
        .ok_or(ImageError::Truncated { what: "byte slice" })?;
    *pos = end;
    Ok(out)
}

/// Reads a length-prefixed byte run as a zero-copy [`SharedBytes`] view
/// sharing `buf`'s backing allocation — the restore-path counterpart of
/// [`get_bytes`] for callers that keep the bytes.
///
/// # Errors
///
/// Same as [`get_bytes`].
pub fn get_bytes_view(buf: &SharedBytes, pos: &mut usize) -> Result<SharedBytes, ImageError> {
    let len = usize::try_from(get_u64(buf, pos)?).map_err(|_| ImageError::Malformed {
        what: "byte slice length",
    })?;
    let end = pos.checked_add(len).ok_or(ImageError::Malformed {
        what: "byte slice length",
    })?;
    if end > buf.len() {
        return Err(ImageError::Truncated { what: "byte slice" });
    }
    let view = buf.slice(*pos..end);
    *pos = end;
    Ok(view)
}

/// Reads `N` bytes at `*pos`, advancing `*pos`.
fn read_array<const N: usize>(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<[u8; N], ImageError> {
    let end = pos.checked_add(N).ok_or(ImageError::Malformed { what })?;
    let slice = buf.get(*pos..end).ok_or(ImageError::Truncated { what })?;
    let arr: [u8; N] = slice
        .try_into()
        .map_err(|_| ImageError::Truncated { what })?;
    *pos = end;
    Ok(arr)
}

/// Reads a fixed-width little-endian `u16`, advancing `*pos`.
///
/// # Errors
///
/// [`ImageError::Truncated`] if the buffer is too short.
pub fn read_u16_le(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u16, ImageError> {
    Ok(u16::from_le_bytes(read_array::<2>(buf, pos, what)?))
}

/// Reads a fixed-width little-endian `u32`, advancing `*pos`.
///
/// # Errors
///
/// [`ImageError::Truncated`] if the buffer is too short.
pub fn read_u32_le(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, ImageError> {
    Ok(u32::from_le_bytes(read_array::<4>(buf, pos, what)?))
}

/// Reads a fixed-width little-endian `u64`, advancing `*pos`.
///
/// # Errors
///
/// [`ImageError::Truncated`] if the buffer is too short.
pub fn read_u64_le(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, ImageError> {
    Ok(u64::from_le_bytes(read_array::<8>(buf, pos, what)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        assert_eq!(buf, vec![42]);
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = vec![0x80, 0x80]; // continuation bits with no terminator
        let mut pos = 0;
        assert_eq!(
            get_u64(&buf, &mut pos).unwrap_err(),
            ImageError::Truncated { what: "varint" }
        );
    }

    #[test]
    fn overlong_varint_errors() {
        let buf = vec![0xFF; 11];
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos).unwrap_err(), ImageError::BadVarint);
    }

    #[test]
    fn bytes_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn fixed_width_readers_advance_and_bound_check() {
        let buf = [1u8, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0];
        let mut pos = 0;
        assert_eq!(read_u16_le(&buf, &mut pos, "t").unwrap(), 1);
        assert_eq!(read_u32_le(&buf, &mut pos, "t").unwrap(), 2);
        assert_eq!(read_u64_le(&buf, &mut pos, "t").unwrap(), 3);
        assert_eq!(pos, 14);
        assert_eq!(
            read_u16_le(&buf, &mut pos, "tail").unwrap_err(),
            ImageError::Truncated { what: "tail" }
        );
        let mut huge = usize::MAX;
        assert_eq!(
            read_u64_le(&buf, &mut huge, "wrap").unwrap_err(),
            ImageError::Malformed { what: "wrap" }
        );
    }

    #[test]
    fn bytes_truncated_errors() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 100); // declares 100 bytes, provides none
        let mut pos = 0;
        assert!(matches!(
            get_bytes(&buf, &mut pos).unwrap_err(),
            ImageError::Truncated { .. }
        ));
    }
}
