//! The classic (gVisor-style) checkpoint image: a compressed stream of
//! one-by-one serialized objects, I/O connections, and memory pages.
//!
//! Restoring pays, on the critical path: the disk read (charged by the
//! caller), full-stream decompression, and per-object deserialization —
//! exactly the costs the paper's §2.2 measures at 128.8 ms (memory) and
//! 56.7 ms (kernel objects) for SPECjbb.

// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use memsim::{FrameRef, SharedBytes};
use simtime::{CostModel, SimClock};

use crate::record::REF_PLACEHOLDER;
use crate::{
    crc32, varint, CheckpointSource, ImageError, IoConn, IoConnKind, IoConnView, ObjKind,
    ObjRecord, PagePayload,
};

const MAGIC: &[u8; 4] = b"CLIM";
const VERSION: u32 = 1;

/// Lossless `usize` → `u64` (usize is at most 64 bits on supported targets).
fn len64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Serializes and compresses a checkpoint (the offline `checkpoint` step).
///
/// Charges per-object encode costs plus compression throughput; this runs
/// off the startup critical path.
pub fn write(src: &CheckpointSource, clock: &SimClock, model: &CostModel) -> SharedBytes {
    let mut body = Vec::new();

    varint::put_u64(&mut body, len64(src.objects.len()));
    for obj in &src.objects {
        encode_record(&mut body, obj);
    }
    clock.charge(
        model
            .obj
            .encode_per_object
            .saturating_mul(len64(src.objects.len())),
    );

    varint::put_u64(&mut body, len64(src.io_conns.len()));
    for conn in &src.io_conns {
        encode_conn(&mut body, conn);
    }

    varint::put_u64(&mut body, len64(src.app_pages.len()));
    for page in &src.app_pages {
        varint::put_u64(&mut body, page.vpn);
        varint::put_bytes(&mut body, &page.data);
    }

    let packed = crate::lz::compress(&body);
    clock.charge(model.compress(len64(body.len())));

    let mut out = Vec::with_capacity(packed.len() + 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&len64(body.len()).to_le_bytes());
    out.extend_from_slice(&crc32(&packed).to_le_bytes());
    out.extend_from_slice(&packed);
    SharedBytes::from(out)
}

/// Size counters from a classic read, for phase-attributed cost charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassicCounts {
    /// Compressed (on-disk) byte count.
    pub packed_bytes: u64,
    /// Uncompressed body byte count.
    pub body_bytes: u64,
    /// Metadata objects decoded.
    pub objects: u64,
    /// Application-memory bytes carried.
    pub app_bytes: u64,
}

/// Decompresses and deserializes a classic image — the restore critical path
/// of gVisor-restore. Charges decompression plus one
/// [`simtime::ObjectCosts::decode_per_object`] per object.
///
/// # Errors
///
/// Any [`ImageError`] on truncation, bad magic/version, checksum mismatch,
/// or malformed records.
pub fn read(
    image: &SharedBytes,
    clock: &SimClock,
    model: &CostModel,
) -> Result<CheckpointSource, ImageError> {
    let (src, counts) = read_uncharged(image)?;
    clock.charge(model.decompress(counts.body_bytes));
    clock.charge(model.obj.decode_per_object.saturating_mul(counts.objects));
    Ok(src)
}

/// [`read`] without any cost charging: engines that need to attribute the
/// decompression, decode, and memory-load costs to separate pipeline phases
/// (Fig. 2 / Fig. 12) perform the work here and charge phase-by-phase.
///
/// # Errors
///
/// Same as [`read`].
pub fn read_uncharged(
    image: &SharedBytes,
) -> Result<(CheckpointSource, ClassicCounts), ImageError> {
    if image.len() < 20 {
        return Err(ImageError::Truncated {
            what: "classic header",
        });
    }
    if image.get(0..4) != Some(MAGIC.as_slice()) {
        return Err(ImageError::BadMagic);
    }
    let mut hpos = 4usize;
    let version = varint::read_u32_le(image, &mut hpos, "classic header")?;
    if version != VERSION {
        return Err(ImageError::BadVersion { found: version });
    }
    let body_len = usize::try_from(varint::read_u64_le(image, &mut hpos, "classic header")?)
        .map_err(|_| ImageError::Malformed {
            what: "classic body length",
        })?;
    let crc_expected = varint::read_u32_le(image, &mut hpos, "classic header")?;
    let packed = image.slice(20..);
    if crc32(&packed) != crc_expected {
        return Err(ImageError::Checksum {
            section: "classic body",
        });
    }

    // An incompressible body is one stored run: view it in place, inside the
    // image. Anything else decodes into a buffer of its own.
    let body = match crate::lz::stored_run(&packed)? {
        Some(run) => packed.slice(run),
        None => SharedBytes::from(crate::lz::decompress(&packed)?),
    };
    if body.len() != body_len {
        return Err(ImageError::Truncated {
            what: "classic body",
        });
    }

    let mut pos = 0usize;
    // Counts are untrusted: convert checked and cap the pre-allocation by
    // the body size (every element takes at least one byte) so a forged
    // count cannot reserve unbounded memory.
    let n_objs =
        usize::try_from(varint::get_u64(&body, &mut pos)?).map_err(|_| ImageError::Malformed {
            what: "object count",
        })?;
    let mut objects = Vec::with_capacity(n_objs.min(body.len()));
    for _ in 0..n_objs {
        objects.push(decode_record(&body, &mut pos)?);
    }

    let n_conns =
        usize::try_from(varint::get_u64(&body, &mut pos)?).map_err(|_| ImageError::Malformed {
            what: "io conn count",
        })?;
    let mut io_conns = Vec::with_capacity(n_conns.min(body.len()));
    for _ in 0..n_conns {
        io_conns.push(IoConn::from(decode_conn(&body, &mut pos)?));
    }

    let n_pages =
        usize::try_from(varint::get_u64(&body, &mut pos)?).map_err(|_| ImageError::Malformed {
            what: "app page count",
        })?;
    let mut app_pages = Vec::with_capacity(n_pages.min(body.len()));
    for _ in 0..n_pages {
        let vpn = varint::get_u64(&body, &mut pos)?;
        // Zero-copy: each page is a frame over a view into the decompressed
        // body (or, for stored streams, into the image itself).
        let data = varint::get_bytes_view(&body, &mut pos)?;
        if data.len() != memsim::PAGE_SIZE {
            return Err(ImageError::Truncated { what: "app page" });
        }
        app_pages.push(PagePayload {
            vpn,
            data: FrameRef::from_image_slice(data),
        });
    }

    let counts = ClassicCounts {
        packed_bytes: len64(packed.len()),
        body_bytes: len64(body.len()),
        objects: len64(n_objs),
        app_bytes: len64(app_pages.len() * memsim::PAGE_SIZE),
    };
    Ok((
        CheckpointSource {
            objects,
            app_pages,
            io_conns,
        },
        counts,
    ))
}

pub(crate) fn encode_record(out: &mut Vec<u8>, obj: &ObjRecord) {
    varint::put_u64(out, obj.id);
    varint::put_u64(out, u64::from(obj.kind.code()));
    varint::put_u64(out, u64::from(obj.flags));
    varint::put_u64(out, len64(obj.refs.len()));
    for r in &obj.refs {
        varint::put_u64(out, *r);
    }
    varint::put_bytes(out, &obj.payload);
}

pub(crate) fn decode_record(buf: &SharedBytes, pos: &mut usize) -> Result<ObjRecord, ImageError> {
    let id = varint::get_u64(buf, pos)?;
    let code = u16::try_from(varint::get_u64(buf, pos)?).map_err(|_| ImageError::Malformed {
        what: "object kind code",
    })?;
    let kind = ObjKind::from_code(code).ok_or(ImageError::BadObjKind { code })?;
    let flags = u32::try_from(varint::get_u64(buf, pos)?).map_err(|_| ImageError::Malformed {
        what: "object flags",
    })?;
    let n_refs = usize::try_from(varint::get_u64(buf, pos)?)
        .map_err(|_| ImageError::Malformed { what: "ref count" })?;
    if n_refs > 1 << 20 {
        return Err(ImageError::Truncated { what: "refs" });
    }
    let mut refs = Vec::with_capacity(n_refs);
    for _ in 0..n_refs {
        let r = varint::get_u64(buf, pos)?;
        if r == REF_PLACEHOLDER {
            return Err(ImageError::Truncated {
                what: "ref placeholder in classic image",
            });
        }
        refs.push(r);
    }
    // The payload is a zero-copy view of the decompressed stream; the
    // stream-level decompression cost is still the classic format's tax.
    let payload = varint::get_bytes_view(buf, pos)?;
    Ok(ObjRecord {
        id,
        kind,
        flags,
        refs,
        payload,
    })
}

pub(crate) fn encode_conn(out: &mut Vec<u8>, conn: &IoConn) {
    out.push(match conn.kind {
        IoConnKind::File => 0,
        IoConnKind::Socket => 1,
    });
    out.push(u8::from(conn.used_immediately));
    out.push(u8::from(conn.writable));
    varint::put_bytes(out, conn.target.as_bytes());
}

/// The connection at `*pos` of `buf` as it lies: its kind, its
/// `used_immediately` and `writable` hints, and its target's bytes, not yet
/// checked to be UTF-8.
pub(crate) fn conn_fields<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<(IoConnKind, bool, bool, &'a [u8]), ImageError> {
    let get_byte = |pos: &mut usize| -> Result<u8, ImageError> {
        let b = *buf
            .get(*pos)
            .ok_or(ImageError::Truncated { what: "io conn" })?;
        *pos += 1;
        Ok(b)
    };
    let kind = match get_byte(pos)? {
        0 => IoConnKind::File,
        1 => IoConnKind::Socket,
        _ => {
            return Err(ImageError::Truncated {
                what: "io conn kind",
            })
        }
    };
    let used_immediately = get_byte(pos)? != 0;
    let writable = get_byte(pos)? != 0;
    Ok((
        kind,
        used_immediately,
        writable,
        varint::get_bytes(buf, pos)?,
    ))
}

/// A connection target that is not UTF-8.
fn bad_target() -> ImageError {
    ImageError::Truncated {
        what: "io conn target",
    }
}

/// Checks the connection at `*pos` of `buf` as [`decode_conn`] reads it,
/// with the same errors, and steps over it. An ASCII target — every path and
/// address a checkpoint writes — is checked a word at a time.
pub(crate) fn check_conn(buf: &[u8], pos: &mut usize) -> Result<(), ImageError> {
    let (.., target) = conn_fields(buf, pos)?;
    if target.is_ascii() || std::str::from_utf8(target).is_ok() {
        return Ok(());
    }
    Err(bad_target())
}

/// The connection at `*pos` of `buf`, read in place.
pub(crate) fn decode_conn<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<IoConnView<'a>, ImageError> {
    let (kind, used_immediately, writable, target) = conn_fields(buf, pos)?;
    Ok(IoConnView {
        kind,
        target: std::str::from_utf8(target).map_err(|_| bad_target())?,
        used_immediately,
        writable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimNanos;

    fn sample_source() -> CheckpointSource {
        CheckpointSource {
            objects: (0..100)
                .map(|i| {
                    ObjRecord::new(
                        i,
                        ObjKind::ALL[(i % 14) as usize],
                        i as u32,
                        vec![(i + 1) % 100, (i + 7) % 100],
                        vec![i as u8; (i % 32) as usize],
                    )
                })
                .collect(),
            app_pages: (0..4)
                .map(|i| PagePayload {
                    vpn: 0x1000 + i,
                    data: FrameRef::from_bytes(&[i as u8; memsim::PAGE_SIZE]),
                })
                .collect(),
            io_conns: vec![
                IoConn::file("/lib/libc.so", true),
                IoConn::socket("127.0.0.1:8080", false),
            ],
        }
    }

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn round_trip_identity() {
        let (clock, model) = setup();
        let src = sample_source();
        let image = write(&src, &clock, &model);
        let back = read(&image, &clock, &model).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn restore_charges_per_object() {
        let model = CostModel::experimental_machine();
        let src = sample_source();
        let image = write(&src, &SimClock::new(), &model);
        let clock = SimClock::new();
        read(&image, &clock, &model).unwrap();
        let floor = model
            .obj
            .decode_per_object
            .saturating_mul(src.objects.len() as u64);
        assert!(clock.now() >= floor, "decode cost must scale with objects");
    }

    #[test]
    fn bad_magic_rejected() {
        let (clock, model) = setup();
        let mut image = write(&sample_source(), &clock, &model).to_vec();
        image[0] = b'X';
        assert_eq!(
            read(&SharedBytes::from(image), &clock, &model).unwrap_err(),
            ImageError::BadMagic
        );
    }

    #[test]
    fn bad_version_rejected() {
        let (clock, model) = setup();
        let mut image = write(&sample_source(), &clock, &model).to_vec();
        image[4] = 99;
        assert!(matches!(
            read(&SharedBytes::from(image), &clock, &model).unwrap_err(),
            ImageError::BadVersion { found: 99 }
        ));
    }

    #[test]
    fn corruption_fails_checksum() {
        let (clock, model) = setup();
        let mut image = write(&sample_source(), &clock, &model).to_vec();
        let mid = 20 + (image.len() - 20) / 2;
        image[mid] ^= 0xFF;
        assert!(matches!(
            read(&SharedBytes::from(image), &clock, &model).unwrap_err(),
            ImageError::Checksum { .. }
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let (clock, model) = setup();
        let image = write(&sample_source(), &clock, &model);
        let cut = image.slice(0..10);
        assert!(read(&cut, &clock, &model).is_err());
    }

    #[test]
    fn stored_body_is_viewed_in_place() {
        // One high-entropy page: nothing to back-reference, so the body is a
        // stored stream and the restored page is a view into the image.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..memsim::PAGE_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let src = CheckpointSource {
            app_pages: vec![PagePayload {
                vpn: 9,
                data: FrameRef::from_bytes(&noise),
            }],
            ..CheckpointSource::default()
        };
        let (clock, model) = setup();
        let image = write(&src, &clock, &model);
        let back = read(&image, &clock, &model).unwrap();
        assert_eq!(back, src);
        let page = back.app_pages[0].data.bytes();
        assert!(
            image.as_ptr_range().contains(&page.as_ptr()),
            "a stored page must not be copied out of the image"
        );
    }

    #[test]
    fn empty_source_round_trips() {
        let (clock, model) = setup();
        let src = CheckpointSource::default();
        let image = write(&src, &clock, &model);
        assert_eq!(read(&image, &clock, &model).unwrap(), src);
    }

    #[test]
    fn checkpoint_is_offline_restore_is_critical() {
        // Write (offline) and read (critical) charge different clocks; both
        // must be nonzero for a non-trivial source.
        let model = CostModel::experimental_machine();
        let off = SimClock::new();
        let image = write(&sample_source(), &off, &model);
        assert!(off.now() > SimNanos::ZERO);
        let on = SimClock::new();
        read(&image, &on, &model).unwrap();
        assert!(on.now() > SimNanos::ZERO);
    }
}
