//! CRC-32 (reflected IEEE 802.3 polynomial): the integrity check every image
//! section carries, computed once by the writer and again by every restore.
//!
//! One kernel, safe Rust, no dependency: slicing-by-16 over tables built at
//! compile time, run as **two streams**. A 16-byte block folds with sixteen
//! independent table lookups, but the next block's lookups are indexed by
//! the register this one leaves, so a single stream advances at the latency
//! of that chain (xor → load → xor-reduce, ≈ 2 GiB/s here) while the load
//! ports sit half idle. [`Crc32::fold`] therefore cuts a piece of 512 B or
//! more into two halves of whole blocks and steps both in one loop — two
//! chains in flight, ≈ 3.6 GiB/s on a 2.3 MB metadata arena and on a 4 KiB
//! heap page alike — then joins them: the register is linear in its input,
//! so the front half's register, multiplied by `x^(8·len)` modulo the
//! polynomial (`multmodp`, the arithmetic of zlib's `crc32_combine`), is
//! what it would have been after `len` more zero bytes, and xor-ing the back
//! half's register (started from zero) onto it gives the register of the
//! whole. The power is a product of precomputed squares, one factor per set
//! bit of `len`; for a heap page's 2 KiB half it is a constant. Same
//! polynomial, same values as the bit-at-a-time definition, which survives
//! as the test oracle.

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;
/// Bytes folded per step of the main loop (slicing-by-16).
const LANES: usize = 16;

/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k` zero
/// bytes, so a whole 16-byte block folds with 16 independent lookups
/// instead of 16 dependent ones. Built at compile time: a call pays no
/// table setup, which matters for the 370 B manifests as much as the loop
/// does for the heap pages.
static TABLES: [[u32; 256]; LANES] = build_tables();

const fn build_tables() -> [[u32; 256]; LANES] {
    let mut t = [[0u32; 256]; LANES];
    let mut byte = 0u32;
    while byte < 256 {
        let mut c = byte;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][byte as usize] = c;
        byte += 1;
    }
    let mut k = 1;
    while k < LANES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards every image section so
/// corruption is detected at parse time rather than producing a silently
/// wrong restore. Every image byte passes through here at least twice (once
/// written, once per cold restore), so the kernel is table-sliced and run as
/// two streams; the byte-at-a-time loop only handles the < 16-byte tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.fold(data);
    crc.finish()
}

/// `a · b mod P` over GF(2), in the register's reflected bit order (bit 31
/// is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        // Masks, not branches: the bits of a register are coin flips.
        product ^= b & 0u32.wrapping_sub((a >> (31 - bit)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        bit += 1;
    }
    product
}

/// `SQUARES[k]` is `x^(2^k) mod P`. `x` has an order dividing `2^32 - 1`, so
/// the squares repeat with period 32.
const SQUARES: [u32; 32] = {
    let mut t = [1 << 30; 32];
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8n) mod P`: multiplying a register by it is feeding it `n` zero
/// bytes, in one `multmodp` per set bit of `n` instead of `n` table steps.
const fn x8n_modp(mut n: usize) -> u32 {
    let mut power = 1 << 31;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(SQUARES[k & 31], power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

/// Below this a piece stays on the serial loop: the join is a `multmodp` or
/// three, which a few hundred bytes of overlap do not pay back.
const TWO_STREAM_MIN: usize = 512;

/// The shift that joins the two streams of a heap page, the one piece length
/// the func-image writer folds tens of thousands of times over.
const HALF_PAGE: usize = 2048;
const HALF_PAGE_SHIFT: u32 = x8n_modp(HALF_PAGE);

/// One slicing-by-16 step: the register after `block`.
#[inline(always)]
fn fold_block(crc: u32, block: &[u8; LANES]) -> u32 {
    let mut lanes = *block;
    for (lane, c) in lanes.iter_mut().zip(crc.to_le_bytes()) {
        *lane ^= c;
    }
    // The first byte of the block is the one followed by the most zeros,
    // hence the reversed table order.
    TABLES
        .iter()
        .rev()
        .zip(lanes)
        .fold(0, |acc, (table, b)| acc ^ table[usize::from(b)])
}

/// One byte-at-a-time step, for the tail behind the last whole block.
fn fold_byte(crc: u32, byte: u8) -> u32 {
    TABLES[0][usize::from(byte ^ crc.to_le_bytes()[0])] ^ (crc >> 8)
}

/// A CRC-32 in progress, for a section whose bytes arrive in pieces: the
/// func-image writer checksums each heap page as it places it, while the
/// page is still in cache, instead of re-reading the finished section from
/// memory. Folding the pieces of a buffer in order, split anywhere, gives
/// [`crc32`] of the whole.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32(!0)
    }

    /// A long piece runs as two streams (module docs): its halves of whole
    /// blocks advance side by side — the front from the running register,
    /// the back from zero — and are joined as `front · x^(8·len) ⊕ back`.
    pub(crate) fn fold(&mut self, data: &[u8]) {
        let (blocks, tail) = data.as_chunks::<LANES>();
        let mut crc = self.0;
        let mut rest = blocks;
        if data.len() >= TWO_STREAM_MIN {
            let (front, after) = blocks.split_at(blocks.len() / 2);
            let (back, odd) = after.split_at(front.len());
            let mut behind = 0;
            for (a, b) in front.iter().zip(back) {
                crc = fold_block(crc, a);
                behind = fold_block(behind, b);
            }
            let shift = match front.len() * LANES {
                HALF_PAGE => HALF_PAGE_SHIFT,
                len => x8n_modp(len),
            };
            crc = multmodp(shift, crc) ^ behind;
            rest = odd;
        }
        for block in rest {
            crc = fold_block(crc, block);
        }
        for &byte in tail {
            crc = fold_byte(crc, byte);
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::PAGE_SIZE as PAGE;
    use proptest::prelude::*;

    /// The definition, one bit at a time and table-free: the oracle the
    /// sliced kernel is held to.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Pinned from the byte-at-a-time implementation this one replaced.
        assert_eq!(crc32(&vec![0x5Au8; 1 << 20]), 0x8D02_798E);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xABu8; 1024];
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    /// The lengths where `fold` changes loops: either side of the two-stream
    /// threshold, an odd block count (one block left behind the halves), a
    /// tail behind that, and the heap page with its precomputed shift.
    #[test]
    fn agrees_with_the_bitwise_definition_around_the_two_stream_threshold() {
        const T: usize = TWO_STREAM_MIN;
        let data: Vec<u8> = (0..4 * T + 2 * PAGE)
            .map(|i| (i * 131 + i / 251) as u8)
            .collect();
        let lengths = [
            (T - LANES - 1)..=(T + 2 * LANES + 1),
            (2 * T - 1)..=(2 * T + LANES - 1),
            (PAGE - 1)..=(PAGE + 1),
        ];
        for len in lengths.into_iter().flatten() {
            for start in [0, 1, 7] {
                let window = &data[start..start + len];
                assert_eq!(crc32(window), crc32_bitwise(window), "{len} B from {start}");
                // Mid-section: the front stream starts from a live register.
                let mut crc = Crc32::new();
                crc.fold(&data[..start]);
                crc.fold(window);
                assert_eq!(crc.finish(), crc32_bitwise(&data[..start + len]));
            }
        }
    }

    #[test]
    fn the_half_page_shift_is_the_runtime_power() {
        assert_eq!(HALF_PAGE, PAGE / 2);
        assert_eq!(HALF_PAGE_SHIFT, x8n_modp(2048));
        // The power itself, the slow way: 2048 zero bytes fed to `x^0`.
        let mut power = 1u32 << 31;
        for _ in 0..2048 {
            power = fold_byte(power, 0);
        }
        assert_eq!(HALF_PAGE_SHIFT, power);
    }

    /// `multmodp` is what joins the streams: shifting the checksum of a
    /// front piece past the back piece and adding the back's gives the
    /// checksum of the whole (zlib's `crc32_combine`).
    #[test]
    fn multmodp_combines_the_checksums_of_a_split_buffer() {
        assert_eq!(multmodp(1 << 31, 0xDEAD_BEEF), 0xDEAD_BEEF, "x^0 is one");
        assert_eq!(multmodp(1 << 30, 1 << 30), 1 << 29, "x · x");
        assert_eq!(multmodp(1 << 30, 1), POLY, "x · x^31 wraps through P");
        let (front, back) = (b"1234", b"56789");
        assert_eq!(
            multmodp(x8n_modp(back.len()), crc32(front)) ^ crc32(back),
            0xCBF4_3926
        );
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for cut in [0, 1, 15, 16, 1499, 2048, 2999, 3000] {
            let (front, back) = data.split_at(cut);
            assert_eq!(
                multmodp(x8n_modp(back.len()), crc32(front)) ^ crc32(back),
                crc32(&data),
                "cut at {cut}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every start offset 0..16 of a random buffer: exercises every
        /// head alignment and, across lengths, every tail length.
        #[test]
        fn agrees_with_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..=8192 + LANES),
        ) {
            for start in 0..LANES.min(data.len() + 1) {
                let window = &data[start..];
                prop_assert_eq!(crc32(window), crc32_bitwise(window), "start {}", start);
            }
        }

        /// Any split of a buffer folds to the checksum of the whole: empty
        /// pieces, pieces shorter than a lane block (so every block of the
        /// whole is cut somewhere, and each piece ends in the byte-wise
        /// tail), and long pieces that start mid-block.
        #[test]
        fn folding_any_split_equals_the_whole(
            data in proptest::collection::vec(any::<u8>(), 0..=4096 + LANES),
            cuts in proptest::collection::vec((any::<u16>(), 0u8..4), 0..24),
        ) {
            let mut crc = Crc32::new();
            let mut rest = &data[..];
            for (len, kind) in cuts {
                let len = match kind {
                    0 => 0,
                    1 => usize::from(len) % LANES,
                    _ => usize::from(len),
                };
                let (piece, after) = rest.split_at(len.min(rest.len()));
                crc.fold(piece);
                rest = after;
            }
            crc.fold(rest);
            let folded = crc.finish();
            prop_assert_eq!(folded, crc32(&data));
            prop_assert_eq!(folded, crc32_bitwise(&data));
        }
    }
}
