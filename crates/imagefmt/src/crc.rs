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
/// written, once per cold restore), so the kernel is table-sliced; the
/// byte-at-a-time loop only handles the < 16-byte tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.fold(data);
    crc.finish()
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

    pub(crate) fn fold(&mut self, data: &[u8]) {
        let (blocks, tail) = data.as_chunks::<LANES>();
        let mut crc = self.0;
        for block in blocks {
            let mut lanes = *block;
            for (lane, c) in lanes.iter_mut().zip(crc.to_le_bytes()) {
                *lane ^= c;
            }
            // The first byte of the block is the one followed by the most
            // zeros, hence the reversed table order.
            crc = TABLES
                .iter()
                .rev()
                .zip(lanes)
                .fold(0, |acc, (table, b)| acc ^ table[usize::from(b)]);
        }
        for &byte in tail {
            crc = TABLES[0][usize::from(byte ^ crc.to_le_bytes()[0])] ^ (crc >> 8);
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
