//! CRC-32 (reflected IEEE 802.3 polynomial): the integrity check every image
//! section carries, computed by the writer and again by every read of the
//! section.
//!
//! Safe Rust, no dependency, no intrinsics, two loops behind one function.
//!
//! **Short pieces** go through slicing-by-16 over tables built at compile
//! time: a 16-byte block folds with sixteen independent lookups, but the next
//! block's lookups are indexed by the register this one leaves, so the loop
//! advances at the latency of that chain.
//!
//! **Long pieces** (from [`SPARSE_MIN`] bytes) are first rewritten, without
//! changing their checksum, so that all but their last [`SPAN`] 64-bit words
//! are zero — and zero words fed to a zero register leave it zero. A zero
//! register fed a message ends as the message times `x^32` modulo the
//! polynomial P, so adding a multiple of P to the message changes nothing,
//! and with `y = x^64` (one word)
//!
//! ```text
//! 1 + y^89 + y^117 + y^155 + y^300 ≡ 0 (mod P)
//! ```
//!
//! (asserted at compile time below). Adding a word times this multiple
//! clears the word and xors it into the words 145, 183, 211 and 300 places
//! later. Done front to back for every word but the last 300, that is the
//! recurrence `e_i = w_i ⊕ e_{i−145} ⊕ e_{i−183} ⊕ e_{i−211} ⊕ e_{i−300}`
//! — no lookup and no carried register, and as the nearest tap is 145 words
//! back, any [`BLOCK`] consecutive words are independent: five loads, four
//! xors and a store a word, which the compiler vectorises with baseline SSE2.
//! The last 300 words, with what the cleared ones added to them, go through
//! the table loop from a zero register: 2,400 bytes whatever the piece's
//! length. (zlib-ng ships the same idea as "Chorba".) Same polynomial, same
//! values as the bit-at-a-time definition, which survives as the test
//! oracle.

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;
/// Bytes folded per step of the table loop (slicing-by-16).
const LANES: usize = 16;

/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k` zero
/// bytes, so a whole 16-byte block folds with 16 independent lookups
/// instead of 16 dependent ones. Built at compile time: a call pays no
/// table setup, which matters for the 370 B manifests as much as the loop
/// does for the long sections.
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
/// wrong restore. The writer checksums every byte of an image once, and each
/// restore checksums the metadata sections it reads again (the heap pages
/// are mapped on demand, not re-read), so a long piece takes the sparse loop
/// and a short one the table loop (module docs).
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

/// Words from the first term of the sparse multiple to its last: a cleared
/// word's last copy lands `SPAN` words after it.
const SPAN: usize = 300;
/// How many words after a cleared word each of its four copies is xor-ed in:
/// `SPAN` minus the exponents 155, 117, 89 and 0 of the multiple's other
/// terms.
const TAPS: [usize; 4] = [145, 183, 211, SPAN];

/// The multiple vanishes: `y^SPAN + Σ y^(SPAN − tap) ≡ 0 (mod P)`, `y = x^64`.
const _: () = {
    let mut sum = x8n_modp(8 * SPAN);
    let mut k = 0;
    while k < TAPS.len() {
        sum ^= x8n_modp(8 * (SPAN - TAPS[k]));
        k += 1;
    }
    assert!(sum == 0, "not a multiple of the CRC-32 polynomial");
};

/// Words the sparse loop folds per step. No more than the nearest tap, so no
/// word of a block reads another.
const BLOCK: usize = 128;
/// Blocks folded between two slides of the window (module docs): 16 KiB of
/// words behind 2,400 B of history, inside L1.
const WINDOW_BLOCKS: usize = 16;
const _: () = assert!(BLOCK <= TAPS[0]);

/// Pieces from this long take the sparse loop. It must reach at least the
/// `SPAN` words that go through the table loop anyway; past the window's
/// setup the sparse loop wins from ≈ 3.2 KB on the machine measured
/// (DESIGN.md §4), and a page leaves a margin for one whose table loop is
/// faster.
const SPARSE_MIN: usize = 4096;
const _: () = assert!(SPARSE_MIN >= 8 * SPAN);

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

/// The table loop: the register after `data`, a block at a time and the
/// < 16-byte tail a byte at a time.
fn fold_table(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<LANES>();
    for block in blocks {
        crc = fold_block(crc, block);
    }
    for &byte in tail {
        crc = TABLES[0][usize::from(byte ^ crc.to_le_bytes()[0])] ^ (crc >> 8);
    }
    crc
}

/// The sparse loop (module docs): the register after `words`, of which
/// there are at least `SPAN`. Every word but the last `SPAN` is cleared into
/// the words after it, and the last `SPAN`, with what was added to them, go
/// through the table loop from zero.
fn fold_sparse(crc: u32, words: &[[u8; 8]]) -> u32 {
    let (cleared, last) = words.split_at(words.len() - SPAN);
    // `window[..SPAN]` holds the `SPAN` folded words before the next block;
    // blocks are folded in behind them, then the newest `SPAN` slide to the
    // front. The running register is seeded `SPAN` words before the first
    // word, so the last tap xors it into that word's first four bytes: a
    // reflected CRC's register is what its next four input bytes are xor-ed
    // with, so from there on the fold runs from zero.
    let mut window = [0u64; SPAN + WINDOW_BLOCKS * BLOCK];
    window[0] = u64::from(crc);
    for run in cleared.chunks(WINDOW_BLOCKS * BLOCK) {
        for (at, block) in (SPAN..).step_by(BLOCK).zip(run.chunks(BLOCK)) {
            let (behind, ahead) = window.split_at_mut(at);
            let [a, b, c, d] = TAPS.map(|tap| &behind[at - tap..][..block.len()]);
            let taps = a.iter().zip(b).zip(c.iter().zip(d));
            for ((e, w), ((a, b), (c, d))) in ahead.iter_mut().zip(block).zip(taps) {
                *e = u64::from_le_bytes(*w) ^ a ^ b ^ c ^ d;
            }
        }
        window.copy_within(run.len()..run.len() + SPAN, 0);
    }
    let mut residue = [0u64; SPAN];
    for (r, w) in residue.iter_mut().zip(last) {
        *r = u64::from_le_bytes(*w);
    }
    // The copies of cleared words that land in the last `SPAN`: tap `t`
    // reaches the first `t` of them, from the `t` newest cleared words.
    for tap in TAPS {
        for (r, e) in residue.iter_mut().zip(&window[SPAN - tap..SPAN]) {
            *r ^= e;
        }
    }
    fold_table(0, residue.map(u64::to_le_bytes).as_flattened())
}

/// A CRC-32 in progress, for a section whose bytes arrive in pieces: the
/// func-image writer checksums the heap pages a batch at a time as it places
/// them, while they are still in cache, instead of re-reading the finished
/// section from memory. Folding the pieces of a buffer in order, split
/// anywhere, gives [`crc32`] of the whole.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32(!0)
    }

    /// A piece of [`SPARSE_MIN`] bytes or more takes the sparse loop over its
    /// whole words, the rest the table loop; both continue from the running
    /// register.
    pub(crate) fn fold(&mut self, data: &[u8]) {
        self.0 = if data.len() >= SPARSE_MIN {
            let (words, tail) = data.as_chunks::<8>();
            fold_table(fold_sparse(self.0, words), tail)
        } else {
            fold_table(self.0, data)
        };
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time and table-free: the oracle both
    /// loops are held to.
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

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 251) as u8).collect()
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

    /// The lengths where `fold` changes course, each from start offsets 0–8
    /// (so whole words begin at every alignment and end before every tail
    /// length) and each also folded from a live register: either side of the
    /// sparse threshold; a cleared run one word either side of the span, where
    /// the last tap first reads a folded word instead of the register; one
    /// either side of the window's slide; and a metadata arena's size.
    #[test]
    fn agrees_with_the_bitwise_definition_where_the_loops_change() {
        const RUN: usize = WINDOW_BLOCKS * BLOCK;
        let lengths = [
            SPARSE_MIN - 1,
            SPARSE_MIN,
            SPARSE_MIN + 1,
            8 * (2 * SPAN - 1),
            8 * 2 * SPAN,
            8 * (2 * SPAN + 1) + 5,
            8 * (SPAN + RUN - 1),
            8 * (SPAN + RUN),
            8 * (SPAN + RUN + 1) + 3,
            2_300_000,
        ];
        let data = pattern(2_300_000 + 8);
        for len in lengths {
            for start in 0..=8 {
                let window = &data[start..start + len];
                assert_eq!(crc32(window), crc32_bitwise(window), "{len} B from {start}");
                let mut crc = Crc32::new();
                crc.fold(&data[..start]);
                crc.fold(window);
                assert_eq!(
                    crc.finish(),
                    crc32_bitwise(&data[..start + len]),
                    "{len} B from {start}, live register"
                );
            }
        }
    }

    /// The multiple the sparse loop adds, the slow way: a message that is
    /// one word times it, at any distance from the end, is zero mod P, so its
    /// register from zero stays zero.
    #[test]
    fn the_sparse_multiple_is_invisible_to_the_table_loop() {
        for zeros_after in [0, 1, 7, 300] {
            let mut message = vec![0u8; 8 * (SPAN + 1 + zeros_after)];
            for at in [0].into_iter().chain(TAPS) {
                message[8 * at..8 * at + 8]
                    .copy_from_slice(&0xDEAD_BEEF_0123_4567u64.to_le_bytes());
            }
            assert_eq!(fold_table(0, &message), 0, "{zeros_after} words after");
        }
    }

    /// `multmodp` and `x8n_modp` prove the multiple at compile time; here
    /// they shift the checksum of a front piece past a back piece, and adding
    /// the back's gives the checksum of the whole (zlib's `crc32_combine`).
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

        /// Every start offset 0..16 of a random buffer, at lengths either
        /// side of the sparse threshold: exercises every head alignment and,
        /// across lengths, every tail length, on both loops.
        #[test]
        fn agrees_with_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..=3 * SPARSE_MIN),
        ) {
            for start in 0..LANES.min(data.len() + 1) {
                let window = &data[start..];
                prop_assert_eq!(crc32(window), crc32_bitwise(window), "start {}", start);
            }
        }

        /// Any split of a buffer folds to the checksum of the whole: empty
        /// pieces, pieces shorter than a lane block (so every block of the
        /// whole is cut somewhere, and each piece ends in the byte-wise
        /// tail), and pieces long enough for the sparse loop that start
        /// mid-word.
        #[test]
        fn folding_any_split_equals_the_whole(
            data in proptest::collection::vec(any::<u8>(), 0..=4 * SPARSE_MIN),
            cuts in proptest::collection::vec((any::<u16>(), 0u8..4), 0..24),
        ) {
            let mut crc = Crc32::new();
            let mut rest = &data[..];
            for (len, kind) in cuts {
                let len = match kind {
                    0 => 0,
                    1 => usize::from(len) % LANES,
                    _ => SPARSE_MIN / 2 + usize::from(len) % (2 * SPARSE_MIN),
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
