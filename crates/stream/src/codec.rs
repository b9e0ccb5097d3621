//! Zero-dependency codecs for the compressed spill-run format.
//!
//! Three primitives, all hand-rolled so the workspace stays free of
//! external crates:
//!
//! * **CRC-32C** (Castagnoli, [`crc32c`]) — the per-block checksum.  On
//!   x86_64 with SSE4.2 it runs the `crc32` instruction over 8-byte words
//!   (about 7 GB/s on a 2-CPU Xeon, against 0.35 GB/s for a byte-at-a-time
//!   table); elsewhere a slicing-by-8 table loop computes the same
//!   function.  The CPU check is made on each call
//!   ([`std::arch::is_x86_feature_detected`] caches it), so there is no
//!   setting.
//! * **LEB128 varints** — the sorted `u64` keys of a run are monotone, so
//!   each block stores the first key absolute and the rest as unsigned
//!   deltas; small deltas encode in one byte.
//! * **A mini-LZ77 byte compressor** ([`LzCompressor`] / `lz_decompress`)
//!   in the LZ4 block style: token bytes packing literal/match lengths in
//!   two nibbles with 255-chained extensions, `u16 LE` match offsets,
//!   minimum match length 4, and a literals-only final sequence.  The
//!   matcher is LZ4's accelerated one: a single-entry hash table of 4-byte
//!   prefixes (one table per compressor, reused for every block of a run),
//!   a step that grows by one byte every 64 misses so incompressible data
//!   is skimmed instead of probed at every byte, and match extension 8
//!   bytes at a time.  The decompressor is bounded by the caller's
//!   expected output size, so corrupt input cannot over-allocate.
//!
//! None of the primitives knows about records or blocks; framing lives in
//! `spill.rs`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::io;

/// Minimum match length the compressor emits (and the bias added to the
/// token's match nibble on decode).
const MIN_MATCH: usize = 4;
/// Size of the match-candidate hash table, as a power of two.
const HASH_BITS: u32 = 13;
/// Largest back-reference distance an offset can express.
const MAX_OFFSET: usize = u16::MAX as usize;
/// Misses between two increments of the compressor's search step: the
/// step is `1 + misses / 2^SKIP_TRIGGER` (LZ4's `LZ4_skipTrigger`).
const SKIP_TRIGGER: u32 = 6;
/// The reflected CRC-32C (Castagnoli) polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt block: {what}"))
}

/// CRC-32C (Castagnoli, reflected, poly `0x82F63B78`) over `data`,
/// continuing from `state` (pass 0 to start; chain calls to checksum a
/// logical concatenation).  The per-block checksum of the compressed
/// spill format, on both the write and the read side.
pub(crate) fn crc32c(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` only needs SSE4.2, which the CPU was
        // just checked to support.
        return unsafe { crc32c_sse42(state, data) };
    }
    crc32c_sw(state, data)
}

/// [`crc32c`] on the SSE4.2 `crc32` instruction, 8 bytes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!state);
    for word in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().unwrap()));
    }
    let mut crc = crc as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    !crc
}

/// Slicing-by-8 tables: `T[0]` is the bytewise table, and `T[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// [`crc32c`] in portable code: slicing-by-8 over 8-byte words, then a
/// byte at a time.
fn crc32c_sw(state: u32, data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut words = data.chunks_exact(8);
    let mut crc = !state;
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(word[4..].try_into().unwrap());
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Append `x` as an unsigned LEB128 varint (1–10 bytes).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Read an unsigned LEB128 varint from the front of `src`, advancing it.
#[inline]
pub(crate) fn read_varint(src: &mut &[u8]) -> io::Result<u64> {
    // Most key deltas of a sorted run fit in one byte.
    if let [byte, rest @ ..] = *src {
        if *byte < 0x80 {
            *src = rest;
            return Ok(u64::from(*byte));
        }
    }
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = src.first().ok_or_else(|| corrupt("truncated varint"))?;
        *src = &src[1..];
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        x |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn load4(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(src[i..i + 4].try_into().unwrap())
}

#[inline]
fn load8(src: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(src[i..i + 8].try_into().unwrap())
}

/// Length of the common prefix of `src[earlier..]` and `src[later..]`
/// (`earlier < later`), stopping at the end of `src`: 8 bytes per step,
/// the first differing byte found by the lowest set bit of the XOR.
#[inline]
fn match_len(src: &[u8], earlier: usize, later: usize) -> usize {
    let mut n = 0;
    while later + n + 8 <= src.len() {
        let diff = load8(src, earlier + n) ^ load8(src, later + n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while later + n < src.len() && src[earlier + n] == src[later + n] {
        n += 1;
    }
    n
}

/// Emit one LZ sequence: `lit` literals followed by a match of `len`
/// bytes at back-distance `offset` (`offset == 0` means final
/// literals-only sequence, no match part).
fn emit_sequence(out: &mut Vec<u8>, lit: &[u8], offset: usize, len: usize) {
    let mlen = if offset == 0 { 0 } else { len - MIN_MATCH };
    let token = ((lit.len().min(15) as u8) << 4) | (mlen.min(15) as u8);
    out.push(token);
    if lit.len() >= 15 {
        let mut rest = lit.len() - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
    out.extend_from_slice(lit);
    if offset == 0 {
        return;
    }
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if mlen >= 15 {
        let mut rest = mlen - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// The LZ compressor of one spilled run: owns the match-candidate hash
/// table, so a run's blocks share one allocation.
pub(crate) struct LzCompressor {
    /// Position + 1 of the last 4-byte prefix seen per hash; 0 = empty.
    table: Box<[u32; 1 << HASH_BITS]>,
}

impl LzCompressor {
    pub(crate) fn new() -> Self {
        Self {
            table: Box::new([0; 1 << HASH_BITS]),
        }
    }

    /// Compress `src` into `out` (appending).  Always succeeds; worst case
    /// the output is slightly larger than the input (the caller falls back
    /// to storing raw when that happens).  Each call is independent of
    /// the ones before it: the table is cleared first, so a match never
    /// reaches into an earlier block.
    pub(crate) fn compress(&mut self, src: &[u8], out: &mut Vec<u8>) {
        let table = &mut self.table;
        table.fill(0);
        let mut i = 0usize;
        let mut anchor = 0usize;
        let mut misses = 0usize;
        while i + MIN_MATCH <= src.len() {
            let prefix = load4(src, i);
            let h = hash4(prefix);
            let cand = table[h] as usize;
            table[h] = (i + 1) as u32;
            if cand > 0 {
                let c = cand - 1;
                if i - c <= MAX_OFFSET && load4(src, c) == prefix {
                    let len = MIN_MATCH + match_len(src, c + MIN_MATCH, i + MIN_MATCH);
                    emit_sequence(out, &src[anchor..i], i - c, len);
                    i += len;
                    anchor = i;
                    misses = 0;
                    continue;
                }
            }
            i += 1 + (misses >> SKIP_TRIGGER);
            misses += 1;
        }
        emit_sequence(out, &src[anchor..], 0, 0);
    }
}

/// Decompress `src` into `out` (appending), producing exactly
/// `expected_len` new bytes.  Any framing violation — truncated input,
/// an offset reaching before the block, or a length that would overshoot
/// `expected_len` — is `InvalidData`, never a panic or an unbounded
/// allocation.
pub(crate) fn lz_decompress(
    mut src: &[u8],
    out: &mut Vec<u8>,
    expected_len: usize,
) -> io::Result<()> {
    let base = out.len();
    let limit = base + expected_len;
    out.reserve(expected_len);
    let read_ext = |src: &mut &[u8]| -> io::Result<usize> {
        let mut total = 0usize;
        loop {
            let &b = src.first().ok_or_else(|| corrupt("truncated length"))?;
            *src = &src[1..];
            total += b as usize;
            if b != 255 {
                return Ok(total);
            }
        }
    };
    while !src.is_empty() {
        let token = src[0];
        src = &src[1..];
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_ext(&mut src)?;
        }
        if lit_len > src.len() {
            return Err(corrupt("literal run past end of input"));
        }
        if out.len() + lit_len > limit {
            return Err(corrupt("literal run past expected output size"));
        }
        out.extend_from_slice(&src[..lit_len]);
        src = &src[lit_len..];
        if src.is_empty() {
            break; // final literals-only sequence
        }
        if src.len() < 2 {
            return Err(corrupt("truncated match offset"));
        }
        let offset = u16::from_le_bytes([src[0], src[1]]) as usize;
        src = &src[2..];
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen += read_ext(&mut src)?;
        }
        mlen += MIN_MATCH;
        if offset == 0 || offset > out.len() - base {
            return Err(corrupt("match offset outside the block"));
        }
        if out.len() + mlen > limit {
            return Err(corrupt("match run past expected output size"));
        }
        // A match copies from `offset` bytes back.  Overlapping copies
        // (offset < mlen) are how the format expresses runs: the bytes
        // from `start` repeat with period `offset`, so copy whole periods,
        // doubling each pass.  A non-overlapping match is a single pass.
        let start = out.len() - offset;
        let mut left = mlen;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    if out.len() != limit {
        return Err(corrupt("decompressed size mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> (usize, Vec<u8>) {
        let mut enc = Vec::new();
        LzCompressor::new().compress(data, &mut enc);
        let mut dec = Vec::new();
        lz_decompress(&enc, &mut dec, data.len()).expect("decompress");
        assert_eq!(dec, data);
        (enc.len(), enc)
    }

    #[test]
    fn crc32c_matches_known_vectors_and_chains() {
        // RFC 3720 appendix B.4 and the standard CRC-32C check value, on
        // the entry point and on the portable fallback.
        let zeros = [0u8; 32];
        let ones = [0xFFu8; 32];
        for crc in [crc32c, crc32c_sw] {
            assert_eq!(crc(0, b""), 0);
            assert_eq!(crc(0, &zeros), 0x8A91_36AA);
            assert_eq!(crc(0, &ones), 0x62A8_AB43);
            assert_eq!(crc(0, b"123456789"), 0xE306_9283);
        }
        // Chaining in pieces equals checksumming the whole, whatever the
        // cut (inside or across 8-byte words).
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = crc32c(0, &data);
        for cut in [0, 1, 7, 8, 9, 63, 100, 199, 200] {
            assert_eq!(
                crc32c(crc32c(0, &data[..cut]), &data[cut..]),
                whole,
                "cut {cut}"
            );
        }
        let three = crc32c(crc32c(crc32c(0, &data[..5]), &data[5..77]), &data[77..]);
        assert_eq!(three, whole);
        // A single flipped bit changes the checksum.
        assert_ne!(crc32c(0, b"123456789"), crc32c(0, b"123456788"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_crc32c_equals_the_slicing_by_8_fallback() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let data: Vec<u8> = (0..265u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=257 {
                let bytes = &data[start..start + len];
                for state in [0, 0xDEAD_BEEF] {
                    // SAFETY: the CPU supports SSE4.2, checked above.
                    let hw = unsafe { crc32c_sse42(state, bytes) };
                    assert_eq!(hw, crc32c_sw(state, bytes), "start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn varint_roundtrip_and_boundaries() {
        let vals = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut cur = buf.as_slice();
        for &v in &vals {
            assert_eq!(read_varint(&mut cur).unwrap(), v);
        }
        assert!(cur.is_empty());
        // One byte per value below 128.
        let mut small = Vec::new();
        write_varint(&mut small, 127);
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut cur: &[u8] = &[0x80, 0x80];
        assert!(read_varint(&mut cur).is_err(), "truncated continuation");
        // 10 bytes with a final byte carrying bits beyond 2^64.
        let mut cur: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(read_varint(&mut cur).is_err(), "overflowing final byte");
        let mut cur: &[u8] = &[0x80; 11];
        assert!(read_varint(&mut cur).is_err(), "too many bytes");
    }

    #[test]
    fn lz_roundtrips_representative_payloads() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(&[0u8; 100_000]);
        roundtrip(
            "the quick brown fox jumps over the lazy dog "
                .repeat(500)
                .as_bytes(),
        );
        // Log-line-ish payload with shared structure.
        let log: Vec<u8> = (0..2000)
            .flat_map(|i| {
                format!("GET /api/v1/users/{i} HTTP/1.1 200 {}\n", i * 37 % 1000).into_bytes()
            })
            .collect();
        let (enc_len, _) = roundtrip(&log);
        assert!(
            enc_len < log.len() / 2,
            "structured text must compress well"
        );
        // Pseudo-random (incompressible) bytes still round-trip.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let rnd: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&rnd);
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // Period-1 and period-3 repetitions force offset < match length,
        // at every length up to a few 8-byte extension steps and long.
        for reps in (0..40).chain([300]) {
            roundtrip(&b"a".repeat(reps));
            roundtrip(&b"xyz".repeat(reps));
        }
    }

    #[test]
    fn accelerated_compressor_roundtrips_edge_shapes() {
        // Every short length, including those below one 4-byte prefix and
        // around one 8-byte extension step.
        let bytes: Vec<u8> = (0..64u32).map(|i| (i % 5) as u8).collect();
        for len in 0..=64 {
            roundtrip(&bytes[..len]);
        }
        // A match that runs to the last byte, reached both by the 8-byte
        // extension and by the byte-wise tail.
        for tail in 0..9 {
            let mut data = b"0123456789abcdef".to_vec();
            data.extend_from_slice(b"0123456789abcdef");
            data.extend_from_slice(&b"0123456789abcdef"[..tail]);
            let (enc_len, _) = roundtrip(&data);
            assert!(
                enc_len < data.len(),
                "the repeat must be matched (tail {tail})"
            );
        }
        // One compressor reused across blocks: an earlier block's table
        // entries never become matches in a later one.
        let mut lz = LzCompressor::new();
        for data in [
            b"abcdabcdabcdabcd".repeat(9),
            b"abcdefgh".repeat(3),
            b"zzzz".to_vec(),
        ] {
            let mut enc = Vec::new();
            lz.compress(&data, &mut enc);
            let mut dec = Vec::new();
            lz_decompress(&enc, &mut dec, data.len()).expect("decompress");
            assert_eq!(dec, data);
        }
    }

    /// Encoded bytes of [`sorted_zipf_index_blocks`] under the greedy
    /// compressor this matcher replaced, which tried a match at every
    /// byte and extended it a byte at a time.
    const GREEDY_ENCODED_LEN_U32: usize = 131_186;
    const GREEDY_ENCODED_LEN_U64: usize = 131_871;

    /// The payload of a sorted `(Zipf-1.2 key, input index)` run, in
    /// 8192-record blocks as `spill.rs` writes them: `u32` or `u64`
    /// indices, ascending under each duplicate key.
    fn sorted_zipf_index_blocks(index_bytes: usize) -> Vec<Vec<u8>> {
        use workloads::dist::{generate_pairs_u32, Distribution};
        let mut recs = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, 32_768, 0x5EED_0001);
        recs.sort_by_key(|r| r.0);
        recs.chunks(8192)
            .map(|block| {
                block
                    .iter()
                    .flat_map(|r| u64::from(r.1).to_le_bytes()[..index_bytes].to_vec())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn accelerated_compressor_stays_within_one_percent_of_greedy() {
        let mut lz = LzCompressor::new();
        for (index_bytes, greedy) in [(4, GREEDY_ENCODED_LEN_U32), (8, GREEDY_ENCODED_LEN_U64)] {
            let mut total = 0;
            for block in sorted_zipf_index_blocks(index_bytes) {
                let mut enc = Vec::new();
                lz.compress(&block, &mut enc);
                let mut dec = Vec::new();
                lz_decompress(&enc, &mut dec, block.len()).expect("decompress");
                assert_eq!(dec, block);
                total += enc.len();
            }
            assert!(
                total * 100 <= greedy * 101,
                "{index_bytes}-byte indices: {total} encoded bytes vs {greedy} greedy"
            );
        }
    }

    #[test]
    fn lz_decompress_rejects_corruption() {
        let mut enc = Vec::new();
        LzCompressor::new().compress(&b"hello world hello world hello world".repeat(4), &mut enc);
        let good_len = 35 * 4;
        // Wrong expected length: both directions must fail, not panic.
        let mut out = Vec::new();
        assert!(lz_decompress(&enc, &mut out, good_len - 1).is_err());
        let mut out = Vec::new();
        assert!(lz_decompress(&enc, &mut out, good_len + 1).is_err());
        // Truncated stream.
        let mut out = Vec::new();
        assert!(lz_decompress(&enc[..enc.len() / 2], &mut out, good_len).is_err());
        // An offset pointing before the start of the block.
        let bad = [0x04u8, b'a', b'b', b'c', b'd', 0xFF, 0xFF];
        let mut out = Vec::new();
        assert!(lz_decompress(&bad, &mut out, 100).is_err());
        // A zero offset.
        let bad = [0x14u8, b'a', 0x00, 0x00];
        let mut out = Vec::new();
        assert!(lz_decompress(&bad, &mut out, 100).is_err());
    }

    #[test]
    fn lz_output_is_bounded_by_expected_len() {
        // A malicious stream claiming huge match runs must stop at the
        // caller's cap instead of allocating without bound.
        let mut enc = Vec::new();
        // 4 literals then an enormous chained match length.
        enc.push(0x4F);
        enc.extend_from_slice(b"abcd");
        enc.extend_from_slice(&1u16.to_le_bytes());
        enc.extend_from_slice(&[255u8; 64]);
        enc.push(0);
        let mut out = Vec::new();
        let err = lz_decompress(&enc, &mut out, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.capacity() < 1 << 20, "no unbounded allocation");
    }
}
