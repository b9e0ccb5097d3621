//! Integer key abstraction.
//!
//! The paper's integer sort takes records with keys in `[r] = {0, ..., r-1}`.
//! In this implementation every supported key type is mapped, order
//! preservingly, into `u64`; the radix machinery then works on the `u64`
//! image.  Signed integers are mapped by flipping the sign bit, which turns
//! two's-complement order into unsigned order.

/// An integer key type usable by DovetailSort and the baseline radix sorts.
///
/// The mapping [`IntegerKey::to_ordered_u64`] must be injective and strictly
/// monotone: `a < b  ⇔  a.to_ordered_u64() < b.to_ordered_u64()`.
///
/// Keys are plain values (`'static`), so records can move to background
/// spill-writer thread and read-ahead pool workers in the streaming engine.
pub trait IntegerKey: Copy + Send + Sync + Ord + std::fmt::Debug + 'static {
    /// Number of significant bits of the key type (the `log r` of the paper).
    const BITS: u32;

    /// Order-preserving embedding into `u64`.
    fn to_ordered_u64(self) -> u64;

    /// Inverse of [`IntegerKey::to_ordered_u64`] on the image of the type.
    fn from_ordered_u64(x: u64) -> Self;
}

macro_rules! impl_unsigned_key {
    ($($t:ty),*) => {$(
        impl IntegerKey for $t {
            const BITS: u32 = <$t>::BITS;
            #[inline]
            fn to_ordered_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_ordered_u64(x: u64) -> Self {
                x as $t
            }
        }
    )*};
}

macro_rules! impl_signed_key {
    ($($t:ty => $u:ty),*) => {$(
        impl IntegerKey for $t {
            const BITS: u32 = <$t>::BITS;
            #[inline]
            fn to_ordered_u64(self) -> u64 {
                // Flip the sign bit: i::MIN -> 0, -1 -> 2^(B-1) - 1, 0 -> 2^(B-1), i::MAX -> 2^B - 1.
                ((self as $u) ^ (1 << (<$t>::BITS - 1))) as u64
            }
            #[inline]
            fn from_ordered_u64(x: u64) -> Self {
                ((x as $u) ^ (1 << (<$t>::BITS - 1))) as $t
            }
        }
    )*};
}

impl_unsigned_key!(u8, u16, u32, u64, usize);
impl_signed_key!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// A variable-length byte-string key usable by the streaming engines.
///
/// String keys ride the existing `u64` merge domain through
/// [`string_key_prefix64`]: the first eight bytes, big-endian and
/// zero-padded, become the record's ordering key, and ties between equal
/// prefixes are broken on the full key bytes at sort and merge time.  The
/// combination `(prefix, full bytes)` orders exactly like the plain
/// lexicographic byte order (see `string_key_prefix64` for the argument),
/// so a string-keyed stream sorts and groups byte-identically to a
/// comparison sort on the keys themselves.
pub trait StringKey: Clone + Send + Sync + std::fmt::Debug + 'static {
    /// The key's bytes; ordering is lexicographic over this slice.
    fn key_bytes(&self) -> &[u8];

    /// Rebuild a key from its bytes (the inverse of
    /// [`StringKey::key_bytes`]).  Fails with `InvalidData` when the
    /// bytes are not a valid key of this type (e.g. non-UTF-8 for
    /// `String`).
    fn from_key_bytes(bytes: &[u8]) -> std::io::Result<Self>;
}

impl StringKey for String {
    #[inline]
    fn key_bytes(&self) -> &[u8] {
        self.as_bytes()
    }

    fn from_key_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("string key is not valid UTF-8: {e}"),
            )
        })
    }
}

impl StringKey for Vec<u8> {
    #[inline]
    fn key_bytes(&self) -> &[u8] {
        self
    }

    fn from_key_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        Ok(bytes.to_vec())
    }
}

/// Order-preserving 8-byte big-endian prefix of a byte-string key.
///
/// The first `min(len, 8)` bytes are packed big-endian into the *high*
/// bytes of the `u64`; missing bytes are zero.  This is monotone with
/// respect to lexicographic byte order: if `a < b` lexicographically,
/// either they differ at some index `i < 8` (then the packed prefixes
/// differ at that byte, and big-endian packing puts the earlier byte in
/// the more significant position, so `prefix(a) < prefix(b)`), or their
/// first 8 bytes agree — which includes `a` being a strict prefix of `b`
/// with `a.len() < 8`, where zero-padding can only make `prefix(a) ≤
/// prefix(b)` — so `prefix(a) ≤ prefix(b)` in every case.  Equal prefixes
/// are resolved by comparing the full key bytes (the tie-break the
/// streaming engines apply at sort and merge time).
///
/// Note the zero-pad means `prefix` cannot distinguish a key from the
/// same key extended with NUL bytes within the first 8 positions; the
/// full-byte tie-break handles that too.
#[inline]
pub fn string_key_prefix64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf)
}

/// Mask with the low `bits` bits set (saturating at 64 bits).
#[inline]
pub fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Number of bits needed to represent `x` (0 needs 0 bits).
#[inline]
pub fn bit_width(x: u64) -> u32 {
    64 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_roundtrip_and_order() {
        for x in [0u32, 1, 7, u32::MAX, u32::MAX - 1, 12345] {
            assert_eq!(u32::from_ordered_u64(x.to_ordered_u64()), x);
        }
        assert!(3u64.to_ordered_u64() < 4u64.to_ordered_u64());
        assert_eq!(u8::BITS, 8);
        assert_eq!(usize::BITS, <usize as IntegerKey>::BITS);
    }

    #[test]
    fn signed_roundtrip_and_order() {
        let vals = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for &x in &vals {
            assert_eq!(i32::from_ordered_u64(x.to_ordered_u64()), x);
        }
        for w in vals.windows(2) {
            assert!(
                w[0].to_ordered_u64() < w[1].to_ordered_u64(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn signed_64_bit_extremes() {
        assert_eq!(i64::MIN.to_ordered_u64(), 0);
        assert_eq!(i64::MAX.to_ordered_u64(), u64::MAX);
        assert_eq!((-1i64).to_ordered_u64(), (1u64 << 63) - 1);
        assert_eq!(0i64.to_ordered_u64(), 1u64 << 63);
    }

    #[test]
    fn string_prefix_is_monotone_in_lexicographic_order() {
        // Pairwise over a set covering: short vs long, shared 8-byte
        // prefixes, NUL-padding collisions, empty, and >8-byte keys.
        let keys: Vec<&[u8]> = vec![
            b"",
            b"\0",
            b"\0\0a",
            b"a",
            b"a\0",
            b"abc",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgz",
            b"https://a.example/x",
            b"https://b.example/x",
            b"zz",
        ];
        for a in &keys {
            for b in &keys {
                let (pa, pb) = (string_key_prefix64(a), string_key_prefix64(b));
                match a.cmp(b) {
                    std::cmp::Ordering::Less => assert!(pa <= pb, "{a:?} < {b:?} but {pa} > {pb}"),
                    std::cmp::Ordering::Equal => assert_eq!(pa, pb),
                    std::cmp::Ordering::Greater => assert!(pa >= pb),
                }
                // Strict order whenever the keys differ at a byte both
                // actually have within the first 8 positions (zero-padding
                // can only collide a key with its NUL-extension).
                let diverge_early = a.iter().zip(b.iter()).take(8).any(|(x, y)| x != y);
                if diverge_early && a < b {
                    assert!(pa < pb, "early-diverging keys must order strictly");
                }
            }
        }
    }

    #[test]
    fn string_key_roundtrip_and_validation() {
        let s = "héllo, wörld".to_string();
        assert_eq!(String::from_key_bytes(s.key_bytes()).unwrap(), s);
        let v = vec![0u8, 255, 1, 2];
        assert_eq!(Vec::<u8>::from_key_bytes(v.key_bytes()).unwrap(), v);
        let bad = String::from_key_bytes(&[0xFF, 0xFE]);
        assert_eq!(
            bad.unwrap_err().kind(),
            std::io::ErrorKind::InvalidData,
            "non-UTF-8 bytes must not round-trip into String"
        );
    }

    #[test]
    fn masks_and_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(16), 0xFFFF);
        assert_eq!(low_mask(64), u64::MAX);
        assert_eq!(low_mask(100), u64::MAX);
        assert_eq!(bit_width(0), 0);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u64::MAX), 64);
    }
}
