//! On-disk run formats and buffered run readers.
//!
//! A spilled run is written in the **flat** encoding (the default,
//! [`dtsort::SpillCompression::Off`]) or the **compressed block**
//! encoding ([`dtsort::SpillCompression::DeltaLz`]).  The flat encoding
//! is a sequence of records in one of two formats, chosen statically by
//! the value type ([`SpillValue`]):
//!
//! **Fixed** — for [`PodValue`] types, whose in-memory byte image is the
//! record payload:
//!
//! ```text
//! ┌────────────────────────┬───────────────────┐
//! │ key (8 bytes, LE)      │ value (V bytes)   │  × run length
//! └────────────────────────┴───────────────────┘
//! ```
//!
//! **Variable-length** — for [`VarValue`] types (`Vec<u8>`, `String`,
//! `Box<[u8]>`), whose payload is length-prefixed:
//!
//! ```text
//! ┌────────────────────────┬────────────────────┬───────────────────┐
//! │ key (8 bytes, LE)      │ value_len (u32 LE) │ value bytes       │  × run length
//! └────────────────────────┴────────────────────┴───────────────────┘
//! ```
//!
//! Keys are stored in the ordered-`u64` domain
//! ([`dtsort::IntegerKey::to_ordered_u64`]), so the merge compares raw
//! `u64`s and the original key type is reconstructed only on output.
//! Fixed-format values are written as their in-memory bytes, which is why
//! they must implement the padding-free [`PodValue`] contract.
//!
//! Records cross the I/O boundary a buffer at a time.  The value codec
//! works on byte slices ([`SpillValue`]'s hidden `spill_encode` /
//! `spill_decode`): the flat writer encodes records into one reused chunk
//! of about 64 KiB and hands each chunk to the backend in one write, and
//! the reader ([`RunReader::read_block`]) reads a window of the run at a
//! time and decodes every whole record in it.  A record cut by the
//! window's edge is carried to the front of the next window; a value
//! longer than the window grows it, never past the bytes left in the run.
//!
//! The **compressed block** encoding groups records into independently
//! decodable blocks (at most [`BLOCK_MAX_RECORDS`] records or roughly
//! [`BLOCK_RAW_TARGET`] payload bytes each):
//!
//! ```text
//! ┌──────────────┬─────────────┬─────────────┬─────────────┬───────┬─────┐
//! │ record_count │ key_stream  │ payload_raw │ payload_enc │ crc32 │ enc │
//! │ (u32 LE)     │ _len (u32)  │ _len (u32)  │ _len (u32)  │ (u32) │ u8  │
//! ├──────────────┴─────────────┴─────────────┴─────────────┴───────┴─────┤
//! │ key stream: first key absolute, then deltas (LEB128 varints)         │
//! ├──────────────────────────────────────────────────────────────────────┤
//! │ payload: concatenated record payloads, LZ-compressed when            │
//! │ enc = 1, stored raw when enc = 0 (incompressible fallback)           │
//! └──────────────────────────────────────────────────────────────────────┘  × blocks
//! ```
//!
//! `crc32` is the CRC-32C (Castagnoli) of the key stream followed by the
//! encoded payload (`codec::crc32c`: the SSE4.2 instruction where the CPU
//! has it, a slicing-by-8 table otherwise), verified on decode **before**
//! any record of the block is served — silent bit rot in a spill file
//! surfaces as [`io::ErrorKind::InvalidData`] instead of wrong records.
//! Runs never outlive the process that wrote them, so the polynomial is
//! not a compatibility concern.
//!
//! Keys within a run are sorted, so the deltas are non-negative and
//! small — most encode in one byte.  The payload bytes are exactly what
//! the flat encoding would have written after each key (length prefixes
//! included), so one decode path serves both encodings: `spill_decode`
//! over a slice, the flat run's read window or a block's decoded payload.
//! Decoding is transparent: [`RunReader`] yields identical records for
//! both, which is what the compression differential tests assert end to
//! end.
//!
//! Every [`SpilledRun`] records its record count, its exact on-disk byte
//! size *and* its pre-compression byte size, so truncated spill files are
//! rejected at open time in either encoding, and a corrupted length
//! prefix or block header can never read past the run (or allocate more
//! than the run's recorded raw size).

use crate::codec;
use crate::spillio::{SpillIoHandle, SpillRead, SpillWrite};
use dtsort::{IntegerKey, RunReport, SortConfig, SpillCompression};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed payload of a spill-stack failure, carried *inside* an
/// [`io::Error`] (via [`io::Error::new`]'s boxed-error slot) so every
/// existing `io::Result` signature keeps working while callers that care
/// can recover the context with [`SpillError::from_io`].
///
/// The wrapping preserves the source's [`io::ErrorKind`], so
/// `e.kind() == ErrorKind::StorageFull` still distinguishes ENOSPC from
/// corruption (`InvalidData`) or a quota rejection (`QuotaExceeded`)
/// without any downcast.
#[derive(Debug)]
pub struct SpillError {
    /// The spill file (or directory, for quota failures) involved.
    pub path: PathBuf,
    /// Engine-assigned index of the run being written or read when the
    /// operation failed.
    pub run_index: usize,
    /// Bytes the failed operation attempted to move.
    pub bytes_attempted: u64,
    source: io::Error,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spill run {} ({}, {} bytes attempted): {}",
            self.run_index,
            self.path.display(),
            self.bytes_attempted,
            self.source
        )
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl SpillError {
    /// Builds the typed payload; pair with [`SpillError::into_io`].
    pub fn new(path: PathBuf, run_index: usize, bytes_attempted: u64, source: io::Error) -> Self {
        Self {
            path,
            run_index,
            bytes_attempted,
            source,
        }
    }

    /// Wraps this payload back into an [`io::Error`] of the *source's*
    /// kind, so kind-based classification (transient vs permanent,
    /// ENOSPC vs corruption) is unaffected by the added context.
    pub fn into_io(self) -> io::Error {
        let kind = self.source.kind();
        io::Error::new(kind, self)
    }

    /// The underlying I/O error.
    pub fn source_io(&self) -> &io::Error {
        &self.source
    }

    /// Recovers the typed payload from an [`io::Error`] produced by
    /// [`SpillError::into_io`], if that is what `e` carries.
    pub fn from_io(e: &io::Error) -> Option<&SpillError> {
        e.get_ref()?.downcast_ref()
    }
}

/// Wraps `source` with spill context unless it already carries a
/// [`SpillError`] (an error can cross several layers that each know the
/// path; the innermost wrap wins — it has the most precise context).
pub(crate) fn wrap_spill_err(
    path: &Path,
    run_index: usize,
    bytes_attempted: u64,
    source: io::Error,
) -> io::Error {
    if SpillError::from_io(&source).is_some() {
        return source;
    }
    SpillError::new(path.to_path_buf(), run_index, bytes_attempted, source).into_io()
}

/// The message of a caught panic payload (`&str` or `String`).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Retries per spill operation after a first attempt that failed with a
/// transient kind.
const SPILL_RETRIES: u32 = 3;
/// Backoff before the first retry, in milliseconds; each further retry
/// doubles it.
const BACKOFF_BASE_MS: u64 = 2;
/// Upper bound on a single backoff sleep, in milliseconds.
const BACKOFF_CAP_MS: u64 = 50;

/// Whether `kind` is worth retrying: the condition can clear without any
/// corrective action (interrupted call, timeout, contended resource).
/// ENOSPC (`StorageFull`) and `QuotaExceeded` are deliberately *not*
/// transient: retrying a full disk burns the backoff without any chance
/// of success.  Every other kind (corruption, permission, ...) is
/// permanent too and surfaces at once as a typed [`SpillError`].
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Deterministic backoff before retry number `attempt` (0-based):
/// `BACKOFF_BASE_MS · 2^attempt`, capped at `BACKOFF_CAP_MS` — derived
/// only from the attempt number, never from wall clock or randomness, so
/// failure tests replay identically.
fn backoff(attempt: u32) -> std::time::Duration {
    let ms = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_CAP_MS);
    std::time::Duration::from_millis(ms)
}

/// Runs `op`, retrying transient failures ([`is_transient`]) up to
/// `SPILL_RETRIES` times with the deterministic [`backoff`].  Returns the
/// value plus the number of retries spent; the first permanent error (or
/// transient-retry exhaustion) surfaces as-is.
pub(crate) fn with_transient_retry<T>(
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, u32)> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if attempt < SPILL_RETRIES && is_transient(e.kind()) => {
                if obs::enabled() {
                    crate::metrics::m().spill_retries.incr();
                }
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A unique, self-deleting directory holding one consumer's spill files
/// (used by both the streaming sorter and the streaming group-by).
#[derive(Debug)]
pub(crate) struct SpillSpace {
    pub(crate) dir: PathBuf,
}

static SPILL_SPACE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SpillSpace {
    pub(crate) fn create(base: Option<&PathBuf>) -> io::Result<Self> {
        let base = base.cloned().unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "pisort-stream-{}-{}",
            std::process::id(),
            SPILL_SPACE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = base.join(unique);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }
}

impl Drop for SpillSpace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// Marker for values that can be spilled by their in-memory byte image
/// (the *fixed* on-disk record format).
///
/// # Safety
///
/// Implementors must be `Copy` types with **no padding bytes** (every byte
/// of the in-memory representation is initialized) for which every byte
/// pattern written from a valid value reads back as that same valid value.
/// All primitive numeric types and fixed-size arrays of them qualify;
/// structs/tuples with padding do not.
pub unsafe trait PodValue: Copy + Send + Sync + 'static {}

/// Values spilled through the *variable-length* on-disk record format:
/// anything serializable to (and from) a byte slice.
///
/// Implemented for `Vec<u8>`, `String` and `Box<[u8]>`.  `from_spill_bytes`
/// may fail with [`io::ErrorKind::InvalidData`] when the bytes violate the
/// type's invariants (e.g. non-UTF-8 bytes read back as a `String`), which
/// surfaces file corruption instead of panicking mid-merge.
pub trait VarValue: Clone + Send + Sync + 'static {
    /// The serialized payload of this value.
    fn as_spill_bytes(&self) -> &[u8];
    /// Reconstructs a value from a payload previously produced by
    /// [`VarValue::as_spill_bytes`].
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self>;
}

impl VarValue for Vec<u8> {
    fn as_spill_bytes(&self) -> &[u8] {
        self
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        Ok(bytes.to_vec())
    }
}

impl VarValue for Box<[u8]> {
    fn as_spill_bytes(&self) -> &[u8] {
        self
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        Ok(bytes.to_vec().into_boxed_slice())
    }
}

impl VarValue for String {
    fn as_spill_bytes(&self) -> &[u8] {
        self.as_bytes()
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spilled String payload is not UTF-8: {e}"),
            )
        })
    }
}

/// A value the streaming sorter and group-by can spill to disk: either a
/// [`PodValue`] (fixed-size records, zero-copy byte images) or a
/// [`VarValue`] (`Vec<u8>`, `String`, `Box<[u8]>`; length-prefixed
/// records).
///
/// This trait is **sealed**: the two families have different on-disk
/// formats and different in-memory sort strategies, and each listed
/// type is wired to the right one here.  User code only ever names the
/// trait in bounds (`StreamSorter<u64, String>` just works).
pub trait SpillValue: Clone + Send + Sync + 'static + sealed::Sealed {
    /// `Some(n)` for fixed `n`-byte payloads, `None` for length-prefixed
    /// payloads.
    #[doc(hidden)]
    const SPILL_FIXED_SIZE: Option<usize>;

    /// On-disk payload bytes of this value (length prefix included).
    #[doc(hidden)]
    fn spill_size(&self) -> usize;

    /// Appends this value's payload (length prefix included) to `out`.
    /// One encoder feeds both encodings: the flat writer's chunk buffer
    /// and the payload section of a compressed block.
    #[doc(hidden)]
    fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()>;

    /// Decodes one payload from the front of `src` and advances `src`
    /// past it.  `src` holds the bytes left in the flat run's read window
    /// or in the decoded block, so a length prefix is checked against it
    /// before it drives a copy or an allocation: a `src` that ends inside
    /// the payload, or a prefix longer than `src`, is
    /// [`io::ErrorKind::UnexpectedEof`] (the flat reader then reads more
    /// of the run, if any is left, and decodes the record again).
    #[doc(hidden)]
    fn spill_decode(src: &mut &[u8]) -> io::Result<Self>
    where
        Self: Sized;

    /// Stably sorts one buffered run by key, seeding heavy-key detection
    /// with `carry` (see [`dtsort::sort_run_pairs_with`]).
    #[doc(hidden)]
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport
    where
        Self: Sized;

    /// Whether records with equal ordered-`u64` keys can still differ in
    /// order.  `false` (the default): the final merge orders them by run
    /// alone and never looks at a value.  Values with an embedded full key
    /// (string-keyed records, whose 8-byte key prefixes can collide) set
    /// it, and the merge then tie-breaks equal keys on
    /// [`SpillValue::spill_embedded_key`], which is what makes the
    /// 8-byte-prefix mapping order-preserving end to end.
    #[doc(hidden)]
    const SPILL_TIE_BREAK: bool = false;

    /// Full-key bytes embedded in the payload, for values that carry
    /// their own key (string-keyed records).  The final merge tie-breaks
    /// equal key prefixes on it ([`SpillValue::SPILL_TIE_BREAK`]); the
    /// streaming group-by uses it to sub-group records whose `u64` key
    /// prefixes collide and to refuse to combine partials of different
    /// full keys.
    #[doc(hidden)]
    fn spill_embedded_key(&self) -> Option<&[u8]> {
        None
    }
}

fn value_bytes<V: PodValue>(v: &V) -> &[u8] {
    // SAFETY: PodValue guarantees no padding, so all size_of::<V>() bytes
    // are initialized.
    unsafe { std::slice::from_raw_parts((v as *const V).cast::<u8>(), size_of::<V>()) }
}

fn value_from_bytes<V: PodValue>(bytes: &[u8]) -> V {
    debug_assert_eq!(bytes.len(), size_of::<V>());
    // SAFETY: the buffer holds size_of::<V>() initialized bytes previously
    // produced by `value_bytes` for a valid value of V.
    unsafe { std::ptr::read_unaligned(bytes.as_ptr().cast::<V>()) }
}

fn short_run_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

/// Splits the first `n` bytes off `src`; `what` names the short read.
fn take<'a>(src: &mut &'a [u8], n: usize, what: &str) -> io::Result<&'a [u8]> {
    if src.len() < n {
        return Err(short_run_err(what));
    }
    let (head, rest) = src.split_at(n);
    *src = rest;
    Ok(head)
}

/// Appends `bytes` behind their `u32` LE length prefix; `what` names the
/// field in the error for a slice the prefix cannot express.
pub(crate) fn encode_prefixed(bytes: &[u8], out: &mut Vec<u8>, what: &str) -> io::Result<()> {
    let len = u32::try_from(bytes.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{what} of {} bytes exceeds the u32 spill length prefix",
                bytes.len()
            ),
        )
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// Splits one `u32` LE length-prefixed byte string off `src`.
pub(crate) fn decode_prefixed<'a>(src: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let len = take(src, 4, "spilled run ended mid-length-prefix")?;
    let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
    take(
        src,
        len,
        "length prefix exceeds the bytes remaining in the spilled run",
    )
}

fn pod_spill_decode<V: PodValue>(src: &mut &[u8]) -> io::Result<V> {
    take(src, size_of::<V>(), "spilled run ended mid-value").map(value_from_bytes)
}

fn var_spill_decode<V: VarValue>(src: &mut &[u8]) -> io::Result<V> {
    V::from_spill_bytes(decode_prefixed(src)?)
}

/// Decodes one flat-encoded record, `key (8 bytes, LE) | payload`, from
/// the front of `src`.
fn decode_flat_record<V: SpillValue>(src: &mut &[u8]) -> io::Result<(u64, V)> {
    let key = take(src, 8, "spilled run ended mid-key")?;
    let key = u64::from_le_bytes(key.try_into().expect("8 bytes"));
    Ok((key, V::spill_decode(src)?))
}

macro_rules! impl_pod_spill {
    ($($t:ty),* $(,)?) => {$(
        unsafe impl PodValue for $t {}
        impl sealed::Sealed for $t {}
        impl SpillValue for $t {
            const SPILL_FIXED_SIZE: Option<usize> = Some(size_of::<$t>());
            fn spill_size(&self) -> usize {
                size_of::<$t>()
            }
            fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
                out.extend_from_slice(value_bytes(self));
                Ok(())
            }
            fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
                pod_spill_decode(src)
            }
            fn sort_spill_run<K: IntegerKey>(
                buffer: &mut Vec<(K, Self)>,
                cfg: &SortConfig,
                carry: &[u64],
            ) -> RunReport {
                crate::sorter::pod_sort_run(buffer, cfg, carry)
            }
        }
    )*};
}
impl_pod_spill!(
    (),
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
);

unsafe impl<T: PodValue, const N: usize> PodValue for [T; N] {}
impl<T: PodValue, const N: usize> sealed::Sealed for [T; N] {}
impl<T: PodValue, const N: usize> SpillValue for [T; N] {
    const SPILL_FIXED_SIZE: Option<usize> = Some(size_of::<[T; N]>());
    fn spill_size(&self) -> usize {
        size_of::<Self>()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        out.extend_from_slice(value_bytes(self));
        Ok(())
    }
    fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
        pod_spill_decode(src)
    }
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport {
        crate::sorter::pod_sort_run(buffer, cfg, carry)
    }
}

macro_rules! impl_var_spill {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl SpillValue for $t {
            const SPILL_FIXED_SIZE: Option<usize> = None;
            fn spill_size(&self) -> usize {
                4 + self.as_spill_bytes().len()
            }
            fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
                encode_prefixed(self.as_spill_bytes(), out, "value")
            }
            fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
                var_spill_decode(src)
            }
            fn sort_spill_run<K: IntegerKey>(
                buffer: &mut Vec<(K, Self)>,
                cfg: &SortConfig,
                carry: &[u64],
            ) -> RunReport {
                crate::sorter::var_sort_run(buffer, cfg, carry)
            }
        }
    )*};
}
impl_var_spill!(Vec<u8>, String, Box<[u8]>);

/// Target decoded payload bytes per compressed block.  Blocks are decoded
/// whole on the read side, so this (plus one oversized value) bounds the
/// reader's block buffer.
pub(crate) const BLOCK_RAW_TARGET: usize = 64 << 10;
/// Upper bound on records per compressed block, bounding the decoded key
/// buffer even for zero-payload values.
pub(crate) const BLOCK_MAX_RECORDS: usize = 8192;
/// Bytes the flat writer encodes before handing them to the backend in
/// one write (the last chunk of a run, and one holding a larger value,
/// differ).
const RUN_WRITE_CHUNK_BYTES: usize = 64 << 10;
/// Bytes of the fixed compressed-block header:
/// `record_count u32 | key_stream_len u32 | payload_raw_len u32 |
/// payload_enc_len u32 | crc32 u32 | enc u8`.
const BLOCK_HEADER_BYTES: usize = 21;

fn bad_run_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Writes the compressed block encoding of `records`; returns
/// `(bytes_on_disk, raw_bytes)` where `raw_bytes` is what the flat
/// encoding would have written.
fn write_run_blocks<K: IntegerKey, V: SpillValue>(
    writer: &mut dyn Write,
    records: &[(K, V)],
) -> io::Result<(u64, u64)> {
    let mut bytes = 0u64;
    let mut raw_bytes = 0u64;
    let mut key_stream = Vec::new();
    let mut payload = Vec::new();
    let mut enc = Vec::new();
    let mut lz = codec::LzCompressor::new();
    let mut i = 0usize;
    while i < records.len() {
        key_stream.clear();
        payload.clear();
        let mut prev_key = 0u64;
        let mut count = 0usize;
        while i < records.len()
            && count < BLOCK_MAX_RECORDS
            && (count == 0 || payload.len() < BLOCK_RAW_TARGET)
        {
            let (k, v) = &records[i];
            let key = k.to_ordered_u64();
            if count == 0 {
                codec::write_varint(&mut key_stream, key);
            } else {
                let delta = key.checked_sub(prev_key).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "compressed spill requires records sorted by ordered-u64 key",
                    )
                })?;
                codec::write_varint(&mut key_stream, delta);
            }
            prev_key = key;
            v.spill_encode(&mut payload)?;
            count += 1;
            i += 1;
        }
        raw_bytes += (8 * count + payload.len()) as u64;
        enc.clear();
        lz.compress(&payload, &mut enc);
        // Store-raw fallback: incompressible blocks cost 21 header bytes,
        // never an inflated payload.
        let (flag, body): (u8, &[u8]) = if enc.len() < payload.len() {
            (1, &enc)
        } else {
            (0, &payload)
        };
        let crc = codec::crc32c(codec::crc32c(0, &key_stream), body);
        let field = |len: usize| {
            u32::try_from(len).map(u32::to_le_bytes).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "compressed block section exceeds the u32 header field",
                )
            })
        };
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        header[0..4].copy_from_slice(&field(count)?);
        header[4..8].copy_from_slice(&field(key_stream.len())?);
        header[8..12].copy_from_slice(&field(payload.len())?);
        header[12..16].copy_from_slice(&field(body.len())?);
        header[16..20].copy_from_slice(&crc.to_le_bytes());
        header[20] = flag;
        writer.write_all(&header)?;
        writer.write_all(&key_stream)?;
        writer.write_all(body)?;
        bytes += (BLOCK_HEADER_BYTES + key_stream.len() + body.len()) as u64;
    }
    Ok((bytes, raw_bytes))
}

/// Writes the flat encoding of `records`, `key (8 bytes, LE) | payload`
/// per record, encoded into one reused chunk of about
/// [`RUN_WRITE_CHUNK_BYTES`] that goes to `writer` in one call; returns
/// the bytes written.
fn write_run_flat<K: IntegerKey, V: SpillValue>(
    writer: &mut dyn Write,
    records: &[(K, V)],
) -> io::Result<u64> {
    let mut bytes = 0u64;
    let mut chunk = Vec::with_capacity(RUN_WRITE_CHUNK_BYTES);
    for (key, value) in records {
        chunk.extend_from_slice(&key.to_ordered_u64().to_le_bytes());
        value.spill_encode(&mut chunk)?;
        if chunk.len() >= RUN_WRITE_CHUNK_BYTES {
            writer.write_all(&chunk)?;
            bytes += chunk.len() as u64;
            chunk.clear();
        }
    }
    writer.write_all(&chunk)?;
    Ok(bytes + chunk.len() as u64)
}

/// Writes a sorted run to `path` through the `io` backend in the given
/// encoding and syncs it to disk; returns the run's full metadata.
///
/// The final durability step ([`SpillWrite::finish`]) is part of the
/// spill contract: a run is recorded as spilled (and its buffered records
/// dropped) only after this returns, so a run the stats report as spilled
/// is fully on disk — a panic or crash later can never leave a recorded
/// run truncated the way a dropped buffered writer silently would.
pub(crate) fn write_run<K: IntegerKey, V: SpillValue>(
    io: &SpillIoHandle,
    path: &Path,
    records: &[(K, V)],
    compression: SpillCompression,
) -> io::Result<SpilledRun> {
    let mut writer: Box<dyn SpillWrite> = io.create(path)?;
    let (bytes, raw_bytes) = match compression {
        SpillCompression::Off => {
            let bytes = write_run_flat(&mut writer, records)?;
            (bytes, bytes)
        }
        SpillCompression::DeltaLz => write_run_blocks(&mut writer, records)?,
    };
    if obs::enabled() {
        let start = std::time::Instant::now();
        writer.finish()?;
        let metrics = crate::metrics::m();
        metrics.fsync_ns.record_duration(start.elapsed());
        metrics.bytes_written.add(bytes);
        metrics.raw_bytes_spilled.add(raw_bytes);
    } else {
        writer.finish()?;
    }
    Ok(SpilledRun {
        path: path.to_path_buf(),
        len: records.len(),
        bytes,
        raw_bytes,
        compression,
        retries: 0,
    })
}

/// [`write_run`] with transient-failure retry ([`with_transient_retry`]).
///
/// Each attempt recreates the file from scratch (`create` truncates), and
/// a failed attempt's partial file is removed before backing off, so a
/// torn or unsynced earlier attempt can never leak bytes into the run
/// that finally succeeds.  The returned run's `retries` records the
/// attempts spent, so callers can fold it into engine stats.
pub(crate) fn write_run_with_retry<K: IntegerKey, V: SpillValue>(
    io: &SpillIoHandle,
    path: &Path,
    records: &[(K, V)],
    compression: SpillCompression,
) -> io::Result<SpilledRun> {
    let (mut run, retries) = with_transient_retry(|| {
        write_run(io, path, records, compression).inspect_err(|_| {
            std::fs::remove_file(path).ok();
        })
    })?;
    run.retries = retries;
    Ok(run)
}

/// Metadata of one spilled run: record count, exact on-disk byte size,
/// pre-compression byte size and encoding, so readers can reject
/// truncated or overcounted runs in either encoding (and bound their
/// decode buffers by `raw_bytes`).
#[derive(Debug, Clone)]
pub(crate) struct SpilledRun {
    pub path: PathBuf,
    pub len: usize,
    pub bytes: u64,
    /// Bytes the flat encoding would occupy; equals `bytes` when
    /// `compression` is `Off`.
    pub raw_bytes: u64,
    pub compression: SpillCompression,
    /// Transient-failure retries spent writing this run
    /// ([`write_run_with_retry`]); folded into engine stats by the
    /// sorter/group-by accounting.
    pub retries: u32,
}

/// Read-buffer bytes granted to each of `runs` spilled runs during a
/// merge: an equal split of `total_bytes`, capped at 8 MiB per run and
/// floored at 64 bytes (just enough to keep a read window functional).
/// Each run's [`crate::pipeline::RunFeed`] splits its share between its
/// reader (read window and backend read-ahead) and its decoded blocks.
///
/// The aggregate across all runs is therefore
/// `max(total_bytes, 64 · runs)` — the old 4 KiB floor let a 64-run merge
/// claim 256 KiB of buffers against a 16 KiB budget.  Read-ahead on the
/// pool gates on [`crate::pipeline::MIN_PREFETCH_RUN_BUDGET`] instead of
/// relying on a generous floor here; below it the feeds decode inline.
/// The single clamp shared by the sorter and the group-by, so the two
/// paths cannot drift.
pub(crate) fn per_run_reader_budget(total_bytes: usize, runs: usize) -> usize {
    (total_bytes / runs.max(1)).clamp(64, 8 << 20)
}

/// Sequential reader over one spilled run that decodes it a block of
/// records at a time, either encoding transparently (the merge's feeds
/// never see the on-disk block boundaries).
///
/// It is the one place spill reads retry.  A transient failure
/// ([`is_transient`]) is retried with the spill retry policy — up to 3
/// retries, after a backoff of 2 ms doubling to at most 50 ms, each
/// counted in `spill.retries`: at open by opening again, mid-run by
/// reopening the run, skipping the records already served through the
/// same block decode, and decoding the failed block again.  An error that
/// is permanent, or outlasts the retries, comes back as a [`SpillError`]
/// naming the run.
pub(crate) struct RunReader<V: SpillValue> {
    decoder: RunDecoder<V>,
    io: SpillIoHandle,
    run: SpilledRun,
    /// The run's position among the engine's runs, named by errors.
    index: usize,
    buffer_bytes: usize,
    /// Records returned so far: what a reopened decoder skips.
    served: usize,
}

impl<V: SpillValue> RunReader<V> {
    /// Opens run `index` of an engine with `buffer_bytes` of read
    /// buffering (see [`RunDecoder::open`]).
    pub fn open(
        io: &SpillIoHandle,
        run: &SpilledRun,
        index: usize,
        buffer_bytes: usize,
    ) -> io::Result<Self> {
        let (decoder, _) = with_transient_retry(|| RunDecoder::open(io, run, buffer_bytes))
            .map_err(|e| wrap_spill_err(&run.path, index, run.bytes, e))?;
        Ok(Self {
            decoder,
            io: io.clone(),
            run: run.clone(),
            index,
            buffer_bytes,
            served: 0,
        })
    }

    /// Appends the run's next records to `out` until their encoded bytes
    /// reach `block_bytes` (at least one record) or the run ends; returns
    /// whether the run has ended.  On error `out` is left as it was.
    pub fn read_block(&mut self, block_bytes: usize, out: &mut Vec<(u64, V)>) -> io::Result<bool> {
        let block_bytes = block_bytes.max(1);
        let start = out.len();
        if let Err(e) = self.decoder.decode(out, block_bytes, usize::MAX) {
            out.truncate(start);
            self.resume(e, block_bytes, out)?;
        }
        self.served += out.len() - start;
        Ok(self.decoder.remaining == 0)
    }

    /// Retries the block read that failed with `failed` (its first
    /// attempt): each retry reopens the run, skips the records already
    /// served and decodes the block again.
    #[cold]
    fn resume(
        &mut self,
        failed: io::Error,
        block_bytes: usize,
        out: &mut Vec<(u64, V)>,
    ) -> io::Result<()> {
        let start = out.len();
        let mut failed = Some(failed);
        with_transient_retry(|| {
            if let Some(e) = failed.take() {
                return Err(e);
            }
            out.truncate(start);
            self.decoder = RunDecoder::open(&self.io, &self.run, self.buffer_bytes)?;
            self.decoder.skip(self.served, block_bytes)?;
            self.decoder.decode(out, block_bytes, usize::MAX)
        })
        .map(|((), _)| ())
        .map_err(|e| {
            out.truncate(start);
            wrap_spill_err(&self.run.path, self.index, self.run.bytes, e)
        })
    }
}

/// One pass of a [`RunReader`] over its run: the open file and the decode
/// state.  Both encodings decode records from the bytes `buf[pos..end]`
/// with [`SpillValue::spill_decode`]: for a flat run a window of the run
/// read straight from the file, for a compressed run the decoded payload
/// of the current block (whose keys are in `block_keys`).
struct RunDecoder<V: SpillValue> {
    reader: Box<dyn SpillRead>,
    /// Records not yet decoded.
    remaining: usize,
    /// Bytes of the run not yet read from the file.
    unread: u64,
    /// Decoded (flat-equivalent) bytes left, from `SpilledRun::raw_bytes`;
    /// bounds the block decode buffers against corrupt headers.
    raw_remaining: u64,
    compression: SpillCompression,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Bytes a flat run's window holds: what each read asks for.
    window: usize,
    /// Decoded keys of the current block (`DeltaLz` only).
    block_keys: Vec<u64>,
    block_next: usize,
    /// Staging buffer for a block's encoded sections (`DeltaLz` only).
    scratch: Vec<u8>,
    _value: PhantomData<V>,
}

impl<V: SpillValue> RunDecoder<V> {
    /// Opens `run` with `buffer_bytes` of read buffering.  A flat run
    /// reads into a window of half of them (no larger than the run) and
    /// gives the backend the other half: `Blocking` reads straight into
    /// the window, `Batched` reads ahead in chunks of that half.  A
    /// compressed run, which stages each block's sections in `scratch`,
    /// gives the backend all of them.
    fn open(io: &SpillIoHandle, run: &SpilledRun, buffer_bytes: usize) -> io::Result<Self> {
        // The caller's budget is honored as given (64-byte floors so
        // reads stay functional) — re-inflating small budgets here would
        // undo the aggregate cap of `per_run_reader_budget`.
        let (window, backend_bytes) = match run.compression {
            SpillCompression::Off => (buffer_bytes / 2, buffer_bytes / 2),
            SpillCompression::DeltaLz => (0, buffer_bytes),
        };
        let (reader, actual) = io.open(&run.path, backend_bytes)?;
        // Validate the file length eagerly: a truncated spill file must
        // surface as an I/O error here, at open time, rather than as a
        // mid-merge failure (or, worse, a silently shorter output if a
        // caller ever trusted the byte stream over the run metadata).
        if actual < run.bytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated spilled run {}: expected {} bytes for {} records, found {}",
                    run.path.display(),
                    run.bytes,
                    run.len,
                    actual
                ),
            ));
        }
        Ok(Self {
            reader,
            remaining: run.len,
            unread: run.bytes,
            raw_remaining: run.raw_bytes,
            compression: run.compression,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            window: (window.max(64) as u64).min(run.bytes) as usize,
            block_keys: Vec::new(),
            block_next: 0,
            scratch: Vec::new(),
            _value: PhantomData,
        })
    }

    /// Appends records to `out` until their encoded bytes reach
    /// `block_bytes`, `max_records` are appended or the run ends.  An
    /// error can leave the decode state part-way through a record: the
    /// reader then drops this decoder and reopens the run.
    fn decode(
        &mut self,
        out: &mut Vec<(u64, V)>,
        block_bytes: usize,
        max_records: usize,
    ) -> io::Result<()> {
        let want = self.remaining.min(max_records);
        match self.compression {
            SpillCompression::Off => self.decode_flat(out, block_bytes, want),
            SpillCompression::DeltaLz => self.decode_blocks(out, block_bytes, want),
        }
    }

    /// Decodes and drops the next `n` records, a block at a time.
    fn skip(&mut self, mut n: usize, block_bytes: usize) -> io::Result<()> {
        let mut dropped = Vec::new();
        while n > 0 {
            if self.remaining == 0 {
                return Err(short_run_err(
                    "spilled run holds fewer records than were served",
                ));
            }
            self.decode(&mut dropped, block_bytes, n)?;
            n -= dropped.len();
            dropped.clear();
        }
        Ok(())
    }

    fn decode_flat(
        &mut self,
        out: &mut Vec<(u64, V)>,
        block_bytes: usize,
        want: usize,
    ) -> io::Result<()> {
        let mut left = want;
        let mut bytes = 0usize;
        while left > 0 && bytes < block_bytes {
            let mut src = &self.buf[self.pos..self.end];
            let avail = src.len();
            let stop = block_bytes - bytes;
            let mut short = None;
            while left > 0 && avail - src.len() < stop {
                let record_start = src;
                match decode_flat_record::<V>(&mut src) {
                    Ok(record) => {
                        out.push(record);
                        left -= 1;
                    }
                    Err(e) => {
                        src = record_start;
                        short = Some(e);
                        break;
                    }
                }
            }
            let used = avail - src.len();
            self.pos += used;
            bytes += used;
            let Some(e) = short else { continue };
            // A record cut by the window's edge is what an `UnexpectedEof`
            // with run bytes still unread means: read on and decode it
            // again.  With the whole run read, it is a short run.
            if e.kind() != io::ErrorKind::UnexpectedEof {
                return Err(e);
            }
            if self.unread == 0 {
                return Err(if self.pos == self.end {
                    // The run claims more records than its bytes hold.
                    short_run_err("spilled run record count exceeds its byte size")
                } else {
                    e
                });
            }
            self.refill()?;
        }
        self.remaining -= want - left;
        Ok(())
    }

    /// Moves the undecoded tail of a flat run's window to its front and
    /// reads the run's next bytes behind it, up to the window's size.  A
    /// tail that fills the window (one value longer than it) doubles the
    /// window first.  No read goes past the run's end, so the window,
    /// like the value it holds, never outgrows the bytes left in the run
    /// — a corrupt length prefix included.
    fn refill(&mut self) -> io::Result<()> {
        let carried = self.end - self.pos;
        self.buf.copy_within(self.pos..self.end, 0);
        self.pos = 0;
        self.end = carried;
        if self.buf.len() < self.window {
            self.buf.resize(self.window, 0);
        }
        if carried == self.buf.len() {
            let grown = (2 * carried as u64).min(carried as u64 + self.unread);
            self.buf.resize(grown as usize, 0);
        }
        let n = ((self.buf.len() - carried) as u64).min(self.unread) as usize;
        self.reader
            .read_exact(&mut self.buf[carried..carried + n])?;
        self.unread -= n as u64;
        self.end = carried + n;
        Ok(())
    }

    fn decode_blocks(
        &mut self,
        out: &mut Vec<(u64, V)>,
        block_bytes: usize,
        want: usize,
    ) -> io::Result<()> {
        let mut left = want;
        let mut bytes = 0usize;
        while left > 0 && bytes < block_bytes {
            if self.block_next == self.block_keys.len() {
                self.next_block()?;
            }
            let keys = &self.block_keys[self.block_next..];
            let keys = &keys[..keys.len().min(left)];
            let mut src = &self.buf[self.pos..self.end];
            let avail = src.len();
            let stop = block_bytes - bytes;
            let mut n = 0usize;
            while n < keys.len() && 8 * n + (avail - src.len()) < stop {
                let value = V::spill_decode(&mut src)?;
                out.push((keys[n], value));
                n += 1;
            }
            let used = avail - src.len();
            self.pos += used;
            self.block_next += n;
            left -= n;
            bytes += 8 * n + used;
        }
        self.remaining -= want - left;
        Ok(())
    }

    /// Reads and decodes the next compressed block into `block_keys` and
    /// `buf`.  Every size in the header is validated against the run's
    /// recorded byte counts before it drives an allocation, so a corrupted
    /// header cannot read past the run or balloon memory.
    fn next_block(&mut self) -> io::Result<()> {
        if self.unread < BLOCK_HEADER_BYTES as u64 {
            return Err(short_run_err("spilled run ended mid-block-header"));
        }
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        self.unread -= BLOCK_HEADER_BYTES as u64;
        let count = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let key_stream_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as u64;
        let payload_raw_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as u64;
        let payload_enc_len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let enc = header[20];
        if count == 0 || count > self.remaining {
            return Err(bad_run_data(
                "block record count disagrees with the run metadata",
            ));
        }
        if key_stream_len + payload_enc_len > self.unread {
            return Err(short_run_err(
                "block section sizes exceed the bytes remaining in the run",
            ));
        }
        if payload_raw_len > self.raw_remaining {
            return Err(bad_run_data(
                "block raw payload size exceeds the run's recorded raw bytes",
            ));
        }
        // The chained block checksum is verified in two passes so one
        // `scratch` buffer can stage both sections in turn — a third
        // per-run buffer would not be accounted against the merge read
        // budget.  No record is served before the full checksum matches:
        // the keys decoded below are discarded with the error if the
        // payload pass fails, so bit rot still surfaces as `InvalidData`,
        // never as silently wrong keys or payload bytes.
        self.scratch.resize(key_stream_len as usize, 0);
        self.reader.read_exact(&mut self.scratch)?;
        self.unread -= key_stream_len;
        let key_crc = codec::crc32c(0, &self.scratch);
        // Key stream: absolute first key, then non-negative deltas.  The
        // decode is bounded by the validated `count` either way, so
        // running it ahead of the checksum cannot balloon memory.
        self.block_keys.clear();
        self.block_keys.reserve(count);
        let mut cursor: &[u8] = &self.scratch;
        let mut prev = 0u64;
        for i in 0..count {
            let delta = codec::read_varint(&mut cursor)?;
            let key = if i == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .ok_or_else(|| bad_run_data("block key delta overflows u64"))?
            };
            self.block_keys.push(key);
            prev = key;
        }
        if !cursor.is_empty() {
            return Err(bad_run_data("trailing bytes after the block key stream"));
        }
        // Payload section into the (now free) scratch buffer; the chained
        // checksum must match before a byte of it is interpreted.
        self.scratch.resize(payload_enc_len as usize, 0);
        self.reader.read_exact(&mut self.scratch)?;
        self.unread -= payload_enc_len;
        if codec::crc32c(key_crc, &self.scratch) != crc {
            self.block_keys.clear();
            return Err(bad_run_data("block checksum mismatch"));
        }
        // Payload: LZ-compressed or stored raw.
        self.buf.clear();
        match enc {
            0 => {
                if payload_enc_len != payload_raw_len {
                    return Err(bad_run_data("stored-raw block sizes disagree"));
                }
                self.buf.extend_from_slice(&self.scratch);
            }
            1 => {
                let (encoded, payload) = (&self.scratch, &mut self.buf);
                codec::lz_decompress(encoded, payload, payload_raw_len as usize)?;
            }
            _ => return Err(bad_run_data("unknown block payload encoding")),
        }
        self.raw_remaining = self
            .raw_remaining
            .saturating_sub(8 * count as u64 + payload_raw_len);
        self.block_next = 0;
        self.pos = 0;
        self.end = self.buf.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The blocking reference backend, used by every format test here
    /// (backend differentials live in `spillio.rs` and `tests/`).
    fn bio() -> SpillIoHandle {
        SpillIoHandle::blocking()
    }

    impl<V: SpillValue> RunReader<V> {
        /// Reads all remaining records in blocks of about 4 KiB,
        /// reconstructing the key type.
        pub(crate) fn read_all<K: IntegerKey>(&mut self) -> io::Result<Vec<(K, V)>> {
            let mut raw = Vec::with_capacity(self.run.len - self.served);
            while !self.read_block(4096, &mut raw)? {}
            Ok(raw
                .into_iter()
                .map(|(key, value)| (K::from_ordered_u64(key), value))
                .collect())
        }
    }

    #[test]
    fn retry_classification_and_backoff() {
        use io::ErrorKind;
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(is_transient(kind), "{kind:?}");
        }
        for kind in [
            ErrorKind::StorageFull,
            ErrorKind::QuotaExceeded,
            ErrorKind::InvalidData,
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::WriteZero,
            ErrorKind::Other,
        ] {
            assert!(!is_transient(kind), "{kind:?}");
        }
        // 2 ms doubling, capped at 50 ms — and deterministic across calls.
        let ms: Vec<u128> = (0..6).map(|a| backoff(a).as_millis()).collect();
        assert_eq!(ms, [2, 4, 8, 16, 32, 50]);
        assert_eq!(backoff(60).as_millis(), 50, "huge attempts stay capped");
        // Three retries after the first attempt, then the error surfaces.
        let mut calls = 0;
        let err = with_transient_retry(|| -> io::Result<()> {
            calls += 1;
            Err(ErrorKind::Interrupted.into())
        })
        .unwrap_err();
        assert_eq!((calls, err.kind()), (4, ErrorKind::Interrupted));
        let mut calls = 0;
        let (_, retries) = with_transient_retry(|| {
            calls += 1;
            if calls < 3 {
                Err(ErrorKind::TimedOut.into())
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(retries, 2);
    }

    fn fixed_record_size<V: PodValue>() -> u64 {
        8 + size_of::<V>() as u64
    }

    /// Writes `records` in the flat encoding and returns run metadata
    /// matching the file.
    fn spill<K: IntegerKey, V: SpillValue>(path: &Path, records: &[(K, V)]) -> SpilledRun {
        write_run(&bio(), path, records, SpillCompression::Off).unwrap()
    }

    /// Writes `records` in the compressed block encoding.
    fn spill_lz<K: IntegerKey, V: SpillValue>(path: &Path, records: &[(K, V)]) -> SpilledRun {
        write_run(&bio(), path, records, SpillCompression::DeltaLz).unwrap()
    }

    #[test]
    fn roundtrip_u32_keys_u32_values() {
        let path = tmp_path("u32u32.bin");
        let records: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 3, i)).collect();
        let run = spill(&path, &records);
        assert_eq!(run.bytes, 12 * 1000);
        let mut reader = RunReader::<u32>::open(&bio(), &run, 0, 4096).unwrap();
        let got: Vec<(u32, u32)> = reader.read_all().unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_signed_keys_and_unit_values() {
        let path = tmp_path("i64unit.bin");
        let records: Vec<(i64, ())> = vec![(i64::MIN, ()), (-1, ()), (0, ()), (i64::MAX, ())];
        let run = spill(&path, &records);
        let mut reader = RunReader::<()>::open(&bio(), &run, 0, 4096).unwrap();
        let got: Vec<(i64, ())> = reader.read_all().unwrap();
        assert_eq!(got, records);
        // Ordered-u64 images on disk must be monotone for signed keys.
        let mut reader = RunReader::<()>::open(&bio(), &run, 0, 4096).unwrap();
        let mut ordered = Vec::new();
        assert!(reader.read_block(usize::MAX, &mut ordered).unwrap());
        assert!(ordered.windows(2).all(|w| w[0].0 < w[1].0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_array_values() {
        let path = tmp_path("arr.bin");
        let records: Vec<(u16, [u8; 5])> = (0..100u16).map(|i| (i, [i as u8; 5])).collect();
        let run = spill(&path, &records);
        let got: Vec<(u16, [u8; 5])> = RunReader::<[u8; 5]>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_string_values_incl_empty_and_multi_kb() {
        let path = tmp_path("varstr.bin");
        let big = "x".repeat(5 << 10);
        let records: Vec<(u64, String)> = vec![
            (3, String::new()),
            (5, "hello".to_string()),
            (7, big.clone()),
            (9, "naïve-ütf8-τ".to_string()),
            (11, String::new()),
            (13, big),
        ];
        let run = spill(&path, &records);
        let payload: usize = records.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(run.bytes, (records.len() * 12 + payload) as u64);
        let got: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_byte_vec_and_boxed_slice_values() {
        let path = tmp_path("varbytes.bin");
        let records: Vec<(u32, Vec<u8>)> = (0..200u32)
            .map(|i| {
                (
                    i,
                    (0..(i as usize * 13) % 2048)
                        .map(|j| (i + j as u32) as u8)
                        .collect(),
                )
            })
            .collect();
        let run = spill(&path, &records);
        let got: Vec<(u32, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        // The same payloads round-trip as Box<[u8]> (same on-disk format).
        let boxed: Vec<(u32, Box<[u8]>)> = records
            .iter()
            .map(|(k, v)| (*k, v.clone().into_boxed_slice()))
            .collect();
        let path2 = tmp_path("varboxed.bin");
        let run2 = spill(&path2, &boxed);
        assert_eq!(run2.bytes, run.bytes);
        let got2: Vec<(u32, Box<[u8]>)> = RunReader::<Box<[u8]>>::open(&bio(), &run2, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got2, boxed);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(path2).ok();
    }

    #[test]
    fn truncated_run_is_an_io_error_not_a_short_read() {
        let path = tmp_path("truncated.bin");
        let records: Vec<(u32, u32)> = (0..500u32).map(|i| (i, i * 2)).collect();
        let run = spill(&path, &records);
        // Truncation mid-record and exactly at a record boundary must both
        // fail at open — never yield fewer records than `run.len`.
        for cut in [run.bytes - 5, run.bytes - fixed_record_size::<u32>(), 0] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<u32>::open(&bio(), &run, 0, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u32>()
                    .expect_err("short file must not read back successfully"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_varlen_run_is_an_io_error() {
        let path = tmp_path("var-truncated.bin");
        let records: Vec<(u64, String)> = (0..100u64)
            .map(|i| {
                (
                    i,
                    format!("payload-{i}-{}", "y".repeat((i as usize * 7) % 90)),
                )
            })
            .collect();
        let run = spill(&path, &records);
        let last_payload = records.last().unwrap().1.len() as u64;
        let last_record = 8 + 4 + last_payload;
        // Mid-value, mid-length-prefix, exactly at a record boundary, empty.
        for cut in [
            run.bytes - 1,
            run.bytes - last_payload - 2,
            run.bytes - last_record,
            0,
        ] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<String>::open(&bio(), &run, 0, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u64>()
                    .expect_err("short file must not read back successfully"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overcounted_run_length_is_an_io_error() {
        // A run whose metadata claims more records than the file holds is
        // the dual failure: the reader must refuse it rather than serve a
        // shorter stream.
        let path = tmp_path("overcount.bin");
        let records: Vec<(u64, ())> = (0..100u64).map(|i| (i, ())).collect();
        let good = spill(&path, &records);
        let run = SpilledRun {
            path: path.clone(),
            len: records.len() + 1,
            bytes: good.bytes + fixed_record_size::<()>(),
            raw_bytes: good.raw_bytes + fixed_record_size::<()>(),
            compression: SpillCompression::Off,
            retries: 0,
        };
        let err = match RunReader::<()>::open(&bio(), &run, 0, 4096) {
            Err(e) => e,
            Ok(_) => panic!("overcount must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // The correct metadata still reads fine.
        let got: Vec<(u64, ())> = RunReader::<()>::open(&bio(), &good, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overcounted_varlen_record_count_is_an_io_error() {
        // Var-format dual failure: byte size matches the file but the
        // record count claims one more record than the bytes hold.  Open
        // cannot catch this (the byte size is honest), so the reader must
        // refuse at the point the counts disagree.
        let path = tmp_path("var-overcount.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..50u64).map(|i| (i, vec![i as u8; 10])).collect();
        let good = spill(&path, &records);
        let run = SpilledRun {
            path: path.clone(),
            len: records.len() + 1,
            bytes: good.bytes,
            raw_bytes: good.raw_bytes,
            compression: SpillCompression::Off,
            retries: 0,
        };
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("overcounted record count must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_length_prefix_cannot_read_past_the_run() {
        let path = tmp_path("var-badprefix.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![7u8; 16])).collect();
        let run = spill(&path, &records);
        // Overwrite the first record's length prefix (offset 8) with a huge
        // value; the file size is unchanged, so only the in-stream budget
        // check can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("corrupted length prefix must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_utf8_string_payload_is_invalid_data() {
        // Write raw bytes, read back as String: the var formats are
        // identical, so this models on-disk corruption of a String run.
        let path = tmp_path("var-badutf8.bin");
        let records: Vec<(u64, Vec<u8>)> = vec![(1, vec![0xFF, 0xFE, 0xFD])];
        let run = spill(&path, &records);
        let mut reader = RunReader::<String>::open(&bio(), &run, 0, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("non-UTF-8 String payload must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reader_budget_is_clamped_and_shared() {
        assert_eq!(per_run_reader_budget(8 << 20, 2), 4 << 20);
        assert_eq!(per_run_reader_budget(8 << 20, 0), 8 << 20);
        assert_eq!(per_run_reader_budget(1 << 10, 4), 256);
        assert_eq!(per_run_reader_budget(usize::MAX, 1), 8 << 20);
    }

    #[test]
    fn reader_budget_aggregate_never_exceeds_the_pool() {
        // Regression for the 4 KiB-floor overshoot: 64 runs against a
        // 16 KiB budget used to claim 64 × 4096 = 256 KiB of buffers.
        // The aggregate is now capped at max(total, 64 · runs).
        for (total, runs) in [
            (16 << 10, 64),
            (1 << 10, 100),
            (0, 7),
            (8 << 20, 3),
            (1 << 30, 1000),
        ] {
            let per_run = per_run_reader_budget(total, runs);
            let aggregate = per_run * runs;
            let worst = total.max(64 * runs);
            assert!(
                aggregate <= worst,
                "total {total}, runs {runs}: aggregate {aggregate} > {worst}"
            );
        }
        // The old failure case specifically.
        assert_eq!(per_run_reader_budget(16 << 10, 64), 256);
    }

    #[test]
    fn compressed_pod_run_roundtrips_and_shrinks() {
        let path = tmp_path("lz-pod.bin");
        // Sorted, dense keys: deltas are tiny, values repeat — both codec
        // legs should bite.
        let records: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i / 4, i % 7)).collect();
        let run = spill_lz(&path, &records);
        assert_eq!(run.compression, SpillCompression::DeltaLz);
        assert_eq!(run.raw_bytes, 12 * 20_000);
        assert!(
            run.bytes < run.raw_bytes / 2,
            "dense pod runs must compress: {} vs {}",
            run.bytes,
            run.raw_bytes
        );
        let got: Vec<(u32, u32)> = RunReader::<u32>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_varlen_run_roundtrips_across_blocks() {
        let path = tmp_path("lz-var.bin");
        // > BLOCK_MAX_RECORDS records and > BLOCK_RAW_TARGET payload bytes,
        // so the run spans several blocks, with empty and multi-KiB values
        // crossing block boundaries.
        let mut records: Vec<(u64, String)> = (0..(BLOCK_MAX_RECORDS as u64 * 2 + 17))
            .map(|i| {
                let v = match i % 5 {
                    0 => String::new(),
                    1 => format!("short-{i}"),
                    _ => format!(
                        "GET /api/v1/items/{i} HTTP/1.1 {}",
                        "x".repeat(i as usize % 64)
                    ),
                };
                (i * 3, v)
            })
            .collect();
        records.push((u64::MAX, "final".to_string()));
        let run = spill_lz(&path, &records);
        assert!(run.bytes < run.raw_bytes, "structured text must compress");
        let got: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        // A tiny read buffer must not change the decoded stream.
        let got_small: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 0, 1)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got_small, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_and_flat_runs_decode_identically() {
        let path_a = tmp_path("lz-vs-flat-a.bin");
        let path_b = tmp_path("lz-vs-flat-b.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..5000u64)
            .map(|i| {
                (
                    i * 7,
                    (0..(i as usize % 40))
                        .map(|j| (i + j as u64) as u8)
                        .collect(),
                )
            })
            .collect();
        let flat = spill(&path_a, &records);
        let lz = spill_lz(&path_b, &records);
        assert_eq!(flat.raw_bytes, lz.raw_bytes);
        let a: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &flat, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        let b: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &lz, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(a, b, "both encodings must decode to identical records");
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }

    #[test]
    fn incompressible_block_falls_back_to_stored_raw() {
        let path = tmp_path("lz-raw.bin");
        // Pseudo-random payloads: LZ cannot win, so blocks store raw and
        // the overhead stays at the per-block header + key stream.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let records: Vec<(u64, Vec<u8>)> = (0..500u64)
            .map(|i| {
                let v = (0..64)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                (i, v)
            })
            .collect();
        let run = spill_lz(&path, &records);
        // Still decodes, and never inflates past raw + headers + keys.
        let got: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        assert!(
            run.bytes <= run.raw_bytes,
            "store-raw caps the payload; {} vs {}",
            run.bytes,
            run.raw_bytes
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_compressed_run_is_an_io_error() {
        let path = tmp_path("lz-truncated.bin");
        let records: Vec<(u64, String)> = (0..300u64)
            .map(|i| (i, format!("value-{i}-{}", "z".repeat(i as usize % 30))))
            .collect();
        let run = spill_lz(&path, &records);
        for cut in [run.bytes - 1, run.bytes / 2, 3, 0] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<String>::open(&bio(), &run, 0, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u64>()
                    .expect_err("short compressed file must not read back"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_block_header_cannot_read_past_the_run() {
        let records: Vec<(u64, Vec<u8>)> = (0..100u64).map(|i| (i, vec![3u8; 20])).collect();
        // Corrupt each u32 header field in turn (offsets 0, 4, 8, 12 and
        // the checksum at 16) and the enc flag (20); every corruption must
        // surface as an error, never garbage records or a huge allocation.
        for offset in [0usize, 4, 8, 12, 16, 20] {
            let path = tmp_path(&format!("lz-badheader-{offset}.bin"));
            let run = spill_lz(&path, &records);
            let mut bytes = std::fs::read(&path).unwrap();
            for b in &mut bytes[offset..offset + 1] {
                *b ^= 0xFF;
            }
            if offset < 16 {
                bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096).unwrap();
            assert!(
                reader.read_all::<u64>().is_err(),
                "corrupt header field at {offset} must fail"
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn corrupted_block_body_fails_the_checksum() {
        // Flip a single payload bit with every header field intact: only
        // the per-block CRC can catch this, and it must report
        // `InvalidData` before any record of the block is served.
        let records: Vec<(u64, Vec<u8>)> = (0..100u64).map(|i| (i, vec![i as u8; 20])).collect();
        let path = tmp_path("lz-bitrot.bin");
        let run = spill_lz(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // inside the (single) block's payload
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("bit rot must fail the block checksum");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_single_bit_flip_in_a_multi_block_run_is_invalid_data() {
        // Mostly-zero values compress, so each block's raw payload
        // reaches `BLOCK_RAW_TARGET` in a few dozen records while its
        // sections stay small enough to flip every byte.  Keys step by
        // varied amounts, so the key streams hold multi-byte varints.
        let records: Vec<(u64, Vec<u8>)> = (0..200u64)
            .map(|i| {
                let mut v = vec![0u8; 3000 + (i as usize % 7) * 100];
                v[0] = i as u8;
                (i * i * 37, v)
            })
            .collect();
        let path = tmp_path("lz-bitflip-sweep.bin");
        let run = spill_lz(&path, &records);
        let clean = std::fs::read(&path).unwrap();
        // Byte ranges of every block's key stream and payload.
        let mut sections = Vec::new();
        let mut at = 0usize;
        while at < clean.len() {
            let field = |o: usize| {
                u32::from_le_bytes(clean[at + o..at + o + 4].try_into().unwrap()) as usize
            };
            let body = at + BLOCK_HEADER_BYTES;
            let end = body + field(4) + field(12);
            assert_eq!(clean[at + 20], 1, "every block must be LZ-compressed");
            sections.push(body..end);
            at = end;
        }
        assert!(sections.len() >= 3, "{} blocks", sections.len());
        for offset in sections.into_iter().flatten() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 1 << (offset % 8);
            std::fs::write(&path, &bytes).unwrap();
            let got = RunReader::<Vec<u8>>::open(&bio(), &run, 0, 4096)
                .unwrap()
                .read_all::<u64>();
            match got {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "offset {offset}: {e}"),
                Ok(_) => panic!("a bit flip at offset {offset} read back as Ok"),
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Read windows the codec tests decode under: small enough that
    /// records straddle the window's edge, and the window of a one-run
    /// merge.  A flat run's window is half of the reader's buffer bytes.
    fn codec_windows() -> [usize; 4] {
        let merge = per_run_reader_budget(crate::sorter::MERGE_READ_BUFFER_BYTES, 1) / 2;
        [64, 100, 4 << 10, merge / 2]
    }

    /// Writes `records` in both encodings and reads each back under every
    /// [`codec_windows`] window, in blocks of one record and of about 1 KiB:
    /// the decoded records, compared through `view`, must be the input.
    fn assert_codec_roundtrips<K, V, P>(name: &str, records: &[(K, V)], view: impl Fn(&V) -> P)
    where
        K: IntegerKey + PartialEq + std::fmt::Debug,
        V: SpillValue,
        P: PartialEq + std::fmt::Debug,
    {
        let want: Vec<(K, P)> = records.iter().map(|(k, v)| (*k, view(v))).collect();
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let path = tmp_path(&format!("codec-{name}-{compression:?}.bin"));
            let run = write_run(&bio(), &path, records, compression).unwrap();
            for window in codec_windows() {
                for block_bytes in [1, 1 << 10] {
                    let ctx = format!("{name} {compression:?} window {window} block {block_bytes}");
                    let mut reader = RunReader::<V>::open(&bio(), &run, 0, 2 * window).unwrap();
                    let mut raw = Vec::new();
                    while !reader.read_block(block_bytes, &mut raw).expect(&ctx) {}
                    let got: Vec<(K, P)> = raw
                        .iter()
                        .map(|(k, v)| (K::from_ordered_u64(*k), view(v)))
                        .collect();
                    assert_eq!(got, want, "{ctx}");
                }
            }
            std::fs::remove_file(path).ok();
        }
    }

    /// Value lengths for the var-length codec cases: empty, short, about
    /// a window, and one of 10 000 bytes, longer than every small window.
    fn var_len(i: usize) -> usize {
        match i % 7 {
            0 => 0,
            1 => 90 + i % 13,
            2 => 4000 + i % 200,
            _ if i == 300 => 10_000,
            _ => i % 37,
        }
    }

    fn var_bytes(i: usize) -> Vec<u8> {
        (0..var_len(i)).map(|j| (i * 31 + j) as u8).collect()
    }

    #[test]
    fn value_codec_roundtrips_every_value_family_under_both_encodings() {
        let n = 700usize;
        let key = |i: usize| i as u64 * 3;
        let records: Vec<(u32, u32)> = (0..n).map(|i| (key(i) as u32, i as u32 * 7)).collect();
        assert_codec_roundtrips("u32", &records, |v| *v);
        let records: Vec<(u64, u64)> = (0..n).map(|i| (key(i), u64::MAX - i as u64)).collect();
        assert_codec_roundtrips("u64", &records, |v| *v);
        let records: Vec<(u64, [u16; 3])> = (0..n)
            .map(|i| (key(i), [i as u16, !(i as u16), 3]))
            .collect();
        assert_codec_roundtrips("u16x3", &records, |v| *v);
        let records: Vec<(u64, ())> = (0..n).map(|i| (key(i), ())).collect();
        assert_codec_roundtrips("unit", &records, |v| *v);
        let records: Vec<(u64, Vec<u8>)> = (0..n).map(|i| (key(i), var_bytes(i))).collect();
        assert_codec_roundtrips("vec", &records, Vec::clone);
        let records: Vec<(u64, Box<[u8]>)> = (0..n)
            .map(|i| (key(i), var_bytes(i).into_boxed_slice()))
            .collect();
        assert_codec_roundtrips("boxed", &records, Box::clone);
        let records: Vec<(u64, String)> = (0..n)
            .map(|i| (key(i), "ü".repeat(var_len(i) / 2)))
            .collect();
        assert_codec_roundtrips("string", &records, String::clone);
        let records: Vec<(u64, crate::StringKeyed<u32>)> = (0..n)
            .map(|i| {
                let full_key = var_bytes(i);
                (key(i), crate::StringKeyed::new(&full_key, i as u32))
            })
            .collect();
        assert_codec_roundtrips("string-keyed", &records, |v| {
            (v.key_bytes().to_vec(), *v.value())
        });
    }

    #[test]
    fn flat_run_file_is_each_key_then_its_payload() {
        // Fixed values: the ordered key as 8 LE bytes, then the value's
        // bytes.  30 000 records span several write chunks.
        let path = tmp_path("golden-pod.bin");
        let records: Vec<(u32, u32)> = (0..30_000u32).map(|i| (i * 5, 0xA0B0_C0D0 ^ i)).collect();
        let run = spill(&path, &records);
        let mut want = Vec::new();
        for (k, v) in &records {
            want.extend_from_slice(&u64::from(*k).to_le_bytes());
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(run.bytes, want.len() as u64);
        assert!(
            std::fs::read(&path).unwrap() == want,
            "fixed-value run bytes"
        );
        // Var values: key, then the u32 LE length, then the bytes; the
        // 70 000-byte value is longer than a write chunk.
        let records: Vec<(u64, String)> = vec![
            (5, String::new()),
            (9, "héllo".to_string()),
            (11, "z".repeat(70_000)),
            (u64::MAX, "last".to_string()),
        ];
        let run = spill(&path, &records);
        let mut want = Vec::new();
        for (k, v) in &records {
            want.extend_from_slice(&k.to_le_bytes());
            want.extend_from_slice(&(v.len() as u32).to_le_bytes());
            want.extend_from_slice(v.as_bytes());
        }
        assert_eq!(run.bytes, want.len() as u64);
        assert!(std::fs::read(&path).unwrap() == want, "var-value run bytes");
        // String-keyed values: key, the full key length-prefixed, then the
        // wrapped value's payload.
        let full = b"full-key".to_vec();
        let records = vec![(3u64, crate::StringKeyed::new(&full, 0x0102_0304u32))];
        let run = spill(&path, &records);
        let mut want = 3u64.to_le_bytes().to_vec();
        want.extend_from_slice(&(full.len() as u32).to_le_bytes());
        want.extend_from_slice(&full);
        want.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        assert_eq!(run.bytes, want.len() as u64);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "string-keyed run bytes"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_spill_rejects_unsorted_records() {
        let path = tmp_path("lz-unsorted.bin");
        let records: Vec<(u64, u32)> = vec![(10, 1), (5, 2)];
        let err = write_run(&bio(), &path, &records, SpillCompression::DeltaLz)
            .expect_err("delta encoding requires sorted keys");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(path).ok();
    }
}
