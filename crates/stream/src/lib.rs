//! # stream — bounded-memory, out-of-core sorting on top of DovetailSort
//!
//! The core `dtsort` crate sorts fully in-memory slices.  This crate opens
//! the two scenario families the in-memory API cannot serve:
//!
//! * **Larger-than-memory inputs** — datasets that exceed the configured
//!   memory budget are sorted with the classic external-sort shape:
//!   sorted *runs* are spilled to disk and k-way merged at the end.
//! * **Pipelined ingestion** — records arrive as pushed batches (network
//!   shards, log segments, generator output) and the sorter overlaps
//!   run-sorting with ingestion instead of requiring the full dataset up
//!   front.
//!
//! ## How it works
//!
//! [`StreamSorter`] buffers pushed records up to the run capacity derived
//! from [`dtsort::StreamConfig::memory_budget_bytes`], which is split
//! into three equal shares: one buffers records, one is DovetailSort's
//! ping-pong scratch plus its 2-byte bucket id per record, and one pays
//! for the run in flight to the spill writer.
//! Each full buffer is stably sorted with the paper's DovetailSort and
//! written to a spill file; the final partial buffer stays in memory.
//! [`StreamSorter::finish`] merges all runs with a tournament loser tree
//! ([`parlay::kway::LoserTree`]) behind a streaming iterator whose
//! footprint stays within the budget; [`StreamSorter::finish_vec`] drains
//! the same merge into a vector.  The tree caches each run's head as one
//! integer word (exhausted bit, ordered `u64` key, run index), so a match
//! is one integer compare and a branch-free select, and a pop touches
//! only the winning run's cursor.  Equal keys go to the earlier run, so
//! the end-to-end sort is **stable** with respect to push order.  Only
//! string-keyed records, whose 8-byte key prefixes can collide, make the
//! tree look at a record: equal prefixes tie-break on the full key.
//! Every cursor has one shape, a run delivered in record blocks: each
//! spilled run's blocks come from its feed, decoded ahead on the spill
//! I/O pool or inline on the merging thread (see below), and each
//! in-memory run is a single block.
//! Spill reads retry transient failures in one place, the run reader: a
//! failed open is opened again, and a read that fails mid-run reopens the
//! run and skips the records it already served.  A read error that
//! survives the retries ends its run.  In a run's first block, decoded
//! before the merge starts, it is returned as `Err` by `finish`; later,
//! it panics the streaming iterator (the records it yielded are an exact
//! prefix of the output) and is returned as `Err` by `finish_vec`.
//!
//! ## Heavy-key carry-over and the dovetail merge
//!
//! DovetailSort's `O(n)` behaviour on duplicate-dominated inputs comes
//! from *heavy keys*: sampling detects keys with `Ω(n/2^γ)` occurrences,
//! each heavy key gets a dedicated bucket that skips all further radix
//! recursion, and the *dovetail merge* re-interleaves those buckets with
//! the sorted light records.  Chunking a stream into runs would normally
//! re-randomize that detection per run — a key that is heavy over the
//! whole stream but borderline within one run might be missed, sending
//! its records down the full radix recursion of that run.
//!
//! The streaming sorter closes this gap by **carrying heavy keys across
//! runs** ([`dtsort::sort_run_pairs_with`]): the heavy keys confirmed by
//! run `i`'s bucket counts are injected into run `i+1`'s root sampling, so
//! a stream-wide heavy key is dovetailed in *every* subsequent run, paying
//! `O(1)` per record from the second run on.  Carried keys that have
//! fallen light are dropped by the per-run confirmation (bucket count
//! below `n/2^{γ+2}`), so a drifting key distribution cannot bloat the
//! bucket table.  The dovetail merge itself is unchanged — carried keys
//! enter it exactly as natively sampled heavy keys do — and the final
//! k-way merge sees one sorted sequence per run, so heavy records cost
//! `log(runs)` comparisons there like everything else.
//!
//! ## Pipelined spill I/O
//!
//! Spilling is pipelined: each sorted run is handed to a dedicated
//! **writer thread**, so run `N + 1` sorts while run `N` streams to disk
//! (fsync included — a run recorded as spilled is durably on disk).  At
//! most one run is in flight: the writer hands each run back with its
//! outcome, and the engine settles run `N` before handing over run
//! `N + 1` — that wait is the backpressure.  On a host with more than one
//! CPU the final merge **reads ahead** of the loser tree (the
//! crate-private `pipeline` module): each spilled run's next block is
//! decoded by a task on the spill I/O pool (2 threads, whatever the run
//! count), sized by the run's share of an 8 MiB merge read buffer.  On one
//! CPU the decode tasks could not run alongside the merge, so the merging
//! thread decodes each block itself, through the same feed and decode
//! loop.  The memory budget is split into three *spill shares* so
//! the in-flight run is paid for out of the same budget.  Writer-side
//! errors surface on the next `push` or on `finish` — never dropped, never
//! a hang — with the failed run's records reclaimed and the engine
//! entering **degradation probation**: it writes every run inline on the
//! pushing thread until [`PROBATION_SPILLS`] consecutive spills succeed,
//! then restarts the writer thread (visible as `spill.degraded_syncs` /
//! [`StreamStats::degraded_syncs`]).  A panicking value serializer is such
//! an error too, on either thread.  Transient failures
//! (interrupted/timed-out syscalls) are retried before any of that — up
//! to 3 times, after a deterministic backoff of 2 ms doubling to at most
//! 50 ms — and errors that survive the retries are typed [`SpillError`]s
//! naming the run file, run index (the run's position among the engine's
//! runs, whichever path wrote it) and bytes attempted.  The crate-private
//! `spiller` module owns this whole lifecycle, and the budget split, once
//! for both engines.
//!
//! ## Spill I/O backends
//!
//! All spill reads and writes go through the crate-private `SpillIo`
//! abstraction (re-exported as the opaque [`SpillIoHandle`]), selected by
//! [`dtsort::StreamConfig::spill_io`].  Each handle owns one job pool of
//! 2 threads behind a queue of 32 slots, started on first use; the merge
//! read-ahead runs on it under either backend.
//!
//! * [`SpillIoMode::Blocking`] (default) — buffered `File` I/O on the
//!   calling thread, byte-for-byte the original path and the
//!   differential reference.
//! * [`SpillIoMode::Batched`] — positioned reads and writes as jobs on
//!   that pool, with pooled, recycled transfer buffers.  Writes are
//!   chunked and submitted asynchronously (`finish` still syncs before a
//!   run is recorded durable) and reads are double-buffered.
//!
//! Both backends produce byte-identical spill files and sorted output;
//! the differential suites pin that equivalence.
//!
//! ## Streaming group-by
//!
//! When the consumer wants *aggregates per key* rather than the sorted
//! records themselves, [`StreamGroupBy`] does strictly less work: each run
//! is semisorted (heavy duplicate keys collapse in one pass), folded into
//! one partial aggregate per distinct key, and only those partials are
//! spilled; the final merge combines equal-key partials while streaming.
//! Duplicate-dominated streams never materialize their duplicates on disk.
//!
//! ## Variable-length values
//!
//! Spilled values come in two families, unified by the sealed
//! [`SpillValue`] abstraction:
//!
//! * [`PodValue`] — fixed-size `Copy` types spilled as their raw byte
//!   image (`key | value`), read back with zero-copy scratch.  This is
//!   the original fast path and its on-disk format and in-memory sort are
//!   unchanged.
//! * [`VarValue`] — `Vec<u8>`, `String` and `Box<[u8]>`, spilled
//!   length-prefixed (`key | value_len (u32 LE) | value bytes`) and
//!   streamed through a reusable side buffer.  In memory, DovetailSort
//!   moves only `(key, index)` tags and the owned payloads are permuted
//!   once per run, so strings are never copied through the sort.
//!
//! `StreamSorter<u64, String>` therefore spills URLs or log lines as
//! naturally as pod records, and the sorter additionally spills early when
//! buffered payload *bytes* (not just record count) reach one budget
//! share.  [`FirstAgg`] turns [`StreamGroupBy`] into a bounded-memory
//! first-payload-per-key dedup over such values.
//!
//! ## String keys
//!
//! Byte-string *keys* (not just values) are supported end to end by
//! [`StringStreamSorter`] and [`StringStreamGroupBy`]: a key's 8-byte
//! big-endian prefix rides the ordered-`u64` merge domain
//! ([`dtsort::string_key_prefix64`] is monotone in lexicographic order)
//! and the full key bytes travel in the spilled record, tie-breaking
//! equal prefixes at sort, merge, and group time.  The output order is
//! exactly lexicographic over the key bytes and the sort stays stable.
//! See the `strkey` module docs for the collision analysis.
//!
//! ## Compressed spill runs
//!
//! [`dtsort::StreamConfig::spill_compression`] switches spilled runs from
//! the flat record encoding to delta-compressed blocks
//! ([`SpillCompression::DeltaLz`]): sorted keys are varint-delta encoded
//! and payloads are compressed with a built-in LZ codec (independently
//! decodable 64 KiB blocks, store-raw fallback for incompressible data).
//! Both encodings decode through the same reader, flow through the same
//! background writer thread and merge read-ahead, and yield
//! byte-identical output — the uncompressed format stays the
//! differential reference.  [`StreamStats::spilled_raw_bytes`] /
//! [`GroupByStats::spilled_raw_bytes`] expose the achieved on-disk
//! ratio.
//!
//! ## Choosing an API
//!
//! | Need | Call |
//! |---|---|
//! | Stream the sorted result, bounded memory | [`StreamSorter::finish`] |
//! | Materialize into a vector, read errors as `Err` | [`StreamSorter::finish_vec`] (the same merge, drained) |
//! | Per-key aggregates of a stream, bounded memory | [`StreamGroupBy::finish`] |
//! | Dedup variable-length payloads per key | [`StreamGroupBy`] + [`FirstAgg`] |

mod codec;
mod fault;
mod groupby;
mod metrics;
#[cfg(test)]
mod obs_tests;
mod pipeline;
mod sorter;
mod spill;
mod spiller;
mod spillio;
mod strkey;

pub use dtsort::{SortConfig, SpillCompression, SpillIoMode, StreamConfig, StringKey};
pub use fault::{FaultKind, FaultPlan, DEFAULT_FAULT_KINDS, DEFAULT_FAULT_PERIOD};
pub use groupby::{
    Aggregator, ConcatAgg, CountAgg, FirstAgg, FoldAgg, GroupByStats, GroupedStream, MaxAgg,
    MinAgg, StreamGroupBy, SumAgg,
};
pub use sorter::{SortedStream, StreamSorter, StreamStats};
pub use spill::{PodValue, SpillError, SpillValue, VarValue};
pub use spiller::PROBATION_SPILLS;
pub use spillio::SpillIoHandle;
pub use strkey::{
    StringAggAdapter, StringGroupedStream, StringKeyed, StringSortedStream, StringStreamGroupBy,
    StringStreamSorter,
};
