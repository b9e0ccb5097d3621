//! Order-preserving string keys for the streaming engines.
//!
//! The sorter and group-by merge in the ordered-`u64` domain
//! ([`dtsort::IntegerKey`]); a variable-length byte-string key rides that
//! domain through its **8-byte big-endian prefix**
//! ([`dtsort::string_key_prefix64`]), which is monotone with respect to
//! lexicographic byte order.  The prefix is not injective — keys sharing
//! their first eight bytes collide — so every record carries its full key
//! bytes in the spill payload ([`StringKeyed`]) and the engines tie-break
//! on them:
//!
//! * **within a run**: after the DovetailSort pass over `(prefix, index)`
//!   tags, equal-prefix spans are stably re-sorted by full key;
//! * **across runs**: [`StringKeyed`] sets
//!   [`crate::SpillValue::SPILL_TIE_BREAK`], so the final loser tree
//!   breaks equal prefixes on the full key bytes, and fully equal keys
//!   still favour earlier runs, so the end-to-end sort stays stable;
//! * **in the group-by**: prefix-colliding keys are sub-grouped by the
//!   embedded key bytes before folding, and the merge refuses to combine
//!   partials whose full keys differ.
//!
//! The result: [`StringStreamSorter`] and [`StringStreamGroupBy`] accept
//! `String` / `Vec<u8>` keys end to end, spilling and merging through the
//! exact same run formats, pipeline, and read-ahead as the integer-keyed
//! engines.
//!
//! ```
//! use stream::StringStreamSorter;
//!
//! let mut sorter: StringStreamSorter<String, u64> = StringStreamSorter::new();
//! sorter.push_record("banana".to_string(), 1).unwrap();
//! sorter.push_record("apple".to_string(), 2).unwrap();
//! sorter.push_record("apricot".to_string(), 3).unwrap();
//! let sorted: Vec<(String, u64)> = sorter.finish().unwrap().collect();
//! assert_eq!(sorted[0].0, "apple");
//! assert_eq!(sorted[2].0, "banana");
//! ```

use crate::groupby::{Aggregator, GroupedStream, StreamGroupBy};
use crate::sorter::{SortedStream, StreamSorter};
use crate::spill::{decode_prefixed, encode_prefixed, sealed::Sealed, SpillValue};
use crate::spillio::SpillIoHandle;
use dtsort::{string_key_prefix64, IntegerKey, RunReport, SortConfig, StreamConfig, StringKey};
use std::io;
use std::marker::PhantomData;

use crate::groupby::GroupByStats;
use crate::sorter::StreamStats;

/// A spillable record pairing a variable-length key's full bytes with a
/// value, used as the *value* slot of the integer-keyed engines when the
/// logical key is a byte string.
///
/// Spill payload layout (the value part of the flat record format, and
/// the per-record payload inside compressed blocks):
///
/// ```text
/// ┌───────────────────┬────────────┬──────────────────────────┐
/// │ key_len (u32 LE)  │ key bytes  │ value payload (V's own)  │
/// └───────────────────┴────────────┴──────────────────────────┘
/// ```
#[derive(Debug, Clone)]
pub struct StringKeyed<V> {
    key: Box<[u8]>,
    value: V,
}

impl<V: SpillValue> StringKeyed<V> {
    /// Pairs a key's bytes with a value.
    pub fn new<K: StringKey>(key: &K, value: V) -> Self {
        Self {
            key: key.key_bytes().to_vec().into_boxed_slice(),
            value,
        }
    }

    /// The full key bytes this record carries.
    pub fn key_bytes(&self) -> &[u8] {
        &self.key
    }

    /// The wrapped value.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// Unwraps into the value, dropping the key bytes.
    pub fn into_value(self) -> V {
        self.value
    }
}

impl<V: SpillValue> Sealed for StringKeyed<V> {}

impl<V: SpillValue> SpillValue for StringKeyed<V> {
    const SPILL_FIXED_SIZE: Option<usize> = None;
    const SPILL_TIE_BREAK: bool = true;

    fn spill_size(&self) -> usize {
        4 + self.key.len() + self.value.spill_size()
    }

    fn spill_encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        encode_prefixed(&self.key, out, "string key")?;
        self.value.spill_encode(out)
    }

    fn spill_decode(src: &mut &[u8]) -> io::Result<Self> {
        let key = decode_prefixed(src)?.into();
        let value = V::spill_decode(src)?;
        Ok(Self { key, value })
    }

    /// DovetailSort over `(prefix, index)` tags like the plain var path,
    /// then a stable full-key re-sort of every equal-prefix span: the run
    /// comes out in exact lexicographic key order, push order preserved
    /// within fully equal keys.
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport {
        let mut tags: Vec<(u64, u64)> = buffer
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (k.to_ordered_u64(), i as u64))
            .collect();
        let report = dtsort::sort_run_pairs_with(&mut tags, cfg, carry);
        let mut slots: Vec<Option<(K, Self)>> = buffer.drain(..).map(Some).collect();
        buffer.extend(
            tags.iter()
                .map(|&(_, i)| slots[i as usize].take().expect("each slot moved once")),
        );
        let mut s = 0usize;
        while s < buffer.len() {
            let mut e = s + 1;
            while e < buffer.len() && buffer[e].0 == buffer[s].0 {
                e += 1;
            }
            if e - s > 1 {
                // `sort_by` is stable, so records with fully equal keys
                // keep their push order.
                buffer[s..e].sort_by(|a, b| a.1.key.cmp(&b.1.key));
            }
            s = e;
        }
        report
    }

    fn spill_embedded_key(&self) -> Option<&[u8]> {
        Some(&self.key)
    }
}

/// The integer-keyed record a string-keyed one rides as: the key's 8-byte
/// prefix, and the full key bytes beside the value.
fn string_keyed<K: StringKey, V: SpillValue>(key: &K, value: V) -> (u64, StringKeyed<V>) {
    let prefix = string_key_prefix64(key.key_bytes());
    (prefix, StringKeyed::new(key, value))
}

/// Rebuilds a typed record from a merged one; the key bytes were produced
/// from a valid key by this process, so failure means file corruption —
/// the same environment fault a mid-merge read error is, reported the
/// same way (panic; see [`crate::SortedStream`]).
fn rebuild_record<K: StringKey, V>((_, rec): (u64, StringKeyed<V>)) -> (K, V) {
    let key = K::from_key_bytes(&rec.key)
        .unwrap_or_else(|e| panic!("corrupt string key read back from spilled run: {e}"));
    (key, rec.value)
}

/// A bounded-memory streaming sorter over **string-keyed** records:
/// [`crate::StreamSorter`]'s push/finish API with `String` / `Vec<u8>`
/// keys (any [`dtsort::StringKey`]), sorted in lexicographic byte order.
///
/// Internally each record's ordering key is its 8-byte prefix
/// ([`dtsort::string_key_prefix64`]) and the full key travels in the
/// spilled payload; see the module docs for why the result is exactly
/// lexicographic and stable.  All [`StreamConfig`] knobs (budget, spill
/// compression, spill backend) apply unchanged.
pub struct StringStreamSorter<K: StringKey, V: SpillValue = ()> {
    pub(crate) inner: StreamSorter<u64, StringKeyed<V>>,
    _key: PhantomData<fn() -> K>,
}

impl<K: StringKey, V: SpillValue> Default for StringStreamSorter<K, V> {
    fn default() -> Self {
        Self::with_config(StreamConfig::default())
    }
}

impl<K: StringKey, V: SpillValue> StringStreamSorter<K, V> {
    /// Sorter with the default [`StreamConfig`] (256 MiB budget).
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(cfg: StreamConfig) -> Self {
        let io = SpillIoHandle::from_config(&cfg);
        Self::with_config_and_io(cfg, io)
    }

    /// Like [`StringStreamSorter::with_config`] but spilling through the
    /// caller's (possibly shared) I/O backend; see
    /// [`crate::StreamSorter::with_config_and_io`].
    pub fn with_config_and_io(cfg: StreamConfig, io: SpillIoHandle) -> Self {
        Self {
            inner: StreamSorter::with_config_and_io(cfg, io),
            _key: PhantomData,
        }
    }

    /// Appends one record, spilling a full run if due.
    pub fn push_record(&mut self, key: K, value: V) -> io::Result<()> {
        let (prefix, keyed) = string_keyed(&key, value);
        self.inner.push_record(prefix, keyed)
    }

    /// Appends a batch of records (cloning each; use
    /// [`StringStreamSorter::push_record`] to move values in).
    ///
    /// Like [`crate::StreamSorter::push`], a spill error does not drop
    /// the rest of the slice: the records after the failed spill are
    /// buffered without another spill attempt, and the error is reported
    /// once the whole slice is owned by the sorter.
    pub fn push(&mut self, records: &[(K, V)]) -> io::Result<()> {
        let mut records = records.iter();
        for (k, v) in records.by_ref() {
            if let Err(e) = self.push_record(k.clone(), v.clone()) {
                for (k, v) in records {
                    self.inner.core.buffer_record(string_keyed(k, v.clone()));
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Total records accepted so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Counters (spills, carried heavy prefixes, ...).
    pub fn stats(&self) -> &StreamStats {
        self.inner.stats()
    }

    /// See [`crate::StreamSorter::flush_spills`].
    pub fn flush_spills(&mut self) -> io::Result<()> {
        self.inner.flush_spills()
    }

    /// See [`crate::StreamSorter::shrink_to_budget`].
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.inner.shrink_to_budget()
    }

    /// Finishes the sort, streaming `(key, value)` pairs in lexicographic
    /// key order (stable in push order for equal keys).
    pub fn finish(self) -> io::Result<StringSortedStream<K, V>> {
        Ok(StringSortedStream {
            inner: self.inner.finish()?,
            _key: PhantomData,
        })
    }

    /// [`StringStreamSorter::finish`]'s merge drained into a vector, with
    /// a spill read error returned as `Err`
    /// ([`crate::StreamSorter::finish_vec`]).
    pub fn finish_vec(self) -> io::Result<Vec<(K, V)>> {
        let mut stream = self.inner.finish()?;
        let mut out = Vec::with_capacity(stream.len());
        while let Some(record) = stream.try_next()? {
            out.push(rebuild_record(record));
        }
        Ok(out)
    }
}

/// Streaming sorted output of a [`StringStreamSorter`].
pub struct StringSortedStream<K: StringKey, V: SpillValue> {
    inner: SortedStream<u64, StringKeyed<V>>,
    _key: PhantomData<fn() -> K>,
}

impl<K: StringKey, V: SpillValue> Iterator for StringSortedStream<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        self.inner.next().map(rebuild_record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<K: StringKey, V: SpillValue> ExactSizeIterator for StringSortedStream<K, V> {}

/// Lifts a plain [`Aggregator`] over values into one over
/// [`StringKeyed`] records: the key bytes ride along unchanged while the
/// wrapped aggregator folds the values.  `combine` is only ever called on
/// partials of the same full key (the group-by guarantees it via
/// [`crate::SpillValue::spill_embedded_key`]).
pub struct StringAggAdapter<G>(G);

impl<G: Aggregator> Aggregator for StringAggAdapter<G> {
    type Input = StringKeyed<G::Input>;
    type Acc = StringKeyed<G::Acc>;

    fn lift(&self, v: StringKeyed<G::Input>) -> StringKeyed<G::Acc> {
        StringKeyed {
            key: v.key,
            value: self.0.lift(v.value),
        }
    }

    fn combine(&self, a: StringKeyed<G::Acc>, b: StringKeyed<G::Acc>) -> StringKeyed<G::Acc> {
        debug_assert_eq!(a.key, b.key, "combine across distinct full keys");
        StringKeyed {
            key: a.key,
            value: self.0.combine(a.value, b.value),
        }
    }
}

/// Bounded-memory streaming group-by over **string-keyed** records:
/// [`crate::StreamGroupBy`] with `String` / `Vec<u8>` keys, producing one
/// `(key, aggregate)` pair per distinct key in lexicographic key order.
///
/// Prefix-colliding keys (first 8 bytes equal) are kept apart by the full
/// key bytes embedded in every partial, both when a run is aggregated and
/// when per-run partials combine at merge time.
pub struct StringStreamGroupBy<K: StringKey, G: Aggregator> {
    inner: StreamGroupBy<u64, StringAggAdapter<G>>,
    _key: PhantomData<fn() -> K>,
}

impl<K: StringKey, G: Aggregator> StringStreamGroupBy<K, G> {
    /// Group-by with the default [`StreamConfig`] (256 MiB budget).
    pub fn new(agg: G) -> Self {
        Self::with_config(agg, StreamConfig::default())
    }

    pub fn with_config(agg: G, cfg: StreamConfig) -> Self {
        let io = SpillIoHandle::from_config(&cfg);
        Self::with_config_and_io(agg, cfg, io)
    }

    /// Like [`StringStreamGroupBy::with_config`] but spilling through the
    /// caller's (possibly shared) I/O backend; see
    /// [`crate::StreamGroupBy::with_config_and_io`].
    pub fn with_config_and_io(agg: G, cfg: StreamConfig, io: SpillIoHandle) -> Self {
        Self {
            inner: StreamGroupBy::with_config_and_io(StringAggAdapter(agg), cfg, io),
            _key: PhantomData,
        }
    }

    /// Appends one record, aggregating and spilling a full run if due.
    pub fn push_record(&mut self, key: K, value: G::Input) -> io::Result<()> {
        let (prefix, keyed) = string_keyed(&key, value);
        self.inner.push_record(prefix, keyed)
    }

    /// Counters (spills, collapse ratio, ...).
    pub fn stats(&self) -> &GroupByStats {
        self.inner.stats()
    }

    /// See [`crate::StreamGroupBy::flush_spills`].
    pub fn flush_spills(&mut self) -> io::Result<()> {
        self.inner.flush_spills()
    }

    /// See [`crate::StreamGroupBy::shrink_to_budget`].
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.inner.shrink_to_budget()
    }

    /// Finishes the group-by: `(key, aggregate)` pairs in lexicographic
    /// key order, one per distinct key.
    pub fn finish(self) -> io::Result<StringGroupedStream<K, G>> {
        Ok(StringGroupedStream {
            inner: self.inner.finish()?,
            _key: PhantomData,
        })
    }

    /// [`StringStreamGroupBy::finish`]'s merge drained into a vector, with
    /// a spill read error returned as `Err`
    /// ([`crate::StreamGroupBy::finish_vec`]).
    pub fn finish_vec(self) -> io::Result<Vec<(K, G::Acc)>> {
        let mut stream = self.inner.finish()?;
        let mut out = Vec::new();
        while let Some(group) = stream.try_next()? {
            out.push(rebuild_record(group));
        }
        Ok(out)
    }
}

/// Streaming output of a [`StringStreamGroupBy`].
pub struct StringGroupedStream<K: StringKey, G: Aggregator> {
    inner: GroupedStream<u64, StringAggAdapter<G>>,
    _key: PhantomData<fn() -> K>,
}

impl<K: StringKey, G: Aggregator> Iterator for StringGroupedStream<K, G> {
    type Item = (K, G::Acc);

    fn next(&mut self) -> Option<(K, G::Acc)> {
        self.inner.next().map(rebuild_record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::{CountAgg, SumAgg};
    use dtsort::SpillCompression;
    use parlay::random::Rng;
    use std::collections::HashMap;

    fn tiny_cfg(budget: usize) -> StreamConfig {
        StreamConfig {
            memory_budget_bytes: budget,
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::default()
        }
    }

    /// String-keyed engines whose merges read ahead whatever the host, so
    /// the read-ahead merge path runs even on single-CPU machines.
    fn pinned_string_sorter<K: StringKey, V: SpillValue>(
        cfg: StreamConfig,
    ) -> StringStreamSorter<K, V> {
        let io = SpillIoHandle::from_config(&cfg).reading_ahead(true);
        StringStreamSorter::with_config_and_io(cfg, io)
    }

    fn pinned_string_group_by<K: StringKey, G: Aggregator>(
        agg: G,
        cfg: StreamConfig,
    ) -> StringStreamGroupBy<K, G> {
        let io = SpillIoHandle::from_config(&cfg).reading_ahead(true);
        StringStreamGroupBy::with_config_and_io(agg, cfg, io)
    }

    /// URL-ish keys with long shared prefixes, plus adversarial cases:
    /// prefix collisions past 8 bytes, NUL-extensions, empty keys.
    fn string_keys(n: usize, seed: u64) -> Vec<String> {
        let rng = Rng::new(seed);
        (0..n)
            .map(|i| match i % 7 {
                0 => String::new(),
                1 => format!("prefix08{:04}", rng.ith_in(i as u64, 50)),
                2 => "prefix08".to_string(),
                3 => format!("https://example.com/users/{}", rng.ith_in(i as u64, 300)),
                4 => format!("k{}", rng.ith_in(i as u64, 26) as u8 as char),
                5 => format!("prefix08\u{0}{}", rng.ith_in(i as u64, 3)),
                _ => format!("w{:06}", rng.ith_in(i as u64, 2000)),
            })
            .collect()
    }

    #[test]
    fn string_sorter_matches_comparison_sort_both_compressions() {
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let n = 20_000usize;
            let keys = string_keys(n, 31);
            let cfg = StreamConfig {
                spill_compression: compression,
                ..tiny_cfg(32 << 10)
            };
            let mut sorter: StringStreamSorter<String, u64> = pinned_string_sorter(cfg);
            for (i, k) in keys.iter().enumerate() {
                sorter.push_record(k.clone(), i as u64).unwrap();
            }
            assert!(sorter.stats().spilled_runs > 2, "{:?}", sorter.stats());
            let got: Vec<(String, u64)> = sorter.finish().unwrap().collect();
            let mut want: Vec<(String, u64)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u64))
                .collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(got, want, "compression {compression:?}");
        }
    }

    #[test]
    fn string_finish_vec_agrees_with_streaming() {
        let n = 12_000usize;
        let keys = string_keys(n, 32);
        let mk = || {
            let mut s: StringStreamSorter<String, u32> = pinned_string_sorter(tiny_cfg(32 << 10));
            for (i, k) in keys.iter().enumerate() {
                s.push_record(k.clone(), i as u32).unwrap();
            }
            assert!(s.stats().spilled_runs > 0);
            s
        };
        let via_iter: Vec<(String, u32)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        assert_eq!(via_iter, via_vec);
    }

    #[test]
    fn byte_keys_sort_unsigned_lexicographically() {
        // 0xFF-leading keys must sort above ASCII, i.e. byte order is
        // unsigned; Vec<u8> keys exercise the non-UTF-8 path.
        let mut sorter: StringStreamSorter<Vec<u8>, ()> = pinned_string_sorter(tiny_cfg(16 << 10));
        let keys: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| match i % 3 {
                0 => vec![0xFF, (i % 251) as u8],
                1 => format!("ascii-{}", i % 101).into_bytes(),
                _ => vec![(i % 256) as u8; (i % 12) as usize],
            })
            .collect();
        for k in &keys {
            sorter.push_record(k.clone(), ()).unwrap();
        }
        let got: Vec<Vec<u8>> = sorter.finish().unwrap().map(|(k, ())| k).collect();
        let mut want = keys;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn string_groupby_matches_sort_then_scan_oracle() {
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let n = 25_000usize;
            let keys = string_keys(n, 33);
            let cfg = StreamConfig {
                spill_compression: compression,
                ..tiny_cfg(16 << 10)
            };
            let mut gb: StringStreamGroupBy<String, SumAgg> = pinned_string_group_by(SumAgg, cfg);
            for (i, k) in keys.iter().enumerate() {
                gb.push_record(k.clone(), i as u64).unwrap();
            }
            assert!(gb.stats().spilled_runs > 2, "{:?}", gb.stats());
            let got: Vec<(String, u64)> = gb.finish().unwrap().collect();
            // Oracle: sort the records by key, scan, and fold adjacent
            // equal keys.
            let mut sorted: Vec<(String, u64)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u64))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut want: Vec<(String, u64)> = Vec::new();
            for (k, v) in sorted {
                match want.last_mut() {
                    Some((lk, lv)) if *lk == k => *lv += v,
                    _ => want.push((k, v)),
                }
            }
            assert_eq!(got, want, "compression {compression:?}");
        }
    }

    #[test]
    fn prefix_colliding_keys_stay_distinct_groups() {
        // All keys share the same 8-byte prefix, so every ordered-u64 key
        // collides; grouping must still happen on the full key.
        let mut gb: StringStreamGroupBy<String, CountAgg> =
            pinned_string_group_by(CountAgg, tiny_cfg(16 << 10));
        let n = 15_000usize;
        for i in 0..n {
            gb.push_record(format!("sameoldprefix-{}", i % 97), ())
                .unwrap();
        }
        assert!(gb.stats().spilled_runs > 1, "{:?}", gb.stats());
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 97, "one group per distinct full key");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        let total: u64 = got.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, n as u64, "every record counted exactly once");
    }

    #[test]
    fn equal_keys_keep_push_order_through_spills() {
        // Stability: records under the same full key come out in push
        // order even across spilled runs and prefix collisions.
        let mut sorter: StringStreamSorter<String, u64> = pinned_string_sorter(tiny_cfg(16 << 10));
        let n = 12_000u64;
        for i in 0..n {
            sorter
                .push_record(format!("stable-prefix-{}", i % 5), i)
                .unwrap();
        }
        assert!(sorter.stats().spilled_runs > 1);
        let got: Vec<(String, u64)> = sorter.finish().unwrap().collect();
        for pair in got.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "push order within equal keys");
            }
        }
    }

    #[test]
    fn string_key_groupby_counts_match_hashmap() {
        let n = 20_000usize;
        let keys = string_keys(n, 34);
        let mut gb: StringStreamGroupBy<String, CountAgg> =
            pinned_string_group_by(CountAgg, tiny_cfg(16 << 10));
        for k in &keys {
            gb.push_record(k.clone(), ()).unwrap();
        }
        let mut want: HashMap<&str, u64> = HashMap::new();
        for k in &keys {
            *want.entry(k.as_str()).or_default() += 1;
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        for (k, c) in &got {
            assert_eq!(*c, want[k.as_str()], "key {k:?}");
        }
    }

    #[test]
    fn failed_slice_push_spills_once_and_keeps_every_record() {
        // Regression: `push` went record by record, so after one failed
        // spill every remaining record of the slice retried the pending
        // run — 4753 failed writes for one 5000-record push here.  Now
        // the rest of the slice is buffered in one go, as the integer
        // engines do.
        let keys = string_keys(5_000, 41);
        let input: Vec<(String, u64)> = keys.into_iter().zip(0u64..).collect();
        let mut want = input.clone();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        // Every spill write fails with ENOSPC; runs that never reach the
        // disk are merged from memory.
        let plan = crate::FaultPlan::seeded_kinds(7, 1, &[crate::FaultKind::WriteEnospc]);
        let cfg = tiny_cfg(16 << 10);
        let io = SpillIoHandle::from_config(&cfg).with_faults(plan.clone());
        let mut sorter: StringStreamSorter<String, u64> =
            StringStreamSorter::with_config_and_io(cfg, io);
        assert!(sorter.push(&input).is_err());
        assert_eq!(plan.injected(), 1);
        assert_eq!(sorter.len(), input.len());
        assert_eq!(sorter.finish_vec().unwrap(), want);
    }
}
