//! K-way merge of sorted sequences: the streaming engines' final pass
//! (`crates/stream`) merges `k` sorted runs into one sorted output.
//!
//! [`LoserTree`] is a classic tournament *loser tree* over `k` cursors.
//! A pop replays the winning run's leaf-to-root path, `⌈log2 k⌉`
//! matches, only when the run's new head differs from the record just
//! popped: a head that repeats the popped record's key (and needs no
//! tie-break) is still the minimum, so the pop leaves the tree as it is.
//! Merging `n` records costs `O(n + g·⌈log2 k⌉)` matches, where `g` counts
//! the maximal equal-key streaks inside the runs (`g ≤ n`, and on
//! duplicate-heavy runs far below it).  It works over any [`RunSource`] —
//! in-memory slices ([`SliceSource`]) or runs delivered block by block
//! ([`BlockSource`], the streaming crate's cursor over spilled runs) — so
//! out-of-core callers merge runs much larger than RAM.
//!
//! **Order.** A [`MergeOrder`] orders records by a `u64` key, then by an
//! optional record tie-break among equal keys ([`MergeOrder::TIE_BREAK`]:
//! the streaming crate's string-keyed records, whose 8-byte key prefixes
//! can collide), then by run index.  The tree caches each run's head as
//! one integer word of `(exhausted bit, key, run index)`, so a match costs
//! one integer compare and a branch-free select; the tie-break is called
//! only when two live heads have equal keys and the order asks for it.
//! The word's width follows [`MergeOrder::KEY_BITS`], fixed at compile
//! time: keys of at most 32 bits pack into a `u64` word, one compare per
//! match; wider keys take a `u128` word, compared on its 64-bit halves.
//!
//! **Stability.** Ties always resolve toward the run with the smaller
//! index, and order within a run is preserved.  If run `i` holds records
//! that arrived before run `i + 1`'s (as in the streaming sorter, where
//! runs are created in arrival order), the merge is a stable sort of the
//! concatenated input.

use std::hint::select_unpredictable;

/// A cursor over one sorted run: peek at the head, pop to advance.
///
/// Implemented here for in-memory slices ([`SliceSource`]) and for runs
/// delivered in blocks ([`BlockSource`]).
pub trait RunSource {
    type Item;
    /// The current head of the run, or `None` when exhausted.
    fn peek(&self) -> Option<&Self::Item>;
    /// Removes and returns the head.
    fn pop(&mut self) -> Option<Self::Item>;
}

/// [`RunSource`] over a sorted slice.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    pub fn new(slice: &'a [T]) -> Self {
        Self { slice, pos: 0 }
    }
}

impl<T: Copy> RunSource for SliceSource<'_, T> {
    type Item = T;

    #[inline]
    fn peek(&self) -> Option<&T> {
        self.slice.get(self.pos)
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        let item = self.slice.get(self.pos).copied();
        self.pos += usize::from(item.is_some());
        item
    }
}

/// [`RunSource`] over a run delivered as a sequence of record *blocks* by a
/// refill callback — the streaming crate's merge cursor: a spilled run's
/// feed decodes its blocks (ahead on a worker pool, or inline in the
/// callback), and the cursor refills only when its current block runs
/// dry.
///
/// `refill` returns the next block or `None` when the run is exhausted;
/// `None` is terminal (the callback is not invoked again).  Empty blocks
/// are skipped.  The source eagerly refills whenever its block empties so
/// that [`RunSource::peek`] always sees the true head of the run — the
/// invariant the loser tree relies on.
pub struct BlockSource<T, F> {
    block: std::vec::IntoIter<T>,
    refill: F,
    exhausted: bool,
}

impl<T, F: FnMut() -> Option<Vec<T>>> BlockSource<T, F> {
    pub fn new(mut refill: F) -> Self {
        let mut exhausted = false;
        let block = Self::next_block(&mut refill, &mut exhausted);
        Self {
            block,
            refill,
            exhausted,
        }
    }

    /// Pulls blocks until a non-empty one arrives or the run ends.
    fn next_block(refill: &mut F, exhausted: &mut bool) -> std::vec::IntoIter<T> {
        loop {
            match refill() {
                Some(block) if !block.is_empty() => return block.into_iter(),
                Some(_) => continue,
                None => {
                    *exhausted = true;
                    return Vec::new().into_iter();
                }
            }
        }
    }
}

impl<T, F: FnMut() -> Option<Vec<T>>> RunSource for BlockSource<T, F> {
    type Item = T;

    #[inline]
    fn peek(&self) -> Option<&T> {
        self.block.as_slice().first()
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.block.next()?;
        if self.block.as_slice().is_empty() && !self.exhausted {
            self.block = Self::next_block(&mut self.refill, &mut self.exhausted);
        }
        Some(item)
    }
}

/// How a [`LoserTree`] orders records: by an order-preserving `u64` key,
/// then — only if [`MergeOrder::TIE_BREAK`] is set — by
/// [`MergeOrder::tie_lt`] among equal keys, then by run index.
///
/// [`ByKey`] and [`ByKey32`] build key-only orders from a closure, over
/// 64-bit and 32-bit keys.
pub trait MergeOrder<T> {
    /// Whether two records with equal keys can still differ in order.  If
    /// not, equal keys go by run index alone and `tie_lt` is never called.
    const TIE_BREAK: bool = false;

    /// Bits the keys use: every [`MergeOrder::key`] is below
    /// `2^KEY_BITS`.  At most 32 packs each run's head into a `u64` word
    /// (a key beyond 32 bits is then merged by its low 32 bits); anything
    /// wider takes a `u128` word.
    const KEY_BITS: u32 = 64;

    /// The record's key; the merged output is non-decreasing in it.
    fn key(&self, item: &T) -> u64;

    /// A strict weak order among records with equal keys.
    fn tie_lt(&self, _a: &T, _b: &T) -> bool {
        false
    }
}

/// Orders records by a `u64` key projection alone.
pub struct ByKey<F>(pub F);

impl<T, F: Fn(&T) -> u64> MergeOrder<T> for ByKey<F> {
    #[inline]
    fn key(&self, item: &T) -> u64 {
        (self.0)(item)
    }
}

/// Orders records by a `u32` key projection alone: the tree's narrow
/// `u64` head words.
pub struct ByKey32<F>(pub F);

impl<T, F: Fn(&T) -> u32> MergeOrder<T> for ByKey32<F> {
    const KEY_BITS: u32 = 32;

    #[inline]
    fn key(&self, item: &T) -> u64 {
        u64::from((self.0)(item))
    }
}

/// Tournament loser tree over `k` run sources.
///
/// Each run's head is cached as one integer word, `(exhausted bit, key,
/// run index)` from the high bits down, so that comparing two words
/// compares the heads' keys and breaks key ties by run index.  The layout
/// is chosen at compile time from [`MergeOrder::KEY_BITS`]:
///
/// - **narrow** (keys of at most 32 bits): bit 63 is the exhausted bit,
///   the key sits in bits 31..63 above 31 run-index bits, and a match is
///   one `u64` compare and one select;
/// - **wide** (keys up to 64 bits): bit 96 is the exhausted bit, the key
///   sits in bits 32..96 above 32 run-index bits, and a match compares
///   and selects on the word's two 64-bit halves.
///
/// A word is stored as its low and high 64-bit halves in two arrays; a
/// narrow tree keeps no high halves, so its words are plain `u64`s.  There
/// is one tree type and no runtime branch per match.
///
/// The tree stores, at every internal node, the word of the *loser* of
/// the match played there; the winner's word sits in slot 0.  Popping the
/// winner reads its run's next head once.  If that head's word equals the
/// winner's — same run, same key — under an order without a tie-break, it
/// is still the unique minimum and every stored loser still lost to it,
/// so the pop is done.  Otherwise the pop replays the run's leaf-to-root
/// path: `⌈log2 k⌉` matches, touching no other run.  [`LoserTree::replays`]
/// counts the replays.  Exhausted runs lose every match: the exhausted bit
/// sits above the key bits, so no key (not even the largest) is reserved
/// as a sentinel.
///
/// Under a [`MergeOrder`] with [`MergeOrder::TIE_BREAK`], every pop
/// replays, and a match between two live heads with equal keys calls
/// [`MergeOrder::tie_lt`] once: for runs `i < j`, run `i` wins unless
/// `j`'s head is strictly smaller, so records the tie-break cannot tell
/// apart still come out in run-index (arrival) order.
pub struct LoserTree<S, O> {
    sources: Vec<S>,
    /// Low halves of the head words: slot 0 is the winner's, slots
    /// `1..k2` the losers'.
    lo: Vec<u64>,
    /// High halves of the same slots; empty on narrow words.
    hi: Vec<u64>,
    /// Number of leaves (k rounded up to a power of two).
    k2: usize,
    order: O,
    /// Pops that replayed the winner's path.
    replays: u64,
}

impl<S, O> LoserTree<S, O>
where
    S: RunSource,
    O: MergeOrder<S::Item>,
{
    /// Whether head words take the narrow `u64` layout.
    const NARROW: bool = O::KEY_BITS <= 32;
    /// Bits of a head word that hold the run index.
    const RUN_BITS: u32 = if Self::NARROW { 31 } else { 32 };
    const RUN_MASK: u64 = (1 << Self::RUN_BITS) - 1;
    /// Set in the head word of an exhausted run (or a padding leaf): above
    /// the key bits, so it loses to every live head, whatever its key.
    const EXHAUSTED: u128 = 1 << (if Self::NARROW { 32 } else { 64 } + Self::RUN_BITS);

    pub fn new(sources: Vec<S>, order: O) -> Self {
        let k2 = sources.len().next_power_of_two().max(1);
        assert!(
            k2 as u64 <= 1 << Self::RUN_BITS,
            "a loser tree over {}-bit keys merges at most 2^{} runs",
            O::KEY_BITS,
            Self::RUN_BITS
        );
        let mut this = Self {
            sources,
            lo: vec![Self::EXHAUSTED as u64; k2],
            hi: vec![(Self::EXHAUSTED >> 64) as u64; if Self::NARROW { 0 } else { k2 }],
            k2,
            order,
            replays: 0,
        };
        let winner = this.init_winner(1);
        this.store(0, winner);
        this
    }

    /// Pops so far that replayed the winner's leaf-to-root path: every
    /// pop, minus those whose run's next head repeated the popped key
    /// (under an order without a tie-break).
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// The head word of run `run` (a padding leaf past the last run reads
    /// as exhausted).
    #[inline]
    fn head_word(&self, run: usize) -> u128 {
        match self.sources.get(run).and_then(RunSource::peek) {
            Some(item) => {
                let key = self.order.key(item);
                debug_assert!(
                    O::KEY_BITS >= 64 || key >> O::KEY_BITS == 0,
                    "key {key:#x} exceeds the order's {} bits",
                    O::KEY_BITS
                );
                let key = if Self::NARROW {
                    u128::from(key as u32)
                } else {
                    u128::from(key)
                };
                key << Self::RUN_BITS | run as u128
            }
            None => Self::EXHAUSTED | run as u128,
        }
    }

    /// The run index of a head word.
    #[inline]
    fn run_of(word: u128) -> usize {
        (word as u64 & Self::RUN_MASK) as usize
    }

    /// The head word in slot `node`.
    #[inline(always)]
    fn load(&self, node: usize) -> u128 {
        if Self::NARROW {
            u128::from(self.lo[node])
        } else {
            u128::from(self.hi[node]) << 64 | u128::from(self.lo[node])
        }
    }

    #[inline(always)]
    fn store(&mut self, node: usize, word: u128) {
        self.lo[node] = word as u64;
        if !Self::NARROW {
            self.hi[node] = (word >> 64) as u64;
        }
    }

    /// Plays head word `a` against `b`; returns `(winner, loser)`.
    ///
    /// A wide match compares and selects on the words' 64-bit halves: LLVM
    /// lowers a `u128` compare-and-select to a branch, which mispredicts
    /// on about every other match of a merge.  A narrow word fits the low
    /// half, so its match is one compare and one select.
    #[inline(always)]
    fn play(&self, a: u128, b: u128) -> (u128, u128) {
        let (a_hi, a_lo, b_hi, b_lo) = ((a >> 64) as u64, a as u64, (b >> 64) as u64, b as u64);
        let a_wins =
            if O::TIE_BREAK && a >> Self::RUN_BITS == b >> Self::RUN_BITS && a < Self::EXHAUSTED {
                self.tie_wins(a, b)
            } else if Self::NARROW {
                a_lo < b_lo
            } else {
                (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))
            };
        let winner_lo = u128::from(select_unpredictable(a_wins, a_lo, b_lo));
        let winner = if Self::NARROW {
            winner_lo
        } else {
            u128::from(select_unpredictable(a_wins, a_hi, b_hi)) << 64 | winner_lo
        };
        (winner, a ^ b ^ winner)
    }

    /// `true` if live head `a` beats live head `b` of equal key: one
    /// `tie_lt` call, since the smaller run index wins when neither head
    /// is strictly smaller.
    fn tie_wins(&self, a: u128, b: u128) -> bool {
        let head = |word: u128| {
            let run = Self::run_of(word);
            (run, self.sources[run].peek().expect("a live head word"))
        };
        let ((i, x), (j, y)) = (head(a), head(b));
        if i < j {
            !self.order.tie_lt(y, x)
        } else {
            self.order.tie_lt(x, y)
        }
    }

    /// Plays the tournament below internal node `node`, storing losers,
    /// returning the winner's head word.
    fn init_winner(&mut self, node: usize) -> u128 {
        if node >= self.k2 {
            return self.head_word(node - self.k2);
        }
        let left = self.init_winner(2 * node);
        let right = self.init_winner(2 * node + 1);
        let (winner, loser) = self.play(left, right);
        self.store(node, loser);
        winner
    }

    /// Removes and returns the globally smallest head record.
    pub fn pop(&mut self) -> Option<S::Item> {
        let top = self.load(0);
        if top >= Self::EXHAUSTED {
            return None;
        }
        let run = Self::run_of(top);
        let item = self.sources[run].pop()?;
        let mut current = self.head_word(run);
        // The run's next record repeats the popped key: its word is the
        // winner's word, still below every other head, and no match along
        // the path would come out differently.
        if !O::TIE_BREAK && current == top {
            return Some(item);
        }
        // Replay the winner's path: at each ancestor, the stored loser may
        // now beat the run's new head.
        self.replays += 1;
        let mut node = (self.k2 + run) / 2;
        while node >= 1 {
            let (winner, loser) = self.play(self.load(node), current);
            self.store(node, loser);
            current = winner;
            node /= 2;
        }
        self.store(0, current);
        Some(item)
    }
}

impl<S, O> Iterator for LoserTree<S, O>
where
    S: RunSource,
    O: MergeOrder<S::Item>,
{
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    /// Orders records by a key projection of `KEY_BITS` bits, then equal
    /// keys by `lt`: the shape of the streaming crate's string-key order.
    struct ByKeyThen<const KEY_BITS: u32, F, L>(F, L);

    impl<T, F: Fn(&T) -> u64, L: Fn(&T, &T) -> bool, const KEY_BITS: u32> MergeOrder<T>
        for ByKeyThen<KEY_BITS, F, L>
    {
        const TIE_BREAK: bool = true;
        const KEY_BITS: u32 = KEY_BITS;

        fn key(&self, item: &T) -> u64 {
            (self.0)(item)
        }

        fn tie_lt(&self, a: &T, b: &T) -> bool {
            (self.1)(a, b)
        }
    }

    /// Drains a loser tree over `runs`.
    fn merge<T: Copy, O: MergeOrder<T>>(runs: &[Vec<T>], order: O) -> Vec<T> {
        let sources: Vec<SliceSource<'_, T>> = runs
            .iter()
            .map(|v| SliceSource::new(v.as_slice()))
            .collect();
        LoserTree::new(sources, order).collect()
    }

    fn by_value() -> ByKey<fn(&u64) -> u64> {
        ByKey(|&x| x)
    }

    #[test]
    fn merges_many_large_random_runs() {
        let rng = Rng::new(7);
        let k = 9;
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for r in 0..k {
            let len = 20_000 + (r * 1733) % 9000;
            let mut v: Vec<u64> = (0..len)
                .map(|i| rng.fork(r as u64).ith_in(i as u64, 1 << 40))
                .collect();
            v.sort_unstable();
            runs.push(v);
        }
        let got = merge(&runs, by_value());
        let mut want: Vec<u64> = runs.concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn stability_ties_favour_earlier_runs() {
        // Records (key, tag); tags encode (run, position) so the stable
        // order is fully determined.
        let k = 5;
        let per = 400;
        let mut runs: Vec<Vec<(u32, u32)>> = Vec::new();
        for r in 0..k {
            // Keys drawn from a tiny universe => masses of cross-run ties.
            let mut v: Vec<(u32, u32)> = (0..per)
                .map(|i| (((i * 37 + r * 11) % 7) as u32, (r * per + i) as u32))
                .collect();
            v.sort_by_key(|&(key, _)| key);
            runs.push(v);
        }
        let got = merge(&runs, ByKey(|r: &(u32, u32)| u64::from(r.0)));
        // Reference: stable sort of run-0 ++ run-1 ++ ... by key.
        let mut want: Vec<(u32, u32)> = runs.concat();
        want.sort_by_key(|&(key, _)| key);
        assert_eq!(got, want);
    }

    #[test]
    fn tie_breaking_comparators_merge_stably() {
        // Records are (prefix, full_key, tag) triples merged by the prefix
        // key, then the full key among equal prefixes — the shape of the
        // string-key spill merge, where equal u64 prefixes tie-break on
        // the embedded key bytes.  Records equal in both must still come
        // out in run-index order (tags prove it).
        type Rec = (u64, &'static str, u32);
        let keys = ["aa", "ab", "ba", "bb"];
        let k = 4;
        let per = 300;
        let mut runs: Vec<Vec<Rec>> = Vec::new();
        for r in 0..k {
            let mut v: Vec<Rec> = (0..per)
                .map(|i| {
                    let prefix = ((i * 13 + r * 5) % 3) as u64;
                    let key = keys[(i * 7 + r) % keys.len()];
                    (prefix, key, (r * per + i) as u32)
                })
                .collect();
            v.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
            runs.push(v);
        }
        let got = merge(
            &runs,
            ByKeyThen::<64, _, _>(|r: &Rec| r.0, |a: &Rec, b: &Rec| a.1 < b.1),
        );
        let mut want: Vec<Rec> = runs.concat();
        want.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        assert_eq!(got, want, "composite comparator must merge stably");
    }

    #[test]
    fn loser_tree_pops_in_order_over_sources() {
        let a = [1u64, 5, 9];
        let b = [2u64, 6];
        let c = [0u64, 7, 8, 10];
        let sources = vec![
            SliceSource::new(&a[..]),
            SliceSource::new(&b[..]),
            SliceSource::new(&c[..]),
        ];
        let tree = LoserTree::new(sources, by_value());
        let got: Vec<u64> = tree.collect();
        assert_eq!(got, vec![0, 1, 2, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn loser_tree_on_empty_and_tiny_inputs() {
        let mut empty: LoserTree<SliceSource<'_, u64>, _> = LoserTree::new(Vec::new(), by_value());
        assert_eq!(empty.pop(), None);

        let one = [3u64];
        let mut single = LoserTree::new(vec![SliceSource::new(&one[..])], by_value());
        assert_eq!(single.pop(), Some(3));
        assert_eq!(single.pop(), None);
    }

    #[test]
    fn block_source_refills_and_skips_empty_blocks() {
        let blocks: Vec<Vec<u64>> = vec![vec![1, 2], vec![], vec![3], vec![], vec![], vec![4, 5]];
        let mut iter = blocks.into_iter();
        let mut src = BlockSource::new(move || iter.next());
        let mut got = Vec::new();
        while let Some(x) = src.pop() {
            // peek must always agree with the next pop across refills.
            let peeked = src.peek().copied();
            got.push(x);
            if let Some(p) = peeked {
                assert_eq!(src.pop(), Some(p));
                got.push(p);
            }
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert_eq!(src.pop(), None);
        assert!(src.peek().is_none());
    }

    #[test]
    fn block_source_merges_like_a_slice_source() {
        // Three runs delivered in uneven blocks must merge exactly like
        // their flat concatenation.
        let runs: Vec<Vec<u64>> = vec![
            (0..300).map(|i| i * 3).collect(),
            (0..200).map(|i| i * 5).collect(),
            (0..100).map(|i| i * 7 + 1).collect(),
        ];
        let sources: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(r, run)| {
                let chunk = 2 * r + 3;
                let blocks: Vec<Vec<u64>> = run.chunks(chunk).map(|c| c.to_vec()).collect();
                let mut iter = blocks.into_iter();
                BlockSource::new(move || iter.next())
            })
            .collect();
        let tree = LoserTree::new(sources, by_value());
        let got: Vec<u64> = tree.collect();
        let mut want: Vec<u64> = runs.concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_block_source_is_exhausted_immediately() {
        let mut calls = 0usize;
        let mut src: BlockSource<u64, _> = BlockSource::new(|| {
            calls += 1;
            None
        });
        assert!(src.peek().is_none());
        assert_eq!(src.pop(), None);
        assert_eq!(src.pop(), None);
        // `None` is terminal: the callback ran exactly once.
        drop(src);
        assert_eq!(calls, 1);
    }

    /// `(key, tag)` records, merged by key; tags say which run and position
    /// each record came from.
    type Tagged = (u64, u32);

    fn by_tagged_key() -> ByKey<fn(&Tagged) -> u64> {
        ByKey(|r| r.0)
    }

    /// Stable reference: the runs concatenated in run order, stably sorted
    /// by key.
    fn stable_reference(runs: &[Vec<Tagged>]) -> Vec<Tagged> {
        let mut want = runs.concat();
        want.sort_by_key(|r| r.0);
        want
    }

    #[test]
    fn max_keys_beat_exhausted_runs() {
        // `u64::MAX` is a real key: it must come out, after every smaller
        // key, even once other runs are exhausted and their heads read as
        // exhausted.  Runs 0 and 2 end first; run 3 is empty.
        let runs: Vec<Vec<Tagged>> = vec![
            vec![(0, 0), (u64::MAX - 1, 1)],
            vec![(5, 2), (u64::MAX, 3), (u64::MAX, 4)],
            vec![(u64::MAX, 5)],
            vec![],
            vec![(1, 6), (u64::MAX, 7)],
        ];
        assert_eq!(merge(&runs, by_tagged_key()), stable_reference(&runs));
        let all_max: Vec<Vec<u64>> = vec![vec![u64::MAX; 3], vec![], vec![u64::MAX]];
        assert_eq!(merge(&all_max, by_value()), vec![u64::MAX; 4]);
    }

    #[test]
    fn run_counts_around_powers_of_two_merge_stably() {
        // k = 0, 1, 2, 3 and 33, with one short run (run 0) that ends
        // mid-merge while the others still hold smaller and larger keys.
        for k in [0u32, 1, 2, 3, 33] {
            let runs: Vec<Vec<Tagged>> = (0..k)
                .map(|r| {
                    let len = if r == 0 { 7 } else { 200 + 13 * r };
                    let mut run: Vec<Tagged> = (0..len)
                        .map(|i| (u64::from((i * 7 + r * 3) % 61), r * 1000 + i))
                        .collect();
                    run.sort_by_key(|x| x.0);
                    run
                })
                .collect();
            assert_eq!(
                merge(&runs, by_tagged_key()),
                stable_reference(&runs),
                "k = {k}"
            );
        }
    }

    #[test]
    fn colliding_keys_tie_break_on_the_record_and_stay_stable() {
        // Two full keys per 8-byte prefix, spread across runs: equal
        // prefixes must come out in full-key order, and equal full keys
        // in run order.  The tie-break runs only on equal prefixes.
        type Rec = (u64, [u8; 2], u32);
        let calls = std::cell::Cell::new(0usize);
        let runs: Vec<Vec<Rec>> = (0..5u32)
            .map(|r| {
                let mut run: Vec<Rec> = (0..120)
                    .map(|i| {
                        let prefix = u64::from((i + r) % 4);
                        (
                            prefix,
                            [prefix as u8, ((i * 5 + r) % 2) as u8],
                            r * 1000 + i,
                        )
                    })
                    .collect();
                run.sort_by_key(|x| (x.0, x.1));
                run
            })
            .collect();
        let order = ByKeyThen::<64, _, _>(
            |r: &Rec| r.0,
            |a: &Rec, b: &Rec| {
                assert_eq!(a.0, b.0, "tie-break called on unequal keys");
                calls.set(calls.get() + 1);
                a.1 < b.1
            },
        );
        let got = merge(&runs, order);
        let mut want = runs.concat();
        want.sort_by_key(|x| (x.0, x.1));
        assert_eq!(got, want);
        assert!(calls.get() > 0, "equal prefixes must reach the tie-break");
    }

    /// `(key, tag)` records with 32-bit keys, mergeable on both word widths.
    type Narrow = (u32, u32);

    /// Drains a loser tree over `runs`, returning the output and the number
    /// of pops that replayed a path.
    fn merge_counting<T: Copy, O: MergeOrder<T>>(runs: &[Vec<T>], order: O) -> (Vec<T>, u64) {
        let sources = runs
            .iter()
            .map(|v| SliceSource::new(v.as_slice()))
            .collect();
        let mut tree = LoserTree::new(sources, order);
        let out: Vec<T> = tree.by_ref().collect();
        (out, tree.replays())
    }

    /// Merges `runs` on the wide and on the narrow head words.  Each output
    /// must equal the stable sort of the runs' concatenation, and each
    /// merge must replay exactly once per record that does not repeat its
    /// predecessor's key within its run.
    fn check_both_widths(runs: &[Vec<Narrow>]) {
        let mut want = runs.concat();
        want.sort_by_key(|r| r.0);
        let repeats = runs
            .iter()
            .map(|run| run.windows(2).filter(|w| w[0].0 == w[1].0).count())
            .sum::<usize>();
        let replays = (want.len() - repeats) as u64;
        let k = runs.len();
        let (wide, wide_replays) = merge_counting(runs, ByKey(|r: &Narrow| u64::from(r.0)));
        assert_eq!(wide, want, "wide words, k = {k}");
        assert_eq!(wide_replays, replays, "wide replays, k = {k}");
        let (narrow, narrow_replays) = merge_counting(runs, ByKey32(|r: &Narrow| r.0));
        assert_eq!(narrow, want, "narrow words, k = {k}");
        assert_eq!(narrow_replays, replays, "narrow replays, k = {k}");
    }

    #[test]
    fn duplicate_heavy_runs_merge_stably_on_both_word_widths() {
        let rng = Rng::new(11);
        for k in [1u32, 2, 5, 32, 33] {
            let runs: Vec<Vec<Narrow>> = (0..k)
                .map(|r| {
                    let len = 50 + rng.ith_in(u64::from(r), 400) as u32;
                    // Keys from a universe of 9: long equal-key streaks in
                    // every run, and ties across all of them.
                    let mut run: Vec<Narrow> = (0..len)
                        .map(|i| {
                            let key = rng.fork(u64::from(r)).ith_in(u64::from(i), 9) as u32;
                            (key * 1000, r * 10_000 + i)
                        })
                        .collect();
                    run.sort_by_key(|x| x.0);
                    run
                })
                .collect();
            check_both_widths(&runs);
        }
    }

    #[test]
    fn all_equal_runs_and_runs_ending_mid_streak() {
        let tagged = |r: u32, keys: &[u32]| -> Vec<Narrow> {
            keys.iter()
                .enumerate()
                .map(|(i, &key)| (key, r * 100 + i as u32))
                .collect()
        };
        // Every key equal: only the first pop of each run and the pops
        // that end runs replay.
        let all_equal: Vec<Vec<Narrow>> = (0..5).map(|r| tagged(r, &[7; 40])).collect();
        check_both_widths(&all_equal);
        // Runs 0 and 2 end inside the streak of 3s; run 3 starts on it.
        let mid_streak = vec![
            tagged(0, &[3, 3, 3]),
            tagged(1, &[1, 3, 3, 3, 3, 3, 9, 9]),
            tagged(2, &[3, 3]),
            tagged(3, &[3, 3, 3, 4]),
            tagged(4, &[]),
        ];
        check_both_widths(&mid_streak);
    }

    #[test]
    fn replays_count_records_minus_within_run_repeats() {
        // 7 records; run 0 repeats twice (1,1 and 1,1), run 1 once (3,3).
        let runs: Vec<Vec<u64>> = vec![vec![1, 1, 1, 2], vec![1, 3, 3]];
        let (got, replays) = merge_counting(&runs, by_value());
        assert_eq!(got, vec![1, 1, 1, 1, 2, 3, 3]);
        assert_eq!(replays, 4);
        let (_, narrow_replays) = merge_counting(&runs, ByKey32(|&x: &u64| x as u32));
        assert_eq!(narrow_replays, 4);
    }

    #[test]
    fn block_runs_keep_the_shortcut_across_refills() {
        // Streaks that span block boundaries: the head after a refill
        // repeats the popped key and must still skip the replay.
        let runs: Vec<Vec<Narrow>> = (0..4u32)
            .map(|r| (0..60).map(|i| (i / 7 + r % 2, r * 100 + i)).collect())
            .collect();
        let blocks = |run: &Vec<Narrow>| {
            let mut iter: std::vec::IntoIter<Vec<Narrow>> = run
                .chunks(3)
                .map(<[Narrow]>::to_vec)
                .collect::<Vec<_>>()
                .into_iter();
            BlockSource::new(move || iter.next())
        };
        let mut want = runs.concat();
        want.sort_by_key(|r| r.0);
        let repeats: usize = runs
            .iter()
            .map(|run| run.windows(2).filter(|w| w[0].0 == w[1].0).count())
            .sum();
        let mut tree = LoserTree::new(runs.iter().map(blocks).collect(), ByKey32(|r: &Narrow| r.0));
        assert_eq!(tree.by_ref().collect::<Vec<_>>(), want);
        assert_eq!(tree.replays(), (want.len() - repeats) as u64);
    }

    #[test]
    fn extreme_keys_on_both_word_widths() {
        // Narrow words: keys 0 and 2^32 - 1 are real keys, the largest
        // still beating every exhausted run.
        let runs: Vec<Vec<Narrow>> = vec![
            vec![(0, 0), (0, 1), (u32::MAX, 2)],
            vec![(u32::MAX, 3), (u32::MAX, 4)],
            vec![],
            vec![(0, 5), (1, 6), (u32::MAX, 7), (u32::MAX, 8), (u32::MAX, 9)],
            vec![(0, 10)],
        ];
        check_both_widths(&runs);
        // Wide words: u64::MAX streaks, with runs ending inside them.
        let runs: Vec<Vec<Tagged>> = vec![
            vec![(u64::MAX, 0), (u64::MAX, 1)],
            vec![(0, 2), (u64::MAX, 3), (u64::MAX, 4), (u64::MAX, 5)],
            vec![(u64::MAX - 1, 6), (u64::MAX, 7)],
        ];
        let (got, replays) = merge_counting(&runs, by_tagged_key());
        assert_eq!(got, stable_reference(&runs));
        assert_eq!(replays, 9 - 4);
    }

    #[test]
    fn tie_break_orders_never_take_the_shortcut() {
        // `(prefix, full key, tag)`: run 0 repeats prefix 5 with full keys
        // `a` then `c`, while run 1 holds `b` under the same prefix, so a
        // pop that kept run 0 on top after `a` would emit `c` too early.
        type Rec = (u64, u8, u32);
        fn check<const KEY_BITS: u32>(runs: &[Vec<Rec>]) {
            let order = ByKeyThen::<KEY_BITS, _, _>(|r: &Rec| r.0, |a: &Rec, b: &Rec| a.1 < b.1);
            let (got, replays) = merge_counting(runs, order);
            let mut want = runs.concat();
            want.sort_by_key(|r| (r.0, r.1));
            assert_eq!(got, want, "{KEY_BITS}-bit keys");
            assert_eq!(replays, want.len() as u64, "{KEY_BITS}-bit keys");
        }
        let small = vec![vec![(5, b'a', 0), (5, b'c', 1)], vec![(5, b'b', 2)]];
        check::<32>(&small);
        check::<64>(&small);
        // Colliding prefixes across 6 runs, and within each.
        let runs: Vec<Vec<Rec>> = (0..6u32)
            .map(|r| {
                let mut run: Vec<Rec> = (0..90)
                    .map(|i| (u64::from((i + r) % 3), ((i * 7 + r) % 4) as u8, r * 100 + i))
                    .collect();
                run.sort_by_key(|x| (x.0, x.1));
                run
            })
            .collect();
        check::<32>(&runs);
        check::<64>(&runs);
    }
}
