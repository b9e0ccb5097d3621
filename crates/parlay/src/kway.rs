//! K-way merge of sorted sequences: the streaming engines' final pass
//! (`crates/stream`) merges `k` sorted runs into one sorted output.
//!
//! [`LoserTree`] is a classic tournament *loser tree* over `k` cursors.
//! Each `pop` replays one leaf-to-root path: `⌈log2 k⌉` matches, the
//! optimal comparison count for k-way merging.  It works over any
//! [`RunSource`] — in-memory slices ([`SliceSource`]) or runs delivered
//! block by block ([`BlockSource`], the streaming crate's cursor over
//! spilled runs) — so out-of-core callers merge runs much larger than
//! RAM.
//!
//! **Order.** A [`MergeOrder`] orders records by a `u64` key, then by an
//! optional record tie-break among equal keys ([`MergeOrder::TIE_BREAK`]:
//! the streaming crate's string-keyed records, whose 8-byte key prefixes
//! can collide), then by run index.  The tree caches each run's head as
//! one integer word of `(exhausted bit, key, run index)`, so a match costs
//! one integer compare and a branch-free select; the tie-break is called
//! only when two live heads have equal keys and the order asks for it.
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
/// [`ByKey`] builds a key-only order from a closure.
pub trait MergeOrder<T> {
    /// Whether two records with equal keys can still differ in order.  If
    /// not, equal keys go by run index alone and `tie_lt` is never called.
    const TIE_BREAK: bool = false;

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

/// Bits of a head word that hold the run index.
const RUN_BITS: u32 = 32;
/// Set in the head word of an exhausted run (or a padding leaf): above the
/// key bits, so it loses to every live head, whatever its key.
const EXHAUSTED: u128 = 1 << (64 + RUN_BITS);

/// Tournament loser tree over `k` run sources.
///
/// Each run's head is cached as one `u128` word, `(exhausted bit, key,
/// run index)` from the high bits down, so that comparing two words
/// compares the heads' keys and breaks key ties by run index.  The tree
/// stores, at every internal node, the word of the *loser* of the match
/// played there; the winner's word sits in slot 0.  Popping the winner
/// reads its run's next head once and replays only its leaf-to-root path:
/// `⌈log2 k⌉` matches of one integer compare and a branch-free select
/// each, touching no other run.  Exhausted runs lose every match: the
/// exhausted bit sits above the key bits, so no key (not even `u64::MAX`)
/// is reserved as a sentinel.
///
/// Under a [`MergeOrder`] with [`MergeOrder::TIE_BREAK`], a match between
/// two live heads with equal keys calls [`MergeOrder::tie_lt`] once: for
/// runs `i < j`, run `i` wins unless `j`'s head is strictly smaller, so
/// records the tie-break cannot tell apart still come out in run-index
/// (arrival) order.
pub struct LoserTree<S, O> {
    sources: Vec<S>,
    /// `tree[0]` is the winner's head word; `tree[1..k2]` hold the losers'.
    tree: Vec<u128>,
    /// Number of leaves (k rounded up to a power of two).
    k2: usize,
    order: O,
}

impl<S, O> LoserTree<S, O>
where
    S: RunSource,
    O: MergeOrder<S::Item>,
{
    pub fn new(sources: Vec<S>, order: O) -> Self {
        let k2 = sources.len().next_power_of_two().max(1);
        assert!(k2 <= 1 << RUN_BITS, "a loser tree merges at most 2^32 runs");
        let mut this = Self {
            sources,
            tree: vec![EXHAUSTED; k2],
            k2,
            order,
        };
        this.tree[0] = this.init_winner(1);
        this
    }

    /// The head word of run `run` (a padding leaf past the last run reads
    /// as exhausted).
    #[inline]
    fn head_word(&self, run: usize) -> u128 {
        match self.sources.get(run).and_then(RunSource::peek) {
            Some(item) => u128::from(self.order.key(item)) << RUN_BITS | run as u128,
            None => EXHAUSTED | run as u128,
        }
    }

    /// Plays head word `a` against `b`; returns `(winner, loser)`.
    ///
    /// The compare and the select work on the words' 64-bit halves: LLVM
    /// lowers a `u128` compare-and-select to a branch, which mispredicts
    /// on about every other match of a merge.
    #[inline(always)]
    fn play(&self, a: u128, b: u128) -> (u128, u128) {
        let (a_hi, a_lo, b_hi, b_lo) = ((a >> 64) as u64, a as u64, (b >> 64) as u64, b as u64);
        let a_wins = if O::TIE_BREAK && a >> RUN_BITS == b >> RUN_BITS && a < EXHAUSTED {
            self.tie_wins(a, b)
        } else {
            (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))
        };
        let winner = u128::from(select_unpredictable(a_wins, a_hi, b_hi)) << 64
            | u128::from(select_unpredictable(a_wins, a_lo, b_lo));
        (winner, a ^ b ^ winner)
    }

    /// `true` if live head `a` beats live head `b` of equal key: one
    /// `tie_lt` call, since the smaller run index wins when neither head
    /// is strictly smaller.
    fn tie_wins(&self, a: u128, b: u128) -> bool {
        let head = |word: u128| {
            let run = word as u32 as usize;
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
        self.tree[node] = loser;
        winner
    }

    /// Removes and returns the globally smallest head record.
    pub fn pop(&mut self) -> Option<S::Item> {
        let top = self.tree[0];
        if top >= EXHAUSTED {
            return None;
        }
        let run = top as u32 as usize;
        let item = self.sources[run].pop()?;
        // Replay the winner's path: at each ancestor, the stored loser may
        // now beat the run's new head.
        let mut current = self.head_word(run);
        let mut node = (self.k2 + run) / 2;
        while node >= 1 {
            let (winner, loser) = self.play(self.tree[node], current);
            self.tree[node] = loser;
            current = winner;
            node /= 2;
        }
        self.tree[0] = current;
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

    /// Orders records by a key projection, then equal keys by `lt`: the
    /// shape of the streaming crate's string-key order.
    struct ByKeyThen<F, L>(F, L);

    impl<T, F: Fn(&T) -> u64, L: Fn(&T, &T) -> bool> MergeOrder<T> for ByKeyThen<F, L> {
        const TIE_BREAK: bool = true;

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
            ByKeyThen(|r: &Rec| r.0, |a: &Rec, b: &Rec| a.1 < b.1),
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
        let order = ByKeyThen(
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
}
