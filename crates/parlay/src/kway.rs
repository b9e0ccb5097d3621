//! K-way merge of sorted sequences: the streaming sorter's final pass
//! (`crates/stream`) merges `k` sorted runs into one sorted output.
//!
//! [`LoserTree`] is a classic tournament *loser tree* over `k` cursors.
//! Each `pop` performs exactly `⌈log2 k⌉` comparisons (replay of one
//! leaf-to-root path), the optimal comparison count for k-way merging.
//! It works over any [`RunSource`] — in-memory slices ([`SliceSource`]),
//! runs delivered block by block ([`BlockSource`]) or the streaming
//! crate's spill-file cursors — so out-of-core callers merge runs much
//! larger than RAM.
//!
//! **Stability.** Ties always resolve toward the run with the smaller
//! index, and order within a run is preserved.  If run `i` holds records
//! that arrived before run `i + 1`'s (as in the streaming sorter, where
//! runs are created in arrival order), the merge is a stable sort of the
//! concatenated input.

/// A cursor over one sorted run: peek at the head, pop to advance.
///
/// Implemented here for in-memory slices ([`SliceSource`]); the streaming
/// crate implements it for buffered spill-file readers.
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
/// refill callback — the cursor shape of read-ahead merging: a prefetcher
/// decodes blocks of a spilled run into a bounded channel on its own
/// thread, and the merge-side cursor refills from that channel only when
/// its current block runs dry.
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

/// Tournament loser tree over `k` run sources.
///
/// The tree stores, at every internal node, the *loser* of the match played
/// there; the overall winner sits at the root.  Popping the winner replays
/// only its leaf-to-root path: `⌈log2 k⌉` comparisons per output record.
/// Exhausted runs lose every match, so the merge finishes cleanly without
/// sentinel keys.  Ties favour the smaller run index (stability).
///
/// The comparator may be **any strict weak ordering** over the record
/// type, not only a key projection: the index tie rule (`i < j` wins on
/// `!(lt)(b, a)`) only assumes that "neither strictly smaller" means
/// *equivalent under `lt`*, which every strict weak ordering guarantees.
/// Composite comparators — e.g. ordering spilled string records by
/// `(u64 prefix, full key bytes)` so equal prefixes tie-break on the
/// embedded key — therefore merge stably with no extra comparator calls:
/// records the comparator cannot distinguish still come out in run-index
/// (arrival) order.
pub struct LoserTree<S, F> {
    sources: Vec<S>,
    /// `tree[0]` is the current winner; `tree[1..k2]` hold match losers.
    tree: Vec<usize>,
    /// Number of leaves (k rounded up to a power of two).
    k2: usize,
    lt: F,
}

impl<S, F> LoserTree<S, F>
where
    S: RunSource,
    F: Fn(&S::Item, &S::Item) -> bool,
{
    pub fn new(sources: Vec<S>, lt: F) -> Self {
        let k2 = sources.len().next_power_of_two().max(1);
        let mut this = Self {
            sources,
            tree: vec![usize::MAX; k2],
            k2,
            lt,
        };
        if !this.sources.is_empty() {
            this.tree[0] = this.init_winner(1);
        }
        this
    }

    /// `true` if run `i`'s head wins against run `j`'s (ties favour the
    /// smaller index; exhausted runs always lose).
    ///
    /// One comparator call per match: since the tie rule is index-based,
    /// for `i < j` run `i` wins exactly when `j`'s head is not strictly
    /// smaller — no second call needed to distinguish ties.
    fn beats(&self, i: usize, j: usize) -> bool {
        match (self.head(i), self.head(j)) {
            (Some(a), Some(b)) => {
                if i < j {
                    !(self.lt)(b, a)
                } else {
                    (self.lt)(a, b)
                }
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => i < j,
        }
    }

    fn head(&self, i: usize) -> Option<&S::Item> {
        self.sources.get(i).and_then(|s| s.peek())
    }

    /// Plays the tournament below internal node `node`, storing losers,
    /// returning the winner (a run index, possibly of a phantom leaf).
    fn init_winner(&mut self, node: usize) -> usize {
        if node >= self.k2 {
            return node - self.k2;
        }
        let left = self.init_winner(2 * node);
        let right = self.init_winner(2 * node + 1);
        let (winner, loser) = if self.beats(left, right) {
            (left, right)
        } else {
            (right, left)
        };
        self.tree[node] = loser;
        winner
    }

    /// Removes and returns the globally smallest head record.
    pub fn pop(&mut self) -> Option<S::Item> {
        let winner = self.tree[0];
        if winner == usize::MAX {
            return None;
        }
        let item = self.sources[winner].pop()?;
        // Replay the winner's path: at each ancestor, the stored loser may
        // now beat the advanced run.
        let mut current = winner;
        let mut node = (self.k2 + winner) / 2;
        while node >= 1 {
            let rival = self.tree[node];
            if self.beats(rival, current) {
                self.tree[node] = current;
                current = rival;
            }
            node /= 2;
        }
        self.tree[0] = current;
        Some(item)
    }
}

impl<S, F> Iterator for LoserTree<S, F>
where
    S: RunSource,
    F: Fn(&S::Item, &S::Item) -> bool,
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

    /// Drains a loser tree over `runs`.
    fn merge<T: Copy>(runs: &[Vec<T>], lt: impl Fn(&T, &T) -> bool) -> Vec<T> {
        let sources: Vec<SliceSource<'_, T>> = runs
            .iter()
            .map(|v| SliceSource::new(v.as_slice()))
            .collect();
        LoserTree::new(sources, lt).collect()
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
        let got = merge(&runs, |a: &u64, b: &u64| a < b);
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
        let got = merge(&runs, |a: &(u32, u32), b: &(u32, u32)| a.0 < b.0);
        // Reference: stable sort of run-0 ++ run-1 ++ ... by key.
        let mut want: Vec<(u32, u32)> = runs.concat();
        want.sort_by_key(|&(key, _)| key);
        assert_eq!(got, want);
    }

    #[test]
    fn tie_breaking_comparators_merge_stably() {
        // Regression for the strict-weak-ordering claim on the tie rule:
        // records are (prefix, full_key, tag) triples merged by the
        // composite order (prefix, full_key) — the shape the string-key
        // spill merge uses, where equal u64 prefixes tie-break on the
        // embedded key bytes.  Records equal under the *composite* order
        // must still come out in run-index order (tags prove it).
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
        let got = merge(&runs, |a: &Rec, b: &Rec| (a.0, a.1) < (b.0, b.1));
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
        let tree = LoserTree::new(sources, |x: &u64, y: &u64| x < y);
        let got: Vec<u64> = tree.collect();
        assert_eq!(got, vec![0, 1, 2, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn loser_tree_on_empty_and_tiny_inputs() {
        let mut empty: LoserTree<SliceSource<'_, u64>, _> =
            LoserTree::new(Vec::new(), |x: &u64, y: &u64| x < y);
        assert_eq!(empty.pop(), None);

        let one = [3u64];
        let mut single = LoserTree::new(vec![SliceSource::new(&one[..])], |x: &u64, y: &u64| x < y);
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
        let tree = LoserTree::new(sources, |a: &u64, b: &u64| a < b);
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
}
