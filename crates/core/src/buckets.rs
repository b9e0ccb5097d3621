//! Bucket-id assignment (paper Alg. 2, lines 5–14 and the `GetBucketID`
//! function).
//!
//! After sampling, every key of the current subproblem maps to a bucket:
//!
//! * the key range is split into `2^γ` *MSD zones* by the current digit;
//! * every MSD zone owns one *light* bucket;
//! * every detected heavy key owns its own bucket, placed immediately after
//!   the light bucket of its zone and ordered by key within the zone;
//! * when the sample maximum shrinks the key range, one *overflow* bucket at
//!   the very end collects keys above the sampled range (Section 5).
//!
//! This is the paper's `H`/`L` pair.  `L` is the direct-indexed array of
//! light ids keyed by the MSD.  `H` is a [`HeavyMap`]: a two-choice table
//! (the layout of cuckoo hashing) built once from all heavy keys, in which a
//! lookup reads both candidate slots and selects the heavy id or the zone's
//! light id.  `GetBucketID` therefore costs a shift, one read of `L`, two
//! multiplies and two slot reads, with no data-dependent branch: a heavy
//! record and a light record cost the same, so mixing them does not
//! mispredict.  The one branch left skips `H` at levels with no heavy keys.
//!
//! The distribution caches bucket ids as `u16`, so a table gives heavy keys
//! buckets only up to [`MAX_ID_BUCKETS`] in total: heavy keys past that cap
//! (possible only with carried hints) are left light, which costs them the
//! recursion they would have skipped but keeps the sort correct.

use crate::key::low_mask;
use parlay::counting_sort::MAX_ID_BUCKETS;
use parlay::random::hash64;
use std::hint::select_unpredictable;

/// One slot of a [`HeavyMap`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    id: u32,
}

/// A static map from `u64` keys to `u32` ids, read without branches.
///
/// Every key lives in one of two slots, `h0(key)` or `h1(key)`, where each
/// `h` is a multiplicative hash (an odd multiplier, keep the top bits).  The
/// table has at least four slots per key, is filled once by cuckoo insertion,
/// and never changes afterwards.  Each empty slot holds a *filler* key that
/// hashes to neither choice for that slot and is not a stored key, so a
/// filler can never match a query.  [`HeavyMap::get_or`] therefore loads
/// both candidate slots unconditionally and combines them with selects; a
/// query matches at most one distinct slot.
#[derive(Debug, Clone)]
pub struct HeavyMap {
    slots: Vec<Slot>,
    mults: [u64; 2],
    shift: u32,
    len: usize,
}

/// Displacements one cuckoo insertion may make before the build gives up on
/// the current pair of hash functions.
const MAX_KICKS: usize = 512;

impl HeavyMap {
    /// Builds the map from the complete `(key, id)` list.  Keys must be
    /// distinct, and no id may be `u32::MAX`.  Deterministic in the input.
    pub fn build<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, u32)>,
        I::IntoIter: Clone + ExactSizeIterator,
    {
        let entries = entries.into_iter();
        let len = entries.len();
        let mut log_cap = (len * 4).max(2).next_power_of_two().trailing_zeros();
        for attempt in 0u64.. {
            // Fresh hash functions on every attempt; a few failures in a row
            // at one size mean the keys fit these multipliers badly, so the
            // table also doubles (which only lowers the load further).
            if attempt > 0 && attempt % 4 == 0 {
                log_cap += 1;
            }
            let mults = [hash64(2 * attempt) | 1, hash64(2 * attempt + 1) | 1];
            if let Some(map) = Self::try_build(entries.clone(), len, log_cap, mults) {
                return map;
            }
        }
        unreachable!("cuckoo build attempts are unbounded")
    }

    fn try_build(
        entries: impl Iterator<Item = (u64, u32)>,
        len: usize,
        log_cap: u32,
        mults: [u64; 2],
    ) -> Option<Self> {
        let cap = 1usize << log_cap;
        let mut map = Self {
            slots: vec![Slot { key: 0, id: 0 }; cap],
            mults,
            shift: 64 - log_cap,
            len,
        };
        let mut used = vec![false; cap];
        let is_stored = |map: &Self, used: &[bool], key: u64| {
            map.slots_of(key)
                .iter()
                .any(|&s| used[s] && map.slots[s].key == key)
        };
        for (key, id) in entries {
            debug_assert_ne!(id, u32::MAX, "u32::MAX is reserved for misses");
            debug_assert!(!is_stored(&map, &used, key), "duplicate key {key}");
            let mut cur = Slot { key, id };
            let [a, b] = map.slots_of(key);
            let mut pos = if used[a] && !used[b] { b } else { a };
            let mut kicks = 0;
            while used[pos] {
                // Evict the occupant and send it to its other choice.
                std::mem::swap(&mut map.slots[pos], &mut cur);
                kicks += 1;
                if kicks > MAX_KICKS {
                    return None;
                }
                let [a, b] = map.slots_of(cur.key);
                pos = if pos == a { b } else { a };
            }
            used[pos] = true;
            map.slots[pos] = cur;
        }

        // Fillers: candidate values 0, 1, 2, ... shared across slots, since
        // one candidate fits every slot but its own two choices.
        let mut cand = 0u64;
        for s in 0..cap {
            if used[s] {
                continue;
            }
            while map.slots_of(cand).contains(&s) || is_stored(&map, &used, cand) {
                cand += 1;
            }
            map.slots[s] = Slot { key: cand, id: 0 };
        }
        Some(map)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The two candidate slots of `key`.
    #[inline]
    fn slots_of(&self, key: u64) -> [usize; 2] {
        self.mults
            .map(|m| (key.wrapping_mul(m) >> self.shift) as usize)
    }

    /// The id of `key`, or `miss` when `key` is not stored.  Branch-free:
    /// both candidate slots are read and the answer is picked with two
    /// selects.  They are marked unpredictable because whether a record is
    /// heavy is data-dependent; plain `if`s or `&`-masks get turned back
    /// into branches by the compiler, which then mispredict on every switch
    /// between heavy and light records.
    #[inline]
    pub fn get_or(&self, key: u64, miss: u32) -> u32 {
        let [a, b] = self.slots_of(key);
        let (a, b) = (self.slots[a], self.slots[b]);
        let id = select_unpredictable(b.key == key, b.id, miss);
        select_unpredictable(a.key == key, a.id, id)
    }

    /// The id of `key`, if it is stored.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let id = self.get_or(key, u32::MAX);
        (id != u32::MAX).then_some(id)
    }

    /// The filler keys of the empty slots (what a lookup reads when it
    /// misses).  Exposed for tests.
    #[cfg(test)]
    fn fillers(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(s, slot)| !self.slots_of(slot.key).contains(&s))
            .map(|(_, slot)| slot.key)
    }
}

/// Description of one heavy bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyBucket {
    /// The (masked) heavy key all records in this bucket share.
    pub key: u64,
    /// The MSD zone the key belongs to.
    pub zone: usize,
    /// The bucket id assigned to it.
    pub id: u32,
}

/// The complete bucket table of one recursive call: zone → light bucket id,
/// heavy key → heavy bucket id, plus the overflow bucket when the range
/// shrank.
#[derive(Debug, Clone)]
pub struct BucketTable {
    /// Radix width γ of this level.
    pub gamma: u32,
    /// Effective number of key bits considered at this level (≤ remaining
    /// bits; smaller when the overflow optimization shrank the range).
    pub eff_bits: u32,
    /// Mask selecting the `eff_bits` low bits.
    pub eff_mask: u64,
    /// Shift that brings the current digit to the low bits: `eff_bits - γ`.
    pub digit_shift: u32,
    /// Light bucket id of each MSD zone (`2^γ` entries).
    pub light_ids: Vec<u32>,
    /// Heavy buckets in bucket-id order.
    pub heavy: Vec<HeavyBucket>,
    /// Two-choice table from heavy key to bucket id.
    pub heavy_map: HeavyMap,
    /// Bucket id of the overflow bucket, if the range shrank.
    pub overflow_id: Option<u32>,
    /// Total number of buckets.
    pub num_buckets: usize,
}

impl BucketTable {
    /// Builds the bucket table.
    ///
    /// * `bits` — number of remaining (low) key bits of this subproblem.
    /// * `eff_bits` — effective bits after the key-range estimation; when
    ///   `eff_bits < bits`, an overflow bucket takes the keys above them.
    /// * `gamma` — radix width for this level.
    /// * `heavy_keys` — detected heavy keys, already masked to `bits` bits,
    ///   sorted and deduplicated.  Only the smallest ones that keep the
    ///   table within [`MAX_ID_BUCKETS`] get a bucket; the rest stay light.
    pub fn build(bits: u32, eff_bits: u32, gamma: u32, heavy_keys: &[u64]) -> Self {
        debug_assert!(gamma >= 1 && gamma <= eff_bits);
        debug_assert!(eff_bits <= bits);
        let num_zones = 1usize << gamma;
        let digit_shift = eff_bits - gamma;
        let eff_mask = low_mask(eff_bits);
        let with_overflow = eff_bits < bits;
        let heavy_cap = MAX_ID_BUCKETS.saturating_sub(num_zones + usize::from(with_overflow));
        let heavy_keys = &heavy_keys[..heavy_keys.len().min(heavy_cap)];

        let mut light_ids = vec![0u32; num_zones];
        let mut heavy = Vec::with_capacity(heavy_keys.len());

        // Heavy keys are sorted, hence grouped by zone in increasing order:
        // walk zones and heavy keys in lockstep, assigning ids serially
        // (light bucket first, then that zone's heavy buckets by key).
        let mut next_id = 0u32;
        let mut hi = 0usize;
        for zone in 0..num_zones {
            light_ids[zone] = next_id;
            next_id += 1;
            while hi < heavy_keys.len() {
                let hk = heavy_keys[hi];
                debug_assert!(hk <= eff_mask, "heavy key outside effective range");
                let hzone = (hk >> digit_shift) as usize;
                debug_assert!(hzone >= zone, "heavy keys must be sorted");
                if hzone != zone {
                    break;
                }
                heavy.push(HeavyBucket {
                    key: hk,
                    zone,
                    id: next_id,
                });
                next_id += 1;
                hi += 1;
            }
        }
        debug_assert_eq!(hi, heavy_keys.len(), "all heavy keys must be placed");
        let heavy_map = HeavyMap::build(heavy.iter().map(|h| (h.key, h.id)));

        let overflow_id = if with_overflow {
            let id = next_id;
            next_id += 1;
            Some(id)
        } else {
            None
        };

        Self {
            gamma,
            eff_bits,
            eff_mask,
            digit_shift,
            light_ids,
            heavy,
            heavy_map,
            overflow_id,
            num_buckets: next_id as usize,
        }
    }

    /// Number of MSD zones (`2^γ`).
    #[inline]
    pub fn num_zones(&self) -> usize {
        self.light_ids.len()
    }

    /// The `GetBucketID` function of Alg. 2: maps a key (masked to the
    /// subproblem's remaining bits) to its bucket id.
    #[inline]
    pub fn bucket_id(&self, masked_key: u64) -> usize {
        if masked_key > self.eff_mask {
            // Key exceeds the sampled range: overflow bucket.
            debug_assert!(self.overflow_id.is_some());
            return self.overflow_id.unwrap_or(0) as usize;
        }
        let light = self.light_ids[(masked_key >> self.digit_shift) as usize];
        if self.heavy.is_empty() {
            return light as usize;
        }
        self.heavy_map.get_or(masked_key, light) as usize
    }

    /// The half-open range of bucket ids belonging to MSD zone `z`
    /// (its light bucket plus its heavy buckets).
    pub fn zone_bucket_ids(&self, z: usize) -> std::ops::Range<usize> {
        let start = self.light_ids[z] as usize;
        let end = if z + 1 < self.light_ids.len() {
            self.light_ids[z + 1] as usize
        } else {
            self.num_buckets - usize::from(self.overflow_id.is_some())
        };
        start..end
    }

    /// Heavy buckets of zone `z`, in key order.  O(1): the light buckets of
    /// zones `0..z` and every heavy bucket before zone `z` take the ids below
    /// `light_ids[z]`, so zone `z`'s heavy buckets start at index
    /// `light_ids[z] - z` of the id-ordered `heavy` vec.
    pub fn zone_heavy(&self, z: usize) -> &[HeavyBucket] {
        let ids = self.zone_bucket_ids(z);
        let first = ids.start - z;
        &self.heavy[first..first + ids.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    /// The miss value of the reference checks: not an id of any test map.
    const MISS: u32 = 0x00AB_CDEF;

    /// Builds a map over `keys` (ids `7i + 1`) and checks every stored key,
    /// every filler, every neighbour `k ± 1` and 10k random keys against a
    /// `BTreeMap` reference.
    fn check_against_reference(keys: &[u64]) {
        let entries: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, 7 * i as u32 + 1))
            .collect();
        let reference: BTreeMap<u64, u32> = entries.iter().copied().collect();
        assert_eq!(reference.len(), keys.len(), "test keys must be distinct");
        let map = HeavyMap::build(entries.iter().copied());
        assert_eq!(map.len(), keys.len());
        assert_eq!(map.is_empty(), keys.is_empty());
        let check = |q: u64| {
            let want = reference.get(&q).copied();
            assert_eq!(map.get_or(q, MISS), want.unwrap_or(MISS), "key {q:#x}");
            assert_eq!(map.get(q), want, "key {q:#x}");
        };
        for &(k, id) in &entries {
            assert_eq!(map.get_or(k, MISS), id, "stored key {k:#x}");
            check(k.wrapping_sub(1));
            check(k.wrapping_add(1));
        }
        let mut fillers = 0;
        for f in map.fillers() {
            assert!(!reference.contains_key(&f), "filler {f:#x} is a stored key");
            assert_eq!(map.get_or(f, MISS), MISS, "filler {f:#x}");
            fillers += 1;
        }
        assert_eq!(fillers, map.slots.len() - keys.len());
        assert!(
            map.slots.len() >= 2 * keys.len(),
            "table more than half full"
        );
        for i in 0..10_000u64 {
            let r = hash64(i ^ 0x5EED);
            check(r);
            check(r & low_mask(32));
        }
    }

    #[test]
    fn heavy_map_insert_and_get() {
        let keys: Vec<u64> = (0..10u64).map(|i| i * 1_000_003).collect();
        let m = HeavyMap::build(keys.iter().enumerate().map(|(i, &k)| (k, i as u32)));
        assert_eq!(m.len(), 10);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(i as u32));
            assert_eq!(m.get_or(k, 99), i as u32);
        }
        assert_eq!(m.get(7), None);
        assert_eq!(m.get_or(7, 99), 99);
        assert_eq!(m.get(u64::MAX), None);
    }

    #[test]
    fn heavy_map_empty() {
        let m = HeavyMap::build(std::iter::empty::<(u64, u32)>());
        assert!(m.is_empty());
        assert_eq!(m.get(0), None);
        assert_eq!(m.get_or(0, 5), 5);
        assert_eq!(m.get_or(u64::MAX, 5), 5);
    }

    #[test]
    fn heavy_map_matches_btreemap_reference_on_structured_key_sets() {
        let gamma_keys = 1u64 << 12;
        let mut sets: Vec<(&str, Vec<u64>)> = vec![
            ("empty", vec![]),
            ("one key", vec![42]),
            ("2^γ consecutive", (0..gamma_keys).collect()),
            (
                "2^γ random",
                (0..gamma_keys).map(|i| hash64(i) & low_mask(32)).collect(),
            ),
            (
                "id cap, multiples of 1000",
                (0..(MAX_ID_BUCKETS - 4097) as u64)
                    .map(|i| i * 1000)
                    .collect(),
            ),
            (
                "id cap, random 64-bit",
                (0..(MAX_ID_BUCKETS - 4097) as u64)
                    .map(|i| hash64(i + 1))
                    .collect(),
            ),
            (
                "multiples of 2^20",
                (0..gamma_keys).map(|i| i << 20).collect(),
            ),
            (
                "multiples of 2^44",
                (0..gamma_keys).map(|i| i << 44).collect(),
            ),
        ];
        // The `spread()` strides of the generators: Unif-1e9 and Zipf over
        // 1M and 200k ranks in 32 bits, and Zipf over 1M ranks in 64 bits.
        // Heavy keys of a Zipf input are its lowest ranks.
        for (name, stride) in [
            ("Unif-1e9 stride", u64::from(u32::MAX) / 1_000_000_000),
            ("Zipf 1M stride", u64::from(u32::MAX) / 1_000_000),
            ("Zipf 200k stride", u64::from(u32::MAX) / 200_000),
            ("Zipf 1M stride, 64-bit", u64::MAX / 1_000_000),
        ] {
            sets.push((name, (0..gamma_keys).map(|i| i * stride).collect()));
        }
        for bits in [32u32, 64] {
            // BExp keys are mostly ones: all-ones with one or two bits clear.
            let ones = low_mask(bits);
            let mut bexp = vec![ones];
            for i in 0..bits {
                bexp.push(ones & !(1 << i));
                for j in 0..i {
                    bexp.push(ones & !(1 << i) & !(1 << j));
                }
            }
            sets.push(("near-all-ones BExp", bexp));
            sets.push(("0 and low_mask(bits)", vec![0, ones]));
        }
        for (name, mut keys) in sets {
            keys.sort_unstable();
            keys.dedup();
            eprintln!("{name}: {} keys", keys.len());
            check_against_reference(&keys);
        }
    }

    #[test]
    fn bucket_table_no_heavy_no_overflow() {
        // 8 remaining bits, γ = 2 → 4 zones, 4 light buckets only.
        let t = BucketTable::build(8, 8, 2, &[]);
        assert_eq!(t.num_buckets, 4);
        assert_eq!(t.num_zones(), 4);
        assert_eq!(t.overflow_id, None);
        // Keys 0..=63 are zone 0, 64..=127 zone 1, ...
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(63), 0);
        assert_eq!(t.bucket_id(64), 1);
        assert_eq!(t.bucket_id(255), 3);
        assert_eq!(t.zone_bucket_ids(2), 2..3);
        assert!(t.zone_heavy(2).is_empty());
    }

    #[test]
    fn bucket_table_matches_paper_figure_2() {
        // Paper Fig. 2: r = 16 (4 bits), γ = 2, heavy keys {4, 6, 9}.
        // Expected buckets: 0 light(00), 1 light(01), 2 heavy(4), 3 heavy(6),
        // 4 light(10), 5 heavy(9), 6 light(11).
        let t = BucketTable::build(4, 4, 2, &[4, 6, 9]);
        assert_eq!(t.num_buckets, 7);
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(3), 0);
        assert_eq!(t.bucket_id(5), 1);
        assert_eq!(t.bucket_id(7), 1);
        assert_eq!(t.bucket_id(4), 2);
        assert_eq!(t.bucket_id(6), 3);
        assert_eq!(t.bucket_id(8), 4);
        assert_eq!(t.bucket_id(10), 4);
        assert_eq!(t.bucket_id(11), 4);
        assert_eq!(t.bucket_id(9), 5);
        assert_eq!(t.bucket_id(12), 6);
        assert_eq!(t.bucket_id(15), 6);
        // Zone structure.
        assert_eq!(t.zone_bucket_ids(0), 0..1);
        assert_eq!(t.zone_bucket_ids(1), 1..4);
        assert_eq!(t.zone_bucket_ids(2), 4..6);
        assert_eq!(t.zone_bucket_ids(3), 6..7);
        let h1 = t.zone_heavy(1);
        assert_eq!(h1.len(), 2);
        assert_eq!(h1[0].key, 4);
        assert_eq!(h1[1].key, 6);
        assert_eq!(t.zone_heavy(2)[0].key, 9);
    }

    #[test]
    fn overflow_bucket_assignment() {
        // 16 remaining bits but effective range only 8 bits.
        let t = BucketTable::build(16, 8, 4, &[]);
        assert_eq!(t.num_buckets, 16 + 1);
        assert_eq!(t.overflow_id, Some(16));
        assert_eq!(t.bucket_id(255), 15);
        assert_eq!(t.bucket_id(256), 16);
        assert_eq!(t.bucket_id(65_535), 16);
    }

    #[test]
    fn no_overflow_bucket_when_range_not_shrunk() {
        let t = BucketTable::build(8, 8, 4, &[]);
        assert_eq!(t.overflow_id, None);
        assert_eq!(t.num_buckets, 16);
    }

    #[test]
    fn heavy_keys_past_the_id_cap_stay_light() {
        // γ = 12 over 32 effective bits of 40, so with the overflow bucket
        // 4097 ids are taken before any heavy key.
        let heavy: Vec<u64> = (0..70_000u64).map(|i| i * 1000).collect();
        let t = BucketTable::build(40, 32, 12, &heavy);
        assert_eq!(t.num_buckets, MAX_ID_BUCKETS);
        assert_eq!(t.heavy.len(), MAX_ID_BUCKETS - 4097);
        let last = t.heavy.last().unwrap();
        assert_eq!(t.bucket_id(last.key), last.id as usize);
        // The first key past the cap falls to its zone's light bucket.
        let dropped = heavy[t.heavy.len()];
        let zone = (dropped >> t.digit_shift) as usize;
        assert_eq!(t.bucket_id(dropped), t.light_ids[zone] as usize);
        assert_eq!(t.bucket_id(u64::MAX >> 24), t.overflow_id.unwrap() as usize);

        // `zone_heavy` against a reference grouped by zone, for every zone.
        let mut by_zone = vec![Vec::new(); t.num_zones()];
        for h in &t.heavy {
            by_zone[h.zone].push(*h);
        }
        for (z, want) in by_zone.iter().enumerate() {
            assert_eq!(t.zone_heavy(z), want.as_slice(), "zone {z}");
        }
    }

    #[test]
    fn heavy_bucket_ids_are_serial_within_zone() {
        // γ = 3 over 6 effective bits: zones are key >> 3.
        let heavy = vec![1u64, 2, 17, 40, 41, 42];
        let t = BucketTable::build(6, 6, 3, &heavy);
        // ids: zone0 light=0, heavy 1->1, 2->2; zone1 light=3; zone2 light=4,
        // heavy 17->5; zone3 light=6; zone4 light=7; zone5 light=8,
        // heavy 40->9,41->10,42->11; zone6 light=12; zone7 light=13.
        assert_eq!(t.bucket_id(1), 1);
        assert_eq!(t.bucket_id(2), 2);
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(17), 5);
        assert_eq!(t.bucket_id(16), 4);
        assert_eq!(t.bucket_id(40), 9);
        assert_eq!(t.bucket_id(41), 10);
        assert_eq!(t.bucket_id(42), 11);
        assert_eq!(t.bucket_id(43), 8);
        assert_eq!(t.num_buckets, 8 + 6);
    }
}
