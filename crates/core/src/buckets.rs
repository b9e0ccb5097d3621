//! Bucket-id assignment (paper Alg. 2, lines 5–14 and the `GetBucketID`
//! function).
//!
//! After sampling, every key of the current subproblem maps to a bucket:
//!
//! * the key range is split into `2^γ` *MSD zones* by the current digit;
//! * every MSD zone owns one *light* bucket;
//! * every detected heavy key owns its own bucket, placed immediately after
//!   the light bucket of its zone and ordered by key within the zone;
//! * optionally, one *overflow* bucket at the very end collects keys above
//!   the sampled key range (Section 5).
//!
//! Heavy keys are looked up in a small open-addressing hash table `H`; light
//! keys fall through to a direct-indexed lookup array `L` keyed by the MSD —
//! exactly the `H`/`L` pair of the paper.
//!
//! The distribution caches bucket ids as `u16`, so a table gives heavy keys
//! buckets only up to [`MAX_ID_BUCKETS`] in total: heavy keys past that cap
//! (possible only with an enlarged [`crate::SortConfig::sample_factor`] or
//! carried hints) are left light, which costs them the recursion they would
//! have skipped but keeps the sort correct.  A radix width of 16 bits or
//! more exceeds the id range with its zones alone; the distribution then
//! evaluates bucket ids twice instead of caching them.

use crate::key::low_mask;
use parlay::counting_sort::MAX_ID_BUCKETS;

/// A minimal open-addressing hash map from `u64` keys to bucket ids.
///
/// The number of heavy keys per subproblem is at most `~2^γ ≤ 4096`, so the
/// table is tiny and lives comfortably in cache; linear probing with a
/// power-of-two capacity at load factor ≤ 0.5 gives expected O(1) lookups.
#[derive(Debug, Clone)]
pub struct HeavyMap {
    slots: Vec<Option<(u64, u32)>>,
    mask: usize,
    len: usize,
}

impl HeavyMap {
    /// Creates a map sized for `expected` keys.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(1) * 4).next_power_of_two();
        Self {
            slots: vec![None; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (parlay::random::hash64(key) as usize) & self.mask
    }

    /// Inserts `key -> id`.  Keys must be distinct; the table never grows
    /// (capacity was chosen from the number of heavy keys).
    pub fn insert(&mut self, key: u64, id: u32) {
        assert!(self.len * 2 < self.slots.len(), "HeavyMap overfull");
        let mut i = self.slot_of(key);
        loop {
            match self.slots[i] {
                None => {
                    self.slots[i] = Some((key, id));
                    self.len += 1;
                    return;
                }
                Some((k, _)) => {
                    debug_assert_ne!(k, key, "duplicate heavy key inserted");
                    i = (i + 1) & self.mask;
                }
            }
        }
    }

    /// Looks up the bucket id of `key`, if it is a heavy key.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.slot_of(key);
        loop {
            match self.slots[i] {
                None => return None,
                Some((k, id)) if k == key => return Some(id),
                Some(_) => i = (i + 1) & self.mask,
            }
        }
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
/// heavy key → heavy bucket id, plus the optional overflow bucket.
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
    /// Whether each MSD zone owns at least one heavy bucket.  Keys in zones
    /// without heavy buckets skip the hash-table probe entirely, which keeps
    /// the per-record cost of `GetBucketID` at a shift and two array reads on
    /// inputs where heavy keys are concentrated in few zones.
    pub zone_has_heavy: Vec<bool>,
    /// Heavy buckets in bucket-id order.
    pub heavy: Vec<HeavyBucket>,
    /// Hash table from heavy key to bucket id.
    pub heavy_map: HeavyMap,
    /// Bucket id of the overflow bucket, if enabled.
    pub overflow_id: Option<u32>,
    /// Total number of buckets.
    pub num_buckets: usize,
}

impl BucketTable {
    /// Builds the bucket table.
    ///
    /// * `bits` — number of remaining (low) key bits of this subproblem.
    /// * `eff_bits` — effective bits after the key-range estimation
    ///   (`= bits` when the overflow optimization is off).
    /// * `gamma` — radix width for this level.
    /// * `heavy_keys` — detected heavy keys, already masked to `bits` bits,
    ///   sorted and deduplicated.  Only the smallest ones that keep the
    ///   table within [`MAX_ID_BUCKETS`] get a bucket; the rest stay light.
    /// * `with_overflow` — whether to append an overflow bucket.
    pub fn build(
        bits: u32,
        eff_bits: u32,
        gamma: u32,
        heavy_keys: &[u64],
        with_overflow: bool,
    ) -> Self {
        debug_assert!(gamma >= 1 && gamma <= eff_bits);
        debug_assert!(eff_bits <= bits);
        let num_zones = 1usize << gamma;
        let digit_shift = eff_bits - gamma;
        let eff_mask = low_mask(eff_bits);
        let with_overflow = with_overflow && eff_bits < bits;
        let heavy_cap = MAX_ID_BUCKETS.saturating_sub(num_zones + usize::from(with_overflow));
        let heavy_keys = &heavy_keys[..heavy_keys.len().min(heavy_cap)];

        let mut light_ids = vec![0u32; num_zones];
        let mut zone_has_heavy = vec![false; num_zones];
        let mut heavy = Vec::with_capacity(heavy_keys.len());
        let mut heavy_map = HeavyMap::with_capacity(heavy_keys.len());

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
                zone_has_heavy[zone] = true;
                heavy_map.insert(hk, next_id);
                next_id += 1;
                hi += 1;
            }
        }
        debug_assert_eq!(hi, heavy_keys.len(), "all heavy keys must be placed");

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
            zone_has_heavy,
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
        let zone = (masked_key >> self.digit_shift) as usize;
        if self.zone_has_heavy[zone] {
            if let Some(id) = self.heavy_map.get(masked_key) {
                return id as usize;
            }
        }
        self.light_ids[zone] as usize
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

    /// Heavy buckets of zone `z`, in key order.
    pub fn zone_heavy(&self, z: usize) -> &[HeavyBucket] {
        let ids = self.zone_bucket_ids(z);
        // Heavy buckets of zone z have ids ids.start+1 .. ids.end, and the
        // `heavy` vec is in id order.
        let count = ids.len().saturating_sub(1);
        if count == 0 {
            return &[];
        }
        let first = self
            .heavy
            .iter()
            .position(|h| h.zone == z)
            .expect("zone has heavy buckets");
        &self.heavy[first..first + count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_map_insert_and_get() {
        let mut m = HeavyMap::with_capacity(10);
        for i in 0..10u64 {
            m.insert(i * 1_000_003, i as u32);
        }
        assert_eq!(m.len(), 10);
        for i in 0..10u64 {
            assert_eq!(m.get(i * 1_000_003), Some(i as u32));
        }
        assert_eq!(m.get(7), None);
        assert_eq!(m.get(u64::MAX), None);
    }

    #[test]
    fn heavy_map_empty() {
        let m = HeavyMap::with_capacity(0);
        assert!(m.is_empty());
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn bucket_table_no_heavy_no_overflow() {
        // 8 remaining bits, γ = 2 → 4 zones, 4 light buckets only.
        let t = BucketTable::build(8, 8, 2, &[], false);
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
        let t = BucketTable::build(4, 4, 2, &[4, 6, 9], false);
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
        let t = BucketTable::build(16, 8, 4, &[], true);
        assert_eq!(t.num_buckets, 16 + 1);
        assert_eq!(t.overflow_id, Some(16));
        assert_eq!(t.bucket_id(255), 15);
        assert_eq!(t.bucket_id(256), 16);
        assert_eq!(t.bucket_id(65_535), 16);
    }

    #[test]
    fn no_overflow_bucket_when_range_not_shrunk() {
        let t = BucketTable::build(8, 8, 4, &[], true);
        assert_eq!(t.overflow_id, None);
        assert_eq!(t.num_buckets, 16);
    }

    #[test]
    fn heavy_keys_past_the_id_cap_stay_light() {
        // γ = 12 over 32 effective bits of 40, so with the overflow bucket
        // 4097 ids are taken before any heavy key.
        let heavy: Vec<u64> = (0..70_000u64).map(|i| i * 1000).collect();
        let t = BucketTable::build(40, 32, 12, &heavy, true);
        assert_eq!(t.num_buckets, MAX_ID_BUCKETS);
        assert_eq!(t.heavy.len(), MAX_ID_BUCKETS - 4097);
        let last = t.heavy.last().unwrap();
        assert_eq!(t.bucket_id(last.key), last.id as usize);
        // The first key past the cap falls to its zone's light bucket.
        let dropped = heavy[t.heavy.len()];
        let zone = (dropped >> t.digit_shift) as usize;
        assert_eq!(t.bucket_id(dropped), t.light_ids[zone] as usize);
        assert_eq!(t.bucket_id(u64::MAX >> 24), t.overflow_id.unwrap() as usize);
    }

    #[test]
    fn heavy_bucket_ids_are_serial_within_zone() {
        // γ = 3 over 6 effective bits: zones are key >> 3.
        let heavy = vec![1u64, 2, 17, 40, 41, 42];
        let t = BucketTable::build(6, 6, 3, &heavy, false);
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
