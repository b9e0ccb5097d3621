//! Output checks shared by every workload.

/// Order-independent fingerprint of a `(key, value)` multiset: the record
/// count and the wrapping sum of a 64-bit hash of each record.  A dropped,
/// duplicated or altered record changes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    pub count: u64,
    pub sum: u64,
}

/// SplitMix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Checksum {
    pub fn add(&mut self, key: u64, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(mix64(key) ^ value));
    }

    pub fn of<K: Copy + Into<u64>, V: Copy + Into<u64>>(records: &[(K, V)]) -> Self {
        let mut c = Self::default();
        for &(k, v) in records {
            c.add(k.into(), v.into());
        }
        c
    }

    /// The fingerprint of the union of both multisets.
    pub fn merge(self, other: Self) -> Self {
        Self {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// Whether `out` is sorted by key and holds exactly the multiset `want`.
/// With `stable`, equal keys must also keep strictly increasing values:
/// every input carries its input index as the value, so this is stability.
pub fn sorted_output_ok<K, V>(out: &[(K, V)], want: Checksum, stable: bool) -> bool
where
    K: Copy + Ord + Into<u64>,
    V: Copy + Ord + Into<u64>,
{
    let ordered = out.windows(2).all(|w| {
        let (a, b) = (w[0], w[1]);
        a.0 < b.0 || (a.0 == b.0 && (!stable || a.1 < b.1))
    });
    ordered && Checksum::of(out) == want
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_input() -> Vec<(u32, u32)> {
        (0..1000u32).map(|i| (i / 7, i)).collect()
    }

    #[test]
    fn accepts_a_correct_stable_sort() {
        let out = sorted_input();
        assert!(sorted_output_ok(&out, Checksum::of(&out), true));
    }

    #[test]
    fn catches_a_dropped_record() {
        let out = sorted_input();
        let want = Checksum::of(&out);
        let mut dropped = out.clone();
        dropped.remove(500);
        assert!(!sorted_output_ok(&dropped, want, false));
    }

    #[test]
    fn catches_a_duplicated_record() {
        let out = sorted_input();
        let want = Checksum::of(&out);
        let mut duplicated = out.clone();
        duplicated.insert(500, out[500]);
        assert!(!sorted_output_ok(&duplicated, want, false));
        // Replacing a record by a copy of its neighbour keeps the count.
        let mut replaced = out.clone();
        replaced[501] = replaced[500];
        assert!(!sorted_output_ok(&replaced, want, false));
    }

    #[test]
    fn catches_disorder_and_instability() {
        let out = sorted_input();
        let want = Checksum::of(&out);
        let mut unstable = out.clone();
        unstable.swap(0, 1); // equal keys, values out of input order
        assert!(sorted_output_ok(&unstable, want, false));
        assert!(!sorted_output_ok(&unstable, want, true));
        let mut unsorted = out.clone();
        unsorted.swap(0, 999);
        assert!(!sorted_output_ok(&unsorted, want, false));
    }

    #[test]
    fn merge_is_the_checksum_of_the_concatenation() {
        let a: Vec<(u32, u64)> = (0..10).map(|i| (i, 2 * i as u64)).collect();
        let b: Vec<(u32, u64)> = (5..20).map(|i| (i, 3 * i as u64)).collect();
        let both: Vec<(u32, u64)> = a.iter().chain(&b).copied().collect();
        assert_eq!(
            Checksum::of(&a).merge(Checksum::of(&b)),
            Checksum::of(&both)
        );
    }
}
