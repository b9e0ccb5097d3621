//! Generated op inputs and the reference sorts run on them.

use crate::layers::{self, Layers};
use crate::verify::{sorted_output_ok, Checksum};
use workloads::dist::{generate_keys, Distribution};

/// Value types of the benchmark's records.
pub trait Val: Copy + Ord + Into<u64> + Send + Sync {}
impl<T: Copy + Ord + Into<u64> + Send + Sync> Val for T {}

/// One generated input and its fingerprint.  Each value is the record's
/// index in the op's input, so stability can be checked.
pub struct Part<V> {
    pub recs: Vec<(u32, V)>,
    pub sum: Checksum,
}

/// The generator seed of the `j`-th input derived from the run's seed.
pub fn seed_for(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(j as u64)
}

/// `n` records with 32-bit keys from `dist`, valued `first, first + 1, ...`.
pub fn part<V: Val + From<u32>>(dist: &Distribution, n: usize, seed: u64, first: u32) -> Part<V> {
    let keys = generate_keys(dist, n, 32, seed);
    let recs: Vec<(u32, V)> = (first..)
        .zip(keys)
        .map(|(i, k)| (k as u32, V::from(i)))
        .collect();
    let sum = Checksum::of(&recs);
    Part { recs, sum }
}

pub fn zipf(s: f64) -> Distribution {
    Distribution::Zipfian { s }
}

pub fn uniform(distinct: u64) -> Distribution {
    Distribution::Uniform { distinct }
}

/// Sorts a copy of each part with the PLIS\* and LSD\* baselines and, when
/// `with_dtsort`, with DTSort (recording its stats), then closes one
/// reference op.  Runs outside any op's timed interval.  Returns whether
/// every output verified.
pub fn reference<V: Val>(
    parts: &[Part<V>],
    work: &mut Vec<(u32, V)>,
    layers: &mut Layers,
    with_dtsort: bool,
) -> bool {
    let mut ok = true;
    for p in parts {
        if with_dtsort {
            load(work, p);
            let st = dtsort::sort_pairs_with_stats(work, &dtsort::SortConfig::default());
            layers.sorted(&st, p.recs.len());
            ok &= sorted_output_ok(work, p.sum, true);
        }
        load(work, p);
        layers::timed(layers, "baselines.plis_ms", || {
            baselines::plis::sort_pairs(work)
        });
        ok &= sorted_output_ok(work, p.sum, true);
        load(work, p);
        layers::timed(layers, "baselines.lsd_ms", || {
            baselines::lsd::sort_pairs(work)
        });
        ok &= sorted_output_ok(work, p.sum, true);
    }
    if with_dtsort {
        layers.ref_op_done();
    }
    ok
}

/// Copies `p`'s records into the reusable buffer `work`.
pub fn load<V: Val>(work: &mut Vec<(u32, V)>, p: &Part<V>) {
    work.clear();
    work.extend_from_slice(&p.recs);
}
