//! `sort_dup` and `sort_light`: in-memory `dtsort::sort_pairs` ops.

use crate::inputs::{self, load, part, seed_for, Part};
use crate::layers::Layers;
use crate::verify::sorted_output_ok;
use crate::Serial;
use std::time::{Duration, Instant};
use workloads::dist::Distribution;

/// One op sorts each part in turn; the op's latency is the sum of the
/// sort calls, without the copies that reload the inputs.
pub struct SortOps {
    parts: Vec<Part<u32>>,
    work: Vec<(u32, u32)>,
    cfg: dtsort::SortConfig,
}

impl SortOps {
    pub fn new(dists: &[Distribution], n: usize, seed: u64) -> Self {
        let parts = dists
            .iter()
            .enumerate()
            .map(|(j, d)| part(d, n, seed_for(seed, j), 0))
            .collect();
        Self {
            parts,
            work: Vec::with_capacity(n),
            cfg: dtsort::SortConfig::default(),
        }
    }
}

impl Serial for SortOps {
    fn records_per_op(&self) -> u64 {
        self.parts.iter().map(|p| p.recs.len() as u64).sum()
    }

    fn op(&mut self, layers: &mut Layers) -> (Duration, bool) {
        let mut elapsed = Duration::ZERO;
        let mut ok = true;
        for p in &self.parts {
            load(&mut self.work, p);
            let start = Instant::now();
            // `sort_pairs` builds the same stats internally and drops them.
            let st = {
                let _span = obs::span!("dtsort.sort_pairs");
                dtsort::sort_pairs_with_stats(&mut self.work, &self.cfg)
            };
            elapsed += start.elapsed();
            layers.sorted(&st, p.recs.len());
            ok &= sorted_output_ok(&self.work, p.sum, true);
        }
        layers.ref_op_done();
        (elapsed, ok)
    }

    fn reference(&mut self, layers: &mut Layers) -> bool {
        inputs::reference(&self.parts, &mut self.work, layers, false)
    }
}
