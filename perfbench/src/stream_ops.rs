//! `stream_spill`: one op is one whole `StreamSorter` lifecycle that
//! spills to disk and merges its runs.

use crate::inputs::{self, part, seed_for, uniform, zipf, Part};
use crate::layers::{timed, Layers};
use crate::verify::{sorted_output_ok, Checksum};
use crate::Serial;
use dtsort::{SpillCompression, SpillIoMode, StreamConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stream::StreamSorter;

pub struct StreamOps {
    /// Pushed in order: Zipf-1.2, then Unif-1e9, each valued by its index
    /// in the whole stream.
    parts: Vec<Part<u32>>,
    sum: Checksum,
    batch: usize,
    cfg: StreamConfig,
    spill_root: PathBuf,
    next_dir: u64,
    out: Vec<(u32, u32)>,
    work: Vec<(u32, u32)>,
}

impl StreamOps {
    pub fn new(records: usize, batch: usize, seed: u64, spill_root: &Path) -> Self {
        let half = records / 2;
        let parts = vec![
            part(&zipf(1.2), half, seed_for(seed, 0), 0),
            part(
                &uniform(1_000_000_000),
                half,
                seed_for(seed, 1),
                half as u32,
            ),
        ];
        let sum = parts[0].sum.merge(parts[1].sum);
        // The default engine, spelled out where a default could come from
        // the environment; a budget of 1/8 of the data gives ~25 runs.
        let cfg = StreamConfig {
            memory_budget_bytes: 2 * half * std::mem::size_of::<(u32, u32)>() / 8,
            spill_io: SpillIoMode::Blocking,
            spill_compression: SpillCompression::Off,
            ..StreamConfig::default()
        };
        Self {
            parts,
            sum,
            batch,
            cfg,
            spill_root: spill_root.to_path_buf(),
            next_dir: 0,
            out: Vec::with_capacity(2 * half),
            work: Vec::with_capacity(half),
        }
    }

    /// Push, flush, finish and drain into `self.out`, spilling under `dir`.
    fn lifecycle(&mut self, dir: &Path, layers: &mut Layers) -> io::Result<()> {
        let mut cfg = self.cfg.clone();
        cfg.spill_dir = Some(dir.to_path_buf());
        let mut sorter = StreamSorter::<u32, u32>::with_config(cfg);
        for p in &self.parts {
            for chunk in p.recs.chunks(self.batch) {
                timed(layers, "stream.push_ms", || sorter.push(chunk))?;
            }
        }
        timed(layers, "stream.flush_ms", || sorter.flush_spills())?;
        let sorted = timed(layers, "stream.finish_ms", || sorter.finish())?;
        let out = &mut self.out;
        timed(layers, "stream.drain_ms", || {
            out.clear();
            out.extend(sorted);
        });
        Ok(())
    }
}

impl Serial for StreamOps {
    fn records_per_op(&self) -> u64 {
        self.sum.count
    }

    fn op(&mut self, layers: &mut Layers) -> (Duration, bool) {
        // Every op spills into a fresh directory that must be empty again
        // once the sorted stream is dropped.
        let dir = self.spill_root.join(format!("stream-op-{}", self.next_dir));
        self.next_dir += 1;
        let created = std::fs::create_dir_all(&dir).is_ok();
        let start = Instant::now();
        let result = self.lifecycle(&dir, layers);
        let elapsed = start.elapsed();
        let clean = crate::dir_is_empty(&dir);
        let removed = std::fs::remove_dir_all(&dir).is_ok();
        if let Err(e) = &result {
            eprintln!("stream_spill op failed: {e}");
        }
        let ok = created
            && result.is_ok()
            && clean
            && removed
            && sorted_output_ok(&self.out, self.sum, true);
        (elapsed, ok)
    }

    fn reference(&mut self, layers: &mut Layers) -> bool {
        inputs::reference(&self.parts, &mut self.work, layers, true)
    }
}
