//! The spill-mode matrix the streaming throughput benches share
//! (`fig_stream_throughput`, `fig_varlen_throughput`).
//!
//! Each budget row is measured in both spill encodings under both spill
//! I/O backends, always through the background writer thread.  Whether
//! merges read ahead is not a mode either: the engine does only on a host
//! with more than one CPU, so the `host_cpus` stamped into every JSON says
//! which merge path the rows measured.  Reps are interleaved across the
//! modes so drifting background load on a shared host hits all of them
//! alike, and each batched row carries the median of its same-rep
//! blocking-vs-batched speedups.

use crate::{json_escape, obs_json_fields, write_bench_json, ObsPhaseDeltas};
use crate::{ObsProbe, Table};
use dtsort::{IntegerKey, SpillCompression, SpillIoMode, StreamConfig};
use std::time::Instant;
use stream::{SpillValue, StreamSorter};

/// One (spill encoding, I/O backend) cell of the measurement matrix.
#[derive(Clone, Copy)]
pub struct Mode {
    pub name: &'static str,
    pub compression: SpillCompression,
    pub io: SpillIoMode,
}

/// Both encodings under the blocking backend first, then under the
/// batched backend; [`median_modes`] pairs cell `i` with cell `i + 2` for
/// the per-rep blocking-vs-batched ratio.
pub const MODES: [Mode; 4] = [
    Mode {
        name: "flat",
        compression: SpillCompression::Off,
        io: SpillIoMode::Blocking,
    },
    Mode {
        name: "compressed",
        compression: SpillCompression::DeltaLz,
        io: SpillIoMode::Blocking,
    },
    Mode {
        name: "flat",
        compression: SpillCompression::Off,
        io: SpillIoMode::Batched,
    },
    Mode {
        name: "compressed",
        compression: SpillCompression::DeltaLz,
        io: SpillIoMode::Batched,
    },
];

impl Mode {
    /// The engine config of this cell at `budget` bytes.
    pub fn config(&self, budget: usize) -> StreamConfig {
        StreamConfig {
            memory_budget_bytes: budget,
            spill_compression: self.compression,
            spill_io: self.io,
            ..StreamConfig::default()
        }
    }
}

pub fn io_label(io: SpillIoMode) -> &'static str {
    match io {
        SpillIoMode::Blocking => "blocking",
        SpillIoMode::Batched => "batched",
    }
}

/// One phase-timed streaming sort.
pub struct Phases {
    /// Pushing, sorting and writing every run (`push` loop +
    /// `flush_spills`).
    pub spill_secs: f64,
    /// `finish` + drain.
    pub merge_secs: f64,
    pub runs: usize,
    pub spilled_bytes: u64,
    pub spilled_raw_bytes: u64,
    pub obs: ObsPhaseDeltas,
}

impl Phases {
    pub fn secs(&self) -> f64 {
        self.spill_secs + self.merge_secs
    }
}

/// Sorts `input` through a [`StreamSorter`] under `mode` at `budget`
/// bytes, pushing `batch` records at a time, and times the spill phase
/// and the merge separately.
pub fn stream_sort_phases<K: IntegerKey, V: SpillValue>(
    input: &[(K, V)],
    budget: usize,
    batch: usize,
    mode: Mode,
) -> Phases {
    let mut sorter: StreamSorter<K, V> = StreamSorter::with_config(mode.config(budget));
    let probe = ObsProbe::start();
    let spill_start = Instant::now();
    for chunk in input.chunks(batch) {
        sorter.push(chunk).expect("push failed");
    }
    // Waiting for the writer here charges residual in-flight writes to the
    // spill phase.
    sorter.flush_spills().expect("flush failed");
    let spill_secs = spill_start.elapsed().as_secs_f64();
    let runs = sorter.run_count();
    let spilled_bytes = sorter.stats().spilled_bytes;
    let spilled_raw_bytes = sorter.stats().spilled_raw_bytes;
    let merge_start = Instant::now();
    for record in sorter.finish().expect("finish failed") {
        std::hint::black_box(record);
    }
    Phases {
        spill_secs,
        merge_secs: merge_start.elapsed().as_secs_f64(),
        runs,
        spilled_bytes,
        spilled_raw_bytes,
        obs: probe.finish(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Runs every mode `reps` times, interleaved, and returns the rep of
/// median total time per mode plus, per encoding, the median of the
/// same-rep blocking-vs-batched speedups.
pub fn median_modes(reps: usize, mut run: impl FnMut(Mode) -> Phases) -> (Vec<Phases>, [f64; 2]) {
    let reps = reps.max(1);
    let mut mode_runs: Vec<Vec<Phases>> = MODES.iter().map(|_| Vec::with_capacity(reps)).collect();
    let mut io_ratios: [Vec<f64>; 2] = Default::default();
    for _ in 0..reps {
        for (runs, &mode) in mode_runs.iter_mut().zip(&MODES) {
            runs.push(run(mode));
        }
        for (mi, ratios) in io_ratios.iter_mut().enumerate() {
            let secs = |i: usize| mode_runs[i].last().unwrap().secs();
            ratios.push(secs(mi) / secs(mi + 2));
        }
    }
    let medians = mode_runs
        .into_iter()
        .map(|mut v| {
            v.sort_by(|a, b| a.secs().partial_cmp(&b.secs()).unwrap());
            v.swap_remove(v.len() / 2)
        })
        .collect();
    (medians, io_ratios.map(median))
}

/// One JSON row of a streaming throughput bench.
pub struct Measurement {
    pub dist: String,
    /// Payload-size class (`fig_varlen_throughput` only).
    pub payload: Option<String>,
    pub mode: &'static str,
    pub spill_io: &'static str,
    pub budget_label: String,
    pub budget_bytes: usize,
    pub phases: Phases,
    pub records_per_sec: f64,
    /// Payload MB/s (`fig_varlen_throughput` only).
    pub payload_mb_per_sec: Option<f64>,
    /// Median of paired blocking-vs-batched speedups for the same
    /// encoding (batched rows only).
    pub io_ratio: Option<f64>,
}

impl Measurement {
    /// The matrix rows of one budget: one per mode, from
    /// [`median_modes`]'s output, over `n` records.
    pub fn rows(
        dist: &str,
        budget_label: &str,
        budget_bytes: usize,
        n: usize,
        (medians, io_ratios): (Vec<Phases>, [f64; 2]),
    ) -> Vec<Self> {
        MODES
            .iter()
            .zip(medians)
            .enumerate()
            .map(|(mi, (mode, phases))| Self {
                dist: dist.to_string(),
                payload: None,
                mode: mode.name,
                spill_io: io_label(mode.io),
                budget_label: budget_label.to_string(),
                budget_bytes,
                records_per_sec: n as f64 / phases.secs(),
                phases,
                payload_mb_per_sec: None,
                io_ratio: (mode.io == SpillIoMode::Batched).then(|| io_ratios[mi - 2]),
            })
            .collect()
    }

    fn comp_ratio(&self) -> Option<f64> {
        let p = &self.phases;
        (p.spilled_bytes > 0 && p.spilled_raw_bytes != p.spilled_bytes)
            .then(|| p.spilled_raw_bytes as f64 / p.spilled_bytes as f64)
    }

    /// The row's console cells, in [`table`]'s column order.
    pub fn cells(&self) -> Vec<String> {
        let p = &self.phases;
        let ratio = |r: Option<f64>| r.map_or("-".to_string(), |r| format!("{r:.2}x"));
        let mut cells = vec![
            self.budget_label.clone(),
            self.mode.to_string(),
            self.spill_io.to_string(),
            p.runs.to_string(),
            format!("{:.1}", p.spilled_bytes as f64 / (1 << 20) as f64),
            ratio(self.comp_ratio()),
            format!("{:.4}", p.spill_secs),
            format!("{:.4}", p.merge_secs),
            format!("{:.4}", p.secs()),
            format!("{:.2}", self.records_per_sec / 1e6),
        ];
        if let Some(mbps) = self.payload_mb_per_sec {
            cells.push(format!("{mbps:.1}"));
        }
        cells.push(ratio(self.io_ratio));
        cells
    }

    fn json(&self) -> String {
        let p = &self.phases;
        let payload = self.payload.as_ref().map_or(String::new(), |s| {
            format!(", \"payload\": \"{}\"", json_escape(s))
        });
        let mbps = self.payload_mb_per_sec.map_or(String::new(), |r| {
            format!(", \"payload_mb_per_sec\": {r:.2}")
        });
        let io_ratio = self
            .io_ratio
            .map_or(String::new(), |r| format!(", \"io_blk_bat_ratio\": {r:.3}"));
        format!(
            "{{\"dist\": \"{}\"{payload}, \"mode\": \"{}\", \"spill_io\": \"{}\", \"budget\": \"{}\", \"budget_bytes\": {}, \"runs\": {}, \"spilled_bytes\": {}, \"spilled_raw_bytes\": {}, \"comp_ratio\": {:.3}, \"spill_secs\": {:.6}, \"merge_secs\": {:.6}, \"secs\": {:.6}, \"records_per_sec\": {:.1}{mbps}{io_ratio}{}}}",
            json_escape(&self.dist),
            self.mode,
            self.spill_io,
            json_escape(&self.budget_label),
            self.budget_bytes,
            p.runs,
            p.spilled_bytes,
            p.spilled_raw_bytes,
            self.comp_ratio().unwrap_or(1.0),
            p.spill_secs,
            p.merge_secs,
            p.secs(),
            self.records_per_sec,
            obs_json_fields(&p.obs),
        )
    }
}

/// A console table for [`Measurement::cells`], with a `MB/s` column when
/// `payload_mbps`, and a first row for the `baseline` run (label and
/// seconds over `n` records), if any.
pub fn table(payload_mbps: bool, baseline: Option<(&str, f64)>, n: usize) -> Table {
    let mut headers = vec![
        "budget",
        "mode",
        "io",
        "runs",
        "spill MiB",
        "comp",
        "spill s",
        "merge s",
        "sec",
        "Mrec/s",
    ];
    if payload_mbps {
        headers.push("MB/s");
    }
    headers.push("blk/bat");
    let mut table = Table::new(headers.clone());
    if let Some((label, secs)) = baseline {
        let mut row = vec!["-".to_string(); headers.len()];
        row[0] = label.to_string();
        row[8] = format!("{secs:.4}");
        row[9] = format!("{:.2}", n as f64 / secs / 1e6);
        table.add_row(row);
    }
    table
}

/// Writes `rows` to `path` as bench `bench`, stamped with the input size,
/// batch and pool threads (and, by [`write_bench_json`], the host's CPU
/// count and the git revision).
pub fn write_json(path: &str, bench: &str, n: usize, batch: usize, rows: &[Measurement]) {
    let rendered: Vec<String> = rows.iter().map(Measurement::json).collect();
    write_bench_json(
        path,
        bench,
        &[
            ("n", n.to_string()),
            ("batch", batch.to_string()),
            ("threads", rayon::current_num_threads().to_string()),
        ],
        &rendered,
    );
}
