//! # perfbench — one benchmark for pisort
//!
//! Four workloads, each measured end to end in one process and, in a
//! separate traced run, split into per-layer numbers.  See `README.md`
//! beside this crate for the metric table and why each workload exists.
//!
//! A run is: set up [`SETUP_REPS`] times (generate inputs from the seed,
//! build the engine or server, run one warm-up op) and report the median
//! set-up time; then run ops in a closed loop for the requested seconds,
//! verifying every op's output.

mod inputs;
mod layers;
pub mod report;
mod server_ops;
mod sort_ops;
mod stats;
mod stream_ops;
mod verify;

use inputs::{uniform, zipf};
use layers::Layers;
use obs::MetricsSnapshot;
use report::{Metric, Stamp, END_TO_END};
use stats::{median, percentile, ratio, tail_percentile};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::dist::Distribution;

/// Worker threads of the global rayon pool, sized for a 2-CPU host.
pub const POOL_THREADS: usize = 2;
/// Client threads of `server_sessions`.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SortDup,
    SortLight,
    StreamSpill,
    ServerSessions,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SortDup,
        Workload::SortLight,
        Workload::StreamSpill,
        Workload::ServerSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SortDup => "sort_dup",
            Workload::SortLight => "sort_light",
            Workload::StreamSpill => "stream_spill",
            Workload::ServerSessions => "server_sessions",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The two inputs of a sort op.
    fn sort_dists(self) -> [Distribution; 2] {
        match self {
            // Heavy keys: most records skip recursion.
            Workload::SortDup => [zipf(1.2), Distribution::BitExponential { t: 30.0 }],
            // Light keys: most records end in comparison base cases.
            _ => [uniform(1_000_000_000), zipf(0.8)],
        }
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Records of each of the two inputs of a sort op.
    pub sort_records: usize,
    /// Records of a stream op, half from each distribution.
    pub stream_records: usize,
    /// Records per `StreamSorter::push`.
    pub stream_batch: usize,
    /// Records of one server session.
    pub session_records: usize,
    /// Records per session push.
    pub session_batch: usize,
    /// Distinct session inputs generated at set-up, reused round robin; a
    /// multiple of [`server_ops::MIX`].
    pub session_pool: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn full() -> Self {
        Self {
            // 1M rather than 4M records per input: a sort op stays under
            // 125 ms on a contended host, so every run makes the 200 ops
            // that put 10 samples beyond its p95, and the tail metric is
            // the same percentile whatever the host's speed.
            sort_records: 1_000_000,
            stream_records: 4_000_000,
            stream_batch: 64 << 10,
            // 200k rather than 10k records per session: the same six
            // spilled runs and one reclaim per session, but fsync latency
            // and thread wake-ups, which a shared host makes erratic, are a
            // smaller share of it.
            session_records: 200_000,
            session_batch: 25_000,
            session_pool: server_ops::MIX,
        }
    }

    /// Small inputs with the same shape, for smoke tests.
    pub fn tiny() -> Self {
        Self {
            sort_records: 20_000,
            stream_records: 40_000,
            stream_batch: 4_096,
            session_records: 1_000,
            session_batch: 125,
            session_pool: server_ops::MIX,
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Spill directories and the trace file go here.
    pub work_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub stamp: Vec<(&'static str, Stamp)>,
}

/// A workload whose ops run one after another on the calling thread.
pub(crate) trait Serial {
    fn records_per_op(&self) -> u64;
    /// Runs one op; returns its latency and whether its output verified.
    /// Call times and `dtsort` stats go to `layers`.
    fn op(&mut self, layers: &mut Layers) -> (Duration, bool);
    /// The reference sorts of one op's inputs, untimed; whether they
    /// verified.
    fn reference(&mut self, layers: &mut Layers) -> bool;
}

/// Input records completed and the seconds they took, summed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Work {
    pub records: u64,
    pub seconds: f64,
}

impl Work {
    pub fn add(&mut self, records: u64, seconds: f64) {
        self.records += records;
        self.seconds += seconds;
    }

    /// Records per second.
    pub fn rate(&self) -> f64 {
        ratio(self.records as f64, self.seconds)
    }
}

/// What the measured phase of a run produced.
pub(crate) struct Measured {
    /// Untraced op latencies, seconds.
    pub lat: Vec<f64>,
    /// Work of the untraced and of the traced ops: for serial workloads
    /// the ops' own times, for the server each window's wall time until
    /// its last session ended.  Throughput is total records over total
    /// time: a host whose speed steps up and down for seconds at a time
    /// moves this mean by the share of the run it was slow, where a median
    /// over ops would jump to whichever speed held for most of the run.
    pub work: [Work; 2],
    pub attempted: u64,
    pub failed: u64,
    pub traced_ops: u64,
    /// Whether every reference sort verified.
    pub reference_ok: bool,
    pub layers: Layers,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Measured {
    /// Starts a measurement: snapshots the `obs` registry.
    pub fn new() -> Self {
        Self {
            lat: Vec::new(),
            work: Default::default(),
            attempted: 0,
            failed: 0,
            traced_ops: 0,
            reference_ok: true,
            layers: Layers::default(),
            before: obs::global().snapshot(),
            after: MetricsSnapshot::default(),
        }
    }
}

/// Whether `dir` exists and holds nothing.
pub(crate) fn dir_is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|mut d| d.next().is_none())
}

/// Runs `setup` [`SETUP_REPS`] times, freeing each state before building
/// the next; returns the last state, the median set-up time in seconds,
/// and how many warm-up ops failed.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> io::Result<(T, bool)>,
) -> io::Result<(T, f64, u64)> {
    let mut state = None;
    let mut secs = Vec::new();
    let mut failed = 0;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        let (s, ok) = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        failed += u64::from(!ok);
        state = Some(s);
    }
    Ok((state.expect("SETUP_REPS > 0"), median(&secs), failed))
}

/// A serial workload's set-up: build it, then one verified warm-up op.
fn warmed<W: Serial>(mut wl: W) -> io::Result<(W, bool)> {
    let ok = wl.op(&mut Layers::default()).1;
    Ok((wl, ok))
}

/// The measured phase of a serial workload.  Traced runs alternate
/// untraced and traced ops, so the tracing overhead is measured under the
/// same conditions; `obs` records only during traced ops.
fn measure_serial<W: Serial>(cfg: &RunConfig, wl: &mut W) -> Measured {
    let mut m = Measured::new();
    let rpo = wl.records_per_op();
    let mut lat: [Vec<f64>; 2] = Default::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline || lat[0].is_empty() || (cfg.trace && lat[1].is_empty()) {
        let traced = cfg.trace && m.attempted % 2 == 1;
        let (elapsed, ok) = if traced {
            obs::enable();
            let r = {
                let _span = obs::span!("bench.op");
                wl.op(&mut m.layers)
            };
            obs::disable();
            m.layers.ops += 1;
            m.layers.records += rpo;
            m.reference_ok &= wl.reference(&mut m.layers);
            r
        } else {
            wl.op(&mut Layers::default())
        };
        m.attempted += 1;
        m.failed += u64::from(!ok);
        lat[usize::from(traced)].push(elapsed.as_secs_f64());
        m.work[usize::from(traced)].add(rpo, elapsed.as_secs_f64());
    }
    m.after = obs::global().snapshot();
    m.traced_ops = lat[1].len() as u64;
    m.lat = std::mem::take(&mut lat[0]);
    m
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one workload as `cfg` says.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    // Recording is on only while a traced op runs.
    obs::disable();
    let spill_root = cfg.work_dir.join(format!("spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_root)?;
    let sizes = &cfg.sizes;
    let seed = cfg.seed;
    let (m, setup_s, warm_failed, records_per_op) = match cfg.workload {
        Workload::SortDup | Workload::SortLight => {
            let dists = cfg.workload.sort_dists();
            let (mut wl, setup_s, warm_failed) = repeated_setup(|| {
                warmed(sort_ops::SortOps::new(&dists, sizes.sort_records, seed))
            })?;
            let rpo = wl.records_per_op();
            (measure_serial(cfg, &mut wl), setup_s, warm_failed, rpo)
        }
        Workload::StreamSpill => {
            let (mut wl, setup_s, warm_failed) = repeated_setup(|| {
                warmed(stream_ops::StreamOps::new(
                    sizes.stream_records,
                    sizes.stream_batch,
                    seed,
                    &spill_root,
                ))
            })?;
            let rpo = wl.records_per_op();
            (measure_serial(cfg, &mut wl), setup_s, warm_failed, rpo)
        }
        Workload::ServerSessions => {
            let ((sessions, host), setup_s, warm_failed) = repeated_setup(|| {
                let sessions = server_ops::Sessions::new(sizes, seed, &spill_root);
                let host = sessions.host()?;
                let ok = sessions.warm_up(&host);
                Ok(((sessions, host), ok))
            })?;
            let m = sessions.measure(cfg, host)?;
            (m, setup_s, warm_failed, sizes.session_records as u64)
        }
    };
    let spill_clean = dir_is_empty(&spill_root);
    std::fs::remove_dir_all(&spill_root)?;

    let metrics = if cfg.trace {
        let overhead = 1.0 - ratio(m.work[1].rate(), m.work[0].rate());
        m.layers.metrics(&m.before, &m.after, overhead)
    } else {
        let ms: Vec<f64> = m.lat.iter().map(|s| s * 1e3).collect();
        let values = [
            m.work[0].rate() / 1e6,
            median(&ms),
            percentile(&ms, tail_percentile(ms.len())),
            peak_rss_mib(),
            setup_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };

    let attempted = m.attempted + SETUP_REPS as u64;
    let failed = m.failed + warm_failed;
    let mut stamp = vec![
        ("workload", Stamp::Text(cfg.workload.name().to_string())),
        ("seed", Stamp::Num(cfg.seed as f64)),
        ("trace", Stamp::Num(f64::from(u8::from(cfg.trace)))),
        ("git_rev", Stamp::Text(report::git_revision(Path::new(".")))),
        (
            "host_cpus",
            Stamp::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rayon_threads",
            Stamp::Num(rayon::current_num_threads() as f64),
        ),
        ("records_per_op", Stamp::Num(records_per_op as f64)),
        ("ops", Stamp::Num(m.lat.len() as f64)),
        ("traced_ops", Stamp::Num(m.traced_ops as f64)),
        (
            "tail_percentile",
            Stamp::Num(tail_percentile(m.lat.len()) as f64),
        ),
        ("setup_reps", Stamp::Num(SETUP_REPS as f64)),
        ("seconds", Stamp::Num(cfg.seconds)),
    ];
    let size_fields = match cfg.workload {
        Workload::SortDup | Workload::SortLight => {
            vec![("sort_records", sizes.sort_records)]
        }
        Workload::StreamSpill => vec![
            ("stream_records", sizes.stream_records),
            ("stream_batch", sizes.stream_batch),
        ],
        Workload::ServerSessions => vec![
            ("clients", CLIENTS),
            ("session_records", sizes.session_records),
            ("session_batch", sizes.session_batch),
            ("session_pool", sizes.session_pool),
        ],
    };
    stamp.extend(
        size_fields
            .into_iter()
            .map(|(k, v)| (k, Stamp::Num(v as f64))),
    );
    if cfg.trace {
        let (events, dropped) = obs::drain_spans();
        let path = cfg
            .work_dir
            .join(format!("trace-{}.json", cfg.workload.name()));
        obs::write_chrome_trace(&path, &events)?;
        let registry = cfg
            .work_dir
            .join(format!("metrics-{}.json", cfg.workload.name()));
        std::fs::write(&registry, m.after.to_json())?;
        stamp.push(("metrics_file", Stamp::Text(registry.display().to_string())));
        stamp.push(("trace_file", Stamp::Text(path.display().to_string())));
        stamp.push(("trace_spans", Stamp::Num(events.len() as f64)));
        stamp.push(("trace_spans_dropped", Stamp::Num(dropped as f64)));
    }
    Ok(Outcome {
        correct: failed == 0 && m.reference_ok && spill_clean,
        attempted,
        failed,
        metrics,
        stamp,
    })
}
