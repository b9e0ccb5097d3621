//! Registry handles for the streaming engines' metrics.
//!
//! One lazily initialized bundle of handles into [`obs::global`], shared
//! by the sorter, the group-by, the spill writer, and the merge's run
//! feeds.
//! Every call site gates on [`obs::enabled`] *before* touching [`m`], so a
//! fully disabled run never registers anything — the first `m()` call is
//! the registration, and it only happens on an enabled path.
//!
//! Metric names are the stable external contract (the benches and the CI
//! smoke validation select by these names):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `stream.records_pushed` | counter | records accepted by the sorter |
//! | `stream.spilled_runs` | counter | sorter runs durable on disk |
//! | `stream.spilled_bytes` | counter | sorter bytes durable on disk |
//! | `stream.sort_ns` | histogram | per-run DovetailSort latency |
//! | `stream.run_fill_pct` | histogram | run occupancy at spill time (budget-share utilization) |
//! | `groupby.records_pushed` | counter | records accepted by the group-by |
//! | `groupby.spilled_runs` | counter | aggregated runs durable on disk |
//! | `groupby.spilled_bytes` | counter | group-by bytes durable on disk |
//! | `groupby.partial_aggregates` | counter | partials produced (spilled + tail) |
//! | `groupby.aggregate_ns` | histogram | per-run semisort + fold latency |
//! | `spill.backpressure_ns` | histogram | producer wait for the previous run to settle, one sample per pipelined handoff |
//! | `spill.write_ns` | histogram | per-run write (encode + flush + fsync) |
//! | `spill.fsync_ns` | histogram | per-run flush + `sync_data` alone |
//! | `spill.bytes_written` | counter | bytes through `write_run` (both engines, sync + pipelined; post-compression) |
//! | `spill.raw_bytes` | counter | pre-compression (flat-encoding) bytes through `write_run`; the ratio against `spill.bytes_written` is the compression win |
//! | `spill.queue_depth` | gauge | runs in flight to the writer thread (0 or 1) |
//! | `prefetch.refill_ns` | histogram | per-block decode latency of a run feed's decode step (on a pool worker, or inline on the merging thread) |
//! | `prefetch.stall_ns` | histogram | merge-side wait for each block, the first included; for a feed decoding inline, the decode itself |
//! | `prefetch.blocks_prefetched` | counter | blocks decoded for the merge (ahead on the pool or inline) |
//! | `prefetch.blocks_consumed` | counter | blocks the merge actually took |
//! | `prefetch.disabled_merges` | counter | merges that wanted read-ahead but decoded inline (per-run budget below `MIN_PREFETCH_RUN_BUDGET`) |
//! | `spillio.jobs` | counter | jobs submitted to the spill I/O pool (read-ahead decode steps, plus `Batched` pwrite/pread) |
//! | `spillio.queue_depth` | gauge | pool jobs in flight (queued + running) |
//! | `spillio.inline_jobs` | counter | jobs run inline by their submitter because the queue was at depth (submit never blocks) |
//! | `spillio.complete_ns` | histogram | per-job service time on the spill I/O pool workers |
//! | `spill.retries` | counter | transient spill-I/O failures retried (writes and merge-side reads) |
//! | `spill.degraded_syncs` | counter | synchronous spills performed while pipelining was on probation after a failure |
//! | `merge.records` | counter | records popped from final merges, added once per merge when it drops |
//! | `merge.replays` | counter | of those pops, the ones that replayed the loser tree's leaf-to-root path (the rest repeated the popped record's key in its run); added with `merge.records` |
//! | `fault.injected` | counter | faults injected by an active [`crate::FaultPlan`] (zero outside chaos runs) |

use std::sync::OnceLock;

pub(crate) struct StreamMetrics {
    pub records_pushed: obs::Counter,
    pub spilled_runs: obs::Counter,
    pub spilled_bytes: obs::Counter,
    pub sort_ns: obs::Histogram,
    pub run_fill_pct: obs::Histogram,

    pub gb_records_pushed: obs::Counter,
    pub gb_spilled_runs: obs::Counter,
    pub gb_spilled_bytes: obs::Counter,
    pub gb_partial_aggregates: obs::Counter,
    pub gb_aggregate_ns: obs::Histogram,

    pub backpressure_ns: obs::Histogram,
    pub write_ns: obs::Histogram,
    pub fsync_ns: obs::Histogram,
    pub bytes_written: obs::Counter,
    pub raw_bytes_spilled: obs::Counter,
    pub queue_depth: obs::Gauge,

    pub prefetch_refill_ns: obs::Histogram,
    pub prefetch_stall_ns: obs::Histogram,
    pub blocks_prefetched: obs::Counter,
    pub blocks_consumed: obs::Counter,
    pub prefetch_disabled_merges: obs::Counter,

    pub merge_records: obs::Counter,
    pub merge_replays: obs::Counter,

    pub spillio_jobs: obs::Counter,
    pub spillio_queue_depth: obs::Gauge,
    pub spillio_inline_jobs: obs::Counter,
    pub spillio_complete_ns: obs::Histogram,

    pub spill_retries: obs::Counter,
    pub degraded_syncs: obs::Counter,
    pub fault_injected: obs::Counter,
}

/// The handle bundle, registered in [`obs::global`] on first use.  Call
/// only from behind an `obs::enabled()` check.
pub(crate) fn m() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        StreamMetrics {
            records_pushed: reg.counter("stream.records_pushed"),
            spilled_runs: reg.counter("stream.spilled_runs"),
            spilled_bytes: reg.counter("stream.spilled_bytes"),
            sort_ns: reg.histogram("stream.sort_ns"),
            run_fill_pct: reg.histogram("stream.run_fill_pct"),
            gb_records_pushed: reg.counter("groupby.records_pushed"),
            gb_spilled_runs: reg.counter("groupby.spilled_runs"),
            gb_spilled_bytes: reg.counter("groupby.spilled_bytes"),
            gb_partial_aggregates: reg.counter("groupby.partial_aggregates"),
            gb_aggregate_ns: reg.histogram("groupby.aggregate_ns"),
            backpressure_ns: reg.histogram("spill.backpressure_ns"),
            write_ns: reg.histogram("spill.write_ns"),
            fsync_ns: reg.histogram("spill.fsync_ns"),
            bytes_written: reg.counter("spill.bytes_written"),
            raw_bytes_spilled: reg.counter("spill.raw_bytes"),
            queue_depth: reg.gauge("spill.queue_depth"),
            prefetch_refill_ns: reg.histogram("prefetch.refill_ns"),
            prefetch_stall_ns: reg.histogram("prefetch.stall_ns"),
            blocks_prefetched: reg.counter("prefetch.blocks_prefetched"),
            blocks_consumed: reg.counter("prefetch.blocks_consumed"),
            prefetch_disabled_merges: reg.counter("prefetch.disabled_merges"),
            merge_records: reg.counter("merge.records"),
            merge_replays: reg.counter("merge.replays"),
            spillio_jobs: reg.counter("spillio.jobs"),
            spillio_queue_depth: reg.gauge("spillio.queue_depth"),
            spillio_inline_jobs: reg.counter("spillio.inline_jobs"),
            spillio_complete_ns: reg.histogram("spillio.complete_ns"),
            spill_retries: reg.counter("spill.retries"),
            degraded_syncs: reg.counter("spill.degraded_syncs"),
            fault_injected: reg.counter("fault.injected"),
        }
    })
}
