//! Chaos differential suite: the streaming engines under seeded fault
//! injection ([`stream::FaultPlan`]).
//!
//! The contract every cell asserts is **loud or lossless, never silent,
//! never hung**:
//!
//! * if the engine completes, the output must be *byte-identical* to the
//!   fault-free reference (a transparently recovered fault may not change
//!   a single record);
//! * if the engine errors, the error must be attributable — a typed
//!   [`stream::SpillError`] and/or a message naming the injected fault —
//!   and the spill directory must be empty after teardown (no leaked
//!   runs, no leaked partial files);
//! * mid-merge read faults on the streaming iterator keep the documented
//!   loud-panic contract — the panic names the injection, and teardown
//!   still empties the spill directory.
//!
//! Fault schedules are deterministic (seeded, keyed by per-operation
//! counters).  CI re-runs the suite under two seeds via
//! `PISORT_FAULT_PLAN=<seed>[:<period>]`; without the variable the
//! built-in seeds below run.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stream::{
    FaultKind, FaultPlan, SpillCompression, SpillError, SpillIoHandle, StreamGroupBy, StreamSorter,
    SumAgg, DEFAULT_FAULT_PERIOD,
};
use workloads::dist::{generate_pairs_u32, Distribution};

const N: usize = 10_000;
const CHUNK: usize = 777;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty spill base directory unique to one chaos cell.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pisort-chaos-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_empty_and_remove(base: &Path, ctx: &str) {
    let leftovers: Vec<_> = std::fs::read_dir(base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "leaked spill state after injected fault [{ctx}]: {leftovers:?}"
    );
    std::fs::remove_dir_all(base).ok();
}

/// The `(seed, period)` fault schedules of this run: the
/// `PISORT_FAULT_PLAN` spec when set (the CI chaos legs), the two
/// built-in seeds otherwise.
fn fault_specs() -> Vec<(u64, u64)> {
    if let Ok(spec) = std::env::var("PISORT_FAULT_PLAN") {
        let spec = spec.trim();
        let parsed = match spec.split_once(':') {
            Some((s, p)) => s.trim().parse().ok().zip(p.trim().parse().ok()),
            None => spec.parse().ok().map(|s| (s, DEFAULT_FAULT_PERIOD)),
        };
        if let Some(sp) = parsed {
            return vec![sp];
        }
    }
    vec![(0xC4A0_5001, 23), (0xC4A0_5002, 23)]
}

/// The backend × codec matrix each chaos scenario sweeps.
fn cells() -> Vec<(&'static str, SpillCompression)> {
    let mut m = Vec::new();
    for backend in ["blocking", "batched"] {
        for c in [SpillCompression::Off, SpillCompression::DeltaLz] {
            m.push((backend, c));
        }
    }
    m
}

fn make_io(backend: &str) -> SpillIoHandle {
    match backend {
        "blocking" => SpillIoHandle::blocking(),
        _ => SpillIoHandle::from_config(&dtsort::StreamConfig {
            spill_io: dtsort::SpillIoMode::Batched,
            ..dtsort::StreamConfig::default()
        }),
    }
}

fn cfg(base: &Path, compression: SpillCompression) -> dtsort::StreamConfig {
    dtsort::StreamConfig {
        spill_dir: Some(base.to_path_buf()),
        spill_compression: compression,
        ..dtsort::StreamConfig::with_memory_budget(16 << 10)
    }
}

/// An error escaping a chaos run must be attributable: typed, or naming
/// the injection, or the loud writer/worker-panic conversion.
fn assert_attributable(e: &io::Error, ctx: &str) {
    let msg = e.to_string();
    assert!(
        SpillError::from_io(e).is_some() || msg.contains("injected") || msg.contains("panicked"),
        "untyped, unattributable chaos error [{ctx}]: kind={:?} msg={msg}",
        e.kind()
    );
}

/// The main sweep: the distribution matrix under a blanket fault mix
/// (every error-returning site), on every backend × format × spill-mode
/// cell.  `finish_vec` is used so merge-time read faults surface as
/// `Err`, keeping the whole cell in the loud-or-lossless contract.
#[test]
fn faulted_sorts_are_byte_identical_or_loudly_typed() {
    let dists = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
    ];
    // Faults fired on each side of the spill: the sweep must reach both
    // the run writes and the merge's reads.
    const WRITE_SIDE: &[FaultKind] = &[
        FaultKind::WriteEnospc,
        FaultKind::WriteTransient,
        FaultKind::TornWrite,
    ];
    let (mut read_side, mut write_side) = (0u64, 0u64);
    let mut injected_total = 0u64;
    let mut recovered = 0usize;
    let mut errored = 0usize;
    for (seed, period) in fault_specs() {
        for (di, dist) in dists.iter().enumerate() {
            let input = generate_pairs_u32(dist, N, 0xC4A0_0000 + di as u64);
            let mut want = input.clone();
            want.sort_by_key(|r| r.0);
            for (backend, compression) in cells() {
                let ctx = format!(
                    "sorter seed={seed} period={period} dist={} backend={backend} \
                     compression={compression:?}",
                    dist.label()
                );
                let base = case_dir("sort");
                let plan = FaultPlan::seeded(seed ^ (di as u64) << 32, period);
                let io = make_io(backend).with_faults(plan.clone());
                let mut sorter: StreamSorter<u32, u32> =
                    StreamSorter::with_config_and_io(cfg(&base, compression), io);
                let mut push_err = None;
                for chunk in input.chunks(CHUNK) {
                    if let Err(e) = sorter.push(chunk) {
                        push_err = Some(e);
                        break;
                    }
                }
                let result = match push_err {
                    Some(e) => {
                        drop(sorter);
                        Err(e)
                    }
                    None => sorter.finish_vec(),
                };
                match result {
                    Ok(got) => {
                        assert_eq!(got, want, "recovered run must be byte-identical [{ctx}]");
                        recovered += 1;
                    }
                    Err(e) => {
                        assert_attributable(&e, &ctx);
                        errored += 1;
                    }
                }
                assert_empty_and_remove(&base, &ctx);
                injected_total += plan.injected();
                read_side += plan.injected_of(FaultKind::ReadTransient);
                write_side += WRITE_SIDE.iter().map(|&k| plan.injected_of(k)).sum::<u64>();
            }
        }
    }
    assert!(
        injected_total > 0,
        "the chaos sweep must actually inject faults \
         (recovered={recovered} errored={errored})"
    );
    assert!(
        read_side > 0 && write_side > 0,
        "the chaos sweep must fault both the merge's reads ({read_side}) and \
         the run writes ({write_side}) (recovered={recovered} errored={errored})"
    );
}

/// The group-by engine under the same blanket mix, minus the read-side
/// kinds: its merge streams partials through the loser tree, where a
/// mid-stream read fault panics by contract (covered separately below),
/// so this sweep pins the write/open/fsync paths to Ok-or-typed.
#[test]
fn faulted_group_bys_aggregate_exactly_or_loudly_typed() {
    const WRITE_SIDE: &[FaultKind] = &[
        FaultKind::CreateTransient,
        FaultKind::OpenTransient,
        FaultKind::WriteEnospc,
        FaultKind::WriteTransient,
        FaultKind::TornWrite,
        FaultKind::FsyncTransient,
    ];
    let input: Vec<(u32, u64)> =
        generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, 4 * N, 0xC4A0_6000)
            .into_iter()
            .map(|(k, _)| (k, 1u64))
            .collect();
    let mut want = std::collections::BTreeMap::new();
    for &(k, v) in &input {
        *want.entry(k).or_insert(0u64) += v;
    }
    let want: Vec<(u32, u64)> = want.into_iter().collect();
    let mut injected_total = 0u64;
    for (seed, period) in fault_specs() {
        for (backend, compression) in cells() {
            let ctx = format!(
                "group-by seed={seed} period={period} backend={backend} \
                 compression={compression:?}"
            );
            let base = case_dir("group");
            let plan = FaultPlan::seeded_kinds(seed, period, WRITE_SIDE);
            let io = make_io(backend).with_faults(plan.clone());
            let mut gb: StreamGroupBy<u32, SumAgg> =
                StreamGroupBy::with_config_and_io(SumAgg, cfg(&base, compression), io);
            let mut push_err = None;
            for chunk in input.chunks(CHUNK) {
                if let Err(e) = gb.push(chunk) {
                    push_err = Some(e);
                    break;
                }
            }
            let result = match push_err {
                Some(e) => {
                    drop(gb);
                    Err(e)
                }
                None => gb.finish_vec(),
            };
            match result {
                Ok(got) => assert_eq!(got, want, "recovered group-by must agree [{ctx}]"),
                Err(e) => assert_attributable(&e, &ctx),
            }
            assert_empty_and_remove(&base, &ctx);
            injected_total += plan.injected();
        }
    }
    assert!(injected_total > 0, "the group-by sweep must inject faults");
}

/// Single targeted transient faults must be *fully absorbed*: the retry
/// layer re-runs the failed operation, the output is byte-identical, and
/// the write-side retries are visible in [`stream::StreamStats`].
#[test]
fn single_transient_faults_are_recovered_exactly_with_visible_retries() {
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, N, 0xC4A0_7000);
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    let targets = [
        ("create", FaultKind::CreateTransient, 1),
        ("write", FaultKind::WriteTransient, 5),
        ("fsync", FaultKind::FsyncTransient, 2),
        ("read", FaultKind::ReadTransient, 3),
    ];
    for (backend, compression) in cells() {
        for (name, kind, n) in targets {
            let ctx = format!("targeted {name} backend={backend} compression={compression:?}");
            let base = case_dir("nth");
            let plan = FaultPlan::nth(kind, n);
            let io = make_io(backend).with_faults(plan.clone());
            let mut sorter: StreamSorter<u32, u32> =
                StreamSorter::with_config_and_io(cfg(&base, compression), io);
            for chunk in input.chunks(CHUNK) {
                sorter.push(chunk).unwrap_or_else(|e| {
                    panic!("single transient fault must be absorbed [{ctx}]: {e}")
                });
            }
            sorter
                .flush_spills()
                .unwrap_or_else(|e| panic!("flush must absorb the fault [{ctx}]: {e}"));
            let write_side = !matches!(kind, FaultKind::ReadTransient);
            if write_side {
                assert!(
                    plan.injected() == 1,
                    "the targeted fault must have fired by flush time [{ctx}]"
                );
                assert!(
                    sorter.stats().spill_retries >= 1,
                    "write-side recovery must be visible in stats [{ctx}]"
                );
            }
            let got = sorter
                .finish_vec()
                .unwrap_or_else(|e| panic!("recovery must complete the sort [{ctx}]: {e}"));
            assert_eq!(got, want, "recovered output must be byte-identical [{ctx}]");
            assert_eq!(
                plan.injected(),
                1,
                "exactly the targeted fault fires [{ctx}]"
            );
            assert_empty_and_remove(&base, &ctx);
        }
    }
}

/// A torn write on the writer thread surfaces exactly one loud, typed
/// error, engages degradation probation (visible in the stats), rewrites
/// the reclaimed run synchronously — and loses not a single record.
#[test]
fn torn_write_degrades_recovers_and_reports_probation() {
    let input = generate_pairs_u32(
        &Distribution::Uniform { distinct: 1 << 20 },
        2 * N,
        0xC4A0_8000,
    );
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    for backend in ["blocking", "batched"] {
        let ctx = format!("torn-write backend={backend}");
        let base = case_dir("torn");
        let plan = FaultPlan::nth(FaultKind::TornWrite, 4);
        let io = make_io(backend).with_faults(plan.clone());
        let mut sorter: StreamSorter<u32, u32> =
            StreamSorter::with_config_and_io(cfg(&base, SpillCompression::Off), io);
        // The broken pipeline reports its error on exactly one push (or
        // the flush); afterwards the engine carries on synchronously.
        let mut errors = 0usize;
        for chunk in input.chunks(CHUNK) {
            if let Err(e) = sorter.push(chunk) {
                assert_attributable(&e, &ctx);
                errors += 1;
            }
        }
        if let Err(e) = sorter.flush_spills() {
            assert_attributable(&e, &ctx);
            errors += 1;
        }
        assert_eq!(plan.injected(), 1, "the torn write must have fired [{ctx}]");
        assert_eq!(errors, 1, "exactly one loud error [{ctx}]");
        assert!(
            sorter.stats().degraded_syncs >= 1,
            "probation must be visible in stats [{ctx}]: {:?}",
            sorter.stats()
        );
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got, want, "no record may be lost to the torn write [{ctx}]");
        assert_empty_and_remove(&base, &ctx);
    }
}

/// Records of the drain-aimed mid-merge case, and its budget: about six
/// runs of 160k `(u32, u32)` records, 20 compressed blocks each.  The
/// merge's feeds decode at most about half of its 8 MiB read buffer ahead
/// of the loser tree, so most of the 16 MB of decoded records is read
/// after `finish()` returns.
const DRAIN_N: usize = 1_000_000;
const DRAIN_BUDGET: usize = 4 << 20;

/// Mid-merge read faults on the *streaming* iterator keep the documented
/// contract: loud (an error from `finish`, or a panic naming the
/// injection mid-drain) — never silent truncation — and the spill
/// directory is empty after unwinding.  The small cases fault reads while
/// `finish()` primes the cursors; one case per backend aims at a read of
/// the streaming drain itself.
#[test]
fn mid_merge_read_faults_are_loud_and_clean_up() {
    let small = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, N, 0xC4A0_9000);
    let large = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, DRAIN_N, 0xC4A0_9001);
    // Runs a sort of `input` under `budget` with `plan` on `backend`;
    // returns the drain's outcome and the read operations the plan had
    // decided on when `finish()` returned.
    let run =
        |backend: &str, input: &[(u32, u32)], budget: usize, plan: &FaultPlan, base: &Path| {
            let io = make_io(backend).with_faults(plan.clone());
            let cfg = dtsort::StreamConfig {
                memory_budget_bytes: budget,
                ..cfg(base, SpillCompression::DeltaLz)
            };
            let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config_and_io(cfg, io);
            for chunk in input.chunks(CHUNK) {
                sorter.push(chunk).unwrap();
            }
            let primed = std::cell::Cell::new(None);
            let outcome = catch_unwind(AssertUnwindSafe(|| -> io::Result<Vec<(u32, u32)>> {
                let stream = sorter.finish()?;
                primed.set(Some(plan.operations(FaultKind::ReadTransient)));
                Ok(stream.collect())
            }));
            (outcome, primed.get())
        };
    for backend in ["blocking", "batched"] {
        // `None` is the drain-aimed case: its index is counted on a clean
        // pass, halfway between the reads made by the time `finish()`
        // returns and the reads of the whole merge.
        for n in [Some(0u64), Some(7), Some(31), None] {
            let drain_case = n.is_none();
            let (input, budget) = if drain_case {
                (&large, DRAIN_BUDGET)
            } else {
                (&small, 16 << 10)
            };
            let mut want = input.clone();
            want.sort_by_key(|r| r.0);
            let n = n.unwrap_or_else(|| {
                let ctx = format!("mid-merge-read clean pass backend={backend}");
                let base = case_dir("midread");
                let counter = FaultPlan::nth(FaultKind::ReadTransient, u64::MAX);
                let (outcome, primed) = run(backend, input, budget, &counter, &base);
                let got = outcome.expect("clean pass").expect("clean pass");
                assert_eq!(got, want, "clean pass [{ctx}]");
                assert_empty_and_remove(&base, &ctx);
                let primed = primed.expect("finish returned");
                let total = counter.operations(FaultKind::ReadTransient);
                assert!(
                    total > 2 * primed,
                    "most reads must come after finish() [{ctx}]: {primed} of {total}"
                );
                primed + (total - primed) / 2
            });
            let ctx = format!("mid-merge-read backend={backend} nth={n}");
            let base = case_dir("midread");
            let plan = FaultPlan::nth(FaultKind::ReadTransient, n);
            let (outcome, primed) = run(backend, input, budget, &plan, &base);
            if drain_case {
                assert_eq!(
                    plan.injected_of(FaultKind::ReadTransient),
                    1,
                    "the drain read fault must fire [{ctx}]"
                );
                assert!(
                    primed.is_some_and(|p| p <= n),
                    "the fault fired before the drain [{ctx}]"
                );
            }
            match outcome {
                // The fault landed on a retried path (cursor open, or a
                // mid-run reopen) or never fired: the drain must then be
                // exact.
                Ok(Ok(got)) => assert_eq!(got, want, "absorbed read fault changed bytes [{ctx}]"),
                Ok(Err(e)) => assert_attributable(&e, &ctx),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    assert!(
                        msg.contains("injected") || msg.contains("I/O error reading spilled run"),
                        "unattributable mid-merge panic [{ctx}]: {msg}"
                    );
                }
            }
            assert_empty_and_remove(&base, &ctx);
        }
    }
}

/// The engine under the lifecycle model: either streaming engine behind
/// one `(u32, u32)` push surface and one `(key, u64)` output.
enum ModelEngine {
    Sort(StreamSorter<u32, u32>),
    Group(StreamGroupBy<u32, SumAgg>),
}

impl ModelEngine {
    fn push(&mut self, records: &[(u32, u32)]) -> io::Result<()> {
        match self {
            ModelEngine::Sort(s) => s.push(records),
            ModelEngine::Group(g) => {
                let lifted: Vec<(u32, u64)> =
                    records.iter().map(|&(k, v)| (k, u64::from(v))).collect();
                g.push(&lifted)
            }
        }
    }

    fn push_record(&mut self, key: u32, value: u32) -> io::Result<()> {
        match self {
            ModelEngine::Sort(s) => s.push_record(key, value),
            ModelEngine::Group(g) => g.push_record(key, u64::from(value)),
        }
    }

    fn shrink_to_budget(&mut self) -> io::Result<()> {
        match self {
            ModelEngine::Sort(s) => s.shrink_to_budget(),
            ModelEngine::Group(g) => g.shrink_to_budget(),
        }
    }

    fn flush_spills(&mut self) -> io::Result<()> {
        match self {
            ModelEngine::Sort(s) => s.flush_spills(),
            ModelEngine::Group(g) => g.flush_spills(),
        }
    }

    /// `(records_pushed, degraded_syncs)`.
    fn counters(&self) -> (u64, u64) {
        match self {
            ModelEngine::Sort(s) => (s.stats().records_pushed, s.stats().degraded_syncs),
            ModelEngine::Group(g) => (g.stats().records_pushed, g.stats().degraded_syncs),
        }
    }

    fn finish(self) -> io::Result<Vec<(u32, u64)>> {
        match self {
            ModelEngine::Sort(s) => Ok(s
                .finish_vec()?
                .into_iter()
                .map(|(k, v)| (k, u64::from(v)))
                .collect()),
            ModelEngine::Group(g) => g.finish_vec(),
        }
    }

    /// The reference output for everything pushed: the stable sort, or
    /// the per-key sums in key order.
    fn reference(&self, pushed: &[(u32, u32)]) -> Vec<(u32, u64)> {
        match self {
            ModelEngine::Sort(_) => {
                let mut want: Vec<(u32, u64)> =
                    pushed.iter().map(|&(k, v)| (k, u64::from(v))).collect();
                want.sort_by_key(|r| r.0);
                want
            }
            ModelEngine::Group(_) => {
                let mut sums = std::collections::BTreeMap::new();
                for &(k, v) in pushed {
                    *sums.entry(k).or_insert(0u64) += u64::from(v);
                }
                sums.into_iter().collect()
            }
        }
    }
}

/// Model-based test of the shared spill lifecycle: a seeded random
/// sequence of slice pushes, single-record pushes, grant shrinks through a
/// live [`dtsort::BudgetHandle`] and flushes, under one single-shot
/// write-side fault, against both engines on both backends.  After every
/// step the engine must agree with the model: every record handed over
/// is counted (even on a failed step), and probation never serves more
/// degraded synchronous spills than the
/// injected faults can explain.  The finish is exact, or typed and clean.
#[test]
fn spill_lifecycle_matches_a_reference_model_under_single_faults() {
    const WRITE_SIDE: &[FaultKind] = &[
        FaultKind::CreateTransient,
        FaultKind::OpenTransient,
        FaultKind::WriteEnospc,
        FaultKind::WriteTransient,
        FaultKind::TornWrite,
        FaultKind::FsyncTransient,
    ];
    const GRANT: usize = 16 << 10;
    let mut injected_total = 0u64;
    let mut step_errors = 0usize;
    for group in [false, true] {
        for backend in ["blocking", "batched"] {
            for (ki, &kind) in WRITE_SIDE.iter().enumerate() {
                // Bit 4 is the writer-thread path's bit, kept so each case
                // keeps its seed.
                let seed = (ki as u64) << 8 | 1 << 4 | u64::from(group);
                let rng = parlay::random::Rng::new(0xC4A0_A000 ^ seed);
                let mut draws = 0u64;
                let mut draw = |n: u64| {
                    draws += 1;
                    rng.ith_in(draws, n)
                };
                let ctx = format!("model group={group} backend={backend} kind={kind:?}");
                let base = case_dir("model");
                let plan = FaultPlan::nth(kind, draw(6));
                let io = make_io(backend).with_faults(plan.clone());
                let handle = dtsort::BudgetHandle::new(GRANT);
                let cfg = dtsort::StreamConfig {
                    spill_dir: Some(base.clone()),
                    ..dtsort::StreamConfig::with_budget_handle(handle.clone())
                };
                let probation = u64::from(stream::PROBATION_SPILLS);
                let mut engine = if group {
                    ModelEngine::Group(StreamGroupBy::with_config_and_io(SumAgg, cfg, io))
                } else {
                    ModelEngine::Sort(StreamSorter::with_config_and_io(cfg, io))
                };
                let mut pushed: Vec<(u32, u32)> = Vec::new();
                for step in 0..60 {
                    let outcome = match draw(10) {
                        0..=4 => {
                            let from = pushed.len();
                            for _ in 0..1 + draw(700) {
                                pushed.push((draw(300) as u32, pushed.len() as u32));
                            }
                            engine.push(&pushed[from..])
                        }
                        5 | 6 => {
                            let mut result = Ok(());
                            for _ in 0..1 + draw(40) {
                                let (k, v) = (draw(300) as u32, pushed.len() as u32);
                                pushed.push((k, v));
                                result = result.and(engine.push_record(k, v));
                            }
                            result
                        }
                        7 => {
                            // Reclaim a third of the grant, or hand the
                            // full grant back.
                            let grant = if draw(2) == 0 {
                                (handle.get() * 2 / 3).max(4 << 10)
                            } else {
                                GRANT
                            };
                            handle.set(grant);
                            engine.shrink_to_budget()
                        }
                        _ => engine.flush_spills(),
                    };
                    if let Err(e) = outcome {
                        assert_attributable(&e, &format!("{ctx} step={step}"));
                        step_errors += 1;
                    }
                    let (records_pushed, degraded_syncs) = engine.counters();
                    assert_eq!(
                        records_pushed,
                        pushed.len() as u64,
                        "every handed-over record is counted [{ctx} step={step}]"
                    );
                    assert!(
                        degraded_syncs <= probation * plan.injected(),
                        "{degraded_syncs} degraded syncs from {} faults [{ctx} step={step}]",
                        plan.injected()
                    );
                }
                let want = engine.reference(&pushed);
                match engine.finish() {
                    Ok(got) => assert_eq!(got, want, "finish must match the model [{ctx}]"),
                    Err(e) => assert_attributable(&e, &ctx),
                }
                assert_empty_and_remove(&base, &ctx);
                injected_total += plan.injected();
            }
        }
    }
    assert!(
        injected_total > 0,
        "the model sweep must inject faults (step errors: {step_errors})"
    );
}
