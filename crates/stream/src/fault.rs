//! Deterministic, seeded fault injection for the spill I/O stack.
//!
//! A [`FaultPlan`] is a reproducible schedule of I/O faults keyed by
//! per-operation counters — never by wall clock — so the same plan over
//! the same workload injects the same faults at the same points on every
//! run, on every machine.  [`FaultIo`] is a decorator over any
//! [`SpillIo`] backend ([`crate::spillio::SpillIoHandle::with_faults`])
//! that consults the plan on each create/open/write/read/fsync and either
//! passes the operation through or injects one of:
//!
//! * `ENOSPC` ([`io::ErrorKind::StorageFull`]) on write — the permanent
//!   full-disk error,
//! * transient errors ([`io::ErrorKind::Interrupted`] at create/open,
//!   [`io::ErrorKind::TimedOut`] mid-write/read/fsync — `Interrupted` is
//!   reserved for open-time faults because `Write::write_all` silently
//!   retries it, which would make a mid-write injection unobservable),
//! * torn writes (a prefix lands, then [`io::ErrorKind::WriteZero`]),
//! * fsync failures at [`SpillWrite::finish`],
//! * read errors mid-stream,
//! * single-byte block corruption on read ([`FaultKind::CorruptByte`],
//!   off by default: only the checksummed `DeltaLz` spill format can
//!   *detect* it, so injecting it under the flat format would turn a
//!   chaos test into silent wrong output),
//! * a spill-write panic ([`FaultKind::WritePanic`], off by default:
//!   meant for targeted worker/writer-thread crash tests, not blanket
//!   schedules).
//!
//! Because the decorator wraps a *handle* and not the backend, fault
//! scope is per handle: a server can give one session a faulted view of
//! the shared backend and job pool while every other session keeps the
//! clean view — which is exactly how the cross-session quarantine tests
//! prove one tenant's disk trouble cannot leak into another's bytes.
//!
//! CI selects a plan for whole test binaries through the
//! `PISORT_FAULT_PLAN` environment variable (`"<seed>"` or
//! `"<seed>:<period>"`, see [`FaultPlan::from_env`]); chaos tests read it
//! themselves and decorate their engines explicitly — constructing a
//! handle via `from_config` never injects anything.

use crate::spillio::{sealed_io, SpillIo, SpillRead, SpillWrite};
use dtsort::SpillIoMode;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable fault site.  The discriminant indexes the plan's
/// per-kind operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `create` fails with [`io::ErrorKind::Interrupted`].
    CreateTransient = 0,
    /// `open` fails with [`io::ErrorKind::Interrupted`].
    OpenTransient = 1,
    /// A write fails with [`io::ErrorKind::StorageFull`] (ENOSPC).
    WriteEnospc = 2,
    /// A write fails with [`io::ErrorKind::TimedOut`].
    WriteTransient = 3,
    /// Half the buffer lands, then [`io::ErrorKind::WriteZero`].
    TornWrite = 4,
    /// The writer's `finish` (fsync) fails with
    /// [`io::ErrorKind::TimedOut`] after the data (possibly) landed —
    /// the classic untrusted-fsync state; recovery must rewrite the run
    /// from scratch.
    FsyncTransient = 5,
    /// A read fails with [`io::ErrorKind::TimedOut`].
    ReadTransient = 6,
    /// One deterministic byte of a read block is flipped.  **Not** in
    /// [`FaultPlan::seeded`]'s default mix: only checksummed spill
    /// formats can detect it.
    CorruptByte = 7,
    /// The write panics (caught by the spill write, on whichever thread
    /// it runs, and by the batched pool worker).  **Not** in the default
    /// mix: panics are meant for targeted crash tests.
    WritePanic = 8,
}

const NUM_KINDS: usize = 9;

/// The fault kinds [`FaultPlan::seeded`] enables: every error-returning
/// site, transient and permanent, excluding byte corruption (format
/// dependent) and panics (schedule dependent) — see [`FaultKind`].
pub const DEFAULT_FAULT_KINDS: &[FaultKind] = &[
    FaultKind::CreateTransient,
    FaultKind::OpenTransient,
    FaultKind::WriteEnospc,
    FaultKind::WriteTransient,
    FaultKind::TornWrite,
    FaultKind::FsyncTransient,
    FaultKind::ReadTransient,
];

/// Default 1-in-`period` injection rate for [`FaultPlan::from_env`] specs
/// that give only a seed.
pub const DEFAULT_FAULT_PERIOD: u64 = 53;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct PlanInner {
    seed: u64,
    /// Roughly 1 in `period` eligible operations faults.
    period: u64,
    /// Bit per [`FaultKind`] discriminant.
    mask: u32,
    /// Targeted mode: fault exactly the `n`-th operation of one kind.
    target: Option<(FaultKind, u64)>,
    /// Per-kind operation counters — the deterministic clock.
    counters: [AtomicU64; NUM_KINDS],
    /// Per-kind injected faults.
    injected: [AtomicU64; NUM_KINDS],
}

/// A deterministic, shareable fault schedule.  Clones share the same
/// counters, so every decorator built from one plan consumes the same
/// deterministic sequence.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("period", &self.inner.period)
            .field("target", &self.inner.target)
            .field("injected", &self.injected())
            .finish()
    }
}

impl FaultPlan {
    fn build(seed: u64, period: u64, mask: u32, target: Option<(FaultKind, u64)>) -> Self {
        Self {
            inner: Arc::new(PlanInner {
                seed,
                period: period.max(1),
                mask,
                target,
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                injected: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// A seeded schedule injecting the [`DEFAULT_FAULT_KINDS`] mix at
    /// roughly 1 in `period` eligible operations.
    pub fn seeded(seed: u64, period: u64) -> Self {
        Self::seeded_kinds(seed, period, DEFAULT_FAULT_KINDS)
    }

    /// A seeded schedule restricted to `kinds` (e.g. adding
    /// [`FaultKind::CorruptByte`] for a checksummed-format cell).
    pub fn seeded_kinds(seed: u64, period: u64, kinds: &[FaultKind]) -> Self {
        let mask = kinds.iter().fold(0u32, |m, &k| m | (1 << k as u32));
        Self::build(seed, period, mask, None)
    }

    /// A targeted schedule: fault exactly the `n`-th (0-based) operation
    /// of `kind` and nothing else — the scalpel the cleanup and
    /// quarantine tests use to hit one specific write, fsync or read.
    pub fn nth(kind: FaultKind, n: u64) -> Self {
        Self::build(0, 1, 0, Some((kind, n)))
    }

    /// The plan `PISORT_FAULT_PLAN` selects: `"<seed>"` or
    /// `"<seed>:<period>"` (period defaults to
    /// [`DEFAULT_FAULT_PERIOD`]).  `None` when unset or unparsable.
    pub fn from_env() -> Option<Self> {
        Self::parse(&std::env::var("PISORT_FAULT_PLAN").ok()?)
    }

    /// Parses a `PISORT_FAULT_PLAN` spec; see [`FaultPlan::from_env`].
    pub fn parse(spec: &str) -> Option<Self> {
        let spec = spec.trim();
        let (seed, period) = match spec.split_once(':') {
            Some((s, p)) => (s.trim(), p.trim().parse().ok()?),
            None => (spec, DEFAULT_FAULT_PERIOD),
        };
        Some(Self::seeded(seed.parse().ok()?, period))
    }

    /// Faults injected so far, across every decorator sharing this plan.
    pub fn injected(&self) -> u64 {
        self.inner
            .injected
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum()
    }

    /// Faults of `kind` injected so far, across every decorator sharing
    /// this plan: how a test checks that a schedule reached a given site
    /// (the read side, say) and not only some other.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.inner.injected[kind as usize].load(Ordering::Relaxed)
    }

    /// Operations of `kind` the plan has decided on so far, faulted or
    /// not: what a targeted test counts on a clean pass to aim
    /// [`FaultPlan::nth`] at a point of the same workload.
    pub fn operations(&self, kind: FaultKind) -> u64 {
        self.inner.counters[kind as usize].load(Ordering::Relaxed)
    }

    /// Advances `kind`'s operation counter and decides whether this
    /// operation faults.  Deterministic: the decision is a pure function
    /// of (seed, kind, counter value).
    fn decide(&self, kind: FaultKind) -> bool {
        let p = &*self.inner;
        let count = p.counters[kind as usize].fetch_add(1, Ordering::Relaxed);
        let hit = match p.target {
            Some((tk, n)) => tk == kind && count == n,
            None => {
                p.mask & (1 << kind as u32) != 0
                    && splitmix64(p.seed ^ ((kind as u64) << 56) ^ count).is_multiple_of(p.period)
            }
        };
        if hit {
            p.injected[kind as usize].fetch_add(1, Ordering::Relaxed);
            if obs::enabled() {
                crate::metrics::m().fault_injected.incr();
            }
        }
        hit
    }
}

/// The fault-injecting decorator over an inner [`SpillIo`] backend.
/// Built by [`crate::spillio::SpillIoHandle::with_faults`]; shares the
/// inner backend (buffers, fuses) and the handle's job pool, and only
/// filters the data paths.
pub(crate) struct FaultIo {
    inner: Arc<dyn SpillIo>,
    plan: FaultPlan,
}

impl FaultIo {
    pub(crate) fn new(inner: Arc<dyn SpillIo>, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }
}

impl sealed_io::Sealed for FaultIo {}

impl SpillIo for FaultIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        if self.plan.decide(FaultKind::CreateTransient) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient create failure",
            ));
        }
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultWrite {
            inner,
            plan: self.plan.clone(),
        }))
    }

    fn open(&self, path: &Path, buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)> {
        if self.plan.decide(FaultKind::OpenTransient) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient open failure",
            ));
        }
        let (inner, len) = self.inner.open(path, buffer_bytes)?;
        Ok((
            Box::new(FaultRead {
                inner,
                plan: self.plan.clone(),
            }),
            len,
        ))
    }

    fn mode(&self) -> SpillIoMode {
        self.inner.mode()
    }

    fn set_write_fuse(&self, bytes: u64) {
        self.inner.set_write_fuse(bytes);
    }

    fn set_write_fuse_panics(&self, on: bool) {
        self.inner.set_write_fuse_panics(on);
    }
}

struct FaultWrite {
    inner: Box<dyn SpillWrite>,
    plan: FaultPlan,
}

impl Write for FaultWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if self.plan.decide(FaultKind::WritePanic) {
            panic!("injected spill-write panic");
        }
        if self.plan.decide(FaultKind::WriteEnospc) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        if self.plan.decide(FaultKind::WriteTransient) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected transient write failure",
            ));
        }
        if self.plan.decide(FaultKind::TornWrite) {
            // Half the buffer lands — the torn state a crash mid-write
            // leaves behind — then the write reports failure.
            self.inner.write_all(&buf[..buf.len() / 2])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected torn write",
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl SpillWrite for FaultWrite {
    fn finish(self: Box<Self>) -> io::Result<()> {
        let this = *self;
        if this.plan.decide(FaultKind::FsyncTransient) {
            // The bytes may or may not be durable — exactly the fsync
            // ambiguity.  Complete the inner writer (so no worker is left
            // holding the file) but report failure; recovery rewrites the
            // whole run.
            let _ = this.inner.finish();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected fsync failure",
            ));
        }
        this.inner.finish()
    }
}

struct FaultRead {
    inner: Box<dyn SpillRead>,
    plan: FaultPlan,
}

impl Read for FaultRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.plan.decide(FaultKind::ReadTransient) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected transient read failure",
            ));
        }
        let n = self.inner.read(buf)?;
        if n > 0 && self.plan.decide(FaultKind::CorruptByte) {
            let count =
                self.plan.inner.counters[FaultKind::CorruptByte as usize].load(Ordering::Relaxed);
            let idx = (splitmix64(self.plan.inner.seed ^ count) % n as u64) as usize;
            buf[idx] ^= 0x40;
        }
        Ok(n)
    }
}

impl SpillRead for FaultRead {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spillio::SpillIoHandle;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 251) as u8).collect()
    }

    /// Runs the same write/read workload under `plan`, recording each
    /// operation's outcome, so two plans can be compared for determinism.
    fn run_workload(plan: &FaultPlan) -> Vec<String> {
        let io = SpillIoHandle::blocking().with_faults(plan.clone());
        let data = payload(10_000);
        let mut outcomes = Vec::new();
        for i in 0..40 {
            let path = tmp_path(&format!("det-{i}.bin"));
            let res = io
                .create(&path)
                .and_then(|mut w| {
                    for piece in data.chunks(997) {
                        w.write_all(piece)?;
                    }
                    w.finish()
                })
                .and_then(|()| {
                    let (mut r, _) = io.open(&path, 512)?;
                    let mut out = Vec::new();
                    r.read_to_end(&mut out)?;
                    Ok(())
                });
            outcomes.push(match res {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{:?}:{e}", e.kind()),
            });
            std::fs::remove_file(&path).ok();
        }
        outcomes
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::seeded(0xFA_17, 11);
        let b = FaultPlan::seeded(0xFA_17, 11);
        let oa = run_workload(&a);
        let ob = run_workload(&b);
        assert_eq!(oa, ob, "same seed must inject the same faults");
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "period 11 over this workload must fire");
        assert!(
            oa.iter().any(|o| o != "ok"),
            "some operation must have failed: {oa:?}"
        );
        // A different seed gives a different schedule (overwhelmingly).
        let c = FaultPlan::seeded(0xFA_18, 11);
        let oc = run_workload(&c);
        assert!(oa != oc || a.injected() != c.injected());
    }

    #[test]
    fn nth_targets_exactly_one_operation() {
        let plan = FaultPlan::nth(FaultKind::FsyncTransient, 2);
        let io = SpillIoHandle::blocking().with_faults(plan.clone());
        let data = payload(1000);
        let mut failures = Vec::new();
        for i in 0..6 {
            let path = tmp_path(&format!("nth-{i}.bin"));
            let res = io.create(&path).and_then(|mut w| {
                w.write_all(&data)?;
                w.finish()
            });
            if let Err(e) = res {
                failures.push((i, e.kind()));
            }
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(
            failures,
            vec![(2, io::ErrorKind::TimedOut)],
            "exactly the 3rd finish faults"
        );
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.injected_of(FaultKind::FsyncTransient), 1);
        assert_eq!(plan.injected_of(FaultKind::WriteTransient), 0);
        assert_eq!(plan.operations(FaultKind::FsyncTransient), 6);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let plan = FaultPlan::nth(FaultKind::CorruptByte, 0);
        let path = tmp_path("corrupt.bin");
        let clean = SpillIoHandle::blocking();
        let data = payload(4096);
        {
            let mut w = clean.create(&path).unwrap();
            w.write_all(&data).unwrap();
            w.finish().unwrap();
        }
        let io = clean.with_faults(plan.clone());
        let (mut r, _) = io.open(&path, 1024).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), data.len());
        let diffs = out.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte flipped");
        assert_eq!(plan.injected(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_spec_parses_seed_and_period() {
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("notanumber").is_none());
        assert!(FaultPlan::parse("7:x").is_none());
        let p = FaultPlan::parse("42").unwrap();
        assert_eq!(p.inner.seed, 42);
        assert_eq!(p.inner.period, DEFAULT_FAULT_PERIOD);
        let p = FaultPlan::parse(" 9:17 ").unwrap();
        assert_eq!(p.inner.seed, 9);
        assert_eq!(p.inner.period, 17);
    }

    #[test]
    fn decorator_delegates_backend_shape() {
        for clean in [SpillIoHandle::blocking(), SpillIoHandle::batched(3, 8)] {
            let io = clean.with_faults(FaultPlan::seeded(1, 1000));
            assert_eq!(io.mode(), clean.mode());
            assert!(
                io.pool().same_pool(clean.pool()),
                "pool shared through the decorator"
            );
        }
    }
}
