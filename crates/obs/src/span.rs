//! Lightweight spans: named wall-clock intervals recorded into per-thread
//! ring buffers.
//!
//! A [`SpanGuard`] reads the monotonic clock twice (start/drop) and pushes
//! one [`SpanEvent`] into its thread's ring — no global synchronization on
//! the recording path except the thread's own ring mutex, which only
//! [`drain_spans`] ever contends.  Rings are bounded ([`RING_CAP`] events,
//! drop-oldest) so a long-running process with tracing left on cannot
//! grow without bound; each ring counts what it dropped.
//!
//! Rings are registered in a global list as `Arc`s, so spans recorded by
//! short-lived threads (the spill writer, the spill I/O pool workers that
//! run the merge read-ahead) survive the thread's exit and still show up
//! in [`drain_spans`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity, in events.  At 56 bytes per event this is
/// under 1 MiB per thread — bounded, like every other buffer in the
/// workspace.
const RING_CAP: usize = 1 << 14;

/// One completed span: a named `[start_ns, end_ns]` wall-clock interval on
/// thread `tid`, with an optional integer argument (e.g. `("run", 3)`).
/// Timestamps are nanoseconds since the process-wide epoch ([`now_ns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    pub arg: Option<(&'static str, u64)>,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanEvent {
    /// Whether the two spans' wall-clock intervals overlap (share more
    /// than an endpoint).  The overlap tests use this to prove the spill
    /// pipeline really ran sort, write, and prefetch concurrently.
    pub fn overlaps(&self, other: &SpanEvent) -> bool {
        self.start_ns < other.end_ns && other.start_ns < self.end_ns
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: Vec<SpanEvent>,
    /// Next write position once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < RING_CAP {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % RING_CAP;
            self.dropped += 1;
        }
    }
}

/// All rings ever created, including those of threads that have exited.
fn all_rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static THREAD_RING: (u64, Arc<Mutex<Ring>>) = {
        let ring = Arc::new(Mutex::new(Ring::default()));
        all_rings()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        (next_tid(), ring)
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide span epoch (first clock use).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard for one span: created by [`crate::span!`], records a
/// [`SpanEvent`] into the current thread's ring when dropped.  Inert (no
/// clock read, no ring touch) when [`crate::enabled`] is false at start.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    #[inline]
    pub fn start(name: &'static str, arg: Option<(&'static str, u64)>) -> Self {
        let active = crate::enabled();
        Self {
            name,
            arg,
            start_ns: if active { now_ns() } else { 0 },
            active,
        }
    }

    /// Whether this guard will record on drop.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ev = SpanEvent {
            name: self.name,
            arg: self.arg,
            tid: 0,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        // A thread-local access during TLS destruction would panic; spans
        // closing that late are dropped instead.
        let _ = THREAD_RING.try_with(|(tid, ring)| {
            let ev = SpanEvent { tid: *tid, ..ev };
            ring.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
        });
    }
}

/// Collects and clears every thread's recorded spans (including threads
/// that have exited), sorted by start time.  Returns the events and the
/// total number of events lost to ring overflow since the last drain.
pub fn drain_spans() -> (Vec<SpanEvent>, u64) {
    let rings = all_rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in rings.iter() {
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        // Emit in record order: the oldest surviving event is at `head`.
        let head = ring.head;
        events.extend_from_slice(&ring.events[head..]);
        events.extend_from_slice(&ring.events[..head]);
        dropped += ring.dropped;
        ring.events.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
    drop(rings);
    events.sort_by_key(|e| (e.start_ns, e.tid));
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn spans_record_on_drop_and_drain() {
        let _g = test_lock::lock();
        let was = crate::enabled();
        crate::enable();
        let _ = drain_spans(); // discard leftovers from other tests
        {
            let _a = crate::span!("outer", run = 7);
            let _b = crate::span!("inner");
        }
        let (events, dropped) = drain_spans();
        assert_eq!(dropped, 0);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"outer"), "{names:?}");
        assert!(names.contains(&"inner"), "{names:?}");
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(outer.arg, Some(("run", 7)));
        assert!(outer.end_ns >= outer.start_ns);
        // Drained means gone.
        assert!(drain_spans().0.is_empty());
        if !was {
            crate::disable();
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = test_lock::lock();
        let was = crate::enabled();
        crate::disable();
        let _ = drain_spans();
        {
            let g = crate::span!("ghost");
            assert!(!g.is_active());
        }
        assert!(drain_spans().0.is_empty());
        if was {
            crate::enable();
        }
    }

    #[test]
    fn spans_from_exited_threads_survive() {
        let _g = test_lock::lock();
        let was = crate::enabled();
        crate::enable();
        let _ = drain_spans();
        std::thread::spawn(|| {
            let _s = crate::span!("short_lived", run = 1);
        })
        .join()
        .unwrap();
        let (events, _) = drain_spans();
        assert!(
            events.iter().any(|e| e.name == "short_lived"),
            "spans of dead threads must still drain: {events:?}"
        );
        if !was {
            crate::disable();
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = test_lock::lock();
        let was = crate::enabled();
        crate::enable();
        let _ = drain_spans();
        std::thread::spawn(|| {
            for _ in 0..RING_CAP + 10 {
                let _s = crate::span!("burst");
            }
        })
        .join()
        .unwrap();
        let (events, dropped) = drain_spans();
        let burst = events.iter().filter(|e| e.name == "burst").count();
        assert_eq!(burst, RING_CAP);
        assert_eq!(dropped, 10);
        if !was {
            crate::disable();
        }
    }

    #[test]
    fn overlap_predicate() {
        let mk = |s, e| SpanEvent {
            name: "x",
            arg: None,
            tid: 0,
            start_ns: s,
            end_ns: e,
        };
        assert!(mk(0, 10).overlaps(&mk(5, 15)));
        assert!(mk(5, 15).overlaps(&mk(0, 10)));
        assert!(!mk(0, 10).overlaps(&mk(10, 20)), "touching is not overlap");
        assert!(!mk(0, 10).overlaps(&mk(20, 30)));
    }
}
