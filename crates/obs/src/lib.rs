//! # obs — zero-dependency tracing and metrics for the pisort workspace
//!
//! The paper's performance study (Section 6.3, the Theorem 4.6/4.7 checks)
//! is entirely about *observing what the algorithm did*.  This crate is the
//! shared substrate for that observation at runtime: every subsystem — the
//! streaming engines, the spill pipeline, the merge read-ahead, the
//! work-stealing pool — records into one process-wide [`MetricsRegistry`]
//! and one span timeline, and anything (tests, benches, a future sort
//! server) can snapshot or export them without touching the subsystems.
//!
//! The crate is deliberately **shim-style**: no dependencies, hand-rolled
//! JSON (the same style the `BENCH_*.json` writers use), and a disabled
//! path that costs a single relaxed atomic load and a predictable branch.
//!
//! ## The three pieces
//!
//! * **Metrics** ([`MetricsRegistry`]) — named counters, gauges and
//!   fixed-bucket power-of-two latency histograms.  Handles ([`Counter`],
//!   [`Gauge`], [`Histogram`]) are cheap `Arc` clones; *recording* is
//!   lock-free (relaxed atomics), only *registration* takes a lock.
//!   [`MetricsRegistry::snapshot`] returns a plain-value
//!   [`MetricsSnapshot`] that serializes to JSON.
//! * **Spans** ([`span!`], [`SpanGuard`]) — wall-clock intervals recorded
//!   into per-thread ring buffers on guard drop.  [`drain_spans`] collects
//!   them across all threads (including threads that have since exited).
//! * **Export** ([`chrome_trace_json`], [`timeline_json`],
//!   [`write_chrome_trace`]) — the collected spans as a
//!   `chrome://tracing` / Perfetto-compatible trace file, or as a flat
//!   per-run pipeline timeline.
//!
//! ## Enabling
//!
//! Everything is **off by default**.  The master switch is one cached
//! static, resolved in priority order:
//!
//! 1. [`scoped_enable`] — refcounted RAII scopes; recording is on while
//!    any [`EnableGuard`] is alive.  `dtsort::StreamConfig::trace` holds
//!    one per traced engine, so tracing reverts when the engine drops
//!    instead of staying on for every later tenant of the process.
//! 2. [`enable`] / [`disable`] — the programmatic baseline, winning over
//!    the environment (whichever was called last).
//! 3. `OBS_TRACE` environment variable — any value except `0` or the
//!    empty string enables at first use.
//!
//! When disabled, [`Counter::add`] and friends return without touching
//! the registry (see [`MetricsRegistry::touches`], which the overhead
//! guard test pins to zero) and [`span!`] returns an inert guard.
//!
//! ```
//! let was = obs::enabled();
//! obs::enable();
//! let reg = obs::MetricsRegistry::new();
//! let c = reg.counter("demo.events");
//! let h = reg.histogram("demo.latency_ns");
//! c.add(3);
//! h.record(1500);
//! {
//!     let _span = obs::span!("demo_phase", run = 1);
//!     // ... timed work ...
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.events"), 3);
//! assert!(snap.to_json().contains("\"demo.events\": 3"));
//! if !was {
//!     obs::disable();
//! }
//! ```

mod registry;
mod span;
mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{drain_spans, now_ns, SpanEvent, SpanGuard};
pub use trace::{chrome_trace_json, timeline_json, write_chrome_trace};

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

const STATE_UNINIT: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

/// The master switch: a *cache* of the resolved enable state, kept so the
/// disabled fast path stays one relaxed load.  `UNINIT` until the first
/// [`enabled`] call resolves it; every state mutation ([`enable`],
/// [`disable`], [`scoped_enable`] guard create/drop) recomputes it from
/// the inputs below.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Explicit process-wide override set by [`enable`] / [`disable`]
/// (`UNINIT` = neither has been called; the environment decides the
/// baseline).
static FORCED: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Live [`EnableGuard`]s.  While any guard is alive, recording is on
/// (unless nothing else — not even [`disable`] — turns it off; a scope
/// that asked for tracing always records).
static SCOPED: AtomicUsize = AtomicUsize::new(0);

/// Whether metrics recording and span capture are on.
///
/// This is **the** gate every hot path checks: one relaxed atomic load
/// plus a branch when the state is resolved, which it is after the first
/// call in the process.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => recompute(),
    }
}

/// The `OBS_TRACE` environment baseline, read once per process.
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("OBS_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Re-resolves the enable state into the [`STATE`] cache and returns it.
/// Resolution order: a live scoped guard enables; otherwise [`enable`] /
/// [`disable`] (whichever was called last) decides; otherwise the
/// `OBS_TRACE` environment variable.
///
/// Concurrent mutations race benignly: each mutator recomputes *after*
/// updating its input, so the cache converges to the final state — a
/// momentarily stale read can only mis-gate an individual sample, never
/// wedge the switch.
#[cold]
fn recompute() -> bool {
    let on = SCOPED.load(Ordering::Relaxed) > 0
        || match FORCED.load(Ordering::Relaxed) {
            STATE_ON => true,
            STATE_OFF => false,
            _ => env_enabled(),
        };
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Turns metrics recording and span capture on, process-wide, until
/// [`disable`] is called.
pub fn enable() {
    FORCED.store(STATE_ON, Ordering::Relaxed);
    recompute();
}

/// Turns the process-wide baseline off (overriding `OBS_TRACE` and any
/// earlier [`enable`]).  Scopes that asked for tracing still record:
/// recording stays on while any [`EnableGuard`] is alive.
pub fn disable() {
    FORCED.store(STATE_OFF, Ordering::Relaxed);
    recompute();
}

/// Turns recording on for the lifetime of the returned guard (refcounted:
/// recording stays on while *any* guard is alive and reverts to the
/// [`enable`]/[`disable`]/`OBS_TRACE` baseline when the last one drops).
///
/// This is how `dtsort::StreamConfig::trace` scopes tracing to one
/// engine's lifetime instead of flipping a sticky process-global: the
/// engine holds the guard, and a traced session followed by an untraced
/// one leaves the untraced one silent.
#[must_use = "recording reverts when the guard drops"]
pub fn scoped_enable() -> EnableGuard {
    SCOPED.fetch_add(1, Ordering::Relaxed);
    recompute();
    EnableGuard { _private: () }
}

/// RAII handle from [`scoped_enable`]: keeps recording on while alive.
#[derive(Debug)]
pub struct EnableGuard {
    _private: (),
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        SCOPED.fetch_sub(1, Ordering::Relaxed);
        recompute();
    }
}

/// The process-wide registry every instrumented subsystem records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Escapes a string for embedding in a JSON string literal (the same
/// minimal escaping the bench JSON writers use: metric and span names are
/// ASCII identifiers by convention).
pub(crate) fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Starts a [`SpanGuard`] recording a named wall-clock interval, with an
/// optional `key = value` integer argument (e.g. a run number):
///
/// ```
/// obs::enable();
/// {
///     let _g = obs::span!("spill_write", run = 3);
///     // ... the write ...
/// } // recorded here
/// let _ = obs::span!("flush"); // un-bound guard: records immediately
/// ```
///
/// When [`enabled`] is false the guard is inert: no clock read, no ring
/// touch.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::start($name, None)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::SpanGuard::start($name, Some((stringify!($key), $val as u64)))
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that flip the global [`super::STATE`] or rely on
    /// exact global-registry deltas.
    pub fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_flip_the_static() {
        let _g = test_lock::lock();
        let was = enabled();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
        if was {
            enable();
        }
    }

    #[test]
    fn scoped_enable_is_refcounted_and_reversible() {
        let _g = test_lock::lock();
        let was = enabled();
        // Baseline off: guards must turn recording on and fully revert.
        disable();
        assert!(!enabled());
        let a = scoped_enable();
        assert!(enabled(), "one live guard enables");
        let b = scoped_enable();
        drop(a);
        assert!(enabled(), "recording stays on while any guard lives");
        drop(b);
        assert!(!enabled(), "last guard drop reverts to the baseline");
        // A forced enable survives guard churn.
        enable();
        let c = scoped_enable();
        drop(c);
        assert!(enabled(), "guard drop must not undo an explicit enable()");
        if !was {
            disable();
        }
    }

    #[test]
    fn scoped_guard_wins_over_disabled_baseline() {
        let _g = test_lock::lock();
        let was = enabled();
        disable();
        let guard = scoped_enable();
        // A scope that asked for tracing records even though the baseline
        // is forced off: the scope's request is the more specific intent.
        assert!(enabled());
        drop(guard);
        assert!(!enabled());
        if was {
            enable();
        }
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const MetricsRegistry;
        let b = global() as *const MetricsRegistry;
        assert_eq!(a, b);
    }

    #[test]
    fn json_escape_handles_quotes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
