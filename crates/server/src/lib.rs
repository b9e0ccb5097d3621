//! # server — multi-session sort service over the streaming engines
//!
//! DTSort (PPoPP 2024) is framed as the sort primitive underneath larger
//! data systems; this crate is that system's front end.  A [`SortServer`]
//! hosts many concurrent **sessions** — one [`Session`] type over any
//! [`SessionEngine`]: [`stream::StreamSorter`], [`stream::StreamGroupBy`],
//! or the string-keyed sorter — all multiplexed over the process-wide
//! work-stealing pool.  Every session routes its engine's failures through
//! one quarantine ([`SessionError`]) and charges its spills to one disk
//! quota.  Two shared resource managers arbitrate what the
//! single-caller library used to assume it owned outright:
//!
//! * [`MemoryGovernor`] — one byte ceiling across all sessions.
//!   Admission control (queue or reject past the ceiling), proportional
//!   grants with a per-session floor, and **live reclaim**: admitting a
//!   new session shrinks existing grants through their
//!   [`dtsort::BudgetHandle`]s, and the engines react by spilling early
//!   rather than erroring.  Per-tenant fairness counters record who got
//!   what.
//! * [`SpillDirManager`] — one spill root with a global byte quota,
//!   per-session subdirectories (no two sessions can trample each other's
//!   run files), and orphan cleanup on startup.
//!
//! Observability rides on the `obs` crate: `server.sessions_active`,
//! `governor.bytes_granted`, `governor.reclaims`, and admission-wait /
//! session-latency histograms (see [`crate::metrics`'s name table in the
//! source](crate)).  Everything is off unless `obs` is enabled.

mod governor;
mod metrics;
mod session;
mod spillmgr;

pub use governor::{AdmissionPolicy, BudgetLease, GovernorConfig, MemoryGovernor, TenantCounters};
pub use session::{ServerConfig, Session, SessionEngine, SessionError, SessionStream, SortServer};
pub use spillmgr::{SpillDirLease, SpillDirManager, SpillManagerConfig};
