//! Tuning knobs of DovetailSort and its streaming wrapper.
//!
//! The paper fixes DovetailSort's parameters in Section 6 ("Parameter
//! Selection"), and so does this crate: a variable radix width
//! `γ = log2(∛n)` clamped to `[MIN_RADIX_BITS, MAX_RADIX_BITS] = [8, 12]`
//! (theory: `γ = Θ(√log r)`, Section 4), sampling of `2^γ · log n` keys
//! with a `log n` subsample stride, and the overflow-bucket key-range
//! optimization (Section 5), which is always on.  [`SortConfig`] keeps only
//! the knobs that a figure or a caller turns:
//!
//! | Field | Set by |
//! |---|---|
//! | `heavy_detection` | Fig. 4(a)(b) "Plain" ablation ([`SortConfig::plain`]) |
//! | `merge_strategy` | Fig. 4(c)(d) merge ablation (`fig4_merge_ablation`) |
//! | `base_case_threshold` | tests that reach recursion on small inputs (paper `θ = 2^14`; base cases are counting-sorted, a comparison sort only on the tiniest) |
//! | `seed` | sampling-seed sweeps in the tests (`tests/config_matrix.rs`) |

/// Strategy used by Step 4 (interleaving heavy and light buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// The paper's optimized dovetail merge across the ping-pong buffers:
    /// heavy-key positions are binary searched in the sorted light bucket and
    /// every record is copied directly to its final destination (Section 5,
    /// "minimizing data movement").  Default.
    Dovetail,
    /// The `PLMerge` baseline of Section 6.3: a standard parallel merge of
    /// the light bucket with the (already sorted) concatenation of heavy
    /// buckets.
    ParallelMerge,
    /// Skip the merge entirely.  The output is *not* correctly interleaved;
    /// this exists only to measure the cost of the merge step as in
    /// Fig. 4(c)(d) ("Others" bars).
    Skip,
}

/// Configuration of a DovetailSort run.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Base-case threshold `θ`: subproblems of at most this many records
    /// skip the distribution and are finished by the base case (paper
    /// default `2^14`).  The base case sorts by stable 8-bit counting passes
    /// over the subproblem's remaining key bits; a stable comparison sort
    /// finishes it instead only below a fixed cutover (fewer than 16 records
    /// per pass).
    pub base_case_threshold: usize,
    /// Enable sampling-based heavy-key detection (Step 1).  Disabling it
    /// yields the "Plain" MSD radix sort of the Fig. 4(a)(b) ablation.
    pub heavy_detection: bool,
    /// How Step 4 interleaves heavy and light buckets.
    pub merge_strategy: MergeStrategy,
    /// Seed of the deterministic splittable RNG used for sampling.
    pub seed: u64,
}

impl Default for SortConfig {
    fn default() -> Self {
        Self {
            base_case_threshold: 1 << 14,
            heavy_detection: true,
            merge_strategy: MergeStrategy::Dovetail,
            seed: 0x005E_EDD7_5027,
        }
    }
}

impl SortConfig {
    /// Configuration of the "Plain" ablation: identical MSD sort without
    /// heavy-key detection (Fig. 4(a)(b)).
    pub fn plain() -> Self {
        Self {
            heavy_detection: false,
            ..Self::default()
        }
    }
}

/// Lower clamp of the radix width `γ` (paper Section 6).
pub const MIN_RADIX_BITS: u32 = 8;

/// Upper clamp of the radix width `γ` (paper Section 6).
pub const MAX_RADIX_BITS: u32 = 12;

/// Radix width `γ` for a (sub)problem of `n` records with `bits` remaining
/// key bits.
///
/// Uses the paper's rule `γ = log2(∛n)` clamped to
/// `[MIN_RADIX_BITS, MAX_RADIX_BITS]`, never exceeding the number of
/// remaining bits, and at least 1.
pub fn radix_bits(n: usize, bits: u32) -> u32 {
    let log_n = usize::BITS - n.max(2).leading_zeros();
    (log_n / 3)
        .clamp(MIN_RADIX_BITS, MAX_RADIX_BITS)
        .min(bits)
        .max(1)
}

/// Number of sample keys for a subproblem of `n` records with radix width
/// `gamma`: `2^γ · ⌈log2 n⌉`, capped at `n/2` so that tiny subproblems are
/// not oversampled.
pub(crate) fn num_samples(n: usize, gamma: u32) -> usize {
    if n < 4 {
        return 0;
    }
    let log_n = (usize::BITS - n.leading_zeros()) as usize;
    ((1usize << gamma) * log_n).min(n / 2)
}

/// Subsample stride used by the heavy-key detector: every `⌈log2 n⌉`-th
/// sample (in sorted order) is a subsample; keys with at least two
/// subsamples are declared heavy (Section 2.5).
pub(crate) fn subsample_stride(n: usize) -> usize {
    ((usize::BITS - n.max(2).leading_zeros()) as usize).max(1)
}

/// On-disk encoding of spilled runs (the `stream` crate).
///
/// Runs are written once and read once, so
/// the codec trades CPU against disk bytes on exactly one round trip.  On
/// spill-bound workloads bytes written *is* the wall clock, which makes
/// even a modest ratio a direct speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillCompression {
    /// The flat reference format: `key (8B LE) | value bytes`, with a
    /// `u32 LE` length prefix for variable-length values.  This is the
    /// format every release so far has written, and it stays the
    /// byte-identical reference side of the compression differential
    /// tests.
    #[default]
    Off,
    /// Block format: records are grouped into independently decodable
    /// blocks; within each block the sorted `u64` keys are delta-encoded
    /// as LEB128 varints (monotone per run, so deltas are small) and the
    /// concatenated value bytes are LZ-compressed (hand-rolled LZ77
    /// codec, no dependencies), with a per-block store-raw fallback for
    /// incompressible payloads.
    DeltaLz,
}

/// Backend used for spill-file reads and writes (the `stream` crate's
/// `SpillIo` trait).
///
/// The default resolves from the `PISORT_SPILL_IO` environment variable
/// (`blocking` / `batched`, unset ⇒ `Blocking`) so CI can force a backend
/// across whole test binaries; an explicitly set field always wins over
/// the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillIoMode {
    /// One blocking `std::fs` call per read/write on the calling thread
    /// (buffered).  This is the code path every release so far has run,
    /// kept byte-for-byte as the reference side of the backend
    /// differential tests.
    Blocking,
    /// Positioned-I/O jobs over pooled, recycled buffers on the spill I/O
    /// pool's bounded submission/completion queue (the `stream` crate
    /// fixes its worker count and queue depth): writes are `write_all_at`
    /// chunk jobs fsynced on completion, reads are double-buffered
    /// `read_exact_at` jobs.  The merge read-ahead runs on the same pool
    /// under either backend.
    Batched,
}

impl SpillIoMode {
    /// The environment-resolved default: `PISORT_SPILL_IO=batched` forces
    /// [`SpillIoMode::Batched`] for configs that do not set the field
    /// explicitly (the CI backend-matrix hook); `blocking`, empty, or
    /// unset yields [`SpillIoMode::Blocking`].  Any *other* value is a
    /// typo (e.g. `bacthed`): it still resolves to `Blocking` so the
    /// process keeps running, but a warning is printed to stderr once —
    /// silently ignoring it would make a mistyped CI matrix leg pass
    /// while testing the wrong backend.
    pub fn env_default() -> Self {
        static FROM_ENV: std::sync::OnceLock<SpillIoMode> = std::sync::OnceLock::new();
        *FROM_ENV.get_or_init(|| {
            let var = std::env::var("PISORT_SPILL_IO").ok();
            let (mode, unknown) = Self::parse_env(var.as_deref());
            if let Some(bad) = unknown {
                eprintln!(
                    "warning: unknown PISORT_SPILL_IO value {bad:?} \
                     (expected \"blocking\" or \"batched\"); using blocking"
                );
            }
            mode
        })
    }

    /// Pure resolution rule behind [`SpillIoMode::env_default`]: returns
    /// the resolved mode plus the unrecognized value, if any (the caller
    /// decides how to warn).  Split out so the unknown-value path is unit
    /// testable despite the `OnceLock` cache above.
    pub fn parse_env(value: Option<&str>) -> (Self, Option<&str>) {
        match value {
            None => (SpillIoMode::Blocking, None),
            Some(v) if v.eq_ignore_ascii_case("batched") => (SpillIoMode::Batched, None),
            Some(v) if v.is_empty() || v.eq_ignore_ascii_case("blocking") => {
                (SpillIoMode::Blocking, None)
            }
            Some(v) => (SpillIoMode::Blocking, Some(v)),
        }
    }
}

impl Default for SpillIoMode {
    fn default() -> Self {
        Self::env_default()
    }
}

/// A shared, mutable view of a granted memory budget.
///
/// Budgets were per-call constants until the multi-session server made
/// them runtime resources: a memory governor admits a session with some
/// grant and may later *shrink* it while the session's engine is live
/// (reclaiming bytes for a new tenant).  The handle is the channel for
/// that: the granter keeps one clone and calls [`BudgetHandle::set`]; the
/// engine re-reads the grant on every push chunk via
/// [`StreamConfig::effective_budget_bytes`] and spills early instead of
/// erroring when the grant shrank under its buffered records.
///
/// Reads and writes are relaxed atomics — a shrink is advisory and takes
/// effect at the engine's next capacity check, never mid-chunk.
#[derive(Debug, Clone, Default)]
pub struct BudgetHandle(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl BudgetHandle {
    /// A new handle granting `bytes`.
    pub fn new(bytes: usize) -> Self {
        Self(std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(
            bytes,
        )))
    }

    /// The current grant in bytes.
    pub fn get(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Replaces the grant (both growth and reclaim).
    pub fn set(&self, bytes: usize) {
        self.0.store(bytes, std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether two handles share the same grant cell.
    pub fn same_handle(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Configuration of a bounded-memory streaming sort (the `stream` crate).
///
/// Lives beside [`SortConfig`] so every layer that tunes the in-memory sort
/// can tune its streaming wrapper the same way.  The streaming sorter
/// accumulates pushed records in a buffer sized from `memory_budget_bytes`,
/// sorts each full buffer into a *run* with DovetailSort (seeding heavy-key
/// detection with keys carried from earlier runs), spills runs to
/// `spill_dir`, and k-way merges all runs at the end.
///
/// Spill I/O is **pipelined**: each sorted run is handed to a dedicated
/// writer thread, so run `N + 1` is sorted while run `N` streams to disk.
/// On a host with more than one CPU the final merge also decodes each run
/// ahead of the loser tree on a small worker pool — the host decides that,
/// not a field.  Everything else about spilling is fixed by rule in the
/// `stream` crate rather than tuned here: how the budget splits into
/// shares, the transient-failure retry policy, the probation window after
/// a writer failure, the merge read buffer, and the spill I/O pool's size.
/// Tracing is turned on by the caller (`obs::scoped_enable()`), not by the
/// config.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total working-set budget in bytes.  The `stream` crate splits it
    /// into three equal shares: one buffers incoming records, one is the
    /// sort's ping-pong scratch plus its bucket-id cache, and one holds the
    /// sorted run in flight to the writer thread.
    ///
    /// Record sizes are *inline* struct sizes (`size_of::<(K, V)>()`).
    /// For variable-length values (`String`, `Vec<u8>`, `Box<[u8]>`) the
    /// heap payload is not part of that size, so the streaming sorter and
    /// the streaming group-by additionally track the buffered payload
    /// bytes and spill a run early once they reach one share — with
    /// in-flight runs counted against the budget exactly like buffered
    /// ones.
    pub memory_budget_bytes: usize,
    /// Optional live override of `memory_budget_bytes`: when set, every
    /// budget-derived quantity (the run capacity, the var-length payload
    /// threshold) reads the handle's *current* value instead of the
    /// constant, so a granter (e.g. the server's memory governor) can
    /// shrink or grow the budget while the engine runs.  Engines re-check
    /// capacity on every push chunk, so a shrink triggers an early spill
    /// rather than an error.
    pub budget: Option<BudgetHandle>,
    /// Directory for spilled runs; `None` uses the system temp directory.
    /// Each sorter creates (and removes on drop) a unique subdirectory.
    pub spill_dir: Option<std::path::PathBuf>,
    /// On-disk encoding of spilled runs: [`SpillCompression::Off`] (the
    /// default) writes the flat reference format, while
    /// [`SpillCompression::DeltaLz`] delta-encodes the sorted keys and
    /// LZ-compresses the value payloads in independently decodable
    /// blocks.  Both formats flow through the same writer thread and
    /// merge path; decoding is transparent to the merge.
    pub spill_compression: SpillCompression,
    /// Backend for the spill-file reads and writes themselves:
    /// [`SpillIoMode::Blocking`] (buffered `std::fs` calls on the calling
    /// thread — the byte-for-byte reference) or [`SpillIoMode::Batched`]
    /// (positioned-I/O jobs on the spill I/O pool).  It picks how the
    /// bytes move, not which thread calls into the backend.  Defaults from
    /// the `PISORT_SPILL_IO` environment variable
    /// ([`SpillIoMode::env_default`]).
    pub spill_io: SpillIoMode,
    /// Configuration of the per-run in-memory DovetailSort.
    pub sort: SortConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 << 20,
            budget: None,
            spill_dir: None,
            spill_compression: SpillCompression::default(),
            spill_io: SpillIoMode::default(),
            sort: SortConfig::default(),
        }
    }
}

impl StreamConfig {
    /// A config with the given memory budget and defaults elsewhere.
    pub fn with_memory_budget(bytes: usize) -> Self {
        Self {
            memory_budget_bytes: bytes,
            ..Self::default()
        }
    }

    /// [`StreamConfig::with_memory_budget`] bound to a live
    /// [`BudgetHandle`]: the handle's current value *is* the budget, so
    /// the granter can resize it while the engine runs.
    pub fn with_budget_handle(handle: BudgetHandle) -> Self {
        Self {
            memory_budget_bytes: handle.get(),
            budget: Some(handle),
            ..Self::default()
        }
    }

    /// The budget in force right now: the live [`StreamConfig::budget`]
    /// handle's current value when one is attached, the
    /// [`StreamConfig::memory_budget_bytes`] constant otherwise.
    pub fn effective_budget_bytes(&self) -> usize {
        match &self.budget {
            Some(handle) => handle.get(),
            None => self.memory_budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = SortConfig::default();
        assert_eq!(c.base_case_threshold, 1 << 14);
        assert!(c.heavy_detection);
        assert_eq!(c.merge_strategy, MergeStrategy::Dovetail);
        assert_eq!((MIN_RADIX_BITS, MAX_RADIX_BITS), (8, 12));
    }

    #[test]
    fn radix_bits_follows_cuberoot_rule() {
        // n = 10^9 -> log2 n ≈ 30 -> γ = 10.
        assert_eq!(radix_bits(1_000_000_000, 64), 10);
        // Small n clamps to the minimum.
        assert_eq!(radix_bits(1 << 15, 64), 8);
        // Huge n clamps to the maximum.
        assert_eq!(radix_bits(usize::MAX / 2, 64), 12);
        // Never more than the remaining bits.
        assert_eq!(radix_bits(1_000_000_000, 4), 4);
        // Never zero.
        assert_eq!(radix_bits(10, 1), 1);
        assert_eq!(radix_bits(10, 0), 1);
    }

    #[test]
    fn sample_count_capped_by_half() {
        let n = 40_000;
        assert!(num_samples(n, 12) <= n / 2);
        assert_eq!(num_samples(1_000_000, 8), (1 << 8) * 20);
        assert_eq!(num_samples(2, 8), 0);
    }

    #[test]
    fn subsample_stride_is_log_n() {
        assert_eq!(subsample_stride(1 << 20), 21);
        assert!(subsample_stride(1) >= 1);
    }

    #[test]
    fn presets() {
        let plain = SortConfig::plain();
        assert!(!plain.heavy_detection);
        assert_eq!(plain.merge_strategy, MergeStrategy::Dovetail);
    }

    #[test]
    fn budget_handle_overrides_the_constant_live() {
        let handle = BudgetHandle::new(1 << 20);
        let cfg = StreamConfig {
            memory_budget_bytes: 64, // must be ignored while a handle is attached
            budget: Some(handle.clone()),
            ..StreamConfig::default()
        };
        assert_eq!(cfg.effective_budget_bytes(), 1 << 20);
        // A shrink through the handle is visible to an existing config
        // (and all its clones) without rebuilding anything.
        let cloned = cfg.clone();
        handle.set(32 << 10);
        assert_eq!(cfg.effective_budget_bytes(), 32 << 10);
        assert_eq!(cloned.effective_budget_bytes(), 32 << 10);
        assert!(cfg.budget.as_ref().unwrap().same_handle(&handle));
        // Without a handle, the constant is the budget.
        assert_eq!(
            StreamConfig::with_memory_budget(4096).effective_budget_bytes(),
            4096
        );
        let bound = StreamConfig::with_budget_handle(BudgetHandle::new(8192));
        assert_eq!(bound.effective_budget_bytes(), 8192);
        assert_eq!(bound.memory_budget_bytes, 8192);
    }

    #[test]
    fn spill_compression_defaults_off() {
        assert_eq!(
            StreamConfig::default().spill_compression,
            SpillCompression::Off
        );
        assert_eq!(SpillCompression::default(), SpillCompression::Off);
    }

    #[test]
    fn spill_io_knobs_default_sanely() {
        let cfg = StreamConfig::default();
        // Without PISORT_SPILL_IO in the environment the default backend
        // is Blocking; with it, the test environment opted the whole
        // binary into Batched and the default must follow.
        let want = match std::env::var("PISORT_SPILL_IO") {
            Ok(v) if v.eq_ignore_ascii_case("batched") => SpillIoMode::Batched,
            _ => SpillIoMode::Blocking,
        };
        assert_eq!(cfg.spill_io, want);
        assert_eq!(cfg.spill_io, SpillIoMode::env_default());
        // An explicit field always wins over the environment default.
        let forced = StreamConfig {
            spill_io: SpillIoMode::Batched,
            ..StreamConfig::default()
        };
        assert_eq!(forced.spill_io, SpillIoMode::Batched);
    }

    #[test]
    fn env_spill_io_parse_flags_unknown_values() {
        // Recognized values, any case, resolve silently.
        assert_eq!(SpillIoMode::parse_env(None), (SpillIoMode::Blocking, None));
        assert_eq!(
            SpillIoMode::parse_env(Some("")),
            (SpillIoMode::Blocking, None)
        );
        assert_eq!(
            SpillIoMode::parse_env(Some("blocking")),
            (SpillIoMode::Blocking, None)
        );
        assert_eq!(
            SpillIoMode::parse_env(Some("batched")),
            (SpillIoMode::Batched, None)
        );
        assert_eq!(
            SpillIoMode::parse_env(Some("BATCHED")),
            (SpillIoMode::Batched, None)
        );
        // A typo must fall back to Blocking but be *reported*, not
        // silently swallowed (a mistyped CI leg would otherwise pass
        // while testing the wrong backend).
        assert_eq!(
            SpillIoMode::parse_env(Some("bacthed")),
            (SpillIoMode::Blocking, Some("bacthed"))
        );
        assert_eq!(
            SpillIoMode::parse_env(Some("async")),
            (SpillIoMode::Blocking, Some("async"))
        );
    }
}
