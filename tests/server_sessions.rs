//! Multi-tenant differential suite: N interleaved sessions over one shared
//! [`SortServer`] must be **byte-identical** to solo [`StreamSorter`] runs.
//!
//! The server changes *everything about the schedule* — sessions share the
//! work-stealing pool, their grants shrink live as peers are admitted (so
//! run boundaries land in different places than any solo run), and all
//! spill files live under one managed root.  None of that may leak into
//! the output: a stable external sort's result is a pure function of the
//! input, never of the run partitioning or the interleaving.  Each case in
//! this suite pushes the same inputs through (a) plain solo sorters with a
//! fixed budget and (b) a crowded server with reclaim-inducing admissions,
//! and asserts the outputs are identical, across both spill codecs.
//!
//! Thread counts: CI re-runs this suite under `RAYON_NUM_THREADS ∈ {1, 2, 4}`
//! (the thread-matrix job), which covers schedule-dependence of the shared
//! pool at each concurrency level.

use dtsort::{SortConfig, StreamConfig};
use server::{
    AdmissionPolicy, GovernorConfig, ServerConfig, SessionError, SortServer, SpillManagerConfig,
};
use stream::{FaultKind, FaultPlan, SpillCompression, SpillIoMode, StreamSorter, SumAgg};
use workloads::dist::{generate_pairs_u32, paper_instances};

/// Sessions per scenario — enough that admissions force several reclaims.
const SESSIONS: usize = 6;
/// Records per session.
const N: usize = 12_000;
/// Interleave granularity (odd, so chunk boundaries drift across runs).
const CHUNK: usize = 499;

/// The spill codecs every differential case runs under.
const SPILL_CODECS: [SpillCompression; 2] = [SpillCompression::Off, SpillCompression::DeltaLz];

/// One input per session, drawn from distinct paper distributions so the
/// sessions stress different code paths (uniform, skewed, heavy keys).
fn session_inputs() -> Vec<Vec<(u32, u32)>> {
    let dists = paper_instances();
    (0..SESSIONS)
        .map(|s| {
            let dist = &dists[s % dists.len()];
            generate_pairs_u32(dist, N, 0xD7_5EED ^ (s as u64))
        })
        .collect()
}

/// A small base config that spills aggressively at test sizes.
fn base_config(codec: SpillCompression) -> StreamConfig {
    StreamConfig {
        spill_compression: codec,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// Solo reference: one engine per input, fixed private budget, default
/// (per-engine) spill directory.
fn solo_outputs(inputs: &[Vec<(u32, u32)>], codec: SpillCompression) -> Vec<Vec<(u32, u32)>> {
    inputs
        .iter()
        .map(|input| {
            let mut cfg = base_config(codec);
            cfg.memory_budget_bytes = 32 << 10;
            let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
            for chunk in input.chunks(CHUNK) {
                sorter.push(chunk).unwrap();
            }
            sorter.finish().unwrap().collect()
        })
        .collect()
}

/// Shared-server run: all sessions admitted up front (each admission
/// reclaims budget from the live ones), pushes interleaved round-robin.
fn server_outputs(inputs: &[Vec<(u32, u32)>], codec: SpillCompression) -> Vec<Vec<(u32, u32)>> {
    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            // Tight ceiling: sessions are granted far less than requested
            // and each admission shrinks every live grant.
            global_budget_bytes: SESSIONS * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: base_config(codec),
    })
    .unwrap();

    let mut sessions: Vec<_> = (0..inputs.len())
        .map(|s| {
            server
                .open_sort::<u32, u32>(&format!("tenant-{s}"), 64 << 10)
                .unwrap()
        })
        .collect();
    assert!(
        server.governor().reclaims() > 0,
        "crowding the governor must have reclaimed at least one grant"
    );

    // Round-robin interleave: session 0's chunk 0, session 1's chunk 0, …
    let max_chunks = inputs
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for c in 0..max_chunks {
        for (s, input) in inputs.iter().enumerate() {
            let lo = c * CHUNK;
            if lo < input.len() {
                let hi = (lo + CHUNK).min(input.len());
                sessions[s].push(&input[lo..hi]).unwrap();
            }
        }
    }

    let outputs: Vec<Vec<(u32, u32)>> = sessions
        .into_iter()
        .map(|s| s.finish().unwrap().collect())
        .collect();
    assert_eq!(server.governor().live_sessions(), 0);
    assert_eq!(server.spill_manager().charged_bytes(), 0);
    outputs
}

#[test]
fn interleaved_sessions_match_solo_runs_across_spill_modes() {
    let inputs = session_inputs();
    for codec in SPILL_CODECS {
        let want = solo_outputs(&inputs, codec);
        let got = server_outputs(&inputs, codec);
        for (s, ((got_s, want_s), input)) in got.iter().zip(&want).zip(&inputs).enumerate() {
            assert_eq!(
                got_s, want_s,
                "session {s} output differs from its solo run [{codec:?}]"
            );
            let mut sorted = input.clone();
            sorted.sort_by_key(|r| r.0);
            assert_eq!(
                got_s, &sorted,
                "session {s} is not a stable sort [{codec:?}]"
            );
        }
    }
}

/// The same differential claim for the group-by engine: interleaved
/// group-by [`server::Session`]s must aggregate identically to solo runs
/// (exercised on one representative spill mode; the sorter matrix above
/// covers the codec/pipeline axes).
#[test]
fn interleaved_group_sessions_match_solo_runs() {
    let inputs = session_inputs();
    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            global_budget_bytes: SESSIONS * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: base_config(SpillCompression::DeltaLz),
    })
    .unwrap();
    let mut sessions: Vec<_> = (0..inputs.len())
        .map(|s| {
            server
                .open_group::<u32, SumAgg>(&format!("tenant-{s}"), SumAgg, 64 << 10)
                .unwrap()
        })
        .collect();
    let max_chunks = inputs
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for c in 0..max_chunks {
        for (s, input) in inputs.iter().enumerate() {
            let lo = c * CHUNK;
            if lo < input.len() {
                let hi = (lo + CHUNK).min(input.len());
                for &(k, v) in &input[lo..hi] {
                    sessions[s].push_record(k, v as u64).unwrap();
                }
            }
        }
    }
    for (s, (session, input)) in sessions.into_iter().zip(&inputs).enumerate() {
        let got = session.finish_vec().unwrap();
        // Solo reference: an in-memory sum per key, emitted in key order.
        let mut want = std::collections::BTreeMap::new();
        for &(k, v) in input {
            *want.entry(k).or_insert(0u64) += v as u64;
        }
        let want: Vec<(u32, u64)> = want.into_iter().collect();
        assert_eq!(got, want, "group session {s} differs from solo aggregation");
    }
}

/// Cross-session fault isolation over the shared **batched** backend:
///
/// * session A gets a one-shot injected spill-write panic — the writer
///   thread catches it, the run is reclaimed and rewritten, and A's
///   output is byte-identical (a worker panic in one session must not
///   poison the shared [`stream::SpillIoHandle`] pool);
/// * session C gets a dense permanent ENOSPC plan — it fails loudly with
///   a typed [`SessionError`] naming its own tenant, kind preserved;
/// * clean session B, interleaved with both, stays byte-identical to a
///   solo run, and every lease/grant is reclaimed after the drops.
#[test]
fn faulted_sessions_stay_isolated_from_clean_peers() {
    let inputs = session_inputs();
    let (input_a, input_b, input_c) = (&inputs[0], &inputs[1], &inputs[2]);
    let sorted = |input: &[(u32, u32)]| {
        let mut want = input.to_vec();
        want.sort_by_key(|r| r.0);
        want
    };

    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            global_budget_bytes: 3 * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: StreamConfig {
            spill_io: SpillIoMode::Batched,
            ..base_config(SpillCompression::Off)
        },
    })
    .unwrap();

    let panic_plan = FaultPlan::nth(FaultKind::WritePanic, 1);
    let mut a = server
        .open_sort_with_faults::<u32, u32>("tenant-a", 64 << 10, panic_plan.clone())
        .unwrap();
    let mut b = server.open_sort::<u32, u32>("tenant-b", 64 << 10).unwrap();
    let enospc_plan = FaultPlan::seeded_kinds(0xBAD_5EED, 2, &[FaultKind::WriteEnospc]);
    let mut c = server
        .open_sort_with_faults::<u32, u32>("tenant-c", 64 << 10, enospc_plan)
        .unwrap();

    // Round-robin interleave.  A's single loud error (the caught writer
    // panic) is tolerated and pushing continues; C stops at its first
    // (permanent) error; B must never error.
    let mut a_errors = 0usize;
    let mut c_error: Option<std::io::Error> = None;
    let max_chunks = inputs[..3]
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for chunk in 0..max_chunks {
        let lo = chunk * CHUNK;
        let hi = (lo + CHUNK).min(N);
        if lo >= N {
            break;
        }
        if let Err(e) = a.push(&input_a[lo..hi]) {
            assert!(
                e.to_string().contains("panicked"),
                "A's only error must be the converted writer panic: {e}"
            );
            a_errors += 1;
        }
        b.push(&input_b[lo..hi])
            .expect("the clean session must never see a peer's fault");
        if c_error.is_none() {
            if let Err(e) = c.push(&input_c[lo..hi]) {
                c_error = Some(e);
            }
        }
    }

    assert_eq!(panic_plan.injected(), 1, "A's panic fault must have fired");
    assert!(a_errors <= 1, "the caught panic surfaces at most once");
    let got_a = a.finish_vec().expect("A recovers after the caught panic");
    assert_eq!(
        got_a,
        sorted(input_a),
        "worker panic must not cost session A a record"
    );

    let err = c_error.expect("the dense ENOSPC plan must fail session C");
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::StorageFull,
        "kind preserved"
    );
    let session_err = SessionError::from_io(&err).expect("typed SessionError");
    assert_eq!(session_err.tenant, "tenant-c", "failure names its session");
    drop(c);

    let got_b: Vec<(u32, u32)> = b.finish().unwrap().collect();
    assert_eq!(
        got_b,
        sorted(input_b),
        "session B must be byte-identical despite faulted neighbors"
    );

    assert_eq!(server.governor().live_sessions(), 0, "grants reclaimed");
    assert_eq!(server.spill_manager().live_leases(), 0, "leases reclaimed");
    assert_eq!(
        server.spill_manager().charged_bytes(),
        0,
        "charges released"
    );
}

/// Regression: `shrink_to_budget` called the engine directly, skipping the
/// session's quota charge and quarantine.  A spill forced by a reclaim
/// first settles the run already in flight to the writer thread, so that
/// run must be charged to the disk quota right away, and a failed one
/// must come back as a typed [`SessionError`].
#[test]
fn shrink_to_budget_charges_the_quota_and_quarantines_failures() {
    let input: Vec<(u32, u32)> = (0..4_000u32).map(|i| (i.rotate_left(13), i)).collect();
    for faulted in [false, true] {
        let server = SortServer::new(ServerConfig {
            governor: GovernorConfig {
                global_budget_bytes: 64 << 10,
                session_floor_bytes: 8 << 10,
                admission: AdmissionPolicy::Reject,
            },
            spill: SpillManagerConfig::default(),
            base: base_config(SpillCompression::Off),
        })
        .unwrap();
        let mut a = if faulted {
            let plan = FaultPlan::nth(FaultKind::WriteEnospc, 0);
            server.open_sort_with_faults::<u32, u32>("tenant-a", 64 << 10, plan)
        } else {
            server.open_sort::<u32, u32>("tenant-a", 64 << 10)
        }
        .unwrap();
        // Under the full 64 KiB grant the first run spills during the push
        // and is left in flight; the rest of the records stay buffered.
        a.push(&input).unwrap();
        assert!(!a.stats().is_settled, "premise: a run in flight");
        assert_eq!(a.stats().spilled_runs, 0);
        // Admitting a second session halves A's grant below its buffer.
        let _b = server.open_sort::<u32, u32>("tenant-b", 64 << 10).unwrap();
        assert!(a.granted_bytes() < 64 << 10);
        let shrunk = a.shrink_to_budget();
        if faulted {
            let err = shrunk.expect_err("the injected ENOSPC must fail the settled spill");
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
            let session_err = SessionError::from_io(&err).expect("typed SessionError");
            assert_eq!(session_err.tenant, "tenant-a");
        } else {
            shrunk.unwrap();
            assert_eq!(a.stats().spilled_runs, 1, "the run in flight settled");
            assert!(!a.stats().is_settled, "the shrink forced a spill");
            assert_eq!(
                server.spill_manager().charged_bytes(),
                a.stats().spilled_bytes,
                "the settled spill is charged at once, not on the next push"
            );
            assert!(server.spill_manager().charged_bytes() > 0);
        }
    }
}
