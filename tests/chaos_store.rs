//! Chaos sweep over the durable catalog store: hundreds of seeded fault
//! plans injected into store I/O and stage boundaries, asserting the PR's
//! recovery invariant end to end —
//!
//! * no run panics: every failure is a typed [`ems_error::EmsError`] /
//!   [`CoreError`] (a panic anywhere fails the test process);
//! * faults never corrupt results: after any injected crash, reopening the
//!   catalog fault-free and re-matching yields scores **byte-identical** to
//!   a clean cold run (commit-by-rename means a committed snapshot is
//!   always whole, and everything else rebuilds from source);
//! * external corruption is always detected (`verify` flags every mutation
//!   the harness produces) and quarantine-then-rebuild is idempotent: one
//!   recovery pass leaves a clean store that disk-warms the next session.

use ems_rng::StdRng;
use event_matching::core::{CoreError, EmsParams, MatchOutcome, SessionOptions, SharedSession};
use event_matching::events::EventLog;
use event_matching::faults::{FaultInjector, FaultPlan};
use event_matching::store::{CatalogStore, EntryStatus};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ems-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small heterogeneous pair: distinct names, overlapping structure.
fn logs() -> (EventLog, EventLog) {
    let mut l1 = EventLog::new();
    l1.push_trace(["cash", "validate", "pack", "ship"]);
    l1.push_trace(["cash", "validate", "pack", "ship"]);
    l1.push_trace(["card", "validate", "pack", "ship"]);
    let mut l2 = EventLog::new();
    l2.push_trace(["e0", "e1", "e2", "e4", "e5"]);
    l2.push_trace(["e0", "e1", "e3", "e4", "e5"]);
    (l1, l2)
}

/// A clean cold match with no store involved — the reference scores every
/// recovery must reproduce bit-for-bit.
fn baseline() -> MatchOutcome {
    let (l1, l2) = logs();
    session().try_match(&l1, &l2).expect("clean run")
}

fn session() -> SharedSession {
    SharedSession::try_new(EmsParams::structural()).expect("params are valid")
}

fn assert_bit_identical(out: &MatchOutcome, want: &MatchOutcome) {
    assert_eq!(out.similarity.max_abs_diff(&want.similarity), 0.0);
    assert_eq!(out.forward.max_abs_diff(&want.forward), 0.0);
    assert_eq!(out.backward.max_abs_diff(&want.backward), 0.0);
}

/// One store-backed match under an injector shared by the store (write /
/// fsync / rename / read sites) and the session (ingest / solve sites).
fn faulted_match(root: &Path, injector: Arc<FaultInjector>) -> Result<MatchOutcome, CoreError> {
    let store = CatalogStore::open(root)
        .map_err(|e| CoreError::SnapshotDecode {
            message: e.to_string(),
        })?
        .with_injector(Arc::clone(&injector));
    let (l1, l2) = logs();
    let options = SessionOptions {
        injector: Some(injector),
        ..SessionOptions::default()
    };
    session()
        .with_store(Arc::new(store))
        .try_match_opts(&l1, &l2, &options)
}

/// Fault-free store-backed match, returning the outcome and the session
/// for stats inspection.
fn clean_match(root: &Path) -> (MatchOutcome, SharedSession) {
    let store = CatalogStore::open(root).expect("reopen store");
    let session = session().with_store(Arc::new(store));
    let (l1, l2) = logs();
    let out = session
        .try_match(&l1, &l2)
        .expect("fault-free recovery run");
    (out, session)
}

/// The tentpole acceptance sweep: ≥200 seeded fault plans, zero panics,
/// typed errors only, byte-identical scores after recovery.
#[test]
fn seeded_fault_plans_never_corrupt_results() {
    let want = baseline();
    let mut failed_runs = 0u32;
    let mut fired_faults = 0usize;
    for seed in 0..240u64 {
        let root = tmp_root("sweep");
        let plan = FaultPlan::generate(seed);
        assert!(!plan.is_empty(), "seed {seed} generated an empty plan");
        let injector = Arc::new(FaultInjector::new(plan));

        // The faulted run may fail — but only with a typed error, and it
        // may leave arbitrary residue (torn temp files, missing or
        // quarantined snapshots) behind.
        let result = faulted_match(&root, Arc::clone(&injector));
        fired_faults += injector.fired().len();
        match result {
            Ok(out) => {
                // Solve-stage budget exhaustion degrades scores; anything
                // else must already be bit-identical. Either way the run
                // completed without a panic.
                if !out.stats.degraded {
                    assert_bit_identical(&out, &want);
                }
            }
            Err(e) => {
                failed_runs += 1;
                // Typed, rendered, and carried across the error boundary.
                assert!(!e.to_string().is_empty(), "seed {seed}: empty error");
            }
        }

        // Recovery invariant: reopening the catalog fault-free yields
        // byte-identical scores, and no committed snapshot is ever torn
        // (atomic rename = a snapshot either exists whole or not at all).
        let (recovered, session) = clean_match(&root);
        assert_bit_identical(&recovered, &want);
        assert_eq!(
            session.stats().store_quarantines,
            0,
            "seed {seed}: a committed snapshot was torn"
        );

        // Whatever the faults left behind, verify agrees: every committed
        // snapshot is whole.
        let store = CatalogStore::open(&root).expect("verify reopen");
        let report = store.verify().expect("verify");
        assert!(
            report.corrupt.is_empty(),
            "seed {seed}: verify flagged committed snapshots: {:?}",
            report.corrupt
        );
        // gc reclaims torn temp residue; a second gc finds nothing.
        let first = store.gc().expect("gc");
        let second = store.gc().expect("gc twice");
        assert_eq!(second.removed_tmp, 0);
        assert_eq!(second.removed_quarantined, 0);
        let _ = first;
        let _ = std::fs::remove_dir_all(&root);
    }
    // The sweep must actually inject: hundreds of planned faults fire
    // across the store and stage sites, and the rare terminal ingest
    // faults (the only class designed to fail a match — store failures
    // all absorb into rebuilds) surface as typed errors at least a few
    // times.
    assert!(
        fired_faults >= 200,
        "only {fired_faults} faults fired across 240 plans — the sweep is not injecting"
    );
    assert!(
        failed_runs >= 3,
        "only {failed_runs}/240 runs failed — terminal faults never surfaced"
    );
}

/// Satellite 3: every external corruption the harness can produce is
/// flagged by `verify`, and quarantine-then-rebuild is idempotent.
#[test]
fn external_corruption_is_always_detected_and_recovery_is_idempotent() {
    let want = baseline();
    let root = tmp_root("corrupt");
    {
        // Populate the catalog once.
        let (out, _) = clean_match(&root);
        assert_bit_identical(&out, &want);
    }
    let objects = root.join("objects");
    let snaps = || -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(&objects)
            .expect("objects dir")
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "snap"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(snaps().len(), 5, "2 graphs + 2 substrates + 1 labels");

    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let files = snaps();
        let victim = files[rng.gen_range(0..files.len())].clone();
        let original = std::fs::read(&victim).expect("read snapshot");
        let mut mutated = original.clone();
        match rng.gen_range(0..3u8) {
            0 => {
                // Byte flip anywhere in the envelope or payload.
                let at = rng.gen_range(0..mutated.len());
                mutated[at] ^= 1 << rng.gen_range(0..8u8);
            }
            1 => {
                // Truncation to any proper prefix.
                let keep = rng.gen_range(0..mutated.len());
                mutated.truncate(keep);
            }
            _ => {
                // Appended garbage.
                let extra = rng.gen_range(1..16usize);
                mutated.extend(std::iter::repeat(0xAB).take(extra));
            }
        }
        if mutated == original {
            continue; // the rare no-op flip of a symmetric byte
        }
        std::fs::write(&victim, &mutated).expect("write corruption");

        // Detection: verify flags exactly the mutated entry.
        let store = CatalogStore::open(&root).expect("open for verify");
        let report = store.verify().expect("verify");
        let victim_name = victim
            .file_name()
            .and_then(|n| n.to_str())
            .expect("snapshot name")
            .to_owned();
        assert!(
            report.corrupt.iter().any(|(file, _)| *file == victim_name),
            "seed {seed}: verify missed corruption of {victim_name}"
        );
        // list() reports the same entry as corrupt, others as ok.
        let listed = store.list().expect("list");
        for entry in &listed {
            let corrupt = matches!(entry.status, EntryStatus::Corrupt(_));
            assert_eq!(
                corrupt,
                entry.file == victim_name,
                "seed {seed}: wrong status for {}",
                entry.file
            );
        }
        drop(store);

        // Recovery pass: quarantines the corrupt entry, rebuilds, re-puts.
        let (recovered, session) = clean_match(&root);
        assert_bit_identical(&recovered, &want);
        assert!(
            session.stats().store_quarantines >= 1,
            "seed {seed}: corruption was served instead of quarantined"
        );

        // Idempotence: one pass fully repaired the store — the next
        // session disk-warms with no quarantines and no rebuilds.
        let (rewarmed, session) = clean_match(&root);
        assert_bit_identical(&rewarmed, &want);
        assert_eq!(session.stats().store_quarantines, 0, "seed {seed}");
        assert_eq!(session.stats().store_hits, 5, "seed {seed}");
        assert_eq!(session.stats().graph_builds, 0, "seed {seed}");

        // Drain the quarantine dir so the next round starts clean.
        let store = CatalogStore::open(&root).expect("gc reopen");
        store.gc().expect("gc");
        assert!(store.verify().expect("post-gc verify").corrupt.is_empty());
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Four structurally distinct reference logs for the catalog-reload
/// sweep, plus two query logs (jittered variants of the first and third
/// references) whose top-2 rankings are unambiguous.
fn catalog_corpus() -> (Vec<EventLog>, Vec<EventLog>) {
    let (l1, l2) = logs();
    let mut l3 = EventLog::new();
    l3.push_trace(["open", "triage", "assign", "resolve", "close"]);
    l3.push_trace(["open", "triage", "escalate", "resolve", "close"]);
    l3.push_trace(["open", "triage", "assign", "close"]);
    let mut l4 = EventLog::new();
    l4.push_trace(["a", "b"]);
    l4.push_trace(["a", "c"]);
    l4.push_trace(["a", "b", "c"]);
    let mut q1 = EventLog::new();
    q1.push_trace(["cash", "validate", "pack", "ship"]);
    q1.push_trace(["card", "validate", "pack", "ship"]);
    q1.push_trace(["card", "validate", "ship"]);
    let mut q2 = EventLog::new();
    q2.push_trace(["open", "triage", "assign", "resolve", "close"]);
    q2.push_trace(["open", "triage", "assign", "close"]);
    (vec![l1, l2, l3, l4], vec![q1, q2])
}

/// PR10 catalog-reload fault sites: a byte-budgeted catalog under store
/// fault injection evicts on every pin, so each query replays the
/// eviction → store-read reload chain with reads (and the writes that
/// seeded them) failing underneath it. Every failure must degrade to a
/// rebuild from the in-memory source log — never a panic, never an error
/// surfaced from `query_top_k`, and never a ranking that differs from
/// the clean brute-force oracle.
#[test]
fn catalog_eviction_reload_faults_never_change_rankings() {
    use event_matching::catalog::Catalog;

    let (refs, queries) = catalog_corpus();

    // Clean oracle: no store, unlimited budget, pruning off — the exact
    // brute-force ranking with scores.
    let clean: Vec<Vec<(String, f64)>> = {
        let mut catalog = Catalog::new(Arc::new(session()));
        for (i, log) in refs.iter().enumerate() {
            catalog.add(format!("ref-{i}"), log.clone());
        }
        queries
            .iter()
            .map(|q| {
                catalog
                    .query_top_k_opts(q, 2, false)
                    .expect("clean query")
                    .ranked
                    .into_iter()
                    .map(|r| (r.name, r.ems_score))
                    .collect()
            })
            .collect()
    };

    let mut fired_faults = 0usize;
    let mut evictions = 0u64;
    for seed in 0..240u64 {
        let root = tmp_root("catalog");
        let injector = Arc::new(FaultInjector::new(FaultPlan::generate(seed)));
        let store = CatalogStore::open(&root)
            .expect("open store")
            .with_injector(Arc::clone(&injector));
        let shared = Arc::new(session().with_store(Arc::new(store)));
        // A 1-byte budget evicts every pin immediately: each reference
        // access is a cold reload under whatever faults the plan holds.
        let mut catalog = Catalog::new(shared).with_byte_budget(1);
        for (i, log) in refs.iter().enumerate() {
            catalog.add(format!("ref-{i}"), log.clone());
        }
        for (qi, q) in queries.iter().enumerate() {
            let out = catalog
                .query_top_k_opts(q, 2, true)
                .expect("store faults must degrade to rebuilds, not fail the query");
            let got: Vec<(String, f64)> = out
                .ranked
                .into_iter()
                .map(|r| (r.name, r.ems_score))
                .collect();
            assert_eq!(
                got, clean[qi],
                "seed {seed}, query {qi}: faulted ranking diverged from the clean oracle"
            );
        }
        fired_faults += injector.fired().len();
        evictions += catalog.stats().evictions;
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        fired_faults >= 100,
        "only {fired_faults} faults fired across 240 plans — the sweep is not injecting"
    );
    assert!(
        evictions >= 240,
        "only {evictions} evictions across 240 runs — the budget is not forcing reloads"
    );
}

/// The disk-warm contract end to end through the umbrella crate: a store
/// populated by one process-lifetime serves the next one bit-identically.
#[test]
fn catalog_disk_warm_is_bit_identical_across_sessions() {
    let want = baseline();
    let root = tmp_root("warm");
    let (cold, session) = clean_match(&root);
    assert_bit_identical(&cold, &want);
    assert_eq!(session.stats().store_misses, 5);
    drop(session);
    let (warm, session) = clean_match(&root);
    assert_bit_identical(&warm, &want);
    assert_eq!(session.stats().store_hits, 5);
    assert_eq!(session.stats().graph_builds, 0);
    assert_eq!(session.stats().substrate_builds, 0);
    assert_eq!(session.stats().label_builds, 0);
    let _ = std::fs::remove_dir_all(&root);
}
