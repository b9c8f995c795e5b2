//! The staged [`SharedSession`] pipeline is a pure optimization — caching
//! and warm-starting change *work*, never *results*.
//!
//! On an acyclic corpus (every pair has a finite Proposition-2 horizon) with
//! an epsilon small enough that the exact phase runs every pair to its
//! horizon, the following must hold at 1 and 4 threads:
//!
//! 1. a session's cold match is bit-identical (similarity, forward,
//!    backward) to the one-shot [`Ems`] pipeline, and its redacted
//!    `ems-trace/1` engine export is byte-identical to the one-shot trace;
//! 2. a cached re-match skips graph, substrate and label construction
//!    (proved by the session recorder's cache counters and stage spans) yet
//!    reproduces the similarity and the redacted engine trace byte for byte;
//! 3. a re-match warm-started from the cached run's outcome converges in
//!    exactly one iteration per direction (Theorem 1: re-evaluating the
//!    fixpoint is stationary), and yields the bit-identical matrix.

use ems_core::{Ems, EmsParams, MatchOutcome, RunOptions, SessionOptions, SharedSession};
use ems_depgraph::DependencyGraph;
use ems_events::EventLog;
use ems_obs::{jsonl, Record, Recorder};
use std::sync::Arc;

/// A log whose traces are strictly increasing index sequences over `n`
/// activities: every edge goes from a lower to a higher index, so the
/// dependency graph is acyclic and every `l(v)` is finite (well under the
/// default iteration cap).
fn dag_log(n: usize, salt: usize, traces: usize) -> EventLog {
    let names: Vec<String> = (0..n).map(|i| format!("t{i:03}")).collect();
    let mut log = EventLog::new();
    for t in 0..traces {
        let mut idx = (t + salt) % 5;
        let mut trace: Vec<&str> = Vec::new();
        while idx < n {
            trace.push(&names[idx]);
            idx += 2 + (t + idx) % 4; // strides 2..=5: chains stay short
        }
        if trace.len() >= 2 {
            log.push_trace(trace);
        }
    }
    log
}

/// Large enough that the initial worklist (68 × 66 = 4488 pairs) crosses
/// the parallel kernel's spawn threshold, so `threads: 4` genuinely
/// exercises the sharded path.
fn corpus() -> (EventLog, EventLog) {
    (dag_log(68, 0, 40), dag_log(66, 1, 36))
}

/// Epsilon far below any reachable delta: the exact phase never stops
/// before every pair has retired at its horizon — the precondition for the
/// warm-start stationarity argument.
fn exact_params(threads: usize) -> EmsParams {
    EmsParams {
        epsilon: 1e-300,
        threads,
        ..EmsParams::structural()
    }
}

/// The pre-session one-shot pipeline with an engine recorder attached.
fn one_shot(threads: usize) -> (MatchOutcome, String) {
    let (l1, l2) = corpus();
    let recorder = Arc::new(Recorder::new());
    let ems = Ems::try_new(exact_params(threads)).expect("params are valid");
    let g1 = DependencyGraph::from_log(&l1);
    let g2 = DependencyGraph::from_log(&l2);
    let labels = ems.label_matrix(&l1, &l2);
    let options = RunOptions {
        recorder: Some(Arc::clone(&recorder)),
        ..RunOptions::default()
    };
    let out = ems
        .try_match_graphs_opts(&g1, &g2, &labels, &options, &options)
        .expect("one-shot match succeeds");
    (out, jsonl::write_redacted(&recorder.records()))
}

struct SessionRun {
    outcome: MatchOutcome,
    engine_trace: String,
}

/// Runs cold, cached and warm through one session; each call gets a fresh
/// engine recorder (so traces are byte-comparable) while the session
/// recorder accumulates stage/cache telemetry across all three. The warm
/// run takes the previous run's outcome as its prior.
fn session_runs(threads: usize) -> (Vec<SessionRun>, Arc<Recorder>, SharedSession) {
    let (l1, l2) = corpus();
    let session_rec = Arc::new(Recorder::new());
    let session = SharedSession::try_new(exact_params(threads))
        .expect("params are valid")
        .with_recorder(Arc::clone(&session_rec));
    let mut runs: Vec<SessionRun> = Vec::new();
    for warm_start in [false, false, true] {
        let engine_rec = Arc::new(Recorder::new());
        let options = SessionOptions {
            prior: runs.last().filter(|_| warm_start).map(|r| &r.outcome),
            recorder: Some(Arc::clone(&engine_rec)),
            ..SessionOptions::default()
        };
        let outcome = session
            .try_match_opts(&l1, &l2, &options)
            .expect("session match succeeds");
        runs.push(SessionRun {
            outcome,
            engine_trace: jsonl::write_redacted(&engine_rec.records()),
        });
    }
    (runs, session_rec, session)
}

fn assert_bitwise_equal(a: &MatchOutcome, b: &MatchOutcome, what: &str) {
    assert_eq!(
        a.similarity.max_abs_diff(&b.similarity),
        0.0,
        "{what}: similarity must be bit-identical"
    );
    assert_eq!(
        a.forward.max_abs_diff(&b.forward),
        0.0,
        "{what}: forward must be bit-identical"
    );
    assert_eq!(
        a.backward.max_abs_diff(&b.backward),
        0.0,
        "{what}: backward must be bit-identical"
    );
}

#[test]
fn cold_cached_and_warm_session_runs_are_bit_identical_to_one_shot() {
    for threads in [1, 4] {
        let (reference, reference_trace) = one_shot(threads);
        let (runs, _, session) = session_runs(threads);
        let [cold, cached, warm] = &runs[..] else {
            panic!("expected three session runs");
        };

        // 1. Cold session == one-shot, down to the redacted engine trace.
        assert_bitwise_equal(&cold.outcome, &reference, "cold vs one-shot");
        assert_eq!(
            cold.engine_trace, reference_trace,
            "threads={threads}: cold session engine trace must be \
             byte-identical to the one-shot trace"
        );

        // 2. Cached re-match: identical results AND identical engine trace
        //    (the skipped stages emit to the session recorder only).
        assert_bitwise_equal(&cached.outcome, &reference, "cached vs one-shot");
        assert_eq!(
            cached.engine_trace, cold.engine_trace,
            "threads={threads}: cached re-match engine trace must be \
             byte-identical to the cold run's"
        );

        // 3. Warm re-match: identical matrix, one iteration per direction.
        assert_bitwise_equal(&warm.outcome, &reference, "warm vs one-shot");
        assert!(cold.outcome.stats.iterations > 1);
        assert_eq!(
            warm.outcome.stats.iterations, 1,
            "threads={threads}: re-evaluating the fixpoint must be stationary"
        );
        let parsed =
            jsonl::parse_records(&warm.engine_trace).expect("warm trace conforms to ems-trace/1");
        let curves = jsonl::check_convergence(&parsed).expect("max_delta is non-increasing");
        assert_eq!(curves.len(), 2, "forward + backward engines");
        for (engine, iterations) in &curves {
            assert_eq!(
                *iterations, 1,
                "engine {engine} should converge in one warm iteration"
            );
        }

        // Cache accounting: the three runs built each product exactly once.
        let stats = session.stats();
        assert_eq!(stats.graph_builds, 2);
        assert_eq!(stats.graph_cache_hits, 4);
        assert_eq!(stats.substrate_builds, 2);
        assert_eq!(stats.substrate_cache_hits, 4);
        assert_eq!(stats.label_builds, 1);
        assert_eq!(stats.label_cache_hits, 2);
        assert_eq!(stats.warm_starts, 1);
    }
}

#[test]
fn session_recorder_proves_cached_rematch_skipped_construction() {
    let (_, session_rec, _) = session_runs(1);
    let records = session_rec.records();

    // Stage spans fire only on the cold run: 2 model builds, 2 substrate
    // builds, and never again on the cached or warm re-match.
    let spans = |name: &str| {
        records
            .iter()
            .filter(|r| matches!(r, Record::Span { name: n, .. } if n == name))
            .count()
    };
    assert_eq!(spans("session.model"), 2);
    assert_eq!(spans("session.substrate"), 2);

    // The cache counters tell the same story in the exported trace.
    let hits = |name: &str| {
        records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Record::Counter { name: n, labels, .. }
                        if n == name
                            && labels.iter().any(|(k, v)| k == "result" && v == "hit")
                )
            })
            .count()
    };
    assert_eq!(hits("session.graph_cache"), 4, "2 re-matches × 2 logs");
    assert_eq!(
        hits("session.substrate_cache"),
        4,
        "2 re-matches × 2 directions"
    );
    assert_eq!(hits("session.label_cache"), 2, "one per re-match");

    // The warm start is visible too.
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Counter { name, .. } if name == "session.warm_start")));

    // Graph observation still reaches the trace (the CLI contract).
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Gauge { name, .. } if name == "graph_vertices")));
}
