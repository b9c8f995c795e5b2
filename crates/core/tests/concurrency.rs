//! Interleaving tests for the engine's two shared-state mechanisms — the
//! `Mutex<Vec<DenseScratch>>` buffer reuse (`try_lock` with local fallback) and
//! the active-pair worklist's retire-exactly-once accounting — and for the
//! `SharedSession` caches hit by plain and bypass calls at once.
//!
//! The workspace carries no loom-style model checker (no external deps), so
//! these are scheduled-interleaving tests in its spirit: many rounds of
//! barrier-aligned concurrent runs with per-thread schedule perturbation
//! (spin/yield skew) to sweep distinct lock-acquisition orders. The
//! correctness claim under test is strong enough to survive the weaker
//! exploration: *whichever* thread wins the scratch lock, every concurrent
//! run must be bit-identical to the serial baseline, and the worklist
//! counters must account for every pair exactly once per iteration.

use ems_core::engine::{Budget, Engine, RunOptions, RunStats, Seed};
use ems_core::{Direction, Ems, EmsParams, MatchOutcome, SessionOptions, SharedSession, SimMatrix};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_obs::Recorder;
use ems_rng::StdRng;
use std::sync::{Arc, Barrier};

fn random_log(rng: &mut StdRng, alphabet: usize) -> ems_events::EventLog {
    let mut log = ems_events::EventLog::new();
    let traces = rng.gen_range(2..10usize);
    for _ in 0..traces {
        let len = rng.gen_range(2..9usize);
        log.push_trace((0..len).map(|_| format!("e{}", rng.gen_range(0..alphabet))));
    }
    log
}

fn graph_pair(seed: u64) -> (DependencyGraph, DependencyGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = rng.gen_range(4..9usize);
    (
        DependencyGraph::from_log(&random_log(&mut rng, alphabet)),
        DependencyGraph::from_log(&random_log(&mut rng, alphabet)),
    )
}

fn assert_bitwise(a: &SimMatrix, b: &SimMatrix, what: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

fn assert_same_work(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.formula_evals, b.formula_evals, "{what}: formula_evals");
    assert_eq!(a.pruned_evals, b.pruned_evals, "{what}: pruned_evals");
    assert_eq!(a.frozen_evals, b.frozen_evals, "{what}: frozen_evals");
    assert_eq!(a.aborted, b.aborted, "{what}: aborted");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
}

/// Concurrent `run`s on one shared engine race for the dense scratch
/// buffers: the `try_lock` winner mutates the retained `DenseScratch`
/// blocks in place while every loser falls back to a fresh local one. Across
/// barrier-aligned rounds with skewed schedules, every thread must still
/// reproduce the serial baseline bitwise — the scratch is a pure cache,
/// never state.
#[test]
#[cfg_attr(miri, ignore)] // spawns many threads over many rounds; minutes under miri
fn concurrent_runs_share_scratch_without_affecting_results() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 25;
    let (g1, g2) = graph_pair(0xC0C0);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let opts = RunOptions::default();
    let baseline = engine.run(&opts);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let baseline = &baseline;
            let barrier = &barrier;
            let opts = opts.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Schedule perturbation: vary which thread reaches
                    // `try_lock` first so both the guard-held and the
                    // local-fallback paths are exercised.
                    for _ in 0..((t * round) % 7) {
                        std::thread::yield_now();
                    }
                    let out = engine.run(&opts);
                    assert_bitwise(
                        &baseline.sim,
                        &out.sim,
                        &format!("thread {t}, round {round}"),
                    );
                    assert_same_work(
                        &baseline.stats,
                        &out.stats,
                        &format!("thread {t}, round {round}"),
                    );
                }
            });
        }
    });
}

/// The scratch cache must also be inert across *heterogeneous* concurrent
/// runs: threads hammer the same engine with different thread counts,
/// budgets and seeds, each checking against its own serial baseline. A
/// scratch buffer leaking state between differently-shaped runs would
/// surface here as a bitwise divergence.
#[test]
#[cfg_attr(miri, ignore)] // spawns many threads over many rounds; minutes under miri
fn heterogeneous_concurrent_runs_stay_bit_identical() {
    let (g1, g2) = graph_pair(0xC0C1);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::with_labels(0.7);
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Backward);

    let n1 = g1.num_real();
    let n2 = g2.num_real();
    let mut seeded = SimMatrix::zeros(n1, n2);
    let mut frozen = vec![false; n1 * n2];
    let mut rng = StdRng::seed_from_u64(0xC0C2);
    for (k, slot) in frozen.iter_mut().enumerate() {
        if rng.gen_bool(0.2) {
            *slot = true;
            seeded.set(k / n2, k % n2, rng.gen::<f64>());
        }
    }
    let variants: Vec<RunOptions> = vec![
        RunOptions::default(),
        RunOptions {
            threads: Some(4),
            oversubscribe: true,
            ..RunOptions::default()
        },
        RunOptions {
            budget: Budget {
                max_iterations: Some(3),
                ..Budget::default()
            },
            ..RunOptions::default()
        },
        RunOptions {
            seed: Some(Seed {
                values: seeded,
                frozen,
            }),
            ..RunOptions::default()
        },
    ];
    let baselines: Vec<_> = variants.iter().map(|o| engine.run(o)).collect();

    let barrier = Barrier::new(variants.len());
    std::thread::scope(|scope| {
        for (t, (opts, baseline)) in variants.iter().zip(&baselines).enumerate() {
            let engine = &engine;
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..20 {
                    barrier.wait();
                    for _ in 0..((t + round) % 5) {
                        std::thread::yield_now();
                    }
                    let out = engine.run(opts);
                    assert_bitwise(
                        &baseline.sim,
                        &out.sim,
                        &format!("variant {t}, round {round}"),
                    );
                    assert_same_work(
                        &baseline.stats,
                        &out.stats,
                        &format!("variant {t}, round {round}"),
                    );
                }
            });
        }
    });
}

/// Retire-exactly-once, phrased as an accounting identity over the public
/// counters: per iteration every pair is exactly one of evaluated
/// (`formula_evals`), retired (`pruned_evals`) or frozen (`frozen_evals`),
/// so the three must sum to `iterations × n1 × n2`. A pair retired twice
/// (double `retain` removal, stale `retired_count`) or resurrected breaks
/// the identity.
#[test]
fn worklist_accounting_covers_every_pair_exactly_once() {
    for seed in [0xA1u64, 0xA2, 0xA3, 0xA4, 0xA5] {
        let (g1, g2) = graph_pair(seed);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = EmsParams::structural(); // pruning on by default
        let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
        let out = engine.run(&RunOptions::default());
        let grid = (g1.num_real() * g2.num_real()) as u64;
        let per_iteration_total = out.stats.iterations as u64 * grid;
        assert_eq!(
            out.stats.formula_evals + out.stats.pruned_evals + out.stats.frozen_evals,
            per_iteration_total,
            "seed {seed:#x}: accounting identity (evaluated + retired + frozen)"
        );
        // And the identity must match the reference implementation's
        // full-grid bookkeeping exactly.
        let reference = engine.run_reference(&RunOptions::default());
        assert_same_work(&reference.stats, &out.stats, &format!("seed {seed:#x}"));
    }
}

/// Same identity under a frozen seed: frozen pairs leave the worklist
/// before iteration 1 and must be counted as frozen every iteration,
/// never double-counted as retired.
#[test]
fn worklist_accounting_holds_with_frozen_pairs() {
    let (g1, g2) = graph_pair(0xB7);
    let n1 = g1.num_real();
    let n2 = g2.num_real();
    let labels = LabelMatrix::zeros(n1, n2);
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);

    let mut values = SimMatrix::zeros(n1, n2);
    let mut frozen = vec![false; n1 * n2];
    let mut rng = StdRng::seed_from_u64(0xB8);
    for (k, slot) in frozen.iter_mut().enumerate() {
        if rng.gen_bool(0.3) {
            *slot = true;
            values.set(k / n2, k % n2, rng.gen::<f64>());
        }
    }
    let opts = RunOptions {
        seed: Some(Seed { values, frozen }),
        ..RunOptions::default()
    };
    let out = engine.run(&opts);
    let grid = (n1 * n2) as u64;
    assert_eq!(
        out.stats.formula_evals + out.stats.pruned_evals + out.stats.frozen_evals,
        out.stats.iterations as u64 * grid,
        "accounting identity with frozen pairs"
    );
    let reference = engine.run_reference(&opts);
    assert_same_work(&reference.stats, &out.stats, "frozen-seed run");
}

/// One session hit from several threads with plain and bypass calls mixed.
/// Plain calls must return the one-shot [`Ems`] result bit for bit; bypass
/// calls (an engine recorder, a warm-start prior) must neither read the
/// outcome cache (each runs its own solves) nor fill it.
#[test]
#[cfg_attr(miri, ignore)] // spawns many threads over many rounds; minutes under miri
fn shared_session_plain_and_bypass_calls_interleave() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 10;
    // Acyclic logs and an epsilon far below any reachable delta: the warm
    // run from a converged prior is then bitwise stationary.
    let mut l1 = ems_events::EventLog::new();
    l1.push_trace(["cash", "validate", "pack", "ship"]);
    l1.push_trace(["card", "validate", "ship"]);
    let mut l2 = ems_events::EventLog::new();
    l2.push_trace(["e0", "e1", "e2", "e4", "e5"]);
    l2.push_trace(["e0", "e1", "e3", "e5"]);
    let params = EmsParams {
        epsilon: 1e-300,
        ..EmsParams::structural()
    };
    let expected = Ems::new(params.clone()).match_logs(&l1, &l2);
    let session = SharedSession::try_new(params).expect("params are valid");
    let check = |out: &MatchOutcome, what: &str| {
        assert_bitwise(&expected.similarity, &out.similarity, what);
        assert_bitwise(&expected.forward, &out.forward, what);
        assert_bitwise(&expected.backward, &out.backward, what);
    };
    // An engine recorder that saw records proves the call solved rather
    // than replaying a cached outcome.
    let recorded_call = |what: &str| {
        let recorder = Arc::new(Recorder::new());
        let options = SessionOptions {
            recorder: Some(Arc::clone(&recorder)),
            ..SessionOptions::default()
        };
        let out = session.try_match_opts(&l1, &l2, &options).expect(what);
        assert!(!recorder.records().is_empty(), "{what}: served from cache");
        check(&out, what);
    };

    // Phase 1: bypass calls only, all threads at once.
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (barrier, recorded_call) = (&barrier, &recorded_call);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..((t * round) % 5) {
                        std::thread::yield_now();
                    }
                    recorded_call(&format!("bypass thread {t}, round {round}"));
                }
            });
        }
    });
    assert_eq!(session.stats().outcome_cache_hits, 0);
    // Nothing was memoized: the first plain call still solves.
    let first = session.try_match(&l1, &l2).expect("plain match");
    check(&first, "first plain call");
    assert_eq!(session.stats().outcome_cache_hits, 0);

    // Phase 2: plain calls race recorder and prior bypass calls.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (barrier, recorded_call, session) = (&barrier, &recorded_call, &session);
            let (l1, l2, first, check) = (&l1, &l2, &first, &check);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..((t + round) % 5) {
                        std::thread::yield_now();
                    }
                    let what = format!("thread {t}, round {round}");
                    match t {
                        1 => recorded_call(&what),
                        3 => {
                            let options = SessionOptions {
                                prior: Some(first),
                                ..SessionOptions::default()
                            };
                            let out = session.try_match_opts(l1, l2, &options).expect(&what);
                            // A warm solve, not the cached cold outcome.
                            assert_eq!(out.stats.iterations, 1, "{what}");
                            check(&out, &what);
                        }
                        _ => check(&session.try_match(l1, l2).expect(&what), &what),
                    }
                }
            });
        }
    });
    let stats = session.stats();
    // Every plain call hit; no bypass call counted as one.
    assert_eq!(stats.outcome_cache_hits, 2 * ROUNDS as u64);
    assert_eq!(stats.warm_starts, ROUNDS as u64);
}
