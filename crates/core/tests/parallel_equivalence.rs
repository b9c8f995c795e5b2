//! Bit-identity properties of the precomputed fixpoint kernel: across
//! random graphs, seeds, budgets and pruning configurations, the worklist
//! kernel must reproduce the reference (seed) implementation *bitwise*, and
//! every thread count must reproduce the serial path bitwise. These are the
//! guarantees that make the `threads` knob a pure wall-clock trade.

use ems_core::engine::{Budget, Engine, RunOptions, RunStats, Seed};
use ems_core::{Direction, EmsParams, SimMatrix};
use ems_depgraph::DependencyGraph;
use ems_labels::LabelMatrix;
use ems_rng::StdRng;

fn random_log(rng: &mut StdRng, alphabet: usize) -> ems_events::EventLog {
    let mut log = ems_events::EventLog::new();
    let traces = rng.gen_range(1..12usize);
    for _ in 0..traces {
        let len = rng.gen_range(1..10usize);
        log.push_trace((0..len).map(|_| format!("e{}", rng.gen_range(0..alphabet))));
    }
    log
}

fn random_graph_pair(rng: &mut StdRng) -> (DependencyGraph, DependencyGraph) {
    let alphabet = rng.gen_range(3..9usize);
    (
        DependencyGraph::from_log(&random_log(rng, alphabet)),
        DependencyGraph::from_log(&random_log(rng, alphabet)),
    )
}

fn random_params(rng: &mut StdRng) -> EmsParams {
    let mut p = if rng.gen_bool(0.5) {
        EmsParams::structural()
    } else {
        EmsParams::with_labels(0.7)
    };
    if rng.gen_bool(0.3) {
        p = p.without_pruning();
    }
    if rng.gen_bool(0.3) {
        p = p.estimated(rng.gen_range(0..4usize));
    }
    p
}

fn random_options(rng: &mut StdRng, n1: usize, n2: usize) -> RunOptions {
    let mut opts = RunOptions::default();
    if rng.gen_bool(0.3) {
        opts.budget = Budget {
            max_iterations: Some(rng.gen_range(0..6usize)),
            ..Budget::default()
        };
    }
    if rng.gen_bool(0.3) {
        // Extreme thresholds only: a mid-range threshold makes the abort
        // decision depend on the last bits of a full-matrix sum, which the
        // kernel intentionally computes with better rounding than the
        // reference (compensated vs naive) — decision parity near the
        // boundary is not part of the bit-identity contract.
        opts.abort_below = Some(if rng.gen_bool(0.5) { 0.0 } else { 0.99 });
    }
    if n1 * n2 > 0 && rng.gen_bool(0.3) {
        let mut values = SimMatrix::zeros(n1, n2);
        let mut frozen = vec![false; n1 * n2];
        for (k, slot) in frozen.iter_mut().enumerate() {
            if rng.gen_bool(0.2) {
                *slot = true;
                values.set(k / n2, k % n2, rng.gen::<f64>());
            }
        }
        opts.seed = Some(Seed { values, frozen });
    }
    opts
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
    assert_eq!(a.estimated_pairs, b.estimated_pairs, "{what}: estimated");
    assert_eq!(a.aborted, b.aborted, "{what}: aborted");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
}

/// The worklist kernel is bitwise-equal to the reference implementation
/// across random graphs, parameters, budgets, seeds and both directions.
#[test]
#[cfg_attr(miri, ignore)] // 60 random fixpoint cases: minutes under interpretation
fn kernel_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xD01);
    for case in 0..60 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = random_params(&mut rng);
        let opts = random_options(&mut rng, g1.num_real(), g2.num_real());
        for direction in [Direction::Forward, Direction::Backward] {
            let engine = Engine::new(&g1, &g2, &labels, &params, direction);
            let reference = engine.run_reference(&opts);
            let kernel = engine.run(&opts);
            assert_bitwise(&reference.sim, &kernel.sim, &format!("case {case}"));
            assert_same_work(&reference.stats, &kernel.stats, &format!("case {case}"));
        }
    }
}

/// `threads = 1` and `threads = N` produce bit-identical similarity
/// matrices and identical work counters (including `iterations`).
#[test]
#[cfg_attr(miri, ignore)] // 40 random multi-thread cases: minutes under interpretation
fn thread_count_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(0xD02);
    for case in 0..40 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let params = random_params(&mut rng);
        let base = random_options(&mut rng, g1.num_real(), g2.num_real());
        let direction = if rng.gen_bool(0.5) {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let engine = Engine::new(&g1, &g2, &labels, &params, direction);
        let serial = engine.run(&RunOptions {
            threads: Some(1),
            ..base.clone()
        });
        for n in [2usize, 4, 7] {
            let parallel = engine.run(&RunOptions {
                threads: Some(n),
                oversubscribe: true,
                ..base.clone()
            });
            assert_bitwise(
                &serial.sim,
                &parallel.sim,
                &format!("case {case}, {n} threads"),
            );
            assert_same_work(
                &serial.stats,
                &parallel.stats,
                &format!("case {case}, {n} threads"),
            );
        }
    }
}

/// A grid large enough to clear the pairs-per-shard floor three times
/// over agrees bitwise between 1, 2, 3 and 8 threads — this exercises the
/// column-blocked path with real pool members (three uneven blocks at 3
/// and 8 threads) rather than the small-grid serial fallback.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn large_grid_parallel_path_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xD03);
    let mut big_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            let len = rng.gen_range(4..16usize);
            log.push_trace((0..len).map(|_| format!("a{}", rng.gen_range(0..alphabet))));
        }
        log
    };
    let g1 = DependencyGraph::from_log(&big_log(100));
    let g2 = DependencyGraph::from_log(&big_log(110));
    assert!(
        g1.num_real() * g2.num_real() > 2 * 4096,
        "grid too small for three blocks above the pairs-per-shard floor"
    );
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let params = EmsParams::structural();
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let serial = engine.run(&RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    });
    assert!(serial.stats.iterations > 0);
    assert_eq!(serial.stats.pool_shards, 1);
    for threads in [2usize, 3, 8] {
        let parallel = engine.run(&RunOptions {
            threads: Some(threads),
            oversubscribe: true,
            ..RunOptions::default()
        });
        let what = format!("large grid, {threads} threads");
        assert_bitwise(&serial.sim, &parallel.sim, &what);
        assert_same_work(&serial.stats, &parallel.stats, &what);
        assert!(parallel.stats.pool_shards > 1, "{what}: pool never sharded");
        if threads >= 3 {
            assert_eq!(parallel.stats.pool_shards, 3, "{what}: block count");
        }
    }
}

/// δ = 0 sparse mode is *exact*: across random graphs, parameters and
/// warm-up counts, evaluating through the CSR substrate reproduces the
/// dense kernel bitwise — at one thread and through the worker pool.
#[test]
#[cfg_attr(miri, ignore)] // 40 random fixpoint cases: minutes under interpretation
fn sparse_exact_mode_is_bit_identical_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xD04);
    for case in 0..40 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        let dense_params = random_params(&mut rng);
        let warmup = rng.gen_range(0..3usize);
        let sparse_params = dense_params.clone().with_sparse(0.0, warmup);
        let direction = if rng.gen_bool(0.5) {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let dense = Engine::new(&g1, &g2, &labels, &dense_params, direction).run(&RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        });
        let sparse_engine = Engine::new(&g1, &g2, &labels, &sparse_params, direction);
        for threads in [1usize, 4] {
            let sparse = sparse_engine.run(&RunOptions {
                threads: Some(threads),
                oversubscribe: true,
                ..RunOptions::default()
            });
            let what = format!("case {case}, warmup {warmup}, {threads} threads");
            assert_bitwise(&dense.sim, &sparse.sim, &what);
            assert_same_work(&dense.stats, &sparse.stats, &what);
            // δ = 0 never drops a pair — exactness is structural, not
            // a lucky threshold.
            assert_eq!(sparse.stats.sparsified_pairs, 0, "{what}");
        }
    }
}

/// δ > 0 sparse scores differ from the dense kernel by at most the
/// documented steady-state bound δ / (1 − α·c), across random graphs,
/// thresholds, warm-ups and thread counts.
#[test]
#[cfg_attr(miri, ignore)] // 40 random fixpoint cases: minutes under interpretation
fn thresholded_sparse_error_is_within_documented_bound() {
    let mut rng = StdRng::seed_from_u64(0xD05);
    for case in 0..40 {
        let (g1, g2) = random_graph_pair(&mut rng);
        let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
        // Exact solves only: the bound covers the fixpoint iteration, not
        // the estimation tail.
        let dense_params = if rng.gen_bool(0.5) {
            EmsParams::structural()
        } else {
            EmsParams::with_labels(0.7)
        };
        let delta = [0.01, 0.05, 0.1][rng.gen_range(0..3usize)];
        let warmup = rng.gen_range(1..4usize);
        let sparse_params = dense_params.clone().with_sparse(delta, warmup);
        let bound = delta / (1.0 - dense_params.alpha * dense_params.c);
        let dense = Engine::new(&g1, &g2, &labels, &dense_params, Direction::Forward)
            .run(&RunOptions::default());
        let sparse_engine = Engine::new(&g1, &g2, &labels, &sparse_params, Direction::Forward);
        for threads in [1usize, 4] {
            let sparse = sparse_engine.run(&RunOptions {
                threads: Some(threads),
                oversubscribe: true,
                ..RunOptions::default()
            });
            for (d, s) in dense.sim.data().iter().zip(sparse.sim.data()) {
                assert!(
                    (d - s).abs() <= bound,
                    "case {case}, δ={delta}, {threads} threads: |{d} - {s}| > {bound}"
                );
            }
        }
    }
}

/// The golden-trace contract extends to the new paths: the redacted
/// telemetry of the δ=0 sparse kernel — serial and through a 4-worker
/// pool — is byte-identical to the serial dense kernel's trace, and so is
/// the pooled dense kernel's. Scores are checked bitwise alongside.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn golden_trace_is_identical_for_sparse_and_pooled_kernels() {
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(0xD06);
    let mut big_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            let len = rng.gen_range(4..16usize);
            log.push_trace((0..len).map(|_| format!("a{}", rng.gen_range(0..alphabet))));
        }
        log
    };
    let g1 = DependencyGraph::from_log(&big_log(70));
    let g2 = DependencyGraph::from_log(&big_log(80));
    assert!(
        g1.num_real() * g2.num_real() >= 4096,
        "grid too small to cross the pairs-per-shard floor"
    );
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    let dense_params = EmsParams::structural();
    let sparse_params = dense_params.clone().with_sparse(0.0, 1);
    let dense_engine = Engine::new(&g1, &g2, &labels, &dense_params, Direction::Forward);
    let sparse_engine = Engine::new(&g1, &g2, &labels, &sparse_params, Direction::Forward);
    let run_traced = |engine: &Engine, threads: usize| {
        let rec = Arc::new(ems_obs::Recorder::new());
        let out = engine.run(&RunOptions {
            threads: Some(threads),
            oversubscribe: true,
            recorder: Some(Arc::clone(&rec)),
            ..RunOptions::default()
        });
        (out, ems_obs::jsonl::write_redacted(&rec.records()))
    };
    let (dense1, trace_dense1) = run_traced(&dense_engine, 1);
    let (dense4, trace_dense4) = run_traced(&dense_engine, 4);
    let (sparse1, trace_sparse1) = run_traced(&sparse_engine, 1);
    let (sparse4, trace_sparse4) = run_traced(&sparse_engine, 4);
    assert_bitwise(&dense1.sim, &dense4.sim, "dense 1 vs 4 threads");
    assert_bitwise(&dense1.sim, &sparse1.sim, "dense vs sparse serial");
    assert_bitwise(&dense1.sim, &sparse4.sim, "dense vs sparse 4 threads");
    assert_eq!(trace_dense1, trace_dense4, "dense trace 1 vs 4 threads");
    assert_eq!(trace_dense1, trace_sparse1, "dense vs sparse serial trace");
    assert_eq!(trace_dense1, trace_sparse4, "dense vs sparse pooled trace");
    assert!(trace_dense1.contains("\"type\":\"iteration\""));
    // The pooled runs really used the pool.
    assert!(dense4.stats.pool_shards > 1, "pool never sharded");
}

/// An aggressive δ collapses the worklist *below* the pairs-per-shard
/// floor mid-run, forcing the pool back onto the serial fast path while
/// workers are still parked — results must stay bit-identical between 1
/// and 4 threads through that transition.
#[test]
#[cfg_attr(miri, ignore)] // large-grid thread spawns: minutes under interpretation
fn pool_survives_worklist_collapse_mid_run() {
    let mut rng = StdRng::seed_from_u64(0xD07);
    let mut big_log = |alphabet: usize| {
        let mut log = ems_events::EventLog::new();
        for _ in 0..40 {
            let len = rng.gen_range(4..16usize);
            log.push_trace((0..len).map(|_| format!("a{}", rng.gen_range(0..alphabet))));
        }
        log
    };
    let g1 = DependencyGraph::from_log(&big_log(70));
    let g2 = DependencyGraph::from_log(&big_log(80));
    assert!(g1.num_real() * g2.num_real() >= 4096);
    let labels = LabelMatrix::zeros(g1.num_real(), g2.num_real());
    // High threshold, early engagement, tight epsilon: the Proposition-2
    // bound decays below δ around iteration 15 and the drops cascade
    // (zeroed neighbours pull survivors down), shrinking the worklist
    // from thousands of pairs to a handful — far below the
    // pairs-per-shard floor — while the run keeps iterating.
    let mut params = EmsParams::structural().with_sparse(0.35, 1);
    params.epsilon = 1e-9;
    let engine = Engine::new(&g1, &g2, &labels, &params, Direction::Forward);
    let serial = engine.run(&RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    });
    let pooled = engine.run(&RunOptions {
        threads: Some(4),
        oversubscribe: true,
        ..RunOptions::default()
    });
    assert!(
        serial.stats.sparsified_pairs as usize > g1.num_real() * g2.num_real() / 2,
        "threshold never collapsed the worklist; the transition was not exercised"
    );
    assert!(
        serial.sim.data().iter().any(|v| *v > 0.0),
        "everything sparsified — the surviving-pair path was not exercised"
    );
    assert_bitwise(&serial.sim, &pooled.sim, "worklist collapse");
    assert_same_work(&serial.stats, &pooled.stats, "worklist collapse");
    assert_eq!(
        serial.stats.sparsified_pairs, pooled.stats.sparsified_pairs,
        "sparsification must be thread-count independent"
    );
}
