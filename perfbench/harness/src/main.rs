//! Benchmark harness for `perfbench/run.py`.
//!
//! * `gen-catalog` writes the serve workloads' inputs: a reference catalog
//!   of near-duplicate process families plus unrelated decoys, and query
//!   logs that are new variants of those families. Everything is a pure
//!   function of `--seed`.
//! * `trace-pair` and `trace-serve` run one workload's ops in-process,
//!   calling each layer's public function in the order `ems match` and
//!   `ems serve` call them, and record one span per call (name, start,
//!   end, parent, op id). Spans stay in memory and are written out as one
//!   JSON document at exit, together with every op's printed output so
//!   `perfbench/run.py` can check it against the `ems` binary's output.

use ems_assignment::max_total_assignment;
use ems_catalog::{outcome_score, Catalog};
use ems_core::engine::Engine;
use ems_core::{
    persist, Aggregation, Direction, Ems, EmsParams, EngineSubstrate, LabelMeasure, MatchOutcome,
    RunOptions, RunStats, SharedSession, SimMatrix,
};
use ems_depgraph::{BoundCombine, DependencyGraph, GraphSketch, LabelBound};
use ems_events::{fingerprint_log, EventId, EventLog, SymbolTable};
use ems_obs::json::{write_escaped, write_f64};
use ems_obs::Recorder;
use ems_store::{CatalogStore, EntryStatus, SnapshotKind};
use ems_synth::{PairConfig, PairGenerator, TreeConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type Res<T> = Result<T, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-pair") => Opts::parse(&args[1..]).and_then(|o| gen_pair(&o)),
        Some("gen-catalog") => Opts::parse(&args[1..]).and_then(|o| gen_catalog(&o)),
        Some("trace-pair") => Opts::parse(&args[1..]).and_then(|o| trace_pair(&o)),
        Some("trace-serve") => Opts::parse(&args[1..]).and_then(|o| trace_serve(&o)),
        _ => Err("usage: perfbench-harness <gen-pair|gen-catalog|trace-pair|trace-serve> [--key value]...".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench-harness: {e}");
        std::process::exit(2);
    }
}

/// `--key value` pairs; a key followed by another key (or nothing) is a flag.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Res<Opts> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {}", args[i]))?;
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    map.insert(key.to_owned(), v.clone());
                    i += 2;
                }
                None => {
                    map.insert(key.to_owned(), String::new());
                    i += 1;
                }
            }
        }
        Ok(Opts(map))
    }

    fn str(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} is not a number"))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    op: i64,
    parent: Option<usize>,
    start: f64,
    end: f64,
    /// Process CPU seconds (all threads) spent inside the span, for the
    /// spans whose CPU per wall second `perfbench/run.py` reports.
    cpu: Option<f64>,
    /// A span whose duration the program reported (the engine's own phase
    /// timer) rather than one the harness timed around a call.
    derived: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: i64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: -1,
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
            cpu: None,
            derived: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end = self.now();
    }

    /// One span around `f`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// One span around `f`, also charging the process CPU time it used.
    fn cpu_span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let cpu0 = process_cpu_s();
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        self.spans[id].cpu = Some(process_cpu_s() - cpu0);
        out
    }

    /// A child of the innermost open span whose duration the program
    /// measured; it is placed at the end of the current interval.
    fn derived(&mut self, name: &'static str, seconds: f64) {
        let end = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: end - seconds,
            end,
            cpu: None,
            derived: true,
        });
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start\":{:.9},\"end\":{:.9},\"derived\":{}",
                s.name,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
                s.start,
                s.end,
                s.derived
            );
            if let Some(cpu) = s.cpu {
                let _ = write!(out, ",\"cpu\":{cpu:.6}");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// User + system CPU seconds of this process, all threads included.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is index 0,
    // utime index 11, stime index 12 (clock ticks, 100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// One op's printed output and deterministic counters.
struct OpRecord {
    output: String,
    counters: BTreeMap<&'static str, f64>,
}

fn write_report(
    path: &str,
    tracer: &Tracer,
    setup: &BTreeMap<&'static str, f64>,
    ops: &[OpRecord],
) -> Res<()> {
    let counters_json = |c: &BTreeMap<&'static str, f64>| {
        let mut out = String::from("{");
        for (i, (k, v)) in c.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            write_f64(&mut out, *v);
        }
        out.push('}');
        out
    };
    let mut out = String::from("{\"setup\":");
    out.push_str(&counters_json(setup));
    out.push_str(",\"ops\":[");
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"output\":");
        write_escaped(&mut out, &op.output);
        out.push_str(",\"counters\":");
        out.push_str(&counters_json(&op.counters));
        out.push('}');
    }
    out.push_str("],\"spans\":");
    out.push_str(&tracer.to_json());
    out.push_str("}\n");
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// `ems`'s log loading: read, strict XES parse, name the log by its path
/// when the document carries no name.
fn load(path: &str) -> Res<EventLog> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut log = ems_xes::load_event_log_str(&text, ems_xes::ParseMode::Strict)
        .map_err(|e| format!("{path}: {e}"))?
        .log;
    if log.name().is_none() {
        log.set_name(path);
    }
    Ok(log)
}

// ---------------------------------------------------------------------
// trace-pair: the `ems match a.xes b.xes --quiet` pipeline
// ---------------------------------------------------------------------

fn trace_pair(o: &Opts) -> Res<()> {
    let (p1, p2) = (o.str("log1")?, o.str("log2")?);
    let ops: usize = o.num("ops")?;
    // `ems match` defaults: alpha 1, c 0.8, q-gram labels, all cores.
    let mut params = EmsParams {
        alpha: 1.0,
        label_measure: LabelMeasure::QgramCosine,
        c: 0.8,
        threads: 0,
        ..EmsParams::default()
    };
    if o.flag("estimate") {
        params.estimate_after = Some(o.num("estimate")?);
    }
    let min_score = 0.05;
    let ems = Ems::try_new(params.clone()).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut records = Vec::with_capacity(ops);
    for op in 0..ops {
        tracer.op = op as i64;
        let root = tracer.enter("op");
        let (l1, l2) = tracer.span("xes.parse", || Ok::<_, String>((load(p1)?, load(p2)?)))?;
        let mut table = SymbolTable::new();
        let (g1, g2) = tracer.span("depgraph.model", || {
            (
                DependencyGraph::from_log_in(&l1, &mut table),
                DependencyGraph::from_log_in(&l2, &mut table),
            )
        });
        let fwd_sub = tracer.span("substrate.build", || {
            Arc::new(EngineSubstrate::build(
                &g1,
                &g2,
                Direction::Forward,
                params.c,
            ))
        });
        let bwd_sub = tracer.span("substrate.build", || {
            Arc::new(EngineSubstrate::build(
                &g1,
                &g2,
                Direction::Backward,
                params.c,
            ))
        });
        let labels = tracer.span("labels.build", || ems.label_matrix(&l1, &l2));
        let solve = |direction, sub| {
            Engine::try_with_substrate(&g1, &g2, &labels, &params, direction, sub)
                .and_then(|e| e.try_run(&RunOptions::default()))
                .map_err(|e| e.to_string())
        };
        let fwd = tracer.cpu_span("engine.fwd", || solve(Direction::Forward, fwd_sub))?;
        let bwd = tracer.cpu_span("engine.bwd", || solve(Direction::Backward, bwd_sub))?;
        let similarity = tracer.span("core.aggregate", || {
            let mut s = SimMatrix::zeros(fwd.sim.rows(), fwd.sim.cols());
            for (i, j, f) in fwd.sim.iter() {
                s.set(i, j, params.aggregation.combine(f, bwd.sim.get(i, j)));
            }
            s
        });
        let cs = tracer.span("assignment.solve", || {
            max_total_assignment(
                similarity.rows(),
                similarity.cols(),
                |i, j| similarity.get(i, j),
                min_score,
            )
        });
        let output = tracer.span("output.format", || {
            let mut out = String::new();
            for c in &cs {
                let left = l1.name_of(EventId::from_index(c.left));
                let right = l2.name_of(EventId::from_index(c.right));
                let _ = writeln!(out, "{left}\t{right}\t{:.4}", c.score);
            }
            out
        });
        tracer.exit(root);
        let mut counters = BTreeMap::new();
        counters.insert(
            "edges",
            (g1.real_edges().len() + g2.real_edges().len()) as f64,
        );
        counters.insert(
            "iterations",
            (fwd.stats.iterations + bwd.stats.iterations) as f64,
        );
        counters.insert(
            "formula_evals",
            (fwd.stats.formula_evals + bwd.stats.formula_evals) as f64,
        );
        counters.insert(
            "pruned_evals",
            (fwd.stats.pruned_evals + bwd.stats.pruned_evals) as f64,
        );
        counters.insert(
            "estimated_pairs",
            (fwd.stats.estimated_pairs + bwd.stats.estimated_pairs) as f64,
        );
        counters.insert("assignment_pairs", cs.len() as f64);
        records.push(OpRecord { output, counters });
    }
    write_report(o.str("out")?, &tracer, &BTreeMap::new(), &records)
}

// ---------------------------------------------------------------------
// trace-serve: the `ems serve` admission and per-query path
// ---------------------------------------------------------------------

struct Reference {
    name: String,
    log: EventLog,
    fingerprint: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn read_list(path: &str) -> Res<Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect())
}

fn trace_serve(o: &Opts) -> Res<()> {
    let root_dir = o.str("store")?;
    let k: usize = o.num("k")?;
    let alpha: f64 = o.num("alpha")?;
    let warm = if o.flag("warm") {
        read_list(o.str("warm")?)?
    } else {
        Vec::new()
    };
    let queries = read_list(o.str("queries")?)?;
    let mut tracer = Tracer::new();
    let mut setup = BTreeMap::new();

    // Set-up, as `ems serve` performs it: open the store, then admit every
    // valid reference-log snapshot in key order.
    let setup_root = tracer.enter("setup");
    let recorder = Arc::new(Recorder::new());
    let store = tracer.span("store.open", || {
        CatalogStore::open(root_dir).map_err(|e| e.to_string())
    })?;
    let store = Arc::new(store.with_recorder(Arc::clone(&recorder)));
    let params = EmsParams {
        alpha,
        label_measure: if o.flag("exact-labels") {
            LabelMeasure::ExactName
        } else {
            LabelMeasure::QgramCosine
        },
        c: 0.8,
        ..EmsParams::default()
    };
    let shared = Arc::new(
        SharedSession::try_new(params)
            .map_err(|e| e.to_string())?
            .with_min_frequency(0.0)
            .with_store(Arc::clone(&store))
            .with_recorder(Arc::clone(&recorder)),
    );
    let mut catalog = Catalog::new(Arc::clone(&shared))
        .with_store(Arc::clone(&store))
        .with_recorder(Arc::clone(&recorder));
    let mut keys: Vec<u64> = tracer
        .span("store.list", || store.list().map_err(|e| e.to_string()))?
        .into_iter()
        .filter(|e| e.kind == Some(SnapshotKind::Log) && matches!(e.status, EntryStatus::Ok))
        .filter_map(|e| e.key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut refs: Vec<Reference> = Vec::new();
    for key in keys {
        let log = tracer.span("store.read", || {
            store
                .get(SnapshotKind::Log, key, persist::LOG_PAYLOAD_VERSION)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("log {key:016x} vanished"))
                .and_then(|bytes| persist::decode_log(&bytes).map_err(|e| e.to_string()))
        })?;
        let name = log
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("log-{key:016x}"));
        let fingerprint = fingerprint_log(&log);
        let index = tracer.span("catalog.admit", || catalog.add(name.clone(), log.clone()));
        if index != refs.len() {
            return Err(format!("reference {name} collided on content"));
        }
        refs.push(Reference {
            name,
            log,
            fingerprint,
        });
    }
    tracer.exit(setup_root);
    setup.insert("references", refs.len() as f64);
    setup.insert("pinned_bytes", catalog.pinned_bytes() as f64);

    // The warm pass (part of set-up), then the measured ops.
    let mut records = Vec::with_capacity(queries.len());
    let mut bytes_before = dir_bytes(Path::new(root_dir));
    for (i, q) in warm.iter().chain(&queries).enumerate() {
        let measured = i >= warm.len();
        tracer.op = if measured {
            (i - warm.len()) as i64
        } else {
            -2
        };
        let before = shared.stats();
        let (output, mut counters) = serve_query(&mut tracer, &shared, &catalog, &refs, q, k)?;
        let after = shared.stats();
        let bytes_after = dir_bytes(Path::new(root_dir));
        if measured {
            counters.insert(
                "outcome_hits",
                (after.outcome_cache_hits - before.outcome_cache_hits) as f64,
            );
            counters.insert(
                "substrate_builds",
                (after.substrate_builds - before.substrate_builds) as f64,
            );
            counters.insert(
                "label_builds",
                (after.label_builds - before.label_builds) as f64,
            );
            counters.insert(
                "store_bytes_written",
                bytes_after.saturating_sub(bytes_before) as f64,
            );
            records.push(OpRecord { output, counters });
        }
        bytes_before = bytes_after;
    }
    write_report(o.str("out")?, &tracer, &setup, &records)
}

/// One `ems serve` request: load the query, model it, score every
/// reference's sketch bound, then solve exactly in descending bound order
/// until the remaining bounds fall strictly below the k-th best exact
/// score (the `Catalog::query_top_k` planner, step by step).
fn serve_query(
    tracer: &mut Tracer,
    shared: &SharedSession,
    catalog: &Catalog,
    refs: &[Reference],
    path: &str,
    k: usize,
) -> Res<(String, BTreeMap<&'static str, f64>)> {
    let root = tracer.enter("op");
    let log = tracer.span("xes.parse", || load(path))?;
    let (qfp, qg) = tracer.span("depgraph.model", || {
        let fp = fingerprint_log(&log);
        (fp, shared.graph_keyed(fp, &log))
    });
    let params = shared.params();
    let order = tracer.span("catalog.bounds", || {
        let qsketch = GraphSketch::of(&qg);
        let combine = match params.aggregation {
            Aggregation::Average => BoundCombine::Average,
            _ => BoundCombine::Max,
        };
        let labels = match (params.alpha < 1.0, params.label_measure) {
            (true, LabelMeasure::ExactName) => LabelBound::ExactName,
            _ => LabelBound::Any,
        };
        let mut order: Vec<(usize, f64, f64)> = (0..refs.len())
            .filter_map(|i| catalog.sketch(i).map(|s| (i, s)))
            .map(|(i, s)| {
                (
                    i,
                    qsketch.score_upper_bound(s, params.alpha, params.c, combine, labels),
                    qsketch.label_jaccard_estimate(s),
                )
            })
            .collect();
        order.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then(b.2.total_cmp(&a.2))
                .then(a.0.cmp(&b.0))
        });
        order
    });
    let mut counters = BTreeMap::new();
    counters.insert("edges", qg.real_edges().len() as f64);
    let mut exact: Vec<(f64, usize)> = Vec::new();
    let mut pruned = 0usize;
    let mut run_stats = RunStats::default();
    for (pos, &(i, bound, _)) in order.iter().enumerate() {
        if exact.len() >= k && bound < exact[k - 1].0 {
            pruned = order.len() - pos;
            break;
        }
        let r = &refs[i];
        let hits_before = shared.stats().outcome_cache_hits;
        let id = tracer.enter("catalog.exact");
        let cpu0 = process_cpu_s();
        let graph = shared.graph_keyed(r.fingerprint, &r.log);
        let outcome: MatchOutcome = shared
            .try_match_modeled(qfp, &log, &qg, r.fingerprint, &r.log, &graph)
            .map_err(|e| e.to_string())?;
        let score = outcome_score(&outcome);
        if shared.stats().outcome_cache_hits == hits_before {
            let t = outcome.stats.phase_times;
            tracer.derived(
                "engine.solve",
                (t.setup + t.exact + t.estimation).as_secs_f64(),
            );
            run_stats.merge(&outcome.stats);
        }
        tracer.exit(id);
        tracer.spans[id].cpu = Some(process_cpu_s() - cpu0);
        let at = exact
            .binary_search_by(|(s, j)| score.total_cmp(s).then(j.cmp(&i)))
            .unwrap_or_else(|e| e);
        exact.insert(at, (score, i));
    }
    let evaluated = exact.len();
    let output = tracer.span("output.format", || {
        let mut out = String::from("{\"query\":");
        write_escaped(&mut out, path);
        let _ = write!(out, ",\"k\":{k},\"ranked\":[");
        for (n, &(score, i)) in exact.iter().take(k).enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str("{\"ref\":");
            write_escaped(&mut out, &refs[i].name);
            out.push_str(",\"ems_score\":");
            write_f64(&mut out, score);
            out.push('}');
        }
        let _ = write!(out, "],\"pruned\":{pruned},\"evaluated\":{evaluated}}}");
        out
    });
    tracer.exit(root);
    counters.insert("evaluated", evaluated as f64);
    counters.insert("pruned", pruned as f64);
    counters.insert("iterations", run_stats.iterations as f64);
    counters.insert("formula_evals", run_stats.formula_evals as f64);
    counters.insert("pruned_evals", run_stats.pruned_evals as f64);
    counters.insert("estimated_pairs", run_stats.estimated_pairs as f64);
    Ok((output, counters))
}

// ---------------------------------------------------------------------
// gen-catalog: the serve workloads' reference catalog and queries
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One clean playout of a generated process tree.
fn base_log(activities: usize, traces: usize, tree_seed: u64, playout_seed: u64) -> EventLog {
    PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: activities,
            seed: tree_seed,
            max_branch: (activities / 4).max(4),
            ..TreeConfig::default()
        },
        traces_per_log: traces,
        seed: playout_seed,
        ..PairConfig::default()
    })
    .generate()
    .log1
}

/// A deployment variant of `base`: the traces at `drop` removed, every
/// activity carried into the family's namespace via `prefix`, and every
/// `opaque_stride`-th activity renamed to a site-local opaque token.
fn variant(
    base: &EventLog,
    name: &str,
    drop: &[usize],
    prefix: &str,
    opaque_stride: usize,
) -> EventLog {
    let mut out = EventLog::with_name(name);
    for (i, tr) in base.traces().iter().enumerate() {
        if drop.contains(&i) {
            continue;
        }
        out.push_trace(tr.events().iter().map(|&id| {
            let idx = id.index();
            if opaque_stride > 0 && idx % opaque_stride == 0 {
                format!("{prefix}opaque{idx}")
            } else {
                format!("{prefix}{}", base.name_of(id))
            }
        }));
    }
    out
}

/// The pair workloads' input: `ems synth`'s pair generator (same
/// configuration as the CLI) over one fixed process tree, so the pair's
/// shape and cost stay put while `--seed` varies the recorded traces, the
/// second system's branch weights and its opaque names.
fn gen_pair(o: &Opts) -> Res<()> {
    let activities: usize = o.num("activities")?;
    let out = Path::new(o.str("out")?);
    let pair = PairGenerator::new(PairConfig {
        tree: TreeConfig {
            num_activities: activities,
            seed: o.num("tree-seed")?,
            max_branch: (activities / 4).max(4),
            ..TreeConfig::default()
        },
        traces_per_log: o.num("traces")?,
        seed: o.num("seed")?,
        opaque_fraction: 1.0,
        xor_jitter: 0.25,
        ..PairConfig::default()
    })
    .generate();
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    write_xes(&pair.log1, &out.join("a.xes"))?;
    write_xes(&pair.log2, &out.join("b.xes"))?;
    let mut truth = String::new();
    for (l, r) in pair.truth.iter() {
        let _ = writeln!(truth, "{l}\t{r}");
    }
    std::fs::write(out.join("truth.tsv"), truth).map_err(|e| e.to_string())
}

fn write_xes(log: &EventLog, path: &Path) -> Res<()> {
    ems_xes::write_file(&ems_xes::from_event_log(log), path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn gen_catalog(o: &Opts) -> Res<()> {
    let seed: u64 = o.num("seed")?;
    let out = Path::new(o.str("out")?);
    let (n_refs, families, variants): (usize, usize, usize) =
        (o.num("refs")?, o.num("families")?, o.num("variants")?);
    let (activities, traces, n_queries): (usize, usize, usize) =
        (o.num("activities")?, o.num("traces")?, o.num("queries")?);
    if families * variants > n_refs || traces < 24 {
        return Err("need refs >= families * variants and traces >= 24".into());
    }
    for sub in ["refs", "queries"] {
        std::fs::create_dir_all(out.join(sub)).map_err(|e| e.to_string())?;
    }
    let mut manifest = String::from("{\"refs\":[");
    // Process trees are fixed per family and per decoy, so the catalog's
    // shape and the per-query cost stay put across seeds; `--seed` varies
    // the recorded traces.
    let bases: Vec<EventLog> = (0..families as u64)
        .map(|f| base_log(activities, traces, 100 + f, mix(seed, f)))
        .collect();
    // Reference variants drop distinct trace pairs from the family's
    // playout; queries drop pairs from a disjoint range, so every query is
    // new content and no query equals a reference.
    let ref_drop = |v: usize| [2 * v, 2 * v + 7];
    let mut entries = Vec::new();
    for (f, base) in bases.iter().enumerate() {
        for v in 0..variants {
            let name = format!("f{f}v{v}");
            entries.push((
                name.clone(),
                Some(f),
                variant(base, &name, &ref_drop(v), &format!("f{f}:"), 0),
            ));
        }
    }
    for d in 0..(n_refs - families * variants) as u64 {
        let base = base_log(activities, traces, 300 + d, mix(seed, 1000 + d));
        let name = format!("d{d}");
        entries.push((
            name.clone(),
            None,
            variant(&base, &name, &[], &format!("d{d}:"), 0),
        ));
    }
    for (i, (name, family, log)) in entries.iter().enumerate() {
        let file = out.join("refs").join(format!("{name}.xes"));
        write_xes(log, &file)?;
        if i > 0 {
            manifest.push(',');
        }
        let _ = write!(
            manifest,
            "{{\"file\":\"refs/{name}.xes\",\"name\":\"{name}\",\"family\":{}}}",
            family.map_or("null".to_owned(), |f| f.to_string())
        );
    }
    manifest.push_str("],\"queries\":[");
    let lo = 2 * variants + 8;
    let span = traces - lo;
    for q in 0..n_queries {
        let (f, w) = (q % families, q / families);
        let drop = [lo + w % span, lo + (w / span + 1 + w) % span];
        let name = format!("q{q:03}f{f}");
        let log = variant(&bases[f], &name, &drop, &format!("f{f}:"), 12);
        write_xes(&log, &out.join("queries").join(format!("{name}.xes")))?;
        if q > 0 {
            manifest.push(',');
        }
        let _ = write!(
            manifest,
            "{{\"file\":\"queries/{name}.xes\",\"family\":{f}}}"
        );
    }
    manifest.push_str("]}\n");
    std::fs::write(out.join("manifest.json"), manifest).map_err(|e| e.to_string())
}
