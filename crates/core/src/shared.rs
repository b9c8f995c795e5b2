//! The staged, reusable matching pipeline: **model → substrate → labels →
//! solve → aggregate**, cached by content fingerprint and safe to share
//! between threads.
//!
//! [`crate::Ems`] is one-shot: every call re-derives the dependency graphs,
//! the label matrix and the kernel substrate even when the inputs did not
//! change. A [`SharedSession`] makes each stage's product explicit and
//! caches it by *content fingerprint* (FNV-1a over names, frequencies and
//! adjacency — see [`ems_events::fingerprint_log`] and
//! [`ems_depgraph::DependencyGraph::fingerprint`]), so matching N logs
//! against one reference builds the reference-side model once, and
//! re-matching an unchanged pair is a lookup in the outcome cache. One
//! session serves `ems match`, `ems serve` and the catalog alike.
//!
//! Symbols are interned once per session ([`SymbolTable`]): every graph the
//! session builds shares one table, so label identity across logs is a `u32`
//! comparison, never a string comparison.
//!
//! # Locking
//!
//! Every method takes `&self`. Each cache sits behind its own `RwLock` of
//! `Arc`ed products:
//!
//! * lookups take a read lock only;
//! * a miss builds **outside** any cache lock, then inserts under a write
//!   lock with a re-check — two workers racing on the same product build
//!   it twice and keep the first insert, never block each other for the
//!   duration of a build, and always observe identical bytes because
//!   every product is a deterministic function of the inputs;
//! * the solve stage runs entirely on `Arc` snapshots, lock-free.
//!
//! Locks are never nested (the symbol table mutex is held only while a
//! graph is built or decoded, with no cache lock held), so no lock-order
//! cycle exists by construction.
//!
//! # Outcome cache and per-call options
//!
//! A plain call — [`SessionOptions::default`] — is served from the outcome
//! cache when the same content pair was solved before, and fills it
//! otherwise. A budget, engine recorder, fault injector or warm-start prior
//! makes the call observably different from a replay, so such calls bypass
//! the outcome cache entirely (neither read nor write); they still share
//! every build-stage cache.
//!
//! # Warm starts
//!
//! [`SessionOptions::prior`] seeds both direction runs from a previous
//! outcome of the same pair space. This is sound by Theorem 1: the
//! similarity update is monotone with a unique fixpoint, so iteration
//! converges to the same matrix from any start at or below it — and a
//! previously converged matrix of the same pair space is such a start. A
//! prior whose shape does not fit the pair is skipped, not rejected. On
//! graphs whose pairs all have finite Proposition-2 horizons (acyclic
//! dependency graphs) with pruning enabled, the warm run is bitwise
//! stationary: every pair's neighbors retire strictly before the pair's own
//! horizon, so re-evaluating the old fixpoint reproduces it exactly and the
//! run converges in one iteration with a bit-identical matrix (pinned by the
//! `session_reuse` golden tests).
//!
//! # Durable tier
//!
//! With a catalog store attached ([`SharedSession::with_store`]) every build
//! stage gains a disk tier between the in-memory cache and a rebuild:
//! memory hit → store hit (decode a checksummed snapshot) → rebuild (and
//! best-effort re-persist). Store failures never fail a match — a corrupt
//! or wrongly shaped snapshot is quarantined and the product rebuilt from
//! source, an I/O failure simply degrades to a rebuild — so the durable
//! tier is purely an availability optimization with no effect on results
//! (pinned by the disk-warm bit-identity tests and the `chaos_store` sweep).
//!
//! # Telemetry
//!
//! Two recorders with distinct roles:
//!
//! * the **session recorder** ([`SharedSession::with_recorder`]) receives
//!   the stage spans (`session.model`, `session.substrate`), the cache
//!   counters (`session.graph_cache`, `session.substrate_cache`,
//!   `session.label_cache`, `session.outcome_cache`, `session.warm_start`),
//!   the graph gauges, the `prof.session.match.*` profiler scopes and the
//!   `session.store_fetch_us` histogram. Everything but the counters is
//!   accumulated per call and flushed when the call ends;
//! * the **engine recorder** ([`SessionOptions::recorder`]) is handed to the
//!   solve stage only, so a cached re-match emits an engine trace
//!   byte-identical to the cold run's.
//!
//! ```
//! use ems_core::{EmsParams, SharedSession};
//! use ems_events::EventLog;
//!
//! let mut reference = EventLog::new();
//! reference.push_trace(["a", "b", "c"]);
//! let mut observed = EventLog::new();
//! observed.push_trace(["x", "y", "z"]);
//!
//! let session = SharedSession::try_new(EmsParams::structural()).unwrap();
//! let cold = session.try_match(&reference, &observed).unwrap();
//! let cached = session.try_match(&reference, &observed).unwrap(); // no rebuild, no solve
//! assert!(cold.similarity.max_abs_diff(&cached.similarity) == 0.0);
//! assert_eq!(session.stats().graph_builds, 2);
//! assert_eq!(session.stats().substrate_builds, 2); // one per direction — built once
//! assert_eq!(session.stats().outcome_cache_hits, 1);
//! ```

use crate::engine::{Budget, Engine, RunOptions, Seed};
use crate::error::CoreError;
use crate::matcher::{aggregate_directions, label_matrix_for, MatchOutcome};
use crate::params::{Direction, EmsParams};
use crate::persist;
use crate::substrate::EngineSubstrate;
use ems_depgraph::{filter_min_frequency, observe_graph, DependencyGraph};
use ems_error::EmsError;
use ems_events::{fingerprint_log, EventLog, SymbolTable};
use ems_faults::{FaultInjector, FaultKind, FaultSite};
use ems_labels::LabelMatrix;
use ems_obs::{Histogram, Recorder};
use ems_prof::{ProfScope, Profiler};
use ems_store::{CatalogStore, SnapshotKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Per-call options for [`SharedSession::try_match_opts`]. Any non-default
/// field bypasses the outcome cache (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions<'a> {
    /// Resource budget for each direction's run.
    pub budget: Budget,
    /// Engine-level telemetry sink, passed through to the solve stage only —
    /// session stage spans and cache counters go to the *session* recorder
    /// ([`SharedSession::with_recorder`]), keeping this trace byte-comparable
    /// between cold and cached runs.
    pub recorder: Option<Arc<Recorder>>,
    /// Deterministic fault injector consulted at the ingest and solve stage
    /// boundaries (store-level sites are consulted by the store itself —
    /// share one injector between both for a coherent schedule). A transient
    /// ingest fault is absorbed; a terminal one surfaces as
    /// [`CoreError::FaultInjected`]. A solve-stage budget-exhaustion fault
    /// clamps the run budget so the engine degrades to estimation instead
    /// of failing.
    pub injector: Option<Arc<FaultInjector>>,
    /// A previous outcome of this pair to warm-start both direction runs
    /// from (Theorem 1); skipped when its shape does not fit the pair.
    pub prior: Option<&'a MatchOutcome>,
}

impl SessionOptions<'_> {
    /// A plain replay: the only kind of call the outcome cache serves.
    fn is_plain(&self) -> bool {
        self.budget.is_unlimited()
            && self.recorder.is_none()
            && self.injector.is_none()
            && self.prior.is_none()
    }
}

/// Counters describing the session's cache behavior and the setup work it
/// performed, attributed once at session level (runs executed against cached
/// substrates report zero setup in their own [`crate::PhaseTimes`] — see
/// `session_attributes_setup_once` in the tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Dependency graphs built (model-stage cache misses).
    pub graph_builds: u64,
    /// Model-stage cache hits.
    pub graph_cache_hits: u64,
    /// [`EngineSubstrate`]s built (substrate-stage cache misses).
    pub substrate_builds: u64,
    /// Substrate-stage cache hits.
    pub substrate_cache_hits: u64,
    /// Label matrices computed.
    pub label_builds: u64,
    /// Label-stage cache hits.
    pub label_cache_hits: u64,
    /// Solve-stage runs seeded from a prior outcome.
    pub warm_starts: u64,
    /// Full matches served from the outcome cache (both solves skipped).
    pub outcome_cache_hits: u64,
    /// Build products served from the durable store (snapshot decoded).
    pub store_hits: u64,
    /// Durable-store lookups that found no snapshot.
    pub store_misses: u64,
    /// Snapshots quarantined (envelope- or payload-level corruption) and
    /// rebuilt from source.
    pub store_quarantines: u64,
    /// Durable-store reads that failed with an I/O error (degraded to a
    /// rebuild).
    pub store_read_failures: u64,
    /// Best-effort snapshot writes that failed (the match still succeeded).
    pub store_write_failures: u64,
    /// Total wall-clock setup the session performed (graph + substrate
    /// builds) — the single authoritative setup attribution for all runs
    /// the session executed.
    pub setup: Duration,
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    match lock.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Inserts a product under the write lock with a re-check: a racing worker
/// may have landed the identical product first — keep theirs so every
/// caller shares one allocation.
fn keep<K: Ord, T>(cache: &RwLock<BTreeMap<K, Arc<T>>>, key: K, value: T) -> Arc<T> {
    Arc::clone(
        write_lock(cache)
            .entry(key)
            .or_insert_with(|| Arc::new(value)),
    )
}

fn injected(site: FaultSite, kind: FaultKind) -> CoreError {
    CoreError::FaultInjected {
        site: site.name().to_string(),
        kind: kind.name().to_string(),
    }
}

/// The staged matching pipeline behind shared caches; see the module docs.
#[derive(Debug)]
pub struct SharedSession {
    params: EmsParams,
    /// Minimum edge frequency applied when building graphs. A session
    /// constant, so it is not part of the in-memory cache keys.
    min_frequency: f64,
    table: Mutex<SymbolTable>,
    /// Model cache: log content fingerprint → dependency graph.
    graphs: RwLock<BTreeMap<u64, Arc<DependencyGraph>>>,
    /// Substrate cache: (graph fp 1, graph fp 2, direction) → substrate.
    substrates: RwLock<BTreeMap<(u64, u64, u8), Arc<EngineSubstrate>>>,
    /// Label cache: (log fp 1, log fp 2) → label matrix.
    labels: RwLock<BTreeMap<(u64, u64), Arc<LabelMatrix>>>,
    /// Outcome cache: (log fp 1, log fp 2) → full match result, read and
    /// written by plain calls only.
    outcomes: RwLock<BTreeMap<(u64, u64), MatchOutcome>>,
    store: Option<Arc<CatalogStore>>,
    recorder: Option<Arc<Recorder>>,
    stats: Mutex<SessionStats>,
}

impl SharedSession {
    /// Creates a session, validating the parameters.
    pub fn try_new(params: EmsParams) -> Result<Self, CoreError> {
        params.validate().map_err(CoreError::InvalidParams)?;
        Ok(SharedSession {
            params,
            min_frequency: 0.0,
            table: Mutex::new(SymbolTable::new()),
            graphs: RwLock::new(BTreeMap::new()),
            substrates: RwLock::new(BTreeMap::new()),
            labels: RwLock::new(BTreeMap::new()),
            outcomes: RwLock::new(BTreeMap::new()),
            store: None,
            recorder: None,
            stats: Mutex::new(SessionStats::default()),
        })
    }

    /// Attaches a durable catalog store as the tier between the in-memory
    /// caches and a rebuild (see the module docs). Store failures never
    /// fail a match.
    pub fn with_store(mut self, store: Arc<CatalogStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches the session telemetry sink (stage spans, cache counters,
    /// profiler scopes).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the minimum edge frequency applied when building graphs
    /// (Section 2 filtering).
    pub fn with_min_frequency(mut self, threshold: f64) -> Self {
        self.min_frequency = threshold;
        self
    }

    /// The session's parameters.
    pub fn params(&self) -> &EmsParams {
        &self.params
    }

    /// Snapshot of the cache and setup counters.
    pub fn stats(&self) -> SessionStats {
        *mutex_lock(&self.stats)
    }

    /// The dependency graph of a log (session min-frequency filter
    /// applied), served from memory, the durable store, or a build.
    pub fn graph(&self, log: &EventLog) -> Arc<DependencyGraph> {
        self.graph_keyed(fingerprint_log(log), log)
    }

    /// [`graph`](Self::graph) with the log's content fingerprint already
    /// known (the catalog fingerprints at admission time).
    pub fn graph_keyed(&self, fingerprint: u64, log: &EventLog) -> Arc<DependencyGraph> {
        Call::new(self, None).model(fingerprint, log, None)
    }

    /// Matches two logs as a plain call. Bit-identical to the same pair
    /// through one-shot [`crate::Ems`].
    pub fn try_match(&self, log1: &EventLog, log2: &EventLog) -> Result<MatchOutcome, CoreError> {
        self.try_match_opts(log1, log2, &SessionOptions::default())
    }

    /// Matches two logs with per-call options (budget, engine recorder,
    /// fault injector, warm-start prior).
    pub fn try_match_opts(
        &self,
        log1: &EventLog,
        log2: &EventLog,
        options: &SessionOptions<'_>,
    ) -> Result<MatchOutcome, CoreError> {
        self.run(Side::of(log1), Side::of(log2), options)
    }

    /// A plain match when both graphs are already in hand (the catalog
    /// pins reference graphs itself).
    pub fn try_match_modeled(
        &self,
        fp1: u64,
        log1: &EventLog,
        g1: &Arc<DependencyGraph>,
        fp2: u64,
        log2: &EventLog,
        g2: &Arc<DependencyGraph>,
    ) -> Result<MatchOutcome, CoreError> {
        let side = |fp, log, graph| Side {
            fp,
            log,
            graph: Some(graph),
        };
        self.run(
            side(fp1, log1, g1),
            side(fp2, log2, g2),
            &SessionOptions::default(),
        )
    }

    /// Drops a graph and every substrate involving it from the in-memory
    /// caches — the catalog's eviction hook. The durable store keeps its
    /// snapshots, so the next access disk-warms (or rebuilds from the
    /// source log); evicting is an availability/memory trade, never a
    /// correctness event.
    pub fn evict_graph(&self, fingerprint: u64) {
        write_lock(&self.graphs).remove(&fingerprint);
        write_lock(&self.substrates).retain(|k, _| k.0 != fingerprint && k.1 != fingerprint);
    }

    /// The one solve tail behind every match entry point.
    fn run(
        &self,
        s1: Side<'_>,
        s2: Side<'_>,
        options: &SessionOptions<'_>,
    ) -> Result<MatchOutcome, CoreError> {
        // One `session.match` profiler scope per call, with the build
        // stages nested beneath it.
        let profiler = self.recorder.clone().map(Profiler::new);
        let mut match_scope = profiler.as_ref().map(|pf| pf.scope("session.match"));
        let mut call = Call::new(self, profiler.as_ref());

        let plain = options.is_plain();
        if plain {
            let cached = read_lock(&self.outcomes).get(&(s1.fp, s2.fp)).cloned();
            if let Some(outcome) = cached {
                mutex_lock(&self.stats).outcome_cache_hits += 1;
                self.count("session.outcome_cache", &[("result", "hit")]);
                if let Some(s) = match_scope.as_mut() {
                    s.count("outcome_cache_hits", 1);
                }
                return Ok(outcome);
            }
        }

        // Ingest-boundary fault point: a transient fault is absorbed (the
        // inputs are already in memory); a terminal one is a typed error.
        if let Some(kind) = options
            .injector
            .as_deref()
            .and_then(|i| i.next_op(FaultSite::Ingest))
        {
            if !kind.is_transient() {
                return Err(injected(FaultSite::Ingest, kind));
            }
        }

        let g1 = s1
            .graph
            .cloned()
            .unwrap_or_else(|| call.model(s1.fp, s1.log, Some("log1")));
        let g2 = s2
            .graph
            .cloned()
            .unwrap_or_else(|| call.model(s2.fp, s2.log, Some("log2")));
        let fwd_sub = call.substrate(&g1, &g2, Direction::Forward);
        let bwd_sub = call.substrate(&g1, &g2, Direction::Backward);
        let labels = call.labels(s1, s2);

        // Solve-boundary fault point: budget exhaustion clamps the run
        // budget — the engine degrades to estimation rather than failing.
        let mut budget = options.budget.clone();
        if let Some(injector) = options.injector.as_deref() {
            match injector.next_op(FaultSite::Solve) {
                Some(FaultKind::BudgetExhaust) => budget.max_iterations = Some(1),
                Some(kind) if !kind.is_transient() => {
                    return Err(injected(FaultSite::Solve, kind));
                }
                _ => {}
            }
        }

        let (fwd_seed, bwd_seed) = options
            .prior
            .and_then(|prior| warm_seeds(prior, g1.num_real(), g2.num_real()))
            .unzip();
        if fwd_seed.is_some() {
            mutex_lock(&self.stats).warm_starts += 1;
            self.count("session.warm_start", &[]);
        }
        // The engines charge zero setup: the session attributed it.
        let solve = |direction, substrate, seed| {
            Engine::try_with_substrate(&g1, &g2, &labels, &self.params, direction, substrate)?
                .try_run(&RunOptions {
                    seed,
                    budget: budget.clone(),
                    recorder: options.recorder.clone(),
                    ..RunOptions::default()
                })
        };
        let fwd = solve(Direction::Forward, fwd_sub, fwd_seed)?;
        let bwd = solve(Direction::Backward, bwd_sub, bwd_seed)?;

        let outcome = aggregate_directions(&self.params, fwd, bwd);
        if plain {
            write_lock(&self.outcomes)
                .entry((s1.fp, s2.fp))
                .or_insert_with(|| outcome.clone());
        }
        if let Some(s) = match_scope.as_mut() {
            s.count("builds", call.builds);
            s.count("cache_hits", call.hits);
            s.count("solves", 2);
        }
        Ok(outcome)
    }

    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        if let Some(rec) = self.recorder.as_deref() {
            rec.counter_add(name, ems_obs::labels(labels), 1);
        }
    }
}

/// The warm seeds for a pair: the prior's fixpoints, if they fit the
/// current pair space (a stale-shaped prior is skipped, not an error).
fn warm_seeds(prior: &MatchOutcome, n1: usize, n2: usize) -> Option<(Seed, Seed)> {
    let fits = |m: &crate::SimMatrix| m.rows() == n1 && m.cols() == n2;
    if !fits(&prior.forward) || !fits(&prior.backward) {
        return None;
    }
    let seed = |values: &crate::SimMatrix| Seed {
        values: values.clone(),
        frozen: vec![false; n1 * n2],
    };
    Some((seed(&prior.forward), seed(&prior.backward)))
}

/// One side of a match: a log, its content fingerprint, and its graph when
/// the caller already holds it.
#[derive(Clone, Copy)]
struct Side<'a> {
    fp: u64,
    log: &'a EventLog,
    graph: Option<&'a Arc<DependencyGraph>>,
}

impl<'a> Side<'a> {
    fn of(log: &'a EventLog) -> Self {
        Side {
            fp: fingerprint_log(log),
            log,
            graph: None,
        }
    }
}

/// A cached build stage: its profiler scope, cache counter, build span
/// (for the stages whose build is setup work), snapshot codec, and its
/// (cache hits, builds) counters.
struct Stage {
    scope: &'static str,
    counter: &'static str,
    span: Option<&'static str>,
    kind: SnapshotKind,
    version: u32,
    counters: fn(&mut SessionStats) -> (&mut u64, &mut u64),
}

const MODEL: Stage = Stage {
    scope: "model",
    counter: "session.graph_cache",
    span: Some("session.model"),
    kind: SnapshotKind::Graph,
    version: persist::GRAPH_PAYLOAD_VERSION,
    counters: |s| (&mut s.graph_cache_hits, &mut s.graph_builds),
};

const SUBSTRATE: Stage = Stage {
    scope: "substrate",
    counter: "session.substrate_cache",
    span: Some("session.substrate"),
    kind: SnapshotKind::Substrate,
    version: persist::SUBSTRATE_PAYLOAD_VERSION,
    counters: |s| (&mut s.substrate_cache_hits, &mut s.substrate_builds),
};

const LABELS: Stage = Stage {
    scope: "labels",
    counter: "session.label_cache",
    span: None,
    kind: SnapshotKind::Labels,
    version: persist::LABELS_PAYLOAD_VERSION,
    counters: |s| (&mut s.label_cache_hits, &mut s.label_builds),
};

/// Where a stage's product came from.
#[derive(Clone, Copy)]
enum Tier {
    Memory,
    Disk,
    /// Rebuilt from source, with the setup time the build took.
    Built(Duration),
}

/// The build stages of one call, with the call's own telemetry: profiler
/// scopes, build/hit tallies and the store-fetch latency histogram, which
/// is flushed to the session recorder when the call ends. Being local to
/// the call, none of it is shared between concurrent calls.
struct Call<'a> {
    session: &'a SharedSession,
    prof: Option<&'a Profiler>,
    fetch_hist: Option<Histogram>,
    builds: u64,
    hits: u64,
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        if let (Some(rec), Some(h)) = (self.session.recorder.as_deref(), self.fetch_hist.take()) {
            if !h.is_empty() {
                rec.histogram(h.into_record());
            }
        }
    }
}

impl<'a> Call<'a> {
    fn new(session: &'a SharedSession, prof: Option<&'a Profiler>) -> Self {
        Call {
            session,
            prof,
            fetch_hist: None,
            builds: 0,
            hits: 0,
        }
    }

    /// The dependency graph of a log, keyed by its content fingerprint.
    /// `side` labels the telemetry of a match call.
    fn model(&mut self, fp: u64, log: &EventLog, side: Option<&str>) -> Arc<DependencyGraph> {
        let s = self.session;
        let stage = &MODEL;
        let tag = side.map(|side| ("side", side));
        let mut scope = self.prof.map(|pf| pf.scope(stage.scope));
        if let Some(g) = self.lookup(stage, tag, &mut scope, &s.graphs, &fp) {
            return g;
        }
        // Disk tier: a snapshot keyed by (log content, min-frequency filter)
        // rehydrates the graph into the session's shared symbol table.
        let store_key = persist::graph_store_key(fp, s.min_frequency);
        let decoded = self.fetch(stage, tag, &mut scope, store_key, |bytes| {
            persist::decode_graph_in(bytes, &mut mutex_lock(&s.table)).map_err(|e| e.to_string())
        });
        let graph = match decoded {
            Some(g) => g,
            None => {
                // ems-lint: allow(wall-clock-randomness, stage timing feeds session telemetry only, never similarity values)
                let started = Instant::now();
                let full = DependencyGraph::from_log_in(log, &mut mutex_lock(&s.table));
                let (g, removed) = if s.min_frequency > 0.0 {
                    filter_min_frequency(&full, s.min_frequency)
                } else {
                    (full, 0)
                };
                self.tally(stage, Tier::Built(started.elapsed()), tag, &mut scope);
                if let (Some(rec), Some(side)) = (s.recorder.as_deref(), side) {
                    observe_graph(&g, rec, side);
                    rec.counter_add(
                        "graph_filtered_vertices",
                        ems_obs::labels(&[("side", side)]),
                        removed as u64,
                    );
                }
                self.put(stage, store_key, || persist::encode_graph(&g));
                g
            }
        };
        keep(&s.graphs, fp, graph)
    }

    /// The kernel substrate of a graph pair for one direction, keyed by the
    /// graphs' content fingerprints.
    fn substrate(
        &mut self,
        g1: &Arc<DependencyGraph>,
        g2: &Arc<DependencyGraph>,
        direction: Direction,
    ) -> Arc<EngineSubstrate> {
        let s = self.session;
        let stage = &SUBSTRATE;
        let tag = Some((
            "direction",
            match direction {
                Direction::Forward => "forward",
                Direction::Backward => "backward",
            },
        ));
        let mut scope = self.prof.map(|pf| pf.scope(stage.scope));
        let key = (g1.fingerprint(), g2.fingerprint(), direction as u8);
        if let Some(sub) = self.lookup(stage, tag, &mut scope, &s.substrates, &key) {
            return sub;
        }
        // Disk tier: the snapshot embeds direction and damping constant, and
        // a decoded substrate must still fit the graphs it will be paired
        // with — a shape disagreement means the key collided or the entry is
        // stale, either way quarantine-and-rebuild territory.
        let c = s.params.c;
        let store_key = persist::substrate_store_key(key.0, key.1, direction, c);
        let (n1, n2) = (g1.num_real(), g2.num_real());
        let decoded = self.fetch(stage, tag, &mut scope, store_key, |bytes| {
            let sub = persist::decode_substrate(bytes, direction, c).map_err(|e| e.to_string())?;
            if sub.rows() == n1 && sub.cols() == n2 {
                Ok(sub)
            } else {
                Err(format!(
                    "substrate shape {}x{} does not fit graphs {n1}x{n2}",
                    sub.rows(),
                    sub.cols()
                ))
            }
        });
        let sub = match decoded {
            Some(sub) => sub,
            None => {
                let sub = EngineSubstrate::build(g1, g2, direction, c);
                self.tally(stage, Tier::Built(sub.build_time()), tag, &mut scope);
                self.put(stage, store_key, || persist::encode_substrate(&sub));
                sub
            }
        };
        keep(&s.substrates, key, sub)
    }

    /// The label matrix of a log pair, keyed by the logs' content
    /// fingerprints.
    fn labels(&mut self, s1: Side<'_>, s2: Side<'_>) -> Arc<LabelMatrix> {
        let s = self.session;
        let stage = &LABELS;
        let mut scope = self.prof.map(|pf| pf.scope(stage.scope));
        let key = (s1.fp, s2.fp);
        if let Some(m) = self.lookup(stage, None, &mut scope, &s.labels, &key) {
            return m;
        }
        // Disk tier: the key separates label spaces (which measure filled
        // the matrix; alpha = 1 stores an all-zeros matrix), and a decoded
        // matrix must still fit the two alphabets.
        let store_key = persist::labels_store_key(key.0, key.1, s.params.label_space());
        let (rows, cols) = (s1.log.alphabet_size(), s2.log.alphabet_size());
        let decoded = self.fetch(stage, None, &mut scope, store_key, |bytes| {
            let m = persist::decode_labels(bytes).map_err(|e| e.to_string())?;
            if m.rows() == rows && m.cols() == cols {
                Ok(m)
            } else {
                Err(format!(
                    "label matrix shape {}x{} does not fit alphabets {rows}x{cols}",
                    m.rows(),
                    m.cols()
                ))
            }
        });
        let m = match decoded {
            Some(m) => m,
            None => {
                let m = label_matrix_for(&s.params, s1.log, s2.log);
                self.tally(stage, Tier::Built(Duration::ZERO), None, &mut scope);
                self.put(stage, store_key, || persist::encode_labels(&m));
                m
            }
        };
        keep(&s.labels, key, m)
    }

    /// Memory tier: the cached product, tallied as a hit.
    fn lookup<K: Ord, T>(
        &mut self,
        stage: &Stage,
        tag: Option<(&str, &str)>,
        scope: &mut Option<ProfScope<'_>>,
        cache: &RwLock<BTreeMap<K, Arc<T>>>,
        key: &K,
    ) -> Option<Arc<T>> {
        let hit = read_lock(cache).get(key).map(Arc::clone)?;
        self.tally(stage, Tier::Memory, tag, scope);
        Some(hit)
    }

    /// Disk tier: the decoded snapshot, or `None` with the matching counter
    /// bumped. Every failure class degrades to a rebuild.
    fn fetch<T>(
        &mut self,
        stage: &Stage,
        tag: Option<(&str, &str)>,
        scope: &mut Option<ProfScope<'_>>,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Option<T> {
        let s = self.session;
        let store = s.store.as_deref()?;
        let (kind, version) = (stage.kind, stage.version);
        // ems-lint: allow(wall-clock-randomness, store-fetch latency feeds a nondeterministic telemetry histogram only, never similarity values)
        let started = s.recorder.is_some().then(Instant::now);
        let result = store.get(kind, key, version);
        if let Some(started) = started {
            let hist = self.fetch_hist.get_or_insert_with(|| {
                Histogram::nondeterministic("session.store_fetch_us", ems_obs::labels(&[]), "us")
            });
            hist.observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        let decoded = match result {
            Ok(Some(bytes)) => decode(&bytes),
            Ok(None) => {
                mutex_lock(&s.stats).store_misses += 1;
                return None;
            }
            // Envelope-level corruption: the store already quarantined it.
            Err(EmsError::StoreCorrupt { .. }) => {
                mutex_lock(&s.stats).store_quarantines += 1;
                return None;
            }
            Err(_) => {
                mutex_lock(&s.stats).store_read_failures += 1;
                return None;
            }
        };
        match decoded {
            Ok(product) => {
                self.tally(stage, Tier::Disk, tag, scope);
                Some(product)
            }
            // Payload-level corruption or a stale shape: the envelope
            // checksum passed, so only the decoder could catch it.
            Err(reason) => {
                store.quarantine_entry(kind, key, &reason);
                mutex_lock(&s.stats).store_quarantines += 1;
                None
            }
        }
    }

    /// Best-effort snapshot write after a rebuild: a failure only counts —
    /// the durable tier must never fail a match. `encode` runs only when a
    /// store is attached.
    fn put(&self, stage: &Stage, key: u64, encode: impl FnOnce() -> Vec<u8>) {
        let s = self.session;
        if let Some(store) = &s.store {
            if store
                .put(stage.kind, key, stage.version, &encode())
                .is_err()
            {
                mutex_lock(&s.stats).store_write_failures += 1;
            }
        }
    }

    /// Accounts one stage product: session stats, the call's tallies, the
    /// cache counter (and build span), and the stage's profiler scope.
    fn tally(
        &mut self,
        stage: &Stage,
        tier: Tier,
        tag: Option<(&str, &str)>,
        scope: &mut Option<ProfScope<'_>>,
    ) {
        let s = self.session;
        let (result, scope_key) = {
            let mut stats = mutex_lock(&s.stats);
            let (hits, builds) = (stage.counters)(&mut stats);
            match tier {
                Tier::Memory => {
                    *hits += 1;
                    self.hits += 1;
                    ("hit", "cache_hits")
                }
                Tier::Disk => {
                    stats.store_hits += 1;
                    ("disk", "store_hits")
                }
                Tier::Built(setup) => {
                    *builds += 1;
                    stats.setup += setup;
                    self.builds += 1;
                    ("miss", "builds")
                }
            }
        };
        if let Some(rec) = s.recorder.as_deref() {
            let mut labels = vec![("result", result)];
            labels.extend(tag);
            rec.counter_add(stage.counter, ems_obs::labels(&labels), 1);
            if let (Tier::Built(setup), Some(span)) = (tier, stage.span) {
                rec.span_closed(span, ems_obs::labels(tag.as_slice()), setup);
            }
        }
        if let Some(scope) = scope {
            scope.count(scope_key, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Ems;
    use ems_faults::{FaultPlan, PlannedFault};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh, collision-free store root under the system temp dir.
    fn tmp_store_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ems-session-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Acyclic logs (every trace visits distinct names), so every pair has
    /// a finite Proposition-2 horizon — the precondition for the warm-start
    /// bitwise-stationarity argument in the module docs.
    fn logs() -> (EventLog, EventLog) {
        let mut l1 = EventLog::new();
        l1.push_trace(["cash", "validate", "ship"]);
        l1.push_trace(["cash", "validate", "ship"]);
        l1.push_trace(["card", "validate", "ship"]);
        let mut l2 = EventLog::new();
        l2.push_trace(["e0", "e1", "e3", "e4"]);
        l2.push_trace(["e0", "e2", "e3", "e4"]);
        (l1, l2)
    }

    /// Tiny epsilon so the exact phase never stops before every pair has
    /// reached its horizon (required for warm bit-identity).
    fn exact_params() -> EmsParams {
        EmsParams {
            epsilon: 1e-300,
            ..EmsParams::structural()
        }
    }

    fn session() -> SharedSession {
        SharedSession::try_new(exact_params()).unwrap()
    }

    fn with_injector(fault: PlannedFault) -> SessionOptions<'static> {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![fault],
        };
        SessionOptions {
            injector: Some(Arc::new(FaultInjector::new(plan))),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn session_matches_one_shot_ems_bitwise() {
        let (l1, l2) = logs();
        let expected = Ems::new(exact_params()).match_logs(&l1, &l2);
        let got = session().try_match(&l1, &l2).unwrap();
        assert_eq!(got.similarity.max_abs_diff(&expected.similarity), 0.0);
        assert_eq!(got.forward.max_abs_diff(&expected.forward), 0.0);
        assert_eq!(got.backward.max_abs_diff(&expected.backward), 0.0);
    }

    #[test]
    fn repeat_matches_hit_every_cache() {
        let (l1, l2) = logs();
        let shared = session();
        shared.try_match(&l1, &l2).unwrap();
        shared.try_match(&l1, &l2).unwrap();
        let stats = shared.stats();
        assert_eq!(stats.graph_builds, 2);
        assert_eq!(stats.substrate_builds, 2);
        assert_eq!(stats.label_builds, 1);
        assert_eq!(stats.outcome_cache_hits, 1);
    }

    #[test]
    fn outcome_cache_serves_plain_replays_only() {
        let (l1, l2) = logs();
        let shared = session();
        let cold = shared.try_match(&l1, &l2).unwrap();

        // A plain replay is served bit-identically from the cache.
        let cached = shared.try_match(&l1, &l2).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, 1);
        for (a, b) in cold.similarity.data().iter().zip(cached.similarity.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cold.stats, cached.stats);

        // Observably different calls bypass the cache: a budget...
        let budgeted = SessionOptions {
            budget: Budget {
                max_iterations: Some(1),
                ..Budget::default()
            },
            ..SessionOptions::default()
        };
        shared.try_match_opts(&l1, &l2, &budgeted).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, 1);
        // ...a warm-start prior...
        let warm = SessionOptions {
            prior: Some(&cold),
            ..SessionOptions::default()
        };
        shared.try_match_opts(&l1, &l2, &warm).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, 1);
        assert_eq!(shared.stats().warm_starts, 1);
        // ...an engine recorder (which must observe a real solve)...
        let recorder = Arc::new(Recorder::new());
        let recorded = SessionOptions {
            recorder: Some(Arc::clone(&recorder)),
            ..SessionOptions::default()
        };
        shared.try_match_opts(&l1, &l2, &recorded).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, 1);
        assert!(!recorder.records().is_empty());
        // ...and a fault injector, even one whose plan never fires.
        let injected = with_injector(PlannedFault {
            site: FaultSite::Solve,
            op: 99,
            kind: FaultKind::NoSpace,
        });
        shared.try_match_opts(&l1, &l2, &injected).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, 1);

        // None of the bypass calls filled the cache for new content: the
        // first plain call on it solves, the second hits.
        let mut l2b = l2.clone();
        l2b.push_trace(["e0", "e1", "e3", "e4"]);
        let before = shared.stats().outcome_cache_hits;
        shared.try_match_opts(&l1, &l2b, &recorded).unwrap();
        shared.try_match(&l1, &l2b).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, before);
        shared.try_match(&l1, &l2b).unwrap();
        assert_eq!(shared.stats().outcome_cache_hits, before + 1);
    }

    #[test]
    fn session_attributes_setup_once() {
        let (l1, l2) = logs();
        let shared = session();
        let cold = shared.try_match(&l1, &l2).unwrap();
        // Runs executed against session-owned substrates charge no setup of
        // their own — merging them can never double-count the build.
        assert_eq!(cold.stats.phase_times.setup, Duration::ZERO);
        let setup_after_cold = shared.stats().setup;
        assert!(setup_after_cold > Duration::ZERO);
        // A bypass call re-runs both solves on the cached substrates.
        let recorded = SessionOptions {
            recorder: Some(Arc::new(Recorder::new())),
            ..SessionOptions::default()
        };
        let resolved = shared.try_match_opts(&l1, &l2, &recorded).unwrap();
        assert_eq!(resolved.stats.phase_times.setup, Duration::ZERO);
        // The re-match performed no setup work at all.
        assert_eq!(shared.stats().setup, setup_after_cold);
    }

    #[test]
    fn warm_rematch_is_bitwise_stationary_and_converges_in_one_iteration() {
        let (l1, l2) = logs();
        let shared = session();
        let cold = shared.try_match(&l1, &l2).unwrap();
        assert!(cold.stats.iterations > 1);
        let warm_opts = SessionOptions {
            prior: Some(&cold),
            ..SessionOptions::default()
        };
        let warm = shared.try_match_opts(&l1, &l2, &warm_opts).unwrap();
        assert_eq!(warm.similarity.max_abs_diff(&cold.similarity), 0.0);
        assert_eq!(warm.forward.max_abs_diff(&cold.forward), 0.0);
        assert_eq!(warm.backward.max_abs_diff(&cold.backward), 0.0);
        // Re-evaluating the fixpoint changes nothing: delta is exactly zero
        // after the first sweep in each direction.
        assert_eq!(warm.stats.iterations, 1);
        assert_eq!(shared.stats().warm_starts, 1);
    }

    #[test]
    fn warm_start_with_stale_shape_is_skipped() {
        let (l1, l2) = logs();
        let shared = session();
        let prior = shared.try_match(&l1, &l2).unwrap();
        // A new name grows log 2's alphabet, so the prior's shape is stale
        // and must be skipped rather than rejected.
        let mut grown = l2.clone();
        grown.push_trace(["e0", "e9", "e3", "e4"]);
        let warm_opts = SessionOptions {
            prior: Some(&prior),
            ..SessionOptions::default()
        };
        let skipped = shared.try_match_opts(&l1, &grown, &warm_opts).unwrap();
        assert_eq!(shared.stats().warm_starts, 0);
        let cold = shared.try_match(&l1, &grown).unwrap();
        assert_eq!(skipped.similarity.max_abs_diff(&cold.similarity), 0.0);
        // An alphabet-preserving change keeps the shape: now it warm-starts.
        let mut same_shape = l2.clone();
        same_shape.push_trace(["e0", "e1", "e3", "e4"]);
        shared.try_match_opts(&l1, &same_shape, &warm_opts).unwrap();
        assert_eq!(shared.stats().warm_starts, 1);
    }

    #[test]
    fn one_symbol_table_spans_all_session_graphs() {
        let (l1, l2) = logs();
        let shared = session();
        shared.try_match(&l1, &l2).unwrap();
        // Log 2 was modeled after log 1 into the same interner, so its
        // snapshot resolves both alphabets: 4 + 5 distinct names.
        assert_eq!(shared.graph(&l2).symbols().len(), 9);
    }

    #[test]
    fn session_recorder_documents_cache_behavior() {
        let (l1, l2) = logs();
        let recorder = Arc::new(Recorder::new());
        let shared = session().with_recorder(Arc::clone(&recorder));
        shared.try_match(&l1, &l2).unwrap();
        shared.try_match(&l1, &l2).unwrap();
        let trace = ems_obs::jsonl::write(&recorder.records());
        assert!(trace.contains("session.graph_cache"));
        assert!(trace.contains("\"result\":\"miss\""));
        assert!(trace.contains("session.outcome_cache"));
        assert!(trace.contains("\"result\":\"hit\""));
        assert!(trace.contains("session.model"));
        assert!(trace.contains("session.substrate"));
        assert!(trace.contains("graph_vertices"));
        assert!(trace.contains("prof.session.match.model"));
    }

    #[test]
    fn concurrent_queries_are_bit_identical_to_serial() {
        let (l1, l2) = logs();
        let serial = session().try_match(&l1, &l2).unwrap();
        let shared = session();
        let outcomes: Vec<MatchOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| shared.try_match(&l1, &l2).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outcomes {
            assert_eq!(out.similarity.max_abs_diff(&serial.similarity), 0.0);
        }
        // However the race resolved, the sum of builds and outcome-cache
        // hits accounts for all eight queries.
        let stats = shared.stats();
        assert!(stats.graph_builds >= 2);
        assert!(stats.outcome_cache_hits <= 7);
    }

    #[test]
    fn store_tier_warms_a_fresh_session_from_disk() {
        let root = tmp_store_root("diskwarm");
        let (l1, l2) = logs();
        let cold = {
            let store = Arc::new(CatalogStore::open(&root).unwrap());
            let shared = session().with_store(store);
            let out = shared.try_match(&l1, &l2).unwrap();
            assert_eq!(shared.stats().store_misses, 5); // 2 graphs + 2 substrates + 1 labels
            assert_eq!(shared.stats().store_write_failures, 0);
            out
        };
        // A fresh session shares nothing in memory — only the store
        // directory — yet builds nothing and reproduces the scores.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let shared = session().with_store(store);
        let warm = shared.try_match(&l1, &l2).unwrap();
        assert_eq!(warm.similarity.max_abs_diff(&cold.similarity), 0.0);
        assert_eq!(warm.forward.max_abs_diff(&cold.forward), 0.0);
        assert_eq!(warm.backward.max_abs_diff(&cold.backward), 0.0);
        let stats = shared.stats();
        assert_eq!(stats.store_hits, 5);
        assert_eq!(stats.graph_builds, 0);
        assert_eq!(stats.substrate_builds, 0);
        assert_eq!(stats.label_builds, 0);
        // Disk rehydration interns into the session table like a build would.
        assert_eq!(shared.graph(&l2).symbols().len(), 9);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_snapshots_degrade_to_rebuild_with_identical_scores() {
        let root = tmp_store_root("corrupt");
        let (l1, l2) = logs();
        let baseline = session().try_match(&l1, &l2).unwrap();
        {
            let store = Arc::new(CatalogStore::open(&root).unwrap());
            session().with_store(store).try_match(&l1, &l2).unwrap();
        }
        // Flip one payload byte in every snapshot on disk.
        let objects = root.join("objects");
        let mut corrupted = 0;
        for entry in std::fs::read_dir(&objects).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                let mut bytes = std::fs::read(&path).unwrap();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 5);
        // A fresh session quarantines every corrupt entry, rebuilds from
        // source, re-persists, and still reproduces the clean scores.
        let store = Arc::new(CatalogStore::open(&root).unwrap());
        let b = session().with_store(Arc::clone(&store));
        let recovered = b.try_match(&l1, &l2).unwrap();
        assert_eq!(recovered.similarity.max_abs_diff(&baseline.similarity), 0.0);
        assert_eq!(b.stats().store_quarantines, 5);
        assert_eq!(b.stats().store_hits, 0);
        assert_eq!(b.stats().graph_builds, 2);
        // The rebuilds were re-persisted: a third session disk-warms fully.
        drop(b);
        let c = session().with_store(store);
        let rewarmed = c.try_match(&l1, &l2).unwrap();
        assert_eq!(rewarmed.similarity.max_abs_diff(&baseline.similarity), 0.0);
        assert_eq!(c.stats().store_hits, 5);
        assert_eq!(c.stats().graph_builds, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_stage_faults_are_typed_or_degrade() {
        let (l1, l2) = logs();
        let shared = session();
        // Terminal ingest fault: the match fails with the typed error.
        let opts = with_injector(PlannedFault {
            site: FaultSite::Ingest,
            op: 0,
            kind: FaultKind::NoSpace,
        });
        assert!(matches!(
            shared.try_match_opts(&l1, &l2, &opts),
            Err(CoreError::FaultInjected { .. })
        ));
        // The op counter advanced past the fault: the retry succeeds and
        // matches a fault-free run bit-identically.
        let retried = shared.try_match_opts(&l1, &l2, &opts).unwrap();
        let clean = shared.try_match(&l1, &l2).unwrap();
        assert_eq!(retried.similarity.max_abs_diff(&clean.similarity), 0.0);

        // Transient ingest fault: absorbed, the match proceeds.
        let opts = with_injector(PlannedFault {
            site: FaultSite::Ingest,
            op: 0,
            kind: FaultKind::TransientIo,
        });
        let absorbed = shared.try_match_opts(&l1, &l2, &opts).unwrap();
        assert_eq!(absorbed.similarity.max_abs_diff(&clean.similarity), 0.0);

        // Solve-stage budget exhaustion: degrades to estimation (a defined
        // outcome with `degraded` flagged), never an error.
        let opts = with_injector(PlannedFault {
            site: FaultSite::Solve,
            op: 0,
            kind: FaultKind::BudgetExhaust,
        });
        let degraded = shared.try_match_opts(&l1, &l2, &opts).unwrap();
        assert!(degraded.stats.degraded);
    }
}
