//! PR4 scoping audit: the `ems-obs` crate is the *only* result-adjacent
//! place allowed to read the wall clock, and only through audited
//! suppressions. These tests pin that contract:
//!
//! 1. `obs` is watched by both the wall-clock and nondeterminism rules
//!    (so its clock reads cannot go unreviewed);
//! 2. the suppressions in `crates/obs/src/record.rs` are load-bearing —
//!    stripping them makes the lint fire, so they cover real clock
//!    reads rather than decorating dead lines (the lint's own
//!    unused-suppression rule covers the converse);
//! 3. no similarity-producing crate reads the clock at all, with or
//!    without a suppression — timing must stay quarantined in `obs`
//!    (span `dur_us` only) and the `eval` timer module.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn obs_is_watched_by_clock_and_nondeterminism_rules() {
    assert!(
        ems_lint::config::CLOCK_CRATES.contains(&"obs"),
        "obs must stay in CLOCK_CRATES so span timing needs audited suppressions"
    );
    assert!(
        ems_lint::config::NONDET_CRATES.contains(&"obs"),
        "obs must stay in NONDET_CRATES: trace/metrics exports feed golden tests"
    );
    assert!(
        !ems_lint::config::CLOCK_EXEMPT
            .iter()
            .any(|p| p.starts_with("crates/obs/")),
        "obs files must not be blanket-exempt; each clock read carries its own reason"
    );
}

#[test]
fn obs_clock_suppressions_are_load_bearing() {
    let path = workspace_root().join("crates/obs/src/record.rs");
    let source = std::fs::read_to_string(&path).expect("crates/obs/src/record.rs exists");

    assert!(
        source.contains("ems-lint: allow(wall-clock-randomness,"),
        "record.rs must justify its span-timing clock reads with a reasoned suppression"
    );

    // With the suppressions present the file lints clean.
    let with = ems_lint::lint_source("crates/obs/src/record.rs", &source);
    assert!(
        with.is_empty(),
        "crates/obs/src/record.rs should lint clean as committed: {with:#?}"
    );

    // With them stripped the wall-clock rule must fire: the directives
    // cover genuine clock reads, not dead lines.
    let stripped: String = source
        .lines()
        .filter(|l| !l.contains("ems-lint: allow(wall-clock-randomness,"))
        .collect::<Vec<_>>()
        .join("\n");
    let without = ems_lint::lint_source("crates/obs/src/record.rs", &stripped);
    assert!(
        without.iter().any(|d| d.rule == "wall-clock-randomness"),
        "stripping the suppressions must expose wall-clock findings, got: {without:#?}"
    );
}

/// Similarity-producing crates may not grow new clock reads: the audited
/// timing sites among them are the solve-phase measurement in
/// `crates/core/src/engine.rs`, the substrate build timer in
/// `crates/core/src/substrate.rs` and the session stage timers in
/// `crates/core/src/shared.rs` (all of which feed `RunStats`/
/// `SessionStats`/obs spans only), and their suppression reasons must say
/// the timing stays telemetry-only. Any new suppression elsewhere fails
/// this test and forces a review.
#[test]
fn similarity_crates_never_read_the_clock() {
    let root = workspace_root();
    let similarity_crates = ["core", "depgraph", "labels", "assignment", "baselines"];
    let mut suppressing_files = Vec::new();
    for file in ems_lint::workspace_files(&root).expect("workspace is readable") {
        let rel = file
            .strip_prefix(&root)
            .expect("workspace file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let class = ems_lint::config::classify(&rel);
        if class.kind != ems_lint::config::FileKind::Library
            || !similarity_crates.contains(&class.crate_name.as_str())
        {
            continue;
        }
        let source = std::fs::read_to_string(&file).expect("readable workspace file");
        let directives: Vec<&str> = source
            .lines()
            .filter(|l| l.contains("ems-lint: allow(wall-clock-randomness"))
            .collect();
        if directives.is_empty() {
            continue;
        }
        for d in &directives {
            assert!(
                d.contains("never similarity values"),
                "{rel}: wall-clock suppression must state that timing never \
                 feeds similarity values: {d}"
            );
        }
        suppressing_files.push(rel);
    }
    suppressing_files.sort();
    assert_eq!(
        suppressing_files,
        vec![
            "crates/core/src/engine.rs".to_string(),
            "crates/core/src/shared.rs".to_string(),
            "crates/core/src/substrate.rs".to_string(),
        ],
        "only the engine/substrate/session phase timing may suppress the \
         wall-clock rule in similarity-producing crates; route any new \
         timing through ems-obs spans"
    );
}
