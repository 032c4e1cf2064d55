//! Fixture-based tests for the detlint v2 pipeline: the cross-crate taint
//! rules (T001–T003), the call-graph stats, fingerprint stability, and the
//! gate contract that a seeded violation in each class fails the analysis.

use itb_lint::rules::{classify, lint_source, Finding};
use itb_lint::Workspace;

fn fixture(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    std::fs::read_to_string(format!("{dir}{name}"))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lint one fixture as a single-file workspace under a synthetic path.
fn lint_fixture(as_path: &str, name: &str) -> Vec<Finding> {
    let class = classify(as_path).unwrap_or_else(|| panic!("path {as_path} must classify"));
    lint_source(&class, &fixture(name))
}

fn unallowed<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    fs.iter().filter(|f| f.rule == rule && !f.allowed).collect()
}

/// The three-crate T001 corpus: gm → core → bench, wall clock at the far
/// end. `mid` selects the middle hop (plain or allow-sealed).
fn t001_workspace(mid: &str) -> Workspace {
    let mut ws = Workspace::new();
    assert!(ws.add("crates/bench/src/util.rs", fixture("t001_src_helper.rs")));
    assert!(ws.add("crates/core/src/timing.rs", fixture(mid)));
    assert!(ws.add("crates/gm/src/probe.rs", fixture("t001_entry.rs")));
    ws
}

// ---- T001 ----------------------------------------------------------------

#[test]
fn t001_sees_a_source_two_crates_away() {
    let report = t001_workspace("t001_mid.rs").analyze();
    let t1 = unallowed(&report.findings, "T001");
    // Both sim-side hops are flagged: the gm entry point and the core
    // middleman. The bench helper itself is not sim-side.
    assert_eq!(t1.len(), 2, "{t1:?}");
    let entry = t1
        .iter()
        .find(|f| f.file == "crates/gm/src/probe.rs")
        .expect("gm entry point flagged");
    assert!(
        entry.message.contains("measure_section → stopwatch_ns"),
        "message names the taint chain: {}",
        entry.message
    );
    assert!(
        entry.message.contains("wall clock: Instant"),
        "{}",
        entry.message
    );
    assert!(t1.iter().any(|f| f.file == "crates/core/src/timing.rs"));
    // This is the gate contract: a seeded cross-crate laundering violation
    // leaves the report failing.
    assert!(report.unallowed().count() >= 2);
}

#[test]
fn t001_allow_seals_the_edge_for_callers() {
    let report = t001_workspace("t001_mid_sealed.rs").analyze();
    // The middle hop's finding is allowed, and the allow stops propagation:
    // the gm caller is clean, so the workspace passes.
    assert_eq!(
        unallowed(&report.findings, "T001").len(),
        0,
        "{:?}",
        report.findings
    );
    let sealed: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "T001" && f.allowed)
        .collect();
    assert_eq!(
        sealed.len(),
        1,
        "audit trail keeps the allowed finding: {sealed:?}"
    );
    assert_eq!(sealed[0].file, "crates/core/src/timing.rs");
}

#[test]
fn t001_lexical_d002_alone_misses_the_middle_hop() {
    // The property that motivates the call graph: the middle hop is
    // lexically spotless, so the per-line rules say nothing about it.
    let fs = lint_fixture("crates/core/src/timing.rs", "t001_mid.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
}

// ---- T002 ----------------------------------------------------------------

#[test]
fn t002_flags_unordered_iteration_into_event_and_digest() {
    let fs = lint_fixture("crates/net/src/sched.rs", "t002_pos.rs");
    let t2 = unallowed(&fs, "T002");
    assert_eq!(t2.len(), 2, "schedule sink + digest sink: {t2:?}");
    assert!(t2.iter().any(|f| f.message.contains("schedules an event")));
    assert!(t2.iter().any(|f| f.message.contains("feeds a Digest")));
    assert!(t2.iter().all(|f| f.message.contains("self.pending")));
}

#[test]
fn t002_passes_sorted_first_and_order_insensitive_loops() {
    let fs = lint_fixture("crates/net/src/sched.rs", "t002_neg.rs");
    assert!(unallowed(&fs, "T002").is_empty(), "{fs:?}");
}

#[test]
fn t002_sees_a_hash_call_into_a_digest() {
    let fs = lint_fixture("crates/net/src/sched.rs", "t002_hash_pos.rs");
    let t2 = unallowed(&fs, "T002");
    assert_eq!(t2.len(), 2, "method and path `hash` calls: {t2:?}");
    assert!(t2
        .iter()
        .all(|f| f.message.contains("feeds a Digest (`hash`)")));
    let fs = lint_fixture("crates/net/src/sched.rs", "t002_hash_neg.rs");
    assert!(unallowed(&fs, "T002").is_empty(), "{fs:?}");
}

// ---- T003 ----------------------------------------------------------------

#[test]
fn t003_flags_a_field_missing_from_the_digest() {
    let fs = lint_fixture("crates/net/src/port.rs", "t003_pos.rs");
    let t3 = unallowed(&fs, "T003");
    assert_eq!(t3.len(), 1, "{t3:?}");
    assert!(t3[0].message.contains("`last_seq`"), "{}", t3[0].message);
    assert!(t3[0].message.contains("`PortState`"), "{}", t3[0].message);
}

#[test]
fn t003_follows_helper_methods_and_honours_allows() {
    let fs = lint_fixture("crates/net/src/port.rs", "t003_neg.rs");
    assert!(unallowed(&fs, "T003").is_empty(), "{fs:?}");
    // The allowed diagnostics field stays on the audit trail.
    assert!(fs.iter().any(|f| f.rule == "T003" && f.allowed));
}

// ---- D002 env arm --------------------------------------------------------

#[test]
fn d002_flags_env_reads_in_sim_code() {
    let fs = lint_fixture("crates/sim/src/cfgload.rs", "d002_env_pos.rs");
    let hits = unallowed(&fs, "D002");
    assert_eq!(hits.len(), 3, "env::var, env::var_os, env!: {hits:?}");
    assert!(hits.iter().all(|f| f.message.contains("environment read")));
}

#[test]
fn d002_env_spares_lookalikes_allows_and_benches() {
    let fs = lint_fixture("crates/sim/src/cfgload.rs", "d002_env_neg.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    // The same positive corpus under a bench path is exempt wholesale
    // (ITB_THREADS is the sanctioned pdes_smoke knob).
    let fs = lint_fixture("crates/sim/benches/threads.rs", "d002_env_pos.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    let fs = lint_fixture("crates/bench/src/lib.rs", "d002_env_pos.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
}

// ---- pipeline plumbing ---------------------------------------------------

#[test]
fn callgraph_stats_are_populated() {
    let report = t001_workspace("t001_mid.rs").analyze();
    assert_eq!(report.files_scanned, 3);
    assert!(report.stats.functions >= 3, "{:?}", report.stats);
    assert!(
        report.stats.edges >= 2,
        "two cross-crate edges: {:?}",
        report.stats
    );
    assert!(report.stats.resolved_calls >= 2, "{:?}", report.stats);
}

#[test]
fn fingerprints_survive_line_drift() {
    let base = t001_workspace("t001_mid.rs").analyze();
    // Shift every line in the entry file by prepending comments; findings
    // move, fingerprints must not.
    let mut ws = Workspace::new();
    assert!(ws.add("crates/bench/src/util.rs", fixture("t001_src_helper.rs")));
    assert!(ws.add("crates/core/src/timing.rs", fixture("t001_mid.rs")));
    let shifted = format!(
        "// shifted\n// shifted\n// shifted\n{}",
        fixture("t001_entry.rs")
    );
    assert!(ws.add("crates/gm/src/probe.rs", shifted));
    let drifted = ws.analyze();

    let key = |r: &itb_lint::LintReport| {
        let fps = r.fingerprints();
        let mut v: Vec<(String, u64)> = r
            .findings
            .iter()
            .zip(fps)
            .map(|(f, fp)| (format!("{}:{}", f.rule, f.file), fp))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&base), key(&drifted));
    // ...while the lines did in fact move.
    let line_of = |r: &itb_lint::LintReport| {
        r.findings
            .iter()
            .find(|f| f.file == "crates/gm/src/probe.rs")
            .map(|f| f.line)
    };
    assert_ne!(line_of(&base), line_of(&drifted));
}

#[test]
fn report_json_carries_v2_fields() {
    let report = t001_workspace("t001_mid.rs").analyze();
    let json = report.to_json();
    assert!(json.contains("\"version\": 2"), "{json}");
    assert!(json.contains("\"callgraph\": {\"functions\""), "{json}");
    assert!(json.contains("\"fingerprint\": \""), "{json}");
    // Host wall time stays out of the report, so a rerun on the same tree
    // writes the same bytes.
    assert!(!json.contains("wall_ms"), "{json}");
}
