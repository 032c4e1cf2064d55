//! Fixture-based tests for the detlint rule set: every rule has at least
//! one true-positive and one false-positive corpus, plus tests for the
//! allow-comment contract (a reason is mandatory) and the classifier.

use itb_lint::rules::{classify, lint_source, Finding};

/// Lint a fixture file under a synthetic workspace-relative path (the path
/// drives crate/kind classification, not where the fixture actually lives).
fn lint_fixture(as_path: &str, fixture: &str) -> Vec<Finding> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let src = std::fs::read_to_string(format!("{dir}{fixture}"))
        .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
    let class = classify(as_path).unwrap_or_else(|| panic!("path {as_path} must classify"));
    lint_source(&class, &src)
}

fn unallowed<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    fs.iter().filter(|f| f.rule == rule && !f.allowed).collect()
}

// ---- D001 ----------------------------------------------------------------

#[test]
fn d001_flags_default_hasher_maps() {
    let fs = lint_fixture("crates/gm/src/code.rs", "d001_pos.rs");
    let hits = unallowed(&fs, "D001");
    assert_eq!(hits.len(), 4, "two use-decls + two body lines: {hits:?}");
    assert!(hits.iter().any(|f| f.message.contains("HashMap")));
    assert!(hits.iter().any(|f| f.message.contains("HashSet")));
}

#[test]
fn d001_ignores_fx_btree_strings_and_comments() {
    let fs = lint_fixture("crates/gm/src/code.rs", "d001_neg.rs");
    assert!(unallowed(&fs, "D001").is_empty(), "{fs:?}");
}

#[test]
fn d001_exempts_the_fxmap_wrapper_itself() {
    let src = "use std::collections::HashMap;\npub type M = HashMap<u8, u8>;\n";
    let class = classify("crates/sim/src/fxmap.rs").expect("classifies");
    assert!(lint_source(&class, src).iter().all(|f| f.rule != "D001"));
}

// ---- D002 ----------------------------------------------------------------

#[test]
fn d002_flags_wall_clock_and_os_rng() {
    let fs = lint_fixture("crates/nic/src/code.rs", "d002_pos.rs");
    // `Instant` twice (use + now), SystemTime, thread_rng.
    assert_eq!(unallowed(&fs, "D002").len(), 4, "{fs:?}");
}

#[test]
fn d002_ignores_lookalikes_and_honours_allow() {
    let fs = lint_fixture("crates/nic/src/code.rs", "d002_neg.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    // The annotated wall-clock line must surface as an *allowed* finding
    // with its reason attached (audit trail, not silence).
    let allowed: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "D002" && f.allowed)
        .collect();
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0]
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("bench wall-clock")));
}

#[test]
fn d002_flags_thread_spawn_in_sim_code() {
    let fs = lint_fixture("crates/nic/src/code.rs", "d002_thread_pos.rs");
    // std::thread::spawn, std::thread::scope, imported thread::spawn.
    let hits = unallowed(&fs, "D002");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|f| f.message.contains("run_shards")));
}

#[test]
fn d002_thread_check_spares_lookalikes_and_benches() {
    let fs = lint_fixture("crates/nic/src/code.rs", "d002_thread_neg.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    // The annotated spawn stays on the audit trail as an allowed finding.
    assert_eq!(
        fs.iter().filter(|f| f.rule == "D002" && f.allowed).count(),
        1
    );
    // The same forks in a bench target are measurement harness, not model.
    let fs = lint_fixture("crates/gm/benches/code.rs", "d002_thread_pos.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    let fs = lint_fixture("crates/bench/src/code.rs", "d002_thread_pos.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
}

#[test]
fn d002_flags_wall_clock_in_obs_sampling_paths() {
    // The observability samplers (obs::timeline, obs::health) are exactly
    // where a wall-clock read would silently wreck artifact determinism;
    // prove the rule fires there like anywhere else.
    let fs = lint_fixture("crates/obs/src/timeline.rs", "d002_obs_pos.rs");
    // `Instant` twice (use + now) + SystemTime.
    assert_eq!(unallowed(&fs, "D002").len(), 3, "{fs:?}");
    let fs = lint_fixture("crates/obs/src/health.rs", "d002_obs_pos.rs");
    assert_eq!(unallowed(&fs, "D002").len(), 3, "{fs:?}");
}

#[test]
fn d002_passes_sim_time_sampling_and_reasoned_stopwatch() {
    let fs = lint_fixture("crates/obs/src/timeline.rs", "d002_obs_neg.rs");
    assert!(unallowed(&fs, "D002").is_empty(), "{fs:?}");
    // The annotated profiler stopwatch stays on the audit trail.
    let allowed: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "D002" && f.allowed)
        .collect();
    assert_eq!(allowed.len(), 1, "{fs:?}");
    assert!(allowed[0]
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("profiler stopwatch")));
}

// ---- D003 ----------------------------------------------------------------

#[test]
fn d003_flags_float_time_arithmetic() {
    let fs = lint_fixture("crates/gm/src/code.rs", "d003_pos.rs");
    // from_ps(float), from_ns(float), as_ns_f64 recast.
    assert_eq!(unallowed(&fs, "D003").len(), 3, "{fs:?}");
}

#[test]
fn d003_allows_integer_time_and_audited_helpers() {
    let fs = lint_fixture("crates/gm/src/code.rs", "d003_neg.rs");
    assert!(unallowed(&fs, "D003").is_empty(), "{fs:?}");
}

// The hybrid engine's rate-rounding rule, pinned as a fixture pair: a
// solved f64 flow rate must cross to integer sim time exactly once,
// through `ByteInterval::from_rate` (truncate the reciprocal interval →
// round the effective rate up); ad-hoc float-to-time crossings in rate
// code are D003 findings.
#[test]
fn d003_flags_ad_hoc_rate_to_time_crossings() {
    let fs = lint_fixture("crates/net/src/code.rs", "rate_quant_pos.rs");
    // from_ns(float expr) in the completion calc + as_ns_f64 recast.
    assert_eq!(unallowed(&fs, "D003").len(), 2, "{fs:?}");
}

#[test]
fn d003_accepts_byteinterval_quantisation() {
    let fs = lint_fixture("crates/net/src/code.rs", "rate_quant_neg.rs");
    assert!(unallowed(&fs, "D003").is_empty(), "{fs:?}");
}

#[test]
fn d003_only_applies_to_sim_side_crates() {
    let fs = lint_fixture("crates/lint/src/code.rs", "d003_pos.rs");
    assert!(
        unallowed(&fs, "D003").is_empty(),
        "lint crate is not sim-side"
    );
}

// ---- S001 ----------------------------------------------------------------

#[test]
fn s001_flags_library_panics() {
    let fs = lint_fixture("crates/net/src/code.rs", "s001_pos.rs");
    let hits = unallowed(&fs, "S001");
    assert_eq!(hits.len(), 3, "unwrap + expect + panic!: {hits:?}");
}

#[test]
fn s001_ignores_nonpanicking_tests_and_reasoned_allows() {
    let fs = lint_fixture("crates/net/src/code.rs", "s001_neg.rs");
    assert!(unallowed(&fs, "S001").is_empty(), "{fs:?}");
}

#[test]
fn s001_does_not_apply_to_tests_bins_or_benches() {
    for path in [
        "crates/net/tests/e2e.rs",
        "crates/bench/src/bin/tool.rs",
        "crates/bench/benches/b.rs",
        "examples/demo.rs",
    ] {
        let fs = lint_fixture(path, "s001_pos.rs");
        assert!(unallowed(&fs, "S001").is_empty(), "{path}: {fs:?}");
    }
}

// ---- S002 ----------------------------------------------------------------

#[test]
fn s002_flags_narrowing_casts() {
    let fs = lint_fixture("crates/routing/src/code.rs", "s002_pos.rs");
    assert_eq!(unallowed(&fs, "S002").len(), 3, "{fs:?}");
}

#[test]
fn s002_ignores_widening_floats_and_test_code() {
    let fs = lint_fixture("crates/routing/src/code.rs", "s002_neg.rs");
    assert!(unallowed(&fs, "S002").is_empty(), "{fs:?}");
}

// ---- U001 ----------------------------------------------------------------

#[test]
fn u001_requires_deny_unsafe_in_crate_roots() {
    let fs = lint_fixture("crates/topo/src/lib.rs", "u001_pos.rs");
    assert_eq!(unallowed(&fs, "U001").len(), 1, "{fs:?}");
}

#[test]
fn u001_satisfied_by_deny_attribute() {
    let fs = lint_fixture("crates/topo/src/lib.rs", "u001_neg.rs");
    assert!(unallowed(&fs, "U001").is_empty(), "{fs:?}");
}

#[test]
fn u001_only_checks_crate_roots() {
    let fs = lint_fixture("crates/topo/src/graph.rs", "u001_pos.rs");
    assert!(unallowed(&fs, "U001").is_empty(), "non-root file: {fs:?}");
}

// ---- allow-comment contract ---------------------------------------------

#[test]
fn allow_without_reason_is_a_finding_and_suppresses_nothing() {
    let fs = lint_fixture("crates/net/src/code.rs", "allow_no_reason.rs");
    assert_eq!(unallowed(&fs, "A000").len(), 1, "{fs:?}");
    assert_eq!(
        unallowed(&fs, "S001").len(),
        1,
        "reasonless allow must not suppress the unwrap: {fs:?}"
    );
}

#[test]
fn allow_that_suppresses_nothing_is_a_finding() {
    let fs = lint_fixture("crates/net/src/code.rs", "allow_stale_pos.rs");
    let stale = unallowed(&fs, "A000");
    assert_eq!(
        stale.iter().map(|f| f.line).collect::<Vec<_>>(),
        [4, 12],
        "{fs:?}"
    );
    assert!(stale
        .iter()
        .all(|f| f.message.contains("suppresses no finding")));

    // Doc comments quoting the syntax carry no allow; a used allow is fine.
    let fs = lint_fixture("crates/net/src/code.rs", "allow_stale_neg.rs");
    assert!(unallowed(&fs, "A000").is_empty(), "{fs:?}");
    assert_eq!(
        fs.iter().filter(|f| f.rule == "S001" && f.allowed).count(),
        1
    );
}

#[test]
fn allow_with_unknown_rule_is_a_finding() {
    let src = "// detlint::allow(D999, not a real rule)\npub fn f() {}\n";
    let class = classify("crates/net/src/code.rs").expect("classifies");
    let fs = lint_source(&class, src);
    assert_eq!(unallowed(&fs, "A000").len(), 1, "{fs:?}");
}

// ---- classifier ----------------------------------------------------------

#[test]
fn classifier_scopes_and_skips() {
    assert!(
        classify("vendor/serde/src/lib.rs").is_none(),
        "vendor skipped"
    );
    assert!(
        classify("crates/lint/tests/fixtures/d001_pos.rs").is_none(),
        "fixtures skipped"
    );
    assert!(classify("crates/sim/src/engine.rs").is_some());
    let root = classify("tests/testbed.rs").expect("root package tests");
    assert_eq!(root.krate, "itb-myrinet");
    assert_eq!(
        classify("crates/bench/src/bin/fig7.rs").map(|c| c.krate),
        Some("bench".to_string())
    );
}
