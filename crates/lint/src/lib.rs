//! `itb-lint` — the workspace's determinism & soundness analyzer.
//!
//! Every headline number in this repo (the fig7 121 ns ITB overhead, the
//! fig8 1.316 µs/hop figure, the chaos and perf digests) rests on one
//! property: *the simulation is bit-deterministic under a fixed seed*.
//! Nothing in the type system stops a refactor from quietly breaking that —
//! a default-hasher map whose iteration order leaks into a report, a
//! wall-clock read in a sim path, a narrowing cast that wraps a sequence
//! number. `detlint` encodes those invariants as machine-checked rules and
//! runs as a hard CI gate.
//!
//! Since v2 the analyzer is a four-stage pipeline rather than a per-line
//! scanner:
//!
//! 1. [`lexer`] — comment/string-safe token stream;
//! 2. [`parser`] — item/signature skeleton (fns, impls, structs, uses);
//! 3. [`callgraph`] — workspace-wide name-resolved call edges;
//! 4. rules — the lexical set ([`rules`]: D001–D003, S001–S002, U001, A000)
//!    plus the flow/taint set ([`taint`]: T001 cross-crate nondeterminism
//!    reachability, T002 unordered-iteration-into-ordered-sink, T003 digest
//!    completeness).
//!
//! The `detlint` binary is the CLI; [`Workspace`] is the library entry used
//! by the fixture tests.

#![deny(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

pub use callgraph::GraphStats;
pub use report::LintReport;
pub use rules::{classify, lint_source, FileClass, FileKind, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that contain first-party Rust code.
/// `vendor/` (external API stand-ins) and `target/` are deliberately absent;
/// fixture corpora are excluded by [`rules::classify`].
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// An in-memory set of classified sources, analyzed as one unit so the
/// call-graph rules see cross-crate edges. The CLI builds one from the tree
/// on disk; tests build synthetic multi-crate workspaces from fixtures.
#[derive(Default)]
pub struct Workspace {
    files: Vec<(FileClass, String)>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one source under a workspace-relative path. Returns `false` when
    /// the classifier skips the path (vendor, fixtures, non-Rust).
    pub fn add(&mut self, path: &str, src: impl Into<String>) -> bool {
        match classify(path) {
            Some(class) => {
                self.files.push((class, src.into()));
                true
            }
            None => false,
        }
    }

    /// Run the full pipeline over every added file.
    pub fn analyze(&self) -> LintReport {
        let (stats, findings) = analyze_sources(&self.files);
        let mut report = LintReport {
            files_scanned: self.files.len(),
            findings,
            stats,
        };
        report
            .findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        report
    }
}

/// The shared pipeline body: lex → parse → call graph → lexical + taint
/// rules → allows. Returns the graph stats and the merged findings (not yet
/// globally sorted).
pub(crate) fn analyze_sources(files: &[(FileClass, String)]) -> (GraphStats, Vec<Finding>) {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let allows: Vec<Vec<rules::Allow>> = lexed.iter().map(rules::file_allows).collect();
    let parsed: Vec<parser::ParsedFile> = files
        .iter()
        .zip(&lexed)
        .map(|((class, _), lx)| parser::parse_file(class, lx))
        .collect();
    let graph = callgraph::build(&parsed, &lexed);

    // Taint rules see only well-formed allows (A000s never suppress).
    let taint_allows: Vec<taint::FileAllows> = allows
        .iter()
        .map(|v| {
            v.iter()
                .filter(|a| a.well_formed)
                .map(|a| (a.rule.clone(), a.line))
                .collect()
        })
        .collect();
    let taint_findings = taint::check(&graph, &taint_allows);

    // Merge per file so dedup and allow application treat both finding
    // sources uniformly.
    let mut per_file: Vec<Vec<Finding>> = files
        .iter()
        .zip(&lexed)
        .zip(&allows)
        .map(|(((class, _), lx), al)| rules::lexical_findings(class, lx, al))
        .collect();
    for f in taint_findings {
        if let Some(ix) = files.iter().position(|(c, _)| c.path == f.file) {
            per_file[ix].push(f);
        }
    }
    let mut findings = Vec::new();
    for ((bucket, al), (class, _)) in per_file.iter_mut().zip(&allows).zip(files) {
        rules::apply_allows(&class.path, bucket, al);
        findings.append(bucket);
    }
    (graph.stats, findings)
}

/// Recursively collect `.rs` files under `dir`, sorted by name at every
/// level so the scan order — and therefore the report — is deterministic.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan the whole workspace rooted at `root` and produce the report.
///
/// Findings are ordered by (file, line, rule); files the classifier skips
/// (vendor stubs, fixtures) are not counted as scanned.
pub fn lint_tree(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut ws = Workspace::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel).is_some() {
            ws.add(&rel, fs::read_to_string(&path)?);
        }
    }
    Ok(ws.analyze())
}
