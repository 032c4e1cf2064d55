//! Machine report for `results/detlint.json`, written with a hand-rolled
//! JSON emitter — the lint crate depends on nothing, including the vendored
//! serde stubs, so the gate can never be broken by the code it gates.
//!
//! v2 additions: the call-graph stats block (function/struct/edge counts and
//! call-resolution totals, so a resolution regression in the parser or the
//! graph is visible in review) and a stable *fingerprint* per finding — an
//! FNV-1a hash over (rule, file, message, same-message occurrence index)
//! that survives line drift, so diffs of the committed artifact show real
//! rule-state changes, not renumbered lines.

use crate::callgraph::GraphStats;
use crate::rules::{Finding, RULES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate result of a whole-tree scan.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Call-graph totals from the pipeline's third stage.
    pub stats: GraphStats,
}

impl LintReport {
    /// Findings that fail the gate (not covered by a reasoned allow).
    pub fn unallowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Per-rule counts of unallowed findings, every rule present.
    pub fn summary(&self) -> BTreeMap<&'static str, usize> {
        let mut m: BTreeMap<&'static str, usize> = RULES.iter().map(|&r| (r, 0)).collect();
        for f in self.unallowed() {
            if let Some(n) = m.get_mut(f.rule) {
                *n += 1;
            }
        }
        m
    }

    /// Line-independent fingerprints, parallel to `findings`: FNV-1a 64 over
    /// rule, file, message and the occurrence index among findings sharing
    /// all three (so two identical unwrap-allows in one file keep distinct,
    /// stable ids when unrelated lines shift).
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut seen: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
        self.findings
            .iter()
            .map(|f| {
                let k = (f.rule, f.file.as_str(), f.message.as_str());
                let ix = seen.entry(k).or_insert(0);
                let fp = fingerprint(f, *ix);
                *ix += 1;
                fp
            })
            .collect()
    }

    /// Render the JSON document. Key order and finding order are fixed and
    /// no host reading (such as the analyzer's wall time) goes in, so the
    /// artifact is byte-identical for a given tree and CI compares it with
    /// the committed copy.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 2,");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"unallowed_findings\": {},", self.unallowed().count());
        let _ = writeln!(
            s,
            "  \"callgraph\": {{\"functions\": {}, \"structs\": {}, \"edges\": {}, \
             \"resolved_calls\": {}, \"unresolved_calls\": {}}},",
            self.stats.functions,
            self.stats.structs,
            self.stats.edges,
            self.stats.resolved_calls,
            self.stats.unresolved_calls
        );
        s.push_str("  \"summary\": {");
        let summary = self.summary();
        for (i, (rule, n)) in summary.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{rule}\": {n}");
        }
        s.push_str("},\n");
        s.push_str("  \"findings\": [");
        let fps = self.fingerprints();
        for (i, (f, fp)) in self.findings.iter().zip(fps).enumerate() {
            s.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(
                s,
                "{{\"rule\": \"{}\", \"fingerprint\": \"{:016x}\", \"file\": \"{}\", \
                 \"line\": {}, \"allowed\": {}, ",
                f.rule,
                fp,
                escape(&f.file),
                f.line,
                f.allowed
            );
            match &f.reason {
                Some(r) => {
                    let _ = write!(s, "\"reason\": \"{}\", ", escape(r));
                }
                None => s.push_str("\"reason\": null, "),
            }
            let _ = write!(s, "\"message\": \"{}\"}}", escape(&f.message));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// FNV-1a 64 of one finding's stable identity.
fn fingerprint(f: &Finding, occurrence: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(f.rule.as_bytes());
    eat(&[0]);
    eat(f.file.as_bytes());
    eat(&[0]);
    eat(f.message.as_bytes());
    eat(&[0]);
    eat(&occurrence.to_le_bytes());
    h
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}
