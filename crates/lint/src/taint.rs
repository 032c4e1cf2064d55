//! Stage 4 of the detlint pipeline: flow/taint rules over the call graph.
//!
//! * **T001 — cross-crate nondeterminism taint.** A function that lexically
//!   reads a nondeterminism source (`Instant`, `SystemTime`, `thread_rng`,
//!   `available_parallelism`, `std::env::var`, `env!`) is a *source*; taint
//!   propagates backward along call edges. Any function in sim-side library
//!   code that calls a tainted function is flagged at the call site — this
//!   is exactly the laundering the per-line D002 scan cannot see: the
//!   wall-clock read sits in another crate behind an innocent-looking
//!   helper. A reasoned `detlint::allow(T001, ..)` on the call site both
//!   allows the finding and *seals* the edge: callers further up are not
//!   tainted through it, because the allow asserts the reading never enters
//!   sim state.
//! * **T002 — unordered iteration feeding an ordered sink.** A `for` loop
//!   directly over an `FxHashMap`/`FxHashSet` (fixed seed, but *insertion-
//!   order dependent* iteration) whose body schedules events, feeds a
//!   `Digest` (a `state_digest`/`digest_into` call, a method on a `Digest`
//!   binding, or a `hash(..)` call taking one), or writes an exported
//!   artifact is flagged: the hazard class behind the PR 5
//!   cross-shard-tie contract. Iterating a sorted copy (collect + sort
//!   first) is the sanctioned shape and does not match.
//! * **T003 — digest completeness.** Every struct with a `state_digest`
//!   hook must either fold each field into the digest (directly or through
//!   helper methods on the same type) or carry an explicit
//!   `detlint::allow(T003, why)` on the field. Behavioral state silently
//!   missing from the digest would let the model checker merge states that
//!   diverge later.

use crate::callgraph::{local_types, Graph};
use crate::lexer::{TokKind, Token};
use crate::rules::{is_sim_side, FileKind, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Well-formed allows of one file, as `(rule, line)` pairs.
pub type FileAllows = Vec<(String, u32)>;

/// Run all taint rules. `allows[i]` holds the well-formed allow annotations
/// of workspace file `i` (parallel to `graph.files`).
pub fn check(graph: &Graph<'_>, allows: &[FileAllows]) -> Vec<Finding> {
    let mut out = Vec::new();
    t001(graph, allows, &mut out);
    t002(graph, &mut out);
    t003(graph, &mut out);
    out
}

/// Does file `fi` carry a well-formed allow for `rule` covering `line`?
/// (An allow on line `a` covers findings on `a` and `a + 1`, matching the
/// application rule in the merge step.)
fn allowed_at(allows: &[FileAllows], fi: usize, rule: &str, line: u32) -> bool {
    allows.get(fi).is_some_and(|v| {
        v.iter()
            .any(|(r, l)| r == rule && (*l == line || l + 1 == line))
    })
}

// ---- T001 ----------------------------------------------------------------

/// What a source function reaches, for diagnostics.
#[derive(Clone)]
struct Taint {
    /// Next function toward the source (`usize::MAX` = this fn is the source).
    via: usize,
    /// Human description of the source (`wall clock: Instant`, ...).
    source: String,
}

/// Lexical nondeterminism source inside a body token range, if any.
fn direct_source(toks: &[Token], b0: usize, b1: usize) -> Option<String> {
    for j in b0..b1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| matches!(toks.get(j + 1), Some(n) if n.kind == TokKind::Punct(c));
        let prev_is_path = || {
            j >= 2
                && matches!(toks.get(j - 1), Some(n) if n.kind == TokKind::Punct(':'))
                && matches!(toks.get(j - 2), Some(n) if n.kind == TokKind::Punct(':'))
        };
        match t.text.as_str() {
            "Instant" => return Some("wall clock: Instant".to_string()),
            "SystemTime" => return Some("wall clock: SystemTime".to_string()),
            "thread_rng" => return Some("OS randomness: thread_rng".to_string()),
            "available_parallelism" if next_is('(') || prev_is_path() => {
                return Some("host CPU count: available_parallelism".to_string());
            }
            // `env::var` / `env::var_os` (any path spelled to there).
            "var" | "var_os"
                if prev_is_path()
                    && j >= 3
                    && matches!(toks.get(j - 3), Some(n) if n.kind == TokKind::Ident && n.text == "env") =>
            {
                return Some(format!("environment read: env::{}", t.text));
            }
            "env" | "option_env" if next_is('!') => {
                return Some(format!("environment read: {}!", t.text));
            }
            _ => {}
        }
    }
    None
}

/// T001: backward taint from nondeterminism sources; findings on sim-side
/// library call sites into tainted functions.
fn t001(graph: &Graph<'_>, allows: &[FileAllows], out: &mut Vec<Finding>) {
    let n = graph.fns.len();
    let mut taint: Vec<Option<Taint>> = vec![None; n];
    let mut work: Vec<usize> = Vec::new();
    for (id, slot) in taint.iter_mut().enumerate() {
        let f = graph.fn_item(id);
        let Some((b0, b1)) = f.body else { continue };
        if let Some(src) = direct_source(graph.tokens_of(id), b0, b1) {
            *slot = Some(Taint {
                via: usize::MAX,
                source: src,
            });
            work.push(id);
        }
    }
    // Reverse edges (caller lists per callee), with the sealing rule: an
    // edge whose call site carries a T001 allow does not propagate taint.
    let mut callers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            callers[e.callee].push((caller, e.line));
        }
    }
    while let Some(g) = work.pop() {
        let src = match &taint[g] {
            Some(t) => t.source.clone(),
            None => continue,
        };
        for &(caller, line) in &callers[g] {
            if taint[caller].is_some() {
                continue;
            }
            if allowed_at(allows, graph.fns[caller].file, "T001", line) {
                continue; // sealed edge
            }
            taint[caller] = Some(Taint {
                via: g,
                source: src.clone(),
            });
            work.push(caller);
        }
    }
    // Findings: sim-side library fns with an edge into a tainted fn.
    for id in 0..n {
        let file = graph.file_of(id);
        let f = graph.fn_item(id);
        if file.class.kind != FileKind::Lib || !is_sim_side(&file.class.krate) || f.in_cfg_test {
            continue;
        }
        for e in &graph.edges[id] {
            let Some(t) = &taint[e.callee] else { continue };
            let callee = graph.fn_item(e.callee);
            out.push(Finding {
                rule: "T001",
                file: file.class.path.clone(),
                line: e.line,
                message: format!(
                    "sim-path function `{}` calls `{}`, which reaches a nondeterminism \
                     source ({}) — via {}; route the value through sim state/seeds, or \
                     state why it never does with detlint::allow(T001, why)",
                    f.name,
                    callee.name,
                    t.source,
                    taint_path(graph, &taint, e.callee),
                ),
                allowed: false,
                reason: None,
            });
        }
        // A sim-side function that *itself* reads a source D002 cannot see
        // (host CPU count / environment are handled by D002's env arm only
        // for env) — flag available_parallelism here so it cannot hide.
        if let Some((b0, b1)) = f.body {
            if let Some(src) = direct_source(graph.tokens_of(id), b0, b1) {
                if src.starts_with("host CPU count") {
                    out.push(Finding {
                        rule: "T001",
                        file: file.class.path.clone(),
                        line: f.line,
                        message: format!(
                            "sim-path function `{}` reads a nondeterminism source ({}) — \
                             thread counts must come from configuration, not the host",
                            f.name, src
                        ),
                        allowed: false,
                        reason: None,
                    });
                }
            }
        }
    }
}

/// Render the call chain from `start` down to its source, for messages.
fn taint_path(graph: &Graph<'_>, taint: &[Option<Taint>], start: usize) -> String {
    let mut names = Vec::new();
    let mut cur = start;
    for _ in 0..8 {
        names.push(graph.fn_item(cur).name.clone());
        match taint.get(cur).and_then(|t| t.as_ref()) {
            Some(t) if t.via != usize::MAX => cur = t.via,
            _ => break,
        }
    }
    names.join(" → ")
}

// ---- T002 ----------------------------------------------------------------

const EXPORT_SINKS: &[&str] = &[
    "dump_json",
    "dump_text",
    "dump_stream",
    "write_jsonl",
    "write_chrome_trace",
    "write_par_windows_chrome_trace",
    "to_json",
];

/// T002: `for` loops directly over unordered containers whose bodies hit an
/// order-sensitive sink.
fn t002(graph: &Graph<'_>, out: &mut Vec<Finding>) {
    let fx_names: BTreeSet<String> = ["FxHashMap", "FxHashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for id in 0..graph.fns.len() {
        let file = graph.file_of(id);
        let f = graph.fn_item(id);
        if file.class.kind == FileKind::Test || f.in_cfg_test {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let toks = graph.tokens_of(id);
        let body = &toks[b0..b1.min(toks.len())];
        let fx_locals = local_types(body, &fx_names);
        // Digest-typed idents in scope (params + locals) for sink checks.
        let mut digest_idents: BTreeSet<String> = f
            .params
            .iter()
            .filter(|p| p.ty.iter().any(|w| w == "Digest"))
            .map(|p| p.name.clone())
            .collect();
        let digest_names: BTreeSet<String> = ["Digest"].iter().map(|s| s.to_string()).collect();
        for (name, ty) in local_types(body, &digest_names) {
            if ty == "Digest" {
                digest_idents.insert(name);
            }
        }
        let mut j = b0;
        while j < b1.min(toks.len()) {
            if !(toks[j].kind == TokKind::Ident && toks[j].text == "for") {
                j += 1;
                continue;
            }
            // `for<'a>` HRTBs are types, not loops.
            if matches!(toks.get(j + 1), Some(t) if t.kind == TokKind::Punct('<')) {
                j += 1;
                continue;
            }
            // Find the `in` of this loop (same depth, before the body `{`).
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut in_ix = None;
            while k < b1.min(toks.len()) && k < j + 64 {
                match &toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    TokKind::Ident if depth == 0 && toks[k].text == "in" => {
                        in_ix = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(in_ix) = in_ix else {
                j += 1;
                continue;
            };
            // Iterated expression: tokens up to the body `{` at depth 0.
            let mut e = in_ix + 1;
            let mut depth = 0i32;
            while e < b1.min(toks.len()) {
                match &toks[e].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    _ => {}
                }
                e += 1;
            }
            let expr = &toks[in_ix + 1..e.min(toks.len())];
            let Some(container) = unordered_container(graph, file, f, expr, &fx_locals) else {
                j = in_ix + 1;
                continue;
            };
            // Loop body: matching brace of the `{` at `e`.
            let mut depth = 0i32;
            let mut close = e;
            while close < b1.min(toks.len()) {
                match toks[close].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            if let Some(sink) = sink_in(&toks[e..close.min(toks.len())], &digest_idents) {
                out.push(Finding {
                    rule: "T002",
                    file: file.class.path.clone(),
                    line: toks[j].line,
                    message: format!(
                        "loop iterates unordered `{container}` and {sink} — iteration \
                         order is insertion-order dependent; collect and sort the keys \
                         first (see the digest hooks for the sanctioned shape)"
                    ),
                    allowed: false,
                    reason: None,
                });
            }
            j = in_ix + 1;
        }
    }
}

/// Does `expr` iterate an unordered container directly? Returns the
/// container description, or `None` (including when a `sort`-ish helper is
/// visibly involved).
fn unordered_container(
    graph: &Graph<'_>,
    file: &crate::parser::ParsedFile,
    f: &crate::parser::FnItem,
    expr: &[Token],
    fx_locals: &BTreeMap<String, String>,
) -> Option<String> {
    if expr
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("sort"))
    {
        return None;
    }
    for (i, t) in expr.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // Literal constructor in the expression.
        if t.text == "FxHashMap" || t.text == "FxHashSet" {
            return Some(t.text.clone());
        }
        // `self.field` where the field type is unordered.
        if t.text == "self" && matches!(expr.get(i + 1), Some(n) if n.kind == TokKind::Punct('.')) {
            if let Some(field) = expr.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                if let Some(ty) = f.self_ty.as_ref() {
                    if let Some(st) = graph.struct_in_crate(&file.class.krate, ty) {
                        if let Some(fld) = st.fields.iter().find(|x| x.name == field.text) {
                            if fld.ty.iter().any(|w| w == "FxHashMap" || w == "FxHashSet") {
                                return Some(format!("self.{}", field.text));
                            }
                        }
                    }
                }
            }
            continue;
        }
        // Param or local with unordered type.
        let prev_dot = i > 0 && matches!(expr.get(i - 1), Some(n) if n.kind == TokKind::Punct('.'));
        if prev_dot {
            continue; // a method/field name, not a binding
        }
        if f.params
            .iter()
            .any(|p| p.name == t.text && p.ty.iter().any(|w| w == "FxHashMap" || w == "FxHashSet"))
            || fx_locals.contains_key(&t.text)
        {
            return Some(t.text.clone());
        }
    }
    None
}

/// Order-sensitive sink inside a loop body, if any.
fn sink_in(body: &[Token], digest_idents: &BTreeSet<String>) -> Option<String> {
    for (j, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is_call = matches!(body.get(j + 1), Some(n) if n.kind == TokKind::Punct('('));
        if next_is_call {
            if t.text.starts_with("schedule") {
                return Some(format!("schedules an event (`{}`)", t.text));
            }
            if t.text == "state_digest" || t.text == "digest_into" {
                return Some(format!("feeds a Digest (`{}`)", t.text));
            }
            // `ev.hash(&mut d)` / `Hash::hash(job, d)`: a derived or manual
            // `Hash` folding into a known Digest binding.
            if t.text == "hash" && hash_args_name_a_digest(&body[j + 1..], digest_idents) {
                return Some("feeds a Digest (`hash`)".to_string());
            }
            if EXPORT_SINKS.contains(&t.text.as_str()) {
                return Some(format!("writes an exported artifact (`{}`)", t.text));
            }
        }
        // `d.u64(..)` etc. on a known Digest binding.
        if digest_idents.contains(&t.text)
            && matches!(body.get(j + 1), Some(n) if n.kind == TokKind::Punct('.'))
            && matches!(body.get(j + 2), Some(n) if n.kind == TokKind::Ident)
            && matches!(body.get(j + 3), Some(n) if n.kind == TokKind::Punct('('))
        {
            return Some(format!("feeds a Digest (`{}`)", t.text));
        }
    }
    None
}

/// Whether the parenthesized argument list at the front of `toks` names a
/// Digest binding.
fn hash_args_name_a_digest(toks: &[Token], digest_idents: &BTreeSet<String>) -> bool {
    let mut depth = 0i32;
    for t in toks {
        match &t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if digest_idents.contains(&t.text) => return true,
            _ => {}
        }
    }
    false
}

// ---- T003 ----------------------------------------------------------------

/// T003: every field of a struct with a `state_digest` hook is digested or
/// explicitly allowed.
fn t003(graph: &Graph<'_>, out: &mut Vec<Finding>) {
    for id in 0..graph.fns.len() {
        let f = graph.fn_item(id);
        if f.name != "state_digest" || f.in_cfg_test {
            continue;
        }
        let file = graph.file_of(id);
        if file.class.kind != FileKind::Lib {
            continue;
        }
        let Some(ty) = f.self_ty.as_ref() else {
            continue;
        };
        let Some(st) = graph.struct_in_crate(&file.class.krate, ty) else {
            continue;
        };
        if st.fields.is_empty() {
            continue;
        }
        // Fields touched by state_digest or any same-type method it
        // (transitively) calls via `self.m(..)`.
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut stack = vec![id];
        let mut touched: BTreeSet<String> = BTreeSet::new();
        while let Some(m) = stack.pop() {
            if !visited.insert(m) {
                continue;
            }
            let mf = graph.fn_item(m);
            let Some((b0, b1)) = mf.body else { continue };
            let toks = graph.tokens_of(m);
            for j in b0..b1.min(toks.len()) {
                if !(toks[j].kind == TokKind::Ident && toks[j].text == "self") {
                    continue;
                }
                if !matches!(toks.get(j + 1), Some(n) if n.kind == TokKind::Punct('.')) {
                    continue;
                }
                let Some(next) = toks.get(j + 2).filter(|n| n.kind == TokKind::Ident) else {
                    continue;
                };
                if st.fields.iter().any(|fl| fl.name == next.text) {
                    touched.insert(next.text.clone());
                }
                // `self.m(..)` — follow methods on the same type.
                if matches!(toks.get(j + 3), Some(n) if n.kind == TokKind::Punct('(')) {
                    for &callee in graph.methods_of(ty, &next.text) {
                        stack.push(callee);
                    }
                }
            }
        }
        // The struct may live in a different file than the impl: findings
        // land on the field's declaration line in the struct's file.
        let struct_file = graph
            .files
            .iter()
            .find(|pf| {
                pf.class.krate == file.class.krate
                    && pf
                        .structs
                        .iter()
                        .any(|s| s.name == st.name && s.line == st.line)
            })
            .map_or(&file.class.path, |pf| &pf.class.path);
        for fl in &st.fields {
            if !touched.contains(&fl.name) {
                out.push(Finding {
                    rule: "T003",
                    file: struct_file.clone(),
                    line: fl.line,
                    message: format!(
                        "field `{}` of `{}` is not folded into `state_digest` — digest \
                         it, or state why it never influences a future transition with \
                         detlint::allow(T003, why)",
                        fl.name, st.name
                    ),
                    allowed: false,
                    reason: None,
                });
            }
        }
    }
}
