//! Stage 3 of the detlint pipeline: a workspace call graph.
//!
//! Nodes are every parsed function in the workspace; edges are name-based
//! call resolutions with receiver-type heuristics:
//!
//! * **Path calls** (`itb_sim::par::run_shards(..)`, `crate::helper(..)`,
//!   `Type::assoc(..)`) resolve through per-crate module resolution — the
//!   extern name `itb_<dir>` maps back to `crates/<dir>`, `crate`/`self`/
//!   `super` to the calling file's own crate and module, and a path whose
//!   last segment before the call is a known type resolves to that type's
//!   impl methods.
//! * **Method calls** (`x.m(..)`) resolve by receiver type when the
//!   receiver is `self`, a field of `self`, a typed parameter or a local
//!   with a visible binding; otherwise by method name when exactly one
//!   function in the workspace has that name.
//! * **Bare calls** (`helper(..)`) resolve in the calling file's module,
//!   then crate-wide by unique name, then through `use` imports.
//!
//! Unresolvable calls (std/vendored callees, ambiguous names) are counted —
//! the totals land in `results/detlint.json` so a resolution regression is
//! visible — but produce no edge. The graph over-approximates where it is
//! cheap (nested fns share the outer body range) and under-approximates
//! only for calls detlint's taint rules then cannot see; the fixture corpus
//! pins the patterns the rules rely on.

use crate::lexer::{Lexed, TokKind, Token};
use crate::parser::{is_keyword, FnItem, ParsedFile, StructItem};
use std::collections::{BTreeMap, BTreeSet};

/// One call edge: callee (global fn index) plus the call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
}

/// Aggregate graph statistics for the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    pub functions: usize,
    pub structs: usize,
    pub edges: usize,
    pub resolved_calls: usize,
    pub unresolved_calls: usize,
}

/// Global function id: index into [`Graph::fns`].
#[derive(Debug, Clone, Copy)]
pub struct FnKey {
    /// Index into the workspace file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
}

/// The workspace call graph, borrowed over the parsed files.
pub struct Graph<'a> {
    pub files: &'a [ParsedFile],
    pub lexed: &'a [Lexed],
    pub fns: Vec<FnKey>,
    /// `edges[f]` = calls made by global fn `f`.
    pub edges: Vec<Vec<Edge>>,
    pub stats: GraphStats,
    /// All struct names in the workspace (receiver-type heuristics).
    pub struct_names: BTreeSet<String>,
    /// `(type name, method name)` → global fn ids.
    methods_by_type: BTreeMap<(String, String), Vec<usize>>,
    /// method name → global fn ids (fns declared inside an impl).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// `(crate, module-path, name)` → global fn ids (free fns).
    free_by_mod: BTreeMap<(String, String, String), Vec<usize>>,
    /// `(crate, name)` → global fn ids (free fns, any module).
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, struct name)` → (file index, struct index).
    structs_by_crate: BTreeMap<(String, String), (usize, usize)>,
}

/// The fn item behind a global id.
impl<'a> Graph<'a> {
    pub fn fn_item(&self, id: usize) -> &'a FnItem {
        &self.files[self.fns[id].file].fns[self.fns[id].item]
    }

    pub fn file_of(&self, id: usize) -> &'a ParsedFile {
        &self.files[self.fns[id].file]
    }

    pub fn tokens_of(&self, id: usize) -> &'a [Token] {
        &self.lexed[self.fns[id].file].tokens
    }

    /// Look up a struct by crate and name.
    pub fn struct_in_crate(&self, krate: &str, name: &str) -> Option<&'a StructItem> {
        let &(f, s) = self
            .structs_by_crate
            .get(&(krate.to_string(), name.to_string()))?;
        Some(&self.files[f].structs[s])
    }

    /// Methods named `name` on type `ty` (global fn ids).
    pub fn methods_of(&self, ty: &str, name: &str) -> &[usize] {
        self.methods_by_type
            .get(&(ty.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }
}

/// Workspace crate directory of an extern-crate name (`itb_sim` → `sim`,
/// `itb_myrinet` → the root package `itb-myrinet`), if it names a
/// workspace crate present in `known`.
fn crate_of_extern(head: &str, known: &BTreeSet<String>) -> Option<String> {
    if head == "itb_myrinet" && known.contains("itb-myrinet") {
        return Some("itb-myrinet".to_string());
    }
    let dir = head.strip_prefix("itb_")?;
    // Workspace dirs use `-` only in the root package name; crate dirs are
    // single words, so the stripped name is the directory name.
    known.contains(dir).then(|| dir.to_string())
}

/// Build the call graph over the parsed workspace. `files` and `lexed` are
/// parallel arrays.
pub fn build<'a>(files: &'a [ParsedFile], lexed: &'a [Lexed]) -> Graph<'a> {
    let mut g = Graph {
        files,
        lexed,
        fns: Vec::new(),
        edges: Vec::new(),
        stats: GraphStats::default(),
        struct_names: BTreeSet::new(),
        methods_by_type: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        free_by_mod: BTreeMap::new(),
        free_by_crate: BTreeMap::new(),
        structs_by_crate: BTreeMap::new(),
    };
    let mut crates: BTreeSet<String> = BTreeSet::new();

    // Pass 1: index every fn and struct.
    for (fi, file) in files.iter().enumerate() {
        crates.insert(file.class.krate.clone());
        for (si, st) in file.structs.iter().enumerate() {
            g.struct_names.insert(st.name.clone());
            g.structs_by_crate
                .entry((file.class.krate.clone(), st.name.clone()))
                .or_insert((fi, si));
        }
        for (ii, f) in file.fns.iter().enumerate() {
            let id = g.fns.len();
            g.fns.push(FnKey { file: fi, item: ii });
            match &f.self_ty {
                Some(ty) => {
                    g.methods_by_type
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    g.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    let mut module = file.module.clone();
                    module.extend(f.mods.iter().cloned());
                    g.free_by_mod
                        .entry((file.class.krate.clone(), module.join("::"), f.name.clone()))
                        .or_default()
                        .push(id);
                    g.free_by_crate
                        .entry((file.class.krate.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
    }
    g.stats.functions = g.fns.len();
    g.stats.structs = g.structs_by_crate.len();

    // Pass 2: extract and resolve call sites.
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); g.fns.len()];
    for (id, edge_slot) in edges.iter_mut().enumerate() {
        let key = g.fns[id];
        let file = &files[key.file];
        let f = &file.fns[key.item];
        let Some((b0, b1)) = f.body else { continue };
        let toks = &lexed[key.file].tokens;
        let locals = local_types(&toks[b0..b1.min(toks.len())], &g.struct_names);
        let mut out: Vec<Edge> = Vec::new();
        for j in b0..b1.min(toks.len()) {
            if !call_head(toks, j) {
                continue;
            }
            let name = toks[j].text.as_str();
            let line = toks[j].line;
            let resolved = resolve_call(&g, file, f, toks, b0, j, &locals);
            match resolved {
                Resolution::Edges(ids) => {
                    g.stats.resolved_calls += 1;
                    for callee in ids {
                        let e = Edge { callee, line };
                        if !out.contains(&e) {
                            out.push(e);
                        }
                    }
                }
                Resolution::External => {}
                Resolution::Unresolved => {
                    // Bare uppercase names are tuple-struct/enum
                    // constructors, not calls — don't count them as misses.
                    if name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
                        g.stats.unresolved_calls += 1;
                    }
                }
            }
        }
        *edge_slot = out;
    }
    g.stats.edges = edges.iter().map(Vec::len).sum();
    g.edges = edges;
    g
}

/// Is token `j` the name position of a call — `ident (` not preceded by
/// `fn` or `!` (macro)?
fn call_head(toks: &[Token], j: usize) -> bool {
    if !matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident)
        || !matches!(toks.get(j + 1), Some(t) if t.kind == TokKind::Punct('('))
        || is_keyword(&toks[j].text)
    {
        return false;
    }
    match j.checked_sub(1).and_then(|p| toks.get(p)) {
        Some(t) if t.kind == TokKind::Ident && t.text == "fn" => false,
        Some(t) if t.kind == TokKind::Punct('!') => false,
        _ => true,
    }
}

enum Resolution {
    Edges(Vec<usize>),
    /// Confidently not a workspace function (std/vendored path).
    External,
    Unresolved,
}

/// Resolve the call whose name token sits at `j`.
#[allow(clippy::too_many_arguments)]
fn resolve_call(
    g: &Graph<'_>,
    file: &ParsedFile,
    f: &FnItem,
    toks: &[Token],
    body_start: usize,
    j: usize,
    locals: &BTreeMap<String, String>,
) -> Resolution {
    let name = toks[j].text.clone();
    let prev = |off: usize| j.checked_sub(off).and_then(|p| toks.get(p));
    let prev_punct =
        |off: usize, c: char| matches!(prev(off), Some(t) if t.kind == TokKind::Punct(c));
    let prev_ident = |off: usize| match prev(off) {
        Some(t) if t.kind == TokKind::Ident => Some(t.text.as_str()),
        _ => None,
    };

    // Method call: `recv.name(..)`.
    if prev_punct(1, '.') {
        let receiver_ty: Option<String> = if prev_ident(2) == Some("self") {
            f.self_ty.clone()
        } else if prev_punct(3, '.') && prev_ident(4) == Some("self") {
            // `self.field.name(..)` — type of the field.
            prev_ident(2).and_then(|field| field_type(g, file, f, field))
        } else if let Some(r) = prev_ident(2) {
            // Typed parameter or local binding.
            f.params
                .iter()
                .find(|p| p.name == r)
                .and_then(|p| p.ty.iter().rev().find(|w| g.struct_names.contains(*w)))
                .cloned()
                .or_else(|| locals.get(r).cloned())
        } else {
            None
        };
        if let Some(ty) = receiver_ty {
            let ids = g.methods_of(&ty, &name);
            if !ids.is_empty() {
                return Resolution::Edges(ids.to_vec());
            }
        }
        return match g.methods_by_name.get(&name) {
            Some(ids) if ids.len() == 1 => Resolution::Edges(ids.clone()),
            _ => Resolution::Unresolved,
        };
    }

    // Path call: `a::b::name(..)`.
    if prev_punct(1, ':') && prev_punct(2, ':') {
        let mut segs: Vec<String> = Vec::new();
        let mut k = j;
        while k >= body_start + 3
            && matches!(toks.get(k - 1), Some(t) if t.kind == TokKind::Punct(':'))
            && matches!(toks.get(k - 2), Some(t) if t.kind == TokKind::Punct(':'))
            && matches!(toks.get(k - 3), Some(t) if t.kind == TokKind::Ident)
        {
            segs.push(toks[k - 3].text.clone());
            k -= 3;
        }
        segs.reverse();
        return resolve_path(g, file, f, &segs, &name);
    }

    // Bare call: `name(..)` — workspace free fns are snake_case; uppercase
    // heads are tuple-struct constructors.
    if !name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
        return Resolution::External;
    }
    // Same module first.
    let mut module = file.module.clone();
    module.extend(f.mods.iter().cloned());
    let key = (file.class.krate.clone(), module.join("::"), name.clone());
    if let Some(ids) = g.free_by_mod.get(&key) {
        return Resolution::Edges(ids.clone());
    }
    // Crate root (common for helpers next to the caller's module).
    let key = (file.class.krate.clone(), String::new(), name.clone());
    if let Some(ids) = g.free_by_mod.get(&key) {
        return Resolution::Edges(ids.clone());
    }
    // Unique in the same crate.
    if let Some(ids) = g
        .free_by_crate
        .get(&(file.class.krate.clone(), name.clone()))
    {
        if ids.len() == 1 {
            return Resolution::Edges(ids.clone());
        }
    }
    // `use` import of the bare name.
    for u in &file.uses {
        if u.local == name && u.path.len() >= 2 {
            let segs = &u.path[..u.path.len() - 1];
            if let r @ Resolution::Edges(_) = resolve_path(g, file, f, segs, &name) {
                return r;
            }
        }
    }
    // Glob imports.
    for u in &file.uses {
        if u.local == "*" {
            if let r @ Resolution::Edges(_) = resolve_path(g, file, f, &u.path, &name) {
                return r;
            }
        }
    }
    Resolution::Unresolved
}

/// Resolve `segs::name(..)` — `segs` are the path segments before the name.
fn resolve_path(
    g: &Graph<'_>,
    file: &ParsedFile,
    f: &FnItem,
    segs: &[String],
    name: &str,
) -> Resolution {
    let Some(last) = segs.last() else {
        return Resolution::Unresolved;
    };
    // `Type::assoc(..)` / `Self::assoc(..)` — the segment just before the
    // name is a type.
    let ty = if last == "Self" {
        f.self_ty.clone()
    } else if g.struct_names.contains(last) {
        Some(last.clone())
    } else {
        None
    };
    if let Some(ty) = ty {
        let ids = g.methods_of(&ty, name);
        return if ids.is_empty() {
            Resolution::Unresolved
        } else {
            Resolution::Edges(ids.to_vec())
        };
    }
    // Module path: resolve the crate from the head segment.
    let known: BTreeSet<String> = g.files.iter().map(|p| p.class.krate.clone()).collect();
    let (krate, rest): (String, &[String]) = match segs[0].as_str() {
        "crate" | "self" => (file.class.krate.clone(), &segs[1..]),
        "super" => (file.class.krate.clone(), &segs[1..]),
        "std" | "core" | "alloc" => return Resolution::External,
        head => match crate_of_extern(head, &known) {
            Some(k) => (k, &segs[1..]),
            None => {
                // The head may itself be a use-imported module alias
                // (`use itb_sim::par; par::run(..)`).
                for u in &file.uses {
                    if u.local == *head && !u.path.is_empty() {
                        let mut full: Vec<String> = u.path.clone();
                        full.extend_from_slice(&segs[1..]);
                        return resolve_path(g, file, f, &full, name);
                    }
                }
                return Resolution::Unresolved;
            }
        },
    };
    let key = (krate.clone(), rest.join("::"), name.to_string());
    if let Some(ids) = g.free_by_mod.get(&key) {
        return Resolution::Edges(ids.clone());
    }
    // Re-exports flatten modules: fall back to a unique crate-wide match.
    if let Some(ids) = g.free_by_crate.get(&(krate, name.to_string())) {
        if ids.len() == 1 {
            return Resolution::Edges(ids.clone());
        }
    }
    Resolution::Unresolved
}

/// Type of `self.<field>` on the calling method's receiver, when the field's
/// type mentions exactly one known struct.
fn field_type(g: &Graph<'_>, file: &ParsedFile, f: &FnItem, field: &str) -> Option<String> {
    let ty = f.self_ty.as_ref()?;
    let st = g.struct_in_crate(&file.class.krate, ty)?;
    let fld = st.fields.iter().find(|x| x.name == field)?;
    fld.ty
        .iter()
        .rev()
        .find(|w| g.struct_names.contains(*w))
        .cloned()
}

/// Scan a body token slice for `let [mut] name [: Ty] = RHS;` bindings and
/// record the struct type each binding most plausibly carries — from the
/// annotation when present, else from an `T::ctor(..)` RHS head. Shadowing
/// keeps the last binding; that is enough for receiver heuristics.
pub fn local_types(body: &[Token], struct_names: &BTreeSet<String>) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut j = 0usize;
    while j < body.len() {
        if !(body[j].kind == TokKind::Ident && body[j].text == "let") {
            j += 1;
            continue;
        }
        let mut k = j + 1;
        if matches!(body.get(k), Some(t) if t.kind == TokKind::Ident && t.text == "mut") {
            k += 1;
        }
        let Some(name_tok) = body.get(k) else { break };
        if name_tok.kind != TokKind::Ident {
            j = k;
            continue;
        }
        let name = name_tok.text.clone();
        k += 1;
        let mut ty: Option<String> = None;
        if matches!(body.get(k), Some(t) if t.kind == TokKind::Punct(':')) {
            // Annotated type: idents until `=` or `;` at depth 0.
            k += 1;
            let mut depth = 0i32;
            while let Some(t) = body.get(k) {
                match &t.kind {
                    TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                    TokKind::Ident if struct_names.contains(&t.text) && ty.is_none() => {
                        ty = Some(t.text.clone());
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        if ty.is_none() {
            // RHS head `T::...` names the type for constructor calls.
            if matches!(body.get(k), Some(t) if t.kind == TokKind::Punct('=')) {
                if let Some(t) = body.get(k + 1) {
                    if t.kind == TokKind::Ident && struct_names.contains(&t.text) {
                        ty = Some(t.text.clone());
                    }
                }
            }
        }
        if let Some(ty) = ty {
            out.insert(name, ty);
        }
        j = k.max(j + 1);
    }
    out
}
