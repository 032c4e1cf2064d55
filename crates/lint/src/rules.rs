//! The determinism & soundness rule set.
//!
//! Every rule encodes an invariant the repo's results actually depend on
//! (see README "Static analysis" for the full table):
//!
//! * **D001** — no default-hasher `HashMap`/`HashSet`. SipHash's per-process
//!   random seed makes iteration order differ between runs; anywhere that
//!   order can leak into behaviour or reports breaks bit-determinism. Use
//!   `itb_sim::fxmap::{FxHashMap, FxHashSet}` or a `BTreeMap`/`BTreeSet`.
//!   Only `crates/sim/src/fxmap.rs` (which wraps std's map with a fixed
//!   hasher) is exempt.
//! * **D002** — no wall-clock, OS randomness or ad-hoc threading
//!   (`Instant`, `SystemTime`, `thread_rng`, `thread::spawn`/`scope`).
//!   Simulated time comes from the event queue; host time in a sim-side
//!   path destroys replayability, and unsynchronized threads make event
//!   order depend on the OS scheduler. The sanctioned fork point is the
//!   barrier-synchronized PDES driver in `itb_sim::par` (annotated);
//!   benches are exempt. Bench-style wall-clock sections elsewhere opt
//!   out with `// detlint::allow(D002, reason)`.
//! * **D003** — no `f32`/`f64` arithmetic on event-time values. Integer
//!   picoseconds in, integer picoseconds out; float conversion is reserved
//!   for reporting. Flagged: float expressions inside `SimTime::from_*` /
//!   `SimDuration::from_*` integer constructors, and `as_ns_f64()` /
//!   `as_us_f64()` results cast straight back to integers. The audited
//!   quantisation boundary lives in `crates/sim/src/time.rs` (exempt).
//! * **S001** — no `unwrap()` / `expect()` / `panic!` in library code
//!   (tests, benches and bins are exempt). An invariant-backed panic is
//!   fine *if stated*: annotate with `// detlint::allow(S001, reason)`.
//! * **S002** — no narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`) in
//!   library code. Packet ids, sequence numbers and times silently wrap
//!   under `as`; use `TryFrom` or `itb_sim::narrow`.
//! * **U001** — every library crate root carries `#![deny(unsafe_code)]`
//!   (or `forbid`).
//! * **A000** — a `detlint::allow` annotation that is malformed, names an
//!   unknown rule, omits the reason, or suppresses no finding on its own
//!   line or the next. Allows are part of the audit trail; a reasonless
//!   allow is itself a finding and suppresses nothing, and a stale one
//!   must go with the finding it once covered. Only plain `//` comments
//!   carry allows, so documentation can quote the syntax.
//!
//! D002 additionally flags `std::env::var`/`env!` in sim-side code:
//! environment-dependent behaviour is cross-machine nondeterminism. Benches
//! stay exempt (`ITB_THREADS` is how `pdes_smoke` picks its shard count).
//!
//! The flow/taint rules **T001**–**T003** live in [`crate::taint`] and run
//! over the workspace call graph rather than single files; their ids are
//! registered here so allows and the report summary cover them.

use crate::lexer::{Comment, Lexed, TokKind, Token};

/// All rule identifiers, in report order.
pub const RULES: &[&str] = &[
    "A000", "D001", "D002", "D003", "S001", "S002", "T001", "T002", "T003", "U001",
];

/// One finding. `allowed` findings are kept in the report (audit trail) but
/// do not fail the gate.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub allowed: bool,
    pub reason: Option<String>,
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` code built into a library target.
    Lib,
    /// `src/bin/`, `src/main.rs`, `examples/`.
    Bin,
    /// `tests/` integration tests.
    Test,
    /// `benches/`.
    Bench,
}

/// Path-derived context for one file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub kind: FileKind,
    /// Crate name (`sim`, `gm`, ... or `itb-myrinet` for the root package).
    pub krate: String,
}

/// Crates whose code runs inside the simulation clock domain — D003's
/// float-on-time rule applies here. The root package (integration tests and
/// examples) drives the same engine, so it is included.
const SIM_SIDE: &[&str] = &[
    "sim",
    "net",
    "nic",
    "gm",
    "routing",
    "topo",
    "core",
    "obs",
    "itb-myrinet",
];

/// Does crate `krate` run inside the simulation clock domain? (Shared with
/// the taint rules: T001 roots its reachability analysis in these crates.)
pub fn is_sim_side(krate: &str) -> bool {
    SIM_SIDE.contains(&krate)
}

/// Classify a workspace-relative path, or `None` if detlint does not scan it
/// (vendor stubs emulate external crates' APIs — the `rayon` shim
/// legitimately reads `ITB_THREADS` — and fixture corpora contain
/// deliberate violations).
pub fn classify(path: &str) -> Option<FileClass> {
    if !path.ends_with(".rs") {
        return None;
    }
    if path.starts_with("vendor/") || path.starts_with("target/") {
        return None;
    }
    if path.contains("/tests/fixtures/") {
        return None;
    }
    let (krate, rest) = if let Some(r) = path.strip_prefix("crates/") {
        let (name, rest) = r.split_once('/')?;
        (name.to_string(), rest.to_string())
    } else {
        ("itb-myrinet".to_string(), path.to_string())
    };
    let kind = if rest.starts_with("tests/") {
        FileKind::Test
    } else if rest.starts_with("benches/") {
        FileKind::Bench
    } else if rest.starts_with("examples/") || rest.starts_with("src/bin/") || rest == "src/main.rs"
    {
        FileKind::Bin
    } else if rest.starts_with("src/") {
        FileKind::Lib
    } else {
        return None;
    };
    Some(FileClass {
        path: path.to_string(),
        kind,
        krate,
    })
}

/// A parsed `detlint::allow` annotation (rule id, then a required reason).
pub(crate) struct Allow {
    pub(crate) rule: String,
    pub(crate) reason: String,
    /// Line the comment starts on; the allow covers this line and the next.
    pub(crate) line: u32,
    pub(crate) well_formed: bool,
}

/// All allow annotations in one lexed file: those in plain `//` comments
/// (doc and block comments carry none).
pub(crate) fn file_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        let doc = c.text.starts_with("///") || c.text.starts_with("//!");
        if c.text.starts_with("//") && !doc {
            parse_allows(c, &mut allows);
        }
    }
    allows
}

/// Extract every `detlint::allow` annotation from a line comment. A
/// comment may carry several.
fn parse_allows(c: &Comment, out: &mut Vec<Allow>) {
    const NEEDLE: &str = "detlint::allow(";
    let mut rest = c.text.as_str();
    while let Some(ix) = rest.find(NEEDLE) {
        let after = &rest[ix + NEEDLE.len()..];
        match after.find(')') {
            Some(close) => {
                let inner = &after[..close];
                let (rule, reason) = match inner.split_once(',') {
                    Some((r, why)) => (r.trim(), why.trim()),
                    None => (inner.trim(), ""),
                };
                let known = RULES.contains(&rule);
                out.push(Allow {
                    rule: rule.to_string(),
                    reason: reason.to_string(),
                    line: c.line,
                    well_formed: known && !reason.is_empty(),
                });
                rest = &after[close + 1..];
            }
            None => {
                out.push(Allow {
                    rule: String::new(),
                    reason: String::new(),
                    line: c.line,
                    well_formed: false,
                });
                break;
            }
        }
    }
}

/// Line spans belonging to `#[cfg(test)]` items (inline unit-test modules).
/// S001/S002 treat those as test code even though they sit in a `src/` file.
fn cfg_test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip this attribute and any further attributes, then span the
            // following item (to its matching brace, or to `;`).
            let mut j = skip_attr(toks, i);
            while matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct('#')) {
                j = skip_attr(toks, j);
            }
            let start_line = toks[i].line;
            if let Some(end_line) = item_end_line(toks, j) {
                regions.push((start_line, end_line));
            }
        }
        i += 1;
    }
    regions
}

/// Does `#` at index `i` open exactly `#[cfg(test)]`?
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct('#'))
        && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('['))
        && ident_is(toks, i + 2, "cfg")
        && matches!(toks.get(i + 3), Some(t) if t.kind == TokKind::Punct('('))
        && ident_is(toks, i + 4, "test")
        && matches!(toks.get(i + 5), Some(t) if t.kind == TokKind::Punct(')'))
        && matches!(toks.get(i + 6), Some(t) if t.kind == TokKind::Punct(']'))
}

/// Index just past the attribute opening at `i` (`#` `[` ... `]`, brackets
/// balanced).
fn skip_attr(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at '['
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Last line of the item starting at token `j`: the matching `}` of its
/// first brace, or the first `;` if one comes sooner.
fn item_end_line(toks: &[Token], j: usize) -> Option<u32> {
    let mut k = j;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(';') => return Some(toks[k].line),
            TokKind::Punct('{') => {
                let mut depth = 0i32;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(toks[k].line);
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return None;
            }
            _ => {}
        }
        k += 1;
    }
    None
}

fn ident_is(toks: &[Token], i: usize, text: &str) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Ident && t.text == text)
}

fn punct_is(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Lint one file's source under its path-derived classification: the full
/// pipeline (lexical rules plus call-graph taint rules) on a one-file
/// workspace. Cross-crate taint obviously needs more than one file — use
/// [`crate::Workspace`] for that — but T002/T003 and the intra-file half of
/// T001 all fire here, which is what the fixture corpus exercises.
pub fn lint_source(class: &FileClass, src: &str) -> Vec<Finding> {
    let files = vec![(class.clone(), src.to_string())];
    crate::analyze_sources(&files).1
}

/// The per-file lexical rules, raw (allows not yet applied; A000 findings
/// for the malformed allows included).
pub(crate) fn lexical_findings(class: &FileClass, lexed: &Lexed, allows: &[Allow]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    // Malformed allows are findings in their own right and never suppress.
    for a in allows.iter().filter(|a| !a.well_formed) {
        let what = if a.rule.is_empty() {
            "unterminated detlint::allow annotation".to_string()
        } else if !RULES.contains(&a.rule.as_str()) {
            format!("detlint::allow names unknown rule `{}`", a.rule)
        } else {
            format!(
                "detlint::allow({}) has no reason — every allow must say why",
                a.rule
            )
        };
        raw.push(Finding {
            rule: "A000",
            file: class.path.clone(),
            line: a.line,
            message: what,
            allowed: false,
            reason: None,
        });
    }

    let test_regions = cfg_test_regions(&lexed.tokens);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| line >= a && line <= b);
    let lib_code = |line: u32| class.kind == FileKind::Lib && !in_test(line);

    check_d001(class, lexed, &mut raw);
    check_d002(class, lexed, &mut raw);
    check_d003(class, lexed, &mut raw);
    check_s001(class, lexed, &lib_code, &mut raw);
    check_s002(class, lexed, &lib_code, &mut raw);
    check_u001(class, lexed, &mut raw);
    raw
}

/// Dedup repeated hits of one rule on one line (e.g. two `HashSet` mentions
/// in a single declaration), then apply the allows of `file`. This is the
/// final per-file step for lexical *and* taint findings — an allow covers
/// its own line and the next, whichever stage produced the finding. A
/// well-formed allow that covers no finding is reported as an A000.
pub(crate) fn apply_allows(file: &str, raw: &mut Vec<Finding>, allows: &[Allow]) {
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.rule != "A000");
    let covers = |a: &Allow, f: &Finding| {
        a.well_formed && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line)
    };
    for f in raw.iter_mut() {
        if f.rule == "A000" {
            continue;
        }
        if let Some(a) = allows.iter().find(|a| covers(a, f)) {
            f.allowed = true;
            f.reason = Some(a.reason.clone());
        }
    }
    let stale: Vec<Finding> = (allows.iter())
        .filter(|a| a.well_formed && !raw.iter().any(|f| covers(a, f)))
        .map(|a| Finding {
            rule: "A000",
            file: file.to_string(),
            line: a.line,
            message: format!(
                "detlint::allow({}) suppresses no finding on its line or the next — delete it",
                a.rule
            ),
            allowed: false,
            reason: None,
        })
        .collect();
    raw.extend(stale);
}

/// D001: default-hasher std maps.
fn check_d001(class: &FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    if class.path == "crates/sim/src/fxmap.rs" {
        return;
    }
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Finding {
                rule: "D001",
                file: class.path.clone(),
                line: t.line,
                message: format!(
                    "default-hasher `{}` — iteration order is seeded per process; \
                     use `itb_sim::Fx{}` or a BTree collection",
                    t.text, t.text
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// D002: wall clock / OS randomness / ad-hoc threading.
fn check_d002(class: &FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" || t.text == "thread_rng" {
            out.push(Finding {
                rule: "D002",
                file: class.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` — wall clock / OS randomness breaks replayability; \
                     simulated time comes from the event queue, seeds from SimRng",
                    t.text
                ),
                allowed: false,
                reason: None,
            });
        }
        // `thread::spawn` / `thread::scope`: OS scheduling order leaking
        // into simulation state is the same hazard as wall-clock reads.
        // The sanctioned spawn site is the barrier-synchronized PDES
        // driver (`crates/sim/src/par.rs`, annotated); benches measure
        // wall-clock throughput by design and are exempt.
        if t.text == "thread"
            && punct_is(toks, i + 1, ':')
            && punct_is(toks, i + 2, ':')
            && matches!(toks.get(i + 3), Some(s) if s.kind == TokKind::Ident
                && matches!(s.text.as_str(), "spawn" | "scope"))
            && !(class.kind == FileKind::Bench || class.krate == "bench")
        {
            out.push(Finding {
                rule: "D002",
                file: class.path.clone(),
                line: t.line,
                message: format!(
                    "`thread::{}` — unsynchronized threads make event order depend on \
                     the OS scheduler; go through `itb_sim::par::run_shards` (the \
                     deterministic fork point) or state why this spawn cannot \
                     affect simulation state",
                    toks[i + 3].text
                ),
                allowed: false,
                reason: None,
            });
        }
        // Environment reads in sim-side code: `env::var`/`env::var_os` and
        // the `env!`/`option_env!` macros make behaviour depend on the host
        // environment — cross-machine nondeterminism. Benches are exempt
        // (ITB_THREADS is the sanctioned pdes_smoke knob), as is the
        // non-sim bench crate itself.
        let env_exempt = class.kind == FileKind::Bench
            || class.krate == "bench"
            || !SIM_SIDE.contains(&class.krate.as_str());
        if !env_exempt {
            let is_env_call = t.text == "env"
                && punct_is(toks, i + 1, ':')
                && punct_is(toks, i + 2, ':')
                && matches!(toks.get(i + 3), Some(s) if s.kind == TokKind::Ident
                    && matches!(s.text.as_str(), "var" | "var_os"));
            let is_env_macro =
                (t.text == "env" || t.text == "option_env") && punct_is(toks, i + 1, '!');
            if is_env_call || is_env_macro {
                out.push(Finding {
                    rule: "D002",
                    file: class.path.clone(),
                    line: t.line,
                    message: "environment read in sim-side code — behaviour that varies \
                              with the host environment is cross-machine nondeterminism; \
                              route configuration through explicit parameters or seeds"
                        .to_string(),
                    allowed: false,
                    reason: None,
                });
            }
        }
    }
}

/// D003: float arithmetic touching event-time values (sim-side crates only).
fn check_d003(class: &FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !SIM_SIDE.contains(&class.krate.as_str()) {
        return;
    }
    if class.path == "crates/sim/src/time.rs" {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        // (i) SimTime::from_ps(...) / SimDuration::from_ns(...) with a float
        // inside the argument list. The `*_f64` constructors in time.rs are
        // the audited quantisation boundary and are not integer constructors,
        // so they do not match here.
        if (ident_is(toks, i, "SimTime") || ident_is(toks, i, "SimDuration"))
            && punct_is(toks, i + 1, ':')
            && punct_is(toks, i + 2, ':')
            && matches!(toks.get(i + 3), Some(t) if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "from_ps" | "from_ns" | "from_us" | "from_ms"))
            && punct_is(toks, i + 4, '(')
        {
            let mut depth = 0i32;
            let mut j = i + 4;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Float => {
                        push_d003(class, toks[i].line, out);
                        break;
                    }
                    TokKind::Ident if toks[j].text == "f32" || toks[j].text == "f64" => {
                        push_d003(class, toks[i].line, out);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // (ii) `.as_ns_f64() as <int>` — float readback recast to integer.
        if (ident_is(toks, i, "as_ns_f64") || ident_is(toks, i, "as_us_f64"))
            && punct_is(toks, i + 1, '(')
            && punct_is(toks, i + 2, ')')
            && ident_is(toks, i + 3, "as")
        {
            push_d003(class, toks[i].line, out);
        }
    }
}

fn push_d003(class: &FileClass, line: u32, out: &mut Vec<Finding>) {
    out.push(Finding {
        rule: "D003",
        file: class.path.clone(),
        line,
        message: "float arithmetic on an event-time value — keep the clock in integer \
                  picoseconds; quantise through SimDuration::from_ns_f64/from_us_f64, \
                  read back integers with as_ps()"
            .to_string(),
        allowed: false,
        reason: None,
    });
}

/// S001: panics in library code.
fn check_s001(
    class: &FileClass,
    lexed: &Lexed,
    lib_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !lib_code(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0 && punct_is(toks, i - 1, '.') && punct_is(toks, i + 1, '(')
            }
            "panic" => punct_is(toks, i + 1, '!'),
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: "S001",
                file: class.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` in library code — return an error, or state the invariant \
                     with detlint::allow(S001, why it cannot fail)",
                    t.text
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// S002: narrowing `as` casts in library code.
fn check_s002(
    class: &FileClass,
    lexed: &Lexed,
    lib_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if ident_is(toks, i, "as")
            && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Ident
                && NARROW.contains(&t.text.as_str()))
            && lib_code(toks[i].line)
        {
            out.push(Finding {
                rule: "S002",
                file: class.path.clone(),
                line: toks[i].line,
                message: format!(
                    "narrowing `as {}` silently wraps out-of-range values — use \
                     `try_into` or `itb_sim::narrow`",
                    toks[i + 1].text
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// U001: library crate roots must deny unsafe code.
fn check_u001(class: &FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    if !(class.path.starts_with("crates/") && class.path.ends_with("/src/lib.rs")) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if (ident_is(toks, i, "deny") || ident_is(toks, i, "forbid")) && punct_is(toks, i + 1, '(')
        {
            let mut j = i + 2;
            let mut depth = 1i32;
            while j < toks.len() && depth > 0 {
                match toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => depth -= 1,
                    TokKind::Ident if toks[j].text == "unsafe_code" => return,
                    _ => {}
                }
                j += 1;
            }
        }
    }
    out.push(Finding {
        rule: "U001",
        file: class.path.clone(),
        line: 1,
        message: "library crate root lacks `#![deny(unsafe_code)]`".to_string(),
        allowed: false,
        reason: None,
    });
}
