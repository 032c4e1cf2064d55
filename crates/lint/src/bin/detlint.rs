//! detlint CLI — scan the workspace, print findings, write the JSON report,
//! exit nonzero on any unallowed finding.
//!
//! Usage: `detlint [--root DIR] [--json PATH] [--rule ID] [--budget-ms N] [--quiet]`
//!
//! The JSON report defaults to `<root>/results/detlint.json`, or
//! `$ITB_RESULTS_DIR/detlint.json` when that variable is set (matching the
//! bench binaries' convention so CI can redirect artifacts).
//!
//! `--rule ID` is a local-iteration filter: only findings of that rule are
//! printed and gated, and no JSON report is written unless `--json` is
//! passed explicitly. `--budget-ms N` (CI default: 15000) is the soft
//! self-benchmark gate — the parser/call-graph stages must not quietly make
//! the gate slow; 0 disables.

#![deny(unsafe_code)]

use itb_lint::lint_tree;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: detlint [--root DIR] [--json PATH] [--rule ID] [--budget-ms N] [--quiet]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut quiet = false;
    let mut rule: Option<String> = None;
    let mut budget_ms: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--rule" => match args.next() {
                Some(v) => rule = Some(v),
                None => return usage("--rule needs a rule id"),
            },
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => budget_ms = v,
                None => return usage("--budget-ms needs an integer"),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(r) = &rule {
        if !itb_lint::rules::RULES.contains(&r.as_str()) {
            return usage(&format!(
                "unknown rule `{r}` (known: {})",
                itb_lint::rules::RULES.join(", ")
            ));
        }
    }

    // Analyzer self-benchmark: pure observability — the wall reading goes
    // to the stdout summary and the soft budget gate, never into the report
    // or any analysis result.
    // detlint::allow(D002, analyzer self-benchmark: wall time only reaches stdout and the soft budget gate)
    let t0 = std::time::Instant::now();
    let report = match lint_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);

    let gated = |f: &itb_lint::Finding| rule.as_deref().is_none_or(|r| f.rule == r);
    let mut unallowed = 0usize;
    for f in report.findings.iter().filter(|f| gated(f)) {
        if f.allowed {
            continue;
        }
        unallowed += 1;
        if !quiet {
            println!("{}:{}: {} {}", f.file, f.line, f.rule, f.message);
        }
    }

    // With a --rule filter the run is a local iteration aid: skip the report
    // unless an explicit --json destination asks for it.
    let json = match (&rule, json) {
        (Some(_), None) => None,
        (_, explicit) => Some(explicit.unwrap_or_else(|| {
            std::env::var_os("ITB_RESULTS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| root.join("results"))
                .join("detlint.json")
        })),
    };
    if let Some(json) = &json {
        if let Some(dir) = json.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("detlint: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(json, report.to_json()) {
            eprintln!("detlint: cannot write {}: {e}", json.display());
            return ExitCode::FAILURE;
        }
    }

    let allowed = report
        .findings
        .iter()
        .filter(|f| gated(f) && f.allowed)
        .count();
    println!(
        "detlint: {} files, {} fns, {} call edges ({} resolved / {} unresolved calls); \
         {} unallowed finding(s), {} allowed; {} ms{}",
        report.files_scanned,
        report.stats.functions,
        report.stats.edges,
        report.stats.resolved_calls,
        report.stats.unresolved_calls,
        unallowed,
        allowed,
        wall_ms,
        json.as_deref()
            .map(|p| format!("; report: {}", p.display()))
            .unwrap_or_default()
    );
    if budget_ms > 0 && wall_ms > budget_ms {
        eprintln!(
            "detlint: analyzer took {wall_ms} ms, over the {budget_ms} ms soft budget — \
             the parser/call-graph stages regressed"
        );
        return ExitCode::FAILURE;
    }
    if unallowed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("detlint: {err}\n{USAGE}");
    ExitCode::FAILURE
}
