//! `ledger`: host-time benchmark of the ITB Myrinet simulator.
//!
//! Runs five workloads that stress different layers, reports end-to-end
//! metrics (work done per host second, set-up time, allocations, peak heap)
//! from untraced runs and a per-layer split from one traced run plus
//! microbenchmarks, and checks every run's simulated output. See README.md
//! for the metric catalog and the reason behind each workload.
//!
//! ```text
//! ledger [--seed N] [--runs N] [--only W[,W...]] [--label NAME]
//! ledger --compare A B
//! ledger --workload W --seed N --seconds S --trace 0|1
//! ```

mod alloc;
mod catalog;
mod micro;
mod records;
mod stats;
mod timed;
mod workloads;

use catalog::{END_TO_END, FAILED_SHARE};
use records::Record;
use stats::{median, summarize, Summary};
use std::process::ExitCode;
use std::time::Instant;
use timed::{Kind, Layer, Profile};
use workloads::{Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  ledger [--seed N] [--runs N] [--only W[,W...]] [--label NAME]
  ledger --compare A B
  ledger --workload W --seed N --seconds S --trace 0|1";

/// Where full runs write their records.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// Single-workload mode takes at least this many set-up samples: one per
/// run, plus extra set-ups when the runs are fewer. Set-ups are not timed in
/// a tight loop of their own, which would measure a warm allocator and warm
/// caches that a study's one set-up never sees.
const MIN_SETUPS: usize = 5;

/// One set-up and run of a workload.
struct Rep {
    setup_s: f64,
    run_s: f64,
    allocs: u64,
    peak_bytes: u64,
    outcome: Outcome,
    profile: Option<Profile>,
}

impl Rep {
    fn failed(&self) -> u64 {
        if self.outcome.error.is_some() {
            self.outcome.attempted
        } else {
            0
        }
    }

    fn e2e(&self, metric: &str) -> f64 {
        let o = &self.outcome;
        match metric {
            "sim_us_per_s" => o.sim_us / self.run_s,
            "deliveries_per_s" => o.delivered as f64 / self.run_s,
            "setup_s" => self.setup_s,
            "allocs_per_delivery" => self.allocs as f64 / o.delivered.max(1) as f64,
            "peak_heap_mb" => self.peak_bytes as f64 / (1024.0 * 1024.0),
            "failed_share" => self.failed() as f64 / o.attempted.max(1) as f64,
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }
}

fn rep(w: Workload, seed: u64, traced: bool) -> Rep {
    let expect = if seed == 1 {
        w.committed_digest()
    } else {
        None
    };
    let base = alloc::reset_peak();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let mut sim = w.setup(seed);
    let t1 = Instant::now();
    let profile = if traced {
        let (s, p) = sim.run_traced();
        sim = s;
        Some(p)
    } else {
        sim.run();
        None
    };
    let t2 = Instant::now();
    let allocs = alloc::allocs() - a0;
    let peak_bytes = alloc::peak() - base;
    Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        allocs,
        peak_bytes,
        outcome: sim.finish(expect),
        profile,
    }
}

/// Flag any run whose digest differs from the first run's: the simulation
/// is deterministic, and timing must never change it.
fn check_same_digest(reps: &mut [&mut Rep]) {
    let Some(first) = reps.first().map(|r| r.outcome.digest.clone()) else {
        return;
    };
    for r in reps.iter_mut() {
        if r.outcome.error.is_none() && r.outcome.digest != first {
            r.outcome.error = Some(format!("digest {} differs from {first}", r.outcome.digest));
        }
    }
}

fn one(v: f64) -> Summary {
    summarize(&[v])
}

/// Every per-layer metric of a workload: the traced run's split and
/// counters, tracing overhead against the untraced runs, and the
/// microbenchmarks.
fn per_layer(
    traced: &Rep,
    untraced_run_s: f64,
    micro: &[(&'static str, Summary)],
) -> Vec<(String, &'static str, Summary)> {
    let p = traced.profile.as_ref().expect("a traced run has a profile");
    let delivered = traced.outcome.delivered.max(1) as f64;
    let mut values: Vec<(String, Summary)> = Vec::new();
    for k in Kind::ALL {
        values.push((format!("{}.n", k.name()), one(p.count(k) as f64)));
        values.push((format!("{}.share", k.name()), one(p.kind_share(k))));
    }
    for l in Layer::ALL {
        values.push((format!("{}.share", l.name()), one(p.share(l))));
        let allocs = p.layer_allocs(l) as f64 / delivered;
        values.push((format!("{}.allocs", l.name()), one(allocs)));
    }
    for (name, v) in &traced.outcome.counters {
        values.push((name.to_string(), one(*v)));
    }
    values.push(("queue.depth_max".into(), one(p.depth_max as f64)));
    values.push(("queue.depth_mean".into(), one(p.depth_mean())));
    values.push(("trace.wall_s".into(), one(p.wall_ns as f64 / 1e9)));
    let overhead = traced.run_s / untraced_run_s - 1.0;
    values.push(("trace.overhead".into(), one(overhead)));
    for (name, s) in micro {
        values.push((name.to_string(), *s));
        values.push((format!("{name}.mad"), one(s.mad)));
    }
    // Report in catalog order, with the catalog's units.
    catalog::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let s = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .1;
            (name, unit, s)
        })
        .collect()
}

fn json_metrics(metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Single-workload mode: untraced runs for `seconds` of run phase, then
/// either the end-to-end medians or (`trace`) one traced run and the
/// microbenchmarks. Prints one JSON object as the last stdout line.
fn single(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let mut reps: Vec<Rep> = Vec::new();
    let mut run_total = 0.0;
    while reps.is_empty() || run_total < seconds {
        let r = rep(w, seed, false);
        eprintln!(
            "{} run {}: setup {:.3} s, run {:.3} s, {:.1} sim-us, {} delivered, {}",
            w.name(),
            reps.len() + 1,
            r.setup_s,
            r.run_s,
            r.outcome.sim_us,
            r.outcome.delivered,
            r.outcome.error.as_deref().unwrap_or("ok")
        );
        run_total += r.run_s;
        reps.push(r);
    }
    let metrics: Vec<(String, &str, f64)> = if trace {
        let traced = rep(w, seed, true);
        let untraced_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let micro = micro::run(w, seed);
        let values = per_layer(&traced, untraced_run_s, &micro);
        reps.push(traced);
        values
            .into_iter()
            .map(|(name, unit, s)| (name, unit, s.median))
            .collect()
    } else {
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        while setups.len() < MIN_SETUPS {
            let t = Instant::now();
            let sim = w.setup(seed);
            setups.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "setup_s" {
                    median(&setups)
                } else {
                    median(&reps.iter().map(|r| r.e2e(m.name)).collect::<Vec<_>>())
                };
                (m.name.to_string(), m.unit, v)
            })
            .collect()
    };
    check_same_digest(&mut reps.iter_mut().collect::<Vec<_>>());
    let correct = reps.iter().all(|r| r.outcome.error.is_none());
    for r in &reps {
        if let Some(e) = &r.outcome.error {
            eprintln!("{}: FAILED: {e}", w.name());
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = reps.iter().map(Rep::failed).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "  {name:<22} {:>16.6} {unit:<10} [p25 {:.6}, p75 {:.6}, min {:.6}, max {:.6}, n={}]",
        s.median, s.p25, s.p75, s.min, s.max, s.n
    );
}

/// Full ledger: `runs` untraced runs per workload, interleaved round-robin,
/// then one traced run and the microbenchmarks per workload. Prints every
/// metric and writes the records to `results/<label>.txt`.
fn ledger(seed: u64, runs: usize, only: &[Workload], label: &str) -> ExitCode {
    let mut reps: Vec<Vec<Rep>> = only.iter().map(|_| Vec::new()).collect();
    for round in 0..runs {
        for (i, &w) in only.iter().enumerate() {
            let r = rep(w, seed, false);
            eprintln!(
                "round {}/{runs} {:<22} setup {:.3} s, run {:.3} s",
                round + 1,
                w.name(),
                r.setup_s,
                r.run_s
            );
            reps[i].push(r);
        }
    }
    let mut records: Vec<Record> = Vec::new();
    let mut all_correct = true;
    for (i, &w) in only.iter().enumerate() {
        eprintln!("traced run and microbenchmarks: {}", w.name());
        let mut traced = rep(w, seed, true);
        let micro = micro::run(w, seed);
        let mut group: Vec<&mut Rep> = reps[i].iter_mut().collect();
        group.push(&mut traced);
        check_same_digest(&mut group);
        let untraced = &reps[i];
        println!("{} (seed {seed})", w.name());
        for m in END_TO_END.iter().chain([&FAILED_SHARE]) {
            let s = summarize(&untraced.iter().map(|r| r.e2e(m.name)).collect::<Vec<_>>());
            print_summary(m.name, m.unit, &s);
            records.push(Record::new(w.name(), m.name, m.unit, &s));
        }
        let run_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let layer = per_layer(&traced, run_s, &micro);
        let p = traced.profile.as_ref().expect("traced");
        println!(
            "  {:<22} {:>12} {:>9} {:>10}",
            "kind", "events", "share", "ns/event"
        );
        for k in Kind::ALL.into_iter().filter(|&k| p.count(k) > 0) {
            println!(
                "  {:<22} {:>12} {:>9.4} {:>10.1}",
                k.name(),
                p.count(k),
                p.kind_share(k),
                p.mean_ns(k)
            );
        }
        for (name, unit, s) in &layer {
            // The kind table above already shows the per-kind metrics.
            let per_kind = Kind::ALL.iter().any(|k| {
                name.strip_prefix(k.name())
                    .is_some_and(|rest| rest == ".n" || rest == ".share")
            });
            if !per_kind {
                print_summary(name, unit, s);
            }
            records.push(Record::new(w.name(), name, unit, s));
        }
        for r in untraced.iter().chain([&traced]) {
            if let Some(e) = &r.outcome.error {
                all_correct = false;
                println!("  FAILED: {e}");
            }
        }
        println!("  digest {} {}", w.name(), traced.outcome.digest);
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = format!(
        "# ledger records: label={label} seed={seed} runs={runs} arch={} parallelism={parallelism}\n\
         # workload metric unit median p25 p75 n\n",
        std::env::consts::ARCH
    );
    for r in &records {
        text.push_str(&r.line());
        text.push('\n');
    }
    let path = format!("{RESULTS_DIR}/{label}.txt");
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[wrote {path}]");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| records::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("ledger compare: {a} -> {b}");
    let (report, worse) = records::compare(&ra, &rb);
    print!("{report}");
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parsed command line.
enum Mode {
    Ledger {
        seed: u64,
        runs: usize,
        only: Vec<Workload>,
        label: String,
    },
    Compare(String, String),
    Single {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = 1;
    let mut runs = 5;
    let mut only: Vec<Workload> = Workload::ALL.to_vec();
    let mut label = "latest".to_string();
    let mut workload = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let a = value()?.clone();
                let b = it.next().ok_or("--compare needs two record files")?.clone();
                return Ok(Mode::Compare(a, b));
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--runs" => {
                runs = value()?.parse().map_err(|_| "--runs takes an integer")?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--only" => {
                only = value()?
                    .split(',')
                    .map(|n| Workload::from_name(n).ok_or(format!("unknown workload {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "--label" => {
                label = value()?.clone();
                let ok = !label.is_empty()
                    && label
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
                    && !label.starts_with('.');
                if !ok {
                    return Err("--label takes letters, digits, '_', '-' and '.'".into());
                }
            }
            "--workload" => {
                let n = value()?;
                workload = Some(Workload::from_name(n).ok_or(format!("unknown workload {n}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, seconds, trace) {
        (Some(workload), Some(seconds), Some(trace)) => Ok(Mode::Single {
            workload,
            seed,
            seconds,
            trace,
        }),
        (None, None, None) => Ok(Mode::Ledger {
            seed,
            runs,
            only,
            label,
        }),
        _ => Err("--workload, --seconds and --trace go together".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Ledger {
            seed,
            runs,
            only,
            label,
        }) => ledger(seed, runs, &only, &label),
        Ok(Mode::Compare(a, b)) => compare(&a, &b),
        Ok(Mode::Single {
            workload,
            seed,
            seconds,
            trace,
        }) => single(workload, seed, seconds, trace),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
