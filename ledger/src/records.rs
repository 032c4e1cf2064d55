//! Ledger records: one `workload metric unit median p25 p75 n` line per
//! measured metric, and the comparison of two record files.

use crate::catalog::{self, Better, END_TO_END, FAILED_SHARE};
use crate::micro;
use crate::stats::Summary;
use crate::timed::{Kind, Layer};
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Record {
    pub fn new(workload: &str, metric: &str, unit: &str, s: &Summary) -> Record {
        Record {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            median: s.median,
            p25: s.p25,
            p75: s.p75,
            n: s.n,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {}",
            self.workload, self.metric, self.unit, self.median, self.p25, self.p75, self.n
        )
    }

    /// Quartile distance as a share of the median (0 for a zero median).
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Parse a record file. Blank lines and `#` comments are skipped; any other
/// malformed line is an error naming its line number.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = |what: &str| format!("line {}: {what}: {line}", i + 1);
        let [workload, metric, unit, median, p25, p75, n] = f[..] else {
            return Err(bad("expected 7 fields"));
        };
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad("bad number"));
        out.push(Record {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            median: num(median)?,
            p25: num(p25)?,
            p75: num(p75)?,
            n: n.parse().map_err(|_| bad("bad count"))?,
        });
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of either side is wider than the bound, so the medians
    /// cannot be told apart at that bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` is worse than `a` in the metric's direction, as a share of
/// `a` (negative when better). A zero baseline compares absolutely.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let diff = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        diff
    } else {
        diff / a.abs()
    }
}

pub fn verdict(a: &Record, b: &Record, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.median, b.median, better);
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn find<'r>(rs: &'r [Record], workload: &str, metric: &str) -> Option<&'r Record> {
    rs.iter()
        .find(|r| r.workload == workload && r.metric == metric)
}

/// Event kinds listed per workload, largest change in share of the traced
/// wall time first.
const KIND_DELTAS: usize = 3;
/// A microbenchmark is listed when its median moved by more than this many
/// MADs of the noisier side.
const MICRO_MADS: f64 = 3.0;

fn layer_line(out: &mut String, ra: &Record, rb: &Record) {
    let rel = worsening(ra.median, rb.median, catalog::per_layer_better(&ra.metric));
    let _ = writeln!(
        out,
        "    {:<26} {:>14.6} -> {:>14.6} {:<10} ({:+.2}% worse)",
        ra.metric,
        ra.median,
        rb.median,
        ra.unit,
        rel * 100.0
    );
}

/// The per-layer lines under a workload's verdicts: every layer's share of
/// the traced wall time and its allocations, the event kinds whose share
/// moved most, and the microbenchmarks that moved beyond their own noise.
fn explain(out: &mut String, a: &[Record], b: &[Record], w: &str) {
    let pair = |metric: &str| Some((find(a, w, metric)?, find(b, w, metric)?));
    for l in Layer::ALL {
        for metric in [
            format!("{}.share", l.name()),
            format!("{}.allocs", l.name()),
        ] {
            if let Some((ra, rb)) = pair(&metric) {
                if ra.median != 0.0 || rb.median != 0.0 {
                    layer_line(out, ra, rb);
                }
            }
        }
    }
    let mut kinds: Vec<(f64, &Record, &Record)> = Kind::ALL
        .iter()
        .filter_map(|k| {
            let (ra, rb) = pair(&format!("{}.share", k.name()))?;
            let moved = rb.median - ra.median;
            (moved != 0.0).then_some((moved, ra, rb))
        })
        .collect();
    kinds.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
    for (_, ra, rb) in kinds.into_iter().take(KIND_DELTAS) {
        layer_line(out, ra, rb);
    }
    for (name, _) in micro::METRICS {
        let (Some((ra, rb)), Some((ma, mb))) = (pair(name), pair(&format!("{name}.mad"))) else {
            continue;
        };
        if (rb.median - ra.median).abs() > MICRO_MADS * ma.median.max(mb.median) {
            layer_line(out, ra, rb);
        }
    }
}

/// Compare baseline records `a` with candidate records `b`: a verdict per
/// end-to-end metric and workload against its bound, then the per-layer
/// changes that explain it. Returns the report and whether any metric came
/// out worse.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let e2e: Vec<_> = END_TO_END.iter().chain([&FAILED_SHARE]).collect();
    for w in workloads {
        let _ = writeln!(out, "{w}");
        for m in &e2e {
            let (Some(ra), Some(rb)) = (find(a, w, m.name), find(b, w, m.name)) else {
                continue;
            };
            let v = verdict(ra, rb, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "  {:<20} {:>14.6} -> {:>14.6} {:<10} ({:+.2}% worse, bound {:.0}%, spread {:.2}%/{:.2}%)  {}",
                m.name,
                ra.median,
                rb.median,
                m.unit,
                worsening(ra.median, rb.median, m.better) * 100.0,
                m.bound * 100.0,
                ra.spread() * 100.0,
                rb.spread() * 100.0,
                v.name()
            );
        }
        explain(&mut out, a, b, w);
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(metric: &str, median: f64, p25: f64, p75: f64) -> Record {
        Record {
            workload: "w".to_string(),
            metric: metric.to_string(),
            unit: "u".to_string(),
            median,
            p25,
            p75,
            n: 5,
        }
    }

    #[test]
    fn lines_round_trip() {
        let text = "# header\n\nw sim_us_per_s us/s 1234.5 1200 1250.25 5\nw queue.pop.share fraction 0.125 0.125 0.125 1\n";
        let rs = parse(text).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            rs[0],
            rec_with_unit("sim_us_per_s", "us/s", 1234.5, 1200.0, 1250.25, 5)
        );
        let again: String = rs.iter().map(|r| r.line() + "\n").collect();
        assert_eq!(parse(&again).unwrap(), rs);
    }

    fn rec_with_unit(metric: &str, unit: &str, m: f64, p25: f64, p75: f64, n: usize) -> Record {
        Record {
            unit: unit.to_string(),
            n,
            ..rec(metric, m, p25, p75)
        }
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let err = parse("# ok\nw m u 1 2 3\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse("w m u 1 x 3 5\n").unwrap_err();
        assert!(err.contains("bad number"), "{err}");
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = rec("m", 100.0, 99.0, 101.0);
        let v = |b: Record, better| verdict(&base, &b, better, 0.1);
        assert_eq!(v(rec("m", 95.0, 94.0, 96.0), Better::Higher), Verdict::Same);
        assert_eq!(
            v(rec("m", 85.0, 84.0, 86.0), Better::Higher),
            Verdict::Worse
        );
        assert_eq!(
            v(rec("m", 85.0, 84.0, 86.0), Better::Lower),
            Verdict::Better
        );
        assert_eq!(
            v(rec("m", 115.0, 114.0, 116.0), Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            v(rec("m", 100.0, 80.0, 120.0), Better::Higher),
            Verdict::Unresolved
        );
        // A zero bound fails any rise.
        let zero = rec("f", 0.0, 0.0, 0.0);
        assert_eq!(verdict(&zero, &zero, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(
            verdict(&zero, &rec("f", 0.01, 0.01, 0.01), Better::Lower, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_names_the_layer_that_moved() {
        let a = vec![
            rec("sim_us_per_s", 100.0, 99.0, 101.0),
            rec("net.share", 0.5, 0.5, 0.5),
            rec("net.rx_flit.share", 0.3, 0.3, 0.3),
            rec("nic.sdma.share", 0.1, 0.1, 0.1),
            rec("queue.hold_ns_d1k", 100.0, 100.0, 100.0),
            rec("queue.hold_ns_d1k.mad", 1.0, 1.0, 1.0),
            rec("wire.encode_ns", 200.0, 200.0, 200.0),
            rec("wire.encode_ns.mad", 5.0, 5.0, 5.0),
        ];
        let mut b = a.clone();
        b[0] = rec("sim_us_per_s", 70.0, 69.0, 71.0);
        b[1].median = 0.7;
        b[2].median = 0.5;
        // Ten MADs: a real move. Two MADs: noise.
        b[4].median = 110.0;
        b[6].median = 210.0;
        let (report, worse) = compare(&a, &b);
        assert!(worse);
        let listed = |metric: &str| report.contains(&format!("    {metric} "));
        assert!(report.contains("sim_us_per_s"), "{report}");
        assert!(listed("net.share"), "{report}");
        assert!(listed("net.rx_flit.share"), "{report}");
        assert!(listed("queue.hold_ns_d1k"), "{report}");
        assert!(
            !listed("nic.sdma.share"),
            "unchanged kinds stay quiet: {report}"
        );
        assert!(!listed("wire.encode_ns"), "noise stays quiet: {report}");
    }
}
