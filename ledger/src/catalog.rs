//! The metric catalog: every name the ledger reports, with its unit, its
//! direction and, for end-to-end metrics, its regression bound.
//! `BENCHMARK.json` at the repository root lists the same catalog; a test
//! keeps the two in step.

use crate::micro;
use crate::timed::{Kind, Layer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// What a user of the simulator sees: work done per host second at the
/// workload's stated size, set-up cost and memory.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "sim_us_per_s",
        unit: "us/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "deliveries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_delivery",
        unit: "allocs/msg",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Share of attempted messages or flows not delivered. The ledger's own
/// records carry it; it reads 0 on every passing run, so the benchmark
/// definition reports it as the `failed` count instead of a metric.
pub const FAILED_SHARE: EndToEnd = EndToEnd {
    name: "failed_share",
    unit: "fraction",
    better: Better::Lower,
    bound: 0.0,
};

/// Layer counters taken from the simulator's public stats, in report order.
pub const COUNTERS: [(&str, &str); 11] = [
    ("queue.pops", "count"),
    ("net.injected", "count"),
    ("net.reinjected", "count"),
    ("net.bytes_delivered", "bytes"),
    ("nic.itb_detects", "count"),
    ("nic.rx_stalls", "count"),
    ("gm.retransmissions", "count"),
    ("flow.solves", "count"),
    ("flow.messages", "count"),
    ("flow.escalated_regions", "count"),
    ("flow.peak_live", "count"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for k in Kind::ALL {
        out.push((format!("{}.n", k.name()), "count"));
        out.push((format!("{}.share", k.name()), "fraction"));
    }
    for l in Layer::ALL {
        out.push((format!("{}.share", l.name()), "fraction"));
        out.push((format!("{}.allocs", l.name()), "allocs/msg"));
    }
    for (name, unit) in COUNTERS {
        out.push((name.to_string(), unit));
    }
    out.push(("queue.depth_max".to_string(), "count"));
    out.push(("queue.depth_mean".to_string(), "count"));
    out.push(("trace.wall_s".to_string(), "s"));
    out.push(("trace.overhead".to_string(), "fraction"));
    for (name, unit) in micro::METRICS {
        out.push((name.to_string(), unit));
        out.push((format!("{name}.mad"), unit));
    }
    out
}

/// Direction of a per-layer metric: the flow engine carrying more messages
/// is cheaper; every other per-layer number is a cost.
pub fn per_layer_better(name: &str) -> Better {
    if name == "flow.messages" {
        Better::Higher
    } else {
        Better::Lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let json = benchmark_json();
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = per_layer();
        for (name, unit) in &names {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                per_layer_better(name).name()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + names.len(),
            "BENCHMARK.json lists a metric the catalog does not"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.push(FAILED_SHARE.name.to_string());
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }
}
