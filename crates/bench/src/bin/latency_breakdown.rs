//! Diagnostic: where does a message's latency go? Decomposes one-way
//! latency on the Figure 6 testbed into pipeline stages using the
//! packet-lifecycle tracer — the map from the calibrated constants
//! (DESIGN.md §5) to the curves of Figures 7 and 8.
//!
//! `cargo run --release -p itb-bench --bin latency_breakdown [size]`

use itb_core::experiments::{latency_breakdown, traced_one_way};

fn main() {
    let sizes: Vec<u32> = match std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        Some(one) => vec![one],
        None => vec![32, 1024, 4096],
    };
    for &size in &sizes {
        let stages = latency_breakdown(size);
        let total: f64 = stages.iter().map(|s| s.ns).sum();
        println!(
            "# One-way latency breakdown, {size} B message (total {:.2} us)",
            total / 1000.0
        );
        for s in &stages {
            let pct = s.ns / total * 100.0;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("{:>44} {:>10.0} ns {:>5.1}% {}", s.stage, s.ns, pct, bar);
        }
        println!();
        itb_bench::dump_json(&format!("latency_breakdown_{size}"), &stages);

        // The same message traced over the one-ITB route, attributed to the
        // four lifecycle categories of the obs layer.
        let run = traced_one_way(size, true);
        let attr = run.attribution();
        let total: f64 = attr.iter().map(|&(_, ns)| ns).sum();
        println!("  via one ITB (traced, total {:.2} us):", total / 1000.0);
        for &(cat, ns) in &attr {
            let pct = ns / total * 100.0;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("{:>44} {:>10.0} ns {:>5.1}% {}", cat.as_str(), ns, pct, bar);
        }
        println!();
        itb_bench::dump_json(
            &format!("latency_attribution_{size}"),
            &attr
                .iter()
                .map(|&(cat, ns)| (cat.as_str().to_string(), ns))
                .collect::<Vec<_>>(),
        );
    }
    println!(
        "Host-side processing dominates short messages; the streaming stage \
         (wire + overlapping DMA) takes over with size — which is exactly why \
         the constant ~1.3 us per-ITB cost fades in relative terms (Fig. 8)."
    );
}
