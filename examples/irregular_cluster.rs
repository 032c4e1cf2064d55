//! Route-level analysis of an irregular network: why up*/down* loses and
//! how the ITB planner fixes it (the paper's motivation, quantified).
//!
//! Run with: `cargo run --release --example irregular_cluster [switches] [seed]`

use itb_myrinet::routing::metrics::{analyze, route_links};
use itb_myrinet::routing::{RouteTable, RoutingPolicy};
use itb_myrinet::topo::builders::{random_irregular, IrregularSpec};
use itb_myrinet::topo::UpDown;

fn main() {
    let mut args = std::env::args().skip(1);
    let switches: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
    println!(
        "irregular network: {} switches, {} hosts, {} links (seed {seed})",
        topo.num_switches(),
        topo.num_hosts(),
        topo.num_links()
    );
    let ud = UpDown::compute_default(&topo);
    println!("spanning-tree root: {}", ud.tree().root());
    println!();

    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "policy", "mean links", "max", "minimal%", "root-cross%", "imbalance", "mean ITBs"
    );
    for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
        let table = RouteTable::compute(&topo, &ud, policy).expect("connected");
        let m = analyze(&topo, &ud, &table);
        println!(
            "{:>10} {:>12.3} {:>10} {:>9.1}% {:>11.1}% {:>12.2} {:>10.3}",
            format!("{policy:?}"),
            m.mean_links,
            m.max_links,
            m.minimal_fraction * 100.0,
            m.root_crossing_fraction * 100.0,
            m.channel_imbalance,
            m.mean_itbs
        );
    }

    // Show one concrete route pair for intuition.
    let table_ud = RouteTable::compute(&topo, &ud, RoutingPolicy::UpDown).unwrap();
    let table_itb = RouteTable::compute(&topo, &ud, RoutingPolicy::Itb).unwrap();
    let worst = table_ud
        .iter()
        .max_by_key(|r| {
            let min = itb_myrinet::routing::updown::min_crossings(&topo, r.src, r.dst).unwrap() - 1;
            route_links(r) - min
        })
        .unwrap();
    let itb_alt = table_itb.route(worst.src, worst.dst).unwrap();
    println!();
    println!(
        "most-detoured pair {} -> {}: up*/down* takes {} links; the ITB planner \
         takes {} links using {} in-transit buffer(s)",
        worst.src,
        worst.dst,
        route_links(&worst),
        route_links(&itb_alt),
        itb_alt.itb_count()
    );
}
