//! A route table is built from one search per source switch. It must equal
//! the per-pair planner run over every ordered pair in the same
//! source-major order, round-robin in-transit host choice included.

use itb_routing::metrics::route_links;
use itb_routing::planner::{ItbHostSelection, ItbPlanner};
use itb_routing::updown::{min_crossings, shortest_updown};
use itb_routing::{RouteTable, RoutingPolicy, SourceRoute};
use itb_topo::builders::{cable, fig6_testbed, random_irregular, ring, IrregularSpec};
use itb_topo::{HostId, PortKind, SwitchId, Topology, UpDown};

const SELECTIONS: [ItbHostSelection; 2] = [ItbHostSelection::First, ItbHostSelection::RoundRobin];

/// The table, and the per-pair routes in (src, dst) order.
fn both_ways(
    topo: &Topology,
    ud: &UpDown,
    policy: RoutingPolicy,
    selection: ItbHostSelection,
) -> (RouteTable, Vec<(HostId, HostId, SourceRoute)>) {
    let table = RouteTable::compute_with_selection(topo, ud, policy, selection).unwrap();
    let mut planner = ItbPlanner::new(selection);
    let mut pairs = Vec::new();
    for s in topo.host_ids() {
        for d in topo.host_ids().filter(|&d| d != s) {
            let r = match policy {
                RoutingPolicy::UpDown => shortest_updown(topo, ud, s, d).unwrap(),
                RoutingPolicy::Itb => planner.route(topo, ud, s, d).unwrap(),
            };
            pairs.push((s, d, r));
        }
    }
    (table, pairs)
}

fn assert_equivalent(name: &str, topo: &Topology) {
    let ud = UpDown::compute_default(topo);
    for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
        for selection in SELECTIONS {
            let (table, pairs) = both_ways(topo, &ud, policy, selection);
            assert_eq!(table.iter().count(), pairs.len());
            for (s, d, want) in &pairs {
                assert_eq!(
                    table.route(*s, *d),
                    Some(want),
                    "{name} {policy:?} {selection:?} {s}->{d}"
                );
            }
        }
    }
}

#[test]
fn ring_table_matches_per_pair_routes() {
    assert_equivalent("ring(8, 2)", &ring(8, 2));
}

#[test]
fn fig6_table_matches_per_pair_routes() {
    assert_equivalent("fig6", &fig6_testbed().topo);
}

#[test]
fn irregular_tables_match_per_pair_routes() {
    for (switches, seed) in [(16, 3), (32, 1), (64, 7)] {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        assert_equivalent(&format!("irregular {switches}/{seed}"), &topo);
    }
}

/// Two 8-switch rings joined at switch 0 (the up\*/down\* root), so each
/// ring has its own forbidden turn at its far switch: 4 in ring A, 11 in
/// ring B. Switch 11 and its neighbour 9 carry no host; every other switch
/// carries two, cabled port-major so that host ids alternate between
/// switches and run against port order. Minimal routes through 4 get an
/// in-transit host; those through 11 must fall back to a longer path.
fn figure_eight_with_bare_switches() -> Topology {
    let mut t = Topology::new();
    let sw: Vec<SwitchId> = (0..15).map(|_| t.add_switch_uniform(6)).collect();
    let ring_a = [0, 1, 2, 3, 4, 5, 6, 7];
    let ring_b = [0, 8, 9, 10, 11, 12, 13, 14];
    for (ring, (out, inp)) in [(ring_a, (1, 0)), (ring_b, (3, 2))] {
        for i in 0..8 {
            t.connect_switches(sw[ring[i]], out, sw[ring[(i + 1) % 8]], inp, cable::SAN)
                .unwrap();
        }
    }
    for port in [5u8, 4] {
        for s in (0..15).filter(|&s| s != 9 && s != 11) {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, sw[s], port, cable::SAN).unwrap();
        }
    }
    t.validate().unwrap();
    t
}

#[test]
fn hostless_switches_table_matches_per_pair_routes() {
    let topo = figure_eight_with_bare_switches();
    assert_equivalent("figure eight", &topo);

    // Both planner branches ran: some routes carry an in-transit host, and
    // some are longer than the minimal path.
    let ud = UpDown::compute_default(&topo);
    assert_eq!(ud.tree().root(), SwitchId(0));
    let table = RouteTable::compute(&topo, &ud, RoutingPolicy::Itb).unwrap();
    assert!(table.iter().any(|r| r.itb_count() > 0));
    assert!(
        table
            .iter()
            .any(|r| route_links(r) + 1 > min_crossings(&topo, r.src, r.dst).unwrap()),
        "a host-less violating switch must force a longer route somewhere"
    );
}

#[test]
fn early_stop_route_matches_full_tree_route() {
    // A fresh First planner per pair: `route` stops its search at the
    // destination switch, while the table reads the same pair from a full
    // search of the source switch.
    let topo = random_irregular(&IrregularSpec::evaluation_default(24, 5));
    let ud = UpDown::compute_default(&topo);
    let table =
        RouteTable::compute_with_selection(&topo, &ud, RoutingPolicy::Itb, ItbHostSelection::First)
            .unwrap();
    for s in topo.host_ids() {
        for d in topo.host_ids().filter(|&d| d != s) {
            let alone = ItbPlanner::new(ItbHostSelection::First)
                .route(&topo, &ud, s, d)
                .unwrap();
            assert_eq!(table.route(s, d), Some(&alone), "{s}->{d}");
        }
    }
}
