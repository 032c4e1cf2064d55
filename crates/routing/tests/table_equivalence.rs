//! A route table is built from one search per source switch and stored
//! as encoded headers, most of them patched copies of a template. It must
//! equal a `Router` asked for every ordered pair in the same source-major
//! order, round-robin in-transit host choice included: each pair's header
//! bytes are `Header::encode` of the router's route, and the route decoded
//! from them is that route.

use itb_routing::figures;
use itb_routing::metrics::route_links;
use itb_routing::planner::ItbHostSelection;
use itb_routing::wire::Header;
use itb_routing::{RouteTable, Router, RoutingPolicy, SourceRoute};
use itb_topo::builders::{cable, chain, fig6_testbed, random_irregular, ring, IrregularSpec};
use itb_topo::{HostId, PortKind, SwitchId, Topology, UpDown};

const SELECTIONS: [ItbHostSelection; 2] = [ItbHostSelection::First, ItbHostSelection::RoundRobin];

/// The table with `overrides` installed, and the router's routes in (src,
/// dst) order with the same overrides in their place.
fn both_ways(
    topo: &Topology,
    ud: &UpDown,
    policy: RoutingPolicy,
    selection: ItbHostSelection,
    overrides: &[SourceRoute],
) -> (RouteTable, Vec<SourceRoute>) {
    let mut table = RouteTable::compute_with_selection(topo, ud, policy, selection).unwrap();
    for r in overrides {
        table.set_route(r.clone());
    }
    let mut router = Router::new(topo, ud, selection);
    let mut pairs = Vec::new();
    for s in topo.host_ids() {
        for d in topo.host_ids().filter(|&d| d != s) {
            let r = match policy {
                RoutingPolicy::UpDown => router.updown(s, d).unwrap(),
                RoutingPolicy::Itb => router.itb(s, d).unwrap(),
            };
            let over = overrides.iter().find(|o| (o.src, o.dst) == (s, d));
            pairs.push(over.cloned().unwrap_or(r));
        }
    }
    (table, pairs)
}

fn assert_equivalent_with(name: &str, topo: &Topology, overrides: &[SourceRoute]) {
    let ud = UpDown::compute_default(topo);
    for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
        for selection in SELECTIONS {
            let (table, pairs) = both_ways(topo, &ud, policy, selection, overrides);
            assert_eq!(table.num_hosts(), topo.num_hosts());
            for want in &pairs {
                let (s, d) = (want.src, want.dst);
                let at = format!("{name} {policy:?} {selection:?} {s}->{d}");
                assert_eq!(table.header(s, d), Header::encode(want).as_bytes(), "{at}");
                assert_eq!(table.route(s, d).as_ref(), Some(want), "{at}");
                assert_eq!(table.itb_count(s, d), want.itb_count(), "{at}");
            }
            for h in topo.host_ids() {
                assert!(table.header(h, h).is_empty());
                assert_eq!(table.route(h, h), None);
            }
            assert!(table.iter().eq(pairs), "{name} {policy:?} {selection:?}");
        }
    }
}

fn assert_equivalent(name: &str, topo: &Topology) {
    assert_equivalent_with(name, topo, &[]);
}

#[test]
fn ring_table_matches_per_pair_routes() {
    assert_equivalent("ring(8, 2)", &ring(8, 2));
}

#[test]
fn fig6_table_matches_per_pair_routes() {
    let tb = fig6_testbed();
    assert_equivalent("fig6", &tb.topo);
    // The two evaluation routes over the same pair: the up*/down* one
    // crosses the loop cable, the ITB one stops at the in-transit host.
    for forward in [figures::fig8_ud_route(&tb), figures::fig8_itb_route(&tb)] {
        let overrides = [forward, figures::fig8_return_route(&tb)];
        assert_equivalent_with("fig6 + fig8 overrides", &tb.topo, &overrides);
    }
}

#[test]
fn long_chain_headers_spill_past_the_inline_buffer() {
    // host0 -> host31 crosses 32 switches: a 34-byte header.
    let topo = chain(32, 1);
    assert_equivalent("chain(32, 1)", &topo);
    let ud = UpDown::compute_default(&topo);
    let table = RouteTable::compute(&topo, &ud, RoutingPolicy::Itb).unwrap();
    assert_eq!(table.header(HostId(0), HostId(31)).len(), 34);
    assert!(Header::encode(&table.route(HostId(0), HostId(31)).unwrap()).len() > 30);
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
    let mut router = Router::new(&topo, &ud, ItbHostSelection::First);
    assert!(
        table
            .iter()
            .any(|r| Some(route_links(&r)) > router.min_links(r.src, r.dst)),
        "a host-less violating switch must force a longer route somewhere"
    );
}
