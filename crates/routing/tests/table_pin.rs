//! Pins the bytes of the route tables the benchmark and the experiments
//! build: one digest over every pair's header, source-major, for the three
//! irregular packet fabrics and the Figure 6 testbed with its Figure 8
//! overrides. `table_equivalence` checks the table against a `Router` asked
//! pair by pair but stops at 64 switches; this covers the 128-switch ITB table
//! cheaply, and any change to route choice, in-transit host rotation or
//! encoding moves a constant here.
//!
//! It also checks the property the table build relies on: a header depends
//! only on its source and destination switches, apart from the final route
//! byte and the route byte of each in-transit host.
//!
//! A second digest pins the per-pair routes: every up\*/down\*, plain
//! minimal and ITB hop list, source-major, on small and irregular fabrics.

use itb_routing::figures;
use itb_routing::planner::ItbHostSelection;
use itb_routing::wire::{decode_route_byte, TYPE_ITB};
use itb_routing::{RouteTable, Router, RoutingPolicy, SourceRoute};
use itb_sim::Digest;
use itb_topo::builders::{cable, chain, fig6_testbed, random_irregular, ring, IrregularSpec};
use itb_topo::{HostId, PortKind, SwitchId, Topology, UpDown};

fn table(
    topo: &Topology,
    policy: RoutingPolicy,
    selection: ItbHostSelection,
    overrides: &[SourceRoute],
) -> RouteTable {
    let ud = UpDown::compute_default(topo);
    let mut table = RouteTable::compute_with_selection(topo, &ud, policy, selection).unwrap();
    for r in overrides {
        table.set_route(r.clone());
    }
    table
}

/// Every header's length and bytes, source-major, destination-minor.
fn digest(table: &RouteTable) -> u64 {
    let mut d = Digest::new();
    let hosts = (0..table.num_hosts()).map(|h| HostId(h as u16));
    for s in hosts.clone() {
        for t in hosts.clone() {
            let header = table.header(s, t);
            d.usize(header.len());
            d.bytes(header);
        }
    }
    d.finish()
}

fn irregular(switches: usize) -> Topology {
    random_irregular(&IrregularSpec::evaluation_default(switches, 1))
}

#[test]
fn benchmark_tables_are_pinned() {
    let rr = ItbHostSelection::RoundRobin;
    let cases = [
        (
            "irregular 128/1 ITB",
            irregular(128),
            RoutingPolicy::Itb,
            5935535626822021661,
        ),
        (
            "irregular 64/1 up*/down*",
            irregular(64),
            RoutingPolicy::UpDown,
            3912529811888994381,
        ),
        (
            "irregular 32/1 up*/down*",
            irregular(32),
            RoutingPolicy::UpDown,
            17569309411564867301,
        ),
    ];
    for (name, topo, policy, want) in cases {
        assert_eq!(digest(&table(&topo, policy, rr, &[])), want, "{name}");
    }
}

/// A route's endpoints and each segment's ends and hops.
fn digest_route(d: &mut Digest, r: &SourceRoute) {
    d.u16(r.src.0);
    d.u16(r.dst.0);
    d.usize(r.segments.len());
    for seg in &r.segments {
        d.u16(seg.from.0);
        d.u16(seg.to.0);
        d.usize(seg.hops.len());
        for hop in &seg.hops {
            d.u16(hop.switch.0);
            d.u8(hop.out_port.0);
        }
    }
}

#[test]
fn per_pair_routes_are_pinned() {
    let mut fabrics = vec![fig6_testbed().topo, ring(8, 2), chain(5, 2)];
    for (switches, seed) in [(16, 3), (32, 1), (64, 7)] {
        for hosts_per_switch in [1, 3] {
            fabrics.push(random_irregular(&IrregularSpec {
                hosts_per_switch,
                ..IrregularSpec::evaluation_default(switches, seed)
            }));
        }
    }
    let mut d = Digest::new();
    for topo in &fabrics {
        let ud = UpDown::compute_default(topo);
        let pairs = || {
            topo.host_ids().flat_map(|s| {
                topo.host_ids()
                    .filter(move |&t| t != s)
                    .map(move |t| (s, t))
            })
        };
        let mut router = Router::new(topo, &ud, ItbHostSelection::First);
        for (s, t) in pairs() {
            digest_route(&mut d, &router.updown(s, t).unwrap());
        }
        for (s, t) in pairs() {
            digest_route(&mut d, &router.any(s, t).unwrap());
        }
        for selection in [ItbHostSelection::First, ItbHostSelection::RoundRobin] {
            let mut router = Router::new(topo, &ud, selection);
            for (s, t) in pairs() {
                digest_route(&mut d, &router.itb(s, t).unwrap());
            }
        }
    }
    assert_eq!(d.finish(), 11140974571671708794);
}

#[test]
fn fig6_table_with_fig8_overrides_is_pinned() {
    let tb = fig6_testbed();
    let overrides = [
        figures::fig8_itb_route(&tb),
        figures::fig8_return_route(&tb),
    ];
    let t = table(
        &tb.topo,
        RoutingPolicy::UpDown,
        ItbHostSelection::RoundRobin,
        &overrides,
    );
    assert_eq!(digest(&t), 9484927013329911938);
}

/// Positions of the in-transit host route bytes of `header`: each route
/// byte directly followed by an `ITB | Length` group.
fn in_transit_bytes(header: &[u8]) -> Vec<usize> {
    let mut at = 0;
    let mut slots = Vec::new();
    while at < header.len() {
        if decode_route_byte(header[at]).is_some() {
            at += 1;
        } else if header[at..at + 2] == TYPE_ITB.to_be_bytes() {
            slots.push(at - 1);
            at += 3;
        } else {
            break;
        }
    }
    slots
}

/// For every switch, every two source hosts on it and every destination
/// other than both: under `First` the two headers are equal; under
/// `RoundRobin` they differ at most at in-transit host route bytes.
/// Returns how many header pairs differed.
fn assert_sources_share_headers(name: &str, topo: &Topology, selection: ItbHostSelection) -> usize {
    let t = table(topo, RoutingPolicy::Itb, selection, &[]);
    let mut differing = 0;
    for sw in topo.switch_ids() {
        let on: Vec<HostId> = topo.hosts_on(sw).collect();
        for (i, &a) in on.iter().enumerate() {
            for &b in &on[i + 1..] {
                for d in topo.host_ids().filter(|&d| d != a && d != b) {
                    let (ha, hb) = (t.header(a, d), t.header(b, d));
                    let at = format!("{name} {selection:?} {a},{b}->{d}");
                    assert_eq!(ha.len(), hb.len(), "{at}");
                    let slots = in_transit_bytes(ha);
                    assert_eq!(slots, in_transit_bytes(hb), "{at}");
                    for (k, (x, y)) in ha.iter().zip(hb).enumerate() {
                        match selection {
                            ItbHostSelection::First => assert_eq!(x, y, "{at} byte {k}"),
                            ItbHostSelection::RoundRobin => {
                                assert!(x == y || slots.contains(&k), "{at} byte {k}")
                            }
                        }
                    }
                    differing += usize::from(ha != hb);
                }
            }
        }
    }
    differing
}

/// An 8-ring whose switch `i` carries `1 + i % 3` hosts. When every switch
/// carries the same number of hosts, round robin hands two sources on one
/// switch the same in-transit host toward each destination: between the
/// two routes the cursor moves by a multiple of that number.
fn uneven_ring() -> Topology {
    let mut t = Topology::new();
    let sw: Vec<SwitchId> = (0..8).map(|_| t.add_switch_uniform(5)).collect();
    for i in 0..8 {
        t.connect_switches(sw[i], 1, sw[(i + 1) % 8], 0, cable::SAN)
            .unwrap();
    }
    for (i, &s) in sw.iter().enumerate() {
        for port in 2..3 + i as u8 % 3 {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, s, port, cable::SAN).unwrap();
        }
    }
    t.validate().unwrap();
    t
}

#[test]
fn sources_on_one_switch_share_each_header() {
    let fabrics = [
        ("ring(8, 2)", ring(8, 2)),
        ("uneven ring", uneven_ring()),
        ("irregular 32/1", irregular(32)),
    ];
    let mut rotated = 0;
    for (name, topo) in fabrics {
        assert_eq!(
            assert_sources_share_headers(name, &topo, ItbHostSelection::First),
            0
        );
        rotated += assert_sources_share_headers(name, &topo, ItbHostSelection::RoundRobin);
    }
    // Not vacuous: round robin did pick other in-transit hosts.
    assert!(rotated > 0);
}
