//! `Header::encode` writes the header front to back into its inline buffer.
//! Its bytes must equal the back-to-front group builder it replaced, kept
//! here as the reference, on every route of the shipped fabrics.

use itb_routing::path::{Hop, Segment};
use itb_routing::wire::{route_byte, Header, TYPE_GM, TYPE_ITB};
use itb_routing::{RouteTable, RoutingPolicy, SourceRoute};
use itb_topo::builders::{fig6_testbed, random_irregular, ring, IrregularSpec};
use itb_topo::{HostId, SwitchId, Topology, UpDown};

/// The previous encoder: build each segment's group, prefix the `ITB |
/// Length` pair, and prepend it to the tail built so far.
fn reference_encode(route: &SourceRoute) -> Vec<u8> {
    let last = route.segments.len() - 1;
    let mut tail: Vec<u8> = Vec::new();
    for (i, seg) in route.segments.iter().enumerate().rev() {
        let mut group: Vec<u8> = seg.hops.iter().map(|h| route_byte(h.out_port)).collect();
        if i == last {
            group.extend_from_slice(&TYPE_GM.to_be_bytes());
        }
        if i > 0 {
            let remaining = u8::try_from(group.len() + tail.len()).unwrap();
            let mut pre = TYPE_ITB.to_be_bytes().to_vec();
            pre.push(remaining);
            pre.extend(group);
            group = pre;
        }
        group.extend(std::mem::take(&mut tail));
        tail = group;
    }
    tail
}

fn assert_same(name: &str, route: &SourceRoute) {
    let header = Header::encode(route);
    assert_eq!(
        header.as_bytes(),
        reference_encode(route).as_slice(),
        "{name} {}->{}",
        route.src,
        route.dst
    );
}

fn assert_table_routes(name: &str, topo: &Topology) {
    let ud = UpDown::compute_default(topo);
    for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
        let table = RouteTable::compute(topo, &ud, policy).unwrap();
        let mut routes = 0;
        for route in table.iter() {
            assert_same(&format!("{name} {policy:?}"), &route);
            routes += 1;
        }
        assert_eq!(routes, topo.num_hosts() * (topo.num_hosts() - 1));
    }
}

#[test]
fn fig6_and_ring_headers_match_reference() {
    let fig6 = fig6_testbed();
    assert_table_routes("fig6", &fig6.topo);
    assert_table_routes("ring(8, 2)", &ring(8, 2));
}

#[test]
fn irregular_headers_match_reference() {
    for switches in [16, 32, 64, 128] {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, 1));
        assert_table_routes(&format!("irregular {switches}"), &topo);
    }
}

#[test]
fn long_route_spills_to_the_heap_and_matches_reference() {
    // Three segments of 12 hops: 36 route bytes + 2 ITB groups + the type
    // = 44 bytes, past the 30-byte inline buffer.
    let seg = |from: u16, to: u16| Segment {
        from: HostId(from),
        to: HostId(to),
        hops: (0..12u8)
            .map(|i| Hop::new(SwitchId(u16::from(i)), i % 8 + 1))
            .collect(),
    };
    let route = SourceRoute {
        src: HostId(0),
        dst: HostId(3),
        segments: vec![seg(0, 1), seg(1, 2), seg(2, 3)],
    };
    let header = Header::encode(&route);
    assert_eq!(header.len(), 44);
    assert_same("hand-built", &route);
}
