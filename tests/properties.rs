//! Property-based tests over the core invariants (proptest).

use itb_myrinet::routing::deadlock::ChannelDepGraph;
use itb_myrinet::routing::metrics::route_links;
use itb_myrinet::routing::planner::ItbHostSelection;
use itb_myrinet::routing::wire::{decode_segments, Header};
use itb_myrinet::routing::{RouteTable, Router, RoutingPolicy};
use itb_myrinet::topo::builders::{random_irregular, ring, IrregularSpec};
use itb_myrinet::topo::updown::Direction;
use itb_myrinet::topo::{HostId, Topology, UpDown};
use proptest::prelude::*;

/// Strategy: a connected irregular network spec.
fn net_spec() -> impl Strategy<Value = (usize, u64)> {
    (4usize..=14, any::<u64>())
}

/// Check a route's segments all obey the up*/down* rule.
fn segments_updown_legal(
    topo: &Topology,
    ud: &UpDown,
    r: &itb_myrinet::routing::SourceRoute,
) -> bool {
    for seg in &r.segments {
        let mut last: Option<Direction> = None;
        for hop in &seg.hops[..seg.hops.len() - 1] {
            let link = topo.link_at(hop.switch, hop.out_port).unwrap();
            let dir = ud.direction_from(topo, link, hop.switch, hop.out_port);
            if last == Some(Direction::Down) && dir == Direction::Up {
                return false;
            }
            last = Some(dir);
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every up*/down* route on every random network is legal, wired, and at
    /// least as long as the true shortest path.
    #[test]
    fn updown_routes_always_legal((switches, seed) in net_spec()) {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let ud = UpDown::compute_default(&topo);
        let mut router = Router::new(&topo, &ud, ItbHostSelection::First);
        let hosts: Vec<_> = topo.host_ids().collect();
        for &a in hosts.iter().step_by(5) {
            for &b in hosts.iter().step_by(7) {
                if a == b { continue; }
                let r = router.updown(a, b).expect("connected");
                prop_assert!(r.is_well_formed(&topo));
                prop_assert!(segments_updown_legal(&topo, &ud, &r));
                let min_links = router.min_links(a, b).unwrap();
                prop_assert!(route_links(&r) >= min_links);
            }
        }
    }

    /// The ITB planner always yields minimal routes (every switch has
    /// hosts), split into legal segments, never longer than up*/down*.
    #[test]
    fn planner_routes_minimal_and_legal((switches, seed) in net_spec()) {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let ud = UpDown::compute_default(&topo);
        let mut router = Router::new(&topo, &ud, ItbHostSelection::First);
        let hosts: Vec<_> = topo.host_ids().collect();
        for &a in hosts.iter().step_by(6) {
            for &b in hosts.iter().step_by(9) {
                if a == b { continue; }
                let r = router.itb(a, b).unwrap();
                prop_assert!(r.is_well_formed(&topo));
                prop_assert!(segments_updown_legal(&topo, &ud, &r));
                let min_links = router.min_links(a, b).unwrap();
                prop_assert_eq!(route_links(&r), min_links);
                prop_assert_eq!(r.total_crossings(), min_links + 1 + r.itb_count());
            }
        }
    }

    /// Both policies' full route tables induce acyclic channel-dependency
    /// graphs — deadlock freedom, the paper's correctness cornerstone.
    #[test]
    fn route_tables_deadlock_free((switches, seed) in (4usize..=10, any::<u64>())) {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let ud = UpDown::compute_default(&topo);
        for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
            let table = RouteTable::compute(&topo, &ud, policy).unwrap();
            let cdg = ChannelDepGraph::build(&topo, table.iter());
            prop_assert!(cdg.is_acyclic(), "{policy:?} CDG cyclic on seed {seed}");
        }
    }

    /// Header encoding round-trips for arbitrary multi-segment routes on a
    /// ring (the planner gives both 0-ITB and k-ITB routes there).
    #[test]
    fn headers_roundtrip(n in 4usize..=12, a in 0u16..12, b in 0u16..12) {
        let n_u16 = n as u16;
        let (a, b) = (a % n_u16, b % n_u16);
        prop_assume!(a != b);
        let topo = ring(n, 1);
        let ud = UpDown::compute_default(&topo);
        let mut router = Router::new(&topo, &ud, ItbHostSelection::First);
        let r = router.itb(HostId(a), HostId(b)).unwrap();
        let h = Header::encode(&r);
        let segs = decode_segments(&h).expect("encoded headers decode");
        prop_assert_eq!(segs.len(), r.segments.len());
        for (enc, seg) in segs.iter().zip(&r.segments) {
            let ports: Vec<_> = seg.hops.iter().map(|hop| hop.out_port).collect();
            prop_assert_eq!(enc, &ports);
        }
    }

    /// Up*/down* orientation: following only Up-direction links never
    /// cycles (the spanning-tree argument).
    #[test]
    fn up_direction_subgraph_acyclic((switches, seed) in net_spec()) {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let ud = UpDown::compute_default(&topo);
        let n = topo.num_switches();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![vec![]; n];
        for lid in topo.link_ids() {
            let Some(up) = ud.up_switch(lid) else { continue };
            let l = topo.link(lid);
            if l.is_self_loop() { continue; }
            let a = l.a.node.as_switch().unwrap();
            let b = l.b.node.as_switch().unwrap();
            let down = if a == up { b } else { a };
            adj[down.idx()].push(up.idx());
            indeg[up.idx()] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut removed = 0;
        while let Some(v) = stack.pop() {
            removed += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 { stack.push(w); }
            }
        }
        prop_assert_eq!(removed, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// End-to-end delivery: random small traffic on a random network is
    /// delivered exactly once with matching lengths, under both policies.
    #[test]
    fn traffic_delivered_exactly_once(seed in any::<u64>(), policy_itb in any::<bool>()) {
        use itb_myrinet::core::ClusterSpec;
        use itb_myrinet::gm::AppBehavior;
        use itb_myrinet::sim::{run_until, EventQueue, SimDuration, SimTime};

        let policy = if policy_itb { RoutingPolicy::Itb } else { RoutingPolicy::UpDown };
        let spec = ClusterSpec::irregular(6, seed).with_routing(policy);
        let n = spec.num_hosts();
        let behaviors = vec![AppBehavior::Poisson {
            size: 256,
            mean_gap: SimDuration::from_us(80),
            limit: 4,
        }; n];
        let mut cluster = spec.build(behaviors);
        let mut q = EventQueue::new();
        cluster.start(&mut q);
        run_until(&mut cluster, &mut q, SimTime::from_ms(60));
        prop_assert_eq!(cluster.messages().len(), n * 4);
        for rec in cluster.messages() {
            prop_assert!(rec.delivered_at.is_some(), "lost message {rec:?}");
            prop_assert!(rec.delivered_at.unwrap() > rec.sent_at);
            prop_assert_eq!(rec.len, 256);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The mapper reconstructs any random fabric faithfully: counts match
    /// and routes computed from the reconstruction are wired on the real
    /// network.
    #[test]
    fn mapper_reconstruction_is_faithful((switches, seed) in (4usize..=10, any::<u64>())) {
        use itb_myrinet::gm::mapper::map_fabric;

        let fabric = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let mapper_host = HostId(0);
        let map = map_fabric(&fabric, mapper_host);
        prop_assert_eq!(map.switches.len(), fabric.num_switches());
        prop_assert_eq!(map.hosts.len(), fabric.num_hosts());
        let rec = map.to_topology();
        prop_assert_eq!(rec.num_links(), fabric.num_links());
        let table = map.compute_routes(RoutingPolicy::Itb);
        for r in table.iter() {
            prop_assert!(r.is_well_formed(&fabric));
        }
    }

    /// The wire header of any planner route decodes back to its hop lists,
    /// regardless of how many ITBs the route needs.
    #[test]
    fn random_network_headers_roundtrip((switches, seed) in (4usize..=10, any::<u64>())) {
        use itb_myrinet::routing::wire::{decode_segments, Header};

        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, seed));
        let ud = UpDown::compute_default(&topo);
        let mut router = Router::new(&topo, &ud, ItbHostSelection::RoundRobin);
        let hosts: Vec<_> = topo.host_ids().collect();
        for &a in hosts.iter().step_by(7) {
            for &b in hosts.iter().step_by(11) {
                if a == b { continue; }
                let r = router.itb(a, b).unwrap();
                let h = Header::encode(&r);
                let segs = decode_segments(&h).expect("decodes");
                prop_assert_eq!(segs.len(), r.segments.len());
            }
        }
    }
}
