//! Route-set metrics behind the paper's motivation section: non-minimal
//! routing, unbalanced traffic near the spanning-tree root, and per-channel
//! load spread.

use crate::path::SourceRoute;
use crate::table::RouteTable;
use crate::updown::BfsTree;
use itb_topo::{Node, SwitchId, Topology, UpDown};
use serde::Serialize;
use std::collections::BTreeMap;

/// Aggregate statistics over an all-pairs route set.
#[derive(Debug, Clone, Serialize)]
pub struct RouteSetMetrics {
    /// Mean inter-switch links per route.
    pub mean_links: f64,
    /// Longest route in links.
    pub max_links: usize,
    /// Mean ITBs per route.
    pub mean_itbs: f64,
    /// Fraction of routes whose path visits the spanning-tree root switch.
    pub root_crossing_fraction: f64,
    /// Ratio max/mean of per-channel route counts (1.0 = perfectly even).
    pub channel_imbalance: f64,
    /// Fraction of routes that are minimal (link count equals shortest
    /// possible).
    pub minimal_fraction: f64,
}

/// Inter-switch link count of a route (ITB detours do not add links).
pub fn route_links(route: &SourceRoute) -> usize {
    route.total_crossings() - 1 - route.itb_count()
}

/// Compute the metrics for `table` on `topo` with orientation `ud`.
pub fn analyze(topo: &Topology, ud: &UpDown, table: &RouteTable) -> RouteSetMetrics {
    let root = ud.tree().root();
    let mut total_links = 0usize;
    let mut max_links = 0usize;
    let mut total_itbs = 0usize;
    let mut root_crossing = 0usize;
    let mut minimal = 0usize;
    let mut n = 0usize;
    // Channel load: (link, direction) -> count. Ordered map: aggregation
    // below is order-independent today, but a BTreeMap keeps any future
    // per-channel reporting deterministic by construction (detlint D001).
    let mut load: BTreeMap<(u32, bool), u64> = BTreeMap::new();

    // Routes come source-major, so one unconstrained search per source
    // switch gives every minimal distance.
    let mut tree = BfsTree::default();
    let mut searched = None;
    for route in table.iter() {
        n += 1;
        let links = route_links(&route);
        total_links += links;
        max_links = max_links.max(links);
        total_itbs += route.itb_count();
        if visits_switch(&route, root) {
            root_crossing += 1;
        }
        let src_sw = topo.host_attachment(route.src).0;
        if searched != Some(src_sw) {
            tree.run(topo, None, src_sw, None);
            searched = Some(src_sw);
        }
        let min = tree
            .links_to(topo.host_attachment(route.dst).0)
            // detlint::allow(S001, route tables only exist for connected fabrics)
            .expect("connected fabric");
        if links == min {
            minimal += 1;
        }
        for seg in &route.segments {
            for hop in &seg.hops[..seg.hops.len() - 1] {
                let link = topo
                    .link_at(hop.switch, hop.out_port)
                    // detlint::allow(S001, route hops only traverse cabled ports)
                    .expect("hop uses a cabled port");
                let l = topo.link(link);
                let a_to_b = l.a.node == Node::Switch(hop.switch) && l.a.port == hop.out_port;
                *load.entry((link.0, a_to_b)).or_default() += 1;
            }
        }
    }

    let mean_load = if load.is_empty() {
        0.0
    } else {
        load.values().sum::<u64>() as f64 / load.len() as f64
    };
    let max_load = load.values().copied().max().unwrap_or(0) as f64;

    RouteSetMetrics {
        mean_links: total_links as f64 / n.max(1) as f64,
        max_links,
        mean_itbs: total_itbs as f64 / n.max(1) as f64,
        root_crossing_fraction: root_crossing as f64 / n.max(1) as f64,
        channel_imbalance: if mean_load > 0.0 {
            max_load / mean_load
        } else {
            0.0
        },
        minimal_fraction: minimal as f64 / n.max(1) as f64,
    }
}

/// Whether the route's switch sequence includes `s`.
pub fn visits_switch(route: &SourceRoute, s: SwitchId) -> bool {
    route
        .segments
        .iter()
        .any(|seg| seg.hops.iter().any(|h| h.switch == s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RoutingPolicy;
    use itb_topo::builders::{random_irregular, IrregularSpec};

    #[test]
    fn itb_routing_is_fully_minimal_and_less_root_heavy() {
        let t = random_irregular(&IrregularSpec::evaluation_default(16, 11));
        let ud = UpDown::compute_default(&t);
        let udt = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        let itbt = RouteTable::compute(&t, &ud, RoutingPolicy::Itb).unwrap();
        let mu = analyze(&t, &ud, &udt);
        let mi = analyze(&t, &ud, &itbt);
        // The paper's motivation, quantified:
        assert_eq!(mi.minimal_fraction, 1.0, "every switch has hosts → minimal");
        assert!(
            mu.minimal_fraction < 1.0,
            "UD must lose minimality somewhere"
        );
        assert!(mi.mean_links <= mu.mean_links);
        assert!(
            mi.root_crossing_fraction <= mu.root_crossing_fraction,
            "ITB routes should cross the root no more often (UD {} vs ITB {})",
            mu.root_crossing_fraction,
            mi.root_crossing_fraction
        );
        assert!(mu.mean_itbs == 0.0);
        assert!(mi.mean_itbs > 0.0);
    }

    #[test]
    fn imbalance_at_least_one() {
        let t = random_irregular(&IrregularSpec::evaluation_default(8, 2));
        let ud = UpDown::compute_default(&t);
        let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        let m = analyze(&t, &ud, &tbl);
        assert!(m.channel_imbalance >= 1.0);
        assert!(m.max_links >= m.mean_links.ceil() as usize);
    }

    #[test]
    fn visits_switch_detects_membership() {
        let t = itb_topo::builders::chain(3, 1);
        let ud = UpDown::compute_default(&t);
        let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        let r = tbl.route(itb_topo::HostId(0), itb_topo::HostId(2)).unwrap();
        assert!(visits_switch(&r, SwitchId(1)));
        assert!(visits_switch(&r, SwitchId(0)));
    }
}
