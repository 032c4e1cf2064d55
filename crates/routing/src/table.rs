//! Route tables — what the GM mapper computes and installs in each NIC.

use crate::path::SourceRoute;
use crate::planner::{ItbHostSelection, ItbPlanner, ItbSearch, PlannerError, SwitchHosts};
use crate::updown::BfsTree;
use itb_topo::{HostId, Topology, UpDown};
use serde::Serialize;

/// Which route computation the mapper runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RoutingPolicy {
    /// Stock Myrinet: shortest up\*/down\*-legal paths.
    UpDown,
    /// The paper's mechanism: minimal paths legalized with in-transit
    /// buffers.
    Itb,
}

/// All-pairs route table, indexed `[src][dst]`. `None` on the diagonal.
#[derive(Debug, Clone)]
pub struct RouteTable {
    policy: RoutingPolicy,
    routes: Vec<Vec<Option<SourceRoute>>>,
}

impl RouteTable {
    /// Compute routes for every ordered host pair under `policy`.
    ///
    /// The ITB planner uses round-robin in-transit host selection, matching
    /// the load-balancing recommendation of the follow-up papers; use
    /// [`RouteTable::compute_with_selection`] to override.
    pub fn compute(
        topo: &Topology,
        ud: &UpDown,
        policy: RoutingPolicy,
    ) -> Result<RouteTable, PlannerError> {
        Self::compute_with_selection(topo, ud, policy, ItbHostSelection::RoundRobin)
    }

    /// Compute routes with an explicit in-transit host selection policy.
    ///
    /// A route depends only on its source and destination switches, so
    /// each source switch is searched once and every route out of it is
    /// read from that one search tree. Routes are assembled source-major,
    /// destination-minor, which keeps the round-robin in-transit host
    /// sequence of a per-pair loop.
    pub fn compute_with_selection(
        topo: &Topology,
        ud: &UpDown,
        policy: RoutingPolicy,
        selection: ItbHostSelection,
    ) -> Result<RouteTable, PlannerError> {
        let n = topo.num_hosts();
        let hosts = SwitchHosts::new(topo);
        let mut planner = ItbPlanner::new(selection);
        let mut itb_search = ItbSearch::default();
        let mut ud_search = BfsTree::default();
        let mut searched = None;
        let mut routes = Vec::with_capacity(n);
        for src in topo.host_ids() {
            let src_sw = topo.host_attachment(src).0;
            if searched != Some(src_sw) {
                match policy {
                    RoutingPolicy::UpDown => ud_search.run(topo, Some(ud), src_sw, None),
                    RoutingPolicy::Itb => itb_search.run(topo, ud, &hosts, src_sw, None),
                }
                searched = Some(src_sw);
            }
            let mut row = Vec::with_capacity(n);
            for dst in topo.host_ids() {
                if src == dst {
                    row.push(None);
                    continue;
                }
                let r = match policy {
                    RoutingPolicy::UpDown => ud_search
                        .route(topo, src, dst)
                        .ok_or(PlannerError::Unreachable { src, dst })?,
                    RoutingPolicy::Itb => planner.assemble(topo, &hosts, &itb_search, src, dst)?,
                };
                row.push(Some(r));
            }
            routes.push(row);
        }
        Ok(RouteTable { policy, routes })
    }

    /// The policy this table was computed under.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Route from `src` to `dst` (`None` when equal).
    pub fn route(&self, src: HostId, dst: HostId) -> Option<&SourceRoute> {
        self.routes[src.idx()][dst.idx()].as_ref()
    }

    /// Number of hosts covered.
    pub fn num_hosts(&self) -> usize {
        self.routes.len()
    }

    /// Iterate all routes (src ≠ dst).
    pub fn iter(&self) -> impl Iterator<Item = &SourceRoute> {
        self.routes.iter().flatten().filter_map(|r| r.as_ref())
    }

    /// Replace the route for `(route.src, route.dst)` — used to install the
    /// hand-built evaluation paths of the paper's Figure 6 testbed.
    pub fn set_route(&mut self, route: SourceRoute) {
        assert_ne!(route.src, route.dst);
        let (s, d) = (route.src.idx(), route.dst.idx());
        self.routes[s][d] = Some(route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_topo::builders::{random_irregular, ring, IrregularSpec};

    #[test]
    fn table_covers_all_pairs() {
        let t = ring(5, 1);
        let ud = UpDown::compute_default(&t);
        for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
            let tbl = RouteTable::compute(&t, &ud, policy).unwrap();
            assert_eq!(tbl.num_hosts(), 5);
            assert_eq!(tbl.iter().count(), 5 * 4);
            assert_eq!(tbl.policy(), policy);
            for s in 0..5u16 {
                assert!(tbl.route(HostId(s), HostId(s)).is_none());
                for d in 0..5u16 {
                    if s != d {
                        let r = tbl.route(HostId(s), HostId(d)).unwrap();
                        assert_eq!(r.src, HostId(s));
                        assert_eq!(r.dst, HostId(d));
                        assert!(r.is_well_formed(&t));
                    }
                }
            }
        }
    }

    #[test]
    fn updown_table_has_no_itbs() {
        let t = ring(6, 1);
        let ud = UpDown::compute_default(&t);
        let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        assert!(tbl.iter().all(|r| r.itb_count() == 0));
    }

    #[test]
    fn itb_table_uses_itbs_on_irregular_networks() {
        let t = random_irregular(&IrregularSpec::evaluation_default(16, 3));
        let ud = UpDown::compute_default(&t);
        let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::Itb).unwrap();
        let with_itb = tbl.iter().filter(|r| r.itb_count() > 0).count();
        assert!(
            with_itb > 0,
            "a 16-switch irregular network should need ITBs somewhere"
        );
    }

    #[test]
    fn itb_routes_never_longer_in_links() {
        let t = random_irregular(&IrregularSpec::evaluation_default(10, 5));
        let ud = UpDown::compute_default(&t);
        let udt = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        let itbt = RouteTable::compute(&t, &ud, RoutingPolicy::Itb).unwrap();
        for s in t.host_ids() {
            for d in t.host_ids() {
                if s == d {
                    continue;
                }
                let udr = udt.route(s, d).unwrap();
                let itbr = itbt.route(s, d).unwrap();
                let ud_links = udr.total_crossings() - 1;
                let itb_links = itbr.total_crossings() - 1 - itbr.itb_count();
                assert!(itb_links <= ud_links);
            }
        }
    }
}
