//! Route tables — what the GM mapper computes and installs in each NIC.
//!
//! The mapper computes each route once and downloads it to the NIC as the
//! string of bytes the NIC prepends to every packet. The table keeps the
//! routes that way: every pair's Figure 3 header back to back in one byte
//! arena, found through one offset per `(src, dst)` pair. Sending a packet
//! copies a slice. [`RouteTable::route`] and [`RouteTable::iter`] decode a
//! [`SourceRoute`] back out of the bytes for the analyses, reading each
//! route byte's switch off the port wiring the table was computed on.

use crate::path::{Hop, SourceRoute, Step};
use crate::planner::{ItbHostSelection, ItbPlanner, ItbSearch, PlannerError, SwitchHosts};
use crate::updown::BfsTree;
use crate::wire::{append_header, fields, Field, Header};
use itb_sim::narrow;
use itb_topo::{HostId, Node, PortIx, SwitchId, Topology, UpDown};
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

/// All-pairs route table: every ordered host pair's encoded header.
#[derive(Debug, Clone)]
pub struct RouteTable {
    policy: RoutingPolicy,
    hosts: usize,
    /// Headers source-major, destination-minor: pair `p = src * hosts +
    /// dst` owns `bytes[offsets[p]..offsets[p + 1]]`, empty when
    /// `src == dst`.
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    wiring: Wiring,
}

/// Where each switch port leads, and the switch each host hangs off:
/// enough to name the switch behind every route byte of a header.
#[derive(Debug, Clone)]
struct Wiring {
    host_switch: Vec<SwitchId>,
    /// `peers[port_start[s] + p]` is the node cabled to port `p` of switch
    /// `s`, `None` when the port is free.
    port_start: Vec<usize>,
    peers: Vec<Option<Node>>,
}

impl Wiring {
    fn new(topo: &Topology) -> Self {
        let mut port_start = Vec::with_capacity(topo.num_switches() + 1);
        port_start.push(0);
        for s in topo.switch_ids() {
            port_start.push(port_start[s.idx()] + topo.switch_port_count(s));
        }
        let mut peers = vec![None; port_start[topo.num_switches()]];
        for s in topo.switch_ids() {
            for (port, _, next) in topo.switch_neighbors(s) {
                peers[port_start[s.idx()] + port.idx()] = Some(Node::Switch(next));
            }
        }
        let mut host_switch = Vec::with_capacity(topo.num_hosts());
        for h in topo.host_ids() {
            let (s, port) = topo.host_attachment(h);
            peers[port_start[s.idx()] + port.idx()] = Some(Node::Host(h));
            host_switch.push(s);
        }
        Wiring {
            host_switch,
            port_start,
            peers,
        }
    }

    fn peer(&self, s: SwitchId, port: PortIx) -> Option<Node> {
        let ports = &self.peers[self.port_start[s.idx()]..self.port_start[s.idx() + 1]];
        ports.get(port.idx()).copied().flatten()
    }
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
    /// read from that one search tree. Routes are encoded source-major,
    /// destination-minor, which keeps the round-robin in-transit host
    /// sequence of a per-pair loop. Each is written straight into the
    /// header arena through one reused step buffer.
    ///
    /// A route whose header cannot be encoded (a port past 63, or more
    /// than 255 header bytes after an in-transit stop) is a
    /// [`PlannerError::Unencodable`] error.
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
        let mut steps = Vec::new();
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        for src in topo.host_ids() {
            let src_sw = hosts.attachment(src).0;
            if searched != Some(src_sw) {
                match policy {
                    RoutingPolicy::UpDown => ud_search.run(topo, Some(ud), src_sw, None),
                    RoutingPolicy::Itb => itb_search.run(topo, ud, &hosts, src_sw, None),
                }
                searched = Some(src_sw);
            }
            for dst in topo.host_ids() {
                if src != dst {
                    match policy {
                        RoutingPolicy::UpDown => {
                            if !ud_search.steps(hosts.attachment(dst), &mut steps) {
                                return Err(PlannerError::Unreachable { src, dst });
                            }
                        }
                        RoutingPolicy::Itb => {
                            planner.steps(topo, &hosts, &itb_search, src, dst, &mut steps)?
                        }
                    }
                    append_header(&mut bytes, &steps)
                        .map_err(|error| PlannerError::Unencodable { src, dst, error })?;
                }
                offsets.push(narrow(bytes.len()));
            }
        }
        bytes.shrink_to_fit();
        Ok(RouteTable {
            policy,
            hosts: n,
            bytes,
            offsets,
            wiring: Wiring::new(topo),
        })
    }

    /// The policy this table was computed under.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of hosts covered.
    pub fn num_hosts(&self) -> usize {
        self.hosts
    }

    /// The encoded header from `src` to `dst` (empty when equal).
    #[inline]
    pub fn header(&self, src: HostId, dst: HostId) -> &[u8] {
        let p = src.idx() * self.hosts + dst.idx();
        &self.bytes[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// In-transit stops on the route from `src` to `dst`, read off its
    /// header without decoding the route.
    pub fn itb_count(&self, src: HostId, dst: HostId) -> usize {
        fields(self.header(src, dst))
            .filter(|&f| f == Field::Itb)
            .count()
    }

    /// Route from `src` to `dst` (`None` when equal), decoded from its
    /// header.
    pub fn route(&self, src: HostId, dst: HostId) -> Option<SourceRoute> {
        (src != dst).then(|| SourceRoute::from_steps(src, dst, self.steps(src, dst)))
    }

    /// Every route (src ≠ dst), decoded source-major, destination-minor.
    pub fn iter(&self) -> impl Iterator<Item = SourceRoute> + '_ {
        let hosts = move || (0..self.hosts).map(|h| HostId(narrow(h)));
        hosts().flat_map(move |src| hosts().filter_map(move |dst| self.route(src, dst)))
    }

    /// The steps of the route from `src` to `dst`: each route byte is a
    /// hop out of the switch the previous one led to, and a hop into a
    /// host before an `ITB | Length` group names the in-transit host.
    fn steps(&self, src: HostId, dst: HostId) -> impl Iterator<Item = Step> + '_ {
        let mut at = self.wiring.host_switch[src.idx()];
        let mut ejected = src;
        fields(self.header(src, dst)).map(move |field| match field {
            Field::Route(out_port) => {
                let hop = Hop {
                    switch: at,
                    out_port,
                };
                match self.wiring.peer(at, out_port) {
                    Some(Node::Switch(next)) => at = next,
                    Some(Node::Host(h)) => ejected = h,
                    None => {}
                }
                Step::Hop(hop)
            }
            Field::Itb => Step::Itb(ejected),
        })
    }

    /// Replace the route for `(route.src, route.dst)` — used to install the
    /// hand-built evaluation paths of the paper's Figure 6 testbed. The
    /// new header takes the old one's place in the arena. The route must
    /// be wired on the topology the table was computed on (check it with
    /// [`SourceRoute::is_well_formed`]), or [`RouteTable::route`] decodes
    /// other hops than it has.
    ///
    /// # Panics
    /// Panics if the route has no header.
    pub fn set_route(&mut self, route: SourceRoute) {
        assert_ne!(route.src, route.dst);
        let p = route.src.idx() * self.hosts + route.dst.idx();
        let (start, end) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        let header = Header::encode(&route);
        let new = header.as_bytes();
        self.bytes.splice(start..end, new.iter().copied());
        for offset in &mut self.offsets[p + 1..] {
            *offset = narrow(*offset as usize + new.len() - (end - start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::EncodeError;
    use itb_topo::builders::{chain, random_irregular, ring, IrregularSpec};

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

    #[test]
    fn ports_past_a_route_byte_are_rejected() {
        // 65 ports: hosts on ports 2..=64 of each switch. Port 64 would
        // encode as port 0's byte; host 62 is the first destination behind
        // it, in source-major order.
        let t = chain(2, 63);
        let ud = UpDown::compute_default(&t);
        for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
            assert_eq!(
                RouteTable::compute(&t, &ud, policy).unwrap_err(),
                PlannerError::Unencodable {
                    src: HostId(0),
                    dst: HostId(62),
                    error: EncodeError::Port(Hop::new(SwitchId(0), 64)),
                }
            );
        }
    }

    #[test]
    fn set_route_replaces_one_header_in_place() {
        let t = ring(5, 1);
        let ud = UpDown::compute_default(&t);
        let mut tbl = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
        let before: Vec<_> = tbl.iter().collect();
        let (h0, h2) = (HostId(0), HostId(2));
        let direct = tbl.route(h0, h2).unwrap();
        // The long way round: out port 0 of each switch leads back one.
        let detour = SourceRoute::direct(
            h0,
            h2,
            vec![
                Hop::new(SwitchId(0), 0),
                Hop::new(SwitchId(4), 0),
                Hop::new(SwitchId(3), 0),
                Hop::new(SwitchId(2), 2),
            ],
        );
        assert!(detour.total_crossings() > direct.total_crossings());
        tbl.set_route(detour.clone());
        assert_eq!(tbl.route(h0, h2), Some(detour));
        assert_eq!(tbl.iter().filter(|r| !before.contains(r)).count(), 1);
        // Shrinking back restores every header.
        tbl.set_route(direct);
        assert!(tbl.iter().eq(before));
    }
}
