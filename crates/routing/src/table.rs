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
use crate::planner::{ItbHostSelection, PlannerError, Router};
use crate::updown::{Mode, Peer, PortIndex};
use crate::wire::{append_header, fields, hop_byte, Field, Header};
use itb_sim::narrow;
use itb_topo::{HostId, SwitchId, Topology, UpDown};
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
    /// The wiring the table was computed on: the switch behind each route
    /// byte.
    index: PortIndex,
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
    /// one [`Router`] searches each source switch once and every route out
    /// of it is read from that one search tree. Routes are encoded
    /// source-major, destination-minor, which keeps the round-robin
    /// in-transit host sequence of a per-pair loop.
    ///
    /// A header's bytes depend only on the two switches too, but for two
    /// kinds: the last route byte, which names the destination's port, and
    /// the route byte before each `ITB | Length` group, which names the
    /// in-transit host. The first route from a searched switch to each
    /// destination switch is encoded into the arena in full and serves as
    /// the template; every later one copies the template's bytes and
    /// rewrites those, picking the in-transit hosts in hop order as the
    /// full encode would.
    ///
    /// A route whose header cannot be encoded (a port past 63, or more
    /// than 255 header bytes after an in-transit stop) is a
    /// [`PlannerError::Unencodable`] error, for the first such pair and its
    /// first such hop.
    pub fn compute_with_selection(
        topo: &Topology,
        ud: &UpDown,
        policy: RoutingPolicy,
        selection: ItbHostSelection,
    ) -> Result<RouteTable, PlannerError> {
        let n = topo.num_hosts();
        let mut router = Router::new(topo, ud, selection);
        let mode = match policy {
            RoutingPolicy::UpDown => Mode::UpDown,
            RoutingPolicy::Itb => Mode::Itb,
        };
        // Per destination switch: the arena range of the template from the
        // searched switch, and the range of its in-transit host bytes in
        // `stops`, each an offset into the header and the stop's switch.
        // An up*/down* table has no stops, an ITB table rarely more than one
        // per destination switch.
        let mut templates = vec![None; router.index.num_switches()];
        let mut stops: Vec<(usize, SwitchId)> = Vec::with_capacity(match policy {
            RoutingPolicy::UpDown => 0,
            RoutingPolicy::Itb => router.index.num_switches(),
        });
        let mut steps = Vec::new();
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        for src in topo.host_ids() {
            if router.search_from(src, mode) {
                templates.fill(None);
                stops.clear();
            }
            for dst in topo.host_ids() {
                if src != dst {
                    let unencodable = |error| PlannerError::Unencodable { src, dst, error };
                    let (dst_sw, dst_port) = router.index.attachment(dst);
                    let start = bytes.len();
                    if let Some((from, to, slots)) = templates[dst_sw.idx()].clone() {
                        bytes.extend_from_within(from..to);
                        let header = &mut bytes[start..];
                        for &(at, switch) in &stops[slots] {
                            let host = router.pick(switch);
                            let out_port = router.index.attachment(host).1;
                            header[at] = hop_byte(Hop { switch, out_port }).map_err(unencodable)?;
                        }
                        // The last route byte, before the two-byte type.
                        let last = header.len() - 3;
                        header[last] = hop_byte(Hop {
                            switch: dst_sw,
                            out_port: dst_port,
                        })
                        .map_err(unencodable)?;
                    } else {
                        router.steps(src, dst, &mut steps)?;
                        append_header(&mut bytes, &steps).map_err(unencodable)?;
                        // Each hop is one byte and each stop three, and the
                        // hop before a stop leads to its host.
                        let first = stops.len();
                        let mut at = 0;
                        for pair in steps.windows(2) {
                            if let [Step::Hop(hop), Step::Itb(_)] = *pair {
                                stops.push((at, hop.switch));
                            }
                            at += if let Step::Itb(_) = pair[0] { 3 } else { 1 };
                        }
                        templates[dst_sw.idx()] = Some((start, bytes.len(), first..stops.len()));
                    }
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
            index: router.index,
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
        let mut at = self.index.attachment(src).0;
        let mut ejected = src;
        fields(self.header(src, dst)).map(move |field| match field {
            Field::Route(out_port) => {
                let hop = Hop {
                    switch: at,
                    out_port,
                };
                match self.index.peer(at, out_port) {
                    Peer::Switch(next, _) => at = next,
                    Peer::Host(h) => ejected = h,
                    Peer::Free => {}
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
    use itb_topo::builders::{cable, chain, random_irregular, ring, IrregularSpec};
    use itb_topo::{PortKind, SpanningTree};

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

    /// An 8-switch ring of 65-port switches rooted at switch 0, cabled
    /// out of port 1 into port 0 of the next switch. Host 0 sits on switch
    /// 3, hosts 1 and 2 on switch 5, and switch 4, the far one, carries
    /// host 3 on port 2 and host 4 on port 64, which no route byte names.
    /// The minimal routes 3 -> 4 -> 5 turn down->up at switch 4 and stop at
    /// an in-transit host there.
    fn ring_with_an_in_transit_host_past_port_63() -> (Topology, UpDown) {
        let mut t = Topology::new();
        let sw: Vec<SwitchId> = (0..8).map(|_| t.add_switch_uniform(65)).collect();
        for i in 0..8 {
            t.connect_switches(sw[i], 1, sw[(i + 1) % 8], 0, cable::SAN)
                .unwrap();
        }
        for (s, port) in [(3, 2), (5, 2), (5, 3), (4, 2), (4, 64)] {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, sw[s], port, cable::SAN).unwrap();
        }
        t.validate().unwrap();
        let ud = UpDown::compute(&t, SpanningTree::compute(&t, SwitchId(0)));
        (t, ud)
    }

    #[test]
    fn in_transit_hosts_past_a_route_byte_are_rejected() {
        let (t, ud) = ring_with_an_in_transit_host_past_port_63();
        let beyond = EncodeError::Port(Hop::new(SwitchId(4), 64));
        // Round robin stops 0 -> 1 at host 3 and 0 -> 2 at host 4; always
        // taking host 3 first fails only at host 4 as a destination.
        for (selection, dst) in [
            (ItbHostSelection::RoundRobin, HostId(2)),
            (ItbHostSelection::First, HostId(4)),
        ] {
            assert_eq!(
                RouteTable::compute_with_selection(&t, &ud, RoutingPolicy::Itb, selection)
                    .unwrap_err(),
                PlannerError::Unencodable {
                    src: HostId(0),
                    dst,
                    error: beyond,
                },
                "{selection:?}"
            );
        }
    }

    #[test]
    fn tails_past_the_length_byte_are_rejected() {
        // A 6-ring rooted at switch 0 with a 252-switch chain hanging off
        // switch 4. Host 0 on switch 2 reaches host 1 at the chain's end
        // through an in-transit host on switch 3, the ring's far switch;
        // after that stop come 254 route bytes and the type, 256 bytes.
        let mut t = Topology::new();
        let sw: Vec<SwitchId> = (0..6 + 252).map(|_| t.add_switch_uniform(4)).collect();
        for i in 0..6 {
            t.connect_switches(sw[i], 1, sw[(i + 1) % 6], 0, cable::SAN)
                .unwrap();
        }
        t.connect_switches(sw[4], 2, sw[6], 0, cable::SAN).unwrap();
        for i in 6..sw.len() - 1 {
            t.connect_switches(sw[i], 1, sw[i + 1], 0, cable::SAN)
                .unwrap();
        }
        for (s, port) in [(2, 3), (sw.len() - 1, 2), (3, 3)] {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, sw[s], port, cable::SAN).unwrap();
        }
        t.validate().unwrap();
        let ud = UpDown::compute(&t, SpanningTree::compute(&t, SwitchId(0)));
        assert_eq!(
            RouteTable::compute(&t, &ud, RoutingPolicy::Itb).unwrap_err(),
            PlannerError::Unencodable {
                src: HostId(0),
                dst: HostId(1),
                error: EncodeError::Length(256),
            }
        );
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
