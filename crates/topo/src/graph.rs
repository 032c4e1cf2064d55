//! The wiring graph: switches, hosts, links.

use crate::ids::{HostId, LinkId, Node, PortIx, PortKind, SwitchId};
use itb_sim::{narrow, SimDuration};
use serde::Serialize;

/// One end of a link: a node and the port it plugs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Endpoint {
    /// Node holding the port.
    pub node: Node,
    /// Port index within the node (hosts always use port 0).
    pub port: PortIx,
}

impl Endpoint {
    /// Switch endpoint shorthand.
    pub fn switch(s: SwitchId, port: u8) -> Self {
        Endpoint {
            node: Node::Switch(s),
            port: PortIx(port),
        }
    }
    /// Host endpoint shorthand.
    pub fn host(h: HostId) -> Self {
        Endpoint {
            node: Node::Host(h),
            port: PortIx(0),
        }
    }
}

/// A full-duplex point-to-point cable.
#[derive(Debug, Clone, Serialize)]
pub struct Link {
    /// One end.
    pub a: Endpoint,
    /// Other end.
    pub b: Endpoint,
    /// One-way propagation delay of the cable.
    pub propagation: SimDuration,
}

impl Link {
    /// The endpoint opposite to the one at `node`.
    ///
    /// # Panics
    /// Panics if `node` is on neither end.
    pub fn opposite(&self, node: Node) -> Endpoint {
        if self.a.node == node {
            self.b
        } else if self.b.node == node {
            self.a
        } else {
            // detlint::allow(S001, callers pass a node known to be on the link; a mismatch is a bug)
            panic!("node {node} not on link {self:?}");
        }
    }

    /// Whether `node` is on this link.
    pub fn touches(&self, node: Node) -> bool {
        self.a.node == node || self.b.node == node
    }

    /// Whether this cable joins a switch to itself (a "loop" cable, used in
    /// the paper's Figure 6 to equalize switch-crossing counts).
    pub fn is_self_loop(&self) -> bool {
        self.a.node == self.b.node
    }
}

/// Per-switch data.
#[derive(Debug, Clone, Serialize)]
struct SwitchInfo {
    /// Port kind per port index.
    port_kinds: Vec<PortKind>,
    /// Link attached at each port, if any.
    port_links: Vec<Option<LinkId>>,
}

/// Per-host data.
#[derive(Debug, Clone, Serialize)]
struct HostInfo {
    /// The host NIC's port kind (M2L cards are LAN, M2M cards are SAN).
    nic_kind: PortKind,
    /// The single link attaching the host to a switch (set on wiring).
    link: Option<LinkId>,
}

/// A complete cluster wiring description.
///
/// Build with the [`crate::builders`] helpers or incrementally with
/// [`Topology::add_switch`], [`Topology::add_host`] and the `connect_*`
/// methods; finish with [`Topology::validate`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct Topology {
    switches: Vec<SwitchInfo>,
    hosts: Vec<HostInfo>,
    links: Vec<Link>,
}

/// Errors reported by [`Topology::validate`] and the wiring methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A port that is already cabled was cabled again.
    PortInUse(Endpoint),
    /// A port index beyond the switch's port count.
    NoSuchPort(Endpoint),
    /// A host was wired twice.
    HostAlreadyWired(HostId),
    /// A host was never wired.
    HostUnwired(HostId),
    /// The switch graph is not connected.
    Disconnected {
        /// Number of switches reachable from switch 0.
        reached: usize,
        /// Total switch count.
        total: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::PortInUse(e) => write!(f, "port already cabled: {}:{}", e.node, e.port),
            TopologyError::NoSuchPort(e) => write!(f, "no such port: {}:{}", e.node, e.port),
            TopologyError::HostAlreadyWired(h) => write!(f, "{h} wired twice"),
            TopologyError::HostUnwired(h) => write!(f, "{h} has no link"),
            TopologyError::Disconnected { reached, total } => {
                write!(f, "switch graph disconnected: {reached}/{total} reachable")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch whose ports have the given kinds (index = port number).
    /// The M2FM-SW8 of the testbed is 4 SAN + 4 LAN ports.
    pub fn add_switch(&mut self, port_kinds: Vec<PortKind>) -> SwitchId {
        let id = SwitchId(narrow(self.switches.len()));
        self.switches.push(SwitchInfo {
            port_links: vec![None; port_kinds.len()],
            port_kinds,
        });
        id
    }

    /// Add a switch with `n` ports, all SAN.
    pub fn add_switch_uniform(&mut self, n: usize) -> SwitchId {
        self.add_switch(vec![PortKind::San; n])
    }

    /// Add a host with the given NIC kind. Wire it with
    /// [`Topology::connect_host`].
    pub fn add_host(&mut self, nic_kind: PortKind) -> HostId {
        let id = HostId(narrow(self.hosts.len()));
        self.hosts.push(HostInfo {
            nic_kind,
            link: None,
        });
        id
    }

    fn claim_switch_port(&mut self, ep: Endpoint, link: LinkId) -> Result<(), TopologyError> {
        // detlint::allow(S001, claim_switch_port is only called with switch endpoints)
        let s = ep.node.as_switch().expect("switch endpoint");
        let info = &mut self.switches[s.idx()];
        let slot = info
            .port_links
            .get_mut(ep.port.idx())
            .ok_or(TopologyError::NoSuchPort(ep))?;
        if slot.is_some() {
            return Err(TopologyError::PortInUse(ep));
        }
        *slot = Some(link);
        Ok(())
    }

    /// Cable two switch ports together.
    pub fn connect_switches(
        &mut self,
        a: SwitchId,
        a_port: u8,
        b: SwitchId,
        b_port: u8,
        propagation: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        let id = LinkId(narrow(self.links.len()));
        let ea = Endpoint::switch(a, a_port);
        let eb = Endpoint::switch(b, b_port);
        self.claim_switch_port(ea, id)?;
        self.claim_switch_port(eb, id).inspect_err(|_| {
            // Roll back the first claim so failed wiring leaves no residue.
            self.switches[a.idx()].port_links[a_port as usize] = None;
        })?;
        self.links.push(Link {
            a: ea,
            b: eb,
            propagation,
        });
        Ok(id)
    }

    /// Cable a host NIC to a switch port.
    pub fn connect_host(
        &mut self,
        h: HostId,
        s: SwitchId,
        s_port: u8,
        propagation: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        if self.hosts[h.idx()].link.is_some() {
            return Err(TopologyError::HostAlreadyWired(h));
        }
        let id = LinkId(narrow(self.links.len()));
        let es = Endpoint::switch(s, s_port);
        self.claim_switch_port(es, id)?;
        self.hosts[h.idx()].link = Some(id);
        self.links.push(Link {
            a: Endpoint::host(h),
            b: es,
            propagation,
        });
        Ok(id)
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }
    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> {
        (0..narrow::<u16, _>(self.switches.len())).map(SwitchId)
    }
    /// All host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..narrow::<u16, _>(self.hosts.len())).map(HostId)
    }
    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..narrow::<u32, _>(self.links.len())).map(LinkId)
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Ports of `s`: `(port, kind, attached link)` triples.
    pub fn switch_ports(
        &self,
        s: SwitchId,
    ) -> impl Iterator<Item = (PortIx, PortKind, Option<LinkId>)> + '_ {
        let info = &self.switches[s.idx()];
        info.port_kinds
            .iter()
            .zip(&info.port_links)
            .enumerate()
            .map(|(i, (&k, &l))| (PortIx(narrow(i)), k, l))
    }

    /// Number of ports on switch `s`.
    pub fn switch_port_count(&self, s: SwitchId) -> usize {
        self.switches[s.idx()].port_kinds.len()
    }

    /// Kind of a specific switch port.
    pub fn switch_port_kind(&self, s: SwitchId, port: PortIx) -> PortKind {
        self.switches[s.idx()].port_kinds[port.idx()]
    }

    /// The link plugged into a switch port, if any.
    pub fn link_at(&self, s: SwitchId, port: PortIx) -> Option<LinkId> {
        self.switches[s.idx()].port_links[port.idx()]
    }

    /// NIC port kind of a host.
    pub fn host_nic_kind(&self, h: HostId) -> PortKind {
        self.hosts[h.idx()].nic_kind
    }

    /// The host's uplink. Panics if the host is unwired (see
    /// [`Topology::validate`]).
    pub fn host_link(&self, h: HostId) -> LinkId {
        // detlint::allow(S001, validate ensures every host is wired)
        self.hosts[h.idx()].link.expect("host not wired")
    }

    /// The switch (and its port) a host hangs off.
    pub fn host_attachment(&self, h: HostId) -> (SwitchId, PortIx) {
        let link = self.link(self.host_link(h));
        let ep = link.opposite(Node::Host(h));
        (
            // detlint::allow(S001, hosts wire to switches only)
            ep.node.as_switch().expect("host wired to a switch"),
            ep.port,
        )
    }

    /// Hosts attached to switch `s`, in port order.
    pub fn hosts_at(&self, s: SwitchId) -> Vec<HostId> {
        self.hosts_on(s).collect()
    }

    /// Allocation-free form of [`Topology::hosts_at`].
    pub fn hosts_on(&self, s: SwitchId) -> impl Iterator<Item = HostId> + '_ {
        self.switch_ports(s)
            .filter_map(|(_, _, l)| l)
            .filter_map(|l| {
                let link = self.link(l);
                link.a.node.as_host().or(link.b.node.as_host())
            })
    }

    /// Switch-to-switch neighbours of `s`: `(out port, link, neighbour)`.
    /// Self-loop cables appear once per endpoint (two entries with the same
    /// link and neighbour `s`).
    pub fn switch_neighbors(
        &self,
        s: SwitchId,
    ) -> impl Iterator<Item = (PortIx, LinkId, SwitchId)> + '_ {
        self.switch_ports(s).filter_map(move |(port, _, l)| {
            let lid = l?;
            let link = self.link(lid);
            // For a self-loop, "the other end" is the endpoint that is not
            // this (node, port) pair.
            let other = if link.a.node == Node::Switch(s) && link.a.port == port {
                link.b
            } else {
                link.a
            };
            other.node.as_switch().map(|n| (port, lid, n))
        })
    }

    /// The output port on `from` that sends onto `link`, oriented away from
    /// `from` (for self-loops either endpoint works; returns `a`'s port when
    /// both ends are on `from`).
    pub fn out_port(&self, from: SwitchId, link: LinkId) -> PortIx {
        let l = self.link(link);
        if l.a.node == Node::Switch(from) {
            l.a.port
        } else {
            debug_assert_eq!(l.b.node, Node::Switch(from));
            l.b.port
        }
    }

    /// Check structural invariants: all hosts wired and the switch graph
    /// connected.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for h in self.host_ids() {
            if self.hosts[h.idx()].link.is_none() {
                return Err(TopologyError::HostUnwired(h));
            }
        }
        if self.switches.is_empty() {
            return Ok(());
        }
        // BFS over switches.
        let mut seen = vec![false; self.switches.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(SwitchId(0));
        let mut reached = 1;
        while let Some(s) = queue.pop_front() {
            for (_, _, n) in self.switch_neighbors(s) {
                if !seen[n.idx()] {
                    seen[n.idx()] = true;
                    reached += 1;
                    queue.push_back(n);
                }
            }
        }
        if reached != self.switches.len() {
            return Err(TopologyError::Disconnected {
                reached,
                total: self.switches.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch() -> (Topology, SwitchId, SwitchId) {
        let mut t = Topology::new();
        let s0 = t.add_switch_uniform(4);
        let s1 = t.add_switch_uniform(4);
        t.connect_switches(s0, 0, s1, 0, SimDuration::from_ns(10))
            .unwrap();
        (t, s0, s1)
    }

    #[test]
    fn wiring_and_lookup() {
        let (mut t, s0, s1) = two_switch();
        let h = t.add_host(PortKind::Lan);
        t.connect_host(h, s0, 1, SimDuration::from_ns(20)).unwrap();
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_hosts(), 1);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.host_attachment(h), (s0, PortIx(1)));
        assert_eq!(t.hosts_at(s0), vec![h]);
        assert!(t.hosts_at(s1).is_empty());
        let nbrs: Vec<_> = t.switch_neighbors(s0).collect();
        assert_eq!(nbrs.len(), 1);
        assert_eq!(nbrs[0].2, s1);
        t.validate().unwrap();
    }

    #[test]
    fn port_reuse_rejected() {
        let (mut t, s0, s1) = two_switch();
        let err = t
            .connect_switches(s0, 0, s1, 1, SimDuration::ZERO)
            .unwrap_err();
        assert_eq!(err, TopologyError::PortInUse(Endpoint::switch(s0, 0)));
        // Failed wiring must not leak a claimed port on the other side.
        t.connect_switches(s0, 1, s1, 1, SimDuration::ZERO).unwrap();
    }

    #[test]
    fn rollback_on_second_endpoint_failure() {
        let (mut t, s0, s1) = two_switch();
        // s1 port 0 is taken; wiring s0:2 -> s1:0 must fail AND free s0:2.
        let err = t
            .connect_switches(s0, 2, s1, 0, SimDuration::ZERO)
            .unwrap_err();
        assert_eq!(err, TopologyError::PortInUse(Endpoint::switch(s1, 0)));
        t.connect_switches(s0, 2, s1, 2, SimDuration::ZERO).unwrap();
    }

    #[test]
    fn bad_port_rejected() {
        let (mut t, s0, s1) = two_switch();
        let err = t
            .connect_switches(s0, 9, s1, 1, SimDuration::ZERO)
            .unwrap_err();
        assert_eq!(err, TopologyError::NoSuchPort(Endpoint::switch(s0, 9)));
    }

    #[test]
    fn host_double_wire_rejected() {
        let (mut t, s0, _) = two_switch();
        let h = t.add_host(PortKind::San);
        t.connect_host(h, s0, 1, SimDuration::ZERO).unwrap();
        let err = t.connect_host(h, s0, 2, SimDuration::ZERO).unwrap_err();
        assert_eq!(err, TopologyError::HostAlreadyWired(h));
    }

    #[test]
    fn unwired_host_fails_validation() {
        let (mut t, _, _) = two_switch();
        let h = t.add_host(PortKind::San);
        assert_eq!(t.validate().unwrap_err(), TopologyError::HostUnwired(h));
    }

    #[test]
    fn disconnected_graph_fails_validation() {
        let mut t = Topology::new();
        t.add_switch_uniform(4);
        t.add_switch_uniform(4);
        assert_eq!(
            t.validate().unwrap_err(),
            TopologyError::Disconnected {
                reached: 1,
                total: 2
            }
        );
    }

    #[test]
    fn self_loop_cable() {
        let mut t = Topology::new();
        let s0 = t.add_switch_uniform(4);
        let l = t
            .connect_switches(s0, 0, s0, 1, SimDuration::from_ns(5))
            .unwrap();
        assert!(t.link(l).is_self_loop());
        let nbrs: Vec<_> = t.switch_neighbors(s0).collect();
        // A loop cable contributes both of its ports.
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.iter().all(|&(_, _, n)| n == s0));
        t.validate().unwrap();
    }

    #[test]
    fn opposite_endpoint() {
        let (t, s0, s1) = two_switch();
        let l = t.link(LinkId(0));
        assert_eq!(l.opposite(Node::Switch(s0)).node, Node::Switch(s1));
        assert_eq!(l.opposite(Node::Switch(s1)).node, Node::Switch(s0));
        assert!(l.touches(Node::Switch(s0)));
        assert!(!l.touches(Node::Host(HostId(0))));
    }

    #[test]
    fn out_port_orientation() {
        let (t, s0, s1) = two_switch();
        assert_eq!(t.out_port(s0, LinkId(0)), PortIx(0));
        assert_eq!(t.out_port(s1, LinkId(0)), PortIx(0));
    }

    #[test]
    fn port_kinds_tracked() {
        let mut t = Topology::new();
        let s = t.add_switch(vec![
            PortKind::San,
            PortKind::San,
            PortKind::Lan,
            PortKind::Lan,
        ]);
        assert_eq!(t.switch_port_kind(s, PortIx(0)), PortKind::San);
        assert_eq!(t.switch_port_kind(s, PortIx(3)), PortKind::Lan);
        assert_eq!(t.switch_port_count(s), 4);
    }
}
