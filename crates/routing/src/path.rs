//! Path and route types.

use itb_topo::{HostId, LinkId, PortIx, SwitchId, Topology};
use serde::Serialize;

/// One switch crossing: the packet is inside `switch` and leaves through
/// `out_port`. The link it leaves on is `topology.link_at(switch, out_port)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Hop {
    /// Switch being crossed.
    pub switch: SwitchId,
    /// Output port taken (this is the byte stamped in the header).
    pub out_port: PortIx,
}

impl Hop {
    /// Shorthand constructor.
    pub fn new(switch: SwitchId, out_port: u8) -> Self {
        Hop {
            switch,
            out_port: PortIx(out_port),
        }
    }
}

/// One up\*/down\*-legal piece of a route: from a host, across `hops`
/// switches, to another host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Segment {
    /// Host injecting this segment (the source or an in-transit host).
    pub from: HostId,
    /// Host ejecting this segment (an in-transit host or the destination).
    pub to: HostId,
    /// Switch crossings in order. The last hop's `out_port` leads to `to`'s
    /// host link.
    pub hops: Vec<Hop>,
}

impl Segment {
    /// Number of switch crossings.
    pub fn crossings(&self) -> usize {
        self.hops.len()
    }

    /// The links this segment traverses, in order, *excluding* the host
    /// links at either end.
    pub fn inter_switch_links<'t>(
        &'t self,
        topo: &'t Topology,
    ) -> impl Iterator<Item = LinkId> + 't {
        // The link leaving the final hop goes to the host, so skip it.
        self.hops[..self.hops.len().saturating_sub(1)]
            .iter()
            .map(move |h| {
                topo.link_at(h.switch, h.out_port)
                    // detlint::allow(S001, routes are validated against the cabling when built)
                    .expect("route uses a cabled port")
            })
    }

    /// Check that consecutive hops are physically wired: each `out_port`
    /// leads to the next hop's switch (or, for the last hop, to `to`).
    pub fn is_wired(&self, topo: &Topology) -> bool {
        if self.hops.is_empty() {
            return false;
        }
        // First switch must be the one `from` hangs off.
        if topo.host_attachment(self.from).0 != self.hops[0].switch {
            return false;
        }
        for w in self.hops.windows(2) {
            let Some(link) = topo.link_at(w[0].switch, w[0].out_port) else {
                return false;
            };
            let l = topo.link(link);
            // Next switch must be the endpoint that is not this (node, port).
            let next =
                if l.a.node == itb_topo::Node::Switch(w[0].switch) && l.a.port == w[0].out_port {
                    l.b
                } else {
                    l.a
                };
            if next.node != itb_topo::Node::Switch(w[1].switch) {
                return false;
            }
        }
        let last = self.hops[self.hops.len() - 1];
        let Some(link) = topo.link_at(last.switch, last.out_port) else {
            return false;
        };
        topo.link(link).touches(itb_topo::Node::Host(self.to))
    }
}

/// One element of a route in wire order: what the planner emits, the
/// header encoder consumes and the route table decodes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A switch crossing.
    Hop(Hop),
    /// The previous hop ejected the packet into this in-transit host,
    /// which re-injects it into the same switch.
    Itb(HostId),
}

/// A complete source route: one segment for plain up\*/down\*, several when
/// in-transit buffers are used. Segment *k* ends at the host that re-injects
/// segment *k+1*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SourceRoute {
    /// Originating host.
    pub src: HostId,
    /// Final destination host.
    pub dst: HostId,
    /// At least one segment; `segments[0].from == src`,
    /// `segments.last().to == dst`.
    pub segments: Vec<Segment>,
}

impl SourceRoute {
    /// A single-segment route (no ITBs).
    pub fn direct(src: HostId, dst: HostId, hops: Vec<Hop>) -> Self {
        SourceRoute {
            src,
            dst,
            segments: vec![Segment {
                from: src,
                to: dst,
                hops,
            }],
        }
    }

    /// Assemble a route from its steps, splitting segments at the
    /// in-transit stops.
    pub(crate) fn from_steps(
        src: HostId,
        dst: HostId,
        steps: impl IntoIterator<Item = Step>,
    ) -> Self {
        let mut segments = Vec::new();
        let mut from = src;
        let mut hops = Vec::new();
        for step in steps {
            match step {
                Step::Hop(hop) => hops.push(hop),
                Step::Itb(to) => {
                    let hops = std::mem::take(&mut hops);
                    segments.push(Segment { from, to, hops });
                    from = to;
                }
            }
        }
        segments.push(Segment {
            from,
            to: dst,
            hops,
        });
        SourceRoute { src, dst, segments }
    }

    /// Number of in-transit buffers used (segments − 1).
    pub fn itb_count(&self) -> usize {
        self.segments.len() - 1
    }

    /// The in-transit hosts, in order.
    pub fn itb_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.segments[..self.segments.len() - 1]
            .iter()
            .map(|s| s.to)
    }

    /// Total switch crossings over all segments.
    pub fn total_crossings(&self) -> usize {
        self.segments.iter().map(Segment::crossings).sum()
    }

    /// Human-readable rendering: `host0 - sw0[p1] - sw1[p2] -> host1(ITB) -
    /// sw1[p1] - sw2[p2] -> host2` — in-transit hosts marked `(ITB)`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let last = self.segments.len() - 1;
        for (i, seg) in self.segments.iter().enumerate() {
            if i == 0 {
                out.push_str(&seg.from.to_string());
            }
            for hop in &seg.hops {
                out.push_str(&format!(" - {}[{}]", hop.switch, hop.out_port));
            }
            if i == last {
                out.push_str(&format!(" -> {}", seg.to));
            } else {
                out.push_str(&format!(" -> {}(ITB)", seg.to));
            }
        }
        out
    }

    /// Structural sanity: endpoints chain correctly and every segment is
    /// physically wired.
    pub fn is_well_formed(&self, topo: &Topology) -> bool {
        if self.segments.is_empty() {
            return false;
        }
        if self.segments[0].from != self.src {
            return false;
        }
        if self.segments[self.segments.len() - 1].to != self.dst {
            return false;
        }
        for w in self.segments.windows(2) {
            if w[0].to != w[1].from {
                return false;
            }
        }
        self.segments.iter().all(|s| s.is_wired(topo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_topo::builders::{chain, fig6_testbed};
    use itb_topo::HostId;

    #[test]
    fn direct_route_shape() {
        let r = SourceRoute::direct(
            HostId(0),
            HostId(1),
            vec![Hop::new(SwitchId(0), 0), Hop::new(SwitchId(1), 2)],
        );
        assert_eq!(r.itb_count(), 0);
        assert_eq!(r.total_crossings(), 2);
        assert_eq!(r.itb_hosts().count(), 0);
    }

    #[test]
    fn wired_route_on_chain() {
        // chain(3,1): sw0-sw1 via ports (1,0), sw1-sw2 via ports (1,0);
        // host h_i on switch i at port 2.
        let t = chain(3, 1);
        let r = SourceRoute::direct(
            HostId(0),
            HostId(2),
            vec![
                Hop::new(SwitchId(0), 1),
                Hop::new(SwitchId(1), 1),
                Hop::new(SwitchId(2), 2),
            ],
        );
        assert!(r.is_well_formed(&t));
    }

    #[test]
    fn miswired_route_detected() {
        let t = chain(3, 1);
        // Wrong middle port: exits switch 1 back toward switch 0.
        let r = SourceRoute::direct(
            HostId(0),
            HostId(2),
            vec![
                Hop::new(SwitchId(0), 1),
                Hop::new(SwitchId(1), 0),
                Hop::new(SwitchId(2), 2),
            ],
        );
        assert!(!r.is_well_formed(&t));
    }

    #[test]
    fn wrong_first_switch_detected() {
        let t = chain(3, 1);
        let r = SourceRoute::direct(
            HostId(0),
            HostId(1),
            vec![Hop::new(SwitchId(1), 2)], // host0 hangs off switch 0
        );
        assert!(!r.is_well_formed(&t));
    }

    #[test]
    fn segment_chaining_enforced() {
        let t = chain(3, 1);
        let seg1 = Segment {
            from: HostId(0),
            to: HostId(1),
            hops: vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
        };
        let seg2 = Segment {
            from: HostId(1),
            to: HostId(2),
            hops: vec![Hop::new(SwitchId(1), 1), Hop::new(SwitchId(2), 2)],
        };
        let good = SourceRoute {
            src: HostId(0),
            dst: HostId(2),
            segments: vec![seg1.clone(), seg2.clone()],
        };
        assert!(good.is_well_formed(&t));
        assert_eq!(good.itb_count(), 1);
        assert_eq!(good.itb_hosts().collect::<Vec<_>>(), vec![HostId(1)]);
        assert_eq!(good.total_crossings(), 4);

        let broken = SourceRoute {
            src: HostId(0),
            dst: HostId(2),
            segments: vec![seg2, seg1], // endpoints do not chain
        };
        assert!(!broken.is_well_formed(&t));
    }

    #[test]
    fn describe_renders_segments() {
        let t = chain(3, 1);
        let seg1 = Segment {
            from: HostId(0),
            to: HostId(1),
            hops: vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
        };
        let seg2 = Segment {
            from: HostId(1),
            to: HostId(2),
            hops: vec![Hop::new(SwitchId(1), 1), Hop::new(SwitchId(2), 2)],
        };
        let r = SourceRoute {
            src: HostId(0),
            dst: HostId(2),
            segments: vec![seg1, seg2],
        };
        assert!(r.is_well_formed(&t));
        let s = r.describe();
        assert_eq!(
            s,
            "host0 - sw0[p1] - sw1[p2] -> host1(ITB) - sw1[p1] - sw2[p2] -> host2"
        );
    }

    #[test]
    fn empty_segment_is_malformed() {
        let t = chain(2, 1);
        let r = SourceRoute {
            src: HostId(0),
            dst: HostId(1),
            segments: vec![Segment {
                from: HostId(0),
                to: HostId(1),
                hops: vec![],
            }],
        };
        assert!(!r.is_well_formed(&t));
    }

    #[test]
    fn fig6_loop_hop_is_wired() {
        let tb = fig6_testbed();
        // host1 -> sw0(p0:A) -> sw1(p4: loop) -> sw1(p2: host2).
        let r = SourceRoute::direct(
            tb.host1,
            tb.host2,
            vec![
                Hop::new(tb.sw0, 0),
                Hop::new(tb.sw1, 4),
                Hop::new(tb.sw1, 2),
            ],
        );
        assert!(r.is_well_formed(&tb.topo));
        assert_eq!(r.total_crossings(), 3);
    }

    #[test]
    fn inter_switch_links_excludes_host_tail() {
        let t = chain(3, 1);
        let r = SourceRoute::direct(
            HostId(0),
            HostId(2),
            vec![
                Hop::new(SwitchId(0), 1),
                Hop::new(SwitchId(1), 1),
                Hop::new(SwitchId(2), 2),
            ],
        );
        let links: Vec<_> = r.segments[0].inter_switch_links(&t).collect();
        assert_eq!(links.len(), 2);
    }
}
