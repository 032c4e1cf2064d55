//! Channel-dependency-graph deadlock analysis.
//!
//! Wormhole routing is deadlock-free iff the channel dependency graph (CDG)
//! induced by the route set is acyclic (Dally & Seitz). Vertices are
//! directed channels — one per link direction — and a route contributes an
//! edge between every pair of channels it holds consecutively. Ejecting a
//! packet into an in-transit buffer *breaks* the chain: segment boundaries
//! contribute no dependency, which is exactly the paper's argument for why
//! ITB segmentation keeps minimal routing deadlock-free.

use crate::path::SourceRoute;
use itb_topo::{LinkId, Node, Topology};
use std::borrow::Borrow;

/// A directed channel: `link` traversed leaving `from_a`-end (`true`) or
/// leaving the `b` end (`false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// The physical cable.
    pub link: LinkId,
    /// Direction flag: `true` = a→b, `false` = b→a.
    pub a_to_b: bool,
}

impl Channel {
    fn index(self) -> usize {
        self.link.idx() * 2 + usize::from(!self.a_to_b)
    }
}

/// The channel dependency graph of a route set.
#[derive(Debug)]
pub struct ChannelDepGraph {
    /// adjacency: edges[c] = channels depended on by c (c held while
    /// requesting them).
    edges: Vec<Vec<usize>>,
}

impl ChannelDepGraph {
    /// Build the CDG from every route in `routes`.
    pub fn build(
        topo: &Topology,
        routes: impl IntoIterator<Item = impl Borrow<SourceRoute>>,
    ) -> ChannelDepGraph {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); topo.num_links() * 2];
        for route in routes {
            for seg in &route.borrow().segments {
                // Channel sequence of this segment: host uplink, inter-switch
                // links, host downlink.
                let mut chain: Vec<Channel> = Vec::with_capacity(seg.hops.len() + 1);
                chain.push(directed(
                    topo,
                    topo.host_link(seg.from),
                    Node::Host(seg.from),
                ));
                for hop in &seg.hops {
                    let link = topo
                        .link_at(hop.switch, hop.out_port)
                        // detlint::allow(S001, routes produced by the planner use cabled ports)
                        .expect("route uses cabled ports");
                    chain.push(directed_from_port(
                        topo,
                        link,
                        Node::Switch(hop.switch),
                        hop.out_port,
                    ));
                }
                for w in chain.windows(2) {
                    let (from, to) = (w[0].index(), w[1].index());
                    if !edges[from].contains(&to) {
                        edges[from].push(to);
                    }
                }
            }
        }
        ChannelDepGraph { edges }
    }

    /// `true` when the CDG contains no cycle (deadlock-free route set).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Find one cycle if any exists (channel indices, for diagnostics).
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let n = self.edges.len();
        let mut mark = vec![Mark::White; n];
        // Iterative DFS with an explicit stack to survive big graphs.
        for start in 0..n {
            if mark[start] != Mark::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            mark[start] = Mark::Grey;
            let mut path = vec![start];
            while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
                if *ei < self.edges[v].len() {
                    let w = self.edges[v][*ei];
                    *ei += 1;
                    match mark[w] {
                        Mark::White => {
                            mark[w] = Mark::Grey;
                            stack.push((w, 0));
                            path.push(w);
                        }
                        Mark::Grey => {
                            // Cycle: slice of path from w onward.
                            let pos = path
                                .iter()
                                .position(|&x| x == w)
                                // detlint::allow(S001, w was drawn from path so position finds it)
                                .expect("w drawn from path");
                            return Some(path[pos..].to_vec());
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark[v] = Mark::Black;
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }

    /// Number of dependency edges (diagnostic).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Directed channel leaving `from` on `link`.
fn directed(topo: &Topology, link: LinkId, from: Node) -> Channel {
    let l = topo.link(link);
    Channel {
        link,
        a_to_b: l.a.node == from,
    }
}

/// Directed channel leaving a specific switch port (needed for self-loops,
/// where both ends share the node).
fn directed_from_port(
    topo: &Topology,
    link: LinkId,
    from: Node,
    port: itb_topo::PortIx,
) -> Channel {
    let l = topo.link(link);
    Channel {
        link,
        a_to_b: l.a.node == from && l.a.port == port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{Hop, SourceRoute};
    use crate::table::{RouteTable, RoutingPolicy};
    use itb_topo::builders::{random_irregular, ring, IrregularSpec};
    use itb_topo::{HostId, SwitchId, UpDown};

    #[test]
    fn updown_tables_are_deadlock_free() {
        for seed in 0..6 {
            let t = random_irregular(&IrregularSpec::evaluation_default(12, seed));
            let ud = UpDown::compute_default(&t);
            let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::UpDown).unwrap();
            let cdg = ChannelDepGraph::build(&t, tbl.iter());
            assert!(cdg.is_acyclic(), "seed {seed}: UD CDG has a cycle");
        }
    }

    #[test]
    fn itb_tables_are_deadlock_free() {
        for seed in 0..6 {
            let t = random_irregular(&IrregularSpec::evaluation_default(12, seed));
            let ud = UpDown::compute_default(&t);
            let tbl = RouteTable::compute(&t, &ud, RoutingPolicy::Itb).unwrap();
            let cdg = ChannelDepGraph::build(&t, tbl.iter());
            assert!(cdg.is_acyclic(), "seed {seed}: ITB CDG has a cycle");
        }
    }

    #[test]
    fn minimal_routing_without_itbs_can_deadlock() {
        // On a ring, minimal routing with no ITB segmentation creates the
        // classic cyclic dependency.
        let t = ring(4, 1);
        // Hand-build the 4 "go clockwise one hop then exit" + "go clockwise
        // two hops" routes that close the cycle around the ring.
        // Host i attaches to switch i at port 2; clockwise exit is port 1.
        let mk = |a: u16, b: u16| {
            let mut hops = Vec::new();
            let mut s = a;
            while s != b {
                hops.push(Hop::new(SwitchId(s), 1));
                s = (s + 1) % 4;
            }
            hops.push(Hop::new(SwitchId(b), 2));
            SourceRoute::direct(HostId(a), HostId(b), hops)
        };
        let routes = vec![mk(0, 2), mk(1, 3), mk(2, 0), mk(3, 1)];
        for r in &routes {
            assert!(r.is_well_formed(&t));
        }
        let cdg = ChannelDepGraph::build(&t, routes.iter());
        assert!(
            !cdg.is_acyclic(),
            "all-clockwise minimal ring routes must form a CDG cycle"
        );
        assert!(cdg.find_cycle().unwrap().len() >= 3);
    }

    #[test]
    fn itb_segmentation_breaks_the_ring_cycle() {
        // Same clockwise routes, but split each at its midpoint host: the
        // dependency chain is cut and the CDG becomes acyclic.
        let t = ring(4, 1);
        let mk_split = |a: u16, mid: u16, b: u16| {
            let seg = |from: u16, to: u16| {
                let mut hops = Vec::new();
                let mut s = from;
                while s != to {
                    hops.push(Hop::new(SwitchId(s), 1));
                    s = (s + 1) % 4;
                }
                hops.push(Hop::new(SwitchId(to), 2));
                hops
            };
            SourceRoute {
                src: HostId(a),
                dst: HostId(b),
                segments: vec![
                    crate::path::Segment {
                        from: HostId(a),
                        to: HostId(mid),
                        hops: seg(a, mid),
                    },
                    crate::path::Segment {
                        from: HostId(mid),
                        to: HostId(b),
                        hops: seg(mid, b),
                    },
                ],
            }
        };
        let routes = vec![
            mk_split(0, 1, 2),
            mk_split(1, 2, 3),
            mk_split(2, 3, 0),
            mk_split(3, 0, 1),
        ];
        for r in &routes {
            assert!(r.is_well_formed(&t));
        }
        let cdg = ChannelDepGraph::build(&t, routes.iter());
        assert!(cdg.is_acyclic(), "ITB segmentation must break the cycle");
    }

    #[test]
    fn empty_route_set_is_acyclic() {
        let t = ring(3, 1);
        let cdg = ChannelDepGraph::build(&t, std::iter::empty::<&SourceRoute>());
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.edge_count(), 0);
    }
}
