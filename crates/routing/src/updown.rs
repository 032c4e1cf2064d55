//! Shortest-path computation: plain minimal, up\*/down\*-legal, and
//! legalized with in-transit stops — one search over a port index.

use crate::path::{Hop, SourceRoute};
use crate::planner::{ItbHostSelection, Router};
use itb_sim::narrow;
use itb_topo::updown::Direction;
use itb_topo::{Endpoint, HostId, LinkId, Node, PortIx, SwitchId, Topology, UpDown};

/// Direction state carried along a path search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DirState {
    /// No inter-switch link traversed yet (just left the source host).
    Start,
    /// Last traversal was toward an up end.
    Up,
    /// Last traversal was away from an up end.
    Down,
}

impl DirState {
    /// Whether up\*/down\* allows the step into state `next`: never down
    /// then up.
    pub(crate) fn step_allowed(self, next: DirState) -> bool {
        !matches!((self, next), (DirState::Down, DirState::Up))
    }
    pub(crate) fn after(next: Direction) -> DirState {
        match next {
            Direction::Up => DirState::Up,
            Direction::Down => DirState::Down,
        }
    }
}

/// Search state index of `(s, d)`: three direction states per switch.
pub(crate) fn state(s: SwitchId, d: DirState) -> usize {
    s.idx() * 3 + d as usize
}

/// Inverse of [`state`].
pub(crate) fn unpack(state: usize) -> (SwitchId, DirState) {
    let d = match state % 3 {
        0 => DirState::Start,
        1 => DirState::Up,
        _ => DirState::Down,
    };
    (SwitchId(narrow(state / 3)), d)
}

/// Marks a switch a search has not reached.
pub(crate) const UNREACHED: usize = usize::MAX;

/// Where a switch port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Peer {
    /// Nothing is cabled to the port.
    Free,
    /// A host's NIC.
    Host(HostId),
    /// A switch (the same one over a self-loop cable), and the direction
    /// state a packet is in after crossing the cable.
    Switch(SwitchId, DirState),
}

/// Every switch's ports in port order, the hosts on each switch and every
/// host's attachment, gathered once per topology and orientation: the
/// searches, the in-transit host choice, a route's last hop and the
/// decoding of a header read it instead of walking the link table.
#[derive(Debug, Clone)]
pub(crate) struct PortIndex {
    /// `ports[start[s].0..start[s + 1].0]` are switch `s`'s ports and
    /// `hosts[start[s].1..start[s + 1].1]` the hosts on it, in port order.
    start: Vec<(usize, usize)>,
    ports: Vec<Peer>,
    hosts: Vec<HostId>,
    /// `attach[h]` is host `h`'s switch and port.
    attach: Vec<(SwitchId, PortIx)>,
}

impl PortIndex {
    /// The index of `topo`: a cable to a switch carries the up\*/down\*
    /// direction of leaving through it under `ud`.
    pub(crate) fn new(topo: &Topology, ud: &UpDown) -> Self {
        let n = topo.num_switches();
        let mut start = Vec::with_capacity(n + 1);
        let mut end = 0;
        for s in topo.switch_ids() {
            start.push((end, 0));
            end += topo.switch_port_count(s);
        }
        start.push((end, 0));
        // One pass over the cables: each switch end learns its far end. A
        // self-loop's two ends are two ports of the same switch.
        let mut ports = vec![Peer::Free; end];
        let mut attach = vec![(SwitchId(0), PortIx(0)); topo.num_hosts()];
        let mut wire = |link: LinkId, near: Endpoint, far: Endpoint| {
            let Node::Switch(s) = near.node else {
                return;
            };
            ports[start[s.idx()].0 + near.port.idx()] = match far.node {
                Node::Host(h) => {
                    attach[h.idx()] = (s, near.port);
                    Peer::Host(h)
                }
                Node::Switch(next) => Peer::Switch(
                    next,
                    DirState::after(ud.direction_from(topo, link, s, near.port)),
                ),
            };
        };
        for link in topo.link_ids() {
            let l = topo.link(link);
            wire(link, l.a, l.b);
            wire(link, l.b, l.a);
        }
        let mut hosts = Vec::with_capacity(topo.num_hosts());
        for s in 0..n {
            start[s].1 = hosts.len();
            for &peer in &ports[start[s].0..start[s + 1].0] {
                if let Peer::Host(h) = peer {
                    hosts.push(h);
                }
            }
        }
        start[n].1 = hosts.len();
        assert_eq!(hosts.len(), topo.num_hosts(), "validated hosts are wired");
        PortIndex {
            start,
            ports,
            hosts,
            attach,
        }
    }

    pub(crate) fn num_switches(&self) -> usize {
        self.start.len() - 1
    }

    /// Switch `s`'s ports, in port order.
    fn ports(&self, s: SwitchId) -> &[Peer] {
        &self.ports[self.start[s.idx()].0..self.start[s.idx() + 1].0]
    }

    /// Where port `port` of switch `s` leads; [`Peer::Free`] past its last
    /// port.
    pub(crate) fn peer(&self, s: SwitchId, port: PortIx) -> Peer {
        self.ports(s).get(port.idx()).copied().unwrap_or(Peer::Free)
    }

    /// The hosts on switch `s`, in port order.
    pub(crate) fn hosts_at(&self, s: SwitchId) -> &[HostId] {
        &self.hosts[self.start[s.idx()].1..self.start[s.idx() + 1].1]
    }

    /// The switch and port host `h` hangs off.
    pub(crate) fn attachment(&self, h: HostId) -> (SwitchId, PortIx) {
        self.attach[h.idx()]
    }
}

/// Shortest up\*/down\*-legal route between two hosts, or `None` when the
/// hosts coincide. Up\*/down\* is connected (every pair is reachable via the
/// spanning tree), so a route always exists for distinct hosts.
///
/// Exploration follows ascending port order, so the result is a
/// deterministic function of the wiring — mirroring the deterministic route
/// choice of the GM mapper.
///
/// This prepares a [`Router`] for the one route; a loop over pairs builds
/// one `Router` and asks it for each.
pub fn shortest_updown(
    topo: &Topology,
    ud: &UpDown,
    src: HostId,
    dst: HostId,
) -> Option<SourceRoute> {
    Router::new(topo, ud, ItbHostSelection::First).updown(src, dst)
}

/// Which turns a search may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Up\*/down\* only: never down then up.
    UpDown,
    /// A down→up turn too, at a switch with a host to stop at, for one
    /// more in-transit stop.
    Itb,
    /// Every turn: the plain minimal path, legality ignored.
    Any,
}

/// How a search state was first reached at its best cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reached {
    /// *(inter-switch links, in-transit stops)* from the source.
    pub(crate) cost: (u32, u32),
    /// The state before, the hop out of it, and whether the packet stops
    /// at an in-transit host before that hop; `None` at the source.
    pub(crate) from: Option<(usize, Hop, bool)>,
}

/// The route search over `(switch, dir)` states from one source switch,
/// in ascending port order, with cost *(inter-switch links, in-transit
/// stops)* and first-pushed-first-popped ties. The [`Mode`] says which
/// turns it takes: [`Mode::UpDown`] and [`Mode::Any`] are breadth-first
/// searches, and only [`Mode::Itb`] takes a down→up turn, for one more
/// stop. The result depends on the source switch and mode only, and the
/// buffers are reused from run to run.
///
/// [`Mode::Any`] runs on the oriented index too: a switch's second
/// direction state pushes exactly the `(next, after)` states its first one
/// pushed, at no lower cost, so it adds nothing to the first one's routes.
///
/// Every edge costs one link and zero or one stop, so the states of one
/// link count are popped before any of the next, and a level is fed by two
/// first-in-first-out queues: pushes without a stop and pushes with one.
/// Within a level, pops come in stop order, so each queue arrives sorted
/// by *(stops, push order)*; and a push with a stop to `k` stops came from
/// a `k - 1`-stop state, popped before every `k`-stop state, so it precedes
/// every stopless push to `k` stops. Popping the stop queue's front unless
/// the other front has fewer stops is therefore the pop order of one
/// priority queue on *(cost, push order)*. A state whose cost improved
/// after it was pushed is skipped when its stale entry comes up.
#[derive(Debug, Default)]
pub(crate) struct SwitchSearch {
    /// Per state: best cost so far and how it was reached.
    pub(crate) reached: Vec<Reached>,
    /// First state popped on each switch, or [`UNREACHED`].
    pub(crate) settled: Vec<usize>,
    /// Pushes without and with an in-transit stop, as `(state, stops)`.
    plain: Vec<(usize, u32)>,
    stopped: Vec<(usize, u32)>,
}

impl SwitchSearch {
    /// Search every switch from `src_sw`.
    pub(crate) fn run(&mut self, index: &PortIndex, mode: Mode, src_sw: SwitchId) {
        let states = index.num_switches() * 3;
        let unreached = Reached {
            cost: (u32::MAX, u32::MAX),
            from: None,
        };
        self.reached.clear();
        self.reached.resize(states, unreached);
        self.settled.clear();
        self.settled.resize(index.num_switches(), UNREACHED);
        // A state is reached at one link count only, by at most one push
        // of each kind there, so neither queue outgrows `states`; a search
        // without stops pushes none with one.
        self.plain.clear();
        self.plain.reserve(states);
        self.stopped.clear();
        if mode == Mode::Itb {
            self.stopped.reserve(states);
        }

        let start = state(src_sw, DirState::Start);
        self.reached[start].cost = (0, 0);
        self.plain.push((start, 0));
        // Read positions and the ends of the current level in both queues.
        let (mut p, mut q, mut p_end, mut q_end) = (0, 0, 1, 0);
        let mut links = 0;
        loop {
            let (st, stops) = if p < p_end && (q == q_end || self.plain[p].1 < self.stopped[q].1) {
                p += 1;
                self.plain[p - 1]
            } else if q < q_end {
                q += 1;
                self.stopped[q - 1]
            } else if p_end < self.plain.len() || q_end < self.stopped.len() {
                links += 1;
                (p_end, q_end) = (self.plain.len(), self.stopped.len());
                continue;
            } else {
                break;
            };
            let cost = (links, stops);
            if cost > self.reached[st].cost {
                continue;
            }
            let (s, d) = unpack(st);
            if self.settled[s.idx()] == UNREACHED {
                self.settled[s.idx()] = st;
            }
            for (port, &peer) in index.ports(s).iter().enumerate() {
                let Peer::Switch(next, after) = peer else {
                    continue;
                };
                // A forbidden down→up turn needs an in-transit host here.
                let needs_itb = mode != Mode::Any && !d.step_allowed(after);
                if needs_itb && (mode != Mode::Itb || index.hosts_at(s).is_empty()) {
                    continue;
                }
                let ncost = (links + 1, stops + u32::from(needs_itb));
                let nst = state(next, after);
                if ncost < self.reached[nst].cost {
                    let hop = Hop {
                        switch: s,
                        out_port: PortIx(narrow(port)),
                    };
                    self.reached[nst] = Reached {
                        cost: ncost,
                        from: Some((st, hop, needs_itb)),
                    };
                    let queue = if needs_itb {
                        &mut self.stopped
                    } else {
                        &mut self.plain
                    };
                    queue.push((nst, ncost.1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::route_links;
    use itb_topo::builders::{chain, fig6_testbed, random_irregular, ring, IrregularSpec};
    use itb_topo::{HostId, SpanningTree};

    fn router(t: &Topology, ud: &UpDown) -> Router {
        Router::new(t, ud, ItbHostSelection::First)
    }

    #[test]
    fn chain_routes_are_minimal_and_legal() {
        let t = chain(4, 1);
        let ud = UpDown::compute_default(&t);
        // Trees have no forbidden turns: UD route == minimal route.
        let r = shortest_updown(&t, &ud, HostId(0), HostId(3)).unwrap();
        assert_eq!(r.total_crossings(), 4);
        assert!(r.is_well_formed(&t));
        let m = router(&t, &ud).any(HostId(0), HostId(3)).unwrap();
        assert_eq!(m.total_crossings(), 4);
    }

    #[test]
    fn same_host_has_no_route() {
        let t = chain(2, 1);
        let ud = UpDown::compute_default(&t);
        assert!(shortest_updown(&t, &ud, HostId(0), HostId(0)).is_none());
        assert!(router(&t, &ud).any(HostId(0), HostId(0)).is_none());
    }

    #[test]
    fn same_switch_pair_is_one_crossing() {
        let t = chain(2, 2); // two hosts per switch
        let ud = UpDown::compute_default(&t);
        // hosts 0 and 1 share switch 0.
        let (s0, _) = t.host_attachment(HostId(0));
        let (s1, _) = t.host_attachment(HostId(1));
        assert_eq!(s0, s1);
        let r = shortest_updown(&t, &ud, HostId(0), HostId(1)).unwrap();
        assert_eq!(r.total_crossings(), 1);
        assert!(r.is_well_formed(&t));
    }

    #[test]
    fn ring_updown_takes_detour() {
        // In a 6-ring rooted anywhere, the two "bottom" switches opposite
        // the root cannot use their direct link for some pairs: the minimal
        // route is forbidden and up*/down* detours.
        let t = ring(6, 1);
        let tree = SpanningTree::compute(&t, SwitchId(0));
        let ud = UpDown::compute(&t, tree);
        let mut router = router(&t, &ud);
        let mut detours = 0;
        for a in 0..6u16 {
            for b in 0..6u16 {
                if a == b {
                    continue;
                }
                let udr = router.updown(HostId(a), HostId(b)).unwrap();
                let min = router.any(HostId(a), HostId(b)).unwrap();
                assert!(udr.is_well_formed(&t));
                assert!(udr.total_crossings() >= min.total_crossings());
                if udr.total_crossings() > min.total_crossings() {
                    detours += 1;
                }
            }
        }
        assert!(
            detours > 0,
            "a 6-ring must force some non-minimal UD routes"
        );
    }

    #[test]
    fn updown_routes_obey_rule_on_random_networks() {
        for seed in 0..5 {
            let t = random_irregular(&IrregularSpec::evaluation_default(12, seed));
            let ud = UpDown::compute_default(&t);
            let mut router = router(&t, &ud);
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(5) {
                for &b in hosts.iter().step_by(7) {
                    if a == b {
                        continue;
                    }
                    let r = router.updown(a, b).expect("up*/down* is connected");
                    assert!(r.is_well_formed(&t), "{a:?}->{b:?} seed {seed}");
                    assert_updown_legal(&t, &ud, &r);
                }
            }
        }
    }

    /// Asserts every segment of `r` obeys the up*/down* rule.
    fn assert_updown_legal(t: &Topology, ud: &UpDown, r: &SourceRoute) {
        for seg in &r.segments {
            let mut state = DirState::Start;
            for hop in &seg.hops[..seg.hops.len() - 1] {
                let link = t.link_at(hop.switch, hop.out_port).unwrap();
                let dir = ud.direction_from(t, link, hop.switch, hop.out_port);
                assert!(
                    state.step_allowed(DirState::after(dir)),
                    "down->up violation at {} in {r:?}",
                    hop.switch
                );
                state = DirState::after(dir);
            }
        }
    }

    #[test]
    fn fig6_direct_route() {
        let tb = fig6_testbed();
        let ud = UpDown::compute_default(&tb.topo);
        let r = shortest_updown(&tb.topo, &ud, tb.host1, tb.host2).unwrap();
        // host1 -> sw0 -> sw1 -> host2: 2 crossings.
        assert_eq!(r.total_crossings(), 2);
    }

    /// The search the level queues replaced: one binary heap on *(cost,
    /// push order)*. Returns every state's cost and `from`, and the state
    /// settled on each switch.
    fn heap_search(index: &PortIndex, mode: Mode, src_sw: SwitchId) -> (Vec<Reached>, Vec<usize>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let unreached = Reached {
            cost: (u32::MAX, u32::MAX),
            from: None,
        };
        let mut reached = vec![unreached; index.num_switches() * 3];
        let mut settled = vec![UNREACHED; index.num_switches()];
        let mut heap = BinaryHeap::new();
        let start = state(src_sw, DirState::Start);
        reached[start].cost = (0, 0);
        heap.push(Reverse(((0, 0), 0u64, start)));
        let mut seq = 0;
        while let Some(Reverse((cost, _, st))) = heap.pop() {
            if cost > reached[st].cost {
                continue;
            }
            let (s, d) = unpack(st);
            if settled[s.idx()] == UNREACHED {
                settled[s.idx()] = st;
            }
            for (port, &peer) in index.ports(s).iter().enumerate() {
                let Peer::Switch(next, after) = peer else {
                    continue;
                };
                let needs_itb = mode != Mode::Any && !d.step_allowed(after);
                if needs_itb && (mode != Mode::Itb || index.hosts_at(s).is_empty()) {
                    continue;
                }
                let ncost = (cost.0 + 1, cost.1 + u32::from(needs_itb));
                let nst = state(next, after);
                if ncost < reached[nst].cost {
                    let hop = Hop::new(s, port as u8);
                    reached[nst] = Reached {
                        cost: ncost,
                        from: Some((st, hop, needs_itb)),
                    };
                    seq += 1;
                    heap.push(Reverse((ncost, seq, nst)));
                }
            }
        }
        (reached, settled)
    }

    fn search_fabrics() -> Vec<Topology> {
        let mut fabrics = vec![ring(8, 2), ring(9, 1), chain(5, 2)];
        for (switches, seed) in [(12, 1), (16, 3), (32, 7), (64, 2)] {
            fabrics.push(random_irregular(&IrregularSpec::evaluation_default(
                switches, seed,
            )));
        }
        fabrics
    }

    #[test]
    fn level_queues_pop_in_heap_order() {
        let mut search = SwitchSearch::default();
        for t in &search_fabrics() {
            let index = PortIndex::new(t, &UpDown::compute_default(t));
            for mode in [Mode::Itb, Mode::UpDown, Mode::Any] {
                for src in t.switch_ids() {
                    search.run(&index, mode, src);
                    let (reached, settled) = heap_search(&index, mode, src);
                    let fields =
                        |r: &[Reached]| r.iter().map(|r| (r.cost, r.from)).collect::<Vec<_>>();
                    assert_eq!(fields(&search.reached), fields(&reached), "{src} {mode:?}");
                    assert_eq!(search.settled, settled, "{src} {mode:?}");
                }
            }
        }
    }

    /// Breadth-first switch distances from `src` over the cabling alone.
    fn bfs_distances(t: &Topology, src: SwitchId) -> Vec<Option<usize>> {
        let mut dist = vec![None; t.num_switches()];
        dist[src.idx()] = Some(0);
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(s) = queue.pop_front() {
            let next = dist[s.idx()].map(|d| d + 1);
            for (_, _, n) in t.switch_neighbors(s) {
                if dist[n.idx()].is_none() {
                    dist[n.idx()] = next;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    #[test]
    fn any_links_are_breadth_first_distances() {
        for t in &search_fabrics() {
            let ud = UpDown::compute_default(t);
            let mut router = router(t, &ud);
            // One host per switch: every fabric here hosts on each one.
            let hosts: Vec<HostId> = t
                .switch_ids()
                .map(|s| t.hosts_on(s).next().unwrap())
                .collect();
            for &a in &hosts {
                let dist = bfs_distances(t, t.host_attachment(a).0);
                for &b in &hosts {
                    let want = dist[t.host_attachment(b).0.idx()];
                    assert_eq!(router.min_links(a, b), want, "{a}->{b}");
                    if a != b {
                        let r = router.any(a, b).unwrap();
                        assert_eq!(Some(route_links(&r)), want, "{a}->{b}");
                        assert!(r.is_well_formed(t));
                    }
                }
            }
        }
    }
}
