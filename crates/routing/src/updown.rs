//! Shortest-path computation: plain minimal and up\*/down\*-legal.

use crate::path::{Hop, SourceRoute};
use itb_sim::narrow;
use itb_topo::updown::Direction;
use itb_topo::{HostId, SwitchId, Topology, UpDown};
use std::collections::VecDeque;

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
    /// Whether up\*/down\* allows the step: never down then up.
    pub(crate) fn step_allowed(self, next: Direction) -> bool {
        !matches!((self, next), (DirState::Down, Direction::Up))
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

/// Shortest up\*/down\*-legal route between two hosts, or `None` when the
/// hosts coincide. Up\*/down\* is connected (every pair is reachable via the
/// spanning tree), so a route always exists for distinct hosts.
///
/// Exploration follows ascending port order, so the result is a
/// deterministic function of the wiring — mirroring the deterministic route
/// choice of the GM mapper.
pub fn shortest_updown(
    topo: &Topology,
    ud: &UpDown,
    src: HostId,
    dst: HostId,
) -> Option<SourceRoute> {
    direct_route(topo, Some(ud), src, dst)
}

/// Shortest route ignoring up\*/down\* legality (minimal routing).
pub fn shortest_any(topo: &Topology, src: HostId, dst: HostId) -> Option<SourceRoute> {
    direct_route(topo, None, src, dst)
}

/// Minimal number of switch crossings between two hosts, ignoring legality.
pub fn min_crossings(topo: &Topology, src: HostId, dst: HostId) -> Option<usize> {
    shortest_any(topo, src, dst).map(|r| r.total_crossings())
}

/// One early-exit search from `src`'s switch toward `dst`'s.
fn direct_route(
    topo: &Topology,
    ud: Option<&UpDown>,
    src: HostId,
    dst: HostId,
) -> Option<SourceRoute> {
    if src == dst {
        return None;
    }
    let mut tree = BfsTree::default();
    let stop = topo.host_attachment(dst).0;
    tree.run(topo, ud, topo.host_attachment(src).0, Some(stop));
    tree.route(topo, src, dst)
}

/// Breadth-first search over `(switch, dir)` states from one source switch,
/// in ascending port order; with `ud` given, down→up transitions are
/// forbidden. The buffers are reused from run to run.
///
/// A state's `prev` is fixed when the state is first enqueued, so the first
/// state dequeued on a switch roots the same hop list whether the search
/// stopped there or ran on: one full search from a source switch serves
/// every destination.
#[derive(Debug, Default)]
pub(crate) struct BfsTree {
    /// `prev[state] = (prev_state, hop taken to get here)`.
    prev: Vec<Option<(usize, Hop)>>,
    /// Inter-switch links from the source per state; `u32::MAX` while
    /// unvisited.
    dist: Vec<u32>,
    /// First state dequeued on each switch, or [`UNREACHED`].
    first: Vec<usize>,
    queue: VecDeque<usize>,
}

impl BfsTree {
    /// Search from `src_sw`; with `stop`, end at the first state dequeued on
    /// that switch.
    pub(crate) fn run(
        &mut self,
        topo: &Topology,
        ud: Option<&UpDown>,
        src_sw: SwitchId,
        stop: Option<SwitchId>,
    ) {
        let n = topo.num_switches();
        self.prev.clear();
        self.prev.resize(n * 3, None);
        self.dist.clear();
        self.dist.resize(n * 3, u32::MAX);
        self.first.clear();
        self.first.resize(n, UNREACHED);
        self.queue.clear();

        let start = state(src_sw, DirState::Start);
        self.dist[start] = 0;
        self.queue.push_back(start);
        while let Some(st) = self.queue.pop_front() {
            let (s, d) = unpack(st);
            if self.first[s.idx()] == UNREACHED {
                self.first[s.idx()] = st;
            }
            if stop == Some(s) {
                break;
            }
            for (port, link, nbr) in topo.switch_neighbors(s) {
                let next_d = match ud {
                    Some(ud) => {
                        let dir = ud.direction_from(topo, link, s, port);
                        if !d.step_allowed(dir) {
                            continue;
                        }
                        DirState::after(dir)
                    }
                    None => DirState::Start, // single state when unconstrained
                };
                let ni = state(nbr, next_d);
                if self.dist[ni] == u32::MAX {
                    self.dist[ni] = self.dist[st] + 1;
                    self.prev[ni] = Some((
                        st,
                        Hop {
                            switch: s,
                            out_port: port,
                        },
                    ));
                    self.queue.push_back(ni);
                }
            }
        }
    }

    /// Inter-switch links on the path to switch `sw`.
    pub(crate) fn links_to(&self, sw: SwitchId) -> Option<usize> {
        let goal = self.first[sw.idx()];
        (goal != UNREACHED).then(|| self.dist[goal] as usize)
    }

    /// The route from `src` (on the searched switch) to `dst`, ending with
    /// the hop out to `dst`'s host link. A host link carries no up/down
    /// orientation, so that hop is allowed from any direction state.
    pub(crate) fn route(&self, topo: &Topology, src: HostId, dst: HostId) -> Option<SourceRoute> {
        let (dst_sw, dst_port) = topo.host_attachment(dst);
        let links = self.links_to(dst_sw)?;
        let mut hops = Vec::with_capacity(links + 1);
        hops.push(Hop {
            switch: dst_sw,
            out_port: dst_port,
        });
        let mut cur = self.first[dst_sw.idx()];
        while let Some((p, hop)) = self.prev[cur] {
            hops.push(hop);
            cur = p;
        }
        hops.reverse();
        Some(SourceRoute::direct(src, dst, hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_topo::builders::{chain, fig6_testbed, random_irregular, ring, IrregularSpec};
    use itb_topo::{HostId, SpanningTree};

    #[test]
    fn chain_routes_are_minimal_and_legal() {
        let t = chain(4, 1);
        let ud = UpDown::compute_default(&t);
        // Trees have no forbidden turns: UD route == minimal route.
        let r = shortest_updown(&t, &ud, HostId(0), HostId(3)).unwrap();
        assert_eq!(r.total_crossings(), 4);
        assert!(r.is_well_formed(&t));
        let m = shortest_any(&t, HostId(0), HostId(3)).unwrap();
        assert_eq!(m.total_crossings(), 4);
    }

    #[test]
    fn same_host_has_no_route() {
        let t = chain(2, 1);
        let ud = UpDown::compute_default(&t);
        assert!(shortest_updown(&t, &ud, HostId(0), HostId(0)).is_none());
        assert!(shortest_any(&t, HostId(0), HostId(0)).is_none());
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
        let mut detours = 0;
        for a in 0..6u16 {
            for b in 0..6u16 {
                if a == b {
                    continue;
                }
                let udr = shortest_updown(&t, &ud, HostId(a), HostId(b)).unwrap();
                let min = shortest_any(&t, HostId(a), HostId(b)).unwrap();
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
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(5) {
                for &b in hosts.iter().step_by(7) {
                    if a == b {
                        continue;
                    }
                    let r = shortest_updown(&t, &ud, a, b).expect("up*/down* is connected");
                    assert!(r.is_well_formed(&t), "{a:?}->{b:?} seed {seed}");
                    assert_updown_legal(&t, &ud, &r);
                }
            }
        }
    }

    /// Asserts every segment of `r` obeys the up*/down* rule.
    pub(crate) fn assert_updown_legal(t: &Topology, ud: &UpDown, r: &SourceRoute) {
        for seg in &r.segments {
            let mut state = DirState::Start;
            for hop in &seg.hops[..seg.hops.len() - 1] {
                let link = t.link_at(hop.switch, hop.out_port).unwrap();
                let dir = ud.direction_from(t, link, hop.switch, hop.out_port);
                assert!(
                    state.step_allowed(dir),
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

    #[test]
    fn min_crossings_matches_shortest_any() {
        let t = ring(5, 1);
        assert_eq!(
            min_crossings(&t, HostId(0), HostId(2)),
            Some(
                shortest_any(&t, HostId(0), HostId(2))
                    .unwrap()
                    .total_crossings()
            )
        );
    }
}
