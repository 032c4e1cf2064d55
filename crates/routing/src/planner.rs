//! The In-Transit Buffer route planner.
//!
//! The ITB mechanism legalizes minimal paths under up\*/down\*: wherever a
//! minimal path needs a forbidden down→up turn at a switch, the packet is
//! ejected to a host on that switch (the *in-transit host*) and re-injected,
//! splitting the path into up\*/down\*-legal segments (paper §1, Figure 1).
//!
//! The planner searches the switch graph with a lexicographic cost
//! *(inter-switch links, ITBs)*: it returns a route of minimal length that
//! uses as few in-transit buffers as possible, inserting one only where a
//! forbidden turn actually occurs and only at switches that have a host to
//! eject through. When no minimal path can be legalized (no host at any
//! violating switch of any minimal path), the search transparently falls
//! back to longer paths — in the worst case the pure up\*/down\* route, so
//! the planned route is never longer than the up\*/down\* one.

use crate::path::{Hop, Segment, SourceRoute};
use crate::updown::{state, unpack, DirState, UNREACHED};
use itb_topo::{HostId, SwitchId, Topology, UpDown};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the planner picks the in-transit host when a switch has several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItbHostSelection {
    /// Always the lowest-numbered host (fully deterministic, used in tests).
    #[default]
    First,
    /// Rotate across the switch's hosts route by route, spreading the
    /// ejection/re-injection load — the balance-aware choice the follow-up
    /// papers recommend.
    RoundRobin,
}

/// Errors from [`ItbPlanner::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// Source and destination are the same host.
    SameHost(HostId),
    /// No path exists (cannot happen on a validated, connected topology).
    Unreachable {
        /// Requested source.
        src: HostId,
        /// Requested destination.
        dst: HostId,
    },
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::SameHost(h) => write!(f, "source and destination are both {h}"),
            PlannerError::Unreachable { src, dst } => {
                write!(f, "no path from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// Hosts on every switch, in port order, gathered once per topology so
/// neither the search nor the in-transit host choice allocates.
#[derive(Debug)]
pub(crate) struct SwitchHosts {
    /// `hosts[start[s]..start[s + 1]]` hang off switch `s`.
    start: Vec<usize>,
    hosts: Vec<HostId>,
}

impl SwitchHosts {
    pub(crate) fn new(topo: &Topology) -> Self {
        let mut start = Vec::with_capacity(topo.num_switches() + 1);
        let mut hosts = Vec::with_capacity(topo.num_hosts());
        start.push(0);
        for s in topo.switch_ids() {
            hosts.extend(topo.hosts_on(s));
            start.push(hosts.len());
        }
        SwitchHosts { start, hosts }
    }

    fn at(&self, s: SwitchId) -> &[HostId] {
        &self.hosts[self.start[s.idx()]..self.start[s.idx() + 1]]
    }
}

/// `(cost=(links, itbs), fifo tie-break, state index)`.
type HeapEntry = Reverse<((u32, u32), u64, usize)>;

/// Dijkstra over `(switch, dir)` states from one source switch, with cost
/// *(links, itbs)* and a FIFO tie-break. The result depends on the source
/// switch only, and the buffers are reused from run to run.
///
/// Once a state is popped its `prev` never changes: every edge costs at
/// least one link, so later pops carry strictly larger costs. The first
/// state popped on a switch therefore roots the same hop list whether the
/// search stopped there or ran on, and one full search from a source switch
/// serves every destination an early-exit search toward it would.
#[derive(Debug, Default)]
pub(crate) struct ItbSearch {
    best: Vec<(u32, u32)>,
    /// `prev[state] = (prev_state, hop, itb_inserted_before_hop)`.
    prev: Vec<Option<(usize, Hop, bool)>>,
    /// First state popped on each switch, or [`UNREACHED`].
    settled: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
}

impl ItbSearch {
    /// Search from `src_sw`; with `stop`, end at the first state popped on
    /// that switch.
    pub(crate) fn run(
        &mut self,
        topo: &Topology,
        ud: &UpDown,
        hosts: &SwitchHosts,
        src_sw: SwitchId,
        stop: Option<SwitchId>,
    ) {
        const INF: (u32, u32) = (u32::MAX, u32::MAX);
        let n = topo.num_switches();
        self.best.clear();
        self.best.resize(n * 3, INF);
        self.prev.clear();
        self.prev.resize(n * 3, None);
        self.settled.clear();
        self.settled.resize(n, UNREACHED);
        self.heap.clear();

        let mut seq = 0u64;
        let start = state(src_sw, DirState::Start);
        self.best[start] = (0, 0);
        self.heap.push(Reverse(((0, 0), seq, start)));
        while let Some(Reverse((cost, _, st))) = self.heap.pop() {
            if cost > self.best[st] {
                continue;
            }
            let (s, d) = unpack(st);
            if self.settled[s.idx()] == UNREACHED {
                self.settled[s.idx()] = st;
            }
            if stop == Some(s) {
                break;
            }
            for (port, link, nbr) in topo.switch_neighbors(s) {
                let dir = ud.direction_from(topo, link, s, port);
                // A forbidden down→up turn needs an in-transit host here.
                let needs_itb = !d.step_allowed(dir);
                if needs_itb && hosts.at(s).is_empty() {
                    continue;
                }
                let ncost = (cost.0 + 1, cost.1 + u32::from(needs_itb));
                let nstate = state(nbr, DirState::after(dir));
                if ncost < self.best[nstate] {
                    self.best[nstate] = ncost;
                    self.prev[nstate] = Some((
                        st,
                        Hop {
                            switch: s,
                            out_port: port,
                        },
                        needs_itb,
                    ));
                    seq += 1;
                    self.heap.push(Reverse((ncost, seq, nstate)));
                }
            }
        }
    }
}

/// The ITB route planner. Holds round-robin state, so reuse one instance
/// while computing a whole route table.
#[derive(Debug)]
pub struct ItbPlanner {
    selection: ItbHostSelection,
    /// Per-switch rotation cursor for [`ItbHostSelection::RoundRobin`].
    rr_cursor: Vec<usize>,
    /// Scratch: the hop list being assembled, with ITB markers.
    path: Vec<(Hop, bool)>,
}

impl ItbPlanner {
    /// Planner with the given host-selection policy.
    pub fn new(selection: ItbHostSelection) -> Self {
        ItbPlanner {
            selection,
            rr_cursor: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Compute the minimal-with-ITBs route from `src` to `dst`.
    ///
    /// ```
    /// use itb_routing::planner::{ItbHostSelection, ItbPlanner};
    /// use itb_topo::{builders::ring, HostId, UpDown};
    ///
    /// let topo = ring(8, 1);
    /// let ud = UpDown::compute_default(&topo);
    /// let mut planner = ItbPlanner::new(ItbHostSelection::First);
    /// let route = planner.route(&topo, &ud, HostId(0), HostId(4)).unwrap();
    /// // Minimal half-way path on an 8-ring: 4 links; up*/down* would detour.
    /// assert!(route.is_well_formed(&topo));
    /// assert_eq!(route.total_crossings(), 5 + route.itb_count());
    /// ```
    pub fn route(
        &mut self,
        topo: &Topology,
        ud: &UpDown,
        src: HostId,
        dst: HostId,
    ) -> Result<SourceRoute, PlannerError> {
        if src == dst {
            return Err(PlannerError::SameHost(src));
        }
        let hosts = SwitchHosts::new(topo);
        let mut search = ItbSearch::default();
        let stop = topo.host_attachment(dst).0;
        search.run(topo, ud, &hosts, topo.host_attachment(src).0, Some(stop));
        self.assemble(topo, &hosts, &search, src, dst)
    }

    /// Read the route `src → dst` out of `search`, which ran from `src`'s
    /// switch, and split it into segments at the ITB markers. In-transit
    /// hosts are picked in hop order.
    pub(crate) fn assemble(
        &mut self,
        topo: &Topology,
        hosts: &SwitchHosts,
        search: &ItbSearch,
        src: HostId,
        dst: HostId,
    ) -> Result<SourceRoute, PlannerError> {
        if self.rr_cursor.len() < topo.num_switches() {
            self.rr_cursor.resize(topo.num_switches(), 0);
        }
        let (dst_sw, dst_port) = topo.host_attachment(dst);
        let goal = search.settled[dst_sw.idx()];
        if goal == UNREACHED {
            return Err(PlannerError::Unreachable { src, dst });
        }
        let path = &mut self.path;
        path.clear();
        let mut cur = goal;
        while let Some((p, hop, itb)) = search.prev[cur] {
            path.push((hop, itb));
            cur = p;
        }
        path.reverse();

        // A segment runs from its first hop up to the next ITB marker (the
        // first hop of a route never carries one). Both Vecs are sized
        // exactly: a table keeps every one of them.
        let mut segments = Vec::with_capacity(search.best[goal].1 as usize + 1);
        let mut from = src;
        let mut first = 0;
        loop {
            let end = (first + 1..path.len())
                .find(|&k| path[k].1)
                .unwrap_or(path.len());
            let mut hops = Vec::with_capacity(end - first + 1);
            hops.extend(path[first..end].iter().map(|&(hop, _)| hop));
            let Some(&(itb_hop, _)) = path.get(end) else {
                hops.push(Hop {
                    switch: dst_sw,
                    out_port: dst_port,
                });
                segments.push(Segment {
                    from,
                    to: dst,
                    hops,
                });
                return Ok(SourceRoute { src, dst, segments });
            };
            let host = select_itb_host(
                self.selection,
                &mut self.rr_cursor,
                hosts.at(itb_hop.switch),
                itb_hop.switch,
            );
            hops.push(Hop {
                switch: itb_hop.switch,
                out_port: topo.host_attachment(host).1,
            });
            segments.push(Segment {
                from,
                to: host,
                hops,
            });
            from = host;
            first = end;
        }
    }
}

/// Pick the in-transit host among `hosts` (those on switch `s`) per the
/// selection policy.
fn select_itb_host(
    selection: ItbHostSelection,
    rr_cursor: &mut [usize],
    hosts: &[HostId],
    s: SwitchId,
) -> HostId {
    debug_assert!(!hosts.is_empty(), "planner only breaks at hosted switches");
    match selection {
        ItbHostSelection::First => hosts[0],
        ItbHostSelection::RoundRobin => {
            let cur = &mut rr_cursor[s.idx()];
            let h = hosts[*cur % hosts.len()];
            *cur = (*cur + 1) % hosts.len();
            h
        }
    }
}

impl Default for ItbPlanner {
    fn default() -> Self {
        Self::new(ItbHostSelection::First)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updown::{min_crossings, shortest_any, shortest_updown};
    use itb_topo::builders::{chain, random_irregular, ring, IrregularSpec};
    use itb_topo::updown::Direction;
    use itb_topo::SpanningTree;

    fn assert_segments_legal(topo: &Topology, ud: &UpDown, r: &SourceRoute) {
        for seg in &r.segments {
            let mut last: Option<Direction> = None;
            for hop in &seg.hops[..seg.hops.len() - 1] {
                let link = topo.link_at(hop.switch, hop.out_port).unwrap();
                let dir = ud.direction_from(topo, link, hop.switch, hop.out_port);
                if let Some(Direction::Down) = last {
                    assert_ne!(dir, Direction::Up, "segment violates up*/down*: {r:?}");
                }
                last = Some(dir);
            }
        }
    }

    #[test]
    fn tree_topology_needs_no_itbs() {
        let t = chain(5, 1);
        let ud = UpDown::compute_default(&t);
        let mut p = ItbPlanner::default();
        let r = p.route(&t, &ud, HostId(0), HostId(4)).unwrap();
        assert_eq!(r.itb_count(), 0);
        assert_eq!(r.total_crossings(), 5);
        assert!(r.is_well_formed(&t));
    }

    #[test]
    fn ring_gets_minimal_routes_with_itbs() {
        let t = ring(8, 1);
        let tree = SpanningTree::compute(&t, SwitchId(0));
        let ud = UpDown::compute(&t, tree);
        let mut p = ItbPlanner::default();
        let mut used_itb = false;
        for a in 0..8u16 {
            for b in 0..8u16 {
                if a == b {
                    continue;
                }
                let r = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
                assert!(r.is_well_formed(&t));
                assert_segments_legal(&t, &ud, &r);
                // Minimal link count: inter-switch links = min distance.
                let min_links = shortest_any(&t, HostId(a), HostId(b))
                    .unwrap()
                    .total_crossings()
                    - 1;
                let links: usize =
                    r.segments.iter().map(|s| s.hops.len()).sum::<usize>() - 1 - r.itb_count(); // each ITB adds one extra crossing, not a link
                assert_eq!(links, min_links, "route {a}->{b} not minimal: {r:?}");
                used_itb |= r.itb_count() > 0;
            }
        }
        assert!(used_itb, "an 8-ring must require ITBs somewhere");
    }

    #[test]
    fn never_longer_than_updown() {
        for seed in 0..8 {
            let t = random_irregular(&IrregularSpec::evaluation_default(16, seed));
            let ud = UpDown::compute_default(&t);
            let mut p = ItbPlanner::default();
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(9) {
                for &b in hosts.iter().step_by(11) {
                    if a == b {
                        continue;
                    }
                    let itb = p.route(&t, &ud, a, b).unwrap();
                    let udr = shortest_updown(&t, &ud, a, b).unwrap();
                    let itb_links: usize = itb.segments.iter().map(|s| s.hops.len()).sum::<usize>()
                        - 1
                        - itb.itb_count();
                    let ud_links = udr.total_crossings() - 1;
                    assert!(
                        itb_links <= ud_links,
                        "ITB route longer than UD for {a:?}->{b:?} (seed {seed})"
                    );
                    assert_segments_legal(&t, &ud, &itb);
                    assert!(itb.is_well_formed(&t));
                }
            }
        }
    }

    #[test]
    fn hosted_switches_make_all_routes_minimal() {
        // Every switch has hosts, so every minimal path is legalizable.
        for seed in 0..8 {
            let t = random_irregular(&IrregularSpec::evaluation_default(12, seed));
            let ud = UpDown::compute_default(&t);
            let mut p = ItbPlanner::default();
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(7) {
                for &b in hosts.iter().step_by(5) {
                    if a == b {
                        continue;
                    }
                    let r = p.route(&t, &ud, a, b).unwrap();
                    let min_links = min_crossings(&t, a, b).unwrap() - 1;
                    let links: usize =
                        r.segments.iter().map(|s| s.hops.len()).sum::<usize>() - 1 - r.itb_count();
                    assert_eq!(links, min_links);
                }
            }
        }
    }

    #[test]
    fn same_host_rejected() {
        let t = chain(2, 1);
        let ud = UpDown::compute_default(&t);
        let mut p = ItbPlanner::default();
        assert_eq!(
            p.route(&t, &ud, HostId(0), HostId(0)).unwrap_err(),
            PlannerError::SameHost(HostId(0))
        );
    }

    #[test]
    fn round_robin_rotates_itb_hosts() {
        // Ring with 2 hosts per switch: repeated routes over the same
        // violating switch must alternate in-transit hosts.
        let t = ring(8, 2);
        let tree = SpanningTree::compute(&t, SwitchId(0));
        let ud = UpDown::compute(&t, tree);
        let mut p = ItbPlanner::new(ItbHostSelection::RoundRobin);
        // Find a pair that needs an ITB.
        let mut found = None;
        'outer: for a in 0..16u16 {
            for b in 0..16u16 {
                if a == b {
                    continue;
                }
                let r = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
                if r.itb_count() > 0 {
                    found = Some((a, b, r.itb_hosts().next().unwrap()));
                    break 'outer;
                }
            }
        }
        let (a, b, first_host) = found.expect("ring needs ITBs");
        let second = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
        let second_host = second.itb_hosts().next().unwrap();
        assert_ne!(first_host, second_host, "round robin should rotate");
        let third = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
        assert_eq!(third.itb_hosts().next().unwrap(), first_host);
    }

    #[test]
    fn first_policy_is_stable() {
        let t = ring(8, 2);
        let ud = UpDown::compute_default(&t);
        let mut p = ItbPlanner::new(ItbHostSelection::First);
        for a in [0u16, 3, 9] {
            for b in [5u16, 12] {
                if a == b {
                    continue;
                }
                let r1 = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
                let r2 = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
                assert_eq!(r1, r2);
            }
        }
    }

    #[test]
    fn itb_adds_exactly_one_crossing_each() {
        let t = ring(8, 1);
        let ud = UpDown::compute_default(&t);
        let mut p = ItbPlanner::default();
        for a in 0..8u16 {
            for b in 0..8u16 {
                if a == b {
                    continue;
                }
                let r = p.route(&t, &ud, HostId(a), HostId(b)).unwrap();
                let min = min_crossings(&t, HostId(a), HostId(b)).unwrap();
                assert_eq!(r.total_crossings(), min + r.itb_count(), "{a}->{b}: {r:?}");
            }
        }
    }
}
