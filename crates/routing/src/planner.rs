//! The route planner: one [`Router`] per topology and orientation gives
//! up\*/down\*, plain minimal and In-Transit Buffer routes.
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

use crate::path::{Hop, SourceRoute, Step};
use crate::updown::{Mode, PortIndex, SwitchSearch, UNREACHED};
use crate::wire::EncodeError;
use itb_topo::{HostId, SwitchId, Topology, UpDown};

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

/// Errors from [`Router::itb`] and the route-table build.
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
    /// The route has no Figure 3 header, so no NIC could send it.
    Unencodable {
        /// Route source.
        src: HostId,
        /// Route destination.
        dst: HostId,
        /// The hop or length that does not fit.
        error: EncodeError,
    },
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::SameHost(h) => write!(f, "source and destination are both {h}"),
            PlannerError::Unreachable { src, dst } => {
                write!(f, "no path from {src} to {dst}")
            }
            PlannerError::Unencodable { src, dst, error } => {
                write!(f, "route from {src} to {dst} has no header: {error}")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// The routes of one topology under one up\*/down\* orientation. It holds
/// the port index, one route search, the in-transit host choice and its
/// round-robin cursor: build one per `(Topology, UpDown)` and ask it for
/// every route.
///
/// Each search runs in full from the source's switch, so consecutive
/// routes out of one switch in one mode read the same search; asking
/// source-major is what makes a router cheap. Only [`Router::itb`] picks
/// in-transit hosts, so only it moves the round-robin cursor.
#[derive(Debug)]
pub struct Router {
    /// The wiring, oriented by the up\*/down\* directions.
    pub(crate) index: PortIndex,
    search: SwitchSearch,
    /// The source switch and mode `search` last ran for.
    searched: Option<(SwitchId, Mode)>,
    selection: ItbHostSelection,
    /// Per-switch rotation cursor for [`ItbHostSelection::RoundRobin`],
    /// allocated at the first pick.
    rr_cursor: Vec<usize>,
    /// Scratch: the hop list read back from the search, last hop first,
    /// with ITB markers.
    path: Vec<(Hop, bool)>,
}

impl Router {
    /// The router of `topo` under `ud`, picking in-transit hosts per
    /// `selection`.
    pub fn new(topo: &Topology, ud: &UpDown, selection: ItbHostSelection) -> Self {
        Router {
            index: PortIndex::new(topo, ud),
            search: SwitchSearch::default(),
            searched: None,
            selection,
            rr_cursor: Vec::new(),
            path: Vec::new(),
        }
    }

    /// The shortest up\*/down\*-legal route from `src` to `dst`, or `None`
    /// when the hosts coincide.
    pub fn updown(&mut self, src: HostId, dst: HostId) -> Option<SourceRoute> {
        self.route(Mode::UpDown, src, dst).ok()
    }

    /// The shortest route from `src` to `dst` with up\*/down\* legality
    /// ignored (minimal routing), or `None` when the hosts coincide.
    pub fn any(&mut self, src: HostId, dst: HostId) -> Option<SourceRoute> {
        self.route(Mode::Any, src, dst).ok()
    }

    /// The minimal-with-ITBs route from `src` to `dst`.
    ///
    /// ```
    /// use itb_routing::planner::{ItbHostSelection, Router};
    /// use itb_topo::{builders::ring, HostId, UpDown};
    ///
    /// let topo = ring(8, 1);
    /// let ud = UpDown::compute_default(&topo);
    /// let mut router = Router::new(&topo, &ud, ItbHostSelection::First);
    /// let route = router.itb(HostId(0), HostId(4)).unwrap();
    /// // Minimal half-way path on an 8-ring: 4 links; up*/down* would detour.
    /// assert!(route.is_well_formed(&topo));
    /// assert_eq!(route.total_crossings(), 5 + route.itb_count());
    /// ```
    pub fn itb(&mut self, src: HostId, dst: HostId) -> Result<SourceRoute, PlannerError> {
        self.route(Mode::Itb, src, dst)
    }

    /// Inter-switch links on a shortest path from `src`'s switch to
    /// `dst`'s, legality ignored; `None` when none exists.
    pub fn min_links(&mut self, src: HostId, dst: HostId) -> Option<usize> {
        self.search_from(src, Mode::Any);
        let goal = self.search.settled[self.index.attachment(dst).0.idx()];
        (goal != UNREACHED).then(|| self.search.reached[goal].cost.0 as usize)
    }

    fn route(&mut self, mode: Mode, src: HostId, dst: HostId) -> Result<SourceRoute, PlannerError> {
        if src == dst {
            return Err(PlannerError::SameHost(src));
        }
        self.search_from(src, mode);
        let mut steps = Vec::new();
        self.steps(src, dst, &mut steps)?;
        Ok(SourceRoute::from_steps(src, dst, steps))
    }

    /// Point the search at `src`'s switch in `mode`. It runs unless it last
    /// ran from that switch in that mode; returns whether it ran.
    pub(crate) fn search_from(&mut self, src: HostId, mode: Mode) -> bool {
        let key = (self.index.attachment(src).0, mode);
        let run = self.searched != Some(key);
        if run {
            self.search.run(&self.index, mode, key.0);
            self.searched = Some(key);
        }
        run
    }

    /// Write the steps of the route `src → dst` into `out`, read out of the
    /// search from `src`'s switch. Every ITB marker becomes a hop out to an
    /// in-transit host and the stop there; in-transit hosts are picked in
    /// hop order.
    pub(crate) fn steps(
        &mut self,
        src: HostId,
        dst: HostId,
        out: &mut Vec<Step>,
    ) -> Result<(), PlannerError> {
        let (dst_sw, dst_port) = self.index.attachment(dst);
        let goal = self.search.settled[dst_sw.idx()];
        if goal == UNREACHED {
            return Err(PlannerError::Unreachable { src, dst });
        }
        self.path.clear();
        let mut cur = goal;
        while let Some((p, hop, itb)) = self.search.reached[cur].from {
            self.path.push((hop, itb));
            cur = p;
        }
        out.clear();
        for i in (0..self.path.len()).rev() {
            let (hop, itb) = self.path[i];
            if itb {
                let host = self.pick(hop.switch);
                out.push(Step::Hop(Hop {
                    switch: hop.switch,
                    out_port: self.index.attachment(host).1,
                }));
                out.push(Step::Itb(host));
            }
            out.push(Step::Hop(hop));
        }
        out.push(Step::Hop(Hop {
            switch: dst_sw,
            out_port: dst_port,
        }));
        Ok(())
    }

    /// Pick the in-transit host on switch `s` per the selection policy.
    pub(crate) fn pick(&mut self, s: SwitchId) -> HostId {
        let hosts = self.index.hosts_at(s);
        debug_assert!(!hosts.is_empty(), "planner only breaks at hosted switches");
        match self.selection {
            ItbHostSelection::First => hosts[0],
            ItbHostSelection::RoundRobin => {
                if self.rr_cursor.is_empty() {
                    self.rr_cursor = vec![0; self.index.num_switches()];
                }
                let cur = &mut self.rr_cursor[s.idx()];
                let h = hosts[*cur % hosts.len()];
                *cur = (*cur + 1) % hosts.len();
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::route_links;
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
        let mut p = Router::new(&t, &ud, ItbHostSelection::First);
        let r = p.itb(HostId(0), HostId(4)).unwrap();
        assert_eq!(r.itb_count(), 0);
        assert_eq!(r.total_crossings(), 5);
        assert!(r.is_well_formed(&t));
    }

    #[test]
    fn ring_gets_minimal_routes_with_itbs() {
        let t = ring(8, 1);
        let tree = SpanningTree::compute(&t, SwitchId(0));
        let ud = UpDown::compute(&t, tree);
        let mut p = Router::new(&t, &ud, ItbHostSelection::First);
        let mut used_itb = false;
        for a in 0..8u16 {
            for b in 0..8u16 {
                if a == b {
                    continue;
                }
                let r = p.itb(HostId(a), HostId(b)).unwrap();
                assert!(r.is_well_formed(&t));
                assert_segments_legal(&t, &ud, &r);
                // Minimal link count: inter-switch links = min distance.
                let min_links = route_links(&p.any(HostId(a), HostId(b)).unwrap());
                assert_eq!(
                    route_links(&r),
                    min_links,
                    "route {a}->{b} not minimal: {r:?}"
                );
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
            let mut p = Router::new(&t, &ud, ItbHostSelection::First);
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(9) {
                for &b in hosts.iter().step_by(11) {
                    if a == b {
                        continue;
                    }
                    let itb = p.itb(a, b).unwrap();
                    let udr = p.updown(a, b).unwrap();
                    assert!(
                        route_links(&itb) <= route_links(&udr),
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
            let mut p = Router::new(&t, &ud, ItbHostSelection::First);
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(7) {
                for &b in hosts.iter().step_by(5) {
                    if a == b {
                        continue;
                    }
                    let r = p.itb(a, b).unwrap();
                    assert_eq!(Some(route_links(&r)), p.min_links(a, b));
                }
            }
        }
    }

    #[test]
    fn same_host_rejected() {
        let t = chain(2, 1);
        let ud = UpDown::compute_default(&t);
        let mut p = Router::new(&t, &ud, ItbHostSelection::First);
        assert_eq!(
            p.itb(HostId(0), HostId(0)).unwrap_err(),
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
        let mut p = Router::new(&t, &ud, ItbHostSelection::RoundRobin);
        // Find a pair that needs an ITB.
        let mut found = None;
        'outer: for a in 0..16u16 {
            for b in 0..16u16 {
                if a == b {
                    continue;
                }
                let r = p.itb(HostId(a), HostId(b)).unwrap();
                if r.itb_count() > 0 {
                    found = Some((a, b, r.itb_hosts().next().unwrap()));
                    break 'outer;
                }
            }
        }
        let (a, b, first_host) = found.expect("ring needs ITBs");
        let second = p.itb(HostId(a), HostId(b)).unwrap();
        let second_host = second.itb_hosts().next().unwrap();
        assert_ne!(first_host, second_host, "round robin should rotate");
        let third = p.itb(HostId(a), HostId(b)).unwrap();
        assert_eq!(third.itb_hosts().next().unwrap(), first_host);
    }

    #[test]
    fn first_policy_is_stable() {
        let t = ring(8, 2);
        let ud = UpDown::compute_default(&t);
        let mut p = Router::new(&t, &ud, ItbHostSelection::First);
        for a in [0u16, 3, 9] {
            for b in [5u16, 12] {
                if a == b {
                    continue;
                }
                let r1 = p.itb(HostId(a), HostId(b)).unwrap();
                let r2 = p.itb(HostId(a), HostId(b)).unwrap();
                assert_eq!(r1, r2);
            }
        }
    }

    #[test]
    fn itb_adds_exactly_one_crossing_each() {
        let t = ring(8, 1);
        let ud = UpDown::compute_default(&t);
        let mut p = Router::new(&t, &ud, ItbHostSelection::First);
        for a in 0..8u16 {
            for b in 0..8u16 {
                if a == b {
                    continue;
                }
                let r = p.itb(HostId(a), HostId(b)).unwrap();
                let min = p.min_links(HostId(a), HostId(b)).unwrap() + 1;
                assert_eq!(r.total_crossings(), min + r.itb_count(), "{a}->{b}: {r:?}");
            }
        }
    }

    /// A route of each kind, or the minimal link count.
    #[derive(Debug, PartialEq)]
    enum Asked {
        UpDown(Option<SourceRoute>),
        Any(Option<SourceRoute>),
        Itb(SourceRoute),
        Links(Option<usize>),
    }

    fn ask(router: &mut Router, kind: usize, a: HostId, b: HostId) -> Asked {
        match kind % 4 {
            0 => Asked::UpDown(router.updown(a, b)),
            1 => Asked::Any(router.any(a, b)),
            2 => Asked::Itb(router.itb(a, b).unwrap()),
            _ => Asked::Links(router.min_links(a, b)),
        }
    }

    #[test]
    fn reused_searches_match_a_fresh_router_per_call() {
        let t = random_irregular(&IrregularSpec::evaluation_default(32, 1));
        let ud = UpDown::compute_default(&t);
        let mut reused = Router::new(&t, &ud, ItbHostSelection::First);
        for i in 0..400usize {
            // Two calls per kind and three per source switch, each from
            // another host on it: some calls repeat the last search, some
            // keep its switch in another mode, some keep its mode.
            let sw = SwitchId((i / 3 * 7 % t.num_switches()) as u16);
            let a = t.hosts_on(sw).nth(i % 3).unwrap();
            let b = HostId((i * 11 % t.num_hosts()) as u16);
            if a == b {
                continue;
            }
            let mut fresh = Router::new(&t, &ud, ItbHostSelection::First);
            assert_eq!(
                ask(&mut reused, i / 2, a, b),
                ask(&mut fresh, i / 2, a, b),
                "call {i}: {a}->{b}"
            );
        }
    }

    #[test]
    fn only_itb_moves_the_round_robin_cursor() {
        let t = random_irregular(&IrregularSpec::evaluation_default(32, 1));
        let ud = UpDown::compute_default(&t);
        let mut alone = Router::new(&t, &ud, ItbHostSelection::RoundRobin);
        let mut mixed = Router::new(&t, &ud, ItbHostSelection::RoundRobin);
        let hosts: Vec<_> = t.host_ids().collect();
        let mut stops = 0;
        for &a in hosts.iter().step_by(5) {
            for &b in hosts.iter().filter(|&&b| b != a) {
                // Every kind but `itb`, from the same source first: an ITB
                // search keyed on the switch alone would reuse that one.
                let kind = [0, 1, 3][b.idx() % 3];
                ask(&mut mixed, kind, a, b);
                ask(&mut mixed, kind, hosts[(a.idx() + 7) % hosts.len()], a);
                let want = alone.itb(a, b).unwrap();
                stops += want.itb_count();
                assert_eq!(mixed.itb(a, b).unwrap(), want, "{a}->{b}");
            }
        }
        // Not vacuous: the cursor moved.
        assert!(stops > 0);
    }
}
