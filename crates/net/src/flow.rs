//! Flow-level network model for the hybrid flow/packet engine.
//!
//! Where the flit model (`network.rs`) spends one event per flit per hop,
//! [`FlowNet`] replaces a long-lived transfer with a single *flow*: a
//! (source host, destination host, byte count) triple routed over the
//! shortest deterministic path, served at the rate a global **max-min
//! fair** allocation grants it, and advanced in coarse sim-time rounds.
//! A 100 000-flow fabric costs one rate solve plus one array sweep per
//! round instead of hundreds of millions of flit events — the trade is
//! that transient contention (worm blocking, Stop&Go backpressure, ITB
//! ejection) is averaged away, which is exactly why the hybrid engine
//! only assigns *uncongested, ITB-free* regions to this model and
//! escalates anything else to packet fidelity.
//!
//! ## Flow table
//!
//! Live flows sit in a dense table in ascending id order, one position
//! per flow across parallel arrays: `ids`, `flows` (the `Copy` per-flow
//! state) and `route_end`, the CSR end offsets into a single `routes`
//! arena of directed channels. Like the GM mapper's routes, which are
//! computed once and downloaded to the NIC as flat byte strings, a flow's
//! path is written into the arena once at open and never reallocated.
//! Callers allocate ids from a monotone counter, so opening is an append;
//! completions and closes compact all four arrays in one linear pass. The
//! solver indexes its per-flow scratch (`frozen`) by the same position.
//!
//! ## Determinism
//!
//! Everything is a pure function of the topology and the flow set:
//!
//! * routes come from per-root BFS in switch-id/port order (no RNG, no
//!   hash iteration);
//! * the max-min solver pops bottleneck channels in `(saturation level,
//!   channel index)` order under `f64::total_cmp` and freezes flows in id
//!   order within each channel, so its f64 operations execute in a fixed
//!   sequence — IEEE 754 arithmetic is deterministic when the operation
//!   order is. Table positions are in id order, so "position order" and
//!   "id order" are the same sequence;
//! * each solved rate crosses to integer picoseconds exactly once via
//!   [`ByteInterval::from_rate`]; rounds, completions and byte counts are
//!   integer arithmetic from there on.
//!
//! Repeated runs therefore produce byte-identical flow schedules, and the
//! engine's state digests can cover flow state directly.

use itb_sim::{narrow, ByteInterval, SimDuration};
use itb_topo::{HostId, Node, SwitchId, Topology};
use std::ops::Range;

/// Directed-channel index: link `lid` carries channel `lid*2` in its
/// `a → b` orientation and `lid*2 + 1` in `b → a` — the same convention
/// the flit model uses for its per-direction channel array.
type Chan = u32;

const NO_PRED: u16 = u16::MAX;

/// One in-flight flow's state (its route lives in the [`FlowNet`] arena).
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Bytes still to deliver.
    pub remaining: u64,
    /// Quantised service interval from the last solve.
    pub interval: ByteInterval,
}

/// A completion produced by [`FlowNet::advance`]: flow `id` finished
/// `offset` after the start of the advanced round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCompletion {
    /// The flow's id (the caller's message id).
    pub id: u64,
    /// Completion instant as an offset from the round start. Always at
    /// most the advanced window.
    pub offset: SimDuration,
}

/// The flow-level fabric: deterministic shortest routes, max-min fair
/// rate allocation, coarse-round service.
///
/// Flow `i` (table position, ascending id) is `ids[i]`, `flows[i]`, and
/// the route `routes[route_end[i-1]..route_end[i]]` (from 0 for `i = 0`).
pub struct FlowNet {
    switches: usize,
    /// Flat `switches × switches` BFS predecessor matrix: `pred[root *
    /// switches + v]` is the switch preceding `v` on the root→v path.
    pred: Vec<u16>,
    /// Directed channel taken on the last hop of root→v, parallel to
    /// `pred`.
    hop_chan: Vec<Chan>,
    /// Per-host attachment: switch index and the host-link uplink /
    /// downlink channels.
    host_switch: Vec<u16>,
    host_up: Vec<Chan>,
    host_down: Vec<Chan>,
    /// Per-channel capacity in bytes/ns (uniform per link direction,
    /// from the configured link bandwidth).
    cap: Vec<f64>,
    /// Live flow ids, strictly ascending.
    ids: Vec<u64>,
    /// Per-flow state, parallel to `ids`.
    flows: Vec<Flow>,
    /// CSR end offset of each flow's route in `routes`, parallel to `ids`.
    route_end: Vec<u32>,
    /// Every live flow's directed channels, in path order, back to back.
    routes: Vec<Chan>,
    /// Live flows per directed channel, maintained on open/close/complete.
    /// This — not utilisation — is the escalation signal: a work-conserving
    /// max-min solve drives every busy flow's bottleneck to 100% by
    /// construction, so "links near capacity" carries no information, but
    /// many worms sharing one channel is exactly the regime where the
    /// fluid model averages away HOL blocking and Stop&Go backpressure.
    occupancy: Vec<u32>,
    /// Rates allocated by the last solve, in bytes/ns per channel
    /// (reporting + diagnostics).
    alloc: Vec<f64>,
    /// Solver scratch: unfrozen flows per channel during a solve.
    load: Vec<u32>,
    /// Solver scratch: true once the flow at that table position froze.
    frozen: Vec<bool>,
    /// Solver scratch, reused across solves so the steady-state hot path
    /// allocates nothing: CSR offsets/cursor/items for the channel→flow
    /// adjacency, and the bottleneck heap's backing store.
    scratch_off: Vec<u32>,
    scratch_cursor: Vec<u32>,
    scratch_items: Vec<u32>,
    scratch_heap: std::collections::BinaryHeap<ChanSat>,
    total_delivered: u64,
    solves: u64,
}

impl FlowNet {
    /// Build the flow fabric for `topo`, with every channel serving
    /// `link_bytes_per_ns` (0.16 for the 160 MB/s Myrinet link).
    ///
    /// Runs one BFS per switch to fill the predecessor matrix — O(V·E),
    /// a few milliseconds at 1024 switches — so route lookup afterwards
    /// is a pure parent walk that writes straight into the route arena.
    pub fn new(topo: &Topology, link_bytes_per_ns: f64) -> Self {
        let n = topo.num_switches();
        assert!(n > 0, "flow fabric needs at least one switch");
        let channels = topo.num_links() * 2;

        let mut pred = vec![NO_PRED; n * n];
        let mut hop_chan = vec![0 as Chan; n * n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..n {
            let base = root * n;
            queue.clear();
            queue.push_back(root);
            pred[base + root] = narrow::<u16, _>(root);
            while let Some(u) = queue.pop_front() {
                for (_, lid, v) in topo.switch_neighbors(SwitchId(narrow(u))) {
                    let vi = v.idx();
                    if vi != u && pred[base + vi] == NO_PRED {
                        pred[base + vi] = narrow::<u16, _>(u);
                        hop_chan[base + vi] =
                            directed_chan(topo, lid, Node::Switch(SwitchId(narrow(u))));
                        queue.push_back(vi);
                    }
                }
            }
        }

        let mut host_switch = Vec::with_capacity(topo.num_hosts());
        let mut host_up = Vec::with_capacity(topo.num_hosts());
        let mut host_down = Vec::with_capacity(topo.num_hosts());
        for h in topo.host_ids() {
            let (s, _) = topo.host_attachment(h);
            let lid = topo.host_link(h);
            host_switch.push(narrow::<u16, _>(s.idx()));
            host_up.push(directed_chan(topo, lid, Node::Host(h)));
            host_down.push(directed_chan(topo, lid, Node::Switch(s)));
        }

        FlowNet {
            switches: n,
            pred,
            hop_chan,
            host_switch,
            host_up,
            host_down,
            cap: vec![link_bytes_per_ns; channels],
            ids: Vec::new(),
            flows: Vec::new(),
            route_end: Vec::new(),
            routes: Vec::new(),
            occupancy: vec![0; channels],
            alloc: vec![0.0; channels],
            load: vec![0; channels],
            frozen: Vec::new(),
            scratch_off: Vec::new(),
            scratch_cursor: Vec::new(),
            scratch_items: Vec::new(),
            scratch_heap: std::collections::BinaryHeap::new(),
            total_delivered: 0,
            solves: 0,
        }
    }

    /// Open flow `id` (the caller's message id) carrying `bytes` from
    /// `src` to `dst`. The route is fixed at open time: source uplink,
    /// inter-switch hops (BFS shortest path), destination downlink;
    /// intra-switch flows cross just the two host links.
    ///
    /// The new flow serves at a stalled rate until the next [`solve`] —
    /// callers re-solve at the round boundary after admitting arrivals.
    ///
    /// # Panics
    /// Panics unless `id` is above every live flow's id: the table is
    /// kept in id order by appending, and a reused id would shadow a live
    /// flow whose channel occupancy then never drains.
    ///
    /// [`solve`]: FlowNet::solve
    pub fn open(&mut self, id: u64, src: HostId, dst: HostId, bytes: u64) {
        if let Some(&last) = self.ids.last() {
            assert!(
                id > last,
                "flow id {id} opened after live flow id {last}: flow ids must be unique and increasing"
            );
        }
        let start = self.routes.len();
        let s0 = usize::from(self.host_switch[src.idx()]);
        let base = s0 * self.switches;
        self.routes.push(self.host_down[dst.idx()]);
        let mut v = usize::from(self.host_switch[dst.idx()]);
        while v != s0 {
            let p = self.pred[base + v];
            assert!(p != NO_PRED, "validated topologies are connected");
            self.routes.push(self.hop_chan[base + v]);
            v = usize::from(p);
        }
        self.routes.push(self.host_up[src.idx()]);
        let route = &mut self.routes[start..];
        route.reverse();
        for &c in route.iter() {
            self.occupancy[c as usize] += 1;
        }
        self.route_end.push(narrow(self.routes.len()));
        self.ids.push(id);
        self.flows.push(Flow {
            src,
            dst,
            remaining: bytes,
            interval: ByteInterval::from_rate(0.0),
        });
    }

    /// Close every live flow whose path crosses a switch for which
    /// `crosses` holds (escalation hand-back), returning the closed flows
    /// in id order so the caller can re-inject their remaining bytes
    /// through the packet path. One compaction pass over the table.
    pub fn close_crossing(
        &mut self,
        mut crosses: impl FnMut(SwitchId) -> bool,
    ) -> Vec<(u64, Flow)> {
        let mut closed = Vec::new();
        self.retain(|net, id, f| {
            let keep = net.path_all(f.src, f.dst, |s| !crosses(s));
            if !keep {
                closed.push((id, *f));
            }
            keep
        });
        closed
    }

    /// Whether every switch on the `src → dst` flow path (attachment
    /// switches included) satisfies `pred`, for region-fidelity checks.
    /// Walks the predecessor matrix from the destination end and
    /// allocates nothing.
    pub fn path_all(
        &self,
        src: HostId,
        dst: HostId,
        mut pred: impl FnMut(SwitchId) -> bool,
    ) -> bool {
        let s0 = usize::from(self.host_switch[src.idx()]);
        let base = s0 * self.switches;
        let mut v = usize::from(self.host_switch[dst.idx()]);
        loop {
            if !pred(SwitchId(narrow(v))) {
                return false;
            }
            if v == s0 {
                return true;
            }
            v = usize::from(self.pred[base + v]);
        }
    }

    /// Keep the flows for which `keep` returns true (it may update the
    /// flow), dropping the rest and releasing their channels. One pass in
    /// id order compacts `ids`, `flows`, `route_end` and the route arena.
    fn retain(&mut self, mut keep: impl FnMut(&FlowNet, u64, &mut Flow) -> bool) {
        let (mut kept, mut start, mut arena) = (0, 0, 0);
        for i in 0..self.ids.len() {
            let end = self.route_end[i] as usize;
            let id = self.ids[i];
            let mut f = self.flows[i];
            if keep(self, id, &mut f) {
                self.routes.copy_within(start..end, arena);
                arena += end - start;
                self.ids[kept] = id;
                self.flows[kept] = f;
                self.route_end[kept] = narrow(arena);
                kept += 1;
            } else {
                for &c in &self.routes[start..end] {
                    self.occupancy[c as usize] -= 1;
                }
            }
            start = end;
        }
        self.ids.truncate(kept);
        self.flows.truncate(kept);
        self.route_end.truncate(kept);
        self.routes.truncate(arena);
    }

    /// Max-min fair allocation over the current flow set, computed
    /// bottleneck-first. Conceptually it is progressive water filling —
    /// every unfrozen flow's rate rises in lockstep until a channel
    /// saturates, the flows crossing it freeze at that level, and the
    /// filling continues on the rest — but the implementation exploits
    /// the lockstep invariant: all unfrozen flows always share one rate
    /// level λ, and a channel's *saturation level*
    /// `s_c = (cap_c − Σ frozen rates on c) / unfrozen_load_c`
    /// does not move while λ rises; only a freeze (which changes the
    /// channel's load and frozen sum) perturbs it. A lazy min-heap keyed
    /// by `(s_c, c)` therefore finds every bottleneck without touching
    /// the active flow set, and each flow is visited exactly once — when
    /// it freezes. Total cost is `O(Σ route length · log channels)` per
    /// solve instead of the naive `O(bottleneck levels × active flows)`,
    /// which is the difference between milliseconds and minutes at the
    /// 100k-flow scale of the 1024-switch flow benchmark.
    ///
    /// Determinism: heap order is `f64::total_cmp` on the saturation
    /// level with ties to the lowest channel index, per-channel flow
    /// lists are in table (= flow-id) order, and a popped snapshot whose
    /// channel has since risen is re-pushed at the recomputed level rather
    /// than acted on — every f64 operation executes in a fixed sequence.
    /// Each flow's solved rate is quantised through
    /// [`ByteInterval::from_rate`] — the engine's single float→time
    /// crossing — before any completion arithmetic happens.
    ///
    /// The heap is deliberately *lazy on update*: freezing a flow changes
    /// the saturation level of every channel on its route, but pushing a
    /// fresh snapshot per touched channel (as a textbook decrease-key
    /// substitute would) costs a heap push per flow×hop — the dominant
    /// wall-clock term at 100k flows. Instead a channel's level is
    /// recomputed from `(cap − alloc) / load` only when its entry
    /// surfaces at the heap top; stale surfacings re-push once at the
    /// current level. Levels are non-decreasing across freezes, so every
    /// loaded channel always has at least one heap entry at or below its
    /// true level, which is exactly the invariant the pop order needs.
    pub fn solve(&mut self) {
        self.solves += 1;
        self.alloc.fill(0.0);
        self.load.fill(0);
        if self.ids.is_empty() {
            return;
        }
        // Unfrozen load per channel: one linear pass over the arena.
        for &c in &self.routes {
            self.load[c as usize] += 1;
        }
        self.frozen.clear();
        self.frozen.resize(self.ids.len(), false);
        // Channel → flow-position adjacency in CSR layout, id order
        // within each channel. Rebuilt per solve into persistent scratch;
        // each flow freezes exactly once, so the freeze sweep below is
        // O(arena length) total.
        let nch = self.cap.len();
        self.scratch_off.clear();
        self.scratch_off.push(0);
        for c in 0..nch {
            let prev = self.scratch_off[c];
            self.scratch_off.push(prev + self.load[c]);
        }
        self.scratch_cursor.clear();
        self.scratch_cursor
            .extend_from_slice(&self.scratch_off[..nch]);
        self.scratch_items.clear();
        self.scratch_items.resize(self.routes.len(), 0);
        let mut start = 0;
        for (fi, &end) in self.route_end.iter().enumerate() {
            for &c in &self.routes[start..end as usize] {
                let cursor = &mut self.scratch_cursor[c as usize];
                self.scratch_items[*cursor as usize] = narrow(fi);
                *cursor += 1;
            }
            start = end as usize;
        }
        let heap = &mut self.scratch_heap;
        heap.clear();
        for c in 0..nch {
            if self.load[c] > 0 {
                let s = self.cap[c] / f64::from(self.load[c]);
                heap.push(ChanSat { s, c: narrow(c) });
            }
        }
        let mut lambda = 0.0f64;
        let mut active = self.ids.len();
        while active > 0 {
            let Some(top) = heap.pop() else { break };
            let c = top.c as usize;
            if self.load[c] == 0 {
                continue; // drained by freezes on other bottlenecks
            }
            let s_now = (self.cap[c] - self.alloc[c]).max(0.0) / f64::from(self.load[c]);
            if s_now.total_cmp(&top.s).is_gt() {
                // Stale snapshot: the channel rose since this entry was
                // pushed. Re-queue it at the current level and move on.
                heap.push(ChanSat { s: s_now, c: top.c });
                continue;
            }
            // Saturation levels are non-decreasing along the pop order in
            // exact arithmetic; the max guards against f64 rounding dips.
            lambda = lambda.max(s_now);
            let interval = ByteInterval::from_rate(lambda);
            for i in self.scratch_off[c]..self.scratch_off[c + 1] {
                let fi = self.scratch_items[i as usize] as usize;
                if self.frozen[fi] {
                    continue;
                }
                self.frozen[fi] = true;
                self.flows[fi].interval = interval;
                active -= 1;
                for &c2 in &self.routes[route_span(&self.route_end, fi)] {
                    let c2 = c2 as usize;
                    self.alloc[c2] += lambda;
                    self.load[c2] -= 1;
                }
            }
        }
    }

    /// Serve every flow for one `window`-long round. Byte progress is the
    /// integer `interval.bytes_in(window)` (sub-byte residue truncates —
    /// the documented coarseness of the flow model); flows that drain
    /// complete at the exact integer offset `interval.time_for(needed)`.
    /// Completions return in flow-id order and are removed from the set.
    pub fn advance(&mut self, window: SimDuration) -> Vec<FlowCompletion> {
        let mut done = Vec::new();
        let mut delivered = 0;
        self.retain(|_, id, f| {
            let served = f.interval.bytes_in(window);
            if served >= f.remaining {
                let offset = f.interval.time_for(f.remaining);
                delivered += f.remaining;
                done.push(FlowCompletion { id, offset });
                false
            } else {
                delivered += served;
                f.remaining -= served;
                true
            }
        });
        self.total_delivered += delivered;
        done
    }

    /// Live flow count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no flows are in flight.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Live `(id, flow)` pairs, ascending id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Flow)> {
        self.ids.iter().copied().zip(&self.flows)
    }

    /// Look up a live flow (binary search over the id-ordered table).
    pub fn get(&self, id: u64) -> Option<&Flow> {
        let i = self.ids.binary_search(&id).ok()?;
        Some(&self.flows[i])
    }

    /// Total bytes delivered across all completed service.
    pub fn bytes_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Number of solver runs so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Post-solve allocation per directed channel (bytes/ns).
    pub fn channel_allocation(&self) -> &[f64] {
        &self.alloc
    }

    /// Deepest sharing (live flows on one directed channel) over the
    /// given link set — the hybrid engine's escalation signal. Unlike
    /// utilisation (always 1.0 at some bottleneck whenever any flow is
    /// busy, by max-min construction) this measures how far the fluid
    /// approximation is being stretched: one or two worms per channel is
    /// the regime the model is honest in; deep sharing means wormhole
    /// HOL blocking the fluid model cannot see.
    pub fn peak_contention(&self, links: impl Iterator<Item = u32>) -> u32 {
        let mut peak = 0;
        for lid in links {
            for c in [lid as usize * 2, lid as usize * 2 + 1] {
                peak = peak.max(self.occupancy[c]);
            }
        }
        peak
    }

    /// Capacity per directed channel (bytes/ns).
    pub fn channel_capacity(&self) -> &[f64] {
        &self.cap
    }

    /// Highest post-solve utilisation (allocation/capacity) over the
    /// directed channels of the given link set, 0.0 when unloaded.
    pub fn peak_utilization(&self, links: impl Iterator<Item = u32>) -> f64 {
        let mut peak = 0.0f64;
        for lid in links {
            for c in [lid as usize * 2, lid as usize * 2 + 1] {
                let u = self.alloc[c] / self.cap[c];
                if u > peak {
                    peak = u;
                }
            }
        }
        peak
    }
}

/// Solver heap entry: channel `c` saturates when the lockstep rate level
/// reaches `s`. The ordering is deliberately reversed — `BinaryHeap` is a
/// max-heap and the solver pops the *lowest* saturation level first, with
/// ties resolving to the lowest channel index. `f64::total_cmp` keeps the
/// order total and deterministic.
#[derive(Debug, Clone, Copy)]
struct ChanSat {
    s: f64,
    c: u32,
}

impl PartialEq for ChanSat {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for ChanSat {}
impl PartialOrd for ChanSat {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ChanSat {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.s.total_cmp(&self.s).then(other.c.cmp(&self.c))
    }
}

/// Arena range of the route at table position `i`, given the CSR end
/// offsets.
fn route_span(route_end: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { route_end[i - 1] as usize };
    start..route_end[i] as usize
}

/// The directed channel of `lid` whose traffic departs `from`.
fn directed_chan(topo: &Topology, lid: itb_topo::LinkId, from: Node) -> Chan {
    let link = topo.link(lid);
    let idx = narrow::<u32, _>(lid.idx());
    if link.a.node == from {
        idx * 2
    } else {
        debug_assert!(link.b.node == from, "link does not touch node");
        idx * 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_topo::builders;

    const LINK: f64 = 0.16; // 160 MB/s in bytes/ns

    fn chain_net() -> (itb_topo::Topology, FlowNet) {
        let topo = builders::chain(4, 2);
        let net = FlowNet::new(&topo, LINK);
        (topo, net)
    }

    /// The switches on the `src → dst` flow path, in path order.
    fn switches_of(net: &FlowNet, src: HostId, dst: HostId) -> Vec<SwitchId> {
        let mut rev = Vec::new();
        assert!(net.path_all(src, dst, |s| {
            rev.push(s);
            true
        }));
        rev.reverse();
        rev
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let a = hosts[0]; // switch 0
        let b = *hosts.last().unwrap(); // switch 3
        net.open(1, a, b, 100);
        net.open(2, a, b, 100);
        net.open(3, hosts[0], hosts[1], 100);
        // 2 host links + 3 inter-switch hops.
        let r1 = &net.routes[route_span(&net.route_end, 0)];
        assert_eq!(r1.len(), 5);
        assert_eq!(&net.routes[route_span(&net.route_end, 1)], r1);
        assert_eq!(r1[0], net.host_up[a.idx()]);
        assert_eq!(r1[4], net.host_down[b.idx()]);
        assert_eq!(
            switches_of(&net, a, b),
            vec![SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)]
        );
        // Same-switch flows cross only the two host links.
        assert_eq!(route_span(&net.route_end, 2).len(), 2);
        assert_eq!(switches_of(&net, hosts[0], hosts[1]), vec![SwitchId(0)]);
        assert!(!net.path_all(a, b, |s| s != SwitchId(2)));
    }

    #[test]
    fn single_flow_gets_the_full_link() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(1, hosts[0], hosts[6], 1600);
        net.solve();
        let f = net.get(1).unwrap();
        // Full link rate, exactly: 0.16 bytes/ns = 6250 ps/byte.
        assert_eq!(f.interval.ps_per_byte(), 6_250);
        // 1600 bytes at 6250 ps/byte = 10 us exactly.
        let done = net.advance(SimDuration::from_us(20));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[0].offset, SimDuration::from_us(10));
        assert!(net.is_empty());
        assert_eq!(net.bytes_delivered(), 1600);
    }

    #[test]
    fn shared_bottleneck_splits_fairly() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        // Two flows from different sources into the SAME destination
        // host: its downlink is the bottleneck, each side gets half.
        net.open(1, hosts[0], hosts[6], 8_000);
        net.open(2, hosts[2], hosts[6], 8_000);
        net.solve();
        let i1 = net.get(1).unwrap().interval;
        let i2 = net.get(2).unwrap().interval;
        assert_eq!(i1, i2, "equal demand, equal share");
        assert_eq!(i1.ps_per_byte(), 12_500, "half of 6250 ps/byte rate");
    }

    #[test]
    fn max_min_gives_unbottlenecked_flows_the_rest() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        // Flows 1+2 share a destination downlink (½ link each); flow 3
        // runs the chain the *other way* — reverse-direction channels are
        // disjoint from forward ones, so it must get the full link rate —
        // the defining property separating max-min from proportional.
        net.open(1, hosts[0], hosts[6], 8_000);
        net.open(2, hosts[2], hosts[6], 8_000);
        net.open(3, hosts[4], hosts[1], 8_000);
        net.solve();
        assert_eq!(net.get(1).unwrap().interval.ps_per_byte(), 12_500);
        assert_eq!(net.get(2).unwrap().interval.ps_per_byte(), 12_500);
        assert_eq!(net.get(3).unwrap().interval.ps_per_byte(), 6_250);
        // Utilisation on the shared destination link is 1.0.
        let dst_link = topo.host_link(hosts[6]);
        let peak = net.peak_utilization(std::iter::once(narrow(dst_link.idx())));
        assert!((peak - 1.0).abs() < 1e-9, "{peak}");
    }

    #[test]
    fn advance_rounds_serve_and_complete_in_id_order() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(1, hosts[0], hosts[6], 800);
        net.open(2, hosts[2], hosts[6], 400);
        net.solve();
        // ½ link rate each (12.5 ns/byte): in a 6 us round flow 2 (400 B,
        // 5 us) completes, flow 1 (800 B, 10 us) survives with 480 served.
        let done = net.advance(SimDuration::from_us(6));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        assert_eq!(done[0].offset, SimDuration::from_us(5));
        assert_eq!(net.get(1).unwrap().remaining, 800 - 480);
        // Freed capacity only helps after a re-solve (round boundary).
        net.solve();
        assert_eq!(net.get(1).unwrap().interval.ps_per_byte(), 6_250);
    }

    #[test]
    fn escalation_close_returns_remaining_bytes() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(7, hosts[0], hosts[6], 2_000);
        net.solve();
        net.advance(SimDuration::from_us(5)); // 800 bytes at full rate
        let closed = net.close_crossing(|_| true);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 7);
        assert_eq!(closed[0].1.remaining, 1_200);
        assert!(net.is_empty());
    }

    #[test]
    fn contention_tracks_live_flows_per_channel() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let dst_link = narrow::<u32, _>(topo.host_link(hosts[6]).idx());
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
        // Three flows converge on one destination downlink.
        net.open(1, hosts[0], hosts[6], 800);
        net.open(2, hosts[2], hosts[6], 400);
        net.open(3, hosts[4], hosts[6], 400);
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 3);
        net.solve();
        // Completions release their channels; an early close does too.
        let done = net.advance(SimDuration::from_ms(1));
        assert_eq!(done.len(), 3);
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
        net.open(4, hosts[0], hosts[6], 800);
        assert_eq!(net.close_crossing(|_| true).len(), 1);
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
    }

    #[test]
    fn close_crossing_compacts_the_table_in_id_order() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        // Flows 1 and 3 cross switch 2; flows 2 and 4 stay on switches
        // 0-1 and are kept.
        net.open(1, hosts[0], hosts[6], 8_000);
        net.open(2, hosts[0], hosts[2], 8_000);
        net.open(3, hosts[4], hosts[1], 8_000);
        net.open(4, hosts[3], hosts[1], 8_000);
        let closed = net.close_crossing(|s| s == SwitchId(2));
        let closed_ids: Vec<u64> = closed.iter().map(|&(id, _)| id).collect();
        assert_eq!(closed_ids, vec![1, 3]);
        assert_eq!(net.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![2, 4]);
        // The compacted arena solves exactly like a fresh net holding
        // only the survivors, and the closed flows released their
        // channels.
        let mut fresh = FlowNet::new(&topo, LINK);
        fresh.open(2, hosts[0], hosts[2], 8_000);
        fresh.open(4, hosts[3], hosts[1], 8_000);
        assert_eq!(net.routes, fresh.routes);
        assert_eq!(net.route_end, fresh.route_end);
        assert_eq!(net.occupancy, fresh.occupancy);
        net.solve();
        fresh.solve();
        for ((_, a), (_, b)) in net.iter().zip(fresh.iter()) {
            assert_eq!(a.interval, b.interval);
        }
    }

    #[test]
    #[should_panic(expected = "flow ids must be unique and increasing")]
    fn reopening_a_live_flow_id_panics() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(3, hosts[0], hosts[6], 800);
        net.open(3, hosts[2], hosts[6], 800);
    }

    #[test]
    #[should_panic(expected = "flow ids must be unique and increasing")]
    fn opening_below_a_live_flow_id_panics() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(5, hosts[0], hosts[6], 800);
        net.open(4, hosts[2], hosts[6], 800);
    }
}
