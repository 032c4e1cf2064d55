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
//! Live flows sit in a dense table in ascending id order: `ids` and
//! `flows` (the `Copy` per-flow state), one position per flow. Their
//! routes sit back to back in a single `routes` arena of directed
//! channels, in the same order, each behind a header word that holds the
//! route's length and a mark: the level the last solve froze the flow at,
//! from which the next solve resumes. Like the GM mapper's routes, which are
//! computed once and downloaded to the NIC as flat byte strings, a flow's
//! path is written into the arena once at open and never reallocated.
//! Callers allocate ids from a monotone counter, so opening is an append.
//! A completion or close drops the flow from `ids` and `flows`, releases
//! its channels at once and marks its arena entry dead; the arena
//! compacts only when dead entries outnumber live ones, or before the
//! solver rebuilds its channel→flow index, which it keeps between solves
//! until an open or a compaction moves the arena.
//!
//! ## Determinism
//!
//! Everything is a pure function of the topology and the flow set:
//!
//! * routes come from per-root BFS in switch-id/port order (no RNG, no
//!   hash iteration);
//! * the max-min solver pops bottleneck channels in `(saturation level,
//!   channel index)` order under `f64::total_cmp`, and every flow one pop
//!   freezes adds the same level to each channel it crosses, so each
//!   channel's f64 sum is a fixed sequence whatever order a pop freezes
//!   its flows in — IEEE 754 arithmetic is deterministic when the
//!   operation order is. Arena entries are in id order, so "arena order"
//!   and "id order" are the same sequence, and a dead entry is skipped
//!   wherever it sits;
//! * each solved rate crosses to integer picoseconds exactly once via
//!   [`ByteInterval::from_rate`]; rounds, completions and byte counts are
//!   integer arithmetic from there on.
//!
//! Repeated runs therefore produce byte-identical flow schedules, and the
//! engine's state digests can cover flow state directly.

use itb_sim::{narrow, ByteInterval, SimDuration};
use itb_topo::{HostId, Node, SwitchId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Directed-channel index: link `lid` carries channel `lid*2` in its
/// `a → b` orientation and `lid*2 + 1` in `b → a` — the same convention
/// the flit model uses for its per-direction channel array.
type Chan = u32;

const NO_PRED: u16 = u16::MAX;

/// Route header word, the first arena word of every entry: the route's
/// channel count in the low `LEN_BITS` bits, its mark above them. Mark 0
/// is a live flow that is not frozen, `1..DEAD` the (1-based) freeze
/// level the last solve froze it at, kept until a solve thaws it, and
/// `DEAD` a completed or closed flow.
const LEN_BITS: u32 = 8;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
const DEAD: u32 = u32::MAX >> LEN_BITS;

/// Solver snapshots a `FlowNet` keeps for resuming (see [`FlowNet::solve`]).
const SNAPSHOTS: usize = 4;

/// Channel count of the route behind header `word`.
fn route_len(word: u32) -> usize {
    (word & LEN_MASK) as usize
}

/// Mark of header `word`.
fn mark(word: u32) -> u32 {
    word >> LEN_BITS
}

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
/// the route behind the `i`-th live header of `routes`.
pub struct FlowNet {
    switches: usize,
    /// Switch-to-switch cables in CSR layout: switch `s`'s entries are
    /// `adj[adj_off[s]..adj_off[s + 1]]`, in port order, each the
    /// neighbour and the directed channel leaving `s` on that cable.
    /// Self-loops are left out.
    adj_off: Vec<u32>,
    adj: Vec<(u16, Chan)>,
    /// Flat `switches × switches` BFS predecessor matrix: `pred[root *
    /// switches + v]` is the switch preceding `v` on the root→v path.
    pred: Vec<u16>,
    /// Per-host attachment: switch index and the host-link uplink /
    /// downlink channels.
    host_switch: Vec<u16>,
    host_up: Vec<Chan>,
    host_down: Vec<Chan>,
    /// Capacity of every directed channel in bytes/ns (the configured
    /// link bandwidth; finite and positive).
    cap: f64,
    /// Live flow ids, strictly ascending.
    ids: Vec<u64>,
    /// Per-flow state, parallel to `ids`.
    flows: Vec<Flow>,
    /// One entry per flow in id order, each a header word (see
    /// `LEN_BITS`) followed by the flow's directed channels in path
    /// order. Completed and closed flows stay behind as dead entries until
    /// the next compaction.
    routes: Vec<u32>,
    /// Dead entries in `routes`.
    dead: usize,
    /// Live flows per directed channel, maintained on open/close/complete.
    /// This — not utilisation — is the escalation signal: a work-conserving
    /// max-min solve drives every busy flow's bottleneck to 100% by
    /// construction, so "links near capacity" carries no information, but
    /// many worms sharing one channel is exactly the regime where the
    /// fluid model averages away HOL blocking and Stop&Go backpressure.
    occupancy: Vec<u32>,
    /// Per-channel solver state: the rate allocated so far (after a
    /// solve, its allocation, for reporting and diagnostics) and the
    /// unfrozen load, side by side so that a freeze's update of a hop
    /// touches one cache line.
    chans: Vec<Channel>,
    /// Channel → flow index in CSR layout: channel `c`'s flows are
    /// `index_items[index_off[c]..index_off[c + 1]]`, the arena offsets of
    /// their header words in id order. Built by the first solve after an
    /// open or a compaction and reused until the next one; entries that
    /// died since stay listed and are skipped by their mark.
    index_off: Vec<u32>,
    index_items: Vec<u32>,
    /// Whether the index describes the current arena.
    index_fresh: bool,
    /// Solver state, reused across solves so the steady-state hot path
    /// allocates nothing: the bottleneck queue, the interval of each
    /// freeze level of the last solve (mark `k` froze at
    /// `levels[k - 1]`), and the header offsets one freeze gathers, as
    /// long as the longest index segment.
    queue: BottleneckQueue,
    levels: Vec<ByteInterval>,
    batch: Vec<u32>,
    /// Freeze levels of the last solve that still hold: a solve sets it
    /// to its level count, a dropped flow lowers it below the level it
    /// froze at, and an open clears it.
    settled: u32,
    /// Solver states at pop boundaries of recent solves, ascending by
    /// level; the first `kept` are valid, the rest are spare buffers.
    snapshots: Vec<Snapshot>,
    kept: usize,
    /// Hop updates the last solve made.
    hops: u64,
    total_delivered: u64,
    solves: u64,
}

impl FlowNet {
    /// Build the flow fabric for `topo`, with every channel serving
    /// `link_bytes_per_ns` (0.16 for the 160 MB/s Myrinet link).
    ///
    /// Runs one BFS per switch over a port-ordered switch adjacency to
    /// fill the `u16` predecessor matrix — O(V·E), 2 MiB and under 10 ms
    /// at 1024 switches — so route lookup afterwards is a pure parent walk
    /// that writes straight into the route arena. The matrix holds no
    /// channels: [`open`](FlowNet::open) reads each hop's channel from the
    /// adjacency.
    ///
    /// # Panics
    /// Panics on a fabric without switches, and on a link rate that is
    /// not finite and positive: the solver would stall every flow at a
    /// rate of zero, and its bottleneck queue orders channels by load,
    /// which matches their order by level only under one positive,
    /// finite capacity.
    pub fn new(topo: &Topology, link_bytes_per_ns: f64) -> Self {
        let n = topo.num_switches();
        assert!(n > 0, "flow fabric needs at least one switch");
        assert!(
            link_bytes_per_ns.is_finite() && link_bytes_per_ns > 0.0,
            "flow link rate {link_bytes_per_ns} bytes/ns: must be finite and positive"
        );
        let channels = topo.num_links() * 2;

        let mut adj_off = Vec::with_capacity(n + 1);
        // Every switch-to-switch cable gives each end one entry.
        let mut adj = Vec::with_capacity(2 * (topo.num_links() - topo.num_hosts()));
        adj_off.push(0);
        for s in topo.switch_ids() {
            for (_, lid, v) in topo.switch_neighbors(s) {
                if v != s {
                    adj.push((v.0, directed_chan(topo, lid, Node::Switch(s))));
                }
            }
            adj_off.push(narrow::<u32, _>(adj.len()));
        }

        // Each root's BFS discovers every switch once, so one flat queue
        // serves every root. Whether a neighbour is new is close to a coin
        // flip, so the step is branch-free: every neighbour is written past
        // the queue tail (hence the spare slot) and the tail moves only
        // over a new one. That runs ~3x faster than a branch at 1024
        // switches.
        let mut pred = vec![NO_PRED; n * n];
        let mut queue = vec![0u16; n + 1];
        for (root, row) in pred.chunks_exact_mut(n).enumerate() {
            let root = narrow::<u16, _>(root);
            row[usize::from(root)] = root;
            queue[0] = root;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let u = queue[head];
                head += 1;
                let ui = usize::from(u);
                for &(v, _) in &adj[adj_off[ui] as usize..adj_off[ui + 1] as usize] {
                    let slot = &mut row[usize::from(v)];
                    let fresh = *slot == NO_PRED;
                    *slot = if fresh { u } else { *slot };
                    queue[tail] = v;
                    tail += usize::from(fresh);
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
            adj_off,
            adj,
            pred,
            host_switch,
            host_up,
            host_down,
            cap: link_bytes_per_ns,
            ids: Vec::new(),
            flows: Vec::new(),
            routes: Vec::new(),
            dead: 0,
            occupancy: vec![0; channels],
            chans: vec![Channel::default(); channels],
            index_off: Vec::new(),
            index_items: Vec::new(),
            index_fresh: false,
            queue: BottleneckQueue::default(),
            levels: Vec::new(),
            batch: Vec::new(),
            settled: 0,
            snapshots: Vec::new(),
            kept: 0,
            hops: 0,
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
    /// flow whose channel occupancy then never drains. Also panics on a
    /// route longer than the 255 channels a header word counts.
    ///
    /// [`solve`]: FlowNet::solve
    pub fn open(&mut self, id: u64, src: HostId, dst: HostId, bytes: u64) {
        if let Some(&last) = self.ids.last() {
            assert!(
                id > last,
                "flow id {id} opened after live flow id {last}: flow ids must be unique and increasing"
            );
        }
        let head = self.routes.len();
        self.routes.push(0); // the header, written once the length is known
        let s0 = usize::from(self.host_switch[src.idx()]);
        let base = s0 * self.switches;
        self.routes.push(self.host_down[dst.idx()]);
        let mut v = usize::from(self.host_switch[dst.idx()]);
        while v != s0 {
            let p = self.pred[base + v];
            assert!(p != NO_PRED, "validated topologies are connected");
            self.routes.push(self.hop_chan(usize::from(p), v));
            v = usize::from(p);
        }
        self.routes.push(self.host_up[src.idx()]);
        let route = &mut self.routes[head + 1..];
        route.reverse();
        for &c in route.iter() {
            self.occupancy[c as usize] += 1;
        }
        let len = route.len();
        assert!(
            len <= LEN_MASK as usize,
            "flow route of {len} channels: a route header counts at most 255"
        );
        self.routes[head] = narrow(len);
        self.index_fresh = false;
        self.settled = 0;
        self.ids.push(id);
        self.flows.push(Flow {
            src,
            dst,
            remaining: bytes,
            interval: ByteInterval::from_rate(0.0),
        });
    }

    /// The directed channel of the hop `p → v`: the first of `p`'s cables
    /// to `v` in port order, which is the one its BFS discovered `v`
    /// through, so parallel cables resolve as they did in the search.
    fn hop_chan(&self, p: usize, v: usize) -> Chan {
        let cables = &self.adj[self.adj_off[p] as usize..self.adj_off[p + 1] as usize];
        let Some(&(_, c)) = cables.iter().find(|&&(n, _)| usize::from(n) == v) else {
            // detlint::allow(S001, BFS sets pred[v] = p only across a cable from p to v)
            panic!("switch {p} has no cable to its BFS successor {v}");
        };
        c
    }

    /// Close every live flow whose path crosses a switch for which
    /// `crosses` holds (escalation hand-back), returning the closed flows
    /// in id order so the caller can re-inject their remaining bytes
    /// through the packet path. One pass over the table.
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
    /// flow), dropping the rest: one pass in id order compacts `ids` and
    /// `flows`, and each dropped flow releases its channels, unsettles the
    /// levels from the one it froze at, and leaves a dead arena entry
    /// behind. The arena compacts once dead entries outnumber live ones.
    fn retain(&mut self, mut keep: impl FnMut(&FlowNet, u64, &mut Flow) -> bool) {
        let (mut kept, mut head) = (0, 0);
        for i in 0..self.ids.len() {
            head = live_head(&self.routes, head);
            let word = self.routes[head];
            let id = self.ids[i];
            let mut f = self.flows[i];
            if keep(self, id, &mut f) {
                self.ids[kept] = id;
                self.flows[kept] = f;
                kept += 1;
            } else {
                self.settled = self.settled.min(mark(word).saturating_sub(1));
                self.routes[head] = (word & LEN_MASK) | DEAD << LEN_BITS;
                for &c in &self.routes[head + 1..head + 1 + route_len(word)] {
                    self.occupancy[c as usize] -= 1;
                }
                self.dead += 1;
            }
            head += 1 + route_len(word);
        }
        self.ids.truncate(kept);
        self.flows.truncate(kept);
        if self.dead > kept {
            self.compact();
        }
    }

    /// Drop the dead entries from the arena, keeping id order. The
    /// channel index is stale afterwards.
    fn compact(&mut self) {
        let (mut head, mut to) = (0, 0);
        while head < self.routes.len() {
            let end = head + 1 + route_len(self.routes[head]);
            if mark(self.routes[head]) != DEAD {
                self.routes.copy_within(head..end, to);
                to += end - head;
            }
            head = end;
        }
        self.routes.truncate(to);
        self.dead = 0;
        self.index_fresh = false;
    }

    /// Rebuild the channel → flow index over a compacted arena, in id
    /// order within each channel, and size the freeze batch to its
    /// longest segment. Each channel's `load` serves as its fill cursor.
    fn build_index(&mut self) {
        debug_assert_eq!(self.dead, 0, "the index is built over live entries");
        self.index_off.clear();
        self.index_off.push(0);
        let (mut total, mut longest) = (0, 0);
        for (&n, ch) in self.occupancy.iter().zip(&mut self.chans) {
            ch.load = total;
            total += n;
            longest = longest.max(n as usize);
            self.index_off.push(total);
        }
        self.index_items.clear();
        self.index_items.resize(total as usize, 0);
        let mut head = 0;
        while head < self.routes.len() {
            let end = head + 1 + route_len(self.routes[head]);
            let h = narrow::<u32, _>(head);
            for &c in &self.routes[head + 1..end] {
                let cursor = &mut self.chans[c as usize].load;
                self.index_items[*cursor as usize] = h;
                *cursor += 1;
            }
            head = end;
        }
        self.batch.resize(longest, 0);
        self.index_fresh = true;
    }

    /// Max-min fair allocation over the current flow set, computed
    /// bottleneck-first. Conceptually it is progressive water filling —
    /// every unfrozen flow's rate rises in lockstep until a channel
    /// saturates, the flows crossing it freeze at that level, and the
    /// filling continues on the rest — but the implementation exploits
    /// the lockstep invariant: all unfrozen flows always share one rate
    /// level λ, and a channel's *saturation level*
    /// `s_c = (cap − Σ frozen rates on c) / unfrozen_load_c`
    /// does not move while λ rises; only a freeze (which changes the
    /// channel's load and frozen sum) perturbs it. A lazy min-queue keyed
    /// by `(s_c, c)` therefore finds every bottleneck without touching
    /// the active flow set, and each flow is visited exactly once — when
    /// it freezes. Total cost is `O(Σ route length)` for the freezes plus
    /// a counting sort of the initial loads and `O(log channels)` per
    /// re-queued channel, instead of the naive `O(bottleneck levels ×
    /// active flows)`, which is the difference between milliseconds and
    /// minutes at the 100k-flow scale of the 1024-switch flow benchmark.
    ///
    /// Determinism: queue order is `f64::total_cmp` on the saturation
    /// level with ties to the lowest channel index, and a popped entry
    /// whose channel has since risen is re-queued at the recomputed level
    /// rather than acted on. Every flow a pop freezes adds the same λ to
    /// each channel it crosses, so the order of the freezes within a pop
    /// moves no f64 sum: each channel's allocation is the same sequence of
    /// additions whatever order its index segment lists the flows in
    /// (id order, as built). Each flow's
    /// solved rate is quantised through [`ByteInterval::from_rate`] — the
    /// engine's single float→time crossing — before any completion
    /// arithmetic happens.
    ///
    /// The queue is deliberately *lazy on update*: freezing a flow changes
    /// the saturation level of every channel on its route, but pushing a
    /// fresh entry per touched channel (as a textbook decrease-key
    /// substitute would) costs a push per flow×hop — the dominant
    /// wall-clock term at 100k flows. Instead a channel's level is
    /// recomputed from `(cap − alloc) / load` only when its entry
    /// surfaces at the queue front; stale surfacings re-queue once at the
    /// current level. Levels are non-decreasing across freezes, so every
    /// loaded channel always has one entry at or below its true level,
    /// which is exactly the invariant the pop order needs.
    ///
    /// Only what changed since the last solve is redone. The channel →
    /// flow index is rebuilt after an open or a compaction and reused
    /// otherwise (a dead entry in it is skipped by its mark). The pops are
    /// resumed, not repeated: each flow's header keeps the level it froze
    /// at, and a flow dropped since the last solve was unfrozen at every
    /// pop before its own level, so it added nothing to any allocation
    /// there; removing it only lowers loads, which only raises levels
    /// (IEEE division is monotone in the divisor), so every earlier pop
    /// freezes the same flows at the same λ. A solve therefore restores
    /// the last state that no dropped flow reached — the last solve's end
    /// when nothing was dropped, else the last of up to `SNAPSHOTS`
    /// snapshots below the earliest dropped level, else level 0 with a
    /// fresh queue (after any open, a full solve) — thaws the flows frozen
    /// above it while rebuilding the loads from their routes, and
    /// continues the same pop loop. A restored queue entry of a channel
    /// that a dropped flow crossed sits at or below the channel's level,
    /// so it surfaces early and re-queues like any stale entry. Snapshots
    /// are taken as the solve's hop updates pass 1/2, 3/4, 7/8 and 15/16
    /// of its total.
    ///
    /// Each bottleneck pop freezes in two passes. A branch-free gather
    /// walks the channel's index segment and collects the header of every
    /// flow not yet frozen; an apply pass then writes the level into each
    /// collected header and walks its route, adding λ to each channel's
    /// allocation and taking one off its load (the two sit in one
    /// `Channel` pair, so a hop touches one cache line). One pass in id
    /// order after the loop turns each level into the flow's interval.
    pub fn solve(&mut self) {
        self.solves += 1;
        if self.ids.is_empty() {
            self.chans.fill(Channel::default());
            self.levels.clear();
            self.hops = 0;
            return;
        }
        if !self.index_fresh {
            if self.dead > 0 {
                self.compact();
            }
            self.build_index();
        }
        let cap = self.cap;
        let (routes, chans, batch) = (&mut self.routes, &mut self.chans, &mut self.batch);
        let (off, items) = (&self.index_off, &self.index_items);
        let last = narrow::<u32, _>(self.levels.len());
        let settled = self.settled;
        self.kept = self.snapshots[..self.kept].partition_point(|s| s.level <= settled);
        let (from, mut lambda) = if settled > 0 && settled >= last {
            (last, 0.0) // nothing thaws
        } else if let Some(s) = self.kept.checked_sub(1).map(|k| &self.snapshots[k]) {
            for (ch, &alloc) in chans.iter_mut().zip(&s.alloc) {
                ch.alloc = alloc;
            }
            self.queue.next = s.next;
            self.queue.requeued.clone_from(&s.requeued);
            self.levels.truncate(s.level as usize);
            (s.level, s.lambda)
        } else {
            chans.fill(Channel::default());
            self.queue.fill(cap, &self.occupancy);
            self.levels.clear();
            (0, 0.0)
        };
        // Thaw: every flow unfrozen at the resume point (mark 0, or above
        // `from`) clears its mark and adds itself to its channels' loads.
        // From level 0 that is every live flow, whose loads are the
        // occupancy: a route crosses each directed channel at most once
        // (two host links around a shortest switch path).
        for (ch, &n) in chans.iter_mut().zip(&self.occupancy) {
            ch.load = if from == 0 { n } else { 0 };
        }
        let (mut active, mut total, mut thawed) = (0, 0u64, 0u64);
        let mut head = 0;
        for _ in 0..self.ids.len() {
            head = live_head(routes, head);
            let word = routes[head];
            let end = head + 1 + route_len(word);
            total += route_len(word) as u64;
            if mark(word).wrapping_sub(1) >= from {
                routes[head] = word & LEN_MASK;
                active += 1;
                thawed += route_len(word) as u64;
                if from > 0 {
                    for &c in &routes[head + 1..end] {
                        chans[c as usize].load += 1;
                    }
                }
            }
            head = end;
        }
        // Snapshot `k` is due once the hop updates from level 0 reach
        // `target(k)`; those kept must lie below the first one still due.
        let target = |k: usize| total - (total >> (k + 1));
        let mut work = total - thawed;
        let mut due = (0..SNAPSHOTS)
            .find(|&k| target(k) >= work)
            .unwrap_or(SNAPSHOTS);
        self.kept = self.kept.min(due);
        while active > 0 {
            let Some((key, top)) = self.queue.pop() else {
                break;
            };
            let Channel { alloc, load } = chans[top as usize];
            if load == 0 {
                continue; // drained by freezes on other bottlenecks
            }
            let s_now = (cap - alloc).max(0.0) / f64::from(load);
            if level_key(s_now) > key {
                // Stale entry: the channel rose since it was queued.
                // Re-queue it at the current level and move on.
                self.queue.push(s_now, top);
                continue;
            }
            // Saturation levels are non-decreasing along the pop order in
            // exact arithmetic; the max guards against f64 rounding dips.
            lambda = lambda.max(s_now);
            self.levels.push(ByteInterval::from_rate(lambda));
            let level = narrow::<u32, _>(self.levels.len());
            assert!(
                level < DEAD,
                "a solve freezes at {level} levels: a header mark holds at most 2^24 - 2"
            );
            // Gather: collect the headers of the channel's unfrozen flows.
            // Whether a listed flow is still unfrozen is close to a coin
            // flip, so the step is branch-free: every offset is written at
            // the batch tail, which moves only past an unfrozen one (a
            // frozen or dead flow's mark is nonzero). It only reads the
            // arena: marking here by select would store to every listed
            // header and dirty the lines of flows frozen at earlier levels.
            let c = top as usize;
            let mut frozen = 0;
            for &h in &items[off[c] as usize..off[c + 1] as usize] {
                batch[frozen] = h;
                frozen += usize::from(mark(routes[h as usize]) == 0);
            }
            // Apply: mark each gathered flow with the level and walk its
            // route. Every flow this pop freezes adds the same λ to each
            // channel it crosses, so the order of the batch moves no f64.
            active -= frozen;
            for &h in &batch[..frozen] {
                let h = h as usize;
                let word = routes[h];
                routes[h] = word | level << LEN_BITS;
                let route = &routes[h + 1..h + 1 + route_len(word)];
                work += route.len() as u64;
                for &c2 in route {
                    let ch = &mut chans[c2 as usize];
                    ch.alloc += lambda;
                    ch.load -= 1;
                }
            }
            if due < SNAPSHOTS && work >= target(due) {
                if self.kept == self.snapshots.len() {
                    self.snapshots.push(Snapshot::default());
                }
                self.snapshots[self.kept].save(level, lambda, &self.queue, chans);
                self.kept += 1;
                while due < SNAPSHOTS && work >= target(due) {
                    due += 1;
                }
            }
        }
        self.hops = work - (total - thawed);
        // Each live flow takes its level's interval (one the loop left
        // unfrozen keeps its last).
        let mut head = 0;
        for f in &mut self.flows {
            head = live_head(routes, head);
            let word = routes[head];
            if let Some(k) = mark(word).checked_sub(1) {
                f.interval = self.levels[k as usize];
            }
            head += 1 + route_len(word);
        }
        self.settled = narrow(self.levels.len());
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

    /// Hop updates (one per channel of each flow it froze) the last
    /// solve made: every live route's length after an open, only the
    /// redone tail's after completions and closes, and none when the flow
    /// set is unchanged.
    pub fn last_solve_hops(&self) -> u64 {
        self.hops
    }

    /// Post-solve allocation per directed channel (bytes/ns), in channel
    /// order.
    pub fn channel_allocation(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.chans.iter().map(|ch| ch.alloc)
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
}

/// One directed channel's solver state.
#[derive(Clone, Copy, Default)]
struct Channel {
    /// Rate allocated so far, bytes/ns.
    alloc: f64,
    /// Unfrozen flows crossing the channel.
    load: u32,
}

/// The solver's state at a pop boundary, all a later solve needs to
/// resume there besides the header marks: the loads are rebuilt from the
/// flows thawed then, and the queue's sorted run stays as the last full
/// solve filled it.
#[derive(Default)]
struct Snapshot {
    /// Freeze levels settled when it was taken.
    level: u32,
    lambda: f64,
    /// The queue's sorted-run cursor and re-queued entries.
    next: usize,
    requeued: BinaryHeap<Reverse<(u64, Chan)>>,
    /// Every channel's allocation.
    alloc: Vec<f64>,
}

impl Snapshot {
    /// Overwrite with the current state, reusing the buffers.
    fn save(&mut self, level: u32, lambda: f64, queue: &BottleneckQueue, chans: &[Channel]) {
        (self.level, self.lambda, self.next) = (level, lambda, queue.next);
        self.requeued.clone_from(&queue.requeued);
        self.alloc.clear();
        self.alloc.extend(chans.iter().map(|ch| ch.alloc));
    }
}

/// The arena offset of the first live header at or after `head`.
fn live_head(routes: &[u32], mut head: usize) -> usize {
    while mark(routes[head]) == DEAD {
        head += 1 + route_len(routes[head]);
    }
    head
}

/// The solver's bottleneck queue: a min-queue of `(saturation level,
/// channel)` keys, levels compared under `f64::total_cmp`. A solve's
/// initial levels `cap / load` arrive at once and fill a sorted run by a
/// counting sort over the loads; a channel re-queued at a risen level goes
/// to a small heap, and a pop takes the lower of the two fronts. The
/// solver re-queues only the channel it just popped, so each channel has
/// at most one entry, the keys are unique, and the pop order is the
/// sorted order of the key set — a binary heap's order — while popping a
/// drained channel off the sorted run costs O(1).
#[derive(Default)]
struct BottleneckQueue {
    sorted: Vec<(u64, Chan)>,
    /// The next entry of `sorted` to pop.
    next: usize,
    requeued: BinaryHeap<Reverse<(u64, Chan)>>,
    /// Fill scratch: per load, its channel count, then the next slot of
    /// its bucket in `sorted`.
    buckets: Vec<u32>,
}

impl BottleneckQueue {
    /// Empty the queue and fill it with every loaded channel `c` at level
    /// `cap / loads[c]`, by a counting sort over the loads. Under one
    /// positive, finite `cap` the level strictly falls as the load rises,
    /// so load descending, then channel ascending within a load, is the
    /// `(level, channel)` key order.
    fn fill(&mut self, cap: f64, loads: &[u32]) {
        let top = loads.iter().copied().max().unwrap_or(0) as usize;
        self.buckets.clear();
        self.buckets.resize(top + 1, 0);
        for &l in loads {
            self.buckets[l as usize] += 1;
        }
        let mut slot = 0;
        for b in self.buckets[1..].iter_mut().rev() {
            (*b, slot) = (slot, slot + *b);
        }
        self.sorted.clear();
        self.sorted.resize(slot as usize, (0, 0));
        for (c, &l) in loads.iter().enumerate() {
            if l > 0 {
                let at = &mut self.buckets[l as usize];
                self.sorted[*at as usize] = (level_key(cap / f64::from(l)), narrow(c));
                *at += 1;
            }
        }
        self.next = 0;
        self.requeued.clear();
    }

    /// Queue channel `c` at level `s`.
    fn push(&mut self, s: f64, c: Chan) {
        self.requeued.push(Reverse((level_key(s), c)));
    }

    /// Remove and return the lowest `(level key, channel)`.
    fn pop(&mut self) -> Option<(u64, Chan)> {
        let front = self.sorted.get(self.next).copied();
        match (front, self.requeued.peek()) {
            (Some(a), Some(&Reverse(b))) if b < a => {
                self.requeued.pop();
                Some(b)
            }
            (Some(a), _) => {
                self.next += 1;
                Some(a)
            }
            (None, _) => self.requeued.pop().map(|Reverse(b)| b),
        }
    }
}

/// `s` as an integer that orders like `f64::total_cmp`: positive values
/// above the negative ones with the sign bit set, negative ones with
/// every bit flipped.
fn level_key(s: f64) -> u64 {
    let bits = s.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
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

    /// Every live flow's route, in table (= id) order.
    fn live_routes(net: &FlowNet) -> Vec<&[Chan]> {
        let mut routes = Vec::new();
        let mut head = 0;
        for _ in 0..net.len() {
            head = live_head(&net.routes, head);
            let end = head + 1 + route_len(net.routes[head]);
            routes.push(&net.routes[head + 1..end]);
            head = end;
        }
        routes
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
        let routes = live_routes(&net);
        let r1 = routes[0];
        assert_eq!(r1.len(), 5);
        assert_eq!(routes[1], r1);
        assert_eq!(r1[0], net.host_up[a.idx()]);
        assert_eq!(r1[4], net.host_down[b.idx()]);
        assert_eq!(
            switches_of(&net, a, b),
            vec![SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)]
        );
        // Same-switch flows cross only the two host links.
        assert_eq!(routes[2].len(), 2);
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
        // The shared destination channel is allocated its full capacity.
        let l = topo.host_link(hosts[6]).idx();
        let alloc: Vec<f64> = net.channel_allocation().collect();
        let peak = alloc[2 * l].max(alloc[2 * l + 1]);
        assert!((peak - LINK).abs() < 1e-9, "{peak}");
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
        // The survivors keep their routes in id order and the closed
        // flows released their channels, like a fresh net holding only
        // the survivors. The closed entries stay in the arena (two dead
        // against two live) until the solve's index rebuild compacts it,
        // after which the arena and the rates equal the fresh net's.
        let mut fresh = FlowNet::new(&topo, LINK);
        fresh.open(2, hosts[0], hosts[2], 8_000);
        fresh.open(4, hosts[3], hosts[1], 8_000);
        assert_eq!(live_routes(&net), live_routes(&fresh));
        assert_eq!(net.occupancy, fresh.occupancy);
        assert_eq!(net.dead, 2);
        net.solve();
        fresh.solve();
        assert_eq!(net.dead, 0);
        assert_eq!(net.routes, fresh.routes);
        for ((_, a), (_, b)) in net.iter().zip(fresh.iter()) {
            assert_eq!(a.interval, b.interval);
        }
    }

    /// Reference routes: a per-root BFS over `switch_neighbors` in
    /// switch-id/port order that stores the directed channel of the last
    /// hop of every root→v path in a second n² matrix.
    struct MatrixRoutes {
        n: usize,
        pred: Vec<u16>,
        hop_chan: Vec<Chan>,
    }

    impl MatrixRoutes {
        fn new(topo: &Topology) -> Self {
            let n = topo.num_switches();
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
            MatrixRoutes { n, pred, hop_chan }
        }

        /// The `src → dst` route: source uplink, switch hops, destination
        /// downlink.
        fn route(&self, topo: &Topology, src: HostId, dst: HostId) -> Vec<Chan> {
            let s0 = topo.host_attachment(src).0.idx();
            let (s1, _) = topo.host_attachment(dst);
            let base = s0 * self.n;
            let mut rev = vec![directed_chan(topo, topo.host_link(dst), Node::Switch(s1))];
            let mut v = s1.idx();
            while v != s0 {
                rev.push(self.hop_chan[base + v]);
                v = usize::from(self.pred[base + v]);
            }
            rev.push(directed_chan(topo, topo.host_link(src), Node::Host(src)));
            rev.reverse();
            rev
        }
    }

    /// Open a flow per pair, in order, and check each one's span of the
    /// route arena against [`MatrixRoutes`].
    fn assert_routes_match_matrix(topo: &Topology, pairs: impl Iterator<Item = (HostId, HostId)>) {
        let reference = MatrixRoutes::new(topo);
        let mut net = FlowNet::new(topo, LINK);
        for (id, (src, dst)) in pairs.enumerate() {
            let head = net.routes.len();
            net.open(id as u64, src, dst, 1);
            let got = &net.routes[head + 1..];
            assert_eq!(got, reference.route(topo, src, dst), "route {src} -> {dst}");
        }
    }

    fn all_pairs(topo: &Topology) -> impl Iterator<Item = (HostId, HostId)> + '_ {
        topo.host_ids().flat_map(move |s| {
            topo.host_ids()
                .filter(move |&d| d != s)
                .map(move |d| (s, d))
        })
    }

    #[test]
    fn routes_match_the_channel_matrix_on_irregular_fabrics() {
        for switches in [16, 64] {
            let topo = builders::irregular_big(switches, switches as u64);
            assert_routes_match_matrix(&topo, all_pairs(&topo));
        }
    }

    #[test]
    fn routes_match_the_channel_matrix_across_a_self_loop() {
        let tb = builders::fig6_testbed();
        assert_routes_match_matrix(&tb.topo, all_pairs(&tb.topo));
    }

    #[test]
    fn routes_match_the_channel_matrix_on_seeded_pairs_at_1024_switches() {
        let topo = builders::irregular1024();
        let hosts = topo.num_hosts() as u64;
        let mut rng = itb_sim::SimRng::new(29);
        let pairs = std::iter::from_fn(move || {
            let s = rng.below(hosts);
            let d = (s + 1 + rng.below(hosts - 1)) % hosts;
            Some((HostId(narrow(s)), HostId(narrow(d))))
        });
        assert_routes_match_matrix(&topo, pairs.take(2_000));
    }

    #[test]
    fn parallel_cables_route_over_the_lowest_port() {
        // Two switches joined twice. Cable 0 leaves s0 on port 3 and s1
        // on port 1; cable 1 leaves s0 on port 1 and s1 on port 3. Each
        // direction must take the cable on its sender's lower port.
        let mut topo = Topology::new();
        let s0 = topo.add_switch_uniform(4);
        let s1 = topo.add_switch_uniform(4);
        let prop = builders::cable::SAN;
        let c0 = topo.connect_switches(s0, 3, s1, 1, prop).unwrap();
        let c1 = topo.connect_switches(s0, 1, s1, 3, prop).unwrap();
        let h0 = topo.add_host(itb_topo::PortKind::San);
        let h1 = topo.add_host(itb_topo::PortKind::San);
        topo.connect_host(h0, s0, 0, prop).unwrap();
        topo.connect_host(h1, s1, 0, prop).unwrap();
        topo.validate().unwrap();
        assert_routes_match_matrix(&topo, all_pairs(&topo));

        let mut net = FlowNet::new(&topo, LINK);
        net.open(1, h0, h1, 1);
        net.open(2, h1, h0, 1);
        let routes = live_routes(&net);
        assert_eq!(routes[0][1], directed_chan(&topo, c1, Node::Switch(s0)));
        assert_eq!(routes[1][1], directed_chan(&topo, c0, Node::Switch(s1)));
    }

    /// Every `occupancy[c]` equals the number of live routes crossing
    /// `c`, and no route crosses a channel twice — the two facts that let
    /// `solve` seed its load from the occupancy.
    fn assert_occupancy_counts_live_routes(net: &FlowNet) {
        let mut count = vec![0u32; net.occupancy.len()];
        for (i, route) in live_routes(net).into_iter().enumerate() {
            for (k, &c) in route.iter().enumerate() {
                assert!(
                    !route[..k].contains(&c),
                    "flow {i} crosses channel {c} twice"
                );
                count[c as usize] += 1;
            }
        }
        assert_eq!(net.occupancy, count);
        // Besides the live routes the arena holds exactly `dead` entries.
        let (mut head, mut entries) = (0, 0);
        while head < net.routes.len() {
            entries += 1;
            head += 1 + route_len(net.routes[head]);
        }
        assert_eq!(head, net.routes.len());
        assert_eq!(entries, net.len() + net.dead);
    }

    #[test]
    fn occupancy_counts_live_routes_through_open_close_and_advance() {
        let topo = builders::irregular_big(16, 16);
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let mut net = FlowNet::new(&topo, LINK);
        let mut id = 0;
        let mut open_all = |net: &mut FlowNet, bytes: u64| {
            for &s in &hosts {
                for &d in hosts.iter().step_by(5) {
                    id += 1;
                    net.open(id, s, d, bytes + id % 7 * 100);
                }
            }
        };
        open_all(&mut net, 200);
        assert_occupancy_counts_live_routes(&net);
        net.solve();
        let before = net.len();
        assert!(!net.advance(SimDuration::from_us(150)).is_empty());
        assert!(net.len() < before && !net.is_empty());
        assert_occupancy_counts_live_routes(&net);
        assert!(!net.close_crossing(|s| s == SwitchId(5)).is_empty());
        assert_occupancy_counts_live_routes(&net);
        open_all(&mut net, 50);
        assert_occupancy_counts_live_routes(&net);
        net.solve();
        net.advance(SimDuration::from_ms(100));
        assert!(net.is_empty());
        assert_occupancy_counts_live_routes(&net);
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

    #[test]
    fn completed_and_closed_flows_leave_the_table_before_compaction() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(1, hosts[0], hosts[6], 8_000); // switches 0-3
        net.open(2, hosts[2], hosts[6], 400); // switches 1-3
        net.open(3, hosts[4], hosts[1], 8_000); // switches 2-0
        net.open(4, hosts[3], hosts[1], 8_000); // switches 1-0
        net.open(5, hosts[0], hosts[2], 8_000); // switches 0-1
        net.solve();
        // Flow 2 completes: one dead entry against four live ones.
        let done = net.advance(SimDuration::from_us(6));
        assert_eq!(done.iter().map(|d| d.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!((net.dead, net.len()), (1, 4));
        assert!(net.get(2).is_none());
        assert_eq!(net.get(3).unwrap().remaining, 8_000 - 480);
        assert_eq!(
            net.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 3, 4, 5]
        );
        assert_occupancy_counts_live_routes(&net);
        // Closing flow 1, the only live one on switch 3: two dead against
        // three live, still no compaction.
        let closed = net.close_crossing(|s| s == SwitchId(3));
        assert_eq!(
            closed.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!((net.dead, net.len()), (2, 3));
        assert!(net.get(1).is_none() && net.get(2).is_none());
        assert_eq!(
            net.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_occupancy_counts_live_routes(&net);
        // The index built by the first solve is still in use.
        assert!(net.index_fresh);
        // Closing flow 3 leaves three dead against two live: the arena
        // compacts to exactly a fresh net's holding flows 4 and 5, but for
        // the marks the first solve left in the headers.
        assert_eq!(net.close_crossing(|s| s == SwitchId(2)).len(), 1);
        assert_eq!((net.dead, net.len()), (0, 2));
        assert!(!net.index_fresh);
        let mut fresh = FlowNet::new(&topo, LINK);
        fresh.open(4, hosts[3], hosts[1], 8_000);
        fresh.open(5, hosts[0], hosts[2], 8_000);
        let unmarked = |net: &FlowNet| -> Vec<u32> {
            let (mut routes, mut head) = (net.routes.clone(), 0);
            while head < routes.len() {
                routes[head] &= LEN_MASK;
                head += 1 + route_len(routes[head]);
            }
            routes
        };
        assert_eq!(unmarked(&net), unmarked(&fresh));
        assert_occupancy_counts_live_routes(&net);
    }

    #[test]
    fn the_index_is_rebuilt_only_after_an_open_or_a_compaction() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        for (id, (s, d)) in [(0, 6), (2, 6), (4, 1), (3, 1), (0, 2)]
            .into_iter()
            .enumerate()
        {
            net.open(id as u64, hosts[s], hosts[d], 800 * (id as u64 + 1));
            assert!(!net.index_fresh, "an open leaves the index stale");
        }
        net.solve();
        assert!(net.index_fresh);
        let items = net.index_items.clone();
        // Solving again, and completing one flow out of five, keep it.
        net.solve();
        // Every flow gets half a link: flow 0 (800 B) takes 10 us.
        assert_eq!(net.advance(SimDuration::from_us(12)).len(), 1);
        assert!(net.index_fresh && net.dead == 1);
        net.solve();
        assert_eq!(net.index_items, items, "the solve reused the index");
        // An open stales it; the next solve compacts, then rebuilds.
        net.open(9, hosts[5], hosts[7], 800);
        assert!(!net.index_fresh && net.dead == 1);
        net.solve();
        assert!(net.index_fresh && net.dead == 0);
        assert_occupancy_counts_live_routes(&net);
    }

    #[test]
    #[should_panic(expected = "a route header counts at most 255")]
    fn a_route_longer_than_a_header_counts_panics() {
        // 255 switch hops plus the two host links.
        let topo = builders::chain(256, 1);
        let mut net = FlowNet::new(&topo, LINK);
        net.open(0, HostId(0), HostId(255), 1);
    }

    #[test]
    fn level_keys_order_like_total_cmp() {
        let levels = [
            f64::NEG_INFINITY,
            -3.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.08,
            0.16,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in levels {
            for b in levels {
                assert_eq!(
                    level_key(a).cmp(&level_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Reference queue entry, ordered in reverse so a `BinaryHeap` (a
    /// max-heap) pops the lowest level first, ties to the lowest channel.
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

    #[test]
    fn bottleneck_queue_pops_in_binary_heap_order() {
        let mut rng = itb_sim::SimRng::new(0x9e3);
        let mut queue = BottleneckQueue::default();
        for trial in 0..200 {
            // Loads from a few distinct values, so ties (broken by channel
            // index) are common; some channels are unloaded and left out.
            let channels = 1 + rng.below(300);
            let distinct = 1 + rng.below(8);
            let scale = 1 + rng.below(1_000);
            let loads: Vec<u32> = (0..channels)
                .map(|_| {
                    if rng.below(5) == 0 {
                        0
                    } else {
                        narrow(1 + rng.below(distinct) * scale)
                    }
                })
                .collect();
            queue.fill(LINK, &loads);
            let mut reference: BinaryHeap<ChanSat> = (0..)
                .zip(&loads)
                .filter(|&(_, &l)| l > 0)
                .map(|(c, &l)| ChanSat {
                    s: LINK / f64::from(l),
                    c,
                })
                .collect();
            let mut pops = 0;
            loop {
                let got = queue.pop();
                let want = reference.pop();
                assert_eq!(
                    got,
                    want.map(|w| (level_key(w.s), w.c)),
                    "trial {trial} pop {pops}"
                );
                let (Some((_, c)), Some(w)) = (got, want) else {
                    break;
                };
                pops += 1;
                // Re-queue some popped channels at a higher level, often
                // one that ties with the channels of a lower load still
                // queued.
                if rng.below(3) == 0 {
                    let l = 1 + rng.below(distinct) * scale;
                    let s = w.s.max(LINK / l as f64) + 0.01 * rng.below(2) as f64;
                    queue.push(s, c);
                    reference.push(ChanSat { s, c });
                }
            }
            assert!(pops >= loads.iter().filter(|&&l| l > 0).count());
        }
    }

    #[test]
    fn levels_strictly_fall_as_the_load_rises() {
        // The fill's precondition for the solver's capacity.
        let mut prev = level_key(LINK);
        for l in 2..=1u32 << 20 {
            let key = level_key(LINK / f64::from(l));
            assert!(key < prev, "load {l}");
            prev = key;
        }
    }

    #[test]
    #[should_panic(expected = "flow link rate 0 bytes/ns: must be finite and positive")]
    fn a_zero_link_rate_panics() {
        FlowNet::new(&builders::chain(2, 1), 0.0);
    }

    #[test]
    fn non_finite_and_negative_link_rates_panic() {
        for rate in [f64::NAN, f64::INFINITY, -0.16] {
            let topo = builders::chain(2, 1);
            let got = std::panic::catch_unwind(|| FlowNet::new(&topo, rate));
            assert!(got.is_err(), "rate {rate}");
        }
    }

    #[test]
    fn the_freeze_order_within_a_pop_moves_no_rate() {
        let topo = builders::irregular_big(32, 5);
        let hosts = topo.num_hosts() as u64;
        let mut net = FlowNet::new(&topo, LINK);
        let mut rng = itb_sim::SimRng::new(0x0dd);
        for id in 0..3_000 {
            let s = rng.below(hosts);
            let d = (s + 1 + rng.below(hosts - 1)) % hosts;
            net.open(id, HostId(narrow(s)), HostId(narrow(d)), 1_000);
        }
        net.solve();
        let rates = |net: &FlowNet| -> (Vec<ByteInterval>, Vec<u64>) {
            (
                net.iter().map(|(_, f)| f.interval).collect(),
                net.channel_allocation().map(f64::to_bits).collect(),
            )
        };
        let before = rates(&net);
        // Several flows freeze at many pops: the test checks something.
        assert!(net.levels.len() > 10 && net.len() > 10 * net.levels.len());
        for c in 0..net.occupancy.len() {
            let (a, b) = (net.index_off[c] as usize, net.index_off[c + 1] as usize);
            net.index_items[a..b].reverse();
        }
        // Unsettle every level, so the second solve redoes every pop.
        net.settled = 0;
        net.solve();
        assert!(net.index_fresh, "the second solve used the reversed index");
        assert_eq!(net.last_solve_hops(), full_hops(&net));
        assert_eq!(rates(&net), before);
    }

    /// 3,000 seeded flows of 1 MB on `irregular_big(32, 5)`, solved once.
    fn solved_net() -> (Topology, FlowNet) {
        let topo = builders::irregular_big(32, 5);
        let hosts = topo.num_hosts() as u64;
        let mut net = FlowNet::new(&topo, LINK);
        let mut rng = itb_sim::SimRng::new(0x5e7);
        for id in 0..3_000 {
            let s = rng.below(hosts);
            let d = (s + 1 + rng.below(hosts - 1)) % hosts;
            net.open(id, HostId(narrow(s)), HostId(narrow(d)), 1_000_000);
        }
        net.solve();
        (topo, net)
    }

    /// Hop updates of a full solve: the length of every live route.
    fn full_hops(net: &FlowNet) -> u64 {
        net.occupancy.iter().map(|&n| u64::from(n)).sum()
    }

    /// The level each live flow froze at, in id order.
    fn marks(net: &FlowNet) -> Vec<u32> {
        let (mut marks, mut head) = (Vec::new(), 0);
        for _ in 0..net.len() {
            head = live_head(&net.routes, head);
            marks.push(mark(net.routes[head]));
            head += 1 + route_len(net.routes[head]);
        }
        marks
    }

    /// Every interval and allocation bit equals a fresh net's holding the
    /// same flows.
    fn assert_solves_like_fresh(topo: &Topology, net: &FlowNet) {
        let mut fresh = FlowNet::new(topo, LINK);
        for (id, f) in net.iter() {
            fresh.open(id, f.src, f.dst, f.remaining);
        }
        fresh.solve();
        let intervals = |n: &FlowNet| n.iter().map(|(id, f)| (id, f.interval)).collect::<Vec<_>>();
        let bits = |n: &FlowNet| n.channel_allocation().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(intervals(net), intervals(&fresh));
        assert_eq!(bits(net), bits(&fresh));
    }

    /// Leave one byte on each flow the last solve froze at its last level,
    /// so that a short round completes exactly those.
    fn complete_the_last_level(net: &mut FlowNet) {
        let marks = marks(net);
        let last = narrow::<u32, _>(net.levels.len());
        let mut victims = 0;
        for (f, &m) in net.flows.iter_mut().zip(&marks) {
            if m == last {
                f.remaining = 1;
                victims += 1;
            }
        }
        assert_eq!(net.advance(SimDuration::from_us(10)).len(), victims);
    }

    #[test]
    fn a_solve_after_only_completions_and_closes_resumes() {
        let (topo, mut net) = solved_net();
        assert_eq!(net.last_solve_hops(), full_hops(&net));
        assert_eq!(net.kept, SNAPSHOTS, "every snapshot was taken");
        complete_the_last_level(&mut net);
        net.solve();
        // The flows of the last level froze after the 15/16 snapshot.
        let hops = net.last_solve_hops();
        assert!(0 < hops && 16 * hops <= full_hops(&net), "{hops}");
        assert_solves_like_fresh(&topo, &net);
        // A close resumes too. On the chain, four flows share the 2 -> 3
        // cable (the first level) and two lone flows stay on switches 0
        // and 1 (the last two); closing switch 0 drops one of the lone
        // flows, and the other at most is redone.
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        for (id, (s, d)) in [(4, 6), (5, 6), (4, 7), (5, 7), (0, 1), (2, 3)]
            .into_iter()
            .enumerate()
        {
            net.open(id as u64, hosts[s], hosts[d], 8_000);
        }
        net.solve();
        assert_eq!(marks(&net), [1, 1, 1, 1, 2, 3]);
        assert_eq!(net.close_crossing(|s| s == SwitchId(0)).len(), 1);
        net.solve();
        assert_eq!(net.last_solve_hops(), 2, "only flow 5 froze again");
        assert_solves_like_fresh(&topo, &net);
    }

    #[test]
    fn a_solve_after_any_open_is_full() {
        let (topo, mut net) = solved_net();
        complete_the_last_level(&mut net);
        net.open(3_000, HostId(0), HostId(1), 1_000);
        net.solve();
        assert_eq!(net.last_solve_hops(), full_hops(&net));
        assert_solves_like_fresh(&topo, &net);
    }

    #[test]
    fn a_solve_of_an_unchanged_flow_set_does_no_freeze_work() {
        let (topo, mut net) = solved_net();
        let rates = |net: &FlowNet| -> (Vec<ByteInterval>, Vec<u64>) {
            (
                net.iter().map(|(_, f)| f.interval).collect(),
                net.channel_allocation().map(f64::to_bits).collect(),
            )
        };
        let before = rates(&net);
        net.solve();
        assert_eq!(net.last_solve_hops(), 0);
        assert_eq!(rates(&net), before);
        // A round that completes nothing changes no rate either.
        assert!(net.advance(SimDuration::from_ns(1)).is_empty());
        net.solve();
        assert_eq!(net.last_solve_hops(), 0);
        assert_eq!(rates(&net), before);
        assert_solves_like_fresh(&topo, &net);
    }
}
