//! The wormhole network state machine.
//!
//! All mutable network state lives in [`Network`]; time passes through
//! [`NetEvent`]s scheduled via the [`NetSched`] trait. See the crate docs
//! for the modelling rules.

use crate::config::{Arbitration, NetConfig};
use crate::fault::FaultPlan;
use crate::packet::{PacketDesc, PacketId, PacketState};
use crate::slab::IdSlab;
use crate::stats::NetStats;
use itb_obs::{PacketTracer, Stage};
use itb_sim::stats::Accum;
use itb_sim::{narrow, FxHashMap, SimDuration, SimRng, SimTime};
use itb_topo::{HostId, Node, Partition, PortIx, SwitchId, Topology};
use std::collections::VecDeque;

/// Scheduling hook: the embedding world turns these into entries of its own
/// event queue.
pub trait NetSched {
    /// Schedule `ev` to be handed back to [`Network::handle`] at time `t`.
    fn at(&mut self, t: SimTime, ev: NetEvent);
}

impl NetSched for itb_sim::EventQueue<NetEvent> {
    fn at(&mut self, t: SimTime, ev: NetEvent) {
        self.schedule(t, ev);
    }
}

/// Network-internal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetEvent {
    /// A channel finished serializing one flit.
    TxDone {
        /// Channel index.
        ch: u32,
    },
    /// A flit lands at the far end of a channel.
    RxFlit {
        /// Channel index.
        ch: u32,
        /// Packet the flit belongs to.
        packet: PacketId,
        /// Bytes in this flit.
        bytes: u32,
        /// First flit of the packet at this traversal stage.
        head: bool,
        /// Last flit of the packet at this traversal stage.
        tail: bool,
    },
    /// A switch input port finished its head fall-through and routes its
    /// front packet.
    RouteReady {
        /// Switch.
        sw: SwitchId,
        /// Input port on that switch.
        port: PortIx,
    },
    /// A STOP (`stop = true`) or GO control byte reaches a channel's sender.
    Ctrl {
        /// Channel whose sender is being paused/resumed.
        ch: u32,
        /// STOP when true, GO when false.
        stop: bool,
    },
}

/// What the network tells the NIC layer. Drained with
/// [`Network::drain_indications_into`] after each handled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostIndication {
    /// First flit (≥ 4 bytes) of a packet reached the host — the trigger
    /// condition of the modified MCP's *Early Recv Packet* event.
    HeadArrived {
        /// Receiving host.
        host: HostId,
        /// The packet.
        packet: PacketId,
    },
    /// More bytes arrived; `received` is the running total at this host.
    BytesArrived {
        /// Receiving host.
        host: HostId,
        /// The packet.
        packet: PacketId,
        /// Total bytes received so far at this traversal stage.
        received: u32,
    },
    /// The tail arrived; the packet is fully in NIC memory.
    PacketComplete {
        /// Receiving host.
        host: HostId,
        /// The packet.
        packet: PacketId,
        /// Total wire bytes received.
        received: u32,
    },
    /// The host's send serializer (send DMA) finished injecting a packet.
    InjectionComplete {
        /// Sending host.
        host: HostId,
        /// The packet.
        packet: PacketId,
    },
}

/// Who feeds a directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChanSource {
    SwitchOut { sw: SwitchId, port: PortIx },
    HostTx(HostId),
}

/// Who consumes a directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChanSink {
    SwitchIn { sw: SwitchId, port: PortIx },
    HostRx(HostId),
}

/// One directed channel (half of a full-duplex cable).
#[derive(Debug)]
struct Channel {
    source: ChanSource,
    sink: ChanSink,
    prop: SimDuration,
    tx_busy: bool,
    paused: bool,
    /// Last flit of the current packet is in the serializer.
    finishing: bool,
    /// For `SwitchOut` sources: the granted input port.
    grant: Option<PortIx>,
    /// Most recently granted input port (round-robin arbitration state).
    last_granted: Option<PortIx>,
    /// Input ports queued for this output.
    waiting: VecDeque<PortIx>,
    /// Stats.
    bytes_sent: u64,
    paused_since: Option<SimTime>,
    paused_total: SimDuration,
}

/// A packet queued at a host's send serializer.
#[derive(Debug)]
struct HostTxPkt {
    id: PacketId,
    total: u32,
    avail: u32,
    sent: u32,
}

/// A packet currently streaming into a host.
#[derive(Debug)]
struct HostRxPkt {
    id: PacketId,
    received: u32,
}

#[derive(Debug)]
struct HostPort {
    tx_chan: u32,
    /// Channel delivering into this host (paused by NIC backpressure).
    rx_chan: u32,
    tx_queue: VecDeque<HostTxPkt>,
    rx_current: Option<HostRxPkt>,
}

/// A packet inside a switch input port's slack buffer.
#[derive(Debug)]
struct InPkt {
    id: PacketId,
    routed: bool,
    granted: bool,
    out_port: Option<PortIx>,
    received: u32,
    forwarded: u32,
    tail_seen: bool,
}

#[derive(Debug)]
struct InputPort {
    /// Channel feeding this port (where STOP/GO is sent).
    in_chan: u32,
    occupancy: u32,
    stopped: bool,
    route_pending: bool,
    queue: VecDeque<InPkt>,
}

/// Compiled link-fault state (built from a [`FaultPlan`]).
struct FaultState {
    rng: SimRng,
    /// `(drop, corrupt)` probabilities, indexed by link.
    probs: Vec<(f64, f64)>,
    /// Outage windows `(from, until)`, indexed by link.
    down: Vec<Vec<(SimTime, SimTime)>>,
}

/// A cross-shard network effect captured during a parallel window: an event
/// that must fire on another shard, optionally carrying the packet's
/// registry state (shipped with the head flit the first time a worm crosses
/// a cut cable). Opaque outside this crate: the parallel cluster driver
/// moves these between shards and hands them back through
/// [`Network::adopt_handoff`].
#[derive(Debug)]
pub struct NetHandoff {
    fire_at: SimTime,
    /// Clock of the event that produced this effect (the sequential
    /// schedule rank).
    rank_time: SimTime,
    /// Source-shard capture sequence (FIFO among one shard's handoffs).
    seq: u64,
    ev: NetEvent,
    /// Registry state travelling with a head flit over a cut cable.
    state: Option<Box<PacketState>>,
}

impl NetHandoff {
    /// Absolute time the event fires on the destination shard.
    pub fn fire_at(&self) -> SimTime {
        self.fire_at
    }

    /// Schedule rank: the clock of the producing event on the source shard.
    pub fn rank_time(&self) -> SimTime {
        self.rank_time
    }

    /// Source-shard capture sequence.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Sharded-execution context (parallel runs only; `None` keeps every
/// sequential code path byte-for-byte unchanged).
struct NetShardCtx {
    /// This shard's id.
    me: u32,
    /// Total shard count — also the packet-id stride: shard `s` allocates
    /// ids `s, s + stride, s + 2·stride, …` so allocations on different
    /// shards can never collide.
    stride: u64,
    /// Shard owning each channel's *source* node (mutator of its state).
    chan_src_shard: Vec<u32>,
    /// Shard owning each channel's *sink* node.
    chan_sink_shard: Vec<u32>,
    /// Per-destination-shard handoff buffers for the current window.
    outboxes: Vec<Vec<NetHandoff>>,
    /// Capture sequence for this shard's handoffs.
    out_seq: u64,
}

impl NetShardCtx {
    /// Buffer `ev` for shard `dst` instead of scheduling it locally.
    fn handoff(
        &mut self,
        dst: u32,
        fire_at: SimTime,
        rank_time: SimTime,
        ev: NetEvent,
        state: Option<Box<PacketState>>,
    ) {
        self.out_seq += 1;
        self.outboxes[dst as usize].push(NetHandoff {
            fire_at,
            rank_time,
            seq: self.out_seq,
            ev,
            state,
        });
    }
}

/// The complete network model. See crate docs.
pub struct Network {
    // detlint::allow(T003, per-run wiring: the topology is fixed before the first event and never mutated)
    topo: Topology,
    // detlint::allow(T003, per-run timing/arbitration configuration: fixed before the first event and never mutated)
    cfg: NetConfig,
    chans: Vec<Channel>,
    /// `[switch][port]` — input-port state for cabled ports.
    inputs: Vec<Vec<Option<InputPort>>>,
    /// `[switch][port]` — outgoing channel index for cabled ports.
    // detlint::allow(T003, derived routing index: rebuilt from the digested topology and never mutated)
    out_chan: Vec<Vec<Option<u32>>>,
    hosts: Vec<HostPort>,
    /// Registry of live packets. Ids are monotonic and short-lived, so a
    /// sliding-window slab makes every per-flit lookup an index, not a hash.
    packets: IdSlab<PacketState>,
    next_packet: u64,
    indications: Vec<HostIndication>,
    // detlint::allow(T003, diagnostics counters: never read by a transition)
    stats: NetStats,
    /// Shared packet-lifecycle tracer: the network owns it because every
    /// layer (NIC firmware, GM host software) holds `&mut Network` at its
    /// instrumentation points. Disabled by default.
    // detlint::allow(T003, observability sidecar: trace records are exported, never read by a transition)
    tracer: PacketTracer,
    /// Durations of individual STOP-pause intervals, any channel (ns).
    // detlint::allow(T003, diagnostics accumulator: never read by a transition)
    blocking: Accum,
    /// Link-fault injection state (None = clean fabric).
    // detlint::allow(T003, probabilistic fault stream: exercised only by the chaos soak; checker runs drive faults through the digested forced-down overlay)
    faults: Option<FaultState>,
    /// Links held down by direct request ([`Network::set_link_forced_down`]),
    /// indexed by link. Orthogonal to any [`FaultPlan`] outage windows: the
    /// model checker drives this overlay to explore link-down interleavings
    /// without a probabilistic plan.
    forced_down: Vec<bool>,
    /// Sharded-execution context (None = sequential run).
    shard: Option<NetShardCtx>,
    /// Packets owned by another shard that are currently traversing this
    /// one (adopted from a head-flit handoff). Kept out of the [`IdSlab`]:
    /// its sliding window forbids re-registering an id, and foreign ids
    /// don't belong to this shard's stride anyway.
    foreign: FxHashMap<u64, PacketState>,
}

impl Network {
    /// Build the model for `topo` under `cfg`.
    pub fn new(topo: Topology, cfg: NetConfig) -> Self {
        assert!(
            cfg.flit_bytes >= 4,
            "head flit must carry the 4-byte early-recv window"
        );
        let nl = topo.num_links();
        let mut chans = Vec::with_capacity(nl * 2);
        for lid in topo.link_ids() {
            let link = topo.link(lid);
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                let source = match from.node {
                    Node::Switch(sw) => ChanSource::SwitchOut {
                        sw,
                        port: from.port,
                    },
                    Node::Host(h) => ChanSource::HostTx(h),
                };
                let sink = match to.node {
                    Node::Switch(sw) => ChanSink::SwitchIn { sw, port: to.port },
                    Node::Host(h) => ChanSink::HostRx(h),
                };
                chans.push(Channel {
                    source,
                    sink,
                    prop: link.propagation,
                    tx_busy: false,
                    paused: false,
                    finishing: false,
                    grant: None,
                    last_granted: None,
                    waiting: VecDeque::new(),
                    bytes_sent: 0,
                    paused_since: None,
                    paused_total: SimDuration::ZERO,
                });
            }
        }
        let mut inputs: Vec<Vec<Option<InputPort>>> = topo
            .switch_ids()
            .map(|s| (0..topo.switch_port_count(s)).map(|_| None).collect())
            .collect();
        let mut out_chan: Vec<Vec<Option<u32>>> =
            inputs.iter().map(|v| vec![None; v.len()]).collect();
        let mut host_tx: Vec<Option<u32>> = vec![None; topo.num_hosts()];
        let mut host_rx: Vec<Option<u32>> = vec![None; topo.num_hosts()];
        for (ci, c) in chans.iter().enumerate() {
            match c.sink {
                ChanSink::HostRx(h) => host_rx[h.idx()] = Some(narrow(ci)),
                ChanSink::SwitchIn { sw, port } => {
                    inputs[sw.idx()][port.idx()] = Some(InputPort {
                        in_chan: narrow(ci),
                        occupancy: 0,
                        stopped: false,
                        route_pending: false,
                        queue: VecDeque::new(),
                    });
                }
            }
            match c.source {
                ChanSource::SwitchOut { sw, port } => {
                    out_chan[sw.idx()][port.idx()] = Some(narrow(ci));
                }
                ChanSource::HostTx(h) => host_tx[h.idx()] = Some(narrow(ci)),
            }
        }
        let hosts = host_tx
            .into_iter()
            .zip(host_rx)
            .map(|(tx, rx)| HostPort {
                // detlint::allow(S001, build wires a channel pair for every host port)
                tx_chan: tx.expect("every host is wired"),
                // detlint::allow(S001, build wires a channel pair for every host port)
                rx_chan: rx.expect("every host is wired"),
                tx_queue: VecDeque::new(),
                rx_current: None,
            })
            .collect();
        Network {
            topo,
            cfg,
            chans,
            inputs,
            out_chan,
            hosts,
            packets: IdSlab::default(),
            next_packet: 0,
            indications: Vec::new(),
            stats: NetStats::default(),
            tracer: PacketTracer::default(),
            blocking: Accum::new(),
            faults: None,
            forced_down: vec![false; nl],
            shard: None,
            foreign: FxHashMap::default(),
        }
    }

    /// Enter sharded-parallel mode: this instance models shard `me` of
    /// `part` and buffers cross-shard effects into per-destination outboxes
    /// (drained by [`Network::take_net_outbox`], delivered through
    /// [`Network::adopt_handoff`]).
    ///
    /// Must be called on a freshly built network, before any injection, and
    /// only for configurations whose event flow is shard-independent: a
    /// fault plan draws from one global RNG, and the lifecycle tracer keeps
    /// one global record, so neither would match the sequential run.
    ///
    /// # Panics
    /// Panics on any violated precondition.
    pub fn set_shard_ctx(&mut self, me: u32, part: &Partition) {
        assert!(me < part.shards, "shard id out of range");
        assert!(
            self.packets.is_empty() && self.next_packet == 0,
            "shard context must be installed before any injection"
        );
        assert!(
            self.faults.is_none(),
            "parallel mode requires a no-fault plan"
        );
        assert!(
            !self.tracer.is_enabled(),
            "parallel mode forbids the lifecycle tracer"
        );
        let chan_src_shard = self
            .chans
            .iter()
            .map(|c| match c.source {
                ChanSource::SwitchOut { sw, .. } => part.shard_of(sw),
                ChanSource::HostTx(h) => part.host_shard(h),
            })
            .collect();
        let chan_sink_shard = self
            .chans
            .iter()
            .map(|c| match c.sink {
                ChanSink::SwitchIn { sw, .. } => part.shard_of(sw),
                ChanSink::HostRx(h) => part.host_shard(h),
            })
            .collect();
        // Host cables never cross shards (hosts shard with their switch).
        debug_assert!(self.chans.iter().all(|c| {
            match (c.source, c.sink) {
                (ChanSource::HostTx(h), ChanSink::SwitchIn { sw, .. })
                | (ChanSource::SwitchOut { sw, .. }, ChanSink::HostRx(h)) => {
                    part.host_shard(h) == part.shard_of(sw)
                }
                _ => true,
            }
        }));
        self.next_packet = u64::from(me);
        self.shard = Some(NetShardCtx {
            me,
            stride: u64::from(part.shards),
            chan_src_shard,
            chan_sink_shard,
            outboxes: (0..part.shards).map(|_| Vec::new()).collect(),
            out_seq: 0,
        });
    }

    /// Allocate a capture-sequence number from this shard's *single*
    /// envelope counter. Cross-shard delivery notices (captured by the GM
    /// layer) draw from the same counter as net handoffs, so every envelope
    /// a shard emits carries a globally unique
    /// `(fire time, rank time, shard, seq)` merge key — the uniqueness the
    /// parallel merge order is documented to rely on.
    ///
    /// # Panics
    /// Panics outside sharded mode (sequential runs never capture).
    pub fn alloc_handoff_seq(&mut self) -> u64 {
        // detlint::allow(S001, callers capture cross-shard envelopes, which only exist after set_shard_ctx installed the context)
        let s = self.shard.as_mut().expect("sharded mode only");
        s.out_seq += 1;
        s.out_seq
    }

    /// Drain the handoffs captured for shard `dst` during the current
    /// window, in capture (= deterministic execution) order.
    pub fn take_net_outbox(&mut self, dst: u32) -> Vec<NetHandoff> {
        match self.shard.as_mut() {
            Some(s) => std::mem::take(&mut s.outboxes[dst as usize]),
            None => Vec::new(),
        }
    }

    /// Accept a handoff from another shard: adopt any carried packet state
    /// and return the event, which the caller schedules with the handoff's
    /// rank (see `EventQueue::schedule_ranked`).
    pub fn adopt_handoff(&mut self, h: NetHandoff) -> NetEvent {
        if let Some(state) = h.state {
            let NetEvent::RxFlit { packet, .. } = h.ev else {
                unreachable!("only head-flit handoffs carry packet state");
            };
            let prev = self.foreign.insert(packet.0, *state);
            debug_assert!(prev.is_none(), "packet {packet:?} adopted twice");
        }
        h.ev
    }

    /// Registry lookup spanning both owned (slab) and adopted (foreign)
    /// packets. Sequential runs hit the slab only — same code, zero cost.
    #[inline]
    fn pkt_get(&self, id: u64) -> Option<&PacketState> {
        let key = match &self.shard {
            None => id,
            Some(s) if id % s.stride == u64::from(s.me) => id / s.stride,
            Some(_) => return self.foreign.get(&id),
        };
        self.packets.get(key).or_else(|| self.foreign.get(&id))
    }

    /// Exclusive [`Network::pkt_get`].
    #[inline]
    fn pkt_get_mut(&mut self, id: u64) -> Option<&mut PacketState> {
        let key = match &self.shard {
            None => id,
            Some(s) if id % s.stride == u64::from(s.me) => id / s.stride,
            Some(_) => return self.foreign.get_mut(&id),
        };
        match self.packets.get_mut(key) {
            Some(p) => Some(p),
            None => self.foreign.get_mut(&id),
        }
    }

    /// Remove a packet from whichever registry holds it.
    #[inline]
    fn pkt_remove(&mut self, id: u64) -> Option<PacketState> {
        let key = match &self.shard {
            None => id,
            Some(s) if id % s.stride == u64::from(s.me) => id / s.stride,
            Some(_) => return self.foreign.remove(&id),
        };
        match self.packets.remove(key) {
            Some(p) => Some(p),
            None => self.foreign.remove(&id),
        }
    }

    /// Install the link-level faults of `plan` (seeded probabilistic
    /// drop/corruption per link, scheduled outage windows). Host crashes in
    /// the plan are ignored here — the cluster layer executes them against
    /// the NICs it owns. A no-op plan clears any previous fault state.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_noop() {
            self.faults = None;
            return;
        }
        let nl = self.topo.num_links();
        let probs = self
            .topo
            .link_ids()
            .map(|lid| plan.probs_for(lid))
            .collect();
        let mut down = vec![Vec::new(); nl];
        for w in &plan.down_windows {
            assert!(
                w.link.idx() < nl,
                "down window names unknown link {:?}",
                w.link
            );
            down[w.link.idx()].push((w.from, w.until));
        }
        self.faults = Some(FaultState {
            rng: SimRng::new(plan.seed),
            probs,
            down,
        });
    }

    /// Hold `link` down (or bring it back up) by direct request, independent
    /// of any fault plan. While down, every head flit arriving over the link
    /// is marked corrupted, exactly like a [`FaultPlan`] outage window — the
    /// worm still occupies the wire and is discarded by the destination
    /// NIC's CRC check. The model checker uses this to enumerate link-down
    /// interleavings deterministically.
    pub fn set_link_forced_down(&mut self, link: itb_topo::LinkId, down: bool) {
        self.forced_down[link.idx()] = down;
    }

    /// Whether `link` is currently held down by
    /// [`Network::set_link_forced_down`].
    pub fn link_forced_down(&self, link: itb_topo::LinkId) -> bool {
        self.forced_down[link.idx()]
    }

    /// Damage the CRC of a live packet by direct request — the model
    /// checker's deterministic drop action. The packet keeps traversing the
    /// wire and is discarded at the destination NIC's completion check, the
    /// same downstream path every probabilistic fault takes. Returns whether
    /// the packet existed and was not already corrupted (counted under
    /// `NetStats::forced_corrupts`).
    pub fn force_corrupt(&mut self, id: PacketId) -> bool {
        match self.pkt_get_mut(id.0) {
            Some(pkt) if !pkt.corrupted => {
                pkt.corrupted = true;
                self.stats.forced_corrupts += 1;
                true
            }
            _ => false,
        }
    }

    /// Roll the probabilistic link faults for a packet whose head is being
    /// put onto channel `ch` (the sender-side garbling point). A hit marks
    /// the packet corrupted: it still occupies the wire to its destination,
    /// where the CRC tail check discards it.
    fn roll_link_faults(&mut self, ch: u32, id: PacketId) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        // Channels are laid out pairwise per link: lid*2 fwd, lid*2+1 rev.
        let lid = (ch / 2) as usize;
        let (drop_p, corrupt_p) = f.probs[lid];
        if drop_p <= 0.0 && corrupt_p <= 0.0 {
            return;
        }
        let roll = f.rng.f64();
        let pkt = self.packet_mut(id);
        if roll < drop_p {
            if !pkt.corrupted {
                pkt.corrupted = true;
                self.stats.fault_drops += 1;
            }
        } else if roll < drop_p + corrupt_p && !pkt.corrupted {
            pkt.corrupted = true;
            self.stats.fault_corrupts += 1;
        }
    }

    /// Check the scheduled outage windows — and the forced-down overlay —
    /// for a head flit arriving over channel `ch` at `now`; on a downed
    /// link the packet is lost (marked corrupted, counted separately).
    fn check_link_down(&mut self, ch: u32, id: PacketId, now: SimTime) {
        let lid = (ch / 2) as usize;
        let forced = self.forced_down[lid];
        let windowed = self.faults.as_ref().is_some_and(|f| {
            f.down[lid]
                .iter()
                .any(|&(from, until)| from <= now && now < until)
        });
        if !forced && !windowed {
            return;
        }
        let pkt = self.packet_mut(id);
        if !pkt.corrupted {
            pkt.corrupted = true;
            self.stats.link_down_drops += 1;
        }
    }

    /// The wired topology (shared with higher layers).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The shared packet-lifecycle tracer (read side).
    pub fn tracer(&self) -> &PacketTracer {
        &self.tracer
    }

    /// The shared packet-lifecycle tracer; enable/clear through this. Other
    /// layers also record their firmware stages through it (the network owns
    /// the tracer because every layer holds `&mut Network` at its
    /// instrumentation points).
    pub fn tracer_mut(&mut self) -> &mut PacketTracer {
        &mut self.tracer
    }

    /// Record a lifecycle stage for a packet (single branch when disabled).
    #[inline]
    pub fn trace(&mut self, id: PacketId, stage: Stage, node: u32, t: SimTime) {
        self.tracer.record(id.0, stage, node, t);
    }

    /// Distribution of individual STOP-pause interval lengths across all
    /// channels, in nanoseconds (always on; one sample per resume).
    pub fn blocking_times(&self) -> &Accum {
        &self.blocking
    }

    /// Drain pending host indications, in emission order, into `buf`
    /// (cleared first), keeping `buf`'s capacity. The steady-state event
    /// loop calls this once per event; swapping buffers instead of
    /// allocating keeps the loop allocation-free.
    pub fn drain_indications_into(&mut self, buf: &mut Vec<HostIndication>) {
        buf.clear();
        std::mem::swap(&mut self.indications, buf);
    }

    /// Number of packets still registered (in flight or awaiting retire),
    /// counting adopted foreign packets in parallel runs.
    pub fn in_flight(&self) -> usize {
        self.packets.len() + self.foreign.len()
    }

    /// Inspect an in-flight packet (panics on unknown id).
    pub fn packet(&self, id: PacketId) -> &PacketState {
        // detlint::allow(S001, packet ids stay live in the registry until delivery removes them)
        self.pkt_get(id.0).expect("packet exists")
    }

    /// Exclusive [`Network::packet`].
    fn packet_mut(&mut self, id: PacketId) -> &mut PacketState {
        // detlint::allow(S001, packet ids stay live in the registry until delivery removes them)
        self.pkt_get_mut(id.0).expect("packet exists")
    }

    /// The two-byte packet type currently at the head of a packet's header,
    /// if the packet is positioned at a NIC.
    pub fn packet_type(&self, id: PacketId) -> Option<u16> {
        self.packet(id).desc.header.packet_type()
    }

    /// Strip the `ITB | Length` group from a packet parked at an in-transit
    /// NIC (the MCP does this before reprogramming the send DMA).
    pub fn strip_itb_group(&mut self, id: PacketId) -> u8 {
        self.packet_mut(id).desc.header.strip_itb_group()
    }

    /// Remove a fully delivered packet from the registry, returning its
    /// final state (header should start with the GM type).
    pub fn retire(&mut self, id: PacketId) -> PacketState {
        // detlint::allow(S001, packet ids stay live in the registry until delivery removes them)
        self.pkt_remove(id.0).expect("packet exists")
    }

    /// Whether the host's send serializer has work queued or in progress.
    pub fn host_tx_busy(&self, host: HostId) -> bool {
        !self.hosts[host.idx()].tx_queue.is_empty()
    }

    /// NIC receive flow control: pause (`true`) or resume (`false`) the
    /// channel delivering into `host` — what the LANai does when no receive
    /// buffer is programmed for the next reception. Backpressure then
    /// propagates upstream through the ordinary Stop&Go machinery.
    pub fn set_host_rx_paused(
        &mut self,
        host: HostId,
        paused: bool,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let ch = self.hosts[host.idx()].rx_chan;
        self.on_ctrl(ch, paused, now, sched);
    }

    /// Reserve the next packet id without injecting anything. Lets the NIC
    /// layer record `host.inject` (and other pre-wire stages) against the
    /// same stable id the packet will carry through the network; pass the id
    /// to [`Network::inject_allocated`] when the send DMA is programmed.
    pub fn allocate_packet_id(&mut self) -> PacketId {
        let id = PacketId(self.next_packet);
        // Sharded runs stride the id space (shard `s` allocates `s`,
        // `s + stride`, …) and keep the slab dense by dividing the stride
        // back out of the key.
        let (step, key) = match &self.shard {
            None => (1, id.0),
            Some(s) => (s.stride, id.0 / s.stride),
        };
        self.next_packet += step;
        // Pin the registry window: the packet may be registered well after
        // later-allocated ids have come and gone.
        self.packets.reserve(key);
        id
    }

    /// Slab key of a locally allocated packet id (identity in sequential
    /// runs; stride divided out in sharded runs).
    ///
    /// # Panics
    /// Panics if `id` belongs to another shard's stride — only this shard's
    /// allocations may be registered here.
    fn own_slab_key(&self, id: u64) -> u64 {
        match &self.shard {
            None => id,
            Some(s) => {
                assert!(
                    id % s.stride == u64::from(s.me),
                    "packet id {id} allocated on another shard"
                );
                id / s.stride
            }
        }
    }

    /// Inject a packet at `host`. `avail` bytes are sendable immediately
    /// (pass the packet's full wire length for ordinary sends); more can be
    /// released later with [`Network::extend_available`]. Returns the packet
    /// id.
    pub fn inject(
        &mut self,
        host: HostId,
        desc: PacketDesc,
        avail: u32,
        now: SimTime,
        sched: &mut impl NetSched,
    ) -> PacketId {
        let id = self.allocate_packet_id();
        self.inject_allocated(id, host, desc, avail, now, sched);
        id
    }

    /// [`Network::inject`] with a pre-reserved id from
    /// [`Network::allocate_packet_id`].
    pub fn inject_allocated(
        &mut self,
        id: PacketId,
        host: HostId,
        desc: PacketDesc,
        avail: u32,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let st = PacketState {
            desc,
            corrupted: false,
        };
        let total = st.wire_len();
        self.packets.insert(self.own_slab_key(id.0), st);
        self.stats.injected += 1;
        self.trace(id, Stage::NetInject, u32::from(host.0), now);
        let hp = &mut self.hosts[host.idx()];
        hp.tx_queue.push_back(HostTxPkt {
            id,
            total,
            avail: avail.min(total),
            sent: 0,
        });
        let ch = hp.tx_chan;
        self.try_send(ch, now, sched);
    }

    /// Re-inject a packet parked at an in-transit host. The `ITB | Length`
    /// group must already have been stripped ([`Network::strip_itb_group`]).
    /// `avail` is the number of wire bytes already on hand (received − 3);
    /// extend as reception progresses.
    pub fn reinject(
        &mut self,
        host: HostId,
        id: PacketId,
        avail: u32,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let total = self.packet(id).wire_len();
        self.trace(id, Stage::NetReinject, u32::from(host.0), now);
        let hp = &mut self.hosts[host.idx()];
        hp.tx_queue.push_back(HostTxPkt {
            id,
            total,
            avail: avail.min(total),
            sent: 0,
        });
        self.stats.reinjected += 1;
        let ch = hp.tx_chan;
        self.try_send(ch, now, sched);
    }

    /// Raise the sendable-byte watermark of a queued packet to `avail`
    /// (absolute, monotonic; clamped to the packet's length).
    pub fn extend_available(
        &mut self,
        host: HostId,
        id: PacketId,
        avail: u32,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let hp = &mut self.hosts[host.idx()];
        let mut is_front = false;
        if let Some(pos) = hp.tx_queue.iter().position(|p| p.id == id) {
            let p = &mut hp.tx_queue[pos];
            p.avail = avail.min(p.total).max(p.avail);
            is_front = pos == 0;
        }
        if is_front {
            let ch = hp.tx_chan;
            self.try_send(ch, now, sched);
        }
    }

    /// Main event dispatcher.
    pub fn handle(&mut self, now: SimTime, ev: NetEvent, sched: &mut impl NetSched) {
        match ev {
            NetEvent::TxDone { ch } => self.on_tx_done(ch, now, sched),
            NetEvent::RxFlit {
                ch,
                packet,
                bytes,
                head,
                tail,
            } => self.on_rx_flit(ch, packet, bytes, head, tail, now, sched),
            NetEvent::RouteReady { sw, port } => self.on_route_ready(sw, port, now, sched),
            NetEvent::Ctrl { ch, stop } => self.on_ctrl(ch, stop, now, sched),
        }
    }

    /// Attempt to put the next flit of the current packet on channel `ch`.
    fn try_send(&mut self, ch: u32, now: SimTime, sched: &mut impl NetSched) {
        let c = &self.chans[ch as usize];
        if c.tx_busy || c.paused {
            return;
        }
        let flit = self.cfg.flit_bytes;
        // Work out (packet, bytes, head, tail) from the source, mutating the
        // source-side accounting.
        let pulled = match c.source {
            ChanSource::HostTx(h) => {
                let hp = &mut self.hosts[h.idx()];
                let Some(front) = hp.tx_queue.front_mut() else {
                    return;
                };
                let pullable = front.avail.min(front.total) - front.sent;
                if pullable == 0 {
                    return;
                }
                let bytes = pullable.min(flit);
                let head = front.sent == 0;
                front.sent += bytes;
                let tail = front.sent == front.total;
                Some((front.id, bytes, head, tail))
            }
            ChanSource::SwitchOut { sw, .. } => {
                let Some(in_port) = c.grant else {
                    return;
                };
                let inp = self.inputs[sw.idx()][in_port.idx()]
                    .as_mut()
                    // detlint::allow(S001, arbitration granted this input so it is occupied)
                    .expect("granted input exists");
                let Some(front) = inp.queue.front_mut() else {
                    return;
                };
                debug_assert!(front.routed && front.granted);
                let pullable = front.received - front.forwarded;
                if pullable == 0 {
                    return;
                }
                let bytes = pullable.min(flit);
                let head = front.forwarded == 0;
                front.forwarded += bytes;
                let tail = front.tail_seen && front.forwarded == front.received;
                let id = front.id;
                inp.occupancy -= bytes;
                // GO when the buffer drains below threshold. The control
                // byte travels to the channel's *source* node, which may
                // live on another shard (direct field borrows keep `inp`
                // usable alongside `self.shard`).
                if inp.stopped && inp.occupancy <= self.cfg.go_threshold {
                    inp.stopped = false;
                    let up = inp.in_chan;
                    let fire = now + self.cfg.ctrl_latency;
                    let ev = NetEvent::Ctrl {
                        ch: up,
                        stop: false,
                    };
                    match &mut self.shard {
                        Some(s) if s.chan_src_shard[up as usize] != s.me => {
                            let dst = s.chan_src_shard[up as usize];
                            s.handoff(dst, fire, now, ev, None);
                        }
                        _ => sched.at(fire, ev),
                    }
                }
                if tail {
                    inp.queue.pop_front();
                    // Next packet (if its head is here) can start routing now.
                    self.schedule_front_routing(sw, in_port, now, sched);
                }
                Some((id, bytes, head, tail))
            }
        };
        let Some((id, bytes, head, tail)) = pulled else {
            return;
        };
        if head {
            self.roll_link_faults(ch, id);
        }
        let c = &mut self.chans[ch as usize];
        c.tx_busy = true;
        c.finishing = tail;
        c.bytes_sent += u64::from(bytes);
        let prop = c.prop;
        let ser = self.cfg.link_bw.transfer_time(u64::from(bytes));
        sched.at(now + ser, NetEvent::TxDone { ch });
        let fire = now + ser + prop;
        let ev = NetEvent::RxFlit {
            ch,
            packet: id,
            bytes,
            head,
            tail,
        };
        let cross_dst = match &self.shard {
            Some(s) if s.chan_sink_shard[ch as usize] != s.me => {
                Some(s.chan_sink_shard[ch as usize])
            }
            _ => None,
        };
        match cross_dst {
            Some(dst) => {
                // The head flit carries the packet's registry state to the
                // sink shard; the worm's body needs no registry access on
                // this side after that.
                let state = if head {
                    let st = self
                        .pkt_remove(id.0)
                        // detlint::allow(S001, the head flit of a live worm is always registered)
                        .expect("crossing packet is registered");
                    Some(Box::new(st))
                } else {
                    None
                };
                // detlint::allow(S001, cross_dst is only Some when the shard ctx exists)
                let s = self.shard.as_mut().expect("shard ctx present");
                s.handoff(dst, fire, now, ev, state);
            }
            None => sched.at(fire, ev),
        }
    }

    fn on_tx_done(&mut self, ch: u32, now: SimTime, sched: &mut impl NetSched) {
        let c = &mut self.chans[ch as usize];
        c.tx_busy = false;
        if c.finishing {
            c.finishing = false;
            match c.source {
                ChanSource::HostTx(h) => {
                    let hp = &mut self.hosts[h.idx()];
                    // detlint::allow(S001, tx-finish events fire only while a packet is in the queue)
                    let done = hp.tx_queue.pop_front().expect("finishing implies a packet");
                    debug_assert_eq!(done.sent, done.total);
                    self.indications.push(HostIndication::InjectionComplete {
                        host: h,
                        packet: done.id,
                    });
                }
                ChanSource::SwitchOut { sw, .. } => {
                    c.grant = None;
                    // Hand the output to the next waiting input per the
                    // configured arbitration discipline.
                    let next = match self.cfg.arbitration {
                        Arbitration::Fifo => {
                            if c.waiting.is_empty() {
                                None
                            } else {
                                c.waiting.pop_front()
                            }
                        }
                        Arbitration::RoundRobin => {
                            let last = c.last_granted.map(|p| p.0).unwrap_or(0);
                            let pick = c
                                .waiting
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, p)| p.0.wrapping_sub(last + 1) & 0x3F)
                                .map(|(i, _)| i);
                            pick.and_then(|i| c.waiting.remove(i))
                        }
                    };
                    if let Some(next_in) = next {
                        self.assign_grant(ch, sw, next_in, now);
                    }
                }
            }
        }
        self.try_send(ch, now, sched);
    }

    /// Give output channel `ch` (on switch `sw`) to input port `in_port`.
    fn assign_grant(&mut self, ch: u32, sw: SwitchId, in_port: PortIx, now: SimTime) {
        let inp = self.inputs[sw.idx()][in_port.idx()]
            .as_mut()
            // detlint::allow(S001, the waiting list only holds occupied inputs)
            .expect("waiting input exists");
        let front = inp
            .queue
            .front_mut()
            // detlint::allow(S001, a requesting input always has a queued front packet)
            .expect("requesting input has a front packet");
        debug_assert!(front.routed && !front.granted);
        front.granted = true;
        let id = front.id;
        let c = &mut self.chans[ch as usize];
        c.grant = Some(in_port);
        c.last_granted = Some(in_port);
        self.trace(id, Stage::NetLinkAcquire, u32::from(sw.0), now);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the RxFlit event fields
    fn on_rx_flit(
        &mut self,
        ch: u32,
        packet: PacketId,
        bytes: u32,
        head: bool,
        tail: bool,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        if head {
            self.check_link_down(ch, packet, now);
        }
        match self.chans[ch as usize].sink {
            ChanSink::SwitchIn { sw, port } => {
                let cfg_stop = self.cfg.stop_threshold;
                let inp = self.inputs[sw.idx()][port.idx()]
                    .as_mut()
                    // detlint::allow(S001, flits only travel over cabled ports)
                    .expect("flit arrives at a cabled port");
                if head {
                    inp.queue.push_back(InPkt {
                        id: packet,
                        routed: false,
                        granted: false,
                        out_port: None,
                        received: 0,
                        forwarded: 0,
                        tail_seen: false,
                    });
                }
                let is_front = inp.queue.front().map(|p| p.id) == Some(packet);
                let pkt = inp
                    .queue
                    .iter_mut()
                    .rev()
                    .find(|p| p.id == packet)
                    // detlint::allow(S001, an in-flight flit always belongs to a queued packet)
                    .expect("flit belongs to a queued packet");
                pkt.received += bytes;
                if tail {
                    pkt.tail_seen = true;
                }
                let (routed, granted, out_port) = (pkt.routed, pkt.granted, pkt.out_port);
                inp.occupancy += bytes;
                debug_assert!(
                    inp.occupancy <= self.cfg.slack_capacity,
                    "slack overrun at {sw}:{port} ({} bytes)",
                    inp.occupancy
                );
                if !inp.stopped && inp.occupancy >= cfg_stop {
                    inp.stopped = true;
                    let up = inp.in_chan;
                    let fire = now + self.cfg.ctrl_latency;
                    let ev = NetEvent::Ctrl { ch: up, stop: true };
                    // STOP travels upstream to the channel's source node,
                    // which may live on another shard.
                    match &mut self.shard {
                        Some(s) if s.chan_src_shard[up as usize] != s.me => {
                            let dst = s.chan_src_shard[up as usize];
                            s.handoff(dst, fire, now, ev, None);
                        }
                        _ => sched.at(fire, ev),
                    }
                }
                if head && is_front && !inp.route_pending {
                    self.schedule_front_routing(sw, port, now, sched);
                } else if is_front && routed && granted {
                    // Body bytes for the worm being forwarded: kick the
                    // output serializer in case it idled out of bytes.
                    // detlint::allow(S001, the route step just set the out port)
                    let out = self.out_chan[sw.idx()][out_port.expect("routed has out port").idx()]
                        // detlint::allow(S001, routing only selects cabled ports)
                        .expect("routed to a cabled port");
                    self.try_send(out, now, sched);
                }
            }
            ChanSink::HostRx(h) => {
                let received = {
                    let hp = &mut self.hosts[h.idx()];
                    if head {
                        debug_assert!(hp.rx_current.is_none(), "host channel is packet-serial");
                        hp.rx_current = Some(HostRxPkt {
                            id: packet,
                            received: 0,
                        });
                    }
                    // detlint::allow(S001, rx events fire only during an active reception)
                    let rx = hp.rx_current.as_mut().expect("rx in progress");
                    debug_assert_eq!(rx.id, packet);
                    rx.received += bytes;
                    let received = rx.received;
                    if tail {
                        hp.rx_current = None;
                    }
                    received
                };
                if head {
                    self.indications
                        .push(HostIndication::HeadArrived { host: h, packet });
                    self.trace(packet, Stage::NetHead, u32::from(h.0), now);
                }
                self.indications.push(HostIndication::BytesArrived {
                    host: h,
                    packet,
                    received,
                });
                if tail {
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += u64::from(received);
                    self.indications.push(HostIndication::PacketComplete {
                        host: h,
                        packet,
                        received,
                    });
                    self.trace(packet, Stage::NetTail, u32::from(h.0), now);
                }
            }
        }
    }

    /// If the front packet of input `(sw, port)` has its head here and is
    /// not yet routed, start its fall-through timer.
    fn schedule_front_routing(
        &mut self,
        sw: SwitchId,
        port: PortIx,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let inp = self.inputs[sw.idx()][port.idx()]
            .as_ref()
            // detlint::allow(S001, events only reference ports that exist on the switch)
            .expect("port exists");
        let Some(front) = inp.queue.front() else {
            return;
        };
        if front.routed || inp.route_pending {
            return;
        }
        // Peek the route byte to learn the output kind (kind-dependent
        // fall-through), without consuming it yet.
        let front_id = front.id;
        let hdr = &self.packet(front_id).desc.header;
        let out_port = itb_routing::wire::decode_route_byte(hdr.as_bytes()[0])
            // detlint::allow(S001, headers are stripped hop by hop so a route byte leads at a switch)
            .expect("packet at a switch must lead with a route byte");
        let kin = self.topo.switch_port_kind(sw, port);
        let kout = self.topo.switch_port_kind(sw, out_port);
        let delay = self.cfg.fall_through.delay(kin, kout);
        self.inputs[sw.idx()][port.idx()]
            .as_mut()
            // detlint::allow(S001, the input was occupied when the fall-through was scheduled)
            .expect("input occupied")
            .route_pending = true;
        sched.at(now + delay, NetEvent::RouteReady { sw, port });
    }

    fn on_route_ready(
        &mut self,
        sw: SwitchId,
        port: PortIx,
        now: SimTime,
        sched: &mut impl NetSched,
    ) {
        let inp = self.inputs[sw.idx()][port.idx()]
            .as_mut()
            // detlint::allow(S001, events only reference ports that exist on the switch)
            .expect("port exists");
        inp.route_pending = false;
        // detlint::allow(S001, routing services only queued packets)
        let front = inp.queue.front_mut().expect("routing a queued packet");
        let id = front.id;
        debug_assert!(!front.routed);
        // The switch strips the route byte from the header: it is gone from
        // the wire from here on.
        front.received -= 1;
        inp.occupancy -= 1;
        front.routed = true;
        let pkt = self.packet_mut(id);
        let out_port = pkt.desc.header.consume_route_byte();
        let inp = self.inputs[sw.idx()][port.idx()]
            .as_mut()
            // detlint::allow(S001, the input was occupied at route-ready time)
            .expect("input occupied");
        inp.queue
            .front_mut()
            // detlint::allow(S001, the front packet was just routed under the same borrow)
            .expect("queued packet present")
            .out_port = Some(out_port);
        self.trace(id, Stage::NetRoute, u32::from(sw.0), now);
        let out = self.out_chan[sw.idx()][out_port.idx()]
            // detlint::allow(S001, a route byte naming an unwired port is a table bug worth aborting on)
            .unwrap_or_else(|| panic!("route byte names unwired port {out_port} at {sw}"));
        let c = &mut self.chans[out as usize];
        if c.grant.is_none() && !c.finishing {
            self.assign_grant(out, sw, port, now);
            self.try_send(out, now, sched);
        } else {
            c.waiting.push_back(port);
            self.trace(id, Stage::NetLinkBlock, u32::from(sw.0), now);
        }
    }

    fn on_ctrl(&mut self, ch: u32, stop: bool, now: SimTime, sched: &mut impl NetSched) {
        let c = &mut self.chans[ch as usize];
        if stop == c.paused {
            return; // duplicate control byte
        }
        c.paused = stop;
        if stop {
            c.paused_since = Some(now);
        } else {
            if let Some(since) = c.paused_since.take() {
                let interval = now - since;
                c.paused_total += interval;
                self.blocking.add(interval.as_ns_f64());
            }
            self.try_send(ch, now, sched);
        }
    }

    /// Per-link names, `"<a>-<b>"` with endpoints `h<n>` (host) or `s<n>`
    /// (switch), in link order — the schema half of the frame sampling
    /// path. Built once per run; the per-sample values come from
    /// [`Network::fill_link_loads`].
    pub fn link_names(&self) -> Vec<String> {
        fn name(n: Node) -> String {
            match n {
                Node::Host(h) => format!("h{}", h.idx()),
                Node::Switch(s) => format!("s{}", s.idx()),
            }
        }
        self.topo
            .link_ids()
            .map(|lid| {
                let link = self.topo.link(lid);
                format!("{}-{}", name(link.a.node), name(link.b.node))
            })
            .collect()
    }

    /// Numeric half of the per-link load: per link, `[fwd_bytes,
    /// rev_bytes, fwd_blocked_ns, rev_blocked_ns]` (forward is a→b) in
    /// [`Network::link_names`] order, appended to `out`. Allocation-free
    /// when `out` has capacity — this is the per-sample hot path.
    pub fn fill_link_loads(&self, out: &mut Vec<[u64; 4]>) {
        for lid in self.topo.link_ids() {
            let fwd = &self.chans[lid.idx() * 2];
            let rev = &self.chans[lid.idx() * 2 + 1];
            out.push([
                fwd.bytes_sent,
                rev.bytes_sent,
                fwd.paused_total.as_ps() / 1_000,
                rev.paused_total.as_ps() / 1_000,
            ]);
        }
    }

    /// Debug: human-readable location summary of an in-flight packet — is it
    /// queued at a host TX, buffered in a switch input, or being received?
    pub fn locate_packet(&self, id: PacketId) -> String {
        let mut spots = Vec::new();
        for (h, hp) in self.hosts.iter().enumerate() {
            if let Some(pos) = hp.tx_queue.iter().position(|p| p.id == id) {
                let p = &hp.tx_queue[pos];
                spots.push(format!(
                    "host{h} tx_queue[{pos}] sent {}/{} avail {} (chan paused: {})",
                    p.sent, p.total, p.avail, self.chans[hp.tx_chan as usize].paused
                ));
            }
            if hp.rx_current.as_ref().map(|r| r.id) == Some(id) {
                spots.push(format!("host{h} rx_current"));
            }
        }
        for (si, ports) in self.inputs.iter().enumerate() {
            for (pi, inp) in ports.iter().enumerate() {
                let Some(inp) = inp else { continue };
                if let Some(pos) = inp.queue.iter().position(|p| p.id == id) {
                    let p = &inp.queue[pos];
                    spots.push(format!(
                        "sw{si}:p{pi} slot[{pos}] recv {} fwd {} routed {} granted {} tail {}",
                        p.received, p.forwarded, p.routed, p.granted, p.tail_seen
                    ));
                }
            }
        }
        if spots.is_empty() {
            spots.push("not in any queue (awaiting NIC action)".into());
        }
        spots.join("; ")
    }

    /// Packets that are registered but can make no further progress because
    /// the event queue drained — i.e. a wormhole deadlock or a packet parked
    /// at a NIC awaiting action. Used by tests to *observe* deadlock.
    pub fn parked_packets(&self) -> Vec<PacketId> {
        // Slab keys are dense; multiply the stride back in under sharding.
        let (stride, me) = match &self.shard {
            None => (1, 0),
            Some(s) => (s.stride, u64::from(s.me)),
        };
        let mut v: Vec<PacketId> = self
            .packets
            .ids()
            .map(|k| PacketId(k * stride + me))
            .chain(self.foreign.keys().map(|&id| PacketId(id)))
            .collect();
        v.sort();
        v
    }

    /// Fold every *behavioral* field of the network — channel serializer and
    /// flow-control state, switch input buffers, host send/receive ports,
    /// the in-flight packet registry and the forced-down overlay — into `d`.
    ///
    /// Pure diagnostics (byte counters, pause-time accumulators, the
    /// lifecycle tracer) are deliberately excluded: two
    /// worlds that differ only in such counters dispatch identical futures,
    /// and folding them in would make the model checker explore the same
    /// behavior many times over. Probabilistic fault state (`FaultPlan` RNG)
    /// is also excluded — the checker drives faults through the
    /// deterministic [`Network::force_corrupt`] /
    /// [`Network::set_link_forced_down`] hooks instead, and never installs a
    /// plan.
    pub fn state_digest(&self, d: &mut itb_sim::Digest) {
        fn digest_port(d: &mut itb_sim::Digest, p: Option<PortIx>) {
            match p {
                None => d.u8(0),
                Some(px) => {
                    d.u8(1);
                    d.u8(px.0);
                }
            }
        }
        d.usize(self.chans.len());
        for c in &self.chans {
            d.bool(c.tx_busy);
            d.bool(c.paused);
            d.bool(c.finishing);
            digest_port(d, c.grant);
            digest_port(d, c.last_granted);
            d.usize(c.waiting.len());
            for &w in &c.waiting {
                d.u8(w.0);
            }
        }
        for ports in &self.inputs {
            for inp in ports.iter().flatten() {
                d.u32(inp.occupancy);
                d.bool(inp.stopped);
                d.bool(inp.route_pending);
                d.usize(inp.queue.len());
                for p in &inp.queue {
                    d.u64(p.id.0);
                    d.bool(p.routed);
                    d.bool(p.granted);
                    digest_port(d, p.out_port);
                    d.u32(p.received);
                    d.u32(p.forwarded);
                    d.bool(p.tail_seen);
                }
            }
        }
        for hp in &self.hosts {
            d.usize(hp.tx_queue.len());
            for p in &hp.tx_queue {
                d.u64(p.id.0);
                d.u32(p.total);
                d.u32(p.avail);
                d.u32(p.sent);
            }
            match &hp.rx_current {
                None => d.u8(0),
                Some(rx) => {
                    d.u8(1);
                    d.u64(rx.id.0);
                    d.u32(rx.received);
                }
            }
        }
        // The registry, in id order (the slab iterates ids ascending; the
        // checker never runs sharded, so `foreign` is empty).
        d.usize(self.in_flight());
        for id in self.parked_packets() {
            let st = self.packet(id);
            d.u64(id.0);
            let hdr = st.desc.header.as_bytes();
            d.usize(hdr.len());
            d.bytes(hdr);
            d.u32(st.desc.payload_len);
            d.u64(st.desc.tag);
            d.u16(st.desc.src.0);
            d.bool(st.corrupted);
        }
        d.u64(self.next_packet);
        d.usize(self.indications.len());
        for &down in &self.forced_down {
            d.bool(down);
        }
    }
}
