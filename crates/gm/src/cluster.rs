//! The integrated cluster: network + NICs + GM hosts behind one event loop.

use crate::apps::{AppBehavior, PingPongState};
use crate::config::GmConfig;
use crate::host::{Host, QueuedPacket, RetransDecision, RxAction};
use crate::meta::{Kind, PacketMeta};
use itb_net::HostIndication;
use itb_net::{FaultPlan, FlowNet, HostCrash, NetConfig, NetEvent, NetSched, Network, PacketDesc};
use itb_nic::{McpFlavor, McpTiming, Nic, NicEvent, NicOutput, NicSched};
use itb_routing::planner::ItbHostSelection;
use itb_routing::{RouteTable, RoutingPolicy, SourceRoute};
use itb_sim::{narrow, EventQueue, FxHashMap, SimDuration, SimRng, SimTime, World};
use itb_topo::{HostId, Partition, RegionFidelity, RegionPlan, Topology, UpDown};
use std::sync::Arc;

/// Wire bytes GM adds to every packet for its own protocol header.
pub const GM_PKT_OVERHEAD: u32 = 8;

/// Host-layer events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// Application generates its next message (ping-pong next iteration,
    /// stream next message, Poisson arrival).
    AppSend {
        /// Acting host.
        host: HostId,
    },
    /// Host CPU finished posting a packet; hand it to the NIC.
    SubmitPacket {
        /// Acting host.
        host: HostId,
        /// Pre-built packet token.
        token: u64,
    },
    /// A reassembled message reaches the application.
    AppDeliver {
        /// Receiving host.
        host: HostId,
        /// Original sender.
        from: HostId,
        /// Message length.
        len: u32,
        /// Message id.
        msg_id: u32,
    },
    /// Send a cumulative ACK.
    SendAck {
        /// Acking host.
        host: HostId,
        /// Peer to ack.
        to: HostId,
        /// Cumulative sequence.
        seq: u32,
    },
    /// Periodic retransmission check for one connection.
    RetransCheck {
        /// Sender side.
        host: HostId,
        /// Peer.
        peer: HostId,
    },
    /// Scheduled fault: the host's NIC crashes, flushing its in-transit
    /// packets and discarding arrivals until recovery.
    NicCrash {
        /// Crashing host.
        host: HostId,
    },
    /// Scheduled fault: the host's NIC comes back up.
    NicRecover {
        /// Recovering host.
        host: HostId,
    },
}

impl HostEvent {
    /// Fold this event (variant tag + payload) into a model-checker digest.
    pub fn digest_into(&self, d: &mut itb_sim::Digest) {
        match *self {
            HostEvent::AppSend { host } => {
                d.u8(0);
                d.u16(host.0);
            }
            HostEvent::SubmitPacket { host, token } => {
                d.u8(1);
                d.u16(host.0);
                d.u64(token);
            }
            HostEvent::AppDeliver {
                host,
                from,
                len,
                msg_id,
            } => {
                d.u8(2);
                d.u16(host.0);
                d.u16(from.0);
                d.u32(len);
                d.u32(msg_id);
            }
            HostEvent::SendAck { host, to, seq } => {
                d.u8(3);
                d.u16(host.0);
                d.u16(to.0);
                d.u32(seq);
            }
            HostEvent::RetransCheck { host, peer } => {
                d.u8(4);
                d.u16(host.0);
                d.u16(peer.0);
            }
            HostEvent::NicCrash { host } => {
                d.u8(5);
                d.u16(host.0);
            }
            HostEvent::NicRecover { host } => {
                d.u8(6);
                d.u16(host.0);
            }
        }
    }
}

/// The union event type of the whole simulation.
#[derive(Debug, Clone, Copy)]
pub enum ClusterEvent {
    /// Network-layer event.
    Net(NetEvent),
    /// NIC-layer event.
    Nic(NicEvent),
    /// Host-layer event.
    Host(HostEvent),
    /// Periodic observability tick: feed the timeline sampler and health
    /// monitors one metrics frame, then reschedule. Scheduled only when
    /// sampling is enabled (see [`Cluster::enable_timeline`] /
    /// [`Cluster::enable_health`]); sim-time-driven, so sampled runs stay
    /// deterministic.
    Sample,
    /// Coarse round boundary of the hybrid flow engine: re-solve the
    /// max-min rates, check escalation triggers, and commit one round of
    /// flow service. Scheduled only while flow-eligible messages are in
    /// flight (see [`Cluster::enable_flow_regions`]); coexists with flit
    /// events in the same deterministic queue.
    FlowRound,
}

impl ClusterEvent {
    /// Fold this event (variant tag + the layer event's own digest) into a
    /// model-checker digest. Together with [`Cluster::state_digest`] and the
    /// queue's ordered iteration this canonicalizes a whole world state.
    pub fn digest_into(&self, d: &mut itb_sim::Digest) {
        match self {
            ClusterEvent::Net(e) => {
                d.u8(0);
                e.digest_into(d);
            }
            ClusterEvent::Nic(e) => {
                d.u8(1);
                e.digest_into(d);
            }
            ClusterEvent::Host(e) => {
                d.u8(2);
                e.digest_into(d);
            }
            ClusterEvent::Sample => d.u8(3),
            ClusterEvent::FlowRound => d.u8(4),
        }
    }
}

/// Contention depth at which a Flow region escalates to packet fidelity:
/// a directed channel carrying this many concurrent flows means wormhole
/// HOL blocking and Stop&Go transients the fluid model averages away, so
/// the region's traffic belongs in the flit model. Depth — not
/// utilisation — is the signal on purpose: a work-conserving max-min
/// solve drives every busy flow's bottleneck channel to exactly 100%, so
/// "allocation near capacity" is true whenever any flow is live and
/// distinguishes nothing.
pub const ESCALATE_CONTENTION: u32 = 8;

/// The hybrid engine's flow-side state (see
/// [`Cluster::enable_flow_regions`]).
struct FlowMode {
    /// The flow-level fabric carrying flow-eligible messages.
    net: FlowNet,
    /// Region decomposition + per-region fidelity (escalation mutates it).
    plan: RegionPlan,
    /// Coarse round length.
    round: SimDuration,
    /// Whether a `FlowRound` event is currently scheduled.
    armed: bool,
    /// Per-(src, dst) clamp keeping flow completions FIFO within a pair:
    /// a later message never schedules its delivery before an earlier one
    /// (the queue's FIFO tie-break then preserves order at equal times).
    pair_fifo: FxHashMap<(u16, u16), SimTime>,
    /// Link ids owned by each region, for the escalation contention scan
    /// (host links count toward their switch's region; cut links toward
    /// the lower-numbered side).
    // detlint::allow(T003, derived from the immutable topology + partition at enable time)
    region_links: Vec<Vec<u32>>,
    /// Messages carried by the flow engine (diagnostics counter).
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    flow_msgs: u64,
    /// Messages completed by the flow engine (diagnostics counter).
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    flow_delivered: u64,
    /// Regions escalated to packet fidelity so far.
    // detlint::allow(T003, diagnostics counter: mirrors the digested fidelity vector)
    escalations: u64,
}

/// Queue adapter giving each layer its scheduling trait.
struct Sink<'a>(&'a mut EventQueue<ClusterEvent>);

impl NetSched for Sink<'_> {
    fn at(&mut self, t: SimTime, ev: NetEvent) {
        self.0.schedule(t, ClusterEvent::Net(ev));
    }
}
impl NicSched for Sink<'_> {
    fn nic_at(&mut self, t: SimTime, ev: NicEvent) {
        self.0.schedule(t, ClusterEvent::Nic(ev));
    }
}
impl Sink<'_> {
    fn host_at(&mut self, t: SimTime, ev: HostEvent) {
        self.0.schedule(t, ClusterEvent::Host(ev));
    }
}

/// Cross-shard delivery bookkeeping: a message completed on the receiver's
/// shard, but its [`MsgRecord`] lives on the *sender's* shard (message ids
/// are allocated per shard, so the numeric id only means something there).
#[derive(Debug, Clone, Copy)]
pub struct DeliveryNotice {
    /// Application delivery time on the receiver's shard.
    pub at: SimTime,
    /// The sender-shard message id.
    pub msg_id: u32,
    /// Original sender (owner of the record).
    pub from: HostId,
    /// Capture sequence on the notifying shard (merge tie-break), allocated
    /// from the shard's single envelope counter — shared with net handoffs
    /// so merge keys are globally unique.
    pub seq: u64,
}

/// Sharded-run identity of a cluster replica (None = sequential).
///
/// Notice capture sequences come from the network's single per-shard
/// envelope counter ([`Network::alloc_handoff_seq`]) so notice and net
/// handoff merge keys never collide.
struct GmShardInfo {
    me: u32,
    /// Owner shard per host (copied from the partition).
    host_shard: Vec<u32>,
    /// Per-destination-shard delivery notices captured this window.
    notices: Vec<Vec<DeliveryNotice>>,
}

/// One application-level message's life record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Sender.
    pub src: HostId,
    /// Destination.
    pub dst: HostId,
    /// Length in bytes.
    pub len: u32,
    /// Application send time.
    pub sent_at: SimTime,
    /// Application delivery time (None while in flight / lost).
    pub delivered_at: Option<SimTime>,
}

/// Everything needed to build a [`Cluster`].
pub struct ClusterParams {
    /// Wiring.
    pub topo: Topology,
    /// Physical-layer constants.
    pub net: NetConfig,
    /// NIC firmware constants.
    pub mcp: McpTiming,
    /// Firmware flavour on every NIC.
    pub flavor: McpFlavor,
    /// Route computation policy.
    pub routing: RoutingPolicy,
    /// In-transit host selection used by the ITB planner.
    pub itb_selection: ItbHostSelection,
    /// Host-software constants.
    pub gm: GmConfig,
    /// Per-host application behaviours (length = host count).
    pub behaviors: Vec<AppBehavior>,
    /// Hand-built routes to install over the computed table (the Figure 6
    /// evaluation paths).
    pub route_overrides: Vec<SourceRoute>,
    /// Fault-injection plan (link drop/corrupt probabilities, link-down
    /// windows, NIC crashes). [`FaultPlan::default`] injects nothing.
    pub faults: FaultPlan,
    /// Master seed for traffic randomness.
    pub seed: u64,
}

/// The cluster's sampling observers over a run's life.
enum Observing {
    /// What [`Cluster::enable_timeline`] and [`Cluster::enable_health`]
    /// asked for; nothing is built before [`Cluster::start`].
    Planned(itb_obs::ObserverPlan),
    /// Built by [`Cluster::start`] over the final metric schema.
    Running(Box<itb_obs::Observers>),
}

impl Default for Observing {
    fn default() -> Self {
        Observing::Planned(itb_obs::ObserverPlan::default())
    }
}

impl Observing {
    /// The sampling cadence (None when nothing is observed).
    fn every(&self) -> Option<SimDuration> {
        match self {
            Observing::Planned(p) => p.every(),
            Observing::Running(o) => Some(o.every()),
        }
    }

    fn plan(&mut self) -> &mut itb_obs::ObserverPlan {
        match self {
            Observing::Planned(p) => p,
            Observing::Running(_) => {
                // detlint::allow(S001, documented precondition of enable_timeline/enable_health)
                panic!("observers are built at Cluster::start; enable them before it")
            }
        }
    }

    /// Build the planned observers over `schema`.
    fn start(&mut self, schema: Arc<itb_obs::MetricsSchema>) {
        if let Observing::Planned(p) = self {
            if let Some(o) = std::mem::take(p).build(schema) {
                *self = Observing::Running(Box::new(o));
            }
        }
    }
}

/// The complete simulated Myrinet cluster.
pub struct Cluster {
    /// The wormhole network.
    pub net: Network,
    nics: Vec<Nic>,
    hosts: Vec<Host>,
    /// The route table, kept for flow-eligibility checks (a route crossing
    /// an in-transit host must stay in the packet model). Declared before
    /// the per-run records on purpose: fields drop in order, so a finished
    /// cluster frees the table's ~2 small allocations per host pair before
    /// its large buffers, and the allocator merges them while this cluster
    /// is torn down rather than inside the next cluster's set-up.
    // detlint::allow(T003, immutable after construction: shared read-only with every host)
    table: Arc<RouteTable>,
    // detlint::allow(T003, per-run workload configuration: fixed before the first event and never mutated)
    behaviors: Vec<AppBehavior>,
    ping: Vec<PingPongState>,
    stream_sent: Vec<u32>,
    poisson_sent: Vec<u32>,
    a2a_sent: Vec<u32>,
    // detlint::allow(T003, checker scenarios use only deterministic behaviors that never draw from the RNG streams)
    rngs: Vec<SimRng>,
    messages: FxHashMap<u32, MsgRecord>,
    /// O(1) mirror of "messages with `delivered_at` set" — the hot
    /// `run_while` predicates poll [`Cluster::delivered_count`] once per
    /// dispatched event, so it must not scan the message map.
    // detlint::allow(T003, derived mirror of the digested messages map's delivered_at bits)
    delivered_messages: u64,
    next_msg_id: u32,
    next_token: u64,
    /// Packets posted but not yet handed to the NIC, by token, with their
    /// destination host.
    pending_submissions: FxHashMap<u64, (HostId, PacketDesc)>,
    /// Per-connection submit clock, keyed `(src, dst)`: the time of the
    /// last `SubmitPacket` that [`Cluster::schedule_submissions`] scheduled
    /// and that has not fired yet. A release or resend starts no earlier
    /// than one posting cost after it, so back-to-back bursts reach the NIC
    /// in the order they were scheduled. The entry is dropped when that
    /// submission fires, keeping the map as small as the set of
    /// connections with a burst in progress.
    // detlint::allow(T003, derived from digested state: the latest pending SubmitPacket event scheduled per connection)
    submit_clock: FxHashMap<(u16, u16), SimTime>,
    /// Reused scratch for [`Cluster::pump_conn`] (packets released by one
    /// window pump).
    // detlint::allow(T003, pump_conn scratch: drained to empty before the call returns)
    release_buf: Vec<QueuedPacket>,
    /// Reused scratch for [`Cluster::pump`] (indications drained per event).
    // detlint::allow(T003, pump scratch: drained to empty before every event completes)
    ind_buf: Vec<HostIndication>,
    /// Reused scratch for [`Cluster::pump`] (NIC outputs drained per event).
    // detlint::allow(T003, pump scratch: drained to empty before every event completes)
    out_buf: Vec<NicOutput>,
    /// Hosts whose NIC the current event called into (see
    /// [`Cluster::nic_mut`]); [`Cluster::pump`] drains only these.
    // detlint::allow(T003, pump scratch: cleared before every event completes)
    touched: Vec<u16>,
    // detlint::allow(T003, per-run GM protocol configuration: fixed before the first event and never mutated)
    gm: GmConfig,
    // detlint::allow(T003, per-run fault schedule: fixed before the first event; its effects land in digested NIC/host state)
    crashes: Vec<HostCrash>,
    connection_failures: Vec<(HostId, HostId)>,
    delivery_log: Vec<(HostId, HostId, u32)>,
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    app_deliveries: u64,
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    drops_observed: u64,
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    packets_abandoned: u64,
    // detlint::allow(T003, diagnostics counter: never read by a transition)
    crashes_injected: u64,
    /// Sharded-run identity (None = sequential; see [`Cluster::set_shard`]).
    // detlint::allow(T003, partition identity: fixed at shard setup; the PDES contract proves shard layout cannot change sim facts)
    shard: Option<GmShardInfo>,
    /// Timeline sampler and health monitors (see [`Observing`]).
    // detlint::allow(T003, observability sidecar: samples digested state and is never read back)
    observers: Observing,
    /// Hybrid flow-engine state (None until
    /// [`Cluster::enable_flow_regions`]; its live-flow set is digested).
    flow_mode: Option<FlowMode>,
}

impl Cluster {
    /// Build a cluster. Panics on inconsistent parameters (ITB routing on
    /// original firmware cannot work: the stock MCP drops ITB packets).
    pub fn new(p: ClusterParams) -> Self {
        assert!(
            !(p.routing == RoutingPolicy::Itb && p.flavor == McpFlavor::Original),
            "ITB routes require the ITB-enabled MCP"
        );
        assert_eq!(
            p.behaviors.len(),
            p.topo.num_hosts(),
            "one behavior per host"
        );
        // detlint::allow(S001, cluster construction rejects invalid topologies)
        p.topo.validate().expect("topology must be valid");
        let ud = UpDown::compute_default(&p.topo);
        let mut table =
            RouteTable::compute_with_selection(&p.topo, &ud, p.routing, p.itb_selection)
                // detlint::allow(S001, validated topologies are connected so routing succeeds)
                .expect("connected topology routes");
        for r in p.route_overrides {
            assert!(
                r.is_well_formed(&p.topo),
                "route override must be physically wired"
            );
            assert!(
                r.itb_count() == 0 || p.flavor == McpFlavor::Itb,
                "ITB route override requires ITB firmware"
            );
            table.set_route(r);
        }
        let table = Arc::new(table);
        let n = p.topo.num_hosts();
        let nics = (0..narrow::<u16, _>(n))
            .map(|h| Nic::new(HostId(h), p.flavor, p.mcp))
            .collect();
        let hosts = (0..narrow::<u16, _>(n))
            .map(|h| Host::new(HostId(h), p.gm, Arc::clone(&table), n))
            .collect();
        let master = SimRng::new(p.seed);
        let rngs = (0..n as u64).map(|h| master.child(h)).collect();
        for c in &p.faults.crashes {
            assert!(c.host.idx() < n, "crash target must be a real host");
        }
        let mut net = Network::new(p.topo, p.net);
        net.set_fault_plan(&p.faults);
        Cluster {
            net,
            nics,
            hosts,
            ping: vec![PingPongState::default(); n],
            stream_sent: vec![0; n],
            poisson_sent: vec![0; n],
            a2a_sent: vec![0; n],
            rngs,
            behaviors: p.behaviors,
            messages: FxHashMap::default(),
            delivered_messages: 0,
            next_msg_id: 0,
            next_token: 0,
            pending_submissions: FxHashMap::default(),
            submit_clock: FxHashMap::default(),
            release_buf: Vec::new(),
            ind_buf: Vec::new(),
            out_buf: Vec::new(),
            touched: Vec::new(),
            gm: p.gm,
            crashes: p.faults.crashes,
            connection_failures: Vec::new(),
            delivery_log: Vec::new(),
            app_deliveries: 0,
            drops_observed: 0,
            packets_abandoned: 0,
            crashes_injected: 0,
            shard: None,
            observers: Observing::default(),
            table,
            flow_mode: None,
        }
    }

    /// Turn this replica into shard `me` of a parallel run: the network
    /// enters sharded mode (strided packet ids, cross-shard handoff capture)
    /// and [`Cluster::start`] will kick off only the hosts this shard owns.
    /// Every shard must be an *identical* replica built from the same
    /// parameters — non-owned hosts keep their per-host RNG streams
    /// untouched, so owned streams draw exactly the sequential sequence.
    ///
    /// # Panics
    /// Panics if the plan schedules NIC crashes (fault injection and
    /// parallel mode are mutually exclusive) or on any precondition
    /// violated by [`Network::set_shard_ctx`].
    pub fn set_shard(&mut self, me: u32, part: &Partition) {
        assert!(
            self.crashes.is_empty(),
            "parallel mode requires a crash-free fault plan"
        );
        assert!(
            self.observers.every().is_none(),
            "timeline/health sampling sees one shard's partial counters and \
             would mistake remote progress for a stall; sample sequentially"
        );
        assert!(
            self.flow_mode.is_none(),
            "the hybrid flow engine is a sequential-mode feature: its global \
             rate solve cannot be sharded"
        );
        self.net.set_shard_ctx(me, part);
        self.shard = Some(GmShardInfo {
            me,
            host_shard: part.shard_of_host.clone(),
            notices: (0..part.shards).map(|_| Vec::new()).collect(),
        });
    }

    /// Whether this replica owns `host` (always true sequentially).
    fn owns_host(&self, h: usize) -> bool {
        self.shard.as_ref().is_none_or(|s| s.host_shard[h] == s.me)
    }

    /// Drain the delivery notices captured for shard `dst` this window.
    pub fn take_delivery_notices(&mut self, dst: u32) -> Vec<DeliveryNotice> {
        match self.shard.as_mut() {
            Some(s) => std::mem::take(&mut s.notices[dst as usize]),
            None => Vec::new(),
        }
    }

    /// Apply a delivery notice from the receiver's shard to the message
    /// record this (sender's) shard keeps.
    pub fn apply_delivery_notice(&mut self, n: DeliveryNotice) {
        if let Some(rec) = self.messages.get_mut(&n.msg_id) {
            debug_assert_eq!(rec.src, n.from, "notice names the record's sender");
            if rec.delivered_at.is_none() {
                self.delivered_messages += 1;
            }
            rec.delivered_at = Some(n.at);
        }
    }

    /// Enable the hybrid flow/packet engine: messages whose whole path
    /// stays inside `Flow`-fidelity regions of `plan` (and crosses no
    /// in-transit-buffer hop) are carried by a flow-level model — max-min
    /// fair rates re-solved every `round` of sim time — instead of the
    /// flit model. Everything else, and everything after a region
    /// escalates (see [`ESCALATE_CONTENTION`]), takes the packet path
    /// unchanged.
    ///
    /// With an all-packet plan the flow machinery never schedules an
    /// event, so the run is byte-identical to a plain sequential run — the
    /// fidelity anchor the hybrid tests pin.
    ///
    /// Call before [`Cluster::start`]. Incompatible with sharded parallel
    /// runs ([`Cluster::set_shard`]) and with NIC-crash fault plans: flow
    /// regions model a loss-free fabric.
    ///
    /// # Panics
    /// Panics on a zero round, a sharded cluster, a crash-bearing fault
    /// plan, or a plan partitioned over a different switch count.
    pub fn enable_flow_regions(&mut self, plan: RegionPlan, round: SimDuration) {
        assert!(round > SimDuration::ZERO, "flow round must be positive");
        assert!(
            self.shard.is_none(),
            "the hybrid flow engine is a sequential-mode feature"
        );
        assert!(
            self.crashes.is_empty(),
            "flow regions model a loss-free fabric; crash plans need the \
             packet model everywhere"
        );
        let topo = self.net.topology();
        assert_eq!(
            plan.part.shard_of_switch.len(),
            topo.num_switches(),
            "region plan must partition this cluster's topology"
        );
        let link_ns_per_byte = self.net.config().link_bw.ps_per_byte() as f64 / 1e3;
        let flow_net = FlowNet::new(topo, 1.0 / link_ns_per_byte);
        let mut region_links: Vec<Vec<u32>> = (0..plan.part.shards).map(|_| Vec::new()).collect();
        for lid in topo.link_ids() {
            let link = topo.link(lid);
            let region = match (link.a.node.as_switch(), link.b.node.as_switch()) {
                (Some(a), Some(b)) => plan.part.shard_of(a).min(plan.part.shard_of(b)),
                (Some(s), None) | (None, Some(s)) => plan.part.shard_of(s),
                (None, None) => unreachable!("links touch at least one switch"),
            };
            region_links[region as usize].push(narrow(lid.idx()));
        }
        self.flow_mode = Some(FlowMode {
            net: flow_net,
            plan,
            round,
            armed: false,
            pair_fifo: FxHashMap::default(),
            region_links,
            flow_msgs: 0,
            flow_delivered: 0,
            escalations: 0,
        });
    }

    /// Whether a `src → dst` message may ride the flow engine: flow mode
    /// on, at least one Flow region left, no in-transit hop on the
    /// installed route, and every switch on the (BFS) flow path at Flow
    /// fidelity.
    fn flow_eligible(&self, src: HostId, dst: HostId) -> bool {
        let Some(fm) = &self.flow_mode else {
            return false;
        };
        if fm.plan.is_all_packet() || src == dst {
            return false;
        }
        if self.table.route(src, dst).is_none_or(|r| r.itb_count() > 0) {
            return false;
        }
        fm.net.path_all(src, dst, |s| {
            fm.plan.fidelity_of_switch(s) == RegionFidelity::Flow
        })
    }

    /// The per-region fidelity assignment as currently escalated (None
    /// when flow mode is off).
    pub fn region_fidelity(&self) -> Option<&[RegionFidelity]> {
        self.flow_mode
            .as_ref()
            .map(|fm| fm.plan.fidelity.as_slice())
    }

    /// Messages carried (opened) by the flow engine so far.
    pub fn flow_messages(&self) -> u64 {
        self.flow_mode.as_ref().map_or(0, |fm| fm.flow_msgs)
    }

    /// One coarse flow round: re-solve the max-min rates over the live
    /// flow set, escalate any Flow region whose links solved too close to
    /// saturation (handing its flows back to the packet path with their
    /// remaining bytes), then commit one `round` of service — completions
    /// schedule their `AppDeliver` at the exact quantised offset, clamped
    /// per (src, dst) pair so flow deliveries stay FIFO. Reschedules
    /// itself while flows remain; otherwise the next flow-eligible send
    /// re-arms it.
    fn on_flow_round(&mut self, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        // detlint::allow(S001, FlowRound events are only scheduled in flow mode)
        let mut fm = self.flow_mode.take().expect("FlowRound requires flow mode");
        fm.net.solve();

        // Escalation sweep: regions whose busiest channel reached the
        // contention-depth trigger leave the flow model for good.
        let mut escalated = false;
        for r in 0..fm.plan.part.shards {
            if fm.plan.fidelity[r as usize] == RegionFidelity::Flow
                && fm
                    .net
                    .peak_contention(fm.region_links[r as usize].iter().copied())
                    >= ESCALATE_CONTENTION
            {
                fm.plan.escalate(r);
                fm.escalations += 1;
                escalated = true;
            }
        }
        if escalated {
            // Hand every flow that now crosses a packet region back to the
            // packet path: close it and re-segment the remaining bytes
            // under the same message id (the record's length shrinks to
            // what the packet path will actually deliver). One batch close
            // in id order: `pump_conn` never touches the flow engine, so
            // re-segmenting afterwards schedules the same events.
            let demoted = fm
                .net
                .close_crossing(|s| fm.plan.fidelity_of_switch(s) == RegionFidelity::Packet);
            for (id, flow) in demoted {
                let msg_id: u32 = narrow(id);
                let remaining: u32 = narrow(flow.remaining);
                if let Some(rec) = self.messages.get_mut(&msg_id) {
                    rec.len = remaining;
                }
                self.hosts[flow.src.idx()].segment_message(flow.dst, remaining, msg_id);
                self.pump_conn(flow.src, flow.dst, now, true, q);
            }
            // The surviving flows re-share the freed capacity this round.
            fm.net.solve();
        }

        for done in fm.net.advance(fm.round) {
            let msg_id: u32 = narrow(done.id);
            // detlint::allow(S001, every open flow has a message record)
            let rec = *self.messages.get(&msg_id).expect("flow message record");
            let key = (rec.src.0, rec.dst.0);
            let mut at = now + done.offset;
            if let Some(&last) = fm.pair_fifo.get(&key) {
                at = at.max(last);
            }
            fm.pair_fifo.insert(key, at);
            fm.flow_delivered += 1;
            q.schedule(
                at,
                ClusterEvent::Host(HostEvent::AppDeliver {
                    host: rec.dst,
                    from: rec.src,
                    len: rec.len,
                    msg_id,
                }),
            );
        }

        if fm.net.is_empty() {
            fm.armed = false;
        } else {
            q.schedule(now + fm.round, ClusterEvent::FlowRound);
            fm.armed = true;
        }
        self.flow_mode = Some(fm);
    }

    /// Enable the sim-time timeline sampler: every `interval` of sim time a
    /// scheduled `Sample` event records one [`itb_obs::MetricsFrame`] delta.
    /// Call before [`Cluster::start`]; retrieve the series with
    /// [`Cluster::take_timeline`]. Incompatible with sharded parallel runs
    /// (see [`Cluster::set_shard`]).
    ///
    /// # Panics
    /// Panics on a zero interval, or after [`Cluster::start`].
    pub fn enable_timeline(&mut self, interval: SimDuration) {
        self.observers.plan().timeline(interval);
    }

    /// Enable the runtime health monitors (stall watchdog, counter
    /// conservation), sampled every `interval` of sim time; the watchdog
    /// fires when traffic is pending but neither a delivery, a link byte
    /// advance nor a flow-engine byte happens for `stall_budget`. Call
    /// before [`Cluster::start`]; finalize with [`Cluster::health_report`].
    /// Incompatible with sharded parallel runs (see [`Cluster::set_shard`]).
    ///
    /// # Panics
    /// Panics on a zero interval or zero budget, or after
    /// [`Cluster::start`].
    pub fn enable_health(&mut self, interval: SimDuration, stall_budget: SimDuration) {
        self.observers.plan().health(interval, stall_budget);
    }

    /// Take the recorded timeline (None if never enabled or before
    /// [`Cluster::start`]). The sampler is consumed.
    pub fn take_timeline(&mut self) -> Option<itb_obs::TimelineSampler> {
        match &mut self.observers {
            Observing::Running(o) => o.take_timeline(),
            Observing::Planned(_) => None,
        }
    }

    /// The running observers, moved out so the caller can read the rest of
    /// the cluster while feeding them; put them back with
    /// `self.observers = Observing::Running(..)`. None before
    /// [`Cluster::start`] or when nothing is observed.
    fn take_observers(&mut self) -> Option<Box<itb_obs::Observers>> {
        match std::mem::take(&mut self.observers) {
            Observing::Running(o) => Some(o),
            planned => {
                self.observers = planned;
                None
            }
        }
    }

    /// Whether traffic still wants to make progress: packets on the wire or
    /// messages sent but not delivered. This is what arms the stall
    /// watchdog — a quiet network with nothing pending is a finished run,
    /// not a stall.
    pub fn traffic_pending(&self) -> bool {
        self.net.in_flight() > 0 || (self.messages.len() as u64) > self.delivered_messages
    }

    /// The blocked set for stall diagnostics: every parked packet with its
    /// network location, then every undelivered message, in id order.
    pub fn blocked_set(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .net
            .parked_packets()
            .into_iter()
            .map(|id| format!("packet {}: {}", id.0, self.net.locate_packet(id)))
            .collect();
        let mut undelivered: Vec<(u32, &MsgRecord)> = self
            .messages
            .iter()
            .filter(|(_, r)| r.delivered_at.is_none())
            .map(|(&id, r)| (id, r))
            .collect();
        undelivered.sort_by_key(|&(id, _)| id);
        out.extend(undelivered.into_iter().map(|(id, r)| {
            format!(
                "msg {id}: h{}->h{} {} B sent at {} ns, undelivered",
                r.src.idx(),
                r.dst.idx(),
                r.len,
                r.sent_at.as_ps() / 1_000
            )
        }));
        out
    }

    /// Finalize the health monitor at time `now`: feed it one last
    /// sample, run the end-of-run NIC buffer-leak audit over every receive
    /// pool, and return the structured report (None if
    /// [`Cluster::enable_health`] was never called, or before
    /// [`Cluster::start`]). The monitor is consumed.
    pub fn health_report(&mut self, now: SimTime) -> Option<itb_obs::HealthReport> {
        let mut obs = self.take_observers()?;
        self.fill_metrics_frame(now, obs.frame_mut());
        let health = obs.finish_health(self.traffic_pending(), || self.blocked_set());
        self.observers = Observing::Running(obs);
        let mut h = health?;
        let end_ns = now.as_ps() / 1_000;
        for (i, nic) in self.nics.iter().enumerate() {
            let a = nic.buffer_audit();
            h.audit_buffer(
                end_ns,
                &itb_obs::BufferAudit {
                    node: narrow(i),
                    pool: "recv".into(),
                    total: a.recv_total,
                    free: a.recv_free,
                    in_use: a.recv_owned,
                },
            );
        }
        Some(h.finish(end_ns))
    }

    /// One observability tick: fill the metrics frame, feed the observers
    /// (gathering the blocked set if the watchdog fires), then reschedule.
    /// Rescheduling stops when the model has no events left AND no stall
    /// question is open — a finished run terminates naturally, while a
    /// drained queue with traffic still pending (the deadlock signature:
    /// nothing can move, so nothing is scheduled) keeps the sampling clock
    /// alive exactly until the watchdog fires once and diagnoses it.
    fn on_sample(&mut self, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        let Some(mut obs) = self.take_observers() else {
            return;
        };
        // Refill the reusable value buffer in place: zero allocations in
        // steady state (the schema's names were built at start).
        self.fill_metrics_frame(now, obs.frame_mut());
        obs.sample(self.traffic_pending(), || self.blocked_set());
        if !q.is_empty() || obs.stall_open(self.traffic_pending()) {
            q.schedule(now + obs.every(), ClusterEvent::Sample);
        }
        self.observers = Observing::Running(obs);
    }

    /// Kick off every host's application and schedule planned NIC crashes.
    pub fn start(&mut self, q: &mut EventQueue<ClusterEvent>) {
        // Flow mode is fixed by now, so the metric schema is final.
        if matches!(&self.observers, Observing::Planned(p) if p.every().is_some()) {
            let schema = self.build_metrics_schema();
            self.observers.start(schema);
        }
        if let Some(iv) = self.observers.every() {
            q.schedule(SimTime::ZERO + iv, ClusterEvent::Sample);
        }
        for c in self.crashes.clone() {
            q.schedule(
                c.at,
                ClusterEvent::Host(HostEvent::NicCrash { host: c.host }),
            );
            q.schedule(
                c.until,
                ClusterEvent::Host(HostEvent::NicRecover { host: c.host }),
            );
        }
        for h in 0..self.behaviors.len() {
            // Sharded runs kick off owned hosts only; the replicas of other
            // shards never touch this host's state or RNG stream.
            if !self.owns_host(h) {
                continue;
            }
            let host = HostId(narrow(h));
            match &self.behaviors[h] {
                AppBehavior::Sink | AppBehavior::Echo => {}
                AppBehavior::PingPong { .. }
                | AppBehavior::Stream { .. }
                | AppBehavior::AllToAll { .. } => {
                    q.schedule(
                        SimTime::ZERO,
                        ClusterEvent::Host(HostEvent::AppSend { host }),
                    );
                }
                AppBehavior::Poisson { mean_gap, .. } => {
                    let gap = self.rngs[h].exp(mean_gap.as_ns_f64());
                    q.schedule(
                        SimTime::ZERO + SimDuration::from_ns_f64(gap),
                        ClusterEvent::Host(HostEvent::AppSend { host }),
                    );
                }
            }
        }
    }

    /// Per-message records, keyed by message id.
    pub fn messages(&self) -> &FxHashMap<u32, MsgRecord> {
        &self.messages
    }

    /// Ping-pong progress of a host.
    pub fn ping_state(&self, host: HostId) -> &PingPongState {
        &self.ping[host.idx()]
    }

    /// Whether every ping-pong initiator has finished its sweep.
    pub fn all_pingpongs_done(&self) -> bool {
        self.behaviors
            .iter()
            .zip(&self.ping)
            .all(|(b, s)| !matches!(b, AppBehavior::PingPong { .. }) || s.done)
    }

    /// NIC of a host (for stats inspection).
    pub fn nic(&self, host: HostId) -> &Nic {
        &self.nics[host.idx()]
    }

    /// GM state of a host (for stats inspection).
    pub fn host(&self, host: HostId) -> &Host {
        &self.hosts[host.idx()]
    }

    /// Messages delivered so far. O(1): experiment stop predicates call this
    /// once per dispatched event.
    // Every delivered message was first held in memory, so the count fits
    // in usize on any target that ran the simulation.
    #[allow(clippy::cast_possible_truncation)]
    pub fn delivered_count(&self) -> usize {
        self.delivered_messages as usize
    }

    /// Connections that exhausted their retry budget, as `(sender, peer)`
    /// pairs in failure order.
    pub fn connection_failures(&self) -> &[(HostId, HostId)] {
        &self.connection_failures
    }

    /// Every application delivery in order, as `(from, to, msg_id)` — the
    /// exactly-once/in-order evidence the chaos harness audits.
    pub fn delivery_log(&self) -> &[(HostId, HostId, u32)] {
        &self.delivery_log
    }

    /// Fold every behavioral field of the cluster — network, NICs, GM hosts,
    /// application progress, in-flight bookkeeping — into a model-checker
    /// digest. Two clusters with equal digests (plus equal event queues)
    /// evolve identically, so the checker's BFS can merge them.
    ///
    /// Deliberately excluded as pure diagnostics: stats counters
    /// (`app_deliveries`, `drops_observed`, `packets_abandoned`,
    /// `crashes_injected`, per-layer stat blocks), ping-pong RTT samples,
    /// the timeline/health observers, and the per-host RNG streams (checker
    /// scenarios use only deterministic behaviors — Stream/Sink/Echo — whose
    /// evolution never draws from them). The `delivery_log` IS included: it
    /// is the substrate of the exactly-once/in-order invariants, so states
    /// that differ in delivery history must never merge.
    pub fn state_digest(&self, d: &mut itb_sim::Digest) {
        self.net.state_digest(d);
        for nic in &self.nics {
            nic.state_digest(d);
        }
        for host in &self.hosts {
            host.state_digest(d);
        }
        for st in &self.ping {
            d.usize(st.size_ix);
            d.u32(st.iter);
            match st.sent_at {
                Some(t) => {
                    d.bool(true);
                    d.u64(t.as_ps());
                }
                None => d.bool(false),
            }
            d.bool(st.done);
        }
        for v in [&self.stream_sent, &self.poisson_sent, &self.a2a_sent] {
            for &sent in v {
                d.u32(sent);
            }
        }
        let mut msg_ids: Vec<u32> = self.messages.keys().copied().collect();
        msg_ids.sort_unstable();
        d.usize(msg_ids.len());
        for id in msg_ids {
            let r = &self.messages[&id];
            d.u32(id);
            d.u16(r.src.0);
            d.u16(r.dst.0);
            d.u32(r.len);
            d.u64(r.sent_at.as_ps());
            match r.delivered_at {
                Some(t) => {
                    d.bool(true);
                    d.u64(t.as_ps());
                }
                None => d.bool(false),
            }
        }
        d.u32(self.next_msg_id);
        d.u64(self.next_token);
        let mut tokens: Vec<u64> = self.pending_submissions.keys().copied().collect();
        tokens.sort_unstable();
        d.usize(tokens.len());
        for t in tokens {
            let (_, desc) = &self.pending_submissions[&t];
            d.u64(t);
            let hdr = desc.header.as_bytes();
            d.usize(hdr.len());
            d.bytes(hdr);
            d.u32(desc.payload_len);
            d.u64(desc.tag);
            d.u16(desc.src.0);
        }
        d.usize(self.connection_failures.len());
        for &(a, b) in &self.connection_failures {
            d.u16(a.0);
            d.u16(b.0);
        }
        d.usize(self.delivery_log.len());
        for &(from, to, id) in &self.delivery_log {
            d.u16(from.0);
            d.u16(to.0);
            d.u32(id);
        }
        // Hybrid flow engine: live flows (id order), pair-FIFO clamps
        // (sorted) and the escalation state are all behavioral — two
        // clusters differing here schedule different futures. Digested
        // only when flow mode is on, so packet-only runs keep their
        // byte-exact legacy digests.
        if let Some(fm) = &self.flow_mode {
            d.u8(1);
            d.u64(fm.round.as_ps());
            d.bool(fm.armed);
            for f in &fm.plan.fidelity {
                d.bool(matches!(f, RegionFidelity::Flow));
            }
            d.usize(fm.net.len());
            for (id, f) in fm.net.iter() {
                d.u64(id);
                d.u16(f.src.0);
                d.u16(f.dst.0);
                d.u64(f.remaining);
                d.u64(f.interval.ps_per_byte());
            }
            let mut pairs: Vec<(u16, u16, u64)> = fm
                .pair_fifo
                .iter()
                .map(|(&(a, b), &t)| (a, b, t.as_ps()))
                .collect();
            pairs.sort_unstable();
            d.usize(pairs.len());
            for (a, b, t) in pairs {
                d.u16(a);
                d.u16(b);
                d.u64(t);
            }
        }
    }

    /// Per-NIC counter names, in the order [`Cluster::fill_metrics_frame`]
    /// fills their values. The two functions are kept in lockstep by this
    /// shared list plus the length assertion in `MetricsFrame::to_snapshot`,
    /// which every timeline row and [`Cluster::metrics_snapshot`] pass
    /// through, so any drift fails the observability tests immediately.
    const NIC_COUNTER_NAMES: [&'static str; 10] = [
        "sends",
        "recvs",
        "early_recv_events",
        "itb_detects",
        "itb_forwards",
        "itb_pending_serviced",
        "flushed",
        "crc_drops",
        "rx_stalls",
        "crash_flushes",
    ];

    /// Build the counter/link name schema for the frame sampling path, in
    /// the natural fill order of [`Cluster::fill_metrics_frame`]: `net.*`,
    /// then `nic.{i}.*` per NIC, then `gm.*`, then `flow.*` in hybrid runs.
    /// Names depend only on the topology and flow mode, so
    /// [`Cluster::start`] builds the schema once per run.
    fn build_metrics_schema(&self) -> Arc<itb_obs::MetricsSchema> {
        let mut keys = Vec::with_capacity(8 + self.nics.len() * Self::NIC_COUNTER_NAMES.len() + 7);
        for k in [
            "net.injected",
            "net.reinjected",
            "net.delivered",
            "net.bytes_delivered",
            "net.fault_drops",
            "net.fault_corrupts",
            "net.link_down_drops",
            "net.forced_corrupts",
        ] {
            keys.push(k.to_string());
        }
        for i in 0..self.nics.len() {
            for name in Self::NIC_COUNTER_NAMES {
                keys.push(format!("nic.{i}.{name}"));
            }
        }
        for k in [
            "gm.retransmissions",
            "gm.duplicates",
            "gm.app_deliveries",
            "gm.drops_observed",
            "gm.connections_failed",
            "gm.packets_abandoned",
            "gm.crashes_injected",
        ] {
            keys.push(k.to_string());
        }
        // Flow-engine counters exist only in hybrid runs, so packet-only
        // artifacts (the chaos/perf byte-compare gates) keep their exact
        // legacy key set. Every key is monotonic: the health monitor flags
        // any value that goes backwards, so gauges stay out.
        if self.flow_mode.is_some() {
            for k in [
                "flow.bytes_delivered",
                "flow.escalations",
                "flow.msgs_delivered",
                "flow.msgs_opened",
                "flow.solves",
            ] {
                keys.push(k.to_string());
            }
        }
        itb_obs::MetricsSchema::new(keys, self.net.link_names())
    }

    /// Refill `frame` with every metric value at time `now`, in
    /// [`Cluster::build_metrics_schema`] order. Allocation-free once the
    /// frame's buffers have grown to size — this is the per-sample hot
    /// path.
    fn fill_metrics_frame(&self, now: SimTime, frame: &mut itb_obs::MetricsFrame) {
        frame.reset();
        frame.at_ns = now.as_ps() / 1_000;
        let n = self.net.stats();
        frame.counters.extend([
            n.injected,
            n.reinjected,
            n.delivered,
            n.bytes_delivered,
            n.fault_drops,
            n.fault_corrupts,
            n.link_down_drops,
            n.forced_corrupts,
        ]);
        for nic in &self.nics {
            let st = nic.stats();
            frame.counters.extend([
                st.sends,
                st.recvs,
                st.early_recv_events,
                st.itb_detects,
                st.itb_forwards,
                st.itb_pending_serviced,
                st.flushed,
                st.crc_drops,
                st.rx_stalls,
                st.crash_flushes,
            ]);
        }
        let retransmissions: u64 = self
            .hosts
            .iter()
            .flat_map(|h| h.tx.iter().map(|c| c.retransmissions))
            .sum();
        let duplicates: u64 = self
            .hosts
            .iter()
            .flat_map(|h| h.rx.iter().map(|c| c.duplicates))
            .sum();
        frame.counters.extend([
            retransmissions,
            duplicates,
            self.app_deliveries,
            self.drops_observed,
            self.connection_failures.len() as u64,
            self.packets_abandoned,
            self.crashes_injected,
        ]);
        if let Some(fm) = &self.flow_mode {
            frame.counters.extend([
                fm.net.bytes_delivered(),
                fm.escalations,
                fm.flow_delivered,
                fm.flow_msgs,
                fm.net.solves(),
            ]);
        }
        self.net.fill_link_loads(&mut frame.links);
        frame.blocking = itb_obs::QuantileSummary::from(self.net.blocking_times());
    }

    /// One unified metrics snapshot across all layers at time `now`:
    /// network and per-NIC counters in a flat `layer.name` namespace,
    /// per-link byte/blocking loads and the wormhole blocking-time
    /// distribution: the artifact view of the frame the observers sample.
    ///
    /// Implemented via the frame path (values filled positionally, names
    /// joined at materialization), so the hot sampling path and this cold
    /// accessor can never drift apart.
    pub fn metrics_snapshot(&self, now: SimTime) -> itb_obs::Snapshot {
        let schema = match &self.observers {
            Observing::Running(o) => Arc::clone(o.schema()),
            Observing::Planned(_) => self.build_metrics_schema(),
        };
        let mut frame = itb_obs::MetricsFrame::for_schema(&schema);
        self.fill_metrics_frame(now, &mut frame);
        frame.to_snapshot(&schema)
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Application-level send: segment, record, and schedule packet
    /// submissions after host processing costs. Returns the message id.
    pub fn send_message(
        &mut self,
        src: HostId,
        dst: HostId,
        len: u32,
        now: SimTime,
        q: &mut EventQueue<ClusterEvent>,
    ) -> u32 {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.messages.insert(
            msg_id,
            MsgRecord {
                src,
                dst,
                len,
                sent_at: now,
                delivered_at: None,
            },
        );
        // Hybrid engine: flow-eligible messages ride the flow model under
        // the same message id; everything else takes the packet path.
        if self.flow_eligible(src, dst) {
            // detlint::allow(S001, flow_eligible returned true so flow mode is on)
            let fm = self.flow_mode.as_mut().expect("flow mode is on");
            fm.net.open(u64::from(msg_id), src, dst, u64::from(len));
            fm.flow_msgs += 1;
            if !fm.armed {
                fm.armed = true;
                q.schedule(now + fm.round, ClusterEvent::FlowRound);
            }
            return msg_id;
        }
        self.hosts[src.idx()].segment_message(dst, len, msg_id);
        self.pump_conn(src, dst, now, true, q);
        msg_id
    }

    /// Release window-permitted packets of the `(src, dst)` connection to
    /// the NIC, spaced by the per-packet host cost, and keep the
    /// retransmission timer armed while anything is outstanding. A release
    /// queues behind the connection's earlier submissions that have not
    /// fired yet (see `submit_clock`).
    fn pump_conn(
        &mut self,
        src: HostId,
        dst: HostId,
        now: SimTime,
        fresh_send: bool,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let mut released = std::mem::take(&mut self.release_buf);
        self.hosts[src.idx()].pump_window(dst, now, &mut released);
        if released.is_empty() {
            self.release_buf = released;
            return;
        }
        // A fresh application send pays the library-call cost; ACK-driven
        // window refills only pay the per-packet posting cost (the library
        // call already happened).
        let base = if fresh_send {
            self.gm.o_send
        } else {
            self.gm.o_send_per_packet
        };
        let packets = released.drain(..).map(|p| (p.payload_len, p.tag));
        self.schedule_submissions(src, dst, packets, now + base, q);
        self.release_buf = released;
        // Arm the retransmission timer for this connection.
        if self.gm.reliability && !self.hosts[src.idx()].tx[dst.idx()].timer_armed {
            self.hosts[src.idx()].tx[dst.idx()].timer_armed = true;
            q.schedule(
                now + self.gm.retrans_timeout,
                ClusterEvent::Host(HostEvent::RetransCheck {
                    host: src,
                    peer: dst,
                }),
            );
        }
    }

    /// Schedule one `SubmitPacket` per `(payload_len, tag)` of the
    /// `(src, dst)` connection, spaced by the per-packet posting cost. The
    /// first starts at `earliest`, but no sooner than one posting cost
    /// after the connection's last pending submission (see
    /// `submit_clock`), so fresh sends, window refills and go-back-N
    /// resends reach the NIC in the order they were scheduled.
    fn schedule_submissions(
        &mut self,
        src: HostId,
        dst: HostId,
        packets: impl Iterator<Item = (u32, u64)>,
        earliest: SimTime,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let header = self.hosts[src.idx()].header_for(dst);
        let step = self.gm.o_send_per_packet;
        let conn = (src.0, dst.0);
        let mut at = match self.submit_clock.get(&conn) {
            Some(&last) => earliest.max(last + step),
            None => earliest,
        };
        let mut last = None;
        for (payload_len, tag) in packets {
            let token = self.next_token;
            self.next_token += 1;
            self.pending_submissions.insert(
                token,
                (
                    dst,
                    PacketDesc {
                        header: header.clone(),
                        payload_len: payload_len + GM_PKT_OVERHEAD,
                        tag,
                        src,
                    },
                ),
            );
            q.schedule(
                at,
                ClusterEvent::Host(HostEvent::SubmitPacket { host: src, token }),
            );
            last = Some(at);
            at += step;
        }
        if let Some(last) = last {
            self.submit_clock.insert(conn, last);
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// The NIC of `host` and the network it drives, with `host` recorded
    /// as touched so [`Cluster::pump`] drains its outputs. Every NIC call
    /// made while handling an event goes through here.
    fn nic_mut(&mut self, host: HostId) -> (&mut Nic, &mut Network) {
        self.touched.push(host.0);
        (&mut self.nics[host.idx()], &mut self.net)
    }

    /// Route indications and outputs after any net/nic activity. Runs once
    /// per dispatched event and drains only the NICs the event touched (as
    /// the MCP runs only on the NIC whose event fired), so its cost does not
    /// grow with host count. The drain buffers are owned by the cluster and
    /// recycled — the steady-state loop allocates nothing here.
    fn pump(&mut self, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        let mut inds = std::mem::take(&mut self.ind_buf);
        loop {
            self.net.drain_indications_into(&mut inds);
            if inds.is_empty() {
                break;
            }
            for &ind in &inds {
                let host = match ind {
                    HostIndication::HeadArrived { host, .. }
                    | HostIndication::BytesArrived { host, .. }
                    | HostIndication::PacketComplete { host, .. }
                    | HostIndication::InjectionComplete { host, .. } => host,
                };
                let (nic, net) = self.nic_mut(host);
                nic.on_indication(ind, now, net, &mut Sink(q));
            }
        }
        self.ind_buf = inds;
        // Collect the touched NICs' outputs into the GM layer in ascending
        // host order, the order a scan over every NIC would produce.
        let mut outs = std::mem::take(&mut self.out_buf);
        outs.clear();
        self.touched.sort_unstable();
        self.touched.dedup();
        for &h in &self.touched {
            self.nics[usize::from(h)].drain_outputs_into(&mut outs);
        }
        self.touched.clear();
        debug_assert!(
            !self.nics.iter().any(Nic::has_outputs),
            "a NIC produced outputs without being recorded as touched"
        );
        for out in outs.drain(..) {
            self.on_nic_output(out, now, q);
        }
        self.out_buf = outs;
    }

    fn on_nic_output(&mut self, out: NicOutput, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        match out {
            NicOutput::SendComplete { .. } => {
                // Send tokens recycle silently; app flow control is modelled
                // by the drivers' request-response structure.
            }
            NicOutput::Flushed { .. } => {
                // Lost packet: the reliability layer will retransmit. Count
                // it so flush losses are always visible in metrics.
                self.drops_observed += 1;
            }
            NicOutput::RecvComplete {
                host, packet, desc, ..
            } => {
                let meta = PacketMeta::decode(desc.tag);
                let from = desc.src;
                match meta.kind {
                    Kind::Ack => {
                        self.hosts[host.idx()].on_ack(from, meta.seq);
                        // Acks open the send window: release queued packets.
                        self.pump_conn(host, from, now, false, q);
                    }
                    Kind::Data => {
                        let payload = desc.payload_len - GM_PKT_OVERHEAD;
                        let action = self.hosts[host.idx()].on_data(from, payload, meta);
                        let ack = match &action {
                            RxAction::Accepted { ack }
                            | RxAction::Duplicate { ack }
                            | RxAction::Delivered { ack, .. } => Some(*ack),
                            RxAction::Dropped => None,
                        };
                        if self.gm.reliability {
                            if let Some(seq) = ack {
                                let mut sink = Sink(q);
                                sink.host_at(
                                    now + self.gm.o_ack,
                                    HostEvent::SendAck {
                                        host,
                                        to: from,
                                        seq,
                                    },
                                );
                            }
                        }
                        if let RxAction::Delivered { len, msg_id, .. } = action {
                            // The packet that completed the message reaches
                            // the application after the host receive cost.
                            self.net.trace(
                                packet,
                                itb_obs::Stage::HostDeliver,
                                u32::from(host.0),
                                now + self.gm.o_recv,
                            );
                            let mut sink = Sink(q);
                            sink.host_at(
                                now + self.gm.o_recv,
                                HostEvent::AppDeliver {
                                    host,
                                    from,
                                    len,
                                    msg_id,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_host_event(&mut self, ev: HostEvent, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        match ev {
            HostEvent::SubmitPacket { host, token } => {
                if let Some((dst, desc)) = self.pending_submissions.remove(&token) {
                    let conn = (host.0, dst.0);
                    if self
                        .submit_clock
                        .get(&conn)
                        .is_some_and(|&last| last <= now)
                    {
                        self.submit_clock.remove(&conn);
                    }
                    let (nic, net) = self.nic_mut(host);
                    nic.submit_send(token, desc, now, net, &mut Sink(q));
                }
            }
            HostEvent::SendAck { host, to, seq } => {
                let token = self.next_token;
                self.next_token += 1;
                let desc = PacketDesc {
                    header: self.hosts[host.idx()].header_for(to),
                    payload_len: GM_PKT_OVERHEAD,
                    tag: PacketMeta::ack(seq).encode(),
                    src: host,
                };
                let (nic, net) = self.nic_mut(host);
                nic.submit_send(token, desc, now, net, &mut Sink(q));
            }
            HostEvent::AppSend { host } => self.on_app_send(host, now, q),
            HostEvent::AppDeliver {
                host,
                from,
                len,
                msg_id,
            } => self.on_app_deliver(host, from, len, msg_id, now, q),
            HostEvent::RetransCheck { host, peer } => {
                match self.hosts[host.idx()].check_retransmissions(peer, now) {
                    RetransDecision::Failed { abandoned } => {
                        // Retry budget gone: surface the failure instead of
                        // resending forever, and disarm the timer.
                        self.connection_failures.push((host, peer));
                        self.packets_abandoned += abandoned as u64;
                        self.hosts[host.idx()].tx[peer.idx()].timer_armed = false;
                        return;
                    }
                    RetransDecision::Resend(due) => {
                        let packets = due.into_iter().map(|p| (p.payload_len, p.tag));
                        let earliest = now + self.gm.o_send_per_packet;
                        self.schedule_submissions(host, peer, packets, earliest, q);
                    }
                    RetransDecision::Idle => {}
                }
                if self.hosts[host.idx()].has_unacked(peer) {
                    // Re-arm at the current (possibly backed-off) timeout.
                    let delay = self.hosts[host.idx()].retrans_delay(peer);
                    q.schedule_after(
                        delay,
                        ClusterEvent::Host(HostEvent::RetransCheck { host, peer }),
                    );
                } else {
                    self.hosts[host.idx()].tx[peer.idx()].timer_armed = false;
                }
            }
            HostEvent::NicCrash { host } => {
                self.crashes_injected += 1;
                let (nic, net) = self.nic_mut(host);
                nic.crash(now, net, &mut Sink(q));
            }
            HostEvent::NicRecover { host } => {
                self.nic_mut(host).0.recover();
            }
        }
    }

    fn on_app_send(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        match self.behaviors[host.idx()] {
            AppBehavior::PingPong {
                peer, ref sizes, ..
            } => {
                let st = &mut self.ping[host.idx()];
                if st.done || st.size_ix >= sizes.len() {
                    st.done = true;
                    return;
                }
                let size = sizes[st.size_ix];
                st.sent_at = Some(now);
                self.send_message(host, peer, size, now, q);
            }
            AppBehavior::Stream { dst, size, count } => {
                if self.stream_sent[host.idx()] >= count {
                    return;
                }
                self.stream_sent[host.idx()] += 1;
                self.send_message(host, dst, size, now, q);
                // Next message immediately (back-to-back; NIC queues pace it).
                if self.stream_sent[host.idx()] < count {
                    q.schedule(now, ClusterEvent::Host(HostEvent::AppSend { host }));
                }
            }
            AppBehavior::Poisson {
                size,
                mean_gap,
                limit,
            } => {
                if limit > 0 && self.poisson_sent[host.idx()] >= limit {
                    return;
                }
                self.poisson_sent[host.idx()] += 1;
                // Uniform random destination other than self.
                let n = self.hosts.len() as u64;
                let mut dst = narrow::<u16, _>(self.rngs[host.idx()].below(n - 1));
                if dst >= host.0 {
                    dst += 1;
                }
                self.send_message(host, HostId(dst), size, now, q);
                let gap = self.rngs[host.idx()].exp(mean_gap.as_ns_f64());
                q.schedule_after(
                    SimDuration::from_ns_f64(gap),
                    ClusterEvent::Host(HostEvent::AppSend { host }),
                );
            }
            AppBehavior::AllToAll { size, gap } => {
                let n: u32 = narrow(self.hosts.len());
                let k = self.a2a_sent[host.idx()];
                if k >= n - 1 {
                    return;
                }
                self.a2a_sent[host.idx()] += 1;
                // Destination order: host+1, host+2, ... (mod n), skipping
                // self — every host starts its exchange at a different peer,
                // the standard skew for total exchanges.
                let dst = HostId(narrow((u32::from(host.0) + 1 + k) % n));
                self.send_message(host, dst, size, now, q);
                if self.a2a_sent[host.idx()] < n - 1 {
                    q.schedule_after(gap, ClusterEvent::Host(HostEvent::AppSend { host }));
                }
            }
            AppBehavior::Sink | AppBehavior::Echo => {}
        }
    }

    fn on_app_deliver(
        &mut self,
        host: HostId,
        from: HostId,
        len: u32,
        msg_id: u32,
        now: SimTime,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        // Message ids are allocated per shard, so the record keeper is the
        // *sender's* shard: a numeric match in this replica's map would be a
        // different message entirely. Route the bookkeeping home instead.
        let record_is_local = match &mut self.shard {
            None => true,
            Some(s) => {
                let owner = s.host_shard[from.idx()];
                if owner == s.me {
                    true
                } else {
                    let seq = self.net.alloc_handoff_seq();
                    s.notices[owner as usize].push(DeliveryNotice {
                        at: now,
                        msg_id,
                        from,
                        seq,
                    });
                    false
                }
            }
        };
        if record_is_local {
            if let Some(rec) = self.messages.get_mut(&msg_id) {
                debug_assert_eq!(rec.dst, host, "message delivered to its destination");
                debug_assert_eq!(rec.len, len, "reassembled length matches");
                if rec.delivered_at.is_none() {
                    self.delivered_messages += 1;
                }
                rec.delivered_at = Some(now);
            }
        }
        self.app_deliveries += 1;
        self.delivery_log.push((from, host, msg_id));
        match self.behaviors[host.idx()] {
            AppBehavior::Echo => {
                self.send_message(host, from, len, now, q);
            }
            AppBehavior::PingPong {
                ref sizes,
                iters,
                warmup,
                ..
            } => {
                let st = &mut self.ping[host.idx()];
                // detlint::allow(S001, a pong is only delivered for an in-flight ping)
                let sent = st.sent_at.take().expect("pong matches an in-flight ping");
                let rtt = now - sent;
                if st.iter >= warmup {
                    st.samples.push((sizes[st.size_ix], rtt));
                }
                st.iter += 1;
                if st.iter >= warmup + iters {
                    st.iter = 0;
                    st.size_ix += 1;
                    if st.size_ix >= sizes.len() {
                        st.done = true;
                        return;
                    }
                }
                q.schedule(now, ClusterEvent::Host(HostEvent::AppSend { host }));
            }
            _ => {}
        }
    }
}

impl World for Cluster {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, ev: ClusterEvent, q: &mut EventQueue<ClusterEvent>) {
        match ev {
            ClusterEvent::Net(e) => {
                let mut sink = Sink(q);
                self.net.handle(now, e, &mut sink);
            }
            ClusterEvent::Nic(e) => {
                let host = match e {
                    NicEvent::Cpu { host, .. } | NicEvent::Dma { host, .. } => host,
                };
                let (nic, net) = self.nic_mut(host);
                nic.handle(now, e, net, &mut Sink(q));
            }
            ClusterEvent::Host(e) => self.on_host_event(e, now, q),
            ClusterEvent::Sample => self.on_sample(now, q),
            ClusterEvent::FlowRound => self.on_flow_round(now, q),
        }
        self.pump(now, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_event_stays_small() {
        // The union event is copied through the calendar heap on every
        // schedule/sift; keep it register-friendly. (NicEvent is bounded by
        // its own test; this pins the union's padding too.)
        assert!(
            std::mem::size_of::<ClusterEvent>() <= 40,
            "ClusterEvent grew to {} bytes — box the fat variant instead",
            std::mem::size_of::<ClusterEvent>()
        );
    }
}
