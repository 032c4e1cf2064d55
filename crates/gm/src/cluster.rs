//! The integrated cluster: network + NICs + GM hosts behind one event loop.

use crate::apps::{App, AppBehavior, PingPongState, Step};
use crate::config::GmConfig;
use crate::host::{Host, QueuedPacket, RetransDecision, RxAction};
use crate::meta::{Kind, PacketMeta};
use crate::rounds::FlowRounds;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostEvent {
    /// Application generates its next message (ping-pong next iteration,
    /// stream next message, Poisson arrival).
    AppSend {
        /// Acting host.
        host: HostId,
    },
    /// Host CPU finished posting a packet; hand it to the NIC. The event
    /// is the packet's only copy; its header is read from the
    /// mapper-installed route table when it fires.
    SubmitPacket {
        /// Acting host.
        host: HostId,
        /// Destination: the connection's peer.
        peer: HostId,
        /// GM payload bytes (without [`GM_PKT_OVERHEAD`]).
        payload_len: u32,
        /// NIC send token, allocated in scheduling order.
        token: u64,
        /// Encoded [`PacketMeta`] tag.
        tag: u64,
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

/// The union event type of the whole simulation. Its derived `Hash`, fed
/// into an [`itb_sim::Digest`], is the event's identity in the model
/// checker's queue digest.
#[derive(Debug, Clone, Copy, Hash)]
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
    rounds: FlowRounds<ClusterEvent>,
    /// Region decomposition + per-region fidelity (escalation mutates it).
    plan: RegionPlan,
    /// Per-(src, dst) clamp keeping flow completions FIFO within a pair:
    /// a later message never schedules its delivery before an earlier one
    /// (the queue's FIFO tie-break then preserves order at equal times).
    pair_fifo: FxHashMap<(u16, u16), SimTime>,
    /// Link ids owned by each region, for the escalation contention scan
    /// (host links count toward their switch's region; cut links toward
    /// the lower-numbered side).
    region_links: Vec<Vec<u32>>,
    /// Regions escalated to packet fidelity so far.
    escalations: u64,
}

impl FlowMode {
    /// Whether a `src → dst` message may ride the flow engine: at least
    /// one Flow region left, no in-transit hop on the installed route in
    /// `routes`, and every switch on the (BFS) flow path at Flow fidelity.
    fn carries(&self, src: HostId, dst: HostId, routes: &RouteTable) -> bool {
        if self.plan.is_all_packet() || src == dst || routes.itb_count(src, dst) > 0 {
            return false;
        }
        self.rounds.net.path_all(src, dst, |s| {
            self.plan.fidelity_of_switch(s) == RegionFidelity::Flow
        })
    }

    /// The `flow.*` counters with their metric names. Every one is
    /// monotonic: the health monitor flags any value that goes backwards,
    /// so gauges stay out.
    fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("bytes_delivered", self.rounds.net.bytes_delivered()),
            ("escalations", self.escalations),
            ("msgs_delivered", self.rounds.completed),
            ("msgs_opened", self.rounds.opened),
            ("solves", self.rounds.net.solves()),
        ]
    }
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
    /// [`Cluster::start`] has run: the observers it built over the final
    /// metric schema (None when nothing was planned).
    Running(Option<Box<itb_obs::Observers>>),
}

impl Observing {
    /// The sampling cadence (None when nothing is observed).
    fn every(&self) -> Option<SimDuration> {
        match self {
            Observing::Planned(p) => p.every(),
            Observing::Running(o) => o.as_ref().map(|o| o.every()),
        }
    }

    /// The plan, for the `what` call that must precede [`Cluster::start`].
    fn plan(&mut self, what: &str) -> &mut itb_obs::ObserverPlan {
        match self {
            Observing::Planned(p) => p,
            Observing::Running(_) => {
                // detlint::allow(S001, documented precondition of the enable_* calls)
                panic!("{what} must precede Cluster::start: the metric schema is final there")
            }
        }
    }

    /// Build the planned observers over `schema`, if any.
    fn start(&mut self, schema: Option<Arc<itb_obs::MetricsSchema>>) {
        if let Observing::Planned(p) = self {
            let built = schema.and_then(|s| std::mem::take(p).build(s));
            *self = Observing::Running(built.map(Box::new));
        }
    }
}

/// The complete simulated Myrinet cluster.
pub struct Cluster {
    /// The wormhole network.
    pub net: Network,
    nics: Vec<Nic>,
    /// GM hosts, all built from one [`GmConfig`] and one route table.
    hosts: Vec<Host>,
    apps: Vec<App>,
    /// Per-message records, indexed by message id (ids are dense per
    /// shard: the next id is the length).
    messages: Vec<MsgRecord>,
    /// O(1) mirror of "messages with `delivered_at` set" — the hot
    /// `run_while` predicates poll [`Cluster::delivered_count`] once per
    /// dispatched event, so it must not scan the message records.
    // detlint::allow(T003, derived mirror of the digested message records' delivered_at bits)
    delivered_messages: u64,
    next_token: u64,
    /// Packets a send, window pump or go-back-N resend released, until
    /// [`Cluster::release`] schedules them (reused scratch).
    // detlint::allow(T003, release scratch: drained to empty before the call returns)
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
    // detlint::allow(T003, per-run fault schedule: fixed before the first event; its effects land in digested NIC/host state)
    crashes: Vec<HostCrash>,
    connection_failures: Vec<(HostId, HostId)>,
    delivery_log: Vec<(HostId, HostId, u32)>,
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
        let apps = (p.behaviors.into_iter().enumerate())
            .map(|(h, b)| App::new(b, HostId(narrow(h)), narrow(n), master.child(h as u64)))
            .collect();
        for c in &p.faults.crashes {
            assert!(c.host.idx() < n, "crash target must be a real host");
        }
        let mut net = Network::new(p.topo, p.net);
        net.set_fault_plan(&p.faults);
        Cluster {
            net,
            nics,
            hosts,
            apps,
            messages: Vec::new(),
            delivered_messages: 0,
            next_token: 0,
            release_buf: Vec::new(),
            ind_buf: Vec::new(),
            out_buf: Vec::new(),
            touched: Vec::new(),
            crashes: p.faults.crashes,
            connection_failures: Vec::new(),
            delivery_log: Vec::new(),
            drops_observed: 0,
            packets_abandoned: 0,
            crashes_injected: 0,
            shard: None,
            observers: Observing::Planned(itb_obs::ObserverPlan::default()),
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
        if let Some(rec) = self.messages.get_mut(n.msg_id as usize) {
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
    /// plan, a plan partitioned over a different switch count, or after
    /// [`Cluster::start`].
    pub fn enable_flow_regions(&mut self, plan: RegionPlan, round: SimDuration) {
        // The schema built at start must list the flow.* counters.
        self.observers.plan("enable_flow_regions");
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
            rounds: FlowRounds::new(flow_net, round, ClusterEvent::FlowRound),
            plan,
            pair_fifo: FxHashMap::default(),
            region_links,
            escalations: 0,
        });
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
        self.flow_mode.as_ref().map_or(0, |fm| fm.rounds.opened)
    }

    /// One coarse flow round of the shared cycle, plus the hybrid engine's
    /// two additions: between solve and advance, escalate every Flow region
    /// whose contention reached [`ESCALATE_CONTENTION`] and hand its flows
    /// back to the packet path; and clamp completions per (src, dst) pair
    /// so flow deliveries stay FIFO.
    fn on_flow_round(&mut self, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        let Some(fm) = &mut self.flow_mode else {
            return;
        };
        fm.rounds.net.solve();

        // Escalation sweep: regions whose busiest channel reached the
        // contention-depth trigger leave the flow model for good.
        let mut escalated = false;
        for r in 0..fm.plan.part.shards {
            let links = fm.region_links[r as usize].iter().copied();
            if fm.plan.fidelity[r as usize] == RegionFidelity::Flow
                && fm.rounds.net.peak_contention(links) >= ESCALATE_CONTENTION
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
            // in id order: a packet send never touches the flow engine, so
            // re-segmenting afterwards schedules the same events.
            let demoted = fm
                .rounds
                .net
                .close_crossing(|s| fm.plan.fidelity_of_switch(s) == RegionFidelity::Packet);
            for (id, flow) in demoted {
                let msg_id: u32 = narrow(id);
                let remaining: u32 = narrow(flow.remaining);
                if let Some(rec) = self.messages.get_mut(msg_id as usize) {
                    rec.len = remaining;
                }
                let host = &mut self.hosts[flow.src.idx()];
                let base = host.cfg.o_send;
                host.send(flow.dst, remaining, msg_id, now, &mut self.release_buf);
                self.release(flow.src, flow.dst, now, base, q);
            }
        }

        let Some(fm) = &mut self.flow_mode else {
            return;
        };
        if escalated {
            // The surviving flows re-share the freed capacity this round.
            fm.rounds.net.solve();
        }
        let (messages, pair_fifo) = (&self.messages, &mut fm.pair_fifo);
        fm.rounds.advance(now, q, |id, at, q| {
            let msg_id: u32 = narrow(id);
            // Every open flow has a message record under its id.
            let rec = &messages[msg_id as usize];
            let key = (rec.src.0, rec.dst.0);
            let at = pair_fifo.get(&key).map_or(at, |&last| at.max(last));
            pair_fifo.insert(key, at);
            q.schedule(
                at,
                ClusterEvent::Host(HostEvent::AppDeliver {
                    host: rec.dst,
                    from: rec.src,
                    len: rec.len,
                    msg_id,
                }),
            );
        });
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
        self.observers.plan("enable_timeline").timeline(interval);
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
        self.observers
            .plan("enable_health")
            .health(interval, stall_budget);
    }

    /// Take the recorded timeline (None if never enabled or before
    /// [`Cluster::start`]). The sampler is consumed.
    pub fn take_timeline(&mut self) -> Option<itb_obs::TimelineSampler> {
        match &mut self.observers {
            Observing::Running(Some(o)) => o.take_timeline(),
            _ => None,
        }
    }

    /// The running observers, moved out so the caller can read the rest of
    /// the cluster while feeding them; put them back with
    /// `self.observers = Observing::Running(Some(..))`. None before
    /// [`Cluster::start`] or when nothing is observed.
    fn take_observers(&mut self) -> Option<Box<itb_obs::Observers>> {
        match &mut self.observers {
            Observing::Running(o) => o.take(),
            Observing::Planned(_) => None,
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
        for (id, r) in self.messages.iter().enumerate() {
            if r.delivered_at.is_none() {
                out.push(format!(
                    "msg {id}: h{}->h{} {} B sent at {} ns, undelivered",
                    r.src.idx(),
                    r.dst.idx(),
                    r.len,
                    r.sent_at.as_ps() / 1_000
                ));
            }
        }
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
        self.observers = Observing::Running(Some(obs));
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
        self.observers = Observing::Running(Some(obs));
    }

    /// Kick off every host's application and schedule planned NIC crashes.
    pub fn start(&mut self, q: &mut EventQueue<ClusterEvent>) {
        // Flow mode is fixed by now, so the metric schema is final.
        let schema = self.observers.every().map(|_| self.build_metrics_schema());
        self.observers.start(schema);
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
        for h in 0..self.apps.len() {
            // Sharded runs kick off owned hosts only; the replicas of other
            // shards never touch this host's state or RNG stream.
            if self.owns_host(h) {
                let step = self.apps[h].first_send();
                self.apply(HostId(narrow(h)), step, SimTime::ZERO, q);
            }
        }
    }

    /// Per-message records, indexed by message id.
    pub fn messages(&self) -> &[MsgRecord] {
        &self.messages
    }

    /// Ping-pong progress of a host.
    pub fn ping_state(&self, host: HostId) -> &PingPongState {
        &self.apps[host.idx()].ping
    }

    /// Whether every ping-pong initiator has finished its sweep.
    pub fn all_pingpongs_done(&self) -> bool {
        self.apps.iter().all(App::ping_done)
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
    /// (`drops_observed`, `packets_abandoned`, `crashes_injected`,
    /// per-layer stat blocks), ping-pong RTT samples,
    /// the timeline/health observers, and the apps' RNG streams (checker
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
        App::digest_all(&self.apps, d);
        d.usize(self.messages.len());
        for (id, r) in self.messages.iter().enumerate() {
            d.u32(narrow(id));
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
        d.u32(narrow(self.messages.len()));
        d.u64(self.next_token);
        // Posted packets ride in their `SubmitPacket` events; the zero is
        // the old pending-packet count, kept so end-of-run digests hold.
        d.usize(0);
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
            d.u64(fm.rounds.round.as_ps());
            // Whether a FlowRound is scheduled.
            d.bool(!fm.rounds.net.is_empty());
            for f in &fm.plan.fidelity {
                d.bool(matches!(f, RegionFidelity::Flow));
            }
            d.usize(fm.rounds.net.len());
            for (id, f) in fm.rounds.net.iter() {
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

    /// The `gm.*` counters with their metric names.
    fn gm_counters(&self) -> [(&'static str, u64); 7] {
        let retransmissions = (self.hosts.iter())
            .flat_map(|h| h.tx.iter().map(|c| c.retransmissions))
            .sum();
        let duplicates = (self.hosts.iter())
            .flat_map(|h| h.rx.iter().map(|c| c.duplicates))
            .sum();
        [
            ("retransmissions", retransmissions),
            ("duplicates", duplicates),
            ("app_deliveries", self.delivery_log.len() as u64),
            ("drops_observed", self.drops_observed),
            ("connections_failed", self.connection_failures.len() as u64),
            ("packets_abandoned", self.packets_abandoned),
            ("crashes_injected", self.crashes_injected),
        ]
    }

    /// Build the counter/link name schema for the frame sampling path, in
    /// the natural fill order of [`Cluster::fill_metrics_frame`]: `net.*`,
    /// then `nic.{i}.*` per NIC, then `gm.*`, then `flow.*` in hybrid runs.
    /// Names depend only on the topology and flow mode, so
    /// [`Cluster::start`] builds the schema once per run.
    fn build_metrics_schema(&self) -> Arc<itb_obs::MetricsSchema> {
        let net = self.net.stats().counters();
        let nic = itb_nic::stats::NicStats::default().counters();
        let gm = self.gm_counters();
        // Flow-engine counters exist only in hybrid runs, so packet-only
        // artifacts (the chaos/perf byte-compare gates) keep their exact
        // legacy key set.
        let flow = self.flow_mode.as_ref().map(FlowMode::counters);
        let flow_len = flow.map_or(0, |f| f.len());
        let mut keys =
            Vec::with_capacity(net.len() + self.nics.len() * nic.len() + gm.len() + flow_len);
        keys.extend(net.iter().map(|(k, _)| ["net", ".", k].concat()));
        for i in 0..self.nics.len() {
            keys.extend(nic.iter().map(|(k, _)| format!("nic.{i}.{k}")));
        }
        keys.extend(gm.iter().map(|(k, _)| ["gm", ".", k].concat()));
        if let Some(flow) = flow {
            keys.extend(flow.iter().map(|(k, _)| ["flow", ".", k].concat()));
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
        let values = &mut frame.counters;
        values.extend(self.net.stats().counters().map(|(_, v)| v));
        for nic in &self.nics {
            values.extend(nic.stats().counters().map(|(_, v)| v));
        }
        values.extend(self.gm_counters().map(|(_, v)| v));
        if let Some(fm) = &self.flow_mode {
            values.extend(fm.counters().map(|(_, v)| v));
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
            Observing::Running(Some(o)) => Arc::clone(o.schema()),
            _ => self.build_metrics_schema(),
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
        let msg_id = narrow(self.messages.len());
        self.messages.push(MsgRecord {
            src,
            dst,
            len,
            sent_at: now,
            delivered_at: None,
        });
        // Hybrid engine: flow-eligible messages ride the flow model under
        // the same message id; everything else takes the packet path.
        let host = &mut self.hosts[src.idx()];
        let flow = (self.flow_mode.as_mut()).filter(|fm| fm.carries(src, dst, &host.routes));
        if let Some(fm) = flow {
            let bytes = u64::from(len);
            fm.rounds.open(u64::from(msg_id), src, dst, bytes, now, q);
            return msg_id;
        }
        // A fresh application send pays the library-call cost.
        let base = host.cfg.o_send;
        host.send(dst, len, msg_id, now, &mut self.release_buf);
        self.release(src, dst, now, base, q);
        msg_id
    }

    /// Hand the packets of the `(src, dst)` connection waiting in
    /// `release_buf` to the NIC: schedule one `SubmitPacket` each, the
    /// first `base` after `now`, the rest spaced by the per-packet posting
    /// cost, and keep the retransmission timer armed while anything is
    /// outstanding. Fresh sends, window refills and go-back-N resends all
    /// come through here. A release queues behind the connection's earlier
    /// submissions that have not fired yet (see
    /// [`ConnTx::submit_clock`](crate::host::ConnTx::submit_clock)), so
    /// packets reach the NIC in the order they were scheduled.
    fn release(
        &mut self,
        src: HostId,
        dst: HostId,
        now: SimTime,
        base: SimDuration,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        if self.release_buf.is_empty() {
            return;
        }
        let host = &mut self.hosts[src.idx()];
        let cfg = host.cfg;
        // Every release comes from an open connection.
        let Some(conn) = host.conn_tx_mut(dst) else {
            self.release_buf.clear();
            return;
        };
        let step = cfg.o_send_per_packet;
        let earliest = now + base;
        let mut at = conn
            .submit_clock
            .map_or(earliest, |last| earliest.max(last + step));
        for p in self.release_buf.drain(..) {
            let token = self.next_token;
            self.next_token += 1;
            let ev = HostEvent::SubmitPacket {
                host: src,
                peer: dst,
                payload_len: p.payload_len,
                token,
                tag: p.tag,
            };
            q.schedule(at, ClusterEvent::Host(ev));
            conn.submit_clock = Some(at);
            at += step;
        }
        // Arm the retransmission timer for this connection.
        if cfg.reliability && !conn.timer_armed {
            conn.timer_armed = true;
            q.schedule(
                now + cfg.retrans_timeout,
                ClusterEvent::Host(HostEvent::RetransCheck {
                    host: src,
                    peer: dst,
                }),
            );
        }
    }

    /// Hand `pkt` from `host` to `peer` to the host's NIC under `token`,
    /// with the route table's header for the pair. DATA and ACK packets
    /// both reach the NIC here.
    fn submit(
        &mut self,
        (host, peer): (HostId, HostId),
        token: u64,
        pkt: QueuedPacket,
        now: SimTime,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let desc = PacketDesc {
            header: self.hosts[host.idx()].header_for(peer),
            payload_len: pkt.payload_len + GM_PKT_OVERHEAD,
            tag: pkt.tag,
            src: host,
        };
        let (nic, net) = self.nic_mut(host);
        nic.submit_send(token, desc, now, net, &mut Sink(q));
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
                        let gm = &mut self.hosts[host.idx()];
                        gm.on_ack(from, meta.seq);
                        // Acks open the send window: release queued packets.
                        // A refill pays only the per-packet posting cost.
                        gm.pump_window(from, now, &mut self.release_buf);
                        let base = gm.cfg.o_send_per_packet;
                        self.release(host, from, now, base, q);
                    }
                    Kind::Data => {
                        let payload = desc.payload_len - GM_PKT_OVERHEAD;
                        let gm = &mut self.hosts[host.idx()];
                        let action = gm.on_data(from, payload, meta);
                        let cfg = &gm.cfg;
                        let ack = match &action {
                            RxAction::Accepted { ack }
                            | RxAction::Duplicate { ack }
                            | RxAction::Delivered { ack, .. } => Some(*ack),
                            RxAction::Dropped => None,
                        };
                        if cfg.reliability {
                            if let Some(seq) = ack {
                                let ev = HostEvent::SendAck {
                                    host,
                                    to: from,
                                    seq,
                                };
                                q.schedule(now + cfg.o_ack, ClusterEvent::Host(ev));
                            }
                        }
                        if let RxAction::Delivered { len, msg_id, .. } = action {
                            // The packet that completed the message reaches
                            // the application after the host receive cost.
                            self.net.trace(
                                packet,
                                itb_obs::Stage::HostDeliver,
                                u32::from(host.0),
                                now + cfg.o_recv,
                            );
                            let deliver = HostEvent::AppDeliver {
                                host,
                                from,
                                len,
                                msg_id,
                            };
                            q.schedule(now + cfg.o_recv, ClusterEvent::Host(deliver));
                        }
                    }
                }
            }
        }
    }

    fn on_host_event(&mut self, ev: HostEvent, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        match ev {
            HostEvent::SubmitPacket {
                host,
                peer,
                payload_len,
                token,
                tag,
            } => {
                if let Some(conn) = self.hosts[host.idx()]
                    .conn_tx_mut(peer)
                    .filter(|c| c.submit_clock.is_some_and(|last| last <= now))
                {
                    conn.submit_clock = None;
                }
                let pkt = QueuedPacket { payload_len, tag };
                self.submit((host, peer), token, pkt, now, q);
            }
            HostEvent::SendAck { host, to, seq } => {
                let token = self.next_token;
                self.next_token += 1;
                let pkt = QueuedPacket {
                    payload_len: 0,
                    tag: PacketMeta::ack(seq).encode(),
                };
                self.submit((host, to), token, pkt, now, q);
            }
            HostEvent::AppSend { host } => {
                let step = self.apps[host.idx()].on_send(now);
                self.apply(host, step, now, q);
            }
            HostEvent::AppDeliver {
                host,
                from,
                len,
                msg_id,
            } => {
                // Message ids are allocated per shard, so the record keeper is the
                // *sender's* shard: a numeric match in this replica's map would be a
                // different message entirely. Route the bookkeeping home instead.
                let notice = DeliveryNotice {
                    at: now,
                    msg_id,
                    from,
                    seq: 0,
                };
                match &mut self.shard {
                    Some(s) if s.host_shard[from.idx()] != s.me => {
                        let seq = self.net.alloc_handoff_seq();
                        s.notices[s.host_shard[from.idx()] as usize]
                            .push(DeliveryNotice { seq, ..notice });
                    }
                    _ => {
                        debug_assert!(
                            (self.messages.get(msg_id as usize))
                                .is_none_or(|r| r.dst == host && r.len == len),
                            "a message reaches its destination whole"
                        );
                        self.apply_delivery_notice(notice);
                    }
                }
                self.delivery_log.push((from, host, msg_id));
                let step = self.apps[host.idx()].on_deliver(from, len, now);
                self.apply(host, step, now, q);
            }
            HostEvent::RetransCheck { host, peer } => {
                let buf = &mut self.release_buf;
                match self.hosts[host.idx()].check_retransmissions(peer, now, buf) {
                    RetransDecision::Failed { abandoned } => {
                        // Retry budget gone: surface the failure instead of
                        // resending forever. Nothing is left unacked, so the
                        // timer disarms below.
                        self.connection_failures.push((host, peer));
                        self.packets_abandoned += abandoned as u64;
                    }
                    RetransDecision::Resend => {
                        // A resend pays the per-packet posting cost, as a
                        // window refill does. The timer is armed already.
                        let base = self.hosts[host.idx()].cfg.o_send_per_packet;
                        self.release(host, peer, now, base, q);
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
                } else if let Some(conn) = self.hosts[host.idx()].conn_tx_mut(peer) {
                    conn.timer_armed = false;
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

    /// Carry out an app's step: send first, then schedule its next `AppSend`.
    fn apply(&mut self, host: HostId, step: Step, now: SimTime, q: &mut EventQueue<ClusterEvent>) {
        let Step(send, next) = step;
        if let Some((dst, len)) = send {
            self.send_message(host, dst, len, now, q);
        }
        if let Some(delay) = next {
            q.schedule(now + delay, ClusterEvent::Host(HostEvent::AppSend { host }));
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
            std::mem::size_of::<ClusterEvent>() <= 32,
            "ClusterEvent grew to {} bytes — box the fat variant instead",
            std::mem::size_of::<ClusterEvent>()
        );
    }
}
