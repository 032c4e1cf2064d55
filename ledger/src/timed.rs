//! Host-time split of a simulation run, measured from outside the sim
//! crates.
//!
//! [`TimedWorld`] runs its own pop/handle loop over any [`World`] and reads
//! the clock around each `pop` and each `handle`, charging the handle span
//! to the event's [`Kind`]. The two spans of an event tile the loop: the pop
//! span runs from the end of the previous handle to the end of this pop, so
//! the loop's own bookkeeping lands in `queue.pop` and every kind's time
//! plus the pop time adds up to the run's wall time.
//!
//! What this cannot see: `Cluster::handle` runs its `pump` (indication and
//! NIC-output routing) after every event, so that cost is charged to the
//! event that triggered it. Splitting it out needs spans inside the program.

use crate::alloc;
use itb_gm::cluster::HostEvent;
use itb_gm::{ClusterEvent, FlowWorldEvent};
use itb_net::NetEvent;
use itb_nic::{CpuWork, DmaJob, NicEvent};
use itb_sim::{EventQueue, World};
use std::time::Instant;

/// The layer a piece of host time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Queue,
    Net,
    Nic,
    Gm,
    Obs,
    Flow,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Queue,
        Layer::Net,
        Layer::Nic,
        Layer::Gm,
        Layer::Obs,
        Layer::Flow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Queue => "queue",
            Layer::Net => "net",
            Layer::Nic => "nic",
            Layer::Gm => "gm",
            Layer::Obs => "obs",
            Layer::Flow => "flow",
        }
    }
}

/// One timed span kind: the queue pop, or the handling of one event
/// variant (and sub-kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QueuePop,
    NetTxDone,
    NetRxFlit,
    NetRouteReady,
    NetCtrl,
    NicEarlyRecv,
    NicItbForward,
    NicSendProgram,
    NicRecvFinish,
    NicRecvDeliver,
    NicSdma,
    NicRdma,
    GmAppSend,
    GmSubmit,
    GmAppDeliver,
    GmSendAck,
    GmRetransCheck,
    GmFault,
    ObsSample,
    FlowRound,
    FlowArrival,
    FlowDeliver,
}

const KINDS: usize = 22;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::QueuePop,
        Kind::NetTxDone,
        Kind::NetRxFlit,
        Kind::NetRouteReady,
        Kind::NetCtrl,
        Kind::NicEarlyRecv,
        Kind::NicItbForward,
        Kind::NicSendProgram,
        Kind::NicRecvFinish,
        Kind::NicRecvDeliver,
        Kind::NicSdma,
        Kind::NicRdma,
        Kind::GmAppSend,
        Kind::GmSubmit,
        Kind::GmAppDeliver,
        Kind::GmSendAck,
        Kind::GmRetransCheck,
        Kind::GmFault,
        Kind::ObsSample,
        Kind::FlowRound,
        Kind::FlowArrival,
        Kind::FlowDeliver,
    ];

    /// Metric-name stem, `<layer>.<kind>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::QueuePop => "queue.pop",
            Kind::NetTxDone => "net.tx_done",
            Kind::NetRxFlit => "net.rx_flit",
            Kind::NetRouteReady => "net.route_ready",
            Kind::NetCtrl => "net.ctrl",
            Kind::NicEarlyRecv => "nic.early_recv",
            Kind::NicItbForward => "nic.itb_forward",
            Kind::NicSendProgram => "nic.send_program",
            Kind::NicRecvFinish => "nic.recv_finish",
            Kind::NicRecvDeliver => "nic.recv_deliver",
            Kind::NicSdma => "nic.sdma",
            Kind::NicRdma => "nic.rdma",
            Kind::GmAppSend => "gm.app_send",
            Kind::GmSubmit => "gm.submit",
            Kind::GmAppDeliver => "gm.app_deliver",
            Kind::GmSendAck => "gm.send_ack",
            Kind::GmRetransCheck => "gm.retrans_check",
            Kind::GmFault => "gm.fault",
            Kind::ObsSample => "obs.sample",
            Kind::FlowRound => "flow.round",
            Kind::FlowArrival => "flow.arrival",
            Kind::FlowDeliver => "flow.deliver",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Kind::QueuePop => Layer::Queue,
            Kind::NetTxDone | Kind::NetRxFlit | Kind::NetRouteReady | Kind::NetCtrl => Layer::Net,
            Kind::NicEarlyRecv
            | Kind::NicItbForward
            | Kind::NicSendProgram
            | Kind::NicRecvFinish
            | Kind::NicRecvDeliver
            | Kind::NicSdma
            | Kind::NicRdma => Layer::Nic,
            Kind::GmAppSend
            | Kind::GmSubmit
            | Kind::GmAppDeliver
            | Kind::GmSendAck
            | Kind::GmRetransCheck
            | Kind::GmFault => Layer::Gm,
            Kind::ObsSample => Layer::Obs,
            Kind::FlowRound | Kind::FlowArrival | Kind::FlowDeliver => Layer::Flow,
        }
    }
}

/// Maps an event to the kind its handling is charged to. The impls match
/// every variant by name with no wildcard arm, so a new event variant does
/// not compile until it is classified here.
pub trait Classify {
    fn kind(&self) -> Kind;
}

impl Classify for ClusterEvent {
    fn kind(&self) -> Kind {
        match self {
            ClusterEvent::Net(e) => match e {
                NetEvent::TxDone { .. } => Kind::NetTxDone,
                NetEvent::RxFlit { .. } => Kind::NetRxFlit,
                NetEvent::RouteReady { .. } => Kind::NetRouteReady,
                NetEvent::Ctrl { .. } => Kind::NetCtrl,
            },
            ClusterEvent::Nic(NicEvent::Cpu { work, .. }) => match work {
                CpuWork::EarlyRecv { .. } => Kind::NicEarlyRecv,
                CpuWork::ItbForward { .. } => Kind::NicItbForward,
                CpuWork::SendProgram { .. } => Kind::NicSendProgram,
                CpuWork::RecvFinish { .. } => Kind::NicRecvFinish,
                CpuWork::RecvDeliver { .. } => Kind::NicRecvDeliver,
            },
            ClusterEvent::Nic(NicEvent::Dma { job, .. }) => match job {
                DmaJob::SdmaChunk { .. } => Kind::NicSdma,
                DmaJob::RdmaChunk { .. } => Kind::NicRdma,
            },
            ClusterEvent::Host(e) => match e {
                HostEvent::AppSend { .. } => Kind::GmAppSend,
                HostEvent::SubmitPacket { .. } => Kind::GmSubmit,
                HostEvent::AppDeliver { .. } => Kind::GmAppDeliver,
                HostEvent::SendAck { .. } => Kind::GmSendAck,
                HostEvent::RetransCheck { .. } => Kind::GmRetransCheck,
                HostEvent::NicCrash { .. } | HostEvent::NicRecover { .. } => Kind::GmFault,
            },
            ClusterEvent::Sample => Kind::ObsSample,
            ClusterEvent::FlowRound => Kind::FlowRound,
        }
    }
}

impl Classify for FlowWorldEvent {
    fn kind(&self) -> Kind {
        match self {
            FlowWorldEvent::Arrival { .. } => Kind::FlowArrival,
            FlowWorldEvent::Round => Kind::FlowRound,
            FlowWorldEvent::Deliver { .. } => Kind::FlowDeliver,
        }
    }
}

/// Per-kind counts, host nanoseconds and allocations of one traced run,
/// plus the queue depth seen at each pop.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub n: [u64; KINDS],
    pub ns: [u64; KINDS],
    pub allocs: [u64; KINDS],
    pub depth_max: usize,
    pub depth_sum: u64,
    pub wall_ns: u64,
}

impl Profile {
    fn charge(&mut self, kind: Kind, ns: u64, allocs: u64) {
        let k = kind as usize;
        self.n[k] += 1;
        self.ns[k] += ns;
        self.allocs[k] += allocs;
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.n[kind as usize]
    }

    /// Mean self time per event of `kind` (0 when none ran).
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let k = kind as usize;
        if self.n[k] == 0 {
            0.0
        } else {
            self.ns[k] as f64 / self.n[k] as f64
        }
    }

    fn layer_sum(&self, layer: Layer, of: &[u64; KINDS]) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|&k| of[k as usize])
            .sum()
    }

    /// Fraction of the traced wall time spent in spans of `kind`.
    pub fn kind_share(&self, kind: Kind) -> f64 {
        self.ns[kind as usize] as f64 / self.wall_ns.max(1) as f64
    }

    /// Fraction of the traced wall time spent in `layer`.
    pub fn share(&self, layer: Layer) -> f64 {
        self.layer_sum(layer, &self.ns) as f64 / self.wall_ns.max(1) as f64
    }

    /// Allocations made inside `layer`'s spans.
    pub fn layer_allocs(&self, layer: Layer) -> u64 {
        self.layer_sum(layer, &self.allocs)
    }

    pub fn depth_mean(&self) -> f64 {
        let pops = self.count(Kind::QueuePop);
        if pops == 0 {
            0.0
        } else {
            self.depth_sum as f64 / pops as f64
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// A world driven by the benchmark's own timed event loop.
pub struct TimedWorld<W: World> {
    pub world: W,
    pub profile: Profile,
}

impl<W: World> TimedWorld<W>
where
    W::Event: Classify,
{
    pub fn new(world: W) -> Self {
        TimedWorld {
            world,
            profile: Profile::default(),
        }
    }

    /// Dispatch events while `keep_going(world)` holds and events remain:
    /// the traced twin of the engine's `run_while`. Returns the events
    /// dispatched.
    pub fn run(
        &mut self,
        q: &mut EventQueue<W::Event>,
        mut keep_going: impl FnMut(&W) -> bool,
    ) -> u64 {
        let start = Instant::now();
        let mut t_prev = start;
        let mut dispatched = 0;
        while keep_going(&self.world) {
            let depth = q.len();
            let Some((now, ev)) = q.pop() else { break };
            let kind = ev.kind();
            let t_pop = Instant::now();
            self.profile
                .charge(Kind::QueuePop, ns_between(t_prev, t_pop), 0);
            let a0 = alloc::allocs();
            self.world.handle(now, ev, q);
            let a1 = alloc::allocs();
            let t_handle = Instant::now();
            self.profile
                .charge(kind, ns_between(t_pop, t_handle), a1 - a0);
            self.profile.depth_max = self.profile.depth_max.max(depth);
            self.profile.depth_sum += depth as u64;
            t_prev = t_handle;
            dispatched += 1;
        }
        self.profile.wall_ns += ns_between(start, Instant::now());
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_core::ClusterSpec;
    use itb_gm::{AppBehavior, Cluster};
    use itb_routing::RoutingPolicy;
    use itb_sim::{run_while, Digest, SimDuration, SimTime};
    use itb_topo::{partition, HostId, RegionPlan};

    type Fingerprint = (u64, SimTime, usize, u64);

    fn fingerprint(c: &Cluster, q: &EventQueue<ClusterEvent>) -> Fingerprint {
        let mut d = Digest::new();
        c.state_digest(&mut d);
        (
            q.events_dispatched(),
            q.now(),
            c.delivered_count(),
            d.finish(),
        )
    }

    /// A small sampled hybrid run: Poisson traffic over ITB routes on a
    /// 16-switch fabric with flow regions, timeline and health on, plus a
    /// hotspot that escalates a region to packets, so the net, nic, gm, obs
    /// and flow kinds all fire.
    fn small_cluster() -> (Cluster, EventQueue<ClusterEvent>) {
        let spec = ClusterSpec::irregular(16, 3).with_routing(RoutingPolicy::Itb);
        let mut behaviors = vec![
            AppBehavior::Poisson {
                size: 512,
                mean_gap: SimDuration::from_us(20),
                limit: 6,
            };
            spec.num_hosts()
        ];
        for sender in &mut behaviors[1..=10] {
            *sender = AppBehavior::Stream {
                dst: HostId(0),
                size: 4096,
                count: 2,
            };
        }
        let mut c = spec.build(behaviors);
        c.enable_flow_regions(
            RegionPlan::all_flow(partition(spec.topology(), 2, 3)),
            SimDuration::from_us(10),
        );
        c.enable_timeline(SimDuration::from_us(10));
        c.enable_health(SimDuration::from_us(10), SimDuration::from_ms(5));
        let mut q = EventQueue::new();
        c.start(&mut q);
        (c, q)
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let (mut plain, mut q0) = small_cluster();
        run_while(&mut plain, &mut q0, |_| true);

        let (c, mut q1) = small_cluster();
        let mut timed = TimedWorld::new(c);
        timed.run(&mut q1, |_| true);

        assert_eq!(fingerprint(&plain, &q0), fingerprint(&timed.world, &q1));
        assert!(plain.delivered_count() > 0);
        let p = &timed.profile;
        assert_eq!(p.count(Kind::QueuePop), q1.events_dispatched());
        for kind in [
            Kind::NetRxFlit,
            Kind::NicEarlyRecv,
            Kind::NicItbForward,
            Kind::GmAppSend,
            Kind::ObsSample,
            Kind::FlowRound,
        ] {
            assert!(p.count(kind) > 0, "{} never fired", kind.name());
        }
        let handled: u64 = Kind::ALL[1..].iter().map(|&k| p.count(k)).sum();
        assert_eq!(handled, p.count(Kind::QueuePop));
        let shares: f64 = Layer::ALL.iter().map(|&l| p.share(l)).sum();
        assert!((shares - 1.0).abs() < 0.05, "layer shares sum to {shares}");
    }

    #[test]
    fn traced_predicate_stop_matches_run_while() {
        let setup = || {
            let spec = ClusterSpec::fig6_testbed();
            let tb = spec.testbed.clone().expect("testbed spec");
            let mut behaviors = vec![AppBehavior::Sink; spec.num_hosts()];
            behaviors[tb.host1.idx()] = AppBehavior::PingPong {
                peer: tb.host2,
                sizes: vec![8, 4096],
                iters: 3,
                warmup: 1,
            };
            behaviors[tb.host2.idx()] = AppBehavior::Echo;
            let mut c = spec.build(behaviors);
            let mut q = EventQueue::new();
            c.start(&mut q);
            (c, q)
        };
        let (mut plain, mut q0) = setup();
        run_while(&mut plain, &mut q0, |c| !c.all_pingpongs_done());

        let (c, mut q1) = setup();
        let mut timed = TimedWorld::new(c);
        timed.run(&mut q1, |c| !c.all_pingpongs_done());

        assert!(timed.world.all_pingpongs_done());
        assert_eq!(fingerprint(&plain, &q0), fingerprint(&timed.world, &q1));
    }
}
