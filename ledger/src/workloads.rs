//! The five workloads: how each is built from a seed, run, and checked.

use crate::timed::{Profile, TimedWorld};
use itb_core::ClusterSpec;
use itb_gm::{
    AppBehavior, Cluster, ClusterEvent, FlowWorld, FlowWorldEvent, FlowWorldSpec,
    ESCALATE_CONTENTION,
};
use itb_nic::McpFlavor;
use itb_routing::{figures, RoutingPolicy};
use itb_sim::{run_until, run_while, Digest, EventQueue, SimDuration, SimTime};
use itb_topo::{builders, partition, HostId, RegionFidelity, RegionPlan, Topology};

/// Seed-1 digests, one `<workload> <digest>` line each.
const DIGESTS: &str = include_str!("../results/digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PingpongFig6Itb,
    Poisson128swItb,
    Stream64swUpdown4k,
    Hybrid32swUpdown,
    Flows1024sw,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PingpongFig6Itb,
        Workload::Poisson128swItb,
        Workload::Stream64swUpdown4k,
        Workload::Hybrid32swUpdown,
        Workload::Flows1024sw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongFig6Itb => "pingpong_fig6_itb",
            Workload::Poisson128swItb => "poisson_128sw_itb",
            Workload::Stream64swUpdown4k => "stream_64sw_updown_4k",
            Workload::Hybrid32swUpdown => "hybrid_32sw_updown",
            Workload::Flows1024sw => "flows_1024sw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The packet-level spec behind a `Cluster` workload (None for the
    /// flow-only one). Building it generates the topology.
    pub fn cluster_spec(self, seed: u64) -> Option<ClusterSpec> {
        let irregular = |switches, routing| {
            Some(
                ClusterSpec::irregular(switches, TOPOLOGY_SEED)
                    .with_routing(routing)
                    .with_seed(seed),
            )
        };
        match self {
            Workload::PingpongFig6Itb => {
                let base = ClusterSpec::fig6_testbed()
                    .with_mcp(McpFlavor::Itb)
                    .with_seed(seed);
                let tb = base.testbed.clone().expect("testbed spec");
                Some(
                    base.with_route_override(figures::fig8_itb_route(&tb))
                        .with_route_override(figures::fig8_return_route(&tb)),
                )
            }
            Workload::Poisson128swItb => irregular(128, RoutingPolicy::Itb),
            Workload::Stream64swUpdown4k => irregular(64, RoutingPolicy::UpDown),
            Workload::Hybrid32swUpdown => irregular(32, RoutingPolicy::UpDown),
            Workload::Flows1024sw => None,
        }
    }

    /// The fabric the flow-only workload runs on.
    pub fn flow_topology() -> Topology {
        builders::irregular1024()
    }

    /// Everything from the spec to the first event: topology, route
    /// tables, cluster or `FlowWorld` build, and `start`.
    pub fn setup(self, seed: u64) -> Sim {
        let Some(spec) = self.cluster_spec(seed) else {
            let topo = Workload::flow_topology();
            let flow_spec = FlowWorldSpec {
                flows_per_host: FLOWS_PER_HOST,
                flow_bytes: 65_536,
                mean_gap: SimDuration::from_us(100),
                round: SimDuration::from_ms(1),
                seed,
                link_bytes_per_ns: 0.16,
            };
            let flows = u64::from(FLOWS_PER_HOST) * topo.num_hosts() as u64;
            let mut w = FlowWorld::new(&topo, flow_spec);
            let mut q = EventQueue::new();
            w.start(&mut q);
            return Sim::Flow { w, q, flows };
        };
        let n = spec.num_hosts();
        let poisson = |mean_gap_us, limit| {
            vec![
                AppBehavior::Poisson {
                    size: 512,
                    mean_gap: SimDuration::from_us(mean_gap_us),
                    limit,
                };
                n
            ]
        };
        let behaviors = match self {
            Workload::PingpongFig6Itb => {
                let tb = spec.testbed.clone().expect("testbed spec");
                let mut b = vec![AppBehavior::Sink; n];
                b[tb.host1.idx()] = AppBehavior::PingPong {
                    peer: tb.host2,
                    sizes: itb_core::experiments::allsize_ladder(),
                    iters: PINGPONG_ITERS,
                    warmup: 2,
                };
                b[tb.host2.idx()] = AppBehavior::Echo;
                b
            }
            Workload::Poisson128swItb => poisson(80, POISSON_LIMIT),
            Workload::Stream64swUpdown4k => (0..n)
                .map(|i| AppBehavior::Stream {
                    dst: HostId(((i + n / 2) % n) as u16),
                    size: 4096,
                    count: STREAM_COUNT,
                })
                .collect(),
            Workload::Hybrid32swUpdown => {
                let mut b = poisson(HYBRID_GAP_US, HYBRID_LIMIT);
                for sender in &mut b[1..=HOTSPOT_SENDERS] {
                    *sender = AppBehavior::Stream {
                        dst: HostId(0),
                        size: 4096,
                        count: HOTSPOT_COUNT,
                    };
                }
                b
            }
            Workload::Flows1024sw => unreachable!("flow workload has no cluster spec"),
        };
        let end = if self == Workload::PingpongFig6Itb {
            End::Sweep
        } else {
            End::Drain {
                planned: planned_messages(&behaviors),
            }
        };
        let mut c = spec.build(behaviors);
        match self {
            Workload::Poisson128swItb => {
                c.enable_timeline(SimDuration::from_us(50));
                c.enable_health(SimDuration::from_us(50), SimDuration::from_ms(50));
            }
            Workload::Hybrid32swUpdown => {
                let plan = RegionPlan::all_flow(partition(spec.topology(), 4, TOPOLOGY_SEED));
                c.enable_flow_regions(plan, SimDuration::from_us(20));
            }
            _ => {}
        }
        let mut q = EventQueue::new();
        c.start(&mut q);
        Sim::Cluster { c, q, end }
    }

    /// The committed seed-1 digest of this workload, if any.
    pub fn committed_digest(self) -> Option<&'static str> {
        DIGESTS.lines().find_map(|l| {
            let (name, digest) = l.split_once(' ')?;
            (name == self.name()).then(|| digest.trim())
        })
    }
}

/// Wiring seed of the irregular packet fabrics and of the hybrid region
/// partition. The workload seed varies the traffic only: a new topology
/// changes the work per simulated microsecond by 10-20%, which would drown
/// the run-to-run noise the regression bounds are set against.
const TOPOLOGY_SEED: u64 = 1;
/// Ping-pong iterations per ladder size.
const PINGPONG_ITERS: u32 = 350;
/// Messages each host of the 128-switch fabric sends.
const POISSON_LIMIT: u32 = 20;
/// Messages each streaming host sends.
const STREAM_COUNT: u32 = 4;
/// Mean gap and message count of the hybrid fabric's Poisson hosts: light
/// enough that no flow region reaches the escalation depth on its own.
const HYBRID_GAP_US: u64 = 60;
const HYBRID_LIMIT: u32 = 150;
/// Hosts 1..=HOTSPOT_SENDERS of the hybrid fabric each stream
/// `HOTSPOT_COUNT` messages to host 0 from time zero, so the regions on
/// their paths escalate in the first flow rounds on every seed. Left to
/// Poisson traffic alone, escalation strikes at a random time, and the
/// share of messages the flow engine carries swings by a factor of two from
/// seed to seed.
const HOTSPOT_SENDERS: usize = 12;
const HOTSPOT_COUNT: u32 = 4;
const _: () = assert!(HOTSPOT_SENDERS > ESCALATE_CONTENTION as usize);
/// Flows each host of the 1024-switch fabric opens.
const FLOWS_PER_HOST: u32 = 24;
/// Tenths of a drained workload's messages (or flows) whose delivery ends
/// the timed phase. The rest drains untimed: how long the last few take is
/// a maximum over hosts, which varies from seed to seed far more than the
/// cost of the work does.
const TIMED_TENTHS: u64 = 9;
/// Backstop on simulated time for the untimed drain: every workload drains
/// long before this, so reaching it means the run did not drain.
const BACKSTOP: SimTime = SimTime::from_ms(10_000);

/// Messages the apps of a drained workload send over the whole run.
fn planned_messages(behaviors: &[AppBehavior]) -> u64 {
    behaviors
        .iter()
        .map(|b| match b {
            AppBehavior::Poisson { limit, .. } => u64::from(*limit),
            AppBehavior::Stream { count, .. } => u64::from(*count),
            _ => 0,
        })
        .sum()
}

fn timed_target(planned: u64) -> u64 {
    planned * TIMED_TENTHS / 10
}

/// How a `Cluster` workload's run ends.
#[derive(Debug, Clone, Copy)]
pub enum End {
    /// When the ping-pong sweep completes; the whole sweep is timed.
    Sweep,
    /// When all `planned` messages are delivered; the timed phase ends at
    /// the `TIMED_TENTHS` mark.
    Drain { planned: u64 },
}

impl End {
    fn timed(self, c: &Cluster) -> bool {
        match self {
            End::Sweep => !c.all_pingpongs_done(),
            End::Drain { planned } => (c.delivered_count() as u64) < timed_target(planned),
        }
    }
}

/// A built, started simulation.
// One `Sim` exists per run and is moved a handful of times, so the size of
// the `Cluster` variant costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    Cluster {
        c: Cluster,
        q: EventQueue<ClusterEvent>,
        end: End,
    },
    Flow {
        w: FlowWorld,
        q: EventQueue<FlowWorldEvent>,
        flows: u64,
    },
}

/// The simulated facts of a finished run, and whether they are right.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated time and deliveries at the end of the timed phase.
    pub sim_us: f64,
    pub delivered: u64,
    /// Messages or flows the whole run had to deliver.
    pub attempted: u64,
    pub digest: String,
    /// Why the run is wrong, if it is.
    pub error: Option<String>,
    /// Public counters of the layers at the end of the timed phase, by
    /// metric name.
    pub counters: Vec<(&'static str, f64)>,
}

impl Sim {
    /// Run the timed phase with the engine's own loop.
    pub fn run(&mut self) {
        match self {
            Sim::Cluster { c, q, end } => {
                let end = *end;
                run_while(c, q, |c| end.timed(c));
            }
            Sim::Flow { w, q, flows } => {
                let target = timed_target(*flows);
                run_while(w, q, |w| w.delivered() < target);
            }
        }
    }

    /// Run the same timed phase under [`TimedWorld`].
    pub fn run_traced(self) -> (Sim, Profile) {
        match self {
            Sim::Cluster { c, mut q, end } => {
                let mut t = TimedWorld::new(c);
                t.run(&mut q, |c| end.timed(c));
                let c = t.world;
                (Sim::Cluster { c, q, end }, t.profile)
            }
            Sim::Flow { w, mut q, flows } => {
                let target = timed_target(flows);
                let mut t = TimedWorld::new(w);
                t.run(&mut q, |w| w.delivered() < target);
                let w = t.world;
                (Sim::Flow { w, q, flows }, t.profile)
            }
        }
    }

    /// Drain the rest of the run untimed, check it, and collect its facts.
    /// `expect` is the committed digest to match, when there is one for
    /// this seed.
    pub fn finish(self, expect: Option<&str>) -> Outcome {
        let mut out = match self {
            Sim::Cluster { c, q, end } => cluster_outcome(c, q, end),
            Sim::Flow { w, q, flows } => flow_outcome(w, q, flows),
        };
        if out.error.is_none() {
            if let Some(want) = expect {
                if want != out.digest {
                    out.error = Some(format!("digest {} != committed {want}", out.digest));
                }
            }
        }
        out
    }
}

fn cluster_counters(c: &Cluster, q: &EventQueue<ClusterEvent>) -> Vec<(&'static str, f64)> {
    let net = c.net.stats();
    let (mut itb_detects, mut rx_stalls, mut retransmissions) = (0, 0, 0);
    for h in (0..c.net.topology().num_hosts()).map(|h| HostId(h as u16)) {
        let st = c.nic(h).stats();
        itb_detects += st.itb_detects;
        rx_stalls += st.rx_stalls;
        retransmissions += c.host(h).tx.iter().map(|t| t.retransmissions).sum::<u64>();
    }
    let escalated = c.region_fidelity().map_or(0, |f| {
        f.iter().filter(|&&r| r == RegionFidelity::Packet).count()
    });
    vec![
        ("queue.pops", q.events_dispatched() as f64),
        ("net.injected", net.injected as f64),
        ("net.reinjected", net.reinjected as f64),
        ("net.bytes_delivered", net.bytes_delivered as f64),
        ("nic.itb_detects", itb_detects as f64),
        ("nic.rx_stalls", rx_stalls as f64),
        ("gm.retransmissions", retransmissions as f64),
        (
            "flow.solves",
            c.metrics_snapshot(q.now()).counter("flow.solves") as f64,
        ),
        ("flow.messages", c.flow_messages() as f64),
        ("flow.escalated_regions", escalated as f64),
        // The cluster exposes no peak of its live flow set.
        ("flow.peak_live", 0.0),
    ]
}

fn cluster_outcome(mut c: Cluster, mut q: EventQueue<ClusterEvent>, end: End) -> Outcome {
    let sim_us = q.now().as_us_f64();
    let delivered = c.delivered_count() as u64;
    let counters = cluster_counters(&c, &q);
    let mut error = None;
    let attempted = match end {
        End::Sweep => {
            if !c.all_pingpongs_done() {
                error = Some("ping-pong sweep did not finish".to_string());
            }
            c.messages().len() as u64
        }
        End::Drain { planned } => {
            run_until(&mut c, &mut q, BACKSTOP);
            let done = c.delivered_count() as u64;
            if !q.is_empty() {
                error = Some(format!("run did not drain: {} events left", q.len()));
            } else if done != planned || c.messages().len() as u64 != planned {
                error = Some(format!("{done} of {planned} messages delivered"));
            }
            planned
        }
    };
    if error.is_none() && !c.connection_failures().is_empty() {
        error = Some(format!(
            "{} connections failed",
            c.connection_failures().len()
        ));
    }
    let now = q.now();
    if let Some(h) = c.health_report(now) {
        if !h.healthy && error.is_none() {
            error = Some(format!("unhealthy: {:?}", h.violations));
        }
    }
    let mut d = Digest::new();
    c.state_digest(&mut d);
    let digest = format!(
        "events={} sim_ps={} delivered={} injected={} state={:016x}",
        q.events_dispatched(),
        now.as_ps(),
        c.delivered_count(),
        c.net.stats().injected,
        d.finish()
    );
    Outcome {
        sim_us,
        delivered,
        attempted,
        digest,
        error,
        counters,
    }
}

fn flow_outcome(mut w: FlowWorld, mut q: EventQueue<FlowWorldEvent>, flows: u64) -> Outcome {
    let sim_us = q.now().as_us_f64();
    let delivered = w.delivered();
    let counters = vec![
        ("queue.pops", q.events_dispatched() as f64),
        ("net.injected", 0.0),
        ("net.reinjected", 0.0),
        ("net.bytes_delivered", 0.0),
        ("nic.itb_detects", 0.0),
        ("nic.rx_stalls", 0.0),
        ("gm.retransmissions", 0.0),
        ("flow.solves", w.solves() as f64),
        ("flow.messages", flows as f64),
        ("flow.escalated_regions", 0.0),
        ("flow.peak_live", w.peak_live() as f64),
    ];
    run_until(&mut w, &mut q, BACKSTOP);
    let digest = format!(
        "delivered={} bytes_delivered={} solves={} peak_live={}",
        w.delivered(),
        w.bytes_delivered(),
        w.solves(),
        w.peak_live()
    );
    let error = if !q.is_empty() || w.live() > 0 {
        Some(format!("run did not drain: {} flows live", w.live()))
    } else if w.delivered() != flows {
        Some(format!("{} of {flows} flows delivered", w.delivered()))
    } else {
        None
    };
    Outcome {
        sim_us,
        delivered,
        attempted: flows,
        digest,
        error,
        counters,
    }
}
