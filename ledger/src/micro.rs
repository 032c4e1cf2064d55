//! Microbenchmarks of single layers, each on the inputs of the workload it
//! is reported under: that workload's topology, routing policy and seed.

use crate::stats::{summarize, Summary};
use crate::workloads::Workload;
use itb_gm::ClusterEvent;
use itb_net::{FlowNet, NetEvent};
use itb_routing::updown::shortest_updown;
use itb_routing::wire::Header;
use itb_routing::{RouteTable, SourceRoute};
use itb_sim::{EventQueue, SimDuration, SimRng, SimTime};
use itb_topo::{HostId, Topology, UpDown};
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;
/// Pop+push pairs per hold-loop repeat.
const HOLD_OPS: usize = 1_000_000;
/// Routes sampled for the wire-format benchmarks.
const WIRE_ROUTES: usize = 1_000;
/// Flow-set sizes of the solver benchmark.
const SOLVE_FLOWS: [(&str, usize); 3] = [
    ("flow.solve_ms_1k", 1_000),
    ("flow.solve_ms_10k", 10_000),
    ("flow.solve_ms_100k", 100_000),
];
/// Link capacity of the flow model, bytes/ns (the 160 MB/s Myrinet link).
const LINK_BYTES_PER_NS: f64 = 0.16;

/// Metric names this module reports, with units, in report order.
pub const METRICS: [(&str, &str); 9] = [
    ("queue.hold_ns_d1k", "ns"),
    ("queue.hold_ns_d100k", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.consume_ns", "ns"),
    ("routing.updown_ms", "ms"),
    ("routing.table_ms", "ms"),
    ("flow.solve_ms_1k", "ms"),
    ("flow.solve_ms_10k", "ms"),
    ("flow.solve_ms_100k", "ms"),
];

fn repeat(mut sample: impl FnMut() -> f64) -> Summary {
    let values: Vec<f64> = (0..REPEATS).map(|_| sample()).collect();
    summarize(&values)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Run every microbenchmark for `w`, in [`METRICS`] order.
pub fn run(w: Workload, seed: u64) -> Vec<(&'static str, Summary)> {
    let mut out = vec![
        ("queue.hold_ns_d1k", queue_hold(1_000, seed)),
        ("queue.hold_ns_d100k", queue_hold(100_000, seed)),
    ];
    let (topo, routes, updown, table) = routing(w, seed);
    let (encode, consume) = wire(&routes);
    out.push(("wire.encode_ns", encode));
    out.push(("wire.consume_ns", consume));
    out.push(("routing.updown_ms", updown));
    out.push(("routing.table_ms", table));
    for (name, flows) in SOLVE_FLOWS {
        out.push((name, flow_solve(&topo, flows, seed)));
    }
    out
}

/// Mean ns per pop+push pair on an `EventQueue<ClusterEvent>` held at
/// `depth` pending events, with exponential gaps around a 1 µs mean.
fn queue_hold(depth: usize, seed: u64) -> Summary {
    let mut rng = SimRng::new(seed);
    let gaps: Vec<SimDuration> = (0..HOLD_OPS)
        .map(|_| SimDuration::from_ns_f64(rng.exp(1_000.0)))
        .collect();
    let mut q = EventQueue::new();
    for ch in 0..depth {
        let at = SimTime::ZERO + SimDuration::from_ns_f64(rng.exp(1_000.0) * depth as f64);
        q.schedule(at, ClusterEvent::Net(NetEvent::TxDone { ch: ch as u32 }));
    }
    repeat(|| {
        let t = Instant::now();
        for &gap in &gaps {
            let (now, ev) = q.pop().expect("the hold loop keeps the queue full");
            q.schedule(now + gap, black_box(ev));
        }
        elapsed_ns(t) / HOLD_OPS as f64
    })
}

/// The workload's fabric, a seeded sample of its routes, and the times of
/// its two routing set-up steps. For the flow workload the route table is
/// `FlowNet`'s route matrices and the sampled routes are up*/down* routes
/// the packet model would carry on that fabric.
fn routing(w: Workload, seed: u64) -> (Topology, Vec<SourceRoute>, Summary, Summary) {
    let spec = w.cluster_spec(seed);
    let topo = match &spec {
        Some(s) => s.topology().clone(),
        None => Workload::flow_topology(),
    };
    let mut ud = None;
    let updown = repeat(|| {
        let t = Instant::now();
        ud = Some(black_box(UpDown::compute_default(&topo)));
        elapsed_ns(t) / 1e6
    });
    let ud = ud.expect("repeat ran at least once");
    let hosts = topo.num_hosts() as u64;
    let mut rng = SimRng::new(seed);
    let mut pair = || {
        let s = rng.below(hosts);
        let mut d = rng.below(hosts - 1);
        if d >= s {
            d += 1;
        }
        (HostId(s as u16), HostId(d as u16))
    };
    let Some(spec) = spec else {
        let table = repeat(|| {
            let t = Instant::now();
            black_box(FlowNet::new(&topo, LINK_BYTES_PER_NS));
            elapsed_ns(t) / 1e6
        });
        let routes = (0..WIRE_ROUTES)
            .map(|_| {
                let (s, d) = pair();
                shortest_updown(&topo, &ud, s, d).expect("irregular fabrics are connected")
            })
            .collect();
        return (topo, routes, updown, table);
    };
    let mut computed = None;
    let table = repeat(|| {
        let t = Instant::now();
        computed = Some(black_box(
            RouteTable::compute_with_selection(&topo, &ud, spec.routing, spec.itb_selection)
                .expect("workload fabrics are connected"),
        ));
        elapsed_ns(t) / 1e6
    });
    let mut table_routes = computed.expect("repeat ran at least once");
    for r in &spec.overrides {
        table_routes.set_route(r.clone());
    }
    let routes = (0..WIRE_ROUTES)
        .map(|_| {
            let (s, d) = pair();
            table_routes.route(s, d).expect("src != dst").clone()
        })
        .collect();
    (topo, routes, updown, table)
}

/// Mean ns per `Header::encode`, and per `consume_route_byte` while every
/// header walks its first segment.
fn wire(routes: &[SourceRoute]) -> (Summary, Summary) {
    let encode = repeat(|| {
        let t = Instant::now();
        for r in routes {
            black_box(Header::encode(black_box(r)));
        }
        elapsed_ns(t) / routes.len() as f64
    });
    let hops: Vec<usize> = routes.iter().map(|r| r.segments[0].hops.len()).collect();
    let consumes: usize = hops.iter().sum();
    let consume = repeat(|| {
        let mut headers: Vec<Header> = routes.iter().map(Header::encode).collect();
        let t = Instant::now();
        for (h, &k) in headers.iter_mut().zip(&hops) {
            for _ in 0..k {
                black_box(h.consume_route_byte());
            }
        }
        elapsed_ns(t) / consumes as f64
    });
    (encode, consume)
}

/// Ms per `FlowNet::solve` with `flows` seeded 64 KiB flows open.
fn flow_solve(topo: &Topology, flows: usize, seed: u64) -> Summary {
    let mut net = FlowNet::new(topo, LINK_BYTES_PER_NS);
    let hosts = topo.num_hosts() as u64;
    let mut rng = SimRng::new(seed);
    for id in 0..flows as u64 {
        let s = rng.below(hosts);
        let mut d = rng.below(hosts - 1);
        if d >= s {
            d += 1;
        }
        net.open(id, HostId(s as u16), HostId(d as u16), 65_536);
    }
    // The first solve sizes the solver's scratch buffers.
    net.solve();
    repeat(|| {
        let t = Instant::now();
        net.solve();
        elapsed_ns(t) / 1e6
    })
}
