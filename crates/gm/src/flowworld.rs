//! A standalone flow-only world for planet-scale topologies.
//!
//! The full [`Cluster`](crate::Cluster) keeps a per-pair route table —
//! fine at testbed scale, but a 1024-switch, 4096-host fabric would need
//! ~16.7 million source routes before the first event fires. For the
//! scaling experiments the hybrid engine's *flow side is the whole
//! machine*: [`FlowWorld`] adds only seeded per-host arrivals to the flow
//! round cycle it shares with the hybrid Cluster (same solver, same
//! [`ByteInterval`](itb_sim::ByteInterval) quantisation, same
//! round/advance/re-arm code), so throughput measured here is the flow
//! engine's honest cost — the things the Cluster adds (GM windows, the
//! packet fabric) are exactly what the 1024-switch scenario avoids.
//!
//! Set-up is one [`FlowNet::new`]: a BFS per switch into an n² `u16`
//! predecessor matrix, 2 MiB and under 10 ms at 1024 switches, with each
//! hop's channel read from the switch adjacency when a flow opens. No
//! per-pair route is stored.

use crate::apps::{exp_gap, other_host};
use crate::rounds::FlowRounds;
use itb_net::FlowNet;
use itb_sim::{narrow, EventQueue, SimDuration, SimRng, SimTime, World};
use itb_topo::{HostId, Topology};

/// Events of the flow-only world.
#[derive(Debug, Clone, Copy)]
pub enum FlowWorldEvent {
    /// Host `host` opens its next flow (seeded destination and size).
    Arrival {
        /// The opening host.
        host: u32,
    },
    /// Round boundary: re-solve rates, commit one round of service.
    Round,
    /// A flow's bytes fully arrived at its destination.
    Deliver {
        /// The completed flow's id.
        id: u64,
    },
}

/// Workload parameters for [`FlowWorld`].
#[derive(Debug, Clone, Copy)]
pub struct FlowWorldSpec {
    /// Flows each host opens over the run.
    pub flows_per_host: u32,
    /// Bytes per flow.
    pub flow_bytes: u64,
    /// Mean inter-arrival gap per host (exponential, quantised through
    /// the sanctioned crossing).
    pub mean_gap: SimDuration,
    /// Rate-solve round length.
    pub round: SimDuration,
    /// Master seed for the per-host arrival streams.
    pub seed: u64,
    /// Link capacity in bytes/ns (0.16 = the 160 MB/s Myrinet link).
    pub link_bytes_per_ns: f64,
}

/// The flow-only machine: a [`FlowNet`] under an event loop.
pub struct FlowWorld {
    rounds: FlowRounds<FlowWorldEvent>,
    spec: FlowWorldSpec,
    rngs: Vec<SimRng>,
    opened: Vec<u32>,
    delivered: u64,
    peak_live: usize,
}

impl FlowWorld {
    /// Build the world over `topo`. O(V·E) route preprocessing happens
    /// here (see [`FlowNet::new`]).
    pub fn new(topo: &Topology, spec: FlowWorldSpec) -> Self {
        let hosts = topo.num_hosts();
        assert!(hosts >= 2, "flows need two hosts");
        let master = SimRng::new(spec.seed);
        FlowWorld {
            rounds: FlowRounds::new(
                FlowNet::new(topo, spec.link_bytes_per_ns),
                spec.round,
                FlowWorldEvent::Round,
            ),
            spec,
            rngs: (0..hosts as u64).map(|h| master.child(h)).collect(),
            opened: vec![0; hosts],
            delivered: 0,
            peak_live: 0,
        }
    }

    /// Schedule every host's first arrival.
    pub fn start(&mut self, q: &mut EventQueue<FlowWorldEvent>) {
        for h in 0..self.rngs.len() {
            if self.spec.flows_per_host == 0 {
                break;
            }
            let gap = exp_gap(&mut self.rngs[h], self.spec.mean_gap);
            q.schedule(
                SimTime::ZERO + gap,
                FlowWorldEvent::Arrival { host: narrow(h) },
            );
        }
    }

    /// Flows fully delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Most flows ever live at once (the scenario's concurrency witness).
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Flows currently live.
    pub fn live(&self) -> usize {
        self.rounds.net.len()
    }

    /// Rate solves run so far.
    pub fn solves(&self) -> u64 {
        self.rounds.net.solves()
    }

    /// Total bytes delivered.
    pub fn bytes_delivered(&self) -> u64 {
        self.rounds.net.bytes_delivered()
    }

    fn on_arrival(&mut self, host: u32, now: SimTime, q: &mut EventQueue<FlowWorldEvent>) {
        let h = host as usize;
        if self.opened[h] >= self.spec.flows_per_host {
            return;
        }
        self.opened[h] += 1;
        // The same destination draw as the Poisson cluster workload.
        let hosts = self.rngs.len();
        let dst = other_host(&mut self.rngs[h], h, hosts);
        let (src, bytes) = (HostId(narrow(h)), self.spec.flow_bytes);
        self.rounds
            .open(self.rounds.opened, src, dst, bytes, now, q);
        self.peak_live = self.peak_live.max(self.live());
        if self.opened[h] < self.spec.flows_per_host {
            let gap = exp_gap(&mut self.rngs[h], self.spec.mean_gap);
            q.schedule_after(gap, FlowWorldEvent::Arrival { host });
        }
    }
}

impl World for FlowWorld {
    type Event = FlowWorldEvent;

    fn handle(&mut self, now: SimTime, ev: FlowWorldEvent, q: &mut EventQueue<FlowWorldEvent>) {
        match ev {
            FlowWorldEvent::Arrival { host } => self.on_arrival(host, now, q),
            FlowWorldEvent::Round => {
                self.rounds.net.solve();
                self.rounds.advance(now, q, |id, at, q| {
                    q.schedule(at, FlowWorldEvent::Deliver { id });
                });
            }
            FlowWorldEvent::Deliver { .. } => self.delivered += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_sim::run_until;
    use itb_topo::builders;

    fn small_spec(seed: u64) -> FlowWorldSpec {
        FlowWorldSpec {
            flows_per_host: 3,
            flow_bytes: 4_096,
            mean_gap: SimDuration::from_us(20),
            round: SimDuration::from_us(50),
            seed,
            link_bytes_per_ns: 0.16,
        }
    }

    #[test]
    fn drains_every_flow_and_counts_concurrency() {
        let topo = builders::irregular_big(8, 3);
        let mut w = FlowWorld::new(&topo, small_spec(42));
        let mut q = EventQueue::new();
        w.start(&mut q);
        run_until(&mut w, &mut q, SimTime::from_ms(500));
        let total = u64::from(w.spec.flows_per_host) * topo.num_hosts() as u64;
        assert_eq!(w.delivered(), total, "every flow completes");
        assert_eq!(w.live(), 0);
        assert!(w.peak_live() > 1, "arrivals overlap");
        assert_eq!(w.bytes_delivered(), total * 4_096);
        assert!(w.solves() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let topo = builders::irregular_big(8, 3);
            let mut w = FlowWorld::new(&topo, small_spec(7));
            let mut q = EventQueue::new();
            w.start(&mut q);
            run_until(&mut w, &mut q, SimTime::from_ms(500));
            (w.delivered(), w.peak_live(), w.solves(), q.now())
        };
        assert_eq!(run(), run());
    }
}
