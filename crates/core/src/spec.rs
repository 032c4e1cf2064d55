//! The cluster builder.

use crate::calib::Calibration;
use itb_gm::cluster::ClusterParams;
use itb_gm::{AppBehavior, Cluster};
use itb_nic::McpFlavor;
use itb_routing::{RoutingPolicy, SourceRoute};
use itb_topo::builders::{self, Fig6Testbed, IrregularSpec};
use itb_topo::Topology;

/// Declarative description of a cluster to simulate. Build one with the
/// constructors, adjust with the `with_*` methods, then run experiments
/// from [`crate::experiments`] (or instantiate directly via
/// [`ClusterSpec::build`]).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    topo: Topology,
    /// The Figure 6 structure when built from the testbed constructor.
    pub testbed: Option<Fig6Testbed>,
    /// Timing calibration.
    pub calib: Calibration,
    /// Firmware flavour.
    pub flavor: McpFlavor,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// In-transit host selection for the ITB planner.
    pub itb_selection: itb_routing::planner::ItbHostSelection,
    /// Hand-built route overrides.
    pub overrides: Vec<SourceRoute>,
    /// Fault-injection plan ([`itb_net::FaultPlan::default`] = no faults).
    pub faults: itb_net::FaultPlan,
    /// Traffic seed.
    pub seed: u64,
}

impl ClusterSpec {
    /// A spec over an explicit topology.
    pub fn custom(topo: Topology) -> Self {
        ClusterSpec {
            topo,
            testbed: None,
            calib: Calibration::testbed_2001(),
            flavor: McpFlavor::Itb,
            routing: RoutingPolicy::UpDown,
            itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
            overrides: Vec::new(),
            faults: itb_net::FaultPlan::default(),
            seed: 0,
        }
    }

    /// The paper's Figure 6 testbed (3 hosts, 2 switches).
    pub fn fig6_testbed() -> Self {
        let tb = builders::fig6_testbed();
        let mut s = Self::custom(tb.topo.clone());
        s.testbed = Some(tb);
        s
    }

    /// A random irregular network in the style of the motivation
    /// experiments (8-port switches, 4 hosts each).
    pub fn irregular(switches: usize, seed: u64) -> Self {
        let spec = IrregularSpec::evaluation_default(switches, seed);
        let mut s = Self::custom(builders::random_irregular(&spec));
        s.calib = Calibration::loaded_sweep();
        s.seed = seed;
        s
    }

    /// A chain of switches (used by the multi-ITB ablation).
    pub fn chain(switches: usize, hosts_per_switch: usize) -> Self {
        Self::custom(builders::chain(switches, hosts_per_switch))
    }

    /// Set the firmware flavour.
    pub fn with_mcp(mut self, flavor: McpFlavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Set the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Install a hand-built route (overrides the mapper's table entry).
    pub fn with_route_override(mut self, route: SourceRoute) -> Self {
        self.overrides.push(route);
        self
    }

    /// Set the traffic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the receive-buffer pool size (the paper's §4 circular-pool
    /// proposal; stock firmware has 2).
    pub fn with_recv_buffers(mut self, n: u8) -> Self {
        self.calib.mcp.recv_buffers = n;
        self
    }

    /// Set the planner's in-transit host selection policy.
    pub fn with_itb_selection(mut self, sel: itb_routing::planner::ItbHostSelection) -> Self {
        self.itb_selection = sel;
        self
    }

    /// Set the buffer-overflow policy: `true` = flush + retransmit (the
    /// paper's §4 circular-pool behaviour), `false` = receive flow control
    /// (stock GM).
    pub fn with_flush_on_overflow(mut self, flush: bool) -> Self {
        self.calib.mcp.flush_on_overflow = flush;
        self
    }

    /// Install a fault-injection plan (probabilistic link faults, link-down
    /// windows, NIC crashes). See [`itb_net::FaultPlan`].
    pub fn with_faults(mut self, plan: itb_net::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The wired topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.topo.num_hosts()
    }

    /// Instantiate a cluster with the given per-host behaviours.
    pub fn build(&self, behaviors: Vec<AppBehavior>) -> Cluster {
        Cluster::new(ClusterParams {
            topo: self.topo.clone(),
            net: self.calib.net,
            mcp: self.calib.mcp,
            flavor: self.flavor,
            routing: self.routing,
            itb_selection: self.itb_selection,
            gm: self.calib.gm,
            behaviors,
            route_overrides: self.overrides.clone(),
            faults: self.faults.clone(),
            seed: self.seed,
        })
    }

    /// Convenience used by the crate-root quickstart: run a ping-pong
    /// between two hosts and return the latency report.
    pub fn ping_pong(&self, src: u16, dst: u16, sizes: &[u32], iters: u32) -> crate::LatencyReport {
        crate::experiments::ping_pong(
            self,
            itb_topo::HostId(src),
            itb_topo::HostId(dst),
            sizes,
            iters,
            2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain() {
        let s = ClusterSpec::fig6_testbed()
            .with_mcp(McpFlavor::Original)
            .with_routing(RoutingPolicy::UpDown)
            .with_seed(9)
            .with_recv_buffers(8);
        assert_eq!(s.flavor, McpFlavor::Original);
        assert_eq!(s.seed, 9);
        assert_eq!(s.calib.mcp.recv_buffers, 8);
        assert_eq!(s.num_hosts(), 3);
        assert!(s.testbed.is_some());
    }

    #[test]
    fn irregular_uses_loaded_calibration() {
        let s = ClusterSpec::irregular(8, 1);
        assert!(!s.calib.gm.reliability);
        assert_eq!(s.num_hosts(), 32);
    }

    #[test]
    fn build_produces_runnable_cluster() {
        let s = ClusterSpec::chain(2, 1);
        let c = s.build(vec![AppBehavior::Sink, AppBehavior::Sink]);
        assert_eq!(c.delivered_count(), 0);
    }
}
