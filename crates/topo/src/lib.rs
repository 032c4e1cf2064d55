//! # itb-topo — Myrinet cluster topologies
//!
//! Models the physical wiring layer of the paper's testbed and of the larger
//! irregular networks its motivation section refers to:
//!
//! * [`Topology`] — switches with typed ports (SAN/LAN), single-port hosts,
//!   and point-to-point links;
//! * [`builders`] — the Figure 6 three-host/two-switch testbed, plus chains,
//!   rings and the random irregular generator used by the loaded-network
//!   experiments;
//! * [`partition`](mod@partition) — the deterministic switch-graph partitioner feeding the
//!   sharded parallel engine (`itb_sim::par`): balanced shards, minimized
//!   edge cut, hosts pinned to their attachment switch;
//! * [`spanning`] — BFS spanning trees over the switch graph;
//! * [`updown`] — the up\*/down\* link orientation (up end = closer to the
//!   root; ties broken by lower switch id) that the routing crate enforces.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builders;
pub mod dot;
pub mod graph;
pub mod ids;
pub mod partition;
pub mod spanning;
pub mod updown;

pub use graph::{Endpoint, Link, Topology};
pub use ids::{HostId, LinkId, Node, PortIx, PortKind, SwitchId};
pub use partition::{partition, Partition, RegionFidelity, RegionPlan};
pub use spanning::SpanningTree;
pub use updown::UpDown;
