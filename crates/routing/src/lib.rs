//! # itb-routing — source routes and the In-Transit Buffer planner
//!
//! Myrinet builds the entire path into the packet header at the source (one
//! route byte per switch naming the output port). A [`Router`], built once
//! per topology and up\*/down\* orientation, computes those routes three
//! ways:
//!
//! * [`Router::updown`] — the stock up\*/down\* route: shortest path that
//!   never traverses an *up* link after a *down* link;
//! * [`Router::any`] — the true minimal path, legality ignored (the
//!   yardstick the paper measures up\*/down\* against);
//! * [`Router::itb`] — the paper's contribution: a minimal path split into
//!   up\*/down\*-legal segments by inserting **in-transit hosts** at every
//!   forbidden down→up transition.
//!
//! Supporting machinery:
//!
//! * [`path`] — path and multi-segment route types;
//! * [`wire`] — the packet header encoding of the paper's Figure 3 (route
//!   bytes, ITB tag + remaining-length, packet type, CRC-8);
//! * [`table`] — per-host route tables as installed by the GM mapper;
//! * [`deadlock`] — channel-dependency-graph acyclicity checker (the formal
//!   argument that ITB segmentation preserves deadlock freedom);
//! * [`metrics`] — path-length / traffic-balance statistics behind the
//!   paper's motivation section;
//! * [`figures`] — the two hand-built 5-crossing testbed routes measured in
//!   Figures 7 and 8.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod deadlock;
pub mod figures;
pub mod metrics;
pub mod path;
pub mod planner;
pub mod table;
pub mod updown;
pub mod wire;

pub use path::{Hop, Segment, SourceRoute};
pub use planner::{PlannerError, Router};
pub use table::{RouteTable, RoutingPolicy};
