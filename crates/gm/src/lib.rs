//! # itb-gm — the GM host software model and the integrated cluster
//!
//! GM is the message-passing system the paper modified: a host library plus
//! the MCP firmware. This crate models the host side and glues every layer
//! into one simulated cluster:
//!
//! * [`meta`] — the GM packet metadata carried in the simulator's payload
//!   tag (DATA/ACK kind, message id, sequence number);
//! * [`config::GmConfig`] — host-side costs (send/receive processing, MTU,
//!   retransmission timeout) and the reliability switch;
//! * [`host::Host`] — per-host GM state: message segmentation/reassembly,
//!   per-peer connections (opened on first use) with cumulative ACKs and
//!   go-back-N retransmission (GM's "reliable and ordered packet delivery
//!   in presence of network faults"), and the mapper-installed route table;
//! * [`apps`] — application behaviours: the `gm_allsize`-style ping-pong
//!   used in the paper's evaluation, echo responders, streaming senders and
//!   Poisson traffic generators for the loaded-network experiments, each run
//!   by a per-host state machine that owns its progress;
//! * [`cluster::Cluster`] — the complete simulated machine room: network +
//!   NICs + hosts behind one deterministic event loop.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod apps;
pub mod cluster;
pub mod config;
pub mod flowworld;
pub mod host;
pub mod mapper;
pub mod meta;
pub mod par;
mod rounds;

pub use apps::AppBehavior;
pub use cluster::{Cluster, ClusterEvent, DeliveryNotice, MsgRecord, ESCALATE_CONTENTION};
pub use config::GmConfig;
pub use flowworld::{FlowWorld, FlowWorldEvent, FlowWorldSpec};
pub use par::{run_cluster_shards, run_cluster_shards_profiled, ParRunReport, ShardCluster};
