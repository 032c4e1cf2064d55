//! Network timing configuration.

use itb_sim::{Bandwidth, SimDuration};
use itb_topo::PortKind;
use serde::Serialize;

/// Output-port arbitration among input ports waiting for the same output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Arbitration {
    /// First-come first-served (request order).
    #[default]
    Fifo,
    /// Rotating priority: after a grant to input port *p*, the next grant
    /// prefers the waiting input with the smallest port index cyclically
    /// after *p* — the classic round-robin crossbar arbiter.
    RoundRobin,
}

/// Switch fall-through latencies by port kind. The paper (§5) notes that
/// "the latency through a switch depends on the type of traversed ports",
/// which is why both Figure 8 paths were built over the same kind multiset.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FallThrough {
    /// Head routing delay when both input and output are SAN ports.
    pub san_san: SimDuration,
    /// Extra delay contributed by each LAN-side port involved.
    pub lan_penalty: SimDuration,
}

impl FallThrough {
    /// Delay for a head crossing from a port of kind `input` to one of kind
    /// `output`.
    pub fn delay(&self, input: PortKind, output: PortKind) -> SimDuration {
        let mut d = self.san_san;
        if input == PortKind::Lan {
            d += self.lan_penalty;
        }
        if output == PortKind::Lan {
            d += self.lan_penalty;
        }
        d
    }
}

/// All physical-layer constants of the network model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetConfig {
    /// Link serialization rate (Myrinet: 160 MB/s each direction).
    pub link_bw: Bandwidth,
    /// Streaming granularity in bytes. Smaller is more precise and slower to
    /// simulate; 4 matches the LANai's early-receive threshold exactly.
    pub flit_bytes: u32,
    /// One-way latency of a STOP/GO control byte back to the sender.
    pub ctrl_latency: SimDuration,
    /// Slack-buffer occupancy (bytes) at which an input port sends STOP.
    pub stop_threshold: u32,
    /// Occupancy at which a stopped input port sends GO.
    pub go_threshold: u32,
    /// Hard slack capacity; exceeding it is a model/configuration bug
    /// (checked with a debug assertion, as real hardware would drop bytes).
    pub slack_capacity: u32,
    /// Switch head fall-through latencies.
    pub fall_through: FallThrough,
    /// Output-port arbitration discipline.
    pub arbitration: Arbitration,
}

impl Default for NetConfig {
    /// Values calibrated for the paper's testbed hardware (see DESIGN.md §5).
    fn default() -> Self {
        NetConfig {
            link_bw: Bandwidth::from_mbytes_per_sec(160),
            flit_bytes: 4,
            ctrl_latency: SimDuration::from_ns(20),
            stop_threshold: 56,
            go_threshold: 40,
            slack_capacity: 512,
            fall_through: FallThrough {
                san_san: SimDuration::from_ns(100),
                lan_penalty: SimDuration::from_ns(150),
            },
            arbitration: Arbitration::Fifo,
        }
    }
}

impl NetConfig {
    /// Config tuned for big loaded-network sweeps: coarser flits trade
    /// timing granularity for event count.
    pub fn coarse() -> Self {
        NetConfig {
            flit_bytes: 16,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fall_through_kind_dependence() {
        let ft = NetConfig::default().fall_through;
        let ss = ft.delay(PortKind::San, PortKind::San);
        let sl = ft.delay(PortKind::San, PortKind::Lan);
        let ls = ft.delay(PortKind::Lan, PortKind::San);
        let ll = ft.delay(PortKind::Lan, PortKind::Lan);
        assert_eq!(ss, SimDuration::from_ns(100));
        assert_eq!(sl, ls);
        assert_eq!(sl, SimDuration::from_ns(250));
        assert_eq!(ll, SimDuration::from_ns(400));
    }

    #[test]
    fn default_is_sane() {
        let c = NetConfig::default();
        assert!(c.go_threshold < c.stop_threshold);
        assert!(c.stop_threshold < c.slack_capacity);
        assert_eq!(c.link_bw.ps_per_byte(), 6250);
        assert!(c.flit_bytes >= 4, "early-receive needs 4 bytes in one flit");
    }

    #[test]
    fn coarse_only_changes_flits() {
        let c = NetConfig::coarse();
        let d = NetConfig::default();
        assert_eq!(c.flit_bytes, 16);
        assert_eq!(c.link_bw, d.link_bw);
    }
}
