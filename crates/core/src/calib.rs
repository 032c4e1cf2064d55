//! Calibration presets — every physical constant of the reproduction in one
//! place, with its provenance.

use itb_gm::GmConfig;
use itb_net::NetConfig;
use itb_nic::McpTiming;
use serde::Serialize;

/// A complete timing calibration: physical layer, NIC firmware, host
/// software.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Calibration {
    /// Link / switch / flow-control constants.
    pub net: NetConfig,
    /// LANai / MCP constants.
    pub mcp: McpTiming,
    /// GM host-library constants.
    pub gm: GmConfig,
}

impl Calibration {
    /// The paper's testbed: 450 MHz PIII hosts, LANai-7 NICs on 64-bit PCI,
    /// M2FM-SW8 switches, GM-1.2pre16. See DESIGN.md §5 for the derivation
    /// of each constant and EXPERIMENTS.md for the resulting match against
    /// the paper's Figures 7 and 8.
    pub fn testbed_2001() -> Self {
        Calibration {
            net: NetConfig::default(),
            mcp: McpTiming::lanai7(),
            gm: GmConfig::default(),
        }
    }

    /// Calibration for large loaded-network sweeps: identical physics with
    /// coarser streaming granularity (16-byte flits) and the reliability
    /// layer off, trading event count for per-point wall time. Uses the
    /// paper's §4 circular receive pool (64 buffers — the simulation studies
    /// it builds on assume the NIC's 8 MB SRAM absorbs in-transit bursts)
    /// instead of the stock 2 buffers, which would flush in-transit packets
    /// long before the network itself saturates.
    pub fn loaded_sweep() -> Self {
        let mut mcp = McpTiming::lanai7();
        mcp.recv_buffers = 64;
        mcp.flush_on_overflow = true;
        Calibration {
            net: NetConfig::coarse(),
            mcp,
            gm: GmConfig {
                reliability: false,
                ..GmConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_constants_expose_paper_quantities() {
        let c = Calibration::testbed_2001();
        assert!((c.mcp.itb_support_overhead().as_ns_f64() - 121.2).abs() < 1.0);
        assert!(c.mcp.itb_forward_latency().as_us_f64() > 1.0);
        assert_eq!(c.net.link_bw.ps_per_byte(), 6250);
        assert!(c.gm.reliability);
    }

    #[test]
    fn loaded_sweep_is_coarser() {
        let c = Calibration::loaded_sweep();
        assert!(c.net.flit_bytes > Calibration::testbed_2001().net.flit_bytes);
        assert!(!c.gm.reliability);
    }
}
