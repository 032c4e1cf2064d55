//! In-flight packet bookkeeping.

use itb_routing::wire::Header;
use itb_sim::{narrow, SimTime};
use itb_topo::HostId;
use serde::Serialize;

/// One instrumented moment in a packet's life (recorded only when
/// `NetConfig::record_timelines` is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// What happened ("inject", "route", "head", "tail", "reinject",
    /// "nic.early_recv", "nic.recv_finish", "nic.deliver", ...).
    pub tag: &'static str,
    /// Context (switch or host index, 0 when unused).
    pub value: u32,
    /// When.
    pub t: SimTime,
}

/// Globally unique in-flight packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PacketId(pub u64);

/// What a NIC hands the network when injecting a packet.
#[derive(Debug, Clone)]
pub struct PacketDesc {
    /// Encoded header (route bytes, types, …). Rides on the wire and is
    /// consumed hop by hop.
    pub header: Header,
    /// Payload length in bytes (payload content is virtual; only the tag
    /// travels for integrity checks).
    pub payload_len: u32,
    /// Integrity tag — delivered unchanged iff the simulator moved the
    /// packet correctly.
    pub tag: u64,
    /// Originating host (for audits).
    pub src: HostId,
}

/// Central registry entry for an in-flight packet. The header is shared
/// between traversal stages: switches strip route bytes from it and the
/// in-transit NIC strips the `ITB | Length` group before re-injection.
#[derive(Debug)]
pub struct PacketState {
    /// Immutable identity & payload info.
    pub desc: PacketDesc,
    /// When the first byte entered the network.
    pub injected_at: SimTime,
    /// Route bytes consumed so far (diagnostic).
    pub route_bytes_consumed: u32,
    /// In-transit hops performed so far (diagnostic).
    pub itb_hops: u32,
    /// Fault injection: the packet's CRC was damaged in flight. Checked by
    /// the receiving NIC at completion (cut-through stages forward it
    /// unverified, as real hardware must).
    pub corrupted: bool,
    /// Instrumented life events (empty unless timelines are enabled).
    pub timeline: Vec<TimelineEntry>,
}

impl PacketState {
    /// Bytes currently remaining on the wire for a fresh traversal stage:
    /// current header + payload + CRC byte.
    pub fn wire_len(&self) -> u32 {
        narrow::<u32, _>(self.desc.header.len()) + self.desc.payload_len + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_routing::path::{Hop, SourceRoute};
    use itb_topo::SwitchId;

    #[test]
    fn wire_len_counts_header_payload_crc() {
        let r = SourceRoute::direct(
            HostId(0),
            HostId(1),
            vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
        );
        let header = Header::encode(&r); // 2 route bytes + 2 type bytes
        let st = PacketState {
            desc: PacketDesc {
                header,
                payload_len: 100,
                tag: 7,
                src: HostId(0),
            },
            injected_at: SimTime::ZERO,
            route_bytes_consumed: 0,
            itb_hops: 0,
            corrupted: false,
            timeline: Vec::new(),
        };
        assert_eq!(st.wire_len(), 4 + 100 + 1);
    }
}
