//! In-flight packet bookkeeping.

use itb_routing::wire::Header;
use itb_sim::narrow;
use itb_topo::HostId;
use serde::Serialize;

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
    /// Fault injection: the packet's CRC was damaged in flight. Checked by
    /// the receiving NIC at completion (cut-through stages forward it
    /// unverified, as real hardware must).
    pub corrupted: bool,
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
            corrupted: false,
        };
        assert_eq!(st.wire_len(), 4 + 100 + 1);
    }
}
