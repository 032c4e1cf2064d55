//! NIC-internal events and outputs to the host (GM) layer.

use itb_net::{PacketDesc, PacketId};
use itb_sim::SimTime;
use itb_topo::HostId;
use std::hash::{Hash, Hasher};

/// Scheduling hook for NIC events, implemented by the integrating world.
pub trait NicSched {
    /// Schedule `ev` back into [`crate::Nic::handle`] at `t`. (Named
    /// distinctly from [`itb_net::NetSched::at`] so one sink type can
    /// implement both without ambiguity.)
    fn nic_at(&mut self, t: SimTime, ev: NicEvent);
}

impl NicSched for itb_sim::EventQueue<NicEvent> {
    fn nic_at(&mut self, t: SimTime, ev: NicEvent) {
        self.schedule(t, ev);
    }
}

/// A token identifying one host send request (assigned by the GM layer).
pub type SendToken = u64;

/// Work the MCP processor finishes at a `Cpu` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuWork {
    /// The Early-Recv handler examined the first four bytes (ITB firmware
    /// only).
    EarlyRecv {
        /// The packet whose head arrived.
        packet: PacketId,
    },
    /// The send DMA was reprogrammed to re-inject an in-transit packet.
    ItbForward {
        /// The in-transit packet.
        packet: PacketId,
    },
    /// The Send machine programmed the send DMA for a fresh packet.
    SendProgram {
        /// The host send token being launched.
        token: SendToken,
    },
    /// Receive-completion bookkeeping finished; RDMA may start.
    RecvFinish {
        /// The fully received packet.
        packet: PacketId,
    },
    /// Post-RDMA delivery processing finished; the host is notified.
    RecvDeliver {
        /// The delivered packet.
        packet: PacketId,
    },
}

/// A host-DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaJob {
    /// SDMA chunk: host memory → NIC SRAM send buffer.
    SdmaChunk {
        /// Send token being staged.
        token: SendToken,
        /// Bytes in this chunk.
        bytes: u32,
        /// Last chunk of the packet.
        last: bool,
    },
    /// RDMA chunk: NIC SRAM receive buffer → host memory.
    RdmaChunk {
        /// Packet being drained to the host.
        packet: PacketId,
        /// Bytes in this chunk.
        bytes: u32,
        /// Last chunk of the packet.
        last: bool,
    },
}

/// Written by hand, not derived: [`crate::dma::HostDma`] folds its queued
/// jobs into every state digest, and these bytes (a one-byte tag, the token
/// or packet id, the chunk bytes, the last flag as one byte) are the ones
/// the committed `state=` digests were taken with. A derived impl would
/// write an eight-byte tag.
impl Hash for DmaJob {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let (tag, id, bytes, last) = match *self {
            DmaJob::SdmaChunk { token, bytes, last } => (0, token, bytes, last),
            DmaJob::RdmaChunk {
                packet,
                bytes,
                last,
            } => (1, packet.0, bytes, last),
        };
        h.write_u8(tag);
        h.write_u64(id);
        h.write_u32(bytes);
        h.write_u8(u8::from(last));
    }
}

/// Events owned by one NIC (the `host` field routes them in the cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicEvent {
    /// The firmware CPU finished a handler.
    Cpu {
        /// NIC this event belongs to.
        host: HostId,
        /// What was being processed.
        work: CpuWork,
    },
    /// The host DMA engine finished a transfer.
    Dma {
        /// NIC this event belongs to.
        host: HostId,
        /// The finished transfer.
        job: DmaJob,
    },
}

/// What the NIC reports up to the GM host layer. Drained by the cluster
/// after every NIC call.
#[derive(Debug, Clone)]
pub enum NicOutput {
    /// A host send request finished (packet fully on the wire, buffer
    /// recycled).
    SendComplete {
        /// Sending host.
        host: HostId,
        /// The request token.
        token: SendToken,
    },
    /// A packet was received, DMA'd to host memory and handed up.
    RecvComplete {
        /// Receiving host.
        host: HostId,
        /// The delivered packet's id (retired from the network; kept so the
        /// GM layer can record `host.deliver` against the same trace id).
        packet: PacketId,
        /// Final descriptor (header reduced to `Type`; tag intact).
        desc: PacketDesc,
        /// Wire bytes received.
        received: u32,
    },
    /// A packet was flushed because no receive buffer was free (the drop
    /// behaviour of the paper's proposed circular pool when full).
    Flushed {
        /// Host that dropped the packet.
        host: HostId,
        /// The packet.
        packet: PacketId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_copyable() {
        use std::mem::size_of;
        assert!(size_of::<NicEvent>() <= 32, "got {}", size_of::<NicEvent>());
        let e = NicEvent::Cpu {
            host: HostId(1),
            work: CpuWork::EarlyRecv {
                packet: PacketId(9),
            },
        };
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
