//! Typed packet-lifecycle stages.

use serde::Serialize;

/// One stage in a packet's life, recorded by the layer that owns the moment.
///
/// The dot-notation names mirror the layering: `host.*` is the GM software,
/// `mcp.*` the LANai firmware, `net.*` the wormhole fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Stage {
    /// Host software hands a packet to its NIC (`host.inject`). The packet's
    /// stable id is allocated here.
    HostInject,
    /// First byte enters the wire at the source (`net.inject`).
    NetInject,
    /// A switch output channel was granted to this packet
    /// (`net.link_acquire`); node = switch index.
    NetLinkAcquire,
    /// The packet's head is routed but the requested output channel is held
    /// by another worm (`net.link_block`); node = switch index.
    NetLinkBlock,
    /// A switch consumed the packet's route byte (`net.route`).
    NetRoute,
    /// The head reached a host (`net.head`); node = host index.
    NetHead,
    /// The tail reached a host (`net.tail`); node = host index.
    NetTail,
    /// The firmware's Early-Recv handler examined the first four bytes
    /// (`mcp.early_recv`).
    McpEarlyRecv,
    /// Early-Recv identified an in-transit packet (`mcp.itb_detect`).
    McpItbDetect,
    /// The send DMA was reprogrammed for the in-transit forward
    /// (`mcp.itb_forward`).
    McpItbForward,
    /// Re-injection began at an in-transit host (`net.reinject`).
    NetReinject,
    /// Receive-completion bookkeeping finished (`mcp.recv_finish`).
    McpRecvFinish,
    /// The NIC handed the packet to host memory (`nic.deliver`).
    NicDeliver,
    /// The application received the reassembled message this packet
    /// completed (`host.deliver`).
    HostDeliver,
}

impl Stage {
    /// The stable dot-notation name used in exported artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::HostInject => "host.inject",
            Stage::NetInject => "net.inject",
            Stage::NetLinkAcquire => "net.link_acquire",
            Stage::NetLinkBlock => "net.link_block",
            Stage::NetRoute => "net.route",
            Stage::NetHead => "net.head",
            Stage::NetTail => "net.tail",
            Stage::McpEarlyRecv => "mcp.early_recv",
            Stage::McpItbDetect => "mcp.itb_detect",
            Stage::McpItbForward => "mcp.itb_forward",
            Stage::NetReinject => "net.reinject",
            Stage::McpRecvFinish => "mcp.recv_finish",
            Stage::NicDeliver => "nic.deliver",
            Stage::HostDeliver => "host.deliver",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_dot_scoped_and_unique() {
        let all = [
            Stage::HostInject,
            Stage::NetInject,
            Stage::NetLinkAcquire,
            Stage::NetLinkBlock,
            Stage::NetRoute,
            Stage::NetHead,
            Stage::NetTail,
            Stage::McpEarlyRecv,
            Stage::McpItbDetect,
            Stage::McpItbForward,
            Stage::NetReinject,
            Stage::McpRecvFinish,
            Stage::NicDeliver,
            Stage::HostDeliver,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), all.len(), "names collide");
        for n in names {
            assert!(n.contains('.'), "{n} lacks a layer scope");
        }
        assert_eq!(Stage::McpEarlyRecv.to_string(), "mcp.early_recv");
    }
}
