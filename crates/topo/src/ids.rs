//! Identifier newtypes for topology entities.
//!
//! Indices are deliberately narrow (`u16`/`u8`) per the hot-type guidance:
//! `Endpoint` and route hops are copied constantly inside the network model.

use serde::Serialize;
use std::fmt;

/// Index of a switch within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SwitchId(pub u16);

/// Index of a host within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct HostId(pub u16);

/// Index of a link within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct LinkId(pub u32);

/// A port number within a node. Myrinet switch ports are identified by small
/// integers; the leading byte of a source route names the output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PortIx(pub u8);

impl SwitchId {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl HostId {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl PortIx {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}
impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}
impl fmt::Display for PortIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A node at the end of a link: either a switch or a host NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Node {
    /// An 8-port (by default) Myrinet switch.
    Switch(SwitchId),
    /// A host's network interface (single port).
    Host(HostId),
}

impl Node {
    /// The switch id, if this is a switch.
    pub fn as_switch(self) -> Option<SwitchId> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        }
    }
    /// The host id, if this is a host.
    pub fn as_host(self) -> Option<HostId> {
        match self {
            Node::Host(h) => Some(h),
            Node::Switch(_) => None,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Switch(s) => write!(f, "{s}"),
            Node::Host(h) => write!(f, "{h}"),
        }
    }
}

/// Myrinet port/cable flavour. The paper's testbed mixes both: the M2FM-SW8
/// switch has 4 LAN and 4 SAN ports, and switch fall-through latency depends
/// on which kinds a packet traverses (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PortKind {
    /// System-area (short, fast) port.
    San,
    /// Local-area (long cable) port.
    Lan,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::San => write!(f, "SAN"),
            PortKind::Lan => write!(f, "LAN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId(3).to_string(), "sw3");
        assert_eq!(HostId(1).to_string(), "host1");
        assert_eq!(Node::Switch(SwitchId(2)).to_string(), "sw2");
        assert_eq!(Node::Host(HostId(0)).to_string(), "host0");
        assert_eq!(PortKind::San.to_string(), "SAN");
        assert_eq!(PortIx(5).to_string(), "p5");
    }

    #[test]
    fn node_projections() {
        assert_eq!(Node::Switch(SwitchId(4)).as_switch(), Some(SwitchId(4)));
        assert_eq!(Node::Switch(SwitchId(4)).as_host(), None);
        assert_eq!(Node::Host(HostId(2)).as_host(), Some(HostId(2)));
        assert_eq!(Node::Host(HostId(2)).as_switch(), None);
    }

    #[test]
    fn ids_are_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Node>(), 4);
        assert_eq!(size_of::<PortIx>(), 1);
    }
}
