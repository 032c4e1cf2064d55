//! Packet header encoding — the paper's Figure 3.
//!
//! An original Myrinet packet is `Path | Type | Payload | CRC`: one route
//! byte per switch (consumed by the switch that routes on it), a two-byte
//! packet type, the payload, and a trailing CRC-8. The ITB format interposes
//! `ITB | Length` groups: after the first segment's route bytes comes the
//! **ITB tag** (a two-byte packet type assigned for in-transit packets) and
//! one byte giving the length of the remaining header, then the next
//! segment's route bytes, and so on, ending with the real packet type.
//!
//! When a packet reaches a NIC its leading two bytes are a type. A normal
//! NIC sees `TYPE_GM`; an in-transit NIC sees [`TYPE_ITB`], strips the
//! three-byte `ITB | Length` group, and re-injects the rest unchanged —
//! which again starts with route bytes, exactly what the next switch needs.

use crate::path::{Hop, SourceRoute, Step};
use itb_sim::narrow;
use itb_topo::PortIx;

/// Two-byte packet type of an ordinary GM message.
pub const TYPE_GM: u16 = 0x000D;
/// Two-byte packet type marking an in-transit packet (in reality assigned by
/// Myricom on request; any value distinct from the stock types works).
pub const TYPE_ITB: u16 = 0x00E7;
/// Two-byte packet type of mapper/probe packets (modelled for completeness).
pub const TYPE_MAP: u16 = 0x0003;

/// A route byte names a switch output port. The top bits tag it as a routing
/// byte (real Myrinet encodes crossbar deltas; the tag keeps route bytes
/// disjoint from type bytes so decoding is unambiguous in tests).
const ROUTE_TAG: u8 = 0xC0;

/// Ports a route byte can name: the six bits below [`ROUTE_TAG`].
const PORTS: u8 = 0x40;

/// Encode one output port as a route byte.
///
/// # Panics
/// Panics if the port does not fit in six bits: port 64 would encode as
/// port 0's byte and silently misroute.
#[inline]
pub fn route_byte(port: PortIx) -> u8 {
    assert!(port.0 < PORTS, "{port} does not fit a route byte");
    ROUTE_TAG | port.0
}

/// Why a route has no Figure 3 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The hop leaves through a port a route byte cannot name.
    Port(Hop),
    /// The header after an `ITB | Length` group is longer than the 255
    /// bytes its Length byte can count.
    Length(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Port(hop) => write!(
                f,
                "{}[{}] does not fit a route byte (ports 0-{})",
                hop.switch,
                hop.out_port,
                PORTS - 1
            ),
            EncodeError::Length(len) => {
                write!(
                    f,
                    "{len} header bytes after an ITB group exceed its Length byte"
                )
            }
        }
    }
}

/// Length of the header of a route with `hops` switch crossings and `itbs`
/// in-transit stops: a route byte per crossing, a three-byte `ITB | Length`
/// group per stop, and the two-byte type.
pub(crate) fn header_len(hops: usize, itbs: usize) -> usize {
    hops + 3 * itbs + 2
}

/// Writes one header front to back into a buffer of exactly
/// [`header_len`] bytes.
struct HeaderWriter<'b> {
    buf: &'b mut [u8],
    at: usize,
}

impl<'b> HeaderWriter<'b> {
    fn new(buf: &'b mut [u8]) -> Self {
        HeaderWriter { buf, at: 0 }
    }

    fn hop(&mut self, hop: Hop) -> Result<(), EncodeError> {
        if hop.out_port.0 >= PORTS {
            return Err(EncodeError::Port(hop));
        }
        self.buf[self.at] = route_byte(hop.out_port);
        self.at += 1;
        Ok(())
    }

    /// An `ITB | Length` group. The Length byte counts the header bytes
    /// after it: the buffer length minus its own end position.
    fn itb(&mut self) -> Result<(), EncodeError> {
        let at = self.at;
        let rest = self.buf.len() - (at + 3);
        self.buf[at..at + 2].copy_from_slice(&TYPE_ITB.to_be_bytes());
        self.buf[at + 2] = u8::try_from(rest).map_err(|_| EncodeError::Length(rest))?;
        self.at += 3;
        Ok(())
    }

    fn finish(self) {
        self.buf[self.at..].copy_from_slice(&TYPE_GM.to_be_bytes());
    }
}

/// Append the header of the route `steps` to `out`.
pub(crate) fn append_header(out: &mut Vec<u8>, steps: &[Step]) -> Result<(), EncodeError> {
    let itbs = steps.iter().filter(|s| matches!(s, Step::Itb(_))).count();
    let start = out.len();
    out.resize(start + header_len(steps.len() - itbs, itbs), 0);
    let mut w = HeaderWriter::new(&mut out[start..]);
    for &step in steps {
        match step {
            Step::Hop(hop) => w.hop(hop)?,
            Step::Itb(_) => w.itb()?,
        }
    }
    w.finish();
    Ok(())
}

/// One field of an encoded header, front to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    /// A route byte naming a switch output port.
    Route(PortIx),
    /// An `ITB | Length` group.
    Itb,
}

/// The route bytes and `ITB | Length` groups of header `bytes`, up to its
/// final packet type.
pub(crate) fn fields(bytes: &[u8]) -> impl Iterator<Item = Field> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        if let Some(port) = decode_route_byte(*bytes.get(at)?) {
            at += 1;
            return Some(Field::Route(port));
        }
        if bytes.get(at..at + 2)? != TYPE_ITB.to_be_bytes() {
            at = bytes.len();
            return None;
        }
        at += 3;
        Some(Field::Itb)
    })
}

/// Decode a route byte back to a port.
#[inline]
pub fn decode_route_byte(b: u8) -> Option<PortIx> {
    if b & ROUTE_TAG == ROUTE_TAG {
        Some(PortIx(b & 0x3F))
    } else {
        None
    }
}

/// CRC-8 (polynomial 0x07, init 0) over a byte slice — stands in for the
/// 8-bit CRC Myrinet appends to every packet.
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc: u8 = 0;
    for &b in data {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Inline capacity of a [`Header`]. Real headers are tiny — a 5-switch
/// ITB path is under 24 bytes (route bytes + 3 per in-transit stop + the
/// 2-byte type) — so virtually every packet fits inline and header
/// encode/clone/strip never touch the heap. Longer headers (deep synthetic
/// fabrics) spill to a `Vec` transparently.
const INLINE_CAP: usize = 30;

/// Storage behind a [`Header`]: inline array for the common case, heap
/// spill for pathological route lengths. `start` is the consumption cursor
/// — switches and in-transit NICs strip leading bytes, which is a cursor
/// bump here, not a memmove.
#[derive(Clone)]
enum Repr {
    Inline {
        start: u8,
        len: u8,
        buf: [u8; INLINE_CAP],
    },
    Heap {
        start: usize,
        bytes: Vec<u8>,
    },
}

/// Header built from a [`SourceRoute`]: everything before the payload.
///
/// Representation note: stored with a small-buffer optimization and a
/// front cursor, so the per-packet hot operations (clone at injection,
/// route-byte consumption at every switch, ITB-group strip at every
/// in-transit NIC) are allocation-free and O(1). Equality and hashing are
/// over the *remaining* logical bytes, as before.
#[derive(Clone)]
pub struct Header {
    repr: Repr,
}

impl std::fmt::Debug for Header {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Header")
            .field("bytes", &self.as_bytes())
            .finish()
    }
}

impl PartialEq for Header {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Header {}

impl Header {
    /// Wrap already-encoded header bytes (tests, captured wire data).
    pub fn from_bytes(bytes: &[u8]) -> Header {
        Header::filled(bytes.len(), |buf| buf.copy_from_slice(bytes))
    }

    /// A `len`-byte header whose bytes `fill` writes in place: inline up to
    /// [`INLINE_CAP`], on the heap above it.
    fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Header {
        let repr = if len <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            fill(&mut buf[..len]);
            Repr::Inline {
                start: 0,
                len: narrow(len),
                buf,
            }
        } else {
            let mut bytes = vec![0u8; len];
            fill(&mut bytes);
            Repr::Heap { start: 0, bytes }
        };
        Header { repr }
    }

    /// Advance the consumption cursor by `n` bytes (the front bytes are
    /// gone from the wire's perspective).
    #[inline]
    fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        match &mut self.repr {
            Repr::Inline { start, .. } => *start += narrow::<u8, _>(n),
            Repr::Heap { start, .. } => *start += n,
        }
    }
    /// Encode the header for `route` (paper Figure 3b). With a single
    /// segment this degenerates to the original format of Figure 3a.
    ///
    /// ```
    /// use itb_routing::path::{Hop, SourceRoute};
    /// use itb_routing::wire::Header;
    /// use itb_topo::{HostId, SwitchId};
    ///
    /// let route = SourceRoute::direct(
    ///     HostId(0),
    ///     HostId(1),
    ///     vec![Hop::new(SwitchId(0), 3), Hop::new(SwitchId(1), 1)],
    /// );
    /// let header = Header::encode(&route);
    /// // Two route bytes + the two-byte GM type.
    /// assert_eq!(header.len(), 4);
    /// ```
    ///
    /// # Panics
    /// Panics if the route has no header (see [`EncodeError`]); a
    /// [`RouteTable`](crate::RouteTable) reports that as an error instead.
    pub fn encode(route: &SourceRoute) -> Header {
        let total = header_len(route.total_crossings(), route.itb_count());
        Header::filled(total, |buf| {
            let mut w = HeaderWriter::new(buf);
            let written = route.segments.iter().enumerate().try_for_each(|(i, seg)| {
                if i > 0 {
                    w.itb()?;
                }
                seg.hops.iter().try_for_each(|&hop| w.hop(hop))
            });
            if let Err(e) = written {
                // detlint::allow(S001, route tables reject unencodable routes at set-up; a hand-built one is a caller bug)
                panic!("{} -> {}: {e}", route.src, route.dst);
            }
            w.finish();
        })
    }

    /// The raw header bytes (those not yet consumed by switches / ITB NICs).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { start, len, buf } => &buf[*start as usize..*len as usize],
            Repr::Heap { start, bytes } => &bytes[*start..],
        }
    }

    /// Header length in bytes (this rides on the wire, so it contributes to
    /// transfer time).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { start, len, .. } => (*len - *start) as usize,
            Repr::Heap { start, bytes } => bytes.len() - *start,
        }
    }

    /// Whether the header is empty (never true for a valid route).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Strip the leading route byte — what a switch does when it routes the
    /// packet. Returns the output port.
    ///
    /// # Panics
    /// Panics if the leading byte is not a route byte (routing a packet that
    /// has already arrived is a model bug).
    pub fn consume_route_byte(&mut self) -> PortIx {
        let b = self.as_bytes()[0];
        // detlint::allow(S001, encode_route writes only route bytes; checked by round-trip tests)
        let port = decode_route_byte(b).expect("leading byte must be a route byte");
        self.advance(1);
        port
    }

    /// Peek the packet type in the leading two bytes, if the header
    /// currently starts with a type (i.e. the packet is at a NIC).
    pub fn packet_type(&self) -> Option<u16> {
        let b = self.as_bytes();
        if b.len() < 2 {
            return None;
        }
        if decode_route_byte(b[0]).is_some() {
            return None;
        }
        Some(u16::from_be_bytes([b[0], b[1]]))
    }

    /// At an in-transit NIC: strip the `ITB | Length` group, leaving the
    /// next segment's route bytes at the front. Returns the remaining header
    /// length announced by the Length byte.
    ///
    /// # Panics
    /// Panics if the header does not start with [`TYPE_ITB`].
    pub fn strip_itb_group(&mut self) -> u8 {
        assert_eq!(self.packet_type(), Some(TYPE_ITB), "not an ITB packet");
        let len = self.as_bytes()[2];
        self.advance(3);
        debug_assert_eq!(self.len(), len as usize);
        len
    }
}

/// Decoded view of a full header: the per-segment port lists, or `None`
/// unless the header ends in exactly one GM or mapper packet type. Used by
/// tests.
pub fn decode_segments(header: &Header) -> Option<Vec<Vec<PortIx>>> {
    let b = header.as_bytes();
    let mut segs = Vec::new();
    let mut cur = Vec::new();
    let mut at = 0;
    for field in fields(b) {
        match field {
            Field::Route(p) => {
                cur.push(p);
                at += 1;
            }
            Field::Itb => {
                segs.push(std::mem::take(&mut cur));
                at += 3;
            }
        }
    }
    segs.push(cur);
    let ty = b.get(at..)?;
    (ty == TYPE_GM.to_be_bytes() || ty == TYPE_MAP.to_be_bytes()).then_some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{Hop, Segment, SourceRoute};
    use itb_topo::{HostId, SwitchId};

    fn hops(ps: &[u8]) -> Vec<Hop> {
        ps.iter()
            .enumerate()
            .map(|(i, &p)| Hop::new(SwitchId(i as u16), p))
            .collect()
    }

    #[test]
    fn single_segment_layout() {
        let r = SourceRoute::direct(HostId(0), HostId(1), hops(&[3, 1, 2]));
        let h = Header::encode(&r);
        assert_eq!(
            h.as_bytes(),
            &[
                ROUTE_TAG | 3,
                ROUTE_TAG | 1,
                ROUTE_TAG | 2,
                0x00,
                0x0D // TYPE_GM
            ]
        );
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
    }

    #[test]
    fn two_segment_layout_matches_fig3b() {
        let r = SourceRoute {
            src: HostId(0),
            dst: HostId(2),
            segments: vec![
                Segment {
                    from: HostId(0),
                    to: HostId(1),
                    hops: hops(&[4, 5]),
                },
                Segment {
                    from: HostId(1),
                    to: HostId(2),
                    hops: hops(&[6]),
                },
            ],
        };
        let h = Header::encode(&r);
        // Path1(2) | ITB(2) | Len(1) | Path2(1) | Type(2)
        assert_eq!(h.len(), 8);
        let b = h.as_bytes();
        assert_eq!(b[0], ROUTE_TAG | 4);
        assert_eq!(b[1], ROUTE_TAG | 5);
        assert_eq!(u16::from_be_bytes([b[2], b[3]]), TYPE_ITB);
        assert_eq!(b[4], 3); // remaining: 1 route byte + 2 type bytes
        assert_eq!(b[5], ROUTE_TAG | 6);
        assert_eq!(u16::from_be_bytes([b[6], b[7]]), TYPE_GM);
    }

    #[test]
    fn switch_and_nic_consumption_walk() {
        let r = SourceRoute {
            src: HostId(0),
            dst: HostId(2),
            segments: vec![
                Segment {
                    from: HostId(0),
                    to: HostId(1),
                    hops: hops(&[4, 5]),
                },
                Segment {
                    from: HostId(1),
                    to: HostId(2),
                    hops: hops(&[6]),
                },
            ],
        };
        let mut h = Header::encode(&r);
        // Two switches strip their route bytes.
        assert_eq!(h.consume_route_byte(), PortIx(4));
        assert_eq!(h.packet_type(), None, "still route bytes in front");
        assert_eq!(h.consume_route_byte(), PortIx(5));
        // At the in-transit NIC the type reads ITB.
        assert_eq!(h.packet_type(), Some(TYPE_ITB));
        let remaining = h.strip_itb_group();
        assert_eq!(remaining, 3);
        // Re-injected: next switch routes on port 6.
        assert_eq!(h.consume_route_byte(), PortIx(6));
        // Destination NIC sees a normal GM packet.
        assert_eq!(h.packet_type(), Some(TYPE_GM));
    }

    #[test]
    fn decode_roundtrip_multi_itb() {
        let r = SourceRoute {
            src: HostId(0),
            dst: HostId(3),
            segments: vec![
                Segment {
                    from: HostId(0),
                    to: HostId(1),
                    hops: hops(&[1]),
                },
                Segment {
                    from: HostId(1),
                    to: HostId(2),
                    hops: hops(&[2, 3]),
                },
                Segment {
                    from: HostId(2),
                    to: HostId(3),
                    hops: hops(&[4, 5, 6]),
                },
            ],
        };
        let h = Header::encode(&r);
        let segs = decode_segments(&h).expect("valid header decodes");
        assert_eq!(
            segs,
            vec![
                vec![PortIx(1)],
                vec![PortIx(2), PortIx(3)],
                vec![PortIx(4), PortIx(5), PortIx(6)],
            ]
        );
    }

    #[test]
    fn truncated_header_fails_decode() {
        let r = SourceRoute::direct(HostId(0), HostId(1), hops(&[1, 2]));
        let h = Header::encode(&r);
        let cut = Header::from_bytes(&h.as_bytes()[..h.len() - 1]);
        assert!(decode_segments(&cut).is_none());
    }

    #[test]
    fn long_header_spills_to_heap_and_consumes_identically() {
        // A route long enough to exceed INLINE_CAP must behave exactly like
        // the inline representation under the same consumption walk.
        let ports: Vec<u8> = (0..40).map(|i| i % 16).collect();
        let r = SourceRoute::direct(HostId(0), HostId(1), hops(&ports));
        let mut h = Header::encode(&r);
        assert!(h.len() > INLINE_CAP, "test must exercise the heap repr");
        let full = h.as_bytes().to_vec();
        assert_eq!(Header::from_bytes(&full), h);
        for &p in &ports {
            assert_eq!(h.consume_route_byte(), PortIx(p));
        }
        assert_eq!(h.packet_type(), Some(TYPE_GM));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn clone_is_independent_of_cursor() {
        let r = SourceRoute::direct(HostId(0), HostId(1), hops(&[1, 2, 3]));
        let mut h = Header::encode(&r);
        let snapshot = h.clone();
        h.consume_route_byte();
        assert_eq!(snapshot.len(), 5, "clone keeps its own cursor");
        assert_ne!(snapshot, h);
        assert_eq!(snapshot.as_bytes()[0], ROUTE_TAG | 1);
    }

    #[test]
    fn tail_past_the_length_byte_is_rejected() {
        // 254 hops after the stop plus the type: 256 bytes follow the
        // Length byte.
        let mut steps = vec![Step::Hop(Hop::new(SwitchId(0), 1)), Step::Itb(HostId(1))];
        steps.extend(hops(&[2; 254]).into_iter().map(Step::Hop));
        assert_eq!(
            append_header(&mut Vec::new(), &steps),
            Err(EncodeError::Length(256))
        );
        // One hop fewer fits exactly, appended after what `out` holds.
        let shorter = &steps[..steps.len() - 1];
        let mut out = vec![0xAA];
        append_header(&mut out, shorter).unwrap();
        let route = SourceRoute::from_steps(HostId(0), HostId(2), shorter.iter().copied());
        assert_eq!(&out[1..], Header::encode(&route).as_bytes());
        assert_eq!(out[1 + 1 + 2], 255);
    }

    #[test]
    #[should_panic(expected = "does not fit a route byte")]
    fn port_past_a_route_byte_panics_in_encode() {
        Header::encode(&SourceRoute::direct(HostId(0), HostId(1), hops(&[64])));
    }

    #[test]
    fn fields_walk_route_bytes_and_itb_groups() {
        let r = SourceRoute::from_steps(
            HostId(0),
            HostId(2),
            [
                Step::Hop(Hop::new(SwitchId(0), 4)),
                Step::Itb(HostId(1)),
                Step::Hop(Hop::new(SwitchId(0), 6)),
            ],
        );
        let h = Header::encode(&r);
        assert_eq!(
            fields(h.as_bytes()).collect::<Vec<_>>(),
            vec![Field::Route(PortIx(4)), Field::Itb, Field::Route(PortIx(6))]
        );
    }

    #[test]
    fn route_byte_roundtrip() {
        for p in 0..16u8 {
            assert_eq!(decode_route_byte(route_byte(PortIx(p))), Some(PortIx(p)));
        }
        assert_eq!(decode_route_byte(0x00), None);
        assert_eq!(decode_route_byte(0x0D), None);
    }

    #[test]
    fn crc8_known_values() {
        assert_eq!(crc8(&[]), 0);
        assert_eq!(crc8(&[0x00]), 0);
        // CRC-8/SMBus check value for "123456789" is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        // Single-bit corruption changes the CRC.
        let a = crc8(&[1, 2, 3, 4]);
        let b = crc8(&[1, 2, 3, 5]);
        assert_ne!(a, b);
    }

    #[test]
    fn type_constants_are_distinct_and_not_route_bytes() {
        for ty in [TYPE_GM, TYPE_ITB, TYPE_MAP] {
            let hi = (ty >> 8) as u8;
            assert!(
                decode_route_byte(hi).is_none(),
                "type {ty:#06x} high byte collides with route bytes"
            );
        }
        assert_ne!(TYPE_GM, TYPE_ITB);
        assert_ne!(TYPE_GM, TYPE_MAP);
        assert_ne!(TYPE_ITB, TYPE_MAP);
    }
}
