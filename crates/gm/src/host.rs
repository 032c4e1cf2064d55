//! Per-host GM state: connections, segmentation, reliability.

use crate::config::GmConfig;
use crate::meta::{Kind, PacketMeta};
use itb_routing::wire::Header;
use itb_routing::RouteTable;
use itb_sim::{narrow, SimDuration, SimTime};
use itb_topo::HostId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Serial-number "less than" over the full `u32` ring (RFC 1982 style):
/// `a` precedes `b` when the forward distance from `a` to `b` is under half
/// the sequence space. Plain `<` breaks at the `u32::MAX -> 0` wrap; the
/// window bound (`send_window` packets) keeps live sequences well inside
/// half the ring, so this ordering is unambiguous.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 31)
}

/// Serial-number "less than or equal" (see [`seq_lt`]).
#[inline]
pub fn seq_leq(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < (1 << 31)
}

/// The retransmission timeout after `exp` consecutive fruitless rounds:
/// `base * 2^exp`, clamped to `cap` (and never below `base`).
#[inline]
pub fn effective_timeout(base: SimDuration, cap: SimDuration, exp: u32) -> SimDuration {
    let base_ps = base.as_ps();
    let scaled = base_ps.saturating_mul(1u64 << exp.min(20));
    SimDuration::from_ps(scaled.min(cap.as_ps().max(base_ps)))
}

/// A packet the sender must be able to retransmit.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPacket {
    /// Sequence number on the connection.
    pub seq: u32,
    /// Payload bytes.
    pub payload_len: u32,
    /// Encoded metadata tag.
    pub tag: u64,
    /// Time of the most recent (re)transmission.
    pub sent_at: SimTime,
}

/// A segmented packet on its way to the connection's peer: waiting for
/// the send window to open, or released to the NIC.
#[derive(Debug, Clone)]
pub struct QueuedPacket {
    /// Payload bytes.
    pub payload_len: u32,
    /// Encoded metadata tag.
    pub tag: u64,
}

/// Sender half of a connection to one peer.
#[derive(Debug, Default)]
pub struct ConnTx {
    /// Next sequence number to assign (wraps).
    pub next_seq: u32,
    /// Segmented packets not yet released to the NIC (window closed).
    pub send_queue: VecDeque<QueuedPacket>,
    /// Unacknowledged packets in sequence order, oldest first (only packets
    /// actually handed to the NIC — GM's send tokens bound this to the
    /// window). A deque rather than a map keyed by sequence: sequence
    /// numbers wrap, so numeric key order is not transmission order.
    pub unacked: VecDeque<StoredPacket>,
    /// Whether a retransmission check is scheduled.
    pub timer_armed: bool,
    /// Consecutive retransmission rounds without ACK progress (drives the
    /// exponential backoff; reset by any cumulative ACK that frees packets).
    pub backoff_exp: u32,
    /// The retry budget ran out: the connection is dead, pending traffic
    /// was abandoned, and no further sends are accepted.
    pub failed: bool,
    /// Retransmissions performed (diagnostic).
    pub retransmissions: u64,
    /// Submit clock: the time of the last `SubmitPacket` the cluster
    /// scheduled on this connection that has not fired yet. A release or
    /// resend starts no earlier than one posting cost after it, so
    /// back-to-back bursts reach the NIC in the order they were scheduled;
    /// the cluster clears it when that submission fires. Left out of
    /// [`Host::state_digest`]: it is derived from digested state, the
    /// latest pending `SubmitPacket` event scheduled on the connection.
    pub submit_clock: Option<SimTime>,
}

impl ConnTx {
    /// Hand `pkt` to the NIC: append it to `out` and, with reliability on,
    /// register it as unacknowledged with `sent_at = now`.
    fn release(
        &mut self,
        pkt: QueuedPacket,
        reliability: bool,
        now: SimTime,
        out: &mut Vec<QueuedPacket>,
    ) {
        if reliability {
            self.unacked.push_back(StoredPacket {
                seq: PacketMeta::decode(pkt.tag).seq,
                payload_len: pkt.payload_len,
                tag: pkt.tag,
                sent_at: now,
            });
        }
        out.push(pkt);
    }

    /// Release queued packets, oldest first, while the window has room.
    fn pump(
        &mut self,
        window: usize,
        reliability: bool,
        now: SimTime,
        out: &mut Vec<QueuedPacket>,
    ) {
        while self.unacked.len() < window {
            let Some(pkt) = self.send_queue.pop_front() else {
                break;
            };
            self.release(pkt, reliability, now, out);
        }
    }
}

/// Receiver half of a connection from one peer.
#[derive(Debug, Default)]
pub struct ConnRx {
    /// Next expected sequence number (wraps).
    pub expected: u32,
    /// Bytes accumulated for the in-progress message.
    pub partial_bytes: u32,
    /// Duplicates discarded (diagnostic).
    pub duplicates: u64,
}

/// What the receiver does with an incoming DATA packet.
#[derive(Debug, PartialEq, Eq)]
pub enum RxAction {
    /// In-order segment, message still incomplete. `ack` is the cumulative
    /// sequence to acknowledge.
    Accepted {
        /// Cumulative ACK value.
        ack: u32,
    },
    /// In-order segment completing a message of `len` bytes.
    Delivered {
        /// Cumulative ACK value.
        ack: u32,
        /// Reassembled message length.
        len: u32,
        /// Message id from the final segment.
        msg_id: u32,
    },
    /// Duplicate (already received): re-ACK so the sender can advance.
    Duplicate {
        /// Cumulative ACK value.
        ack: u32,
    },
    /// Out of order (a gap exists): dropped, go-back-N will resend.
    Dropped,
}

/// Outcome of a retransmission-timer check.
#[derive(Debug, PartialEq)]
pub enum RetransDecision {
    /// Nothing due (no outstanding packets, or the oldest is younger than
    /// the current backed-off timeout).
    Idle,
    /// Go-back-N: the whole unacked window was appended to the caller's
    /// buffer for resending, oldest first.
    Resend,
    /// The retry budget is exhausted. The connection is now failed and its
    /// pending traffic (`abandoned` packets, unacked plus queued) dropped.
    Failed {
        /// Packets abandoned when the connection died.
        abandoned: usize,
    },
}

/// Position of a peer with no open connection in [`Host`]'s `slot` index.
const NO_CONN: u32 = u32::MAX;

/// GM state of one host.
///
/// Connection state is created on first use: only a send to a peer or a
/// DATA packet from it opens the connection, and then both halves at
/// once. A host that never talks allocates nothing; the others hold state
/// for the peers they actually use.
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// Configuration (shared cluster-wide).
    // detlint::allow(T003, per-run GM configuration: fixed before the first event and never mutated)
    pub cfg: GmConfig,
    /// The mapper-installed route table.
    // detlint::allow(T003, per-run routing function: fixed at mapper install time; route choices land in digested packet state)
    pub routes: Arc<RouteTable>,
    /// Hosts in the cluster.
    n: usize,
    /// Peer index → position in `tx`/`rx`, or [`NO_CONN`]. Empty until the
    /// first connection opens, then `n` long.
    slot: Vec<u32>,
    /// Sender halves of the open connections, in the order they opened.
    /// A position is not a peer id: look peers up with [`Host::conn_tx`].
    pub tx: Vec<ConnTx>,
    /// Receiver halves, parallel to `tx`.
    pub rx: Vec<ConnRx>,
}

impl Host {
    /// Fresh host state for a cluster of `n` hosts, with no connection open.
    pub fn new(id: HostId, cfg: GmConfig, routes: Arc<RouteTable>, n: usize) -> Self {
        Host {
            id,
            cfg,
            routes,
            n,
            slot: Vec::new(),
            tx: Vec::new(),
            rx: Vec::new(),
        }
    }

    /// Position of the connection with peer index `peer`, if open.
    fn pos(&self, peer: usize) -> Option<usize> {
        match self.slot.get(peer) {
            Some(&s) if s != NO_CONN => Some(s as usize),
            _ => None,
        }
    }

    /// Position of the connection with `peer` in `tx` and `rx`, opening it
    /// (both halves, in their default state) on first use.
    pub fn open(&mut self, peer: HostId) -> usize {
        if let Some(i) = self.pos(peer.idx()) {
            return i;
        }
        if self.slot.is_empty() {
            self.slot = vec![NO_CONN; self.n];
        }
        let i = self.tx.len();
        self.slot[peer.idx()] = narrow(i);
        self.tx.push(ConnTx::default());
        self.rx.push(ConnRx::default());
        i
    }

    /// Sender state of the connection with `peer`, if open.
    pub fn conn_tx(&self, peer: HostId) -> Option<&ConnTx> {
        self.pos(peer.idx()).map(|i| &self.tx[i])
    }

    /// Mutable sender state of the connection with `peer`, if open.
    pub(crate) fn conn_tx_mut(&mut self, peer: HostId) -> Option<&mut ConnTx> {
        self.pos(peer.idx()).map(|i| &mut self.tx[i])
    }

    /// Receiver state of the connection with `peer`, if open.
    pub fn conn_rx(&self, peer: HostId) -> Option<&ConnRx> {
        self.pos(peer.idx()).map(|i| &self.rx[i])
    }

    /// The wire header for a packet to `dst`: a copy of the route
    /// table's bytes.
    pub fn header_for(&self, dst: HostId) -> Header {
        let bytes = self.routes.header(self.id, dst);
        assert!(!bytes.is_empty(), "{} has no route to itself", self.id);
        Header::from_bytes(bytes)
    }

    /// GM's send-token window in packets; unbounded with reliability off.
    fn window(&self) -> usize {
        if self.cfg.reliability {
            self.cfg.send_window as usize
        } else {
            usize::MAX
        }
    }

    /// Send a message of `len` bytes to `dst`: segment it into packets and
    /// append to `out` (a buffer the caller reuses) every packet the send
    /// window lets through now; the rest wait on the connection's send
    /// queue for [`Host::pump_window`]. Packets flow straight out only
    /// while nothing is queued ahead of them, so the order and state are
    /// those of queueing every packet and then pumping the window. Released
    /// packets are registered as unacknowledged with `sent_at = now`.
    /// Messages to a failed connection are silently discarded — the
    /// failure was already surfaced.
    pub fn send(
        &mut self,
        dst: HostId,
        len: u32,
        msg_id: u32,
        now: SimTime,
        out: &mut Vec<QueuedPacket>,
    ) {
        let (window, reliability) = (self.window(), self.cfg.reliability);
        let (n, mtu) = (self.cfg.packets_for(len), self.cfg.mtu);
        let i = self.open(dst);
        let conn = &mut self.tx[i];
        if conn.failed {
            return;
        }
        // A backlog the window has room for goes out ahead of this message.
        conn.pump(window, reliability, now, out);
        let mut remaining = len;
        for k in 0..n {
            let last = k == n - 1;
            let payload_len = if last { remaining } else { mtu };
            remaining -= payload_len;
            let seq = conn.next_seq;
            conn.next_seq = conn.next_seq.wrapping_add(1);
            let pkt = QueuedPacket {
                payload_len,
                tag: PacketMeta::data(msg_id, seq, last).encode(),
            };
            if conn.send_queue.is_empty() && conn.unacked.len() < window {
                conn.release(pkt, reliability, now, out);
            } else {
                conn.send_queue.push_back(pkt);
            }
        }
    }

    /// Release queued packets to the NIC while the send window has room
    /// (GM's send-token flow control). Released packets are registered as
    /// unacknowledged with `sent_at = now`, so the retransmission timer
    /// measures actual network time, never queueing time. With reliability
    /// off the window is unbounded. The released packets are appended to
    /// `out`, a buffer the caller reuses across calls.
    pub fn pump_window(&mut self, dst: HostId, now: SimTime, out: &mut Vec<QueuedPacket>) {
        let (window, reliability) = (self.window(), self.cfg.reliability);
        if let Some(conn) = self.conn_tx_mut(dst).filter(|c| !c.failed) {
            conn.pump(window, reliability, now, out);
        }
    }

    /// Process an incoming DATA packet from `from`.
    pub fn on_data(&mut self, from: HostId, payload_len: u32, meta: PacketMeta) -> RxAction {
        debug_assert_eq!(meta.kind, Kind::Data);
        let i = self.open(from);
        let conn = &mut self.rx[i];
        if seq_lt(meta.seq, conn.expected) {
            conn.duplicates += 1;
            return RxAction::Duplicate {
                ack: conn.expected.wrapping_sub(1),
            };
        }
        if meta.seq != conn.expected {
            return RxAction::Dropped;
        }
        conn.expected = conn.expected.wrapping_add(1);
        conn.partial_bytes += payload_len;
        let ack = meta.seq;
        if meta.last_in_msg {
            let len = conn.partial_bytes;
            conn.partial_bytes = 0;
            RxAction::Delivered {
                ack,
                len,
                msg_id: meta.msg_id,
            }
        } else {
            RxAction::Accepted { ack }
        }
    }

    /// Process a cumulative ACK from `from`: drop all covered packets.
    /// Returns whether the ACK made progress (freed at least one packet);
    /// progress resets the retransmission backoff. An ACK from a peer with
    /// no open connection covers nothing.
    pub fn on_ack(&mut self, from: HostId, acked_seq: u32) -> bool {
        let Some(conn) = self.conn_tx_mut(from) else {
            return false;
        };
        let mut progressed = false;
        while conn
            .unacked
            .front()
            .is_some_and(|p| seq_leq(p.seq, acked_seq))
        {
            conn.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            conn.backoff_exp = 0;
        }
        progressed
    }

    /// Run the retransmission timer for `peer` at `now`.
    ///
    /// If the oldest unacknowledged packet is older than the current
    /// backed-off timeout, either the whole window is due for a go-back-N
    /// resend (bumping the backoff and appending the window, oldest first,
    /// to `out`, the buffer fresh releases go to), or — when
    /// `max_retries` consecutive rounds have already gone unanswered — the
    /// connection is declared failed and everything pending is abandoned.
    pub fn check_retransmissions(
        &mut self,
        peer: HostId,
        now: SimTime,
        out: &mut Vec<QueuedPacket>,
    ) -> RetransDecision {
        let cfg = self.cfg;
        let Some(conn) = self.conn_tx_mut(peer).filter(|c| !c.failed) else {
            return RetransDecision::Idle;
        };
        let timeout = effective_timeout(
            cfg.retrans_timeout,
            cfg.retrans_backoff_cap,
            conn.backoff_exp,
        );
        let oldest_due = conn
            .unacked
            .front()
            .is_some_and(|p| now.saturating_since(p.sent_at) >= timeout);
        if !oldest_due {
            return RetransDecision::Idle;
        }
        if cfg.max_retries > 0 && conn.backoff_exp >= cfg.max_retries {
            let abandoned = conn.unacked.len() + conn.send_queue.len();
            conn.unacked.clear();
            conn.send_queue.clear();
            conn.failed = true;
            return RetransDecision::Failed { abandoned };
        }
        conn.backoff_exp += 1;
        // Go-back-N: resend the whole window in order.
        conn.retransmissions += conn.unacked.len() as u64;
        out.extend(conn.unacked.iter_mut().map(|p| {
            p.sent_at = now;
            QueuedPacket {
                payload_len: p.payload_len,
                tag: p.tag,
            }
        }));
        RetransDecision::Resend
    }

    /// The current (backed-off) retransmission timeout for `peer` — how far
    /// ahead the next timer check should be scheduled.
    pub fn retrans_delay(&self, peer: HostId) -> SimDuration {
        effective_timeout(
            self.cfg.retrans_timeout,
            self.cfg.retrans_backoff_cap,
            self.conn_tx(peer).map_or(0, |c| c.backoff_exp),
        )
    }

    /// Whether any packet to `peer` awaits acknowledgement.
    pub fn has_unacked(&self, peer: HostId) -> bool {
        self.conn_tx(peer).is_some_and(|c| !c.unacked.is_empty())
    }

    /// Whether the connection to `peer` has exhausted its retries.
    pub fn conn_failed(&self, peer: HostId) -> bool {
        self.conn_tx(peer).is_some_and(|c| c.failed)
    }

    /// Fold every behavioral field of this host's GM state — per-peer send
    /// queues, unacked windows, timers, backoff and receive reassembly
    /// cursors — into a model-checker digest. Diagnostic counters
    /// (`retransmissions`, `duplicates`) are excluded: they never influence
    /// a future transition. `sent_at` *is* behavioral (it drives timeout
    /// eligibility) and is included. Peers come in peer order, and a peer
    /// with no open connection digests as the default state, so the bytes
    /// do not depend on which connections are open or in what order they
    /// opened. Every queued and unacked packet is written with the
    /// connection's peer id: the committed end-of-run digests pin that
    /// layout.
    pub fn state_digest(&self, d: &mut itb_sim::Digest) {
        d.u16(self.id.0);
        d.usize(self.n);
        let (idle_tx, idle_rx) = (ConnTx::default(), ConnRx::default());
        for peer in 0..self.n {
            let conn = self.pos(peer).map_or(&idle_tx, |i| &self.tx[i]);
            let peer: u16 = narrow(peer);
            d.u32(conn.next_seq);
            d.usize(conn.send_queue.len());
            for p in &conn.send_queue {
                d.u16(peer);
                d.u32(p.payload_len);
                d.u64(p.tag);
            }
            d.usize(conn.unacked.len());
            for p in &conn.unacked {
                d.u16(peer);
                d.u32(p.seq);
                d.u32(p.payload_len);
                d.u64(p.tag);
                d.u64(p.sent_at.as_ps());
            }
            d.bool(conn.timer_armed);
            d.u32(conn.backoff_exp);
            d.bool(conn.failed);
        }
        for peer in 0..self.n {
            let conn = self.pos(peer).map_or(&idle_rx, |i| &self.rx[i]);
            d.u32(conn.expected);
            d.u32(conn.partial_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_routing::RoutingPolicy;
    use itb_topo::builders::chain;
    use itb_topo::UpDown;

    fn mk_host(id: u16) -> Host {
        mk_host_cfg(id, GmConfig::default())
    }

    fn mk_host_cfg(id: u16, cfg: GmConfig) -> Host {
        mk_host_n(id, cfg, 2)
    }

    /// A host in a cluster of `n`; the two-host route table is only read
    /// by `header_for`.
    fn mk_host_n(id: u16, cfg: GmConfig, n: usize) -> Host {
        let topo = chain(2, 1);
        let ud = UpDown::compute_default(&topo);
        let routes = Arc::new(RouteTable::compute(&topo, &ud, RoutingPolicy::UpDown).unwrap());
        Host::new(HostId(id), cfg, routes, n)
    }

    fn digest(h: &Host) -> u64 {
        let mut d = itb_sim::Digest::new();
        h.state_digest(&mut d);
        d.finish()
    }

    /// Release what the window allows into a fresh buffer.
    fn pump(h: &mut Host, dst: HostId, now: SimTime) -> Vec<QueuedPacket> {
        let mut out = Vec::new();
        h.pump_window(dst, now, &mut out);
        out
    }

    /// Run the retransmission timer at `now`; returns the packets due.
    fn due(h: &mut Host, peer: HostId, now: SimTime) -> Vec<QueuedPacket> {
        let mut out = Vec::new();
        h.check_retransmissions(peer, now, &mut out);
        out
    }

    /// Send at `now`; returns the packets released straight away.
    fn send_at(h: &mut Host, dst: HostId, len: u32, msg: u32, now: SimTime) -> Vec<QueuedPacket> {
        let mut out = Vec::new();
        h.send(dst, len, msg, now, &mut out);
        out
    }

    fn send(h: &mut Host, dst: HostId, len: u32, msg: u32) -> Vec<QueuedPacket> {
        send_at(h, dst, len, msg, SimTime::ZERO)
    }

    fn tx(h: &Host, peer: u16) -> &ConnTx {
        h.conn_tx(HostId(peer)).expect("connection is open")
    }

    /// The two-step send `Host::send` replaced: queue every packet of the
    /// message on the connection, then pump the window.
    fn segment_then_pump(
        h: &mut Host,
        dst: HostId,
        len: u32,
        msg_id: u32,
        now: SimTime,
    ) -> Vec<QueuedPacket> {
        let (n, mtu) = (h.cfg.packets_for(len), h.cfg.mtu);
        let i = h.open(dst);
        let conn = &mut h.tx[i];
        if conn.failed {
            return Vec::new();
        }
        let mut remaining = len;
        for k in 0..n {
            let payload_len = if n == 1 {
                len
            } else if k == n - 1 {
                remaining
            } else {
                mtu
            };
            remaining -= payload_len;
            let meta = PacketMeta::data(msg_id, conn.next_seq, k == n - 1);
            conn.next_seq = conn.next_seq.wrapping_add(1);
            conn.send_queue.push_back(QueuedPacket {
                payload_len,
                tag: meta.encode(),
            });
        }
        pump(h, dst, now)
    }

    fn wire(pkts: &[QueuedPacket]) -> Vec<(u32, u64)> {
        pkts.iter().map(|p| (p.payload_len, p.tag)).collect()
    }

    #[test]
    fn serial_comparisons_wrap() {
        assert!(seq_lt(0, 1));
        assert!(!seq_lt(1, 0));
        assert!(!seq_lt(5, 5));
        assert!(seq_leq(5, 5));
        // Across the wrap: MAX precedes 0 precedes 1.
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX, 1));
        assert!(!seq_lt(0, u32::MAX));
        assert!(seq_leq(u32::MAX, 3));
    }

    #[test]
    fn single_packet_message() {
        let mut h = mk_host(0);
        let pkts = send(&mut h, HostId(1), 100, 1);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload_len, 100);
        assert!(PacketMeta::decode(pkts[0].tag).last_in_msg);
        assert!(h.has_unacked(HostId(1)));
    }

    #[test]
    fn multi_packet_segmentation() {
        let mut h = mk_host(0);
        let pkts = send(&mut h, HostId(1), 4096 * 2 + 100, 2);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].payload_len, 4096);
        assert_eq!(pkts[1].payload_len, 4096);
        assert_eq!(pkts[2].payload_len, 100);
        let metas: Vec<_> = pkts.iter().map(|p| PacketMeta::decode(p.tag)).collect();
        assert!(!metas[0].last_in_msg);
        assert!(metas[2].last_in_msg);
        // Sequence numbers are consecutive.
        assert_eq!(metas[1].seq, metas[0].seq + 1);
        assert_eq!(metas[2].seq, metas[1].seq + 1);
    }

    #[test]
    fn window_limits_outstanding_packets() {
        let mut h = mk_host(0);
        // 12 packets; default window is 8.
        let first = send(&mut h, HostId(1), 4096 * 12, 9);
        assert_eq!(first.len(), 8);
        assert_eq!(tx(&h, 1).unacked.len(), 8);
        assert_eq!(tx(&h, 1).send_queue.len(), 4);
        // Nothing more until acks arrive.
        assert!(pump(&mut h, HostId(1), SimTime::ZERO).is_empty());
        // Ack 3 packets -> 3 more released.
        h.on_ack(HostId(1), 2);
        let more = pump(&mut h, HostId(1), SimTime::from_us(50));
        assert_eq!(more.len(), 3);
        assert_eq!(tx(&h, 1).unacked.len(), 8);
        assert_eq!(tx(&h, 1).send_queue.len(), 1);
    }

    #[test]
    fn sent_at_stamped_at_release_not_segmentation() {
        let mut h = mk_host(0);
        send(&mut h, HostId(1), 4096 * 12, 1);
        h.on_ack(HostId(1), 7); // clear the first window
        let released_at = SimTime::from_us(900);
        pump(&mut h, HostId(1), released_at);
        // Packets released late are NOT due at the 1 ms mark measured from
        // segmentation time.
        assert!(due(&mut h, HostId(1), SimTime::from_ms(1)).is_empty());
        let timeout = GmConfig::default().retrans_timeout;
        assert_eq!(due(&mut h, HostId(1), released_at + timeout).len(), 4);
    }

    #[test]
    fn in_order_reassembly_delivers() {
        let mut sender = mk_host(0);
        let mut receiver = mk_host(1);
        let pkts = send(&mut sender, HostId(1), 5000, 7);
        let m0 = PacketMeta::decode(pkts[0].tag);
        let m1 = PacketMeta::decode(pkts[1].tag);
        let a0 = receiver.on_data(HostId(0), pkts[0].payload_len, m0);
        assert_eq!(a0, RxAction::Accepted { ack: 0 });
        let a1 = receiver.on_data(HostId(0), pkts[1].payload_len, m1);
        assert_eq!(
            a1,
            RxAction::Delivered {
                ack: 1,
                len: 5000,
                msg_id: 7
            }
        );
    }

    #[test]
    fn out_of_order_dropped_duplicate_reacked() {
        let mut receiver = mk_host(1);
        let m0 = PacketMeta::data(1, 0, true);
        let m1 = PacketMeta::data(2, 1, true);
        let m2 = PacketMeta::data(3, 2, true);
        // Gap: seq 1 before seq 0.
        assert_eq!(receiver.on_data(HostId(0), 10, m1), RxAction::Dropped);
        assert!(matches!(
            receiver.on_data(HostId(0), 10, m0),
            RxAction::Delivered { ack: 0, .. }
        ));
        // Duplicate of seq 0.
        assert_eq!(
            receiver.on_data(HostId(0), 10, m0),
            RxAction::Duplicate { ack: 0 }
        );
        // Now in-order continues.
        assert!(matches!(
            receiver.on_data(HostId(0), 10, m1),
            RxAction::Delivered { ack: 1, .. }
        ));
        assert!(matches!(
            receiver.on_data(HostId(0), 10, m2),
            RxAction::Delivered { ack: 2, .. }
        ));
    }

    #[test]
    fn cumulative_ack_clears_window() {
        let mut h = mk_host(0);
        send(&mut h, HostId(1), 4096 * 3, 1); // seqs 0,1,2
        assert_eq!(tx(&h, 1).unacked.len(), 3);
        assert!(h.on_ack(HostId(1), 1));
        assert_eq!(tx(&h, 1).unacked.len(), 1);
        assert!(h.on_ack(HostId(1), 2));
        assert!(!h.has_unacked(HostId(1)));
        // Stale re-ACK makes no progress.
        assert!(!h.on_ack(HostId(1), 2));
    }

    #[test]
    fn ack_at_u32_max_does_not_overflow() {
        let mut h = mk_host(0);
        // Start the connection just below the wrap point.
        let i = h.open(HostId(1));
        h.tx[i].next_seq = u32::MAX - 1;
        send(&mut h, HostId(1), 4096 * 4, 1); // seqs MAX-1, MAX, 0, 1
        assert_eq!(tx(&h, 1).unacked.len(), 4);
        // Cumulative ACK of u32::MAX must clear exactly the first two
        // packets (the old `split_off(&(acked + 1))` overflowed here).
        assert!(h.on_ack(HostId(1), u32::MAX));
        assert_eq!(tx(&h, 1).unacked.len(), 2);
        assert_eq!(tx(&h, 1).unacked.front().unwrap().seq, 0);
        assert!(h.on_ack(HostId(1), 1));
        assert!(!h.has_unacked(HostId(1)));
    }

    #[test]
    fn receiver_sequence_wraparound() {
        let mut receiver = mk_host(1);
        let i = receiver.open(HostId(0));
        receiver.rx[i].expected = u32::MAX;
        assert!(matches!(
            receiver.on_data(HostId(0), 10, PacketMeta::data(1, u32::MAX, true)),
            RxAction::Delivered { ack: u32::MAX, .. }
        ));
        // The next in-order sequence is 0, not u32::MAX + 1.
        assert!(matches!(
            receiver.on_data(HostId(0), 10, PacketMeta::data(2, 0, true)),
            RxAction::Delivered { ack: 0, .. }
        ));
        // A late duplicate from before the wrap is still a duplicate, not a
        // "future" packet.
        assert_eq!(
            receiver.on_data(HostId(0), 10, PacketMeta::data(1, u32::MAX, true)),
            RxAction::Duplicate { ack: 0 }
        );
        assert_eq!(receiver.conn_rx(HostId(0)).unwrap().duplicates, 1);
        // And genuinely future sequences are still dropped.
        assert_eq!(
            receiver.on_data(HostId(0), 10, PacketMeta::data(3, 5, true)),
            RxAction::Dropped
        );
    }

    #[test]
    fn retransmission_due_after_timeout() {
        let mut h = mk_host(0);
        send(&mut h, HostId(1), 8192, 1); // seqs 0,1
        assert!(due(&mut h, HostId(1), SimTime::from_us(10)).is_empty());
        let resent = due(&mut h, HostId(1), SimTime::from_ms(2));
        assert_eq!(resent.len(), 2, "go-back-N resends the whole window");
        assert_eq!(tx(&h, 1).retransmissions, 2);
        // Freshly stamped: not due again immediately.
        assert!(due(&mut h, HostId(1), SimTime::from_ms(2)).is_empty());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut h = mk_host(0);
        let base = h.cfg.retrans_timeout;
        let cap = h.cfg.retrans_backoff_cap;
        send(&mut h, HostId(1), 100, 1);
        assert_eq!(h.retrans_delay(HostId(1)), base);
        let mut now = SimTime::ZERO;
        let mut prev = SimDuration::ZERO;
        for _ in 0..12 {
            let delay = h.retrans_delay(HostId(1));
            assert!(delay >= prev, "backoff never shrinks without progress");
            assert!(delay <= cap, "backoff never exceeds the cap");
            now += delay;
            let mut out = Vec::new();
            match h.check_retransmissions(HostId(1), now, &mut out) {
                RetransDecision::Resend => assert_eq!(out.len(), 1),
                other => panic!("expected resend, got {other:?}"),
            }
            prev = delay;
        }
        assert_eq!(h.retrans_delay(HostId(1)), cap);
        // ACK progress resets the backoff to the base timeout.
        assert!(h.on_ack(HostId(1), 0));
        assert_eq!(h.retrans_delay(HostId(1)), base);
    }

    #[test]
    fn retry_cap_fails_connection_and_abandons_traffic() {
        let cfg = GmConfig {
            max_retries: 3,
            ..GmConfig::default()
        };
        let mut h = mk_host_cfg(0, cfg);
        // 12 packets: 8 in flight, 4 queued behind the window.
        send(&mut h, HostId(1), 4096 * 12, 1);
        let mut now = SimTime::ZERO;
        let mut failed = None;
        for _ in 0..10 {
            now += h.retrans_delay(HostId(1));
            match h.check_retransmissions(HostId(1), now, &mut Vec::new()) {
                RetransDecision::Resend => {}
                RetransDecision::Failed { abandoned } => {
                    failed = Some(abandoned);
                    break;
                }
                RetransDecision::Idle => panic!("timer fired with nothing due"),
            }
        }
        assert_eq!(failed, Some(12), "unacked window plus queued backlog");
        assert!(h.conn_failed(HostId(1)));
        assert!(!h.has_unacked(HostId(1)));
        // A dead connection accepts no further traffic and never resends.
        assert!(send_at(&mut h, HostId(1), 100, 2, now).is_empty());
        assert!(pump(&mut h, HostId(1), now).is_empty());
        let later = now + SimDuration::from_ms(100);
        let mut out = Vec::new();
        let decision = h.check_retransmissions(HostId(1), later, &mut out);
        assert_eq!(decision, RetransDecision::Idle);
        assert!(out.is_empty());
    }

    #[test]
    fn max_retries_zero_retries_forever() {
        // `max_retries == 0` is GM's historical "never give up" mode: the
        // timer keeps producing go-back-N resends at the capped backoff and
        // the connection never fails, no matter how many fruitless rounds
        // pass. Pinned here so the `cfg.max_retries > 0` short-circuit in
        // `check_retransmissions` cannot silently regress into "fail on the
        // first round" (0 retries) — see GmConfig::max_retries.
        let cfg = GmConfig {
            max_retries: 0,
            ..GmConfig::default()
        };
        let mut h = mk_host_cfg(0, cfg);
        send(&mut h, HostId(1), 100, 1);
        let mut now = SimTime::ZERO;
        // Far past any plausible cap: default max_retries is 25, so 200
        // rounds is deep into would-have-failed territory.
        for round in 0..200 {
            now += h.retrans_delay(HostId(1));
            let mut out = Vec::new();
            match h.check_retransmissions(HostId(1), now, &mut out) {
                RetransDecision::Resend => assert_eq!(out.len(), 1),
                other => panic!("round {round}: expected endless resends, got {other:?}"),
            }
        }
        assert!(!h.conn_failed(HostId(1)));
        assert!(h.has_unacked(HostId(1)));
        // The backoff exponent keeps counting rounds, but the effective
        // timeout stays clamped at the cap (no overflow at high exponents).
        assert_eq!(tx(&h, 1).backoff_exp, 200);
        assert_eq!(h.retrans_delay(HostId(1)), h.cfg.retrans_backoff_cap);
        // An ACK still completes the round trip normally.
        assert!(h.on_ack(HostId(1), 0));
        assert!(!h.has_unacked(HostId(1)));
        assert_eq!(h.retrans_delay(HostId(1)), h.cfg.retrans_timeout);
    }

    #[test]
    fn reliability_off_tracks_nothing_and_pumps_everything() {
        let topo = chain(2, 1);
        let ud = UpDown::compute_default(&topo);
        let routes = Arc::new(RouteTable::compute(&topo, &ud, RoutingPolicy::UpDown).unwrap());
        let cfg = GmConfig {
            reliability: false,
            ..GmConfig::default()
        };
        let mut h = Host::new(HostId(0), cfg, routes, 2);
        let pkts = send(&mut h, HostId(1), 4096 * 20, 1);
        assert_eq!(pkts.len(), 20, "no window without reliability");
        assert!(!h.has_unacked(HostId(1)));
    }

    #[test]
    fn fresh_host_has_no_connections() {
        let h = mk_host_n(0, GmConfig::default(), 5);
        assert!(h.tx.is_empty() && h.rx.is_empty());
        assert!(h.slot.is_empty(), "an idle host allocates no index");
    }

    #[test]
    fn read_only_calls_open_nothing() {
        let mut h = mk_host_n(0, GmConfig::default(), 5);
        let peer = HostId(3);
        assert!(
            !h.on_ack(peer, 7),
            "an ACK from an unknown peer covers nothing"
        );
        let mut out = Vec::new();
        let decision = h.check_retransmissions(peer, SimTime::from_ms(5), &mut out);
        assert_eq!(decision, RetransDecision::Idle);
        assert!(out.is_empty());
        assert!(!h.has_unacked(peer));
        assert!(!h.conn_failed(peer));
        assert_eq!(h.retrans_delay(peer), h.cfg.retrans_timeout);
        assert!(pump(&mut h, peer, SimTime::ZERO).is_empty());
        assert!(h.conn_tx(peer).is_none() && h.conn_rx(peer).is_none());
        assert!(h.tx.is_empty() && h.slot.is_empty());
    }

    #[test]
    fn first_send_or_data_opens_both_halves() {
        let mut h = mk_host_n(0, GmConfig::default(), 5);
        send(&mut h, HostId(3), 100, 1);
        h.on_data(HostId(1), 10, PacketMeta::data(1, 0, true));
        assert_eq!((h.tx.len(), h.rx.len(), h.slot.len()), (2, 2, 5));
        assert_eq!(tx(&h, 3).next_seq, 1);
        assert_eq!(h.conn_rx(HostId(1)).unwrap().expected, 1);
        // Each direction reuses the connection the other one opened.
        send(&mut h, HostId(1), 100, 2);
        h.on_data(HostId(3), 10, PacketMeta::data(1, 0, true));
        assert_eq!(h.tx.len(), 2);
    }

    #[test]
    fn fresh_digest_is_the_dense_layout() {
        // id, n, five default `tx` records, then five default `rx` records.
        let mut bytes = Vec::new();
        bytes.extend(7u16.to_le_bytes());
        bytes.extend(5u64.to_le_bytes());
        for _ in 0..5 {
            bytes.extend(0u32.to_le_bytes()); // next_seq
            bytes.extend(0u64.to_le_bytes()); // send_queue.len()
            bytes.extend(0u64.to_le_bytes()); // unacked.len()
            bytes.push(0); // timer_armed
            bytes.extend(0u32.to_le_bytes()); // backoff_exp
            bytes.push(0); // failed
        }
        for _ in 0..5 {
            bytes.extend(0u32.to_le_bytes()); // expected
            bytes.extend(0u32.to_le_bytes()); // partial_bytes
        }
        let mut want = itb_sim::Digest::new();
        want.bytes(&bytes);
        assert_eq!(digest(&mk_host_n(7, GmConfig::default(), 5)), want.finish());
    }

    #[test]
    fn digest_pins_queued_and_unacked_layout() {
        // A window of one: the first message is released (unacked), the
        // second waits on the send queue of the connection to peer 1.
        let cfg = GmConfig {
            send_window: 1,
            ..GmConfig::default()
        };
        let mut h = mk_host_cfg(0, cfg);
        let now = SimTime::from_us(3);
        send_at(&mut h, HostId(1), 100, 5, now);
        send_at(&mut h, HostId(1), 200, 6, now);
        let mut bytes = Vec::new();
        bytes.extend(0u16.to_le_bytes()); // id
        bytes.extend(2u64.to_le_bytes()); // n

        // Peer 0 (the host itself): never opened, the default record.
        bytes.extend(0u32.to_le_bytes()); // next_seq
        bytes.extend(0u64.to_le_bytes()); // send_queue.len()
        bytes.extend(0u64.to_le_bytes()); // unacked.len()
        bytes.push(0); // timer_armed
        bytes.extend(0u32.to_le_bytes()); // backoff_exp
        bytes.push(0); // failed

        // Peer 1: one queued packet, then one unacked packet.
        bytes.extend(2u32.to_le_bytes()); // next_seq
        bytes.extend(1u64.to_le_bytes()); // send_queue.len()
        bytes.extend(1u16.to_le_bytes()); // peer
        bytes.extend(200u32.to_le_bytes()); // payload_len
        bytes.extend(PacketMeta::data(6, 1, true).encode().to_le_bytes()); // tag
        bytes.extend(1u64.to_le_bytes()); // unacked.len()
        bytes.extend(1u16.to_le_bytes()); // peer
        bytes.extend(0u32.to_le_bytes()); // seq
        bytes.extend(100u32.to_le_bytes()); // payload_len
        bytes.extend(PacketMeta::data(5, 0, true).encode().to_le_bytes()); // tag
        bytes.extend(now.as_ps().to_le_bytes()); // sent_at
        bytes.push(0); // timer_armed
        bytes.extend(0u32.to_le_bytes()); // backoff_exp
        bytes.push(0); // failed
        for _ in 0..2 {
            bytes.extend(0u32.to_le_bytes()); // expected
            bytes.extend(0u32.to_le_bytes()); // partial_bytes
        }
        let mut want = itb_sim::Digest::new();
        want.bytes(&bytes);
        assert_eq!(digest(&h), want.finish());
    }

    #[test]
    fn digest_ignores_connection_open_order() {
        let mut a = mk_host_n(0, GmConfig::default(), 5);
        let mut b = mk_host_n(0, GmConfig::default(), 5);
        a.open(HostId(3));
        a.open(HostId(1));
        b.open(HostId(1));
        b.open(HostId(3));
        for h in [&mut a, &mut b] {
            send(h, HostId(1), 4096 * 10, 1);
            send(h, HostId(3), 100, 2);
            h.on_ack(HostId(1), 2);
            h.on_data(HostId(3), 10, PacketMeta::data(9, 0, false));
        }
        assert_ne!(a.tx[0].next_seq, b.tx[0].next_seq, "positions differ");
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn send_matches_segment_then_pump() {
        // Each step runs on a host that sends with `send` and on a reference
        // host that queues the whole message first and then pumps; every
        // release and the resulting state must agree.
        enum Op {
            Send(u32, u32),
            Ack(u32),
            Pump,
            Fail,
        }
        let script = [
            Op::Send(100, 1),
            Op::Send(4096 * 3 + 5, 2), // multi-packet: 5 in flight
            Op::Send(4096 * 6, 3),     // fills the window of 8, queues 3
            Op::Send(10, 4),           // queues behind the backlog
            Op::Ack(2),                // frees 3 without a pump
            Op::Send(4096, 5),         // the backlog goes first
            Op::Pump,
            Op::Ack(12),
            Op::Send(4096 * 2, 6),
            Op::Pump,
            Op::Fail,
            Op::Send(4096, 7), // a failed connection takes nothing
            Op::Pump,
        ];
        for reliability in [true, false] {
            let cfg = GmConfig {
                reliability,
                ..GmConfig::default()
            };
            let mut fused = mk_host_cfg(0, cfg);
            let mut reference = mk_host_cfg(0, cfg);
            let dst = HostId(1);
            let mut backlog = 0;
            for (step, op) in script.iter().enumerate() {
                let now = SimTime::from_us(step as u64);
                let (got, want) = match *op {
                    Op::Send(len, msg) => (
                        send_at(&mut fused, dst, len, msg, now),
                        segment_then_pump(&mut reference, dst, len, msg, now),
                    ),
                    Op::Ack(seq) => {
                        fused.on_ack(dst, seq);
                        reference.on_ack(dst, seq);
                        continue;
                    }
                    Op::Pump => (pump(&mut fused, dst, now), pump(&mut reference, dst, now)),
                    Op::Fail => {
                        fused.conn_tx_mut(dst).unwrap().failed = true;
                        reference.conn_tx_mut(dst).unwrap().failed = true;
                        continue;
                    }
                };
                assert_eq!(
                    wire(&got),
                    wire(&want),
                    "step {step}, reliability {reliability}"
                );
                assert_eq!(digest(&fused), digest(&reference), "step {step}");
                backlog = backlog.max(tx(&fused, 1).send_queue.len());
            }
            assert_eq!(
                backlog > 0,
                reliability,
                "only the window holds packets back"
            );
        }
    }

    #[test]
    fn header_for_uses_route_table() {
        let h = mk_host(0);
        let hd = h.header_for(HostId(1));
        // chain(2,1): 2 crossings -> 2 route bytes + 2 type bytes.
        assert_eq!(hd.len(), 4);
    }
}
