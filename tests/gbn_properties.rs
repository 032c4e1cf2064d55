//! Property-based tests of the GM go-back-N reliability layer: a wire
//! adversary applies arbitrary drop/duplicate/reorder schedules between a
//! sender and a receiver `Host`, with connections starting anywhere in the
//! sequence ring (including right at the `u32::MAX -> 0` wrap), and every
//! message must still arrive exactly once and in order.

use itb_myrinet::gm::host::{Host, RxAction};
use itb_myrinet::gm::meta::{Kind, PacketMeta};
use itb_myrinet::gm::GmConfig;
use itb_myrinet::routing::{RouteTable, RoutingPolicy};
use itb_myrinet::sim::SimTime;
use itb_myrinet::topo::builders::chain;
use itb_myrinet::topo::{HostId, UpDown};
use proptest::prelude::*;
use std::sync::Arc;

const SENDER: HostId = HostId(0);
const RECEIVER: HostId = HostId(1);

fn mk_host(id: HostId) -> Host {
    let topo = chain(2, 1);
    let ud = UpDown::compute_default(&topo);
    let routes = Arc::new(RouteTable::compute(&topo, &ud, RoutingPolicy::UpDown).unwrap());
    let cfg = GmConfig {
        max_retries: 0, // retry forever: no schedule may abandon a message
        ..GmConfig::default()
    };
    Host::new(id, cfg, routes, 2)
}

/// One in-flight wire item: a DATA packet or a cumulative ACK.
#[derive(Clone, Copy)]
enum Wire {
    Data { payload_len: u32, tag: u64 },
    Ack { seq: u32 },
}

/// The wire adversary: consumes one schedule byte per item. While the
/// schedule lasts, items may be dropped, duplicated, or swapped with their
/// successor; once it is exhausted the wire turns faithful, so every run
/// terminates.
struct Adversary {
    schedule: Vec<u8>,
    cursor: usize,
    faults: u64,
}

impl Adversary {
    fn new(schedule: Vec<u8>) -> Self {
        Adversary {
            schedule,
            cursor: 0,
            faults: 0,
        }
    }

    fn transform(&mut self, items: Vec<Wire>) -> Vec<Wire> {
        let mut out = Vec::with_capacity(items.len());
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            match self.schedule.get(self.cursor).copied() {
                None => out.push(item),
                Some(b) => {
                    self.cursor += 1;
                    if b < 64 {
                        self.faults += 1; // dropped
                    } else if b < 112 {
                        self.faults += 1;
                        out.push(item);
                        out.push(item); // duplicated
                    } else if b < 160 {
                        // Swapped with the next item (if any).
                        if let Some(next) = iter.next() {
                            self.faults += 1;
                            out.push(next);
                        }
                        out.push(item);
                    } else {
                        out.push(item);
                    }
                }
            }
        }
        out
    }
}

/// Run the full exchange and return `(delivered (msg_id, len) in order,
/// wire fault count, sender retransmissions, receiver duplicates)`.
fn exchange(start_seq: u32, sizes: &[u32], schedule: Vec<u8>) -> (Vec<(u32, u32)>, u64, u64, u64) {
    let mut sender = mk_host(SENDER);
    let mut receiver = mk_host(RECEIVER);
    let tx = sender.open(RECEIVER);
    sender.tx[tx].next_seq = start_seq;
    let rx = receiver.open(SENDER);
    receiver.rx[rx].expected = start_seq;
    let mut now = SimTime::ZERO;
    // Every message is posted up front; the window holds back the rest.
    let mut released = Vec::new();
    for (msg_id, &len) in sizes.iter().enumerate() {
        sender.send(RECEIVER, len, msg_id as u32, now, &mut released);
    }

    let mut adversary = Adversary::new(schedule);
    let mut delivered = Vec::new();
    let mut rounds = 0usize;
    while delivered.len() < sizes.len() {
        rounds += 1;
        assert!(rounds < 2000, "exchange failed to converge");

        // Window refills first, then any go-back-N resend, into the one
        // buffer: the path the cluster hands both to the NIC through.
        sender.pump_window(RECEIVER, now, &mut released);
        sender.check_retransmissions(RECEIVER, now, &mut released);
        let outbound: Vec<Wire> = released
            .drain(..)
            .map(|p| Wire::Data {
                payload_len: p.payload_len,
                tag: p.tag,
            })
            .collect();

        let mut inbound = Vec::new();
        for item in adversary.transform(outbound) {
            let Wire::Data { payload_len, tag } = item else {
                unreachable!("only data flows sender -> receiver");
            };
            let meta = PacketMeta::decode(tag);
            assert_eq!(meta.kind, Kind::Data);
            let ack = match receiver.on_data(SENDER, payload_len, meta) {
                RxAction::Accepted { ack } | RxAction::Duplicate { ack } => Some(ack),
                RxAction::Delivered { ack, len, msg_id } => {
                    delivered.push((msg_id, len));
                    Some(ack)
                }
                RxAction::Dropped => None,
            };
            if let Some(seq) = ack {
                inbound.push(Wire::Ack { seq });
            }
        }
        for item in adversary.transform(inbound) {
            let Wire::Ack { seq } = item else {
                unreachable!("only acks flow receiver -> sender");
            };
            sender.on_ack(RECEIVER, seq);
        }

        // Advance past the (possibly backed-off) retransmission timeout so
        // the next round can resend anything that was lost.
        now += sender.retrans_delay(RECEIVER);
    }
    (
        delivered,
        adversary.faults,
        sender.conn_tx(RECEIVER).unwrap().retransmissions,
        receiver.conn_rx(SENDER).unwrap().duplicates,
    )
}

/// Sequence-space starting points: the beginning, right at the wrap, and
/// anywhere.
fn start_seq() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), (u32::MAX - 8)..=u32::MAX, any::<u32>(),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once, in-order delivery under arbitrary drop/dup/reorder
    /// schedules, anywhere in the sequence ring.
    #[test]
    fn gbn_delivers_exactly_once_in_order(
        start in start_seq(),
        sizes in prop::collection::vec(1u32..9000, 1..6),
        schedule in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let (delivered, _, _, _) = exchange(start, &sizes, schedule);
        let expected: Vec<(u32, u32)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| (i as u32, len))
            .collect();
        prop_assert_eq!(delivered, expected);
    }

    /// The reliability diagnostics stay consistent with the wire behaviour:
    /// a faithful wire never needs retransmissions nor sees duplicates,
    /// while recovery work only happens when faults were injected.
    #[test]
    fn gbn_diagnostics_consistent(
        start in start_seq(),
        sizes in prop::collection::vec(1u32..9000, 1..5),
        schedule in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let (_, faults, retrans, dups) = exchange(start, &sizes, schedule);
        if faults == 0 {
            // Faithful wire: no retransmissions, no duplicates.
            prop_assert_eq!(retrans, 0);
            prop_assert_eq!(dups, 0);
        } else {
            // Recovery work is bounded by what the adversary did: each fault
            // costs at most one go-back-N round of the (bounded) window.
            prop_assert!(retrans + dups <= faults * 2 * 8 + faults);
        }
    }
}
