//! A `FlowNet` that has lived through churn solves exactly like a fresh
//! one holding the same flows.
//!
//! Seeded opens, partial `advance`s and `close_crossing`s run on two
//! irregular fabrics. After every solve, each live flow's interval and
//! every channel-allocation bit must equal those of a fresh `FlowNet`
//! that opens the same live flows (id order, same remaining bytes) and
//! solves once. The schedule also covers rounds that open nothing, two
//! solves back to back with no change between them, and solves right
//! after a round that completes or closes most of the table.

use itb_net::FlowNet;
use itb_sim::{SimDuration, SimRng};
use itb_topo::{builders, HostId, SwitchId, Topology};

const LINK: f64 = 0.16; // 160 MB/s in bytes/ns
const ROUNDS: u64 = 24;

/// Solve `net` and check it against a fresh net opened with its live
/// flows; returns the live flow count.
fn solve_and_check(topo: &Topology, net: &mut FlowNet, what: &str) -> usize {
    net.solve();
    let mut fresh = FlowNet::new(topo, LINK);
    for (id, f) in net.iter() {
        fresh.open(id, f.src, f.dst, f.remaining);
    }
    fresh.solve();
    assert_eq!(net.len(), fresh.len(), "{what}: live count");
    for ((id, a), (fresh_id, b)) in net.iter().zip(fresh.iter()) {
        assert_eq!(id, fresh_id, "{what}: table order");
        assert_eq!(a.interval, b.interval, "{what}: flow {id} interval");
    }
    let bits = |n: &FlowNet| -> Vec<u64> { n.channel_allocation().map(f64::to_bits).collect() };
    assert_eq!(bits(net), bits(&fresh), "{what}: channel allocation");
    net.len()
}

fn churn(topo: &Topology, seed: u64, opens_per_round: u64) {
    let hosts: Vec<HostId> = topo.host_ids().collect();
    let n = hosts.len() as u64;
    let switches = topo.num_switches() as u64;
    let mut net = FlowNet::new(topo, LINK);
    let mut rng = SimRng::new(seed);
    let mut next_id = 0u64;
    let mut drained_most = 0;
    for round in 0..ROUNDS {
        // Every fourth round opens nothing, so its solve follows only
        // completions and closes.
        if round % 4 != 1 {
            for _ in 0..1 + rng.below(opens_per_round) {
                let s = rng.below(n);
                let mut t = rng.below(n - 1);
                if t >= s {
                    t += 1;
                }
                let bytes = match rng.below(3) {
                    0 => 512,
                    1 => 8_192,
                    _ => 1 + rng.below(100_000),
                };
                net.open(next_id, hosts[s as usize], hosts[t as usize], bytes);
                next_id += rng.below(3) + 1;
            }
        }
        let live = solve_and_check(topo, &mut net, &format!("round {round} solve"));
        if round % 3 == 0 {
            solve_and_check(topo, &mut net, &format!("round {round} repeated solve"));
        }
        if round % 4 == 2 {
            let cut = SwitchId(u16::try_from(rng.below(switches)).unwrap());
            let closed = net.close_crossing(|s| s == cut);
            let after = solve_and_check(topo, &mut net, &format!("round {round} after close"));
            assert_eq!(after + closed.len(), live);
        }
        // Most rounds serve a short window that completes only the small
        // flows; every fifth serves 3 ms, which completes most of the table.
        let window = if round % 5 == 4 {
            3_000
        } else {
            10 + rng.below(30)
        };
        let before = net.len();
        let done = net.advance(SimDuration::from_us(window)).len();
        if 2 * done > before {
            drained_most += 1;
            solve_and_check(topo, &mut net, &format!("round {round} after draining"));
        }
    }
    assert!(drained_most >= 2, "the schedule drains most of the table");
    net.advance(SimDuration::from_ms(100));
    assert!(net.is_empty());
    solve_and_check(topo, &mut net, "empty");
}

#[test]
fn churned_net_solves_like_a_fresh_one_on_32_switches() {
    churn(&builders::irregular_big(32, 5), 0x32, 250);
}

#[test]
fn churned_net_solves_like_a_fresh_one_on_64_switches() {
    churn(&builders::irregular_big(64, 64), 0x64, 500);
}
