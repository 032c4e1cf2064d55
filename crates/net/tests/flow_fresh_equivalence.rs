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
//!
//! A second schedule has the shape of the flow-only world's: every open
//! falls in the first rounds, after which rounds only complete and close
//! flows, so most solves resume from a late snapshot of the one before.

use itb_net::FlowNet;
use itb_sim::{SimDuration, SimRng};
use itb_topo::{builders, HostId, SwitchId, Topology};

const LINK: f64 = 0.16; // 160 MB/s in bytes/ns
const ROUNDS: u64 = 24;

/// Solve `net` and check it against a fresh net opened with its live
/// flows; returns the live flow count and the fresh net's hop updates,
/// those of a full solve.
fn solve_and_check(topo: &Topology, net: &mut FlowNet, what: &str) -> (usize, u64) {
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
    (net.len(), fresh.last_solve_hops())
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
        let (live, _) = solve_and_check(topo, &mut net, &format!("round {round} solve"));
        if round % 3 == 0 {
            solve_and_check(topo, &mut net, &format!("round {round} repeated solve"));
        }
        if round % 4 == 2 {
            let cut = SwitchId(u16::try_from(rng.below(switches)).unwrap());
            let closed = net.close_crossing(|s| s == cut);
            let (after, _) = solve_and_check(topo, &mut net, &format!("round {round} after close"));
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

/// The flow-only world's shape: over the first `OPEN_ROUNDS` rounds
/// every host opens `per_host` flows of `bytes` to seeded destinations,
/// then 1 ms rounds only complete flows, and every eighth also closes the
/// flows crossing one seeded switch. Returns the solves made.
fn open_then_drain(topo: &Topology, seed: u64, per_host: u64, bytes: u64) -> u64 {
    const OPEN_ROUNDS: u64 = 3;
    let hosts: Vec<HostId> = topo.host_ids().collect();
    let n = hosts.len() as u64;
    let switches = topo.num_switches() as u64;
    let mut net = FlowNet::new(topo, LINK);
    let mut rng = SimRng::new(seed);
    let (mut next_id, mut resumed, mut late) = (0u64, 0, 0);
    for round in 0.. {
        if round < OPEN_ROUNDS {
            for s in 0..n {
                for _ in 0..per_host / OPEN_ROUNDS + u64::from(round < per_host % OPEN_ROUNDS) {
                    let mut t = rng.below(n - 1);
                    if t >= s {
                        t += 1;
                    }
                    net.open(next_id, hosts[s as usize], hosts[t as usize], bytes);
                    next_id += 1;
                }
            }
        } else if round % 8 == 0 {
            let cut = SwitchId(u16::try_from(rng.below(switches)).unwrap());
            net.close_crossing(|s| s == cut);
        }
        if net.is_empty() {
            break;
        }
        let (_, full) = solve_and_check(topo, &mut net, &format!("seed {seed} round {round}"));
        if round > OPEN_ROUNDS {
            // No open since the last solve, so it may resume: count how
            // often it did, and how often from a late snapshot.
            let hops = net.last_solve_hops();
            assert!(hops <= full, "round {round}: {hops} of {full} hops");
            resumed += u64::from(hops < full);
            late += u64::from(4 * hops < full);
        }
        net.advance(SimDuration::from_ms(1));
    }
    let solves = net.solves();
    assert_eq!(next_id, per_host * n);
    assert!(
        2 * resumed > solves && 2 * late > resumed,
        "{solves} solves, {resumed} resumed, {late} from a late snapshot"
    );
    solves
}

#[test]
fn drained_net_resumes_like_a_fresh_one_on_128_switches() {
    let topo = builders::irregular_big(128, 128);
    assert!(open_then_drain(&topo, 0x128, 24, 65_536) > 20);
}

/// The `flows_1024sw` workload's shape at full size: ~200 solves, ~7 s
/// in a release build.
#[test]
#[ignore]
fn drained_net_resumes_like_a_fresh_one_on_1024_switches() {
    let topo = builders::irregular1024();
    let solves: u64 = [1, 2]
        .into_iter()
        .map(|seed| open_then_drain(&topo, seed, 24, 65_536))
        .sum();
    assert!(solves > 150, "{solves} solves");
}
