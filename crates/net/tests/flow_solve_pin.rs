//! Pins the flow solver's exact output on a seeded workload.
//!
//! A 32-switch irregular fabric carries ~2k flows of mixed sizes over 30
//! rounds of solve + advance, with early closes of every flow crossing a
//! rotating switch pair every few rounds. One FNV digest covers every
//! solve's `(id, ps_per_byte)` and per-channel allocation bits, every
//! completion `(id, offset)` and every closed flow's `(id, remaining)`.
//! The expected constant was computed once; any change to the max-min
//! solver's f64 operation order, the routes, the service arithmetic or
//! the close semantics moves it.

use itb_net::FlowNet;
use itb_sim::{Digest, SimDuration, SimRng};
use itb_topo::{builders, HostId, SwitchId};

const LINK: f64 = 0.16; // 160 MB/s in bytes/ns
const ROUNDS: u64 = 30;
const OPENS_PER_ROUND: u64 = 70;
const EXPECTED: u64 = 0xcf83_9f11_890e_3fae;

fn digest_rates(net: &FlowNet, d: &mut Digest) {
    d.usize(net.len());
    for (id, f) in net.iter() {
        d.u64(id);
        d.u64(f.interval.ps_per_byte());
    }
    for a in net.channel_allocation() {
        d.u64(a.to_bits());
    }
}

/// Close every live flow whose path crosses `cut`, in id order.
fn close_crossing(net: &mut FlowNet, cut: [SwitchId; 2], d: &mut Digest) {
    for (id, f) in net.close_crossing(|s| cut.contains(&s)) {
        d.u64(id);
        d.u64(f.remaining);
    }
}

fn run() -> u64 {
    let topo = builders::irregular_big(32, 5);
    let mut net = FlowNet::new(&topo, LINK);
    let hosts: Vec<HostId> = topo.host_ids().collect();
    let n = hosts.len() as u64;
    let mut rng = SimRng::new(0x5eed);
    let mut d = Digest::new();
    let window = SimDuration::from_us(40);
    let mut next_id = 0u64;
    for round in 0..ROUNDS {
        for _ in 0..OPENS_PER_ROUND {
            let s = rng.below(n);
            let mut t = rng.below(n - 1);
            if t >= s {
                t += 1;
            }
            let bytes = match rng.below(4) {
                0 => 256,
                1 => 4_096,
                2 => 32_768,
                _ => 1 + rng.below(200_000),
            };
            net.open(next_id, hosts[s as usize], hosts[t as usize], bytes);
            next_id += 1;
        }
        net.solve();
        digest_rates(&net, &mut d);
        if round % 5 == 2 {
            let r = round as u16;
            let cut = [SwitchId(r % 32), SwitchId((r * 7 + 3) % 32)];
            close_crossing(&mut net, cut, &mut d);
            net.solve();
            digest_rates(&net, &mut d);
        }
        for done in net.advance(window) {
            d.u64(done.id);
            d.u64(done.offset.as_ps());
        }
    }
    d.usize(net.len());
    d.u64(net.bytes_delivered());
    d.u64(net.solves());
    d.finish()
}

#[test]
fn solve_and_advance_match_the_pinned_digest() {
    let got = run();
    assert_eq!(got, EXPECTED, "got {got:#018x}");
}
