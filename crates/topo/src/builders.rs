//! Topology constructors: the paper's testbed and synthetic networks.

use crate::graph::Topology;
use crate::ids::{HostId, LinkId, PortKind, SwitchId};
use itb_sim::{narrow, SimRng};

/// Cable delay defaults. SAN cables are short (≈3 m), LAN cables long
/// (≈10 m); at ~5 ns/m these give the propagation delays below.
pub mod cable {
    use itb_sim::SimDuration;
    /// One-way delay of a SAN cable.
    pub const SAN: SimDuration = SimDuration::from_ns(15);
    /// One-way delay of a LAN cable.
    pub const LAN: SimDuration = SimDuration::from_ns(50);
}

/// Port layout of the M2FM-SW8 switch in the testbed: ports 0–3 SAN,
/// ports 4–7 LAN.
pub fn m2fm_sw8_ports() -> Vec<PortKind> {
    let mut v = vec![PortKind::San; 4];
    v.extend([PortKind::Lan; 4]);
    v
}

/// The paper's Figure 6 testbed, wired so both evaluation paths exist:
///
/// * **switch 0** (the paper's "switch 1"): `host1` (LAN NIC, M2L) on LAN
///   port 4, the in-transit host (LAN NIC, M2L) on LAN port 5; SAN cables
///   `cable_a` (port 0) and `cable_b` (port 1) to switch 1.
/// * **switch 1** (the paper's "switch 2"): `host2` (SAN NIC, M2M) on SAN
///   port 2; a LAN **loop cable** joining its ports 4 and 5 (the loop the
///   paper adds so the plain up\*/down\* path also crosses 5 switches).
///
/// The two measured paths (constructed in `itb-routing::figures`):
///
/// * UD (5 crossings): h1 → sw0 → A → sw1 → loop → sw1 → A′ → sw0 → B → sw1 → h2
/// * ITB (5 crossings): h1 → sw0 → A → sw1 → A′ → sw0 → *in-transit host* →
///   sw0 → B → sw1 → h2
///
/// Both traverse the same multiset of (input-kind, output-kind) port pairs,
/// mirroring the paper's care that switch latency differences cancel.
#[derive(Debug, Clone)]
pub struct Fig6Testbed {
    /// The wired topology.
    pub topo: Topology,
    /// Sender/receiver of the ping-pong (LAN NIC).
    pub host1: HostId,
    /// The other ping-pong end (SAN NIC).
    pub host2: HostId,
    /// The host used as in-transit buffer (LAN NIC).
    pub itb_host: HostId,
    /// First inter-switch SAN cable.
    pub cable_a: LinkId,
    /// Second inter-switch SAN cable.
    pub cable_b: LinkId,
    /// The loop cable on switch 1 (LAN ports 4–5).
    pub loop_cable: LinkId,
    /// Switch next to host1 and the in-transit host.
    pub sw0: SwitchId,
    /// Switch next to host2, carrying the loop cable.
    pub sw1: SwitchId,
}

/// Build the Figure 6 testbed.
///
/// ```
/// let tb = itb_topo::builders::fig6_testbed();
/// assert_eq!(tb.topo.num_switches(), 2);
/// assert_eq!(tb.topo.num_hosts(), 3);
/// assert!(tb.topo.link(tb.loop_cable).is_self_loop());
/// ```
pub fn fig6_testbed() -> Fig6Testbed {
    let mut t = Topology::new();
    let sw0 = t.add_switch(m2fm_sw8_ports());
    let sw1 = t.add_switch(m2fm_sw8_ports());
    let host1 = t.add_host(PortKind::Lan);
    let itb_host = t.add_host(PortKind::Lan);
    let host2 = t.add_host(PortKind::San);

    let cable_a = t
        .connect_switches(sw0, 0, sw1, 0, cable::SAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    let cable_b = t
        .connect_switches(sw0, 1, sw1, 1, cable::SAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    let loop_cable = t
        .connect_switches(sw1, 4, sw1, 5, cable::LAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    t.connect_host(host1, sw0, 4, cable::LAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    t.connect_host(itb_host, sw0, 5, cable::LAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    t.connect_host(host2, sw1, 2, cable::SAN)
        // detlint::allow(S001, the testbed wiring is static and in range)
        .expect("static wiring is in range");
    // detlint::allow(S001, validate re-checks the finished testbed graph)
    t.validate().expect("testbed wiring is static and valid");

    Fig6Testbed {
        topo: t,
        host1,
        host2,
        itb_host,
        cable_a,
        cable_b,
        loop_cable,
        sw0,
        sw1,
    }
}

/// A linear chain of `n` switches (SAN cabling) with `hosts_per_switch`
/// SAN-NIC hosts on each. Used by the multi-ITB ablation.
pub fn chain(n: usize, hosts_per_switch: usize) -> Topology {
    assert!(n >= 1);
    let ports = 2 + hosts_per_switch; // left, right, hosts
    let mut t = Topology::new();
    let switches: Vec<_> = (0..n).map(|_| t.add_switch_uniform(ports)).collect();
    for w in switches.windows(2) {
        t.connect_switches(w[0], 1, w[1], 0, cable::SAN)
            // detlint::allow(S001, chain wiring is static and in range)
            .expect("static wiring is in range");
    }
    for &s in &switches {
        for i in 0..hosts_per_switch {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, s, narrow(2 + i), cable::SAN)
                // detlint::allow(S001, chain wiring is static and in range)
                .expect("static wiring is in range");
        }
    }
    // detlint::allow(S001, validate re-checks the finished chain graph)
    t.validate().expect("chain wiring is valid");
    t
}

/// A ring of `n ≥ 3` switches with `hosts_per_switch` hosts each. Rings are
/// the smallest topologies where up\*/down\* forbids some minimal paths, so
/// they exercise the ITB planner with a predictable structure.
pub fn ring(n: usize, hosts_per_switch: usize) -> Topology {
    assert!(n >= 3);
    let ports = 2 + hosts_per_switch;
    let mut t = Topology::new();
    let switches: Vec<_> = (0..n).map(|_| t.add_switch_uniform(ports)).collect();
    for i in 0..n {
        let j = (i + 1) % n;
        t.connect_switches(switches[i], 1, switches[j], 0, cable::SAN)
            // detlint::allow(S001, ring wiring is static and in range)
            .expect("static wiring is in range");
    }
    for &s in &switches {
        for i in 0..hosts_per_switch {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, s, narrow(2 + i), cable::SAN)
                // detlint::allow(S001, ring wiring is static and in range)
                .expect("static wiring is in range");
        }
    }
    // detlint::allow(S001, validate re-checks the finished ring graph)
    t.validate().expect("ring wiring is valid");
    t
}

/// A three-tier `k`-ary fat tree (Clos folded onto itself), the canonical
/// scalable data-center fabric: `(k/2)²` core switches, `k` pods of `k/2`
/// aggregation plus `k/2` edge switches, and `k³/4` hosts (`k/2` per edge
/// switch). Every switch has exactly `k` ports. Entirely deterministic —
/// no RNG — so the same `k` always wires the identical topology.
///
/// Switch numbering: cores first (`(k/2)²`), then per pod its `k/2`
/// aggregation switches followed by its `k/2` edge switches. Core switch
/// `i·(k/2)+j` serves aggregation index `i` of every pod on its port `p`
/// (one per pod `p`); edge uplinks round-robin across the pod's
/// aggregation layer.
///
/// # Panics
/// Panics unless `k` is even and at least 2.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat tree arity must be even and >= 2"
    );
    let half = k / 2;
    let mut t = Topology::new();
    // Cores: (k/2)^2 switches with k ports, one per pod.
    let cores: Vec<_> = (0..half * half).map(|_| t.add_switch_uniform(k)).collect();
    // Pods: k/2 aggregation + k/2 edge switches each, k ports each.
    let mut aggs: Vec<Vec<SwitchId>> = Vec::with_capacity(k);
    let mut edges: Vec<Vec<SwitchId>> = Vec::with_capacity(k);
    for _pod in 0..k {
        aggs.push((0..half).map(|_| t.add_switch_uniform(k)).collect());
        edges.push((0..half).map(|_| t.add_switch_uniform(k)).collect());
    }
    for pod in 0..k {
        for (e, &edge) in edges[pod].iter().enumerate() {
            // Hosts on the edge switch's low ports.
            for p in 0..half {
                let h = t.add_host(PortKind::San);
                t.connect_host(h, edge, narrow(p), cable::SAN)
                    // detlint::allow(S001, fat-tree port accounting is static and in range)
                    .expect("static wiring is in range");
            }
            // Uplinks: edge port k/2+a to aggregation a's port e.
            for (a, &agg) in aggs[pod].iter().enumerate() {
                t.connect_switches(edge, narrow(half + a), agg, narrow(e), cable::SAN)
                    // detlint::allow(S001, fat-tree port accounting is static and in range)
                    .expect("static wiring is in range");
            }
        }
        // Aggregation a's uplinks: port k/2+j to core a*(k/2)+j, which
        // receives this pod on its port `pod`.
        for (a, &agg) in aggs[pod].iter().enumerate() {
            for j in 0..half {
                t.connect_switches(
                    agg,
                    narrow(half + j),
                    cores[a * half + j],
                    narrow(pod),
                    cable::SAN,
                )
                // detlint::allow(S001, fat-tree port accounting is static and in range)
                .expect("static wiring is in range");
            }
        }
    }
    // detlint::allow(S001, validate re-checks the finished fat-tree graph)
    t.validate().expect("fat-tree wiring is valid");
    t
}

/// A two-tier leaf–spine Clos: every leaf cables one uplink to every spine
/// (round-robin port assignment), hosts hang off the leaves. The flattened
/// building block of [`fat_tree`], parameterized independently so oversubscribed
/// (`spines < hosts_per_leaf`) and rearrangeably non-blocking
/// (`spines >= hosts_per_leaf`) fabrics are both one call away. Entirely
/// deterministic — no RNG.
///
/// Switch numbering: spines first, then leaves. Leaf `l` uses ports
/// `0..hosts_per_leaf` for hosts and port `hosts_per_leaf + s` for spine
/// `s`, which receives leaf `l` on its port `l`.
///
/// # Panics
/// Panics unless there are at least 2 leaves, 1 spine and 1 host per leaf.
pub fn clos(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Topology {
    assert!(leaves >= 2, "need at least two leaves");
    assert!(spines >= 1, "need at least one spine");
    assert!(hosts_per_leaf >= 1, "need at least one host per leaf");
    let mut t = Topology::new();
    let spine_ids: Vec<_> = (0..spines).map(|_| t.add_switch_uniform(leaves)).collect();
    let leaf_ports = hosts_per_leaf + spines;
    for l in 0..leaves {
        let leaf = t.add_switch_uniform(leaf_ports);
        for p in 0..hosts_per_leaf {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, leaf, narrow(p), cable::SAN)
                // detlint::allow(S001, leaf-spine port accounting is static and in range)
                .expect("static wiring is in range");
        }
        for (s, &spine) in spine_ids.iter().enumerate() {
            t.connect_switches(
                leaf,
                narrow(hosts_per_leaf + s),
                spine,
                narrow(l),
                cable::SAN,
            )
            // detlint::allow(S001, leaf-spine port accounting is static and in range)
            .expect("static wiring is in range");
        }
    }
    // detlint::allow(S001, validate re-checks the finished leaf-spine graph)
    t.validate().expect("leaf-spine wiring is valid");
    t
}

/// Canonical seed of the [`irregular1024`] planet-scale preset (recorded
/// like [`IRREGULAR64_SEED`]; deliberately equal to the deadlock audit's
/// fresh-fabric seed so the flow-engine benchmark exercises wiring the static
/// audit has already proven deadlock-free — but with the evaluation host
/// density, see [`irregular_big`]).
pub const IRREGULAR1024_SEED: u64 = 1024;

/// A big seeded irregular in the exact style of [`irregular64`]:
/// [`IrregularSpec::evaluation_default`] geometry (8-port switches, 4
/// hosts each) at an arbitrary switch count. The hybrid flow/packet
/// engine's scaling presets layer on this.
pub fn irregular_big(switches: usize, seed: u64) -> Topology {
    random_irregular(&IrregularSpec::evaluation_default(switches, seed))
}

/// The 1024-switch, 4096-host irregular preset used by the ledger's
/// `flows_1024sw` flow-engine workload: [`irregular_big`] at the recorded
/// [`IRREGULAR1024_SEED`].
pub fn irregular1024() -> Topology {
    irregular_big(1024, IRREGULAR1024_SEED)
}

/// Parameters for [`random_irregular`].
#[derive(Debug, Clone)]
pub struct IrregularSpec {
    /// Number of switches.
    pub switches: usize,
    /// Ports per switch (the evaluation papers use 8).
    pub ports_per_switch: usize,
    /// Hosts attached to every switch.
    pub hosts_per_switch: usize,
    /// Seed for the wiring RNG.
    pub seed: u64,
}

impl IrregularSpec {
    /// The configuration used by the motivation experiments: 8-port
    /// switches, 4 hosts each (leaving 4 ports for switch wiring), matching
    /// the simulation setup of the papers this one builds on.
    pub fn evaluation_default(switches: usize, seed: u64) -> Self {
        IrregularSpec {
            switches,
            ports_per_switch: 8,
            hosts_per_switch: 4,
            seed,
        }
    }
}

/// Canonical seed of the [`irregular64`] scaling preset, recorded so the
/// benchmark and any external reproduction build the identical wiring.
pub const IRREGULAR64_SEED: u64 = 64;

/// The 64-switch irregular evaluation network the deadlock audit checks:
/// [`IrregularSpec::evaluation_default`] geometry (8-port switches, 4 hosts
/// each → 256 hosts) built from a fixed, recorded seed. A preset rather
/// than an ad-hoc call site so every consumer — audit, tests, docs — means
/// the same reproducible topology.
pub fn irregular64() -> Topology {
    random_irregular(&IrregularSpec::evaluation_default(64, IRREGULAR64_SEED))
}

/// Generate a random irregular network in the style of the ITB evaluation
/// papers: hosts fill the first ports of each switch, then the remaining
/// ports are cabled switch-to-switch at random — first a random spanning
/// tree (guaranteeing connectivity), then extra random cables until ports
/// run out. No self-loops, at most one cable per switch pair.
pub fn random_irregular(spec: &IrregularSpec) -> Topology {
    assert!(spec.switches >= 2, "need at least two switches");
    assert!(
        spec.hosts_per_switch < spec.ports_per_switch,
        "no ports left for switch wiring"
    );
    let mut rng = SimRng::new(spec.seed);
    let mut t = Topology::new();
    let switches: Vec<_> = (0..spec.switches)
        .map(|_| t.add_switch_uniform(spec.ports_per_switch))
        .collect();

    // Hosts take the low ports.
    for &s in &switches {
        for i in 0..spec.hosts_per_switch {
            let h = t.add_host(PortKind::San);
            t.connect_host(h, s, narrow(i), cable::SAN)
                // detlint::allow(S001, generator port accounting keeps host ports free)
                .expect("generator keeps a port free");
        }
    }

    let mut free_ports: Vec<u8> =
        vec![narrow(spec.ports_per_switch - spec.hosts_per_switch); spec.switches];
    let mut next_port: Vec<u8> = vec![narrow(spec.hosts_per_switch); spec.switches];
    let mut linked = vec![vec![false; spec.switches]; spec.switches];
    let connect = |t: &mut Topology,
                   free_ports: &mut Vec<u8>,
                   next_port: &mut Vec<u8>,
                   a: usize,
                   b: usize| {
        let (pa, pb) = (next_port[a], next_port[b]);
        next_port[a] += 1;
        next_port[b] += 1;
        free_ports[a] -= 1;
        free_ports[b] -= 1;
        t.connect_switches(switches[a], pa, switches[b], pb, cable::SAN)
            // detlint::allow(S001, generator port accounting keeps switch ports free)
            .expect("generator keeps a port free");
    };

    // Random spanning tree: random join order, each new switch cabled to a
    // random already-connected switch that still has a free port.
    let mut order: Vec<usize> = (0..spec.switches).collect();
    rng.shuffle(&mut order);
    let mut connected = vec![order[0]];
    for &s in &order[1..] {
        let candidates: Vec<usize> = connected
            .iter()
            .copied()
            .filter(|&c| free_ports[c] > 0)
            .collect();
        let &target = rng
            .choose(&candidates)
            // detlint::allow(S001, the port budget check above guarantees a free port)
            .expect("spanning tree always has a free port given h+1 <= p");
        connect(&mut t, &mut free_ports, &mut next_port, s, target);
        linked[s][target] = true;
        linked[target][s] = true;
        connected.push(s);
    }

    // Extra random cables.
    let mut attempts = 0;
    let max_attempts = spec.switches * spec.switches * 8;
    loop {
        let open: Vec<usize> = (0..spec.switches).filter(|&s| free_ports[s] > 0).collect();
        if open.len() < 2 || attempts > max_attempts {
            break;
        }
        attempts += 1;
        // detlint::allow(S001, open has at least two entries inside this branch)
        let a = *rng.choose(&open).expect("open is non-empty");
        // detlint::allow(S001, open has at least two entries inside this branch)
        let b = *rng.choose(&open).expect("open is non-empty");
        if a == b || linked[a][b] {
            continue;
        }
        connect(&mut t, &mut free_ports, &mut next_port, a, b);
        linked[a][b] = true;
        linked[b][a] = true;
    }

    // detlint::allow(S001, the generator only adds cables between free ports)
    t.validate().expect("generator keeps the graph connected");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Node, PortIx};

    #[test]
    fn fig6_shape() {
        let tb = fig6_testbed();
        let t = &tb.topo;
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_hosts(), 3);
        // 3 switch cables (A, B, loop) + 3 host cables.
        assert_eq!(t.num_links(), 6);
        assert!(t.link(tb.loop_cable).is_self_loop());
        assert_eq!(t.host_attachment(tb.host1).0, tb.sw0);
        assert_eq!(t.host_attachment(tb.itb_host).0, tb.sw0);
        assert_eq!(t.host_attachment(tb.host2).0, tb.sw1);
        // NIC kinds match the M2L/M2M cards of the paper.
        assert_eq!(t.host_nic_kind(tb.host1), PortKind::Lan);
        assert_eq!(t.host_nic_kind(tb.itb_host), PortKind::Lan);
        assert_eq!(t.host_nic_kind(tb.host2), PortKind::San);
    }

    #[test]
    fn fig6_port_kinds() {
        let tb = fig6_testbed();
        let t = &tb.topo;
        // Loop cable occupies LAN ports.
        let loop_link = t.link(tb.loop_cable);
        assert_eq!(t.switch_port_kind(tb.sw1, loop_link.a.port), PortKind::Lan);
        assert_eq!(t.switch_port_kind(tb.sw1, loop_link.b.port), PortKind::Lan);
        // Inter-switch cables occupy SAN ports.
        for lid in [tb.cable_a, tb.cable_b] {
            let l = t.link(lid);
            assert_eq!(
                t.switch_port_kind(tb.sw0, l.a.port.min(l.b.port)),
                PortKind::San
            );
        }
    }

    #[test]
    fn chain_shape() {
        let t = chain(5, 2);
        assert_eq!(t.num_switches(), 5);
        assert_eq!(t.num_hosts(), 10);
        // 4 inter-switch + 10 host links.
        assert_eq!(t.num_links(), 14);
        // End switches have 1 switch neighbour, middles 2.
        assert_eq!(t.switch_neighbors(SwitchId(0)).count(), 1);
        assert_eq!(t.switch_neighbors(SwitchId(2)).count(), 2);
    }

    #[test]
    fn ring_shape() {
        let t = ring(6, 1);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_hosts(), 6);
        for s in t.switch_ids() {
            assert_eq!(t.switch_neighbors(s).count(), 2);
        }
    }

    #[test]
    fn irregular_is_connected_and_within_ports() {
        for seed in 0..20 {
            let spec = IrregularSpec::evaluation_default(16, seed);
            let t = random_irregular(&spec);
            t.validate().unwrap();
            assert_eq!(t.num_hosts(), 64);
            for s in t.switch_ids() {
                let used = t.switch_ports(s).filter(|(_, _, l)| l.is_some()).count();
                assert!(used <= 8);
                assert_eq!(t.hosts_at(s).len(), 4);
            }
        }
    }

    #[test]
    fn irregular64_preset_is_reproducible() {
        let a = irregular64();
        a.validate().unwrap();
        assert_eq!(a.num_switches(), 64);
        assert_eq!(a.num_hosts(), 256);
        // The preset is the recorded spec, nothing more.
        let b = random_irregular(&IrregularSpec::evaluation_default(64, IRREGULAR64_SEED));
        assert_eq!(a.num_links(), b.num_links());
        for lid in a.link_ids() {
            assert_eq!(a.link(lid).a, b.link(lid).a);
            assert_eq!(a.link(lid).b, b.link(lid).b);
        }
    }

    #[test]
    fn irregular_no_parallel_or_self_links() {
        let spec = IrregularSpec::evaluation_default(12, 99);
        let t = random_irregular(&spec);
        let mut seen = itb_sim::FxHashSet::default();
        for lid in t.link_ids() {
            let l = t.link(lid);
            if let (Node::Switch(a), Node::Switch(b)) = (l.a.node, l.b.node) {
                assert_ne!(a, b, "self loop generated");
                let key = (a.min(b), a.max(b));
                assert!(seen.insert(key), "parallel cable between {a} and {b}");
            }
        }
    }

    #[test]
    fn irregular_deterministic_per_seed() {
        let spec = IrregularSpec::evaluation_default(10, 7);
        let a = random_irregular(&spec);
        let b = random_irregular(&spec);
        assert_eq!(a.num_links(), b.num_links());
        for lid in a.link_ids() {
            assert_eq!(a.link(lid).a, b.link(lid).a);
            assert_eq!(a.link(lid).b, b.link(lid).b);
        }
    }

    #[test]
    fn irregular_seeds_differ() {
        let a = random_irregular(&IrregularSpec::evaluation_default(10, 1));
        let b = random_irregular(&IrregularSpec::evaluation_default(10, 2));
        let differs = a.num_links() != b.num_links()
            || a.link_ids()
                .any(|l| a.link(l).a != b.link(l).a || a.link(l).b != b.link(l).b);
        assert!(differs);
    }

    #[test]
    fn fat_tree_k4_shape() {
        let t = fat_tree(4);
        // (k/2)^2 = 4 cores + k pods * k switches = 4 + 16 = 20.
        assert_eq!(t.num_switches(), 20);
        assert_eq!(t.num_hosts(), 16); // k^3/4
        t.validate().unwrap();
        // Cores see k distinct aggregation neighbours.
        for c in 0..4u16 {
            assert_eq!(t.switch_neighbors(SwitchId(c)).count(), 4);
            assert!(t.hosts_at(SwitchId(c)).is_empty());
        }
        // Pod 0: switches 4,5 aggregation (no hosts), 6,7 edge (k/2 hosts).
        assert!(t.hosts_at(SwitchId(4)).is_empty());
        assert_eq!(t.hosts_at(SwitchId(6)).len(), 2);
        assert_eq!(t.switch_neighbors(SwitchId(4)).count(), 4);
        assert_eq!(t.switch_neighbors(SwitchId(6)).count(), 2);
    }

    #[test]
    fn clos_shape() {
        let t = clos(4, 2, 3);
        assert_eq!(t.num_switches(), 6); // 2 spines + 4 leaves
        assert_eq!(t.num_hosts(), 12);
        t.validate().unwrap();
        // Spines are 0..2: one neighbour per leaf, no hosts.
        assert_eq!(t.switch_neighbors(SwitchId(0)).count(), 4);
        assert!(t.hosts_at(SwitchId(0)).is_empty());
        // Leaves are 2..6: one neighbour per spine, 3 hosts.
        assert_eq!(t.switch_neighbors(SwitchId(2)).count(), 2);
        assert_eq!(t.hosts_at(SwitchId(2)).len(), 3);
    }

    #[test]
    fn irregular_big_matches_spec() {
        let a = irregular_big(12, 5);
        let b = random_irregular(&IrregularSpec::evaluation_default(12, 5));
        assert_eq!(a.num_links(), b.num_links());
        for lid in a.link_ids() {
            assert_eq!(a.link(lid).a, b.link(lid).a);
            assert_eq!(a.link(lid).b, b.link(lid).b);
        }
    }

    #[test]
    fn m2fm_layout() {
        let ports = m2fm_sw8_ports();
        assert_eq!(ports.len(), 8);
        assert!(ports[..4].iter().all(|&k| k == PortKind::San));
        assert!(ports[4..].iter().all(|&k| k == PortKind::Lan));
    }

    #[test]
    fn fig6_free_ports_remain() {
        // The testbed uses 4 ports on sw0 and 5 on sw1 of 8 each.
        let tb = fig6_testbed();
        let used0 = tb
            .topo
            .switch_ports(tb.sw0)
            .filter(|(_, _, l)| l.is_some())
            .count();
        let used1 = tb
            .topo
            .switch_ports(tb.sw1)
            .filter(|(_, _, l)| l.is_some())
            .count();
        assert_eq!(used0, 4);
        assert_eq!(used1, 5);
        let _ = PortIx(0);
    }
}
