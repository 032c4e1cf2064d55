//! Static deadlock-freedom audit of every route set the repo ships.
//!
//! For each builder topology (the Figure 6 testbed, the seed-1 16/32/64-switch
//! irregular presets, the 64-switch evaluation network) plus a freshly
//! generated 1024-switch irregular fabric, this bin builds the up*/down*
//! and ITB route sets and checks the Dally & Seitz channel dependency
//! graph (`itb_routing::deadlock::ChannelDepGraph`) for cycles. Every
//! shipped route set must be acyclic. As the negative control, the
//! all-clockwise minimal ring routes — the exact configuration the paper
//! uses to motivate ITBs — must be flagged cyclic, and the witness cycle
//! is decoded and printed channel by channel; the same routes split at an
//! in-transit buffer must come back acyclic.
//!
//! This is the static complement of the PR 7 model checker: the checker
//! explores interleavings of one small scenario exhaustively, while this
//! audit proves the deadlock-freedom *precondition* (acyclic CDG) for the
//! full route sets of every topology the benchmarks actually run.
//!
//! Writes `results/deadlock_audit.json`; the artifact is deterministic and
//! CI byte-compares a double run. Exits nonzero if any expectation fails.

use itb_routing::deadlock::ChannelDepGraph;
use itb_routing::path::{Hop, Segment, SourceRoute};
use itb_routing::planner::{ItbHostSelection, ItbPlanner};
use itb_routing::table::{RouteTable, RoutingPolicy};
use itb_routing::updown::shortest_updown;
use itb_topo::builders::{fig6_testbed, irregular64, random_irregular, ring, IrregularSpec};
use itb_topo::{HostId, LinkId, SwitchId, Topology, UpDown};
use serde::Serialize;
use std::borrow::Borrow;

/// Seed for the fresh large fabric. Distinct from every seed the
/// benchmarks use, so this audit covers wiring no other gate has seen.
const FRESH_1024_SEED: u64 = 1024;

/// Per-source sample width on the 1024-switch fabric (all-pairs would be
/// ~1M routes per policy; the sampled set still touches every switch as a
/// source). The stride 127 is coprime to 1024, so the destination sets of
/// consecutive sources interleave across the whole fabric.
const SAMPLE_DESTS_PER_SOURCE: u16 = 8;
const SAMPLE_STRIDE: u16 = 127;

#[derive(Serialize)]
struct AuditRecord {
    name: String,
    policy: String,
    switches: usize,
    hosts: usize,
    links: usize,
    routes: usize,
    /// Ordered host pairs in the topology.
    pairs_total: usize,
    /// Pairs whose route this audit actually built. Equal to `pairs_total`
    /// everywhere except the sampled 1024-switch fabric — the truncation is
    /// recorded here, not hidden.
    pairs_audited: usize,
    cdg_channels: usize,
    cdg_edges: usize,
    acyclic: bool,
    expect_acyclic: bool,
    /// Decoded witness cycle (one entry per channel), present iff cyclic.
    witness_cycle: Option<Vec<String>>,
    ok: bool,
}

#[derive(Serialize)]
struct AuditReport {
    /// Dally & Seitz: a wormhole route set is deadlock-free iff its channel
    /// dependency graph is acyclic. ITB segment boundaries contribute no
    /// dependency edge, which is why segmented minimal routes pass.
    criterion: String,
    fresh_irregular_seed: u64,
    audits: Vec<AuditRecord>,
    all_expectations_met: bool,
}

/// Render one CDG channel index as `"link<N> <from> -> <to>"`.
fn decode_channel(topo: &Topology, chan: usize) -> String {
    let link = LinkId(u32::try_from(chan / 2).expect("link index fits u32"));
    let l = topo.link(link);
    let (from, to) = if chan.is_multiple_of(2) {
        (l.a, l.b)
    } else {
        (l.b, l.a)
    };
    format!("link{} {} -> {}", link.idx(), from.node, to.node)
}

fn audit(
    name: &str,
    policy: &str,
    topo: &Topology,
    routes: impl IntoIterator<Item = impl Borrow<SourceRoute>>,
    n_routes: usize,
    pairs_audited: usize,
    expect_acyclic: bool,
) -> AuditRecord {
    let cdg = ChannelDepGraph::build(topo, routes);
    let cycle = cdg.find_cycle();
    let acyclic = cycle.is_none();
    let witness = cycle.map(|c| {
        c.iter()
            .map(|&chan| decode_channel(topo, chan))
            .collect::<Vec<_>>()
    });
    let hosts = topo.num_hosts();
    let rec = AuditRecord {
        name: name.to_string(),
        policy: policy.to_string(),
        switches: topo.num_switches(),
        hosts,
        links: topo.num_links(),
        routes: n_routes,
        pairs_total: hosts * hosts.saturating_sub(1),
        pairs_audited,
        cdg_channels: topo.num_links() * 2,
        cdg_edges: cdg.edge_count(),
        acyclic,
        expect_acyclic,
        witness_cycle: witness,
        ok: acyclic == expect_acyclic,
    };
    let verdict = if rec.ok { "ok" } else { "FAIL" };
    println!(
        "[{verdict}] {name} / {policy}: {} routes over {} switches, {} CDG edges, {}",
        rec.routes,
        rec.switches,
        rec.cdg_edges,
        if acyclic { "acyclic" } else { "CYCLIC" },
    );
    if let Some(cycle) = &rec.witness_cycle {
        println!("       witness cycle ({} channels):", cycle.len());
        for ch in cycle {
            println!("         {ch}");
        }
    }
    rec
}

/// Audit both full all-pairs route tables of one topology.
fn audit_tables(name: &str, topo: &Topology, out: &mut Vec<AuditRecord>) {
    let ud = UpDown::compute_default(topo);
    let pairs = topo.num_hosts() * (topo.num_hosts() - 1);
    for (policy, label) in [
        (RoutingPolicy::UpDown, "updown"),
        (RoutingPolicy::Itb, "itb"),
    ] {
        let tbl = RouteTable::compute(topo, &ud, policy)
            .unwrap_or_else(|e| panic!("{name}: route table ({label}) failed: {e:?}"));
        let n = tbl.iter().count();
        out.push(audit(name, label, topo, tbl.iter(), n, pairs, true));
    }
}

/// Sampled audit of the fresh 1024-switch fabric: every host appears as a
/// source; destinations stride around the host space.
fn audit_fresh_1024(out: &mut Vec<AuditRecord>) {
    let spec = IrregularSpec {
        switches: 1024,
        ports_per_switch: 8,
        hosts_per_switch: 1,
        seed: FRESH_1024_SEED,
    };
    let topo = random_irregular(&spec);
    let n = u16::try_from(topo.num_hosts()).expect("1024 hosts fit u16");
    let ud = UpDown::compute_default(&topo);
    let pairs: Vec<(HostId, HostId)> = (0..n)
        .flat_map(|src| {
            (1..=SAMPLE_DESTS_PER_SOURCE)
                .map(move |k| (HostId(src), HostId((src + k * SAMPLE_STRIDE) % n)))
        })
        .collect();

    let mut planner = ItbPlanner::new(ItbHostSelection::RoundRobin);
    let itb_routes: Vec<SourceRoute> = pairs
        .iter()
        .map(|&(s, d)| {
            planner
                .route(&topo, &ud, s, d)
                .unwrap_or_else(|e| panic!("fresh1024 itb route {s:?}->{d:?}: {e:?}"))
        })
        .collect();
    let ud_routes: Vec<SourceRoute> = pairs
        .iter()
        .map(|&(s, d)| {
            shortest_updown(&topo, &ud, s, d)
                .unwrap_or_else(|| panic!("fresh1024 updown route {s:?}->{d:?}: unreachable"))
        })
        .collect();
    for (label, routes) in [("updown", &ud_routes), ("itb", &itb_routes)] {
        out.push(audit(
            "fresh_irregular1024",
            label,
            &topo,
            routes.iter(),
            routes.len(),
            pairs.len(),
            true,
        ));
    }
}

/// The negative control: all-clockwise minimal routes on a ring — the
/// canonical CDG cycle — and the same routes cut at a midpoint ITB.
fn audit_ring_controls(out: &mut Vec<AuditRecord>) {
    const N: u16 = 8;
    let topo = ring(usize::from(N), 1);
    // Host i attaches to switch i at port 2; clockwise exit is port 1.
    let hops = |from: u16, to: u16| {
        let mut hops = Vec::new();
        let mut s = from;
        while s != to {
            hops.push(Hop::new(SwitchId(s), 1));
            s = (s + 1) % N;
        }
        hops.push(Hop::new(SwitchId(to), 2));
        hops
    };
    // Half-way clockwise routes from every host: together they hold every
    // clockwise channel and close the dependency ring.
    let minimal: Vec<SourceRoute> = (0..N)
        .map(|a| SourceRoute::direct(HostId(a), HostId((a + N / 2) % N), hops(a, (a + N / 2) % N)))
        .collect();
    // The same journeys split at every intermediate host: each ITB ejects
    // the packet, so no segment holds two inter-switch links at once and
    // the link-to-link dependency chain never forms.
    let split: Vec<SourceRoute> = (0..N)
        .map(|a| {
            let b = (a + N / 2) % N;
            let segments = (0..N / 2)
                .map(|k| {
                    let (from, to) = ((a + k) % N, (a + k + 1) % N);
                    Segment {
                        from: HostId(from),
                        to: HostId(to),
                        hops: hops(from, to),
                    }
                })
                .collect();
            SourceRoute {
                src: HostId(a),
                dst: HostId(b),
                segments,
            }
        })
        .collect();
    for routes in [&minimal, &split] {
        for r in routes {
            assert!(r.is_well_formed(&topo), "hand-built ring route is miswired");
        }
    }
    let n = minimal.len();
    out.push(audit(
        "ring8_minimal_clockwise",
        "minimal",
        &topo,
        minimal.iter(),
        n,
        n,
        false,
    ));
    out.push(audit(
        "ring8_minimal_itb_split",
        "minimal+itb",
        &topo,
        split.iter(),
        n,
        n,
        true,
    ));
}

fn main() {
    let mut audits = Vec::new();

    audit_tables("fig6_testbed", &fig6_testbed().topo, &mut audits);
    for switches in [16usize, 32, 64] {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, 1));
        audit_tables(&format!("gauntlet_irregular{switches}"), &topo, &mut audits);
    }
    audit_tables("irregular64_evaluation", &irregular64(), &mut audits);
    audit_fresh_1024(&mut audits);
    audit_ring_controls(&mut audits);

    let all_ok = audits.iter().all(|a| a.ok);
    let report = AuditReport {
        criterion: "Dally & Seitz: deadlock-free iff the channel dependency graph is acyclic; \
                    ITB segment boundaries contribute no dependency edge"
            .to_string(),
        fresh_irregular_seed: FRESH_1024_SEED,
        audits,
        all_expectations_met: all_ok,
    };
    itb_bench::dump_json("deadlock_audit", &report);
    if !all_ok {
        eprintln!("deadlock_audit: expectation violated (see records above)");
        std::process::exit(1);
    }
    println!("deadlock_audit: every expectation met");
}
