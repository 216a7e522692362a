//! `vab-net` determinism regressions and capture-model properties.
//!
//! The headline guarantees: FN1/FN2/FN3 CSVs are bit-identical whatever
//! the worker-pool width, because every pool task inside a deployment
//! (build chunks, route cells, inventory classes) is seed-pure and its
//! results are merged in a fixed order; and the ocean tier's
//! horizon-culled interference sinks are bit-identical to the pairwise
//! oracle over the in-horizon sources.

use std::sync::Arc;

use proptest::prelude::*;
use vab::net::scale::REUSE_GRID;
use vab::net::{
    jain_fairness, pairwise_interference_lin, run_deployment, run_scale_deployment, sinr_db,
    CaptureModel, NetEnv, Network, NetworkSpec, PointSource, RoutePolicy, ScaleSpec, Topology,
};
use vab::svc::ResultCache;
use vab::util::hash::fnv1a64;
use vab::util::threads::set_jobs;
use vab_bench::network::{fn1_with_cache, fn2_with_cache, fn3_with_cache};
use vab_bench::ExpConfig;

fn quick() -> ExpConfig {
    ExpConfig { trials: 4, bits: 64, seed: 2023 }
}

#[test]
fn fn1_fn2_csvs_are_identical_across_pool_widths() {
    // Fresh caches per width so every run actually computes its topologies.
    set_jobs(1);
    let fn1_serial = fn1_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    let fn2_serial = fn2_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    set_jobs(8);
    let fn1_wide = fn1_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    let fn2_wide = fn2_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    set_jobs(0);
    assert_eq!(fn1_serial, fn1_wide, "FN1 must not depend on worker count");
    assert_eq!(fn2_serial, fn2_wide, "FN2 must not depend on worker count");
}

#[test]
fn fn3_csv_is_identical_across_pool_widths() {
    set_jobs(1);
    let serial = fn3_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    for jobs in [2, 8] {
        set_jobs(jobs);
        let wide = fn3_with_cache(&quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
        set_jobs(0);
        assert_eq!(serial, wide, "FN3 must not depend on worker count ({jobs} jobs)");
    }
}

/// FN1 physics must survive the scale-tier refactor untouched: the quick
/// CSV is pinned byte-for-byte against a fixture generated *before* the
/// grid/route/scale layers landed. Regenerate only for a deliberate
/// physics change (see `EXPERIMENTS.md`).
#[test]
fn fn1_quick_csv_matches_the_pre_scale_golden() {
    // The fixture was generated at `ExpConfig::quick()` fidelity.
    let csv = fn1_with_cache(&ExpConfig::quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    let golden = include_str!("fixtures/fn1_quick_golden.csv");
    assert_eq!(csv, golden, "FN1 quick CSV drifted from the pre-scale-tier golden fixture");
}

/// FN2 quick CSV, pinned byte-for-byte against the bytes the two-engine
/// network stack produced before the paper tier folded onto the shared
/// cell engine. Regenerate only for a deliberate physics change.
#[test]
fn fn2_quick_csv_matches_the_golden() {
    let csv = fn2_with_cache(&ExpConfig::quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    let golden = include_str!("fixtures/fn2_quick_golden.csv");
    assert_eq!(csv, golden, "FN2 quick CSV drifted from the golden fixture");
}

/// FN3 quick CSV (up to 65,536 nodes), pinned the same way as FN2.
#[test]
fn fn3_quick_csv_matches_the_golden() {
    let csv = fn3_with_cache(&ExpConfig::quick(), Arc::new(ResultCache::in_memory(64))).to_csv();
    let golden = include_str!("fixtures/fn3_quick_golden.csv");
    assert_eq!(csv, golden, "FN3 quick CSV drifted from the golden fixture");
}

/// Pre-widening topology specs keep their content addresses and reports:
/// widening `Addr` to `u32` and removing the 256-node cap must not move
/// a single byte of the historical ≤256-node results.
#[test]
fn pre_widening_specs_keep_digests_and_reports() {
    for (spec, want) in [
        (NetworkSpec::river(16, 7), 0x436e_9d3f_90f5_ac92_u64),
        (NetworkSpec::river(64, 42), 0x0804_b87c_305c_d0b2),
        (NetworkSpec::river(256, 2023), 0x5549_5bbb_49e3_1ffc),
    ] {
        assert_eq!(
            spec.digest(),
            want,
            "digest of river({}, {}) moved — placement or canonical form changed",
            spec.n_nodes,
            spec.seed
        );
    }
    let report = run_deployment(&NetworkSpec::river(64, 42)).to_json().render();
    assert_eq!(
        fnv1a64(report.as_bytes()),
        0x1945_7140_5e6d_7ed6,
        "river(64, 42) deployment report drifted from the pre-scale-tier bytes"
    );
    // An ocean environment and a densely packed box exercise the
    // link-budget channels away from the canonical river volume.
    let mut ocean = NetworkSpec::river(48, 11);
    ocean.env = NetEnv::Ocean { sea_state: 2 };
    let mut dense = NetworkSpec::river(96, 5);
    dense.volume = dense.volume.scaled(0.25);
    for (spec, want) in [(ocean, 0x9a80_22bd_885a_62c0_u64), (dense, 0x4cb7_3fdf_4270_03fb)] {
        let report = run_deployment(&spec).to_json().render();
        assert_eq!(fnv1a64(report.as_bytes()), want, "report of {} drifted", spec.canonical());
    }
    // Ocean-plan reports under the two non-default routing policies (the
    // benchmark golden pins VBF).
    for (policy, want) in [
        (RoutePolicy::Direct, 0x926c_c449_a023_534c_u64),
        (RoutePolicy::ClusterHead, 0xbe17_2fe3_7acd_90c4),
    ] {
        let mut spec = ScaleSpec::ocean(4096, 2023);
        spec.policy = policy;
        let report = run_scale_deployment(&spec).to_json().render();
        assert_eq!(
            fnv1a64(report.as_bytes()),
            want,
            "ocean(4096, 2023) report under {} drifted",
            policy.as_str()
        );
    }
}

/// Whole ocean-tier reports, pinned before inventory rounds stopped
/// visiting idle slots: the round and the slot resolver are bit-exact
/// rewrites, so every byte of these reports must survive them.
#[test]
fn ocean_report_digests_are_pinned() {
    for (n, seed, want) in [
        (4_096, 2023, 0x7282_489d_b90b_1247_u64),
        (4_096, 7, 0xb7b5_9e6e_f449_3148),
        (4_096, 99, 0xd363_d3f3_72f4_166f),
        (10_000, 2023, 0x9e41_4212_ab3d_2033),
        (10_000, 7, 0x9c15_06bb_cc08_2260),
        (10_000, 99, 0x62af_4bde_44b1_5757),
    ] {
        let report = run_scale_deployment(&ScaleSpec::ocean(n, seed)).to_json().render();
        assert_eq!(fnv1a64(report.as_bytes()), want, "ocean({n}, {seed}) report drifted");
    }
}

/// Whether any node of the plan has a co-channel interference sink.
fn has_sinks(net: &Network) -> bool {
    net.nodes.iter().any(|n| !net.sinks_of(n.addr).is_empty())
}

/// fnv1a64 digests of a built plan's node table (every `NodeChannel`
/// field's bits, in address order), cell lists (every cell's length and
/// members), sinks (every victim and every power bit, in node then reader
/// order) and routes (relays plus the delivery probability's bits), and
/// of one inventory's `discovered` order.
fn plan_digests(spec: &ScaleSpec) -> [u64; 5] {
    let net = Network::build(spec);
    assert!(has_sinks(&net), "the plan must have co-channel sinks");
    let mut nodes = Vec::new();
    for n in &net.nodes {
        nodes.extend_from_slice(&n.addr.to_le_bytes());
        for v in [n.pos.x, n.pos.y, n.pos.z] {
            nodes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        nodes.extend_from_slice(&n.cell.to_le_bytes());
        for v in [n.d_reader_m, n.reply_db_at_1m, n.rx_reader_lin, n.direct_success] {
            nodes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let mut members = Vec::new();
    for cell in &net.cell_members {
        members.extend_from_slice(&(cell.len() as u32).to_le_bytes());
        for &a in cell {
            members.extend_from_slice(&a.to_le_bytes());
        }
    }
    let mut sinks = Vec::new();
    for node_sinks in net.nodes.iter().map(|n| net.sinks_of(n.addr)) {
        sinks.extend_from_slice(&(node_sinks.len() as u32).to_le_bytes());
        for &(victim, rx) in node_sinks {
            sinks.extend_from_slice(&victim.to_le_bytes());
            sinks.extend_from_slice(&rx.to_bits().to_le_bytes());
        }
    }
    let mut routes = Vec::new();
    for route in &net.routes {
        routes.extend_from_slice(&(route.relays.len() as u32).to_le_bytes());
        for &relay in &route.relays {
            routes.extend_from_slice(&relay.to_le_bytes());
        }
        routes.extend_from_slice(&route.delivery_prob.to_bits().to_le_bytes());
    }
    let order: Vec<u8> =
        net.run_inventory().discovered.iter().flat_map(|a| a.to_le_bytes()).collect();
    [nodes, members, sinks, routes, order].map(|bytes| fnv1a64(&bytes))
}

/// The 20,736-node ocean plan is the smallest canonical deployment with
/// co-channel interference (144 readers on a 64-channel reuse plan), so
/// it pins the node table, the cell lists, the sinks, the VBF routes and
/// the inventory's discovery order bit for bit — at every worker count.
#[test]
fn ocean_20k_sinks_routes_and_discovery_order_are_pinned() {
    let spec = ScaleSpec::ocean(20_736, 2023);
    let pinned = [
        ("node table", 0x7daa_7728_f07e_da47),
        ("cell lists", 0x1cde_912d_2366_8e07),
        ("sinks", 0xf6e0_1802_2dfa_ef01),
        ("routes", 0x8808_938f_ea74_4a39),
        ("order", 0x3eb1_df73_9a61_8962),
    ];
    for jobs in [1, 2, 8] {
        set_jobs(jobs);
        let digests = plan_digests(&spec);
        set_jobs(0);
        for ((what, want), got) in pinned.iter().zip(digests) {
            assert_eq!(got, *want, "ocean(20736, 2023) {what} drifted at {jobs} jobs");
        }
    }
}

/// Each reader's round-0 duty-cycle interference floor, in closed form:
/// `Σ_src duty_src · Σ_{a ∈ src} rx(a → reader)` over the foreign cells,
/// where a cell's round-0 duty is `1/w` for its opening ALOHA window
/// `w = clamp(next_pow2(members), 4, max_window)`.
fn round0_floors(net: &Network) -> Vec<f64> {
    let r = net.readers.len();
    let mut energy = vec![0.0f64; r * r];
    for node in &net.nodes {
        for &(victim, rx) in net.sinks_of(node.addr) {
            energy[victim as usize * r + node.cell as usize] += rx;
        }
    }
    let duty = |c: usize| {
        let members = net.cell_members[c].len();
        if members == 0 {
            0.0
        } else {
            1.0 / members.next_power_of_two().clamp(4, net.max_window) as f64
        }
    };
    (0..r)
        .map(|c| (0..r).filter(|&src| src != c).map(|src| duty(src) * energy[c * r + src]).sum())
        .collect()
}

/// With at most 64 readers every FDM colour of the 8 × 8 reuse plan is
/// used once, so no node has a co-channel foreign reader: every sink list
/// is empty and every reader's round-0 floor is exactly zero. The first
/// canonical size past the 64-reader boundary (20,736 nodes, 144 readers)
/// has sinks and a positive floor, so the pin sits on the boundary.
#[test]
fn interference_floors_are_exactly_zero_below_sixty_five_readers() {
    for n in [256, 1_024, 4_096] {
        let net = Network::build(&ScaleSpec::ocean(n, 2023));
        assert!(net.readers.len() <= 64, "ocean({n}) has {} readers", net.readers.len());
        assert!(!has_sinks(&net), "ocean({n}) has co-channel sinks");
        for (c, floor) in round0_floors(&net).into_iter().enumerate() {
            assert_eq!(floor.to_bits(), 0.0f64.to_bits(), "ocean({n}) reader {c} floor {floor}");
        }
    }
    let net = Network::build(&ScaleSpec::ocean(20_736, 2023));
    assert_eq!(net.readers.len(), 144);
    assert!(has_sinks(&net), "ocean(20736) must have co-channel sinks");
    assert!(round0_floors(&net).iter().any(|&f| f > 0.0), "ocean(20736) must have a floor");
}

/// The production interference path is the oracle's path: each reader's
/// sinks, summed in ascending address order, are bit-identical to the
/// pairwise reference over that reader's co-channel foreign nodes within
/// the horizon — whether the horizon covers the box or production culls
/// some or all of those nodes.
#[test]
fn production_sinks_match_the_pairwise_oracle_inside_and_past_the_horizon() {
    // A 10 × 10 reader grid, so the 8 × 8 reuse plan has co-channel
    // pairs (8 reader spacings apart). The horizon follows the loudest
    // reply and shrinks as the plan stretches: 10.9 km over the 300 m
    // box, which it covers; 4.8 km at 6 km, where co-channel cells
    // straddle it; 2.3 km at 40 km, where they lie wholly past it.
    for (box_m, past) in [(300.0, "none"), (6_000.0, "some"), (40_000.0, "all")] {
        let spec =
            ScaleSpec { n_readers: 100, x_m: box_m, y_m: box_m, ..ScaleSpec::ocean(600, 17) };
        let net = Network::build(&spec);
        let depth = net.phy.env.depth.value();
        let diagonal = (spec.x_m.powi(2) + spec.y_m.powi(2) + depth.powi(2)).sqrt();
        let g = 10;
        let channel = |r: usize| (r % g % REUSE_GRID) + REUSE_GRID * (r / g % REUSE_GRID);
        let (mut co_channel, mut culled) = (0, 0);
        for (c, reader) in net.readers.iter().enumerate() {
            let mut production = 0.0;
            let mut sources = Vec::new();
            for node in &net.nodes {
                for &(victim, rx) in net.sinks_of(node.addr) {
                    if victim as usize == c {
                        production += rx;
                    }
                }
                let cell = node.cell as usize;
                if cell == c || channel(cell) != channel(c) {
                    continue;
                }
                co_channel += 1;
                if node.pos.distance_to(reader).value() > net.horizon_m {
                    culled += 1;
                    continue;
                }
                sources.push(PointSource {
                    addr: node.addr,
                    pos: node.pos,
                    level_db_at_1m: node.reply_db_at_1m,
                });
            }
            let oracle =
                pairwise_interference_lin(&net.phy.env, net.phy.carrier, &sources, *reader);
            assert_eq!(
                production.to_bits(),
                oracle.to_bits(),
                "{box_m} m box, reader {c}: sinks drifted from the oracle"
            );
        }
        assert!(co_channel > 0, "{box_m} m box: the plan must have co-channel interference");
        let expected = match past {
            "none" => culled == 0 && net.horizon_m >= diagonal,
            "some" => culled > 0 && culled < co_channel,
            _ => culled == co_channel,
        };
        assert!(
            expected,
            "{box_m} m box: {culled} of {co_channel} co-channel nodes lie past the {} m \
             horizon, expected {past}",
            net.horizon_m
        );
    }
}

/// The BENCH target for FN3's dominant point: one 65,536-node ocean
/// deployment (build, inventory and steady state) on one worker costs at
/// most 0.35 s, best of three. On a shared 2-core AVX-512 host, 17
/// repeats of the engine whose rounds visit only occupied slots read
/// 0.197–0.295 s; the engine that resolved every slot read 0.298–0.425 s
/// over 5 repeats alternated with them. Gated behind `VAB_BENCH=1` like
/// the other wall-clock gates; run it `--release` (see `SCALING.md` §6
/// for measured numbers).
#[test]
fn ocean_65k_deployment_meets_the_bench_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the 65k deployment gate");
        return;
    }
    use std::time::Instant;
    let spec = ScaleSpec::ocean(65_536, 2023);
    set_jobs(1);
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            let report = run_scale_deployment(&spec);
            let wall = t.elapsed().as_secs_f64();
            assert!(report.inventory.coverage() > 0.9, "coverage {}", report.inventory.coverage());
            wall
        })
        .fold(f64::INFINITY, f64::min);
    set_jobs(0);
    eprintln!("ocean(65536) deployment on one worker: best of 3 {best:.3} s");
    assert!(best <= 0.35, "need <= 0.35 s, measured {best:.3} s");
}

/// The BENCH target for the pooled build: `Network::build` of the
/// 65,536-node ocean plan on two workers costs at most 0.75× its
/// one-worker wall, best of five each (alternated). Gated behind
/// `VAB_BENCH=1` like the other wall-clock gates; run it `--release`. It
/// skips on a one-core host, where two workers cannot run at once.
#[test]
fn ocean_65k_build_meets_the_parallel_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the 65k build gate");
        return;
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: the 65k build gate needs two cores");
        return;
    }
    use std::time::Instant;
    let spec = ScaleSpec::ocean(65_536, 2023);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (jobs, best) in [1, 2].into_iter().zip(&mut best) {
            set_jobs(jobs);
            let t = Instant::now();
            let net = Network::build(&spec);
            *best = best.min(t.elapsed().as_secs_f64());
            drop(net);
        }
    }
    set_jobs(0);
    let [one, two] = best;
    let ratio = two / one;
    eprintln!(
        "ocean(65536) build, best of 5: 1 worker {one:.4} s, 2 workers {two:.4} s ({ratio:.2}×)"
    );
    assert!(ratio <= 0.75, "need <= 0.75× the one-worker build, measured {ratio:.2}×");
}

#[test]
fn topology_digest_pins_placement() {
    let spec = NetworkSpec::river(32, 7);
    let again = NetworkSpec::river(32, 7);
    assert_eq!(spec.digest(), again.digest());
    let a = Topology::generate(&spec);
    let b = Topology::generate(&again);
    assert_eq!(a.nodes.len(), b.nodes.len());
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.addr, y.addr);
        assert_eq!(x.pos, y.pos);
    }
    // A different seed is a different address.
    assert_ne!(spec.digest(), NetworkSpec::river(32, 8).digest());
}

proptest! {
    // The capture winner is always the strongest respondent, and moving
    // any respondent closer (raising its power) can only improve its own
    // SINR — capture is monotone in received power, hence in range.
    #[test]
    fn capture_prefers_the_strongest_and_is_monotone(
        powers in prop::collection::vec(1e-12f64..1e-3, 2..8),
        noise in 1e-13f64..1e-6,
        boost in 1.5f64..100.0,
    ) {
        let model = CaptureModel::default();
        let replies: Vec<(u32, f64)> =
            powers.iter().enumerate().map(|(i, &p)| (i as u32, p)).collect();
        if let Some((winner, _)) = model.capture_candidate(&replies, noise) {
            let strongest = replies
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(a, _)| a)
                .unwrap();
            prop_assert_eq!(winner, strongest);
        }

        // Monotonicity: boosting the strongest reply's power (the node
        // moving closer to the reader) never lowers its SINR.
        let idx = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let interference: f64 =
            powers.iter().enumerate().filter(|&(i, _)| i != idx).map(|(_, &p)| p).sum();
        let before = sinr_db(powers[idx], interference, noise);
        let after = sinr_db(powers[idx] * boost, interference, noise);
        prop_assert!(after >= before);
    }

    // Jain's index stays in (0, 1] for any non-negative allocation, and
    // hits exactly 1 for perfectly equal shares.
    #[test]
    fn jain_fairness_is_bounded(
        xs in prop::collection::vec(0.0f64..1e6, 0..64),
        equal in 1e-6f64..1e6,
        n in 1usize..64,
    ) {
        let j = jain_fairness(&xs);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain out of range: {j}");
        let uniform = vec![equal; n];
        prop_assert!((jain_fairness(&uniform) - 1.0).abs() < 1e-9);
    }
}
