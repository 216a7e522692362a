//! The link-budget constructor: the paper tier's one-reader cell plan,
//! with each placed node's channel derived from `vab-acoustics`/`vab-sim`.
//!
//! A deployment is just many single-link scenarios sharing one
//! environment: node `i`'s budget comes from the exact sonar-equation
//! path the Monte Carlo engine uses ([`vab_sim::linkbudget::LinkBudget`]),
//! and its fading from the same image-method channel realization
//! ([`vab_sim::montecarlo::fading_delta_db`]). What is new here is only
//! the *linear-power* view of each node at the hydrophone, which is what
//! superposition and SINR capture need.

use vab_mac::Addr;
use vab_sim::baseline::SystemKind;
use vab_sim::linkbudget::LinkBudget;
use vab_sim::montecarlo::fading_delta_db;
use vab_sim::scenario::Scenario;
use vab_util::db::db_to_lin_pow;
use vab_util::rng::{derive_seed, seeded};
use vab_util::units::Meters;

use crate::capture::CaptureModel;
use crate::network::{NetPhy, Network, NodeChannel};
use crate::route::RelayRoute;
use crate::topology::{NetworkSpec, NodeSite, Topology};

/// Per-purpose seed stream for fading realizations (one sub-stream per
/// node address on top of it).
const STREAM_FADING: u64 = 0xFAD0;
const STREAM_CONTENTION: u64 = 0xA10A;
const STREAM_DECODE: u64 = 0xDEC0;

/// ALOHA window ceiling of the one-reader plan (the classic 256 slots).
pub const MAX_WINDOW: usize = 256;
/// Contention rounds after which the one-reader plan's inventory gives up.
pub const MAX_INVENTORY_ROUNDS: u32 = 200;

/// Builds the `vab-sim` scenario for one placed node: the canonical
/// reader/PHY parameters with this deployment's environment and the
/// node's own position and orientation.
fn scenario_for_node(spec: &NetworkSpec, topology: &Topology, site: &NodeSite) -> Scenario {
    let system = SystemKind::Vab { n_pairs: spec.n_pairs };
    let mut s = Scenario::river(system, Meters(1.0));
    s.env = spec.env.environment();
    s.reader_pos = topology.reader;
    s.node_pos = site.pos;
    s.node_rotation = site.rotation;
    s
}

impl Network {
    /// The link-budget constructor: places `spec`'s nodes around its one
    /// reader and derives every node's channel from its own link budget
    /// plus an image-method fading realization. The plan has one cell,
    /// direct routes and no foreign readers, so no interference sinks.
    ///
    /// Deterministic: node `addr`'s fading stream is
    /// `derive_seed(derive_seed(seed, STREAM_FADING), addr)`, so channels
    /// do not depend on derivation order or thread count.
    pub fn build_link_budget(spec: &NetworkSpec) -> Self {
        let _t = vab_obs::time_stage("net.build");
        let topology = Topology::generate(spec);
        // The front end only depends on system + carrier, shared by all
        // nodes and the PHY constants.
        let fe = scenario_for_node(spec, &topology, &topology.nodes[0]).front_end();
        let phy = NetPhy::with_front_end(spec.env, &fe);

        let stage = vab_obs::time_stage("net.channels");
        let fading_master = derive_seed(spec.seed, STREAM_FADING);
        let nodes: Vec<NodeChannel> = topology
            .nodes
            .iter()
            .map(|site| {
                let scenario = scenario_for_node(spec, &topology, site);
                let lb = LinkBudget::compute_with_front_end(&scenario, &fe);
                let mut rng = seeded(derive_seed(fading_master, site.addr as u64));
                let fading_db = fading_delta_db(&scenario, &mut rng);
                let received_level_db = lb.received_level_db + fading_db;
                let ebn0_db = lb.ebn0_db + fading_db;
                let d = scenario.range().value();
                vab_obs::event!(
                    "net.channel",
                    "node_channel",
                    addr = site.addr,
                    range_m = d,
                    ebn0_db = ebn0_db,
                );
                NodeChannel {
                    addr: site.addr,
                    pos: site.pos,
                    cell: 0,
                    d_reader_m: d,
                    reply_db_at_1m: received_level_db + phy.tl_db(d),
                    rx_reader_lin: db_to_lin_pow(received_level_db),
                    direct_success: phy.frame_success(db_to_lin_pow(ebn0_db)),
                }
            })
            .collect();
        drop(stage);

        let routes = nodes
            .iter()
            .map(|n| RelayRoute {
                addr: n.addr,
                relays: Vec::new(),
                delivery_prob: n.direct_success,
            })
            .collect();
        Self {
            noise_lin: db_to_lin_pow(phy.noise_reader_db),
            phy,
            seed: spec.seed,
            readers: vec![topology.reader],
            cell_members: vec![(0..nodes.len() as Addr).collect()],
            routes,
            horizon_m: 0.0,
            sink_offsets: vec![0; nodes.len() + 1],
            sinks: Vec::new(),
            max_range_m: topology.max_range_m,
            capture: CaptureModel::default(),
            cell_seeds: vec![(
                derive_seed(spec.seed, STREAM_CONTENTION),
                derive_seed(spec.seed, STREAM_DECODE),
            )],
            max_window: MAX_WINDOW,
            max_rounds: MAX_INVENTORY_ROUNDS,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NetEnv, NetworkSpec};

    #[test]
    fn channels_are_deterministic_and_consistent() {
        let spec = NetworkSpec::river(16, 11);
        let a = Network::build_link_budget(&spec);
        let b = Network::build_link_budget(&spec);
        assert_eq!(a.nodes.len(), 16);
        for (ca, cb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(ca.rx_reader_lin.to_bits(), cb.rx_reader_lin.to_bits());
            assert_eq!(ca.direct_success.to_bits(), cb.direct_success.to_bits());
            assert!(ca.direct_success >= 0.0 && ca.direct_success <= 1.0);
            // The reply level at 1 m, spread over the reader range, lands
            // at the received power.
            let rx_db = ca.reply_db_at_1m - a.phy.tl_db(ca.d_reader_m);
            assert!((rx_db - 10.0 * ca.rx_reader_lin.log10()).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_matches_every_node_link_budget() {
        // The engine's one reader noise floor is each node's own
        // link-budget noise, bit for bit.
        let spec = NetworkSpec::river(8, 3);
        let net = Network::build_link_budget(&spec);
        let topology = Topology::generate(&spec);
        for site in &topology.nodes {
            let s = scenario_for_node(&spec, &topology, site);
            let lb = LinkBudget::compute(&s);
            let noise_db = lb.noise_psd_db + 10.0 * lb.bit_rate.log10();
            assert_eq!(db_to_lin_pow(noise_db).to_bits(), net.noise_lin.to_bits());
        }
    }

    #[test]
    fn one_front_end_serves_the_phy_constants_and_every_node() {
        // `build_link_budget` builds node 0's front end once and derives
        // the PHY constants from it. It must equal the front end that
        // `NetPhy::derive` and every node's own scenario would build, and
        // give the same constants, bit for bit (`Debug` prints each `f64`
        // in its shortest round-trip form).
        for env in [NetEnv::River, NetEnv::Ocean { sea_state: 2 }] {
            let spec = NetworkSpec { env, ..NetworkSpec::river(6, 5) };
            let topology = Topology::generate(&spec);
            let shared = scenario_for_node(&spec, &topology, &topology.nodes[0]).front_end();
            let system = SystemKind::Vab { n_pairs: spec.n_pairs };
            let derived = Scenario::river(system, Meters(1.0)).front_end();
            assert_eq!(format!("{derived:?}"), format!("{shared:?}"));
            for site in &topology.nodes {
                let own = scenario_for_node(&spec, &topology, site).front_end();
                assert_eq!(format!("{own:?}"), format!("{shared:?}"), "node {}", site.addr);
            }
            let phy = NetPhy::derive(env, spec.n_pairs);
            assert_eq!(format!("{:?}", Network::build_link_budget(&spec).phy), format!("{phy:?}"));
        }
    }

    #[test]
    fn frame_success_is_monotone_in_snr() {
        let phy = NetPhy::derive(crate::topology::NetEnv::River, 4);
        let lo = phy.frame_success(db_to_lin_pow(5.0));
        let hi = phy.frame_success(db_to_lin_pow(15.0));
        assert!(hi > lo);
        assert!(phy.frame_success(db_to_lin_pow(30.0)) > 0.999);
    }
}
