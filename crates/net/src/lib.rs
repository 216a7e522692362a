//! # vab-net — spatial multi-node Van Atta network simulation
//!
//! The paper promises Van Atta acoustic *networks*; the rest of the
//! workspace models one link at a time. This crate deploys N backscatter
//! nodes — from a handful up to ocean scale (10k–100k) — with
//! projector/hydrophone readers in a 3-D volume, derives each node's
//! channel — range, absorption, multipath, noise — from
//! `vab-acoustics`/`vab-sim`, and models concurrent backscatter as
//! physical-layer interference: colliding replies superpose at the
//! hydrophone and per-node SINR decides *capture*, rather than an
//! abstract collision bit.
//!
//! One engine runs every deployment. A [`Network`] is a cell plan — a
//! node table, readers, cell members, interference sinks and routes —
//! and everything after channel derivation (capture-aware slot
//! resolution and the inventory loop) is one code path. Two constructors
//! fill it:
//!
//! * the **paper tier** ([`Network::build_link_budget`]) — the one-reader
//!   plan: per-node link budgets with image-method fading, direct routes,
//!   no foreign readers and so no interference sinks; faithful at
//!   N ≲ a few thousand;
//! * the **ocean tier** ([`Network::build`]) — multi-reader FDM cells,
//!   closed-form channels, horizon-culled co-channel interference
//!   ([`interference`]) and multi-hop relay routes ([`route`]); runs 65k nodes
//!   in well under a second.
//!
//! Placement, the spec types and their digests, the report schemas and
//! the steady-state models stay per tier: the paper tier samples
//! per-node TDMA, the ocean tier takes expected values under duty floors
//! and relay billing. Both read the one node table.
//!
//! The layers:
//!
//! * [`topology`] — seed-pure node placement in a deployment volume,
//!   with a content-addressed spec digest for per-topology caching;
//! * [`capture`] — the SINR capture rule (a linear test, exact to the dB
//!   one) and Jain's fairness index;
//! * [`network`] — the engine: node table, slot resolver, inventory
//!   (framed ALOHA via [`vab_mac::AlohaReader::run_round_with`]) and the
//!   paper tier's sampled steady state and [`DeploymentReport`];
//! * [`channel`] — the link-budget constructor, in the linear-power
//!   units superposition needs;
//! * [`interference`] — the absorption-derived interference horizon
//!   and the pairwise oracle production sinks are bit-identical to;
//! * [`route`] — VBF and cluster-head relay planning for rim nodes;
//! * [`scale`] — the closed-form constructor, the ocean steady state and
//!   [`ScaleReport`].
//!
//! Each deployment is deterministic in its spec at any worker count:
//! inventory runs its independent interaction classes as tasks on the
//! compute pool ([`network`]), and campaigns parallelize *across* deployments through
//! the `vab-svc` worker pool, which caches each report by content
//! address.
//!
//! ## Example: run a small deployment end to end
//!
//! ```
//! use vab_net::{run_deployment, NetworkSpec};
//!
//! // Eight nodes scattered in the default 60 m × 40 m river volume.
//! let spec = NetworkSpec::river(8, 42);
//! let report = run_deployment(&spec);
//! assert!(report.inventory.coverage() > 0.9, "short river links all close");
//! assert!(report.steady.jain_fairness > 0.0 && report.steady.jain_fairness <= 1.0);
//! // Equal specs reproduce byte-identical reports.
//! assert_eq!(
//!     report.to_json().render(),
//!     run_deployment(&spec).to_json().render(),
//! );
//! ```
//!
//! ## Example: an ocean-scale cellular deployment with relays
//!
//! ```
//! use vab_net::{run_scale_deployment, RoutePolicy, ScaleSpec};
//!
//! // 512 nodes at the canonical ocean density: ⌈512¼⌉² = 25 reader
//! // cells, VBF relays for the rim nodes the direct link can't reach.
//! let spec = ScaleSpec::ocean(512, 7);
//! assert_eq!(spec.policy, RoutePolicy::Vbf);
//! let report = run_scale_deployment(&spec);
//! assert!(report.inventory.coverage() > 0.5);
//! // Relayed rim nodes ride through neighbors: a multi-hop round costs
//! // more than one uplink transmission per delivery on average.
//! assert!(report.steady.mean_hops >= 1.0);
//! // Equal specs reproduce byte-identical reports.
//! assert_eq!(
//!     report.to_json().render(),
//!     run_scale_deployment(&spec).to_json().render(),
//! );
//! ```

#![warn(missing_docs)]

pub mod capture;
pub mod channel;
pub mod interference;
pub mod network;
pub mod route;
pub mod scale;
pub mod topology;

pub use capture::{jain_fairness, sinr_db, CaptureModel};
pub use interference::{interference_horizon_m, pairwise_interference_lin, PointSource};
pub use network::{
    run_deployment, DeploymentReport, NetInventoryReport, NetPhy, Network, NodeChannel,
    ScaleNetwork, SteadyStateReport,
};
pub use route::{plan_routes, RelayRoute, RouteNode, RoutePolicy};
pub use scale::{run_scale_deployment, ScaleReport, ScaleSpec};
pub use topology::{DeploymentVolume, NetEnv, NetworkSpec, NodeSite, Topology};
