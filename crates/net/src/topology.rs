//! Deployment geometry: where the reader and the N nodes sit in the water
//! column.
//!
//! A topology is a pure function of its [`NetworkSpec`]: the same spec
//! always generates the same node placement, and the spec's canonical
//! byte form is content-addressed ([`NetworkSpec::digest`]) so network
//! campaigns can cache per-topology results exactly like the service
//! layer caches per-job results.

use rand::RngExt;
use vab_acoustics::environment::{Environment, SeaState};
use vab_acoustics::geometry::Position;
use vab_util::hash::content_digest;
use vab_util::json::Json;
use vab_util::rng::{derive_seed, seeded};
use vab_util::units::Degrees;

/// Schema/version tag folded into every topology digest. Bump when the
/// placement algorithm or the spec's canonical form changes.
pub const TOPOLOGY_VERSION: &str = "vab-net-topology/1";

/// Vertical margin nodes keep from the surface and the bottom, metres —
/// the image-method channel needs strictly in-column endpoints.
pub const DEPTH_MARGIN_M: f64 = 0.8;

/// Maximum |rotation| of a node's broadside off the reader bearing,
/// degrees (anchored nodes swing on their moorings).
pub const MAX_ROTATION_DEG: f64 = 30.0;

/// The box nodes are scattered in, relative to the reader at the origin.
///
/// Nodes occupy `x ∈ [standoff, standoff + x_m]`, `y ∈ [−y_m/2, y_m/2]`
/// and the environment's usable depth band; shrinking `x_m`/`y_m` at a
/// fixed node count raises deployment density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentVolume {
    /// Down-range extent, metres.
    pub x_m: f64,
    /// Cross-range extent, metres.
    pub y_m: f64,
    /// Closest a node may sit to the reader, metres.
    pub standoff_m: f64,
}

impl DeploymentVolume {
    /// The canonical evaluation volume: 60 m × 40 m starting 10 m out.
    pub fn vab_default() -> Self {
        Self { x_m: 60.0, y_m: 40.0, standoff_m: 10.0 }
    }

    /// Scales the horizontal extents by `s` (standoff unchanged) —
    /// `s < 1` packs the same nodes into a smaller footprint.
    pub fn scaled(&self, s: f64) -> Self {
        assert!(s > 0.0 && s.is_finite());
        Self { x_m: self.x_m * s, y_m: self.y_m * s, standoff_m: self.standoff_m }
    }

    /// Horizontal footprint, m².
    fn footprint_m2(&self) -> f64 {
        self.x_m * self.y_m
    }
}

/// Water environment of a deployment (mirrors the scenarios `vab-sim`
/// evaluates single links in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEnv {
    /// The canonical 4 m river.
    River,
    /// Ocean at a sea-state index (0 = calm … 4 = moderate).
    Ocean {
        /// Index into `SeaState::all()`.
        sea_state: u8,
    },
}

impl NetEnv {
    /// Instantiates the acoustic environment.
    pub fn environment(&self) -> Environment {
        match self {
            NetEnv::River => Environment::river(),
            NetEnv::Ocean { sea_state } => {
                let states = SeaState::all();
                Environment::ocean(states[(*sea_state as usize).min(states.len() - 1)])
            }
        }
    }

    /// Reader (projector + hydrophone) position, matching the canonical
    /// single-link scenarios.
    pub fn reader_pos(&self) -> Position {
        match self {
            NetEnv::River => Position::new(0.0, 0.0, 2.0),
            NetEnv::Ocean { .. } => Position::new(0.0, 0.0, 5.0),
        }
    }

    pub(crate) fn to_json(self) -> Json {
        match self {
            NetEnv::River => Json::obj([("kind", Json::Str("river".into()))]),
            NetEnv::Ocean { sea_state } => Json::obj([
                ("kind", Json::Str("ocean".into())),
                ("sea_state", Json::Num(sea_state as f64)),
            ]),
        }
    }
}

/// Everything needed to reproduce a deployment: placement, channels,
/// inventory and steady state all derive deterministically from this.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Number of backscatter nodes (≥ 1; ocean-scale deployments run
    /// 10k–100k nodes — see `SCALING.md`).
    pub n_nodes: usize,
    /// The deployment box.
    pub volume: DeploymentVolume,
    /// Water environment.
    pub env: NetEnv,
    /// Van Atta pairs per node.
    pub n_pairs: usize,
    /// Master seed; placement, fading and MAC contention all derive
    /// per-purpose streams from it.
    pub seed: u64,
}

impl NetworkSpec {
    /// A river deployment of `n_nodes` in the default volume with 4-pair
    /// nodes.
    pub fn river(n_nodes: usize, seed: u64) -> Self {
        Self {
            n_nodes,
            volume: DeploymentVolume::vab_default(),
            env: NetEnv::River,
            n_pairs: 4,
            seed,
        }
    }

    /// Node density over the deployment box, nodes per 1000 m³ (the
    /// usable depth band is set by the environment).
    pub fn density_per_1000m3(&self) -> f64 {
        let depth = self.env.environment().depth.value();
        let band = (depth - 2.0 * DEPTH_MARGIN_M).max(0.1);
        self.n_nodes as f64 / (self.volume.footprint_m2() * band) * 1000.0
    }

    /// Canonical byte form: compact JSON with fixed key order, seeds as
    /// decimal strings (the same convention as `vab-svc` job specs).
    pub fn canonical(&self) -> String {
        Json::obj([
            ("kind", Json::Str("net_topology".into())),
            ("n_nodes", Json::Num(self.n_nodes as f64)),
            ("x_m", Json::Num(self.volume.x_m)),
            ("y_m", Json::Num(self.volume.y_m)),
            ("standoff_m", Json::Num(self.volume.standoff_m)),
            ("env", self.env.to_json()),
            ("n_pairs", Json::Num(self.n_pairs as f64)),
            ("seed", Json::Str(self.seed.to_string())),
        ])
        .render()
    }

    /// Content address of this topology under [`TOPOLOGY_VERSION`].
    pub fn digest(&self) -> u64 {
        content_digest(&self.canonical(), TOPOLOGY_VERSION)
    }
}

/// One placed node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSite {
    /// MAC address (dense from 0).
    pub addr: vab_mac::Addr,
    /// Position in the water column (z positive down).
    pub pos: Position,
    /// Broadside rotation off the reader bearing.
    pub rotation: Degrees,
}

/// A generated deployment: the reader plus N placed nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Reader position.
    pub reader: Position,
    /// Placed nodes, addressed densely from 0.
    pub nodes: Vec<NodeSite>,
    /// Water-column depth, metres.
    pub water_depth_m: f64,
    /// Largest reader–node separation, metres (sizes TDMA guards).
    pub max_range_m: f64,
}

impl Topology {
    /// Places `spec.n_nodes` nodes uniformly in the deployment box.
    ///
    /// Deterministic: the placement stream is derived from `spec.seed`
    /// alone, so equal specs generate bit-identical topologies. The
    /// per-node draw order is unchanged from the historical ≤256-node
    /// implementation, so pre-widening specs keep their placements (and
    /// digests) bit for bit.
    ///
    /// # Panics
    /// If `n_nodes` is 0.
    pub fn generate(spec: &NetworkSpec) -> Self {
        assert!(spec.n_nodes >= 1, "n_nodes must be at least 1");
        let env = spec.env.environment();
        let depth = env.depth.value();
        let (z_lo, z_hi) = (DEPTH_MARGIN_M, depth - DEPTH_MARGIN_M);
        assert!(z_hi > z_lo, "water column too shallow for the depth margin");
        let reader = spec.env.reader_pos();
        let v = spec.volume;
        let mut rng = seeded(derive_seed(spec.seed, 0x70_70));
        let mut nodes = Vec::with_capacity(spec.n_nodes);
        let mut max_range_m: f64 = 0.0;
        for addr in 0..spec.n_nodes {
            let x = v.standoff_m + rng.random::<f64>() * v.x_m;
            let y = (rng.random::<f64>() - 0.5) * v.y_m;
            let z = z_lo + rng.random::<f64>() * (z_hi - z_lo);
            let rotation = Degrees((rng.random::<f64>() * 2.0 - 1.0) * MAX_ROTATION_DEG);
            let pos = Position::new(x, y, z);
            max_range_m = max_range_m.max(reader.distance_to(&pos).value());
            nodes.push(NodeSite { addr: addr as vab_mac::Addr, pos, rotation });
        }
        Self { reader, nodes, water_depth_m: depth, max_range_m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_volume() {
        let spec = NetworkSpec::river(64, 42);
        let a = Topology::generate(&spec);
        let b = Topology::generate(&spec);
        assert_eq!(a.nodes.len(), 64);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.pos.x.to_bits(), nb.pos.x.to_bits());
            assert_eq!(na.rotation.value().to_bits(), nb.rotation.value().to_bits());
        }
        let v = spec.volume;
        for n in &a.nodes {
            assert!(n.pos.x >= v.standoff_m && n.pos.x <= v.standoff_m + v.x_m);
            assert!(n.pos.y.abs() <= v.y_m / 2.0);
            assert!(n.pos.z > 0.0 && n.pos.z < a.water_depth_m);
            assert!(n.rotation.value().abs() <= MAX_ROTATION_DEG);
        }
        assert!(a.max_range_m >= v.standoff_m);
    }

    #[test]
    fn digest_separates_specs() {
        let a = NetworkSpec::river(16, 7);
        let mut b = a.clone();
        b.seed = 8;
        let mut c = a.clone();
        c.volume = c.volume.scaled(0.5);
        assert_eq!(a.digest(), NetworkSpec::river(16, 7).digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn density_rises_when_volume_shrinks() {
        let a = NetworkSpec::river(64, 1);
        let mut b = a.clone();
        b.volume = b.volume.scaled(0.5);
        assert!(b.density_per_1000m3() > a.density_per_1000m3() * 3.9);
    }

    #[test]
    #[should_panic(expected = "n_nodes")]
    fn empty_deployment_panics() {
        Topology::generate(&NetworkSpec::river(0, 1));
    }

    #[test]
    fn generation_scales_past_the_former_256_node_cap() {
        let spec = NetworkSpec::river(1000, 3);
        let t = Topology::generate(&spec);
        assert_eq!(t.nodes.len(), 1000);
        assert_eq!(t.nodes[999].addr, 999);
    }
}
