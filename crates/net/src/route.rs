//! Multi-hop routing policies for ocean-scale cells.
//!
//! A single reader can only serve nodes whose direct backscatter link
//! closes; at ocean scale a cell's rim sits past the reliable direct
//! range. Routing lets rim nodes relay through better-placed neighbors:
//!
//! * **Vector-based forwarding (VBF)** — a node forwards through
//!   neighbors inside a *routing pipe* around the straight line from
//!   itself to the reader, greedily picking the neighbor that makes the
//!   most progress. The classic UWSN geographic policy: no routing state
//!   beyond positions, robust to churn.
//! * **Cluster-head election** — a LEACH-style policy: a deterministic
//!   per-epoch election picks a fraction of nodes as heads, members
//!   uplink to their nearest head in one hop, and heads talk to the
//!   reader. Two hops worst case, at the cost of head-node airtime.
//!
//! Both planners are pure functions of the cell geometry and the master
//! seed: equal inputs yield identical routes, which keeps ocean-scale
//! reports content-addressable.

use vab_acoustics::geometry::Position;
use vab_mac::Addr;
use vab_util::hash::fnv1a64;

/// Maximum relay hops a VBF route may take before the planner gives up —
/// bounds both route length and the TDMA airtime a relayed node consumes.
pub const MAX_HOPS: usize = 8;

/// Minimum forward progress per VBF hop, as a fraction of the remaining
/// source–reader distance; prevents shuffling between near-equidistant
/// neighbors.
pub const MIN_PROGRESS_FRAC: f64 = 0.05;

/// Fraction of a cell's members elected cluster heads.
pub const CLUSTER_HEAD_FRAC: f64 = 0.1;

/// Direct-link frame-success probability above which a node skips
/// relaying entirely.
pub const DIRECT_OK_PROB: f64 = 0.9;

/// Minimum single-hop frame-success probability for a neighbor to count
/// as reachable during VBF selection — the routing-layer face of a
/// transmission range. Without it, greedy max-progress would happily hop
/// over a link that never closes.
pub const MIN_HOP_PROB: f64 = 0.5;

/// A routing policy for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Every node talks straight to its reader (the null policy — what a
    /// single-reader deployment is stuck with).
    Direct,
    /// Vector-based forwarding through a routing pipe.
    Vbf,
    /// LEACH-style cluster-head election; members uplink via their head.
    ClusterHead,
}

impl RoutePolicy {
    /// Canonical lowercase label (used in job specs and CSV columns).
    pub fn as_str(&self) -> &'static str {
        match self {
            RoutePolicy::Direct => "direct",
            RoutePolicy::Vbf => "vbf",
            RoutePolicy::ClusterHead => "cluster",
        }
    }

    /// Parses the canonical label back.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "direct" => Ok(RoutePolicy::Direct),
            "vbf" => Ok(RoutePolicy::Vbf),
            "cluster" => Ok(RoutePolicy::ClusterHead),
            other => Err(format!("unknown route policy {other:?} (direct|vbf|cluster)")),
        }
    }
}

/// One cell member as the route planner sees it.
#[derive(Debug, Clone, Copy)]
pub struct RouteNode {
    /// Global MAC address.
    pub addr: Addr,
    /// Node position.
    pub pos: Position,
    /// Frame-success probability of the node's *direct* link to the
    /// reader on a clean slot.
    pub direct_prob: f64,
}

/// A planned uplink route for one node.
#[derive(Debug, Clone)]
pub struct RelayRoute {
    /// The source node.
    pub addr: Addr,
    /// Relay addresses in order, source → … → last relay (empty = direct).
    pub relays: Vec<Addr>,
    /// End-to-end delivery probability on clean slots: the product of
    /// every node-to-node hop success and the final hop's direct success.
    pub delivery_prob: f64,
}

impl RelayRoute {
    /// Total uplink transmissions a delivery costs (1 for direct).
    pub fn hops(&self) -> usize {
        self.relays.len() + 1
    }
}

/// Perpendicular distance of `p` from the infinite line through `a`
/// toward `b` (the VBF pipe test), metres.
fn line_distance_m(p: Position, a: Position, b: Position) -> f64 {
    let (abx, aby, abz) = (b.x - a.x, b.y - a.y, b.z - a.z);
    let len2 = abx * abx + aby * aby + abz * abz;
    if len2 <= f64::EPSILON {
        return p.distance_to(&a).value();
    }
    let (apx, apy, apz) = (p.x - a.x, p.y - a.y, p.z - a.z);
    let t = (apx * abx + apy * aby + apz * abz) / len2;
    let proj = Position::new(a.x + t * abx, a.y + t * aby, a.z + t * abz);
    p.distance_to(&proj).value()
}

/// Plans routes for every member of one cell under `policy`.
///
/// `hop_prob(from, to)` is the node-to-node single-hop frame-success
/// probability; `pipe_radius_m` sizes the VBF routing pipe; `seed` drives
/// the cluster-head election. Nodes whose direct link already clears
/// [`DIRECT_OK_PROB`] always route direct. Routes are returned in member
/// order, one per member.
pub fn plan_routes(
    policy: RoutePolicy,
    members: &[RouteNode],
    reader: Position,
    pipe_radius_m: f64,
    seed: u64,
    hop_prob: &dyn Fn(&RouteNode, &RouteNode) -> f64,
) -> Vec<RelayRoute> {
    match policy {
        RoutePolicy::Direct => members
            .iter()
            .map(|m| RelayRoute { addr: m.addr, relays: Vec::new(), delivery_prob: m.direct_prob })
            .collect(),
        RoutePolicy::Vbf => {
            // Candidates by (distance to reader, addr), sorted once per
            // cell: the first valid one on a hop is the max-progress relay.
            let mut by_range: Vec<(f64, &RouteNode)> =
                members.iter().map(|m| (m.pos.distance_to(&reader).value(), m)).collect();
            by_range.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.addr.cmp(&b.1.addr)));
            members
                .iter()
                .map(|m| vbf_route(m, &by_range, reader, pipe_radius_m, hop_prob))
                .collect()
        }
        RoutePolicy::ClusterHead => cluster_routes(members, seed, hop_prob),
    }
}

/// Greedy VBF: hop toward the reader through pipe neighbors until the
/// current node's direct link clears [`DIRECT_OK_PROB`], the hop budget
/// runs out, or no neighbor makes progress.
///
/// `by_range` holds the cell's members with their distance to the reader,
/// sorted by (distance, addr). Each hop picks the in-pipe neighbor closest
/// to the reader (ties to the lowest address), so it scans that order and
/// takes the first candidate that passes; the first candidate short of
/// [`MIN_PROGRESS_FRAC`] ends the scan, since every later one is farther.
fn vbf_route(
    source: &RouteNode,
    by_range: &[(f64, &RouteNode)],
    reader: Position,
    pipe_radius_m: f64,
    hop_prob: &dyn Fn(&RouteNode, &RouteNode) -> f64,
) -> RelayRoute {
    if source.direct_prob >= DIRECT_OK_PROB {
        return RelayRoute {
            addr: source.addr,
            relays: Vec::new(),
            delivery_prob: source.direct_prob,
        };
    }
    let mut relays = Vec::new();
    let mut delivery = 1.0;
    let mut current = *source;
    for _ in 0..MAX_HOPS {
        if current.direct_prob >= DIRECT_OK_PROB {
            break;
        }
        let remaining = current.pos.distance_to(&reader).value();
        let min_progress = remaining * MIN_PROGRESS_FRAC;
        let mut next = None;
        for &(cand_remaining, cand) in by_range {
            if cand_remaining > remaining - min_progress {
                break; // too little progress, and so is everyone after
            }
            if cand.addr == current.addr || relays.contains(&cand.addr) || cand.addr == source.addr
            {
                continue;
            }
            if line_distance_m(cand.pos, source.pos, reader) > pipe_radius_m {
                continue;
            }
            let p = hop_prob(&current, cand);
            if p < MIN_HOP_PROB {
                continue; // the hop link doesn't close: not a neighbor
            }
            next = Some((cand, p));
            break;
        }
        let Some((next, p)) = next else { break };
        delivery *= p;
        relays.push(next.addr);
        current = *next;
    }
    RelayRoute { addr: source.addr, relays, delivery_prob: delivery * current.direct_prob }
}

/// Deterministic election score: nodes with the highest
/// `fnv1a64(seed‖addr)` become heads — uniform over members, stable for a
/// given seed, and reproducible across runs and machines.
fn election_score(seed: u64, addr: Addr) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&addr.to_le_bytes());
    fnv1a64(&bytes)
}

/// Cluster-head routing: elect ⌈[`CLUSTER_HEAD_FRAC`]·members⌉ heads by
/// deterministic score, attach every weak member to its nearest head.
fn cluster_routes(
    members: &[RouteNode],
    seed: u64,
    hop_prob: &dyn Fn(&RouteNode, &RouteNode) -> f64,
) -> Vec<RelayRoute> {
    let n_heads = ((members.len() as f64 * CLUSTER_HEAD_FRAC).ceil() as usize).max(1);
    let mut ranked: Vec<&RouteNode> = members.iter().collect();
    ranked.sort_by_key(|m| (std::cmp::Reverse(election_score(seed, m.addr)), m.addr));
    let heads: Vec<&RouteNode> = ranked.into_iter().take(n_heads).collect();
    members
        .iter()
        .map(|m| {
            if m.direct_prob >= DIRECT_OK_PROB || heads.iter().any(|h| h.addr == m.addr) {
                return RelayRoute {
                    addr: m.addr,
                    relays: Vec::new(),
                    delivery_prob: m.direct_prob,
                };
            }
            // Nearest head by distance, ties to lowest address.
            let head = heads
                .iter()
                .min_by(|a, b| {
                    m.pos
                        .distance_to(&a.pos)
                        .value()
                        .total_cmp(&m.pos.distance_to(&b.pos).value())
                        .then(a.addr.cmp(&b.addr))
                })
                .expect("at least one head");
            let via = hop_prob(m, head) * head.direct_prob;
            if via > m.direct_prob {
                RelayRoute { addr: m.addr, relays: vec![head.addr], delivery_prob: via }
            } else {
                RelayRoute { addr: m.addr, relays: Vec::new(), delivery_prob: m.direct_prob }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(addr: Addr, x: f64, p: f64) -> RouteNode {
        RouteNode { addr, pos: Position::new(x, 0.0, 5.0), direct_prob: p }
    }

    fn dist_hop(a: &RouteNode, b: &RouteNode) -> f64 {
        // A toy hop model: perfect under 150 m, dead past it.
        if a.pos.distance_to(&b.pos).value() < 150.0 {
            0.99
        } else {
            0.01
        }
    }

    #[test]
    fn direct_policy_never_relays() {
        let members = [node(0, 50.0, 0.95), node(1, 400.0, 0.02)];
        let routes = plan_routes(
            RoutePolicy::Direct,
            &members,
            Position::new(0.0, 0.0, 5.0),
            50.0,
            7,
            &dist_hop,
        );
        assert!(routes.iter().all(|r| r.relays.is_empty()));
        assert_eq!(routes[1].delivery_prob, 0.02);
    }

    #[test]
    fn vbf_routes_a_rim_node_through_the_pipe() {
        // Rim node at 400 m, relays at 280 m and 140 m on the line to the
        // reader: the pipe should chain 400 → 280 → 140 → reader.
        let reader = Position::new(0.0, 0.0, 5.0);
        let members = [
            node(0, 140.0, 0.97), // strong: terminal relay
            node(1, 280.0, 0.30),
            node(2, 400.0, 0.02), // rim source
        ];
        let routes = plan_routes(RoutePolicy::Vbf, &members, reader, 60.0, 7, &dist_hop);
        let rim = &routes[2];
        assert_eq!(rim.relays, vec![1, 0], "rim node must chain through both relays");
        assert!(rim.delivery_prob > 0.9, "delivery {}", rim.delivery_prob);
        assert_eq!(rim.hops(), 3);
        // The strong node stays direct.
        assert!(routes[0].relays.is_empty());
    }

    #[test]
    fn vbf_ignores_out_of_pipe_neighbors() {
        let reader = Position::new(0.0, 0.0, 5.0);
        let mut off_axis = node(1, 200.0, 0.95);
        off_axis.pos = Position::new(200.0, 300.0, 5.0); // 300 m off the pipe axis
        let members = [off_axis, node(2, 400.0, 0.02)];
        let routes = plan_routes(RoutePolicy::Vbf, &members, reader, 60.0, 7, &dist_hop);
        assert!(routes[1].relays.is_empty(), "no in-pipe relay exists");
        assert_eq!(routes[1].delivery_prob, 0.02);
    }

    #[test]
    fn cluster_election_is_deterministic_and_helps_weak_members() {
        let members: Vec<RouteNode> = (0..30)
            .map(|i| node(i, 20.0 + 10.0 * i as f64, if i < 15 { 0.95 } else { 0.05 }))
            .collect();
        let reader = Position::new(0.0, 0.0, 5.0);
        let a = plan_routes(RoutePolicy::ClusterHead, &members, reader, 50.0, 11, &dist_hop);
        let b = plan_routes(RoutePolicy::ClusterHead, &members, reader, 50.0, 11, &dist_hop);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.relays, rb.relays, "election must be deterministic");
        }
        // A relayed route is only taken when it beats going direct.
        for r in &a {
            let m = members.iter().find(|m| m.addr == r.addr).unwrap();
            assert!(r.delivery_prob >= m.direct_prob - 1e-12);
        }
        // Different seed ⇒ (almost surely) different head set.
        let c = plan_routes(RoutePolicy::ClusterHead, &members, reader, 50.0, 12, &dist_hop);
        assert!(
            a.iter().zip(&c).any(|(ra, rc)| ra.relays != rc.relays),
            "a reseeded election should move at least one route"
        );
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [RoutePolicy::Direct, RoutePolicy::Vbf, RoutePolicy::ClusterHead] {
            assert_eq!(RoutePolicy::parse(p.as_str()).unwrap(), p);
        }
        assert!(RoutePolicy::parse("flooding").is_err());
    }
}
