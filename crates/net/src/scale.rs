//! The closed-form constructor: ocean-scale cell plans with multi-reader
//! cells, horizon-culled co-channel interference and multi-hop routing
//! for 10k–100k node networks.
//!
//! The link-budget constructor ([`crate::channel`]) derives every node
//! from a full image-method channel realization — faithful, but far too
//! slow past a few thousand nodes. This constructor trades channel
//! fidelity for scale while keeping every number seed-pure and
//! content-addressed; inventory then runs on the same engine
//! ([`crate::network`]) the paper tier uses:
//!
//! * **Cells** — `⌈N¼⌉²` readers on a uniform grid partition the nodes by
//!   nearest reader (looked up in the 3 × 3 block of the reader grid
//!   around the node); cells inventory concurrently (spatial reuse).
//! * **Closed-form channels** — each node's backscatter reply level comes
//!   from the same sonar equation as [`vab_sim::linkbudget::LinkBudget`]
//!   (source level − illumination loss + modulated gain + log-normal
//!   fading), evaluated broadside; no per-node image-method realization.
//! * **Horizon-culled interference** — each node walks only its cell's
//!   co-channel foreign readers and keeps those inside the
//!   [`crate::interference`] absorption-derived horizon, in one node-major
//!   sink table; every sink equals the pairwise reference's per-source
//!   term, so in-horizon sums are bit-identical to it (the exactness
//!   contract).
//! * **FDM reuse plan** — readers draw one of [`REUSE_GRID`]² carrier
//!   channels from a square reuse pattern (classic cellular planning).
//!   A backscatter reply is centered on its own reader's carrier, so a
//!   foreign cell on a different channel lands out of band and the
//!   victim's receive filter rejects it (the same front end already
//!   buries an in-band 180 dB projector by 80 dB — cross-channel
//!   rejection is the easier filter). Nodes need no channel assignment:
//!   a Van Atta array reflects whatever carrier hits it. Only
//!   *co-channel* cells, at least [`REUSE_GRID`] reader spacings away,
//!   interfere.
//! * **Duty-cycle interference floors** — a co-channel cell's members hit
//!   a reader as an expected-value floor weighted by their transmit duty
//!   (1/window during contention, 1/round during TDMA) rather than a
//!   per-slot coin flip; this is what makes a global round O(R²) instead
//!   of O(N²).
//! * **Multi-hop relays** — rim nodes whose direct link cannot close are
//!   reached through [`crate::route`] policies (VBF or cluster heads) and
//!   billed the extra TDMA airtime their relays consume.
//!
//! The derivation of every constant here — densities, the horizon margin,
//! the reader-count law and the resulting Θ(√N) aggregate-capacity
//! scaling — is documented in `SCALING.md` at the repo root.

use std::sync::Mutex;

use rand::RngExt;
use vab_acoustics::geometry::Position;
use vab_mac::Addr;
use vab_util::db::db_to_lin_pow;
use vab_util::hash::content_digest;
use vab_util::json::Json;
use vab_util::rng::{derive_seed, seeded};
use vab_util::threads::par_map;

use crate::capture::{jain_fairness, CaptureModel};
use crate::interference::{interference_horizon_m, HORIZON_MARGIN_DB};
use crate::network::{NetInventoryReport, NetPhy, Network, NodeChannel, PAYLOAD_BITS};
use crate::route::{plan_routes, RelayRoute, RouteNode, RoutePolicy};
use crate::topology::{NetEnv, DEPTH_MARGIN_M};

/// Schema/version tag folded into every scale-spec digest. Bump when the
/// placement, channel model or report layout changes.
pub const SCALE_VERSION: &str = "vab-net-scale/1";

/// Schema tag of [`ScaleReport::to_json`] payloads.
pub const SCALE_REPORT_SCHEMA: &str = "vab-net-scale-report/1";

/// Areal node density of the canonical ocean deployment, nodes/km² —
/// one node per ~15.6 m grid pitch, dense enough that relay hops between
/// neighbors close with margin (see `SCALING.md` for the link-budget
/// derivation).
pub const NODES_PER_KM2: f64 = 4096.0;

/// Log-normal fading applied to each node's reply level, σ in dB
/// (stands in for the paper tier's image-method multipath realization).
pub const FADING_SIGMA_DB: f64 = 3.0;

/// Global contention rounds after which inventory gives up; rim nodes
/// whose direct SINR can never clear capture stay for the relay pass.
pub const MAX_SCALE_ROUNDS: u32 = 100;

/// Per-cell ALOHA window ceiling — ocean cells hold thousands of
/// contenders, far past the paper tier's 256-slot ceiling.
pub const MAX_CELL_WINDOW: usize = 4096;

/// VBF pipe radius as a multiple of the mean node pitch.
pub const PIPE_RADIUS_PITCH_MULT: f64 = 2.0;

/// Side of the square FDM reuse pattern: readers at grid position
/// `(i, j)` use channel `(i mod G, j mod G)`, so co-channel cells are at
/// least `G` reader spacings apart and everything closer is rejected by
/// the victim's channel filter. Backscatter makes the plan reader-side
/// only: a Van Atta node passively reflects whatever carrier illuminates
/// it, so nodes need no channel assignment at all. 8 × 8 = 64 channels
/// puts co-channel cells ≥ 1 km apart at every deployment scale, where
/// seawater absorption starts doing the rest.
pub const REUSE_GRID: usize = 8;

/// Nodes per channel and interference task. A constant, not a share of
/// the worker count, so the tasks and every allocation they make are the
/// same at any `--jobs`.
const NODE_CHUNK: usize = 2048;

const STREAM_SCALE_PLACE: u64 = 0x5CA7;
const STREAM_SCALE_FADING: u64 = 0x5FAD;
const STREAM_SCALE_CONTENTION: u64 = 0x5C0A;
const STREAM_SCALE_DECODE: u64 = 0x5DEC;
const STREAM_SCALE_ROUTE: u64 = 0x5707;

/// Everything needed to reproduce an ocean-scale deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSpec {
    /// Number of backscatter nodes (≥ 1).
    pub n_nodes: usize,
    /// Number of readers, laid out row-major on a `⌈√R⌉ × ⌈√R⌉` grid.
    pub n_readers: usize,
    /// Deployment extent along x, metres.
    pub x_m: f64,
    /// Deployment extent along y, metres.
    pub y_m: f64,
    /// Water environment.
    pub env: NetEnv,
    /// Van Atta pairs per node.
    pub n_pairs: usize,
    /// Routing policy for rim nodes.
    pub policy: RoutePolicy,
    /// Master seed; placement, fading, contention and elections all
    /// derive per-purpose streams from it.
    pub seed: u64,
}

impl ScaleSpec {
    /// The canonical ocean deployment law: constant areal density
    /// ([`NODES_PER_KM2`]) so the footprint side grows as √N, and
    /// `⌈N¼⌉²` readers so the reader count grows as √N — the sink-density
    /// scaling that realizes the Θ(√n) aggregate-capacity order of
    /// arXiv 1103.0266. Sea state 1, 4-pair nodes, VBF routing.
    pub fn ocean(n_nodes: usize, seed: u64) -> Self {
        assert!(n_nodes >= 1, "n_nodes must be at least 1");
        let side_m = (n_nodes as f64 / NODES_PER_KM2).sqrt() * 1000.0;
        let g = (n_nodes as f64).sqrt().sqrt().ceil() as usize;
        Self {
            n_nodes,
            n_readers: g * g,
            x_m: side_m,
            y_m: side_m,
            env: NetEnv::Ocean { sea_state: 1 },
            n_pairs: 4,
            policy: RoutePolicy::Vbf,
            seed,
        }
    }

    /// Canonical byte form: compact JSON with fixed key order, seeds as
    /// decimal strings (the same convention as `vab-svc` job specs).
    pub fn canonical(&self) -> String {
        Json::obj([
            ("kind", Json::Str("net_scale".into())),
            ("n_nodes", Json::Num(self.n_nodes as f64)),
            ("n_readers", Json::Num(self.n_readers as f64)),
            ("x_m", Json::Num(self.x_m)),
            ("y_m", Json::Num(self.y_m)),
            ("env", self.env.to_json()),
            ("n_pairs", Json::Num(self.n_pairs as f64)),
            ("policy", Json::Str(self.policy.as_str().into())),
            ("seed", Json::Str(self.seed.to_string())),
        ])
        .render()
    }

    /// Content address of this deployment under [`SCALE_VERSION`].
    pub fn digest(&self) -> u64 {
        content_digest(&self.canonical(), SCALE_VERSION)
    }

    /// Mean horizontal node pitch, metres (1/√density).
    pub fn node_pitch_m(&self) -> f64 {
        (self.x_m * self.y_m / self.n_nodes as f64).sqrt()
    }
}

impl Network {
    /// The closed-form constructor: derives the ocean cell plan —
    /// placement, cells, channels, interference sinks and routes.
    ///
    /// Channels and sinks run on the compute pool as tasks of a fixed
    /// 2,048 addresses, routes as one task per cell. Every task
    /// reads only seed-pure per-address or per-cell inputs and writes its
    /// own span of a table sized before it starts, and the serial steps
    /// between them fold in address order, so the plan is bit-identical at
    /// every worker count (`DESIGN.md` gives the argument).
    pub fn build(spec: &ScaleSpec) -> Self {
        let _t = vab_obs::time_stage("net.build");
        assert!(spec.n_nodes >= 1 && spec.n_readers >= 1, "need nodes and readers");
        assert!(spec.x_m > 0.0 && spec.y_m > 0.0, "deployment extent must be positive");
        let phy = NetPhy::derive(spec.env, spec.n_pairs);

        // Readers: row-major grid at the canonical reader depth.
        let g = (spec.n_readers as f64).sqrt().ceil() as usize;
        let reader_z = spec.env.reader_pos().z;
        let readers: Vec<Position> = (0..spec.n_readers)
            .map(|r| {
                let (i, j) = (r % g, r / g);
                Position::new(
                    (i as f64 + 0.5) * spec.x_m / g as f64,
                    (j as f64 + 0.5) * spec.y_m / g as f64,
                    reader_z,
                )
            })
            .collect();

        // Placement: uniform over the box and the usable depth band,
        // one seed-pure stream, draws in address order, straight into the
        // node table; the channel pass fills in every other field.
        let depth = phy.env.depth.value();
        let (z_lo, z_hi) = (DEPTH_MARGIN_M, depth - DEPTH_MARGIN_M);
        assert!(z_hi > z_lo, "water column too shallow for the depth margin");
        let n = spec.n_nodes;
        let mut rng = seeded(derive_seed(spec.seed, STREAM_SCALE_PLACE));
        let mut nodes: Vec<NodeChannel> = (0..n)
            .map(|i| {
                let x = rng.random::<f64>() * spec.x_m;
                let y = rng.random::<f64>() * spec.y_m;
                let z = z_lo + rng.random::<f64>() * (z_hi - z_lo);
                NodeChannel {
                    addr: i as Addr,
                    pos: Position::new(x, y, z),
                    cell: 0,
                    d_reader_m: 0.0,
                    reply_db_at_1m: 0.0,
                    rx_reader_lin: 0.0,
                    direct_success: 0.0,
                }
            })
            .collect();

        // Channels: nearest reader (looked up around the node's grid
        // cell), closed-form sonar equation + log-normal fading from a
        // per-address stream, one pool task per chunk of the table. Cell
        // lists and the two maxima follow in one pass in address order.
        let stage = vab_obs::time_stage("net.channels");
        let fading_master = derive_seed(spec.seed, STREAM_SCALE_FADING);
        let noise_lin = db_to_lin_pow(phy.noise_reader_db);
        par_spans("net.channels.chunk", &mut nodes, chunk_ends(n), |_, chunk| {
            for node in chunk {
                let cell = nearest_reader(&readers, g, spec.x_m, spec.y_m, &node.pos);
                let d = node.pos.distance_to(&readers[cell as usize]).value();
                let mut frng = seeded(derive_seed(fading_master, node.addr as u64));
                let fading_db = FADING_SIGMA_DB * gaussian(&mut frng);
                let tl_db = phy.tl_db(d);
                let reply_db_at_1m =
                    phy.source_level_db - tl_db + phy.modulated_gain_db + fading_db;
                let rx_reader_lin = db_to_lin_pow(reply_db_at_1m - tl_db);
                node.cell = cell;
                node.d_reader_m = d;
                node.reply_db_at_1m = reply_db_at_1m;
                node.rx_reader_lin = rx_reader_lin;
                node.direct_success = phy.frame_success(rx_reader_lin / noise_lin);
            }
        });
        let mut cell_members: Vec<Vec<Addr>> = vec![Vec::new(); spec.n_readers];
        let (mut max_range_m, mut loudest) = (0.0f64, f64::NEG_INFINITY);
        for node in &nodes {
            cell_members[node.cell as usize].push(node.addr);
            max_range_m = max_range_m.max(node.d_reader_m);
            loudest = loudest.max(node.reply_db_at_1m);
        }
        drop(stage);

        // Interference: horizon from the loudest reply, then the sink
        // table, node-major: which co-channel foreign readers hear each
        // node, and how loudly. Different-channel cells are out of band at
        // the victim's filter and never enter the floor. A reader's FDM
        // colour is its grid position mod `REUSE_GRID`, so a node's
        // co-channel readers sit every `REUSE_GRID` columns and rows from
        // its own cell's residue, and walking them row by row visits them
        // in ascending index (a partial last row ends the walk). Each sink
        // equals the pairwise oracle's per-source term.
        let stage = vab_obs::time_stage("net.interference");
        let floor_db = phy.noise_reader_db - HORIZON_MARGIN_DB;
        let horizon_m = interference_horizon_m(&phy.env, phy.carrier, loudest, floor_db);
        let r2 = horizon_m * horizon_m;
        let readers_ref = &readers;
        // `(reader, squared distance)` of every co-channel foreign reader
        // within the horizon of `n`, ascending.
        let heard_by = |n: &NodeChannel| {
            let (own, pos) = (n.cell as usize, n.pos);
            let column = own % g % REUSE_GRID;
            (own / g % REUSE_GRID..g)
                .step_by(REUSE_GRID)
                .flat_map(move |j| (column..g).step_by(REUSE_GRID).map(move |i| j * g + i))
                .take_while(|&r| r < spec.n_readers)
                .filter(move |&r| r != own) // own cell: capture, not the floor
                .filter_map(move |r| {
                    let reader = &readers_ref[r];
                    let (dx, dy, dz) = (pos.x - reader.x, pos.y - reader.y, pos.z - reader.z);
                    let d2 = dx * dx + dy * dy + dz * dz;
                    (d2 <= r2).then_some((r as u32, d2)) // else past the horizon
                })
        };
        // Count per chunk, then a prefix sum, so the flat array is
        // allocated once at its size and each chunk fills its own span.
        let mut sink_offsets = vec![0usize; n + 1];
        par_spans("net.interference.chunk", &mut sink_offsets[1..], chunk_ends(n), |k, counts| {
            for (count, node) in counts.iter_mut().zip(&nodes[k * NODE_CHUNK..]) {
                *count = heard_by(node).count();
            }
        });
        for a in 0..n {
            sink_offsets[a + 1] += sink_offsets[a];
        }
        let mut sinks = vec![(0u32, 0.0f64); sink_offsets[n]];
        let sink_ends = chunk_ends(n).map(|end| sink_offsets[end]);
        par_spans("net.interference.chunk", &mut sinks, sink_ends, |k, span| {
            let chunk = nodes[k * NODE_CHUNK..].iter().take(NODE_CHUNK);
            // `d2.sqrt()` is `n.pos.distance_to(reader)`, the same sum.
            let heard = chunk.flat_map(|n| {
                heard_by(n)
                    .map(|(r, d2)| (r, db_to_lin_pow(n.reply_db_at_1m - phy.tl_db(d2.sqrt()))))
            });
            for (slot, sink) in span.iter_mut().zip(heard) {
                *slot = sink;
            }
        });
        drop(stage);

        // Routes: per cell, planned over the closed-form hop model, one
        // pool task per cell writing its plan into its own cell-major
        // span of the table.
        let stage = vab_obs::time_stage("net.routing");
        let pipe_radius_m = PIPE_RADIUS_PITCH_MULT * spec.node_pitch_m();
        let route_seed = derive_seed(spec.seed, STREAM_SCALE_ROUTE);
        let noise_hop_db = phy.noise_hop_db;
        let hop_prob = |from: &RouteNode, to: &RouteNode| -> f64 {
            let n = &nodes[from.addr as usize];
            let d = from.pos.distance_to(&to.pos).value();
            let snr_db = n.reply_db_at_1m - phy.tl_db(d) - noise_hop_db;
            phy.frame_success(db_to_lin_pow(snr_db))
        };
        let mut routes = vec![RelayRoute { addr: 0, relays: Vec::new(), delivery_prob: 0.0 }; n];
        let mut end = 0;
        let cell_ends = cell_members.iter().map(|members| {
            end += members.len();
            end
        });
        par_spans("net.routing.cell", &mut routes, cell_ends, |c, span| {
            let rns: Vec<RouteNode> = cell_members[c]
                .iter()
                .map(|&a| {
                    let n = &nodes[a as usize];
                    RouteNode { addr: a, pos: n.pos, direct_prob: n.direct_success }
                })
                .collect();
            let planned = plan_routes(
                spec.policy,
                &rns,
                readers[c],
                pipe_radius_m,
                derive_seed(route_seed, c as u64),
                &hop_prob,
            );
            for (slot, route) in span.iter_mut().zip(planned) {
                *slot = route;
            }
        });
        // Every route names its source, and the cells partition the
        // addresses: one in-place cycle walk puts each route at its
        // address, each swap settling one of them.
        for a in 0..n {
            while routes[a].addr as usize != a {
                let home = routes[a].addr as usize;
                assert_ne!(routes[home].addr as usize, home, "two routes for one address");
                routes.swap(a, home);
            }
        }
        drop(stage);

        let contention_master = derive_seed(spec.seed, STREAM_SCALE_CONTENTION);
        let decode_master = derive_seed(spec.seed, STREAM_SCALE_DECODE);
        let cell_seeds = (0..spec.n_readers as u64)
            .map(|c| (derive_seed(contention_master, c), derive_seed(decode_master, c)))
            .collect();
        Self {
            phy,
            seed: spec.seed,
            readers,
            nodes,
            cell_members,
            routes,
            horizon_m,
            sink_offsets,
            sinks,
            max_range_m,
            noise_lin,
            capture: CaptureModel::default(),
            cell_seeds,
            max_window: MAX_CELL_WINDOW,
            max_rounds: MAX_SCALE_ROUNDS,
        }
    }

    /// Whether a served node uplinks through its planned route rather
    /// than its direct link: always for relay-discovered nodes, and for
    /// directly-discovered nodes whenever the route's clean delivery
    /// beats the direct link's (a rim node ALOHA barely reached should
    /// not be monitored over that same barely-closing link).
    fn uses_route(&self, a: usize, direct: &[bool], relayed: &[bool]) -> bool {
        if relayed[a] {
            return true;
        }
        let route = &self.routes[a];
        match route.relays.last() {
            Some(&last) => {
                direct[last as usize] && route.delivery_prob > self.nodes[a].direct_success
            }
            None => false,
        }
    }

    /// Runs the ocean tier's monitoring phase: per-cell TDMA over the
    /// served nodes (routed nodes billed one slot per hop), cross-cell
    /// interference as a 1/round duty floor, and expected-value goodput
    /// per node.
    pub fn run_steady_state(&self, inv: &NetInventoryReport) -> ScaleSteadyReport {
        let _t = vab_obs::time_stage("net.steady_state");
        let r = self.readers.len();
        let (direct, relayed) = inv.reach_flags();
        let served = |a: usize| direct[a] || relayed[a];
        // Slots each cell's round needs: one per direct node, hops() per
        // routed node.
        let mut n_slots = vec![0u64; r];
        let mut cell_range = vec![0.0f64; r];
        for n in &self.nodes {
            let a = n.addr as usize;
            if !served(a) {
                continue;
            }
            let slots = if self.uses_route(a, &direct, &relayed) {
                self.routes[a].hops() as u64
            } else {
                1
            };
            n_slots[n.cell as usize] += slots;
            cell_range[n.cell as usize] = cell_range[n.cell as usize].max(n.d_reader_m);
        }
        // Steady-state interference floor per reader: every served
        // foreign in-horizon node transmits in 1 of its cell's slots.
        let mut floors = vec![0.0f64; r];
        for n in &self.nodes {
            let a = n.addr as usize;
            if !served(a) {
                continue;
            }
            let duty = 1.0 / n_slots[n.cell as usize] as f64;
            for &(victim, rx) in self.sinks_of(n.addr) {
                floors[victim as usize] += rx * duty;
            }
        }
        let round_s: Vec<f64> =
            (0..r).map(|c| n_slots[c] as f64 * self.phy.slot_duration_s(cell_range[c])).collect();
        let mut goodputs: Vec<f64> = Vec::new();
        let mut hops_sum = 0u64;
        let mut aggregate = 0.0;
        for n in &self.nodes {
            let a = n.addr as usize;
            let c = n.cell as usize;
            if round_s[c] <= 0.0 || !served(a) {
                continue;
            }
            let floored = |node: &NodeChannel| {
                self.phy.frame_success(node.rx_reader_lin / (self.noise_lin + floors[c]))
            };
            let delivery = if self.uses_route(a, &direct, &relayed) {
                let route = &self.routes[a];
                hops_sum += route.hops() as u64;
                // Re-floor the final (relay → reader) hop: the planner
                // priced it on a clean channel.
                let last = &self.nodes[*route.relays.last().expect("routed") as usize];
                if last.direct_success > 1e-12 {
                    route.delivery_prob / last.direct_success * floored(last)
                } else {
                    0.0
                }
            } else {
                hops_sum += 1;
                floored(n)
            };
            let g = PAYLOAD_BITS as f64 * delivery / round_s[c];
            goodputs.push(g);
            aggregate += g;
        }
        let served = goodputs.len();
        ScaleSteadyReport {
            served,
            aggregate_capacity_bps: aggregate,
            mean_goodput_bps: if served > 0 { aggregate / served as f64 } else { 0.0 },
            jain_fairness: jain_fairness(&goodputs),
            mean_hops: if served > 0 { hops_sum as f64 / served as f64 } else { 0.0 },
        }
    }
}

/// Ends of the [`NODE_CHUNK`]-address chunks of an `n`-node table (the
/// last one may be partial).
fn chunk_ends(n: usize) -> impl Iterator<Item = usize> {
    (1..=n.div_ceil(NODE_CHUNK)).map(move |k| (k * NODE_CHUNK).min(n))
}

/// Splits `table` at the ascending `ends` (the last one is its length)
/// and runs `task(k, span k)` for every span as one compute-pool task
/// inside its own `stage`, so the task's allocations are profiled
/// whichever thread runs it. The spans are disjoint, so each task writes
/// only its own; a task's panic resumes here.
fn par_spans<T: Send>(
    stage: &'static str,
    table: &mut [T],
    ends: impl Iterator<Item = usize>,
    task: impl Fn(usize, &mut [T]) + Sync,
) {
    let mut spans = Vec::with_capacity(ends.size_hint().0);
    let (mut rest, mut start) = (table, 0);
    for end in ends {
        let (span, tail) = rest.split_at_mut(end - start);
        spans.push(Mutex::new(span));
        (rest, start) = (tail, end);
    }
    let ran = par_map(spans.len(), |k| {
        let _t = vab_obs::time_stage(stage);
        task(k, &mut spans[k].lock().expect("only its own task locks a span"));
    });
    for outcome in ran {
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Index of the reader nearest `p`, the first one on ties: what a scan of
/// every reader with a strict `<` returns. Readers sit row-major on a
/// `g × g` grid over the `x_m × y_m` box (reader `r` at column `r % g`,
/// row `r / g`), so only the 3 × 3 block of grid positions around `p`'s
/// grid cell is scanned, in ascending index: any reader outside the block
/// has a counterpart inside it that is at least one pitch closer on one
/// axis and no farther on the other (`DESIGN.md` gives the argument).
/// When a block position has no reader (a partial last row), the
/// argument has no counterpart to point at, and every reader is scanned.
fn nearest_reader(readers: &[Position], g: usize, x_m: f64, y_m: f64, p: &Position) -> u32 {
    let cell = |v: f64, extent: f64| ((v / extent * g as f64) as usize).min(g - 1);
    let (ci, cj) = (cell(p.x, x_m), cell(p.y, y_m));
    let (i0, i1) = (ci.saturating_sub(1), (ci + 1).min(g - 1));
    let (j0, j1) = (cj.saturating_sub(1), (cj + 1).min(g - 1));
    if j1 * g + i1 >= readers.len() {
        return nearest_among(readers, p, 0..readers.len());
    }
    nearest_among(readers, p, (j0..=j1).flat_map(|j| (i0..=i1).map(move |i| j * g + i)))
}

/// The first of the `candidates` (reader indices, ascending) nearest `p`.
fn nearest_among(
    readers: &[Position],
    p: &Position,
    candidates: impl Iterator<Item = usize>,
) -> u32 {
    let mut best = (0u32, f64::INFINITY);
    for c in candidates {
        let d = p.distance_to(&readers[c]).value();
        if d < best.1 {
            best = (c as u32, d);
        }
    }
    best.0
}

/// Standard normal draw (Box–Muller; two uniform draws per sample).
fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1] — ln stays finite
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Outcome of the scale monitoring phase (aggregates only — per-node
/// vectors at 100k nodes belong in memory, not in reports).
#[derive(Debug, Clone)]
pub struct ScaleSteadyReport {
    /// Nodes served (direct + relayed).
    pub served: usize,
    /// Network-wide goodput, bits/s, summed over concurrent cells.
    pub aggregate_capacity_bps: f64,
    /// Mean per-served-node goodput, bits/s.
    pub mean_goodput_bps: f64,
    /// Jain fairness index over served-node goodputs, in `(0, 1]`.
    pub jain_fairness: f64,
    /// Mean uplink transmissions per served delivery.
    pub mean_hops: f64,
}

/// Both phases of one ocean-scale deployment.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The deployment spec.
    pub spec: ScaleSpec,
    /// Interference horizon used, metres.
    pub horizon_m: f64,
    /// Discovery outcome.
    pub inventory: NetInventoryReport,
    /// Monitoring outcome.
    pub steady: ScaleSteadyReport,
}

impl ScaleReport {
    /// Canonical JSON payload: fixed key order, aggregates only —
    /// byte-identical for equal specs no matter where the deployment ran.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCALE_REPORT_SCHEMA.into())),
            ("scale_digest", Json::Str(format!("{:016x}", self.spec.digest()))),
            ("n_nodes", Json::Num(self.spec.n_nodes as f64)),
            ("n_readers", Json::Num(self.spec.n_readers as f64)),
            ("policy", Json::Str(self.spec.policy.as_str().into())),
            ("horizon_m", Json::Num(self.horizon_m)),
            (
                "inventory",
                Json::obj([
                    ("discovered_direct", Json::Num(self.inventory.n_direct() as f64)),
                    ("discovered_relayed", Json::Num(self.inventory.n_relayed() as f64)),
                    ("coverage", Json::Num(self.inventory.coverage())),
                    ("rounds", Json::Num(self.inventory.rounds as f64)),
                    ("slots_used", Json::Num(self.inventory.slots_used as f64)),
                    ("collisions", Json::Num(self.inventory.collisions as f64)),
                    ("relay_slots", Json::Num(self.inventory.relay_slots as f64)),
                ]),
            ),
            (
                "steady",
                Json::obj([
                    ("served", Json::Num(self.steady.served as f64)),
                    ("aggregate_capacity_bps", Json::Num(self.steady.aggregate_capacity_bps)),
                    ("mean_goodput_bps", Json::Num(self.steady.mean_goodput_bps)),
                    ("jain_fairness", Json::Num(self.steady.jain_fairness)),
                    ("mean_hops", Json::Num(self.steady.mean_hops)),
                ]),
            ),
        ])
    }
}

/// Builds the network for `spec` and runs both phases — the one-call
/// entry point the service layer and FN3 use.
pub fn run_scale_deployment(spec: &ScaleSpec) -> ScaleReport {
    let _t = vab_obs::time_stage("net.deployment");
    let net = Network::build(spec);
    let inventory = net.run_inventory();
    let steady = net.run_steady_state(&inventory);
    vab_obs::event!(
        "net.scale",
        "scale_deployment_done",
        n_nodes = spec.n_nodes,
        n_readers = spec.n_readers,
        coverage = inventory.coverage(),
        aggregate_bps = steady.aggregate_capacity_bps,
    );
    vab_obs::metrics::inc("net.scale_deployments", 1);
    ScaleReport { spec: spec.clone(), horizon_m: net.horizon_m, inventory, steady }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_deployment_is_deterministic() {
        let spec = ScaleSpec::ocean(64, 7);
        let a = run_scale_deployment(&spec);
        let b = run_scale_deployment(&spec);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn cells_partition_the_population_by_nearest_reader() {
        let spec = ScaleSpec::ocean(200, 3);
        let net = Network::build(&spec);
        let total: usize = net.cell_members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 200);
        for n in &net.nodes {
            let own = n.pos.distance_to(&net.readers[n.cell as usize]).value();
            for r in &net.readers {
                assert!(own <= n.pos.distance_to(r).value() + 1e-9);
            }
        }
    }

    #[test]
    fn ocean_deployment_covers_most_nodes_and_reports_sane_numbers() {
        let spec = ScaleSpec::ocean(256, 11);
        let r = run_scale_deployment(&spec);
        assert!(r.inventory.coverage() > 0.6, "coverage {}", r.inventory.coverage());
        assert!(r.steady.aggregate_capacity_bps > 0.0);
        assert!(r.steady.jain_fairness > 0.0 && r.steady.jain_fairness <= 1.0);
        assert!(r.steady.mean_hops >= 1.0);
        assert!(r.horizon_m > spec.node_pitch_m(), "horizon {} m", r.horizon_m);
    }

    #[test]
    fn routing_never_hurts_coverage() {
        let mut direct = ScaleSpec::ocean(256, 5);
        direct.policy = RoutePolicy::Direct;
        let mut vbf = direct.clone();
        vbf.policy = RoutePolicy::Vbf;
        let rd = run_scale_deployment(&direct);
        let rv = run_scale_deployment(&vbf);
        assert!(rv.inventory.coverage() >= rd.inventory.coverage());
    }

    #[test]
    fn digest_separates_specs() {
        let a = ScaleSpec::ocean(1024, 9);
        let mut b = a.clone();
        b.seed = 10;
        let mut c = a.clone();
        c.policy = RoutePolicy::ClusterHead;
        assert_eq!(a.digest(), ScaleSpec::ocean(1024, 9).digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn interaction_classes_are_singletons_without_sinks_and_colours_with_them() {
        // Up to 64 readers every FDM colour is used once: no sinks, and
        // every cell inventories on its own.
        for n in [256usize, 1296, 4096] {
            let net = Network::build(&ScaleSpec::ocean(n, 2023));
            assert!(net.sinks.is_empty(), "N = {n}");
            let singletons: Vec<Vec<u32>> =
                (0..net.readers.len() as u32).map(|c| vec![c]).collect();
            assert_eq!(net.interaction_classes(), singletons, "N = {n}");
        }
        // 144 readers on the 8 × 8 reuse plan: exactly the 64 colours.
        let spec = ScaleSpec::ocean(20_736, 2023);
        let net = Network::build(&spec);
        let g = (spec.n_readers as f64).sqrt().ceil() as usize;
        let colour = |c: usize| (c % g % REUSE_GRID) + REUSE_GRID * (c / g % REUSE_GRID);
        let mut by_colour: Vec<Vec<u32>> = vec![Vec::new(); REUSE_GRID * REUSE_GRID];
        for c in 0..spec.n_readers {
            by_colour[colour(c)].push(c as u32);
        }
        by_colour.sort();
        // Classes come ordered by their smallest cell, as sorting does.
        assert_eq!(net.interaction_classes(), by_colour);
    }

    /// The nearest-reader oracle: every reader in index order with a
    /// strict `<`, the scan [`nearest_reader`] replaces.
    fn nearest_by_full_scan(readers: &[Position], p: &Position) -> u32 {
        let mut best = (0u32, f64::INFINITY);
        for (c, r) in readers.iter().enumerate() {
            let d = p.distance_to(r).value();
            if d < best.1 {
                best = (c as u32, d);
            }
        }
        best.0
    }

    #[test]
    fn grid_lookup_matches_the_full_reader_scan() {
        let mut rng = seeded(0x6E1D);
        for n_readers in [1usize, 2, 10, 250, 256] {
            for (x_m, y_m) in [(4_000.0, 4_000.0), (6_000.0, 1_500.0), (300.0, 2_700.0)] {
                let spec = ScaleSpec { n_nodes: 1, n_readers, x_m, y_m, ..ScaleSpec::ocean(1, 5) };
                let readers = Network::build(&spec).readers;
                let g = (n_readers as f64).sqrt().ceil() as usize;
                let z = readers[0].z;
                let mut probes = Vec::new();
                // Cell edges (the tie lines between reader columns and
                // rows), one ULP either side of them, and the box corners.
                for k in 0..=g {
                    for l in 0..=g {
                        let (x, y) = (k as f64 * x_m / g as f64, l as f64 * y_m / g as f64);
                        for (dx, dy) in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)] {
                            let nudge =
                                |v: f64, d: i64| f64::from_bits((v.to_bits() as i64 + d) as u64);
                            probes.push(Position::new(
                                nudge(x, dx).max(0.0),
                                nudge(y, dy).max(0.0),
                                z,
                            ));
                        }
                    }
                }
                for (x, y) in [(0.0, 0.0), (x_m, 0.0), (0.0, y_m), (x_m, y_m)] {
                    probes.push(Position::new(x, y, z));
                }
                // Uniform positions over the box and the water column.
                for _ in 0..2_000 {
                    let (x, y) = (rng.random::<f64>() * x_m, rng.random::<f64>() * y_m);
                    probes.push(Position::new(x, y, z + rng.random::<f64>() * 90.0));
                }
                for p in &probes {
                    assert_eq!(
                        nearest_reader(&readers, g, x_m, y_m, p),
                        nearest_by_full_scan(&readers, p),
                        "{n_readers} readers over {x_m} × {y_m} m, node at {p:?}"
                    );
                }
            }
        }
    }

    /// Every field the build derives, exactly: `{:?}` prints each float
    /// in its shortest round-trip form.
    fn plan_text(net: &Network) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            net.nodes,
            net.cell_members,
            net.sink_offsets,
            net.sinks,
            net.routes,
            net.horizon_m.to_bits(),
            net.max_range_m.to_bits(),
        )
    }

    /// Builds `spec` at one and at eight workers and checks the plans are
    /// identical; returns the plan.
    fn same_plan_at_1_and_8_jobs(spec: &ScaleSpec) -> Network {
        vab_util::threads::set_jobs(1);
        let one = Network::build(spec);
        vab_util::threads::set_jobs(8);
        let eight = Network::build(spec);
        vab_util::threads::set_jobs(0);
        assert_eq!(plan_text(&one), plan_text(&eight), "{} nodes", spec.n_nodes);
        one
    }

    #[test]
    fn a_plan_inside_one_chunk_is_the_same_at_any_worker_count() {
        let spec = ScaleSpec::ocean(NODE_CHUNK / 2, 31);
        assert_eq!(chunk_ends(spec.n_nodes).collect::<Vec<_>>(), [NODE_CHUNK / 2]);
        same_plan_at_1_and_8_jobs(&spec);
    }

    #[test]
    fn a_plan_with_a_partial_last_chunk_is_the_same_at_any_worker_count() {
        let n = 2 * NODE_CHUNK + NODE_CHUNK / 3;
        let spec = ScaleSpec::ocean(n, 31);
        assert_eq!(chunk_ends(n).collect::<Vec<_>>(), [NODE_CHUNK, 2 * NODE_CHUNK, n]);
        // 81 readers: past the 64-channel plan, so the sink passes have a
        // span to fill in every chunk.
        let net = same_plan_at_1_and_8_jobs(&spec);
        let starts = std::iter::once(0).chain(chunk_ends(n));
        for (start, end) in starts.zip(chunk_ends(n)) {
            assert!(net.sink_offsets[end] > net.sink_offsets[start], "no sinks in {start}..{end}");
        }
    }

    #[test]
    fn reader_law_scales_as_sqrt_n() {
        for n in [256usize, 4096, 65_536] {
            let s = ScaleSpec::ocean(n, 1);
            assert_eq!(s.n_readers, (n as f64).sqrt() as usize, "N = {n}");
        }
    }
}
