//! The network engine: one node table, one slot resolver and one
//! inventory loop for every deployment.
//!
//! A [`Network`] is a cell plan — readers, the nodes each one serves,
//! every node's link to its own reader, the cross-cell interference sinks
//! and the planned uplink routes — filled by the link-budget constructor
//! ([`crate::channel`], the paper tier's one-reader plan) or the
//! closed-form constructor ([`crate::scale`], the ocean tier). Inventory
//! is framed ALOHA per cell over the unmodified `vab-mac` policy, with
//! physical-layer capture resolving each slot on top of the cross-cell
//! duty-weighted interference floor. The paper tier's sampled TDMA
//! steady state lives here too; the ocean tier's expected-value one lives
//! with its constructor. Both read the one node table.
//!
//! Every deployment is seed-pure. Inventory is the one parallel step:
//! cells interact only through the s-matrix entries some interference
//! sink wrote (every other entry is exactly `0.0`, and adding it to a
//! floor changes nothing), so the cells split into *interaction classes*
//! — the co-channel colours of an ocean plan, singletons when no cell
//! has sinks, the one cell of the paper tier. Each class runs its own
//! round loop with its own RNG streams, s-matrix and scratch, cells
//! ascending as before; classes run as tasks on the compute pool and
//! their discoveries merge back in (round, cell, slot) order. Nothing a
//! class computes depends on which thread ran it or when, so reports are
//! bit-identical at any worker count — which is also what keeps cached
//! and fresh results byte-identical across the `vab-svc` pool, the layer
//! that shards *across* topologies.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::RngExt;
use vab_acoustics::environment::Environment;
use vab_acoustics::geometry::Position;
use vab_acoustics::spreading::transmission_loss;
use vab_link::frame::LinkConfig;
use vab_mac::aloha::{AlohaReader, SlotOutcome};
use vab_mac::tdma::TdmaSchedule;
use vab_mac::Addr;
use vab_sim::baseline::{FrontEnd, SystemKind};
use vab_sim::scenario::Scenario;
use vab_util::db::power_db_sum;
use vab_util::json::Json;
use vab_util::rng::{derive_seed, seeded};
use vab_util::units::{Degrees, Hertz, Meters};

use crate::capture::{jain_fairness, CaptureModel};
use crate::route::RelayRoute;
use crate::topology::{NetEnv, NetworkSpec};

/// Payload carried per frame, bytes (a sensor report).
pub const PAYLOAD_BYTES: usize = 16;
/// Useful payload bits per frame.
pub const PAYLOAD_BITS: usize = PAYLOAD_BYTES * 8;
/// TDMA rounds simulated for the sampled steady-state phase.
pub const STEADY_ROUNDS: u32 = 50;

/// Minimum end-to-end relay delivery probability for an undiscovered rim
/// node to count as reachable through its planned route.
pub const RELAY_DISCOVERY_MIN: f64 = 0.05;

/// Schema tag of [`DeploymentReport::to_json`] payloads.
pub const REPORT_SCHEMA: &str = "vab-net-report/1";

const STREAM_STEADY: u64 = 0x57EA;

/// Shared PHY constants of one deployment, derived once from the same
/// reader/modem parameters the single-link tier uses.
#[derive(Debug, Clone)]
pub struct NetPhy {
    /// Acoustic environment.
    pub env: Environment,
    /// Carrier frequency.
    pub carrier: Hertz,
    /// Projector source level, dB re 1 µPa @ 1 m.
    pub source_level_db: f64,
    /// Broadside modulated gain of the node array, dB.
    pub modulated_gain_db: f64,
    /// Channel bits per frame.
    pub frame_bits: usize,
    /// FEC rate of the link stack.
    pub fec_rate: f64,
    /// Uplink bit rate, bits/s.
    pub bit_rate: f64,
    /// Reader noise power in the bit bandwidth (ambient + residual
    /// self-interference), dB.
    pub noise_reader_db: f64,
    /// Node-to-node hop noise power in the bit bandwidth (ambient only —
    /// a relay hop sees no reader self-interference), dB.
    pub noise_hop_db: f64,
    /// Sound speed, m/s.
    pub sound_speed: f64,
    /// Absorption at the carrier, dB/km: `env.absorption_db_per_km(carrier)`,
    /// evaluated once per plan rather than once per loss.
    absorption_db_per_km: f64,
}

impl NetPhy {
    /// Derives the constants for `n_pairs`-pair nodes in `env`.
    pub fn derive(env: NetEnv, n_pairs: usize) -> Self {
        let fe = Scenario::river(SystemKind::Vab { n_pairs }, Meters(1.0)).front_end();
        Self::with_front_end(env, &fe)
    }

    /// [`NetPhy::derive`] from the nodes' front end, already built at the
    /// canonical river carrier ([`Scenario::front_end`]), so a caller that
    /// needs the front end too runs its load co-design search once.
    pub(crate) fn with_front_end(env: NetEnv, fe: &FrontEnd) -> Self {
        let mut s = Scenario::river(fe.kind(), Meters(1.0));
        s.env = env.environment();
        let link = LinkConfig::vab_default();
        let carrier = s.carrier();
        let bit_rate = s.mod_params.bit_rate;
        let ambient = s.env.noise_psd(carrier).value();
        let si = s.reader.si_floor_psd().value();
        let bits_db = 10.0 * bit_rate.log10();
        Self {
            carrier,
            source_level_db: s.reader.source_level_db,
            modulated_gain_db: fe.modulated_gain_db(Degrees(0.0)),
            frame_bits: link.encoded_len(PAYLOAD_BYTES),
            fec_rate: link.fec.rate(),
            bit_rate,
            noise_reader_db: power_db_sum([ambient, si]) + bits_db,
            noise_hop_db: ambient + bits_db,
            sound_speed: s.env.sound_speed(),
            absorption_db_per_km: s.env.absorption_db_per_km(carrier),
            env: s.env,
        }
    }

    /// One-way transmission loss over `d` metres (1 m reference clamp):
    /// `env.transmission_loss(carrier, d)`, bit for bit, with the
    /// Francois–Garrison absorption taken from the plan.
    pub fn tl_db(&self, d: f64) -> f64 {
        transmission_loss(self.env.spreading, self.absorption_db_per_km, Meters(d.max(1.0))).value()
    }

    /// Wall-clock duration of one slot: the reply frame plus the
    /// round-trip propagation guard for a reader range of `range_m`.
    pub fn slot_duration_s(&self, range_m: f64) -> f64 {
        self.frame_bits as f64 / self.bit_rate + 2.0 * range_m / self.sound_speed
    }

    /// Decode probability of one frame at an effective per-bit SNR of
    /// `snr_lin` (interference folded in by the caller).
    ///
    /// Uses the closed-form noncoherent-orthogonal channel-bit BER and no
    /// coding-gain credit — a deliberate lower bound that keeps the
    /// capture model conservative.
    pub fn frame_success(&self, snr_lin: f64) -> f64 {
        let ber = vab_phy::ber::ber_noncoherent_orthogonal(snr_lin * self.fec_rate);
        (1.0 - ber).powi(self.frame_bits as i32)
    }

    /// Whether decode draw `u` succeeds for a capture at `sinr_lin`:
    /// `u < frame_success(sinr_lin)`, decided without evaluating
    /// `frame_success` when `u` clears `clean_success`, the node's
    /// `direct_success`, passed only when the slot's noise is at least the
    /// clean noise.
    ///
    /// Then the winner's SINR `p / (noise + (total − p))` is at or below
    /// its clean SNR `p / noise_clean`: `total − p ≥ 0`, since a float sum
    /// of non-negative powers is never below one of its terms, and
    /// correctly rounded division is monotone. `frame_success` is monotone
    /// in its argument up to `exp`'s last-ulp wobble, and `direct_success`
    /// is that function at the clean SNR: exactly so in the ocean tier,
    /// through a dB round trip worth ~1e-14 in the link-budget tier.
    /// `clean_success × (1 + 1e-9)` therefore bounds the decode probability
    /// with room to spare, and a `u` at or above it fails the draw exactly
    /// as the full evaluation would. Most captures fail it that way.
    pub(crate) fn decodes(&self, u: f64, sinr_lin: f64, clean_success: Option<f64>) -> bool {
        if clean_success.is_some_and(|p| u >= p * (1.0 + 1e-9)) {
            return false;
        }
        u < self.frame_success(sinr_lin)
    }
}

/// One node's link to its own reader — the node table's row.
#[derive(Debug, Clone, Copy)]
pub struct NodeChannel {
    /// MAC address (dense from 0 — the index into every per-node array).
    pub addr: Addr,
    /// Position (z positive down).
    pub pos: Position,
    /// Index of the node's cell (its reader).
    pub cell: u32,
    /// Distance to the node's own reader, metres.
    pub d_reader_m: f64,
    /// Effective backscatter reply level at 1 m, dB re 1 µPa
    /// (illumination − loss + gain + fading).
    pub reply_db_at_1m: f64,
    /// Linear received power at the node's own reader (µPa², the scale
    /// that superposes when replies collide).
    pub rx_reader_lin: f64,
    /// Frame-success probability of the direct link on a clean slot.
    pub direct_success: f64,
}

/// The part of a [`NodeChannel`] a contention slot reads: one dense
/// 16-byte row per member of an interaction class, so resolving a slot
/// never touches the 64-byte node table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRow {
    rx_reader_lin: f64,
    direct_success: f64,
}

impl SlotRow {
    fn of(node: &NodeChannel) -> Self {
        Self { rx_reader_lin: node.rx_reader_lin, direct_success: node.direct_success }
    }
}

/// A fully derived deployment — a cell plan — ready to run inventory and
/// steady state over.
#[derive(Debug, Clone)]
pub struct Network {
    /// Shared PHY constants.
    pub phy: NetPhy,
    /// Master seed of the spec the plan derives from.
    pub seed: u64,
    /// Reader positions, one per cell.
    pub readers: Vec<Position>,
    /// The node table, indexed by address.
    pub nodes: Vec<NodeChannel>,
    /// Per-cell member addresses, ascending.
    pub cell_members: Vec<Vec<Addr>>,
    /// Planned uplink route per node, indexed by address.
    pub routes: Vec<RelayRoute>,
    /// Interference horizon used to cull cross-cell interferers, metres
    /// (0 for a one-reader plan, which has no cross-cell interference).
    pub horizon_m: f64,
    /// Cross-cell interference sinks, node-major (CSR): node `a`'s are
    /// `sinks[sink_offsets[a]..sink_offsets[a + 1]]`, read through
    /// [`Network::sinks_of`].
    pub(crate) sink_offsets: Vec<usize>,
    /// The flat sink array `sink_offsets` indexes.
    pub(crate) sinks: Vec<(u32, f64)>,
    /// Largest node–reader separation, metres (sizes TDMA guards).
    pub max_range_m: f64,
    /// Reader noise power, linear.
    pub noise_lin: f64,
    /// The capture rule used for colliding slots.
    pub capture: CaptureModel,
    /// Per-cell `(contention, decode)` RNG seeds.
    pub cell_seeds: Vec<(u64, u64)>,
    /// ALOHA window ceiling of every cell.
    pub max_window: usize,
    /// Synchronized contention rounds after which inventory gives up —
    /// nodes whose SINR can never clear capture stay undiscovered (or go
    /// to the relay pass), so a cap is load-bearing.
    pub max_rounds: u32,
}

/// A network built by either constructor; kept under the ocean tier's
/// historical name.
pub type ScaleNetwork = Network;

impl Network {
    /// Node `addr`'s cross-cell interference sinks: for every co-channel
    /// foreign reader within [`Network::horizon_m`] of the node, readers
    /// ascending, `(reader index, linear received power at that reader)`.
    pub fn sinks_of(&self, addr: Addr) -> &[(u32, f64)] {
        let a = addr as usize;
        &self.sinks[self.sink_offsets[a]..self.sink_offsets[a + 1]]
    }

    /// Resolves one contention slot physically: the respondents' received
    /// powers superpose at their reader, the strongest reply captures iff
    /// its SINR over `noise_lin` (noise plus the cross-cell floor) clears
    /// the threshold, and a captured reply still has to decode (Bernoulli
    /// on the frame-success probability at its SINR). Respondents present
    /// but nothing decoded is a collision — the reader hears energy
    /// without a frame, exactly the signal the ALOHA window controller
    /// keys on.
    ///
    /// Respondents are indices into `table`, a cell's dense [`SlotRow`]s,
    /// and a `Single` names the winner's index. A lone respondent is
    /// resolved without copying its power; `powers` is scratch space for
    /// crowded slots, reused across slots.
    pub(crate) fn slot_outcome(
        &self,
        respondents: &[Addr],
        table: &[SlotRow],
        noise_lin: f64,
        decode: &mut StdRng,
        powers: &mut Vec<(Addr, f64)>,
    ) -> SlotOutcome {
        let candidate = match *respondents {
            [] => return SlotOutcome::Idle,
            [i] => self.capture.capture_lone(i, table[i as usize].rx_reader_lin, noise_lin),
            _ => {
                powers.clear();
                powers.extend(respondents.iter().map(|&i| (i, table[i as usize].rx_reader_lin)));
                self.capture.capture_candidate(powers, noise_lin)
            }
        };
        let Some((winner, sinr_lin)) = candidate else {
            return SlotOutcome::Collision;
        };
        let u = decode.random::<f64>();
        // The clean-SNR bound holds only at or above the clean noise: the
        // s-matrix floor can cancel to a tiny negative.
        let bound = (noise_lin >= self.noise_lin).then(|| table[winner as usize].direct_success);
        if self.phy.decodes(u, sinr_lin, bound) {
            SlotOutcome::Single(winner)
        } else {
            SlotOutcome::Collision
        }
    }

    /// Partitions the cells into *interaction classes*: the connected
    /// components of the graph whose edges are the `(victim reader,
    /// source cell)` pairs of [`Network::sinks_of`]. A cell's inventory reads
    /// and writes only s-matrix entries some sink wrote, and every other
    /// entry stays exactly `0.0`, so cells in different classes never
    /// affect each other. Classes come ordered by their smallest cell,
    /// each one ascending.
    pub(crate) fn interaction_classes(&self) -> Vec<Vec<u32>> {
        fn root(parent: &mut [u32], mut c: u32) -> u32 {
            while parent[c as usize] != c {
                parent[c as usize] = parent[parent[c as usize] as usize];
                c = parent[c as usize];
            }
            c
        }
        let r = self.readers.len();
        let mut parent: Vec<u32> = (0..r as u32).collect();
        for node in &self.nodes {
            for &(victim, _) in self.sinks_of(node.addr) {
                let (a, b) = (root(&mut parent, victim), root(&mut parent, node.cell));
                // The smaller cell becomes the root, so a class's root is
                // its first cell.
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        let mut class_of = vec![usize::MAX; r];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for c in 0..r as u32 {
            let root = root(&mut parent, c) as usize;
            if root == c as usize {
                class_of[root] = classes.len();
                classes.push(Vec::new());
            }
            classes[class_of[root]].push(c);
        }
        classes
    }

    /// Runs the discovery phase: every cell contends concurrently in
    /// synchronized rounds, with per-cell framed ALOHA, capture on top of
    /// the cross-cell duty-weighted interference floor, and a relay pass
    /// for rim nodes the direct link cannot reach.
    ///
    /// Each interaction class (cells linked by interference sinks) runs
    /// its own round loop; classes share nothing, so each is one task on
    /// the compute pool ([`vab_util::threads::par_map`]), which runs them
    /// inline when one worker or one class is enough. The report is
    /// bit-identical at every worker count: `rounds` is the largest
    /// class's round count and `discovered` is merged back into (round,
    /// cell, slot) order.
    pub fn run_inventory(&self) -> NetInventoryReport {
        let _t = vab_obs::time_stage("net.inventory");
        let n = self.nodes.len();
        let classes = self.interaction_classes();
        let outcomes: Vec<OnceLock<ClassInventory>> =
            classes.iter().map(|_| OnceLock::new()).collect();
        // Classes are pool tasks; each opens a child stage, so its
        // allocations land in the profile whichever thread runs it. The
        // outcome slots are this stage's own allocation, as `gate.json`
        // pins it; `par_map`'s buffers stay out of every stage.
        let ran = vab_util::threads::par_map(classes.len(), |k| {
            let _t = vab_obs::time_stage("net.inventory.class");
            let _ = outcomes[k].set(self.run_class(&classes[k]));
        });
        for outcome in ran {
            if let Err(payload) = outcome {
                std::panic::resume_unwind(payload);
            }
        }
        let outcomes: Vec<ClassInventory> =
            outcomes.into_iter().map(|o| o.into_inner().expect("every class ran")).collect();
        // Merge discoveries stably by (round, cell): each cell belongs to
        // one class, which lists its slots in order, so this is the
        // single-loop order.
        let mut found: Vec<(u32, u32, Addr)> =
            outcomes.iter().flat_map(|o| o.found.iter().copied()).collect();
        found.sort_by_key(|&(round, cell, _)| (round, cell));
        let discovered: Vec<Addr> = found.into_iter().map(|(.., a)| a).collect();
        let rounds = outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);
        let slots_used = outcomes.iter().map(|o| o.slots_used).sum();
        let collisions = outcomes.iter().map(|o| o.collisions).sum();
        // Relay pass: an undiscovered rim node is reachable if its
        // planned route ends at a discovered relay and the end-to-end
        // delivery probability is non-negligible.
        let mut direct = vec![false; n];
        for &a in &discovered {
            direct[a as usize] = true;
        }
        let mut relayed = Vec::new();
        let mut relay_slots = 0u64;
        for (a, route) in self.routes.iter().enumerate() {
            let Some(&last) = route.relays.last() else { continue };
            if !direct[a] && direct[last as usize] && route.delivery_prob >= RELAY_DISCOVERY_MIN {
                relayed.push(a as Addr);
                relay_slots += route.hops() as u64;
            }
        }
        let report = NetInventoryReport {
            n_nodes: n,
            discovered,
            relayed,
            rounds,
            slots_used,
            collisions,
            relay_slots,
            time_s: slots_used as f64 * self.phy.slot_duration_s(self.max_range_m),
        };
        vab_obs::event!(
            "net.inventory",
            "inventory_done",
            n_nodes = report.n_nodes,
            discovered = report.discovered.len(),
            rounds = report.rounds,
            slots = report.slots_used,
            collisions = report.collisions,
        );
        vab_obs::metrics::inc("net.inventories", 1);
        vab_obs::metrics::set("net.last_inventory_coverage_pct", report.coverage() * 100.0);
        report
    }

    /// Runs one interaction class's round loop over its own k×k s-matrix,
    /// cells ascending within each round (the Gauss–Seidel order: a cell
    /// sees the energy earlier cells retired this round).
    fn run_class(&self, cells: &[u32]) -> ClassInventory {
        struct Cell {
            reader: AlohaReader,
            pending: Vec<Addr>,
            contention: StdRng,
            decode: StdRng,
        }
        let k = cells.len();
        let local = |c: u32| cells.binary_search(&c).expect("sinks stay inside their class");
        // The class's members as dense [`SlotRow`]s, cells ascending and
        // each cell's members in order. Rounds run on indices into the
        // cell's members: `AlohaReader` treats addresses as opaque tokens
        // and draws slots in `pending` order, and each cell's rows keep its
        // members' order, so every draw and decision is the one the
        // addresses themselves would get.
        let n_rows = cells.iter().map(|&c| self.cell_members[c as usize].len()).sum();
        let mut table: Vec<SlotRow> = Vec::with_capacity(n_rows);
        let mut states: Vec<Cell> = cells
            .iter()
            .map(|&c| {
                let members = &self.cell_members[c as usize];
                let (contention, decode) = self.cell_seeds[c as usize];
                let w = members.len().next_power_of_two().clamp(4, self.max_window);
                table.extend(members.iter().map(|&a| SlotRow::of(&self.nodes[a as usize])));
                Cell {
                    reader: AlohaReader::with_max_window(w, self.max_window),
                    pending: (0..members.len() as Addr).collect(),
                    contention: seeded(contention),
                    decode: seeded(decode),
                }
            })
            .collect();
        // Pending cross-cell interference energy, bucketed by (victim
        // reader, source cell): floors are then O(k²) per round and
        // updates O(1) per discovery, instead of rescanning every node.
        // Each entry sums its source cell's members in address order.
        let mut s_matrix = vec![0.0f64; k * k];
        for (src, &c) in cells.iter().enumerate() {
            for &a in &self.cell_members[c as usize] {
                for &(victim, rx) in self.sinks_of(a) {
                    s_matrix[local(victim) * k + src] += rx;
                }
            }
        }
        let mut duties = vec![0.0f64; k];
        let mut powers = Vec::new();
        let mut out = ClassInventory::default();
        while out.rounds < self.max_rounds && states.iter().any(|c| !c.pending.is_empty()) {
            // Duty factor of each cell this round, snapshotted up front —
            // a member of cell c transmits in 1 of its w_c slots.
            for (duty, cell) in duties.iter_mut().zip(&states) {
                *duty =
                    if cell.pending.is_empty() { 0.0 } else { 1.0 / cell.reader.window() as f64 };
            }
            let mut first = 0;
            for (c, cell) in states.iter_mut().enumerate() {
                let members = &self.cell_members[cells[c] as usize];
                let rows = &table[first..first + members.len()];
                first += members.len();
                if cell.pending.is_empty() {
                    continue;
                }
                let mut floor = 0.0;
                for (src, &duty) in duties.iter().enumerate() {
                    if src != c {
                        floor += duty * s_matrix[c * k + src];
                    }
                }
                let noise = self.noise_lin + floor;
                let Cell { reader, pending, contention, decode } = cell;
                let before = reader.identified.len();
                reader.run_round_with(pending, contention, |resp| {
                    self.slot_outcome(resp, rows, noise, decode, &mut powers)
                });
                // Newly discovered nodes stop contending: retire their
                // energy from every victim reader's pending bucket.
                let new = &reader.identified[before..];
                for &i in new {
                    for &(victim, rx) in self.sinks_of(members[i as usize]) {
                        s_matrix[local(victim) * k + c] -= rx;
                    }
                }
                let round = out.rounds;
                out.found.extend(new.iter().map(|&i| (round, cells[c], members[i as usize])));
            }
            out.rounds += 1;
        }
        out.slots_used = states.iter().map(|c| c.reader.slots_used).sum();
        out.collisions = states.iter().map(|c| c.reader.collisions).sum();
        out
    }

    /// Runs the paper tier's monitoring phase: a TDMA round schedule over
    /// the `discovered` nodes (collision-free slots — TDMA is what
    /// inventory buys you), with each node's slot a Bernoulli draw at its
    /// clean-channel frame-success probability, drawn in `discovered`
    /// order.
    pub fn run_sampled_steady_state(&self, discovered: &[Addr]) -> SteadyStateReport {
        let _t = vab_obs::time_stage("net.steady_state");
        let n_slots = discovered.len().max(1) as u32;
        let mut schedule = TdmaSchedule::for_frames(
            n_slots,
            self.phy.frame_bits,
            self.phy.bit_rate,
            self.max_range_m,
            self.phy.sound_speed,
        );
        schedule.assign_all(discovered);
        let round_s = schedule.round_duration().value();
        let mut rng = seeded(derive_seed(self.seed, STREAM_STEADY));
        let horizon_s = STEADY_ROUNDS as f64 * round_s;
        let mut per_node: Vec<(Addr, f64)> = Vec::with_capacity(discovered.len());
        for &addr in discovered {
            let p = self.nodes[addr as usize].direct_success;
            let mut delivered = 0u32;
            for _ in 0..STEADY_ROUNDS {
                if rng.random::<f64>() < p {
                    delivered += 1;
                }
            }
            per_node.push((addr, delivered as f64 * PAYLOAD_BITS as f64 / horizon_s));
        }
        per_node.sort_by_key(|&(addr, _)| addr);
        let goodputs: Vec<f64> = per_node.iter().map(|&(_, g)| g).collect();
        let report = SteadyStateReport {
            aggregate_goodput_bps: goodputs.iter().sum(),
            jain_fairness: jain_fairness(&goodputs),
            round_duration_s: round_s,
            per_node_goodput_bps: per_node,
        };
        vab_obs::event!(
            "net.steady",
            "steady_state_done",
            scheduled = discovered.len(),
            aggregate_goodput_bps = report.aggregate_goodput_bps,
            jain = report.jain_fairness,
        );
        report
    }
}

/// One interaction class's share of an inventory.
#[derive(Debug, Default)]
struct ClassInventory {
    rounds: u32,
    slots_used: u64,
    collisions: u64,
    /// `(round, cell, addr)` of every discovery, in (round, cell, slot)
    /// order.
    found: Vec<(u32, u32, Addr)>,
}

/// Outcome of the discovery phase.
#[derive(Debug, Clone)]
pub struct NetInventoryReport {
    /// Deployed population size.
    pub n_nodes: usize,
    /// Addresses discovered directly by their cell's ALOHA, in discovery
    /// order (round, then cell, then slot).
    pub discovered: Vec<Addr>,
    /// Addresses unreachable directly but reached through their planned
    /// relay route, ascending.
    pub relayed: Vec<Addr>,
    /// Synchronized contention rounds used.
    pub rounds: u32,
    /// Contention slots spent, summed over all cells.
    pub slots_used: u64,
    /// Slots where energy was heard but nothing decoded, summed over all
    /// cells.
    pub collisions: u64,
    /// Extra TDMA slots the relay routes will bill per round.
    pub relay_slots: u64,
    /// Contention airtime at the worst-case slot length, seconds — for a
    /// one-reader plan, the wall-clock time to the end of inventory.
    pub time_s: f64,
}

impl NetInventoryReport {
    /// Directly discovered node count.
    pub fn n_direct(&self) -> usize {
        self.discovered.len()
    }

    /// Relay-reached node count.
    pub fn n_relayed(&self) -> usize {
        self.relayed.len()
    }

    /// Fraction of the population served (directly or via relays).
    pub fn coverage(&self) -> f64 {
        if self.n_nodes == 0 {
            return 1.0;
        }
        (self.n_direct() + self.n_relayed()) as f64 / self.n_nodes as f64
    }

    /// Per-address `(discovered directly, reached via relay)` flags.
    pub fn reach_flags(&self) -> (Vec<bool>, Vec<bool>) {
        let flags = |addrs: &[Addr]| {
            let mut f = vec![false; self.n_nodes];
            for &a in addrs {
                f[a as usize] = true;
            }
            f
        };
        (flags(&self.discovered), flags(&self.relayed))
    }
}

/// Outcome of the sampled monitoring phase.
#[derive(Debug, Clone)]
pub struct SteadyStateReport {
    /// Per-node goodput, bits/s, sorted by address.
    pub per_node_goodput_bps: Vec<(Addr, f64)>,
    /// Network-wide goodput, bits/s.
    pub aggregate_goodput_bps: f64,
    /// Jain fairness index over per-node goodputs, in `(0, 1]`.
    pub jain_fairness: f64,
    /// One TDMA round, seconds.
    pub round_duration_s: f64,
}

/// Both phases of one paper-tier deployment, plus the spec that produced
/// them.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// The deployment spec.
    pub spec: NetworkSpec,
    /// Discovery phase outcome.
    pub inventory: NetInventoryReport,
    /// Monitoring phase outcome (over the discovered nodes).
    pub steady: SteadyStateReport,
}

impl DeploymentReport {
    /// Canonical JSON payload: fixed key order, discovery list sorted,
    /// per-node goodputs sorted by address — byte-identical for equal
    /// specs no matter where or how the deployment ran.
    pub fn to_json(&self) -> Json {
        let mut discovered: Vec<Addr> = self.inventory.discovered.clone();
        discovered.sort_unstable();
        Json::obj([
            ("schema", Json::Str(REPORT_SCHEMA.into())),
            ("topology_digest", Json::Str(format!("{:016x}", self.spec.digest()))),
            (
                "inventory",
                Json::obj([
                    ("n_nodes", Json::Num(self.inventory.n_nodes as f64)),
                    (
                        "discovered",
                        Json::Arr(discovered.iter().map(|&a| Json::Num(a as f64)).collect()),
                    ),
                    ("coverage", Json::Num(self.inventory.coverage())),
                    ("rounds", Json::Num(self.inventory.rounds as f64)),
                    ("slots_used", Json::Num(self.inventory.slots_used as f64)),
                    ("collisions", Json::Num(self.inventory.collisions as f64)),
                    ("time_s", Json::Num(self.inventory.time_s)),
                ]),
            ),
            (
                "steady",
                Json::obj([
                    ("aggregate_goodput_bps", Json::Num(self.steady.aggregate_goodput_bps)),
                    ("jain_fairness", Json::Num(self.steady.jain_fairness)),
                    ("round_duration_s", Json::Num(self.steady.round_duration_s)),
                    (
                        "per_node_goodput_bps",
                        Json::Arr(
                            self.steady
                                .per_node_goodput_bps
                                .iter()
                                .map(|&(addr, g)| {
                                    Json::Arr(vec![Json::Num(addr as f64), Json::Num(g)])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// Builds the one-reader plan for `spec` and runs both phases — the
/// one-call entry point the service layer and the figures use.
pub fn run_deployment(spec: &NetworkSpec) -> DeploymentReport {
    let _t = vab_obs::time_stage("net.deployment");
    let net = Network::build_link_budget(spec);
    let inventory = net.run_inventory();
    let steady = net.run_sampled_steady_state(&inventory.discovered);
    DeploymentReport { spec: spec.clone(), inventory, steady }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use vab_util::db::db_to_lin_pow;

    // The decode-draw shortcut decides every slot whose noise is at least
    // the clean noise exactly as `u < frame_success(sinr)`, with the clean
    // success computed as either tier computes it: linear `p / noise`
    // (ocean) or through dB (link budget). Draws sit on the adversarial
    // points too: the decode probability itself and the bound.
    proptest! {
        #[test]
        fn decode_bound_never_changes_a_decision(
            snr_db in -20.0f64..25.0,
            npsd_db in 20.0f64..90.0,
            bits_db in 15.0f64..35.0,
            extra_noise in 0.0f64..4.0,
            others in prop::collection::vec(0.0f64..1.5, 0..4),
            u in 0.0f64..1.0,
        ) {
            let phy = NetPhy::derive(NetEnv::River, 4);
            let noise_db = npsd_db + bits_db;
            let rx_db = noise_db + snr_db;
            let (p, clean_noise) = (db_to_lin_pow(rx_db), db_to_lin_pow(noise_db));
            let ocean = phy.frame_success(p / clean_noise);
            let link = phy.frame_success(db_to_lin_pow(rx_db - npsd_db - bits_db));
            let powers: Vec<f64> =
                std::iter::once(p).chain(others.iter().map(|o| o * p)).collect();
            let total: f64 = powers.iter().sum();
            for noise in [clean_noise, clean_noise * (1.0 + extra_noise)] {
                let sinr = p / (noise + (total - p));
                let truth = phy.frame_success(sinr);
                for clean in [ocean, link] {
                    let bound = clean * (1.0 + 1e-9);
                    prop_assert!(truth <= bound, "{truth:e} > {bound:e} at sinr {sinr:e}");
                    for draw in [u, truth, bound, clean, truth.next_down(), bound.next_down()] {
                        let draw = draw.clamp(0.0, 1.0);
                        prop_assert_eq!(phy.decodes(draw, sinr, Some(clean)), draw < truth);
                        prop_assert_eq!(phy.decodes(draw, sinr, None), draw < truth);
                    }
                }
            }
        }
    }

    /// A one-reader plan whose PHY, clean noise and capture rule the
    /// slot-resolver properties run against.
    fn river_net() -> &'static Network {
        static NET: OnceLock<Network> = OnceLock::new();
        NET.get_or_init(|| Network::build_link_budget(&NetworkSpec::river(8, 3)))
    }

    /// The slot resolver's general path (`capture_candidate` over a
    /// copied slice) for one respondent: the lone-respondent oracle.
    fn general_outcome(
        net: &Network,
        row: SlotRow,
        noise: f64,
        decode: &mut StdRng,
    ) -> SlotOutcome {
        let Some((winner, sinr)) = net.capture.capture_candidate(&[(0, row.rx_reader_lin)], noise)
        else {
            return SlotOutcome::Collision;
        };
        let u = decode.random::<f64>();
        let bound = (noise >= net.noise_lin).then_some(row.direct_success);
        if net.phy.decodes(u, sinr, bound) {
            SlotOutcome::Single(winner)
        } else {
            SlotOutcome::Collision
        }
    }

    // A lone respondent's branch decides exactly what the general path
    // decides: the same capture SINR bits, the same outcome and the decode
    // stream left at the same place, for random powers and noises and at
    // the edges (zero, subnormal, huge and infinite powers; the clean noise
    // and its neighbours, where the decode bound switches on).
    proptest! {
        #[test]
        fn a_lone_respondent_resolves_like_the_general_path(
            power_db in -80.0f64..80.0,
            noise_db in -20.0f64..20.0,
            success in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let net = river_net();
            let clean = net.noise_lin;
            let subnormal = f64::MIN_POSITIVE / 3.0;
            let powers =
                [clean * db_to_lin_pow(power_db), 0.0, subnormal, 1e300, f64::INFINITY];
            let noises = [
                clean * db_to_lin_pow(noise_db),
                clean,
                clean.next_down(),
                clean.next_up(),
                0.0,
                subnormal,
                1e300,
            ];
            for p in powers {
                for direct_success in [success, net.phy.frame_success(p / clean)] {
                    let row = SlotRow { rx_reader_lin: p, direct_success };
                    for noise in noises {
                        let bits = |c: Option<(Addr, f64)>| c.map(|(a, sinr)| (a, sinr.to_bits()));
                        prop_assert_eq!(
                            bits(net.capture.capture_lone(0, p, noise)),
                            bits(net.capture.capture_candidate(&[(0, p)], noise)),
                            "sinr at p {:e}, noise {:e}", p, noise
                        );
                        let (mut lone, mut general) = (seeded(seed), seeded(seed));
                        let got = net.slot_outcome(&[0], &[row], noise, &mut lone, &mut Vec::new());
                        let want = general_outcome(net, row, noise, &mut general);
                        prop_assert_eq!(got, want, "outcome at p {:e}, noise {:e}", p, noise);
                        prop_assert_eq!(
                            lone.next_u64(),
                            general.next_u64(),
                            "decode stream at p {:e}, noise {:e}", p, noise
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deployment_is_deterministic() {
        let spec = NetworkSpec::river(24, 5);
        let a = run_deployment(&spec);
        let b = run_deployment(&spec);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn small_river_deployment_fully_inventories() {
        // 8 nodes within ~70 m in a river: every link is strong, so
        // inventory must find everyone and TDMA must serve everyone.
        let spec = NetworkSpec::river(8, 3);
        let r = run_deployment(&spec);
        assert_eq!(r.inventory.discovered.len(), 8, "coverage {}", r.inventory.coverage());
        assert!(r.steady.aggregate_goodput_bps > 0.0);
        assert!(r.steady.jain_fairness > 0.0 && r.steady.jain_fairness <= 1.0);
        assert_eq!(r.steady.per_node_goodput_bps.len(), 8);
    }

    #[test]
    fn slot_resolution_prefers_the_strong_node() {
        let spec = NetworkSpec::river(32, 9);
        let net = Network::build_link_budget(&spec);
        // Find the strongest and weakest nodes in the deployment.
        let by_power =
            |a: &&NodeChannel, b: &&NodeChannel| a.rx_reader_lin.total_cmp(&b.rx_reader_lin);
        let strongest = net.nodes.iter().max_by(by_power).unwrap();
        let weakest = net.nodes.iter().min_by(by_power).unwrap();
        let mut rng = seeded(1);
        let table: Vec<SlotRow> = net.nodes.iter().map(SlotRow::of).collect();
        let respondents = [strongest.addr, weakest.addr];
        match net.slot_outcome(&respondents, &table, net.noise_lin, &mut rng, &mut Vec::new()) {
            SlotOutcome::Single(a) => assert_eq!(a, strongest.addr),
            SlotOutcome::Collision => {} // capture below threshold is legal
            SlotOutcome::Idle => panic!("occupied slot cannot be idle"),
        }
    }

    #[test]
    fn steady_state_with_nobody_discovered_is_sane() {
        let spec = NetworkSpec::river(4, 2);
        let net = Network::build_link_budget(&spec);
        let s = net.run_sampled_steady_state(&[]);
        assert_eq!(s.aggregate_goodput_bps, 0.0);
        assert_eq!(s.jain_fairness, 1.0);
    }

    #[test]
    fn a_one_reader_plan_has_no_interference_and_direct_routes() {
        let net = Network::build_link_budget(&NetworkSpec::river(16, 4));
        assert_eq!(net.readers.len(), 1);
        assert_eq!(net.cell_members, vec![(0..16).collect::<Vec<Addr>>()]);
        assert!(net.sinks.is_empty());
        assert!(net.routes.iter().all(|r| r.relays.is_empty()));
        let inv = net.run_inventory();
        assert!(inv.relayed.is_empty());
        assert_eq!(inv.relay_slots, 0);
    }
}
