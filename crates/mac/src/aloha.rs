//! Framed slotted ALOHA with window adaptation.
//!
//! For an unknown node population, the reader announces a contention window
//! of `w` slots; each unidentified node picks one uniformly and backscatters
//! its address there. The reader classifies every slot as idle, single
//! (success — that node is identified and told to shut up) or collision,
//! then adapts `w` toward the remaining population (Q-algorithm style:
//! too many collisions → double, too many idles → halve).

use crate::Addr;
use rand::{Rng, RngExt};

/// What the reader observed in one contention slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// Nobody answered.
    Idle,
    /// Exactly one node answered (identified).
    Single(Addr),
    /// Two or more nodes answered on top of each other.
    Collision,
}

/// Classifies a slot given the addresses that chose it.
fn classify_slot(respondents: &[Addr]) -> SlotOutcome {
    match respondents {
        [] => SlotOutcome::Idle,
        [one] => SlotOutcome::Single(*one),
        _ => SlotOutcome::Collision,
    }
}

/// Reader-side framed-ALOHA controller.
#[derive(Debug, Clone)]
pub struct AlohaReader {
    window: usize,
    min_window: usize,
    max_window: usize,
    /// Identified node addresses, in discovery order.
    pub identified: Vec<Addr>,
    /// Total slots spent.
    pub slots_used: u64,
    /// Total collisions observed.
    pub collisions: u64,
    scratch: RoundScratch,
}

/// Per-round buffers, kept across rounds so a round allocates only when
/// the window or the population outgrows every earlier round.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    /// Slot drawn by each `pending` entry, in `pending` order.
    slot_of: Vec<u32>,
    /// Counting-sort offsets; after bucketing, `end[s]` is one past slot
    /// `s`'s last respondent in `bucket`.
    end: Vec<u32>,
    /// Respondents grouped by slot, each slot in `pending` order.
    bucket: Vec<Addr>,
    /// `(slot, pending index)` of each `bucket` entry.
    origin: Vec<(u32, u32)>,
}

impl AlohaReader {
    /// Creates a controller with an initial window of `w` slots and the
    /// classic 256-slot window ceiling (the paper-scale default every
    /// single-reader deployment uses).
    pub fn new(w: usize) -> Self {
        Self::with_max_window(w, 256)
    }

    /// Creates a controller whose window may grow up to `max_window`
    /// slots — ocean-scale cells with thousands of contenders need more
    /// headroom than the classic 256-slot ceiling.
    pub fn with_max_window(w: usize, max_window: usize) -> Self {
        assert!(w >= 1 && max_window >= w);
        Self {
            window: w,
            min_window: 1,
            max_window,
            identified: Vec::new(),
            slots_used: 0,
            collisions: 0,
            scratch: RoundScratch::default(),
        }
    }

    /// Current contention window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs one contention round against the (hidden) set of unidentified
    /// nodes, using `rng` for their slot choices.
    ///
    /// `pending` is mutated: identified nodes are removed.
    ///
    /// Slots are resolved with the abstract `classify_slot` rule (any two
    /// respondents collide). Use [`AlohaReader::run_round_with`] to plug in
    /// a physical-layer resolver instead.
    pub fn run_round<R: Rng + ?Sized>(&mut self, pending: &mut Vec<Addr>, rng: &mut R) {
        self.run_round_with(pending, rng, classify_slot)
    }

    /// Like [`AlohaReader::run_round`], but each slot is resolved by
    /// `resolve`, which maps the addresses that transmitted in the slot to
    /// a [`SlotOutcome`].
    ///
    /// This is the seam `vab-net` uses to replace the abstract
    /// "two respondents = collision" rule with physical-layer capture:
    /// superpose the respondents' received powers, decide capture by
    /// per-node SINR, and report `Single` only when one reply both captures
    /// the hydrophone and decodes. `resolve` is called once per *occupied*
    /// slot, in slot order, and never with an empty slice: an empty slot
    /// is idle without a call. The resolver must not return `Idle` for an
    /// occupied slot and may return `Single(addr)` only for an `addr` that
    /// is actually in the slot — window adaptation and identification both
    /// trust it. `pending` holds distinct addresses.
    ///
    /// Every node draws its slot in `pending` order; one stable counting
    /// sort then groups the respondents by slot (each slot's slice in
    /// `pending` order) and tags each with its slot and `pending` index.
    /// The round walks those runs of equal slots, so past the O(w) offsets
    /// pass it costs O(respondents), however sparse the window. A winner
    /// leaves `pending` by its index, and `pending` is compacted once,
    /// keeping its order. The buffers belong to the reader, so rounds
    /// allocate only while they grow.
    pub fn run_round_with<R: Rng + ?Sized, F>(
        &mut self,
        pending: &mut Vec<Addr>,
        rng: &mut R,
        mut resolve: F,
    ) where
        F: FnMut(&[Addr]) -> SlotOutcome,
    {
        let w = self.window;
        let RoundScratch { slot_of, end, bucket, origin } = &mut self.scratch;
        slot_of.clear();
        if w.is_power_of_two() {
            // `random_range(0..w)` draws `next_u64() % w`, which for a
            // power of two is this mask: the same slots, without a division.
            let mask = w as u64 - 1;
            slot_of.extend(pending.iter().map(|_| (rng.next_u64() & mask) as u32));
        } else {
            slot_of.extend(pending.iter().map(|_| rng.random_range(0..w) as u32));
        }
        // Counting sort: counts, exclusive prefix sums, then a stable
        // placement that tags every entry with its slot and `pending` index.
        end.clear();
        end.resize(w, 0);
        for &s in slot_of.iter() {
            end[s as usize] += 1;
        }
        let mut start = 0;
        for e in end.iter_mut() {
            let count = *e;
            *e = start;
            start += count;
        }
        let n = pending.len();
        bucket.clear();
        bucket.resize(n, 0);
        origin.clear();
        origin.resize(n, (0, 0));
        for (i, (&addr, &s)) in pending.iter().zip(slot_of.iter()).enumerate() {
            let cursor = &mut end[s as usize];
            bucket[*cursor as usize] = addr;
            origin[*cursor as usize] = (s, i as u32);
            *cursor += 1;
        }
        // Walk the occupied slots, one run of equal slots at a time; every
        // other slot of the window is idle. A winner's `slot_of` entry is
        // no longer needed, so it marks the winner for removal.
        const WON: u32 = u32::MAX;
        let mut occupied = 0usize;
        let mut idles = 0usize;
        let mut colls = 0usize;
        let mut lo = 0;
        while lo < n {
            let slot = origin[lo].0;
            let hi = lo + origin[lo..].iter().take_while(|&&(s, _)| s == slot).count();
            let respondents = &bucket[lo..hi];
            occupied += 1;
            match resolve(respondents) {
                SlotOutcome::Idle => idles += 1,
                SlotOutcome::Single(addr) => {
                    self.identified.push(addr);
                    if let Some(j) = respondents.iter().position(|&a| a == addr) {
                        slot_of[origin[lo + j].1 as usize] = WON;
                    }
                }
                SlotOutcome::Collision => {
                    colls += 1;
                    self.collisions += 1;
                }
            }
            lo = hi;
        }
        idles += w - occupied;
        self.slots_used += w as u64;
        // Identified nodes leave `pending`; everyone else keeps their place.
        let mut kept = 0;
        for i in 0..n {
            if slot_of[i] != WON {
                pending[kept] = pending[i];
                kept += 1;
            }
        }
        pending.truncate(kept);
        // Window adaptation: aim for ~one node per slot.
        if colls * 2 > w {
            self.window = (self.window * 2).min(self.max_window);
        } else if idles * 2 > w && colls == 0 {
            self.window = (self.window / 2).max(self.min_window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::seeded;

    #[test]
    fn masked_slot_draws_match_random_range_for_power_of_two_windows() {
        for w in (0..=16).map(|k| 1usize << k) {
            let (mut a, mut b) = (seeded(w as u64), seeded(w as u64));
            for _ in 0..1_000 {
                let ranged = a.random_range(0..w) as u32;
                let masked = (b.next_u64() & (w as u64 - 1)) as u32;
                assert_eq!(ranged, masked, "window {w}");
            }
        }
    }

    /// The bucketing round as it stood before the counting sort, kept as
    /// the oracle: one `Vec` per slot, every slot resolved before any
    /// bookkeeping, one `retain` per discovery.
    fn naive_round_with<R: Rng + ?Sized, F>(
        reader: &mut AlohaReader,
        pending: &mut Vec<Addr>,
        rng: &mut R,
        mut resolve: F,
    ) where
        F: FnMut(&[Addr]) -> SlotOutcome,
    {
        let w = reader.window;
        let mut chosen: Vec<Vec<Addr>> = vec![Vec::new(); w];
        for &addr in pending.iter() {
            let s = rng.random_range(0..w);
            chosen[s].push(addr);
        }
        let outcomes: Vec<SlotOutcome> = chosen.iter().map(|v| resolve(v)).collect();
        let mut idles = 0usize;
        let mut colls = 0usize;
        for o in &outcomes {
            reader.slots_used += 1;
            match o {
                SlotOutcome::Idle => idles += 1,
                SlotOutcome::Single(addr) => {
                    reader.identified.push(*addr);
                    pending.retain(|&a| a != *addr);
                }
                SlotOutcome::Collision => {
                    colls += 1;
                    reader.collisions += 1;
                }
            }
        }
        if colls * 2 > w {
            reader.window = (reader.window * 2).min(reader.max_window);
        } else if idles * 2 > w && colls == 0 {
            reader.window = (reader.window / 2).max(reader.min_window);
        }
    }

    /// A capture-style resolver: with probability 1/occupancy on a draw
    /// from `decode`, the respondent at a drawn position of the slot
    /// decodes, so the oracle comparison also pins the order slots are
    /// resolved in, the order of the respondents within each slot, and
    /// which entry leaves `pending` when the winner is not the first.
    fn capture(decode: &mut rand::rngs::StdRng, resp: &[Addr]) -> SlotOutcome {
        if resp.is_empty() {
            return SlotOutcome::Idle;
        }
        if decode.random::<f64>() < 1.0 / resp.len() as f64 {
            SlotOutcome::Single(resp[decode.random_range(0..resp.len())])
        } else {
            SlotOutcome::Collision
        }
    }

    #[test]
    fn counting_sort_rounds_match_the_naive_oracle() {
        for seed in 0..8u64 {
            for population in [0usize, 1, 2, 7, 33, 200, 1000] {
                // Sparse addresses in a seed-shuffled order, so neither
                // the address values nor `pending` order are trivial.
                let mut members: Vec<Addr> = (0..population as Addr).map(|i| 3 * i + 1).collect();
                let mut shuffle = seeded(seed ^ 0x5F);
                for i in (1..members.len()).rev() {
                    members.swap(i, shuffle.random_range(0..=i));
                }
                // 3, 5 and 100 (and the windows they grow into) draw
                // through `random_range`, the powers of two through the mask.
                for window in [1usize, 2, 3, 4, 5, 16, 64, 100, 512] {
                    for use_capture in [false, true] {
                        let mut fast = AlohaReader::with_max_window(window, 2048);
                        let mut slow = fast.clone();
                        let (mut fast_pending, mut slow_pending) =
                            (members.clone(), members.clone());
                        let (mut fast_rng, mut slow_rng) = (seeded(seed), seeded(seed));
                        let (mut fast_dec, mut slow_dec) = (seeded(!seed), seeded(!seed));
                        for round in 0..40 {
                            if use_capture {
                                fast.run_round_with(&mut fast_pending, &mut fast_rng, |r| {
                                    capture(&mut fast_dec, r)
                                });
                                naive_round_with(
                                    &mut slow,
                                    &mut slow_pending,
                                    &mut slow_rng,
                                    |r| capture(&mut slow_dec, r),
                                );
                            } else {
                                fast.run_round(&mut fast_pending, &mut fast_rng);
                                naive_round_with(
                                    &mut slow,
                                    &mut slow_pending,
                                    &mut slow_rng,
                                    classify_slot,
                                );
                            }
                            let at = format!(
                                "seed {seed}, n {population}, w {window}, capture {use_capture}, round {round}"
                            );
                            assert_eq!(fast.identified, slow.identified, "identified: {at}");
                            assert_eq!(fast_pending, slow_pending, "pending: {at}");
                            assert_eq!(fast.window(), slow.window(), "window: {at}");
                            assert_eq!(fast.slots_used, slow.slots_used, "slots: {at}");
                            assert_eq!(fast.collisions, slow.collisions, "collisions: {at}");
                            if slow_pending.is_empty() {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `resolve` sees exactly the occupied slots, once each and in slot
    /// order, with the slices the naive round hands it; the naive round's
    /// calls on empty slots are the ones the fast round skips.
    #[test]
    fn resolve_is_called_once_per_occupied_slot() {
        for seed in 0..4u64 {
            for population in [1usize, 5, 40, 300] {
                for window in [1usize, 3, 8, 100, 256] {
                    let members: Vec<Addr> = (0..population as Addr).map(|i| 5 * i + 2).collect();
                    let mut fast = AlohaReader::with_max_window(window, 1024);
                    let mut slow = fast.clone();
                    let (mut fast_pending, mut slow_pending) = (members.clone(), members);
                    let (mut fast_rng, mut slow_rng) = (seeded(seed), seeded(seed));
                    for round in 0..20 {
                        let mut fast_calls: Vec<Vec<Addr>> = Vec::new();
                        fast.run_round_with(&mut fast_pending, &mut fast_rng, |r| {
                            assert!(!r.is_empty(), "an empty slot reached the resolver");
                            fast_calls.push(r.to_vec());
                            classify_slot(r)
                        });
                        let mut slow_calls: Vec<Vec<Addr>> = Vec::new();
                        naive_round_with(&mut slow, &mut slow_pending, &mut slow_rng, |r| {
                            if !r.is_empty() {
                                slow_calls.push(r.to_vec());
                            }
                            classify_slot(r)
                        });
                        let at = format!("seed {seed}, n {population}, w {window}, round {round}");
                        assert_eq!(fast_calls, slow_calls, "occupied slots: {at}");
                        assert_eq!(fast_pending, slow_pending, "pending: {at}");
                        assert_eq!(fast.window(), slow.window(), "window: {at}");
                        if slow_pending.is_empty() {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classification() {
        assert_eq!(classify_slot(&[]), SlotOutcome::Idle);
        assert_eq!(classify_slot(&[7]), SlotOutcome::Single(7));
        assert_eq!(classify_slot(&[1, 2]), SlotOutcome::Collision);
    }

    #[test]
    fn eventually_identifies_everyone() {
        let mut rng = seeded(71);
        let mut reader = AlohaReader::new(4);
        let mut pending: Vec<Addr> = (1..=20).collect();
        let mut rounds = 0;
        while !pending.is_empty() && rounds < 100 {
            reader.run_round(&mut pending, &mut rng);
            rounds += 1;
        }
        assert!(pending.is_empty(), "{} nodes never identified", pending.len());
        let mut ids = reader.identified.clone();
        ids.sort();
        assert_eq!(ids, (1..=20).collect::<Vec<Addr>>());
    }

    #[test]
    fn injected_resolver_can_capture_collisions() {
        // A resolver where the lowest address always captures the slot:
        // every occupied slot identifies someone, so no collisions are ever
        // recorded and inventory still completes.
        let mut rng = seeded(75);
        let mut reader = AlohaReader::new(2);
        let mut pending: Vec<Addr> = (1..=12).collect();
        let mut rounds = 0;
        while !pending.is_empty() && rounds < 200 {
            reader.run_round_with(&mut pending, &mut rng, |r| match r {
                [] => SlotOutcome::Idle,
                _ => SlotOutcome::Single(*r.iter().min().unwrap()),
            });
            rounds += 1;
        }
        assert!(pending.is_empty(), "{} nodes never identified", pending.len());
        assert_eq!(reader.collisions, 0, "capture resolver never reports collisions");
    }

    #[test]
    fn window_grows_under_collisions() {
        let mut rng = seeded(72);
        let mut reader = AlohaReader::new(2);
        let mut pending: Vec<Addr> = (1..=50).collect();
        reader.run_round(&mut pending, &mut rng);
        assert!(reader.window() > 2, "50 nodes in 2 slots must collide");
    }

    #[test]
    fn window_shrinks_when_empty() {
        let mut rng = seeded(73);
        let mut reader = AlohaReader::new(64);
        let mut pending: Vec<Addr> = vec![1];
        reader.run_round(&mut pending, &mut rng);
        assert!(reader.window() < 64);
    }

    #[test]
    fn efficiency_near_theory() {
        // With w ≈ n the per-slot success probability approaches 1/e; total
        // slots to identify n nodes ≈ e·n. Allow generous slack for the
        // adaptive transient.
        let mut rng = seeded(74);
        let mut reader = AlohaReader::new(32);
        let mut pending: Vec<Addr> = (1..=32).collect();
        while !pending.is_empty() {
            reader.run_round(&mut pending, &mut rng);
        }
        let slots_per_node = reader.slots_used as f64 / 32.0;
        assert!(
            slots_per_node > 1.5 && slots_per_node < 6.0,
            "slots/node = {slots_per_node} (theory ≈ e ≈ 2.7)"
        );
    }
}
