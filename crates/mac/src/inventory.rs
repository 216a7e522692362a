//! Network inventory: discover an unknown population, then hand out TDMA
//! slots — the bootstrap sequence of a VAB deployment.
//!
//! Deployments also need the reverse operation: nodes that *were*
//! inventoried can fall silent (harvest blackout, reader restart losing
//! its schedule, a boat parked over the array). [`SilenceMonitor`] tracks
//! consecutive missed polls per node, and [`reinventory`] re-runs
//! contention over the silent set and merges the survivors back into a
//! rebuilt schedule instead of forgetting them forever.

use crate::aloha::AlohaReader;
use crate::tdma::TdmaSchedule;
use crate::Addr;
use rand::Rng;
use std::collections::HashMap;
use vab_util::units::Seconds;

/// Consecutive missed polls after which a node counts as silent.
pub const SILENCE_THRESHOLD: u32 = 3;

/// Tracks per-node consecutive missed polls so the reader can notice
/// nodes that dropped off the schedule.
#[derive(Debug, Clone, Default)]
pub struct SilenceMonitor {
    misses: HashMap<Addr, u32>,
    threshold: u32,
}

impl SilenceMonitor {
    /// Monitor flagging nodes after `threshold` consecutive missed polls.
    pub fn new(threshold: u32) -> Self {
        assert!(threshold >= 1);
        Self { misses: HashMap::new(), threshold }
    }

    /// Records a poll outcome; returns `true` if this miss crossed the
    /// silence threshold (edge-triggered: fires once per silence spell).
    pub fn on_poll(&mut self, addr: Addr, replied: bool) -> bool {
        let m = self.misses.entry(addr).or_insert(0);
        if replied {
            *m = 0;
            return false;
        }
        *m += 1;
        let crossed = *m == self.threshold;
        if crossed {
            vab_obs::event!("mac.inventory", "node_silent", addr = addr, misses = *m);
            vab_obs::metrics::inc("inventory.silences", 1);
        }
        crossed
    }

    /// Clears the miss counter for `addr` (e.g. after re-inventory).
    pub fn reset(&mut self, addr: Addr) {
        self.misses.remove(&addr);
    }
}

/// Re-inventories `silent` nodes of which `responsive` subset is actually
/// reachable again, and rebuilds the TDMA schedule over the still-alive
/// population (`alive` = nodes answering polls + rediscovered ones).
///
/// Returns the merged report; nodes in `silent` that stayed unreachable
/// are simply absent from the new schedule.
pub fn reinventory<R: Rng + ?Sized>(
    alive: &[Addr],
    silent_but_reachable: &[Addr],
    initial_window: usize,
    max_rounds: u32,
    slot_duration: Seconds,
    guard: Seconds,
    rng: &mut R,
) -> InventoryReport {
    let rediscovered =
        run_inventory(silent_but_reachable, initial_window, max_rounds, slot_duration, guard, rng);
    let mut merged: Vec<Addr> = alive.to_vec();
    for &a in &rediscovered.discovered {
        if !merged.contains(&a) {
            merged.push(a);
        }
    }
    let n = merged.len().max(1) as u32;
    let mut schedule = TdmaSchedule::new(n, slot_duration, guard);
    schedule.assign_all(&merged);
    vab_obs::event!(
        "mac.inventory",
        "reinventory",
        offered = silent_but_reachable.len(),
        rediscovered = rediscovered.discovered.len(),
        scheduled = merged.len(),
        rounds = rediscovered.rounds,
    );
    vab_obs::metrics::inc("inventory.reinventories", 1);
    InventoryReport {
        discovered: merged,
        rounds: rediscovered.rounds,
        slots_used: rediscovered.slots_used,
        collisions: rediscovered.collisions,
        schedule,
    }
}

/// Result of an inventory run.
#[derive(Debug, Clone)]
pub struct InventoryReport {
    /// Addresses discovered, in discovery order.
    pub discovered: Vec<Addr>,
    /// Contention rounds used.
    pub rounds: u32,
    /// Total contention slots spent.
    pub slots_used: u64,
    /// Collisions along the way.
    pub collisions: u64,
    /// The TDMA schedule assigned afterwards.
    pub schedule: TdmaSchedule,
}

/// Discovers `population` (hidden from the reader) with framed ALOHA and
/// assigns every discovered node a TDMA slot.
///
/// `slot_duration`/`guard` configure the resulting schedule. Gives up after
/// `max_rounds` (partial schedules are still returned).
pub fn run_inventory<R: Rng + ?Sized>(
    population: &[Addr],
    initial_window: usize,
    max_rounds: u32,
    slot_duration: Seconds,
    guard: Seconds,
    rng: &mut R,
) -> InventoryReport {
    let mut reader = AlohaReader::new(initial_window);
    let mut pending = population.to_vec();
    let mut rounds = 0;
    while !pending.is_empty() && rounds < max_rounds {
        reader.run_round(&mut pending, rng);
        rounds += 1;
    }
    let n = reader.identified.len().max(1) as u32;
    let mut schedule = TdmaSchedule::new(n, slot_duration, guard);
    schedule.assign_all(&reader.identified);
    InventoryReport {
        discovered: reader.identified.clone(),
        rounds,
        slots_used: reader.slots_used,
        collisions: reader.collisions,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::seeded;

    #[test]
    fn full_population_discovered_and_scheduled() {
        let mut rng = seeded(81);
        let population: Vec<Addr> = (10..20).collect();
        let report = run_inventory(&population, 8, 100, Seconds(1.0), Seconds(0.2), &mut rng);
        assert_eq!(report.discovered.len(), 10);
        for &a in &population {
            assert!(report.schedule.slot_of(a).is_some(), "node {a} unscheduled");
        }
        // Slots are unique.
        let mut slots: Vec<u32> =
            population.iter().map(|&a| report.schedule.slot_of(a).expect("assigned")).collect();
        slots.sort();
        slots.dedup();
        assert_eq!(slots.len(), 10);
    }

    #[test]
    fn empty_population_is_fine() {
        let mut rng = seeded(82);
        let report = run_inventory(&[], 8, 10, Seconds(1.0), Seconds(0.1), &mut rng);
        assert!(report.discovered.is_empty());
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn round_limit_respected() {
        let mut rng = seeded(83);
        let population: Vec<Addr> = (1..=100).collect();
        let report = run_inventory(&population, 1, 2, Seconds(1.0), Seconds(0.1), &mut rng);
        assert!(report.rounds <= 2);
        assert!(report.discovered.len() < 100, "cannot finish in 2 tiny rounds");
    }

    #[test]
    fn deterministic_under_seed() {
        let population: Vec<Addr> = (1..=15).collect();
        let a = run_inventory(&population, 8, 100, Seconds(1.0), Seconds(0.1), &mut seeded(84));
        let b = run_inventory(&population, 8, 100, Seconds(1.0), Seconds(0.1), &mut seeded(84));
        assert_eq!(a.discovered, b.discovered);
        assert_eq!(a.slots_used, b.slots_used);
    }

    #[test]
    fn silence_monitor_is_edge_triggered() {
        let mut mon = SilenceMonitor::new(3);
        assert!(!mon.on_poll(5, false));
        assert!(!mon.on_poll(5, false));
        assert!(mon.on_poll(5, false), "third miss crosses the threshold");
        assert!(!mon.on_poll(5, false), "fires only once per spell");
        assert!(!mon.on_poll(5, true), "a reply clears the counter");
    }

    #[test]
    fn reinventory_merges_rediscovered_nodes() {
        let mut rng = seeded(85);
        let alive = [1u32, 2, 3];
        let silent_reachable = [7u32, 9]; // node 8 stayed dark: not offered
        let report =
            reinventory(&alive, &silent_reachable, 8, 100, Seconds(1.0), Seconds(0.1), &mut rng);
        for a in [1u32, 2, 3, 7, 9] {
            assert!(report.discovered.contains(&a), "node {a} missing after re-inventory");
            assert!(report.schedule.slot_of(a).is_some(), "node {a} unscheduled");
        }
        assert!(!report.discovered.contains(&8));
        // Slots unique over the merged set.
        let mut slots: Vec<u32> = report
            .discovered
            .iter()
            .map(|&a| report.schedule.slot_of(a).expect("assigned"))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 5);
    }

    #[test]
    fn reinventory_with_nothing_reachable_keeps_alive_set() {
        let mut rng = seeded(86);
        let report = reinventory(&[4u32, 6], &[], 8, 10, Seconds(1.0), Seconds(0.1), &mut rng);
        assert_eq!(report.discovered, vec![4, 6]);
        assert!(report.schedule.slot_of(4).is_some());
    }
}
