//! TDMA scheduling for periodic monitoring.
//!
//! Once the population is known (via [`crate::inventory`]), the reader
//! assigns each node a slot; a round is `n_slots × slot duration`, preceded
//! by a broadcast beacon that nodes use as the time reference — backscatter
//! nodes have no clocks worth trusting, so every round is re-synchronized.

use crate::Addr;
use std::collections::HashMap;
use vab_util::units::Seconds;

/// A TDMA round schedule.
///
/// Slot indices are `u32` so an ocean-scale cell can hold one slot per
/// member without a round-size cap — the historical `u16` slot index
/// capped rounds at 65 535 slots, one address short of an N = 65 536
/// deployment.
#[derive(Debug, Clone)]
pub struct TdmaSchedule {
    slot_duration: Seconds,
    /// Guard interval appended to each slot (propagation spread).
    guard: Seconds,
    assignments: HashMap<Addr, u32>, // addr → slot
    /// Occupancy bitmap, indexed by slot — keeps
    /// [`TdmaSchedule::assign_all`] O(1) per assignment instead of a scan
    /// over all existing assignments (O(N²) at 65k nodes).
    occupied: Vec<bool>,
    n_slots: u32,
}

impl TdmaSchedule {
    /// Creates a schedule with `n_slots` slots of `slot_duration` plus
    /// `guard` each.
    pub fn new(n_slots: u32, slot_duration: Seconds, guard: Seconds) -> Self {
        assert!(n_slots > 0 && slot_duration.value() > 0.0 && guard.value() >= 0.0);
        Self {
            slot_duration,
            guard,
            assignments: HashMap::new(),
            occupied: vec![false; n_slots as usize],
            n_slots,
        }
    }

    /// Sizes slots for a frame of `frame_bits` channel bits at `bit_rate`,
    /// with a guard covering the worst-case round-trip spread at
    /// `max_range_m` (sound speed `c`).
    pub fn for_frames(
        n_slots: u32,
        frame_bits: usize,
        bit_rate: f64,
        max_range_m: f64,
        sound_speed: f64,
    ) -> Self {
        let tx_time = frame_bits as f64 / bit_rate;
        let guard = 2.0 * max_range_m / sound_speed;
        Self::new(n_slots, Seconds(tx_time), Seconds(guard))
    }

    /// Assigns every address in order to the first free slots. Returns the
    /// number assigned (stops when slots run out).
    pub fn assign_all(&mut self, addrs: &[Addr]) -> usize {
        let mut assigned = 0;
        let mut next = 0u32;
        for &a in addrs {
            while next < self.n_slots && self.occupied[next as usize] {
                next += 1;
            }
            if next >= self.n_slots {
                break;
            }
            self.assignments.insert(a, next);
            self.occupied[next as usize] = true;
            assigned += 1;
            next += 1;
        }
        assigned
    }

    /// Slot assigned to `addr`.
    pub fn slot_of(&self, addr: Addr) -> Option<u32> {
        self.assignments.get(&addr).copied()
    }

    /// Full round duration.
    pub fn round_duration(&self) -> Seconds {
        Seconds((self.slot_duration.value() + self.guard.value()) * self.n_slots as f64)
    }

    /// Fraction of round time spent on payload (vs. guard).
    pub fn efficiency(&self) -> f64 {
        self.slot_duration.value() / (self.slot_duration.value() + self.guard.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn assign_all_fills_free_slots() {
        let mut t = TdmaSchedule::new(3, Seconds(1.0), Seconds(0.0));
        assert_eq!(t.assign_all(&[7]), 1);
        let n = t.assign_all(&[1, 2, 3]);
        assert_eq!(n, 2, "only slots 1 and 2 were free");
        assert_eq!(t.slot_of(7), Some(0));
        assert_eq!(t.slot_of(1), Some(1));
        assert_eq!(t.slot_of(2), Some(2));
        assert_eq!(t.slot_of(3), None);
    }

    #[test]
    fn round_duration_counts_every_guard() {
        let t = TdmaSchedule::new(3, Seconds(2.0), Seconds(0.5));
        assert!(approx_eq(t.round_duration().value(), 7.5, 1e-12));
    }

    #[test]
    fn for_frames_sizes_guard_from_range() {
        // 300 m, 1480 m/s → 405 ms round trip guard.
        let t = TdmaSchedule::for_frames(4, 256, 100.0, 300.0, 1480.0);
        assert!(approx_eq(t.guard.value(), 0.4054, 1e-3));
        assert!(approx_eq(t.slot_duration.value(), 2.56, 1e-9));
        // Guard overhead at 100 bps is modest.
        assert!(t.efficiency() > 0.8, "eff {}", t.efficiency());
    }

    #[test]
    fn holds_an_ocean_scale_address_space() {
        // One slot per member of a 70 000-node schedule — past both the u8
        // address space and the old u16 slot-index cap.
        let n = 70_000u32;
        let mut t = TdmaSchedule::new(n, Seconds(1.0), Seconds(0.0));
        let addrs: Vec<Addr> = (0..n).collect();
        assert_eq!(t.assign_all(&addrs), n as usize);
        assert_eq!(t.slot_of(0), Some(0));
        assert_eq!(t.slot_of(n - 1), Some(n - 1));
    }
}
