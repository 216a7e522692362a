//! The energy story: cold start, sustained operation, brown-out, recovery.
//!
//! Walks a battery-free node through its life at three ranges from the
//! reader, using the full harvesting chain (transducer aperture →
//! rectifier → storage capacitor → PMU) — and shows why the prior
//! state of the art was energy-limited to tens of metres.
//!
//! ```text
//! cargo run --release --example energy_lifecycle
//! ```

use vab::harvest::budget::{NodeMode, PowerBudget};
use vab::harvest::pmu::{Pmu, PmuState};
use vab::harvest::rectifier::Rectifier;
use vab::sim::baseline::SystemKind;
use vab::sim::linkbudget::harvest_at;
use vab::sim::scenario::Scenario;
use vab::util::units::{Meters, Seconds};

fn main() {
    let budget = PowerBudget::vab_node();
    println!("node power budget:");
    for mode in NodeMode::all() {
        println!("  {:<12} {:>7.2} µW", mode.label(), budget.total(mode).uw());
    }

    let rect = Rectifier::schottky_doubler();
    println!("\nharvest vs range (VAB 4-pair array vs PAB single element):");
    println!(
        "{:>8} {:>14} {:>14} {:>16}",
        "range", "VAB acoustic", "VAB rectified", "PAB rectified"
    );
    let vab = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(1.0)).front_end();
    let pab = Scenario::river(SystemKind::Pab, Meters(1.0)).front_end();
    for d in [5.0, 15.0, 30.0, 60.0, 120.0] {
        let vab_ac = harvest_at(&Scenario::river(vab.kind(), Meters(d)), &vab);
        let pab_ac = harvest_at(&Scenario::river(pab.kind(), Meters(d)), &pab);
        println!(
            "{:>6} m {:>11.2} µW {:>11.2} µW {:>13.3} µW",
            d,
            vab_ac.uw(),
            rect.dc_output(vab_ac).uw(),
            rect.dc_output(pab_ac).uw()
        );
    }

    // Life of a node at 20 m: cold start → listen → starve → recover.
    println!("\nlifecycle at 20 m (0.5 s steps):");
    let p_in = harvest_at(&Scenario::river(vab.kind(), Meters(20.0)), &vab);
    let mut pmu = Pmu::vab_default();
    let dt = Seconds(0.5);
    let mut t = 0.0;
    // Cold start under the reader's carrier.
    while pmu.state() == PmuState::ColdStart {
        pmu.step(p_in, NodeMode::Sleep, dt);
        t += dt.value();
    }
    println!("  t={t:>7.1}s  cold start complete at {:.2} (woke up)", pmu.voltage());
    // Sustained listening for a minute.
    for _ in 0..120 {
        pmu.step(p_in, NodeMode::Listen, dt);
        t += dt.value();
    }
    println!(
        "  t={t:>7.1}s  after 60 s of listening: {:.2}, availability {:.0}%",
        pmu.voltage(),
        100.0 * pmu.availability()
    );
    // The boat leaves: no carrier, node keeps listening until brown-out.
    let mut starve_time = 0.0;
    while pmu.is_active() {
        pmu.step(vab::util::units::Watts(0.0), NodeMode::Listen, dt);
        t += dt.value();
        starve_time += dt.value();
    }
    println!(
        "  t={t:>7.1}s  carrier gone: survived {starve_time:.0} s on the capacitor, then brown-out"
    );
    // The boat returns.
    while !pmu.is_active() {
        pmu.step(p_in, NodeMode::Sleep, dt);
        t += dt.value();
    }
    println!("  t={t:>7.1}s  carrier back: recovered (brown-outs so far: {})", pmu.brownouts);
    println!("\nBattery-free operation is a duty-cycle negotiation with the water column.");
}
