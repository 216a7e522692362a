//! Network deployment: inventory and steady-state traffic for a 64-node
//! Van Atta backscatter network in the river environment.
//!
//! Drops 64 backscatter nodes into a 60 m x 40 m deployment box, derives a
//! per-node acoustic channel (spreading, absorption, multipath fading,
//! orientation), then runs the full MAC sequence over that substrate:
//! slotted-ALOHA inventory with physical-layer capture — colliding replies
//! superpose at the hydrophone and the strongest wins only if its SINR
//! clears the capture threshold — followed by TDMA steady state where each
//! slot delivers at the owner's actual frame-success probability.
//!
//! The deployment runs on the same cell engine as the ocean tier
//! (`examples/ocean_scale.rs`): the link-budget constructor builds a
//! one-reader plan, and the shared inventory loop discovers it.
//!
//! ```text
//! cargo run --release --example network_deployment
//! ```

use vab::net::{Network, NetworkSpec};

fn main() {
    let spec = NetworkSpec::river(64, 2023);
    println!("=== deployment ===");
    println!("  nodes:            {}", spec.n_nodes);
    println!(
        "  volume:           {} m x {} m box, {} m standoff",
        spec.volume.x_m, spec.volume.y_m, spec.volume.standoff_m
    );
    println!("  density:          {:.1} nodes / 1000 m^3", spec.density_per_1000m3());
    println!("  topology digest:  {:016x}", spec.digest());

    let net = Network::build_link_budget(&spec);
    let nearest = net.nodes.iter().map(|n| n.d_reader_m).fold(f64::INFINITY, f64::min);
    let farthest = net.max_range_m;
    let worst = net.nodes.iter().map(|n| n.direct_success).fold(1.0f64, f64::min);
    println!("  reader range:     {nearest:.1} m (nearest) .. {farthest:.1} m (farthest)");
    println!(
        "  frame:            {} channel bits / slot of {:.2} s",
        net.phy.frame_bits,
        net.phy.slot_duration_s(net.max_range_m)
    );
    println!("  worst node frame-success: {worst:.3}");
    println!();

    println!("=== inventory (slotted ALOHA + capture) ===");
    let inventory = net.run_inventory();
    println!("  discovered:       {} / {}", inventory.discovered.len(), inventory.n_nodes);
    println!("  coverage:         {:.1} %", inventory.coverage() * 100.0);
    println!("  rounds:           {}", inventory.rounds);
    println!("  slots used:       {}", inventory.slots_used);
    println!("  collisions:       {}", inventory.collisions);
    println!("  time to inventory: {:.0} s at 100 bps", inventory.time_s);
    println!();

    println!("=== steady state (TDMA) ===");
    let steady = net.run_sampled_steady_state(&inventory.discovered);
    println!("  round duration:   {:.1} s", steady.round_duration_s);
    println!("  aggregate goodput: {:.1} bps", steady.aggregate_goodput_bps);
    println!("  Jain fairness:    {:.4}", steady.jain_fairness);
    let (best_addr, best) = steady
        .per_node_goodput_bps
        .iter()
        .copied()
        .fold((0u32, 0.0f64), |acc, (a, g)| if g > acc.1 { (a, g) } else { acc });
    println!("  best node:        #{best_addr} at {best:.2} bps");
    println!();
    println!(
        "{} batteryless nodes inventoried and scheduled over {:.0} m of river water.",
        inventory.discovered.len(),
        farthest
    );
}
