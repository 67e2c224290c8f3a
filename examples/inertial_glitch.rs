//! Inertial delay as a proximity effect (§6 of the paper): sweep the
//! separation between opposite transitions on a NAND2, watch the output
//! glitch grow into a full transition, and extract the minimum separation
//! for a valid output from the characterized glitch macromodel.
//!
//! Run with `cargo run --release --example inertial_glitch`.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::{CharacterizeOptions, Reading, Simulator};
use proxim::model::measure::InputEvent;
use proxim::model::ProximityModel;
use proxim::numeric::grid::linspace;
use proxim::numeric::pwl::Edge;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let opts = CharacterizeOptions {
        glitch: true,
        ..CharacterizeOptions::fast()
    };
    println!("characterizing NAND2 (including the §6 glitch model)...");
    let model = ProximityModel::characterize(&cell, &tech, &opts)?;
    let th = *model.thresholds();

    // Causer: b rises (would pull the output low). Blocker: a falls
    // (restores it high). Positive separation = blocker arrives later.
    let tau_b = 300e-12;
    let tau_a = 500e-12;
    let glitch = model
        .glitch_model(Edge::Rising)
        .expect("glitch model characterized");
    let single_b = model
        .single_model(1, Edge::Rising)
        .expect("single model characterized");
    let d1 = single_b.delay(tau_b, model.reference_load());
    // Simulate each pair the way characterization does, at a tighter step
    // bound: the causer first, its stable pins sensitized for it alone.
    let sim = Simulator::new(&cell, &tech, th, model.reference_load(), 0.03);

    println!(
        "\n{:>8} {:>12} {:>12}  glitch depth",
        "s [ps]", "Vmin sim", "Vmin model"
    );
    for s in linspace(-200e-12, 1200e-12, 15) {
        let e_b = InputEvent::new(1, Edge::Rising, 0.0, tau_b);
        let arrival_b = e_b.arrival(&th);
        let frac_a = InputEvent::new(0, Edge::Falling, 0.0, tau_a).arrival(&th);
        let e_a = InputEvent::new(0, Edge::Falling, arrival_b + s - frac_a, tau_a);
        let v_sim = sim.simulate_for(&[e_b, e_a], Reading::Peak)?.peak();
        let v_model = glitch.peak_voltage(tau_b, tau_a, s, d1);

        let depth = ((tech.vdd - v_sim) / tech.vdd * 30.0) as usize;
        println!(
            "{:>8.0} {:>12.3} {:>12.3}  {}",
            s * 1e12,
            v_sim,
            v_model,
            "v".repeat(depth)
        );
    }

    match glitch.min_separation_for_valid_output(tau_b, tau_a, d1, th.v_il) {
        Some(s_min) => println!(
            "\ninertial delay: the output only completes a valid transition when the \
             blocker trails the causer by at least {:.0} ps (extremum reaches V_il = {:.2} V)",
            s_min * 1e12,
            th.v_il
        ),
        None => println!("\nno separation in the characterized window admits a full transition"),
    }
    Ok(())
}
