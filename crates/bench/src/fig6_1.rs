//! Figure 6-1(b): the inertial-delay connection — magnitude of the output
//! glitch versus the separation between opposite transitions.
//!
//! Setup per §6: on the NAND (c non-controlling), input `b` rises (pulling
//! the output low) while input `a` falls (restoring it high). τ_a = 500 ps;
//! τ_b ∈ {100, 500, 1000} ps. When `a` arrives well after `b`, the output
//! completes its falling transition; as the separation shrinks, `a` blocks
//! the transition and only a partial glitch remains. The minimum separation
//! at which the extremum still reaches `V_il` is the gate's inertial delay.

use crate::env::ExperimentEnv;
use proxim_model::characterize::{Reading, Simulator};
use proxim_model::measure::InputEvent;
use proxim_model::ModelError;
use proxim_numeric::grid::linspace;
use proxim_numeric::pwl::Edge;

/// One sweep series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Rise time of the causing input `b`, in seconds.
    pub tau_b: f64,
    /// `(separation, simulated extremum, model extremum)` rows; separation
    /// is the blocker's arrival minus the causer's arrival.
    pub rows: Vec<(f64, f64, Option<f64>)>,
    /// The model's minimum separation for a valid output, if the glitch
    /// model was characterized.
    pub min_separation_model: Option<f64>,
}

/// Regenerates the figure.
///
/// # Errors
///
/// Returns [`ModelError`] on simulation failure.
pub fn run(env: &ExperimentEnv, points: usize) -> Result<Vec<Series>, ModelError> {
    let th = env.thresholds();
    let tau_a = 500e-12;
    let glitch = env.model.glitch_model(Edge::Rising);
    let c_load = env.model.reference_load();
    // The characterization path, at a tighter step bound than the model's.
    let sim = Simulator::new(&env.cell, &env.tech, th, c_load, 0.03);

    let mut out = Vec::new();
    for &tau_b in &[100e-12, 500e-12, 1000e-12] {
        let single_b = env.model.single_model(1, Edge::Rising);
        let d1 = single_b.map(|s| s.delay(tau_b, c_load));

        let seps = linspace(-400e-12, 1500e-12, points);
        let mut rows = Vec::with_capacity(points);
        for &s in &seps {
            // b (causer, rising) at a fixed arrival; a (blocker, falling)
            // arrives s later.
            let e_b = InputEvent::new(1, Edge::Rising, 0.0, tau_b);
            let arrival_b = e_b.arrival(&th);
            let frac_a = InputEvent::new(0, Edge::Falling, 0.0, tau_a).arrival(&th);
            let e_a = InputEvent::new(0, Edge::Falling, arrival_b + s - frac_a, tau_a);
            let v_sim = sim.simulate_for(&[e_b, e_a], Reading::Peak)?.peak();
            let v_model = match (glitch, d1) {
                (Some(g), Some(d1)) => Some(g.peak_voltage(tau_b, tau_a, s, d1)),
                _ => None,
            };
            rows.push((s, v_sim, v_model));
        }
        let min_separation_model = match (glitch, d1) {
            (Some(g), Some(d1)) => g.min_separation_for_valid_output(tau_b, tau_a, d1, th.v_il),
            _ => None,
        };
        out.push(Series {
            tau_b,
            rows,
            min_separation_model,
        });
    }
    Ok(out)
}

/// Prints the figure.
pub fn print(series: &[Series], v_il: f64) {
    for s in series {
        println!(
            "\nFig 6-1(b): tau_b = {:.0} ps (V_il line at {:.2} V{})",
            s.tau_b * 1e12,
            v_il,
            s.min_separation_model
                .map(|m| format!("; model min separation = {:.0} ps", m * 1e12))
                .unwrap_or_default()
        );
        println!("{:>10} {:>12} {:>12}", "s [ps]", "Vmin sim", "Vmin model");
        for &(sep, v_sim, v_model) in &s.rows {
            println!(
                "{:>10.0} {:>12.3} {:>12}",
                sep * 1e12,
                v_sim,
                v_model
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".into())
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Fidelity;

    #[test]
    fn glitch_magnitude_decreases_with_separation() {
        let env = ExperimentEnv::new(Fidelity::Fast);
        let series = run(&env, 6).unwrap();
        let fast = &series[0];
        let first = fast.rows.first().unwrap();
        let last = fast.rows.last().unwrap();
        // Blocker early (small s): the output barely moves (extremum high).
        // Blocker late (large s): the output completes its fall.
        assert!(
            last.1 < first.1 - 1.0,
            "extremum must deepen with separation: {} -> {}",
            first.1,
            last.1
        );
        let th = env.thresholds();
        assert!(last.1 < th.v_il, "late blocker admits a full transition");
    }
}
