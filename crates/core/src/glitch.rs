//! Inertial delay as a proximity effect (§6).
//!
//! When one input would drive the output through a transition (the
//! *causer*) and another input switches the opposite way in close proximity
//! (the *blocker*), the output only partially completes its excursion — a
//! glitch. The paper models the output-voltage extremum as a macromodel of
//! the same shape as eq. (3.9), with the causer as reference, and defines
//! the gate's inertial delay as the minimum separation for which the
//! extremum still crosses the measurement threshold (a "valid output").

use crate::error::ModelError;
use crate::jobs::{JobOutcome, SimJob};
use crate::measure::InputEvent;
use crate::single::SingleInputModel;
use crate::thresholds::Thresholds;
use proxim_numeric::pwl::Edge;
use proxim_numeric::rootfind::brent;
use proxim_numeric::Table3d;
use proxim_obs::json::{FromJson, ToJson};

/// A characterized glitch-peak macromodel for one causer pin and edge.
///
/// The table stores the normalized output extremum `V_peak / V_dd` over
/// `(u₁, v, w) = (τ_c/Δ_c⁽¹⁾, τ_b/Δ_c⁽¹⁾, s/Δ_c⁽¹⁾)`, where `s` is the
/// blocker's arrival minus the causer's arrival: large `s` means the blocker
/// comes late and the output completes its transition.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct GlitchModel {
    /// The causer pin (drives the output transition).
    pub causer: usize,
    /// The blocker pin (switches the opposite way).
    pub blocker: usize,
    /// The causer's input edge.
    pub causer_edge: Edge,
    /// The output edge the causer would produce.
    pub output_edge: Edge,
    /// Supply voltage.
    pub vdd: f64,
    /// Normalized extremum table.
    pub(crate) peak: Table3d,
}

impl GlitchModel {
    /// Enumerates the `(u₁, v, w)` glitch grid as independent simulation
    /// jobs in row-major order. The blocker starts from its sensitizing
    /// (non-blocking) level for the causer and ramps to the opposite.
    ///
    /// # Panics
    ///
    /// Panics if `blocker == single.pin`.
    pub fn enumerate(
        th: &Thresholds,
        c_load: f64,
        single: &SingleInputModel,
        blocker: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
    ) -> Vec<SimJob> {
        let causer = single.pin;
        assert_ne!(causer, blocker, "blocker must differ from the causer");
        let causer_edge = single.input_edge;
        let blocker_edge = causer_edge.opposite();

        let mut jobs = Vec::with_capacity(u_grid.len() * v_grid.len() * w_grid.len());
        for &u1 in u_grid {
            let tau_c = single.tau_for_ratio(u1, c_load);
            let d1 = single.delay(tau_c, c_load);
            let e_c = InputEvent::new(causer, causer_edge, 0.0, tau_c);
            let arrival_c = e_c.arrival(th);
            for &v in v_grid {
                let tau_b = (v * d1).max(10e-12);
                for &w in w_grid {
                    let s = w * d1;
                    let frac_b = InputEvent::new(blocker, blocker_edge, 0.0, tau_b).arrival(th);
                    let e_b = InputEvent::new(blocker, blocker_edge, arrival_c + s - frac_b, tau_b);
                    jobs.push(SimJob::glitch(e_c, e_b));
                }
            }
        }
        jobs
    }

    /// Builds the model from executed job outcomes in enumeration order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on degenerate grids.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count does not match the enumeration.
    pub fn assemble(
        vdd: f64,
        single: &SingleInputModel,
        blocker: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
        outcomes: &[&JobOutcome],
    ) -> Result<Self, ModelError> {
        let causer = single.pin;
        let causer_edge = single.input_edge;
        let expected = u_grid.len() * v_grid.len() * w_grid.len();
        assert_eq!(outcomes.len(), expected, "one outcome per grid point");
        // The causer scenario's output edge is the same resolution that
        // produced the single-input model's output edge.
        let output_edge = single.output_edge;

        let vals: Vec<f64> = outcomes
            .iter()
            .map(|o| Self::point(vdd, o))
            .collect::<Result<_, _>>()?;

        // Log-domain u/v axes, as in the dual-input tables.
        let ln_u: Vec<f64> = u_grid.iter().map(|u| u.ln()).collect();
        let ln_v: Vec<f64> = v_grid.iter().map(|v| v.ln()).collect();
        Ok(Self {
            causer,
            blocker,
            causer_edge,
            output_edge,
            vdd,
            peak: Table3d::new(ln_u, ln_v, w_grid.to_vec(), vals)?,
        })
    }

    /// The normalized-peak table entry `V_peak / V_dd` of one outcome: the
    /// arithmetic both assembly and audit repair write with.
    ///
    /// # Errors
    ///
    /// Surfaces a failed outcome's reason, or an events response where a
    /// peak was expected.
    pub(crate) fn point(vdd: f64, outcome: &JobOutcome) -> Result<f64, ModelError> {
        outcome.peak().map(|p| p / vdd)
    }

    /// The predicted output extremum voltage for causer transition time
    /// `tau_c`, blocker transition time `tau_b`, and separation `s`
    /// (blocker arrival − causer arrival), normalized with the causer's
    /// single-input delay `d1`.
    pub fn peak_voltage(&self, tau_c: f64, tau_b: f64, s: f64, d1: f64) -> f64 {
        self.vdd * self.peak.eval((tau_c / d1).ln(), (tau_b / d1).ln(), s / d1)
    }

    /// The inertial delay: the minimum separation `s` at which the output
    /// still completes a valid transition (the extremum crosses
    /// `v_threshold` — `V_il` for a falling output, `V_ih` for a rising
    /// one). Returns `None` if no separation within the characterized window
    /// achieves it.
    pub fn min_separation_for_valid_output(
        &self,
        tau_c: f64,
        tau_b: f64,
        d1: f64,
        v_threshold: f64,
    ) -> Option<f64> {
        let (w_lo, w_hi) = {
            // Table3d axes are validated non-empty at construction.
            let axis = self.peak.az();
            (axis[0], axis[axis.len() - 1])
        };
        // Signed clearance: positive once the output crosses the threshold.
        let clear = |s: f64| match self.output_edge {
            Edge::Falling => v_threshold - self.peak_voltage(tau_c, tau_b, s, d1),
            Edge::Rising => self.peak_voltage(tau_c, tau_b, s, d1) - v_threshold,
        };
        let (s_lo, s_hi) = (w_lo * d1, w_hi * d1);
        if clear(s_lo) >= 0.0 {
            return Some(s_lo);
        }
        if clear(s_hi) < 0.0 {
            return None;
        }
        brent(clear, s_lo, s_hi, 1e-16).ok()
    }

    /// Storage cost in table entries.
    pub fn table_len(&self) -> usize {
        self.peak.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::characterize::Reading;
    use crate::characterize::Simulator;
    use crate::jobs::{execute_jobs, first_error};
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};

    /// Characterizes one glitch slice on the calling thread.
    fn characterize(
        sim: &Simulator<'_>,
        single: &SingleInputModel,
        blocker: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
    ) -> Result<GlitchModel, ModelError> {
        let (th, c) = (&sim.thresholds, sim.c_load);
        let jobs = GlitchModel::enumerate(th, c, single, blocker, u_grid, v_grid, w_grid);
        let outcomes = execute_jobs(sim, &jobs, 1).outcomes;
        let ok = first_error(&outcomes)?;
        GlitchModel::assemble(sim.tech.vdd, single, blocker, u_grid, v_grid, w_grid, &ok)
    }

    fn glitch_env() -> (Cell, Technology) {
        (Cell::nand(2), Technology::demo_5v())
    }

    #[test]
    fn glitch_deepens_with_later_blocker() {
        let (cell, tech) = glitch_env();
        let th = Thresholds::new(1.2, 3.4, 5.0);
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.1);
        // Causer: pin 1 rising (pulls the NAND output low); blocker: pin 0
        // falling (restores it high) — the paper's Figure 6-1 scenario.
        let single =
            SingleInputModel::characterize(&sim, 1, Edge::Rising, &[150e-12, 600e-12, 1800e-12])
                .unwrap();
        let m = characterize(
            &sim,
            &single,
            0,
            &[1.0, 4.0],
            &[1.0, 4.0],
            &[-0.5, 0.5, 1.5, 3.0],
        )
        .unwrap();
        assert_eq!(m.output_edge, Edge::Falling);

        let tau = 500e-12;
        let d1 = single.delay(tau, sim.c_load);
        let early_blocker = m.peak_voltage(tau, tau, -0.5 * d1, d1);
        let late_blocker = m.peak_voltage(tau, tau, 3.0 * d1, d1);
        // Blocker long after the causer: output completes its fall (low
        // extremum). Blocker early: output barely moves (stays high).
        assert!(
            late_blocker < early_blocker - 0.5,
            "late {late_blocker} vs early {early_blocker}"
        );
        assert!(late_blocker < 1.0, "full transition reaches near ground");
        assert!(early_blocker > 3.0, "blocked output stays high");
    }

    #[test]
    fn a_cancelled_token_stops_the_glitch_transient_typed() {
        let (cell, tech) = glitch_env();
        let th = Thresholds::new(1.2, 3.4, 5.0);
        let cancel = proxim_spice::CancelToken::new();
        cancel.cancel();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.1).with_cancel(cancel);
        let e_c = InputEvent::new(1, Edge::Rising, 0.0, 300e-12);
        let e_b = InputEvent::new(0, Edge::Falling, 200e-12, 300e-12);
        let err = sim.simulate_for(&[e_c, e_b], Reading::Peak).unwrap_err();
        assert!(err.is_cancellation(), "got {err:?}");
    }

    #[test]
    fn min_separation_is_within_window_and_monotone_sensible() {
        let (cell, tech) = glitch_env();
        let th = Thresholds::new(1.2, 3.4, 5.0);
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.1);
        let single =
            SingleInputModel::characterize(&sim, 1, Edge::Rising, &[150e-12, 600e-12, 1800e-12])
                .unwrap();
        let m = characterize(
            &sim,
            &single,
            0,
            &[1.0, 4.0],
            &[1.0, 4.0],
            &[-0.5, 0.5, 1.5, 3.0],
        )
        .unwrap();
        let tau = 500e-12;
        let d1 = single.delay(tau, sim.c_load);
        let s_min = m
            .min_separation_for_valid_output(tau, tau, d1, th.v_il)
            .expect("a late-enough blocker admits a full transition");
        // At the minimum separation the peak sits at the threshold.
        let v = m.peak_voltage(tau, tau, s_min, d1);
        assert!((v - th.v_il).abs() < 0.05, "peak at s_min = {v}");
        // Earlier blockers must not produce a valid output.
        let v_before = m.peak_voltage(tau, tau, s_min - 0.5 * d1, d1);
        assert!(v_before > v - 1e-9);
    }
}
