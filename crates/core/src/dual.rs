//! Dual-input proximity macromodels (§3, eqs. 3.11/3.12).
//!
//! When two inputs switch in proximity, dimensional analysis (after
//! conjecturing that proximity is a perturbation of the dominant input's
//! single-input response) reduces delay and output transition time to
//! three-argument functions:
//!
//! ```text
//! Δ⁽²⁾ / Δ⁽¹⁾ = D⁽²⁾( τ_i/Δ⁽¹⁾, τ_j/Δ⁽¹⁾, s_ij/Δ⁽¹⁾ )
//! τ⁽²⁾ / τ⁽¹⁾ = T⁽²⁾( τ_i/Δ⁽¹⁾, τ_j/Δ⁽¹⁾, s_ij/Δ⁽¹⁾ )
//! ```
//!
//! where `i` is the dominant input. The paper normalizes the `T⁽²⁾`
//! arguments by `τ⁽¹⁾`; we normalize both tables by `Δ⁽¹⁾` instead so one
//! simulation grid feeds both. Because `τ⁽¹⁾` is itself a function of
//! `τ_i` at fixed load, the two parameterizations carry the same
//! information and the Buckingham-π argument applies unchanged; DESIGN.md
//! documents this as an implementation choice.
//!
//! Tables are characterized on an exact normalized grid: for each `u₁` the
//! characterizer inverts the single-input model for the `τ_i` that lands on
//! it, then sets `τ_j = v·Δ⁽¹⁾` and `s = w·Δ⁽¹⁾`.

use crate::error::ModelError;
use crate::jobs::{JobOutcome, SimJob};
use crate::measure::InputEvent;
use crate::single::SingleInputModel;
use crate::thresholds::Thresholds;
use proxim_numeric::pwl::Edge;
use proxim_numeric::Table3d;
use proxim_obs::json::{FromJson, ToJson};

/// Floor on generated partner transition times during characterization.
const TAU_MIN: f64 = 10e-12;

/// A characterized dual-input proximity model for one dominant
/// `(pin, input edge)` and a representative partner pin.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct DualInputModel {
    /// The dominant (reference) pin `i`.
    pub pin: usize,
    /// The partner pin `j` used during characterization.
    pub partner: usize,
    /// Input transition direction (both inputs switch the same way).
    pub input_edge: Edge,
    /// `D⁽²⁾` ratio table over `(u₁, v, w)`.
    pub(crate) delay_ratio: Table3d,
    /// `T⁽²⁾` ratio table over `(u₁, v, w)`.
    pub(crate) trans_ratio: Table3d,
}

impl DualInputModel {
    /// Enumerates the `(u₁, v, w)` grid as independent simulation jobs in
    /// row-major order (`u` outermost, `w` innermost).
    ///
    /// # Panics
    ///
    /// Panics if `partner == single.pin`.
    pub fn enumerate(
        th: &Thresholds,
        c_load: f64,
        single: &SingleInputModel,
        partner: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
    ) -> Vec<SimJob> {
        let pin = single.pin;
        assert_ne!(pin, partner, "partner must differ from the dominant pin");
        let edge = single.input_edge;
        let mut jobs = Vec::with_capacity(u_grid.len() * v_grid.len() * w_grid.len());
        for &u1 in u_grid {
            let tau_i = single.tau_for_ratio(u1, c_load);
            let d1 = single.delay(tau_i, c_load);
            let e_i = InputEvent::new(pin, edge, 0.0, tau_i);
            let arrival_i = e_i.arrival(th);
            for &v in v_grid {
                let tau_j = (v * d1).max(TAU_MIN);
                for &w in w_grid {
                    let s = w * d1;
                    // Place the partner so its arrival is exactly
                    // `arrival_i + s`.
                    let frac_j = {
                        let probe = InputEvent::new(partner, edge, 0.0, tau_j);
                        probe.arrival(th)
                    };
                    let e_j = InputEvent::new(partner, edge, arrival_i + s - frac_j, tau_j);
                    jobs.push(SimJob::events(vec![e_i, e_j]));
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
        c_load: f64,
        single: &SingleInputModel,
        partner: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
        outcomes: &[&JobOutcome],
    ) -> Result<Self, ModelError> {
        let pin = single.pin;
        let edge = single.input_edge;
        let expected = u_grid.len() * v_grid.len() * w_grid.len();
        assert_eq!(outcomes.len(), expected, "one outcome per grid point");

        let mut delay_vals = Vec::with_capacity(expected);
        let mut trans_vals = Vec::with_capacity(expected);
        let mut it = outcomes.iter();
        for &u1 in u_grid {
            let scale = Self::row_scale(single, c_load, u1);
            for _ in 0..v_grid.len() * w_grid.len() {
                let Some(outcome) = it.next() else {
                    return Err(ModelError::Table(
                        "dual-input outcome count mismatch".into(),
                    ));
                };
                let (dr, tr) = Self::point(scale, outcome)?;
                delay_vals.push(dr);
                trans_vals.push(tr);
            }
        }

        // The u and v axes are stored in the log domain: the grids are
        // log-spaced and the ratio surfaces curve strongly in both, so
        // trilinear interpolation in ln-space is markedly more accurate.
        let ln_u: Vec<f64> = u_grid.iter().map(|u| u.ln()).collect();
        let ln_v: Vec<f64> = v_grid.iter().map(|v| v.ln()).collect();
        Ok(Self {
            pin,
            partner,
            input_edge: edge,
            delay_ratio: Table3d::new(ln_u.clone(), ln_v.clone(), w_grid.to_vec(), delay_vals)?,
            trans_ratio: Table3d::new(ln_u, ln_v, w_grid.to_vec(), trans_vals)?,
        })
    }

    /// The dominant input's `(Δ⁽¹⁾, τ⁽¹⁾)` on the table row `u₁`: what every
    /// entry of that row is normalized by.
    pub(crate) fn row_scale(single: &SingleInputModel, c_load: f64, u1: f64) -> (f64, f64) {
        let tau_i = single.tau_for_ratio(u1, c_load);
        (
            single.delay(tau_i, c_load),
            single.transition(tau_i, c_load),
        )
    }

    /// The `(Δ⁽²⁾/Δ⁽¹⁾, τ⁽²⁾/τ⁽¹⁾)` table entries of one outcome on a row
    /// with [`Self::row_scale`] `(d1, t1)`: the arithmetic both assembly and
    /// audit repair write with.
    ///
    /// # Errors
    ///
    /// Surfaces a failed outcome's reason, or a glitch peak where an events
    /// response was expected.
    pub(crate) fn point(
        (d1, t1): (f64, f64),
        outcome: &JobOutcome,
    ) -> Result<(f64, f64), ModelError> {
        let (d2, t2) = outcome.response()?;
        Ok((d2 / d1, t2 / t1))
    }

    /// Evaluates `D⁽²⁾(u₁, v, w)`.
    ///
    /// Outside the proximity window (`w >= 1`, i.e. `s >= Δ⁽¹⁾`) the partner
    /// cannot affect the delay and the ratio is exactly 1 (§3). This rule
    /// applies to parallel (OR-like) conduction; series scenarios use
    /// [`DualInputModel::delay_ratio_raw`].
    pub fn delay_ratio(&self, u1: f64, v: f64, w: f64) -> f64 {
        if w >= 1.0 {
            1.0
        } else {
            self.delay_ratio.eval(u1.ln(), v.ln(), w)
        }
    }

    /// Evaluates `D⁽²⁾(u₁, v, w)` directly from the table (clamped), without
    /// the OR-like window shortcut — used for series (AND-like) conduction
    /// where a late partner gates the output instead of becoming irrelevant.
    pub fn delay_ratio_raw(&self, u1: f64, v: f64, w: f64) -> f64 {
        self.delay_ratio.eval(u1.ln(), v.ln(), w)
    }

    /// Evaluates `T⁽²⁾(u₁, v, w)` with table clamping; the caller applies
    /// the wider transition-time window `s < Δ⁽¹⁾ + τ⁽¹⁾` (§3).
    pub fn trans_ratio(&self, u1: f64, v: f64, w: f64) -> f64 {
        self.trans_ratio.eval(u1.ln(), v.ln(), w)
    }

    /// Storage cost in table entries (for the Fig. 4-2 accounting).
    pub fn table_len(&self) -> usize {
        self.delay_ratio.len() + self.trans_ratio.len()
    }

    /// The `w` (separation) axis of the tables.
    pub fn w_axis(&self) -> &[f64] {
        self.delay_ratio.az()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use crate::characterize::Simulator;
    use crate::jobs::{execute_jobs, first_error};
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};

    /// Characterizes one dual slice on the calling thread.
    pub(crate) fn characterize(
        sim: &Simulator<'_>,
        single: &SingleInputModel,
        partner: usize,
        u_grid: &[f64],
        v_grid: &[f64],
        w_grid: &[f64],
    ) -> Result<DualInputModel, ModelError> {
        let (th, c) = (&sim.thresholds, sim.c_load);
        let jobs = DualInputModel::enumerate(th, c, single, partner, u_grid, v_grid, w_grid);
        let outcomes = execute_jobs(sim, &jobs, 1).outcomes;
        let ok = first_error(&outcomes)?;
        DualInputModel::assemble(c, single, partner, u_grid, v_grid, w_grid, &ok)
    }

    struct Env {
        cell: Cell,
        tech: Technology,
    }

    fn env() -> Env {
        Env {
            cell: Cell::nand(2),
            tech: Technology::demo_5v(),
        }
    }

    fn sim(e: &Env) -> Simulator<'_> {
        Simulator::new(
            &e.cell,
            &e.tech,
            Thresholds::new(1.2, 3.4, 5.0),
            100e-15,
            0.1,
        )
    }

    fn small_model(s: &Simulator<'_>, edge: Edge) -> DualInputModel {
        let single =
            SingleInputModel::characterize(s, 0, edge, &[150e-12, 600e-12, 1800e-12]).unwrap();
        characterize(
            s,
            &single,
            1,
            &[0.5, 2.0, 6.0],
            &[0.5, 2.0, 6.0],
            &[-1.0, 0.0, 0.5, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn ratio_is_one_outside_window() {
        let e = env();
        let s = sim(&e);
        let m = small_model(&s, Edge::Rising);
        assert_eq!(m.delay_ratio(1.0, 1.0, 1.0), 1.0);
        assert_eq!(m.delay_ratio(3.0, 0.7, 5.0), 1.0);
    }

    #[test]
    fn rising_inputs_ratio_exceeds_one_at_zero_separation() {
        // Proximity of rising inputs slows a NAND's falling output
        // (Fig 1-2c): the ratio at w = 0 must exceed 1.
        let e = env();
        let s = sim(&e);
        let m = small_model(&s, Edge::Rising);
        let r = m.delay_ratio(2.0, 2.0, 0.0);
        assert!(r > 1.02, "expected slowdown, ratio = {r}");
    }

    #[test]
    fn falling_inputs_ratio_below_one_at_zero_separation() {
        // Proximity of falling inputs speeds the rising output (Fig 1-2a):
        // ratio below 1.
        let e = env();
        let s = sim(&e);
        let m = small_model(&s, Edge::Falling);
        let r = m.delay_ratio(2.0, 2.0, 0.0);
        assert!(r < 0.98, "expected speedup, ratio = {r}");
    }

    #[test]
    fn rising_slowdown_fades_as_partner_leads() {
        // AND-like conduction: the series stack is slowest when both inputs
        // ramp together (w = 0); a partner arriving well before the
        // reference (w = -1) is already conducting and the slowdown fades.
        let e = env();
        let s = sim(&e);
        let m = small_model(&s, Edge::Rising);
        let together = m.delay_ratio_raw(2.0, 2.0, 0.0);
        let leading = m.delay_ratio_raw(2.0, 2.0, -1.0);
        assert!(
            (leading - 1.0).abs() < (together - 1.0).abs(),
            "leading partner {leading} vs simultaneous {together}"
        );
    }

    #[test]
    fn falling_speedup_fades_at_window_edge() {
        // OR-like conduction: the parallel pull-up speedup vanishes once the
        // partner arrives after the single-input crossing (w >= 1).
        let e = env();
        let s = sim(&e);
        let m = small_model(&s, Edge::Falling);
        let r0 = m.delay_ratio(2.0, 2.0, 0.0);
        let r1 = m.delay_ratio(2.0, 2.0, 1.0);
        assert!(
            r0 < 1.0,
            "simultaneous falling inputs speed the output: {r0}"
        );
        assert_eq!(r1, 1.0);
    }

    #[test]
    fn model_reproduces_characterization_point() {
        let e = env();
        let s = sim(&e);
        let th = s.thresholds;
        let single =
            SingleInputModel::characterize(&s, 0, Edge::Rising, &[150e-12, 600e-12, 1800e-12])
                .unwrap();
        let m = characterize(
            &s,
            &single,
            1,
            &[0.5, 2.0, 6.0],
            &[0.5, 2.0, 6.0],
            &[-1.0, 0.0, 0.5, 1.0],
        )
        .unwrap();

        // Re-simulate the exact (u1 = 2, v = 2, w = 0) grid point.
        let tau_i = single.tau_for_ratio(2.0, s.c_load);
        let d1 = single.delay(tau_i, s.c_load);
        let tau_j = 2.0 * d1;
        let e_i = InputEvent::new(0, Edge::Rising, 0.0, tau_i);
        let arrival_i = e_i.arrival(&th);
        let frac_j = InputEvent::new(1, Edge::Rising, 0.0, tau_j).arrival(&th);
        let e_j = InputEvent::new(1, Edge::Rising, arrival_i - frac_j, tau_j);
        let r = s.simulate(&[e_i, e_j]).unwrap();
        let d2_sim = r.delay_from(0, &th).unwrap();

        let d2_model = d1 * m.delay_ratio(2.0, 2.0, 0.0);
        assert!(
            (d2_model - d2_sim).abs() / d2_sim < 1e-6,
            "model {d2_model} vs sim {d2_sim}"
        );
    }

    #[test]
    #[should_panic(expected = "partner must differ")]
    fn partner_equal_to_pin_rejected() {
        let e = env();
        let s = sim(&e);
        let single =
            SingleInputModel::characterize(&s, 0, Edge::Rising, &[150e-12, 600e-12]).unwrap();
        let _ = characterize(&s, &single, 0, &[1.0, 2.0], &[1.0, 2.0], &[0.0, 1.0]);
    }
}
