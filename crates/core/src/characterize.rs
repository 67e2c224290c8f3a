//! Simulation drivers for model characterization.
//!
//! The paper builds its macromodels from HSPICE runs; [`Simulator`] plays
//! that role here on top of [`proxim_spice`]. It elaborates the cell once
//! per scenario, applies controlled PWL ramps, picks a settling horizon from
//! the drive strength, and returns the measured output waveform — ended as
//! soon as the threshold crossings a measurement reads are fixed (see
//! [`proxim_spice::StopRule`]).

use crate::error::ModelError;
use crate::measure::{InputEvent, Scenario};
use crate::thresholds::Thresholds;
use proxim_cells::{Cell, Technology};
use proxim_numeric::grid::{linspace, logspace};
use proxim_numeric::pwl::{Edge, Pwl};
use proxim_spice::tran::{StopRule, TranOptions};
use proxim_spice::{CancelToken, RecoveryTrace};

/// Grids and knobs controlling characterization cost and fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeOptions {
    /// Output load capacitance, in farads.
    pub c_load: f64,
    /// Sweep samples per VTC.
    pub vtc_points: usize,
    /// Transition-time grid for the single-input tables, in seconds.
    pub tau_grid: Vec<f64>,
    /// `tau_i / Δ⁽¹⁾` axis of the dual-input tables.
    pub dual_u_grid: Vec<f64>,
    /// `tau_j / Δ⁽¹⁾` axis of the dual-input tables.
    pub dual_v_grid: Vec<f64>,
    /// `s_ij / Δ⁽¹⁾` axis of the dual-input tables.
    pub dual_w_grid: Vec<f64>,
    /// Per-step voltage-change bound passed to the transient engine.
    pub dv_max: f64,
    /// Whether to characterize the full `n x n` dual-input matrix instead of
    /// the paper's `2n` models (one representative partner per pin).
    pub full_pair_matrix: bool,
    /// Whether to characterize the glitch/inertial-delay model (§6).
    pub glitch: bool,
    /// `τ_c / Δ⁽¹⁾` axis of the glitch tables.
    pub glitch_u_grid: Vec<f64>,
    /// `τ_b / Δ⁽¹⁾` axis of the glitch tables.
    pub glitch_v_grid: Vec<f64>,
    /// Separation axis of the glitch tables (`s / Δ⁽¹⁾`; extends well past
    /// the delay window so the full-transition boundary is bracketed).
    pub glitch_w_grid: Vec<f64>,
    /// Optional load axis for NLDM-style 2-D load-slew surfaces
    /// ([`crate::nldm`]); `None` skips that characterization.
    pub load_grid: Option<Vec<f64>>,
    /// Worker threads for the job-queue characterization phases (singles
    /// and pairs, [`crate::jobs`]). `0` (the default) resolves to
    /// `std::thread::available_parallelism()`. The assembled model is
    /// byte-identical for every value.
    pub jobs: usize,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self {
            c_load: 100e-15,
            vtc_points: 301,
            tau_grid: logspace(50e-12, 2000e-12, 9),
            dual_u_grid: logspace(0.12, 10.0, 8),
            dual_v_grid: logspace(0.12, 10.0, 8),
            dual_w_grid: linspace(-3.0, 2.0, 21),
            dv_max: 0.04,
            full_pair_matrix: false,
            glitch: true,
            glitch_u_grid: logspace(0.3, 8.0, 4),
            glitch_v_grid: logspace(0.3, 8.0, 4),
            glitch_w_grid: linspace(-1.0, 4.0, 11),
            load_grid: Some(logspace(10e-15, 400e-15, 5)),
            jobs: 0,
        }
    }
}

impl CharacterizeOptions {
    /// A mid-cost option set: paper-like shapes with a few percent of
    /// table-interpolation error, at roughly a quarter of the default cost.
    pub fn medium() -> Self {
        Self {
            c_load: 100e-15,
            vtc_points: 151,
            tau_grid: logspace(50e-12, 2000e-12, 6),
            dual_u_grid: logspace(0.12, 10.0, 6),
            dual_v_grid: logspace(0.12, 10.0, 6),
            dual_w_grid: linspace(-2.6, 1.8, 13),
            dv_max: 0.06,
            full_pair_matrix: false,
            glitch: true,
            glitch_u_grid: logspace(0.3, 8.0, 3),
            glitch_v_grid: logspace(0.3, 8.0, 3),
            glitch_w_grid: linspace(-1.0, 4.0, 8),
            load_grid: Some(logspace(10e-15, 300e-15, 4)),
            jobs: 0,
        }
    }

    /// A heavily reduced option set for unit tests: coarse grids, loose
    /// simulation accuracy. Roughly 50x cheaper than the default.
    pub fn fast() -> Self {
        Self {
            c_load: 100e-15,
            vtc_points: 81,
            tau_grid: logspace(60e-12, 2000e-12, 4),
            dual_u_grid: logspace(0.15, 9.0, 4),
            dual_v_grid: logspace(0.15, 9.0, 4),
            dual_w_grid: linspace(-2.2, 1.6, 8),
            dv_max: 0.08,
            full_pair_matrix: false,
            glitch: false,
            glitch_u_grid: vec![0.5, 4.0],
            glitch_v_grid: vec![0.5, 4.0],
            glitch_w_grid: linspace(-1.0, 4.0, 5),
            load_grid: None,
            jobs: 0,
        }
    }

    /// Resolves the `jobs` knob to an actual worker count: `0` becomes the
    /// machine's available parallelism (1 if that cannot be determined).
    pub fn worker_threads(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// A canonical description of every field that affects the characterized
    /// model — the options half of the cache key ([`crate::persist`]).
    /// Deliberately excludes `jobs`: worker count never changes the result.
    pub fn cache_key_string(&self) -> String {
        format!(
            "c_load={:?};vtc_points={};tau_grid={:?};dual_u={:?};dual_v={:?};dual_w={:?};\
             dv_max={:?};full_pair_matrix={};glitch={};glitch_u={:?};glitch_v={:?};\
             glitch_w={:?};load_grid={:?}",
            self.c_load,
            self.vtc_points,
            self.tau_grid,
            self.dual_u_grid,
            self.dual_v_grid,
            self.dual_w_grid,
            self.dv_max,
            self.full_pair_matrix,
            self.glitch,
            self.glitch_u_grid,
            self.glitch_v_grid,
            self.glitch_w_grid,
            self.load_grid,
        )
    }
}

/// The measured response of one simulated scenario.
#[derive(Debug, Clone)]
pub struct SimResponse {
    /// The events as actually applied (time-shifted so every ramp starts
    /// strictly after `t = 0`).
    pub events: Vec<InputEvent>,
    /// The simulated output waveform. It ends one accepted solver step
    /// after the step in which the output first crossed the far
    /// measurement threshold (`V_ih` rising, `V_il` falling; the 95 %/5 %
    /// bound for [`Simulator::simulate_wide`]) after the near one — or at
    /// the settling horizon if the output never gets that far. Every first crossing of the thresholds between the two is the
    /// same as on the full-horizon waveform, but the settled tail is not
    /// there: read extrema or final values from a transient of your own.
    pub output: Pwl,
    /// The output transition direction.
    pub output_edge: Edge,
    /// The transient's recovery-ladder trace (empty for a healthy run);
    /// counts and per-rung wall time are aggregated into
    /// [`crate::jobs::CharStats::recoveries`] and
    /// [`crate::jobs::CharStats::recovery_seconds`].
    pub recovery: RecoveryTrace,
}

impl SimResponse {
    /// Delay measured relative to the event at index `k` (paper notation
    /// `Δ_{iz}`), using the first output crossing.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingCrossing`] if the output never switches.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn delay_from(&self, k: usize, th: &Thresholds) -> Result<f64, ModelError> {
        crate::measure::measure_delay(&self.events[k], &self.output, th, self.output_edge)
    }

    /// Output transition time between `V_il` and `V_ih`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingCrossing`] if the output does not
    /// complete its transition.
    pub fn transition_time(&self, th: &Thresholds) -> Result<f64, ModelError> {
        crate::measure::measure_transition(&self.output, th, self.output_edge)
    }
}

/// A characterization simulator bound to one cell, technology and load.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    /// The cell under characterization.
    pub cell: &'a Cell,
    /// The process technology.
    pub tech: &'a Technology,
    /// The measurement thresholds (from the VTC family).
    pub thresholds: Thresholds,
    /// Output load, in farads.
    pub c_load: f64,
    /// Transient accuracy knob.
    pub dv_max: f64,
    /// Solver-tolerance scale applied to every transient (see
    /// [`proxim_spice::tran::TranOptions::with_tolerance_scale`]). The
    /// default `1.0` is a bit-identical no-op; the audit repair pass drops
    /// it below one to re-run suspect grid points at higher accuracy.
    pub tol_scale: f64,
    /// Cancellation token polled by every transient this simulator runs.
    /// Defaults to a token that never cancels; see
    /// [`Simulator::with_cancel`].
    pub cancel: CancelToken,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    pub fn new(
        cell: &'a Cell,
        tech: &'a Technology,
        thresholds: Thresholds,
        c_load: f64,
        dv_max: f64,
    ) -> Self {
        Self {
            cell,
            tech,
            thresholds,
            c_load,
            dv_max,
            tol_scale: 1.0,
            cancel: CancelToken::new(),
        }
    }

    /// Returns the simulator with a solver-tolerance scale; `1.0` leaves
    /// every transient bit-identical to the unscaled simulator.
    #[must_use]
    pub fn with_tolerance_scale(mut self, scale: f64) -> Self {
        self.tol_scale = scale;
        self
    }

    /// Binds a cancellation token: every transient this simulator runs polls
    /// it at step and Newton-iteration boundaries, so a characterization run
    /// can be stopped (or deadlined) mid-simulation with a typed error.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// A conservative settling horizon after the last ramp ends: the time to
    /// slew the loaded output several times over, accounting for the series
    /// stack dividing the drive strength. [`Simulator::simulate`] sets each
    /// transient's `t_stop` this far past the end of the last input ramp.
    pub fn settle_margin(&self) -> f64 {
        let n = self.cell.input_count() as f64;
        let vdd = self.tech.vdd;
        let k_n = self.tech.k_n(self.cell.wn());
        let k_p = self.tech.k_p(self.cell.wp());
        let vt = self.tech.nmos.vt0.max(self.tech.pmos.vt0);
        let i_min = k_n.min(k_p) * (vdd - vt) * (vdd - vt) / n;
        // Total output capacitance: load plus a junction allowance.
        let c_total =
            self.c_load + 4.0 * self.tech.cj_per_width * self.cell.wn().max(self.cell.wp());
        (12.0 * c_total * vdd / i_min).max(1e-9)
    }

    /// Simulates a switching scenario and returns the measured response.
    ///
    /// Stable pins are driven at sensitizing levels resolved by
    /// [`Scenario::resolve`]. All events are shifted together so that every
    /// ramp starts after `t = 0` (the DC initial condition then reflects the
    /// initial rails); the shifted events are returned so measurements stay
    /// consistent.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the scenario is unsensitizable or the
    /// simulation fails.
    pub fn simulate(&self, events: &[InputEvent]) -> Result<SimResponse, ModelError> {
        self.simulate_until(events, false)
    }

    /// [`Simulator::simulate`] for a response that is also read for its
    /// 5–95 %-of-swing edge: the transient runs on until the output has
    /// crossed the farther of that bound and the §2 threshold.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate`].
    pub fn simulate_wide(&self, events: &[InputEvent]) -> Result<SimResponse, ModelError> {
        self.simulate_until(events, true)
    }

    fn simulate_until(&self, events: &[InputEvent], wide: bool) -> Result<SimResponse, ModelError> {
        let scenario = Scenario::resolve(self.cell, events)?;

        // Shift so the earliest ramp starts at a small positive time.
        let t_min = events
            .iter()
            .map(|e| e.ramp.t_start)
            .fold(f64::INFINITY, f64::min);
        let shift = 0.2e-9 - t_min.min(0.0);
        let events: Vec<InputEvent> = events.iter().map(|e| e.delayed(shift)).collect();

        let t_ramps_end = events
            .iter()
            .map(|e| e.ramp.t_start + e.ramp.transition_time)
            .fold(0.0f64, f64::max);
        let t_stop = t_ramps_end + self.settle_margin();

        let mut net = self.cell.netlist(self.tech, self.c_load);
        for (pin, lv) in scenario.stable_levels.iter().enumerate() {
            if let Some(high) = lv {
                net.set_level(pin, *high);
            }
        }
        for e in &events {
            net.set_waveform(e.pin, e.ramp.waveform(self.tech.vdd));
        }

        let th = &self.thresholds;
        let edge = scenario.output_edge;
        let vdd = self.tech.vdd;
        let far = match (edge, wide) {
            (Edge::Rising, false) => th.v_ih,
            (Edge::Falling, false) => th.v_il,
            (Edge::Rising, true) => th.v_ih.max(0.95 * vdd),
            (Edge::Falling, true) => th.v_il.min(0.05 * vdd),
        };
        let options = TranOptions::to(t_stop)
            .with_dv_max(self.dv_max)
            .with_tolerance_scale(self.tol_scale)
            .with_stop(StopRule {
                node: net.out,
                edge,
                near: th.threshold_for(edge),
                far,
            });
        let result = net.circuit.tran_cancellable(&options, &self.cancel)?;
        let output = result.waveform(net.out);
        Ok(SimResponse {
            events,
            output,
            output_edge: scenario.output_edge,
            recovery: result.recovery,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proxim_cells::{Cell, Technology};

    fn setup() -> (Cell, Technology, Thresholds) {
        (
            Cell::nand(3),
            Technology::demo_5v(),
            Thresholds::new(1.2, 3.4, 5.0),
        )
    }

    #[test]
    fn default_options_are_consistent() {
        let o = CharacterizeOptions::default();
        assert!(o.tau_grid.windows(2).all(|w| w[1] > w[0]));
        assert!(o.dual_w_grid.windows(2).all(|w| w[1] > w[0]));
        assert!(o.dual_w_grid.first().copied().unwrap() < 0.0);
        assert!(
            *o.dual_w_grid.last().unwrap() >= 1.0,
            "window must reach s = Δ⁽¹⁾"
        );
    }

    #[test]
    fn single_rising_input_produces_falling_output() {
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.1);
        let events = vec![InputEvent::new(0, Edge::Rising, 0.0, 500e-12)];
        let r = sim.simulate(&events).unwrap();
        assert_eq!(r.output_edge, Edge::Falling);
        let d = r.delay_from(0, &th).unwrap();
        assert!(d > 0.0, "delay must be positive, got {d}");
        assert!(d < 2e-9, "delay implausibly large: {d}");
        let t = r.transition_time(&th).unwrap();
        assert!(t > 0.0 && t < 2e-9, "transition time {t}");
    }

    #[test]
    fn negative_start_times_are_shifted() {
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.1);
        let events = vec![
            InputEvent::new(0, Edge::Rising, -1e-9, 300e-12),
            InputEvent::new(1, Edge::Rising, 0.0, 300e-12),
            InputEvent::new(2, Edge::Rising, 0.0, 300e-12),
        ];
        let r = sim.simulate(&events).unwrap();
        assert!(r.events.iter().all(|e| e.ramp.t_start > 0.0));
        // Relative separation is preserved by the common shift.
        let s01 = crate::measure::separation(&r.events[0], &r.events[1], &th);
        assert!((s01 - 1e-9).abs() < 1e-15);
    }

    #[test]
    fn proximity_speeds_up_falling_inputs() {
        // The headline effect (Fig 1-2a): two falling inputs on a NAND in
        // close proximity make the output rise faster than either alone,
        // because both PMOS pull-ups conduct.
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let tau = 500e-12;

        // Far separation: b switches long after a, blocked by a.
        let far = sim
            .simulate(&[
                InputEvent::new(0, Edge::Falling, 0.0, tau),
                InputEvent::new(1, Edge::Falling, 5e-9, tau),
            ])
            .unwrap();
        let d_far = far.delay_from(0, &th).unwrap();

        // Close proximity: both together.
        let close = sim
            .simulate(&[
                InputEvent::new(0, Edge::Falling, 0.0, tau),
                InputEvent::new(1, Edge::Falling, 0.0, tau),
            ])
            .unwrap();
        let d_close = close.delay_from(0, &th).unwrap();

        assert!(
            d_close < d_far * 0.9,
            "proximity must accelerate the rising output: close {d_close}, far {d_far}"
        );
    }

    #[test]
    fn proximity_slows_down_rising_inputs() {
        // Fig 1-2(c): rising inputs in proximity slow the falling output,
        // because the series NMOS stack conducts late.
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let tau = 500e-12;

        let far = sim
            .simulate(&[
                InputEvent::new(0, Edge::Rising, 2e-9, tau),
                InputEvent::new(1, Edge::Rising, 0.0, tau),
                InputEvent::new(2, Edge::Rising, 0.0, tau),
            ])
            .unwrap();
        // Reference: pin 0 arrives last, causing the transition.
        let d_far = far.delay_from(0, &th).unwrap();

        let close = sim
            .simulate(&[
                InputEvent::new(0, Edge::Rising, 0.0, tau),
                InputEvent::new(1, Edge::Rising, 0.0, tau),
                InputEvent::new(2, Edge::Rising, 0.0, tau),
            ])
            .unwrap();
        let d_close = close.delay_from(0, &th).unwrap();

        assert!(
            d_close > d_far,
            "simultaneous rising inputs must be slower: close {d_close}, far {d_far}"
        );
    }

    #[test]
    fn settle_margin_scales_with_load() {
        let (cell, tech, th) = setup();
        let small = Simulator::new(&cell, &tech, th, 20e-15, 0.1);
        let large = Simulator::new(&cell, &tech, th, 500e-15, 0.1);
        assert!(large.settle_margin() > small.settle_margin());
    }
}
