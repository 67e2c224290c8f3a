//! Simulation drivers for model characterization.
//!
//! The paper builds its macromodels from HSPICE runs; [`Simulator`] plays
//! that role here on top of [`proxim_spice`]. It elaborates the cell once
//! per scenario, applies controlled PWL ramps, picks a settling horizon from
//! the drive strength, and returns the output waveform for what it is read
//! for ([`Reading`]): an edge run ends as soon as the threshold crossings
//! its measurement reads are fixed (see [`proxim_spice::StopRule`]), a peak
//! run goes to the settling horizon. Stimuli that share their leading ramp
//! can be simulated as one family ([`Simulator::simulate_family`]), which
//! integrates the shared part of their transients once.

use crate::error::ModelError;
use crate::measure::{InputEvent, Scenario};
use crate::thresholds::Thresholds;
use proxim_cells::{Cell, CellNetlist, InputRamp, Technology};
use proxim_numeric::grid::{linspace, logspace};
use proxim_numeric::pwl::{Edge, Pwl, TrapezoidalCubic};
use proxim_spice::tran::{tran_family, StopRule, TranOptions, TranWork};
use proxim_spice::{CancelToken, Circuit, FaultPlan, RecoveryTrace};

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
    /// Solver fault sites armed in every transient of the run (see
    /// [`proxim_spice::fault`]); [`FaultPlan::DISARMED`] by default.
    pub faults: FaultPlan,
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
            faults: FaultPlan::DISARMED,
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
            faults: FaultPlan::DISARMED,
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
            faults: FaultPlan::DISARMED,
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
    /// An armed fault plan is appended, so a faulted run never shares a key
    /// with a healthy one; a disarmed plan adds nothing.
    pub fn cache_key_string(&self) -> String {
        let mut key = format!(
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
        );
        if self.faults.is_armed() {
            key.push_str(&format!(";faults={}", self.faults));
        }
        key
    }
}

/// What a characterization transient's output is read for, and so how far
/// it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reading {
    /// The delay from `events[0]` and the `V_il`–`V_ih` transition time.
    Edge,
    /// [`Reading::Edge`] plus the 5–95 %-of-swing edge time.
    WideEdge,
    /// The output extremum (§6): `events[0]` is the causer, and the stable
    /// pins are sensitized for it alone, so the other events (blockers)
    /// switch against the transition it would cause.
    Peak,
}

/// The measured response of one simulated scenario.
#[derive(Debug, Clone)]
pub struct SimResponse {
    /// The events as actually applied: the earliest ramp starts at exactly
    /// 0.2 ns (or that much after its own start, when every event starts
    /// after `t = 0`) and every other event keeps its offset from it.
    pub events: Vec<InputEvent>,
    /// The simulated output waveform. An edge reading's ends one accepted
    /// solver step after the step in which the output first crossed the
    /// far measurement threshold (`V_ih` rising, `V_il` falling; the
    /// 95 %/5 % bound for [`Reading::WideEdge`]) after the near one — or at
    /// the settling horizon if the output never gets that far. Every first
    /// crossing of the thresholds between the two is the same as on the
    /// full-horizon waveform, but the settled tail is not there. A
    /// [`Reading::Peak`] waveform runs to the settling horizon.
    pub output: Pwl,
    /// The output transition direction.
    pub output_edge: Edge,
    /// The transient's recovery-ladder trace (empty for a healthy run);
    /// counts and per-rung wall time are aggregated into
    /// [`crate::jobs::CharStats::recoveries`] and
    /// [`crate::jobs::CharStats::recovery_seconds`].
    pub recovery: RecoveryTrace,
    /// The transient's solver work: what it integrated, and what it
    /// inherited from a family's shared prefix.
    pub work: TranWork,
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

    /// The output's 5–95 %-of-`vdd` edge time on its [`TrapezoidalCubic`],
    /// if it gets that far.
    pub fn wide_edge_time(&self, vdd: f64) -> Option<f64> {
        TrapezoidalCubic::new(&self.output).transition_time(
            0.05 * vdd,
            0.95 * vdd,
            self.output_edge,
        )
    }

    /// The output extremum in the output edge's direction (the minimum of
    /// a falling output, the maximum of a rising one), read on the output's
    /// [`TrapezoidalCubic`] as the delay and transition time are: the
    /// glitch peak of a [`Reading::Peak`] response.
    pub fn peak(&self) -> f64 {
        TrapezoidalCubic::new(&self.output).extremum(self.output_edge)
    }
}

/// The events as a transient applies them, and the index of the leading
/// one (the earliest start, the first among equals): all move together so
/// that the leading ramp starts at exactly 0.2 ns, or 0.2 ns after its own
/// start when that is after `t = 0`. The DC initial condition then reflects
/// the initial rails, and every other event keeps its offset from the
/// leading one.
pub(crate) fn applied_events(events: &[InputEvent]) -> (Vec<InputEvent>, Option<usize>) {
    let lead = (0..events.len())
        .min_by(|&a, &b| events[a].ramp.t_start.total_cmp(&events[b].ramp.t_start));
    let base = lead.map_or(0.0, |k| events[k].ramp.t_start.min(0.0));
    let applied = events
        .iter()
        .map(|e| InputEvent {
            ramp: InputRamp {
                t_start: 0.2e-9 + (e.ramp.t_start - base),
                ..e.ramp
            },
            ..*e
        })
        .collect();
    (applied, lead)
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
    /// Fault plan carried into every transient this simulator runs;
    /// disarmed by default (see [`Simulator::with_faults`]).
    pub faults: FaultPlan,
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
            faults: FaultPlan::DISARMED,
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

    /// Binds a fault plan: every transient this simulator runs draws its
    /// solver faults from it.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// A conservative settling horizon after the last ramp ends: the time to
    /// slew the loaded output several times over, accounting for the series
    /// stack dividing the drive strength. [`Simulator::simulate`] sets each
    /// transient's `t_stop` this far past the end of the last input ramp,
    /// and sizes its steps for a run this far past the end of the leading
    /// one.
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
        self.simulate_for(events, Reading::Edge)
    }

    /// Simulates a switching scenario for `reading` (see [`Reading`]): a
    /// [`Reading::WideEdge`] transient runs on until the output has crossed
    /// the farther of the 5–95 %-of-swing bound and the §2 threshold, a
    /// [`Reading::Peak`] one to the settling horizon.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate`].
    pub fn simulate_for(
        &self,
        events: &[InputEvent],
        reading: Reading,
    ) -> Result<SimResponse, ModelError> {
        let mut response = None;
        self.simulate_family(&[(events, reading)], |_, r| response = Some(r));
        response.unwrap_or_else(|| unreachable!("a family of one has one response"))
    }

    /// Simulates a family of stimuli — `(events, reading)` each, as
    /// [`Simulator::simulate_for`] would — and hands each stimulus's
    /// response to `each` with its index, as soon as it is done (not in
    /// stimulus order). Each response is bit-identical to simulating the
    /// stimulus alone.
    ///
    /// Every stimulus runs towards `t_stop`, the end of its last ramp plus
    /// [`Simulator::settle_margin`]; an edge reading ends early under its
    /// stop rule.
    /// Stimuli that share their leading ramp (pin, edge, transition time
    /// and start) drive transients that agree until a later input starts
    /// to move, so [`tran_family`] integrates that shared prefix once and
    /// forks each member from it. Their step bounds and fault stream are
    /// keyed by the leading ramp's horizon — its end plus
    /// [`Simulator::settle_margin`] — rather than by `t_stop`, so that they
    /// agree too.
    pub fn simulate_family(
        &self,
        stimuli: &[(&[InputEvent], Reading)],
        mut each: impl FnMut(usize, Result<SimResponse, ModelError>),
    ) {
        // Members clone one elaborated cell, sharing its names.
        let cell = self.cell.netlist(self.tech, self.c_load);
        let mut prepared = Vec::with_capacity(stimuli.len());
        for (i, &(events, reading)) in stimuli.iter().enumerate() {
            match self.prepare(&cell, events, reading) {
                Ok(p) => prepared.push((i, p)),
                Err(e) => each(i, Err(e)),
            }
        }
        let members: Vec<(&Circuit, TranOptions)> = prepared
            .iter()
            .map(|(_, p)| (&p.net.circuit, p.options))
            .collect();
        tran_family(&members, &self.cancel, |k, result| {
            let (i, p) = &prepared[k];
            let response = result.map_err(ModelError::from).map(|r| SimResponse {
                output: r.waveform(p.net.out),
                events: p.events.clone(),
                output_edge: p.output_edge,
                work: r.work(),
                recovery: r.recovery,
            });
            each(*i, response);
        });
    }

    /// Elaborates one stimulus: the applied events, the `cell` netlist
    /// driven by them, and the transient options.
    fn prepare(
        &self,
        cell: &CellNetlist,
        events: &[InputEvent],
        reading: Reading,
    ) -> Result<Prepared, ModelError> {
        let sensitized = match reading {
            Reading::Peak => &events[..events.len().min(1)],
            Reading::Edge | Reading::WideEdge => events,
        };
        let scenario = Scenario::resolve(self.cell, sensitized)?;
        let (events, lead) = applied_events(events);

        let ramp_end = |e: &InputEvent| e.ramp.t_start + e.ramp.transition_time;
        let t_ramps_end = events.iter().map(ramp_end).fold(0.0f64, f64::max);
        let t_stop = t_ramps_end + self.settle_margin();
        // Steps are sized for the leading ramp's horizon: stimuli sharing
        // that ramp then share their step bounds, whatever follows it.
        let horizon = lead.map_or(0.0, |k| ramp_end(&events[k])) + self.settle_margin();

        let mut net = cell.clone();
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
        let far = match (edge, reading) {
            (Edge::Rising, Reading::WideEdge) => th.v_ih.max(0.95 * vdd),
            (Edge::Falling, Reading::WideEdge) => th.v_il.min(0.05 * vdd),
            (Edge::Rising, _) => th.v_ih,
            (Edge::Falling, _) => th.v_il,
        };
        // A peak is read over the whole waveform, so it has no stop rule.
        let stop = (reading != Reading::Peak).then_some(StopRule {
            node: net.out,
            edge,
            near: th.threshold_for(edge),
            far,
        });
        let options = TranOptions {
            t_stop,
            stop,
            ..TranOptions::to(horizon)
        }
        .with_dv_max(self.dv_max)
        .with_tolerance_scale(self.tol_scale)
        .with_faults(self.faults);
        Ok(Prepared {
            events,
            net,
            options,
            output_edge: edge,
        })
    }
}

/// One elaborated stimulus, ready for its transient.
struct Prepared {
    /// The events as applied.
    events: Vec<InputEvent>,
    net: CellNetlist,
    options: TranOptions,
    output_edge: Edge,
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
