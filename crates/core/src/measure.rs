//! Input events, switching scenarios, and threshold-based measurement.
//!
//! Delay is measured from the time the reference *input* crosses its
//! measurement threshold (`V_il` rising / `V_ih` falling) to the time the
//! *output* crosses its own first threshold; output transition time is
//! measured between `V_il` and `V_ih`. Separation between two inputs is the
//! difference of their input-threshold crossing times (§3).
//!
//! Inputs are exact piecewise-linear ramps and are read linearly. Outputs
//! are sampled transients and are read on the integrator's own interpolant
//! ([`TrapezoidalCubic`]), which stays accurate between samples as the
//! solver's steps lengthen.

use crate::error::ModelError;
use crate::thresholds::Thresholds;
use proxim_cells::{Cell, InputRamp};
use proxim_numeric::pwl::{Edge, Pwl, TrapezoidalCubic};

/// One switching input: a pin index plus its controlled ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEvent {
    /// The gate input pin.
    pub pin: usize,
    /// The ramp applied to that pin.
    pub ramp: InputRamp,
}

impl InputEvent {
    /// Creates an event from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `transition_time` is not strictly positive.
    pub fn new(pin: usize, edge: Edge, t_start: f64, transition_time: f64) -> Self {
        let ramp = match edge {
            Edge::Rising => InputRamp::rising(t_start, transition_time),
            Edge::Falling => InputRamp::falling(t_start, transition_time),
        };
        Self { pin, ramp }
    }

    /// The event's transition direction.
    pub fn edge(&self) -> Edge {
        self.ramp.edge
    }

    /// The event's transition time.
    pub fn transition_time(&self) -> f64 {
        self.ramp.transition_time
    }

    /// The arrival time: when the ramp crosses its measurement threshold
    /// (`V_il` rising, `V_ih` falling).
    pub fn arrival(&self, th: &Thresholds) -> f64 {
        self.ramp
            .crossing_time(th.threshold_for(self.edge()), th.vdd)
    }

    /// Returns the event shifted later by `dt`.
    pub fn delayed(mut self, dt: f64) -> Self {
        self.ramp = self.ramp.delayed(dt);
        self
    }
}

/// The separation `s_ab = arrival(b) - arrival(a)` between two events,
/// measured from `a` (§3: positive when `b` arrives after `a`).
pub fn separation(a: &InputEvent, b: &InputEvent, th: &Thresholds) -> f64 {
    b.arrival(th) - a.arrival(th)
}

/// A resolved switching scenario: stable-pin levels that sensitize the
/// output to the switching set, and the resulting output edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Per-pin stable levels; `None` for switching pins.
    pub stable_levels: Vec<Option<bool>>,
    /// The output transition direction the events produce.
    pub output_edge: Edge,
}

impl Scenario {
    /// Resolves the scenario for `events` on `cell`.
    ///
    /// Searches for stable-pin levels under which the output differs between
    /// the initial input state (each event at its starting rail) and the
    /// final state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] if there are no events, an event
    /// pin repeats or is out of range, or no stable assignment sensitizes
    /// the output.
    pub fn resolve(cell: &Cell, events: &[InputEvent]) -> Result<Self, ModelError> {
        let n = cell.input_count();
        if events.is_empty() {
            return Err(ModelError::InvalidQuery {
                detail: "no switching inputs".into(),
            });
        }
        let mut seen = vec![false; n];
        for e in events {
            if e.pin >= n {
                return Err(ModelError::InvalidQuery {
                    detail: format!("pin {} out of range for {}-input cell", e.pin, n),
                });
            }
            if seen[e.pin] {
                return Err(ModelError::InvalidQuery {
                    detail: format!("pin {} switches twice", e.pin),
                });
            }
            seen[e.pin] = true;
        }

        let stable: Vec<usize> = (0..n).filter(|&i| !seen[i]).collect();
        for assign in 0..(1u32 << stable.len()) {
            let mut initial = vec![false; n];
            let mut fin = vec![false; n];
            for (k, &pin) in stable.iter().enumerate() {
                let level = assign & (1 << k) != 0;
                initial[pin] = level;
                fin[pin] = level;
            }
            for e in events {
                let rising = e.edge() == Edge::Rising;
                initial[e.pin] = !rising;
                fin[e.pin] = rising;
            }
            let out0 = cell.output_for(&initial);
            let out1 = cell.output_for(&fin);
            if out0 != out1 {
                let stable_levels = (0..n)
                    .map(|i| if seen[i] { None } else { Some(initial[i]) })
                    .collect();
                let output_edge = if out0 { Edge::Falling } else { Edge::Rising };
                return Ok(Self {
                    stable_levels,
                    output_edge,
                });
            }
        }
        Err(ModelError::InvalidQuery {
            detail: "no stable-pin assignment sensitizes the output".into(),
        })
    }

    /// Builds the scenario from *known* stable-pin levels (as in a netlist,
    /// where non-switching pins carry actual values) instead of searching
    /// for a sensitizing assignment.
    ///
    /// `stable_levels[pin]` must be `Some(level)` for every non-switching
    /// pin; entries for switching pins are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] if events are invalid, a stable
    /// level is missing, or the output does not flip under these levels.
    pub fn from_levels(
        cell: &Cell,
        events: &[InputEvent],
        stable_levels: &[Option<bool>],
    ) -> Result<Self, ModelError> {
        let n = cell.input_count();
        if stable_levels.len() != n {
            return Err(ModelError::InvalidQuery {
                detail: format!(
                    "stable_levels has {} entries for {n} pins",
                    stable_levels.len()
                ),
            });
        }
        if events.is_empty() {
            return Err(ModelError::InvalidQuery {
                detail: "no switching inputs".into(),
            });
        }
        let mut switching = vec![false; n];
        for e in events {
            if e.pin >= n || switching[e.pin] {
                return Err(ModelError::InvalidQuery {
                    detail: format!("invalid or repeated pin {}", e.pin),
                });
            }
            switching[e.pin] = true;
        }
        let mut initial = vec![false; n];
        let mut fin = vec![false; n];
        for pin in 0..n {
            if switching[pin] {
                continue;
            }
            let Some(level) = stable_levels[pin] else {
                return Err(ModelError::InvalidQuery {
                    detail: format!("missing stable level for pin {pin}"),
                });
            };
            initial[pin] = level;
            fin[pin] = level;
        }
        for e in events {
            let rising = e.edge() == Edge::Rising;
            initial[e.pin] = !rising;
            fin[e.pin] = rising;
        }
        let out0 = cell.output_for(&initial);
        let out1 = cell.output_for(&fin);
        if out0 == out1 {
            return Err(ModelError::InvalidQuery {
                detail: "output does not flip under the given stable levels".into(),
            });
        }
        Ok(Self {
            stable_levels: (0..n)
                .map(|p| if switching[p] { None } else { stable_levels[p] })
                .collect(),
            output_edge: if out0 { Edge::Falling } else { Edge::Rising },
        })
    }
}

/// The *causing rank* of a scenario: walking the events in arrival order,
/// the 1-based position of the event whose transition logically flips the
/// output.
///
/// Rank 1 means the first arrival suffices (OR-like conduction, e.g. falling
/// NAND inputs opening parallel pull-ups); rank `events.len()` means every
/// input is needed (AND-like conduction, e.g. rising NAND inputs completing
/// a series stack). Mixed networks can yield intermediate ranks.
///
/// # Errors
///
/// Returns [`ModelError::InvalidQuery`] if the events never flip the output
/// (which [`Scenario::resolve`] normally rules out).
pub fn causing_rank(
    cell: &Cell,
    events: &[InputEvent],
    scenario: &Scenario,
    th: &Thresholds,
) -> Result<CausingEvent, ModelError> {
    let n = cell.input_count();
    let mut levels = vec![false; n];
    for (pin, lv) in scenario.stable_levels.iter().enumerate() {
        if let Some(h) = lv {
            levels[pin] = *h;
        }
    }
    for e in events {
        levels[e.pin] = e.edge() == Edge::Falling; // starting rail
    }
    let out0 = cell.output_for(&levels);

    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| events[a].arrival(th).total_cmp(&events[b].arrival(th)));
    for (rank, &k) in order.iter().enumerate() {
        let e = &events[k];
        levels[e.pin] = e.edge() == Edge::Rising; // final rail
        if cell.output_for(&levels) != out0 {
            return Ok(CausingEvent {
                rank: rank + 1,
                event_index: k,
            });
        }
    }
    Err(ModelError::InvalidQuery {
        detail: "events never flip the output".into(),
    })
}

/// The result of [`causing_rank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausingEvent {
    /// 1-based position in arrival order at which the output flips.
    pub rank: usize,
    /// Index into the original `events` slice of the causing event.
    pub event_index: usize,
}

/// Measures the propagation delay from `reference` to the output waveform,
/// a sampled transient read on its [`TrapezoidalCubic`].
///
/// # Errors
///
/// Returns [`ModelError::MissingCrossing`] if the output never crosses its
/// measurement threshold with `output_edge`.
pub fn measure_delay(
    reference: &InputEvent,
    output: &Pwl,
    th: &Thresholds,
    output_edge: Edge,
) -> Result<f64, ModelError> {
    let t_in = reference.arrival(th);
    let t_out = TrapezoidalCubic::new(output)
        .first_crossing(th.threshold_for(output_edge), output_edge)
        .ok_or_else(|| ModelError::MissingCrossing {
            what: format!("measuring {output_edge} output delay"),
        })?;
    Ok(t_out - t_in)
}

/// Measures the output transition time between `V_il` and `V_ih` on the
/// output's [`TrapezoidalCubic`].
///
/// # Errors
///
/// Returns [`ModelError::MissingCrossing`] if the output does not complete
/// the transition.
pub fn measure_transition(
    output: &Pwl,
    th: &Thresholds,
    output_edge: Edge,
) -> Result<f64, ModelError> {
    TrapezoidalCubic::new(output)
        .transition_time(th.v_il, th.v_ih, output_edge)
        .ok_or_else(|| ModelError::MissingCrossing {
            what: format!("measuring {output_edge} output transition time"),
        })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn th() -> Thresholds {
        Thresholds::new(1.25, 3.37, 5.0)
    }

    #[test]
    fn arrival_uses_edge_specific_threshold() {
        let th = th();
        let r = InputEvent::new(0, Edge::Rising, 0.0, 1e-9);
        // Rising: crosses V_il = 1.25 at 1.25/5 of the ramp.
        assert!((r.arrival(&th) - 0.25e-9).abs() < 1e-15);
        let f = InputEvent::new(0, Edge::Falling, 0.0, 1e-9);
        // Falling: crosses V_ih = 3.37 at (5-3.37)/5 of the ramp.
        assert!((f.arrival(&th) - (5.0 - 3.37) / 5.0 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn separation_sign_convention() {
        let th = th();
        let a = InputEvent::new(0, Edge::Rising, 0.0, 1e-9);
        let b = InputEvent::new(1, Edge::Rising, 0.3e-9, 1e-9);
        assert!(separation(&a, &b, &th) > 0.0, "b arrives after a");
        assert!((separation(&a, &b, &th) + separation(&b, &a, &th)).abs() < 1e-18);
    }

    #[test]
    fn scenario_nand_rising_inputs_output_falls() {
        let cell = Cell::nand(3);
        let events = vec![
            InputEvent::new(0, Edge::Rising, 0.0, 1e-9),
            InputEvent::new(1, Edge::Rising, 0.0, 1e-9),
            InputEvent::new(2, Edge::Rising, 0.0, 1e-9),
        ];
        let s = Scenario::resolve(&cell, &events).unwrap();
        assert_eq!(s.output_edge, Edge::Falling);
        assert!(s.stable_levels.iter().all(|l| l.is_none()));
    }

    #[test]
    fn scenario_nand_two_falling_inputs_output_rises() {
        let cell = Cell::nand(3);
        let events = vec![
            InputEvent::new(0, Edge::Falling, 0.0, 1e-9),
            InputEvent::new(1, Edge::Falling, 0.2e-9, 1e-9),
        ];
        let s = Scenario::resolve(&cell, &events).unwrap();
        assert_eq!(s.output_edge, Edge::Rising);
        // Pin c must be held high for the output to respond.
        assert_eq!(s.stable_levels[2], Some(true));
    }

    #[test]
    fn scenario_rejects_duplicate_pin() {
        let cell = Cell::nand(2);
        let events = vec![
            InputEvent::new(0, Edge::Rising, 0.0, 1e-9),
            InputEvent::new(0, Edge::Falling, 0.0, 1e-9),
        ];
        assert!(matches!(
            Scenario::resolve(&cell, &events),
            Err(ModelError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn scenario_rejects_empty() {
        assert!(Scenario::resolve(&Cell::inv(), &[]).is_err());
    }

    #[test]
    fn scenario_opposite_edges_cancel_is_rejected() {
        // a rises and b falls on a NAND2: the final output equals the
        // initial output (high), so there is no completed transition.
        let cell = Cell::nand(2);
        let events = vec![
            InputEvent::new(0, Edge::Rising, 0.0, 1e-9),
            InputEvent::new(1, Edge::Falling, 0.0, 1e-9),
        ];
        assert!(Scenario::resolve(&cell, &events).is_err());
    }

    /// Samples of a parabola leaving `v0` at rest at `t0` and reaching
    /// `v1` at `t0 + span`: the trapezoidal rule's slopes are exact for it,
    /// and so is the cubic read between samples.
    fn parabola(t0: f64, span: f64, v0: f64, v1: f64) -> Pwl {
        let knots = [0.0, 0.17, 0.4, 0.55, 0.8, 1.0, 1.3]
            .map(|x: f64| (t0 + x * span, v0 + (v1 - v0) * x * x));
        Pwl::new(knots.to_vec()).unwrap()
    }

    /// When the parabola of [`parabola`] is at `v`.
    fn parabola_time(t0: f64, span: f64, v0: f64, v1: f64, v: f64) -> f64 {
        t0 + span * ((v - v0) / (v1 - v0)).sqrt()
    }

    #[test]
    fn measure_delay_on_synthetic_output() {
        let th = th();
        let input = InputEvent::new(0, Edge::Rising, 0.0, 1e-9);
        // Output falls from 5 V at rest at 1 ns, reaching 0 V at 2 ns.
        let out = parabola(1e-9, 1e-9, 5.0, 0.0);
        let d = measure_delay(&input, &out, &th, Edge::Falling).unwrap();
        // t_in = 0.25 ns; t_out is where the parabola reaches V_ih = 3.37.
        let expect = parabola_time(1e-9, 1e-9, 5.0, 0.0, 3.37) - 0.25e-9;
        assert!((d - expect).abs() < 1e-15, "{d} vs {expect}");
        // The linear read between the same samples is off by picoseconds.
        let linear = out.first_crossing(3.37, Edge::Falling).unwrap() - 0.25e-9;
        assert!((linear - expect).abs() > 1e-12);
    }

    #[test]
    fn measure_transition_both_edges() {
        let th = th();
        let between = |t0, span, v0, v1| {
            let at = |v| parabola_time(t0, span, v0, v1, v);
            (at(3.37) - at(1.25)).abs()
        };
        let rise = parabola(0.0, 1e-9, 0.0, 5.0);
        let t = measure_transition(&rise, &th, Edge::Rising).unwrap();
        assert!((t - between(0.0, 1e-9, 0.0, 5.0)).abs() < 1e-15);
        let fall = parabola(0.0, 2e-9, 5.0, 0.0);
        let t = measure_transition(&fall, &th, Edge::Falling).unwrap();
        assert!((t - between(0.0, 2e-9, 5.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn measure_errors_when_output_does_not_cross() {
        let th = th();
        let input = InputEvent::new(0, Edge::Rising, 0.0, 1e-9);
        let flat = Pwl::constant(5.0);
        assert!(measure_delay(&input, &flat, &th, Edge::Falling).is_err());
        assert!(measure_transition(&flat, &th, Edge::Falling).is_err());
    }

    #[test]
    fn delayed_event_shifts_arrival() {
        let th = th();
        let e = InputEvent::new(0, Edge::Rising, 0.0, 1e-9);
        let d = e.delayed(0.5e-9);
        assert!((d.arrival(&th) - e.arrival(&th) - 0.5e-9).abs() < 1e-15);
    }
}
