//! The in-process STA path: `Sta::run` in `DelayMode::Proximity` over a
//! 64-bit NAND2 ripple-carry adder driven by seeded input vectors.

use crate::host;
use crate::inputs::{self, Pi};
use proxim_model::{GateTiming, InputEvent, ProximityModel};
use proxim_sta::circuits::ripple_carry_adder;
use proxim_sta::netlist::GateNetlist;
use proxim_sta::timing::{DelayMode, PiAssignment, Sta, TimingReport};
use proxim_sta::TimingLibrary;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Adder width.
pub const BITS: usize = 64;
/// Distinct seeded vectors; one pass runs each once.
pub const VECTORS: usize = 128;

/// The analyzer's inputs, built once in set-up.
pub struct StaBench {
    library: TimingLibrary,
    netlist: GateNetlist,
    vectors: Vec<Vec<PiAssignment>>,
}

/// What the timed STA slices measured.
#[derive(Debug, Clone, Default)]
pub struct StaResult {
    /// Wall seconds of each whole pass over the vectors.
    pass_s: Vec<f64>,
    /// Gate evaluations per pass: every netlist gate, every vector.
    gates_per_pass: f64,
    vectors: usize,
    /// `Sta::run` calls made.
    pub runs: usize,
    /// Runs that errored.
    pub failed: usize,
}

impl StaResult {
    /// Gate evaluations per wall second in the median pass.
    pub fn gates_per_s(&self) -> f64 {
        self.gates_per_pass / host::median(&mut self.pass_s.clone())
    }

    /// Wall microseconds per vector in the median pass.
    pub fn run_us_per_vector(&self) -> f64 {
        host::median(&mut self.pass_s.clone()) * 1e6 / self.vectors as f64
    }
}

impl StaBench {
    /// Builds the adder over a NAND2 `model` and the seeded vectors.
    pub fn new(model: ProximityModel, seed: u64) -> Self {
        let mut library = TimingLibrary::new();
        let nand2 = library.add(model);
        let (netlist, inputs, _) = ripple_carry_adder(nand2, BITS);
        let vectors = inputs::sta_vectors(seed, BITS, VECTORS)
            .into_iter()
            .map(|v| {
                v.into_iter()
                    .zip(&inputs)
                    .map(|(pi, &net)| match pi {
                        Pi::Stable(level) => PiAssignment::stable(net, level),
                        Pi::Switch(edge, t, tt) => PiAssignment::switching(net, edge, t, tt),
                    })
                    .collect()
            })
            .collect();
        Self {
            library,
            netlist,
            vectors,
        }
    }

    fn sta(&self) -> Sta<'_> {
        Sta::new(&self.library, &self.netlist)
    }

    /// Every switching gate of one run: the events and stable levels its
    /// model was asked about, its load, and the arrival the run reported.
    fn gate_calls(&self, sta: &Sta<'_>, report: &TimingReport) -> Vec<GateCall> {
        let mut calls = Vec::new();
        for gate in self.netlist.gates() {
            let Some(out) = report.net_event(gate.output) else {
                continue;
            };
            let relevant = out.edge.opposite();
            let mut events = Vec::new();
            let mut levels = Vec::new();
            for (pin, &net) in gate.inputs.iter().enumerate() {
                let (i0, i1) = report.net_levels(net).unwrap_or((false, false));
                match report.net_event(net) {
                    Some(e) if i0 != i1 && e.edge == relevant => {
                        events.push(InputEvent::new(pin, e.edge, e.t_start, e.transition));
                        levels.push(None);
                    }
                    _ => levels.push(Some(i1)),
                }
            }
            calls.push(GateCall {
                events,
                levels,
                c_load: sta.net_load(gate.output),
                arrival: out.arrival,
            });
        }
        calls
    }

    fn model(&self) -> &ProximityModel {
        self.library.model(self.netlist.gates()[0].cell)
    }

    /// The §2 positive-delay check, gate by gate, over every vector: each
    /// switching gate's own answer must have a finite, positive delay from
    /// its reference input and must be the arrival the run propagated.
    /// Returns gates checked and gates that failed (a run that errors
    /// fails every gate of its vector's netlist).
    pub fn check(&self) -> (usize, usize) {
        let sta = self.sta();
        let model = self.model();
        let (mut checked, mut failed) = (0, 0);
        for v in &self.vectors {
            let Ok(report) = sta.run(v, DelayMode::Proximity) else {
                checked += self.netlist.gates().len();
                failed += self.netlist.gates().len();
                continue;
            };
            for c in self.gate_calls(&sta, &report) {
                checked += 1;
                let answer = model.gate_timing_with_levels(&c.events, &c.levels, c.c_load);
                if !answer.is_ok_and(|t| gate_ok(&t, c.arrival)) {
                    failed += 1;
                }
            }
        }
        (checked, failed)
    }

    /// An empty result to accumulate slices into.
    pub fn result(&self) -> StaResult {
        StaResult {
            gates_per_pass: (self.netlist.gates().len() * self.vectors.len()) as f64,
            vectors: self.vectors.len(),
            ..StaResult::default()
        }
    }

    /// Runs whole passes over the vectors for at least `budget` (and at
    /// least one pass), adding them to `res`.
    pub fn run(&self, budget: Duration, res: &mut StaResult) {
        let sta = self.sta();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            for v in &self.vectors {
                if sta.run(v, DelayMode::Proximity).is_err() {
                    res.failed += 1;
                }
            }
            res.pass_s.push(t0.elapsed().as_secs_f64());
            res.runs += self.vectors.len();
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// The traced view: switching gates per vector, the share of them with
    /// two or more switching inputs, `topo_order` cost, and `gate_timing`
    /// cost on exactly the events the runs evaluated.
    pub fn layers(&self) -> StaLayers {
        let sta = self.sta();
        let calls: Vec<GateCall> = self
            .vectors
            .iter()
            .filter_map(|v| sta.run(v, DelayMode::Proximity).ok())
            .flat_map(|report| self.gate_calls(&sta, &report))
            .collect();
        if calls.is_empty() {
            return StaLayers::default();
        }
        let multi = calls.iter().filter(|c| c.events.len() >= 2).count();
        let model = self.model();
        let mut i = 0;
        let gate_timing_ns = 1e3
            * host::per_call_us(10_000, 0.5, || {
                let c = &calls[i % calls.len()];
                black_box(
                    model
                        .gate_timing_with_levels(&c.events, &c.levels, c.c_load)
                        .ok(),
                );
                i += 1;
            });
        let topo_order_us = host::per_call_us(10_000, 0.5, || {
            black_box(self.netlist.topo_order().ok());
        });
        StaLayers {
            switching_gates_per_vector: calls.len() as f64 / self.vectors.len() as f64,
            multi_input_share: multi as f64 / calls.len() as f64,
            gate_timing_ns,
            topo_order_us,
        }
    }
}

/// One switching gate of a run, as its model saw it.
struct GateCall {
    events: Vec<InputEvent>,
    levels: Vec<Option<bool>>,
    c_load: f64,
    /// The output arrival the run propagated.
    arrival: f64,
}

/// Whether a gate's answer obeys the §2 positive-delay rule and is the
/// arrival the run reported, bit for bit.
fn gate_ok(t: &GateTiming, reported_arrival: f64) -> bool {
    t.delay.is_finite() && t.delay > 0.0 && t.output_arrival.to_bits() == reported_arrival.to_bits()
}

/// Per-layer numbers of the STA path.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaLayers {
    /// Gates whose output switches, per vector.
    pub switching_gates_per_vector: f64,
    /// Share of switching gates with two or more switching inputs.
    pub multi_input_share: f64,
    /// Nanoseconds per `gate_timing_with_levels` call on the runs' events.
    pub gate_timing_ns: f64,
    /// Microseconds per `GateNetlist::topo_order`.
    pub topo_order_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxim_numeric::pwl::Edge;

    fn timing(delay: f64) -> GateTiming {
        GateTiming {
            reference_pin: 0,
            delay,
            output_transition: 2e-10,
            output_arrival: 1e-9 + delay,
            output_edge: Edge::Falling,
            inputs_in_window: 1,
            degradation: None,
        }
    }

    #[test]
    fn gate_check_rejects_non_positive_delays() {
        let ok = timing(1.5e-10);
        assert!(gate_ok(&ok, ok.output_arrival));
        for bad in [0.0, -1e-12, f64::NAN, f64::INFINITY] {
            let t = timing(bad);
            assert!(!gate_ok(&t, t.output_arrival), "delay {bad} passed");
        }
        // A propagated arrival that is not the gate's own answer fails too.
        assert!(!gate_ok(&ok, ok.output_arrival + 1e-15));
    }
}
