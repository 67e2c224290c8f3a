//! The timing engine: topological propagation of transitions with
//! proximity-aware gate evaluation.

use crate::library::{CellId, TimingLibrary};
use crate::netlist::{GateNetlist, NetId, NetlistError};
use proxim_model::baseline::single_switching_timing_at_load;
use proxim_model::measure::InputEvent;
use proxim_model::{GateTiming, ModelError, ProximityModel};
use proxim_numeric::pwl::Edge;
use std::fmt;
use std::ops::Range;

/// Which delay model evaluates multi-input gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayMode {
    /// The paper's proximity composition (default).
    Proximity,
    /// Classic STA: only the causing input's single-input model.
    SingleInput,
}

/// A primary-input assignment: a stable level or one controlled transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiAssignment {
    /// The assigned net.
    pub net: NetId,
    /// Logic level before any transition.
    pub initial: bool,
    /// The transition, if the input switches.
    pub event: Option<(Edge, f64, f64)>,
}

impl PiAssignment {
    /// A stable primary input.
    pub fn stable(net: NetId, level: bool) -> Self {
        Self {
            net,
            initial: level,
            event: None,
        }
    }

    /// A switching primary input: a full-swing ramp starting at `t_start`
    /// with the given transition time. The initial level is implied by the
    /// edge.
    ///
    /// # Panics
    ///
    /// Panics if `transition_time` is not strictly positive.
    pub fn switching(net: NetId, edge: Edge, t_start: f64, transition_time: f64) -> Self {
        assert!(transition_time > 0.0, "transition time must be positive");
        Self {
            net,
            initial: edge == Edge::Falling,
            event: Some((edge, t_start, transition_time)),
        }
    }
}

/// One propagated transition on a net: a full-swing ramp description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetEvent {
    /// Transition direction.
    pub edge: Edge,
    /// Ramp start time, in seconds.
    pub t_start: f64,
    /// Full-swing transition time, in seconds.
    pub transition: f64,
    /// Threshold-crossing (arrival) time as measured by the driving gate's
    /// model, in seconds.
    pub arrival: f64,
}

impl NetEvent {
    fn to_input_event(self, pin: usize) -> InputEvent {
        InputEvent::new(pin, self.edge, self.t_start, self.transition)
    }
}

/// The error returned by a timing run.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// The netlist failed validation.
    Netlist(NetlistError),
    /// A gate evaluation failed.
    Model {
        /// The gate instance name.
        gate: String,
        /// The underlying model error.
        source: ModelError,
    },
    /// A gate input was never assigned a logic state.
    Unassigned {
        /// The net missing a state.
        net: String,
    },
    /// A gate's pin count does not match its library cell.
    PinMismatch {
        /// The gate instance name.
        gate: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Netlist(e) => write!(f, "{e}"),
            Self::Model { gate, source } => write!(f, "gate {gate}: {source}"),
            Self::Unassigned { net } => write!(f, "net {net} has no assigned state"),
            Self::PinMismatch { gate } => write!(f, "gate {gate} pin count mismatch"),
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            Self::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

/// The result of a timing run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    events: Vec<Option<NetEvent>>,
    levels: Vec<Option<(bool, bool)>>,
    /// Per-net: the input net of the driving gate whose event the output
    /// delay was referenced to (the dominant/causing pin's net).
    cause: Vec<Option<NetId>>,
    mode: DelayMode,
    sink_nets: Vec<NetId>,
}

impl TimingReport {
    /// The transition on a net, if it switches.
    pub fn net_event(&self, net: NetId) -> Option<NetEvent> {
        self.events.get(net.index()).copied().flatten()
    }

    /// The `(initial, final)` logic levels of a net.
    pub fn net_levels(&self, net: NetId) -> Option<(bool, bool)> {
        self.levels.get(net.index()).copied().flatten()
    }

    /// The delay mode that produced this report.
    pub fn mode(&self) -> DelayMode {
        self.mode
    }

    /// The latest arrival over the sink (primary output) nets, with the net,
    /// or `None` if no output switches.
    pub fn critical_arrival(&self) -> Option<(NetId, f64)> {
        self.sink_nets
            .iter()
            .filter_map(|&n| self.net_event(n).map(|e| (n, e.arrival)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The critical path: the chain of nets from a primary input to the
    /// latest-arriving output, following each gate's *reference* input (the
    /// dominant pin under the proximity model, the causing pin under the
    /// single-input model). Returned source-first.
    pub fn critical_path(&self) -> Vec<NetId> {
        let Some((end, _)) = self.critical_arrival() else {
            return Vec::new();
        };
        let mut path = vec![end];
        let mut cur = end;
        // A path through a combinational netlist visits each net at most
        // once; the bound only stops a malformed `cause` chain that loops.
        while let Some(prev) = self.cause.get(cur.index()).copied().flatten() {
            if path.len() >= self.cause.len() {
                break;
            }
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        path
    }

    /// Slack of every switching sink net against a required arrival time
    /// (positive = meets timing).
    pub fn sink_slacks(&self, required: f64) -> Vec<(NetId, f64)> {
        self.sink_nets
            .iter()
            .filter_map(|&n| self.net_event(n).map(|e| (n, required - e.arrival)))
            .collect()
    }

    /// The worst (smallest) sink slack, if any output switches.
    pub fn worst_slack(&self, required: f64) -> Option<f64> {
        self.sink_slacks(required)
            .into_iter()
            .map(|(_, s)| s)
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// The static timing analyzer.
///
/// [`Sta::new`] compiles the netlist once into a timing graph; each
/// [`Sta::run`] then does only per-vector work, in time linear in the
/// netlist's size.
#[derive(Debug, Clone)]
pub struct Sta<'a> {
    library: &'a TimingLibrary,
    netlist: &'a GateNetlist,
    /// Per net: the capacitive load its driver sees ([`Sta::net_load`]).
    loads: Vec<f64>,
    /// The compiled graph, or why the netlist is invalid.
    graph: Result<TimingGraph, NetlistError>,
}

/// What every run of a valid netlist shares: the gates in topological
/// order, each with what its evaluation reads, laid out flat so a run walks
/// memory in order.
#[derive(Debug, Clone)]
struct TimingGraph {
    /// The gates, in [`GateNetlist::topo_order`]'s order.
    nodes: Vec<GateNode>,
    /// Every node's input nets in pin order, node after node.
    pins: Vec<NetId>,
    /// Driven nets that drive no gate input (the primary outputs), as
    /// [`GateNetlist::sink_nets`] lists them.
    sink_nets: Vec<NetId>,
}

/// One gate of a [`TimingGraph`].
#[derive(Debug, Clone)]
struct GateNode {
    /// Index into [`GateNetlist::gates`], for error messages.
    gate: usize,
    cell: CellId,
    output: NetId,
    /// This gate's span of [`TimingGraph::pins`].
    pins: Range<usize>,
}

impl<'a> Sta<'a> {
    /// Creates an analyzer over a library and netlist, compiling the netlist
    /// into a timing graph. An invalid netlist is reported by
    /// [`Sta::run`].
    ///
    /// # Panics
    ///
    /// Panics if a gate's cell does not belong to `library`.
    pub fn new(library: &'a TimingLibrary, netlist: &'a GateNetlist) -> Self {
        // Summing each net's fan-out caps in gate, then pin order keeps
        // every load's floating-point rounding fixed.
        let mut loads = vec![0.0; netlist.net_count()];
        let mut has_fanout = vec![false; netlist.net_count()];
        let mut pin_count = 0;
        for gate in netlist.gates() {
            let m = library.model(gate.cell);
            let cap = m.cell().input_cap(m.tech());
            pin_count += gate.inputs.len();
            for &net in &gate.inputs {
                loads[net.index()] += cap;
                has_fanout[net.index()] = true;
            }
        }
        let mut sink_nets = Vec::new();
        for (i, load) in loads.iter_mut().enumerate() {
            if has_fanout[i] {
                continue;
            }
            if let Some(g) = netlist.driver_of(NetId(i)) {
                *load = library.model(g.cell).reference_load();
                sink_nets.push(NetId(i));
            }
        }
        let graph = netlist.topo_order().map(|order| {
            let gates = netlist.gates();
            let mut pins = Vec::with_capacity(pin_count);
            let nodes = order
                .into_iter()
                .map(|gi| {
                    let gate = &gates[gi];
                    let start = pins.len();
                    pins.extend_from_slice(&gate.inputs);
                    GateNode {
                        gate: gi,
                        cell: gate.cell,
                        output: gate.output,
                        pins: start..pins.len(),
                    }
                })
                .collect();
            TimingGraph {
                nodes,
                pins,
                sink_nets,
            }
        });
        Self {
            library,
            netlist,
            loads,
            graph,
        }
    }

    /// The capacitive load on a net: the summed input capacitance of its
    /// fanout pins, or (for a sink net) the reference load of its driver's
    /// model.
    pub fn net_load(&self, net: NetId) -> f64 {
        self.loads.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Runs timing propagation.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] on an invalid netlist, unassigned inputs, or a
    /// gate whose evaluation the model rejects.
    pub fn run(
        &self,
        assignments: &[PiAssignment],
        mode: DelayMode,
    ) -> Result<TimingReport, StaError> {
        let graph = self.graph.as_ref().map_err(NetlistError::clone)?;
        let gates = self.netlist.gates();
        let n_nets = self.netlist.net_count();
        let mut levels: Vec<Option<(bool, bool)>> = vec![None; n_nets];
        let mut events: Vec<Option<NetEvent>> = vec![None; n_nets];
        let mut cause: Vec<Option<NetId>> = vec![None; n_nets];

        for a in assignments {
            match a.event {
                None => levels[a.net.index()] = Some((a.initial, a.initial)),
                Some((edge, t_start, tt)) => {
                    let fin = edge == Edge::Rising;
                    levels[a.net.index()] = Some((!fin, fin));
                    // Arrival uses mid-swing until a driving model refines
                    // it; for PIs the first consuming gate re-measures from
                    // the ramp anyway.
                    events[a.net.index()] = Some(NetEvent {
                        edge,
                        t_start,
                        transition: tt,
                        arrival: t_start + 0.5 * tt,
                    });
                }
            }
        }

        // Per-gate scratch, cleared for each gate.
        let mut initial = Vec::new();
        let mut fin = Vec::new();
        let mut pin_events = Vec::new();
        let mut stable_levels = Vec::new();
        for node in &graph.nodes {
            let inputs = &graph.pins[node.pins.clone()];
            let model = self.library.model(node.cell);
            let cell = model.cell();
            if inputs.len() != cell.input_count() {
                return Err(StaError::PinMismatch {
                    gate: gates[node.gate].name.clone(),
                });
            }

            initial.clear();
            fin.clear();
            for &net in inputs {
                let Some((i0, i1)) = levels[net.index()] else {
                    return Err(StaError::Unassigned {
                        net: self.netlist.net_name(net).to_string(),
                    });
                };
                initial.push(i0);
                fin.push(i1);
            }
            let out0 = cell.output_for(&initial);
            let out1 = cell.output_for(&fin);
            levels[node.output.index()] = Some((out0, out1));
            if out0 == out1 {
                continue;
            }

            // Collect switching pins. For inverting cells only one input
            // edge can produce the observed output edge; opposing events are
            // treated as stable at their final level (their own transition
            // belongs to a glitch the single-transition abstraction drops).
            let output_edge = if out0 { Edge::Falling } else { Edge::Rising };
            let relevant_edge = output_edge.opposite();
            pin_events.clear();
            stable_levels.clear();
            stable_levels.extend(fin.iter().map(|&l| Some(l)));
            for (pin, &net) in inputs.iter().enumerate() {
                if initial[pin] == fin[pin] {
                    continue;
                }
                let ev = events[net.index()].ok_or_else(|| StaError::Unassigned {
                    net: self.netlist.net_name(net).to_string(),
                })?;
                if ev.edge == relevant_edge {
                    pin_events.push(ev.to_input_event(pin));
                    stable_levels[pin] = None;
                }
            }
            if pin_events.is_empty() {
                // Output flip attributable only to opposing-edge inputs:
                // outside the single-transition abstraction; leave unswitched.
                levels[node.output.index()] = Some((out0, out0));
                continue;
            }

            let c_load = self.loads[node.output.index()];
            let timing = self
                .evaluate(model, &pin_events, &stable_levels, c_load, mode)
                .map_err(|source| StaError::Model {
                    gate: gates[node.gate].name.clone(),
                    source,
                })?;

            events[node.output.index()] = Some(self.output_event(model, &timing));
            cause[node.output.index()] = Some(inputs[timing.reference_pin]);
        }

        Ok(TimingReport {
            events,
            levels,
            cause,
            mode,
            sink_nets: graph.sink_nets.clone(),
        })
    }

    fn evaluate(
        &self,
        model: &ProximityModel,
        pin_events: &[InputEvent],
        stable_levels: &[Option<bool>],
        c_load: f64,
        mode: DelayMode,
    ) -> Result<GateTiming, ModelError> {
        match mode {
            DelayMode::Proximity => {
                model.gate_timing_with_levels(pin_events, stable_levels, c_load)
            }
            DelayMode::SingleInput => single_switching_timing_at_load(model, pin_events, c_load),
        }
    }

    /// Converts a gate's timing answer into the output net's ramp event.
    fn output_event(&self, model: &ProximityModel, t: &GateTiming) -> NetEvent {
        let th = model.thresholds();
        let vdd = th.vdd;
        let tt_measured = t.output_transition;
        // The model measures transition time between V_il and V_ih; scale to
        // the full-swing ramp the downstream gate consumes. Real edges have
        // slow tails near the rails that keep the complementary network of
        // the next stage conducting longer than a linear ramp implies; the
        // characterized tail factor stretches the reconstruction to match
        // the real 5-95 % edge (DESIGN.md §7).
        let frac_span = (th.v_ih - th.v_il) / vdd;
        let tt_full = (tt_measured / frac_span * model.tail_factor(t.output_edge)).max(1e-15);
        // Place the ramp so it crosses the measurement threshold at the
        // model-reported arrival.
        let threshold = th.threshold_for(t.output_edge);
        let frac_to_threshold = match t.output_edge {
            Edge::Rising => threshold / vdd,
            Edge::Falling => (vdd - threshold) / vdd,
        };
        NetEvent {
            edge: t.output_edge,
            t_start: t.output_arrival - frac_to_threshold * tt_full,
            transition: tt_full,
            arrival: t.output_arrival,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::circuits::{c17, full_adder, ripple_carry_adder};
    use proxim_cells::{Cell, Technology};
    use proxim_model::characterize::CharacterizeOptions;
    use std::sync::OnceLock;

    fn shared_library() -> &'static TimingLibrary {
        static LIB: OnceLock<TimingLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            let tech = Technology::demo_5v();
            let model =
                ProximityModel::characterize(&Cell::nand(2), &tech, &CharacterizeOptions::fast())
                    .expect("characterization succeeds");
            let mut lib = TimingLibrary::new();
            lib.add(model);
            lib
        })
    }

    #[test]
    fn c17_propagates_and_times() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, pis, pos) = c17(nand2);
        let sta = Sta::new(lib, &nl);

        // One rising input; the other inputs sensitize N1 -> N10 -> N22
        // (N3 = N6 = 1 makes N11 = 0, hence N16 = 1, opening G22).
        let assignments = vec![
            PiAssignment::switching(pis[0], Edge::Rising, 0.0, 300e-12),
            PiAssignment::stable(pis[1], true),
            PiAssignment::stable(pis[2], true),
            PiAssignment::stable(pis[3], true),
            PiAssignment::stable(pis[4], true),
        ];
        let report = sta.run(&assignments, DelayMode::Proximity).unwrap();
        // The transition reaches output 22 through g10 -> g22.
        let ev = report.net_event(pos[0]).expect("first PO switches");
        assert!(ev.arrival > 0.0 && ev.arrival < 10e-9);
        assert!(report.critical_arrival().is_some());
    }

    #[test]
    fn proximity_and_single_input_modes_differ_on_convergent_paths() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, ins, outs) = full_adder(nand2);
        let sta = Sta::new(lib, &nl);
        // a switches; its reconvergent fanout inside the XOR structure makes
        // internal gates see multiple switching pins in proximity.
        let assignments = vec![
            PiAssignment::switching(ins[0], Edge::Rising, 0.0, 400e-12),
            PiAssignment::stable(ins[1], false),
            PiAssignment::stable(ins[2], true),
        ];
        let prox = sta.run(&assignments, DelayMode::Proximity).unwrap();
        let single = sta.run(&assignments, DelayMode::SingleInput).unwrap();
        // Both produce sum-output events; arrivals generally differ.
        let ps = prox.net_event(outs[0]);
        let ss = single.net_event(outs[0]);
        assert!(ps.is_some() && ss.is_some());
    }

    #[test]
    fn adder_critical_path_grows_with_width() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let mut last = 0.0;
        for bits in [1usize, 2, 4] {
            let (nl, ins, _outs) = ripple_carry_adder(nand2, bits);
            let sta = Sta::new(lib, &nl);
            // Ripple stimulus: bit 0 generates a carry when a0 rises
            // (b0 = 1); higher bits propagate it (a_i = 1, b_i = 0).
            let mut assignments = Vec::new();
            for (k, &net) in ins.iter().enumerate() {
                // ins layout: a0..a_{n-1}, b0..b_{n-1}, cin.
                if k == 0 {
                    assignments.push(PiAssignment::switching(net, Edge::Rising, 0.0, 300e-12));
                } else if k <= bits {
                    assignments.push(PiAssignment::stable(net, true));
                } else {
                    assignments.push(PiAssignment::stable(net, false));
                }
            }
            let report = sta.run(&assignments, DelayMode::Proximity).unwrap();
            let (_, arrival) = report
                .critical_arrival()
                .expect("the carry chain must switch");
            assert!(
                arrival > last,
                "critical arrival must grow with width: {arrival} vs {last}"
            );
            last = arrival;
        }
    }

    #[test]
    fn stable_inputs_produce_no_events() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, ins, outs) = full_adder(nand2);
        let sta = Sta::new(lib, &nl);
        let assignments: Vec<PiAssignment> =
            ins.iter().map(|&n| PiAssignment::stable(n, true)).collect();
        let report = sta.run(&assignments, DelayMode::Proximity).unwrap();
        assert!(report.net_event(outs[0]).is_none());
        assert!(report.critical_arrival().is_none());
    }

    #[test]
    fn unassigned_input_is_an_error() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, ins, _) = full_adder(nand2);
        let sta = Sta::new(lib, &nl);
        let assignments = vec![PiAssignment::stable(ins[0], true)];
        assert!(matches!(
            sta.run(&assignments, DelayMode::Proximity),
            Err(StaError::Unassigned { .. })
        ));
    }

    /// Generate-then-propagate stimulus for the ripple-carry adder: a0
    /// rises (with b0 = 1 this generates a carry), higher bits propagate.
    fn ripple_assignments(ins: &[crate::netlist::NetId], bits: usize) -> Vec<PiAssignment> {
        let mut assignments = Vec::new();
        for (k, &net) in ins.iter().enumerate() {
            if k == 0 {
                assignments.push(PiAssignment::switching(net, Edge::Rising, 0.0, 300e-12));
            } else if k <= bits {
                assignments.push(PiAssignment::stable(net, true));
            } else {
                assignments.push(PiAssignment::stable(net, false));
            }
        }
        assignments
    }

    #[test]
    fn critical_path_traces_back_to_a_primary_input() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let bits = 3;
        let (nl, ins, _) = ripple_carry_adder(nand2, bits);
        let sta = Sta::new(lib, &nl);
        let assignments = ripple_assignments(&ins, bits);
        let report = sta.run(&assignments, DelayMode::Proximity).unwrap();
        let path = report.critical_path();
        assert!(path.len() >= 3, "path {path:?}");
        // The path starts at the switching primary input a0.
        assert_eq!(path[0], ins[0], "path must start at the switching PI");
        // And ends at the critical sink.
        let (end, _) = report.critical_arrival().unwrap();
        assert_eq!(*path.last().unwrap(), end);
        // Arrivals are non-decreasing along the path (skipping the PI).
        let arrivals: Vec<f64> = path
            .iter()
            .filter_map(|&n| report.net_event(n).map(|e| e.arrival))
            .collect();
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0] - 1e-15, "arrivals not monotone: {arrivals:?}");
        }
    }

    #[test]
    fn slacks_against_required_time() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, ins, _) = ripple_carry_adder(nand2, 2);
        let sta = Sta::new(lib, &nl);
        let assignments = ripple_assignments(&ins, 2);
        let report = sta.run(&assignments, DelayMode::Proximity).unwrap();
        let (_, critical) = report.critical_arrival().unwrap();
        // Required exactly at the critical arrival: worst slack is zero.
        let worst = report.worst_slack(critical).unwrap();
        assert!(worst.abs() < 1e-15);
        // A looser requirement gives positive slack everywhere.
        for (_, s) in report.sink_slacks(critical + 1e-9) {
            assert!(s > 0.0);
        }
    }

    #[test]
    fn critical_path_stops_on_a_looping_cause_chain() {
        let event = NetEvent {
            edge: Edge::Rising,
            t_start: 0.0,
            transition: 1e-10,
            arrival: 5e-11,
        };
        // net2 <- net1 <- net0 <- net1 <- ...: no combinational netlist
        // produces this, but the walk must still end.
        let report = TimingReport {
            events: vec![None, None, Some(event)],
            levels: vec![None; 3],
            cause: vec![Some(NetId(1)), Some(NetId(0)), Some(NetId(1))],
            mode: DelayMode::Proximity,
            sink_nets: vec![NetId(2)],
        };
        let path = report.critical_path();
        assert_eq!(path.len(), 3, "{path:?}");
        assert_eq!(path.last(), Some(&NetId(2)));
    }

    #[test]
    fn analyzer_is_shareable_across_threads() {
        fn clone_sync<T: Clone + Sync>() {}
        clone_sync::<Sta<'_>>();
    }

    #[test]
    fn invalid_netlist_fails_every_run() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        let b = nl.net("b");
        nl.mark_primary_input(a);
        nl.add_gate("g1", nand2, &[a, b], b);
        let sta = Sta::new(lib, &nl);
        let assignments = [PiAssignment::stable(a, true)];
        for _ in 0..2 {
            assert!(matches!(
                sta.run(&assignments, DelayMode::Proximity),
                Err(StaError::Netlist(_))
            ));
        }
    }

    #[test]
    fn net_load_sums_fanout_caps() {
        let lib = shared_library();
        let nand2 = crate::library::CellId(0);
        let (nl, ins, _) = full_adder(nand2);
        let sta = Sta::new(lib, &nl);
        // Input a fans out to two NAND gates in the XOR half-structure.
        let load = sta.net_load(ins[0]);
        let single_pin = {
            let m = lib.model(nand2);
            m.cell().input_cap(m.tech())
        };
        assert!(load >= 2.0 * single_pin - 1e-20, "load {load}");
    }
}
