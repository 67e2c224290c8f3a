//! Circuit representation: nodes, elements, and stimulus waveforms.

use crate::cancel::CancelToken;
use crate::device::{MosParams, MosType};
use crate::op::OpResult;
use crate::solver::AnalysisError;
use crate::sweep::DcSweepResult;
use crate::tran::{TranOptions, TranResult};
use proxim_numeric::pwl::Pwl;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A handle to a circuit node. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A voltage-source stimulus.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// A constant voltage.
    Dc(f64),
    /// A piecewise-linear voltage over time.
    Pwl(Pwl),
}

impl Waveform {
    /// A step from `v0` to `v1` with a very fast (1 fs) linear edge starting
    /// at `t_step`.
    // The two knots are strictly increasing by construction.
    #[allow(clippy::expect_used)]
    pub fn step(v0: f64, t_step: f64, v1: f64) -> Self {
        Self::Pwl(Pwl::new(vec![(t_step, v0), (t_step + 1e-15, v1)]).expect("step knots are valid"))
    }

    /// A single ramp from `v0` to `v1` starting at `t_start` and lasting
    /// `transition_time`.
    ///
    /// # Panics
    ///
    /// Panics if `transition_time` is not strictly positive.
    pub fn ramp(t_start: f64, transition_time: f64, v0: f64, v1: f64) -> Self {
        Self::Pwl(Pwl::ramp(t_start, transition_time, v0, v1))
    }

    /// The source value at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Self::Dc(v) => *v,
            Self::Pwl(p) => p.eval(t),
        }
    }

    /// Time points at which the waveform changes slope (transient
    /// breakpoints). Empty for DC sources.
    pub fn breakpoints(&self) -> Vec<f64> {
        match self {
            Self::Dc(_) => Vec::new(),
            Self::Pwl(p) => p.points().iter().map(|&(t, _)| t).collect(),
        }
    }

    /// The value held before the first knot (forever, for DC) and the
    /// knots.
    fn knots(&self) -> (f64, &[(f64, f64)]) {
        match self {
            Self::Dc(v) => (*v, &[]),
            Self::Pwl(p) => (p.points()[0].1, p.points()),
        }
    }

    /// The latest time `T` such that both waveforms evaluate to the same
    /// bits at every `t ≤ T`: infinite when they are the same waveform,
    /// negative infinity when they may differ from the start. Two knot lists
    /// that agree up to knot `k` interpolate every `t` up to that knot from
    /// the same segment, and a waveform holds its first value until its
    /// first knot.
    pub(crate) fn agrees_until(&self, other: &Self) -> f64 {
        let bits = |(t, v): &(f64, f64)| (t.to_bits(), v.to_bits());
        let ((va, ka), (vb, kb)) = (self.knots(), other.knots());
        let common = ka
            .iter()
            .zip(kb)
            .take_while(|(x, y)| bits(x) == bits(y))
            .count();
        if common == ka.len() && common == kb.len() {
            return if va.to_bits() == vb.to_bits() {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        if common > 0 {
            let t = ka[common - 1].0;
            // A later knot at the same time would make `t` itself evaluate
            // differently.
            let repeats = |k: &[(f64, f64)]| k.get(common).is_some_and(|p| p.0 == t);
            return if repeats(ka) || repeats(kb) {
                f64::NEG_INFINITY
            } else {
                t
            };
        }
        if va.to_bits() != vb.to_bits() {
            return f64::NEG_INFINITY;
        }
        let first = |k: &[(f64, f64)]| k.first().map_or(f64::INFINITY, |p| p.0);
        first(ka).min(first(kb))
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Element {
    Resistor {
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    VSource {
        plus: NodeId,
        minus: NodeId,
        wave: Waveform,
        /// Index among voltage sources (its MNA branch-current unknown).
        branch: usize,
    },
    ISource {
        plus: NodeId,
        minus: NodeId,
        wave: Waveform,
    },
    Mosfet {
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosParams,
        /// Precomputed `kp * w / l`.
        beta: f64,
    },
}

/// A flat netlist of elements over named nodes.
///
/// Build the circuit with [`Circuit::node`] and the element constructors,
/// then run analyses via [`Circuit::dc_op`], [`Circuit::dc_sweep`], and
/// [`Circuit::tran`].
///
/// Clones share the node and element names until one of them adds a node
/// or an element, so circuits that differ only in their source waveforms
/// (a family of characterization stimuli, say) cost little more than their
/// elements.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Arc<Names>,
    pub(crate) elements: Vec<Element>,
    pub(crate) n_vsources: usize,
}

/// The node and element names of a circuit, and their lookup maps.
#[derive(Debug, Clone, Default)]
struct Names {
    nodes: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<String>,
    element_index: HashMap<String, usize>,
}

impl Circuit {
    /// The ground node, present in every circuit.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut names = Names {
            nodes: vec!["0".to_string()],
            ..Names::default()
        };
        names.node_index.insert("0".to_string(), NodeId(0));
        Self {
            names: Arc::new(names),
            ..Self::default()
        }
    }

    /// Returns the node with the given name, creating it if absent.
    /// The names `"0"` and `"gnd"` refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = if name == "gnd" { "0" } else { name };
        if let Some(&id) = self.names.node_index.get(key) {
            return id;
        }
        let names = Arc::make_mut(&mut self.names);
        let id = NodeId(names.nodes.len());
        names.nodes.push(key.to_string());
        names.node_index.insert(key.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = if name == "gnd" { "0" } else { name };
        self.names.node_index.get(key).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names.nodes[id.0]
    }

    /// Total number of nodes, including ground.
    pub fn node_count(&self) -> usize {
        self.names.nodes.len()
    }

    /// Number of voltage sources.
    pub fn vsource_count(&self) -> usize {
        self.n_vsources
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    fn register(&mut self, name: &str, element: Element) -> usize {
        assert!(
            !self.names.element_index.contains_key(name),
            "duplicate element name {name:?}"
        );
        let idx = self.elements.len();
        self.elements.push(element);
        let names = Arc::make_mut(&mut self.names);
        names.elements.push(name.to_string());
        names.element_index.insert(name.to_string(), idx);
        idx
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive or the name is duplicated.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive"
        );
        self.register(name, Element::Resistor { a, b, ohms });
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or the name is duplicated.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) {
        assert!(
            farads >= 0.0 && farads.is_finite(),
            "capacitance must be non-negative"
        );
        self.register(name, Element::Capacitor { a, b, farads });
    }

    /// Adds an independent voltage source with `plus` at the waveform
    /// potential relative to `minus`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicated name.
    pub fn vsource(&mut self, name: &str, plus: NodeId, minus: NodeId, wave: Waveform) {
        let branch = self.n_vsources;
        self.n_vsources += 1;
        self.register(
            name,
            Element::VSource {
                plus,
                minus,
                wave,
                branch,
            },
        );
    }

    /// Adds an independent current source driving `wave` amperes from
    /// `plus`, through the source, into `minus` (SPICE convention: positive
    /// current is pulled out of the `plus` node).
    ///
    /// # Panics
    ///
    /// Panics on a duplicated name.
    pub fn isource(&mut self, name: &str, plus: NodeId, minus: NodeId, wave: Waveform) {
        self.register(name, Element::ISource { plus, minus, wave });
    }

    /// Adds a MOSFET with explicit geometry (`w`, `l` in meters).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or geometry, or a duplicated name.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        name: &str,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosParams,
        w: f64,
        l: f64,
    ) {
        params.validate();
        assert!(w > 0.0 && l > 0.0, "transistor geometry must be positive");
        let beta = params.kp * w / l;
        self.register(
            name,
            Element::Mosfet {
                mos_type,
                d,
                g,
                s,
                b,
                params,
                beta,
            },
        );
    }

    /// Replaces the waveform of the named voltage source.
    ///
    /// # Panics
    ///
    /// Panics if no voltage source with that name exists.
    pub fn set_vsource(&mut self, name: &str, wave: Waveform) {
        let idx = *self
            .names
            .element_index
            .get(name)
            .unwrap_or_else(|| panic!("no element named {name:?}"));
        match &mut self.elements[idx] {
            Element::VSource { wave: w, .. } => *w = wave,
            other => panic!("element {name:?} is not a voltage source: {other:?}"),
        }
    }

    /// The waveform of the named voltage source.
    ///
    /// # Panics
    ///
    /// Panics if no voltage source with that name exists.
    pub fn vsource_waveform(&self, name: &str) -> &Waveform {
        let idx = *self
            .names
            .element_index
            .get(name)
            .unwrap_or_else(|| panic!("no element named {name:?}"));
        match &self.elements[idx] {
            Element::VSource { wave, .. } => wave,
            other => panic!("element {name:?} is not a voltage source: {other:?}"),
        }
    }

    /// All transient breakpoints contributed by source waveforms.
    pub(crate) fn source_breakpoints(&self) -> Vec<f64> {
        let mut bps: Vec<f64> = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::VSource { wave, .. } | Element::ISource { wave, .. } => {
                    Some(wave.breakpoints())
                }
                _ => None,
            })
            .flatten()
            .collect();
        bps.sort_by(f64::total_cmp);
        bps.dedup();
        bps
    }

    /// When `other` is this circuit up to its source waveforms (the same
    /// nodes and the same elements, sources included, on the same
    /// terminals), the latest time up to which every source of `other`
    /// evaluates to this circuit's bits (see [`Waveform::agrees_until`]);
    /// `None` when the two differ in anything else.
    pub(crate) fn sources_agree_until(&self, other: &Self) -> Option<f64> {
        if self.node_count() != other.node_count() || self.elements.len() != other.elements.len() {
            return None;
        }
        let mut until = f64::INFINITY;
        for pair in self.elements.iter().zip(&other.elements) {
            let (a, b) = match pair {
                (
                    Element::VSource {
                        plus,
                        minus,
                        wave: a,
                        branch,
                    },
                    Element::VSource {
                        plus: p,
                        minus: m,
                        wave: b,
                        branch: k,
                    },
                ) if (plus, minus, branch) == (p, m, k) => (a, b),
                (
                    Element::ISource {
                        plus,
                        minus,
                        wave: a,
                    },
                    Element::ISource {
                        plus: p,
                        minus: m,
                        wave: b,
                    },
                ) if (plus, minus) == (p, m) => (a, b),
                (a, b) if a == b => continue,
                _ => return None,
            };
            until = until.min(a.agrees_until(b));
        }
        Some(until)
    }

    /// Computes the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if Newton–Raphson fails to converge even
    /// with gmin and source stepping.
    pub fn dc_op(&self) -> Result<OpResult, AnalysisError> {
        crate::op::dc_op(self)
    }

    /// Sweeps the named voltage source from `from` to `to` in `points`
    /// steps, solving the DC system at each point with continuation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if any sweep point fails to converge.
    ///
    /// # Panics
    ///
    /// Panics if the named element is not a voltage source or `points < 2`.
    pub fn dc_sweep(
        &self,
        source: &str,
        from: f64,
        to: f64,
        points: usize,
    ) -> Result<DcSweepResult, AnalysisError> {
        crate::sweep::dc_sweep(self, source, from, to, points, &CancelToken::new())
    }

    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if the initial operating point or any time
    /// step fails to converge at the minimum step size.
    pub fn tran(&self, options: &TranOptions) -> Result<TranResult, AnalysisError> {
        crate::tran::tran(self, options, &CancelToken::new())
    }

    /// Runs a transient analysis under a cancellation token: `cancel` is
    /// polled at every time step and Newton iteration, so a stop request or
    /// an expired deadline unwinds the run within one solver iteration.
    ///
    /// # Errors
    ///
    /// Everything [`Circuit::tran`] returns, plus
    /// [`AnalysisError::Cancelled`] after [`CancelToken::cancel`] and
    /// [`AnalysisError::DeadlineExceeded`] (carrying the recovery trace
    /// accumulated so far) once the token's deadline passes.
    pub fn tran_cancellable(
        &self,
        options: &TranOptions,
        cancel: &CancelToken,
    ) -> Result<TranResult, AnalysisError> {
        crate::tran::tran(self, options, cancel)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ground_is_node_zero() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GND);
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert!(Circuit::GND.is_ground());
    }

    #[test]
    fn nodes_are_deduplicated() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(c.node("a"), a);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(b), "b");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zz"), None);
    }

    #[test]
    fn waveform_values() {
        assert_eq!(Waveform::Dc(3.0).value_at(55.0), 3.0);
        let r = Waveform::ramp(1.0, 2.0, 0.0, 4.0);
        assert_eq!(r.value_at(2.0), 2.0);
        let s = Waveform::step(0.0, 1.0, 5.0);
        assert_eq!(s.value_at(0.5), 0.0);
        assert_eq!(s.value_at(1.1), 5.0);
    }

    #[test]
    fn breakpoints_come_from_pwl_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::ramp(1e-9, 1e-9, 0.0, 1.0));
        c.vsource("V2", a, Circuit::GND, Waveform::Dc(1.0));
        let bps = c.source_breakpoints();
        assert_eq!(bps, vec![1e-9, 2e-9]);
    }

    #[test]
    fn set_vsource_replaces_waveform() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("VIN", a, Circuit::GND, Waveform::Dc(0.0));
        c.set_vsource("VIN", Waveform::Dc(2.5));
        assert_eq!(c.vsource_waveform("VIN").value_at(0.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "duplicate element name")]
    fn duplicate_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1.0);
        c.resistor("R1", a, Circuit::GND, 2.0);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 0.0);
    }

    #[test]
    #[should_panic(expected = "not a voltage source")]
    fn set_vsource_on_resistor_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1.0);
        c.set_vsource("R1", Waveform::Dc(1.0));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(Circuit::GND.to_string(), "n0");
    }

    #[test]
    fn isource_norton_equivalence() {
        // 5 mA into 1 kOhm pulls the node to -5 V (current out of plus).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", a, Circuit::GND, Waveform::Dc(5e-3));
        c.resistor("R1", a, Circuit::GND, 1e3);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(a) + 5.0).abs() < 1e-6, "v = {}", op.voltage(a));
    }

    #[test]
    fn isource_charges_capacitor_linearly() {
        // A constant current into a capacitor ramps the voltage at I/C.
        let mut c = Circuit::new();
        let a = c.node("a");
        // Current switches on just after t = 0 so the DC initial condition
        // is a well-defined 0 V.
        c.isource("I1", Circuit::GND, a, Waveform::step(0.0, 1e-12, 1e-3));
        c.capacitor("C1", a, Circuit::GND, 1e-12);
        c.resistor("Rleak", a, Circuit::GND, 1e12);
        let r = c
            .tran(&crate::tran::TranOptions::to(5e-9).with_dv_max(0.05))
            .unwrap();
        let w = r.waveform(a);
        // dV/dt = 1 mA / 1 pF = 1 V/ns.
        for t_ns in [1.0, 2.0, 4.0] {
            let t = t_ns * 1e-9;
            assert!(
                (w.eval(t) - t_ns).abs() < 0.02,
                "t = {t_ns} ns: {}",
                w.eval(t)
            );
        }
    }

    #[test]
    fn isource_pwl_breakpoints_collected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", a, Circuit::GND, Waveform::ramp(1e-9, 2e-9, 0.0, 1e-3));
        c.resistor("R1", a, Circuit::GND, 1e3);
        let bps = c.source_breakpoints();
        assert_eq!(bps.len(), 2);
        assert!((bps[0] - 1e-9).abs() < 1e-18);
        assert!((bps[1] - 3e-9).abs() < 1e-18);
    }
}
