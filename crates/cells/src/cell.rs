//! Static CMOS cell descriptions and netlist elaboration.
//!
//! A [`Cell`] is described by its pull-down network ([`Network`]) of NMOS
//! devices between the output and ground; the pull-up network is the series/
//! parallel dual with PMOS devices between the supply and the output. The
//! gate function is therefore always the complement of "the pull-down
//! network conducts".

use crate::tech::Technology;
use proxim_obs::json::{FromJson, ToJson};
use proxim_spice::circuit::{Circuit, NodeId, Waveform};
use proxim_spice::device::MosType;
use std::collections::HashMap;

/// A series/parallel switch network over input indices.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub enum Network {
    /// A single transistor gated by input `i`.
    Input(usize),
    /// Sub-networks in series (all must conduct).
    Series(Vec<Network>),
    /// Sub-networks in parallel (any may conduct).
    Parallel(Vec<Network>),
}

impl Network {
    /// Whether the network conducts for the given input levels (`true` =
    /// logic high = NMOS on).
    ///
    /// # Panics
    ///
    /// Panics if an input index is out of range for `levels`.
    pub fn conducts(&self, levels: &[bool]) -> bool {
        match self {
            Self::Input(i) => levels[*i],
            Self::Series(xs) => xs.iter().all(|x| x.conducts(levels)),
            Self::Parallel(xs) => xs.iter().any(|x| x.conducts(levels)),
        }
    }

    /// The series/parallel dual (series ↔ parallel, leaves unchanged).
    pub fn dual(&self) -> Self {
        match self {
            Self::Input(i) => Self::Input(*i),
            Self::Series(xs) => Self::Parallel(xs.iter().map(Self::dual).collect()),
            Self::Parallel(xs) => Self::Series(xs.iter().map(Self::dual).collect()),
        }
    }

    /// The largest input index referenced, or `None` for an empty network.
    fn max_input(&self) -> Option<usize> {
        match self {
            Self::Input(i) => Some(*i),
            Self::Series(xs) | Self::Parallel(xs) => xs.iter().filter_map(Self::max_input).max(),
        }
    }

    /// Number of transistors in the network.
    pub fn transistor_count(&self) -> usize {
        match self {
            Self::Input(_) => 1,
            Self::Series(xs) | Self::Parallel(xs) => xs.iter().map(Self::transistor_count).sum(),
        }
    }
}

/// A static CMOS cell: named inputs, a pull-down network, and device widths.
///
/// Input ordering matters for series stacks: for [`Cell::nand`], input 0 is
/// the transistor closest to the output and the last input is closest to
/// ground, matching the `a`/`b`/`c` labeling of the paper's Figure 1-1.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Cell {
    name: String,
    input_names: Vec<String>,
    pdn: Network,
    wn: f64,
    wp: f64,
}

/// Default NMOS width for generated cells, in meters.
pub const DEFAULT_WN: f64 = 4e-6;
/// Default PMOS width for generated cells, in meters.
pub const DEFAULT_WP: f64 = 8e-6;

fn letter_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            // `a`, `b`, `c`, ... like the paper's Figure 1-1; absurd fan-ins
            // that leave the alphabet fall back to indexed names.
            match u32::try_from(i)
                .ok()
                .and_then(|i| char::from_u32('a' as u32 + i))
            {
                Some(c) if c.is_ascii_lowercase() => c.to_string(),
                _ => format!("in{i}"),
            }
        })
        .collect()
}

impl Cell {
    /// Builds a cell from an explicit pull-down network.
    ///
    /// # Panics
    ///
    /// Panics if the network references inputs outside `input_names`, if
    /// there are no inputs, or if widths are not positive.
    pub fn from_pdn(name: &str, input_names: Vec<String>, pdn: Network, wn: f64, wp: f64) -> Self {
        assert!(!input_names.is_empty(), "a cell needs at least one input");
        assert!(wn > 0.0 && wp > 0.0, "device widths must be positive");
        let Some(max) = pdn.max_input() else {
            panic!("pull-down network must not be empty");
        };
        assert!(
            max < input_names.len(),
            "network references input {max} but only {} inputs exist",
            input_names.len()
        );
        Self {
            name: name.to_string(),
            input_names,
            pdn,
            wn,
            wp,
        }
    }

    /// An inverter.
    pub fn inv() -> Self {
        Self::from_pdn(
            "INV",
            letter_names(1),
            Network::Input(0),
            DEFAULT_WN,
            DEFAULT_WP,
        )
    }

    /// An `n`-input NAND; input 0 is the series transistor closest to the
    /// output, input `n-1` closest to ground.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 8`.
    pub fn nand(n: usize) -> Self {
        assert!((1..=8).contains(&n), "supported NAND fan-in is 1..=8");
        let pdn = if n == 1 {
            Network::Input(0)
        } else {
            Network::Series((0..n).map(Network::Input).collect())
        };
        Self::from_pdn(
            &format!("NAND{n}"),
            letter_names(n),
            pdn,
            DEFAULT_WN,
            DEFAULT_WP,
        )
    }

    /// An `n`-input NOR; input 0 is the series PMOS closest to the supply.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 8`.
    pub fn nor(n: usize) -> Self {
        assert!((1..=8).contains(&n), "supported NOR fan-in is 1..=8");
        let pdn = if n == 1 {
            Network::Input(0)
        } else {
            Network::Parallel((0..n).map(Network::Input).collect())
        };
        Self::from_pdn(
            &format!("NOR{n}"),
            letter_names(n),
            pdn,
            DEFAULT_WN,
            DEFAULT_WP,
        )
    }

    /// An AOI21: `out = !(a·b + c)`.
    pub fn aoi21() -> Self {
        let pdn = Network::Parallel(vec![
            Network::Series(vec![Network::Input(0), Network::Input(1)]),
            Network::Input(2),
        ]);
        Self::from_pdn("AOI21", letter_names(3), pdn, DEFAULT_WN, DEFAULT_WP)
    }

    /// An OAI21: `out = !((a + b)·c)`.
    pub fn oai21() -> Self {
        let pdn = Network::Series(vec![
            Network::Parallel(vec![Network::Input(0), Network::Input(1)]),
            Network::Input(2),
        ]);
        Self::from_pdn("OAI21", letter_names(3), pdn, DEFAULT_WN, DEFAULT_WP)
    }

    /// Returns the cell with different device widths.
    ///
    /// # Panics
    ///
    /// Panics if widths are not positive.
    pub fn with_widths(mut self, wn: f64, wp: f64) -> Self {
        assert!(wn > 0.0 && wp > 0.0, "device widths must be positive");
        self.wn = wn;
        self.wp = wp;
        self
    }

    /// The cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Input pin names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// NMOS width.
    pub fn wn(&self) -> f64 {
        self.wn
    }

    /// PMOS width.
    pub fn wp(&self) -> f64 {
        self.wp
    }

    /// The pull-down network.
    pub fn pdn(&self) -> &Network {
        &self.pdn
    }

    /// The logic value of the output for the given input levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != self.input_count()`.
    pub fn output_for(&self, levels: &[bool]) -> bool {
        assert_eq!(levels.len(), self.input_count(), "level count mismatch");
        !self.pdn.conducts(levels)
    }

    /// The controlling level of `pin`, if one exists: the input level that
    /// forces the output regardless of the other inputs (e.g. low for NAND
    /// inputs, high for NOR inputs).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn controlling_level(&self, pin: usize) -> Option<bool> {
        assert!(pin < self.input_count(), "pin out of range");
        'level: for level in [false, true] {
            let mut fixed: Option<bool> = None;
            for mask in 0..(1u32 << self.input_count()) {
                let mut levels: Vec<bool> = (0..self.input_count())
                    .map(|i| mask & (1 << i) != 0)
                    .collect();
                levels[pin] = level;
                let out = self.output_for(&levels);
                match fixed {
                    None => fixed = Some(out),
                    Some(f) if f != out => continue 'level,
                    Some(_) => {}
                }
            }
            return Some(level);
        }
        None
    }

    /// Levels for the *other* pins that sensitize the output to `pin`
    /// (flipping `pin` flips the output). Entry `pin` of the returned vector
    /// is unspecified (`false`).
    ///
    /// Returns `None` when no such assignment exists.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn sensitizing_levels(&self, pin: usize) -> Option<Vec<bool>> {
        assert!(pin < self.input_count(), "pin out of range");
        let n = self.input_count();
        for mask in 0..(1u32 << n) {
            let mut levels: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            levels[pin] = false;
            let lo = self.output_for(&levels);
            levels[pin] = true;
            let hi = self.output_for(&levels);
            if lo != hi {
                levels[pin] = false;
                return Some(levels);
            }
        }
        None
    }

    /// The input pin load presented by this cell, in farads.
    pub fn input_cap(&self, tech: &Technology) -> f64 {
        tech.gate_cap(self.wn, self.wp)
    }

    /// Elaborates the cell into a transistor netlist.
    ///
    /// Every input pin is driven by a named voltage source `V<pin>`
    /// (e.g. `Va`) initialized to DC 0 V; callers reconfigure stimuli with
    /// [`Circuit::set_vsource`]. The output carries `c_load` plus junction
    /// parasitics; internal stack nodes carry junction parasitics, which is
    /// what produces the charge-sharing component of the proximity effect.
    pub fn netlist(&self, tech: &Technology, c_load: f64) -> CellNetlist {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(tech.vdd));

        let mut input_nodes = Vec::with_capacity(self.input_count());
        let mut input_sources = Vec::with_capacity(self.input_count());
        for name in &self.input_names {
            let node = ckt.node(name);
            let src = format!("V{name}");
            ckt.vsource(&src, node, Circuit::GND, Waveform::Dc(0.0));
            input_nodes.push(node);
            input_sources.push(src);
        }

        self.elaborate_into(&mut ckt, tech, "x0", vdd, &input_nodes, out);
        ckt.capacitor("CL", out, Circuit::GND, c_load);

        CellNetlist {
            circuit: ckt,
            out,
            vdd,
            input_nodes,
            input_sources,
            vdd_volts: tech.vdd,
        }
    }

    /// Elaborates this cell's transistors, gate capacitances and junction
    /// parasitics into an existing circuit, connecting the given pin nodes.
    /// Element names are prefixed with `prefix` so multiple instances
    /// coexist; internal stack nodes are created under the same prefix.
    ///
    /// This is the building block for flat (whole-netlist) elaboration in
    /// timing validation; [`Cell::netlist`] wraps it for the single-cell
    /// case.
    ///
    /// # Panics
    ///
    /// Panics if `input_nodes.len() != self.input_count()`.
    pub fn elaborate_into(
        &self,
        ckt: &mut Circuit,
        tech: &Technology,
        prefix: &str,
        vdd: NodeId,
        input_nodes: &[NodeId],
        out: NodeId,
    ) {
        assert_eq!(input_nodes.len(), self.input_count(), "pin count mismatch");
        // Junction capacitance accumulates per node as transistors attach.
        let mut junction: HashMap<NodeId, f64> = HashMap::new();
        let mut dev_count = 0usize;

        let pun = self.pdn.dual();
        self.build_network(
            ckt,
            &self.pdn,
            out,
            Circuit::GND,
            MosType::Nmos,
            tech,
            input_nodes,
            &mut junction,
            &mut dev_count,
            &format!("{prefix}_pdn"),
        );
        self.build_network(
            ckt,
            &pun,
            vdd,
            out,
            MosType::Pmos,
            tech,
            input_nodes,
            &mut junction,
            &mut dev_count,
            &format!("{prefix}_pun"),
        );

        // Gate capacitance at each input: the pin load this cell presents
        // to whatever drives it.
        for (i, &node) in input_nodes.iter().enumerate() {
            let cg = tech.gate_cap(self.wn, self.wp);
            ckt.capacitor(&format!("{prefix}_Cg{i}"), node, Circuit::GND, cg);
        }

        // One lumped junction capacitor per non-rail node this instance
        // touches.
        let mut nodes: Vec<(NodeId, f64)> = junction.into_iter().collect();
        nodes.sort_by_key(|&(n, _)| n);
        for (node, c) in nodes {
            if node == vdd || node == Circuit::GND {
                continue;
            }
            let cap_name = format!("{prefix}_Cj_{}", ckt.node_name(node));
            ckt.capacitor(&cap_name, node, Circuit::GND, c);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_network(
        &self,
        ckt: &mut Circuit,
        net: &Network,
        top: NodeId,
        bottom: NodeId,
        mos_type: MosType,
        tech: &Technology,
        input_nodes: &[NodeId],
        junction: &mut HashMap<NodeId, f64>,
        dev_count: &mut usize,
        prefix: &str,
    ) {
        match net {
            Network::Input(i) => {
                let (params, w, l, body) = match mos_type {
                    MosType::Nmos => (tech.nmos, self.wn, tech.ln, Circuit::GND),
                    MosType::Pmos => (tech.pmos, self.wp, tech.lp, ckt.node("vdd")),
                };
                let name = format!("M_{prefix}_{}", *dev_count);
                *dev_count += 1;
                // Drain at `top`, source at `bottom`; the simulator handles
                // reverse conduction symmetrically.
                ckt.mosfet(
                    &name,
                    mos_type,
                    top,
                    input_nodes[*i],
                    bottom,
                    body,
                    params,
                    w,
                    l,
                );
                *junction.entry(top).or_insert(0.0) += tech.cj_per_width * w;
                *junction.entry(bottom).or_insert(0.0) += tech.cj_per_width * w;
            }
            Network::Series(children) => {
                let mut upper = top;
                for (k, child) in children.iter().enumerate() {
                    let lower = if k == children.len() - 1 {
                        bottom
                    } else {
                        let n = ckt.node(&format!("{prefix}_s{}", *dev_count));
                        n
                    };
                    self.build_network(
                        ckt,
                        child,
                        upper,
                        lower,
                        mos_type,
                        tech,
                        input_nodes,
                        junction,
                        dev_count,
                        prefix,
                    );
                    upper = lower;
                }
            }
            Network::Parallel(children) => {
                for child in children {
                    self.build_network(
                        ckt,
                        child,
                        top,
                        bottom,
                        mos_type,
                        tech,
                        input_nodes,
                        junction,
                        dev_count,
                        prefix,
                    );
                }
            }
        }
    }
}

/// An elaborated cell netlist, ready for analysis.
#[derive(Debug, Clone)]
pub struct CellNetlist {
    /// The transistor-level circuit.
    pub circuit: Circuit,
    /// The output node.
    pub out: NodeId,
    /// The supply node.
    pub vdd: NodeId,
    /// Input nodes, in pin order.
    pub input_nodes: Vec<NodeId>,
    /// Names of the input-driving voltage sources, in pin order.
    pub input_sources: Vec<String>,
    /// Supply voltage, in volts.
    pub vdd_volts: f64,
}

impl CellNetlist {
    /// Sets input pin `pin` to a DC logic level.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn set_level(&mut self, pin: usize, high: bool) {
        let v = if high { self.vdd_volts } else { 0.0 };
        self.circuit
            .set_vsource(&self.input_sources[pin], Waveform::Dc(v));
    }

    /// Sets input pin `pin` to an arbitrary waveform.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn set_waveform(&mut self, pin: usize, wave: Waveform) {
        self.circuit.set_vsource(&self.input_sources[pin], wave);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn network_logic() {
        let n = Network::Parallel(vec![
            Network::Series(vec![Network::Input(0), Network::Input(1)]),
            Network::Input(2),
        ]);
        assert!(n.conducts(&[true, true, false]));
        assert!(n.conducts(&[false, false, true]));
        assert!(!n.conducts(&[true, false, false]));
        assert_eq!(n.transistor_count(), 3);
    }

    #[test]
    fn dual_swaps_series_and_parallel() {
        let n = Network::Series(vec![Network::Input(0), Network::Input(1)]);
        let d = n.dual();
        assert_eq!(
            d,
            Network::Parallel(vec![Network::Input(0), Network::Input(1)])
        );
        assert_eq!(d.dual(), n);
    }

    #[test]
    fn nand_truth_table() {
        let c = Cell::nand(3);
        for mask in 0..8u32 {
            let levels: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            let expect = !(levels[0] && levels[1] && levels[2]);
            assert_eq!(c.output_for(&levels), expect, "levels {levels:?}");
        }
    }

    #[test]
    fn nor_truth_table() {
        let c = Cell::nor(2);
        assert!(c.output_for(&[false, false]));
        assert!(!c.output_for(&[true, false]));
        assert!(!c.output_for(&[false, true]));
        assert!(!c.output_for(&[true, true]));
    }

    #[test]
    fn aoi_oai_logic() {
        let aoi = Cell::aoi21();
        assert!(!aoi.output_for(&[true, true, false]));
        assert!(!aoi.output_for(&[false, false, true]));
        assert!(aoi.output_for(&[true, false, false]));
        let oai = Cell::oai21();
        assert!(!oai.output_for(&[true, false, true]));
        assert!(oai.output_for(&[false, false, true]));
        assert!(oai.output_for(&[true, true, false]));
    }

    #[test]
    fn inverter_logic() {
        let c = Cell::inv();
        assert!(c.output_for(&[false]));
        assert!(!c.output_for(&[true]));
    }

    #[test]
    fn controlling_levels() {
        let nand = Cell::nand(3);
        for pin in 0..3 {
            assert_eq!(nand.controlling_level(pin), Some(false));
        }
        let nor = Cell::nor(2);
        assert_eq!(nor.controlling_level(0), Some(true));
        let aoi = Cell::aoi21();
        assert_eq!(
            aoi.controlling_level(2),
            Some(true),
            "c = 1 forces AOI21 low"
        );
        assert_eq!(aoi.controlling_level(0), None, "a alone never forces AOI21");
    }

    #[test]
    fn sensitizing_levels_flip_output() {
        for cell in [Cell::nand(3), Cell::nor(3), Cell::aoi21(), Cell::oai21()] {
            for pin in 0..cell.input_count() {
                let mut levels = cell
                    .sensitizing_levels(pin)
                    .unwrap_or_else(|| panic!("{} pin {pin} must be sensitizable", cell.name()));
                levels[pin] = false;
                let lo = cell.output_for(&levels);
                levels[pin] = true;
                assert_ne!(lo, cell.output_for(&levels));
            }
        }
    }

    #[test]
    fn nand_sensitizing_levels_are_all_high() {
        let c = Cell::nand(3);
        let lv = c.sensitizing_levels(1).unwrap();
        assert!(lv[0] && lv[2]);
    }

    #[test]
    fn netlist_has_expected_structure() {
        let tech = Technology::demo_5v();
        let net = Cell::nand(3).netlist(&tech, 100e-15);
        // 3 NMOS + 3 PMOS transistors, 4 sources (VDD + 3 inputs),
        // 3 gate caps + junction caps on out and 2 stack nodes.
        assert_eq!(net.input_nodes.len(), 3);
        assert_eq!(net.circuit.vsource_count(), 4);
        // out + 2 internal stack nodes + vdd + 3 inputs + gnd = 8 nodes.
        assert_eq!(net.circuit.node_count(), 8);
    }

    #[test]
    fn nand3_dc_truth_table_in_silicon() {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(3);
        for mask in 0..8u32 {
            let levels: Vec<bool> = (0..3).map(|i| mask & (1 << i) != 0).collect();
            let mut net = cell.netlist(&tech, 100e-15);
            for (pin, &hi) in levels.iter().enumerate() {
                net.set_level(pin, hi);
            }
            let op = net.circuit.dc_op().expect("dc converges");
            let v = op.voltage(net.out);
            if cell.output_for(&levels) {
                assert!(v > 0.95 * tech.vdd, "levels {levels:?} -> {v}");
            } else {
                assert!(v < 0.05 * tech.vdd, "levels {levels:?} -> {v}");
            }
        }
    }

    #[test]
    fn nor2_dc_truth_table_in_silicon() {
        let tech = Technology::demo_5v();
        let cell = Cell::nor(2);
        for mask in 0..4u32 {
            let levels: Vec<bool> = (0..2).map(|i| mask & (1 << i) != 0).collect();
            let mut net = cell.netlist(&tech, 50e-15);
            for (pin, &hi) in levels.iter().enumerate() {
                net.set_level(pin, hi);
            }
            let op = net.circuit.dc_op().expect("dc converges");
            let v = op.voltage(net.out);
            if cell.output_for(&levels) {
                assert!(v > 0.95 * tech.vdd, "levels {levels:?} -> {v}");
            } else {
                assert!(v < 0.05 * tech.vdd, "levels {levels:?} -> {v}");
            }
        }
    }

    #[test]
    fn with_widths_changes_geometry() {
        let c = Cell::nand(2).with_widths(6e-6, 12e-6);
        assert_eq!(c.wn(), 6e-6);
        assert_eq!(c.wp(), 12e-6);
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn nand_zero_inputs_rejected() {
        Cell::nand(0);
    }

    #[test]
    fn input_cap_positive() {
        let tech = Technology::demo_5v();
        assert!(Cell::inv().input_cap(&tech) > 0.0);
    }
}
