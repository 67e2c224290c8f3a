//! Gate-level combinational netlists.

use crate::library::CellId;
use std::collections::HashMap;
use std::fmt;

/// A handle to a net (a wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// Library cell.
    pub cell: CellId,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// The error returned by netlist validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistError {
    what: String,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid netlist: {}", self.what)
    }
}

impl std::error::Error for NetlistError {}

/// A combinational gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct GateNetlist {
    net_names: Vec<String>,
    net_index: HashMap<String, NetId>,
    gates: Vec<Gate>,
    primary_inputs: Vec<NetId>,
    /// Per net: whether it is a primary input.
    is_primary_input: Vec<bool>,
    /// Per net: the first gate (by index) that drives it.
    driver: Vec<Option<usize>>,
}

impl GateNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the net with the given name, creating it if absent.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.net_index.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_string());
        self.net_index.insert(name.to_string(), id);
        self.is_primary_input.push(false);
        self.driver.push(None);
        id
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net does not belong to this netlist.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.0]
    }

    /// Marks a net as a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the net does not belong to this netlist.
    pub fn mark_primary_input(&mut self, net: NetId) {
        if !std::mem::replace(&mut self.is_primary_input[net.0], true) {
            self.primary_inputs.push(net);
        }
    }

    /// Whether a net is a primary input.
    pub(crate) fn is_primary_input(&self, net: NetId) -> bool {
        self.is_primary_input.get(net.0).copied().unwrap_or(false)
    }

    /// Adds a gate instance.
    ///
    /// # Panics
    ///
    /// Panics if the output net does not belong to this netlist.
    pub fn add_gate(&mut self, name: &str, cell: CellId, inputs: &[NetId], output: NetId) {
        self.driver[output.0].get_or_insert(self.gates.len());
        self.gates.push(Gate {
            name: name.to_string(),
            cell,
            inputs: inputs.to_vec(),
            output,
        });
    }

    /// The gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The primary inputs.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Nets not driving any gate input (candidate primary outputs).
    pub fn sink_nets(&self) -> Vec<NetId> {
        let mut used = vec![false; self.net_count()];
        for g in &self.gates {
            for &i in &g.inputs {
                used[i.0] = true;
            }
        }
        (0..self.net_count())
            .map(NetId)
            .filter(|n| !used[n.0] && self.driver[n.0].is_some())
            .collect()
    }

    /// Validates structure and returns the gates in topological order
    /// (indices into [`GateNetlist::gates`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] on multiply-driven nets, undriven non-PI
    /// gate inputs, or combinational cycles.
    pub fn topo_order(&self) -> Result<Vec<usize>, NetlistError> {
        // Kahn's algorithm over gate dependencies, with each gate's fan-out
        // gates held in one flat array (`fanout[start[g]..start[g + 1]]`,
        // in gate, then pin order). Counting leaves `start[g]` at the end
        // of g's span; filling in reverse walks it back to the beginning.
        //
        // The counting pass also validates. A badly driven output anywhere
        // outranks an undriven input, so the first undriven input is only
        // reported once every gate's output has passed.
        let n = self.gates.len();
        let mut indegree = vec![0usize; n];
        let mut start = vec![0usize; n + 1];
        let mut undriven = None;
        for (gi, g) in self.gates.iter().enumerate() {
            if self.driver[g.output.0] != Some(gi) {
                return Err(NetlistError {
                    what: format!("net {} driven more than once", self.net_name(g.output)),
                });
            }
            if self.is_primary_input[g.output.0] {
                return Err(NetlistError {
                    what: format!(
                        "primary input {} is driven by a gate",
                        self.net_name(g.output)
                    ),
                });
            }
            for &i in &g.inputs {
                match self.driver[i.0] {
                    Some(src) => {
                        indegree[gi] += 1;
                        start[src] += 1;
                    }
                    None if undriven.is_none() && !self.is_primary_input[i.0] => {
                        undriven = Some(NetlistError {
                            what: format!(
                                "gate {} input {} is neither driven nor a primary input",
                                g.name,
                                self.net_name(i)
                            ),
                        });
                    }
                    None => {}
                }
            }
        }
        if let Some(e) = undriven {
            return Err(e);
        }
        for g in 0..n {
            start[g + 1] += start[g];
        }
        let mut fanout = vec![0usize; start[n]];
        for (gi, g) in self.gates.iter().enumerate().rev() {
            for &i in g.inputs.iter().rev() {
                if let Some(src) = self.driver[i.0] {
                    start[src] -= 1;
                    fanout[start[src]] = gi;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&g| indegree[g] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(g) = queue.pop() {
            order.push(g);
            for &f in &fanout[start[g]..start[g + 1]] {
                indegree[f] -= 1;
                if indegree[f] == 0 {
                    queue.push(f);
                }
            }
        }
        if order.len() != self.gates.len() {
            return Err(NetlistError {
                what: "combinational cycle detected".into(),
            });
        }
        Ok(order)
    }

    /// The gate driving `net` (the first one added, if several do), if
    /// any.
    pub fn driver_of(&self, net: NetId) -> Option<&Gate> {
        let gi = self.driver.get(net.0).copied().flatten()?;
        Some(&self.gates[gi])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn two_gate_chain() -> (GateNetlist, NetId, NetId, NetId) {
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        let b = nl.net("b");
        let mid = nl.net("mid");
        let out = nl.net("out");
        nl.mark_primary_input(a);
        nl.mark_primary_input(b);
        nl.add_gate("g1", CellId(0), &[a, b], mid);
        nl.add_gate("g2", CellId(0), &[mid, b], out);
        (nl, a, mid, out)
    }

    #[test]
    fn nets_deduplicate() {
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        assert_eq!(nl.net("a"), a);
        assert_eq!(nl.net_name(a), "a");
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (nl, _, _, _) = two_gate_chain();
        let order = nl.topo_order().unwrap();
        let pos1 = order.iter().position(|&g| g == 0).unwrap();
        let pos2 = order.iter().position(|&g| g == 1).unwrap();
        assert!(pos1 < pos2, "g1 must precede g2");
    }

    #[test]
    fn sink_nets_are_primary_outputs() {
        let (nl, _, _, out) = two_gate_chain();
        assert_eq!(nl.sink_nets(), vec![out]);
    }

    #[test]
    fn driver_lookup() {
        let (nl, a, mid, _) = two_gate_chain();
        assert_eq!(nl.driver_of(mid).unwrap().name, "g1");
        assert!(nl.driver_of(a).is_none());
    }

    #[test]
    fn primary_inputs_deduplicate() {
        let (mut nl, a, mid, _) = two_gate_chain();
        nl.mark_primary_input(a);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert!(nl.is_primary_input(a));
        assert!(!nl.is_primary_input(mid));
    }

    #[test]
    fn driver_of_is_the_first_driver() {
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        let out = nl.net("out");
        nl.add_gate("g1", CellId(0), &[a], out);
        nl.add_gate("g2", CellId(0), &[a], out);
        assert_eq!(nl.driver_of(out).unwrap().name, "g1");
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        let out = nl.net("out");
        nl.mark_primary_input(a);
        nl.add_gate("g1", CellId(0), &[a], out);
        nl.add_gate("g2", CellId(0), &[a], out);
        assert!(nl.topo_order().is_err());
    }

    #[test]
    fn undriven_input_rejected() {
        let mut nl = GateNetlist::new();
        let ghost = nl.net("ghost");
        let out = nl.net("out");
        nl.add_gate("g1", CellId(0), &[ghost], out);
        assert!(nl.topo_order().is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut nl = GateNetlist::new();
        let a = nl.net("a");
        let b = nl.net("b");
        nl.add_gate("g1", CellId(0), &[b], a);
        nl.add_gate("g2", CellId(0), &[a], b);
        assert!(nl.topo_order().is_err());
    }
}
