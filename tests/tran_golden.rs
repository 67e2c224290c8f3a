//! Golden transients.
//!
//! Each run's accepted times, every node's samples, every voltage-source
//! branch current, and its Newton-iteration and accepted-step counts are
//! hashed with FNV-1a and pinned. The cases cover the characterization
//! cells (NAND2, NAND3, NOR2) under seeded single and pair stimuli on both
//! edges, with and without a stop rule; a circuit holding every element
//! kind with terminals tied to ground; and a two-stage chain whose solves
//! decline the static pivot order and take the dense partial-pivoting
//! fallback. A change to these hashes means the simulator changed its
//! answers, not just its speed. Whether the answers are still accurate is
//! for `tests/tran_accuracy.rs` to say: it holds the same cell stimuli to a
//! converged reference.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::CharacterizeOptions;
use proxim::model::measure::{InputEvent, Scenario};
use proxim::model::persist::fnv1a_64;
use proxim::numeric::pwl::Edge;
use proxim::spice::circuit::{Circuit, Waveform};
use proxim::spice::tran::{Integrator, StopRule, TranOptions, TranResult};
use proxim::spice::{MosParams, MosType, NodeId};
use proxim_obs as obs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// Serializes the tests of this file: the fallback test reads a
/// process-wide counter, which no other transient may move meanwhile.
static SERIAL: Mutex<()> = Mutex::new(());

/// Appends everything a transient produced to `bytes`.
fn push_run(bytes: &mut Vec<u8>, r: &TranResult, nodes: &[NodeId], branches: usize) {
    bytes.extend((r.newton_iterations as u64).to_le_bytes());
    bytes.extend((r.accepted_steps as u64).to_le_bytes());
    for &t in r.times() {
        bytes.extend(t.to_bits().to_le_bytes());
    }
    for &node in nodes {
        for k in 0..r.times().len() {
            bytes.extend(r.voltage_at(k, node).to_bits().to_le_bytes());
        }
    }
    for b in 0..branches {
        for &(_, i) in r.branch_current_waveform(b).points() {
            bytes.extend(i.to_bits().to_le_bytes());
        }
    }
}

/// Every non-ground node of a cell netlist: the rails, pins and output by
/// name, and the internal stack nodes by their elaboration names.
fn cell_nodes(ckt: &Circuit) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = ["vdd", "out", "a", "b", "c"]
        .into_iter()
        .filter_map(|name| ckt.find_node(name))
        .collect();
    for net in ["pdn", "pun"] {
        for k in 0..16 {
            if let Some(node) = ckt.find_node(&format!("x0_{net}_s{k}")) {
                nodes.push(node);
            }
        }
    }
    assert_eq!(nodes.len(), ckt.node_count() - 1, "a node was not found");
    nodes
}

/// Runs `events` on `cell` at `c_load`, to the settling horizon or, with
/// `stop`, one step past the output's far threshold crossing, and appends
/// the run to `bytes`.
fn run_cell(bytes: &mut Vec<u8>, cell: &Cell, events: &[InputEvent], c_load: f64, stop: bool) {
    let tech = Technology::demo_5v();
    let scenario = Scenario::resolve(cell, events).expect("sensitizable");
    let mut net = cell.netlist(&tech, c_load);
    for (pin, lv) in scenario.stable_levels.iter().enumerate() {
        if let Some(high) = lv {
            net.set_level(pin, *high);
        }
    }
    for e in events {
        net.set_waveform(e.pin, e.ramp.waveform(tech.vdd));
    }
    let t_end = events
        .iter()
        .map(|e| e.ramp.t_start + e.ramp.transition_time)
        .fold(0.0f64, f64::max);
    let mut options = TranOptions::to(t_end + 6e-9).with_dv_max(CharacterizeOptions::fast().dv_max);
    if stop {
        let (near, far) = match scenario.output_edge {
            Edge::Rising => (1.2, 3.4),
            Edge::Falling => (3.4, 1.2),
        };
        options = options.with_stop(StopRule {
            node: net.out,
            edge: scenario.output_edge,
            near,
            far,
        });
    }
    let r = net.circuit.tran(&options).expect("transient converges");
    push_run(
        bytes,
        &r,
        &cell_nodes(&net.circuit),
        net.circuit.vsource_count(),
    );
}

#[test]
fn cell_transients_are_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut got = Vec::new();
    for (cell, seed) in [
        (Cell::nand(2), 0x7a01_u64),
        (Cell::nand(3), 0x7a02),
        (Cell::nor(2), 0x7a03),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        for case in 0..6 {
            let edge = if case % 2 == 0 {
                Edge::Rising
            } else {
                Edge::Falling
            };
            let stop = case % 4 < 2;
            let c_load = rng.random_range(30.0f64..300.0) * 1e-15;
            let tau = rng.random_range(50.0f64..2000.0) * 1e-12;
            let pin = rng.random_range(0..cell.input_count());
            let single = [InputEvent::new(pin, edge, 0.0, tau)];
            run_cell(&mut bytes, &cell, &single, c_load, stop);

            let tau_b = rng.random_range(50.0f64..2000.0) * 1e-12;
            let skew = rng.random_range(-800.0f64..800.0) * 1e-12;
            let other = (pin + 1) % cell.input_count();
            let pair = [
                InputEvent::new(pin, edge, 0.0, tau),
                InputEvent::new(other, edge, skew, tau_b),
            ];
            run_cell(&mut bytes, &cell, &pair, c_load, !stop);
        }
        got.push(format!("{} {:#018x}", cell.name(), fnv1a_64(&bytes)));
    }
    assert_eq!(
        got,
        [
            "NAND2 0x97de087005585013",
            "NAND3 0x62fe4d6cabe624c7",
            "NOR2 0x5c119b4e7619e788"
        ],
        "cell transients changed"
    );
}

#[test]
fn a_circuit_with_every_element_kind_is_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = MosParams {
        vt0: 0.85,
        kp: 17e-6,
        gamma: 0.5,
        phi: 0.6,
        lambda: 0.04,
    };
    let n = MosParams {
        vt0: 0.75,
        kp: 50e-6,
        gamma: 0.4,
        phi: 0.6,
        lambda: 0.03,
    };
    let gnd = Circuit::GND;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let mid = ckt.node("mid");
    let tap = ckt.node("tap");
    ckt.vsource("VDD", vdd, gnd, Waveform::Dc(5.0));
    ckt.vsource("VIN", inp, gnd, Waveform::ramp(1e-9, 0.6e-9, 0.0, 5.0));
    ckt.mosfet("MP", MosType::Pmos, out, inp, vdd, vdd, p, 8e-6, 0.8e-6);
    ckt.mosfet("MN", MosType::Nmos, out, inp, gnd, gnd, n, 4e-6, 0.8e-6);
    ckt.capacitor("CM", out, inp, 5e-15);
    ckt.resistor("R1", out, mid, 2e3);
    ckt.capacitor("C1", mid, gnd, 50e-15);
    ckt.resistor("R2", gnd, mid, 50e3);
    ckt.isource("I1", gnd, mid, Waveform::ramp(2e-9, 1e-9, 0.0, 5e-6));
    // A floating source: neither terminal is ground.
    ckt.vsource("VF", tap, mid, Waveform::Dc(0.5));
    ckt.resistor("R3", tap, gnd, 10e3);
    ckt.capacitor("C2", gnd, tap, 10e-15);
    let nodes = [vdd, inp, out, mid, tap];

    let mut bytes = Vec::new();
    for integrator in [Integrator::Trapezoidal, Integrator::BackwardEuler] {
        let options = TranOptions::to(6e-9)
            .with_dv_max(0.05)
            .with_integrator(integrator);
        let r = ckt.tran(&options).expect("transient converges");
        push_run(&mut bytes, &r, &nodes, ckt.vsource_count());
    }
    let got = fnv1a_64(&bytes);
    assert_eq!(
        got, 0x05c3_23c2_df62_df5f,
        "every-element transients changed: {got:#018x}"
    );
}

#[test]
fn a_static_pivot_fallback_run_is_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // NAND2 driving NAND2, pin 0 to pin 0, the other pins held high: the
    // ramp-stretch calibration's two-stage chain.
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(tech.vdd));
    let a_in = ckt.node("a_in0");
    let a_hold = ckt.node("a_in1");
    let b_hold = ckt.node("b_in1");
    ckt.vsource(
        "VIN",
        a_in,
        Circuit::GND,
        Waveform::ramp(0.3e-9, 400e-12, 0.0, tech.vdd),
    );
    ckt.vsource("VA1", a_hold, Circuit::GND, Waveform::Dc(tech.vdd));
    ckt.vsource("VB1", b_hold, Circuit::GND, Waveform::Dc(tech.vdd));
    let mid = ckt.node("mid");
    cell.elaborate_into(&mut ckt, &tech, "a", vdd, &[a_in, a_hold], mid);
    let out = ckt.node("out");
    cell.elaborate_into(&mut ckt, &tech, "b", vdd, &[mid, b_hold], out);
    ckt.capacitor("CL", out, Circuit::GND, 100e-15);
    let mut nodes: Vec<NodeId> = ["vdd", "a_in0", "a_in1", "b_in1", "mid", "out"]
        .into_iter()
        .filter_map(|name| ckt.find_node(name))
        .collect();
    for prefix in ["a", "b"] {
        for net in ["pdn", "pun"] {
            for k in 0..16 {
                if let Some(node) = ckt.find_node(&format!("{prefix}_{net}_s{k}")) {
                    nodes.push(node);
                }
            }
        }
    }
    assert_eq!(nodes.len(), ckt.node_count() - 1, "a node was not found");

    let fallbacks = obs::Registry::global().counter("spice.lu.static_fallbacks");
    let level = obs::level();
    obs::set_level(obs::Level::Metrics);
    let before = fallbacks.get();
    let r = ckt.tran(&TranOptions::to(8e-9).with_dv_max(0.08));
    let declined = fallbacks.get() - before;
    obs::set_level(level);
    let r = r.expect("transient converges");
    assert!(declined > 0, "the static pivot order never declined");

    let mut bytes = Vec::new();
    push_run(&mut bytes, &r, &nodes, ckt.vsource_count());
    let got = fnv1a_64(&bytes);
    assert_eq!(
        got, 0xcc17_a446_1cac_c911,
        "fallback transient changed: {got:#018x}"
    );
}
