//! The measurement-driven transient stop rule.
//!
//! A characterization transient ends one accepted step after the output has
//! made the threshold crossings its measurement reads. These tests pin the
//! rule at three levels: the solver (a stopped run is a bit-exact prefix of
//! the full run and ends where the rule says), the characterization
//! simulator (every measured number equals the one read off a full-horizon
//! transient, bit for bit), and the characterized models (their bytes are
//! pinned by hash).

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::{CharacterizeOptions, Simulator};
use proxim::model::measure::{measure_delay, measure_transition, InputEvent, Scenario};
use proxim::model::persist::fnv1a_64;
use proxim::model::{ProximityModel, Thresholds};
use proxim::numeric::pwl::{Edge, Pwl};
use proxim::spice::circuit::{Circuit, Waveform};
use proxim::spice::tran::{StopRule, TranOptions, TranResult};
use proxim::spice::{MosParams, MosType, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::LazyLock;

fn fast_model(cell: &Cell) -> ProximityModel {
    ProximityModel::characterize(cell, &Technology::demo_5v(), &CharacterizeOptions::fast())
        .expect("characterization succeeds")
}

static NAND2: LazyLock<ProximityModel> = LazyLock::new(|| fast_model(&Cell::nand(2)));
static NAND3: LazyLock<ProximityModel> = LazyLock::new(|| fast_model(&Cell::nand(3)));
static NOR2: LazyLock<ProximityModel> = LazyLock::new(|| fast_model(&Cell::nor(2)));

/// A CMOS inverter driving 100 fF, its input ramping at 1 ns.
fn inverter(input_edge: Edge) -> (Circuit, [NodeId; 3]) {
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
    let (from, to) = match input_edge {
        Edge::Rising => (0.0, 5.0),
        Edge::Falling => (5.0, 0.0),
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
    ckt.vsource(
        "VIN",
        inp,
        Circuit::GND,
        Waveform::ramp(1e-9, 0.5e-9, from, to),
    );
    ckt.mosfet("MP", MosType::Pmos, out, inp, vdd, vdd, p, 8e-6, 0.8e-6);
    ckt.mosfet(
        "MN",
        MosType::Nmos,
        out,
        inp,
        Circuit::GND,
        Circuit::GND,
        n,
        4e-6,
        0.8e-6,
    );
    ckt.capacitor("CL", out, Circuit::GND, 100e-15);
    (ckt, [vdd, inp, out])
}

/// Asserts that `short` is a bit-exact prefix of `full`: times, every node
/// sample, and both branch currents.
fn assert_prefix(short: &TranResult, full: &TranResult, nodes: &[NodeId]) {
    let n = short.times().len();
    assert!(n <= full.times().len());
    assert_eq!(short.times(), &full.times()[..n]);
    for k in 0..n {
        for &node in nodes {
            assert_eq!(
                short.voltage_at(k, node).to_bits(),
                full.voltage_at(k, node).to_bits(),
                "node sample {k} differs"
            );
        }
    }
    for b in 0..2 {
        let s = short.branch_current_waveform(b);
        let f = full.branch_current_waveform(b);
        assert_eq!(s.points(), &f.points()[..n], "branch {b} differs");
    }
}

/// Index of the knot that ends the segment holding the first `edge`
/// crossing of `far` at or after the first `edge` crossing of `near`.
fn far_crossing_segment_end(w: &Pwl, edge: Edge, near: f64, far: f64) -> usize {
    let t1 = w.first_crossing(near, edge).expect("near crossing");
    let t2 = w
        .crossings(far)
        .into_iter()
        .find(|&(t, e)| e == edge && t >= t1)
        .expect("far crossing")
        .0;
    w.points()
        .iter()
        .position(|&(t, _)| t > t2)
        .expect("crossing lies inside the run")
}

#[test]
fn a_stopped_run_is_a_bit_exact_prefix_ending_one_step_after_the_far_crossing() {
    for (input_edge, edge, near, far) in [
        (Edge::Rising, Edge::Falling, 3.4, 1.2),
        (Edge::Falling, Edge::Rising, 1.2, 3.4),
    ] {
        let (ckt, nodes) = inverter(input_edge);
        let out = nodes[2];
        let options = TranOptions::to(10e-9);
        let full = ckt.tran(&options).expect("full run");
        let rule = StopRule {
            node: out,
            edge,
            near,
            far,
        };
        let short = ckt.tran(&options.with_stop(rule)).expect("stopped run");

        let k = far_crossing_segment_end(&full.waveform(out), edge, near, far);
        assert_eq!(
            short.times().len(),
            k + 2,
            "{edge} output: the run must end one accepted step after the far crossing"
        );
        assert_eq!(short.accepted_steps, k + 1);
        assert!(short.times().len() < full.times().len());
        assert_prefix(&short, &full, &nodes);
    }
}

#[test]
fn a_node_that_never_crosses_runs_to_t_stop() {
    let (ckt, nodes) = inverter(Edge::Rising);
    let options = TranOptions::to(10e-9);
    let full = ckt.tran(&options).expect("full run");
    // The supply never moves, and the output never rises.
    for (node, edge) in [(nodes[0], Edge::Falling), (nodes[2], Edge::Rising)] {
        let rule = StopRule {
            node,
            edge,
            near: 3.4,
            far: 1.2,
        };
        let short = ckt.tran(&options.with_stop(rule)).expect("stopped run");
        assert_eq!(short.times(), full.times());
        assert_eq!(short.times().last().copied(), Some(10e-9));
        assert_prefix(&short, &full, &nodes);
    }
}

/// Re-runs the transient behind `events` (as applied by
/// [`Simulator::simulate`]) to its full settling horizon, with no stop rule.
fn full_horizon_output(sim: &Simulator<'_>, applied: &[InputEvent]) -> Pwl {
    let scenario = Scenario::resolve(sim.cell, applied).expect("sensitizable");
    let mut net = sim.cell.netlist(sim.tech, sim.c_load);
    for (pin, lv) in scenario.stable_levels.iter().enumerate() {
        if let Some(high) = lv {
            net.set_level(pin, *high);
        }
    }
    for e in applied {
        net.set_waveform(e.pin, e.ramp.waveform(sim.tech.vdd));
    }
    let t_ramps_end = applied
        .iter()
        .map(|e| e.ramp.t_start + e.ramp.transition_time)
        .fold(0.0f64, f64::max);
    let options = TranOptions::to(t_ramps_end + sim.settle_margin()).with_dv_max(sim.dv_max);
    net.circuit
        .tran(&options)
        .expect("full run")
        .waveform(net.out)
}

/// Checks one stimulus: delay, transition and (for `wide`) the 5–95 % edge
/// measured by the simulator equal those of the full-horizon transient, bit
/// for bit, errors included. Returns the output edge.
fn check_stimulus(sim: &Simulator<'_>, events: &[InputEvent], wide: bool) -> Edge {
    let th = &sim.thresholds;
    let r = if wide {
        sim.simulate_wide(events)
    } else {
        sim.simulate(events)
    }
    .expect("simulation succeeds");
    let full = full_horizon_output(sim, &r.events);
    let n = r.output.points().len();
    assert_eq!(r.output.points(), &full.points()[..n], "not a prefix");

    let edge = r.output_edge;
    let got = format!(
        "{:?} {:?}",
        r.delay_from(0, th).map(f64::to_bits),
        r.transition_time(th).map(f64::to_bits)
    );
    let want = format!(
        "{:?} {:?}",
        measure_delay(&r.events[0], &full, th, edge).map(f64::to_bits),
        measure_transition(&full, th, edge).map(f64::to_bits)
    );
    assert_eq!(got, want, "stimulus {events:?}");
    if wide {
        let vdd = sim.tech.vdd;
        let edge_time = |w: &Pwl| w.transition_time(0.05 * vdd, 0.95 * vdd, edge);
        assert_eq!(
            edge_time(&r.output).map(f64::to_bits),
            edge_time(&full).map(f64::to_bits),
            "5-95 % edge of {events:?}"
        );
    }
    edge
}

#[test]
fn simulated_measurements_equal_full_horizon_ones_bit_for_bit() {
    let tech = Technology::demo_5v();
    let dv_max = CharacterizeOptions::fast().dv_max;
    let mut rng = StdRng::seed_from_u64(0x5709_0001);
    for (cell, model) in [
        (Cell::nand(2), &*NAND2),
        (Cell::nand(3), &*NAND3),
        (Cell::nor(2), &*NOR2),
    ] {
        let sim = Simulator::new(
            &cell,
            &tech,
            *model.thresholds(),
            model.reference_load(),
            dv_max,
        );
        let mut seen = Vec::new();
        for case in 0..8 {
            let input_edge = if case % 2 == 0 {
                Edge::Rising
            } else {
                Edge::Falling
            };
            let tau = rng.random_range(50.0f64..2000.0) * 1e-12;
            let pin = rng.random_range(0..cell.input_count());
            let single = [InputEvent::new(pin, input_edge, 0.0, tau)];
            seen.push(check_stimulus(&sim, &single, case % 4 < 2));

            let tau_b = rng.random_range(50.0f64..2000.0) * 1e-12;
            let s = rng.random_range(-800.0f64..800.0) * 1e-12;
            let other = (pin + 1) % cell.input_count();
            let pair = [
                InputEvent::new(pin, input_edge, 0.0, tau),
                InputEvent::new(other, input_edge, s, tau_b),
            ];
            seen.push(check_stimulus(&sim, &pair, false));
        }
        assert!(seen.contains(&Edge::Rising) && seen.contains(&Edge::Falling));
    }
}

#[test]
fn an_unreachable_far_threshold_runs_to_the_settling_horizon() {
    // A V_ih above the supply: the rising output never crosses it, so the
    // transition is a missing crossing on both waveforms and the stopped
    // run must cover the whole horizon.
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let th = Thresholds {
        v_il: NAND2.thresholds().v_il,
        v_ih: tech.vdd + 1.0,
        vdd: tech.vdd,
    };
    let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
    let events = [InputEvent::new(0, Edge::Falling, 0.0, 400e-12)];
    let r = sim.simulate(&events).expect("simulation succeeds");
    assert_eq!(r.output_edge, Edge::Rising);
    let full = full_horizon_output(&sim, &r.events);
    assert_eq!(r.output.points(), full.points());
    let applied = &r.events[0].ramp;
    let t_stop = applied.t_start + applied.transition_time + sim.settle_margin();
    assert_eq!(r.output.t_end(), t_stop);
    assert!(r.transition_time(&th).is_err());
    assert!(measure_transition(&full, &th, Edge::Rising).is_err());
}

#[test]
fn fast_model_bytes_are_unchanged() {
    for (name, model, want) in [
        ("nand2", &*NAND2, 0x7c62_17fb_cb21_c86b_u64),
        ("nand3", &*NAND3, 0xe174_0478_e47d_71a1),
        ("nor2", &*NOR2, 0x2497_88f9_73b3_5cb5),
    ] {
        let json = model.to_json().expect("model serializes");
        assert_eq!(
            fnv1a_64(json.as_bytes()),
            want,
            "{name} fast model bytes changed"
        );
    }
}
