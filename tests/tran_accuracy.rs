//! Transient accuracy against a converged reference.
//!
//! Every stimulus is simulated twice through the characterization
//! simulator: at the `medium` characterization's `dv_max` and at a
//! `dv_max` twenty times tighter, whose answers stand in for the converged
//! ones. The largest error over the set, per quantity and input edge, must
//! stay at or under the bound recorded for it. The quantities are the ones
//! characterization reads: the delay from the leading input, the
//! `V_il`–`V_ih` output transition time, and the glitch extremum of a
//! causer–blocker pair.
//!
//! The set holds the stimuli of `tests/tran_golden.rs` (NAND2, NAND3 and
//! NOR2 singles and pairs, both edges), seeded NAND2/NAND3 pairs and NAND3
//! triples, and seeded NAND2/NAND3 causer–blocker glitches. The bounds are
//! the errors of the simulator that used a grow-1.6×-or-hold step rule,
//! Newton started from the last accepted point, and linear reads between
//! samples; a change to the step rule, the Newton start or the reads must
//! not make any of them worse.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::{CharacterizeOptions, Reading, Simulator};
use proxim::model::measure::InputEvent;
use proxim::model::Thresholds;
use proxim::numeric::pwl::Edge;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The converged reference's `dv_max`, in volts.
const REFERENCE_DV_MAX: f64 = 0.003;

/// The recorded bounds, `[rising, falling]` input edge: each the error of
/// the earlier simulator named above, rounded up in its third digit.
/// Delay and transition time in seconds.
const DELAY_BOUND: [f64; 2] = [4.79e-14, 7.27e-14];
const TRANSITION_BOUND: [f64; 2] = [1.06e-13, 8.19e-14];
/// Glitch extremum, in volts.
const PEAK_BOUND: [f64; 2] = [2.57e-4, 3.18e-4];

fn thresholds() -> Thresholds {
    Thresholds::new(1.2, 3.4, 5.0)
}

/// One edge stimulus: the cell, its load and its events.
struct EdgeCase {
    cell: Cell,
    c_load: f64,
    events: Vec<InputEvent>,
}

fn edge_of(case: usize) -> Edge {
    if case.is_multiple_of(2) {
        Edge::Rising
    } else {
        Edge::Falling
    }
}

/// The single and pair stimuli of `tests/tran_golden.rs`, drawn from the
/// same seeds in the same order.
fn golden_cases() -> Vec<EdgeCase> {
    let mut cases = Vec::new();
    for (cell, seed) in [
        (Cell::nand(2), 0x7a01_u64),
        (Cell::nand(3), 0x7a02),
        (Cell::nor(2), 0x7a03),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..6 {
            let edge = edge_of(case);
            let c_load = rng.random_range(30.0f64..300.0) * 1e-15;
            let tau = rng.random_range(50.0f64..2000.0) * 1e-12;
            let pin = rng.random_range(0..cell.input_count());
            let tau_b = rng.random_range(50.0f64..2000.0) * 1e-12;
            let skew = rng.random_range(-800.0f64..800.0) * 1e-12;
            let other = (pin + 1) % cell.input_count();
            let lead = InputEvent::new(pin, edge, 0.0, tau);
            cases.push(EdgeCase {
                cell: cell.clone(),
                c_load,
                events: vec![lead],
            });
            cases.push(EdgeCase {
                cell: cell.clone(),
                c_load,
                events: vec![lead, InputEvent::new(other, edge, skew, tau_b)],
            });
        }
    }
    cases
}

/// Seeded NAND2/NAND3 pairs and NAND3 triples on both edges.
fn proximity_cases() -> Vec<EdgeCase> {
    let mut rng = StdRng::seed_from_u64(0xacc0_0001);
    let mut cases = Vec::new();
    for cell in [Cell::nand(2), Cell::nand(3)] {
        let n = cell.input_count();
        for case in 0..12 {
            let edge = edge_of(case);
            let c_load = rng.random_range(30.0f64..300.0) * 1e-15;
            let pin = rng.random_range(0..n);
            let width = if n == 3 && case >= 6 { 3 } else { 2 };
            let events = (0..width)
                .map(|k| {
                    let tau = rng.random_range(50.0f64..2000.0) * 1e-12;
                    let start = if k == 0 {
                        0.0
                    } else {
                        rng.random_range(-600.0f64..600.0) * 1e-12
                    };
                    InputEvent::new((pin + k) % n, edge, start, tau)
                })
                .collect();
            cases.push(EdgeCase {
                cell: cell.clone(),
                c_load,
                events,
            });
        }
    }
    cases
}

/// Seeded causer–blocker pairs: the blocker switches against the causer's
/// transition, close enough to cut it into a glitch or to let it through.
/// A NAND glitches under a rising causer and a NOR under a falling one
/// (the other edge's blocker starts at the level that already holds the
/// output), so NAND2 and NAND3 cover the rising edge and NOR2 the falling.
fn glitch_cases() -> Vec<EdgeCase> {
    let mut rng = StdRng::seed_from_u64(0xacc0_0002);
    let mut cases = Vec::new();
    for (cell, edge) in [
        (Cell::nand(2), Edge::Rising),
        (Cell::nand(3), Edge::Rising),
        (Cell::nor(2), Edge::Falling),
    ] {
        let n = cell.input_count();
        for _ in 0..12 {
            let c_load = rng.random_range(30.0f64..300.0) * 1e-15;
            let causer = rng.random_range(0..n);
            let blocker = (causer + 1 + rng.random_range(0..n - 1)) % n;
            let tau_c = rng.random_range(50.0f64..1500.0) * 1e-12;
            let tau_b = rng.random_range(50.0f64..1500.0) * 1e-12;
            let s = rng.random_range(-300.0f64..600.0) * 1e-12;
            cases.push(EdgeCase {
                cell: cell.clone(),
                c_load,
                events: vec![
                    InputEvent::new(causer, edge, 0.0, tau_c),
                    InputEvent::new(blocker, edge.opposite(), s, tau_b),
                ],
            });
        }
    }
    cases
}

/// The largest errors seen per input edge, rising first.
#[derive(Debug, Default)]
struct MaxErr([f64; 2]);

impl MaxErr {
    fn add(&mut self, edge: Edge, err: f64) {
        let slot = &mut self.0[usize::from(edge == Edge::Falling)];
        *slot = slot.max(err.abs());
    }
}

fn simulator(cell: &Cell, tech: &Technology, c_load: f64, dv_max: f64) -> Simulator<'static> {
    // Cells and technologies are small; leaking one per stimulus keeps the
    // simulator's borrows simple in a test.
    let cell: &'static Cell = Box::leak(Box::new(cell.clone()));
    let tech: &'static Technology = Box::leak(Box::new(tech.clone()));
    Simulator::new(cell, tech, thresholds(), c_load, dv_max)
}

/// The largest delay and transition-time errors over `cases`, in seconds.
fn edge_errors(cases: &[EdgeCase]) -> (MaxErr, MaxErr) {
    let tech = Technology::demo_5v();
    let th = thresholds();
    let dv_max = CharacterizeOptions::medium().dv_max;
    let (mut delay, mut trans) = (MaxErr::default(), MaxErr::default());
    for case in cases {
        let measure = |dv: f64| {
            let r = simulator(&case.cell, &tech, case.c_load, dv)
                .simulate(&case.events)
                .expect("simulation succeeds");
            (
                r.delay_from(0, &th).expect("output switches"),
                r.transition_time(&th).expect("output completes"),
            )
        };
        let (d, t) = measure(dv_max);
        let (d_ref, t_ref) = measure(REFERENCE_DV_MAX);
        let edge = case.events[0].edge();
        delay.add(edge, d - d_ref);
        trans.add(edge, t - t_ref);
    }
    (delay, trans)
}

/// Asserts every error is at or under its bound, naming the quantity.
fn assert_within(what: &str, got: &MaxErr, bound: [f64; 2]) {
    eprintln!(
        "{what}: max error rising {:.4e}, falling {:.4e}",
        got.0[0], got.0[1]
    );
    for (k, edge) in ["rising", "falling"].iter().enumerate() {
        assert!(
            got.0[k] <= bound[k],
            "{what}, {edge} input edge: max error {:.4e} over its bound {:.4e}",
            got.0[k],
            bound[k]
        );
    }
}

#[test]
fn delay_and_transition_stay_within_their_converged_reference_bounds() {
    let mut cases = golden_cases();
    cases.extend(proximity_cases());
    let (delay, trans) = edge_errors(&cases);
    assert_within("delay (s)", &delay, DELAY_BOUND);
    assert_within("transition (s)", &trans, TRANSITION_BOUND);
}

#[test]
fn glitch_extrema_stay_within_their_converged_reference_bounds() {
    let tech = Technology::demo_5v();
    let dv_max = CharacterizeOptions::medium().dv_max;
    let mut peak = MaxErr::default();
    for case in glitch_cases() {
        let read = |dv: f64| {
            simulator(&case.cell, &tech, case.c_load, dv)
                .simulate_for(&case.events, Reading::Peak)
                .expect("simulation succeeds")
                .peak()
        };
        peak.add(case.events[0].edge(), read(dv_max) - read(REFERENCE_DV_MAX));
    }
    assert_within("glitch peak (V)", &peak, PEAK_BOUND);
}
