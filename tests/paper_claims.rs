//! The paper's claims as regression gates.
//!
//! Two of the paper's results are checked on the NAND3 of Figure 1-1 at
//! `fast` characterization:
//!
//! - Table 5-1: over a seeded population of 30 three-input configurations
//!   (falling inputs, transition times uniform in [50, 2000] ps,
//!   separations uniform in [−500, 500] ps, as in §5), the mean, σ and max
//!   of the model's delay and rise-time errors against the reference
//!   simulator lie inside recorded bands. Each band is the mean ± 3σ of
//!   that statistic over populations seeded 1–12, recorded before step
//!   bounds were keyed to the leading ramp; the test draws seed 42, which
//!   the bands were not set from. A change that moves a statistic out of
//!   its band changed the model's accuracy by more than population
//!   sampling explains.
//! - Figure 1-2: with `a` at τ = 500 ps and `b` at τ ∈ {100, 500, 1000} ps,
//!   the delay measured from `a` is non-decreasing in the separation for
//!   falling inputs (the parallel pull-up loses `b`'s help as `b` trails)
//!   and non-increasing for rising inputs (the series stack waits less for
//!   `b` as `b` leads), up to and along the single-input plateau. Both the
//!   reference simulator and the model must show the shape.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::{CharacterizeOptions, Simulator};
use proxim::model::measure::InputEvent;
use proxim::model::ProximityModel;
use proxim::numeric::grid::linspace;
use proxim::numeric::pwl::Edge;
use proxim::numeric::Summary;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::LazyLock;

/// The NAND3 under test and its `fast` model.
struct Env {
    cell: Cell,
    tech: Technology,
    model: ProximityModel,
}

static ENV: LazyLock<Env> = LazyLock::new(|| {
    let cell = Cell::nand(3);
    let tech = Technology::demo_5v();
    let model = ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
        .expect("characterization succeeds");
    Env { cell, tech, model }
});

impl Env {
    /// The reference simulator: the model's thresholds and load at 0.6 ×
    /// its `dv_max`, the stand-in for the paper's HSPICE runs.
    fn reference(&self) -> Simulator<'_> {
        Simulator::new(
            &self.cell,
            &self.tech,
            *self.model.thresholds(),
            self.model.reference_load(),
            (self.model.dv_max() * 0.6).max(0.02),
        )
    }

    /// `b` at transition time `tau_b`, arriving `s` after `a` (falling
    /// inputs) or `s` before it (rising inputs), `a` at 500 ps from t = 0.
    fn fig_1_2_pair(&self, edge: Edge, tau_b: f64, s: f64) -> [InputEvent; 2] {
        let th = self.model.thresholds();
        let a = InputEvent::new(0, edge, 0.0, 500e-12);
        let target = match edge {
            Edge::Falling => a.arrival(th) + s,
            Edge::Rising => a.arrival(th) - s,
        };
        let frac = InputEvent::new(1, edge, 0.0, tau_b).arrival(th);
        [a, InputEvent::new(1, edge, target - frac, tau_b)]
    }
}

/// A statistic's band, in percent.
fn assert_band(name: &str, got: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&got),
        "{name} {got:.3} % left its band [{lo}, {hi}] %"
    );
}

#[test]
fn table_5_1_error_statistics_stay_in_their_bands() {
    let env = &*ENV;
    let th = *env.model.thresholds();
    let sim = env.reference();
    let mut rng = StdRng::seed_from_u64(42);
    let mut delay_err = Vec::new();
    let mut rise_err = Vec::new();
    for _ in 0..30 {
        let tau: [f64; 3] = std::array::from_fn(|_| rng.random_range(50e-12..2000e-12));
        let s_ab = rng.random_range(-500e-12..500e-12);
        let s_ac = rng.random_range(-500e-12..500e-12);
        let a = InputEvent::new(0, Edge::Falling, 0.0, tau[0]);
        let place = |pin: usize, s: f64| {
            let frac = InputEvent::new(pin, Edge::Falling, 0.0, tau[pin]).arrival(&th);
            InputEvent::new(pin, Edge::Falling, a.arrival(&th) + s - frac, tau[pin])
        };
        let events = [a, place(1, s_ab), place(2, s_ac)];
        let predicted = env.model.gate_timing(&events).expect("model answers");
        let r = sim.simulate(&events).expect("simulation succeeds");
        let k = events
            .iter()
            .position(|e| e.pin == predicted.reference_pin)
            .expect("reference pin is among the events");
        let delay = r.delay_from(k, &th).expect("output switches");
        let rise = r.transition_time(&th).expect("output completes");
        delay_err.push((predicted.delay - delay) / delay * 100.0);
        rise_err.push((predicted.output_transition - rise) / rise * 100.0);
    }
    let d = Summary::of(&delay_err);
    let r = Summary::of(&rise_err);
    assert_band("delay error mean", d.mean, -12.7, -4.3);
    assert_band("delay error sigma", d.std_dev, 3.3, 13.9);
    assert_band("delay error max", d.max, -10.5, 16.9);
    assert_band("rise-time error mean", r.mean, -2.5, 5.4);
    assert_band("rise-time error sigma", r.std_dev, 4.4, 9.4);
    assert_band("rise-time error max", r.max, 13.2, 29.7);
}

/// Asserts that `delays` (in seconds, in sweep order) never move against
/// `edge`'s Fig 1-2 trend by more than `slack` seconds.
fn assert_monotone(what: &str, edge: Edge, delays: &[f64], slack: f64) {
    for (k, w) in delays.windows(2).enumerate() {
        let rise = w[1] - w[0];
        let against = match edge {
            Edge::Falling => -rise,
            Edge::Rising => rise,
        };
        assert!(
            against <= slack,
            "{what}: delay moves against the {edge:?}-input trend at step {k}: \
             {:.3} -> {:.3} ps",
            w[0] * 1e12,
            w[1] * 1e12
        );
    }
}

#[test]
fn fig_1_2_delay_is_monotone_in_separation() {
    let env = &*ENV;
    let th = *env.model.thresholds();
    let sim = env.reference();
    for edge in [Edge::Falling, Edge::Rising] {
        for tau_b in [100e-12, 500e-12, 1000e-12] {
            let mut simulated = Vec::new();
            let mut modeled = Vec::new();
            for s in linspace(0.0, 1500e-12, 31) {
                let pair = env.fig_1_2_pair(edge, tau_b, s);
                let r = sim.simulate(&pair).expect("simulation succeeds");
                simulated.push(r.delay_from(0, &th).expect("output switches"));
                // The model answers from its reference pin; move the answer
                // onto `a`'s arrival, where the simulated delay is read.
                let m = env.model.gate_timing(&pair).expect("model answers");
                let reference = pair
                    .iter()
                    .find(|e| e.pin == m.reference_pin)
                    .expect("reference pin is among the events");
                modeled.push(m.delay + reference.arrival(&th) - pair[0].arrival(&th));
            }
            let label = format!("{edge:?} inputs, tau_b = {:.0} ps", tau_b * 1e12);
            // The simulated plateau wobbles by ~0.01 ps step to step.
            assert_monotone(&format!("simulated, {label}"), edge, &simulated, 0.05e-12);
            // The model interpolates its tables piecewise-linearly, so it
            // may bend against the trend by a fraction of a picosecond
            // where a fold hands over to the plateau.
            assert_monotone(&format!("modeled, {label}"), edge, &modeled, 1e-12);
            let (first, last) = (simulated[0], simulated[simulated.len() - 1]);
            match edge {
                Edge::Falling => assert!(first < last, "{label}: no proximity speed-up"),
                Edge::Rising => assert!(first > last, "{label}: no proximity slow-down"),
            }
        }
    }
}
