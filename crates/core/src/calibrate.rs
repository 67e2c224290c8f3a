//! Driver–receiver ramp-stretch calibration.
//!
//! Netlist timing reconstructs each gate's output as a full-swing linear
//! ramp. Real edges are only linear in the middle: the slow tail near the
//! far rail keeps the next stage's complementary network conducting longer,
//! so the best-matching *equivalent* ramp is somewhere between the linear
//! extrapolation of the threshold-to-threshold time (too fast) and the full
//! measured 5–95 % time (too slow — the early part of the tail barely
//! matters). Rather than guessing, the stretch is calibrated per output
//! edge: a two-stage chain of the cell driving itself is simulated at a few
//! input slopes, and the factor is solved so the *modeled* two-stage
//! arrival matches the simulated one. Each chain transient ends once the
//! second stage's output has crossed both §2 thresholds (see
//! [`proxim_spice::StopRule`]); only its first crossing is read.

use crate::characterize::Simulator;
use crate::error::ModelError;
use crate::measure::{InputEvent, Scenario};
use crate::single::SingleInputModel;
use proxim_numeric::pwl::{Edge, TrapezoidalCubic};
use proxim_numeric::rootfind::brent;
use proxim_spice::circuit::{Circuit, Waveform};
use proxim_spice::tran::{StopRule, TranOptions};

/// One simulated two-stage data point.
struct ChainPoint {
    /// Clean input ramp transition time.
    tau: f64,
    /// Simulated second-stage output arrival (absolute).
    t2_sim: f64,
    /// First-stage input arrival (absolute).
    arrival_in: f64,
}

/// Simulates `cell` driving an identical copy of itself, pin 0 to pin 0,
/// with stable pins at sensitizing levels, and returns the second-stage
/// output arrival.
fn simulate_chain(
    sim: &Simulator<'_>,
    input_edge: Edge,
    tau: f64,
) -> Result<ChainPoint, ModelError> {
    let (cell, tech, th) = (sim.cell, sim.tech, &sim.thresholds);
    let probe = [InputEvent::new(0, input_edge, 0.0, tau)];
    let scenario = Scenario::resolve(cell, &probe)?;
    let a_out_edge = scenario.output_edge;
    // Stage B's input edge is stage A's output edge.
    let b_scenario = Scenario::resolve(cell, &[InputEvent::new(0, a_out_edge, 0.0, tau)])?;
    let b_out_edge = b_scenario.output_edge;

    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(tech.vdd));

    let t_start = 0.3e-9;
    let event = InputEvent::new(0, input_edge, t_start, tau);
    let in_node = ckt.node("a_in0");
    ckt.vsource("VIN", in_node, Circuit::GND, event.ramp.waveform(tech.vdd));

    // Stage A pins: pin 0 from the ramp, others at sensitizing levels.
    let mut a_pins = vec![in_node];
    for (pin, lv) in scenario.stable_levels.iter().enumerate().skip(1) {
        let node = ckt.node(&format!("a_in{pin}"));
        let level = lv.unwrap_or(true);
        ckt.vsource(
            &format!("VA{pin}"),
            node,
            Circuit::GND,
            Waveform::Dc(if level { tech.vdd } else { 0.0 }),
        );
        a_pins.push(node);
    }
    let mid = ckt.node("mid");
    cell.elaborate_into(&mut ckt, tech, "a", vdd, &a_pins, mid);

    // Stage B pins: pin 0 from the mid net.
    let mut b_pins = vec![mid];
    for (pin, lv) in b_scenario.stable_levels.iter().enumerate().skip(1) {
        let node = ckt.node(&format!("b_in{pin}"));
        let level = lv.unwrap_or(true);
        ckt.vsource(
            &format!("VB{pin}"),
            node,
            Circuit::GND,
            Waveform::Dc(if level { tech.vdd } else { 0.0 }),
        );
        b_pins.push(node);
    }
    let out = ckt.node("out");
    cell.elaborate_into(&mut ckt, tech, "b", vdd, &b_pins, out);
    ckt.capacitor("CL", out, Circuit::GND, sim.c_load);

    let t_stop = t_start + tau + 12e-9;
    let near = th.threshold_for(b_out_edge);
    let options = TranOptions::to(t_stop)
        .with_dv_max(sim.dv_max)
        .with_faults(sim.faults)
        .with_stop(StopRule {
            node: out,
            edge: b_out_edge,
            near,
            far: th.threshold_for(b_out_edge.opposite()),
        });
    let r = ckt.tran_cancellable(&options, &sim.cancel)?;
    let w = r.waveform(out);
    let t2_sim = TrapezoidalCubic::new(&w)
        .first_crossing(near, b_out_edge)
        .ok_or_else(|| ModelError::MissingCrossing {
            what: "calibrating the two-stage chain".into(),
        })?;
    Ok(ChainPoint {
        tau,
        t2_sim,
        arrival_in: event.arrival(th),
    })
}

/// Calibrates the ramp-stretch factor for the output edge produced by
/// `input_edge` on pin 0, using the pin-0 single-input models of both
/// stages (`single_a` drives, `single_b` receives). The chain is `sim`'s
/// cell driving itself into `sim`'s load, simulated at `sim`'s `dv_max`
/// (its tolerance scale is not applied).
///
/// Returns a factor in `[0.8, 2.5]` (clamped if the bracket fails). Every
/// chain transient polls `sim`'s cancellation token and draws from its
/// fault plan.
///
/// # Errors
///
/// Returns [`ModelError`] if the chain simulations fail, including the
/// typed cancellation errors ([`ModelError::is_cancellation`]) once the
/// token trips.
pub(crate) fn calibrate_stretch(
    sim: &Simulator<'_>,
    input_edge: Edge,
    single_a: &SingleInputModel,
    single_b: &SingleInputModel,
) -> Result<f64, ModelError> {
    let (th, c_ref) = (&sim.thresholds, sim.c_load);
    let (tau_lo, tau_hi) = single_a.tau_range();
    let taus = [tau_lo * 1.5, (tau_lo * tau_hi).sqrt(), tau_hi * 0.7];
    let c_mid = sim.cell.input_cap(sim.tech);
    let frac_span = (th.v_ih - th.v_il) / th.vdd;

    let mut points = Vec::with_capacity(taus.len());
    for &tau in &taus {
        points.push(simulate_chain(sim, input_edge, tau)?);
    }

    // Modeled two-stage arrival as a function of the stretch factor.
    let t2_model = |f: f64, p: &ChainPoint| -> f64 {
        let delay_a = single_a.delay(p.tau, c_mid);
        let tt_a = single_a.transition(p.tau, c_mid);
        let tau_full = (tt_a / frac_span * f).max(1e-15);
        p.arrival_in + delay_a + single_b.delay(tau_full, c_ref)
    };
    let residual = |f: f64| -> f64 {
        points
            .iter()
            .map(|p| t2_model(f, p) - p.t2_sim)
            .sum::<f64>()
            / points.len() as f64
    };

    let (lo, hi) = (0.8, 2.5);
    if residual(lo) >= 0.0 {
        return Ok(lo);
    }
    if residual(hi) <= 0.0 {
        return Ok(hi);
    }
    Ok(brent(residual, lo, hi, 1e-4).unwrap_or(1.0))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};
    use proxim_spice::CancelToken;

    #[test]
    fn calibrated_stretch_is_between_linear_and_full_tail() {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let th = Thresholds::new(1.8, 3.78, 5.0);
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let single =
            SingleInputModel::characterize(&sim, 0, Edge::Rising, &[100e-12, 400e-12, 1500e-12])
                .unwrap();
        let f = calibrate_stretch(&sim, Edge::Rising, &single, &single).unwrap();
        assert!(f > 1.0, "real edges are slower than linear: {f}");
        assert!(
            f < single.tail_factor() + 0.2,
            "stretch {f} should not exceed the full 5-95% tail {}",
            single.tail_factor()
        );
    }

    #[test]
    fn a_cancelled_token_stops_calibration_typed() {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let th = Thresholds::new(1.8, 3.78, 5.0);
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let single =
            SingleInputModel::characterize(&sim, 0, Edge::Rising, &[100e-12, 400e-12, 1500e-12])
                .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = calibrate_stretch(&sim.with_cancel(cancel), Edge::Rising, &single, &single)
            .unwrap_err();
        assert!(err.is_cancellation(), "got {err:?}");
    }
}
