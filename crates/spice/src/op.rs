//! DC operating-point analysis.
//!
//! Solves the nonlinear DC system with Newton–Raphson. When the direct solve
//! fails (common for high-gain circuits started from a zero guess), the
//! solver falls back to gmin stepping and then source stepping — the same
//! continuation strategies SPICE uses.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, NodeId};
use crate::solver::{
    newton_solve, AnalysisError, CapMode, NewtonOptions, NewtonOutcome, NewtonWorkspace, System,
};

/// The gmin tied from every node to ground in a converged solution.
pub(crate) const GMIN: f64 = 1e-12;

/// The solved DC state of a circuit.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Node voltages indexed by `NodeId` (ground included as entry 0).
    voltages: Vec<f64>,
    /// Branch currents of the voltage sources, in source order.
    branch_currents: Vec<f64>,
    /// The raw unknown vector, used to warm-start follow-up analyses.
    pub(crate) x: Vec<f64>,
}

impl OpResult {
    pub(crate) fn from_x(ckt: &Circuit, x: Vec<f64>) -> Self {
        let nv = ckt.node_count() - 1;
        let mut voltages = Vec::with_capacity(nv + 1);
        voltages.push(0.0);
        voltages.extend_from_slice(&x[..nv]);
        let branch_currents = x[nv..].to_vec();
        Self {
            voltages,
            branch_currents,
            x,
        }
    }

    /// The solved voltage of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// The branch current of the `k`-th voltage source (positive current
    /// flows into the `plus` terminal and out of the source's `minus`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn branch_current(&self, k: usize) -> f64 {
        self.branch_currents[k]
    }

    /// All node voltages (entry 0 is ground).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The raw MNA unknown vector (node voltages then branch currents),
    /// suitable for warm-starting [`dc_solve_warm`].
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Computes the DC operating point with continuation fallbacks.
pub(crate) fn dc_op(ckt: &Circuit) -> Result<OpResult, AnalysisError> {
    let op = dc_solve_at(ckt, 0.0, None, &CancelToken::new())?;
    Ok(op)
}

/// Computes the DC operating point, optionally warm-starting Newton from a
/// previous solution's raw unknown vector (see [`OpResult::raw`]).
///
/// This is the building block for custom continuation loops (e.g. sweeping
/// several sources simultaneously, which [`Circuit::dc_sweep`] does not
/// cover).
///
/// # Errors
///
/// Returns [`AnalysisError`] if Newton–Raphson fails to converge even with
/// gmin and source stepping.
pub fn dc_solve_warm(ckt: &Circuit, x0: Option<&[f64]>) -> Result<OpResult, AnalysisError> {
    dc_solve_at(ckt, 0.0, x0, &CancelToken::new())
}

/// Like [`dc_solve_warm`], honoring a cancellation token at every Newton
/// iteration — the building block for interruptible DC sweep loops (e.g.
/// VTC-family extraction).
///
/// # Errors
///
/// [`AnalysisError`] on convergence failure, or the token's
/// `Cancelled`/`DeadlineExceeded` when `cancel` trips mid-solve.
pub fn dc_solve_warm_cancellable(
    ckt: &Circuit,
    x0: Option<&[f64]>,
    cancel: &CancelToken,
) -> Result<OpResult, AnalysisError> {
    dc_solve_at(ckt, 0.0, x0, cancel)
}

/// Solves the DC system with sources evaluated at time `t`, optionally warm
/// starting from `x0`. Used directly by the operating point (`t = 0`) and by
/// the DC sweep.
pub(crate) fn dc_solve_at(
    ckt: &Circuit,
    t: f64,
    x0: Option<&[f64]>,
    cancel: &CancelToken,
) -> Result<OpResult, AnalysisError> {
    let sys = System::new(ckt);
    let mut ws = NewtonWorkspace::new();
    dc_solve_with(ckt, &sys, t, x0, cancel, &mut ws)
}

/// The body of [`dc_solve_at`] over a caller-provided system and workspace,
/// so the transient path can run the DC init through its reusable arena —
/// symbolic factorization included.
pub(crate) fn dc_solve_with(
    ckt: &Circuit,
    sys: &System<'_>,
    t: f64,
    x0: Option<&[f64]>,
    cancel: &CancelToken,
    ws: &mut NewtonWorkspace,
) -> Result<OpResult, AnalysisError> {
    let opts = NewtonOptions::default();
    // Heavy damping for deep logic: small clamped steps cannot oscillate
    // across a chain of high-gain stages, at the cost of many iterations.
    let damped = NewtonOptions {
        vstep_limit: 0.15,
        max_iter: 1200,
        ..opts
    };
    let zero = vec![0.0; sys.n];
    let start = x0.unwrap_or(&zero);

    // 1. Direct attempt, then a damped retry.
    if let NewtonOutcome::Converged(_) =
        newton_solve(sys, start, t, 1.0, GMIN, CapMode::Dc, &opts, ws, cancel)?
    {
        return Ok(OpResult::from_x(ckt, std::mem::take(&mut ws.x)));
    }
    if let NewtonOutcome::Converged(_) =
        newton_solve(sys, start, t, 1.0, GMIN, CapMode::Dc, &damped, ws, cancel)?
    {
        return Ok(OpResult::from_x(ckt, std::mem::take(&mut ws.x)));
    }

    // 2. gmin stepping: solve with a large gmin (heavily damped circuit) and
    //    relax it down to the target, warm-starting each stage.
    let mut x = start.to_vec();
    let mut gmin = 1e-3;
    let mut ok = true;
    while gmin >= GMIN * 0.99 {
        match newton_solve(sys, &x, t, 1.0, gmin, CapMode::Dc, &damped, ws, cancel)? {
            NewtonOutcome::Converged(_) => std::mem::swap(&mut x, &mut ws.x),
            NewtonOutcome::Failed => {
                ok = false;
                break;
            }
        }
        gmin /= 10.0;
    }
    if ok {
        return Ok(OpResult::from_x(ckt, x));
    }

    // 3. Source stepping: ramp all sources from 0 to full value.
    let mut x = zero;
    let steps = 40;
    for k in 0..=steps {
        let scale = k as f64 / steps as f64;
        newton_solve(sys, &x, t, scale, GMIN, CapMode::Dc, &damped, ws, cancel)?
            .into_converged("dc operating point", || {
                format!("source stepping stalled at scale {scale:.2}")
            })?;
        std::mem::swap(&mut x, &mut ws.x);
    }
    Ok(OpResult::from_x(ckt, x))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::circuit::Waveform;
    use crate::device::{MosParams, MosType};

    fn nmos_params() -> MosParams {
        MosParams {
            vt0: 0.75,
            kp: 50e-6,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.03,
        }
    }

    fn pmos_params() -> MosParams {
        MosParams {
            vt0: 0.85,
            kp: 17e-6,
            gamma: 0.5,
            phi: 0.6,
            lambda: 0.04,
        }
    }

    /// A CMOS inverter: Vdd = 5 V, input from a DC source.
    fn inverter(vin: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::Dc(vin));
        ckt.mosfet(
            "MP",
            MosType::Pmos,
            out,
            inp,
            vdd,
            vdd,
            pmos_params(),
            8e-6,
            0.8e-6,
        );
        ckt.mosfet(
            "MN",
            MosType::Nmos,
            out,
            inp,
            Circuit::GND,
            Circuit::GND,
            nmos_params(),
            4e-6,
            0.8e-6,
        );
        (ckt, out)
    }

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::Dc(9.0));
        ckt.resistor("R1", a, b, 2e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        let op = ckt.dc_op().unwrap();
        assert!((op.voltage(b) - 3.0).abs() < 1e-6);
        assert!((op.branch_current(0) + 3e-3).abs() < 1e-8);
    }

    #[test]
    fn inverter_input_low_output_high() {
        let (ckt, out) = inverter(0.0);
        let op = ckt.dc_op().unwrap();
        assert!(op.voltage(out) > 4.99, "vout = {}", op.voltage(out));
    }

    #[test]
    fn inverter_input_high_output_low() {
        let (ckt, out) = inverter(5.0);
        let op = ckt.dc_op().unwrap();
        assert!(op.voltage(out) < 0.01, "vout = {}", op.voltage(out));
    }

    #[test]
    fn inverter_midpoint_is_interior() {
        // Near the switching threshold both devices conduct and the output
        // sits between the rails.
        let (ckt, out) = inverter(2.2);
        let op = ckt.dc_op().unwrap();
        let v = op.voltage(out);
        assert!(v > 0.5 && v < 4.5, "vout = {v}");
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (ckt, _) = inverter(1.0);
        let op = ckt.dc_op().unwrap();
        assert_eq!(op.voltage(Circuit::GND), 0.0);
    }

    #[test]
    fn floating_node_settles_via_gmin() {
        // A node connected only through an OFF transistor: gmin defines it.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let float = ckt.node("float");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.vsource("VG", g, Circuit::GND, Waveform::Dc(0.0));
        ckt.mosfet(
            "MN",
            MosType::Nmos,
            float,
            g,
            Circuit::GND,
            Circuit::GND,
            nmos_params(),
            4e-6,
            0.8e-6,
        );
        let op = ckt.dc_op().unwrap();
        assert!(op.voltage(float).abs() < 1e-3);
    }

    #[test]
    fn cmos_nand2_truth_table() {
        let p = pmos_params();
        let n = nmos_params();
        let cases = [
            (0.0, 0.0, true),
            (0.0, 5.0, true),
            (5.0, 0.0, true),
            (5.0, 5.0, false),
        ];
        for (va, vb, high) in cases {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let a = ckt.node("a");
            let b = ckt.node("b");
            let out = ckt.node("out");
            let mid = ckt.node("mid");
            ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
            ckt.vsource("VA", a, Circuit::GND, Waveform::Dc(va));
            ckt.vsource("VB", b, Circuit::GND, Waveform::Dc(vb));
            ckt.mosfet("MPA", MosType::Pmos, out, a, vdd, vdd, p, 8e-6, 0.8e-6);
            ckt.mosfet("MPB", MosType::Pmos, out, b, vdd, vdd, p, 8e-6, 0.8e-6);
            ckt.mosfet(
                "MNA",
                MosType::Nmos,
                out,
                a,
                mid,
                Circuit::GND,
                n,
                4e-6,
                0.8e-6,
            );
            ckt.mosfet(
                "MNB",
                MosType::Nmos,
                mid,
                b,
                Circuit::GND,
                Circuit::GND,
                n,
                4e-6,
                0.8e-6,
            );
            let op = ckt.dc_op().unwrap();
            let v = op.voltage(out);
            if high {
                assert!(v > 4.9, "NAND({va},{vb}) = {v}");
            } else {
                assert!(v < 0.1, "NAND({va},{vb}) = {v}");
            }
        }
    }
}
