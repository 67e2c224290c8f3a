//! Delay-measurement thresholds for multi-input gates (§2 of the paper).
//!
//! An n-input gate has `2^n - 1` voltage-transfer curves (VTCs), one per
//! combination of switching inputs. Measuring delay with thresholds taken
//! from the "wrong" curve can produce negative delays for slow inputs. The
//! paper's policy: take the **minimum `V_il`** and the **maximum `V_ih`**
//! over the whole family, which guarantees `V_il < V_m < V_ih` for the `V_m`
//! of *any* curve and therefore positive delay for every combination of
//! transition times and separations.

use crate::error::ModelError;
use proxim_cells::{Cell, Technology};
use proxim_numeric::pwl::{Edge, Pwl};
use proxim_obs::json::{FromJson, ToJson};
use proxim_spice::circuit::Waveform;

/// The measurement thresholds selected for a gate.
///
/// Signal arrival (and input/output measurement points) use `V_il` for
/// rising signals and `V_ih` for falling signals — the first threshold the
/// signal crosses, which is also how the paper measures separation between
/// inputs (§3).
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct Thresholds {
    /// The low unity-gain threshold (minimum over the VTC family).
    pub v_il: f64,
    /// The high unity-gain threshold (maximum over the VTC family).
    pub v_ih: f64,
    /// The supply voltage the thresholds were extracted at.
    pub vdd: f64,
}

impl Thresholds {
    /// Creates a threshold set directly.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < v_il < v_ih < vdd`.
    pub fn new(v_il: f64, v_ih: f64, vdd: f64) -> Self {
        assert!(
            0.0 < v_il && v_il < v_ih && v_ih < vdd,
            "thresholds must satisfy 0 < v_il < v_ih < vdd (got {v_il}, {v_ih}, {vdd})"
        );
        Self { v_il, v_ih, vdd }
    }

    /// The measurement threshold for a signal transitioning with `edge`:
    /// `V_il` for rising, `V_ih` for falling (the first one crossed).
    pub fn threshold_for(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Rising => self.v_il,
            Edge::Falling => self.v_ih,
        }
    }

    /// The pair `(first, second)` of thresholds crossed by a transition with
    /// `edge`, used for transition-time measurement.
    pub fn span_for(&self, edge: Edge) -> (f64, f64) {
        match edge {
            Edge::Rising => (self.v_il, self.v_ih),
            Edge::Falling => (self.v_ih, self.v_il),
        }
    }
}

/// One voltage-transfer curve of the family: the subset of inputs switched
/// together, the curve itself, and its characteristic voltages.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct VtcCurve {
    /// Bitmask over input pins: bit `i` set means pin `i` switches.
    pub switching_mask: u32,
    /// The stable levels driven on the non-switching pins.
    pub stable_levels: Vec<Option<bool>>,
    /// `V_out` as a function of `V_in`.
    pub curve: Pwl,
    /// Input voltage of the lower unity-gain (`dVout/dVin = -1`) point.
    pub v_il: f64,
    /// Input voltage of the upper unity-gain point.
    pub v_ih: f64,
    /// The switching threshold: where `V_out = V_in`.
    pub v_m: f64,
}

impl VtcCurve {
    /// The switching pins as indices.
    pub fn switching_pins(&self) -> Vec<usize> {
        (0..32)
            .filter(|i| self.switching_mask & (1 << i) != 0)
            .collect()
    }
}

/// The full VTC family of a gate and the paper's threshold selection.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct VtcFamily {
    curves: Vec<VtcCurve>,
    vdd: f64,
}

impl VtcFamily {
    /// All extracted curves (one per sensitizable switching combination).
    pub fn curves(&self) -> &[VtcCurve] {
        &self.curves
    }

    /// The minimum `V_il` over the family.
    pub fn v_il_min(&self) -> f64 {
        self.curves
            .iter()
            .map(|c| c.v_il)
            .fold(f64::INFINITY, f64::min)
    }

    /// The maximum `V_ih` over the family.
    pub fn v_ih_max(&self) -> f64 {
        self.curves
            .iter()
            .map(|c| c.v_ih)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The paper's threshold policy: `(min V_il, max V_ih)`.
    pub fn thresholds(&self) -> Thresholds {
        Thresholds::new(self.v_il_min(), self.v_ih_max(), self.vdd)
    }

    /// The curve for an exact switching mask, if extracted.
    pub fn curve_for_mask(&self, mask: u32) -> Option<&VtcCurve> {
        self.curves.iter().find(|c| c.switching_mask == mask)
    }
}

/// Finds stable-pin levels that sensitize the output to the switching set:
/// with the switching pins all low the output must differ from when they are
/// all high. Returns per-pin levels (`None` for switching pins).
fn sensitize_subset(cell: &Cell, mask: u32) -> Option<Vec<Option<bool>>> {
    let n = cell.input_count();
    let stable: Vec<usize> = (0..n).filter(|i| mask & (1 << i) == 0).collect();
    for assign in 0..(1u32 << stable.len()) {
        let mut levels = vec![false; n];
        for (k, &pin) in stable.iter().enumerate() {
            levels[pin] = assign & (1 << k) != 0;
        }
        let lo = cell.output_for(&levels);
        for (i, level) in levels.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *level = true;
            }
        }
        let hi = cell.output_for(&levels);
        if lo != hi {
            return Some(
                (0..n)
                    .map(|i| {
                        if mask & (1 << i) != 0 {
                            None
                        } else {
                            Some(levels[i])
                        }
                    })
                    .collect(),
            );
        }
    }
    None
}

/// Locates the unity-gain points (`dVout/dVin = -1`) and the switching
/// threshold (`Vout = Vin`) on a sampled VTC.
fn analyze_curve(curve: &Pwl, vdd: f64) -> Result<(f64, f64, f64), ModelError> {
    let pts = curve.points();
    if pts.len() < 8 {
        return Err(ModelError::MalformedVtc {
            detail: "too few sweep points".into(),
        });
    }
    // Segment slopes at segment midpoints.
    let mut mids = Vec::with_capacity(pts.len() - 1);
    let mut slopes = Vec::with_capacity(pts.len() - 1);
    for w in pts.windows(2) {
        let dx = w[1].0 - w[0].0;
        if dx <= 0.0 {
            continue;
        }
        mids.push(0.5 * (w[0].0 + w[1].0));
        slopes.push((w[1].1 - w[0].1) / dx);
    }
    // Crossings of slope = -1, linearly interpolated between midpoints.
    let mut crossings = Vec::new();
    for k in 0..slopes.len() - 1 {
        let (s0, s1) = (slopes[k] + 1.0, slopes[k + 1] + 1.0);
        if s0 == 0.0 {
            crossings.push(mids[k]);
        } else if s0 * s1 < 0.0 {
            let f = s0 / (s0 - s1);
            crossings.push(mids[k] + f * (mids[k + 1] - mids[k]));
        }
    }
    if crossings.len() < 2 {
        return Err(ModelError::MalformedVtc {
            detail: format!("expected two unity-gain points, found {}", crossings.len()),
        });
    }
    let v_il = crossings[0];
    // Nonempty by the length check above.
    let v_ih = crossings[crossings.len() - 1];

    // V_m: Vout = Vin, bracketed over the full sweep.
    let g = |v: f64| curve.eval(v) - v;
    let v_m = proxim_numeric::rootfind::brent(g, 0.0, vdd, 1e-9).map_err(|e| {
        ModelError::MalformedVtc {
            detail: format!("V_m not bracketed: {e}"),
        }
    })?;
    Ok((v_il, v_ih, v_m))
}

/// Extracts the full VTC family of a cell by DC-sweeping every sensitizable
/// switching combination (tying the switching inputs together), as in
/// Figure 2-1(b) of the paper.
///
/// `points` is the number of sweep samples per curve (use 201 or more).
///
/// # Errors
///
/// Returns [`ModelError`] if a DC solution fails or a curve lacks its
/// unity-gain points.
pub fn extract_vtc_family(
    cell: &Cell,
    tech: &Technology,
    c_load: f64,
    points: usize,
) -> Result<VtcFamily, ModelError> {
    extract_vtc_family_cancellable(
        cell,
        tech,
        c_load,
        points,
        &proxim_spice::CancelToken::new(),
    )
}

/// [`extract_vtc_family`] honoring a cancellation token: the token is polled
/// before every grid point and inside every warm-started DC solve, so even
/// the sequential VTC phase of a characterization run stops promptly.
///
/// # Errors
///
/// Same as [`extract_vtc_family`], plus the token's typed
/// `Cancelled`/`DeadlineExceeded` errors (as [`ModelError::Simulation`]).
pub fn extract_vtc_family_cancellable(
    cell: &Cell,
    tech: &Technology,
    c_load: f64,
    points: usize,
    cancel: &proxim_spice::CancelToken,
) -> Result<VtcFamily, ModelError> {
    assert!(points >= 16, "VTC extraction needs a reasonably fine sweep");
    let n = cell.input_count();
    let mut curves = Vec::new();

    for mask in 1u32..(1 << n) {
        let Some(stable_levels) = sensitize_subset(cell, mask) else {
            continue; // this combination cannot drive the output
        };
        let mut net = cell.netlist(tech, c_load);
        for (pin, lv) in stable_levels.iter().enumerate() {
            if let Some(high) = lv {
                net.set_level(pin, *high);
            }
        }
        // Sweep all switching pins together with warm-started DC solves.
        let grid = proxim_numeric::grid::linspace(0.0, tech.vdd, points);
        let mut samples = Vec::with_capacity(points);
        let mut prev: Option<Vec<f64>> = None;
        for &v in &grid {
            cancel.check("vtc extraction")?;
            for pin in 0..n {
                if mask & (1 << pin) != 0 {
                    net.set_waveform(pin, Waveform::Dc(v));
                }
            }
            let op =
                proxim_spice::op::dc_solve_warm_cancellable(&net.circuit, prev.as_deref(), cancel)?;
            samples.push((v, op.voltage(net.out)));
            prev = Some(op.raw().to_vec());
        }
        let curve = Pwl::new(samples).map_err(|e| ModelError::MalformedVtc {
            detail: format!("VTC sweep did not form a curve: {e}"),
        })?;
        let (v_il, v_ih, v_m) = analyze_curve(&curve, tech.vdd).map_err(|e| match e {
            ModelError::MalformedVtc { detail } => ModelError::MalformedVtc {
                detail: format!("mask {mask:#b}: {detail}"),
            },
            other => other,
        })?;
        curves.push(VtcCurve {
            switching_mask: mask,
            stable_levels,
            curve,
            v_il,
            v_ih,
            v_m,
        });
    }

    if curves.is_empty() {
        return Err(ModelError::MalformedVtc {
            detail: "no sensitizable combination".into(),
        });
    }
    Ok(VtcFamily {
        curves,
        vdd: tech.vdd,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_validate_ordering() {
        let t = Thresholds::new(1.0, 3.5, 5.0);
        assert_eq!(t.threshold_for(Edge::Rising), 1.0);
        assert_eq!(t.threshold_for(Edge::Falling), 3.5);
        assert_eq!(t.span_for(Edge::Rising), (1.0, 3.5));
        assert_eq!(t.span_for(Edge::Falling), (3.5, 1.0));
    }

    #[test]
    #[should_panic(expected = "must satisfy")]
    fn thresholds_reject_inverted() {
        Thresholds::new(3.5, 1.0, 5.0);
    }

    #[test]
    fn sensitize_nand_subset_needs_other_pins_high() {
        let cell = Cell::nand(3);
        let s = sensitize_subset(&cell, 0b001).unwrap();
        assert_eq!(s[0], None);
        assert_eq!(s[1], Some(true));
        assert_eq!(s[2], Some(true));
        let all = sensitize_subset(&cell, 0b111).unwrap();
        assert!(all.iter().all(|l| l.is_none()));
    }

    #[test]
    fn sensitize_aoi21_single_a() {
        // For AOI21 (out = !(ab + c)): pin a is sensitized with b = 1, c = 0.
        let cell = Cell::aoi21();
        let s = sensitize_subset(&cell, 0b001).unwrap();
        assert_eq!(s[1], Some(true));
        assert_eq!(s[2], Some(false));
    }

    #[test]
    fn analyze_synthetic_vtc() {
        // A piecewise-linear "inverter": flat, steep fall, flat — with
        // shoulder slopes straddling -1 so the unity-gain points are
        // well-defined.
        let mut pts = Vec::new();
        let vdd = 5.0;
        for k in 0..=500 {
            let v = vdd * k as f64 / 500.0;
            // Smooth logistic-like curve centered at 2.5 V.
            let vout = vdd / (1.0 + ((v - 2.5) * 3.0).exp());
            pts.push((v, vout));
        }
        let curve = Pwl::new(pts).unwrap();
        let (v_il, v_ih, v_m) = analyze_curve(&curve, vdd).unwrap();
        assert!(v_il < v_m && v_m < v_ih, "{v_il} {v_m} {v_ih}");
        assert!((v_m - 2.5).abs() < 0.05, "v_m = {v_m}");
        // Logistic gain -1 points: solve analytically ~ 2.5 -/+ ln(...)/3.
        assert!(v_il > 1.5 && v_il < 2.5);
        assert!(v_ih > 2.5 && v_ih < 3.5);
    }

    #[test]
    fn analyze_rejects_gainless_curve() {
        let pts: Vec<(f64, f64)> = (0..=100).map(|k| (k as f64 / 20.0, 2.0)).collect();
        let curve = Pwl::new(pts).unwrap();
        assert!(matches!(
            analyze_curve(&curve, 5.0),
            Err(ModelError::MalformedVtc { .. })
        ));
    }
}
