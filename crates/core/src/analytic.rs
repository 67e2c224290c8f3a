//! Closed-form analytical macromodels.
//!
//! §3 of the paper notes that "closed form analytical forms for these
//! macromodels do exist". This module fits such forms to the characterized
//! tables:
//!
//! - [`AnalyticSingle`]: `Δ⁽¹⁾/τ = a + b·u` — two coefficients per
//!   quantity. Linear in `u ∝ 1/τ`, this is the classic
//!   intrinsic-plus-load-slope delay law, and it fits the Level-1 substrate
//!   almost exactly.
//! - [`AnalyticDual`]: a low-order polynomial in `(ln u₁, ln v, w)` with a
//!   window-clamped separation shape — a dozen coefficients instead of a
//!   few hundred table entries, trading accuracy for storage. The
//!   `ablate-analytic` experiment quantifies the trade.

use crate::dual::DualInputModel;
use crate::error::ModelError;
use crate::single::SingleInputModel;
use proxim_numeric::fit::{lstsq, r_squared};
use proxim_numeric::grid::linspace;
use proxim_obs::json::{FromJson, ToJson};

/// A fitted closed-form single-input macromodel.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct AnalyticSingle {
    /// The pin the underlying table described.
    pub pin: usize,
    /// Strength `K` used in the dimensionless load, in A/V².
    pub k: f64,
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// `Δ⁽¹⁾/τ = delay_coeffs[0] + delay_coeffs[1] * u`.
    pub delay_coeffs: [f64; 2],
    /// `τ_out⁽¹⁾/τ = trans_coeffs[0] + trans_coeffs[1] * u`.
    pub trans_coeffs: [f64; 2],
    /// Goodness of fit of the delay law on the table samples.
    pub delay_r2: f64,
    /// Goodness of fit of the transition law.
    pub trans_r2: f64,
}

impl AnalyticSingle {
    /// Fits the closed form to a characterized table model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Table`] if the table has too few samples.
    pub fn fit(table: &SingleInputModel) -> Result<Self, ModelError> {
        let (us, delay_ratios, trans_ratios) = table.samples();
        let rows: Vec<Vec<f64>> = us.iter().map(|&u| vec![1.0, u]).collect();
        let dc = lstsq(&rows, &delay_ratios).map_err(|e| ModelError::Table(e.to_string()))?;
        let tc = lstsq(&rows, &trans_ratios).map_err(|e| ModelError::Table(e.to_string()))?;
        let predict = |c: &[f64]| -> Vec<f64> { us.iter().map(|&u| c[0] + c[1] * u).collect() };
        Ok(Self {
            pin: table.pin,
            k: table.k,
            vdd: table.vdd,
            delay_coeffs: [dc[0], dc[1]],
            trans_coeffs: [tc[0], tc[1]],
            delay_r2: r_squared(&delay_ratios, &predict(&dc)),
            trans_r2: r_squared(&trans_ratios, &predict(&tc)),
        })
    }

    /// The dimensionless load.
    fn u(&self, tau: f64, c_load: f64) -> f64 {
        c_load / (self.k * self.vdd * tau)
    }

    /// Closed-form `Δ⁽¹⁾`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn delay(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0, "transition time must be positive");
        let u = self.u(tau, c_load);
        tau * (self.delay_coeffs[0] + self.delay_coeffs[1] * u)
    }

    /// Closed-form `τ_out⁽¹⁾`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn transition(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0, "transition time must be positive");
        let u = self.u(tau, c_load);
        tau * (self.trans_coeffs[0] + self.trans_coeffs[1] * u)
    }

    /// Number of stored coefficients (the storage cost).
    pub fn coefficient_count(&self) -> usize {
        4
    }
}

/// A fitted closed-form dual-input proximity macromodel.
///
/// The basis is `{1, x, y, w, w², xw, yw, xy, x², y²}` with `x = ln u₁`,
/// `y = ln v`, evaluated inside the window and clamped to 1 outside
/// (`w ≥ 1` for the delay ratio), matching the table model's semantics.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct AnalyticDual {
    /// The dominant pin of the underlying table model.
    pub pin: usize,
    /// Delay-ratio coefficients over the basis.
    pub delay_coeffs: Vec<f64>,
    /// Transition-ratio coefficients over the basis.
    pub trans_coeffs: Vec<f64>,
    /// Goodness of fit on the sampled surface.
    pub delay_r2: f64,
    /// Goodness of fit of the transition surface.
    pub trans_r2: f64,
    /// The `(u₁, v, w)` sampling box the fit covered.
    pub domain: ((f64, f64), (f64, f64), (f64, f64)),
}

fn dual_basis(x: f64, y: f64, w: f64) -> Vec<f64> {
    vec![1.0, x, y, w, w * w, x * w, y * w, x * y, x * x, y * y]
}

impl AnalyticDual {
    /// Fits the closed form by sampling the table model over a dense grid
    /// inside `domain` (`samples` per axis).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Table`] if the fit is under-determined.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 3` or a domain bound is non-positive where
    /// positivity is required.
    pub fn fit(
        table: &DualInputModel,
        domain: ((f64, f64), (f64, f64), (f64, f64)),
        samples: usize,
    ) -> Result<Self, ModelError> {
        assert!(samples >= 3, "need at least 3 samples per axis");
        let ((u_lo, u_hi), (v_lo, v_hi), (w_lo, w_hi)) = domain;
        assert!(u_lo > 0.0 && v_lo > 0.0, "u and v domains must be positive");

        let mut rows = Vec::new();
        let mut d_vals = Vec::new();
        let mut t_vals = Vec::new();
        for &u in &linspace(u_lo.ln(), u_hi.ln(), samples) {
            for &v in &linspace(v_lo.ln(), v_hi.ln(), samples) {
                for &w in &linspace(w_lo, w_hi, samples) {
                    rows.push(dual_basis(u, v, w));
                    d_vals.push(table.delay_ratio_raw(u.exp(), v.exp(), w));
                    t_vals.push(table.trans_ratio(u.exp(), v.exp(), w));
                }
            }
        }
        let dc = lstsq(&rows, &d_vals).map_err(|e| ModelError::Table(e.to_string()))?;
        let tc = lstsq(&rows, &t_vals).map_err(|e| ModelError::Table(e.to_string()))?;
        let predict = |c: &[f64]| -> Vec<f64> {
            rows.iter()
                .map(|r| r.iter().zip(c).map(|(a, b)| a * b).sum())
                .collect()
        };
        Ok(Self {
            pin: table.pin,
            delay_r2: r_squared(&d_vals, &predict(&dc)),
            trans_r2: r_squared(&t_vals, &predict(&tc)),
            delay_coeffs: dc,
            trans_coeffs: tc,
            domain,
        })
    }

    fn eval(&self, coeffs: &[f64], u1: f64, v: f64, w: f64) -> f64 {
        let ((u_lo, u_hi), (v_lo, v_hi), (w_lo, w_hi)) = self.domain;
        let x = u1.clamp(u_lo, u_hi).ln();
        let y = v.clamp(v_lo, v_hi).ln();
        let w = w.clamp(w_lo, w_hi);
        dual_basis(x, y, w)
            .iter()
            .zip(coeffs)
            .map(|(b, c)| b * c)
            .sum()
    }

    /// Closed-form `D⁽²⁾`, clamped to 1 outside the OR-like window.
    pub fn delay_ratio(&self, u1: f64, v: f64, w: f64) -> f64 {
        if w >= 1.0 {
            1.0
        } else {
            self.eval(&self.delay_coeffs, u1, v, w)
        }
    }

    /// Closed-form `T⁽²⁾`.
    pub fn trans_ratio(&self, u1: f64, v: f64, w: f64) -> f64 {
        self.eval(&self.trans_coeffs, u1, v, w)
    }

    /// Number of stored coefficients.
    pub fn coefficient_count(&self) -> usize {
        self.delay_coeffs.len() + self.trans_coeffs.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::characterize::Simulator;
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};
    use proxim_numeric::pwl::Edge;

    fn single_table() -> (SingleInputModel, Technology, Cell) {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let sim = Simulator::new(&cell, &tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1);
        let m = SingleInputModel::characterize(
            &sim,
            0,
            Edge::Rising,
            &[100e-12, 250e-12, 600e-12, 1500e-12],
        )
        .unwrap();
        (m, tech, cell)
    }

    #[test]
    fn single_fit_is_nearly_exact() {
        // The Level-1 substrate produces an almost perfectly linear
        // delay-vs-u law, so the two-coefficient fit should have R² ≈ 1.
        let (table, _, _) = single_table();
        let a = AnalyticSingle::fit(&table).unwrap();
        assert!(a.delay_r2 > 0.98, "delay R² = {}", a.delay_r2);
        assert!(a.trans_r2 > 0.9, "trans R² = {}", a.trans_r2);
        // Agreement with the table inside the characterized range.
        for tau in [120e-12, 400e-12, 1200e-12] {
            let t = table.delay(tau, 100e-15);
            let f = a.delay(tau, 100e-15);
            assert!((t - f).abs() / t < 0.06, "tau {tau}: table {t} vs fit {f}");
        }
        assert_eq!(a.coefficient_count(), 4);
    }

    #[test]
    fn single_fit_extrapolates_sanely() {
        let (table, _, _) = single_table();
        let a = AnalyticSingle::fit(&table).unwrap();
        // Unlike the clamped table, the closed form keeps its slope outside
        // the grid; it must stay positive and monotone in c_load there.
        let d1 = a.delay(2500e-12, 100e-15);
        let d2 = a.delay(2500e-12, 200e-15);
        assert!(d1 > 0.0 && d2 > d1);
    }

    #[test]
    fn dual_fit_reproduces_surface_reasonably() {
        let (single, tech, cell) = single_table();
        let sim = Simulator::new(&cell, &tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1);
        let table = crate::dual::tests::characterize(
            &sim,
            &single,
            1,
            &[0.3, 1.0, 4.0],
            &[0.3, 1.0, 4.0],
            &[-1.5, -0.5, 0.25, 1.0],
        )
        .unwrap();
        let a = AnalyticDual::fit(&table, ((0.3, 4.0), (0.3, 4.0), (-1.5, 1.0)), 5).unwrap();
        assert!(a.delay_r2 > 0.85, "delay R² = {}", a.delay_r2);
        // Window clamping carried over.
        assert_eq!(a.delay_ratio(1.0, 1.0, 1.5), 1.0);
        // Storage reduction vs the table (at production grids the factor
        // exceeds 100x: 20 coefficients vs 2 x 8 x 8 x 21 entries).
        assert!(a.coefficient_count() < table.table_len());
    }
}
