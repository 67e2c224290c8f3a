//! Interpolation tables for characterized macromodels.
//!
//! The paper's macromodels are functions of one normalized argument (the
//! single-input model, eq. 3.7/3.8) or three normalized arguments (the
//! dual-input proximity model, eq. 3.11/3.12). Both are represented here as
//! dense tables over rectilinear grids with multilinear interpolation and
//! clamped extrapolation — the standard representation in cell
//! characterization flows.

use crate::grid::{cell_weight, locate};
use proxim_obs::json::{FromJson, ToJson};
use std::fmt;

/// The error returned when a table is built from inconsistent data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildTableError {
    what: String,
}

impl BuildTableError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for BuildTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid interpolation table: {}", self.what)
    }
}

impl std::error::Error for BuildTableError {}

/// Shared bounds-and-finiteness guard behind the `set_value` methods.
fn set_checked(values: &mut [f64], idx: usize, value: f64) -> Result<(), BuildTableError> {
    if idx >= values.len() {
        return Err(BuildTableError::new(format!(
            "value index {idx} out of range for {} entries",
            values.len()
        )));
    }
    if !value.is_finite() {
        return Err(BuildTableError::new(format!(
            "replacement value at index {idx} is non-finite"
        )));
    }
    values[idx] = value;
    Ok(())
}

fn check_axis(name: &str, axis: &[f64]) -> Result<(), BuildTableError> {
    if axis.len() < 2 {
        return Err(BuildTableError::new(format!(
            "axis {name} needs >= 2 points"
        )));
    }
    if axis.iter().any(|v| !v.is_finite()) {
        return Err(BuildTableError::new(format!(
            "axis {name} contains non-finite values"
        )));
    }
    if axis.windows(2).any(|w| w[1] <= w[0]) {
        return Err(BuildTableError::new(format!(
            "axis {name} must be strictly increasing"
        )));
    }
    Ok(())
}

/// A 1-D lookup table with linear interpolation and clamped extrapolation.
///
/// # Example
///
/// ```
/// use proxim_numeric::Table1d;
///
/// let t = Table1d::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.eval(-3.0), 0.0); // clamped
/// # Ok::<(), proxim_numeric::interp::BuildTableError>(())
/// ```
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Table1d {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Table1d {
    /// Builds a table from sample points.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] if the axis is not strictly increasing,
    /// has fewer than two points, or lengths mismatch.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, BuildTableError> {
        check_axis("x", &xs)?;
        if xs.len() != ys.len() {
            return Err(BuildTableError::new("xs and ys must have equal length"));
        }
        if ys.iter().any(|v| !v.is_finite()) {
            return Err(BuildTableError::new("values contain non-finite entries"));
        }
        Ok(Self { xs, ys })
    }

    /// The sample abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The sample values.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Evaluates the table at `x` with clamped linear interpolation.
    pub fn eval(&self, x: f64) -> f64 {
        let i = locate(&self.xs, x);
        let w = cell_weight(&self.xs, i, x);
        self.ys[i] * (1.0 - w) + self.ys[i + 1] * w
    }

    /// Overwrites the stored sample at `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] if `idx` is out of range or `value` is
    /// non-finite; the table is left unchanged.
    pub fn set_value(&mut self, idx: usize, value: f64) -> Result<(), BuildTableError> {
        set_checked(&mut self.ys, idx, value)
    }

    /// Re-runs the construction checks of [`Self::new`] on the current
    /// contents. Serde deserialization fills the fields directly, so a table
    /// decoded from untrusted bytes must be validated before use.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), BuildTableError> {
        Self::new(self.xs.clone(), self.ys.clone()).map(|_| ())
    }
}

/// A 2-D lookup table with bilinear interpolation and clamped extrapolation.
///
/// Used for load–slew (NLDM-style) delay surfaces, where the axes are the
/// input transition time and the output load.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Table2d {
    ax: Vec<f64>,
    ay: Vec<f64>,
    /// Row-major: `values[ix * ay.len() + iy]`.
    values: Vec<f64>,
}

impl Table2d {
    /// Builds a table from two axes and a row-major value array of shape
    /// `(ax.len(), ay.len())`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] on non-monotone axes or a value array of
    /// the wrong size.
    pub fn new(ax: Vec<f64>, ay: Vec<f64>, values: Vec<f64>) -> Result<Self, BuildTableError> {
        check_axis("x", &ax)?;
        check_axis("y", &ay)?;
        if values.len() != ax.len() * ay.len() {
            return Err(BuildTableError::new(format!(
                "value array has {} entries, expected {}",
                values.len(),
                ax.len() * ay.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(BuildTableError::new("values contain non-finite entries"));
        }
        Ok(Self { ax, ay, values })
    }

    /// Builds the value array by evaluating `f` over the grid.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] on invalid axes or if `f` produces a
    /// non-finite value.
    pub fn tabulate(
        ax: Vec<f64>,
        ay: Vec<f64>,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, BuildTableError> {
        let mut values = Vec::with_capacity(ax.len() * ay.len());
        for &x in &ax {
            for &y in &ay {
                values.push(f(x, y));
            }
        }
        Self::new(ax, ay, values)
    }

    /// The first axis.
    pub fn ax(&self) -> &[f64] {
        &self.ax
    }

    /// The second axis.
    pub fn ay(&self) -> &[f64] {
        &self.ay
    }

    #[inline]
    fn at(&self, ix: usize, iy: usize) -> f64 {
        self.values[ix * self.ay.len() + iy]
    }

    /// Evaluates the table at `(x, y)` with clamped bilinear interpolation.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let ix = locate(&self.ax, x);
        let iy = locate(&self.ay, y);
        let wx = cell_weight(&self.ax, ix, x);
        let wy = cell_weight(&self.ay, iy, y);
        let c0 = self.at(ix, iy) * (1.0 - wx) + self.at(ix + 1, iy) * wx;
        let c1 = self.at(ix, iy + 1) * (1.0 - wx) + self.at(ix + 1, iy + 1) * wx;
        c0 * (1.0 - wy) + c1 * wy
    }

    /// Total number of stored samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table stores no samples (never true for a valid table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The row-major value array (`values[ix * ay.len() + iy]`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the stored sample at row-major index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] if `idx` is out of range or `value` is
    /// non-finite; the table is left unchanged.
    pub fn set_value(&mut self, idx: usize, value: f64) -> Result<(), BuildTableError> {
        set_checked(&mut self.values, idx, value)
    }

    /// Re-runs the construction checks of [`Self::new`] on the current
    /// contents (see [`Table1d::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), BuildTableError> {
        Self::new(self.ax.clone(), self.ay.clone(), self.values.clone()).map(|_| ())
    }
}

/// A 3-D lookup table with trilinear interpolation and clamped extrapolation.
///
/// Axes are named after their use in the dual-input proximity model
/// (eq. 3.11): `u = tau_i / d1`, `v = tau_j / d1`, `w = s_ij / d1`, but the
/// type is agnostic to that interpretation.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Table3d {
    ax: Vec<f64>,
    ay: Vec<f64>,
    az: Vec<f64>,
    /// Row-major: `values[(ix * ay.len() + iy) * az.len() + iz]`.
    values: Vec<f64>,
}

impl Table3d {
    /// Builds a table from three axes and a row-major value array of shape
    /// `(ax.len(), ay.len(), az.len())`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] on non-monotone axes or a value array of
    /// the wrong size.
    pub fn new(
        ax: Vec<f64>,
        ay: Vec<f64>,
        az: Vec<f64>,
        values: Vec<f64>,
    ) -> Result<Self, BuildTableError> {
        check_axis("x", &ax)?;
        check_axis("y", &ay)?;
        check_axis("z", &az)?;
        if values.len() != ax.len() * ay.len() * az.len() {
            return Err(BuildTableError::new(format!(
                "value array has {} entries, expected {}",
                values.len(),
                ax.len() * ay.len() * az.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(BuildTableError::new("values contain non-finite entries"));
        }
        Ok(Self { ax, ay, az, values })
    }

    /// Builds the value array by evaluating `f` over the grid.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] on invalid axes or if `f` produces a
    /// non-finite value.
    pub fn tabulate(
        ax: Vec<f64>,
        ay: Vec<f64>,
        az: Vec<f64>,
        mut f: impl FnMut(f64, f64, f64) -> f64,
    ) -> Result<Self, BuildTableError> {
        let mut values = Vec::with_capacity(ax.len() * ay.len() * az.len());
        for &x in &ax {
            for &y in &ay {
                for &z in &az {
                    values.push(f(x, y, z));
                }
            }
        }
        Self::new(ax, ay, az, values)
    }

    /// The first axis.
    pub fn ax(&self) -> &[f64] {
        &self.ax
    }

    /// The second axis.
    pub fn ay(&self) -> &[f64] {
        &self.ay
    }

    /// The third axis.
    pub fn az(&self) -> &[f64] {
        &self.az
    }

    #[inline]
    fn at(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        self.values[(ix * self.ay.len() + iy) * self.az.len() + iz]
    }

    /// Evaluates the table at `(x, y, z)` with clamped trilinear
    /// interpolation.
    pub fn eval(&self, x: f64, y: f64, z: f64) -> f64 {
        let ix = locate(&self.ax, x);
        let iy = locate(&self.ay, y);
        let iz = locate(&self.az, z);
        let wx = cell_weight(&self.ax, ix, x);
        let wy = cell_weight(&self.ay, iy, y);
        let wz = cell_weight(&self.az, iz, z);

        let c00 = self.at(ix, iy, iz) * (1.0 - wx) + self.at(ix + 1, iy, iz) * wx;
        let c01 = self.at(ix, iy, iz + 1) * (1.0 - wx) + self.at(ix + 1, iy, iz + 1) * wx;
        let c10 = self.at(ix, iy + 1, iz) * (1.0 - wx) + self.at(ix + 1, iy + 1, iz) * wx;
        let c11 = self.at(ix, iy + 1, iz + 1) * (1.0 - wx) + self.at(ix + 1, iy + 1, iz + 1) * wx;

        let c0 = c00 * (1.0 - wy) + c10 * wy;
        let c1 = c01 * (1.0 - wy) + c11 * wy;
        c0 * (1.0 - wz) + c1 * wz
    }

    /// Total number of stored samples — the table's storage cost.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table stores no samples (never true for a valid table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The row-major value array
    /// (`values[(ix * ay.len() + iy) * az.len() + iz]`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the stored sample at row-major index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] if `idx` is out of range or `value` is
    /// non-finite; the table is left unchanged.
    pub fn set_value(&mut self, idx: usize, value: f64) -> Result<(), BuildTableError> {
        set_checked(&mut self.values, idx, value)
    }

    /// Re-runs the construction checks of [`Self::new`] on the current
    /// contents (see [`Table1d::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), BuildTableError> {
        Self::new(
            self.ax.clone(),
            self.ay.clone(),
            self.az.clone(),
            self.values.clone(),
        )
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1d_interpolates_and_clamps() {
        let t = Table1d::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 6.0]).unwrap();
        assert_eq!(t.eval(0.5), 1.0);
        assert_eq!(t.eval(2.0), 4.0);
        assert_eq!(t.eval(-1.0), 0.0);
        assert_eq!(t.eval(10.0), 6.0);
    }

    #[test]
    fn table1d_hits_knots_exactly() {
        let t = Table1d::new(vec![0.0, 0.3, 0.9], vec![1.0, -2.0, 4.0]).unwrap();
        assert_eq!(t.eval(0.3), -2.0);
        assert_eq!(t.eval(0.9), 4.0);
    }

    #[test]
    fn table1d_rejects_bad_axes() {
        assert!(Table1d::new(vec![0.0], vec![1.0]).is_err());
        assert!(Table1d::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Table1d::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Table1d::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(Table1d::new(vec![0.0, 1.0], vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn table2d_reproduces_bilinear_function_exactly() {
        let f = |x: f64, y: f64| 3.0 * x - 2.0 * y + 1.0;
        let t = Table2d::tabulate(vec![0.0, 1.0, 2.0], vec![-1.0, 0.5, 2.0], f).unwrap();
        for &(x, y) in &[(0.3, 0.0), (1.7, 1.2), (0.0, -1.0), (2.0, 2.0)] {
            assert!((t.eval(x, y) - f(x, y)).abs() < 1e-12, "at ({x},{y})");
        }
    }

    #[test]
    fn table2d_clamps_outside_grid() {
        let t = Table2d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], |x, y| x + y).unwrap();
        assert_eq!(t.eval(-3.0, 0.5), 0.5);
        assert_eq!(t.eval(0.5, 9.0), 1.5);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn table2d_rejects_wrong_value_count() {
        let err = Table2d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]).unwrap_err();
        assert!(err.to_string().contains("expected 4"));
    }

    #[test]
    fn table3d_reproduces_trilinear_function_exactly() {
        // f(x,y,z) = 2x + 3y - z + 0.5 is multilinear, so trilinear
        // interpolation must reproduce it exactly inside the grid.
        let f = |x: f64, y: f64, z: f64| 2.0 * x + 3.0 * y - z + 0.5;
        let t = Table3d::tabulate(vec![0.0, 1.0, 2.0], vec![-1.0, 0.0, 1.0], vec![0.0, 2.0], f)
            .unwrap();
        for &(x, y, z) in &[(0.25, -0.5, 0.7), (1.9, 0.99, 1.3), (0.0, -1.0, 0.0)] {
            assert!(
                (t.eval(x, y, z) - f(x, y, z)).abs() < 1e-12,
                "at ({x},{y},{z})"
            );
        }
    }

    #[test]
    fn table3d_clamps_outside_grid() {
        let t =
            Table3d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0], |x, _, _| x).unwrap();
        assert_eq!(t.eval(-5.0, 0.5, 0.5), 0.0);
        assert_eq!(t.eval(5.0, 0.5, 0.5), 1.0);
    }

    #[test]
    fn table3d_rejects_wrong_value_count() {
        let err =
            Table3d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 7]).unwrap_err();
        assert!(err.to_string().contains("expected 8"));
    }

    #[test]
    fn table3d_len_reports_storage() {
        let t = Table3d::tabulate(
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            |_, _, _| 0.0,
        )
        .unwrap();
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
    }

    #[test]
    fn set_value_patches_in_place_and_rejects_bad_input() {
        let mut t = Table1d::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 6.0]).unwrap();
        t.set_value(1, 4.0).unwrap();
        assert_eq!(t.eval(1.0), 4.0);
        assert!(t.set_value(3, 1.0).is_err());
        assert!(t.set_value(0, f64::NAN).is_err());
        assert_eq!(t.eval(0.0), 0.0, "failed set must leave table unchanged");

        let mut t2 = Table2d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], |x, y| x + y).unwrap();
        t2.set_value(3, -7.0).unwrap();
        assert_eq!(t2.eval(1.0, 1.0), -7.0);
        assert!(t2.set_value(4, 0.0).is_err());

        let mut t3 =
            Table3d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0], |_, _, _| {
                1.0
            })
            .unwrap();
        t3.set_value(0, 9.0).unwrap();
        assert_eq!(t3.eval(0.0, 0.0, 0.0), 9.0);
        assert!(t3.set_value(0, f64::INFINITY).is_err());
    }

    #[test]
    fn validate_catches_deserialized_corruption() {
        // Decoding fills fields directly, so it can construct states
        // new() would reject; validate() must catch them after the fact.
        let good: Table1d =
            proxim_obs::json::from_str(r#"{"xs":[0.0,1.0],"ys":[1.0,2.0]}"#).unwrap();
        assert!(good.validate().is_ok());
        let bad_axis: Table1d =
            proxim_obs::json::from_str(r#"{"xs":[1.0,0.0],"ys":[1.0,2.0]}"#).unwrap();
        assert!(bad_axis.validate().is_err());
        let bad_shape: Table2d =
            proxim_obs::json::from_str(r#"{"ax":[0.0,1.0],"ay":[0.0,1.0],"values":[0.0]}"#)
                .unwrap();
        assert!(bad_shape.validate().is_err());
        let t3 = Table3d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0], |_, _, _| {
            0.5
        })
        .unwrap();
        assert!(t3.validate().is_ok());
    }

    #[test]
    fn table3d_corner_values_exact() {
        let t = Table3d::tabulate(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0], |x, y, z| {
            x * 100.0 + y * 10.0 + z
        })
        .unwrap();
        assert_eq!(t.eval(1.0, 0.0, 1.0), 101.0);
        assert_eq!(t.eval(0.0, 1.0, 0.0), 10.0);
    }
}
