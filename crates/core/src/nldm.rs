//! Load–slew (NLDM-style) single-input tables.
//!
//! The paper's dimensionless single-input form (eq. 3.7) holds at a fixed
//! load: the internal junction-to-load capacitance ratio is a further
//! dimensionless group it neglects, so a model characterized at 100 fF errs
//! when queried at a few-fF fanout net (see EXPERIMENTS.md, path
//! validation). The industry answer — and the natural content of the
//! paper's "comprehensive delay model" future work (§7) — is a 2-D table
//! over *(input transition time, output load)*. [`LoadSlewModel`]
//! characterizes exactly that, on log-spaced axes with bilinear
//! interpolation in the log domain.

use crate::characterize::Simulator;
use crate::error::ModelError;
use crate::jobs::{execute_jobs, first_error, JobOutcome, SimJob};
use crate::measure::InputEvent;
use proxim_numeric::pwl::Edge;
use proxim_numeric::Table2d;
use proxim_obs::json::{FromJson, ToJson};

/// A characterized load–slew delay/transition surface for one
/// `(pin, input edge)`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct LoadSlewModel {
    /// The input pin.
    pub pin: usize,
    /// The input transition direction.
    pub input_edge: Edge,
    /// The output transition direction it produces.
    pub output_edge: Edge,
    /// Delay surface over `(ln τ, ln C_L)`, in seconds.
    delay: Table2d,
    /// Output-transition-time surface over `(ln τ, ln C_L)`, in seconds.
    trans: Table2d,
    /// Characterized τ bounds.
    tau_range: (f64, f64),
    /// Characterized load bounds.
    load_range: (f64, f64),
}

impl LoadSlewModel {
    /// Characterizes the surface: one transient per `(τ, load)` grid point.
    ///
    /// The simulator's own `c_load` is ignored; each column runs at its
    /// grid load.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on simulation failure or degenerate grids.
    pub fn characterize(
        sim: &Simulator<'_>,
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
        load_grid: &[f64],
    ) -> Result<Self, ModelError> {
        let jobs = Self::enumerate(pin, input_edge, tau_grid, load_grid)?;
        let batch = execute_jobs(sim, &jobs, 1);
        Self::assemble(
            pin,
            input_edge,
            tau_grid,
            load_grid,
            &first_error(&batch.outcomes)?,
        )
    }

    /// Enumerates the `(τ, load)` grid as independent simulation jobs in
    /// row-major order (τ outermost), each with its own load override.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Table`] on degenerate grids.
    pub fn enumerate(
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
        load_grid: &[f64],
    ) -> Result<Vec<SimJob>, ModelError> {
        if tau_grid.len() < 2 || load_grid.len() < 2 {
            return Err(ModelError::Table(
                "load-slew grids need >= 2 points per axis".into(),
            ));
        }
        let mut jobs = Vec::with_capacity(tau_grid.len() * load_grid.len());
        for &tau in tau_grid {
            for &c in load_grid {
                jobs.push(SimJob::events_at_load(
                    vec![InputEvent::new(pin, input_edge, 0.0, tau)],
                    c,
                ));
            }
        }
        Ok(jobs)
    }

    /// Builds the surface from executed job outcomes in enumeration order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on degenerate grids.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count does not match the enumeration.
    pub fn assemble(
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
        load_grid: &[f64],
        outcomes: &[&JobOutcome],
    ) -> Result<Self, ModelError> {
        let expected = tau_grid.len() * load_grid.len();
        assert_eq!(outcomes.len(), expected, "one outcome per grid point");
        let mut delays = Vec::with_capacity(expected);
        let mut transs = Vec::with_capacity(expected);
        let mut output_edge = None;
        for outcome in outcomes {
            let JobOutcome::Response {
                output_edge: oe,
                delay,
                trans,
                ..
            } = outcome
            else {
                return Err(match outcome.failure() {
                    Some(e) => e.clone(),
                    None => ModelError::Table("load-slew assembly expects events responses".into()),
                });
            };
            output_edge = Some(*oe);
            delays.push(*delay);
            transs.push(*trans);
        }
        let Some(output_edge) = output_edge else {
            return Err(ModelError::Table("load-slew grids produced no rows".into()));
        };
        let ln_tau: Vec<f64> = tau_grid.iter().map(|t| t.ln()).collect();
        let ln_load: Vec<f64> = load_grid.iter().map(|c| c.ln()).collect();
        Ok(Self {
            pin,
            input_edge,
            output_edge,
            delay: Table2d::new(ln_tau.clone(), ln_load.clone(), delays)?,
            trans: Table2d::new(ln_tau, ln_load, transs)?,
            // Both grids were validated to hold at least two points.
            tau_range: (tau_grid[0], tau_grid[tau_grid.len() - 1]),
            load_range: (load_grid[0], load_grid[load_grid.len() - 1]),
        })
    }

    /// The single-input delay at `(tau, c_load)`, clamped to the
    /// characterized box.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `c_load` is not strictly positive.
    pub fn delay(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0 && c_load > 0.0, "tau and load must be positive");
        self.delay.eval(tau.ln(), c_load.ln())
    }

    /// The output transition time at `(tau, c_load)`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `c_load` is not strictly positive.
    pub fn transition(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0 && c_load > 0.0, "tau and load must be positive");
        self.trans.eval(tau.ln(), c_load.ln())
    }

    /// The characterized τ bounds.
    pub fn tau_range(&self) -> (f64, f64) {
        self.tau_range
    }

    /// The characterized load bounds.
    pub fn load_range(&self) -> (f64, f64) {
        self.load_range
    }

    /// Storage cost in table entries.
    pub fn table_len(&self) -> usize {
        self.delay.len() + self.trans.len()
    }

    /// Audit access: the `(delay, transition)` surfaces.
    pub(crate) fn tables(&self) -> (&Table2d, &Table2d) {
        (&self.delay, &self.trans)
    }

    /// Audit repair access: the `(delay, transition)` surfaces, mutably.
    pub(crate) fn tables_mut(&mut self) -> (&mut Table2d, &mut Table2d) {
        (&mut self.delay, &mut self.trans)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};
    use proxim_numeric::grid::logspace;

    fn setup() -> (Cell, Technology, Thresholds) {
        (
            Cell::nand(2),
            Technology::demo_5v(),
            Thresholds::new(1.8, 3.78, 5.0),
        )
    }

    #[test]
    fn surface_reproduces_grid_points_and_interpolates() {
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let tau_grid = logspace(100e-12, 1500e-12, 3);
        let load_grid = logspace(10e-15, 200e-15, 3);
        let m = LoadSlewModel::characterize(&sim, 0, Edge::Rising, &tau_grid, &load_grid).unwrap();
        assert_eq!(m.output_edge, Edge::Falling);
        assert_eq!(m.table_len(), 18);

        // Exact at a grid point.
        let pass = Simulator {
            c_load: load_grid[1],
            ..sim.clone()
        };
        let r = pass
            .simulate(&[InputEvent::new(0, Edge::Rising, 0.0, tau_grid[1])])
            .unwrap();
        let d_sim = r.delay_from(0, &th).unwrap();
        assert!((m.delay(tau_grid[1], load_grid[1]) - d_sim).abs() / d_sim < 1e-9);

        // Monotone in load and in tau at fixed other coordinate.
        assert!(m.delay(400e-12, 150e-15) > m.delay(400e-12, 20e-15));
        assert!(m.delay(1200e-12, 50e-15) > m.delay(150e-12, 50e-15));
    }

    #[test]
    fn load_slew_beats_fixed_load_model_off_reference() {
        // The motivating case: query at a small fanout-like load, far from
        // the 100 fF the 1-D dimensionless model was characterized at.
        use crate::single::SingleInputModel;
        let (cell, tech, th) = setup();
        let sim = Simulator::new(&cell, &tech, th, 100e-15, 0.08);
        let tau_grid = logspace(100e-12, 1500e-12, 4);
        let one_d = SingleInputModel::characterize(&sim, 0, Edge::Rising, &tau_grid).unwrap();
        let two_d = LoadSlewModel::characterize(
            &sim,
            0,
            Edge::Rising,
            &tau_grid,
            &logspace(8e-15, 250e-15, 4),
        )
        .unwrap();

        let (tau, c_small) = (600e-12, 15e-15);
        let pass = Simulator {
            c_load: c_small,
            ..sim.clone()
        };
        let r = pass
            .simulate(&[InputEvent::new(0, Edge::Rising, 0.0, tau)])
            .unwrap();
        let d_sim = r.delay_from(0, &th).unwrap();

        let err_1d = (one_d.delay(tau, c_small) - d_sim).abs() / d_sim;
        let err_2d = (two_d.delay(tau, c_small) - d_sim).abs() / d_sim;
        assert!(
            err_2d < err_1d,
            "2-D should beat the fixed-load form off-reference: {err_2d} vs {err_1d}"
        );
        assert!(err_2d < 0.05, "2-D error at small load: {err_2d}");
    }
}
