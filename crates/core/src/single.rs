//! Single-input macromodels (§3, eqs. 3.7/3.8).
//!
//! With one switching input, dimensional analysis reduces delay and output
//! transition time to one-argument functions of the dimensionless load
//! `u = C_L / (K V_dd τ)`:
//!
//! ```text
//! Δ⁽¹⁾ / τ = D⁽¹⁾(u)        τ_out⁽¹⁾ / τ = T⁽¹⁾(u)
//! ```
//!
//! `K` is the strength of the network that drives the output transition:
//! the pull-down strength `K_n` for a falling output, the pull-up strength
//! `K_p` for a rising one. The tables are characterized at one load and, by
//! the dimensional argument, remain valid across loads and transition times
//! within the covered `u` range (clamped outside).

use crate::characterize::Simulator;
use crate::error::ModelError;
use crate::jobs::{execute_jobs, first_error, JobOutcome, SimJob};
use crate::measure::InputEvent;
use proxim_numeric::pwl::Edge;
use proxim_numeric::rootfind::brent;
use proxim_numeric::Table1d;
use proxim_obs::json::{FromJson, ToJson};

/// A characterized single-input macromodel for one `(pin, input edge)`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct SingleInputModel {
    /// The input pin this model describes.
    pub pin: usize,
    /// The input transition direction.
    pub input_edge: Edge,
    /// The output transition direction it produces.
    pub output_edge: Edge,
    /// Driving-network strength `K`, in A/V².
    pub k: f64,
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// `D⁽¹⁾`: normalized delay vs. `u`.
    delay_table: Table1d,
    /// `T⁽¹⁾`: normalized output transition time vs. `u`.
    trans_table: Table1d,
    /// The τ range covered during characterization at the reference load.
    tau_range: (f64, f64),
    /// The load the τ grid was characterized at (defines the u coverage).
    c_ref: f64,
    /// Ratio of the real 5–95 % edge time to the linear extrapolation of
    /// the `V_il`–`V_ih` time. Real gate edges have slow tails near the
    /// rails; a downstream stage sees that tail as extra fighting current,
    /// so full-swing ramp reconstruction (in netlist timing) must stretch
    /// by this factor.
    tail_factor: f64,
}

impl SingleInputModel {
    /// Characterizes the model for `pin`/`input_edge` by sweeping the τ grid
    /// on the simulator's reference load.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on simulation failure or a degenerate grid.
    pub fn characterize(
        sim: &Simulator<'_>,
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
    ) -> Result<Self, ModelError> {
        let jobs = Self::enumerate(pin, input_edge, tau_grid)?;
        let batch = execute_jobs(sim, &jobs, 1);
        Self::assemble(
            sim,
            pin,
            input_edge,
            tau_grid,
            &first_error(&batch.outcomes)?,
        )
    }

    /// Enumerates the characterization grid as independent simulation jobs,
    /// one per τ point (see [`crate::jobs`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Table`] on a degenerate grid.
    pub fn enumerate(
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
    ) -> Result<Vec<SimJob>, ModelError> {
        if tau_grid.len() < 2 {
            return Err(ModelError::Table(
                "tau grid needs at least two points".into(),
            ));
        }
        Ok(tau_grid
            .iter()
            .map(|&tau| SimJob::events_wide(vec![InputEvent::new(pin, input_edge, 0.0, tau)]))
            .collect())
    }

    /// Builds the model from executed job outcomes, in the exact order
    /// [`SingleInputModel::enumerate`] produced them.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if a table cannot be built or an outcome is
    /// not the events response the enumeration produced.
    ///
    /// # Panics
    ///
    /// Panics if the outcome count does not match the enumeration.
    pub fn assemble(
        sim: &Simulator<'_>,
        pin: usize,
        input_edge: Edge,
        tau_grid: &[f64],
        outcomes: &[&JobOutcome],
    ) -> Result<Self, ModelError> {
        assert_eq!(outcomes.len(), tau_grid.len(), "one outcome per tau point");
        let th = sim.thresholds;
        let vdd = sim.tech.vdd;
        let frac_span = (th.v_ih - th.v_il) / vdd;
        // Note the paper's dimensionless form (3.7) holds at a fixed load:
        // the internal junction-to-load capacitance ratio is a further
        // dimensionless group the form neglects, so points from different
        // loads do NOT merge onto one curve once C_L approaches the
        // parasitics. Characterize at (and query near) a representative
        // load; netlist flows should pick `c_load` close to their actual
        // fanout loading.
        let mut rows: Vec<(f64, f64, f64, f64)> = Vec::with_capacity(tau_grid.len());
        let mut output_edge = None;
        let mut tail_factors = Vec::with_capacity(tau_grid.len());

        for (&tau, outcome) in tau_grid.iter().zip(outcomes) {
            let JobOutcome::Response {
                output_edge: oe,
                delay,
                trans,
                wide,
            } = outcome
            else {
                return Err(match outcome.failure() {
                    Some(e) => e.clone(),
                    None => {
                        ModelError::Table("single-input assembly expects events responses".into())
                    }
                });
            };
            output_edge = Some(*oe);
            rows.push((sim.c_load, tau, *delay, *trans));
            // The wide (5-95 % of swing) edge time vs. the linear
            // extrapolation of the threshold-to-threshold time.
            if let Some(t_wide) = wide {
                let t_lin = 0.9 * trans / frac_span;
                if t_lin > 0.0 {
                    tail_factors.push(t_wide / t_lin);
                }
            }
        }
        let Some(output_edge) = output_edge else {
            return Err(ModelError::Table("tau grid produced no rows".into()));
        };
        let tail_factor = if tail_factors.is_empty() {
            1.0
        } else {
            tail_factors.iter().sum::<f64>() / tail_factors.len() as f64
        };
        let k = match output_edge {
            Edge::Falling => sim.tech.k_n(sim.cell.wn()),
            Edge::Rising => sim.tech.k_p(sim.cell.wp()),
        };

        // u decreases with tau; sort ascending in u for the table. The
        // abscissa stays linear in u deliberately: u is proportional to
        // C/τ, so linear interpolation of Δ/τ against u makes Δ(τ)
        // piecewise-linear in τ — the intrinsic-plus-slope shape a gate
        // delay actually has.
        let mut pts: Vec<(f64, f64, f64)> = rows
            .iter()
            .map(|&(c, tau, d, t)| (c / (k * vdd * tau), d / tau, t / tau))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        // The two passes can produce near-identical u values; keep the axis
        // strictly increasing for the table.
        pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-12 * b.0.abs().max(1e-300));
        let us: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ds: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let ts: Vec<f64> = pts.iter().map(|p| p.2).collect();

        Ok(Self {
            pin,
            input_edge,
            output_edge,
            k,
            vdd,
            delay_table: Table1d::new(us.clone(), ds)?,
            trans_table: Table1d::new(us, ts)?,
            tau_range: (
                tau_grid.iter().copied().fold(f64::INFINITY, f64::min),
                tau_grid.iter().copied().fold(0.0, f64::max),
            ),
            c_ref: sim.c_load,
            tail_factor,
        })
    }

    /// The characterized edge tail factor: how much longer the real 5-95 %
    /// output edge is than the linear extrapolation of the threshold span
    /// (≥ 1 for realistic edges).
    pub fn tail_factor(&self) -> f64 {
        self.tail_factor
    }

    /// The dimensionless load `u = C_L / (K V_dd τ)`.
    pub fn u(&self, tau: f64, c_load: f64) -> f64 {
        c_load / (self.k * self.vdd * tau)
    }

    /// The single-input delay `Δ⁽¹⁾` for transition time `tau` and load
    /// `c_load` (eq. 3.7).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn delay(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0, "transition time must be positive");
        tau * self.delay_table.eval(self.u(tau, c_load))
    }

    /// The single-input output transition time `τ_out⁽¹⁾` (eq. 3.8).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn transition(&self, tau: f64, c_load: f64) -> f64 {
        assert!(tau > 0.0, "transition time must be positive");
        tau * self.trans_table.eval(self.u(tau, c_load))
    }

    /// Inverts `τ / Δ⁽¹⁾(τ) = ratio` for `τ` at the given load — used to
    /// place dual-input characterization points on an exact normalized grid.
    ///
    /// The ratio is monotone increasing in τ; out-of-range ratios clamp to
    /// the characterized τ bounds.
    pub fn tau_for_ratio(&self, ratio: f64, c_load: f64) -> f64 {
        let (lo, hi) = self.tau_range;
        let g = |tau: f64| tau / self.delay(tau, c_load) - ratio;
        if g(lo) >= 0.0 {
            return lo;
        }
        if g(hi) <= 0.0 {
            return hi;
        }
        brent(g, lo, hi, 1e-18).unwrap_or(0.5 * (lo + hi))
    }

    /// The characterized τ range.
    pub fn tau_range(&self) -> (f64, f64) {
        self.tau_range
    }

    /// The load the model was characterized at.
    pub fn reference_load(&self) -> f64 {
        self.c_ref
    }

    /// Storage cost of this model in table entries.
    pub fn table_len(&self) -> usize {
        self.delay_table.xs().len() + self.trans_table.xs().len()
    }

    /// The raw characterization samples: `(u values, Δ⁽¹⁾/τ, τ_out⁽¹⁾/τ)` —
    /// the data closed-form fits are built from.
    pub fn samples(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            self.delay_table.xs().to_vec(),
            self.delay_table.ys().to_vec(),
            self.trans_table.ys().to_vec(),
        )
    }

    /// Audit access: the `(delay, transition)` sample tables.
    pub(crate) fn tables(&self) -> (&Table1d, &Table1d) {
        (&self.delay_table, &self.trans_table)
    }

    /// Audit repair access: the `(delay, transition)` sample tables,
    /// mutably — entries are patched through the tables' validated setters.
    pub(crate) fn tables_mut(&mut self) -> (&mut Table1d, &mut Table1d) {
        (&mut self.delay_table, &mut self.trans_table)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::characterize::Simulator;
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};

    fn sim_env() -> (Cell, Technology) {
        (Cell::nand(2), Technology::demo_5v())
    }

    fn make_sim<'a>(cell: &'a Cell, tech: &'a Technology) -> Simulator<'a> {
        Simulator::new(cell, tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1)
    }

    #[test]
    fn characterize_and_query_rising_input() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        let grid = [100e-12, 400e-12, 1600e-12];
        let m = SingleInputModel::characterize(&sim, 0, Edge::Rising, &grid).unwrap();
        assert_eq!(m.output_edge, Edge::Falling);
        // The model reproduces its own characterization points.
        for &tau in &grid {
            let r = sim
                .simulate(&[InputEvent::new(0, Edge::Rising, 0.0, tau)])
                .unwrap();
            let d_sim = r.delay_from(0, &sim.thresholds).unwrap();
            let d_model = m.delay(tau, 100e-15);
            assert!(
                (d_model - d_sim).abs() / d_sim < 1e-6,
                "tau {tau}: model {d_model} vs sim {d_sim}"
            );
        }
    }

    #[test]
    fn delay_increases_with_slower_input() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        let grid = [100e-12, 400e-12, 1600e-12];
        let m = SingleInputModel::characterize(&sim, 0, Edge::Rising, &grid).unwrap();
        // The chosen thresholds guarantee monotone-increasing delay with
        // input transition time (the paper's §2 argument).
        let d_fast = m.delay(100e-12, 100e-15);
        let d_slow = m.delay(1600e-12, 100e-15);
        assert!(d_slow > d_fast, "slow {d_slow} <= fast {d_fast}");
        assert!(d_fast > 0.0);
    }

    #[test]
    fn tau_for_ratio_inverts_delay_ratio() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        let grid = [100e-12, 400e-12, 1600e-12];
        let m = SingleInputModel::characterize(&sim, 0, Edge::Rising, &grid).unwrap();
        let target = 1.5;
        let tau = m.tau_for_ratio(target, 100e-15);
        let achieved = tau / m.delay(tau, 100e-15);
        assert!((achieved - target).abs() < 1e-6, "achieved {achieved}");
    }

    #[test]
    fn tau_for_ratio_clamps_out_of_range() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        let grid = [100e-12, 400e-12, 1600e-12];
        let m = SingleInputModel::characterize(&sim, 0, Edge::Rising, &grid).unwrap();
        assert_eq!(m.tau_for_ratio(1e9, 100e-15), m.tau_range().1);
        assert_eq!(m.tau_for_ratio(1e-9, 100e-15), m.tau_range().0);
    }

    #[test]
    fn falling_input_uses_pullup_strength() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        let grid = [100e-12, 400e-12, 1600e-12];
        let m = SingleInputModel::characterize(&sim, 0, Edge::Falling, &grid).unwrap();
        assert_eq!(m.output_edge, Edge::Rising);
        assert!((m.k - tech.k_p(cell.wp())).abs() < 1e-15);
    }

    #[test]
    fn rejects_degenerate_grid() {
        let (cell, tech) = sim_env();
        let sim = make_sim(&cell, &tech);
        assert!(matches!(
            SingleInputModel::characterize(&sim, 0, Edge::Rising, &[1e-10]),
            Err(ModelError::Table(_))
        ));
    }
}
