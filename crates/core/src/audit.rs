//! Post-characterization physics audit and bounded self-repair.
//!
//! The paper's §2 threshold rule (min `V_il`, max `V_ih` over the VTC
//! family) exists precisely to guarantee *positive* delay for every
//! slope/separation combination, and §3 pins down asymptotics: the dual
//! delay ratio `D⁽²⁾ → 1` once the partner arrives after the dominant
//! input's crossing (`s_ij ≥ Δ_i⁽¹⁾`), and the transition ratio
//! `T⁽²⁾ → 1` beyond the wider window `Δ_i⁽¹⁾ + τ_i⁽¹⁾`. This module
//! checks that a characterized (or loaded) [`ProximityModel`] actually
//! satisfies those invariants, and repairs it when it does not:
//!
//! - [`ProximityModel::audit`] runs every table through the battery of
//!   checks ([`AuditCheck`]) and returns typed [`AuditFinding`]s with full
//!   provenance — slice, table role, flat table index, grid stimulus, the
//!   violated bound.
//! - [`ProximityModel::audit_and_repair`] re-enqueues only the suspect
//!   grid points through the [`crate::jobs`] pipeline (honoring the run's
//!   cancellation token and checkpoint journal), patches repaired points
//!   in place, escalates persistent points to a tightened solver tolerance
//!   ([`crate::characterize::Simulator::with_tolerance_scale`]), and
//!   demotes unrepairable slices to the existing [`DegradedSlice`] path so
//!   [`ProximityModel::gate_timing`] keeps answering with flagged
//!   provenance instead of serving unphysical numbers.
//! - [`ProximityModel::validate`] is the cheap structural subset (shape,
//!   axis monotonicity, non-finite rejection) run on every persisted or
//!   cached model at the deserialization boundary ([`crate::persist`]).
//!
//! The checks are conduction-aware: the `D⁽²⁾ → 1` asymptote only binds
//! for parallel (OR-like) conduction, and only where the partner's ramp
//! *starts* after the dominant crossing — for series (AND-like) stacks a
//! late partner legitimately gates the output and the raw ratio exceeds
//! one (see [`DualInputModel::delay_ratio_raw`]).

use crate::characterize::{CharacterizeOptions, Simulator};
use crate::checkpoint::{CheckpointJournal, RunControl};
use crate::dual::DualInputModel;
use crate::error::ModelError;
use crate::glitch::GlitchModel;
use crate::jobs::{execute_jobs_controlled, metric, SimJob};
use crate::measure::{causing_rank, InputEvent, Scenario};
use crate::model::{DegradedSlice, ProximityModel, SliceKind, EDGES};
use crate::nldm::LoadSlewModel;
use crate::persist::{fnv1a_64, ModelCache};
use crate::single::SingleInputModel;
use crate::slice::{self, Slice, SliceId};
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use std::collections::BTreeMap;
use std::fmt;

pub use crate::slice::TableRole;

/// Tolerances and budgets for the audit battery and the repair pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOptions {
    /// Allowed `|ratio − 1|` where a §3 asymptote binds exactly (the
    /// partner's ramp starts after the relevant output event, so only
    /// solver noise separates the measured ratio from one).
    pub asymptote_tol: f64,
    /// Allowed backwards step of the dual delay ratio along the separation
    /// axis, relative to `max(1, |value|)` — §3's monotonicity of delay in
    /// separation along the dominance direction, minus solver noise.
    pub monotonicity_tol: f64,
    /// Robust z-score (residual over the row's median absolute residual)
    /// above which a grid point is a neighbor-consistency outlier.
    pub outlier_z: f64,
    /// Absolute floor for an outlier residual, as a fraction of the row's
    /// value span — guards smooth-but-curved rows from the z-score test.
    pub outlier_min_residual: f64,
    /// Repair budget per slice: more suspect points than this demotes the
    /// slice outright instead of re-simulating half its grid.
    pub max_repair_points: usize,
    /// Solver-tolerance scale for the escalation rung of the repair pass
    /// (first re-simulation runs at the original tolerance so repaired
    /// points are byte-identical to a clean run).
    pub repair_tolerance_scale: f64,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            asymptote_tol: 0.08,
            monotonicity_tol: 0.05,
            outlier_z: 12.0,
            outlier_min_residual: 0.35,
            max_repair_points: 64,
            repair_tolerance_scale: 0.5,
        }
    }
}

/// Which physics or structural invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// A table entry (or axis point, or model scalar) is NaN/Inf.
    NonFinite,
    /// A delay/transition entry that §2's threshold rule guarantees
    /// positive is zero or negative.
    Positivity,
    /// `delay_ratio` deviates from 1 where the partner provably cannot
    /// affect the delay (`s_ij ≥ Δ_i⁽¹⁾` and the partner ramp starts after
    /// the crossing; OR-like conduction only).
    DelayAsymptote,
    /// `trans_ratio` deviates from 1 beyond the wider transition window
    /// `Δ_i⁽¹⁾ + τ_i⁽¹⁾` (OR-like conduction only).
    TransAsymptote,
    /// The dual delay ratio decreases along the separation axis, or a
    /// glitch peak moves against the blocker-arrival direction, or an NLDM
    /// delay shrinks with load.
    Monotonicity,
    /// A grid point is inconsistent with its neighbors (robust z-score of
    /// the local-interpolation residual; see
    /// [`AuditOptions::outlier_z`]).
    Outlier,
    /// The table or model fails structural validation: wrong shape,
    /// malformed axis, inconsistent metadata.
    Structure,
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::NonFinite => "non-finite entry",
            Self::Positivity => "positivity (§2)",
            Self::DelayAsymptote => "delay-ratio asymptote (§3)",
            Self::TransAsymptote => "trans-ratio asymptote (§3)",
            Self::Monotonicity => "monotonicity in separation",
            Self::Outlier => "neighbor-consistency outlier",
            Self::Structure => "structural validation",
        };
        f.write_str(s)
    }
}

/// One audit violation, with enough provenance to re-enqueue exactly the
/// suspect grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// The violated invariant.
    pub check: AuditCheck,
    /// Which kind of slice the finding is in.
    pub slice: SliceKind,
    /// The slice's pin (dominant pin for duals, causer for glitches,
    /// reference pin for corrections).
    pub pin: usize,
    /// The slice's input edge (causer edge for glitches, output edge for
    /// corrections).
    pub edge: Edge,
    /// The dual partner or glitch blocker pin, when the slice has one.
    pub partner: Option<usize>,
    /// Which of the slice's tables holds the value.
    pub table: TableRole,
    /// Flat row-major index into that table; `None` for whole-table
    /// (structural) findings.
    pub index: Option<usize>,
    /// The grid stimulus at that index, in model coordinates — `[u]` for
    /// singles, `[u, v, w]` for duals/glitches, `[τ, C_L]` for NLDM.
    pub stimulus: Vec<f64>,
    /// The offending stored value.
    pub value: f64,
    /// The violated bound, rendered.
    pub expected: String,
}

impl AuditFinding {
    /// The name of the slice the finding is in.
    pub fn slice_id(&self) -> SliceId {
        SliceId {
            kind: self.slice,
            pin: self.pin,
            edge: self.edge,
            partner: self.partner,
        }
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {:?} slice pin {} {:?}",
            self.check, self.slice, self.pin, self.edge
        )?;
        if let Some(p) = self.partner {
            write!(f, " (partner {p})")?;
        }
        match self.index {
            Some(i) => write!(f, ", {:?}[{i}]", self.table)?,
            None => write!(f, ", {:?} table", self.table)?,
        }
        if !self.stimulus.is_empty() {
            write!(f, " at {:?}", self.stimulus)?;
        }
        write!(f, ": value {:e}, expected {}", self.value, self.expected)
    }
}

/// The outcome of one audit pass over a model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every violation found, in deterministic slice-then-index order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether the model passed every check.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Whether the report holds no findings (same as [`Self::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Counters describing one repair pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Grid points re-simulated and patched in place.
    pub repaired_points: usize,
    /// Points that needed the tightened-tolerance escalation rung.
    pub escalated_points: usize,
    /// Slices demoted to [`DegradedSlice`] provenance.
    pub demoted_slices: usize,
    /// Transient simulations the repair pass ran.
    pub sims_run: usize,
}

// ---------------------------------------------------------------------------
// Check helpers
// ---------------------------------------------------------------------------

/// Margin (in `w` units) added to the asymptote-window conditions so that a
/// grid point sitting exactly on the analytic boundary is never checked.
const WINDOW_MARGIN: f64 = 0.1;

/// Solver noise in a table value, relative to `max(1, |value|)`: entries
/// that differ by no more than this differ by solver tolerance alone, as
/// the ratios [`AuditOptions::asymptote_tol`] allows for do. A row flat to
/// within it has no outliers, however small its span and its median
/// residual are.
const SOLVER_NOISE: f64 = 1e-6;

/// Interior residuals against the midpoint of each point's neighbors, and
/// the indices whose residual is a robust-z outlier, a substantial fraction
/// of the row's span, and above solver noise.
fn row_outliers(row: &[f64], opts: &AuditOptions) -> Vec<(usize, f64, f64)> {
    let n = row.len();
    if n < 5 {
        return Vec::new();
    }
    let resid: Vec<f64> = (1..n - 1)
        .map(|k| row[k] - 0.5 * (row[k - 1] + row[k + 1]))
        .collect();
    let mut abs: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
    abs.sort_by(f64::total_cmp);
    // Median absolute residual: robust to the outlier itself, unlike a
    // standard deviation that the outlier would inflate.
    let mad = abs[abs.len() / 2].max(1e-12);
    let (lo, hi) = row
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let noise = SOLVER_NOISE * hi.abs().max(lo.abs()).max(1.0);
    let floor = (opts.outlier_min_residual * (hi - lo)).max(noise);
    resid
        .iter()
        .enumerate()
        .filter(|(_, r)| r.abs() > opts.outlier_z * mad && r.abs() > floor)
        .map(|(j, r)| (j + 1, row[j + 1], *r))
        .collect()
}

/// The input-threshold crossing fraction of a unit ramp for `edge` — the
/// offset between a ramp's start and its [`InputEvent::arrival`].
fn arrival_fraction(model: &ProximityModel, edge: Edge) -> f64 {
    InputEvent::new(0, edge, 0.0, 1.0).arrival(&model.thresholds)
}

/// Resolves the conduction style of a dual slice: `Some(true)` when the
/// first-arriving input alone flips the output (OR-like, parallel
/// conduction), `Some(false)` for series stacks, `None` when the pair
/// cannot be sensitized at all.
fn dual_or_like(model: &ProximityModel, d: &DualInputModel) -> Option<bool> {
    let events = [
        InputEvent::new(d.pin, d.input_edge, 0.0, 100e-12),
        InputEvent::new(d.partner, d.input_edge, 10e-12, 100e-12),
    ];
    let scenario = Scenario::resolve(&model.cell, &events).ok()?;
    let causing = causing_rank(&model.cell, &events, &scenario, &model.thresholds).ok()?;
    Some(causing.rank == 1)
}

struct FindingSink {
    id: SliceId,
    out: Vec<AuditFinding>,
}

impl FindingSink {
    fn new(id: SliceId) -> Self {
        Self {
            id,
            out: Vec::new(),
        }
    }

    fn push(
        &mut self,
        check: AuditCheck,
        table: TableRole,
        index: Option<usize>,
        stimulus: Vec<f64>,
        value: f64,
        expected: impl Into<String>,
    ) {
        self.out.push(AuditFinding {
            check,
            slice: self.id.kind,
            pin: self.id.pin,
            edge: self.id.edge,
            partner: self.id.partner,
            table,
            index,
            stimulus,
            value,
            expected: expected.into(),
        });
    }
}

/// Audits one single-input macromodel: §2 positivity and finiteness of the
/// normalized delay and transition samples.
///
/// Public so the property suite can aim it at deliberately
/// mis-thresholded constructions (a wrong `V_il`/`V_ih` policy produces
/// negative table delays, which this check must flag).
pub fn check_single(m: &SingleInputModel, _opts: &AuditOptions) -> Vec<AuditFinding> {
    let mut sink = FindingSink::new(Slice::Single(m).id());
    let (delay, trans) = (&m.delay_table, &m.trans_table);
    for (role, table) in [(TableRole::Delay, delay), (TableRole::Transition, trans)] {
        for (i, (&u, &y)) in table.xs().iter().zip(table.ys()).enumerate() {
            if !y.is_finite() {
                sink.push(AuditCheck::NonFinite, role, Some(i), vec![u], y, "finite");
            } else if y <= 0.0 {
                sink.push(
                    AuditCheck::Positivity,
                    role,
                    Some(i),
                    vec![u],
                    y,
                    "> 0 (min-V_il/max-V_ih thresholds, §2)",
                );
            }
        }
    }
    sink.out
}

/// Audits one dual-input proximity slice in the context of its model.
fn check_dual(
    model: &ProximityModel,
    d: &DualInputModel,
    opts: &AuditOptions,
) -> Vec<AuditFinding> {
    let mut sink = FindingSink::new(Slice::Dual(d).id());
    let (delay, trans) = (&d.delay_ratio, &d.trans_ratio);
    let (nu, nv, nw) = (delay.ax().len(), delay.ay().len(), delay.az().len());
    let u_grid: Vec<f64> = delay.ax().iter().map(|lu| lu.exp()).collect();
    let v_grid: Vec<f64> = delay.ay().iter().map(|lv| lv.exp()).collect();
    let w_grid = delay.az();

    let or_like = dual_or_like(model, d);
    let frac = arrival_fraction(model, d.input_edge);
    let single = model.single_model(d.pin, d.input_edge);
    // τ_i⁽¹⁾ / Δ_i⁽¹⁾ per u row — the §3 transition-window width in w units.
    let t1_over_d1: Vec<Option<f64>> = u_grid
        .iter()
        .map(|&u1| {
            let s = single?;
            let tau_i = s.tau_for_ratio(u1, model.c_ref);
            let d1 = s.delay(tau_i, model.c_ref);
            (d1 > 0.0).then(|| s.transition(tau_i, model.c_ref) / d1)
        })
        .collect();

    for (iu, &u_val) in u_grid.iter().enumerate().take(nu) {
        for (iv, &v_val) in v_grid.iter().enumerate().take(nv) {
            let base = (iu * nv + iv) * nw;
            let drow = &delay.values()[base..base + nw];
            let trow = &trans.values()[base..base + nw];
            let stim = |iw: usize| vec![u_val, v_val, w_grid[iw]];

            for iw in 0..nw {
                let (dv, tv, w) = (drow[iw], trow[iw], w_grid[iw]);
                for (role, v) in [(TableRole::Delay, dv), (TableRole::Transition, tv)] {
                    if !v.is_finite() {
                        sink.push(
                            AuditCheck::NonFinite,
                            role,
                            Some(base + iw),
                            stim(iw),
                            v,
                            "finite",
                        );
                    }
                }
                // §2 positivity: the measured Δ⁽²⁾ (hence the ratio) is
                // positive whenever the reference input is the one being
                // crossed — i.e. at non-negative separation. At deeply
                // negative w an early partner legitimately drives the
                // output before the reference arrives.
                if dv.is_finite() && w >= 0.0 && dv <= 0.0 {
                    sink.push(
                        AuditCheck::Positivity,
                        TableRole::Delay,
                        Some(base + iw),
                        stim(iw),
                        dv,
                        "> 0 for s_ij >= 0 (§2)",
                    );
                }
                if tv.is_finite() && tv <= 0.0 {
                    sink.push(
                        AuditCheck::Positivity,
                        TableRole::Transition,
                        Some(base + iw),
                        stim(iw),
                        tv,
                        "> 0 (§2)",
                    );
                }
                // §3 asymptotes, where they bind *exactly*: the partner's
                // ramp must start after the output event it could perturb.
                // Its ramp starts at w − frac·v (in Δ⁽¹⁾ units) relative
                // to the dominant arrival; the delay crossing is at 1, the
                // transition completes by 1 + τ⁽¹⁾/Δ⁽¹⁾.
                if or_like == Some(true) && dv.is_finite() {
                    let ramp_start = w - frac * v_val;
                    if ramp_start >= 1.0 + WINDOW_MARGIN && (dv - 1.0).abs() > opts.asymptote_tol {
                        sink.push(
                            AuditCheck::DelayAsymptote,
                            TableRole::Delay,
                            Some(base + iw),
                            stim(iw),
                            dv,
                            format!(
                                "within {:.2} of 1 for s_ij >= Δ⁽¹⁾ (§3)",
                                opts.asymptote_tol
                            ),
                        );
                    }
                    if let Some(t1d1) = t1_over_d1[iu] {
                        if tv.is_finite()
                            && ramp_start >= 1.0 + t1d1 + WINDOW_MARGIN
                            && (tv - 1.0).abs() > opts.asymptote_tol
                        {
                            sink.push(
                                AuditCheck::TransAsymptote,
                                TableRole::Transition,
                                Some(base + iw),
                                stim(iw),
                                tv,
                                format!(
                                    "within {:.2} of 1 for s_ij >= Δ⁽¹⁾ + τ⁽¹⁾ (§3)",
                                    opts.asymptote_tol
                                ),
                            );
                        }
                    }
                }
            }

            // Monotonicity of delay in separation along the dominance
            // direction: a later partner can only delay the composed
            // crossing (or stop mattering), never accelerate it. Only
            // enforced where the reference input actually dominates
            // (w ≥ 0); at negative separation the partner leads and the
            // composition queries the table with the roles swapped.
            for iw in 1..nw {
                if w_grid[iw - 1] < 0.0 {
                    continue;
                }
                let (a, b) = (drow[iw - 1], drow[iw]);
                if a.is_finite() && b.is_finite() {
                    let tol = opts.monotonicity_tol * a.abs().max(1.0);
                    if b < a - tol {
                        sink.push(
                            AuditCheck::Monotonicity,
                            TableRole::Delay,
                            Some(base + iw),
                            stim(iw),
                            b,
                            format!(">= {:.4e} - tol (non-decreasing in w)", a),
                        );
                    }
                }
            }

            for (role, row) in [(TableRole::Delay, drow), (TableRole::Transition, trow)] {
                for (j, v, r) in row_outliers(row, opts) {
                    sink.push(
                        AuditCheck::Outlier,
                        role,
                        Some(base + j),
                        stim(j),
                        v,
                        format!("residual {r:.3e} within z·MAD of neighbors"),
                    );
                }
            }
        }
    }
    sink.out
}

/// Audits one NLDM load–slew surface: positivity, finiteness, and delay
/// monotone in load.
fn check_nldm(m: &LoadSlewModel, opts: &AuditOptions) -> Vec<AuditFinding> {
    let mut sink = FindingSink::new(Slice::LoadSlew(m).id());
    let (delay, trans) = (&m.delay, &m.trans);
    let (nt, nl) = (delay.ax().len(), delay.ay().len());
    let taus: Vec<f64> = delay.ax().iter().map(|l| l.exp()).collect();
    let loads: Vec<f64> = delay.ay().iter().map(|l| l.exp()).collect();
    for (role, table) in [(TableRole::Delay, delay), (TableRole::Transition, trans)] {
        for (it, &tau) in taus.iter().enumerate().take(nt) {
            for (il, &load) in loads.iter().enumerate().take(nl) {
                let idx = it * nl + il;
                let v = table.values()[idx];
                let stim = vec![tau, load];
                if !v.is_finite() {
                    sink.push(AuditCheck::NonFinite, role, Some(idx), stim, v, "finite");
                } else if v <= 0.0 {
                    sink.push(AuditCheck::Positivity, role, Some(idx), stim, v, "> 0 (§2)");
                }
            }
        }
    }
    // Delay grows with load at fixed slew: more charge through the same
    // drive current.
    for (it, &tau) in taus.iter().enumerate().take(nt) {
        for (il, &load) in loads.iter().enumerate().take(nl).skip(1) {
            let a = delay.values()[it * nl + il - 1];
            let b = delay.values()[it * nl + il];
            if a.is_finite() && b.is_finite() && b < a * (1.0 - opts.monotonicity_tol) {
                sink.push(
                    AuditCheck::Monotonicity,
                    TableRole::Delay,
                    Some(it * nl + il),
                    vec![tau, load],
                    b,
                    format!(">= {a:.4e} - tol (non-decreasing in load)"),
                );
            }
        }
    }
    sink.out
}

/// Audits one glitch-peak slice: finite, rail-bounded, and the extremum
/// moves monotonically with blocker arrival.
fn check_glitch(g: &GlitchModel, opts: &AuditOptions) -> Vec<AuditFinding> {
    let mut sink = FindingSink::new(Slice::Glitch(g).id());
    let peak = &g.peak;
    let (nu, nv, nw) = (peak.ax().len(), peak.ay().len(), peak.az().len());
    let u_grid: Vec<f64> = peak.ax().iter().map(|l| l.exp()).collect();
    let v_grid: Vec<f64> = peak.ay().iter().map(|l| l.exp()).collect();
    let w_grid = peak.az();
    // Normalized extremum must stay within the rails, plus integrator
    // ringing allowance.
    const RAIL_TOL: f64 = 0.1;
    for (iu, &u_val) in u_grid.iter().enumerate().take(nu) {
        for (iv, &v_val) in v_grid.iter().enumerate().take(nv) {
            let base = (iu * nv + iv) * nw;
            let row = &peak.values()[base..base + nw];
            let stim = |iw: usize| vec![u_val, v_val, w_grid[iw]];
            for (iw, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    sink.push(
                        AuditCheck::NonFinite,
                        TableRole::Peak,
                        Some(base + iw),
                        stim(iw),
                        v,
                        "finite",
                    );
                } else if !(-RAIL_TOL..=1.0 + RAIL_TOL).contains(&v) {
                    sink.push(
                        AuditCheck::Positivity,
                        TableRole::Peak,
                        Some(base + iw),
                        stim(iw),
                        v,
                        "normalized extremum within the rails",
                    );
                }
            }
            // A later blocker lets the causer's transition progress
            // further before being cut off: the falling-output minimum
            // deepens, the rising-output maximum climbs.
            for iw in 1..nw {
                let (a, b) = (row[iw - 1], row[iw]);
                if !(a.is_finite() && b.is_finite()) {
                    continue;
                }
                let bad = match g.output_edge {
                    Edge::Falling => b > a + opts.monotonicity_tol,
                    Edge::Rising => b < a - opts.monotonicity_tol,
                };
                if bad {
                    sink.push(
                        AuditCheck::Monotonicity,
                        TableRole::Peak,
                        Some(base + iw),
                        stim(iw),
                        b,
                        format!("monotone vs {a:.4e} along blocker arrival (§6)"),
                    );
                }
            }
            for (j, v, r) in row_outliers(row, opts) {
                sink.push(
                    AuditCheck::Outlier,
                    TableRole::Peak,
                    Some(base + j),
                    stim(j),
                    v,
                    format!("residual {r:.3e} within z·MAD of neighbors"),
                );
            }
        }
    }
    sink.out
}

/// Audits one slice with the checks of its kind.
fn check_slice(model: &ProximityModel, slice: Slice<'_>, opts: &AuditOptions) -> Vec<AuditFinding> {
    match slice {
        Slice::Single(s) => check_single(s, opts),
        Slice::Dual(d) => check_dual(model, d, opts),
        Slice::LoadSlew(m) => check_nldm(m, opts),
        Slice::Glitch(g) => check_glitch(g, opts),
    }
}

/// Structural findings: table shape/axis/finiteness violations and
/// non-finite model scalars. This is the (cheap) subset run at the
/// deserialization boundary.
fn structural_findings(model: &ProximityModel) -> Vec<AuditFinding> {
    let correction = |e: usize| SliceId::new(SliceKind::Correction, 0, EDGES[e]);
    let mut sink = FindingSink::new(correction(0));
    let mut push = |id: SliceId, table: TableRole, detail: String| {
        sink.id = id;
        let nan = f64::NAN;
        sink.push(AuditCheck::Structure, table, None, Vec::new(), nan, detail);
    };
    for (i, &scalar) in [model.c_ref, model.dv_max].iter().enumerate() {
        if !(scalar.is_finite() && scalar > 0.0) {
            push(
                correction(0),
                TableRole::Delay,
                format!("model scalar #{i} must be positive and finite, got {scalar:e}"),
            );
        }
    }
    for (e, &rs) in model.ramp_stretch.iter().enumerate() {
        if !(rs.is_finite() && rs > 0.0) {
            push(
                correction(e),
                TableRole::Transition,
                format!("ramp-stretch factor must be positive and finite, got {rs:e}"),
            );
        }
    }
    for (e, c) in model.corrections.iter().enumerate() {
        if !(c.delay.is_finite() && c.trans.is_finite()) {
            push(
                correction(e),
                TableRole::Delay,
                format!(
                    "correction term must be finite, got ({:e}, {:e})",
                    c.delay, c.trans
                ),
            );
        }
    }
    for slice in model.slices() {
        for (role, table) in slice.tables() {
            if let Err(e) = table.validate() {
                push(slice.id(), role, e.to_string());
            }
        }
    }
    sink.out
}

// ---------------------------------------------------------------------------
// The audit entry points
// ---------------------------------------------------------------------------

impl ProximityModel {
    /// Runs the full physics-invariant battery over every characterized
    /// table and returns the findings. Pure and cheap (table walks plus a
    /// handful of scalar root-finds); never mutates the model.
    pub fn audit(&self, opts: &AuditOptions) -> AuditReport {
        let span = obs::span("char.audit").arg("cell_pins", self.cell.input_count());
        let mut findings = structural_findings(self);
        for slice in self.slices() {
            findings.extend(check_slice(self, slice, opts));
        }
        if obs::metrics_enabled() {
            obs::Registry::global()
                .counter(metric::AUDIT_FINDINGS)
                .add(findings.len() as u64);
        }
        for f in findings.iter().take(8) {
            let _ = obs::event("char.audit.finding")
                .arg("check", format_args!("{:?}", f.check))
                .arg("slice", format_args!("{:?}", f.slice))
                .arg("pin", f.pin);
        }
        drop(span.arg("findings", findings.len()));
        AuditReport { findings }
    }

    /// Structural validation: shape, axis, and finiteness checks over every
    /// table and model scalar. This is what the persistence layer runs on
    /// every loaded or cached model, because JSON decoding fills
    /// table fields directly and would otherwise admit NaN/Inf or
    /// malformed axes into the query path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Audit`] describing the first violation.
    pub fn validate(&self) -> Result<(), ModelError> {
        match structural_findings(self).into_iter().next() {
            None => Ok(()),
            Some(f) => Err(ModelError::Audit {
                detail: f.to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

/// What happened to one slice inside the repair loop.
enum SliceRepair {
    Repaired {
        points: usize,
        escalated: usize,
        sims: usize,
    },
    Demote {
        reason: String,
        sims: usize,
    },
}

impl ProximityModel {
    /// Audits the model and repairs what it can: suspect grid points are
    /// re-enqueued through the [`crate::jobs`] pipeline (first at the
    /// original solver tolerance — a deterministic re-simulation restores
    /// byte-identical values for points corrupted after the fact — then at
    /// the tightened [`AuditOptions::repair_tolerance_scale`]), and slices
    /// that still fail their checks are demoted to [`DegradedSlice`]
    /// provenance exactly like a characterization-time failure, so
    /// [`ProximityModel::gate_timing`] keeps answering with `degradation`
    /// set.
    ///
    /// `char_opts` must be the option set the model was characterized with:
    /// the repair re-enumerates the slice grids from it, and demotes a
    /// slice whose tables do not match the grids instead of guessing.
    /// `control` carries the cancellation token (polled at every job
    /// boundary) and the optional checkpoint journal. The journal is bound
    /// to the model's cell, technology and `char_opts` (its
    /// [`ModelCache::key`]), and each slice's re-simulations are journaled
    /// under a phase named after the slice and the tolerance rung, so a
    /// resumed repair replays exactly the outcomes it recorded.
    ///
    /// Returns the pre-repair audit report and the repair counters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on cancellation/deadline expiry or a
    /// non-degradable failure; the §2/§3 violations themselves never error
    /// — they end as patched points or demoted slices.
    pub fn audit_and_repair(
        &mut self,
        char_opts: &CharacterizeOptions,
        opts: &AuditOptions,
        control: &RunControl,
    ) -> Result<(AuditReport, RepairOutcome), ModelError> {
        let report = self.audit(opts);
        let mut outcome = RepairOutcome::default();
        if report.is_clean() {
            return Ok((report, outcome));
        }
        let span = obs::span("audit.repair").arg("findings", report.len());

        // Group the suspect table indices by slice. Structural findings
        // (index None) have no stimulus to re-run and demote the slice.
        let mut groups: BTreeMap<SliceId, (Vec<usize>, bool)> = BTreeMap::new();
        for f in &report.findings {
            let entry = groups.entry(f.slice_id()).or_default();
            match f.index {
                Some(i) if !entry.0.contains(&i) => entry.0.push(i),
                Some(_) => {}
                None => entry.1 = true,
            }
        }

        let journal = match &control.checkpoint {
            Some(cfg) => {
                let run = ModelCache::key(&self.cell, &self.tech, char_opts)?;
                let key = fnv1a_64(format!("audit-repair;{run:016x}").as_bytes());
                Some(CheckpointJournal::open(cfg, key)?)
            }
            None => None,
        };

        let cell = self.cell.clone();
        let tech = self.tech.clone();
        let base_sim = Simulator::new(&cell, &tech, self.thresholds, self.c_ref, self.dv_max)
            .with_cancel(control.cancel.clone())
            .with_faults(char_opts.faults);

        for (id, (mut indices, structural)) in groups {
            indices.sort_unstable();
            let result = if structural {
                SliceRepair::Demote {
                    reason: "audit: structural table violation".into(),
                    sims: 0,
                }
            } else if indices.len() > opts.max_repair_points {
                SliceRepair::Demote {
                    reason: format!(
                        "audit: {} suspect points exceed the repair budget of {}",
                        indices.len(),
                        opts.max_repair_points
                    ),
                    sims: 0,
                }
            } else {
                self.repair_slice(&base_sim, id, &indices, char_opts, opts, journal.as_ref())?
            };
            match result {
                SliceRepair::Repaired {
                    points,
                    escalated,
                    sims,
                } => {
                    outcome.repaired_points += points;
                    outcome.escalated_points += escalated;
                    outcome.sims_run += sims;
                }
                SliceRepair::Demote { reason, sims } => {
                    outcome.sims_run += sims;
                    outcome.demoted_slices += self.demote_slice(id, &reason);
                }
            }
        }
        if let Some(j) = &journal {
            j.flush();
        }

        if obs::metrics_enabled() {
            let reg = obs::Registry::global();
            reg.counter(metric::REPAIR_POINTS)
                .add(outcome.repaired_points as u64);
            reg.counter(metric::REPAIR_DEMOTED)
                .add(outcome.demoted_slices as u64);
            reg.counter(metric::REPAIR_SIMS)
                .add(outcome.sims_run as u64);
        }
        drop(
            span.arg("repaired", outcome.repaired_points)
                .arg("demoted", outcome.demoted_slices)
                .arg("sims", outcome.sims_run),
        );
        Ok((report, outcome))
    }

    /// Re-simulates the suspect points of one slice and patches them in
    /// place; escalates to the tightened tolerance when the original
    /// tolerance does not clear the checks.
    fn repair_slice(
        &mut self,
        base_sim: &Simulator<'_>,
        id: SliceId,
        indices: &[usize],
        char_opts: &CharacterizeOptions,
        opts: &AuditOptions,
        journal: Option<&CheckpointJournal>,
    ) -> Result<SliceRepair, ModelError> {
        let mut sims = 0usize;
        let mut escalated = 0usize;
        for (rung, scale) in [(0usize, 1.0), (1, opts.repair_tolerance_scale)] {
            let phase = if rung == 0 {
                format!("audit.repair.{id}")
            } else {
                format!("audit.repair.tight.{id}")
            };
            let sim = base_sim.clone().with_tolerance_scale(scale);
            let checkpoint = journal.map(|j| (j, phase.as_str()));
            let ran = self.resimulate_points(&sim, id, indices, char_opts, checkpoint)?;
            let Some(ran) = ran else {
                return Ok(SliceRepair::Demote {
                    reason: "audit: characterization options do not match the model tables".into(),
                    sims,
                });
            };
            sims += ran.sims;
            if rung == 1 {
                escalated = ran.patched;
            }
            if ran.failed > 0 {
                continue; // escalate (or fall through to demotion below)
            }
            let clean = self
                .slice(id)
                .is_none_or(|s| check_slice(self, s, opts).is_empty());
            if clean {
                return Ok(SliceRepair::Repaired {
                    points: indices.len(),
                    escalated,
                    sims,
                });
            }
        }
        Ok(SliceRepair::Demote {
            reason: format!(
                "audit: {} point(s) unrepairable after tolerance escalation",
                indices.len()
            ),
            sims,
        })
    }

    /// Re-simulates `indices` of the slice's grid and patches the tables.
    /// Returns `None` when the characterization options cannot reproduce
    /// the slice's stimuli (grid mismatch).
    fn resimulate_points(
        &mut self,
        sim: &Simulator<'_>,
        id: SliceId,
        indices: &[usize],
        char_opts: &CharacterizeOptions,
        checkpoint: Option<(&CheckpointJournal, &str)>,
    ) -> Result<Option<PatchStats>, ModelError> {
        // Enumerate the slice's full job grid exactly as characterization
        // did, then select the suspect subset by index.
        let Some(job_of) = self.job_indices(id, char_opts, indices) else {
            return Ok(None);
        };
        let ctx = slice::SliceCtx {
            sim,
            opts: char_opts,
            singles: &self.singles,
        };
        let all = slice::jobs(id, &ctx)?;
        let subset: Option<Vec<SimJob>> = job_of.iter().map(|&j| all.get(j).cloned()).collect();
        let Some(subset) = subset else {
            return Ok(None);
        };
        if subset.is_empty() {
            return Ok(Some(PatchStats::default()));
        }

        let threads = char_opts.worker_threads().min(subset.len());
        let batch = execute_jobs_controlled(sim, &subset, threads, checkpoint);
        let mut stats = PatchStats {
            sims: batch.outcomes.len() - batch.skipped,
            ..PatchStats::default()
        };
        for ((&idx, &job), outcome) in indices.iter().zip(&job_of).zip(&batch.outcomes) {
            if let Some(e) = outcome.failure() {
                if e.is_cancellation() || !e.is_slice_degradable() {
                    return Err(e.clone());
                }
                stats.failed += 1;
                continue;
            }
            self.patch(id, idx, job, outcome, char_opts)?;
            stats.patched += 1;
        }
        Ok(Some(stats))
    }

    /// Demotes one slice to [`DegradedSlice`] provenance, removing the
    /// unrepairable tables so queries fall back exactly like a
    /// characterization-time degradation. Demoting a single-input slice
    /// cascades to the slices that normalize against it. Returns how many
    /// slices were demoted.
    fn demote_slice(&mut self, id: SliceId, reason: &str) -> usize {
        let mut victims = vec![(id, reason.to_string())];
        if id.kind == SliceKind::Single {
            // Everything normalized against this single is now
            // unverifiable; demote the dependents too.
            let dep = format!("audit: dominant single-input slice demoted ({reason})");
            victims.extend(
                self.slices()
                    .map(|s| s.id())
                    .filter(|s| s.kind != SliceKind::Single && (s.pin, s.edge) == (id.pin, id.edge))
                    .map(|s| (s, dep.clone())),
            );
        }
        let mut demoted = 0usize;
        for (victim, reason) in victims {
            if !self.remove(victim) {
                continue;
            }
            let _ = obs::event("char.slice.degraded")
                .arg("kind", format_args!("{:?}", victim.kind))
                .arg("pin", victim.pin)
                .arg("edge", format_args!("{:?}", victim.edge))
                .arg("source", "audit");
            self.degraded.push(DegradedSlice {
                kind: victim.kind,
                pin: victim.pin,
                edge: victim.edge,
                reason,
            });
            demoted += 1;
        }
        demoted
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct PatchStats {
    patched: usize,
    failed: usize,
    sims: usize,
}

// ---------------------------------------------------------------------------
// Test-only tamper hook
// ---------------------------------------------------------------------------

impl ProximityModel {
    /// Test-only corruption hook: overwrites one stored table entry of the
    /// first slice of kind `slice` on `(pin, edge)` so audit/repair suites
    /// can inject the silent corruption the audit is built to catch.
    /// Returns the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] when the slice or the table
    /// does not exist and [`ModelError::Audit`] when the index is out of
    /// range or the value non-finite.
    #[doc(hidden)]
    pub fn tamper_table_value(
        &mut self,
        slice: SliceKind,
        pin: usize,
        edge: Edge,
        table: TableRole,
        index: usize,
        value: f64,
    ) -> Result<f64, ModelError> {
        let missing = || ModelError::InvalidQuery {
            detail: format!("no {slice:?} slice with a {table:?} table for pin {pin} {edge:?}"),
        };
        let id = self
            .slices()
            .map(|s| s.id())
            .find(|id| (id.kind, id.pin, id.edge) == (slice, pin, edge))
            .ok_or_else(missing)?;
        let mut handle = self.slice_mut(id).ok_or_else(missing)?;
        let tab = handle.table_mut(table).ok_or_else(missing)?;
        let old = *tab.values().get(index).ok_or_else(|| ModelError::Audit {
            detail: format!("tamper index {index} out of range"),
        })?;
        tab.set_value(index, value).map_err(|e| ModelError::Audit {
            detail: e.to_string(),
        })?;
        Ok(old)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn row_outliers_flags_spike_not_curvature() {
        // Smoothly curved row: no findings.
        let smooth: Vec<f64> = (0..9).map(|i| 1.0 + 0.05 * (i as f64).powi(2)).collect();
        assert!(row_outliers(&smooth, &AuditOptions::default()).is_empty());
        // Same row with one tampered spike: the spike is flagged. Its
        // immediate neighbors may flag too (the spike contaminates their
        // midpoint residuals), which is harmless — repair re-simulates
        // them to their original values — but nothing further may.
        let mut spiked = smooth;
        spiked[4] *= 7.0;
        let hits = row_outliers(&spiked, &AuditOptions::default());
        assert!(hits.iter().any(|h| h.0 == 4), "spike not flagged: {hits:?}");
        assert!(hits.iter().all(|h| (3..=5).contains(&h.0)), "{hits:?}");
    }

    #[test]
    fn row_outliers_needs_enough_points() {
        assert!(row_outliers(&[1.0, 100.0, 1.0], &AuditOptions::default()).is_empty());
    }

    #[test]
    fn finding_display_carries_provenance() {
        let f = AuditFinding {
            check: AuditCheck::Positivity,
            slice: SliceKind::Dual,
            pin: 1,
            edge: Edge::Rising,
            partner: Some(0),
            table: TableRole::Delay,
            index: Some(37),
            stimulus: vec![1.0, 2.0, 0.5],
            value: -0.25,
            expected: "> 0".into(),
        };
        let s = f.to_string();
        for needle in ["positivity", "Dual", "pin 1", "partner 0", "[37]", "> 0"] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
