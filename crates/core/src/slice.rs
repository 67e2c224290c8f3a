//! One handle for every table slice of a model.
//!
//! A characterized model is a set of per-pin slices: §3's single-input
//! tables and dual-input ratio tables, §6's glitch-peak tables, and the
//! NLDM load–slew surfaces beside them. This module is the one place that
//! knows which slices a model holds and how each one is named
//! ([`SliceId`]), enumerated into simulation jobs and assembled from their
//! outcomes, read and patched table by table ([`Slice`], [`TableRole`]),
//! and removed. Characterization, [`crate::audit`], validation and repair
//! all reach the tables through it.

use crate::algorithm::CorrectionTerm;
use crate::characterize::{CharacterizeOptions, Simulator};
use crate::checkpoint::CheckpointJournal;
use crate::dual::DualInputModel;
use crate::error::ModelError;
use crate::glitch::GlitchModel;
use crate::jobs::{execute_jobs_controlled, first_error, record_batch, JobOutcome, SimJob};
use crate::measure::{InputEvent, Scenario};
use crate::model::{eidx, note_degraded, DegradedSlice, ProximityModel, SliceKind, EDGES};
use crate::nldm::LoadSlewModel;
use crate::single::SingleInputModel;
use proxim_cells::Cell;
use proxim_numeric::pwl::Edge;
use proxim_numeric::GridTable;
use proxim_obs as obs;
use std::fmt;
use std::ops::Range;

/// Which table of a slice a value lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRole {
    /// The delay (or delay-ratio) table of the slice.
    Delay,
    /// The transition-time (or transition-ratio) table of the slice.
    Transition,
    /// The normalized glitch-peak table.
    Peak,
}

/// The name of one slice of a model. Ordered by kind (singles first, so a
/// repair renormalizes duals against already repaired singles), then pin,
/// edge and partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId {
    /// What kind of slice this is.
    pub kind: SliceKind,
    /// The slice's pin: the dominant pin of a dual, the causer of a glitch
    /// table, the reference pin of a correction term.
    pub pin: usize,
    /// The slice's input edge (the causer's edge for a glitch table, the
    /// output edge for a correction term).
    pub edge: Edge,
    /// The dual partner or glitch blocker pin.
    pub partner: Option<usize>,
}

impl SliceId {
    /// A slice name with no partner pin.
    pub fn new(kind: SliceKind, pin: usize, edge: Edge) -> Self {
        Self {
            kind,
            pin,
            edge,
            partner: None,
        }
    }

    /// A dual or glitch slice name: `pin` against `partner`.
    pub fn pair(kind: SliceKind, pin: usize, edge: Edge, partner: usize) -> Self {
        Self {
            partner: Some(partner),
            ..Self::new(kind, pin, edge)
        }
    }

    fn partner_pin(&self) -> Result<usize, ModelError> {
        self.partner
            .ok_or_else(|| ModelError::Table(format!("{self} names no partner pin")))
    }
}

/// `Kind.pin.Edge[.partner]`, with no spaces, so it can name a checkpoint
/// journal phase.
impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}.{}.{:?}", self.kind, self.pin, self.edge)?;
        match self.partner {
            Some(p) => write!(f, ".{p}"),
            None => Ok(()),
        }
    }
}

/// Read access to one slice of a model.
#[derive(Debug, Clone, Copy)]
pub enum Slice<'a> {
    /// A single-input macromodel (§3).
    Single(&'a SingleInputModel),
    /// A dual-input proximity table pair (§3).
    Dual(&'a DualInputModel),
    /// An NLDM load–slew surface pair.
    LoadSlew(&'a LoadSlewModel),
    /// A glitch-peak table (§6).
    Glitch(&'a GlitchModel),
}

impl<'a> Slice<'a> {
    /// The slice's name.
    pub fn id(&self) -> SliceId {
        match *self {
            Self::Single(s) => SliceId::new(SliceKind::Single, s.pin, s.input_edge),
            Self::Dual(d) => SliceId::pair(SliceKind::Dual, d.pin, d.input_edge, d.partner),
            Self::LoadSlew(m) => SliceId::new(SliceKind::LoadSlew, m.pin, m.input_edge),
            Self::Glitch(g) => SliceId::pair(SliceKind::Glitch, g.causer, g.causer_edge, g.blocker),
        }
    }

    /// The slice's tables, by role.
    pub fn tables(&self) -> Vec<(TableRole, &'a dyn GridTable)> {
        let pair = |d: &'a dyn GridTable, t: &'a dyn GridTable| {
            vec![(TableRole::Delay, d), (TableRole::Transition, t)]
        };
        match *self {
            Self::Single(s) => pair(&s.delay_table, &s.trans_table),
            Self::Dual(d) => pair(&d.delay_ratio, &d.trans_ratio),
            Self::LoadSlew(m) => pair(&m.delay, &m.trans),
            Self::Glitch(g) => vec![(TableRole::Peak, &g.peak)],
        }
    }
}

/// Write access to one slice's tables, one entry at a time.
pub(crate) enum SliceMut<'a> {
    Single(&'a mut SingleInputModel),
    Dual(&'a mut DualInputModel),
    LoadSlew(&'a mut LoadSlewModel),
    Glitch(&'a mut GlitchModel),
}

impl SliceMut<'_> {
    /// The slice's table in `role`, if it has one.
    pub(crate) fn table_mut(&mut self, role: TableRole) -> Option<&mut dyn GridTable> {
        use TableRole::{Delay, Peak, Transition};
        Some(match (self, role) {
            (Self::Single(s), Delay) => &mut s.delay_table,
            (Self::Single(s), Transition) => &mut s.trans_table,
            (Self::Dual(d), Delay) => &mut d.delay_ratio,
            (Self::Dual(d), Transition) => &mut d.trans_ratio,
            (Self::LoadSlew(m), Delay) => &mut m.delay,
            (Self::LoadSlew(m), Transition) => &mut m.trans,
            (Self::Glitch(g), Peak) => &mut g.peak,
            _ => return None,
        })
    }
}

/// An assembled slice, ready to go into its model.
pub(crate) enum Built {
    Single(SingleInputModel),
    Dual(DualInputModel),
    LoadSlew(LoadSlewModel),
    Glitch(GlitchModel),
}

/// What enumeration and assembly read besides a slice's name: the
/// simulator (thresholds, reference load, technology), the options' grids,
/// and the single-input models the dual and glitch tables normalize by.
pub(crate) struct SliceCtx<'a> {
    pub(crate) sim: &'a Simulator<'a>,
    pub(crate) opts: &'a CharacterizeOptions,
    pub(crate) singles: &'a [[Option<SingleInputModel>; 2]],
}

impl<'a> SliceCtx<'a> {
    fn single(&self, id: SliceId) -> Result<&'a SingleInputModel, ModelError> {
        self.singles
            .get(id.pin)
            .and_then(|s| s[eidx(id.edge)].as_ref())
            .ok_or_else(|| ModelError::Table(format!("{id} lost its single-input model")))
    }

    fn load_grid(&self) -> Result<&'a [f64], ModelError> {
        self.opts
            .load_grid
            .as_deref()
            .ok_or_else(|| ModelError::Table("load-slew slice without a load grid".into()))
    }
}

fn not_a_table(id: SliceId) -> ModelError {
    ModelError::Table(format!("{id} is not a table slice"))
}

/// The slice's characterization grid as simulation jobs, in the order
/// [`assemble`] consumes their outcomes (each kind's `enumerate`).
pub(crate) fn jobs(id: SliceId, ctx: &SliceCtx<'_>) -> Result<Vec<SimJob>, ModelError> {
    let (o, sim) = (ctx.opts, ctx.sim);
    Ok(match id.kind {
        SliceKind::Single => SingleInputModel::enumerate(id.pin, id.edge, &o.tau_grid)?,
        SliceKind::Dual => DualInputModel::enumerate(
            &sim.thresholds,
            sim.c_load,
            ctx.single(id)?,
            id.partner_pin()?,
            &o.dual_u_grid,
            &o.dual_v_grid,
            &o.dual_w_grid,
        ),
        SliceKind::LoadSlew => {
            LoadSlewModel::enumerate(id.pin, id.edge, &o.tau_grid, ctx.load_grid()?)?
        }
        SliceKind::Glitch => GlitchModel::enumerate(
            &sim.thresholds,
            sim.c_load,
            ctx.single(id)?,
            id.partner_pin()?,
            &o.glitch_u_grid,
            &o.glitch_v_grid,
            &o.glitch_w_grid,
        ),
        SliceKind::Correction => return Err(not_a_table(id)),
    })
}

/// Builds the slice from the outcomes of its [`jobs`], in order (each
/// kind's `assemble`).
pub(crate) fn assemble(
    id: SliceId,
    ctx: &SliceCtx<'_>,
    outcomes: &[&JobOutcome],
) -> Result<Built, ModelError> {
    let (o, sim) = (ctx.opts, ctx.sim);
    Ok(match id.kind {
        SliceKind::Single => Built::Single(SingleInputModel::assemble(
            sim,
            id.pin,
            id.edge,
            &o.tau_grid,
            outcomes,
        )?),
        SliceKind::Dual => Built::Dual(DualInputModel::assemble(
            sim.c_load,
            ctx.single(id)?,
            id.partner_pin()?,
            &o.dual_u_grid,
            &o.dual_v_grid,
            &o.dual_w_grid,
            outcomes,
        )?),
        SliceKind::LoadSlew => Built::LoadSlew(LoadSlewModel::assemble(
            id.pin,
            id.edge,
            &o.tau_grid,
            ctx.load_grid()?,
            outcomes,
        )?),
        SliceKind::Glitch => Built::Glitch(GlitchModel::assemble(
            sim.tech.vdd,
            ctx.single(id)?,
            id.partner_pin()?,
            &o.glitch_u_grid,
            &o.glitch_v_grid,
            &o.glitch_w_grid,
            outcomes,
        )?),
        SliceKind::Correction => return Err(not_a_table(id)),
    })
}

/// The single-input slices a characterization of `cell` builds: every
/// `(pin, edge)` that flips the output on its own.
pub(crate) fn single_ids(cell: &Cell, opts: &CharacterizeOptions) -> Vec<SliceId> {
    let mut ids = Vec::new();
    for pin in 0..cell.input_count() {
        for edge in EDGES {
            let probe = [InputEvent::new(pin, edge, 0.0, opts.tau_grid[0])];
            if Scenario::resolve(cell, &probe).is_ok() {
                ids.push(SliceId::new(SliceKind::Single, pin, edge));
            }
        }
    }
    ids
}

/// The slices built on the characterized `singles`, in job order: the dual
/// tables, then the NLDM surfaces, then the glitch tables.
pub(crate) fn pair_ids(
    cell: &Cell,
    opts: &CharacterizeOptions,
    singles: &[[Option<SingleInputModel>; 2]],
) -> Vec<SliceId> {
    let n = cell.input_count();
    let has = |pin: usize, edge: Edge| singles[pin][eidx(edge)].is_some();
    let mut ids = Vec::new();
    for pin in 0..n {
        for edge in EDGES.into_iter().filter(|&e| n >= 2 && has(pin, e)) {
            // One partner per pin (the paper's 2n scheme), optionally the
            // full matrix: the first resolvable partner takes the primary
            // slot, the rest go to the extras.
            for partner in (1..n).map(|k| (pin + k) % n) {
                let probe = [
                    InputEvent::new(pin, edge, 0.0, opts.tau_grid[0]),
                    InputEvent::new(partner, edge, 0.0, opts.tau_grid[0]),
                ];
                if Scenario::resolve(cell, &probe).is_err() {
                    continue;
                }
                ids.push(SliceId::pair(SliceKind::Dual, pin, edge, partner));
                if !opts.full_pair_matrix {
                    break;
                }
            }
        }
    }
    if opts.load_grid.is_some() {
        for pin in 0..n {
            for edge in EDGES.into_iter().filter(|&e| has(pin, e)) {
                ids.push(SliceId::new(SliceKind::LoadSlew, pin, edge));
            }
        }
    }
    if opts.glitch && n >= 2 {
        let (causer, blocker) = (1, 0);
        for edge in EDGES.into_iter().filter(|&e| has(causer, e)) {
            ids.push(SliceId::pair(SliceKind::Glitch, causer, edge, blocker));
        }
    }
    ids
}

/// Whether a stored table axis matches a characterization grid, bit-exact
/// (optionally through the same `ln` mapping the assemblers applied).
fn axes_match(axis: &[f64], grid: &[f64], ln: bool) -> bool {
    axis.len() == grid.len()
        && axis.iter().zip(grid).all(|(&a, &g)| {
            let g = if ln { g.ln() } else { g };
            a.to_bits() == g.to_bits()
        })
}

impl ProximityModel {
    /// Every table slice the model holds: singles, duals (primary slots,
    /// then the full-matrix extras), NLDM surfaces, glitch tables.
    pub fn slices(&self) -> impl Iterator<Item = Slice<'_>> {
        let singles = self.singles.iter().flatten().flatten();
        let duals = self.duals.iter().flatten().flatten();
        let nldm = self.nldm.iter().flatten().flatten();
        singles
            .map(Slice::Single)
            .chain(duals.chain(&self.extra_duals).map(Slice::Dual))
            .chain(nldm.map(Slice::LoadSlew))
            .chain(self.glitches.iter().map(Slice::Glitch))
    }

    /// The slice named `id`, if the model holds it.
    pub fn slice(&self, id: SliceId) -> Option<Slice<'_>> {
        self.slices().find(|s| s.id() == id)
    }

    /// Write access to the slice named `id`.
    pub(crate) fn slice_mut(&mut self, id: SliceId) -> Option<SliceMut<'_>> {
        let e = eidx(id.edge);
        let same = |s: Slice<'_>| s.id() == id;
        Some(match id.kind {
            SliceKind::Single => SliceMut::Single(self.singles.get_mut(id.pin)?[e].as_mut()?),
            SliceKind::Dual => {
                let slot = &mut self.duals.get_mut(id.pin)?[e];
                SliceMut::Dual(match slot {
                    Some(d) if same(Slice::Dual(d)) => d,
                    _ => self.extra_duals.iter_mut().find(|d| same(Slice::Dual(d)))?,
                })
            }
            SliceKind::LoadSlew => SliceMut::LoadSlew(self.nldm.get_mut(id.pin)?[e].as_mut()?),
            SliceKind::Glitch => {
                SliceMut::Glitch(self.glitches.iter_mut().find(|g| same(Slice::Glitch(g)))?)
            }
            SliceKind::Correction => return None,
        })
    }

    /// Removes the slice named `id`; a correction term falls back to the
    /// uncorrected composition. Returns whether anything was removed.
    pub(crate) fn remove(&mut self, id: SliceId) -> bool {
        let e = eidx(id.edge);
        let same = |s: Slice<'_>| s.id() == id;
        match id.kind {
            SliceKind::Single => self
                .singles
                .get_mut(id.pin)
                .and_then(|s| s[e].take())
                .is_some(),
            SliceKind::LoadSlew => self
                .nldm
                .get_mut(id.pin)
                .and_then(|s| s[e].take())
                .is_some(),
            SliceKind::Dual => {
                if let Some(slot) = self.duals.get_mut(id.pin).map(|s| &mut s[e]) {
                    if slot.as_ref().is_some_and(|d| same(Slice::Dual(d))) {
                        *slot = None;
                        return true;
                    }
                }
                let before = self.extra_duals.len();
                self.extra_duals.retain(|d| !same(Slice::Dual(d)));
                self.extra_duals.len() != before
            }
            SliceKind::Glitch => {
                let before = self.glitches.len();
                self.glitches.retain(|g| !same(Slice::Glitch(g)));
                self.glitches.len() != before
            }
            SliceKind::Correction => {
                self.corrections[e] = CorrectionTerm::default();
                true
            }
        }
    }

    fn insert(&mut self, built: Built) {
        match built {
            Built::Single(s) => {
                let (pin, e) = (s.pin, eidx(s.input_edge));
                self.singles[pin][e] = Some(s);
            }
            Built::Dual(d) => match &mut self.duals[d.pin][eidx(d.input_edge)] {
                slot @ None => *slot = Some(d),
                Some(_) => self.extra_duals.push(d),
            },
            Built::LoadSlew(m) => {
                let (pin, e) = (m.pin, eidx(m.input_edge));
                self.nldm[pin][e] = Some(m);
            }
            Built::Glitch(g) => self.glitches.push(g),
        }
    }

    /// Characterizes the slices `ids` as one job batch (journaled under
    /// `checkpoint`'s phase) and inserts them; a slice whose jobs fail with
    /// a data-dependent error is recorded as degraded instead.
    pub(crate) fn build_slices(
        &mut self,
        sim: &Simulator<'_>,
        opts: &CharacterizeOptions,
        ids: &[SliceId],
        threads: usize,
        checkpoint: Option<(&CheckpointJournal, &str)>,
        reg: &obs::Registry,
    ) -> Result<(), ModelError> {
        let ctx = SliceCtx {
            sim,
            opts,
            singles: &self.singles,
        };
        let mut all: Vec<SimJob> = Vec::new();
        let mut spans: Vec<Range<usize>> = Vec::with_capacity(ids.len());
        for &id in ids {
            let start = all.len();
            all.extend(jobs(id, &ctx)?);
            spans.push(start..all.len());
        }
        let batch = execute_jobs_controlled(sim, &all, threads, checkpoint);
        record_batch(reg, all.len(), &batch);
        let mut built = Vec::with_capacity(ids.len());
        for (&id, span) in ids.iter().zip(spans) {
            built.push(match first_error(&batch.outcomes[span]) {
                Ok(ok) => Ok(assemble(id, &ctx, &ok)?),
                Err(e) if e.is_slice_degradable() => Err(DegradedSlice {
                    kind: id.kind,
                    pin: id.pin,
                    edge: id.edge,
                    reason: e.to_string(),
                }),
                Err(e) => return Err(e),
            });
        }
        for b in built {
            match b {
                Ok(slice) => self.insert(slice),
                Err(d) => {
                    note_degraded(reg, &d);
                    self.degraded.push(d);
                }
            }
        }
        Ok(())
    }

    /// The index, in the slice's [`jobs`], of the job behind each flat
    /// table index in `indices`; `None` when `opts` does not reproduce the
    /// slice's grid bit for bit.
    pub(crate) fn job_indices(
        &self,
        id: SliceId,
        opts: &CharacterizeOptions,
        indices: &[usize],
    ) -> Option<Vec<usize>> {
        let has_single = self.single_model(id.pin, id.edge).is_some();
        let grid_matches = match self.slice(id)? {
            // The single's axis is u-sorted and deduplicated: map each
            // table index back to the τ producing exactly that u.
            Slice::Single(s) => {
                let u_of_tau: Vec<u64> = opts
                    .tau_grid
                    .iter()
                    .map(|&tau| s.u(tau, self.c_ref).to_bits())
                    .collect();
                let xs = s.delay_table.xs();
                return indices
                    .iter()
                    .map(|&i| {
                        let u = xs.get(i)?.to_bits();
                        u_of_tau.iter().position(|&b| b == u)
                    })
                    .collect();
            }
            Slice::Dual(d) => {
                let t = &d.delay_ratio;
                has_single
                    && axes_match(t.ax(), &opts.dual_u_grid, true)
                    && axes_match(t.ay(), &opts.dual_v_grid, true)
                    && axes_match(t.az(), &opts.dual_w_grid, false)
            }
            Slice::LoadSlew(m) => {
                let t = &m.delay;
                opts.load_grid.as_ref().is_some_and(|loads| {
                    axes_match(t.ax(), &opts.tau_grid, true) && axes_match(t.ay(), loads, true)
                })
            }
            Slice::Glitch(g) => {
                let t = &g.peak;
                has_single
                    && axes_match(t.ax(), &opts.glitch_u_grid, true)
                    && axes_match(t.ay(), &opts.glitch_v_grid, true)
                    && axes_match(t.az(), &opts.glitch_w_grid, false)
            }
        };
        grid_matches.then(|| indices.to_vec())
    }

    /// Writes the outcome of job `job` into flat table index `idx` of the
    /// slice, with the arithmetic its assembler used, so a clean
    /// re-simulation reproduces the clean-run bytes exactly.
    pub(crate) fn patch(
        &mut self,
        id: SliceId,
        idx: usize,
        job: usize,
        outcome: &JobOutcome,
        opts: &CharacterizeOptions,
    ) -> Result<(), ModelError> {
        let pair = |(d, t): (f64, f64)| vec![(TableRole::Delay, d), (TableRole::Transition, t)];
        let values = match self.slice(id).ok_or_else(|| not_a_table(id))? {
            Slice::Single(_) => pair(SingleInputModel::point(opts.tau_grid[job], outcome)?),
            Slice::Dual(_) => {
                let single = self.single_model(id.pin, id.edge).ok_or_else(|| {
                    ModelError::Table(format!("{id} lost its single-input model"))
                })?;
                let row = idx / (opts.dual_v_grid.len() * opts.dual_w_grid.len());
                let scale = DualInputModel::row_scale(single, self.c_ref, opts.dual_u_grid[row]);
                pair(DualInputModel::point(scale, outcome)?)
            }
            Slice::LoadSlew(_) => pair(outcome.response()?),
            Slice::Glitch(g) => vec![(TableRole::Peak, GlitchModel::point(g.vdd, outcome)?)],
        };
        let mut slice = self.slice_mut(id).ok_or_else(|| not_a_table(id))?;
        for (role, value) in values {
            slice
                .table_mut(role)
                .ok_or_else(|| not_a_table(id))?
                .set_value(idx, value)
                .map_err(|e| ModelError::Audit {
                    detail: format!("repair patch rejected: {e}"),
                })?;
        }
        Ok(())
    }

    /// Total stored table entries across all macromodels — the storage cost
    /// this model actually pays (Fig. 4-2 accounting).
    pub fn table_entries(&self) -> usize {
        self.slices()
            .flat_map(|s| s.tables())
            .map(|(_, t)| t.values().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_match_is_bit_exact() {
        let grid = [0.15f64, 1.1, 9.0];
        let ln_axis: Vec<f64> = grid.iter().map(|g| g.ln()).collect();
        assert!(axes_match(&ln_axis, &grid, true));
        assert!(axes_match(&grid, &grid, false));
        let mut off = ln_axis;
        off[1] += 1e-16;
        assert!(!axes_match(&off, &grid, true));
        assert!(!axes_match(&grid[..2], &grid, false));
    }

    #[test]
    fn slice_ids_order_singles_first_and_name_journal_phases() {
        let single = SliceId::new(SliceKind::Single, 2, Edge::Falling);
        let dual = SliceId::pair(SliceKind::Dual, 0, Edge::Rising, 1);
        assert!(
            single < dual,
            "singles repair before the duals they normalize"
        );
        assert_eq!(dual.to_string(), "Dual.0.Rising.1");
        assert!(!single.to_string().contains(' '));
    }
}
