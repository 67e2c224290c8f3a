//! The characterized proximity model and its query API.
//!
//! [`ProximityModel::characterize`] runs the complete flow of the paper:
//! VTC-family extraction and threshold selection (§2), single-input and
//! dual-input macromodel construction (§3), the simultaneous-step correction
//! term (§4), and optionally the glitch model (§6). The result answers
//! timing queries for arbitrary multi-input switching scenarios via
//! [`ProximityModel::gate_timing`].

use crate::algorithm::{compose, CorrectionTerm};
use crate::characterize::{CharacterizeOptions, Simulator};
use crate::checkpoint::{CheckpointJournal, RunControl};
use crate::dominance::{rank_for_scenario, RankedEvent};
use crate::dual::DualInputModel;
use crate::error::ModelError;
use crate::glitch::GlitchModel;
use crate::jobs::{
    bump, execute_jobs_controlled, first_error, metric, record_batch, CharStats, PhaseTimes, SimJob,
};
use crate::measure::{InputEvent, Scenario};
use crate::nldm::LoadSlewModel;
use crate::single::SingleInputModel;
use crate::thresholds::{extract_vtc_family_cancellable, Thresholds, VtcFamily};
use proxim_cells::{Cell, Technology};
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use proxim_obs::json::{FromJson, ToJson};
use std::time::Instant;

/// The model's answer for one gate switching scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTiming {
    /// The input pin the delay is referenced to (the dominant input).
    pub reference_pin: usize,
    /// Propagation delay from that pin's threshold crossing, in seconds.
    pub delay: f64,
    /// Output transition time between `V_il` and `V_ih`, in seconds.
    pub output_transition: f64,
    /// Absolute output arrival time, in seconds.
    pub output_arrival: f64,
    /// The output transition direction.
    pub output_edge: Edge,
    /// Number of inputs that fell inside the proximity window.
    pub inputs_in_window: usize,
    /// `Some` when the answer was produced by a documented fallback
    /// because a characterization slice was degraded (see
    /// [`ProximityModel::degraded_slices`]); `None` for full-fidelity
    /// answers.
    pub degradation: Option<DegradedReason>,
}

/// Why a [`GateTiming`] answer fell back to a lower-fidelity path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The dual-input proximity table for the dominant pin was degraded
    /// during characterization; the query composed single-input responses
    /// only — the paper's exact behaviour outside the proximity window
    /// (`s_ij >= Δ_i⁽¹⁾`), approximate inside it.
    DualSliceMissing,
    /// The NLDM load–slew surface was degraded; an off-reference-load
    /// query used the fixed-load dimensionless form instead.
    NldmSliceMissing,
}

/// Which kind of characterization slice a [`DegradedSlice`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum SliceKind {
    /// A single-input macromodel (§3).
    Single,
    /// A dual-input proximity table (§3).
    Dual,
    /// An NLDM-style load–slew surface.
    LoadSlew,
    /// A glitch peak table (§6).
    Glitch,
    /// A simultaneous-step correction term (§4).
    Correction,
}

/// Provenance for one characterization slice that failed and was dropped
/// instead of failing the whole characterization.
///
/// Only *data-dependent* failures degrade
/// ([`ModelError::is_slice_degradable`]); configuration errors still fail
/// [`ProximityModel::characterize`] outright.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct DegradedSlice {
    /// What kind of slice was lost.
    pub kind: SliceKind,
    /// The pin the slice belonged to (the dominant pin for duals, the
    /// causer for glitches, the reference pin for corrections).
    pub pin: usize,
    /// The input edge the slice covered.
    pub edge: Edge,
    /// The rendered error that killed the slice's jobs.
    pub reason: String,
}

pub(crate) fn eidx(edge: Edge) -> usize {
    match edge {
        Edge::Rising => 0,
        Edge::Falling => 1,
    }
}

/// Books one degraded slice: counter (run + global mirror) and trace event.
fn note_degraded(reg: &obs::Registry, d: &DegradedSlice) {
    bump(reg, metric::DEGRADED_SLICES, 1);
    let _ = obs::event("char.slice.degraded")
        .arg("kind", format_args!("{:?}", d.kind))
        .arg("pin", d.pin)
        .arg("edge", format_args!("{:?}", d.edge));
}

/// A fully characterized temporal-proximity model for one cell.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct ProximityModel {
    pub(crate) cell: Cell,
    pub(crate) tech: Technology,
    pub(crate) thresholds: Thresholds,
    pub(crate) vtc: VtcFamily,
    pub(crate) c_ref: f64,
    pub(crate) dv_max: f64,
    /// `singles[pin][input-edge index]`.
    pub(crate) singles: Vec<[Option<SingleInputModel>; 2]>,
    /// `duals[pin][input-edge index]` — the paper's `2n` scheme.
    pub(crate) duals: Vec<[Option<DualInputModel>; 2]>,
    /// Extra pair models when the full matrix was requested (ablation).
    pub(crate) extra_duals: Vec<DualInputModel>,
    /// `corrections[output-edge index]`.
    pub(crate) corrections: [CorrectionTerm; 2],
    /// Calibrated full-swing ramp-stretch factors, by output-edge index
    /// (see [`crate::calibrate`]).
    pub(crate) ramp_stretch: [f64; 2],
    /// Optional NLDM-style load-slew surfaces, `[pin][input-edge index]`.
    pub(crate) nldm: Vec<[Option<LoadSlewModel>; 2]>,
    /// Glitch models, at most one per causer edge.
    pub(crate) glitches: Vec<GlitchModel>,
    /// Slices that failed characterization and were dropped with
    /// provenance instead of failing the whole model.
    pub(crate) degraded: Vec<DegradedSlice>,
}

impl ProximityModel {
    /// Characterizes a cell against the circuit simulator.
    ///
    /// This is the expensive call: it runs the VTC sweeps and every
    /// characterization transient. With [`CharacterizeOptions::default`] on
    /// a 3-input gate expect a few thousand transient analyses.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if any underlying simulation fails or a
    /// table cannot be built.
    pub fn characterize(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
    ) -> Result<Self, ModelError> {
        Self::characterize_with_stats(cell, tech, opts).map(|(model, _)| model)
    }

    /// [`ProximityModel::characterize`] with execution telemetry: worker
    /// count, simulation volume, and per-phase wall-clock (see
    /// [`CharStats`]).
    ///
    /// Characterization runs as an enumerate → execute → assemble pipeline
    /// ([`crate::jobs`]): all independent transients of a phase are
    /// enumerated first, executed across `opts.jobs` worker threads, and
    /// assembled by job index — so the result is byte-identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if any underlying simulation fails or a
    /// table cannot be built.
    pub fn characterize_with_stats(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
    ) -> Result<(Self, CharStats), ModelError> {
        Self::characterize_controlled(cell, tech, opts, &RunControl::new())
    }

    /// [`ProximityModel::characterize_with_stats`] under a [`RunControl`]:
    ///
    /// - The control's [`CancelToken`](proxim_spice::CancelToken) is honored
    ///   cooperatively at phase, job, transient-step, and Newton-iteration
    ///   boundaries. A tripped token unwinds with a typed cancellation error
    ///   ([`ModelError::is_cancellation`]) — never a panic, and never a
    ///   half-assembled model.
    /// - When a [`CheckpointConfig`](crate::checkpoint::CheckpointConfig) is
    ///   set, every completed job is journaled as it finishes; re-running
    ///   with the same inputs and journal skips the journaled jobs
    ///   ([`CharStats::checkpoint_skipped`]) and produces the **byte
    ///   identical** model of an uninterrupted run (outcomes are stored
    ///   bit-exactly and assembly is index-ordered).
    ///
    /// # Errors
    ///
    /// As [`ProximityModel::characterize_with_stats`], plus typed
    /// cancellation errors and [`ModelError::Persist`] when the journal
    /// cannot be opened.
    pub fn characterize_controlled(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        control: &RunControl,
    ) -> Result<(Self, CharStats), ModelError> {
        // Arm the flight recorder from the environment (PROXIM_FLIGHT):
        // long characterization runs get the same post-mortem black box as
        // the daemon, without asking for a full trace file.
        obs::flight::init_from_env();
        let journal = match &control.checkpoint {
            Some(cfg) => {
                let key = crate::persist::ModelCache::key(cell, tech, opts)?;
                Some(CheckpointJournal::open(cfg, key)?)
            }
            None => None,
        };
        let result = Self::characterize_inner(cell, tech, opts, &control.cancel, journal.as_ref());
        // The journal is made durable on *every* exit path — success,
        // failure, and cooperative cancellation (a SIGTERM handler that
        // cancels the token gets its final checkpoint flush here).
        if let Some(j) = &journal {
            j.flush();
        }
        // The flight dump rides the same every-exit-path guarantee: if a
        // dump path is armed, the ring's view of this run lands on disk
        // whether the run finished, failed, or was cancelled.
        if let Some(path) = obs::flight::armed_dump_path() {
            let _ = crate::persist::atomic_write(&path, obs::flight::dump().as_bytes());
        }
        result
    }

    fn characterize_inner(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        cancel: &proxim_spice::CancelToken,
        journal: Option<&CheckpointJournal>,
    ) -> Result<(Self, CharStats), ModelError> {
        let threads = opts.worker_threads();
        // Every counter of the run is booked into this registry (and
        // mirrored to the global one when metrics are on); the CharStats
        // returned to the caller is a snapshot view of it.
        let reg = obs::Registry::new();
        let mut phases = PhaseTimes::default();
        let run_span = obs::span("char.characterize")
            .arg("inputs", cell.input_count())
            .arg("threads", threads);
        let n = cell.input_count();

        // Phase 1 (sequential): VTC family and threshold selection (§2).
        let t0 = Instant::now();
        let phase_span = obs::span("char.phase.vtc");
        let vtc = extract_vtc_family_cancellable(cell, tech, opts.c_load, opts.vtc_points, cancel)?;
        let thresholds = vtc.thresholds();
        let sim = Simulator::new(cell, tech, thresholds, opts.c_load, opts.dv_max)
            .with_cancel(cancel.clone());
        drop(phase_span);
        phases.vtc = t0.elapsed().as_secs_f64();

        // Phase 2: single-input macromodels for every sensitizable
        // (pin, edge), as one job batch.
        cancel.check("characterization")?;
        let t0 = Instant::now();
        let phase_span = obs::span("char.phase.singles");
        let mut single_specs: Vec<(usize, Edge)> = Vec::new();
        let mut jobs: Vec<SimJob> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for pin in 0..n {
            for edge in [Edge::Rising, Edge::Falling] {
                let probe = [InputEvent::new(pin, edge, 0.0, opts.tau_grid[0])];
                if Scenario::resolve(cell, &probe).is_ok() {
                    let js = SingleInputModel::enumerate(pin, edge, &opts.tau_grid)?;
                    spans.push((jobs.len(), js.len()));
                    jobs.extend(js);
                    single_specs.push((pin, edge));
                }
            }
        }
        let batch = execute_jobs_controlled(&sim, &jobs, threads, journal.map(|j| (j, "singles")));
        record_batch(&reg, jobs.len(), &batch);
        let mut degraded: Vec<DegradedSlice> = Vec::new();
        let mut singles: Vec<[Option<SingleInputModel>; 2]> = vec![[None, None]; n];
        for (&(pin, edge), &(start, len)) in single_specs.iter().zip(&spans) {
            match first_error(&batch.outcomes[start..start + len]) {
                Ok(ok) => {
                    singles[pin][eidx(edge)] = Some(SingleInputModel::assemble(
                        &sim,
                        pin,
                        edge,
                        &opts.tau_grid,
                        &ok,
                    )?);
                }
                // A degraded single also suppresses every slice that would
                // have been built on top of it: phase 3 skips missing
                // singles.
                Err(e) if e.is_slice_degradable() => {
                    let d = DegradedSlice {
                        kind: SliceKind::Single,
                        pin,
                        edge,
                        reason: e.to_string(),
                    };
                    note_degraded(&reg, &d);
                    degraded.push(d);
                }
                Err(e) => return Err(e),
            }
        }
        drop(phase_span);
        phases.singles = t0.elapsed().as_secs_f64();

        // Phase 3: everything whose grid depends only on the singles —
        // dual-input proximity tables, NLDM load-slew surfaces, and glitch
        // extremum tables — fans out as one combined batch, so the slow
        // glitch transients overlap the cheap dual rows.
        cancel.check("characterization")?;
        let t0 = Instant::now();
        let phase_span = obs::span("char.phase.pairs");
        enum PairSpec {
            Dual {
                pin: usize,
                edge: Edge,
                partner: usize,
            },
            Nldm {
                pin: usize,
                edge: Edge,
            },
            Glitch {
                causer: usize,
                edge: Edge,
                blocker: usize,
            },
        }
        let mut specs: Vec<PairSpec> = Vec::new();
        let mut jobs: Vec<SimJob> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        if n >= 2 {
            for (pin, pin_singles) in singles.iter().enumerate() {
                for edge in [Edge::Rising, Edge::Falling] {
                    let Some(single) = pin_singles[eidx(edge)].as_ref() else {
                        continue;
                    };
                    // One partner per pin (the paper's 2n scheme), optionally
                    // the full matrix. Enumeration order matches the old
                    // sequential loop, so the first resolvable partner still
                    // lands in the primary slot and the rest in extra_duals.
                    let partners: Vec<usize> = (1..n).map(|k| (pin + k) % n).collect();
                    for &partner in &partners {
                        let probe = [
                            InputEvent::new(pin, edge, 0.0, opts.tau_grid[0]),
                            InputEvent::new(partner, edge, 0.0, opts.tau_grid[0]),
                        ];
                        if Scenario::resolve(cell, &probe).is_err() {
                            continue;
                        }
                        let js = DualInputModel::enumerate(
                            &thresholds,
                            opts.c_load,
                            single,
                            partner,
                            &opts.dual_u_grid,
                            &opts.dual_v_grid,
                            &opts.dual_w_grid,
                        );
                        spans.push((jobs.len(), js.len()));
                        jobs.extend(js);
                        specs.push(PairSpec::Dual { pin, edge, partner });
                        if !opts.full_pair_matrix {
                            break;
                        }
                    }
                }
            }
        }
        if let Some(load_grid) = &opts.load_grid {
            for (pin, pin_singles) in singles.iter().enumerate() {
                for edge in [Edge::Rising, Edge::Falling] {
                    if pin_singles[eidx(edge)].is_none() {
                        continue;
                    }
                    let js = LoadSlewModel::enumerate(pin, edge, &opts.tau_grid, load_grid)?;
                    spans.push((jobs.len(), js.len()));
                    jobs.extend(js);
                    specs.push(PairSpec::Nldm { pin, edge });
                }
            }
        }
        if opts.glitch && n >= 2 {
            let (causer, blocker) = (1usize.min(n - 1), 0usize);
            for edge in [Edge::Rising, Edge::Falling] {
                let Some(single) = singles[causer][eidx(edge)].as_ref() else {
                    continue;
                };
                let js = GlitchModel::enumerate(
                    cell,
                    &thresholds,
                    opts.c_load,
                    single,
                    blocker,
                    &opts.glitch_u_grid,
                    &opts.glitch_v_grid,
                    &opts.glitch_w_grid,
                )?;
                spans.push((jobs.len(), js.len()));
                jobs.extend(js);
                specs.push(PairSpec::Glitch {
                    causer,
                    edge,
                    blocker,
                });
            }
        }
        let batch = execute_jobs_controlled(&sim, &jobs, threads, journal.map(|j| (j, "pairs")));
        record_batch(&reg, jobs.len(), &batch);

        let mut duals: Vec<[Option<DualInputModel>; 2]> = vec![[None, None]; n];
        let mut extra_duals = Vec::new();
        let mut nldm: Vec<[Option<LoadSlewModel>; 2]> = if opts.load_grid.is_some() {
            vec![[None, None]; n]
        } else {
            Vec::new()
        };
        let mut glitches = Vec::new();
        for (spec, &(start, len)) in specs.iter().zip(&spans) {
            let (kind, pin, edge) = match *spec {
                PairSpec::Dual { pin, edge, .. } => (SliceKind::Dual, pin, edge),
                PairSpec::Nldm { pin, edge } => (SliceKind::LoadSlew, pin, edge),
                PairSpec::Glitch { causer, edge, .. } => (SliceKind::Glitch, causer, edge),
            };
            let ok = match first_error(&batch.outcomes[start..start + len]) {
                Ok(ok) => ok,
                Err(e) if e.is_slice_degradable() => {
                    let d = DegradedSlice {
                        kind,
                        pin,
                        edge,
                        reason: e.to_string(),
                    };
                    note_degraded(&reg, &d);
                    degraded.push(d);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match *spec {
                PairSpec::Dual { pin, edge, partner } => {
                    let Some(single) = singles[pin][eidx(edge)].as_ref() else {
                        return Err(ModelError::Table(
                            "dual assembly lost its single-input model".into(),
                        ));
                    };
                    let m = DualInputModel::assemble(
                        opts.c_load,
                        single,
                        partner,
                        &opts.dual_u_grid,
                        &opts.dual_v_grid,
                        &opts.dual_w_grid,
                        &ok,
                    )?;
                    if duals[pin][eidx(edge)].is_none() {
                        duals[pin][eidx(edge)] = Some(m);
                    } else {
                        extra_duals.push(m);
                    }
                }
                PairSpec::Nldm { pin, edge } => {
                    let Some(load_grid) = opts.load_grid.as_ref() else {
                        return Err(ModelError::Table(
                            "load-slew assembly lost its load grid".into(),
                        ));
                    };
                    nldm[pin][eidx(edge)] = Some(LoadSlewModel::assemble(
                        pin,
                        edge,
                        &opts.tau_grid,
                        load_grid,
                        &ok,
                    )?);
                }
                PairSpec::Glitch {
                    causer,
                    edge,
                    blocker,
                } => {
                    let Some(single) = singles[causer][eidx(edge)].as_ref() else {
                        return Err(ModelError::Table(
                            "glitch assembly lost its single-input model".into(),
                        ));
                    };
                    glitches.push(GlitchModel::assemble(
                        tech.vdd,
                        single,
                        blocker,
                        &opts.glitch_u_grid,
                        &opts.glitch_v_grid,
                        &opts.glitch_w_grid,
                        &ok,
                    )?);
                }
            }
        }
        drop(phase_span);
        phases.pairs = t0.elapsed().as_secs_f64();

        let mut model = Self {
            cell: cell.clone(),
            tech: tech.clone(),
            thresholds,
            vtc,
            c_ref: opts.c_load,
            dv_max: opts.dv_max,
            singles,
            duals,
            extra_duals,
            corrections: [CorrectionTerm::default(); 2],
            ramp_stretch: [1.0; 2],
            nldm,
            glitches,
            degraded,
        };

        // Phase 4 (sequential): the two small calibration passes. Each is a
        // handful of sims with data dependencies on the assembled model, so
        // batching buys nothing. (Not checkpointed: re-running them on
        // resume is cheap and deterministic.)
        cancel.check("characterization")?;
        let t0 = Instant::now();
        let phase_span = obs::span("char.phase.finish");

        // Driver-receiver ramp-stretch calibration: a two-stage self-chain
        // per input edge pins down the equivalent full-swing ramp the next
        // stage actually sees (used by netlist timing).
        for input_edge in [Edge::Rising, Edge::Falling] {
            let Some(single_a) = model.singles[0][eidx(input_edge)].as_ref() else {
                continue;
            };
            let out_edge = single_a.output_edge;
            let Some(single_b) = model.singles[0][eidx(out_edge)].as_ref() else {
                continue;
            };
            // A failed calibration keeps the unit stretch; a cancelled
            // one stops the run.
            match crate::calibrate::calibrate_stretch(
                cell,
                tech,
                &thresholds,
                input_edge,
                single_a,
                single_b,
                opts.c_load,
                opts.dv_max,
                cancel,
            ) {
                Ok(f) => {
                    bump(&reg, metric::SIMS_RUN, 3); // the calibration chain's three sims
                    model.ramp_stretch[eidx(out_edge)] = f;
                }
                Err(e) if e.is_cancellation() => return Err(e),
                Err(_) => {}
            }
        }

        // Correction terms (§4): difference between simulation and the
        // uncorrected composition when near-step signals hit all inputs
        // simultaneously. The fastest characterized τ stands in for the
        // paper's step input so the single-input tables stay in range.
        if n >= 2 {
            let tau_step = opts.tau_grid.iter().copied().fold(f64::INFINITY, f64::min);
            for edge in [Edge::Rising, Edge::Falling] {
                let events: Vec<InputEvent> = (0..n)
                    .map(|p| InputEvent::new(p, edge, 0.0, tau_step))
                    .collect();
                if Scenario::resolve(cell, &events).is_err() {
                    continue;
                }
                let model_t = match model.gate_timing_opts(&events, opts.c_load, false) {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                let Some(k_ref) = events.iter().position(|e| e.pin == model_t.reference_pin) else {
                    return Err(ModelError::Table(
                        "correction reference pin is not among the step events".into(),
                    ));
                };
                let term = (|| -> Result<CorrectionTerm, ModelError> {
                    let r = sim.simulate(&events)?;
                    let d_sim = r.delay_from(k_ref, &thresholds)?;
                    let t_sim = r.transition_time(&thresholds)?;
                    Ok(CorrectionTerm {
                        delay: d_sim - model_t.delay,
                        trans: t_sim - model_t.output_transition,
                    })
                })();
                bump(&reg, metric::SIMS_RUN, 1);
                match term {
                    Ok(term) => {
                        model.corrections[eidx(model_t.output_edge)] = term;
                    }
                    // A lost correction degrades the slice to the
                    // uncorrected composition (the zero default term).
                    Err(e) if e.is_slice_degradable() => {
                        let d = DegradedSlice {
                            kind: SliceKind::Correction,
                            pin: model_t.reference_pin,
                            edge,
                            reason: e.to_string(),
                        };
                        note_degraded(&reg, &d);
                        model.degraded.push(d);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        drop(phase_span);
        phases.finish = t0.elapsed().as_secs_f64();

        // A cancellation that raced the sequential tail (where some errors
        // are deliberately swallowed into fallbacks) still fails typed.
        cancel.check("characterization")?;

        // Post-assembly physics audit (§2 positivity, §3 asymptotes,
        // monotonicity, outlier scan). Telemetry only: findings are counted
        // into the run stats but never fail the characterization — a
        // degraded-but-announced model beats no model, and callers that
        // want enforcement run `audit()`/`audit_and_repair()` themselves.
        // Booked into the run registry directly; `audit()` already mirrors
        // the count into the global registry when metrics are enabled.
        let audit_report = model.audit(&crate::audit::AuditOptions::default());
        reg.counter(metric::AUDIT_FINDINGS)
            .add(audit_report.len() as u64);

        // The caller's stats are a snapshot view of the run registry, not a
        // separately maintained set of counters — so they cannot drift from
        // what the pipeline actually recorded.
        let mut stats = CharStats::from_registry(&reg.snapshot());
        stats.threads = threads;
        stats.phases = phases;
        if stats.degraded_slices != model.degraded.len() {
            return Err(ModelError::Table(format!(
                "degraded-slice accounting out of balance: {} counted vs {} recorded",
                stats.degraded_slices,
                model.degraded.len()
            )));
        }
        if let Some(detail) = stats.invariant_violation() {
            return Err(ModelError::Table(detail));
        }
        drop(
            run_span
                .arg("sims_run", stats.sims_run)
                .arg("recoveries", stats.recoveries)
                .arg("failed_jobs", stats.failed_jobs)
                .arg("degraded_slices", stats.degraded_slices),
        );

        Ok((model, stats))
    }

    /// Computes the gate timing for a multi-input switching scenario at the
    /// characterized reference load, with the correction term applied.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] for empty/mixed-edge scenarios
    /// or pins without characterized models.
    pub fn gate_timing(&self, events: &[InputEvent]) -> Result<GateTiming, ModelError> {
        self.gate_timing_opts(events, self.c_ref, true)
    }

    /// [`ProximityModel::gate_timing`] at an explicit output load.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ProximityModel::gate_timing`].
    pub fn gate_timing_at_load(
        &self,
        events: &[InputEvent],
        c_load: f64,
    ) -> Result<GateTiming, ModelError> {
        self.gate_timing_opts(events, c_load, true)
    }

    /// Full-control variant: explicit load and correction toggle (the
    /// correction ablation of DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] for empty or mixed-edge
    /// scenarios, or when a switching pin has no characterized model.
    pub fn gate_timing_opts(
        &self,
        events: &[InputEvent],
        c_load: f64,
        use_correction: bool,
    ) -> Result<GateTiming, ModelError> {
        let scenario = Scenario::resolve(&self.cell, events)?;
        self.gate_timing_scenario(events, &scenario, c_load, use_correction)
    }

    /// Gate timing with *known* stable-pin levels, as in netlist timing
    /// where non-switching pins carry actual circuit values (see
    /// [`Scenario::from_levels`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuery`] if the output does not flip
    /// under the given levels, edges are mixed, or models are missing.
    pub fn gate_timing_with_levels(
        &self,
        events: &[InputEvent],
        stable_levels: &[Option<bool>],
        c_load: f64,
    ) -> Result<GateTiming, ModelError> {
        let scenario = Scenario::from_levels(&self.cell, events, stable_levels)?;
        self.gate_timing_scenario(events, &scenario, c_load, true)
    }

    fn gate_timing_scenario(
        &self,
        events: &[InputEvent],
        scenario: &Scenario,
        c_load: f64,
        use_correction: bool,
    ) -> Result<GateTiming, ModelError> {
        let edge = events[0].edge();
        if events.iter().any(|e| e.edge() != edge) {
            return Err(ModelError::InvalidQuery {
                detail: "proximity timing requires all inputs to switch the same way \
                         (use the glitch model for opposing transitions)"
                    .into(),
            });
        }

        // Near the reference load, the paper's dimensionless tables are
        // exact at their characterization points; far from it, the
        // fixed-load form drops the junction-to-load group and the NLDM
        // surfaces (when characterized) are the accurate source of
        // Δ⁽¹⁾/τ⁽¹⁾ (see crate::nldm).
        let off_reference = !(0.7..=1.4).contains(&(c_load / self.c_ref));
        let mut degradation: Option<DegradedReason> = None;
        let mut ranked = Vec::with_capacity(events.len());
        for e in events {
            let single =
                self.single_model(e.pin, edge)
                    .ok_or_else(|| ModelError::InvalidQuery {
                        detail: format!("no single-input model for pin {} {edge}", e.pin),
                    })?;
            let tau = e.transition_time();
            let (d1, t1) = match self.load_slew_model(e.pin, edge) {
                Some(nldm) if off_reference => {
                    (nldm.delay(tau, c_load), nldm.transition(tau, c_load))
                }
                _ => {
                    // An off-reference query that *would* have used a
                    // load–slew surface lost it to degradation: fall back
                    // to the fixed-load dimensionless form, with
                    // provenance.
                    if off_reference && self.slice_degraded(SliceKind::LoadSlew, e.pin, edge) {
                        degradation = Some(DegradedReason::NldmSliceMissing);
                    }
                    (single.delay(tau, c_load), single.transition(tau, c_load))
                }
            };
            ranked.push(RankedEvent {
                event: *e,
                arrival: e.arrival(&self.thresholds),
                d1,
                t1,
            });
        }
        // Conduction style: rank 1 (first arrival flips the output) is the
        // paper's OR-like case; higher ranks gate the output on later
        // arrivals (AND-like) and rank accordingly.
        let causing = crate::measure::causing_rank(&self.cell, events, scenario, &self.thresholds)?;
        let or_like = causing.rank == 1;
        let ranked = rank_for_scenario(ranked, causing.rank);

        // Pair-aware lookup: prefer an exact (dominant, partner) model when
        // the full matrix was characterized, fall back to the paper's 2n
        // scheme (one model per dominant pin). When the miss is a *degraded*
        // dual (not a structurally absent one, e.g. an inverter), record it:
        // `compose` then degenerates to the single-input response — exact
        // outside the proximity window, the documented fallback inside it.
        let dual_degraded = std::cell::Cell::new(false);
        let lookup = |dom: usize, partner: usize| -> Option<&DualInputModel> {
            let m = self
                .dual_model_for_pair(dom, partner, edge)
                .or_else(|| self.duals.get(dom)?.get(eidx(edge))?.as_ref());
            if m.is_none() && self.slice_degraded(SliceKind::Dual, dom, edge) {
                dual_degraded.set(true);
            }
            m
        };
        let correction = self.corrections[eidx(scenario.output_edge)];
        let outcome = compose(&ranked, &lookup, correction, use_correction, or_like);
        if dual_degraded.get() {
            degradation = Some(DegradedReason::DualSliceMissing);
        }

        Ok(GateTiming {
            reference_pin: outcome.reference_pin,
            delay: outcome.delay,
            output_transition: outcome.trans,
            output_arrival: outcome.output_arrival,
            output_edge: scenario.output_edge,
            inputs_in_window: outcome.inputs_in_window,
            degradation,
        })
    }

    /// The cell this model describes.
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// The technology the model was characterized in.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The selected measurement thresholds.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The extracted VTC family (for reporting, as in Fig. 2-1).
    pub fn vtc_family(&self) -> &VtcFamily {
        &self.vtc
    }

    /// The load the model was characterized at.
    pub fn reference_load(&self) -> f64 {
        self.c_ref
    }

    /// The transient accuracy knob used during characterization.
    pub fn dv_max(&self) -> f64 {
        self.dv_max
    }

    /// The single-input macromodel for `(pin, input edge)`, if characterized.
    pub fn single_model(&self, pin: usize, edge: Edge) -> Option<&SingleInputModel> {
        self.singles.get(pin)?.get(eidx(edge))?.as_ref()
    }

    /// The NLDM-style load-slew surface for `(pin, input edge)`, when the
    /// characterization requested one (`CharacterizeOptions::load_grid`).
    pub fn load_slew_model(&self, pin: usize, edge: Edge) -> Option<&LoadSlewModel> {
        self.nldm.get(pin)?.get(eidx(edge))?.as_ref()
    }

    /// The dual-input macromodel whose dominant pin is `pin`, if
    /// characterized.
    pub fn dual_model(&self, pin: usize, edge: Edge) -> Option<&DualInputModel> {
        self.duals.get(pin)?.get(eidx(edge))?.as_ref()
    }

    /// The characterized correction term for an output edge.
    pub fn correction(&self, output_edge: Edge) -> CorrectionTerm {
        self.corrections[eidx(output_edge)]
    }

    /// The glitch model whose causer switches with `causer_edge`, if
    /// characterized.
    pub fn glitch_model(&self, causer_edge: Edge) -> Option<&GlitchModel> {
        self.glitches.iter().find(|g| g.causer_edge == causer_edge)
    }

    /// The calibrated full-swing ramp-stretch factor for outputs
    /// transitioning with `output_edge`: how much longer the equivalent
    /// linear ramp seen by a downstream stage is than the linear
    /// extrapolation of the threshold-to-threshold transition time
    /// (driver-receiver calibrated; see [`crate::calibrate`]). 1.0 when the
    /// calibration chain could not be built.
    pub fn tail_factor(&self, output_edge: Edge) -> f64 {
        self.ramp_stretch[eidx(output_edge)]
    }

    /// The mean measured 5-95 % edge tail factor for outputs transitioning
    /// with `output_edge` (see [`SingleInputModel::tail_factor`]) — the
    /// physical upper bound on [`ProximityModel::tail_factor`].
    pub fn measured_tail_factor(&self, output_edge: Edge) -> f64 {
        let factors: Vec<f64> = self
            .singles
            .iter()
            .flatten()
            .flatten()
            .filter(|m| m.output_edge == output_edge)
            .map(|m| m.tail_factor())
            .collect();
        if factors.is_empty() {
            1.0
        } else {
            factors.iter().sum::<f64>() / factors.len() as f64
        }
    }

    /// Slices that failed characterization with a data-dependent error and
    /// were dropped with provenance instead of failing the whole model.
    pub fn degraded_slices(&self) -> &[DegradedSlice] {
        &self.degraded
    }

    /// Whether any characterization slice was degraded.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// Whether a specific `(kind, pin, edge)` slice was degraded.
    fn slice_degraded(&self, kind: SliceKind, pin: usize, edge: Edge) -> bool {
        self.degraded
            .iter()
            .any(|d| d.kind == kind && d.pin == pin && d.edge == edge)
    }

    /// Extra dual models characterized under the full-matrix option.
    pub fn extra_dual_models(&self) -> &[DualInputModel] {
        &self.extra_duals
    }

    /// The exact-pair dual model for `(dominant, partner)`, if the full
    /// matrix was characterized (checks the primary slot and the extras).
    pub fn dual_model_for_pair(
        &self,
        dominant: usize,
        partner: usize,
        edge: Edge,
    ) -> Option<&DualInputModel> {
        if self.extra_duals.is_empty() {
            return None;
        }
        if let Some(m) = self.duals.get(dominant)?.get(eidx(edge))?.as_ref() {
            if m.partner == partner {
                return Some(m);
            }
        }
        self.extra_duals
            .iter()
            .find(|m| m.pin == dominant && m.partner == partner && m.input_edge == edge)
    }

    /// Total stored table entries across all macromodels — the storage cost
    /// this model actually pays (Fig. 4-2 accounting).
    pub fn table_entries(&self) -> usize {
        let s: usize = self
            .singles
            .iter()
            .flatten()
            .flatten()
            .map(|m| m.table_len())
            .sum();
        let d: usize = self
            .duals
            .iter()
            .flatten()
            .flatten()
            .map(|m| m.table_len())
            .sum();
        let x: usize = self.extra_duals.iter().map(|m| m.table_len()).sum();
        let g: usize = self.glitches.iter().map(|m| m.table_len()).sum();
        let l: usize = self
            .nldm
            .iter()
            .flatten()
            .flatten()
            .map(|m| m.table_len())
            .sum();
        s + d + x + g + l
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn quick_model() -> ProximityModel {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap()
    }

    #[test]
    fn parallel_characterization_is_byte_identical_to_sequential() {
        // Reduced opts with every job kind enabled: singles, duals, the
        // load–slew surface, and glitch peaks all go through the job-queue
        // executor, so this covers the whole enumerate → execute → assemble
        // pipeline, not just the cheap phases.
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let base = CharacterizeOptions {
            glitch: true,
            load_grid: Some(proxim_numeric::grid::logspace(20e-15, 200e-15, 2)),
            ..CharacterizeOptions::fast()
        };

        let seq = CharacterizeOptions {
            jobs: 1,
            ..base.clone()
        };
        let par = CharacterizeOptions { jobs: 4, ..base };
        let m1 = ProximityModel::characterize(&cell, &tech, &seq).unwrap();
        let m4 = ProximityModel::characterize(&cell, &tech, &par).unwrap();
        assert_eq!(
            m1.to_json().unwrap(),
            m4.to_json().unwrap(),
            "jobs = 4 must assemble the exact bytes jobs = 1 produces"
        );
    }

    #[test]
    fn characterize_with_stats_counts_work_and_phases() {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let opts = CharacterizeOptions {
            jobs: 2,
            ..CharacterizeOptions::fast()
        };
        let (_, stats) = ProximityModel::characterize_with_stats(&cell, &tech, &opts).unwrap();
        assert!(
            stats.sims_run > 0,
            "characterization must count its transients"
        );
        assert_eq!(stats.threads, 2);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
        let p = stats.phases;
        assert!(p.vtc > 0.0 && p.singles > 0.0 && p.pairs > 0.0 && p.finish > 0.0);
        assert!((p.total() - (p.vtc + p.singles + p.pairs + p.finish)).abs() < 1e-12);
    }

    #[test]
    fn characterized_model_has_all_parts() {
        let m = quick_model();
        for pin in 0..2 {
            for edge in [Edge::Rising, Edge::Falling] {
                assert!(m.single_model(pin, edge).is_some(), "single {pin} {edge}");
                assert!(m.dual_model(pin, edge).is_some(), "dual {pin} {edge}");
            }
        }
        assert!(m.table_entries() > 0);
        // NAND thresholds: V_il below mid-rail, V_ih above.
        let th = m.thresholds();
        assert!(th.v_il < 2.5 && th.v_ih > 2.5, "{th:?}");
    }

    #[test]
    fn single_event_matches_single_model() {
        let m = quick_model();
        let e = InputEvent::new(0, Edge::Rising, 0.0, 400e-12);
        let t = m.gate_timing(&[e]).unwrap();
        let single = m.single_model(0, Edge::Rising).unwrap();
        assert!((t.delay - single.delay(400e-12, m.reference_load())).abs() < 1e-18);
        assert_eq!(t.output_edge, Edge::Falling);
        assert_eq!(t.inputs_in_window, 1);
    }

    #[test]
    fn far_separation_falling_degenerates_to_dominant_single() {
        // OR-like (falling inputs): a partner arriving far outside the
        // proximity window has exactly no effect.
        let m = quick_model();
        let events = [
            InputEvent::new(0, Edge::Falling, 0.0, 400e-12),
            InputEvent::new(1, Edge::Falling, 50e-9, 400e-12),
        ];
        let t = m.gate_timing(&events).unwrap();
        let alone = m.gate_timing(&[events[0]]).unwrap();
        assert_eq!(t.inputs_in_window, 1);
        assert_eq!(t.reference_pin, 0);
        assert!((t.delay - alone.delay).abs() < 1e-15);
    }

    #[test]
    fn far_separation_rising_references_the_late_input() {
        // AND-like (rising inputs): the output is gated by the last-arriving
        // input; with 50 ns of separation the early partner is fully on and
        // the timing approaches the late input's single-input response.
        let m = quick_model();
        let events = [
            InputEvent::new(0, Edge::Rising, 0.0, 400e-12),
            InputEvent::new(1, Edge::Rising, 50e-9, 400e-12),
        ];
        let t = m.gate_timing(&events).unwrap();
        assert_eq!(t.reference_pin, 1, "late riser is the reference");
        let alone = m.gate_timing(&[events[1]]).unwrap();
        let rel = (t.output_arrival - 50e-9 - alone.delay - events[1].arrival(m.thresholds())
            + 50e-9)
            .abs()
            / alone.delay;
        // Table-corner clamping leaves a small residual; 10% is ample.
        assert!(rel < 0.10, "relative deviation {rel}");
    }

    #[test]
    fn model_tracks_simulation_for_simultaneous_inputs() {
        let m = quick_model();
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let sim = Simulator::new(&cell, &tech, *m.thresholds(), m.reference_load(), 0.08);
        let events = [
            InputEvent::new(0, Edge::Rising, 0.0, 500e-12),
            InputEvent::new(1, Edge::Rising, 0.0, 500e-12),
        ];
        let predicted = m.gate_timing(&events).unwrap();
        let r = sim.simulate(&events).unwrap();
        let k = events
            .iter()
            .position(|e| e.pin == predicted.reference_pin)
            .unwrap();
        let measured = r.delay_from(k, m.thresholds()).unwrap();
        let err = (predicted.delay - measured).abs() / measured;
        assert!(
            err < 0.10,
            "model {} vs sim {} ({}% error)",
            predicted.delay,
            measured,
            err * 100.0
        );
    }

    #[test]
    fn mixed_edges_are_rejected() {
        let m = quick_model();
        let events = [
            InputEvent::new(0, Edge::Rising, 0.0, 400e-12),
            InputEvent::new(1, Edge::Falling, 0.0, 400e-12),
        ];
        assert!(matches!(
            m.gate_timing(&events),
            Err(ModelError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn delay_positive_across_wild_scenarios() {
        // The §2 property: with min-V_il / max-V_ih thresholds, delay is
        // positive for any separations and transition times.
        let m = quick_model();
        for &(s, tau0, tau1) in &[
            (0.0, 100e-12, 1500e-12),
            (-400e-12, 1500e-12, 100e-12),
            (300e-12, 800e-12, 800e-12),
            (-1000e-12, 200e-12, 1900e-12),
        ] {
            for edge in [Edge::Rising, Edge::Falling] {
                let events = [
                    InputEvent::new(0, edge, 0.0, tau0),
                    InputEvent::new(1, edge, s, tau1),
                ];
                let t = m.gate_timing(&events).unwrap();
                assert!(
                    t.delay > 0.0,
                    "negative delay for s={s} tau=({tau0},{tau1}) {edge}: {}",
                    t.delay
                );
                assert!(t.output_transition > 0.0);
            }
        }
    }

    #[test]
    fn inverter_characterizes_without_duals() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let m = ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap();
        assert!(m.single_model(0, Edge::Rising).is_some());
        assert!(m.dual_model(0, Edge::Rising).is_none());
        let t = m
            .gate_timing(&[InputEvent::new(0, Edge::Rising, 0.0, 300e-12)])
            .unwrap();
        assert!(t.delay > 0.0);
    }
}
