//! Transient analysis.
//!
//! Time integration uses the trapezoidal rule by default (backward Euler is
//! available for ablation), with a Newton solve at every step. The step size
//! adapts to limit the largest node-voltage change per step, and steps land
//! exactly on every PWL-source breakpoint so ramp corners are never
//! straddled.
//!
//! A failed Newton solve does not immediately fail the run: the bounded
//! recovery ladder of [`crate::recover`] first retries the step with heavier
//! damping, then with gmin continuation, then cuts the step, and finally
//! restarts the whole run with halved `dt_init`/`dv_max`. Everything the
//! ladder did is reported in [`TranResult::recovery`].
//!
//! A run normally integrates to `t_stop`. With a [`StopRule`] it ends early,
//! one accepted step after one node's waveform has made the threshold
//! crossings a measurement reads; the shortened result is a bit-exact prefix
//! of the full run.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, Element, NodeId};
use crate::faultpoint::{run_entropy, FaultStream};
use crate::op::GMIN;
use crate::recover::{RecoveryPolicy, RecoveryStage, RecoveryTrace};
use crate::solver::{
    newton_solve, AnalysisError, CapMode, NewtonOptions, NewtonOutcome, NewtonWorkspace, System,
};
use proxim_numeric::pwl::{push_crossing, Edge, Pwl};
use proxim_obs as obs;
use std::time::Instant;

/// Global-registry handles for transient-solver telemetry, resolved once
/// per run so the per-solve path never touches the registry mutex. `None`
/// when the observability level is [`obs::Level::Off`].
struct TranMetrics {
    runs: obs::Counter,
    recoveries: obs::Counter,
    recovery_seconds: obs::Gauge,
    lu_seconds: obs::Gauge,
    /// Accepted time steps, summed over runs.
    accepted_steps: obs::Counter,
    /// Newton iterations, summed over runs.
    newton_iterations: obs::Counter,
    /// Factorizations that took the static-order (symbolic) path.
    lu_static_solves: obs::Counter,
    /// Factorizations where the static order declined and dense partial
    /// pivoting ran instead.
    lu_static_fallbacks: obs::Counter,
    /// Newton iterations per converged solve.
    newton_iters: obs::Histogram,
    /// Recovery-ladder attempts per transient run.
    recovery_depth: obs::Histogram,
}

impl TranMetrics {
    fn new() -> Option<Self> {
        if !obs::metrics_enabled() {
            return None;
        }
        let reg = obs::Registry::global();
        Some(Self {
            runs: reg.counter("spice.tran.runs"),
            recoveries: reg.counter("spice.tran.recoveries"),
            recovery_seconds: reg.gauge("spice.tran.recovery_seconds"),
            lu_seconds: reg.gauge("spice.tran.lu_seconds"),
            accepted_steps: reg.counter("spice.tran.accepted_steps"),
            newton_iterations: reg.counter("spice.tran.newton_iterations"),
            lu_static_solves: reg.counter("spice.lu.static_solves"),
            lu_static_fallbacks: reg.counter("spice.lu.static_fallbacks"),
            newton_iters: reg.histogram(
                "spice.tran.newton_iters_per_solve",
                &[2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0],
            ),
            recovery_depth: reg.histogram(
                "spice.tran.recovery_depth",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
        })
    }
}

/// Per-thread reusable transient state: the Newton workspace (Jacobian, LU
/// factors, residuals, iterate) plus the capacitor-history and breakpoint
/// buffers, and high-water capacity hints for the sample buffers (which move
/// out into each [`TranResult`] and so can only be pre-sized, not reused).
///
/// A characterization worker runs hundreds of transients back to back; the
/// arena makes every run after the first allocation-free on the solver path.
struct TranArena {
    ws: NewtonWorkspace,
    hist: Vec<(f64, f64)>,
    breakpoints: Vec<f64>,
    /// Crossing lists of a [`StopRule`]'s near and far thresholds.
    crossings: [Vec<(f64, Edge)>; 2],
    times_hint: usize,
    samples_hint: usize,
    branch_hint: usize,
}

impl TranArena {
    fn new() -> Self {
        Self {
            ws: NewtonWorkspace::new(),
            hist: Vec::new(),
            breakpoints: Vec::new(),
            crossings: [Vec::new(), Vec::new()],
            times_hint: 0,
            samples_hint: 0,
            branch_hint: 0,
        }
    }
}

thread_local! {
    /// One arena per worker thread, reused across every transient run the
    /// thread executes.
    static ARENA: std::cell::RefCell<TranArena> = std::cell::RefCell::new(TranArena::new());
}

/// Runs `f` with the thread's arena. Falls back to a fresh arena if the
/// thread-local one is already borrowed (re-entrant `tran` under the same
/// thread — not a path the code takes today, but cheap to keep sound).
fn with_arena<R>(f: impl FnOnce(&mut TranArena) -> R) -> R {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut TranArena::new()),
    })
}

/// The time-integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Second-order trapezoidal rule (default).
    #[default]
    Trapezoidal,
    /// First-order backward Euler; more damped, used for ablation.
    BackwardEuler,
}

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// End time of the analysis, in seconds.
    pub t_stop: f64,
    /// Smallest allowed step; the run fails below this.
    pub dt_min: f64,
    /// Largest allowed step.
    pub dt_max: f64,
    /// Initial step.
    pub dt_init: f64,
    /// Target bound on the largest node-voltage change per step, in volts.
    /// Smaller values give smoother waveforms at higher cost.
    pub dv_max: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Recovery ladder applied on Newton failures (see [`crate::recover`]).
    pub recovery: RecoveryPolicy,
    /// Ends the run early once a measurement's crossings are fixed; `None`
    /// (the default) integrates to `t_stop`.
    pub stop: Option<StopRule>,
}

/// A measurement-driven end for a transient run.
///
/// The run watches `node` for its first `edge`-direction crossing of `near`
/// and, at or after it, the first `edge`-direction crossing of `far`, with
/// the crossing semantics of [`Pwl::crossings`]. After each accepted step it
/// ends if both crossings lie strictly before the *previous* time point: in
/// the usual case that is one accepted step after the step that crossed
/// `far`. Later samples cannot change a crossing that old (the touching-knot
/// rule reaches back only to the last knot), so every first crossing the
/// caller reads off the shortened waveform equals the full run's. If `far`
/// is never crossed the run goes to `t_stop` as without a rule.
///
/// Nothing else moves: `t_stop` and everything derived from it (step
/// bounds, the final breakpoint, the fault-injection entropy) keep their
/// values, so the shortened run's samples are a bit-exact prefix of the
/// full run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// The watched node.
    pub node: NodeId,
    /// Direction of the watched transition.
    pub edge: Edge,
    /// The threshold the transition crosses first.
    pub near: f64,
    /// The threshold whose crossing, after `near`'s, ends the run.
    pub far: f64,
}

impl StopRule {
    /// Whether the crossing lists `near`/`far` hold the rule's two
    /// crossings, both strictly before `t_fixed`.
    fn met(&self, near: &[(f64, Edge)], far: &[(f64, Edge)], t_fixed: f64) -> bool {
        let Some(&(t1, _)) = near.iter().find(|&&(_, e)| e == self.edge) else {
            return false;
        };
        t1 < t_fixed
            && far
                .iter()
                .find(|&&(t, e)| e == self.edge && t >= t1)
                .is_some_and(|&(t2, _)| t2 < t_fixed)
    }
}

impl TranOptions {
    /// Reasonable defaults for an analysis ending at `t_stop`:
    /// `dt_max = t_stop / 100`, `dt_init = t_stop / 10_000`,
    /// `dv_max = 0.05 V`, trapezoidal integration.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not strictly positive.
    pub fn to(t_stop: f64) -> Self {
        assert!(
            t_stop > 0.0 && t_stop.is_finite(),
            "t_stop must be positive"
        );
        Self {
            t_stop,
            dt_min: t_stop * 1e-9,
            dt_max: t_stop / 100.0,
            dt_init: t_stop / 10_000.0,
            dv_max: 0.05,
            integrator: Integrator::Trapezoidal,
            recovery: RecoveryPolicy::default(),
            stop: None,
        }
    }

    /// Returns the options with a different integrator.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Returns the options with a different per-step voltage-change bound.
    ///
    /// # Panics
    ///
    /// Panics if `dv_max` is not strictly positive.
    pub fn with_dv_max(mut self, dv_max: f64) -> Self {
        assert!(dv_max > 0.0, "dv_max must be positive");
        self.dv_max = dv_max;
        self
    }

    /// Returns the options with a different recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Returns the options with a measurement-driven stop rule.
    pub fn with_stop(mut self, stop: StopRule) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Returns the options with the accuracy-governing knobs (`dv_max` and
    /// `dt_init`) scaled by `scale`. Values below one tighten the solve —
    /// the model-audit repair pass uses this to re-run suspect grid points
    /// at higher accuracy without re-deriving every option. A scale of
    /// exactly `1.0` is a bit-identical no-op, so callers can thread one
    /// scale variable through both the original and the tightened path.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn with_tolerance_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "tolerance scale must be positive"
        );
        if scale != 1.0 {
            self.dv_max *= scale;
            self.dt_init = (self.dt_init * scale).max(self.dt_min);
        }
        self
    }
}

/// The sampled result of a transient run.
///
/// Node and branch samples are stored as single contiguous buffers (one
/// stride per accepted step) rather than per-step vectors: a characterization
/// run records millions of samples, and one flat allocation amortizes to
/// zero per step while keeping waveform extraction cache-friendly.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Stride of `samples`: node voltages per step, ground included.
    node_count: usize,
    /// Stride of `branch_samples`: voltage-source branch currents per step.
    branch_count: usize,
    /// Flattened node voltages; step `k` occupies
    /// `samples[k * node_count .. (k + 1) * node_count]`.
    samples: Vec<f64>,
    /// Flattened branch currents, laid out like `samples`.
    branch_samples: Vec<f64>,
    /// Total Newton iterations across the run (performance telemetry).
    pub newton_iterations: usize,
    /// Total accepted time steps.
    pub accepted_steps: usize,
    /// Wall time spent in LU factorization and triangular solves, in
    /// seconds. Only measured at [`obs::Level::Trace`] (per-iteration
    /// timing is too hot for lower levels); 0 otherwise.
    pub lu_seconds: f64,
    /// Everything the recovery ladder did during the run (empty for a
    /// healthy run).
    pub recovery: RecoveryTrace,
}

impl TranResult {
    /// The accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The waveform of `node` as a piecewise-linear function of time.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated circuit.
    // Accepted times are strictly increasing by construction, so the Pwl
    // invariant cannot fail here.
    #[allow(clippy::expect_used)]
    pub fn waveform(&self, node: NodeId) -> Pwl {
        let j = node.index();
        assert!(j < self.node_count, "node {j} out of range");
        Pwl::new(
            self.times
                .iter()
                .enumerate()
                .map(|(k, &t)| (t, self.samples[k * self.node_count + j]))
                .collect(),
        )
        .expect("transient sampling produces a valid waveform")
    }

    /// The node voltage at sample index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or the node index is out of range.
    pub fn voltage_at(&self, k: usize, node: NodeId) -> f64 {
        assert!(k < self.times.len(), "sample {k} out of range");
        assert!(node.index() < self.node_count, "node out of range");
        self.samples[k * self.node_count + node.index()]
    }

    /// The branch current of the `k`-th voltage source as a waveform over
    /// time (positive current flows into the source's `plus` terminal, so a
    /// supply sourcing current reads negative — as in SPICE).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    // Accepted times are strictly increasing by construction, so the Pwl
    // invariant cannot fail here.
    #[allow(clippy::expect_used)]
    pub fn branch_current_waveform(&self, k: usize) -> Pwl {
        assert!(k < self.branch_count, "branch {k} out of range");
        Pwl::new(
            self.times
                .iter()
                .enumerate()
                .map(|(s, &t)| (t, self.branch_samples[s * self.branch_count + k]))
                .collect(),
        )
        .expect("transient sampling produces a valid waveform")
    }

    /// The peak magnitude of the `k`-th voltage source's branch current —
    /// e.g. the peak supply current during a switching event, the quantity
    /// the collapse-to-inverter literature (Nabavi-Lishi & Rumin) targets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn peak_branch_current(&self, k: usize) -> f64 {
        assert!(k < self.branch_count, "branch {k} out of range");
        self.branch_samples
            .iter()
            .skip(k)
            .step_by(self.branch_count)
            .map(|i| i.abs())
            .fold(0.0, f64::max)
    }
}

/// One Newton solve under the run watchdog, cancellation token, and fault
/// injection: counts the attempt against the solve budget, polls the token,
/// and lets the fault stream veto it.
#[allow(clippy::too_many_arguments)]
fn checked_solve(
    sys: &System<'_>,
    x: &[f64],
    t_new: f64,
    gmin: f64,
    caps: CapMode<'_>,
    nopts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    policy: &RecoveryPolicy,
    faults: &mut FaultStream,
    solves: &mut usize,
    metrics: &Option<TranMetrics>,
    cancel: &CancelToken,
) -> Result<NewtonOutcome, AnalysisError> {
    *solves += 1;
    cancel.check("transient")?;
    if policy.step_budget > 0 && *solves > policy.step_budget {
        return Err(AnalysisError::Aborted {
            analysis: "transient".into(),
            detail: format!(
                "newton solve budget of {} exhausted at t = {t_new:.4e} s",
                policy.step_budget
            ),
        });
    }
    if faults.newton_fault() {
        return Ok(NewtonOutcome::Failed);
    }
    let out = newton_solve(sys, x, t_new, 1.0, gmin, caps, nopts, ws, cancel)?;
    if let (Some(m), NewtonOutcome::Converged(iters)) = (metrics.as_ref(), &out) {
        m.newton_iters.observe(*iters as f64);
    }
    Ok(out)
}

pub(crate) fn tran(
    ckt: &Circuit,
    options: &TranOptions,
    cancel: &CancelToken,
) -> Result<TranResult, AnalysisError> {
    with_arena(|arena| tran_in_arena(ckt, options, cancel, arena))
}

fn tran_in_arena(
    ckt: &Circuit,
    options: &TranOptions,
    cancel: &CancelToken,
    arena: &mut TranArena,
) -> Result<TranResult, AnalysisError> {
    let sys = System::new(ckt);
    let policy = options.recovery;
    // Per-run entropy comes only from the run's own parameters, so fault
    // decisions replay identically regardless of worker scheduling.
    let mut faults = FaultStream::for_run(run_entropy(
        options.t_stop,
        options.dv_max,
        sys.n,
        ckt.elements.len(),
    ));
    let metrics = TranMetrics::new();
    let mut span = obs::span("spice.tran").arg("t_stop", format_args!("{:.3e}", options.t_stop));
    let mut trace = RecoveryTrace::default();
    let mut solves = 0usize;
    let mut attempt_opts = *options;
    // The symbolic factorization is a pure function of topology, computed
    // once per run and used by every solve (DC init included).
    arena.ws.symbolic = sys.symbolic_lu();
    arena.ws.static_solves = 0;
    arena.ws.static_fallbacks = 0;
    // Per-iteration LU timing is only worth its two clock reads when the
    // fine-grained trace level is armed.
    arena.ws.time_lu = obs::level() == obs::Level::Trace;
    loop {
        let attempt_start = Instant::now();
        match tran_attempt(
            ckt,
            &sys,
            &attempt_opts,
            &policy,
            &mut trace,
            &mut faults,
            &mut solves,
            &metrics,
            cancel,
            arena,
        ) {
            Ok(mut result) => {
                result.recovery = trace;
                if let Some(m) = &metrics {
                    m.runs.incr();
                    m.accepted_steps.add(result.accepted_steps as u64);
                    m.newton_iterations.add(result.newton_iterations as u64);
                    m.recoveries.add(result.recovery.total() as u64);
                    m.recovery_seconds.add(result.recovery.total_seconds());
                    m.lu_seconds.add(result.lu_seconds);
                    m.recovery_depth.observe(result.recovery.total() as f64);
                    m.lu_static_solves.add(arena.ws.static_solves);
                    m.lu_static_fallbacks.add(arena.ws.static_fallbacks);
                }
                if span.is_active() {
                    span.add_arg("steps", result.accepted_steps);
                    span.add_arg("newton_iters", result.newton_iterations);
                    span.add_arg("recoveries", result.recovery.total());
                }
                return Ok(result);
            }
            // The final rung: restart the whole run gentler. Only
            // NoConvergence is worth retrying — Aborted (watchdog) and
            // Singular are terminal. The rung's recorded cost is the whole
            // failed attempt being thrown away.
            Err(AnalysisError::NoConvergence { .. })
                if trace.restarts < policy.max_restarts as usize =>
            {
                attempt_opts.dt_init = (attempt_opts.dt_init * 0.5).max(attempt_opts.dt_min);
                attempt_opts.dv_max *= 0.5;
                trace.record(
                    RecoveryStage::RunRestart,
                    0.0,
                    attempt_opts.dt_init,
                    attempt_start.elapsed().as_secs_f64(),
                    false,
                );
                let _ = obs::event("spice.recover")
                    .arg("stage", RecoveryStage::RunRestart)
                    .arg("restarts", trace.restarts);
            }
            Err(mut e) => {
                // A deadline that expired while the ladder was climbing
                // reports where the time went: the accumulated trace of this
                // run (all attempts so far) rides along on the error.
                if let AnalysisError::DeadlineExceeded { recovery, .. } = &mut e {
                    **recovery = std::mem::take(&mut trace);
                }
                if span.is_active() {
                    span.add_arg("error", &e);
                }
                return Err(e);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tran_attempt(
    ckt: &Circuit,
    sys: &System<'_>,
    options: &TranOptions,
    policy: &RecoveryPolicy,
    trace: &mut RecoveryTrace,
    faults: &mut FaultStream,
    solves: &mut usize,
    metrics: &Option<TranMetrics>,
    cancel: &CancelToken,
    arena: &mut TranArena,
) -> Result<TranResult, AnalysisError> {
    let opts = NewtonOptions::default();
    // Disjoint borrows of the arena's pieces for the rest of the attempt.
    let TranArena {
        ws,
        hist,
        breakpoints,
        crossings: [near_crossings, far_crossings],
        times_hint,
        samples_hint,
        branch_hint,
    } = arena;
    ws.lu_seconds = 0.0;

    // Initial condition: DC operating point with sources at t = 0.
    let op = crate::op::dc_solve_with(ckt, sys, 0.0, None, cancel, ws)?;
    let mut x = op.x;

    // Per-element capacitor history (v_prev across the cap, i_prev through
    // it). Entries for non-capacitor elements are unused.
    hist.clear();
    hist.extend(ckt.elements.iter().map(|e| match e {
        Element::Capacitor { a, b, .. } => (sys.v(&x, *a) - sys.v(&x, *b), 0.0),
        _ => (0.0, 0.0),
    }));

    // Breakpoints: the PWL corners of all sources inside (0, t_stop).
    breakpoints.clear();
    breakpoints.extend(
        ckt.source_breakpoints()
            .into_iter()
            .filter(|&t| t > 0.0 && t < options.t_stop),
    );
    breakpoints.push(options.t_stop);

    let node_count = ckt.node_count();
    let branch_count = sys.n - sys.nv;
    // Flat sample storage: appending a step is two extends into contiguous
    // buffers, no per-step allocation once capacity has grown. These move
    // out into the result, so the arena can only contribute high-water
    // capacity hints from earlier runs.
    let mut times = Vec::with_capacity(*times_hint);
    let mut samples: Vec<f64> = Vec::with_capacity(*samples_hint);
    let mut branch_samples: Vec<f64> = Vec::with_capacity(*branch_hint);
    let record = |t: f64, x: &[f64], times: &mut Vec<f64>, s: &mut Vec<f64>, b: &mut Vec<f64>| {
        times.push(t);
        s.push(0.0); // ground
        s.extend_from_slice(&x[..sys.nv]);
        b.extend_from_slice(&x[sys.nv..]);
    };
    record(0.0, &x, &mut times, &mut samples, &mut branch_samples);
    near_crossings.clear();
    far_crossings.clear();
    let mut v_watch = options.stop.map_or(0.0, |rule| sys.v(&x, rule.node));

    let mut t = 0.0;
    let mut h = options.dt_init.min(options.dt_max);
    let mut newton_iterations = 0usize;
    let mut accepted_steps = 0usize;
    let mut bp_idx = 0usize;

    while t < options.t_stop - options.dt_min * 0.5 {
        // Step boundary: a cancellation point even when every solve is
        // converging on the first try.
        cancel.check("transient")?;
        while bp_idx < breakpoints.len() && breakpoints[bp_idx] <= t + options.dt_min * 0.5 {
            bp_idx += 1;
        }
        let next_bp = breakpoints.get(bp_idx).copied().unwrap_or(options.t_stop);
        let h_eff = h.min(options.dt_max).min(next_bp - t).max(options.dt_min);
        let t_new = (t + h_eff).min(options.t_stop);
        let h_eff = t_new - t;

        let (geq_per_farad, trap_coeff) = match options.integrator {
            Integrator::Trapezoidal => (2.0 / h_eff, -1.0),
            Integrator::BackwardEuler => (1.0 / h_eff, 0.0),
        };
        let caps = CapMode::Tran {
            geq_per_farad,
            trap_coeff,
            hist,
        };

        let solved = match checked_solve(
            sys, &x, t_new, GMIN, caps, &opts, ws, policy, faults, solves, metrics, cancel,
        )? {
            NewtonOutcome::Converged(iters) => {
                newton_iterations += iters;
                true
            }
            NewtonOutcome::Failed => {
                // Rung 1: re-solve the same step with a tight update clamp
                // and a much larger iteration budget.
                let mut rescued = false;
                if policy.damped_retry {
                    let rung_start = Instant::now();
                    let dopts = NewtonOptions {
                        vstep_limit: 0.15,
                        max_iter: 600,
                        ..opts
                    };
                    if let NewtonOutcome::Converged(iters) = checked_solve(
                        sys, &x, t_new, GMIN, caps, &dopts, ws, policy, faults, solves, metrics,
                        cancel,
                    )? {
                        newton_iterations += iters;
                        rescued = true;
                    }
                    trace.record(
                        RecoveryStage::DampedRetry,
                        t_new,
                        h_eff,
                        rung_start.elapsed().as_secs_f64(),
                        rescued,
                    );
                    let _ = obs::event("spice.recover")
                        .arg("stage", RecoveryStage::DampedRetry)
                        .arg("t", format_args!("{t_new:.4e}"))
                        .arg("rescued", rescued);
                }
                // Rung 2: gmin continuation — solve a heavily shunted (and
                // therefore easier) system, then walk the shunt back down to
                // the nominal GMIN, warm-starting each stage.
                if !rescued && policy.gmin_stepping {
                    let rung_start = Instant::now();
                    let mut warm = x.clone();
                    let mut ok = true;
                    for &g in &[1e-6, 1e-8, 1e-10, GMIN] {
                        match checked_solve(
                            sys, &warm, t_new, g, caps, &opts, ws, policy, faults, solves, metrics,
                            cancel,
                        )? {
                            NewtonOutcome::Converged(iters) => {
                                newton_iterations += iters;
                                warm.copy_from_slice(&ws.x);
                            }
                            NewtonOutcome::Failed => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    trace.record(
                        RecoveryStage::GminStepping,
                        t_new,
                        h_eff,
                        rung_start.elapsed().as_secs_f64(),
                        ok,
                    );
                    let _ = obs::event("spice.recover")
                        .arg("stage", RecoveryStage::GminStepping)
                        .arg("t", format_args!("{t_new:.4e}"))
                        .arg("rescued", ok);
                    rescued = ok;
                }
                rescued
            }
        };

        if !solved {
            // Rung 3: cut the step; at dt_min the attempt is out of rungs
            // and the caller decides whether a run restart is left. A cut's
            // cost is the re-walked steps (already inside the run), so its
            // recorded duration is zero.
            if h_eff <= options.dt_min * 1.01 {
                return Err(AnalysisError::NoConvergence {
                    analysis: "transient step".into(),
                    detail: format!("at t = {t_new:.4e} s with minimum step"),
                });
            }
            trace.record(RecoveryStage::StepCut, t_new, h_eff, 0.0, false);
            h = (h_eff * 0.25).max(options.dt_min);
            continue;
        }

        // Converged: the candidate solution is in ws.x.
        let max_dv = x
            .iter()
            .zip(&ws.x)
            .take(sys.nv)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if max_dv > options.dv_max && h_eff > options.dt_min * 1.01 {
            // Too coarse: retry with a smaller step sized to hit the
            // voltage-change target.
            h = (h_eff * (0.8 * options.dv_max / max_dv).max(0.1)).max(options.dt_min);
            continue;
        }
        if faults.accept_fault() && h_eff > options.dt_min * 1.01 {
            // Injected rejection of an otherwise-acceptable step; behaves
            // like a step cut (and is recorded as one).
            trace.record(RecoveryStage::StepCut, t_new, h_eff, 0.0, false);
            h = (h_eff * 0.25).max(options.dt_min);
            continue;
        }
        // Accept. Update capacitor history with companion currents.
        for (ei, e) in ckt.elements.iter().enumerate() {
            if let Element::Capacitor { a, b, farads } = e {
                let dv = sys.v(&ws.x, *a) - sys.v(&ws.x, *b);
                let (v_prev, i_prev) = hist[ei];
                let i_new = geq_per_farad * farads * (dv - v_prev) + trap_coeff * i_prev;
                hist[ei] = (dv, i_new);
            }
        }
        // The old iterate becomes the workspace's scratch buffer for the
        // next step — no allocation on accept.
        std::mem::swap(&mut x, &mut ws.x);
        let t_prev = t;
        t = t_new;
        accepted_steps += 1;
        record(t, &x, &mut times, &mut samples, &mut branch_samples);
        if let Some(rule) = &options.stop {
            // Only a later segment's crossing at exactly `t` can still drop
            // an entry, so entries before `t` are already final; waiting
            // until both crossings lie before `t_prev` keeps one accepted
            // step of margin.
            let v = sys.v(&x, rule.node);
            push_crossing(near_crossings, rule.near, (t_prev, v_watch), (t, v));
            push_crossing(far_crossings, rule.far, (t_prev, v_watch), (t, v));
            v_watch = v;
            if rule.met(near_crossings, far_crossings, t_prev) {
                break;
            }
        }
        // Grow the step when comfortably inside the accuracy target.
        h = if max_dv < 0.5 * options.dv_max {
            h_eff * 1.6
        } else {
            h_eff
        };
    }

    // Remember how big the sample buffers got so the next run on this
    // thread pre-sizes instead of growing.
    *times_hint = (*times_hint).max(times.len());
    *samples_hint = (*samples_hint).max(samples.len());
    *branch_hint = (*branch_hint).max(branch_samples.len());

    Ok(TranResult {
        times,
        node_count,
        branch_count,
        samples,
        branch_samples,
        newton_iterations,
        accepted_steps,
        lu_seconds: ws.lu_seconds,
        recovery: RecoveryTrace::default(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::circuit::Waveform;
    use crate::device::{MosParams, MosType};

    #[test]
    fn rc_step_response_matches_analytic() {
        // R = 1k, C = 1p: tau = 1 ns. Step at t = 0+.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 1e-12, 1.0));
        ckt.resistor("R1", inp, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let r = ckt.tran(&TranOptions::to(5e-9).with_dv_max(0.01)).unwrap();
        let w = r.waveform(out);
        for &t in &[0.5e-9, 1e-9, 2e-9, 4e-9] {
            let expect = 1.0 - (-t / 1e-9f64).exp();
            assert!(
                (w.eval(t) - expect).abs() < 5e-3,
                "t = {t}: got {}, expected {expect}",
                w.eval(t)
            );
        }
    }

    #[test]
    fn rc_ramp_response_tracks_input_with_lag() {
        // For a slow ramp (much slower than tau), the output lags the input
        // by about tau.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::ramp(1e-9, 20e-9, 0.0, 1.0),
        );
        ckt.resistor("R1", inp, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let r = ckt.tran(&TranOptions::to(30e-9)).unwrap();
        let w = r.waveform(out);
        // In the middle of the ramp the lag is tau = 1 ns, i.e. the output
        // is below the input by (tau/ramp)*swing = 0.05.
        let v_in_mid = 0.5;
        let v_out_mid = w.eval(11e-9);
        assert!(
            (v_in_mid - v_out_mid - 0.05).abs() < 5e-3,
            "lag wrong: {v_out_mid}"
        );
    }

    #[test]
    fn richardson_consistency_on_halved_dv() {
        // Tightening the accuracy knob must not change the settled value and
        // must keep mid-transient values close.
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 0.1e-9, 2.0));
            ckt.resistor("R1", inp, out, 2e3);
            ckt.capacitor("C1", out, Circuit::GND, 0.5e-12);
            (ckt, out)
        };
        let (ckt, out) = build();
        let coarse = ckt.tran(&TranOptions::to(5e-9).with_dv_max(0.1)).unwrap();
        let fine = ckt.tran(&TranOptions::to(5e-9).with_dv_max(0.02)).unwrap();
        for &t in &[0.5e-9, 1.5e-9, 3e-9] {
            let a = coarse.waveform(out).eval(t);
            let b = fine.waveform(out).eval(t);
            assert!((a - b).abs() < 0.02, "divergence at t = {t}: {a} vs {b}");
        }
    }

    #[test]
    fn tolerance_scale_unity_is_identity_and_fractions_tighten() {
        let base = TranOptions::to(5e-9).with_dv_max(0.04);
        let same = base.with_tolerance_scale(1.0);
        assert_eq!(base.dv_max.to_bits(), same.dv_max.to_bits());
        assert_eq!(base.dt_init.to_bits(), same.dt_init.to_bits());
        let tight = base.with_tolerance_scale(0.5);
        assert_eq!(tight.dv_max, 0.02);
        assert!(tight.dt_init < base.dt_init);
        assert!(tight.dt_init >= tight.dt_min);
    }

    #[test]
    fn backward_euler_also_settles() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 1e-12, 1.0));
        ckt.resistor("R1", inp, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let r = ckt
            .tran(&TranOptions::to(8e-9).with_integrator(Integrator::BackwardEuler))
            .unwrap();
        assert!((r.waveform(out).eval(8e-9) - 1.0).abs() < 2e-3);
    }

    #[test]
    fn inverter_transient_switches_output() {
        let p = MosParams {
            vt0: 0.85,
            kp: 17e-6,
            gamma: 0.5,
            phi: 0.6,
            lambda: 0.04,
        };
        let n = MosParams {
            vt0: 0.75,
            kp: 50e-6,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.03,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::ramp(1e-9, 0.5e-9, 0.0, 5.0),
        );
        ckt.mosfet("MP", MosType::Pmos, out, inp, vdd, vdd, p, 8e-6, 0.8e-6);
        ckt.mosfet(
            "MN",
            MosType::Nmos,
            out,
            inp,
            Circuit::GND,
            Circuit::GND,
            n,
            4e-6,
            0.8e-6,
        );
        ckt.capacitor("CL", out, Circuit::GND, 100e-15);

        let r = ckt.tran(&TranOptions::to(10e-9)).unwrap();
        let w = r.waveform(out);
        assert!(w.eval(0.5e-9) > 4.9, "output starts high");
        assert!(w.eval(9e-9) < 0.1, "output ends low");
        let t_cross = w
            .first_falling_crossing(2.5)
            .expect("output falls through mid-rail");
        assert!(t_cross > 1e-9 && t_cross < 3e-9, "crossing at {t_cross}");
    }

    #[test]
    fn breakpoints_are_sampled_exactly() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        ckt.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::ramp(2e-9, 1e-9, 0.0, 1.0),
        );
        ckt.resistor("R1", inp, Circuit::GND, 1e3);
        let r = ckt.tran(&TranOptions::to(5e-9)).unwrap();
        for bp in [2e-9, 3e-9] {
            assert!(
                r.times().iter().any(|&t| (t - bp).abs() < 1e-15),
                "breakpoint {bp} not sampled"
            );
        }
    }

    #[test]
    fn supply_current_peaks_during_switching() {
        // An inverter driving a load: the VDD branch current spikes while
        // the output charges and returns to (near) zero at rest.
        let p = MosParams {
            vt0: 0.85,
            kp: 17e-6,
            gamma: 0.5,
            phi: 0.6,
            lambda: 0.04,
        };
        let n = MosParams {
            vt0: 0.75,
            kp: 50e-6,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.03,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::ramp(1e-9, 0.5e-9, 5.0, 0.0),
        );
        ckt.mosfet("MP", MosType::Pmos, out, inp, vdd, vdd, p, 8e-6, 0.8e-6);
        ckt.mosfet(
            "MN",
            MosType::Nmos,
            out,
            inp,
            Circuit::GND,
            Circuit::GND,
            n,
            4e-6,
            0.8e-6,
        );
        ckt.capacitor("CL", out, Circuit::GND, 100e-15);

        let r = ckt.tran(&TranOptions::to(10e-9)).unwrap();
        let i_vdd = r.branch_current_waveform(0);
        // Quiescent before the edge.
        assert!(
            i_vdd.eval(0.5e-9).abs() < 1e-6,
            "quiescent {}",
            i_vdd.eval(0.5e-9)
        );
        // Peak magnitude is a real charging current (mA scale).
        let peak = r.peak_branch_current(0);
        assert!(peak > 1e-4, "peak supply current {peak}");
        // Settled again at the end.
        assert!(i_vdd.eval(9.5e-9).abs() < 1e-6);
        // Supply sources current: the branch current is negative while the
        // PMOS charges the load.
        let (_, min_i) = i_vdd.min();
        assert!(min_i < -1e-4, "supply current sign {min_i}");
    }

    #[test]
    fn telemetry_is_populated() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::Dc(1.0));
        ckt.resistor("R1", inp, Circuit::GND, 1e3);
        let r = ckt.tran(&TranOptions::to(1e-9)).unwrap();
        assert!(r.accepted_steps > 0);
        assert!(r.newton_iterations >= r.accepted_steps);
    }

    #[test]
    #[should_panic(expected = "t_stop must be positive")]
    fn options_reject_zero_duration() {
        let _ = TranOptions::to(0.0);
    }

    #[test]
    fn healthy_run_reports_empty_recovery() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 1e-12, 1.0));
        ckt.resistor("R1", inp, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let r = ckt.tran(&TranOptions::to(5e-9)).unwrap();
        assert!(r.recovery.is_empty(), "got {:?}", r.recovery);
    }

    #[test]
    fn recovery_policy_does_not_change_a_healthy_run() {
        // With no Newton failures the ladder never fires, so enabling or
        // disabling it must be bit-identical.
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 0.1e-9, 2.0));
            ckt.resistor("R1", inp, out, 2e3);
            ckt.capacitor("C1", out, Circuit::GND, 0.5e-12);
            (ckt, out)
        };
        let (ckt, out) = build();
        let with = ckt.tran(&TranOptions::to(5e-9)).unwrap();
        let without = ckt
            .tran(&TranOptions::to(5e-9).with_recovery(RecoveryPolicy::disabled()))
            .unwrap();
        assert_eq!(with.times(), without.times());
        assert_eq!(with.waveform(out).points(), without.waveform(out).points());
    }

    #[test]
    fn tiny_solve_budget_aborts_with_a_typed_error() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 1e-12, 1.0));
        ckt.resistor("R1", inp, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let strangled = RecoveryPolicy {
            step_budget: 3,
            ..RecoveryPolicy::default()
        };
        match ckt.tran(&TranOptions::to(5e-9).with_recovery(strangled)) {
            Err(AnalysisError::Aborted { analysis, .. }) => assert_eq!(analysis, "transient"),
            other => panic!("expected an aborted run, got {other:?}"),
        }
    }
}
