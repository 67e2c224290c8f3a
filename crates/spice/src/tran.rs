//! Transient analysis.
//!
//! Time integration uses the trapezoidal rule by default (backward Euler is
//! available for ablation), with a Newton solve at every step, started from
//! a polynomial predictor through the last accepted points. The step size
//! adapts to keep the largest node-voltage change per step under `dv_max`,
//! and steps land exactly on every PWL-source breakpoint so ramp corners
//! are never straddled.
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
//!
//! Runs that agree up to some step — the same circuit apart from sources
//! that only differ later, the same options apart from `t_stop` — can run
//! as one family ([`tran_family`]): the shared prefix is integrated once
//! and each member forks from a snapshot of it, with a result bit-identical
//! to its run alone. [`Circuit::tran`] is a family of one.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, Element, NodeId};
use crate::fault::{run_entropy, FaultPlan, FaultStream};
use crate::op::GMIN;
use crate::recover::{RecoveryPolicy, RecoveryStage, RecoveryTrace};
use crate::solver::{
    newton_solve, AnalysisError, CapMode, NewtonOptions, NewtonOutcome, NewtonWorkspace, System,
};
use proxim_numeric::pwl::{push_cubic_crossing, trapezoidal_slope, Edge, Pwl};
use proxim_obs as obs;
use std::time::Instant;

/// Global-registry handles for transient-solver telemetry, resolved once
/// per run so the per-solve path never touches the registry mutex. `None`
/// when the observability level is [`obs::Level::Off`].
struct TranMetrics {
    runs: obs::Counter,
    /// Wall time of whole runs (every attempt, DC init included), in
    /// seconds: the total the sampled assemble and LU times are part of.
    seconds: obs::Gauge,
    recoveries: obs::Counter,
    recovery_seconds: obs::Gauge,
    /// Sampled estimate of Newton assembly time (device evaluation and
    /// stamping), in seconds.
    assemble_seconds: obs::Gauge,
    /// Sampled estimate of LU factor + solve time, in seconds.
    lu_seconds: obs::Gauge,
    /// Accepted time steps integrated, summed over runs: a forked run's
    /// inherited prefix counts in `shared_steps` instead.
    accepted_steps: obs::Counter,
    /// Newton iterations integrated, summed over runs.
    newton_iterations: obs::Counter,
    /// Runs forked from a family's shared prefix ([`tran_family`]).
    forked_runs: obs::Counter,
    /// Accepted steps forked runs inherited instead of integrating.
    shared_steps: obs::Counter,
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
            seconds: reg.gauge("spice.tran.seconds"),
            recoveries: reg.counter("spice.tran.recoveries"),
            recovery_seconds: reg.gauge("spice.tran.recovery_seconds"),
            assemble_seconds: reg.gauge("spice.tran.assemble_seconds"),
            lu_seconds: reg.gauge("spice.tran.lu_seconds"),
            accepted_steps: reg.counter("spice.tran.accepted_steps"),
            newton_iterations: reg.counter("spice.tran.newton_iterations"),
            forked_runs: reg.counter("spice.tran.forked_runs"),
            shared_steps: reg.counter("spice.tran.shared_steps"),
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

    /// Books one finished run: its result, `seconds` of wall time, and its
    /// static-order LU solves and fallbacks.
    fn book(&self, r: &TranResult, seconds: f64, (static_solves, static_fallbacks): (u64, u64)) {
        let work = r.work();
        self.runs.incr();
        self.seconds.add(seconds);
        self.accepted_steps.add(work.accepted_steps);
        self.newton_iterations.add(work.newton_iterations);
        self.forked_runs.add(work.forked_runs);
        self.shared_steps.add(work.shared_steps);
        self.recoveries.add(r.recovery.total() as u64);
        self.recovery_seconds.add(r.recovery.total_seconds());
        self.assemble_seconds.add(r.assemble_seconds);
        self.lu_seconds.add(r.lu_seconds);
        self.recovery_depth.observe(r.recovery.total() as f64);
        self.lu_static_solves.add(static_solves);
        self.lu_static_fallbacks.add(static_fallbacks);
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
    /// Newton's starting point for the step being solved.
    pred: Vec<f64>,
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
            pred: Vec::new(),
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// End time of the analysis, in seconds.
    pub t_stop: f64,
    /// The end time the step bounds were sized for, and the fault stream's
    /// key ([`crate::fault::run_entropy`]): `t_stop` as built by
    /// [`TranOptions::to`]. Runs that differ only in what follows a shared
    /// leading stimulus keep one horizon, and so their step bounds and
    /// fault draws, whatever their `t_stop`.
    pub horizon: f64,
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
    /// Solver fault sites (`newton`, `accept`, `kill`) for this run; the
    /// default [`FaultPlan::DISARMED`] never fires (see [`crate::fault`]).
    pub faults: FaultPlan,
}

/// A measurement-driven end for a transient run.
///
/// The run watches `node` for its first `edge`-direction crossing of `near`
/// and, at or after it, the first `edge`-direction crossing of `far`, read
/// as [`TrapezoidalCubic::crossings`](proxim_numeric::pwl::TrapezoidalCubic)
/// reads them off the node's waveform. After each accepted step it ends if
/// both crossings lie strictly before the *previous* time point: in the
/// usual case that is one accepted step after the step that crossed `far`.
/// Later samples cannot change a crossing that old (a segment's cubic
/// depends on no later sample, and the touching-knot rule reaches back only
/// to the last knot), so every first crossing the caller reads off the
/// shortened waveform, on the cubic or the linear interpolant, equals the
/// full run's. If `far` is never crossed the run goes to `t_stop` as
/// without a rule.
///
/// Nothing else moves: `t_stop` (the final breakpoint), the step bounds
/// and the fault stream keep their values, so the shortened run's samples
/// are a bit-exact prefix of the full run's.
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
    /// Reasonable defaults for an analysis ending at `t_stop` (also its
    /// `horizon`): `dt_max = t_stop / 100`, `dt_init = t_stop / 10_000`,
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
            horizon: t_stop,
            dt_min: t_stop * 1e-9,
            dt_max: t_stop / 100.0,
            dt_init: t_stop / 10_000.0,
            dv_max: 0.05,
            integrator: Integrator::Trapezoidal,
            recovery: RecoveryPolicy::default(),
            stop: None,
            faults: FaultPlan::DISARMED,
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

    /// Returns the options with a fault plan for the solver sites.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
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
    /// Estimated wall time spent assembling Newton systems (device
    /// evaluation and stamping) over the whole run, every attempt and the
    /// DC init included, in seconds: one Newton iteration in 64 is timed
    /// and scaled up. Measured from [`obs::Level::Metrics`] up; 0 otherwise.
    pub assemble_seconds: f64,
    /// Estimated wall time spent in LU factorization and triangular solves
    /// (dense fallbacks included), in seconds, sampled like
    /// `assemble_seconds`.
    pub lu_seconds: f64,
    /// Everything the recovery ladder did during the run (empty for a
    /// healthy run).
    pub recovery: RecoveryTrace,
    /// What this run inherited from a family's shared prefix instead of
    /// integrating ([`tran_family`]); `None` for a run that integrated
    /// every step from its own DC operating point. The samples and counts
    /// above are the same either way.
    pub shared: Option<SharedPrefix>,
}

/// The part of a forked run's final attempt that its family integrated
/// once: counted in [`TranResult::accepted_steps`] and
/// [`TranResult::newton_iterations`], but not integrated by this run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Accepted steps inherited.
    pub accepted_steps: usize,
    /// Newton iterations inherited.
    pub newton_iterations: usize,
}

/// Solver work summed over transient runs: what was integrated, and what
/// forked runs inherited from shared prefixes instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranWork {
    /// Accepted time steps integrated.
    pub accepted_steps: u64,
    /// Newton iterations integrated.
    pub newton_iterations: u64,
    /// Runs forked from a family's shared prefix.
    pub forked_runs: u64,
    /// Accepted steps forked runs inherited instead of integrating.
    pub shared_steps: u64,
}

impl TranWork {
    /// Adds `other`'s work to this total.
    pub fn add(&mut self, other: &Self) {
        self.accepted_steps += other.accepted_steps;
        self.newton_iterations += other.newton_iterations;
        self.forked_runs += other.forked_runs;
        self.shared_steps += other.shared_steps;
    }
}

impl TranResult {
    /// The solver work of this one run.
    pub fn work(&self) -> TranWork {
        let shared = self.shared.unwrap_or_default();
        TranWork {
            accepted_steps: (self.accepted_steps - shared.accepted_steps) as u64,
            newton_iterations: (self.newton_iterations - shared.newton_iterations) as u64,
            forked_runs: u64::from(self.shared.is_some()),
            shared_steps: shared.accepted_steps as u64,
        }
    }

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
    if faults.newton() {
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
    let mut result = None;
    tran_family(&[(ckt, *options)], cancel, |_, r| result = Some(r));
    result.unwrap_or_else(|| unreachable!("a family of one has one result"))
}

/// Runs a family of transients that may share a prefix, integrating that
/// prefix once, and hands each member's result to `each` with the
/// member's index, as soon as it is done (the leader's last), so the
/// caller need hold no more of them than it keeps. Each result is
/// bit-identical — times, node and branch samples, Newton and step
/// counts, recovery trace — to the member's run on its own.
///
/// The family integrates its *leader*: the member whose source breakpoints
/// diverge from the others' last. Another member can fork from the leader
/// when its circuit has the leader's nodes and elements, its options
/// differ from the leader's only in `t_stop`, and its sources equal the
/// leader's at t = 0. It then shares the leader's DC operating point and
/// every step up to the first one it cannot share: a step its own next
/// breakpoint or `t_stop` would bound differently, or one that ends past
/// the time their sources stop agreeing. At the top of that step the
/// leader's run is snapshotted — iterate, capacitor history, time, step,
/// breakpoint index, stop-rule crossings, fault stream, solve and
/// iteration counts, recovery trace and recorded samples — and the member
/// resumes from the snapshot on its own circuit. A member whose shared
/// prefix outlasts the leader's run (the stop rule fired, the common
/// `t_stop` was reached, or the run failed) gets the leader's result. A
/// member that cannot fork runs in a family of its own.
///
/// A forked member that fails at `dt_min` restarts from t = 0, as it would
/// alone. [`TranResult::shared`] records what each member inherited.
pub fn tran_family(
    members: &[(&Circuit, TranOptions)],
    cancel: &CancelToken,
    mut each: impl FnMut(usize, Result<TranResult, AnalysisError>),
) {
    with_arena(|arena| {
        let mut rest: Vec<usize> = (0..members.len()).collect();
        while !rest.is_empty() {
            rest = run_family(members, &rest, cancel, arena, &mut each);
        }
    });
}

/// Runs the leader of `family` (indices into `members`), forks every member
/// that can fork from it, hands their results to `each` (the leader's
/// last), and returns the members that cannot fork.
fn run_family(
    members: &[(&Circuit, TranOptions)],
    family: &[usize],
    cancel: &CancelToken,
    arena: &mut TranArena,
    each: &mut dyn FnMut(usize, Result<TranResult, AnalysisError>),
) -> Vec<usize> {
    let mut bps: Vec<Vec<f64>> = family
        .iter()
        .map(|&i| {
            let mut list = Vec::new();
            breakpoints_into(members[i].0, members[i].1.t_stop, &mut list);
            list
        })
        .collect();
    // The member diverging last has the greatest breakpoint list; the
    // earliest member leads among equals.
    let later = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()))
    };
    let lead = (0..family.len())
        .max_by(|&a, &b| later(&bps[a], &bps[b]).then(b.cmp(&a)))
        .unwrap_or(0);
    let (ckt, options) = members[family[lead]];
    let mut due = Vec::new();
    let mut alone = Vec::new();
    for (k, &i) in family.iter().enumerate() {
        if k == lead {
            continue;
        }
        let (member, member_opts) = members[i];
        match sources_agree(ckt, &options, member, &member_opts) {
            Some(agree) => due.push(Due {
                member: i,
                bps: std::mem::take(&mut bps[k]),
                bp_idx: 0,
                agree,
            }),
            None => alone.push(i),
        }
    }
    let mut forks = Forks {
        taken: vec![None; due.len()],
        due,
    };
    let lead_result = run(ckt, &options, cancel, arena, None, &mut forks);
    for (d, snapshot) in forks.due.iter().zip(forks.taken) {
        let (member, member_opts) = members[d.member];
        let result = match snapshot {
            Some(mut snapshot) => {
                // Forks of the leader's final attempt copy their samples
                // from its result now, one member at a time.
                if let Ok(lead) = &lead_result {
                    snapshot
                        .attempt
                        .fill(&lead.times, &lead.samples, &lead.branch_samples);
                }
                run(
                    member,
                    &member_opts,
                    cancel,
                    arena,
                    Some(snapshot),
                    &mut Forks::none(),
                )
            }
            None => inherit(&lead_result),
        };
        each(d.member, result);
    }
    each(family[lead], lead_result);
    alone
}

/// Whether `member` can fork from `lead`'s run — the same circuit up to
/// its sources, the same options up to `t_stop`, the same sources at
/// t = 0 (the DC operating point reads them there) — and, if so, the time
/// up to which its sources equal the leader's.
fn sources_agree(
    lead: &Circuit,
    lead_opts: &TranOptions,
    member: &Circuit,
    opts: &TranOptions,
) -> Option<f64> {
    if (TranOptions {
        t_stop: lead_opts.t_stop,
        ..*opts
    }) != *lead_opts
    {
        return None;
    }
    lead.sources_agree_until(member)
        .filter(|&agree| agree >= 0.0)
}

/// A family member following the leader's run until it forks.
#[derive(Debug)]
struct Due {
    /// Index into the family's members.
    member: usize,
    /// Its breakpoints (see [`breakpoints_into`]), and the index of the
    /// first one its own run would not have passed yet.
    bps: Vec<f64>,
    bp_idx: usize,
    /// The time up to which its sources equal the leader's.
    agree: f64,
}

impl Due {
    /// Whether the member's own run, in the leader's state at `t` with
    /// next step `h`, would take the leader's step to `t_new`. The step is
    /// the only place the two runs differ until their sources do: it is
    /// bounded by each run's own next breakpoint and clamped to its own
    /// `t_stop`. Advances the member's breakpoint index past `t` as its
    /// run would.
    fn shares(&mut self, t: f64, h: f64, t_new: f64, opts: &TranOptions) -> bool {
        let t_stop = self.bps[self.bps.len() - 1];
        while self.bp_idx < self.bps.len() && self.bps[self.bp_idx] <= t + opts.dt_min * 0.5 {
            self.bp_idx += 1;
        }
        let next_bp = self.bps.get(self.bp_idx).copied().unwrap_or(t_stop);
        let h_eff = h.min(opts.dt_max).min(next_bp - t).max(opts.dt_min);
        t < t_stop - opts.dt_min * 0.5
            && (t + h_eff).min(t_stop).to_bits() == t_new.to_bits()
            && t_new <= self.agree
    }
}

/// The members forking from a leader's run, and their snapshots.
struct Forks {
    due: Vec<Due>,
    /// One slot per member of `due`, filled where it forks.
    taken: Vec<Option<Snapshot>>,
}

impl Forks {
    /// A run with no members to fork.
    fn none() -> Self {
        Self {
            due: Vec::new(),
            taken: Vec::new(),
        }
    }

    /// The leader's run starts an attempt at t = 0: every member not yet
    /// forked starts it too.
    fn restart(&mut self) {
        for d in &mut self.due {
            d.bp_idx = 0;
        }
    }

    /// Snapshots every member that cannot share the leader's step from
    /// `st` to `t_new`; `snapshot` is the leader's state at `st`, which
    /// each member takes with its own breakpoint index.
    fn take_due(
        &mut self,
        st: &StepState,
        t_new: f64,
        opts: &TranOptions,
        snapshot: impl Fn() -> Snapshot,
    ) {
        for (d, slot) in self.due.iter_mut().zip(&mut self.taken) {
            if slot.is_some() {
                continue;
            }
            let from = d.bp_idx;
            if !d.shares(st.t, st.h, t_new, opts) {
                let mut s = snapshot();
                s.attempt.step.bp_idx = from;
                *slot = Some(s);
            }
        }
    }

    /// The leader's attempt failed with `st` as it stood: forks taken
    /// during it copy their samples now, before the buffers go.
    fn fill_from(&mut self, st: &StepState) {
        for s in self.taken.iter_mut().flatten() {
            s.attempt.fill(&st.times, &st.samples, &st.branch_samples);
        }
    }
}

/// The state a run carries across its attempts.
#[derive(Debug, Clone)]
struct RunState {
    /// The current attempt's options: each restart halves `dt_init` and
    /// `dv_max`.
    options: TranOptions,
    trace: RecoveryTrace,
    faults: FaultStream,
    /// Newton solves attempted so far, against the policy's budget.
    solves: usize,
}

impl RunState {
    fn new(options: &TranOptions, sys: &System<'_>, ckt: &Circuit) -> Self {
        Self {
            options: *options,
            trace: RecoveryTrace::default(),
            // Per-run entropy comes only from the run's own parameters, so
            // fault decisions replay identically regardless of worker
            // scheduling; it is keyed by the horizon rather than `t_stop`,
            // so family members draw alike.
            faults: FaultStream::for_run(
                &options.faults,
                run_entropy(options.horizon, options.dv_max, sys.n, ckt.elements.len()),
            ),
            solves: 0,
        }
    }
}

/// What an attempt's step loop advances.
#[derive(Debug, Clone, Default)]
struct StepState {
    x: Vec<f64>,
    t: f64,
    /// The next step to try.
    h: f64,
    bp_idx: usize,
    /// The predictor's history: the accepted points one and two steps
    /// before `t`, the steps that led from them, and how many steps have
    /// been accepted since the last breakpoint (only those points lie on
    /// the smooth piece of the solution that `t` is on).
    x_prev: Vec<f64>,
    x_prev2: Vec<f64>,
    h_prev: f64,
    h_prev2: f64,
    since_bp: usize,
    /// The stop rule's node voltage at `t`, and its trapezoidal slope
    /// there ([`trapezoidal_slope`]).
    v_watch: f64,
    m_watch: f64,
    newton_iterations: usize,
    accepted_steps: usize,
    times: Vec<f64>,
    samples: Vec<f64>,
    branch_samples: Vec<f64>,
}

impl StepState {
    /// A copy of everything but the recorded samples.
    fn without_samples(&self) -> Self {
        Self {
            x: self.x.clone(),
            x_prev: self.x_prev.clone(),
            x_prev2: self.x_prev2.clone(),
            times: Vec::new(),
            samples: Vec::new(),
            branch_samples: Vec::new(),
            ..*self
        }
    }

    /// Newton's starting point for a step of `h` from `t`, into `out`: the
    /// quadratic through the last three accepted points since the last
    /// breakpoint, the line through two, or the current point alone right
    /// after a breakpoint, extrapolated to `t + h`.
    fn predict(&self, h: f64, out: &mut Vec<f64>) {
        out.clear();
        let (x, p1, p2) = (&self.x, &self.x_prev, &self.x_prev2);
        match self.since_bp {
            0 => out.extend_from_slice(x),
            1 => {
                let r = h / self.h_prev;
                out.extend(x.iter().zip(p1).map(|(&a, &b)| a + r * (a - b)));
            }
            _ => {
                // Lagrange weights of the points at t, t − h1, t − h1 − h2.
                let (h1, h2) = (self.h_prev, self.h_prev2);
                let l0 = (h + h1) * (h + h1 + h2) / (h1 * (h1 + h2));
                let l1 = -h * (h + h1 + h2) / (h1 * h2);
                let l2 = h * (h + h1) / ((h1 + h2) * h2);
                out.extend(
                    x.iter()
                        .zip(p1)
                        .zip(p2)
                        .map(|((&a, &b), &c)| l0 * a + l1 * b + l2 * c),
                );
            }
        }
    }

    /// Accepts the solution `x_new` (left holding a spare buffer) after a
    /// step of `h`: it becomes the current point, and the predictor's
    /// history moves back one step, with no allocation.
    fn advance(&mut self, x_new: &mut Vec<f64>, h: f64) {
        std::mem::swap(&mut self.x_prev2, &mut self.x_prev);
        std::mem::swap(&mut self.x_prev, &mut self.x);
        std::mem::swap(&mut self.x, x_new);
        self.h_prev2 = self.h_prev;
        self.h_prev = h;
        self.since_bp += 1;
    }

    /// Appends the sample at `t`: every node voltage (ground first) and
    /// every branch current of the iterate.
    fn record(&mut self, nv: usize) {
        self.times.push(self.t);
        self.samples.push(0.0);
        self.samples.extend_from_slice(&self.x[..nv]);
        self.branch_samples.extend_from_slice(&self.x[nv..]);
    }
}

/// An attempt's state at the top of a step, outside the arena's reused
/// buffers as well as in them.
#[derive(Debug, Clone)]
struct AttemptState {
    /// Per-element capacitor history.
    hist: Vec<(f64, f64)>,
    /// The stop rule's near and far crossings.
    crossings: [Vec<(f64, Edge)>; 2],
    /// The step state; a fork's recorded samples stay behind in the
    /// leader's buffers until [`AttemptState::fill`] copies them.
    step: StepState,
    /// Samples the leader had recorded where the member forked, while they
    /// are not yet copied into `step`.
    recorded: Option<usize>,
}

impl AttemptState {
    /// Copies the first `recorded` samples from the leader's attempt
    /// buffers (which only grew since the fork), if not yet done.
    fn fill(&mut self, times: &[f64], samples: &[f64], branch_samples: &[f64]) {
        let Some(n) = self.recorded.take() else {
            return;
        };
        // Sized like the leader's buffers, the member's will rarely grow.
        let prefix = |buf: &[f64]| {
            let mut v = Vec::with_capacity(buf.len());
            v.extend_from_slice(&buf[..n * (buf.len() / times.len().max(1))]);
            v
        };
        self.step.times = prefix(times);
        self.step.samples = prefix(samples);
        self.step.branch_samples = prefix(branch_samples);
    }
}

/// Everything a run reads at the top of a step, copied where a family
/// member forks from the leader's run.
#[derive(Debug, Clone)]
struct Snapshot {
    run: RunState,
    attempt: AttemptState,
}

/// The result of a member whose shared prefix outlasted the leader's run:
/// the leader's own, all of it inherited.
fn inherit(lead: &Result<TranResult, AnalysisError>) -> Result<TranResult, AnalysisError> {
    let mut r = lead.clone()?;
    r.shared = Some(SharedPrefix {
        accepted_steps: r.accepted_steps,
        newton_iterations: r.newton_iterations,
    });
    r.assemble_seconds = 0.0;
    r.lu_seconds = 0.0;
    if let Some(m) = TranMetrics::new() {
        m.book(&r, 0.0, (0, 0));
    }
    Ok(r)
}

/// The breakpoints a run to `t_stop` lands on: the PWL corners of all
/// sources inside `(0, t_stop)`, then `t_stop`.
fn breakpoints_into(ckt: &Circuit, t_stop: f64, list: &mut Vec<f64>) {
    list.clear();
    list.extend(
        ckt.source_breakpoints()
            .into_iter()
            .filter(|&t| t > 0.0 && t < t_stop),
    );
    list.push(t_stop);
}

/// One run: the restart loop around [`tran_attempt`]. With `resume`, the
/// first attempt continues a family leader's attempt from a snapshot
/// instead of starting at t = 0.
fn run(
    ckt: &Circuit,
    options: &TranOptions,
    cancel: &CancelToken,
    arena: &mut TranArena,
    resume: Option<Snapshot>,
    forks: &mut Forks,
) -> Result<TranResult, AnalysisError> {
    // The stamp plan and its static-order LU program are pure functions
    // of topology, compiled once per run and used by every solve (DC init
    // included).
    let sys = System::with_static_order(ckt);
    let metrics = TranMetrics::new();
    let mut span = obs::span("spice.tran").arg("t_stop", format_args!("{:.3e}", options.t_stop));
    let (mut state, mut resume) = match resume {
        // A forked member goes on with the leader's attempt under its own
        // end time.
        Some(Snapshot { run, attempt }) => (
            RunState {
                options: TranOptions {
                    t_stop: options.t_stop,
                    ..run.options
                },
                ..run
            },
            Some(attempt),
        ),
        None => (RunState::new(options, &sys, ckt), None),
    };
    let mut shared = resume.as_ref().map(|a| SharedPrefix {
        accepted_steps: a.step.accepted_steps,
        newton_iterations: a.step.newton_iterations,
    });
    let run_start = Instant::now();
    arena.ws.static_solves = 0;
    arena.ws.static_fallbacks = 0;
    arena.ws.sample_layers = metrics.is_some();
    arena.ws.assemble_seconds = 0.0;
    arena.ws.lu_seconds = 0.0;
    let mut st = StepState::default();
    loop {
        let attempt_start = Instant::now();
        let attempt = tran_attempt(
            ckt,
            &sys,
            &mut state,
            &metrics,
            cancel,
            arena,
            &mut st,
            resume.take(),
            forks,
        );
        if attempt.is_err() {
            forks.fill_from(&st);
        }
        match attempt {
            Ok(mut result) => {
                result.recovery = state.trace;
                result.shared = shared;
                if let Some(m) = &metrics {
                    m.book(
                        &result,
                        run_start.elapsed().as_secs_f64(),
                        (arena.ws.static_solves, arena.ws.static_fallbacks),
                    );
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
                if state.trace.restarts < options.recovery.max_restarts as usize =>
            {
                state.options.dt_init = (state.options.dt_init * 0.5).max(state.options.dt_min);
                state.options.dv_max *= 0.5;
                state.trace.record(
                    RecoveryStage::RunRestart,
                    0.0,
                    state.options.dt_init,
                    attempt_start.elapsed().as_secs_f64(),
                    false,
                );
                // The restarted attempt integrates from t = 0 like any.
                if let Some(s) = &mut shared {
                    *s = SharedPrefix::default();
                }
                let _ = obs::event("spice.recover")
                    .arg("stage", RecoveryStage::RunRestart)
                    .arg("restarts", state.trace.restarts);
            }
            Err(mut e) => {
                // A deadline that expired while the ladder was climbing
                // reports where the time went: the accumulated trace of this
                // run (all attempts so far) rides along on the error.
                if let AnalysisError::DeadlineExceeded { recovery, .. } = &mut e {
                    **recovery = std::mem::take(&mut state.trace);
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
    run: &mut RunState,
    metrics: &Option<TranMetrics>,
    cancel: &CancelToken,
    arena: &mut TranArena,
    st: &mut StepState,
    resume: Option<AttemptState>,
    forks: &mut Forks,
) -> Result<TranResult, AnalysisError> {
    let options = run.options;
    let policy = options.recovery;
    let opts = NewtonOptions::default();
    // Disjoint borrows of the arena's pieces for the rest of the attempt.
    let TranArena {
        ws,
        pred,
        hist,
        breakpoints,
        crossings: [near_crossings, far_crossings],
        times_hint,
        samples_hint,
        branch_hint,
    } = arena;
    breakpoints_into(ckt, options.t_stop, breakpoints);
    let node_count = ckt.node_count();
    let branch_count = sys.n - sys.nv;

    *st = match resume {
        Some(AttemptState {
            hist: h,
            crossings: [near, far],
            step,
            recorded,
        }) => {
            debug_assert!(recorded.is_none(), "a fork resumes with its samples");
            *hist = h;
            *near_crossings = near;
            *far_crossings = far;
            step
        }
        None => {
            forks.restart();
            // Initial condition: DC operating point with sources at t = 0.
            let op = crate::op::dc_solve_with(ckt, sys, 0.0, None, cancel, ws)?;
            // Per-element capacitor history (v_prev across the cap, i_prev
            // through it). Entries for non-capacitor elements are unused.
            hist.clear();
            hist.extend(ckt.elements.iter().map(|e| match e {
                Element::Capacitor { a, b, .. } => (sys.v(&op.x, *a) - sys.v(&op.x, *b), 0.0),
                _ => (0.0, 0.0),
            }));
            near_crossings.clear();
            far_crossings.clear();
            let v_watch = options.stop.map_or(0.0, |rule| sys.v(&op.x, rule.node));
            // Flat sample storage: appending a step is two extends into
            // contiguous buffers, no per-step allocation once capacity has
            // grown. These move out into the result, so the arena can only
            // contribute high-water capacity hints from earlier runs.
            let mut st = StepState {
                x_prev: op.x.clone(),
                x_prev2: op.x.clone(),
                x: op.x,
                t: 0.0,
                h: options.dt_init.min(options.dt_max),
                bp_idx: 0,
                h_prev: 0.0,
                h_prev2: 0.0,
                since_bp: 0,
                v_watch,
                m_watch: 0.0,
                newton_iterations: 0,
                accepted_steps: 0,
                times: Vec::with_capacity(*times_hint),
                samples: Vec::with_capacity(*samples_hint),
                branch_samples: Vec::with_capacity(*branch_hint),
            };
            st.record(sys.nv);
            st
        }
    };

    while st.t < options.t_stop - options.dt_min * 0.5 {
        // Step boundary: a cancellation point even when every solve is
        // converging on the first try.
        cancel.check("transient")?;
        let bp_from = st.bp_idx;
        while st.bp_idx < breakpoints.len() && breakpoints[st.bp_idx] <= st.t + options.dt_min * 0.5
        {
            st.bp_idx += 1;
        }
        let next_bp = breakpoints
            .get(st.bp_idx)
            .copied()
            .unwrap_or(options.t_stop);
        let h_eff =
            st.h.min(options.dt_max)
                .min(next_bp - st.t)
                .max(options.dt_min);
        let t_new = (st.t + h_eff).min(options.t_stop);
        let h_eff = t_new - st.t;
        // Family members that cannot share this step fork here.
        forks.take_due(st, t_new, &options, || Snapshot {
            run: run.clone(),
            attempt: AttemptState {
                hist: hist.clone(),
                crossings: [near_crossings.clone(), far_crossings.clone()],
                step: st.without_samples(),
                recorded: Some(st.times.len()),
            },
        });
        // The step starts on a breakpoint of this run's own: the points
        // before it lie on another piece of the solution. (Forks above took
        // the history as it stood, and test their own breakpoints.)
        if st.bp_idx != bp_from {
            st.since_bp = 0;
        }
        st.predict(h_eff, pred);

        let (geq_per_farad, trap_coeff) = match options.integrator {
            Integrator::Trapezoidal => (2.0 / h_eff, -1.0),
            Integrator::BackwardEuler => (1.0 / h_eff, 0.0),
        };
        let caps = CapMode::Tran {
            geq_per_farad,
            trap_coeff,
            hist,
        };
        let (x, faults, solves, trace) = (&st.x, &mut run.faults, &mut run.solves, &mut run.trace);

        let solved = match checked_solve(
            sys, pred, t_new, GMIN, caps, &opts, ws, &policy, faults, solves, metrics, cancel,
        )? {
            NewtonOutcome::Converged(iters) => {
                st.newton_iterations += iters;
                true
            }
            NewtonOutcome::Failed => {
                // The rungs start from the last accepted point, in case
                // the predictor's extrapolation was what failed.
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
                        sys, x, t_new, GMIN, caps, &dopts, ws, &policy, faults, solves, metrics,
                        cancel,
                    )? {
                        st.newton_iterations += iters;
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
                            sys, &warm, t_new, g, caps, &opts, ws, &policy, faults, solves,
                            metrics, cancel,
                        )? {
                            NewtonOutcome::Converged(iters) => {
                                st.newton_iterations += iters;
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
            run.trace
                .record(RecoveryStage::StepCut, t_new, h_eff, 0.0, false);
            st.h = (h_eff * 0.25).max(options.dt_min);
            continue;
        }

        // Converged: the candidate solution is in ws.x.
        let max_dv =
            st.x.iter()
                .zip(&ws.x)
                .take(sys.nv)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        if max_dv > options.dv_max && h_eff > options.dt_min * 1.01 {
            // Too coarse: retry with a smaller step sized to hit the
            // voltage-change target.
            st.h = (h_eff * (0.8 * options.dv_max / max_dv).max(0.1)).max(options.dt_min);
            continue;
        }
        if run.faults.accept() && h_eff > options.dt_min * 1.01 {
            // Injected rejection of an otherwise-acceptable step; behaves
            // like a step cut (and is recorded as one).
            run.trace
                .record(RecoveryStage::StepCut, t_new, h_eff, 0.0, false);
            st.h = (h_eff * 0.25).max(options.dt_min);
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
        // The oldest history buffer becomes the workspace's scratch buffer
        // for the next step — no allocation on accept.
        st.advance(&mut ws.x, h_eff);
        let t_prev = st.t;
        st.t = t_new;
        st.accepted_steps += 1;
        st.record(sys.nv);
        if let Some(rule) = &options.stop {
            // Only a later segment's crossing at exactly `t` can still drop
            // an entry, so entries before `t` are already final; waiting
            // until both crossings lie before `t_prev` keeps one accepted
            // step of margin.
            let v = sys.v(&st.x, rule.node);
            let m = trapezoidal_slope((t_prev, st.v_watch), st.m_watch, (st.t, v));
            let (a, b) = ((t_prev, st.v_watch, st.m_watch), (st.t, v, m));
            push_cubic_crossing(near_crossings, rule.near, a, b);
            push_cubic_crossing(far_crossings, rule.far, a, b);
            (st.v_watch, st.m_watch) = (v, m);
            if rule.met(near_crossings, far_crossings, t_prev) {
                break;
            }
        }
        // Size the next step to land at 90 % of the voltage-change target,
        // at most doubling it.
        st.h = h_eff * (0.9 * options.dv_max / max_dv).min(2.0);
    }

    // Remember how big the sample buffers got so the next run on this
    // thread pre-sizes instead of growing.
    *times_hint = (*times_hint).max(st.times.len());
    *samples_hint = (*samples_hint).max(st.samples.len());
    *branch_hint = (*branch_hint).max(st.branch_samples.len());

    Ok(TranResult {
        times: std::mem::take(&mut st.times),
        node_count,
        branch_count,
        samples: std::mem::take(&mut st.samples),
        branch_samples: std::mem::take(&mut st.branch_samples),
        newton_iterations: st.newton_iterations,
        accepted_steps: st.accepted_steps,
        assemble_seconds: ws.assemble_seconds,
        lu_seconds: ws.lu_seconds,
        recovery: RecoveryTrace::default(),
        shared: None,
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
