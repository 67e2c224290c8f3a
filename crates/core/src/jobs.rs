//! The characterization job queue: enumerate → execute → assemble.
//!
//! Characterization cost is dominated by thousands of *independent*
//! transient analyses. Rather than interleaving simulation with table
//! construction, each model layer first **enumerates** its grid as plain
//! [`SimJob`] values, the whole batch is **executed** — sequentially or by a
//! pool of scoped worker threads pulling from an atomic work queue — and the
//! tables are then **assembled** from the outcomes in job order.
//!
//! Because assembly consumes outcomes strictly by job index, the resulting
//! model is byte-identical regardless of worker count or scheduling: thread
//! interleaving decides only *when* a slot is filled, never *what* ends up
//! in it. Failures keep the same determinism — a failed simulation becomes
//! a typed [`JobOutcome::Failed`] in its own slot, each job runs under
//! [`std::panic::catch_unwind`] supervision so one pathological job cannot
//! poison the pool, and assembly surfaces the first failed job in index
//! order.

use crate::characterize::Simulator;
use crate::checkpoint::{stimulus_hash, CheckpointJournal};
use crate::error::ModelError;
use crate::measure::{InputEvent, Scenario};
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use proxim_spice::{AnalysisError, RecoveryTrace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Canonical metric names recorded by the characterization pipeline.
///
/// Every counter behind [`CharStats`] is booked under these names into a
/// per-run [`obs::Registry`] (the source of truth the stats snapshot is
/// derived from) and mirrored into [`obs::Registry::global`] whenever
/// metrics are enabled, so external sinks see process-wide totals under
/// the same names.
pub mod metric {
    /// Jobs submitted to [`super::execute_jobs`].
    pub const JOBS_ENUMERATED: &str = "char.jobs.enumerated";
    /// Jobs that produced a measurement.
    pub const JOBS_SUCCEEDED: &str = "char.jobs.succeeded";
    /// Jobs that produced [`super::JobOutcome::Failed`].
    pub const JOBS_FAILED: &str = "char.jobs.failed";
    /// Jobs answered from a checkpoint journal instead of simulating
    /// (resume path; see [`crate::checkpoint`]). These also count as
    /// succeeded — the skip counter measures work *avoided*.
    pub const JOBS_SKIPPED: &str = "char.jobs.skipped_checkpoint";
    /// Transient simulations actually run (queued jobs plus the
    /// sequential calibration/correction tail).
    pub const SIMS_RUN: &str = "char.sims_run";
    /// Recovery-ladder actions across all transients.
    pub const RECOVERIES: &str = "char.recoveries";
    /// Wall-clock seconds spent inside the recovery ladder (gauge).
    pub const RECOVERY_SECONDS: &str = "char.recovery_seconds";
    /// Model slices dropped (marked degraded) because their jobs failed.
    pub const DEGRADED_SLICES: &str = "char.degraded_slices";
    /// Models served from the on-disk cache without simulating.
    pub const CACHE_HITS: &str = "char.cache.hits";
    /// Models characterized from scratch.
    pub const CACHE_MISSES: &str = "char.cache.misses";
    /// Corrupt cache entries quarantined before recharacterizing.
    pub const CACHE_QUARANTINED: &str = "char.cache.quarantined";
    /// Per-job wall-clock histogram, in seconds.
    pub const JOB_SECONDS: &str = "char.job.seconds";
    /// Physics-invariant violations reported by the post-assembly audit
    /// (see [`crate::audit`]).
    pub const AUDIT_FINDINGS: &str = "char.audit.findings";
    /// Grid points re-simulated and patched by the audit repair pass.
    pub const REPAIR_POINTS: &str = "audit.repair.points";
    /// Slices the repair pass demoted to degraded provenance.
    pub const REPAIR_DEMOTED: &str = "audit.repair.demoted";
    /// Transient simulations the repair pass ran.
    pub const REPAIR_SIMS: &str = "audit.repair.sims";
    /// High-water count of pool workers that claimed at least one job in a
    /// job-queue phase (gauge). `1` on inline runs; on a healthy
    /// multi-worker run this equals the resolved thread count, and the
    /// bench harness fails when a parallel section unexpectedly resolves
    /// to a single engaged worker.
    pub const WORKERS_ENGAGED: &str = "char.pool.workers_engaged";

    /// Bucket bounds of [`JOB_SECONDS`]: characterization transients range
    /// from sub-millisecond single-input rows to second-scale glitch runs.
    pub const JOB_SECONDS_BOUNDS: &[f64] = &[0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0];
}

/// The stimulus of one independent characterization transient.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// A same-direction switching scenario measured through
    /// [`Simulator::simulate`]: delay referenced to `events[0]`, the
    /// `V_il`–`V_ih` output transition time, and (for single-input table
    /// rows) the wide 5–95 % edge time feeding the tail factor.
    Events {
        /// The switching inputs; the delay is measured from `events[0]`.
        events: Vec<InputEvent>,
        /// Output load override; `None` runs at the simulator's reference
        /// load (the NLDM surface sweeps this axis).
        c_load: Option<f64>,
        /// Whether to also measure the 5–95 % edge time.
        measure_wide: bool,
    },
    /// A causer/blocker glitch scenario measuring the output extremum (§6).
    Glitch {
        /// The causer's resolved sensitization (stable levels, output edge).
        scenario: Scenario,
        /// The causer event (drives the output transition).
        causer: InputEvent,
        /// The blocker event (switches the opposite way).
        blocker: InputEvent,
    },
}

/// One independent simulation scenario, ready to execute on any worker.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// What to simulate and measure.
    pub stimulus: Stimulus,
}

impl SimJob {
    /// A same-direction events job at the reference load.
    pub fn events(events: Vec<InputEvent>) -> Self {
        Self {
            stimulus: Stimulus::Events {
                events,
                c_load: None,
                measure_wide: false,
            },
        }
    }

    /// An events job that also measures the wide edge time.
    pub fn events_wide(events: Vec<InputEvent>) -> Self {
        Self {
            stimulus: Stimulus::Events {
                events,
                c_load: None,
                measure_wide: true,
            },
        }
    }

    /// An events job at an explicit output load.
    pub fn events_at_load(events: Vec<InputEvent>, c_load: f64) -> Self {
        Self {
            stimulus: Stimulus::Events {
                events,
                c_load: Some(c_load),
                measure_wide: false,
            },
        }
    }

    /// A glitch job.
    pub fn glitch(scenario: Scenario, causer: InputEvent, blocker: InputEvent) -> Self {
        Self {
            stimulus: Stimulus::Glitch {
                scenario,
                causer,
                blocker,
            },
        }
    }
}

/// The measured result of one executed [`SimJob`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Measurements of an [`Stimulus::Events`] job.
    Response {
        /// The output transition direction.
        output_edge: Edge,
        /// Delay from `events[0]`'s threshold crossing, in seconds.
        delay: f64,
        /// Output transition time between `V_il` and `V_ih`, in seconds.
        trans: f64,
        /// The 5–95 % edge time, when requested and measurable.
        wide: Option<f64>,
    },
    /// The output-voltage extremum of a [`Stimulus::Glitch`] job, in volts.
    Peak(f64),
    /// The job did not produce a measurement: the simulation errored, or
    /// the worker supervising it caught a panic. The batch survives — the
    /// failure occupies the job's slot so assembly stays index-ordered.
    Failed {
        /// Index of the failed job within its batch.
        job: usize,
        /// What went wrong.
        reason: ModelError,
    },
}

impl JobOutcome {
    /// The `(delay, trans)` pair of a response outcome.
    ///
    /// # Errors
    ///
    /// A [`Self::Failed`] outcome surfaces its recorded reason; a glitch
    /// peak (a static mis-routing, which deterministic enumeration should
    /// make impossible) surfaces as [`ModelError::Table`].
    pub fn response(&self) -> Result<(f64, f64), ModelError> {
        match self {
            Self::Response { delay, trans, .. } => Ok((*delay, *trans)),
            Self::Failed { reason, .. } => Err(reason.clone()),
            Self::Peak(_) => Err(ModelError::Table(
                "expected an events response, got a glitch peak".into(),
            )),
        }
    }

    /// The extremum voltage of a glitch outcome.
    ///
    /// # Errors
    ///
    /// Mirrors [`Self::response`] with the roles swapped.
    pub fn peak(&self) -> Result<f64, ModelError> {
        match self {
            Self::Peak(v) => Ok(*v),
            Self::Failed { reason, .. } => Err(reason.clone()),
            Self::Response { .. } => Err(ModelError::Table(
                "expected a glitch peak, got an events response".into(),
            )),
        }
    }

    /// The failure reason, if this outcome is a [`Self::Failed`].
    pub fn failure(&self) -> Option<&ModelError> {
        match self {
            Self::Failed { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

/// Executes one job against the simulator, also reporting the recovery
/// ladder's trace for the underlying transient.
fn run_job(sim: &Simulator<'_>, job: &SimJob) -> Result<(JobOutcome, RecoveryTrace), ModelError> {
    match &job.stimulus {
        Stimulus::Events {
            events,
            c_load,
            measure_wide,
        } => {
            let pass;
            let s = match c_load {
                Some(c) => {
                    pass = Simulator {
                        c_load: *c,
                        ..sim.clone()
                    };
                    &pass
                }
                None => sim,
            };
            let th = s.thresholds;
            let r = if *measure_wide {
                s.simulate_wide(events)?
            } else {
                s.simulate(events)?
            };
            let delay = r.delay_from(0, &th)?;
            let trans = r.transition_time(&th)?;
            let vdd = s.tech.vdd;
            let wide = if *measure_wide {
                r.output
                    .transition_time(0.05 * vdd, 0.95 * vdd, r.output_edge)
            } else {
                None
            };
            Ok((
                JobOutcome::Response {
                    output_edge: r.output_edge,
                    delay,
                    trans,
                    wide,
                },
                r.recovery,
            ))
        }
        Stimulus::Glitch {
            scenario,
            causer,
            blocker,
        } => {
            let (v, recovery) = crate::glitch::simulate_glitch(
                sim,
                scenario,
                *causer,
                *blocker,
                scenario.output_edge,
            )?;
            Ok((JobOutcome::Peak(v), recovery))
        }
    }
}

/// One supervised job execution: its outcome plus per-job telemetry.
#[derive(Debug, Clone)]
struct JobRun {
    outcome: JobOutcome,
    recovery: RecoveryTrace,
    /// Wall-clock seconds the job held a worker, failures included.
    seconds: f64,
    /// Whether the outcome was replayed from a checkpoint journal instead
    /// of simulated.
    skipped: bool,
}

impl JobRun {
    fn failed(i: usize, reason: ModelError, seconds: f64) -> Self {
        Self {
            outcome: JobOutcome::Failed { job: i, reason },
            recovery: RecoveryTrace::default(),
            seconds,
            skipped: false,
        }
    }
}

/// Runs one job under panic supervision: a simulation error or a caught
/// panic becomes a typed [`JobOutcome::Failed`] in the job's slot instead of
/// unwinding into (and poisoning) the worker pool.
fn run_supervised(sim: &Simulator<'_>, i: usize, job: &SimJob) -> JobRun {
    let kind = match &job.stimulus {
        Stimulus::Events { .. } => "events",
        Stimulus::Glitch { .. } => "glitch",
    };
    let span = obs::span("char.job").arg("job", i).arg("kind", kind);
    let start = Instant::now();
    let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(sim, job))) {
        Ok(Ok((outcome, recovery))) => JobRun {
            outcome,
            recovery,
            seconds: start.elapsed().as_secs_f64(),
            skipped: false,
        },
        Ok(Err(reason)) => JobRun::failed(i, reason, start.elapsed().as_secs_f64()),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            let reason = ModelError::Simulation(AnalysisError::Aborted {
                analysis: "characterization job".into(),
                detail: format!("job panicked: {detail}"),
            });
            JobRun::failed(i, reason, start.elapsed().as_secs_f64())
        }
    };
    drop(
        span.arg("ok", !matches!(run.outcome, JobOutcome::Failed { .. }))
            .arg("recoveries", run.recovery.total()),
    );
    run
}

/// One job under run control: the simulator's cancellation token is checked
/// at the job boundary (a cancelled claim becomes a typed, *non-degradable*
/// failure in the job's slot, so the run fails with the cancellation
/// instead of degrading slices), and — when a checkpoint journal is active
/// — completed outcomes are answered from the journal or recorded into it.
fn run_controlled(
    sim: &Simulator<'_>,
    i: usize,
    job: &SimJob,
    checkpoint: Option<(&CheckpointJournal, &str)>,
) -> JobRun {
    if let Err(e) = sim.cancel.check("characterization job") {
        return JobRun::failed(i, e.into(), 0.0);
    }
    let Some((journal, phase)) = checkpoint else {
        return run_supervised(sim, i, job);
    };
    let stim = stimulus_hash(job);
    if let Some(outcome) = journal.lookup(phase, i, stim) {
        return JobRun {
            outcome,
            recovery: RecoveryTrace::default(),
            seconds: 0.0,
            skipped: true,
        };
    }
    let run = run_supervised(sim, i, job);
    journal.record(phase, i, stim, &run.outcome);
    run
}

/// The result of executing a batch of jobs: one outcome per job (in job
/// order, failures included) plus batch-level resilience telemetry.
#[derive(Debug, Clone)]
pub struct JobBatch {
    /// One outcome per job, in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Merged recovery-ladder trace across all transients in the batch
    /// (counters, per-rung wall time, and capped attempt details).
    pub recovery: RecoveryTrace,
    /// Total recovery-ladder actions; equals `self.recovery.total()`.
    pub recoveries: usize,
    /// Number of [`JobOutcome::Failed`] entries.
    pub failed_jobs: usize,
    /// Jobs answered from a checkpoint journal instead of simulating
    /// (always `0` without an active journal).
    pub skipped: usize,
    /// Wall-clock seconds each job held a worker, in job order.
    pub job_seconds: Vec<f64>,
    /// Pool workers that claimed at least one job (`1` for inline
    /// execution). A parallel batch where this stays at `1` means the pool
    /// was dead weight — the condition the bench harness gates on.
    pub workers_engaged: usize,
}

impl JobBatch {
    fn collect(runs: impl Iterator<Item = JobRun>) -> Self {
        let mut outcomes = Vec::new();
        let mut recovery = RecoveryTrace::default();
        let mut failed_jobs = 0;
        let mut skipped = 0;
        let mut job_seconds = Vec::new();
        for run in runs {
            recovery.merge(&run.recovery);
            if matches!(run.outcome, JobOutcome::Failed { .. }) {
                failed_jobs += 1;
            }
            if run.skipped {
                skipped += 1;
            }
            outcomes.push(run.outcome);
            job_seconds.push(run.seconds);
        }
        Self {
            outcomes,
            recoveries: recovery.total(),
            recovery,
            failed_jobs,
            skipped,
            job_seconds,
            workers_engaged: 1,
        }
    }
}

/// Executes a batch of jobs across `threads` workers and returns the
/// outcomes **in job order**.
///
/// Workers pull indices from a shared atomic counter, so load balances
/// dynamically across jobs of very different cost (a glitch transient can
/// run 10× longer than a fast single-input row). Results are written back
/// by index, making the output independent of scheduling.
///
/// Every job runs under [`catch_unwind`](std::panic::catch_unwind)
/// supervision, and a worker thread that dies anyway (a panic outside the
/// supervised region) only loses its own claimed jobs: the batch marks
/// those slots [`JobOutcome::Failed`] and the surviving workers' results
/// are still assembled.
///
/// `threads == 1` (or a batch of at most one job) runs inline on the caller
/// thread with no pool at all.
pub fn execute_jobs(sim: &Simulator<'_>, jobs: &[SimJob], threads: usize) -> JobBatch {
    execute_jobs_controlled(sim, jobs, threads, None)
}

/// [`execute_jobs`] under run control: the simulator's cancellation token
/// is polled before every job claim (cancelled claims become typed failed
/// slots, surfaced by [`first_error`] in job order), and an active
/// checkpoint journal short-circuits already-completed jobs — their
/// recorded outcomes are replayed bit-exactly with zero simulations —
/// while newly completed jobs are journaled as they finish, from whichever
/// worker thread finishes them.
pub fn execute_jobs_controlled(
    sim: &Simulator<'_>,
    jobs: &[SimJob],
    threads: usize,
    checkpoint: Option<(&CheckpointJournal, &str)>,
) -> JobBatch {
    let _span = obs::span("char.execute")
        .arg("jobs", jobs.len())
        .arg("threads", threads);
    if threads <= 1 || jobs.len() <= 1 {
        return JobBatch::collect(
            jobs.iter()
                .enumerate()
                .map(|(i, j)| run_controlled(sim, i, j, checkpoint)),
        );
    }

    let workers = threads.min(jobs.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<JobRun>> = vec![None; jobs.len()];
    let mut worker_panic: Option<String> = None;
    let mut engaged = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, run_controlled(sim, i, &jobs[i], checkpoint)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    if !local.is_empty() {
                        engaged += 1;
                    }
                    for (i, r) in local {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => {
                    // The worker died outside job supervision; its claimed
                    // slots stay `None` and are marked failed below. It did
                    // engage — the pool-liveness gauge counts claims, not
                    // clean exits.
                    engaged += 1;
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    worker_panic.get_or_insert(detail);
                }
            }
        }
    });
    let worker_panic = worker_panic.unwrap_or_else(|| "worker lost".into());
    let mut batch = JobBatch::collect(results.into_iter().enumerate().map(|(i, slot)| {
        slot.unwrap_or_else(|| {
            JobRun::failed(
                i,
                ModelError::Simulation(AnalysisError::Aborted {
                    analysis: "characterization worker".into(),
                    detail: format!("worker panicked: {worker_panic}"),
                }),
                0.0,
            )
        })
    }));
    batch.workers_engaged = engaged.max(1);
    batch
}

/// Scans a span of outcomes and surfaces the first failure in job order,
/// otherwise hands back the outcomes. This keeps error behavior identical
/// between sequential and parallel runs.
///
/// # Errors
///
/// Returns the recorded reason of the first [`JobOutcome::Failed`].
pub fn first_error(outcomes: &[JobOutcome]) -> Result<Vec<&JobOutcome>, ModelError> {
    let mut ok = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        match o.failure() {
            Some(e) => return Err(e.clone()),
            None => ok.push(o),
        }
    }
    Ok(ok)
}

/// Counters describing one characterization run (satisfying the perf and
/// resilience acceptance criteria: cache behavior, simulation volume, and
/// degradation are observable, not inferred).
///
/// The run counters are not accumulated ad hoc: characterization books every
/// batch into a per-run [`obs::Registry`] under the [`metric`] names and this
/// struct is derived from its snapshot ([`Self::from_registry`]), then
/// cross-checked by [`Self::invariant_violation`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CharStats {
    /// Models served from the on-disk cache without simulating.
    pub cache_hits: usize,
    /// Models characterized from scratch (including cache-corruption
    /// fallbacks).
    pub cache_misses: usize,
    /// Corrupt cache entries quarantined (renamed aside) before
    /// recharacterizing.
    pub cache_quarantined: usize,
    /// Transient simulations actually run.
    pub sims_run: usize,
    /// Worker threads used for the job-queue phases.
    pub threads: usize,
    /// High-water count of pool workers that actually claimed work in a
    /// job-queue phase. On a healthy multi-worker run this equals `threads`;
    /// `1` with `threads > 1` means the pool was dead weight.
    pub workers_engaged: usize,
    /// Jobs submitted to the job-queue phases.
    pub enumerated_jobs: usize,
    /// Jobs that produced a measurement.
    pub succeeded_jobs: usize,
    /// Jobs answered from a checkpoint journal instead of simulating (a
    /// subset of `succeeded_jobs`; nonzero only on a resumed run).
    pub checkpoint_skipped: usize,
    /// Recovery-ladder actions across all transients (damped retries, gmin
    /// continuations, step cuts, run restarts).
    pub recoveries: usize,
    /// Wall-clock seconds lost inside the recovery ladder (rescue solves
    /// and thrown-away restarted attempts).
    pub recovery_seconds: f64,
    /// Jobs that produced [`JobOutcome::Failed`] instead of a measurement.
    pub failed_jobs: usize,
    /// Model slices dropped (marked degraded) because their jobs failed.
    pub degraded_slices: usize,
    /// Physics-invariant violations reported by the post-assembly audit
    /// (telemetry only — findings never fail a characterization run).
    pub audit_findings: usize,
    /// Wall-clock seconds per pipeline phase.
    pub phases: PhaseTimes,
}

impl CharStats {
    /// Derives the run counters from a metrics-registry snapshot. Cache
    /// counters, `threads`, and `phases` are not registry-backed and stay at
    /// their defaults; callers fill them in.
    pub fn from_registry(snap: &obs::Snapshot) -> Self {
        let count = |name: &str| snap.counter(name) as usize;
        Self {
            sims_run: count(metric::SIMS_RUN),
            enumerated_jobs: count(metric::JOBS_ENUMERATED),
            succeeded_jobs: count(metric::JOBS_SUCCEEDED),
            checkpoint_skipped: count(metric::JOBS_SKIPPED),
            failed_jobs: count(metric::JOBS_FAILED),
            recoveries: count(metric::RECOVERIES),
            recovery_seconds: snap.gauge(metric::RECOVERY_SECONDS),
            workers_engaged: (snap.gauge(metric::WORKERS_ENGAGED) as usize).max(1),
            degraded_slices: count(metric::DEGRADED_SLICES),
            audit_findings: count(metric::AUDIT_FINDINGS),
            ..Self::default()
        }
    }

    /// Checks the job-accounting invariant: every enumerated job must end as
    /// exactly one success or one failure. The three counters are recorded
    /// from independent sources (submitted jobs, non-failed outcomes, failed
    /// outcomes), so a violation means outcomes were dropped or
    /// double-counted somewhere in the pipeline.
    ///
    /// Returns a description of the violation, or `None` when consistent.
    pub fn invariant_violation(&self) -> Option<String> {
        if self.succeeded_jobs + self.failed_jobs == self.enumerated_jobs {
            None
        } else {
            Some(format!(
                "job accounting out of balance: {} succeeded + {} failed != {} enumerated",
                self.succeeded_jobs, self.failed_jobs, self.enumerated_jobs
            ))
        }
    }
}

/// The per-run registry plus, when metrics are enabled, the process-global
/// one — every characterization counter is booked into both.
fn registries(reg: &obs::Registry) -> impl Iterator<Item = &obs::Registry> {
    std::iter::once(reg).chain(obs::metrics_enabled().then(obs::Registry::global))
}

/// Adds `n` to the counter `name` in the run registry and its global mirror.
pub(crate) fn bump(reg: &obs::Registry, name: &str, n: u64) {
    for r in registries(reg) {
        r.counter(name).add(n);
    }
}

/// Books one executed batch: job accounting (enumerated from the submitted
/// count, succeeded/failed by scanning the outcomes — deliberately separate
/// sources so [`CharStats::invariant_violation`] checks something real),
/// simulation volume, recovery cost, and the per-job wall-time histogram.
pub(crate) fn record_batch(reg: &obs::Registry, enumerated: usize, batch: &JobBatch) {
    let succeeded = batch
        .outcomes
        .iter()
        .filter(|o| !matches!(o, JobOutcome::Failed { .. }))
        .count();
    for r in registries(reg) {
        r.counter(metric::JOBS_ENUMERATED).add(enumerated as u64);
        r.counter(metric::JOBS_SUCCEEDED).add(succeeded as u64);
        r.counter(metric::JOBS_SKIPPED).add(batch.skipped as u64);
        r.counter(metric::JOBS_FAILED).add(batch.failed_jobs as u64);
        // Checkpoint-skipped jobs replay a recorded outcome and run no
        // transient, so they are excluded from the simulation volume.
        r.counter(metric::SIMS_RUN)
            .add((batch.outcomes.len() - batch.skipped) as u64);
        r.counter(metric::RECOVERIES).add(batch.recoveries as u64);
        r.gauge(metric::RECOVERY_SECONDS)
            .add(batch.recovery.total_seconds());
        let hist = r.histogram(metric::JOB_SECONDS, metric::JOB_SECONDS_BOUNDS);
        for &s in &batch.job_seconds {
            hist.observe(s);
        }
        // High-water mark across the run's batches: a run is only as
        // parallel as its most-engaged phase.
        let engaged = r.gauge(metric::WORKERS_ENGAGED);
        if (batch.workers_engaged as f64) > engaged.get() {
            engaged.set(batch.workers_engaged as f64);
        }
    }
}

/// Wall-clock breakdown of the characterization pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// VTC-family extraction and threshold selection (sequential).
    pub vtc: f64,
    /// Single-input batch: enumerate + execute + assemble.
    pub singles: f64,
    /// Dual/NLDM/glitch batch: enumerate + execute + assemble.
    pub pairs: f64,
    /// Sequential tail: ramp-stretch calibration and correction terms.
    pub finish: f64,
}

impl PhaseTimes {
    /// Total characterization wall-clock, in seconds.
    pub fn total(&self) -> f64 {
        self.vtc + self.singles + self.pairs + self.finish
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;
    use proxim_cells::{Cell, Technology};

    fn env() -> (Cell, Technology) {
        (Cell::nand(2), Technology::demo_5v())
    }

    #[test]
    fn parallel_execution_matches_sequential_bitwise() {
        let (cell, tech) = env();
        let sim = Simulator::new(&cell, &tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1);
        let jobs: Vec<SimJob> = [100e-12, 300e-12, 900e-12, 1500e-12]
            .iter()
            .map(|&tau| SimJob::events_wide(vec![InputEvent::new(0, Edge::Rising, 0.0, tau)]))
            .collect();
        let seq = execute_jobs(&sim, &jobs, 1);
        let par = execute_jobs(&sim, &jobs, 4);
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            // Bit-exact: the same job runs the same deterministic transient
            // regardless of which thread picks it up.
            assert_eq!(a, b);
        }
        assert_eq!(seq.recoveries, par.recoveries);
        assert_eq!(seq.failed_jobs, 0);
        assert_eq!(par.failed_jobs, 0);
    }

    #[test]
    fn errors_surface_in_job_order() {
        let outcomes = vec![
            JobOutcome::Peak(1.0),
            JobOutcome::Failed {
                job: 1,
                reason: ModelError::Table("first".into()),
            },
            JobOutcome::Failed {
                job: 2,
                reason: ModelError::Table("second".into()),
            },
        ];
        match first_error(&outcomes) {
            Err(ModelError::Table(s)) => assert_eq!(s, "first"),
            other => panic!("expected the first error, got {other:?}"),
        }
    }

    #[test]
    fn failed_outcomes_surface_through_accessors() {
        let failed = JobOutcome::Failed {
            job: 3,
            reason: ModelError::Table("boom".into()),
        };
        assert_eq!(failed.response(), Err(ModelError::Table("boom".into())));
        assert_eq!(failed.peak(), Err(ModelError::Table("boom".into())));
        assert!(failed.failure().is_some());
        // Mis-routed kinds are typed errors, not panics.
        assert!(JobOutcome::Peak(1.0).response().is_err());
        let resp = JobOutcome::Response {
            output_edge: Edge::Rising,
            delay: 1.0,
            trans: 2.0,
            wide: None,
        };
        assert!(resp.peak().is_err());
        assert_eq!(resp.response().unwrap(), (1.0, 2.0));
        assert!(resp.failure().is_none());
    }

    #[test]
    fn an_unsensitizable_job_fails_without_poisoning_the_batch() {
        let (cell, tech) = env();
        let sim = Simulator::new(&cell, &tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1);
        // Opposite-direction events on a NAND are rejected by scenario
        // resolution — a simulation-level failure, not a panic.
        let bad = SimJob::events(vec![
            InputEvent::new(0, Edge::Rising, 0.0, 300e-12),
            InputEvent::new(1, Edge::Falling, 0.0, 300e-12),
        ]);
        let good = SimJob::events(vec![InputEvent::new(0, Edge::Rising, 0.0, 300e-12)]);
        let batch = execute_jobs(&sim, &[bad, good.clone(), good], 2);
        assert_eq!(batch.failed_jobs, 1);
        assert!(batch.outcomes[0].failure().is_some());
        assert!(batch.outcomes[1].failure().is_none());
        assert!(batch.outcomes[2].failure().is_none());
        assert!(first_error(&batch.outcomes).is_err());
    }

    #[test]
    fn load_override_changes_the_simulated_load() {
        let (cell, tech) = env();
        let sim = Simulator::new(&cell, &tech, Thresholds::new(1.2, 3.4, 5.0), 100e-15, 0.1);
        let ev = vec![InputEvent::new(0, Edge::Rising, 0.0, 400e-12)];
        let (at_ref, _) = run_job(&sim, &SimJob::events(ev.clone())).unwrap();
        let (at_big, _) = run_job(&sim, &SimJob::events_at_load(ev, 400e-15)).unwrap();
        let (d_ref, _) = at_ref.response().unwrap();
        let (d_big, _) = at_big.response().unwrap();
        assert!(
            d_big > d_ref,
            "larger load must be slower: {d_big} vs {d_ref}"
        );
    }
}
