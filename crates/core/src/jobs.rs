//! The characterization job queue: enumerate → execute → assemble.
//!
//! Characterization cost is dominated by thousands of *independent*
//! transient analyses. Rather than interleaving simulation with table
//! construction, each model layer first **enumerates** its grid as plain
//! [`SimJob`] values (events, load and [`Reading`]: one shape for edge and
//! glitch-peak jobs alike), the whole batch is **executed** — sequentially
//! or by a pool of scoped worker threads pulling from an atomic work queue —
//! and the tables are then **assembled** from the outcomes in job order.
//!
//! Jobs whose stimuli share their leading input ramp, load and reading form
//! a *family* ([`families`]): their transients agree until a later input
//! starts to move, so a family is one unit of work on one worker, simulated
//! through [`Simulator::simulate_family`], which integrates the shared
//! prefix once. Every outcome is still the job's own, bit for bit.
//!
//! Because assembly consumes outcomes strictly by job index, the resulting
//! model is byte-identical regardless of worker count or scheduling: thread
//! interleaving decides only *when* a slot is filled, never *what* ends up
//! in it. Failures keep the same determinism — a failed simulation becomes
//! a typed [`JobOutcome::Failed`] in its own slot, each job runs under
//! [`std::panic::catch_unwind`] supervision so one pathological job cannot
//! poison the pool, and assembly surfaces the first failed job in index
//! order.

use crate::characterize::{applied_events, Reading, SimResponse, Simulator};
use crate::checkpoint::{stimulus_hash, CheckpointJournal};
use crate::error::ModelError;
use crate::measure::InputEvent;
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use proxim_spice::{AnalysisError, RecoveryTrace, TranWork};
use std::collections::HashMap;
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

    /// Accepted time steps the characterization's queued transients
    /// integrated (a forked run's inherited prefix excluded). This and the
    /// three counters below are booked into the run registry only: the
    /// solver books the same names into the global registry itself.
    pub const TRAN_ACCEPTED_STEPS: &str = "spice.tran.accepted_steps";
    /// Newton iterations the queued transients integrated.
    pub const TRAN_NEWTON_ITERATIONS: &str = "spice.tran.newton_iterations";
    /// Queued transients forked from a family's shared prefix.
    pub const TRAN_FORKED_RUNS: &str = "spice.tran.forked_runs";
    /// Accepted steps forked transients inherited instead of integrating.
    pub const TRAN_SHARED_STEPS: &str = "spice.tran.shared_steps";

    /// Bucket bounds of [`JOB_SECONDS`]: characterization transients range
    /// from sub-millisecond rows to second-scale ones.
    pub const JOB_SECONDS_BOUNDS: &[f64] = &[0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0];
}

/// One independent characterization transient, ready to execute on any
/// worker: the switching inputs, the load, and what the output is read for.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The switching inputs; delays are measured from, and a peak is caused
    /// by, `events[0]`.
    pub events: Vec<InputEvent>,
    /// Output load override; `None` runs at the simulator's reference load
    /// (the NLDM surface sweeps this axis).
    pub c_load: Option<f64>,
    /// What the output is read for.
    pub reading: Reading,
}

impl SimJob {
    /// An edge job at the reference load.
    pub fn events(events: Vec<InputEvent>) -> Self {
        Self {
            events,
            c_load: None,
            reading: Reading::Edge,
        }
    }

    /// An edge job that also measures the wide edge time.
    pub fn events_wide(events: Vec<InputEvent>) -> Self {
        Self {
            reading: Reading::WideEdge,
            ..Self::events(events)
        }
    }

    /// An edge job at an explicit output load.
    pub fn events_at_load(events: Vec<InputEvent>, c_load: f64) -> Self {
        Self {
            c_load: Some(c_load),
            ..Self::events(events)
        }
    }

    /// A glitch job: the output extremum under `causer`, with `blocker`
    /// switching the opposite way.
    pub fn glitch(causer: InputEvent, blocker: InputEvent) -> Self {
        Self {
            reading: Reading::Peak,
            ..Self::events(vec![causer, blocker])
        }
    }
}

/// The measured result of one executed [`SimJob`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Measurements of an edge job ([`Reading::Edge`], [`Reading::WideEdge`]).
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
    /// The output-voltage extremum of a [`Reading::Peak`] job, in volts.
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

/// What a job measured, with its transient's recovery trace and work.
type Measured = (JobOutcome, RecoveryTrace, TranWork);

/// Reads one response: the output extremum of a peak, or the delay from
/// `events[0]`, the transition time and (for a wide edge) the 5–95 % edge
/// time.
fn measure(s: &Simulator<'_>, r: SimResponse, reading: Reading) -> Result<Measured, ModelError> {
    let outcome = if reading == Reading::Peak {
        JobOutcome::Peak(r.peak())
    } else {
        let th = s.thresholds;
        let vdd = s.tech.vdd;
        let wide = if reading == Reading::WideEdge {
            r.wide_edge_time(vdd)
        } else {
            None
        };
        JobOutcome::Response {
            output_edge: r.output_edge,
            delay: r.delay_from(0, &th)?,
            trans: r.transition_time(&th)?,
            wide,
        }
    };
    Ok((outcome, r.recovery, r.work))
}

/// Executes one family of jobs (see [`families`]) against the simulator,
/// one result per job in `family` order.
fn run_family(
    sim: &Simulator<'_>,
    jobs: &[SimJob],
    family: &[usize],
) -> Vec<Result<Measured, ModelError>> {
    let Some(&first) = family.first() else {
        return Vec::new();
    };
    // One family shares the load (it is part of its key).
    let pass;
    let s = match jobs[first].c_load {
        Some(c_load) => {
            pass = Simulator {
                c_load,
                ..sim.clone()
            };
            &pass
        }
        None => sim,
    };
    let stimuli: Vec<(&[InputEvent], Reading)> = family
        .iter()
        .map(|&i| (jobs[i].events.as_slice(), jobs[i].reading))
        .collect();
    // Each response is measured, and its waveform dropped, as soon as it
    // is done.
    let mut measured = vec![None; family.len()];
    s.simulate_family(&stimuli, |k, r| {
        measured[k] = Some(r.and_then(|r| measure(s, r, stimuli[k].1)));
    });
    measured.into_iter().flatten().collect()
}

/// The key of a job's family (see [`families`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FamilyKey {
    lead: Option<(usize, Edge, u64, u64)>,
    c_load: Option<u64>,
    reading: Reading,
}

fn family_key(job: &SimJob) -> FamilyKey {
    let (applied, lead) = applied_events(&job.events);
    FamilyKey {
        lead: lead.map(|k| {
            let e = &applied[k];
            let (tau, start) = (e.transition_time(), e.ramp.t_start);
            (e.pin, e.edge(), tau.to_bits(), start.to_bits())
        }),
        c_load: job.c_load.map(f64::to_bits),
        reading: job.reading,
    }
}

/// Partitions a batch into families: the jobs whose applied leading ramp
/// (the earliest, first among equals: pin, edge, transition time and
/// start), load override and reading agree, in job order, listed by their
/// first job. Each family is one unit of work.
pub fn families(jobs: &[SimJob]) -> Vec<Vec<usize>> {
    let mut families: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<FamilyKey, usize> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let slot = *by_key.entry(family_key(job)).or_insert_with(|| {
            families.push(Vec::new());
            families.len() - 1
        });
        families[slot].push(i);
    }
    families
}

/// One supervised job execution: its outcome plus per-job telemetry.
#[derive(Debug, Clone)]
struct JobRun {
    outcome: JobOutcome,
    recovery: RecoveryTrace,
    work: TranWork,
    /// Wall-clock seconds the job held a worker, failures included (its
    /// share of its family's time).
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
            work: TranWork::default(),
            seconds,
            skipped: false,
        }
    }
}

/// Runs one family under panic supervision: a simulation error becomes a
/// typed [`JobOutcome::Failed`] in its job's slot, and a caught panic fails
/// every job of the family, instead of unwinding into (and poisoning) the
/// worker pool.
fn run_supervised(sim: &Simulator<'_>, jobs: &[SimJob], family: &[usize]) -> Vec<JobRun> {
    let Some(&first) = family.first() else {
        return Vec::new();
    };
    let kind = match jobs[first].reading {
        Reading::Edge => "edge",
        Reading::WideEdge => "wide",
        Reading::Peak => "peak",
    };
    let span = obs::span("char.job")
        .arg("job", first)
        .arg("jobs", family.len())
        .arg("kind", kind);
    let start = Instant::now();
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_family(sim, jobs, family)
    }));
    // A family holds its worker as a whole; each job is charged its share.
    let seconds = start.elapsed().as_secs_f64() / family.len() as f64;
    let runs: Vec<JobRun> = match results {
        Ok(results) => family
            .iter()
            .zip(results)
            .map(|(&i, r)| match r {
                Ok((outcome, recovery, work)) => JobRun {
                    outcome,
                    recovery,
                    work,
                    seconds,
                    skipped: false,
                },
                Err(reason) => JobRun::failed(i, reason, seconds),
            })
            .collect(),
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
            family
                .iter()
                .map(|&i| JobRun::failed(i, reason.clone(), seconds))
                .collect()
        }
    };
    let failed = runs
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Failed { .. }))
        .count();
    drop(span.arg("ok", failed == 0).arg(
        "recoveries",
        runs.iter().map(|r| r.recovery.total()).sum::<usize>(),
    ));
    runs
}

/// One family under run control: the simulator's cancellation token is
/// checked at the family boundary (a cancelled claim becomes a typed,
/// *non-degradable* failure in each job's slot, so the run fails with the
/// cancellation instead of degrading slices), and — when a checkpoint
/// journal is active — jobs already journaled are answered from it, the
/// rest run as a (smaller) family, and their outcomes are recorded. Returns
/// `(job index, run)` pairs.
fn run_controlled(
    sim: &Simulator<'_>,
    jobs: &[SimJob],
    family: &[usize],
    checkpoint: Option<(&CheckpointJournal, &str)>,
) -> Vec<(usize, JobRun)> {
    if let Err(e) = sim.cancel.check("characterization job") {
        let reason = ModelError::from(e);
        return family
            .iter()
            .map(|&i| (i, JobRun::failed(i, reason.clone(), 0.0)))
            .collect();
    }
    let Some((journal, phase)) = checkpoint else {
        return family
            .iter()
            .copied()
            .zip(run_supervised(sim, jobs, family))
            .collect();
    };
    let mut done = Vec::with_capacity(family.len());
    let mut todo = Vec::new();
    for &i in family {
        let stim = stimulus_hash(&jobs[i]);
        match journal.lookup(phase, i, stim) {
            Some(outcome) => done.push((
                i,
                JobRun {
                    outcome,
                    recovery: RecoveryTrace::default(),
                    work: TranWork::default(),
                    seconds: 0.0,
                    skipped: true,
                },
            )),
            None => todo.push((i, stim)),
        }
    }
    let rest: Vec<usize> = todo.iter().map(|&(i, _)| i).collect();
    for ((i, stim), run) in todo.into_iter().zip(run_supervised(sim, jobs, &rest)) {
        journal.record(phase, i, stim, &run.outcome);
        done.push((i, run));
    }
    done
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
    /// Solver work of the transients the batch ran.
    pub work: TranWork,
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
        let mut work = TranWork::default();
        for run in runs {
            recovery.merge(&run.recovery);
            work.add(&run.work);
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
            work,
            workers_engaged: 1,
        }
    }
}

/// Executes a batch of jobs across `threads` workers and returns the
/// outcomes **in job order**.
///
/// The batch is split into [`families`], and workers pull families from a
/// shared atomic counter, so load balances dynamically across work of very
/// different cost (a family of dozens of forked rows against a lone
/// single-input row). Results are written back by job index, making the
/// output independent of scheduling.
///
/// Every family runs under [`catch_unwind`](std::panic::catch_unwind)
/// supervision, and a worker thread that dies anyway (a panic outside the
/// supervised region) only loses its own claimed jobs: the batch marks
/// those slots [`JobOutcome::Failed`] and the surviving workers' results
/// are still assembled.
///
/// `threads == 1` (or a batch of at most one family) runs inline on the
/// caller thread with no pool at all.
pub fn execute_jobs(sim: &Simulator<'_>, jobs: &[SimJob], threads: usize) -> JobBatch {
    execute_jobs_controlled(sim, jobs, threads, None)
}

/// [`execute_jobs`] under run control: the simulator's cancellation token
/// is polled before every family claim (cancelled claims become typed
/// failed slots, surfaced by [`first_error`] in job order), and an active
/// checkpoint journal short-circuits already-completed jobs — their
/// recorded outcomes are replayed bit-exactly with zero simulations —
/// while newly completed jobs are journaled as their family finishes, from
/// whichever worker thread ran it.
pub fn execute_jobs_controlled(
    sim: &Simulator<'_>,
    jobs: &[SimJob],
    threads: usize,
    checkpoint: Option<(&CheckpointJournal, &str)>,
) -> JobBatch {
    let families = families(jobs);
    let _span = obs::span("char.execute")
        .arg("jobs", jobs.len())
        .arg("families", families.len())
        .arg("threads", threads);
    let mut results: Vec<Option<JobRun>> = vec![None; jobs.len()];
    let mut worker_panic: Option<String> = None;
    let mut engaged = 1usize;
    if threads <= 1 || families.len() <= 1 {
        for family in &families {
            for (i, r) in run_controlled(sim, jobs, family, checkpoint) {
                results[i] = Some(r);
            }
        }
    } else {
        let workers = threads.min(families.len());
        let next = AtomicUsize::new(0);
        engaged = 0;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, families) = (&next, &families);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(family) = families.get(k) else {
                                break;
                            };
                            local.extend(run_controlled(sim, jobs, family, checkpoint));
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
                        // The worker died outside job supervision; its
                        // claimed slots stay `None` and are marked failed
                        // below. It did engage — the pool-liveness gauge
                        // counts claims, not clean exits.
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
    }
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
    /// Solver work of the queued transients (singles and pairs; the
    /// calibration chain's and correction terms' few are not in it):
    /// accepted steps and Newton iterations integrated, transients forked
    /// from a shared prefix, and the steps they inherited from it.
    pub tran: TranWork,
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
            tran: TranWork {
                accepted_steps: snap.counter(metric::TRAN_ACCEPTED_STEPS),
                newton_iterations: snap.counter(metric::TRAN_NEWTON_ITERATIONS),
                forked_runs: snap.counter(metric::TRAN_FORKED_RUNS),
                shared_steps: snap.counter(metric::TRAN_SHARED_STEPS),
            },
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
    book_work(reg, &batch.work);
}

/// Books transient solver work into the run registry (not its global
/// mirror: the solver books the same names there itself).
pub(crate) fn book_work(reg: &obs::Registry, work: &TranWork) {
    reg.counter(metric::TRAN_ACCEPTED_STEPS)
        .add(work.accepted_steps);
    reg.counter(metric::TRAN_NEWTON_ITERATIONS)
        .add(work.newton_iterations);
    reg.counter(metric::TRAN_FORKED_RUNS).add(work.forked_runs);
    reg.counter(metric::TRAN_SHARED_STEPS)
        .add(work.shared_steps);
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
        let batch = execute_jobs(
            &sim,
            &[
                SimJob::events(ev.clone()),
                SimJob::events_at_load(ev, 400e-15),
            ],
            1,
        );
        let (d_ref, _) = batch.outcomes[0].response().unwrap();
        let (d_big, _) = batch.outcomes[1].response().unwrap();
        assert!(
            d_big > d_ref,
            "larger load must be slower: {d_big} vs {d_ref}"
        );
    }
}
