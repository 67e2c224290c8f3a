//! Transient recovery: the bounded ladder of escalating remedies applied
//! when a Newton solve inside [`crate::tran`] refuses to converge.
//!
//! Real characterization flows survive bad operating points instead of
//! aborting the batch: a failed solve first retries with heavier damping,
//! then walks a gmin continuation back down to the nominal shunt, then cuts
//! the time step, and — when a whole run dies at the minimum step — restarts
//! the analysis with a halved `dt_init`/`dv_max`. Every rung is bounded, and
//! every attempt is recorded in a [`RecoveryTrace`] so callers can observe
//! (and aggregate) how hard the solver had to fight.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

/// Policy knobs for the transient recovery ladder.
///
/// The ladder is consulted from cheapest to most expensive remedy:
///
/// 1. **Damped retry** — re-solve the same step with a tight voltage-step
///    clamp and a much larger iteration budget.
/// 2. **Gmin stepping** — solve a sequence of easier systems with an
///    inflated node-to-ground shunt, warm-starting each from the previous,
///    ending at the nominal gmin.
/// 3. **Step cut** — the classic remedy: quarter the time step (down to
///    `dt_min`) and try again.
/// 4. **Run restart** — when a run fails even at `dt_min`, restart the whole
///    analysis with `dt_init` and `dv_max` halved, up to `max_restarts`
///    times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Enable the damped re-solve rung.
    pub damped_retry: bool,
    /// Enable the gmin-stepping rung.
    pub gmin_stepping: bool,
    /// Full-run restarts with halved `dt_init`/`dv_max` (0 disables).
    pub max_restarts: u32,
    /// Watchdog budget on Newton solve *attempts* per transient run
    /// (restarts included); 0 means unlimited. A run that exceeds it is
    /// aborted with [`crate::AnalysisError::Aborted`] — this is what keeps
    /// one pathological job from wedging a whole characterization pool.
    pub step_budget: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            damped_retry: true,
            gmin_stepping: true,
            max_restarts: 2,
            // Well-behaved characterization transients take ~1e3–1e5 solves;
            // this bounds a wedged run without ever firing on a healthy one.
            step_budget: 2_000_000,
        }
    }
}

impl RecoveryPolicy {
    /// A policy with every rung disabled and no watchdog: the pre-recovery
    /// behavior (fail on the first `dt_min` exhaustion).
    pub fn disabled() -> Self {
        Self {
            damped_retry: false,
            gmin_stepping: false,
            max_restarts: 0,
            step_budget: 0,
        }
    }
}

/// Which rung of the ladder an attempt used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStage {
    /// Damped re-solve of the same step.
    DampedRetry,
    /// Gmin continuation at the same step.
    GminStepping,
    /// Time-step cut after both in-place rungs failed.
    StepCut,
    /// Whole-run restart with halved `dt_init`/`dv_max`.
    RunRestart,
}

impl RecoveryStage {
    /// All rungs, cheapest first (the order the ladder consults them).
    pub const ALL: [Self; 4] = [
        Self::DampedRetry,
        Self::GminStepping,
        Self::StepCut,
        Self::RunRestart,
    ];

    /// Dense index of the rung (position in [`Self::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Self::DampedRetry => 0,
            Self::GminStepping => 1,
            Self::StepCut => 2,
            Self::RunRestart => 3,
        }
    }
}

impl fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DampedRetry => write!(f, "damped retry"),
            Self::GminStepping => write!(f, "gmin stepping"),
            Self::StepCut => write!(f, "step cut"),
            Self::RunRestart => write!(f, "run restart"),
        }
    }
}

/// One recorded rung attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryAttempt {
    /// The rung used.
    pub stage: RecoveryStage,
    /// Simulation time of the failing step, in seconds.
    pub t: f64,
    /// Step size in effect when the rung fired, in seconds.
    pub dt: f64,
    /// Wall-clock time the rung itself consumed, in seconds. For
    /// [`RecoveryStage::DampedRetry`] and [`RecoveryStage::GminStepping`]
    /// this is the rescue solve; for [`RecoveryStage::RunRestart`] it is the
    /// whole failed attempt being thrown away; [`RecoveryStage::StepCut`]
    /// records 0 — its cost is the re-walked steps, already inside the run.
    pub seconds: f64,
    /// Whether the rung rescued the solve (for [`RecoveryStage::StepCut`]
    /// and [`RecoveryStage::RunRestart`] this is recorded as `false`; their
    /// success shows up as the run completing).
    pub recovered: bool,
}

/// Detailed attempts are capped so a thrashing run cannot balloon the trace.
const MAX_RECORDED: usize = 64;

/// The record of every recovery action taken during one transient run.
///
/// Counters are exact; the per-attempt detail list keeps only the first
/// `MAX_RECORDED` (64) entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryTrace {
    attempts: Vec<RecoveryAttempt>,
    /// Wall-clock seconds consumed per rung, indexed by
    /// [`RecoveryStage::index`]. Exact (not capped like `attempts`).
    stage_seconds: [f64; 4],
    /// Damped re-solves attempted.
    pub damped_retries: usize,
    /// Gmin continuations attempted.
    pub gmin_steps: usize,
    /// Time-step cuts taken after a failed solve.
    pub step_cuts: usize,
    /// Whole-run restarts taken.
    pub restarts: usize,
    /// Solves rescued in place (by damping or gmin stepping).
    pub recovered_solves: usize,
}

impl RecoveryTrace {
    /// Records one rung attempt taking `seconds` of wall time.
    pub(crate) fn record(
        &mut self,
        stage: RecoveryStage,
        t: f64,
        dt: f64,
        seconds: f64,
        recovered: bool,
    ) {
        match stage {
            RecoveryStage::DampedRetry => self.damped_retries += 1,
            RecoveryStage::GminStepping => self.gmin_steps += 1,
            RecoveryStage::StepCut => self.step_cuts += 1,
            RecoveryStage::RunRestart => self.restarts += 1,
        }
        self.stage_seconds[stage.index()] += seconds;
        if recovered {
            self.recovered_solves += 1;
        }
        if self.attempts.len() < MAX_RECORDED {
            self.attempts.push(RecoveryAttempt {
                stage,
                t,
                dt,
                seconds,
                recovered,
            });
        }
    }

    /// The recorded attempts (the first 64 at most).
    pub fn attempts(&self) -> &[RecoveryAttempt] {
        &self.attempts
    }

    /// Merges another trace's counters, durations, and (up to the cap)
    /// attempts into this one — used to aggregate recovery across the many
    /// transient runs behind one characterization.
    pub fn merge(&mut self, other: &RecoveryTrace) {
        self.damped_retries += other.damped_retries;
        self.gmin_steps += other.gmin_steps;
        self.step_cuts += other.step_cuts;
        self.restarts += other.restarts;
        self.recovered_solves += other.recovered_solves;
        for (mine, theirs) in self.stage_seconds.iter_mut().zip(&other.stage_seconds) {
            *mine += theirs;
        }
        let room = MAX_RECORDED.saturating_sub(self.attempts.len());
        self.attempts
            .extend(other.attempts.iter().take(room).copied());
    }

    /// Total rung attempts across all stages.
    pub fn total(&self) -> usize {
        self.damped_retries + self.gmin_steps + self.step_cuts + self.restarts
    }

    /// Wall-clock seconds consumed by one rung across the run.
    pub fn seconds_in(&self, stage: RecoveryStage) -> f64 {
        self.stage_seconds[stage.index()]
    }

    /// Total wall-clock seconds lost to recovery across all rungs.
    pub fn total_seconds(&self) -> f64 {
        self.stage_seconds.iter().sum()
    }

    /// Whether the run needed no recovery at all.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_enables_every_rung() {
        let p = RecoveryPolicy::default();
        assert!(p.damped_retry);
        assert!(p.gmin_stepping);
        assert!(p.max_restarts > 0);
        assert!(p.step_budget > 0);
    }

    #[test]
    fn disabled_policy_is_inert() {
        let p = RecoveryPolicy::disabled();
        assert!(!p.damped_retry);
        assert!(!p.gmin_stepping);
        assert_eq!(p.max_restarts, 0);
        assert_eq!(p.step_budget, 0);
    }

    #[test]
    fn trace_counts_and_caps_detail() {
        let mut tr = RecoveryTrace::default();
        assert!(tr.is_empty());
        for k in 0..(MAX_RECORDED + 10) {
            tr.record(RecoveryStage::StepCut, k as f64, 1e-12, 0.0, false);
        }
        tr.record(RecoveryStage::DampedRetry, 0.0, 1e-12, 0.25, true);
        tr.record(RecoveryStage::GminStepping, 0.0, 1e-12, 0.5, true);
        tr.record(RecoveryStage::RunRestart, 0.0, 1e-12, 1.0, false);
        assert_eq!(tr.step_cuts, MAX_RECORDED + 10);
        assert_eq!(tr.damped_retries, 1);
        assert_eq!(tr.gmin_steps, 1);
        assert_eq!(tr.restarts, 1);
        assert_eq!(tr.recovered_solves, 2);
        assert_eq!(tr.total(), MAX_RECORDED + 13);
        assert_eq!(tr.attempts().len(), MAX_RECORDED);
        assert!(!tr.is_empty());
    }

    #[test]
    fn durations_accumulate_per_rung_beyond_the_detail_cap() {
        let mut tr = RecoveryTrace::default();
        // Twice the detail cap: counters and durations must stay exact even
        // after the per-attempt list stops growing.
        for _ in 0..(2 * MAX_RECORDED) {
            tr.record(RecoveryStage::DampedRetry, 1e-9, 1e-12, 0.01, true);
        }
        tr.record(RecoveryStage::RunRestart, 0.0, 1e-12, 2.0, false);
        assert!(
            (tr.seconds_in(RecoveryStage::DampedRetry) - 2.0 * MAX_RECORDED as f64 * 0.01).abs()
                < 1e-9
        );
        assert_eq!(tr.seconds_in(RecoveryStage::GminStepping), 0.0);
        assert!((tr.seconds_in(RecoveryStage::RunRestart) - 2.0).abs() < 1e-12);
        assert!((tr.total_seconds() - (2.0 * MAX_RECORDED as f64 * 0.01 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn merge_aggregates_counters_durations_and_caps_attempts() {
        let mut a = RecoveryTrace::default();
        a.record(RecoveryStage::DampedRetry, 1.0, 1e-12, 0.1, true);
        let mut b = RecoveryTrace::default();
        for k in 0..MAX_RECORDED {
            b.record(RecoveryStage::StepCut, k as f64, 1e-12, 0.0, false);
        }
        b.record(RecoveryStage::GminStepping, 0.0, 1e-12, 0.4, true);
        a.merge(&b);
        assert_eq!(a.damped_retries, 1);
        assert_eq!(a.step_cuts, MAX_RECORDED);
        assert_eq!(a.gmin_steps, 1);
        assert_eq!(a.recovered_solves, 2);
        assert!((a.total_seconds() - 0.5).abs() < 1e-12);
        assert_eq!(a.attempts().len(), MAX_RECORDED, "detail stays capped");
    }

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, s) in RecoveryStage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(RecoveryStage::DampedRetry.to_string(), "damped retry");
        assert_eq!(RecoveryStage::GminStepping.to_string(), "gmin stepping");
        assert_eq!(RecoveryStage::StepCut.to_string(), "step cut");
        assert_eq!(RecoveryStage::RunRestart.to_string(), "run restart");
    }
}
