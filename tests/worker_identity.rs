//! Worker-count identity suite: the characterization worker pool must be
//! invisible in the output. Characterization is pinned byte-identical
//! across `jobs ∈ {1, 2, 4}`, with and without fault pressure, glitch
//! tables included:
//!
//! 1. Healthy pipeline: every worker count serializes to the same model
//!    JSON.
//! 2. Under injected solver faults (a seeded `FaultPlan` on the options),
//!    the recovery ladder fires inside the transients — and the model is
//!    *still* byte-identical across worker counts, because fault streams
//!    are a pure function of each run's parameters, not of which worker
//!    ran it or when.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::jobs::CharStats;
use proxim_model::model::ProximityModel;
use proxim_spice::FaultPlan;

/// One characterization at the given worker count under `faults`, reduced
/// to the bytes that must not vary, plus the run's stats.
fn characterize_json(jobs: usize, faults: FaultPlan) -> (String, CharStats) {
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let opts = CharacterizeOptions {
        jobs,
        faults,
        glitch: true,
        ..CharacterizeOptions::fast()
    };
    let (model, stats) = ProximityModel::characterize_with_stats(&cell, &tech, &opts)
        .expect("characterization must succeed");
    assert_eq!(stats.invariant_violation(), None);
    assert_eq!(
        stats.threads, jobs,
        "resolved worker count must be recorded"
    );
    (model.to_json().expect("model serializes"), stats)
}

#[test]
fn characterization_is_byte_identical_across_worker_counts() {
    let (reference, _) = characterize_json(1, FaultPlan::DISARMED);
    for jobs in [2, 4] {
        assert_eq!(
            reference,
            characterize_json(jobs, FaultPlan::DISARMED).0,
            "model diverged at jobs = {jobs}"
        );
    }
}

/// Transients that trip the fault injector climb the recovery ladder (and
/// some degrade their slice outright). The model must not care which
/// worker ran them.
#[test]
fn fault_replay_is_byte_identical_across_worker_counts() {
    // The same pressure as the resilience suite: enough Newton faults that
    // the recovery ladder is guaranteed to run, plus a kill rate so some
    // transients degrade their slice outright.
    let faults = FaultPlan {
        seed: 1996,
        newton: 0.20,
        accept: 0.05,
        kill: 0.02,
        ..FaultPlan::DISARMED
    };

    let (reference, stats) = characterize_json(1, faults);
    assert!(
        stats.recoveries > 0,
        "this fault pressure must make the recovery ladder fire \
         (tune the seed if the characterization volume changes)"
    );
    for jobs in [2, 4] {
        let (json, stats_n) = characterize_json(jobs, faults);
        assert_eq!(
            reference, json,
            "worker count must not interact with fault replay (jobs = {jobs})"
        );
        assert_eq!(
            stats.recoveries, stats_n.recoveries,
            "recovery volume diverged at jobs = {jobs}"
        );
    }
}
