//! Audit & self-repair suite: the model audit catches silent table
//! corruption, the repair pass restores clean values byte-exactly by
//! re-simulating only the suspect grid points, and unrepairable slices are
//! demoted to degraded provenance instead of serving unphysical numbers.
//!
//! Corruption comes from the `tamper_table_value` test hook; the
//! demotion and 20%-fault scenarios drive the repair pipeline through the
//! same seeded `FaultPlan` the resilience suite sets on its options.

use proxim_cells::{Cell, Technology};
use proxim_model::audit::{AuditOptions, TableRole};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::model::ProximityModel;
use proxim_model::{CheckpointConfig, DegradedReason, InputEvent, RunControl, SliceKind};
use proxim_numeric::pwl::Edge;
use proxim_spice::FaultPlan;

fn nand2_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        jobs: 2,
        ..CharacterizeOptions::fast()
    }
}

fn characterize_nand2() -> ProximityModel {
    ProximityModel::characterize(&Cell::nand(2), &Technology::demo_5v(), &nand2_opts())
        .expect("characterization succeeds")
}

/// A dual-table flat index whose separation coordinate is non-negative
/// (`fast()` puts w ≥ 0 at the tail of each 8-point row), so a negative
/// tampered value violates §2 positivity deterministically.
const DUAL_POSITIVE_W_IDX: usize = 5;

#[test]
fn clean_model_audits_clean_and_repair_is_a_noop() {
    let mut model = characterize_nand2();
    let json_before = model.to_json().expect("serializes");

    let report = model.audit(&AuditOptions::default());
    assert!(
        report.is_clean(),
        "untampered model must audit clean, first finding: {}",
        report.findings[0]
    );

    let (report, outcome) = model
        .audit_and_repair(&nand2_opts(), &AuditOptions::default(), &RunControl::new())
        .expect("repair of a clean model succeeds");
    assert!(report.is_clean());
    assert_eq!(outcome.repaired_points, 0);
    assert_eq!(outcome.demoted_slices, 0);
    assert_eq!(outcome.sims_run, 0, "a clean model must not re-simulate");
    assert_eq!(
        model.to_json().expect("serializes"),
        json_before,
        "a no-op repair must leave the model bytes untouched"
    );
}

#[test]
fn tampered_points_are_found_and_repaired_byte_exactly() {
    let mut model = characterize_nand2();
    let clean_json = model.to_json().expect("serializes");

    // Corrupt one dual-table point in the positive-separation region and
    // one single-input delay sample — both §2 positivity violations the
    // audit must catch with full provenance.
    model
        .tamper_table_value(
            SliceKind::Dual,
            0,
            Edge::Falling,
            TableRole::Delay,
            DUAL_POSITIVE_W_IDX,
            -0.5,
        )
        .expect("dual slice exists");
    model
        .tamper_table_value(
            SliceKind::Single,
            1,
            Edge::Rising,
            TableRole::Delay,
            1,
            -1.0,
        )
        .expect("single slice exists");

    let report = model.audit(&AuditOptions::default());
    assert!(
        report.len() >= 2,
        "both tampered points must be flagged, got {:?}",
        report.findings
    );
    assert!(report
        .findings
        .iter()
        .any(|f| f.slice == SliceKind::Dual && f.index.is_some()));
    assert!(report
        .findings
        .iter()
        .any(|f| f.slice == SliceKind::Single && f.index == Some(1)));

    let (pre_repair, outcome) = model
        .audit_and_repair(&nand2_opts(), &AuditOptions::default(), &RunControl::new())
        .expect("repair succeeds");
    assert_eq!(pre_repair.len(), report.len());
    assert!(outcome.repaired_points >= 2, "{outcome:?}");
    assert_eq!(outcome.demoted_slices, 0, "{outcome:?}");
    assert!(outcome.sims_run > 0);

    // The re-simulated points reproduce the clean characterization
    // bit-for-bit, so the whole model returns to byte equality.
    assert_eq!(
        model.to_json().expect("serializes"),
        clean_json,
        "repair must restore the clean model bytes exactly"
    );
    assert!(model.audit(&AuditOptions::default()).is_clean());
}

#[test]
fn unrepairable_slice_is_demoted_with_audit_provenance() {
    let mut model = characterize_nand2();

    model
        .tamper_table_value(
            SliceKind::Dual,
            0,
            Edge::Falling,
            TableRole::Delay,
            DUAL_POSITIVE_W_IDX,
            -0.5,
        )
        .expect("dual slice exists");

    // Every repair re-simulation is killed: the slice cannot be restored
    // on either tolerance rung and must be demoted, not silently kept.
    let doomed = CharacterizeOptions {
        faults: FaultPlan {
            seed: 42,
            kill: 1.0,
            ..FaultPlan::DISARMED
        },
        ..nand2_opts()
    };
    let (report, outcome) = model
        .audit_and_repair(&doomed, &AuditOptions::default(), &RunControl::new())
        .expect("demotion is a success path, not an error");

    assert!(!report.is_clean());
    assert_eq!(outcome.repaired_points, 0, "{outcome:?}");
    assert!(outcome.demoted_slices >= 1, "{outcome:?}");

    let demoted = model
        .degraded_slices()
        .iter()
        .find(|d| d.kind == SliceKind::Dual && d.pin == 0 && d.edge == Edge::Falling)
        .expect("the unrepairable dual must be recorded as degraded");
    assert!(
        demoted.reason.contains("audit"),
        "degradation must carry audit provenance: {}",
        demoted.reason
    );

    // The model keeps answering: the dual query falls back to the
    // single-input path and says so.
    let events = [
        InputEvent::new(0, Edge::Falling, 0.0, 400e-12),
        InputEvent::new(1, Edge::Falling, 50e-12, 400e-12),
    ];
    let t = model
        .gate_timing(&events)
        .expect("demoted duals must fall back, not error");
    assert_eq!(t.degradation, Some(DegradedReason::DualSliceMissing));
    assert!(t.delay > 0.0 && t.output_transition > 0.0);

    // And the post-demotion model audits clean: the bad table is gone.
    assert!(model.audit(&AuditOptions::default()).is_clean());
}

#[test]
fn fault_injected_characterization_audits_clean_and_repairs_to_clean_run_bytes() {
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let opts = nand2_opts();

    // Reference: the same characterization with no faults at all.
    let clean = ProximityModel::characterize(&cell, &tech, &opts).expect("clean run succeeds");

    // The resilience suite's 20%-fault recipe: recoveries and a few doomed
    // runs, deterministic in (seed, run).
    let faulted = CharacterizeOptions {
        faults: FaultPlan {
            seed: 1996,
            newton: 0.20,
            accept: 0.05,
            kill: 0.02,
            ..FaultPlan::DISARMED
        },
        ..opts.clone()
    };
    let (mut model, stats) = ProximityModel::characterize_with_stats(&cell, &tech, &faulted)
        .expect("fault pressure must degrade, not fail");
    assert!(stats.recoveries > 0, "the recipe must exercise recovery");
    assert!(model.is_degraded(), "the kill rate must doom some slice");
    assert_eq!(
        stats.audit_findings, 0,
        "surviving slices of a fault-laden run must still satisfy the \
         physics invariants"
    );

    // Tamper a surviving single-input sample, then repair with faults
    // disarmed. A single-input stimulus depends only on (pin, edge, τ), so
    // the fault-free re-simulation must land exactly on the clean run's
    // stored value — byte-level equality for the repaired point even
    // though the rest of this model lived through the fault storm.
    let (pin, edge) = (1, Edge::Rising);
    let tampered_idx = 1;
    model
        .tamper_table_value(
            SliceKind::Single,
            pin,
            edge,
            TableRole::Delay,
            tampered_idx,
            -1.0,
        )
        .expect("this single survives seed 1996; pick another if the volume changes");
    let report = model.audit(&AuditOptions::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.slice == SliceKind::Single && f.pin == pin),
        "{report:?}"
    );

    let (_, outcome) = model
        .audit_and_repair(&opts, &AuditOptions::default(), &RunControl::new())
        .expect("repair succeeds under the disarmed options");
    assert!(outcome.repaired_points >= 1, "{outcome:?}");

    let (_, repaired_delays, _) = model
        .single_model(pin, edge)
        .expect("repaired single still present")
        .samples();
    let (_, clean_delays, _) = clean
        .single_model(pin, edge)
        .expect("clean single present")
        .samples();
    assert_eq!(
        repaired_delays[tampered_idx].to_bits(),
        clean_delays[tampered_idx].to_bits(),
        "the repaired point must equal the clean-run value bit-for-bit"
    );
    assert!(model.audit(&AuditOptions::default()).is_clean());
}

/// Tampers `Delay[1]` of the single-input slice (pin 1, rising) and
/// repairs it, through `journal` when one is given.
fn tamper_and_repair(
    mut model: ProximityModel,
    opts: &CharacterizeOptions,
    journal: Option<&std::path::Path>,
) -> (ProximityModel, proxim_model::RepairOutcome) {
    model
        .tamper_table_value(
            SliceKind::Single,
            1,
            Edge::Rising,
            TableRole::Delay,
            1,
            -1.0,
        )
        .expect("single slice exists");
    let control = match journal {
        Some(path) => RunControl::new().with_checkpoint(CheckpointConfig::every_job(path)),
        None => RunControl::new(),
    };
    let (_, outcome) = model
        .audit_and_repair(opts, &AuditOptions::default(), &control)
        .expect("repair succeeds");
    (model, outcome)
}

fn scratch_journal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim-audit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("repair.journal")
}

#[test]
fn repair_journal_is_bound_to_the_cell() {
    let tech = Technology::demo_5v();
    let opts = nand2_opts();
    let nand2 = characterize_nand2();
    let nor2 = ProximityModel::characterize(&Cell::nor(2), &tech, &opts).expect("characterizes");
    let journal = scratch_journal("cell-key");

    // The same stimulus repaired on another cell must not replay the first
    // cell's outcome from the shared journal.
    let _ = tamper_and_repair(nand2, &opts, Some(&journal));
    let (through_journal, outcome) = tamper_and_repair(nor2.clone(), &opts, Some(&journal));
    let (fresh, _) = tamper_and_repair(nor2, &opts, None);
    assert!(outcome.sims_run > 0, "{outcome:?}");
    assert_eq!(
        through_journal.to_json().expect("serializes"),
        fresh.to_json().expect("serializes"),
        "a repair through another cell's journal must match a journal-less repair"
    );
    let _ = std::fs::remove_dir_all(journal.parent().expect("journal dir"));
}

#[test]
fn resumed_repair_replays_every_slice_from_its_own_journal_phase() {
    let opts = nand2_opts();
    let clean = characterize_nand2();
    let journal = scratch_journal("phases");
    let repair = |model: &ProximityModel| {
        let mut model = model.clone();
        model
            .tamper_table_value(
                SliceKind::Dual,
                0,
                Edge::Falling,
                TableRole::Delay,
                DUAL_POSITIVE_W_IDX,
                -0.5,
            )
            .expect("dual slice exists");
        tamper_and_repair(model, &opts, Some(&journal))
    };

    let (first, first_outcome) = repair(&clean);
    assert!(first_outcome.sims_run >= 2, "{first_outcome:?}");
    let (second, second_outcome) = repair(&clean);
    assert_eq!(
        second_outcome.sims_run, 0,
        "every suspect point of both slices must replay from the journal: {second_outcome:?}"
    );
    assert_eq!(
        second.to_json().expect("serializes"),
        first.to_json().expect("serializes")
    );
    let _ = std::fs::remove_dir_all(journal.parent().expect("journal dir"));
}

#[test]
fn tampered_nldm_and_glitch_points_repair_byte_exactly() {
    let opts = CharacterizeOptions {
        glitch: true,
        load_grid: Some(vec![20e-15, 100e-15, 300e-15]),
        ..nand2_opts()
    };
    let mut model = ProximityModel::characterize(&Cell::nand(2), &Technology::demo_5v(), &opts)
        .expect("characterizes");
    let clean_json = model.to_json().expect("serializes");

    model
        .tamper_table_value(
            SliceKind::LoadSlew,
            0,
            Edge::Falling,
            TableRole::Delay,
            4,
            -1.0,
        )
        .expect("NLDM slice exists");
    model
        .tamper_table_value(SliceKind::Glitch, 1, Edge::Rising, TableRole::Peak, 3, 5.0)
        .expect("glitch slice exists");
    let report = model.audit(&AuditOptions::default());
    for kind in [SliceKind::LoadSlew, SliceKind::Glitch] {
        assert!(
            report.findings.iter().any(|f| f.slice == kind),
            "{kind:?} tamper not flagged: {report:?}"
        );
    }

    let (_, outcome) = model
        .audit_and_repair(&opts, &AuditOptions::default(), &RunControl::new())
        .expect("repair succeeds");
    assert!(outcome.repaired_points >= 2, "{outcome:?}");
    assert_eq!(outcome.demoted_slices, 0, "{outcome:?}");
    assert_eq!(
        model.to_json().expect("serializes"),
        clean_json,
        "repair must restore the clean NLDM and glitch bytes exactly"
    );
}
