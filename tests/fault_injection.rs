//! Resilience suite: deterministic fault injection inside the simulator's
//! solver loops, armed by the [`FaultPlan`] each test sets on the options
//! it builds (`proxim_spice::fault`).
//!
//! Four invariants are pinned down here:
//!
//! 1. An *armed but zero-rate* fault configuration changes nothing: the
//!    characterized model is byte-identical across worker counts, exactly
//!    as in the healthy pipeline.
//! 2. Under real fault pressure the characterization completes — recovered
//!    solves are counted, doomed runs degrade their slice with provenance
//!    instead of failing the model, and queries that would have used a lost
//!    slice fall back along the documented path and say so.
//! 3. A corrupt model-cache entry, or an intact one under another key's
//!    name, is quarantined aside and the model is re-characterized, never
//!    trusted.
//! 4. An armed plan is part of the cache key: a faulted run never serves
//!    its degraded model to a healthy one.
//!
//! The goldens below were recorded before the three per-layer injectors
//! were folded into `proxim_spice::fault`, and pin its draws to theirs.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::model::ProximityModel;
use proxim_model::{DegradedReason, InputEvent, SliceKind};
use proxim_numeric::pwl::Edge;
use proxim_spice::fault::FaultStream;
use proxim_spice::FaultPlan;
use std::sync::{Mutex, PoisonError};

/// The resilience recipe: 20% of transient Newton solves fail (the
/// recovery ladder absorbs these), a few step acceptances are vetoed, and
/// a small fraction of whole runs are doomed beyond recovery (these
/// produce degraded slices). The seed is part of the recipe: faults are
/// deterministic in (seed, run), so this exact failure pattern reproduces
/// every run on every thread count.
const PRESSURE: FaultPlan = FaultPlan {
    seed: 1996,
    newton: 0.20,
    accept: 0.05,
    kill: 0.02,
    ..FaultPlan::DISARMED
};

/// `fast()` NAND2 options at `jobs` workers under `faults`.
fn nand2_opts(jobs: usize, faults: FaultPlan) -> CharacterizeOptions {
    CharacterizeOptions {
        jobs,
        faults,
        ..CharacterizeOptions::fast()
    }
}

#[test]
fn zero_rate_faults_are_byte_identical_across_worker_counts() {
    let zero = FaultPlan {
        seed: 7,
        ..FaultPlan::DISARMED
    };
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let (m1, s1) =
        ProximityModel::characterize_with_stats(&cell, &tech, &nand2_opts(1, zero)).unwrap();
    let (m4, s4) =
        ProximityModel::characterize_with_stats(&cell, &tech, &nand2_opts(4, zero)).unwrap();
    assert_eq!(
        m1.to_json().unwrap(),
        m4.to_json().unwrap(),
        "zero-rate faults must not perturb the model"
    );
    assert!(!m1.is_degraded());
    assert_eq!(s1.failed_jobs, 0);
    assert_eq!(s4.failed_jobs, 0);
    assert_eq!(s1.recoveries, 0, "nothing to recover from at zero rates");
    assert_eq!(s1.degraded_slices, 0);
}

#[test]
fn fault_pressure_degrades_slices_instead_of_failing() {
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let opts = nand2_opts(2, PRESSURE);
    let (model, stats) = ProximityModel::characterize_with_stats(&cell, &tech, &opts)
        .expect("fault pressure must degrade, not fail");

    assert!(
        stats.recoveries > 0,
        "a 20% Newton fault rate must exercise the recovery ladder"
    );
    assert!(
        stats.failed_jobs > 0,
        "the kill rate must doom at least one run (tune the seed if the \
         characterization volume changes)"
    );
    assert!(model.is_degraded());
    assert_eq!(stats.degraded_slices, model.degraded_slices().len());
    for d in model.degraded_slices() {
        assert!(
            !d.reason.is_empty(),
            "degraded slices must carry provenance"
        );
    }

    // Every degraded dual whose two singles survived must still answer
    // proximity queries — via the documented single-input fallback,
    // flagged on the result.
    let mut checked = 0;
    for d in model.degraded_slices() {
        if d.kind != SliceKind::Dual {
            continue;
        }
        let partner = (d.pin + 1) % 2;
        if model.single_model(d.pin, d.edge).is_none()
            || model.single_model(partner, d.edge).is_none()
        {
            continue;
        }
        // Make the degraded pin dominant: for falling inputs on a NAND
        // the first threshold crossing causes the output (rank 1); for
        // rising inputs the last one does.
        let (t_deg, t_partner) = match d.edge {
            Edge::Falling => (0.0, 50e-12),
            Edge::Rising => (50e-12, 0.0),
        };
        let events = [
            InputEvent::new(d.pin, d.edge, t_deg, 400e-12),
            InputEvent::new(partner, d.edge, t_partner, 400e-12),
        ];
        let t = model
            .gate_timing(&events)
            .expect("degraded duals must fall back, not error");
        assert_eq!(
            t.degradation,
            Some(DegradedReason::DualSliceMissing),
            "a query inside the proximity window of a degraded dual \
             must be flagged"
        );
        assert!(t.delay > 0.0 && t.output_transition > 0.0);
        checked += 1;
    }
    assert!(
        checked > 0,
        "seed 1996 must degrade at least one dual with surviving \
         singles; degraded: {:?}",
        model.degraded_slices()
    );

    // A query that never needs the lost slice stays full-fidelity.
    let lone = model.gate_timing(&[InputEvent::new(0, Edge::Rising, 0.0, 400e-12)]);
    if let Ok(t) = lone {
        assert_eq!(t.degradation, None);
    }
}

#[test]
fn fault_injected_trace_roundtrips_through_chrome_converter() {
    use proxim_obs as obs;
    use std::io::Write;
    use std::sync::Arc;

    // An in-memory sink. The trace level and sink are process-global, so
    // other tests of this binary may emit into it while it is installed;
    // their lines are whole events too, and nothing below counts on their
    // absence.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);
    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    struct ObsGuard;
    impl Drop for ObsGuard {
        fn drop(&mut self) {
            obs::sink::uninstall();
            obs::set_level(obs::Level::Off);
        }
    }

    // The same fault pressure as the degradation test: recovery rungs and
    // doomed runs guarantee the trace carries recovery events, not just the
    // healthy-path spans.
    let (stats, jsonl) = {
        let _guard = ObsGuard;
        let cap = Capture::default();
        obs::sink::install_writer(Box::new(cap.clone()));
        obs::set_level(obs::Level::Trace);
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let (_, stats) =
            ProximityModel::characterize_with_stats(&cell, &tech, &nand2_opts(2, PRESSURE))
                .expect("fault pressure must degrade, not fail");
        obs::sink::flush();
        let mut buf = cap.0.lock().unwrap_or_else(PoisonError::into_inner);
        let jsonl = String::from_utf8(std::mem::take(&mut *buf)).unwrap();
        (stats, jsonl)
    };

    assert!(stats.recoveries > 0);
    assert!(
        stats.recovery_seconds > 0.0,
        "recovery rungs must report the wall-clock they burned"
    );
    assert_eq!(stats.invariant_violation(), None);

    // The degradation story is visible in the trace, not just the totals.
    for marker in [
        "\"name\":\"spice.recover\"",
        "\"name\":\"char.slice.degraded\"",
        "\"name\":\"char.job\"",
    ] {
        assert!(jsonl.contains(marker), "trace must contain {marker}");
    }

    // And the whole fault-laden trace still converts cleanly.
    let chrome = obs::chrome::chrome_trace(&jsonl).expect("conversion must succeed");
    let parsed = obs::json::Json::parse(&chrome).expect("chrome output is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), jsonl.lines().count());
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("spice.recover")
                && e.get("ph").and_then(|p| p.as_str()) == Some("i")
        }),
        "recovery events survive conversion as instants"
    );
}

#[test]
fn deadline_expiry_mid_recovery_reports_deadline_with_trace() {
    use proxim_spice::circuit::Waveform;
    use proxim_spice::tran::TranOptions;
    use proxim_spice::{AnalysisError, CancelToken};
    use std::time::Duration;

    // Half the Newton solves fail: the recovery ladder is climbing for
    // essentially the whole run, and no attempt can string together enough
    // converged solves to finish before the deadline.
    let faults = FaultPlan {
        seed: 11,
        newton: 0.5,
        ..FaultPlan::DISARMED
    };
    let tech = Technology::demo_5v();
    let mut net = Cell::nand(2).netlist(&tech, 100e-15);
    net.set_level(0, true);
    net.set_waveform(1, Waveform::ramp(0.2e-9, 0.5e-9, 0.0, tech.vdd));

    // Unlimited restarts take `NoConvergence` off the table: under this
    // fault pressure the ladder cycles (cuts, rungs, restarts) until the
    // deadline fires, whatever the machine's speed — so the only
    // possible outcomes are completion (excluded by the fault rate) and
    // `DeadlineExceeded` from inside the ladder.
    let mut options = TranOptions::to(5e-9).with_faults(faults);
    options.recovery.max_restarts = u32::MAX;
    let cancel = CancelToken::with_deadline_in(Duration::from_millis(25));
    let err = net
        .circuit
        .tran_cancellable(&options, &cancel)
        .expect_err("a 10 ms deadline must expire inside this run");

    match err {
        AnalysisError::DeadlineExceeded { recovery, .. } => {
            assert!(
                recovery.total() > 0,
                "a deadline that expires while the ladder is climbing \
                 must report the recovery attempts it interrupted"
            );
        }
        other => panic!(
            "deadline expiry mid-recovery must surface as \
             DeadlineExceeded, got: {other}"
        ),
    }
}

#[test]
fn corrupt_cache_entry_is_quarantined_and_recharacterized() {
    use proxim_model::jobs::CharStats;
    use proxim_model::persist::ModelCache;

    let tech = Technology::demo_5v();
    let cell = Cell::inv();
    let opts = CharacterizeOptions::fast();
    let dir = std::env::temp_dir().join("proxim_fault_cache_test");
    std::fs::remove_dir_all(&dir).ok();
    let cache = ModelCache::new(&dir);

    // Seed a valid entry, then flip bytes in the middle of it.
    let mut stats = CharStats::default();
    cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
    let key = ModelCache::key(&cell, &tech, &opts).unwrap();
    let path = cache.entry_path(key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 64).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xa5;
    }
    std::fs::write(&path, &bytes).unwrap();

    let mut stats = CharStats::default();
    let model = cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    assert_eq!(stats.cache_quarantined, 1);
    assert!(stats.sims_run > 0, "the corrupt entry must not be served");
    assert!(cache
        .store()
        .quarantined_path(&path, proxim_model::persist::fnv1a_64(&bytes))
        .exists());
    assert!(!model.is_degraded());

    // The fresh entry is served on the next call.
    let mut stats = CharStats::default();
    cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_entry_under_another_key_is_quarantined_not_served() {
    use proxim_model::jobs::CharStats;
    use proxim_model::persist::ModelCache;

    let tech = Technology::demo_5v();
    let opts = CharacterizeOptions::fast();
    let (inv, nand) = (Cell::inv(), Cell::nand(2));
    let dir = std::env::temp_dir().join(format!("proxim_fault_cache_bind_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ModelCache::new(&dir);

    // A complete, checksum-clean entry lands at the wrong key's path (an
    // operator's copy, a restored backup): it is intact, but it is not
    // the model that key names.
    let mut stats = CharStats::default();
    cache.characterize(&inv, &tech, &opts, &mut stats).unwrap();
    std::fs::copy(
        cache.entry_path(ModelCache::key(&inv, &tech, &opts).unwrap()),
        cache.entry_path(ModelCache::key(&nand, &tech, &opts).unwrap()),
    )
    .unwrap();

    let mut stats = CharStats::default();
    let model = cache.characterize(&nand, &tech, &opts, &mut stats).unwrap();
    assert_eq!(model.cell().input_count(), 2, "served the inverter's model");
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    assert_eq!(stats.cache_quarantined, 1);
    assert!(stats.sims_run > 0, "the misplaced entry must not be served");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_armed_plan_keys_the_cache_apart_from_a_healthy_run() {
    use proxim_model::jobs::CharStats;
    use proxim_model::persist::ModelCache;

    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let healthy = nand2_opts(2, FaultPlan::DISARMED);
    let faulted = nand2_opts(2, PRESSURE);
    assert_eq!(
        healthy.cache_key_string(),
        CharacterizeOptions {
            jobs: 2,
            ..CharacterizeOptions::fast()
        }
        .cache_key_string(),
        "a disarmed plan leaves the key as it was"
    );
    assert_ne!(
        ModelCache::key(&cell, &tech, &healthy).unwrap(),
        ModelCache::key(&cell, &tech, &faulted).unwrap()
    );

    let dir = std::env::temp_dir().join(format!("proxim_fault_key_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ModelCache::new(&dir);
    let mut stats = CharStats::default();
    let model = cache
        .characterize(&cell, &tech, &faulted, &mut stats)
        .unwrap();
    assert!(model.is_degraded(), "the recipe degrades slices");
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));

    // The healthy run in the same cache directory must not be served the
    // faulted run's degraded model.
    let mut stats = CharStats::default();
    let model = cache
        .characterize(&cell, &tech, &healthy, &mut stats)
        .unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    assert!(!model.is_degraded());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seed_1996_recipe_degrades_the_recorded_slices() {
    let model = ProximityModel::characterize(
        &Cell::nand(2),
        &Technology::demo_5v(),
        &nand2_opts(2, PRESSURE),
    )
    .expect("fault pressure must degrade, not fail");
    let ids: Vec<String> = model
        .degraded_slices()
        .iter()
        .map(|d| format!("{:?}/{}/{:?}", d.kind, d.pin, d.edge))
        .collect();
    assert_eq!(ids, ["Dual/0/Rising", "Dual/1/Rising", "Dual/1/Falling"]);
    assert_eq!(
        proxim_model::persist::fnv1a_64(model.to_json().unwrap().as_bytes()),
        0x9b47_1376_35dd_a7fe
    );
}

/// The daemon's `PROXIM_FAULTS` solver sites reach its demo
/// characterization: `churn` under the 1996 recipe saves a model degraded
/// in exactly the recorded slices.
#[test]
fn daemon_demo_model_is_characterized_under_the_armed_plan() {
    let dir = std::env::temp_dir().join(format!("proxim_fault_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_proxim_serve"))
        .args(["churn", "--store"])
        .arg(&dir)
        .env("PROXIM_FAULTS", PRESSURE.to_string())
        .output()
        .expect("churn runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("faults armed: {PRESSURE}")),
        "{stderr}"
    );
    let model = proxim_serve::ModelStore::new(&dir)
        .load("nand2_demo")
        .expect("demo model saved");
    let ids: Vec<String> = model
        .degraded_slices()
        .iter()
        .map(|d| format!("{:?}/{}/{:?}", d.kind, d.pin, d.edge))
        .collect();
    assert_eq!(ids, ["Dual/0/Rising", "Dual/1/Rising", "Dual/1/Falling"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_stream_tears_at_the_recorded_offsets() {
    let plan = FaultPlan {
        seed: 99,
        torn_write: 0.5,
        ..FaultPlan::DISARMED
    };
    let mut s = FaultStream::for_connection(&plan, 3);
    let offsets: Vec<i64> = (0..200)
        .map(|_| s.torn_write(100).map_or(-1, |keep| keep as i64))
        .collect();
    // -1 marks a write that is not torn.
    #[rustfmt::skip]
    let golden: [i64; 200] = [
        -1, -1, -1, -1, 28, 69, -1, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 38,
        -1, -1, -1, -1, -1, 59, 87, 89, -1, 9, 12, -1, -1, -1, 38, 28, -1, 27, 33, 82,
        94, -1, -1, 85, 21, -1, -1, 49, -1, -1, -1, -1, -1, -1, -1, -1, -1, 29, -1, 90,
        98, -1, -1, 36, -1, -1, 5, 81, -1, -1, -1, -1, 8, -1, 82, -1, 78, -1, 9, 87,
        2, 3, 34, 76, -1, 18, -1, -1, -1, -1, -1, 84, -1, -1, 48, 70, -1, 81, 39, 63,
        -1, 19, -1, 17, 36, -1, 77, -1, 79, 89, -1, 79, -1, 55, -1, -1, 40, 33, 4, -1,
        -1, 30, 91, -1, -1, 59, -1, -1, -1, -1, 92, 28, 84, 3, 64, 8, -1, -1, 55, 99,
        -1, -1, -1, -1, -1, 49, 98, -1, -1, 74, 79, -1, -1, -1, 44, 27, 13, -1, 59, 8,
        12, -1, -1, -1, -1, 27, 10, -1, 27, -1, 48, 38, 15, -1, -1, -1, -1, -1, 90, -1,
        84, -1, -1, 84, 69, 71, -1, 21, -1, -1, 43, 14, -1, 63, 84, 88, 65, -1, -1, -1,
    ];
    assert_eq!(offsets, golden);
}

#[test]
fn solver_stream_kills_at_the_recorded_index() {
    let plan = FaultPlan {
        seed: 7,
        kill: 1.0,
        ..FaultPlan::DISARMED
    };
    let mut s = FaultStream::for_run(&plan, 123);
    let first = (0..500).position(|_| s.newton());
    assert_eq!(first, Some(34));
}
