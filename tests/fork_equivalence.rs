//! Transient families: a member forked from a shared prefix is its own run.
//!
//! [`tran_family`] integrates the prefix its members share once and forks
//! each member from a snapshot of it. These tests hold every member's
//! result — times, every node sample, every branch current, Newton and
//! step counts, the recovery trace, or the error — to the member's run on
//! its own, bit for bit: on seeded pair stimuli over NAND2, NAND3 and NOR2,
//! both edges, with and without a stop rule; under an armed fault plan
//! whose runs restart after they fork; with members that cannot fork; and
//! one level up, where every characterization job's outcome (glitch peaks
//! included) must equal that job run as a batch of one, and where a
//! checkpoint journal cut in the middle of a dual or a glitch family
//! resumes to the same outcomes.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::{CharacterizeOptions, Reading, Simulator};
use proxim::model::dual::DualInputModel;
use proxim::model::glitch::GlitchModel;
use proxim::model::jobs::{execute_jobs, execute_jobs_controlled, families, SimJob};
use proxim::model::measure::{InputEvent, Scenario};
use proxim::model::ProximityModel;
use proxim::model::{CheckpointConfig, CheckpointJournal};
use proxim::numeric::pwl::Edge;
use proxim::spice::circuit::Circuit;
use proxim::spice::tran::{tran_family, StopRule, TranOptions, TranResult};
use proxim::spice::{AnalysisError, FaultPlan, NodeId, RecoveryPolicy, RecoveryTrace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The cell driven by `events` (all starting after t = 0) at `c_load`, and
/// the options a characterization transient would run it with: steps sized
/// for the leading ramp's horizon, `t_stop` past the last ramp, and (with
/// `stop`) a stop rule on the output's 1.2/3.4 V crossings.
fn member(cell: &Cell, events: &[InputEvent], c_load: f64, stop: bool) -> (Circuit, TranOptions) {
    let tech = Technology::demo_5v();
    let scenario = Scenario::resolve(cell, events).expect("sensitizable");
    let mut net = cell.netlist(&tech, c_load);
    for (pin, lv) in scenario.stable_levels.iter().enumerate() {
        if let Some(high) = lv {
            net.set_level(pin, *high);
        }
    }
    for e in events {
        net.set_waveform(e.pin, e.ramp.waveform(tech.vdd));
    }
    let end = |e: &InputEvent| e.ramp.t_start + e.ramp.transition_time;
    let t_end = events.iter().map(end).fold(0.0f64, f64::max);
    let mut options = TranOptions {
        t_stop: t_end + 6e-9,
        ..TranOptions::to(end(&events[0]) + 6e-9)
    }
    .with_dv_max(CharacterizeOptions::fast().dv_max);
    if stop {
        let (near, far) = match scenario.output_edge {
            Edge::Rising => (1.2, 3.4),
            Edge::Falling => (3.4, 1.2),
        };
        options = options.with_stop(StopRule {
            node: net.out,
            edge: scenario.output_edge,
            near,
            far,
        });
    }
    (net.circuit, options)
}

/// A seeded family: a lead event on `pin` at 0.3 ns and, per member, the
/// next pin starting somewhere from inside the lead's ramp to well after
/// it, with its own transition time.
fn family(cell: &Cell, edge: Edge, rng: &mut StdRng, stop: bool) -> Vec<(Circuit, TranOptions)> {
    let pin = rng.random_range(0..cell.input_count());
    let other = (pin + 1) % cell.input_count();
    let tau = rng.random_range(50.0f64..2000.0) * 1e-12;
    let c_load = rng.random_range(30.0f64..300.0) * 1e-15;
    let lead = InputEvent::new(pin, edge, 0.3e-9, tau);
    (0..6)
        .map(|_| {
            let start = 0.3e-9 + rng.random_range(0.0f64..2500.0) * 1e-12;
            let tau_b = rng.random_range(50.0f64..2000.0) * 1e-12;
            member(
                cell,
                &[lead, InputEvent::new(other, edge, start, tau_b)],
                c_load,
                stop,
            )
        })
        .collect()
}

/// A recovery trace without its wall-clock seconds.
fn trace_bits(t: &RecoveryTrace) -> String {
    let attempts: Vec<String> = t
        .attempts()
        .iter()
        .map(|a| {
            format!(
                "{:?}@{:x}/{:x}:{}",
                a.stage,
                a.t.to_bits(),
                a.dt.to_bits(),
                a.recovered
            )
        })
        .collect();
    format!(
        "{} {} {} {} {} [{}]",
        t.damped_retries,
        t.gmin_steps,
        t.step_cuts,
        t.restarts,
        t.recovered_solves,
        attempts.join(" ")
    )
}

/// Every non-ground node of a cell netlist: the rails, pins and output by
/// name, and the internal stack nodes by their elaboration names.
fn cell_nodes(ckt: &Circuit) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = ["vdd", "out", "a", "b", "c"]
        .into_iter()
        .filter_map(|name| ckt.find_node(name))
        .collect();
    for net in ["pdn", "pun"] {
        for k in 0..16 {
            if let Some(node) = ckt.find_node(&format!("x0_{net}_s{k}")) {
                nodes.push(node);
            }
        }
    }
    assert_eq!(nodes.len(), ckt.node_count() - 1, "a node was not found");
    nodes
}

/// Everything a run produced, as comparable bits (an error as itself, its
/// trace without seconds).
fn run_bits(r: &Result<TranResult, AnalysisError>, ckt: &Circuit) -> String {
    let r = match r {
        Ok(r) => r,
        Err(AnalysisError::DeadlineExceeded { recovery, .. }) => {
            return format!("deadline {}", trace_bits(recovery))
        }
        Err(e) => return format!("error {e:?}"),
    };
    let mut s = format!(
        "{} {} {} |",
        r.newton_iterations,
        r.accepted_steps,
        trace_bits(&r.recovery)
    );
    for &t in r.times() {
        s.push_str(&format!(" {:x}", t.to_bits()));
    }
    for node in cell_nodes(ckt) {
        for k in 0..r.times().len() {
            s.push_str(&format!(" {:x}", r.voltage_at(k, node).to_bits()));
        }
    }
    for b in 0..ckt.vsource_count() {
        for &(_, i) in r.branch_current_waveform(b).points() {
            s.push_str(&format!(" {:x}", i.to_bits()));
        }
    }
    s
}

/// Runs `members` as one family and each alone, asserts the results are
/// the same bits, and returns the family's results.
fn assert_family_matches_alone(
    members: &[(Circuit, TranOptions)],
) -> Vec<Result<TranResult, AnalysisError>> {
    let refs: Vec<(&Circuit, TranOptions)> = members.iter().map(|(c, o)| (c, *o)).collect();
    let mut together = vec![None; members.len()];
    tran_family(&refs, &proxim::spice::CancelToken::new(), |k, r| {
        assert!(
            together[k].replace(r).is_none(),
            "member {k} answered twice"
        );
    });
    let together: Vec<Result<TranResult, AnalysisError>> = together
        .into_iter()
        .map(|r| r.expect("every member answers"))
        .collect();
    for (k, ((ckt, opts), got)) in members.iter().zip(&together).enumerate() {
        let alone = ckt.tran(opts);
        assert_eq!(
            run_bits(got, ckt),
            run_bits(&alone, ckt),
            "member {k} differs from its run alone"
        );
        if let Ok(r) = &alone {
            assert_eq!(r.shared, None, "a run alone inherits nothing");
        }
    }
    together
}

/// Steps inherited across `results`.
fn shared_steps(results: &[Result<TranResult, AnalysisError>]) -> usize {
    results
        .iter()
        .flatten()
        .filter_map(|r| r.shared)
        .map(|s| s.accepted_steps)
        .sum()
}

#[test]
fn forked_members_equal_their_runs_alone() {
    let mut shared = 0;
    for (cell, seed) in [
        (Cell::nand(2), 0xf0_01_u64),
        (Cell::nand(3), 0xf0_02),
        (Cell::nor(2), 0xf0_03),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..4 {
            let edge = if case % 2 == 0 {
                Edge::Rising
            } else {
                Edge::Falling
            };
            let members = family(&cell, edge, &mut rng, case < 2);
            shared += shared_steps(&assert_family_matches_alone(&members));
        }
    }
    assert!(shared > 0, "no member forked after the leading ramp");
}

#[test]
fn faulted_members_restart_after_the_fork_as_they_would_alone() {
    // Every rung but the restart is off and the minimum step is large, so
    // a few injected Newton failures in a row exhaust an attempt: runs
    // restart from t = 0 — some before the leader's run reaches their fork
    // point, some after they forked — and some fail for good.
    let plan = FaultPlan {
        seed: 0x5ef0,
        newton: 0.19,
        accept: 0.03,
        ..FaultPlan::DISARMED
    };
    let policy = RecoveryPolicy {
        damped_retry: false,
        gmin_stepping: false,
        max_restarts: 2,
        step_budget: 0,
    };
    let mut rng = StdRng::seed_from_u64(0xf0_04);
    let (mut restarted_after_fork, mut restarted_before_fork, mut failed) = (0, 0, 0);
    for (cell, edge) in [Cell::nand(2), Cell::nand(3), Cell::nor(2)]
        .into_iter()
        .flat_map(|cell| [(cell.clone(), Edge::Rising), (cell, Edge::Falling)])
    {
        let members: Vec<(Circuit, TranOptions)> = family(&cell, edge, &mut rng, true)
            .into_iter()
            .map(|(ckt, o)| {
                let o = TranOptions {
                    dt_init: o.dt_max / 4.0,
                    dt_min: o.dt_max / 256.0,
                    dv_max: 0.5,
                    ..o
                };
                (ckt, o.with_faults(plan).with_recovery(policy))
            })
            .collect();
        for r in assert_family_matches_alone(&members) {
            match r {
                Ok(r) if r.recovery.restarts > 0 => match r.shared {
                    Some(s) if s.accepted_steps == 0 => restarted_after_fork += 1,
                    Some(_) => restarted_before_fork += 1,
                    None => {}
                },
                Ok(_) => {}
                Err(_) => failed += 1,
            }
        }
    }
    assert!(
        restarted_after_fork > 0 && restarted_before_fork > 0 && failed > 0,
        "the plan no longer covers every path: {restarted_after_fork} restarted after \
         forking, {restarted_before_fork} before, {failed} failed"
    );
}

#[test]
fn members_that_cannot_fork_run_alone() {
    let cell = Cell::nand(2);
    let lead = InputEvent::new(0, Edge::Rising, 0.3e-9, 400e-12);
    let partner = |start: f64| InputEvent::new(1, Edge::Rising, start, 300e-12);
    let base = member(&cell, &[lead, partner(1.5e-9)], 100e-15, true);
    // A later start: forks from the base after the leading ramp.
    let later = member(&cell, &[lead, partner(2.5e-9)], 100e-15, true);
    // Another load: a different capacitor, so another topology.
    let heavier = member(&cell, &[lead, partner(1.5e-9)], 150e-15, true);
    // Other step bounds.
    let finer = (base.0.clone(), base.1.with_dv_max(0.04));
    // The partner moves first, before the leading ramp starts.
    let early = member(&cell, &[lead, partner(0.1e-9)], 100e-15, true);
    let duplicate = base.clone();
    // Without a stop rule, rising against falling inputs: these two differ
    // from the rest in their options, and from each other at t = 0.
    let rising = member(&cell, &[lead, partner(1.5e-9)], 100e-15, false);
    let falling = member(
        &cell,
        &[
            InputEvent::new(0, Edge::Falling, 0.3e-9, 400e-12),
            InputEvent::new(1, Edge::Falling, 1.5e-9, 300e-12),
        ],
        100e-15,
        false,
    );
    let members = vec![
        base, later, heavier, finer, early, duplicate, rising, falling,
    ];
    let results = assert_family_matches_alone(&members);
    let shared: Vec<Option<usize>> = results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("healthy run");
            r.shared.map(|s| s.accepted_steps)
        })
        .collect();
    // The later start leads; the base, its duplicate and the early start
    // fork from it where their partner moves. Every other member
    // integrates alone.
    let base_shared = shared[0].expect("the base forks");
    assert_eq!(shared[5], shared[0]);
    assert!(
        shared[4].is_some_and(|n| n > 0 && n < base_shared),
        "{shared:?}"
    );
    for k in [1, 2, 3, 6, 7] {
        assert_eq!(shared[k], None, "member {k} cannot fork");
    }
}

/// Every job of a characterization batch, run in its family, has the
/// outcome it has as a batch of one: dual rows, and glitch rows with each
/// pin as the causer and its neighbour as the blocker.
#[test]
fn every_job_outcome_equals_its_one_job_batch() {
    for cell in [Cell::nand(2), Cell::nand(3)] {
        let tech = Technology::demo_5v();
        let opts = CharacterizeOptions::fast();
        let model = ProximityModel::characterize(&cell, &tech, &opts).expect("characterizes");
        let sim = Simulator::new(&cell, &tech, *model.thresholds(), opts.c_load, opts.dv_max);
        let th = *model.thresholds();
        let mut jobs = Vec::new();
        for pin in 0..cell.input_count() {
            for edge in [Edge::Rising, Edge::Falling] {
                let Some(single) = model.single_model(pin, edge) else {
                    continue;
                };
                let partner = (pin + 1) % cell.input_count();
                jobs.extend(DualInputModel::enumerate(
                    &th,
                    opts.c_load,
                    single,
                    partner,
                    &opts.dual_u_grid[..2],
                    &opts.dual_v_grid[..2],
                    &opts.dual_w_grid,
                ));
                jobs.extend(GlitchModel::enumerate(
                    &th,
                    opts.c_load,
                    single,
                    partner,
                    &opts.glitch_u_grid,
                    &opts.glitch_v_grid,
                    &opts.glitch_w_grid,
                ));
            }
        }
        jobs.push(SimJob::events_wide(vec![InputEvent::new(
            0,
            Edge::Rising,
            0.0,
            300e-12,
        )]));
        for reading in [Reading::Edge, Reading::Peak] {
            assert!(
                families(&jobs)
                    .iter()
                    .any(|f| f.len() > 1 && jobs[f[0]].reading == reading),
                "the batch has no {reading:?} family to fork"
            );
        }
        let batch = execute_jobs(&sim, &jobs, 2);
        assert!(batch.work.forked_runs > 0 && batch.work.shared_steps > 0);
        for (i, job) in jobs.iter().enumerate() {
            let alone = execute_jobs(&sim, std::slice::from_ref(job), 1);
            assert_eq!(alone.work.forked_runs, 0);
            assert_eq!(
                batch.outcomes[i],
                alone.outcomes[0],
                "{} job {i}",
                cell.name()
            );
        }
    }
}

#[test]
fn a_member_forks_where_its_sources_part_from_the_leaders() {
    // Both partners start at 1.5 ns, so the two runs have the same
    // breakpoints up to there, but the ramps part right at 1.5 ns: the
    // faster one must fork there although the leader's next steps are not
    // bounded by any breakpoint of its own.
    let cell = Cell::nand(2);
    let lead = InputEvent::new(0, Edge::Rising, 0.3e-9, 400e-12);
    let members: Vec<(Circuit, TranOptions)> = [400e-12, 300e-12]
        .into_iter()
        .map(|tau| {
            let partner = InputEvent::new(1, Edge::Rising, 1.5e-9, tau);
            member(&cell, &[lead, partner], 100e-15, false)
        })
        .collect();
    let results = assert_family_matches_alone(&members);
    let forked = results[1].as_ref().expect("healthy run").shared;
    assert!(forked.is_some_and(|s| s.accepted_steps > 0), "{forked:?}");
}

/// Runs `jobs` under a checkpoint journal, cuts the journal in the middle
/// of the batch's largest family, and resumes: the outcomes must be the
/// uninterrupted run's.
fn assert_cut_mid_family_resumes(sim: &Simulator<'_>, jobs: &[SimJob], dir: &std::path::Path) {
    std::fs::remove_dir_all(dir).ok();
    let config = CheckpointConfig::every_job(dir.join("pairs.journal"));
    let journal = CheckpointJournal::open(&config, 7).expect("journal opens");
    let full = execute_jobs_controlled(sim, jobs, 1, Some((&journal, "pairs")));
    assert_eq!(full.failed_jobs, 0);
    journal.flush();
    drop(journal);

    // On one worker the families run in order of their first job, and each
    // journals its jobs together once it finishes: keep the header and the
    // entries up to the middle of the largest family.
    let fams = families(jobs);
    let (big, fam) = fams
        .iter()
        .enumerate()
        .max_by_key(|(_, f)| f.len())
        .expect("the batch has families");
    assert!(fam.len() >= 4, "family of {}", fam.len());
    let before: usize = fams[..big].iter().map(Vec::len).sum();
    let keep = before + fam.len() / 2;
    let text = std::fs::read_to_string(&config.path).expect("journal reads");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        1 + jobs.len(),
        "a header and one entry per job"
    );
    let kept_jobs: Vec<usize> = lines[1 + before..1 + keep]
        .iter()
        .map(|l| {
            l.split_whitespace()
                .nth(3)
                .and_then(|i| i.parse().ok())
                .expect("job index")
        })
        .collect();
    assert_eq!(
        kept_jobs,
        fam[..fam.len() / 2],
        "the cut falls inside the family"
    );
    std::fs::write(&config.path, lines[..1 + keep].join("\n") + "\n").expect("journal cut");

    let journal = CheckpointJournal::open(&config, 7).expect("journal reopens");
    assert_eq!(journal.resumed_entries(), keep);
    let resumed = execute_jobs_controlled(sim, jobs, 1, Some((&journal, "pairs")));
    assert_eq!(resumed.skipped, keep);
    assert_eq!(resumed.outcomes, full.outcomes);
    // The rest of the cut family ran as a smaller family.
    assert!(resumed.work.forked_runs > 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_journal_cut_mid_family_resumes_to_the_same_outcomes() {
    let (cell, tech, opts) = (
        Cell::nand(2),
        Technology::demo_5v(),
        CharacterizeOptions::fast(),
    );
    let model = ProximityModel::characterize(&cell, &tech, &opts).expect("characterizes");
    let th = *model.thresholds();
    let sim = Simulator::new(&cell, &tech, th, opts.c_load, opts.dv_max);
    let dir = std::env::temp_dir().join(format!("proxim_fork_resume_{}", std::process::id()));
    let dual = DualInputModel::enumerate(
        &th,
        opts.c_load,
        model
            .single_model(0, Edge::Falling)
            .expect("single-input model"),
        1,
        &opts.dual_u_grid,
        &opts.dual_v_grid,
        &opts.dual_w_grid,
    );
    assert_cut_mid_family_resumes(&sim, &dual, &dir);
    let glitch = GlitchModel::enumerate(
        &th,
        opts.c_load,
        model
            .single_model(1, Edge::Rising)
            .expect("single-input model"),
        0,
        &opts.glitch_u_grid,
        &opts.glitch_v_grid,
        &opts.glitch_w_grid,
    );
    assert_cut_mid_family_resumes(&sim, &glitch, &dir);
}
