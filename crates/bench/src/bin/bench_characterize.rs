//! Benchmarks the enumerate → execute → assemble characterization pipeline
//! and emits `BENCH_characterize.json`.
//!
//! Usage:
//!
//! ```text
//! bench_characterize [--out PATH] [--jobs N] [--baseline PATH] [--scaling]
//!                    [--pool-smoke]
//! ```
//!
//! Measures, on a NAND2 at reduced (`fast`) grids with glitch and load–slew
//! surfaces enabled so every job kind is exercised:
//!
//! 1. sequential characterization (`jobs = 1`) — the baseline the perf
//!    gate compares against,
//! 2. parallel characterization (`jobs = N`, default
//!    `available_parallelism()`), asserting byte-identical output,
//! 3. a cold-miss / warm-hit pass through the on-disk [`ModelCache`].
//!
//! `--scaling` adds a worker sweep over `{1, 2, 4, host_cpus}` (deduplicated;
//! the single-worker point is the sequential run) and emits a `scaling` section with per-point wall-clock, throughput,
//! speedup, and efficiency. `--pool-smoke` runs a quick two-worker
//! characterization and fails unless both workers actually claimed jobs —
//! the regression test for a dead worker pool — then exits without writing
//! a report.
//!
//! The pool-health gates are always on: a run whose parallel section
//! resolves to one engaged worker while more were requested (or available)
//! fails with a diagnostic instead of silently benchmarking sequential
//! execution. On a single-CPU host the report records
//! `"parallel_limited": true` instead of failing.
//!
//! Per-run per-phase wall-clock and sims/sec come from [`CharStats`]; the
//! speedup line compares total wall-clock of (2) against (1). The run also
//! drives the observability stack end-to-end:
//!
//! - metrics are always on ([`obs::Level::Metrics`]); the report's
//!   `"histograms"` section carries per-job wall-time and Newton-iteration
//!   percentiles from the global registry, and the
//!   registry summary table is printed at the end of the run;
//! - `PROXIM_TRACE=trace.jsonl` raises the level to [`obs::Level::Trace`]
//!   and streams spans/events to that file (convert with `trace2chrome` and
//!   open in Perfetto);
//! - unless tracing is armed, the sequential run is gated against the
//!   committed baseline report on process CPU per transient run
//!   (`cpu_us_per_sim`, user + system time from `/proc/self/stat` over
//!   eight identical sequential runs, so its 10 ms ticks stay ~1 % of the
//!   measure): a rise
//!   beyond `PROXIM_BENCH_TOLERANCE` percent (default 5) fails the run. A
//!   baseline without the field skips the gate. Wall-clock `sims_per_sec` is
//!   reported but not gated: on a shared host it swings far wider than the
//!   tolerance;
//! - the sequential section also records the solver work per transient run,
//!   `steps_per_sim` (accepted time steps) and `newton_iters_per_sim`, from
//!   the registry's `spice.tran.*` counters. Both are deterministic, so they
//!   are gated tightly whether or not tracing is armed: more than 0.5 % above
//!   the committed baseline fails the run;
//! - and it splits one transient's wall time by layer, per run:
//!   `assemble_us_per_sim` (device evaluation and stamping) and
//!   `lu_us_per_sim` (factor + solve), both scaled up from the solver's
//!   1-in-64 iteration samples, and `step_control_us_per_sim`, the rest of
//!   `tran_us_per_sim` (step control, convergence checks, recording).
//!
//! Set `PROXIM_BENCH_NO_GATE=1` (any value but empty or `0`) to skip every
//! gate, e.g. on a different machine than the one that produced the
//! baseline.

use proxim_bench::process_cpu_s;
use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::jobs::CharStats;
use proxim_model::persist::ModelCache;
use proxim_model::ProximityModel;
use proxim_numeric::grid::logspace;
use proxim_obs as obs;
use std::process::ExitCode;
use std::time::Instant;

fn bench_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        glitch: true,
        load_grid: Some(logspace(20e-15, 200e-15, 3)),
        ..CharacterizeOptions::fast()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One timed characterization; returns (model JSON, stats, wall seconds,
/// process CPU seconds).
fn run(cell: &Cell, tech: &Technology, jobs: usize) -> (String, CharStats, f64, f64) {
    let opts = CharacterizeOptions {
        jobs,
        ..bench_opts()
    };
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let (model, stats) = ProximityModel::characterize_with_stats(cell, tech, &opts)
        .expect("benchmark characterization must succeed");
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    (model.to_json().expect("model serializes"), stats, wall, cpu)
}

/// Solver work per transient run, from the global registry's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Work {
    steps_per_sim: f64,
    newton_iters_per_sim: f64,
}

impl Work {
    /// The work done between two registry snapshots.
    fn between(before: &obs::Snapshot, after: &obs::Snapshot) -> Self {
        let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
        let runs = delta("spice.tran.runs").max(1.0);
        Self {
            steps_per_sim: delta("spice.tran.accepted_steps") / runs,
            newton_iters_per_sim: delta("spice.tran.newton_iterations") / runs,
        }
    }
}

/// Where the transients' wall time went, per transient run, from the
/// registry's `spice.tran.*` gauges. Assembly and LU are the solver's
/// scaled 1-in-64 iteration samples, so they are estimates.
#[derive(Debug, Clone, Copy)]
struct Layers {
    tran_us_per_sim: f64,
    assemble_us_per_sim: f64,
    lu_us_per_sim: f64,
}

impl Layers {
    /// The split between two registry snapshots.
    fn between(before: &obs::Snapshot, after: &obs::Snapshot) -> Self {
        let runs = (after.counter("spice.tran.runs"))
            .saturating_sub(before.counter("spice.tran.runs"))
            .max(1) as f64;
        let us = |name: &str| (after.gauge(name) - before.gauge(name)) * 1e6 / runs;
        Self {
            tran_us_per_sim: us("spice.tran.seconds"),
            assemble_us_per_sim: us("spice.tran.assemble_seconds"),
            lu_us_per_sim: us("spice.tran.lu_seconds"),
        }
    }

    /// Transient time outside Newton assembly and factor + solve: step
    /// control, convergence checks and sample recording.
    fn step_control_us_per_sim(&self) -> f64 {
        self.tran_us_per_sim - self.assemble_us_per_sim - self.lu_us_per_sim
    }
}

/// Sequential runs whose process CPU makes up `cpu_us_per_sim`.
const CPU_RUNS: usize = 8;

/// The sequential section's extra fields: solver work, the per-layer split
/// of transient time, and process CPU (`cpu_s` over `sims` transients in
/// [`CPU_RUNS`] runs).
fn sequential_fields(work: Work, layers: Layers, cpu_s: f64, sims: usize) -> String {
    format!(
        concat!(
            "\"steps_per_sim\": {:.3}, \"newton_iters_per_sim\": {:.3}, ",
            "\"tran_us_per_sim\": {:.2}, \"assemble_us_per_sim\": {:.2}, ",
            "\"lu_us_per_sim\": {:.2}, \"step_control_us_per_sim\": {:.2}, ",
            "\"cpu_runs\": {}, \"cpu_s\": {:.2}, \"cpu_us_per_sim\": {:.2}, "
        ),
        work.steps_per_sim,
        work.newton_iters_per_sim,
        layers.tran_us_per_sim,
        layers.assemble_us_per_sim,
        layers.lu_us_per_sim,
        layers.step_control_us_per_sim(),
        CPU_RUNS,
        cpu_s,
        cpu_us_per_sim(cpu_s, sims),
    )
}

/// Process CPU microseconds per transient run.
fn cpu_us_per_sim(cpu_s: f64, sims: usize) -> f64 {
    cpu_s * 1e6 / sims.max(1) as f64
}

/// One run's report section; `extra` holds preformatted fields (the
/// sequential run's, see [`sequential_fields`]).
fn stats_json(stats: &CharStats, wall: f64, extra: &str) -> String {
    let p = stats.phases;
    format!(
        concat!(
            "{{\"threads\": {}, \"workers_engaged\": {}, \"sims_run\": {}, ",
            "{}",
            "\"wall_s\": {:.6}, ",
            "\"sims_per_sec\": {:.1}, ",
            "\"phases_s\": {{\"vtc\": {:.6}, \"singles\": {:.6}, ",
            "\"pairs\": {:.6}, \"finish\": {:.6}}}, ",
            "\"jobs\": {{\"enumerated\": {}, \"succeeded\": {}, \"failed\": {}}}, ",
            "\"cache_hits\": {}, \"cache_misses\": {}, ",
            "\"cache_quarantined\": {}, \"recoveries\": {}, ",
            "\"recovery_seconds\": {:.6}, \"degraded_slices\": {}}}"
        ),
        stats.threads,
        stats.workers_engaged,
        stats.sims_run,
        extra,
        wall,
        stats.sims_run as f64 / wall.max(1e-12),
        p.vtc,
        p.singles,
        p.pairs,
        p.finish,
        stats.enumerated_jobs,
        stats.succeeded_jobs,
        stats.failed_jobs,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_quarantined,
        stats.recoveries,
        stats.recovery_seconds,
        stats.degraded_slices,
    )
}

/// Percentile summaries of the interesting global-registry histograms.
fn histograms_json(snap: &obs::Snapshot) -> String {
    let mut body = String::new();
    for name in ["char.job.seconds", "spice.tran.newton_iters_per_solve"] {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        if !body.is_empty() {
            body.push_str(", ");
        }
        body.push_str(&format!(
            concat!(
                "\"{}\": {{\"count\": {}, \"mean\": {:.6}, ",
                "\"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}}}"
            ),
            name,
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
        ));
    }
    format!("{{{body}}}")
}

/// Pulls `"sequential" → name` out of a previously written report.
fn baseline_sequential(path: &str, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = obs::json::Json::parse(&text).ok()?;
    json.get("sequential")?.get(name)?.as_f64()
}

/// Fails when the sequential run's solver work per transient exceeds the
/// baseline's by more than 0.5 %. The counters are deterministic, so the
/// tolerance only absorbs the report's rounding.
fn work_gate(current: Work, baseline: Option<Work>, baseline_path: &str) -> Result<String, String> {
    if !proxim_bench::gates_enabled() {
        return Ok("work gate: skipped (PROXIM_BENCH_NO_GATE)".into());
    }
    let Some(baseline) = baseline else {
        return Ok(format!(
            "work gate: no work counters in {baseline_path}, skipped"
        ));
    };
    let mut verdicts = Vec::new();
    let mut failed = false;
    for (name, now, base) in [
        (
            "steps_per_sim",
            current.steps_per_sim,
            baseline.steps_per_sim,
        ),
        (
            "newton_iters_per_sim",
            current.newton_iters_per_sim,
            baseline.newton_iters_per_sim,
        ),
    ] {
        let delta_pct = (now / base - 1.0) * 100.0;
        failed |= now > base * 1.005;
        verdicts.push(format!("{name} {now:.3} ({delta_pct:+.2}% vs {base:.3})"));
    }
    let msg = verdicts.join(", ");
    if failed {
        Err(format!("work gate FAILED (limit +0.5%): {msg}"))
    } else {
        Ok(format!("work gate: {msg}"))
    }
}

/// Compares the fresh sequential CPU per transient run against the
/// baseline value captured before the report was overwritten. Returns an
/// error message on a rise beyond the tolerance.
fn cpu_gate(current: f64, baseline: Option<f64>, baseline_path: &str) -> Result<String, String> {
    if !proxim_bench::gates_enabled() {
        return Ok("cpu gate: skipped (PROXIM_BENCH_NO_GATE)".into());
    }
    let Some(baseline) = baseline else {
        return Ok(format!(
            "cpu gate: no cpu_us_per_sim in {baseline_path}, skipped"
        ));
    };
    if current <= 0.0 {
        return Ok("cpu gate: process CPU time unavailable, skipped".into());
    }
    let tol_pct = std::env::var("PROXIM_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(5.0);
    let ceiling = baseline * (1.0 + tol_pct / 100.0);
    let delta_pct = (current / baseline - 1.0) * 100.0;
    let msg = format!(
        "sequential {current:.1} CPU us/sim, {delta_pct:+.1}% vs baseline \
         {baseline:.1} (tolerance +{tol_pct:.1}%)"
    );
    if current > ceiling {
        Err(format!("cpu gate FAILED: {msg}"))
    } else {
        Ok(format!("cpu gate: {msg}"))
    }
}

/// Fails when a multi-worker phase was requested but only one worker ever
/// claimed work — the dead-pool regression this bench exists to catch.
fn pool_gate(label: &str, stats: &CharStats) -> Result<(), String> {
    if stats.threads > 1 && stats.workers_engaged < 2 {
        return Err(format!(
            "pool gate FAILED ({label}): {} worker threads requested but only \
             {} engaged — the parallel section resolved to sequential \
             execution (dead worker pool)",
            stats.threads, stats.workers_engaged
        ));
    }
    Ok(())
}

/// Quick two-worker characterization asserting the pool actually spreads
/// work. Uses the plain `fast` grid (no glitch, no load surface) so it stays
/// a smoke test, writes no report, and skips the CPU gate.
fn pool_smoke(cell: &Cell, tech: &Technology) -> ExitCode {
    let opts = CharacterizeOptions {
        jobs: 2,
        ..CharacterizeOptions::fast()
    };
    let t0 = Instant::now();
    let (_, stats) = ProximityModel::characterize_with_stats(cell, tech, &opts)
        .expect("pool-smoke characterization must succeed");
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "pool smoke: {} sims in {:.2} s on {} thread(s), {} engaged",
        stats.sims_run, wall, stats.threads, stats.workers_engaged
    );
    if stats.threads != 2 {
        eprintln!(
            "pool smoke FAILED: jobs = 2 resolved to {} worker thread(s)",
            stats.threads
        );
        return ExitCode::FAILURE;
    }
    if stats.workers_engaged != 2 {
        eprintln!(
            "pool smoke FAILED: 2 worker threads requested but only {} \
             engaged — the parallel section resolved to sequential \
             execution (dead worker pool)",
            stats.workers_engaged
        );
        return ExitCode::FAILURE;
    }
    eprintln!("pool smoke OK: both workers claimed jobs");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_characterize.json");
    let mut baseline: Option<String> = None;
    let mut jobs = 0usize; // 0 → available_parallelism
    let mut scaling = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out = path;
            }
            "--baseline" => {
                let Some(path) = args.next() else {
                    eprintln!("--baseline needs a path");
                    return ExitCode::FAILURE;
                };
                baseline = Some(path);
            }
            "--jobs" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--jobs needs a non-negative count");
                    return ExitCode::FAILURE;
                };
                jobs = n;
            }
            "--scaling" => scaling = true,
            "--pool-smoke" => smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_characterize [--out PATH] [--jobs N] \
                     [--baseline PATH] [--scaling] [--pool-smoke]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The gate compares against the committed report by default — the same
    // file the run overwrites, so the baseline number is captured up front.
    let baseline = baseline.unwrap_or_else(|| out.clone());

    // The bench is the profiling harness: metrics are always on, and
    // PROXIM_TRACE upgrades to full span tracing.
    let trace_path = obs::init_from_env();
    if obs::level() < obs::Level::Metrics {
        obs::set_level(obs::Level::Metrics);
    }
    if let Some(p) = &trace_path {
        eprintln!("tracing to {} (cpu gate disabled)", p.display());
    }
    // Absent from reports written before the CPU gate existed.
    let baseline_cpu = baseline_sequential(&baseline, "cpu_us_per_sim");
    // Absent from reports written before the work counters existed.
    let baseline_work = baseline_sequential(&baseline, "steps_per_sim")
        .zip(baseline_sequential(&baseline, "newton_iters_per_sim"))
        .map(|(steps_per_sim, newton_iters_per_sim)| Work {
            steps_per_sim,
            newton_iters_per_sim,
        });

    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    if smoke {
        return pool_smoke(&cell, &tech);
    }

    let cpus = host_cpus();
    let threads = CharacterizeOptions {
        jobs,
        ..bench_opts()
    }
    .worker_threads();
    // Honest accounting up front: a bench invoked with default jobs on a
    // multi-core host that still resolves to one worker is the bug, not an
    // environment quirk.
    if jobs == 0 && cpus > 1 && threads < 2 {
        eprintln!(
            "pool gate FAILED: host has {cpus} CPUs but jobs = 0 resolved to \
             {threads} worker thread(s) — parallel section resolved to 1 \
             worker unexpectedly"
        );
        return ExitCode::FAILURE;
    }
    let parallel_limited = cpus == 1;
    if parallel_limited {
        eprintln!("note: single-CPU host — thread-scaling numbers are not meaningful here");
    }

    // Untimed warmup so the baseline is not penalized for cold page/file
    // caches relative to the runs after it.
    run(&cell, &tech, 1);

    eprintln!("sequential baseline (jobs = 1)...");
    let before = obs::Registry::global().snapshot();
    let (json_seq, seq, wall_seq, mut cpu_seq) = run(&cell, &tech, 1);
    let after = obs::Registry::global().snapshot();
    let work_seq = Work::between(&before, &after);
    let layers_seq = Layers::between(&before, &after);
    // One run is about ten 10 ms ticks of /proc/self/stat, so one tick
    // would swing CPU per sim by more than the gate's tolerance; the gated
    // figure is taken over CPU_RUNS identical sequential runs instead.
    let mut cpu_sims = seq.sims_run;
    for _ in 1..CPU_RUNS {
        let (json, stats, _, cpu) = run(&cell, &tech, 1);
        assert_eq!(
            json_seq, json,
            "repeated sequential output must be byte-identical"
        );
        cpu_seq += cpu;
        cpu_sims += stats.sims_run;
    }
    let cpu_per_sim = cpu_us_per_sim(cpu_seq, cpu_sims);
    eprintln!(
        "  {} sims in {:.2} s, {:.1} steps and {:.1} Newton iterations per sim; \
         {:.2} s CPU over {CPU_RUNS} runs, {:.1} us/sim",
        seq.sims_run,
        wall_seq,
        work_seq.steps_per_sim,
        work_seq.newton_iters_per_sim,
        cpu_seq,
        cpu_per_sim,
    );
    eprintln!(
        "  per transient: {:.1} us = assemble {:.1} + factor/solve {:.1} + step control {:.1}",
        layers_seq.tran_us_per_sim,
        layers_seq.assemble_us_per_sim,
        layers_seq.lu_us_per_sim,
        layers_seq.step_control_us_per_sim()
    );

    eprintln!("parallel (jobs = {threads})...");
    let (json_par, par, wall_par, _) = run(&cell, &tech, threads.max(1));
    eprintln!(
        "  {} sims in {:.2} s, {} of {} worker(s) engaged",
        par.sims_run, wall_par, par.workers_engaged, par.threads
    );
    assert_eq!(json_seq, json_par, "parallel output must be byte-identical");
    if let Err(msg) = pool_gate("parallel", &par) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    // Optional worker sweep: throughput at 1/2/4/host workers, each point
    // byte-checked against the sequential baseline, which doubles as the
    // single-worker point. `speedup` is relative to it; `efficiency`
    // divides by the worker count.
    let mut scaling_json = String::from("[]");
    if scaling {
        let mut ns: Vec<usize> = vec![1, 2, 4, cpus];
        ns.sort_unstable();
        ns.dedup();
        let mut points = Vec::new();
        for &n in &ns {
            let (json_n, stats_n, wall_n) = if n == 1 {
                (json_seq.clone(), seq, wall_seq)
            } else {
                eprintln!("scaling sweep (jobs = {n})...");
                let (json, stats, wall, _) = run(&cell, &tech, n);
                (json, stats, wall)
            };
            assert_eq!(
                json_seq, json_n,
                "scaling sweep output must be byte-identical at jobs = {n}"
            );
            if let Err(msg) = pool_gate(&format!("scaling jobs = {n}"), &stats_n) {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
            let speedup = wall_seq / wall_n.max(1e-12);
            points.push(format!(
                concat!(
                    "{{\"jobs\": {}, \"threads\": {}, \"workers_engaged\": {}, ",
                    "\"wall_s\": {:.6}, \"sims_per_sec\": {:.1}, ",
                    "\"speedup\": {:.3}, \"efficiency\": {:.3}}}"
                ),
                n,
                stats_n.threads,
                stats_n.workers_engaged,
                wall_n,
                stats_n.sims_run as f64 / wall_n.max(1e-12),
                speedup,
                speedup / n as f64,
            ));
            eprintln!(
                "  jobs = {n}: {:.2} s, {:.1} sims/s, {} engaged",
                wall_n,
                stats_n.sims_run as f64 / wall_n.max(1e-12),
                stats_n.workers_engaged
            );
        }
        scaling_json = format!("[{}]", points.join(", "));
    }

    // Audit pass: the full physics-invariant sweep over every table must
    // come back clean on an untampered model, and must stay a rounding
    // error next to the characterization it guards (< 5% of wall-clock).
    let model = ProximityModel::from_json(&json_par).expect("bench model round-trips");
    let t0 = Instant::now();
    let audit_report = model.audit(&proxim_model::audit::AuditOptions::default());
    let wall_audit = t0.elapsed().as_secs_f64();
    let audit_pct = 100.0 * wall_audit / wall_par.max(1e-12);
    eprintln!(
        "audit: {} finding(s) in {:.4} s ({:.2}% of characterization)",
        audit_report.len(),
        wall_audit,
        audit_pct
    );
    if !audit_report.is_clean() {
        eprintln!(
            "audit gate FAILED: untampered model has findings, first: {}",
            audit_report.findings[0]
        );
        return ExitCode::FAILURE;
    }
    if audit_pct >= 5.0 {
        eprintln!("audit gate FAILED: {audit_pct:.2}% of characterization wall-time (limit 5%)");
        return ExitCode::FAILURE;
    }

    // Cache pass: cold miss then warm hit, in a scratch directory.
    let cache_root = std::env::temp_dir().join("proxim_bench_cache");
    let cache = ModelCache::new(&cache_root);
    cache.wipe().expect("cache wipe");
    let opts = CharacterizeOptions {
        jobs: threads,
        ..bench_opts()
    };
    let mut cold = CharStats::default();
    let t0 = Instant::now();
    cache
        .characterize(&cell, &tech, &opts, &mut cold)
        .expect("cold characterize");
    let wall_cold = t0.elapsed().as_secs_f64();
    let mut warm = CharStats::default();
    let t0 = Instant::now();
    cache
        .characterize(&cell, &tech, &opts, &mut warm)
        .expect("warm characterize");
    let wall_warm = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&cache_root).ok();
    eprintln!(
        "cache: cold {:.2} s ({} miss), warm {:.4} s ({} hit, {} sims)",
        wall_cold, cold.cache_misses, wall_warm, warm.cache_hits, warm.sims_run
    );

    let snap = obs::Registry::global().snapshot();
    let speedup = wall_seq / wall_par.max(1e-12);
    let report = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"characterize\",\n",
            "  \"cell\": \"nand2\",\n",
            "  \"host_cpus\": {},\n",
            "  \"parallel_limited\": {},\n",
            "  \"byte_identical\": true,\n",
            "  \"speedup\": {:.3},\n",
            "  \"sequential\": {},\n",
            "  \"parallel\": {},\n",
            "  \"scaling\": {},\n",
            "  \"cache_cold\": {},\n",
            "  \"cache_warm\": {},\n",
            "  \"audit\": {{\"findings\": {}, \"wall_s\": {:.6}, ",
            "\"pct_of_characterization\": {:.3}}},\n",
            "  \"histograms\": {}\n",
            "}}\n"
        ),
        cpus,
        parallel_limited,
        speedup,
        stats_json(
            &seq,
            wall_seq,
            &sequential_fields(work_seq, layers_seq, cpu_seq, cpu_sims)
        ),
        stats_json(&par, wall_par, ""),
        scaling_json,
        stats_json(&cold, wall_cold, ""),
        stats_json(&warm, wall_warm, ""),
        audit_report.len(),
        wall_audit,
        audit_pct,
        histograms_json(&snap),
    );
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{report}");
    eprintln!("{}", snap.render_summary());
    eprintln!("wrote {out} (speedup {speedup:.2}x on {threads} worker(s))");

    // Close out the trace with a final metrics record so the JSONL file is
    // self-describing, then gate (tracing skews timing, so only untraced
    // runs are compared against the committed baseline).
    obs::trace::emit_metrics(&snap);
    obs::sink::flush();
    // Re-reading the baseline now would see our own report; use the values
    // captured before the write.
    match work_gate(work_seq, baseline_work, &baseline) {
        Ok(msg) => eprintln!("{msg}"),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if trace_path.is_none() {
        match cpu_gate(cpu_per_sim, baseline_cpu, &baseline) {
            Ok(msg) => eprintln!("{msg}"),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
