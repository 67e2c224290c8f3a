//! The characterization path: timing `ProximityModel::characterize`,
//! scoring a model against the reference simulator over the Table 5-1
//! population, and the characterization layers' traced numbers.

use crate::host;
use crate::inputs::{self, Config};
use proxim_cells::{Cell, Technology};
use proxim_model::characterize::{CharacterizeOptions, Simulator};
use proxim_model::jobs::CharStats;
use proxim_model::persist::fnv1a_64;
use proxim_model::{AuditOptions, InputEvent, ModelError, ProximityModel};
use proxim_numeric::pwl::Edge;
use proxim_obs::batch_metrics as bm;
use std::hint::black_box;
use std::time::Instant;

/// What characterization work cost: wall and process CPU seconds, and the
/// pipeline's own telemetry (phase wall times, sims, workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct CharCost {
    /// Wall seconds of `characterize_with_stats`.
    pub wall_s: f64,
    /// Process CPU seconds over the same call.
    pub cpu_s: f64,
    /// The pipeline's telemetry.
    pub stats: CharStats,
}

impl CharCost {
    /// Adds another characterization's cost (several cells in one set-up).
    pub fn add(&mut self, other: &Self) {
        let (t, o) = (&mut self.stats, &other.stats);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        t.sims_run += o.sims_run;
        t.failed_jobs += o.failed_jobs;
        t.workers_engaged = t.workers_engaged.max(o.workers_engaged);
        t.phases.vtc += o.phases.vtc;
        t.phases.singles += o.phases.singles;
        t.phases.pairs += o.phases.pairs;
        t.phases.finish += o.phases.finish;
    }
}

/// One timed characterization.
pub struct CharRun {
    /// The model produced.
    pub model: ProximityModel,
    /// What it cost.
    pub cost: CharCost,
    /// `fnv1a_64` of the model's JSON: identical on every run of a commit.
    pub hash: u64,
}

/// Characterizes `cell`, reading the clock and `/proc` CPU only around the
/// call; the content hash is taken afterwards.
pub fn characterize(
    cell: &Cell,
    tech: &Technology,
    opts: &CharacterizeOptions,
) -> Result<CharRun, ModelError> {
    let cpu0 = host::cpu_s();
    let t0 = Instant::now();
    let (model, stats) = ProximityModel::characterize_with_stats(cell, tech, opts)?;
    let cost = CharCost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_s() - cpu0,
        stats,
    };
    let hash = fnv1a_64(model.to_json()?.as_bytes());
    Ok(CharRun { model, cost, hash })
}

/// The reference simulator the model is scored against: the model's own
/// thresholds and reference load at 0.6 × its `dv_max`, the paper's
/// HSPICE stand-in (as `proxim-bench`'s experiment environment builds it).
fn reference_simulator<'a>(
    model: &ProximityModel,
    cell: &'a Cell,
    tech: &'a Technology,
) -> Simulator<'a> {
    Simulator::new(
        cell,
        tech,
        *model.thresholds(),
        model.reference_load(),
        (model.dv_max() * 0.6).max(0.02),
    )
}

/// The three falling input events of a configuration, placed so `s_ab` and
/// `s_ac` are exact threshold-crossing separations (§5).
fn events_for(model: &ProximityModel, cfg: &Config) -> [InputEvent; 3] {
    let th = model.thresholds();
    let a = InputEvent::new(0, Edge::Falling, 0.0, cfg.tau[0]);
    let arrival_a = a.arrival(th);
    let place = |pin: usize, tau: f64, s: f64| {
        let own = InputEvent::new(pin, Edge::Falling, 0.0, tau).arrival(th);
        InputEvent::new(pin, Edge::Falling, arrival_a + s - own, tau)
    };
    [
        a,
        place(1, cfg.tau[1], cfg.s_ab),
        place(2, cfg.tau[2], cfg.s_ac),
    ]
}

/// Model-versus-reference error statistics over a population.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// RMS delay error, percent.
    pub delay_rms_pct: f64,
    /// RMS output-transition error, percent.
    pub trans_rms_pct: f64,
    /// Worst absolute delay error, percent.
    pub delay_max_pct: f64,
    /// Configurations scored.
    pub scored: usize,
    /// Configurations where the model or the reference failed.
    pub failed: usize,
}

/// Scores a NAND3 model against the reference simulator over `pop`, split
/// across `threads` workers. Deterministic for a given model and population.
pub fn score(
    model: &ProximityModel,
    cell: &Cell,
    tech: &Technology,
    pop: &[Config],
    threads: usize,
) -> Accuracy {
    let chunk = pop.len().div_ceil(threads.max(1)).max(1);
    let errors: Vec<Option<(f64, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = pop
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let sim = reference_simulator(model, cell, tech);
                    part.iter()
                        .map(|cfg| compare(model, &sim, cfg))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoring thread panicked"))
            .collect()
    });
    // Sorted, so the sums do not depend on the order the seed chose.
    let mut ok: Vec<(f64, f64)> = errors.iter().flatten().copied().collect();
    ok.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let rms = |f: fn(&(f64, f64)) -> f64| {
        (ok.iter().map(|e| f(e).powi(2)).sum::<f64>() / ok.len().max(1) as f64).sqrt()
    };
    Accuracy {
        delay_rms_pct: rms(|e| e.0),
        trans_rms_pct: rms(|e| e.1),
        delay_max_pct: ok.iter().map(|e| e.0.abs()).fold(0.0, f64::max),
        scored: errors.len(),
        failed: errors.len() - ok.len(),
    }
}

/// Percent delay and transition errors of one configuration; `None` when
/// the model or the reference fails on it.
fn compare(model: &ProximityModel, sim: &Simulator<'_>, cfg: &Config) -> Option<(f64, f64)> {
    let th = model.thresholds();
    let events = events_for(model, cfg);
    let predicted = model.gate_timing(&events).ok()?;
    let r = sim.simulate(&events).ok()?;
    let k_ref = events
        .iter()
        .position(|e| e.pin == predicted.reference_pin)?;
    let delay = r.delay_from(k_ref, th).ok()?;
    let trans = r.transition_time(th).ok()?;
    Some((
        (predicted.delay - delay) / delay * 100.0,
        (predicted.output_transition - trans) / trans * 100.0,
    ))
}

/// Per-layer numbers of the characterization path.
#[derive(Debug, Clone, Default)]
pub struct CharLayers {
    /// Median phase wall seconds: vtc, singles, pairs, finish.
    pub phases: [f64; 4],
    /// Pool workers that claimed work.
    pub workers_engaged: f64,
    /// Transient simulations per characterization.
    pub sims_run: f64,
    /// Jobs that failed per characterization.
    pub failed: f64,
    /// Mean Newton iterations per converged solve.
    pub newton_iters_mean: f64,
    /// Static-order LU solves ÷ (static solves + dense fallbacks).
    pub lu_static_share: f64,
    /// Mean active lanes per batch round ÷ mean lanes per batch.
    pub active_lane_share: f64,
    /// Batch lanes evicted to the scalar kernel, per characterization.
    pub evictions: f64,
}

impl CharLayers {
    /// Phase and pool numbers from the untraced runs (median phases).
    pub fn from_runs(runs: &[CharCost]) -> Self {
        let mut phases = [0.0; 4];
        for (i, p) in phases.iter_mut().enumerate() {
            let mut xs: Vec<f64> = runs
                .iter()
                .map(|c| {
                    let t = c.stats.phases;
                    [t.vtc, t.singles, t.pairs, t.finish][i]
                })
                .collect();
            *p = host::median(&mut xs);
        }
        let first = runs.first().map(|c| c.stats).unwrap_or_default();
        Self {
            phases,
            workers_engaged: first.workers_engaged as f64,
            sims_run: first.sims_run as f64,
            failed: first.failed_jobs as f64,
            ..Self::default()
        }
    }

    /// Adds the work counters the `obs` global registry booked between two
    /// snapshots taken around `runs` traced characterizations.
    pub fn add_registry(
        &mut self,
        before: &proxim_obs::Snapshot,
        after: &proxim_obs::Snapshot,
        runs: usize,
    ) {
        let counter = |n: &str| after.counter(n).saturating_sub(before.counter(n)) as f64;
        let hist = |n: &str| {
            let (c1, s1) = after.histogram(n).map_or((0, 0.0), |h| (h.count, h.sum));
            let (c0, s0) = before.histogram(n).map_or((0, 0.0), |h| (h.count, h.sum));
            (c1.saturating_sub(c0) as f64, s1 - s0)
        };
        let (solves, iters) = hist("spice.tran.newton_iters_per_solve");
        self.newton_iters_mean = iters / solves.max(1.0);
        let st = counter("spice.lu.static_solves");
        let fb = counter("spice.lu.static_fallbacks");
        self.lu_static_share = st / (st + fb).max(1.0);
        let (rounds, active) = hist(bm::ACTIVE_LANES);
        let (groups, lanes) = hist(bm::LANES);
        self.active_lane_share = if rounds > 0.0 && lanes > 0.0 {
            (active / rounds) / (lanes / groups)
        } else {
            0.0
        };
        self.evictions = counter(bm::EVICTIONS) / runs.max(1) as f64;
    }
}

/// Microseconds per transient simulation at one worker, at the
/// characterization simulator's settings, over 16 pair stimuli: the a–b
/// pairs of Table 5-1 configurations, in seeded order.
pub fn tran_us_per_sim(
    model: &ProximityModel,
    cell: &Cell,
    tech: &Technology,
    opts: &CharacterizeOptions,
    seed: u64,
) -> f64 {
    let sim = Simulator::new(cell, tech, *model.thresholds(), opts.c_load, opts.dv_max);
    let pairs: Vec<[InputEvent; 2]> = inputs::population(seed, 16)
        .iter()
        .map(|c| {
            let e = events_for(model, c);
            [e[0], e[1]]
        })
        .collect();
    let mut i = 0;
    host::per_call_us(1, 0.3, || {
        black_box(sim.simulate(&pairs[i % pairs.len()]).ok());
        i += 1;
    })
}

/// Milliseconds per `audit` of `model` with default options.
pub fn audit_ms(model: &ProximityModel) -> f64 {
    let opts = AuditOptions::default();
    host::per_call_us(1, 0.2, || {
        black_box(model.audit(&opts));
    }) / 1e3
}
