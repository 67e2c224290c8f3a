//! proxbench: the end-to-end benchmark of proxim's three user paths.
//!
//! ```text
//! cargo run --release --manifest-path proxbench/Cargo.toml -- \
//!     --workload <characterize|serve_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run is a fixed number of cycles. Each cycle sets up afresh
//! (characterizes the workload's models, writes a model store and starts a
//! daemon on it, after stopping the previous one) and then runs its share
//! of the `--seconds` budget: a timed characterization on `characterize`,
//! an STA slice and a serving slice. Every path, set-up included, is thus
//! sampled across the whole run, and every run reports every end-to-end
//! metric of its own inputs. Outputs are checked, and the last line of
//! standard output is the result object. `--trace 1` adds a traced pass and
//! prints the per-layer metrics instead. See README.md.

mod charz;
mod host;
mod inputs;
mod report;
mod rng;
mod serve;
mod sta;

use charz::CharCost;
use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles per run. Each opens with a set-up, so `setup_s` (and, off
/// `characterize`, `char_*`) is a median over this many samples spread
/// across the run.
const CYCLES: usize = 8;
/// Table 5-1 configurations scored per run (the paper scored 100).
const POPULATION: usize = 600;
/// Seeded requests planned per connection (cycled).
const REQUESTS_PER_CONN: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Characterize,
    ServeCold,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "characterize" => Some(Self::Characterize),
            "serve_cold" => Some(Self::ServeCold),
            _ => None,
        }
    }

    /// The workload's shape.
    fn spec(self) -> Spec {
        match self {
            // Everything resident: the serving slices are warm.
            Self::Characterize => Spec {
                sta_share: 0.25,
                serve_share: 0.75,
                copies: 1,
                budget_entries: None,
                mix: inputs::Mix::Warm,
                connections: 2,
            },
            // Six cold entries cycle through a budget of 2.5 entries, so
            // every request misses.
            Self::ServeCold => Spec {
                sta_share: 0.3,
                serve_share: 0.7,
                copies: 2,
                budget_entries: Some(2.5),
                mix: inputs::Mix::Cold,
                connections: 1,
            },
        }
    }

    /// The models set-up characterizes: NAND2 (the STA cell), NAND3 (the
    /// scored cell off the `characterize` workload) and NOR2.
    fn setup_cells() -> Vec<(&'static str, Cell, CharacterizeOptions)> {
        vec![
            ("nand2", Cell::nand(2), CharacterizeOptions::fast()),
            ("nand3", Cell::nand(3), CharacterizeOptions::fast()),
            ("nor2", Cell::nor(2), CharacterizeOptions::fast()),
        ]
    }
}

/// One workload's shape: how the timed section is split and what the
/// daemon serves to whom.
struct Spec {
    /// Shares of the timed budget given to STA and serving slices. On
    /// `characterize` each cycle also holds one NAND3 medium
    /// characterization (~1.5 s on two vCPUs) besides them.
    sta_share: f64,
    serve_share: f64,
    /// Store copies per model.
    copies: usize,
    /// Library memory budget in mean entries (`None`: all resident).
    budget_entries: Option<f64>,
    mix: inputs::Mix,
    /// Closed-loop client connections.
    connections: usize,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("proxbench: {e}");
            eprintln!(
                "usage: proxbench --workload <characterize|serve_cold> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    // Scratch space stays inside the working directory.
    let root = PathBuf::from(".bench_run");
    let dir = root.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("proxbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root); // only if no other run is using it
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("proxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operation accounting across every stage of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// One set-up: the characterized models, what characterizing them cost,
/// and the daemon serving them.
struct Setup {
    models: Vec<(&'static str, Cell, CharacterizeOptions, ProximityModel)>,
    cost: CharCost,
    hashes: Vec<u64>,
    fixture: serve::Fixture,
}

fn set_up(w: Workload, dir: &Path, tech: &Technology) -> Result<Setup, String> {
    let mut models = Vec::new();
    let mut cost = CharCost::default();
    let mut hashes = Vec::new();
    for (name, cell, opts) in Workload::setup_cells() {
        let r = charz::characterize(&cell, tech, &opts).map_err(|e| format!("{name}: {e}"))?;
        cost.add(&r.cost);
        hashes.push(r.hash);
        models.push((name, cell, opts, r.model));
    }
    let spec = w.spec();
    let mut entries = Vec::new();
    for copy in 0..spec.copies {
        for (name, _, _, model) in &models {
            let name = if spec.copies > 1 {
                format!("{name}_{}", (b'a' + copy as u8) as char)
            } else {
                (*name).to_owned()
            };
            entries.push(serve::Entry {
                name,
                model: Arc::new(model.clone()),
            });
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let fixture = serve::Fixture::start(dir, entries, spec.budget_entries)
        .map_err(|e| format!("daemon start: {e}"))?;
    Ok(Setup {
        models,
        cost,
        hashes,
        fixture,
    })
}

/// The set-ups of one run: the one running now, and what every set-up so
/// far cost. Each set-up is stopped and dropped before the next starts, so
/// every set-up runs alone and the peak footprint is one set-up's.
struct Setups<'d> {
    workload: Workload,
    dir: &'d Path,
    current: Option<Setup>,
    /// Wall seconds of each set-up.
    setup_s: Vec<f64>,
    /// What characterizing each set-up's models cost.
    chars: Vec<CharCost>,
    /// The first set-up's model hashes.
    hashes: Vec<u64>,
    /// Models built, and models not byte-identical to the first set-up's.
    built: usize,
    mismatched: usize,
}

impl<'d> Setups<'d> {
    /// Times the run's first set-up.
    fn start(workload: Workload, dir: &'d Path, tech: &Technology) -> Result<Self, String> {
        let mut s = Self {
            workload,
            dir,
            current: None,
            setup_s: Vec::new(),
            chars: Vec::new(),
            hashes: Vec::new(),
            built: 0,
            mismatched: 0,
        };
        s.renew(tech)?;
        Ok(s)
    }

    /// Stops the running set-up and times a fresh one.
    fn renew(&mut self, tech: &Technology) -> Result<(), String> {
        self.stop();
        let t0 = Instant::now();
        let dir = self.dir.join(format!("rep{}", self.setup_s.len()));
        let s = set_up(self.workload, &dir, tech)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        // Characterization is deterministic: every set-up must build
        // byte-identical models.
        if self.hashes.is_empty() {
            self.hashes.clone_from(&s.hashes);
        }
        self.built += s.hashes.len();
        if s.hashes != self.hashes {
            self.mismatched += s.hashes.len();
        }
        self.chars.push(s.cost);
        self.current = Some(s);
        Ok(())
    }

    fn current(&self) -> &Setup {
        self.current.as_ref().expect("a set-up is running")
    }

    /// Drains and joins the running set-up's daemon, if any.
    fn stop(&mut self) {
        if let Some(s) = self.current.take() {
            s.fixture.stop();
        }
    }
}

/// The model scored against the reference simulator, with the options it
/// was characterized at.
struct Scored {
    model: ProximityModel,
    opts: CharacterizeOptions,
}

/// What one timed section measured.
struct Timed {
    /// The timed NAND3 characterizations (`characterize` only).
    char_runs: Vec<charz::CharRun>,
    sta: sta::StaResult,
    serve: serve::ServeResult,
}

/// The timed section: [`CYCLES`] cycles, each of a fresh set-up (when
/// `resetup`; the first cycle uses the running one), one characterization
/// (on `characterize` only), one STA slice and one serving slice. Every
/// path is sampled across the whole section, so a stretch of host
/// contention cannot land on all of one path's measurement.
#[allow(clippy::too_many_arguments)]
fn timed_section(
    args: &Args,
    setups: &mut Setups<'_>,
    resetup: bool,
    sta_bench: &sta::StaBench,
    plans: &[serve::ConnPlan],
    tech: &Technology,
    traced: bool,
) -> Result<Timed, String> {
    let w = args.workload;
    let Spec {
        sta_share,
        serve_share,
        ..
    } = w.spec();
    let slice = |f: f64| Duration::from_secs_f64(args.seconds * f / CYCLES as f64);
    let (nand3, medium) = (Cell::nand(3), CharacterizeOptions::medium());
    let mut char_runs = Vec::new();
    let mut sta = sta_bench.result();
    let mut session = serve::Session::new(plans, traced);
    for k in 0..CYCLES {
        if resetup && k > 0 {
            setups.renew(tech)?;
        }
        if w == Workload::Characterize {
            char_runs.push(
                charz::characterize(&nand3, tech, &medium).map_err(|e| format!("nand3: {e}"))?,
            );
        }
        sta_bench.run(slice(sta_share), &mut sta);
        session
            .slice(&setups.current().fixture, slice(serve_share))
            .map_err(|e| format!("connect to the daemon: {e}"))?;
    }
    Ok(Timed {
        char_runs,
        sta,
        serve: session.finish(&setups.current().fixture.entries),
    })
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let tech = Technology::demo_5v();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let calib_start = host::calib_ms();

    let mut setups = Setups::start(w, dir, &tech)?;
    let first = setups.current();
    for ((name, ..), hash) in first.models.iter().zip(&first.hashes) {
        println!("model_hash {name}={hash:016x}");
    }
    let sta_bench = sta::StaBench::new(first.models[0].3.clone(), args.seed);
    let plans = serve::plan(
        &first.fixture,
        args.seed,
        w.spec().connections,
        REQUESTS_PER_CONN,
        w.spec().mix,
    );

    let timed = timed_section(args, &mut setups, true, &sta_bench, &plans, &tech, false)?;
    let calib_end = host::calib_ms();

    // ---- end-to-end metrics and checks, outside the timed section ----
    m.set("setup_s", host::median(&mut setups.setup_s.clone()));
    tally.add(setups.built, setups.mismatched);
    let chars = if timed.char_runs.is_empty() {
        setups.chars.clone()
    } else {
        let hash = timed.char_runs[0].hash;
        let mismatched = timed.char_runs.iter().filter(|r| r.hash != hash).count();
        tally.add(timed.char_runs.len(), mismatched);
        println!("model_hash nand3_medium={hash:016x}");
        timed.char_runs.iter().map(|r| r.cost).collect()
    };
    m.set("char_wall_s", median_of(&chars, |c| c.wall_s));
    m.set("char_cpu_s", median_of(&chars, |c| c.cpu_s));

    // The scored model: the timed NAND3 on `characterize`, the set-up's
    // NAND3 elsewhere.
    let scored = match timed.char_runs.last() {
        Some(r) => Scored {
            model: r.model.clone(),
            opts: CharacterizeOptions::medium(),
        },
        None => {
            let (_, _, opts, model) = &setups.current().models[1];
            Scored {
                model: model.clone(),
                opts: opts.clone(),
            }
        }
    };
    let pop = inputs::population(args.seed, POPULATION);
    let acc = charz::score(&scored.model, scored.model.cell(), &tech, &pop, 2);
    tally.add(acc.scored, acc.failed);
    m.set("delay_err_rms_pct", acc.delay_rms_pct);
    m.set("trans_err_rms_pct", acc.trans_rms_pct);
    m.set("delay_err_max_pct", acc.delay_max_pct);

    tally.add(timed.sta.runs, timed.sta.failed);
    let (gates_checked, gates_failed) = sta_bench.check();
    tally.add(gates_checked, gates_failed);
    m.set("sta_gates_per_s", timed.sta.gates_per_s());

    let sv = &timed.serve;
    tally.add(sv.answers.max(1), sv.failed);
    m.set("query_p50_us", sv.p50_us);
    m.set("query_p90_us", sv.p90_us);
    m.set("queries_per_s", sv.answers_per_s);
    m.set("cpu_us_per_query", sv.cpu_us_per_answer);
    m.set("peak_rss_mb", host::peak_rss_mb());
    println!(
        "host.calib_ms start={calib_start:.3} end={calib_end:.3} cpus={} serving_cpu={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        setups
            .current()
            .fixture
            .cpu()
            .map_or_else(|| "any".to_owned(), |c| c.to_string())
    );

    let catalogue = if args.trace {
        let untraced = Untraced {
            chars: &chars,
            timed: &timed,
        };
        traced(
            args,
            &mut setups,
            &scored,
            &sta_bench,
            &plans,
            &untraced,
            &mut m,
            &mut tally,
        )?;
        m.set("host.calib_ms", 0.5 * (calib_start + calib_end));
        m.set(
            "host.calib_drift_pct",
            (calib_end / calib_start - 1.0) * 100.0,
        );
        PER_LAYER
    } else {
        END_TO_END
    };
    setups.stop();
    report::result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        &m,
        catalogue,
    )
}

fn median_of(chars: &[CharCost], f: fn(&CharCost) -> f64) -> f64 {
    host::median(&mut chars.iter().map(f).collect::<Vec<_>>())
}

/// The untraced figures the traced pass reconciles against. `chars` are
/// the timed NAND3 runs on `characterize` and the set-ups'
/// characterizations elsewhere.
struct Untraced<'a> {
    chars: &'a [CharCost],
    timed: &'a Timed,
}

/// The traced pass: the `obs` registry on, the timed section repeated with
/// every response's breakdown parsed, per-call timings of each layer taken
/// from this side of the public API, and the ledger reconciliation against
/// the untraced figures.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    setups: &mut Setups<'_>,
    scored: &Scored,
    sta_bench: &sta::StaBench,
    plans: &[serve::ConnPlan],
    untraced: &Untraced<'_>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = args.workload;
    let tech = Technology::demo_5v();
    proxim_obs::set_level(proxim_obs::Level::Metrics);
    let registry = proxim_obs::Registry::global();
    let before = registry.snapshot();
    // The traced section keeps the running set-up: the set-ups' own
    // characterization is traced below, apart from the timed ones.
    let t = timed_section(args, setups, false, sta_bench, plans, &tech, true)?;
    let setup = setups.current();
    // Off `characterize`, the characterization work is the set-up's:
    // repeat it once with the registry on.
    let mut traced_chars: Vec<CharCost> = t.char_runs.iter().map(|r| r.cost).collect();
    if traced_chars.is_empty() {
        let mut cost = CharCost::default();
        for (_, cell, opts, _) in &setup.models {
            cost.add(
                &charz::characterize(cell, &tech, opts)
                    .map_err(|e| e.to_string())?
                    .cost,
            );
        }
        traced_chars.push(cost);
    }
    let mut layers = charz::CharLayers::from_runs(untraced.chars);
    layers.add_registry(&before, &registry.snapshot(), traced_chars.len());
    proxim_obs::set_level(proxim_obs::Level::Off);
    tally.add(t.sta.runs, t.sta.failed);
    tally.add(t.serve.answers.max(1), t.serve.failed);

    // Characterization.
    let mut residual: Vec<f64> = untraced
        .chars
        .iter()
        .map(|c| (c.wall_s - c.stats.phases.total()) / c.wall_s)
        .collect();
    for (name, v) in [
        ("model.jobs.phase_vtc_s", layers.phases[0]),
        ("model.jobs.phase_singles_s", layers.phases[1]),
        ("model.jobs.phase_pairs_s", layers.phases[2]),
        ("model.jobs.phase_finish_s", layers.phases[3]),
        ("model.jobs.workers_engaged", layers.workers_engaged),
        ("model.jobs.sims_run", layers.sims_run),
        ("model.jobs.failed", layers.failed),
        (
            "spice.newton_iters_per_solve_mean",
            layers.newton_iters_mean,
        ),
        ("spice.lu.static_share", layers.lu_static_share),
        ("spice.batch.active_lane_share", layers.active_lane_share),
        ("spice.batch.evictions", layers.evictions),
        ("char.residual_share", host::median(&mut residual)),
        (
            "spice.tran_us_per_sim",
            charz::tran_us_per_sim(
                &scored.model,
                scored.model.cell(),
                &tech,
                &scored.opts,
                args.seed,
            ),
        ),
        ("model.audit_ms", charz::audit_ms(&scored.model)),
    ] {
        m.set(name, v);
    }

    // STA.
    let sl = sta_bench.layers();
    m.set(
        "sta.run_us_per_vector",
        untraced.timed.sta.run_us_per_vector(),
    );
    m.set("sta.topo_order_us", sl.topo_order_us);
    m.set(
        "sta.switching_gates_per_vector",
        sl.switching_gates_per_vector,
    );
    m.set("sta.multi_input_share", sl.multi_input_share);
    m.set("model.gate_timing_ns", sl.gate_timing_ns);

    // Serving: the traced session's echoed phases, and the in-process
    // layers on the same requests and entries.
    let sv = &t.serve;
    let lay = serve::layers(&setup.fixture, &plans[0]);
    let traced_phases =
        sv.admit_us_p50() + sv.queue_us(0.5) + sv.execute_us_p50() + lay.parse_us + lay.render_us;
    let untraced_cpu_per_q = untraced.timed.serve.cpu_us_per_answer;
    for (name, v) in [
        ("model.gate_timing_query_ns", lay.gate_timing_ns),
        (
            "model.gate_timing_share_of_query_cpu",
            lay.gate_timing_ns * 1e-3 / untraced_cpu_per_q,
        ),
        ("serve.server.admit_us_p50", sv.admit_us_p50()),
        ("serve.server.queue_wait_us_p50", sv.queue_us(0.5)),
        ("serve.server.queue_wait_us_p90", sv.queue_us(0.9)),
        ("serve.server.execute_us_p50", sv.execute_us_p50()),
        ("serve.proto.parse_us", lay.parse_us),
        ("serve.proto.render_us", lay.render_us),
        ("serve.library.acquire_warm_us", lay.acquire_warm_us),
        ("serve.residual_us_p50", sv.p50_us - traced_phases),
        (
            "serve.residual_share",
            (sv.p50_us - traced_phases) / sv.p50_us,
        ),
        (
            "serve.library.cold_miss_share",
            sv.cold_misses / sv.requests.max(1.0),
        ),
        ("serve.library.evictions", sv.evictions),
        ("serve.library.singleflight_waits", sv.singleflight_waits),
        ("serve.library.load_us_p50", sv.load_us_p50()),
        ("serve.store.load_us", lay.store_load_us),
        ("serve.store.read_us", lay.store_read_us),
        ("model.persist.from_json_us", lay.from_json_us),
        ("model.validate_us", lay.validate_us),
        ("serve.store.entry_bytes", lay.entry_bytes),
        ("serve.requests", sv.requests),
        ("serve.shed", sv.shed),
        ("serve.errors", sv.errors),
        ("serve.e2e_p99_us", sv.latency_us(0.99)),
        ("serve.e2e_samples", sv.latencies_us.len() as f64),
    ] {
        m.set(name, v);
    }

    // Tracing overhead, on the workload's own primary figure.
    let overhead = match w {
        Workload::Characterize => {
            median_of(&traced_chars, |c| c.cpu_s) / median_of(untraced.chars, |c| c.cpu_s) - 1.0
        }
        Workload::ServeCold => sv.cpu_us_per_answer / untraced_cpu_per_q - 1.0,
    };
    m.set("obs.trace_overhead_pct", overhead * 100.0);
    Ok(())
}
