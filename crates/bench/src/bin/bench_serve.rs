//! Benchmarks the `proxim-serve` daemon end to end over its Unix socket and
//! emits `BENCH_serve.json`.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--out PATH] [--requests N]
//! ```
//!
//! `--requests` sets how many requests each latency level runs (default
//! 131 072, over a second per level on a 2-CPU host).
//!
//! Two measurements, both against an in-process [`Server`] with a real
//! socket (so framing, admission, and the in-flight permits are all on the
//! measured path):
//!
//! 1. **Latency/throughput** — closed-loop clients at 1, 8, and 64
//!    concurrent connections, each issuing single-query requests against a
//!    fast-grid NAND2 model and waiting for the response before sending the
//!    next. Reports p50/p90/p99 latency and aggregate qps per concurrency
//!    level; the 1-client level runs as three equal sub-runs and reports
//!    the median p50 and p90 beside each sub-run's values. The server is
//!    sized (queue ≥ client count, generous deadline) so nothing is shed —
//!    this measures the happy path.
//! 2. **Overload** — a deliberately starved server (one permit with an
//!    artificial per-request stall, a tiny wait line) under 64 closed-loop
//!    clients. Reports the shed rate and cross-checks the client-observed
//!    counts against the server's own `serve.requests` / `serve.shed`
//!    counters: every request must be either answered or shed typed —
//!    never dropped.
//!
//! Latencies are wall-clock microseconds measured around one
//! request/response round trip ([`proto::call`]), permit wait included.
//! Each response also carries the server's per-phase breakdown
//! (`admit_us`/`queue_us`/`execute_us`), which the bench cross-checks
//! against the client-observed end-to-end time — the server cannot claim
//! more phase time than the client measured — and reports as p50/p99 per
//! phase. A third section measures the cost of tracing itself: nine
//! traced-off/traced-on run pairs against one server, flipped at runtime
//! through the `obs` protocol op, with the shipped observability config on
//! the traced side (level=trace, head-sampling every 16th request into a
//! JSONL sink, flight ring armed). The gate compares total process CPU
//! across all traced-on runs against all traced-off runs — wall-clock
//! qps is reported but too noisy to gate on a shared box — and fails if
//! tracing costs more than 5% on each of up to three from-scratch
//! measurement attempts; a real regression is sustained and trips all of
//! them, co-tenant interference moves on
//! (`PROXIM_SERVE_TRACE_TOLERANCE` overrides the percentage,
//! `PROXIM_BENCH_NO_GATE` set to anything but empty or `0` skips the
//! assert).
//!
//! Two lifecycle sections follow: **reload latency** — p50/p99 of the
//! load-validate-swap cycle, measured while 8 closed-loop clients keep
//! querying (none of which may shed or error during the storm) — and
//! **eviction churn** — round-robin queries over a model set 2.4x the
//! configured memory budget, reporting the cold-miss penalty (cold vs
//! warm end-to-end p50, plus the pure store-load component the server
//! echoes as `load_us`).

use proxim_bench::process_cpu_s;
use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use proxim_obs::json::Json;
use proxim_obs::serve_metrics as sm;
use proxim_obs::{flight, sink};
use proxim_serve::client::RetryPolicy;
use proxim_serve::proto;
use proxim_serve::{
    FleetClient, FleetClientOptions, LibraryOptions, ModelLibrary, ModelStore, ServeOptions, Server,
};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model name used for every query; must satisfy the store's name rules.
const MODEL: &str = "nand2_demo";

/// One single-query request: a rising proximity pair on the NAND2 inputs,
/// 50 ps apart — the paper's bread-and-butter query shape.
fn request_json() -> String {
    format!(
        concat!(
            "{{\"op\":\"query\",\"model\":\"{}\",\"events\":[",
            "{{\"pin\":0,\"edge\":\"rise\",\"t\":0.0,\"tt\":4e-10}},",
            "{{\"pin\":1,\"edge\":\"rise\",\"t\":5e-11,\"tt\":4e-10}}]}}"
        ),
        MODEL
    )
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Fresh scratch directory under the system temp dir.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One answered request: client-observed end-to-end plus the server's
/// phase breakdown, all in microseconds.
#[derive(Clone, Copy)]
struct Sample {
    e2e_us: f64,
    admit_us: f64,
    queue_us: f64,
    execute_us: f64,
}

/// Pulls the `breakdown` object out of a success response. Every traced
/// response carries one; a missing or malformed breakdown is a protocol
/// regression the bench should surface loudly.
fn parse_breakdown(response: &str) -> (f64, f64, f64) {
    let json = Json::parse(response).expect("bench response must parse as JSON");
    let b = json
        .get("breakdown")
        .expect("success response must carry a breakdown");
    let field = |k: &str| {
        b.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("breakdown missing {k}"))
    };
    (field("admit_us"), field("queue_us"), field("execute_us"))
}

/// What one closed-loop client run produced.
struct LoadResult {
    /// Per-request end-to-end + phase samples; answered requests only.
    samples: Vec<Sample>,
    answered: u64,
    shed: u64,
    other: u64,
    wall_s: f64,
    /// Process CPU seconds (user + system, every thread — server, clients,
    /// and the trace flusher all run in this process) consumed by the run.
    cpu_s: f64,
}

impl LoadResult {
    /// Answered-request end-to-end latencies, seconds (the historical
    /// latency column of the report).
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.e2e_us * 1e-6).collect()
    }
}

/// Runs `clients` closed-loop connections, `per_client` requests each.
fn run_load(socket: &Path, clients: usize, per_client: usize) -> LoadResult {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<Sample>, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = UnixStream::connect(socket).expect("connect to bench server");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("set read timeout");
                    let request = request_json();
                    let mut samples = Vec::with_capacity(per_client);
                    let (mut answered, mut shed, mut other) = (0u64, 0u64, 0u64);
                    for _ in 0..per_client {
                        let start = Instant::now();
                        let response = proto::call(&mut stream, &request)
                            .expect("bench round trip must not fail at the transport layer");
                        let elapsed = start.elapsed().as_secs_f64();
                        if response.contains("\"ok\":true") {
                            answered += 1;
                            let (admit_us, queue_us, execute_us) = parse_breakdown(&response);
                            samples.push(Sample {
                                e2e_us: elapsed * 1e6,
                                admit_us,
                                queue_us,
                                execute_us,
                            });
                        } else if response.contains("\"overloaded\"") {
                            shed += 1;
                        } else {
                            other += 1;
                        }
                    }
                    (samples, answered, shed, other)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = LoadResult {
        samples: Vec::new(),
        answered: 0,
        shed: 0,
        other: 0,
        wall_s,
        cpu_s: process_cpu_s() - cpu0,
    };
    for (samples, answered, shed, other) in per_thread {
        out.samples.extend(samples);
        out.answered += answered;
        out.shed += shed;
        out.other += other;
    }
    // The server's phases are sub-intervals of the client's round trip, so
    // their sum can never exceed what the client measured (the phase
    // clocks all start inside the e2e window). A small per-request slack
    // absorbs integer-microsecond truncation on each phase.
    for s in &out.samples {
        let phase_sum = s.admit_us + s.queue_us + s.execute_us;
        assert!(
            phase_sum <= s.e2e_us + 10.0,
            "phase sum {phase_sum:.1}us exceeds client e2e {:.1}us",
            s.e2e_us
        );
    }
    out
}

/// Nearest-rank percentile over an already-sorted sample, seconds.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentiles over an unsorted microsecond sample.
fn phase_percentiles(mut us: Vec<f64>) -> (f64, f64) {
    us.sort_by(|a, b| a.partial_cmp(b).expect("phase samples are finite"));
    (percentile(&us, 0.50), percentile(&us, 0.99))
}

/// The per-phase latency section: admit/queue-wait/execute come from the
/// breakdowns echoed in responses, write from the server's own histogram
/// (a response cannot carry the duration of its own write).
fn phases_json(samples: &[Sample], snap: &proxim_obs::metrics::Snapshot) -> String {
    let (admit50, admit99) = phase_percentiles(samples.iter().map(|s| s.admit_us).collect());
    let (queue50, queue99) = phase_percentiles(samples.iter().map(|s| s.queue_us).collect());
    let (exec50, exec99) = phase_percentiles(samples.iter().map(|s| s.execute_us).collect());
    let write = snap.histogram(sm::PHASE_WRITE_SECONDS);
    let (write50, write99) = write.map_or((0.0, 0.0), |h| {
        (h.quantile(0.50) * 1e6, h.quantile(0.99) * 1e6)
    });
    format!(
        concat!(
            "{{\"admit\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}, ",
            "\"queue_wait\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}, ",
            "\"execute\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}, ",
            "\"write\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}}}"
        ),
        admit50, admit99, queue50, queue99, exec50, exec99, write50, write99,
    )
}

/// Sub-runs the 1-client latency level is split into. One closed-loop
/// client's latency is bimodal from run to run — it depends on where the
/// client and connection threads land on the CPUs — so that level reports
/// the median of three equal sub-runs, and lists each.
const C1_SUB_RUNS: usize = 3;

/// One latency section of the report, over the sub-runs of one level:
/// `p50_us` and `p90_us` are medians of the sub-runs' values, `p99_us` and
/// `max_us` come from all samples pooled, and `qps` from the summed wall
/// time. Levels with several sub-runs list them under `"runs"`.
fn latency_json(clients: usize, runs: &[LoadResult]) -> String {
    let sorted_latencies = |r: &LoadResult| {
        let mut v = r.latencies();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        v
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("percentiles are finite"));
        v[v.len() / 2]
    };
    let per_run: Vec<(f64, f64, f64)> = runs
        .iter()
        .map(|r| {
            let sorted = sorted_latencies(r);
            (
                percentile(&sorted, 0.50) * 1e6,
                percentile(&sorted, 0.90) * 1e6,
                r.wall_s,
            )
        })
        .collect();
    let mut pooled: Vec<f64> = runs.iter().flat_map(LoadResult::latencies).collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let requests: u64 = runs.iter().map(|r| r.answered + r.shed + r.other).sum();
    let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let listed = if runs.len() > 1 {
        let items: Vec<String> = per_run
            .iter()
            .map(|(p50, p90, wall)| {
                format!("{{\"p50_us\": {p50:.1}, \"p90_us\": {p90:.1}, \"wall_s\": {wall:.6}}}")
            })
            .collect();
        format!(", \"runs\": [{}]", items.join(", "))
    } else {
        String::new()
    };
    format!(
        concat!(
            "{{\"clients\": {}, \"requests\": {}, \"wall_s\": {:.6}, ",
            "\"qps\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, ",
            "\"p99_us\": {:.1}, \"max_us\": {:.1}{}}}"
        ),
        clients,
        requests,
        wall_s,
        requests as f64 / wall_s.max(1e-12),
        median(per_run.iter().map(|r| r.0).collect()),
        median(per_run.iter().map(|r| r.1).collect()),
        percentile(&pooled, 0.99) * 1e6,
        pooled.last().copied().unwrap_or(0.0) * 1e6,
        listed,
    )
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_serve.json");
    // Requests per concurrency level: at the 30–100 k qps this bench sees
    // on a 2-CPU host, every level runs for over a second, long enough
    // that its percentiles are not set by a few scheduler hiccups.
    let mut per_client_base = 131_072usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = args.next().expect("--out requires a path");
            }
            "--requests" => {
                per_client_base = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests requires a count");
            }
            other => {
                eprintln!("bench_serve: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    // One characterization feeds both servers through the same store.
    let scratch = scratch_dir();
    let store = ModelStore::new(scratch.join("store"));
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    let model = ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
        .expect("bench characterization must succeed");
    store.save(MODEL, &model).expect("seed bench store");

    // --- happy-path latency/throughput at 1 / 8 / 64 clients -------------
    let workers = host_cpus().clamp(2, 8);
    let socket = scratch.join("bench.sock");
    let server = Server::start(
        ModelLibrary::open(&store),
        &socket,
        ServeOptions {
            workers,
            queue_capacity: 256,
            request_deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("start bench server");

    let mut latency_sections = Vec::new();
    let mut all_samples: Vec<Sample> = Vec::new();
    for clients in [1usize, 8, 64] {
        // Same total request count per level, so qps numbers are comparable.
        let per_client = (per_client_base / clients).max(8);
        let sub_runs = if clients == 1 { C1_SUB_RUNS } else { 1 };
        let mut runs = Vec::with_capacity(sub_runs);
        for _ in 0..sub_runs {
            let r = run_load(&socket, clients, per_client.div_ceil(sub_runs));
            assert_eq!(
                r.shed + r.other,
                0,
                "happy-path run must not shed or error (shed={}, other={})",
                r.shed,
                r.other
            );
            println!(
                "latency: clients={clients} requests={} wall={:.3}s qps={:.0}",
                r.answered,
                r.wall_s,
                r.answered as f64 / r.wall_s.max(1e-12),
            );
            runs.push(r);
        }
        latency_sections.push(format!("\"c{clients}\": {}", latency_json(clients, &runs)));
        for r in runs {
            all_samples.extend(r.samples);
        }
    }
    server.begin_shutdown();
    let happy_snap = server.join();
    let phases = phases_json(&all_samples, &happy_snap);
    println!("phases: {phases}");

    // --- deliberate overload: 1 stalled permit, tiny line, 64 clients ---
    let overload_socket = scratch.join("overload.sock");
    let overload = Server::start(
        ModelLibrary::open(&store),
        &overload_socket,
        ServeOptions {
            workers: 1,
            queue_capacity: 8,
            worker_stall: Duration::from_millis(2),
            request_deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("start overload server");
    let (clients, per_client) = (64usize, 24usize);
    let r = run_load(&overload_socket, clients, per_client);
    overload.begin_shutdown();
    let snap = overload.join();
    let total = (clients * per_client) as u64;
    assert_eq!(
        r.answered + r.shed + r.other,
        total,
        "every overload request must get exactly one typed response"
    );
    assert_eq!(r.other, 0, "overload must shed typed, not error");
    assert!(r.shed > 0, "overload run failed to trigger shedding");
    assert_eq!(
        snap.counter(sm::SHED),
        r.shed,
        "server shed counter must match client-observed sheds"
    );
    assert_eq!(
        snap.counter(sm::REQUESTS),
        r.answered,
        "server admission counter must match client-observed answers"
    );
    let shed_rate = r.shed as f64 / total as f64;
    println!(
        "overload: requests={total} answered={} shed={} shed_rate={:.3}",
        r.answered, r.shed, shed_rate
    );
    let overload_json = format!(
        concat!(
            "{{\"clients\": {}, \"requests\": {}, \"wall_s\": {:.6}, ",
            "\"answered\": {}, \"shed\": {}, \"shed_rate\": {:.4}, ",
            "\"server_counters\": {{\"requests\": {}, \"shed\": {}, ",
            "\"deadline_expired\": {}}}}}"
        ),
        clients,
        total,
        r.wall_s,
        r.answered,
        r.shed,
        shed_rate,
        snap.counter(sm::REQUESTS),
        snap.counter(sm::SHED),
        snap.counter(sm::DEADLINE_EXPIRED),
    );

    // --- the cost of tracing: interleaved traced-off / traced-on pairs ---
    // One server, one client shape; the only variable is the observability
    // plane, flipped at runtime through the same `obs` protocol op an
    // operator would use. Interleaving the pairs (off,on,off,on,off,on)
    // cancels slow drift (thermal, cache, scheduler) that would bias a
    // run-all-off-then-all-on comparison.
    let trace_socket = scratch.join("trace.sock");
    let trace_server = Server::start(
        ModelLibrary::open(&store),
        &trace_socket,
        ServeOptions {
            workers,
            queue_capacity: 256,
            request_deadline: Duration::from_secs(30),
            trace_sample_every: 1,
            ..ServeOptions::default()
        },
    )
    .expect("start trace-overhead server");
    let set_obs = |req: &str| {
        let mut stream = UnixStream::connect(&trace_socket).expect("connect for obs flip");
        let resp = proto::call(&mut stream, req).expect("obs flip round trip");
        assert!(resp.contains("\"ok\":true"), "obs flip refused: {resp}");
    };
    // A few-percent signal needs long runs: a sub-second run swings by
    // more than the budget from scheduler and allocator noise alone. Each
    // measured run is sized to burn ≳1 s of CPU — /proc/self/stat ticks
    // at 10 ms, and the gate needs per-run quantization well under the
    // tolerance it enforces. One unmeasured warmup pair fills caches and
    // faults in the sink buffers first; the within-pair order alternates
    // so any slow drift across the measurement (thermal, cache state)
    // lands on both sides equally instead of being booked as overhead.
    // Sizing note: on a shared host individual pairs still swing by
    // double digits — co-tenant interference is sustained, not bursty,
    // so it lands on one side of whichever pair it straddles no matter
    // how long the runs are. The gate survives because it aggregates
    // CPU over all nine alternating pairs (see below), which gives that
    // interference near-equal exposure to both sides; repeated runs of
    // this config land within a couple percent of zero.
    const OVERHEAD_RUNS: usize = 9;
    // Even the aggregate keeps a heavy positive tail on this host: a
    // co-tenant that saturates the cache for the better part of a
    // measurement lands mostly on one side no matter how the pairs are
    // ordered. A trip therefore re-measures from scratch, up to three
    // attempts — a real regression is sustained and trips every attempt,
    // interference moves on.
    const GATE_ATTEMPTS: usize = 3;
    let (clients, per_client) = (8usize, 24_576usize);
    let tolerance_pct = std::env::var("PROXIM_SERVE_TRACE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0);
    let gate_enabled = proxim_bench::gates_enabled();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("qps is finite"));
        v[v.len() / 2]
    };
    let mut overhead_pct = f64::INFINITY;
    let (mut qps_off_med, mut qps_on_med) = (0.0f64, 0.0f64);
    let (mut cpu_off_us, mut cpu_on_us) = (0.0f64, 0.0f64);
    for attempt in 1..=GATE_ATTEMPTS {
        // A fresh (truncated) sink file per attempt, so every attempt
        // measures from an identical starting state rather than
        // inheriting the previous attempt's accumulated trace.
        sink::install_jsonl(&scratch.join(format!("bench_trace_{attempt}.jsonl")))
            .expect("install bench trace sink");
        let (mut qps_off, mut qps_on) = (Vec::new(), Vec::new());
        let (mut cpu_off, mut cpu_on) = (Vec::new(), Vec::new());
        for i in 0..=OVERHEAD_RUNS {
            let warmup = i == 0;
            let n = if warmup { per_client / 4 } else { per_client };
            let run_off = |qps: &mut Vec<f64>, cpu: &mut Vec<f64>| {
                set_obs(r#"{"op":"obs","level":"off","sample_every":0}"#);
                flight::disable();
                let r = run_load(&trace_socket, clients, n);
                if !warmup {
                    qps.push(r.answered as f64 / r.wall_s.max(1e-12));
                    cpu.push(r.cpu_s / r.answered.max(1) as f64);
                }
            };
            let run_on = |qps: &mut Vec<f64>, cpu: &mut Vec<f64>| {
                set_obs(r#"{"op":"obs","level":"trace","sample_every":16}"#);
                flight::enable(flight::DEFAULT_CAPACITY);
                let r = run_load(&trace_socket, clients, n);
                if !warmup {
                    qps.push(r.answered as f64 / r.wall_s.max(1e-12));
                    cpu.push(r.cpu_s / r.answered.max(1) as f64);
                }
            };
            if i % 2 == 0 {
                run_off(&mut qps_off, &mut cpu_off);
                run_on(&mut qps_on, &mut cpu_on);
            } else {
                run_on(&mut qps_on, &mut cpu_on);
                run_off(&mut qps_off, &mut cpu_off);
            }
        }
        // The gate works on CPU-per-request, aggregated over all measured
        // runs per side. CPU because on a loaded box throughput is its
        // inverse and, unlike wall-clock qps, process CPU time is not
        // stretched by preemption — wall-based ratios here swing by more
        // than the budget from scheduler noise alone. Aggregated (not
        // per-pair median) because what CPU noise remains on a shared host
        // is *sustained* interference — cache and memory-bandwidth
        // pressure lasting many seconds — which straddles pair boundaries,
        // inflating one side of one pair and the opposite side of the
        // next; per-pair ratios then read ±double digits in matched
        // positive/negative bursts. Summing each side over all runs gives
        // that interference near-equal exposure to both sides via the
        // alternating within-pair order. Wall qps would be the honest
        // metric on an idle multi-core host; it is still reported, just
        // not gated. Falls back to wall totals where /proc/self/stat is
        // unavailable.
        let (ratio_den, ratio_num, ratios): (f64, f64, Vec<f64>) =
            if cpu_off.iter().all(|c| *c > 0.0) {
                (
                    cpu_on.iter().sum(),
                    cpu_off.iter().sum(),
                    cpu_on
                        .iter()
                        .zip(&cpu_off)
                        .map(|(on, off)| off / on.max(1e-12))
                        .collect(),
                )
            } else {
                // Inverted on purpose: more qps is the good direction, so
                // the off/on roles swap to keep "ratio < 1 ⇒ tracing
                // costs".
                (
                    qps_off.iter().sum(),
                    qps_on.iter().sum(),
                    qps_on
                        .iter()
                        .zip(&qps_off)
                        .map(|(on, off)| on / off.max(1e-12))
                        .collect(),
                )
            };
        // Per-pair overheads are printed so a gate trip distinguishes a
        // real regression (every pair high) from interference (matched
        // +/- bursts).
        let pair_pcts: Vec<String> = ratios
            .iter()
            .map(|r| format!("{:.2}%", (1.0 - r) * 100.0))
            .collect();
        println!(
            "trace_overhead_pairs: attempt={attempt} [{}]",
            pair_pcts.join(", ")
        );
        overhead_pct = (1.0 - ratio_num / ratio_den.max(1e-12)) * 100.0;
        qps_off_med = median(&mut qps_off);
        qps_on_med = median(&mut qps_on);
        cpu_off_us = median(&mut cpu_off) * 1e6;
        cpu_on_us = median(&mut cpu_on) * 1e6;
        if !gate_enabled || overhead_pct <= tolerance_pct {
            break;
        }
        if attempt < GATE_ATTEMPTS {
            println!(
                "trace_overhead: attempt {attempt} measured {overhead_pct:.2}% \
                 (over the {tolerance_pct}% budget); re-measuring"
            );
        }
    }
    trace_server.begin_shutdown();
    trace_server.join();
    proxim_obs::set_level(proxim_obs::Level::Off);
    flight::disable();
    sink::uninstall();
    let (qps_off, qps_on) = (qps_off_med, qps_on_med);
    println!(
        "trace_overhead: qps_off={qps_off:.0} qps_on={qps_on:.0} \
         cpu_off={cpu_off_us:.2}us/req cpu_on={cpu_on_us:.2}us/req \
         overhead={overhead_pct:.2}% (tolerance {tolerance_pct}%)"
    );
    if gate_enabled {
        assert!(
            overhead_pct <= tolerance_pct,
            "tracing cost over the {tolerance_pct}% budget on all {GATE_ATTEMPTS} \
             attempts (last: {overhead_pct:.2}% CPU per request)"
        );
    }
    let trace_overhead_json = format!(
        concat!(
            "{{\"clients\": {}, \"requests_per_run\": {}, \"runs\": {}, ",
            "\"sample_every\": 16, ",
            "\"qps_off\": {:.1}, \"qps_on\": {:.1}, ",
            "\"cpu_us_per_req_off\": {:.2}, \"cpu_us_per_req_on\": {:.2}, ",
            "\"overhead_pct\": {:.2}, \"tolerance_pct\": {:.1}}}"
        ),
        clients,
        clients * per_client,
        OVERHEAD_RUNS,
        qps_off,
        qps_on,
        cpu_off_us,
        cpu_on_us,
        overhead_pct,
        tolerance_pct,
    );

    // --- reload latency: back-to-back swaps under sustained load ---------
    // The number a daemon operator actually plans around: how long a
    // validated generation swap takes, and whether the data plane notices.
    const RELOADS: usize = 50;
    const RELOAD_CLIENTS: usize = 8;
    let reload_socket = scratch.join("reload.sock");
    let reload_server = Server::start(
        ModelLibrary::open(&store),
        &reload_socket,
        ServeOptions {
            workers,
            queue_capacity: 256,
            request_deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("start reload server");
    let stop = AtomicBool::new(false);
    let (reload_us, served_during) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RELOAD_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream =
                        UnixStream::connect(&reload_socket).expect("connect to reload server");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("set read timeout");
                    let request = request_json();
                    let mut answered = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let resp = proto::call(&mut stream, &request)
                            .expect("reload-storm round trip must not fail");
                        assert!(
                            resp.contains("\"ok\":true"),
                            "a swap must never shed or error a query: {resp}"
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        let mut us = Vec::with_capacity(RELOADS);
        for _ in 0..RELOADS {
            let outcome = reload_server
                .reload(false, None)
                .expect("bench reload must swap");
            us.push(outcome.reload_us as f64);
        }
        stop.store(true, Ordering::Relaxed);
        let served: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("reload client panicked"))
            .sum();
        (us, served)
    });
    reload_server.begin_shutdown();
    let reload_snap = reload_server.join();
    assert_eq!(reload_snap.counter(sm::RELOAD_SWAPPED), RELOADS as u64);
    assert_eq!(reload_snap.counter(sm::SHED), 0);
    assert!(served_during > 0, "the storm must overlap live traffic");
    let (reload50, reload99) = phase_percentiles(reload_us);
    println!(
        "reload: swaps={RELOADS} p50={reload50:.0}us p99={reload99:.0}us \
         served_during={served_during}"
    );
    let reload_json = format!(
        concat!(
            "{{\"reloads\": {}, \"clients\": {}, \"p50_us\": {:.1}, ",
            "\"p99_us\": {:.1}, \"served_during\": {}}}"
        ),
        RELOADS, RELOAD_CLIENTS, reload50, reload99, served_during,
    );

    // --- eviction churn: a budget 2.5 entries wide over 6 models ---------
    let churn_names: Vec<String> = (0..6).map(|i| format!("evict_{i}")).collect();
    for name in &churn_names {
        store.save(name, &model).expect("seed eviction store");
    }
    let entry_bytes = std::fs::metadata(store.entry_path("evict_0"))
        .expect("entry metadata")
        .len();
    let budget = entry_bytes * 5 / 2;
    let churn_socket = scratch.join("churn.sock");
    let churn_server = Server::start(
        ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget: Some(budget),
                ..LibraryOptions::default()
            },
        ),
        &churn_socket,
        ServeOptions {
            workers,
            queue_capacity: 256,
            request_deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("start churn server");
    const CHURN_ROUNDS: usize = 64;
    let mut stream = UnixStream::connect(&churn_socket).expect("connect to churn server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    let (mut warm_us, mut cold_us, mut load_us) = (Vec::new(), Vec::new(), Vec::new());
    // Round-robin over a set wider than the budget cycles LRU (every
    // access a miss); interleaving one hot model keeps it resident, so the
    // run measures both sides: warm hits under churn and cold misses.
    let access: Vec<&String> = churn_names
        .iter()
        .flat_map(|name| [name, &churn_names[0]])
        .collect();
    for _ in 0..CHURN_ROUNDS {
        for name in &access {
            let request = format!(
                concat!(
                    "{{\"op\":\"query\",\"model\":\"{}\",\"events\":[",
                    "{{\"pin\":0,\"edge\":\"rise\",\"t\":0.0,\"tt\":4e-10}},",
                    "{{\"pin\":1,\"edge\":\"rise\",\"t\":5e-11,\"tt\":4e-10}}]}}"
                ),
                name
            );
            let start = Instant::now();
            let resp = proto::call(&mut stream, &request).expect("churn round trip");
            let e2e = start.elapsed().as_secs_f64() * 1e6;
            assert!(resp.contains("\"ok\":true"), "{name}: {resp}");
            if resp.contains("\"cold\":true") {
                cold_us.push(e2e);
                let json = Json::parse(&resp).expect("churn response parses");
                load_us.push(
                    json.get("load_us")
                        .and_then(Json::as_f64)
                        .expect("a cold answer must carry load_us"),
                );
            } else {
                warm_us.push(e2e);
            }
        }
    }
    drop(stream);
    churn_server.begin_shutdown();
    let churn_snap = churn_server.join();
    let cold_misses = churn_snap.counter(sm::LIBRARY_COLD_MISSES);
    let evictions = churn_snap.counter(sm::LIBRARY_EVICTIONS);
    let resident = churn_snap.gauge(sm::LIBRARY_RESIDENT_BYTES);
    assert!(cold_misses > 0, "an over-budget set must pay cold misses");
    assert!(evictions > 0, "an over-budget set must evict");
    assert!(
        !warm_us.is_empty() && !cold_us.is_empty(),
        "the penalty comparison needs both warm and cold samples"
    );
    assert!(
        resident <= budget as f64,
        "resident bytes {resident} exceed the budget {budget}"
    );
    let (warm50, warm99) = phase_percentiles(warm_us.clone());
    let (cold50, cold99) = phase_percentiles(cold_us.clone());
    let (load50, _) = phase_percentiles(load_us.clone());
    println!(
        "eviction_churn: queries={} cold={} evictions={evictions} \
         warm_p50={warm50:.0}us cold_p50={cold50:.0}us load_p50={load50:.0}us",
        CHURN_ROUNDS * access.len(),
        cold_us.len(),
    );
    let churn_json = format!(
        concat!(
            "{{\"models\": {}, \"entry_bytes\": {}, \"budget_bytes\": {}, ",
            "\"queries\": {}, \"cold_misses\": {}, \"evictions\": {}, ",
            "\"warm\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}, ",
            "\"cold\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}}}, ",
            "\"cold_load_p50_us\": {:.1}, ",
            "\"cold_miss_penalty_p50_us\": {:.1}, \"resident_bytes\": {:.0}}}"
        ),
        churn_names.len(),
        entry_bytes,
        budget,
        CHURN_ROUNDS * access.len(),
        cold_misses,
        evictions,
        warm50,
        warm99,
        cold50,
        cold99,
        load50,
        cold50 - warm50,
        resident,
    );

    // --- fleet: availability under rolling restart, hedge win rate -------
    // In-process replicas (the supervised-process path is covered by the
    // chaos suite; the bench measures the balancer itself).
    let fleet_opts = ServeOptions {
        workers: 2,
        queue_capacity: 256,
        request_deadline: Duration::from_secs(30),
        ..ServeOptions::default()
    };
    let fleet_sockets: Vec<PathBuf> = (0..3)
        .map(|i| scratch.join(format!("fl{i}.sock")))
        .collect();
    let mut fleet_servers: Vec<Server> = fleet_sockets
        .iter()
        .map(|s| {
            Server::start(ModelLibrary::open(&store), s, fleet_opts.clone())
                .expect("start fleet replica")
        })
        .collect();
    let fleet_client = Arc::new(FleetClient::new(
        fleet_sockets.clone(),
        FleetClientOptions {
            retry: RetryPolicy {
                base: Duration::from_millis(2),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            ..FleetClientOptions::default()
        },
    ));
    // Closed-loop churn through the balancer while each replica is taken
    // down and brought back, one at a time — availability must hold at 1.0
    // because failover absorbs the missing replica.
    let stop = Arc::new(AtomicBool::new(false));
    let (fl_ok, fl_failed) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let fleet_churners: Vec<_> = (0..8)
        .map(|_| {
            let client = Arc::clone(&fleet_client);
            let stop = Arc::clone(&stop);
            let (ok, failed) = (Arc::clone(&fl_ok), Arc::clone(&fl_failed));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match client.call(&request_json()) {
                        Ok(out) if out.response.contains("\"timing\"") => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for (i, socket) in fleet_sockets.iter().enumerate() {
        let old = fleet_servers.remove(i);
        old.begin_shutdown();
        old.join();
        let replacement = Server::start(ModelLibrary::open(&store), socket, fleet_opts.clone())
            .expect("restart fleet replica");
        fleet_servers.insert(i, replacement);
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for churner in fleet_churners {
        churner.join().expect("fleet churner");
    }
    let (rolled_ok, rolled_failed) = (
        fl_ok.load(Ordering::Relaxed),
        fl_failed.load(Ordering::Relaxed),
    );
    let availability = rolled_ok as f64 / ((rolled_ok + rolled_failed) as f64).max(1.0);
    assert_eq!(
        rolled_failed, 0,
        "failover must absorb a rolling restart with zero client-visible failures"
    );
    for server in fleet_servers.drain(..) {
        server.begin_shutdown();
        server.join();
    }

    // Hedged vs unhedged p99 against one deterministically stalled replica.
    const HEDGE_REQUESTS: usize = 150;
    let stall = Duration::from_millis(10);
    let hedge_sockets = [scratch.join("hs.sock"), scratch.join("hf.sock")];
    let stalled = Server::start(
        ModelLibrary::open(&store),
        &hedge_sockets[0],
        ServeOptions {
            worker_stall: stall,
            ..fleet_opts.clone()
        },
    )
    .expect("start stalled replica");
    let healthy = Server::start(
        ModelLibrary::open(&store),
        &hedge_sockets[1],
        fleet_opts.clone(),
    )
    .expect("start healthy replica");
    let mut hedge_section = Vec::new();
    let mut hedge_stats = (0u64, 0u64);
    for hedge_delay in [None, Some(Duration::from_millis(2))] {
        let client = FleetClient::new(
            hedge_sockets.to_vec(),
            FleetClientOptions {
                hedge_delay,
                ..FleetClientOptions::default()
            },
        );
        let mut lat_us: Vec<f64> = Vec::with_capacity(HEDGE_REQUESTS);
        for _ in 0..HEDGE_REQUESTS {
            let start = Instant::now();
            let out = client.call(&request_json()).expect("hedge bench query");
            assert!(out.response.contains("\"timing\""), "{}", out.response);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let (p50, p99) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));
        let label = if hedge_delay.is_some() {
            "hedged"
        } else {
            "unhedged"
        };
        println!(
            "fleet {label}: p50={p50:.0}us p99={p99:.0}us hedges={} wins={}",
            client.hedges(),
            client.hedge_wins()
        );
        hedge_section.push(format!(
            "\"{label}\": {{\"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}"
        ));
        if hedge_delay.is_some() {
            hedge_stats = (client.hedges(), client.hedge_wins());
        }
    }
    stalled.begin_shutdown();
    healthy.begin_shutdown();
    stalled.join();
    healthy.join();
    let (hedges, hedge_wins) = hedge_stats;
    assert!(hedges > 0, "the stalled replica must trigger hedges");
    let fleet_json = format!(
        concat!(
            "{{\"replicas\": 3, \"rolling_restart\": {{\"requests\": {}, ",
            "\"failed\": {}, \"availability\": {:.4}}}, ",
            "\"hedge\": {{\"requests\": {}, \"stall_ms\": {}, \"hedge_delay_ms\": 2, ",
            "{}, \"hedges\": {}, \"hedge_wins\": {}, \"win_rate\": {:.3}}}}}"
        ),
        rolled_ok + rolled_failed,
        rolled_failed,
        availability,
        HEDGE_REQUESTS,
        stall.as_millis(),
        hedge_section.join(", "),
        hedges,
        hedge_wins,
        hedge_wins as f64 / (hedges as f64).max(1.0),
    );
    println!("fleet: availability={availability:.4} hedges={hedges} wins={hedge_wins}");

    let report = format!(
        concat!(
            "{{\n  \"model\": \"{}\",\n  \"workers\": {},\n",
            "  \"latency\": {{{}}},\n  \"phases\": {},\n  \"overload\": {},\n",
            "  \"trace_overhead\": {},\n  \"reload\": {},\n",
            "  \"eviction_churn\": {},\n  \"fleet\": {}\n}}\n"
        ),
        MODEL,
        workers,
        latency_sections.join(", "),
        phases,
        overload_json,
        trace_overhead_json,
        reload_json,
        churn_json,
        fleet_json,
    );
    std::fs::write(&out, &report).expect("write report");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&scratch);
    ExitCode::SUCCESS
}
