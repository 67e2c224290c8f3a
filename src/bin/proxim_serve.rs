//! `proxim_serve`: the timing-query daemon CLI.
//!
//! Subcommands:
//!
//! - `serve --store DIR --socket PATH [...]` — load the binary model store
//!   (degrade-instead-of-die: corrupt entries are quarantined with their
//!   content hash and the daemon starts with the survivors), bind the Unix
//!   socket, and answer queries until `SIGTERM`, which drains: stop
//!   accepting, finish or shed in-flight work typed, flush the final
//!   metrics snapshot, exit `0`. `SIGHUP` (or the `reload` wire op)
//!   hot-reloads the store into a fresh generation: the candidate loads
//!   and is judged off to the side, then swaps in with one pointer
//!   exchange — in-flight queries finish on the generation they started
//!   on. `--memory-budget BYTES` caps residency: models past the budget
//!   are cold-loaded on demand and LRU-evicted.
//! - `fleet --store DIR --dir DIR --replicas N` — the supervisor: spawn N
//!   replica daemons of this same binary (each on its own socket under the
//!   fleet directory), restart crashes with capped exponential backoff,
//!   quarantine crash-loopers (≥M exits in a window, typed
//!   `replica_quarantined`), answer the `fleet` stats op on
//!   `DIR/fleet.sock`, and fold `SIGHUP` into rolling reloads (one replica
//!   at a time, never below N−1 capacity). `SIGTERM` drains every replica
//!   and exits 0. With `--strict-store`, replicas refuse to start on a
//!   corrupt/empty store (exit 2) so a bad store is quarantined loudly
//!   instead of serving nothing.
//! - `query --socket PATH --json REQ` — one request/response round trip;
//!   prints the response. Exit `0` when the response says `"ok":true`,
//!   `3` for a typed server-side error, `1` for transport failure. With
//!   `--retry`, refusals that are safe to retry (`overloaded`,
//!   `shutting_down`, connect-refused — idempotent ops only) are retried
//!   with capped exponential backoff, never past `--deadline-ms`.
//! - `churn --store DIR --name NAME --rounds N` — characterize one demo
//!   cell, then save it to the store `N` times, printing `round=<i>` after
//!   each durable save. The chaos harness `SIGKILL`s this mid-write and
//!   asserts the store is loadable and byte-identical afterwards — the
//!   `atomic_write` crash-consistency promise, proven at the binary-store
//!   layer. With `--socket PATH --queries N` it instead runs a closed
//!   query loop against a live daemon, round-robining the served model
//!   set — the CI eviction-churn smoke.
//! - `obs --socket PATH [...]` — introspect or reconfigure a live
//!   daemon's observability plane: flip the trace level or sampling knobs
//!   at runtime, fetch the flight-recorder dump to a file, or scrape and
//!   validate the Prometheus exposition. All of it rides the probe fast
//!   path, so it works even when every in-flight permit is taken.
//!
//! The `SIGTERM`/`SIGHUP` handlers live here (one libc `signal` FFI line)
//! so every library crate stays `forbid(unsafe_code)`; each handler body
//! is a single atomic store or add, which is async-signal-safe.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use proxim_obs::json::Json;
use proxim_obs::{exposition, flight, serve_metrics as sm, trace};
use proxim_serve::client::{call_with_retry, RetryPolicy};
use proxim_serve::fleet::FleetEvent;
use proxim_serve::server::one_shot;
use proxim_serve::{
    diskfault, Fleet, FleetOptions, LibraryOptions, ModelLibrary, ModelStore, ServeOptions, Server,
};
use proxim_spice::CancelToken;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The token the SIGTERM handler trips; cancelling it begins the drain.
static TERM_TOKEN: OnceLock<CancelToken> = OnceLock::new();

/// SIGHUP arrivals; the serve wait loop folds each one into a reload.
/// Coalescing is deliberate: N signals during one reload collapse into at
/// most one follow-up reload, which is the operator's intent ("pick up
/// what's on disk now"), not a queue of N redundant loads.
static HUP_REQUESTS: AtomicU64 = AtomicU64::new(0);

extern "C" fn on_sigterm(_signum: i32) {
    if let Some(token) = TERM_TOKEN.get() {
        token.cancel();
    }
}

extern "C" fn on_sighup(_signum: i32) {
    HUP_REQUESTS.fetch_add(1, Ordering::Relaxed);
}

/// Installs the SIGTERM and SIGHUP handlers via the libc `signal` entry
/// point (no external crates in this build environment).
fn install_signal_handlers() {
    const SIGHUP: i32 = 1;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
        signal(SIGHUP, on_sighup as *const () as usize);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         proxim_serve serve --store DIR --socket PATH [--workers N] [--queue N]\n    \
         [--deadline-ms N] [--stall-ms N] [--metrics-out PATH] [--demo]\n    \
         [--sample-every N] [--slow-ms N] [--flight-out PATH] [--flight-capacity N]\n    \
         [--memory-budget BYTES] [--listen tcp://HOST:PORT] [--strict-store]\n  \
         proxim_serve fleet --store DIR --dir DIR [--replicas N] [--demo]\n    \
         [--strict-store] [--quarantine-threshold N] [--quarantine-window-ms N]\n    \
         [--probe-interval-ms N] [--backoff-base-ms N] [--backoff-cap-ms N]\n  \
         proxim_serve query --socket PATH --json REQUEST [--retry] [--deadline-ms N]\n  \
         proxim_serve obs --socket PATH [--level off|metrics|trace] [--sample-every N]\n    \
         [--slow-ms N] [--dump PATH] [--prom]\n  \
         proxim_serve churn --store DIR --name NAME --rounds N\n  \
         proxim_serve churn --socket PATH --queries N"
    );
    ExitCode::from(1)
}

/// Flushes the trace sink and writes the flight-recorder dump to the
/// armed path, if one is armed. Used by the panic hook and the drain
/// path; failures are reported but never escalate — a post-mortem must
/// not mask the original exit.
fn flush_observability() {
    proxim_obs::sink::flush();
    if let Some(path) = flight::armed_dump_path() {
        if let Err(e) = diskfault::checked_write(&path, flight::dump().as_bytes()) {
            eprintln!("proxim_serve: flight dump degraded: {e}");
        }
    }
}

/// The deterministic demo model served by `--demo` and saved by `churn`:
/// a fast-grid NAND2 against the demo technology.
fn demo_model() -> Result<ProximityModel, String> {
    let tech = Technology::demo_5v();
    let cell = Cell::nand(2);
    ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
        .map_err(|e| format!("demo characterization failed: {e}"))
}

fn cmd_serve(args: &mut std::env::Args) -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut flight_out: Option<PathBuf> = None;
    let mut opts = ServeOptions::default();
    let mut demo = false;
    let mut memory_budget: Option<u64> = None;
    let mut strict_store = false;
    let mut listen: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_dir = args.next().map(Into::into),
            "--socket" => socket = args.next().map(Into::into),
            "--metrics-out" => metrics_out = args.next().map(Into::into),
            "--flight-out" => flight_out = args.next().map(Into::into),
            "--listen" => listen = args.next(),
            "--demo" => demo = true,
            "--strict-store" => strict_store = true,
            "--workers" | "--queue" | "--deadline-ms" | "--stall-ms" | "--sample-every"
            | "--slow-ms" | "--flight-capacity" | "--memory-budget" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match arg.as_str() {
                    "--workers" => opts.workers = v as usize,
                    "--queue" => opts.queue_capacity = v as usize,
                    "--deadline-ms" => opts.request_deadline = Duration::from_millis(v),
                    "--sample-every" => opts.trace_sample_every = v,
                    "--slow-ms" => opts.slow_threshold = Duration::from_millis(v),
                    "--flight-capacity" => opts.flight_capacity = v as usize,
                    "--memory-budget" => memory_budget = Some(v),
                    _ => opts.worker_stall = Duration::from_millis(v),
                }
            }
            _ => return usage(),
        }
    }
    let (Some(store_dir), Some(socket)) = (store_dir, socket) else {
        return usage();
    };
    // --flight-out arms the post-mortem dump destination: the panic hook,
    // the drain path, and the protocol's `obs` dump op all read it. The
    // ring itself is enabled by Server::start (flight_capacity).
    if let Some(path) = &flight_out {
        flight::arm_dump(path.clone(), false);
    }

    let store = ModelStore::new(&store_dir);
    if demo && store.list().is_empty() {
        match demo_model() {
            Ok(model) => {
                if let Err(e) = store.save("nand2_demo", &model) {
                    eprintln!("proxim_serve: cannot seed demo model: {e}");
                    return ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("proxim_serve: {e}");
                return ExitCode::from(1);
            }
        }
    }
    // Degrade-instead-of-die: a half-corrupt (or empty) store still serves.
    let library = ModelLibrary::open_with(
        &store,
        LibraryOptions {
            memory_budget,
            ..LibraryOptions::default()
        },
    );
    for (path, reason) in &library.report().quarantined {
        eprintln!("proxim_serve: quarantined {} ({reason})", path.display());
    }
    for (path, reason) in &library.report().quarantine_failed {
        eprintln!(
            "proxim_serve: quarantine failed for {} ({reason})",
            path.display()
        );
    }
    if let Some(e) = &library.report().root_error {
        eprintln!("proxim_serve: store root unreadable, serving empty: {e}");
    }
    // Fleet-mode inversion of degrade-instead-of-die: under a supervisor
    // with replicas to fail over to, a corrupt or empty store is worth
    // more as a loud startup failure (crash-loop → quarantine) than as a
    // silently degraded replica. Exit 2 distinguishes it from usage errors.
    if strict_store {
        let report = library.report();
        if report.root_error.is_some() || !report.quarantined.is_empty() || library.is_empty() {
            eprintln!(
                "proxim_serve: --strict-store: store is corrupt, quarantining, or empty; \
                 refusing to serve"
            );
            return ExitCode::from(2);
        }
    }

    let tcp = match &listen {
        Some(l) => match l.strip_prefix("tcp://") {
            Some(addr) => Some(addr.to_string()),
            None => {
                eprintln!("proxim_serve: --listen expects tcp://HOST:PORT, got {l}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let server = match Server::start_with(library, Some(socket.clone()), tcp.as_deref(), opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("proxim_serve: cannot bind {}: {e}", socket.display());
            return ExitCode::from(1);
        }
    };
    // Arm SIGTERM → drain and SIGHUP → reload before announcing readiness,
    // so a signal that races startup still lands.
    let token = TERM_TOKEN.get_or_init(CancelToken::new).clone();
    install_signal_handlers();
    let tcp_suffix = server
        .tcp_addr()
        .map(|a| format!(" tcp={a}"))
        .unwrap_or_default();
    println!(
        "ready socket={} models={} generation={}{tcp_suffix}",
        server.socket_path().display(),
        server.model_count(),
        server.library().generation()
    );
    let _ = std::io::stdout().flush();

    // Wait for the drain signal; fold SIGHUP arrivals into hot reloads.
    let mut hups_seen = 0u64;
    while !token.is_cancelled() {
        let hups = HUP_REQUESTS.load(Ordering::Relaxed);
        if hups != hups_seen {
            hups_seen = hups;
            match server.reload(false, None) {
                Ok(outcome) => {
                    println!(
                        "reloaded generation={} models={} reload_us={}",
                        outcome.generation, outcome.models, outcome.reload_us
                    );
                }
                Err(rej) => eprintln!("proxim_serve: reload rejected: {rej}"),
            }
            let _ = std::io::stdout().flush();
            continue;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let registry = server.registry();
    server.begin_shutdown();
    let snapshot = server.join();
    let json = snapshot.to_json();
    if let Some(path) = metrics_out {
        // A full disk must not turn a clean drain into a failed exit: the
        // snapshot is a nicety, the exit status is the contract.
        if let Err(e) = diskfault::checked_write(&path, json.as_bytes()) {
            registry.counter(sm::DISK_FAULTS).incr();
            drop(
                trace::event("serve.disk.degraded")
                    .arg("sink", "metrics_snapshot")
                    .arg("error", e.to_string()),
            );
            eprintln!("proxim_serve: metrics flush degraded: {e}");
        }
    }
    // The drain is the last chance to capture what the daemon was doing;
    // the dump lands after join so the final requests are in the ring.
    flush_observability();
    println!("drained {json}");
    ExitCode::SUCCESS
}

fn cmd_query(args: &mut std::env::Args) -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut json: Option<String> = None;
    let mut retry = false;
    let mut deadline_ms: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = args.next().map(Into::into),
            "--json" => json = args.next(),
            "--retry" => retry = true,
            "--deadline-ms" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                deadline_ms = Some(v);
            }
            _ => return usage(),
        }
    }
    let (Some(socket), Some(json)) = (socket, json) else {
        return usage();
    };
    let result = if retry {
        let policy = RetryPolicy {
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            ..RetryPolicy::default()
        };
        call_with_retry(&socket, &json, &policy).map(|outcome| {
            if outcome.attempts > 1 {
                eprintln!(
                    "proxim_serve: served after {} attempts ({:?} backing off)",
                    outcome.attempts, outcome.backoff
                );
            }
            outcome.response
        })
    } else {
        one_shot(&socket, &json)
    };
    match result {
        Ok(response) => {
            println!("{response}");
            if response.contains("\"ok\":true") {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("proxim_serve: {e}");
            ExitCode::from(1)
        }
    }
}

/// One `op:"obs"` or `op:"metrics"` round trip against a live daemon.
/// Returns the parsed response, or an exit code when the transport failed
/// or the daemon answered with a typed error.
fn obs_round_trip(socket: &Path, request: &str) -> Result<Json, ExitCode> {
    let response = match one_shot(socket, request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("proxim_serve: {e}");
            return Err(ExitCode::from(1));
        }
    };
    let json = match Json::parse(&response) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("proxim_serve: unparseable response: {e}");
            return Err(ExitCode::from(1));
        }
    };
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("proxim_serve: daemon refused: {response}");
        return Err(ExitCode::from(3));
    }
    Ok(json)
}

fn cmd_obs(args: &mut std::env::Args) -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut level: Option<String> = None;
    let mut sample_every: Option<u64> = None;
    let mut slow_ms: Option<u64> = None;
    let mut dump_path: Option<PathBuf> = None;
    let mut prom = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = args.next().map(Into::into),
            "--dump" => dump_path = args.next().map(Into::into),
            "--prom" => prom = true,
            "--level" => {
                let Some(v) = args.next() else { return usage() };
                if !matches!(v.as_str(), "off" | "metrics" | "trace") {
                    return usage();
                }
                level = Some(v);
            }
            "--sample-every" | "--slow-ms" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                if arg == "--sample-every" {
                    sample_every = Some(v);
                } else {
                    slow_ms = Some(v);
                }
            }
            _ => return usage(),
        }
    }
    let Some(socket) = socket else { return usage() };

    // A bare `obs` request is a read: it reports the current observability
    // configuration without changing anything, which is exactly what an
    // operator wants before flipping knobs.
    let mut request = String::from("{\"op\":\"obs\"");
    if let Some(level) = &level {
        request.push_str(&format!(",\"level\":\"{level}\""));
    }
    if let Some(n) = sample_every {
        request.push_str(&format!(",\"sample_every\":{n}"));
    }
    if let Some(n) = slow_ms {
        request.push_str(&format!(",\"slow_ms\":{n}"));
    }
    if dump_path.is_some() {
        request.push_str(",\"dump\":true");
    }
    request.push('}');

    let response = match obs_round_trip(&socket, &request) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut obs_line = String::new();
    if let Some(obs) = response.get("obs") {
        obs.render(&mut obs_line);
    }
    println!("obs {obs_line}");
    if let Some(path) = dump_path {
        let Some(dump) = response.get("dump").and_then(Json::as_str) else {
            eprintln!("proxim_serve: response carried no dump");
            return ExitCode::from(1);
        };
        if let Err(e) = diskfault::checked_write(&path, dump.as_bytes()) {
            eprintln!("proxim_serve: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        let truncated = response.get("truncated").and_then(Json::as_bool) == Some(true);
        println!(
            "dump path={} lines={} truncated={truncated}",
            path.display(),
            dump.lines().count()
        );
    }
    if prom {
        let response = match obs_round_trip(&socket, "{\"op\":\"metrics\"}") {
            Ok(r) => r,
            Err(code) => return code,
        };
        let Some(text) = response.get("exposition").and_then(Json::as_str) else {
            eprintln!("proxim_serve: response carried no exposition");
            return ExitCode::from(1);
        };
        if let Err(e) = exposition::validate(text) {
            eprintln!("proxim_serve: invalid exposition: {e}");
            return ExitCode::from(1);
        }
        print!("{text}");
    }
    ExitCode::SUCCESS
}

/// Closed query loop against a live daemon: list the served models, then
/// round-robin `queries` single-event queries across them through the
/// retrying client. With a tight `--memory-budget` on the daemon this is
/// the eviction-churn smoke: every model keeps cycling through residency
/// and the loop still sees nothing but `ok` responses.
fn churn_queries(socket: &Path, queries: u64) -> ExitCode {
    let policy = RetryPolicy::default();
    let names = match call_with_retry(socket, "{\"op\":\"list\"}", &policy) {
        Ok(outcome) => match Json::parse(&outcome.response) {
            Ok(json) => json
                .get("models")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|j| j.as_str().map(str::to_owned))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            Err(e) => {
                eprintln!("proxim_serve: unparseable list response: {e}");
                return ExitCode::from(1);
            }
        },
        Err(e) => {
            eprintln!("proxim_serve: list failed: {e}");
            return ExitCode::from(1);
        }
    };
    if names.is_empty() {
        eprintln!("proxim_serve: daemon serves no models; nothing to churn");
        return ExitCode::from(3);
    }
    let (mut ok, mut cold) = (0u64, 0u64);
    for i in 0..queries {
        let name = &names[(i as usize) % names.len()];
        let request = format!(
            "{{\"op\":\"query\",\"model\":\"{name}\",\"events\":[{{\"pin\":0,\"edge\":\"rise\",\"t\":0.0,\"tt\":1e-9}}]}}"
        );
        match call_with_retry(socket, &request, &policy) {
            Ok(outcome) => {
                if outcome.response.contains("\"ok\":true") {
                    ok += 1;
                    if outcome.response.contains("\"cold\":true") {
                        cold += 1;
                    }
                } else {
                    eprintln!("proxim_serve: query {i} refused: {}", outcome.response);
                }
            }
            Err(e) => eprintln!("proxim_serve: query {i} failed: {e}"),
        }
    }
    println!(
        "queried={queries} ok={ok} cold={cold} models={}",
        names.len()
    );
    if ok == queries {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn cmd_churn(args: &mut std::env::Args) -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut name = String::from("nand2_demo");
    let mut rounds = 1u64;
    let mut queries = 64u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_dir = args.next().map(Into::into),
            "--socket" => socket = args.next().map(Into::into),
            "--name" => {
                let Some(v) = args.next() else { return usage() };
                name = v;
            }
            "--rounds" | "--queries" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                if arg == "--rounds" {
                    rounds = v;
                } else {
                    queries = v;
                }
            }
            _ => return usage(),
        }
    }
    if let Some(socket) = socket {
        return churn_queries(&socket, queries);
    }
    let Some(store_dir) = store_dir else {
        return usage();
    };
    let model = match demo_model() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("proxim_serve: {e}");
            return ExitCode::from(1);
        }
    };
    let store = ModelStore::new(&store_dir);
    for round in 0..rounds {
        if let Err(e) = store.save(&name, &model) {
            eprintln!("proxim_serve: churn save failed: {e}");
            return ExitCode::from(1);
        }
        // The harness kills us on (or right after) this marker; each line
        // certifies one durable, renamed-into-place save.
        println!("round={round}");
        let _ = std::io::stdout().flush();
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Observability arms before anything else runs: PROXIM_TRACE installs
    // the JSONL sink, PROXIM_FLIGHT enables the ring and arms the
    // post-mortem dump path (CLI flags can re-arm it later).
    proxim_obs::init_from_env();
    flight::init_from_env();
    // Arms the deterministic disk-fault injector (PROXIM_DISKFAULT) when
    // the binary is built with `fault-injection`; a no-op otherwise.
    diskfault::init_from_env();
    // Whatever kills the process, the flight recorder's last seconds land
    // on disk first — the dump is the crash report.
    let default_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_panic(info);
        flush_observability();
    }));
    let mut args = std::env::args();
    let _argv0 = args.next();
    match args.next().as_deref() {
        Some("serve") => cmd_serve(&mut args),
        Some("fleet") => cmd_fleet(&mut args),
        Some("query") => cmd_query(&mut args),
        Some("obs") => cmd_obs(&mut args),
        Some("churn") => cmd_churn(&mut args),
        _ => usage(),
    }
}

/// The fleet supervisor: spawn N replica daemons of this same binary,
/// supervise them (restart with backoff, quarantine crash loops), answer
/// the `fleet` op on the control socket, and fold `SIGHUP` into rolling
/// reloads. `SIGTERM` drains every replica and exits 0.
fn cmd_fleet(args: &mut std::env::Args) -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut dir: Option<PathBuf> = None;
    let mut opts = FleetOptions::default();
    let mut demo = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_dir = args.next().map(Into::into),
            "--dir" => dir = args.next().map(Into::into),
            "--demo" => demo = true,
            "--strict-store" => opts.strict_store = true,
            "--replicas"
            | "--quarantine-threshold"
            | "--quarantine-window-ms"
            | "--probe-interval-ms"
            | "--backoff-base-ms"
            | "--backoff-cap-ms" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match arg.as_str() {
                    "--replicas" => opts.replicas = v as usize,
                    "--quarantine-threshold" => opts.quarantine_threshold = v as u32,
                    "--quarantine-window-ms" => opts.quarantine_window = Duration::from_millis(v),
                    "--probe-interval-ms" => opts.probe_interval = Duration::from_millis(v),
                    "--backoff-base-ms" => opts.restart_backoff_base = Duration::from_millis(v),
                    _ => opts.restart_backoff_cap = Duration::from_millis(v),
                }
            }
            _ => return usage(),
        }
    }
    let (Some(store_dir), Some(dir)) = (store_dir, dir) else {
        return usage();
    };
    // Seed the demo model once, in the supervisor, so every replica comes
    // up serving the same store (racing N replica-side seeds would not).
    let store = ModelStore::new(&store_dir);
    if demo && store.list().is_empty() {
        match demo_model() {
            Ok(model) => {
                if let Err(e) = store.save("nand2_demo", &model) {
                    eprintln!("proxim_serve: cannot seed demo model: {e}");
                    return ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("proxim_serve: {e}");
                return ExitCode::from(1);
            }
        }
    }
    opts.store = store_dir;
    opts.dir = dir;
    opts.daemon = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("proxim_serve: cannot locate own binary for replicas: {e}");
            return ExitCode::from(1);
        }
    };

    let fleet = match Fleet::start(opts) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("proxim_serve: cannot start fleet: {e}");
            return ExitCode::from(1);
        }
    };
    let token = TERM_TOKEN.get_or_init(CancelToken::new).clone();
    install_signal_handlers();
    if !fleet.wait_ready(Duration::from_secs(60)) {
        // Not fatal: the supervisor keeps restarting; announce anyway so
        // the operator can inspect via the control socket.
        eprintln!("proxim_serve: fleet not fully up after 60s; supervising anyway");
    }
    println!(
        "fleet ready control={} replicas={}",
        fleet.control_socket().display(),
        fleet.sockets().len()
    );
    for status in fleet.states() {
        println!(
            "replica index={} pid={} socket={} state={}",
            status.index,
            status.pid.map_or_else(|| "-".into(), |p| p.to_string()),
            status.socket.display(),
            status.state.wire_name()
        );
    }
    let _ = std::io::stdout().flush();

    let mut hups_seen = 0u64;
    while !token.is_cancelled() {
        let hups = HUP_REQUESTS.load(Ordering::Relaxed);
        if hups != hups_seen {
            hups_seen = hups;
            for (index, result) in fleet.rolling_reload(false, None).into_iter().enumerate() {
                match result {
                    Ok(response) => println!("rolling reload replica={index} {response}"),
                    Err(e) => eprintln!("proxim_serve: rolling reload replica={index}: {e}"),
                }
            }
        }
        for event in fleet.take_events() {
            match event {
                FleetEvent::Restarted { index, restarts } => {
                    println!("restarted replica index={index} restarts={restarts}");
                }
                FleetEvent::Quarantined { index, exits } => {
                    println!(
                        "quarantined replica index={index} exits={exits} \
                         kind=replica_quarantined"
                    );
                }
            }
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(20));
    }
    let snapshot = fleet.join();
    flush_observability();
    println!("fleet drained {}", snapshot.to_json());
    ExitCode::SUCCESS
}
