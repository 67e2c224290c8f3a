//! End-to-end observability loop for the timing-query daemon: the
//! acceptance scenario of the tracing/introspection plane, driven over a
//! real Unix socket.
//!
//! The core test overloads a deliberately starved in-process [`Server`]
//! with client-supplied `trace_id`s and follows one request generation
//! through every surface at once:
//!
//! - the live `stats` in-flight table shows the work while it runs;
//! - every response (answered *and* shed) echoes its `trace_id` and the
//!   answered ones carry the per-phase breakdown;
//! - the sampled JSONL sink holds a `serve.request` span tree with the
//!   matching `trace_id` and its admit, queue-wait, execute and write
//!   children;
//! - the flight-recorder ring can reproduce the same records after the
//!   fact, both over the wire (`obs` dump op) and after shutdown;
//! - the per-daemon counters reconcile exactly with what the clients saw.
//!
//! A second test checks that a sampled request's seven phase spans (read,
//! parse, admit, queue wait, execute, render, write) add up to its
//! `serve.request` span; a third flips sampling and level at runtime
//! through the `obs` op; a fourth drives the real `proxim_serve` binary and
//! asserts the SIGTERM drain path leaves a flight dump containing a traced
//! request.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use proxim_obs::json::Json;
use proxim_obs::{flight, sink};
use proxim_serve::server::one_shot;
use proxim_serve::{ModelLibrary, ModelStore, ServeOptions, Server};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Observability state (level, sink, flight ring) is process-global;
/// serialize the tests that touch it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Every server in this file asks for the same ring size — the ring is
/// created once per process at its first-enable capacity.
const FLIGHT_CAPACITY: usize = 256;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim_srvobs_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One shared fast model; characterization runs once for the whole file.
fn shared_model() -> &'static ProximityModel {
    static MODEL: OnceLock<ProximityModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
            .expect("test model characterizes")
    })
}

fn start_server(dir: &Path, opts: ServeOptions) -> Server {
    let store = ModelStore::new(dir.join("store"));
    store.save("inv", shared_model()).expect("seed store");
    let library = ModelLibrary::open(&store);
    Server::start(library, dir.join("serve.sock"), opts).expect("server starts")
}

/// An in-memory sink the tests can read back (the `Direct` sink shape:
/// records are visible the moment they are emitted).
#[derive(Clone, Default)]
struct Capture(std::sync::Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn take_string(&self) -> String {
        let mut buf = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(std::mem::take(&mut *buf)).expect("trace output is UTF-8")
    }
}

impl std::io::Write for Capture {
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

/// Restores the quiet default state even when a test body panics.
struct ObsGuard;

impl Drop for ObsGuard {
    fn drop(&mut self) {
        sink::uninstall();
        proxim_obs::set_level(proxim_obs::Level::Off);
        flight::disable();
    }
}

fn query_json(trace_id: &str) -> String {
    format!(
        concat!(
            "{{\"op\":\"query\",\"model\":\"inv\",\"trace_id\":\"{}\",\"events\":[",
            "{{\"pin\":0,\"edge\":\"rise\",\"t\":0.0,\"tt\":4e-10}}]}}"
        ),
        trace_id
    )
}

fn parse(response: &str) -> Json {
    Json::parse(response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"))
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {json:?}"))
}

fn num_field(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?} in {json:?}"))
}

/// Polls `f` until it returns `Some` or five seconds pass. Trace emission
/// is deliberately off the response path — `finish_request` runs *after*
/// the response frame is written — so a client that just got its answer
/// may be microseconds ahead of the span landing in the sink or ring.
fn poll_until<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// All `serve.request` spans in a JSONL text, as `(trace_id, span_id)`.
fn request_spans(jsonl: &str) -> Vec<(String, f64)> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.request\""))
        .map(|l| {
            let rec = parse(l);
            let trace_id = rec
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str)
                .expect("serve.request spans carry their trace_id")
                .to_string();
            (trace_id, num_field(&rec, "id"))
        })
        .collect()
}

#[test]
fn overloaded_requests_are_visible_on_every_observability_surface() {
    const CLIENTS: usize = 8;
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _guard = ObsGuard;
    let cap = Capture::default();
    sink::install_writer(Box::new(cap.clone()));
    proxim_obs::set_level(proxim_obs::Level::Trace);

    // Starved on purpose: one worker with a 50 ms stall and a two-slot
    // queue guarantees shed under eight simultaneous clients, and a 20 ms
    // slow threshold makes every answered request a slow one.
    let dir = scratch_dir("loop");
    let server = start_server(
        &dir,
        ServeOptions {
            workers: 1,
            queue_capacity: 2,
            worker_stall: Duration::from_millis(50),
            slow_threshold: Duration::from_millis(20),
            trace_sample_every: 1,
            flight_capacity: FLIGHT_CAPACITY,
            request_deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    );
    let sock = server.socket_path().to_path_buf();

    // Eight clients, each with its own trace_id, all at once.
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let sock = sock.clone();
                s.spawn(move || one_shot(&sock, &query_json(&format!("cli-{i}"))).expect("query"))
            })
            .collect();

        // While they fly: the live in-flight table must show the work,
        // attributed by trace_id. Stats answers inline on its own
        // connection, so overload cannot block the probe.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut seen_inflight = None;
        while seen_inflight.is_none() && Instant::now() < deadline {
            let stats = parse(&one_shot(&sock, r#"{"op":"stats"}"#).expect("stats probe"));
            assert!(num_field(&stats, "uptime_s") >= 0.0);
            assert!(num_field(&stats, "queue_depth") >= 0.0);
            let inflight = stats
                .get("inflight")
                .and_then(Json::as_arr)
                .expect("stats carries the in-flight table");
            seen_inflight = inflight
                .iter()
                .find(|e| str_field(e, "trace_id").starts_with("cli-"))
                .map(|e| {
                    (
                        str_field(e, "trace_id").to_string(),
                        str_field(e, "op").to_string(),
                        str_field(e, "phase").to_string(),
                        num_field(e, "age_us"),
                    )
                });
            std::thread::sleep(Duration::from_millis(2));
        }
        let (trace_id, op, phase, age_us) =
            seen_inflight.expect("a stalled request must appear in the in-flight table");
        assert!(trace_id.starts_with("cli-"));
        assert_eq!(op, "query");
        assert!(
            ["admit", "queue", "execute", "write"].contains(&phase.as_str()),
            "unknown in-flight phase {phase:?}"
        );
        assert!(age_us >= 0.0);

        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every client got a typed response echoing its trace_id; answered
    // ones carry the per-phase breakdown with the stall visible in the
    // execute phase.
    let (mut answered, mut shed) = (Vec::new(), Vec::new());
    for (i, response) in responses.iter().enumerate() {
        let json = parse(response);
        assert_eq!(str_field(&json, "trace_id"), format!("cli-{i}"));
        if json.get("ok").and_then(Json::as_bool) == Some(true) {
            let breakdown = json.get("breakdown").expect("answered carry a breakdown");
            for phase in ["admit_us", "queue_us", "execute_us"] {
                assert!(num_field(breakdown, phase) >= 0.0);
            }
            assert!(
                num_field(breakdown, "execute_us") >= 10_000.0,
                "the 50 ms worker stall must be attributed to execute: {response}"
            );
            answered.push(format!("cli-{i}"));
        } else {
            assert!(
                response.contains("overloaded"),
                "non-answered must be typed shed: {response}"
            );
            shed.push(format!("cli-{i}"));
        }
    }
    assert!(!answered.is_empty(), "some requests must survive overload");
    assert!(
        !shed.is_empty(),
        "a two-slot queue under eight clients must shed"
    );

    // The sampled JSONL sink: one serve.request span tree per request
    // (sample_every=1), trace_id attached, the four phases checked here
    // parented to it — shed requests included, that's what makes the
    // trace a complete account of the overload.
    let mut jsonl = String::new();
    let spans = poll_until("all request spans to reach the sink", || {
        sink::flush();
        jsonl.push_str(&cap.take_string());
        let spans = request_spans(&jsonl);
        (spans.len() >= CLIENTS).then_some(spans)
    });
    let children: Vec<Json> = jsonl
        .lines()
        .filter(|l| {
            [
                "serve.admit",
                "serve.queue_wait",
                "serve.execute",
                "serve.write",
            ]
            .iter()
            .any(|n| l.contains(&format!("\"name\":\"{n}\"")))
        })
        .map(parse)
        .collect();
    for trace_id in answered.iter().chain(&shed) {
        let (_, span_id) = spans
            .iter()
            .find(|(id, _)| id == trace_id)
            .unwrap_or_else(|| panic!("no serve.request span for {trace_id} in sink"));
        let phase_names: Vec<&str> = children
            .iter()
            .filter(|c| c.get("parent").and_then(Json::as_f64) == Some(*span_id))
            .map(|c| c.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        for phase in [
            "serve.admit",
            "serve.queue_wait",
            "serve.execute",
            "serve.write",
        ] {
            assert!(
                phase_names.contains(&phase),
                "{trace_id}: phase {phase} missing from its span tree {phase_names:?}"
            );
        }
    }
    // Slow requests announce themselves: the 50 ms stall beats the 20 ms
    // threshold, so every answered request logged a serve.slow event.
    for trace_id in &answered {
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"name\":\"serve.slow\"") && l.contains(trace_id.as_str())),
            "answered request {trace_id} must be flagged slow"
        );
    }

    // The per-daemon counters reconcile exactly with the client's view:
    // `serve.requests` counts admitted work, `serve.shed` the refusals —
    // together they account for every client, nothing dropped.
    let stats = parse(&one_shot(&sock, r#"{"op":"stats"}"#).expect("final stats"));
    let counters = stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .expect("counters");
    assert_eq!(
        num_field(counters, "serve.requests") as usize,
        answered.len()
    );
    assert_eq!(num_field(counters, "serve.shed") as usize, shed.len());
    assert_eq!(num_field(counters, "serve.slow") as usize, answered.len());

    // The flight recorder replays the same story over the wire: the obs
    // dump op returns sink-format JSONL whose request spans carry the same
    // trace_ids the sink saw.
    poll_until("all requests to reach the flight ring", || {
        let obs = parse(&one_shot(&sock, r#"{"op":"obs","dump":true}"#).expect("obs dump"));
        assert_eq!(obs.get("ok").and_then(Json::as_bool), Some(true));
        let dump = str_field(&obs, "dump");
        assert!(
            dump.starts_with("{\"t\":\"flight\""),
            "dump leads with its header"
        );
        let dumped = request_spans(dump);
        answered
            .iter()
            .chain(&shed)
            .all(|trace_id| dumped.iter().any(|(id, _)| id == trace_id))
            .then_some(())
    });

    // And the ring outlives the daemon: after shutdown, a post-mortem
    // dump still holds the requests.
    server.begin_shutdown();
    server.join();
    let post_mortem = flight::dump();
    assert!(
        request_spans(&post_mortem)
            .iter()
            .any(|(id, _)| id == &answered[0]),
        "post-shutdown flight dump lost the request history"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sampled_requests_phase_spans_cover_its_request_span() {
    const REQUESTS: usize = 24;
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _guard = ObsGuard;
    let cap = Capture::default();
    sink::install_writer(Box::new(cap.clone()));
    proxim_obs::set_level(proxim_obs::Level::Trace);

    let dir = scratch_dir("cover");
    let server = start_server(
        &dir,
        ServeOptions {
            trace_sample_every: 1,
            flight_capacity: FLIGHT_CAPACITY,
            ..ServeOptions::default()
        },
    );
    // One keep-alive connection, so every request also pays a frame read
    // and a parse on the connection thread, and answers echo both.
    let mut stream =
        std::os::unix::net::UnixStream::connect(server.socket_path()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for i in 0..REQUESTS {
        let response = proxim_serve::proto::call(&mut stream, &query_json(&format!("cover-{i}")))
            .expect("query");
        let json = parse(&response);
        let breakdown = json.get("breakdown").expect("answered carry a breakdown");
        for phase in ["read_us", "parse_us", "admit_us", "queue_us", "execute_us"] {
            assert!(num_field(breakdown, phase) >= 0.0, "{response}");
        }
    }
    drop(stream);

    // The phases partition the request: each child span starts where the
    // previous one ended, so the children sum to the request span up to
    // the rounding of each child to whole microseconds.
    const PHASES: [&str; 7] = [
        "serve.read",
        "serve.parse",
        "serve.admit",
        "serve.queue_wait",
        "serve.execute",
        "serve.render",
        "serve.write",
    ];
    let mut jsonl = String::new();
    let spans = poll_until("every request span to reach the sink", || {
        sink::flush();
        jsonl.push_str(&cap.take_string());
        let spans: Vec<_> = request_spans(&jsonl)
            .into_iter()
            .filter(|(id, _)| id.starts_with("cover-"))
            .collect();
        (spans.len() >= REQUESTS).then_some(spans)
    });
    let records: Vec<Json> = jsonl.lines().map(parse).collect();
    for (trace_id, span_id) in &spans {
        let request = records
            .iter()
            .find(|r| r.get("id").and_then(Json::as_f64) == Some(*span_id))
            .expect("the request span itself");
        let children: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("parent").and_then(Json::as_f64) == Some(*span_id))
            .collect();
        let names: Vec<&str> = children.iter().map(|c| str_field(c, "name")).collect();
        assert_eq!(names, PHASES, "{trace_id}: phase spans");
        let total = num_field(request, "dur");
        let covered: f64 = children.iter().map(|c| num_field(c, "dur")).sum();
        let residual = total - covered;
        assert!(
            (0.0..=PHASES.len() as f64).contains(&residual),
            "{trace_id}: phases cover {covered} of {total} us"
        );
    }

    server.begin_shutdown();
    let snap = server.join();
    for name in [
        proxim_obs::serve_metrics::PHASE_READ_SECONDS,
        proxim_obs::serve_metrics::PHASE_PARSE_SECONDS,
        proxim_obs::serve_metrics::PHASE_RENDER_SECONDS,
    ] {
        let count = snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count as usize, REQUESTS, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_op_flips_sampling_and_level_at_runtime() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _guard = ObsGuard;
    let cap = Capture::default();
    sink::install_writer(Box::new(cap.clone()));
    proxim_obs::set_level(proxim_obs::Level::Trace);

    // Head sampling off; the fast query stays far under the slow
    // threshold, so nothing should reach the sink.
    let dir = scratch_dir("flip");
    let server = start_server(
        &dir,
        ServeOptions {
            trace_sample_every: 0,
            flight_capacity: FLIGHT_CAPACITY,
            ..ServeOptions::default()
        },
    );
    let sock = server.socket_path().to_path_buf();

    assert!(one_shot(&sock, &query_json("pre-flip"))
        .expect("query")
        .contains("\"ok\":true"));
    // Emission trails the response; give it a beat before the negative check.
    std::thread::sleep(Duration::from_millis(50));
    sink::flush();
    assert!(
        request_spans(&cap.take_string()).is_empty(),
        "with sampling off and the request fast, the sink must stay silent"
    );

    // Flip sampling to every request — over the wire, no restart — and
    // the next request lands in the sink.
    let obs = parse(&one_shot(&sock, r#"{"op":"obs","sample_every":1}"#).expect("obs flip"));
    assert_eq!(obs.get("ok").and_then(Json::as_bool), Some(true));
    let echoed = obs.get("obs").expect("obs response echoes the config");
    assert_eq!(num_field(echoed, "sample_every") as u64, 1);
    assert_eq!(str_field(echoed, "level"), "trace");

    assert!(one_shot(&sock, &query_json("post-flip"))
        .expect("query")
        .contains("\"ok\":true"));
    let mut sampled_jsonl = String::new();
    poll_until("the post-flip request to be sampled", || {
        sink::flush();
        sampled_jsonl.push_str(&cap.take_string());
        request_spans(&sampled_jsonl)
            .iter()
            .any(|(id, _)| id == "post-flip")
            .then_some(())
    });

    // Level off silences the sink entirely (the flight ring keeps
    // recording — that is its whole point), and stats echoes the change.
    parse(&one_shot(&sock, r#"{"op":"obs","level":"off"}"#).expect("level off"));
    let flight_before = flight::recorded();
    assert!(one_shot(&sock, &query_json("dark"))
        .expect("query")
        .contains("\"ok\":true"));
    poll_until("the dark request to reach the flight ring", || {
        (flight::recorded() > flight_before).then_some(())
    });
    sink::flush();
    assert!(
        request_spans(&cap.take_string()).is_empty(),
        "level off must silence the sink"
    );
    let stats = parse(&one_shot(&sock, r#"{"op":"stats"}"#).expect("stats"));
    assert_eq!(
        str_field(stats.get("obs").expect("obs in stats"), "level"),
        "off"
    );

    server.begin_shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_sigterm_drain_leaves_a_flight_dump_with_the_traced_request() {
    use std::process::{Command, Stdio};

    let dir = scratch_dir("drain_dump");
    let socket = dir.join("serve.sock");
    let dump_path = dir.join("flight.jsonl");
    let stdout_path = dir.join("serve.out");
    let stdout = std::fs::File::create(&stdout_path).expect("stdout capture");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_proxim_serve"))
        .args(["serve", "--demo", "--workers", "1", "--sample-every", "1"])
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--socket")
        .arg(&socket)
        .arg("--flight-out")
        .arg(&dump_path)
        .stdout(Stdio::from(stdout))
        .spawn()
        .expect("daemon spawns");

    // Wait for readiness (the --demo path characterizes first).
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let ready = std::fs::read_to_string(&stdout_path)
            .map(|t| t.contains("ready"))
            .unwrap_or(false);
        if ready {
            break;
        }
        assert!(
            daemon.try_wait().expect("child wait").is_none(),
            "daemon died before becoming ready"
        );
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }

    let query = concat!(
        "{\"op\":\"query\",\"model\":\"nand2_demo\",\"trace_id\":\"drain-proof\",",
        "\"events\":[{\"pin\":0,\"edge\":\"rise\",\"t\":0.0,\"tt\":4e-10},",
        "{\"pin\":1,\"edge\":\"rise\",\"t\":5e-11,\"tt\":4e-10}]}"
    );
    let response = one_shot(&socket, query).expect("traced query");
    assert!(response.contains("\"ok\":true"), "query failed: {response}");
    assert!(response.contains("drain-proof"), "trace_id echo missing");

    // SIGTERM → drain → the binary writes the armed flight dump on exit.
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let status = daemon.wait().expect("reap daemon");
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");

    let dump = std::fs::read_to_string(&dump_path).expect("drain must leave a flight dump");
    let header = parse(dump.lines().next().expect("dump header"));
    assert_eq!(header.get("t").and_then(Json::as_str), Some("flight"));
    for line in dump.lines().skip(1) {
        parse(line); // every record is whole
    }
    assert!(
        request_spans(&dump)
            .iter()
            .any(|(id, _)| id == "drain-proof"),
        "the traced request must be recoverable from the post-SIGTERM dump"
    );

    std::fs::remove_dir_all(&dir).ok();
}
