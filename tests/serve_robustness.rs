//! Robustness suite for the timing-query daemon: hostile bytes on the
//! wire, corrupt bytes in the store, injected wire faults (a seeded
//! `FaultPlan` in [`ServeOptions`]) and degraded-model provenance — all
//! end to end over a real Unix socket against an in-process [`Server`].
//!
//! The invariant under test everywhere: malformed input produces a *typed*
//! outcome (a `{"ok":false,"error":{"kind":...}}` response, a quarantined
//! file, a clean close) and never a panic, a wedge, or a silent drop. After
//! every abuse, the daemon must still answer its health probe.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use proxim_obs::json::Json;
use proxim_serve::proto::{frame_bytes, MAX_FRAME_BYTES};
use proxim_serve::server::one_shot;
use proxim_serve::{ModelLibrary, ModelStore, ServeOptions, Server};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim_srvrb_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One shared fast model: characterization is the expensive part of this
/// suite, so it runs once for every test in the file.
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

/// Sends raw bytes, half-closes the write side, and drains everything the
/// server says back before it closes the connection.
fn send_raw(socket: &Path, bytes: &[u8]) -> Vec<u8> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("send corpus bytes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

/// Decodes a drained byte stream as length-prefixed frames; every frame
/// must be complete and UTF-8 (a torn or binary-garbage response would be
/// its own protocol violation).
fn decode_frames(mut bytes: &[u8]) -> Vec<String> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        assert!(bytes.len() >= 4, "torn length prefix in server response");
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert!(bytes.len() >= 4 + len, "torn frame in server response");
        frames.push(String::from_utf8(bytes[4..4 + len].to_vec()).expect("UTF-8 response"));
        bytes = &bytes[4 + len..];
    }
    frames
}

/// The malformed-wire corpus: (name, raw bytes, expected error kind;
/// `None` = a clean close is the only correct answer). Shared by the Unix
/// and TCP runs — the front ends must harden identically.
fn malformed_wire_corpus() -> Vec<(&'static str, Vec<u8>, Option<&'static str>)> {
    let huge_advert = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    let nesting_bomb = frame_bytes("[".repeat(200_000).as_bytes());
    let negative_tt = frame_bytes(
        br#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0,"tt":-1e-9}]}"#,
    );
    let batch_bomb = {
        let q = r#"{"events":[{"pin":0,"edge":"rise","t":0,"tt":1e-9}]}"#;
        frame_bytes(
            format!(
                r#"{{"op":"batch","model":"inv","queries":[{}]}}"#,
                vec![q; 300].join(",")
            )
            .as_bytes(),
        )
    };
    let oversized_label =
        frame_bytes(format!(r#"{{"op":"reload","label":"{}"}}"#, "g".repeat(65)).as_bytes());

    vec![
        ("empty connection", vec![], None),
        ("truncated length prefix", vec![0x00, 0x01], Some("bad_frame")),
        ("truncated payload", frame_bytes(b"{\"op\":")[..7].to_vec(), Some("bad_frame")),
        ("oversized advertisement", huge_advert, Some("bad_frame")),
        ("non-UTF8 payload", frame_bytes(&[0xff, 0xfe, 0x80, 0x00]), Some("bad_frame")),
        // 0x07 is a valid (control) UTF-8 byte, so this passes the frame
        // layer and fails as an unparseable request.
        ("binary garbage, plausible length", frame_bytes(&[0x07; 64]), Some("bad_request")),
        ("garbage JSON", frame_bytes(b"}}}}not json"), Some("bad_request")),
        ("nesting bomb", nesting_bomb, Some("bad_request")),
        ("unknown op", frame_bytes(br#"{"op":"conquer"}"#), Some("bad_request")),
        ("missing events", frame_bytes(br#"{"op":"query","model":"inv"}"#), Some("bad_request")),
        ("negative transition time", negative_tt, Some("bad_request")),
        ("oversized batch", batch_bomb, Some("bad_request")),
        (
            "path-traversal model name",
            frame_bytes(
                br#"{"op":"query","model":"../../etc","events":[{"pin":0,"edge":"rise","t":0,"tt":1e-9}]}"#,
            ),
            Some("bad_request"),
        ),
        (
            "unknown model",
            frame_bytes(
                br#"{"op":"query","model":"absent","events":[{"pin":0,"edge":"rise","t":0,"tt":1e-9}]}"#,
            ),
            Some("unknown_model"),
        ),
        // The reload op is control-plane input and gets the same hostile
        // treatment: every malformed variant is a typed refusal, and the
        // live generation is untouched (checked via the swap counter at
        // the bottom of the test).
        (
            "reload with string force",
            frame_bytes(br#"{"op":"reload","force":"yes"}"#),
            Some("bad_request"),
        ),
        (
            "reload with numeric force",
            frame_bytes(br#"{"op":"reload","force":1}"#),
            Some("bad_request"),
        ),
        (
            "reload with null force",
            frame_bytes(br#"{"op":"reload","force":null}"#),
            Some("bad_request"),
        ),
        ("reload with oversized label", oversized_label, Some("bad_request")),
        (
            "reload with empty label",
            frame_bytes(br#"{"op":"reload","label":""}"#),
            Some("bad_request"),
        ),
        (
            "reload with hostile label charset",
            frame_bytes(br#"{"op":"reload","label":"has space"}"#),
            Some("bad_request"),
        ),
    ]
}

#[test]
fn malformed_wire_corpus_yields_typed_errors_and_zero_panics() {
    let dir = scratch_dir("corpus");
    let server = start_server(&dir, ServeOptions::default());
    let sock = server.socket_path().to_path_buf();

    for (what, bytes, expected) in malformed_wire_corpus() {
        let frames = decode_frames(&send_raw(&sock, &bytes));
        match expected {
            None => assert!(
                frames.is_empty(),
                "{what}: expected a clean close, got {frames:?}"
            ),
            Some(kind) => {
                assert_eq!(
                    frames.len(),
                    1,
                    "{what}: expected one typed response, got {frames:?}"
                );
                let json = Json::parse(&frames[0]).unwrap_or_else(|e| {
                    panic!("{what}: unparseable response ({e}): {}", frames[0])
                });
                let got = json
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{what}: no error kind in {}", frames[0]));
                assert_eq!(got, kind, "{what}: {}", frames[0]);
            }
        }
        // The daemon survived this corpus entry: the probe still answers.
        let health = one_shot(&sock, r#"{"op":"health"}"#)
            .unwrap_or_else(|e| panic!("health probe dead after {what}: {e}"));
        assert!(
            health.contains("\"status\":\"serving\""),
            "{what}: {health}"
        );
    }

    // A valid query still works after the whole corpus.
    let resp = one_shot(
        &sock,
        r#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}"#,
    )
    .expect("post-corpus query");
    assert!(resp.contains("\"timing\""), "{resp}");

    server.begin_shutdown();
    let snap = server.join();
    assert!(
        snap.counter(proxim_obs::serve_metrics::PROTO_ERRORS) >= 10,
        "every corpus rejection must be counted"
    );
    assert_eq!(
        snap.counter(proxim_obs::serve_metrics::RELOAD_SWAPPED),
        0,
        "no malformed reload may swap a generation"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// [`send_raw`] over the TCP front end.
fn send_raw_tcp(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect tcp");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("send corpus bytes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

#[test]
fn malformed_wire_corpus_over_tcp_yields_typed_errors_and_zero_panics() {
    use proxim_serve::server::one_shot_tcp;

    let dir = scratch_dir("corpus_tcp");
    let store = ModelStore::new(dir.join("store"));
    store.save("inv", shared_model()).expect("seed store");
    let server = Server::start_with(
        ModelLibrary::open(&store),
        None,
        Some("127.0.0.1:0"),
        ServeOptions::default(),
    )
    .expect("tcp server starts");
    let addr = server.tcp_addr().expect("tcp addr").to_string();

    for (what, bytes, expected) in malformed_wire_corpus() {
        let frames = decode_frames(&send_raw_tcp(&addr, &bytes));
        match expected {
            None => assert!(
                frames.is_empty(),
                "{what} over tcp: expected a clean close, got {frames:?}"
            ),
            Some(kind) => {
                assert_eq!(
                    frames.len(),
                    1,
                    "{what} over tcp: expected one typed response, got {frames:?}"
                );
                let json = Json::parse(&frames[0]).unwrap_or_else(|e| {
                    panic!("{what} over tcp: unparseable response ({e}): {}", frames[0])
                });
                let got = json
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{what} over tcp: no error kind in {}", frames[0]));
                assert_eq!(got, kind, "{what} over tcp: {}", frames[0]);
            }
        }
        let health = one_shot_tcp(&addr, r#"{"op":"health"}"#)
            .unwrap_or_else(|e| panic!("tcp health probe dead after {what}: {e}"));
        assert!(
            health.contains("\"status\":\"serving\""),
            "{what} over tcp: {health}"
        );
    }

    let resp = one_shot_tcp(
        &addr,
        r#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}"#,
    )
    .expect("post-corpus tcp query");
    assert!(resp.contains("\"timing\""), "{resp}");

    server.begin_shutdown();
    let snap = server.join();
    assert!(
        snap.counter(proxim_obs::serve_metrics::PROTO_ERRORS) >= 10,
        "every corpus rejection must be counted over tcp too"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_racing_shutdown_is_refused_typed_and_never_swaps() {
    use proxim_serve::proto::{read_frame, write_frame};

    let dir = scratch_dir("reload_race");
    let server = start_server(&dir, ServeOptions::default());
    let sock = server.socket_path().to_path_buf();

    // The connection predates the drain; the reload it then sends must be
    // refused typed (`shutting_down`) or see a clean close — never a swap,
    // never a hang.
    let mut stream = UnixStream::connect(&sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    server.begin_shutdown();
    let sent = write_frame(&mut stream, br#"{"op":"reload"}"#);
    if sent.is_ok() {
        match read_frame(&mut stream) {
            // A typed refusal, a clean close, or a reset (the drain tore
            // down the idle connection before the frame landed) are all
            // honest; a *partial* frame would not be.
            Ok(None) => {}
            Ok(Some(frame)) => {
                let text = String::from_utf8(frame).expect("UTF-8 response");
                assert!(
                    text.contains("\"shutting_down\""),
                    "a reload during drain must be a typed refusal: {text}"
                );
            }
            Err(e) => assert!(
                !e.detail.contains("truncated"),
                "reload during drain must not tear a frame: {e}"
            ),
        }
    }
    drop(stream);

    let snap = server.join();
    assert_eq!(
        snap.counter(proxim_obs::serve_metrics::RELOAD_SWAPPED),
        0,
        "a drain must never be interleaved with a generation swap"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_store_entries_quarantine_and_the_daemon_starts_degraded() {
    let dir = scratch_dir("store");
    let store = ModelStore::new(dir.join("store"));
    store.save("good", shared_model()).expect("seed store");

    // Three distinct corruptions: garbage, a torn (half-length) entry, and
    // a single flipped payload byte behind an intact header.
    let good_bytes = std::fs::read(store.entry_path("good")).expect("entry bytes");
    std::fs::write(store.entry_path("garbage"), b"not a store entry").expect("write");
    std::fs::write(
        store.entry_path("torn"),
        &good_bytes[..good_bytes.len() / 2],
    )
    .expect("write");
    let mut flipped = good_bytes.clone();
    let n = flipped.len();
    flipped[n - 1] ^= 0x40;
    std::fs::write(store.entry_path("bitrot"), &flipped).expect("write");

    let library = ModelLibrary::open(&store);
    assert_eq!(library.names(), vec!["good"]);
    assert_eq!(library.report().quarantined.len(), 3);
    for (path, reason) in &library.report().quarantined {
        assert!(path.exists(), "evidence missing: {}", path.display());
        assert!(
            path.to_string_lossy().ends_with(".quarantined"),
            "{}",
            path.display()
        );
        assert!(!reason.is_empty());
    }

    // The daemon starts *degraded*, says so, and serves the survivor.
    let server = Server::start(library, dir.join("serve.sock"), ServeOptions::default())
        .expect("degraded start");
    let sock = server.socket_path().to_path_buf();
    let health = one_shot(&sock, r#"{"op":"health"}"#).expect("health");
    assert!(health.contains("\"degraded\":true"), "{health}");
    assert!(health.contains("\"models\":1"), "{health}");
    let resp = one_shot(
        &sock,
        r#"{"op":"query","model":"good","events":[{"pin":0,"edge":"fall","t":0.0,"tt":1e-9}]}"#,
    )
    .expect("query survivor");
    assert!(resp.contains("\"timing\""), "{resp}");

    server.begin_shutdown();
    let snap = server.join();
    assert_eq!(
        snap.counter(proxim_obs::serve_metrics::STORE_QUARANTINED),
        3
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fault-injected paths (wire tears, slow reads, degraded models)
// ---------------------------------------------------------------------------

mod faulted {
    use super::*;
    use proxim_model::{DegradedReason, InputEvent, SliceKind};
    use proxim_numeric::pwl::Edge;
    use proxim_serve::proto::{read_frame, write_frame, ErrorKind};
    use proxim_spice::fault::FaultStream;
    use proxim_spice::FaultPlan;

    #[test]
    fn torn_server_frames_surface_as_typed_truncation_on_the_client() {
        let dir = scratch_dir("torn");
        // Wire fates are a pure function of (seed, connection index), so
        // pick a seed whose first connection's response tears and whose
        // second's does not: the same armed daemon must answer intact
        // after a tear.
        let tears = |plan: &FaultPlan, conn: u64| {
            FaultStream::for_connection(plan, conn)
                .torn_write(usize::MAX)
                .is_some()
        };
        let plan = (0..64)
            .map(|seed| FaultPlan {
                seed,
                torn_write: 0.5,
                ..FaultPlan::DISARMED
            })
            .find(|p| tears(p, 0) && !tears(p, 1))
            .expect("a seed that tears connection 0 only");
        let opts = ServeOptions {
            faults: plan,
            ..ServeOptions::default()
        };
        let server = start_server(&dir, opts);
        let sock = server.socket_path().to_path_buf();
        let mut stream = UnixStream::connect(&sock).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write_frame(&mut stream, br#"{"op":"health"}"#).expect("send");
        // The response write is torn to a strict prefix, so the
        // client-side frame reader must report a *typed* truncation (or,
        // if the tear kept zero bytes, a clean close) — never a hang and
        // never garbage accepted as a frame.
        match read_frame(&mut stream) {
            Ok(None) => {}
            Ok(Some(frame)) => panic!("torn write delivered a whole frame: {frame:?}"),
            Err(e) => {
                assert_eq!(e.kind, ErrorKind::BadFrame, "{e}");
                assert!(
                    e.detail.contains("truncated") || e.detail.contains("closed"),
                    "{e}"
                );
            }
        }
        drop(stream);
        // The next connection's fate is intact: the same daemon answers.
        let health = one_shot(&sock, r#"{"op":"health"}"#).expect("health after a tear");
        assert!(health.contains("serving"), "{health}");
        server.begin_shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_slow_reads_delay_but_never_wedge() {
        let dir = scratch_dir("slowread");
        let opts = ServeOptions {
            faults: FaultPlan {
                seed: 11,
                slow_read: 1.0,
                slow_read_stall: Duration::from_millis(30),
                ..FaultPlan::DISARMED
            },
            ..ServeOptions::default()
        };
        let server = start_server(&dir, opts);
        let sock = server.socket_path().to_path_buf();
        let resp = one_shot(&sock, r#"{"op":"health"}"#).expect("slowed but served");
        assert!(resp.contains("serving"), "{resp}");
        server.begin_shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_model_answers_carry_provenance_over_the_wire() {
        // The proven recipe from tests/fault_injection.rs: this seed dooms
        // a deterministic subset of characterization runs, degrading at
        // least one dual slice whose single-input models survive.
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let opts = CharacterizeOptions {
            jobs: 2,
            faults: FaultPlan {
                seed: 1996,
                newton: 0.20,
                accept: 0.05,
                kill: 0.02,
                ..FaultPlan::DISARMED
            },
            ..CharacterizeOptions::fast()
        };
        let model = ProximityModel::characterize(&cell, &tech, &opts)
            .expect("fault pressure degrades, not fails");
        assert!(model.is_degraded(), "seed 1996 must degrade slices");

        // Find a degraded dual whose singles survived and build the wire
        // query that makes the degraded pin dominant.
        let query = model
            .degraded_slices()
            .iter()
            .filter(|d| d.kind == SliceKind::Dual)
            .find_map(|d| {
                let partner = (d.pin + 1) % 2;
                if model.single_model(d.pin, d.edge).is_none()
                    || model.single_model(partner, d.edge).is_none()
                {
                    return None;
                }
                let (t_deg, t_partner) = match d.edge {
                    Edge::Falling => (0.0, 50e-12),
                    Edge::Rising => (50e-12, 0.0),
                };
                let events = [
                    InputEvent::new(d.pin, d.edge, t_deg, 400e-12),
                    InputEvent::new(partner, d.edge, t_partner, 400e-12),
                ];
                // Only serve the scenario if the in-process evaluation is
                // itself flagged (mirrors the fault_injection.rs check).
                let t = model.gate_timing(&events).ok()?;
                (t.degradation == Some(DegradedReason::DualSliceMissing)).then(|| {
                    let edge = |e: Edge| if e == Edge::Rising { "rise" } else { "fall" };
                    format!(
                        r#"{{"op":"query","model":"nand2","events":[
                            {{"pin":{},"edge":"{}","t":{:e},"tt":4e-10}},
                            {{"pin":{},"edge":"{}","t":{:e},"tt":4e-10}}]}}"#,
                        d.pin,
                        edge(d.edge),
                        t_deg,
                        partner,
                        edge(d.edge),
                        t_partner
                    )
                })
            })
            .expect("a degraded dual with surviving singles");

        let dir = scratch_dir("degraded_wire");
        let store = ModelStore::new(dir.join("store"));
        store.save("nand2", &model).expect("save degraded model");
        let library = ModelLibrary::open(&store);
        let server = Server::start(library, dir.join("serve.sock"), ServeOptions::default())
            .expect("server starts");
        let sock = server.socket_path().to_path_buf();

        let resp = one_shot(&sock, &query).expect("degraded query served");
        let json = Json::parse(&resp).expect("response json");
        let degraded = json
            .get("timing")
            .and_then(|t| t.get("degraded"))
            .and_then(Json::as_str);
        assert_eq!(
            degraded,
            Some("dual_slice_missing"),
            "degradation provenance must survive store round-trip and wire: {resp}"
        );

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(proxim_obs::serve_metrics::DEGRADED_ANSWERS), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
