//! Wire-versus-in-process differential test for the timing-query daemon.
//!
//! A seeded population of `query` and 16-query `batch` requests, with and
//! without an explicit `c_load`, is answered over a real Unix socket by a
//! [`Server`] whose library was loaded from a [`ModelStore`] (save, then
//! load). Every answer must be bit-identical — delay and output transition
//! compared by their `f64` bits — to `gate_timing` / `gate_timing_at_load`
//! evaluated in process on the model as it was *before* the store round
//! trip, and a query the model refuses must come back as the same typed
//! error. Several clients run at once, so answers are produced on several
//! connection threads under the daemon's in-flight permits.
//!
//! Behind the `fault-injection` feature, the same population is replayed
//! against a model with degraded slices, and every answer must also carry
//! the in-process `degradation` provenance.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::{GateTiming, InputEvent, ProximityModel};
use proxim_numeric::pwl::Edge;
use proxim_obs::json::Json;
use proxim_serve::proto::{self, render_timing};
use proxim_serve::{ModelLibrary, ModelStore, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Requests per client, and concurrent clients.
const REQUESTS: usize = 48;
const CLIENTS: usize = 3;
/// Queries per batch request.
const BATCH: usize = 16;

/// Fault injection is process-global: characterizations in this file take
/// this lock so a faulted one cannot leak faults into a healthy one.
static CHARACTERIZE: Mutex<()> = Mutex::new(());

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim_srvdiff_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn nand2(opts: &CharacterizeOptions) -> ProximityModel {
    ProximityModel::characterize(&Cell::nand(2), &Technology::demo_5v(), opts)
        .expect("NAND2 characterizes")
}

/// One query of the population: its events, optional load, and its wire
/// form. Times are written with Rust's shortest round-trip formatting, so
/// the daemon parses back exactly the `f64`s evaluated in process.
struct Query {
    events: Vec<InputEvent>,
    c_load: Option<f64>,
    wire: String,
}

fn random_query(rng: &mut StdRng, c_ref: f64) -> Query {
    let edge = if rng.random_range(0u64..2) == 0 {
        Edge::Rising
    } else {
        Edge::Falling
    };
    // Mostly both pins inside each other's proximity window, some single
    // switches, and one in sixteen mixed-edge scenarios the model refuses.
    let mut ramps = vec![(0, edge, 0.0, rng.random_range(100.0f64..1500.0) * 1e-12)];
    match rng.random_range(0u64..16) {
        0 => ramps.push((1, edge.opposite(), 0.0, 400e-12)),
        1..=3 => {}
        _ => ramps.push((
            1,
            edge,
            rng.random_range(-600.0f64..600.0) * 1e-12,
            rng.random_range(100.0f64..1500.0) * 1e-12,
        )),
    }
    let c_load = (rng.random_range(0u64..2) == 0).then(|| c_ref * rng.random_range(0.5f64..2.0));
    let events = ramps
        .iter()
        .map(|&(pin, edge, t, tt)| InputEvent::new(pin, edge, t, tt))
        .collect();
    let wire_events: Vec<String> = ramps
        .iter()
        .map(|&(pin, edge, t, tt)| {
            let edge = if edge == Edge::Rising { "rise" } else { "fall" };
            format!(r#"{{"pin":{pin},"edge":"{edge}","t":{t},"tt":{tt}}}"#)
        })
        .collect();
    let mut wire = format!(r#"{{"events":[{}]"#, wire_events.join(","));
    if let Some(c) = c_load {
        wire.push_str(&format!(r#","c_load":{c}"#));
    }
    wire.push('}');
    Query {
        events,
        c_load,
        wire,
    }
}

/// One request: a single query, or a batch of [`BATCH`].
fn random_request(rng: &mut StdRng, c_ref: f64) -> (bool, Vec<Query>) {
    let batch = rng.random_range(0u64..4) == 0;
    let n = if batch { BATCH } else { 1 };
    (batch, (0..n).map(|_| random_query(rng, c_ref)).collect())
}

fn in_process(model: &ProximityModel, q: &Query) -> Result<GateTiming, proto::ProtoError> {
    match q.c_load {
        Some(c) => model.gate_timing_at_load(&q.events, c),
        None => model.gate_timing(&q.events),
    }
    .map_err(|e| proto::model_error_to_proto(&e))
}

/// Asserts that one wire answer (a `timing` object or an `error` object)
/// matches the in-process outcome bit for bit.
fn assert_matches(answer: &Json, expected: &Result<GateTiming, proto::ProtoError>, what: &str) {
    match expected {
        Ok(t) => {
            let timing = answer
                .get("timing")
                .unwrap_or_else(|| panic!("{what}: expected a timing, got {answer:?}"));
            let bits = |key: &str| {
                timing
                    .get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{what}: timing lacks {key}"))
                    .to_bits()
            };
            assert_eq!(bits("delay"), t.delay.to_bits(), "{what}: delay");
            assert_eq!(
                bits("output_transition"),
                t.output_transition.to_bits(),
                "{what}: output transition"
            );
            // Provenance: the in-process answer's `degraded` field as the
            // wire renders it (null when the answer is not degraded).
            let local = Json::parse(&render_timing(t, None)).expect("in-process render parses");
            let degraded = |j: &Json| {
                j.get("timing")
                    .and_then(|t| t.get("degraded"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            assert_eq!(degraded(answer), degraded(&local), "{what}: degradation");
        }
        Err(e) => {
            let kind = answer
                .get("error")
                .and_then(|err| err.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{what}: expected an error, got {answer:?}"));
            assert_eq!(kind, e.kind.wire_name(), "{what}: error kind");
        }
    }
}

/// Saves `model` to a store, serves the store, replays the seeded
/// population from [`CLIENTS`] concurrent clients and checks every answer
/// against `model` in process. Returns how many answers were degraded.
fn differential(name: &str, model: &ProximityModel, seed: u64) -> usize {
    let dir = scratch_dir(name);
    let store = ModelStore::new(dir.join("store"));
    store.save("nand2", model).expect("save model");
    let server = Server::start(
        ModelLibrary::open(&store),
        dir.join("serve.sock"),
        ServeOptions::default(),
    )
    .expect("server starts");
    assert_eq!(server.model_count(), 1, "the saved model must load");
    let sock = server.socket_path().to_path_buf();

    let degraded: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                let sock = sock.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (client << 32));
                    let mut stream = UnixStream::connect(&sock).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    let mut degraded = 0;
                    for r in 0..REQUESTS {
                        let (batch, queries) = random_request(&mut rng, model.reference_load());
                        let wire: Vec<&str> = queries.iter().map(|q| q.wire.as_str()).collect();
                        let request = if batch {
                            format!(
                                r#"{{"op":"batch","model":"nand2","queries":[{}]}}"#,
                                wire.join(",")
                            )
                        } else {
                            // A single query's body is its events (and
                            // load) spliced into the query op.
                            format!(r#"{{"op":"query","model":"nand2",{}"#, &wire[0][1..])
                        };
                        let response = proto::call(&mut stream, &request).expect("round trip");
                        let json = Json::parse(&response)
                            .unwrap_or_else(|e| panic!("bad response {response}: {e}"));
                        let answers: Vec<&Json> = if batch {
                            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
                            json.get("results")
                                .and_then(Json::as_arr)
                                .expect("batch results")
                                .iter()
                                .collect()
                        } else {
                            vec![&json]
                        };
                        assert_eq!(answers.len(), queries.len(), "{response}");
                        for (i, (answer, q)) in answers.iter().zip(&queries).enumerate() {
                            let expected = in_process(model, q);
                            let what = format!("client {client} request {r} item {i}: {}", q.wire);
                            assert_matches(answer, &expected, &what);
                            degraded += usize::from(matches!(
                                expected,
                                Ok(GateTiming {
                                    degradation: Some(_),
                                    ..
                                })
                            ));
                        }
                    }
                    degraded
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client")).sum()
    });

    server.begin_shutdown();
    let snap = server.join();
    assert_eq!(
        snap.counter(proxim_obs::serve_metrics::DEGRADED_ANSWERS) as usize,
        degraded
    );
    std::fs::remove_dir_all(&dir).ok();
    degraded
}

#[test]
fn wire_answers_are_bit_identical_to_in_process_answers() {
    let model = {
        let _lock = CHARACTERIZE.lock().unwrap_or_else(PoisonError::into_inner);
        nand2(&CharacterizeOptions::fast())
    };
    assert!(!model.is_degraded());
    assert_eq!(differential("healthy", &model, 0x5EED_D1FF), 0);
}

#[cfg(feature = "fault-injection")]
#[test]
fn degraded_answers_carry_the_in_process_provenance_over_the_wire() {
    use proxim_spice::faultpoint::{self, FaultConfig};

    // The recipe of tests/fault_injection.rs and tests/serve_robustness.rs:
    // this seed dooms a deterministic subset of characterization runs and
    // degrades at least one dual slice.
    let model = {
        let _lock = CHARACTERIZE.lock().unwrap_or_else(PoisonError::into_inner);
        faultpoint::configure(FaultConfig {
            newton_rate: 0.20,
            accept_rate: 0.05,
            kill_rate: 0.02,
            seed: 1996,
        });
        let model = nand2(&CharacterizeOptions {
            jobs: 2,
            ..CharacterizeOptions::fast()
        });
        faultpoint::disarm();
        model
    };
    assert!(model.is_degraded(), "seed 1996 must degrade slices");
    let degraded = differential("degraded", &model, 0x5EED_DE6D);
    assert!(
        degraded > 0,
        "the population must reach a degraded slice to test its provenance"
    );
}
