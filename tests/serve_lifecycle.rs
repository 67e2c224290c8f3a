//! Lifecycle suite for the timing-query daemon: validated hot reload under
//! sustained load, memory-budgeted residency, and a synthetically full disk
//! (a seeded `FaultPlan` on the store, or `PROXIM_FAULTS` for the binary)
//! against every durable sink.
//!
//! The invariants under test: a generation swap never drops, errors, or
//! blocks an in-flight query; a rejected candidate leaves the live
//! generation untouched; with a budget below the store's total size the
//! daemon still serves the *full* model set via cold misses and eviction
//! while the resident-bytes gauge stays at or under the budget; and a
//! disk that refuses every write degrades the daemon — typed counters, a
//! clean `SIGTERM` drain, exit `0` — never panics it.

use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::ProximityModel;
use proxim_obs::serve_metrics as sm;
use proxim_serve::server::one_shot;
use proxim_serve::{LibraryOptions, ModelLibrary, ModelStore, ServeOptions, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proxim_srvlc_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One shared fast model (characterization is the expensive part), saved
/// under however many names a test needs.
fn shared_model() -> &'static ProximityModel {
    static MODEL: OnceLock<ProximityModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
            .expect("test model characterizes")
    })
}

fn seed_store(dir: &Path, names: &[&str]) -> ModelStore {
    let store = ModelStore::new(dir.join("store"));
    for name in names {
        store.save(name, shared_model()).expect("seed store");
    }
    store
}

fn query_for(name: &str) -> String {
    format!(
        r#"{{"op":"query","model":"{name}","events":[{{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}}]}}"#
    )
}

#[test]
fn hot_reload_under_sustained_load_never_drops_errors_or_blocks_a_query() {
    const CLIENTS: usize = 64;
    const SWAPS: u64 = 10;

    let dir = scratch_dir("reload_load");
    let store = seed_store(&dir, &["inv"]);
    let library = ModelLibrary::open(&store);
    let opts = ServeOptions {
        workers: 4,
        queue_capacity: 256,
        ..ServeOptions::default()
    };
    let server = Server::start(library, dir.join("serve.sock"), opts).expect("server starts");
    let sock = server.socket_path().to_path_buf();

    // 64 closed-loop clients hammer the daemon for the whole reload storm.
    // Every response must be a complete `ok` answer: a shed, a typed
    // error, or a transport failure during a swap is a test failure.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let request = query_for("inv");
                while !stop.load(Ordering::Relaxed) {
                    let resp = one_shot(&sock, &request)
                        .unwrap_or_else(|e| panic!("client {i} dropped mid-swap: {e}"));
                    assert!(
                        resp.contains("\"timing\""),
                        "client {i} got a non-ok answer mid-swap: {resp}"
                    );
                    served.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Let the load establish, then run back-to-back swaps.
    while served.load(Ordering::Relaxed) < CLIENTS as u64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for i in 0..SWAPS {
        let outcome = server
            .reload(false, Some("storm".to_string()))
            .unwrap_or_else(|rej| panic!("swap {i} rejected: {rej}"));
        assert_eq!(outcome.generation, i + 2, "generations are sequential");
        let floor = served.load(Ordering::Relaxed);
        // The swap must not block the data plane: traffic keeps flowing
        // between consecutive swaps.
        while served.load(Ordering::Relaxed) < floor + CLIENTS as u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }

    let health = one_shot(&sock, r#"{"op":"health"}"#).expect("health");
    assert!(
        health.contains(&format!("\"generation\":{}", SWAPS + 1)),
        "{health}"
    );
    server.begin_shutdown();
    let snap = server.join();
    assert_eq!(snap.counter(sm::RELOAD_SWAPPED), SWAPS);
    assert_eq!(snap.counter(sm::RELOAD_REJECTED), 0);
    assert_eq!(snap.counter(sm::SHED), 0, "a swap must never shed load");
    assert!(
        served.load(Ordering::Relaxed) >= CLIENTS as u64 * (SWAPS + 1),
        "traffic must flow across every swap"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worse_candidate_is_rejected_and_the_live_generation_is_untouched() {
    let dir = scratch_dir("reload_gate");
    let store = seed_store(&dir, &["keep", "extra"]);
    let library = ModelLibrary::open(&store);
    let server =
        Server::start(library, dir.join("serve.sock"), ServeOptions::default()).expect("starts");
    let sock = server.socket_path().to_path_buf();

    // A clean reload over the wire swaps to generation 2.
    let resp = one_shot(&sock, r#"{"op":"reload","label":"clean"}"#).expect("reload rt");
    assert!(resp.contains("\"swapped\":true"), "{resp}");
    assert!(resp.contains("\"generation\":2"), "{resp}");

    // Corrupt one entry on disk: the next candidate loads fewer models and
    // quarantines, so the gate must reject it and keep serving generation 2
    // in full — including the model whose entry just rotted.
    std::fs::write(store.entry_path("extra"), b"rotten").expect("corrupt entry");
    let rej = one_shot(&sock, r#"{"op":"reload"}"#).expect("rejected rt");
    assert!(rej.contains("\"ok\":false"), "{rej}");
    assert!(rej.contains("\"reload_rejected\""), "{rej}");
    assert!(rej.contains("\"candidate_loaded\":1"), "{rej}");
    assert!(rej.contains("\"live_loaded\":2"), "{rej}");
    let health = one_shot(&sock, r#"{"op":"health"}"#).expect("health");
    assert!(health.contains("\"generation\":2"), "{health}");
    assert!(health.contains("\"models\":2"), "{health}");
    let resp = one_shot(&sock, &query_for("extra")).expect("live generation serves");
    assert!(resp.contains("\"timing\""), "{resp}");

    // `force` is the operator's override: the shrunken candidate swaps in.
    let forced = one_shot(&sock, r#"{"op":"reload","force":true}"#).expect("forced rt");
    assert!(forced.contains("\"swapped\":true"), "{forced}");
    assert!(forced.contains("\"models\":1"), "{forced}");

    server.begin_shutdown();
    let snap = server.join();
    assert_eq!(snap.counter(sm::RELOAD_SWAPPED), 2);
    assert_eq!(snap.counter(sm::RELOAD_REJECTED), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_budget_below_the_store_size_serves_the_full_set_within_the_gauge() {
    let names = ["m_a", "m_b", "m_c", "m_d", "m_e", "m_f"];
    let dir = scratch_dir("budget");
    let store = seed_store(&dir, &names);
    let entry_cost = std::fs::metadata(store.entry_path("m_a"))
        .expect("entry metadata")
        .len();
    // Room for two resident models (plus slack), out of six on disk.
    let budget = entry_cost * 5 / 2;
    let library = ModelLibrary::open_with(
        &store,
        LibraryOptions {
            memory_budget: Some(budget),
            ..LibraryOptions::default()
        },
    );
    let server =
        Server::start(library, dir.join("serve.sock"), ServeOptions::default()).expect("starts");
    let sock = server.socket_path().to_path_buf();

    // Three full passes over a set 2.4x the budget: every model answers,
    // cold misses and evictions do the cycling.
    let mut cold_seen = 0u64;
    for _ in 0..3 {
        for name in &names {
            let resp = one_shot(&sock, &query_for(name)).expect("query");
            assert!(resp.contains("\"timing\""), "{name}: {resp}");
            if resp.contains("\"cold\":true") {
                assert!(resp.contains("\"load_us\""), "{name}: {resp}");
                cold_seen += 1;
            }
        }
    }
    assert!(
        cold_seen > 0,
        "a set over budget must pay cold misses on the wire"
    );
    let library = server.library();
    assert!(
        library.resident_bytes() <= budget,
        "resident bytes {} exceed the budget {budget}",
        library.resident_bytes()
    );
    assert!(library.resident_len() < names.len());

    server.begin_shutdown();
    let snap = server.join();
    assert!(snap.counter(sm::LIBRARY_COLD_MISSES) >= cold_seen);
    assert!(snap.counter(sm::LIBRARY_EVICTIONS) > 0);
    assert!(
        snap.gauge(sm::LIBRARY_RESIDENT_BYTES) <= budget as f64,
        "the resident-bytes gauge must respect the budget"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Disk-fault paths: every durable sink against a synthetically full disk
// ---------------------------------------------------------------------------

mod full_disk {
    use super::*;
    use proxim_serve::{DiskFaultKind, StoreError};
    use proxim_spice::FaultPlan;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    #[test]
    fn store_writes_on_a_full_disk_fail_typed_and_leave_no_debris() {
        let dir = scratch_dir("disk_store");
        let store = ModelStore::new(dir.join("store"));
        let full = store.clone().with_faults(FaultPlan {
            disk_write: 1.0,
            disk_rename: 1.0,
            disk_error: DiskFaultKind::NoSpace,
            ..FaultPlan::DISARMED
        });
        let e = full
            .save("inv", shared_model())
            .expect_err("a full disk must refuse the save");
        assert!(
            matches!(e, StoreError::DiskFull { .. }),
            "ENOSPC must surface as the typed variant, got: {e}"
        );
        assert!(e.to_string().contains("disk full"), "{e}");
        assert!(
            !store.entry_path("inv").exists(),
            "a failed save must not leave a partial entry"
        );
        store.save("inv", shared_model()).expect("disk recovered");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_rename_failure_degrades_typed_and_the_daemon_serves() {
        let dir = scratch_dir("disk_quarantine");
        let store = seed_store(&dir, &["good"]);
        std::fs::write(store.entry_path("bad"), b"rotten").expect("corrupt entry");

        let library = ModelLibrary::open(&store.with_faults(FaultPlan {
            disk_rename: 1.0,
            disk_error: DiskFaultKind::Io,
            ..FaultPlan::DISARMED
        }));
        assert_eq!(library.names(), vec!["good"]);
        assert_eq!(library.report().quarantine_failed.len(), 1);
        assert!(library.is_degraded());

        let server = Server::start(library, dir.join("serve.sock"), ServeOptions::default())
            .expect("degraded start");
        let sock = server.socket_path().to_path_buf();
        let health = one_shot(&sock, r#"{"op":"health"}"#).expect("health");
        assert!(health.contains("\"degraded\":true"), "{health}");
        let resp = one_shot(&sock, &query_for("good")).expect("survivor serves");
        assert!(resp.contains("\"timing\""), "{resp}");

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(sm::QUARANTINE_FAILED), 1);
        assert!(snap.counter(sm::DISK_FAULTS) >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End to end against the spawned binary: a full-disk `PROXIM_FAULTS`
    /// spec dooms the metrics snapshot and the flight dump, and the
    /// `SIGTERM` drain must still exit `0` with the degradation on stderr.
    #[test]
    fn a_full_disk_never_turns_a_clean_drain_into_a_failed_exit() {
        let dir = scratch_dir("disk_drain");
        let store = dir.join("store");
        let socket = dir.join("serve.sock");
        let metrics = dir.join("final_metrics.json");
        let flight = dir.join("flight.jsonl");

        // Seed the store before the faulted daemon runs: the plan arms only
        // the daemon's process, so this parent-side save is clean.
        seed_store(&dir, &["inv"]);

        let daemon = Command::new(env!("CARGO_BIN_EXE_proxim_serve"))
            .args(["serve", "--store"])
            .arg(&store)
            .arg("--socket")
            .arg(&socket)
            .arg("--metrics-out")
            .arg(&metrics)
            .arg("--flight-out")
            .arg(&flight)
            .env(
                "PROXIM_FAULTS",
                "disk_write=1,disk_rename=1,disk_error=enospc",
            )
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");

        // Wait for readiness via the socket (stdout is piped, not a file).
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if one_shot(&socket, r#"{"op":"health"}"#).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(10));
        }
        let resp = one_shot(&socket, &query_for("inv")).expect("reads still serve");
        assert!(resp.contains("\"timing\""), "{resp}");

        let term = Command::new("kill")
            .arg("-TERM")
            .arg(daemon.id().to_string())
            .status()
            .expect("send SIGTERM");
        assert!(term.success());
        let output = daemon.wait_with_output().expect("reap daemon");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            output.status.code(),
            Some(0),
            "a full disk must not fail the drain\nstderr: {stderr}"
        );
        assert!(stdout.contains("drained"), "{stdout}");
        assert!(
            stderr.contains("faults armed: seed=0,disk_write=1,disk_rename=1,disk_error=enospc"),
            "an armed daemon must say so: {stderr}"
        );
        assert!(
            stderr.contains("metrics flush degraded") && stderr.contains("disk full"),
            "the degradation must be typed on stderr: {stderr}"
        );
        assert!(
            stderr.contains("flight dump degraded"),
            "the flight sink must degrade too: {stderr}"
        );
        assert!(!metrics.exists(), "no partial snapshot may land");
        assert!(!flight.exists(), "no partial dump may land");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `PROXIM_FAULTS` spec that does not parse is refused before the daemon
/// does anything: exit 2, the offending item on stderr, no socket bound.
#[test]
fn a_malformed_fault_spec_is_refused_with_exit_2() {
    let dir = scratch_dir("bad_spec");
    let socket = dir.join("serve.sock");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_proxim_serve"))
        .args(["serve", "--store"])
        .arg(dir.join("store"))
        .arg("--socket")
        .arg(&socket)
        .env("PROXIM_FAULTS", "seed=1,disk_write=2")
        .output()
        .expect("daemon runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("PROXIM_FAULTS") && stderr.contains("disk_write=2"),
        "{stderr}"
    );
    assert!(!stderr.contains("faults armed"), "{stderr}");
    assert!(!socket.exists(), "a refused spec must not bind");
    std::fs::remove_dir_all(&dir).ok();
}
