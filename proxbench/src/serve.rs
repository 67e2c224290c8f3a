//! The serving path: an in-process `Server` on a Unix socket, driven by
//! closed-loop connections sending seeded `query`/`batch` requests, and
//! the differential check of every answer against in-process `gate_timing`.

use crate::host;
use crate::inputs::{self, Mix, Planned};
use proxim_model::{GateTiming, ProximityModel};
use proxim_obs::json::Json;
use proxim_obs::serve_metrics as sm;
use proxim_serve::proto::{self, TraceEcho};
use proxim_serve::{LibraryOptions, ModelLibrary, ModelStore, ServeOptions, Server};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One store entry the daemon serves, with the in-process model it was
/// written from (the reference for the differential check).
pub struct Entry {
    /// Store name.
    pub name: String,
    /// The characterized model.
    pub model: Arc<ProximityModel>,
}

/// A running daemon over a freshly written store.
pub struct Fixture {
    /// The served entries.
    pub entries: Vec<Entry>,
    /// The store the daemon loaded from.
    pub store: ModelStore,
    server: Server,
    /// The one CPU the daemon's threads and the clients run on (`None`:
    /// the kernel refused the affinity call; they run anywhere).
    cpu: Option<host::CpuSet>,
}

impl Fixture {
    /// Writes `entries` into a store under `dir`, opens the library with
    /// `memory_budget_entries` × the mean entry size as its budget (`None`:
    /// everything resident) and starts a default-options daemon.
    ///
    /// The daemon's threads (and, in [`Session`], the client threads) are
    /// confined to one CPU: on a 2-vCPU VM every request otherwise crosses
    /// vCPUs on each of its four thread wake-ups, which multiplies hypervisor
    /// steal into round-trip noise. Threads keep the affinity they were
    /// spawned under, so only this call's thread is confined, and only for
    /// the start.
    pub fn start(
        dir: &Path,
        entries: Vec<Entry>,
        memory_budget_entries: Option<f64>,
    ) -> std::io::Result<Self> {
        let store = ModelStore::new(dir.join("store"));
        for e in &entries {
            store
                .save(&e.name, &e.model)
                .map_err(|err| std::io::Error::other(err.to_string()))?;
        }
        let memory_budget =
            memory_budget_entries.map(|k| (k * mean_entry_bytes(&store, &entries)) as u64);
        let library = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget,
                ..LibraryOptions::default()
            },
        );
        let all = host::CpuSet::current();
        let cpu = all.map(|s| s.last_only()).filter(host::CpuSet::apply);
        let server = Server::start(library, dir.join("s.sock"), ServeOptions::default());
        if let Some(all) = all {
            all.apply();
        }
        Ok(Self {
            entries,
            store,
            server: server?,
            cpu,
        })
    }

    /// The CPU the daemon and its clients run on, if they are confined.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu.and_then(|s| s.cpus().first().copied())
    }

    /// Drains and joins the daemon.
    pub fn stop(self) {
        self.server.begin_shutdown();
        self.server.join();
    }

    fn counters(&self) -> proxim_obs::Snapshot {
        self.server.registry().snapshot()
    }
}

fn mean_entry_bytes(store: &ModelStore, entries: &[Entry]) -> f64 {
    let total: u64 = entries
        .iter()
        .map(|e| std::fs::metadata(store.entry_path(&e.name)).map_or(0, |m| m.len()))
        .sum();
    total as f64 / entries.len().max(1) as f64
}

/// One connection's requests, pre-rendered in set-up.
pub struct ConnPlan {
    planned: Vec<Planned>,
    wire: Vec<String>,
}

/// Plans `conns` connections of `per_conn` seeded requests each against
/// the fixture's entries.
pub fn plan(fx: &Fixture, seed: u64, conns: usize, per_conn: usize, mix: Mix) -> Vec<ConnPlan> {
    let inputs: Vec<usize> = fx
        .entries
        .iter()
        .map(|e| e.model.cell().input_count())
        .collect();
    (0..conns)
        .map(|c| {
            let planned = inputs::request_plan(seed, c as u64, &inputs, per_conn, mix);
            let wire = planned
                .iter()
                .map(|p| inputs::render(p, &fx.entries[p.model].name))
                .collect();
            ConnPlan { planned, wire }
        })
        .collect()
}

/// The answer part of a response: everything from `"timing":` or
/// `"results":` on. It excludes the per-request trace id and phase
/// breakdown, so repeated identical requests must match it byte for byte.
fn answer_tail(response: &str) -> Option<&str> {
    let at = response
        .find("\"timing\":")
        .or_else(|| response.find("\"results\":"))?;
    Some(&response[at..])
}

/// Server-side phases echoed on one response, microseconds.
#[derive(Debug, Clone, Copy)]
struct Echo {
    admit: f64,
    queue: f64,
    execute: f64,
    load: Option<f64>,
}

fn parse_echo(response: &str) -> Option<Echo> {
    let json = Json::parse(response).ok()?;
    let b = json.get("breakdown")?;
    let f = |k: &str| b.get(k).and_then(Json::as_f64);
    Some(Echo {
        admit: f("admit_us")?,
        queue: f("queue_us")?,
        execute: f("execute_us")?,
        load: json.get("load_us").and_then(Json::as_f64),
    })
}

/// One answered request: when it completed (seconds into its slice), its
/// round trip in microseconds, and the answers it carried.
#[derive(Debug, Clone, Copy)]
struct Sample {
    end_s: f64,
    latency_us: f64,
    answers: usize,
}

/// One closed-loop client's progress across the slices of a run. Each
/// slice connects it afresh to that slice's daemon.
#[derive(Default)]
struct Conn {
    /// Requests sent so far; the next one is `plan[sent % len]`.
    sent: usize,
    answers: usize,
    failed: usize,
    /// First-pass responses, index-aligned with the plan. Every set-up
    /// builds byte-identical models, so later slices' daemons must repeat
    /// them exactly.
    first: Vec<String>,
}

/// Sends requests until `deadline`, closed loop: the next request goes out
/// only when the previous answer is back.
fn drive(
    conn: &mut Conn,
    stream: &mut UnixStream,
    plan: &ConnPlan,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> (Vec<Sample>, Vec<Echo>) {
    let mut samples = Vec::with_capacity(1 << 14);
    let mut echoes = Vec::new();
    while Instant::now() < deadline {
        let k = conn.sent % plan.wire.len();
        let queries = plan.planned[k].queries.len();
        let t0 = Instant::now();
        let reply = proto::call(stream, &plan.wire[k]);
        let end = Instant::now();
        conn.sent += 1;
        let Ok(response) = reply else {
            conn.failed += queries;
            break;
        };
        samples.push(Sample {
            end_s: (end - start).as_secs_f64(),
            latency_us: (end - t0).as_secs_f64() * 1e6,
            answers: queries,
        });
        conn.answers += queries;
        if traced {
            echoes.extend(parse_echo(&response));
        }
        if conn.first.len() < plan.wire.len() {
            // First-pass answers are checked against the model after the
            // timed section.
            conn.first.push(response);
        } else {
            // Answers to a repeated request must repeat exactly.
            let tail = answer_tail(&response);
            if tail.is_none() || tail != answer_tail(&conn.first[k]) {
                conn.failed += queries;
            }
        }
    }
    (samples, echoes)
}

/// Longest window for the per-window statistics.
const WINDOW_S: f64 = 0.1;

/// Server counters booked during a session's slices.
#[derive(Debug, Clone, Copy, Default)]
struct Booked {
    requests: f64,
    shed: f64,
    errors: f64,
    cold_misses: f64,
    evictions: f64,
    singleflight_waits: f64,
}

impl Booked {
    fn add(&mut self, before: &proxim_obs::Snapshot, after: &proxim_obs::Snapshot) {
        let delta = |n: &str| after.counter(n).saturating_sub(before.counter(n)) as f64;
        self.requests += delta(sm::REQUESTS);
        self.shed += delta(sm::SHED);
        self.errors += delta(sm::PROTO_ERRORS) + delta(sm::DEADLINE_EXPIRED);
        self.cold_misses += delta(sm::LIBRARY_COLD_MISSES);
        self.evictions += delta(sm::LIBRARY_EVICTIONS);
        self.singleflight_waits += delta(sm::LIBRARY_SINGLEFLIGHT_WAITS);
    }
}

/// Closed-loop clients driving daemons in timed slices. The slices of one
/// run are spread across its whole timed section, between the other
/// paths' slices and each on that cycle's fresh daemon, so a stretch of
/// host contention falls on a minority of windows instead of on the whole
/// serving measurement.
pub struct Session<'a> {
    plans: &'a [ConnPlan],
    conns: Vec<Conn>,
    traced: bool,
    booked: Booked,
    cpu_s: f64,
    latencies_us: Vec<f64>,
    echoes: Vec<Echo>,
    /// Per whole window: median and 90th-percentile round trip, and the
    /// answer rate.
    windows: Vec<(f64, f64, f64)>,
}

impl<'a> Session<'a> {
    /// One client per plan; nothing is connected until the first slice.
    pub fn new(plans: &'a [ConnPlan], traced: bool) -> Self {
        Self {
            plans,
            conns: plans.iter().map(|_| Conn::default()).collect(),
            traced,
            booked: Booked::default(),
            cpu_s: 0.0,
            latencies_us: Vec::new(),
            echoes: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Connects every client to `fx` and runs them for `budget`. Process
    /// CPU is read only at the slice's boundaries.
    pub fn slice(&mut self, fx: &Fixture, budget: Duration) -> std::io::Result<()> {
        let mut streams = self
            .plans
            .iter()
            .map(|_| UnixStream::connect(fx.server.socket_path()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let before = fx.counters();
        let cpu0 = host::cpu_s();
        let t0 = Instant::now();
        let deadline = t0 + budget;
        let traced = self.traced;
        let cpu = fx.cpu;
        let results: Vec<(Vec<Sample>, Vec<Echo>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&mut streams)
                .zip(self.plans)
                .map(|((c, stream), p)| {
                    s.spawn(move || {
                        // The clients share the daemon's CPU.
                        if let Some(cpu) = cpu {
                            cpu.apply();
                        }
                        drive(c, stream, p, t0, deadline, traced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.cpu_s += host::cpu_s() - cpu0;
        drop(streams);
        self.booked.add(&before, &fx.counters());

        // The slice splits into equal windows of at most WINDOW_S; answers
        // completing after the deadline fall outside every window.
        let n = (budget.as_secs_f64() / WINDOW_S).ceil().max(1.0) as usize;
        let window_s = budget.as_secs_f64() / n as f64;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut answers = vec![0usize; n];
        for (samples, echoes) in results {
            for s in samples {
                let w = (s.end_s / window_s) as usize;
                if w < n {
                    lat[w].push(s.latency_us);
                    answers[w] += s.answers;
                }
                self.latencies_us.push(s.latency_us);
            }
            self.echoes.extend(echoes);
        }
        for (l, a) in lat.iter_mut().zip(answers) {
            if !l.is_empty() {
                let rate = a as f64 / window_s;
                self.windows
                    .push((host::quantile(l, 0.5), host::quantile(l, 0.9), rate));
            }
        }
        Ok(())
    }

    /// Checks every first-pass answer bit for bit against in-process
    /// `gate_timing` of `entries` on the same events and reports the
    /// session.
    pub fn finish(self, entries: &[Entry]) -> ServeResult {
        let b = self.booked;
        let mut out = ServeResult {
            requests: b.requests,
            shed: b.shed,
            errors: b.errors,
            cold_misses: b.cold_misses,
            evictions: b.evictions,
            singleflight_waits: b.singleflight_waits,
            echoes: self.echoes,
            latencies_us: self.latencies_us,
            ..ServeResult::default()
        };
        for (plan, c) in self.plans.iter().zip(&self.conns) {
            out.failed += c.failed + check(entries, &plan.planned, &c.first);
            out.answers += c.answers;
        }
        out.latencies_us.sort_by(f64::total_cmp);
        let column =
            |i: usize| -> Vec<f64> { self.windows.iter().map(|w| [w.0, w.1, w.2][i]).collect() };
        out.p50_us = host::median(&mut column(0));
        out.p90_us = host::median(&mut column(1));
        out.answers_per_s = host::median(&mut column(2));
        out.cpu_us_per_answer = self.cpu_s * 1e6 / out.answers.max(1) as f64;
        out
    }
}

/// What a session measured. Rate and round-trip quantiles are taken per
/// [`WINDOW_S`] window, and the median window is reported.
#[derive(Debug, Clone, Default)]
pub struct ServeResult {
    /// Request round trips, client-observed, microseconds (sorted).
    pub latencies_us: Vec<f64>,
    /// Median over windows of the window's median round trip, µs.
    pub p50_us: f64,
    /// Median over windows of the window's 90th-percentile round trip, µs.
    pub p90_us: f64,
    /// Median over windows of answers delivered per second.
    pub answers_per_s: f64,
    /// Process CPU microseconds per answer over all the slices.
    pub cpu_us_per_answer: f64,
    /// Timing answers delivered (each query of a batch counts once).
    pub answers: usize,
    /// Answers that errored, failed the check, or were lost.
    pub failed: usize,
    /// Server counters booked during the session.
    pub requests: f64,
    /// Requests shed.
    pub shed: f64,
    /// Protocol errors plus expired deadlines.
    pub errors: f64,
    /// Cold loads paid.
    pub cold_misses: f64,
    /// LRU evictions.
    pub evictions: f64,
    /// Single-flight waits.
    pub singleflight_waits: f64,
    /// Echoed server phases (traced sessions only).
    echoes: Vec<Echo>,
}

impl ServeResult {
    /// Latency quantile `q` over every request, microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        host::quantile(&mut self.latencies_us.clone(), q)
    }

    /// Quantile `q` of an echoed phase, microseconds (0 with no echoes).
    fn phase(&self, f: fn(&Echo) -> Option<f64>, q: f64) -> f64 {
        let mut xs: Vec<f64> = self.echoes.iter().filter_map(f).collect();
        if xs.is_empty() {
            return 0.0;
        }
        host::quantile(&mut xs, q)
    }

    /// Median admission microseconds.
    pub fn admit_us_p50(&self) -> f64 {
        self.phase(|e| Some(e.admit), 0.5)
    }

    /// Queue-wait microseconds at quantile `q`.
    pub fn queue_us(&self, q: f64) -> f64 {
        self.phase(|e| Some(e.queue), q)
    }

    /// Median execute microseconds.
    pub fn execute_us_p50(&self) -> f64 {
        self.phase(|e| Some(e.execute), 0.5)
    }

    /// Median cold-load microseconds echoed as `load_us` (0 with none).
    pub fn load_us_p50(&self) -> f64 {
        self.phase(|e| e.load, 0.5)
    }
}

/// Failed answers among first-pass `responses`: errors, malformed
/// responses, and any delay or transition not bit-identical to in-process
/// `gate_timing` on the planned events.
pub fn check(entries: &[Entry], planned: &[Planned], responses: &[String]) -> usize {
    let mut failed = 0;
    for (p, response) in planned.iter().zip(responses) {
        let model = &entries[p.model].model;
        let Ok(json) = Json::parse(response) else {
            failed += p.queries.len();
            continue;
        };
        let timings: Vec<Option<&Json>> = if p.batch {
            let results = json.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            (0..p.queries.len())
                .map(|i| results.get(i).and_then(|r| r.get("timing")))
                .collect()
        } else {
            vec![json.get("timing")]
        };
        for (events, wire) in p.queries.iter().zip(timings) {
            let expected = model.gate_timing(events).ok();
            if !same_answer(wire, expected.as_ref()) {
                failed += 1;
            }
        }
    }
    failed
}

fn same_answer(wire: Option<&Json>, expected: Option<&GateTiming>) -> bool {
    let (Some(wire), Some(t)) = (wire, expected) else {
        return false;
    };
    let bits = |k: &str| wire.get(k).and_then(Json::as_f64).map(f64::to_bits);
    bits("delay") == Some(t.delay.to_bits())
        && bits("output_transition") == Some(t.output_transition.to_bits())
}

/// In-process per-call costs of the serving layers, on the workload's own
/// requests and entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    /// `proto::parse_request` per request, µs.
    pub parse_us: f64,
    /// `render_timing`/`render_batch` per request, µs.
    pub render_us: f64,
    /// `ModelLibrary::acquire` of a resident model, µs.
    pub acquire_warm_us: f64,
    /// `ModelStore::load` per entry, µs.
    pub store_load_us: f64,
    /// Reading an entry file, µs.
    pub store_read_us: f64,
    /// `ProximityModel::from_json` per entry, µs.
    pub from_json_us: f64,
    /// `ProximityModel::validate` per entry, µs.
    pub validate_us: f64,
    /// Mean entry file size, bytes.
    pub entry_bytes: f64,
    /// `gate_timing` per planned query, ns.
    pub gate_timing_ns: f64,
}

/// Times each serving layer in process, in batches.
pub fn layers(fx: &Fixture, plan: &ConnPlan) -> ServeLayers {
    let mut i = 0;
    let parse_us = host::per_call_us(10_000, 0.5, || {
        black_box(proto::parse_request(plan.wire[i % plan.wire.len()].as_bytes()).ok());
        i += 1;
    });
    let answers: Vec<(bool, Vec<Result<GateTiming, proto::ProtoError>>)> = plan
        .planned
        .iter()
        .map(|p| {
            let model = &fx.entries[p.model].model;
            let results = p
                .queries
                .iter()
                .map(|q| {
                    model
                        .gate_timing(q)
                        .map_err(|e| proto::model_error_to_proto(&e))
                })
                .collect();
            (p.batch, results)
        })
        .collect();
    let echo = TraceEcho {
        trace_id: "r1234567".into(),
        admit_us: 3,
        queue_us: 20,
        execute_us: 2,
        cold_load_us: None,
    };
    let mut i = 0;
    let render_us = host::per_call_us(10_000, 0.5, || {
        let (batch, results) = &answers[i % answers.len()];
        let rendered = match (batch, results.first()) {
            (false, Some(Ok(t))) => proto::render_timing(t, Some(&echo)),
            _ => proto::render_batch(results, Some(&echo)),
        };
        black_box(rendered);
        i += 1;
    });
    let mut i = 0;
    let gate_timing_ns =
        1e3 * host::per_call_us(10_000, 0.5, || {
            let p = &plan.planned[i % plan.planned.len()];
            let model = &fx.entries[p.model].model;
            for q in &p.queries {
                black_box(model.gate_timing(q).ok());
            }
            i += 1;
        }) * plan.planned.len() as f64
            / plan.planned.iter().map(|p| p.queries.len()).sum::<usize>() as f64;

    let names: Vec<&str> = fx.entries.iter().map(|e| e.name.as_str()).collect();
    let resident = ModelLibrary::open(&fx.store);
    let mut i = 0;
    let acquire_warm_us = host::per_call_us(10_000, 0.5, || {
        black_box(resident.acquire(names[i % names.len()]).ok());
        i += 1;
    });
    let mut i = 0;
    let store_load_us = host::per_call_us(10_000, 0.5, || {
        black_box(fx.store.load(names[i % names.len()]).ok());
        i += 1;
    });
    let mut i = 0;
    let store_read_us = host::per_call_us(10_000, 0.3, || {
        black_box(std::fs::read(fx.store.entry_path(names[i % names.len()])).ok());
        i += 1;
    });
    let jsons: Vec<String> = fx
        .entries
        .iter()
        .filter_map(|e| e.model.to_json().ok())
        .collect();
    let mut i = 0;
    let from_json_us = host::per_call_us(10_000, 0.5, || {
        black_box(ProximityModel::from_json(&jsons[i % jsons.len()]).ok());
        i += 1;
    });
    let mut i = 0;
    let validate_us = host::per_call_us(10_000, 0.3, || {
        black_box(fx.entries[i % fx.entries.len()].model.validate().ok());
        i += 1;
    });
    ServeLayers {
        parse_us,
        render_us,
        acquire_warm_us,
        store_load_us,
        store_read_us,
        from_json_us,
        validate_us,
        entry_bytes: mean_entry_bytes(&fx.store, &fx.entries),
        gate_timing_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxim_cells::{Cell, Technology};
    use proxim_model::characterize::CharacterizeOptions;

    #[test]
    fn checker_rejects_a_tampered_answer() {
        let model = ProximityModel::characterize(
            &Cell::nand(2),
            &Technology::demo_5v(),
            &CharacterizeOptions::fast(),
        )
        .expect("characterizes");
        let entries = vec![Entry {
            name: "nand2".into(),
            model: Arc::new(model),
        }];
        let planned = inputs::request_plan(1, 0, &[2], 40, Mix::Warm);
        let honest: Vec<String> = planned
            .iter()
            .map(|p| {
                let m = &entries[0].model;
                let results: Vec<_> = p
                    .queries
                    .iter()
                    .map(|q| {
                        m.gate_timing(q)
                            .map_err(|e| proto::model_error_to_proto(&e))
                    })
                    .collect();
                match (p.batch, &results[0]) {
                    (false, Ok(t)) => proto::render_timing(t, None),
                    _ => proto::render_batch(&results, None),
                }
            })
            .collect();
        assert_eq!(check(&entries, &planned, &honest), 0);

        // Nudge the last digit of one delay: one answer off by one ulp-ish.
        let mut tampered = honest.clone();
        let r = &mut tampered[0];
        let at = r.find("\"delay\":").expect("has a delay") + "\"delay\":".len();
        let end = at + r[at..].find(',').expect("delay is followed by a comma");
        let digit = r.as_bytes()[end - 1];
        let swapped = if digit == b'1' { '2' } else { '1' };
        r.replace_range(end - 1..end, &swapped.to_string());
        assert_eq!(check(&entries, &planned, &tampered), 1);

        // A lost answer fails too.
        tampered[0] = r#"{"ok":false,"error":{"kind":"internal","detail":"x"}}"#.into();
        assert!(check(&entries, &planned, &tampered) >= 1);
    }

    #[test]
    fn answer_tail_skips_the_trace_echo() {
        let a =
            r#"{"ok":true,"trace_id":"r1","breakdown":{"admit_us":1},"timing":{"delay":1e-10}}"#;
        let b =
            r#"{"ok":true,"trace_id":"r9","breakdown":{"admit_us":7},"timing":{"delay":1e-10}}"#;
        assert_eq!(answer_tail(a), answer_tail(b));
        assert_eq!(answer_tail(r#"{"ok":false}"#), None);
    }
}
