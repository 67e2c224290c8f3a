//! Structured tracing, metrics, and trace export for the proximity stack.
//!
//! Characterization runs thousands of transient solves behind every grid
//! point, and the pipeline around them makes runtime decisions — recovery
//! rungs, step cuts, cache quarantines, degraded slices — that are invisible
//! in end-of-run totals. This crate is the shared observability layer that
//! makes those decisions inspectable without taxing the hot path:
//!
//! - **Levels** ([`Level`]): one process-wide atomic gates everything.
//!   [`Level::Off`] (the default) reduces every instrumentation site to an
//!   atomic load and a branch; [`Level::Metrics`] enables registry updates;
//!   [`Level::Trace`] additionally emits spans and events to the installed
//!   sink.
//! - **Metrics** ([`metrics::Registry`]): counters, gauges, and fixed-bucket
//!   histograms. The process-wide registry ([`Registry::global`]) aggregates
//!   across the whole run; local registries can be created for per-run
//!   accounting that must not bleed across concurrent runs (the
//!   characterization pipeline derives its `CharStats` from one).
//! - **Tracing** ([`trace`]): spans (scoped, nested per thread, monotonic
//!   microsecond timestamps, stable thread ids) and instant events, both
//!   carrying key/value args. Emission is line-oriented JSON via [`sink`].
//! - **Export** ([`sink`], [`chrome`]): a JSONL sink installed from the
//!   `PROXIM_TRACE` environment variable, and a converter to the Chrome
//!   `trace_event` format so a run can be opened in `about:tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! # Example
//!
//! ```
//! use proxim_obs as obs;
//!
//! // Metrics work against any registry; the global one is the default.
//! let reg = obs::Registry::new();
//! let solves = reg.counter("demo.solves");
//! solves.add(3);
//! let h = reg.histogram("demo.iters", &[1.0, 2.0, 4.0, 8.0]);
//! h.observe(3.0);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.solves"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod chrome;
pub mod exposition;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use trace::{event, span, Event, Span};

/// Metric names of the batched transient kernel, which has been removed.
/// Nothing books them any more, so they always read zero; they stay only so
/// existing readers of these names keep compiling.
pub mod batch_metrics {
    /// Histogram: requested batch size. Nothing books it any more.
    pub const LANES: &str = "spice.batch.lanes";
    /// Histogram: live lanes per lockstep round. Nothing books it any more.
    pub const ACTIVE_LANES: &str = "spice.batch.active_lanes";
    /// Counter: lanes evicted to the scalar path. Nothing books it any more.
    pub const EVICTIONS: &str = "spice.batch.evictions";
}

/// Shared metric names (and bucket bounds) for the timing-query daemon,
/// owned here so the producer (`proxim-serve`) and the consumers
/// (`proxim-bench`'s `bench_serve`, operational dashboards reading the
/// final-metrics flush) cannot drift apart.
pub mod serve_metrics {
    /// Counter: requests admitted (everything that was not shed, including
    /// requests that later fail typed).
    pub const REQUESTS: &str = "serve.requests";
    /// Counter: requests shed at admission with a typed `overloaded`
    /// response because every permit was held and the wait line was full.
    pub const SHED: &str = "serve.shed";
    /// Gauge: instantaneous admission-queue depth: admitted requests
    /// waiting for an in-flight permit.
    pub const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Counter: frames rejected at the protocol boundary (oversized,
    /// truncated, non-UTF-8, malformed JSON, structural caps).
    pub const PROTO_ERRORS: &str = "serve.proto_errors";
    /// Counter: requests that expired their per-request wall-clock
    /// deadline before or during evaluation.
    pub const DEADLINE_EXPIRED: &str = "serve.deadline_expired";
    /// Counter: answers served through a documented degraded fallback
    /// (`GateTiming::degradation` was `Some`).
    pub const DEGRADED_ANSWERS: &str = "serve.degraded_answers";
    /// Counter: store entries quarantined during library load.
    pub const STORE_QUARANTINED: &str = "serve.store.quarantined";
    /// Counter: connections accepted.
    pub const CONNECTIONS: &str = "serve.connections";
    /// Gauge: currently open connections.
    pub const ACTIVE_CONNECTIONS: &str = "serve.connections.active";
    /// Counter: connections dropped because a slow client stalled a
    /// response write past the write timeout.
    pub const WRITE_TIMEOUTS: &str = "serve.write_timeouts";
    /// Histogram: request latency from admission to response render,
    /// in seconds.
    pub const REQUEST_SECONDS: &str = "serve.request.seconds";
    /// Bucket bounds for [`REQUEST_SECONDS`]: table-lookup queries are
    /// microseconds, so the buckets start well below a millisecond.
    pub const REQUEST_SECONDS_BOUNDS: &[f64] = &[
        10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 1.0,
    ];
    /// Histogram: time from a request frame's first byte arriving to its
    /// last, seconds.
    pub const PHASE_READ_SECONDS: &str = "serve.phase.read.seconds";
    /// Histogram: time spent decoding a request frame, seconds.
    pub const PHASE_PARSE_SECONDS: &str = "serve.phase.parse.seconds";
    /// Histogram: time a request spent in admission (model resolution +
    /// the shed decision), seconds.
    pub const PHASE_ADMIT_SECONDS: &str = "serve.phase.admit.seconds";
    /// Histogram: time an admitted request waited for an in-flight permit,
    /// seconds.
    pub const PHASE_QUEUE_SECONDS: &str = "serve.phase.queue_wait.seconds";
    /// Histogram: time spent evaluating the request under its permit,
    /// seconds.
    pub const PHASE_EXECUTE_SECONDS: &str = "serve.phase.execute.seconds";
    /// Histogram: time spent rendering the response, seconds.
    pub const PHASE_RENDER_SECONDS: &str = "serve.phase.render.seconds";
    /// Histogram: time spent writing the response frame to the client,
    /// seconds.
    pub const PHASE_WRITE_SECONDS: &str = "serve.phase.write.seconds";
    /// Bucket bounds for the per-phase histograms: phases bottom out well
    /// under the end-to-end bounds, so these start at a microsecond.
    pub const PHASE_SECONDS_BOUNDS: &[f64] = &[
        1e-6, 3e-6, 10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 1.0,
    ];
    /// Counter: requests whose end-to-end latency crossed the slow-request
    /// threshold (they are force-sampled into the trace and logged).
    pub const SLOW: &str = "serve.slow";
    /// Counter: requests whose trace was emitted to the JSONL sink (head
    /// sampling plus forced slow samples).
    pub const TRACE_SAMPLED: &str = "serve.trace.sampled";
    /// Gauge: daemon uptime in seconds, refreshed on every snapshot the
    /// introspection plane renders.
    pub const UPTIME_SECONDS: &str = "serve.uptime.seconds";
    /// Gauge: the library generation currently serving (bumped by every
    /// successful hot reload).
    pub const GENERATION: &str = "serve.generation";
    /// Counter: hot reloads that validated and swapped in.
    pub const RELOAD_SWAPPED: &str = "serve.reload.swapped";
    /// Counter: hot reloads whose candidate was rejected (worse than the
    /// live generation, or its store root was unreadable).
    pub const RELOAD_REJECTED: &str = "serve.reload.rejected";
    /// Gauge: bytes of model data currently resident in the library
    /// (never exceeds the configured memory budget after load completes).
    pub const LIBRARY_RESIDENT_BYTES: &str = "serve.library.resident_bytes";
    /// Counter: models evicted from residency to stay under the memory
    /// budget (the library drops its reference; in-flight holders keep
    /// theirs).
    pub const LIBRARY_EVICTIONS: &str = "serve.library.evictions";
    /// Counter: requests that found their model non-resident and paid a
    /// cold load from the store.
    pub const LIBRARY_COLD_MISSES: &str = "serve.library.cold_misses";
    /// Counter: requests that waited on another request's in-progress cold
    /// load instead of loading the same model twice (single-flight).
    pub const LIBRARY_SINGLEFLIGHT_WAITS: &str = "serve.library.singleflight_waits";
    /// Counter: quarantine renames that themselves failed (read-only or
    /// full disk); the corrupt entry stayed in place and the failure is
    /// reported distinctly from successful quarantines.
    pub const QUARANTINE_FAILED: &str = "serve.store.quarantine_failed";
    /// Counter: disk writes (store entries, quarantine renames, metrics
    /// snapshots, flight dumps) that failed with a typed ENOSPC/EIO and
    /// were degraded instead of panicking.
    pub const DISK_FAULTS: &str = "serve.disk.faults";
    /// Gauge: replicas the fleet supervisor currently counts as up
    /// (spawned, probing healthy, not quarantined).
    pub const FLEET_REPLICAS_UP: &str = "serve.fleet.replicas_up";
    /// Counter: replica restarts the fleet supervisor performed after a
    /// crash or a wedged startup.
    pub const FLEET_RESTARTS: &str = "serve.fleet.restarts";
    /// Counter: replicas quarantined for crash-looping (at least the
    /// configured number of exits inside the quarantine window); the
    /// supervisor stops restarting them and the fleet serves degraded on
    /// the survivors.
    pub const FLEET_QUARANTINED: &str = "serve.fleet.quarantined";
    /// Counter: hedged attempts the fleet client issued — a second copy of
    /// an idempotent request sent to a different replica after the hedge
    /// delay elapsed without a response.
    pub const FLEET_HEDGES: &str = "serve.fleet.hedges";
    /// Counter: hedged attempts whose response arrived before the primary
    /// attempt's (first-response-wins).
    pub const FLEET_HEDGE_WINS: &str = "serve.fleet.hedge_wins";
}

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};

/// How much observability the process pays for.
///
/// Stored in one process-wide atomic; every instrumentation site loads it
/// (relaxed) and branches, so the disabled cost is a couple of nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// No metrics, no tracing (the default).
    #[default]
    Off = 0,
    /// Update the global metrics registry; no span/event emission.
    Metrics = 1,
    /// Metrics plus span/event emission to the installed sink, and
    /// fine-grained solver profiling (LU timing) in the simulator.
    Trace = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Sets the process-wide observability level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide observability level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Metrics,
        _ => Level::Trace,
    }
}

/// Whether metric updates should be recorded against the global registry.
#[inline]
pub fn metrics_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Metrics as u8
}

/// Whether spans and events are emitted. Requires [`Level::Trace`] *and* an
/// installed sink: tracing with nowhere to write would be pure overhead.
#[inline]
pub fn trace_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Trace as u8 && sink::is_installed()
}

/// Initializes tracing from the environment: when `PROXIM_TRACE` names a
/// path, installs a JSONL sink writing there and raises the level to
/// [`Level::Trace`]. Returns the trace path when tracing was armed.
///
/// A path that cannot be created is reported on stderr and ignored rather
/// than failing the run — observability must never take the workload down.
pub fn init_from_env() -> Option<PathBuf> {
    let path = std::env::var_os("PROXIM_TRACE")?;
    if path.is_empty() {
        return None;
    }
    let path = PathBuf::from(path);
    match sink::install_jsonl(&path) {
        Ok(()) => {
            set_level(Level::Trace);
            Some(path)
        }
        Err(e) => {
            eprintln!("PROXIM_TRACE: cannot open {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_correctly() {
        assert!(Level::Off < Level::Metrics);
        assert!(Level::Metrics < Level::Trace);
        assert_eq!(Level::default(), Level::Off);
    }
}
