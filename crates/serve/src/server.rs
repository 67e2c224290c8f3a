//! The daemon loop: bounded admission, typed shedding, deadlines, drain.
//!
//! # Threading model
//!
//! One *acceptor* thread polls a non-blocking `UnixListener`; each accepted
//! connection gets its own handler thread, and that thread does all of a
//! request's work. It reads one frame, decodes it, and either answers
//! inline (health, stats, list — probes must work even under full
//! overload, so they never wait for a permit) or admits the query: it
//! takes one of [`ServeOptions::workers`] in-flight permits (waiting in
//! line for one when all are held), evaluates, renders, releases the
//! permit, and writes the response back. A warm query thus never changes
//! threads. Per-connection request/response alternation makes the wire
//! trivially ordered: a response is always complete before the next frame
//! is read, so a drain can never tear one.
//!
//! # Robustness mechanisms (each typed, each testable)
//!
//! - **Bounded admission + load shedding**: at most `workers` requests
//!   evaluate at once and at most `queue_capacity` more wait for a permit;
//!   a request that arrives when the line is full is *shed* with a typed
//!   `overloaded` response and counted ([`serve_metrics::SHED`](sm::SHED)) — never
//!   silently dropped, never unboundedly buffered.
//! - **Per-request deadlines**: every admitted request carries a
//!   [`CancelToken`] whose wall-clock deadline starts at admission; it is
//!   checked before and between evaluations, so a request that waited out
//!   its deadline for a permit answers `deadline_exceeded` instead of
//!   burning evaluation time nobody is waiting for.
//! - **Slow-client bounds**: reads and writes against the peer carry
//!   timeouts. An idle client is closed after the read timeout; a client
//!   that stalls a response write is closed and counted
//!   ([`serve_metrics::WRITE_TIMEOUTS`](sm::WRITE_TIMEOUTS)) so it cannot pin a handler thread.
//!   The permit is released before the write, so a slow reader never holds
//!   up evaluation for anyone else.
//! - **Drain on `SIGTERM`**: cancelling [`Server::shutdown_token`] stops
//!   the acceptor, lets every admitted request finish (or answer typed),
//!   completes in-progress response writes, and [`Server::join`] returns
//!   the final metrics snapshot for the flush — exit is clean, not torn.

use crate::library::{
    judge_candidate, AcquireError, LibraryOptions, ModelLibrary, ReloadRejection,
};
use crate::proto::{
    self, frame_bytes, is_timeout, model_error_to_proto, parse_request, read_frame, render_error,
    render_error_traced, render_health, render_list, render_reload_rejected, render_reload_swapped,
    render_served, ErrorKind, FramePhases, ObsControl, ProtoError, Request, TraceEcho, WireQuery,
};
use proxim_model::{GateTiming, ProximityModel};
use proxim_obs::json::{push_escaped, push_f64};
use proxim_obs::serve_metrics as sm;
use proxim_obs::{exposition, flight, trace, Counter, Gauge, Histogram, Registry, Snapshot};
use proxim_spice::fault::{FaultPlan, FaultStream};
use proxim_spice::CancelToken;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for one daemon instance. Every bound exists so that no client,
/// workload, or peer behaviour can make the daemon's memory or thread-hold
/// time unbounded.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// In-flight permits: how many admitted requests may evaluate at once.
    /// Connection threads evaluate their own requests, each holding a
    /// permit while it does.
    pub workers: usize,
    /// How many admitted requests may wait for a permit when all are held;
    /// a request beyond that is shed with a typed `overloaded` response.
    pub queue_capacity: usize,
    /// Wall-clock budget per admitted request, measured from admission
    /// (permit wait included).
    pub request_deadline: Duration,
    /// How long a connection may sit idle (no frame started) before it is
    /// closed.
    pub read_timeout: Duration,
    /// How long a response write may stall against a slow client before
    /// the connection is dropped.
    pub write_timeout: Duration,
    /// How long [`Server::join`] waits for connection handlers to finish
    /// their in-flight responses during drain, counted from when the last
    /// admitted request has finished.
    pub drain_grace: Duration,
    /// Test hook: an artificial stall, taken while holding the permit,
    /// before each admitted request is evaluated, so overload tests and
    /// benchmarks can congest admission deterministically. It counts as
    /// execute time. Zero (the default) in production.
    pub worker_stall: Duration,
    /// Head-sampling rate for request traces: 1 in `trace_sample_every`
    /// requests is written to the JSONL sink (when tracing is on). Zero
    /// disables head sampling; slow requests are force-sampled regardless.
    /// Adjustable at runtime via the `obs` protocol op.
    pub trace_sample_every: u64,
    /// End-to-end latency at or above which a request counts as *slow*:
    /// it increments [`sm::SLOW`], emits a `serve.slow` event, and is
    /// force-sampled into the trace. Adjustable at runtime via `obs`.
    pub slow_threshold: Duration,
    /// Flight-recorder ring capacity the daemon ensures at start. The
    /// recorder is process-wide and its capacity is fixed at first enable;
    /// zero leaves the recorder exactly as the process configured it
    /// (neither enabled nor disabled).
    pub flight_capacity: usize,
    /// Wire fault sites (`torn_write`, `slow_read`) armed on every
    /// connection; disarmed by default.
    pub faults: FaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            request_deadline: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
            worker_stall: Duration::ZERO,
            trace_sample_every: 16,
            slow_threshold: Duration::from_millis(250),
            flight_capacity: flight::DEFAULT_CAPACITY,
            faults: FaultPlan::DISARMED,
        }
    }
}

/// One row of the live in-flight request table the `stats` op reports.
struct InFlight {
    trace_id: String,
    op: &'static str,
    since: Instant,
    phase: &'static str,
}

/// The per-request trace context a connection carries from the frame's
/// first byte to the end of the response write, where [`finish_request`]
/// turns it into histograms, sampling decisions, and retroactive spans.
///
/// The phases partition the request: each one ends at the instant the next
/// begins, so their sum is the request's whole server-side time up to
/// microsecond rounding.
struct ReqTrace {
    seq: u64,
    trace_id: String,
    op: &'static str,
    /// When the frame's first byte arrived.
    start: Instant,
    frame: FramePhases,
    admit_us: u64,
    queue_us: u64,
    execute_us: u64,
    render_us: u64,
    /// When the last phase before the write ended.
    write_start: Instant,
}

/// When a query's frame started arriving, finished arriving, and finished
/// parsing: the clock readings its `read` and `parse` phases come from.
#[derive(Clone, Copy)]
struct FrameClock {
    first_byte: Instant,
    read: Instant,
    parsed: Instant,
}

/// The in-flight limit: permit holders evaluate, waiters queue for a
/// permit. A released permit passes straight to a waiter when there is
/// one (`handed`), so a new arrival cannot take it first.
#[derive(Default)]
struct Permits {
    held: usize,
    waiting: usize,
    /// Permits passed on by a release and not yet claimed by a waiter.
    handed: usize,
}

impl Permits {
    /// Whether any admitted request still holds or waits for a permit.
    fn busy(&self) -> bool {
        self.held > 0 || self.waiting > 0
    }
}

/// A held in-flight permit; dropping it releases the permit on every exit
/// path, unwinding included.
struct Permit<'a> {
    shared: &'a Shared,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut permits = lock(&self.shared.permits);
        if permits.waiting > permits.handed {
            permits.handed += 1;
            self.shared.permit_freed.notify_one();
        } else {
            permits.held -= 1;
        }
    }
}

struct Shared {
    /// The live library generation. Every request clones the `Arc` under a
    /// brief lock (a pointer copy, never held across I/O or evaluation);
    /// reload swaps the `Arc`, and in-flight requests finish on the
    /// generation they started on.
    library: Mutex<Arc<ModelLibrary>>,
    /// Serializes reloads: candidate load + validation happens off to the
    /// side, and two concurrent `reload` ops must not race their swaps.
    reload_lock: Mutex<()>,
    opts: ServeOptions,
    shutdown: CancelToken,
    permits: Mutex<Permits>,
    /// Signalled when a release hands a permit to a waiter.
    permit_freed: Condvar,
    registry: Arc<Registry>,
    active_conns: AtomicUsize,
    conn_seq: AtomicU64,
    started: Instant,
    /// Request sequence counter; also drives head sampling.
    req_seq: AtomicU64,
    /// Live copies of the runtime-adjustable observability knobs.
    sample_every: AtomicU64,
    slow_us: AtomicU64,
    /// Permit-line length changes seen; rate-limits the depth counter track
    /// (see [`Shared::emit_queue_depth`]).
    depth_emit_seq: AtomicU64,
    /// The in-flight request table, keyed by request sequence number.
    inflight: Mutex<BTreeMap<u64, InFlight>>,
    /// Pre-resolved handles for the metrics touched on every request —
    /// a registry lookup is a global lock plus a name allocation, which
    /// is fine per connection but not per request.
    hot: HotMetrics,
}

/// Metric handles resolved once at startup for the per-request path.
struct HotMetrics {
    requests: Counter,
    shed: Counter,
    slow: Counter,
    trace_sampled: Counter,
    queue_depth: Gauge,
    request_seconds: Histogram,
    phase_read: Histogram,
    phase_parse: Histogram,
    phase_admit: Histogram,
    phase_queue: Histogram,
    phase_execute: Histogram,
    phase_render: Histogram,
    phase_write: Histogram,
}

impl HotMetrics {
    fn resolve(registry: &Registry) -> Self {
        let hist = |name| registry.histogram(name, sm::PHASE_SECONDS_BOUNDS);
        Self {
            requests: registry.counter(sm::REQUESTS),
            shed: registry.counter(sm::SHED),
            slow: registry.counter(sm::SLOW),
            trace_sampled: registry.counter(sm::TRACE_SAMPLED),
            queue_depth: registry.gauge(sm::QUEUE_DEPTH),
            request_seconds: registry.histogram(sm::REQUEST_SECONDS, sm::REQUEST_SECONDS_BOUNDS),
            phase_read: hist(sm::PHASE_READ_SECONDS),
            phase_parse: hist(sm::PHASE_PARSE_SECONDS),
            phase_admit: hist(sm::PHASE_ADMIT_SECONDS),
            phase_queue: hist(sm::PHASE_QUEUE_SECONDS),
            phase_execute: hist(sm::PHASE_EXECUTE_SECONDS),
            phase_render: hist(sm::PHASE_RENDER_SECONDS),
            phase_write: hist(sm::PHASE_WRITE_SECONDS),
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

fn us_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// A successful reload's summary, for the wire response and the SIGHUP log
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The generation now serving.
    pub generation: u64,
    /// Servable models in the new generation.
    pub models: usize,
    /// Microseconds the candidate took to load, validate, and swap.
    pub reload_us: u64,
}

impl Shared {
    fn count(&self, name: &str) {
        self.registry.counter(name).incr();
    }

    /// The live library generation: a pointer copy under a brief lock.
    fn library(&self) -> Arc<ModelLibrary> {
        Arc::clone(&lock(&self.library))
    }

    /// Loads a candidate generation from the live library's store, judges
    /// it against the live one, and — if it is no worse (or `force`) —
    /// swaps it in. Never blocks queries: the candidate loads outside the
    /// library lock, and the swap itself is one pointer exchange.
    fn do_reload(
        &self,
        force: bool,
        label: Option<String>,
    ) -> Result<ReloadOutcome, ReloadRejection> {
        let _serial = lock(&self.reload_lock);
        let start = Instant::now();
        let live = self.library();
        let candidate = ModelLibrary::open_with(
            live.store(),
            LibraryOptions {
                memory_budget: live.options().memory_budget,
                generation: live.generation() + 1,
                label,
            },
        );
        if let Err(rej) = judge_candidate(&candidate, &live, force) {
            self.count(sm::RELOAD_REJECTED);
            drop(
                trace::event("serve.reload.rejected")
                    .arg("generation", candidate.generation())
                    .arg("reasons", rej.reasons.join("; ")),
            );
            return Err(rej);
        }
        candidate.bind_metrics(&self.registry);
        self.registry
            .counter(sm::STORE_QUARANTINED)
            .add(candidate.report().quarantined.len() as u64);
        let outcome = ReloadOutcome {
            generation: candidate.generation(),
            models: candidate.len(),
            reload_us: elapsed_us(start),
        };
        *lock(&self.library) = Arc::new(candidate);
        self.registry
            .gauge(sm::GENERATION)
            .set(outcome.generation as f64);
        self.count(sm::RELOAD_SWAPPED);
        drop(
            trace::event("serve.reload.swapped")
                .arg("generation", outcome.generation)
                .arg("models", outcome.models as u64)
                .arg("reload_us", outcome.reload_us),
        );
        Ok(outcome)
    }

    fn set_phase(&self, seq: u64, phase: &'static str) {
        if let Some(e) = lock(&self.inflight).get_mut(&seq) {
            e.phase = phase;
        }
    }

    /// Updates the queue-depth gauge (requests waiting for a permit) and,
    /// for every 64th depth change, emits a counter-track record for it. The gauge (and the live
    /// `stats` op reading it) is always exact; the trace record is a
    /// graph sample, and one in 64 is far denser than any viewer renders
    /// at serving rates. The limiter counts changes rather than watching
    /// the clock because a clock read is a syscall on some hosts — two
    /// per request is a measurable tracing tax, a relaxed fetch_add is
    /// not.
    fn emit_queue_depth(&self, depth: usize) {
        self.hot.queue_depth.set(depth as f64);
        if !(proxim_obs::trace_enabled() || flight::enabled()) {
            return;
        }
        if self
            .depth_emit_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(64)
        {
            trace::emit_counter(sm::QUEUE_DEPTH, depth as f64);
        }
    }
}

/// One transport the daemon listens on. The Unix socket is the native
/// front end; the TCP front end makes replicas reachable beyond the local
/// filesystem (a fleet spread across hosts). Both speak the identical
/// frame protocol.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Self::Unix(l) => l.set_nonblocking(true),
            Self::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Self::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Self::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// One accepted connection, Unix or TCP, behind a single Read/Write
/// surface so the connection loop is transport-agnostic.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.set_read_timeout(d),
            Self::Tcp(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.set_write_timeout(d),
            Self::Tcp(s) => s.set_write_timeout(d),
        }
    }
}

// Read/Write on `&Conn` mirror the std `&UnixStream`/`&TcpStream` impls:
// the connection loop reads and writes through shared references, exactly
// as it did when it held a bare `UnixStream`.
impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match *self {
            Conn::Unix(s) => (&*s).read(buf),
            Conn::Tcp(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match *self {
            Conn::Unix(s) => (&*s).write(buf),
            Conn::Tcp(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match *self {
            Conn::Unix(s) => (&*s).flush(),
            Conn::Tcp(s) => (&*s).flush(),
        }
    }
}

/// Binds the daemon's Unix socket without stealing a live daemon's.
///
/// An existing file at the path is *probed with a connect* first: a
/// successful connect means a daemon is accepting there right now, and
/// binding over it would silently steal its clients — that fails typed
/// [`io::ErrorKind::AddrInUse`]. Only a dead socket (connect refused:
/// debris of a SIGKILL that never reached `join`) is unlinked and rebound.
fn bind_unix_guarded(socket_path: &Path) -> io::Result<UnixListener> {
    if socket_path.exists() {
        match UnixStream::connect(socket_path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "socket {} is owned by a live daemon; refusing to steal it",
                        socket_path.display()
                    ),
                ))
            }
            // Connect refused / not-a-socket: stale debris, safe to clear.
            Err(_) => {
                let _ = std::fs::remove_file(socket_path);
            }
        }
    }
    UnixListener::bind(socket_path)
}

/// A running daemon instance: acceptors and the shared state that
/// connection handlers hang off.
pub struct Server {
    shared: Arc<Shared>,
    acceptors: Vec<thread::JoinHandle<()>>,
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds `socket` and starts serving `library`.
    ///
    /// A *stale* socket file at the path (debris of an unclean previous
    /// death) is removed before binding; a socket a live daemon still
    /// answers on fails typed `AddrInUse` instead of being stolen.
    /// Quarantine events from the library's load report are mirrored into
    /// the metrics registry so a degraded start is visible in `stats` from
    /// the first request.
    ///
    /// # Errors
    ///
    /// Only socket binding can fail; a degraded (even empty) library is
    /// served rather than refused.
    pub fn start(
        library: ModelLibrary,
        socket: impl Into<PathBuf>,
        opts: ServeOptions,
    ) -> io::Result<Self> {
        Self::start_with(library, Some(socket.into()), None, opts)
    }

    /// Binds any combination of a Unix socket and a TCP front end
    /// (`tcp` is a `host:port` string; port `0` picks a free port,
    /// readable back via [`Server::tcp_addr`]). At least one listener is
    /// required. Both listeners share the same in-flight permits and wait
    /// line; the wire protocol is identical on both.
    ///
    /// # Errors
    ///
    /// Binding failures, including the typed `AddrInUse` refusal to steal
    /// a live daemon's Unix socket, and `InvalidInput` when no listener
    /// was requested.
    pub fn start_with(
        library: ModelLibrary,
        socket: Option<PathBuf>,
        tcp: Option<&str>,
        opts: ServeOptions,
    ) -> io::Result<Self> {
        let mut listeners = Vec::new();
        let socket_path = match socket {
            Some(path) => {
                listeners.push(Listener::Unix(bind_unix_guarded(&path)?));
                Some(path)
            }
            None => None,
        };
        let tcp_addr = match tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = listener.local_addr()?;
                listeners.push(Listener::Tcp(listener));
                Some(bound)
            }
            None => None,
        };
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one listener (unix socket or tcp)",
            ));
        }
        for listener in &listeners {
            listener.set_nonblocking()?;
        }

        let registry = Arc::new(Registry::new());
        registry
            .counter(sm::STORE_QUARANTINED)
            .add(library.report().quarantined.len() as u64);
        library.bind_metrics(&registry);
        registry
            .gauge(sm::GENERATION)
            .set(library.generation() as f64);
        // Touch the headline metrics so a flush from an idle daemon still
        // reports them as explicit zeros.
        for name in [
            sm::REQUESTS,
            sm::SHED,
            sm::PROTO_ERRORS,
            sm::CONNECTIONS,
            sm::SLOW,
            sm::TRACE_SAMPLED,
        ] {
            registry.counter(name).add(0);
        }

        // The flight recorder is the daemon's black box: ensure it is on
        // (process-wide; capacity fixed at the first enable anywhere in
        // the process) unless the caller explicitly opted out.
        if opts.flight_capacity > 0 {
            flight::enable(opts.flight_capacity);
        }

        let hot = HotMetrics::resolve(&registry);
        let shared = Arc::new(Shared {
            library: Mutex::new(Arc::new(library)),
            reload_lock: Mutex::new(()),
            opts: opts.clone(),
            shutdown: CancelToken::new(),
            permits: Mutex::new(Permits::default()),
            permit_freed: Condvar::new(),
            registry,
            active_conns: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            started: Instant::now(),
            req_seq: AtomicU64::new(0),
            sample_every: AtomicU64::new(opts.trace_sample_every),
            slow_us: AtomicU64::new(opts.slow_threshold.as_micros() as u64),
            depth_emit_seq: AtomicU64::new(0),
            inflight: Mutex::new(BTreeMap::new()),
            hot,
        });

        let acceptors = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-acceptor-{i}"))
                    .spawn(move || acceptor_loop(&shared, &listener))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Self {
            shared,
            acceptors,
            socket_path,
            tcp_addr,
        })
    }

    /// The Unix socket path clients connect to. A TCP-only server (see
    /// [`Server::start_with`]) has none and returns the empty path; such
    /// callers address the daemon via [`Server::tcp_addr`].
    pub fn socket_path(&self) -> &Path {
        self.socket_path.as_deref().unwrap_or_else(|| Path::new(""))
    }

    /// The bound TCP address, when a TCP front end was requested. Useful
    /// with port `0`: the OS-assigned port is readable here.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// How many models are servable.
    pub fn model_count(&self) -> usize {
        self.shared.library().len()
    }

    /// Whether the library lost entries to quarantine at load.
    pub fn is_degraded(&self) -> bool {
        self.shared.library().is_degraded()
    }

    /// The live library generation (a snapshot; reload may swap it the
    /// moment this returns).
    pub fn library(&self) -> Arc<ModelLibrary> {
        self.shared.library()
    }

    /// Reloads the library from its store: load a candidate generation,
    /// validate it against the live one, swap if no worse (or `force`).
    /// The same operation the `reload` wire op and the daemon's `SIGHUP`
    /// handler perform.
    ///
    /// # Errors
    ///
    /// A [`ReloadRejection`] when the candidate loaded worse than the live
    /// generation; the live generation is untouched.
    pub fn reload(
        &self,
        force: bool,
        label: Option<String>,
    ) -> Result<ReloadOutcome, ReloadRejection> {
        self.shared.do_reload(force, label)
    }

    /// The daemon's metrics registry (shared; snapshot any time).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A clone of the shutdown token. Cancelling it (directly, or from a
    /// `SIGTERM` handler — [`CancelToken::cancel`] is a single atomic
    /// store, safe in signal context) begins the drain.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shared.shutdown.clone()
    }

    /// Begins the drain: stop accepting, let in-flight work finish.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.cancel();
    }

    /// Waits out the drain and returns the final metrics snapshot (the
    /// caller flushes it). Blocks until the shutdown token is cancelled:
    /// the acceptor exits, every admitted request — permit holders and
    /// waiters alike — finishes however long that takes, and only then do
    /// connection handlers get up to `drain_grace` to complete their
    /// in-flight response writes. The socket file is removed.
    pub fn join(mut self) -> Snapshot {
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        // Admission refuses new work once shutdown is cancelled (checked
        // under this same lock), so an idle line stays idle.
        while lock(&self.shared.permits).busy() {
            thread::sleep(Duration::from_millis(5));
        }
        let drain_deadline = Instant::now() + self.shared.opts.drain_grace;
        while self.shared.active_conns.load(Ordering::Acquire) > 0
            && Instant::now() < drain_deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.registry.snapshot()
    }
}

/// How often blocked loops re-check the shutdown token.
const POLL: Duration = Duration::from_millis(10);

fn acceptor_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        if shared.shutdown.is_cancelled() {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let index = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                shared.count(sm::CONNECTIONS);
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                shared
                    .registry
                    .gauge(sm::ACTIVE_CONNECTIONS)
                    .set(shared.active_conns.load(Ordering::Acquire) as f64);
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("serve-conn-{index}"))
                    .spawn(move || {
                        connection_loop(&conn_shared, stream, index);
                        conn_shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                        conn_shared
                            .registry
                            .gauge(sm::ACTIVE_CONNECTIONS)
                            .set(conn_shared.active_conns.load(Ordering::Acquire) as f64);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: the connection is dropped (the
                    // stream closes), and both the counter and the gauge
                    // are repaired.
                    let remaining = shared.active_conns.fetch_sub(1, Ordering::AcqRel) - 1;
                    shared
                        .registry
                        .gauge(sm::ACTIVE_CONNECTIONS)
                        .set(remaining as f64);
                }
            }
            // Non-blocking listener: no pending connection. Sleep one poll
            // tick so shutdown is noticed promptly without busy-spinning.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// A reader that counts delivered bytes, so the connection loop can tell
/// an *idle* timeout (no frame started — benign keep-alive) from a stall
/// *mid-frame* (a slow or wedged client that must be dropped). It also
/// notes when the frame's first bytes arrived: the request's `read` phase
/// runs from there, so idle keep-alive time is not counted.
struct CountingReader<'a> {
    inner: &'a Conn,
    delivered: usize,
    first_byte: Option<Instant>,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.inner;
        let n = inner.read(buf)?;
        if self.delivered == 0 && n > 0 {
            self.first_byte = Some(Instant::now());
        }
        self.delivered += n;
        Ok(n)
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: Conn, index: u64) {
    // Reads poll at a short interval so a draining daemon never waits a
    // full idle timeout on a quiet connection; writes get the configured
    // slow-client bound directly.
    if stream.set_read_timeout(Some(POLL)).is_err()
        || stream
            .set_write_timeout(Some(shared.opts.write_timeout))
            .is_err()
    {
        return;
    }
    let mut faults = FaultStream::for_connection(&shared.opts.faults, index);
    let mut idle = Duration::ZERO;
    loop {
        if shared.shutdown.is_cancelled() {
            return;
        }
        if let Some(delay) = faults.slow_read() {
            thread::sleep(delay);
        }
        let mut reader = CountingReader {
            inner: &stream,
            delivered: 0,
            first_byte: None,
        };
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                idle = Duration::ZERO;
                payload
            }
            Ok(None) => return, // clean close
            Err(e) if is_timeout(&e) && reader.delivered == 0 => {
                idle += POLL;
                if idle >= shared.opts.read_timeout {
                    return; // idle client: close
                }
                continue;
            }
            Err(e) if e.kind == ErrorKind::BadFrame || is_timeout(&e) => {
                // Hostile framing or a mid-frame stall. Framing is now
                // unrecoverable on this connection: answer typed
                // (best-effort — the peer may already be gone) and close.
                shared.count(sm::PROTO_ERRORS);
                let e = if is_timeout(&e) {
                    ProtoError::new(
                        ErrorKind::BadFrame,
                        format!("read stalled {} bytes into a frame", reader.delivered),
                    )
                } else {
                    e
                };
                let _ = write_response(shared, &stream, &mut faults, &render_error(&e));
                return;
            }
            Err(_) => return, // transport failure: nothing to answer into
        };
        let (response, req_trace) = respond_to(shared, &payload, reader.first_byte);
        if let Some(t) = &req_trace {
            shared.set_phase(t.seq, "write");
        }
        let wrote = write_response(shared, &stream, &mut faults, &response);
        // Finish observability even when the write failed: the request
        // still happened, and the flight ring is how a post-mortem learns
        // about responses the client never received.
        if let Some(t) = req_trace {
            finish_request(shared, &t);
        }
        if wrote.is_err() {
            return;
        }
    }
}

/// Turns a completed request's measurements into phase histograms, the
/// slow-request log, the head-sampling decision, and retroactive spans.
///
/// Spans are emitted *after* the fact with explicit timestamps
/// ([`trace::emit_span_at`]) because the sink decision depends on the
/// total latency: every request is measured, only sampled or slow ones
/// reach the JSONL sink, and the flight ring records all of them.
fn finish_request(shared: &Arc<Shared>, t: &ReqTrace) {
    let end = Instant::now();
    let write_us = us_between(t.write_start, end);
    let total_us = us_between(t.start, end);
    let hot = &shared.hot;
    for (hist, us) in [
        (&hot.phase_read, t.frame.read_us),
        (&hot.phase_parse, t.frame.parse_us),
        (&hot.phase_admit, t.admit_us),
        (&hot.phase_queue, t.queue_us),
        (&hot.phase_execute, t.execute_us),
        (&hot.phase_render, t.render_us),
        (&hot.phase_write, write_us),
    ] {
        hist.observe(us as f64 * 1e-6);
    }
    let sample_every = shared.sample_every.load(Ordering::Relaxed);
    let sampled = sample_every > 0 && t.seq.is_multiple_of(sample_every);
    let slow = total_us >= shared.slow_us.load(Ordering::Relaxed);
    if slow {
        hot.slow.incr();
        drop(
            trace::event("serve.slow")
                .arg("trace_id", &t.trace_id)
                .arg("op", t.op)
                .arg("total_us", total_us),
        );
    }
    let to_sink = sampled || slow;
    if to_sink && proxim_obs::trace_enabled() {
        hot.trace_sampled.incr();
    }
    // One batch for the whole request tree, one sink lock. The children
    // are laid end to end from the request's start; the write span is
    // anchored to the request's end so rounding never pushes it past it.
    let start_us = trace::instant_us(t.start);
    let mut at = start_us;
    let mut child = |name, dur_us| {
        let span = trace::SpanAt {
            name,
            start_us: at,
            dur_us,
            args: &[],
        };
        at += dur_us;
        span
    };
    let children = [
        child("serve.read", t.frame.read_us),
        child("serve.parse", t.frame.parse_us),
        child("serve.admit", t.admit_us),
        child("serve.queue_wait", t.queue_us),
        child("serve.execute", t.execute_us),
        child("serve.render", t.render_us),
        trace::SpanAt {
            name: "serve.write",
            start_us: start_us + total_us.saturating_sub(write_us),
            dur_us: write_us,
            args: &[],
        },
    ];
    trace::emit_span_tree_at(
        &trace::SpanAt {
            name: "serve.request",
            start_us,
            dur_us: total_us,
            args: &[("trace_id", t.trace_id.as_str()), ("op", t.op)],
        },
        &children,
        to_sink,
    );
    lock(&shared.inflight).remove(&t.seq);
}

/// Writes one response frame, honouring fault injection and the
/// slow-client write timeout. `Err` means the connection must close.
fn write_response(
    shared: &Arc<Shared>,
    stream: &Conn,
    faults: &mut FaultStream,
    response: &str,
) -> Result<(), ()> {
    let mut stream = stream;
    let frame = frame_bytes(response.as_bytes());
    if let Some(keep) = faults.torn_write(frame.len()) {
        // Injected tear: send a strict prefix, then drop the connection.
        let _ = stream.write_all(&frame[..keep]);
        let _ = stream.flush();
        return Err(());
    }
    let result = stream.write_all(&frame).and_then(|()| stream.flush());
    match result {
        Ok(()) => Ok(()),
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                shared.count(sm::WRITE_TIMEOUTS);
            }
            Err(())
        }
    }
}

/// Decodes one frame payload and produces the rendered response (plus the
/// per-request trace context for queries, finished after the write).
/// Probes (health, stats, list, metrics, obs) answer inline; queries go
/// through admission.
fn respond_to(
    shared: &Arc<Shared>,
    payload: &[u8],
    first_byte: Option<Instant>,
) -> (String, Option<ReqTrace>) {
    let read = Instant::now();
    let request = match parse_request(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.count(sm::PROTO_ERRORS);
            return (render_error(&e), None);
        }
    };
    let clock = FrameClock {
        first_byte: first_byte.unwrap_or(read),
        read,
        parsed: Instant::now(),
    };
    match request {
        Request::Health => {
            let status = if shared.shutdown.is_cancelled() {
                "draining"
            } else {
                "serving"
            };
            let lib = shared.library();
            (
                render_health(
                    status,
                    lib.len(),
                    lib.is_degraded(),
                    lib.generation(),
                    lib.report().root_error.as_deref(),
                ),
                None,
            )
        }
        Request::Stats => (render_stats(shared), None),
        Request::List => (render_list(&shared.library().names()), None),
        Request::Metrics => {
            let mut out = String::from("{\"ok\":true,\"exposition\":");
            push_escaped(&mut out, &exposition::render(&shared.registry.snapshot()));
            out.push('}');
            (out, None)
        }
        Request::Obs(control) => (apply_obs(shared, &control), None),
        Request::Reload { force, label } => {
            // Answered inline like the other control-plane ops: a reload
            // must work while the queue is full of queries. Racing a
            // shutdown answers typed — a draining daemon is about to drop
            // the library anyway.
            if shared.shutdown.is_cancelled() {
                return (
                    render_error(&ProtoError::new(
                        ErrorKind::ShuttingDown,
                        "daemon is draining; reload refused",
                    )),
                    None,
                );
            }
            let response = match shared.do_reload(force, label) {
                Ok(outcome) => {
                    render_reload_swapped(outcome.generation, outcome.models, outcome.reload_us)
                }
                Err(rej) => render_reload_rejected(&rej),
            };
            (response, None)
        }
        Request::Fleet => (
            render_error(&ProtoError::new(
                ErrorKind::BadRequest,
                "this daemon is not a fleet supervisor; send \"fleet\" to the fleet control socket",
            )),
            None,
        ),
        Request::Query {
            model,
            query,
            trace_id,
        } => admit(shared, clock, &model, vec![query], false, trace_id, "query"),
        Request::Batch {
            model,
            queries,
            trace_id,
        } => admit(shared, clock, &model, queries, true, trace_id, "batch"),
    }
}

fn level_wire_name(level: proxim_obs::Level) -> &'static str {
    match level {
        proxim_obs::Level::Off => "off",
        proxim_obs::Level::Metrics => "metrics",
        proxim_obs::Level::Trace => "trace",
    }
}

/// Appends the current observability configuration object:
/// `{"level":...,"sample_every":N,"slow_ms":N,"flight":{...}}`.
fn push_obs_config(shared: &Arc<Shared>, out: &mut String) {
    out.push_str("{\"level\":");
    push_escaped(out, level_wire_name(proxim_obs::level()));
    out.push_str(&format!(
        ",\"sample_every\":{},\"slow_ms\":{}",
        shared.sample_every.load(Ordering::Relaxed),
        shared.slow_us.load(Ordering::Relaxed) / 1000
    ));
    out.push_str(&format!(
        ",\"flight\":{{\"enabled\":{},\"capacity\":{},\"recorded\":{}}}}}",
        flight::enabled(),
        flight::capacity(),
        flight::recorded()
    ));
}

/// Renders the extended `stats` response: uptime, queue depth, the live
/// in-flight request table, the observability configuration, and the full
/// registry snapshot (histograms with percentiles).
fn render_stats(shared: &Arc<Shared>) -> String {
    let uptime = shared.started.elapsed().as_secs_f64();
    shared.registry.gauge(sm::UPTIME_SECONDS).set(uptime);
    let queue_depth = lock(&shared.permits).waiting;
    let mut out = String::from("{\"ok\":true,\"uptime_s\":");
    push_f64(&mut out, uptime);
    out.push_str(&format!(",\"queue_depth\":{queue_depth},\"inflight\":["));
    {
        let inflight = lock(&shared.inflight);
        for (i, entry) in inflight.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"trace_id\":");
            push_escaped(&mut out, &entry.trace_id);
            out.push_str(",\"op\":");
            push_escaped(&mut out, entry.op);
            out.push_str(&format!(
                ",\"age_us\":{},\"phase\":",
                elapsed_us(entry.since)
            ));
            push_escaped(&mut out, entry.phase);
            out.push('}');
        }
    }
    out.push_str("],\"obs\":");
    push_obs_config(shared, &mut out);
    out.push_str(",\"stats\":");
    out.push_str(&shared.registry.snapshot().to_json());
    out.push('}');
    out
}

/// Escaping a dump into a JSON string inflates it (every quote gains a
/// backslash), so the raw budget is held well under [`proto::MAX_FRAME_BYTES`].
const DUMP_FRAME_BUDGET: usize = 600 * 1024;

/// The flight dump, tail-truncated at line boundaries so its *escaped*
/// JSON form fits in a response frame. The header line is always kept;
/// when truncating, the newest records win — they are what a live
/// operator is asking about.
fn dump_for_frame(budget: usize) -> (String, bool) {
    let dump = flight::dump();
    let mut lines = dump.lines();
    let header = lines.next().unwrap_or("");
    let body: Vec<&str> = lines.collect();
    let escaped_len = |s: &str| {
        s.len() + s.bytes().filter(|b| matches!(b, b'"' | b'\\')).count() + 2 // "\n"
    };
    let mut size = escaped_len(header);
    let mut keep_from = body.len();
    for (i, line) in body.iter().enumerate().rev() {
        let cost = escaped_len(line);
        if size + cost > budget {
            break;
        }
        size += cost;
        keep_from = i;
    }
    let mut text = String::with_capacity(size);
    text.push_str(header);
    for line in &body[keep_from..] {
        text.push('\n');
        text.push_str(line);
    }
    (text, keep_from > 0)
}

/// Applies runtime observability changes and renders the `obs` response.
/// Level changes are process-wide (the obs crate owns one level); sampling
/// and slow-threshold changes are per-daemon.
fn apply_obs(shared: &Arc<Shared>, control: &ObsControl) -> String {
    if let Some(level) = control.level {
        proxim_obs::set_level(level);
    }
    if let Some(n) = control.sample_every {
        shared.sample_every.store(n, Ordering::Relaxed);
    }
    if let Some(ms) = control.slow_ms {
        shared
            .slow_us
            .store(ms.saturating_mul(1000), Ordering::Relaxed);
    }
    let mut out = String::from("{\"ok\":true,\"obs\":");
    push_obs_config(shared, &mut out);
    if control.dump {
        let (dump, truncated) = dump_for_frame(DUMP_FRAME_BUDGET);
        out.push_str(",\"truncated\":");
        out.push_str(if truncated { "true" } else { "false" });
        out.push_str(",\"dump\":");
        push_escaped(&mut out, &dump);
    }
    out.push('}');
    out
}

/// The retry-after hint stamped on shed responses: roughly how long the
/// full wait line needs to drain ahead of a retry (`queue_capacity /
/// workers` requests of `worker_stall` each), clamped to a sane band. With no
/// configured stall (production: real evaluation is microseconds) a small
/// constant keeps retrying clients from hammering a momentary spike.
fn retry_after_hint(opts: &ServeOptions) -> u64 {
    let stall_ms = opts.worker_stall.as_millis() as u64;
    if stall_ms == 0 {
        return 5;
    }
    let jobs_per_worker = (opts.queue_capacity / opts.workers.max(1)).max(1) as u64;
    stall_ms.saturating_mul(jobs_per_worker).clamp(1, 5_000)
}

/// Admission and execution: resolve the model, take an in-flight permit
/// (waiting in line for one) or shed, then evaluate and render under the
/// permit on the calling connection thread. Every outcome — including
/// shed, unknown-model, and drain refusals — carries the request's trace
/// context back so it lands in the histograms and the flight ring.
fn admit(
    shared: &Arc<Shared>,
    clock: FrameClock,
    model: &str,
    queries: Vec<WireQuery>,
    batch: bool,
    trace_id: Option<String>,
    op: &'static str,
) -> (String, Option<ReqTrace>) {
    let seq = shared.req_seq.fetch_add(1, Ordering::Relaxed);
    let trace_id = trace_id.unwrap_or_else(|| format!("r{seq}"));
    lock(&shared.inflight).insert(
        seq,
        InFlight {
            trace_id: trace_id.clone(),
            op,
            since: clock.first_byte,
            phase: "admit",
        },
    );
    let mut t = ReqTrace {
        seq,
        trace_id,
        op,
        start: clock.first_byte,
        frame: FramePhases {
            read_us: us_between(clock.first_byte, clock.read),
            parse_us: us_between(clock.read, clock.parsed),
        },
        admit_us: 0,
        queue_us: 0,
        execute_us: 0,
        render_us: 0,
        write_start: clock.parsed,
    };
    let refuse = |mut t: ReqTrace, e: &ProtoError| {
        let response = render_error_traced(e, Some(&t.trace_id));
        t.write_start = Instant::now();
        t.admit_us = us_between(clock.parsed, t.write_start);
        (response, Some(t))
    };
    // Snapshot the live generation: this request runs entirely against it,
    // even if a reload swaps the library mid-flight.
    let library = shared.library();
    let acquired = match library.acquire(model) {
        Ok(a) => a,
        Err(AcquireError::UnknownModel) => {
            return refuse(
                t,
                &ProtoError::new(
                    ErrorKind::UnknownModel,
                    format!("no model named {model:?} (try op \"list\")"),
                ),
            );
        }
        Err(e @ AcquireError::LoadFailed(_)) => {
            return refuse(t, &ProtoError::new(ErrorKind::Internal, e.to_string()));
        }
    };
    if acquired.cold {
        drop(
            trace::event("serve.library.cold_miss")
                .arg("trace_id", &t.trace_id)
                .arg("load_us", acquired.load_us),
        );
    }
    let mut permits = lock(&shared.permits);
    let free = permits.held < shared.opts.workers.max(1);
    if !free && permits.waiting >= shared.opts.queue_capacity {
        drop(permits);
        shared.hot.shed.incr();
        drop(
            trace::event("serve.shed")
                .arg("trace_id", &t.trace_id)
                .arg("op", op),
        );
        return refuse(
            t,
            &ProtoError::new(
                ErrorKind::Overloaded,
                format!(
                    "admission queue full ({} pending); retry with backoff",
                    shared.opts.queue_capacity
                ),
            )
            .with_retry_after(retry_after_hint(&shared.opts)),
        );
    }
    // Checked under the permit lock: once `Server::join` has seen no
    // holders and no waiters under it, every later admission sees the
    // cancellation and refuses, so the drain cannot strand a request.
    if shared.shutdown.is_cancelled() {
        drop(permits);
        return refuse(
            t,
            &ProtoError::new(
                ErrorKind::ShuttingDown,
                "daemon is draining; no new work admitted",
            ),
        );
    }
    shared.hot.requests.incr();
    let cancel = CancelToken::with_deadline_in(shared.opts.request_deadline);
    let admitted = Instant::now();
    t.admit_us = us_between(clock.parsed, admitted);
    if free {
        permits.held += 1;
    } else {
        permits.waiting += 1;
        shared.emit_queue_depth(permits.waiting);
        shared.set_phase(seq, "queue");
        while permits.handed == 0 {
            permits = shared
                .permit_freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        permits.handed -= 1;
        permits.waiting -= 1;
        shared.emit_queue_depth(permits.waiting);
    }
    drop(permits);
    let permit = Permit { shared };
    let granted = Instant::now();
    t.queue_us = us_between(admitted, granted);
    shared.set_phase(seq, "execute");
    // The congestion stall models evaluation cost; a request already past
    // its deadline gets none (it only needs its typed answer), so a
    // backlog of expired requests drains immediately instead of making
    // live requests wait out queue_capacity stalls.
    if !shared.opts.worker_stall.is_zero() && cancel.check("serve request").is_ok() {
        thread::sleep(shared.opts.worker_stall);
    }
    let results = evaluate(shared, &acquired.model, &queries, &cancel);
    let evaluated = Instant::now();
    t.execute_us = us_between(granted, evaluated);
    let echo = TraceEcho {
        trace_id: t.trace_id.clone(),
        admit_us: t.admit_us,
        queue_us: t.queue_us,
        execute_us: t.execute_us,
        cold_load_us: acquired.cold.then_some(acquired.load_us),
    };
    let response = render_served(&results, batch, &echo, t.frame);
    t.write_start = Instant::now();
    t.render_us = us_between(evaluated, t.write_start);
    shared
        .hot
        .request_seconds
        .observe(t.write_start.duration_since(admitted).as_secs_f64());
    drop(permit);
    (response, Some(t))
}

/// Evaluates one admitted request under its deadline token, returning one
/// outcome per query.
fn evaluate(
    shared: &Shared,
    model: &ProximityModel,
    queries: &[WireQuery],
    cancel: &CancelToken,
) -> Vec<Result<GateTiming, ProtoError>> {
    queries
        .iter()
        .map(|query| {
            // The deadline is checked between items, so a half-expired
            // batch returns real answers for the items it finished and
            // typed `deadline_exceeded` for the rest — honest partial
            // progress.
            if let Err(e) = cancel.check("serve request") {
                shared.count(sm::DEADLINE_EXPIRED);
                return Err(ProtoError::new(ErrorKind::DeadlineExceeded, e.to_string()));
            }
            let timing = match query.c_load {
                Some(c_load) => model.gate_timing_at_load(&query.events, c_load),
                None => model.gate_timing(&query.events),
            }
            .map_err(|e| model_error_to_proto(&e))?;
            if timing.degradation.is_some() {
                shared.count(sm::DEGRADED_ANSWERS);
            }
            Ok(timing)
        })
        .collect()
}

/// Convenience client: connect, round-trip one request, disconnect.
///
/// # Errors
///
/// Connection failures surface as [`ErrorKind::Internal`]; everything else
/// comes from [`proto::call`].
pub fn one_shot(socket: &Path, request: &str) -> Result<String, ProtoError> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| ProtoError::new(ErrorKind::Internal, format!("connect: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    proto::call(&mut stream, request)
}

/// [`one_shot`] over the TCP front end: connect to `addr`
/// (`host:port`), round-trip one request, disconnect.
///
/// # Errors
///
/// Connection failures surface as [`ErrorKind::Internal`]; everything else
/// comes from [`proto::call`].
pub fn one_shot_tcp(addr: &str, request: &str) -> Result<String, ProtoError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ProtoError::new(ErrorKind::Internal, format!("connect: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    proto::call(&mut stream, request)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::library::tests::shared_model;
    use proxim_model::store::ModelStore;
    use proxim_obs::json::Json;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proxim_server_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_library(dir: &Path) -> ModelLibrary {
        let store = ModelStore::new(dir.join("store"));
        store.save("inv", shared_model()).unwrap();
        ModelLibrary::open(&store)
    }

    const QUERY: &str =
        r#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}"#;

    #[test]
    fn serves_queries_probes_and_typed_errors() {
        let dir = scratch("basic");
        let server = Server::start(
            test_library(&dir),
            dir.join("s.sock"),
            ServeOptions::default(),
        )
        .unwrap();
        let sock = server.socket_path().to_path_buf();

        // A real query answers with a finite delay and no degradation.
        let resp = one_shot(&sock, QUERY).unwrap();
        let json = Json::parse(&resp).unwrap();
        let timing = json.get("timing").expect(&resp);
        assert!(timing.get("delay").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(timing.get("degraded").and_then(Json::as_str).is_none());

        // Batch answers item-by-item; the bad item is typed, not fatal.
        let batch = r#"{"op":"batch","model":"inv","queries":[
            {"events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]},
            {"events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}],"c_load":1e-13}]}"#;
        let resp = one_shot(&sock, batch).unwrap();
        let json = Json::parse(&resp).unwrap();
        assert_eq!(json.get("results").and_then(Json::as_arr).unwrap().len(), 2);

        // Probes.
        let health = one_shot(&sock, r#"{"op":"health"}"#).unwrap();
        let json = Json::parse(&health).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("serving"));
        let list = one_shot(&sock, r#"{"op":"list"}"#).unwrap();
        assert!(list.contains("\"inv\""), "{list}");
        let stats = one_shot(&sock, r#"{"op":"stats"}"#).unwrap();
        assert!(stats.contains(sm::REQUESTS), "{stats}");

        // Typed errors.
        let resp = one_shot(
            &sock,
            r#"{"op":"query","model":"nope","events":[{"pin":0,"edge":"rise","t":0,"tt":1e-9}]}"#,
        )
        .unwrap();
        assert!(resp.contains("unknown_model"), "{resp}");
        let resp = one_shot(&sock, "definitely not json").unwrap();
        assert!(resp.contains("bad_request"), "{resp}");

        server.begin_shutdown();
        let snap = server.join();
        // Only the query and the batch were *admitted*; probes bypass the
        // queue and the unknown-model / bad-frame requests fail before it.
        assert_eq!(snap.counter(sm::REQUESTS), 2);
        assert_eq!(snap.counter(sm::SHED), 0);
        assert_eq!(snap.counter(sm::PROTO_ERRORS), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_connection_survives_idle_gaps_between_requests() {
        let dir = scratch("keepalive");
        let server = Server::start(
            test_library(&dir),
            dir.join("s.sock"),
            ServeOptions::default(),
        )
        .unwrap();

        // One persistent connection, several requests separated by idle
        // gaps much longer than the internal read-poll tick (but well
        // under read_timeout). The server must treat those as benign
        // keep-alive idleness, not drop the connection.
        let mut stream = UnixStream::connect(server.socket_path()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for i in 0..3 {
            if i > 0 {
                thread::sleep(Duration::from_millis(120));
            }
            let resp = proto::call(&mut stream, QUERY)
                .unwrap_or_else(|e| panic!("request {i} after idle gap failed: {e}"));
            assert!(resp.contains("\"timing\""), "{resp}");
        }
        drop(stream);

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(sm::REQUESTS), 3);
        assert_eq!(
            snap.counter(sm::PROTO_ERRORS),
            0,
            "idle gaps must not count as protocol errors"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_typed_and_probes_still_answer() {
        let dir = scratch("overload");
        let opts = ServeOptions {
            workers: 1,
            queue_capacity: 2,
            worker_stall: Duration::from_millis(40),
            ..ServeOptions::default()
        };
        let server = Server::start(test_library(&dir), dir.join("s.sock"), opts).unwrap();
        let sock = server.socket_path().to_path_buf();

        let clients: Vec<_> = (0..12)
            .map(|_| {
                let sock = sock.clone();
                thread::spawn(move || one_shot(&sock, QUERY).unwrap())
            })
            .collect();
        // Probes bypass the queue: immediate even while workers stall.
        let t0 = Instant::now();
        let health = one_shot(&sock, r#"{"op":"health"}"#).unwrap();
        assert!(health.contains("serving"), "{health}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "probe must not queue"
        );

        let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let shed = responses
            .iter()
            .filter(|r| r.contains("overloaded"))
            .count();
        let answered = responses
            .iter()
            .filter(|r| r.contains("\"timing\""))
            .count();
        assert!(shed > 0, "12 clients into a 2-deep queue must shed some");
        assert!(answered > 0, "but not all");
        assert_eq!(shed + answered, 12, "every request got a typed outcome");

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(sm::SHED), shed as u64);
        assert_eq!(snap.counter(sm::REQUESTS), answered as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_requests_past_their_deadline_answer_deadline_exceeded() {
        let dir = scratch("deadline");
        let opts = ServeOptions {
            workers: 1,
            queue_capacity: 16,
            request_deadline: Duration::from_millis(60),
            worker_stall: Duration::from_millis(50),
            ..ServeOptions::default()
        };
        let server = Server::start(test_library(&dir), dir.join("s.sock"), opts).unwrap();
        let sock = server.socket_path().to_path_buf();

        let clients: Vec<_> = (0..6)
            .map(|_| {
                let sock = sock.clone();
                thread::spawn(move || one_shot(&sock, QUERY).unwrap())
            })
            .collect();
        let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let expired = responses
            .iter()
            .filter(|r| r.contains("deadline_exceeded"))
            .count();
        assert!(
            expired > 0,
            "a 60 ms deadline behind 50 ms/job must expire some: {responses:?}"
        );

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(sm::DEADLINE_EXPIRED), expired as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_finishes_in_flight_work_and_refuses_new_work() {
        let dir = scratch("drain");
        let opts = ServeOptions {
            workers: 1,
            queue_capacity: 32,
            worker_stall: Duration::from_millis(20),
            ..ServeOptions::default()
        };
        let server = Server::start(test_library(&dir), dir.join("s.sock"), opts).unwrap();
        let sock = server.socket_path().to_path_buf();

        let in_flight: Vec<_> = (0..8)
            .map(|_| {
                let sock = sock.clone();
                thread::spawn(move || one_shot(&sock, QUERY).unwrap())
            })
            .collect();
        thread::sleep(Duration::from_millis(30)); // let them admit
        server.begin_shutdown();

        // Already-admitted work completes with real answers.
        let responses: Vec<String> = in_flight.into_iter().map(|c| c.join().unwrap()).collect();
        for r in &responses {
            assert!(
                r.contains("\"timing\"") || r.contains("overloaded"),
                "in-flight work must finish typed, got {r}"
            );
        }
        assert!(
            responses.iter().any(|r| r.contains("\"timing\"")),
            "at least the running job must complete"
        );

        let snap = server.join();
        assert_eq!(snap.gauge(sm::QUEUE_DEPTH), 0.0, "drained queue is empty");
        // New connections are refused (socket gone) or told shutting_down.
        match one_shot(&sock, QUERY) {
            Err(_) => {}
            Ok(resp) => assert!(resp.contains("shutting_down"), "{resp}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn join_finishes_admitted_work_before_the_drain_grace_starts() {
        let dir = scratch("drain_grace");
        let opts = ServeOptions {
            workers: 1,
            queue_capacity: 16,
            worker_stall: Duration::from_millis(100),
            drain_grace: Duration::from_millis(50),
            ..ServeOptions::default()
        };
        let server = Server::start(test_library(&dir), dir.join("s.sock"), opts).unwrap();
        let sock = server.socket_path().to_path_buf();

        let clients: Vec<_> = (0..6)
            .map(|_| {
                let sock = sock.clone();
                thread::spawn(move || one_shot(&sock, QUERY).unwrap())
            })
            .collect();
        // All six admitted: one evaluates, five wait for it, 600 ms of
        // stalls in all — far past the 50 ms grace.
        let requests = server.registry().counter(sm::REQUESTS);
        let deadline = Instant::now() + Duration::from_secs(10);
        while requests.get() < 6 {
            assert!(Instant::now() < deadline, "six requests never admitted");
            thread::sleep(Duration::from_millis(2));
        }
        server.begin_shutdown();
        let snap = server.join();
        let finished = snap.histogram(sm::REQUEST_SECONDS).map_or(0, |h| h.count);
        assert_eq!(finished, 6, "join returned before admitted work finished");
        for client in clients {
            let r = client.join().unwrap();
            assert!(
                r.contains("\"timing\"") || r.contains("deadline_exceeded"),
                "admitted work must answer whole: {r}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_socket_is_not_stolen_but_stale_socket_is_reclaimed() {
        let dir = scratch("steal");
        let path = dir.join("s.sock");
        let server = Server::start(test_library(&dir), &path, ServeOptions::default()).unwrap();

        // A second daemon on the same path must fail typed, and the first
        // daemon must still be answering on its socket afterwards.
        let err = match Server::start(test_library(&dir), &path, ServeOptions::default()) {
            Ok(_) => panic!("second bind on a live socket must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        assert!(one_shot(&path, QUERY).unwrap().contains("\"timing\""));

        server.begin_shutdown();
        server.join();

        // A stale socket file (SIGKILL leftover: file exists, nobody
        // accepting) is reclaimed silently.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "stale socket file must survive the drop");
        let server = Server::start(test_library(&dir), &path, ServeOptions::default()).unwrap();
        assert!(one_shot(&path, QUERY).unwrap().contains("\"timing\""));
        server.begin_shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_front_end_serves_queries_and_typed_errors() {
        let dir = scratch("tcp");
        let server = Server::start_with(
            test_library(&dir),
            None,
            Some("127.0.0.1:0"),
            ServeOptions::default(),
        )
        .unwrap();
        let addr = server.tcp_addr().expect("tcp listener must report an addr");

        let resp = one_shot_tcp(&addr.to_string(), QUERY).unwrap();
        assert!(resp.contains("\"timing\""), "{resp}");
        let resp = one_shot_tcp(&addr.to_string(), r#"{"op":"health"}"#).unwrap();
        assert!(resp.contains("\"serving\""), "{resp}");
        let resp = one_shot_tcp(&addr.to_string(), r#"{"op":"nope"}"#).unwrap();
        assert!(resp.contains("bad_request"), "{resp}");

        server.begin_shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dual_listeners_share_one_admission_queue() {
        let dir = scratch("dual");
        let server = Server::start_with(
            test_library(&dir),
            Some(dir.join("s.sock")),
            Some("127.0.0.1:0"),
            ServeOptions::default(),
        )
        .unwrap();
        let sock = server.socket_path().to_path_buf();
        let addr = server.tcp_addr().unwrap().to_string();

        assert!(one_shot(&sock, QUERY).unwrap().contains("\"timing\""));
        assert!(one_shot_tcp(&addr, QUERY).unwrap().contains("\"timing\""));

        server.begin_shutdown();
        let snap = server.join();
        assert_eq!(snap.counter(sm::REQUESTS), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_replica_refuses_fleet_op_typed() {
        let dir = scratch("fleetop");
        let server = Server::start(
            test_library(&dir),
            dir.join("s.sock"),
            ServeOptions::default(),
        )
        .unwrap();
        let resp = one_shot(server.socket_path(), r#"{"op":"fleet"}"#).unwrap();
        assert!(resp.contains("bad_request"), "{resp}");
        assert!(resp.contains("fleet control socket"), "{resp}");
        server.begin_shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
