//! `proxim-serve`: an overload-safe, crash-consistent timing-query daemon.
//!
//! The proximity model is characterized once and queried forever —
//! [`ProximityModel::gate_timing`](proxim_model::ProximityModel) is the
//! product surface. This crate wraps it in a long-running service that
//! stays up and answers *honestly* under corrupt inputs, slow clients,
//! overload, and crashes:
//!
//! - [`store`]: a checksummed binary model store. Every entry is a
//!   sectioned container with per-section FNV-1a envelopes, written through
//!   the crash-consistent `atomic_write` path (tmp + fsync + rename), so a
//!   reader sees a complete old entry, a complete new entry, or a
//!   *detectably* corrupt one — never silently torn bytes. Corrupt or torn
//!   entries are quarantined aside (content-hash-suffixed `.quarantined`
//!   files, the model-cache convention) at load.
//! - [`library`]: the in-memory model library the daemon serves from.
//!   Loading is degrade-instead-of-die: corrupt entries are quarantined and
//!   the daemon starts *degraded* with the surviving models rather than
//!   refusing to start. A library is one immutable *generation* of the
//!   serving set, shared via `Arc`; hot reload loads a candidate generation
//!   off to the side, judges it against the live one, and swaps a pointer —
//!   in-flight requests finish on the generation they started on. With a
//!   memory budget, residency is LRU-governed: non-resident models are
//!   cold-loaded on demand with single-flight deduplication.
//! - [`proto`]: the length-prefixed socket protocol. Frames are hardened
//!   untrusted input: oversized, truncated, non-UTF-8, malformed, and
//!   recursion-bomb frames all produce *typed* protocol errors, never a
//!   panic. Responses carry the degraded-slice provenance end to end
//!   (`GateTiming::degradation` → the wire `degraded` field).
//! - [`server`]: the daemon loop. Each connection thread evaluates its own
//!   queries under a bounded number of in-flight permits; a full wait line
//!   sheds load with a typed `overloaded` response (never a silent drop),
//!   every request runs under a wall-clock deadline plumbed into the
//!   existing [`CancelToken`](proxim_spice::CancelToken), slow clients are
//!   bounded by write timeouts, health/readiness probes never wait for a
//!   permit so they answer even under full overload, and `SIGTERM` drains: stop
//!   accepting, finish (or shed) in-flight work, flush final metrics,
//!   exit cleanly.
//! - [`diskfault`]: typed ENOSPC/EIO classification for every durable sink
//!   (store writes, quarantine renames, metrics snapshots, flight dumps) —
//!   a full disk degrades with a counter and a flight event, never a panic
//!   or an aborted drain — plus a deterministic disk-fault injector behind
//!   the `fault-injection` feature.
//! - [`client`]: a deadline-aware retrying client used by the CLI's
//!   `query`/`churn` subcommands: capped exponential backoff with
//!   deterministic jitter on `overloaded`/`shutting_down`/connect-refused,
//!   honoring the server's retry-after hint, never retrying past the
//!   caller's deadline and never retrying non-idempotent ops.
//! - [`wirefault`]: deterministic wire-layer fault injection (torn frames,
//!   injected slow reads, dropped connections) behind the
//!   `fault-injection` feature, extending the `proxim_spice::faultpoint`
//!   discipline to the socket boundary.
//! - [`fleet`]: the replication layer above the daemon. A supervisor
//!   spawns N replica daemons (each on its own socket under a fleet
//!   directory), health-probes them on the probe fast path, restarts
//!   crashes with capped exponential backoff, quarantines crash-loopers
//!   (≥M exits in a window → typed `replica_quarantined`, fleet serves
//!   degraded on the survivors), answers the `fleet` stats op on a
//!   control socket, and drives rolling reloads one replica at a time so
//!   an upgrade never drops below N−1 capacity.
//! - [`balance`]: the client side of the fleet —
//!   [`FleetClient`](balance::FleetClient) round-robins across replica
//!   sockets with per-replica health tracking, fails over on
//!   connect-refused/`overloaded`/`shutting_down` under the [`client`]
//!   idempotency and deadline rules, and hedges idempotent requests to a
//!   second replica after a configurable delay, first-response-wins.
//!
//! Metric names live in [`proxim_obs::serve_metrics`]; every request is
//! traced as a `serve.request` span when tracing is enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod balance;
pub mod client;
pub mod diskfault;
pub mod fleet;
pub mod library;
pub mod proto;
pub mod server;
pub mod store;
pub mod wirefault;

pub use balance::{FleetClient, FleetClientOptions, FleetOutcome};
pub use client::{RetryOutcome, RetryPolicy};
pub use diskfault::{DiskError, DiskFaultConfig, DiskFaultKind};
pub use fleet::{Fleet, FleetOptions, ReplicaState};
pub use library::{
    judge_candidate, AcquireError, Acquired, LibraryOptions, LoadReport, ModelLibrary,
    ReloadRejection,
};
pub use proto::{ErrorKind, ProtoError, Request, MAX_FRAME_BYTES};
pub use server::{ServeOptions, Server};
pub use store::{ModelStore, QuarantineFailure, StoreError};
