//! `proxim-serve`: an overload-safe, crash-consistent timing-query daemon.
//!
//! The proximity model is characterized once and queried forever —
//! [`ProximityModel::gate_timing`](proxim_model::ProximityModel) is the
//! product surface. This crate wraps it in a long-running service that
//! stays up and answers *honestly* under corrupt inputs, slow clients,
//! overload, and crashes.
//!
//! Models are served from a [`ModelStore`] ([`proxim_model::store`]):
//! `.pxm` entries, each a sectioned container with per-section FNV-1a
//! envelopes, written through the crash-consistent `atomic_write` path, so
//! a reader sees a complete old entry, a complete new entry, or a
//! *detectably* corrupt one. The same module types every durable-sink
//! failure ([`DiskError`]: ENOSPC apart from other I/O), so a full disk
//! degrades with a counter and a flight event, never a panic or an aborted
//! drain. Fault injection rides one [`FaultPlan`](proxim_spice::FaultPlan)
//! (see [`proxim_spice::fault`]): the wire sites in [`ServeOptions`], the
//! disk sites in [`ModelStore::with_faults`] and `atomic_write`'s argument.
//!
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
//! - [`client`]: the retry policy — which ops are idempotent, and the
//!   capped exponential backoff with deterministic jitter, raised to the
//!   server's retry-after hint and never past the caller's deadline.
//! - [`fleet`]: the replication layer above the daemon. A supervisor
//!   spawns N replica daemons (each on its own socket under a fleet
//!   directory), health-probes them on the probe fast path, restarts
//!   crashes with capped exponential backoff, quarantines crash-loopers
//!   (≥M exits in a window → typed `replica_quarantined`, fleet serves
//!   degraded on the survivors), answers the `fleet` stats op on a
//!   control socket, and drives rolling reloads one replica at a time so
//!   an upgrade never drops below N−1 capacity.
//! - [`balance`]: the one retrying client, used by the CLI's `query`/`churn`
//!   subcommands over one socket and by fleet callers over many —
//!   [`FleetClient`] round-robins across its sockets with per-replica
//!   health tracking, retries `overloaded`/`shutting_down`/connect-refused
//!   (and, with another socket to go to, mid-exchange failures) under the
//!   [`client`] policy, and hedges idempotent requests to a second replica
//!   after a configurable delay, first-response-wins.
//!
//! Metric names live in [`proxim_obs::serve_metrics`]; every request is
//! traced as a `serve.request` span when tracing is enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod balance;
pub mod client;
pub mod fleet;
pub mod library;
pub mod proto;
pub mod server;

pub use balance::{FleetClient, FleetClientOptions, FleetOutcome};
pub use client::RetryPolicy;
pub use fleet::{Fleet, FleetOptions, ReplicaState};
pub use library::{
    judge_candidate, AcquireError, Acquired, LibraryOptions, LoadReport, ModelLibrary,
    ReloadRejection,
};
pub use proto::{ErrorKind, ProtoError, Request, MAX_FRAME_BYTES};
pub use proxim_model::store::{DiskError, ModelStore, QuarantineFailure, StoreError};
pub use proxim_spice::fault::DiskFaultKind;
pub use server::{ServeOptions, Server};
