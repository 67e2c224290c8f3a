//! `FleetClient`: client-side load balancing across a fleet of replicas.
//!
//! A single-socket client ([`crate::client::call_with_retry`]) can only
//! wait out a refusal; a fleet client can *route around* it. The balancer
//! round-robins across replica sockets with per-replica health tracking
//! and applies the same retry discipline as `call_with_retry` — capped
//! exponential backoff with deterministic jitter, never past the deadline,
//! never re-sending non-idempotent ops — but widens the retryable set for
//! idempotent requests: besides `overloaded`/`shutting_down`/
//! connect-refused, a *mid-exchange* transport failure (the replica was
//! SIGKILLed with our request on its socket) is also retried, on a
//! different replica. That is safe precisely because the op is idempotent:
//! re-sending a read cannot double an effect, and it is what turns a
//! replica crash into zero client-visible failures.
//!
//! **Hedged requests**: for idempotent ops, an optional hedge delay arms a
//! second attempt on a *different* replica when the first has not answered
//! in time. First final response wins; the loser's socket is simply
//! dropped. Hedging converts a stuck replica's tail latency into the
//! healthy replica's median, at the cost of duplicate reads —
//! `serve.fleet.{hedges,hedge_wins}` account for both sides of that trade.

use crate::client::{is_idempotent, RetryPolicy};
use crate::proto::{ErrorKind, ProtoError};
use crate::server::one_shot;
use proxim_obs::json::Json;
use proxim_obs::serve_metrics as sm;
use proxim_obs::Registry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning for [`FleetClient`].
#[derive(Debug, Clone)]
pub struct FleetClientOptions {
    /// Backoff/deadline/jitter discipline between attempt rounds, shared
    /// with [`crate::client::call_with_retry`].
    pub retry: RetryPolicy,
    /// Arm a hedged second attempt for idempotent requests after this
    /// delay without a response. `None` disables hedging.
    pub hedge_delay: Option<Duration>,
    /// How long a replica stays deprioritized after a connect/transport
    /// failure or a `shutting_down` refusal.
    pub cooldown: Duration,
}

impl Default for FleetClientOptions {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            hedge_delay: None,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// What a fleet call did, beyond the response itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// The final response payload (success *or* the last typed refusal).
    pub response: String,
    /// Attempt rounds made (1 = answered first try; a hedged pair is one
    /// round).
    pub attempts: u32,
    /// Index of the replica whose response was returned.
    pub replica: usize,
    /// Whether any round armed a hedge.
    pub hedged: bool,
    /// Whether a hedged (second) attempt produced the winning response.
    pub hedge_won: bool,
}

struct Endpoint {
    socket: PathBuf,
    /// Deprioritized until this instant after a failure (`None` = healthy).
    unhealthy_until: Mutex<Option<Instant>>,
}

/// A round-robin, health-tracking, hedging balancer over replica sockets.
pub struct FleetClient {
    endpoints: Vec<Endpoint>,
    cursor: AtomicUsize,
    opts: FleetClientOptions,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    failovers: AtomicU64,
    registry: Mutex<Option<Arc<Registry>>>,
}

/// How one attempt's outcome steers the loop.
enum Step {
    /// Hand this to the caller.
    Finish(Result<String, ProtoError>),
    /// Retryable on another replica (idempotent requests only), with the
    /// server's retry-after hint if one rode on the refusal and whether the
    /// replica itself should cool down.
    Retry {
        last: Result<String, ProtoError>,
        hint: Option<Duration>,
        cooldown: bool,
    },
}

fn classify(result: Result<String, ProtoError>) -> Step {
    match result {
        Ok(response) => {
            let Ok(json) = Json::parse(&response) else {
                return Step::Finish(Ok(response));
            };
            let kind = json
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            let overloaded = kind == Some(ErrorKind::Overloaded.wire_name());
            let draining = kind == Some(ErrorKind::ShuttingDown.wire_name());
            if !overloaded && !draining {
                return Step::Finish(Ok(response));
            }
            let hint = json
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_f64)
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .map(|ms| Duration::from_millis(ms as u64));
            Step::Retry {
                last: Ok(response),
                hint,
                // An overloaded replica recovers in milliseconds — keep it
                // in rotation. A draining one is going away — cool it down.
                cooldown: draining,
            }
        }
        // Any transport failure — connect-refused *or* mid-exchange (the
        // replica died under us) — is retryable here: the caller only
        // reaches this classifier for idempotent requests.
        Err(e) => Step::Retry {
            last: Err(e),
            hint: None,
            cooldown: true,
        },
    }
}

impl FleetClient {
    /// A balancer over `sockets` (one per replica), in rotation order.
    #[must_use]
    pub fn new(sockets: Vec<PathBuf>, opts: FleetClientOptions) -> Self {
        Self {
            endpoints: sockets
                .into_iter()
                .map(|socket| Endpoint {
                    socket,
                    unhealthy_until: Mutex::new(None),
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            opts,
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            registry: Mutex::new(None),
        }
    }

    /// Mirrors hedge accounting into `serve.fleet.{hedges,hedge_wins}`.
    pub fn bind_metrics(&self, registry: &Arc<Registry>) {
        if let Ok(mut slot) = self.registry.lock() {
            *slot = Some(Arc::clone(registry));
        }
    }

    /// Hedged attempts armed so far.
    pub fn hedges(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Hedged attempts whose response won the race.
    pub fn hedge_wins(&self) -> u64 {
        self.hedge_wins.load(Ordering::Relaxed)
    }

    /// Attempt rounds that moved to a different replica after a failure.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Next replica in rotation, preferring ones not in cooldown. Falls
    /// back to plain rotation when every replica is cooling down — a
    /// refused attempt beats refusing locally on stale health data.
    fn pick(&self, exclude: Option<usize>) -> usize {
        let n = self.endpoints.len();
        let now = Instant::now();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for offset in 0..n {
            let idx = (start + offset) % n;
            if exclude == Some(idx) {
                continue;
            }
            let healthy = match self.endpoints[idx].unhealthy_until.lock() {
                Ok(until) => until.is_none_or(|t| now >= t),
                Err(_) => true,
            };
            if healthy {
                return idx;
            }
        }
        // All cooling down (or excluded): rotate anyway, honoring exclude.
        let idx = start % n;
        if exclude == Some(idx) && n > 1 {
            (idx + 1) % n
        } else {
            idx
        }
    }

    fn cool_down(&self, idx: usize) {
        if let Ok(mut until) = self.endpoints[idx].unhealthy_until.lock() {
            *until = Some(Instant::now() + self.opts.cooldown);
        }
    }

    fn count_hedge(&self, won: bool) {
        if won {
            self.hedge_wins.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hedges.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(slot) = self.registry.lock() {
            if let Some(registry) = slot.as_ref() {
                let name = if won {
                    sm::FLEET_HEDGE_WINS
                } else {
                    sm::FLEET_HEDGES
                };
                registry.counter(name).incr();
            }
        }
    }

    /// One attempt round: primary attempt on `primary`, optionally hedged
    /// to a different replica after the hedge delay. Returns the winning
    /// replica's index, its raw result, and whether a hedge was armed/won.
    fn round(
        &self,
        request: &str,
        primary: usize,
        hedge: bool,
    ) -> (usize, Result<String, ProtoError>, bool, bool) {
        let hedge_delay = match self.opts.hedge_delay {
            Some(d) if hedge && self.endpoints.len() > 1 => d,
            _ => {
                // No hedging: a plain in-thread attempt, no channel races.
                let result = one_shot(&self.endpoints[primary].socket, request);
                return (primary, result, false, false);
            }
        };
        let (tx, rx) = mpsc::channel();
        let spawn = |idx: usize, tx: mpsc::Sender<(usize, Result<String, ProtoError>)>| {
            let socket = self.endpoints[idx].socket.clone();
            let request = request.to_string();
            std::thread::spawn(move || {
                let _ = tx.send((idx, one_shot(&socket, &request)));
            });
        };
        spawn(primary, tx.clone());
        let mut armed = false;
        let first = match rx.recv_timeout(hedge_delay) {
            Ok(arrival) => arrival,
            Err(_) => {
                // Primary is slow: arm the hedge on a different replica.
                armed = true;
                self.count_hedge(false);
                spawn(self.pick(Some(primary)), tx.clone());
                match rx.recv_timeout(HEDGE_ABANDON) {
                    Ok(arrival) => arrival,
                    Err(_) => {
                        let e =
                            ProtoError::new(ErrorKind::Internal, "hedged attempts both timed out");
                        return (primary, Err(e), true, false);
                    }
                }
            }
        };
        // A final first arrival wins outright. A retryable one (refusal or
        // transport error) with the other attempt still in flight waits for
        // it — the straggler may hold a real answer worth surfacing over a
        // refusal.
        let winner = if is_final(&first.1) || !armed {
            first
        } else {
            match rx.recv_timeout(HEDGE_ABANDON) {
                Ok(second) if is_final(&second.1) => second,
                _ => first,
            }
        };
        let hedge_won = armed && winner.0 != primary;
        if hedge_won {
            self.count_hedge(true);
        }
        (winner.0, winner.1, armed, hedge_won)
    }

    /// One fleet call under the full discipline: rotation, health
    /// tracking, failover with backoff for idempotent ops, hedging,
    /// exactly-once for mutating ops.
    ///
    /// # Errors
    ///
    /// The last transport/protocol failure when retries (or the deadline)
    /// run out, or the sole attempt's failure for non-idempotent ops.
    pub fn call(&self, request: &str) -> Result<FleetOutcome, ProtoError> {
        assert!(!self.endpoints.is_empty(), "FleetClient needs >= 1 socket");
        let idempotent = is_idempotent(request);
        let policy = &self.opts.retry;
        let mut jitter_state = policy.seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut attempts = 0u32;
        let mut hedged_any = false;
        let mut hedge_won_any = false;
        loop {
            attempts += 1;
            let primary = self.pick(None);
            let (replica, result, hedged, hedge_won) = self.round(request, primary, idempotent);
            hedged_any |= hedged;
            hedge_won_any |= hedge_won;
            let (last, hint, cooldown) = match classify(result) {
                Step::Finish(result) => {
                    return result.map(|response| FleetOutcome {
                        response,
                        attempts,
                        replica,
                        hedged: hedged_any,
                        hedge_won: hedge_won_any,
                    })
                }
                Step::Retry {
                    last,
                    hint,
                    cooldown,
                } => (last, hint, cooldown),
            };
            if cooldown {
                self.cool_down(replica);
            }
            let out_of_attempts = attempts >= policy.max_attempts.max(1);
            if !idempotent || out_of_attempts {
                return finish(last, attempts, replica, hedged_any, hedge_won_any);
            }
            self.failovers.fetch_add(1, Ordering::Relaxed);
            // Same jittered schedule as call_with_retry, same hint floor,
            // same deadline rule: never sleep past it.
            let jitter = 0.5 + proxim_spice::fault::unit(&mut jitter_state);
            let exp = policy
                .base
                .saturating_mul(1u32.checked_shl(attempts - 1).unwrap_or(u32::MAX));
            let mut delay = exp.min(policy.cap).mul_f64(jitter);
            if let Some(hint) = hint {
                delay = delay.max(hint);
            }
            if let Some(deadline) = policy.deadline {
                let now = Instant::now();
                if now >= deadline || now + delay > deadline {
                    return finish(last, attempts, replica, hedged_any, hedge_won_any);
                }
            }
            std::thread::sleep(delay);
        }
    }
}

fn finish(
    last: Result<String, ProtoError>,
    attempts: u32,
    replica: usize,
    hedged: bool,
    hedge_won: bool,
) -> Result<FleetOutcome, ProtoError> {
    last.map(|response| FleetOutcome {
        response,
        attempts,
        replica,
        hedged,
        hedge_won,
    })
}

/// How long to wait on an armed hedge pair before abandoning both.
const HEDGE_ABANDON: Duration = Duration::from_secs(60);

/// Whether an attempt's raw result is final (handed to the caller as-is)
/// rather than a retryable refusal or transport failure.
fn is_final(result: &Result<String, ProtoError>) -> bool {
    match result {
        Ok(response) => {
            let Ok(json) = Json::parse(response) else {
                return true;
            };
            let kind = json
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            kind != Some(ErrorKind::Overloaded.wire_name())
                && kind != Some(ErrorKind::ShuttingDown.wire_name())
        }
        Err(_) => false,
    }
}
