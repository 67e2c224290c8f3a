//! `FleetClient`: the daemon's retrying client, over one replica socket
//! or a fleet of them.
//!
//! The client round-robins across its sockets with per-replica health
//! tracking and retries under the [`crate::client`] policy: capped
//! exponential backoff with deterministic jitter, never past the deadline,
//! never re-sending non-idempotent ops. One classifier decides what is
//! retried: `overloaded`/`shutting_down` refusals, a failed `connect()`,
//! and — only when another socket exists — a *mid-exchange* transport
//! failure (the replica was SIGKILLed with our request on its socket).
//! Over one socket that failure is returned, since the request may have
//! executed; over a fleet it is re-sent to the next replica, which is safe
//! because the op is idempotent and is what turns a replica crash into
//! zero client-visible failures.
//!
//! **Hedged requests**: for idempotent ops, an optional hedge delay arms a
//! second attempt on a *different* replica when the first has not answered
//! in time. First final response wins; the loser's socket is simply
//! dropped. Hedging converts a stuck replica's tail latency into the
//! healthy replica's median, at the cost of duplicate reads —
//! `serve.fleet.{hedges,hedge_wins}` account for both sides of that trade.

use crate::client::{is_idempotent, jitter_start, jittered_delay, RetryPolicy};
use crate::proto::{retryable_refusal, ErrorKind, ProtoError};
use crate::server::one_shot;
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
    /// Backoff/deadline/jitter discipline between attempt rounds.
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
    /// Total time spent sleeping between attempt rounds.
    pub backoff: Duration,
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
    /// Retryable (idempotent requests only), with the server's retry-after
    /// hint if one rode on the refusal and whether the replica itself
    /// should cool down.
    Retry {
        last: Result<String, ProtoError>,
        hint: Option<Duration>,
        cooldown: bool,
    },
}

/// The one retry classifier. `failover` says whether another socket
/// exists to re-send a mid-exchange failure to.
fn classify(result: Result<String, ProtoError>, failover: bool) -> Step {
    match result {
        Ok(response) => match retryable_refusal(&response) {
            Some((kind, hint)) => Step::Retry {
                last: Ok(response),
                hint,
                // An overloaded replica recovers in milliseconds — keep it
                // in rotation. A draining one is going away — cool it down.
                cooldown: kind == ErrorKind::ShuttingDown,
            },
            None => Step::Finish(Ok(response)),
        },
        // A failed connect never reached a server. A mid-exchange failure
        // may have been acted on, so it is re-sent only to another socket.
        Err(e) if e.connect_failed || failover => Step::Retry {
            last: Err(e),
            hint: None,
            cooldown: true,
        },
        Err(e) => Step::Finish(Err(e)),
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

    /// Attempt rounds retried after a retryable failure (on the next
    /// replica in rotation when there is more than one).
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

    /// One call under the full discipline: rotation, health tracking,
    /// retries with backoff for idempotent ops, hedging, exactly-once for
    /// mutating ops.
    ///
    /// # Errors
    ///
    /// The last transport/protocol failure when retries (or the deadline)
    /// run out, or the sole attempt's failure for non-idempotent ops.
    pub fn call(&self, request: &str) -> Result<FleetOutcome, ProtoError> {
        assert!(!self.endpoints.is_empty(), "FleetClient needs >= 1 socket");
        let idempotent = is_idempotent(request);
        let failover = self.endpoints.len() > 1;
        let policy = &self.opts.retry;
        let mut jitter_state = jitter_start(policy);
        let mut outcome = FleetOutcome {
            response: String::new(),
            attempts: 0,
            replica: 0,
            hedged: false,
            hedge_won: false,
            backoff: Duration::ZERO,
        };
        loop {
            outcome.attempts += 1;
            let primary = self.pick(None);
            let (replica, result, hedged, hedge_won) = self.round(request, primary, idempotent);
            outcome.replica = replica;
            outcome.hedged |= hedged;
            outcome.hedge_won |= hedge_won;
            let (last, hint, cooldown) = match classify(result, failover) {
                Step::Finish(result) => return finish(result, outcome),
                Step::Retry {
                    last,
                    hint,
                    cooldown,
                } => (last, hint, cooldown),
            };
            if cooldown {
                self.cool_down(replica);
            }
            if !idempotent || outcome.attempts >= policy.max_attempts.max(1) {
                return finish(last, outcome);
            }
            self.failovers.fetch_add(1, Ordering::Relaxed);
            let mut delay = jittered_delay(policy, outcome.attempts - 1, &mut jitter_state);
            if let Some(hint) = hint {
                delay = delay.max(hint);
            }
            if let Some(deadline) = policy.deadline {
                let now = Instant::now();
                if now >= deadline || now + delay > deadline {
                    // Sleeping would cross the caller's deadline: stop here
                    // and surface the last refusal.
                    return finish(last, outcome);
                }
            }
            std::thread::sleep(delay);
            outcome.backoff += delay;
        }
    }
}

fn finish(
    last: Result<String, ProtoError>,
    outcome: FleetOutcome,
) -> Result<FleetOutcome, ProtoError> {
    last.map(|response| FleetOutcome {
        response,
        ..outcome
    })
}

/// How long to wait on an armed hedge pair before abandoning both.
const HEDGE_ABANDON: Duration = Duration::from_secs(60);

/// Whether an attempt's raw result is final (handed to the caller as-is)
/// rather than a retryable refusal or transport failure.
fn is_final(result: &Result<String, ProtoError>) -> bool {
    match result {
        Ok(response) => retryable_refusal(response).is_none(),
        Err(_) => false,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::client::backoff_schedule;
    use crate::proto::{read_frame, render_error, write_frame};
    use std::os::unix::net::UnixListener;
    use std::path::Path;

    fn scratch_sock(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proxim_balance_{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{name}.sock"));
        std::fs::remove_file(&path).ok();
        path
    }

    /// A scripted one-shot server: reads one frame per accepted connection
    /// and answers it with the next canned payload, or hangs up without
    /// answering on an empty one. Returns how many connections it served.
    fn scripted_server(path: &Path, responses: Vec<String>) -> std::thread::JoinHandle<usize> {
        let listener = UnixListener::bind(path).unwrap();
        std::thread::spawn(move || {
            let mut served = 0;
            for response in responses {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                let _ = read_frame(&mut stream);
                if !response.is_empty() {
                    let _ = write_frame(&mut stream, response.as_bytes());
                }
                served += 1;
            }
            served
        })
    }

    /// The retrying client over `sockets` under `retry`, as the CLI builds it.
    fn client(sockets: &[&Path], retry: RetryPolicy) -> FleetClient {
        FleetClient::new(
            sockets.iter().map(|s| s.to_path_buf()).collect(),
            FleetClientOptions {
                retry,
                ..FleetClientOptions::default()
            },
        )
    }

    fn overloaded() -> String {
        render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full"))
    }

    #[test]
    fn retries_overloaded_until_success() {
        let sock = scratch_sock("overload");
        let shed =
            render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full").with_retry_after(1));
        let server = scripted_server(
            &sock,
            vec![shed.clone(), shed, "{\"ok\":true,\"models\":[]}".into()],
        );
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let out = client(&[&sock], policy).call(r#"{"op":"list"}"#).unwrap();
        assert_eq!(out.attempts, 3);
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
        assert!(out.backoff >= Duration::from_millis(1));
        assert_eq!(server.join().unwrap(), 3);
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn non_idempotent_ops_are_sent_exactly_once() {
        let sock = scratch_sock("once");
        let shed = render_error(&ProtoError::new(ErrorKind::ShuttingDown, "draining"));
        let server = scripted_server(&sock, vec![shed, "{\"ok\":true}".into()]);
        let out = client(&[&sock], RetryPolicy::default())
            .call(r#"{"op":"reload"}"#)
            .unwrap();
        assert_eq!(out.attempts, 1, "reload must never be re-sent");
        assert!(out.response.contains("shutting_down"), "{}", out.response);
        // Release the scripted server's second accept.
        let _ = one_shot(&sock, "{}");
        let _ = server.join();
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn never_sleeps_past_the_deadline() {
        let sock = scratch_sock("deadline");
        let shed = overloaded();
        // Every attempt is refused; without the deadline this would retry
        // for ~10 s of backoff.
        let server = scripted_server(&sock, vec![shed.clone(), shed.clone(), shed]);
        let policy = RetryPolicy {
            base: Duration::from_millis(400),
            cap: Duration::from_secs(5),
            max_attempts: 20,
            deadline: Some(Instant::now() + Duration::from_millis(60)),
            ..RetryPolicy::default()
        };
        let t0 = Instant::now();
        let out = client(&[&sock], policy).call(r#"{"op":"list"}"#).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "stopped before the first 400 ms sleep"
        );
        assert!(out.response.contains("overloaded"), "{}", out.response);
        drop(server);
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn connect_refused_is_retried_and_last_error_is_surfaced() {
        let sock = scratch_sock("refused"); // nothing listening
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let client = client(&[&sock], policy);
        let e = client.call(r#"{"op":"health"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Internal);
        assert!(e.detail.starts_with("connect: "), "{e}");
        assert!(e.connect_failed, "{e}");
        assert_eq!(client.failovers(), 2, "all three attempts were made");
    }

    #[test]
    fn sleeps_exactly_the_published_schedule() {
        let sock = scratch_sock("schedule");
        // No retry_after hint: the slept delays must equal backoff_schedule.
        let shed = overloaded();
        let server = scripted_server(
            &sock,
            vec![shed.clone(), shed.clone(), shed, "{\"ok\":true}".into()],
        );
        let policy = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(8),
            seed: 42,
            ..RetryPolicy::default()
        };
        let out = client(&[&sock], policy).call(r#"{"op":"list"}"#).unwrap();
        assert_eq!(out.attempts, 4);
        let expected: Duration = backoff_schedule(&policy, 3).iter().sum();
        assert_eq!(
            out.backoff, expected,
            "slept backoff must be byte-identical to backoff_schedule"
        );
        assert_eq!(server.join().unwrap(), 4);
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn retry_after_hint_raises_the_backoff_floor() {
        let sock = scratch_sock("hint");
        // The jittered schedule alone would sleep ~1-2 ms; a 40 ms hint on
        // the shed response must raise the actual sleep to >= 40 ms.
        let shed = render_error(
            &ProtoError::new(ErrorKind::Overloaded, "queue full").with_retry_after(40),
        );
        let server = scripted_server(&sock, vec![shed, "{\"ok\":true}".into()]);
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let out = client(&[&sock], policy).call(r#"{"op":"list"}"#).unwrap();
        assert_eq!(out.attempts, 2);
        assert!(
            out.backoff >= Duration::from_millis(40),
            "hint not honored: slept only {:?}",
            out.backoff
        );
        assert_eq!(server.join().unwrap(), 2);
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn fleet_sleeps_exactly_the_published_schedule() {
        let (a, b) = (scratch_sock("fleet_sched_a"), scratch_sock("fleet_sched_b"));
        // Overloaded replicas stay in rotation, so four attempts alternate
        // a, b, a, b and every one is refused.
        let server_a = scripted_server(&a, vec![overloaded(), overloaded()]);
        let server_b = scripted_server(&b, vec![overloaded(), overloaded()]);
        let policy = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(8),
            max_attempts: 4,
            seed: 7,
            ..RetryPolicy::default()
        };
        let out = client(&[&a, &b], policy).call(r#"{"op":"list"}"#).unwrap();
        assert_eq!(out.attempts, 4);
        assert!(out.response.contains("overloaded"), "{}", out.response);
        let expected: Duration = backoff_schedule(&policy, 3).iter().sum();
        assert_eq!(out.backoff, expected, "fleet backoff is backoff_schedule");
        assert_eq!(server_a.join().unwrap() + server_b.join().unwrap(), 4);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn mid_exchange_failure_is_resent_only_to_another_socket() {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        // One socket: the request may have executed, so the error is
        // returned after the one attempt.
        let lone = scratch_sock("hangup_lone");
        let server = scripted_server(&lone, vec![String::new()]);
        let single = client(&[&lone], policy);
        let e = single.call(r#"{"op":"health"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadFrame, "{e}");
        assert!(!e.connect_failed, "{e}");
        assert_eq!(single.failovers(), 0, "one socket never re-sends");
        assert_eq!(server.join().unwrap(), 1);
        std::fs::remove_file(&lone).ok();

        // Two sockets: the idempotent request goes to the other one.
        let (a, b) = (scratch_sock("hangup_a"), scratch_sock("hangup_b"));
        let server_a = scripted_server(&a, vec![String::new()]);
        let server_b = scripted_server(&b, vec!["{\"ok\":true}".into()]);
        let out = client(&[&a, &b], policy)
            .call(r#"{"op":"health"}"#)
            .unwrap();
        assert_eq!((out.attempts, out.replica), (2, 1));
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
        assert_eq!(server_a.join().unwrap(), 1);
        assert_eq!(server_b.join().unwrap(), 1);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }
}
