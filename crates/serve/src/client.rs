//! A deadline-aware retrying client for the daemon's socket protocol.
//!
//! The daemon sheds load honestly — `overloaded` and `shutting_down` are
//! *typed refusals issued before any server-side effect* — and a restart
//! or reload window can briefly refuse connections altogether. A correct
//! client therefore retries exactly three failure shapes: the two
//! retryable wire errors and a failed `connect()`. Everything else (typed
//! query errors, transport failures mid-exchange, malformed responses) is
//! returned to the caller untouched: the client cannot know whether the
//! server acted, so re-sending would risk double effects.
//!
//! The schedule is capped exponential backoff with deterministic
//! multiplicative jitter (the `proxim_spice::fault` splitmix64
//! stream — no global RNG, replayable from the seed), raised to the
//! server's `retry_after_ms` hint when one rides on the shed response.
//! Two hard rules bound every retry loop:
//!
//! - **never past the deadline**: a sleep that would cross the caller's
//!   deadline is not taken — the last refusal is returned instead;
//! - **never for non-idempotent ops**: `obs` mutates observability state
//!   and `reload` swaps the serving set; both are sent exactly once.

use crate::proto::{retryable_refusal, ErrorKind, ProtoError};
use crate::server::one_shot;
use proxim_obs::json::Json;
use proxim_spice::fault::unit;
use std::path::Path;
use std::time::{Duration, Instant};

/// Retry schedule and bounds for [`call_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First backoff delay; each retry doubles it up to [`Self::cap`].
    pub base: Duration,
    /// Upper bound on a single backoff delay (pre-jitter).
    pub cap: Duration,
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Hard wall-clock bound: no retry sleep may cross it, and no attempt
    /// starts after it. `None` bounds the loop by `max_attempts` alone.
    pub deadline: Option<Instant>,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_attempts: 8,
            deadline: None,
            seed: 0x5EED_CAFE,
        }
    }
}

/// What a retried call did, beyond the response itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome {
    /// The final response payload (success *or* a typed error the policy
    /// ran out of retries for — inspect `ok` like any response).
    pub response: String,
    /// Total attempts made (1 = answered first try).
    pub attempts: u32,
    /// Total time spent sleeping between attempts.
    pub backoff: Duration,
}

/// The idempotency of a single wire op: `Some(true)` reads, `Some(false)`
/// mutates and must be sent exactly once, `None` is not a recognized op.
///
/// This match is deliberately exhaustive over [`crate::proto::WIRE_OPS`]
/// (a test enforces it): adding a wire op without classifying it here is a
/// compile-the-tests failure, so a new op can never *silently* become
/// retry-unsafe (or retry-happy).
pub fn op_idempotency(op: &str) -> Option<bool> {
    match op {
        "query" | "batch" | "health" | "stats" | "list" | "metrics" | "fleet" => Some(true),
        "obs" | "reload" => Some(false),
        _ => None,
    }
}

/// Whether a request (by its `op`) is safe to re-send after a refusal:
/// queries and probes read; `obs` and `reload` mutate server state and
/// must be sent exactly once. Unknown or unparseable ops are conservative
/// `false` — the server will answer them typed, once.
pub fn is_idempotent(request: &str) -> bool {
    let Ok(json) = Json::parse(request) else {
        return false;
    };
    json.get("op")
        .and_then(Json::as_str)
        .and_then(op_idempotency)
        .unwrap_or(false)
}

/// The retry decision for one attempt's outcome.
enum Verdict {
    /// Done: hand this to the caller.
    Finish(Result<String, ProtoError>),
    /// Retryable, with the server's retry-after hint if it sent one.
    Retry {
        last: Result<String, ProtoError>,
        hint: Option<Duration>,
    },
}

fn classify(result: Result<String, ProtoError>) -> Verdict {
    match result {
        Ok(response) => match retryable_refusal(&response) {
            Some((_, hint)) => Verdict::Retry {
                last: Ok(response),
                hint,
            },
            None => Verdict::Finish(Ok(response)),
        },
        Err(e) => {
            // `one_shot` types a failed connect() as Internal with a
            // "connect:" detail — the daemon was down or its socket gone,
            // the one transport failure that provably had no server-side
            // effect. Mid-exchange transport failures are NOT retried: the
            // request may have been acted on.
            if e.kind == ErrorKind::Internal && e.detail.starts_with("connect: ") {
                Verdict::Retry {
                    last: Err(e),
                    hint: None,
                }
            } else {
                Verdict::Finish(Err(e))
            }
        }
    }
}

/// The pre-jitter backoff delay before retry number `retry` (0-based):
/// `base << retry`, capped at `cap`.
fn backoff_delay(policy: &RetryPolicy, retry: u32) -> Duration {
    let exp = policy
        .base
        .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
    exp.min(policy.cap)
}

/// The jittered delay before retry number `retry`, advancing the caller's
/// jitter stream. This is the *exact* computation [`call_with_retry`]
/// sleeps (before the `retry_after_ms` hint and deadline clamps), shared
/// so [`backoff_schedule`] can predict it byte-for-byte.
fn jittered_delay(policy: &RetryPolicy, retry: u32, jitter_state: &mut u64) -> Duration {
    // Deterministic multiplicative jitter in [0.5, 1.5): desynchronizes
    // a fleet of retrying clients without a global RNG.
    let jitter = 0.5 + unit(jitter_state);
    backoff_delay(policy, retry).mul_f64(jitter)
}

/// The full jittered retry schedule the policy would sleep, hint- and
/// deadline-free: entry `i` is the delay before retry `i` (0-based).
/// Replayable — same policy (same seed), same schedule — which is what
/// makes retry storms debuggable from a seed in a log line.
#[must_use]
pub fn backoff_schedule(policy: &RetryPolicy, retries: u32) -> Vec<Duration> {
    let mut state = policy.seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..retries)
        .map(|retry| jittered_delay(policy, retry, &mut state))
        .collect()
}

/// One round trip with the retry policy applied.
///
/// Retries only `overloaded`, `shutting_down`, and connect-refused — and
/// only for idempotent ops ([`is_idempotent`]). When attempts or the
/// deadline run out, the *last refusal* is returned (as the typed response
/// or connect error it was), so the caller always sees what the server
/// last said.
///
/// # Errors
///
/// Transport/protocol failures from the final attempt.
pub fn call_with_retry(
    socket: &Path,
    request: &str,
    policy: &RetryPolicy,
) -> Result<RetryOutcome, ProtoError> {
    let retry_allowed = is_idempotent(request);
    let mut jitter_state = policy.seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut backoff_total = Duration::ZERO;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let verdict = classify(one_shot(socket, request));
        let (last, hint) = match verdict {
            Verdict::Finish(result) => {
                return result.map(|response| RetryOutcome {
                    response,
                    attempts,
                    backoff: backoff_total,
                })
            }
            Verdict::Retry { last, hint } => (last, hint),
        };
        let out_of_attempts = attempts >= policy.max_attempts.max(1);
        if !retry_allowed || out_of_attempts {
            return last.map(|response| RetryOutcome {
                response,
                attempts,
                backoff: backoff_total,
            });
        }
        let mut delay = jittered_delay(policy, attempts - 1, &mut jitter_state);
        if let Some(hint) = hint {
            delay = delay.max(hint);
        }
        if let Some(deadline) = policy.deadline {
            let now = Instant::now();
            if now >= deadline || now + delay > deadline {
                // Sleeping would cross the caller's deadline: stop here
                // and surface the last refusal.
                return last.map(|response| RetryOutcome {
                    response,
                    attempts,
                    backoff: backoff_total,
                });
            }
        }
        std::thread::sleep(delay);
        backoff_total += delay;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, render_error, write_frame};
    use std::os::unix::net::UnixListener;
    use std::path::PathBuf;

    fn scratch_sock(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proxim_client_{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{name}.sock"));
        std::fs::remove_file(&path).ok();
        path
    }

    /// A scripted one-shot server: answers each accepted connection with
    /// the next canned payload.
    fn scripted_server(path: &PathBuf, responses: Vec<String>) -> std::thread::JoinHandle<usize> {
        let listener = UnixListener::bind(path).unwrap();
        std::thread::spawn(move || {
            let mut served = 0;
            for response in responses {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                let _ = read_frame(&mut stream);
                let _ = write_frame(&mut stream, response.as_bytes());
                served += 1;
            }
            served
        })
    }

    #[test]
    fn op_idempotency_classification() {
        for op in [
            "query", "batch", "health", "stats", "list", "metrics", "fleet",
        ] {
            assert!(is_idempotent(&format!("{{\"op\":\"{op}\"}}")), "{op}");
        }
        for req in [
            r#"{"op":"obs","level":"trace"}"#,
            r#"{"op":"reload"}"#,
            r#"{"op":"reload","force":true}"#,
            "not json",
            "{}",
        ] {
            assert!(!is_idempotent(req), "{req}");
        }
    }

    #[test]
    fn op_idempotency_exhaustively_covers_every_wire_op() {
        // Every op the wire recognizes must be classified: a new op added
        // to proto::WIRE_OPS without a call_with_retry decision fails here,
        // so it can't silently default to an unsafe retry behavior.
        for op in crate::proto::WIRE_OPS {
            assert!(
                op_idempotency(op).is_some(),
                "wire op {op:?} has no idempotency classification"
            );
        }
        assert_eq!(op_idempotency("fleet"), Some(true));
        assert_eq!(op_idempotency("reload"), Some(false));
        assert_eq!(op_idempotency("no_such_op"), None);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let delays: Vec<u64> = (0..6)
            .map(|i| backoff_delay(&policy, i).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![10, 20, 40, 80, 80, 80]);
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
        let out = call_with_retry(&sock, r#"{"op":"list"}"#, &policy).unwrap();
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
        let out = call_with_retry(&sock, r#"{"op":"reload"}"#, &RetryPolicy::default()).unwrap();
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
        let shed = render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full"));
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
        let out = call_with_retry(&sock, r#"{"op":"list"}"#, &policy).unwrap();
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
        let e = call_with_retry(&sock, r#"{"op":"health"}"#, &policy).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Internal);
        assert!(e.detail.starts_with("connect: "), "{e}");
    }

    #[test]
    fn backoff_schedule_is_byte_identical_per_seed() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0xD15E_A5ED,
            ..RetryPolicy::default()
        };
        let a = backoff_schedule(&policy, 8);
        let b = backoff_schedule(&policy, 8);
        assert_eq!(a, b, "same seed must replay the exact schedule");
        // A different seed shifts the jitter, not the envelope.
        let other = backoff_schedule(
            &RetryPolicy {
                seed: 0xF00D,
                ..policy
            },
            8,
        );
        assert_ne!(a, other, "different seed must change the jitter");
        for (i, d) in a.iter().enumerate() {
            let pre = backoff_delay(&policy, i as u32);
            assert!(
                *d >= pre.mul_f64(0.5) && *d < pre.mul_f64(1.5),
                "delay {i} = {d:?} outside jitter envelope of {pre:?}"
            );
        }
    }

    #[test]
    fn call_with_retry_sleeps_exactly_the_published_schedule() {
        let sock = scratch_sock("schedule");
        // No retry_after hint: the slept delays must equal backoff_schedule.
        let shed = render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full"));
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
        let out = call_with_retry(&sock, r#"{"op":"list"}"#, &policy).unwrap();
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
        let out = call_with_retry(&sock, r#"{"op":"list"}"#, &policy).unwrap();
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
    fn jitter_is_deterministic_per_seed() {
        let mut s1 = 7u64;
        let mut s2 = 7u64;
        let (a, b) = (unit(&mut s1), unit(&mut s2));
        assert_eq!(a, b, "same seed, same jitter stream");
        assert!((0.0..1.0).contains(&a));
    }
}
