//! The retry policy of the daemon's clients: which ops may be re-sent,
//! and the backoff schedule between attempts. The retrying loop itself is
//! [`FleetClient::call`](crate::balance::FleetClient::call), over one
//! socket or many.
//!
//! The daemon sheds load honestly — `overloaded` and `shutting_down` are
//! *typed refusals issued before any server-side effect* — and a restart
//! or reload window can briefly refuse connections altogether. The
//! schedule is capped exponential backoff with deterministic
//! multiplicative jitter (the `proxim_spice::fault` splitmix64 stream —
//! no global RNG, replayable from the seed), raised to the server's
//! `retry_after_ms` hint when one rides on the shed response. Two hard
//! rules bound every retry loop:
//!
//! - **never past the deadline**: a sleep that would cross the caller's
//!   deadline is not taken — the last refusal is returned instead;
//! - **never for non-idempotent ops**: `obs` mutates observability state
//!   and `reload` swaps the serving set; both are sent exactly once.

use proxim_obs::json::Json;
use proxim_spice::fault::unit;
use std::time::{Duration, Instant};

/// Retry schedule and bounds for [`FleetClient`](crate::balance::FleetClient).
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

/// The pre-jitter backoff delay before retry number `retry` (0-based):
/// `base << retry`, capped at `cap`.
fn backoff_delay(policy: &RetryPolicy, retry: u32) -> Duration {
    let exp = policy
        .base
        .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
    exp.min(policy.cap)
}

/// The start of `policy`'s jitter stream.
pub(crate) fn jitter_start(policy: &RetryPolicy) -> u64 {
    policy.seed ^ 0x9E37_79B9_7F4A_7C15
}

/// The jittered delay before retry number `retry`, advancing the caller's
/// jitter stream from [`jitter_start`]. This is the *exact* computation
/// the fleet client sleeps (before the `retry_after_ms` hint and deadline
/// clamps), shared so [`backoff_schedule`] can predict it byte-for-byte.
pub(crate) fn jittered_delay(policy: &RetryPolicy, retry: u32, jitter_state: &mut u64) -> Duration {
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
    let mut state = jitter_start(policy);
    (0..retries)
        .map(|retry| jittered_delay(policy, retry, &mut state))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

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
        // to proto::WIRE_OPS without a retry decision fails here,
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
    fn jitter_is_deterministic_per_seed() {
        let mut s1 = 7u64;
        let mut s2 = 7u64;
        let (a, b) = (unit(&mut s1), unit(&mut s2));
        assert_eq!(a, b, "same seed, same jitter stream");
        assert!((0.0..1.0).contains(&a));
    }
}
