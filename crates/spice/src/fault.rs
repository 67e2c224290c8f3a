//! One seeded fault plan for every injection site in the workspace.
//!
//! proxim degrades instead of aborting when a solve fails, a frame tears or
//! the disk fills: the recovery ladder ([`crate::recover`]), degraded model
//! slices, store quarantine and the daemon's disk-full drain. A
//! [`FaultPlan`] drives those paths on purpose: a seed plus one rate per
//! named site. The plan is a plain `Copy` value that travels in the options
//! each layer already takes — `CharacterizeOptions` → `Simulator` →
//! [`TranOptions`](crate::tran::TranOptions) for the solver sites,
//! `ServeOptions` for the wire, `ModelStore` and `atomic_write` (in
//! `proxim_model::store`) for the disk — so two plans in one process never see each other, and a disarmed
//! site costs one branch.
//!
//! The sites (every rate is a probability in `[0, 1]`):
//!
//! - `newton` — per Newton solve: fail it before it runs. Transient; the
//!   recovery ladder is expected to absorb it.
//! - `accept` — per converged, accuracy-passing step: reject it anyway,
//!   forcing a step cut.
//! - `kill` — per transient run: doom it. After a per-run pseudorandom
//!   solve index every solve fails, so no rung of the ladder (nor a
//!   restart) saves it; this is what degrades model slices.
//! - `torn_write` — per response frame: send a strict prefix and drop the
//!   connection.
//! - `slow_read` — per read: stall for `slow_read_stall` first.
//! - `disk_write`, `disk_rename` — per durable write or rename of a path:
//!   fail it with `disk_error` (`ENOSPC` or `EIO`).
//!
//! Decisions come from splitmix64 streams seeded by the plan's seed and a
//! key intrinsic to the work — a transient's [`run_entropy`] (keyed by the
//! horizon its step bounds were sized for), a connection's index, a file's
//! path — never wall clock or thread identity, so a faulted
//! characterization degrades the same slices on any worker count, and a
//! disarmed plan is byte-identical to no plan at all.
//!
//! A plan renders as, and parses from, a comma-separated `key=value` spec
//! (the `proxim_serve` daemon reads one from `PROXIM_FAULTS`):
//! `seed=1996,newton=0.2,accept=0.05,kill=0.02` or
//! `disk_write=1,disk_rename=1,disk_error=enospc`.

use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

/// The typed category of a disk failure, injected or real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The device is out of space (`ENOSPC`): writes fail but reads keep
    /// working, so the daemon can keep serving from what is loaded.
    NoSpace,
    /// Any other I/O failure (`EIO`, permissions, read-only remounts).
    Io,
}

/// A seed plus one rate per named fault site. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every stream.
    pub seed: u64,
    /// Per-solve probability of a transient Newton fault.
    pub newton: f64,
    /// Per-accepted-step probability of a forced rejection.
    pub accept: f64,
    /// Per-run probability of a terminal (unrecoverable) fault.
    pub kill: f64,
    /// Per-response probability that the frame write is torn.
    pub torn_write: f64,
    /// Per-read probability of a stall of [`Self::slow_read_stall`].
    pub slow_read: f64,
    /// The injected read stall.
    pub slow_read_stall: Duration,
    /// Per-path probability that a durable write fails.
    pub disk_write: f64,
    /// Per-path probability that a rename fails.
    pub disk_rename: f64,
    /// The error an injected disk fault reports.
    pub disk_error: DiskFaultKind,
}

impl FaultPlan {
    /// The inert plan: every rate zero.
    pub const DISARMED: Self = Self {
        seed: 0,
        newton: 0.0,
        accept: 0.0,
        kill: 0.0,
        torn_write: 0.0,
        slow_read: 0.0,
        slow_read_stall: Duration::ZERO,
        disk_write: 0.0,
        disk_rename: 0.0,
        disk_error: DiskFaultKind::NoSpace,
    };

    /// Whether any site can ever fire under this plan.
    pub fn is_armed(&self) -> bool {
        self.rates().iter().any(|&(_, r)| r > 0.0)
    }

    fn rates(&self) -> [(&'static str, f64); 7] {
        [
            ("newton", self.newton),
            ("accept", self.accept),
            ("kill", self.kill),
            ("torn_write", self.torn_write),
            ("slow_read", self.slow_read),
            ("disk_write", self.disk_write),
            ("disk_rename", self.disk_rename),
        ]
    }

    fn rate_mut(&mut self, site: &str) -> Option<&mut f64> {
        Some(match site {
            "newton" => &mut self.newton,
            "accept" => &mut self.accept,
            "kill" => &mut self.kill,
            "torn_write" => &mut self.torn_write,
            "slow_read" => &mut self.slow_read,
            "disk_write" => &mut self.disk_write,
            "disk_rename" => &mut self.disk_rename,
            _ => return None,
        })
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::DISARMED
    }
}

/// The spec form: the seed, then every armed rate, then the stall and disk
/// error when a site that uses them is armed. Parses back to the same plan
/// (for every field that can affect a decision).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (site, rate) in self.rates() {
            if rate > 0.0 {
                write!(f, ",{site}={rate}")?;
            }
        }
        if self.slow_read > 0.0 {
            write!(
                f,
                ",slow_read_stall_ms={}",
                self.slow_read_stall.as_millis()
            )?;
        }
        if self.disk_write > 0.0 || self.disk_rename > 0.0 {
            let errno = match self.disk_error {
                DiskFaultKind::NoSpace => "enospc",
                DiskFaultKind::Io => "eio",
            };
            write!(f, ",disk_error={errno}")?;
        }
        Ok(())
    }
}

/// A fault spec that does not parse: the offending item and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The `key=value` item at fault (the whole spec when it arms nothing).
    pub item: String,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec item {:?}: {}", self.item, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// Parses the spec form (see [`fmt::Display`]). Keys: `seed`, the seven
/// site rates, `slow_read_stall_ms` and `disk_error` (`enospc` or `eio`).
/// A spec that arms no site is an error: it can only be a mistake.
impl FromStr for FaultPlan {
    type Err = FaultSpecError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let mut plan = Self::DISARMED;
        for item in spec.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let err = |reason| FaultSpecError {
                item: item.to_string(),
                reason,
            };
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| err("expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| err("seed must be a u64"))?,
                "slow_read_stall_ms" => {
                    let ms = value.parse().map_err(|_| err("stall must be whole ms"))?;
                    plan.slow_read_stall = Duration::from_millis(ms);
                }
                "disk_error" => {
                    plan.disk_error = match value {
                        "enospc" => DiskFaultKind::NoSpace,
                        "eio" => DiskFaultKind::Io,
                        _ => return Err(err("disk_error must be enospc or eio")),
                    }
                }
                site => {
                    let rate = plan.rate_mut(site).ok_or_else(|| err("unknown key"))?;
                    *rate = value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| err("rate must be a number in [0, 1]"))?;
                }
            }
        }
        if !plan.is_armed() {
            return Err(FaultSpecError {
                item: spec.to_string(),
                reason: "arms no fault site",
            });
        }
        Ok(plan)
    }
}

/// splitmix64: tiny, high-quality, and stable across platforms. Public so
/// the serving layer's retry jitter draws from the same family.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of [`splitmix64`].
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Mixes a transient run's own parameters into per-run entropy: the
/// horizon its step bounds were sized for (see
/// [`TranOptions::horizon`](crate::tran::TranOptions::horizon)), its
/// voltage-change bound, and the size of its circuit. Using only
/// run-intrinsic values (never thread identity or wall clock) keeps
/// faulted characterizations deterministic across worker counts. A run's
/// end time enters only as the horizon, which is `t_stop` unless the run
/// was moved past it: runs that share a horizon draw the same faults, so a
/// transient that forks from a shared prefix
/// ([`crate::tran::tran_family`]) sees the stream it would have seen alone.
pub fn run_entropy(horizon: f64, dv_max: f64, unknowns: usize, elements: usize) -> u64 {
    let mut state = horizon.to_bits() ^ dv_max.to_bits().rotate_left(17);
    state ^= (unknowns as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    state ^= (elements as u64).rotate_left(32);
    // One scrambling round so nearby parameter sets decorrelate.
    splitmix64(&mut state)
}

/// The decisions of one plan for one unit of work: a transient run, a
/// connection, or a durable write. Each method answers whether its site
/// fires next; under a disarmed plan none ever does. Cloning a stream forks
/// it: both copies make the same decisions from then on.
#[derive(Debug, Clone)]
pub struct FaultStream {
    plan: FaultPlan,
    state: u64,
    /// Terminal fault: solves left before every solve fails.
    kill_in: Option<u64>,
}

impl FaultStream {
    fn new(plan: &FaultPlan, state: u64) -> Self {
        Self {
            plan: *plan,
            state,
            kill_in: None,
        }
    }

    /// Opens the stream for one transient run. The run's kill fate is drawn
    /// here, first and once, so restarts cannot escape it.
    pub fn for_run(plan: &FaultPlan, entropy: u64) -> Self {
        let mut s = Self::new(plan, plan.seed ^ entropy.rotate_left(1));
        if plan.is_armed() && unit(&mut s.state) < plan.kill {
            s.kill_in = Some((splitmix64(&mut s.state) % 200) + 1);
        }
        s
    }

    /// Opens the stream for the `index`-th accepted connection.
    pub fn for_connection(plan: &FaultPlan, index: u64) -> Self {
        Self::new(
            plan,
            plan.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(1),
        )
    }

    /// Opens the stream for one durable write or rename of `path`: the
    /// decision is a pure function of the seed and the path, so writers
    /// share no counter. With both disk sites disarmed nothing can draw,
    /// so the path is not hashed.
    pub fn for_path(plan: &FaultPlan, path: &Path) -> Self {
        if !(plan.disk_write > 0.0 || plan.disk_rename > 0.0) {
            return Self::new(plan, plan.seed);
        }
        let bytes = path.as_os_str().as_encoded_bytes();
        let state = bytes.iter().fold(plan.seed, |mut h, &b| {
            h ^= u64::from(b);
            splitmix64(&mut h)
        });
        Self::new(plan, state)
    }

    /// A draw against `rate`; a zero rate draws nothing.
    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && unit(&mut self.state) < rate
    }

    /// Whether the next Newton solve should be failed outright.
    pub fn newton(&mut self) -> bool {
        if let Some(left) = &mut self.kill_in {
            if *left == 0 {
                return true;
            }
            *left -= 1;
        }
        self.fires(self.plan.newton)
    }

    /// Whether a converged, accuracy-passing step should be rejected anyway.
    pub fn accept(&mut self) -> bool {
        self.fires(self.plan.accept)
    }

    /// Whether (and where) the next `frame_len`-byte response write should
    /// be torn: `Some(keep)` means send only the first `keep` bytes and
    /// drop the connection. `keep` is always strictly inside the frame, so
    /// the peer sees a typed truncation.
    pub fn torn_write(&mut self, frame_len: usize) -> Option<usize> {
        if frame_len == 0 || !self.fires(self.plan.torn_write) {
            return None;
        }
        Some((splitmix64(&mut self.state) % frame_len as u64) as usize)
    }

    /// The stall to inject before the next read, if any.
    pub fn slow_read(&mut self) -> Option<Duration> {
        self.fires(self.plan.slow_read)
            .then_some(self.plan.slow_read_stall)
    }

    /// The error a durable write of this stream's path fails with, if any.
    pub fn disk_write(&mut self) -> Option<DiskFaultKind> {
        self.fires(self.plan.disk_write)
            .then_some(self.plan.disk_error)
    }

    /// The error a rename of this stream's path fails with, if any.
    pub fn disk_rename(&mut self) -> Option<DiskFaultKind> {
        self.fires(self.plan.disk_rename)
            .then_some(self.plan.disk_error)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_is_inert() {
        let plan = FaultPlan::DISARMED;
        assert!(!plan.is_armed());
        let mut run = FaultStream::for_run(&plan, run_entropy(1e-9, 0.05, 7, 9));
        let mut conn = FaultStream::for_connection(&plan, 7);
        let mut disk = FaultStream::for_path(&plan, Path::new("/store/a.pxm"));
        for _ in 0..100 {
            assert!(!run.newton());
            assert!(!run.accept());
            assert!(conn.torn_write(512).is_none());
            assert!(conn.slow_read().is_none());
            assert!(disk.disk_write().is_none());
            assert!(disk.disk_rename().is_none());
        }
    }

    #[test]
    fn run_entropy_is_parameter_sensitive_and_stable() {
        let a = run_entropy(1e-9, 0.05, 7, 9);
        let b = run_entropy(1e-9, 0.05, 7, 9);
        assert_eq!(a, b, "same parameters, same entropy");
        assert_ne!(a, run_entropy(2e-9, 0.05, 7, 9));
        assert_ne!(a, run_entropy(1e-9, 0.025, 7, 9));
        assert_ne!(a, run_entropy(1e-9, 0.05, 8, 9));
        assert_ne!(a, run_entropy(1e-9, 0.05, 7, 10));
    }

    #[test]
    fn armed_stream_is_deterministic_and_rate_accurate() {
        let plan = FaultPlan {
            seed: 42,
            newton: 0.2,
            ..FaultPlan::DISARMED
        };
        let draw = |entropy: u64| -> Vec<bool> {
            let mut s = FaultStream::for_run(&plan, entropy);
            (0..2000).map(|_| s.newton()).collect()
        };
        let a = draw(0xDEAD_BEEF);
        assert_eq!(
            a,
            draw(0xDEAD_BEEF),
            "same entropy must replay the same faults"
        );
        let hits = a.iter().filter(|&&f| f).count();
        assert!(
            (300..500).contains(&hits),
            "20% of 2000 solves should fault, got {hits}"
        );
    }

    #[test]
    fn killed_run_faults_forever_past_the_kill_index() {
        let plan = FaultPlan {
            seed: 7,
            kill: 1.0,
            ..FaultPlan::DISARMED
        };
        let mut s = FaultStream::for_run(&plan, 123);
        let faults: Vec<bool> = (0..500).map(|_| s.newton()).collect();
        let first = faults.iter().position(|&f| f).expect("kill must fire");
        assert!(first <= 200, "kill index bounded, got {first}");
        assert!(
            faults[first..].iter().all(|&f| f),
            "terminal fault must persist"
        );
    }

    #[test]
    fn connection_streams_replay_and_tear_inside_the_frame() {
        let plan = FaultPlan {
            seed: 99,
            torn_write: 0.5,
            ..FaultPlan::DISARMED
        };
        let draw = |index: u64| -> Vec<Option<usize>> {
            let mut s = FaultStream::for_connection(&plan, index);
            (0..200).map(|_| s.torn_write(100)).collect()
        };
        let a = draw(3);
        assert_eq!(a, draw(3), "same connection index must replay");
        assert_ne!(a, draw(4), "different connections get different fates");
        let tears = a.iter().filter(|t| t.is_some()).count();
        assert!((60..140).contains(&tears), "~50% of 200, got {tears}");
        assert!(a.iter().flatten().all(|&keep| keep < 100));
    }

    #[test]
    fn disk_decisions_depend_on_seed_and_path_only() {
        let plan = FaultPlan {
            seed: 5,
            disk_write: 0.5,
            disk_error: DiskFaultKind::Io,
            ..FaultPlan::DISARMED
        };
        let fate = |p: &str| FaultStream::for_path(&plan, Path::new(p)).disk_write();
        let fates: Vec<_> = (0..64).map(|i| fate(&format!("/s/{i}.pxm"))).collect();
        let again: Vec<_> = (0..64).map(|i| fate(&format!("/s/{i}.pxm"))).collect();
        assert_eq!(fates, again, "a path's fate is fixed by the plan");
        let hits = fates.iter().flatten().count();
        assert!((16..48).contains(&hits), "~50% of 64 paths, got {hits}");
        assert!(fates.iter().flatten().all(|&k| k == DiskFaultKind::Io));
        let full = FaultPlan {
            disk_rename: 1.0,
            ..plan
        };
        let mut s = FaultStream::for_path(&full, Path::new("/s/x"));
        assert_eq!(s.disk_rename(), Some(DiskFaultKind::Io));
    }

    #[test]
    fn spec_round_trips_through_display() {
        let plan = FaultPlan {
            seed: 1996,
            newton: 0.2,
            accept: 0.05,
            kill: 0.02,
            slow_read: 0.25,
            slow_read_stall: Duration::from_millis(5),
            disk_rename: 1.0,
            disk_error: DiskFaultKind::Io,
            ..FaultPlan::DISARMED
        };
        let spec = plan.to_string();
        assert_eq!(
            spec,
            "seed=1996,newton=0.2,accept=0.05,kill=0.02,slow_read=0.25,disk_rename=1,\
             slow_read_stall_ms=5,disk_error=eio"
        );
        assert_eq!(spec.parse::<FaultPlan>(), Ok(plan));
        let full: FaultPlan = " disk_write=1, disk_rename=1 ,disk_error=enospc,"
            .parse()
            .unwrap();
        assert_eq!(full.disk_write, 1.0);
        assert_eq!(full.disk_error, DiskFaultKind::NoSpace);
        assert_eq!(full.seed, 0);
    }

    #[test]
    fn bad_specs_name_the_offending_item() {
        let reason = |spec: &str| spec.parse::<FaultPlan>().unwrap_err();
        let e = reason("seed=1,newton");
        assert_eq!(
            (e.item.as_str(), e.reason),
            ("newton", "expected key=value")
        );
        assert_eq!(reason("nwton=0.2").reason, "unknown key");
        assert_eq!(reason("kill=1.5").reason, "rate must be a number in [0, 1]");
        assert_eq!(reason("kill=nan").reason, "rate must be a number in [0, 1]");
        assert_eq!(reason("seed=-1,kill=1").reason, "seed must be a u64");
        assert_eq!(
            reason("disk_write=1,disk_error=full").item,
            "disk_error=full"
        );
        assert_eq!(
            reason("slow_read=1,slow_read_stall_ms=0.5").item,
            "slow_read_stall_ms=0.5"
        );
        assert_eq!(reason("").reason, "arms no fault site");
        assert_eq!(reason("seed=9,newton=0").reason, "arms no fault site");
        assert!(reason("kill=2").to_string().contains("\"kill=2\""));
    }
}
