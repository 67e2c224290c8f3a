//! Crash-consistent checkpoint/resume and run control for characterization.
//!
//! A characterization run is thousands of independent, deterministic
//! simulation jobs. [`CheckpointJournal`] journals each *completed* job to
//! an append-only file as it finishes, so a run that dies — `SIGKILL`,
//! power loss, OOM — can be resumed: re-running characterization with the
//! same inputs and the same journal skips every journaled job and replays
//! its recorded outcome instead of simulating. Because outcomes are stored
//! bit-exactly (`f64` as raw bit patterns) and assembly consumes outcomes
//! strictly by job index, a resumed run provably produces the **byte
//! identical** model of an uninterrupted run.
//!
//! # Journal format and crash-consistency invariants
//!
//! The journal is line-oriented ASCII. Every line carries its own FNV-1a-64
//! checksum over the rest of the line:
//!
//! ```text
//! <sum:016x> H v1 key=<run key:016x>
//! <sum:016x> E <phase> <job index> <stimulus hash:016x> R <edge> <delay bits> <trans bits> <wide bits | ->
//! <sum:016x> E <phase> <job index> <stimulus hash:016x> P <peak bits>
//! ```
//!
//! The header binds the journal to one run identity (the characterization
//! cache key: cell + technology + result-affecting options). Entries are
//! appended and periodically fsync'd; nothing is ever rewritten in place.
//! On open, the file is scanned front to back and **truncated at the first
//! invalid line** — a torn final append (missing newline, short write, bad
//! checksum) silently costs that one entry, never the journal. A header
//! that does not match the requested run key discards the whole file and
//! starts fresh.
//!
//! Only *successful* outcomes are journaled. Failed jobs re-run on resume,
//! deterministically reproducing the same typed failures — so degraded
//! slices keep their exact provenance strings and byte-identity holds for
//! degraded models too.
//!
//! [`RunControl`] bundles the journal configuration with the cooperative
//! [`CancelToken`] honored at job, Newton-iteration, and transient-step
//! boundaries (see [`crate::model::ProximityModel::characterize_controlled`]).

use crate::error::ModelError;
use crate::jobs::{JobOutcome, SimJob};
use crate::persist::fnv1a_64;
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use proxim_spice::CancelToken;
use std::collections::HashMap;
use std::fs;
use std::io::{Seek, Write};
use std::path::PathBuf;
use std::sync::Mutex;

/// Where and how often to checkpoint a characterization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The journal file. Created (with its parent directory) on first use;
    /// an existing journal for the same run identity resumes.
    pub path: PathBuf,
    /// fsync the journal after this many recorded jobs (1 = every job).
    /// Larger values trade crash-window size for fewer syncs; the window
    /// only ever costs re-simulating the unsynced tail, never corruption.
    pub sync_every: usize,
}

impl CheckpointConfig {
    /// A config that syncs after every recorded job — the smallest crash
    /// window, suitable for tests and chaos harnesses.
    pub fn every_job(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            sync_every: 1,
        }
    }
}

/// Cancellation and checkpointing knobs for one characterization run.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative stop/deadline token; polled at job boundaries and, inside
    /// each simulation, at transient-step and Newton-iteration boundaries.
    pub cancel: CancelToken,
    /// Optional checkpoint journal; `None` runs without checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
}

impl RunControl {
    /// No cancellation, no deadline, no checkpointing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables checkpointing to `config`.
    #[must_use]
    pub fn with_checkpoint(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint = Some(config);
        self
    }
}

/// The identity hash of one job's stimulus, stored with each journal entry
/// so a resume only replays an outcome onto the *same* job (same phase,
/// same index, same stimulus) it was recorded for.
pub(crate) fn stimulus_hash(job: &SimJob) -> u64 {
    fnv1a_64(format!("{:?}", job.stimulus).as_bytes())
}

/// An entry key within the journal: `(phase, job index within phase)`.
type EntryKey = (String, usize);

struct Inner {
    file: fs::File,
    entries: HashMap<EntryKey, (u64, JobOutcome)>,
    resumed: usize,
    since_sync: usize,
    sync_every: usize,
}

/// An append-only, checksummed journal of completed characterization jobs.
///
/// Shared by reference across worker threads; all access is serialized by
/// an internal lock (journal I/O is negligible next to a transient).
pub struct CheckpointJournal {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for CheckpointJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("CheckpointJournal")
            .field("entries", &inner.entries.len())
            .field("resumed", &inner.resumed)
            .field("sync_every", &inner.sync_every)
            .finish()
    }
}

fn edge_char(edge: Edge) -> char {
    match edge {
        Edge::Rising => 'R',
        Edge::Falling => 'F',
    }
}

fn parse_edge(s: &str) -> Option<Edge> {
    match s {
        "R" => Some(Edge::Rising),
        "F" => Some(Edge::Falling),
        _ => None,
    }
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

fn parse_bits(s: &str) -> Option<f64> {
    parse_hex(s).map(f64::from_bits)
}

/// Renders the payload (everything after the checksum) of an entry line.
fn entry_payload(phase: &str, idx: usize, stim: u64, outcome: &JobOutcome) -> Option<String> {
    let body = match outcome {
        JobOutcome::Response {
            output_edge,
            delay,
            trans,
            wide,
        } => format!(
            "R {} {} {} {}",
            edge_char(*output_edge),
            bits(*delay),
            bits(*trans),
            wide.map_or_else(|| "-".to_string(), bits),
        ),
        JobOutcome::Peak(v) => format!("P {}", bits(*v)),
        // Failures are never journaled: they re-run on resume so degraded
        // slices reproduce their exact provenance.
        JobOutcome::Failed { .. } => return None,
    };
    Some(format!("E {phase} {idx} {stim:016x} {body}"))
}

/// Parses an entry payload back; `None` for anything malformed.
fn parse_entry_payload(payload: &str) -> Option<(EntryKey, u64, JobOutcome)> {
    let mut parts = payload.split(' ');
    if parts.next()? != "E" {
        return None;
    }
    let phase = parts.next()?.to_string();
    let idx: usize = parts.next()?.parse().ok()?;
    let stim = parse_hex(parts.next()?)?;
    let outcome = match parts.next()? {
        "R" => {
            let output_edge = parse_edge(parts.next()?)?;
            let delay = parse_bits(parts.next()?)?;
            let trans = parse_bits(parts.next()?)?;
            let wide = match parts.next()? {
                "-" => None,
                w => Some(parse_bits(w)?),
            };
            JobOutcome::Response {
                output_edge,
                delay,
                trans,
                wide,
            }
        }
        "P" => JobOutcome::Peak(parse_bits(parts.next()?)?),
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(((phase, idx), stim, outcome))
}

/// Prefixes a payload with its checksum, forming one full line (no newline).
fn checksummed(payload: &str) -> String {
    format!("{:016x} {payload}", fnv1a_64(payload.as_bytes()))
}

/// Splits a full line into its verified payload; `None` if the checksum is
/// absent or wrong.
fn verify_line(line: &str) -> Option<&str> {
    let (sum, payload) = line.split_once(' ')?;
    let sum = parse_hex(sum)?;
    (fnv1a_64(payload.as_bytes()) == sum).then_some(payload)
}

impl CheckpointJournal {
    /// Opens (resuming) or creates the journal at `config.path`, bound to
    /// the run identity `run_key`.
    ///
    /// An existing file is scanned front to back; every valid entry becomes
    /// resumable state, and the file is truncated at the first invalid line
    /// (a torn tail from a crash mid-append). A missing or mismatched
    /// header discards the file and starts a fresh journal.
    ///
    /// # Errors
    ///
    /// [`ModelError::Persist`] when the file cannot be created, read,
    /// truncated, or synced.
    pub fn open(config: &CheckpointConfig, run_key: u64) -> Result<Self, ModelError> {
        let persist_err = |e: std::io::Error| ModelError::Persist {
            detail: format!("checkpoint journal {}: {e}", config.path.display()),
        };
        if let Some(parent) = config.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(persist_err)?;
        }
        let existing = fs::read(&config.path).unwrap_or_default();
        let text = String::from_utf8_lossy(&existing);

        let mut entries = HashMap::new();
        let mut valid_bytes = 0usize;
        let mut saw_header = false;
        for line in text.split_inclusive('\n') {
            let Some(body) = line.strip_suffix('\n') else {
                break; // torn final append: no newline made it to disk
            };
            let Some(payload) = verify_line(body) else {
                break;
            };
            if !saw_header {
                if payload != format!("H v1 key={run_key:016x}") {
                    break; // different run (or corrupt header): start over
                }
                saw_header = true;
            } else {
                let Some((key, stim, outcome)) = parse_entry_payload(payload) else {
                    break;
                };
                entries.insert(key, (stim, outcome));
            }
            valid_bytes += line.len();
        }
        if !saw_header {
            valid_bytes = 0;
            entries.clear();
        }

        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&config.path)
            .map_err(persist_err)?;
        file.set_len(valid_bytes as u64).map_err(persist_err)?;
        file.seek(std::io::SeekFrom::End(0)).map_err(persist_err)?;
        if valid_bytes == 0 {
            let line = checksummed(&format!("H v1 key={run_key:016x}"));
            file.write_all(format!("{line}\n").as_bytes())
                .map_err(persist_err)?;
            file.sync_all().map_err(persist_err)?;
        }
        let resumed = entries.len();
        let _ = obs::event("char.checkpoint.open")
            .arg("resumed", resumed)
            .arg("key", format_args!("{run_key:016x}"));
        Ok(Self {
            inner: Mutex::new(Inner {
                file,
                entries,
                resumed,
                since_sync: 0,
                sync_every: config.sync_every.max(1),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only come from journal I/O
        // bookkeeping; the journal is still structurally sound, so recover
        // the guard rather than poisoning every subsequent job.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a journaled outcome for `(phase, idx)`. The stored stimulus
    /// hash must match `stim` — a journal from a run with different
    /// enumeration never replays onto the wrong job.
    pub fn lookup(&self, phase: &str, idx: usize, stim: u64) -> Option<JobOutcome> {
        let inner = self.lock();
        let (stored_stim, outcome) = inner.entries.get(&(phase.to_string(), idx))?;
        (*stored_stim == stim).then(|| outcome.clone())
    }

    /// Journals one completed job. Failed outcomes are ignored (they re-run
    /// on resume); I/O trouble is booked as a trace event and otherwise
    /// tolerated — a checkpointing hiccup must never fail the run itself.
    pub fn record(&self, phase: &str, idx: usize, stim: u64, outcome: &JobOutcome) {
        let Some(payload) = entry_payload(phase, idx, stim, outcome) else {
            return;
        };
        let line = checksummed(&payload);
        let mut inner = self.lock();
        // The record event lands in the flight ring *before* the append,
        // and the mirror dump below is written *after* it, all under the
        // journal lock. A `SIGKILL` at any instant therefore leaves the
        // on-disk dump within one entry of the journal tail: before the
        // append they agree, between append and dump the journal is
        // exactly one ahead. The chaos suite asserts this invariant.
        let _ = obs::event("char.checkpoint.record")
            .arg("phase", phase)
            .arg("idx", idx);
        let result = inner.file.write_all(format!("{line}\n").as_bytes());
        if let Err(e) = result {
            let _ = obs::event("char.checkpoint.write_failed")
                .arg("error", format_args!("{e}"))
                .arg("phase", phase);
            return;
        }
        inner
            .entries
            .insert((phase.to_string(), idx), (stim, outcome.clone()));
        inner.since_sync += 1;
        if inner.since_sync >= inner.sync_every {
            let _ = inner.file.sync_data();
            inner.since_sync = 0;
        }
        if obs::flight::sync_dump_armed() {
            if let Some(path) = obs::flight::armed_dump_path() {
                let _ = crate::store::atomic_write(
                    &path,
                    obs::flight::dump().as_bytes(),
                    &proxim_spice::FaultPlan::DISARMED,
                );
            }
        }
    }

    /// Forces any buffered entries to disk — the final flush of a graceful
    /// (`SIGTERM`-style) shutdown.
    pub fn flush(&self) {
        let mut inner = self.lock();
        let _ = inner.file.sync_data();
        inner.since_sync = 0;
    }

    /// Entries loaded from disk when the journal was opened (i.e. work a
    /// resumed run can skip).
    pub fn resumed_entries(&self) -> usize {
        self.lock().resumed
    }

    /// Total entries currently journaled (resumed plus newly recorded).
    pub fn entries(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("proxim_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}.journal", std::process::id()))
    }

    fn response(delay: f64) -> JobOutcome {
        JobOutcome::Response {
            output_edge: Edge::Falling,
            delay,
            trans: 2.5e-10,
            wide: Some(3.25e-10),
        }
    }

    #[test]
    fn record_then_reopen_resumes_bit_exactly() {
        let path = tmp("roundtrip");
        fs::remove_file(&path).ok();
        let cfg = CheckpointConfig::every_job(&path);
        let j = CheckpointJournal::open(&cfg, 0xabcd).unwrap();
        // Awkward floats on purpose: bit-pattern storage must be exact.
        let outcomes = [
            response(0.1 + 0.2),
            response(1e-300),
            JobOutcome::Peak(-0.0),
        ];
        for (i, o) in outcomes.iter().enumerate() {
            j.record("singles", i, 7 + i as u64, o);
        }
        drop(j);

        let j = CheckpointJournal::open(&cfg, 0xabcd).unwrap();
        assert_eq!(j.resumed_entries(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(j.lookup("singles", i, 7 + i as u64).as_ref(), Some(o));
        }
        // Wrong stimulus hash or phase never replays.
        assert_eq!(j.lookup("singles", 0, 99), None);
        assert_eq!(j.lookup("pairs", 0, 7), None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        fs::remove_file(&path).ok();
        let cfg = CheckpointConfig::every_job(&path);
        let j = CheckpointJournal::open(&cfg, 1);
        let j = j.unwrap();
        j.record("singles", 0, 5, &response(1.0));
        j.record("singles", 1, 6, &response(2.0));
        drop(j);

        // Simulate a crash mid-append: chop the last line in half.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let j = CheckpointJournal::open(&cfg, 1).unwrap();
        assert_eq!(j.resumed_entries(), 1, "only the intact entry survives");
        assert!(j.lookup("singles", 0, 5).is_some());
        assert_eq!(j.lookup("singles", 1, 6), None);
        // The journal is append-consistent again: new records work.
        j.record("singles", 1, 6, &response(2.0));
        drop(j);
        let j = CheckpointJournal::open(&cfg, 1).unwrap();
        assert_eq!(j.resumed_entries(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_entry_drops_it_and_the_tail() {
        let path = tmp("corrupt");
        fs::remove_file(&path).ok();
        let cfg = CheckpointConfig::every_job(&path);
        let j = CheckpointJournal::open(&cfg, 2).unwrap();
        for i in 0..3 {
            j.record("pairs", i, i as u64, &JobOutcome::Peak(i as f64));
        }
        drop(j);

        // Flip one byte in the middle entry's payload.
        let mut bytes = fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let second_entry = text.match_indices('\n').nth(1).unwrap().0 + 20;
        bytes[second_entry] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let j = CheckpointJournal::open(&cfg, 2).unwrap();
        assert_eq!(
            j.resumed_entries(),
            1,
            "scan stops at the corrupt line; the valid prefix survives"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_run_key_starts_fresh() {
        let path = tmp("rekey");
        fs::remove_file(&path).ok();
        let cfg = CheckpointConfig::every_job(&path);
        let j = CheckpointJournal::open(&cfg, 10).unwrap();
        j.record("singles", 0, 1, &response(1.0));
        drop(j);

        let j = CheckpointJournal::open(&cfg, 11).unwrap();
        assert_eq!(j.resumed_entries(), 0, "other run's entries must not leak");
        assert_eq!(j.lookup("singles", 0, 1), None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_outcomes_are_not_journaled() {
        let path = tmp("failed");
        fs::remove_file(&path).ok();
        let cfg = CheckpointConfig::every_job(&path);
        let j = CheckpointJournal::open(&cfg, 3).unwrap();
        j.record(
            "singles",
            0,
            1,
            &JobOutcome::Failed {
                job: 0,
                reason: ModelError::Table("boom".into()),
            },
        );
        assert_eq!(j.entries(), 0);
        drop(j);
        let j = CheckpointJournal::open(&cfg, 3).unwrap();
        assert_eq!(j.resumed_entries(), 0);
        fs::remove_file(&path).ok();
    }
}
