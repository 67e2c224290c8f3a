//! Model persistence and the content-addressed characterization cache.
//!
//! Characterization costs thousands of transient analyses; the resulting
//! [`ProximityModel`] is plain data (tables, thresholds, VTC curves) and is
//! serialized to JSON so a library can be characterized once and shipped —
//! the moral equivalent of a `.lib` file in a conventional flow.
//!
//! [`ModelCache`] sits on top: it keys stored models by a hash of the cell
//! topology, the technology, and every result-affecting characterization
//! option, so repeated [`ModelCache::characterize`] calls for the same
//! inputs are served from disk with zero simulations — and any change to
//! cell, technology, or grids misses and re-characterizes.

use crate::characterize::CharacterizeOptions;
use crate::error::ModelError;
use crate::jobs::{metric, CharStats};
use crate::model::ProximityModel;
use proxim_cells::{Cell, Technology};
use proxim_obs as obs;
use proxim_obs::json;
use std::fs;
use std::path::{Path, PathBuf};

/// Books one cache lookup outcome: a trace event for the timeline and a
/// process-global counter (the caller's [`CharStats`] keeps its own
/// per-call copy).
fn note_cache(outcome: &str, counter: &str, key: u64) {
    if obs::metrics_enabled() {
        obs::Registry::global().counter(counter).incr();
    }
    let _ = obs::event("char.cache")
        .arg("outcome", outcome)
        .arg("key", format_args!("{key:016x}"));
}

impl ProximityModel {
    /// Serializes the model to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if the model holds a value JSON
    /// cannot carry: a non-finite table entry (which a validated model
    /// never has).
    pub fn to_json(&self) -> Result<String, ModelError> {
        json::to_string(self).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })
    }

    /// Deserializes a model from JSON produced by [`ProximityModel::to_json`].
    ///
    /// The input is untrusted: beyond parsing, the text must fit
    /// [`MAX_MODEL_JSON_BYTES`] and the decoded model must pass
    /// [`ProximityModel::validate`] — decoding fills table fields directly,
    /// so without the post-parse walk a hand-edited or bit-rotted file
    /// could smuggle NaN/Inf entries or malformed axes into the query
    /// path. (JSON `1e999` parses as `+inf`, so overflow is a validation
    /// concern, not just a syntax one.)
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on oversized or malformed input and
    /// [`ModelError::Audit`] when the decoded model fails validation.
    pub fn from_json(text: &str) -> Result<Self, ModelError> {
        if text.len() > MAX_MODEL_JSON_BYTES {
            return Err(ModelError::Persist {
                detail: format!(
                    "model JSON is {} bytes, over the {MAX_MODEL_JSON_BYTES}-byte limit",
                    text.len()
                ),
            });
        }
        let model: Self = json::from_str(text).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        model.validate()?;
        Ok(model)
    }

    /// Writes the model to a file, atomically: the JSON is staged in a
    /// same-directory temp file, fsync'd, and renamed into place, so a
    /// crash mid-save never leaves a half-written model at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on serialization or I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        atomic_write(path.as_ref(), self.to_json()?.as_bytes())
    }

    /// Loads a model from a file written by [`ProximityModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let text = fs::read_to_string(path.as_ref()).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

/// On-disk model format version, part of every cache key. Bump whenever
/// [`ProximityModel`]'s serialized shape changes so stale entries from an
/// older build miss (and re-characterize) instead of failing to parse.
/// v2: models carry the `degraded` slice provenance list.
/// v3: cache entries are wrapped in a checksummed envelope and written
/// atomically (tmp + fsync + rename), so torn entries are detectable.
const MODEL_FORMAT_VERSION: u32 = 3;

/// Upper bound on accepted model-JSON size. A characterized model is a few
/// hundred kilobytes; anything near this limit is not one of ours, and
/// bounding the input keeps a hostile cache entry from ballooning memory
/// before the parser even sees a structural problem.
pub const MAX_MODEL_JSON_BYTES: usize = 64 * 1024 * 1024;

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms and
/// runs (unlike `std`'s `DefaultHasher`, whose output is unspecified).
///
/// Public because every checksummed on-disk format in the workspace (cache
/// envelopes, checkpoint journals, the binary model store in
/// `proxim-serve`) uses this same function, so readers and writers cannot
/// drift apart.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn persist_err(e: impl std::fmt::Display) -> ModelError {
    ModelError::Persist {
        detail: e.to_string(),
    }
}

/// Monotonic discriminator for temp-file names, so two writer *threads* in
/// one process never collide (two *processes* are separated by pid).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Crash-consistent file write: the bytes land in a same-directory temp
/// file, are fsync'd, and are atomically renamed over `path` (then the
/// directory entry is fsync'd, best effort). A reader — or a crash at any
/// instant — sees either the complete old file or the complete new file,
/// never an interleaving or a prefix. Concurrent writers race only at the
/// rename, so the last *complete* write wins intact.
///
/// Public so other persistence layers (the `proxim-serve` binary model
/// store) share the exact same crash-consistency path instead of
/// reimplementing it.
///
/// # Errors
///
/// Returns [`ModelError::Persist`] on any I/O failure; the staged temp
/// file is removed best-effort so failures leave no debris.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), ModelError> {
    use std::io::Write;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| persist_err(format!("unusable path {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(persist_err)?;
        f.write_all(bytes).map_err(persist_err)?;
        f.sync_all().map_err(persist_err)?;
        fs::rename(&tmp, path).map_err(persist_err)?;
        // Make the rename itself durable. Failure here (exotic
        // filesystems) costs durability of the *name*, not atomicity.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// First-line magic of a v3 cache entry; the per-entry checksum follows.
const ENTRY_MAGIC: &str = "#proxim-cache v3 fnv=";

/// Serializes a cache-entry payload: a checksummed header line, then the
/// model JSON. The checksum covers every byte after the header's newline.
fn envelope(json: &str) -> String {
    format!("{ENTRY_MAGIC}{:016x}\n{json}", fnv1a_64(json.as_bytes()))
}

/// Validates an entry envelope and hands back the model JSON within.
fn open_envelope(text: &str) -> Result<&str, ModelError> {
    let (header, json) = text
        .split_once('\n')
        .ok_or_else(|| persist_err("cache entry has no envelope header"))?;
    let sum = header
        .strip_prefix(ENTRY_MAGIC)
        .ok_or_else(|| persist_err("cache entry is missing the v3 envelope magic"))?;
    let sum = u64::from_str_radix(sum, 16)
        .map_err(|_| persist_err("cache entry has a malformed checksum"))?;
    if fnv1a_64(json.as_bytes()) != sum {
        return Err(persist_err(
            "cache entry checksum mismatch (torn or corrupted write)",
        ));
    }
    Ok(json)
}

/// Writes one cache entry: checksummed envelope, atomic rename.
fn write_entry_text(path: &Path, json: &str) -> Result<(), ModelError> {
    atomic_write(path, envelope(json).as_bytes())
}

/// Reads one cache entry back, verifying the envelope checksum.
fn read_entry_text(path: &Path) -> Result<String, ModelError> {
    let text = fs::read_to_string(path).map_err(persist_err)?;
    open_envelope(&text).map(str::to_owned)
}

/// A content-addressed on-disk cache of characterized models.
///
/// Each entry is one JSON file named by the hex cache key under the cache
/// root. The key hashes the serialized cell, the serialized technology, and
/// [`CharacterizeOptions::cache_key_string`] — everything that affects the
/// characterized result, and nothing that doesn't (the `jobs` worker count
/// is deliberately excluded, since the pipeline is deterministic in it).
#[derive(Debug, Clone)]
pub struct ModelCache {
    root: PathBuf,
}

impl ModelCache {
    /// Opens (and lazily creates) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cache key for one `(cell, tech, opts)` triple.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if the cell or technology cannot be
    /// serialized.
    pub fn key(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
    ) -> Result<u64, ModelError> {
        let cell_json = json::to_string(cell).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        let tech_json = json::to_string(tech).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        let blob = format!(
            "fmt={MODEL_FORMAT_VERSION}\ncell={cell_json}\ntech={tech_json}\nopts={}",
            opts.cache_key_string()
        );
        Ok(fnv1a_64(blob.as_bytes()))
    }

    /// The on-disk path an entry would live at.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.json"))
    }

    /// The path a corrupt entry with the given content hash is quarantined
    /// at: the entry path plus the FNV-1a hash of the corrupt bytes and a
    /// `.quarantined` suffix.
    ///
    /// The content hash keeps *repeated* corruption events at the same key
    /// from overwriting each other: each distinct set of corrupt bytes
    /// lands in its own file, so no evidence is lost between post-mortems.
    /// (Identical corrupt bytes dedupe onto one file, which loses nothing.)
    pub fn quarantined_path(&self, key: u64, content_hash: u64) -> PathBuf {
        self.root
            .join(format!("{key:016x}.json.{content_hash:016x}.quarantined"))
    }

    /// Characterizes through the cache: a stored model for the same cell,
    /// technology, and options is loaded with **zero** simulations;
    /// otherwise the model is characterized (honoring `opts.jobs`) and
    /// stored. `stats` accumulates hit/miss counters and, on a miss, the
    /// characterization telemetry.
    ///
    /// Entries are stored in a checksummed envelope and written atomically
    /// (temp file + fsync + rename), so a concurrent writer or a crash
    /// mid-store can never leave interleaved or truncated JSON at the
    /// entry path: readers see a complete old entry, a complete new entry,
    /// or a detectably corrupt one.
    ///
    /// A corrupt (present but unparseable, torn, or checksum-failing)
    /// cache entry counts as a miss: it is quarantined aside — renamed to
    /// `.json.quarantined` for post-mortem, counted in
    /// [`CharStats::cache_quarantined`] — and the model is
    /// re-characterized and stored fresh.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on characterization failure or when the cache
    /// directory cannot be written.
    pub fn characterize(
        &self,
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        stats: &mut CharStats,
    ) -> Result<ProximityModel, ModelError> {
        self.characterize_controlled(
            cell,
            tech,
            opts,
            stats,
            &crate::checkpoint::RunControl::new(),
        )
    }

    /// [`ModelCache::characterize`] under a [`RunControl`]: the run honors
    /// the control's cancellation token, and — when a checkpoint journal is
    /// configured — journals completed jobs so an interrupted run resumed
    /// with the same control skips finished work
    /// ([`CharStats::checkpoint_skipped`]) and still produces the exact
    /// bytes of an uninterrupted run.
    ///
    /// [`RunControl`]: crate::checkpoint::RunControl
    ///
    /// # Errors
    ///
    /// As [`ModelCache::characterize`], plus a typed cancellation error
    /// ([`ModelError::is_cancellation`]) when the token trips mid-run.
    pub fn characterize_controlled(
        &self,
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        stats: &mut CharStats,
        control: &crate::checkpoint::RunControl,
    ) -> Result<ProximityModel, ModelError> {
        let key = Self::key(cell, tech, opts)?;
        let path = self.entry_path(key);
        match read_entry_text(&path).and_then(|json| ProximityModel::from_json(&json)) {
            Ok(model) => {
                stats.cache_hits += 1;
                note_cache("hit", metric::CACHE_HITS, key);
                return Ok(model);
            }
            // The entry exists but does not parse or fails its checksum:
            // move it aside (best effort) so the bad bytes survive for
            // inspection and cannot be mistaken for a valid entry again.
            // The event is counted unconditionally — a quarantine whose
            // rename failed is still a corrupt entry the operator must
            // hear about, and the content-hashed name keeps repeated
            // corruption at the same key from overwriting earlier
            // evidence.
            Err(_) if path.exists() => {
                let content_hash = fnv1a_64(&fs::read(&path).unwrap_or_default());
                let _ = fs::rename(&path, self.quarantined_path(key, content_hash));
                stats.cache_quarantined += 1;
                note_cache("quarantined", metric::CACHE_QUARANTINED, key);
            }
            Err(_) => {}
        }
        stats.cache_misses += 1;
        note_cache("miss", metric::CACHE_MISSES, key);
        let (model, run) = ProximityModel::characterize_controlled(cell, tech, opts, control)?;
        stats.sims_run += run.sims_run;
        stats.threads = run.threads;
        stats.workers_engaged = stats.workers_engaged.max(run.workers_engaged);
        stats.phases = run.phases;
        stats.enumerated_jobs += run.enumerated_jobs;
        stats.succeeded_jobs += run.succeeded_jobs;
        stats.checkpoint_skipped += run.checkpoint_skipped;
        stats.recoveries += run.recoveries;
        stats.recovery_seconds += run.recovery_seconds;
        stats.failed_jobs += run.failed_jobs;
        stats.degraded_slices += run.degraded_slices;
        stats.audit_findings += run.audit_findings;
        fs::create_dir_all(&self.root).map_err(persist_err)?;
        write_entry_text(&path, &model.to_json()?)?;
        Ok(model)
    }

    /// Deletes every cache entry (the `*.json` files under the root) and
    /// every quarantined entry (`*.json.quarantined`). Other files are left
    /// alone; a missing root is fine.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if an entry cannot be removed.
    pub fn wipe(&self) -> Result<(), ModelError> {
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension()
                .is_some_and(|e| e == "json" || e == "quarantined")
            {
                fs::remove_file(&p).map_err(|e| ModelError::Persist {
                    detail: e.to_string(),
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::characterize::CharacterizeOptions;
    use crate::measure::InputEvent;
    use proxim_cells::{Cell, Technology};
    use proxim_numeric::pwl::Edge;

    #[test]
    fn json_roundtrip_preserves_every_answer() {
        let tech = Technology::demo_5v();
        let cell = Cell::nand(2);
        let opts = CharacterizeOptions {
            glitch: true,
            ..CharacterizeOptions::fast()
        };
        let model = ProximityModel::characterize(&cell, &tech, &opts).unwrap();

        let json = model.to_json().unwrap();
        let back = ProximityModel::from_json(&json).unwrap();

        assert_eq!(model.thresholds(), back.thresholds());
        assert_eq!(model.table_entries(), back.table_entries());
        for &(s, tau_a, tau_b) in &[
            (0.0, 400e-12, 400e-12),
            (150e-12, 800e-12, 200e-12),
            (-300e-12, 120e-12, 1700e-12),
        ] {
            for edge in [Edge::Rising, Edge::Falling] {
                let events = [
                    InputEvent::new(0, edge, 0.0, tau_a),
                    InputEvent::new(1, edge, s, tau_b),
                ];
                let a = model.gate_timing(&events).unwrap();
                let b = back.gate_timing(&events).unwrap();
                // JSON float parsing may differ in the last ULP.
                let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs());
                assert!(
                    close(a.delay, b.delay),
                    "{edge} s={s}: {} vs {}",
                    a.delay,
                    b.delay
                );
                assert!(close(a.output_transition, b.output_transition));
                assert_eq!(a.reference_pin, b.reference_pin);
            }
        }
        // Glitch model survives too.
        assert_eq!(
            model.glitch_model(Edge::Rising).is_some(),
            back.glitch_model(Edge::Rising).is_some()
        );
    }

    #[test]
    fn save_and_load_via_file() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let model =
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap();
        let dir = std::env::temp_dir().join("proxim_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv_model.json");
        model.save(&path).unwrap();
        let back = ProximityModel::load(&path).unwrap();
        assert_eq!(model.thresholds(), back.thresholds());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_reported() {
        let e = ProximityModel::from_json("{not json").unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }));
        assert!(e.to_string().contains("persist"));
    }

    #[test]
    fn load_missing_file_is_reported() {
        let e = ProximityModel::load("/nonexistent/path/model.json").unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }));
    }

    #[test]
    fn non_finite_values_in_valid_json_are_rejected_as_audit_errors() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let model =
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap();
        let json = model.to_json().unwrap();

        // `1e999` is syntactically valid JSON that saturates to +inf when
        // parsed into an f64 — the classic route past a syntax-only loader.
        // The on-load validation must catch it as a typed audit error, not
        // hand back a model that poisons every downstream interpolation.
        let field = "\"c_ref\":";
        let start = json.find(field).expect("c_ref field present") + field.len();
        let end = start + json[start..].find([',', '}']).expect("field terminated");
        let poisoned = format!("{}1e999{}", &json[..start], &json[end..]);
        let e = ProximityModel::from_json(&poisoned).unwrap_err();
        assert!(matches!(e, ModelError::Audit { .. }), "{e}");
        assert!(e.to_string().contains("audit"), "{e}");
    }

    #[test]
    fn oversized_json_is_rejected_before_parsing() {
        // A multi-gigabyte "model" must be refused up front, not parsed.
        let mut huge = String::from("{\"pad\": \"");
        huge.reserve(MAX_MODEL_JSON_BYTES + 16);
        while huge.len() <= MAX_MODEL_JSON_BYTES {
            huge.push_str("xxxxxxxxxxxxxxxx");
        }
        huge.push_str("\"}");
        let e = ProximityModel::from_json(&huge).unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }), "{e}");
        assert!(e.to_string().contains("limit"), "{e}");
    }

    fn fresh_cache(name: &str) -> ModelCache {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        ModelCache::new(dir)
    }

    #[test]
    fn second_characterize_is_a_pure_cache_hit() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_hit");

        let mut first = CharStats::default();
        let m1 = cache.characterize(&cell, &tech, &opts, &mut first).unwrap();
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        assert!(first.sims_run > 0, "a miss must simulate");

        let mut second = CharStats::default();
        let m2 = cache
            .characterize(&cell, &tech, &opts, &mut second)
            .unwrap();
        assert_eq!((second.cache_hits, second.cache_misses), (1, 0));
        assert_eq!(second.sims_run, 0, "a hit must not simulate at all");
        assert_eq!(m1.to_json().unwrap(), m2.to_json().unwrap());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn changed_options_miss_but_worker_count_does_not() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_miss");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();

        // Any result-affecting knob changes the key.
        let tighter = CharacterizeOptions {
            dv_max: 0.06,
            ..opts.clone()
        };
        let mut stats = CharStats::default();
        cache
            .characterize(&cell, &tech, &tighter, &mut stats)
            .unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert!(stats.sims_run > 0);

        // The worker count is not part of the identity: a model
        // characterized at jobs = 1 is a hit when asked for at jobs = 4.
        let parallel = CharacterizeOptions {
            jobs: 4,
            ..opts.clone()
        };
        assert_eq!(
            ModelCache::key(&cell, &tech, &opts).unwrap(),
            ModelCache::key(&cell, &tech, &parallel).unwrap(),
        );
        let mut stats = CharStats::default();
        cache
            .characterize(&cell, &tech, &parallel, &mut stats)
            .unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));

        // A different cell misses.
        let nand = Cell::nand(2);
        assert_ne!(
            ModelCache::key(&cell, &tech, &opts).unwrap(),
            ModelCache::key(&nand, &tech, &opts).unwrap(),
        );

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recharacterized() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_corrupt");

        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        std::fs::create_dir_all(cache.root()).unwrap();
        std::fs::write(&path, "{definitely not a model").unwrap();

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert_eq!(stats.cache_quarantined, 1);

        // The entry was replaced with a loadable model, and the corrupt
        // bytes were moved aside rather than destroyed.
        let json = read_entry_text(&path).unwrap();
        assert!(ProximityModel::from_json(&json).is_ok());
        let quarantined = cache.quarantined_path(key, fnv1a_64(b"{definitely not a model"));
        assert_eq!(
            std::fs::read_to_string(&quarantined).unwrap(),
            "{definitely not a model"
        );

        // A wipe removes quarantined entries along with live ones.
        cache.wipe().unwrap();
        assert!(!path.exists() && !quarantined.exists());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn repeated_corruption_keeps_every_piece_of_evidence() {
        // Regression for the quarantine-name collision: two *different*
        // corrupt payloads at the same key must land in two different
        // quarantine files, and every event must be counted.
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_requarantine");

        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        std::fs::create_dir_all(cache.root()).unwrap();

        let mut total = 0;
        for corrupt in ["{first corruption", "{second, different corruption"] {
            std::fs::write(&path, corrupt).unwrap();
            let mut stats = CharStats::default();
            cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
            assert_eq!(stats.cache_quarantined, 1, "every event is counted");
            total += stats.cache_quarantined;
        }
        assert_eq!(total, 2);

        for corrupt in ["{first corruption", "{second, different corruption"] {
            let q = cache.quarantined_path(key, fnv1a_64(corrupt.as_bytes()));
            assert_eq!(
                std::fs::read_to_string(&q).unwrap(),
                corrupt,
                "each corruption keeps its own evidence file"
            );
        }

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn torn_entry_fails_its_checksum_and_is_quarantined() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_torn");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();

        // Simulate a torn write: the envelope header survives but the
        // payload is cut short. The JSON prefix may even still parse as
        // *invalid* JSON — the checksum is what catches it.
        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_entry_text(&path).is_err(), "torn entry must not load");

        let torn: Vec<u8> = bytes[..bytes.len() / 2].to_vec();
        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert_eq!(stats.cache_quarantined, 1);
        assert!(cache.quarantined_path(key, fnv1a_64(&torn)).exists());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn concurrent_writers_never_leave_a_torn_entry() {
        // Two writers hammer the same entry path with *different* complete
        // payloads while a reader polls it. The atomic-rename path must
        // guarantee every successful read is one of the complete payloads —
        // interleaved or truncated JSON would fail the envelope checksum
        // (and this assertion).
        let dir = std::env::temp_dir().join(format!("proxim_cache_race_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");

        let payload_a = format!("{{\"who\":\"a\",\"pad\":\"{}\"}}", "a".repeat(256 * 1024));
        let payload_b = format!("{{\"who\":\"b\",\"pad\":\"{}\"}}", "b".repeat(256 * 1024));
        write_entry_text(&path, &payload_a).unwrap();

        const ROUNDS: usize = 40;
        std::thread::scope(|scope| {
            for payload in [&payload_a, &payload_b] {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        write_entry_text(path, payload).unwrap();
                    }
                });
            }
            let reads: Vec<String> = (0..ROUNDS * 4)
                .map(|_| read_entry_text(&path).expect("entry must never be torn mid-write"))
                .collect();
            for text in reads {
                assert!(
                    text == payload_a || text == payload_b,
                    "read neither complete payload (len {})",
                    text.len()
                );
            }
        });

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wipe_clears_entries_and_forces_recharacterization() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_wipe");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        cache.wipe().unwrap();

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));

        // Wiping a nonexistent root is fine.
        ModelCache::new("/nonexistent/proxim/cache").wipe().unwrap();

        std::fs::remove_dir_all(cache.root()).ok();
    }
}
