//! The checksummed binary model store.
//!
//! A served library must load fast and fail *loud*: a torn or bit-rotted
//! entry has to be detected before a single query is answered from it.
//! Each entry is one `<name>.pxm` file — a sectioned binary container in
//! which every section carries its own length and FNV-1a checksum
//! envelope:
//!
//! ```text
//! magic  "PXMSTOR1"                     8 bytes
//! u32    section count                  little-endian
//! per section:
//!   u32  section id                     (1 = meta, 2 = model)
//!   u64  payload length in bytes
//!   u64  FNV-1a 64 of the payload
//!   [u8] payload
//! ```
//!
//! The *meta* section is a small JSON object (`name`, `format`, cell input
//! count) that can be read without decoding the model; the *model* section
//! is the model's canonical JSON, revalidated on load through
//! [`ProximityModel::from_json`] (size cap, non-finite rejection,
//! structural `validate()`). The checksummed framing detects torn and
//! corrupt files before the payload parser ever runs; the JSON payload
//! keeps the bytes debuggable and reuses the hardened model codec.
//!
//! Writes go through the crash-consistent
//! [`atomic_write`](proxim_model::persist::atomic_write) path (same-dir
//! temp file + fsync + rename), so a crash — including `SIGKILL` mid-write,
//! which `tests/chaos.rs` fires for real — leaves either the complete old
//! entry or the complete new entry, never a prefix. Entries that fail any
//! check at load are quarantined aside under the model-cache convention:
//! renamed to `<file>.<content-hash>.quarantined` so the evidence survives
//! (and repeated corruption events cannot overwrite each other), counted,
//! and the rest of the library keeps serving.

use crate::diskfault::{self, DiskError, DiskFaultKind};
use proxim_model::persist::{fnv1a_64, MAX_MODEL_JSON_BYTES};
use proxim_model::{ModelError, ProximityModel};
use proxim_obs::json::{push_escaped, Json};
use proxim_spice::FaultPlan;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// First bytes of every store entry.
pub const STORE_MAGIC: &[u8; 8] = b"PXMSTOR1";

/// Section id of the metadata section.
pub const SECTION_META: u32 = 1;
/// Section id of the model-payload section.
pub const SECTION_MODEL: u32 = 2;

/// Upper bound on sections per entry; ours have exactly two, and a hostile
/// header must not be able to request millions.
const MAX_SECTIONS: u32 = 16;

/// Store format version, recorded in the meta section.
const STORE_FORMAT: u32 = 1;

/// File extension of a live store entry.
pub const ENTRY_EXT: &str = "pxm";

/// What went wrong while reading or writing a store entry.
///
/// Every variant is a *typed* outcome: corrupt bytes become an error the
/// caller can quarantine on, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// The rendered I/O error.
        detail: String,
    },
    /// The device is out of space (`ENOSPC`): a *typed* write failure the
    /// daemon degrades on — reads and already-loaded models keep serving.
    DiskFull {
        /// The rendered I/O error.
        detail: String,
    },
    /// The model name is not storable (empty, too long, or containing
    /// characters outside `[A-Za-z0-9_-]`).
    BadName {
        /// The offending name.
        name: String,
    },
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic,
    /// The file ended before the advertised structure did — the signature
    /// of a torn write (which the atomic path prevents) or truncation at
    /// rest.
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// A section's payload does not match its checksum envelope.
    Checksum {
        /// The section id whose envelope failed.
        section: u32,
    },
    /// The container structure is inconsistent (unknown section layout,
    /// oversized advertisement, duplicate or missing sections, meta that
    /// does not parse).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The model payload decoded but failed the model codec's own gates
    /// (size cap, JSON syntax, non-finite entries, structural validation).
    Model(ModelError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { detail } => write!(f, "store I/O error: {detail}"),
            Self::DiskFull { detail } => write!(f, "store disk full: {detail}"),
            Self::BadName { name } => write!(
                f,
                "unstorable model name {name:?} (want 1-64 chars of [A-Za-z0-9_-])"
            ),
            Self::BadMagic => write!(f, "not a proxim model store entry (bad magic)"),
            Self::Truncated { detail } => write!(f, "store entry truncated: {detail}"),
            Self::Checksum { section } => {
                write!(f, "store entry section {section} failed its checksum")
            }
            Self::Malformed { detail } => write!(f, "store entry malformed: {detail}"),
            Self::Model(e) => write!(f, "store entry model rejected: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

impl From<DiskError> for StoreError {
    fn from(e: DiskError) -> Self {
        match e.kind {
            DiskFaultKind::NoSpace => Self::DiskFull { detail: e.detail },
            DiskFaultKind::Io => Self::Io { detail: e.detail },
        }
    }
}

fn io_err(e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        detail: e.to_string(),
    }
}

/// Whether `name` may name a store entry: 1–64 characters, each
/// alphanumeric, `_`, or `-`. Names arrive from the untrusted wire (query
/// routing) and from operator CLIs (imports), so the same bound guards
/// both paths — and keeps every entry a plain single-component filename.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Serializes one `(name, model)` pair into the sectioned container.
///
/// # Errors
///
/// Returns [`StoreError::BadName`] for unstorable names and
/// [`StoreError::Model`] if the model cannot serialize.
pub fn encode_entry(name: &str, model: &ProximityModel) -> Result<Vec<u8>, StoreError> {
    if !valid_name(name) {
        return Err(StoreError::BadName { name: name.into() });
    }
    let mut meta = String::from("{\"format\":");
    meta.push_str(&STORE_FORMAT.to_string());
    meta.push_str(",\"name\":");
    push_escaped(&mut meta, name);
    meta.push_str(",\"inputs\":");
    meta.push_str(&model.cell().input_count().to_string());
    meta.push('}');
    let model_json = model.to_json()?;

    let mut out = Vec::with_capacity(meta.len() + model_json.len() + 64);
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&2u32.to_le_bytes());
    for (id, payload) in [
        (SECTION_META, meta.as_bytes()),
        (SECTION_MODEL, model_json.as_bytes()),
    ] {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    Ok(out)
}

fn take<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &str,
) -> Result<&'a [u8], StoreError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or(StoreError::Truncated {
            detail: format!("{what} needs {n} more bytes"),
        })?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn le_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, StoreError> {
    let b = take(bytes, pos, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn le_u64(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, StoreError> {
    let b = take(bytes, pos, 8, what)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Decodes a container produced by [`encode_entry`], verifying every
/// section envelope and revalidating the model payload.
///
/// # Errors
///
/// A typed [`StoreError`] for every way the bytes can be wrong; callers
/// quarantine on any of them.
pub fn decode_entry(bytes: &[u8]) -> Result<(String, ProximityModel), StoreError> {
    let mut pos = 0usize;
    if take(bytes, &mut pos, STORE_MAGIC.len(), "magic").ok() != Some(&STORE_MAGIC[..]) {
        return Err(StoreError::BadMagic);
    }
    let count = le_u32(bytes, &mut pos, "section count")?;
    if count == 0 || count > MAX_SECTIONS {
        return Err(StoreError::Malformed {
            detail: format!("section count {count} outside 1..={MAX_SECTIONS}"),
        });
    }
    let mut meta: Option<&[u8]> = None;
    let mut model: Option<&[u8]> = None;
    for _ in 0..count {
        let id = le_u32(bytes, &mut pos, "section id")?;
        let len = le_u64(bytes, &mut pos, "section length")?;
        if len > MAX_MODEL_JSON_BYTES as u64 {
            return Err(StoreError::Malformed {
                detail: format!("section {id} advertises {len} bytes, over the payload cap"),
            });
        }
        let sum = le_u64(bytes, &mut pos, "section checksum")?;
        let payload = take(bytes, &mut pos, len as usize, "section payload")?;
        if fnv1a_64(payload) != sum {
            return Err(StoreError::Checksum { section: id });
        }
        // Unknown section ids are skipped once their checksum passes —
        // room for forward-compatible additions without a format bump.
        match id {
            SECTION_META if meta.is_none() => meta = Some(payload),
            SECTION_MODEL if model.is_none() => model = Some(payload),
            SECTION_META | SECTION_MODEL => {
                return Err(StoreError::Malformed {
                    detail: format!("duplicate section {id}"),
                })
            }
            _ => {}
        }
    }
    if pos != bytes.len() {
        return Err(StoreError::Malformed {
            detail: format!(
                "{} trailing bytes after the last section",
                bytes.len() - pos
            ),
        });
    }
    let meta = meta.ok_or(StoreError::Malformed {
        detail: "missing meta section".into(),
    })?;
    let model = model.ok_or(StoreError::Malformed {
        detail: "missing model section".into(),
    })?;

    let meta_text = std::str::from_utf8(meta).map_err(|_| StoreError::Malformed {
        detail: "meta section is not UTF-8".into(),
    })?;
    let meta_json = Json::parse(meta_text).map_err(|e| StoreError::Malformed {
        detail: format!("meta section does not parse: {e}"),
    })?;
    let name = meta_json
        .get("name")
        .and_then(Json::as_str)
        .ok_or(StoreError::Malformed {
            detail: "meta section has no name".into(),
        })?;
    if !valid_name(name) {
        return Err(StoreError::BadName { name: name.into() });
    }

    let model_text = std::str::from_utf8(model).map_err(|_| StoreError::Malformed {
        detail: "model section is not UTF-8".into(),
    })?;
    let model = ProximityModel::from_json(model_text)?;
    Ok((name.to_owned(), model))
}

/// A quarantine that could not complete: the rename failed, so the corrupt
/// entry is still at its original path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineFailure {
    /// The corrupt entry, still in place.
    pub entry: PathBuf,
    /// Where the evidence was supposed to go.
    pub intended: PathBuf,
    /// The typed rename failure.
    pub error: DiskError,
}

impl fmt::Display for QuarantineFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quarantine of {} failed ({}); corrupt entry left in place",
            self.entry.display(),
            self.error
        )
    }
}

/// A directory of checksummed binary model entries.
#[derive(Debug, Clone)]
pub struct ModelStore {
    root: PathBuf,
    /// Disk fault sites armed for every save and quarantine rename.
    faults: FaultPlan,
}

impl ModelStore {
    /// Opens (and lazily creates on first save) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            faults: FaultPlan::DISARMED,
        }
    }

    /// Returns the store with a fault plan: its `disk_write` and
    /// `disk_rename` sites fail saves and quarantine renames on purpose.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of the entry `name`.
    pub fn entry_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.{ENTRY_EXT}"))
    }

    /// The path a corrupt entry file is quarantined at: the file name plus
    /// the FNV-1a hash of the corrupt bytes and a `.quarantined` suffix —
    /// the model-cache convention, collision-proofed by content.
    pub fn quarantined_path(&self, entry: &Path, content_hash: u64) -> PathBuf {
        let file = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.root
            .join(format!("{file}.{content_hash:016x}.quarantined"))
    }

    /// Writes (or replaces) the entry `name` atomically: the container is
    /// staged in a same-directory temp file, fsync'd, and renamed into
    /// place, so a crash at any instant — `SIGKILL` included — leaves the
    /// old complete entry or the new complete entry, never a torn one.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadName`] for unstorable names, [`StoreError::Model`]
    /// on serialization failure, and a typed [`StoreError::DiskFull`] /
    /// [`StoreError::Io`] on write failure (every store write goes through
    /// the [`diskfault`]-guarded atomic path).
    pub fn save(&self, name: &str, model: &ProximityModel) -> Result<(), StoreError> {
        let bytes = encode_entry(name, model)?;
        fs::create_dir_all(&self.root).map_err(io_err)?;
        diskfault::checked_write(&self.entry_path(name), &bytes, &self.faults)
            .map_err(StoreError::from)
    }

    /// Loads and fully validates the entry `name`.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] on missing, torn, corrupt, or invalid
    /// entries. Loading never quarantines; that policy belongs to
    /// [`crate::library::ModelLibrary`], which owns the degraded-start
    /// decision.
    pub fn load(&self, name: &str) -> Result<ProximityModel, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::BadName { name: name.into() });
        }
        let bytes = fs::read(self.entry_path(name)).map_err(io_err)?;
        let (stored_name, model) = decode_entry(&bytes)?;
        if stored_name != name {
            return Err(StoreError::Malformed {
                detail: format!("entry {name:?} carries meta name {stored_name:?}"),
            });
        }
        Ok(model)
    }

    /// Quarantines the entry file at `path` aside and returns where the
    /// evidence went.
    ///
    /// # Errors
    ///
    /// A [`QuarantineFailure`] when the rename itself failed (read-only or
    /// full disk): the corrupt entry is still *in place*, and reporting
    /// the intended destination as evidence would be a lie — callers must
    /// surface the rename error distinctly and count it under
    /// `serve.store.quarantine_failed`.
    pub fn quarantine(&self, path: &Path) -> Result<PathBuf, QuarantineFailure> {
        let content_hash = fnv1a_64(&fs::read(path).unwrap_or_default());
        let to = self.quarantined_path(path, content_hash);
        match diskfault::checked_rename(path, &to, &self.faults) {
            Ok(()) => Ok(to),
            Err(error) => Err(QuarantineFailure {
                entry: path.to_path_buf(),
                intended: to,
                error,
            }),
        }
    }

    /// Every live entry name in the store, sorted. Quarantined files,
    /// stale atomic-write temp files, and foreign files are skipped.
    pub fn list(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if let Some(name) = entry_name(&entry.path()) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        names
    }

    /// Removes stale atomic-write temp files (crash debris from a killed
    /// writer) and returns how many were reclaimed. Live entries and
    /// quarantined evidence are never touched.
    pub fn reclaim_temp_files(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return 0;
        };
        let mut reclaimed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if file.starts_with('.')
                && file.contains(&format!(".{ENTRY_EXT}.tmp."))
                && fs::remove_file(&path).is_ok()
            {
                reclaimed += 1;
            }
        }
        reclaimed
    }
}

/// The entry name of a live store file (`<name>.pxm` with a storable
/// name), or `None` for anything else.
pub(crate) fn entry_name(path: &Path) -> Option<String> {
    let file = path.file_name()?.to_str()?;
    if file.starts_with('.') {
        return None;
    }
    let name = file.strip_suffix(&format!(".{ENTRY_EXT}"))?;
    valid_name(name).then(|| name.to_owned())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proxim_cells::{Cell, Technology};
    use proxim_model::characterize::CharacterizeOptions;
    use std::sync::OnceLock;

    /// One shared fast model; characterization is the expensive part of
    /// these tests, so it runs once.
    pub(crate) fn shared_model() -> &'static ProximityModel {
        static MODEL: OnceLock<ProximityModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let tech = Technology::demo_5v();
            let cell = Cell::inv();
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
                .expect("test model characterizes")
        })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proxim_store_{}_{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trips_byte_identically() {
        let store = ModelStore::new(scratch("roundtrip"));
        let model = shared_model();
        store.save("inv_fast", model).unwrap();
        let back = store.load("inv_fast").unwrap();
        assert_eq!(model.to_json().unwrap(), back.to_json().unwrap());
        // Saving the same model again produces the same bytes — the
        // property the SIGKILL chaos test relies on.
        let bytes1 = fs::read(store.entry_path("inv_fast")).unwrap();
        store.save("inv_fast", model).unwrap();
        let bytes2 = fs::read(store.entry_path("inv_fast")).unwrap();
        assert_eq!(bytes1, bytes2);
        assert_eq!(store.list(), vec!["inv_fast".to_string()]);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn rejects_unstorable_names() {
        let store = ModelStore::new(scratch("badname"));
        for bad in ["", "a/b", "../etc", "name with spaces", &"x".repeat(65)] {
            assert!(
                matches!(
                    store.save(bad, shared_model()),
                    Err(StoreError::BadName { .. })
                ),
                "{bad:?} must be rejected"
            );
            assert!(matches!(store.load(bad), Err(StoreError::BadName { .. })));
        }
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let store = ModelStore::new(scratch("corrupt"));
        let model = shared_model();
        store.save("m", model).unwrap();
        let good = fs::read(store.entry_path("m")).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_entry(&bad).unwrap_err(), StoreError::BadMagic);

        // Truncations at every structural boundary.
        for cut in [4, STORE_MAGIC.len() + 2, good.len() / 2, good.len() - 1] {
            let e = decode_entry(&good[..cut]).unwrap_err();
            assert!(
                matches!(
                    e,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::Checksum { .. }
                ),
                "cut at {cut}: {e}"
            );
        }

        // A flipped payload byte fails its section checksum.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 10] ^= 0x01;
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Checksum { .. }
        ));

        // Trailing garbage is malformed, not ignored.
        let mut bad = good.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // A hostile section count is refused before any allocation.
        let mut bad = good[..12].to_vec();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quarantine_preserves_distinct_evidence() {
        let store = ModelStore::new(scratch("quarantine"));
        fs::create_dir_all(store.root()).unwrap();
        let path = store.entry_path("bad");
        for corrupt in [b"garbage one".as_slice(), b"garbage two".as_slice()] {
            fs::write(&path, corrupt).unwrap();
            let to = store.quarantine(&path).unwrap();
            assert_eq!(fs::read(&to).unwrap(), corrupt);
        }
        assert!(store.list().is_empty(), "quarantined files are not entries");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn reclaims_only_stale_temp_files() {
        let store = ModelStore::new(scratch("reclaim"));
        store.save("live", shared_model()).unwrap();
        let tmp = store.root().join(format!(".live.{ENTRY_EXT}.tmp.123.0"));
        fs::write(&tmp, b"half a write").unwrap();
        assert_eq!(store.reclaim_temp_files(), 1);
        assert!(!tmp.exists());
        assert!(store.load("live").is_ok());
        fs::remove_dir_all(store.root()).ok();
    }
}
