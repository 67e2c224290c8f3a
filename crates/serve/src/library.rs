//! The in-memory model library the daemon serves from.
//!
//! Loading is *degrade-instead-of-die*: every store entry is read,
//! checksum-verified, and revalidated; entries that fail any gate are
//! quarantined aside (content-hash-suffixed `.quarantined` files, so
//! repeated corruption keeps every piece of evidence) and the library
//! opens with whatever survived. A daemon pointed at a half-corrupt store
//! starts **degraded** — health probes say so, the load report names every
//! casualty — instead of refusing to start and taking the healthy models
//! down with the corrupt ones. An unreadable store *root* is recorded
//! distinctly ([`LoadReport::root_error`]): a permission failure must
//! never masquerade as an empty store.
//!
//! # Generations
//!
//! A library is one immutable *generation* of the serving set: its catalog
//! (which names are servable, at what resident cost) is fixed at open.
//! Hot reload opens the store into a fresh candidate generation off to the
//! side, judges it against the live one ([`judge_candidate`]), and swaps
//! an `Arc` — in-flight requests finish on the generation they started on.
//!
//! # Memory budget
//!
//! With [`LibraryOptions::memory_budget`] set, the library keeps at most
//! that many bytes of model data *resident* (cost = the entry's on-disk
//! size, fixed per generation so admission and eviction always agree).
//! Every catalog entry is still fully loaded and validated once at open —
//! the quarantine gate is never skipped — but over-budget models are
//! dropped from residency and reloaded on demand: a miss pays one
//! *cold load* (single-flight: concurrent misses for the same model wait
//! on the one loader), then least-recently-used residents are evicted
//! until the budget holds. Eviction only drops the library's reference;
//! requests mid-flight keep their `Arc` alive.

use proxim_model::store::{entry_name, ModelStore, StoreError};
use proxim_model::ProximityModel;
use proxim_obs::serve_metrics as sm;
use proxim_obs::{Counter, Gauge, Registry};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// How a library is opened: the memory budget and the generation identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryOptions {
    /// Maximum bytes of model data kept resident (`None` = everything
    /// stays resident). Models are never refused for being over budget —
    /// they are served via cold loads instead of staying cached.
    pub memory_budget: Option<u64>,
    /// The generation number this library serves as (bumped by reload).
    pub generation: u64,
    /// Optional operator-supplied label for this generation, echoed on the
    /// health probe.
    pub label: Option<String>,
}

impl Default for LibraryOptions {
    fn default() -> Self {
        Self {
            memory_budget: None,
            generation: 1,
            label: None,
        }
    }
}

/// What happened while opening a library: the survivors, the casualties,
/// and the crash debris that was cleaned up.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Names that loaded and validated.
    pub loaded: Vec<String>,
    /// Entries quarantined during load: where the evidence went and why.
    pub quarantined: Vec<(PathBuf, String)>,
    /// Entries that failed load but whose quarantine rename *also* failed
    /// (read-only or full disk): the corrupt entry is still in place, and
    /// the rename error is reported distinctly — never as evidence.
    pub quarantine_failed: Vec<(PathBuf, String)>,
    /// Stale atomic-write temp files reclaimed (debris of a killed
    /// writer).
    pub reclaimed_tmp: usize,
    /// The store root could not be listed (permission failure, I/O error).
    /// Recorded so an unreadable store is distinguishable from an empty
    /// one; a reload candidate carrying this is always rejected.
    pub root_error: Option<String>,
}

/// One successful model acquisition: the model plus how it was obtained.
#[derive(Debug, Clone)]
pub struct Acquired {
    /// The model, alive for as long as the caller holds it — eviction and
    /// generation swaps only drop the library's own references.
    pub model: Arc<ProximityModel>,
    /// Whether this acquisition paid a cold load from the store.
    pub cold: bool,
    /// Microseconds the cold load took (zero for resident hits).
    pub load_us: u64,
    /// Whether this acquisition waited on another request's in-progress
    /// load of the same model (single-flight).
    pub waited: bool,
}

/// Why a model could not be acquired.
#[derive(Debug, Clone, PartialEq)]
pub enum AcquireError {
    /// The name is not in this generation's catalog.
    UnknownModel,
    /// The catalog lists the name but the cold load failed — the entry
    /// was corrupted or removed after open. Typed, never a panic; the
    /// entry stays in the catalog so an operator fix plus reload heals it.
    LoadFailed(StoreError),
}

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel => write!(f, "model is not in the library catalog"),
            Self::LoadFailed(e) => write!(f, "cold model load failed: {e}"),
        }
    }
}

/// Metric handles the library updates; resolved once per daemon registry
/// via [`ModelLibrary::bind_metrics`]. Counters are shared across
/// generations (the registry deduplicates by name), so reload never resets
/// an operator's rate graphs.
#[derive(Debug)]
struct LibraryMetrics {
    resident_bytes: Gauge,
    evictions: Counter,
    cold_misses: Counter,
    singleflight_waits: Counter,
}

/// The mutable residency state behind the library's lock: which models are
/// in memory, in what recency order, and which are mid-load.
#[derive(Debug, Default)]
struct Resident {
    models: BTreeMap<String, Arc<ProximityModel>>,
    /// Least-recently-used at the front.
    lru: VecDeque<String>,
    resident_bytes: u64,
    /// Names with a cold load in progress (single-flight guard).
    loading: BTreeSet<String>,
}

/// One generation of the serving set: an immutable catalog with
/// memory-governed residency.
#[derive(Debug)]
pub struct ModelLibrary {
    store: ModelStore,
    opts: LibraryOptions,
    /// Every servable name, with its fixed resident cost in bytes.
    catalog: BTreeMap<String, u64>,
    resident: Mutex<Resident>,
    load_done: Condvar,
    report: LoadReport,
    metrics: OnceLock<LibraryMetrics>,
}

fn lock<'a>(m: &'a Mutex<Resident>) -> MutexGuard<'a, Resident> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ModelLibrary {
    /// Opens every loadable entry in `store` with default options (fully
    /// resident, generation 1), quarantining the rest.
    ///
    /// Never fails: an empty — or even unreadable — store directory yields
    /// an empty library; the daemon starts degraded and says so on its
    /// health probe (with [`LoadReport::root_error`] naming an unreadable
    /// root) rather than dying.
    pub fn open(store: &ModelStore) -> Self {
        Self::open_with(store, LibraryOptions::default())
    }

    /// Opens every loadable entry in `store` under `opts`.
    ///
    /// Every entry is fully loaded and validated exactly once — the
    /// quarantine gate runs regardless of the budget — then residency is
    /// trimmed: with a budget, at most `memory_budget` bytes of models
    /// remain resident when this returns, and the rest are served via
    /// cold loads on demand.
    pub fn open_with(store: &ModelStore, opts: LibraryOptions) -> Self {
        let reclaimed_tmp = store.reclaim_temp_files();
        let mut report = LoadReport {
            reclaimed_tmp,
            ..LoadReport::default()
        };
        let mut paths: Vec<PathBuf> = match fs::read_dir(store.root()) {
            Ok(rd) => rd.flatten().map(|e| e.path()).collect(),
            // A store that does not exist yet is legitimately empty (it is
            // created lazily on first save); anything else unreadable is a
            // recorded fault, not an empty library.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                report.root_error = Some(format!(
                    "cannot list store root {}: {e}",
                    store.root().display()
                ));
                Vec::new()
            }
        };
        paths.sort();

        let mut catalog = BTreeMap::new();
        let mut resident = Resident::default();
        for path in paths {
            let Some(name) = entry_name(&path) else {
                continue; // quarantined evidence, temp debris, foreign files
            };
            match store.load(&name) {
                Ok(model) => {
                    // Resident cost = the entry's on-disk size: cheap,
                    // deterministic, and proportional to the decoded
                    // tables. Fixed at open so admission and eviction
                    // always account with the same number.
                    let cost = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    catalog.insert(name.clone(), cost);
                    report.loaded.push(name.clone());
                    admit_locked(
                        &mut resident,
                        &catalog,
                        &name,
                        Arc::new(model),
                        cost,
                        opts.memory_budget,
                        None,
                    );
                }
                Err(e) => match store.quarantine(&path) {
                    Ok(to) => report.quarantined.push((to, e.to_string())),
                    Err(qf) => report
                        .quarantine_failed
                        .push((qf.entry.clone(), format!("{e}; {}", qf.error))),
                },
            }
        }
        Self {
            store: store.clone(),
            opts,
            catalog,
            resident: Mutex::new(resident),
            load_done: Condvar::new(),
            report,
            metrics: OnceLock::new(),
        }
    }

    /// An empty library (used when the daemon must start with nothing).
    pub fn empty() -> Self {
        Self {
            store: ModelStore::new(PathBuf::new()),
            opts: LibraryOptions::default(),
            catalog: BTreeMap::new(),
            resident: Mutex::new(Resident::default()),
            load_done: Condvar::new(),
            report: LoadReport::default(),
            metrics: OnceLock::new(),
        }
    }

    /// Resolves this library's metric handles against `registry` and
    /// publishes the current residency gauge. Idempotent; call before the
    /// library starts taking traffic (reload binds the candidate before
    /// the swap).
    pub fn bind_metrics(&self, registry: &Registry) {
        let m = self.metrics.get_or_init(|| LibraryMetrics {
            resident_bytes: registry.gauge(sm::LIBRARY_RESIDENT_BYTES),
            evictions: registry.counter(sm::LIBRARY_EVICTIONS),
            cold_misses: registry.counter(sm::LIBRARY_COLD_MISSES),
            singleflight_waits: registry.counter(sm::LIBRARY_SINGLEFLIGHT_WAITS),
        });
        m.resident_bytes
            .set(lock(&self.resident).resident_bytes as f64);
        registry
            .counter(sm::QUARANTINE_FAILED)
            .add(self.report.quarantine_failed.len() as u64);
        if !self.report.quarantine_failed.is_empty() {
            registry
                .counter(sm::DISK_FAULTS)
                .add(self.report.quarantine_failed.len() as u64);
        }
    }

    /// Acquires the model named `name`: a resident hit, or a single-flight
    /// cold load from the store with LRU eviction back under the budget.
    ///
    /// # Errors
    ///
    /// [`AcquireError::UnknownModel`] for names outside the catalog;
    /// [`AcquireError::LoadFailed`] when a cold load finds the entry
    /// corrupted or missing (typed — the store error names the cause).
    pub fn acquire(&self, name: &str) -> Result<Acquired, AcquireError> {
        let Some(&cost) = self.catalog.get(name) else {
            return Err(AcquireError::UnknownModel);
        };
        let mut waited = false;
        let mut r = lock(&self.resident);
        loop {
            if let Some(m) = r.models.get(name) {
                let model = Arc::clone(m);
                touch(&mut r, name);
                return Ok(Acquired {
                    model,
                    cold: false,
                    load_us: 0,
                    waited,
                });
            }
            if r.loading.contains(name) {
                // Another request is loading this exact model: wait for it
                // instead of loading it twice (single-flight).
                if !waited {
                    if let Some(m) = self.metrics.get() {
                        m.singleflight_waits.incr();
                    }
                    waited = true;
                }
                r = self
                    .load_done
                    .wait(r)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            break;
        }
        r.loading.insert(name.to_owned());
        drop(r);

        let load_start = Instant::now();
        let loaded = self.store.load(name);
        let load_us = load_start.elapsed().as_micros() as u64;

        let mut r = lock(&self.resident);
        r.loading.remove(name);
        let outcome = match loaded {
            Ok(model) => {
                let model = Arc::new(model);
                admit_locked(
                    &mut r,
                    &self.catalog,
                    name,
                    Arc::clone(&model),
                    cost,
                    self.opts.memory_budget,
                    self.metrics.get(),
                );
                if let Some(m) = self.metrics.get() {
                    m.cold_misses.incr();
                }
                Ok(Acquired {
                    model,
                    cold: true,
                    load_us,
                    waited,
                })
            }
            Err(e) => Err(AcquireError::LoadFailed(e)),
        };
        drop(r);
        // Waiters re-check residency; after a failed load the first one
        // awake becomes the next loader.
        self.load_done.notify_all();
        outcome
    }

    /// The model named `name`, if it is servable (convenience over
    /// [`Self::acquire`], discarding the cold/load metadata).
    pub fn get(&self, name: &str) -> Option<Arc<ProximityModel>> {
        self.acquire(name).ok().map(|a| a.model)
    }

    /// Every servable model name, sorted.
    pub fn names(&self) -> Vec<String> {
        self.catalog.keys().cloned().collect()
    }

    /// How many models are servable (resident or not).
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// Whether nothing is servable.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// Whether load lost anything — the daemon is serving, but degraded:
    /// entries quarantined, quarantine renames failed, or the store root
    /// itself was unreadable.
    pub fn is_degraded(&self) -> bool {
        !self.report.quarantined.is_empty()
            || !self.report.quarantine_failed.is_empty()
            || self.report.root_error.is_some()
    }

    /// The full load report.
    pub fn report(&self) -> &LoadReport {
        &self.report
    }

    /// The options this library was opened with (reload reuses them for
    /// the candidate generation).
    pub fn options(&self) -> &LibraryOptions {
        &self.opts
    }

    /// The generation number this library serves as.
    pub fn generation(&self) -> u64 {
        self.opts.generation
    }

    /// The store this library loads from.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Bytes of model data currently resident.
    pub fn resident_bytes(&self) -> u64 {
        lock(&self.resident).resident_bytes
    }

    /// How many models are currently resident.
    pub fn resident_len(&self) -> usize {
        lock(&self.resident).models.len()
    }

    /// Test hook: marks `name` as mid-load so a concurrent [`Self::acquire`]
    /// deterministically takes the single-flight wait path.
    #[cfg(test)]
    fn hold_loading_for_test(&self, name: &str) {
        lock(&self.resident).loading.insert(name.to_owned());
    }

    /// Test hook: releases a [`Self::hold_loading_for_test`] marker and
    /// wakes the waiters.
    #[cfg(test)]
    fn release_loading_for_test(&self, name: &str) {
        lock(&self.resident).loading.remove(name);
        self.load_done.notify_all();
    }
}

/// Moves `name` to the most-recently-used position.
fn touch(r: &mut Resident, name: &str) {
    if let Some(pos) = r.lru.iter().position(|n| n == name) {
        if pos + 1 != r.lru.len() {
            let n = r.lru.remove(pos).unwrap_or_else(|| name.to_owned());
            r.lru.push_back(n);
        }
    }
}

/// Admits a freshly loaded model into residency and evicts
/// least-recently-used residents until the budget holds again. A model
/// whose own cost exceeds the budget is never admitted (every request for
/// it is a cold load) so the resident-bytes gauge cannot exceed the
/// budget once load completes. Eviction drops only the library's `Arc`;
/// requests holding the model keep it alive.
fn admit_locked(
    r: &mut Resident,
    costs: &BTreeMap<String, u64>,
    name: &str,
    model: Arc<ProximityModel>,
    cost: u64,
    budget: Option<u64>,
    metrics: Option<&LibraryMetrics>,
) {
    if r.models.contains_key(name) {
        return; // lost a race with an identical admit; keep the first
    }
    let over_budget_alone = budget.is_some_and(|b| cost > b);
    if !over_budget_alone {
        r.models.insert(name.to_owned(), model);
        r.lru.push_back(name.to_owned());
        r.resident_bytes += cost;
        if let Some(b) = budget {
            while r.resident_bytes > b && r.lru.len() > 1 {
                let Some(victim) = r.lru.pop_front() else {
                    break;
                };
                r.models.remove(&victim);
                r.resident_bytes = r
                    .resident_bytes
                    .saturating_sub(costs.get(&victim).copied().unwrap_or(0));
                if let Some(m) = metrics {
                    m.evictions.incr();
                }
            }
        }
    }
    if let Some(m) = metrics {
        m.resident_bytes.set(r.resident_bytes as f64);
    }
}

/// Why a reload candidate was refused; every field feeds the typed wire
/// report so an operator sees exactly how the candidate is worse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadRejection {
    /// Human-readable reasons, one per failed gate.
    pub reasons: Vec<String>,
    /// Servable models in the candidate.
    pub candidate_loaded: usize,
    /// Servable models in the live generation.
    pub live_loaded: usize,
    /// Entries the candidate load quarantined (or failed to quarantine).
    pub candidate_quarantined: usize,
    /// The candidate's store-root error, if listing failed.
    pub root_error: Option<String>,
}

impl fmt::Display for ReloadRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reload candidate rejected: {}", self.reasons.join("; "))
    }
}

/// The validation gate between a freshly loaded candidate generation and
/// the live one. A candidate that loads *worse* — unreadable store root,
/// fewer survivors, or new quarantines — is refused so a bad deploy can
/// never silently shrink the serving set. `force` overrides the
/// worse-than-live gates but never the unreadable-root gate: swapping in a
/// library that could not even list its store would serve an empty set by
/// accident, which is exactly the failure this gate exists to prevent.
///
/// # Errors
///
/// A [`ReloadRejection`] naming every failed gate.
pub fn judge_candidate(
    candidate: &ModelLibrary,
    live: &ModelLibrary,
    force: bool,
) -> Result<(), ReloadRejection> {
    let mut reasons = Vec::new();
    if let Some(e) = &candidate.report().root_error {
        reasons.push(format!("store root unreadable ({e})"));
    }
    let quarantined =
        candidate.report().quarantined.len() + candidate.report().quarantine_failed.len();
    if candidate.report().root_error.is_none() && force {
        // Forced: only the unreadable-root gate applies.
    } else if candidate.report().root_error.is_none() {
        if candidate.len() < live.len() {
            reasons.push(format!(
                "fewer survivors than live ({} < {})",
                candidate.len(),
                live.len()
            ));
        }
        if quarantined > 0 {
            reasons.push(format!("{quarantined} entries quarantined during load"));
        }
    }
    if reasons.is_empty() {
        return Ok(());
    }
    Err(ReloadRejection {
        reasons,
        candidate_loaded: candidate.len(),
        live_loaded: live.len(),
        candidate_quarantined: quarantined,
        root_error: candidate.report().root_error.clone(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proxim_cells::{Cell, Technology};
    use proxim_model::characterize::CharacterizeOptions;
    use proxim_model::store::ENTRY_EXT;

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
        let dir =
            std::env::temp_dir().join(format!("proxim_library_{}_{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn seeded_store(name: &str, models: &[&str]) -> ModelStore {
        let store = ModelStore::new(scratch(name));
        for m in models {
            store.save(m, shared_model()).unwrap();
        }
        store
    }

    #[test]
    fn opens_degraded_with_survivors_when_entries_are_corrupt() {
        let store = seeded_store("degraded", &["good_a", "good_b"]);
        // One corrupt entry, one torn entry, one stale temp file.
        fs::write(store.entry_path("corrupt"), b"PXMSTOR1 but not really").unwrap();
        let good = fs::read(store.entry_path("good_a")).unwrap();
        fs::write(store.entry_path("torn"), &good[..good.len() / 2]).unwrap();
        fs::write(
            store.root().join(format!(".junk.{ENTRY_EXT}.tmp.1.2")),
            b"debris",
        )
        .unwrap();

        let lib = ModelLibrary::open(&store);
        assert_eq!(lib.names(), vec!["good_a", "good_b"]);
        assert!(lib.is_degraded());
        assert_eq!(lib.report().quarantined.len(), 2);
        assert!(lib.report().quarantine_failed.is_empty());
        assert_eq!(lib.report().reclaimed_tmp, 1);
        assert_eq!(lib.report().root_error, None);
        for (path, reason) in &lib.report().quarantined {
            assert!(path.exists(), "evidence preserved at {}", path.display());
            assert!(!reason.is_empty());
        }
        // The corrupt entries are gone from the store, so a reopen is clean.
        let lib = ModelLibrary::open(&store);
        assert!(!lib.is_degraded());
        assert_eq!(lib.len(), 2);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn deeply_nested_meta_section_is_quarantined_not_a_crash() {
        use proxim_model::persist::fnv1a_64;
        use proxim_model::store::{decode_entry, SECTION_META, SECTION_MODEL, STORE_MAGIC};

        let store = seeded_store("deepmeta", &["good"]);
        // A well-formed container whose meta section passes its checksum
        // but nests far past the JSON parser's depth limit.
        let meta = "[".repeat(100_000);
        let model = shared_model().to_json().unwrap();
        let mut bytes = STORE_MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for (id, payload) in [
            (SECTION_META, meta.as_bytes()),
            (SECTION_MODEL, model.as_bytes()),
        ] {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        assert!(matches!(
            decode_entry(&bytes),
            Err(StoreError::Malformed { .. })
        ));
        fs::write(store.entry_path("deep"), &bytes).unwrap();

        let lib = ModelLibrary::open(&store);
        assert_eq!(lib.names(), vec!["good"]);
        assert_eq!(lib.report().quarantined.len(), 1);
        assert!(lib.report().quarantined[0].1.contains("nested deeper"));
        assert!(lib.get("good").is_some());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn missing_store_directory_opens_empty_not_dead() {
        let lib = ModelLibrary::open(&ModelStore::new(scratch("missing")));
        assert!(lib.is_empty());
        assert!(!lib.is_degraded());
        assert_eq!(lib.report().root_error, None);
        assert!(lib.get("anything").is_none());
    }

    #[test]
    fn unreadable_store_root_is_recorded_not_silently_empty() {
        // A root that exists but is a *file* makes read_dir fail with
        // NotADirectory — the portable stand-in for a permission failure.
        let path = scratch("notadir");
        fs::create_dir_all(path.parent().unwrap()).ok();
        fs::write(&path, b"i am not a directory").unwrap();
        let lib = ModelLibrary::open(&ModelStore::new(&path));
        assert!(lib.is_empty());
        assert!(lib.is_degraded(), "unreadable root must degrade");
        let err = lib
            .report()
            .root_error
            .as_ref()
            .expect("root error recorded");
        assert!(err.contains("cannot list store root"), "{err}");
        // And a reload candidate in this state is always rejected, even
        // forced.
        let live = ModelLibrary::empty();
        let rej = judge_candidate(&lib, &live, true).unwrap_err();
        assert!(rej.root_error.is_some());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_caps_residency_and_serves_the_full_set_via_cold_misses() {
        let store = seeded_store("budget", &["m_a", "m_b", "m_c"]);
        let entry_size = fs::metadata(store.entry_path("m_a")).unwrap().len();
        // Room for exactly one model.
        let lib = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget: Some(entry_size + entry_size / 2),
                ..LibraryOptions::default()
            },
        );
        assert_eq!(lib.len(), 3, "every model is servable");
        assert_eq!(lib.resident_len(), 1, "but only one fits the budget");
        assert!(lib.resident_bytes() <= entry_size + entry_size / 2);

        // Each name serves correctly; non-resident ones pay a cold load.
        let mut colds = 0;
        for name in ["m_a", "m_b", "m_c", "m_a", "m_a"] {
            let got = lib.acquire(name).unwrap();
            colds += u32::from(got.cold);
            assert!(got.model.cell().input_count() >= 1);
            assert!(lib.resident_bytes() <= entry_size + entry_size / 2);
        }
        // m_b and m_c were evicted casualties of the tiny budget; the
        // second and third m_a hits are warm (m_a became resident last).
        assert!(colds >= 2, "tiny budget must force cold loads, got {colds}");
        let warm = lib.acquire("m_a").unwrap();
        assert!(!warm.cold);
        assert_eq!(warm.load_us, 0);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn eviction_keeps_outstanding_arcs_alive() {
        let store = seeded_store("arcs", &["m_a", "m_b"]);
        let entry_size = fs::metadata(store.entry_path("m_a")).unwrap().len();
        let lib = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget: Some(entry_size + 1),
                ..LibraryOptions::default()
            },
        );
        let held = lib.acquire("m_a").unwrap().model;
        // Acquiring m_b evicts m_a from residency...
        let _ = lib.acquire("m_b").unwrap();
        assert_eq!(lib.resident_len(), 1);
        // ...but the outstanding Arc still answers queries.
        assert!(held.cell().input_count() >= 1);
        assert!(Arc::strong_count(&held) >= 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn cold_load_of_a_since_corrupted_entry_is_typed() {
        let store = seeded_store("rot", &["m_a", "m_b"]);
        let entry_size = fs::metadata(store.entry_path("m_a")).unwrap().len();
        let lib = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget: Some(entry_size + 1),
                ..LibraryOptions::default()
            },
        );
        // m_b is resident (loaded last); m_a will cold-load. Corrupt it
        // behind the library's back.
        fs::write(store.entry_path("m_a"), b"rotted after open").unwrap();
        match lib.acquire("m_a") {
            Err(AcquireError::LoadFailed(e)) => {
                assert!(!e.to_string().is_empty());
            }
            other => panic!("expected typed load failure, got {other:?}"),
        }
        // The healthy resident model is unaffected.
        assert!(lib.acquire("m_b").is_ok());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn concurrent_misses_single_flight_one_load() {
        let store = seeded_store("flight", &["m_a", "m_b"]);
        let entry_size = fs::metadata(store.entry_path("m_a")).unwrap().len();
        let lib = Arc::new(ModelLibrary::open_with(
            &store,
            LibraryOptions {
                memory_budget: Some(entry_size + 1),
                ..LibraryOptions::default()
            },
        ));
        let registry = Registry::new();
        lib.bind_metrics(&registry);
        // m_a is non-resident; hammer it from many threads at once.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lib = Arc::clone(&lib);
                std::thread::spawn(move || lib.acquire("m_a").unwrap())
            })
            .collect();
        let results: Vec<Acquired> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let colds = results.iter().filter(|a| a.cold).count();
        assert_eq!(colds, 1, "single-flight: exactly one loader pays the load");
        assert_eq!(
            registry.snapshot().counter(sm::LIBRARY_COLD_MISSES),
            1,
            "one cold miss counted"
        );

        // Deterministic waiter path: pin an in-progress load marker, start
        // an acquire that must wait on it, then release.
        lib.hold_loading_for_test("m_b");
        let waiter = {
            let lib = Arc::clone(&lib);
            std::thread::spawn(move || lib.acquire("m_b").unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !waiter.is_finished(),
            "acquire must block on the load marker"
        );
        lib.release_loading_for_test("m_b");
        let got = waiter.join().unwrap();
        assert!(got.waited, "the waiter saw the in-progress load");
        assert!(registry.snapshot().counter(sm::LIBRARY_SINGLEFLIGHT_WAITS) >= 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn reload_gate_rejects_worse_candidates_and_force_overrides() {
        let store = seeded_store("gate", &["m_a", "m_b"]);
        let live = ModelLibrary::open(&store);
        assert_eq!(live.len(), 2);

        // A clean identical candidate passes.
        let candidate = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                generation: 2,
                ..LibraryOptions::default()
            },
        );
        judge_candidate(&candidate, &live, false).unwrap();

        // Corrupt one entry: the candidate quarantines it, loads fewer
        // survivors, and is rejected with both reasons.
        fs::write(store.entry_path("m_b"), b"deploy gone wrong").unwrap();
        let candidate = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                generation: 3,
                ..LibraryOptions::default()
            },
        );
        let rej = judge_candidate(&candidate, &live, false).unwrap_err();
        assert_eq!(rej.candidate_loaded, 1);
        assert_eq!(rej.live_loaded, 2);
        assert_eq!(rej.candidate_quarantined, 1);
        assert!(rej.reasons.len() == 2, "{:?}", rej.reasons);

        // Force accepts the shrunken set (the quarantine already preserved
        // the evidence).
        let candidate = ModelLibrary::open_with(
            &store,
            LibraryOptions {
                generation: 4,
                ..LibraryOptions::default()
            },
        );
        judge_candidate(&candidate, &live, true).unwrap();
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quarantine_rename_failure_is_reported_distinctly() {
        use proxim_spice::FaultPlan;
        let store = seeded_store("qfail", &["good"]);
        fs::write(store.entry_path("bad"), b"corrupt bytes").unwrap();
        // Writes succeeded above; now fail every rename (full disk).
        let lib = ModelLibrary::open(&store.clone().with_faults(FaultPlan {
            disk_rename: 1.0,
            ..FaultPlan::DISARMED
        }));
        assert_eq!(lib.names(), vec!["good"]);
        assert!(lib.is_degraded());
        assert!(lib.report().quarantined.is_empty(), "no evidence path lie");
        assert_eq!(lib.report().quarantine_failed.len(), 1);
        let (path, reason) = &lib.report().quarantine_failed[0];
        assert!(path.exists(), "corrupt entry still in place");
        assert!(reason.contains("injected"), "{reason}");
        let registry = Registry::new();
        lib.bind_metrics(&registry);
        assert_eq!(registry.snapshot().counter(sm::QUARANTINE_FAILED), 1);
        fs::remove_dir_all(store.root()).ok();
    }
}
