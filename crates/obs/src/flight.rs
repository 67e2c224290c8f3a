//! The flight recorder: an always-on, lock-light ring buffer of the last N
//! trace records, for post-mortems the JSONL sink never saw.
//!
//! The sink answers "show me the whole run" — it needs a path, a level,
//! and disk bandwidth. The flight recorder answers a different question:
//! *what was the process doing in the seconds before it stopped?* It is a
//! fixed-size in-memory ring that [`crate::trace`] feeds with every span
//! and event record the moment it is formatted, whether or not a sink is
//! installed. When something goes wrong — a panic, a `SIGTERM` drain, an
//! operator asking a live daemon — the ring is dumped as ordinary JSONL
//! (the sink format, so `trace2chrome` and every other trace consumer
//! reads it unchanged), newest [`capacity`] records, oldest first.
//!
//! # Concurrency
//!
//! Writers never share a lock: a relaxed `fetch_add` hands each record a
//! unique global sequence number, which maps it to one slot
//! (`seq % capacity`). Each slot is its own tiny mutex, so two writers
//! only ever contend when they land on the *same* slot — which requires
//! the ring to wrap a full lap between them. A slot stores its record's
//! sequence number and refuses to be overwritten backwards, so a slow
//! writer that held a low sequence across a wrap cannot clobber a newer
//! record: the dump is always the newest surviving record per slot,
//! ordered by sequence.
//!
//! # Lifecycle
//!
//! The ring is created on first [`enable`] and its capacity is fixed for
//! the life of the process (later `enable` calls keep the existing ring).
//! [`disable`] stops recording without discarding what was captured, so a
//! post-mortem dump still works after recording stops. The recorder never
//! touches the filesystem itself — callers write [`dump`]'s string through
//! their crash-consistent writer of choice (the model stack uses
//! `proxim_model::store::atomic_write`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Default ring capacity when [`init_from_env`] or a caller does not pick
/// one: a thousand records covers seconds of a busy daemon. Deliberately
/// modest — a recording writer rotates through every slot's reused
/// buffers, so the ring's resident footprint (roughly half a megabyte at
/// serve-shaped records) streams through the cache continuously; a much
/// larger default measurably taxes the traced hot path on small-cache
/// hosts. Post-mortems that need deeper history can raise it per process
/// (`PROXIM_FLIGHT_CAPACITY`, `--flight-capacity`).
pub const DEFAULT_CAPACITY: usize = 1024;

/// A whole request span tree captured *unformatted*: copying a handful of
/// integers and short strings into a reused slot costs a fraction of
/// rendering five JSONL records, and the ring only pays the rendering at
/// [`dump`] time — which is how recording every request stays negligible
/// on the serving path. The record is deliberately flat — one text arena
/// plus two numeric vectors, not a string per name — because a ring
/// larger than cache makes every slot write a cold miss, and a capture
/// that streams into three contiguous buffers misses a few lines where
/// one scattered across per-name allocations misses one per string.
/// Args (`trace_id`, `op`, ...) belong to the parent; children are bare
/// phases.
#[derive(Default)]
struct TreeRecord {
    tid: u64,
    /// Parent span id; children get `base_id + 1 ..`.
    base_id: u64,
    /// Per span (parent first): where its name ends in `text`, start, dur.
    /// Names are concatenated in span order from offset 0.
    spans: Vec<(u32, u64, u64)>,
    /// Parent-span args: (key end, value end) offsets into `text`, laid
    /// down key-then-value after the names.
    args: Vec<(u32, u32)>,
    /// All span names, then arg keys/values, concatenated.
    text: String,
}

impl TreeRecord {
    /// Refills this record in place, reusing every inner buffer.
    fn copy_from(
        &mut self,
        parent: &crate::trace::SpanAt<'_>,
        children: &[crate::trace::SpanAt<'_>],
        tid: u64,
        base_id: u64,
    ) {
        self.tid = tid;
        self.base_id = base_id;
        self.spans.clear();
        self.args.clear();
        self.text.clear();
        let push = |text: &mut String, s: &str| -> u32 {
            text.push_str(s);
            text.len() as u32
        };
        let end = push(&mut self.text, parent.name);
        self.spans.push((end, parent.start_us, parent.dur_us));
        for child in children {
            let end = push(&mut self.text, child.name);
            self.spans.push((end, child.start_us, child.dur_us));
        }
        for (k, v) in parent.args {
            let k_end = push(&mut self.text, k);
            let v_end = push(&mut self.text, v);
            self.args.push((k_end, v_end));
        }
    }

    /// Renders the tree as the same JSONL records the sink would have
    /// received.
    fn render(&self, out: &mut String) {
        let slice = |from: u32, to: u32| self.text.get(from as usize..to as usize).unwrap_or("");
        let mut args: Vec<(&str, &str)> = Vec::with_capacity(self.args.len());
        let names_end = self.spans.last().map_or(0, |(end, _, _)| *end);
        let mut at = names_end;
        for (k_end, v_end) in &self.args {
            args.push((slice(at, *k_end), slice(*k_end, *v_end)));
            at = *v_end;
        }
        let mut name_at = 0u32;
        for (i, (name_end, start_us, dur_us)) in self.spans.iter().enumerate() {
            let (parent, span_args): (Option<u64>, &[(&str, &str)]) = if i == 0 {
                (None, &args)
            } else {
                (Some(self.base_id), &[])
            };
            if i > 0 {
                out.push('\n');
            }
            crate::trace::format_span_into(
                out,
                slice(name_at, *name_end),
                self.base_id + i as u64,
                parent,
                self.tid,
                *start_us,
                *dur_us,
                span_args,
            );
            name_at = *name_end;
        }
    }
}

/// What one ring slot holds.
enum Record {
    /// A pre-formatted JSONL line (or newline-separated block).
    Line(String),
    /// An unformatted span tree, rendered lazily at dump time.
    Tree(Box<TreeRecord>),
}

struct Slot {
    seq: u64,
    record: Record,
}

struct Ring {
    slots: Vec<Mutex<Option<Slot>>>,
    head: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING: OnceLock<Ring> = OnceLock::new();
/// Where a post-mortem dump should land, when a caller armed one.
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Whether callers holding durability checkpoints (the characterization
/// journal) should mirror the ring to the armed path after every append.
static SYNC_DUMP: AtomicBool = AtomicBool::new(false);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on, creating the ring with `capacity` slots if this is
/// the first enable. Returns the ring's actual capacity (a later caller
/// asking for a different size gets the existing ring — capacity is fixed
/// per process). A zero `capacity` is clamped to 1.
pub fn enable(capacity: usize) -> usize {
    let ring = RING.get_or_init(|| Ring {
        slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        head: AtomicU64::new(0),
    });
    ENABLED.store(true, Ordering::Relaxed);
    ring.slots.len()
}

/// Stops recording. The captured records are kept: [`dump`] still works,
/// which is exactly what a post-mortem path wants.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether records are currently being captured (lock-free; this is the
/// fast-path check instrumentation sites use).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The ring capacity, or 0 when no ring was ever created.
pub fn capacity() -> usize {
    RING.get().map_or(0, |r| r.slots.len())
}

/// Total records ever offered to the ring (including ones since
/// overwritten). `recorded() - capacity()` is how many fell off the back.
pub fn recorded() -> u64 {
    RING.get().map_or(0, |r| r.head.load(Ordering::Relaxed))
}

/// Records one pre-formatted JSONL record. A record is usually one line,
/// but a caller may pass a newline-separated block (the serving path
/// records each request's whole span tree as one record) — dumps stay
/// valid JSONL either way, and the block costs one slot instead of one
/// per line. No-op unless [`enabled`].
pub fn record(line: &str) {
    if !enabled() {
        return;
    }
    let Some(ring) = RING.get() else { return };
    let seq = ring.head.fetch_add(1, Ordering::Relaxed);
    let idx = (seq % ring.slots.len() as u64) as usize;
    let mut slot = lock(&ring.slots[idx]);
    // Never go backwards: if a racing writer already installed a newer
    // lap's record in this slot, the older record loses, not the newer.
    // Overwrites reuse the slot's existing buffer, so a wrapped ring under
    // steady load records without allocating.
    match slot.as_mut() {
        Some(s) if s.seq >= seq => {}
        Some(s) => {
            s.seq = seq;
            if let Record::Line(buf) = &mut s.record {
                buf.clear();
                buf.push_str(line);
            } else {
                s.record = Record::Line(line.to_owned());
            }
        }
        None => {
            *slot = Some(Slot {
                seq,
                record: Record::Line(line.to_owned()),
            });
        }
    }
}

/// Records a whole span tree *without formatting it*: the slot keeps the
/// raw numbers and names and the JSONL rendering happens at [`dump`] time.
/// This is the serving path's per-request entry point — copying a tree in
/// costs a fraction of rendering it, which is what keeps an always-on
/// flight recorder invisible in throughput. The tree occupies one slot
/// (one request of history), and `base_id` must be the parent's span id
/// with children allocated at `base_id + 1 ..`. No-op unless [`enabled`].
pub(crate) fn record_tree(
    parent: &crate::trace::SpanAt<'_>,
    children: &[crate::trace::SpanAt<'_>],
    tid: u64,
    base_id: u64,
) {
    if !enabled() {
        return;
    }
    let Some(ring) = RING.get() else { return };
    let seq = ring.head.fetch_add(1, Ordering::Relaxed);
    let idx = (seq % ring.slots.len() as u64) as usize;
    let mut slot = lock(&ring.slots[idx]);
    match slot.as_mut() {
        Some(s) if s.seq >= seq => {}
        Some(s) => {
            s.seq = seq;
            if let Record::Tree(tree) = &mut s.record {
                tree.copy_from(parent, children, tid, base_id);
            } else {
                let mut tree = Box::<TreeRecord>::default();
                tree.copy_from(parent, children, tid, base_id);
                s.record = Record::Tree(tree);
            }
        }
        None => {
            let mut tree = Box::<TreeRecord>::default();
            tree.copy_from(parent, children, tid, base_id);
            *slot = Some(Slot {
                seq,
                record: Record::Tree(tree),
            });
        }
    }
}

/// Dumps the ring as JSONL: one `{"t":"flight",...}` header describing
/// what the dump covers, then the surviving records oldest-first. The
/// output is sink-format JSONL, so `trace2chrome` converts it directly.
/// An empty (or never-created) ring dumps just the header.
pub fn dump() -> String {
    let mut records: Vec<(u64, String)> = Vec::new();
    let (total, cap) = match RING.get() {
        Some(ring) => {
            for slot in &ring.slots {
                if let Some(s) = lock(slot).as_ref() {
                    let rendered = match &s.record {
                        Record::Line(line) => line.clone(),
                        Record::Tree(tree) => {
                            let mut out = String::with_capacity(512);
                            tree.render(&mut out);
                            out
                        }
                    };
                    records.push((s.seq, rendered));
                }
            }
            (ring.head.load(Ordering::Relaxed), ring.slots.len())
        }
        None => (0, 0),
    };
    records.sort_unstable_by_key(|(seq, _)| *seq);
    let dropped = total.saturating_sub(records.len() as u64);
    let mut out = format!(
        "{{\"t\":\"flight\",\"recorded\":{total},\"capacity\":{cap},\"dropped\":{dropped}}}\n"
    );
    for (_, line) in &records {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Arms a post-mortem dump path. Callers that own the crash boundary
/// (panic hooks, drain paths, the checkpoint journal) read it back via
/// [`armed_dump_path`] and write [`dump`] there through their atomic
/// writer. `sync` additionally asks checkpoint-holding callers to mirror
/// the ring to the path on every durable append, so even a `SIGKILL`
/// leaves a dump no more than one journal entry behind.
pub fn arm_dump(path: PathBuf, sync: bool) {
    *lock(&DUMP_PATH) = Some(path);
    SYNC_DUMP.store(sync, Ordering::Relaxed);
}

/// The armed post-mortem dump path, if any.
pub fn armed_dump_path() -> Option<PathBuf> {
    lock(&DUMP_PATH).clone()
}

/// Whether per-checkpoint mirror dumps were requested (see [`arm_dump`]).
#[inline]
pub fn sync_dump_armed() -> bool {
    SYNC_DUMP.load(Ordering::Relaxed) && enabled()
}

/// Arms the flight recorder from the environment, once per process:
///
/// - `PROXIM_FLIGHT=<path>` enables recording and arms `<path>` as the
///   post-mortem dump destination;
/// - `PROXIM_FLIGHT_CAPACITY=<n>` overrides [`DEFAULT_CAPACITY`];
/// - `PROXIM_FLIGHT_SYNC=1` requests per-checkpoint mirror dumps.
///
/// Returns the armed dump path when the recorder was (or already is)
/// armed from the environment. Safe to call from every entry point that
/// might run first — only the first call reads the environment.
pub fn init_from_env() -> Option<PathBuf> {
    static INIT: OnceLock<Option<PathBuf>> = OnceLock::new();
    INIT.get_or_init(|| {
        let path = std::env::var_os("PROXIM_FLIGHT")?;
        if path.is_empty() {
            return None;
        }
        let capacity = std::env::var("PROXIM_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        let sync = std::env::var("PROXIM_FLIGHT_SYNC").is_ok_and(|v| v == "1");
        enable(capacity);
        let path = PathBuf::from(path);
        arm_dump(path.clone(), sync);
        Some(path)
    })
    .clone()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    // The ring is process-global and its capacity is fixed at first
    // enable, so the unit tests here share one ring and assert properties
    // that hold regardless of interleaving with each other; the
    // wrap-around and concurrency suites (tests/flight_recorder.rs) run
    // in their own process where they control the capacity.
    #[test]
    fn records_survive_disable_and_dump_is_ordered() {
        enable(DEFAULT_CAPACITY);
        record("{\"t\":\"event\",\"name\":\"a\",\"tid\":1,\"ts\":1}");
        record("{\"t\":\"event\",\"name\":\"b\",\"tid\":1,\"ts\":2}");
        disable();
        assert!(!enabled());
        // Recording is off, dumping still works.
        record("{\"t\":\"event\",\"name\":\"after\",\"tid\":1,\"ts\":3}");
        let dump = dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"t\":\"flight\""), "{}", lines[0]);
        assert!(dump.contains("\"name\":\"a\""));
        assert!(dump.contains("\"name\":\"b\""));
        assert!(!dump.contains("\"name\":\"after\""));
        // Re-enable keeps the ring and its contents.
        let cap = enable(7);
        assert_eq!(cap, DEFAULT_CAPACITY, "capacity is fixed at first enable");
        assert!(super::dump().contains("\"name\":\"a\""));
    }

    #[test]
    fn armed_path_round_trips() {
        let p = PathBuf::from("/tmp/flight-test.jsonl");
        arm_dump(p.clone(), false);
        assert_eq!(armed_dump_path(), Some(p));
        assert!(!SYNC_DUMP.load(Ordering::Relaxed));
    }
}
