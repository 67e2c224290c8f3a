//! Spans and instant events with monotonic timestamps and stable thread
//! ids, emitted as one JSONL record each.
//!
//! A [`Span`] measures a scope: it stamps its start on creation and emits a
//! single record with its duration when dropped. Spans nest per thread — a
//! thread-local stack tracks the open spans, so a child records its
//! parent's id without any coordination between threads. An [`Event`] marks
//! an instant and emits on drop.
//!
//! Everything here is inert unless [`crate::trace_enabled`] or the
//! [`crate::flight`] recorder holds at construction: an inert span is a
//! `None` payload whose drop does nothing, so instrumentation left in the
//! hot path costs an atomic load and a branch. A live record is routed to
//! the JSONL sink (when tracing is on) and to the flight-recorder ring
//! (when it is enabled) — the ring captures every record even when no
//! sink is installed, which is what makes post-mortem dumps possible on
//! processes that never asked for a trace file.
//!
//! ## Record formats (one JSON object per line)
//!
//! ```json
//! {"t":"span","name":"char.job","id":7,"parent":3,"tid":2,"ts":1520,"dur":880,"args":{"job":"12"}}
//! {"t":"event","name":"cache.hit","tid":1,"ts":40,"args":{"key":"9f"}}
//! {"t":"metrics","data":{...}}
//! ```
//!
//! `ts`/`dur` are microseconds since the process trace epoch (the first
//! timestamped call), matching the Chrome `trace_event` clock domain.

use crate::flight;
use crate::json::push_escaped;
use crate::sink;
use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (monotonic).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// `at` on the [`now_us`] clock: microseconds since the process trace
/// epoch, or 0 for an instant before it. Lets a caller stamp a span with a
/// clock reading it already took.
pub fn instant_us(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_micros() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's stable trace id (sequential, assigned on first use).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

fn current_parent() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

struct SpanData {
    name: String,
    id: u64,
    parent: Option<u64>,
    tid: u64,
    start_us: u64,
    args: Vec<(String, String)>,
}

/// A scoped span: created open, emitted on drop. Obtain via [`span`].
#[must_use = "a span measures its scope; dropping it immediately records nothing useful"]
pub struct Span(Option<SpanData>);

/// Whether span/event records have anywhere to go: the sink (tracing on)
/// or the flight-recorder ring.
#[inline]
fn recording() -> bool {
    crate::trace_enabled() || flight::enabled()
}

/// Routes one finished record line: to the sink when tracing is enabled,
/// and to the flight ring when the recorder is on.
fn route_line(line: String) {
    if crate::trace_enabled() {
        sink::write_line(&line);
    }
    flight::record(&line);
}

/// Opens a span named `name`. Inert (and free beyond the level check) when
/// neither tracing nor the flight recorder is enabled. Attach fields with
/// [`Span::arg`]; the record is emitted when the returned guard drops.
pub fn span(name: &str) -> Span {
    if !recording() {
        return Span(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_parent();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanData {
        name: name.to_owned(),
        id,
        parent,
        tid: current_tid(),
        start_us: now_us(),
        args: Vec::new(),
    }))
}

impl Span {
    /// Attaches a key/value field (rendered as a string). No-op on an
    /// inert span, so the value is never formatted when tracing is off —
    /// pass cheap Displays or gate expensive ones on [`crate::trace_enabled`].
    pub fn arg(mut self, key: &str, value: impl Display) -> Self {
        if let Some(data) = self.0.as_mut() {
            data.args.push((key.to_owned(), value.to_string()));
        }
        self
    }

    /// Attaches a field to a span held by reference (for args only known
    /// mid-scope).
    pub fn add_arg(&mut self, key: &str, value: impl Display) {
        if let Some(data) = self.0.as_mut() {
            data.args.push((key.to_owned(), value.to_string()));
        }
    }

    /// Whether this span is live (tracing was enabled when it opened).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.0.take() else { return };
        let dur = now_us().saturating_sub(data.start_us);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Almost always the top; rposition tolerates out-of-order drops.
            if let Some(i) = stack.iter().rposition(|&id| id == data.id) {
                stack.remove(i);
            }
        });
        let mut line = String::with_capacity(96);
        format_span_into(
            &mut line,
            &data.name,
            data.id,
            data.parent,
            data.tid,
            data.start_us,
            dur,
            &data.args,
        );
        route_line(line);
    }
}

struct EventData {
    name: String,
    tid: u64,
    ts_us: u64,
    parent: Option<u64>,
    args: Vec<(String, String)>,
}

/// An instant event: stamped at creation, emitted on drop. Obtain via
/// [`event`].
#[must_use = "an event emits when dropped; bind it or drop it explicitly after adding args"]
pub struct Event(Option<EventData>);

/// Marks an instant event named `name`, recorded inside the currently open
/// span (if any). Inert when neither tracing nor the flight recorder is
/// enabled. Attach fields with [`Event::arg`]; the record is emitted when
/// the value drops.
pub fn event(name: &str) -> Event {
    if !recording() {
        return Event(None);
    }
    Event(Some(EventData {
        name: name.to_owned(),
        tid: current_tid(),
        ts_us: now_us(),
        parent: current_parent(),
        args: Vec::new(),
    }))
}

impl Event {
    /// Attaches a key/value field (rendered as a string). No-op when inert.
    pub fn arg(mut self, key: &str, value: impl Display) -> Self {
        if let Some(data) = self.0.as_mut() {
            data.args.push((key.to_owned(), value.to_string()));
        }
        self
    }
}

impl Drop for Event {
    fn drop(&mut self) {
        let Some(data) = self.0.take() else { return };
        let mut line = String::with_capacity(64);
        line.push_str("{\"t\":\"event\",\"name\":");
        push_escaped(&mut line, &data.name);
        line.push_str(&format!(",\"tid\":{},\"ts\":{}", data.tid, data.ts_us));
        if let Some(p) = data.parent {
            line.push_str(&format!(",\"parent\":{p}"));
        }
        push_args(&mut line, &data.args);
        line.push('}');
        route_line(line);
    }
}

fn push_args(line: &mut String, args: &[(impl AsRef<str>, impl AsRef<str>)]) {
    if args.is_empty() {
        return;
    }
    line.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_escaped(line, k.as_ref());
        line.push(':');
        push_escaped(line, v.as_ref());
    }
    line.push('}');
}

/// Writes a metrics-snapshot record (`{"t":"metrics","data":{...}}`) to the
/// sink and the flight ring. The Chrome converter turns the counter and
/// gauge samples inside into counter-track events; offline tools read them
/// for end-of-run registry state. No-op when nothing is recording.
pub fn emit_metrics(snapshot: &crate::metrics::Snapshot) {
    if !recording() {
        return;
    }
    let mut line = String::from("{\"t\":\"metrics\",\"ts\":");
    line.push_str(&now_us().to_string());
    line.push_str(",\"data\":");
    line.push_str(&snapshot.to_json());
    line.push('}');
    route_line(line);
}

/// Writes one counter-sample record
/// (`{"t":"counter","name":...,"ts":...,"v":...}`): a single metric value
/// at an instant, cheap enough to emit from inside a serving loop. The
/// Chrome converter renders these as counter tracks, so gauges like queue
/// depth show up in Perfetto alongside the spans they explain. No-op when
/// nothing is recording.
pub fn emit_counter(name: &str, value: f64) {
    if !recording() {
        return;
    }
    use crate::json::push_u64;
    let mut line = String::with_capacity(96);
    line.push_str("{\"t\":\"counter\",\"name\":");
    push_escaped(&mut line, name);
    line.push_str(",\"tid\":");
    push_u64(&mut line, current_tid());
    line.push_str(",\"ts\":");
    push_u64(&mut line, now_us());
    line.push_str(",\"v\":");
    crate::json::push_f64(&mut line, value);
    line.push('}');
    route_line(line);
}

/// Formats one span record into `line`: the one writer of the span layout,
/// for live spans, span trees and flight dumps alike. Appending to the
/// caller's buffer keeps the hot emission path allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn format_span_into(
    line: &mut String,
    name: &str,
    id: u64,
    parent: Option<u64>,
    tid: u64,
    start_us: u64,
    dur_us: u64,
    args: &[(impl AsRef<str>, impl AsRef<str>)],
) {
    use crate::json::push_u64;
    line.push_str("{\"t\":\"span\",\"name\":");
    push_escaped(line, name);
    line.push_str(",\"id\":");
    push_u64(line, id);
    if let Some(p) = parent {
        line.push_str(",\"parent\":");
        push_u64(line, p);
    }
    line.push_str(",\"tid\":");
    push_u64(line, tid);
    line.push_str(",\"ts\":");
    push_u64(line, start_us);
    line.push_str(",\"dur\":");
    push_u64(line, dur_us);
    push_args(line, args);
    line.push('}');
}

/// One span in an [`emit_span_tree_at`] batch: a named phase with
/// explicit timestamps and string args.
pub struct SpanAt<'a> {
    /// Span name (e.g. `serve.queue_wait`).
    pub name: &'a str,
    /// Start on the [`now_us`] clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// String args rendered into the record's `args` object.
    pub args: &'a [(&'a str, &'a str)],
}

thread_local! {
    /// Reused per-thread buffer for [`emit_span_tree_at`]: the serving
    /// path emits one fixed tree per request, and reusing the buffer makes
    /// that emission allocation-free in steady state.
    static TREE_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Emits a parent span and its children as one batch: all records are
/// formatted into one per-thread buffer and hit the sink as a single
/// block write under a single lock instead of one per span — the
/// difference between tracing being nearly free and tracing being a tax
/// when a serving loop emits a fixed little tree per request. Children
/// are parented to the parent's fresh id. `to_sink` gates the JSONL
/// sink; the flight ring records whenever it is enabled. Returns the
/// parent's id, or 0 when nothing was recorded.
pub fn emit_span_tree_at(parent: &SpanAt<'_>, children: &[SpanAt<'_>], to_sink: bool) -> u64 {
    let sink_live = to_sink && crate::trace_enabled();
    if !sink_live && !flight::enabled() {
        return 0;
    }
    // One contended fetch_add for the whole tree: span ids are only
    // required to be unique, and at serving rates five separate RMWs on
    // the same cache line from every worker is measurable.
    let parent_id = NEXT_SPAN_ID.fetch_add(1 + children.len() as u64, Ordering::Relaxed);
    let tid = current_tid();
    if sink_live {
        TREE_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            format_span_into(
                &mut buf,
                parent.name,
                parent_id,
                None,
                tid,
                parent.start_us,
                parent.dur_us,
                parent.args,
            );
            buf.push('\n');
            for (i, child) in children.iter().enumerate() {
                format_span_into(
                    &mut buf,
                    child.name,
                    parent_id + 1 + i as u64,
                    Some(parent_id),
                    tid,
                    child.start_us,
                    child.dur_us,
                    child.args,
                );
                buf.push('\n');
            }
            sink::write_block(&buf);
        });
    }
    // The whole tree goes into the flight ring as ONE record occupying one
    // slot — a request is the ring's natural post-mortem unit, so an
    // N-slot ring holds N *requests* of history. The ring keeps the
    // tree unformatted (rendering happens at dump time), which is why the
    // non-sampled common case never pays for JSONL at all.
    flight::record_tree(parent, children, tid, parent_id);
    parent_id
}
