//! Prometheus text-exposition rendering (and a syntax validator) for a
//! metrics [`Snapshot`].
//!
//! The daemon's introspection plane answers a `metrics` op with this
//! format so any Prometheus-compatible scraper can consume a snapshot
//! without a client library. The renderer emits the version-0.0.4 text
//! format: a `# TYPE` comment per family, counters and gauges as single
//! samples, histograms as cumulative `_bucket{le="..."}` series plus
//! `_sum`/`_count`. Metric names are sanitized (`.` and every other
//! invalid character become `_`), and families are emitted in sorted
//! order — the snapshot's maps are ordered, so the output is byte-stable
//! for a given registry state.
//!
//! [`validate`] is the matching syntax checker: the CI smoke test scrapes
//! a live daemon and runs the scrape through it, so a renderer regression
//! is caught by the same build that introduced it.

use crate::metrics::Snapshot;
use std::fmt;

/// Renders a value the way Prometheus expects: plain decimal, `NaN`,
/// `+Inf`, or `-Inf`.
fn push_value(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x == f64::INFINITY {
        out.push_str("+Inf");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        out.push_str(&format!("{x}"));
    }
}

/// Maps an internal metric name (dotted, e.g. `serve.queue.depth`) to a
/// valid Prometheus metric name.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let name = sanitize_name(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, v) in &snapshot.gauges {
        let name = sanitize_name(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} "));
        push_value(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let name = sanitize_name(name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in h.counts.iter().enumerate() {
            cumulative += count;
            out.push_str(&format!("{name}_bucket{{le=\""));
            match h.bounds.get(i) {
                Some(b) => push_value(&mut out, *b),
                None => out.push_str("+Inf"),
            }
            out.push_str(&format!("\"}} {cumulative}\n"));
        }
        // A histogram registered with no observations still exposes the
        // mandatory +Inf bucket when its bounds list is empty.
        if h.counts.is_empty() {
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        }
        out.push_str(&format!("{name}_sum "));
        push_value(&mut out, h.sum);
        out.push('\n');
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

/// A validation failure, pointing at the offending exposition line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionError {
    /// 1-based line number in the exposition text.
    pub line: usize,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for ExpositionError {}

fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_value(v: &str) -> bool {
    matches!(v, "NaN" | "+Inf" | "-Inf" | "Inf") || v.parse::<f64>().is_ok()
}

/// Validates one sample line: `name[{label="value",...}] value [timestamp]`.
fn validate_sample(line: &str) -> Result<(), String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line[open..]
                .find('}')
                .map(|i| open + i)
                .ok_or("unclosed label set")?;
            let labels = &line[open + 1..close];
            if !labels.is_empty() {
                for pair in labels.split(',') {
                    let (lname, lval) = pair.split_once('=').ok_or("label without '='")?;
                    if !is_valid_name(lname) {
                        return Err(format!("invalid label name {lname:?}"));
                    }
                    if !(lval.len() >= 2 && lval.starts_with('"') && lval.ends_with('"')) {
                        return Err(format!("label value {lval:?} is not quoted"));
                    }
                }
            }
            (&line[..open], line[close + 1..].trim())
        }
        None => {
            let (name, rest) = line
                .split_once(char::is_whitespace)
                .ok_or("sample line has no value")?;
            (name, rest.trim())
        }
    };
    if !is_valid_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let mut fields = rest.split_whitespace();
    let value = fields.next().ok_or("sample line has no value")?;
    if !is_valid_value(value) {
        return Err(format!("invalid sample value {value:?}"));
    }
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("invalid timestamp {ts:?}"));
        }
    }
    if fields.next().is_some() {
        return Err("trailing tokens after timestamp".into());
    }
    Ok(())
}

/// Validates Prometheus text-exposition syntax line by line, plus one
/// semantic rule: every `histogram` family must expose a `+Inf` bucket
/// that equals its `_count`.
///
/// # Errors
///
/// Returns [`ExpositionError`] naming the first unusable line.
pub fn validate(text: &str) -> Result<(), ExpositionError> {
    use std::collections::BTreeMap;
    let err = |line: usize, detail: String| ExpositionError { line, detail };
    let mut histograms: BTreeMap<String, (Option<u64>, Option<u64>, usize)> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut fields = comment.split_whitespace();
            match fields.next() {
                Some("TYPE") => {
                    let name = fields
                        .next()
                        .ok_or_else(|| err(lineno, "# TYPE without a metric name".into()))?;
                    if !is_valid_name(name) {
                        return Err(err(lineno, format!("invalid TYPE metric name {name:?}")));
                    }
                    let kind = fields
                        .next()
                        .ok_or_else(|| err(lineno, "# TYPE without a type".into()))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(err(lineno, format!("unknown metric type {kind:?}")));
                    }
                    if kind == "histogram" {
                        histograms.insert(name.to_owned(), (None, None, lineno));
                    }
                }
                Some("HELP") | Some("EOF") => {}
                // Free-form comments are legal in the text format.
                _ => {}
            }
            continue;
        }
        validate_sample(line).map_err(|detail| err(lineno, detail))?;
        // Track histogram +Inf buckets and counts for the semantic check.
        let name_end = line.find(['{', ' ', '\t']).unwrap_or(line.len());
        let name = &line[..name_end];
        if let Some(base) = name.strip_suffix("_bucket") {
            if let Some((_, inf_slot, _)) = histograms.get_mut(base) {
                if line.contains("le=\"+Inf\"") {
                    let v = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
                    *inf_slot = v;
                }
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some((count_slot, _, _)) = histograms.get_mut(base) {
                *count_slot = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
            }
        }
    }
    for (name, (count, inf, lineno)) in &histograms {
        let inf =
            inf.ok_or_else(|| err(*lineno, format!("histogram {name} has no +Inf bucket")))?;
        let count =
            count.ok_or_else(|| err(*lineno, format!("histogram {name} has no _count sample")))?;
        if inf != count {
            return Err(err(
                *lineno,
                format!("histogram {name}: +Inf bucket {inf} != _count {count}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn renders_all_kinds_and_validates() {
        let reg = Registry::new();
        reg.counter("serve.requests").add(42);
        reg.gauge("serve.queue.depth").set(3.0);
        let h = reg.histogram("serve.request.seconds", &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.5);
        let text = render(&reg.snapshot());
        validate(&text).expect(&text);
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 42\n"));
        assert!(text.contains("serve_queue_depth 3"));
        assert!(text.contains("serve_request_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("serve_request_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_request_seconds_count 2"));
    }

    #[test]
    fn sanitizes_hostile_names() {
        assert_eq!(sanitize_name("serve.queue.depth"), "serve_queue_depth");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert!(is_valid_name(&sanitize_name("ünïcode")));
    }

    #[test]
    fn validator_rejects_broken_syntax() {
        for (bad, why) in [
            ("metric", "no value"),
            ("metric{le=\"1\" 3", "unclosed labels"),
            ("metric{le=1} 3", "unquoted label value"),
            ("1metric 3", "name starts with a digit"),
            ("metric notanumber", "bad value"),
            ("# TYPE metric widget", "unknown type"),
            ("metric 1 notatimestamp", "bad timestamp"),
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?} ({why})");
        }
        // A histogram whose +Inf bucket disagrees with _count is semantic
        // corruption, not just bad syntax.
        let inconsistent = concat!(
            "# TYPE h histogram\n",
            "h_bucket{le=\"+Inf\"} 3\n",
            "h_sum 1\n",
            "h_count 4\n"
        );
        let e = validate(inconsistent).unwrap_err();
        assert!(e.detail.contains("!= _count"), "{e}");
    }

    #[test]
    fn empty_registry_renders_empty_and_valid() {
        let text = render(&Registry::new().snapshot());
        assert!(text.is_empty());
        validate(&text).unwrap();
    }

    #[test]
    fn non_finite_gauges_render_prometheus_spellings() {
        let reg = Registry::new();
        reg.gauge("ratio").set(f64::INFINITY);
        let text = render(&reg.snapshot());
        assert!(text.contains("ratio +Inf"), "{text}");
        validate(&text).unwrap();
    }
}
