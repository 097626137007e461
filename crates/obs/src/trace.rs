//! Exporting an event stream as a Chrome trace-event timeline.
//!
//! `asim2-events v1` logs carry no wall-clock timestamps — only span
//! *durations* — which is what keeps them small and replay-friendly, but
//! means a timeline viewer has nothing to plot directly. This module
//! synthesizes a timeline: events are laid out on a virtual microsecond
//! clock in stream order, each completed span occupies its measured
//! duration, and each span gets its own `tid` row so overlapping spans
//! never collapse into one lane. The result is the [Chrome trace-event
//! JSON format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! (the `traceEvents` array form), loadable in Perfetto or
//! `chrome://tracing`.
//!
//! The layout is a pure function of the event sequence: the same log
//! always exports byte-identical trace JSON.
//!
//! Mapping:
//!
//! - span enter/exit pairs → a `"B"`/`"E"` pair named `src/key`, the
//!   `"E"` placed `max(us, 1)` after the `"B"` so zero-length spans stay
//!   visible;
//! - spans left open at end of stream → a `"B"`/`"E"` pair closed at the
//!   end of the timeline (every `"B"` is always matched);
//! - marks → `"i"` (instant) events, the detail under `args`;
//! - gauges → `"C"` (counter) samples;
//! - deterministic counters → `"C"` samples of the *cumulative* total,
//!   so the monotone staircase is visible on the timeline;
//! - `meta` headers → nothing.

use std::collections::BTreeMap;

use crate::event::{Event, FORMAT};
use crate::json::Json;

/// One entry of the `traceEvents` array, pre-rendered field-by-field.
struct TraceEntry {
    ts: u64,
    /// Emission order, the tie-breaker keeping the sort stable.
    seq: usize,
    json: String,
}

/// Builds trace entries from events on a synthetic monotonic clock.
struct Layout {
    /// The Chrome-trace process this source's events land in; every
    /// source of a merged export gets its own pid so viewers render one
    /// track group per worker.
    pid: u64,
    clock: u64,
    entries: Vec<TraceEntry>,
    /// Open spans: `(src, key, id)` → `(begin ts, tid)`.
    open: BTreeMap<(String, String, u64), (u64, u64)>,
    /// Running totals backing the cumulative counter samples.
    totals: BTreeMap<(String, String), u64>,
}

impl Layout {
    fn new(pid: u64) -> Layout {
        Layout {
            pid,
            clock: 0,
            entries: Vec::new(),
            open: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    fn push(&mut self, ts: u64, json: String) {
        let seq = self.entries.len();
        self.entries.push(TraceEntry { ts, seq, json });
    }

    /// Lays out one event; `tick` advances the clock so same-stream
    /// events never stack at one instant.
    fn fold(&mut self, event: &Event) {
        match event {
            Event::Meta { .. } => {}
            Event::Counter { src, key, n } => {
                let total = self.totals.entry((src.clone(), key.clone())).or_insert(0);
                *total += n;
                let json = counter_sample(src, key, self.clock, *total, self.pid);
                self.push(self.clock, json);
                self.clock += 1;
            }
            Event::Gauge { src, key, value } => {
                let json = counter_sample(src, key, self.clock, *value, self.pid);
                self.push(self.clock, json);
                self.clock += 1;
            }
            Event::Mark { src, key, detail } => {
                let mut json = format!(
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":{},\"tid\":0",
                    Json::str(format!("{src}/{key}")).render_compact(),
                    self.clock,
                    self.pid
                );
                if let Some(detail) = detail {
                    json.push_str(&format!(
                        ",\"args\":{{\"detail\":{}}}",
                        Json::str(detail).render_compact()
                    ));
                }
                json.push('}');
                self.push(self.clock, json);
                self.clock += 1;
            }
            Event::SpanEnter { src, key, id } => {
                // One tid per span: overlapping spans of the same key
                // get their own rows instead of nesting incorrectly.
                let tid = *id;
                self.open
                    .insert((src.clone(), key.clone(), *id), (self.clock, tid));
                self.clock += 1;
            }
            Event::SpanExit {
                src,
                key,
                id,
                micros,
            } => {
                // An exit without a recorded enter (log truncated at the
                // front) begins at the current clock.
                let (begin, tid) = self
                    .open
                    .remove(&(src.clone(), key.clone(), *id))
                    .unwrap_or((self.clock, *id));
                let end = begin + (*micros).max(1);
                self.emit_span(src, key, begin, end, tid);
                self.clock = self.clock.max(end);
            }
        }
    }

    fn emit_span(&mut self, src: &str, key: &str, begin: u64, end: u64, tid: u64) {
        let name = Json::str(format!("{src}/{key}")).render_compact();
        let cat = Json::str(src).render_compact();
        let pid = self.pid;
        self.push(
            begin,
            format!(
                "{{\"name\":{name},\"cat\":{cat},\"ph\":\"B\",\"ts\":{begin},\"pid\":{pid},\"tid\":{tid}}}"
            ),
        );
        self.push(
            end,
            format!(
                "{{\"name\":{name},\"cat\":{cat},\"ph\":\"E\",\"ts\":{end},\"pid\":{pid},\"tid\":{tid}}}"
            ),
        );
    }

    /// Closes every span still open (so each `"B"` has its matching
    /// `"E"`) and surrenders the laid-out entries.
    fn close(mut self) -> Vec<TraceEntry> {
        let open = std::mem::take(&mut self.open);
        let end_of_stream = self.clock.max(1);
        for ((src, key, _id), (begin, tid)) in open {
            let end = end_of_stream.max(begin + 1);
            self.emit_span(&src, &key, begin, end, tid);
        }
        self.entries
    }
}

/// Sorts and wraps laid-out entries as the final trace document.
fn render(mut entries: Vec<TraceEntry>) -> String {
    // Stable order: by timestamp, emission order breaking ties —
    // viewers require non-decreasing ts, and determinism requires a
    // total order.
    entries.sort_by_key(|e| (e.ts, e.seq));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&entry.json);
    }
    if !entries.is_empty() {
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn counter_sample(src: &str, key: &str, ts: u64, value: u64, pid: u64) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"args\":{{\"value\":{value}}}}}",
        Json::str(format!("{src}/{key}")).render_compact()
    )
}

/// Exports a slice of already-parsed events as trace-event JSON.
pub fn trace_from_events(events: &[Event]) -> String {
    let mut layout = Layout::new(1);
    for event in events {
        layout.fold(event);
    }
    render(layout.close())
}

/// Parses a log into events, validating the v1 header exactly like
/// [`Summary::fold_text`](crate::Summary).
fn parse_log(text: &str, label: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::parse(line).map_err(|e| format!("{label}:{}: {e}", lineno + 1))?;
        if !saw_header {
            match &event {
                Event::Meta { format } if format == FORMAT => saw_header = true,
                Event::Meta { format } => {
                    return Err(format!(
                        "{label}:{}: unsupported format {format:?} (expected {FORMAT:?})",
                        lineno + 1
                    ));
                }
                _ => {
                    return Err(format!(
                        "{label}:{}: first event must be the {FORMAT:?} meta header",
                        lineno + 1
                    ));
                }
            }
        }
        events.push(event);
    }
    if !saw_header {
        return Err(format!("{label}: empty event log (missing meta header)"));
    }
    Ok(events)
}

/// Parses an `asim2-events v1` JSONL log and exports it as trace-event
/// JSON. Validation matches [`Summary::fold_text`](crate::Summary):
/// the first line must be the v1 meta header and every line must parse.
///
/// # Errors
///
/// A message naming `label`, the line number and the violation.
pub fn trace_from_text(text: &str, label: &str) -> Result<String, String> {
    Ok(trace_from_events(&parse_log(text, label)?))
}

/// Merges several `asim2-events v1` logs — one per fleet worker, say —
/// into a single trace document. Each source gets its own Chrome-trace
/// process (`pid` = position + 1, a `process_name` metadata record
/// naming it after `label`), so viewers render one track group per
/// source; within a source the layout is identical to a single-source
/// export. Deterministic: a function of the source order and each
/// source's event order only.
///
/// # Errors
///
/// The first source that fails validation, as [`trace_from_text`].
pub fn trace_from_sources(sources: &[(String, String)]) -> Result<String, String> {
    let mut merged: Vec<TraceEntry> = Vec::new();
    for (i, (label, text)) in sources.iter().enumerate() {
        let events = parse_log(text, label)?;
        let pid = i as u64 + 1;
        let mut layout = Layout::new(pid);
        layout.push(
            0,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\
                 \"args\":{{\"name\":{}}}}}",
                Json::str(label).render_compact()
            ),
        );
        for event in &events {
            layout.fold(event);
        }
        merged.extend(layout.close());
    }
    // Re-number the tie-breaker globally: per-source seq values overlap,
    // and the final sort needs a total order.
    for (seq, entry) in merged.iter_mut().enumerate() {
        entry.seq = seq;
    }
    Ok(render(merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, micros: u64) -> [Event; 2] {
        [
            Event::SpanEnter {
                src: "campaign".into(),
                key: "case".into(),
                id,
            },
            Event::SpanExit {
                src: "campaign".into(),
                key: "case".into(),
                id,
                micros,
            },
        ]
    }

    fn ts_values(json: &str) -> Vec<u64> {
        json.match_indices("\"ts\":")
            .map(|(i, _)| {
                json[i + 5..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn spans_become_matched_pairs_with_monotonic_ts() {
        let [enter, exit] = span(1, 250);
        let [enter2, exit2] = span(2, 40);
        let json = trace_from_events(&[enter, enter2, exit2, exit]);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        let ts = ts_values(&json);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn zero_length_and_unclosed_spans_stay_matched() {
        let [enter, exit] = span(1, 0);
        let dangling = Event::SpanEnter {
            src: "campaign".into(),
            key: "run".into(),
            id: 9,
        };
        let json = trace_from_events(&[dangling, enter, exit]);
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        // The zero-length span still spans at least one microsecond.
        let ts = ts_values(&json);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn counters_accumulate_and_marks_become_instants() {
        let events = [
            Event::Counter {
                src: "campaign".into(),
                key: "cases".into(),
                n: 2,
            },
            Event::Counter {
                src: "campaign".into(),
                key: "cases".into(),
                n: 3,
            },
            Event::Mark {
                src: "shard".into(),
                key: "run".into(),
                detail: Some("shard \"0\"".into()),
            },
        ];
        let json = trace_from_events(&events);
        assert!(json.contains("\"value\":2"), "{json}");
        assert!(json.contains("\"value\":5"), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("shard \\\"0\\\""), "{json}");
    }

    #[test]
    fn export_is_deterministic_and_validates_the_header() {
        let text = format!(
            "{}\n{}\n{}\n",
            Event::Meta {
                format: FORMAT.into()
            }
            .render(),
            span(1, 10)[0].render(),
            span(1, 10)[1].render(),
        );
        let a = trace_from_text(&text, "log").unwrap();
        let b = trace_from_text(&text, "log").unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        let err = trace_from_text("", "empty").unwrap_err();
        assert!(err.contains("meta header"), "{err}");
        let headerless = format!("{}\n", span(1, 10)[0].render());
        assert!(trace_from_text(&headerless, "x").is_err());
    }

    fn log_with(events: &[Event]) -> String {
        let mut text = format!(
            "{}\n",
            Event::Meta {
                format: FORMAT.into()
            }
            .render()
        );
        for e in events {
            text.push_str(&e.render());
            text.push('\n');
        }
        text
    }

    #[test]
    fn multi_source_export_gives_each_source_its_own_named_process() {
        let [enter, exit] = span(1, 10);
        let w1 = log_with(&[enter.clone(), exit.clone()]);
        let w2 = log_with(&[Event::Counter {
            src: "campaign".into(),
            key: "cases".into(),
            n: 4,
        }]);
        let json = trace_from_sources(&[("w1".into(), w1), ("w2".into(), w2)]).unwrap();
        assert!(
            json.contains("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"args\":{\"name\":\"w1\"}}"),
            "{json}"
        );
        assert!(
            json.contains("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":2,\"args\":{\"name\":\"w2\"}}"),
            "{json}"
        );
        // The span stays in pid 1, the counter sample lands in pid 2.
        assert!(json.contains("\"ph\":\"B\",\"ts\":0,\"pid\":1"), "{json}");
        assert!(json.contains("\"ph\":\"C\",\"ts\":0,\"pid\":2"), "{json}");
        let ts = ts_values(&json);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn single_source_merge_matches_plain_export_modulo_metadata() {
        let [enter, exit] = span(3, 25);
        let text = log_with(&[enter, exit]);
        let plain = trace_from_text(&text, "w1").unwrap();
        let merged = trace_from_sources(&[("w1".into(), text)]).unwrap();
        // Dropping the one metadata line (and its separator) from the
        // merged export recovers the plain export byte-for-byte.
        let meta_line =
            "\n  {\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"args\":{\"name\":\"w1\"}},";
        assert_eq!(merged.replacen(meta_line, "", 1), plain);
    }

    #[test]
    fn multi_source_export_surfaces_the_failing_source() {
        let good = log_with(&[]);
        let err = trace_from_sources(&[("ok".into(), good), ("bad".into(), "junk\n".into())])
            .unwrap_err();
        assert!(err.starts_with("bad:1:"), "{err}");
    }
}
