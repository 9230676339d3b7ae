//! Exporters: JSONL solver traces, their lenient reader, and run diffs.
//!
//! The JSONL format is the tool-friendly one — one self-contained JSON
//! object per line, streamable and greppable:
//!
//! ```text
//! {"ts_us":12.5,"dur_us":0,"kind":"instant","name":"greedy.place","cat":"solver","tid":0,"args":{"app":3}}
//! ```
//!
//! A progress log is the same format holding only the `progress.*`
//! events ([`crate::progress`]). The human-friendly Chrome `trace_event`
//! rendering, loadable in `about:tracing` or <https://ui.perfetto.dev>,
//! is [`crate::profile::chrome_trace_enriched`].

use std::fmt;

use serde::Value;

use crate::event::Event;

/// Export/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    msg: String,
}

impl TraceError {
    fn new(msg: impl Into<String>) -> Self {
        TraceError { msg: msg.into() }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error: {}", self.msg)
    }
}

impl std::error::Error for TraceError {}

/// Writes a [`Value`] as compact (single-line) JSON. The vendored
/// `serde_json` stand-in only pretty-prints, which would break the
/// one-object-per-line JSONL contract.
pub fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

/// Compact JSON for a value, as a string.
#[must_use]
pub fn to_compact_json(value: &Value) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn event_value(event: &Event) -> Value {
    let mut map = vec![
        ("ts_us".to_string(), Value::Float(event.start_ns as f64 / 1000.0)),
        ("dur_us".to_string(), Value::Float(event.dur_ns as f64 / 1000.0)),
        ("kind".to_string(), Value::Str(event.kind.as_str().to_string())),
        ("name".to_string(), Value::Str(event.name.to_string())),
        ("cat".to_string(), Value::Str(event.cat.to_string())),
        ("tid".to_string(), Value::Int(i64::try_from(event.thread).unwrap_or(i64::MAX))),
    ];
    if !event.args.is_empty() {
        map.push((
            "args".to_string(),
            Value::Map(event.args.iter().map(|(k, v)| ((*k).to_string(), v.to_value())).collect()),
        ));
    }
    Value::Map(map)
}

/// Renders events as JSONL: one compact JSON object per line, in start
/// order.
#[must_use]
pub fn trace_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        write_compact(&event_value(event), &mut out);
        out.push('\n');
    }
    out
}

/// A trace event parsed back from JSONL (names are owned strings, since
/// they no longer point into the instrumented binary).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// `"span"` or `"instant"`.
    pub kind: String,
    /// Start offset in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (zero for instants).
    pub dur_us: f64,
    /// Recording thread index.
    pub tid: u64,
    /// Arguments (an empty map when the event had none).
    pub args: Value,
}

/// The record an in-process event exports as: what [`parse_jsonl`]
/// reads back from its [`trace_jsonl`] line.
impl From<&Event> for TraceRecord {
    fn from(event: &Event) -> Self {
        TraceRecord {
            name: event.name.to_string(),
            cat: event.cat.to_string(),
            kind: event.kind.as_str().to_string(),
            ts_us: event.start_ns as f64 / 1000.0,
            dur_us: event.dur_ns as f64 / 1000.0,
            tid: event.thread,
            args: Value::Map(
                event.args.iter().map(|(k, v)| ((*k).to_string(), v.to_value())).collect(),
            ),
        }
    }
}

impl TraceRecord {
    /// A numeric argument (integer or float), by key.
    #[must_use]
    pub fn num_arg(&self, key: &str) -> Option<f64> {
        match self.args.get(key) {
            Some(Value::Int(i)) => Some(*i as f64),
            Some(Value::Float(f)) => Some(*f),
            _ => None,
        }
    }
}

fn field<'v>(map: &'v Value, key: &str, line: usize) -> Result<&'v Value, TraceError> {
    map.get(key).ok_or_else(|| TraceError::new(format!("line {line}: missing field `{key}`")))
}

fn str_field(map: &Value, key: &str, line: usize) -> Result<String, TraceError> {
    match field(map, key, line)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(TraceError::new(format!("line {line}: `{key}` is not a string: {other:?}"))),
    }
}

fn num_field(map: &Value, key: &str, line: usize) -> Result<f64, TraceError> {
    match field(map, key, line)? {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(TraceError::new(format!("line {line}: `{key}` is not a number: {other:?}"))),
    }
}

/// Result of leniently parsing a JSONL trace: every line that matched
/// the schema, plus a count of lines that did not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedTrace {
    /// Records in file order.
    pub records: Vec<TraceRecord>,
    /// Non-blank lines skipped because they were malformed (the
    /// `parse.skipped` diagnostic).
    pub skipped: u64,
    /// Description of the first skipped line, for diagnostics.
    pub first_error: Option<String>,
}

fn parse_line(line: &str, line_no: usize) -> Result<TraceRecord, TraceError> {
    let value =
        serde_json::parse(line).map_err(|e| TraceError::new(format!("line {line_no}: {e}")))?;
    let kind = str_field(&value, "kind", line_no)?;
    if kind != "span" && kind != "instant" {
        return Err(TraceError::new(format!("line {line_no}: unknown kind `{kind}`")));
    }
    Ok(TraceRecord {
        name: str_field(&value, "name", line_no)?,
        cat: str_field(&value, "cat", line_no)?,
        kind,
        ts_us: num_field(&value, "ts_us", line_no)?,
        dur_us: num_field(&value, "dur_us", line_no)?,
        tid: num_field(&value, "tid", line_no)? as u64,
        args: value.get("args").cloned().unwrap_or(Value::Map(Vec::new())),
    })
}

/// Parses a JSONL trace produced by [`trace_jsonl`], validating the
/// schema of every line. Lenient by design: a malformed line — most
/// commonly the torn tail of a trace whose writer was killed mid-line —
/// is counted and skipped, never fatal. Callers surface
/// [`ParsedTrace::skipped`] as a `parse.skipped` diagnostic.
#[must_use]
pub fn parse_jsonl(text: &str) -> ParsedTrace {
    let mut parsed = ParsedTrace::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, i + 1) {
            Ok(record) => parsed.records.push(record),
            Err(e) => {
                parsed.skipped += 1;
                if parsed.first_error.is_none() {
                    parsed.first_error = Some(e.to_string());
                }
            }
        }
    }
    parsed
}

/// How one numeric series moved between two exported runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Identical in both runs.
    Unchanged,
    /// Changed in the favorable direction for this series.
    Improved,
    /// Changed in the unfavorable direction for this series.
    Regressed,
    /// Changed, with no known better/worse direction.
    Changed,
    /// Present only in the second run.
    Added,
    /// Present only in the first run.
    Removed,
}

/// One numeric leaf compared across two exported runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the leaf, e.g. `counters.solver.nodes_evaluated`.
    pub name: String,
    /// Value in the first run, when present.
    pub a: Option<f64>,
    /// Value in the second run, when present.
    pub b: Option<f64>,
}

impl DiffEntry {
    /// Signed absolute delta `b - a`; `None` unless present in both.
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        Some(self.b? - self.a?)
    }

    /// Percentage delta relative to the first run; `None` unless both
    /// present and `a != 0`.
    #[must_use]
    pub fn pct_delta(&self) -> Option<f64> {
        let (a, b) = (self.a?, self.b?);
        if a == 0.0 {
            return None;
        }
        Some((b - a) / a * 100.0)
    }

    /// Classification of the change, using [`series_direction`].
    #[must_use]
    pub fn classify(&self) -> DiffClass {
        match (self.a, self.b) {
            (None, None) => DiffClass::Unchanged,
            (None, Some(_)) => DiffClass::Added,
            (Some(_), None) => DiffClass::Removed,
            (Some(a), Some(b)) => {
                if a.to_bits() == b.to_bits() {
                    DiffClass::Unchanged
                } else {
                    match series_direction(&self.name) {
                        Some(true) if b > a => DiffClass::Regressed,
                        Some(true) => DiffClass::Improved,
                        Some(false) if b < a => DiffClass::Regressed,
                        Some(false) => DiffClass::Improved,
                        None => DiffClass::Changed,
                    }
                }
            }
        }
    }
}

/// Whether lower values are better for a series, judged by its name:
/// `Some(true)` = lower is better (costs, penalties, times, misses),
/// `Some(false)` = higher is better (hits, rates), `None` = neutral.
#[must_use]
pub fn series_direction(name: &str) -> Option<bool> {
    let lower = name.to_ascii_lowercase();
    const LOWER_IS_BETTER: &[&str] = &[
        "cost",
        "penalt",
        "outlay",
        "objective",
        "total",
        "time",
        "latency",
        "miss",
        "overrun",
        "failures",
        "recomputed",
        "clones",
        "makespan",
    ];
    const HIGHER_IS_BETTER: &[&str] = &["hit", "evals_per_sec", "availability"];
    if LOWER_IS_BETTER.iter().any(|pat| lower.contains(pat)) {
        return Some(true);
    }
    if HIGHER_IS_BETTER.iter().any(|pat| lower.contains(pat)) {
        return Some(false);
    }
    None
}

fn flatten_into(value: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Int(i) => out.push((prefix.to_string(), *i as f64)),
        Value::Float(f) => out.push((prefix.to_string(), *f)),
        Value::Map(entries) => {
            for (k, v) in entries {
                // Histogram bucket arrays are layout detail, not series.
                if k == "buckets" {
                    continue;
                }
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten_into(v, &path, out);
            }
        }
        Value::Seq(items) => {
            for (i, v) in items.iter().enumerate() {
                let path = if prefix.is_empty() { i.to_string() } else { format!("{prefix}.{i}") };
                flatten_into(v, &path, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Flattens every numeric leaf of a JSON value into `(dotted.path, value)`
/// pairs, in document order. Histogram `buckets` arrays are skipped.
#[must_use]
pub fn flatten_numeric(value: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into(value, "", &mut out);
    out
}

/// Compares the numeric leaves of two exported runs (metrics snapshots,
/// explain reports — any JSON), returning one [`DiffEntry`] per path in
/// the union, sorted by path. A run diffed against itself yields only
/// [`DiffClass::Unchanged`] entries.
#[must_use]
pub fn diff_numeric(a: &Value, b: &Value) -> Vec<DiffEntry> {
    let left: std::collections::BTreeMap<String, f64> = flatten_numeric(a).into_iter().collect();
    let right: std::collections::BTreeMap<String, f64> = flatten_numeric(b).into_iter().collect();
    let mut names: Vec<&String> = left.keys().chain(right.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| DiffEntry {
            name: name.clone(),
            a: left.get(name).copied(),
            b: right.get(name).copied(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;
    use crate::recorder::{instant_with, span, Recorder};

    fn sample_events() -> Vec<Event> {
        let r = Recorder::new();
        {
            let _g = r.install();
            instant_with(
                "greedy.place",
                "solver",
                vec![("app", ArgValue::Int(3)), ("note", ArgValue::Str("a \"b\"\n".into()))],
            );
            {
                let mut s = span("refit.round", "solver");
                s.arg("round", 1u64);
            }
        }
        r.drain_events()
    }

    #[test]
    fn jsonl_roundtrips_through_the_parser() {
        let events = sample_events();
        let text = trace_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.skipped, 0);
        let records = parsed.records;
        assert_eq!(records.len(), 2);
        let converted: Vec<TraceRecord> = events.iter().map(TraceRecord::from).collect();
        assert_eq!(records, converted, "an event converts to the record its line parses to");
        let place = records.iter().find(|r| r.name == "greedy.place").expect("place");
        assert_eq!(place.kind, "instant");
        assert_eq!(place.num_arg("app"), Some(3.0));
        assert_eq!(place.args.get("note"), Some(&Value::Str("a \"b\"\n".into())));
        let refit = records.iter().find(|r| r.name == "refit.round").expect("refit");
        assert_eq!(refit.kind, "span");
        assert!(refit.dur_us >= 0.0);
    }

    fn map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn self_diff_is_entirely_unchanged() {
        let run = map(vec![
            ("counters", map(vec![("solver.nodes_evaluated", Value::Int(42))])),
            ("gauges", map(vec![("cost.total", Value::Float(123.5))])),
        ]);
        let entries = diff_numeric(&run, &run);
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.classify() == DiffClass::Unchanged));
        assert!(entries.iter().all(|e| e.delta() == Some(0.0)));
    }

    #[test]
    fn diff_classifies_regressions_by_series_direction() {
        let a = map(vec![
            ("cost.total", Value::Float(100.0)),
            ("cache.hit", Value::Int(50)),
            ("nodes", Value::Int(10)),
            ("gone", Value::Int(1)),
        ]);
        let b = map(vec![
            ("cost.total", Value::Float(110.0)),
            ("cache.hit", Value::Int(40)),
            ("nodes", Value::Int(11)),
            ("new", Value::Int(1)),
        ]);
        let entries = diff_numeric(&a, &b);
        let by_name = |n: &str| entries.iter().find(|e| e.name == n).expect("entry");
        assert_eq!(by_name("cost.total").classify(), DiffClass::Regressed);
        assert!((by_name("cost.total").pct_delta().unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(by_name("cache.hit").classify(), DiffClass::Regressed, "hits fell");
        assert_eq!(by_name("nodes").classify(), DiffClass::Changed, "neutral series");
        assert_eq!(by_name("gone").classify(), DiffClass::Removed);
        assert_eq!(by_name("new").classify(), DiffClass::Added);
    }

    #[test]
    fn flatten_skips_histogram_buckets_and_recurses_seqs() {
        let v = map(vec![(
            "histograms",
            map(vec![(
                "solver.eval_latency",
                map(vec![
                    ("count", Value::Int(3)),
                    ("buckets", Value::Seq(vec![Value::Int(1), Value::Int(2)])),
                    ("quantiles", Value::Seq(vec![Value::Float(0.5)])),
                ]),
            )]),
        )]);
        let flat = flatten_numeric(&v);
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"histograms.solver.eval_latency.count"));
        assert!(names.contains(&"histograms.solver.eval_latency.quantiles.0"));
        assert!(!names.iter().any(|n| n.contains("buckets")));
    }

    #[test]
    fn every_jsonl_line_is_standalone_json() {
        let text = trace_jsonl(&sample_events());
        for line in text.lines() {
            assert!(serde_json::parse(line).is_ok(), "unparseable line: {line}");
        }
    }

    #[test]
    fn parse_skips_malformed_lines_with_a_count() {
        let parsed = parse_jsonl("not json\n");
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.skipped, 1);
        assert!(parsed.first_error.as_deref().is_some_and(|e| e.contains("line 1")));

        let parsed = parse_jsonl("{\"kind\":\"span\"}\n");
        assert_eq!(parsed.skipped, 1, "missing fields");
        let bad_kind = "{\"ts_us\":0.0,\"dur_us\":0.0,\"kind\":\"wat\",\"name\":\"n\",\"cat\":\"c\",\"tid\":0}";
        assert_eq!(parse_jsonl(bad_kind).skipped, 1);

        let blank = parse_jsonl("\n\n");
        assert!(blank.records.is_empty() && blank.skipped == 0, "blank lines ok");
    }

    #[test]
    fn parse_keeps_good_lines_around_a_torn_tail() {
        let mut text = trace_jsonl(&sample_events());
        text.push_str("{\"ts_us\":9.0,\"dur_us\":0.0,\"kind\":\"insta"); // killed mid-write
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.records.len(), 2, "good lines survive");
        assert_eq!(parsed.skipped, 1);
        assert!(parsed.first_error.as_deref().is_some_and(|e| e.contains("line 3")));
    }

    #[test]
    fn compact_json_escapes_and_parses() {
        let v = Value::Map(vec![
            ("s".into(), Value::Str("quote \" slash \\ nl \n".into())),
            ("n".into(), Value::Float(1.5)),
            ("i".into(), Value::Int(-3)),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            ("seq".into(), Value::Seq(vec![Value::Int(1), Value::Int(2)])),
        ]);
        let text = to_compact_json(&v);
        assert!(!text.contains('\n'));
        assert_eq!(serde_json::parse(&text).expect("parses"), v);
    }
}
