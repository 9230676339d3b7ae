//! Deterministic span-tree self-profiler.
//!
//! The recorder emits a flat span stream (each span knows its name,
//! thread, start offset, and duration — but not its parent). This
//! module folds that stream into a [`ProfileTree`]: per call-path
//! self/total wall time and call counts, plus attached solver counters
//! (evals, cache hits, scenarios recomputed). Nesting is reconstructed
//! offline by interval containment — on one thread a span is a child of
//! the innermost span that encloses it — so recording stays a
//! zero-allocation guard drop on the hot path.
//!
//! Design rules, matching the rest of the crate:
//!
//! * **Deterministic**: folding is a pure function of the span stream;
//!   no randomness is consumed, and instrumented solver results are
//!   bit-identical to uninstrumented ones.
//! * **Always mergeable**: nodes are keyed by their span-name path, so
//!   trees folded from parallel workers (or separate runs) merge
//!   losslessly by summing — like the metric histograms, the merged
//!   tree is independent of merge order.
//! * **Verifiable**: within one clock quantum per recorded span, the
//!   children of every node must fit inside it ([`ProfileTree::verify`]).
//!
//! ```
//! use dsd_obs::{profile::ProfileTree, span, Recorder};
//! let r = Recorder::new();
//! {
//!     let _g = r.install();
//!     let _solve = span("solver.solve", "solver");
//!     let _greedy = span("solver.greedy", "solver");
//! }
//! let tree = ProfileTree::from_events(&r.drain_events());
//! assert!(tree.verify().is_ok());
//! assert_eq!(tree.rows().len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::export::TraceRecord;
use serde::Value;

/// Version of the profile JSON layout ([`ProfileTree::to_value`]).
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Separator between span names in a node path (the collapsed-stack
/// flamegraph convention).
pub const PATH_SEPARATOR: char = ';';

/// One call-path node: aggregated time and count for every span
/// instance that folded onto this path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Total wall time spent in spans on this path (including children).
    pub total_ns: u64,
    /// Span instances folded onto this path.
    pub count: u64,
    /// Child nodes by span name, in name order.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Total time of the direct children.
    #[must_use]
    pub fn child_total_ns(&self) -> u64 {
        self.children.values().map(|c| c.total_ns).sum()
    }

    /// Time spent in this node itself, excluding children (clamped at
    /// zero: quantization can make children overshoot by a quantum).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_total_ns())
    }

    fn merge_from(&mut self, other: &ProfileNode) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().merge_from(child);
        }
    }
}

/// One flattened row of the tree, for tables and exports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Full `;`-separated span-name path from the root.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Total wall time including children.
    pub total_ns: u64,
    /// Self wall time excluding children.
    pub self_ns: u64,
    /// Span instances on this path.
    pub count: u64,
}

/// A merged span-path profile. Build one with
/// [`ProfileTree::from_events`] (in-process) or
/// [`ProfileTree::from_records`] (from a parsed JSONL trace), then
/// combine worker or run trees with [`ProfileTree::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTree {
    /// Top-level nodes (spans with no enclosing span on their thread).
    pub roots: BTreeMap<String, ProfileNode>,
    /// Clock quantum of the folded source, in nanoseconds: 1 for
    /// in-process events, 1000 for microsecond JSONL traces.
    pub quantum_ns: u64,
    /// Distinct recording threads folded in (summed across merges).
    pub threads: u64,
    /// Attached counters (evals, cache hits, …), summed across merges.
    pub counters: BTreeMap<String, u64>,
}

/// A span interval queued for folding. `idx` points back at the source
/// record so per-instance annotations (the enriched Chrome trace) can
/// be emitted alongside the aggregate tree.
struct SpanIval {
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    name: String,
    idx: usize,
}

/// Per-record fold annotation: the call path the span landed on and its
/// per-instance self time.
struct SpanAnnotation {
    idx: usize,
    path: String,
    self_ns: u64,
}

/// Folds intervals (any order) into path-keyed roots, returning the
/// per-instance annotations as a by-product. Nesting is reconstructed
/// per thread: sort by (start ascending, end descending) so enclosing
/// spans come first, then maintain a stack of open spans.
fn fold(
    mut spans: Vec<SpanIval>,
    roots: &mut BTreeMap<String, ProfileNode>,
) -> Vec<SpanAnnotation> {
    spans.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.start_ns.cmp(&b.start_ns))
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.idx.cmp(&b.idx))
    });

    struct Open {
        end_ns: u64,
        dur_ns: u64,
        child_ns: u64,
        path: String,
        idx: usize,
    }
    let mut annotations = Vec::with_capacity(spans.len());
    let mut stack: Vec<Open> = Vec::new();
    let close = |stack: &mut Vec<Open>, annotations: &mut Vec<SpanAnnotation>| {
        if let Some(open) = stack.pop() {
            annotations.push(SpanAnnotation {
                idx: open.idx,
                path: open.path,
                self_ns: open.dur_ns.saturating_sub(open.child_ns),
            });
        }
    };

    let mut tid = None;
    for span in spans {
        if tid != Some(span.tid) {
            // New thread: every span still open belongs to the previous
            // thread and is finished.
            while !stack.is_empty() {
                close(&mut stack, &mut annotations);
            }
            tid = Some(span.tid);
        }
        while stack.last().is_some_and(|top| top.end_ns <= span.start_ns) {
            close(&mut stack, &mut annotations);
        }
        let (path, end_ns, dur_ns) = match stack.last_mut() {
            Some(parent) => {
                // A child's recorded end can overshoot its parent's — by
                // one quantum of rounding in healthy traces, arbitrarily
                // in truncated or hand-edited ones. Attribute only the
                // overlap with the parent's window, so children stay
                // disjoint and containment holds for any input.
                let end_ns = span.end_ns.min(parent.end_ns);
                let dur_ns = end_ns.saturating_sub(span.start_ns);
                parent.child_ns += dur_ns;
                (format!("{}{PATH_SEPARATOR}{}", parent.path, span.name), end_ns, dur_ns)
            }
            None => (span.name.clone(), span.end_ns, span.end_ns.saturating_sub(span.start_ns)),
        };
        let mut segments = path.split(PATH_SEPARATOR);
        let first = segments.next().expect("path has at least one segment");
        let mut node = roots.entry(first.to_string()).or_default();
        for seg in segments {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.total_ns += dur_ns;
        node.count += 1;
        stack.push(Open { end_ns, dur_ns, child_ns: 0, path, idx: span.idx });
    }
    while !stack.is_empty() {
        close(&mut stack, &mut annotations);
    }
    annotations
}

fn record_spans(records: &[TraceRecord]) -> Vec<SpanIval> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == "span")
        .map(|(idx, r)| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let start_ns = (r.ts_us.max(0.0) * 1000.0).round() as u64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let dur_ns = (r.dur_us.max(0.0) * 1000.0).round() as u64;
            SpanIval {
                tid: r.tid,
                start_ns,
                end_ns: start_ns.saturating_add(dur_ns),
                name: r.name.clone(),
                idx,
            }
        })
        .collect()
}

impl ProfileTree {
    /// Folds a drained in-process event stream (nanosecond precision).
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let spans: Vec<SpanIval> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EventKind::Span)
            .map(|(idx, e)| SpanIval {
                tid: e.thread,
                start_ns: e.start_ns,
                end_ns: e.start_ns.saturating_add(e.dur_ns),
                name: e.name.to_string(),
                idx,
            })
            .collect();
        let threads = distinct_tids(spans.iter().map(|s| s.tid));
        let mut roots = BTreeMap::new();
        fold(spans, &mut roots);
        ProfileTree { roots, quantum_ns: 1, threads, counters: BTreeMap::new() }
    }

    /// Folds records parsed from a JSONL trace (microsecond precision).
    #[must_use]
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let spans = record_spans(records);
        let threads = distinct_tids(spans.iter().map(|s| s.tid));
        let mut roots = BTreeMap::new();
        fold(spans, &mut roots);
        ProfileTree { roots, quantum_ns: 1000, threads, counters: BTreeMap::new() }
    }

    /// Attaches named counters (typically a metrics snapshot's counter
    /// map) to the tree. Re-attaching or merging sums values, so
    /// per-worker counter sets stay lossless.
    pub fn attach_counters<'a, I>(&mut self, counters: I)
    where
        I: IntoIterator<Item = (&'a String, &'a u64)>,
    {
        for (name, value) in counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    /// Merges another tree into this one by summing path-keyed nodes,
    /// thread counts, and counters. Merging is commutative and
    /// associative, so worker trees can be combined in any order.
    pub fn merge(&mut self, other: &ProfileTree) {
        self.quantum_ns = self.quantum_ns.max(other.quantum_ns);
        self.threads += other.threads;
        for (name, node) in &other.roots {
            self.roots.entry(name.clone()).or_default().merge_from(node);
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    /// Total wall time across all roots.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.values().map(|n| n.total_ns).sum()
    }

    /// Fraction of root wall time attributed to non-root nodes:
    /// `1 - Σ root self / Σ root total`. Zero for an empty tree.
    #[must_use]
    pub fn attributed_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        let self_ns: u64 = self.roots.values().map(ProfileNode::self_ns).sum();
        #[allow(clippy::cast_precision_loss)]
        {
            1.0 - self_ns as f64 / total as f64
        }
    }

    /// Checks the containment invariant on every node: the children's
    /// total time must fit inside the parent's, within one clock
    /// quantum of slack per folded span instance (quantization error
    /// accumulates once per recorded span).
    ///
    /// # Errors
    ///
    /// The path and amounts of the first violating node.
    pub fn verify(&self) -> Result<(), String> {
        fn walk(path: &str, node: &ProfileNode, quantum_ns: u64) -> Result<(), String> {
            let child_total = node.child_total_ns();
            let instances: u64 = node.children.values().map(|c| c.count).sum::<u64>() + node.count;
            let slack = quantum_ns.saturating_mul(instances);
            if child_total > node.total_ns.saturating_add(slack) {
                return Err(format!(
                    "node `{path}`: children total {child_total}ns exceeds \
                     own total {}ns + slack {slack}ns",
                    node.total_ns
                ));
            }
            for (name, child) in &node.children {
                walk(&format!("{path}{PATH_SEPARATOR}{name}"), child, quantum_ns)?;
            }
            Ok(())
        }
        for (name, node) in &self.roots {
            walk(name, node, self.quantum_ns)?;
        }
        Ok(())
    }

    /// Flattens the tree into preorder rows (depth-first, children in
    /// name order) for tables and exports.
    #[must_use]
    pub fn rows(&self) -> Vec<ProfileRow> {
        fn walk(
            path: &str,
            name: &str,
            depth: usize,
            node: &ProfileNode,
            out: &mut Vec<ProfileRow>,
        ) {
            out.push(ProfileRow {
                path: path.to_string(),
                name: name.to_string(),
                depth,
                total_ns: node.total_ns,
                self_ns: node.self_ns(),
                count: node.count,
            });
            for (child_name, child) in &node.children {
                walk(
                    &format!("{path}{PATH_SEPARATOR}{child_name}"),
                    child_name,
                    depth + 1,
                    child,
                    out,
                );
            }
        }
        let mut out = Vec::new();
        for (name, node) in &self.roots {
            walk(name, name, 0, node, &mut out);
        }
        out
    }

    /// Renders the tree in the collapsed-stack format consumed by
    /// standard flamegraph tooling: one `path self_time` line per node
    /// with nonzero self time, self time in integer microseconds,
    /// preorder (deterministic for a given tree).
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            let self_us = row.self_ns / 1000;
            if self_us > 0 {
                let _ = writeln!(out, "{} {}", row.path, self_us);
            }
        }
        out
    }

    /// Serializes the profile as a schema-versioned JSON value for
    /// `dsd obs profile --json` exports. Times are microseconds;
    /// every numeric leaf is diffable by `flatten_numeric`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        fn node_value(node: &ProfileNode) -> Value {
            Value::Map(vec![
                ("total_us".to_string(), Value::Float(ns_to_us(node.total_ns))),
                ("self_us".to_string(), Value::Float(ns_to_us(node.self_ns()))),
                ("count".to_string(), Value::Int(int(node.count))),
                (
                    "children".to_string(),
                    Value::Map(
                        node.children
                            .iter()
                            .map(|(name, child)| (name.clone(), node_value(child)))
                            .collect(),
                    ),
                ),
            ])
        }
        Value::Map(vec![
            ("schema_version".to_string(), Value::Int(int(PROFILE_SCHEMA_VERSION))),
            ("quantum_ns".to_string(), Value::Int(int(self.quantum_ns))),
            ("threads".to_string(), Value::Int(int(self.threads))),
            ("attributed_fraction".to_string(), Value::Float(self.attributed_fraction())),
            (
                "counters".to_string(),
                Value::Map(
                    self.counters.iter().map(|(k, v)| (k.clone(), Value::Int(int(*v)))).collect(),
                ),
            ),
            (
                "tree".to_string(),
                Value::Map(self.roots.iter().map(|(k, v)| (k.clone(), node_value(v))).collect()),
            ),
        ])
    }
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

#[allow(clippy::cast_possible_wrap)]
fn int(v: u64) -> i64 {
    v as i64
}

fn distinct_tids<I: Iterator<Item = u64>>(tids: I) -> u64 {
    let mut seen: Vec<u64> = tids.collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

/// Chrome `trace_event` JSON enriched with the fold: every span event
/// gains `path` (its reconstructed call path) and `self_us` arguments,
/// so flamegraph-style grouping works directly in the trace viewer.
/// Instants pass through unchanged.
#[must_use]
pub fn chrome_trace_enriched(records: &[TraceRecord]) -> String {
    let mut roots = BTreeMap::new();
    let annotations = fold(record_spans(records), &mut roots);
    let mut extras: BTreeMap<usize, (String, u64)> =
        annotations.into_iter().map(|a| (a.idx, (a.path, a.self_ns))).collect();

    let mut entries = Vec::with_capacity(records.len());
    for (idx, r) in records.iter().enumerate() {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".to_string(), Value::Str(r.name.clone())),
            ("cat".to_string(), Value::Str(r.cat.clone())),
            ("ph".to_string(), Value::Str(if r.kind == "span" { "X" } else { "i" }.to_string())),
            ("ts".to_string(), Value::Float(r.ts_us)),
        ];
        if r.kind == "span" {
            fields.push(("dur".to_string(), Value::Float(r.dur_us)));
        }
        fields.push(("pid".to_string(), Value::Int(1)));
        fields.push(("tid".to_string(), Value::Int(int(r.tid))));
        let mut args: Vec<(String, Value)> = match &r.args {
            Value::Map(entries) => entries.clone(),
            _ => Vec::new(),
        };
        if let Some((path, self_ns)) = extras.remove(&idx) {
            args.push(("path".to_string(), Value::Str(path)));
            args.push(("self_us".to_string(), Value::Float(ns_to_us(self_ns))));
        }
        fields.push(("args".to_string(), Value::Map(args)));
        entries.push(Value::Map(fields));
    }
    let doc = Value::Map(vec![("traceEvents".to_string(), Value::Seq(entries))]);
    crate::export::to_compact_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_jsonl;

    /// A synthetic span line in the recorder's JSONL schema.
    fn span_line(name: &str, ts_us: f64, dur_us: f64, tid: u64) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"dur_us\":{dur_us},\"kind\":\"span\",\
             \"name\":\"{name}\",\"cat\":\"t\",\"tid\":{tid},\"args\":{{}}}}"
        )
    }

    fn sample_tree() -> ProfileTree {
        // solve [0,1000) > greedy [0,300) + refit [300,900); refit >
        // round [310,400) + round [420,520).
        let text = [
            span_line("solve", 0.0, 1000.0, 0),
            span_line("greedy", 0.0, 300.0, 0),
            span_line("refit", 300.0, 600.0, 0),
            span_line("round", 310.0, 90.0, 0),
            span_line("round", 420.0, 100.0, 0),
        ]
        .join("\n");
        ProfileTree::from_records(&parse_jsonl(&text).records)
    }

    #[test]
    fn fold_reconstructs_nesting_by_containment() {
        let tree = sample_tree();
        assert_eq!(tree.roots.len(), 1);
        let solve = &tree.roots["solve"];
        assert_eq!(solve.total_ns, 1_000_000);
        assert_eq!(solve.children.len(), 2);
        let refit = &solve.children["refit"];
        assert_eq!(refit.total_ns, 600_000);
        let round = &refit.children["round"];
        assert_eq!(round.count, 2);
        assert_eq!(round.total_ns, 190_000);
        assert_eq!(refit.self_ns(), 410_000);
        assert_eq!(solve.self_ns(), 100_000);
        assert!(tree.verify().is_ok());
    }

    #[test]
    fn same_name_spans_on_different_threads_stay_separate_roots_until_merged() {
        let text = [span_line("work", 0.0, 100.0, 0), span_line("work", 0.0, 200.0, 1)].join("\n");
        let tree = ProfileTree::from_records(&parse_jsonl(&text).records);
        assert_eq!(tree.threads, 2);
        assert_eq!(tree.roots["work"].count, 2);
        assert_eq!(tree.roots["work"].total_ns, 300_000);
    }

    #[test]
    fn merge_sums_paths_threads_and_counters() {
        let mut a = sample_tree();
        let counters = [("evals".to_string(), 7u64)];
        a.attach_counters(counters.iter().map(|(k, v)| (k, v)));
        let mut b = sample_tree();
        b.attach_counters(counters.iter().map(|(k, v)| (k, v)));
        a.merge(&b);
        assert_eq!(a.roots["solve"].total_ns, 2_000_000);
        assert_eq!(a.roots["solve"].children["refit"].children["round"].count, 4);
        assert_eq!(a.counters["evals"], 14);
        assert_eq!(a.threads, 2);
        assert!(a.verify().is_ok());
    }

    #[test]
    fn verify_rejects_an_overfull_parent() {
        let mut tree = sample_tree();
        let solve = tree.roots.get_mut("solve").unwrap();
        solve.total_ns = 100; // far less than the children's 900_000
        let err = tree.verify().unwrap_err();
        assert!(err.contains("solve"), "unexpected error: {err}");
    }

    #[test]
    fn collapsed_output_is_flamegraph_shaped() {
        let tree = sample_tree();
        let collapsed = tree.collapsed();
        let expected = "solve 100\nsolve;greedy 300\nsolve;refit 410\nsolve;refit;round 190\n";
        assert_eq!(collapsed, expected);
    }

    #[test]
    fn attributed_fraction_counts_non_root_time() {
        let tree = sample_tree();
        let frac = tree.attributed_fraction();
        assert!((frac - 0.9).abs() < 1e-9, "fraction {frac}");
    }

    #[test]
    fn json_export_is_schema_versioned_and_diffable() {
        let tree = sample_tree();
        let value = tree.to_value();
        assert_eq!(value.get("schema_version"), Some(&Value::Int(1)));
        let flat = crate::export::flatten_numeric(&value);
        assert!(flat.iter().any(|(path, v)| path == "tree.solve.total_us" && *v == 1000.0));
        assert!(flat
            .iter()
            .any(|(path, v)| path == "tree.solve.children.refit.self_us" && *v == 410.0));
    }

    #[test]
    fn enriched_chrome_trace_carries_paths() {
        let text =
            [span_line("solve", 0.0, 1000.0, 0), span_line("greedy", 0.0, 300.0, 0)].join("\n");
        let records = parse_jsonl(&text).records;
        let chrome = chrome_trace_enriched(&records);
        assert!(chrome.contains("\"path\":\"solve;greedy\""), "missing path: {chrome}");
        assert!(chrome.contains("\"self_us\":700"), "missing self: {chrome}");
    }

    /// Diffing two profile exports where a node flow appears or
    /// disappears classifies its one-sided leaves as added/removed —
    /// the `dsd obs diff` contract for profile sections.
    #[test]
    fn diff_classifies_appearing_and_vanishing_node_flows() {
        use crate::export::{diff_numeric, DiffClass};
        let a = sample_tree().to_value();
        let with_polish = [
            span_line("solve", 0.0, 1000.0, 0),
            span_line("greedy", 0.0, 300.0, 0),
            span_line("polish", 300.0, 600.0, 0),
        ]
        .join("\n");
        let b = ProfileTree::from_records(&parse_jsonl(&with_polish).records).to_value();
        let entries = diff_numeric(&a, &b);
        let class_of = |path: &str| {
            entries.iter().find(|e| e.name == path).map(super::super::export::DiffEntry::classify)
        };
        assert_eq!(
            class_of("tree.solve.children.polish.total_us"),
            Some(DiffClass::Added),
            "new node flow classifies as added"
        );
        assert_eq!(
            class_of("tree.solve.children.refit.total_us"),
            Some(DiffClass::Removed),
            "vanished node flow classifies as removed"
        );
        assert_eq!(
            class_of("tree.solve.children.greedy.total_us"),
            Some(DiffClass::Unchanged),
            "stable flows stay unchanged"
        );
    }

    #[test]
    fn empty_tree_is_valid_and_zero() {
        let tree = ProfileTree::from_records(&[]);
        assert!(tree.verify().is_ok());
        assert_eq!(tree.total_ns(), 0);
        assert_eq!(tree.attributed_fraction(), 0.0);
        assert!(tree.collapsed().is_empty());
    }
}
