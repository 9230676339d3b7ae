//! Progress events: how a running search is doing, as recorder events.
//!
//! Spans and metrics answer *where did the time go* after a run
//! finishes; progress events answer *how is the search doing right now*.
//! Solvers call the emitters below — incumbent improvements (with the
//! gap to the certificate bound), phase transitions, per-worker
//! heartbeats, restarts, steals, adoptions, completion — and each becomes
//! an instant of category [`CATEGORY`] named `progress.<kind>`, recorded
//! by the installed [`crate::Recorder`] like any other event:
//!
//! ```text
//! {"ts_us":812.4,"dur_us":0.0,"kind":"instant","name":"progress.incumbent","cat":"progress","tid":0,"args":{"cost":120.5,"evals":37,"gap_pct":4.2}}
//! ```
//!
//! An absent `cost` or `gap_pct` is left out of the arguments. The
//! recorder's thread index is the event's worker lane, so each portfolio
//! worker is one lane. [`ProgressEvent::decode`] is the one reader: a
//! live reader polls [`crate::Recorder::progress_since`], and a progress
//! log or a full trace is read back with [`crate::export::parse_jsonl`].
//!
//! The discipline matches the tracing core:
//!
//! * an emitter builds its event only when the installed recorder
//!   records progress, so without one emission is one thread-local read
//!   with no allocation;
//! * emission never consumes randomness and never mutates solver state,
//!   so instrumented and uninstrumented searches are bit-identical.
//!
//! ```
//! use dsd_obs::{progress, Recorder};
//! let recorder = Recorder::progress_only();
//! {
//!     let _guard = recorder.install();
//!     progress::phase_entered("greedy");
//!     progress::incumbent_improved(120.5, Some(4.2), 37);
//!     progress::done(Some(120.5), Some(4.2), 37);
//! }
//! let events = recorder.progress_since(&mut 0);
//! assert_eq!(events.len(), 3);
//! ```

use serde::Value;

use crate::event::ArgValue;
use crate::export::TraceRecord;
use crate::recorder::{progress_enabled, progress_instant};

/// The event category every progress event is recorded under.
pub const CATEGORY: &str = "progress";

/// What a [`ProgressEvent`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressKind {
    /// The worker entered a named solver phase (greedy, refit, …).
    PhaseEntered {
        /// Phase name.
        phase: String,
    },
    /// A new best design was found.
    IncumbentImproved {
        /// Objective value of the new incumbent (dollars).
        cost: f64,
        /// Gap to the certificate lower bound, percent; `None` when no
        /// bound was computed for this run.
        gap_pct: Option<f64>,
        /// Candidate evaluations performed so far on this worker.
        evals: u64,
    },
    /// Periodic liveness/throughput report from one worker.
    WorkerHeartbeat {
        /// Candidate evaluations performed so far on this worker.
        evals: u64,
        /// Evaluation throughput since the worker started.
        evals_per_sec: f64,
    },
    /// The search restarted from a fresh design.
    Restart {
        /// Restarts performed so far on this worker (1-based).
        restarts: u64,
    },
    /// A portfolio worker stole a queued task from another worker.
    TaskStolen {
        /// Lane index of the worker the task was taken from.
        victim: u64,
        /// Steals performed so far on this worker (1-based).
        steals: u64,
    },
    /// A portfolio worker adopted the shared incumbent as its working
    /// design (cooperation, as opposed to finding its own improvement).
    IncumbentAdopted {
        /// Objective value of the adopted incumbent (dollars).
        cost: f64,
        /// Adoptions performed so far on this worker (1-based).
        adoptions: u64,
    },
    /// The worker finished its search.
    Done {
        /// Final objective value, when a feasible design was found.
        cost: Option<f64>,
        /// Final gap to the certificate bound, percent.
        gap_pct: Option<f64>,
        /// Total candidate evaluations on this worker.
        evals: u64,
    },
}

/// One progress event: the typed view of a `progress.*` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// Worker lane: the recording thread's index in its recorder.
    pub worker: u64,
    /// Nanoseconds since the recorder was created (monotonic).
    pub elapsed_ns: u64,
    /// What happened.
    pub kind: ProgressKind,
}

impl ProgressEvent {
    /// Elapsed time as fractional seconds.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Decodes a `progress.*` record — parsed from JSONL, or converted
    /// from an in-process event with `TraceRecord::from`. `None` for any
    /// other record, and for a progress record missing a required
    /// argument.
    #[must_use]
    pub fn decode(record: &TraceRecord) -> Option<ProgressEvent> {
        if record.cat != CATEGORY {
            return None;
        }
        let num = |key: &str| record.num_arg(key);
        let count = |key: &str| match record.args.get(key)? {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        };
        let kind = match record.name.as_str() {
            "progress.phase" => match record.args.get("phase")? {
                Value::Str(phase) => ProgressKind::PhaseEntered { phase: phase.clone() },
                _ => return None,
            },
            "progress.incumbent" => ProgressKind::IncumbentImproved {
                cost: num("cost")?,
                gap_pct: num("gap_pct"),
                evals: count("evals")?,
            },
            "progress.heartbeat" => ProgressKind::WorkerHeartbeat {
                evals: count("evals")?,
                evals_per_sec: num("evals_per_sec")?,
            },
            "progress.restart" => ProgressKind::Restart { restarts: count("restarts")? },
            "progress.steal" => {
                ProgressKind::TaskStolen { victim: count("victim")?, steals: count("steals")? }
            }
            "progress.adopt" => ProgressKind::IncumbentAdopted {
                cost: num("cost")?,
                adoptions: count("adoptions")?,
            },
            "progress.done" => ProgressKind::Done {
                cost: num("cost"),
                gap_pct: num("gap_pct"),
                evals: count("evals")?,
            },
            _ => return None,
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let elapsed_ns = (record.ts_us * 1000.0).round() as u64;
        Some(ProgressEvent { worker: record.tid, elapsed_ns, kind })
    }
}

/// Whether the recorder installed on this thread records progress.
#[must_use]
pub fn enabled() -> bool {
    progress_enabled()
}

/// The arguments of an incumbent or `done` event; an absent cost or gap
/// is left out.
fn costed(cost: Option<f64>, evals: u64, gap_pct: Option<f64>) -> Vec<(&'static str, ArgValue)> {
    let mut args = Vec::with_capacity(3);
    args.extend(cost.map(|c| ("cost", ArgValue::Float(c))));
    args.push(("evals", evals.into()));
    args.extend(gap_pct.map(|g| ("gap_pct", ArgValue::Float(g))));
    args
}

/// Reports entry into a named solver phase.
pub fn phase_entered(phase: &str) {
    if enabled() {
        progress_instant("progress.phase", vec![("phase", phase.into())]);
    }
}

/// Reports a new incumbent design.
pub fn incumbent_improved(cost: f64, gap_pct: Option<f64>, evals: u64) {
    if enabled() {
        progress_instant("progress.incumbent", costed(Some(cost), evals, gap_pct));
    }
}

/// Reports worker liveness and throughput.
pub fn worker_heartbeat(evals: u64, evals_per_sec: f64) {
    if enabled() {
        progress_instant(
            "progress.heartbeat",
            vec![("evals", evals.into()), ("evals_per_sec", evals_per_sec.into())],
        );
    }
}

/// Reports a restart from a fresh design.
pub fn restart(restarts: u64) {
    if enabled() {
        progress_instant("progress.restart", vec![("restarts", restarts.into())]);
    }
}

/// Reports a work-stealing event: this worker took a task queued on
/// `victim`'s deque.
pub fn task_stolen(victim: u64, steals: u64) {
    if enabled() {
        progress_instant(
            "progress.steal",
            vec![("victim", victim.into()), ("steals", steals.into())],
        );
    }
}

/// Reports adoption of the shared incumbent as this worker's design.
pub fn incumbent_adopted(cost: f64, adoptions: u64) {
    if enabled() {
        progress_instant(
            "progress.adopt",
            vec![("cost", cost.into()), ("adoptions", adoptions.into())],
        );
    }
}

/// Reports search completion.
pub fn done(cost: Option<f64>, gap_pct: Option<f64>, evals: u64) {
    if enabled() {
        progress_instant("progress.done", costed(cost, evals, gap_pct));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{parse_jsonl, trace_jsonl};
    use crate::Recorder;

    /// Every progress event `recorder` holds, drained and decoded.
    fn drained(recorder: &Recorder) -> Vec<ProgressEvent> {
        recorder
            .drain_events()
            .iter()
            .filter_map(|e| ProgressEvent::decode(&TraceRecord::from(e)))
            .collect()
    }

    #[test]
    fn nothing_emitted_without_install() {
        incumbent_improved(1.0, None, 1);
        worker_heartbeat(1, 1.0);
        assert!(!enabled());
        assert!(crate::current().is_none());
        let r = Recorder::new();
        assert!(r.progress_since(&mut 0).is_empty());
    }

    #[test]
    fn install_emits_typed_events_in_order() {
        let r = Recorder::new();
        {
            let _g = r.install();
            assert!(enabled());
            phase_entered("greedy");
            incumbent_improved(90.0, Some(12.5), 7);
            restart(1);
            worker_heartbeat(10, 1000.0);
            done(Some(90.0), Some(12.5), 10);
        }
        let recorded = r.drain_events();
        let names: Vec<&str> = recorded.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "progress.phase",
                "progress.incumbent",
                "progress.restart",
                "progress.heartbeat",
                "progress.done"
            ]
        );
        let events: Vec<ProgressEvent> =
            recorded.iter().filter_map(|e| ProgressEvent::decode(&TraceRecord::from(e))).collect();
        assert_eq!(events.len(), 5, "every event decodes");
        assert!(events.windows(2).all(|w| w[0].elapsed_ns <= w[1].elapsed_ns));
        assert!(events.iter().all(|e| e.worker == 0));
        assert_eq!(
            events[1].kind,
            ProgressKind::IncumbentImproved { cost: 90.0, gap_pct: Some(12.5), evals: 7 }
        );
    }

    #[test]
    fn disabled_channel_emits_nothing() {
        let r = Recorder::disabled();
        {
            let _g = r.install();
            assert!(!enabled());
            assert!(crate::current().is_some(), "still propagatable");
            incumbent_improved(1.0, None, 1);
        }
        assert!(r.drain_events().is_empty());
    }

    #[test]
    fn nested_install_restores_previous() {
        let outer = Recorder::progress_only();
        let inner = Recorder::progress_only();
        let _og = outer.install();
        restart(1);
        {
            let _ig = inner.install();
            restart(2);
        }
        restart(3);
        assert_eq!(outer.progress_since(&mut 0).len(), 2);
        assert_eq!(inner.progress_since(&mut 0).len(), 1);
    }

    #[test]
    fn workers_get_distinct_lanes() {
        let r = Recorder::progress_only();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    let _g = r.install();
                    worker_heartbeat(1, 1.0);
                });
            }
        });
        let workers: std::collections::BTreeSet<u64> =
            r.progress_since(&mut 0).iter().map(|e| e.worker).collect();
        assert_eq!(workers.len(), 4, "each install gets its own worker index");
    }

    #[test]
    fn poll_while_producing_sees_everything_once() {
        let r = Recorder::new();
        let _g = r.install();
        let mut cursor = 0;
        crate::instant("place", "solver");
        restart(1);
        let first = r.progress_since(&mut cursor);
        restart(2);
        let second = r.progress_since(&mut cursor);
        assert_eq!(first.len(), 1, "seen before the guard drops; the trace instant filtered out");
        assert_eq!(first[0].kind, ProgressKind::Restart { restarts: 1 });
        assert_eq!(second.len(), 1);
        assert!(r.progress_since(&mut cursor).is_empty());
        assert_eq!(r.progress_since(&mut 0).len(), 2, "reading drains nothing");
    }

    #[test]
    fn steal_and_adopt_events_carry_cooperation_counts() {
        let r = Recorder::progress_only();
        {
            let _g = r.install();
            task_stolen(3, 1);
            incumbent_adopted(250.5, 2);
        }
        let events = drained(&r);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, ProgressKind::TaskStolen { victim: 3, steals: 1 });
        assert_eq!(events[1].kind, ProgressKind::IncumbentAdopted { cost: 250.5, adoptions: 2 });
    }

    #[test]
    fn jsonl_roundtrips_bit_exactly() {
        let r = Recorder::progress_only();
        {
            let _g = r.install();
            phase_entered("refit");
            incumbent_improved(123.456_789_012_345, Some(3.75), 42);
            worker_heartbeat(100, 98_765.432_1);
            restart(2);
            task_stolen(1, 4);
            incumbent_adopted(99.000_000_000_25, 3);
            done(None, None, 100);
        }
        let events = r.drain_events();
        let text = trace_jsonl(&events);
        assert_eq!(text.lines().count(), 7);
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.skipped, 0);
        let decoded: Vec<ProgressEvent> =
            parsed.records.iter().filter_map(ProgressEvent::decode).collect();
        let in_process: Vec<ProgressEvent> =
            events.iter().filter_map(|e| ProgressEvent::decode(&TraceRecord::from(e))).collect();
        assert_eq!(decoded.len(), 7);
        assert_eq!(decoded, in_process, "floats round-trip bit-exactly");
    }

    #[test]
    fn parse_skips_torn_tail_lines() {
        let r = Recorder::progress_only();
        {
            let _g = r.install();
            incumbent_improved(50.0, Some(1.0), 9);
        }
        let mut text = trace_jsonl(&r.drain_events());
        text.push_str(
            "{\"ts_us\":1.0,\"dur_us\":0.0,\"kind\":\"instant\",\"name\":\"progress.incu",
        ); // torn mid-write
        let parsed = parse_jsonl(&text);
        let events: Vec<ProgressEvent> =
            parsed.records.iter().filter_map(ProgressEvent::decode).collect();
        assert_eq!(events.len(), 1);
        assert_eq!(parsed.skipped, 1);
        assert!(parsed.first_error.is_some());
    }

    #[test]
    fn a_record_missing_a_required_argument_decodes_to_nothing() {
        let record = |name: &str, args: Vec<(&str, Value)>| TraceRecord {
            name: name.to_string(),
            cat: CATEGORY.to_string(),
            kind: "instant".to_string(),
            ts_us: 1.0,
            dur_us: 0.0,
            tid: 0,
            args: Value::Map(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        };
        let decode = |name, args| ProgressEvent::decode(&record(name, args));
        let full = vec![("cost", Value::Float(5.0)), ("evals", Value::Int(3))];
        assert!(decode("progress.incumbent", full.clone()).is_some());
        assert!(decode("progress.incumbent", vec![("evals", Value::Int(3))]).is_none());
        assert!(decode("progress.incumbent", vec![("cost", Value::Float(5.0))]).is_none());
        assert!(decode("progress.heartbeat", vec![("evals", Value::Int(3))]).is_none());
        assert!(decode("progress.steal", vec![("victim", Value::Int(1))]).is_none());
        assert!(decode("progress.phase", vec![("phase", Value::Int(1))]).is_none());
        assert!(decode("progress.done", Vec::new()).is_none());
        assert!(decode("progress.wat", full.clone()).is_none(), "unknown name");
        let mut other = record("progress.incumbent", full);
        other.cat = "solver".to_string();
        assert!(ProgressEvent::decode(&other).is_none(), "other category");
    }
}
