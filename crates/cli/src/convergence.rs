//! Convergence-curve reports over progress events: the one fold behind
//! `dsd obs curve` and the live `--progress` line.
//!
//! A progress log (`dsd design --progress-log`) holds a run's
//! `progress.*` events as JSONL trace lines, and a full trace
//! (`--trace`) carries the same events among its spans. A [`RunCurve`]
//! folds the progress events of either into the global incumbent curve
//! (cost, certificate gap and evaluations versus elapsed time),
//! time-to-X%-gap milestones and per-worker lanes; `dsd obs curve`
//! renders one or more runs, with an A/B table against the first, and
//! the live line is [`RunCurve::status_line`]. Parsing is lenient (torn
//! tails are counted, never fatal), matching the rest of the
//! observability surface.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsd_obs::progress::ProgressKind;
use dsd_obs::ProgressEvent;
use serde::{Serialize, Value};

/// Gap milestones (percent above the certificate lower bound) reported
/// as time-to-gap. 5% is the headline number the A/B table compares.
pub const GAP_THRESHOLDS: &[f64] = &[50.0, 20.0, 10.0, 5.0, 2.0, 1.0];

/// One point of the global incumbent curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CurveSample {
    /// Seconds since the recorder epoch.
    pub elapsed_secs: f64,
    /// Incumbent objective (total annual cost, dollars).
    pub cost: f64,
    /// Gap above the certificate lower bound, percent, when known.
    pub gap_pct: Option<f64>,
    /// Evaluations across every lane when the incumbent was found.
    pub evals: u64,
}

/// Per-worker lane digest.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Lane {
    /// Worker lane: the recorder's thread index.
    pub worker: u64,
    /// Evaluations on this lane: each portfolio task counts from zero,
    /// so this is its finished tasks' `done` counts plus the running
    /// task's latest count.
    pub evals: u64,
    /// Last heartbeat throughput, when the lane heartbeat at all.
    pub evals_per_sec: Option<f64>,
    /// Incumbent improvements emitted by this lane.
    pub incumbents: usize,
    /// Heartbeats emitted by this lane.
    pub heartbeats: usize,
    /// Tasks this lane stole from other workers' queues (portfolio runs).
    pub steals: u64,
    /// Times this lane adopted the shared incumbent (portfolio runs).
    pub adoptions: u64,
}

/// The progress events of one parsed progress log or trace, or of a
/// live run as the `--progress` monitor reads them.
#[derive(Debug, Clone, Default)]
pub struct RunCurve {
    /// Display name (the file stem of the log).
    pub name: String,
    /// Every progress event, in time order.
    pub events: Vec<ProgressEvent>,
    /// Malformed lines skipped by the lenient parser.
    pub skipped: u64,
}

impl RunCurve {
    /// Parses a progress log or a trace leniently and keeps its progress
    /// events. Errors only when nothing parses from non-blank input (the
    /// file is not a JSONL trace at all).
    ///
    /// # Errors
    ///
    /// A message naming the run and the first parse error.
    pub fn parse(name: &str, text: &str) -> Result<RunCurve, String> {
        let parsed = crate::commands::parse_trace(text).map_err(|e| format!("{name}: {e}"))?;
        let events = parsed.records.iter().filter_map(ProgressEvent::decode).collect();
        Ok(RunCurve { name: name.to_string(), events, skipped: parsed.skipped })
    }

    /// The one fold over the events: the global incumbent curve and the
    /// worker lanes, by worker index. A lane that reported no evaluation
    /// count (a portfolio's spawning thread) is not a worker.
    fn fold(&self) -> (Vec<CurveSample>, Vec<Lane>) {
        // Per lane: its digest, its finished tasks' evaluations, and
        // whether it reported an evaluation count.
        let mut lanes: BTreeMap<u64, (Lane, u64, bool)> = BTreeMap::new();
        let mut curve: Vec<CurveSample> = Vec::new();
        for event in &self.events {
            let (lane, finished, counted) = lanes
                .entry(event.worker)
                .or_insert_with(|| (Lane { worker: event.worker, ..Lane::default() }, 0, false));
            match event.kind {
                ProgressKind::IncumbentImproved { evals, .. } => {
                    lane.evals = *finished + evals;
                    lane.incumbents += 1;
                    *counted = true;
                }
                ProgressKind::WorkerHeartbeat { evals, evals_per_sec } => {
                    lane.evals = *finished + evals;
                    lane.evals_per_sec = Some(evals_per_sec);
                    lane.heartbeats += 1;
                    *counted = true;
                }
                ProgressKind::Done { evals, .. } => {
                    *finished += evals;
                    lane.evals = *finished;
                    *counted = true;
                }
                ProgressKind::TaskStolen { steals, .. } => lane.steals = lane.steals.max(steals),
                ProgressKind::IncumbentAdopted { adoptions, .. } => {
                    lane.adoptions = lane.adoptions.max(adoptions);
                }
                ProgressKind::PhaseEntered { .. } | ProgressKind::Restart { .. } => {}
            }
            if let ProgressKind::IncumbentImproved { cost, gap_pct, .. } = event.kind {
                if curve.last().is_none_or(|best| cost < best.cost) {
                    let evals = lanes.values().map(|(lane, ..)| lane.evals).sum();
                    let elapsed_secs = event.elapsed_secs();
                    curve.push(CurveSample { elapsed_secs, cost, gap_pct, evals });
                }
            }
        }
        let lanes = lanes.into_values().filter(|(.., counted)| *counted).map(|(l, ..)| l).collect();
        (curve, lanes)
    }

    /// The global incumbent curve: in time order, each incumbent
    /// strictly below every earlier one on any lane.
    #[must_use]
    pub fn incumbents(&self) -> Vec<CurveSample> {
        self.fold().0
    }

    /// Final incumbent cost: the run's best.
    #[must_use]
    pub fn final_cost(&self) -> Option<f64> {
        self.incumbents().last().map(|s| s.cost)
    }

    /// Gap above the lower bound of the run's best incumbent.
    #[must_use]
    pub fn final_gap(&self) -> Option<f64> {
        self.incumbents().last().and_then(|s| s.gap_pct)
    }

    /// Total evaluations across the worker lanes.
    #[must_use]
    pub fn total_evals(&self) -> u64 {
        self.lanes().iter().map(|l| l.evals).sum()
    }

    /// Earliest time at which the incumbent gap reached `pct` percent or
    /// better; `None` when the run never got there (or logged no gaps).
    #[must_use]
    pub fn time_to_gap(&self, pct: f64) -> Option<f64> {
        self.incumbents()
            .iter()
            .find(|s| s.gap_pct.is_some_and(|g| g <= pct))
            .map(|s| s.elapsed_secs)
    }

    /// Per-worker lane digests, by worker index.
    #[must_use]
    pub fn lanes(&self) -> Vec<Lane> {
        self.fold().1
    }

    /// Keeps only events emitted on worker lane `worker` (the `--lane`
    /// filter): the curve, milestones, and lane digest then describe that
    /// worker alone. Returns `false` when the lane does not appear in the
    /// stream (the events are left untouched).
    pub fn filter_lane(&mut self, worker: u64) -> bool {
        if !self.events.iter().any(|e| e.worker == worker) {
            return false;
        }
        self.events.retain(|e| e.worker == worker);
        true
    }

    /// Tasks stolen across all lanes (portfolio cooperation).
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.lanes().iter().map(|l| l.steals).sum()
    }

    /// Incumbent adoptions across all lanes (portfolio cooperation).
    #[must_use]
    pub fn adoptions(&self) -> u64 {
        self.lanes().iter().map(|l| l.adoptions).sum()
    }

    /// Restarts reported (maximum cumulative count in the stream).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                ProgressKind::Restart { restarts } => Some(restarts),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Seconds spanned by the stream.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.events.iter().map(ProgressEvent::elapsed_secs).fold(0.0, f64::max)
    }

    /// The live `--progress` line: elapsed time, the latest phase, the
    /// lowest cost among incumbents and `done` events with its gap, the
    /// evaluations so far, and the cooperation counts. It never says the
    /// run is done: a `done` event ends one search, not the solve, so the
    /// monitor marks its final paint instead.
    #[must_use]
    pub fn status_line(&self) -> String {
        let mut out = format!("{:7.1}s", self.duration_secs());
        let phase = self.events.iter().rev().find_map(|e| match &e.kind {
            ProgressKind::PhaseEntered { phase } => Some(phase),
            _ => None,
        });
        if let Some(phase) = phase {
            let _ = write!(out, " [{phase}]");
        }
        let best = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ProgressKind::IncumbentImproved { cost, gap_pct, .. }
                | ProgressKind::Done { cost: Some(cost), gap_pct, .. } => Some((cost, gap_pct)),
                _ => None,
            })
            .reduce(|best, next| if next.0 < best.0 { next } else { best });
        match best {
            Some((cost, gap_pct)) => {
                let _ = write!(out, " cost ${cost:.0}");
                if let Some(gap) = gap_pct {
                    let _ = write!(out, " gap {gap:.1}%");
                }
            }
            None => out.push_str(" cost —"),
        }
        let _ = write!(out, " evals {}", self.total_evals());
        let workers = self.lanes().len();
        if workers > 1 {
            let _ = write!(out, " workers {workers}");
        }
        let counts = [
            ("restarts", self.restarts()),
            ("steals", self.steals()),
            ("adoptions", self.adoptions()),
        ];
        for (label, count) in counts {
            if count > 0 {
                let _ = write!(out, " {label} {count}");
            }
        }
        out
    }
}

/// Human-readable report over one or more runs.
#[must_use]
pub fn render(runs: &[RunCurve]) -> String {
    let mut out = String::new();
    for run in runs {
        let _ = writeln!(
            out,
            "run {}: {} events ({} skipped), {:.3}s, {} restarts",
            run.name,
            run.events.len(),
            run.skipped,
            run.duration_secs(),
            run.restarts()
        );
        let samples = run.incumbents();
        match samples.last() {
            Some(last) => {
                let gap = last.gap_pct.map_or("—".to_string(), |g| format!("{g:.2}%"));
                let _ = writeln!(
                    out,
                    "  final: cost ${:.2}, gap {gap}, {} evals",
                    last.cost,
                    run.total_evals()
                );
            }
            None => {
                let _ = writeln!(out, "  final: no incumbents logged");
            }
        }
        let _ = writeln!(out, "  convergence (elapsed, cost, gap, evals):");
        for s in &samples {
            let gap = s.gap_pct.map_or("     —".to_string(), |g| format!("{g:6.2}%"));
            let _ = writeln!(
                out,
                "    {:>9.4}s  ${:<14.2} {gap} {:>9}",
                s.elapsed_secs, s.cost, s.evals
            );
        }
        let milestones: Vec<String> = GAP_THRESHOLDS
            .iter()
            .map(|&pct| {
                let t = run.time_to_gap(pct).map_or("—".to_string(), |t| format!("{t:.4}s"));
                format!("<={pct:.0}% {t}")
            })
            .collect();
        let _ = writeln!(out, "  time to gap: {}", milestones.join(" | "));
        if run.steals() > 0 || run.adoptions() > 0 {
            let _ = writeln!(
                out,
                "  cooperation: {} steals, {} adoptions",
                run.steals(),
                run.adoptions()
            );
        }
        let _ = writeln!(out, "  worker lanes:");
        for lane in run.lanes() {
            let rate = lane.evals_per_sec.map_or("—".to_string(), |r| format!("{r:.0}/s"));
            let mut cooperation = String::new();
            if lane.steals > 0 {
                cooperation.push_str(&format!(", {} steals", lane.steals));
            }
            if lane.adoptions > 0 {
                cooperation.push_str(&format!(", {} adoptions", lane.adoptions));
            }
            let _ = writeln!(
                out,
                "    worker {}: {} evals ({rate}), {} incumbents, {} heartbeats{cooperation}",
                lane.worker, lane.evals, lane.incumbents, lane.heartbeats
            );
        }
    }
    if runs.len() >= 2 {
        let _ = writeln!(out, "A/B vs {}:", runs[0].name);
        let base = &runs[0];
        for run in runs {
            let cost = run.final_cost();
            let cost_delta = match (base.final_cost(), cost) {
                (Some(a), Some(b)) if a != 0.0 && !std::ptr::eq(run, base) => {
                    format!(" ({:+.2}%)", (b - a) / a * 100.0)
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:<24} cost {}{cost_delta}  gap {}  time-to-5% {}",
                run.name,
                cost.map_or("—".to_string(), |c| format!("${c:.2}")),
                run.final_gap().map_or("—".to_string(), |g| format!("{g:.2}%")),
                run.time_to_gap(5.0).map_or("—".to_string(), |t| format!("{t:.4}s")),
            );
        }
    }
    out
}

/// One run of the machine-readable report.
#[derive(Serialize)]
struct RunReport {
    name: String,
    events: usize,
    skipped: u64,
    duration_secs: f64,
    final_cost: Option<f64>,
    final_gap_pct: Option<f64>,
    restarts: u64,
    steals: u64,
    adoptions: u64,
    milestones: Value,
    curve: Vec<CurveSample>,
    lanes: Vec<Lane>,
}

/// Machine-readable report (one `runs` array; mirrors [`render`]).
#[must_use]
pub fn json_report(runs: &[RunCurve]) -> Value {
    let reports: Vec<RunReport> = runs
        .iter()
        .map(|run| {
            let milestones = GAP_THRESHOLDS
                .iter()
                .map(|&pct| {
                    (format!("time_to_{pct:.0}pct_gap_secs"), run.time_to_gap(pct).serialize())
                })
                .collect();
            RunReport {
                name: run.name.clone(),
                events: run.events.len(),
                skipped: run.skipped,
                duration_secs: run.duration_secs(),
                final_cost: run.final_cost(),
                final_gap_pct: run.final_gap(),
                restarts: run.restarts(),
                steals: run.steals(),
                adoptions: run.adoptions(),
                milestones: Value::Map(milestones),
                curve: run.incumbents(),
                lanes: run.lanes(),
            }
        })
        .collect();
    Value::Map(vec![("runs".to_string(), reports.serialize())])
}

/// CSV export of the incumbent curves: `run,elapsed_secs,cost,gap_pct,evals`
/// (one row per improvement, all runs concatenated — ready for A/B
/// plotting).
#[must_use]
pub fn csv(runs: &[RunCurve]) -> String {
    let mut out = String::from("run,elapsed_secs,cost,gap_pct,evals\n");
    for run in runs {
        for s in run.incumbents() {
            let gap = s.gap_pct.map_or(String::new(), |g| format!("{g}"));
            let _ = writeln!(out, "{},{},{},{gap},{}", run.name, s.elapsed_secs, s.cost, s.evals);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_obs::{ArgValue, Event, EventKind};

    type Args = Vec<(&'static str, ArgValue)>;

    /// A progress log of `(worker, elapsed_ns, name, args)` events, in
    /// the trace JSONL a recorder writes.
    fn log(events: Vec<(u64, u64, &'static str, Args)>) -> String {
        let events: Vec<Event> = events
            .into_iter()
            .map(|(thread, start_ns, name, args)| Event {
                name,
                cat: dsd_obs::progress::CATEGORY,
                kind: EventKind::Instant,
                start_ns,
                dur_ns: 0,
                thread,
                args,
            })
            .collect();
        dsd_obs::export::trace_jsonl(&events)
    }

    fn incumbent(cost: f64, gap_pct: f64, evals: u64) -> Args {
        vec![("cost", cost.into()), ("evals", evals.into()), ("gap_pct", gap_pct.into())]
    }

    fn sample_log() -> String {
        log(vec![
            (0, 1_000_000, "progress.phase", vec![("phase", "greedy".into())]),
            (0, 2_000_000, "progress.incumbent", incumbent(2000.0, 40.0, 5)),
            (
                1,
                3_000_000,
                "progress.heartbeat",
                vec![("evals", 8u64.into()), ("evals_per_sec", 100.0.into())],
            ),
            (0, 4_000_000, "progress.incumbent", incumbent(1500.0, 4.0, 9)),
            (0, 5_000_000, "progress.done", incumbent(1500.0, 4.0, 9)),
        ])
    }

    #[test]
    fn curve_digests_a_log() {
        let run = RunCurve::parse("a", &sample_log()).expect("parses");
        assert_eq!(run.events.len(), 5);
        assert_eq!(run.skipped, 0);
        assert_eq!(run.final_cost(), Some(1500.0));
        assert_eq!(run.final_gap(), Some(4.0));
        assert_eq!(run.total_evals(), 17, "lane 0 at 9 + lane 1 at 8");
        assert_eq!(run.time_to_gap(5.0), Some(0.004));
        assert_eq!(run.time_to_gap(50.0), Some(0.002));
        assert_eq!(run.time_to_gap(1.0), None);
        assert_eq!(run.lanes().len(), 2);
    }

    fn cooperative_log() -> String {
        let steal = |steals: u64| vec![("victim", 0u64.into()), ("steals", steals.into())];
        log(vec![
            (0, 1_000_000, "progress.incumbent", incumbent(2000.0, 40.0, 5)),
            (1, 2_000_000, "progress.steal", steal(1)),
            (1, 3_000_000, "progress.steal", steal(2)),
            (
                1,
                4_000_000,
                "progress.adopt",
                vec![("cost", 2000.0.into()), ("adoptions", 1u64.into())],
            ),
            (1, 5_000_000, "progress.incumbent", incumbent(1800.0, 20.0, 7)),
            (0, 6_000_000, "progress.done", incumbent(1800.0, 20.0, 9)),
        ])
    }

    #[test]
    fn cooperation_counts_land_in_lanes_and_reports() {
        let run = RunCurve::parse("coop", &cooperative_log()).expect("parses");
        assert_eq!(run.steals(), 2);
        assert_eq!(run.adoptions(), 1);
        let lanes = run.lanes();
        assert_eq!(lanes[0].steals, 0);
        assert_eq!(lanes[1].steals, 2);
        assert_eq!(lanes[1].adoptions, 1);
        let text = render(std::slice::from_ref(&run));
        assert!(text.contains("cooperation: 2 steals, 1 adoptions"), "{text}");
        assert!(text.contains("2 steals, 1 adoptions"), "{text}");
        let value = json_report(&[run]);
        let first = match value.get("runs") {
            Some(Value::Seq(v)) => v[0].clone(),
            other => panic!("runs array missing: {other:?}"),
        };
        assert!(matches!(first.get("steals"), Some(Value::Int(2))));
        assert!(matches!(first.get("adoptions"), Some(Value::Int(1))));
    }

    #[test]
    fn lane_filter_narrows_the_curve_to_one_worker() {
        let mut run = RunCurve::parse("coop", &cooperative_log()).expect("parses");
        assert!(!run.filter_lane(7), "unknown lane leaves events untouched");
        assert_eq!(run.events.len(), 6);
        assert!(run.filter_lane(1));
        assert!(run.events.iter().all(|e| e.worker == 1));
        assert_eq!(run.final_cost(), Some(1800.0));
        assert_eq!(run.steals(), 2);
        assert_eq!(run.lanes().len(), 1);
    }

    /// A two-worker portfolio log with two tasks per lane. Each task
    /// counts its evaluations from zero, and lane 0, the spawning thread,
    /// reports none.
    fn portfolio_log() -> String {
        let heartbeat = vec![("evals", 7u64.into()), ("evals_per_sec", 100.0.into())];
        log(vec![
            (0, 500_000, "progress.phase", vec![("phase", "portfolio".into())]),
            (1, 1_000_000, "progress.incumbent", incumbent(2000.0, 40.0, 5)),
            (2, 1_500_000, "progress.incumbent", incumbent(2100.0, 45.0, 4)),
            (1, 2_000_000, "progress.done", incumbent(2000.0, 40.0, 10)),
            (2, 2_500_000, "progress.done", incumbent(2100.0, 45.0, 6)),
            (1, 3_000_000, "progress.incumbent", incumbent(1800.0, 20.0, 3)),
            (2, 3_500_000, "progress.heartbeat", heartbeat),
            (1, 4_000_000, "progress.done", incumbent(1800.0, 20.0, 8)),
            (2, 4_500_000, "progress.incumbent", incumbent(1700.0, 10.0, 9)),
            (2, 5_000_000, "progress.done", incumbent(1700.0, 10.0, 12)),
        ])
    }

    #[test]
    fn portfolio_lanes_sum_their_tasks_and_the_curve_is_global() {
        let run = RunCurve::parse("p", &portfolio_log()).expect("parses");
        let lanes = run.lanes();
        let evals: Vec<(u64, u64)> = lanes.iter().map(|l| (l.worker, l.evals)).collect();
        assert_eq!(evals, vec![(1, 10 + 8), (2, 6 + 12)], "the spawning lane is not a worker");
        assert_eq!(run.total_evals(), 36);

        // The 2100 incumbent does not beat lane 1's 2000, so it is no
        // point; each point counts every lane's evaluations so far.
        let curve: Vec<(f64, u64)> = run.incumbents().iter().map(|s| (s.cost, s.evals)).collect();
        assert_eq!(curve, vec![(2000.0, 5), (1800.0, 10 + 3 + 6), (1700.0, 18 + 6 + 9)]);
        assert_eq!(run.final_cost(), Some(1700.0));
        assert_eq!(run.final_gap(), Some(10.0));
        assert_eq!(run.time_to_gap(20.0), Some(0.003));

        let line = run.status_line();
        assert!(line.contains("[portfolio] cost $1700 gap 10.0% evals 36 workers 2"), "{line}");
        let text = render(std::slice::from_ref(&run));
        assert!(text.contains("final: cost $1700.00, gap 10.00%, 36 evals"), "{text}");
        assert!(!text.contains("worker 0:"), "{text}");
    }

    /// The live line digests the stream as it grows.
    #[test]
    fn status_line_digests_the_stream() {
        let event = |worker, elapsed_ns, kind| ProgressEvent { worker, elapsed_ns, kind };
        let mut run = RunCurve::default();
        run.events.extend([
            event(0, 1_000_000, ProgressKind::PhaseEntered { phase: "greedy".into() }),
            event(
                0,
                2_000_000,
                ProgressKind::IncumbentImproved { cost: 1234.0, gap_pct: Some(7.5), evals: 10 },
            ),
            event(1, 3_000_000, ProgressKind::WorkerHeartbeat { evals: 20, evals_per_sec: 5.0 }),
            event(0, 4_000_000, ProgressKind::Restart { restarts: 2 }),
        ]);
        let line = run.status_line();
        assert!(line.contains("[greedy]"), "{line}");
        assert!(line.contains("cost $1234"), "{line}");
        assert!(line.contains("gap 7.5%"), "{line}");
        assert!(line.contains("evals 30"), "{line}");
        assert!(line.contains("workers 2"), "{line}");
        assert!(line.contains("restarts 2"), "{line}");
        assert!(!line.contains("done"), "{line}");

        run.events.push(event(
            0,
            5_000_000,
            ProgressKind::Done { cost: Some(1200.0), gap_pct: Some(5.0), evals: 15 },
        ));
        let line = run.status_line();
        assert!(line.contains("cost $1200"), "{line}");
        assert!(line.contains("evals 35"), "{line}");
        assert!(!line.contains("done"), "only the monitor's final paint says done: {line}");
    }

    /// Lane 1 finishes a task before lane 2's last incumbent: the line
    /// painted from that partial log must not claim the run is done.
    #[test]
    fn a_finished_task_does_not_end_the_line() {
        let partial: String = portfolio_log().lines().take(9).map(|l| format!("{l}\n")).collect();
        let run = RunCurve::parse("p", &partial).expect("parses");
        let last = run.events.last().expect("events");
        assert!(matches!(last.kind, ProgressKind::IncumbentImproved { .. }) && last.worker == 2);
        assert!(run.events.iter().any(|e| matches!(e.kind, ProgressKind::Done { .. })));
        let line = run.status_line();
        assert!(line.contains("cost $1700 gap 10.0%"), "{line}");
        assert!(!line.ends_with("done"), "lane 2 is still searching: {line}");
    }

    #[test]
    fn render_reports_milestones_and_lanes() {
        let run = RunCurve::parse("a", &sample_log()).expect("parses");
        let text = render(&[run]);
        assert!(text.contains("time to gap:"), "{text}");
        assert!(text.contains("<=5% 0.0040s"), "{text}");
        assert!(text.contains("<=1% —"), "{text}");
        assert!(text.contains("worker 0: 9 evals"), "{text}");
        assert!(text.contains("worker 1: 8 evals (100/s)"), "{text}");
        assert!(!text.contains("A/B"), "single run has no A/B table: {text}");
    }

    #[test]
    fn two_runs_render_an_ab_table() {
        let a = RunCurve::parse("base", &sample_log()).expect("parses");
        let mut faster = RunCurve::parse("cand", &sample_log()).expect("parses");
        for event in &mut faster.events {
            if let ProgressKind::IncumbentImproved { cost, .. } = &mut event.kind {
                *cost *= 0.9;
            }
        }
        let text = render(&[a, faster]);
        assert!(text.contains("A/B vs base"), "{text}");
        assert!(text.contains("(-10.00%)"), "{text}");
    }

    #[test]
    fn json_and_csv_exports_carry_the_curve() {
        let run = RunCurve::parse("a", &sample_log()).expect("parses");
        let value = json_report(std::slice::from_ref(&run));
        let runs = match value.get("runs") {
            Some(Value::Seq(v)) => v.clone(),
            other => panic!("runs array missing: {other:?}"),
        };
        assert_eq!(runs.len(), 1);
        assert!(matches!(
            runs[0].get("milestones").and_then(|m| m.get("time_to_5pct_gap_secs")),
            Some(Value::Float(t)) if (t - 0.004).abs() < 1e-12
        ));
        let text = csv(&[run]);
        assert!(text.starts_with("run,elapsed_secs,cost,gap_pct,evals\n"), "{text}");
        assert!(text.contains("a,0.004,1500,4,17"), "lane 0 at 9 + lane 1 at 8: {text}");

        // Torn tails are skipped, not fatal; garbage is an error.
        let mut torn = sample_log();
        torn.push_str(
            "{\"ts_us\":6000.0,\"dur_us\":0.0,\"kind\":\"instant\",\"name\":\"progress.inc",
        );
        let run = RunCurve::parse("torn", &torn).expect("parses");
        assert_eq!(run.skipped, 1);
        assert!(RunCurve::parse("bad", "not a log").is_err());
        assert!(RunCurve::parse("empty", "").expect("ok").events.is_empty());
    }
}
