//! Live progress rendering for `dsd design --progress`.
//!
//! A [`ProgressMonitor`] runs a background thread that polls the
//! installed recorder's progress events (~10 Hz) with
//! [`Recorder::progress_since`], folds them into a [`StatusState`], and
//! repaints a one-line status on stderr (stderr so piped stdout stays
//! clean). It reads without draining, so the same events still reach
//! the trace and the `--progress-log` file afterwards.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dsd_obs::progress::ProgressKind;
use dsd_obs::{ProgressEvent, Recorder};

/// Rolling digest of a progress stream, rendered as the status line.
#[derive(Debug, Default, Clone)]
pub struct StatusState {
    phase: String,
    cost: Option<f64>,
    gap_pct: Option<f64>,
    lane_evals: BTreeMap<u64, u64>,
    restarts: u64,
    steals: u64,
    adoptions: u64,
    done: u64,
    elapsed_ns: u64,
}

impl StatusState {
    /// Folds a batch of events into the digest. Returns `true` when the
    /// batch changed anything worth repainting.
    pub fn absorb(&mut self, events: &[ProgressEvent]) -> bool {
        let mut dirty = false;
        for event in events {
            self.elapsed_ns = self.elapsed_ns.max(event.elapsed_ns);
            match &event.kind {
                ProgressKind::PhaseEntered { phase } => {
                    self.phase = phase.clone();
                }
                ProgressKind::IncumbentImproved { cost, gap_pct, evals } => {
                    self.cost = Some(*cost);
                    self.gap_pct = *gap_pct;
                    self.lane_evals.insert(event.worker, *evals);
                }
                ProgressKind::WorkerHeartbeat { evals, .. } => {
                    self.lane_evals.insert(event.worker, *evals);
                }
                ProgressKind::Restart { restarts } => {
                    self.restarts = self.restarts.max(*restarts);
                }
                ProgressKind::TaskStolen { .. } => {
                    self.steals += 1;
                }
                ProgressKind::IncumbentAdopted { .. } => {
                    self.adoptions += 1;
                }
                ProgressKind::Done { cost, gap_pct, evals } => {
                    if cost.is_some() {
                        self.cost = *cost;
                        self.gap_pct = *gap_pct;
                    }
                    self.lane_evals.insert(event.worker, *evals);
                    self.done += 1;
                }
            }
            dirty = true;
        }
        dirty
    }

    /// Total evaluations across worker lanes (each lane reports a
    /// cumulative count, so the sum over lane maxima is exact).
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.lane_evals.values().sum()
    }

    /// The one-line status rendering.
    #[must_use]
    pub fn line(&self) -> String {
        let mut out = format!("{:7.1}s", self.elapsed_ns as f64 / 1e9);
        if !self.phase.is_empty() {
            out.push_str(&format!(" [{}]", self.phase));
        }
        match self.cost {
            Some(cost) => out.push_str(&format!(" cost ${cost:.0}")),
            None => out.push_str(" cost —"),
        }
        if let Some(gap) = self.gap_pct {
            out.push_str(&format!(" gap {gap:.1}%"));
        }
        out.push_str(&format!(" evals {}", self.evals()));
        if self.lane_evals.len() > 1 {
            out.push_str(&format!(" workers {}", self.lane_evals.len()));
        }
        if self.restarts > 0 {
            out.push_str(&format!(" restarts {}", self.restarts));
        }
        if self.steals > 0 {
            out.push_str(&format!(" steals {}", self.steals));
        }
        if self.adoptions > 0 {
            out.push_str(&format!(" adoptions {}", self.adoptions));
        }
        if self.done > 0 {
            out.push_str(" done");
        }
        out
    }
}

/// The status-line painter behind `--progress`.
pub struct ProgressMonitor {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<StatusState>,
}

impl ProgressMonitor {
    /// Starts painting the progress events `recorder` records, from
    /// whichever threads it is installed on.
    #[must_use]
    pub fn start(recorder: &Recorder) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (recorder, stopper) = (recorder.clone(), Arc::clone(&stop));
        let handle = thread::spawn(move || {
            let mut cursor = 0;
            let mut state = StatusState::default();
            loop {
                let finished = stopper.load(Ordering::Acquire);
                if state.absorb(&recorder.progress_since(&mut cursor)) {
                    // \r + clear-to-end keeps repaints on a single line.
                    eprint!("\r\x1b[K{}", state.line());
                    let _ = std::io::stderr().flush();
                }
                if finished {
                    break;
                }
                thread::sleep(Duration::from_millis(100));
            }
            // Leave the final status visible and restore the cursor.
            eprintln!();
            state
        });
        ProgressMonitor { stop, handle }
    }

    /// Stops the painter after one final read and returns the digest it
    /// painted last.
    #[must_use]
    pub fn finish(self) -> StatusState {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(worker: u64, ns: u64, kind: ProgressKind) -> ProgressEvent {
        ProgressEvent { worker, elapsed_ns: ns, kind }
    }

    #[test]
    fn status_line_digests_the_stream() {
        let mut state = StatusState::default();
        assert!(!state.absorb(&[]));
        let dirty = state.absorb(&[
            event(0, 1_000_000, ProgressKind::PhaseEntered { phase: "greedy".into() }),
            event(
                0,
                2_000_000,
                ProgressKind::IncumbentImproved { cost: 1234.0, gap_pct: Some(7.5), evals: 10 },
            ),
            event(1, 3_000_000, ProgressKind::WorkerHeartbeat { evals: 20, evals_per_sec: 5.0 }),
            event(0, 4_000_000, ProgressKind::Restart { restarts: 2 }),
        ]);
        assert!(dirty);
        let line = state.line();
        assert!(line.contains("[greedy]"), "{line}");
        assert!(line.contains("cost $1234"), "{line}");
        assert!(line.contains("gap 7.5%"), "{line}");
        assert!(line.contains("evals 30"), "{line}");
        assert!(line.contains("workers 2"), "{line}");
        assert!(line.contains("restarts 2"), "{line}");
        assert!(!line.contains("done"), "{line}");

        state.absorb(&[event(
            0,
            5_000_000,
            ProgressKind::Done { cost: Some(1200.0), gap_pct: Some(5.0), evals: 15 },
        )]);
        let line = state.line();
        assert!(line.contains("cost $1200"), "{line}");
        assert!(line.contains("done"), "{line}");
        assert!(line.contains("evals 35"), "{line}");
    }

    #[test]
    fn monitor_collects_events_across_threads() {
        let recorder = Recorder::progress_only();
        let monitor = ProgressMonitor::start(&recorder);
        {
            let _g = recorder.install();
            dsd_obs::progress::phase_entered("greedy");
            dsd_obs::progress::incumbent_improved(10.0, Some(1.0), 5);
            dsd_obs::progress::done(Some(10.0), Some(1.0), 5);
        }
        let line = monitor.finish().line();
        assert!(line.contains("[greedy]"), "{line}");
        assert!(line.contains("cost $10 gap 1.0% evals 5"), "{line}");
        assert!(line.ends_with(" done"), "the final read saw every event: {line}");
        assert_eq!(recorder.progress_since(&mut 0).len(), 3, "the monitor drains nothing");
    }
}
