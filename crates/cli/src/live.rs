//! Live progress rendering for `dsd design --progress`.
//!
//! A [`ProgressMonitor`] runs a background thread that polls the
//! installed recorder's progress events (~10 Hz) with
//! [`Recorder::progress_since`], appends them to a [`RunCurve`], and
//! repaints its [`RunCurve::status_line`] on stderr (stderr so piped
//! stdout stays clean). It reads without draining, so the same events
//! still reach the trace and the `--progress-log` file afterwards. The
//! line says `done` only in its final paint, after
//! [`ProgressMonitor::finish`]: the solve has returned then, whereas a
//! `progress.done` event only ends one search (a portfolio runs many).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dsd_obs::Recorder;

use crate::convergence::RunCurve;

/// The status-line painter behind `--progress`.
pub struct ProgressMonitor {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<String>,
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
            let mut run = RunCurve::default();
            loop {
                let finished = stopper.load(Ordering::Acquire);
                let fresh = recorder.progress_since(&mut cursor);
                let repaint = !fresh.is_empty();
                run.events.extend(fresh);
                // \r + clear-to-end keeps repaints on a single line; the
                // final paint leaves the status visible and restores the
                // cursor.
                if finished {
                    let line = format!("{} done", run.status_line());
                    crate::write_stderr(&format!("\r\x1b[K{line}\n"));
                    return line;
                }
                if repaint {
                    crate::write_stderr(&format!("\r\x1b[K{}", run.status_line()));
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
        ProgressMonitor { stop, handle }
    }

    /// Stops the painter after one final read, which it paints marked
    /// `done`, and returns that final line.
    #[must_use]
    pub fn finish(self) -> String {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let line = monitor.finish();
        assert!(line.contains("[greedy]"), "{line}");
        assert!(
            line.contains("cost $10 gap 1.0% evals 5 done"),
            "the final read saw every event: {line}"
        );
        assert_eq!(recorder.progress_since(&mut 0).len(), 3, "the monitor drains nothing");
    }
}
