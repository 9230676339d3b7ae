//! Solver budgets: wall-clock and/or iteration limits.
//!
//! The paper runs every heuristic "for a fixed time of thirty minutes"
//! (§4.3). Experiments in this reproduction usually use iteration budgets
//! so results are machine-independent and deterministic under a seed, but
//! wall-clock budgets are supported for paper-faithful runs.

use std::time::Duration;

use dsd_obs::Stopwatch;

/// A solve budget: the solver stops when *either* limit is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    max_iterations: Option<u64>,
    max_duration: Option<Duration>,
}

impl Budget {
    /// Budget of `n` solver iterations (deterministic under a fixed
    /// seed).
    #[must_use]
    pub fn iterations(n: u64) -> Self {
        Budget { max_iterations: Some(n), max_duration: None }
    }

    /// Wall-clock budget (the paper's thirty-minute setting).
    #[must_use]
    pub fn wall_clock(d: Duration) -> Self {
        Budget { max_iterations: None, max_duration: Some(d) }
    }

    /// Starts consuming this budget (timed on the workspace's monotonic
    /// [`Stopwatch`]).
    #[must_use]
    pub fn start(self) -> BudgetTracker {
        BudgetTracker { budget: self, started: Stopwatch::start(), iterations: 0 }
    }
}

/// Running state of a budget.
#[derive(Debug, Clone)]
pub struct BudgetTracker {
    budget: Budget,
    started: Stopwatch,
    iterations: u64,
}

impl BudgetTracker {
    /// Records one iteration.
    pub fn tick(&mut self) {
        self.iterations += 1;
    }

    /// Iterations consumed so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Elapsed wall time.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// True once either limit has been reached.
    #[must_use]
    pub fn expired(&self) -> bool {
        if let Some(n) = self.budget.max_iterations {
            if self.iterations >= n {
                return true;
            }
        }
        if let Some(d) = self.budget.max_duration {
            if self.started.elapsed() >= d {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_budget_expires_after_n_ticks() {
        let mut t = Budget::iterations(3).start();
        assert!(!t.expired());
        t.tick();
        t.tick();
        assert!(!t.expired());
        t.tick();
        assert!(t.expired());
        assert_eq!(t.iterations(), 3);
    }

    #[test]
    fn zero_iteration_budget_is_immediately_expired() {
        let t = Budget::iterations(0).start();
        assert!(t.expired());
    }

    #[test]
    fn wall_clock_budget_expires() {
        let t = Budget::wall_clock(Duration::from_millis(0)).start();
        assert!(t.expired());
        let t2 = Budget::wall_clock(Duration::from_secs(3600)).start();
        assert!(!t2.expired());
    }
}
