//! What every search strategy shares: one [`SearchRun`] per solve, and
//! the local-search [`walk`] annealing and tabu run on.
//!
//! A [`SearchRun`] owns a solve's budget, its [`SolveStats`], the best
//! design so far, and the one piece of state progress events need
//! beyond raw counters: the relaxation lower bound behind the optimality
//! certificates, which turns an incumbent cost into a gap percentage.
//! The bound is fetched once per solve, *only when the installed
//! recorder records progress*, and emission is deterministic arithmetic —
//! no randomness is consumed, so instrumented and uninstrumented searches
//! stay bit-identical. Every strategy ends through [`SearchRun::finish`], so
//! its counters are published and `done` is emitted on every exit path.

use dsd_obs::progress;
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;
use dsd_units::Dollars;

use crate::bounds::{Certificate, LowerBound};
use crate::budget::{Budget, BudgetTracker};
use crate::candidate::Candidate;
use crate::config_solver::Thoroughness;
use crate::design_solver::{NodeCompleter, SolveOutcome, SolveStats};
use crate::env::Environment;
use crate::eval_cache::EvalCache;
use crate::heuristics::random_design;

/// One solve's budget, counters, best design and progress emission.
/// Starting one is free unless the recorder installed on the current
/// thread records progress.
#[derive(Debug)]
pub(crate) struct SearchRun<'e> {
    env: &'e Environment,
    /// The solve's budget, started with the run.
    pub(crate) tracker: BudgetTracker,
    /// The solve's counters, published by [`SearchRun::finish`].
    pub(crate) stats: SolveStats,
    best: Option<Candidate>,
    bound: Option<&'e LowerBound>,
    /// The last incumbent cost emitted, so each one strictly improves.
    emitted: Option<Dollars>,
}

impl<'e> SearchRun<'e> {
    /// Starts the budget, then fetches the certificate lower bound iff
    /// progress is being recorded (so gap percentages in incumbent
    /// events bit-match a later [`Certificate`] over the same
    /// environment). The bound is memoized on the environment, so
    /// repeated instrumented solves pay for it once.
    pub(crate) fn start(env: &'e Environment, budget: Budget) -> Self {
        let tracker = budget.start();
        let bound = progress::enabled().then(|| env.certified_lower_bound());
        SearchRun { env, tracker, stats: SolveStats::default(), best: None, bound, emitted: None }
    }

    /// The best design kept so far.
    pub(crate) fn best(&self) -> Option<&Candidate> {
        self.best.as_ref()
    }

    /// Whether an evaluated design scores strictly below the best so far
    /// (any design does before the first).
    pub(crate) fn improves(&self, design: &Candidate) -> bool {
        self.best.as_ref().is_none_or(|b| self.env.score(design.cost()) < self.env.score(b.cost()))
    }

    /// Keeps an evaluated design if it beats the best so far, emitting it
    /// as the incumbent; returns whether it was kept.
    pub(crate) fn offer(&mut self, design: Candidate) -> bool {
        let improves = self.improves(&design);
        if improves {
            self.incumbent(design.cost().total());
            self.best = Some(design);
        }
        improves
    }

    /// Emits an incumbent-improved event at the current evaluation count
    /// when `cost` is strictly below the last one emitted: a refit
    /// improvement that `offer` then keeps, or a polish that changed
    /// nothing, is not reported twice.
    pub(crate) fn incumbent(&mut self, cost: Dollars) {
        if progress::enabled() && self.emitted.is_none_or(|last| cost < last) {
            self.emitted = Some(cost);
            let gap = self.gap_pct(cost);
            progress::incumbent_improved(cost.as_f64(), gap, self.stats.nodes_evaluated);
        }
    }

    /// Counts a start that found no feasible design and emits a restart.
    pub(crate) fn failed(&mut self) {
        self.stats.greedy_failures += 1;
        progress::restart(self.stats.greedy_failures);
    }

    /// Emits a worker heartbeat. The throughput division only happens
    /// when someone is listening.
    pub(crate) fn heartbeat(&self) {
        if progress::enabled() {
            let evals = self.stats.nodes_evaluated;
            let evals_per_sec = evals as f64 / self.tracker.elapsed().as_secs_f64().max(1e-9);
            progress::worker_heartbeat(evals, evals_per_sec);
        }
    }

    /// Completes the best design with a full configuration solve and
    /// emits it as the final incumbent when that lowered its cost. A
    /// no-op without a best design.
    pub(crate) fn polish(
        &mut self,
        completer: &NodeCompleter<'_>,
        scache: &mut ScenarioOutcomeCache,
    ) {
        if let Some(best) = self.best.as_mut() {
            completer.complete(best, Thoroughness::Full, &mut self.stats, scache);
            let cost = best.cost().total();
            self.incumbent(cost);
        }
    }

    /// Ends the run: publishes its counters into the installed metrics
    /// registry, emits `done`, and returns the outcome with a snapshot of
    /// `cache` when one was attached.
    pub(crate) fn finish(self, cache: Option<&EvalCache>) -> SolveOutcome {
        self.stats.publish();
        if progress::enabled() {
            let cost = self.best.as_ref().map(|b| b.cost().total());
            let gap = cost.and_then(|c| self.gap_pct(c));
            progress::done(cost.map(Dollars::as_f64), gap, self.stats.nodes_evaluated);
        }
        SolveOutcome {
            best: self.best,
            stats: self.stats,
            elapsed: self.tracker.elapsed(),
            cache: cache.map(EvalCache::stats),
            bound: None,
        }
    }

    /// Gap to the bound for a cost, percent — exactly
    /// `Certificate::new(bound, cost).gap_pct`.
    fn gap_pct(&self, cost: Dollars) -> Option<f64> {
        self.bound.map(|lb| Certificate::new(lb, cost).gap_pct)
    }
}

/// The local search annealing and tabu share. It re-completes `start`
/// under `completer`, or, without one, draws random feasible designs
/// (one budget tick each, a miss counting as a failed start) until one
/// exists. It then calls `step` on the current design once per budget
/// tick; a step returns whether it took a move, and after one that did a
/// heartbeat goes out whenever the evaluation count is a multiple of 32.
/// A step offers any design it wants kept. Finally the best design is
/// polished.
pub(crate) fn walk<'e, R, S>(
    mut run: SearchRun<'e>,
    start: Option<Candidate>,
    completer: NodeCompleter<'e>,
    scache: &mut ScenarioOutcomeCache,
    rng: &mut R,
    mut step: S,
) -> SolveOutcome
where
    R: Rng + ?Sized,
    S: FnMut(&mut Candidate, &mut SearchRun<'e>, &mut ScenarioOutcomeCache, &mut R) -> bool,
{
    let mut current = match start {
        Some(mut start) => {
            completer.complete(&mut start, Thoroughness::Quick, &mut run.stats, scache);
            start
        }
        None => loop {
            if run.tracker.expired() {
                return run.finish(completer.cache);
            }
            run.tracker.tick();
            match random_design(run.env, 10, rng) {
                Some(mut design) => {
                    completer.complete(&mut design, Thoroughness::Quick, &mut run.stats, scache);
                    run.stats.greedy_builds += 1;
                    break design;
                }
                None => run.failed(),
            }
        },
    };
    run.offer(current.clone());
    while !run.tracker.expired() {
        run.tracker.tick();
        if step(&mut current, &mut run, scache, rng) && run.stats.nodes_evaluated.is_multiple_of(32)
        {
            run.heartbeat();
        }
    }
    run.polish(&completer, scache);
    run.finish(completer.cache)
}
