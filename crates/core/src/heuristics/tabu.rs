//! Tabu search baseline.
//!
//! The second classic local-search metaheuristic from the paper's related
//! work (§5, citing Glover). Moves are the same reconfiguration steps the
//! design solver uses; the tabu list forbids re-reconfiguring the same
//! application for a fixed tenure, forcing the walk to diversify instead
//! of oscillating between two designs.
//!
//! Like the annealer, tabu search can start from a caller-provided
//! design ([`TabuSearch::solve_from`]) and share the evaluation cache —
//! the portfolio's diversification workers run it over the shared
//! incumbent.

use std::collections::VecDeque;

use dsd_obs as obs;
use dsd_obs::progress;
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;
use dsd_workload::AppId;

use crate::budget::{Budget, BudgetTracker};
use crate::candidate::Candidate;
use crate::config_solver::Thoroughness;
use crate::design_solver::{NodeCompleter, SolveOutcome, SolveStats};
use crate::env::Environment;
use crate::eval_cache::EvalCache;
use crate::flight::{heartbeat, FlightPlan};
use crate::heuristics::random::random_design;
use crate::reconfigure::Reconfigurator;

/// Tabu search over reconfiguration moves.
#[derive(Debug, Clone, Copy)]
pub struct TabuSearch<'e> {
    env: &'e Environment,
    /// Number of recently reconfigured applications that may not be
    /// touched again (the tabu tenure).
    tenure: usize,
    /// Candidate moves evaluated per step; the best non-tabu move is
    /// taken even if it worsens the design (classic tabu behavior).
    moves_per_step: usize,
    /// Resource-addition limits forwarded to the configuration solver.
    addition_limits: (usize, usize),
    cache: Option<&'e EvalCache>,
}

impl<'e> TabuSearch<'e> {
    /// Creates a tabu search with tenure 3 and 4 candidate moves per
    /// step.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        TabuSearch { env, tenure: 3, moves_per_step: 4, addition_limits: (4, 32), cache: None }
    }

    /// Overrides the configuration solver's resource-addition limits
    /// (quick, full). `(0, 0)` disables additions entirely, confining the
    /// search to the discrete configuration grid — the space the
    /// tournament's exhaustive reference enumerates.
    #[must_use]
    pub fn with_addition_limits(mut self, quick: usize, full: usize) -> Self {
        self.addition_limits = (quick, full);
        self
    }

    /// Attaches a (shareable) evaluation cache, exactly like
    /// [`crate::DesignSolver::with_cache`].
    #[must_use]
    pub fn with_cache(mut self, cache: &'e EvalCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the tabu tenure (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `tenure` is zero.
    #[must_use]
    pub fn with_tenure(mut self, tenure: usize) -> Self {
        assert!(tenure > 0, "tabu tenure must be positive");
        self.tenure = tenure;
        self
    }

    fn completer(&self) -> NodeCompleter<'e> {
        NodeCompleter::new(self.env, self.addition_limits, self.cache)
    }

    /// Searches until the budget expires; returns the best design seen.
    /// Starts from a random feasible design.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        let mut scache = ScenarioOutcomeCache::new();
        self.solve_with(budget, &mut scache, rng)
    }

    /// [`TabuSearch::solve`] with a caller-provided scenario cache, so
    /// scenario-level reuse persists across successive runs (portfolio
    /// workers keep one per worker).
    pub fn solve_with<R: Rng + ?Sized>(
        &self,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let _solve_span = obs::span("tabu.solve", "heuristic");
        let mut tracker = budget.start();
        let mut stats = SolveStats::default();
        let flight = FlightPlan::new(self.env);
        progress::phase_entered("tabu");
        let completer = self.completer();

        let current = loop {
            if tracker.expired() {
                flight.done(None, stats.nodes_evaluated);
                return SolveOutcome {
                    best: None,
                    stats,
                    elapsed: tracker.elapsed(),
                    cache: self.cache.map(EvalCache::stats),
                    bound: None,
                };
            }
            tracker.tick();
            match random_design(self.env, 10, rng) {
                Some(mut c) => {
                    completer.complete(&mut c, Thoroughness::Quick, &mut stats, scache);
                    stats.greedy_builds += 1;
                    break c;
                }
                None => {
                    stats.greedy_failures += 1;
                    progress::restart(stats.greedy_failures);
                }
            }
        };
        self.run(current, tracker, stats, &flight, scache, rng)
    }

    /// Searches from a caller-provided starting design (e.g. the
    /// portfolio's shared incumbent) until the budget expires. The start
    /// is re-completed under this search's addition limits first.
    pub fn solve_from<R: Rng + ?Sized>(
        &self,
        start: Candidate,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let _solve_span = obs::span("tabu.solve_from", "heuristic");
        let tracker = budget.start();
        let mut stats = SolveStats::default();
        let flight = FlightPlan::new(self.env);
        progress::phase_entered("tabu");
        let completer = self.completer();
        let mut current = start;
        completer.complete(&mut current, Thoroughness::Quick, &mut stats, scache);
        self.run(current, tracker, stats, &flight, scache, rng)
    }

    /// The tabu walk proper, shared by both entry points.
    fn run<R: Rng + ?Sized>(
        &self,
        mut current: Candidate,
        mut tracker: BudgetTracker,
        mut stats: SolveStats,
        flight: &FlightPlan,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let completer = self.completer();
        let mut reconf = Reconfigurator::default();
        let mut best = current.clone();
        flight.incumbent(best.cost().total(), stats.nodes_evaluated);
        let mut tabu: VecDeque<AppId> = VecDeque::with_capacity(self.tenure);

        while !tracker.expired() {
            tracker.tick();
            // Evaluate a small pool of moves; keep the best whose touched
            // application is not tabu (aspiration: a new global best is
            // always allowed).
            let mut chosen: Option<(Candidate, AppId)> = None;
            for _ in 0..self.moves_per_step {
                let mut proposal = current.clone();
                if !reconf.reconfigure_with(self.env, &mut proposal, scache, rng) {
                    continue;
                }
                completer.complete(&mut proposal, Thoroughness::Quick, &mut stats, scache);
                let touched = touched_app(&current, &proposal);
                let is_tabu = touched.is_some_and(|a| tabu.contains(&a));
                let aspirates = self.env.score(proposal.cost()) < self.env.score(best.cost());
                if is_tabu && !aspirates {
                    obs::add("tabu.moves_forbidden", 1);
                    continue;
                }
                let better_than_chosen = chosen.as_ref().is_none_or(|(c, _)| {
                    self.env.score(proposal.cost()) < self.env.score(c.cost())
                });
                if better_than_chosen {
                    if let Some(app) = touched {
                        chosen = Some((proposal, app));
                    }
                }
            }
            let Some((next, touched)) = chosen else { continue };
            obs::add("tabu.moves_taken", 1);
            if obs::enabled() {
                obs::instant_with(
                    "tabu.move",
                    "heuristic",
                    vec![
                        ("app", touched.0.into()),
                        ("cost", self.env.score(next.cost()).as_f64().into()),
                    ],
                );
            }
            tabu.push_back(touched);
            while tabu.len() > self.tenure {
                tabu.pop_front();
            }
            current = next;
            if self.env.score(current.cost()) < self.env.score(best.cost()) {
                best = current.clone();
                flight.incumbent(best.cost().total(), stats.nodes_evaluated);
            }
            if stats.nodes_evaluated.is_multiple_of(32) {
                heartbeat(stats.nodes_evaluated, tracker.elapsed(), stats.cache_hit_rate());
            }
        }

        completer.complete(&mut best, Thoroughness::Full, &mut stats, scache);
        stats.publish();
        flight.incumbent(best.cost().total(), stats.nodes_evaluated);
        flight.done(Some(best.cost().total()), stats.nodes_evaluated);
        SolveOutcome {
            best: Some(best),
            stats,
            elapsed: tracker.elapsed(),
            cache: self.cache.map(EvalCache::stats),
            bound: None,
        }
    }
}

/// The application whose assignment differs between two candidates (the
/// one the reconfiguration touched).
fn touched_app(before: &Candidate, after: &Candidate) -> Option<AppId> {
    for (app, a) in after.assignments() {
        match before.assignment(*app) {
            Some(b) if b == a => continue,
            _ => return Some(*app),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::WorkloadSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn env() -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(4),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn tabu_finds_feasible_designs() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let out = TabuSearch::new(&e).solve(Budget::iterations(40), &mut rng);
        let best = out.best.expect("feasible");
        assert!(best.is_complete(&e));
        assert!(best.cost().total().is_finite());
    }

    #[test]
    fn tabu_improves_over_its_random_start() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let start = {
            let mut c = random_design(&e, 10, &mut rng).expect("feasible start");
            c.evaluate(&e).total().as_f64()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let out = TabuSearch::new(&e).solve(Budget::iterations(60), &mut rng);
        let best = out.best.unwrap().cost().total().as_f64();
        assert!(best <= start, "tabu {best} vs start {start}");
    }

    #[test]
    fn tabu_is_deterministic_under_seed() {
        let e = env();
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            TabuSearch::new(&e)
                .solve(Budget::iterations(25), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn solve_from_never_loses_its_start() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        let mut start = random_design(&e, 10, &mut rng).expect("feasible start");
        start.evaluate(&e);
        let start_cost = start.cost().total().as_f64();
        let mut scache = ScenarioOutcomeCache::new();
        let out =
            TabuSearch::new(&e).solve_from(start, Budget::iterations(30), &mut scache, &mut rng);
        let best = out.best.expect("start was feasible").cost().total().as_f64();
        assert!(best <= start_cost + 1e-6, "refined {best} vs start {start_cost}");
    }

    #[test]
    fn touched_app_detects_the_difference() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let a = random_design(&e, 10, &mut rng).unwrap();
        let mut b = a.clone();
        let mut reconf = Reconfigurator::default();
        if reconf.reconfigure(&e, &mut b, &mut rng) {
            let t = touched_app(&a, &b);
            assert!(t.is_some());
        }
        assert_eq!(touched_app(&a, &a.clone()), None);
    }

    #[test]
    #[should_panic(expected = "tenure")]
    fn zero_tenure_rejected() {
        let e = env();
        let _ = TabuSearch::new(&e).with_tenure(0);
    }
}
