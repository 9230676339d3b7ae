//! Tabu search baseline.
//!
//! The second classic local-search metaheuristic from the paper's related
//! work (§5, citing Glover). Moves are the same reconfiguration steps the
//! design solver uses; the tabu list forbids re-reconfiguring the same
//! application for a fixed tenure, forcing the walk to diversify instead
//! of oscillating between two designs.
//!
//! Tabu search owns only its move pool and tabu list; the start,
//! budget, bookkeeping and final polish are the local-search walk it
//! shares with the annealer. [`TabuSearch::solve`] starts from a random
//! feasible design; [`TabuSearch::solve_from`] takes an optional
//! caller-provided start and a scenario cache that outlives the run, and
//! with a shared evaluation cache the portfolio's diversification
//! workers run it over the shared incumbent.

use std::collections::VecDeque;

use dsd_obs as obs;
use dsd_obs::progress;
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;
use dsd_workload::AppId;

use crate::budget::Budget;
use crate::candidate::Candidate;
use crate::config_solver::Thoroughness;
use crate::design_solver::{NodeCompleter, SolveOutcome};
use crate::env::Environment;
use crate::eval_cache::EvalCache;
use crate::reconfigure::Reconfigurator;
use crate::search::{walk, SearchRun};

/// Number of recently reconfigured applications that may not be touched
/// again (the tabu tenure).
const TENURE: usize = 3;
/// Candidate moves evaluated per step; the best non-tabu move is taken
/// even if it worsens the design (classic tabu behavior).
const MOVES_PER_STEP: usize = 4;

/// Tabu search over reconfiguration moves.
#[derive(Debug, Clone, Copy)]
pub struct TabuSearch<'e> {
    env: &'e Environment,
    /// Resource-addition limits forwarded to the configuration solver.
    addition_limits: (usize, usize),
    cache: Option<&'e EvalCache>,
}

impl<'e> TabuSearch<'e> {
    /// Creates a tabu search with tenure 3 and 4 candidate moves per
    /// step.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        TabuSearch { env, addition_limits: (4, 32), cache: None }
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

    /// Searches from a random feasible design until the budget expires;
    /// returns the best design seen.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        self.solve_from(None, budget, &mut ScenarioOutcomeCache::new(), rng)
    }

    /// Searches until the budget expires from `start` (e.g. the
    /// portfolio's shared incumbent), or from a random feasible design
    /// when `start` is `None`. A start is re-completed under this
    /// search's addition limits first. `scache` lets scenario-level reuse
    /// persist across successive runs (portfolio workers keep one per
    /// worker).
    pub fn solve_from<R: Rng + ?Sized>(
        &self,
        start: Option<Candidate>,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let span = if start.is_some() { "tabu.solve_from" } else { "tabu.solve" };
        let _solve_span = obs::span(span, "heuristic");
        let run = SearchRun::start(self.env, budget);
        progress::phase_entered("tabu");
        let completer = NodeCompleter::new(self.env, self.addition_limits, self.cache);
        let mut reconf = Reconfigurator::default();
        let mut tabu: VecDeque<AppId> = VecDeque::with_capacity(TENURE);
        walk(run, start, completer, scache, rng, |current, run, scache, rng| {
            // Evaluate a small pool of moves; keep the best whose touched
            // application is not tabu (aspiration: a new global best is
            // always allowed).
            let mut chosen: Option<(Candidate, AppId)> = None;
            for _ in 0..MOVES_PER_STEP {
                let mut proposal = current.clone();
                if !reconf.reconfigure_with(self.env, &mut proposal, scache, rng) {
                    continue;
                }
                completer.complete(&mut proposal, Thoroughness::Quick, &mut run.stats, scache);
                let touched = touched_app(current, &proposal);
                let is_tabu = touched.is_some_and(|a| tabu.contains(&a));
                if is_tabu && !run.improves(&proposal) {
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
            let Some((next, touched)) = chosen else { return false };
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
            while tabu.len() > TENURE {
                tabu.pop_front();
            }
            *current = next;
            if run.improves(current) {
                run.offer(current.clone());
            }
            true
        })
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
    use crate::heuristics::random_design;
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
        let out = TabuSearch::new(&e).solve_from(
            Some(start),
            Budget::iterations(30),
            &mut scache,
            &mut rng,
        );
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
}
