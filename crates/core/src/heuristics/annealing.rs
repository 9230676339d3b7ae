//! Simulated annealing baseline.
//!
//! The paper's related work (§5) positions classic local-search
//! metaheuristics — simulated annealing, tabu search — as the natural
//! alternatives, arguing that "without sufficient information about the
//! underlying structure, we perform better by exploring a much larger
//! space at each local region". This module implements simulated
//! annealing over the *same* reconfiguration move set and configuration
//! solver as the design solver, so the comparison isolates the search
//! strategy itself.
//!
//! The annealer owns only its acceptance rule and cooling schedule; the
//! start, budget, bookkeeping and final polish are the local-search walk
//! it shares with tabu search. [`SimulatedAnnealing::solve`] starts from a
//! random feasible design; [`SimulatedAnnealing::solve_from`] takes an
//! optional caller-provided start and a scenario cache that outlives the
//! run, and with a shared evaluation cache this is how portfolio workers
//! refine the shared incumbent.

use dsd_obs as obs;
use dsd_obs::progress;
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;

use crate::budget::Budget;
use crate::candidate::Candidate;
use crate::config_solver::Thoroughness;
use crate::design_solver::{NodeCompleter, SolveOutcome};
use crate::env::Environment;
use crate::eval_cache::EvalCache;
use crate::reconfigure::Reconfigurator;
use crate::search::{walk, SearchRun};

/// Initial temperature as a fraction of the starting design's score (so
/// the scale adapts to the environment).
const INITIAL_TEMP_FRACTION: f64 = 0.1;
/// Multiplicative cooling factor applied every [`STEPS_PER_TEMP`]
/// proposals.
const COOLING: f64 = 0.95;
/// Proposals evaluated at each temperature.
const STEPS_PER_TEMP: usize = 10;

/// Simulated annealing over reconfiguration moves.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing<'e> {
    env: &'e Environment,
    addition_limits: (usize, usize),
    cache: Option<&'e EvalCache>,
}

impl<'e> SimulatedAnnealing<'e> {
    /// Creates the annealer.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        SimulatedAnnealing { env, addition_limits: (4, 32), cache: None }
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
    /// [`crate::DesignSolver::with_cache`]: completions are memoized and
    /// replayed bit-identically, so cached and uncached runs agree.
    #[must_use]
    pub fn with_cache(mut self, cache: &'e EvalCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Anneals from a random feasible design until the budget expires;
    /// returns the best design seen.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        self.solve_from(None, budget, &mut ScenarioOutcomeCache::new(), rng)
    }

    /// Anneals until the budget expires from `start` (e.g. the
    /// portfolio's shared incumbent), or from a random feasible design
    /// when `start` is `None`. A start is re-completed under this
    /// annealer's addition limits first, so its configuration lives in
    /// the same search space as the walk. `scache` lets scenario-level
    /// reuse persist across successive runs (portfolio workers keep one
    /// per worker).
    pub fn solve_from<R: Rng + ?Sized>(
        &self,
        start: Option<Candidate>,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let span = if start.is_some() { "anneal.solve_from" } else { "anneal.solve" };
        let _solve_span = obs::span(span, "heuristic");
        let run = SearchRun::start(self.env, budget);
        progress::phase_entered("anneal");
        let completer = NodeCompleter::new(self.env, self.addition_limits, self.cache);
        let mut reconf = Reconfigurator::default();
        let mut temperature = None;
        let mut step = 0usize;
        walk(run, start, completer, scache, rng, |current, run, scache, rng| {
            // The first step still sees the start design, whose score
            // sets the initial temperature.
            let temperature = temperature.get_or_insert_with(|| {
                self.env.score(current.cost()).as_f64() * INITIAL_TEMP_FRACTION
            });
            let mut proposal = current.clone();
            if !reconf.reconfigure_with(self.env, &mut proposal, scache, rng) {
                return false;
            }
            completer.complete(&mut proposal, Thoroughness::Quick, &mut run.stats, scache);

            let delta =
                self.env.score(proposal.cost()).as_f64() - self.env.score(current.cost()).as_f64();
            let accept = delta < 0.0
                || (*temperature > 0.0
                    && rng.gen_range(0.0..1.0f64) < (-delta / *temperature).exp());
            if obs::enabled() {
                obs::instant_with(
                    "anneal.move",
                    "heuristic",
                    vec![
                        ("delta", delta.into()),
                        ("temp", (*temperature).into()),
                        ("accepted", accept.into()),
                    ],
                );
            }
            obs::add(if accept { "anneal.accepted" } else { "anneal.rejected" }, 1);
            if accept {
                *current = proposal;
                if run.improves(current) {
                    run.offer(current.clone());
                }
            }
            step += 1;
            if step.is_multiple_of(STEPS_PER_TEMP) {
                *temperature *= COOLING;
            }
            true
        })
    }
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
    fn annealing_finds_feasible_designs() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let out = SimulatedAnnealing::new(&e).solve(Budget::iterations(40), &mut rng);
        let best = out.best.expect("feasible");
        assert!(best.is_complete(&e));
        assert!(best.cost().total().is_finite());
    }

    #[test]
    fn annealing_improves_over_its_random_start() {
        let e = env();
        // The random start alone is one sample; annealing with the same
        // seed must do at least as well.
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let start = {
            let mut c = random_design(&e, 10, &mut rng).expect("feasible start");
            c.evaluate(&e).total().as_f64()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let out = SimulatedAnnealing::new(&e).solve(Budget::iterations(60), &mut rng);
        let best = out.best.unwrap().cost().total().as_f64();
        assert!(best <= start, "annealed {best} vs start {start}");
    }

    #[test]
    fn annealing_is_deterministic_under_seed() {
        let e = env();
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            SimulatedAnnealing::new(&e)
                .solve(Budget::iterations(25), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn solve_from_never_loses_its_start() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let mut start = random_design(&e, 10, &mut rng).expect("feasible start");
        start.evaluate(&e);
        let start_cost = start.cost().total().as_f64();
        let mut scache = ScenarioOutcomeCache::new();
        let out = SimulatedAnnealing::new(&e).solve_from(
            Some(start),
            Budget::iterations(30),
            &mut scache,
            &mut rng,
        );
        let best = out.best.expect("start was feasible").cost().total().as_f64();
        // The walk tracks its best-ever design, so it can only match or
        // improve the (re-completed) start.
        assert!(best <= start_cost + 1e-6, "refined {best} vs start {start_cost}");
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        let e = env();
        let cache = EvalCache::new(256);
        let run = |cache: Option<&EvalCache>| {
            let mut rng = ChaCha8Rng::seed_from_u64(54);
            let mut annealer = SimulatedAnnealing::new(&e);
            if let Some(c) = cache {
                annealer = annealer.with_cache(c);
            }
            annealer.solve(Budget::iterations(25), &mut rng).best.map(|b| b.cost().total().as_f64())
        };
        assert_eq!(run(None), run(Some(&cache)));
        // Second cached run replays completions from the cache.
        assert_eq!(run(None), run(Some(&cache)));
        assert!(cache.stats().hits > 0);
    }
}
