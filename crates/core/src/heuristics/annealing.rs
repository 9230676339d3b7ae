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
//! Beyond the standalone baseline ([`SimulatedAnnealing::solve`], random
//! start), the annealer can start from a caller-provided design
//! ([`SimulatedAnnealing::solve_from`]) and share the evaluation cache —
//! this is how portfolio workers refine the shared incumbent.

use dsd_obs as obs;
use dsd_obs::progress;
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;

use crate::budget::{Budget, BudgetTracker};
use crate::candidate::Candidate;
use crate::config_solver::Thoroughness;
use crate::design_solver::{NodeCompleter, SolveOutcome, SolveStats};
use crate::env::Environment;
use crate::eval_cache::EvalCache;
use crate::flight::{heartbeat, FlightPlan};
use crate::heuristics::random::random_design;
use crate::reconfigure::Reconfigurator;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingParams {
    /// Initial temperature as a fraction of the starting design's total
    /// cost (so the scale adapts to the environment).
    pub initial_temp_fraction: f64,
    /// Multiplicative cooling factor applied every
    /// [`AnnealingParams::steps_per_temp`] proposals.
    pub cooling: f64,
    /// Proposals evaluated at each temperature.
    pub steps_per_temp: usize,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams { initial_temp_fraction: 0.1, cooling: 0.95, steps_per_temp: 10 }
    }
}

/// Simulated annealing over reconfiguration moves.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing<'e> {
    env: &'e Environment,
    params: AnnealingParams,
    addition_limits: (usize, usize),
    cache: Option<&'e EvalCache>,
}

impl<'e> SimulatedAnnealing<'e> {
    /// Creates the annealer with default parameters.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        SimulatedAnnealing {
            env,
            params: AnnealingParams::default(),
            addition_limits: (4, 32),
            cache: None,
        }
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

    /// Overrides the schedule (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the cooling factor is outside `(0, 1)` or the schedule
    /// is otherwise degenerate.
    #[must_use]
    pub fn with_params(mut self, params: AnnealingParams) -> Self {
        assert!(
            params.cooling > 0.0 && params.cooling < 1.0,
            "cooling factor must be in (0,1): {}",
            params.cooling
        );
        assert!(params.steps_per_temp >= 1, "need at least one step per temperature");
        assert!(params.initial_temp_fraction > 0.0, "initial temperature must be positive");
        self.params = params;
        self
    }

    fn completer(&self) -> NodeCompleter<'e> {
        NodeCompleter::new(self.env, self.addition_limits, self.cache)
    }

    /// Anneals until the budget expires; returns the best design seen.
    /// Starts from a random feasible design.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        let mut scache = ScenarioOutcomeCache::new();
        self.solve_with(budget, &mut scache, rng)
    }

    /// [`SimulatedAnnealing::solve`] with a caller-provided scenario
    /// cache, so scenario-level reuse persists across successive runs
    /// (portfolio workers keep one per worker).
    pub fn solve_with<R: Rng + ?Sized>(
        &self,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let _solve_span = obs::span("anneal.solve", "heuristic");
        let mut tracker = budget.start();
        let mut stats = SolveStats::default();
        let flight = FlightPlan::new(self.env);
        progress::phase_entered("anneal");
        let completer = self.completer();

        // Start from a random feasible design.
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

    /// Anneals from a caller-provided starting design (e.g. the
    /// portfolio's shared incumbent) until the budget expires. The start
    /// is re-completed under this annealer's addition limits first, so
    /// its configuration lives in the same search space as the walk.
    pub fn solve_from<R: Rng + ?Sized>(
        &self,
        start: Candidate,
        budget: Budget,
        scache: &mut ScenarioOutcomeCache,
        rng: &mut R,
    ) -> SolveOutcome {
        let _solve_span = obs::span("anneal.solve_from", "heuristic");
        let tracker = budget.start();
        let mut stats = SolveStats::default();
        let flight = FlightPlan::new(self.env);
        progress::phase_entered("anneal");
        let completer = self.completer();
        let mut current = start;
        completer.complete(&mut current, Thoroughness::Quick, &mut stats, scache);
        self.run(current, tracker, stats, &flight, scache, rng)
    }

    /// The annealing walk proper, shared by both entry points.
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

        let mut temperature =
            self.env.score(current.cost()).as_f64() * self.params.initial_temp_fraction;
        let mut step = 0usize;
        while !tracker.expired() {
            tracker.tick();
            let mut proposal = current.clone();
            if !reconf.reconfigure_with(self.env, &mut proposal, scache, rng) {
                continue;
            }
            completer.complete(&mut proposal, Thoroughness::Quick, &mut stats, scache);

            let delta =
                self.env.score(proposal.cost()).as_f64() - self.env.score(current.cost()).as_f64();
            let accept = delta < 0.0
                || (temperature > 0.0 && rng.gen_range(0.0..1.0f64) < (-delta / temperature).exp());
            if obs::enabled() {
                obs::instant_with(
                    "anneal.move",
                    "heuristic",
                    vec![
                        ("delta", delta.into()),
                        ("temp", temperature.into()),
                        ("accepted", accept.into()),
                    ],
                );
            }
            obs::add(if accept { "anneal.accepted" } else { "anneal.rejected" }, 1);
            if accept {
                current = proposal;
                if self.env.score(current.cost()) < self.env.score(best.cost()) {
                    best = current.clone();
                    flight.incumbent(best.cost().total(), stats.nodes_evaluated);
                }
            }
            if stats.nodes_evaluated.is_multiple_of(32) {
                heartbeat(stats.nodes_evaluated, tracker.elapsed(), stats.cache_hit_rate());
            }

            step += 1;
            if step.is_multiple_of(self.params.steps_per_temp) {
                temperature *= self.params.cooling;
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
            start,
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

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn bad_cooling_rejected() {
        let e = env();
        let _ = SimulatedAnnealing::new(&e)
            .with_params(AnnealingParams { cooling: 1.5, ..AnnealingParams::default() });
    }
}
