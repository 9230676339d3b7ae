//! The design solver — Algorithm 1 of the paper.
//!
//! Stage 1 (*greedy best-fit*) builds a feasible design by adding one
//! application at a time — chosen randomly with probability proportional
//! to its penalty-rate sum — and exhaustively trying every eligible
//! technique × placement for it, keeping the cheapest.
//!
//! Stage 2 (*refit*) explores the neighborhood of the greedy design: from
//! the current node it spawns `b` random sibling reconfigurations, walks
//! each down `d` levels (at every level evaluating `b` random neighbors
//! and following the best), jumps to the best node found, and stops at a
//! local optimum. The outer loop restarts from a fresh greedy design
//! until the budget expires, returning the best design seen anywhere.
//!
//! The paper's stack-based pseudocode bookkeeping is replaced by
//! equivalent explicit best-tracking; the explored node set (b siblings ×
//! depth-d best-of-b walks per round) is the same.

use std::time::Duration;

use dsd_obs as obs;
use dsd_obs::{duration_ns, progress, Stopwatch};
use rand::Rng;

use dsd_recovery::ScenarioOutcomeCache;
use dsd_units::Dollars;
use dsd_workload::AppId;

use crate::budget::Budget;
use crate::candidate::{Candidate, PlacementOptions};
use crate::config_solver::{ConfigurationSolver, Thoroughness};
use crate::delta::Move;
use crate::env::Environment;
use crate::eval_cache::{CacheStats, EvalCache};
use crate::reconfigure::{weighted_index, Reconfigurator};
use crate::search::SearchRun;

/// Refit-stage shape parameters (paper §3.1.2: breadth `b`, typically 3;
/// depth `d`, typically 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefitParams {
    /// Number of sibling subtrees / neighbors per level (`b`).
    pub breadth: usize,
    /// Depth of each sibling walk (`d`).
    pub depth: usize,
    /// Maximum refit rounds before declaring a local optimum anyway.
    pub max_rounds: usize,
}

impl Default for RefitParams {
    fn default() -> Self {
        RefitParams { breadth: 3, depth: 5, max_rounds: 25 }
    }
}

/// Counters and timers describing one solve run.
///
/// The stage timers partially overlap: `completion_time` counts every
/// configuration-solver completion wherever it happens, so completions
/// performed inside the refit walk are included in both `refit_time` and
/// `completion_time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Completed greedy stage-1 constructions.
    pub greedy_builds: u64,
    /// Greedy constructions abandoned as infeasible.
    pub greedy_failures: u64,
    /// Refit rounds executed.
    pub refit_rounds: u64,
    /// Candidate nodes evaluated (configuration-solver completions).
    pub nodes_evaluated: u64,
    /// Completions answered from the evaluation cache.
    pub cache_hits: u64,
    /// Completions that missed the evaluation cache (and were computed).
    pub cache_misses: u64,
    /// Wall time in the greedy best-fit stage.
    pub greedy_time: Duration,
    /// Wall time in the refit stage (including its inner completions).
    pub refit_time: Duration,
    /// Wall time in configuration-solver completions (cached or not).
    pub completion_time: Duration,
}

impl SolveStats {
    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &SolveStats) {
        self.greedy_builds += other.greedy_builds;
        self.greedy_failures += other.greedy_failures;
        self.refit_rounds += other.refit_rounds;
        self.nodes_evaluated += other.nodes_evaluated;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.greedy_time += other.greedy_time;
        self.refit_time += other.refit_time;
        self.completion_time += other.completion_time;
    }

    /// Publishes these counters into the currently installed
    /// [`dsd_obs`] metrics registry under the `solver.*` names (durations
    /// as `*_time_ns` counters). A no-op when no recorder is installed,
    /// so every search publishes its run once, on every exit path; the
    /// registry accumulates across runs exactly like [`SolveStats::merge`].
    pub fn publish(&self) {
        obs::add("solver.greedy_builds", self.greedy_builds);
        obs::add("solver.greedy_failures", self.greedy_failures);
        obs::add("solver.refit_rounds", self.refit_rounds);
        obs::add("solver.nodes_evaluated", self.nodes_evaluated);
        obs::add("solver.cache_hits", self.cache_hits);
        obs::add("solver.cache_misses", self.cache_misses);
        obs::add("solver.greedy_time_ns", duration_ns(self.greedy_time));
        obs::add("solver.refit_time_ns", duration_ns(self.refit_time));
        obs::add("solver.completion_time_ns", duration_ns(self.completion_time));
    }

    /// Reconstructs run counters from a metrics snapshot — the registry
    /// view of the series written by [`SolveStats::publish`]. Series that
    /// were never published read as zero; when several runs published
    /// into one registry the result is their [`SolveStats::merge`] sum.
    #[must_use]
    pub fn from_snapshot(snapshot: &obs::MetricsSnapshot) -> SolveStats {
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        SolveStats {
            greedy_builds: c("solver.greedy_builds"),
            greedy_failures: c("solver.greedy_failures"),
            refit_rounds: c("solver.refit_rounds"),
            nodes_evaluated: c("solver.nodes_evaluated"),
            cache_hits: c("solver.cache_hits"),
            cache_misses: c("solver.cache_misses"),
            greedy_time: Duration::from_nanos(c("solver.greedy_time_ns")),
            refit_time: Duration::from_nanos(c("solver.refit_time_ns")),
            completion_time: Duration::from_nanos(c("solver.completion_time_ns")),
        }
    }
}

/// Result of a solve: the best (evaluated) design found, if any design
/// was feasible, plus run statistics.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best complete design found (already evaluated), or `None` when no
    /// feasible design was found within the budget.
    pub best: Option<Candidate>,
    /// Run counters.
    pub stats: SolveStats,
    /// Wall time consumed.
    pub elapsed: Duration,
    /// Snapshot of the evaluation cache at the end of the run, when one
    /// was attached (its counters are cache-lifetime, not per-run: a
    /// cache shared across restarts or workers accumulates).
    pub cache: Option<CacheStats>,
    /// Optimality certificate for the best design against the relaxation
    /// lower bound, filled in by [`SolveOutcome::certify`].
    pub bound: Option<crate::bounds::Certificate>,
}

impl SolveOutcome {
    /// Candidate evaluations per wall-clock second over the whole run.
    #[must_use]
    pub fn evals_per_sec(&self) -> f64 {
        self.stats.nodes_evaluated as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fetches the relaxation lower bound for `env` (memoized on the
    /// environment), attaches a [`crate::bounds::Certificate`] for the
    /// best design (if any), and publishes the `bound.lower` /
    /// `bound.gap_pct` gauges. Returns the certificate for convenience.
    pub fn certify(&mut self, env: &Environment) -> Option<&crate::bounds::Certificate> {
        let best = self.best.as_ref()?;
        let lb = env.certified_lower_bound();
        let certificate = crate::bounds::Certificate::new(lb, best.cost().total());
        certificate.publish();
        self.bound = Some(certificate);
        self.bound.as_ref()
    }

    /// The certified optimality gap in percent, when [`SolveOutcome::certify`]
    /// has run and a best design exists.
    #[must_use]
    pub fn gap_pct(&self) -> Option<f64> {
        self.bound.as_ref().map(|c| c.gap_pct)
    }
}

/// The two-stage randomized design solver (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct DesignSolver<'e> {
    env: &'e Environment,
    refit: RefitParams,
    max_greedy_restarts: usize,
    alpha_util: f64,
    addition_limits: (usize, usize),
    cache: Option<&'e EvalCache>,
}

impl<'e> DesignSolver<'e> {
    /// Creates a solver with default refit parameters (b=3, d=5).
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        DesignSolver {
            env,
            refit: RefitParams::default(),
            max_greedy_restarts: 10,
            alpha_util: 0.9,
            addition_limits: (4, 32),
            cache: None,
        }
    }

    /// Attaches an evaluation cache (builder style). Completions are
    /// memoized in it and replayed on revisits; the same cache can be
    /// shared across restarts and across solver instances (including
    /// worker threads), and results stay bit-identical to the uncached
    /// solver.
    #[must_use]
    pub fn with_cache(mut self, cache: &'e EvalCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the refit parameters (builder style).
    #[must_use]
    pub fn with_refit(mut self, refit: RefitParams) -> Self {
        self.refit = refit;
        self
    }

    /// Overrides the reconfigurator's load-balance weight α_util
    /// (builder style; paper §3.1.3 sets it "close to one").
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn with_alpha_util(mut self, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]: {alpha}");
        self.alpha_util = alpha;
        self
    }

    /// Overrides the configuration solver's resource-addition limits
    /// (builder style); `(0, 0)` disables the addition loop.
    #[must_use]
    pub fn with_addition_limits(mut self, quick: usize, full: usize) -> Self {
        self.addition_limits = (quick, full);
        self
    }

    fn completer(&self) -> NodeCompleter<'e> {
        NodeCompleter::new(self.env, self.addition_limits, self.cache)
    }

    /// Runs the full two-stage search until the budget expires and
    /// returns the best design found, polished with a full configuration
    /// solve.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        let _solve_span = obs::span("solver.solve", "solver");
        let mut run = SearchRun::start(self.env, budget);
        let completer = self.completer();
        let mut reconf = Reconfigurator::new(self.alpha_util);
        // One scenario-outcome cache for the whole run: scenario-level
        // reuse composes with the completion-level eval cache.
        let mut scache = ScenarioOutcomeCache::new();
        let mut restarts = 0u64;

        while !run.tracker.expired() {
            if restarts > 0 {
                progress::restart(restarts);
            }
            restarts += 1;
            progress::phase_entered("greedy");
            let greedy_span = obs::span("solver.greedy", "solver");
            let greedy_started = Stopwatch::start();
            let built = self.greedy_stage(rng, &mut run, &mut scache);
            run.stats.greedy_time += greedy_started.elapsed();
            drop(greedy_span);
            let Some(mut current) = built else {
                run.stats.greedy_failures += 1;
                // Nothing feasible from this restart; if even the greedy
                // stage keeps failing there is no point burning the rest
                // of the budget on identical failures when the
                // environment is outright infeasible.
                if run.stats.greedy_builds == 0 && run.stats.greedy_failures >= 3 {
                    break;
                }
                continue;
            };
            run.stats.greedy_builds += 1;
            completer.complete(&mut current, Thoroughness::Quick, &mut run.stats, &mut scache);

            progress::phase_entered("refit");
            let refit_span = obs::span("solver.refit", "solver");
            let refit_started = Stopwatch::start();
            self.refit_stage(&mut current, &mut reconf, rng, &mut run, &mut scache);
            run.stats.refit_time += refit_started.elapsed();
            drop(refit_span);
            run.offer(current);
            run.heartbeat();
        }

        if run.best().is_some() {
            progress::phase_entered("polish");
            let _polish_span = obs::span("solver.polish", "solver");
            run.polish(&completer, &mut scache);
        }
        let outcome = run.finish(self.cache);
        if let Some(b) = &outcome.best {
            obs::gauge("solver.best_cost", self.env.score(b.cost()).as_f64());
        }
        if let Some(cache) = self.cache {
            obs::gauge("cache.hit_ratio", cache.stats().hit_rate());
            cache.publish_occupancy();
        }
        outcome
    }

    /// Stage 1: greedy best-fit (§3.1.1). Returns a complete feasible
    /// candidate or `None` after bounded restarts.
    fn greedy_stage<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        run: &mut SearchRun<'_>,
        scache: &mut ScenarioOutcomeCache,
    ) -> Option<Candidate> {
        'restart: for _ in 0..self.max_greedy_restarts {
            if run.tracker.expired() {
                return None;
            }
            let mut candidate = Candidate::empty(self.env);
            let mut unassigned: Vec<AppId> = self.env.workloads.ids().collect();
            while !unassigned.is_empty() {
                let weights: Vec<f64> =
                    unassigned.iter().map(|&a| self.env.workloads[a].priority().as_f64()).collect();
                let pick = weighted_index(&weights, rng).expect("non-empty");
                let app = unassigned.swap_remove(pick);
                if !self.best_fit_assign(&mut candidate, app, &mut run.stats, scache) {
                    run.tracker.tick();
                    continue 'restart; // infeasible: restart greedy
                }
                run.tracker.tick();
            }
            return Some(candidate);
        }
        None
    }

    /// Exhaustively tries every eligible technique × placement for `app`
    /// (default configuration) as in-place applied-and-undone moves, and
    /// commits the cheapest feasible one.
    fn best_fit_assign(
        &self,
        candidate: &mut Candidate,
        app: AppId,
        stats: &mut SolveStats,
        scache: &mut ScenarioOutcomeCache,
    ) -> bool {
        let class = self.env.workloads[app].class_with(&self.env.thresholds);
        let mut best: Option<(Dollars, Move)> = None;
        for (tid, technique) in self.env.catalog.eligible_for(class) {
            let config = technique.default_config();
            for placement in PlacementOptions::enumerate(self.env, tid) {
                let mv = Move::Reassign { app, technique: tid, config, placement };
                let Ok(undo) = candidate.apply_move(self.env, &mv) else {
                    continue;
                };
                obs::add(mv.trial_counter(), 1);
                let cost = self.env.score(candidate.evaluate_with(self.env, scache));
                stats.nodes_evaluated += 1;
                candidate.undo_move(undo);
                if best.as_ref().is_none_or(|&(c, _)| cost < c) {
                    best = Some((cost, mv));
                }
            }
        }
        match best {
            Some((cost, mv)) => {
                if obs::enabled() {
                    obs::instant_with(
                        "greedy.place",
                        "greedy",
                        vec![("app", app.0.into()), ("cost", cost.as_f64().into())],
                    );
                }
                obs::add(mv.accept_counter(), 1);
                candidate
                    .apply_move(self.env, &mv)
                    .expect("re-applying the chosen placement from the same state");
                true
            }
            None => false,
        }
    }

    /// Stage 2: refit (§3.1.2). Mutates `current` toward a local optimum.
    /// The run's best design comes from earlier restarts; progress
    /// incumbents only report designs that beat it, so they stay globally
    /// monotone.
    fn refit_stage<R: Rng + ?Sized>(
        &self,
        current: &mut Candidate,
        reconf: &mut Reconfigurator,
        rng: &mut R,
        run: &mut SearchRun<'_>,
        scache: &mut ScenarioOutcomeCache,
    ) {
        // Refit nodes complete with the same addition limits as the rest
        // of the search, so one cache namespace covers both stages.
        let completer = self.completer();
        let explore = |node: &Candidate,
                       reconf: &mut Reconfigurator,
                       rng: &mut R,
                       run: &mut SearchRun<'_>,
                       scache: &mut ScenarioOutcomeCache|
         -> Option<Candidate> {
            if run.tracker.expired() {
                return None;
            }
            run.tracker.tick();
            // A sibling needs an independent candidate object; the
            // trials *inside* the reconfiguration and completion are
            // clone-free moves.
            let mut next = node.clone();
            if !reconf.reconfigure_with(self.env, &mut next, scache, rng) {
                return None;
            }
            completer.complete(&mut next, Thoroughness::Quick, &mut run.stats, scache);
            if obs::enabled() {
                obs::instant_with(
                    "refit.move",
                    "refit",
                    vec![("cost", self.env.score(next.cost()).as_f64().into())],
                );
            }
            Some(next)
        };

        let mut best = current.clone();
        best.evaluate_with(self.env, scache);
        for _ in 0..self.refit.max_rounds {
            if run.tracker.expired() {
                break;
            }
            run.stats.refit_rounds += 1;
            let mut round_best: Option<Candidate> = None;

            for _ in 0..self.refit.breadth {
                // One sibling subtree rooted at a reconfiguration of the
                // round's starting node.
                let Some(mut node) = explore(current, reconf, rng, run, scache) else {
                    continue;
                };
                track_best(self.env, &mut round_best, node.clone());
                for _ in 0..self.refit.depth {
                    let mut level_best: Option<Candidate> = None;
                    for _ in 0..self.refit.breadth {
                        if let Some(n) = explore(&node, reconf, rng, run, scache) {
                            track_best(self.env, &mut level_best, n);
                        }
                    }
                    let Some(lb) = level_best else { break };
                    track_best(self.env, &mut round_best, lb.clone());
                    node = lb;
                }
            }

            match round_best {
                Some(rb) if self.env.score(rb.cost()) < self.env.score(best.cost()) => {
                    *current = rb.clone();
                    best = rb;
                    // Progress incumbents only report *global* improvements
                    // (a later restart's local walk may trail the best seen
                    // so far), keeping the convergence curve monotone.
                    if run.improves(&best) {
                        run.incumbent(best.cost().total());
                    }
                }
                // No improvement this round: local optimum (Algorithm 1's
                // termination test).
                _ => break,
            }
        }
        *current = best;
    }
}

/// How every search strategy (design solver, annealing, tabu) completes
/// a node: the configuration solver under the strategy's addition limits,
/// through its optional shared [`EvalCache`], so their [`SolveStats`]
/// count the same things.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCompleter<'e> {
    config: ConfigurationSolver<'e>,
    pub(crate) cache: Option<&'e EvalCache>,
}

impl<'e> NodeCompleter<'e> {
    pub(crate) fn new(
        env: &'e Environment,
        (quick, full): (usize, usize),
        cache: Option<&'e EvalCache>,
    ) -> Self {
        NodeCompleter {
            config: ConfigurationSolver::new(env).with_addition_limits(quick, full),
            cache,
        }
    }

    /// Completes one node, recording completion time, node count, and
    /// cache hit/miss counters.
    pub(crate) fn complete(
        &self,
        candidate: &mut Candidate,
        thoroughness: Thoroughness,
        stats: &mut SolveStats,
        scache: &mut ScenarioOutcomeCache,
    ) {
        let started = Stopwatch::start();
        match self.cache {
            Some(cache) => {
                let (_, hit) =
                    self.config.complete_cached_with(candidate, thoroughness, cache, scache);
                if hit {
                    stats.cache_hits += 1;
                    obs::instant("cache.hit", "cache");
                } else {
                    stats.cache_misses += 1;
                    obs::instant("cache.miss", "cache");
                }
            }
            None => {
                self.config.complete_with(candidate, thoroughness, scache);
            }
        }
        stats.completion_time += started.elapsed();
        stats.nodes_evaluated += 1;
        obs::observe("solver.eval_latency", started.elapsed().as_secs_f64());
    }
}

/// Keeps the better-scoring candidate under the environment's objective
/// (candidates must be evaluated).
fn track_best(env: &Environment, slot: &mut Option<Candidate>, candidate: Candidate) {
    debug_assert!(candidate.cost_if_evaluated().is_some());
    if slot.as_ref().is_none_or(|held| env.score(candidate.cost()) < env.score(held.cost())) {
        *slot = Some(candidate);
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

    fn env(apps: usize) -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn solver_finds_complete_feasible_design() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let out = DesignSolver::new(&e).solve(Budget::iterations(30), &mut rng);
        let best = out.best.expect("feasible environment must yield a design");
        assert!(best.is_complete(&e));
        assert!(best.cost().total().is_finite());
        assert!(out.stats.greedy_builds >= 1);
        assert!(out.stats.nodes_evaluated > 0);
    }

    #[test]
    fn solver_is_deterministic_under_seed() {
        let e = env(4);
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            DesignSolver::new(&e)
                .solve(Budget::iterations(20), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn more_budget_never_hurts() {
        let e = env(4);
        let cost_at = |iters| {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            DesignSolver::new(&e)
                .solve(Budget::iterations(iters), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
                .unwrap()
        };
        // Same seed: a longer run explores a superset of candidates.
        assert!(cost_at(60) <= cost_at(8) + 1e-6);
    }

    #[test]
    fn gold_apps_get_gold_protection() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let best = DesignSolver::new(&e).solve(Budget::iterations(30), &mut rng).best.unwrap();
        for (app, a) in best.assignments() {
            let class = e.workloads[*app].class_with(&e.thresholds);
            assert!(e.catalog[a.technique].category.satisfies(class));
        }
    }

    #[test]
    fn infeasible_environment_returns_none() {
        // One tiny site without tape: central banking's gold class needs a
        // mirror to another site, but there is only one site.
        let site =
            vec![Site::new(0, "solo").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
        let e = Environment::new(
            WorkloadSet::scaled_paper_mix(1),
            Arc::new(Topology::fully_connected(site, NetworkSpec::med())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let out = DesignSolver::new(&e).solve(Budget::iterations(10), &mut rng);
        assert!(out.best.is_none());
        assert!(out.stats.greedy_failures > 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SolveStats {
            greedy_builds: 1,
            greedy_failures: 2,
            refit_rounds: 3,
            nodes_evaluated: 4,
            cache_hits: 5,
            cache_misses: 6,
            greedy_time: Duration::from_millis(7),
            refit_time: Duration::from_millis(8),
            completion_time: Duration::from_millis(9),
        };
        let b = SolveStats {
            greedy_builds: 10,
            greedy_failures: 20,
            refit_rounds: 30,
            nodes_evaluated: 40,
            cache_hits: 50,
            cache_misses: 60,
            greedy_time: Duration::from_millis(70),
            refit_time: Duration::from_millis(80),
            completion_time: Duration::from_millis(90),
        };
        a.merge(&b);
        assert_eq!(a.greedy_builds, 11);
        assert_eq!(a.nodes_evaluated, 44);
        assert_eq!(a.cache_hits, 55);
        assert_eq!(a.cache_misses, 66);
        assert_eq!(a.greedy_time, Duration::from_millis(77));
        assert_eq!(a.refit_time, Duration::from_millis(88));
        assert_eq!(a.completion_time, Duration::from_millis(99));
    }
}
