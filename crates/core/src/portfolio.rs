//! Work-stealing portfolio solver.
//!
//! The paper's search restarts many times within a budget, and
//! independent restarts are embarrassingly parallel: the portfolio runs
//! one greedy/refit [`DesignSolver`] task per seed and keeps the global
//! best. With cooperation on, it keeps those independent restarts as its
//! backbone (so it can never do worse) and layers two mechanisms on top:
//!
//! * **a shared incumbent** — a seqlock-style slot (atomic epoch + atomic
//!   cost bits + guarded payload) every finished task publishes into.
//!   Diversification tasks (annealing, tabu) adopt the incumbent as their
//!   starting design when one exists, so later tasks refine the best
//!   design found so far instead of restarting from scratch;
//! * **work stealing** — tasks are dealt round-robin onto per-worker
//!   deques; a worker that drains its own deque steals from the back of
//!   its neighbors', so stragglers never leave cores idle.
//!
//! All workers share one [`EvalCache`] (completions replay bit-identically
//! across threads) and each worker keeps one scenario-outcome cache for
//! its whole lifetime, so scenario pricing persists across the tasks it
//! executes.
//!
//! # Determinism and the baseline guarantee
//!
//! The final winner is an order-independent *min* over all task results
//! under the total order (score, seed, strategy rank), so ties break by
//! lowest seed and the winner is a pure function of the seed set. Greedy
//! tasks are the independent-restart baseline (what
//! [`Portfolio::with_cooperation`]`(false)` runs alone) and shared-cache
//! replays are bit-identical, so the cooperative portfolio's winner costs
//! no more than the baseline's regardless of thread scheduling. With one
//! worker and cooperation off the portfolio *is* the sequential
//! min-over-seeds, bit for bit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dsd_obs::progress;
use dsd_recovery::ScenarioOutcomeCache;

use crate::budget::Budget;
use crate::candidate::Candidate;
use crate::design_solver::{DesignSolver, SolveOutcome, SolveStats};
use crate::env::Environment;
use crate::eval_cache::{EvalCache, DEFAULT_CACHE_CAPACITY};
use crate::heuristics::{SimulatedAnnealing, TabuSearch};

/// One unit of portfolio work: a full solver run on one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// The two-stage greedy/refit solver — the independent-restart
    /// baseline, replicated verbatim.
    Greedy { seed: u64 },
    /// Simulated annealing, refining the shared incumbent when one
    /// exists.
    Anneal { seed: u64 },
    /// Tabu search, refining the shared incumbent when one exists.
    Tabu { seed: u64 },
}

impl Task {
    fn seed(self) -> u64 {
        match self {
            Task::Greedy { seed } | Task::Anneal { seed } | Task::Tabu { seed } => seed,
        }
    }

    /// Tie-break rank: the baseline strategy wins ties so adding
    /// cooperative strategies can never change a tied outcome.
    fn rank(self) -> u8 {
        match self {
            Task::Greedy { .. } => 0,
            Task::Anneal { .. } => 1,
            Task::Tabu { .. } => 2,
        }
    }

    /// Span name for the profiler's per-task frames (static per strategy
    /// so trees from all workers merge by path).
    fn span_name(self) -> &'static str {
        match self {
            Task::Greedy { .. } => "portfolio.greedy",
            Task::Anneal { .. } => "portfolio.anneal",
            Task::Tabu { .. } => "portfolio.tabu",
        }
    }
}

/// Totally ordered key identifying a task result: lower is better. Score
/// first (positive finite costs, compared by bit pattern — identical to
/// numeric order), then producing seed, then strategy rank.
type ResultKey = (u64, u64, u8);

fn result_key(score: f64, seed: u64, rank: u8) -> ResultKey {
    (score.to_bits(), seed, rank)
}

/// The seqlock-style shared incumbent.
///
/// `cost_bits` holds the published score's bit pattern (`u64::MAX` while
/// empty) and is readable lock-free: workers peek it to decide whether
/// locking the payload is worth it. `epoch` is odd while a publish is in
/// flight and increments twice per successful publish, so readers can
/// detect both "a write is happening" and "something changed since I last
/// looked" without taking the lock.
struct SharedIncumbent {
    epoch: AtomicU64,
    cost_bits: AtomicU64,
    slot: Mutex<Option<IncumbentEntry>>,
}

struct IncumbentEntry {
    key: ResultKey,
    candidate: Candidate,
}

impl SharedIncumbent {
    fn new() -> Self {
        SharedIncumbent {
            epoch: AtomicU64::new(0),
            cost_bits: AtomicU64::new(u64::MAX),
            slot: Mutex::new(None),
        }
    }

    /// Publishes a finished task's best design if it beats the current
    /// incumbent under the (score, seed, rank) order.
    fn publish(&self, key: ResultKey, candidate: &Candidate) {
        // Cheap rejection without the lock: scores are monotone
        // decreasing, so a strictly worse score can never win.
        if key.0 > self.cost_bits.load(Ordering::Acquire) {
            dsd_obs::add("portfolio.publish_rejects", 1);
            return;
        }
        let mut slot = self.slot.lock().expect("incumbent lock poisoned");
        let better = slot.as_ref().is_none_or(|held| key < held.key);
        if better {
            self.epoch.fetch_add(1, Ordering::AcqRel); // now odd: write in flight
            self.cost_bits.store(key.0, Ordering::Release);
            *slot = Some(IncumbentEntry { key, candidate: candidate.clone() });
            self.epoch.fetch_add(1, Ordering::AcqRel); // even again: published
            dsd_obs::add("portfolio.publish_accepts", 1);
        } else {
            dsd_obs::add("portfolio.publish_rejects", 1);
        }
    }

    /// Returns a clone of the current incumbent when one exists and its
    /// score (bit pattern) beats `than_bits`. The lock-free peek makes
    /// the common no-incumbent / not-better case free.
    fn adopt_if_better(&self, than_bits: u64) -> Option<(f64, Candidate)> {
        if self.cost_bits.load(Ordering::Acquire) >= than_bits {
            dsd_obs::add("portfolio.adopt_rejects", 1);
            return None;
        }
        let slot = self.slot.lock().expect("incumbent lock poisoned");
        let adopted = slot
            .as_ref()
            .filter(|held| held.key.0 < than_bits)
            .map(|held| (f64::from_bits(held.key.0), held.candidate.clone()));
        dsd_obs::add(
            if adopted.is_some() { "portfolio.adopts" } else { "portfolio.adopt_rejects" },
            1,
        );
        adopted
    }

    /// Published-generation count (half the epoch, which bumps twice per
    /// successful publish).
    fn generations(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) / 2
    }
}

/// Outcome of a portfolio run: the merged [`SolveOutcome`] plus
/// cooperation counters.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The winning design and merged run statistics (stats are summed
    /// over every task).
    pub outcome: SolveOutcome,
    /// Worker threads used.
    pub workers: usize,
    /// Tasks executed (greedy restarts plus cooperative refinements).
    pub tasks: u64,
    /// Tasks a worker stole from another worker's deque.
    pub steals: u64,
    /// Times a task started from the shared incumbent instead of a
    /// random design.
    pub adoptions: u64,
    /// Incumbent publishes that improved the shared slot.
    pub incumbent_generations: u64,
}

/// Work-stealing portfolio of design-space search strategies.
///
/// ```no_run
/// use dsd_core::{Budget, Environment, Portfolio};
/// # fn env() -> Environment { unimplemented!() }
/// let environment = env();
/// let outcome = Portfolio::new(&environment)
///     .with_workers(8)
///     .solve(Budget::iterations(100), &[1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Portfolio<'e> {
    env: &'e Environment,
    workers: usize,
    cooperation: bool,
}

impl<'e> Portfolio<'e> {
    /// Creates a portfolio sized to the machine (one worker per available
    /// CPU), with cooperation enabled.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        let workers =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        Portfolio { env, workers, cooperation: true }
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Toggles cooperation. When off, only the greedy baseline tasks run:
    /// independent restarts, one [`DesignSolver`] per seed. One worker
    /// then reproduces the sequential min-over-seeds bit for bit, and any
    /// worker count picks the same winner (ties break by lowest seed).
    #[must_use]
    pub fn with_cooperation(mut self, cooperation: bool) -> Self {
        self.cooperation = cooperation;
        self
    }

    /// Runs the portfolio: every seed gets a greedy baseline task and —
    /// with cooperation on — an annealing and a tabu refinement task,
    /// each with the same per-task `budget`. Returns the best design
    /// under the deterministic (score, seed, strategy) order.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or a worker thread panics.
    #[must_use]
    pub fn solve(&self, budget: Budget, seeds: &[u64]) -> PortfolioOutcome {
        let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
        self.solve_with_cache(budget, seeds, &cache)
    }

    /// [`Portfolio::solve`] with a caller-provided shared evaluation
    /// cache (reusable across invocations).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or a worker thread panics.
    #[must_use]
    pub fn solve_with_cache(
        &self,
        budget: Budget,
        seeds: &[u64],
        cache: &EvalCache,
    ) -> PortfolioOutcome {
        assert!(!seeds.is_empty(), "need at least one seed");
        let started = dsd_obs::Stopwatch::start();
        let mut span = dsd_obs::span("solver.portfolio", "solver");
        span.arg("workers", self.workers);
        span.arg("seeds", seeds.len());
        dsd_obs::gauge("portfolio.workers", self.workers as f64);
        progress::phase_entered("portfolio");

        // Deal tasks round-robin onto per-worker deques: baseline greedy
        // tasks first (lowest seeds land on distinct workers), then the
        // cooperative refinements, which benefit from starting late —
        // there is usually an incumbent to adopt by the time they run.
        let mut tasks: Vec<Task> = seeds.iter().map(|&seed| Task::Greedy { seed }).collect();
        if self.cooperation {
            tasks.extend(seeds.iter().map(|&seed| Task::Anneal { seed }));
            tasks.extend(seeds.iter().map(|&seed| Task::Tabu { seed }));
        }
        let task_count = tasks.len() as u64;
        let deques: Vec<Mutex<VecDeque<Task>>> =
            (0..self.workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            deques[i % self.workers].lock().expect("deque lock poisoned").push_back(task);
        }

        let incumbent = SharedIncumbent::new();
        let results: Mutex<Vec<(ResultKey, SolveOutcome)>> = Mutex::new(Vec::new());
        let (steals, adoptions) = (AtomicU64::new(0), AtomicU64::new(0));
        let recorder = dsd_obs::current();

        std::thread::scope(|scope| {
            for own in 0..self.workers {
                let (deques, incumbent, results) = (&deques, &incumbent, &results);
                let (steals, adoptions) = (&steals, &adoptions);
                let recorder = recorder.clone();
                scope.spawn(move || {
                    let _obs_guard = recorder.as_ref().map(dsd_obs::Recorder::install);
                    // The worker frame: per-task spans nest inside it, so
                    // in the folded profile a worker's self time *is* its
                    // idle (fetch/steal/publish) time and its children are
                    // its eval time.
                    let mut worker_span = dsd_obs::span("portfolio.worker", "portfolio");
                    worker_span.arg("worker", own as u64);
                    let worker_started = dsd_obs::enabled().then(dsd_obs::Stopwatch::start);
                    let mut eval_secs = 0.0f64;
                    // One scenario-outcome cache for this worker's whole
                    // lifetime: scenario pricing persists across tasks.
                    let mut scache = ScenarioOutcomeCache::new();
                    let mut my_steals = 0u64;
                    let mut my_adoptions = 0u64;
                    while let Some(task) = next_task(own, deques, &mut my_steals) {
                        let mut task_span = dsd_obs::span(task.span_name(), "portfolio");
                        task_span.arg("seed", task.seed());
                        let task_started = worker_started.is_some().then(dsd_obs::Stopwatch::start);
                        let outcome = self.run_task(
                            task,
                            budget,
                            cache,
                            incumbent,
                            &mut scache,
                            &mut my_adoptions,
                        );
                        if let Some(started) = task_started {
                            eval_secs += started.elapsed_secs();
                        }
                        drop(task_span);
                        if let Some(best) = &outcome.best {
                            let score = self.env.score(best.cost()).as_f64();
                            let key = result_key(score, task.seed(), task.rank());
                            incumbent.publish(key, best);
                            results.lock().expect("results lock poisoned").push((key, outcome));
                        } else {
                            let key = (u64::MAX, task.seed(), task.rank());
                            results.lock().expect("results lock poisoned").push((key, outcome));
                        }
                    }
                    if let Some(started) = worker_started {
                        // Idle-vs-eval split, also available without a
                        // trace file: merged histograms over all workers.
                        dsd_obs::observe("portfolio.worker_eval_secs", eval_secs);
                        dsd_obs::observe(
                            "portfolio.worker_idle_secs",
                            (started.elapsed_secs() - eval_secs).max(0.0),
                        );
                    }
                    steals.fetch_add(my_steals, Ordering::Relaxed);
                    adoptions.fetch_add(my_adoptions, Ordering::Relaxed);
                });
            }
        });

        let results = results.into_inner().expect("results lock poisoned");
        let mut stats = SolveStats::default();
        for (_, outcome) in &results {
            stats.merge(&outcome.stats);
        }
        // Order-independent min: the winner depends only on the task set,
        // never on which thread finished first.
        let mut outcome = results
            .into_iter()
            .min_by_key(|(key, _)| *key)
            .map(|(_, outcome)| outcome)
            .expect("at least one task ran");
        outcome.stats = stats;
        outcome.elapsed = started.elapsed();
        outcome.cache = Some(cache.stats());
        cache.publish_occupancy();
        PortfolioOutcome {
            outcome,
            workers: self.workers,
            tasks: task_count,
            steals: steals.into_inner(),
            adoptions: adoptions.into_inner(),
            incumbent_generations: incumbent.generations(),
        }
    }

    fn run_task(
        &self,
        task: Task,
        budget: Budget,
        cache: &EvalCache,
        incumbent: &SharedIncumbent,
        scache: &mut ScenarioOutcomeCache,
        my_adoptions: &mut u64,
    ) -> SolveOutcome {
        let mut rng = ChaCha8Rng::seed_from_u64(task.seed());
        match task {
            // The baseline, verbatim: own internal scenario cache, so a
            // greedy task's result is bit-identical to the sequential
            // solver's run on the same seed no matter which worker or
            // shared cache state executes it.
            Task::Greedy { .. } => {
                DesignSolver::new(self.env).with_cache(cache).solve(budget, &mut rng)
            }
            Task::Anneal { .. } | Task::Tabu { .. } => {
                let start = incumbent.adopt_if_better(u64::MAX).map(|(cost, start)| {
                    *my_adoptions += 1;
                    progress::incumbent_adopted(cost, *my_adoptions);
                    start
                });
                if let Task::Anneal { .. } = task {
                    SimulatedAnnealing::new(self.env)
                        .with_cache(cache)
                        .solve_from(start, budget, scache, &mut rng)
                } else {
                    TabuSearch::new(self.env)
                        .with_cache(cache)
                        .solve_from(start, budget, scache, &mut rng)
                }
            }
        }
    }
}

/// Pops the next task for worker `own`: front of its own deque first,
/// then the *back* of each neighbor's deque in cyclic order (classic
/// work-stealing — owners and thieves contend on opposite ends).
fn next_task(own: usize, deques: &[Mutex<VecDeque<Task>>], my_steals: &mut u64) -> Option<Task> {
    if let Some(task) = deques[own].lock().expect("deque lock poisoned").pop_front() {
        return Some(task);
    }
    // Contention telemetry: how long one pass over the victims' deque
    // locks takes (successful or not). Only timed when a recorder is
    // listening, and never consumes randomness.
    let probe = dsd_obs::enabled().then(dsd_obs::Stopwatch::start);
    let stolen = steal_task(own, deques, my_steals);
    if let Some(probe) = probe {
        dsd_obs::observe("portfolio.steal_latency", probe.elapsed_secs());
    }
    stolen
}

/// One cyclic steal pass over the other workers' deques.
fn steal_task(own: usize, deques: &[Mutex<VecDeque<Task>>], my_steals: &mut u64) -> Option<Task> {
    let n = deques.len();
    for offset in 1..n {
        let victim = (own + offset) % n;
        if let Some(task) = deques[victim].lock().expect("deque lock poisoned").pop_back() {
            *my_steals += 1;
            progress::task_stolen(victim as u64, *my_steals);
            return Some(task);
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
    fn single_worker_without_cooperation_matches_sequential_min() {
        let e = env();
        let budget = Budget::iterations(10);
        let seeds = [7u64, 3, 11];
        let portfolio =
            Portfolio::new(&e).with_workers(1).with_cooperation(false).solve(budget, &seeds);
        // Sequential reference: lowest cost, ties to lowest seed.
        let mut best: Option<(u64, f64)> = None;
        for &seed in &seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out = DesignSolver::new(&e).solve(budget, &mut rng);
            if let Some(b) = out.best {
                let cost = e.score(b.cost()).as_f64();
                let better = best.is_none_or(|(held_seed, held)| {
                    cost < held || (cost == held && seed < held_seed)
                });
                if better {
                    best = Some((seed, cost));
                }
            }
        }
        let expected = best.expect("feasible").1;
        let got = e.score(portfolio.outcome.best.expect("feasible").cost()).as_f64();
        assert_eq!(got.to_bits(), expected.to_bits(), "got {got}, expected {expected}");
        assert_eq!(portfolio.tasks, 3);
        assert_eq!(portfolio.steals, 0, "single worker has nobody to steal from");
    }

    #[test]
    fn portfolio_is_deterministic_per_seed_set() {
        let e = env();
        let budget = Budget::iterations(8);
        let a = Portfolio::new(&e).with_workers(1).with_cooperation(false).solve(budget, &[4, 9]);
        let b = Portfolio::new(&e).with_workers(1).with_cooperation(false).solve(budget, &[9, 4]);
        assert_eq!(
            a.outcome.best.map(|c| c.cost().total().as_f64().to_bits()),
            b.outcome.best.map(|c| c.cost().total().as_f64().to_bits()),
        );
    }

    #[test]
    fn cooperative_portfolio_bounded_by_baseline_and_lower_bound() {
        let e = env();
        let budget = Budget::iterations(10);
        let seeds = [1u64, 2, 3, 4];
        let baseline =
            Portfolio::new(&e).with_workers(4).with_cooperation(false).solve(budget, &seeds);
        let baseline_cost = e.score(baseline.outcome.best.expect("feasible").cost());
        let portfolio = Portfolio::new(&e).with_workers(4).solve(budget, &seeds);
        let portfolio_cost = e.score(portfolio.outcome.best.expect("feasible").cost());
        assert!(
            portfolio_cost <= baseline_cost,
            "portfolio {portfolio_cost:?} must not lose to independent restarts {baseline_cost:?}"
        );
        let bound = e.certified_lower_bound();
        assert!(
            portfolio_cost.as_f64() >= bound.total.as_f64() - 1e-6,
            "portfolio {portfolio_cost:?} below certified lower bound {bound:?}"
        );
        assert_eq!(portfolio.tasks, 12, "4 seeds x 3 strategies");
    }

    #[test]
    fn ties_break_by_lowest_seed_regardless_of_scheduling() {
        let e = env();
        let budget = Budget::iterations(10);
        let independent = |seeds: &[u64]| {
            let run =
                Portfolio::new(&e).with_workers(4).with_cooperation(false).solve(budget, seeds);
            run.outcome.best.map(|c| c.cost().total().as_f64().to_bits())
        };
        // Duplicated seeds force exact cost ties; the merge must then be
        // deterministic across runs even though thread finish order is
        // not. Shuffled seed order must not change the winner either.
        assert_eq!(independent(&[5, 5, 5, 5]), independent(&[5, 5, 5, 5]));
        assert_eq!(independent(&[1, 2, 3]), independent(&[3, 2, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let e = env();
        let _ = Portfolio::new(&e)
            .with_workers(4)
            .with_cooperation(false)
            .solve(Budget::iterations(1), &[]);
    }

    #[test]
    fn incumbent_orders_by_score_then_seed_then_rank() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut c = crate::heuristics::random_design(&e, 10, &mut rng).expect("feasible");
        c.evaluate(&e);
        let shared = SharedIncumbent::new();
        assert!(shared.adopt_if_better(u64::MAX).is_none(), "empty slot adopts nothing");
        shared.publish(result_key(100.0, 5, 2), &c);
        assert_eq!(shared.generations(), 1);
        // Worse score: rejected without bumping the epoch.
        shared.publish(result_key(200.0, 1, 0), &c);
        assert_eq!(shared.generations(), 1);
        // Same score, lower seed: wins.
        shared.publish(result_key(100.0, 2, 2), &c);
        assert_eq!(shared.generations(), 2);
        // Same score and seed, baseline rank: wins.
        shared.publish(result_key(100.0, 2, 0), &c);
        assert_eq!(shared.generations(), 3);
        let adopted = shared.adopt_if_better(u64::MAX).expect("incumbent present");
        assert_eq!(adopted.0.to_bits(), 100.0f64.to_bits());
        assert!(shared.adopt_if_better(100.0f64.to_bits()).is_none(), "not strictly better");
    }

    #[test]
    fn stealing_happens_when_deques_are_unbalanced() {
        let deques: Vec<Mutex<VecDeque<Task>>> =
            vec![Mutex::new(VecDeque::new()), Mutex::new(VecDeque::new())];
        deques[1].lock().unwrap().extend([Task::Greedy { seed: 1 }, Task::Greedy { seed: 2 }]);
        let mut steals = 0;
        // Worker 0 owns an empty deque: both pops must steal from the
        // back of worker 1's.
        assert_eq!(next_task(0, &deques, &mut steals), Some(Task::Greedy { seed: 2 }));
        assert_eq!(next_task(0, &deques, &mut steals), Some(Task::Greedy { seed: 1 }));
        assert_eq!(next_task(0, &deques, &mut steals), None);
        assert_eq!(steals, 2);
    }
}
