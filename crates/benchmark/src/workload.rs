//! The four reference workloads, their timed operation, and the
//! end-to-end run.

use std::collections::BTreeMap;

use dsd_core::{
    lower_bound, technique_marginals, Budget, Candidate, Certificate, DesignSolver, Environment,
    EvalCache, Move, PlacementOptions, Portfolio, ScenarioOutcomeCache, SolveOutcome,
    DEFAULT_CACHE_CAPACITY,
};
use dsd_obs::{span, Stopwatch};
use dsd_scenarios::environments::{four_sites, peer_sites};
use dsd_scenarios::fleet::{fleet, FleetParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::Report;
use crate::stats::{mean, median};
use crate::DEFAULT_SEED;

/// A reference workload: one fixed environment and one kind of
/// operation, run back to back from one process (a closed loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default `dsd design` on the §4.3 peer-sites case study.
    PeerSites,
    /// Default `dsd design` on the §4.4/§4.5 four-sites(16) setting.
    FourSites16,
    /// One-worker portfolio solve on fleet(64).
    Fleet64Portfolio,
    /// The `dsd explain` path on a solved four-sites(16) design.
    ExplainFourSites16,
}

/// Problem size. `Tiny` shrinks every environment and budget so tests
/// can drive the whole pipeline in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The reference sizes.
    Full,
    /// Test sizes.
    Tiny,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PeerSites,
        Workload::FourSites16,
        Workload::Fleet64Portfolio,
        Workload::ExplainFourSites16,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PeerSites => "peer_sites",
            Workload::FourSites16 => "four_sites16",
            Workload::Fleet64Portfolio => "fleet64_portfolio",
            Workload::ExplainFourSites16 => "explain_four_sites16",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's environment. Environments are fixed
    /// reference inputs; the seed only drives the solvers.
    fn environment(self, scale: Scale) -> Environment {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::PeerSites => peer_sites(),
            Workload::FourSites16 | Workload::ExplainFourSites16 => {
                four_sites(if tiny { 4 } else { 16 })
            }
            Workload::Fleet64Portfolio => fleet(&FleetParams::new(if tiny { 8 } else { 64 })),
        }
    }

    /// Iteration budget of one solve (of each portfolio task). The
    /// design solvers use `dsd design`'s default of 300.
    fn budget(self, scale: Scale) -> Budget {
        Budget::iterations(match (self, scale) {
            (Workload::Fleet64Portfolio, Scale::Full) => 16,
            (_, Scale::Full) => 300,
            (_, Scale::Tiny) => 4,
        })
    }

    /// Operations run on the default seed whatever the base seed is;
    /// their mean best cost is `best_cost_usd`. Search quality varies
    /// strongly with the seed at fleet scale, and a fixed reference set
    /// makes any change in that number a change in quality.
    fn reference_ops(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::PeerSites, Scale::Full) => 10,
            (Workload::FourSites16, Scale::Full) => 4,
            _ => 1,
        }
    }

    /// Solver seed of operation `i` from base seed `base`: consecutive
    /// seeds, consecutive pairs for the portfolio's two seeds, and for
    /// the explain workload the seeds of the designs it cycles through
    /// (explanation time depends on the design, so one design per run
    /// would make the run's median a draw of one design).
    fn op_seed(self, base: u64, i: u64, scale: Scale) -> u64 {
        let designs = if scale == Scale::Full { EXPLAINED_DESIGNS } else { 1 };
        base.wrapping_add(match self {
            Workload::Fleet64Portfolio => 2 * i,
            Workload::ExplainFourSites16 => i % designs,
            _ => i,
        })
    }
}

/// What one timed operation produced.
#[derive(Debug)]
pub struct Op {
    /// Wall time of the operation, excluding its correctness check.
    pub wall_s: f64,
    /// Candidate evaluations the operation performed.
    pub evals: u64,
    /// Best total annual cost found, or the explained design's cost.
    pub cost: f64,
    /// Whether the operation passed every correctness check.
    pub ok: bool,
    /// The search's own outcome (search workloads only).
    pub outcome: Option<SolveOutcome>,
    /// Portfolio `[tasks, steals, adoptions]` (portfolio workload only).
    pub portfolio: Option<[u64; 3]>,
}

/// A design the explain workload explains: the seed `dsd design` found
/// it with, and the candidate evaluations one explanation performs.
struct Explained {
    seed: u64,
    design: Candidate,
    evals: u64,
}

/// A set-up workload: its environment (with the lower bound memoized),
/// the base seed, and for the explain workload the designs explained.
pub struct Bench {
    workload: Workload,
    scale: Scale,
    /// The environment every operation runs against.
    pub env: Environment,
    /// Base seed of the timed operations.
    seed: u64,
    /// Wall time of each set-up: environment build plus lower bound.
    setup_s: Vec<f64>,
    /// The lower-bound part of each set-up.
    pub bound_s: Vec<f64>,
    explained: Vec<Explained>,
}

/// Designs the explain workload's timed operations cycle through.
const EXPLAINED_DESIGNS: u64 = 8;

/// A batch of set-ups repeats while it is shorter than this, so a cheap
/// set-up still yields a steady median…
const SETUP_BATCH_S: f64 = 0.2;
/// …up to this many times.
const SETUP_BATCH_MAX: usize = 20;

impl Bench {
    /// Sets the workload up with one batch of set-ups (see
    /// [`Bench::time_setup`]) and keeps the last environment built. The
    /// explain workload then solves the designs its operations explain.
    ///
    /// # Errors
    ///
    /// When a design to explain has no feasible solution.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Result<Bench, String> {
        let (mut setup_s, mut bound_s) = (Vec::new(), Vec::new());
        let env = set_up(workload, scale, &mut setup_s, &mut bound_s);
        let mut bench =
            Bench { workload, scale, env, seed, setup_s, bound_s, explained: Vec::new() };
        if workload == Workload::ExplainFourSites16 {
            let seeds: Vec<u64> = bench
                .reference_seeds()
                .chain(bench.timed_seeds().take(EXPLAINED_DESIGNS as usize))
                .collect();
            for seed in seeds {
                if bench.explained.iter().any(|e| e.seed == seed) {
                    continue;
                }
                let design = design_solve(&bench.env, workload.budget(scale), seed)
                    .best
                    .ok_or(format!("no feasible design to explain for seed {seed}"))?;
                let evals = explain_evals(&bench.env, &design);
                bench.explained.push(Explained { seed, design, evals });
            }
        }
        Ok(bench)
    }

    /// Times one more batch of set-ups; the environments built are
    /// dropped. Batches at different moments of a run keep a burst of
    /// host load from shifting every sample of `setup_s`.
    pub fn time_setup(&mut self) {
        set_up(self.workload, self.scale, &mut self.setup_s, &mut self.bound_s);
    }

    /// Seeds of the reference operations behind `best_cost_usd`: the
    /// default seed's, whatever the base seed is.
    pub fn reference_seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.workload.reference_ops(self.scale))
            .map(|i| self.workload.op_seed(DEFAULT_SEED, i, self.scale))
    }

    /// Seeds of the timed operations, drawn from the base seed (endless).
    pub fn timed_seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..).map(|i| self.workload.op_seed(self.seed, i, self.scale))
    }

    /// The design operation `seed` explains (explain workload only).
    #[must_use]
    pub fn explained_design(&self, seed: u64) -> Option<&Candidate> {
        self.explained.iter().find(|e| e.seed == seed).map(|e| &e.design)
    }

    /// Runs the operation on seed `seed` — for the explain workload, on
    /// that seed's design — with `workers` portfolio workers (the design
    /// solvers are single-threaded and ignore it), then checks its result.
    #[must_use]
    pub fn op(&self, seed: u64, workers: usize) -> Op {
        let env = &self.env;
        if self.workload == Workload::ExplainFourSites16 {
            let explained = self
                .explained
                .iter()
                .find(|e| e.seed == seed)
                .expect("set-up solves every design an operation explains");
            let started = Stopwatch::start();
            let (ok, cost) = explain(env, &explained.design);
            let wall_s = started.elapsed_secs();
            return Op { wall_s, evals: explained.evals, cost, ok, outcome: None, portfolio: None };
        }
        let budget = self.workload.budget(self.scale);
        let started = Stopwatch::start();
        let (outcome, portfolio) = if self.workload == Workload::Fleet64Portfolio {
            let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
            let run = Portfolio::new(env).with_workers(workers).solve_with_cache(
                budget,
                &[seed, seed.wrapping_add(1)],
                &cache,
            );
            (run.outcome, Some([run.tasks, run.steals, run.adoptions]))
        } else {
            (design_solve(env, budget, seed), None)
        };
        let wall_s = started.elapsed_secs();
        let (ok, cost) = match &outcome.best {
            Some(best) => (repriced_and_certified(env, best), best.cost().total().as_f64()),
            None => (false, f64::NAN),
        };
        Op {
            wall_s,
            evals: outcome.stats.nodes_evaluated,
            cost,
            ok,
            outcome: Some(outcome),
            portfolio,
        }
    }
}

/// One batch of set-ups: builds the environment and its certified lower
/// bound, timing both, at least once and again while the batch is
/// shorter than [`SETUP_BATCH_S`]. Returns the last environment.
fn set_up(
    workload: Workload,
    scale: Scale,
    setup_s: &mut Vec<f64>,
    bound_s: &mut Vec<f64>,
) -> Environment {
    let batch = Stopwatch::start();
    for rep in 1.. {
        let started = Stopwatch::start();
        let env = workload.environment(scale);
        let bound = Stopwatch::start();
        std::hint::black_box(env.certified_lower_bound());
        bound_s.push(bound.elapsed_secs());
        setup_s.push(started.elapsed_secs());
        if rep >= SETUP_BATCH_MAX || batch.elapsed_secs() >= SETUP_BATCH_S {
            return env;
        }
    }
    unreachable!("the batch loop returns")
}

/// `dsd design`'s default solve: the sequential solver with a fresh
/// evaluation cache.
fn design_solve(env: &Environment, budget: Budget, seed: u64) -> SolveOutcome {
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    DesignSolver::new(env).with_cache(&cache).solve(budget, &mut rng)
}

/// Correctness gate of a search result: a fresh full evaluation of the
/// best design bit-equals its reported cost, and the cost respects the
/// certified lower bound.
fn repriced_and_certified(env: &Environment, best: &Candidate) -> bool {
    let reported = best.cost().total();
    let mut fresh = best.clone();
    // A clone keeps the cached cost; touching the provision drops it so
    // `evaluate` re-prices from scratch through the oracle.
    fresh.provision_mut();
    let repriced = fresh.evaluate(env).total();
    let certificate = Certificate::new(env.certified_lower_bound(), reported);
    repriced.as_f64().to_bits() == reported.as_f64().to_bits() && certificate.verify().is_ok()
}

/// The `dsd explain` sequence on a fresh copy of `design`: the oracle
/// evaluation, the cost attribution and its bit-exact verification, a
/// fresh lower bound with its certificate, and the technique marginals.
/// Each call into a layer runs under a `bench.*` span so a traced run
/// attributes the operation's time. Returns whether every check held
/// and the explained cost.
fn explain(env: &Environment, design: &Candidate) -> (bool, f64) {
    let _op = span("bench.explain", "bench");
    let mut candidate = design.clone();
    // Drop the cached cost, as loading a saved design does.
    candidate.provision_mut();
    let cost = {
        let _s = span("bench.evaluate", "bench");
        candidate.evaluate(env).total()
    };
    let attributed = {
        let _s = span("bench.attribution", "bench");
        candidate.attribution(env).verify().is_ok()
    };
    let certified = {
        let _s = span("bench.lower_bound", "bench");
        let bound = lower_bound(env);
        Certificate::new(&bound, cost).verify().is_ok()
    };
    let marginals = {
        let _s = span("bench.technique_marginals", "bench");
        let mut scache = ScenarioOutcomeCache::new();
        technique_marginals(env, &mut candidate, &mut scache)
    };
    let repriced = cost.as_f64().to_bits() == design.cost().total().as_f64().to_bits();
    (repriced && attributed && certified && !marginals.is_empty(), cost.as_f64())
}

/// Candidate evaluations one [`explain`] performs: the oracle and the
/// attributed evaluation, plus one delta evaluation per placement of an
/// alternative technique that fits — the trials `technique_marginals`
/// prices. Counted by applying and undoing each trial, which is far
/// cheaper than recording a traced explanation.
fn explain_evals(env: &Environment, design: &Candidate) -> u64 {
    let mut candidate = design.clone();
    let mut evals = 2;
    for (&app, assignment) in design.assignments() {
        let class = env.workloads[app].class_with(&env.thresholds);
        for (technique, template) in env.catalog.eligible_for(class) {
            if technique == assignment.technique {
                continue;
            }
            let config = template.default_config();
            for placement in PlacementOptions::enumerate(env, technique) {
                let mv = Move::Reassign { app, technique, config, placement };
                if let Ok(undo) = candidate.apply_move(env, &mv) {
                    candidate.undo_move(undo);
                    evals += 1;
                }
            }
        }
    }
    evals
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: set up, then run operations back to back for
/// `seconds`, with tracing off and one solver thread. Set-ups are timed
/// in three batches: before, between and after the two passes below.
///
/// The first half of the time runs the reference operations, then
/// operations on seeds drawn from `seed` (at least one); the second half
/// repeats that sequence. Each input's time is the faster of its runs:
/// slowdowns from other tenants only ever add time, and a burst rarely
/// covers both runs half a run apart. `solve_s` and `evals_per_s` are
/// medians over inputs.
#[must_use]
pub fn end_to_end(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut bench = match Bench::new(workload, scale, seed) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            report.check(false);
            return report;
        }
    };
    let reference: Vec<u64> = bench.reference_seeds().collect();
    let mut inputs: BTreeMap<u64, Input> = BTreeMap::new();
    let clock = Stopwatch::start();
    let mut sequence = Vec::new();
    for seed in reference.iter().copied().chain(bench.timed_seeds()) {
        if sequence.len() > reference.len() && clock.elapsed_secs() >= seconds / 2.0 {
            break;
        }
        run_input(&bench, &mut report, &mut inputs, seed);
        sequence.push(seed);
    }
    bench.time_setup();
    for &seed in &sequence {
        run_input(&bench, &mut report, &mut inputs, seed);
    }
    bench.time_setup();
    let walls: Vec<f64> = inputs.values().map(|i| i.wall_s).collect();
    let rates: Vec<f64> = inputs.values().map(|i| i.evals as f64 / i.wall_s).collect();
    let costs: Vec<f64> = reference.iter().map(|seed| inputs[seed].cost).collect();
    report.metric("setup_s", median(&bench.setup_s), "s");
    report.metric("solve_s", median(&walls), "s");
    report.metric("evals_per_s", median(&rates), "1/s");
    report.metric("best_cost_usd", mean(&costs), "USD/yr");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// One input of the end-to-end run: its fastest wall time, its
/// candidate evaluations, and the cost it found.
struct Input {
    wall_s: f64,
    evals: u64,
    cost: f64,
}

/// Runs the operation on `seed` and folds it into `inputs`, recording
/// its check in `report`.
fn run_input(bench: &Bench, report: &mut Report, inputs: &mut BTreeMap<u64, Input>, seed: u64) {
    let op = bench.op(seed, 1);
    let input = inputs.entry(seed).or_insert(Input {
        wall_s: f64::INFINITY,
        evals: op.evals,
        cost: op.cost,
    });
    // A repeated input must reproduce its cost bit for bit.
    report.check(op.ok && input.cost.to_bits() == op.cost.to_bits());
    input.wall_s = input.wall_s.min(op.wall_s);
}
