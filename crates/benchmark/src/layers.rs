//! The traced run: per-layer metrics for one workload.
//!
//! Three parts, each from this process with one solver thread unless
//! stated:
//!
//! 1. **Reference and profile pass.** The operation on the first timed
//!    seed runs untraced a few times (the first with allocation counting
//!    on), then under a `dsd_obs::Recorder`. The folded span tree gives
//!    per-layer self-time shares; the traced/untraced wall ratio is the
//!    tracing overhead.
//! 2. **Layer replay.** From the workload's own design, every trial move
//!    a refit or resource-addition pass would explore is fed through each
//!    layer's public call under the benchmark's own timer, giving the
//!    per-call latency distribution and allocations per call.
//! 3. **Portfolio pass** (portfolio workload only). Two-worker solves of
//!    the same operation run beside the one-worker reference solves.

use dsd_core::{
    scenario_digests, technique_marginals, Candidate, CandidateKey, ConfigurationSolver,
    Environment, EvalCache, Move, ScenarioOutcomeCache, Thoroughness, DEFAULT_CACHE_CAPACITY,
};
use dsd_failure::FailureScenario;
use dsd_obs::{ProfileTree, Recorder, Stopwatch};
use dsd_recovery::{AppProtection, Evaluator};

use crate::alloc;
use crate::report::Report;
use crate::stats::{median, quantile, spread};
use crate::workload::{Bench, Op, Scale, Workload};

/// Span names whose self-time share is reported as
/// `profile.<name>.self_frac`.
const PROFILED_SPANS: [&str; 5] = [
    "solver.greedy",
    "solver.refit",
    "recovery.annual_penalties",
    "config.optimize",
    "portfolio.worker",
];

/// How much of the run each part may take.
struct Plan {
    /// Untraced (and, for the portfolio, two-worker) reference operations.
    reference_ops: usize,
    /// Traced operations.
    traced_ops: usize,
    /// Timed calls per replayed function…
    calls: usize,
    /// …unless this much time runs out first.
    cap_s: f64,
}

impl Plan {
    fn new(workload: Workload, scale: Scale) -> Plan {
        let fleet = workload == Workload::Fleet64Portfolio;
        match scale {
            Scale::Full => Plan {
                reference_ops: 5,
                traced_ops: if fleet { 1 } else { 5 },
                calls: 1000,
                cap_s: 1.0,
            },
            Scale::Tiny => Plan { reference_ops: 1, traced_ops: 1, calls: 8, cap_s: f64::INFINITY },
        }
    }
}

/// Runs the traced run for `workload` and returns its per-layer report.
#[must_use]
pub fn traced(workload: Workload, scale: Scale, seed: u64) -> Report {
    let mut report = Report::default();
    let bench = match Bench::new(workload, scale, seed) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            report.check(false);
            return report;
        }
    };
    let plan = Plan::new(workload, scale);
    let portfolio = workload == Workload::Fleet64Portfolio;

    // Part 1: an allocation-counted operation, then the untraced
    // reference operations (interleaved with two-worker solves on the
    // portfolio workload), then the traced ones. All run the same seed,
    // so every one-worker run must find the bit-identical cost.
    let seed = bench.timed_seeds().next().expect("timed seeds are endless");
    let (reference, allocs) = alloc::counted(|| bench.op(seed, 1));
    report.check(reference.ok);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..plan.reference_ops {
        let (op, cpu) = with_cpu(|| bench.op(seed, 1));
        report.check(op.ok && same_cost(&op, &reference));
        one.push((op, cpu));
        if portfolio {
            // Two-worker results depend on scheduling; only their own
            // gate applies.
            let (op, cpu) = with_cpu(|| bench.op(seed, 2));
            report.check(op.ok);
            two.push((op, cpu));
        }
    }
    let recorder = Recorder::new();
    let mut traced_walls = Vec::new();
    for _ in 0..plan.traced_ops {
        let op = {
            let _guard = recorder.install();
            bench.op(seed, 1)
        };
        report.check(op.ok && same_cost(&op, &reference));
        traced_walls.push(op.wall_s);
    }
    let untraced_walls: Vec<f64> = one.iter().map(|(op, _)| op.wall_s).collect();
    profile(&mut report, &recorder, portfolio);
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "ratio",
    );

    let timed = &one[0].0;
    let outcome = timed.outcome.as_ref();
    let share = |f: fn(&dsd_core::SolveStats) -> std::time::Duration| {
        outcome.map_or(0.0, |o| f(&o.stats).as_secs_f64() / timed.wall_s)
    };
    report.metric("design_solver.greedy_frac", share(|s| s.greedy_time), "ratio");
    report.metric("design_solver.refit_frac", share(|s| s.refit_time), "ratio");
    report.metric(
        "design_solver.evals_per_solve",
        outcome.map_or(0.0, |o| o.stats.nodes_evaluated as f64),
        "count",
    );
    report.metric(
        "eval_cache.hit_ratio",
        outcome.and_then(|o| o.cache).map_or(0.0, |c| c.hit_rate()),
        "ratio",
    );
    report.metric("solve.allocs_per_eval", allocs as f64 / reference.evals as f64, "count");
    report.metric("bounds.lower_bound.s", median(&bench.bound_s), "s");

    // Part 2: layer replay from the workload's own design.
    let solved = reference.outcome.as_ref().and_then(|o| o.best.as_ref());
    let base = solved.or(bench.explained_design(seed));
    match base {
        Some(base) => {
            let mismatches = replay_layers(&mut report, &plan, &bench.env, base);
            report.check(mismatches == 0);
        }
        None => report.check(false),
    }

    // Part 3: the portfolio pass.
    portfolio_pass(&mut report, if portfolio { &one } else { &[] }, &two);
    report
}

/// Whether two runs of the same operation found bit-identical costs.
fn same_cost(a: &Op, b: &Op) -> bool {
    a.cost.to_bits() == b.cost.to_bits()
}

/// Runs `f` and returns its result with the process CPU time it took,
/// in clock ticks (user plus system, all threads).
fn with_cpu<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_ticks();
    let out = f();
    (out, cpu_ticks() - before)
}

/// Process CPU time from `/proc/self/stat` (fields 14 and 15), or 0
/// where `/proc` is unavailable. Only ratios of it are reported, so the
/// tick length cancels.
fn cpu_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name start at field 3.
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    field(14) + field(15)
}

/// Part 1's profile metrics from the traced operations.
fn profile(report: &mut Report, recorder: &Recorder, portfolio: bool) {
    let events = recorder.drain_events();
    let snapshot = recorder.metrics_snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let mut tree = ProfileTree::from_events(&events);
    if portfolio {
        // The spawning thread only waits for the workers to join; its
        // span would count the same wall time twice.
        tree.roots.remove("solver.portfolio");
    }
    let total = tree.total_ns() as f64;
    let rows = tree.rows();
    let share = |name: &str, ns: fn(&dsd_obs::ProfileRow) -> u64| {
        rows.iter().filter(|r| r.name == name).map(ns).sum::<u64>() as f64 / total
    };
    for name in PROFILED_SPANS {
        report.metric(format!("profile.{name}.self_frac"), share(name, |r| r.self_ns), "ratio");
    }
    // The explain operation's fresh lower bound, children included.
    report.metric(
        "profile.bench.lower_bound.total_frac",
        share("bench.lower_bound", |r| r.total_ns),
        "ratio",
    );
    report.metric("profile.attributed_frac", tree.attributed_fraction(), "ratio");

    let ratio = |hit: f64, miss: f64| hit / (hit + miss);
    report.metric(
        "scenario_cache.reuse_ratio",
        ratio(counter("eval.delta_hits"), counter("eval.scenarios_recomputed")),
        "ratio",
    );
    report.metric(
        "delta.digest_reuse_ratio",
        ratio(counter("eval.digests_reused"), counter("eval.digests_recombined")),
        "ratio",
    );

    // The longest task against the solve it ran in: with perfect
    // scheduling no worker count brings the solve below this share.
    let longest = |names: &[&str]| {
        events.iter().filter(|e| names.contains(&e.name)).map(|e| e.dur_ns).max().unwrap_or(0)
    };
    report.metric(
        "portfolio.longest_task_frac",
        longest(&["portfolio.greedy", "portfolio.anneal", "portfolio.tabu"]) as f64
            / longest(&["solver.portfolio"]) as f64,
        "ratio",
    );
}

/// Part 3's metrics: one- and two-worker wall times with their spread,
/// the speed-up, CPU per evaluation, and the two-worker scheduler
/// counters. Zero on workloads without a portfolio pass.
fn portfolio_pass(report: &mut Report, one: &[(Op, f64)], two: &[(Op, f64)]) {
    let walls = |ops: &[(Op, f64)]| ops.iter().map(|(op, _)| op.wall_s).collect::<Vec<_>>();
    let (one_walls, two_walls) = (walls(one), walls(two));
    let cpu_per_eval = |ops: &[(Op, f64)]| {
        median(&ops.iter().map(|(op, cpu)| cpu / op.evals as f64).collect::<Vec<_>>())
    };
    let counter = |i: usize| {
        median(
            &two.iter().filter_map(|(op, _)| op.portfolio).map(|c| c[i] as f64).collect::<Vec<_>>(),
        )
    };
    report.metric("portfolio.tasks", counter(0), "count");
    report.metric("portfolio.steals", counter(1), "count");
    report.metric("portfolio.adoptions", counter(2), "count");
    report.metric("portfolio.wall_1w.s", median(&one_walls), "s");
    report.metric("portfolio.wall_1w.spread", spread(&one_walls), "ratio");
    report.metric("portfolio.wall_2w.s", median(&two_walls), "s");
    report.metric("portfolio.wall_2w.spread", spread(&two_walls), "ratio");
    report.metric("portfolio.speedup_2w", median(&one_walls) / median(&two_walls), "ratio");
    report.metric(
        "portfolio.cpu_per_eval_ratio_2w",
        cpu_per_eval(two) / cpu_per_eval(one),
        "ratio",
    );
}

/// Per-call samples of one replayed function.
#[derive(Default)]
struct Samples {
    ns: Vec<f64>,
    allocs: u64,
}

impl Samples {
    /// Times one call, counting its allocations. The result is returned
    /// (and dropped) outside the timed window.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let ((out, ns), allocs) = alloc::counted(|| {
            let started = Stopwatch::start();
            let out = f();
            (out, started.elapsed_ns())
        });
        self.ns.push(ns as f64);
        self.allocs += allocs;
        out
    }

    fn report(&self, report: &mut Report, name: &str) {
        let calls = self.ns.len() as f64;
        report.metric(format!("{name}.calls"), calls, "count");
        report.metric(format!("{name}.ns_p50"), median(&self.ns), "ns");
        report.metric(format!("{name}.ns_p99"), quantile(&self.ns, 0.99), "ns");
        report.metric(format!("{name}.allocs_per_call"), self.allocs as f64 / calls, "count");
    }
}

/// Cycles `body` over `items` trial indices until `plan.calls` calls
/// were timed or `plan.cap_s` ran out — but always at least `min_items`
/// indices, and never past a full cycle that timed nothing.
fn replay(
    plan: &Plan,
    items: usize,
    min_items: usize,
    mut body: impl FnMut(usize, &mut Samples),
) -> Samples {
    let mut samples = Samples::default();
    let clock = Stopwatch::start();
    let mut i = 0;
    while i < min_items || (samples.ns.len() < plan.calls && clock.elapsed_secs() < plan.cap_s) {
        if items == 0 || (i >= items && samples.ns.is_empty()) {
            break;
        }
        body(i % items, &mut samples);
        i += 1;
    }
    samples
}

/// The trial set a refit or resource-addition pass explores from `base`:
/// each application's full configuration space at its current placement,
/// plus a one-unit addition to every active route, tape library and
/// array.
fn trial_moves(env: &Environment, base: &Candidate) -> Vec<Move> {
    let mut moves = Vec::new();
    for (&app, assignment) in base.assignments() {
        let technique = &env.catalog[assignment.technique];
        for config in technique.config_space() {
            moves.push(Move::Reassign {
                app,
                technique: assignment.technique,
                config,
                placement: assignment.placement,
            });
        }
    }
    let provision = base.provision();
    for route in provision.active_routes() {
        moves.push(Move::AddLinks { route, extra: 1 });
    }
    for tape in provision.provisioned_tapes() {
        moves.push(Move::AddTapeDrives { tape, extra: 1 });
    }
    for array in provision.provisioned_arrays() {
        moves.push(Move::AddArrayUnits { array, extra: 1 });
    }
    moves
}

/// Part 2: replays the trial moves through every layer and reports each
/// function's samples. Returns how many delta costs differed from the
/// full oracle (or applied where the oracle did not).
fn replay_layers(report: &mut Report, plan: &Plan, env: &Environment, base: &Candidate) -> usize {
    let moves = trial_moves(env, base);
    let n = moves.len();
    let quick = Thoroughness::Quick;
    let solver = ConfigurationSolver::new(env);
    let limits = solver.addition_limits();

    // The full oracle: a fresh clone per trial, every move at least once.
    // Its first pass also fills the evaluation cache with every other
    // trial, so the lookup replay sees hits and misses.
    let mut oracle: Vec<Option<u64>> = vec![None; n];
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let evaluate = replay(plan, n, n, |i, s| {
        let mut trial = base.clone();
        if trial.apply_move(env, &moves[i]).is_err() {
            return;
        }
        s.time(|| {
            trial.evaluate(env);
        });
        let cost = trial.cost().clone();
        if oracle[i].is_none() {
            oracle[i] = Some(cost.total().as_f64().to_bits());
            if i % 2 == 0 {
                cache.insert(CandidateKey::of(&trial, quick, limits), trial, cost);
            }
        }
    });

    let mut scache = ScenarioOutcomeCache::new();
    let complete = replay(plan, n, 0, |i, s| {
        let mut trial = base.clone();
        if trial.apply_move(env, &moves[i]).is_ok() {
            s.time(|| solver.complete_with(&mut trial, quick, &mut scache));
        }
    });
    complete.report(report, "config_solver.complete");

    replay_trials(plan, env, base, &moves, |work, s| {
        s.time(|| CandidateKey::of(work, quick, limits));
    })
    .report(report, "eval_cache.key");
    replay_trials(plan, env, base, &moves, |work, s| {
        let key = CandidateKey::of(work, quick, limits);
        s.time(|| cache.lookup(&key));
    })
    .report(report, "eval_cache.lookup");

    let mut work = warm(env, base);
    let apply_undo = replay(plan, n, 0, |i, s| {
        s.time(|| {
            if let Ok(undo) = work.apply_move(env, &moves[i]) {
                work.undo_move(undo);
            }
        });
    });
    apply_undo.report(report, "candidate.apply_undo");

    // Delta evaluation against one warm scenario cache, as in the search
    // loop; every cost must bit-equal the full oracle.
    let mut work = warm(env, base);
    let mut scache = ScenarioOutcomeCache::new();
    let mut mismatches = 0;
    let delta = replay(plan, n, n, |i, s| {
        match s.time(|| work.evaluate_delta(env, &moves[i], &mut scache)) {
            Ok((cost, undo)) => {
                work.undo_move(undo);
                mismatches += usize::from(oracle[i] != Some(cost.total().as_f64().to_bits()));
            }
            Err(_) => mismatches += usize::from(oracle[i].is_some()),
        }
    });
    delta.report(report, "candidate.evaluate_delta");
    evaluate.report(report, "candidate.evaluate");

    replay_trials(plan, env, base, &moves, |work, s| {
        let scenarios = env.failures.enumerate(work.primaries());
        s.time(|| scenario_digests(work, &scenarios));
    })
    .report(report, "delta.scenario_digests");
    let mut scenarios_seen = 0usize;
    let enumerate = replay_trials(plan, env, base, &moves, |work, s| {
        scenarios_seen += s.time(|| env.failures.enumerate(work.primaries())).len();
    });
    enumerate.report(report, "failure.enumerate");
    report.metric(
        "failure.enumerate.scenarios_per_call",
        scenarios_seen as f64 / enumerate.ns.len() as f64,
        "count",
    );

    // The recovery layer, priced on each trial design from scratch.
    replay_recovery(plan, env, base, &moves, |evaluator, protections, scenarios, s| {
        s.time(|| evaluator.annual_penalties(protections, scenarios));
    })
    .report(report, "recovery.annual_penalties");
    replay_recovery(plan, env, base, &moves, |evaluator, protections, scenarios, s| {
        s.time(|| evaluator.annual_penalties_attributed(protections, scenarios));
    })
    .report(report, "recovery.annual_penalties_attributed");
    replay_recovery(plan, env, base, &moves, |evaluator, protections, scenarios, s| {
        for scenario in scenarios {
            s.time(|| evaluator.evaluate_scenario(protections, &scenario.scope));
        }
    })
    .report(report, "recovery.evaluate_scenario");

    replay_trials(plan, env, base, &moves, |work, s| {
        s.time(|| work.provision().annual_outlay());
    })
    .report(report, "resources.annual_outlay");

    let mut explained = base.clone();
    explained.evaluate(env);
    replay(plan, 1, 0, |_, s| {
        s.time(|| explained.attribution(env));
    })
    .report(report, "explain.attribution");
    replay(plan, 1, 0, |_, s| {
        s.time(|| technique_marginals(env, &mut explained, &mut ScenarioOutcomeCache::new()));
    })
    .report(report, "explain.technique_marginals");

    mismatches
}

/// A working copy of `base` evaluated once, so its incremental memo is
/// live as in the search loop.
fn warm(env: &Environment, base: &Candidate) -> Candidate {
    let mut work = base.clone();
    work.evaluate_with(env, &mut ScenarioOutcomeCache::new());
    work
}

/// Replays `body` on a warm copy of `base` with each trial move applied
/// (moves that do not fit are skipped), undoing the move afterwards.
fn replay_trials(
    plan: &Plan,
    env: &Environment,
    base: &Candidate,
    moves: &[Move],
    mut body: impl FnMut(&Candidate, &mut Samples),
) -> Samples {
    let mut work = warm(env, base);
    replay(plan, moves.len(), 0, |i, s| {
        if let Ok(undo) = work.apply_move(env, &moves[i]) {
            body(&work, s);
            work.undo_move(undo);
        }
    })
}

/// [`replay_trials`] for the recovery layer: `body` times calls on an
/// evaluator over each trial design's protections and failure scenarios.
fn replay_recovery(
    plan: &Plan,
    env: &Environment,
    base: &Candidate,
    moves: &[Move],
    mut body: impl FnMut(&Evaluator, &[AppProtection], &[FailureScenario], &mut Samples),
) -> Samples {
    replay_trials(plan, env, base, moves, |work, s| {
        let protections = work.protections(env);
        let scenarios = env.failures.enumerate(work.primaries());
        let evaluator = Evaluator::new(&env.workloads, work.provision(), env.recovery);
        body(&evaluator, &protections, &scenarios, s);
    })
}
